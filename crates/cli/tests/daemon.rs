//! End-to-end crash test of the `rfsp serve` daemon against the real
//! binary: submit two jobs, SIGKILL the daemon mid-run, restart it on the
//! same spool, and demand that both jobs complete with event streams
//! byte-identical to uninterrupted single-run references.
//!
//! Along the way this also certifies live telemetry (a `submit --watch`
//! client must receive event lines while its job runs) and the `jobs`
//! listing. The spool root honours `RFSP_DAEMON_SPOOL` so CI can archive
//! it when the test fails. A second test sends hostile request lines and
//! demands that the daemon answers them with errors and keeps serving.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_rfsp");

/// The two tenant jobs: same shape the references are run with.
/// Sized so a debug-build run lasts thousands of ticks (the daemon is
/// SIGKILLed while both are provably still in flight) while the cadence
/// keeps full-state checkpoint serialization from dominating.
const JOBS: [(&str, &str); 2] = [("4096", "11"), ("3072", "23")];

fn job_flags(n: &str, seed: &str) -> Vec<String> {
    [
        "--algo",
        "x",
        "--n",
        n,
        "--p",
        "8",
        "--adversary",
        "random",
        "--rate",
        "0.15",
        "--restart-rate",
        "0.4",
        "--seed",
        seed,
        "--every",
        "200",
    ]
    .iter()
    .map(ToString::to_string)
    .collect()
}

fn wait_for(what: &str, timeout: Duration, mut ok: impl FnMut() -> bool) {
    let start = Instant::now();
    while !ok() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Kills the daemon if the test panics before shutting it down.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_daemon(spool: &str, socket: &str) -> KillOnDrop {
    let child = Command::new(BIN)
        .args(["serve", "--spool", spool, "--socket", socket, "--workers", "0", "--quantum", "200"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    KillOnDrop(child)
}

#[test]
fn daemon_survives_sigkill_and_resumes_byte_identically() {
    let base = std::env::var("RFSP_DAEMON_SPOOL").map(PathBuf::from).unwrap_or_else(|_| {
        std::env::temp_dir().join(format!("rfsp-daemon-{}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&base);
    let spool = base.join("spool");
    std::fs::create_dir_all(&spool).unwrap();
    let spool_s = spool.to_str().unwrap().to_string();
    let socket = spool.join("rfsp.sock");
    let socket_s = socket.to_str().unwrap().to_string();
    // sun_path tops out at ~108 bytes; fail loudly, not with EINVAL.
    assert!(socket_s.len() < 100, "socket path too long: {socket_s}");

    // Uninterrupted references through the same session layer, one
    // process per run: the daemon's spooled streams must match these
    // byte for byte even though the daemon is killed mid-run.
    let mut references = Vec::new();
    for (n, seed) in JOBS {
        let path = base.join(format!("ref-{seed}.jsonl"));
        let mut args: Vec<String> =
            ["experiment", "--run", "writeall"].iter().map(ToString::to_string).collect();
        args.extend(job_flags(n, seed));
        args.extend(["--events".to_string(), path.to_str().unwrap().to_string()]);
        let status = Command::new(BIN)
            .args(&args)
            .stdout(Stdio::null())
            .status()
            .expect("spawn reference run");
        assert!(status.success(), "reference run failed");
        references.push(std::fs::read(&path).unwrap());
    }

    // First daemon: submit both jobs, the second through a `--watch`
    // client so live telemetry is certified while the jobs run.
    let mut daemon = spawn_daemon(&spool_s, &socket_s);
    wait_for("daemon socket", Duration::from_secs(30), || socket.exists());

    let mut submit1: Vec<String> =
        ["submit", "--socket", &socket_s].iter().map(ToString::to_string).collect();
    submit1.extend(job_flags(JOBS[0].0, JOBS[0].1));
    let out = Command::new(BIN).args(&submit1).output().expect("submit job 1");
    assert!(out.status.success(), "submit failed: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "job 1");

    let mut submit2: Vec<String> =
        ["submit", "--socket", &socket_s, "--watch"].iter().map(ToString::to_string).collect();
    submit2.extend(job_flags(JOBS[1].0, JOBS[1].1));
    let mut watcher = Command::new(BIN)
        .args(&submit2)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("submit job 2 with --watch");
    let watcher_out = watcher.stdout.take().unwrap();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(watcher_out).lines() {
            let Ok(line) = line else { return };
            if tx.send(line).is_err() {
                return;
            }
        }
    });
    assert_eq!(rx.recv_timeout(Duration::from_secs(30)).expect("submit ack"), "job 2");
    // Live telemetry: at least one event line must arrive while the job
    // runs (this is what "streamable while jobs are in flight" means).
    let event = rx.recv_timeout(Duration::from_secs(60)).expect("telemetry line");
    assert!(
        event.contains("\"job\":2") && event.contains("\"event\""),
        "unexpected telemetry line: {event}"
    );

    // Both jobs must be visible to `rfsp jobs`.
    let listing =
        Command::new(BIN).args(["jobs", "--socket", &socket_s]).output().expect("jobs listing");
    let listing = String::from_utf8_lossy(&listing.stdout).to_string();
    assert!(listing.contains("x"), "listing missing algo: {listing}");

    // Wait for the first durable checkpoint, then SIGKILL the daemon
    // mid-run — no goodbye, exactly what a crash looks like.
    let dirs = [spool.join("job-000001"), spool.join("job-000002")];
    wait_for("a job checkpoint", Duration::from_secs(60), || {
        dirs.iter().any(|d| d.join("ck.json").exists())
    });
    daemon.0.kill().expect("SIGKILL daemon");
    let _ = daemon.0.wait();
    let _ = watcher.kill();
    let _ = watcher.wait();
    for d in &dirs {
        assert!(
            !d.join("done.json").exists(),
            "{} finished before the kill — enlarge the instances",
            d.display()
        );
    }

    // Second daemon on the same spool: it must re-adopt both jobs (one
    // from its checkpoint, one possibly from scratch) and finish them.
    let mut daemon = spawn_daemon(&spool_s, &socket_s);
    wait_for("both jobs to complete", Duration::from_secs(300), || {
        dirs.iter().all(|d| d.join("done.json").exists())
    });
    for d in &dirs {
        let marker = std::fs::read_to_string(d.join("done.json")).unwrap();
        assert!(marker.contains("completed"), "{}: {marker}", d.display());
    }

    // The crash is invisible in the output: byte-identical streams.
    for (d, reference) in dirs.iter().zip(&references) {
        let got = std::fs::read(d.join("events.jsonl")).unwrap();
        assert!(
            got == *reference,
            "{}: resumed event stream diverges from the uninterrupted reference",
            d.display()
        );
    }

    // The restarted daemon reports them as completed, then shuts down
    // cleanly on request.
    let listing =
        Command::new(BIN).args(["jobs", "--socket", &socket_s]).output().expect("jobs listing");
    let listing = String::from_utf8_lossy(&listing.stdout).to_string();
    assert!(listing.contains("Completed"), "listing missing completions: {listing}");
    let status = Command::new(BIN)
        .args(["cancel", "--socket", &socket_s, "--shutdown"])
        .status()
        .expect("shutdown request");
    assert!(status.success());
    wait_for_clean_exit(&mut daemon);

    if std::env::var("RFSP_DAEMON_SPOOL").is_err() {
        let _ = std::fs::remove_dir_all(&base);
    }
}

/// Wait for a daemon to exit after a shutdown request; it must exit cleanly.
fn wait_for_clean_exit(daemon: &mut KillOnDrop) {
    let start = Instant::now();
    loop {
        if let Some(status) = daemon.0.try_wait().unwrap() {
            assert!(status.success(), "daemon exited uncleanly: {status}");
            return;
        }
        assert!(start.elapsed() < Duration::from_secs(60), "daemon ignored shutdown");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn daemon_answers_hostile_requests_and_keeps_serving() {
    let base = std::env::temp_dir().join(format!("rfsp-daemon-abuse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let socket = base.join("rfsp.sock");
    let (base_s, socket_s) = (base.to_str().unwrap(), socket.to_str().unwrap());
    assert!(socket_s.len() < 100, "socket path too long: {socket_s}");
    let mut daemon = spawn_daemon(base_s, socket_s);
    wait_for("daemon socket", Duration::from_secs(30), || socket.exists());

    let reply = |line: &str| {
        let mut stream = UnixStream::connect(&socket).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        // The daemon may hang up before reading all of an oversized line.
        let _ = stream.write_all(line.as_bytes());
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).expect("reply");
        reply
    };
    let limit = usize::try_from(rfsp_run::MAX_REQUEST_BYTES).unwrap();
    // One byte over the frame bound: refused before it is parsed.
    let over = reply(&format!("{}\n", " ".repeat(limit + 1)));
    assert!(over.contains("\"Err\"") && over.contains("longer than"), "{over}");
    // Within the bound but nested far past the decoder's depth limit;
    // recursing into it would overflow the handler thread's stack.
    let deep = reply(&format!("{}\n", "[".repeat(limit)));
    assert!(deep.contains("\"Err\"") && deep.contains("nesting deeper"), "{deep}");
    // The daemon is still up and answering.
    assert_eq!(reply("\"Jobs\"\n").trim(), r#"{"JobList":{"jobs":[]}}"#);

    let status = Command::new(BIN)
        .args(["cancel", "--socket", socket_s, "--shutdown"])
        .status()
        .expect("shutdown request");
    assert!(status.success());
    wait_for_clean_exit(&mut daemon);
    let _ = std::fs::remove_dir_all(&base);
}
