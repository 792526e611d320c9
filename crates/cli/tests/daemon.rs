//! End-to-end crash test of the `rfsp serve` daemon against the real
//! binary: submit two jobs, SIGKILL the daemon mid-run, restart it on the
//! same spool, and demand that both jobs complete with event streams
//! byte-identical to uninterrupted single-run references.
//!
//! Along the way this also certifies live telemetry (a `submit --watch`
//! client must receive event lines while its job runs) and the `jobs`
//! listing. The spool root honours `RFSP_DAEMON_SPOOL` so CI can archive
//! it when the test fails. The other tests send hostile request lines and
//! demand that the daemon answers them with errors and keeps serving;
//! check that a watched stream is the tail of the job's spooled events,
//! through completion and through cancellation, with EOF right after; and
//! stall a watcher and demand that the daemon keeps answering and every
//! other job keeps running; and submit configs no job can run, and demand
//! that the daemon refuses them without spooling anything a restart could
//! re-adopt.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rfsp_run::{Request, RunConfig};

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

fn spawn_daemon(spool: &str, socket: &str, stderr: Stdio) -> KillOnDrop {
    let child = Command::new(BIN)
        .args(["serve", "--spool", spool, "--socket", socket, "--workers", "0", "--quantum", "200"])
        .stdout(Stdio::null())
        .stderr(stderr)
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
    let mut daemon = spawn_daemon(&spool_s, &socket_s, Stdio::null());
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
    let mut daemon = spawn_daemon(&spool_s, &socket_s, Stdio::null());
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
    let scene = Scene::start("daemon-abuse", Stdio::null());
    let reply = |line: &str| scene.reply(line, Duration::from_secs(30));
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
    scene.shut_down();
}

/// A daemon on a fresh directory of its own under the system temp dir.
struct Scene {
    base: PathBuf,
    socket: PathBuf,
    daemon: KillOnDrop,
}

impl Scene {
    fn start(name: &str, stderr: Stdio) -> Scene {
        let base = std::env::temp_dir().join(format!("rfsp-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let socket = base.join("rfsp.sock");
        let (base_s, socket_s) = (base.to_str().unwrap(), socket.to_str().unwrap());
        assert!(socket_s.len() < 100, "socket path too long: {socket_s}");
        let daemon = spawn_daemon(base_s, socket_s, stderr);
        wait_for("daemon socket", Duration::from_secs(30), || socket.exists());
        Scene { base, socket, daemon }
    }

    fn socket_str(&self) -> &str {
        self.socket.to_str().unwrap()
    }

    /// Send one raw request line; the stream stays open for the reply.
    fn send(&self, line: &str, timeout: Duration) -> UnixStream {
        let mut stream = UnixStream::connect(&self.socket).expect("connect");
        stream.set_read_timeout(Some(timeout)).unwrap();
        // The daemon may hang up before reading all of an oversized line.
        let _ = stream.write_all(line.as_bytes());
        stream
    }

    /// Send one raw request line and read the one-line reply.
    fn reply(&self, line: &str, timeout: Duration) -> String {
        let mut reply = String::new();
        BufReader::new(self.send(line, timeout)).read_line(&mut reply).expect("reply");
        reply
    }

    fn job_file(&self, job: u64, name: &str) -> PathBuf {
        self.base.join(format!("job-{job:06}")).join(name)
    }

    /// Wait for `job`'s terminal marker and return it.
    fn done_marker(&self, job: u64) -> String {
        let path = self.job_file(job, "done.json");
        wait_for(&format!("job {job}'s done marker"), Duration::from_secs(120), || path.exists());
        std::fs::read_to_string(path).unwrap()
    }

    /// `rfsp submit` for a job of `n` cells; returns its id.
    fn submit(&self, n: &str, seed: &str) -> u64 {
        let out = Command::new(BIN)
            .args(["submit", "--socket", self.socket_str()])
            .args(job_flags(n, seed))
            .output()
            .expect("submit");
        let ack = String::from_utf8_lossy(&out.stdout);
        ack.trim().strip_prefix("job ").and_then(|j| j.parse().ok()).expect("job id")
    }

    /// `rfsp submit --watch` for a job of `n` cells, its stdout piped.
    fn submit_watched(&self, n: &str, seed: &str) -> Child {
        Command::new(BIN)
            .args(["submit", "--socket", self.socket_str(), "--watch"])
            .args(job_flags(n, seed))
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("submit --watch")
    }

    /// Ask the daemon to shut down and wait for its clean exit.
    fn stop(&mut self) {
        let status = Command::new(BIN)
            .args(["cancel", "--socket", self.socket_str(), "--shutdown"])
            .status()
            .expect("shutdown request");
        assert!(status.success());
        wait_for_clean_exit(&mut self.daemon);
    }

    /// Shut the daemon down and start a new one on the same spool.
    fn restart(&mut self) {
        self.stop();
        self.daemon = spawn_daemon(self.base.to_str().unwrap(), self.socket_str(), Stdio::null());
        wait_for("daemon socket", Duration::from_secs(30), || self.socket.exists());
    }

    fn shut_down(mut self) {
        self.stop();
        let _ = std::fs::remove_dir_all(&self.base);
    }
}

/// Submit `config` raw, demand an `Err` reply containing `needle`, and
/// demand that nothing was spooled: `Jobs` answers with no jobs, no job
/// directory exists, and a daemon restarted on the spool adopts nothing.
fn assert_refused_without_trace(name: &str, config: RunConfig, needle: &str) {
    let mut scene = Scene::start(name, Stdio::null());
    let mut line = Vec::new();
    rfsp_run::write_line(&mut line, &Request::Submit { config }).unwrap();
    let reply = scene.reply(std::str::from_utf8(&line).unwrap(), Duration::from_secs(30));
    assert!(reply.contains("\"Err\"") && reply.contains(needle), "{reply}");
    let no_jobs = r#"{"JobList":{"jobs":[]}}"#;
    assert_eq!(scene.reply("\"Jobs\"\n", Duration::from_secs(30)).trim(), no_jobs);
    let job_dirs = std::fs::read_dir(&scene.base)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with("job-"))
        .count();
    assert_eq!(job_dirs, 0, "the refused submit left a job directory");
    scene.restart();
    assert_eq!(scene.reply("\"Jobs\"\n", Duration::from_secs(30)).trim(), no_jobs);
    scene.shut_down();
}

/// `acc` cannot be checkpointed and every daemon job is: the refusal must
/// come before the spool, or a restart runs the refused job anyway.
#[test]
fn a_refused_submit_is_not_run_after_a_restart() {
    let config = RunConfig { algo: "acc".into(), n: 64, p: 4, ..RunConfig::default() };
    assert_refused_without_trace("daemon-refuse-acc", config, "acc");
}

/// An instance far too large to allocate is refused at admission instead
/// of aborting the daemon, and on every restart after it.
#[test]
fn an_oversized_submit_gets_an_error_not_an_abort() {
    let config = RunConfig { n: 1 << 40, p: 4, ..RunConfig::default() };
    assert_refused_without_trace("daemon-refuse-huge", config, "--n");
}

/// A fault rate that is not a probability, or a thread count past the
/// cap, is refused at admission, before a job thread could panic on the
/// rate or spawn that many workers.
#[test]
fn an_out_of_range_rate_or_thread_count_is_refused() {
    let config =
        RunConfig { adversary: "random".into(), rate: 5.0, n: 64, p: 4, ..RunConfig::default() };
    assert_refused_without_trace("daemon-refuse-rate", config, "--rate");
    let threads = rfsp_run::MAX_THREADS + 1;
    let config = RunConfig { threads, n: 64, p: 4, ..RunConfig::default() };
    assert_refused_without_trace("daemon-refuse-threads", config, "--threads");
}

/// Strip the `{"job":N,"event":…}` envelope from watched lines, and demand
/// that what is left is the tail of the job's spooled `events.jsonl`, which
/// ends where the watched stream ended. Returns the watched events.
fn assert_spool_tail(scene: &Scene, job: u64, watched: &[String]) -> Vec<String> {
    let prefix = format!("{{\"job\":{job},\"event\":");
    let events: Vec<String> = watched
        .iter()
        .map(|l| {
            let e = l.strip_prefix(&prefix).and_then(|l| l.strip_suffix('}'));
            e.unwrap_or_else(|| panic!("malformed watch line {l:?}")).to_string()
        })
        .collect();
    let spool = std::fs::read_to_string(scene.job_file(job, "events.jsonl")).unwrap();
    let lines: Vec<&str> = spool.lines().collect();
    assert!(!events.is_empty(), "job {job}: nothing watched");
    assert!(events.len() <= lines.len(), "job {job}: watched more than the spool holds");
    let tail = &lines[lines.len() - events.len()..];
    if let Some(i) = (0..events.len()).find(|&i| events[i] != tail[i]) {
        panic!(
            "job {job}: watched line {i} of {} is {:?}, the spool's tail has {:?}",
            events.len(),
            events[i],
            tail[i]
        );
    }
    events
}

/// Read `child`'s stdout to EOF: the `job N` line, then the watched lines.
fn watch_to_eof(child: &mut Child, mut on_line: impl FnMut(&str)) -> (u64, Vec<String>) {
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let first = lines.next().expect("submit ack").unwrap();
    let job = first.strip_prefix("job ").and_then(|j| j.parse().ok()).expect("job id");
    let mut watched = Vec::new();
    for line in lines {
        let line = line.unwrap();
        on_line(&line);
        watched.push(line);
    }
    assert!(child.wait().unwrap().success(), "submit --watch failed");
    (job, watched)
}

#[test]
fn watched_stream_is_the_spool_tail_through_completion() {
    let scene = Scene::start("daemon-watch-done", Stdio::null());
    let mut client = scene.submit_watched("512", "5");
    let (job, watched) = watch_to_eof(&mut client, |_| {});
    let events = assert_spool_tail(&scene, job, &watched);
    // The spool's last line is the completion, and EOF followed it.
    assert!(events.last().unwrap().starts_with("{\"Completed\""), "{:?}", events.last());
    let marker = scene.done_marker(job);
    assert!(marker.contains("completed"), "{marker}");
    scene.shut_down();
}

/// A finished job is listed at the tick it ended at, before a restart and
/// after it: the restarted daemon takes the tick from the done marker,
/// not from the job's last checkpoint.
#[test]
fn a_finished_job_keeps_its_tick_across_a_restart() {
    let mut scene = Scene::start("daemon-done-tick", Stdio::null());
    let job = scene.submit("1024", "3");
    let marker = scene.done_marker(job);
    let tau = marker
        .split(|c: char| !c.is_ascii_alphanumeric() && c != '=')
        .find_map(|w| w.strip_prefix("tau="))
        .unwrap_or_else(|| panic!("no tau in {marker}"));
    assert_ne!(tau.parse::<u64>().unwrap() % 200, 0, "the job ended on a checkpoint tick");
    let row = |scene: &Scene| {
        let jobs = scene.reply("\"Jobs\"\n", Duration::from_secs(30));
        assert!(jobs.contains("\"Completed\""), "{jobs}");
        jobs
    };
    let before = row(&scene);
    assert!(before.contains(&format!("\"cycle\":{tau},")), "tau={tau}: {before}");
    scene.restart();
    assert_eq!(row(&scene), before);
    scene.shut_down();
}

#[test]
fn watched_stream_is_the_spool_tail_through_cancellation() {
    let scene = Scene::start("daemon-watch-cancel", Stdio::null());
    let mut client = scene.submit_watched("16384", "7");
    let socket = scene.socket_str().to_string();
    let mut canceled = false;
    let (job, watched) = watch_to_eof(&mut client, |line| {
        // Cancel once the job has streamed a first line.
        if !canceled {
            canceled = true;
            let job = line.strip_prefix("{\"job\":").and_then(|l| l.split(',').next()).unwrap();
            let status =
                Command::new(BIN).args(["cancel", "--socket", &socket, "--job", job]).status();
            assert!(status.expect("cancel request").success());
        }
    });
    // The job stopped at a pause: the events log was flushed there, and
    // the watchers got everything up to it before their EOF.
    assert_spool_tail(&scene, job, &watched);
    let marker = scene.done_marker(job);
    assert!(marker.contains("canceled at tick"), "job finished before the cancel: {marker}");
    scene.shut_down();
}

#[test]
fn a_stalled_watcher_does_not_freeze_the_daemon() {
    let log_path = std::env::temp_dir().join(format!("rfsp-stall-{}.log", std::process::id()));
    let log = std::fs::File::create(&log_path).unwrap();
    let scene = Scene::start("daemon-stall", Stdio::from(log));

    // Job 1 streams several MB. Its first watcher reads the ack, then
    // nothing: once the socket buffer is full, the job's writes block.
    let (n, seed) = JOBS[0];
    assert_eq!(scene.submit(n, seed), 1);
    let mut stalled = scene.send("{\"Watch\":{\"job\":1}}\n", Duration::from_secs(30));
    let mut ack = [0u8; 7];
    stalled.read_exact(&mut ack).unwrap();
    assert_eq!(&ack, b"\"Done\"\n");
    // The job is blocked once its events log, which grows every few
    // ticks while it runs, stops growing.
    let events = scene.job_file(1, "events.jsonl");
    let (mut last, mut since) = (0, Instant::now());
    wait_for("the watcher to stall its job", Duration::from_secs(120), || {
        let now = std::fs::metadata(&events).map_or(0, |m| m.len());
        if now != last {
            (last, since) = (now, Instant::now());
        }
        now > 0 && since.elapsed() > Duration::from_millis(300)
    });

    // A second watcher of the stalled job, then `Jobs`: neither may wait
    // on the job's writes.
    let ack = scene.reply("{\"Watch\":{\"job\":1}}\n", Duration::from_secs(30));
    assert_eq!(ack.trim(), "\"Done\"");
    let asked = Instant::now();
    let jobs = scene.reply("\"Jobs\"\n", Duration::from_secs(1));
    assert!(jobs.contains("\"JobList\""), "Jobs answered {jobs:?}");
    assert!(asked.elapsed() < Duration::from_secs(1), "Jobs took {:?}", asked.elapsed());

    // The stalled watcher is dropped after the stall timeout, so a second
    // job gets its turns and finishes.
    assert_eq!(scene.submit("256", "3"), 2);
    assert!(scene.done_marker(2).contains("completed"));

    drop(stalled);
    scene.shut_down();
    let log = std::fs::read_to_string(&log_path).unwrap();
    assert_eq!(log.matches("dropped a watcher").count(), 1, "daemon log:\n{log}");
    let _ = std::fs::remove_file(&log_path);
}
