//! `serve_jobs`: a real `rfsp serve` daemon driven over its socket.
//!
//! Every daemon gets a fresh spool under the run directory and is stopped
//! on every exit path (the [`Daemon`] guard sends `Shutdown`, then SIGKILL
//! after a grace period; on Linux the kernel also kills it if the
//! benchmark dies first). Every socket read and write has a timeout, so a
//! hung daemon fails the run instead of hanging it.

use std::io::{BufRead, BufReader};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rfsp_run::{read_line, write_line, JobInfo, JobState, Request, Response, RunConfig};

use crate::inproc::{FAIL_RATE, RESTART_RATE};
use crate::timing::Clock;

/// Cells per daemon job. Checkpoint parsing is quadratic in the file
/// size, which keeps a restart on a round's jobs at seconds.
pub const JOB_N: u64 = 1 << 10;
/// Processors per daemon job.
pub const JOB_P: u64 = 64;
/// Jobs per round. Fixed, so that `recover_s` reads the same number of
/// checkpoints however fast the jobs ran.
pub const JOBS_PER_ROUND: usize = 8;
/// Timeout on every socket read and write.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Timeout of the `Shutdown` a dropped guard sends before it kills.
const DROP_TIMEOUT: Duration = Duration::from_secs(2);
/// How long a daemon may take to answer its first `Jobs` (a restart
/// parses every checkpoint first).
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a daemon may take to exit after `Shutdown`.
const EXIT_GRACE: Duration = Duration::from_secs(10);

/// The daemon job with index `index` of a run seeded `seed`: algorithm X,
/// N = 2^10, P = 64, random faults 0.05/0.5. Checkpoint and events paths
/// are left to the daemon, which puts them in its spool.
pub fn job_config(seed: u64, index: usize) -> RunConfig {
    RunConfig {
        algo: "x".into(),
        n: JOB_N,
        p: JOB_P,
        adversary: "random".into(),
        rate: FAIL_RATE,
        restart_rate: RESTART_RATE,
        seed: seed.wrapping_add(index as u64),
        ..RunConfig::default()
    }
}

fn connect(socket: &Path, timeout: Duration) -> std::io::Result<UnixStream> {
    let stream = UnixStream::connect(socket)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    Ok(stream)
}

/// One request, one response.
fn roundtrip(socket: &Path, request: &Request) -> Result<Response, String> {
    roundtrip_within(socket, request, IO_TIMEOUT)
}

fn roundtrip_within(
    socket: &Path,
    request: &Request,
    timeout: Duration,
) -> Result<Response, String> {
    let mut stream =
        connect(socket, timeout).map_err(|e| format!("connect {}: {e}", socket.display()))?;
    write_line(&mut stream, request).map_err(|e| e.0)?;
    read_line::<Response>(&mut BufReader::new(stream))
        .map_err(|e| e.0)?
        .ok_or_else(|| "daemon hung up without a response".to_string())
}

/// Ask the daemon for its job list.
pub fn jobs(socket: &Path) -> Result<Vec<JobInfo>, String> {
    match roundtrip(socket, &Request::Jobs)? {
        Response::JobList { jobs } => Ok(jobs),
        other => Err(format!("unexpected answer to Jobs: {other:?}")),
    }
}

/// Make the spawned daemon die with the benchmark, even on SIGKILL.
#[cfg(target_os = "linux")]
fn die_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the hook runs in the forked child before exec and only
    // calls prctl(2), which is async-signal-safe and touches no memory
    // of the parent.
    unsafe {
        cmd.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 {
                Ok(())
            } else {
                Err(std::io::Error::last_os_error())
            }
        });
    }
}

#[cfg(not(target_os = "linux"))]
fn die_with_parent(_cmd: &mut Command) {}

/// A running `rfsp serve`. Dropping the guard stops the process.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    stdout: Option<JoinHandle<()>>,
    first_line: mpsc::Receiver<String>,
    /// The start-up line, once it arrived.
    banner: Option<String>,
}

impl Daemon {
    /// Spawn `rfsp serve` on `spool` (which must not exist yet, or hold a
    /// spool a previous daemon left), with its default workers, quantum
    /// and socket path. Its stderr goes to `log`.
    ///
    /// # Errors
    ///
    /// Spawn failures.
    pub fn spawn(rfsp: &Path, spool: &Path, log: &Path) -> Result<Daemon, String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("open {}: {e}", log.display()))?;
        let mut cmd = Command::new(rfsp);
        cmd.arg("serve").arg("--spool").arg(spool);
        cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(log);
        die_with_parent(&mut cmd);
        let mut child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", rfsp.display()))?;
        let out = child.stdout.take().expect("stdout is piped");
        let (tx, first_line) = mpsc::channel();
        // Drain stdout until the daemon exits; hand the start-up line on.
        let stdout = std::thread::spawn(move || {
            let mut lines = BufReader::new(out).lines();
            if let Some(Ok(line)) = lines.next() {
                let _ = tx.send(line);
            }
            for _ in lines {}
        });
        Ok(Daemon {
            child,
            socket: spool.join("rfsp.sock"),
            stdout: Some(stdout),
            first_line,
            banner: None,
        })
    }

    /// The daemon's socket path.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Poll until the daemon answers `Jobs`; returns the answer. Between
    /// attempts it waits, with growing pauses, for the start-up line the
    /// daemon prints once its socket is bound, so that a long restart is
    /// not slowed by the poll itself.
    ///
    /// # Errors
    ///
    /// The daemon exits or does not answer within the start timeout.
    pub fn ready(&mut self) -> Result<Vec<JobInfo>, String> {
        let deadline = Instant::now() + START_TIMEOUT;
        let mut pause = Duration::from_micros(50);
        loop {
            if connect(&self.socket, IO_TIMEOUT).is_ok() {
                return jobs(&self.socket);
            }
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not start listening in time".into());
            }
            match (&self.banner, self.first_line.recv_timeout(pause)) {
                (None, Ok(line)) => self.banner = Some(line),
                (Some(_), _) | (None, Err(mpsc::RecvTimeoutError::Timeout)) => {}
                (None, Err(mpsc::RecvTimeoutError::Disconnected)) => std::thread::sleep(pause),
            }
            pause = (pause * 2).min(Duration::from_millis(2));
        }
    }

    /// The quantum the daemon announced in its start-up line, if it did.
    pub fn quantum(&mut self) -> Option<u64> {
        if self.banner.is_none() {
            self.banner = self.first_line.recv_timeout(Duration::from_secs(5)).ok();
        }
        let line = self.banner.as_deref()?;
        let rest = &line[line.find("quantum ")? + "quantum ".len()..];
        rest.split_whitespace().next()?.parse().ok()
    }

    /// The daemon's peak resident set (VmHWM) in KiB.
    ///
    /// # Errors
    ///
    /// `/proc` is unreadable.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        crate::host::vm_hwm_kib(&status).ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Send `Shutdown` and wait for the process to exit.
    ///
    /// # Errors
    ///
    /// The daemon refuses, exits unsuccessfully, or has to be killed.
    pub fn shutdown(mut self) -> Result<(), String> {
        match roundtrip(&self.socket, &Request::Shutdown)? {
            Response::Done => {}
            other => return Err(format!("unexpected answer to Shutdown: {other:?}")),
        }
        let status = self.wait_or_kill()?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }

    fn wait_or_kill(&mut self) -> Result<std::process::ExitStatus, String> {
        let deadline = Instant::now() + EXIT_GRACE;
        let status = loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                break Ok(status);
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                break Err("daemon ignored Shutdown and was killed".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        status
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = roundtrip_within(&self.socket, &Request::Shutdown, DROP_TIMEOUT);
            let _ = self.wait_or_kill();
        } else if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

/// What a client saw of one job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Job index within the round (its seed offset).
    pub index: usize,
    /// Daemon-assigned id.
    pub job: u64,
    /// `Submit` sent.
    pub sent: u64,
    /// `Submitted` received.
    pub acked: u64,
    /// First watched event received.
    pub first_event: Option<u64>,
    /// Watch stream reached EOF.
    pub eof: u64,
    /// Bytes streamed to the watcher, envelopes included.
    pub watch_bytes: u64,
    /// Watched events.
    pub events: u64,
    /// FNV-1a hash of the watched events with the envelope removed, one
    /// per line.
    pub digest: u64,
    /// The last watched event, envelope removed.
    pub last_event: String,
}

/// FNV-1a, 64 bit.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Submit one job and watch its stream to EOF.
fn run_job(socket: &Path, clock: Clock, seed: u64, index: usize) -> Result<JobRecord, String> {
    let sent = clock.now();
    let job = match roundtrip(socket, &Request::Submit { config: job_config(seed, index) })? {
        Response::Submitted { job } => job,
        other => return Err(format!("job {index}: Submit answered {other:?}")),
    };
    let acked = clock.now();
    let mut stream =
        connect(socket, IO_TIMEOUT).map_err(|e| format!("connect {}: {e}", socket.display()))?;
    write_line(&mut stream, &Request::Watch { job }).map_err(|e| e.0)?;
    let mut reader = BufReader::new(stream);
    match read_line::<Response>(&mut reader).map_err(|e| e.0)? {
        Some(Response::Done) => {}
        other => return Err(format!("job {job}: Watch answered {other:?}")),
    }
    let prefix = format!("{{\"job\":{job},\"event\":");
    let mut rec = JobRecord {
        index,
        job,
        sent,
        acked,
        first_event: None,
        eof: 0,
        watch_bytes: 0,
        events: 0,
        digest: FNV_BASIS,
        last_event: String::new(),
    };
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).map_err(|e| format!("job {job}: watch read: {e}"))?;
        if n == 0 {
            break;
        }
        rec.first_event.get_or_insert_with(|| clock.now());
        rec.watch_bytes += n as u64;
        let event = line
            .strip_prefix(&prefix)
            .and_then(|l| l.strip_suffix("}\n"))
            .ok_or_else(|| format!("job {job}: malformed watch line {line:?}"))?;
        rec.digest = fnv1a(fnv1a(rec.digest, event.as_bytes()), b"\n");
        rec.events += 1;
        rec.last_event.clear();
        rec.last_event.push_str(event);
    }
    rec.eof = clock.now();
    Ok(rec)
}

/// Run `total` jobs through a closed loop of `clients` clients: each
/// submits a job, watches it to EOF, then takes the next index.
///
/// # Errors
///
/// The first client error (the other clients finish their current job).
pub fn closed_loop(
    socket: &Path,
    clock: Clock,
    seed: u64,
    clients: usize,
    total: usize,
) -> Result<Vec<JobRecord>, String> {
    let next = AtomicUsize::new(0);
    let results: Vec<Result<Vec<JobRecord>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        if index >= total {
                            return Ok(done);
                        }
                        match run_job(socket, clock, seed, index) {
                            Ok(rec) => done.push(rec),
                            Err(e) => {
                                // Stop the other clients after their job.
                                next.store(total, Ordering::SeqCst);
                                return Err(e);
                            }
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut records = Vec::new();
    for r in results {
        records.extend(r?);
    }
    records.sort_by_key(|r| r.index);
    Ok(records)
}

/// What the spool holds for one finished job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpoolOutcome {
    /// Completed work S from the done marker.
    pub s: u64,
    /// Parallel time τ from the done marker.
    pub tau: u64,
    /// Checkpoints the job published.
    pub checkpoints: u64,
    /// Size of the job's events JSONL.
    pub events_bytes: u64,
}

fn field(detail: &str, key: &str) -> Option<u64> {
    detail.split_whitespace().find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// Check one job against its spool directory: the done marker says
/// `completed`, and the watched events are the tail of `events.jsonl`,
/// ending at `Completed`.
///
/// # Errors
///
/// Any mismatch, described.
pub fn verify_job(spool: &Path, rec: &JobRecord) -> Result<SpoolOutcome, String> {
    let dir = spool.join(format!("job-{:06}", rec.job));
    let text = std::fs::read_to_string(dir.join("done.json"))
        .map_err(|e| format!("job {}: read done.json: {e}", rec.job))?;
    let marker: rfsp_run::DoneMarker =
        serde::json::from_str(&text).map_err(|e| format!("job {}: done.json: {e}", rec.job))?;
    if marker.state != "completed" {
        return Err(format!("job {} ended {}: {}", rec.job, marker.state, marker.detail));
    }
    let detail = &marker.detail;
    let (Some(s), Some(tau), Some(checkpoints)) =
        (field(detail, "S"), field(detail, "tau"), field(detail, "checkpoints"))
    else {
        return Err(format!("job {}: done marker lacks S/tau/checkpoints: {detail}", rec.job));
    };
    let events = std::fs::read_to_string(dir.join("events.jsonl"))
        .map_err(|e| format!("job {}: read events.jsonl: {e}", rec.job))?;
    let lines: Vec<&str> = events.lines().collect();
    if rec.events == 0 || rec.events as usize > lines.len() {
        return Err(format!(
            "job {}: watched {} events, spool holds {}",
            rec.job,
            rec.events,
            lines.len()
        ));
    }
    let tail = &lines[lines.len() - rec.events as usize..];
    let digest = tail.iter().fold(FNV_BASIS, |h, l| fnv1a(fnv1a(h, l.as_bytes()), b"\n"));
    if digest != rec.digest {
        return Err(format!("job {}: watched events differ from the spool's tail", rec.job));
    }
    if !rec.last_event.starts_with("{\"Completed\"") {
        return Err(format!("job {}: stream ended at {}, not Completed", rec.job, rec.last_event));
    }
    Ok(SpoolOutcome { s, tau, checkpoints, events_bytes: events.len() as u64 })
}

/// Whether `list` holds exactly `ids`, every one Completed.
pub fn all_completed(list: &[JobInfo], ids: &[u64]) -> bool {
    list.len() == ids.len()
        && list.iter().all(|j| j.state == JobState::Completed && ids.contains(&j.job))
}
