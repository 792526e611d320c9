//! `rfsp serve` — the multi-tenant experiment daemon — and its client
//! subcommands `submit`, `jobs`, and `cancel`.
//!
//! The daemon multiplexes many crash-safe
//! [`RunSession`](rfsp_run::RunSession)s over one process: a FIFO
//! round-robin [`Scheduler`](rfsp_run::Scheduler) hands out the run turn
//! one quantum at a time, jobs are preempted only at checkpoint boundaries
//! (every preemption pause publishes a durable checkpoint, so the spool
//! is always resumable), and the turn-holder plays its job's ticks on its
//! own thread.
//!
//! Everything the daemon knows lives in its on-disk spool — one directory
//! per job with the config, the latest checkpoint, and the events stream.
//! `kill -9` the daemon, restart it, and it re-adopts every unfinished
//! job from the spool and resumes it from its last checkpoint with a
//! byte-identical event stream; that is the machine-level crash-recovery
//! guarantee of `rfsp experiment --resume`, promoted to a service. The
//! job queue itself mirrors the paper's Do-All setting: independent tasks
//! that must all complete although the worker executing them can
//! fail-stop and restart at any moment.
//!
//! The wire protocol is newline-delimited JSON over a local Unix socket
//! (see [`rfsp_run::protocol`]); `rfsp submit/jobs/cancel` are thin
//! clients, and `nc -U` works in a pinch.

use crate::args::{ArgError, Args};

/// `rfsp serve`.
///
/// # Errors
///
/// Socket/spool I/O and malformed spool contents, as [`ArgError`].
pub fn serve(args: &Args) -> Result<(), ArgError> {
    imp::serve(args)
}

/// `rfsp submit`.
///
/// # Errors
///
/// Connection failures, daemon refusals, and bad run flags.
pub fn submit(args: &Args) -> Result<(), ArgError> {
    imp::submit(args)
}

/// `rfsp jobs`.
///
/// # Errors
///
/// Connection failures.
pub fn jobs(args: &Args) -> Result<(), ArgError> {
    imp::jobs(args)
}

/// `rfsp cancel`.
///
/// # Errors
///
/// Connection failures and unknown job ids.
pub fn cancel(args: &Args) -> Result<(), ArgError> {
    imp::cancel(args)
}

#[cfg(not(unix))]
mod imp {
    use super::*;

    fn unsupported() -> ArgError {
        ArgError("the experiment daemon needs a Unix platform (local socket)".into())
    }

    pub fn serve(_args: &Args) -> Result<(), ArgError> {
        Err(unsupported())
    }
    pub fn submit(_args: &Args) -> Result<(), ArgError> {
        Err(unsupported())
    }
    pub fn jobs(_args: &Args) -> Result<(), ArgError> {
        Err(unsupported())
    }
    pub fn cancel(_args: &Args) -> Result<(), ArgError> {
        Err(unsupported())
    }
}

#[cfg(unix)]
mod imp {
    use std::collections::BTreeMap;
    use std::io::{BufReader, ErrorKind, Write};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex, PoisonError};
    use std::time::Duration;

    use rfsp_pram::{CycleBudget, Machine, Observer, Program, TraceEvent};
    use rfsp_run::{
        read_line, read_request, with_write_all_program, write_line, ExecMode, JobInfo, JobState,
        PauseFlow, Request, Response, RunConfig, RunSession, Scheduler, SessionCheckpoint,
        SessionEnd, Spool, WriteAllSetup, WriteAllVisitor,
    };
    use serde::{Deserialize, Serialize};

    use super::*;
    use crate::commands::config_from_args;

    fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// How long a watcher may accept no bytes before the daemon drops it
    /// as if it had hung up (DESIGN §17). Until then the job writing to it
    /// holds its turn, so this bounds how long one stalled client can
    /// freeze every job.
    const WATCH_STALL_TIMEOUT: Duration = Duration::from_secs(5);

    /// Watch-stream bytes a job may buffer before it writes them out
    /// mid-tick, so one tick of a large-P job cannot buffer without bound.
    const FAN_FLUSH_BYTES: usize = 64 * 1024;

    /// Live state of one job, as the registry tracks it.
    struct JobEntry {
        state: JobState,
        cycle: u64,
        algo: String,
        n: u64,
        p: u64,
        cancel: Arc<AtomicBool>,
        watchers: Arc<Mutex<WatchList>>,
    }

    impl JobEntry {
        fn new(cfg: &RunConfig, state: JobState, cycle: u64) -> JobEntry {
            let live = matches!(state, JobState::Queued | JobState::Running);
            JobEntry {
                state,
                cycle,
                algo: cfg.algo.clone(),
                n: cfg.n,
                p: cfg.p,
                cancel: Arc::new(AtomicBool::new(false)),
                watchers: Arc::new(Mutex::new(WatchList { sinks: Vec::new(), closed: !live })),
            }
        }
    }

    /// A job's watch subscribers. The list itself records that the job
    /// ended, so subscribing and ending are ordered by its lock alone: no
    /// watcher registers on a terminal job and waits forever.
    struct WatchList {
        sinks: Vec<UnixStream>,
        closed: bool,
    }

    /// Everything the daemon's threads share.
    struct Daemon {
        spool: Spool,
        sched: Scheduler,
        quantum: u64,
        /// Where the daemon listens; `Shutdown` connects here once to wake
        /// the accept loop.
        socket: String,
        registry: Mutex<BTreeMap<u64, JobEntry>>,
        handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
        next_id: Mutex<u64>,
        shutdown: AtomicBool,
    }

    /// Streams a job's events to its watchers. Each event is appended, in
    /// its `{"job":N,"event":…}` envelope, to a batch that goes to every
    /// watcher in one write per tick (DESIGN §17). A watcher whose write
    /// fails is dropped: it hung up, or accepted no bytes for
    /// [`WATCH_STALL_TIMEOUT`].
    struct Fan {
        job: u64,
        watchers: Arc<Mutex<WatchList>>,
        /// `{"job":N,"event":`, built once per job.
        envelope: Vec<u8>,
        /// Enveloped lines not yet written.
        batch: Vec<u8>,
        /// Whether anyone watched at the last flush. A job nobody watches
        /// encodes nothing.
        watched: bool,
    }

    impl Fan {
        fn new(job: u64, watchers: Arc<Mutex<WatchList>>) -> Fan {
            let envelope = format!("{{\"job\":{job},\"event\":").into_bytes();
            Fan { job, watchers, envelope, batch: Vec::new(), watched: false }
        }

        /// Write the batch to every watcher and note whether any remain.
        fn flush(&mut self) {
            let mut list = lock(&self.watchers);
            if !self.batch.is_empty() {
                let (job, batch) = (self.job, &self.batch);
                list.sinks.retain_mut(|s| match s.write_all(batch) {
                    Ok(()) => true,
                    Err(e) => {
                        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                            eprintln!(
                                "job {job}: dropped a watcher that accepted no bytes for {:?}",
                                WATCH_STALL_TIMEOUT
                            );
                        }
                        false
                    }
                });
                self.batch.clear();
            }
            self.watched = !list.sinks.is_empty();
        }

        /// The job ended: send what is left, then drop every watcher (their
        /// EOF) and refuse new ones.
        fn close(mut self) {
            self.flush();
            let mut list = lock(&self.watchers);
            list.closed = true;
            list.sinks.clear();
        }
    }

    impl Observer for Fan {
        fn event(&mut self, event: TraceEvent) {
            match event {
                // A tick boundary sends the previous tick. Completion first
                // checks for a watcher that subscribed since the last flush.
                TraceEvent::TickStart { .. } => self.flush(),
                TraceEvent::Completed { .. } if !self.watched => self.flush(),
                _ => {}
            }
            if !self.watched {
                return;
            }
            self.batch.extend_from_slice(&self.envelope);
            event.append_json(&mut self.batch);
            self.batch.extend_from_slice(b"}\n");
            if matches!(event, TraceEvent::Completed { .. }) || self.batch.len() >= FAN_FLUSH_BYTES
            {
                self.flush();
            }
        }
    }

    /// How a job's session ended, daemon-side.
    enum JobEnd {
        Completed(String),
        Canceled { cycle: u64 },
        Shutdown,
    }

    struct JobVisitor<'d> {
        daemon: &'d Daemon,
        job: u64,
        cfg: &'d RunConfig,
        resume: Option<SessionCheckpoint>,
        cancel: &'d AtomicBool,
        fan: &'d mut Fan,
    }

    impl WriteAllVisitor for JobVisitor<'_> {
        type Out = Result<JobEnd, ArgError>;

        fn visit<P>(self, prog: &P, setup: &WriteAllSetup, budget: CycleBudget) -> Self::Out
        where
            P: Program,
            P::Private: Serialize + Deserialize,
        {
            let JobVisitor { daemon, job, cfg, resume, cancel, fan } = self;
            let procs = cfg.p as usize;
            let build = Box::new(move || Machine::new(prog, procs, budget));
            let exec = ExecMode::Sequential;
            let mut session = match resume {
                Some(ck) => RunSession::resume(ck, exec, build)?,
                None => RunSession::new(cfg.clone(), exec, build)?,
            };

            // Dropped when `visit` returns or unwinds, handing the turn to
            // the next job.
            let mut turn = daemon.sched.acquire(job);
            lock(&daemon.registry).get_mut(&job).expect("registered").state = JobState::Running;
            let end = loop {
                // Each segment runs one quantum. Every pause (the quantum
                // expiring, a checkpoint falling due) ends it after the
                // session published any checkpoint due, so the spool stays
                // resumable at every preemption point.
                let quantum_end = session.cycle() + daemon.quantum;
                let end = session.run(
                    &mut |cycle| {
                        cancel.load(Ordering::SeqCst)
                            || daemon.shutdown.load(Ordering::SeqCst)
                            || cycle >= quantum_end
                    },
                    &mut |_| PauseFlow::Stop,
                    fan,
                );
                // Watchers hold every line the events log has flushed
                // before the job gives up its turn or ends.
                fan.flush();
                match end {
                    Ok(SessionEnd::Stopped { cycle }) => {
                        lock(&daemon.registry).get_mut(&job).expect("registered").cycle = cycle;
                        if cancel.load(Ordering::SeqCst) {
                            break Ok(JobEnd::Canceled { cycle });
                        }
                        if daemon.shutdown.load(Ordering::SeqCst) {
                            break Ok(JobEnd::Shutdown);
                        }
                        turn.yield_turn();
                    }
                    Ok(SessionEnd::Completed(report)) => {
                        if !setup.tasks.all_written(session.memory()) {
                            break Err(ArgError(
                                "postcondition failed: array not fully written".into(),
                            ));
                        }
                        lock(&daemon.registry).get_mut(&job).expect("registered").cycle =
                            session.cycle();
                        break Ok(JobEnd::Completed(format!(
                            "S={} tau={} checkpoints={} restores={}",
                            report.stats.completed_work(),
                            report.stats.parallel_time,
                            session.wasted().checkpoints,
                            session.wasted().restores,
                        )));
                    }
                    Err(e) => break Err(e.into()),
                }
            };
            end
        }
    }

    /// Body of a job thread: run the session, then publish the terminal
    /// state to the registry, the watchers and (except on daemon shutdown)
    /// the spool.
    fn run_job(daemon: &Arc<Daemon>, job: u64, cfg: RunConfig, resume: Option<SessionCheckpoint>) {
        let (cancel, watchers) = {
            let reg = lock(&daemon.registry);
            let entry = reg.get(&job).expect("job registered before spawn");
            (Arc::clone(&entry.cancel), Arc::clone(&entry.watchers))
        };
        let mut fan = Fan::new(job, watchers);
        let outcome = cfg.spec().map_err(ArgError::from).and_then(|spec| {
            with_write_all_program(
                &spec,
                JobVisitor { daemon, job, cfg: &cfg, resume, cancel: &cancel, fan: &mut fan },
            )
        });
        let (state, marker) = match &outcome {
            Ok(JobEnd::Completed(detail)) => {
                (JobState::Completed, Some(("completed", detail.clone())))
            }
            Ok(JobEnd::Canceled { cycle }) => {
                (JobState::Stopped, Some(("stopped", format!("canceled at tick {cycle}"))))
            }
            // Daemon shutdown: no terminal marker, so a restarted daemon
            // re-adopts the job and resumes it from its checkpoint.
            Ok(JobEnd::Shutdown) => (JobState::Stopped, None),
            Err(e) => (JobState::Failed, Some(("failed", e.0.clone()))),
        };
        let tick = {
            let mut reg = lock(&daemon.registry);
            let entry = reg.get_mut(&job).expect("registered");
            entry.state = state;
            entry.cycle
        };
        // Closing the watch list is the subscribers' EOF: a `submit
        // --watch` client exits once its job is terminal.
        fan.close();
        if let Some((tag, detail)) = marker {
            if let Err(e) = daemon.spool.mark_done(job, tag, &detail, tick) {
                eprintln!("job {job}: cannot record terminal state: {e}");
            }
        }
        if let Err(e) = &outcome {
            eprintln!("job {job} failed: {e}");
        }
    }

    /// Register a job in the registry and spawn its thread.
    fn spawn_job(
        daemon: &Arc<Daemon>,
        job: u64,
        cfg: RunConfig,
        resume: Option<SessionCheckpoint>,
        state: JobState,
    ) {
        let entry = JobEntry::new(&cfg, state, resume.as_ref().map_or(0, |ck| ck.machine.cycle));
        lock(&daemon.registry).insert(job, entry);
        let d = Arc::clone(daemon);
        let handle = std::thread::spawn(move || run_job(&d, job, cfg, resume));
        lock(&daemon.handles).push(handle);
    }

    /// Admit a submitted config: validate it as it will be spooled, spool
    /// it, spawn the job. A refused config touches neither the spool nor
    /// the job counter, so no restart can re-adopt it.
    fn admit(daemon: &Arc<Daemon>, config: RunConfig) -> Result<u64, ArgError> {
        let (job, cfg) = {
            let mut next = lock(&daemon.next_id);
            // Validate with the spool paths in place: the checkpoint path
            // is what rejects non-checkpointable algorithms (acc).
            let cfg = daemon.spool.job_config(*next, config);
            cfg.validate()?;
            *next += 1;
            (*next - 1, cfg)
        };
        daemon.spool.create_job(job, &cfg)?;
        spawn_job(daemon, job, cfg, None, JobState::Queued);
        Ok(job)
    }

    fn job_rows(daemon: &Daemon) -> Vec<JobInfo> {
        lock(&daemon.registry)
            .iter()
            .map(|(&job, e)| JobInfo {
                job,
                state: e.state,
                cycle: e.cycle,
                algo: e.algo.clone(),
                n: e.n,
                p: e.p,
            })
            .collect()
    }

    /// Serve one client connection (one request; `Watch` keeps the socket).
    fn handle_client(daemon: &Arc<Daemon>, stream: UnixStream) {
        let Ok(reader) = stream.try_clone() else { return };
        let mut reader = BufReader::new(reader);
        let mut out = stream;
        let request = match read_request(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(e) => {
                let _ = write_line(&mut out, &Response::Err { message: e.0 });
                return;
            }
        };
        let response = match request {
            Request::Submit { config } => match admit(daemon, config) {
                Ok(job) => Response::Submitted { job },
                Err(e) => Response::Err { message: e.0 },
            },
            Request::Jobs => Response::JobList { jobs: job_rows(daemon) },
            Request::Cancel { job } => match lock(&daemon.registry).get(&job) {
                Some(entry) => {
                    entry.cancel.store(true, Ordering::SeqCst);
                    Response::Done
                }
                None => Response::Err { message: format!("no such job: {job}") },
            },
            Request::Watch { job } => {
                // Take the list out and let go of the registry before
                // waiting on the list's lock, which the job holds while it
                // writes to its watchers.
                let watchers = lock(&daemon.registry).get(&job).map(|e| Arc::clone(&e.watchers));
                match watchers {
                    Some(watchers) => {
                        if write_line(&mut out, &Response::Done).is_ok()
                            && out.set_write_timeout(Some(WATCH_STALL_TIMEOUT)).is_ok()
                        {
                            // On a job that already ended, dropping the
                            // stream instead is the client's EOF.
                            let mut list = lock(&watchers);
                            if !list.closed {
                                list.sinks.push(out);
                            }
                        }
                        return;
                    }
                    None => Response::Err { message: format!("no such job: {job}") },
                }
            }
            Request::Shutdown => {
                daemon.shutdown.store(true, Ordering::SeqCst);
                let _ = write_line(&mut out, &Response::Done);
                // Wake the accept loop, blocked until the next client, so
                // it sees the flag.
                let _ = UnixStream::connect(&daemon.socket);
                return;
            }
        };
        let _ = write_line(&mut out, &response);
    }

    fn sock_err(what: &str, path: &str, e: &dyn std::fmt::Display) -> ArgError {
        ArgError(format!("cannot {what} {path}: {e}"))
    }

    pub fn serve(args: &Args) -> Result<(), ArgError> {
        let spool_dir = args.get_or("spool", "rfsp-spool").to_string();
        let socket =
            args.get("socket").map_or_else(|| format!("{spool_dir}/rfsp.sock"), str::to_string);
        let quantum: u64 = args.get_parsed("quantum", 50u64)?;
        if quantum == 0 {
            return Err(ArgError("--quantum must be at least 1 tick".into()));
        }
        let spool = Spool::open(Path::new(&spool_dir))?;
        let adopt = spool.scan()?;
        let next_id = spool.next_job_id()?;
        let daemon = Arc::new(Daemon {
            spool,
            sched: Scheduler::new(),
            quantum,
            socket: socket.clone(),
            registry: Mutex::new(BTreeMap::new()),
            handles: Mutex::new(Vec::new()),
            next_id: Mutex::new(next_id),
            shutdown: AtomicBool::new(false),
        });

        // Re-adopt the spool: finished jobs become history rows, every
        // unfinished job restarts — from its checkpoint when one exists.
        for sj in adopt {
            match sj.done {
                Some(marker) => {
                    let state = match marker.state.as_str() {
                        "completed" => JobState::Completed,
                        "failed" => JobState::Failed,
                        _ => JobState::Stopped,
                    };
                    lock(&daemon.registry)
                        .insert(sj.job, JobEntry::new(&sj.config, state, marker.tick));
                }
                None => {
                    let resumed = sj.resume.is_some();
                    spawn_job(&daemon, sj.job, sj.config, sj.resume, JobState::Queued);
                    eprintln!(
                        "re-adopted job {} from spool ({})",
                        sj.job,
                        if resumed { "resuming from checkpoint" } else { "starting from scratch" }
                    );
                }
            }
        }

        let _ = std::fs::remove_file(&socket);
        let listener = UnixListener::bind(&socket).map_err(|e| sock_err("bind", &socket, &e))?;
        println!("rfsp serve: listening on {socket} (spool {spool_dir}, quantum {quantum} ticks)");
        // Block in accept: a `Shutdown` request sets the flag and then
        // connects once itself, which wakes this loop to see it.
        for stream in listener.incoming() {
            if daemon.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream.map_err(|e| sock_err("accept on", &socket, &e))?;
            let d = Arc::clone(&daemon);
            std::thread::spawn(move || handle_client(&d, stream));
        }
        // Graceful shutdown: every job sees the flag at its next pause,
        // checkpoints, and stops; the spool keeps them resumable.
        eprintln!("rfsp serve: shutting down (jobs checkpoint and stop)");
        let handles: Vec<_> = std::mem::take(&mut *lock(&daemon.handles));
        for h in handles {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&socket);
        Ok(())
    }

    fn connect(args: &Args) -> Result<UnixStream, ArgError> {
        let socket = args.get("socket").ok_or_else(|| {
            ArgError("--socket PATH is required (where rfsp serve listens)".into())
        })?;
        UnixStream::connect(socket).map_err(|e| sock_err("connect to", socket, &e))
    }

    fn roundtrip(args: &Args, request: &Request) -> Result<Response, ArgError> {
        let mut stream = connect(args)?;
        write_line(&mut stream, request)?;
        let mut reader = BufReader::new(stream);
        read_line::<Response>(&mut reader)?
            .ok_or_else(|| ArgError("daemon hung up without a response".into()))
    }

    fn refuse(message: String) -> ArgError {
        ArgError(format!("daemon refused: {message}"))
    }

    pub fn submit(args: &Args) -> Result<(), ArgError> {
        // The daemon owns the artifact paths (they live in its spool), so
        // `submit` takes no --checkpoint or --events and both stay unset.
        let config = config_from_args(args)?;
        match roundtrip(args, &Request::Submit { config })? {
            Response::Submitted { job } => {
                println!("job {job}");
                if args.flag("watch") {
                    watch(args, job)?;
                }
                Ok(())
            }
            Response::Err { message } => Err(refuse(message)),
            other => Err(ArgError(format!("unexpected daemon response: {other:?}"))),
        }
    }

    /// Subscribe to a job's telemetry and copy it to stdout until the job
    /// ends or the daemon goes away.
    fn watch(args: &Args, job: u64) -> Result<(), ArgError> {
        let mut stream = connect(args)?;
        write_line(&mut stream, &Request::Watch { job })?;
        let mut reader = BufReader::new(stream);
        match read_line::<Response>(&mut reader)? {
            Some(Response::Done) => {}
            Some(Response::Err { message }) => return Err(refuse(message)),
            other => return Err(ArgError(format!("unexpected daemon response: {other:?}"))),
        }
        let mut out = std::io::stdout().lock();
        loop {
            use std::io::BufRead;
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return Ok(()),
                Ok(_) => {
                    let _ = out.write_all(line.as_bytes());
                }
            }
        }
    }

    pub fn jobs(args: &Args) -> Result<(), ArgError> {
        match roundtrip(args, &Request::Jobs)? {
            Response::JobList { jobs } => {
                println!(
                    "{:>6}  {:<10} {:>10}  {:<12} {:>10} {:>6}",
                    "JOB", "STATE", "TICK", "ALGO", "N", "P"
                );
                for j in jobs {
                    println!(
                        "{:>6}  {:<10} {:>10}  {:<12} {:>10} {:>6}",
                        j.job,
                        format!("{:?}", j.state),
                        j.cycle,
                        j.algo,
                        j.n,
                        j.p
                    );
                }
                Ok(())
            }
            Response::Err { message } => Err(refuse(message)),
            other => Err(ArgError(format!("unexpected daemon response: {other:?}"))),
        }
    }

    pub fn cancel(args: &Args) -> Result<(), ArgError> {
        let request = if args.flag("shutdown") {
            Request::Shutdown
        } else if args.get("job").is_some() {
            Request::Cancel { job: args.get_parsed::<u64>("job", 0)? }
        } else {
            return Err(ArgError("--job N is required (or --shutdown)".into()));
        };
        match roundtrip(args, &request)? {
            Response::Done => Ok(()),
            Response::Err { message } => Err(refuse(message)),
            other => Err(ArgError(format!("unexpected daemon response: {other:?}"))),
        }
    }
}
