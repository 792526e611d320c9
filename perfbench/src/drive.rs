//! The measurement loops: each workload once with tracing off (the
//! end-to-end metrics) and once traced (the per-layer metrics).

use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};

use rfsp_core::{AlgoX, WriteAllTasks, XOptions};
use rfsp_pram::{CycleBudget, FailurePattern, LayoutBuilder, Machine, NoopObserver};
use rfsp_run::{ExecMode, PauseFlow, RunSession, SessionCheckpoint, SessionEnd, Spool};

use crate::daemon::{self, Daemon, JobRecord, SpoolOutcome, JOBS_PER_ROUND, JOB_N, JOB_P};
use crate::host;
use crate::inproc::{self, InProc, Rep};
use crate::report::Outcome;
use crate::spans::Trace;
use crate::stats::median;
use crate::timing::{Clock, TimedObserver, OBSERVER_SAMPLE};

/// Repetitions an in-process run makes even past its time budget.
const MIN_REPS: usize = 3;
/// Extra daemons started on empty spools per `serve_jobs` round, so that
/// `setup_s` is a median over several start-ups.
const EXTRA_STARTS: usize = 4;

/// Where and how long one invocation runs.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measuring time budget, in ns.
    pub budget_ns: u64,
    /// The `rfsp` binary `serve_jobs` drives.
    pub rfsp: PathBuf,
    /// Scratch directory of this invocation (spools, logs).
    pub dir: PathBuf,
    /// Logical CPUs the host gave the benchmark at start-up.
    pub nproc: usize,
}

impl Ctx {
    /// Whether another step of `typical_ns` still fits the budget,
    /// measured from the clock's epoch.
    fn fits(&self, clock: Clock, typical_ns: u64) -> bool {
        clock.now() + typical_ns <= self.budget_ns
    }
}

fn ns_to_s(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&x| x as f64 / 1e9).collect()
}

fn median_u64(xs: &[u64]) -> f64 {
    median(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// The first repetition's (S, τ, |F|) and failure pattern; every later
/// repetition must reproduce them.
#[derive(Default)]
struct Reference {
    first: Option<((u64, u64, u64), FailurePattern)>,
}

impl Reference {
    fn check(&mut self, rep: &Rep) -> Result<(), String> {
        match &self.first {
            None => {
                self.first = Some((rep.signature(), rep.pattern.clone()));
                Ok(())
            }
            Some((sig, pattern)) => {
                if *sig != rep.signature() {
                    Err(format!("(S, tau, |F|) = {:?}, first run gave {sig:?}", rep.signature()))
                } else if *pattern != rep.pattern {
                    Err("failure pattern differs from the first run's".to_string())
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// One checked repetition; `None` if it failed (counted in `out`).
fn checked_rep(
    w: InProc,
    ctx: &Ctx,
    threads: usize,
    clock: Clock,
    traced: bool,
    reference: &mut Reference,
    out: &mut Outcome,
) -> Option<Rep> {
    out.attempted += 1;
    let what = format!("{} run with {threads} thread(s)", w.name());
    let rep = match inproc::rep(w, w.geometry(), ctx.seed, threads, clock, traced, None) {
        Ok(rep) => rep,
        Err(e) => {
            out.fail(format!("{what}: {e}"));
            return None;
        }
    };
    if let Err(e) = rep.check().and_then(|()| reference.check(&rep)) {
        out.fail(format!("{what}: {e}"));
        return None;
    }
    Some(rep)
}

/// Worker threads of the end-to-end run: the sequential engines use
/// one; `scale_nofail` uses `nproc - 1`, so that the workers and the
/// pool's spinning coordinator together fit the host's CPUs. (On a
/// 2-vCPU host that is the sequential engine; see README.md for why.)
fn threads_of(w: InProc, ctx: &Ctx) -> usize {
    if w == InProc::ScaleNofail {
        ctx.nproc.saturating_sub(1).max(1)
    } else {
        1
    }
}

/// Confine a measurement that runs one busy thread at a time to one CPU:
/// with two busy vCPUs a shared host steals far more time, and the
/// figures follow the neighbours instead of the code (see README.md).
fn confine(out: &mut Outcome) {
    match host::confine_to_one_cpu() {
        Ok(cpu) => out.lines.push(format!("confined to CPU {cpu}")),
        Err(e) => out.fail(e),
    }
}

/// End-to-end run of an in-process workload: fresh repetitions until the
/// budget is spent, medians reported.
pub fn inproc_e2e(w: InProc, ctx: &Ctx, out: &mut Outcome) {
    let clock = Clock::new();
    let n = w.geometry().n as f64;
    let threads = threads_of(w, ctx);
    if threads == 1 {
        confine(out);
    }
    let mut reference = Reference::default();
    let (mut setup, mut run, mut total) = (Vec::new(), Vec::new(), Vec::new());
    while run.len() < MIN_REPS || ctx.fits(clock, median_u64(&total) as u64) {
        let Some(rep) = checked_rep(w, ctx, threads, clock, false, &mut reference, out) else {
            return;
        };
        setup.push(rep.setup_ns());
        run.push(rep.run_ns());
        total.push(rep.setup_ns() + rep.run_ns());
    }
    let Some(((s, tau, f), _)) = reference.first else { return };
    out.lines.push(format!(
        "{}: N = {}, P = {}, threads = {threads}, S = {s}, tau = {tau}, |F| = {f}",
        w.name(),
        w.geometry().n,
        w.geometry().p
    ));
    out.timing("run call", "s", &ns_to_s(&run));
    out.timing("set-up", "s", &ns_to_s(&setup));
    out.set("ns_per_cell", median_u64(&run) / n);
    out.set("job_s", median_u64(&run) / 1e9);
    // No checkpoint is kept in-process: getting a crashed run back means
    // setting it up and running it again.
    out.set("recover_s", median_u64(&total) / 1e9);
    out.set("setup_s", median_u64(&setup) / 1e9);
    match host::own_peak_rss_kib() {
        Ok(kib) => out.set("peak_rss_mb", kib as f64 / 1024.0),
        Err(e) => out.fail(e),
    }
    out.set("work_per_cell", s as f64 / n);
}

/// Traced run of an in-process workload: untraced and traced repetitions
/// alternate until the budget is spent. `scale_nofail` adds traced
/// one-thread and `nproc`-thread repetitions, for the pool's speedup.
pub fn inproc_traced(w: InProc, ctx: &Ctx, trace: &mut Trace, out: &mut Outcome) {
    let clock = Clock::new();
    let overhead = clock.overhead_ns();
    let threads = threads_of(w, ctx);
    let pool = if w == InProc::ScaleNofail { ctx.nproc } else { 1 };
    if threads == 1 && pool == 1 {
        confine(out);
    }
    let mut reference = Reference::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut single, mut pooled) = (Vec::new(), Vec::new());
    let (mut ticks, mut events, mut sampled, mut cycles) = (0u64, 0u64, 0u64, 0u64);
    let mut last: Option<Rep> = None;
    let mut round_ns = Vec::new();
    while traced.is_empty() || ctx.fits(clock, median_u64(&round_ns) as u64) {
        let start = clock.now();
        let Some(rep) = checked_rep(w, ctx, threads, clock, false, &mut reference, out) else {
            return;
        };
        plain.push(rep.run_ns());
        let Some(rep) = checked_rep(w, ctx, threads, clock, true, &mut reference, out) else {
            return;
        };
        match inproc::record_spans(trace, traced.len() as u32, &rep) {
            Ok(phases) => {
                ticks += phases.ticks;
                events += phases.events;
                sampled += phases.sampled;
            }
            Err(e) => return out.fail(format!("{}: {e}", w.name())),
        }
        cycles += rep.stats.s_prime();
        traced.push(rep.run_ns());
        if pool > 1 {
            let mut time =
                |t| checked_rep(w, ctx, t, clock, true, &mut reference, out).map(|r| r.run_ns());
            let Some(one) = (if threads == 1 { Some(rep.run_ns()) } else { time(1) }) else {
                return;
            };
            let Some(many) = time(pool) else { return };
            single.push(one);
            pooled.push(many);
        }
        last = Some(rep);
        round_ns.push(clock.now() - start);
    }
    let Some(rep) = last else { return };
    let totals = trace.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let reps = traced.len() as f64;
    let (sample_ns, samples) = total("observer.event");
    let per_event = if samples == 0 {
        0.0
    } else {
        (sample_ns as f64 / samples as f64 - overhead as f64).max(0.0)
    };
    // Events other than TickStart/Completed run inside the commit phase;
    // the sampled ones are already child spans of it.
    let unsampled = events.saturating_sub(ticks + traced.len() as u64).saturating_sub(sampled);
    let commit = total("tick.commit").0 as f64 - per_event * unsampled as f64;
    out.set("tick.tentative_ns", total("tick.tentative").0 as f64 / ticks as f64);
    out.set("tick.commit_ns", commit.max(0.0) / ticks as f64);
    out.set("tick.ns_per_cycle", traced.iter().sum::<u64>() as f64 / cycles as f64);
    out.set("tick.count", rep.stats.parallel_time as f64);
    out.set(
        "cycles.useful_share",
        rep.stats.completed_cycles as f64 / rep.stats.s_prime().max(1) as f64,
    );
    if !pooled.is_empty() {
        out.set("pool.speedup", median_u64(&single) / median_u64(&pooled));
    }
    out.set("adversary.decide_ns", total("adversary.decide").0 as f64 / ticks as f64);
    out.set("adversary.failures", rep.stats.failures as f64);
    out.set("adversary.restarts", rep.stats.restarts as f64);
    out.set("observer.events", events as f64 / reps);
    out.set("observer.ns_per_event", per_event);
    out.set("setup.program_ns", total("setup.program").0 as f64 / reps);
    out.set("setup.machine_ns", total("setup.machine").0 as f64 / reps);
    out.set("trace.overhead", median_u64(&traced) / median_u64(&plain));
    out.set("trace.unattributed_share", trace.unattributed_share());
    out.lines.push(format!(
        "{}: {} untraced and {} traced runs with {threads} thread(s); observer calls sampled 1 \
         in {OBSERVER_SAMPLE}, timer pair overhead {overhead} ns",
        w.name(),
        plain.len(),
        traced.len(),
    ));
    if !pooled.is_empty() {
        out.lines.push(format!(
            "pool.speedup from {} traced runs each with 1 and {pool} threads",
            pooled.len()
        ));
    }
}

/// Stamps and results of one `serve_jobs` round.
struct Round {
    start: u64,
    /// `(spawn, first Jobs answer)` of every daemon started on an empty
    /// spool.
    starts: Vec<(u64, u64)>,
    jobs: Vec<JobRecord>,
    outcomes: Vec<SpoolOutcome>,
    rss_kib: u64,
    shutdown: (u64, u64),
    recover: (u64, u64),
    restart_shutdown: (u64, u64),
    end: u64,
    quantum: Option<u64>,
    spool: PathBuf,
}

/// Start a daemon on a fresh spool and wait for its first `Jobs`.
fn start_fresh(ctx: &Ctx, clock: Clock, spool: &Path) -> Result<(Daemon, (u64, u64)), String> {
    let spawned = clock.now();
    let mut d = Daemon::spawn(&ctx.rfsp, spool, &ctx.dir.join("daemon.log"))?;
    let list = d.ready()?;
    let ready = clock.now();
    if !list.is_empty() {
        return Err(format!("a daemon on an empty spool lists {} jobs", list.len()));
    }
    Ok((d, (spawned, ready)))
}

/// One round: a daemon on a fresh spool runs the closed loop, shuts down,
/// and a second daemon re-adopts the spool; then a few more daemons start
/// and stop on empty spools.
fn round(ctx: &Ctx, clock: Clock, k: &str, out: &mut Outcome) -> Result<Round, String> {
    let start = clock.now();
    let spool = ctx.dir.join(format!("spool-{k}"));
    out.attempted += 1;
    let (mut d, first) = start_fresh(ctx, clock, &spool)?;
    let quantum = d.quantum();
    out.attempted += JOBS_PER_ROUND as u64;
    let clients = ctx.nproc.min(JOBS_PER_ROUND);
    let jobs = daemon::closed_loop(d.socket(), clock, ctx.seed, clients, JOBS_PER_ROUND)?;
    let rss_kib = d.peak_rss_kib()?;
    let ids: Vec<u64> = jobs.iter().map(|j| j.job).collect();
    if !daemon::all_completed(&daemon::jobs(d.socket())?, &ids) {
        return Err("the daemon does not list every job as Completed".into());
    }
    let shutdown = clock.now();
    d.shutdown()?;
    let shutdown = (shutdown, clock.now());
    let mut outcomes = Vec::new();
    for rec in &jobs {
        match daemon::verify_job(&spool, rec) {
            Ok(o) => outcomes.push(o),
            Err(e) => out.fail(e),
        }
    }
    out.attempted += 1;
    let restarted = clock.now();
    let mut d = Daemon::spawn(&ctx.rfsp, &spool, &ctx.dir.join("daemon.log"))?;
    let mut list = d.ready()?;
    let give_up = restarted + 60_000_000_000;
    while !daemon::all_completed(&list, &ids) {
        if clock.now() > give_up {
            return Err("the restarted daemon never listed every job as Completed".into());
        }
        list = daemon::jobs(d.socket())?;
    }
    let recover = (restarted, clock.now());
    d.shutdown()?;
    let restart_shutdown = (recover.1, clock.now());
    let mut starts = vec![first];
    for e in 0..EXTRA_STARTS {
        let fresh = ctx.dir.join(format!("spool-{k}-{e}"));
        out.attempted += 1;
        let (d, stamps) = start_fresh(ctx, clock, &fresh)?;
        d.shutdown()?;
        starts.push(stamps);
        std::fs::remove_dir_all(&fresh).map_err(|e| format!("remove {}: {e}", fresh.display()))?;
    }
    Ok(Round {
        start,
        starts,
        jobs,
        outcomes,
        rss_kib,
        shutdown,
        recover,
        restart_shutdown,
        end: clock.now(),
        quantum,
        spool,
    })
}

/// Rounds until the budget is spent (at least one, at most `max`);
/// `label` keeps their spools apart.
fn rounds(ctx: &Ctx, clock: Clock, max: usize, label: &str, out: &mut Outcome) -> Vec<Round> {
    let mut done: Vec<Round> = Vec::new();
    let mut lengths = Vec::new();
    while done.is_empty() || (done.len() < max && ctx.fits(clock, median_u64(&lengths) as u64)) {
        match round(ctx, clock, &format!("{label}{}", done.len()), out) {
            Ok(r) => {
                lengths.push(r.end - r.start);
                done.push(r);
            }
            Err(e) => {
                out.fail(e);
                break;
            }
        }
    }
    // Every round runs the same seeded jobs: their S and tau must agree.
    let key = |r: &Round| r.outcomes.iter().map(|o| (o.s, o.tau)).collect::<Vec<_>>();
    if let Some(first) = done.first() {
        for r in &done[1..] {
            if key(r) != key(first) {
                out.fail("daemon jobs with the same seeds gave different (S, tau)".to_string());
            }
        }
    }
    done
}

fn job_ns(rounds: &[Round]) -> Vec<u64> {
    rounds.iter().flat_map(|r| r.jobs.iter().map(|j| j.eof - j.sent)).collect()
}

/// End-to-end run of `serve_jobs`.
pub fn serve_e2e(ctx: &Ctx, out: &mut Outcome) {
    confine(out);
    let clock = Clock::new();
    let done = rounds(ctx, clock, usize::MAX, "", out);
    if done.is_empty() {
        return;
    }
    let jobs = job_ns(&done);
    let starts: Vec<u64> = done.iter().flat_map(|r| r.starts.iter().map(|(a, b)| b - a)).collect();
    let recover: Vec<u64> = done.iter().map(|r| r.recover.1 - r.recover.0).collect();
    let rss: Vec<u64> = done.iter().map(|r| r.rss_kib).collect();
    let (s, cells) = done[0].outcomes.iter().fold((0u64, 0u64), |(s, c), o| (s + o.s, c + JOB_N));
    out.lines.push(format!(
        "serve_jobs: {} rounds of {JOBS_PER_ROUND} jobs (X, N = {JOB_N}, P = {JOB_P}), {} clients",
        done.len(),
        ctx.nproc.min(JOBS_PER_ROUND)
    ));
    out.timing("job (Submit to watch EOF)", "s", &ns_to_s(&jobs));
    out.timing("restart to all jobs Completed", "s", &ns_to_s(&recover));
    out.timing("daemon start on an empty spool", "s", &ns_to_s(&starts));
    out.set("ns_per_cell", median_u64(&jobs) / JOB_N as f64);
    out.set("job_s", median_u64(&jobs) / 1e9);
    out.set("recover_s", median_u64(&recover) / 1e9);
    out.set("setup_s", median_u64(&starts) / 1e9);
    out.set("peak_rss_mb", median_u64(&rss) / 1024.0);
    if cells > 0 {
        out.set("work_per_cell", s as f64 / cells as f64);
    }
    for r in &done {
        let _ = std::fs::remove_dir_all(&r.spool);
    }
}

/// Record a round's client-side spans under run id `run`.
fn record_round(trace: &mut Trace, run: u32, r: &Round) {
    let root = trace.group("rep", run, None, r.start, r.end);
    for &(a, b) in &r.starts {
        trace.layer("daemon.start", run, Some(root), a, b);
    }
    if let (Some(first), Some(last)) =
        (r.jobs.iter().map(|j| j.sent).min(), r.jobs.iter().map(|j| j.eof).max())
    {
        let all = trace.group("jobs", run, Some(root), first, last);
        for j in &r.jobs {
            let job = trace.group("job", run, Some(all), j.sent, j.eof);
            trace.layer("daemon.submit", run, Some(job), j.sent, j.acked);
            trace.layer("daemon.watch", run, Some(job), j.acked, j.eof);
        }
    }
    trace.layer("daemon.shutdown", run, Some(root), r.shutdown.0, r.shutdown.1);
    trace.layer("daemon.recover", run, Some(root), r.recover.0, r.recover.1);
    trace.layer("daemon.shutdown", run, Some(root), r.restart_shutdown.0, r.restart_shutdown.1);
}

/// What the in-process session pass measured.
struct SessionPass {
    report: rfsp_pram::RunReport,
    events: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    /// Size of the final checkpoint the codec was timed on.
    json_bytes: u64,
}

/// Drive daemon job 0's config through `RunSession` in this process,
/// pausing every `quantum` ticks as the daemon does, then load the final
/// checkpoint and time the JSON codec on it.
fn session_pass(
    ctx: &Ctx,
    clock: Clock,
    quantum: u64,
    trace: &mut Trace,
    run: u32,
) -> Result<SessionPass, String> {
    let dir = ctx.dir.join("session");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let ck_path = dir.join("ck.json").display().to_string();
    let mut cfg = daemon::job_config(ctx.seed, 0);
    cfg.checkpoint = Some(ck_path.clone());
    cfg.events = Some(dir.join("events.jsonl").display().to_string());
    let (n, p) = (cfg.n as usize, cfg.p as usize);

    let t0 = clock.now();
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let prog = AlgoX::new(&mut layout, tasks, p, XOptions::default());
    let build = Box::new(|| Machine::new(&prog, p, CycleBudget::PAPER));
    let mut session = RunSession::new(cfg, ExecMode::Sequential, build).map_err(|e| e.0)?;
    let t1 = clock.now();
    let quantum_end = Cell::new(session.cycle() + quantum);
    let boundary = Cell::new(t1);
    let segment_start = Cell::new(t1);
    let phases = RefCell::new(Vec::new());
    let mut noop = NoopObserver;
    let mut telemetry = TimedObserver::new(&mut noop, clock);
    let end = session
        .run(
            &mut |cycle| {
                boundary.set(clock.now());
                cycle >= quantum_end.get()
            },
            &mut |pause| {
                let entered = clock.now();
                let mut phases = phases.borrow_mut();
                phases.push(("session.segment", segment_start.get(), boundary.get()));
                phases.push(("ckpt.publish", boundary.get(), entered));
                quantum_end.set(pause.cycle + quantum);
                segment_start.set(clock.now());
                PauseFlow::Continue
            },
            &mut telemetry,
        )
        .map_err(|e| e.0)?;
    let t2 = clock.now();
    let SessionEnd::Completed(report) = end else {
        return Err("the session stopped before completing".into());
    };
    if !tasks.all_written(session.memory()) {
        return Err("session run: postcondition failed: array not fully written".into());
    }
    let mut phases = phases.into_inner();
    phases.push(("session.segment", segment_start.get(), t2));

    let l0 = clock.now();
    SessionCheckpoint::load(&ck_path).map_err(|e| e.0)?;
    let l1 = clock.now();
    let text = std::fs::read_to_string(&ck_path).map_err(|e| format!("read {ck_path}: {e}"))?;
    let p0 = clock.now();
    let value = serde::json::parse(&text).map_err(|e| format!("{ck_path}: {e}"))?;
    let p1 = clock.now();
    let encoded = serde::json::to_string_pretty(&value);
    let p2 = clock.now();
    std::hint::black_box(&encoded);

    let root = trace.group("rep", run, None, t0, p2);
    trace.layer("session.new", run, Some(root), t0, t1);
    let body = trace.group("session", run, Some(root), t1, t2);
    for (name, a, b) in phases {
        trace.layer(name, run, Some(body), a, b);
    }
    trace.layer("ckpt.load", run, Some(root), l0, l1);
    trace.layer("json.parse", run, Some(root), p0, p1);
    trace.layer("json.encode", run, Some(root), p1, p2);
    let wasted = session.wasted();
    Ok(SessionPass {
        report,
        events: telemetry.events,
        checkpoints: wasted.checkpoints,
        checkpoint_bytes: wasted.checkpoint_bytes,
        json_bytes: text.len() as u64,
    })
}

/// Traced run of `serve_jobs`: one untraced and one traced round,
/// `Spool::scan` on the traced round's spool, and the in-process session
/// pass.
pub fn serve_traced(ctx: &Ctx, trace: &mut Trace, out: &mut Outcome) {
    confine(out);
    let clock = Clock::new();
    let plain = rounds(ctx, clock, 1, "plain", out);
    let traced = rounds(ctx, clock, 1, "traced", out);
    let (Some(_), Some(last)) = (plain.first(), traced.last()) else { return };
    for (k, r) in traced.iter().enumerate() {
        record_round(trace, k as u32, r);
    }
    let next_run = traced.len() as u32;

    let s0 = clock.now();
    let scanned = Spool::open(&last.spool).and_then(|s| s.scan());
    let s1 = clock.now();
    match scanned {
        Ok(jobs)
            if jobs.len() == JOBS_PER_ROUND
                && jobs.iter().all(|j| j.done.as_ref().is_some_and(|d| d.state == "completed")) =>
        {
            let root = trace.group("rep", next_run, None, s0, s1);
            trace.layer("spool.scan", next_run, Some(root), s0, s1);
        }
        Ok(jobs) => out.fail(format!(
            "Spool::scan found {} jobs, not {JOBS_PER_ROUND} completed ones",
            jobs.len()
        )),
        Err(e) => out.fail(format!("Spool::scan: {}", e.0)),
    }

    let quantum = last.quantum.unwrap_or_else(|| {
        out.lines.push("the daemon did not announce its quantum; assuming 50 ticks".into());
        50
    });
    out.attempted += 1;
    let pass = match session_pass(ctx, clock, quantum, trace, next_run + 1) {
        Ok(pass) => pass,
        Err(e) => return out.fail(format!("session pass: {e}")),
    };
    let first_job = &last.outcomes.first();
    if let Some(o) = first_job {
        if (o.s, o.tau) != (pass.report.stats.completed_work(), pass.report.stats.parallel_time) {
            out.fail(
                "the in-process session and the daemon disagree on job 0's (S, tau)".to_string(),
            );
        }
    }

    let totals = trace.totals();
    let mean = |name: &str| totals.get(name).map_or(0.0, |&(t, c)| t as f64 / c.max(1) as f64);
    let total = |name: &str| totals.get(name).map_or(0.0, |&(t, _)| t as f64);
    let jobs: Vec<&JobRecord> = traced.iter().flat_map(|r| &r.jobs).collect();
    let outcomes: Vec<&SpoolOutcome> = traced.iter().flat_map(|r| &r.outcomes).collect();
    let ms = |f: &dyn Fn(&JobRecord) -> u64| {
        median(&jobs.iter().map(|j| f(j) as f64 / 1e6).collect::<Vec<_>>())
    };
    let stats = &pass.report.stats;
    out.set("tick.ns_per_cycle", total("session.segment") / stats.s_prime().max(1) as f64);
    out.set("tick.count", stats.parallel_time as f64);
    out.set("cycles.useful_share", stats.completed_cycles as f64 / stats.s_prime().max(1) as f64);
    out.set("adversary.failures", stats.failures as f64);
    out.set("adversary.restarts", stats.restarts as f64);
    out.set("observer.events", pass.events as f64);
    out.set("session.segment_ns", mean("session.segment"));
    out.set(
        "ckpt.count",
        median(&outcomes.iter().map(|o| o.checkpoints as f64).collect::<Vec<_>>()),
    );
    out.set("ckpt.bytes", pass.checkpoint_bytes as f64 / pass.checkpoints.max(1) as f64);
    out.set("ckpt.publish_ns", mean("ckpt.publish"));
    out.set("ckpt.load_ns", mean("ckpt.load"));
    out.set("spool.scan_ns", mean("spool.scan"));
    out.set(
        "events.bytes",
        median(&outcomes.iter().map(|o| o.events_bytes as f64).collect::<Vec<_>>()),
    );
    let bytes = pass.json_bytes.max(1) as f64;
    out.set("json.encode_ns_per_byte", total("json.encode") / bytes);
    out.set("json.parse_ns_per_byte", total("json.parse") / bytes);
    out.set("daemon.submit_ms", ms(&|j| j.acked - j.sent));
    out.set("daemon.first_event_ms", ms(&|j| j.first_event.unwrap_or(j.eof) - j.sent));
    out.set(
        "daemon.watch_bytes",
        median(&jobs.iter().map(|j| j.watch_bytes as f64).collect::<Vec<_>>()),
    );
    out.set("trace.overhead", median_u64(&job_ns(&traced)) / median_u64(&job_ns(&plain)));
    out.set("trace.unattributed_share", trace.unattributed_share());
    for r in plain.iter().chain(&traced) {
        let _ = std::fs::remove_dir_all(&r.spool);
    }
}
