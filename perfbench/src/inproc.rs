//! The three in-process workloads: machine runs driven through the
//! public constructors and run calls of `rfsp-pram`, `rfsp-core` and
//! `rfsp-adversary`, each repetition built from scratch.

use rfsp_adversary::{Pigeonhole, RandomFaults};
use rfsp_core::{AlgoX, SnapshotBalance, TrivialAssign, WriteAllTasks, XOptions};
use rfsp_pram::snapshot::SnapshotMachine;
use rfsp_pram::{
    Adversary, CycleBudget, FailurePattern, LayoutBuilder, Machine, MetricsObserver, NoFailures,
    NoopObserver, Observer, PramError, RunLimits, RunReport, Tee, WorkStats,
};

use crate::spans::Trace;
use crate::timing::{Clock, TimedAdversary, TimedObserver};

/// One of the in-process workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InProc {
    /// `TrivialAssign`, `NoFailures`, no observer, pooled engine: the
    /// tentative/commit kernels and the pool over a 128 MiB array.
    ScaleNofail,
    /// Algorithm X under `RandomFaults`, `MetricsObserver` attached,
    /// sequential engine: fault handling and observer dispatch.
    XFaults,
    /// `SnapshotBalance` on the snapshot machine under `Pigeonhole`, with
    /// a `MetricsObserver`: the snapshot engine, its unvisited index and an
    /// adversary that reads machine state every tick.
    SnapshotPigeonhole,
}

/// Instance size and processor count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Geometry {
    /// Array cells `N`.
    pub n: usize,
    /// Processors `P`.
    pub p: usize,
}

/// `RandomFaults` rates of `x_faults` (and of the daemon jobs).
pub const FAIL_RATE: f64 = 0.05;
/// Per-tick restart probability paired with [`FAIL_RATE`].
pub const RESTART_RATE: f64 = 0.5;

impl InProc {
    /// The workload's benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            InProc::ScaleNofail => "scale_nofail",
            InProc::XFaults => "x_faults",
            InProc::SnapshotPigeonhole => "snapshot_pigeonhole",
        }
    }

    /// The geometry the benchmark measures. `scale_nofail` is the
    /// BENCH_SCALE point N = 2^24 with P = N/4096 (4096 ticks).
    pub fn geometry(self) -> Geometry {
        match self {
            InProc::ScaleNofail => Geometry { n: 1 << 24, p: (1 << 24) / 4096 },
            InProc::XFaults => Geometry { n: 1 << 16, p: 1 << 12 },
            InProc::SnapshotPigeonhole => Geometry { n: 1 << 16, p: 1 << 16 },
        }
    }
}

/// Stamps of a traced repetition's tick loop.
#[derive(Debug, Default)]
pub struct Ticks {
    /// `(start, end)` of every `Adversary::decide` call.
    pub decide: Vec<(u64, u64)>,
    /// Stamp of every `TickStart` event.
    pub tick_starts: Vec<u64>,
    /// Stamp of the `Completed` event.
    pub completed_at: Option<u64>,
    /// Observer calls made by the machine.
    pub events: u64,
    /// `(start, end)` of the sampled observer calls.
    pub samples: Vec<(u64, u64)>,
}

/// What one repetition produced.
#[derive(Debug)]
pub struct Rep {
    /// Setup stamps: start, program built, machine built, adversary and
    /// observer built (the run call starts right after).
    pub setup: [u64; 4],
    /// `(start, end)` of the run call.
    pub run: (u64, u64),
    /// The run's accounting.
    pub stats: WorkStats,
    /// The failure pattern the adversary produced.
    pub pattern: FailurePattern,
    /// Whether every array cell holds 1 afterwards.
    pub all_written: bool,
    /// Completed work S as the attached `MetricsObserver` counted it
    /// (workloads with one).
    pub observed_s: Option<u64>,
    /// Tick-loop stamps, for traced repetitions.
    pub ticks: Option<Ticks>,
}

impl Rep {
    /// Set-up time in ns.
    pub fn setup_ns(&self) -> u64 {
        self.setup[3] - self.setup[0]
    }

    /// Run-call time in ns.
    pub fn run_ns(&self) -> u64 {
        self.run.1 - self.run.0
    }

    /// The output checks every repetition must pass: the array is fully
    /// written and the observer saw the same S as the report.
    pub fn check(&self) -> Result<(), String> {
        if !self.all_written {
            return Err("postcondition failed: array not fully written".into());
        }
        if let Some(s) = self.observed_s {
            if s != self.stats.completed_work() {
                return Err(format!(
                    "observer counted S={s}, report says S={}",
                    self.stats.completed_work()
                ));
            }
        }
        Ok(())
    }

    /// The run's (S, τ, |F|) triple, identical on every repetition.
    pub fn signature(&self) -> (u64, u64, u64) {
        (self.stats.completed_work(), self.stats.parallel_time, self.stats.pattern_size())
    }
}

/// A run's report, the `(start, end)` of its run call, and its tick
/// stamps when traced.
type Driven = (RunReport, (u64, u64), Option<Ticks>);

/// Run the machine through `run`, wrapped in the timing adversary and
/// observer when `traced`.
fn drive<F>(
    clock: Clock,
    traced: bool,
    adversary: &mut dyn Adversary,
    observer: &mut dyn Observer,
    run: F,
) -> Result<Driven, PramError>
where
    F: FnOnce(&mut dyn Adversary, &mut dyn Observer) -> Result<RunReport, PramError>,
{
    if !traced {
        let start = clock.now();
        let report = run(adversary, observer)?;
        return Ok((report, (start, clock.now()), None));
    }
    let mut adversary = TimedAdversary::new(adversary, clock);
    let mut observer = TimedObserver::new(observer, clock);
    let start = clock.now();
    let report = run(&mut adversary, &mut observer)?;
    let end = clock.now();
    let ticks = Ticks {
        decide: adversary.calls,
        tick_starts: observer.tick_starts,
        completed_at: observer.completed_at,
        events: observer.events,
        samples: observer.samples,
    };
    Ok((report, (start, end), Some(ticks)))
}

/// Call `f` with `observer`, teed into `tap` when one is given (tests use
/// the tap to capture the event stream).
fn observe<F, R>(observer: &mut dyn Observer, tap: Option<&mut dyn Observer>, f: F) -> R
where
    F: FnOnce(&mut dyn Observer) -> R,
{
    match tap {
        None => f(observer),
        Some(tap) => f(&mut Tee(observer, tap)),
    }
}

/// One repetition of `w` at geometry `g`: build layout, program, machine,
/// adversary and observer, then make the run call. `threads` applies to
/// `scale_nofail` only; the other two run on the sequential engine.
///
/// # Errors
///
/// Machine construction and run errors.
pub fn rep(
    w: InProc,
    g: Geometry,
    seed: u64,
    threads: usize,
    clock: Clock,
    traced: bool,
    tap: Option<&mut dyn Observer>,
) -> Result<Rep, PramError> {
    let limits = RunLimits::default();
    let t0 = clock.now();
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, g.n);
    let (report, run, ticks, stamps, all_written, observed_s) = match w {
        InProc::ScaleNofail => {
            let prog = TrivialAssign::new(tasks, g.p);
            let t1 = clock.now();
            let mut m = Machine::new(&prog, g.p, CycleBudget::PAPER)?;
            let t2 = clock.now();
            let mut adversary = NoFailures;
            let mut observer = NoopObserver;
            let t3 = clock.now();
            let (report, run, ticks) = observe(&mut observer, tap, |obs| {
                drive(clock, traced, &mut adversary, obs, |a, o| {
                    m.run_threaded_observed(&mut { a }, limits, threads, o)
                })
            })?;
            (report, run, ticks, [t0, t1, t2, t3], tasks.all_written(m.memory()), None)
        }
        InProc::XFaults => {
            let prog = AlgoX::new(&mut layout, tasks, g.p, XOptions::default());
            let t1 = clock.now();
            let mut m = Machine::new(&prog, g.p, CycleBudget::PAPER)?;
            let t2 = clock.now();
            let mut adversary = RandomFaults::new(FAIL_RATE, RESTART_RATE, seed);
            let mut observer = MetricsObserver::new(g.p);
            let t3 = clock.now();
            let (report, run, ticks) = observe(&mut observer, tap, |obs| {
                drive(clock, traced, &mut adversary, obs, |a, o| {
                    m.run_observed(&mut { a }, limits, o)
                })
            })?;
            let s = observer.finish().last().map_or(0, |row| row.s);
            (report, run, ticks, [t0, t1, t2, t3], tasks.all_written(m.memory()), Some(s))
        }
        InProc::SnapshotPigeonhole => {
            let prog = SnapshotBalance::new(tasks, g.p);
            let t1 = clock.now();
            let mut m = SnapshotMachine::new(&prog, g.p, 1)?;
            let t2 = clock.now();
            let mut adversary = Pigeonhole::new(tasks.x());
            let mut observer = MetricsObserver::new(g.p);
            let t3 = clock.now();
            let (report, run, ticks) = observe(&mut observer, tap, |obs| {
                drive(clock, traced, &mut adversary, obs, |a, o| {
                    m.run_observed(&mut { a }, limits, o)
                })
            })?;
            let s = observer.finish().last().map_or(0, |row| row.s);
            (report, run, ticks, [t0, t1, t2, t3], tasks.all_written(m.memory()), Some(s))
        }
    };
    Ok(Rep {
        setup: stamps,
        run,
        stats: report.stats,
        pattern: report.pattern,
        all_written,
        observed_s,
        ticks,
    })
}

/// Counts from a traced repetition's tick loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct TickPhases {
    /// Ticks executed.
    pub ticks: u64,
    /// Observer calls.
    pub events: u64,
    /// Observer calls whose time was sampled.
    pub sampled: u64,
}

/// Record the spans of traced repetition `rep` under run id `run`: a
/// `rep` root, the `setup` group with its constructor spans, and the `run`
/// call with one `tick` group per tick holding `tick.tentative`,
/// `adversary.decide` and `tick.commit` (whose children are the sampled
/// `observer.event` calls).
///
/// # Errors
///
/// A tick whose `TickStart` and `decide` stamps do not pair up.
pub fn record_spans(trace: &mut Trace, run: u32, rep: &Rep) -> Result<TickPhases, String> {
    let ticks = rep.ticks.as_ref().ok_or("repetition was not traced")?;
    let [t0, t1, t2, t3] = rep.setup;
    let root = trace.group("rep", run, None, t0, rep.run.1);
    let setup = trace.group("setup", run, Some(root), t0, t3);
    trace.layer("setup.program", run, Some(setup), t0, t1);
    trace.layer("setup.machine", run, Some(setup), t1, t2);
    trace.layer("setup.adversary", run, Some(setup), t2, t3);
    let call = trace.group("run", run, Some(root), rep.run.0, rep.run.1);
    if ticks.decide.len() != ticks.tick_starts.len() {
        return Err(format!(
            "{} TickStart events but {} decide calls",
            ticks.tick_starts.len(),
            ticks.decide.len()
        ));
    }
    let last = ticks.completed_at.unwrap_or(rep.run.1);
    let mut samples = ticks.samples.iter().peekable();
    for (k, (&start, &(d0, d1))) in ticks.tick_starts.iter().zip(&ticks.decide).enumerate() {
        let end = ticks.tick_starts.get(k + 1).copied().unwrap_or(last);
        if !(start <= d0 && d1 <= end) {
            return Err(format!("tick {k}: decide call outside its tick"));
        }
        let tick = trace.group("tick", run, Some(call), start, end);
        trace.layer("tick.tentative", run, Some(tick), start, d0);
        trace.layer("adversary.decide", run, Some(tick), d0, d1);
        let commit = trace.layer("tick.commit", run, Some(tick), d1, end);
        while let Some(&&(a, b)) = samples.peek() {
            if a >= end {
                break;
            }
            trace.layer("observer.event", run, Some(commit), a, b);
            samples.next();
        }
    }
    Ok(TickPhases {
        ticks: ticks.tick_starts.len() as u64,
        events: ticks.events,
        sampled: ticks.samples.len() as u64,
    })
}
