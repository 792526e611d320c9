//! Cross-crate checks of the machine model itself: every row of the one
//! run entry agrees with the observed run, write-semantics enforcement,
//! and the model's progress condition, all exercised through the real
//! algorithms.

use rfsp::adversary::RandomFaults;
use rfsp::core::{AlgoV, AlgoX, WriteAllTasks, XOptions};
use rfsp::pram::{
    Adversary, CycleBudget, LayoutBuilder, Machine, Observer, Program, RunControl, RunLimits,
    RunReport, RunSpec, RunStatus, ScheduledAdversary, TraceRecorder, Word, WriteMode,
};

/// The rows of `run_with` a run can take besides the plain observed one:
/// under panic isolation, and paused at every `k`-th tick boundary and
/// resumed on the same machine until it completes.
#[derive(Clone, Copy, Debug)]
enum Row {
    CatchPanics,
    PausedEvery(u64),
}

const ROWS: [Row; 3] = [Row::CatchPanics, Row::PausedEvery(1), Row::PausedEvery(3)];

/// Run `m` under `adv` to completion on `row`, streaming every event to
/// `observer`.
fn run_row<P: Program, A: Adversary>(
    m: &mut Machine<'_, P>,
    adv: &mut A,
    row: Row,
    observer: &mut dyn Observer,
) -> RunReport {
    let (spec, every) = match row {
        Row::CatchPanics => (RunSpec { catch_panics: true, ..RunSpec::default() }, None),
        Row::PausedEvery(k) => (RunSpec::default(), Some(k)),
    };
    let mut last_pause = None;
    loop {
        let paused = last_pause;
        let control = |cycle: u64| match every {
            Some(k) if cycle.is_multiple_of(k) && paused != Some(cycle) => RunControl::Pause,
            _ => RunControl::Continue,
        };
        match m.run_with(spec, adv, observer, control).unwrap() {
            RunStatus::Completed(report) => return report,
            RunStatus::Paused { cycle } => last_pause = Some(cycle),
        }
    }
}

/// What a run leaves to compare: its stats, its memory and its event
/// stream's JSONL bytes.
type Observed = (rfsp::pram::WorkStats, Vec<Word>, String);

/// Build a machine with `build` and an adversary with `adversary`, run it
/// with `run_observed` and on every row of [`ROWS`], and require each row
/// to match the observed run's stats, memory and JSONL bytes.
fn rows_match_observed<'p, P: Program + 'p, A: Adversary>(
    build: impl Fn() -> Machine<'p, P>,
    adversary: impl Fn() -> A,
) -> Observed {
    let observe = |row: Option<Row>| -> Observed {
        let mut m = build();
        let mut adv = adversary();
        let mut trace = TraceRecorder::unbounded();
        let report = match row {
            None => m.run_observed(&mut adv, RunLimits::default(), &mut trace).unwrap(),
            Some(row) => run_row(&mut m, &mut adv, row, &mut trace),
        };
        (report.stats, m.memory().as_slice().to_vec(), trace.to_jsonl())
    };
    let reference = observe(None);
    for row in ROWS {
        let (stats, mem, jsonl) = observe(Some(row));
        assert_eq!(stats, reference.0, "{row:?}: stats");
        assert_eq!(mem, reference.1, "{row:?}: memory");
        assert_eq!(jsonl, reference.2, "{row:?}: event stream");
    }
    reference
}

/// Every row of `run_with` is bit-identical to the observed run, including
/// under an adversarial schedule (replayed so every row sees the same
/// pattern).
#[test]
fn run_with_rows_match_sequential_under_faults() {
    let n = 200usize;
    let p = 32usize;
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let prog = AlgoX::new(&mut layout, tasks, p, XOptions::default());
    // First, record a pattern with a live random adversary.
    let pattern = {
        let mut adv = RandomFaults::new(0.2, 0.5, 7);
        let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        m.run(&mut adv).unwrap().pattern
    };
    let (stats, mem, _) = rows_match_observed(
        || Machine::new(&prog, p, CycleBudget::PAPER).unwrap(),
        || ScheduledAdversary::new(pattern.clone()),
    );
    assert!(stats.failures > 0, "the adversary must actually interfere");
    let x = tasks.x();
    assert!((0..x.len()).all(|i| mem[x.at(i)] == 1), "array not fully written");
}

/// The COMMON checker would catch an algorithm whose concurrent writers
/// disagree; all shipped algorithms pass under COMMON across a fault storm.
#[test]
fn shipped_algorithms_are_common_legal() {
    for seed in 0..5u64 {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, 150);
        let prog = AlgoV::new(&mut layout, tasks, 30);
        let mut adv = RandomFaults::new(0.25, 0.7, seed);
        let mut m = Machine::new(&prog, 30, CycleBudget::PAPER).unwrap();
        m.set_write_mode(WriteMode::Common);
        m.run(&mut adv).unwrap_or_else(|e| panic!("COMMON violation (seed {seed}): {e}"));
        assert!(tasks.all_written(m.memory()));
    }
}

/// ARBITRARY mode runs the same algorithms unchanged (COMMON ⊆ ARBITRARY).
#[test]
fn arbitrary_mode_subsumes_common_algorithms() {
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, 64);
    let prog = AlgoX::new(&mut layout, tasks, 16, XOptions::default());
    let mut adv = RandomFaults::new(0.1, 0.6, 3);
    let mut m = Machine::new(&prog, 16, CycleBudget::PAPER).unwrap();
    m.set_write_mode(WriteMode::Arbitrary);
    m.run(&mut adv).unwrap();
    assert!(tasks.all_written(m.memory()));
}

/// Restart storms at every legal fail point leave the accounting coherent.
#[test]
fn fail_points_inside_cycles_are_all_exercised() {
    use rfsp::pram::{FailPoint, FailureKind};
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, 120);
    let prog = AlgoV::new(&mut layout, tasks, 24);
    let mut adv = RandomFaults::new(0.3, 0.6, 0xFEED);
    let mut m = Machine::new(&prog, 24, CycleBudget::PAPER).unwrap();
    let report = m.run(&mut adv).unwrap();
    // The random adversary picks BeforeReads/BeforeWrites/AfterWrite(k)
    // uniformly; with hundreds of events all committed-write counts occur.
    let mut saw_partial = false;
    let mut saw_zero = false;
    for e in report.pattern.events() {
        if let FailureKind::Failure { point } = e.kind {
            match point {
                FailPoint::AfterWrite(_) => saw_partial = true,
                FailPoint::BeforeReads | FailPoint::BeforeWrites => saw_zero = true,
            }
        }
    }
    assert!(saw_partial, "no mid-cycle (between-writes) failure occurred");
    assert!(saw_zero, "no before-writes failure occurred");
    assert!(tasks.all_written(m.memory()));
}

/// The event stream independently witnesses the accounting: per-kind
/// event counts must equal WorkStats on an adversarial run.
#[test]
fn trace_log_matches_work_stats() {
    use rfsp::pram::TraceEvent;
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, 100);
    let prog = AlgoX::new(&mut layout, tasks, 20, XOptions::default());
    let mut adv = RandomFaults::new(0.2, 0.6, 0xBEEF);
    let mut m = Machine::new(&prog, 20, CycleBudget::PAPER).unwrap();
    let mut log = TraceRecorder::unbounded();
    let report = m.run_observed(&mut adv, RunLimits::default(), &mut log).unwrap();
    let count = |kind: fn(&TraceEvent) -> bool| log.events().filter(|e| kind(e)).count() as u64;

    assert_eq!(
        count(|e| matches!(e, TraceEvent::CycleCompleted { .. })),
        report.stats.completed_cycles
    );
    assert_eq!(
        count(|e| matches!(e, TraceEvent::CycleInterrupted { .. })),
        report.stats.interrupted_cycles
    );
    assert_eq!(count(|e| matches!(e, TraceEvent::Failure { .. })), report.stats.failures);
    assert_eq!(count(|e| matches!(e, TraceEvent::Restart { .. })), report.stats.restarts);
    assert!(
        count(|e| matches!(e, TraceEvent::Commit { .. })) >= 100,
        "every array cell was committed at least once"
    );
    // The stream ends with the completion event.
    assert!(matches!(log.events().last(), Some(TraceEvent::Completed { .. })));
    // Ticks are monotone.
    let mut last = 0;
    for e in log.events() {
        if let TraceEvent::TickStart { cycle } = e {
            assert!(*cycle >= last);
            last = *cycle;
        }
    }
}

/// Every row of `run_with` is equivalent for every algorithm whose private
/// state is nontrivial (V carries cohort state; interleaved carries V's).
#[test]
fn run_with_rows_match_for_v_and_interleaved() {
    use rfsp::core::Interleaved;
    let n = 150usize;
    let p = 16usize;
    // V, replaying a recorded pattern.
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let prog = AlgoV::new(&mut layout, tasks, p);
    let pattern = {
        let mut adv = RandomFaults::new(0.15, 0.6, 21);
        let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        m.run(&mut adv).unwrap().pattern
    };
    rows_match_observed(
        || Machine::new(&prog, p, CycleBudget::PAPER).unwrap(),
        || ScheduledAdversary::new(pattern.clone()),
    );
    // Interleaved, under a live random adversary.
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let prog = Interleaved::new(&mut layout, tasks, p);
    let budget = prog.required_budget();
    rows_match_observed(
        || Machine::new(&prog, p, budget).unwrap(),
        || RandomFaults::new(0.1, 0.7, 33),
    );
}

/// Every row of `run_with` emits the **identical event stream** as the
/// observed run, asserted down to the exported bytes: the same recorded
/// pattern is replayed through each row with a `TraceRecorder` and a
/// `MetricsObserver` attached, and the JSONL exports and the metrics
/// series must match exactly.
#[test]
fn run_with_event_stream_is_byte_identical_to_sequential() {
    use rfsp::pram::{MetricsObserver, Tee};
    let n = 180usize;
    let p = 24usize;
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let prog = AlgoX::new(&mut layout, tasks, p, XOptions::default());
    let pattern = {
        let mut adv = RandomFaults::new(0.2, 0.5, 0xA11CE);
        let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        m.run(&mut adv).unwrap().pattern
    };
    assert!(!pattern.is_empty(), "the adversary must actually interfere");
    let capture = |row: Option<Row>| {
        let mut adv = ScheduledAdversary::new(pattern.clone());
        let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        let mut rec = TraceRecorder::unbounded();
        let mut metrics = MetricsObserver::new(p);
        let mut tee = Tee(&mut rec, &mut metrics);
        let report = match row {
            None => m.run_observed(&mut adv, RunLimits::default(), &mut tee).unwrap(),
            Some(row) => run_row(&mut m, &mut adv, row, &mut tee),
        };
        (rec.to_jsonl(), metrics.finish(), report.stats)
    };
    let (seq_jsonl, seq_series, seq_stats) = capture(None);
    for row in [Row::CatchPanics, Row::PausedEvery(1), Row::PausedEvery(2), Row::PausedEvery(5)] {
        let (row_jsonl, row_series, row_stats) = capture(Some(row));
        assert_eq!(row_jsonl, seq_jsonl, "event stream diverged on {row:?}");
        assert_eq!(row_series, seq_series, "metrics diverged on {row:?}");
        assert_eq!(row_stats, seq_stats);
    }
    // The folded series is itself consistent with the accounting.
    let last = *seq_series.last().expect("run has ticks");
    assert_eq!(last.s, seq_stats.completed_cycles);
    assert_eq!(last.s_prime, seq_stats.s_prime());
    assert_eq!(last.pattern_size, seq_stats.pattern_size());
    assert_eq!(seq_series.completed_cycle, Some(seq_stats.parallel_time));
}

/// The per-processor decomposition of S witnesses V's balanced allocation
/// (Theorem 3.2's rule): with no failures and P ≪ N the busiest processor
/// does at most ~2x the average work.
#[test]
fn v_allocation_is_balanced() {
    use rfsp::pram::NoFailures;
    let n = 2048usize;
    let p = 32usize;
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let prog = AlgoV::new(&mut layout, tasks, p);
    let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
    let report = m.run(&mut NoFailures).unwrap();
    assert_eq!(report.per_processor.iter().sum::<u64>(), report.completed_work());
    let imbalance = report.load_imbalance();
    assert!(imbalance < 2.0, "V imbalance {imbalance} should be near 1");
}

/// X's PID-bit descent is also balanced failure-free, but the X-killer
/// skews the distribution heavily toward processor 0 (the lone worker).
#[test]
fn x_killer_skews_per_processor_work() {
    use rfsp::adversary::XKiller;
    let n = 128usize;
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let prog = AlgoX::new(&mut layout, tasks, n, XOptions::default());
    let mut adv = XKiller::new(tasks.x(), *prog.layout(), prog.tree());
    let mut m = Machine::new(&prog, n, CycleBudget::PAPER).unwrap();
    let report = m.run(&mut adv).unwrap();
    let p0 = report.per_processor[0];
    let mean = report.completed_work() / n as u64;
    assert!(p0 > 3 * mean, "processor 0 ({p0}) should dominate the mean ({mean})");
}
