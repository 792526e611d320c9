//! Golden differential fixtures pinning the executors' observable behavior.
//!
//! The unified execution core (`rfsp_pram::exec`) must be *bit-identical*
//! to the engines it replaced: same Observer event stream, same
//! [`WorkStats`], same recorded failure pattern, same final memory and
//! instrumentation counters, for both the word-model [`Machine`] (flat and
//! banked) and the [`SnapshotMachine`]. These tests render each run into
//! a canonical text summary and compare it byte-for-byte against a fixture
//! generated from the pre-refactor code.
//!
//! Regenerate fixtures (only for an *intentional* behavior change) with
//!
//! ```sh
//! RFSP_BLESS=1 cargo test -p rfsp-pram --test golden_equivalence
//! ```

use std::fs;
use std::path::PathBuf;

use rfsp_pram::snapshot::{SnapshotMachine, SnapshotProgram, SnapshotView};
use rfsp_pram::{
    CompletionHint, CycleBudget, FailPoint, FailureEvent, FailureKind, FailurePattern, Machine,
    MemoryLayout, Pid, Program, ReadSet, RunLimits, RunReport, ScheduledAdversary, SharedMemory,
    Step, TraceRecorder, Word, WriteSet,
};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Compare `actual` against the named fixture, or (re)write the fixture
/// when `RFSP_BLESS` is set.
// The crate's lint bans environment reads so that no engine setting hides
// in a variable; this one is a test's own switch between checking and
// rewriting its fixtures, and touches no engine setting.
#[allow(clippy::disallowed_methods)]
fn check_golden(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("RFSP_BLESS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); run with RFSP_BLESS=1", path.display())
    });
    assert_eq!(
        actual, expected,
        "run diverged from the golden fixture {name} — the refactor changed observable behavior",
    );
}

/// Canonical text rendering of everything a run makes observable.
/// `to_vec()` merges banked layouts into address order, so a banked run
/// summarizes — and must stay — byte-identical to the flat fixture.
fn summary(events_jsonl: &str, report: &RunReport, mem: &SharedMemory) -> String {
    format!(
        "== events ==\n{events_jsonl}== stats ==\n{:?}\n== pattern ==\n{:?}\n\
         == per-processor ==\n{:?}\n== memory ==\n{:?}\n== counters ==\nreads={} writes={}\n",
        report.stats,
        report.pattern,
        report.per_processor,
        mem.to_vec(),
        mem.read_count(),
        mem.write_count(),
    )
}

fn fail(pid: usize, time: u64, point: FailPoint) -> FailureEvent {
    FailureEvent { kind: FailureKind::Failure { point }, pid, time }
}

fn restart(pid: usize, time: u64) -> FailureEvent {
    FailureEvent { kind: FailureKind::Restart, pid, time }
}

// ---------------------------------------------------------------- word model

/// Each processor owns two cells and increments both each cycle until they
/// reach `target` (two writes per cycle, so `AfterWrite(1)` exercises a
/// partially committed prefix). Tracked via `completion_hint`.
struct Duo {
    p: usize,
    target: Word,
}

impl Program for Duo {
    type Private = ();
    fn shared_size(&self) -> usize {
        2 * self.p
    }
    fn on_start(&self, _pid: Pid) {}
    fn plan(&self, pid: Pid, _st: &(), values: &[Word], reads: &mut ReadSet) {
        if values.is_empty() {
            reads.push(2 * pid.0);
            reads.push(2 * pid.0 + 1);
        }
    }
    fn execute(&self, pid: Pid, _st: &mut (), vals: &[Word], writes: &mut WriteSet) -> Step {
        if vals[0] >= self.target && vals[1] >= self.target {
            return Step::Halt;
        }
        if vals[0] < self.target {
            writes.push(2 * pid.0, vals[0] + 1);
        }
        if vals[1] < self.target {
            writes.push(2 * pid.0 + 1, vals[1] + 1);
        }
        Step::Continue
    }
    fn is_complete(&self, mem: &SharedMemory) -> bool {
        (0..2 * self.p).all(|i| mem.peek(i) >= self.target)
    }
    fn completion_hint(&self, _addr: usize, value: Word) -> CompletionHint {
        if value >= self.target {
            CompletionHint::Satisfied
        } else {
            CompletionHint::Outstanding
        }
    }
}

/// A deterministic hand-written schedule exercising every fail point:
/// `BeforeWrites` (whole cycle lost), `AfterWrite(1)` (partial prefix
/// committed), `BeforeReads` (nothing executed), plus restarts.
fn word_schedule() -> FailurePattern {
    vec![
        fail(1, 0, FailPoint::BeforeWrites),
        fail(2, 1, FailPoint::AfterWrite(1)),
        restart(1, 2),
        restart(2, 3),
        fail(0, 3, FailPoint::BeforeReads),
        restart(0, 5),
    ]
    .into_iter()
    .collect()
}

fn word_summary(
    run: impl FnOnce(&mut Machine<'_, Duo>, &mut ScheduledAdversary, &mut TraceRecorder) -> RunReport,
) -> String {
    word_summary_layout(MemoryLayout::Flat, run)
}

fn word_summary_layout(
    layout: MemoryLayout,
    run: impl FnOnce(&mut Machine<'_, Duo>, &mut ScheduledAdversary, &mut TraceRecorder) -> RunReport,
) -> String {
    let prog = Duo { p: 4, target: 3 };
    let mut m = Machine::with_layout(&prog, 4, CycleBudget::PAPER, layout).unwrap();
    let mut adv = ScheduledAdversary::new(word_schedule());
    let mut trace = TraceRecorder::unbounded();
    let report = run(&mut m, &mut adv, &mut trace);
    summary(&trace.to_jsonl(), &report, m.memory())
}

#[test]
fn word_sequential_matches_golden() {
    let actual =
        word_summary(|m, adv, trace| m.run_observed(adv, RunLimits::default(), trace).unwrap());
    check_golden("golden_word.txt", &actual);
}

/// Bank-partitioning the shared memory must not change a single observable
/// byte: the same fixture the flat layout pins, under an uneven
/// block-cyclic layout (8 cells over 3 banks of 2-cell blocks).
#[test]
fn word_banked_matches_golden() {
    let layout = MemoryLayout::Banked { banks: 3, interleave: 2 };
    let actual = word_summary_layout(layout, |m, adv, trace| {
        m.run_observed(adv, RunLimits::default(), trace).unwrap()
    });
    check_golden("golden_word.txt", &actual);
}

// ------------------------------------------------------------ snapshot model

/// Index-driven snapshot Write-All: each processor writes 1 into the
/// `pid % len`-th unvisited cell.
struct SnapHinted {
    n: usize,
}

impl SnapshotProgram for SnapHinted {
    type Private = ();
    fn shared_size(&self) -> usize {
        self.n
    }
    fn on_start(&self, _pid: Pid) {}
    fn execute(
        &self,
        pid: Pid,
        _st: &mut (),
        view: &SnapshotView<'_>,
        writes: &mut WriteSet,
    ) -> Step {
        let idx = view.unvisited().expect("hinted program gets an index");
        if idx.is_empty() {
            return Step::Halt;
        }
        writes.push(idx.select(pid.0 % idx.len()), 1);
        Step::Continue
    }
    fn is_complete(&self, mem: &SharedMemory) -> bool {
        (0..self.n).all(|i| mem.peek(i) == 1)
    }
    fn completion_hint(&self, _addr: usize, value: Word) -> CompletionHint {
        if value == 1 {
            CompletionHint::Satisfied
        } else {
            CompletionHint::Outstanding
        }
    }
}

fn snapshot_schedule() -> FailurePattern {
    vec![
        fail(1, 0, FailPoint::BeforeWrites),
        // With a 1-write cycle, AfterWrite(1) commits the whole cycle: the
        // processor completes (and is charged) before it stops.
        fail(2, 1, FailPoint::AfterWrite(1)),
        restart(1, 2),
        restart(2, 3),
    ]
    .into_iter()
    .collect()
}

/// Snapshot-model golden: stats, recorded pattern, memory and counters.
/// (The pre-refactor snapshot engine had no observer, so the event stream
/// is pinned separately by `snapshot_trace_matches_golden` below.)
#[test]
fn snapshot_matches_golden() {
    let prog = SnapHinted { n: 12 };
    let mut m = SnapshotMachine::new(&prog, 4, 1).unwrap();
    let mut adv = ScheduledAdversary::new(snapshot_schedule());
    let report = m.run(&mut adv).unwrap();
    let actual = summary("", &report, m.memory());
    check_golden("golden_snapshot.txt", &actual);
}

/// The snapshot machine over a banked memory — including its chunk-wise
/// fallback scans — pins to the same fixture as the flat run.
#[test]
fn snapshot_banked_matches_golden() {
    let prog = SnapHinted { n: 12 };
    let layout = MemoryLayout::Banked { banks: 4, interleave: 1 };
    let mut m = SnapshotMachine::with_layout(&prog, 4, 1, layout).unwrap();
    let mut adv = ScheduledAdversary::new(snapshot_schedule());
    let report = m.run(&mut adv).unwrap();
    let actual = summary("", &report, m.memory());
    check_golden("golden_snapshot.txt", &actual);
}

/// The unified core gave the snapshot machine an Observer event stream
/// (it had none before PR 5). Pin it: same schedule as
/// `snapshot_matches_golden`, with the full trace included — the trace is
/// new behavior, so this fixture was blessed from the unified core and
/// guards it from here on.
#[test]
fn snapshot_trace_matches_golden() {
    let prog = SnapHinted { n: 12 };
    let mut m = SnapshotMachine::new(&prog, 4, 1).unwrap();
    let mut adv = ScheduledAdversary::new(snapshot_schedule());
    let mut trace = TraceRecorder::unbounded();
    let report = m.run_observed(&mut adv, RunLimits::default(), &mut trace).unwrap();
    let actual = summary(&trace.to_jsonl(), &report, m.memory());
    check_golden("golden_snapshot_trace.txt", &actual);
}
