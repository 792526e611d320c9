//! Differential properties for the bank-partitioned memory backend.
//!
//! The layout is an implementation detail of the store: for every fault
//! schedule, every bank count and every interleave, a banked machine must
//! produce the byte-identical event stream, stats, failure pattern,
//! merged memory image and merged access counters as the flat machine —
//! for the word model and the snapshot model. Checkpoints taken under a non-default bank count must restore
//! bit-exactly, and cross-layout restores must be refused.

use proptest::prelude::*;
use rfsp_pram::snapshot::{SnapshotMachine, SnapshotProgram, SnapshotView};
use rfsp_pram::{
    Checkpoint, CompletionHint, CycleBudget, FailPoint, FailureEvent, FailureKind, FailurePattern,
    Machine, MemoryLayout, NoopObserver, Pid, PramError, Program, ReadSet, RunControl, RunLimits,
    RunReport, RunSpec, RunStatus, ScheduledAdversary, SharedMemory, Step, TraceRecorder, Word,
    WriteSet,
};

/// Per-processor increment grind (same shape as `properties.rs`).
struct Grind {
    n: usize,
    target: Word,
}

impl Program for Grind {
    type Private = ();
    fn shared_size(&self) -> usize {
        self.n
    }
    fn on_start(&self, _pid: Pid) {}
    fn plan(&self, pid: Pid, _st: &(), values: &[Word], reads: &mut ReadSet) {
        if values.is_empty() {
            reads.push(pid.0 % self.n);
        }
    }
    fn execute(&self, pid: Pid, _st: &mut (), values: &[Word], writes: &mut WriteSet) -> Step {
        if values[0] < self.target {
            writes.push(pid.0 % self.n, values[0] + 1);
        }
        Step::Continue
    }
    fn is_complete(&self, mem: &SharedMemory) -> bool {
        (0..self.n).all(|i| mem.peek(i) >= self.target)
    }
}

/// Index-driven snapshot Write-All (same shape as the golden fixtures).
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

/// Legal pre-committed fault schedule (the `properties.rs` construction):
/// liveness-respecting fails/restarts, processor 0 immune, everyone
/// revived at the end.
fn legal_schedule(p: usize, raw: Vec<(usize, bool)>) -> FailurePattern {
    let mut alive = vec![true; p];
    let mut pattern = FailurePattern::new();
    let raw_len = raw.len();
    for (t, (pid_raw, restart)) in raw.into_iter().enumerate() {
        let pid = pid_raw % p;
        if pid == 0 {
            continue;
        }
        if alive[pid] && !restart {
            alive[pid] = false;
            pattern.push(FailureEvent {
                kind: FailureKind::Failure { point: FailPoint::BeforeWrites },
                pid,
                time: t as u64,
            });
        } else if !alive[pid] && restart {
            alive[pid] = true;
            pattern.push(FailureEvent { kind: FailureKind::Restart, pid, time: t as u64 + 1 });
        }
    }
    let heal_time = raw_len as u64 + 2;
    for (pid, &is_alive) in alive.iter().enumerate() {
        if !is_alive {
            pattern.push(FailureEvent { kind: FailureKind::Restart, pid, time: heal_time });
        }
    }
    pattern
}

/// Everything a word-model run makes observable.
struct Observables {
    events: String,
    report: RunReport,
    mem: Vec<Word>,
    reads: u64,
    writes: u64,
}

fn word_run(layout: MemoryLayout, prog: &Grind, p: usize, pattern: &FailurePattern) -> Observables {
    let limits = RunLimits { max_cycles: 1_000_000 };
    let mut m = Machine::with_layout(prog, p, CycleBudget::PAPER, layout).unwrap();
    let mut adv = ScheduledAdversary::new(pattern.clone());
    let mut trace = TraceRecorder::unbounded();
    let report = m.run_observed(&mut adv, limits, &mut trace).unwrap();
    Observables {
        events: trace.to_jsonl(),
        report,
        mem: m.memory().to_vec(),
        reads: m.memory().read_count(),
        writes: m.memory().write_count(),
    }
}

fn assert_same(flat: &Observables, banked: &Observables) -> Result<(), TestCaseError> {
    prop_assert_eq!(&flat.events, &banked.events);
    prop_assert_eq!(flat.report.stats, banked.report.stats);
    prop_assert_eq!(flat.report.pattern.events(), banked.report.pattern.events());
    prop_assert_eq!(&flat.report.per_processor, &banked.report.per_processor);
    prop_assert_eq!(&flat.mem, &banked.mem);
    prop_assert_eq!(flat.reads, banked.reads);
    prop_assert_eq!(flat.writes, banked.writes);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Word model: flat and banked layouts are observationally identical
    /// for every legal fault schedule.
    #[test]
    fn word_banked_is_bit_identical_to_flat(
        p in 1usize..16,
        target in 1u64..5,
        banks in 2usize..7,
        interleave in 1usize..4,
        raw in proptest::collection::vec((1usize..16, any::<bool>()), 0..48),
    ) {
        let pattern = legal_schedule(p, raw);
        let prog = Grind { n: p, target };
        let layout = MemoryLayout::Banked { banks, interleave };

        let flat = word_run(MemoryLayout::Flat, &prog, p, &pattern);
        let banked = word_run(layout, &prog, p, &pattern);
        assert_same(&flat, &banked)?;
    }

    /// Snapshot model: same property, through the unified core's snapshot
    /// path (including the banked chunk-wise scan fallbacks).
    #[test]
    fn snapshot_banked_is_bit_identical_to_flat(
        n in 1usize..24,
        p in 1usize..8,
        banks in 2usize..7,
        interleave in 1usize..4,
        raw in proptest::collection::vec((1usize..8, any::<bool>()), 0..32),
    ) {
        let pattern = legal_schedule(p, raw);
        let prog = SnapHinted { n };
        let limits = RunLimits { max_cycles: 1_000_000 };

        let run = |layout: MemoryLayout| {
            let mut m = SnapshotMachine::with_layout(&prog, p, 1, layout).unwrap();
            let mut adv = ScheduledAdversary::new(pattern.clone());
            let mut trace = TraceRecorder::unbounded();
            let report = m.run_observed(&mut adv, limits, &mut trace).unwrap();
            (
                trace.to_jsonl(),
                report,
                m.memory().to_vec(),
                m.memory().read_count(),
                m.memory().write_count(),
            )
        };
        let flat = run(MemoryLayout::Flat);
        let banked = run(MemoryLayout::Banked { banks, interleave });
        prop_assert_eq!(&flat.0, &banked.0);
        prop_assert_eq!(flat.1.stats, banked.1.stats);
        prop_assert_eq!(flat.1.pattern.events(), banked.1.pattern.events());
        prop_assert_eq!(&flat.2, &banked.2);
        prop_assert_eq!(flat.3, banked.3);
        prop_assert_eq!(flat.4, banked.4);
    }

    /// Checkpoint v3 at a non-default bank count: pause anywhere, JSON
    /// round-trip, restore into a fresh machine with the same layout,
    /// finish — identical observables to the uninterrupted banked run,
    /// including the per-bank counters.
    #[test]
    fn banked_checkpoint_roundtrip_is_bit_identical(
        p in 1usize..10,
        target in 1u64..5,
        banks in 2usize..6,
        interleave in 1usize..3,
        pause_at in 0u64..30,
        raw in proptest::collection::vec((1usize..10, any::<bool>()), 0..40),
    ) {
        let pattern = legal_schedule(p, raw);
        let limits = RunLimits { max_cycles: 1_000_000 };
        let prog = Grind { n: p, target };
        let layout = MemoryLayout::Banked { banks, interleave };

        let mut straight = Machine::with_layout(&prog, p, CycleBudget::PAPER, layout).unwrap();
        let report_s = straight
            .run_observed(&mut ScheduledAdversary::new(pattern.clone()), limits, &mut NoopObserver)
            .unwrap();

        let mut first = Machine::with_layout(&prog, p, CycleBudget::PAPER, layout).unwrap();
        let mut adv1 = ScheduledAdversary::new(pattern.clone());
        let status = first
            .run_with(RunSpec { limits, ..RunSpec::default() }, &mut adv1, &mut NoopObserver, |c| {
                if c >= pause_at { RunControl::Pause } else { RunControl::Continue }
            })
            .unwrap();

        let (report_r, mem_r, counters_r) = match status {
            RunStatus::Completed(report) => {
                (report, first.memory().to_vec(), first.memory().bank_counters())
            }
            RunStatus::Paused { .. } => {
                let ck = first.save_checkpoint(&adv1).unwrap();
                let ck = Checkpoint::from_json(&ck.to_json()).unwrap();
                prop_assert_eq!(ck.layout, layout);
                prop_assert_eq!(ck.bank_reads.len(), layout.bank_count());
                let mut second = Machine::with_layout(&prog, p, CycleBudget::PAPER, layout).unwrap();
                let mut adv2 = ScheduledAdversary::new(pattern.clone());
                second.restore_checkpoint(&ck, &mut adv2).unwrap();
                let report = second.run_observed(&mut adv2, limits, &mut NoopObserver).unwrap();
                (report, second.memory().to_vec(), second.memory().bank_counters())
            }
        };

        prop_assert_eq!(report_s.outcome, report_r.outcome);
        prop_assert_eq!(report_s.stats, report_r.stats);
        prop_assert_eq!(report_s.per_processor, report_r.per_processor);
        prop_assert_eq!(straight.memory().to_vec(), mem_r);
        prop_assert_eq!(straight.memory().bank_counters(), counters_r);
    }
}

/// A checkpoint taken under one layout must not restore into a machine
/// built with another: the per-bank counters would be meaningless.
#[test]
fn cross_layout_restore_is_refused() {
    let prog = Grind { n: 4, target: 3 };
    let layout = MemoryLayout::Banked { banks: 2, interleave: 1 };
    let mut banked = Machine::with_layout(&prog, 4, CycleBudget::PAPER, layout).unwrap();
    let mut adv = ScheduledAdversary::new(FailurePattern::new());
    let status = banked
        .run_with(RunSpec::default(), &mut adv, &mut NoopObserver, |cycle| {
            if cycle >= 1 {
                RunControl::Pause
            } else {
                RunControl::Continue
            }
        })
        .unwrap();
    assert!(matches!(status, RunStatus::Paused { .. }));
    let ck = banked.save_checkpoint(&adv).unwrap();

    let mut flat = Machine::new(&prog, 4, CycleBudget::PAPER).unwrap();
    let mut adv2 = ScheduledAdversary::new(FailurePattern::new());
    let err = flat.restore_checkpoint(&ck, &mut adv2).unwrap_err();
    match err {
        PramError::Checkpoint { detail } => {
            assert!(detail.contains("layout"), "unhelpful error: {detail}")
        }
        other => panic!("expected Checkpoint error, got {other:?}"),
    }
}
