//! Differential properties for the pooled tick engine.
//!
//! The tick engine is an implementation detail of the run loop: for every
//! legal fault schedule, a pooled run (the tentative phase claimed in
//! chunks of at least 64 processors, plus the parallel commit) must
//! produce the byte-identical event stream, stats, failure pattern, memory
//! image and access counters as the sequential run — for the word model
//! (flat and banked layouts) and the snapshot model. The golden fixtures
//! pin the default configuration; these properties pin the engines
//! against each other over random schedules. Every run primes its
//! completion tracker from the 64-cell lane masks, which a debug build
//! checks lane by lane against the per-cell `completion_hint` reference.
//!
//! A debug-built pool has no adaptive inline degrade: every pooled tick
//! crosses the barrier, and the word model's pooled runs take the
//! **parallel commit** (per-worker scan/merge/store with a rank-ordered
//! coordinator merge, folding the outstanding-cell count per partition) on
//! any host. In the default `cargo test` build every pooled run here is
//! therefore a true differential test of that kernel against the
//! sequential slot-by-slot apply. A release build (`cargo test --release`)
//! keeps the degrade, so it checks the engine users run. The snapshot
//! model runs on the same pool.

use proptest::prelude::*;
use rfsp_pram::snapshot::{SnapshotMachine, SnapshotProgram, SnapshotView};
use rfsp_pram::{
    CompletionHint, CycleBudget, ExecutionModel, FailPoint, FailureEvent, FailureKind,
    FailurePattern, Machine, MemoryLayout, Pid, Pram, Program, ReadSet, RunLimits, RunReport,
    ScheduledAdversary, SharedMemory, Step, TraceRecorder, Word, WriteSet,
};

/// Block-assigned Write-All with completion hints — a *tracked* program,
/// so the completion-tracker prime actually classifies cells (untracked
/// programs skip the index entirely). Restarts reset the block cursor,
/// making re-execution under faults idempotent.
struct Blocks {
    n: usize,
    p: usize,
}

impl Blocks {
    fn block(&self, pid: Pid) -> (usize, usize) {
        let chunk = self.n.div_ceil(self.p);
        ((pid.0 * chunk).min(self.n), ((pid.0 + 1) * chunk).min(self.n))
    }
}

impl Program for Blocks {
    type Private = usize;
    fn shared_size(&self) -> usize {
        self.n
    }
    fn on_start(&self, _pid: Pid) -> usize {
        0
    }
    fn plan(&self, _pid: Pid, _st: &usize, _values: &[Word], _reads: &mut ReadSet) {}
    fn execute(&self, pid: Pid, st: &mut usize, _values: &[Word], writes: &mut WriteSet) -> Step {
        // Spin (write-less cycles) once the block is done rather than
        // halting: the pre-committed schedules below may fault any
        // processor at any time, which is only legal while it is active.
        let (lo, hi) = self.block(pid);
        let i = lo + *st;
        if i < hi {
            writes.push(i, 1);
            *st += 1;
        }
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

/// Everything a run makes observable.
struct Observables {
    events: String,
    report: RunReport,
    mem: Vec<Word>,
    reads: u64,
    writes: u64,
}

fn assert_same(a: &Observables, b: &Observables) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.events, &b.events);
    prop_assert_eq!(a.report.stats, b.report.stats);
    prop_assert_eq!(a.report.pattern.events(), b.report.pattern.events());
    prop_assert_eq!(&a.report.per_processor, &b.report.per_processor);
    prop_assert_eq!(&a.mem, &b.mem);
    prop_assert_eq!(a.reads, b.reads);
    prop_assert_eq!(a.writes, b.writes);
    Ok(())
}

/// Run `m` under `pattern`, sequentially or on a pool of `threads`.
fn observe<M: ExecutionModel>(
    mut m: Pram<M>,
    pattern: &FailurePattern,
    threads: Option<usize>,
) -> Observables {
    let limits = RunLimits { max_cycles: 1_000_000 };
    let mut adv = ScheduledAdversary::new(pattern.clone());
    let mut trace = TraceRecorder::unbounded();
    let report = match threads {
        None => m.run_observed(&mut adv, limits, &mut trace).unwrap(),
        Some(t) => m.run_threaded_observed(&mut adv, limits, t, &mut trace).unwrap(),
    };
    Observables {
        events: trace.to_jsonl(),
        report,
        mem: m.memory().to_vec(),
        reads: m.memory().read_count(),
        writes: m.memory().write_count(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Word model: for every legal fault schedule, the pooled engine is
    /// observationally identical to the sequential one — over flat memory
    /// and over a banked layout. `p` reaches past 128 so that the
    /// tentative phase splits into several 64-processor chunks.
    #[test]
    fn word_pooled_is_bit_identical_to_sequential(
        n in 1usize..90,
        p in 1usize..160,
        banks in 2usize..6,
        interleave in 1usize..4,
        threads in 2usize..4,
        raw in proptest::collection::vec((1usize..160, any::<bool>()), 0..48),
    ) {
        let pattern = legal_schedule(p, raw);
        let prog = Blocks { n, p };
        let run = |layout, threads| {
            let m = Machine::with_layout(&prog, p, CycleBudget::PAPER, layout).unwrap();
            observe(m, &pattern, threads)
        };

        let seq = run(MemoryLayout::Flat, None);
        assert_same(&seq, &run(MemoryLayout::Flat, Some(threads)))?;
        assert_same(&seq, &run(MemoryLayout::Banked { banks, interleave }, Some(threads)))?;
    }

    /// Snapshot model: the same property through the unified core's
    /// snapshot path (the tracker prime feeds the index the snapshot
    /// tentative phase selects from every tick), sequentially and on the
    /// pool.
    #[test]
    fn snapshot_pooled_is_bit_identical_to_sequential(
        n in 1usize..40,
        p in 1usize..140,
        threads in 2usize..4,
        raw in proptest::collection::vec((1usize..140, any::<bool>()), 0..32),
    ) {
        let pattern = legal_schedule(p, raw);
        let prog = SnapHinted { n };
        let run = |threads| observe(SnapshotMachine::new(&prog, p, 1).unwrap(), &pattern, threads);
        assert_same(&run(None), &run(Some(threads)))?;
    }
}
