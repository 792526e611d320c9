//! The *snapshot model*: unit-cost whole-memory reads.
//!
//! The paper's lower bound (Theorem 3.1) is proved under — and its matching
//! upper bound (Theorem 3.2) stated in — an unrealistically strong model
//! where a processor "can read and locally process the entire shared memory
//! at unit cost". This module provides that machine: a
//! [`SnapshotMachine`] runs [`SnapshotProgram`]s whose update cycle is
//! *snapshot the whole memory, compute, write a bounded number of cells*.
//!
//! The same [`Adversary`](crate::Adversary) interface drives it (the
//! adversary still sees the pending writes of each processor before
//! deciding), and the same completed-work accounting applies: one completed
//! snapshot cycle = one work unit. Snapshot reads are **uncharged** in the
//! memory's instrumentation counters ([`SharedMemory::read_count`]): the
//! model's whole-memory read has unit cost by assumption, so per-cell read
//! accounting is meaningless here (the word-model
//! [`Machine`](crate::Machine) does charge its reads).
//!
//! [`SnapshotMachine`] is an alias of [`Pram`] over [`SnapModel`], the
//! model this module defines: the free whole-memory read phase and its `S'`
//! charging rule. Everything else — the tentative loop, the run entry
//! [`Pram::run_with`], adversary validation, COMMON
//! write merging, accounting, observers and checkpoints — is the same code
//! the word model runs.
//!
//! Programs that implement [`SnapshotProgram::completion_hint`] get an
//! outstanding-cell count, which replaces the O(N) `is_complete` scan with
//! an O(1) zero test, and an incremental [`UnvisitedIndex`] over the
//! outstanding cells: a bitset with a Fenwick tree over its words,
//! maintained from committed writes in O(log N) per write. The index is
//! exposed to programs through the [`SnapshotView`] (and to adversaries
//! through [`MachineView::unvisited`](crate::MachineView)), so the §3
//! algorithms and adversaries rank and select unvisited cells in O(log N)
//! instead of rescanning memory every tick. Debug builds cross-check the
//! index against the full scan after every tick.

use crate::adversary::ReadRow;
use crate::cycle::{Step, WriteSet, MAX_WRITES};
use crate::error::PramError;
use crate::exec::ExecutionModel;
use crate::machine::Pram;
use crate::memory::{MemoryLayout, SharedMemory};
use crate::mode::WriteMode;
use crate::unvisited::UnvisitedIndex;
use crate::word::{Pid, Word};
use crate::{CompletionHint, Result};

pub mod reference;

/// What a snapshot program sees during one update cycle: the entire shared
/// memory (the model's unit-cost snapshot) plus, when the machine maintains
/// one, the incremental index of outstanding cells.
///
/// The convenience accessors [`unvisited_count_in`](SnapshotView::unvisited_count_in)
/// and [`nth_unvisited_in`](SnapshotView::nth_unvisited_in) answer the §3
/// algorithms' per-cycle question — "how many unvisited cells remain in the
/// region, and which is the k-th?" — in O(log N) with the index, and
/// by an allocation-free O(N) scan without it. The scan defines *unvisited*
/// as the Write-All convention `cell == 0`; an indexed program must
/// classify cells the same way in its
/// [`completion_hint`](SnapshotProgram::completion_hint) (debug builds
/// assert the two paths agree on every call).
#[derive(Clone, Copy, Debug)]
pub struct SnapshotView<'a> {
    mem: &'a SharedMemory,
    unvisited: Option<&'a UnvisitedIndex>,
}

impl<'a> SnapshotView<'a> {
    /// A view with no index: every accessor falls back to scanning `mem`.
    pub fn bare(mem: &'a SharedMemory) -> Self {
        SnapshotView { mem, unvisited: None }
    }

    /// A view backed by an unvisited-cell index (must be consistent with
    /// `mem`).
    pub fn with_index(mem: &'a SharedMemory, index: &'a UnvisitedIndex) -> Self {
        SnapshotView { mem, unvisited: Some(index) }
    }

    /// The whole shared memory (the snapshot itself).
    pub fn mem(&self) -> &'a SharedMemory {
        self.mem
    }

    /// One cell of the snapshot.
    #[inline]
    pub fn peek(&self, addr: usize) -> Word {
        self.mem.peek(addr)
    }

    /// Number of shared cells.
    pub fn size(&self) -> usize {
        self.mem.size()
    }

    /// The incremental unvisited-cell index, when the machine maintains one
    /// (i.e. the program implements
    /// [`completion_hint`](SnapshotProgram::completion_hint)).
    pub fn unvisited(&self) -> Option<&'a UnvisitedIndex> {
        self.unvisited
    }

    /// Number of unvisited (`== 0`) cells in `region`: O(log N) with the
    /// index, O(region) scan without.
    pub fn unvisited_count_in(&self, region: crate::Region) -> usize {
        match self.unvisited {
            Some(idx) => {
                let count = idx.count_in(region);
                debug_assert_eq!(
                    count,
                    self.scan_count(region),
                    "unvisited index count diverged from the full scan"
                );
                count
            }
            None => self.scan_count(region),
        }
    }

    /// Address of the `k`-th unvisited (`== 0`) cell of `region` in
    /// position order, if it exists: O(log N) with the index (a select
    /// offset by the rank of the region's base), O(region) scan without.
    pub fn nth_unvisited_in(&self, region: crate::Region, k: usize) -> Option<usize> {
        match self.unvisited {
            Some(idx) => {
                let first = idx.rank(region.base());
                let count = idx.rank(region.base() + region.len()) - first;
                let got = (k < count).then(|| idx.select(first + k));
                debug_assert_eq!(
                    got,
                    self.scan_nth(region, k),
                    "unvisited index select diverged from the full scan"
                );
                got
            }
            None => self.scan_nth(region, k),
        }
    }

    // The scan fallbacks run inside the tentative phase, so they iterate
    // the memory's bank-aligned chunks ([`SharedMemory::chunks`]): each
    // chunk is one contiguous slice of its bank, avoiding a per-address
    // bank mapping on banked layouts (and a per-address bounds check on
    // flat ones).

    fn scan_count(&self, region: crate::Region) -> usize {
        let mut count = 0;
        for (_, cells) in self.region_chunks(region) {
            count += cells.iter().filter(|&&v| v == 0).count();
        }
        count
    }

    fn scan_nth(&self, region: crate::Region, mut k: usize) -> Option<usize> {
        for (base, cells) in self.region_chunks(region) {
            for (off, &v) in cells.iter().enumerate() {
                if v == 0 {
                    if k == 0 {
                        return Some(base + off);
                    }
                    k -= 1;
                }
            }
        }
        None
    }

    /// The memory's bank-aligned chunks clipped to `region`, in ascending
    /// address order.
    fn region_chunks(
        &self,
        region: crate::Region,
    ) -> impl Iterator<Item = (usize, &'a [Word])> + 'a {
        let (start, end) = (region.base(), region.base() + region.len());
        self.mem
            .chunks()
            .skip_while(move |&(base, cells)| base + cells.len() <= start)
            .take_while(move |&(base, _)| base < end)
            .map(move |(base, cells)| {
                let lo = start.max(base) - base;
                let hi = (end.min(base + cells.len())) - base;
                (base + lo, &cells[lo..hi])
            })
    }
}

/// An algorithm for the snapshot model: each cycle it sees the entire
/// shared memory and emits a bounded number of writes. `Sync`, with a
/// `Clone + Send` private state, like [`Program`](crate::Program).
pub trait SnapshotProgram: Sync {
    /// Per-processor private memory; lost on failure.
    type Private: Clone + Send;

    /// Number of shared memory cells.
    fn shared_size(&self) -> usize;

    /// One-time input initialization.
    fn init_memory(&self, _mem: &mut SharedMemory) {}

    /// Fresh private state (start and restart).
    fn on_start(&self, pid: Pid) -> Self::Private;

    /// One snapshot update cycle: read everything, compute, write.
    fn execute(
        &self,
        pid: Pid,
        state: &mut Self::Private,
        view: &SnapshotView<'_>,
        writes: &mut WriteSet,
    ) -> Step;

    /// Global completion predicate (uncharged).
    fn is_complete(&self, mem: &SharedMemory) -> bool;

    /// Optional per-cell decomposition of
    /// [`is_complete`](SnapshotProgram::is_complete), with the same
    /// contract as [`Program::completion_hint`](crate::Program::completion_hint)
    /// (purity, value-independent tracking, equivalence with
    /// `is_complete`). A program that opts in gets the O(1) completion test
    /// *and* the incremental [`UnvisitedIndex`] over its
    /// [`Outstanding`](CompletionHint::Outstanding) cells, exposed through
    /// [`SnapshotView`] and [`MachineView::unvisited`](crate::MachineView).
    fn completion_hint(&self, _addr: usize, _value: Word) -> CompletionHint {
        CompletionHint::Untracked
    }

    /// Batched [`completion_hint`](SnapshotProgram::completion_hint) over
    /// one lane of at most 64 contiguous cells — same contract and same
    /// default as [`Program::completion_masks`](crate::Program::completion_masks):
    /// returns `(outstanding, tracked)` bit masks where bit `j` describes
    /// cell `base + j`, and must agree cell-wise with `completion_hint`.
    fn completion_masks(&self, base: usize, values: &[Word]) -> (u64, u64) {
        crate::fold_completion_masks(base, values, |addr, value| self.completion_hint(addr, value))
    }
}

/// The snapshot model's [`ExecutionModel`]: a free whole-memory read
/// followed by a budgeted write phase, with `S'` charging only committed
/// writes (the snapshot and the local computation are free until the cycle
/// completes).
#[derive(Debug)]
pub struct SnapModel<'p, P: SnapshotProgram> {
    program: &'p P,
    write_budget: usize,
}

impl<'p, P: SnapshotProgram> ExecutionModel for SnapModel<'p, P> {
    type Private = P::Private;

    const MODEL: &'static str = "snapshot";
    // The §3 programs and adversaries number the unvisited cells by
    // position; keep the index and expose it through `SnapshotView` and
    // `MachineView::unvisited`.
    const KEEPS_INDEX: bool = true;

    fn on_start(&self, pid: Pid) -> P::Private {
        self.program.on_start(pid)
    }

    fn is_complete(&self, mem: &SharedMemory) -> bool {
        self.program.is_complete(mem)
    }

    fn completion_hint(&self, addr: usize, value: Word) -> CompletionHint {
        self.program.completion_hint(addr, value)
    }

    fn completion_masks(&self, base: usize, values: &[Word]) -> (u64, u64) {
        self.program.completion_masks(base, values)
    }

    /// The processor reads all of the tick-start memory at once, through a
    /// [`SnapshotView`], and executes; it stores no reads.
    /// `inline(always)` for the same reason as the word model's `play`.
    #[inline(always)]
    fn play(
        &self,
        mem: &SharedMemory,
        index: Option<&UnvisitedIndex>,
        _cycle: u64,
        pid: Pid,
        state: &mut P::Private,
        _reads: &mut ReadRow<'_>,
        writes: &mut WriteSet,
    ) -> Result<Step> {
        let view = SnapshotView { mem, unvisited: index };
        Ok(self.program.execute(pid, state, &view, writes))
    }

    fn partial_instructions(_reads: usize, committed_writes: usize) -> u64 {
        // The whole-memory read and the local computation are free by
        // assumption; an interrupted cycle is charged only its committed
        // write prefix.
        committed_writes as u64
    }

    fn checkpoint_budget(&self) -> (usize, usize) {
        // No read budget in this model.
        (0, self.write_budget)
    }
}

/// A restartable fail-stop PRAM running one [`SnapshotProgram`] under the
/// snapshot model: [`Machine`](crate::Machine) with the read phase
/// replaced by a free whole-memory snapshot.
pub type SnapshotMachine<'p, P> = Pram<SnapModel<'p, P>>;

impl<'p, P: SnapshotProgram> Pram<SnapModel<'p, P>> {
    /// Build a snapshot machine with `processors` processors and the given
    /// per-cycle write budget (the paper's exposition uses 2; Theorem 3.2's
    /// algorithm needs only 1).
    ///
    /// # Errors
    ///
    /// [`PramError::InvalidConfig`] if `processors == 0` or `write_budget`
    /// is 0 or exceeds the inline write capacity ([`MAX_WRITES`]).
    pub fn new(program: &'p P, processors: usize, write_budget: usize) -> Result<Self> {
        Self::with_layout(program, processors, write_budget, MemoryLayout::Flat)
    }

    /// [`SnapshotMachine::new`] with an explicit [`MemoryLayout`] — the
    /// snapshot counterpart of
    /// [`Machine::with_layout`](crate::Machine::with_layout); the layout
    /// changes only where cells physically live and which bank counters
    /// writes charge (snapshot reads stay uncharged).
    ///
    /// # Errors
    ///
    /// As [`SnapshotMachine::new`], plus [`PramError::InvalidConfig`] for
    /// invalid layout parameters.
    pub fn with_layout(
        program: &'p P,
        processors: usize,
        write_budget: usize,
        layout: MemoryLayout,
    ) -> Result<Self> {
        if write_budget == 0 || write_budget > MAX_WRITES {
            return Err(PramError::InvalidConfig {
                detail: format!("write budget must be between 1 and {MAX_WRITES}"),
            });
        }
        let model = SnapModel { program, write_budget };
        // The §3 snapshot algorithms are COMMON-legal; the machine always
        // checks COMMON semantics.
        Pram::assemble(model, processors, SNAPSHOT_WRITE_MODE, write_budget, || {
            let mut mem = SharedMemory::with_layout(program.shared_size(), layout)?;
            program.init_memory(&mut mem);
            Ok(mem)
        })
    }
}

/// A [`WriteMode`] re-export note: the snapshot machine always checks COMMON
/// semantics, which is what the §3 algorithms require.
pub const SNAPSHOT_WRITE_MODE: WriteMode = WriteMode::Common;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::RunOutcome;
    use crate::adversary::NoFailures;
    use crate::word::Word;

    /// Trivial snapshot Write-All: each processor writes the first unwritten
    /// cell it is responsible for.
    struct Direct {
        n: usize,
    }

    impl SnapshotProgram for Direct {
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
            // Snapshot power: scan everything, pick the pid-th unvisited.
            let unvisited: Vec<usize> = (0..self.n).filter(|&i| view.peek(i) == 0).collect();
            if unvisited.is_empty() {
                return Step::Halt;
            }
            let k = pid.0 % unvisited.len();
            writes.push(unvisited[k], 1);
            Step::Continue
        }
        fn is_complete(&self, mem: &SharedMemory) -> bool {
            (0..self.n).all(|i| mem.peek(i) == 1)
        }
    }

    /// `Direct` with a completion hint: same behaviour, but the machine
    /// maintains the unvisited index (and debug-asserts it against the full
    /// scan every tick).
    struct Hinted {
        n: usize,
    }

    impl SnapshotProgram for Hinted {
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

    #[test]
    fn snapshot_write_all_completes() {
        let prog = Direct { n: 16 };
        let mut m = SnapshotMachine::new(&prog, 16, 1).unwrap();
        let report = m.run(&mut NoFailures).unwrap();
        assert_eq!(report.outcome, RunOutcome::Completed);
        assert!(m.memory().as_slice().iter().all(|&v| v == 1));
        // With P = N and full snapshots, one cycle suffices.
        assert_eq!(report.stats.parallel_time, 1);
    }

    #[test]
    fn snapshot_accounting_counts_cycles() {
        let prog = Direct { n: 8 };
        let mut m = SnapshotMachine::new(&prog, 2, 1).unwrap();
        let report = m.run(&mut NoFailures).unwrap();
        // Two processors write disjoint cells each cycle (pid % len picks
        // positions 0 and 1), so 4 cycles of 2 completions each.
        assert_eq!(report.stats.completed_cycles, 8);
        assert_eq!(report.stats.parallel_time, 4);
        let _ = report.stats.overhead_ratio(8 as Word);
    }

    #[test]
    fn indexed_run_matches_scanning_run() {
        let scan = Direct { n: 24 };
        let mut m1 = SnapshotMachine::new(&scan, 5, 1).unwrap();
        let r1 = m1.run(&mut NoFailures).unwrap();
        let hinted = Hinted { n: 24 };
        let mut m2 = SnapshotMachine::new(&hinted, 5, 1).unwrap();
        let r2 = m2.run(&mut NoFailures).unwrap();
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(r1.per_processor, r2.per_processor);
        assert_eq!(m1.memory().as_slice(), m2.memory().as_slice());
    }

    #[test]
    fn completed_report_moves_pattern_out() {
        let prog = Direct { n: 4 };
        let mut m = SnapshotMachine::new(&prog, 4, 1).unwrap();
        let report = m.run(&mut NoFailures).unwrap();
        assert!(report.pattern.is_empty());
        // A continuation run on the same machine starts a fresh pattern.
        assert!(m.core.pattern.is_empty());
    }

    #[test]
    fn snapshot_reads_are_uncharged() {
        let prog = Hinted { n: 8 };
        let mut m = SnapshotMachine::new(&prog, 4, 1).unwrap();
        m.run(&mut NoFailures).unwrap();
        // Whole-memory snapshots have unit cost by assumption; the per-cell
        // read counter stays untouched (the word machine does charge).
        assert_eq!(m.memory().read_count(), 0);
        assert_eq!(m.memory().write_count(), 8);
    }

    /// Fails P1 before its writes in tick 0 and restarts it for tick 2.
    struct OneHiccup;
    impl crate::Adversary for OneHiccup {
        fn decide(&mut self, view: &crate::MachineView<'_>) -> crate::Decisions {
            let mut d = crate::Decisions::none();
            if view.cycle == 0 {
                d.fail(Pid(1), crate::FailPoint::BeforeWrites);
            }
            if view.cycle == 1 {
                d.restart(Pid(1));
            }
            d
        }
    }

    /// Both rows of `run_with` run the snapshot model too: with and without
    /// panic isolation, a run reproduces the default row's event stream,
    /// stats, per-processor work and memory.
    #[test]
    fn every_run_spec_matches_sequential() {
        use crate::machine::RunSpec;
        use crate::{RunControl, RunLimits, TraceRecorder};

        let prog = Hinted { n: 24 };
        let run = |spec: RunSpec| {
            let mut m = SnapshotMachine::new(&prog, 5, 1).unwrap();
            let mut trace = TraceRecorder::unbounded();
            let status = m.run_with(spec, &mut OneHiccup, &mut trace, |_| RunControl::Continue);
            let report = crate::exec::completed(status)?;
            Ok::<_, PramError>((trace.to_jsonl(), report, m.memory().to_vec()))
        };
        let (trace, report, mem) = run(RunSpec::default()).unwrap();
        assert!(!report.pattern.is_empty(), "the adversary failed and restarted P1");
        for catch_panics in [false, true] {
            let spec = RunSpec { catch_panics, limits: RunLimits::default() };
            let (row_trace, row_report, row_mem) = run(spec).unwrap();
            assert_eq!(row_trace, trace, "{spec:?}: event stream");
            assert_eq!(row_report.stats, report.stats, "{spec:?}: stats");
            assert_eq!(row_report.per_processor, report.per_processor, "{spec:?}: work");
            assert_eq!(row_mem, mem, "{spec:?}: memory");
        }
    }

    #[test]
    fn zero_write_budget_rejected() {
        let prog = Direct { n: 2 };
        assert!(matches!(SnapshotMachine::new(&prog, 1, 0), Err(PramError::InvalidConfig { .. })));
    }

    /// Each processor writes `writes` cells of its own block per cycle.
    struct Spray {
        writes: usize,
    }

    impl SnapshotProgram for Spray {
        type Private = ();
        fn shared_size(&self) -> usize {
            8 * MAX_WRITES
        }
        fn on_start(&self, _pid: Pid) {}
        fn execute(
            &self,
            pid: Pid,
            _st: &mut (),
            _view: &SnapshotView<'_>,
            writes: &mut WriteSet,
        ) -> Step {
            for k in 0..self.writes {
                writes.push(pid.0 * MAX_WRITES + k % MAX_WRITES, 1);
            }
            Step::Continue
        }
        fn is_complete(&self, _mem: &SharedMemory) -> bool {
            false
        }
    }

    /// A cycle of `W + 1` writes under a write budget of `W` is refused
    /// with the count it used, with and without panic isolation; the
    /// processor's row holds exactly `W` writes.
    #[test]
    fn write_budget_violation_is_reported() {
        use crate::error::BudgetKind;
        use crate::machine::RunSpec;
        use crate::{RunControl, RunLimits};

        for w in [1, 2, MAX_WRITES] {
            let prog = Spray { writes: w + 1 };
            for catch_panics in [false, true] {
                let mut m = SnapshotMachine::new(&prog, 8, w).unwrap();
                let spec = RunSpec { catch_panics, limits: RunLimits::default() };
                let err = m
                    .run_with(spec, &mut NoFailures, &mut crate::NoopObserver, |_| {
                        RunControl::Continue
                    })
                    .unwrap_err();
                assert!(
                    matches!(err, PramError::BudgetExceeded { kind: BudgetKind::Writes, used, limit, .. }
                        if used == w + 1 && limit == w),
                    "budget {w}, {spec:?}: {err:?}"
                );
            }
        }
    }

    /// A snapshot machine's tentative row is one head and one write: 20
    /// bytes per processor at Theorem 3.2's write budget of 1.
    #[test]
    fn tentative_rows_follow_the_budget() {
        let prog = Direct { n: 64 };
        let m = SnapshotMachine::new(&prog, 64, 1).unwrap();
        assert_eq!(m.core.tentative.bytes_per_processor(), 20);
    }

    /// A write budget wider than the inline write capacity is refused: a
    /// cycle's writes pass through a `WriteSet`, which stores at most
    /// `MAX_WRITES` of them.
    #[test]
    fn write_budget_beyond_the_inline_capacity_rejected() {
        let prog = Direct { n: 2 };
        assert!(SnapshotMachine::new(&prog, 1, MAX_WRITES).is_ok());
        let refused = SnapshotMachine::new(&prog, 1, MAX_WRITES + 1);
        assert!(matches!(refused, Err(PramError::InvalidConfig { .. })));
    }
}
