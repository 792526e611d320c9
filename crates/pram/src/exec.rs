//! The model-generic execution core shared by both machine models.
//!
//! The paper's two machines — the word-model CRCW PRAM of §2 (Theorems
//! 4.3/4.7) and the unit-cost-snapshot machine of §3 — share their entire
//! synchronous phase structure: plan tentative update cycles for every
//! alive processor, present the machine to the on-line adversary, validate
//! its stop/restart decisions, merge the surviving write prefixes slot by
//! slot under CRCW semantics, charge completed work, record the failure
//! pattern, and apply restarts at the next tick boundary. [`Core`]
//! implements that structure once; a model plugs in the parts that differ
//! through the [`ExecutionModel`] trait (how one processor plays its
//! cycle, how interrupted work is charged, what its checkpoints look like).
//!
//! Every model therefore gets the same machinery:
//!
//! * the sequential and pooled tentative loops, which skip processors that
//!   are not alive, let the model play each alive processor's cycle, and
//!   check its writes against the write budget and the memory;
//! * the run loop with [`RunLimits`], completion detection, and the
//!   [`RunControl`] pause hook for checkpointed long runs;
//! * [`Observer`] event emission — one stream, so word-model and
//!   snapshot-model runs trace identically;
//! * adversary-decision validation (the crate's `decisions` module);
//! * the incremental completion tracker: an outstanding-cell count primed
//!   lane by lane from [`ExecutionModel::completion_masks`] (debug builds
//!   check each lane against the per-cell `completion_hint`) and folded on
//!   every committed write, replacing the O(N) `is_complete` scan with an
//!   O(1) zero test — plus, for a model that keeps one
//!   ([`ExecutionModel::KEEPS_INDEX`]), an [`UnvisitedIndex`] of those
//!   cells folded the same way;
//! * versioned checkpoint save/restore tagged with the model's name
//!   ([`ExecutionModel::MODEL`]), so a word checkpoint cannot be restored
//!   into a snapshot machine or vice versa.
//!
//! The core stays **allocation-free in steady state**: all per-tick buffers
//! (the tentative-cycle table, fate records, slot merges, failure scratch) live in the
//! [`Core`] and are reused; tracker maintenance is O(1) per committed write
//! for the count and O(log N) for the index. A run backend supplies one
//! hook to the run loop, how the tentative phase executes: the sequential
//! backends play it inline, the pooled ones farm it out to a persistent
//! worker pool. Every backend then commits through the one sequential
//! `Core::apply` on the calling thread, so the event stream and all
//! accounting are byte-identical across backends *by construction*
//! (pinned by `tests/golden_equivalence.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use serde::{Deserialize, Serialize};

use crate::accounting::{RunOutcome, RunReport, WorkStats};
use crate::adversary::{
    Adversary, Cycles, Decisions, MachineView, ProcMeta, ProcStatus, ReadRow, RowMut,
};
use crate::checkpoint::{Checkpoint, ProcCheckpoint, CHECKPOINT_VERSION};
use crate::cycle::{Step, ValueSet, WriteSet};
use crate::decisions::{resolve, Fate, FateKind};
use crate::error::{BudgetKind, PramError};
use crate::failure::{FailureEvent, FailureKind, FailurePattern};
use crate::machine::Pram;
use crate::memory::SharedMemory;
use crate::mode::WriteMode;
use crate::pool::{panic_detail, SendPtr, TickPool};
use crate::trace::{Observer, TraceEvent};
use crate::unvisited::{UnvisitedIndex, LANE_WIDTH};
use crate::word::{Pid, Word};
use crate::{CompletionHint, Result};

/// Safety limits for a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunLimits {
    /// Abort with [`PramError::CycleLimit`] after this many ticks. Used by
    /// experiments to demonstrate non-terminating executions (e.g.
    /// algorithm W under restarts).
    pub max_cycles: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits { max_cycles: 100_000_000 }
    }
}

/// Verdict of a run's control callback (see
/// [`Pram::run_with`](crate::Pram::run_with)), consulted once per
/// tick at the tick boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunControl {
    /// Execute the next tick.
    Continue,
    /// Return [`RunStatus::Paused`] without executing the tick. The machine
    /// is left exactly at the tick boundary — checkpointable via
    /// `save_checkpoint` and resumable by calling a run method again.
    Pause,
}

/// How a run ended.
#[derive(Debug)]
pub enum RunStatus {
    /// The program completed; the report is the same one an uncontrolled
    /// run would have produced.
    Completed(RunReport),
    /// The control callback paused the run before tick `cycle` executed.
    Paused {
        /// The next tick to execute.
        cycle: u64,
    },
}

/// Unwrap the status of a run whose control callback never pauses.
pub(crate) fn completed(status: Result<RunStatus>) -> Result<RunReport> {
    match status? {
        RunStatus::Completed(report) => Ok(report),
        RunStatus::Paused { .. } => unreachable!("the control callback never pauses"),
    }
}

/// What the pooled engine does when a worker thread catches a panic while
/// playing a processor's tentative cycle (see
/// [`RunSpec::panic`](crate::RunSpec::panic)).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PanicPolicy {
    /// Abort the run with [`PramError::WorkerPanic`], leaving the machine
    /// at the failed tick's boundary with all pre-tick state restored.
    #[default]
    Surface,
    /// Restore the pre-tick state, replay the tick on the sequential
    /// engine, and finish the rest of the run sequentially. The run's
    /// results are identical to an undisturbed run (the tick had committed
    /// nothing when the panic fired); only wall-clock parallelism is lost.
    FallbackSequential,
}

/// Processor bookkeeping in structure-of-arrays form.
///
/// Each of the core's hot loops touches exactly one of these arrays — the
/// adversary view reads statuses, the tentative phase mutates private
/// states, charging bumps completed counts — so keeping them in separate
/// dense vectors makes every scan contiguous instead of striding over a
/// padded per-processor struct (and lets the pooled backend hand workers a
/// raw pointer into the states alone while statuses stay a shared slice).
#[derive(Clone, Debug)]
pub(crate) struct ProcSoA<S> {
    /// Liveness, indexed by PID.
    pub(crate) status: Vec<ProcStatus>,
    /// Private memory, indexed by PID; `None` while failed.
    pub(crate) state: Vec<Option<S>>,
    /// Completed update cycles charged, indexed by PID.
    pub(crate) completed: Vec<u64>,
}

impl<S> ProcSoA<S> {
    pub(crate) fn len(&self) -> usize {
        self.status.len()
    }
}

/// The parts of a machine model the shared [`Core`] cannot know: how one
/// processor plays its update cycle, how interrupted work is charged, and
/// how the model identifies itself in checkpoints.
///
/// The word model ([`WordModel`](crate::machine::WordModel)) and the
/// snapshot model ([`SnapModel`](crate::snapshot::SnapModel)) implement
/// it; [`Pram`] pairs a model value with a [`Core`].
pub trait ExecutionModel: Sync {
    /// Per-processor private memory; lost on failure.
    type Private: Clone + Send;

    /// The model's name, written into checkpoints; restore refuses a
    /// checkpoint taken under a different model.
    const MODEL: &'static str;

    /// Whether the core keeps an [`UnvisitedIndex`] of the outstanding
    /// cells beside their count, and exposes it through
    /// [`MachineView::unvisited`]. The snapshot model does: its §3 programs
    /// and adversaries number the unvisited cells by position. The word
    /// model only asks whether the count is zero, so it keeps no index and
    /// its adversary view stays `None`.
    const KEEPS_INDEX: bool;

    /// Fresh private state for processor `pid` (start and restart).
    fn on_start(&self, pid: Pid) -> Self::Private;

    /// Global completion predicate (uncharged).
    fn is_complete(&self, mem: &SharedMemory) -> bool;

    /// Per-cell completion decomposition; same contract as
    /// [`Program::completion_hint`](crate::Program::completion_hint).
    fn completion_hint(&self, addr: usize, value: Word) -> CompletionHint;

    /// Batched [`completion_hint`](ExecutionModel::completion_hint) over
    /// one contiguous lane of at most 64 cells starting at `base`: returns
    /// `(outstanding, tracked)` bit masks where bit `j` describes cell
    /// `base + j`. Must agree cell-wise with `completion_hint` — debug
    /// builds assert it on every lane the tracker primes. Models forward
    /// to their program, so a program can supply a branch-free classifier
    /// the compiler autovectorizes.
    fn completion_masks(&self, base: usize, values: &[Word]) -> (u64, u64) {
        crate::fold_completion_masks(base, values, |addr, value| self.completion_hint(addr, value))
    }

    /// Play alive processor `pid`'s update cycle of tick `cycle` against
    /// the tick-start memory `mem`: store its reads in `reads` (the
    /// processor's row of the tick's [`Cycles`] table, empty on entry and
    /// exactly as wide as the read budget), push its writes into `writes`
    /// (a scratch, cleared on entry) and advance `state` in place. `index`
    /// is the unvisited-cell index when the model keeps one and the
    /// program is tracked. The caller checks the writes against the write
    /// budget and the memory bounds, copies them into the processor's row,
    /// and records whether the step halts.
    ///
    /// # Errors
    ///
    /// See [`PramError`] — a read-budget or read-address violation.
    #[allow(clippy::too_many_arguments)] // one cycle's inputs and outputs
    fn play(
        &self,
        mem: &SharedMemory,
        index: Option<&UnvisitedIndex>,
        cycle: u64,
        pid: Pid,
        state: &mut Self::Private,
        reads: &mut ReadRow<'_>,
        writes: &mut WriteSet,
    ) -> Result<Step>;

    /// `S'` charge for a cycle of `reads` reads interrupted after them with
    /// `committed_writes` of its writes committed. The word model charges
    /// `reads + 1 + committed`; the snapshot model's whole-memory read is
    /// free and its unit of local computation is only charged on
    /// completion, so it charges `committed` alone.
    fn partial_instructions(reads: usize, committed_writes: usize) -> u64;

    /// `(reads, writes)` budget header for checkpoints. The snapshot model
    /// has no read budget and reports `(0, write_budget)`.
    fn checkpoint_budget(&self) -> (usize, usize);
}

/// The per-tick hook a run backend supplies to [`Core::run_loop`]: how
/// the tentative phase executes. The commit is not a backend's to choose:
/// [`Core::tick`] applies every tick's decisions through the sequential
/// [`Core::apply`]. Every backend must be observationally identical to
/// [`SeqBackend`] — event streams, stats, memory, and the completion
/// tracker are pinned byte-identical by the golden and differential tests.
pub(crate) trait Backend<M: ExecutionModel> {
    /// Phase 1: fill every processor's row of `core.tentative`.
    ///
    /// # Errors
    ///
    /// See [`PramError`] — typically budget or bounds violations.
    fn tentative(&mut self, model: &M, core: &mut Core<M::Private>) -> Result<()>;
}

/// The per-thread buffers a tentative loop plays cycles through: the read
/// values and the writes of the cycle in play, reused for every processor
/// the thread plays.
#[derive(Default)]
struct Scratch {
    values: ValueSet,
    writes: WriteSet,
}

/// Play one processor's tentative cycle into its row: no cycle unless the
/// processor is alive; otherwise the model plays the cycle through
/// `scratch` (no allocation, see [`crate::cycle`]) and stores its reads in
/// the row, and its writes are checked against the write budget and the
/// memory before they are copied into the row, which is exactly as wide as
/// that budget. The private state advances **in place**: the commit either
/// adopts it (cycle completed) or discards it (a stopped processor loses
/// its private memory), so the pre-cycle state is never needed.
///
/// `inline(always)`: with plain `#[inline]` the compiler leaves it out of
/// line, which puts a call per processor on the hottest path of a tick.
#[allow(clippy::too_many_arguments)] // the split-borrowed SoA fields arrive separately by design
#[inline(always)]
fn play_slot<M: ExecutionModel>(
    model: &M,
    mem: &SharedMemory,
    index: Option<&UnvisitedIndex>,
    write_slots: usize,
    cycle: u64,
    pid: Pid,
    status: ProcStatus,
    state: &mut Option<M::Private>,
    mut row: RowMut<'_>,
    scratch: &mut Scratch,
) -> Result<()> {
    if status != ProcStatus::Alive {
        row.clear();
        return Ok(());
    }
    let state = state.as_mut().expect("alive processor must have private state");
    let Scratch { values, writes } = scratch;
    values.clear();
    writes.clear();
    let step = model.play(mem, index, cycle, pid, state, &mut row.reads(values), writes)?;
    if writes.len() > write_slots {
        return Err(PramError::BudgetExceeded {
            pid,
            cycle,
            kind: BudgetKind::Writes,
            used: writes.len(),
            limit: write_slots,
        });
    }
    for &(addr, _) in writes.writes() {
        if addr >= mem.size() {
            return Err(PramError::AddressOutOfBounds { addr, size: mem.size() });
        }
    }
    row.fill(values.len(), writes.writes(), matches!(step, Step::Halt));
    Ok(())
}

/// Run one processor's tentative cycle `f`, under `catch_unwind` when
/// `CATCH` is set so a panic in program code surfaces as
/// [`PramError::WorkerPanic`] naming `pid`. With `CATCH == false` this
/// compiles to the bare call.
#[inline(always)]
fn guarded<const CATCH: bool>(pid: Pid, f: impl FnOnce() -> Result<()>) -> Result<()> {
    if !CATCH {
        return f();
    }
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(PramError::WorkerPanic { pid: Some(pid), detail: panic_detail(payload.as_ref()) })
    })
}

/// The sequential tentative phase: the calling thread plays every
/// processor's cycle in PID order ([`guarded`] by `CATCH`).
fn tentative_seq<M: ExecutionModel, const CATCH: bool>(
    model: &M,
    core: &mut Core<M::Private>,
) -> Result<()> {
    let (mem, cycle, write_slots) = (&core.mem, core.cycle, core.write_slots);
    let index = if M::KEEPS_INDEX && core.tracked { Some(&core.unvisited) } else { None };
    let statuses = &core.procs.status;
    let scratch = &mut Scratch::default();
    for (i, state) in core.procs.state.iter_mut().enumerate() {
        let row = core.tentative.row_mut(i);
        guarded::<CATCH>(Pid(i), || {
            play_slot(
                model,
                mem,
                index,
                write_slots,
                cycle,
                Pid(i),
                statuses[i],
                state,
                row,
                scratch,
            )
        })?;
    }
    Ok(())
}

/// The fewest processors one pool worker claims at a time in the pooled
/// tentative phase, so a small machine on many threads does not degrade
/// into per-processor claims.
const TENTATIVE_MIN_CHUNK: usize = 64;

/// The pooled tentative phase: pool workers claim chunks of the processor
/// range from the shared cursor and fill the corresponding rows of the
/// tentative table, each chunk through its own [`Scratch`] ([`guarded`] by
/// `CATCH`). With the structure-of-arrays processor state only the private
/// states and the rows need raw pointers: statuses are read-only during
/// the tentative phase and are shared as a plain slice.
fn tentative_pooled<M: ExecutionModel, const CATCH: bool>(
    model: &M,
    core: &mut Core<M::Private>,
    pool: &TickPool,
) -> Result<()> {
    let p = core.procs.len();
    let (mem, cycle, write_slots) = (&core.mem, core.cycle, core.write_slots);
    let index = if M::KEEPS_INDEX && core.tracked { Some(&core.unvisited) } else { None };
    let statuses: &[ProcStatus] = &core.procs.status;
    let states = SendPtr::new(core.procs.state.as_mut_ptr());
    let rows = core.tentative.rows_ptr();
    pool.run_tick(p, TENTATIVE_MIN_CHUNK, &move |start: usize, end: usize| {
        let scratch = &mut Scratch::default();
        #[allow(clippy::needless_range_loop)] // `i` also offsets the raw SoA pointers
        for i in start..end {
            // SAFETY: the pool's cursor hands out disjoint [start, end)
            // chunks within 0..p, so state and row `i` are touched by
            // exactly one worker this tick; `run_tick` blocks until every
            // worker is done, so the pointers outlive all dereferences.
            let state = unsafe { &mut *states.ptr().add(i) };
            let row = unsafe { rows.row(i) };
            guarded::<CATCH>(Pid(i), || {
                play_slot(
                    model,
                    mem,
                    index,
                    write_slots,
                    cycle,
                    Pid(i),
                    statuses[i],
                    state,
                    row,
                    scratch,
                )
            })?;
        }
        Ok(())
    })
}

/// The sequential backend: every phase plays inline on the calling thread.
/// With `CATCH` set every processor's cycle runs under `catch_unwind`; that
/// variant serves sequential runs with a panic policy and is the degraded
/// mode of [`IsolatedBackend`].
pub(crate) struct SeqBackend<const CATCH: bool>;

impl<M: ExecutionModel, const CATCH: bool> Backend<M> for SeqBackend<CATCH> {
    fn tentative(&mut self, model: &M, core: &mut Core<M::Private>) -> Result<()> {
        tentative_seq::<M, CATCH>(model, core)
    }
}

/// The pooled backend: the tentative phase runs on the worker pool.
pub(crate) struct PooledBackend<'a> {
    pub(crate) pool: &'a TickPool,
}

impl<M: ExecutionModel> Backend<M> for PooledBackend<'_> {
    fn tentative(&mut self, model: &M, core: &mut Core<M::Private>) -> Result<()> {
        tentative_pooled::<M, false>(model, core, self.pool)
    }
}

/// The pooled backend with per-processor panic isolation: each tick backs
/// up every private state before the pooled tentative phase, restores them
/// if a worker catches a panic, and then either surfaces the error or
/// degrades permanently to the sequential caught engine per the
/// [`PanicPolicy`]. The commit is not covered: it runs on the calling
/// thread, like every backend's, and a panic there unwinds to the caller.
pub(crate) struct IsolatedBackend<'a, S> {
    pub(crate) pool: &'a TickPool,
    pub(crate) policy: PanicPolicy,
    /// One slot per processor.
    pub(crate) backup: Vec<Option<S>>,
    pub(crate) degraded: bool,
}

impl<M: ExecutionModel> Backend<M> for IsolatedBackend<'_, M::Private> {
    fn tentative(&mut self, model: &M, core: &mut Core<M::Private>) -> Result<()> {
        if self.degraded {
            return tentative_seq::<M, true>(model, core);
        }
        // Snapshot every private state: the tentative phase advances
        // states in place, so recovering from a panic mid-phase needs the
        // pre-tick originals.
        for (saved, state) in self.backup.iter_mut().zip(core.procs.state.iter()) {
            saved.clone_from(state);
        }
        match tentative_pooled::<M, true>(model, core, self.pool) {
            Err(PramError::WorkerPanic { pid, detail }) => {
                for (state, saved) in core.procs.state.iter_mut().zip(self.backup.iter()) {
                    state.clone_from(saved);
                }
                match self.policy {
                    PanicPolicy::Surface => Err(PramError::WorkerPanic { pid, detail }),
                    PanicPolicy::FallbackSequential => {
                        self.degraded = true;
                        // Replay the whole tick sequentially from the
                        // restored pre-tick states — nothing had committed,
                        // so the replay is identical to a clean tick.
                        tentative_seq::<M, true>(model, core)
                    }
                }
            }
            other => other,
        }
    }
}

/// How far ahead of its stores the commit merge prefetches cells, in
/// entries of the sorted write slot.
const PREFETCH_DISTANCE: usize = 16;

/// What one tick adds to the run's [`WorkStats`], totalled by the
/// prepass and added only once the tick's commit succeeded.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub(crate) struct TickCharges {
    pub(crate) completed: u64,
    pub(crate) interrupted: u64,
    pub(crate) instructions: u64,
    pub(crate) partial: u64,
    pub(crate) failures: u64,
    pub(crate) restarts: u64,
}

/// The model-generic machine state and synchronous run loop.
///
/// A `Core` is the entire mutable state of a machine — shared memory,
/// processor slots, accounting, the completion tracker, and every reused
/// per-tick buffer. [`Pram`] pairs a `Core` with its
/// [`ExecutionModel`] and delegates the phase structure here.
#[derive(Debug)]
pub struct Core<Pv> {
    pub(crate) mem: SharedMemory,
    pub(crate) mode: WriteMode,
    /// Number of write slots merged per tick (the write half of the budget).
    pub(crate) write_slots: usize,
    pub(crate) procs: ProcSoA<Pv>,
    pub(crate) cycle: u64,
    pub(crate) stats: WorkStats,
    pub(crate) pattern: FailurePattern,
    // Incremental completion tracker (see `ExecutionModel::completion_hint`):
    // whether the model opted in, how many cells are outstanding, and —
    // when the model keeps one (`KEEPS_INDEX`) — the index of those cells.
    // Primed at construction and re-primed at every run entry.
    pub(crate) tracked: bool,
    pub(crate) outstanding: usize,
    pub(crate) unvisited: UnvisitedIndex,
    // Reused per-tick buffers.
    /// This tick's tentative cycles, one budget-sized row per processor.
    pub(crate) tentative: Cycles,
    pub(crate) meta: Vec<ProcMeta>,
    /// This tick's outcome per processor (see [`Fate`]).
    pub(crate) fates: Vec<Fate>,
    /// The writes of the write slot being merged. The prepass gathers slot
    /// 0 here; later slots are gathered from `active`. Sized to the
    /// processor count up front, so the first tick does not grow it.
    pub(crate) slot_writes: Vec<(Pid, usize, Word)>,
    /// Processors that commit more than one write this tick (compact list,
    /// built by the prepass in [`Core::apply`]).
    pub(crate) active: Vec<u32>,
    /// Reads the tick charges, per memory bank. Totalled by the prepass and
    /// added to the bank counters once the commit succeeded.
    pub(crate) read_tally: Vec<u64>,
    pub(crate) events: Vec<FailureEvent>,
}

impl<Pv: Clone + Send> Core<Pv> {
    /// Build a core for `model` with `processors` slots over `mem`,
    /// merging `write_slots` write slots per tick under `mode`. The
    /// completion tracker is primed immediately, so lock-step `tick` use
    /// works without passing through a run entry.
    pub(crate) fn new<M: ExecutionModel<Private = Pv>>(
        model: &M,
        processors: usize,
        mem: SharedMemory,
        mode: WriteMode,
        write_slots: usize,
    ) -> Self {
        // The prepass keeps its compact processor list in u32.
        assert!(processors <= u32::MAX as usize, "processor count exceeds u32 range");
        let procs = ProcSoA {
            status: vec![ProcStatus::Alive; processors],
            state: (0..processors).map(|i| Some(model.on_start(Pid(i)))).collect(),
            completed: vec![0; processors],
        };
        let banks = mem.bank_count();
        let mut core = Core {
            mem,
            mode,
            write_slots,
            procs,
            cycle: 0,
            stats: WorkStats::default(),
            pattern: FailurePattern::new(),
            tracked: false,
            outstanding: 0,
            unvisited: UnvisitedIndex::new(0),
            tentative: Cycles::new(processors, model.checkpoint_budget().0, write_slots),
            meta: Vec::with_capacity(processors),
            fates: vec![Fate::default(); processors],
            slot_writes: Vec::with_capacity(processors),
            active: Vec::with_capacity(processors),
            read_tally: vec![0; banks],
            events: Vec::new(),
        };
        core.init_tracker(model);
        core
    }

    /// Classify every shared cell and prime the completion tracker: the
    /// outstanding count, and the unvisited index when the model keeps
    /// one. The model is *tracked* iff it reports at least one tracked
    /// cell; untracked models keep the full-scan completion check.
    ///
    /// The cells are read as the 64-cell lanes of each bank-aligned chunk
    /// (one contiguous slice of its bank, so a banked layout needs no
    /// per-address bank mapping), each classified into bit masks by
    /// [`ExecutionModel::completion_masks`], whose hot implementations are
    /// branch-free (see `WriteAllTasks::completion_masks`). The count is
    /// the masks' popcount; an index ORs them in whole. Debug builds check
    /// every lane against the per-cell
    /// [`completion_hint`](ExecutionModel::completion_hint) reference.
    pub(crate) fn init_tracker<M: ExecutionModel<Private = Pv>>(&mut self, model: &M) {
        let mem = &self.mem;
        let mut tracked_bits = 0u64;
        let mut outstanding = 0;
        let lanes = mem
            .chunks()
            .flat_map(|(base, cells)| {
                cells
                    .chunks(LANE_WIDTH)
                    .enumerate()
                    .map(move |(k, lane)| (base + k * LANE_WIDTH, lane))
            })
            .map(|(base, lane)| {
                let (mask, tracked) = model.completion_masks(base, lane);
                #[cfg(debug_assertions)]
                {
                    let expected = crate::fold_completion_masks(base, lane, |addr, value| {
                        model.completion_hint(addr, value)
                    });
                    assert_eq!(
                        (mask, tracked),
                        expected,
                        "completion_masks disagrees with completion_hint on lane at {base}",
                    );
                }
                tracked_bits |= tracked;
                outstanding += mask.count_ones() as usize;
                (base, mask)
            });
        if M::KEEPS_INDEX {
            self.unvisited.rebuild_from_lanes(mem.size(), lanes);
        } else {
            lanes.for_each(drop);
        }
        self.tracked = tracked_bits != 0;
        self.outstanding = outstanding;
    }

    /// O(1) completion test for tracked models (no cell is outstanding),
    /// full scan otherwise. Debug builds cross-check the count against
    /// `is_complete`.
    fn completion_reached<M: ExecutionModel<Private = Pv>>(&self, model: &M) -> bool {
        if self.tracked {
            let done = self.outstanding == 0;
            debug_assert_eq!(
                done,
                model.is_complete(&self.mem),
                "completion tracker diverged from is_complete at tick {} \
                 ({} cells outstanding) — the hint contract is violated",
                self.cycle,
                self.outstanding,
            );
            done
        } else {
            model.is_complete(&self.mem)
        }
    }

    /// Build the completed-run report. The recorded failure pattern is
    /// **moved** out of the core (it can be megabytes on adversarial runs);
    /// the core's own pattern is left empty, so a subsequent continuation
    /// run records a fresh pattern.
    fn take_completed_report(&mut self) -> RunReport {
        RunReport {
            outcome: RunOutcome::Completed,
            stats: self.stats,
            pattern: std::mem::take(&mut self.pattern),
            per_processor: self.procs.completed.clone(),
        }
    }

    /// Phase 2a: present the machine to the adversary and collect its
    /// decisions for this tick.
    fn collect_decisions<M, A>(&mut self, adversary: &mut A) -> Decisions
    where
        M: ExecutionModel<Private = Pv>,
        A: Adversary + ?Sized,
    {
        self.meta.clear();
        self.meta.extend(self.procs.status.iter().zip(&self.procs.completed).enumerate().map(
            |(i, (&status, &completed))| ProcMeta {
                pid: Pid(i),
                status,
                completed_cycles: completed,
            },
        ));
        let view = MachineView {
            cycle: self.cycle,
            processors: self.procs.len(),
            mem: &self.mem,
            procs: &self.meta,
            tentative: &self.tentative,
            unvisited: if M::KEEPS_INDEX && self.tracked { Some(&self.unvisited) } else { None },
        };
        adversary.decide(&view)
    }

    /// Execute exactly one observed tick on `backend`: `TickStart`, the
    /// backend's tentative phase, adversary decisions, then
    /// validate/commit/charge through [`Core::apply`] on this thread.
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    pub(crate) fn tick<M, A, B>(
        &mut self,
        model: &M,
        adversary: &mut A,
        observer: &mut dyn Observer,
        backend: &mut B,
    ) -> Result<()>
    where
        M: ExecutionModel<Private = Pv>,
        A: Adversary + ?Sized,
        B: Backend<M>,
    {
        observer.event(TraceEvent::TickStart { cycle: self.cycle });
        backend.tentative(model, self)?;
        let decisions = self.collect_decisions::<M, A>(adversary);
        self.apply(model, decisions, observer)
    }

    /// The single run loop behind every public entry point of both
    /// models. Backends differ only in the [`Backend`] hook they pass
    /// in, so the event stream and all accounting are shared by
    /// construction. The `control` callback runs at the tick boundary —
    /// after the completion and cycle-limit checks, before the tick's
    /// `TickStart` event — so pausing and resuming produces, by
    /// construction, the **concatenation** of the two runs' event streams,
    /// which equals the uninterrupted run's stream.
    ///
    /// # Errors
    ///
    /// See [`PramError`]; in particular [`PramError::CycleLimit`] when
    /// `limits` are exhausted.
    pub(crate) fn run_loop<M, A, B>(
        &mut self,
        model: &M,
        adversary: &mut A,
        limits: RunLimits,
        observer: &mut dyn Observer,
        backend: &mut B,
        mut control: impl FnMut(u64) -> RunControl,
    ) -> Result<RunStatus>
    where
        M: ExecutionModel<Private = Pv>,
        A: Adversary + ?Sized,
        B: Backend<M>,
    {
        // Re-prime at every run entry: `Pram::memory_mut` lets callers
        // poke memory between runs, behind the tracker's back.
        self.init_tracker(model);
        loop {
            if self.completion_reached(model) {
                observer.event(TraceEvent::Completed { cycle: self.cycle });
                return Ok(RunStatus::Completed(self.take_completed_report()));
            }
            if self.cycle >= limits.max_cycles {
                return Err(PramError::CycleLimit { cycles: limits.max_cycles });
            }
            if control(self.cycle) == RunControl::Pause {
                return Ok(RunStatus::Paused { cycle: self.cycle });
            }
            self.tick(model, adversary, observer, backend)?;
        }
    }

    /// Phases 2b/3: validate the adversary's decisions (shared
    /// [`crate::decisions`] logic), merge surviving write prefixes slot by
    /// slot, charge work, fold commits into the completion tracker, record
    /// the failure pattern, apply restarts.
    ///
    /// A tick charges nothing unless its commit succeeds: when the
    /// decisions are rejected, or a write slot hits a CRCW conflict, the
    /// tick adds nothing to the run's [`WorkStats`] or read counters, and
    /// no processor changes status. (The stores of the slots merged before
    /// a conflict stay, with their write counts.)
    pub(crate) fn apply<M>(
        &mut self,
        model: &M,
        decisions: Decisions,
        observer: &mut dyn Observer,
    ) -> Result<()>
    where
        M: ExecutionModel<Private = Pv>,
    {
        let (max_slots, charges) = self.resolve_and_prepass::<M>(decisions)?;

        // --- Commit surviving write prefixes, slot by slot. The prepass
        // gathered slot 0; the later slots come from the processors that
        // commit more than one write. ---
        self.commit_slot(model, observer)?;
        for slot in 1..max_slots {
            self.slot_writes.clear();
            for &iu in &self.active {
                let i = iu as usize;
                if slot < usize::from(self.fates[i].commits) {
                    let t = self.tentative.get(Pid(i)).expect("active cycle exists");
                    let (addr, value) = t.writes[slot];
                    self.slot_writes.push((Pid(i), addr, value));
                }
            }
            self.commit_slot(model, observer)?;
        }

        self.finish(model, observer, charges);
        Ok(())
    }

    /// Phase 2b: validate the adversary's decisions into the fate records,
    /// then sweep the tentative cycles once: fill in each record's committed
    /// write count and halt bit, gather write slot 0 into `slot_writes` and
    /// the processors with more writes into `active`, and total the tick's
    /// charges. Returns the number of write slots the commit must merge and
    /// the charges, which [`Core::finish`] applies only after the commit.
    pub(crate) fn resolve_and_prepass<M>(
        &mut self,
        decisions: Decisions,
    ) -> Result<(usize, TickCharges)>
    where
        M: ExecutionModel<Private = Pv>,
    {
        resolve(self.cycle, &decisions, &self.procs.status, &self.tentative, &mut self.fates)?;

        self.slot_writes.clear();
        self.active.clear();
        self.read_tally.fill(0);
        let layout = self.mem.layout();
        let mut charges = TickCharges {
            failures: decisions.fails.len() as u64,
            restarts: decisions.restarts.len() as u64,
            ..TickCharges::default()
        };
        let mut max_slots = 0;
        for (pid, t) in self.tentative.iter() {
            let fate = &mut self.fates[pid.0];
            let commits = match fate.kind {
                FateKind::Completed => {
                    charges.completed += 1;
                    charges.instructions += (t.reads.len() + 1 + t.writes.len()) as u64;
                    layout.tally_reads(t.reads, &mut self.read_tally);
                    fate.set_halts(t.halts);
                    t.writes.len()
                }
                FateKind::Interrupted => {
                    // Validated against the write count by `resolve`, but
                    // clamp anyway: `commits` is the sole bound the slot
                    // gathers index `writes` with.
                    let commits = usize::from(fate.commits).min(t.writes.len());
                    charges.interrupted += 1;
                    // What an interrupted cycle is charged differs by model
                    // (the snapshot's read and computation are free).
                    charges.partial += M::partial_instructions(t.reads.len(), commits);
                    layout.tally_reads(t.reads, &mut self.read_tally);
                    commits
                }
                // Stopped before the cycle began: zero instructions, so
                // zero partial work — explicitly, not via a sentinel.
                FateKind::InterruptedBeforeReads => {
                    charges.interrupted += 1;
                    0
                }
                FateKind::Idle => unreachable!("an alive processor has an active fate"),
            };
            // At most the write budget, which fits `MAX_WRITES`.
            fate.commits = commits as u8;
            if commits > 0 {
                let (addr, value) = t.writes[0];
                self.slot_writes.push((pid, addr, value));
                if commits > 1 {
                    self.active.push(pid.0 as u32);
                }
                max_slots = max_slots.max(commits);
            }
        }

        // A cycle's writes are budget-checked in the tentative phase and
        // `resolve` bounds committed prefixes by the cycle's write count,
        // so no survivor can exceed the write-slot budget.
        debug_assert!(max_slots <= self.write_slots);
        Ok((max_slots, charges))
    }

    /// Phase 3: apply the tick's charges, then sweep the fate records once
    /// to emit each processor's events and update its status (the tentative
    /// cycles are not read again), record the failure pattern, apply
    /// restarts, advance the clock.
    fn finish<M>(&mut self, model: &M, observer: &mut dyn Observer, charges: TickCharges)
    where
        M: ExecutionModel<Private = Pv>,
    {
        self.stats.completed_cycles += charges.completed;
        self.stats.interrupted_cycles += charges.interrupted;
        self.stats.charged_instructions += charges.instructions;
        self.stats.partial_instructions += charges.partial;
        self.stats.failures += charges.failures;
        self.stats.restarts += charges.restarts;
        self.mem.add_bank_reads(&self.read_tally);

        let cycle = self.cycle;
        debug_assert!(self.events.is_empty());
        for (i, fate) in self.fates.iter().enumerate() {
            match fate.kind {
                FateKind::Idle => {}
                FateKind::Completed => {
                    observer.event(TraceEvent::CycleCompleted { cycle, pid: Pid(i) });
                    self.procs.completed[i] += 1;
                    if fate.halts() {
                        self.procs.status[i] = ProcStatus::Halted;
                    }
                    // The post-cycle private state is already in the slot
                    // (the tentative phase advances it in place).
                }
                FateKind::InterruptedBeforeReads | FateKind::Interrupted => {
                    observer.event(TraceEvent::CycleInterrupted { cycle, pid: Pid(i) });
                }
            }
            if let Some(point) = fate.fail_point() {
                self.procs.status[i] = ProcStatus::Failed;
                self.procs.state[i] = None;
                observer.event(TraceEvent::Failure { cycle, pid: Pid(i), point });
                self.events.push(FailureEvent {
                    kind: FailureKind::Failure { point },
                    pid: i,
                    time: cycle,
                });
            }
        }
        if charges.restarts > 0 {
            for (i, _) in self.fates.iter().enumerate().filter(|(_, fate)| fate.restarts()) {
                observer.event(TraceEvent::Restart { cycle, pid: Pid(i) });
                self.procs.status[i] = ProcStatus::Alive;
                self.procs.state[i] = Some(model.on_start(Pid(i)));
                self.events.push(FailureEvent {
                    kind: FailureKind::Restart,
                    pid: i,
                    time: cycle + 1,
                });
            }
        }
        // Failure events at this tick precede restart events at tick+1, so
        // pushing fails-then-restarts keeps the pattern time-ordered.
        self.pattern.extend(self.events.drain(..));

        self.cycle += 1;
        self.stats.parallel_time = self.cycle;

        // Debug builds cross-check the tracker against a full scan after
        // every tick: the index bit for bit when the model keeps one, the
        // count by a recount otherwise.
        if cfg!(debug_assertions) && self.tracked {
            let size = self.mem.size();
            let is_outstanding = |addr| {
                matches!(
                    model.completion_hint(addr, self.mem.peek(addr)),
                    CompletionHint::Outstanding
                )
            };
            if M::KEEPS_INDEX {
                assert!(
                    self.unvisited.matches(size, is_outstanding),
                    "unvisited index diverged from the full scan after tick {}",
                    self.cycle - 1,
                );
                assert_eq!(self.unvisited.len(), self.outstanding, "index and count diverged");
            } else {
                let recount = (0..size).filter(|&addr| is_outstanding(addr)).count();
                assert_eq!(
                    self.outstanding,
                    recount,
                    "outstanding count diverged from a recount after tick {}",
                    self.cycle - 1,
                );
            }
        }
    }

    /// Merge one write slot under the core's CRCW semantics, apply it, and
    /// fold each committed store into the completion tracker. The merge
    /// prefetches the cell [`PREFETCH_DISTANCE`] entries ahead of the one
    /// it stores.
    fn commit_slot<M>(&mut self, model: &M, observer: &mut dyn Observer) -> Result<()>
    where
        M: ExecutionModel<Private = Pv>,
    {
        // Group writers by address; within an address the lowest PID comes
        // first, making ARBITRARY/PRIORITY resolution "first writer wins".
        // (addr, pid) keys are unique, so the unstable sort is
        // deterministic.
        self.slot_writes.sort_unstable_by_key(|&(pid, addr, _)| (addr, pid));
        let len = self.slot_writes.len();
        // The next entry whose cell to prefetch.
        let mut ahead = 0;
        let mut i = 0;
        while i < len {
            while ahead < len.min(i + PREFETCH_DISTANCE) {
                self.mem.prefetch(self.slot_writes[ahead].1);
                ahead += 1;
            }
            let (pid, addr, value) = self.slot_writes[i];
            let mut j = i + 1;
            let chosen = (pid, value);
            while j < len {
                let (pid2, addr2, value2) = self.slot_writes[j];
                if addr2 != addr {
                    break;
                }
                match self.mode {
                    WriteMode::Common => {
                        if value2 != chosen.1 {
                            return Err(PramError::CommonWriteConflict {
                                addr,
                                cycle: self.cycle,
                                first: (chosen.0, chosen.1),
                                second: (pid2, value2),
                            });
                        }
                    }
                    WriteMode::Arbitrary | WriteMode::Priority => {
                        // chosen stays: lowest PID wins and writers are in
                        // PID order within equal addresses (see sort above).
                    }
                    WriteMode::Exclusive => {
                        return Err(PramError::ExclusiveWriteConflict { addr, cycle: self.cycle });
                    }
                }
                j += 1;
            }
            let old = self.mem.store(addr, chosen.1)?;
            if self.tracked {
                // Fold the committed write into the completion tracker.
                let old = model.completion_hint(addr, old);
                let new = model.completion_hint(addr, chosen.1);
                match (old, new) {
                    (CompletionHint::Outstanding, CompletionHint::Satisfied) => {
                        self.outstanding -= 1;
                        if M::KEEPS_INDEX {
                            self.unvisited.remove(addr);
                        }
                    }
                    (CompletionHint::Satisfied, CompletionHint::Outstanding) => {
                        self.outstanding += 1;
                        if M::KEEPS_INDEX {
                            self.unvisited.insert(addr);
                        }
                    }
                    _ => {}
                }
            }
            observer.event(TraceEvent::Commit { cycle: self.cycle, addr, value: chosen.1 });
            i = j;
        }
        Ok(())
    }
}

// `Pram`'s checkpoint methods live beside the core state they encode.
impl<M> Pram<M>
where
    M: ExecutionModel,
    M::Private: Serialize + Deserialize,
{
    /// Snapshot the machine (and `adversary`) at the current tick boundary
    /// into a versioned [`Checkpoint`] tagged with the model's name, so a
    /// word checkpoint cannot be restored into a snapshot machine or vice
    /// versa.
    ///
    /// Call only between run calls — e.g. after [`Pram::run_with`]
    /// returned [`RunStatus::Paused`] — so the machine holds no transient
    /// tick state. Restoring the checkpoint into a freshly built machine
    /// of the same program, size, budget and write mode (plus a freshly
    /// built adversary of the same kind and configuration) resumes the run
    /// bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`PramError::Checkpoint`] if the adversary is not checkpointable
    /// ([`Adversary::save_state`] returned `None`).
    pub fn save_checkpoint<A: Adversary + ?Sized>(&self, adversary: &A) -> Result<Checkpoint> {
        let Pram { model, core } = self;
        let adversary = adversary.save_state().ok_or_else(|| PramError::Checkpoint {
            detail: "the adversary is not checkpointable (save_state returned None)".into(),
        })?;
        let (budget_reads, budget_writes) = model.checkpoint_budget();
        let (bank_reads, bank_writes) = core.mem.bank_counters().into_iter().unzip();
        Ok(Checkpoint {
            version: CHECKPOINT_VERSION,
            model: M::MODEL.to_string(),
            cycle: core.cycle,
            mode: core.mode,
            budget_reads,
            budget_writes,
            layout: core.mem.layout(),
            // The merged, address-ordered image — the same bytes whatever
            // the physical layout.
            mem: core.mem.to_vec(),
            bank_reads,
            bank_writes,
            stats: core.stats,
            procs: core
                .procs
                .status
                .iter()
                .zip(&core.procs.completed)
                .zip(&core.procs.state)
                .map(|((&status, &completed), state)| ProcCheckpoint {
                    status,
                    completed,
                    state: state.as_ref().map_or(serde::Value::Null, |st| st.to_value()),
                })
                .collect(),
            pattern: core.pattern.clone(),
            adversary,
            // Policy state is runner-level: a policy-driven runner fills
            // this in after saving (see `crate::policy`); the core has no
            // policy of its own.
            policy: serde::Value::Null,
        })
    }

    /// Load `ck` into this machine and `adversary`, resuming the
    /// checkpointed run at its tick boundary.
    ///
    /// The machine must be built for the same program shape the checkpoint
    /// was taken from: same model, memory size, processor count, cycle
    /// budget and write mode. Everything is validated **before** anything
    /// is mutated, so a failed restore leaves machine and adversary
    /// untouched.
    ///
    /// # Errors
    ///
    /// [`PramError::Checkpoint`] on a version, model or shape mismatch, an
    /// undecodable private state, an illegal recorded failure pattern, or
    /// an adversary that refuses the saved state.
    pub fn restore_checkpoint<A: Adversary + ?Sized>(
        &mut self,
        ck: &Checkpoint,
        adversary: &mut A,
    ) -> Result<()> {
        let Pram { model, core } = self;
        let fail = |detail: String| PramError::Checkpoint { detail };
        if ck.version != CHECKPOINT_VERSION {
            return Err(fail(format!(
                "checkpoint version {} but this build reads version {CHECKPOINT_VERSION}",
                ck.version
            )));
        }
        if ck.model != M::MODEL {
            return Err(fail(format!(
                "checkpoint was taken under the \"{}\" model but this machine runs \"{}\"",
                ck.model,
                M::MODEL
            )));
        }
        if ck.layout != core.mem.layout() {
            return Err(fail(format!(
                "checkpoint was taken under the {} memory layout but this machine uses {} — \
                 cross-layout restore is not supported; rebuild the machine with the \
                 checkpoint's layout",
                ck.layout,
                core.mem.layout()
            )));
        }
        if ck.mem.len() != core.mem.size() {
            return Err(fail(format!(
                "checkpoint has {} memory cells but the machine has {}",
                ck.mem.len(),
                core.mem.size()
            )));
        }
        if ck.procs.len() != core.procs.len() {
            return Err(fail(format!(
                "checkpoint has {} processors but the machine has {}",
                ck.procs.len(),
                core.procs.len()
            )));
        }
        let (budget_reads, budget_writes) = model.checkpoint_budget();
        if (ck.budget_reads, ck.budget_writes) != (budget_reads, budget_writes) {
            return Err(fail(format!(
                "checkpoint budget ({} reads / {} writes) differs from the machine's \
                 ({} reads / {} writes)",
                ck.budget_reads, ck.budget_writes, budget_reads, budget_writes
            )));
        }
        if ck.mode != core.mode {
            return Err(fail(format!(
                "checkpoint write mode {} differs from the machine's {}",
                ck.mode, core.mode
            )));
        }
        ck.pattern
            .validate(Some(core.procs.len()))
            .map_err(|e| fail(format!("recorded pattern: {e}")))?;
        let mut states: Vec<Option<M::Private>> = Vec::with_capacity(ck.procs.len());
        for (i, pc) in ck.procs.iter().enumerate() {
            let state = match pc.status {
                // A failed processor has no private memory; whatever the
                // checkpoint stores for it is ignored.
                ProcStatus::Failed => None,
                ProcStatus::Alive | ProcStatus::Halted => Some(
                    M::Private::from_value(&pc.state)
                        .map_err(|e| fail(format!("P{i}'s private state does not decode: {e}")))?,
                ),
            };
            states.push(state);
        }
        // Rebuild the memory *before* mutating the adversary: `from_parts`
        // validates the cell image and per-bank counter shapes, and a
        // failure there must leave everything untouched.
        let mem = SharedMemory::from_parts(
            ck.layout,
            core.mem.size(),
            &ck.mem,
            &ck.bank_reads,
            &ck.bank_writes,
        )?;
        adversary
            .restore_state(&ck.adversary)
            .map_err(|e| fail(format!("adversary restore failed: {e}")))?;
        core.mem = mem;
        for (i, (pc, state)) in ck.procs.iter().zip(states).enumerate() {
            core.procs.status[i] = pc.status;
            core.procs.completed[i] = pc.completed;
            core.procs.state[i] = state;
        }
        core.cycle = ck.cycle;
        core.stats = ck.stats;
        core.pattern = ck.pattern.clone();
        // Re-prime the completion tracker from the restored memory: a stale
        // index must never survive a restore (and lock-step `tick` use may
        // not pass through a run entry).
        core.init_tracker(model);
        Ok(())
    }
}
