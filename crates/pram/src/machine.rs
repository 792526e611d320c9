//! The word-model restartable fail-stop machine executor.
//!
//! Each tick the machine plays one update cycle for every alive processor:
//!
//! 1. **Tentative phase** — every alive processor plans its reads, reads the
//!    memory state from the start of the tick (synchronous PRAM: nobody sees
//!    this tick's writes), and computes its writes by advancing its private
//!    state in place.
//! 2. **Adversary phase** — the on-line adversary inspects the whole machine
//!    (including every tentative cycle) and stops/restarts processors.
//! 3. **Commit phase** — surviving write prefixes are merged slot by slot
//!    under the machine's CRCW [`WriteMode`]; processors that completed
//!    their cycle are charged; stopped processors lose their private state.
//!
//! Restarts take effect at the start of the following tick, and the
//! model's progress condition (§2.1 2(i)) is enforced: every tick with any
//! activity must include at least one completed update cycle.
//!
//! Since PR 5 the phase structure itself — run loop, adversary validation,
//! commit merging, accounting, observers, checkpoints — lives in the
//! model-generic [`Core`](crate::exec::Core) (see [`crate::exec`]), shared
//! with the snapshot machine. This module contributes the *word model*:
//! the charged read phase with its plan chain ([`tentative_for`]), the
//! [`CycleBudget`] enforcement, and the pooled/panic-isolated backends.
//! The pooled backend farms the **whole tick** out to a persistent
//! [`TickPool`] of workers: the tentative phase and the three-pass
//! parallel commit (`Core::apply_pooled`) run on the same pool, with
//! rank-ordered merges keeping every observable byte identical to the
//! sequential engine.
//!
//! Every run enters through one method, [`Machine::run_with`]: a
//! [`RunSpec`] names the tick engine ([`ExecMode`]), the optional
//! [`PanicPolicy`] and the [`RunLimits`], and `run_with` holds the only
//! table that maps a spec to a backend. [`Machine::run`],
//! [`Machine::run_observed`] and [`Machine::run_threaded_observed`] are
//! one-line conveniences over the same table.
//!
//! The engine remains built so a **steady-state tick performs no heap
//! allocation and no thread spawn**: all per-tick buffers live in the core
//! and are reused; the threaded backend parks its worker pool for the whole
//! run; and programs that implement [`Program::completion_hint`] replace
//! the per-tick O(memory) completion scan with an O(1) test of an
//! outstanding-cell counter. The word model keeps no index of those cells:
//! nothing in it asks which cells they are.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use crate::accounting::RunReport;
use crate::adversary::{Adversary, Decisions, ProcStatus, TentativeCycle};
use crate::checkpoint::Checkpoint;
use crate::cycle::{CycleBudget, ReadSet, Step, MAX_READS, MAX_WRITES};
use crate::error::{BudgetKind, PramError};
use crate::exec::{completed, Backend, Core, ExecutionModel, SeqBackend};
use crate::memory::{MemoryLayout, SharedMemory};
use crate::mode::WriteMode;
use crate::pool::{panic_detail, PoolShutdown, SendPtr, TickPool, CLASS_TENTATIVE};
use crate::trace::{NoopObserver, Observer};
use crate::word::{Pid, Word};
use crate::{CompletionHint, Program, Result};

pub use crate::exec::{PanicPolicy, RunControl, RunLimits, RunStatus};

/// Which tick engine a run uses (see [`Machine::run_with`]).
#[derive(Clone, Copy, Debug, Default)]
pub enum ExecMode<'a> {
    /// The sequential engine: the calling thread plays every phase.
    #[default]
    Sequential,
    /// A private pool of this many worker threads, spawned when the run
    /// starts and joined when it returns. `1` is the sequential engine;
    /// `0` is rejected.
    Threads(usize),
    /// A caller-owned [`SharedPool`], time-shared between runs; the
    /// calling thread holds the pool's turn for the whole run.
    Pool(&'a SharedPool),
}

/// How one run executes: the tick engine, panic isolation, and limits.
///
/// The default is the plain sequential engine with default limits — what
/// [`Machine::run`] uses.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunSpec<'a> {
    /// The tick engine.
    pub exec: ExecMode<'a>,
    /// `Some` plays every processor's tentative cycle under
    /// `catch_unwind`, so a panic in program code surfaces as
    /// [`PramError::WorkerPanic`] naming the processor; on a pool the
    /// policy also decides whether the run surfaces the panic or finishes
    /// sequentially. `None` lets a panic unwind through the run.
    pub panic: Option<PanicPolicy>,
    /// Safety limits.
    pub limits: RunLimits,
}

/// The word model's [`ExecutionModel`]: a charged, budgeted read phase
/// (the plan chain) followed by a budgeted write phase.
#[derive(Debug)]
struct WordModel<'p, P: Program> {
    program: &'p P,
    budget: CycleBudget,
}

impl<'p, P: Program> ExecutionModel for WordModel<'p, P> {
    type Private = P::Private;

    const MODEL: &'static str = "word";
    // Completion only asks whether the outstanding count is zero, so the
    // word model keeps no index and `MachineView::unvisited` is `None`.
    const KEEPS_INDEX: bool = false;

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

    fn tentative(&self, core: &mut Core<P::Private>) -> Result<()> {
        tentative_seq::<P, false>(self.program, self.budget, core)
    }

    fn partial_instructions(t: &TentativeCycle, committed_writes: usize) -> u64 {
        // Reads and the local computation ran, plus the prefix of writes
        // that committed.
        (t.reads.len() + 1 + committed_writes) as u64
    }

    fn checkpoint_budget(&self) -> (usize, usize) {
        (self.budget.reads, self.budget.writes)
    }
}

/// A restartable fail-stop CRCW PRAM running one [`Program`].
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Machine<'p, P: Program> {
    model: WordModel<'p, P>,
    core: Core<P::Private>,
}

impl<'p, P: Program> Machine<'p, P> {
    /// Build a machine with `processors` processors for `program`.
    ///
    /// Shared memory is allocated per [`Program::shared_size`] and
    /// initialized via [`Program::init_memory`]; every processor starts
    /// alive in its [`Program::on_start`] state.
    ///
    /// # Errors
    ///
    /// [`PramError::InvalidConfig`] if `processors == 0` or `budget` does
    /// not fit the inline cycle buffers
    /// ([`CycleBudget::fits_inline`]).
    pub fn new(program: &'p P, processors: usize, budget: CycleBudget) -> Result<Self> {
        Self::with_layout(program, processors, budget, MemoryLayout::Flat)
    }

    /// [`Machine::new`] with an explicit [`MemoryLayout`]. The layout is a
    /// physical property only — addresses, CRCW semantics and results are
    /// identical to the flat machine — but reads and writes are charged to
    /// per-bank counters and the Omega network meter (`rfsp-net`) routes
    /// packets to the cells' actual banks.
    ///
    /// # Errors
    ///
    /// As [`Machine::new`], plus [`PramError::InvalidConfig`] for invalid
    /// layout parameters ([`MemoryLayout::validate`]).
    pub fn with_layout(
        program: &'p P,
        processors: usize,
        budget: CycleBudget,
        layout: MemoryLayout,
    ) -> Result<Self> {
        if processors == 0 {
            return Err(PramError::InvalidConfig { detail: "need at least one processor".into() });
        }
        if !budget.fits_inline() {
            return Err(PramError::InvalidConfig {
                detail: format!(
                    "cycle budget ({} reads / {} writes) exceeds the inline capacities \
                     ({MAX_READS} reads / {MAX_WRITES} writes)",
                    budget.reads, budget.writes
                ),
            });
        }
        let mut mem = SharedMemory::with_layout(program.shared_size(), layout)?;
        program.init_memory(&mut mem);
        let model = WordModel { program, budget };
        let core = Core::new(&model, processors, mem, WriteMode::Common, budget.writes);
        Ok(Machine { model, core })
    }

    /// Set the concurrent-write semantics (default: COMMON).
    pub fn set_write_mode(&mut self, mode: WriteMode) -> &mut Self {
        self.core.mode = mode;
        self
    }

    /// Override the batched-kernel lane width (default:
    /// [`DEFAULT_BATCH_WIDTH`](crate::DEFAULT_BATCH_WIDTH)). `1` selects
    /// the scalar reference kernels; any other value selects the lane-mask
    /// batched kernels and sets the pooled engine's chunk alignment.
    /// Behavior is identical for every width — only the instruction stream
    /// and chunk boundaries differ (pinned by the batched-vs-scalar
    /// differential proptests); exposed for testing and benchmarking via
    /// `writeall --batch-width`.
    pub fn set_batch_width(&mut self, width: usize) -> &mut Self {
        self.core.batch_width = width.max(1);
        self
    }

    /// The shared memory (uncharged inspection).
    pub fn memory(&self) -> &SharedMemory {
        &self.core.mem
    }

    /// Mutable shared memory, for test setup between runs.
    pub fn memory_mut(&mut self) -> &mut SharedMemory {
        // Direct pokes bypass the completion tracker; drop it so the next
        // run reclassifies every cell.
        self.core.tracked = false;
        &mut self.core.mem
    }

    /// Number of processors `P`.
    pub fn processors(&self) -> usize {
        self.core.procs.len()
    }

    /// Current tick.
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    /// Accumulated work statistics.
    pub fn stats(&self) -> &crate::accounting::WorkStats {
        &self.core.stats
    }

    /// Status of processor `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn proc_status(&self, pid: Pid) -> ProcStatus {
        self.core.procs.status[pid.0]
    }

    /// Run to completion under `adversary` with default [`RunLimits`].
    ///
    /// # Errors
    ///
    /// See [`PramError`]; in particular [`PramError::CycleLimit`] if the
    /// default limit is exhausted.
    pub fn run<A: Adversary>(&mut self, adversary: &mut A) -> Result<RunReport> {
        self.run_observed(adversary, RunLimits::default(), &mut NoopObserver)
    }

    /// Run to completion on the sequential engine, streaming every machine
    /// event — cycle completions, failures, restarts, committed writes —
    /// to `observer` (see [`crate::trace`]). The sequential row of
    /// [`Machine::run_with`]'s table, callable without `P: Sync`.
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    pub fn run_observed<A: Adversary>(
        &mut self,
        adversary: &mut A,
        limits: RunLimits,
        observer: &mut dyn Observer,
    ) -> Result<RunReport> {
        completed(self.run_sequential(None, limits, adversary, observer, |_| RunControl::Continue))
    }

    /// The sequential rows of [`Machine::run_with`]'s table: the plain
    /// backend, or the one that catches panics per processor. Needs no
    /// `P: Sync`, so [`Machine::run_observed`] shares it.
    fn run_sequential<A: Adversary + ?Sized>(
        &mut self,
        panic: Option<PanicPolicy>,
        limits: RunLimits,
        adversary: &mut A,
        observer: &mut dyn Observer,
        control: impl FnMut(u64) -> RunControl,
    ) -> Result<RunStatus> {
        let Machine { model, core } = self;
        match panic {
            None => core.run_loop(model, adversary, limits, observer, &mut SeqBackend, control),
            Some(_) => {
                core.run_loop(model, adversary, limits, observer, &mut CaughtBackend, control)
            }
        }
    }

    /// Execute exactly one tick under `adversary`. Exposed for fine-grained
    /// tests and lock-step experiment drivers.
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    pub fn tick<A: Adversary>(&mut self, adversary: &mut A) -> Result<()> {
        self.tick_observed(adversary, &mut NoopObserver)
    }

    /// [`Machine::tick`] with an event stream.
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    pub fn tick_observed<A: Adversary>(
        &mut self,
        adversary: &mut A,
        observer: &mut dyn Observer,
    ) -> Result<()> {
        self.core.tick(&self.model, adversary, observer, &mut SeqBackend)
    }
}

impl<'p, P> Machine<'p, P>
where
    P: Program,
    P::Private: Serialize + Deserialize,
{
    /// Snapshot the machine (and `adversary`) at the current tick boundary
    /// into a versioned [`Checkpoint`].
    ///
    /// Call only between run calls — e.g. after [`Machine::run_with`]
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
        self.core.save_checkpoint(&self.model, adversary)
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
        self.core.restore_checkpoint(&self.model, ck, adversary)
    }
}

/// Tentatively play one update cycle for processor `pid` against `mem`.
///
/// Sets `*out` to `None` if the processor is not alive; otherwise refills
/// the slot's [`TentativeCycle`] buffers in place (no allocation — every
/// buffer is inline, see [`crate::cycle`]).
///
/// The private state is advanced **in place**: the pre-cycle state is never
/// needed afterwards, because the commit phase either adopts the post-cycle
/// state (cycle completed) or discards the state entirely (the adversary
/// stopped the processor, and a stopped processor loses its private memory —
/// the model has no partial-progress private state).
#[allow(clippy::too_many_arguments)] // the split-borrowed SoA fields arrive separately by design
#[inline]
fn tentative_for<P: Program>(
    program: &P,
    mem: &SharedMemory,
    budget: CycleBudget,
    cycle: u64,
    pid: Pid,
    status: ProcStatus,
    state: &mut Option<P::Private>,
    out: &mut Option<TentativeCycle>,
) -> Result<()> {
    if status != ProcStatus::Alive {
        *out = None;
        return Ok(());
    }
    let state = state.as_mut().expect("alive processor must have private state");
    let t = out.get_or_insert_with(TentativeCycle::default);
    t.reads.clear();
    t.values.clear();
    t.writes.clear();
    t.halts = false;
    // Drive the plan chain: reads within a cycle may depend on values read
    // earlier in the same cycle (ordinary sequential instructions).
    loop {
        let mut batch = ReadSet::default();
        program.plan(pid, state, &t.values, &mut batch);
        if batch.is_empty() {
            break;
        }
        if t.reads.len() + batch.len() > budget.reads {
            return Err(PramError::BudgetExceeded {
                pid,
                cycle,
                kind: BudgetKind::Reads,
                used: t.reads.len() + batch.len(),
                limit: budget.reads,
            });
        }
        for &addr in batch.addrs() {
            if addr >= mem.size() {
                return Err(PramError::AddressOutOfBounds { addr, size: mem.size() });
            }
            t.values.push(mem.peek(addr));
            t.reads.push(addr);
        }
    }
    let step = program.execute(pid, state, &t.values, &mut t.writes);
    if t.writes.len() > budget.writes {
        return Err(PramError::BudgetExceeded {
            pid,
            cycle,
            kind: BudgetKind::Writes,
            used: t.writes.len(),
            limit: budget.writes,
        });
    }
    for &(addr, _) in t.writes.writes() {
        if addr >= mem.size() {
            return Err(PramError::AddressOutOfBounds { addr, size: mem.size() });
        }
    }
    t.halts = matches!(step, Step::Halt);
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
fn tentative_seq<P: Program, const CATCH: bool>(
    program: &P,
    budget: CycleBudget,
    core: &mut Core<P::Private>,
) -> Result<()> {
    let (mem, cycle) = (&core.mem, core.cycle);
    let statuses = &core.procs.status;
    for (i, (state, out)) in core.procs.state.iter_mut().zip(core.tentative.iter_mut()).enumerate()
    {
        guarded::<CATCH>(Pid(i), || {
            tentative_for(program, mem, budget, cycle, Pid(i), statuses[i], state, out)
        })?;
    }
    Ok(())
}

/// Parallel tentative phase: pool workers claim chunks of the processor
/// range from the shared cursor and fill the corresponding tentative slots
/// ([`guarded`] by `CATCH`). With the structure-of-arrays processor state
/// only the private states need a raw [`SendPtr`]: statuses are read-only
/// during the tentative phase and are shared as a plain slice.
fn tentative_pooled<P, const CATCH: bool>(
    program: &P,
    budget: CycleBudget,
    core: &mut Core<P::Private>,
    pool: &TickPool,
) -> Result<()>
where
    P: Program + Sync,
    P::Private: Send,
{
    let p = core.procs.len();
    // Align worker chunks to the batch width (× bank interleave on banked
    // layouts): whole lanes per worker, no lane split across banks.
    let align = core.chunk_align();
    let (mem, cycle) = (&core.mem, core.cycle);
    let statuses: &[ProcStatus] = &core.procs.status;
    let states = SendPtr::new(core.procs.state.as_mut_ptr());
    let tentative = SendPtr::new(core.tentative.as_mut_ptr());
    pool.run_tick(CLASS_TENTATIVE, p, align, &move |start: usize, end: usize| {
        #[allow(clippy::needless_range_loop)] // `i` also offsets the raw SoA pointers
        for i in start..end {
            // SAFETY: the pool's cursor hands out disjoint [start, end)
            // chunks within 0..p, so slot `i` is touched by exactly one
            // worker this tick; `run_tick` blocks until every worker is
            // done, so the pointers outlive all dereferences.
            let state = unsafe { &mut *states.ptr().add(i) };
            let out = unsafe { &mut *tentative.ptr().add(i) };
            guarded::<CATCH>(Pid(i), || {
                tentative_for(program, mem, budget, cycle, Pid(i), statuses[i], state, out)
            })?;
        }
        Ok(())
    })
}

/// The fully pooled word backend: the tentative phase and the three-pass
/// parallel commit run on the same worker pool.
/// Results are pinned byte-identical to [`SeqBackend`] by the golden and
/// differential tests.
struct PooledBackend<'a> {
    pool: &'a TickPool,
}

impl<'p, P> Backend<WordModel<'p, P>> for PooledBackend<'_>
where
    P: Program + Sync,
    P::Private: Send,
{
    fn tentative(&mut self, model: &WordModel<'p, P>, core: &mut Core<P::Private>) -> Result<()> {
        tentative_pooled::<P, false>(model.program, model.budget, core, self.pool)
    }

    fn apply(
        &mut self,
        model: &WordModel<'p, P>,
        core: &mut Core<P::Private>,
        decisions: Decisions,
        observer: &mut dyn Observer,
    ) -> Result<()> {
        core.apply_pooled(model, decisions, observer, self.pool)
    }
}

/// The sequential panic-isolating backend: every processor's cycle runs
/// under `catch_unwind`. Used for sequential runs with a panic policy and
/// as the degraded mode of [`IsolatedBackend`].
struct CaughtBackend;

impl<'p, P: Program> Backend<WordModel<'p, P>> for CaughtBackend {
    fn tentative(&mut self, model: &WordModel<'p, P>, core: &mut Core<P::Private>) -> Result<()> {
        tentative_seq::<P, true>(model.program, model.budget, core)
    }
}

/// The pooled backend with per-processor panic isolation: each tick backs
/// up every private state before the pooled tentative phase, restores them
/// if a worker catches a panic, and then either surfaces the error or
/// degrades permanently to the sequential caught engine per the
/// [`PanicPolicy`].
///
/// The commit deliberately keeps the **sequential** default: the parallel
/// commit stores through raw bank pointers and calls user completion
/// hints, so a panic there could not be unwound to a clean tick boundary
/// the way the tentative phase can.
struct IsolatedBackend<'a, S> {
    pool: &'a TickPool,
    policy: PanicPolicy,
    backup: Vec<Option<S>>,
    degraded: bool,
}

impl<'p, P> Backend<WordModel<'p, P>> for IsolatedBackend<'_, P::Private>
where
    P: Program + Sync,
    P::Private: Send,
{
    fn tentative(&mut self, model: &WordModel<'p, P>, core: &mut Core<P::Private>) -> Result<()> {
        if self.degraded {
            return tentative_seq::<P, true>(model.program, model.budget, core);
        }
        // Snapshot every private state: the tentative phase advances
        // states in place, so recovering from a panic mid-phase needs the
        // pre-tick originals.
        for (saved, state) in self.backup.iter_mut().zip(core.procs.state.iter()) {
            saved.clone_from(state);
        }
        match tentative_pooled::<P, true>(model.program, model.budget, core, self.pool) {
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
                        tentative_seq::<P, true>(model.program, model.budget, core)
                    }
                }
            }
            other => other,
        }
    }
}

impl<'p, P> Machine<'p, P>
where
    P: Program + Sync,
    P::Private: Send,
{
    /// The one run entry point: run under `adversary` until the program
    /// completes **or** `control` asks for a pause at a tick boundary, on
    /// the engine `spec` names.
    ///
    /// | `spec.exec` | `panic: None` | `panic: Some(policy)` |
    /// |---|---|---|
    /// | `Sequential`, `Threads(1)` | sequential | sequential, panics caught |
    /// | `Threads(n ≥ 2)` | private `n`-worker pool | private pool, isolated |
    /// | `Pool(shared)` | shared pool | shared pool, isolated |
    /// | `Threads(0)` | [`PramError::InvalidConfig`] | same |
    ///
    /// Every row produces the identical event stream, accounting, failure
    /// pattern and memory. The pooled rows farm every heavy phase of the
    /// tick — tentative phase and commit — out to the workers, whose
    /// chunks are merged in rank order; a private pool
    /// is spawned once per call and parked between ticks, so a
    /// steady-state tick performs no thread spawns. A shared pool's turn
    /// lock is held for the whole call, so concurrent callers serialize;
    /// pause through `control` to time-share it.
    ///
    /// An *isolated* pooled run backs up every private state before each
    /// tentative phase, so a caught panic restores the tick boundary and
    /// `policy` decides what follows: [`PanicPolicy::Surface`] returns
    /// [`PramError::WorkerPanic`] with the machine intact, and
    /// [`PanicPolicy::FallbackSequential`] replays the tick sequentially
    /// and finishes the run there with results identical to an
    /// undisturbed run. The sequential engine has nothing to fall back to
    /// and surfaces the panic under either policy.
    ///
    /// `control` receives the tick about to execute. On
    /// [`RunStatus::Paused`] the machine holds no transient state: save a
    /// [`Checkpoint`] with [`Machine::save_checkpoint`], or call a run
    /// method again to continue. The callback is consulted again with the
    /// same tick number on resume, so a "pause at tick k" predicate must be
    /// rearmed by the caller.
    ///
    /// # Errors
    ///
    /// See [`PramError`]; [`PramError::WorkerPanic`] as described above.
    pub fn run_with<A: Adversary + ?Sized>(
        &mut self,
        spec: RunSpec<'_>,
        adversary: &mut A,
        observer: &mut dyn Observer,
        control: impl FnMut(u64) -> RunControl,
    ) -> Result<RunStatus> {
        match spec.exec {
            ExecMode::Sequential | ExecMode::Threads(1) => {
                self.run_sequential(spec.panic, spec.limits, adversary, observer, control)
            }
            ExecMode::Threads(0) => {
                Err(PramError::InvalidConfig { detail: "need at least one thread".into() })
            }
            ExecMode::Threads(threads) => {
                let pool = TickPool::new(threads);
                std::thread::scope(|scope| {
                    let _shutdown = PoolShutdown(&pool);
                    let pool = &pool;
                    for rank in 0..threads {
                        scope.spawn(move || pool.worker(rank));
                    }
                    self.run_pooled(pool, spec, adversary, observer, control)
                })
            }
            ExecMode::Pool(shared) => {
                let _turn = shared.turn.lock().unwrap_or_else(PoisonError::into_inner);
                shared.pool.bind_coordinator();
                self.run_pooled(&shared.pool, spec, adversary, observer, control)
            }
        }
    }

    /// The pooled rows of [`Machine::run_with`]'s table, on a pool whose
    /// workers are running and whose coordinator is the calling thread.
    fn run_pooled<A: Adversary + ?Sized>(
        &mut self,
        pool: &TickPool,
        spec: RunSpec<'_>,
        adversary: &mut A,
        observer: &mut dyn Observer,
        control: impl FnMut(u64) -> RunControl,
    ) -> Result<RunStatus> {
        let Machine { model, core } = self;
        let limits = spec.limits;
        match spec.panic {
            None => {
                let mut backend = PooledBackend { pool };
                core.run_loop(model, adversary, limits, observer, &mut backend, control)
            }
            Some(policy) => {
                let backup = vec![None; core.procs.len()];
                let mut backend = IsolatedBackend { pool, policy, backup, degraded: false };
                core.run_loop(model, adversary, limits, observer, &mut backend, control)
            }
        }
    }

    /// Run to completion on a private pool of `threads` workers,
    /// streaming every event to `observer`: [`Machine::run_with`] with
    /// [`ExecMode::Threads`] and no pause.
    ///
    /// # Errors
    ///
    /// See [`PramError`]. Additionally [`PramError::InvalidConfig`] if
    /// `threads == 0`.
    pub fn run_threaded_observed<A: Adversary>(
        &mut self,
        adversary: &mut A,
        limits: RunLimits,
        threads: usize,
        observer: &mut dyn Observer,
    ) -> Result<RunReport> {
        let spec = RunSpec { exec: ExecMode::Threads(threads), panic: None, limits };
        completed(self.run_with(spec, adversary, observer, |_| RunControl::Continue))
    }
}

/// A persistent worker pool shared across machines and run segments.
///
/// [`ExecMode::Threads`] builds a private [`TickPool`] per call — right
/// for a single run, but wasteful (and impossible to time-share) when a
/// daemon multiplexes many paused runs over one set of OS threads.
/// `SharedPool` owns its workers for as long as the value lives; any
/// thread may drive a run segment on it through [`Machine::run_with`] with
/// [`ExecMode::Pool`], one segment at a time: an internal turn lock
/// serializes drivers, and each driver re-binds the pool's coordinator to
/// itself before its first tick.
pub struct SharedPool {
    pool: Arc<TickPool>,
    /// Serializes run segments: at most one coordinator drives the workers
    /// at any moment.
    turn: Mutex<()>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl SharedPool {
    /// Spawn `threads` parked workers (`threads >= 2`; a single thread
    /// should use the sequential engine instead — the pool's coordination
    /// protocol assumes at least two workers).
    ///
    /// # Errors
    ///
    /// [`PramError::InvalidConfig`] if `threads < 2`.
    pub fn new(threads: usize) -> Result<Self> {
        if threads < 2 {
            return Err(PramError::InvalidConfig {
                detail: "a shared pool needs at least two threads".into(),
            });
        }
        let pool = Arc::new(TickPool::new(threads));
        let handles = (0..threads)
            .map(|rank| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || pool.worker(rank))
            })
            .collect();
        Ok(SharedPool { pool, turn: Mutex::new(()), handles })
    }

    /// Number of worker threads the pool owns.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }
}

impl std::fmt::Debug for SharedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPool").field("threads", &self.threads()).finish_non_exhaustive()
    }
}

impl Drop for SharedPool {
    fn drop(&mut self) {
        self.pool.shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::RunOutcome;
    use crate::adversary::{Decisions, FailPoint, MachineView, NoFailures};
    use crate::cycle::WriteSet;
    use crate::Program;

    /// Each processor repeatedly increments its own cell until it reaches
    /// `target`, then halts.
    struct Counter {
        n: usize,
        target: Word,
    }

    impl Program for Counter {
        type Private = ();
        fn shared_size(&self) -> usize {
            self.n
        }
        fn on_start(&self, _pid: Pid) {}
        fn plan(&self, pid: Pid, _st: &(), values: &[Word], reads: &mut ReadSet) {
            if values.is_empty() {
                reads.push(pid.0);
            }
        }
        fn execute(&self, pid: Pid, _st: &mut (), vals: &[Word], writes: &mut WriteSet) -> Step {
            if vals[0] >= self.target {
                return Step::Halt;
            }
            writes.push(pid.0, vals[0] + 1);
            Step::Continue
        }
        fn is_complete(&self, mem: &SharedMemory) -> bool {
            (0..self.n).all(|i| mem.peek(i) >= self.target)
        }
    }

    #[test]
    fn counter_completes_without_failures() {
        let prog = Counter { n: 4, target: 3 };
        let mut m = Machine::new(&prog, 4, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut NoFailures).unwrap();
        assert_eq!(report.outcome, RunOutcome::Completed);
        // 3 increments per processor; completion is detected before the
        // halting cycle runs.
        assert_eq!(report.stats.completed_cycles, 12);
        assert_eq!(report.stats.parallel_time, 3);
        assert!(report.pattern.is_empty());
        assert_eq!(m.memory().peek(0), 3);
    }

    /// A [`SharedPool`] outlives any one run segment and may be driven
    /// from whichever thread holds the turn: pause on one thread, finish
    /// on another, and the result still matches the sequential engine.
    #[test]
    fn shared_pool_runs_segments_from_different_threads() {
        assert!(SharedPool::new(1).is_err());
        let pool = SharedPool::new(2).unwrap();
        assert_eq!(pool.threads(), 2);
        let prog = Counter { n: 8, target: 5 };
        let mut m = Machine::new(&prog, 8, CycleBudget::PAPER).unwrap();
        let spec = RunSpec {
            exec: ExecMode::Pool(&pool),
            panic: Some(PanicPolicy::Surface),
            limits: RunLimits::default(),
        };
        let status = m
            .run_with(spec, &mut NoFailures, &mut NoopObserver, |c| {
                if c >= 2 {
                    RunControl::Pause
                } else {
                    RunControl::Continue
                }
            })
            .unwrap();
        assert!(matches!(status, RunStatus::Paused { cycle: 2 }));
        let status = std::thread::scope(|s| {
            s.spawn(|| {
                m.run_with(spec, &mut NoFailures, &mut NoopObserver, |_| RunControl::Continue)
                    .unwrap()
            })
            .join()
            .unwrap()
        });
        let RunStatus::Completed(report) = status else {
            panic!("expected completion, got {status:?}");
        };
        assert_eq!(report.outcome, RunOutcome::Completed);
        let prog2 = Counter { n: 8, target: 5 };
        let mut seq = Machine::new(&prog2, 8, CycleBudget::PAPER).unwrap();
        let seq_report = seq.run(&mut NoFailures).unwrap();
        assert_eq!(report.stats, seq_report.stats);
    }

    /// Adversary that fails processor 1 before its writes in cycle 0 and
    /// restarts it for cycle 2.
    struct OneHiccup;
    impl Adversary for OneHiccup {
        fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
            let mut d = Decisions::none();
            if view.cycle == 0 {
                d.fail(Pid(1), FailPoint::BeforeWrites);
            }
            if view.cycle == 1 {
                d.restart(Pid(1));
            }
            d
        }
    }

    #[test]
    fn failure_discards_writes_and_is_not_charged() {
        let prog = Counter { n: 2, target: 2 };
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut OneHiccup).unwrap();
        // P0: 2 increments plus a charged halting cycle. P1: loses cycle 0,
        // idle cycle 1, increments in cycles 2 and 3.
        assert_eq!(m.memory().peek(0), 2);
        assert_eq!(m.memory().peek(1), 2);
        assert_eq!(report.stats.interrupted_cycles, 1);
        assert_eq!(report.stats.failures, 1);
        assert_eq!(report.stats.restarts, 1);
        assert_eq!(report.stats.pattern_size(), 2);
        assert_eq!(report.stats.completed_cycles, 5);
        assert_eq!(report.stats.parallel_time, 4);
        // S' = S + interrupted.
        assert_eq!(report.stats.s_prime(), 6);
    }

    /// Stops P1 once `BeforeWrites` (cycle 0) and once `BeforeReads`
    /// (cycle 2), restarting it after each.
    struct TwoStops;
    impl Adversary for TwoStops {
        fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
            let mut d = Decisions::none();
            match view.cycle {
                0 => {
                    d.fail(Pid(1), FailPoint::BeforeWrites);
                }
                1 | 3 => {
                    d.restart(Pid(1));
                }
                2 => {
                    d.fail(Pid(1), FailPoint::BeforeReads);
                }
                _ => {}
            }
            d
        }
    }

    /// Pins the `S'` partial-work accounting per fail point: a cycle
    /// stopped `BeforeWrites` is charged its reads and computation
    /// (`reads + 1 + 0`), a cycle stopped `BeforeReads` executed nothing
    /// and is charged 0 (via `CycleFate::InterruptedBeforeReads`, not a
    /// sentinel).
    #[test]
    fn partial_instructions_distinguish_fail_points() {
        let prog = Counter { n: 2, target: 2 };
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut TwoStops).unwrap();
        assert_eq!(report.stats.interrupted_cycles, 2);
        // Cycle 0 (BeforeWrites): 1 read + 1 compute + 0 writes = 2.
        // Cycle 2 (BeforeReads): 0.
        assert_eq!(report.stats.partial_instructions, 2);
        assert_eq!(report.stats.failures, 2);
        assert_eq!(report.stats.restarts, 2);
        assert_eq!(m.memory().peek(1), 2);
    }

    /// Pins the read instrumentation: a read is charged iff the cycle's
    /// read phase actually ran. Under [`TwoStops`], processor 0 completes
    /// cycles 0–2 (3 reads), processor 1 is stopped `BeforeWrites` in
    /// cycle 0 (read ran: 1), stopped `BeforeReads` in cycle 2 (read never
    /// ran: 0), then completes cycles 4–5 after its restart (2 reads).
    #[test]
    fn read_count_charges_executed_read_phases() {
        let prog = Counter { n: 2, target: 2 };
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        m.run(&mut TwoStops).unwrap();
        assert_eq!(m.memory().read_count(), 6);
    }

    /// Write-conflict program: both processors write different values to
    /// cell 0.
    struct Clash;
    impl Program for Clash {
        type Private = ();
        fn shared_size(&self) -> usize {
            1
        }
        fn on_start(&self, _pid: Pid) {}
        fn plan(&self, _pid: Pid, _st: &(), _vals: &[Word], _reads: &mut ReadSet) {}
        fn execute(&self, pid: Pid, _st: &mut (), _v: &[Word], writes: &mut WriteSet) -> Step {
            writes.push(0, pid.0 as Word + 1);
            Step::Halt
        }
        fn is_complete(&self, mem: &SharedMemory) -> bool {
            mem.peek(0) != 0
        }
    }

    #[test]
    fn common_mode_detects_conflicts() {
        let prog = Clash;
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        let err = m.run(&mut NoFailures).unwrap_err();
        assert!(matches!(err, PramError::CommonWriteConflict { addr: 0, .. }));
    }

    #[test]
    fn arbitrary_mode_lowest_pid_wins() {
        let prog = Clash;
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        m.set_write_mode(WriteMode::Arbitrary);
        m.run(&mut NoFailures).unwrap();
        assert_eq!(m.memory().peek(0), 1); // P0's value
    }

    #[test]
    fn exclusive_mode_rejects_concurrent_writes() {
        let prog = Clash;
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        m.set_write_mode(WriteMode::Exclusive);
        let err = m.run(&mut NoFailures).unwrap_err();
        assert!(matches!(err, PramError::ExclusiveWriteConflict { addr: 0, .. }));
    }

    /// Adversary failing everyone mid-cycle — must be rejected.
    struct KillAll;
    impl Adversary for KillAll {
        fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
            let mut d = Decisions::none();
            for pid in view.active_pids() {
                d.fail(pid, FailPoint::BeforeWrites);
            }
            d
        }
    }

    #[test]
    fn stalling_adversary_is_rejected() {
        let prog = Counter { n: 2, target: 1 };
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        let err = m.run(&mut KillAll).unwrap_err();
        assert_eq!(err, PramError::AdversaryStall { cycle: 0 });
    }

    /// A program that halts immediately without completing — deadlock.
    struct GiveUp;
    impl Program for GiveUp {
        type Private = ();
        fn shared_size(&self) -> usize {
            1
        }
        fn on_start(&self, _pid: Pid) {}
        fn plan(&self, _pid: Pid, _st: &(), _vals: &[Word], _reads: &mut ReadSet) {}
        fn execute(&self, _pid: Pid, _st: &mut (), _v: &[Word], _w: &mut WriteSet) -> Step {
            Step::Halt
        }
        fn is_complete(&self, _mem: &SharedMemory) -> bool {
            false
        }
    }

    #[test]
    fn deadlock_is_detected() {
        let prog = GiveUp;
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        let err = m.run(&mut NoFailures).unwrap_err();
        assert!(matches!(err, PramError::Deadlock { .. }));
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let prog = Counter { n: 1, target: 1_000 };
        let mut m = Machine::new(&prog, 1, CycleBudget::PAPER).unwrap();
        let err = m
            .run_observed(&mut NoFailures, RunLimits { max_cycles: 10 }, &mut NoopObserver)
            .unwrap_err();
        assert_eq!(err, PramError::CycleLimit { cycles: 10 });
    }

    /// Failing after the final write both commits and charges the cycle.
    struct FailAfterFinalWrite;
    impl Adversary for FailAfterFinalWrite {
        fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
            let mut d = Decisions::none();
            if view.cycle == 0 {
                if let Some(t) = view.tentative[1].as_ref() {
                    d.fail(Pid(1), FailPoint::AfterWrite(t.writes.len()));
                    d.restart(Pid(1));
                }
            }
            d
        }
    }

    #[test]
    fn fail_after_last_write_still_charges_cycle() {
        let prog = Counter { n: 2, target: 2 };
        let mut m = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut FailAfterFinalWrite).unwrap();
        assert_eq!(m.memory().peek(1), 2);
        assert_eq!(report.stats.interrupted_cycles, 0);
        assert_eq!(report.stats.failures, 1);
        // P1's cycle-0 write committed even though it then failed.
        assert_eq!(report.stats.completed_cycles, 4);
    }

    #[test]
    fn budget_violation_is_reported() {
        struct Greedy;
        impl Program for Greedy {
            type Private = ();
            fn shared_size(&self) -> usize {
                8
            }
            fn on_start(&self, _pid: Pid) {}
            fn plan(&self, _pid: Pid, _st: &(), _vals: &[Word], reads: &mut ReadSet) {
                for a in 0..5 {
                    reads.push(a);
                }
            }
            fn execute(&self, _p: Pid, _s: &mut (), _v: &[Word], _w: &mut WriteSet) -> Step {
                Step::Halt
            }
            fn is_complete(&self, _mem: &SharedMemory) -> bool {
                false
            }
        }
        let prog = Greedy;
        let mut m = Machine::new(&prog, 1, CycleBudget::PAPER).unwrap();
        let err = m.run(&mut NoFailures).unwrap_err();
        assert!(matches!(
            err,
            PramError::BudgetExceeded { kind: BudgetKind::Reads, used: 5, limit: 4, .. }
        ));
    }

    #[test]
    fn oversized_budget_is_rejected() {
        let prog = Counter { n: 1, target: 1 };
        assert!(matches!(
            Machine::new(&prog, 1, CycleBudget { reads: MAX_READS + 1, writes: 1 }),
            Err(PramError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Machine::new(&prog, 1, CycleBudget { reads: 1, writes: MAX_WRITES + 1 }),
            Err(PramError::InvalidConfig { .. })
        ));
    }

    /// Every row of `run_with`'s backend table — each exec mode, with and
    /// without a panic policy — produces the sequential engine's event
    /// stream, stats, failure pattern and memory, and `Threads(0)` is
    /// rejected.
    #[test]
    fn every_run_spec_matches_sequential() {
        use crate::trace::TraceRecorder;

        let prog = Counter { n: 16, target: 5 };
        let run = |spec: RunSpec<'_>| {
            let mut m = Machine::new(&prog, 16, CycleBudget::PAPER).unwrap();
            let mut trace = TraceRecorder::unbounded();
            let status = m.run_with(spec, &mut OneHiccup, &mut trace, |_| RunControl::Continue);
            let report = completed(status)?;
            Ok::<_, PramError>((trace.to_jsonl(), report, m.memory().as_slice().to_vec()))
        };
        let (trace, report, mem) = run(RunSpec::default()).unwrap();
        assert!(!report.pattern.is_empty(), "the adversary failed and restarted P1");
        let pool = SharedPool::new(2).unwrap();
        let execs = [
            ExecMode::Sequential,
            ExecMode::Threads(1),
            ExecMode::Threads(3),
            ExecMode::Pool(&pool),
        ];
        let panics = [None, Some(PanicPolicy::Surface), Some(PanicPolicy::FallbackSequential)];
        for exec in execs {
            for panic in panics {
                let spec = RunSpec { exec, panic, limits: RunLimits::default() };
                let (row_trace, row_report, row_mem) = run(spec).unwrap();
                assert_eq!(row_trace, trace, "{spec:?}: event stream");
                assert_eq!(row_report.stats, report.stats, "{spec:?}: stats");
                assert_eq!(row_report.pattern, report.pattern, "{spec:?}: failure pattern");
                assert_eq!(row_mem, mem, "{spec:?}: memory");
            }
        }
        for panic in panics {
            let spec = RunSpec { exec: ExecMode::Threads(0), panic, limits: RunLimits::default() };
            assert!(matches!(run(spec), Err(PramError::InvalidConfig { .. })), "{spec:?}");
        }
    }

    /// Counter with an incremental completion hint: cell `i` is satisfied
    /// once it reaches `target`.
    struct HintedCounter {
        n: usize,
        target: Word,
    }

    impl Program for HintedCounter {
        type Private = ();
        fn shared_size(&self) -> usize {
            self.n
        }
        fn on_start(&self, _pid: Pid) {}
        fn plan(&self, pid: Pid, _st: &(), values: &[Word], reads: &mut ReadSet) {
            if values.is_empty() {
                reads.push(pid.0);
            }
        }
        fn execute(&self, pid: Pid, _st: &mut (), vals: &[Word], writes: &mut WriteSet) -> Step {
            if vals[0] >= self.target {
                return Step::Halt;
            }
            writes.push(pid.0, vals[0] + 1);
            Step::Continue
        }
        fn is_complete(&self, mem: &SharedMemory) -> bool {
            (0..self.n).all(|i| mem.peek(i) >= self.target)
        }
        fn completion_hint(&self, _addr: usize, value: Word) -> CompletionHint {
            if value >= self.target {
                CompletionHint::Satisfied
            } else {
                CompletionHint::Outstanding
            }
        }
    }

    /// The tracked engine must behave exactly like the full-scan engine
    /// (the run-loop debug_assert also cross-checks the outstanding count
    /// against `is_complete` every tick).
    #[test]
    fn completion_hint_matches_full_scan() {
        let plain = Counter { n: 4, target: 3 };
        let mut m1 = Machine::new(&plain, 4, CycleBudget::PAPER).unwrap();
        let r1 = m1.run(&mut OneHiccup).unwrap();
        let hinted = HintedCounter { n: 4, target: 3 };
        let mut m2 = Machine::new(&hinted, 4, CycleBudget::PAPER).unwrap();
        let r2 = m2.run(&mut OneHiccup).unwrap();
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(m1.memory().as_slice(), m2.memory().as_slice());
    }

    /// The tracker must survive a second run on the same machine (it is
    /// re-primed from memory at every run entry).
    #[test]
    fn completion_tracker_reinitializes_between_runs() {
        let hinted = HintedCounter { n: 2, target: 1 };
        let mut m = Machine::new(&hinted, 2, CycleBudget::PAPER).unwrap();
        m.run(&mut NoFailures).unwrap();
        for i in 0..2 {
            m.memory_mut().poke(i, 0);
        }
        let report = m.run(&mut NoFailures).unwrap();
        assert_eq!(report.outcome, RunOutcome::Completed);
        assert_eq!(m.memory().peek(0), 1);
        assert_eq!(m.memory().peek(1), 1);
    }

    #[test]
    fn zero_processors_is_invalid() {
        let prog = Counter { n: 1, target: 1 };
        assert!(matches!(
            Machine::new(&prog, 0, CycleBudget::PAPER),
            Err(PramError::InvalidConfig { .. })
        ));
    }

    /// Counter whose `execute` panics exactly once, on `victim`'s first
    /// cycle — a model of faulty host code for the panic-isolation engine.
    struct BoobyTrap {
        n: usize,
        target: Word,
        victim: usize,
        fired: std::sync::atomic::AtomicBool,
    }

    impl Program for BoobyTrap {
        type Private = ();
        fn shared_size(&self) -> usize {
            self.n
        }
        fn on_start(&self, _pid: Pid) {}
        fn plan(&self, pid: Pid, _st: &(), values: &[Word], reads: &mut ReadSet) {
            if values.is_empty() {
                reads.push(pid.0);
            }
        }
        fn execute(&self, pid: Pid, _st: &mut (), vals: &[Word], writes: &mut WriteSet) -> Step {
            if pid.0 == self.victim && !self.fired.swap(true, std::sync::atomic::Ordering::SeqCst) {
                panic!("injected fault in P{}", pid.0);
            }
            if vals[0] >= self.target {
                return Step::Halt;
            }
            writes.push(pid.0, vals[0] + 1);
            Step::Continue
        }
        fn is_complete(&self, mem: &SharedMemory) -> bool {
            (0..self.n).all(|i| mem.peek(i) >= self.target)
        }
    }

    /// A 4-worker private pool with per-processor panic isolation.
    fn isolated(policy: PanicPolicy) -> RunSpec<'static> {
        RunSpec { exec: ExecMode::Threads(4), panic: Some(policy), limits: RunLimits::default() }
    }

    fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    /// Under `FallbackSequential`, a panicking program degrades to the
    /// sequential engine mid-run and still produces results identical to a
    /// clean run of the same algorithm.
    #[test]
    fn panic_fallback_matches_clean_run() {
        with_quiet_panics(|| {
            let clean = Counter { n: 8, target: 4 };
            let mut reference = Machine::new(&clean, 8, CycleBudget::PAPER).unwrap();
            let expected = reference.run(&mut NoFailures).unwrap();

            let trapped = BoobyTrap {
                n: 8,
                target: 4,
                victim: 3,
                fired: std::sync::atomic::AtomicBool::new(false),
            };
            let mut m = Machine::new(&trapped, 8, CycleBudget::PAPER).unwrap();
            let report = completed(m.run_with(
                isolated(PanicPolicy::FallbackSequential),
                &mut NoFailures,
                &mut NoopObserver,
                |_| RunControl::Continue,
            ))
            .unwrap();
            assert!(trapped.fired.load(std::sync::atomic::Ordering::SeqCst));
            assert_eq!(report.stats, expected.stats);
            assert_eq!(report.per_processor, expected.per_processor);
            assert_eq!(m.memory().as_slice(), reference.memory().as_slice());
        });
    }

    /// The sequential replay after a worker panic re-runs the *tentative*
    /// phase only — nothing had committed, so the memory read/write
    /// counters (total and per-bank) must equal an uninterrupted run's,
    /// not charge the tick twice.
    #[test]
    fn panic_fallback_does_not_double_charge_counters() {
        with_quiet_panics(|| {
            let layout = MemoryLayout::Banked { banks: 3, interleave: 1 };
            let clean = Counter { n: 8, target: 4 };
            let mut reference =
                Machine::with_layout(&clean, 8, CycleBudget::PAPER, layout).unwrap();
            reference.run(&mut NoFailures).unwrap();

            let trapped = BoobyTrap {
                n: 8,
                target: 4,
                victim: 3,
                fired: std::sync::atomic::AtomicBool::new(false),
            };
            let mut m = Machine::with_layout(&trapped, 8, CycleBudget::PAPER, layout).unwrap();
            m.run_with(
                isolated(PanicPolicy::FallbackSequential),
                &mut NoFailures,
                &mut NoopObserver,
                |_| RunControl::Continue,
            )
            .unwrap();
            assert!(trapped.fired.load(std::sync::atomic::Ordering::SeqCst));
            assert_eq!(m.memory().read_count(), reference.memory().read_count());
            assert_eq!(m.memory().write_count(), reference.memory().write_count());
            assert_eq!(m.memory().bank_counters(), reference.memory().bank_counters());
        });
    }

    /// Under `Surface`, the panic aborts the run as a `WorkerPanic` naming
    /// the processor — and the machine is left consistent at the tick
    /// boundary, so the run can even be finished afterwards.
    #[test]
    fn panic_surface_reports_pid_and_leaves_machine_resumable() {
        with_quiet_panics(|| {
            let trapped = BoobyTrap {
                n: 8,
                target: 4,
                victim: 5,
                fired: std::sync::atomic::AtomicBool::new(false),
            };
            let mut m = Machine::new(&trapped, 8, CycleBudget::PAPER).unwrap();
            let err = m
                .run_with(
                    isolated(PanicPolicy::Surface),
                    &mut NoFailures,
                    &mut NoopObserver,
                    |_| RunControl::Continue,
                )
                .unwrap_err();
            assert!(
                matches!(&err, PramError::WorkerPanic { pid: Some(Pid(5)), detail }
                    if detail.contains("injected fault")),
                "unexpected error: {err:?}"
            );
            // The pre-tick states were restored: the interrupted run can
            // simply continue (the trap only fires once).
            let report = m.run(&mut NoFailures).unwrap();
            let clean = Counter { n: 8, target: 4 };
            let mut reference = Machine::new(&clean, 8, CycleBudget::PAPER).unwrap();
            let expected = reference.run(&mut NoFailures).unwrap();
            assert_eq!(report.stats, expected.stats);
            assert_eq!(m.memory().as_slice(), reference.memory().as_slice());
        });
    }

    /// Pause mid-run, checkpoint, restore into a *fresh* machine and
    /// adversary, finish — and get the identical report, memory and
    /// concatenated event stream as the uninterrupted run.
    #[test]
    fn checkpoint_resume_is_bit_identical() {
        use crate::failure::ScheduledAdversary;
        use crate::trace::TraceRecorder;

        let prog = Counter { n: 4, target: 3 };

        // Record a pattern worth replaying (a failure + a restart).
        let mut m0 = Machine::new(&prog, 4, CycleBudget::PAPER).unwrap();
        let pattern = m0.run(&mut OneHiccup).unwrap().pattern;
        assert!(!pattern.is_empty());

        // Uninterrupted reference run under the replayed pattern.
        let mut straight = Machine::new(&prog, 4, CycleBudget::PAPER).unwrap();
        let mut straight_trace = TraceRecorder::unbounded();
        let expected = straight
            .run_observed(
                &mut ScheduledAdversary::new(pattern.clone()),
                RunLimits::default(),
                &mut straight_trace,
            )
            .unwrap();

        // Interrupted run: pause before tick 2, checkpoint, drop everything.
        let mut first = Machine::new(&prog, 4, CycleBudget::PAPER).unwrap();
        let mut adv1 = ScheduledAdversary::new(pattern.clone());
        let mut trace1 = TraceRecorder::unbounded();
        let status = first
            .run_with(RunSpec::default(), &mut adv1, &mut trace1, |cycle| {
                if cycle == 2 {
                    RunControl::Pause
                } else {
                    RunControl::Continue
                }
            })
            .unwrap();
        assert!(matches!(status, RunStatus::Paused { cycle: 2 }));
        let ck = first.save_checkpoint(&adv1).unwrap();
        drop(first);
        drop(adv1);

        // Resume in a fresh machine + fresh adversary.
        let mut second = Machine::new(&prog, 4, CycleBudget::PAPER).unwrap();
        let mut adv2 = ScheduledAdversary::new(pattern);
        second.restore_checkpoint(&ck, &mut adv2).unwrap();
        assert_eq!(second.cycle(), 2);
        let mut trace2 = TraceRecorder::unbounded();
        let report = second.run_observed(&mut adv2, RunLimits::default(), &mut trace2).unwrap();

        assert_eq!(report.stats, expected.stats);
        assert_eq!(report.pattern, expected.pattern);
        assert_eq!(report.per_processor, expected.per_processor);
        assert_eq!(second.memory().as_slice(), straight.memory().as_slice());
        let concatenated: Vec<_> = trace1.events().chain(trace2.events()).cloned().collect();
        let straight_events: Vec<_> = straight_trace.events().cloned().collect();
        assert_eq!(concatenated, straight_events);
    }

    /// A checkpoint survives the JSON round-trip and restore rejects a
    /// machine of the wrong shape.
    #[test]
    fn checkpoint_json_and_shape_validation() {
        use crate::checkpoint::Checkpoint;

        let prog = Counter { n: 4, target: 3 };
        let mut m = Machine::new(&prog, 4, CycleBudget::PAPER).unwrap();
        let status = m
            .run_with(RunSpec::default(), &mut NoFailures, &mut NoopObserver, |c| {
                if c == 1 {
                    RunControl::Pause
                } else {
                    RunControl::Continue
                }
            })
            .unwrap();
        assert!(matches!(status, RunStatus::Paused { cycle: 1 }));
        let ck = Checkpoint::from_json(&m.save_checkpoint(&NoFailures).unwrap().to_json()).unwrap();
        assert_eq!(ck.model, "word");

        // Wrong processor count.
        let mut wrong = Machine::new(&prog, 2, CycleBudget::PAPER).unwrap();
        let err = wrong.restore_checkpoint(&ck, &mut NoFailures).unwrap_err();
        assert!(matches!(&err, PramError::Checkpoint { detail } if detail.contains("processors")));

        // Right shape restores and completes.
        let mut right = Machine::new(&prog, 4, CycleBudget::PAPER).unwrap();
        right.restore_checkpoint(&ck, &mut NoFailures).unwrap();
        let report = right.run(&mut NoFailures).unwrap();
        assert_eq!(report.outcome, RunOutcome::Completed);
    }
}
