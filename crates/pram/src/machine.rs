//! The machine: [`Pram`], one restartable fail-stop PRAM over any
//! [`ExecutionModel`], and the word model that [`Machine`] runs.
//!
//! Each tick the machine plays one update cycle for every alive processor:
//!
//! 1. **Tentative phase** — every alive processor reads the memory state
//!    from the start of the tick (synchronous PRAM: nobody sees this tick's
//!    writes) and computes its writes by advancing its private state in
//!    place.
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
//! A [`Pram`] pairs a model with the model-generic [`Core`], which owns
//! that phase structure for every model (see [`crate::exec`]). The paper's
//! two machines differ only in the model, and each has an alias:
//! [`Machine`] runs a [`Program`] under the word model ([`WordModel`]),
//! whose read phase is a charged plan chain bounded by a [`CycleBudget`];
//! [`SnapshotMachine`](crate::SnapshotMachine) runs a
//! [`SnapshotProgram`](crate::SnapshotProgram) under the §3 snapshot model,
//! whose read phase is a free read of all of memory.
//!
//! Every run enters through one method, [`Pram::run_with`]: a [`RunSpec`]
//! names the tick engine ([`ExecMode`]), the optional [`PanicPolicy`] and
//! the [`RunLimits`], and `run_with` holds the only table that maps a spec
//! to a backend, for both models. [`Pram::run`], [`Pram::run_observed`] and
//! [`Pram::run_threaded_observed`] are one-line forms of it. The pooled
//! rows farm the tentative phase out to a persistent worker pool; every
//! row then commits through the same sequential merge on the calling
//! thread, so every observable byte matches the sequential engine.
//!
//! A **steady-state tick performs no heap allocation and no thread
//! spawn**: all per-tick buffers live in the core and are reused; a pooled
//! run parks its workers between ticks; and programs that implement
//! [`Program::completion_hint`] replace the per-tick O(memory) completion
//! scan with an O(1) test of an outstanding-cell counter, primed 64 cells
//! at a time through [`Program::completion_masks`]. The word model keeps
//! no index of those cells: nothing in it asks which cells they are.

use crate::accounting::{RunReport, WorkStats};
use crate::adversary::{Adversary, ProcStatus, ReadRow};
use crate::cycle::{CycleBudget, ReadSet, Step, WriteSet, MAX_READS, MAX_WRITES};
use crate::error::{BudgetKind, PramError};
use crate::exec::{completed, Core, ExecutionModel, IsolatedBackend, PooledBackend, SeqBackend};
use crate::memory::{MemoryLayout, SharedMemory};
use crate::mode::WriteMode;
use crate::trace::{NoopObserver, Observer};
use crate::unvisited::UnvisitedIndex;
use crate::word::{Pid, Word};
use crate::{CompletionHint, Program, Result};

pub use crate::exec::{PanicPolicy, RunControl, RunLimits, RunStatus};
pub use crate::pool::SharedPool;

/// Which tick engine a run uses (see [`Pram::run_with`]).
#[derive(Clone, Copy, Debug, Default)]
pub enum ExecMode<'a> {
    /// The sequential engine: the calling thread plays every phase.
    #[default]
    Sequential,
    /// A private [`SharedPool`] of this many worker threads, spawned when
    /// the run starts and joined when it returns; the run itself takes the
    /// [`ExecMode::Pool`] row. `1` is the sequential engine; `0` is
    /// rejected.
    Threads(usize),
    /// A caller-owned [`SharedPool`], time-shared between runs; the
    /// calling thread holds the pool's turn for the whole run.
    Pool(&'a SharedPool),
}

/// How one run executes: the tick engine, panic isolation, and limits.
///
/// The default is the plain sequential engine with default limits — what
/// [`Pram::run`] uses.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunSpec<'a> {
    /// The tick engine.
    pub exec: ExecMode<'a>,
    /// `Some` plays every processor's tentative cycle under
    /// `catch_unwind`, so a panic in program code surfaces as
    /// [`PramError::WorkerPanic`] naming the processor; on a pool the
    /// policy also decides whether the run surfaces the panic or finishes
    /// sequentially. `None` catches nothing on the sequential engine, so a
    /// panic unwinds through the run. On a pool (`Threads(n ≥ 2)`, `Pool`)
    /// the pool still catches it, since a worker must not die mid-epoch:
    /// the run returns [`PramError::WorkerPanic`] with `pid: None` and
    /// leaves the machine mid-tick, in an unspecified state.
    pub panic: Option<PanicPolicy>,
    /// Safety limits.
    pub limits: RunLimits,
}

/// The word model's [`ExecutionModel`]: a charged, budgeted read phase
/// (the plan chain) followed by a budgeted write phase.
#[derive(Debug)]
pub struct WordModel<'p, P: Program> {
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

    /// Drive the plan chain — reads within a cycle may depend on values
    /// read earlier in the same cycle (ordinary sequential instructions) —
    /// within the read budget, then execute.
    ///
    /// `inline(always)`, like the tentative loop's `play_slot`: with plain
    /// `#[inline]` the compiler leaves it out of line, which puts a call per
    /// processor back on the hottest path of a tick (DESIGN §9).
    #[inline(always)]
    fn play(
        &self,
        mem: &SharedMemory,
        _index: Option<&UnvisitedIndex>,
        cycle: u64,
        pid: Pid,
        state: &mut P::Private,
        reads: &mut ReadRow<'_>,
        writes: &mut WriteSet,
    ) -> Result<Step> {
        loop {
            let mut batch = ReadSet::default();
            self.program.plan(pid, state, reads.values(), &mut batch);
            if batch.is_empty() {
                break;
            }
            if reads.len() + batch.len() > self.budget.reads {
                return Err(PramError::BudgetExceeded {
                    pid,
                    cycle,
                    kind: BudgetKind::Reads,
                    used: reads.len() + batch.len(),
                    limit: self.budget.reads,
                });
            }
            for &addr in batch.addrs() {
                if addr >= mem.size() {
                    return Err(PramError::AddressOutOfBounds { addr, size: mem.size() });
                }
                reads.push(addr, mem.peek(addr));
            }
        }
        Ok(self.program.execute(pid, state, reads.values(), writes))
    }

    fn partial_instructions(reads: usize, committed_writes: usize) -> u64 {
        // Reads and the local computation ran, plus the prefix of writes
        // that committed.
        (reads + 1 + committed_writes) as u64
    }

    fn checkpoint_budget(&self) -> (usize, usize) {
        (self.budget.reads, self.budget.writes)
    }
}

/// A restartable fail-stop CRCW PRAM: an [`ExecutionModel`] paired with the
/// shared execution core.
///
/// Code names one of its two aliases, [`Machine`] for the word model and
/// [`SnapshotMachine`](crate::SnapshotMachine) for the snapshot model; each
/// alias adds only its model's constructors. See the
/// [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Pram<M: ExecutionModel> {
    pub(crate) model: M,
    pub(crate) core: Core<M::Private>,
}

/// A restartable fail-stop CRCW PRAM running one [`Program`] under the word
/// model.
pub type Machine<'p, P> = Pram<WordModel<'p, P>>;

impl<'p, P: Program> Pram<WordModel<'p, P>> {
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
        if !budget.fits_inline() {
            return Err(PramError::InvalidConfig {
                detail: format!(
                    "cycle budget ({} reads / {} writes) exceeds the inline capacities \
                     ({MAX_READS} reads / {MAX_WRITES} writes)",
                    budget.reads, budget.writes
                ),
            });
        }
        let model = WordModel { program, budget };
        Pram::assemble(model, processors, WriteMode::Common, budget.writes, || {
            let mut mem = SharedMemory::with_layout(program.shared_size(), layout)?;
            program.init_memory(&mut mem);
            Ok(mem)
        })
    }

    /// Set the concurrent-write semantics (default: COMMON).
    pub fn set_write_mode(&mut self, mode: WriteMode) -> &mut Self {
        self.core.mode = mode;
        self
    }
}

impl<M: ExecutionModel> Pram<M> {
    /// Pair `model` with a fresh core of `processors` processors over the
    /// memory `mem` builds, merging `write_slots` write slots per tick
    /// under `mode`. The one constructor behind both models'.
    ///
    /// # Errors
    ///
    /// [`PramError::InvalidConfig`] if `processors == 0` (checked before
    /// `mem` allocates anything), and whatever `mem` returns.
    pub(crate) fn assemble(
        model: M,
        processors: usize,
        mode: WriteMode,
        write_slots: usize,
        mem: impl FnOnce() -> Result<SharedMemory>,
    ) -> Result<Self> {
        if processors == 0 {
            return Err(PramError::InvalidConfig { detail: "need at least one processor".into() });
        }
        let core = Core::new(&model, processors, mem()?, mode, write_slots);
        Ok(Pram { model, core })
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
    pub fn stats(&self) -> &WorkStats {
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

    /// Run to completion under `adversary` on the sequential engine with
    /// default [`RunLimits`].
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
    /// to `observer` (see [`crate::trace`]). Both models emit the same
    /// event vocabulary, so one trace pipeline serves both.
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
        let spec = RunSpec { limits, ..RunSpec::default() };
        completed(self.run_with(spec, adversary, observer, |_| RunControl::Continue))
    }

    /// Run to completion on a private pool of `threads` workers,
    /// streaming every event to `observer`: [`Pram::run_with`] with
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

    /// The one run entry point: run under `adversary` until the program
    /// completes **or** `control` asks for a pause at a tick boundary, on
    /// the engine `spec` names. The table holds for both models:
    ///
    /// | `spec.exec` | `panic: None` | `panic: Some(policy)` |
    /// |---|---|---|
    /// | `Sequential`, `Threads(1)` | sequential, a panic unwinds | sequential, panics caught |
    /// | `Threads(n ≥ 2)` | as `Pool`, on a private `n`-worker pool | same |
    /// | `Pool(shared)` | pooled, a panic is `WorkerPanic { pid: None }` | pooled, isolated |
    /// | `Threads(0)` | [`PramError::InvalidConfig`] | same |
    ///
    /// Every row produces the identical event stream, accounting, failure
    /// pattern and memory, and a rejected tick (a CRCW conflict, say)
    /// leaves the same memory on every row. The pooled rows farm the
    /// tentative phase out to the workers; every row commits through the
    /// same sequential merge on the calling thread, for both models.
    /// `Threads(n)` builds a [`SharedPool`] for the call and drops it on
    /// return; either way the workers park between ticks, so a
    /// steady-state tick performs no thread spawns. The pool's turn lock
    /// is held for the whole call, so concurrent callers of one
    /// shared pool serialize; pause through `control` to time-share it.
    ///
    /// An *isolated* pooled run backs up every private state before each
    /// tentative phase, so a caught panic restores the tick boundary and
    /// `policy` decides what follows: [`PanicPolicy::Surface`] returns
    /// [`PramError::WorkerPanic`] with the machine intact, and
    /// [`PanicPolicy::FallbackSequential`] replays the tick sequentially
    /// and finishes the run there with results identical to an
    /// undisturbed run. The sequential engine has nothing to fall back to
    /// and surfaces the panic under either policy. Without a policy a pool
    /// still catches a program panic (a worker must not die mid-epoch) but
    /// backs nothing up: the run returns `WorkerPanic` with `pid: None`
    /// and leaves the machine mid-tick, in an unspecified state.
    ///
    /// `control` receives the tick about to execute. On
    /// [`RunStatus::Paused`] the machine holds no transient state: save a
    /// [`Checkpoint`](crate::Checkpoint) with [`Pram::save_checkpoint`], or
    /// call a run method again to continue. The callback is consulted again with the
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
        let Pram { model, core } = self;
        let limits = spec.limits;
        match (spec.exec, spec.panic) {
            (ExecMode::Sequential | ExecMode::Threads(1), None) => {
                let backend = &mut SeqBackend::<false>;
                core.run_loop(model, adversary, limits, observer, backend, control)
            }
            (ExecMode::Sequential | ExecMode::Threads(1), Some(_)) => {
                let backend = &mut SeqBackend::<true>;
                core.run_loop(model, adversary, limits, observer, backend, control)
            }
            (ExecMode::Threads(0), _) => {
                Err(PramError::InvalidConfig { detail: "need at least one thread".into() })
            }
            (ExecMode::Threads(threads), _) => {
                let pool = SharedPool::new(threads)?;
                let spec = RunSpec { exec: ExecMode::Pool(&pool), ..spec };
                self.run_with(spec, adversary, observer, control)
            }
            (ExecMode::Pool(shared), None) => {
                let (_turn, pool) = shared.turn();
                let backend = &mut PooledBackend { pool };
                core.run_loop(model, adversary, limits, observer, backend, control)
            }
            (ExecMode::Pool(shared), Some(policy)) => {
                let (_turn, pool) = shared.turn();
                let backup = vec![None; core.procs.len()];
                let backend = &mut IsolatedBackend { pool, policy, backup, degraded: false };
                core.run_loop(model, adversary, limits, observer, backend, control)
            }
        }
    }

    /// Execute exactly one tick under `adversary` on the sequential engine
    /// (no completion check). Exposed for fine-grained tests and lock-step
    /// drivers; the completion tracker is kept consistent, so ticks and
    /// runs interleave freely.
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    pub fn tick<A: Adversary>(&mut self, adversary: &mut A) -> Result<()> {
        self.tick_observed(adversary, &mut NoopObserver)
    }

    /// [`Pram::tick`] with an event stream.
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    pub fn tick_observed<A: Adversary>(
        &mut self,
        adversary: &mut A,
        observer: &mut dyn Observer,
    ) -> Result<()> {
        self.core.tick(&self.model, adversary, observer, &mut SeqBackend::<false>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::RunOutcome;
    use crate::adversary::{Decisions, FailPoint, MachineView, NoFailures, TentativeCycle};
    use crate::decisions::FateKind;
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
    /// and is charged 0 (via `FateKind::InterruptedBeforeReads`, not a
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

    /// Like [`Clash`], but each cycle first reads the contested cell.
    struct ReadClash;
    impl Program for ReadClash {
        type Private = ();
        fn shared_size(&self) -> usize {
            1
        }
        fn on_start(&self, _pid: Pid) {}
        fn plan(&self, _pid: Pid, _st: &(), vals: &[Word], reads: &mut ReadSet) {
            if vals.is_empty() {
                reads.push(0);
            }
        }
        fn execute(&self, pid: Pid, _st: &mut (), _v: &[Word], writes: &mut WriteSet) -> Step {
            writes.push(0, pid.0 as Word + 1);
            Step::Halt
        }
        fn is_complete(&self, mem: &SharedMemory) -> bool {
            mem.peek(0) != 0
        }
    }

    /// P0 writes cell 0 alone; P1 and P2 write 2 and 3 to cell 1.
    struct SplitClash;
    impl Program for SplitClash {
        type Private = ();
        fn shared_size(&self) -> usize {
            2
        }
        fn on_start(&self, _pid: Pid) {}
        fn plan(&self, _pid: Pid, _st: &(), _vals: &[Word], _reads: &mut ReadSet) {}
        fn execute(&self, pid: Pid, _st: &mut (), _v: &[Word], writes: &mut WriteSet) -> Step {
            writes.push(pid.0.min(1), pid.0 as Word + 1);
            Step::Halt
        }
        fn is_complete(&self, mem: &SharedMemory) -> bool {
            mem.peek(1) != 0
        }
    }

    /// The `run_with` rows the commit tests run on: the sequential engine,
    /// a private 2-worker pool, and that pool with a panic policy.
    fn engine_specs() -> [RunSpec<'static>; 3] {
        [
            (ExecMode::Sequential, None),
            (ExecMode::Threads(2), None),
            (ExecMode::Threads(2), Some(PanicPolicy::Surface)),
        ]
        .map(|(exec, panic)| RunSpec { exec, panic, limits: RunLimits::default() })
    }

    /// Run `m` without failures on `spec` until it completes or errs.
    fn run_on<P: Program>(m: &mut Machine<'_, P>, spec: RunSpec<'_>) -> Result<RunReport> {
        completed(m.run_with(spec, &mut NoFailures, &mut NoopObserver, |_| RunControl::Continue))
    }

    /// A tick whose commit hits a CRCW conflict charges nothing on any
    /// engine: no cycle, no instruction, no read, and no processor changes
    /// status.
    #[test]
    fn a_conflicting_commit_charges_nothing() {
        for spec in engine_specs() {
            let mut m = Machine::new(&ReadClash, 2, CycleBudget::PAPER).unwrap();
            let err = run_on(&mut m, spec).unwrap_err();
            assert!(
                matches!(err, PramError::CommonWriteConflict { addr: 0, .. }),
                "{spec:?}: {err:?}"
            );
            assert_eq!(m.core.stats, WorkStats::default(), "{spec:?}");
            assert_eq!(m.memory().read_count(), 0, "{spec:?}");
            assert_eq!(m.core.procs.status, vec![ProcStatus::Alive; 2], "{spec:?}");
            assert_eq!(m.core.procs.completed, vec![0; 2], "{spec:?}");
        }
    }

    /// Every engine leaves the same machine after a conflict. Each commits
    /// a write slot in address order and stops at the first conflicting
    /// cell, so P0's store to cell 0 stays, with its bank's write count,
    /// while the tick charges nothing.
    #[test]
    fn a_conflict_leaves_the_same_memory_on_every_engine() {
        let conflict = PramError::CommonWriteConflict {
            addr: 1,
            cycle: 0,
            first: (Pid(1), 2),
            second: (Pid(2), 3),
        };
        for spec in engine_specs() {
            let mut m =
                Machine::with_layout(&SplitClash, 3, CycleBudget::PAPER, MemoryLayout::banked(2))
                    .unwrap();
            let err = run_on(&mut m, spec).unwrap_err();
            assert_eq!(err, conflict, "{spec:?}");
            assert_eq!(m.memory().to_vec(), vec![1, 0], "{spec:?}");
            assert_eq!(m.memory().bank_counters(), vec![(0, 1), (0, 0)], "{spec:?}");
            assert_eq!(m.core.stats, WorkStats::default(), "{spec:?}");
        }
    }

    /// The fate records are rewritten every tick. Whatever a legal tick
    /// that fails, halts and restarts processors, or any decision that
    /// `resolve` rejects, leaves in them, the next legal decision yields
    /// exactly the records, gathered writes and charges that a fresh
    /// machine computes from the same tentative cycles and decisions.
    #[test]
    fn no_fate_data_outlives_its_tick() {
        let prog = Counter { n: 8, target: 9 };
        // P0–P3 alive (P0 and P2 write twice, P2's cycle halts), P4
        // halted, P5 failed.
        let setup = || {
            let mut m = Machine::new(&prog, 6, CycleBudget::PAPER).unwrap();
            for i in 0..6 {
                let writes = [(i, 1), (i + 4, 1)];
                let cycle =
                    TentativeCycle { reads: &[i], writes: &writes[..2 - i % 2], halts: i == 2 };
                m.core.tentative.set(Pid(i), (i < 4).then_some(cycle));
            }
            m.core.procs.status[4] = ProcStatus::Halted;
            m.core.procs.status[5] = ProcStatus::Failed;
            m.core.procs.state[5] = None;
            m
        };
        let decide = |fails: &[(usize, FailPoint)], restarts: &[usize]| {
            let mut d = Decisions::none();
            for &(pid, point) in fails {
                d.fail(Pid(pid), point);
            }
            for &pid in restarts {
                d.restart(Pid(pid));
            }
            d
        };
        type Model<'p> = WordModel<'p, Counter>;
        let outcome = |m: &mut Machine<'_, Counter>, d: &Decisions| {
            let tick =
                m.core.resolve_and_prepass::<Model<'_>>(d.clone()).map(|(slots, charges)| {
                    (slots, charges, m.core.slot_writes.clone(), m.core.active.clone())
                });
            (tick, m.core.fates.clone(), m.core.read_tally.clone())
        };
        // Fails P0 mid-cycle, P1 before its reads and the halted P4;
        // restarts P4 and P5; P2 completes and halts.
        let legal = decide(
            &[
                (0, FailPoint::AfterWrite(1)),
                (1, FailPoint::BeforeReads),
                (4, FailPoint::BeforeWrites),
            ],
            &[4, 5],
        );
        // Stops P2 before its writes, and P3 after its only write (which
        // completes the cycle).
        let other = decide(&[(2, FailPoint::BeforeWrites), (3, FailPoint::AfterWrite(1))], &[]);
        let fresh = |d: &Decisions| outcome(&mut setup(), d);
        let (fresh_legal, fresh_other) = (fresh(&legal), fresh(&other));
        let fates = &fresh_legal.1;
        assert_eq!((fates[0].kind, fates[0].commits), (FateKind::Interrupted, 1));
        assert_eq!(fates[0].fail_point(), Some(FailPoint::AfterWrite(1)));
        assert_eq!(
            (fates[2].kind, fates[2].commits, fates[2].halts()),
            (FateKind::Completed, 2, true)
        );
        assert!(fates[4].restarts() && fates[5].restarts() && !fates[3].restarts());
        assert_eq!(fresh_other.1[2].kind, FateKind::Interrupted);
        assert!(!fresh_other.1[2].halts());

        let mut m = setup();
        assert!(outcome(&mut m, &legal).0.is_ok());
        let rejected = [
            decide(&[(6, FailPoint::BeforeReads)], &[]),
            decide(&[(1, FailPoint::BeforeWrites), (1, FailPoint::BeforeReads)], &[]),
            decide(&[(5, FailPoint::BeforeWrites)], &[]),
            decide(&[(3, FailPoint::AfterWrite(2))], &[]),
            decide(&[], &[2]),
            decide(&[(4, FailPoint::BeforeWrites)], &[4, 5, 5]),
            decide(&(0..4).map(|i| (i, FailPoint::BeforeWrites)).collect::<Vec<_>>(), &[5]),
        ];
        for (k, d) in rejected.iter().enumerate() {
            let (tick, ..) = outcome(&mut m, d);
            assert!(tick.is_err(), "decision {k} must be rejected: {d:?}");
            let next = if k % 2 == 0 { (&other, &fresh_other) } else { (&legal, &fresh_legal) };
            assert_eq!(&outcome(&mut m, next.0), next.1, "after rejected decision {k}");
        }
        // An idle machine: all failed without a restart is a stall, all
        // halted a deadlock.
        let (status, tentative) = (m.core.procs.status.clone(), m.core.tentative.clone());
        for i in 0..6 {
            m.core.tentative.set(Pid(i), None);
        }
        for (idle, want) in [
            (ProcStatus::Failed, PramError::AdversaryStall { cycle: 0 }),
            (ProcStatus::Halted, PramError::Deadlock { cycle: 0 }),
        ] {
            m.core.procs.status.fill(idle);
            assert_eq!(outcome(&mut m, &Decisions::none()).0.unwrap_err(), want);
        }
        m.core.procs.status = status;
        m.core.tentative = tentative;
        assert_eq!(outcome(&mut m, &other), fresh_other, "after the idle-machine rejections");
    }

    #[test]
    fn common_mode_detects_conflicts() {
        for spec in engine_specs() {
            let mut m = Machine::new(&Clash, 2, CycleBudget::PAPER).unwrap();
            let err = run_on(&mut m, spec).unwrap_err();
            assert!(
                matches!(err, PramError::CommonWriteConflict { addr: 0, .. }),
                "{spec:?}: {err:?}"
            );
        }
    }

    #[test]
    fn arbitrary_mode_lowest_pid_wins() {
        for spec in engine_specs() {
            let mut m = Machine::new(&Clash, 2, CycleBudget::PAPER).unwrap();
            m.set_write_mode(WriteMode::Arbitrary);
            run_on(&mut m, spec).unwrap();
            assert_eq!(m.memory().peek(0), 1, "{spec:?}"); // P0's value
        }
    }

    #[test]
    fn exclusive_mode_rejects_concurrent_writes() {
        for spec in engine_specs() {
            let mut m = Machine::new(&Clash, 2, CycleBudget::PAPER).unwrap();
            m.set_write_mode(WriteMode::Exclusive);
            let err = run_on(&mut m, spec).unwrap_err();
            assert!(
                matches!(err, PramError::ExclusiveWriteConflict { addr: 0, .. }),
                "{spec:?}: {err:?}"
            );
        }
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
                if let Some(t) = view.tentative.get(Pid(1)) {
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

    /// Each processor writes `writes` cells of its own block per cycle.
    struct Spray {
        writes: usize,
    }

    impl Program for Spray {
        type Private = ();
        fn shared_size(&self) -> usize {
            8 * MAX_WRITES
        }
        fn on_start(&self, _pid: Pid) {}
        fn plan(&self, _pid: Pid, _st: &(), _vals: &[Word], _reads: &mut ReadSet) {}
        fn execute(&self, pid: Pid, _st: &mut (), _v: &[Word], writes: &mut WriteSet) -> Step {
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
    /// with the count it used, by the sequential and the pooled engine
    /// alike, up to the widest budget (whose overflow the `WriteSet`
    /// counts but cannot store). A processor's row holds exactly `W`
    /// writes, so this check is what keeps the copy into it in bounds.
    #[test]
    fn write_budget_violation_is_reported() {
        for w in [1, 2, MAX_WRITES] {
            let prog = Spray { writes: w + 1 };
            let budget = CycleBudget { reads: 4, writes: w };
            for spec in engine_specs() {
                let mut m = Machine::new(&prog, 8, budget).unwrap();
                let err = run_on(&mut m, spec).unwrap_err();
                assert!(
                    matches!(err, PramError::BudgetExceeded { kind: BudgetKind::Writes, used, limit, .. }
                        if used == w + 1 && limit == w),
                    "budget {w}, {spec:?}: {err:?}"
                );
            }
        }
    }

    /// A word machine's tentative row is sized to its budget: 68 bytes per
    /// processor at the paper's 4 reads and 2 writes.
    #[test]
    fn tentative_rows_follow_the_budget() {
        let prog = Counter { n: 64, target: 1 };
        let m = Machine::new(&prog, 64, CycleBudget::PAPER).unwrap();
        assert_eq!(m.core.tentative.bytes_per_processor(), 68);
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

    /// Without a panic policy the pool still catches a program panic: the
    /// run returns `WorkerPanic` without a pid, and the calling thread does
    /// not unwind. Debug builds take the pooled path on every tick, so the
    /// panic is caught on a worker.
    #[test]
    fn a_pool_without_a_policy_returns_the_panic_as_an_error() {
        with_quiet_panics(|| {
            let trapped = BoobyTrap {
                n: 8,
                target: 4,
                victim: 2,
                fired: std::sync::atomic::AtomicBool::new(false),
            };
            let mut m = Machine::new(&trapped, 8, CycleBudget::PAPER).unwrap();
            let spec = RunSpec { exec: ExecMode::Threads(2), ..RunSpec::default() };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                m.run_with(spec, &mut NoFailures, &mut NoopObserver, |_| RunControl::Continue)
            }));
            let err = outcome.expect("the calling thread unwound").unwrap_err();
            assert!(
                matches!(&err, PramError::WorkerPanic { pid: None, detail }
                    if detail.contains("injected fault in P2")),
                "unexpected error: {err:?}"
            );
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
