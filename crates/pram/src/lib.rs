//! # rfsp-pram — a restartable fail-stop CRCW PRAM
//!
//! This crate implements the machine model of Kanellakis & Shvartsman,
//! *"Efficient Parallel Algorithms on Restartable Fail-Stop Processors"*
//! (PODC 1991), Section 2:
//!
//! * a synchronous COMMON/ARBITRARY/PRIORITY CRCW PRAM with `P` processors
//!   and a reliable shared memory of [`Word`]s,
//! * execution in **update cycles** (a bounded number of shared reads, a
//!   fixed local computation, and a bounded number of shared writes),
//! * **fail-stop failures with restarts** injected by an on-line
//!   [`Adversary`] that sees the entire machine state — including the writes
//!   each processor is about to perform — and may stop any processor before
//!   its reads, before its writes, or between its (atomic) word writes,
//! * **completed work** accounting: a processor is charged only for update
//!   cycles it completes ([`WorkStats::completed_work`], the paper's `S`),
//!   alongside the charge-everything measure `S'` and the **overhead ratio**
//!   `σ = S / (N + |F|)`.
//!
//! The entry point is [`Machine`]: pair a [`Program`] (an algorithm expressed
//! as one update cycle per tick) with an [`Adversary`] and call
//! [`Machine::run`].
//!
//! ```
//! use rfsp_pram::{Machine, NoFailures, Program, Pid, ReadSet, WriteSet, Step,
//!                 SharedMemory, CycleBudget};
//!
//! /// A trivial program: processor i writes 1 into cell i and halts.
//! struct OneShot {
//!     n: usize,
//! }
//!
//! impl Program for OneShot {
//!     type Private = bool;
//!     fn shared_size(&self) -> usize { self.n }
//!     fn on_start(&self, _pid: Pid) -> bool { false }
//!     fn plan(&self, _pid: Pid, _st: &bool, _vals: &[rfsp_pram::Word],
//!             _reads: &mut ReadSet) {}
//!     fn execute(&self, pid: Pid, st: &mut bool, _vals: &[rfsp_pram::Word],
//!                writes: &mut WriteSet) -> Step {
//!         if *st { return Step::Halt; }
//!         *st = true;
//!         writes.push(pid.0, 1);
//!         Step::Continue
//!     }
//!     fn is_complete(&self, mem: &SharedMemory) -> bool {
//!         (0..self.n).all(|i| mem.peek(i) == 1)
//!     }
//! }
//!
//! # fn main() -> Result<(), rfsp_pram::PramError> {
//! let program = OneShot { n: 8 };
//! let mut machine = Machine::new(&program, 8, CycleBudget::default())?;
//! let report = machine.run(&mut NoFailures)?;
//! assert_eq!(report.stats.completed_cycles, 8);
//! # Ok(())
//! # }
//! ```

// The crate's one `unsafe` block is the commit's prefetch intrinsic
// (`SharedMemory::prefetch`), which allows it by name.
#![deny(unsafe_code)]

pub mod accounting;
pub mod adversary;
pub mod checkpoint;
pub mod cycle;
mod decisions;
pub mod error;
pub mod exec;
pub mod failure;
pub mod machine;
pub mod memory;
pub mod mode;
pub mod policy;
pub mod region;
pub mod snapshot;
pub mod trace;
pub mod unvisited;
pub mod word;

pub use accounting::{RunOutcome, RunReport, WorkStats};
pub use adversary::{
    Adversary, Cycles, Decisions, FailPoint, MachineView, NoFailures, ProcMeta, ProcStatus,
    ReadRow, TentativeCycle,
};
pub use checkpoint::{Checkpoint, ProcCheckpoint, CHECKPOINT_VERSION};
pub use cycle::{CycleBudget, ReadSet, Step, ValueSet, WriteSet, MAX_READS, MAX_WRITES};
pub use error::PramError;
pub use exec::ExecutionModel;
pub use failure::{
    DecisionRecorder, FailureEvent, FailureKind, FailurePattern, PatternError, ScheduledAdversary,
};
pub use machine::{Machine, Pram, RunControl, RunLimits, RunSpec, RunStatus};
pub use memory::{CellChunks, MemoryLayout, SharedMemory};
pub use mode::WriteMode;
pub use policy::{PolicyConfig, PolicyEngine, PolicyKind};
pub use region::{LayoutBuilder, Region};
pub use snapshot::{SnapshotMachine, SnapshotProgram, SnapshotView};
pub use trace::{
    MetricsObserver, NoopObserver, Observer, RunSeries, Tee, TickMetrics, TraceEvent,
    TraceRecorder, WastedWork,
};
pub use unvisited::{IterIn, UnvisitedIndex, LANE_WIDTH};
pub use word::{Pid, Word};

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, PramError>;

/// How one shared-memory cell contributes to a program's completion
/// predicate, as reported by [`Program::completion_hint`].
///
/// Programs whose [`Program::is_complete`] is a conjunction of independent
/// per-cell conditions (Write-All: "every array cell holds 1") can report
/// each cell's status here. The machine then maintains an **incremental
/// completion tracker**: it classifies every cell once at run start and
/// folds each committed write into an outstanding-cell counter, turning the
/// per-tick completion check from an O(memory) scan into an O(1) counter
/// test. See [`Program::completion_hint`] for the exact contract.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CompletionHint {
    /// The cell does not participate in completion tracking (or the
    /// program does not support hints for it).
    Untracked,
    /// The cell participates and its condition is **not** satisfied at
    /// this value.
    Outstanding,
    /// The cell participates and its condition is satisfied at this value.
    Satisfied,
}

/// An algorithm for the restartable fail-stop PRAM, expressed as one update
/// cycle per synchronous tick.
///
/// The object implementing `Program` holds only the *static* description of
/// the algorithm (input size, memory layout, tuning constants); all per
/// processor state lives in [`Program::Private`], which the machine discards
/// when the adversary fails the processor. On (re)start a processor receives
/// a fresh private state from [`Program::on_start`] — per the paper, its
/// `PID` is the only knowledge that survives a failure.
///
/// Each tick, for every alive processor, the machine:
///
/// 1. calls [`plan`](Program::plan) — repeatedly, passing the values read so
///    far, so a cycle's reads may *depend on each other* (Algorithm X reads
///    `w[PID]`, then `d[w[PID]]`) — until no further reads are requested,
///    for a total of at most [`CycleBudget::reads`];
/// 2. performs each batch of reads against the memory state at the start of
///    the tick (synchronous PRAM semantics: no processor observes this
///    tick's writes);
/// 3. calls [`execute`](Program::execute) with all the values, which updates
///    the private state and emits at most [`CycleBudget::writes`] writes;
/// 4. lets the adversary fail the processor before the reads, before the
///    writes, or between the two writes — committed write prefixes stay in
///    memory (word writes are atomic), and an interrupted cycle is *not
///    charged*;
/// 5. commits the surviving writes with CRCW conflict resolution and charges
///    one completed update cycle.
///
/// Programs are `Sync`, and their private states `Clone + Send`.
pub trait Program: Sync {
    /// Per-processor private memory; lost on failure.
    type Private: Clone + Send;

    /// Number of shared memory cells the program needs. The machine
    /// allocates exactly this many, all initially zero except as written by
    /// [`Program::init_memory`].
    fn shared_size(&self) -> usize;

    /// One-time initialization of shared memory (the problem *input*; the
    /// paper stores the input in shared memory before the computation
    /// starts). Default: leave everything zero.
    fn init_memory(&self, _mem: &mut SharedMemory) {}

    /// Fresh private state for processor `pid`, used both at machine start
    /// and after every restart.
    fn on_start(&self, pid: Pid) -> Self::Private;

    /// Declare the next batch of shared reads for this cycle.
    ///
    /// Called first with `values` empty; after each batch of reads is
    /// served, called again with all values read so far appended, until it
    /// requests nothing more. This models the paper's update cycle, whose
    /// few reads are ordinary sequential instructions and may therefore
    /// depend on earlier reads in the same cycle.
    ///
    /// The machine reports [`PramError::BudgetExceeded`] if the cycle's
    /// total reads exceed [`CycleBudget::reads`].
    fn plan(&self, pid: Pid, state: &Self::Private, values: &[Word], reads: &mut ReadSet);

    /// Consume the read values (in the order the addresses were requested by
    /// the [`plan`](Program::plan) chain), update the private state and emit
    /// writes.
    ///
    /// Returning [`Step::Halt`] retires the processor: it stops executing
    /// cycles (and stops being charged), though the adversary may still fail
    /// and restart it, which re-enters the program via
    /// [`on_start`](Program::on_start).
    fn execute(
        &self,
        pid: Pid,
        state: &mut Self::Private,
        values: &[Word],
        writes: &mut WriteSet,
    ) -> Step;

    /// Global completion predicate, evaluated by the machine on shared
    /// memory after each tick. This is a modeling device (it is how the
    /// paper's algorithms "terminate" as a whole) and is not charged work.
    fn is_complete(&self, mem: &SharedMemory) -> bool;

    /// Optional per-cell decomposition of [`is_complete`](Program::is_complete)
    /// for **incremental completion tracking**.
    ///
    /// The default returns [`CompletionHint::Untracked`] for every cell, in
    /// which case the machine evaluates `is_complete` by full scan every
    /// tick (the legacy behaviour). A program opts in by classifying at
    /// least one cell as tracked; the machine then counts tracked cells
    /// whose condition is outstanding — folding each committed write into
    /// the count — and declares completion exactly when the count reaches
    /// zero, without calling `is_complete` in release builds (debug builds
    /// cross-check the counter against the full scan every tick).
    ///
    /// Implementations must uphold:
    ///
    /// 1. **Purity**: the result depends only on `(addr, value)`.
    /// 2. **Stable tracking**: whether a cell is tracked depends only on
    ///    `addr`, never on `value`.
    /// 3. **Equivalence**: for every reachable memory state,
    ///    `is_complete(mem)` ⇔ no tracked cell is
    ///    [`Outstanding`](CompletionHint::Outstanding).
    ///
    /// Write-All programs satisfy this naturally: array cells are tracked
    /// (`Satisfied` iff the cell holds 1), bookkeeping cells are untracked.
    /// Programs whose predicate is already O(1) — a root flag, a counter
    /// threshold — gain nothing and should keep the default.
    fn completion_hint(&self, _addr: usize, _value: Word) -> CompletionHint {
        CompletionHint::Untracked
    }

    /// Batched [`completion_hint`](Program::completion_hint) over one
    /// contiguous lane of at most 64 cells starting at `base`: returns
    /// `(outstanding, tracked)` bit masks where bit `j` describes cell
    /// `base + j` holding `values[j]` — set in `outstanding` iff the cell
    /// would report [`CompletionHint::Outstanding`], set in `tracked` iff
    /// it would report anything but [`CompletionHint::Untracked`].
    ///
    /// The machine primes its completion tracker through this method, 64
    /// cells per call. The default folds `completion_hint` cell by cell and
    /// is always correct; programs on the hot path override it with a
    /// branch-free classifier the compiler can autovectorize (see
    /// `WriteAllTasks` in `rfsp-core`).
    /// Overrides **must agree cell-wise with `completion_hint`** — debug
    /// builds assert it on every lane.
    fn completion_masks(&self, base: usize, values: &[Word]) -> (u64, u64) {
        fold_completion_masks(base, values, |addr, value| self.completion_hint(addr, value))
    }
}

/// Fold a per-cell [`CompletionHint`] classifier into the
/// `(outstanding, tracked)` lane masks of
/// [`Program::completion_masks`] — the shared scalar reference
/// implementation behind every `completion_masks` default.
pub fn fold_completion_masks(
    base: usize,
    values: &[Word],
    mut hint: impl FnMut(usize, Word) -> CompletionHint,
) -> (u64, u64) {
    debug_assert!(values.len() <= 64, "a lane holds at most 64 cells");
    let mut outstanding = 0u64;
    let mut tracked = 0u64;
    for (j, &value) in values.iter().enumerate() {
        match hint(base + j, value) {
            CompletionHint::Untracked => {}
            CompletionHint::Outstanding => {
                outstanding |= 1 << j;
                tracked |= 1 << j;
            }
            CompletionHint::Satisfied => {
                tracked |= 1 << j;
            }
        }
    }
    (outstanding, tracked)
}
