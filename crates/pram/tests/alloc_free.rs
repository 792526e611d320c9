//! Steady-state allocation accounting for the tick engines.
//!
//! The engines are designed so that after warm-up every tick runs without
//! touching the heap: tentative cycles pass through reused inline
//! `ValueSet`/`WriteSet` scratch into a cycle table allocated with the
//! machine, the failure-event staging vector is hoisted onto the machine,
//! and the pooled engine parks persistent workers instead of spawning
//! threads. A counting `#[global_allocator]` pins that down: the
//! sequential engine must allocate *exactly zero* times across a batch of
//! steady-state ticks, and a pooled run's allocation total must not grow
//! with the number of ticks. A debug-built pool has no adaptive inline
//! degrade, so in the default `cargo test` build the spin-then-park
//! barrier and the workers' tentative phase are inside the measurement on
//! any host.
//!
//! The sequential and snapshot engines run wholly on the calling thread,
//! so their measurements read a per-thread counter: the test harness's
//! own threads allocate at any moment and must not leak into a window
//! that has to stay at exactly zero. The pooled measurements read the
//! process-wide counter, because worker-thread allocations are what they
//! measure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use rfsp_pram::snapshot::{SnapshotMachine, SnapshotProgram, SnapshotView};
use rfsp_pram::{
    CompletionHint, CycleBudget, LayoutBuilder, Machine, NoFailures, NoopObserver, Pid, Program,
    ReadSet, Region, RunLimits, SharedMemory, Step, Word, WriteSet,
};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized with no destructor, so the allocator can bump it
    // without allocating or registering anything itself.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation, process-wide and on the calling thread.
fn count() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made so far by the calling thread.
fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

// SAFETY: delegates verbatim to `System`; the counters have no side
// effects on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the measurements so none sees another's heap traffic
/// (libtest may run them on separate threads). A failed test poisons the
/// lock; the others take it anyway, so one failure stays one failure.
static MEASURE: Mutex<()> = Mutex::new(());

fn measure_lock() -> std::sync::MutexGuard<'static, ()> {
    MEASURE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Each processor increments its own cell once per tick until every cell
/// reaches `target`: the run lasts exactly `target` full-width ticks. A
/// `tracked` grind gives completion hints, so a pooled run primes the
/// outstanding-cell count at run entry and the commit folds it every
/// tick.
struct Grind {
    n: usize,
    target: Word,
    tracked: bool,
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
    fn completion_hint(&self, _addr: usize, value: Word) -> CompletionHint {
        match (self.tracked, value >= self.target) {
            (false, _) => CompletionHint::Untracked,
            (true, true) => CompletionHint::Satisfied,
            (true, false) => CompletionHint::Outstanding,
        }
    }
}

/// The sequential engine, untracked and tracked: the tracked grind also
/// puts the per-store completion fold beside the prefetched store loop
/// inside the measurement.
#[test]
fn sequential_steady_state_ticks_do_not_allocate() {
    let _guard = measure_lock();
    let p = 16;
    for tracked in [false, true] {
        let prog = Grind { n: p, target: 1 << 20, tracked };
        let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
        // Warm up: first ticks grow the reusable buffers to their
        // steady-state capacity.
        for _ in 0..8 {
            m.tick(&mut NoFailures).unwrap();
        }
        let before = thread_allocations();
        for _ in 0..64 {
            m.tick(&mut NoFailures).unwrap();
        }
        let delta = thread_allocations() - before;
        assert_eq!(
            delta, 0,
            "sequential steady-state ticks allocated {delta} times (tracked: {tracked})"
        );
    }
}

/// Snapshot-model Write-All with the balanced-assignment rule, expressed
/// entirely through the machine-maintained unvisited index: no scans, no
/// scratch vectors. Opting into `completion_hint` is what makes the machine
/// build the index and remove one cell per committed write — the exact
/// steady-state churn (bit flips and Fenwick updates every tick) the
/// allocation test needs to exercise.
struct SnapWriteAll {
    x: Region,
    p: usize,
}

impl SnapshotProgram for SnapWriteAll {
    type Private = ();
    fn shared_size(&self) -> usize {
        self.x.base() + self.x.len()
    }
    fn on_start(&self, _pid: Pid) {}
    fn execute(
        &self,
        pid: Pid,
        _st: &mut (),
        view: &SnapshotView<'_>,
        writes: &mut WriteSet,
    ) -> Step {
        let u = view.unvisited_count_in(self.x);
        if u == 0 {
            return Step::Halt;
        }
        let k = (pid.0 * u / self.p).min(u - 1);
        writes.push(view.nth_unvisited_in(self.x, k).expect("k < u"), 1);
        Step::Continue
    }
    fn is_complete(&self, mem: &SharedMemory) -> bool {
        (0..self.x.len()).all(|i| mem.peek(self.x.at(i)) == 1)
    }
    fn completion_hint(&self, addr: usize, value: Word) -> CompletionHint {
        if self.x.contains(addr) {
            if value == 1 {
                CompletionHint::Satisfied
            } else {
                CompletionHint::Outstanding
            }
        } else {
            CompletionHint::Untracked
        }
    }
}

#[test]
fn snapshot_steady_state_ticks_do_not_allocate() {
    let _guard = measure_lock();
    let p = 16;
    // 80 full-width ticks of work: warm-up (8) + measurement (64) stay
    // strictly inside the run, and every tick commits p index removals.
    let n = 80 * p;
    let mut layout = LayoutBuilder::new();
    let x = layout.alloc(n);
    let prog = SnapWriteAll { x, p };
    let mut m = SnapshotMachine::new(&prog, p, 1).unwrap();
    for _ in 0..8 {
        m.tick(&mut NoFailures).unwrap();
    }
    let before = thread_allocations();
    for _ in 0..64 {
        m.tick(&mut NoFailures).unwrap();
    }
    let delta = thread_allocations() - before;
    assert_eq!(delta, 0, "snapshot steady-state ticks allocated {delta} times");
}

/// The pooled engine — spin-then-park barrier, the workers' tentative
/// phase, the commit on the calling thread and, for a tracked program,
/// the outstanding-count fold — must reach an allocation-free steady
/// state. A debug-built pool has no adaptive inline degrade, so every
/// tick actually crosses the barrier. Each worker plays its chunk through
/// a scratch on its stack and the commit reuses the core's buffers, so
/// allocations must not scale with tick count.
#[test]
fn pooled_allocations_do_not_grow_with_tick_count() {
    let _guard = measure_lock();
    let p = 16;
    let threads = 3;
    for tracked in [false, true] {
        let measure = |target: Word| {
            let prog = Grind { n: p, target, tracked };
            let mut m = Machine::new(&prog, p, CycleBudget::PAPER).unwrap();
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let limits = RunLimits::default();
            m.run_threaded_observed(&mut NoFailures, limits, threads, &mut NoopObserver).unwrap();
            ALLOCATIONS.load(Ordering::Relaxed) - before
        };
        let short = measure(16);
        let long = measure(16 + 512);
        // Same machine size and thread count: all allocations happen
        // during setup (thread spawns, report assembly), none per tick.
        // Allow a few counts of slack for lazy OS/runtime initialization
        // on first use.
        assert!(
            long <= short + 16,
            "allocations grew with tick count (tracked: {tracked}): {short} for 16 ticks vs \
             {long} for 528"
        );
    }
}
