//! The persistent tick pool behind the pooled engine.
//!
//! The pooled rows of [`Pram::run_with`](crate::Pram::run_with) used to
//! spawn a fresh set of scoped OS threads **every tick**; at millions of
//! ticks per run the spawn/join cost dominated. [`TickPool`] replaces that
//! with long-lived workers, and [`SharedPool`] is their only owner: it
//! spawns them when it is built and joins them when it is dropped.
//! [`ExecMode::Threads`](crate::ExecMode::Threads) builds one for the call;
//! [`ExecMode::Pool`](crate::ExecMode::Pool) borrows a caller's. Either way
//! a run drives the workers like this:
//!
//! * each tick the coordinator publishes one *job* (a borrowed closure
//!   processing a half-open index range) and bumps a shared epoch counter;
//! * workers claim chunks of the index space from a shared atomic cursor
//!   (`fetch_add`), so a straggler chunk cannot serialize the tick;
//! * the coordinator waits until every worker has drained the cursor, then
//!   reclaims exclusive access to the machine.
//!
//! The pool runs one job per tick, the tentative phase; the commit runs on
//! the coordinator after it (see `Core::tick`). The handoff is paid every
//! tick, so it has to be cheap:
//!
//! * **spin-then-park barrier** — both sides spin on an atomic for
//!   [`SPIN`] iterations before parking the OS thread, so the common
//!   back-to-back-epoch case never enters the kernel. Parking uses the
//!   Dekker-style *flag, recheck, park* sequence (all `SeqCst`) on both
//!   sides, so a wakeup can never be lost; stale `unpark` tokens merely make
//!   the next `park` return early, which the re-check loop absorbs. The
//!   epoch counter is the coordinator-to-worker sense (workers compare it to
//!   the last epoch they ran), and `active` is the worker-to-coordinator
//!   sense (the last finisher unparks a parked coordinator).
//! * **cache-line-padded atomics** — `epoch`, `active`, `cursor`, `stop`,
//!   `len`/`chunk` and each worker's claim counter live on their own
//!   128-byte lines so cursor traffic does not false-share with the epoch
//!   line every worker spins on.
//! * **adaptive inline degrade** (release builds) — the pool keeps an
//!   EWMA of measured ns/item; when a job's predicted cost falls below
//!   [`INLINE_NS`], or the host has one logical core (read once per pool),
//!   the coordinator runs the job inline instead of waking anyone.
//!   Small-N-per-thread runs therefore degrade to single-worker execution
//!   instead of paying coordination for nothing. Debug builds never
//!   degrade: every pooled job crosses the barrier on every tick, so the
//!   debug test suite drives the workers on any host.
//!
//! The spin budget and the threshold are constants, not options: nothing
//! outside the pool has a reason to choose them, and inline or pooled, a
//! job's results are the same.
//!
//! A steady-state tick performs **no thread spawns and no heap
//! allocations**; the error slot's mutex is only touched on the cold error
//! path.
//!
//! # Safety protocol
//!
//! The job closure is published to the workers as a lifetime-erased raw
//! pointer. This is sound because [`TickPool::run_tick`] does not return
//! until every worker has finished the epoch (`active == 0`), and the job
//! slot is cleared before the borrow it was created from ends. Workers never
//! hold the pointer across epochs: the `SeqCst` epoch bump publishes the
//! slot, and a worker's final `active.fetch_sub` (release) happens-before
//! the coordinator's `active` load (acquire) that lets `run_tick` return.

use std::cell::UnsafeCell;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::Instant;

use crate::error::PramError;
use crate::Result;

/// Render a caught panic payload as a message for
/// [`PramError::WorkerPanic`].
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A raw pointer that may cross thread boundaries.
///
/// The pooled tentative phase hands each worker a disjoint region of one
/// allocation (processor states, tentative-table rows); the pool's barrier
/// bounds every access, and disjointness is each call site's proof
/// obligation — stated at the `unsafe` dereference, not here.
pub(crate) struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    pub(crate) fn new(ptr: *mut T) -> Self {
        SendPtr(ptr)
    }

    pub(crate) fn ptr(&self) -> *mut T {
        self.0
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SendPtr<T> {}

// SAFETY: sending the pointer is free; the call sites prove every
// dereference is race-free (disjoint regions + the pool barrier).
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Pad-and-align wrapper putting `T` on its own cache line (128 bytes
/// covers the common 64-byte line and adjacent-line prefetchers).
#[repr(align(128))]
struct CachePadded<T>(T);

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// The per-tick work item: process indices `[start, end)`.
type Job<'a> = dyn Fn(usize, usize) -> Result<()> + Sync + 'a;

/// Lifetime-erased pointer to the current tick's [`Job`].
#[derive(Clone, Copy)]
struct JobPtr(*const Job<'static>);

/// The published-job slot. Written only by the coordinator between epochs;
/// read by workers strictly inside an epoch.
struct JobCell(UnsafeCell<Option<JobPtr>>);

// SAFETY: the epoch protocol serializes all access — the coordinator writes
// while no epoch is in flight (`active == 0`), publishes with the `SeqCst`
// epoch bump, and workers only read between observing the bump and their
// `active` decrement.
unsafe impl Send for JobCell {}
unsafe impl Sync for JobCell {}

/// Spin iterations before parking, on both sides of the barrier.
const SPIN: u32 = 512;

/// Inline threshold in nanoseconds: a job whose predicted cost (EWMA
/// ns/item × items) is below this runs on the coordinator without waking
/// workers.
const INLINE_NS: f64 = 50_000.0;

/// Per-worker coordination slot, padded so one worker's claim counter and
/// park flag never false-share with a neighbor's.
#[derive(Default)]
struct WorkerSlot {
    /// Set by the worker just before parking; the coordinator only
    /// `unpark`s workers whose flag is up.
    parked: AtomicBool,
    /// The worker's thread handle, registered on entry to
    /// [`TickPool::worker`].
    thread: OnceLock<Thread>,
    /// Chunks this worker has claimed across all epochs (telemetry; lets
    /// tests assert the pooled path actually ran).
    claims: AtomicU64,
}

/// Shared coordination state for one pool's workers. A [`SharedPool`]
/// owns it and its workers; the coordinator borrows it for a run.
pub(crate) struct TickPool {
    /// Incremented once per published pooled job; workers run at most one
    /// claim loop per epoch. This is the coordinator→worker barrier sense.
    epoch: CachePadded<AtomicU64>,
    /// Workers that have not yet finished the current epoch; the
    /// worker→coordinator barrier sense.
    active: CachePadded<AtomicUsize>,
    /// Next unclaimed index of the current epoch.
    cursor: CachePadded<AtomicUsize>,
    /// Cooperative abort: set by the first worker that errors.
    stop: CachePadded<AtomicBool>,
    /// Index-space length of the current epoch.
    len: CachePadded<AtomicUsize>,
    /// Chunk size workers claim per `fetch_add`.
    chunk: CachePadded<AtomicUsize>,
    /// Set once at the end of the run; spinning or parked workers exit.
    shutdown: AtomicBool,
    /// The current job, present exactly while an epoch is in flight.
    job: JobCell,
    /// First error any worker hit this epoch (cold path only).
    err: Mutex<Option<PramError>>,
    /// Coordinator park flag for the worker→coordinator half of the
    /// barrier.
    coord_parked: CachePadded<AtomicBool>,
    /// The coordinator's thread handle: [`TickPool::run_tick`] must be
    /// called from the thread that last took the turn
    /// ([`SharedPool::turn`]). Behind a `Mutex` so the pool can be re-bound
    /// between run segments; the only reader is the cold
    /// worker→coordinator unpark path.
    coord_thread: Mutex<Thread>,
    workers: Vec<CachePadded<WorkerSlot>>,
    /// Logical cores on the host, read once when the pool is built. A
    /// single-core host cannot run workers beside the coordinator, so
    /// there every handoff is pure loss.
    cores: usize,
    /// Whether the adaptive inline degrade may run a job on the
    /// coordinator: on in release builds, off in debug builds.
    degrade: bool,
    /// EWMA of measured ns/item, stored as `f64` bits (coordinator-only
    /// writes; 0 = no measurement yet).
    ewma: AtomicU64,
}

impl TickPool {
    /// A pool coordinating `threads` workers; [`SharedPool::spawn`] starts
    /// them on [`TickPool::worker`].
    fn new(threads: usize) -> Self {
        debug_assert!(threads >= 2, "one thread should use the sequential engine");
        TickPool {
            epoch: CachePadded(AtomicU64::new(0)),
            active: CachePadded(AtomicUsize::new(0)),
            cursor: CachePadded(AtomicUsize::new(0)),
            stop: CachePadded(AtomicBool::new(false)),
            len: CachePadded(AtomicUsize::new(0)),
            chunk: CachePadded(AtomicUsize::new(1)),
            shutdown: AtomicBool::new(false),
            job: JobCell(UnsafeCell::new(None)),
            err: Mutex::new(None),
            coord_parked: CachePadded(AtomicBool::new(false)),
            coord_thread: Mutex::new(std::thread::current()),
            workers: (0..threads).map(|_| CachePadded(WorkerSlot::default())).collect(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            degrade: !cfg!(debug_assertions),
            ewma: AtomicU64::new(0),
        }
    }

    /// Number of workers the pool coordinates.
    pub(crate) fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Total chunks claimed by workers across all epochs (telemetry).
    #[cfg(test)]
    fn total_claims(&self) -> u64 {
        self.workers.iter().map(|w| w.claims.load(Ordering::Relaxed)).sum()
    }

    /// Predicted cost of `len` items, in ns (0 = unknown).
    fn predicted_ns(&self, len: usize) -> f64 {
        f64::from_bits(self.ewma.load(Ordering::Relaxed)) * len as f64
    }

    /// Fold a measurement into the cost model.
    fn observe(&self, elapsed_ns: u64, len: usize) {
        let per = elapsed_ns as f64 / len as f64;
        let old = f64::from_bits(self.ewma.load(Ordering::Relaxed));
        let new = if old == 0.0 { per } else { old + (per - old) * 0.25 };
        self.ewma.store(new.to_bits(), Ordering::Relaxed);
    }

    /// Execute `job` over the index space `[0, len)` and block until every
    /// index has been processed (or a worker errored). Callers regain
    /// exclusive access to everything the job borrows once this returns.
    ///
    /// In a release build, when the measured EWMA predicts the whole job
    /// is cheaper than [`INLINE_NS`], or the host has a single logical
    /// core, the coordinator runs the job itself — identical semantics, no
    /// wakeups. A debug build always wakes the workers.
    ///
    /// Every chunk boundary falls on a multiple of `align` (the final chunk
    /// may be shorter), so `align` is also the minimum chunk size: the
    /// tentative phase passes 64, which keeps a small machine on many
    /// threads from degenerating into per-processor claims.
    pub(crate) fn run_tick(&self, len: usize, align: usize, job: &Job<'_>) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let inline = self.degrade && {
            let est = self.predicted_ns(len);
            self.cores <= 1 || (est > 0.0 && est < INLINE_NS)
        };
        let start = Instant::now();
        if inline {
            catch_unwind(AssertUnwindSafe(|| job(0, len))).unwrap_or_else(|payload| {
                Err(PramError::WorkerPanic { pid: None, detail: panic_detail(payload.as_ref()) })
            })?;
        } else {
            self.run_pooled(len, align, job)?;
        }
        self.observe(start.elapsed().as_nanos() as u64, len);
        Ok(())
    }

    /// The pooled half of [`TickPool::run_tick`]: publish, wake, wait.
    fn run_pooled(&self, len: usize, align: usize, job: &Job<'_>) -> Result<()> {
        // Chunks are sized to give each worker several claims per tick —
        // dynamic enough to absorb uneven cycles, coarse enough to keep
        // cursor traffic negligible — then rounded up to the alignment.
        // The cursor starts at 0 and advances in whole chunks, so an
        // aligned chunk size makes every boundary aligned.
        let align = align.max(1);
        let chunk = len.div_ceil(self.threads() * 4).max(1).next_multiple_of(align);
        self.cursor.store(0, Ordering::Relaxed);
        self.stop.store(false, Ordering::Relaxed);
        self.len.store(len, Ordering::Relaxed);
        self.chunk.store(chunk, Ordering::Relaxed);
        // SAFETY (lifetime erasure): cleared below before `job`'s borrow
        // ends; workers only dereference between the epoch bump and their
        // `active` decrement. No epoch is in flight here, so the slot write
        // itself is unobserved.
        unsafe {
            let erased: *const Job<'static> = std::mem::transmute(job as *const Job<'_>);
            *self.job.0.get() = Some(JobPtr(erased));
        }
        self.active.store(self.threads(), Ordering::SeqCst);
        // Publish: the SeqCst bump is the release fence for every store
        // above, matched by the workers' SeqCst epoch load.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        for slot in &self.workers {
            if slot.parked.load(Ordering::SeqCst) {
                if let Some(t) = slot.thread.get() {
                    t.unpark();
                }
            }
        }
        // Wait: spin, then flag-recheck-park (lost wakeups are impossible:
        // the last finisher decrements `active` *then* reads our flag with
        // SeqCst, while we raise the flag *then* re-read `active`).
        let mut spins = 0u32;
        while self.active.load(Ordering::Acquire) != 0 {
            if spins < SPIN {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            self.coord_parked.store(true, Ordering::SeqCst);
            if self.active.load(Ordering::SeqCst) != 0 {
                std::thread::park();
            }
            self.coord_parked.store(false, Ordering::SeqCst);
        }
        // SAFETY: every worker is done with the epoch (`active == 0`).
        unsafe {
            *self.job.0.get() = None;
        }
        let taken = self.err.lock().unwrap_or_else(PoisonError::into_inner).take();
        match taken {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Tell workers to exit. Idempotent; called when the owning
    /// [`SharedPool`] drops (including on unwind), before it joins them.
    fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for slot in &self.workers {
            // Unpark unconditionally: a stale token at worst makes a
            // spinning worker's next park return immediately, and the
            // flag-recheck on the worker side absorbs the race where it
            // parks just after we read its flag.
            if let Some(t) = slot.thread.get() {
                t.unpark();
            }
        }
    }

    /// Body of pool worker `rank`: wait for an epoch (or shutdown) with a
    /// spin-then-park loop, claim chunks from the cursor, report back.
    fn worker(&self, rank: usize) {
        let slot = &self.workers[rank];
        slot.thread.get_or_init(std::thread::current);
        let mut seen = 0u64;
        loop {
            // Wait for a new epoch. Spin first; park only after the budget,
            // with the Dekker flag-recheck so a publish between our check
            // and the park cannot be lost.
            let mut spins = 0u32;
            loop {
                if self.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let e = self.epoch.load(Ordering::SeqCst);
                if e != seen {
                    seen = e;
                    break;
                }
                if spins < SPIN {
                    spins += 1;
                    std::hint::spin_loop();
                    continue;
                }
                slot.parked.store(true, Ordering::SeqCst);
                if self.epoch.load(Ordering::SeqCst) == seen
                    && !self.shutdown.load(Ordering::SeqCst)
                {
                    std::thread::park();
                }
                slot.parked.store(false, Ordering::SeqCst);
                spins = 0;
            }
            // SAFETY: the epoch bump published the slot; the coordinator
            // will not clear it until our `active` decrement below.
            let job = unsafe { (*self.job.0.get()).expect("epoch published without a job") };
            let len = self.len.load(Ordering::Relaxed);
            let chunk = self.chunk.load(Ordering::Relaxed);
            // SAFETY: see module docs — the coordinator keeps the pointee
            // alive until `active` reaches zero.
            let f = unsafe { &*job.0 };
            let mut claims = 0u64;
            while !self.stop.load(Ordering::Relaxed) {
                let start = self.cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                claims += 1;
                // Catch panics escaping the job so a buggy closure degrades
                // to an error instead of killing the worker (a dead worker
                // would leave `active` forever nonzero and hang the
                // coordinator). The job borrows are safe to assert unwind
                // safety for: on panic the whole tick is abandoned and the
                // engine either surfaces the error or restores the touched
                // slots from a backup before reusing them.
                let end = (start + chunk).min(len);
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| f(start, end))).unwrap_or_else(|payload| {
                        Err(PramError::WorkerPanic {
                            pid: None,
                            detail: panic_detail(payload.as_ref()),
                        })
                    });
                if let Err(e) = outcome {
                    self.stop.store(true, Ordering::Relaxed);
                    let mut slot = self.err.lock().unwrap_or_else(PoisonError::into_inner);
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                    break;
                }
            }
            if claims != 0 {
                slot.claims.fetch_add(claims, Ordering::Relaxed);
            }
            // Finish the epoch; wake the coordinator if it parked. SeqCst
            // pairs with the coordinator's flag-then-recheck.
            if self.active.fetch_sub(1, Ordering::SeqCst) == 1
                && self.coord_parked.load(Ordering::SeqCst)
            {
                self.coord_thread.lock().unwrap_or_else(PoisonError::into_inner).unpark();
            }
        }
    }
}

/// A persistent worker pool, the one owner of pool worker threads.
///
/// `SharedPool` owns its workers for as long as the value lives. Any
/// thread may drive a run segment on it through
/// [`Pram::run_with`](crate::Pram::run_with) with
/// [`ExecMode::Pool`](crate::ExecMode::Pool), one segment at a time: an
/// internal turn lock admits one caller at a time, and each re-binds the
/// pool's coordinator to itself before its first tick. So a daemon can
/// multiplex many paused runs over one set of OS threads.
/// [`ExecMode::Threads`](crate::ExecMode::Threads) builds a pool per call
/// and drops it when the call returns.
pub struct SharedPool {
    pool: Arc<TickPool>,
    /// Serializes run segments: at most one coordinator drives the workers
    /// at any moment.
    turn: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
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
        Ok(Self::spawn(TickPool::new(threads)))
    }

    /// Start one worker thread per slot of `pool`.
    fn spawn(pool: TickPool) -> Self {
        let pool = Arc::new(pool);
        let handles = (0..pool.threads())
            .map(|rank| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || pool.worker(rank))
            })
            .collect();
        SharedPool { pool, turn: Mutex::new(()), handles }
    }

    /// Number of worker threads the pool owns.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Take the pool's turn and make the calling thread its coordinator.
    /// The turn is held until the guard drops.
    pub(crate) fn turn(&self) -> (MutexGuard<'_, ()>, &TickPool) {
        let turn = self.turn.lock().unwrap_or_else(PoisonError::into_inner);
        *self.pool.coord_thread.lock().unwrap_or_else(PoisonError::into_inner) =
            std::thread::current();
        (turn, &self.pool)
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

    /// A pool under the debug rule in any build: every job crosses the
    /// barrier, whatever its cost and the host's core count.
    fn always_pooled(threads: usize) -> SharedPool {
        let mut pool = TickPool::new(threads);
        pool.degrade = false;
        SharedPool::spawn(pool)
    }

    /// Add one to every hit counter in `[start, end)`.
    fn bump(hits: &[AtomicU64]) -> impl Fn(usize, usize) -> Result<()> + Sync + '_ {
        move |start, end| {
            for h in &hits[start..end] {
                h.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        }
    }

    #[test]
    fn pool_processes_every_index_exactly_once() {
        let shared = always_pooled(3);
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..50 {
            shared.pool.run_tick(hits.len(), 1, &bump(&hits)).unwrap();
        }
        assert!(shared.pool.total_claims() > 0, "pooled path must claim chunks");
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 50);
        }
    }

    /// A debug-built pool wakes its workers even for a job whose estimate
    /// is far under [`INLINE_NS`]; a release build runs that job inline.
    #[test]
    fn debug_builds_pool_jobs_under_the_inline_threshold() {
        let shared = SharedPool::new(2).unwrap();
        let pool = &shared.pool;
        let hits: Vec<AtomicU64> = (0..32).map(|_| AtomicU64::new(0)).collect();
        pool.observe(1_000, hits.len());
        assert!(pool.predicted_ns(hits.len()) < INLINE_NS);
        pool.run_tick(hits.len(), 1, &bump(&hits)).unwrap();
        assert_eq!(pool.total_claims() > 0, cfg!(debug_assertions));
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    /// The release rule runs the same cheap job on the coordinator — same
    /// semantics, no worker claims — and a single-core host inlines every
    /// job, even before any estimate exists.
    #[test]
    fn inline_degrade_runs_on_the_coordinator() {
        let mut pool = TickPool::new(2);
        pool.degrade = true;
        let shared = SharedPool::spawn(pool);
        let pool = &shared.pool;
        let hits: Vec<AtomicU64> = (0..32).map(|_| AtomicU64::new(0)).collect();
        pool.observe(1_000, hits.len());
        for _ in 0..8 {
            pool.run_tick(hits.len(), 1, &bump(&hits)).unwrap();
        }
        assert_eq!(pool.total_claims(), 0, "a cheap job must run inline");
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 8);
        }

        let mut pool = TickPool::new(2);
        (pool.degrade, pool.cores) = (true, 1);
        let shared = SharedPool::spawn(pool);
        let pool = &shared.pool;
        pool.run_tick(hits.len(), 1, &bump(&hits)).unwrap();
        assert_eq!(pool.total_claims(), 0, "a single-core host must inline every job");
        // Inline errors surface exactly like pooled ones.
        let err = pool
            .run_tick(4, 1, &|_, _| Err(PramError::AddressOutOfBounds { addr: 9, size: 4 }))
            .unwrap_err();
        assert!(matches!(err, PramError::AddressOutOfBounds { .. }));
    }

    #[test]
    fn pool_reports_the_first_error() {
        let shared = always_pooled(2);
        let job = |start: usize, _end: usize| {
            if start >= 8 {
                Err(PramError::AddressOutOfBounds { addr: start, size: 8 })
            } else {
                Ok(())
            }
        };
        let err = shared.pool.run_tick(64, 1, &job).unwrap_err();
        assert!(matches!(err, PramError::AddressOutOfBounds { .. }));
    }

    /// A panicking job closure must surface as [`PramError::WorkerPanic`]
    /// — not poison the pool, not abort the process — and the pool must
    /// keep serving ticks afterwards. Dropping the pool still joins every
    /// worker.
    #[test]
    fn panicking_job_reports_worker_panic_and_pool_survives() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output quiet
        let shared = always_pooled(2);
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        let bomb = |start: usize, _end: usize| -> Result<()> {
            if start == 0 {
                panic!("injected worker fault");
            }
            Ok(())
        };
        let err = shared.pool.run_tick(64, 1, &bomb).unwrap_err();
        assert!(
            matches!(&err, PramError::WorkerPanic { pid: None, detail }
                if detail.contains("injected worker fault")),
            "unexpected error: {err:?}"
        );
        // The pool is still operational for subsequent ticks.
        shared.pool.run_tick(hits.len(), 1, &bump(&hits)).unwrap();
        drop(shared);
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
        std::panic::set_hook(prev);
    }

    /// Chunk boundaries fall on multiples of `align`, the minimum chunk is
    /// one align unit, and a tiny index space with many threads no longer
    /// degenerates into 1-index claims (`len.div_ceil(threads * 4)` alone
    /// yields chunk = 1 for len = 7, threads = 3).
    #[test]
    fn chunks_are_aligned_and_clamped() {
        let shared = always_pooled(3);
        let claims = Mutex::new(Vec::new());
        let hits: Vec<AtomicU64> = (0..7).map(|_| AtomicU64::new(0)).collect();
        let job = |start: usize, end: usize| {
            claims.lock().unwrap().push((start, end));
            bump(&hits)(start, end)
        };
        shared.pool.run_tick(hits.len(), 4, &job).unwrap();
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1, "every index exactly once");
        }
        let claims = claims.into_inner().unwrap();
        for &(start, end) in &claims {
            assert_eq!(start % 4, 0, "chunk start {start} not aligned");
            // Non-final chunks span exactly whole align units.
            assert!(end == hits.len() || (end - start) % 4 == 0, "ragged interior chunk");
            assert!(end - start >= 4 || end == hits.len(), "chunk below one align unit");
        }
    }

    #[test]
    fn empty_tick_is_a_noop() {
        let shared = always_pooled(2);
        shared.pool.run_tick(0, 64, &|_, _| Ok(())).unwrap();
    }
}
