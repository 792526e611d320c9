//! A FIFO round-robin turn queue: many sessions, one worker pool,
//! bounded starvation.
//!
//! The daemon runs each job on its own thread, but all jobs share one
//! [`SharedPool`](rfsp_pram::SharedPool) — only the turn-holder may drive
//! tick segments on it. The scheduler hands the turn out in strict FIFO
//! order and a yielding job goes to the back of the queue, so with `N`
//! runnable jobs no job waits more than `N − 1` quanta for its next turn.
//! That bound is the fairness claim the daemon tests assert.
//!
//! The turn is a [`Turn`] guard that gives it back when dropped, so a job
//! whose thread panics mid-quantum cannot starve the others.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

struct State {
    /// Jobs waiting for the turn, front = next to run.
    queue: VecDeque<u64>,
    /// The job currently holding the turn.
    running: Option<u64>,
}

/// FIFO round-robin turn arbiter. Clone-free: share it via `Arc`.
pub struct Scheduler {
    inner: Mutex<State>,
    cv: Condvar,
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new()
    }
}

impl Scheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            inner: Mutex::new(State { queue: VecDeque::new(), running: None }),
            cv: Condvar::new(),
        }
    }

    /// Join the queue and block until `job` holds the turn. The turn is
    /// held until the returned guard drops, on unwind too.
    pub fn acquire(&self, job: u64) -> Turn<'_> {
        let mut state = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        state.queue.push_back(job);
        self.wait_for_front(state, job);
        Turn { sched: self, job }
    }

    /// Block until `job`, already queued, reaches the front with the turn
    /// free, then take the turn.
    fn wait_for_front(&self, mut state: MutexGuard<'_, State>, job: u64) {
        while !(state.running.is_none() && state.queue.front() == Some(&job)) {
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.queue.pop_front();
        state.running = Some(job);
    }
}

/// One job's hold on the scheduler's turn, from [`Scheduler::acquire`].
/// Dropping it leaves the scheduler for good (job finished, stopped,
/// failed, or its thread unwinding) and hands the turn to the next job.
pub struct Turn<'s> {
    sched: &'s Scheduler,
    job: u64,
}

impl Turn<'_> {
    /// Give the turn up (end of a quantum) and block until it comes round
    /// again. With other jobs queued this re-enters at the back — strict
    /// round-robin; alone, it reacquires immediately.
    pub fn yield_turn(&mut self) {
        let mut state = self.sched.inner.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert_eq!(state.running, Some(self.job));
        state.running = None;
        state.queue.push_back(self.job);
        self.sched.cv.notify_all();
        self.sched.wait_for_front(state, self.job);
    }
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        // A guard exists only while its job runs: `acquire` and
        // `yield_turn` return holding the turn.
        let mut state = self.sched.inner.lock().unwrap_or_else(PoisonError::into_inner);
        state.running = None;
        self.sched.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// N jobs × K quanta through one scheduler: the grant log must be
    /// round-robin, which bounds any job's starvation at N − 1 grants
    /// between two of its own turns.
    #[test]
    fn round_robin_bounds_starvation() {
        const JOBS: u64 = 4;
        const QUANTA: usize = 6;
        let sched = Arc::new(Scheduler::new());
        let grants = Arc::new(Mutex::new(Vec::new()));

        let handles: Vec<_> = (0..JOBS)
            .map(|job| {
                let sched = Arc::clone(&sched);
                let grants = Arc::clone(&grants);
                std::thread::spawn(move || {
                    let mut turn = sched.acquire(job);
                    for quantum in 0..QUANTA {
                        grants.lock().unwrap().push(job);
                        if quantum + 1 < QUANTA {
                            turn.yield_turn();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let grants = grants.lock().unwrap();
        assert_eq!(grants.len(), JOBS as usize * QUANTA);
        // Max gap between consecutive grants to the same job, counted in
        // other jobs' grants. FIFO round-robin guarantees ≤ JOBS − 1.
        for job in 0..JOBS {
            let turns: Vec<usize> =
                grants.iter().enumerate().filter(|(_, &j)| j == job).map(|(i, _)| i).collect();
            assert_eq!(turns.len(), QUANTA);
            for pair in turns.windows(2) {
                let gap = pair[1] - pair[0] - 1;
                assert!(
                    gap <= (JOBS - 1) as usize,
                    "job {job} starved for {gap} grants: {grants:?}"
                );
            }
        }
    }

    /// Dropping a turn while another job waits in the queue hands the
    /// turn to that job.
    #[test]
    fn dropping_a_turn_hands_it_to_a_waiter() {
        let sched = Arc::new(Scheduler::new());
        let turn = sched.acquire(1);
        let s2 = Arc::clone(&sched);
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let _turn = s2.acquire(2);
            tx.send(()).unwrap();
        });
        while !sched.inner.lock().unwrap().queue.contains(&2) {
            std::thread::yield_now();
        }
        assert!(rx.try_recv().is_err(), "job 2 ran while job 1 held the turn");
        drop(turn);
        rx.recv_timeout(Duration::from_secs(10)).expect("job 2 never got the turn");
        waiter.join().unwrap();
    }

    /// A job whose thread panics while it holds the turn gives the turn
    /// back as it unwinds, so the next job's `acquire` returns.
    #[test]
    fn a_panicking_turn_holder_releases_the_turn() {
        let sched = Arc::new(Scheduler::new());
        let s1 = Arc::clone(&sched);
        let holder = std::thread::spawn(move || {
            let _turn = s1.acquire(1);
            panic!("job 1 dies holding the turn");
        });
        assert!(holder.join().is_err());
        let (tx, rx) = mpsc::channel();
        let next = std::thread::spawn(move || {
            let _turn = sched.acquire(2);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(10)).expect("job 2 never got the turn");
        next.join().unwrap();
    }
}
