//! The stalking adversary of §5.
//!
//! "The stalking adversary strategy consists of choosing a single leaf in a
//! binary tree employed by ACC, and failing all processors that touch that
//! leaf until only one processor remains in the fail-stop case, or until
//! all processors simultaneously touch the leaf in the fail-stop/restart
//! case." The adversary is *on-line but trivial* — it watches one leaf —
//! yet it forces the randomized ACC algorithm to expected work
//! `Ω(N²/polylog N)` (fail-stop) or exponential in `N` (restart), while
//! deterministic algorithm X completes with only `O(P)` extra work: its
//! processors converge on the stalked leaf *deterministically*, so the
//! "all touch simultaneously" release condition triggers immediately.

use rfsp_pram::{Adversary, Decisions, FailPoint, MachineView, Pid, Region};
use serde::Value;

/// Which §5 failure model the stalker plays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StalkingMode {
    /// Fail-stop without restarts: fail touchers until one processor
    /// remains alive, then leave it alone.
    FailStop,
    /// Fail-stop with restarts: fail-and-restart touchers until *all*
    /// currently active processors touch the leaf in the same cycle.
    Restart,
}

/// The §5 stalking adversary over a Write-All array.
#[derive(Clone, Debug)]
pub struct Stalking {
    x: Region,
    /// The stalked cell (index into `x`).
    pub target: usize,
    pub mode: StalkingMode,
}

impl Stalking {
    /// Stalk cell `target` of the Write-All array `x`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn new(x: Region, target: usize, mode: StalkingMode) -> Self {
        assert!(target < x.len(), "stalked cell out of range");
        Stalking { x, target, mode }
    }

    /// Whether a tentative cycle touches the stalked cell.
    fn touches(&self, t: &rfsp_pram::TentativeCycle) -> bool {
        let addr = self.x.at(self.target);
        t.writes.writes().iter().any(|&(a, _)| a == addr) || t.reads.addrs().contains(&addr)
    }
}

impl Adversary for Stalking {
    fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
        let mut d = Decisions::none();
        if view.mem.peek(self.x.at(self.target)) == 1 {
            // The leaf fell: the stalker gives up (and in restart mode
            // revives its victims so the run can finish cleanly).
            if self.mode == StalkingMode::Restart {
                for meta in view.procs {
                    if meta.status == rfsp_pram::ProcStatus::Failed {
                        d.restart(meta.pid);
                    }
                }
            }
            return d;
        }
        let active: Vec<(Pid, bool)> = view
            .tentative
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (Pid(i), self.touches(t))))
            .collect();
        let touchers: Vec<Pid> = active.iter().filter(|(_, t)| *t).map(|(p, _)| *p).collect();
        match self.mode {
            StalkingMode::FailStop => {
                // Fail touchers while more than one processor remains.
                let mut alive = active.len();
                for pid in touchers {
                    if alive <= 1 {
                        break;
                    }
                    d.fail(pid, FailPoint::BeforeWrites);
                    alive -= 1;
                }
            }
            StalkingMode::Restart => {
                if touchers.len() < active.len() {
                    for pid in touchers {
                        d.fail(pid, FailPoint::BeforeWrites);
                        d.restart(pid);
                    }
                }
                // All active processors touch simultaneously: release.
            }
        }
        d
    }

    // Only configuration survives a tick, so the state is empty.
    fn save_state(&self) -> Option<Value> {
        Some(Value::Null)
    }

    fn restore_state(&mut self, _state: &Value) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsp_core::{AccOptions, AlgoAcc, AlgoX, WriteAllTasks, XOptions};
    use rfsp_pram::{CycleBudget, LayoutBuilder, Machine, NoopObserver, RunLimits};

    #[test]
    fn x_shrugs_off_the_stalker() {
        let n = 32;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoX::new(&mut layout, tasks, n, XOptions::default());
        let mut adversary = Stalking::new(tasks.x(), n - 1, StalkingMode::Restart);
        let mut m = Machine::new(&algo, n, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut adversary).unwrap();
        assert!(tasks.all_written(m.memory()));
        // Deterministic convergence: work stays near the no-failure level.
        assert!(report.stats.completed_work() < 40 * n as u64);
    }

    #[test]
    fn acc_suffers_under_fail_stop_stalking() {
        let n = 16;
        let p = 8;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoAcc::new(&mut layout, tasks, AccOptions { seed: 42 });
        let mut adversary = Stalking::new(tasks.x(), n - 1, StalkingMode::FailStop);
        let mut m = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut adversary).unwrap();
        assert!(tasks.all_written(m.memory()));
        // Eventually a lone survivor finishes everything; the stalker only
        // burned processors that touched the target.
        assert!(report.stats.failures > 0);
    }

    #[test]
    fn acc_restart_stalking_is_brutal_but_bounded_here() {
        // With few processors the "all touch simultaneously" event does
        // occur; with many it effectively never does (the §5 exponential
        // bound) — the benchmark measures the growth, the test just checks
        // the mechanism works for a small instance.
        let n = 8;
        let p = 2;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoAcc::new(&mut layout, tasks, AccOptions { seed: 7 });
        let mut adversary = Stalking::new(tasks.x(), n - 1, StalkingMode::Restart);
        let mut m = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
        let report = m
            .run_observed(&mut adversary, RunLimits { max_cycles: 2_000_000 }, &mut NoopObserver)
            .unwrap();
        assert!(tasks.all_written(m.memory()));
        assert!(report.stats.failures > 0);
    }
}
