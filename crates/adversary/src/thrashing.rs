//! The thrashing adversary of Example 2.2.
//!
//! "A thrashing adversary allows all processors to perform the read and
//! compute instructions, then it fails all but one processor for the write
//! operation. The adversary then restarts all failed processors. Since one
//! write operation is performed per cycle, N cycles will be required …
//! which results in work of `O(P·N)`" — *if* processors are charged for
//! incomplete cycles. Under completed-work accounting the same adversary
//! charges almost nothing, which is exactly the point of Definition 2.2.

use rfsp_pram::{Adversary, Decisions, FailPoint, MachineView};
use serde::Value;

/// Fail everyone but one survivor before each tick's writes; restart them
/// all for the next tick.
///
/// ```
/// use rfsp_adversary::Thrashing;
/// use rfsp_core::{AlgoX, WriteAllTasks, XOptions};
/// use rfsp_pram::{CycleBudget, Machine, LayoutBuilder};
///
/// # fn main() -> Result<(), rfsp_pram::PramError> {
/// let mut layout = LayoutBuilder::new();
/// let tasks = WriteAllTasks::new(&mut layout, 32);
/// let algo = AlgoX::new(&mut layout, tasks, 32, XOptions::default());
/// let mut machine = Machine::new(&algo, 32, CycleBudget::PAPER)?;
/// let report = machine.run(&mut Thrashing::new())?;
/// // Completed work stays small; S' (charged-anyway work) explodes.
/// assert!(report.stats.s_prime() > 10 * report.stats.completed_work());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Thrashing {
    /// Rotate the survivor (instead of always sparing the lowest-PID
    /// active processor). The bound does not depend on the choice.
    pub rotate_survivor: bool,
}

impl Thrashing {
    /// The canonical thrashing adversary (fixed survivor).
    pub fn new() -> Self {
        Thrashing::default()
    }

    /// Rotate the survivor over time.
    pub fn rotating() -> Self {
        Thrashing { rotate_survivor: true }
    }
}

impl Adversary for Thrashing {
    fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
        let mut d = Decisions::none();
        // Iterate the active set directly instead of collecting it — the
        // decide path stays free of scratch allocations.
        let active = view.active_count();
        if active <= 1 {
            // Also revive anyone still failed so the machine never stalls.
            for meta in view.procs {
                if meta.status == rfsp_pram::ProcStatus::Failed {
                    d.restart(meta.pid);
                }
            }
            return d;
        }
        let survivor_idx = if self.rotate_survivor { (view.cycle as usize) % active } else { 0 };
        for (k, pid) in view.active_pids().enumerate() {
            if k != survivor_idx {
                d.fail(pid, FailPoint::BeforeWrites);
                d.restart(pid);
            }
        }
        // Revive anyone failed in earlier ticks (e.g. halted targets).
        for meta in view.procs {
            if meta.status == rfsp_pram::ProcStatus::Failed {
                d.restart(meta.pid);
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
    use rfsp_core::{AlgoX, WriteAllTasks, XOptions};
    use rfsp_pram::{CycleBudget, LayoutBuilder, Machine};

    #[test]
    fn one_completion_per_tick_and_huge_s_prime() {
        let n = 32;
        let p = 32;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoX::new(&mut layout, tasks, p, XOptions::default());
        let mut m = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut Thrashing::new()).unwrap();
        assert!(tasks.all_written(m.memory()));
        let s = report.stats.completed_work();
        let s_prime = report.stats.s_prime();
        // Exactly one completion per tick.
        assert_eq!(s, report.stats.parallel_time);
        // S' counts the P-1 interrupted cycles of every tick: it must dwarf S.
        assert!(s_prime >= 10 * s, "S'={s_prime} S={s}");
        // Remark 2: S' <= S + |F|.
        assert!(s_prime <= s + report.stats.pattern_size());
    }

    #[test]
    fn rotating_survivor_also_terminates() {
        let n = 16;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoX::new(&mut layout, tasks, n, XOptions::default());
        let mut m = Machine::new(&algo, n, CycleBudget::PAPER).unwrap();
        m.run(&mut Thrashing::rotating()).unwrap();
        assert!(tasks.all_written(m.memory()));
    }
}
