//! The Theorem 4.8 adversary: forces algorithm X to `S = Ω(N^{log 3})`
//! completed work with `P = N` processors.
//!
//! The proof sketch's strategy: "the processor with PID 0 will be allowed
//! to sequentially traverse the progress tree in postorder … The
//! processors that find themselves at the same leaf as the processor 0 are
//! (re)started, while the rest are failed [on reaching a leaf]. All
//! processors … are allowed to traverse the progress tree until they reach
//! a leaf. When processors reach a leaf, the failure/restart procedure is
//! repeated."
//!
//! Operationally: processor 0 is never disturbed and sweeps the leaves
//! left-to-right (X's traversal of a tree whose progress only it advances
//! *is* a postorder sweep). Every other processor may move freely through
//! the tree — those movement cycles are the work the bound counts — but
//! the moment its cycle would *contribute progress* (write the Write-All
//! array or mark the progress heap), it is failed, freezing it at its
//! leaf. When processor 0's sweep arrives at a frozen processor's leaf,
//! that processor is restarted; the leaf is then completed under it, so it
//! re-descends into the remaining tree, reaches another leaf, and freezes
//! again. The recursive re-traversals compound to `Θ(N^{log₂ 3})`.

use rfsp_core::{HeapTree, XLayout};
use rfsp_pram::{Adversary, Decisions, FailPoint, MachineView, Pid, ProcStatus, Region};
use serde::Value;

/// The Theorem 4.8 postorder stalker for algorithm X.
#[derive(Clone, Debug)]
pub struct XKiller {
    x: Region,
    layout: XLayout,
    tree: HeapTree,
}

impl XKiller {
    /// Build the adversary against a specific algorithm-X instance: `x` is
    /// the Write-All array, `layout`/`tree` the instance's bookkeeping.
    pub fn new(x: Region, layout: XLayout, tree: HeapTree) -> Self {
        XKiller { x, layout, tree }
    }
}

impl Adversary for XKiller {
    fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
        let mut d = Decisions::none();
        let pos0 = view.mem.peek(self.layout.w.at(0)) as usize;

        // Restart the frozen processors co-located with processor 0.
        for meta in view.procs {
            if meta.pid.0 == 0 {
                continue;
            }
            if meta.status == ProcStatus::Failed {
                let pos = view.mem.peek(self.layout.w.at(meta.pid.0)) as usize;
                if pos == pos0 && pos != 0 {
                    d.restart(meta.pid);
                }
            }
        }

        // Freeze any other processor whose cycle would contribute progress
        // (an x write or a progress-heap write) away from processor 0's
        // position; pure movement (w writes) is allowed — and charged.
        for (pid_idx, t) in view.tentative.iter().enumerate() {
            if pid_idx == 0 {
                continue;
            }
            let Some(t) = t.as_ref() else { continue };
            let pos = view.mem.peek(self.layout.w.at(pid_idx)) as usize;
            if pos == pos0 {
                continue; // co-located with processor 0: may help it
            }
            let contributes = t
                .writes
                .writes()
                .iter()
                .any(|&(addr, _)| self.x.contains(addr) || self.layout.d.contains(addr));
            if contributes {
                d.fail(Pid(pid_idx), FailPoint::BeforeWrites);
            }
        }
        let _ = self.tree;
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

    fn run(n: usize) -> (u64, u64) {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoX::new(&mut layout, tasks, n, XOptions::default());
        let mut adversary = XKiller::new(tasks.x(), *algo.layout(), algo.tree());
        let mut m = Machine::new(&algo, n, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut adversary).unwrap();
        assert!(tasks.all_written(m.memory()), "n={n}");
        (report.stats.completed_work(), report.stats.pattern_size())
    }

    #[test]
    fn terminates_and_costs_superlinearly() {
        let (s16, _) = run(16);
        let (s64, _) = run(64);
        // N^{log2 3} scaling: quadrupling N should multiply work by ~3²=9;
        // allow slack but demand clearly super-linear growth (>4x).
        assert!(s64 > 4 * s16, "S(64)={s64} vs S(16)={s16}");
    }

    #[test]
    fn processor_zero_is_never_failed() {
        let n = 32;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoX::new(&mut layout, tasks, n, XOptions::default());
        let mut adversary = XKiller::new(tasks.x(), *algo.layout(), algo.tree());
        let mut m = Machine::new(&algo, n, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut adversary).unwrap();
        for e in report.pattern.events() {
            assert_ne!(e.pid, 0, "processor 0 must never appear in the pattern as a victim");
        }
    }
}
