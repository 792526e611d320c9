//! Theorem 3.2: the optimal Write-All algorithm in the snapshot model.
//!
//! Under the (unrealistically strong) assumption that a processor "can read
//! and locally process the entire shared memory at unit cost", the paper's
//! oblivious load-balancing strategy solves Write-All with completed work
//! `Θ(N log N)` — matching the Theorem 3.1 lower bound, which holds *even
//! under the same assumption*. Every cycle, each processor:
//!
//! 1. snapshots the array and numbers the `U` still-unvisited cells by
//!    position;
//! 2. assigns itself to the `⌈PID·U/P⌉`-th of them (no coordination, no
//!    knowledge of which processors are alive — a purely *oblivious* rule);
//! 3. writes 1 there.
//!
//! Because the rule balances the at-most-`P` processors over the `U`
//! unvisited cells within ±1 of each other, the pigeonhole adversary of
//! Theorem 3.1 can kill at most the lightest half each cycle, and the
//! geometric-series argument in the proof of Theorem 3.2 bounds the work by
//! `O(N log N)`.

use rfsp_pram::snapshot::{SnapshotProgram, SnapshotView};
use rfsp_pram::{CompletionHint, Pid, SharedMemory, Step, Word, WriteSet};

use crate::tasks::WriteAllTasks;

/// The Theorem 3.2 oblivious balanced-allocation algorithm.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotBalance {
    tasks: WriteAllTasks,
    p: usize,
}

impl SnapshotBalance {
    /// Build the algorithm for `p` processors over a Write-All instance.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn new(tasks: WriteAllTasks, p: usize) -> Self {
        assert!(p > 0, "need at least one processor");
        SnapshotBalance { tasks, p }
    }

    /// The underlying Write-All instance.
    pub fn tasks(&self) -> &WriteAllTasks {
        &self.tasks
    }
}

impl SnapshotProgram for SnapshotBalance {
    type Private = ();

    fn shared_size(&self) -> usize {
        self.tasks.x().base() + self.tasks.x().len()
    }

    fn on_start(&self, _pid: Pid) {}

    fn execute(
        &self,
        pid: Pid,
        _state: &mut (),
        view: &SnapshotView<'_>,
        writes: &mut WriteSet,
    ) -> Step {
        let x = self.tasks.x();
        // Snapshot: number the unvisited cells by position. The machine's
        // unvisited index answers this in O(log N) per processor; on a bare
        // view the helper degrades to the old full scan.
        let u = view.unvisited_count_in(x);
        if u == 0 {
            return Step::Halt;
        }
        // Oblivious balanced assignment: processor PID takes the
        // ⌈PID·U/P⌉-th unvisited element (0-indexed: ⌊PID·U/P⌋, clamped).
        let k = (pid.0 * u / self.p).min(u - 1);
        let addr = view.nth_unvisited_in(x, k).expect("k < u unvisited cells");
        writes.push(addr, 1);
        Step::Continue
    }

    fn is_complete(&self, mem: &SharedMemory) -> bool {
        self.tasks.all_written(mem)
    }

    fn completion_hint(&self, addr: usize, value: Word) -> CompletionHint {
        self.tasks.completion_hint(addr, value)
    }

    fn completion_masks(&self, base: usize, values: &[Word]) -> (u64, u64) {
        self.tasks.completion_masks(base, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsp_pram::snapshot::SnapshotMachine;
    use rfsp_pram::{LayoutBuilder, NoFailures, RunOutcome};

    #[test]
    fn completes_in_one_cycle_with_p_equal_n() {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, 32);
        let algo = SnapshotBalance::new(tasks, 32);
        let mut m = SnapshotMachine::new(&algo, 32, 1).unwrap();
        let report = m.run(&mut NoFailures).unwrap();
        assert_eq!(report.outcome, RunOutcome::Completed);
        assert!(tasks.all_written(m.memory()));
        // P = N and perfect balance: each processor hits a distinct cell.
        assert_eq!(report.stats.parallel_time, 1);
        assert_eq!(report.stats.completed_cycles, 32);
    }

    #[test]
    fn completes_with_few_processors() {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, 40);
        let algo = SnapshotBalance::new(tasks, 3);
        let mut m = SnapshotMachine::new(&algo, 3, 1).unwrap();
        let report = m.run(&mut NoFailures).unwrap();
        assert!(tasks.all_written(m.memory()));
        // 3 processors cover 40 cells: at least ⌈40/3⌉ cycles.
        assert!(report.stats.parallel_time >= 14);
    }

    #[test]
    fn balanced_assignment_is_spread() {
        // With U = P, processor i takes exactly the i-th unvisited cell.
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, 4);
        let algo = SnapshotBalance::new(tasks, 4);
        let mem = SharedMemory::new(layout.total());
        let view = SnapshotView::bare(&mem);
        let mut seen = Vec::new();
        for pid in 0..4 {
            let mut w = WriteSet::default();
            let step = algo.execute(Pid(pid), &mut (), &view, &mut w);
            assert!(matches!(step, Step::Continue));
            seen.push(w.writes()[0].0);
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn indexed_view_picks_the_same_cells_as_the_scan() {
        // Partially-visited instance: the indexed and bare views must agree
        // on every processor's pick (the debug_asserts inside the view
        // helpers additionally cross-check on the indexed path).
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, 12);
        let algo = SnapshotBalance::new(tasks, 5);
        let mut mem = SharedMemory::new(layout.total());
        for i in [1, 4, 5, 9] {
            mem.poke(tasks.x().at(i), 1);
        }
        let mut idx = rfsp_pram::UnvisitedIndex::new(0);
        idx.rebuild(
            mem.size(),
            (0..mem.size()).filter(|&addr| {
                matches!(algo.completion_hint(addr, mem.peek(addr)), CompletionHint::Outstanding)
            }),
        );
        let bare = SnapshotView::bare(&mem);
        let indexed = SnapshotView::with_index(&mem, &idx);
        for pid in 0..5 {
            let (mut wb, mut wi) = (WriteSet::default(), WriteSet::default());
            algo.execute(Pid(pid), &mut (), &bare, &mut wb);
            algo.execute(Pid(pid), &mut (), &indexed, &mut wi);
            assert_eq!(wb.writes(), wi.writes());
        }
    }
}
