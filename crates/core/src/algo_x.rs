//! Algorithm X (§4.2, Figures 2 and 5).
//!
//! A Write-All algorithm whose processors traverse a progress tree
//! *independently* — no synchronized phases — searching for work in the
//! smallest immediate subtree that still has work, doing it, and moving out.
//! Its completed work is `O(N·P^{log(3/2)+δ})` for **any** failure/restart
//! pattern (Lemma 4.6 / Theorem 4.7): unlike algorithm V, no dependence on
//! the number of failures, which is what guarantees termination.
//!
//! The implementation follows the paper's pseudocode (Figure 5) exactly:
//!
//! * a "done" heap `d[1..2N-1]` (the progress tree),
//! * a "where" array `w[0..P-1]` holding each processor's position **in
//!   shared memory**, so that a restarted processor — which loses all
//!   private state — resumes from `w[PID]` at the cost of a single cycle;
//!   indeed [`AlgoX`]'s private state is `()`,
//! * one loop iteration per update cycle: read `w[PID]`, read `d[where]`,
//!   then either move up (node done), work at a leaf, aggregate children,
//!   or descend — choosing the subtree by the processor's **PID bit at the
//!   node's depth** when both subtrees are unfinished (the italicized
//!   decision of Figure 2, line 09).
//!
//! Generalizations, each noted in the paper:
//! * `P ≤ N` arbitrary: only `log N` PID bits are significant (Lemma 4.5,
//!   handled by descending on `PID mod N`).
//! * `N` not a power of two: leaves are padded; a padded leaf is marked done
//!   on first visit (conventional padding, §4 preamble).
//! * Leaves run arbitrary [`TaskSet`] tasks instead of `x[i] := 1`, and the
//!   whole tree can be replayed for `tasks.rounds()` rounds with doneness
//!   encoded as "equals the current round number" — the building block of
//!   the §4.3 simulation. For one round (plain Write-All), the layout and
//!   cycle structure reduce to Figure 5 verbatim.

use rfsp_pram::{LayoutBuilder, Pid, Program, ReadSet, Region, SharedMemory, Step, Word, WriteSet};

use crate::tasks::TaskSet;
use crate::tree::HeapTree;

/// Tuning options for [`AlgoX`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct XOptions {
    /// Remark 5(i): space the `P` processors' initial positions evenly,
    /// `N/P` leaves apart, instead of packing them onto the first `P`
    /// leaves. Does not change the worst case.
    pub spread_initial: bool,
    /// Remark 5(ii): store at every progress-tree node the *number* of
    /// descendant leaves known visited instead of a done bit. Processors
    /// propagate improved counts and descend toward the child with more
    /// remaining work. "Our worst case analysis does not benefit from
    /// these modifications" — the ablation experiment measures whether the
    /// average case does. Single-round task sets only.
    pub counting: bool,
}

/// Shared-memory layout of algorithm X, exposed so adversaries and tests
/// can inspect the algorithm's data structures.
#[derive(Clone, Copy, Debug)]
pub struct XLayout {
    /// Current round number (1 cell; fixed at 1 for plain Write-All).
    pub round: Region,
    /// The progress heap `d`; cell `v` (1-indexed, cell 0 unused) holds the
    /// round number in which node `v`'s subtree finished (0 = never).
    pub d: Region,
    /// The location array `w`; `w[PID]` is the heap position of processor
    /// `PID`, 0 once it has exited the tree.
    pub w: Region,
}

/// Algorithm X over an arbitrary task set.
///
/// ```
/// use rfsp_core::{AlgoX, WriteAllTasks, XOptions};
/// use rfsp_pram::{CycleBudget, Machine, LayoutBuilder, NoFailures};
///
/// # fn main() -> Result<(), rfsp_pram::PramError> {
/// let mut layout = LayoutBuilder::new();
/// let tasks = WriteAllTasks::new(&mut layout, 64);
/// let algo = AlgoX::new(&mut layout, tasks, 8, XOptions::default());
/// let mut machine = Machine::new(&algo, 8, CycleBudget::PAPER)?;
/// let report = machine.run(&mut NoFailures)?;
/// assert!(tasks.all_written(machine.memory()));
/// assert!(report.stats.completed_work() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct AlgoX<T> {
    tasks: T,
    tree: HeapTree,
    p: usize,
    rounds: Word,
    layout: XLayout,
    opts: XOptions,
}

impl<T: TaskSet> AlgoX<T> {
    /// Build algorithm X for `p` processors over `tasks`, allocating its
    /// bookkeeping (round cell, progress heap, location array) from
    /// `layout`. The task set's own regions must already be allocated from
    /// the same layout.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty or `p == 0`.
    pub fn new(layout: &mut LayoutBuilder, tasks: T, p: usize, opts: XOptions) -> Self {
        let round = layout.alloc(1);
        Self::new_with_round(layout, tasks, p, opts, round)
    }

    /// Like [`AlgoX::new`], but the round cell is provided by the caller —
    /// used by [`Interleaved`](crate::interleaved::Interleaved) so both
    /// halves advance one shared round counter (multi-round task state is
    /// shared, so the halves must agree on the current round).
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty, `p == 0`, or `round` is not exactly one
    /// cell.
    pub fn new_with_round(
        layout: &mut LayoutBuilder,
        tasks: T,
        p: usize,
        opts: XOptions,
        round: Region,
    ) -> Self {
        assert!(!tasks.is_empty(), "algorithm X needs at least one task");
        assert!(p > 0, "algorithm X needs at least one processor");
        assert_eq!(round.len(), 1, "the round region is a single cell");
        let tree = HeapTree::with_leaves(tasks.len());
        let rounds = tasks.rounds();
        assert!(
            !(opts.counting && rounds > 1),
            "the counting-tree variant (Remark 5 ii) is single-round only"
        );
        let x_layout = XLayout { round, d: layout.alloc(tree.heap_size()), w: layout.alloc(p) };
        AlgoX { tasks, tree, p, rounds, layout: x_layout, opts }
    }

    /// The algorithm's shared-memory layout.
    pub fn layout(&self) -> &XLayout {
        &self.layout
    }

    /// The progress-tree shape.
    pub fn tree(&self) -> HeapTree {
        self.tree
    }

    /// The task set.
    pub fn tasks(&self) -> &T {
        &self.tasks
    }

    /// The reads/writes budget one cycle of this instance needs. Plain
    /// Write-All fits the paper's 4-read/2-write cycle; multi-round task
    /// sets add one read for the round cell plus the task's own accesses.
    pub fn required_budget(&self) -> rfsp_pram::CycleBudget {
        let pre = if self.multi_round() { 1 } else { 0 };
        rfsp_pram::CycleBudget {
            reads: pre + 2 + self.tasks.max_reads().max(2),
            writes: self.tasks.max_writes().max(1),
        }
    }

    /// Initial heap position of processor `pid`.
    fn initial_position(&self, pid: Pid) -> usize {
        let n = self.tree.leaves();
        let leaf =
            if self.opts.spread_initial { (pid.0 * n / self.p).min(n - 1) } else { pid.0 % n };
        self.tree.leaf_node(leaf)
    }

    fn multi_round(&self) -> bool {
        self.rounds > 1
    }

    /// Number of leading values holding the round number (0 or 1).
    fn pre(&self) -> usize {
        usize::from(self.multi_round())
    }

    /// Round number from the cycle's values.
    fn round_of(&self, values: &[Word]) -> Word {
        if self.multi_round() {
            values[0]
        } else {
            1
        }
    }

    /// Whether heap value `d_val` marks node `v` finished for round `r`.
    fn node_done(&self, v: usize, d_val: Word, r: Word) -> bool {
        if self.opts.counting {
            d_val >= self.tree.subtree_leaves(v) as Word
        } else {
            d_val == r
        }
    }

    /// The heap value that marks node `v` finished for round `r`.
    fn done_value(&self, v: usize, r: Word) -> Word {
        if self.opts.counting {
            self.tree.subtree_leaves(v) as Word
        } else {
            r
        }
    }
}

impl<T: TaskSet + Sync> Program for AlgoX<T> {
    /// Everything algorithm X knows lives in shared memory (Figure 5): a
    /// restart costs one cycle to re-read `w[PID]` and nothing else.
    type Private = ();

    fn shared_size(&self) -> usize {
        // The caller's layout already accounts for all regions (tasks plus
        // ours); report one past the highest address we own. When X is
        // embedded in a larger program (e.g. interleaved with V), the outer
        // program reports the full size instead.
        self.layout.w.base() + self.layout.w.len()
    }

    fn init_memory(&self, mem: &mut SharedMemory) {
        self.tasks.init_memory(mem);
        mem.poke(self.layout.round.at(0), 1);
        for i in 0..self.p {
            mem.poke(self.layout.w.at(i), self.initial_position(Pid(i)) as Word);
        }
    }

    fn on_start(&self, _pid: Pid) {}

    fn plan(&self, pid: Pid, _state: &(), values: &[Word], reads: &mut ReadSet) {
        let pre = self.pre();
        match values.len() {
            // First batch: the round cell (if staged) and our position.
            0 => {
                if self.multi_round() {
                    reads.push(self.layout.round.at(0));
                }
                reads.push(self.layout.w.at(pid.0));
            }
            // Second: the doneness of the node we are at.
            l if l == pre + 1 => {
                let r = self.round_of(values);
                if r > self.rounds {
                    return; // all rounds finished: halting cycle
                }
                let whr = values[pre] as usize;
                if whr == 0 {
                    return; // exited the tree: halting cycle
                }
                reads.push(self.layout.d.at(whr));
            }
            // Third: children (interior) or first task reads (leaf).
            l if l == pre + 2 => {
                let r = self.round_of(values);
                let whr = values[pre] as usize;
                let d_whr = values[pre + 1];
                if self.node_done(whr, d_whr, r) {
                    return; // node done: we only write (move up / advance)
                }
                if !self.tree.is_leaf(whr) {
                    reads.push(self.layout.d.at(self.tree.left(whr)));
                    reads.push(self.layout.d.at(self.tree.right(whr)));
                } else {
                    let i = self.tree.leaf_index(whr);
                    if i < self.tasks.len() {
                        self.tasks.plan(r, i, &values[pre + 2..], reads);
                    }
                    // A padded leaf needs no further reads.
                }
            }
            // Later batches: only an undone leaf's task can chain reads.
            _ => {
                let r = self.round_of(values);
                let whr = values[pre] as usize;
                if !self.tree.is_leaf(whr) {
                    return;
                }
                let i = self.tree.leaf_index(whr);
                if i < self.tasks.len() {
                    self.tasks.plan(r, i, &values[pre + 2..], reads);
                }
            }
        }
    }

    fn execute(&self, pid: Pid, _state: &mut (), values: &[Word], writes: &mut WriteSet) -> Step {
        let pre = self.pre();
        let r = self.round_of(values);
        if r > self.rounds {
            return Step::Halt;
        }
        let whr = values[pre] as usize;
        if whr == 0 {
            return Step::Halt;
        }
        let d_whr = values[pre + 1];
        let n = self.tree.leaves();

        if self.node_done(whr, d_whr, r) {
            // Current subtree is done: move up one level (Figure 2 line
            // 04); at the root, advance the round or exit.
            if whr == self.tree.root() {
                if self.multi_round() {
                    // Advance the shared round counter; past the last round
                    // the advance is the global completion signal and the
                    // processor retires on its next cycle (r > rounds).
                    writes.push(self.layout.round.at(0), r + 1);
                } else {
                    // Single round (Figure 5): exit the tree and halt.
                    writes.push(self.layout.w.at(pid.0), 0);
                    return Step::Halt;
                }
            } else {
                writes.push(self.layout.w.at(pid.0), self.tree.parent(whr) as Word);
            }
            return Step::Continue;
        }

        if !self.tree.is_leaf(whr) {
            // Interior node (Figure 2 lines 06-10).
            let left = self.tree.left(whr);
            let right = self.tree.right(whr);
            let (l_val, r_val) = (values[pre + 2], values[pre + 3]);
            let left_done = self.node_done(left, l_val, r);
            let right_done = self.node_done(right, r_val, r);
            // Remark 5(ii): before moving, publish an improved count so
            // processors arriving from above can steer toward the child
            // with more remaining work. (Counts are monotone; concurrent
            // writers this tick computed the same sum, so this stays
            // COMMON-legal.)
            if self.opts.counting && !(left_done && right_done) {
                let known = l_val + r_val;
                if known > d_whr {
                    writes.push(self.layout.d.at(whr), known);
                    return Step::Continue;
                }
            }
            let target = match (left_done, right_done) {
                (true, true) => {
                    writes.push(self.layout.d.at(whr), self.done_value(whr, r));
                    return Step::Continue;
                }
                (false, true) => left,
                (true, false) => right,
                (false, false) => {
                    if self.opts.counting {
                        // Descend toward the child with more remaining work.
                        let u_l = self.tree.subtree_leaves(left) as Word - l_val;
                        let u_r = self.tree.subtree_leaves(right) as Word - r_val;
                        match u_l.cmp(&u_r) {
                            std::cmp::Ordering::Greater => left,
                            std::cmp::Ordering::Less => right,
                            std::cmp::Ordering::Equal => {
                                let depth = self.tree.depth(whr);
                                let bit = Pid(pid.0 % n).bit_msb_first(depth, self.tree.height());
                                if bit == 0 {
                                    left
                                } else {
                                    right
                                }
                            }
                        }
                    } else {
                        // Both subtrees unfinished: descend by the PID bit
                        // at this depth (bit 0 = most significant of log N
                        // bits).
                        let depth = self.tree.depth(whr);
                        let bit = Pid(pid.0 % n).bit_msb_first(depth, self.tree.height());
                        if bit == 0 {
                            self.tree.left(whr)
                        } else {
                            self.tree.right(whr)
                        }
                    }
                }
            };
            writes.push(self.layout.w.at(pid.0), target as Word);
            return Step::Continue;
        }

        // Leaf (Figure 2 line 05): perform the work, or record that it is
        // done.
        let i = self.tree.leaf_index(whr);
        if i >= self.tasks.len() {
            // Padded leaf: instantly done.
            writes.push(self.layout.d.at(whr), self.done_value(whr, r));
            return Step::Continue;
        }
        let before = writes.len();
        let observed_done = self.tasks.run(r, i, &values[pre + 2..], writes);
        if observed_done {
            debug_assert_eq!(writes.len(), before, "a task observed done must not emit writes");
            writes.push(self.layout.d.at(whr), self.done_value(whr, r));
        }
        Step::Continue
    }

    // Keeps the default `completion_hint` (untracked): the predicate is a
    // disjunction over two cells, not a per-cell conjunction, and it is
    // already O(1) — incremental tracking would gain nothing.
    fn is_complete(&self, mem: &SharedMemory) -> bool {
        let root = self.tree.root();
        self.node_done(root, mem.peek(self.layout.d.at(root)), self.rounds)
            || (self.multi_round() && mem.peek(self.layout.round.at(0)) > self.rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::WriteAllTasks;
    use rfsp_pram::{
        Adversary, CycleBudget, Decisions, FailPoint, Machine, MachineView, NoFailures, RunOutcome,
    };

    fn build(n: usize, p: usize) -> (LayoutBuilder, WriteAllTasks, AlgoX<WriteAllTasks>) {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoX::new(&mut layout, tasks, p, XOptions::default());
        (layout, tasks, algo)
    }

    #[test]
    fn solves_write_all_without_failures() {
        for (n, p) in [(1, 1), (8, 8), (8, 3), (37, 5), (64, 64), (100, 1)] {
            let (_l, tasks, algo) = build(n, p);
            let mut m = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
            let report = m.run(&mut NoFailures).unwrap();
            assert_eq!(report.outcome, RunOutcome::Completed, "n={n} p={p}");
            assert!(tasks.all_written(m.memory()), "n={n} p={p}");
        }
    }

    #[test]
    fn fits_the_paper_cycle_budget() {
        let (_l, _t, algo) = build(64, 16);
        let b = algo.required_budget();
        assert!(b.reads <= CycleBudget::PAPER.reads);
        assert!(b.writes <= CycleBudget::PAPER.writes);
    }

    #[test]
    fn single_processor_visits_all_leaves() {
        let (_l, tasks, algo) = build(16, 1);
        let mut m = Machine::new(&algo, 1, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut NoFailures).unwrap();
        assert!(tasks.all_written(m.memory()));
        // One processor must do >= N leaf writes + N observations + tree
        // moves: work is Θ(N log N)-ish but definitely >= 3N - o(N).
        assert!(report.stats.completed_cycles >= 3 * 16 - 8);
    }

    #[test]
    fn spread_initial_option_still_completes() {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, 32);
        let algo = AlgoX::new(
            &mut layout,
            tasks,
            4,
            XOptions { spread_initial: true, ..Default::default() },
        );
        let mut m = Machine::new(&algo, 4, CycleBudget::PAPER).unwrap();
        m.run(&mut NoFailures).unwrap();
        assert!(tasks.all_written(m.memory()));
        // Evenly spaced: processor 1 of 4 starts at leaf 8 of 32.
        assert_eq!(algo.initial_position(Pid(1)), algo.tree().leaf_node(8));
    }

    /// The worked example of Figure 3 (Example 4.1): `N = P = 8`, a
    /// specific mid-computation state; one more cycle moves each active
    /// processor exactly as the paper describes.
    #[test]
    fn figure_3_example() {
        let (_l, _tasks, algo) = build(8, 8);
        let mut m = Machine::new(&algo, 8, CycleBudget::PAPER).unwrap();
        let d = algo.layout().d;
        let w = algo.layout().w;
        let tree = algo.tree();

        // State: the subtree over leaves {8,9} is finished (nodes 8, 9, 4
        // done), leaf 12 is done, leaves 14 and 15 are done but not yet
        // aggregated into node 7.
        {
            let mem = m.memory_mut();
            for node in [4usize, 8, 9, 12, 14, 15] {
                mem.poke(d.at(node), 1);
            }
            // x values consistent with the done leaves.
            for leaf in [0usize, 1, 4, 6, 7] {
                mem.poke(leaf, 1); // x region starts at address 0
            }
            // Active processors: 0 and 1 at node 5 (both subtrees
            // unfinished), 4 at node 6 (left child done, right not),
            // 6 and 7 at the done leaves 14 and 15.
            mem.poke(w.at(0), 5);
            mem.poke(w.at(1), 5);
            mem.poke(w.at(4), 6);
            mem.poke(w.at(6), 14);
            mem.poke(w.at(7), 15);
            // Processors 2, 3 and 5 have been failed by the adversary; park
            // their positions outside the tree so they halt if revived.
            mem.poke(w.at(2), 0);
            mem.poke(w.at(3), 0);
            mem.poke(w.at(5), 0);
        }

        m.tick(&mut NoFailures).unwrap();

        let mem = m.memory();
        // "processors 0 and 1 will descend to the left and right
        // respectively" — PID bit 2 of 0 = 0 (left), of 1 = 1 (right).
        assert_eq!(mem.peek(w.at(0)), tree.left(5) as Word); // leaf 10
        assert_eq!(mem.peek(w.at(1)), tree.right(5) as Word); // leaf 11
                                                              // "processor 4 will move to the unvisited leaf to its right"
        assert_eq!(mem.peek(w.at(4)), tree.right(6) as Word); // leaf 13
                                                              // "processors 6 and 7 will move up"
        assert_eq!(mem.peek(w.at(6)), 7);
        assert_eq!(mem.peek(w.at(7)), 7);
    }

    /// Restart resilience: an adversary that fails and restarts a random
    /// half of the processors every few cycles cannot prevent termination.
    struct Churn {
        k: u64,
    }
    impl Adversary for Churn {
        fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
            let mut d = Decisions::none();
            if view.cycle.is_multiple_of(3) {
                let active: Vec<_> = view.active_pids().collect();
                for (idx, pid) in active.iter().enumerate() {
                    // Keep at least one processor completing.
                    if idx + 1 < active.len()
                        && (pid.0 as u64 + self.k + view.cycle).is_multiple_of(2)
                    {
                        d.fail(*pid, FailPoint::BeforeWrites);
                        d.restart(*pid);
                    }
                }
            }
            d
        }
    }

    #[test]
    fn survives_fail_restart_churn() {
        let (_l, tasks, algo) = build(64, 16);
        let mut m = Machine::new(&algo, 16, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut Churn { k: 7 }).unwrap();
        assert!(tasks.all_written(m.memory()));
        assert!(report.stats.failures > 0, "the adversary did fail processors");
        assert_eq!(report.stats.failures, report.stats.restarts);
    }

    /// Work only grows when processors overlap (Lemma 4.5 flavor): P = 2N
    /// processors behave like N at at most twice the cost.
    #[test]
    fn modular_pids_handle_p_equal_n_times_2() {
        let (_l, tasks, algo) = build(16, 32);
        let mut m = Machine::new(&algo, 32, CycleBudget::PAPER).unwrap();
        m.run(&mut NoFailures).unwrap();
        assert!(tasks.all_written(m.memory()));
    }

    #[test]
    fn counting_variant_solves_write_all() {
        for (n, p) in [(8usize, 8usize), (37, 5), (64, 16), (1, 1)] {
            let mut layout = LayoutBuilder::new();
            let tasks = WriteAllTasks::new(&mut layout, n);
            let algo = AlgoX::new(
                &mut layout,
                tasks,
                p,
                XOptions { counting: true, ..Default::default() },
            );
            let mut m = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
            m.run(&mut NoFailures).unwrap();
            assert!(tasks.all_written(m.memory()), "n={n} p={p}");
        }
    }

    #[test]
    fn counting_variant_survives_churn() {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, 64);
        let algo =
            AlgoX::new(&mut layout, tasks, 16, XOptions { counting: true, ..Default::default() });
        let mut m = Machine::new(&algo, 16, CycleBudget::PAPER).unwrap();
        m.run(&mut Churn { k: 3 }).unwrap();
        assert!(tasks.all_written(m.memory()));
    }

    #[test]
    #[should_panic(expected = "single-round")]
    fn counting_rejects_multi_round() {
        struct TwoRounds(WriteAllTasks);
        impl crate::tasks::TaskSet for TwoRounds {
            fn len(&self) -> usize {
                self.0.len()
            }
            fn rounds(&self) -> Word {
                2
            }
            fn plan(&self, round: Word, i: usize, values: &[Word], reads: &mut rfsp_pram::ReadSet) {
                self.0.plan(round, i, values, reads)
            }
            fn run(
                &self,
                round: Word,
                i: usize,
                values: &[Word],
                writes: &mut rfsp_pram::WriteSet,
            ) -> bool {
                self.0.run(round, i, values, writes)
            }
            fn is_done(&self, mem: &SharedMemory, round: Word, i: usize) -> bool {
                self.0.is_done(mem, round, i)
            }
            fn max_reads(&self) -> usize {
                1
            }
            fn max_writes(&self) -> usize {
                1
            }
        }
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, 8);
        let _ = AlgoX::new(
            &mut layout,
            TwoRounds(tasks),
            2,
            XOptions { counting: true, ..Default::default() },
        );
    }

    #[test]
    fn is_complete_reflects_root_round() {
        let (_l, _tasks, algo) = build(4, 2);
        let mut mem = SharedMemory::new(algo.shared_size());
        algo.init_memory(&mut mem);
        assert!(!algo.is_complete(&mem));
        mem.poke(algo.layout().d.at(1), 1);
        assert!(algo.is_complete(&mem));
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn rejects_empty_task_set() {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, 0);
        let _ = AlgoX::new(&mut layout, tasks, 1, XOptions::default());
    }
}
