//! Algorithm W of [KS 89] (§4.1 of the paper), the fail-stop baseline.
//!
//! W is V's ancestor: each iteration has **four** phases, the extra one
//! being a *processor enumeration* over a counting tree —
//!
//! 1. **Count** (`1 + log P` ticks): the active processors write a tagged 1
//!    at their counting-tree leaf and aggregate bottom-up, each learning
//!    its rank among — and the total number of — active processors;
//! 2. **Allocate** (`log L` ticks): top-down divide-and-conquer over the
//!    progress tree, splitting the *enumerated* processors (rank of total)
//!    proportionally to unvisited leaf counts;
//! 3. **Work** (β ticks) and 4. **Update** (1 + `log L` ticks): as in V.
//!
//! Under fail-stop errors *without restarts* this allocation is tight and
//! W achieves `S = O(N + P log² N)` ([KS 89]; [Mar 91] per the paper). With
//! restarts, however, "no accurate estimates of active processors can be
//! obtained": revived processors are invisible until the next wrap, the
//! enumeration both over- and under-counts, and the paper's V removes the
//! enumeration phase entirely by ranking with *permanent PIDs*. We keep W
//! runnable under restarts (it borrows V's clock so revived processors can
//! resynchronize — the minimal extension the paper sketches) precisely so
//! the experiments can measure V against it.

use rfsp_pram::{LayoutBuilder, Pid, Program, ReadSet, Region, SharedMemory, Step, Word, WriteSet};

use crate::algo_v::balanced_split;
use crate::tasks::TaskSet;
use crate::tree::HeapTree;

#[inline]
fn pack(tag: Word, count: u64) -> Word {
    debug_assert!(count < (1 << 40));
    (tag << 40) | count
}

#[inline]
fn count_for(tag: Word, v: Word) -> u64 {
    if v >> 40 == tag {
        v & ((1 << 40) - 1)
    } else {
        0
    }
}

/// Shared-memory layout of algorithm W.
#[derive(Clone, Copy, Debug)]
pub struct WLayout {
    /// The iteration clock (1 cell).
    pub clock: Region,
    /// The counting tree: packed (iteration, active-count) per node.
    pub c: Region,
    /// The progress heap: packed (1, done-leaf-count) per node.
    pub dv: Region,
}

/// Per-processor state.
#[derive(Clone, Copy, Debug, Default, serde::Serialize, serde::Deserialize)]
pub enum WPrivate {
    /// Waiting for the clock to wrap.
    #[default]
    Spin,
    /// Ascending the counting tree, accumulating the enumeration rank.
    Count { rank: u64 },
    /// Descending the progress tree with the enumerated (rank, width).
    Alloc { node: usize, rank: u64, width: u64 },
    /// Working at / updating above a leaf.
    AtLeaf { leaf: usize },
}

/// Algorithm W over an arbitrary task set (single round).
#[derive(Clone, Debug)]
pub struct AlgoW<T> {
    tasks: T,
    tree: HeapTree,
    ptree: HeapTree,
    beta: usize,
    real_leaves: usize,
    layout: WLayout,
}

impl<T: TaskSet> AlgoW<T> {
    /// Build algorithm W for `p` processors over `tasks`.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty, `p == 0`, or the task set is
    /// multi-round (W is a single-round baseline).
    pub fn new(layout: &mut LayoutBuilder, tasks: T, p: usize) -> Self {
        assert!(!tasks.is_empty(), "algorithm W needs at least one task");
        assert!(p > 0, "algorithm W needs at least one processor");
        assert_eq!(tasks.rounds(), 1, "algorithm W supports a single round");
        let n = tasks.len();
        let beta = (usize::BITS - (n - 1).leading_zeros()).max(1) as usize;
        let real_leaves = n.div_ceil(beta);
        let tree = HeapTree::with_leaves(real_leaves);
        let ptree = HeapTree::with_leaves(p);
        let w_layout = WLayout {
            clock: layout.alloc(1),
            c: layout.alloc(ptree.heap_size()),
            dv: layout.alloc(tree.heap_size()),
        };
        AlgoW { tasks, tree, ptree, beta, real_leaves, layout: w_layout }
    }

    /// The algorithm's shared-memory layout.
    pub fn layout(&self) -> &WLayout {
        &self.layout
    }

    /// The progress-tree shape.
    pub fn tree(&self) -> HeapTree {
        self.tree
    }

    /// Iteration length: `(1 + log P) + log L + β + 1 + log L` ticks.
    pub fn iteration_ticks(&self) -> u64 {
        (1 + self.ptree.height() as u64) + 2 * self.tree.height() as u64 + self.beta as u64 + 1
    }

    fn h(&self) -> u64 {
        self.tree.height() as u64
    }

    fn hp(&self) -> u64 {
        self.ptree.height() as u64
    }

    fn real_leaves_under(&self, v: usize) -> u64 {
        let first = self.tree.first_leaf_under(v);
        let span = self.tree.subtree_leaves(v);
        self.real_leaves.saturating_sub(first).min(span) as u64
    }

    fn leaf_tasks(&self, leaf_idx: usize) -> (usize, usize) {
        let lo = leaf_idx * self.beta;
        let hi = ((leaf_idx + 1) * self.beta).min(self.tasks.len());
        (lo, hi)
    }

    /// My counting-tree leaf node.
    fn count_leaf(&self, pid: Pid) -> usize {
        self.ptree.leaf_node(pid.0 % self.ptree.leaves())
    }
}

impl<T: TaskSet + Sync> Program for AlgoW<T> {
    type Private = WPrivate;

    fn shared_size(&self) -> usize {
        self.layout.dv.base() + self.layout.dv.len()
    }

    fn init_memory(&self, mem: &mut SharedMemory) {
        self.tasks.init_memory(mem);
    }

    fn on_start(&self, _pid: Pid) -> WPrivate {
        WPrivate::Spin
    }

    fn plan(&self, pid: Pid, state: &WPrivate, values: &[Word], reads: &mut ReadSet) {
        if values.is_empty() {
            reads.push(self.layout.clock.at(0));
            return;
        }
        let t = self.iteration_ticks();
        let clock = values[0];
        let phase = clock % t;
        let hp = self.hp();
        let h = self.h();
        let beta = self.beta as u64;
        let alloc0 = hp + 1;
        let work0 = alloc0 + h;
        let mark = work0 + beta;

        if values.len() == 1 {
            if phase == 0 {
                // Enumeration leaf write: no further reads.
            } else if phase <= hp {
                if let WPrivate::Count { .. } = state {
                    let a = self.count_leaf(pid) >> phase;
                    reads.push(self.layout.c.at(self.ptree.left(a)));
                    reads.push(self.layout.c.at(self.ptree.right(a)));
                }
            } else if phase < work0 {
                if let WPrivate::Alloc { node, .. } = state {
                    reads.push(self.layout.dv.at(self.tree.left(*node)));
                    reads.push(self.layout.dv.at(self.tree.right(*node)));
                }
            } else if phase < mark {
                if let WPrivate::AtLeaf { leaf } = state {
                    let k = (phase - work0) as usize;
                    let (lo, hi) = self.leaf_tasks(self.tree.leaf_index(*leaf));
                    if lo + k < hi {
                        self.tasks.plan(1, lo + k, &values[1..], reads);
                    }
                }
            } else if phase > mark {
                if let WPrivate::AtLeaf { leaf } = state {
                    let j = phase - mark - 1;
                    let a = *leaf >> (j + 1);
                    reads.push(self.layout.dv.at(self.tree.left(a)));
                    reads.push(self.layout.dv.at(self.tree.right(a)));
                }
            }
            return;
        }
        // Chained task reads during the work phase.
        if phase >= work0 && phase < mark {
            if let WPrivate::AtLeaf { leaf } = state {
                let k = (phase - work0) as usize;
                let (lo, hi) = self.leaf_tasks(self.tree.leaf_index(*leaf));
                if lo + k < hi {
                    self.tasks.plan(1, lo + k, &values[1..], reads);
                }
            }
        }
    }

    fn execute(
        &self,
        pid: Pid,
        state: &mut WPrivate,
        values: &[Word],
        writes: &mut WriteSet,
    ) -> Step {
        let clock = values[0];
        let t = self.iteration_ticks();
        let phase = clock % t;
        let iter = clock / t; // counting-tree freshness tag
        let hp = self.hp();
        let h = self.h();
        let beta = self.beta as u64;
        let alloc0 = hp + 1;
        let work0 = alloc0 + h;
        let mark = work0 + beta;
        let mut step = Step::Continue;

        if phase == 0 {
            // Phase 1 begins: stamp my counting leaf.
            writes.push(self.layout.c.at(self.count_leaf(pid)), pack(iter, 1));
            *state = WPrivate::Count { rank: 0 };
        } else if phase <= hp {
            if let WPrivate::Count { rank } = *state {
                let a = self.count_leaf(pid) >> phase;
                let c_l = count_for(iter, values[1]);
                let c_r = count_for(iter, values[2]);
                // Came from the right child: everyone on the left precedes me.
                let from_right = (self.count_leaf(pid) >> (phase - 1)) & 1 == 1;
                let rank = rank + if from_right { c_l } else { 0 };
                writes.push(self.layout.c.at(a), pack(iter, c_l + c_r));
                *state = if phase == hp {
                    // Enumeration complete: rank of `width` active processors.
                    WPrivate::Alloc { node: self.tree.root(), rank, width: (c_l + c_r).max(1) }
                } else {
                    WPrivate::Count { rank }
                };
            }
        } else if phase < work0 {
            if let WPrivate::Alloc { node, rank, width } = *state {
                let c_l = count_for(1, values[1]);
                let c_r = count_for(1, values[2]);
                let left = self.tree.left(node);
                let right = self.tree.right(node);
                let u_l = self.real_leaves_under(left).saturating_sub(c_l);
                let u_r = self.real_leaves_under(right).saturating_sub(c_r);
                if node == self.tree.root() && u_l + u_r == 0 {
                    step = Step::Halt;
                } else {
                    let nl = balanced_split(u_l, u_r, width);
                    let (next, rank, width) =
                        if rank < nl { (left, rank, nl) } else { (right, rank - nl, width - nl) };
                    *state = if phase == work0 - 1 {
                        WPrivate::AtLeaf { leaf: next }
                    } else {
                        WPrivate::Alloc { node: next, rank, width }
                    };
                }
            }
        } else if phase < mark {
            if let WPrivate::AtLeaf { leaf } = *state {
                let k = (phase - work0) as usize;
                let (lo, hi) = self.leaf_tasks(self.tree.leaf_index(leaf));
                if lo + k < hi {
                    let _ = self.tasks.run(1, lo + k, &values[1..], writes);
                }
            }
        } else if phase == mark {
            if let WPrivate::AtLeaf { leaf } = *state {
                let (lo, hi) = self.leaf_tasks(self.tree.leaf_index(leaf));
                if lo < hi {
                    writes.push(self.layout.dv.at(leaf), pack(1, 1));
                }
            }
        } else {
            if let WPrivate::AtLeaf { leaf } = *state {
                let j = phase - mark - 1;
                let a = leaf >> (j + 1);
                let c = count_for(1, values[1]) + count_for(1, values[2]);
                writes.push(self.layout.dv.at(a), pack(1, c));
            }
        }

        writes.push(self.layout.clock.at(0), clock + 1);
        if phase == t - 1 && !matches!(step, Step::Halt) {
            *state = WPrivate::Spin;
        }
        step
    }

    // Keeps the default `completion_hint` (untracked): the predicate is a
    // *threshold* over two packed counters, not a per-cell conjunction,
    // and the two-peek scan is already O(1).
    fn is_complete(&self, mem: &SharedMemory) -> bool {
        let done = count_for(1, mem.peek(self.layout.dv.at(2)))
            + count_for(1, mem.peek(self.layout.dv.at(3)));
        done >= self.real_leaves as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::WriteAllTasks;
    use rfsp_pram::{
        Adversary, CycleBudget, Decisions, FailPoint, Machine, MachineView, NoFailures,
    };

    fn build(n: usize, p: usize) -> (WriteAllTasks, AlgoW<WriteAllTasks>) {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoW::new(&mut layout, tasks, p);
        (tasks, algo)
    }

    #[test]
    fn solves_write_all_without_failures() {
        for (n, p) in [(8, 8), (64, 16), (33, 4), (100, 100)] {
            let (tasks, algo) = build(n, p);
            let mut m = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
            m.run(&mut NoFailures).unwrap();
            assert!(tasks.all_written(m.memory()), "n={n} p={p}");
        }
    }

    /// Fail-stop (no restart): half the processors die mid-run; W must
    /// still finish (this is its home turf).
    struct HalfDie(bool);
    impl Adversary for HalfDie {
        fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
            let mut d = Decisions::none();
            if !self.0 && view.cycle == 5 {
                self.0 = true;
                let active: Vec<_> = view.active_pids().collect();
                for pid in active.iter().skip(active.len() / 2 + 1) {
                    d.fail(*pid, FailPoint::BeforeWrites);
                }
            }
            d
        }
    }

    #[test]
    fn tolerates_fail_stop_without_restarts() {
        let (tasks, algo) = build(64, 8);
        let mut m = Machine::new(&algo, 8, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut HalfDie(false)).unwrap();
        assert!(tasks.all_written(m.memory()));
        assert!(report.stats.failures > 0);
    }

    /// Restarted processors rejoin via the clock and the run still
    /// completes (the clock is the minimal extension the paper sketches).
    struct ChurnW;
    impl Adversary for ChurnW {
        fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
            let mut d = Decisions::none();
            if view.cycle % 5 == 2 && view.cycle < 200 {
                let active: Vec<_> = view.active_pids().collect();
                for pid in active.iter().skip(1).take(3) {
                    d.fail(*pid, FailPoint::BeforeWrites);
                    d.restart(*pid);
                }
            }
            d
        }
    }

    #[test]
    fn restarts_do_not_break_correctness() {
        let (tasks, algo) = build(48, 8);
        let mut m = Machine::new(&algo, 8, CycleBudget::PAPER).unwrap();
        m.run(&mut ChurnW).unwrap();
        assert!(tasks.all_written(m.memory()));
    }

    #[test]
    fn iteration_is_longer_than_v() {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, 256);
        let w = AlgoW::new(&mut layout, tasks, 16);
        let mut layout2 = LayoutBuilder::new();
        let tasks2 = WriteAllTasks::new(&mut layout2, 256);
        let v = crate::algo_v::AlgoV::new(&mut layout2, tasks2, 16);
        assert!(w.iteration_ticks() > v.iteration_ticks());
    }
}
