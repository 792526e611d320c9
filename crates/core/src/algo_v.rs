//! Algorithm V (§4.1): a restart-capable modification of algorithm W.
//!
//! V runs phase-synchronized *iterations* over a progress tree with
//! `L ≈ N/log N` leaves and `β ≈ log N` array elements per leaf:
//!
//! 1. **Allocate** (`log L` ticks): processors descend from the root,
//!    splitting at every node in proportion to the number of unvisited
//!    leaves below each child — using their *permanent PIDs* in the
//!    divide-and-conquer split (the Theorem 3.2 balanced-allocation rule),
//!    which is precisely what frees V from algorithm W's processor
//!    enumeration phase and makes it sound under restarts.
//! 2. **Work** (`β` ticks): each processor performs the tasks of the leaf
//!    it reached, one per tick.
//! 3. **Update** (1 + `log L` ticks): the leaf is marked and the leaf
//!    counts are propagated bottom-up.
//!
//! **The iteration wrap-around counter.** The paper synchronizes restarted
//! processors with a counter that wraps around once per iteration: a
//! revived processor (which knows only its PID) waits for the wrap to
//! rejoin. We implement it as a shared *clock* cell: every alive processor
//! — cohort member or waiting spinner — reads the clock and writes
//! `clock+1` each cycle, which is COMMON-safe (all writers agree) and makes
//! the clock advance by exactly 1 per tick as long as anything is alive
//! (the model's progress condition guarantees at least one completed cycle
//! per tick). The phase within the iteration is `clock mod T`; a spinner
//! joins when the phase wraps to 0. This subsumes the paper's "if the
//! counter did not change for one cycle, start a new iteration by itself":
//! if every cohort member dies, the spinners' own clock writes carry the
//! count to the next wrap, where they form a new cohort.
//!
//! Completed work: `S = O(N + P log² N)` without restarts (Lemma 4.2) and
//! `S = O(N + P log² N + M log N)` under a failure/restart pattern of size
//! `M` (Theorem 4.3) — each failure wastes at most one iteration,
//! `T = O(log N)` cycles, of one processor's work. Note V alone need not
//! terminate under an *infinite* adversary (the paper interleaves it with
//! algorithm X, see [`crate::interleaved`]).

use rfsp_pram::{LayoutBuilder, Pid, Program, ReadSet, Region, SharedMemory, Step, Word, WriteSet};

use crate::tasks::TaskSet;
use crate::tree::HeapTree;

/// Pack a (round, count) pair into one word: counts are tagged with the
/// round that produced them so later rounds see earlier counts as zero.
#[inline]
fn pack(round: Word, count: u64) -> Word {
    debug_assert!(count < (1 << 40));
    (round << 40) | count
}

/// Count encoded in `v`, as seen by `round` (0 if the tag is stale).
#[inline]
fn count_for(round: Word, v: Word) -> u64 {
    if v >> 40 == round {
        v & ((1 << 40) - 1)
    } else {
        0
    }
}

/// The Theorem 3.2 balanced allocation rule, driven by permanent ranks:
/// of `width` processors at a node whose children have `u_l` and `u_r`
/// unvisited leaves, the first `⌈u_l·width/(u_l+u_r)⌉` ranks go left.
///
/// Splitting recursively with this rule reproduces the flat assignment
/// "rank `r` of `width` takes the `⌊r·u/width⌋`-th unvisited leaf", so
/// every unvisited leaf receives between `⌊width/u⌋` and `⌈width/u⌉`
/// processors — the load-balancing invariant behind Lemma 4.2.
///
/// When `u_l + u_r == 0` (a fully-done subtree reached through stale
/// counts) everyone is sent left, which is harmless: the tasks there are
/// idempotent.
#[inline]
pub fn balanced_split(u_l: u64, u_r: u64, width: u64) -> u64 {
    let u = u_l + u_r;
    if u == 0 {
        return width;
    }
    (u_l * width).div_ceil(u)
}

/// Shared-memory layout of algorithm V.
#[derive(Clone, Copy, Debug)]
pub struct VLayout {
    /// The iteration clock (1 cell): total V-ticks elapsed; phase is
    /// `clock mod T`.
    pub clock: Region,
    /// Current round (1 cell; fixed at 1 for plain Write-All).
    pub round: Region,
    /// The progress heap: cell `v` holds a packed (round, done-leaf-count)
    /// for node `v`'s subtree.
    pub dv: Region,
}

/// Per-processor state (lost on failure; a revived processor starts in
/// `Spin` and waits for the clock to wrap).
#[derive(Clone, Copy, Debug, Default, serde::Serialize, serde::Deserialize)]
pub enum VPrivate {
    /// Not in the current cohort; waiting for phase 0.
    #[default]
    Spin,
    /// Descending the progress tree during allocation. `round` pins the
    /// round this cohort joined with: if the shared round counter advances
    /// mid-iteration (possible when another algorithm shares it, see
    /// [`Interleaved`](crate::interleaved::Interleaved)), the member goes
    /// dormant rather than mix rounds.
    Alloc { node: usize, rank: u64, width: u64, round: Word },
    /// Working at (and later updating above) a leaf.
    AtLeaf { leaf: usize, round: Word },
}

/// Algorithm V over an arbitrary task set.
///
/// ```
/// use rfsp_core::{AlgoV, WriteAllTasks};
/// use rfsp_pram::{CycleBudget, Machine, LayoutBuilder, NoFailures};
///
/// # fn main() -> Result<(), rfsp_pram::PramError> {
/// let mut layout = LayoutBuilder::new();
/// let tasks = WriteAllTasks::new(&mut layout, 128);
/// let algo = AlgoV::new(&mut layout, tasks, 16);
/// let mut machine = Machine::new(&algo, 16, CycleBudget::PAPER)?;
/// machine.run(&mut NoFailures)?;
/// assert!(tasks.all_written(machine.memory()));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct AlgoV<T> {
    tasks: T,
    tree: HeapTree,
    /// Tasks per leaf (β ≈ log N).
    beta: usize,
    /// Leaves actually containing tasks; higher leaves are padding and are
    /// never allocated.
    real_leaves: usize,
    p: usize,
    rounds: Word,
    layout: VLayout,
}

impl<T: TaskSet> AlgoV<T> {
    /// Build algorithm V for `p` processors over `tasks`, allocating its
    /// bookkeeping from `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty or `p == 0`.
    pub fn new(layout: &mut LayoutBuilder, tasks: T, p: usize) -> Self {
        let round = layout.alloc(1);
        Self::new_with_round(layout, tasks, p, round)
    }

    /// Like [`AlgoV::new`], but the round cell is provided by the caller
    /// (shared with another algorithm over the same multi-round task set).
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty, `p == 0`, or `round` is not one cell.
    pub fn new_with_round(layout: &mut LayoutBuilder, tasks: T, p: usize, round: Region) -> Self {
        assert!(!tasks.is_empty(), "algorithm V needs at least one task");
        assert!(p > 0, "algorithm V needs at least one processor");
        assert_eq!(round.len(), 1, "the round region is a single cell");
        let n = tasks.len();
        // β = ⌈log₂ N⌉ tasks per leaf (at least 1), L = ⌈N/β⌉ leaves.
        let beta = (usize::BITS - (n - 1).leading_zeros()).max(1) as usize;
        let real_leaves = n.div_ceil(beta);
        let tree = HeapTree::with_leaves(real_leaves);
        let rounds = tasks.rounds();
        let v_layout =
            VLayout { clock: layout.alloc(1), round, dv: layout.alloc(tree.heap_size()) };
        AlgoV { tasks, tree, beta, real_leaves, p, rounds, layout: v_layout }
    }

    /// The algorithm's shared-memory layout.
    pub fn layout(&self) -> &VLayout {
        &self.layout
    }

    /// The progress-tree shape.
    pub fn tree(&self) -> HeapTree {
        self.tree
    }

    /// Tasks per leaf (β).
    pub fn tasks_per_leaf(&self) -> usize {
        self.beta
    }

    /// The task set.
    pub fn tasks(&self) -> &T {
        &self.tasks
    }

    /// Iteration length `T = 2·log L + β + 1` ticks.
    pub fn iteration_ticks(&self) -> u64 {
        2 * self.tree.height() as u64 + self.beta as u64 + 1
    }

    /// The reads/writes budget one cycle of this instance needs.
    pub fn required_budget(&self) -> rfsp_pram::CycleBudget {
        let pre = 1 + usize::from(self.multi_round()); // clock (+ round)
        rfsp_pram::CycleBudget {
            reads: pre + self.tasks.max_reads().max(2),
            writes: 1 + self.tasks.max_writes().max(1),
        }
    }

    fn multi_round(&self) -> bool {
        self.rounds > 1
    }

    fn pre(&self) -> usize {
        1 + usize::from(self.multi_round())
    }

    fn round_of(&self, values: &[Word]) -> Word {
        if self.multi_round() {
            values[1]
        } else {
            1
        }
    }

    /// Number of task-bearing leaves below node `v`.
    fn real_leaves_under(&self, v: usize) -> u64 {
        let first = self.tree.first_leaf_under(v);
        let span = self.tree.subtree_leaves(v);
        self.real_leaves.saturating_sub(first).min(span) as u64
    }

    /// The task range of leaf ordinal `leaf_idx`.
    fn leaf_tasks(&self, leaf_idx: usize) -> (usize, usize) {
        let lo = leaf_idx * self.beta;
        let hi = ((leaf_idx + 1) * self.beta).min(self.tasks.len());
        (lo, hi)
    }

    /// Height `h = log L`.
    fn h(&self) -> u64 {
        self.tree.height() as u64
    }
}

impl<T: TaskSet + Sync> Program for AlgoV<T> {
    type Private = VPrivate;

    fn shared_size(&self) -> usize {
        self.layout.dv.base() + self.layout.dv.len()
    }

    fn init_memory(&self, mem: &mut SharedMemory) {
        self.tasks.init_memory(mem);
        mem.poke(self.layout.round.at(0), 1);
    }

    fn on_start(&self, _pid: Pid) -> VPrivate {
        VPrivate::Spin
    }

    fn plan(&self, _pid: Pid, state: &VPrivate, values: &[Word], reads: &mut ReadSet) {
        let pre = self.pre();
        if values.is_empty() {
            reads.push(self.layout.clock.at(0));
            if self.multi_round() {
                reads.push(self.layout.round.at(0));
            }
            return;
        }
        let t = self.iteration_ticks();
        let phase = values[0] % t;
        let h = self.h();
        let r = self.round_of(values);
        if r > self.rounds {
            return;
        }
        if values.len() == pre {
            // Second batch: phase-specific reads.
            if phase == 0 {
                // Everyone joins: read the root's children counts.
                reads.push(self.layout.dv.at(2));
                reads.push(self.layout.dv.at(3));
            } else if phase < h {
                if let VPrivate::Alloc { node, round, .. } = state {
                    if *round == r {
                        reads.push(self.layout.dv.at(self.tree.left(*node)));
                        reads.push(self.layout.dv.at(self.tree.right(*node)));
                    }
                }
            } else if phase < h + self.beta as u64 {
                if let VPrivate::AtLeaf { leaf, round } = state {
                    if *round == r {
                        let k = (phase - h) as usize;
                        let (lo, hi) = self.leaf_tasks(self.tree.leaf_index(*leaf));
                        if lo + k < hi {
                            self.tasks.plan(r, lo + k, &values[pre..], reads);
                        }
                    }
                }
            } else if phase > h + self.beta as u64 {
                // Update tick j: read the children of the ancestor we write.
                if let VPrivate::AtLeaf { leaf, round } = state {
                    if *round == r {
                        let j = phase - (h + self.beta as u64 + 1);
                        let a = leaf >> (j + 1);
                        reads.push(self.layout.dv.at(self.tree.left(a)));
                        reads.push(self.layout.dv.at(self.tree.right(a)));
                    }
                }
            }
            // Mark tick (phase == h + β): no reads.
            return;
        }
        // Later batches: only a work tick's task can chain reads.
        if phase >= h && phase < h + self.beta as u64 {
            if let VPrivate::AtLeaf { leaf, round } = state {
                if *round == r {
                    let k = (phase - h) as usize;
                    let (lo, hi) = self.leaf_tasks(self.tree.leaf_index(*leaf));
                    if lo + k < hi {
                        self.tasks.plan(r, lo + k, &values[pre..], reads);
                    }
                }
            }
        }
    }

    fn execute(
        &self,
        pid: Pid,
        state: &mut VPrivate,
        values: &[Word],
        writes: &mut WriteSet,
    ) -> Step {
        let pre = self.pre();
        let clock = values[0];
        let r = self.round_of(values);
        if r > self.rounds {
            return Step::Halt;
        }
        let t = self.iteration_ticks();
        let phase = clock % t;
        let h = self.h();
        let beta = self.beta as u64;

        // Every cycle advances the clock (the wrap-around counter).
        let mut step = Step::Continue;

        if phase == 0 {
            // Join: allocate from the root.
            let c_l = count_for(r, values[pre]);
            let c_r = count_for(r, values[pre + 1]);
            let u_l = self.real_leaves_under(2).saturating_sub(c_l);
            let u_r = self.real_leaves_under(3).saturating_sub(c_r);
            if u_l + u_r == 0 {
                // Round complete.
                if r == self.rounds {
                    if self.multi_round() {
                        // Signal global completion on the shared counter.
                        writes.push(self.layout.round.at(0), r + 1);
                    }
                    step = Step::Halt;
                } else {
                    writes.push(self.layout.round.at(0), r + 1);
                    *state = VPrivate::Spin; // sit out the rest of this iteration
                }
            } else {
                let pid_rank = (pid.0 as u64) % (self.p as u64).max(1);
                let nl = balanced_split(u_l, u_r, self.p as u64);
                let (node, rank, width) = if pid_rank < nl {
                    (2, pid_rank, nl)
                } else {
                    (3, pid_rank - nl, self.p as u64 - nl)
                };
                *state = if h == 1 {
                    VPrivate::AtLeaf { leaf: node, round: r }
                } else {
                    VPrivate::Alloc { node, rank, width, round: r }
                };
            }
        } else if phase < h {
            if let VPrivate::Alloc { node, rank, width, round } = *state {
                if round != r {
                    // The shared round advanced mid-iteration: go dormant.
                    *state = VPrivate::Spin;
                    writes.push(self.layout.clock.at(0), clock + 1);
                    return Step::Continue;
                }
                let c_l = count_for(r, values[pre]);
                let c_r = count_for(r, values[pre + 1]);
                let left = self.tree.left(node);
                let right = self.tree.right(node);
                let u_l = self.real_leaves_under(left).saturating_sub(c_l);
                let u_r = self.real_leaves_under(right).saturating_sub(c_r);
                let nl = balanced_split(u_l, u_r, width);
                let (next, rank, width) =
                    if rank < nl { (left, rank, nl) } else { (right, rank - nl, width - nl) };
                *state = if phase == h - 1 {
                    VPrivate::AtLeaf { leaf: next, round }
                } else {
                    VPrivate::Alloc { node: next, rank, width, round }
                };
            }
        } else if phase < h + beta {
            if let VPrivate::AtLeaf { leaf, round } = *state {
                if round != r {
                    *state = VPrivate::Spin;
                } else {
                    let k = (phase - h) as usize;
                    let (lo, hi) = self.leaf_tasks(self.tree.leaf_index(leaf));
                    if lo + k < hi {
                        let _observed = self.tasks.run(r, lo + k, &values[pre..], writes);
                        // One committed attempt completes the task (TaskSet
                        // contract); a processor that survives the whole work
                        // phase may therefore mark the leaf at the mark tick.
                    }
                }
            }
        } else if phase == h + beta {
            if let VPrivate::AtLeaf { leaf, round } = *state {
                if round != r {
                    *state = VPrivate::Spin;
                } else {
                    let (lo, hi) = self.leaf_tasks(self.tree.leaf_index(leaf));
                    if lo < hi {
                        writes.push(self.layout.dv.at(leaf), pack(r, 1));
                    }
                }
            }
        } else {
            // Update tick j = phase - (h + β + 1): write ancestor at depth
            // h - 1 - j from its children's counts.
            if let VPrivate::AtLeaf { leaf, round } = *state {
                if round != r {
                    *state = VPrivate::Spin;
                } else {
                    let j = phase - (h + beta + 1);
                    let a = leaf >> (j + 1);
                    let c = count_for(r, values[pre]) + count_for(r, values[pre + 1]);
                    writes.push(self.layout.dv.at(a), pack(r, c));
                }
            }
        }

        writes.push(self.layout.clock.at(0), clock + 1);
        if phase == t - 1 {
            // Iteration over: everyone rejoins at the wrap.
            if !matches!(step, Step::Halt) {
                *state = VPrivate::Spin;
            }
        }
        step
    }

    // Keeps the default `completion_hint` (untracked): completion couples
    // the round counter with round-tagged threshold counters — not a
    // per-cell conjunction — and the fixed-peek scan is already O(1).
    fn is_complete(&self, mem: &SharedMemory) -> bool {
        let r = mem.peek(self.layout.round.at(0));
        if self.multi_round() && r > self.rounds {
            return true;
        }
        if r != self.rounds {
            return false;
        }
        let done = count_for(r, mem.peek(self.layout.dv.at(2)))
            + count_for(r, mem.peek(self.layout.dv.at(3)));
        done >= self.real_leaves as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::WriteAllTasks;
    use rfsp_pram::{
        Adversary, CycleBudget, Decisions, FailPoint, Machine, MachineView, NoFailures, RunOutcome,
    };

    fn build(n: usize, p: usize) -> (WriteAllTasks, AlgoV<WriteAllTasks>) {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoV::new(&mut layout, tasks, p);
        (tasks, algo)
    }

    #[test]
    fn packing_roundtrip() {
        let v = pack(3, 12345);
        assert_eq!(count_for(3, v), 12345);
        assert_eq!(count_for(2, v), 0, "stale tags read as zero");
        assert_eq!(count_for(4, v), 0);
    }

    #[test]
    fn split_is_proportional_and_total() {
        // All splits conserve processors and respect emptiness.
        for (u_l, u_r, width) in [(4u64, 4, 8), (1, 7, 8), (0, 5, 3), (5, 0, 3), (3, 3, 1)] {
            let nl = balanced_split(u_l, u_r, width);
            assert!(nl <= width);
            if u_l == 0 && u_r > 0 {
                assert_eq!(nl, 0);
            }
            if u_r == 0 && u_l > 0 {
                assert_eq!(nl, width);
            }
            if u_l > 0 && width >= u_l + u_r {
                assert!(nl > 0, "nonempty side must get processors when plentiful");
            }
        }
    }

    #[test]
    fn solves_write_all_without_failures() {
        for (n, p) in [(1, 1), (8, 8), (33, 4), (64, 64), (100, 7), (16, 1)] {
            let (tasks, algo) = build(n, p);
            let mut m = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
            let report = m.run(&mut NoFailures).unwrap();
            assert_eq!(report.outcome, RunOutcome::Completed, "n={n} p={p}");
            assert!(tasks.all_written(m.memory()), "n={n} p={p}");
        }
    }

    #[test]
    fn fits_the_paper_cycle_budget() {
        let (_t, algo) = build(256, 16);
        let b = algo.required_budget();
        assert!(b.reads <= CycleBudget::PAPER.reads, "reads {}", b.reads);
        assert!(b.writes <= CycleBudget::PAPER.writes, "writes {}", b.writes);
    }

    #[test]
    fn iteration_length_matches_structure() {
        let (_t, algo) = build(64, 8);
        // 64 tasks, β = 6, L = ⌈64/6⌉ = 11 → 16 leaves, h = 4.
        assert_eq!(algo.tasks_per_leaf(), 6);
        assert_eq!(algo.tree().leaves(), 16);
        assert_eq!(algo.iteration_ticks(), 2 * 4 + 6 + 1);
    }

    /// An adversary that kills the whole cohort mid-iteration a few times:
    /// restarted processors must wait for the wrap and the computation must
    /// still finish.
    struct CohortKiller {
        remaining: u32,
    }
    impl Adversary for CohortKiller {
        fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
            let mut d = Decisions::none();
            if self.remaining > 0 && view.cycle % 7 == 3 {
                self.remaining -= 1;
                let active: Vec<_> = view.active_pids().collect();
                // Fail all but one (the model requires a survivor), restart
                // them immediately.
                for pid in active.iter().skip(1) {
                    d.fail(*pid, FailPoint::BeforeWrites);
                    d.restart(*pid);
                }
            }
            d
        }
    }

    #[test]
    fn survives_cohort_killing() {
        let (tasks, algo) = build(128, 16);
        let mut m = Machine::new(&algo, 16, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut CohortKiller { remaining: 10 }).unwrap();
        assert!(tasks.all_written(m.memory()));
        assert!(report.stats.failures > 0);
    }

    /// The lone-survivor property: even with P = 1 the iteration structure
    /// works (one processor walks every phase by itself).
    #[test]
    fn single_processor_completes() {
        let (tasks, algo) = build(40, 1);
        let mut m = Machine::new(&algo, 1, CycleBudget::PAPER).unwrap();
        m.run(&mut NoFailures).unwrap();
        assert!(tasks.all_written(m.memory()));
    }
}
