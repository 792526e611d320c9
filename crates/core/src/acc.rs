//! A randomized Write-All algorithm in the style of [MSP 90]'s
//! "asynchronous coupon clipping" (ACC) — the victim of §5's *stalking
//! adversary*.
//!
//! The paper describes ACC's relevant structure: processors independently
//! hunt for undone leaves ("coupons") of a binary tree, choosing randomly
//! where algorithm X consults a PID bit, and returning to the root after
//! clipping a coupon. Against *off-line* (non-adaptive) adversaries its
//! expected work is good; §5 observes that a simple **on-line** adversary —
//! pick one leaf, fail every processor that touches it (fail-stop), or fail
//! *and restart* them (restart model) — forces expected work
//! `Ω(N²/polylog N)`, resp. exponential-in-`N`, because independent random
//! restarts almost never land every processor on the target leaf
//! simultaneously.
//!
//! [MSP 90]'s exact pseudocode is not reproduced in the paper; this is a
//! faithful reconstruction of the structure §5's argument relies on (see
//! DESIGN.md, substitution 3).

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rfsp_pram::{
    CompletionHint, LayoutBuilder, Pid, Program, ReadSet, Region, SharedMemory, Step, Word,
    WriteSet,
};

use crate::tasks::TaskSet;
use crate::tree::HeapTree;

/// Options for [`AlgoAcc`].
#[derive(Clone, Copy, Debug)]
pub struct AccOptions {
    /// Master seed; every (re)start derives a fresh stream from it.
    pub seed: u64,
}

impl Default for AccOptions {
    fn default() -> Self {
        AccOptions { seed: 0x5EED_ACC0 }
    }
}

/// Per-processor state: current tree position and private randomness
/// (both lost on failure — a restarted processor re-enters at the root
/// with a fresh random stream, which is exactly what the stalking
/// adversary exploits).
#[derive(Clone, Debug)]
pub struct AccPrivate {
    node: usize,
    rng: SmallRng,
    /// Remaining idle cycles after a (re)start. [MSP 90]'s processors are
    /// *asynchronous*; on our synchronous machine a small random start-up
    /// delay models the phase drift between them (without it, two restarted
    /// processors would re-descend in deterministic lockstep).
    delay: u8,
}

// Manual serde: `SmallRng` is checkpointed through its raw xoshiro state
// (the derive cannot see inside it). Note that checkpointing an ACC *run*
// is still lossy — `AlgoAcc::incarnations` is program-level state that a
// resumed run cannot recover — so runners exclude ACC from kill/resume
// chaos; the private-state impl exists so ACC machines can at least be
// snapshotted for inspection.
impl serde::Serialize for AccPrivate {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("node".to_string(), serde::Value::UInt(self.node as u64)),
            (
                "rng".to_string(),
                serde::Value::Seq(
                    self.rng.state().iter().map(|&w| serde::Value::UInt(w)).collect(),
                ),
            ),
            ("delay".to_string(), serde::Value::UInt(self.delay as u64)),
        ])
    }
}

impl serde::Deserialize for AccPrivate {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let need = |name: &str| {
            v.get(name).ok_or_else(|| serde::Error::custom(format!("AccPrivate needs `{name}`")))
        };
        let node = need("node")?
            .as_u64()
            .ok_or_else(|| serde::Error::custom("`node` must be an integer"))?
            as usize;
        let delay = need("delay")?
            .as_u64()
            .ok_or_else(|| serde::Error::custom("`delay` must be an integer"))?
            as u8;
        let words: Vec<u64> = need("rng")?
            .as_seq()
            .ok_or_else(|| serde::Error::custom("`rng` must be a sequence"))?
            .iter()
            .filter_map(serde::Value::as_u64)
            .collect();
        let state: [u64; 4] = words
            .try_into()
            .map_err(|_| serde::Error::custom("`rng` must hold exactly four u64 words"))?;
        Ok(AccPrivate { node, rng: SmallRng::from_state(state), delay })
    }
}

/// Randomized coupon-clipping Write-All (single round).
#[derive(Debug)]
pub struct AlgoAcc<T> {
    tasks: T,
    tree: HeapTree,
    d: Region,
    seed: u64,
    /// Distinguishes successive (re)starts so revived processors do not
    /// replay their previous random choices.
    incarnations: AtomicU64,
}

impl<T: TaskSet> AlgoAcc<T> {
    /// Build ACC over `tasks`, allocating its progress heap from `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty or multi-round.
    pub fn new(layout: &mut LayoutBuilder, tasks: T, opts: AccOptions) -> Self {
        assert!(!tasks.is_empty(), "ACC needs at least one task");
        assert_eq!(tasks.rounds(), 1, "ACC supports a single round");
        let tree = HeapTree::with_leaves(tasks.len());
        let d = layout.alloc(tree.heap_size());
        AlgoAcc { tasks, tree, d, seed: opts.seed, incarnations: AtomicU64::new(0) }
    }

    /// The progress heap region.
    pub fn d_region(&self) -> Region {
        self.d
    }

    /// The progress-tree shape.
    pub fn tree(&self) -> HeapTree {
        self.tree
    }
}

impl<T: TaskSet + Sync> Program for AlgoAcc<T> {
    type Private = AccPrivate;

    fn shared_size(&self) -> usize {
        self.d.base() + self.d.len()
    }

    fn init_memory(&self, mem: &mut SharedMemory) {
        self.tasks.init_memory(mem);
    }

    fn on_start(&self, pid: Pid) -> AccPrivate {
        let inc = self.incarnations.fetch_add(1, Ordering::Relaxed);
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((pid.0 as u64) << 32)
            .wrapping_add(inc);
        let mut rng = SmallRng::seed_from_u64(seed);
        let delay = rng.random_range(0..4);
        AccPrivate { node: self.tree.root(), rng, delay }
    }

    fn plan(&self, _pid: Pid, state: &AccPrivate, values: &[Word], reads: &mut ReadSet) {
        let node = state.node;
        if state.delay > 0 {
            return; // still settling in after a (re)start
        }
        if values.is_empty() {
            reads.push(self.d.at(node));
            return;
        }
        if values.len() == 1 {
            if values[0] == 1 {
                return; // node done: private move, no further reads
            }
            if !self.tree.is_leaf(node) {
                reads.push(self.d.at(self.tree.left(node)));
                reads.push(self.d.at(self.tree.right(node)));
            } else {
                let i = self.tree.leaf_index(node);
                if i < self.tasks.len() {
                    self.tasks.plan(1, i, &values[1..], reads);
                }
            }
            return;
        }
        if self.tree.is_leaf(node) {
            let i = self.tree.leaf_index(node);
            if i < self.tasks.len() {
                self.tasks.plan(1, i, &values[1..], reads);
            }
        }
    }

    fn execute(
        &self,
        _pid: Pid,
        state: &mut AccPrivate,
        values: &[Word],
        writes: &mut WriteSet,
    ) -> Step {
        if state.delay > 0 {
            state.delay -= 1;
            return Step::Continue;
        }
        let node = state.node;
        if values[0] == 1 {
            // Subtree done: clipped a coupon (or found it clipped) — return
            // to the root; at the root, the whole tree is done.
            if node == self.tree.root() {
                return Step::Halt;
            }
            state.node = self.tree.root();
            return Step::Continue;
        }
        if !self.tree.is_leaf(node) {
            let left_done = values[1] == 1;
            let right_done = values[2] == 1;
            match (left_done, right_done) {
                (true, true) => {
                    writes.push(self.d.at(node), 1);
                }
                (false, true) => state.node = self.tree.left(node),
                (true, false) => state.node = self.tree.right(node),
                (false, false) => {
                    // The random coupon choice: a fair coin instead of
                    // algorithm X's PID bit.
                    state.node = if state.rng.random_bool(0.5) {
                        self.tree.left(node)
                    } else {
                        self.tree.right(node)
                    };
                }
            }
            return Step::Continue;
        }
        let i = self.tree.leaf_index(node);
        if i >= self.tasks.len() {
            writes.push(self.d.at(node), 1);
            return Step::Continue;
        }
        let observed_done = self.tasks.run(1, i, &values[1..], writes);
        if observed_done {
            writes.push(self.d.at(node), 1);
        }
        Step::Continue
    }

    fn is_complete(&self, mem: &SharedMemory) -> bool {
        mem.peek(self.d.at(self.tree.root())) == 1
    }

    // The predicate is a single root cell; tracking it saves the machine's
    // per-tick completion call entirely (the scan was already O(1), but the
    // hint keeps the hot loop branch-free).
    fn completion_hint(&self, addr: usize, value: Word) -> CompletionHint {
        if addr == self.d.at(self.tree.root()) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::WriteAllTasks;
    use rfsp_pram::{CycleBudget, Machine, NoFailures};

    fn build(n: usize) -> (WriteAllTasks, AlgoAcc<WriteAllTasks>) {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoAcc::new(&mut layout, tasks, AccOptions::default());
        (tasks, algo)
    }

    #[test]
    fn solves_write_all_without_failures() {
        for (n, p) in [(8, 8), (32, 4), (17, 17), (64, 1)] {
            let (tasks, algo) = build(n);
            let mut m = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
            m.run(&mut NoFailures).unwrap();
            assert!(tasks.all_written(m.memory()), "n={n} p={p}");
        }
    }

    #[test]
    fn restarts_get_fresh_randomness() {
        let (_tasks, algo) = build(8);
        let a = algo.on_start(Pid(0));
        let b = algo.on_start(Pid(0));
        // Same PID, different incarnation: different stream state.
        let mut ra = a.rng.clone();
        let mut rb = b.rng.clone();
        let sa: Vec<bool> = (0..16).map(|_| ra.random_bool(0.5)).collect();
        let sb: Vec<bool> = (0..16).map(|_| rb.random_bool(0.5)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn different_seeds_give_different_runs() {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, 64);
        let a1 = AlgoAcc::new(&mut LayoutBuilder::new(), tasks, AccOptions { seed: 1 });
        let a2 = AlgoAcc::new(&mut LayoutBuilder::new(), tasks, AccOptions { seed: 2 });
        let w1 = {
            let mut m = Machine::new(&a1, 8, CycleBudget::PAPER).unwrap();
            m.run(&mut NoFailures).unwrap().stats.completed_cycles
        };
        let w2 = {
            let mut m = Machine::new(&a2, 8, CycleBudget::PAPER).unwrap();
            m.run(&mut NoFailures).unwrap().stats.completed_cycles
        };
        // Not a hard guarantee, but with 8 processors over 64 leaves the
        // random walks virtually never coincide exactly.
        assert_ne!(w1, w2);
    }
}
