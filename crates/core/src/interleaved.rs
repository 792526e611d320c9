//! The Theorem 4.9 combination: interleave algorithms V and X.
//!
//! "The executions of algorithms V and X can be interleaved to yield an
//! algorithm that achieves ... `S = O(min{N + P log²N + M log N,
//! N·P^{0.59}})` and `σ = O(log² N)`" (§4.3). V supplies efficiency when
//! failures are scarce; X supplies *guaranteed termination* with bounded
//! work under any (even infinite) failure/restart pattern. Alternating
//! their cycles costs at most a factor of two over whichever finishes
//! first.
//!
//! The interleaving is time-based: a shared **parity cell**, flipped by
//! every completing processor every cycle (COMMON-safe: all writers agree),
//! tells each processor — including one that just restarted with no private
//! state — whether the current tick belongs to X or to V. Both halves run
//! over the *same* task array but keep disjoint bookkeeping, so whichever
//! half finishes first ends the computation.

use rfsp_pram::{LayoutBuilder, Pid, Program, ReadSet, Region, SharedMemory, Step, Word, WriteSet};

use crate::algo_v::{AlgoV, VPrivate};
use crate::algo_x::{AlgoX, XOptions};
use crate::tasks::TaskSet;

/// Shared-memory layout of the interleaved algorithm.
#[derive(Clone, Copy, Debug)]
pub struct InterleavedLayout {
    /// The tick-parity cell: 0 = X cycle, 1 = V cycle.
    pub parity: Region,
}

/// Interleaved V + X over one task set.
///
/// ```
/// use rfsp_core::{Interleaved, WriteAllTasks};
/// use rfsp_pram::{Machine, LayoutBuilder, NoFailures};
///
/// # fn main() -> Result<(), rfsp_pram::PramError> {
/// let mut layout = LayoutBuilder::new();
/// let tasks = WriteAllTasks::new(&mut layout, 64);
/// let algo = Interleaved::new(&mut layout, tasks, 8);
/// let budget = algo.required_budget(); // one extra read/write for parity
/// let mut machine = Machine::new(&algo, 8, budget)?;
/// machine.run(&mut NoFailures)?;
/// assert!(tasks.all_written(machine.memory()));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Interleaved<T> {
    parity: Region,
    x: AlgoX<T>,
    v: AlgoV<T>,
}

impl<T: TaskSet + Clone> Interleaved<T> {
    /// Build the combined algorithm for `p` processors over `tasks`,
    /// allocating the parity cell and both halves' bookkeeping from
    /// `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty or `p == 0`.
    pub fn new(layout: &mut LayoutBuilder, tasks: T, p: usize) -> Self {
        let parity = layout.alloc(1);
        // Both halves advance ONE shared round counter: multi-round task
        // state (register checkpoints, staging) is shared, so the halves
        // must agree at every tick on which round is current. Whichever
        // half completes a round first advances the counter; the other
        // half's in-flight iteration detects the change and goes dormant
        // until the next wrap.
        let round = layout.alloc(1);
        let x = AlgoX::new_with_round(layout, tasks.clone(), p, XOptions::default(), round);
        let v = AlgoV::new_with_round(layout, tasks, p, round);
        Interleaved { parity, x, v }
    }

    /// The combined layout (parity cell; the halves expose their own).
    pub fn layout(&self) -> InterleavedLayout {
        InterleavedLayout { parity: self.parity }
    }

    /// The X half.
    pub fn x_half(&self) -> &AlgoX<T> {
        &self.x
    }

    /// The V half.
    pub fn v_half(&self) -> &AlgoV<T> {
        &self.v
    }

    /// The reads/writes budget one cycle of this instance needs (one extra
    /// read and write for the parity cell on top of the wider half; the
    /// update-cycle constants are instruction-set parameters, §2.1).
    pub fn required_budget(&self) -> rfsp_pram::CycleBudget {
        let bx = self.x.required_budget();
        let bv = self.v.required_budget();
        rfsp_pram::CycleBudget {
            reads: 1 + bx.reads.max(bv.reads),
            writes: 1 + bx.writes.max(bv.writes),
        }
    }
}

impl<T: TaskSet + Sync + Clone> Program for Interleaved<T> {
    type Private = VPrivate;

    fn shared_size(&self) -> usize {
        self.v.shared_size()
    }

    fn init_memory(&self, mem: &mut SharedMemory) {
        // Both halves write the shared task set's input; the second
        // writes the same words again.
        self.x.init_memory(mem);
        self.v.init_memory(mem);
    }

    fn on_start(&self, pid: Pid) -> VPrivate {
        self.v.on_start(pid)
    }

    fn plan(&self, pid: Pid, state: &VPrivate, values: &[Word], reads: &mut ReadSet) {
        if values.is_empty() {
            reads.push(self.parity.at(0));
            return;
        }
        if values[0] == 0 {
            self.x.plan(pid, &(), &values[1..], reads);
        } else {
            self.v.plan(pid, state, &values[1..], reads);
        }
    }

    fn execute(
        &self,
        pid: Pid,
        state: &mut VPrivate,
        values: &[Word],
        writes: &mut WriteSet,
    ) -> Step {
        let parity = values[0];
        let step = if parity == 0 {
            self.x.execute(pid, &mut (), &values[1..], writes)
        } else {
            self.v.execute(pid, state, &values[1..], writes)
        };
        writes.push(self.parity.at(0), 1 - parity);
        // A half halts only once it has observed global completion, at
        // which point the machine's completion predicate is already true;
        // propagating the halt is therefore safe.
        step
    }

    // Keeps the default `completion_hint` (untracked): an OR of two
    // sub-predicates cannot be decomposed into independent per-cell
    // conditions, and both halves are already O(1) checks.
    fn is_complete(&self, mem: &SharedMemory) -> bool {
        self.x.is_complete(mem) || self.v.is_complete(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::WriteAllTasks;
    use rfsp_pram::{Adversary, Decisions, FailPoint, Machine, MachineView, NoFailures};

    fn build(n: usize, p: usize) -> (WriteAllTasks, Interleaved<WriteAllTasks>) {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = Interleaved::new(&mut layout, tasks, p);
        (tasks, algo)
    }

    #[test]
    fn solves_write_all_without_failures() {
        for (n, p) in [(8, 8), (64, 16), (33, 5), (1, 1)] {
            let (tasks, algo) = build(n, p);
            let budget = algo.required_budget();
            let mut m = Machine::new(&algo, p, budget).unwrap();
            m.run(&mut NoFailures).unwrap();
            assert!(tasks.all_written(m.memory()), "n={n} p={p}");
        }
    }

    #[test]
    fn parity_alternates() {
        let (_tasks, algo) = build(16, 4);
        let budget = algo.required_budget();
        let mut m = Machine::new(&algo, 4, budget).unwrap();
        let before = m.memory().peek(algo.layout().parity.at(0));
        m.tick(&mut NoFailures).unwrap();
        let after = m.memory().peek(algo.layout().parity.at(0));
        assert_eq!(before, 0);
        assert_eq!(after, 1);
        m.tick(&mut NoFailures).unwrap();
        assert_eq!(m.memory().peek(algo.layout().parity.at(0)), 0);
    }

    /// Heavy churn: the X half guarantees termination regardless.
    struct Churn;
    impl Adversary for Churn {
        fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
            let mut d = Decisions::none();
            let active: Vec<_> = view.active_pids().collect();
            for (k, pid) in active.iter().enumerate() {
                if k + 1 < active.len() && (pid.0 + view.cycle as usize).is_multiple_of(3) {
                    d.fail(*pid, FailPoint::BeforeWrites);
                    d.restart(*pid);
                }
            }
            d
        }
    }

    #[test]
    fn survives_continuous_churn() {
        let (tasks, algo) = build(64, 8);
        let budget = algo.required_budget();
        let mut m = Machine::new(&algo, 8, budget).unwrap();
        let report = m.run(&mut Churn).unwrap();
        assert!(tasks.all_written(m.memory()));
        assert!(report.stats.failures > 0);
    }

    /// Work is within a constant factor of the better half: with no
    /// failures the interleaving costs at most ~2x a lone X run plus the
    /// alternation slack.
    #[test]
    fn work_tracks_the_better_half() {
        let n = 256;
        let p = 16;
        let interleaved_work = {
            let (tasks, algo) = build(n, p);
            let budget = algo.required_budget();
            let mut m = Machine::new(&algo, p, budget).unwrap();
            let r = m.run(&mut NoFailures).unwrap();
            assert!(tasks.all_written(m.memory()));
            r.stats.completed_cycles
        };
        let x_work = {
            let mut layout = LayoutBuilder::new();
            let tasks = WriteAllTasks::new(&mut layout, n);
            let algo = crate::algo_x::AlgoX::new(&mut layout, tasks, p, Default::default());
            let mut m = Machine::new(&algo, p, rfsp_pram::CycleBudget::PAPER).unwrap();
            m.run(&mut NoFailures).unwrap().stats.completed_cycles
        };
        let v_work = {
            let mut layout = LayoutBuilder::new();
            let tasks = WriteAllTasks::new(&mut layout, n);
            let algo = crate::algo_v::AlgoV::new(&mut layout, tasks, p);
            let mut m = Machine::new(&algo, p, rfsp_pram::CycleBudget::PAPER).unwrap();
            m.run(&mut NoFailures).unwrap().stats.completed_cycles
        };
        let best = x_work.min(v_work);
        assert!(
            interleaved_work <= 3 * best + 64,
            "interleaved {interleaved_work} vs best half {best}"
        );
    }
}
