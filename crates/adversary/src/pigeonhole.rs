//! The pigeonhole adversary of Theorem 3.1: `Ω(N log N)` completed work
//! for Write-All, against *any* algorithm — even one with unit-cost memory
//! snapshots.
//!
//! The proof's iterative strategy, verbatim: "All N processors are revived.
//! For the upcoming cycle, the adversary determines the processors[']
//! assignment to array elements. Let `U ≥ 1` be the number of unvisited
//! array elements. By the pigeonhole principle, for any processor
//! assignment to the U elements, there is a set of `⌊U/2⌋` unvisited
//! elements with no more than `⌈P/U⌉·…` processors assigned to them. The
//! adversary … fails these processors, allowing all others to proceed.
//! Therefore at least `⌊U/2⌋` processors will complete this step having
//! visited no more than half of the remaining unvisited array locations."
//!
//! Because the machine exposes each processor's tentative writes before
//! the adversary decides, "assignment" is concrete: a processor is
//! assigned to the unvisited cells its current cycle would write.
//!
//! The adversary is allocation-free in steady state: the per-cell writer
//! lists are a flat CSR (counts → exclusive prefix sums → one `Pid` pool),
//! and all buffers live on the struct and are reused across ticks. Each
//! tick numbers the unvisited cells of x in one ascending walk — over the
//! set bits of the machine's unvisited index
//! ([`MachineView::unvisited`]) when it keeps one, over memory otherwise —
//! so every tentative write finds its cell's number in O(1).

use rfsp_pram::{Adversary, Decisions, FailPoint, MachineView, Pid, ProcStatus, Region};
use serde::Value;

/// The Theorem 3.1 halving adversary over a Write-All array region.
#[derive(Clone, Debug)]
pub struct Pigeonhole {
    x: Region,
    /// Stop interfering once at most this many cells remain unvisited
    /// (1 = run the strategy to the end, as in the proof).
    pub floor: usize,
    /// Whether failed processors are revived each tick (the Theorem 3.1
    /// restart model). `false` gives the fail-stop (no-restart) variant in
    /// the spirit of the [KS 89] lower-bound adversary: processors stay
    /// dead, and the strategy stops failing when one would remain.
    pub revive: bool,
    // Reused per-tick buffers (see the module docs). `slot_of[offset]` is
    // the position number of x's cell `offset` among the unvisited cells,
    // or `usize::MAX` when it is visited.
    slot_of: Vec<usize>,
    counts: Vec<usize>,
    starts: Vec<usize>,
    csr: Vec<Pid>,
    order: Vec<usize>,
    victims: Vec<Pid>,
}

impl Pigeonhole {
    /// Build the adversary for the Write-All array `x` (restart model).
    pub fn new(x: Region) -> Self {
        Pigeonhole {
            x,
            floor: 1,
            revive: true,
            slot_of: Vec::new(),
            counts: Vec::new(),
            starts: Vec::new(),
            csr: Vec::new(),
            order: Vec::new(),
            victims: Vec::new(),
        }
    }

    /// The fail-stop (no-restart) variant.
    pub fn fail_stop(x: Region) -> Self {
        Pigeonhole { revive: false, ..Pigeonhole::new(x) }
    }
}

impl Adversary for Pigeonhole {
    fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
        let mut d = Decisions::none();
        if self.revive {
            // Revive everyone (the proof's first move).
            for meta in view.procs {
                if meta.status == ProcStatus::Failed {
                    d.restart(meta.pid);
                }
            }
        }
        // Number the unvisited cells of x by position, in one walk: over
        // the set bits of the machine's index when it keeps one, by a
        // memory scan otherwise.
        let x = self.x;
        self.slot_of.clear();
        self.slot_of.resize(x.len(), usize::MAX);
        let mut u = 0;
        let mut number = |addr: usize| {
            self.slot_of[addr - x.base()] = u;
            u += 1;
        };
        let scan = (0..x.len()).map(|i| x.at(i)).filter(|&a| view.mem.peek(a) == 0);
        match view.unvisited {
            Some(idx) => {
                debug_assert!(
                    idx.iter_in(x).eq(scan),
                    "unvisited index diverged from the memory scan"
                );
                idx.iter_in(x).for_each(&mut number);
            }
            None => scan.for_each(&mut number),
        }
        if u <= self.floor {
            return d;
        }
        let slot_of = &self.slot_of;
        let slot = |addr: usize| -> Option<usize> {
            let s = slot_of[addr - x.base()];
            (s != usize::MAX).then_some(s)
        };
        // Writer lists per unvisited cell as a flat CSR: count, prefix-sum,
        // fill (counts double as fill cursors).
        self.counts.clear();
        self.counts.resize(u, 0);
        for t in view.tentative.iter().flatten() {
            for &(addr, value) in t.writes.writes() {
                if value == 1 && x.contains(addr) {
                    if let Some(k) = slot(addr) {
                        self.counts[k] += 1;
                    }
                }
            }
        }
        self.starts.clear();
        self.starts.push(0);
        for k in 0..u {
            self.starts.push(self.starts[k] + self.counts[k]);
        }
        self.counts.copy_from_slice(&self.starts[..u]);
        self.csr.clear();
        self.csr.resize(self.starts[u], Pid(0));
        for (pid_idx, t) in view.tentative.iter().enumerate() {
            let Some(t) = t.as_ref() else { continue };
            for &(addr, value) in t.writes.writes() {
                if value == 1 && x.contains(addr) {
                    if let Some(k) = slot(addr) {
                        self.csr[self.counts[k]] = Pid(pid_idx);
                        self.counts[k] += 1;
                    }
                }
            }
        }
        // Pick the ⌊U/2⌋ unvisited cells with the fewest writers and fail
        // exactly those writers. Keys (count, slot) are unique, so the
        // unstable sort reproduces the old stable sort-by-count exactly.
        self.order.clear();
        self.order.extend(0..u);
        let starts = &self.starts;
        self.order.sort_unstable_by_key(|&k| (starts[k + 1] - starts[k], k));
        self.victims.clear();
        for &k in self.order.iter().take(u / 2) {
            self.victims.extend_from_slice(&self.csr[self.starts[k]..self.starts[k + 1]]);
        }
        self.victims.sort_unstable();
        self.victims.dedup();
        // The heavier half keeps at least one writer whenever anyone writes
        // at all; if nobody writes x this tick, nobody is failed and the
        // progress condition holds trivially.
        if self.revive {
            for &pid in &self.victims {
                d.fail(pid, FailPoint::BeforeWrites);
                d.restart(pid);
            }
        } else {
            // Fail-stop: victims stay dead, so never exhaust the machine.
            let active = view.active_count();
            for &pid in self.victims.iter().take(active.saturating_sub(1)) {
                d.fail(pid, FailPoint::BeforeWrites);
            }
        }
        d
    }

    // The buffers are per-tick scratch: only configuration survives a
    // tick, so the state is empty.
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
    use rfsp_core::{AlgoX, SnapshotBalance, WriteAllTasks, XOptions};
    use rfsp_pram::snapshot::SnapshotMachine;
    use rfsp_pram::{CycleBudget, LayoutBuilder, Machine, NoopObserver, RunLimits};

    #[test]
    fn forces_superlinear_work_on_snapshot_algorithm() {
        // Even with unit-cost snapshots (the strongest model), work must be
        // ~N log N, not N.
        let n = 256;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = SnapshotBalance::new(tasks, n);
        let mut m = SnapshotMachine::new(&algo, n, 1).unwrap();
        let report = m.run(&mut Pigeonhole::new(tasks.x())).unwrap();
        assert!(tasks.all_written(m.memory()));
        let s = report.stats.completed_work();
        // Θ(N log N): comfortably above 2N, and the halving structure means
        // ~log2(N) rounds of ~N/2 completions each.
        assert!(s as usize >= 2 * n, "S = {s} for N = {n}");
    }

    #[test]
    fn x_still_terminates_under_pigeonhole() {
        let n = 64;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoX::new(&mut layout, tasks, n, XOptions::default());
        let mut m = Machine::new(&algo, n, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut Pigeonhole::new(tasks.x())).unwrap();
        assert!(tasks.all_written(m.memory()));
        assert!(report.stats.failures > 0);
    }

    #[test]
    fn halving_structure_bounds_progress_per_tick() {
        // Each tick at most ⌈U/2⌉ of U unvisited cells can be completed.
        let n = 128;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = SnapshotBalance::new(tasks, n);
        let mut m = SnapshotMachine::new(&algo, n, 1).unwrap();
        let mut adversary = Pigeonhole::new(tasks.x());
        let mut prev = n;
        // Drive manually for a few ticks by running with a cycle cap.
        for _ in 0..5 {
            let _ = m.run_observed(
                &mut adversary,
                RunLimits { max_cycles: m.stats().parallel_time + 1 },
                &mut NoopObserver,
            );
            let now = tasks.unvisited(m.memory());
            assert!(now * 2 >= prev.saturating_sub(1), "visited more than half: {prev} -> {now}");
            prev = now;
            if now <= 1 {
                break;
            }
        }
    }
}
