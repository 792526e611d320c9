//! The generalized work unit: task sets.
//!
//! The Write-All array assignment (`x[i] := 1`) is the paper's canonical
//! unit of work, but its algorithms carry over verbatim to any array of
//! idempotent single-cycle tasks — that generalization is exactly how §4.3
//! turns a Write-All solution into a simulator for arbitrary PRAM steps
//! ("replacing the trivial array assignments ... with the appropriate
//! components of the PRAM steps"). [`TaskSet`] captures the contract;
//! [`WriteAllTasks`] is the canonical instance.

use rfsp_pram::{CompletionHint, LayoutBuilder, ReadSet, Region, SharedMemory, Word, WriteSet};

/// An array of idempotent tasks, each executable within one update cycle.
///
/// # Contract
///
/// * **One committed attempt completes the task**: if a processor's
///   [`run`](TaskSet::run) writes all commit, task `i` is complete for that
///   round, whether or not the processor survives afterwards.
/// * **Idempotence**: re-planning and re-running a task any number of times
///   (including concurrently by several processors in the same cycle, which
///   under COMMON CRCW means all writers must produce identical values) is
///   harmless.
/// * **Observability**: once complete, a later attempt's `run` returns
///   `true` *without emitting writes*, so tree-traversal algorithms can
///   convert the observation into progress-tree updates.
/// * **Rounds**: a task set may stage several *rounds* of `len()` tasks
///   (used by the PRAM-step simulation); rounds are numbered from 1 and a
///   round's tasks only become runnable when the algorithm drives it.
pub trait TaskSet {
    /// Number of tasks per round (the paper's `N`).
    fn len(&self) -> usize;

    /// Whether the set has zero tasks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of rounds (1 for plain Write-All).
    fn rounds(&self) -> Word {
        1
    }

    /// Write the task set's input into the machine's fresh memory (the
    /// simulated program's initial memory, for the PRAM-step simulation).
    /// Every algorithm over a task set calls it from its own
    /// [`Program::init_memory`](rfsp_pram::Program::init_memory). The
    /// default writes nothing: Write-All starts from zeroed memory.
    fn init_memory(&self, _mem: &mut SharedMemory) {}

    /// Incremental read planning for one attempt of task `i` in `round`,
    /// following the same chained-plan protocol as
    /// [`Program::plan`](rfsp_pram::Program::plan): `values` holds the
    /// task's reads so far; push nothing to finish.
    fn plan(&self, round: Word, i: usize, values: &[Word], reads: &mut ReadSet);

    /// One attempt: consume the planned values, emit writes. Returns `true`
    /// iff the task is *observed already complete* (in which case no writes
    /// may be emitted).
    fn run(&self, round: Word, i: usize, values: &[Word], writes: &mut WriteSet) -> bool;

    /// Uncharged doneness check for harnesses and tests.
    fn is_done(&self, mem: &SharedMemory, round: Word, i: usize) -> bool;

    /// Worst-case reads per attempt (budget documentation).
    fn max_reads(&self) -> usize;

    /// Worst-case writes per attempt (budget documentation).
    fn max_writes(&self) -> usize;
}

impl<T: TaskSet + ?Sized> TaskSet for &T {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn rounds(&self) -> Word {
        (**self).rounds()
    }
    fn init_memory(&self, mem: &mut SharedMemory) {
        (**self).init_memory(mem)
    }
    fn plan(&self, round: Word, i: usize, values: &[Word], reads: &mut ReadSet) {
        (**self).plan(round, i, values, reads)
    }
    fn run(&self, round: Word, i: usize, values: &[Word], writes: &mut WriteSet) -> bool {
        (**self).run(round, i, values, writes)
    }
    fn is_done(&self, mem: &SharedMemory, round: Word, i: usize) -> bool {
        (**self).is_done(mem, round, i)
    }
    fn max_reads(&self) -> usize {
        (**self).max_reads()
    }
    fn max_writes(&self) -> usize {
        (**self).max_writes()
    }
}

/// The Write-All problem itself: task `i` writes 1 into `x[i]`.
///
/// ```
/// use rfsp_pram::LayoutBuilder;
/// use rfsp_core::tasks::{TaskSet, WriteAllTasks};
/// let mut layout = LayoutBuilder::new();
/// let tasks = WriteAllTasks::new(&mut layout, 100);
/// assert_eq!(tasks.len(), 100);
/// assert_eq!(tasks.x().len(), 100);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct WriteAllTasks {
    x: Region,
}

impl WriteAllTasks {
    /// Allocate the Write-All array `x[0..n)` from `layout`.
    pub fn new(layout: &mut LayoutBuilder, n: usize) -> Self {
        WriteAllTasks { x: layout.alloc(n) }
    }

    /// The array region (for adversaries and verification).
    pub fn x(&self) -> Region {
        self.x
    }

    /// Uncharged check that the whole array is 1 (the problem's
    /// postcondition).
    pub fn all_written(&self, mem: &SharedMemory) -> bool {
        (0..self.x.len()).all(|i| mem.peek(self.x.at(i)) == 1)
    }

    /// Number of cells still zero.
    pub fn unvisited(&self, mem: &SharedMemory) -> usize {
        (0..self.x.len()).filter(|&i| mem.peek(self.x.at(i)) == 0).count()
    }

    /// Per-cell decomposition of [`WriteAllTasks::all_written`] for the
    /// machine's incremental completion tracker
    /// ([`Program::completion_hint`](rfsp_pram::Program::completion_hint)):
    /// array cells are satisfied once they hold 1, every other cell is
    /// untracked. Programs whose completion predicate *is* `all_written`
    /// delegate here.
    pub fn completion_hint(&self, addr: usize, value: Word) -> CompletionHint {
        if self.x.contains(addr) {
            if value == 1 {
                CompletionHint::Satisfied
            } else {
                CompletionHint::Outstanding
            }
        } else {
            CompletionHint::Untracked
        }
    }

    /// Branch-free lane classifier for the machine's batched completion
    /// tracker ([`Program::completion_masks`](rfsp_pram::Program::completion_masks)):
    /// the lane's overlap with the contiguous array region is computed once
    /// (instead of a per-cell `contains`), and within the overlap each
    /// cell's status is a pure bit select on `value == 1` — a tight loop of
    /// compares and shifts the compiler autovectorizes. Agrees cell-wise
    /// with [`WriteAllTasks::completion_hint`] by construction.
    pub fn completion_masks(&self, base: usize, values: &[Word]) -> (u64, u64) {
        let (x_lo, x_hi) = (self.x.base(), self.x.base() + self.x.len());
        let lane_end = base + values.len();
        let lo = x_lo.clamp(base, lane_end) - base;
        let hi = x_hi.clamp(base, lane_end) - base;
        // Tracked cells = the lane's overlap with x, as one contiguous run
        // of set bits.
        let tracked = ones(hi) & !ones(lo);
        let mut outstanding = 0u64;
        for (j, &v) in values[lo..hi].iter().enumerate() {
            outstanding |= u64::from(v != 1) << (lo + j);
        }
        (outstanding & tracked, tracked)
    }
}

/// The low `k` bits set (`k <= 64`), without the `1 << 64` overflow.
#[inline(always)]
fn ones(k: usize) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

impl TaskSet for WriteAllTasks {
    fn len(&self) -> usize {
        self.x.len()
    }

    fn plan(&self, _round: Word, i: usize, values: &[Word], reads: &mut ReadSet) {
        if values.is_empty() {
            reads.push(self.x.at(i));
        }
    }

    fn run(&self, _round: Word, i: usize, values: &[Word], writes: &mut WriteSet) -> bool {
        if values[0] == 1 {
            true
        } else {
            writes.push(self.x.at(i), 1);
            false
        }
    }

    fn is_done(&self, mem: &SharedMemory, _round: Word, i: usize) -> bool {
        mem.peek(self.x.at(i)) == 1
    }

    fn max_reads(&self) -> usize {
        1
    }

    fn max_writes(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_all_task_protocol() {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, 4);
        let mut mem = SharedMemory::new(layout.total());

        // Attempt on an unwritten cell: one read planned, one write emitted,
        // not yet observed done.
        let mut reads = ReadSet::default();
        tasks.plan(1, 2, &[], &mut reads);
        assert_eq!(reads.addrs(), &[tasks.x().at(2)]);
        let mut more = ReadSet::default();
        tasks.plan(1, 2, &[0], &mut more);
        assert!(more.is_empty(), "plan chain terminates after one read");

        let mut writes = WriteSet::default();
        assert!(!tasks.run(1, 2, &[0], &mut writes));
        assert_eq!(writes.writes(), &[(tasks.x().at(2), 1)]);

        // After the write commits, the next attempt observes completion and
        // emits nothing.
        mem.poke(tasks.x().at(2), 1);
        let mut writes = WriteSet::default();
        assert!(tasks.run(1, 2, &[1], &mut writes));
        assert!(writes.is_empty());
        assert!(tasks.is_done(&mem, 1, 2));
        assert!(!tasks.is_done(&mem, 1, 0));
        assert_eq!(tasks.unvisited(&mem), 3);
        assert!(!tasks.all_written(&mem));
    }

    /// The branch-free lane classifier agrees with the scalar hint on every
    /// lane position, including lanes that only partially overlap `x`,
    /// miss it entirely, or cover its edges.
    #[test]
    fn completion_masks_agree_with_scalar_hints() {
        let mut layout = LayoutBuilder::new();
        let _pad = layout.alloc(5); // put x away from address 0
        let tasks = WriteAllTasks::new(&mut layout, 70);
        let total = layout.total() + 8; // extend past x's end too
        let values: Vec<Word> = (0..total as Word).map(|v| v % 2).collect();
        for lane_len in [1, 3, 64] {
            for base in 0..=(total - lane_len) {
                let lane = &values[base..base + lane_len];
                let got = tasks.completion_masks(base, lane);
                let expected = rfsp_pram::fold_completion_masks(base, lane, |a, v| {
                    tasks.completion_hint(a, v)
                });
                assert_eq!(got, expected, "lane base {base} len {lane_len}");
            }
        }
    }

    #[test]
    fn budgets_are_declared() {
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, 1);
        assert_eq!(tasks.max_reads(), 1);
        assert_eq!(tasks.max_writes(), 1);
        assert_eq!(tasks.rounds(), 1);
        assert!(!tasks.is_empty());
    }
}
