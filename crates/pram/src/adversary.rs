//! The on-line adversary interface.
//!
//! The paper's failure model (§2.1): an on-line adversary "knows everything
//! about the algorithm and is unknown to the algorithm". It may fail any
//! processor at any time during an update cycle and restart any failed
//! processor, subject only to the progress condition that at least one
//! processor keeps completing update cycles.
//!
//! Concretely, once per tick — after every alive processor has *tentatively*
//! executed its cycle, so the adversary can see exactly what each one is
//! about to write — the machine calls [`Adversary::decide`] with a full
//! [`MachineView`]. The returned [`Decisions`] name processors to fail (with
//! the precise [`FailPoint`] inside their cycle) and failed processors to
//! restart. Restarts take effect at the start of the next tick, where the
//! processor begins a fresh update cycle knowing only its PID; a processor
//! failed and restarted in the same decision models the paper's immediate
//! fail-and-restart (it loses its private state and rejoins next tick).

use serde::{Deserialize, Serialize, Value};

use crate::cycle::{ValueSet, MAX_READS, MAX_WRITES};
use crate::memory::SharedMemory;
use crate::pool::SendPtr;
use crate::unvisited::UnvisitedIndex;
use crate::word::{Pid, Word};

/// Where inside its update cycle a processor is stopped.
///
/// Word writes are atomic (§2.1 item 2(ii)): failures fall before or after a
/// write, never during one, so a stopped cycle commits a *prefix* of its
/// writes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum FailPoint {
    /// Stop before the cycle's reads: the processor did nothing this tick.
    BeforeReads,
    /// Stop after reads and local computation but before any write.
    BeforeWrites,
    /// Stop after the first `k` writes committed (`1 <= k < writes.len()`).
    AfterWrite(usize),
}

/// Liveness of one processor, as visible to the adversary.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ProcStatus {
    /// Executing update cycles.
    Alive,
    /// Stopped by a failure; may be restarted.
    Failed,
    /// Voluntarily retired ([`Step::Halt`](crate::Step::Halt)); can still be
    /// failed and restarted by the adversary.
    Halted,
}

/// Per-processor metadata in a [`MachineView`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProcMeta {
    /// Processor identifier (also the index of this entry).
    pub pid: Pid,
    /// Current liveness.
    pub status: ProcStatus,
    /// Completed update cycles charged to this processor so far.
    pub completed_cycles: u64,
}

/// The update cycle a processor is about to perform this tick: the reads it
/// planned and the writes its computation produced, borrowed from the
/// tick's [`Cycles`] table. Available to the adversary *before* it decides
/// failures — the strongest on-line knowledge the model allows.
///
/// A read returns the cell's content at the start of the tick, so the
/// value of read `addr` is `view.mem.peek(addr)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TentativeCycle<'a> {
    /// Planned shared reads, in request order (none under the snapshot
    /// model, whose whole-memory read is free).
    pub reads: &'a [usize],
    /// Writes the processor will attempt, in slot order.
    pub writes: &'a [(usize, Word)],
    /// Whether the processor will halt at the end of this cycle.
    pub halts: bool,
}

/// [`Head`] flag bits: the row holds a cycle this tick, and that cycle
/// halts its processor.
const ALIVE: u8 = 1;
const HALTS: u8 = 2;

/// One processor's head in a [`Cycles`] table: how many read addresses and
/// writes its rows hold, and its [`ALIVE`] and [`HALTS`] bits.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[repr(C, align(4))]
struct Head {
    reads: u8,
    writes: u8,
    flags: u8,
}

impl Head {
    #[inline]
    fn live(reads: usize, writes: usize, halts: bool) -> Self {
        // Every budget fits the inline capacities, so both counts fit a byte.
        debug_assert!(reads <= MAX_READS && writes <= MAX_WRITES);
        Head { reads: reads as u8, writes: writes as u8, flags: ALIVE | (u8::from(halts) * HALTS) }
    }

    #[inline]
    fn alive(self) -> bool {
        self.flags & ALIVE != 0
    }
}

/// This tick's tentative cycles, one per processor, in a table sized to the
/// machine's cycle budget: a 4-byte head per processor (read count, write
/// count, alive and halt bits), a row of read addresses as wide as the read
/// budget and a row of writes as wide as the write budget. A processor of
/// the snapshot model (no reads, one write) costs 20 bytes; one of the
/// paper's budget (4 reads, 2 writes) costs 68.
///
/// The machine allocates the table once and refills it every tick, so the
/// tentative phase never touches the heap. Adversaries read it through
/// [`MachineView::tentative`].
#[derive(Clone, Debug)]
pub struct Cycles {
    heads: Vec<Head>,
    read_width: usize,
    reads: Vec<usize>,
    write_width: usize,
    writes: Vec<(usize, Word)>,
}

impl Cycles {
    /// A table of `processors` rows of `reads` read addresses and `writes`
    /// writes each, with no cycle in any row.
    ///
    /// # Panics
    ///
    /// Panics if the widths exceed the inline capacities
    /// ([`MAX_READS`]/[`MAX_WRITES`]).
    pub(crate) fn new(processors: usize, reads: usize, writes: usize) -> Self {
        assert!(
            reads <= MAX_READS && writes <= MAX_WRITES,
            "rows of {reads} reads / {writes} writes exceed the inline capacities"
        );
        Cycles {
            heads: vec![Head::default(); processors],
            read_width: reads,
            reads: vec![0; processors * reads],
            write_width: writes,
            writes: vec![(0, 0); processors * writes],
        }
    }

    /// Number of processors (rows).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heads.len()
    }

    /// Processor `pid`'s cycle this tick; `None` if it plays none (it is
    /// failed or halted) or is out of range.
    #[inline]
    pub fn get(&self, pid: Pid) -> Option<TentativeCycle<'_>> {
        let head = *self.heads.get(pid.0)?;
        head.alive().then(|| self.cycle(pid.0, head))
    }

    /// Every cycle of this tick with its processor, in PID order; the
    /// processors that play none are skipped.
    pub fn iter(&self) -> impl Iterator<Item = (Pid, TentativeCycle<'_>)> + '_ {
        self.heads
            .iter()
            .enumerate()
            .filter(|(_, head)| head.alive())
            .map(|(i, &head)| (Pid(i), self.cycle(i, head)))
    }

    /// Store `cycle` as processor `pid`'s cycle this tick, or record that
    /// it plays none.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range or `cycle` is wider than the rows.
    pub(crate) fn set(&mut self, pid: Pid, cycle: Option<TentativeCycle<'_>>) {
        let row = self.row_mut(pid.0);
        match cycle {
            None => row.clear(),
            Some(t) => {
                assert!(t.writes.len() <= row.writes.len(), "{pid}'s writes overflow its row");
                row.reads[..t.reads.len()].copy_from_slice(t.reads);
                row.fill(t.reads.len(), t.writes, t.halts);
            }
        }
    }

    #[inline]
    fn cycle(&self, i: usize, head: Head) -> TentativeCycle<'_> {
        let (r, w) = (i * self.read_width, i * self.write_width);
        TentativeCycle {
            reads: &self.reads[r..r + usize::from(head.reads)],
            writes: &self.writes[w..w + usize::from(head.writes)],
            halts: head.flags & HALTS != 0,
        }
    }

    /// Processor `i`'s row, for the tentative phase to fill.
    #[inline]
    pub(crate) fn row_mut(&mut self, i: usize) -> RowMut<'_> {
        let (r, w) = (i * self.read_width, i * self.write_width);
        RowMut {
            head: &mut self.heads[i],
            reads: &mut self.reads[r..r + self.read_width],
            writes: &mut self.writes[w..w + self.write_width],
        }
    }

    /// Heap bytes the table holds per processor.
    #[cfg(test)]
    pub(crate) fn bytes_per_processor(&self) -> usize {
        let bytes = self.heads.capacity() * size_of::<Head>()
            + self.reads.capacity() * size_of::<usize>()
            + self.writes.capacity() * size_of::<(usize, Word)>();
        bytes / self.len()
    }

    /// Raw handles on the rows, for pool workers that fill disjoint rows.
    pub(crate) fn rows_ptr(&mut self) -> RowsPtr {
        RowsPtr {
            heads: SendPtr::new(self.heads.as_mut_ptr()),
            reads: SendPtr::new(self.reads.as_mut_ptr()),
            writes: SendPtr::new(self.writes.as_mut_ptr()),
            read_width: self.read_width,
            write_width: self.write_width,
        }
    }
}

/// One processor's row of a [`Cycles`] table, borrowed for the tentative
/// phase to fill.
pub(crate) struct RowMut<'a> {
    head: &'a mut Head,
    reads: &'a mut [usize],
    writes: &'a mut [(usize, Word)],
}

impl RowMut<'_> {
    /// The processor plays no cycle this tick.
    #[inline]
    pub(crate) fn clear(self) {
        *self.head = Head::default();
    }

    /// The row's read addresses, paired with the scratch that takes the
    /// values, for a model to fill.
    #[inline]
    pub(crate) fn reads<'b>(&'b mut self, values: &'b mut ValueSet) -> ReadRow<'b> {
        ReadRow { addrs: self.reads, values }
    }

    /// Record the cycle: its first `reads` addresses are in the row
    /// already, and `writes` (at most the row's width) are copied in.
    #[inline]
    pub(crate) fn fill(self, reads: usize, writes: &[(usize, Word)], halts: bool) {
        debug_assert!(writes.len() <= self.writes.len());
        // Entry by entry: `copy_from_slice` calls `memcpy` for these few
        // bytes, once per processor per tick.
        for (slot, &write) in self.writes.iter_mut().zip(writes) {
            *slot = write;
        }
        *self.head = Head::live(reads, writes.len(), halts);
    }
}

/// Raw handles on the rows of a [`Cycles`] table, so that pool workers can
/// fill disjoint rows at once.
#[derive(Clone, Copy)]
pub(crate) struct RowsPtr {
    heads: SendPtr<Head>,
    reads: SendPtr<usize>,
    writes: SendPtr<(usize, Word)>,
    read_width: usize,
    write_width: usize,
}

impl RowsPtr {
    /// Processor `i`'s row.
    ///
    /// # Safety
    ///
    /// `i` is below the table's length; the table is neither moved, resized
    /// nor otherwise borrowed during `'a`; and no other row `i` is alive
    /// during `'a`.
    #[inline]
    pub(crate) unsafe fn row<'a>(self, i: usize) -> RowMut<'a> {
        // SAFETY: row `i` lies inside the table's three allocations (the
        // caller keeps `i` in range and the table in place), and nothing
        // else holds it (the caller's exclusivity).
        RowMut {
            head: &mut *self.heads.ptr().add(i),
            reads: std::slice::from_raw_parts_mut(
                self.reads.ptr().add(i * self.read_width),
                self.read_width,
            ),
            writes: std::slice::from_raw_parts_mut(
                self.writes.ptr().add(i * self.write_width),
                self.write_width,
            ),
        }
    }
}

/// The reads of the cycle a processor is playing, as its model's
/// [`play`](crate::ExecutionModel::play) stores them: the addresses in the
/// processor's row of the [`Cycles`] table, the values in the playing
/// thread's scratch. The row is exactly as wide as the machine's read
/// budget, so a model checks each read against the budget before it stores
/// it.
#[derive(Debug)]
pub struct ReadRow<'a> {
    addrs: &'a mut [usize],
    values: &'a mut ValueSet,
}

impl ReadRow<'_> {
    /// Number of reads stored so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no read is stored yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values read so far, in request order.
    #[inline]
    pub fn values(&self) -> &[Word] {
        self.values
    }

    /// Store a read of `addr` that returned `value`.
    ///
    /// # Panics
    ///
    /// Panics if the row is full, that is, if the read exceeds the read
    /// budget.
    #[inline]
    pub fn push(&mut self, addr: usize, value: Word) {
        self.addrs[self.values.len()] = addr;
        self.values.push(value);
    }
}

/// Everything the adversary can see when deciding.
#[derive(Debug)]
pub struct MachineView<'a> {
    /// Tick number (0-based).
    pub cycle: u64,
    /// Total processors `P`.
    pub processors: usize,
    /// Shared memory at the start of this tick.
    pub mem: &'a SharedMemory,
    /// Per-processor status, indexed by PID.
    pub procs: &'a [ProcMeta],
    /// This tick's tentative cycles: [`Cycles::get`] gives one processor's
    /// (`None` for failed and halted processors), [`Cycles::iter`] every
    /// cycle with its PID.
    pub tentative: &'a Cycles,
    /// Incremental index of outstanding ("unvisited") cells, maintained by
    /// the snapshot machine when its program opted into
    /// [`completion_hint`](crate::snapshot::SnapshotProgram::completion_hint)
    /// tracking. `None` on the word machine and for untracked programs;
    /// adversaries that use it must fall back to scanning `mem`.
    pub unvisited: Option<&'a UnvisitedIndex>,
}

impl MachineView<'_> {
    /// PIDs of processors executing a cycle this tick.
    pub fn active_pids(&self) -> impl Iterator<Item = Pid> + '_ {
        let heads = self.tentative.heads.iter().enumerate();
        heads.filter(|(_, head)| head.alive()).map(|(i, _)| Pid(i))
    }

    /// Number of processors executing a cycle this tick.
    pub fn active_count(&self) -> usize {
        self.tentative.heads.iter().filter(|head| head.alive()).count()
    }
}

/// The adversary's decisions for one tick.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Decisions {
    /// Processors to stop this tick, with the point inside their cycle.
    /// Targets must currently be alive or halted (halted processors have no
    /// cycle in flight; any fail point degenerates to "stopped").
    pub fails: Vec<(Pid, FailPoint)>,
    /// Processors to restart at the start of the next tick. Targets must be
    /// failed, either already or by this very decision.
    pub restarts: Vec<Pid>,
}

impl Decisions {
    /// No failures, no restarts.
    pub fn none() -> Self {
        Decisions::default()
    }

    /// Record a failure.
    pub fn fail(&mut self, pid: Pid, point: FailPoint) -> &mut Self {
        self.fails.push((pid, point));
        self
    }

    /// Record a restart.
    pub fn restart(&mut self, pid: Pid) -> &mut Self {
        self.restarts.push(pid);
        self
    }

    /// Total events (failures + restarts) — each contributes one triple to
    /// the failure pattern `F` of Definition 2.1.
    pub fn event_count(&self) -> usize {
        self.fails.len() + self.restarts.len()
    }
}

/// An on-line adversary: decides failures and restarts each tick with full
/// knowledge of the machine.
///
/// Implementations must respect the model's progress condition (leave at
/// least one completing cycle per tick when any processor is active); the
/// machine enforces it and reports
/// [`PramError::AdversaryStall`](crate::PramError::AdversaryStall) on
/// violation.
pub trait Adversary {
    /// Decide this tick's failures and restarts.
    fn decide(&mut self, view: &MachineView<'_>) -> Decisions;

    /// Snapshot this adversary's mutable state for a
    /// [`Checkpoint`](crate::checkpoint::Checkpoint).
    ///
    /// Returning `Some(state)` makes the adversary *checkpointable*: a run
    /// paused at a tick boundary can later resume bit-for-bit by feeding
    /// `state` to [`Adversary::restore_state`] on a freshly constructed
    /// adversary of the same kind and configuration. Stateless adversaries
    /// return `Some(Value::Null)`. The default returns `None`, declaring
    /// the adversary not checkpointable — runners that need checkpoints
    /// must refuse it up front rather than resume nondeterministically.
    fn save_state(&self) -> Option<Value> {
        None
    }

    /// Restore state captured by [`Adversary::save_state`] on an adversary
    /// of the same kind and configuration.
    ///
    /// # Errors
    ///
    /// A human-readable message if the adversary does not support
    /// checkpointing or `state` does not fit it.
    fn restore_state(&mut self, state: &Value) -> Result<(), String> {
        let _ = state;
        Err("this adversary does not support checkpoint restore".to_string())
    }
}

/// The benign adversary: no failures, ever.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NoFailures;

impl Adversary for NoFailures {
    fn decide(&mut self, _view: &MachineView<'_>) -> Decisions {
        Decisions::none()
    }

    fn save_state(&self) -> Option<Value> {
        Some(Value::Null)
    }

    fn restore_state(&mut self, _state: &Value) -> Result<(), String> {
        Ok(())
    }
}

impl<A: Adversary + ?Sized> Adversary for &mut A {
    fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
        (**self).decide(view)
    }

    fn save_state(&self) -> Option<Value> {
        (**self).save_state()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), String> {
        (**self).restore_state(state)
    }
}

impl<A: Adversary + ?Sized> Adversary for Box<A> {
    fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
        (**self).decide(view)
    }

    fn save_state(&self) -> Option<Value> {
        (**self).save_state()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), String> {
        (**self).restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_builder_counts_events() {
        let mut d = Decisions::none();
        d.fail(Pid(0), FailPoint::BeforeWrites).restart(Pid(0));
        d.fail(Pid(1), FailPoint::AfterWrite(1));
        assert_eq!(d.event_count(), 3);
    }

    #[test]
    fn no_failures_decides_nothing() {
        let mem = SharedMemory::new(1);
        let procs = [ProcMeta { pid: Pid(0), status: ProcStatus::Alive, completed_cycles: 0 }];
        let tentative = Cycles::new(1, 0, 0);
        let view = MachineView {
            cycle: 0,
            processors: 1,
            mem: &mem,
            procs: &procs,
            tentative: &tentative,
            unvisited: None,
        };
        assert_eq!(NoFailures.decide(&view), Decisions::none());
        assert_eq!(view.active_count(), 0);
    }

    /// Every shape a row can legally hold at budget `(r, w)`: each read
    /// and write count up to the budget, halting or not, plus a dead row.
    fn shapes(r: usize, w: usize) -> Vec<Option<(usize, usize, bool)>> {
        let live = (0..=r).flat_map(|k| (0..=w).flat_map(move |j| [(k, j, false), (k, j, true)]));
        std::iter::once(None).chain(live.map(Some)).collect()
    }

    /// The cycle of shape `(k, j, halts)` for processor `i`, its addresses
    /// and values drawn from `i` so that no two rows agree.
    fn cycle_of<'a>(
        i: usize,
        (k, j, halts): (usize, usize, bool),
        reads: &'a mut Vec<usize>,
        writes: &'a mut Vec<(usize, Word)>,
    ) -> TentativeCycle<'a> {
        *reads = (0..k).map(|a| 100 * i + a).collect();
        *writes = (0..j).map(|a| (100 * i + 50 + a, (i + a) as Word)).collect();
        TentativeCycle { reads, writes, halts }
    }

    /// `set`, `get` and `iter` round-trip every legal shape, at the
    /// snapshot budget, the paper's and the widest inline one; a row
    /// rewritten with a narrower cycle shows nothing of the wider one.
    #[test]
    fn cycles_round_trip_every_legal_shape() {
        for (r, w) in [(0, 1), (4, 2), (MAX_READS, MAX_WRITES)] {
            let shapes = shapes(r, w);
            let mut table = Cycles::new(shapes.len(), r, w);
            let (mut reads, mut writes) = (Vec::new(), Vec::new());
            // Fill every row at full width first, then with its shape.
            for i in 0..shapes.len() {
                let widest = cycle_of(i, (r, w, true), &mut reads, &mut writes);
                table.set(Pid(i), Some(widest));
                assert_eq!(table.get(Pid(i)), Some(widest));
            }
            for (i, &shape) in shapes.iter().enumerate() {
                let cycle = shape.map(|shape| cycle_of(i, shape, &mut reads, &mut writes));
                table.set(Pid(i), cycle);
                assert_eq!(table.get(Pid(i)), cycle, "budget ({r}, {w}), shape {shape:?}");
            }
            let (mut reads, mut writes) = (Vec::new(), Vec::new());
            let mut live = table.iter();
            for (i, &shape) in shapes.iter().enumerate() {
                let Some(shape) = shape else {
                    assert_eq!(table.get(Pid(i)), None);
                    continue;
                };
                let want = cycle_of(i, shape, &mut reads, &mut writes);
                assert_eq!(live.next(), Some((Pid(i), want)), "budget ({r}, {w})");
            }
            assert_eq!(live.next(), None);
            assert_eq!(table.get(Pid(shapes.len())), None, "out of range");
            assert_eq!(table.len(), shapes.len());
        }
    }

    /// The view's active processors are exactly the table's live rows.
    #[test]
    fn active_pids_and_count_follow_the_table() {
        let p = 10;
        let mem = SharedMemory::new(1);
        let procs: Vec<ProcMeta> = (0..p)
            .map(|i| ProcMeta { pid: Pid(i), status: ProcStatus::Alive, completed_cycles: 0 })
            .collect();
        let mut tentative = Cycles::new(p, 4, 2);
        for i in [1, 2, 5, 9] {
            let cycle = TentativeCycle { reads: &[i], writes: &[(i, 1)], halts: i == 5 };
            tentative.set(Pid(i), Some(cycle));
        }
        let view = MachineView {
            cycle: 0,
            processors: p,
            mem: &mem,
            procs: &procs,
            tentative: &tentative,
            unvisited: None,
        };
        let live: Vec<Pid> = tentative.iter().map(|(pid, _)| pid).collect();
        assert_eq!(live, [Pid(1), Pid(2), Pid(5), Pid(9)]);
        assert_eq!(view.active_pids().collect::<Vec<_>>(), live);
        assert_eq!(view.active_count(), live.len());
    }
}
