//! Per-worker buffers of the parallel commit.
//!
//! The pooled engine's apply phase (see `Core::apply_pooled` in
//! [`crate::exec`]) merges the tick's surviving writes in three pooled
//! passes — scan, merge, store — that communicate exclusively through the
//! buffers in [`CommitScratch`]. The layout is rank-addressed so no two
//! workers ever share a row:
//!
//! * **buckets** — `groups × parts` rows; scan group `g` buckets the
//!   surviving writes of its PID range by destination address partition
//!   into rows `[g*parts, (g+1)*parts)`.
//! * **sorted** — one row per address partition: the concatenation of its
//!   bucket column, sorted by `(slot, addr, pid)` (unique keys, so the
//!   unstable sort is deterministic).
//! * **winners** — `parts × write_slots` rows: the CRCW winner per
//!   `(slot, addr)` group, address-ascending within a row by construction.
//! * **bank_deltas / outstanding_changes** — per-partition accounting
//!   deltas and signed changes of the outstanding-cell count, merged by the
//!   coordinator in rank order.
//! * **errs** — per-worker first-conflict slot, keyed by `(slot, addr)` so
//!   the coordinator can pick the globally-first error deterministically.
//!
//! All rows are reused across ticks; a steady-state tick performs no heap
//! allocation once the rows have grown to their working sizes.

use std::fmt;

use crate::error::PramError;
use crate::pool::SendPtr;
use crate::word::Word;

/// One surviving tentative write, bucketed by the scan pass.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CommitEntry {
    /// Write slot within the processor's surviving prefix.
    pub(crate) slot: u32,
    /// Destination address.
    pub(crate) addr: usize,
    /// Writing processor (CRCW resolution picks the lowest).
    pub(crate) pid: u32,
    /// Value written.
    pub(crate) value: Word,
}

/// The resolved CRCW winner of one `(slot, addr)` group.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SlotWinner {
    /// Destination address.
    pub(crate) addr: usize,
    /// Winning value.
    pub(crate) value: Word,
}

/// Reused buffers of the parallel commit; see the [module docs](self) for
/// the row-ownership layout.
#[derive(Default)]
pub(crate) struct CommitScratch {
    /// `groups × parts` bucket rows, indexed `g * parts + w`.
    pub(crate) buckets: Vec<Vec<CommitEntry>>,
    /// Per-partition sort arena.
    pub(crate) sorted: Vec<Vec<CommitEntry>>,
    /// `parts × write_slots` winner rows, indexed `w * stride + slot`.
    pub(crate) winners: Vec<Vec<SlotWinner>>,
    /// Per-partition committed-write counts per bank.
    pub(crate) bank_deltas: Vec<Vec<u64>>,
    /// Per-partition change of the outstanding-cell count.
    pub(crate) outstanding_changes: Vec<isize>,
    /// Per-worker first error, keyed by `(slot, addr)` for the
    /// deterministic global minimum.
    pub(crate) errs: Vec<Option<(u32, usize, PramError)>>,
    /// Raw base pointers of each memory bank's cells, refilled every tick.
    pub(crate) bank_ptrs: Vec<SendPtr<Word>>,
}

impl CommitScratch {
    /// Size every row table for `groups` scan groups, `parts` address
    /// partitions and `stride` write slots. Existing rows keep their
    /// capacity, so the steady state allocates nothing.
    pub(crate) fn prepare(&mut self, groups: usize, parts: usize, stride: usize, banks: usize) {
        self.buckets.resize_with(groups * parts, Vec::new);
        self.sorted.resize_with(parts, Vec::new);
        self.winners.resize_with(parts * stride, Vec::new);
        self.bank_deltas.resize_with(parts, Vec::new);
        for d in &mut self.bank_deltas {
            d.reserve(banks);
        }
        self.outstanding_changes.resize(parts, 0);
        self.errs.resize_with(parts.max(groups), || None);
    }

    /// Take the error with the smallest `(slot, addr)` key across all
    /// worker slots — exactly the error the sequential slot-by-slot scan
    /// would have hit first, since every worker records its own first
    /// error in `(slot, addr)` order. Remaining slots are left for the
    /// next pass to clear.
    pub(crate) fn take_min_err(&mut self) -> Option<PramError> {
        let mut best: Option<usize> = None;
        for i in 0..self.errs.len() {
            if let Some((slot, addr, _)) = &self.errs[i] {
                let better = match best {
                    None => true,
                    Some(b) => {
                        let (bs, ba, _) = self.errs[b].as_ref().expect("best slot holds an error");
                        (*slot, *addr) < (*bs, *ba)
                    }
                };
                if better {
                    best = Some(i);
                }
            }
        }
        best.and_then(|i| self.errs[i].take()).map(|(_, _, e)| e)
    }
}

impl fmt::Debug for CommitScratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CommitScratch")
            .field("buckets", &self.buckets.len())
            .field("sorted", &self.sorted.len())
            .field("winners", &self.winners.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_min_err_picks_the_smallest_slot_addr_key() {
        let mut s = CommitScratch::default();
        s.prepare(3, 3, 1, 1);
        s.errs[0] = Some((1, 5, PramError::AddressOutOfBounds { addr: 5, size: 4 }));
        s.errs[2] = Some((0, 9, PramError::AddressOutOfBounds { addr: 9, size: 4 }));
        let err = s.take_min_err().expect("an error is present");
        assert!(
            matches!(err, PramError::AddressOutOfBounds { addr: 9, .. }),
            "slot 0 precedes slot 1 regardless of address: {err:?}"
        );
        assert!(s.errs[2].is_none(), "the taken slot is cleared");
        assert!(s.errs[0].is_some(), "other slots are left for the next pass");
    }

    #[test]
    fn prepare_is_idempotent_and_preserves_capacity() {
        let mut s = CommitScratch::default();
        s.prepare(2, 2, 4, 1);
        assert_eq!(s.buckets.len(), 4);
        assert_eq!(s.winners.len(), 8);
        s.buckets[3].reserve(100);
        let cap = s.buckets[3].capacity();
        s.prepare(2, 2, 4, 1);
        assert_eq!(s.buckets[3].capacity(), cap, "rows keep their capacity");
    }
}
