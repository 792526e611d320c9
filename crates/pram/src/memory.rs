//! Reliable shared memory, optionally partitioned into interleaved banks.
//!
//! Per the model (§2.1 item 3 and §2.3), shared memory is not affected by
//! processor failures; word writes are atomic. The memory also keeps
//! lightweight instrumentation counters (charged reads/writes) used by the
//! experiment harness. Writes are counted at the store; reads are charged
//! per address, once a tick's commit succeeded, for every cycle whose read
//! phase actually executed (an interrupted-before-reads cycle charges
//! nothing). The snapshot machine never charges reads: its whole-memory
//! snapshot has unit cost by assumption, so per-cell read counts are
//! meaningless there.
//!
//! # Layouts
//!
//! A [`MemoryLayout`] chooses the physical partitioning of the address
//! space. [`MemoryLayout::Flat`] is the classic single array.
//! [`MemoryLayout::Banked`] splits the cells across `banks` modules in
//! round-robin blocks of `interleave` consecutive addresses — the module
//! organization the machine's Omega interconnect (`rfsp-net`) routes
//! against. Each bank keeps its **own** read/write counters, charged at the
//! bank the address maps to; the memory-wide totals ([`read_count`],
//! [`write_count`]) are merged on demand by summing the banks. The layout
//! is a *physical* property only: addresses, values, CRCW semantics and the
//! merged totals are identical across layouts by construction (pinned by
//! the flat-vs-banked differential tests).
//!
//! [`read_count`]: SharedMemory::read_count
//! [`write_count`]: SharedMemory::write_count

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::PramError;
use crate::word::Word;

/// Physical partitioning of the shared address space.
///
/// The layout never changes observable program semantics — only where
/// cells physically live and which per-bank counter an access charges.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum MemoryLayout {
    /// One contiguous array, one counter pair. The default.
    #[default]
    Flat,
    /// `banks` memory modules with block-cyclic interleaving: addresses
    /// are dealt to banks in round-robin blocks of `interleave`
    /// consecutive cells (`bank = (addr / interleave) % banks`).
    /// `interleave = 1` is the classic word-interleaved layout used by
    /// Omega-network machines.
    Banked {
        /// Number of memory modules; must be ≥ 1.
        banks: usize,
        /// Consecutive addresses per block; must be ≥ 1.
        interleave: usize,
    },
}

impl fmt::Display for MemoryLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MemoryLayout::Flat => write!(f, "flat"),
            MemoryLayout::Banked { banks, interleave } => {
                write!(f, "banked({banks} banks, interleave {interleave})")
            }
        }
    }
}

impl MemoryLayout {
    /// Word-interleaved layout over `banks` modules (`interleave = 1`).
    pub fn banked(banks: usize) -> Self {
        MemoryLayout::Banked { banks, interleave: 1 }
    }

    /// Number of memory modules (1 for [`MemoryLayout::Flat`]).
    #[inline]
    pub fn bank_count(&self) -> usize {
        match *self {
            MemoryLayout::Flat => 1,
            MemoryLayout::Banked { banks, .. } => banks,
        }
    }

    /// The module address `addr` maps to.
    #[inline]
    pub fn bank_of(&self, addr: usize) -> usize {
        match *self {
            MemoryLayout::Flat => 0,
            MemoryLayout::Banked { banks, interleave } => (addr / interleave) % banks,
        }
    }

    /// `(bank, slot-within-bank)` of `addr`. Callers check bounds.
    #[inline]
    fn locate(&self, addr: usize) -> (usize, usize) {
        match *self {
            MemoryLayout::Flat => (0, addr),
            MemoryLayout::Banked { banks, interleave } => {
                let block = addr / interleave;
                (block % banks, (block / banks) * interleave + addr % interleave)
            }
        }
    }

    /// Count one read per address in `addrs` against its bank's entry of
    /// `per_bank` (one entry per bank). The flat layout adds the count to
    /// its single entry without mapping each address.
    #[inline]
    pub(crate) fn tally_reads(&self, addrs: &[usize], per_bank: &mut [u64]) {
        match *self {
            MemoryLayout::Flat => per_bank[0] += addrs.len() as u64,
            MemoryLayout::Banked { .. } => {
                for &addr in addrs {
                    per_bank[self.bank_of(addr)] += 1;
                }
            }
        }
    }

    /// Check the layout parameters.
    ///
    /// # Errors
    ///
    /// [`PramError::InvalidConfig`] if a banked layout has zero banks or a
    /// zero interleave.
    pub fn validate(&self) -> Result<(), PramError> {
        match *self {
            MemoryLayout::Flat => Ok(()),
            MemoryLayout::Banked { banks: 0, .. } => Err(PramError::InvalidConfig {
                detail: "banked memory layout needs at least one bank".into(),
            }),
            MemoryLayout::Banked { interleave: 0, .. } => Err(PramError::InvalidConfig {
                detail: "banked memory layout needs an interleave of at least one cell".into(),
            }),
            MemoryLayout::Banked { .. } => Ok(()),
        }
    }
}

/// One memory module: its cells plus its own charge counters.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Bank {
    cells: Vec<Word>,
    reads: u64,
    writes: u64,
}

/// The machine's shared memory: an array of [`Word`]s, all zero until
/// written (the paper assumes non-input memory is cleared), physically
/// organized by a [`MemoryLayout`].
///
/// `peek`/`poke` are *meta-level* accessors used by harnesses, adversaries
/// and completion predicates — they bypass accounting. Programs only touch
/// memory through their update cycles.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SharedMemory {
    layout: MemoryLayout,
    size: usize,
    banks: Vec<Bank>,
}

impl SharedMemory {
    /// Allocate `size` zeroed cells in the flat layout.
    pub fn new(size: usize) -> Self {
        Self::with_layout(size, MemoryLayout::Flat).expect("the flat layout is always valid")
    }

    /// Allocate `size` zeroed cells under `layout`.
    ///
    /// # Errors
    ///
    /// [`PramError::InvalidConfig`] if the layout parameters are invalid
    /// (see [`MemoryLayout::validate`]).
    pub fn with_layout(size: usize, layout: MemoryLayout) -> Result<Self, PramError> {
        layout.validate()?;
        let banks = match layout {
            MemoryLayout::Flat => vec![Bank { cells: vec![0; size], reads: 0, writes: 0 }],
            MemoryLayout::Banked { banks, interleave } => (0..banks)
                .map(|b| Bank {
                    cells: vec![0; bank_len(size, banks, interleave, b)],
                    reads: 0,
                    writes: 0,
                })
                .collect(),
        };
        Ok(SharedMemory { layout, size, banks })
    }

    /// Number of cells.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The physical layout.
    pub fn layout(&self) -> MemoryLayout {
        self.layout
    }

    /// Number of memory modules.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// The module address `addr` maps to (layout-aware; used by the
    /// network meter to route packets to the cell's *actual* bank).
    #[inline]
    pub fn bank_of(&self, addr: usize) -> usize {
        self.layout.bank_of(addr)
    }

    /// `(bank, slot-within-bank)` of `addr`. Callers check bounds.
    #[inline]
    fn locate(&self, addr: usize) -> (usize, usize) {
        self.layout.locate(addr)
    }

    /// Rebuild a memory from checkpointed cells and per-bank
    /// instrumentation counters
    /// ([`Checkpoint`](crate::checkpoint::Checkpoint) restore). `cells` is
    /// the merged, address-ordered image regardless of layout.
    ///
    /// # Errors
    ///
    /// [`PramError::Checkpoint`] if the cell image does not match the
    /// declared memory size, or the counter vectors do not match the
    /// layout's bank count — a truncated or oversized checkpoint must be
    /// rejected, not silently zero-padded.
    pub(crate) fn from_parts(
        layout: MemoryLayout,
        size: usize,
        cells: &[Word],
        bank_reads: &[u64],
        bank_writes: &[u64],
    ) -> Result<Self, PramError> {
        if cells.len() != size {
            return Err(PramError::Checkpoint {
                detail: format!(
                    "checkpointed memory image has {} cells but the machine declares {size}",
                    cells.len()
                ),
            });
        }
        let expected_banks = layout.bank_count();
        if bank_reads.len() != expected_banks || bank_writes.len() != expected_banks {
            return Err(PramError::Checkpoint {
                detail: format!(
                    "checkpoint carries counters for {} read / {} write banks but the {layout} \
                     layout has {expected_banks}",
                    bank_reads.len(),
                    bank_writes.len()
                ),
            });
        }
        let mut mem = Self::with_layout(size, layout)?;
        for (addr, &v) in cells.iter().enumerate() {
            let (b, s) = mem.locate(addr);
            mem.banks[b].cells[s] = v;
        }
        for (bank, (&r, &w)) in mem.banks.iter_mut().zip(bank_reads.iter().zip(bank_writes)) {
            bank.reads = r;
            bank.writes = w;
        }
        Ok(mem)
    }

    /// Charged atomic word write performed by the machine. Returns the
    /// value it overwrote, so the commit folds the completion tracker
    /// without reading the cell a second time.
    ///
    /// # Errors
    ///
    /// [`PramError::AddressOutOfBounds`] if `addr` is outside memory.
    pub(crate) fn store(&mut self, addr: usize, value: Word) -> Result<Word, PramError> {
        if addr >= self.size {
            return Err(PramError::AddressOutOfBounds { addr, size: self.size });
        }
        let (b, s) = self.locate(addr);
        let bank = &mut self.banks[b];
        bank.writes += 1;
        Ok(std::mem::replace(&mut bank.cells[s], value))
    }

    /// Ask the CPU to start loading `addr`'s cell ahead of a store to it:
    /// the commit merge issues this a fixed number of stores ahead, so the
    /// cell (and, at the scale geometry, the TLB entry of its page) is on
    /// its way before the store needs it. A hint only: values and counters
    /// are untouched, and an address outside the memory is ignored.
    /// `_mm_prefetch` on x86_64; nothing on other architectures. The one
    /// `unsafe` block of this crate.
    #[allow(unsafe_code)]
    #[inline(always)]
    pub(crate) fn prefetch(&self, addr: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let (b, s) = self.locate(addr);
            if let Some(cell) = self.banks.get(b).and_then(|bank| bank.cells.get(s)) {
                // SAFETY: SSE is part of the x86_64 baseline, and `cell` is
                // a live reference; a prefetch reads nothing the program
                // can observe.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(cell).cast()) };
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = addr;
    }

    /// Uncharged inspection (harness/adversary/completion-predicate use).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds — meta-level callers are expected
    /// to know the layout.
    #[inline]
    pub fn peek(&self, addr: usize) -> Word {
        assert!(addr < self.size, "address {addr} out of bounds for memory of {} cells", self.size);
        let (b, s) = self.locate(addr);
        self.banks[b].cells[s]
    }

    /// Uncharged write (input initialization and test setup).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    #[inline]
    pub fn poke(&mut self, addr: usize, value: Word) {
        assert!(addr < self.size, "address {addr} out of bounds for memory of {} cells", self.size);
        let (b, s) = self.locate(addr);
        self.banks[b].cells[s] = value;
    }

    /// View of the raw cells (uncharged). Only the flat layout stores its
    /// cells contiguously in address order; use [`SharedMemory::to_vec`]
    /// or [`SharedMemory::chunks`] for layout-independent access.
    ///
    /// # Panics
    ///
    /// Panics on a banked layout.
    pub fn as_slice(&self) -> &[Word] {
        assert!(
            matches!(self.layout, MemoryLayout::Flat),
            "as_slice requires the flat layout ({} is banked); use to_vec()/chunks()",
            self.layout
        );
        &self.banks[0].cells
    }

    /// Merged, address-ordered copy of all cells, any layout.
    pub fn to_vec(&self) -> Vec<Word> {
        let mut out = Vec::with_capacity(self.size);
        for (_, chunk) in self.chunks() {
            out.extend_from_slice(chunk);
        }
        out
    }

    /// Iterate the cells in ascending address order as bank-aligned
    /// contiguous chunks `(base_addr, cells)`. The flat layout yields one
    /// chunk; a banked layout yields one chunk per interleave block, each
    /// a contiguous slice of its bank. This is the allocation-free way to
    /// scan memory without paying the per-address bank mapping.
    pub fn chunks(&self) -> CellChunks<'_> {
        CellChunks { mem: self, next_base: 0 }
    }

    /// Add a tick's per-bank read tally (see [`MemoryLayout::tally_reads`])
    /// to the charge counters.
    pub(crate) fn add_bank_reads(&mut self, per_bank: &[u64]) {
        debug_assert_eq!(per_bank.len(), self.banks.len());
        for (bank, &r) in self.banks.iter_mut().zip(per_bank) {
            bank.reads += r;
        }
    }

    /// Total charged reads so far, merged across banks.
    pub fn read_count(&self) -> u64 {
        self.banks.iter().map(|b| b.reads).sum()
    }

    /// Total charged (committed) writes so far, merged across banks.
    pub fn write_count(&self) -> u64 {
        self.banks.iter().map(|b| b.writes).sum()
    }

    /// Per-bank `(reads, writes)` counters, indexed by bank.
    pub fn bank_counters(&self) -> Vec<(u64, u64)> {
        self.banks.iter().map(|b| (b.reads, b.writes)).collect()
    }
}

/// Cells bank `b` owns under a block-cyclic layout: `full` whole rounds
/// plus the tail round's partial deal.
fn bank_len(size: usize, banks: usize, interleave: usize, b: usize) -> usize {
    let round = banks * interleave;
    let full = size / round * interleave;
    let rem = size % round;
    full + rem.saturating_sub(b * interleave).min(interleave)
}

/// Iterator over [`SharedMemory::chunks`]: `(base_addr, cells)` runs in
/// ascending address order.
pub struct CellChunks<'a> {
    mem: &'a SharedMemory,
    next_base: usize,
}

impl<'a> Iterator for CellChunks<'a> {
    type Item = (usize, &'a [Word]);

    fn next(&mut self) -> Option<Self::Item> {
        let (base, end) = (self.next_base, self.mem.size);
        if base >= end {
            return None;
        }
        let (bank, slot) = self.mem.locate(base);
        let len = match self.mem.layout {
            MemoryLayout::Flat => end - base,
            // Chunks start on block boundaries, so each is one whole
            // interleave block (the last one possibly cut short).
            MemoryLayout::Banked { interleave, .. } => interleave.min(end - base),
        };
        self.next_base = base + len;
        Some((base, &self.mem.banks[bank].cells[slot..slot + len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Charge one read per address, as a tick does for its cycles' reads.
    fn charge_reads(m: &mut SharedMemory, addrs: &[usize]) {
        let mut per_bank = vec![0; m.bank_count()];
        m.layout().tally_reads(addrs, &mut per_bank);
        m.add_bank_reads(&per_bank);
    }

    #[test]
    fn starts_zeroed() {
        let m = SharedMemory::new(4);
        assert_eq!(m.as_slice(), &[0, 0, 0, 0]);
        assert_eq!(m.layout(), MemoryLayout::Flat);
        assert_eq!(m.bank_count(), 1);
    }

    #[test]
    fn store_roundtrip_and_counter() {
        let mut m = SharedMemory::new(2);
        m.store(1, 42).unwrap();
        assert_eq!(m.peek(1), 42);
        assert_eq!(m.write_count(), 1);
    }

    #[test]
    fn peek_poke_do_not_count() {
        let mut m = SharedMemory::new(2);
        m.poke(0, 7);
        assert_eq!(m.peek(0), 7);
        assert_eq!(m.read_count(), 0);
        assert_eq!(m.write_count(), 0);
    }

    #[test]
    fn charge_reads_accumulates() {
        let mut m = SharedMemory::new(4);
        charge_reads(&mut m, &[0, 1, 2]);
        charge_reads(&mut m, &[3, 0]);
        assert_eq!(m.read_count(), 5);
        assert_eq!(m.write_count(), 0);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut m = SharedMemory::new(2);
        assert!(matches!(m.store(9, 0), Err(PramError::AddressOutOfBounds { addr: 9, size: 2 })));
    }

    // ------------------------------------------------------------- banked

    /// Banked and flat memories agree cell-for-cell and on merged totals.
    #[test]
    fn banked_matches_flat_semantics() {
        let layout = MemoryLayout::Banked { banks: 3, interleave: 2 };
        let mut flat = SharedMemory::new(13);
        let mut banked = SharedMemory::with_layout(13, layout).unwrap();
        for addr in 0..13 {
            flat.store(addr, (addr * 7 + 1) as Word).unwrap();
            banked.store(addr, (addr * 7 + 1) as Word).unwrap();
        }
        charge_reads(&mut flat, &[0, 5, 12]);
        charge_reads(&mut banked, &[0, 5, 12]);
        for addr in 0..13 {
            assert_eq!(flat.peek(addr), banked.peek(addr), "addr {addr}");
        }
        assert_eq!(banked.to_vec(), flat.as_slice());
        assert_eq!(banked.read_count(), flat.read_count());
        assert_eq!(banked.write_count(), flat.write_count());
    }

    /// The block-cyclic mapping sends `addr` to bank `(addr/ilv) % banks`
    /// and per-bank counters charge the owning bank.
    #[test]
    fn per_bank_counters_charge_the_owning_bank() {
        let layout = MemoryLayout::Banked { banks: 2, interleave: 2 };
        let mut m = SharedMemory::with_layout(8, layout).unwrap();
        // addrs 0,1 → bank 0; 2,3 → bank 1; 4,5 → bank 0; 6,7 → bank 1.
        assert_eq!(m.bank_of(1), 0);
        assert_eq!(m.bank_of(2), 1);
        assert_eq!(m.bank_of(4), 0);
        m.store(0, 1).unwrap();
        m.store(2, 1).unwrap();
        m.store(3, 1).unwrap();
        charge_reads(&mut m, &[4, 6]);
        assert_eq!(m.bank_counters(), vec![(1, 1), (1, 2)]);
        assert_eq!(m.read_count(), 2);
        assert_eq!(m.write_count(), 3);
    }

    /// Chunk iteration covers the address space in order, bank-aligned.
    #[test]
    fn chunks_cover_in_address_order() {
        let layout = MemoryLayout::Banked { banks: 2, interleave: 3 };
        let mut m = SharedMemory::with_layout(10, layout).unwrap();
        for addr in 0..10 {
            m.poke(addr, addr as Word);
        }
        let mut seen = Vec::new();
        let mut next = 0;
        for (base, cells) in m.chunks() {
            assert_eq!(base, next);
            next += cells.len();
            seen.extend_from_slice(cells);
        }
        assert_eq!(next, 10);
        assert_eq!(seen, (0..10).collect::<Vec<Word>>());
    }

    /// Bank sizing handles a tail that doesn't fill a full round.
    #[test]
    fn uneven_sizes_split_exactly() {
        for size in 0..40 {
            for banks in 1..5 {
                for interleave in 1..4 {
                    let total: usize =
                        (0..banks).map(|b| bank_len(size, banks, interleave, b)).sum();
                    assert_eq!(total, size, "size={size} banks={banks} ilv={interleave}");
                }
            }
        }
    }

    #[test]
    fn zero_banks_or_interleave_rejected() {
        assert!(
            SharedMemory::with_layout(4, MemoryLayout::Banked { banks: 0, interleave: 1 }).is_err()
        );
        assert!(
            SharedMemory::with_layout(4, MemoryLayout::Banked { banks: 2, interleave: 0 }).is_err()
        );
    }

    /// Satellite 1: `from_parts` rejects a cell image whose length does
    /// not match the declared size, naming expected vs. actual.
    #[test]
    fn from_parts_validates_cell_count() {
        let err = SharedMemory::from_parts(MemoryLayout::Flat, 4, &[1, 2], &[0], &[0]).unwrap_err();
        match err {
            PramError::Checkpoint { detail } => {
                assert!(detail.contains("2 cells"), "{detail}");
                assert!(detail.contains('4'), "{detail}");
            }
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn from_parts_validates_bank_counter_shape() {
        let layout = MemoryLayout::banked(4);
        let err = SharedMemory::from_parts(layout, 2, &[1, 2], &[0; 2], &[0; 4]).unwrap_err();
        assert!(matches!(err, PramError::Checkpoint { .. }), "{err:?}");
    }

    #[test]
    fn from_parts_restores_banked_image() {
        let layout = MemoryLayout::Banked { banks: 2, interleave: 1 };
        let m = SharedMemory::from_parts(layout, 4, &[9, 8, 7, 6], &[1, 2], &[3, 4]).unwrap();
        assert_eq!(m.to_vec(), vec![9, 8, 7, 6]);
        assert_eq!(m.bank_counters(), vec![(1, 3), (2, 4)]);
        assert_eq!(m.read_count(), 3);
        assert_eq!(m.write_count(), 7);
    }

    #[test]
    fn layout_serde_roundtrip() {
        for layout in [MemoryLayout::Flat, MemoryLayout::Banked { banks: 8, interleave: 4 }] {
            let text = serde::json::to_string(&layout);
            let back: MemoryLayout = serde::json::from_str(&text).unwrap();
            assert_eq!(back, layout);
        }
    }
}
