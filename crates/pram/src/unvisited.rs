//! Incremental unvisited-set index: the outstanding shared-memory cells as
//! a bitset, with O(log N) rank and select.
//!
//! The snapshot algorithms of §3 and the pigeonhole adversary of
//! Theorem 3.1 both consume the same quantity every tick: the list of
//! still-unvisited Write-All cells, *numbered by position*. Computing it by
//! scanning memory costs O(N) per processor per tick and caps the
//! experiments at small N. [`UnvisitedIndex`] maintains that set
//! incrementally from committed writes instead: the snapshot machine folds
//! every commit into the index, and consumers get
//!
//! * [`len`](UnvisitedIndex::len) / [`is_empty`](UnvisitedIndex::is_empty)
//!   — the outstanding count;
//! * [`select`](UnvisitedIndex::select) — the k-th unvisited address in
//!   ascending order;
//! * [`rank`](UnvisitedIndex::rank) / [`rank_of`](UnvisitedIndex::rank_of)
//!   — how many unvisited addresses precede an address;
//! * [`count_in`](UnvisitedIndex::count_in) and
//!   [`iter_in`](UnvisitedIndex::iter_in) — the unvisited addresses inside
//!   a [`Region`], counted or walked in ascending order.
//!
//! # Representation
//!
//! Two arrays. A bitset of `W = ⌈size/64⌉` words holds bit `a` set exactly
//! when cell `a` is outstanding, and a Fenwick tree of `W + 1` `u32`
//! entries holds prefix sums of the words' popcounts. Insert and remove
//! flip one bit and update O(log W) tree entries. `rank` is a Fenwick
//! prefix plus a masked popcount, and `select` is a Fenwick descent plus a
//! select inside one word, both O(log W). Every operation leaves the index
//! exact, so no tick pays a clean-up pass: a tick costs
//! O(committed writes · log N) however many cells remain.
//!
//! Position order is built in: the §3 balanced-allocation rule and the
//! pigeonhole adversary's tie-breaking are both defined on cells *numbered
//! by position*, which is exactly the bit order.
//!
//! An index over `size` cells takes `size / 8` bytes of bitset plus half
//! that again for the tree. It covers at most `u32::MAX` cells, so the
//! tree's counts fit their `u32` entries. Steady-state maintenance performs
//! **no heap allocation**; a rebuild over the same size reuses both
//! buffers.

use crate::region::Region;

/// Width of one lane of the batched completion classifier
/// ([`ExecutionModel::completion_masks`](crate::ExecutionModel::completion_masks)):
/// cells are classified 64 at a time into one `u64` bit mask, which
/// [`UnvisitedIndex::rebuild_from_lanes`] ORs straight into the bitset.
pub const LANE_WIDTH: usize = 64;

const WORD_BITS: usize = u64::BITS as usize;

/// The outstanding cells of a `0..size` address space as a bitset with a
/// Fenwick tree over its words. See the [module docs](self) for the
/// representation and cost model.
#[derive(Clone, Debug)]
pub struct UnvisitedIndex {
    /// The address space the index covers.
    size: usize,
    /// Bit `a % 64` of word `a / 64` is set iff `a` is in the set.
    words: Vec<u64>,
    /// 1-based Fenwick tree over the words' popcounts: `tree[i]` sums the
    /// words `(i - lowbit(i), i]` (1-based). `tree[0]` is unused.
    tree: Vec<u32>,
    /// Number of addresses in the set.
    len: usize,
}

impl Default for UnvisitedIndex {
    fn default() -> Self {
        UnvisitedIndex::new(0)
    }
}

/// Lowest set bit of a Fenwick index.
#[inline]
fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

/// Position of the `k`-th set bit (0-based) of `word`; `k` must be below
/// `word.count_ones()`. Halves the word by popcount down to one byte, then
/// clears the byte's low bits.
#[inline]
fn select_in_word(word: u64, mut k: u32) -> usize {
    let mut shift = 0;
    for half in [32, 16, 8] {
        let low = ((word >> shift) & ((1u64 << half) - 1)).count_ones();
        if k >= low {
            k -= low;
            shift += half;
        }
    }
    let mut byte = (word >> shift) & 0xFF;
    for _ in 0..k {
        byte &= byte - 1;
    }
    shift + byte.trailing_zeros() as usize
}

impl UnvisitedIndex {
    /// An empty index over the address space `0..size`.
    ///
    /// # Panics
    ///
    /// Panics if `size > u32::MAX`.
    pub fn new(size: usize) -> Self {
        let mut index = UnvisitedIndex { size: 0, words: Vec::new(), tree: Vec::new(), len: 0 };
        index.clear(size);
        index.seal();
        index
    }

    /// Empty the set and re-size it to `0..size`, keeping the buffers.
    fn clear(&mut self, size: usize) {
        assert!(
            size <= u32::MAX as usize,
            "an index covers at most u32::MAX addresses, not {size}"
        );
        self.size = size;
        self.words.clear();
        self.words.resize(size.div_ceil(WORD_BITS), 0);
    }

    /// Rebuild the Fenwick tree and the count from the bitset, in O(W).
    fn seal(&mut self) {
        self.tree.clear();
        self.tree.push(0);
        self.tree.extend(self.words.iter().map(|w| w.count_ones()));
        for i in 1..self.tree.len() {
            let parent = i + lowbit(i);
            if parent < self.tree.len() {
                self.tree[parent] += self.tree[i];
            }
        }
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// Rebuild cell by cell: afterwards the index over `0..size` contains
    /// exactly the addresses `addrs` yields, in any order. O(size +
    /// addresses). The per-cell reference form of
    /// [`UnvisitedIndex::rebuild_from_lanes`].
    ///
    /// # Panics
    ///
    /// Panics if `size > u32::MAX`, or if an address is at or beyond
    /// `size`.
    pub fn rebuild(&mut self, size: usize, addrs: impl IntoIterator<Item = usize>) {
        self.clear(size);
        for addr in addrs {
            assert!(addr < size, "address {addr} outside indexed space");
            self.words[addr / WORD_BITS] |= 1 << (addr % WORD_BITS);
        }
        self.seal();
    }

    /// Rebuild from lane masks: each `(base, mask)` item marks cell
    /// `base + j` outstanding for every set bit `j` of `mask`, and every
    /// other cell starts absent. The mask is ORed into the bitset whole,
    /// shifted across a word boundary when `base` is not a multiple of 64
    /// (banked memories start a chunk every `interleave` cells). Lanes may
    /// come in any order. O(size / 64).
    ///
    /// # Panics
    ///
    /// Panics if `size > u32::MAX`, or if a mask marks a cell at or beyond
    /// `size`.
    pub fn rebuild_from_lanes(
        &mut self,
        size: usize,
        lanes: impl IntoIterator<Item = (usize, u64)>,
    ) {
        self.clear(size);
        for (base, mask) in lanes {
            if mask == 0 {
                continue;
            }
            let last = base + (WORD_BITS - 1 - mask.leading_zeros() as usize);
            assert!(last < size, "lane mask at {base} marks cell {last} outside indexed space");
            let (w, shift) = (base / WORD_BITS, base % WORD_BITS);
            self.words[w] |= mask << shift;
            if shift > 0 && mask >> (WORD_BITS - shift) != 0 {
                self.words[w + 1] |= mask >> (WORD_BITS - shift);
            }
        }
        self.seal();
    }

    /// Number of addresses in the set. O(1).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty. O(1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `addr` is in the set. O(1); `false` outside the space.
    #[inline]
    pub fn contains(&self, addr: usize) -> bool {
        addr < self.size && self.words[addr / WORD_BITS] >> (addr % WORD_BITS) & 1 == 1
    }

    /// Add `1` to (or, with `up == false`, subtract it from) the popcount
    /// of word `w` in the tree. O(log W).
    #[inline]
    fn bump(&mut self, w: usize, up: bool) {
        let mut i = w + 1;
        while i < self.tree.len() {
            if up {
                self.tree[i] += 1;
            } else {
                self.tree[i] -= 1;
            }
            i += lowbit(i);
        }
    }

    /// Add `addr` to the set. Returns `false` (no-op) if already present.
    /// O(log size).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the address space the index was built
    /// over.
    pub fn insert(&mut self, addr: usize) -> bool {
        assert!(addr < self.size, "address {addr} outside indexed space");
        if self.contains(addr) {
            return false;
        }
        self.words[addr / WORD_BITS] |= 1 << (addr % WORD_BITS);
        self.bump(addr / WORD_BITS, true);
        self.len += 1;
        true
    }

    /// Remove `addr` from the set. Returns `false` (no-op) if not present.
    /// O(log size).
    pub fn remove(&mut self, addr: usize) -> bool {
        if !self.contains(addr) {
            return false;
        }
        self.words[addr / WORD_BITS] &= !(1 << (addr % WORD_BITS));
        self.bump(addr / WORD_BITS, false);
        self.len -= 1;
        true
    }

    /// Number of addresses in the set below `addr` (all of them when
    /// `addr >= size`). O(log size).
    pub fn rank(&self, addr: usize) -> usize {
        let addr = addr.min(self.size);
        let (w, bit) = (addr / WORD_BITS, addr % WORD_BITS);
        let mut sum = 0;
        let mut i = w;
        while i > 0 {
            sum += self.tree[i] as usize;
            i &= i - 1;
        }
        if bit > 0 {
            sum += (self.words[w] & ((1 << bit) - 1)).count_ones() as usize;
        }
        sum
    }

    /// Rank of `addr` within the ascending order, if present.
    /// O(log size).
    #[inline]
    pub fn rank_of(&self, addr: usize) -> Option<usize> {
        self.contains(addr).then(|| self.rank(addr))
    }

    /// The `k`-th address in ascending order (0-based): a Fenwick descent
    /// to the word holding it, then a select inside that word.
    /// O(log size).
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn select(&self, k: usize) -> usize {
        assert!(k < self.len, "select({k}) on an index of {} addresses", self.len);
        let w = self.words.len();
        let mut pos = 0;
        let mut rem = k as u32;
        let mut step = 1usize << w.ilog2();
        while step > 0 {
            let next = pos + step;
            if next <= w && self.tree[next] <= rem {
                pos = next;
                rem -= self.tree[next];
            }
            step >>= 1;
        }
        pos * WORD_BITS + select_in_word(self.words[pos], rem)
    }

    /// Number of addresses inside `region`: `rank(end) − rank(base)`.
    /// O(log size).
    pub fn count_in(&self, region: Region) -> usize {
        self.rank(region.base() + region.len()) - self.rank(region.base())
    }

    /// The addresses inside `region`, ascending: a walk over the set bits
    /// of the region's words. O(region / 64 + addresses yielded).
    pub fn iter_in(&self, region: Region) -> IterIn<'_> {
        let lo = region.base().min(self.size);
        let hi = (region.base() + region.len()).min(self.size);
        if lo >= hi {
            return IterIn { rest: &[], base: 0, bits: 0, hi: 0 };
        }
        let first = lo / WORD_BITS;
        IterIn {
            rest: &self.words[first + 1..hi.div_ceil(WORD_BITS)],
            base: first * WORD_BITS,
            bits: self.words[first] & (!0u64 << (lo % WORD_BITS)),
            hi,
        }
    }

    /// Full cross-check against ground truth: the index covers the
    /// `0..size` address space, contains exactly the addresses for which
    /// `is_outstanding` holds, and its tree and count agree with its bits.
    /// Intended for `debug_assert!` use by the machine; allocates nothing.
    pub fn matches(&self, size: usize, mut is_outstanding: impl FnMut(usize) -> bool) -> bool {
        if self.size != size
            || self.words.len() != size.div_ceil(WORD_BITS)
            || self.tree.len() != self.words.len() + 1
        {
            return false;
        }
        // Every bit of every word, so a stray bit past `size` fails too.
        let bits_agree = (0..self.words.len() * WORD_BITS).all(|addr| {
            let bit = self.words[addr / WORD_BITS] >> (addr % WORD_BITS) & 1 == 1;
            bit == (addr < size && is_outstanding(addr))
        });
        let tree_agrees = (1..self.tree.len()).all(|i| {
            let covered = &self.words[i - lowbit(i)..i];
            self.tree[i] == covered.iter().map(|w| w.count_ones()).sum::<u32>()
        });
        let total: usize = self.words.iter().map(|w| w.count_ones() as usize).sum();
        bits_agree && tree_agrees && total == self.len
    }
}

/// Ascending iterator over the addresses of an [`UnvisitedIndex`] inside
/// one region; see [`UnvisitedIndex::iter_in`].
#[derive(Clone, Debug)]
pub struct IterIn<'a> {
    /// Words after the current one, up to the region's last word.
    rest: &'a [u64],
    /// Address of bit 0 of `bits`.
    base: usize,
    /// The current word, with bits before the region cleared and bits
    /// already yielded cleared.
    bits: u64,
    /// One past the region's last address.
    hi: usize,
}

impl Iterator for IterIn<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            let (&word, rest) = self.rest.split_first()?;
            self.rest = rest;
            self.base += WORD_BITS;
            self.bits = word;
        }
        let addr = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        if addr >= self.hi {
            self.bits = 0;
            self.rest = &[];
            return None;
        }
        Some(addr)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;
    use crate::region::LayoutBuilder;

    fn fresh(live: &[usize], size: usize) -> UnvisitedIndex {
        let mut idx = UnvisitedIndex::new(size);
        idx.rebuild(size, live.iter().copied());
        idx
    }

    /// The region `[base, base + len)` of an address space.
    fn region(base: usize, len: usize) -> Region {
        let mut layout = LayoutBuilder::new();
        layout.alloc(base);
        layout.alloc(len)
    }

    #[test]
    fn rebuild_orders_by_position() {
        let idx = fresh(&[5, 1, 3], 8);
        assert_eq!(idx.iter_in(region(0, 8)).collect::<Vec<_>>(), [1, 3, 5]);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.select(1), 3);
        assert_eq!(idx.rank_of(5), Some(2));
        assert_eq!(idx.rank_of(2), None);
        assert_eq!(idx.rank(2), 1);
        assert!(idx.matches(8, |a| [1, 3, 5].contains(&a)));
    }

    #[test]
    fn regions_count_and_walk_their_own_cells() {
        let idx = fresh(&[1, 2, 5, 6], 8);
        assert_eq!(idx.iter_in(region(0, 4)).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(idx.iter_in(region(4, 4)).collect::<Vec<_>>(), [5, 6]);
        assert_eq!(idx.count_in(region(4, 4)), 2);
        assert_eq!(idx.iter_in(Region::EMPTY).count(), 0);
        assert_eq!(idx.count_in(Region::EMPTY), 0);
    }

    #[test]
    #[should_panic(expected = "outside indexed space")]
    fn insert_out_of_space_panics() {
        let mut idx = UnvisitedIndex::new(2);
        idx.insert(2);
    }

    /// `select(k)` edge cases: the last element, one past the end (panics),
    /// and an index drained to empty.
    #[test]
    fn select_last_element_is_in_bounds() {
        let idx = fresh(&[2, 4, 6], 8);
        assert_eq!(idx.select(idx.len() - 1), 6);
    }

    #[test]
    #[should_panic]
    fn select_at_len_panics() {
        let idx = fresh(&[2, 4, 6], 8);
        let _ = idx.select(idx.len());
    }

    #[test]
    #[should_panic]
    fn select_on_empty_index_panics() {
        let mut idx = fresh(&[0, 1], 2);
        idx.remove(0);
        idx.remove(1);
        assert!(idx.is_empty());
        let _ = idx.select(0);
    }

    /// `rank_of` edge cases: address beyond the indexed space, address
    /// inside the space but absent, and a fully drained index.
    #[test]
    fn rank_of_out_of_range_and_drained() {
        let mut idx = fresh(&[0, 1], 2);
        assert_eq!(idx.rank_of(99), None, "address outside the space is absent, not a panic");
        assert_eq!(idx.rank(99), 2);
        idx.remove(0);
        idx.remove(1);
        assert!(idx.is_empty());
        assert_eq!(idx.rank_of(0), None);
        assert_eq!(idx.rank_of(1), None);
        assert_eq!(idx.count_in(Region::EMPTY), 0);
        // A drained index accepts re-inserts.
        assert!(idx.insert(1));
        assert_eq!(idx.rank_of(1), Some(0));
    }

    /// Check every accessor of `idx` against the model set `truth` over a
    /// `size`-cell space.
    fn agrees(idx: &UnvisitedIndex, truth: &BTreeSet<usize>, size: usize) -> Result<(), String> {
        let fail = |what: String| Err(what);
        if idx.len() != truth.len() {
            return fail(format!("len {} != {}", idx.len(), truth.len()));
        }
        let mut rank = 0;
        for addr in 0..size + 2 {
            if idx.contains(addr) != truth.contains(&addr) {
                return fail(format!("contains({addr})"));
            }
            if idx.rank(addr) != rank {
                return fail(format!("rank({addr}) = {} != {rank}", idx.rank(addr)));
            }
            let rank_of = truth.contains(&addr).then_some(rank);
            if idx.rank_of(addr) != rank_of {
                return fail(format!("rank_of({addr}) = {:?} != {rank_of:?}", idx.rank_of(addr)));
            }
            rank += usize::from(truth.contains(&addr));
        }
        for (k, &addr) in truth.iter().enumerate() {
            if idx.select(k) != addr {
                return fail(format!("select({k}) = {} != {addr}", idx.select(k)));
            }
        }
        // Empty, whole, word-straddling and ragged regions.
        let mut regions = vec![(0, 0), (0, size), (size, 0)];
        for base in [0, 1, 31, 63, 64, 65, 127, 129] {
            for len in [0, 1, 2, 63, 64, 65, 130] {
                if base + len <= size {
                    regions.push((base, len));
                }
            }
        }
        for (base, len) in regions {
            let r = region(base, len);
            let want: Vec<usize> = truth.range(base..base + len).copied().collect();
            if idx.count_in(r) != want.len() {
                return fail(format!("count_in({base}, {len}) = {}", idx.count_in(r)));
            }
            if idx.iter_in(r).collect::<Vec<_>>() != want {
                return fail(format!("iter_in({base}, {len})"));
            }
        }
        if !idx.matches(size, |a| truth.contains(&a)) {
            return fail("matches".into());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The index against a `BTreeSet` model: a lane-mask rebuild at
        /// unaligned lane bases (as banked chunks produce), then
        /// interleaved inserts and removes, with every accessor compared
        /// after every step.
        #[test]
        fn index_matches_a_btreeset_model(
            size_pick in 0usize..12,
            odd_size in 0usize..300,
            lane_len in 1usize..=64,
            seeds in proptest::collection::vec(any::<u64>(), 0..8),
            ops in proptest::collection::vec((any::<bool>(), 0usize..300), 0..40),
        ) {
            // The word-boundary sizes, or (one case in four) any size.
            let size = [0, 1, 63, 64, 65, 127, 128, 129, 200].get(size_pick).copied().unwrap_or(odd_size);
            // Lanes of `lane_len` cells from address 0: bases are
            // multiples of `lane_len`, so most of them are unaligned.
            let mut truth = BTreeSet::new();
            let mut lanes = Vec::new();
            let mut base = 0;
            let mut k = 0;
            while base < size {
                let len = lane_len.min(size - base);
                let seed = seeds.get(k % seeds.len().max(1)).copied().unwrap_or(0);
                let mask = seed.rotate_left(k as u32) & (u64::MAX >> (64 - len));
                for j in 0..len {
                    if mask >> j & 1 == 1 {
                        truth.insert(base + j);
                    }
                }
                lanes.push((base, mask));
                base += len;
                k += 1;
            }
            // Lane order must not matter.
            lanes.reverse();
            let mut idx = UnvisitedIndex::new(0);
            idx.rebuild_from_lanes(size, lanes);
            agrees(&idx, &truth, size).map_err(TestCaseError::fail)?;
            let mut reference = UnvisitedIndex::new(size);
            reference.rebuild(size, truth.iter().copied());
            agrees(&reference, &truth, size).map_err(TestCaseError::fail)?;
            for (insert, addr) in ops {
                if size == 0 {
                    break;
                }
                let addr = addr % size;
                if insert {
                    prop_assert_eq!(idx.insert(addr), truth.insert(addr));
                } else {
                    prop_assert_eq!(idx.remove(addr), truth.remove(&addr));
                }
                agrees(&idx, &truth, size).map_err(TestCaseError::fail)?;
            }
        }
    }
}
