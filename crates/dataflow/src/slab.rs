//! A flat bitset arena: many same-capacity bit rows in one allocation.
//!
//! The GIVE-N-TAKE solver manipulates ~20 *families* of per-node bitsets
//! (the Figure-13 variables, twice for the two placement flavors). Storing
//! each set as its own `Vec<u64>` makes a 6400-node solve mostly malloc
//! traffic. A [`BitSlab`] instead holds every row as a strided word-slice
//! of one contiguous `Vec<u64>`, and exposes *fused* word-level kernels
//! for the composite equation forms the solver needs (`a ∪= b ∖ c`,
//! `a = (b ∪ c) ∖ d`, …) so no intermediate temporaries are ever
//! materialised.
//!
//! Rows are addressed by plain `usize` indices; how indices map to
//! `(family, node)` pairs is the caller's business. [`BitRef`] and
//! [`BitMut`] are borrowed views of single rows with a `BitSet`-like
//! read/write API.
//!
//! All kernels are word-wise: bit `i` of the output depends only on bit
//! `i` of the inputs.

use crate::bitset::BitSet;
use std::fmt;

const WORD_BITS: usize = 64;

/// A contiguous arena of `rows` bit rows, each holding `bits` bits.
///
/// # Examples
///
/// ```
/// use gnt_dataflow::BitSlab;
///
/// let mut slab = BitSlab::new(3, 100);
/// slab.row_mut(0).insert(7);
/// slab.row_mut(1).insert(99);
/// slab.copy_or(2, 0, 1); // row2 = row0 ∪ row1
/// assert!(slab.row(2).contains(7) && slab.row(2).contains(99));
/// ```
#[derive(Clone)]
pub struct BitSlab {
    words: Vec<u64>,
    stride: usize,
    rows: usize,
    bits: usize,
}

impl BitSlab {
    /// Creates a zeroed slab of `rows` rows with `bits` bits each.
    pub fn new(rows: usize, bits: usize) -> Self {
        let stride = bits.div_ceil(WORD_BITS);
        BitSlab {
            words: vec![0; rows * stride],
            stride,
            rows,
            bits,
        }
    }

    /// Resizes to `rows` × `bits` and zeroes everything, reusing the
    /// existing allocation when it is large enough. This is the warm-up
    /// path for scratch reuse: after the first solve of a given shape,
    /// repeated calls allocate nothing.
    pub fn reset(&mut self, rows: usize, bits: usize) {
        let stride = bits.div_ceil(WORD_BITS);
        let needed = rows * stride;
        self.words.clear();
        self.words.resize(needed, 0);
        self.stride = stride;
        self.rows = rows;
        self.bits = bits;
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bits per row.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Words per row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    #[inline]
    fn base(&self, r: usize) -> usize {
        debug_assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        r * self.stride
    }

    /// Mask of the in-range bits of the last word of a row (`!0` when the
    /// row ends on a word boundary).
    #[inline]
    fn last_word_mask(&self) -> u64 {
        let used = self.bits % WORD_BITS;
        if used == 0 {
            !0
        } else {
            (1u64 << used) - 1
        }
    }

    /// Borrows row `r` immutably.
    pub fn row(&self, r: usize) -> BitRef<'_> {
        let b = self.base(r);
        BitRef {
            words: &self.words[b..b + self.stride],
            bits: self.bits,
        }
    }

    /// Borrows row `r` mutably.
    pub fn row_mut(&mut self, r: usize) -> BitMut<'_> {
        let b = self.base(r);
        let s = self.stride;
        BitMut {
            words: &mut self.words[b..b + s],
            bits: self.bits,
        }
    }

    /// `dst ← ∅`.
    #[inline]
    pub fn clear(&mut self, dst: usize) {
        let d = self.base(dst);
        for w in 0..self.stride {
            self.words[d + w] = 0;
        }
    }

    /// `dst ← ⊤` (every bit `0..bits`).
    #[inline]
    pub fn fill(&mut self, dst: usize) {
        let d = self.base(dst);
        for w in 0..self.stride {
            self.words[d + w] = !0;
        }
        if self.stride > 0 {
            let m = self.last_word_mask();
            self.words[d + self.stride - 1] &= m;
        }
    }

    /// `dst ← src`.
    #[inline]
    pub fn copy(&mut self, dst: usize, src: usize) {
        let (d, s) = (self.base(dst), self.base(src));
        for w in 0..self.stride {
            self.words[d + w] = self.words[s + w];
        }
    }

    /// `dst ← dst ∪ a`.
    #[inline]
    pub fn or(&mut self, dst: usize, a: usize) {
        let (d, a) = (self.base(dst), self.base(a));
        for w in 0..self.stride {
            self.words[d + w] |= self.words[a + w];
        }
    }

    /// `dst ← dst ∩ a`.
    #[inline]
    pub fn and(&mut self, dst: usize, a: usize) {
        let (d, a) = (self.base(dst), self.base(a));
        for w in 0..self.stride {
            self.words[d + w] &= self.words[a + w];
        }
    }

    /// `dst ← dst ∖ a`.
    #[inline]
    pub fn andnot(&mut self, dst: usize, a: usize) {
        let (d, a) = (self.base(dst), self.base(a));
        for w in 0..self.stride {
            self.words[d + w] &= !self.words[a + w];
        }
    }

    /// Fused `dst ← dst ∪ (a ∩ b)`.
    #[inline]
    pub fn or_and(&mut self, dst: usize, a: usize, b: usize) {
        let (d, a, b) = (self.base(dst), self.base(a), self.base(b));
        for w in 0..self.stride {
            let v = self.words[a + w] & self.words[b + w];
            self.words[d + w] |= v;
        }
    }

    /// Fused `dst ← dst ∪ (a ∖ b)`.
    #[inline]
    pub fn or_andnot(&mut self, dst: usize, a: usize, b: usize) {
        let (d, a, b) = (self.base(dst), self.base(a), self.base(b));
        for w in 0..self.stride {
            let v = self.words[a + w] & !self.words[b + w];
            self.words[d + w] |= v;
        }
    }

    /// Fused `dst ← a ∪ b`.
    #[inline]
    pub fn copy_or(&mut self, dst: usize, a: usize, b: usize) {
        let (d, a, b) = (self.base(dst), self.base(a), self.base(b));
        for w in 0..self.stride {
            self.words[d + w] = self.words[a + w] | self.words[b + w];
        }
    }

    /// Fused `dst ← a ∩ b`.
    #[inline]
    pub fn copy_and(&mut self, dst: usize, a: usize, b: usize) {
        let (d, a, b) = (self.base(dst), self.base(a), self.base(b));
        for w in 0..self.stride {
            self.words[d + w] = self.words[a + w] & self.words[b + w];
        }
    }

    /// Fused `dst ← a ∖ b`.
    #[inline]
    pub fn copy_andnot(&mut self, dst: usize, a: usize, b: usize) {
        let (d, a, b) = (self.base(dst), self.base(a), self.base(b));
        for w in 0..self.stride {
            self.words[d + w] = self.words[a + w] & !self.words[b + w];
        }
    }

    /// Fused `dst ← (a ∪ b) ∖ c`.
    #[inline]
    pub fn copy_or_andnot(&mut self, dst: usize, a: usize, b: usize, c: usize) {
        let (d, a, b, c) = (self.base(dst), self.base(a), self.base(b), self.base(c));
        for w in 0..self.stride {
            self.words[d + w] = (self.words[a + w] | self.words[b + w]) & !self.words[c + w];
        }
    }

    /// `dst ← words` (an external word window, e.g. a [`BitSet`] slice).
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != stride`.
    #[inline]
    pub fn load(&mut self, dst: usize, words: &[u64]) {
        assert_eq!(words.len(), self.stride, "window width mismatch");
        let d = self.base(dst);
        self.words[d..d + self.stride].copy_from_slice(words);
    }

    // ---- Change-detecting variants -------------------------------------
    //
    // Each kernel below computes exactly the same result as its plain
    // counterpart and additionally reports whether any word of `dst`
    // actually flipped. This is what lets the incremental tape executor
    // (`gnt-core`'s `solve_delta`) cut dirty-row propagation short the
    // moment a recomputed row reproduces its previous value.

    /// [`BitSlab::clear`], returning whether `dst` changed.
    #[inline]
    pub fn clear_changed(&mut self, dst: usize) -> bool {
        let d = self.base(dst);
        let mut diff = 0u64;
        for w in 0..self.stride {
            diff |= self.words[d + w];
            self.words[d + w] = 0;
        }
        diff != 0
    }

    /// [`BitSlab::fill`], returning whether `dst` changed.
    #[inline]
    pub fn fill_changed(&mut self, dst: usize) -> bool {
        let d = self.base(dst);
        let mut diff = 0u64;
        for w in 0..self.stride {
            let new = if w + 1 == self.stride {
                self.last_word_mask()
            } else {
                !0
            };
            diff |= self.words[d + w] ^ new;
            self.words[d + w] = new;
        }
        diff != 0
    }

    /// [`BitSlab::copy`], returning whether `dst` changed.
    #[inline]
    pub fn copy_changed(&mut self, dst: usize, src: usize) -> bool {
        let (d, s) = (self.base(dst), self.base(src));
        let mut diff = 0u64;
        for w in 0..self.stride {
            let new = self.words[s + w];
            diff |= self.words[d + w] ^ new;
            self.words[d + w] = new;
        }
        diff != 0
    }

    /// [`BitSlab::or`], returning whether `dst` changed.
    #[inline]
    pub fn or_changed(&mut self, dst: usize, a: usize) -> bool {
        let (d, a) = (self.base(dst), self.base(a));
        let mut diff = 0u64;
        for w in 0..self.stride {
            let new = self.words[d + w] | self.words[a + w];
            diff |= self.words[d + w] ^ new;
            self.words[d + w] = new;
        }
        diff != 0
    }

    /// [`BitSlab::and`], returning whether `dst` changed.
    #[inline]
    pub fn and_changed(&mut self, dst: usize, a: usize) -> bool {
        let (d, a) = (self.base(dst), self.base(a));
        let mut diff = 0u64;
        for w in 0..self.stride {
            let new = self.words[d + w] & self.words[a + w];
            diff |= self.words[d + w] ^ new;
            self.words[d + w] = new;
        }
        diff != 0
    }

    /// [`BitSlab::andnot`], returning whether `dst` changed.
    #[inline]
    pub fn andnot_changed(&mut self, dst: usize, a: usize) -> bool {
        let (d, a) = (self.base(dst), self.base(a));
        let mut diff = 0u64;
        for w in 0..self.stride {
            let new = self.words[d + w] & !self.words[a + w];
            diff |= self.words[d + w] ^ new;
            self.words[d + w] = new;
        }
        diff != 0
    }

    /// [`BitSlab::or_andnot`], returning whether `dst` changed.
    #[inline]
    pub fn or_andnot_changed(&mut self, dst: usize, a: usize, b: usize) -> bool {
        let (d, a, b) = (self.base(dst), self.base(a), self.base(b));
        let mut diff = 0u64;
        for w in 0..self.stride {
            let new = self.words[d + w] | (self.words[a + w] & !self.words[b + w]);
            diff |= self.words[d + w] ^ new;
            self.words[d + w] = new;
        }
        diff != 0
    }

    /// [`BitSlab::copy_or`], returning whether `dst` changed.
    #[inline]
    pub fn copy_or_changed(&mut self, dst: usize, a: usize, b: usize) -> bool {
        let (d, a, b) = (self.base(dst), self.base(a), self.base(b));
        let mut diff = 0u64;
        for w in 0..self.stride {
            let new = self.words[a + w] | self.words[b + w];
            diff |= self.words[d + w] ^ new;
            self.words[d + w] = new;
        }
        diff != 0
    }

    /// [`BitSlab::copy_and`], returning whether `dst` changed.
    #[inline]
    pub fn copy_and_changed(&mut self, dst: usize, a: usize, b: usize) -> bool {
        let (d, a, b) = (self.base(dst), self.base(a), self.base(b));
        let mut diff = 0u64;
        for w in 0..self.stride {
            let new = self.words[a + w] & self.words[b + w];
            diff |= self.words[d + w] ^ new;
            self.words[d + w] = new;
        }
        diff != 0
    }

    /// [`BitSlab::copy_andnot`], returning whether `dst` changed.
    #[inline]
    pub fn copy_andnot_changed(&mut self, dst: usize, a: usize, b: usize) -> bool {
        let (d, a, b) = (self.base(dst), self.base(a), self.base(b));
        let mut diff = 0u64;
        for w in 0..self.stride {
            let new = self.words[a + w] & !self.words[b + w];
            diff |= self.words[d + w] ^ new;
            self.words[d + w] = new;
        }
        diff != 0
    }

    /// [`BitSlab::copy_or_andnot`], returning whether `dst` changed.
    #[inline]
    pub fn copy_or_andnot_changed(&mut self, dst: usize, a: usize, b: usize, c: usize) -> bool {
        let (d, a, b, c) = (self.base(dst), self.base(a), self.base(b), self.base(c));
        let mut diff = 0u64;
        for w in 0..self.stride {
            let new = (self.words[a + w] | self.words[b + w]) & !self.words[c + w];
            diff |= self.words[d + w] ^ new;
            self.words[d + w] = new;
        }
        diff != 0
    }

    /// [`BitSlab::load`], returning whether `dst` changed.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != stride`.
    #[inline]
    pub fn load_changed(&mut self, dst: usize, words: &[u64]) -> bool {
        assert_eq!(words.len(), self.stride, "window width mismatch");
        let d = self.base(dst);
        let mut diff = 0u64;
        for (w, &new) in words.iter().enumerate() {
            diff |= self.words[d + w] ^ new;
            self.words[d + w] = new;
        }
        diff != 0
    }

    /// `dst ← dst ∪ words` (an external word window).
    #[inline]
    pub fn or_slice(&mut self, dst: usize, words: &[u64]) {
        assert_eq!(words.len(), self.stride, "window width mismatch");
        let d = self.base(dst);
        for (w, v) in words.iter().enumerate() {
            self.words[d + w] |= v;
        }
    }

    /// Number of set bits in row `r`.
    pub fn count(&self, r: usize) -> usize {
        self.row(r).len()
    }

    /// `|a ∖ b|` without materialising the difference.
    pub fn diff_count(&self, a: usize, b: usize) -> usize {
        let (a, b) = (self.base(a), self.base(b));
        let mut n = 0usize;
        for w in 0..self.stride {
            n += (self.words[a + w] & !self.words[b + w]).count_ones() as usize;
        }
        n
    }
}

impl fmt::Debug for BitSlab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitSlab({} rows × {} bits)", self.rows, self.bits)
    }
}

/// An immutable view of one [`BitSlab`] row (or any trimmed word slice).
#[derive(Clone, Copy)]
pub struct BitRef<'a> {
    words: &'a [u64],
    bits: usize,
}

impl<'a> BitRef<'a> {
    /// Wraps an external word slice as a row view. High bits beyond
    /// `bits` must be zero.
    pub fn from_words(words: &'a [u64], bits: usize) -> Self {
        debug_assert_eq!(words.len(), bits.div_ceil(WORD_BITS));
        BitRef { words, bits }
    }

    /// The raw words backing the view.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Bits in this row.
    pub fn capacity(&self) -> usize {
        self.bits
    }

    /// Tests membership.
    pub fn contains(&self, elem: usize) -> bool {
        if elem >= self.bits {
            return false;
        }
        self.words[elem / WORD_BITS] & (1 << (elem % WORD_BITS)) != 0
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no bits are set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the set bits in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + 'a {
        let words = self.words;
        words.iter().enumerate().flat_map(|(i, &w0)| {
            let mut w = w0;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(i * WORD_BITS + bit)
            })
        })
    }

    /// Copies the row out into an owned [`BitSet`] (allocation-free for
    /// rows of at most 64 bits).
    pub fn to_bitset(&self) -> BitSet {
        BitSet::from_word_slice(self.bits, self.words)
    }
}

impl fmt::Debug for BitRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A mutable view of one [`BitSlab`] row.
pub struct BitMut<'a> {
    words: &'a mut [u64],
    bits: usize,
}

impl BitMut<'_> {
    /// Bits in this row.
    pub fn capacity(&self) -> usize {
        self.bits
    }

    /// Inserts `elem`, returning `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `elem >= capacity`.
    pub fn insert(&mut self, elem: usize) -> bool {
        assert!(elem < self.bits, "bit {elem} out of range");
        let (w, b) = (elem / WORD_BITS, elem % WORD_BITS);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `elem`, returning `true` if it was present.
    pub fn remove(&mut self, elem: usize) -> bool {
        if elem >= self.bits {
            return false;
        }
        let (w, b) = (elem / WORD_BITS, elem % WORD_BITS);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        for w in self.words.iter_mut() {
            *w = 0;
        }
    }

    /// Overwrites the row with the words of `set`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn copy_from_bitset(&mut self, set: &BitSet) {
        assert_eq!(self.bits, set.capacity(), "capacity mismatch");
        self.words.copy_from_slice(set.words());
    }

    /// Reborrows as an immutable view.
    pub fn as_ref(&self) -> BitRef<'_> {
        BitRef {
            words: self.words,
            bits: self.bits,
        }
    }
}

impl fmt::Debug for BitMut<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.as_ref().iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: the same ops via plain BitSets.
    fn bs(cap: usize, elems: &[usize]) -> BitSet {
        let mut s = BitSet::new(cap);
        s.extend(elems.iter().copied());
        s
    }

    #[test]
    fn rows_are_independent() {
        let mut slab = BitSlab::new(4, 130);
        slab.row_mut(1).insert(0);
        slab.row_mut(1).insert(129);
        assert!(slab.row(0).is_empty());
        assert!(slab.row(2).is_empty());
        assert_eq!(slab.row(1).iter().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn fill_trims_to_bits_at_word_boundaries() {
        for cap in [1, 63, 64, 65, 127, 128, 129] {
            let mut slab = BitSlab::new(2, cap);
            slab.fill(0);
            assert_eq!(slab.count(0), cap, "cap {cap}");
            assert_eq!(slab.row(0).to_bitset(), BitSet::full(cap), "cap {cap}");
        }
    }

    #[test]
    fn fused_kernels_match_bitset_reference() {
        for cap in [63, 64, 65, 128] {
            let a = bs(cap, &[0, 1, 5, cap - 1]);
            let b = bs(cap, &[1, 2, cap - 1]);
            let c = bs(cap, &[0, 2, 3]);
            let mut slab = BitSlab::new(5, cap);
            slab.load(0, a.words());
            slab.load(1, b.words());
            slab.load(2, c.words());

            slab.copy_or(3, 0, 1);
            assert_eq!(slab.row(3).to_bitset(), a.union(&b), "copy_or cap {cap}");

            slab.copy_and(3, 0, 1);
            assert_eq!(
                slab.row(3).to_bitset(),
                a.intersection(&b),
                "copy_and cap {cap}"
            );

            slab.copy_andnot(3, 0, 1);
            assert_eq!(
                slab.row(3).to_bitset(),
                a.difference(&b),
                "copy_andnot cap {cap}"
            );

            slab.copy_or_andnot(3, 0, 1, 2);
            assert_eq!(
                slab.row(3).to_bitset(),
                a.union(&b).difference(&c),
                "copy_or_andnot cap {cap}"
            );

            slab.copy(3, 2);
            slab.or_andnot(3, 0, 1);
            assert_eq!(
                slab.row(3).to_bitset(),
                c.union(&a.difference(&b)),
                "or_andnot cap {cap}"
            );

            slab.copy(3, 2);
            slab.or_and(3, 0, 1);
            assert_eq!(
                slab.row(3).to_bitset(),
                c.union(&a.intersection(&b)),
                "or_and cap {cap}"
            );

            slab.copy(3, 0);
            slab.and(3, 1);
            assert_eq!(slab.row(3).to_bitset(), a.intersection(&b));

            slab.copy(3, 0);
            slab.andnot(3, 1);
            assert_eq!(slab.row(3).to_bitset(), a.difference(&b));

            slab.clear(3);
            assert!(slab.row(3).is_empty());

            assert_eq!(slab.diff_count(0, 1), a.difference(&b).len());
        }
    }

    #[test]
    fn changed_kernels_match_plain_kernels_and_report_flips() {
        // 63/64/65/128: one-under, exact, one-over, and two-word rows.
        for cap in [63usize, 64, 65, 128] {
            let a = bs(cap, &[0, 1, 5, cap - 1]);
            let b = bs(cap, &[1, 2, cap - 1]);
            let c = bs(cap, &[0, 2, 3]);
            let mut slab = BitSlab::new(6, cap);
            slab.load(0, a.words());
            slab.load(1, b.words());
            slab.load(2, c.words());

            // Full-overwrite kernels: first application from a zero row
            // changes, the immediate re-application does not.
            assert!(slab.copy_changed(3, 0), "copy cap {cap}");
            assert!(!slab.copy_changed(3, 0), "copy stable cap {cap}");
            assert_eq!(slab.row(3).to_bitset(), a);

            assert!(slab.copy_or_changed(3, 0, 1), "copy_or cap {cap}");
            assert!(!slab.copy_or_changed(3, 0, 1), "copy_or stable cap {cap}");
            assert_eq!(slab.row(3).to_bitset(), a.union(&b));

            assert!(slab.copy_and_changed(3, 0, 1), "copy_and cap {cap}");
            assert!(!slab.copy_and_changed(3, 0, 1));
            assert_eq!(slab.row(3).to_bitset(), a.intersection(&b));

            assert!(slab.copy_andnot_changed(3, 0, 1), "copy_andnot cap {cap}");
            assert!(!slab.copy_andnot_changed(3, 0, 1));
            assert_eq!(slab.row(3).to_bitset(), a.difference(&b));

            assert!(slab.copy_or_andnot_changed(3, 0, 1, 2));
            assert!(!slab.copy_or_andnot_changed(3, 0, 1, 2));
            assert_eq!(slab.row(3).to_bitset(), a.union(&b).difference(&c));

            // RMW kernels: change iff the result differs from the prior
            // dst value.
            slab.copy(3, 2);
            assert!(slab.or_changed(3, 0), "or cap {cap}");
            assert!(!slab.or_changed(3, 0), "or idempotent cap {cap}");
            assert_eq!(slab.row(3).to_bitset(), c.union(&a));

            slab.copy(3, 0);
            assert!(slab.and_changed(3, 1), "and cap {cap}");
            assert!(!slab.and_changed(3, 1));
            assert_eq!(slab.row(3).to_bitset(), a.intersection(&b));

            slab.copy(3, 0);
            assert!(slab.andnot_changed(3, 1), "andnot cap {cap}");
            assert!(!slab.andnot_changed(3, 1));
            assert_eq!(slab.row(3).to_bitset(), a.difference(&b));

            slab.copy(3, 2);
            assert!(slab.or_andnot_changed(3, 0, 1), "or_andnot cap {cap}");
            assert!(!slab.or_andnot_changed(3, 0, 1));
            assert_eq!(slab.row(3).to_bitset(), c.union(&a.difference(&b)));

            // Fill / clear / load.
            assert!(slab.fill_changed(4), "fill cap {cap}");
            assert!(!slab.fill_changed(4), "fill stable cap {cap}");
            assert_eq!(slab.count(4), cap, "fill trims at cap {cap}");
            assert!(slab.clear_changed(4));
            assert!(!slab.clear_changed(4));
            assert!(slab.load_changed(4, a.words()));
            assert!(!slab.load_changed(4, a.words()));
            assert_eq!(slab.row(4).to_bitset(), a);
        }
    }

    #[test]
    fn changed_kernels_detect_top_bit_flips() {
        // The change must be seen even when the only flipped bit is the
        // highest in-range bit (the partial-last-word boundary).
        for cap in [63usize, 64, 65, 128] {
            let mut slab = BitSlab::new(2, cap);
            let top = bs(cap, &[cap - 1]);
            slab.load(1, top.words());
            assert!(slab.or_changed(0, 1), "top-bit or cap {cap}");
            assert!(slab.row(0).contains(cap - 1));
            assert!(slab.andnot_changed(0, 1), "top-bit andnot cap {cap}");
            assert!(slab.row(0).is_empty());
        }
    }

    #[test]
    fn reset_reuses_and_zeroes() {
        let mut slab = BitSlab::new(2, 64);
        slab.fill(0);
        slab.fill(1);
        slab.reset(3, 40);
        assert_eq!(slab.rows(), 3);
        assert_eq!(slab.bits(), 40);
        for r in 0..3 {
            assert!(slab.row(r).is_empty(), "row {r} not zeroed");
        }
    }

    #[test]
    fn or_slice_and_load_window() {
        let a = bs(200, &[0, 64, 150, 199]);
        // Window of words [1, 3): bits 64..192 of the original.
        let mut slab = BitSlab::new(1, 128);
        slab.load(0, &a.words()[1..3]);
        assert!(slab.row(0).contains(0)); // original bit 64
        assert!(slab.row(0).contains(86)); // original bit 150
        assert!(!slab.row(0).contains(127));
        let b = bs(200, &[70]);
        slab.or_slice(0, &b.words()[1..3]);
        assert!(slab.row(0).contains(6)); // original bit 70
    }

    #[test]
    fn bitmut_insert_remove() {
        let mut slab = BitSlab::new(1, 65);
        {
            let mut r = slab.row_mut(0);
            assert!(r.insert(64));
            assert!(!r.insert(64));
            assert!(r.remove(64));
            assert!(!r.remove(64));
        }
        assert!(slab.row(0).is_empty());
    }
}
