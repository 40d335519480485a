//! A dense, fixed-capacity bit set.
//!
//! GIVE-N-TAKE manipulates sets drawn from a finite dataflow universe
//! (array sections, expressions, …). Every node of the interval flow graph
//! carries a dozen such sets, so the representation must be compact and the
//! bulk operations (union, intersection, difference) must be word-parallel.
//! [`BitSet`] is the classic dense bit vector used by most dataflow
//! engines, with one twist: universes of at most 64 items — the common
//! case for placement problems — store their single word **inline**, so
//! creating, cloning, and dropping such sets never touches the allocator.
//! A solver exporting tens of thousands of per-node sets is then bounded
//! by memory bandwidth, not malloc.

use std::fmt;

const WORD_BITS: usize = 64;

/// Backing storage: one inline word for capacities ≤ 64, a boxed word
/// slice beyond that (16 bytes, so a `BitSet` takes 24; a `Vec` would
/// make it 32). The variant is a function of `capacity` alone, so
/// derived equality and hashing never compare across representations.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Inline(u64),
    Heap(Box<[u64]>),
}

/// A set of small integers (`0..capacity`), stored as a dense bit vector.
///
/// All sets participating in one dataflow problem must be created with the
/// same capacity; the bulk operations debug-assert this.
///
/// # Examples
///
/// ```
/// use gnt_dataflow::BitSet;
///
/// let mut a = BitSet::new(100);
/// a.insert(3);
/// a.insert(97);
/// let mut b = BitSet::new(100);
/// b.insert(97);
/// a.intersect_with(&b);
/// assert_eq!(a.iter().collect::<Vec<_>>(), vec![97]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    repr: Repr,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold elements `0..capacity`.
    /// Allocation-free for `capacity ≤ 64`.
    pub fn new(capacity: usize) -> Self {
        let repr = if capacity <= WORD_BITS {
            Repr::Inline(0)
        } else {
            Repr::Heap(vec![0; capacity.div_ceil(WORD_BITS)].into_boxed_slice())
        };
        BitSet { repr, capacity }
    }

    /// Creates a set containing every element of `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = BitSet::new(capacity);
        for w in s.words_mut() {
            *w = !0;
        }
        s.trim();
        debug_assert!(s.is_trimmed(), "full({capacity}) left untrimmed high bits");
        s
    }

    /// Builds a set from backing words (e.g. a [`crate::BitSlab`] row),
    /// copying them; allocates nothing at all for `capacity ≤ 64`. Bits
    /// beyond `capacity` in the last word are cleared. This is the hot
    /// path for exporting solver arenas.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` does not match `capacity`.
    #[inline]
    pub fn from_word_slice(capacity: usize, words: &[u64]) -> Self {
        assert_eq!(
            words.len(),
            capacity.div_ceil(WORD_BITS),
            "word count does not match capacity {capacity}"
        );
        let repr = if capacity <= WORD_BITS {
            Repr::Inline(words.first().copied().unwrap_or(0))
        } else {
            Repr::Heap(words.into())
        };
        let mut s = BitSet { repr, capacity };
        s.trim();
        s
    }

    /// Builds one set per row of `rows` rows stored back to back in
    /// `words`, `capacity.div_ceil(64)` words a row, in one pass: the bulk
    /// form of [`BitSet::from_word_slice`], and what
    /// [`crate::BitSlab::to_bitsets`] exports a family of solver rows
    /// with. For `capacity ≤ 64` each set is one inline word, so nothing
    /// is allocated beyond the returned `Vec`. Bits beyond `capacity` in
    /// a row's last word are cleared.
    pub(crate) fn from_rows(capacity: usize, rows: usize, words: &[u64]) -> Vec<BitSet> {
        let stride = capacity.div_ceil(WORD_BITS);
        debug_assert_eq!(words.len(), rows * stride, "{rows} rows of {capacity} bits");
        let used = capacity % WORD_BITS;
        let mask = if used == 0 { !0 } else { (1u64 << used) - 1 };
        match stride {
            0 => vec![BitSet::new(0); rows],
            1 => words
                .iter()
                .map(|&w| BitSet {
                    repr: Repr::Inline(w & mask),
                    capacity,
                })
                .collect(),
            _ => words
                .chunks_exact(stride)
                .map(|row| {
                    let mut heap: Box<[u64]> = row.into();
                    heap[stride - 1] &= mask;
                    BitSet {
                        repr: Repr::Heap(heap),
                        capacity,
                    }
                })
                .collect(),
        }
    }

    /// The raw backing words, least-significant bit of word 0 = element 0.
    /// Bits beyond `capacity` in the last word are always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(_) if self.capacity == 0 => &[],
            Repr::Inline(w) => std::slice::from_ref(w),
            Repr::Heap(v) => v,
        }
    }

    /// Mutable access to the backing words, for bulk writes (e.g.
    /// exporting solver arenas). The caller must
    /// keep bits beyond `capacity` zero; the bulk set operations
    /// debug-assert this invariant.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline(_) if self.capacity == 0 => &mut [],
            Repr::Inline(w) => std::slice::from_mut(w),
            Repr::Heap(v) => v,
        }
    }

    /// The number of elements this set can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `true` if every bit beyond `capacity` in the last word is zero —
    /// the invariant all bulk operations rely on.
    fn is_trimmed(&self) -> bool {
        let used = self.capacity % WORD_BITS;
        used == 0
            || self
                .words()
                .last()
                .is_none_or(|last| last & !((1u64 << used) - 1) == 0)
    }

    /// Clears excess bits beyond `capacity` in the last word.
    fn trim(&mut self) {
        let used = self.capacity % WORD_BITS;
        if used != 0 {
            if let Some(last) = self.words_mut().last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
    }

    /// Inserts `elem`, returning `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `elem >= capacity`.
    #[inline]
    pub fn insert(&mut self, elem: usize) -> bool {
        assert!(elem < self.capacity, "bitset element {elem} out of range");
        let (w, b) = (elem / WORD_BITS, elem % WORD_BITS);
        let word = &mut self.words_mut()[w];
        let had = *word & (1 << b) != 0;
        *word |= 1 << b;
        !had
    }

    /// Removes `elem`, returning `true` if it was present.
    pub fn remove(&mut self, elem: usize) -> bool {
        if elem >= self.capacity {
            return false;
        }
        let (w, b) = (elem / WORD_BITS, elem % WORD_BITS);
        let word = &mut self.words_mut()[w];
        let had = *word & (1 << b) != 0;
        *word &= !(1 << b);
        had
    }

    /// Tests membership.
    #[inline]
    pub fn contains(&self, elem: usize) -> bool {
        if elem >= self.capacity {
            return false;
        }
        self.words()[elem / WORD_BITS] & (1 << (elem % WORD_BITS)) != 0
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        for w in self.words_mut() {
            *w = 0;
        }
    }

    /// Clears the set and re-shapes it for a (possibly different)
    /// `capacity`, reusing storage wherever possible: a universe that now
    /// fits one word is demoted from `Heap` back to `Inline` (dropping the
    /// allocation), and a still-heap set of the same width is zeroed in
    /// place. This is the reuse fast path for re-solve loops and batched
    /// output buffers, which re-shape the same sets round after round.
    pub fn reset(&mut self, capacity: usize) {
        self.capacity = capacity;
        let words = capacity.div_ceil(WORD_BITS);
        if capacity <= WORD_BITS {
            self.repr = Repr::Inline(0);
        } else {
            match &mut self.repr {
                Repr::Heap(v) if v.len() == words => v.fill(0),
                other => *other = Repr::Heap(vec![0; words].into_boxed_slice()),
            }
        }
    }

    /// `true` if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// The number of elements in the set.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self ← self ∪ other`; returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        debug_assert!(
            self.is_trimmed() && other.is_trimmed(),
            "union_with operand has untrimmed high bits"
        );
        let mut changed = false;
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            let new = *a | b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self ← self ∩ other`; returns `true` if `self` changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        let mut changed = false;
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            let new = *a & b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self ← self − other`; returns `true` if `self` changed.
    pub fn subtract_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        debug_assert!(
            self.is_trimmed() && other.is_trimmed(),
            "subtract_with operand has untrimmed high bits"
        );
        let mut changed = false;
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            let new = *a & !b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Replaces the contents of `self` with those of `other`.
    pub fn copy_from(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words_mut().copy_from_slice(other.words());
    }

    /// Returns `self ∪ other` as a fresh set.
    pub fn union(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns `self ∩ other` as a fresh set.
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Returns `self − other` as a fresh set.
    pub fn difference(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.subtract_with(other);
        s
    }

    /// `true` if `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & !b == 0)
    }

    /// `true` if `self ∩ other = ∅`.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & b == 0)
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        let words = self.words();
        Iter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the elements of a [`BitSet`], produced by [`BitSet::iter`].
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for e in iter {
            self.insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_set_has_no_elements() {
        let s = BitSet::new(10);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn insert_and_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn remove_works() {
        let mut s = BitSet::new(70);
        s.insert(65);
        assert!(s.remove(65));
        assert!(!s.remove(65));
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = BitSet::new(4);
        assert!(!s.contains(1000));
    }

    #[test]
    fn full_set_contains_everything() {
        let s = BitSet::full(67);
        assert_eq!(s.len(), 67);
        assert!(s.contains(0) && s.contains(66));
        assert!(!s.contains(67));
    }

    /// The word-boundary capacities the slab kernels rely on: the last
    /// word is exactly full (64, 128), one short (63), or one over (65).
    #[test]
    fn full_is_trimmed_at_word_boundaries() {
        for cap in [63, 64, 65, 128] {
            let s = BitSet::full(cap);
            assert_eq!(s.len(), cap, "cap {cap}");
            assert!(s.is_trimmed(), "cap {cap}");
            assert!(s.contains(cap - 1) && !s.contains(cap));
            // De Morgan at the boundary: U − U = ∅, U ∪ U = U.
            assert!(s.difference(&s).is_empty(), "cap {cap}");
            assert_eq!(s.union(&s), s, "cap {cap}");
        }
    }

    #[test]
    fn bulk_ops_stay_trimmed_at_word_boundaries() {
        for cap in [63, 64, 65, 128] {
            let mut a = BitSet::full(cap);
            let b = BitSet::full(cap);
            a.union_with(&b);
            assert!(a.is_trimmed(), "union cap {cap}");
            assert_eq!(a.len(), cap);
            a.subtract_with(&b);
            assert!(a.is_trimmed() && a.is_empty(), "subtract cap {cap}");
            let mut c = BitSet::full(cap);
            c.intersect_with(&b);
            assert!(c.is_trimmed(), "intersect cap {cap}");
            assert_eq!(c.len(), cap);
            // Element ops at the exact boundary indices.
            let mut d = BitSet::new(cap);
            assert!(d.insert(cap - 1));
            assert!(d.is_trimmed());
            assert!(d.remove(cap - 1));
            assert!(!d.contains(cap));
        }
    }

    #[test]
    fn reset_reshapes_across_the_inline_boundary() {
        // 65 → 64 → 63: heap-backed exactly once, and the demotion back
        // under one word must drop the heap representation entirely.
        let mut s = BitSet::new(65);
        s.insert(64);
        assert!(matches!(s.repr, Repr::Heap(_)));
        s.reset(64);
        assert!(matches!(s.repr, Repr::Inline(_)), "64 bits demotes inline");
        assert_eq!(s.capacity(), 64);
        assert!(s.is_empty() && s.is_trimmed());
        assert!(s.insert(63));
        s.reset(63);
        assert!(matches!(s.repr, Repr::Inline(_)));
        assert!(s.is_empty(), "reset clears stale bits");
        assert!(!s.contains(63) && s.insert(62));
        // 63 → 65: promotion allocates the right width and starts empty.
        s.reset(65);
        assert!(matches!(s.repr, Repr::Heap(_)));
        assert_eq!(s.words().len(), 2);
        assert!(s.is_empty() && s.insert(64));
        // Heap → heap resize re-allocates to the new width, all clear.
        s.reset(130);
        assert!(s.is_empty());
        assert_eq!(s.words().len(), 3);
        assert_eq!(s, BitSet::new(130));
    }

    #[test]
    fn from_words_roundtrips_and_trims() {
        let a = BitSet::full(65);
        let b = BitSet::from_word_slice(65, a.words());
        assert_eq!(a, b);
        // Untrimmed input is repaired rather than trusted.
        let c = BitSet::from_word_slice(65, &[!0, !0]);
        assert_eq!(c.len(), 65);
        assert!(c.is_trimmed());
    }

    #[test]
    #[should_panic(expected = "word count")]
    fn from_words_rejects_wrong_length() {
        let _ = BitSet::from_word_slice(65, &[0]);
    }

    #[test]
    fn union_intersection_difference() {
        let mut a = BitSet::new(8);
        a.extend([1, 2, 3]);
        let mut b = BitSet::new(8);
        b.extend([3, 4]);
        assert_eq!(a.union(&b).iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![3]);
        assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn union_with_reports_change() {
        let mut a = BitSet::new(8);
        a.insert(1);
        let mut b = BitSet::new(8);
        b.insert(1);
        assert!(!a.union_with(&b));
        b.insert(2);
        assert!(a.union_with(&b));
    }

    #[test]
    fn subset_and_disjoint() {
        let mut a = BitSet::new(16);
        a.extend([1, 5]);
        let mut b = BitSet::new(16);
        b.extend([1, 5, 9]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        let mut c = BitSet::new(16);
        c.insert(2);
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn display_formats_elements() {
        let mut s = BitSet::new(8);
        s.extend([2, 5]);
        assert_eq!(s.to_string(), "{2, 5}");
        assert_eq!(BitSet::new(8).to_string(), "{}");
    }

    #[test]
    fn debug_is_never_empty() {
        assert_eq!(format!("{:?}", BitSet::new(3)), "{}");
    }

    fn arb_set(cap: usize) -> impl Strategy<Value = BitSet> {
        prop::collection::vec(0..cap, 0..cap).prop_map(move |v| {
            let mut s = BitSet::new(cap);
            s.extend(v);
            s
        })
    }

    proptest! {
        #[test]
        fn prop_union_is_commutative(a in arb_set(100), b in arb_set(100)) {
            prop_assert_eq!(a.union(&b), b.union(&a));
        }

        #[test]
        fn prop_intersection_distributes_over_union(
            a in arb_set(100), b in arb_set(100), c in arb_set(100)
        ) {
            prop_assert_eq!(
                a.intersection(&b.union(&c)),
                a.intersection(&b).union(&a.intersection(&c))
            );
        }

        #[test]
        fn prop_difference_then_union_restores_superset(a in arb_set(100), b in arb_set(100)) {
            // (a − b) ∪ b ⊇ a
            prop_assert!(a.is_subset(&a.difference(&b).union(&b)));
        }

        #[test]
        fn prop_len_matches_iter_count(a in arb_set(200)) {
            prop_assert_eq!(a.len(), a.iter().count());
        }

        #[test]
        fn prop_demorgan(a in arb_set(90), b in arb_set(90)) {
            let u = BitSet::full(90);
            // U − (a ∪ b) = (U − a) ∩ (U − b)
            prop_assert_eq!(
                u.difference(&a.union(&b)),
                u.difference(&a).intersection(&u.difference(&b))
            );
        }
    }
}
