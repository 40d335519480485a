//! Regular section descriptors and the reference normal form.
//!
//! The communication problem's dataflow universe consists of *array
//! portions*: contiguous sections with symbolic bounds (`x(6:N+5)`),
//! gathers through an index array (`x(a(1:N))`), or — as a conservative
//! fallback — a whole array. [`DataRef`] is the canonical (value-numbered)
//! form: two references that denote the same portion normalize to equal
//! values, which is how the paper recognizes `x(a(k))` and `x(a(l))` as
//! identical (§2, Figure 2).

use crate::affine::Affine;
use gnt_ir::Symbol;
use std::fmt;

/// A symbolic index range `lo:hi` (inclusive, Fortran style).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Range {
    /// Lower bound.
    pub lo: Affine,
    /// Upper bound.
    pub hi: Affine,
}

impl Range {
    /// The single-point range `at:at`.
    pub fn point(at: Affine) -> Range {
        Range {
            lo: at.clone(),
            hi: at,
        }
    }

    /// `Some(true)` if the ranges provably do not intersect, `Some(false)`
    /// if they provably do, `None` if unknown.
    pub fn disjoint(&self, other: &Range) -> Option<bool> {
        // Disjoint if hi < other.lo or other.hi < lo, for all assignments.
        let before = self.hi.le_plus(&other.lo, -1);
        let after = other.hi.le_plus(&self.lo, -1);
        match (before, after) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => {
                // Both orders overlap-or-equal: they provably intersect if
                // additionally each lo ≤ the other's hi.
                match (self.lo.le(&other.hi), other.lo.le(&self.hi)) {
                    (Some(true), Some(true)) => Some(false),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// `Some(true)` if the union of the two ranges is provably one
    /// contiguous range — they overlap or touch end-to-end (`1:5` and
    /// `6:N+5`), so a single transfer of the [`Range::hull`] carries
    /// both. `Some(false)` if there is provably a gap between them,
    /// `None` if unknown. Assumes both ranges are non-empty (`lo ≤ hi`),
    /// as references extracted from code are.
    pub fn mergeable(&self, other: &Range) -> Option<bool> {
        // Order the ranges by lo; the union is contiguous iff the later
        // one starts no further than one past the earlier one's end.
        let (first, second) = if self.lo.le(&other.lo)? {
            (self, other)
        } else {
            (other, self)
        };
        second.lo.le_plus(&first.hi, 1)
    }

    /// The convex hull `min(lo):max(hi)`, when the bounds can be ordered.
    /// Assumes both ranges are non-empty (`lo ≤ hi`).
    pub fn hull(&self, other: &Range) -> Option<Range> {
        let (first, second) = if self.lo.le(&other.lo)? {
            (self, other)
        } else {
            (other, self)
        };
        let hi = match first.hi.le(&second.hi) {
            Some(true) => second.hi.clone(),
            Some(false) => first.hi.clone(),
            // `first` stops before `second` starts: a non-empty `second`
            // then provably ends last.
            None if first.hi.le_plus(&second.lo, -1) == Some(true) => second.hi.clone(),
            None => return None,
        };
        Some(Range {
            lo: first.lo.clone(),
            hi,
        })
    }

    /// `Some(true)` if `self` provably contains `other`.
    pub fn contains(&self, other: &Range) -> Option<bool> {
        match (self.lo.le(&other.lo), other.hi.le(&self.hi)) {
            (Some(true), Some(true)) => Some(true),
            (Some(false), _) | (_, Some(false)) => Some(false),
            _ => None,
        }
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lo == self.hi {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "{}:{}", self.lo, self.hi)
        }
    }
}

impl fmt::Debug for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Range({self})")
    }
}

/// A canonical reference to a portion of a distributed array — the items
/// of the communication dataflow universe.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataRef {
    /// A regular section `array(lo:hi)`.
    Section {
        /// Array name.
        array: Symbol,
        /// Index range.
        range: Range,
    },
    /// A gather `array(index(lo:hi))` through an index array.
    Gather {
        /// Array name.
        array: Symbol,
        /// The index-array reference producing the subscripts.
        index: Box<DataRef>,
    },
    /// The whole array (conservative fallback for unanalyzable
    /// subscripts).
    Whole {
        /// Array name.
        array: Symbol,
    },
}

impl DataRef {
    /// The referenced array.
    pub fn array(&self) -> Symbol {
        match self {
            DataRef::Section { array, .. }
            | DataRef::Gather { array, .. }
            | DataRef::Whole { array } => *array,
        }
    }

    /// `true` if the two references may denote overlapping storage.
    /// Conservative: `false` only when provably disjoint.
    pub fn may_overlap(&self, other: &DataRef) -> bool {
        if self.array() != other.array() {
            return false;
        }
        match (self, other) {
            (DataRef::Section { range: a, .. }, DataRef::Section { range: b, .. }) => {
                a.disjoint(b) != Some(true)
            }
            // Gathers and whole-array references may touch anything in
            // the array.
            _ => true,
        }
    }

    /// `true` if `self` provably covers all of `other` (writing `self`
    /// redefines every element `other` could read).
    pub fn covers(&self, other: &DataRef) -> bool {
        if self.array() != other.array() {
            return false;
        }
        match (self, other) {
            (DataRef::Whole { .. }, _) => true,
            (DataRef::Section { range: a, .. }, DataRef::Section { range: b, .. }) => {
                a.contains(b) == Some(true)
            }
            _ => false,
        }
    }

    /// A single reference provably carrying everything the two references
    /// touch, when one exists: two sections of the same array whose ranges
    /// overlap or touch merge into their hull (`x(1:k)` + `x(k+1:N)` →
    /// `x(1:N)`), and a whole-array reference absorbs anything of its
    /// array. `None` when the pair cannot be proven contiguous — the
    /// GNT030 coalescing audit only reports merges this returns.
    pub fn coalesce(&self, other: &DataRef) -> Option<DataRef> {
        if self.array() != other.array() {
            return None;
        }
        match (self, other) {
            (DataRef::Whole { array }, _) | (_, DataRef::Whole { array }) => {
                Some(DataRef::Whole { array: *array })
            }
            (DataRef::Section { array, range: a }, DataRef::Section { range: b, .. }) => {
                if a.mergeable(b) == Some(true) {
                    Some(DataRef::Section {
                        array: *array,
                        range: a.hull(b)?,
                    })
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// `true` if this reference's subscripts are read through `array`
    /// (destroying `array` invalidates the reference, §4.1).
    pub fn depends_on_index_array(&self, array: impl Into<Symbol>) -> bool {
        let array = array.into();
        match self {
            DataRef::Section { .. } | DataRef::Whole { .. } => false,
            DataRef::Gather { index, .. } => {
                index.array() == array || index.depends_on_index_array(array)
            }
        }
    }
}

impl fmt::Display for DataRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataRef::Section { array, range } => write!(f, "{array}({range})"),
            DataRef::Gather { array, index } => {
                // x(a(1:N)) — render the inner reference inside the
                // subscript position.
                let inner = index.to_string();
                write!(f, "{array}({inner})")
            }
            DataRef::Whole { array } => write!(f, "{array}(*)"),
        }
    }
}

impl fmt::Debug for DataRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DataRef({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sec(array: &str, lo: Affine, hi: Affine) -> DataRef {
        DataRef::Section {
            array: array.into(),
            range: Range { lo, hi },
        }
    }

    #[test]
    fn adjacent_sections_are_disjoint() {
        // x(1:N) vs x(N+1:2N)
        let a = Range {
            lo: Affine::constant(1),
            hi: Affine::var("N"),
        };
        let b = Range {
            lo: Affine::var("N") + Affine::constant(1),
            hi: Affine::var("N").scale(2),
        };
        assert_eq!(a.disjoint(&b), Some(true));
    }

    #[test]
    fn shifted_sections_overlap_unknown_or_known() {
        // x(1:N) vs x(6:N+5): both lo ≤ other hi by constants? 1≤N+5 ✓
        // constant diff? N+5−1 has N — le gives None… 6 ≤ N unknown.
        let a = Range {
            lo: Affine::constant(1),
            hi: Affine::var("N"),
        };
        let b = Range {
            lo: Affine::constant(6),
            hi: Affine::var("N") + Affine::constant(5),
        };
        // Not provably disjoint.
        assert_ne!(a.disjoint(&b), Some(true));
    }

    #[test]
    fn containment_is_decided_for_constant_offsets() {
        let outer = Range {
            lo: Affine::constant(1),
            hi: Affine::var("N") + Affine::constant(10),
        };
        let inner = Range {
            lo: Affine::constant(2),
            hi: Affine::var("N"),
        };
        assert_eq!(outer.contains(&inner), Some(true));
        assert_eq!(inner.contains(&outer), Some(false));
    }

    #[test]
    fn different_arrays_never_overlap() {
        let a = sec("x", Affine::constant(1), Affine::var("N"));
        let b = sec("y", Affine::constant(1), Affine::var("N"));
        assert!(!a.may_overlap(&b));
    }

    #[test]
    fn gather_overlaps_sections_of_same_array() {
        let g = DataRef::Gather {
            array: "x".into(),
            index: Box::new(sec("a", Affine::constant(1), Affine::var("N"))),
        };
        let s = sec(
            "x",
            Affine::constant(6),
            Affine::var("N") + Affine::constant(5),
        );
        assert!(g.may_overlap(&s));
        assert!(!g.covers(&s));
    }

    #[test]
    fn gather_depends_on_its_index_array() {
        let g = DataRef::Gather {
            array: "x".into(),
            index: Box::new(sec("a", Affine::constant(1), Affine::var("N"))),
        };
        assert!(g.depends_on_index_array("a"));
        assert!(!g.depends_on_index_array("x"));
    }

    #[test]
    fn adjacent_sections_coalesce_into_the_hull() {
        // x(1:k) + x(k+1:N) → x(1:N) is not provable (k vs N unordered),
        // but x(1:5) + x(6:N+5) → x(1:N+5) is: constant lows, and
        // 5 ≤ N+5 when symbols are nonnegative… the bounds compare.
        let a = sec("x", Affine::constant(1), Affine::constant(5));
        let b = sec(
            "x",
            Affine::constant(6),
            Affine::var("N") + Affine::constant(5),
        );
        let merged = a.coalesce(&b).expect("adjacent sections merge");
        assert_eq!(merged.to_string(), "x(1:N+5)");
        // Symmetric.
        assert_eq!(b.coalesce(&a), Some(merged));
    }

    #[test]
    fn gapped_and_foreign_sections_do_not_coalesce() {
        let a = sec("x", Affine::constant(1), Affine::constant(5));
        let gap = sec("x", Affine::constant(7), Affine::constant(9));
        assert_eq!(a.coalesce(&gap), None);
        let other = sec("y", Affine::constant(6), Affine::constant(9));
        assert_eq!(a.coalesce(&other), None);
        // Unprovable adjacency stays unmerged.
        let sym = sec("x", Affine::var("K"), Affine::var("N"));
        assert_eq!(a.coalesce(&sym), None);
    }

    #[test]
    fn whole_array_absorbs_sections_and_gathers() {
        let w = DataRef::Whole { array: "x".into() };
        let s = sec("x", Affine::constant(1), Affine::var("N"));
        let g = DataRef::Gather {
            array: "x".into(),
            index: Box::new(sec("a", Affine::constant(1), Affine::var("N"))),
        };
        assert_eq!(s.coalesce(&w), Some(w.clone()));
        assert_eq!(w.coalesce(&g), Some(w.clone()));
        // Two gathers have no common contiguous carrier.
        assert_eq!(g.coalesce(&g.clone()), None);
    }

    #[test]
    fn overlapping_ranges_are_mergeable() {
        let a = Range {
            lo: Affine::constant(1),
            hi: Affine::constant(10),
        };
        let b = Range {
            lo: Affine::constant(5),
            hi: Affine::constant(20),
        };
        assert_eq!(a.mergeable(&b), Some(true));
        assert_eq!(
            a.hull(&b),
            Some(Range {
                lo: Affine::constant(1),
                hi: Affine::constant(20),
            })
        );
        let far = Range {
            lo: Affine::constant(12),
            hi: Affine::constant(20),
        };
        assert_eq!(a.mergeable(&far), Some(false));
    }

    #[test]
    fn display_matches_paper_notation() {
        let g = DataRef::Gather {
            array: "x".into(),
            index: Box::new(sec("a", Affine::constant(1), Affine::var("N"))),
        };
        assert_eq!(g.to_string(), "x(a(1:N))");
        let s = sec(
            "x",
            Affine::constant(6),
            Affine::var("N") + Affine::constant(5),
        );
        assert_eq!(s.to_string(), "x(6:N+5)");
        assert_eq!(DataRef::Whole { array: "z".into() }.to_string(), "z(*)");
        let p = sec("y", Affine::constant(3), Affine::constant(3));
        assert_eq!(p.to_string(), "y(3)");
    }
}
