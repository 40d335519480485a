//! Collection strategies (`prop::collection::vec`).

use crate::{Strategy, TestRng};
use std::ops::Range;

/// The strategy returned by [`vec()`].
#[derive(Clone)]
pub struct VecStrategy<S> {
    elem: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let len = if self.size.start >= self.size.end {
            self.size.start
        } else {
            let width = (self.size.end - self.size.start) as u64;
            self.size.start + rng.below(width) as usize
        };
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }
}

/// Generates vectors whose elements come from `elem` and whose length is
/// drawn uniformly from `size`.
pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
    VecStrategy { elem, size }
}
