//! Normalizing subscripted references to canonical [`DataRef`]s.
//!
//! A reference `x(f(i))` inside `do i = lo, hi` denotes, over the whole
//! loop, the section `x(f(lo) : f(hi))` when `f` is affine in `i` — the
//! *message vectorization* step of §2. Indirect references `x(a(k))`
//! normalize to gathers `x(a(lo:hi))`; anything unanalyzable falls back
//! to the whole array. Because normalization is canonical, equal
//! [`DataRef`]s act as the subscript value numbers by which the paper
//! recognizes `x(a(k))` ≡ `x(a(l))`.

use crate::affine::Affine;
use crate::section::{DataRef, Range};
use gnt_ir::{Expr, Symbol};

/// The stack of enclosing loops (outermost first) with their bounds.
#[derive(Clone, Debug, Default)]
pub struct LoopContext {
    frames: Vec<Frame>,
}

#[derive(Clone, Debug)]
struct Frame {
    var: Symbol,
    lo: Option<Affine>,
    hi: Option<Affine>,
}

impl LoopContext {
    /// An empty (top-level) context.
    pub fn new() -> LoopContext {
        LoopContext::default()
    }

    /// Pushes a loop `do var = lo, hi`. Non-affine bounds are recorded as
    /// unknown; references varying in such loops degrade to whole-array.
    pub fn push(&mut self, var: impl Into<Symbol>, lo: &Expr, hi: &Expr) {
        self.frames.push(Frame {
            var: var.into(),
            lo: Affine::from_expr(lo),
            hi: Affine::from_expr(hi),
        });
    }

    /// Pops the innermost loop, returning its variable, or `None` if the
    /// context is empty.
    pub fn pop(&mut self) -> Option<Symbol> {
        self.frames.pop().map(|f| f.var)
    }

    /// Loop nesting depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    fn frame(&self, var: Symbol) -> Option<&Frame> {
        self.frames.iter().rev().find(|f| f.var == var)
    }

    /// Expands every loop variable in `aff` to its extreme values,
    /// returning the (lo, hi) range the expression covers across all
    /// enclosing iterations. `None` if some loop bound is unknown.
    fn expand(&self, aff: &Affine) -> Option<Range> {
        let mut lo = aff.clone();
        let mut hi = aff.clone();
        // Innermost-out, so bounds referencing outer loop variables
        // (triangular loops like y(a(1:i))) expand in turn. Each side is
        // rewritten in place: a positive coefficient takes the bound on
        // its own side, a negative one the opposite bound.
        for frame in self.frames.iter().rev() {
            for (side, low) in [(&mut lo, true), (&mut hi, false)] {
                let k = side.coeff(frame.var);
                if k != 0 {
                    let bound = if (k > 0) == low { &frame.lo } else { &frame.hi };
                    side.substitute_in_place(frame.var, bound.as_ref()?);
                }
            }
        }
        Some(Range { lo, hi })
    }

    /// `true` if `var` is an induction variable of an enclosing loop.
    pub fn is_loop_var(&self, var: impl Into<Symbol>) -> bool {
        self.frame(var.into()).is_some()
    }
}

/// Normalizes the reference `array(index)` as seen across all iterations
/// of the enclosing loops.
///
/// # Examples
///
/// ```
/// use gnt_ir::Expr;
/// use gnt_sections::{normalize_ref, LoopContext};
///
/// let mut ctx = LoopContext::new();
/// ctx.push("k", &Expr::Const(1), &Expr::var("N"));
/// // x(k+10) over k = 1..N  →  x(11:N+10)
/// let r = normalize_ref(
///     "x",
///     &Expr::bin(gnt_ir::BinOp::Add, Expr::var("k"), Expr::Const(10)),
///     &ctx,
/// );
/// assert_eq!(r.to_string(), "x(11:N+10)");
/// ```
pub fn normalize_ref(array: impl Into<Symbol>, index: &Expr, ctx: &LoopContext) -> DataRef {
    let array = array.into();
    if let Some(aff) = Affine::from_expr(index) {
        if let Some(range) = ctx.expand(&aff) {
            return DataRef::Section { array, range };
        }
        return DataRef::Whole { array };
    }
    if let Expr::Elem(index_array, inner) = index {
        let inner_ref = normalize_ref(*index_array, inner, ctx);
        return DataRef::Gather {
            array,
            index: Box::new(inner_ref),
        };
    }
    DataRef::Whole { array }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnt_ir::BinOp;

    fn ctx_1n(var: &str) -> LoopContext {
        let mut ctx = LoopContext::new();
        ctx.push(var, &Expr::Const(1), &Expr::var("N"));
        ctx
    }

    #[test]
    fn direct_reference_vectorizes() {
        let ctx = ctx_1n("k");
        let r = normalize_ref(
            "x",
            &Expr::bin(BinOp::Add, Expr::var("k"), Expr::Const(5)),
            &ctx,
        );
        assert_eq!(r.to_string(), "x(6:N+5)");
    }

    #[test]
    fn negative_stride_swaps_bounds() {
        let ctx = ctx_1n("k");
        // x(N - k) over k = 1..N → x(0 : N-1)
        let r = normalize_ref(
            "x",
            &Expr::bin(BinOp::Sub, Expr::var("N"), Expr::var("k")),
            &ctx,
        );
        assert_eq!(r.to_string(), "x(0:N-1)");
    }

    #[test]
    fn identical_gathers_get_the_same_value_number() {
        // x(a(k)) over k and x(a(l)) over l normalize identically.
        let rk = normalize_ref("x", &Expr::elem("a", Expr::var("k")), &ctx_1n("k"));
        let rl = normalize_ref("x", &Expr::elem("a", Expr::var("l")), &ctx_1n("l"));
        assert_eq!(rk, rl);
        assert_eq!(rk.to_string(), "x(a(1:N))");
    }

    #[test]
    fn triangular_loop_expands_outer_variable() {
        // y(a(1:i)) from Figure 14: inside do i = 1, N, the write set of
        // y(a(j)) for j = 1..i expands to a(1:i); across the i loop the
        // full footprint is a(1:N).
        let mut ctx = LoopContext::new();
        ctx.push("i", &Expr::Const(1), &Expr::var("N"));
        ctx.push("j", &Expr::Const(1), &Expr::var("i"));
        let r = normalize_ref("y", &Expr::elem("a", Expr::var("j")), &ctx);
        assert_eq!(r.to_string(), "y(a(1:N))");
    }

    #[test]
    fn unknown_bounds_degrade_to_whole_array() {
        let mut ctx = LoopContext::new();
        ctx.push("i", &Expr::Const(1), &Expr::Opaque);
        let r = normalize_ref("x", &Expr::var("i"), &ctx);
        assert_eq!(r.to_string(), "x(*)");
    }

    #[test]
    fn loop_invariant_reference_is_a_point() {
        let ctx = ctx_1n("k");
        let r = normalize_ref("x", &Expr::Const(3), &ctx);
        assert_eq!(r.to_string(), "x(3)");
        let r2 = normalize_ref("x", &Expr::var("M"), &ctx);
        assert_eq!(r2.to_string(), "x(M)");
    }

    #[test]
    fn opaque_subscript_is_whole_array() {
        let ctx = LoopContext::new();
        let r = normalize_ref("x", &Expr::Opaque, &ctx);
        assert_eq!(r.to_string(), "x(*)");
    }

    #[test]
    fn context_push_pop_tracks_depth() {
        let mut ctx = LoopContext::new();
        assert_eq!(ctx.depth(), 0);
        ctx.push("i", &Expr::Const(1), &Expr::var("N"));
        assert_eq!(ctx.depth(), 1);
        assert!(ctx.is_loop_var("i"));
        assert_eq!(ctx.pop(), Some(Symbol::from("i")));
        assert!(!ctx.is_loop_var("i"));
        assert_eq!(ctx.pop(), None);
    }
}
