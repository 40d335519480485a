//! Symbolic affine expressions: `c₀ + Σ cᵢ·vᵢ`.
//!
//! Section bounds in the paper are affine in symbolic constants and loop
//! bounds (`x(6:N+5)`, `y(a(1:i))`). [`Affine`] is the canonical form with
//! exact integer arithmetic; comparisons that hold for *all* variable
//! assignments (e.g. `N+1 > N`) are decidable, everything else is
//! "unknown" — the client must be conservative.

use gnt_ir::{BinOp, Expr, Symbol};
use std::fmt;

/// A canonical affine expression over symbolic variables.
///
/// # Examples
///
/// ```
/// use gnt_sections::Affine;
///
/// let n_plus_5 = Affine::var("N") + Affine::constant(5);
/// let n_plus_3 = Affine::var("N") + Affine::constant(3);
/// assert_eq!(n_plus_5.clone() - n_plus_3, Affine::constant(2));
/// assert_eq!(n_plus_5.to_string(), "N+5");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Affine {
    constant: i64,
    /// Variable coefficients, zero coefficients removed, sorted by
    /// [`Symbol`]'s own order, which is string order. The derived
    /// comparisons and [`fmt::Display`] therefore see the terms exactly
    /// as a `String`-keyed sorted map would iterate them.
    terms: Vec<(Symbol, i64)>,
}

impl Affine {
    /// The constant `c`.
    pub fn constant(c: i64) -> Affine {
        Affine {
            constant: c,
            terms: Vec::new(),
        }
    }

    /// The variable `v` with coefficient 1.
    pub fn var(v: impl Into<Symbol>) -> Affine {
        Affine {
            constant: 0,
            terms: vec![(v.into(), 1)],
        }
    }

    /// The constant part.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// The coefficient of `v` (0 if absent).
    pub fn coeff(&self, v: impl Into<Symbol>) -> i64 {
        let v = v.into();
        self.terms
            .iter()
            .find(|&&(s, _)| s == v)
            .map_or(0, |&(_, c)| c)
    }

    /// `true` if the expression is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// The variables with nonzero coefficients.
    pub fn vars(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.terms.iter().map(|&(v, _)| v)
    }

    /// Multiplies by a constant.
    pub fn scale(mut self, k: i64) -> Affine {
        self.constant *= k;
        for (_, c) in &mut self.terms {
            *c *= k;
        }
        self.terms.retain(|&(_, c)| c != 0);
        self
    }

    /// `self += k·other`, in place: the one update that `+`, `-` and
    /// [`Affine::substitute`] share.
    pub fn add_scaled(&mut self, other: &Affine, k: i64) {
        self.constant += other.constant * k;
        for &(v, c) in &other.terms {
            let d = c * k;
            if d == 0 {
                continue;
            }
            // Equal symbols compare as integers; only a new variable
            // needs the string order to find its place.
            match self.terms.iter().position(|&(s, _)| s == v) {
                Some(at) => {
                    self.terms[at].1 += d;
                    if self.terms[at].1 == 0 {
                        self.terms.remove(at);
                    }
                }
                None => {
                    let at = self.terms.partition_point(|&(s, _)| s < v);
                    self.terms.insert(at, (v, d));
                }
            }
        }
    }

    /// Substitutes `v := replacement`.
    pub fn substitute(&self, v: impl Into<Symbol>, replacement: &Affine) -> Affine {
        let mut out = self.clone();
        out.substitute_in_place(v.into(), replacement);
        out
    }

    /// [`Affine::substitute`] without a copy.
    pub(crate) fn substitute_in_place(&mut self, v: Symbol, replacement: &Affine) {
        if let Some(at) = self.terms.iter().position(|&(s, _)| s == v) {
            let (_, k) = self.terms.remove(at);
            self.add_scaled(replacement, k);
        }
    }

    /// Converts a MiniF expression if it is affine (constants, variables,
    /// `+`, `-`, and multiplication where one side is constant).
    ///
    /// Returns `None` for subscripted references, `...`, sections, or
    /// non-linear products.
    pub fn from_expr(expr: &Expr) -> Option<Affine> {
        match expr {
            Expr::Const(c) => Some(Affine::constant(*c)),
            Expr::Var(v) => Some(Affine::var(*v)),
            Expr::Bin(op, l, r) => {
                let l = Affine::from_expr(l)?;
                let r = Affine::from_expr(r)?;
                match op {
                    BinOp::Add => Some(l + r),
                    BinOp::Sub => Some(l - r),
                    BinOp::Mul => {
                        if l.is_constant() {
                            Some(r.scale(l.constant))
                        } else if r.is_constant() {
                            Some(l.scale(r.constant))
                        } else {
                            None
                        }
                    }
                }
            }
            Expr::Elem(..) | Expr::Section(..) | Expr::Opaque => None,
        }
    }

    /// `Some(true)` if `self ≤ other` for every variable assignment,
    /// `Some(false)` if `self > other` for every assignment, `None` if it
    /// depends. Decidable exactly when the difference is constant.
    pub fn le(&self, other: &Affine) -> Option<bool> {
        self.le_plus(other, 0)
    }

    /// [`Affine::le`] of `self` against `other + k`, decided on the
    /// borrowed terms: both are canonical, so the difference is constant
    /// exactly when the terms are equal.
    pub(crate) fn le_plus(&self, other: &Affine, k: i64) -> Option<bool> {
        (self.terms == other.terms).then(|| other.constant + k - self.constant >= 0)
    }
}

impl std::ops::Add for Affine {
    type Output = Affine;
    fn add(mut self, rhs: Affine) -> Affine {
        self.add_scaled(&rhs, 1);
        self
    }
}

impl std::ops::Sub for Affine {
    type Output = Affine;
    fn sub(mut self, rhs: Affine) -> Affine {
        self.add_scaled(&rhs, -1);
        self
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.terms {
            if first {
                match *c {
                    1 => write!(f, "{v}")?,
                    -1 => write!(f, "-{v}")?,
                    c => write!(f, "{c}*{v}")?,
                }
                first = false;
            } else if *c >= 0 {
                if *c == 1 {
                    write!(f, "+{v}")?;
                } else {
                    write!(f, "+{c}*{v}")?;
                }
            } else if *c == -1 {
                write!(f, "-{v}")?;
            } else {
                write!(f, "{c}*{v}")?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, "+{}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, "{}", self.constant)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Affine({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnt_ir::Expr;

    #[test]
    fn arithmetic_is_canonical() {
        let a = Affine::var("N") + Affine::constant(5) - Affine::var("N");
        assert_eq!(a, Affine::constant(5));
        assert!(a.is_constant());
    }

    #[test]
    fn from_expr_handles_affine_forms() {
        // k + 10
        let e = Expr::bin(BinOp::Add, Expr::var("k"), Expr::Const(10));
        let a = Affine::from_expr(&e).unwrap();
        assert_eq!(a.coeff("k"), 1);
        assert_eq!(a.constant_part(), 10);
        // 2 * (i - 1)
        let e2 = Expr::bin(
            BinOp::Mul,
            Expr::Const(2),
            Expr::bin(BinOp::Sub, Expr::var("i"), Expr::Const(1)),
        );
        let a2 = Affine::from_expr(&e2).unwrap();
        assert_eq!(a2.coeff("i"), 2);
        assert_eq!(a2.constant_part(), -2);
    }

    #[test]
    fn from_expr_rejects_nonaffine() {
        // a(k) subscripted
        assert!(Affine::from_expr(&Expr::elem("a", Expr::var("k"))).is_none());
        // i * j
        let e = Expr::bin(BinOp::Mul, Expr::var("i"), Expr::var("j"));
        assert!(Affine::from_expr(&e).is_none());
    }

    #[test]
    fn substitute_replaces_variable() {
        // k + 10 with k := N  →  N + 10
        let a = Affine::var("k") + Affine::constant(10);
        let b = a.substitute("k", &Affine::var("N"));
        assert_eq!(b, Affine::var("N") + Affine::constant(10));
    }

    #[test]
    fn le_is_decided_for_constant_differences() {
        let n = Affine::var("N");
        let n1 = Affine::var("N") + Affine::constant(1);
        assert_eq!(n.le(&n1), Some(true));
        assert_eq!(n1.le(&n), Some(false));
        assert_eq!(n.le(&Affine::var("M")), None);
    }

    #[test]
    fn display_formats_mixed_terms() {
        let a = Affine::var("N").scale(2) + Affine::constant(-3);
        assert_eq!(a.to_string(), "2*N-3");
        assert_eq!(Affine::constant(0).to_string(), "0");
        assert_eq!((Affine::var("i") - Affine::var("j")).to_string(), "i-j");
    }
}
