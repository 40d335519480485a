//! A seeded model test of [`Affine`] and the [`Range`] queries built on
//! it. The model is the former representation spelled out: a constant
//! plus a `BTreeMap<String, i64>` of nonzero coefficients, with the
//! former `Display`, comparison, `le`, `disjoint` and `contains` written
//! over it. Random sums, differences, scalings and substitutions run on
//! both sides, and every observable must agree: `Display`, `Ord`, `==`,
//! `coeff`, `vars`, `le`, `Range::disjoint` and `Range::contains`.
//! `GNT_STRESS` scales the number of rounds.

use gnt_sections::{Affine, Range};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::Write;

/// The variables, interned in an order unlike their string order, so a
/// representation that sorted by interning order would show.
const VARS: [&str; 7] = ["zeta", "N", "i", "M", "k_2", "j", "B"];

#[derive(Clone, Debug, PartialEq, Eq)]
struct Model {
    constant: i64,
    terms: BTreeMap<String, i64>,
}

impl Model {
    fn constant(c: i64) -> Model {
        Model {
            constant: c,
            terms: BTreeMap::new(),
        }
    }

    fn var(v: &str, k: i64) -> Model {
        Model::constant(0).add_scaled(
            &Model {
                constant: 0,
                terms: BTreeMap::from([(v.to_string(), 1)]),
            },
            k,
        )
    }

    fn add_scaled(mut self, other: &Model, k: i64) -> Model {
        self.constant += other.constant * k;
        for (v, c) in &other.terms {
            *self.terms.entry(v.clone()).or_insert(0) += c * k;
        }
        self.terms.retain(|_, c| *c != 0);
        self
    }

    fn scale(self, k: i64) -> Model {
        Model::constant(0).add_scaled(&self, k)
    }

    fn substitute(&self, v: &str, replacement: &Model) -> Model {
        let mut out = self.clone();
        match out.terms.remove(v) {
            Some(k) => out.add_scaled(replacement, k),
            None => out,
        }
    }

    fn le(&self, other: &Model) -> Option<bool> {
        let diff = other.clone().add_scaled(self, -1);
        diff.terms.is_empty().then_some(diff.constant >= 0)
    }

    fn plus(&self, k: i64) -> Model {
        self.clone().add_scaled(&Model::constant(k), 1)
    }

    /// The derived order of the former struct: constant, then the terms
    /// in key order.
    fn cmp(&self, other: &Model) -> Ordering {
        self.constant
            .cmp(&other.constant)
            .then_with(|| self.terms.iter().cmp(other.terms.iter()))
    }

    fn to_affine(&self) -> Affine {
        let mut out = Affine::constant(self.constant);
        for (v, &c) in &self.terms {
            out.add_scaled(&Affine::var(v.as_str()), c);
        }
        out
    }
}

/// The former `Display`, over the model.
fn show(m: &Model) -> String {
    let mut f = String::new();
    let mut first = true;
    for (v, &c) in &m.terms {
        if first {
            match c {
                1 => write!(f, "{v}"),
                -1 => write!(f, "-{v}"),
                c => write!(f, "{c}*{v}"),
            }
            .unwrap();
            first = false;
        } else if c >= 0 {
            if c == 1 {
                write!(f, "+{v}").unwrap();
            } else {
                write!(f, "+{c}*{v}").unwrap();
            }
        } else if c == -1 {
            write!(f, "-{v}").unwrap();
        } else {
            write!(f, "{c}*{v}").unwrap();
        }
    }
    if first {
        write!(f, "{}", m.constant).unwrap();
    } else if m.constant > 0 {
        write!(f, "+{}", m.constant).unwrap();
    } else if m.constant < 0 {
        write!(f, "{}", m.constant).unwrap();
    }
    f
}

/// The former `Range::disjoint`, over model bounds.
fn disjoint(a: (&Model, &Model), b: (&Model, &Model)) -> Option<bool> {
    let before = a.1.plus(1).le(b.0);
    let after = b.1.plus(1).le(a.0);
    match (before, after) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => match (a.0.le(b.1), b.0.le(a.1)) {
            (Some(true), Some(true)) => Some(false),
            _ => None,
        },
        _ => None,
    }
}

/// The former `Range::contains`, over model bounds.
fn contains(a: (&Model, &Model), b: (&Model, &Model)) -> Option<bool> {
    match (a.0.le(b.0), b.1.le(a.1)) {
        (Some(true), Some(true)) => Some(true),
        (Some(false), _) | (_, Some(false)) => Some(false),
        _ => None,
    }
}

/// Stress multiplier from the environment (`GNT_STRESS`, default 1).
fn stress() -> u64 {
    std::env::var("GNT_STRESS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// SplitMix64: a few random bits without a dependency.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small integer in `-span..=span`.
fn small(rng: &mut u64, span: i64) -> i64 {
    (next(rng) % (2 * span as u64 + 1)) as i64 - span
}

fn pick_var(rng: &mut u64) -> &'static str {
    VARS[(next(rng) % VARS.len() as u64) as usize]
}

/// A random leaf: a constant, or one variable with a small coefficient.
fn leaf(rng: &mut u64) -> (Affine, Model) {
    if next(rng).is_multiple_of(3) {
        let c = small(rng, 6);
        (Affine::constant(c), Model::constant(c))
    } else {
        let (v, k) = (pick_var(rng), small(rng, 3));
        (Affine::var(v).scale(k), Model::var(v, k))
    }
}

/// A random expression built by a few sums, differences, scalings and
/// substitutions, on both sides.
fn expr(rng: &mut u64) -> (Affine, Model) {
    let (mut a, mut m) = leaf(rng);
    for _ in 0..next(rng) % 6 {
        let (b, n) = leaf(rng);
        match next(rng) % 5 {
            0 => {
                a = a + b;
                m = m.add_scaled(&n, 1);
            }
            1 => {
                a = a - b;
                m = m.add_scaled(&n, -1);
            }
            2 => {
                let k = small(rng, 3);
                a = a.scale(k);
                m = m.scale(k);
            }
            3 => {
                let v = pick_var(rng);
                a = a.substitute(v, &b);
                m = m.substitute(v, &n);
            }
            _ => {
                let k = small(rng, 4);
                a.add_scaled(&b, k);
                m = m.add_scaled(&n, k);
            }
        }
    }
    (a, m)
}

/// A partner for `(a, m)`: often the same terms with another constant,
/// so that `le` and the range queries decide, else a fresh expression.
fn partner(rng: &mut u64, a: &Affine, m: &Model) -> (Affine, Model) {
    if next(rng).is_multiple_of(2) {
        let c = small(rng, 5);
        (a.clone() + Affine::constant(c), m.plus(c))
    } else {
        expr(rng)
    }
}

fn check_one(a: &Affine, m: &Model, what: &str) {
    assert_eq!(a.to_string(), show(m), "{what}: Display");
    assert_eq!(a.constant_part(), m.constant, "{what}: constant");
    assert_eq!(a.is_constant(), m.terms.is_empty(), "{what}: is_constant");
    let vars: Vec<&str> = a.vars().map(|v| v.as_str()).collect();
    let model_vars: Vec<&str> = m.terms.keys().map(String::as_str).collect();
    assert_eq!(vars, model_vars, "{what}: vars");
    for v in VARS {
        assert_eq!(
            a.coeff(v),
            m.terms.get(v).copied().unwrap_or(0),
            "{what}: coeff {v}"
        );
    }
    assert_eq!(*a, m.to_affine(), "{what}: rebuilt from the model");
}

fn check_pair(a: (&Affine, &Model), b: (&Affine, &Model), what: &str) {
    assert_eq!(a.0.cmp(b.0), a.1.cmp(b.1), "{what}: Ord");
    assert_eq!(a.0 == b.0, a.1 == b.1, "{what}: ==");
    assert_eq!(a.0.le(b.0), a.1.le(b.1), "{what}: le");
}

#[test]
fn affine_matches_the_btreemap_model() {
    for v in VARS {
        gnt_ir::intern(v);
    }
    let mut rng = 0x00af_f1e5_eed5_u64;
    let (mut decided, mut disjoint_known, mut contained) = (0u64, 0u64, 0u64);
    let rounds = 2_000 * stress();
    for round in 0..rounds {
        let (a, m) = expr(&mut rng);
        let (b, n) = partner(&mut rng, &a, &m);
        let (c, o) = expr(&mut rng);
        let (d, p) = partner(&mut rng, &c, &o);
        let what = format!("round {round}: a = {}, b = {}", show(&m), show(&n));
        for (x, y) in [(&a, &m), (&b, &n), (&c, &o), (&d, &p)] {
            check_one(x, y, &what);
        }
        let pairs = [
            ((&a, &m), (&b, &n)),
            ((&b, &n), (&a, &m)),
            ((&a, &m), (&c, &o)),
        ];
        for (x, y) in pairs {
            check_pair(x, y, &what);
        }
        check_pair((&a, &m), (&a, &m), &what);
        decided += u64::from(a.le(&b).is_some());

        // Ranges lo:hi from the pairs, both ways round.
        let r = Range {
            lo: a.clone(),
            hi: b.clone(),
        };
        let s = Range {
            lo: c.clone(),
            hi: d.clone(),
        };
        let shift = small(&mut rng, 8);
        let t = Range {
            lo: b.clone(),
            hi: a.clone() + Affine::constant(shift),
        };
        let t_hi = m.plus(shift);
        let ranges = [(&r, (&m, &n)), (&s, (&o, &p)), (&t, (&n, &t_hi))];
        for (x, xm) in ranges {
            for (y, ym) in ranges {
                let got = x.disjoint(y);
                assert_eq!(got, disjoint(xm, ym), "{what}: disjoint {x:?} {y:?}");
                assert_eq!(
                    x.contains(y),
                    contains(xm, ym),
                    "{what}: contains {x:?} {y:?}"
                );
                disjoint_known += u64::from(got.is_some());
                contained += u64::from(x.contains(y) == Some(true));
            }
        }
    }
    // The generator must reach the decided cases, not only `None`.
    assert!(decided * 4 >= rounds, "le decided in {decided} of {rounds}");
    assert!(
        disjoint_known >= rounds,
        "disjoint decided {disjoint_known} times"
    );
    assert!(contained >= rounds, "contains held {contained} times");
}
