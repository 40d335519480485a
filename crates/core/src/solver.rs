//! The GIVE-N-TAKE equations (Figure 13) and the four-pass elimination
//! schedule that solves them (Figure 15).
//!
//! [`schedule`] evaluates every equation exactly once per node:
//!
//! 1. walking the graph in REVERSEPREORDER, it evaluates Equations 9–10
//!    for the children of each interval header (in FORWARD order) and then
//!    Equations 1–8 for the node itself — consumption flows *up and back*;
//! 2. walking in PREORDER, it evaluates Equations 11–13 — availability of
//!    production flows *forward and down* — once for the EAGER and once
//!    for the LAZY flavor (they differ only in Equation 12);
//! 3. Equations 14–15 then read off the result variables `RES_in`/`RES_out`.
//!
//! Total complexity is O(E) set operations (§5.2).
//!
//! On reversed graphs a jump into a loop (§5.3) can make Eqs. 9–11 name
//! a neighbour row the walk has not written yet. Every solve starts from
//! zeroed rows, so such a read is ∅: a ∩ meeting it is ∅ and a ∪ gains
//! nothing from it. The walk decides this statically
//! ([`loc_written_before`], [`given_out_written_before`]) and emits no
//! term for it, which leaves every value unchanged and leaves no step
//! reading a row that a later step writes.
//!
//! # Data plane
//!
//! All variables live in a [`SolverScratch`] arena (one contiguous word
//! vector, one strided row per `(family, node)` pair). The schedule never
//! branches on set *contents*, only on the graph and its poisoned
//! headers. It is a loop over four step functions written against the
//! [`Kernels`] trait, which the direct backend here implements with
//! fused word-level kernels: every full solve ([`solve`], [`solve_into`],
//! [`solve_batch`], the AFTER solves and the pressure loop's round 0)
//! walks it whole, and [`crate::solve_delta`] re-runs only the steps
//! downstream of an edit ([`rewalk`]). No per-equation temporaries, no
//! allocation inside the passes.

use crate::problem::{Flavor, PlacementProblem, SolverOptions};
use crate::scratch::{
    flavor_offset, SolverScratch, FLAVOR_STRIDE, F_BLOCK, F_BLOCK_LOC, F_GIVE, F_GIVEN, F_GIVEN_IN,
    F_GIVEN_OUT, F_GIVE_LOC, F_RES_IN, F_RES_OUT, F_STEAL, F_STEAL_LOC, F_TAKE, F_TAKEN_IN,
    F_TAKEN_OUT, F_TAKE_LOC, NUM_FAMILIES,
};
use gnt_cfg::{EdgeClass, EdgeMask, IntervalGraph, NodeId};
use gnt_dataflow::{BitSet, BitSlab};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The consumption-analysis variables of §4.2–4.3 (identical for both
/// flavors), exposed for inspection, verification, and the golden tests
/// that reproduce the paper's §4 example values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsumptionVars {
    /// Eq. 1 — production voided at `n` or within `T(n)`.
    pub steal: Vec<BitSet>,
    /// Eq. 2 — produced for free at `n` or within `T(n)`.
    pub give: Vec<BitSet>,
    /// Eq. 3 — production cannot be hoisted across `n`.
    pub block: Vec<BitSet>,
    /// Eq. 4 — consumed on all paths leaving `n`.
    pub taken_out: Vec<BitSet>,
    /// Eq. 5 — consumed at `n` (including hoisted loop-body consumption).
    pub take: Vec<BitSet>,
    /// Eq. 6 — like `taken_out` but including `n` itself.
    pub taken_in: Vec<BitSet>,
    /// Eq. 7 — blocked by `n` or later same-interval nodes, unconsumed.
    pub block_loc: Vec<BitSet>,
    /// Eq. 8 — taken by `n`, later same-interval nodes, or within `T(n)`.
    pub take_loc: Vec<BitSet>,
    /// Eq. 9 — produced by `n` or earlier same-interval nodes.
    pub give_loc: Vec<BitSet>,
    /// Eq. 10 — stolen by `n` or earlier same-interval nodes, unresupplied.
    pub steal_loc: Vec<BitSet>,
}

/// The production-placement variables of §4.4–4.5 for one flavor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlavorSolution {
    /// Eq. 11 — available at the entry of `n`.
    pub given_in: Vec<BitSet>,
    /// Eq. 12 — available at `n` itself.
    pub given: Vec<BitSet>,
    /// Eq. 13 — available at the exit of `n`.
    pub given_out: Vec<BitSet>,
    /// Eq. 14 — production generated at the entry of `n`.
    pub res_in: Vec<BitSet>,
    /// Eq. 15 — production generated at the exit of `n`.
    pub res_out: Vec<BitSet>,
}

impl FlavorSolution {
    /// Total number of `(node, item)` production points.
    pub fn num_productions(&self) -> usize {
        self.res_in.iter().map(BitSet::len).sum::<usize>()
            + self.res_out.iter().map(BitSet::len).sum::<usize>()
    }
}

/// A complete GIVE-N-TAKE solution: both flavors plus the shared
/// consumption analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Solution {
    /// Shared consumption variables (passes S1–S2).
    pub vars: ConsumptionVars,
    /// The EAGER placement.
    pub eager: FlavorSolution,
    /// The LAZY placement.
    pub lazy: FlavorSolution,
}

impl Solution {
    /// The placement for `flavor`.
    pub fn flavor(&self, flavor: Flavor) -> &FlavorSolution {
        match flavor {
            Flavor::Eager => &self.eager,
            Flavor::Lazy => &self.lazy,
        }
    }

    /// An all-empty solution over `n` nodes and `cap` items, ready to be
    /// filled by [`SolverScratch::write_into`].
    pub(crate) fn empty(n: usize, cap: usize) -> Solution {
        let empty = BitSet::new(cap);
        let fs = || FlavorSolution {
            given_in: vec![empty.clone(); n],
            given: vec![empty.clone(); n],
            given_out: vec![empty.clone(); n],
            res_in: vec![empty.clone(); n],
            res_out: vec![empty.clone(); n],
        };
        Solution {
            vars: ConsumptionVars {
                steal: vec![empty.clone(); n],
                give: vec![empty.clone(); n],
                block: vec![empty.clone(); n],
                taken_out: vec![empty.clone(); n],
                take: vec![empty.clone(); n],
                taken_in: vec![empty.clone(); n],
                block_loc: vec![empty.clone(); n],
                take_loc: vec![empty.clone(); n],
                give_loc: vec![empty.clone(); n],
                steal_loc: vec![empty.clone(); n],
            },
            eager: fs(),
            lazy: fs(),
        }
    }

    /// Re-shapes `self` for `n` nodes × `cap` items *without zeroing* rows
    /// whose capacity already matches: callers guarantee every word of
    /// every row is about to be overwritten, so stale contents never
    /// survive. This is the reuse fast path of [`solve_batch`] — a
    /// warm output buffer costs no allocation and no clearing.
    pub(crate) fn reshape_for_overwrite(&mut self, n: usize, cap: usize) {
        let shape = |sets: &mut Vec<BitSet>| {
            sets.resize_with(n, || BitSet::new(cap));
            for s in sets.iter_mut().filter(|s| s.capacity() != cap) {
                s.reset(cap);
            }
        };
        let ConsumptionVars {
            steal,
            give,
            block,
            taken_out,
            take,
            taken_in,
            block_loc,
            take_loc,
            give_loc,
            steal_loc,
        } = &mut self.vars;
        for sets in [
            steal, give, block, taken_out, take, taken_in, block_loc, take_loc, give_loc, steal_loc,
        ] {
            shape(sets);
        }
        for fs in [&mut self.eager, &mut self.lazy] {
            let FlavorSolution {
                given_in,
                given,
                given_out,
                res_in,
                res_out,
            } = fs;
            for sets in [given_in, given, given_out, res_in, res_out] {
                shape(sets);
            }
        }
    }
}

impl Default for Solution {
    /// An empty zero-node solution — the natural seed for the reusable
    /// output buffer of [`solve_batch`].
    fn default() -> Solution {
        Solution::empty(0, 0)
    }
}

/// Which initial variable a [`Kernels::load`] reads.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Init {
    /// `TAKE_init`.
    Take,
    /// `STEAL_init`.
    Steal,
    /// `GIVE_init`.
    Give,
}

/// The set algebra the schedule is written against, over arena row ids
/// (`family · n + node`, or one of the two temporaries). The direct
/// backend applies each call to a [`BitSlab`] at once; the test backends
/// only watch which rows each call reads and writes. The three fused
/// operations default to their unfused expansion.
pub(crate) trait Kernels {
    /// `dst ← ∅`.
    fn clear(&mut self, dst: usize);
    /// `dst ← ⊤`.
    fn fill(&mut self, dst: usize);
    /// `dst ← a`.
    fn copy(&mut self, dst: usize, a: usize);
    /// `dst ← dst ∪ a`.
    fn or(&mut self, dst: usize, a: usize);
    /// `dst ← dst ∩ a`.
    fn and(&mut self, dst: usize, a: usize);
    /// `dst ← dst ∖ a`.
    fn andnot(&mut self, dst: usize, a: usize);
    /// `dst ← dst ∪ (a ∖ b)`.
    fn or_andnot(&mut self, dst: usize, a: usize, b: usize);
    /// `dst ← init(node)`, the problem's initial variable.
    fn load(&mut self, dst: usize, init: Init, node: usize);

    /// `dst ← a ∪ b`.
    fn copy_or(&mut self, dst: usize, a: usize, b: usize) {
        self.copy(dst, a);
        self.or(dst, b);
    }

    /// `dst ← a ∖ b`.
    fn copy_andnot(&mut self, dst: usize, a: usize, b: usize) {
        self.copy(dst, a);
        self.andnot(dst, b);
    }

    /// `dst ← (a ∪ b) ∖ c`.
    fn copy_or_andnot(&mut self, dst: usize, a: usize, b: usize, c: usize) {
        self.copy(dst, a);
        self.or(dst, b);
        self.andnot(dst, c);
    }
}

/// The direct backend: fused slab kernels over the scratch arena, with
/// the problem's initial variables loaded as the walk reaches them.
struct Direct<'a> {
    slab: &'a mut BitSlab,
    problem: &'a PlacementProblem,
}

impl Kernels for Direct<'_> {
    #[inline]
    fn clear(&mut self, dst: usize) {
        self.slab.clear(dst);
    }

    #[inline]
    fn fill(&mut self, dst: usize) {
        self.slab.fill(dst);
    }

    #[inline]
    fn copy(&mut self, dst: usize, a: usize) {
        self.slab.copy(dst, a);
    }

    #[inline]
    fn or(&mut self, dst: usize, a: usize) {
        self.slab.or(dst, a);
    }

    #[inline]
    fn and(&mut self, dst: usize, a: usize) {
        self.slab.and(dst, a);
    }

    #[inline]
    fn andnot(&mut self, dst: usize, a: usize) {
        self.slab.andnot(dst, a);
    }

    #[inline]
    fn or_andnot(&mut self, dst: usize, a: usize, b: usize) {
        self.slab.or_andnot(dst, a, b);
    }

    #[inline]
    fn load(&mut self, dst: usize, init: Init, node: usize) {
        let sets = match init {
            Init::Take => &self.problem.take_init,
            Init::Steal => &self.problem.steal_init,
            Init::Give => &self.problem.give_init,
        };
        self.slab.load(dst, sets[node].words());
    }

    #[inline]
    fn copy_or(&mut self, dst: usize, a: usize, b: usize) {
        self.slab.copy_or(dst, a, b);
    }

    #[inline]
    fn copy_andnot(&mut self, dst: usize, a: usize, b: usize) {
        self.slab.copy_andnot(dst, a, b);
    }

    #[inline]
    fn copy_or_andnot(&mut self, dst: usize, a: usize, b: usize, c: usize) {
        self.slab.copy_or_andnot(dst, a, b, c);
    }
}

/// Solves a BEFORE problem over `graph`.
///
/// For AFTER problems use [`crate::solve_after`], which runs this solver
/// on the reversed graph.
///
/// # Panics
///
/// Panics if `problem` does not cover all nodes of `graph`.
///
/// # Examples
///
/// ```
/// use gnt_core::{solve, PlacementProblem, SolverOptions};
/// use gnt_cfg::IntervalGraph;
///
/// let p = gnt_ir::parse("do i = 1, N\n  ... = x(a(i))\nenddo")?;
/// let g = IntervalGraph::from_program(&p)?;
/// let body = g.nodes().find(|&n| g.level(n) == 2).unwrap();
/// let mut problem = PlacementProblem::new(g.num_nodes(), 1);
/// problem.take(body, 0);
/// let solution = solve(&g, &problem, &SolverOptions::default());
/// // The eager production is hoisted all the way to ROOT.
/// assert!(solution.eager.res_in[g.root().index()].contains(0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve(graph: &IntervalGraph, problem: &PlacementProblem, opts: &SolverOptions) -> Solution {
    let mut scratch = SolverScratch::new();
    solve_into(graph, problem, opts, &mut scratch);
    scratch.export()
}

/// Solves into a caller-provided [`SolverScratch`], leaving every
/// Figure-13 variable readable in place (zero-copy views, no allocation
/// after warm-up). Use this for re-solve loops; call
/// [`SolverScratch::export`] when an owned [`Solution`] is needed. The
/// solve lays the delta basis, so a following [`crate::solve_delta`] of
/// the same graph re-solves incrementally. Also exported as
/// `solve_batch_into`.
///
/// # Panics
///
/// Panics if `problem` does not cover all nodes of `graph`.
pub fn solve_into(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    _opts: &SolverOptions,
    scratch: &mut SolverScratch,
) {
    check_coverage(graph, problem);
    scratch.counters.direct_solves += 1;
    walk(graph, problem, scratch);
}

/// A full walk of the schedule into `scratch`, laying the delta basis:
/// the body of [`solve_into`], and what [`crate::solve_delta`] runs when
/// it declines to re-walk.
pub(crate) fn walk(graph: &IntervalGraph, problem: &PlacementProblem, scratch: &mut SolverScratch) {
    scratch.prepare(graph.num_nodes(), problem.universe_size);
    let mut direct = Direct {
        slab: &mut scratch.slab,
        problem,
    };
    schedule(graph, &mut direct);
    scratch.set_delta_basis(Some(graph.fingerprint()));
}

/// [`solve_into`] followed by a copy of every variable into the
/// caller-reused `out`: a full solve that allocates nothing once
/// `scratch` and `out` are warm. Results are bit-identical to [`solve`].
///
/// # Panics
///
/// Panics if `problem` does not cover all nodes of `graph`.
///
/// # Examples
///
/// ```
/// use gnt_core::{solve, solve_batch, PlacementProblem, Solution, SolverOptions, SolverScratch};
/// use gnt_cfg::IntervalGraph;
///
/// let p = gnt_ir::parse("do i = 1, N\n  ... = x(a(i))\nenddo")?;
/// let g = IntervalGraph::from_program(&p)?;
/// let body = g.nodes().find(|&n| g.level(n) == 2).unwrap();
/// let mut problem = PlacementProblem::new(g.num_nodes(), 256);
/// problem.take(body, 200);
/// let opts = SolverOptions::default();
/// let (mut scratch, mut out) = (SolverScratch::new(), Solution::default());
/// solve_batch(&g, &problem, &opts, &mut scratch, &mut out); // sizes scratch and out
/// solve_batch(&g, &problem, &opts, &mut scratch, &mut out); // allocation-free
/// assert_eq!(out, solve(&g, &problem, &opts));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_batch(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
    out: &mut Solution,
) {
    solve_into(graph, problem, opts, scratch);
    // Every word of every row of `out` is overwritten below, so
    // re-shaping skips the zeroing.
    out.reshape_for_overwrite(graph.num_nodes(), problem.universe_size);
    scratch.write_into(out);
}

/// [`solve_into`] followed by [`SolverScratch::export`]: [`solve`] on a
/// reused scratch.
///
/// # Panics
///
/// Panics if `problem` does not cover all nodes of `graph`.
pub fn solve_batch_with_scratch(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
) -> Solution {
    solve_into(graph, problem, opts, scratch);
    scratch.export()
}

pub(crate) fn check_coverage(graph: &IntervalGraph, problem: &PlacementProblem) {
    assert_eq!(
        problem.num_nodes(),
        graph.num_nodes(),
        "problem must cover every graph node"
    );
}

/// The four-pass schedule of Figure 15 over arena rows, issued to `k`:
/// a loop over the four step functions, each of which evaluates one
/// group of equations at one node ([`Step`]). A full solve runs the loop
/// whole; [`rewalk`] re-runs single steps in the same order.
///
/// Kept out of line: inlined into [`solve_into`], the direct backend
/// measured about 4 % slower at 16 items.
#[inline(never)]
pub(crate) fn schedule<K: Kernels>(graph: &IntervalGraph, k: &mut K) {
    // ---- Pass 1: S2 (Eqs. 9–10) per header's children, then S1
    // (Eqs. 1–8), in REVERSEPREORDER. -------------------------------------
    for &node in graph.preorder().iter().rev() {
        for &c in graph.children(node) {
            loc_step(graph, k, node, c);
        }
        node_step(graph, k, node);
    }

    // ---- Passes 2–3: S3 (Eqs. 11–13) in PREORDER, then S4 (Eqs. 14–15),
    // once per flavor. -----------------------------------------------------
    for flavor in [Flavor::Eager, Flavor::Lazy] {
        for &node in graph.preorder() {
            given_step(graph, k, flavor, node);
        }
        for node in graph.nodes() {
            res_step(graph, k, flavor, node);
        }
    }
}

/// Arena row of `family` at node index `i` in a graph of `n` nodes.
#[inline(always)]
fn row(n: usize, family: usize, i: usize) -> usize {
    family * n + i
}

/// The two temporary rows after the `n`-node families.
#[inline(always)]
fn temps(n: usize) -> (usize, usize) {
    (NUM_FAMILIES * n, NUM_FAMILIES * n + 1)
}

/// Eqs. 9–10 at `c`, a child of header `h`: writes `GIVE_loc(c)` and
/// `STEAL_loc(c)`.
#[inline(always)]
fn loc_step<K: Kernels>(graph: &IntervalGraph, k: &mut K, h: NodeId, c: NodeId) {
    let n = graph.num_nodes();
    let fam = |f: usize, i: usize| row(n, f, i);
    let (tmp0, tmp1) = temps(n);
    let root = graph.root();
    let ci = c.index();
    // On reversed graphs a jump can enter `c` from a node whose rows are
    // not written yet; a full walk would read them as the zeros of
    // `prepare()`, so their terms are folded out. An F edge neither
    // enters nor leaves an interval, so an F predecessor other than ROOT
    // is a child of `h` ahead of `c`, written already: only J
    // predecessors need the check.
    let written = |p: NodeId| loc_written_before(graph, p, h, c);
    let all_written = graph.pred_edges(c).all(|(p, class)| match class {
        EdgeClass::Forward => p != root,
        EdgeClass::Jump | EdgeClass::JumpIn => written(p),
        _ => true,
    });
    debug_assert_eq!(all_written, graph.preds(c, EdgeMask::FJ).all(written));
    // Eq. 9: GIVE_loc(c) =
    //   (GIVE(c) ∪ TAKE(c) ∪ ∩_{p ∈ PREDS^FJ} GIVE_loc(p)) − STEAL(c)
    // The ∩ is ∅ if it meets an unwritten row.
    k.copy_or(tmp0, fam(F_GIVE, ci), fam(F_TAKE, ci));
    let mut first = true;
    if all_written {
        for p in graph.preds(c, EdgeMask::FJ) {
            if first {
                k.copy(tmp1, fam(F_GIVE_LOC, p.index()));
                first = false;
            } else {
                k.and(tmp1, fam(F_GIVE_LOC, p.index()));
            }
        }
    }
    if !first {
        k.or(tmp0, tmp1);
    }
    k.copy_andnot(fam(F_GIVE_LOC, ci), tmp0, fam(F_STEAL, ci));

    // Eq. 10: STEAL_loc(c) = STEAL(c)
    //   ∪ ⋃_{p ∈ PREDS^FJ} (STEAL_loc(p) − GIVE_loc(p))
    //   ∪ ⋃_{p ∈ PREDS^S} STEAL_loc(p)
    // An unwritten row adds nothing to a ∪.
    k.copy(tmp0, fam(F_STEAL, ci));
    for p in graph
        .preds(c, EdgeMask::FJ)
        .filter(|&p| all_written || written(p))
    {
        k.or_andnot(
            tmp0,
            fam(F_STEAL_LOC, p.index()),
            fam(F_GIVE_LOC, p.index()),
        );
    }
    for p in graph.preds(c, EdgeMask::S).filter(|&p| written(p)) {
        k.or(tmp0, fam(F_STEAL_LOC, p.index()));
    }
    k.copy(fam(F_STEAL_LOC, ci), tmp0);
}

/// Eqs. 1–8 at `node`: writes its `STEAL`, `GIVE`, `BLOCK`, `TAKEN_out`,
/// `TAKE`, `TAKEN_in`, `BLOCK_loc` and `TAKE_loc`.
#[inline(always)]
fn node_step<K: Kernels>(graph: &IntervalGraph, k: &mut K, node: NodeId) {
    let n = graph.num_nodes();
    let fam = |f: usize, i: usize| row(n, f, i);
    let (tmp0, _) = temps(n);
    let ni = node.index();

    // Eq. 1 / Eq. 2: fold in the interval summary via LASTCHILD.
    let poisoned = graph.is_poisoned(node);
    if poisoned {
        k.fill(fam(F_STEAL, ni));
    } else {
        k.load(fam(F_STEAL, ni), Init::Steal, ni);
    }
    k.load(fam(F_GIVE, ni), Init::Give, ni);
    if let Some(lc) = graph.last_child(node) {
        k.or(fam(F_STEAL, ni), fam(F_STEAL_LOC, lc.index()));
        k.or(fam(F_GIVE, ni), fam(F_GIVE_LOC, lc.index()));
    }

    // Eq. 3: BLOCK(n) = STEAL ∪ GIVE ∪ ⋃_{s ∈ SUCCS^E} BLOCK_loc(s)
    k.copy_or(fam(F_BLOCK, ni), fam(F_STEAL, ni), fam(F_GIVE, ni));
    for s in graph.succs(node, EdgeMask::E) {
        k.or(fam(F_BLOCK, ni), fam(F_BLOCK_LOC, s.index()));
    }

    // Eq. 4: TAKEN_out(n) = ∩_{s ∈ SUCCS^FJS} TAKEN_in(s)
    let mut first = true;
    for s in graph.succs(node, EdgeMask::FJS) {
        if first {
            k.copy(fam(F_TAKEN_OUT, ni), fam(F_TAKEN_IN, s.index()));
            first = false;
        } else {
            k.and(fam(F_TAKEN_OUT, ni), fam(F_TAKEN_IN, s.index()));
        }
    }
    if first {
        k.clear(fam(F_TAKEN_OUT, ni));
    }

    // Eq. 5: TAKE(n) = TAKE_init
    //   ∪ (⋃_{s ∈ SUCCS^E} TAKEN_in(s) − STEAL(n))
    //   ∪ ((TAKEN_out(n) ∩ ⋃_{s ∈ SUCCS^E} TAKE_loc(s)) − BLOCK(n))
    k.load(fam(F_TAKE, ni), Init::Take, ni);
    if !poisoned {
        k.clear(tmp0);
        for s in graph.succs(node, EdgeMask::E) {
            k.or(tmp0, fam(F_TAKEN_IN, s.index()));
        }
        k.or_andnot(fam(F_TAKE, ni), tmp0, fam(F_STEAL, ni));

        k.clear(tmp0);
        for s in graph.succs(node, EdgeMask::E) {
            k.or(tmp0, fam(F_TAKE_LOC, s.index()));
        }
        k.and(tmp0, fam(F_TAKEN_OUT, ni));
        k.andnot(tmp0, fam(F_BLOCK, ni));
        k.or(fam(F_TAKE, ni), tmp0);
    }

    // Eq. 6: TAKEN_in(n) = TAKE(n) ∪ (TAKEN_out(n) − BLOCK(n))
    k.copy_andnot(fam(F_TAKEN_IN, ni), fam(F_TAKEN_OUT, ni), fam(F_BLOCK, ni));
    k.or(fam(F_TAKEN_IN, ni), fam(F_TAKE, ni));

    // Eq. 7: BLOCK_loc(n) = (BLOCK(n) ∪ ⋃_{s ∈ SUCCS^F} BLOCK_loc(s))
    //                        − TAKE(n)
    k.copy(fam(F_BLOCK_LOC, ni), fam(F_BLOCK, ni));
    for s in graph.succs(node, EdgeMask::F) {
        k.or(fam(F_BLOCK_LOC, ni), fam(F_BLOCK_LOC, s.index()));
    }
    k.andnot(fam(F_BLOCK_LOC, ni), fam(F_TAKE, ni));

    // Eq. 8: TAKE_loc(n) = TAKE(n)
    //   ∪ (⋃_{s ∈ SUCCS^EF} TAKE_loc(s) − BLOCK(n))
    k.clear(fam(F_TAKE_LOC, ni));
    for s in graph.succs(node, EdgeMask::EF) {
        k.or(fam(F_TAKE_LOC, ni), fam(F_TAKE_LOC, s.index()));
    }
    k.andnot(fam(F_TAKE_LOC, ni), fam(F_BLOCK, ni));
    k.or(fam(F_TAKE_LOC, ni), fam(F_TAKE, ni));
}

/// Whether pass 1 of [`schedule`] writes the `GIVE_loc`/`STEAL_loc` rows
/// of `p` before those of `c`, a child of `h`. Pass 1 writes a node's
/// `*_loc` rows when it visits the header the node is a child of (ROOT is
/// nobody's child), and visits headers in REVERSEPREORDER, their children
/// in PREORDER.
pub(crate) fn loc_written_before(graph: &IntervalGraph, p: NodeId, h: NodeId, c: NodeId) -> bool {
    let hp = parent(graph, p);
    if p == graph.root() {
        false
    } else if hp == h {
        graph.preorder_index(p) < graph.preorder_index(c)
    } else {
        graph.preorder_index(hp) > graph.preorder_index(h)
    }
}

/// Whether pass 2 of [`schedule`] writes `GIVEN_out(p)` before it
/// evaluates Eq. 11 at `n`: it visits nodes in PREORDER.
pub(crate) fn given_out_written_before(graph: &IntervalGraph, p: NodeId, n: NodeId) -> bool {
    graph.preorder_index(p) < graph.preorder_index(n)
}

/// Eqs. 11–13 at `node` for one flavor: writes its `GIVEN_in`, `GIVEN`
/// and `GIVEN_out`.
#[inline(always)]
fn given_step<K: Kernels>(graph: &IntervalGraph, k: &mut K, flavor: Flavor, node: NodeId) {
    let n = graph.num_nodes();
    let fam = |f: usize, i: usize| row(n, f, i);
    let (tmp0, _) = temps(n);
    let off = flavor_offset(flavor);
    let (f_gin, f_given, f_gout) = (F_GIVEN_IN + off, F_GIVEN + off, F_GIVEN_OUT + off);
    let ni = node.index();
    // Eq. 11: GIVEN_in(n) = (GIVEN(HEADER(n)) − STEAL(HEADER(n)))
    //   ∪ ∩_{p ∈ PREDS^FJ} GIVEN_out(p)
    //   ∪ (TAKEN_in(n) ∩ ⋃_{q ∈ PREDS^FJ} GIVEN_out(q))
    //
    // Deviation from the paper, which writes just GIVEN(HEADER(n)): the
    // header's availability only describes *loop entry*. An item stolen
    // inside the loop without resupply (∈ STEAL(h)) is gone on iteration
    // 2+, so propagating it into the body lets a JUMP out of the loop
    // escape with stale availability and breaks C3 (counterexample: take
    // x; do { if t goto 99; steal x }; 99 take x — the jump path on
    // iteration 2 has x destroyed). Subtracting STEAL(h) restores
    // must-availability over all iterations and is consistent with every
    // §4 example value.
    match graph.header_of(node) {
        Some(h) => {
            k.copy_andnot(
                fam(f_gin, ni),
                fam(f_given, h.index()),
                fam(F_STEAL, h.index()),
            );
        }
        None => k.clear(fam(f_gin, ni)),
    }
    // On reversed graphs a jump may enter this node's interval
    // *bypassing* it (§5.3). Availability at the header must then also
    // hold along those entries, so the jump-in sources join the
    // predecessor set for both the must-intersection and the
    // partial-availability term — the RES_out mechanism (Eq. 15) then
    // places production on the deficient jump path, exactly the pad
    // placements of Figure 14.
    // As in Eqs. 9–10, a ∩ meeting an unwritten row is ∅ and an
    // unwritten row adds nothing to the ∪. The preorder is topological
    // over every edge but CYCLE, so each `PREDS^FJ` row is written
    // already and only a jump-in source can be unwritten.
    let written = |p: &NodeId| given_out_written_before(graph, *p, node);
    debug_assert!(graph.preds(node, EdgeMask::FJ).all(|p| written(&p)));
    let all_written = graph.jump_in_sources(node).iter().all(written);
    let eq11_preds = || {
        graph
            .preds(node, EdgeMask::FJ)
            .chain(graph.jump_in_sources(node).iter().copied())
    };
    let mut first = true;
    if all_written {
        for p in eq11_preds() {
            if first {
                k.copy(tmp0, fam(f_gout, p.index()));
                first = false;
            } else {
                k.and(tmp0, fam(f_gout, p.index()));
            }
        }
    }
    if !first {
        k.or(fam(f_gin, ni), tmp0);
    }
    k.clear(tmp0);
    for q in eq11_preds().filter(|q| all_written || written(q)) {
        k.or(tmp0, fam(f_gout, q.index()));
    }
    k.and(tmp0, fam(F_TAKEN_IN, ni));
    k.or(fam(f_gin, ni), tmp0);

    // Eq. 12: GIVEN(n) = GIVEN_in(n) ∪ TAKEN_in(n)   (EAGER)
    //                  = GIVEN_in(n) ∪ TAKE(n)       (LAZY)
    let consumed = match flavor {
        Flavor::Eager => F_TAKEN_IN,
        Flavor::Lazy => F_TAKE,
    };
    k.copy_or(fam(f_given, ni), fam(f_gin, ni), fam(consumed, ni));

    // Eq. 13: GIVEN_out(n) = (GIVE(n) ∪ GIVEN(n)) − STEAL(n)
    k.copy_or_andnot(
        fam(f_gout, ni),
        fam(F_GIVE, ni),
        fam(f_given, ni),
        fam(F_STEAL, ni),
    );
}

/// Eqs. 14–15 at `node` for one flavor: writes its `RES_in` and
/// `RES_out`.
#[inline(always)]
fn res_step<K: Kernels>(graph: &IntervalGraph, k: &mut K, flavor: Flavor, node: NodeId) {
    let n = graph.num_nodes();
    let fam = |f: usize, i: usize| row(n, f, i);
    let off = flavor_offset(flavor);
    let (f_gin, f_given, f_gout) = (F_GIVEN_IN + off, F_GIVEN + off, F_GIVEN_OUT + off);
    let (f_rin, f_rout) = (F_RES_IN + off, F_RES_OUT + off);
    let ni = node.index();
    // Eq. 14: RES_in(n) = GIVEN(n) − GIVEN_in(n)
    k.copy_andnot(fam(f_rin, ni), fam(f_given, ni), fam(f_gin, ni));

    // Eq. 15: RES_out(n) = ⋃_{s ∈ SUCCS^FJ} GIVEN_in(s) − GIVEN_out(n)
    k.clear(fam(f_rout, ni));
    for s in graph.succs(node, EdgeMask::FJ) {
        k.or(fam(f_rout, ni), fam(f_gin, s.index()));
    }
    k.andnot(fam(f_rout, ni), fam(f_gout, ni));
}

/// One step of [`schedule`]: one group of equations at one node. Every
/// step starts each row it writes with a full overwrite, reads only rows
/// that earlier steps wrote (or that no step writes), and each family row
/// has exactly one writing step, so re-running a step against the rows of
/// a finished walk recomputes its outputs exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Eqs. 9–10 at a child of a header ([`loc_step`]).
    Loc(NodeId),
    /// Eqs. 1–8 ([`node_step`]).
    Node(NodeId),
    /// Eqs. 11–13 for one flavor ([`given_step`]).
    Given(Flavor, NodeId),
    /// Eqs. 14–15 for one flavor ([`res_step`]).
    Res(Flavor, NodeId),
}

/// The header whose `CHILDREN` list holds `c`: its innermost enclosing
/// loop header, or ROOT.
fn parent(graph: &IntervalGraph, c: NodeId) -> NodeId {
    graph
        .enclosing_headers(c)
        .first()
        .copied()
        .unwrap_or(graph.root())
}

fn flavor_index(flavor: Flavor) -> usize {
    flavor_offset(flavor) / FLAVOR_STRIDE
}

impl Step {
    /// The number of steps a full walk of an `n`-node graph runs: a
    /// `loc_step` per node but ROOT (nobody's child), a `node_step` per
    /// node, and a `given_step` and a `res_step` per node and flavor.
    pub(crate) fn count(n: usize) -> usize {
        6 * n - 1
    }

    /// The step's position in [`schedule`]: keys rise in the order the
    /// walk runs the steps. Pass 1 visits header `h` at rank
    /// `n − 1 − PREORDER(h)`, its children's `loc_step`s in preorder and
    /// then its own `node_step`; each flavor then runs its `given_step`s
    /// in preorder and its `res_step`s in node order.
    fn key(self, graph: &IntervalGraph) -> u64 {
        let n = graph.num_nodes() as u64;
        let pre = |v: NodeId| graph.preorder_index(v) as u64;
        let pass1 = |h: NodeId, slot: u64| (n - 1 - pre(h)) * (n + 1) + slot;
        let place = |f: Flavor, slot: u64| n * (n + 1) + flavor_index(f) as u64 * 2 * n + slot;
        match self {
            Step::Loc(c) => pass1(parent(graph, c), pre(c)),
            Step::Node(v) => pass1(v, n),
            Step::Given(f, v) => place(f, pre(v)),
            Step::Res(f, v) => place(f, n + v.index() as u64),
        }
    }

    /// A dense id in `0..6n`, the step's bit in the queued set.
    fn id(self, n: usize) -> usize {
        match self {
            Step::Loc(c) => c.index(),
            Step::Node(v) => n + v.index(),
            Step::Given(f, v) => 2 * n + 2 * n * flavor_index(f) + v.index(),
            Step::Res(f, v) => 3 * n + 2 * n * flavor_index(f) + v.index(),
        }
    }

    fn from_id(id: usize, n: usize) -> Step {
        let v = NodeId((id % n) as u32);
        match id / n {
            0 => Step::Loc(v),
            1 => Step::Node(v),
            2 => Step::Given(Flavor::Eager, v),
            3 => Step::Res(Flavor::Eager, v),
            4 => Step::Given(Flavor::Lazy, v),
            _ => Step::Res(Flavor::Lazy, v),
        }
    }

    /// The rows the step writes: families `first..first + count` of one
    /// node.
    fn outputs(self) -> (NodeId, usize, usize) {
        match self {
            Step::Loc(c) => (c, F_GIVE_LOC, 2),
            Step::Node(v) => (v, F_STEAL, 8),
            Step::Given(f, v) => (v, F_GIVEN_IN + flavor_offset(f), 3),
            Step::Res(f, v) => (v, F_RES_IN + flavor_offset(f), 2),
        }
    }
}

/// Runs one step of [`schedule`] on `k`.
#[inline(always)]
fn run_step<K: Kernels>(graph: &IntervalGraph, k: &mut K, step: Step) {
    match step {
        Step::Loc(c) => loc_step(graph, k, parent(graph, c), c),
        Step::Node(v) => node_step(graph, k, v),
        Step::Given(f, v) => given_step(graph, k, f, v),
        Step::Res(f, v) => res_step(graph, k, f, v),
    }
}

/// Calls `f` with every step that may read row `family` of `m`, the
/// writing step's own internal reads aside: the reader rule of the
/// re-walk. It follows the graph's edge classes, one case per family.
fn for_each_reader(graph: &IntervalGraph, family: usize, m: NodeId, mut f: impl FnMut(Step)) {
    fn both(f: &mut impl FnMut(Step), v: NodeId) {
        f(Step::Given(Flavor::Eager, v));
        f(Step::Given(Flavor::Lazy, v));
    }
    match family {
        // Eqs. 9–10 at the FJ successors (STEAL_loc also at the S ones),
        // Eqs. 1–2 at the header `m` is the LASTCHILD of.
        F_GIVE_LOC | F_STEAL_LOC => {
            graph.succs(m, EdgeMask::FJ).for_each(|s| f(Step::Loc(s)));
            if family == F_STEAL_LOC {
                graph.succs(m, EdgeMask::S).for_each(|s| f(Step::Loc(s)));
            }
            for h in graph.succs(m, EdgeMask::C) {
                if graph.last_child(h) == Some(m) {
                    f(Step::Node(h));
                }
            }
        }
        // Eqs. 9–10 at `m` itself; Eqs. 11–13 at `m` (TAKE: LAZY's
        // Eq. 12 only), and STEAL(HEADER(s)) at the ENTRY successors.
        F_STEAL | F_GIVE | F_TAKE => {
            if m != graph.root() {
                f(Step::Loc(m));
            }
            if family == F_TAKE {
                f(Step::Given(Flavor::Lazy, m));
            } else {
                both(&mut f, m);
            }
            if family == F_STEAL {
                for s in graph.succs(m, EdgeMask::E) {
                    both(&mut f, s);
                }
            }
        }
        // Eqs. 4–5 at the E/F/J/S predecessors; Eq. 11 at `m`.
        F_TAKEN_IN => {
            for p in graph.preds(m, EdgeMask::E | EdgeMask::FJS) {
                f(Step::Node(p));
            }
            both(&mut f, m);
        }
        // Eqs. 3, 5, 7 and 8 at the E/F predecessors.
        F_BLOCK_LOC | F_TAKE_LOC => {
            graph.preds(m, EdgeMask::EF).for_each(|p| f(Step::Node(p)));
        }
        F_BLOCK | F_TAKEN_OUT => {}
        _ => {
            let flavor = if family >= F_GIVEN_IN + FLAVOR_STRIDE {
                Flavor::Lazy
            } else {
                Flavor::Eager
            };
            match family - flavor_offset(flavor) {
                // Eq. 14 at `m`, Eq. 15 at the FJ predecessors.
                F_GIVEN_IN => {
                    f(Step::Res(flavor, m));
                    for p in graph.preds(m, EdgeMask::FJ) {
                        f(Step::Res(flavor, p));
                    }
                }
                // GIVEN(HEADER(s)) in Eq. 11 at the ENTRY successors, and
                // Eq. 14 at `m`.
                F_GIVEN => {
                    for s in graph.succs(m, EdgeMask::E) {
                        f(Step::Given(flavor, s));
                    }
                    f(Step::Res(flavor, m));
                }
                // Eq. 11 at the FJ successors and at the headers whose
                // jump-in sources list `m`; Eq. 15 at `m`.
                F_GIVEN_OUT => {
                    for s in graph.succs(m, EdgeMask::FJ) {
                        f(Step::Given(flavor, s));
                    }
                    for (x, class) in graph.succ_edges(m) {
                        if class == EdgeClass::JumpIn {
                            for &h in graph.enclosing_headers(x) {
                                if graph.jump_in_sources(h).contains(&m) {
                                    f(Step::Given(flavor, h));
                                }
                            }
                        }
                    }
                    f(Step::Res(flavor, m));
                }
                _ => {}
            }
        }
    }
}

/// Whether `reader`, which runs before the step writing row `family` of
/// `m`, leaves that row out: the reads [`loc_written_before`] and
/// [`given_out_written_before`] fold out of the walk.
fn folded_read(graph: &IntervalGraph, family: usize, m: NodeId, reader: Step) -> bool {
    match reader {
        Step::Loc(c) if family == F_GIVE_LOC || family == F_STEAL_LOC => {
            !loc_written_before(graph, m, parent(graph, c), c)
        }
        Step::Given(f, v) if family == F_GIVEN_OUT + flavor_offset(f) => {
            !given_out_written_before(graph, m, v)
        }
        _ => false,
    }
}

/// The re-walk's buffers, kept in a [`SolverScratch`]: the queued steps
/// as a min-heap of `(key, id)`, their ids as a bitset, and the prior
/// values of the running step's output rows. Every pop clears its own
/// bit, so the bitset is all zero between calls, and a warm call neither
/// clears nor allocates.
#[derive(Debug, Default)]
pub(crate) struct Worklist {
    pub(crate) heap: BinaryHeap<Reverse<(u64, u32)>>,
    pub(crate) queued: Vec<u64>,
    pub(crate) snapshot: Vec<u64>,
}

/// Queues `step` unless it is queued already.
fn push(
    heap: &mut BinaryHeap<Reverse<(u64, u32)>>,
    queued: &mut [u64],
    graph: &IntervalGraph,
    step: Step,
) {
    let id = step.id(graph.num_nodes());
    let (w, bit) = (id / 64, 1u64 << (id % 64));
    if queued[w] & bit == 0 {
        queued[w] |= bit;
        heap.push(Reverse((step.key(graph), id as u32)));
    }
}

/// Re-runs, in schedule order, only the steps downstream of the `*_init`
/// rows `dirty` names, on a scratch that holds a finished walk of
/// `graph`; returns how many steps ran. A marked `(kind, n)`
/// queues `node_step(n)`, which loads all three of `n`'s initial rows.
/// Each popped step saves its output rows, re-runs on the direct backend
/// and queues the readers of each row that changed, so the walk stops
/// wherever a step reproduces its rows. Only readers later in the
/// schedule are queued: the earlier ones are exactly the reads the walk
/// folds out, which read ∅ in any full walk.
pub(crate) fn rewalk(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    scratch: &mut SolverScratch,
    dirty: impl Iterator<Item = NodeId>,
) -> usize {
    let n = graph.num_nodes();
    let stride = scratch.slab.stride();
    let Worklist {
        heap,
        queued,
        snapshot,
    } = &mut scratch.worklist;
    let words = (6 * n).div_ceil(64);
    if queued.len() < words {
        queued.resize(words, 0);
    }
    if snapshot.len() < 8 * stride {
        snapshot.resize(8 * stride, 0);
    }
    for node in dirty {
        push(heap, queued, graph, Step::Node(node));
    }
    let mut direct = Direct {
        slab: &mut scratch.slab,
        problem,
    };
    let mut run = 0;
    while let Some(Reverse((key, id))) = heap.pop() {
        let id = id as usize;
        queued[id / 64] &= !(1u64 << (id % 64));
        let step = Step::from_id(id, n);
        run += 1;
        let (m, first, count) = step.outputs();
        let row = |k: usize| (first + k) * n + m.index();
        let saved = |k: usize| k * stride..(k + 1) * stride;
        for k in 0..count {
            snapshot[saved(k)].copy_from_slice(direct.slab.row(row(k)).words());
        }
        run_step(graph, &mut direct, step);
        for k in 0..count {
            if direct.slab.row(row(k)).words() == &snapshot[saved(k)] {
                continue;
            }
            let family = first + k;
            for_each_reader(graph, family, m, |reader| {
                if reader.key(graph) > key {
                    push(heap, queued, graph, reader);
                } else {
                    debug_assert!(
                        folded_read(graph, family, m, reader),
                        "{reader:?} reads family {family} of {m} ahead of {step:?}"
                    );
                }
            });
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnt_cfg::{IntervalGraph, NodeKind};
    use gnt_ir::{parse, StmtKind};

    fn graph(src: &str) -> IntervalGraph {
        IntervalGraph::from_program(&parse(src).unwrap()).unwrap()
    }

    /// Finds the node lowered from the statement whose pretty-printed RHS
    /// (or LHS for loop/branch) contains `needle`.
    fn stmt_node(g: &IntervalGraph, p: &gnt_ir::Program, needle: &str) -> NodeId {
        g.nodes()
            .find(|&n| match g.kind(n) {
                NodeKind::Stmt(s) | NodeKind::LoopHeader(s) | NodeKind::Branch(s) => {
                    let stmt = p.stmt(s);
                    let text = match &stmt.kind {
                        StmtKind::Assign { lhs, rhs } => format!("{lhs} = {rhs}"),
                        StmtKind::Do { var, .. } => format!("do {var}"),
                        StmtKind::If { cond, .. } => format!("if {cond}"),
                        StmtKind::IfGoto { cond, target } => {
                            format!("if {cond} goto {target}")
                        }
                        StmtKind::Goto(t) => format!("goto {t}"),
                        StmtKind::Continue => "continue".to_string(),
                    };
                    text.contains(needle)
                }
                _ => false,
            })
            .unwrap_or_else(|| panic!("no node for {needle}"))
    }

    #[test]
    fn straight_line_consumer_gets_local_production() {
        // x consumed at one node; no hoisting opportunity beyond ROOT.
        let src = "a = 1\n... = x(1)\nb = 2";
        let p = parse(src).unwrap();
        let g = graph(src);
        let consumer = stmt_node(&g, &p, "x(1)");
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.take(consumer, 0);
        let sol = solve(&g, &prob, &SolverOptions::default());
        // Guaranteed consumption from the start: eager production at ROOT.
        assert!(sol.eager.res_in[g.root().index()].contains(0));
        // Lazy production exactly at the consumer.
        assert!(sol.lazy.res_in[consumer.index()].contains(0));
        // Neither places anything anywhere else.
        assert_eq!(sol.eager.num_productions(), 1);
        assert_eq!(sol.lazy.num_productions(), 1);
    }

    #[test]
    fn loop_consumption_is_hoisted_and_not_repeated() {
        let src = "do i = 1, N\n  ... = x(a(i))\nenddo";
        let p = parse(src).unwrap();
        let g = graph(src);
        let consumer = stmt_node(&g, &p, "x(a(i))");
        let header = stmt_node(&g, &p, "do i");
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.take(consumer, 0);
        let sol = solve(&g, &prob, &SolverOptions::default());
        // Zero-trip hoisting (§3.2): consumption reaches TAKE(header) and
        // TAKEN_in(ROOT); eager production at ROOT, lazy right before the
        // loop (RES_in at the header).
        assert!(sol.vars.take[header.index()].contains(0));
        assert!(sol.eager.res_in[g.root().index()].contains(0));
        assert!(sol.lazy.res_in[header.index()].contains(0));
        // O1: nothing is produced inside the loop.
        assert!(sol.eager.res_in[consumer.index()].is_empty());
        assert!(sol.lazy.res_in[consumer.index()].is_empty());
        assert_eq!(sol.eager.num_productions(), 1);
        assert_eq!(sol.lazy.num_productions(), 1);
    }

    #[test]
    fn no_zero_trip_hoist_keeps_production_inside_loop() {
        let src = "do i = 1, N\n  ... = x(a(i))\nenddo";
        let p = parse(src).unwrap();
        let mut g = graph(src);
        g.poison_loop_headers();
        let consumer = stmt_node(&g, &p, "x(a(i))");
        let header = stmt_node(&g, &p, "do i");
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.take(consumer, 0);
        let sol = solve(&g, &prob, &SolverOptions::default());
        assert!(!sol.vars.take[header.index()].contains(0));
        assert!(sol.eager.res_in[g.root().index()].is_empty());
        // Production stays inside the loop body.
        assert!(sol.lazy.res_in[consumer.index()].contains(0));
    }

    #[test]
    fn steal_blocks_hoisting_past_the_destroyer() {
        // x destroyed between two consumers: the second consumer needs a
        // second production placed after the steal.
        let src = "... = x(1)\nz = 0\n... = x(1)";
        let p = parse(src).unwrap();
        let g = graph(src);
        let c1 = stmt_node(&g, &p, "x(1)");
        let killer = stmt_node(&g, &p, "z = 0");
        // second consumer: find the *other* node taking x(1)
        let c2 = g
            .nodes()
            .filter(|&n| matches!(g.kind(n), NodeKind::Stmt(_)))
            .find(|&n| n != c1 && n != killer)
            .unwrap();
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.take(c1, 0).take(c2, 0).steal(killer, 0);
        let sol = solve(&g, &prob, &SolverOptions::default());
        // Two eager productions: one before c1 (hoisted to ROOT), one
        // after the steal.
        assert_eq!(sol.eager.num_productions(), 2);
        assert!(sol.eager.res_in[g.root().index()].contains(0));
        // The second is not placed before the killer.
        assert!(sol.lazy.res_in[c2.index()].contains(0));
    }

    #[test]
    fn give_makes_production_free() {
        // A side effect produces x before the consumer: no production at
        // all is needed (O2 via GIVE, §3.1).
        let src = "y = 1\n... = x(1)";
        let p = parse(src).unwrap();
        let g = graph(src);
        let giver = stmt_node(&g, &p, "y = 1");
        let consumer = stmt_node(&g, &p, "x(1)");
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.give(giver, 0).take(consumer, 0);
        let sol = solve(&g, &prob, &SolverOptions::default());
        assert_eq!(
            sol.eager.num_productions(),
            0,
            "eager should ride the free production"
        );
        assert_eq!(sol.lazy.num_productions(), 0);
    }

    #[test]
    fn partially_free_production_is_balanced_on_the_other_branch() {
        // GIVE on the then-branch only: the else branch must produce, and
        // the join must NOT produce again (Eq. 11's partial-availability
        // term plus RES_out balance the paths).
        let src = "if t then\n  y = 1\nelse\n  z = 2\nendif\n... = x(1)";
        let p = parse(src).unwrap();
        let g = graph(src);
        let giver = stmt_node(&g, &p, "y = 1");
        let other = stmt_node(&g, &p, "z = 2");
        let consumer = stmt_node(&g, &p, "x(1)");
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.give(giver, 0).take(consumer, 0);
        let sol = solve(&g, &prob, &SolverOptions::default());
        // Exactly one production (on the else side), for each flavor.
        assert_eq!(sol.eager.num_productions(), 1, "{}", g.dump());
        assert_eq!(sol.lazy.num_productions(), 1);
        // And it is on the else path: either at `z = 2` itself or on its
        // exit edge, never at or before the branch, never after the join.
        let eager_at_other = sol.eager.res_in[other.index()].contains(0)
            || sol.eager.res_out[other.index()].contains(0);
        assert!(eager_at_other, "{}", g.dump());
        assert!(sol.lazy.res_in[consumer.index()].is_empty());
    }

    #[test]
    fn two_branch_consumers_meet_at_shared_hoist_point() {
        // Figure 1/2 shape: both branches consume x; production hoists
        // above the branch, once.
        let src = "if t then\n  ... = x(1)\nelse\n  ... = x(1)\nendif";
        let g = graph(src);
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        for n in g.nodes() {
            if matches!(g.kind(n), NodeKind::Stmt(_)) {
                prob.take(n, 0);
            }
        }
        let sol = solve(&g, &prob, &SolverOptions::default());
        assert_eq!(sol.eager.num_productions(), 1);
        assert!(sol.eager.res_in[g.root().index()].contains(0));
    }

    #[test]
    fn consumer_on_one_branch_only_is_not_hoisted_above_branch() {
        // Safety (C2): production must not be placed on paths that do not
        // consume.
        let src = "if t then\n  ... = x(1)\nelse\n  z = 2\nendif";
        let p = parse(src).unwrap();
        let g = graph(src);
        let consumer = stmt_node(&g, &p, "x(1)");
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.take(consumer, 0);
        let sol = solve(&g, &prob, &SolverOptions::default());
        assert!(sol.eager.res_in[g.root().index()].is_empty());
        assert!(
            sol.eager.res_in[consumer.index()].contains(0),
            "{}",
            g.dump()
        );
        assert_eq!(sol.eager.num_productions(), 1);
    }

    #[test]
    fn empty_problem_produces_nothing() {
        let g = graph("a = 1\nb = 2");
        let prob = PlacementProblem::new(g.num_nodes(), 3);
        let sol = solve(&g, &prob, &SolverOptions::default());
        assert_eq!(sol.eager.num_productions(), 0);
        assert_eq!(sol.lazy.num_productions(), 0);
    }

    #[test]
    fn nested_loop_consumption_hoists_through_both_levels() {
        let src = "do i = 1, N\n  do j = 1, M\n    ... = x(a(j))\n  enddo\nenddo";
        let p = parse(src).unwrap();
        let g = graph(src);
        let consumer = stmt_node(&g, &p, "x(a(j))");
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.take(consumer, 0);
        let sol = solve(&g, &prob, &SolverOptions::default());
        assert!(sol.eager.res_in[g.root().index()].contains(0));
        assert_eq!(sol.eager.num_productions(), 1);
        // Lazy sits right before the *outer* loop: hoisted consumption
        // surfaces at the outer header.
        let outer = stmt_node(&g, &p, "do i");
        assert!(sol.lazy.res_in[outer.index()].contains(0), "{}", g.dump());
    }

    #[test]
    fn steal_inside_loop_forces_per_iteration_production() {
        // x consumed then destroyed every iteration: production cannot be
        // hoisted out (BLOCK at the header) and must happen each trip.
        let src = "do i = 1, N\n  ... = x(a(i))\n  z = 0\nenddo";
        let p = parse(src).unwrap();
        let g = graph(src);
        let consumer = stmt_node(&g, &p, "x(a(i))");
        let killer = stmt_node(&g, &p, "z = 0");
        let header = stmt_node(&g, &p, "do i");
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.take(consumer, 0).steal(killer, 0);
        let sol = solve(&g, &prob, &SolverOptions::default());
        assert!(sol.vars.steal[header.index()].contains(0));
        assert!(sol.vars.block[header.index()].contains(0));
        // Lazy production at the consumer, every iteration.
        assert!(sol.lazy.res_in[consumer.index()].contains(0));
        assert!(sol.eager.res_in[g.root().index()].is_empty());
    }

    #[test]
    fn scratch_reuse_is_stable_across_solves() {
        // Two different problems through one scratch: results match the
        // fresh-scratch path, and the arena is reshaped, not corrupted.
        let src = "do i = 1, N\n  ... = x(a(i))\nenddo\n... = x(1)";
        let g = graph(src);
        let mut scratch = SolverScratch::new();
        for items in [1usize, 3, 70] {
            let p = parse(src).unwrap();
            let consumer = stmt_node(&g, &p, "x(a(i))");
            let mut prob = PlacementProblem::new(g.num_nodes(), items);
            prob.take(consumer, items - 1);
            let fresh = solve(&g, &prob, &SolverOptions::default());
            solve_into(&g, &prob, &SolverOptions::default(), &mut scratch);
            let reused = scratch.export();
            assert_eq!(fresh, reused, "items = {items}");
            assert_eq!(
                scratch.num_productions(Flavor::Eager),
                fresh.eager.num_productions()
            );
        }
    }

    #[test]
    fn output_buffer_reshapes_across_universe_sizes() {
        let g = graph(
            "do i = 1, N\n  ... = x(a(i))\n  if t(i) goto 7\n  z = 0\nenddo\n\
             if test then\n  c = 3\nelse\n  d = 4\nendif\n7 e = 5",
        );
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        let mut out = Solution::default();
        // Shrinking and growing the universe through the same buffer must
        // never leak stale high bits into a narrower solve.
        for items in [130usize, 64, 65, 63, 1, 300] {
            let mut prob = PlacementProblem::new(g.num_nodes(), items);
            let stmts = g
                .nodes()
                .filter(|&n| matches!(g.kind(n), NodeKind::Stmt(_)));
            for (k, n) in stmts.enumerate() {
                prob.take(n, k % items);
            }
            solve_batch(&g, &prob, &opts, &mut scratch, &mut out);
            assert_eq!(out, solve(&g, &prob, &opts), "items = {items}");
        }
    }

    /// The static predicates behind the fold agree with the order the
    /// walk really writes rows in, on every neighbour read of Eqs. 9–11:
    /// a neighbour's row is written before the node's own row iff the
    /// predicate says so. Covers forward, reversed and reversed-poisoned
    /// graphs of random programs with gotos; the reversed ones must hit
    /// unwritten rows.
    #[test]
    fn static_written_predicates_match_dynamic_stamps() {
        let config = crate::GenConfig {
            goto_prob: 0.1,
            ..Default::default()
        };
        let mut graphs = vec![graph(
            "do i = 1, N\n  ... = x(a(i))\n  if t(i) goto 7\n  z = 0\nenddo\n7 e = 5",
        )];
        for seed in 0..64u64 {
            let forward =
                IntervalGraph::from_program(&crate::random_program(seed, &config)).unwrap();
            let reversed = gnt_cfg::reversed_graph(&forward).unwrap();
            let mut poisoned = reversed.clone();
            for h in reversed.nodes() {
                if !reversed.jump_in_sources(h).is_empty() {
                    poisoned.poison(h);
                }
            }
            graphs.extend([forward, reversed, poisoned]);
        }
        let mut unwritten = 0usize;
        for (k, g) in graphs.iter().enumerate() {
            let n = g.num_nodes();
            // Each row's stamp: the index of the call that first wrote it.
            let mut trace = Trace(Vec::new());
            schedule(g, &mut trace);
            let mut first_write = vec![usize::MAX; NUM_FAMILIES * n + 2];
            for (i, &[_, dst, ..]) in trace.0.iter().enumerate() {
                first_write[dst] = first_write[dst].min(i);
            }
            let before = |fam: usize, p: NodeId, own: NodeId| {
                first_write[fam * n + p.index()] < first_write[fam * n + own.index()]
            };
            for h in g.nodes() {
                for &c in g.children(h) {
                    let fj = g.preds(c, EdgeMask::FJ).map(|p| (F_GIVE_LOC, p));
                    for (fam, p) in fj.chain(g.preds(c, EdgeMask::S).map(|p| (F_STEAL_LOC, p))) {
                        let verdict = loc_written_before(g, p, h, c);
                        assert_eq!(verdict, before(fam, p, c), "graph {k}: {p} into {c}");
                        unwritten += usize::from(!verdict);
                    }
                }
                let eq11 = g
                    .preds(h, EdgeMask::FJ)
                    .chain(g.jump_in_sources(h).iter().copied());
                for p in eq11 {
                    let verdict = given_out_written_before(g, p, h);
                    for off in [0, crate::scratch::FLAVOR_STRIDE] {
                        let (gout, gin) = (F_GIVEN_OUT + off, F_GIVEN_IN + off);
                        let dynamic =
                            first_write[gout * n + p.index()] < first_write[gin * n + h.index()];
                        assert_eq!(verdict, dynamic, "graph {k}: GIVEN_out({p}) into {h}");
                    }
                    unwritten += usize::from(!verdict);
                }
            }
        }
        assert!(unwritten > 0, "the corpus must exercise the fold");
    }

    /// A backend that runs no kernel and logs every call as
    /// `[op, dst, a, b]`.
    struct Trace(Vec<[usize; 4]>);

    impl Kernels for Trace {
        fn clear(&mut self, dst: usize) {
            self.0.push([0, dst, 0, 0]);
        }
        fn fill(&mut self, dst: usize) {
            self.0.push([1, dst, 0, 0]);
        }
        fn copy(&mut self, dst: usize, a: usize) {
            self.0.push([2, dst, a, 0]);
        }
        fn or(&mut self, dst: usize, a: usize) {
            self.0.push([3, dst, a, 0]);
        }
        fn and(&mut self, dst: usize, a: usize) {
            self.0.push([4, dst, a, 0]);
        }
        fn andnot(&mut self, dst: usize, a: usize) {
            self.0.push([5, dst, a, 0]);
        }
        fn or_andnot(&mut self, dst: usize, a: usize, b: usize) {
            self.0.push([6, dst, a, b]);
        }
        fn load(&mut self, dst: usize, init: Init, node: usize) {
            self.0.push([7 + init as usize, dst, node, 0]);
        }
    }

    /// A backend that runs no kernel and watches one step at a time: the
    /// rows the step reads that it has not written itself, and the rows
    /// it writes. It fails a step that reads a temporary or one of its
    /// own output rows before overwriting it, or writes outside its
    /// outputs.
    struct Watch {
        family_rows: usize,
        outputs: Vec<usize>,
        written: Vec<usize>,
        reads: Vec<usize>,
    }

    impl Watch {
        fn read(&mut self, r: usize) {
            if self.written.contains(&r) {
                return;
            }
            assert!(r < self.family_rows, "temporary {r} read before written");
            assert!(
                !self.outputs.contains(&r),
                "row {r} read before overwritten"
            );
            self.reads.push(r);
        }
        fn write(&mut self, dst: usize) {
            assert!(
                dst >= self.family_rows || self.outputs.contains(&dst),
                "row {dst} written outside the step's outputs"
            );
            if !self.written.contains(&dst) {
                self.written.push(dst);
            }
        }
        fn rmw(&mut self, dst: usize, srcs: &[usize]) {
            srcs.iter().for_each(|&r| self.read(r));
            self.read(dst);
            self.write(dst);
        }
    }

    impl Kernels for Watch {
        fn clear(&mut self, dst: usize) {
            self.write(dst);
        }
        fn fill(&mut self, dst: usize) {
            self.write(dst);
        }
        fn copy(&mut self, dst: usize, a: usize) {
            self.read(a);
            self.write(dst);
        }
        fn or(&mut self, dst: usize, a: usize) {
            self.rmw(dst, &[a]);
        }
        fn and(&mut self, dst: usize, a: usize) {
            self.rmw(dst, &[a]);
        }
        fn andnot(&mut self, dst: usize, a: usize) {
            self.rmw(dst, &[a]);
        }
        fn or_andnot(&mut self, dst: usize, a: usize, b: usize) {
            self.rmw(dst, &[a, b]);
        }
        fn load(&mut self, dst: usize, _: Init, _: usize) {
            self.write(dst);
        }
    }

    fn stress() -> u64 {
        std::env::var("GNT_STRESS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1)
    }

    /// Checks the re-walk's reader rule against one full walk of `g`,
    /// returning how many `(writer, row, reader)` dependencies it
    /// checked.
    ///
    /// * The steps in key order run exactly the calls of [`schedule`], and
    ///   there are [`Step::count`] of them.
    /// * Each step writes exactly its outputs, starting each with a full
    ///   overwrite, and no other step writes them.
    /// * For every row step W writes and a later step R reads,
    ///   [`for_each_reader`] of that row names R; no step reads a row a
    ///   later step writes.
    /// * Every reader the rule names that runs no later than W is a read
    ///   the walk folds out ([`folded_read`]), so the re-walk may skip it.
    fn check_reader_rule(g: &IntervalGraph, label: &str) -> usize {
        let n = g.num_nodes();
        let mut steps: Vec<Step> = g
            .nodes()
            .flat_map(|v| {
                let loc = (v != g.root()).then_some(Step::Loc(v));
                let per_flavor = [Flavor::Eager, Flavor::Lazy]
                    .into_iter()
                    .flat_map(move |f| [Step::Given(f, v), Step::Res(f, v)]);
                loc.into_iter().chain([Step::Node(v)]).chain(per_flavor)
            })
            .collect();
        steps.sort_by_key(|s| s.key(g));
        assert_eq!(steps.len(), Step::count(n), "{label}");
        assert!(steps.windows(2).all(|w| w[0].key(g) < w[1].key(g)));
        assert!(steps.iter().all(|&s| Step::from_id(s.id(n), n) == s));

        let (mut whole, mut stepped) = (Trace(Vec::new()), Trace(Vec::new()));
        schedule(g, &mut whole);
        for &step in &steps {
            run_step(g, &mut stepped, step);
        }
        assert!(whole.0 == stepped.0, "{label}: the steps are not the walk");

        let family_rows = NUM_FAMILIES * n;
        let mut writer: Vec<Option<usize>> = vec![None; family_rows];
        let mut reads: Vec<Vec<usize>> = Vec::with_capacity(steps.len());
        for (i, &step) in steps.iter().enumerate() {
            let (m, first, count) = step.outputs();
            let outputs: Vec<usize> = (first..first + count).map(|f| f * n + m.index()).collect();
            let mut watch = Watch {
                family_rows,
                outputs: outputs.clone(),
                written: Vec::new(),
                reads: Vec::new(),
            };
            run_step(g, &mut watch, step);
            let mut wrote: Vec<usize> = watch
                .written
                .into_iter()
                .filter(|&r| r < family_rows)
                .collect();
            wrote.sort_unstable();
            assert_eq!(wrote, outputs, "{label}: {step:?}");
            for r in outputs {
                assert_eq!(writer[r].replace(i), None, "{label}: row {r}");
            }
            reads.push(watch.reads);
        }

        let mut checked = 0;
        for (i, step_reads) in reads.iter().enumerate() {
            for &r in step_reads {
                let Some(w) = writer[r] else {
                    continue; // no step writes it: ∅ in every walk
                };
                let (family, m) = (r / n, NodeId((r % n) as u32));
                assert!(
                    w < i,
                    "{label}: {:?} reads {r} ahead of {:?}",
                    steps[i],
                    steps[w]
                );
                let mut named = false;
                for_each_reader(g, family, m, |reader| named |= reader == steps[i]);
                assert!(
                    named,
                    "{label}: the rule for family {family} of {m} misses {:?}",
                    steps[i]
                );
                checked += 1;
            }
        }
        for (r, w) in writer.iter().enumerate() {
            let Some(w) = *w else { continue };
            let (family, m) = (r / n, NodeId((r % n) as u32));
            let key = steps[w].key(g);
            for_each_reader(g, family, m, |reader| {
                assert!(
                    reader.key(g) > key || folded_read(g, family, m, reader),
                    "{label}: {reader:?} runs ahead of {:?} but reads its row {r}",
                    steps[w]
                );
            });
        }
        checked
    }

    /// The reader-rule oracle: every read of a full walk is covered by
    /// the re-walk's rule, over `examples/*.minif`, `sized_program(400)`
    /// and random programs with and without `goto`s, forward and
    /// reversed, with jump-entered or every other loop header poisoned,
    /// each graph as it is and with every loop header poisoned, and each
    /// again with the other loop headers poisoned too. `GNT_STRESS`
    /// scales the random corpus.
    #[test]
    fn reader_rule_covers_every_read_of_a_full_walk() {
        let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
        let mut programs: Vec<(String, gnt_ir::Program)> = std::fs::read_dir(examples)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "minif"))
            .map(|p| {
                let src = std::fs::read_to_string(&p).unwrap();
                (p.display().to_string(), parse(&src).unwrap())
            })
            .collect();
        assert!(programs.len() >= 3, "examples/*.minif");
        programs.push(("sized400".to_string(), crate::sized_program(400)));
        for goto_prob in [0.0, 0.1] {
            let config = crate::GenConfig {
                goto_prob,
                ..Default::default()
            };
            for seed in 0..24 * stress() {
                let program = crate::random_program(seed, &config);
                programs.push((format!("random{seed}@{goto_prob}"), program));
            }
        }
        let (mut checked, mut jump_in) = (0, 0);
        for (name, program) in &programs {
            let forward = IntervalGraph::from_program(program).unwrap();
            let reversed = gnt_cfg::reversed_graph(&forward).unwrap();
            let mut poisoned = reversed.clone();
            for h in reversed.nodes() {
                if !reversed.jump_in_sources(h).is_empty() {
                    poisoned.poison(h);
                    jump_in += 1;
                }
            }
            let mut headers_poisoned = forward.clone();
            let headers: Vec<NodeId> = forward
                .nodes()
                .filter(|&h| forward.is_loop_header(h))
                .collect();
            for &h in headers.iter().step_by(2) {
                headers_poisoned.poison(h);
            }
            for (dir, g) in [
                ("fwd", &forward),
                ("rev", &reversed),
                ("rev+poison", &poisoned),
                ("fwd+poison", &headers_poisoned),
            ] {
                checked += check_reader_rule(g, &format!("{name}/{dir}"));
                let mut all = g.clone();
                all.poison_loop_headers();
                checked += check_reader_rule(&all, &format!("{name}/{dir}/all"));
                let mut others = g.clone();
                for &h in headers.iter().skip(1).step_by(2) {
                    others.poison(h);
                }
                checked += check_reader_rule(&others, &format!("{name}/{dir}/others"));
            }
        }
        assert!(jump_in > 0, "the corpus must have jump-entered headers");
        assert!(checked > 100_000, "{checked} dependencies");
    }
}
