//! Placement lints: the paper's correctness criteria C1/C2/C3 and
//! optimality criteria O1/O2/O3/O3' as `GNT00x` diagnostics.
//!
//! The correctness checks wrap the independent verifiers of `gnt-core`
//! ([`gnt_core::check_sufficiency_pair`], [`gnt_core::check_balance`]) and two
//! definite-violation dataflow analyses (no consumer reachable from a
//! production; item must-available at a production point), so a placement
//! that satisfies the criteria — in particular anything [`gnt_core::solve`]
//! returns — lints clean. The optimality checks compare the given
//! placement per item against the solver's own optimum for the same
//! problem: one stable code per failure shape of Figures 4–10.

use crate::diag::Diagnostic;
use crate::driver::StageTimings;
use crate::{MAX_EDGE_VISITS, MAX_PATHS};
use gnt_cfg::{EdgeClass, IntervalGraph, NodeId};
use gnt_core::{
    check_balance, check_sufficiency_pair, for_each_path, path_has_zero_trip, shift_off_synthetic,
    solve_into, FlavorSolution, PathChecker, PlacementProblem, ScratchPool, SolverOptions,
    SolverScratch, Violation,
};
use gnt_dataflow::{sweep, Checkout, WordRows};
use std::collections::BTreeSet;

/// Options for [`lint_placement`].
///
/// Sufficiency (C3) is checked under the paper's ≥1-trip worldview (§2),
/// and the optimum comes from [`SolverOptions::default`], which follows
/// that worldview.
#[derive(Clone, Debug)]
pub struct PlacementLintOptions {
    /// Compare against the solver's own optimum (O2/O3/O3'). Skipped
    /// automatically when any correctness diagnostic fired.
    pub check_optimality: bool,
    /// Additionally check zero-trip execution paths strictly, reporting
    /// productions wasted there as *warnings* (the paper deliberately
    /// accepts these under the ≥1-trip assumption, §5.2), on at most 256
    /// paths.
    pub zero_trip: bool,
    /// Human-readable item names (index-aligned with the problem's
    /// universe); items without a name render as `item N`.
    pub item_names: Vec<String>,
}

impl Default for PlacementLintOptions {
    fn default() -> Self {
        PlacementLintOptions {
            check_optimality: true,
            zero_trip: false,
            item_names: Vec::new(),
        }
    }
}

impl PlacementLintOptions {
    fn name(&self, item: usize) -> String {
        self.item_names
            .get(item)
            .cloned()
            .unwrap_or_else(|| format!("item {item}"))
    }
}

/// A production point: a node plus the slot the production fires in.
/// The position key orders points in program order (`RES_in` before the
/// node's own consumption, `RES_out` after it).
type Point = (usize, bool); // (preorder position * 2 + out?, is res_out)

/// Every item's production points in `flavor`, in program order: one
/// sweep over the preorder visits `RES_in` before `RES_out` at each node,
/// so each item's list comes out sorted.
pub(crate) fn production_points(
    graph: &IntervalGraph,
    flavor: &FlavorSolution,
    cap: usize,
) -> Vec<Vec<Point>> {
    let mut points = vec![Vec::new(); cap];
    for (pos, n) in graph.preorder().iter().enumerate() {
        for item in flavor.res_in[n.index()].iter() {
            points[item].push((pos * 2, false));
        }
        for item in flavor.res_out[n.index()].iter() {
            points[item].push((pos * 2 + 1, true));
        }
    }
    points
}

/// The points of sorted `a` missing from sorted `b`, ascending.
fn missing_from<'p>(a: &'p [Point], b: &'p [Point]) -> impl Iterator<Item = &'p Point> {
    a.iter().filter(move |p| b.binary_search(p).is_err())
}

pub(crate) fn node_at_position(graph: &IntervalGraph, pos: usize) -> NodeId {
    graph.preorder()[pos / 2]
}

/// The solver's optimum for a problem, the one both optimality checkers
/// compare with: O2/O3/O3' here and the `GNT03x` audits
/// ([`crate::audit::audit_placement`]).
pub(crate) struct Optimum {
    /// The solve, every Figure-13 variable in place, for blame chains.
    pub(crate) scratch: Checkout<'static, SolverScratch>,
    /// Each item's EAGER points, shifted off synthetic nodes as a plan
    /// emits them.
    pub(crate) eager: Vec<Vec<Point>>,
    /// Each item's LAZY points, shifted likewise.
    pub(crate) lazy: Vec<Vec<Point>>,
    /// Each item's EAGER points where the solve left them, before the
    /// shift: where its chains start.
    pub(crate) unshifted_eager: Vec<Vec<Point>>,
}

impl Optimum {
    /// Solves `problem` over `graph` into a pooled scratch and reads the
    /// points off its production rows.
    pub(crate) fn solve(graph: &IntervalGraph, problem: &PlacementProblem) -> Optimum {
        let mut scratch = ScratchPool::global().checkout();
        solve_into(graph, problem, &SolverOptions::default(), &mut scratch);
        let (mut eager, mut lazy) = scratch.export_productions();
        let cap = problem.universe_size;
        let unshifted_eager = production_points(graph, &eager, cap);
        shift_off_synthetic(graph, &mut eager);
        shift_off_synthetic(graph, &mut lazy);
        Optimum {
            eager: production_points(graph, &eager, cap),
            lazy: production_points(graph, &lazy, cap),
            unshifted_eager,
            scratch,
        }
    }
}

fn has(row: &[u64], item: usize) -> bool {
    row[item / 64] >> (item % 64) & 1 != 0
}

/// The real (CEFJ) out-edge ids of `u`: every edge but the synthetic
/// ones and the virtual CYCLE edge into the root (the edges
/// [`gnt_cfg::CfgFlow::from_interval`] keeps). Edge ids index the graph's
/// own edge array, so one row per id covers them.
fn real_out(
    graph: &IntervalGraph,
    u: usize,
) -> impl Iterator<Item = (usize, NodeId, EdgeClass)> + '_ {
    graph
        .succ_edge_ids(NodeId(u as u32))
        .map(|e| {
            let (s, c) = graph.edge(e);
            (e, s, c)
        })
        .filter(|&(_, s, c)| graph.is_real(s, c))
}

/// The real in-edge ids of `v`, with their classes.
fn real_in(graph: &IntervalGraph, v: usize) -> impl Iterator<Item = (usize, EdgeClass)> + '_ {
    let node = NodeId(v as u32);
    graph
        .pred_edge_ids(node)
        .iter()
        .zip(graph.pred_edges(node))
        .filter(move |&(_, (_, c))| graph.is_real(node, c))
        .map(|(&e, (_, c))| (e, c))
}

/// C2's backward may-reach of a consumer, per node: `reach_in = TAKE ∪
/// (reach_out − STEAL)` and `reach_out` the union of the successors'
/// `reach_in`. EXIT's one successor is the virtual CYCLE edge into ROOT,
/// which is not real, so its `reach_out` stays ∅, the boundary.
/// The least fixpoint, [`sweep`]ed from ∅ in reverse preorder; a node
/// is revisited after a real successor's `reach_in` moved (its CYCLE
/// successor included). Returns `(reach_in, reach_out)`.
fn c2_reach(graph: &IntervalGraph, problem: &PlacementProblem) -> (WordRows, WordRows) {
    let n = graph.num_nodes();
    let cap = problem.universe_size;
    debug_assert!(real_out(graph, graph.exit().index()).next().is_none());
    let mut reach_in = WordRows::new(n, cap, 1);
    let mut reach_out = WordRows::new(n, cap, 1);
    let order = graph.preorder().iter().rev().map(|v| v.index());
    sweep(order, vec![true; n], |v, dirty| {
        let out = reach_out.row_mut(v);
        out.fill(0);
        for (_, s, _) in real_out(graph, v) {
            for (o, &r) in out.iter_mut().zip(reach_in.row(s.index())) {
                *o |= r;
            }
        }
        let (take, steal) = (problem.take_init[v].words(), problem.steal_init[v].words());
        let mut moved = false;
        for (k, (w, &o)) in reach_in.row_mut(v).iter_mut().zip(&*out).enumerate() {
            let next = take[k] | (o & !steal[k]);
            moved |= *w != next;
            *w = next;
        }
        if moved {
            let node = NodeId(v as u32);
            for (u, c) in graph.pred_edges(node) {
                if graph.is_real(node, c) {
                    dirty.mark(u.index());
                }
            }
        }
    });
    (reach_in, reach_out)
}

/// The O1 must-availability of every interval-graph edge, the ground
/// for `GNT004` (redundant production).
///
/// It replays the edge-aware slot semantics of [`gnt_core::check_path`]
/// as a forward must-dataflow over the graph's real *edges*:
/// availability is set by completed (lazy) productions and GIVEs, killed
/// only by STEALs, a header's `RES_in` does not re-fire on its CYCLE
/// edge, and a header's `RES_out` fires only toward FORWARD/JUMP
/// successors — so a header's production never leaks into its own body
/// as availability.
///
/// The states are the greatest fixpoint of a monotone system, reached by
/// sweeping from "everything available" downwards over one flat row per
/// edge. That fixpoint is unique, so the sweep order changes only how
/// many rounds it takes, not the states. The preorder settles in a few
/// rounds, as every non-CYCLE edge points forward in it; an order that is
/// not a flow order (node ids) needs a number of rounds that grows with
/// the file. A node is revisited when one of its in-edges moved, so the
/// rounds are those of a full [`sweep`].
struct O1Avail<'a> {
    problem: &'a PlacementProblem,
    lazy: &'a FlavorSolution,
    graph: &'a IntervalGraph,
    /// Availability on each edge, by edge id (synthetic ones unused).
    state: WordRows,
    /// Sweeps run, the last one confirming that nothing changed.
    rounds: u64,
}

/// Edges a header's `RES_out` fires toward.
fn exits(c: EdgeClass) -> bool {
    matches!(c, EdgeClass::Forward | EdgeClass::Jump | EdgeClass::JumpIn)
}

impl<'a> O1Avail<'a> {
    /// Runs the fixpoint, sweeping the nodes in `order` each round.
    fn solve(
        graph: &'a IntervalGraph,
        problem: &'a PlacementProblem,
        lazy: &'a FlavorSolution,
        order: &[NodeId],
    ) -> O1Avail<'a> {
        let mut o1 = O1Avail {
            problem,
            lazy,
            graph,
            state: WordRows::full(graph.num_edges(), problem.universe_size, 1),
            rounds: 0,
        };
        // Optimistic fixpoint: start full, intersect downwards.
        let mut mid = vec![0u64; problem.universe_size.div_ceil(64)];
        let order = order.iter().map(|v| v.index());
        o1.rounds = sweep(order, vec![true; graph.num_nodes()], |i, dirty| {
            if real_out(graph, i).next().is_none() {
                return;
            }
            o1.mid_meet(i, &mut mid);
            let res_out = lazy.res_out[i].words();
            for (e, s, c) in real_out(graph, i) {
                let fires = exits(c);
                let row = o1.state.row_mut(e);
                let mut moved = false;
                for (k, w) in row.iter_mut().enumerate() {
                    let next = if fires { mid[k] | res_out[k] } else { mid[k] };
                    moved |= *w != next;
                    *w = next;
                }
                if moved {
                    dirty.mark(s.index());
                }
            }
        });
        o1
    }

    /// Availability right after node `i`'s statement, met over all its
    /// entries, into `acc`. Each entry adds lazy `RES_in` (unless it is
    /// the CYCLE edge) to its state; the root's boundary is "nothing
    /// available". TAKE and STEAL then both end availability. Killing at
    /// TAKE is stricter than `check_path`'s replay on purpose: consumption
    /// re-justifies later production, so only productions that no
    /// consumer separates from prior availability are *definitely*
    /// redundant.
    fn mid_meet(&self, i: usize, acc: &mut [u64]) {
        let res_in = self.lazy.res_in[i].words();
        if real_in(self.graph, i).next().is_none() {
            acc.copy_from_slice(res_in);
        }
        for (j, (e, c)) in real_in(self.graph, i).enumerate() {
            let fires = c != EdgeClass::Cycle;
            for (k, (a, &s)) in acc.iter_mut().zip(self.state.row(e)).enumerate() {
                let entry = if fires { s | res_in[k] } else { s };
                *a = if j == 0 { entry } else { *a & entry };
            }
        }
        let take = self.problem.take_init[i].words();
        let steal = self.problem.steal_init[i].words();
        for (k, a) in acc.iter_mut().enumerate() {
            *a &= !(take[k] | steal[k]);
        }
    }

    /// The redundant production points of `eager`, as (node, item) in
    /// node-id order; per node, `RES_in` items ascending, then `RES_out`
    /// items ascending. A point is redundant only when *every* firing
    /// occurrence of it finds the item available.
    fn redundant(&self, eager: &FlavorSolution) -> Vec<(NodeId, usize)> {
        let mut found = Vec::new();
        let words = self.problem.universe_size.div_ceil(64);
        let (mut all, mut out_mid) = (vec![0u64; words], vec![0u64; words]);
        for i in 0..self.graph.num_nodes() {
            let node = NodeId(i as u32);
            // RES_in fires on every non-CYCLE entry; redundant only if the
            // item is available on all of them.
            let mut firing = real_in(self.graph, i)
                .filter(|&(_, c)| c != EdgeClass::Cycle)
                .peekable();
            if firing.peek().is_some() {
                all.fill(!0);
                for (e, _) in firing {
                    for (a, &s) in all.iter_mut().zip(self.state.row(e)) {
                        *a &= s;
                    }
                }
                for item in eager.res_in[i].iter() {
                    if has(&all, item) {
                        found.push((node, item));
                    }
                }
            }
            // RES_out fires toward FORWARD/JUMP successors, over the
            // post-statement state of whichever entry was taken.
            if !eager.res_out[i].is_empty() && real_out(self.graph, i).any(|(_, _, c)| exits(c)) {
                self.mid_meet(i, &mut out_mid);
                for item in eager.res_out[i].iter() {
                    if has(&out_mid, item) {
                        found.push((node, item));
                    }
                }
            }
        }
        found
    }
}

/// Lints a placement pair (`eager`, `lazy`) for `problem` over `graph`.
///
/// Emits `GNT001` (insufficient, C3), `GNT002` (unbalanced, C1),
/// `GNT003` (unsafe, C2), `GNT004` (redundant, O1) and — when the
/// placement is otherwise clean — `GNT005`/`GNT006`/`GNT007`
/// (O2/O3/O3' against the solver's optimum). Diagnostics are anchored
/// to graph nodes; use [`crate::diag::attach_spans`] to resolve source
/// spans.
pub fn lint_placement(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    eager: &FlavorSolution,
    lazy: &FlavorSolution,
    opts: &PlacementLintOptions,
) -> Vec<Diagnostic> {
    lint_placement_counted(
        graph,
        problem,
        eager,
        lazy,
        opts,
        false,
        &mut StageTimings::default(),
    )
}

/// [`lint_placement`], adding the zero-trip pass's path replay counts
/// and the O1 fixpoint's rounds to `profile`. With `c1_c3_clean` the C1
/// and C3 checks are skipped: the caller vouches that
/// [`gnt_core::check_balance`] and [`gnt_core::check_sufficiency`]
/// (≥1-trip) already found exactly these rows clean against `problem` on
/// `graph`.
pub(crate) fn lint_placement_counted(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    eager: &FlavorSolution,
    lazy: &FlavorSolution,
    opts: &PlacementLintOptions,
    c1_c3_clean: bool,
    profile: &mut StageTimings,
) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = Vec::new();
    let mut seen = BTreeSet::new();
    let mut push = |out: &mut Vec<Diagnostic>, d: Diagnostic, item: usize| {
        let key = (d.code, d.node.map(|n| n.index()), item);
        if seen.insert(key) {
            out.push(d.for_item(item));
        }
    };

    // C3: every consumer fed on every (≥1-trip) path, in both flavors,
    // one fixpoint for the pair; then C1: eager and lazy productions
    // alternate on every path.
    if !c1_c3_clean {
        let [eager_missed, lazy_missed] = check_sufficiency_pair(graph, problem, eager, lazy, true);
        for v in eager_missed.into_iter().chain(lazy_missed) {
            if let Violation::Insufficient { node, item } = v {
                let d = Diagnostic::error(
                    "GNT001",
                    format!(
                        "{} may reach this consumer unproduced on some path",
                        opts.name(item)
                    ),
                )
                .at(node);
                push(&mut out, d, item);
            }
        }
        for v in check_balance(graph, problem, eager, lazy) {
            if let Violation::Unbalanced { node, item } = v {
                let d = Diagnostic::error(
                    "GNT002",
                    format!(
                        "eager/lazy productions of {} do not pair up at this point",
                        opts.name(item)
                    ),
                )
                .at(node);
                push(&mut out, d, item);
            }
        }
    }

    let cap = problem.universe_size;

    // C2: from every production start (eager point), some consumer must
    // be reachable before the item is stolen ([`c2_reach`]).
    let (reach_in, reach_out) = c2_reach(graph, problem);
    for i in 0..graph.num_nodes() {
        for (set, reach) in [
            (&eager.res_in[i], &reach_in),
            (&eager.res_out[i], &reach_out),
        ] {
            for item in set.iter() {
                if !has(reach.row(i), item) {
                    let d = Diagnostic::error(
                        "GNT003",
                        format!(
                            "{} is produced here but never consumed afterwards",
                            opts.name(item)
                        ),
                    )
                    .at(NodeId(i as u32));
                    push(&mut out, d, item);
                }
            }
        }
    }

    // O1: no production start while the item is must-available (see
    // [`O1Avail`]). The sweep follows the preorder, so it settles in a
    // few rounds whatever the file size.
    let o1 = O1Avail::solve(graph, problem, lazy, graph.preorder());
    profile.o1_rounds += o1.rounds;
    for (node, item) in o1.redundant(eager) {
        let d = Diagnostic::warning(
            "GNT004",
            format!(
                "{} is re-produced here although it is still available",
                opts.name(item)
            ),
        )
        .at(node);
        push(&mut out, d, item);
    }

    // Zero-trip advisory pass: strict replay of zero-trip paths. The
    // paper's ≥1-trip assumption (§2) makes these legal; report them as
    // warnings so `gnt-lint --zero-trip` can surface the reliance.
    if opts.zero_trip {
        let mut checker = PathChecker::new(graph, problem, eager, lazy, true);
        // Keys this pass has handed to `push`: the same finding recurs on
        // many paths, and is formatted only the first time.
        let mut tried = BTreeSet::new();
        let mut replayed = 0;
        let truncated = for_each_path(graph, MAX_EDGE_VISITS, MAX_PATHS, |path| {
            if !path_has_zero_trip(graph, path) {
                return;
            }
            replayed += 1;
            for v in checker.check(path) {
                let (code, node, item, what) = match v {
                    Violation::Unsafe { node, item } => {
                        ("GNT003", node, item, "produced but never consumed")
                    }
                    Violation::Insufficient { node, item } => {
                        ("GNT001", node, item, "consumed without production")
                    }
                    _ => continue,
                };
                if !tried.insert((code, node, item)) {
                    continue;
                }
                let d = Diagnostic::warning(
                    code,
                    format!("{} is {what} when a loop runs zero iterations", opts.name(item)),
                )
                .at(node)
                .note("legal under the paper's \u{2265}1-trip assumption (\u{a7}2); shown because --zero-trip is set");
                push(&mut out, d, item);
            }
        });
        profile.enumerations_truncated += u64::from(truncated);
        profile.paths_replayed += replayed;
    }

    // Optimality (O2/O3/O3') — only meaningful for placements that are
    // otherwise clean, and compared against the solver's own optimum.
    if opts.check_optimality && out.is_empty() {
        let opt = Optimum::solve(graph, problem);
        let given_eager = production_points(graph, eager, cap);
        let given_lazy = production_points(graph, lazy, cap);
        for item in 0..cap {
            let (ge, oe) = (&given_eager[item], &opt.eager[item]);
            let (gl, ol) = (&given_lazy[item], &opt.lazy[item]);
            if ge.len() > oe.len() {
                // O2: more production points than the optimum needs. The
                // points of an item are distinct, so the larger set
                // always holds one the optimum lacks.
                if let Some(&(pos, _)) = missing_from(ge, oe).next() {
                    let d = Diagnostic::warning(
                        "GNT005",
                        format!(
                            "{} uses {} eager production points where {} suffice",
                            opts.name(item),
                            ge.len(),
                            oe.len()
                        ),
                    )
                    .at(node_at_position(graph, pos));
                    push(&mut out, d, item);
                }
                continue;
            }
            if ge.len() != oe.len() {
                continue; // fewer points than the optimum: different regime, not a lint
            }
            // O3: an eager point strictly later than the optimum's earliest.
            if let Some(&(first_opt, _)) = oe.first() {
                if let Some(&(pos, _)) = missing_from(ge, oe).find(|&&(p, _)| p > first_opt) {
                    let d = Diagnostic::warning(
                        "GNT006",
                        format!(
                            "eager production of {} is later than necessary",
                            opts.name(item)
                        ),
                    )
                    .at(node_at_position(graph, pos))
                    .note(format!(
                        "the solver hoists it to node {}",
                        node_at_position(graph, first_opt)
                    ));
                    push(&mut out, d, item);
                }
            }
            // O3': a lazy point strictly earlier than the optimum's latest.
            if let Some(&(last_opt, _)) = ol.last() {
                if let Some(&(pos, _)) = missing_from(gl, ol).find(|&&(p, _)| p < last_opt) {
                    let d = Diagnostic::warning(
                        "GNT007",
                        format!(
                            "lazy production of {} is earlier than necessary",
                            opts.name(item)
                        ),
                    )
                    .at(node_at_position(graph, pos))
                    .note(format!(
                        "the solver delays it to node {}",
                        node_at_position(graph, last_opt)
                    ));
                    push(&mut out, d, item);
                }
            }
        }
    }

    out.sort_by_key(|d| {
        (
            d.code,
            d.node.map_or(usize::MAX, |n| graph.preorder_index(n)),
        )
    });
    out
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use gnt_core::{random_problem, random_program, shift_off_synthetic, solve, GenConfig};

    /// SplitMix64: a few random bits without a dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Adds a production of a random item at about one slot in `per`.
    fn perturb(flavor: &mut FlavorSolution, cap: usize, per: u64, rng: &mut u64) {
        for sets in [&mut flavor.res_in, &mut flavor.res_out] {
            for set in sets.iter_mut() {
                if next(rng).is_multiple_of(per) {
                    set.insert((next(rng) % cap as u64) as usize);
                }
            }
        }
    }

    /// The O1 fixpoint is unique, so sweeping in node-id order (the order
    /// it once used) and in preorder must give the same per-edge states
    /// and the same `GNT004` points — on solver placements with random
    /// extra eager/lazy productions, so that `GNT004` actually fires, and
    /// on universes on both sides of the 64-bit word boundary.
    #[test]
    fn o1_sweep_order_does_not_change_states_or_findings() {
        let config = GenConfig {
            loop_prob: 0.45,
            ..GenConfig::default()
        };
        let mut rng = 0x0123_4567_89ab_cdef;
        let mut fired = 0;
        for seed in 0..24u64 {
            let graph = IntervalGraph::from_program(&random_program(seed, &config)).unwrap();
            let id_order: Vec<NodeId> = graph.nodes().collect();
            for cap in [5, 64, 97] {
                let problem = random_problem(seed * 7 + cap as u64, &graph, cap, 0.2);
                let mut sol = solve(&graph, &problem, &SolverOptions::default());
                shift_off_synthetic(&graph, &mut sol.eager);
                shift_off_synthetic(&graph, &mut sol.lazy);
                perturb(&mut sol.eager, cap, 3, &mut rng);
                perturb(&mut sol.lazy, cap, 3, &mut rng);
                let by_id = O1Avail::solve(&graph, &problem, &sol.lazy, &id_order);
                let by_pre = O1Avail::solve(&graph, &problem, &sol.lazy, graph.preorder());
                assert_eq!(by_id.state, by_pre.state, "seed {seed}, {cap} items");
                let found = by_pre.redundant(&sol.eager);
                assert_eq!(
                    by_id.redundant(&sol.eager),
                    found,
                    "seed {seed}, {cap} items"
                );
                fired += found.len();
            }
        }
        assert!(fired > 0, "the perturbed placements never trigger GNT004");
    }
}
