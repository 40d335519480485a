//! The `GNT03x` optimality-audit family: placements and plans that are
//! *correct* but leave measurable communication performance on the table.
//!
//! Unlike the correctness lints, every audit finding carries (where the
//! solver state allows it) a blame chain proving the cheaper alternative
//! is legal — the chain is built by [`BlameEngine`] and validated by the
//! same Figure-13 equations the solver ran.
//!
//! * `GNT030` — two same-kind transfers in one slot whose section
//!   footprints are mergeable ([`DataRef::coalesce`]): message
//!   aggregation would halve the message count (§6 lists aggregation as
//!   the natural next step after placement).
//! * `GNT031` — the latency-hiding window between a transfer's start
//!   (EAGER point) and completion (LAZY point) is at least `k` nodes
//!   narrower than the solver's optimum: the transfer could legally
//!   start earlier (§1's motivation for splitting Send/Recv).
//! * `GNT032` — a placement spends productions on an item the optimum
//!   satisfies at zero cost because an existing free production (a
//!   `GIVE_init`, §4.4's balance) already covers every consumer.

use crate::diag::Diagnostic;
use crate::provenance::chain_trail;
use gnt_cfg::{IntervalGraph, NodeId};
use gnt_comm::CommPlan;
use gnt_core::{
    shift_off_synthetic, solve_into, BlameEngine, Flavor, FlavorSolution, PlacementProblem,
    SolverOptions, SolverScratch, Var,
};
use gnt_sections::DataRef;
use std::collections::BTreeSet;

/// Options for [`audit_placement`].
#[derive(Clone, Debug)]
pub struct AuditOptions {
    /// `GNT031` slack threshold: fire only when the latency window is at
    /// least this many *nodes* narrower than the optimum's.
    pub k: usize,
    /// Human-readable item names (index-aligned with the universe).
    pub item_names: Vec<String>,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions {
            k: 2,
            item_names: Vec::new(),
        }
    }
}

impl AuditOptions {
    fn name(&self, item: usize) -> String {
        self.item_names
            .get(item)
            .cloned()
            .unwrap_or_else(|| format!("item {item}"))
    }
}

/// A production point keyed in program order, as in the placement lints:
/// `RES_in` before the node's statement, `RES_out` after it.
type Point = (usize, bool);

fn points(graph: &IntervalGraph, flavor: &FlavorSolution, item: usize) -> BTreeSet<Point> {
    let mut out = BTreeSet::new();
    for n in graph.nodes() {
        let i = n.index();
        if flavor.res_in[i].contains(item) {
            out.insert((graph.preorder_index(n) * 2, false));
        }
        if flavor.res_out[i].contains(item) {
            out.insert((graph.preorder_index(n) * 2 + 1, true));
        }
    }
    out
}

fn node_at(graph: &IntervalGraph, pos: usize) -> NodeId {
    graph.preorder()[pos / 2]
}

/// Audits a placement pair against the solver's optimum for the same
/// problem, emitting `GNT031` (latency-hiding slack) and `GNT032`
/// (balance slack). Both are silent when the placement *is* the solver
/// output.
pub fn audit_placement(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    eager: &FlavorSolution,
    lazy: &FlavorSolution,
    opts: &AuditOptions,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let cap = problem.universe_size;
    if cap == 0 {
        return out;
    }

    // One solve backs both the comparison and the blame chains: the
    // scratch keeps every Figure-13 variable for the engine, the export
    // is shifted for program-order comparison.
    let solver_opts = SolverOptions::default();
    let mut scratch = SolverScratch::new();
    solve_into(graph, problem, &solver_opts, &mut scratch);
    let opt = scratch.export();
    let engine = BlameEngine::new(graph, problem, &scratch);
    let mut opt_eager = opt.eager.clone();
    let mut opt_lazy = opt.lazy.clone();
    shift_off_synthetic(graph, &mut opt_eager);
    shift_off_synthetic(graph, &mut opt_lazy);

    for item in 0..cap {
        let ge = points(graph, eager, item);
        let gl = points(graph, lazy, item);
        let oe = points(graph, &opt_eager, item);
        let ol = points(graph, &opt_lazy, item);

        // GNT032: the optimum needs no production at all — a free GIVE
        // already covers every consumer — yet this placement transfers.
        let free_give = graph
            .nodes()
            .any(|n| problem.give_init[n.index()].contains(item));
        if oe.is_empty() && ol.is_empty() && (!ge.is_empty() || !gl.is_empty()) && free_give {
            let &(pos, _) = ge.iter().chain(gl.iter()).next().expect("some given point");
            let mut d = Diagnostic::warning(
                "GNT032",
                format!(
                    "{} is communicated although an existing free production already covers every consumer",
                    opts.name(item)
                ),
            )
            .at(node_at(graph, pos))
            .for_item(item)
            .note("the solver satisfies this consumption at zero cost by riding the free GIVE (\u{a7}4.4 balance)");
            if let Some(consumer) = graph
                .nodes()
                .find(|n| problem.take_init[n.index()].contains(item))
            {
                if let Some(chain) = engine
                    .why(Var::GivenIn(Flavor::Eager), consumer, item)
                    .or_else(|| engine.why(Var::Given(Flavor::Eager), consumer, item))
                {
                    d.related.extend(chain_trail(&chain, &opts.name(item)));
                }
            }
            out.push(d);
            continue;
        }

        // GNT031: the window between transfer start (first EAGER point)
        // and completion (first LAZY point) is ≥ k nodes narrower than
        // the optimum's — the transfer could legally start earlier.
        let (Some(&(ge0, _)), Some(&(gl0, _))) = (ge.iter().next(), gl.iter().next()) else {
            continue;
        };
        let (Some(&(oe0, _)), Some(&(ol0, _))) = (oe.iter().next(), ol.iter().next()) else {
            continue;
        };
        let given_window = gl0.saturating_sub(ge0);
        let opt_window = ol0.saturating_sub(oe0);
        // Positions advance by 2 per node (in/out slots).
        if opt_window >= given_window + 2 * opts.k {
            let mut d = Diagnostic::warning(
                "GNT031",
                format!(
                    "transfer of {} starts {} node(s) later than legal, shrinking the latency-hiding window",
                    opts.name(item),
                    (opt_window - given_window) / 2
                ),
            )
            .at(node_at(graph, ge0))
            .for_item(item)
            .note(format!(
                "the solver starts it at node {} (\u{a7}1: split Send/Recv exist to overlap this window with computation)",
                node_at(graph, oe0)
            ));
            // Chain for the optimum's start point, queried pre-shift so
            // the bit is where the solver left it.
            if let Some(&(raw_pos, raw_out)) = points(graph, &opt.eager, item).iter().next() {
                let var = if raw_out {
                    Var::ResOut(Flavor::Eager)
                } else {
                    Var::ResIn(Flavor::Eager)
                };
                if let Some(chain) = engine.why(var, node_at(graph, raw_pos), item) {
                    d.related.extend(chain_trail(&chain, &opts.name(item)));
                }
            }
            out.push(d);
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

/// Audits a communication plan for `GNT030`: two same-kind transfers in
/// the same slot whose section footprints coalesce into one contiguous
/// transfer. Fires once per mergeable pair.
pub fn audit_plan(plan: &CommPlan, item_names: &[String]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let name = |item: usize| {
        item_names
            .get(item)
            .cloned()
            .unwrap_or_else(|| format!("item {item}"))
    };
    let refs: Vec<&DataRef> = plan.analysis.universe.iter().map(|(_, r)| r).collect();
    for (i, slot) in plan
        .before
        .iter()
        .enumerate()
        .chain(plan.after.iter().enumerate())
    {
        for (a_idx, a) in slot.iter().enumerate() {
            for b in &slot[a_idx + 1..] {
                if a.kind != b.kind || a.item == b.item {
                    continue;
                }
                let (ia, ib) = (a.item.index(), b.item.index());
                let Some(merged) = refs[ia].coalesce(refs[ib]) else {
                    continue;
                };
                let d = Diagnostic::warning(
                    "GNT030",
                    format!(
                        "adjacent {} transfers of {} and {} in the same slot could merge into one transfer of {merged}",
                        a.kind,
                        name(ia),
                        name(ib),
                    ),
                )
                .at(NodeId(i as u32))
                .for_item(ia)
                .because(
                    "because: both transfers fire in this slot; their footprints are contiguous (\u{a7}6 message aggregation)".to_string(),
                    Some(NodeId(i as u32)),
                );
                out.push(d);
            }
        }
    }
    out.sort_by_key(|d| (d.code, d.node.map_or(u32::MAX, |n| n.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnt_comm::{analyze, generate, CommConfig};
    use gnt_core::solve;

    fn setup(src: &str) -> (IntervalGraph, PlacementProblem) {
        let program = gnt_ir::parse(src).unwrap();
        let analysis = analyze(&program, &CommConfig::distributed(&["x"])).unwrap();
        (analysis.graph.clone(), analysis.read_problem.clone())
    }

    #[test]
    fn audits_are_silent_on_solver_output() {
        let (graph, problem) = setup(
            "do i = 1, N\n  y(i) = ...\nenddo\n\
             do k = 1, N\n  ... = x(a(k))\nenddo",
        );
        let mut sol = solve(&graph, &problem, &SolverOptions::default());
        shift_off_synthetic(&graph, &mut sol.eager);
        shift_off_synthetic(&graph, &mut sol.lazy);
        let diags = audit_placement(
            &graph,
            &problem,
            &sol.eager,
            &sol.lazy,
            &AuditOptions::default(),
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn gnt031_fires_on_a_needlessly_narrow_window() {
        // Straight-line prelude gives the solver room to hoist the
        // transfer start; the hand-built placement starts it right at
        // the consumer instead (window 0).
        let (graph, problem) = setup(
            "a = 1\nb = 2\nc = 3\nd = 4\n\
             do k = 1, N\n  ... = x(a(k))\nenddo",
        );
        let mut sol = solve(&graph, &problem, &SolverOptions::default());
        shift_off_synthetic(&graph, &mut sol.eager);
        shift_off_synthetic(&graph, &mut sol.lazy);
        // Collapse the eager points onto the lazy ones: transfer starts
        // where it completes.
        let narrow_eager = sol.lazy.clone();
        let diags = audit_placement(
            &graph,
            &problem,
            &narrow_eager,
            &sol.lazy,
            &AuditOptions::default(),
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "GNT031");
        assert!(
            diags[0]
                .related
                .iter()
                .any(|r| r.message.contains("because:")),
            "carries a blame chain: {diags:?}"
        );
    }

    #[test]
    fn gnt032_fires_on_a_transfer_the_free_give_already_covers() {
        // GIVE_init at node 1 covers the later consumer for free; a
        // placement that still produces at the consumer wastes a
        // message.
        let src = "a = 1\nb = 2\nc = 3";
        let program = gnt_ir::parse(src).unwrap();
        let graph = IntervalGraph::from_program(&program).unwrap();
        let mut problem = PlacementProblem::new(graph.num_nodes(), 1);
        let stmts: Vec<NodeId> = graph
            .nodes()
            .filter(|&n| graph.kind(n).stmt().is_some())
            .collect();
        problem.give(stmts[0], 0).take(stmts[2], 0);
        let sol = solve(&graph, &problem, &SolverOptions::default());
        // The optimum is empty: the free give rides all the way.
        assert!(points(&graph, &sol.eager, 0).is_empty());
        // Hand-built waste: produce right at the consumer anyway.
        let mut eager = sol.eager.clone();
        let mut lazy = sol.lazy.clone();
        eager.res_in[stmts[2].index()].insert(0);
        lazy.res_in[stmts[2].index()].insert(0);
        let diags = audit_placement(&graph, &problem, &eager, &lazy, &AuditOptions::default());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "GNT032");
        assert!(
            diags[0].related.iter().any(|r| r.message.contains("GIVE")),
            "chain roots in the free give: {diags:?}"
        );
    }

    #[test]
    fn gnt030_fires_on_mergeable_same_slot_transfers() {
        // Two reads of adjacent sections x(1:5) and x(6:10) become two
        // universe items; both transfers land in the same slot.
        let src = "do i = 1, N\n  ... = x(i)\nenddo";
        let program = gnt_ir::parse(src).unwrap();
        let analysis = analyze(&program, &CommConfig::distributed(&["x"])).unwrap();
        let plan = generate(analysis).unwrap();
        // The real universe here has one item, so the solver plan is
        // silent — which is itself half the property.
        let names: Vec<String> = plan
            .analysis
            .universe
            .iter()
            .map(|(_, r)| r.to_string())
            .collect();
        assert!(audit_plan(&plan, &names).is_empty());

        // Hand-build a suboptimal plan: duplicate the recv slot with a
        // second, adjacent item.
        let mut plan = plan;
        use gnt_sections::{Affine, Range};
        let section = |lo: i64, hi: i64| DataRef::Section {
            array: "x".into(),
            range: Range {
                lo: Affine::constant(lo),
                hi: Affine::constant(hi),
            },
        };
        let mut universe = gnt_dataflow::Universe::new();
        let i1 = universe.intern(section(1, 5));
        let i2 = universe.intern(section(6, 10));
        plan.analysis.universe = universe;
        let slot = plan
            .before
            .iter()
            .position(|s| !s.is_empty())
            .expect("plan has a recv");
        let kind = plan.before[slot][0].kind;
        plan.before[slot] = vec![
            gnt_comm::CommOp { kind, item: i1 },
            gnt_comm::CommOp { kind, item: i2 },
        ];
        let names = vec!["x(1:5)".to_string(), "x(6:10)".to_string()];
        let diags = audit_plan(&plan, &names);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "GNT030");
        assert!(diags[0].message.contains("x(1:10)"), "{diags:?}");
    }
}
