//! GIVE-N-TAKE as a classical PRE engine (EXP-C2).
//!
//! §1 of the paper classifies classical PRE as a LAZY, BEFORE problem.
//! [`gnt_lazy_pre`] runs the GIVE-N-TAKE solver on a [`PreProblem`] and
//! reports the LAZY solution in the baselines' format, so the three
//! engines (GIVE-N-TAKE, lazy code motion, Morel–Renvoise) can be
//! compared head to head on the same graphs.

use crate::problem::{PrePlacement, PreProblem};
use gnt_cfg::{IntervalGraph, NodeId};
use gnt_core::{solve, PlacementProblem, SolverOptions};
use gnt_dataflow::BitSet;

/// Runs GIVE-N-TAKE's LAZY BEFORE solution as a PRE engine.
///
/// `safe` selects classical safety (no zero-trip hoisting — the right
/// setting for expression motion, where executing a hoisted computation
/// on a path that never needed it may fault); `false` uses the paper's
/// communication-style hoisting.
pub fn gnt_lazy_pre(graph: &IntervalGraph, problem: &PreProblem, safe: bool) -> PrePlacement {
    let n = graph.num_nodes();
    assert_eq!(problem.antloc.len(), n);
    let cap = problem.universe_size;
    let mut placement_problem = PlacementProblem::new(n, cap);
    for i in 0..n {
        placement_problem.take_init[i] = problem.antloc[i].clone();
        let mut steal = BitSet::full(cap);
        steal.subtract_with(&problem.transp[i]);
        placement_problem.steal_init[i] = steal;
    }
    let opts = SolverOptions {
        no_zero_trip_hoist: safe,
    };
    let solution = solve(graph, &placement_problem, &opts);
    let lazy = solution.lazy;
    let mut redundant = Vec::with_capacity(n);
    for node in graph.nodes() {
        let i = node.index();
        // A use whose value is already available on entry reads the
        // temporary instead of recomputing.
        let mut r = problem.antloc[i].intersection(&lazy.given_in[i]);
        // …unless the node recomputes for itself (insertion at entry).
        r.subtract_with(&lazy.res_in[i]);
        redundant.push(r);
    }
    let _ = NodeId(0);
    PrePlacement {
        insert_entry: lazy.res_in,
        insert_exit: lazy.res_out,
        redundant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcm::lazy_code_motion;
    use crate::morel_renvoise::morel_renvoise;
    use gnt_cfg::{CfgFlow, IntervalGraph, NodeKind};
    use gnt_core::{random_problem, random_program, GenConfig};

    fn pre_problem_from(
        _graph: &IntervalGraph,
        placement: &gnt_core::PlacementProblem,
    ) -> PreProblem {
        PreProblem::from_placement(placement)
    }

    fn branchy_config() -> GenConfig {
        GenConfig {
            loop_prob: 0.0,
            if_prob: 0.55,
            goto_prob: 0.0,
            max_depth: 3,
            max_block_len: 4,
        }
    }

    /// Dynamic cost of a PRE result on one path: the number of
    /// computations actually executed (insertions plus surviving
    /// original occurrences).
    fn path_computations(path: &[gnt_cfg::NodeId], pre: &PreProblem, p: &PrePlacement) -> usize {
        path.iter()
            .map(|n| {
                let i = n.index();
                let mut at_entry = p.insert_entry[i].clone();
                let mut surviving = pre.antloc[i].clone();
                surviving.subtract_with(&p.redundant[i]);
                at_entry.union_with(&surviving);
                at_entry.len() + p.insert_exit[i].len()
            })
            .sum()
    }

    #[test]
    fn gnt_is_computationally_optimal_like_lcm_on_loop_free_programs() {
        for seed in 0..60 {
            let program = random_program(seed, &branchy_config());
            let graph = IntervalGraph::from_program(&program).unwrap();
            let mut placement = random_problem(seed.wrapping_mul(7), &graph, 2, 0.5);
            // Classical PRE: nothing comes for free.
            for g in &mut placement.give_init {
                g.clear();
            }
            let pre = pre_problem_from(&graph, &placement);
            let flow = CfgFlow::from_interval(&graph);
            let lcm = lazy_code_motion(&flow, &pre);
            let gnt = gnt_lazy_pre(&graph, &pre, true);
            // Both are computationally optimal: identical numbers of
            // executed computations on every path — except where
            // GIVE-N-TAKE's RES_out (edge placement) beats node-granular
            // LCM, so ≤ with equality in the common case.
            for path in gnt_core::enumerate_paths(&graph, 1, 300) {
                let g_cost = path_computations(&path, &pre, &gnt);
                let l_cost = path_computations(&path, &pre, &lcm);
                assert!(
                    g_cost <= l_cost,
                    "seed {seed}: gnt {g_cost} vs lcm {l_cost} on {path:?}\n{}\n{}",
                    gnt_ir::pretty(&program),
                    graph.dump()
                );
            }
        }
    }

    #[test]
    fn gnt_never_does_worse_than_morel_renvoise_on_loop_free_programs() {
        for seed in 0..40 {
            let program = random_program(seed, &branchy_config());
            let graph = IntervalGraph::from_program(&program).unwrap();
            let mut placement = random_problem(seed.wrapping_mul(13), &graph, 2, 0.5);
            for g in &mut placement.give_init {
                g.clear();
            }
            let pre = pre_problem_from(&graph, &placement);
            let flow = CfgFlow::from_interval(&graph);
            let mr = morel_renvoise(&flow, &pre);
            let gnt = gnt_lazy_pre(&graph, &pre, true);
            for path in gnt_core::enumerate_paths(&graph, 1, 300) {
                let g_cost = path_computations(&path, &pre, &gnt);
                let m_cost = path_computations(&path, &pre, &mr);
                assert!(
                    g_cost <= m_cost,
                    "seed {seed}: gnt {g_cost} vs mr {m_cost} on {path:?}\n{}",
                    gnt_ir::pretty(&program)
                );
            }
        }
    }

    #[test]
    fn unsafe_mode_hoists_out_of_zero_trip_loops_where_lcm_cannot() {
        // Loop-invariant consumption: LCM recomputes per iteration
        // (safety), GIVE-N-TAKE with zero-trip hoisting produces once
        // before the loop.
        let program = gnt_ir::parse("do i = 1, N\n  ... = x(1)\nenddo").unwrap();
        let graph = IntervalGraph::from_program(&program).unwrap();
        let consumer = graph
            .nodes()
            .find(|&n| matches!(graph.kind(n), NodeKind::Stmt(_)) && graph.level(n) == 2)
            .unwrap();
        let cap = 1;
        let mut pre = PreProblem {
            universe_size: cap,
            antloc: vec![BitSet::new(cap); graph.num_nodes()],
            transp: vec![BitSet::full(cap); graph.num_nodes()],
        };
        pre.antloc[consumer.index()].insert(0);
        let unsafe_gnt = gnt_lazy_pre(&graph, &pre, false);
        let safe_gnt = gnt_lazy_pre(&graph, &pre, true);
        let flow = CfgFlow::from_interval(&graph);
        let lcm = lazy_code_motion(&flow, &pre);
        // Unsafe: the production sits on the loop-entry side (the header's
        // RES_in), executed once; the in-loop use is redundant.
        assert_eq!(unsafe_gnt.total_redundant(), 1, "{unsafe_gnt:?}");
        // Safe GNT and LCM both keep the computation inside the loop.
        assert_eq!(safe_gnt.total_redundant(), 0);
        assert_eq!(lcm.total_redundant(), 0);
    }
}

#[cfg(test)]
mod edge_placement_tests {
    use super::*;
    use crate::lcm::lazy_code_motion;
    use gnt_cfg::{CfgFlow, IntervalGraph, NodeKind};

    /// The case where GIVE-N-TAKE strictly beats node-granular LCM: a
    /// kill on one branch arm followed by a join use. The optimal
    /// insertion lives on the arm→join edge; GIVE-N-TAKE expresses it as
    /// RES_out of the arm, LCM at node granularity must recompute at the
    /// join.
    #[test]
    fn gnt_edge_placement_beats_node_lcm_on_kill_join() {
        let program =
            gnt_ir::parse("if t then\n  ... = x(1)\nelse\n  z = 0\nendif\n... = x(1)").unwrap();
        let graph = IntervalGraph::from_program(&program).unwrap();
        let stmts: Vec<_> = graph
            .nodes()
            .filter(|&n| matches!(graph.kind(n), NodeKind::Stmt(_)))
            .collect();
        let (use1, killer, use2) = (stmts[0], stmts[1], stmts[2]);
        let cap = 1;
        let mut pre = PreProblem {
            universe_size: cap,
            antloc: vec![BitSet::new(cap); graph.num_nodes()],
            transp: vec![BitSet::full(cap); graph.num_nodes()],
        };
        pre.antloc[use1.index()].insert(0);
        pre.antloc[use2.index()].insert(0);
        pre.transp[killer.index()].remove(0);
        let gnt = gnt_lazy_pre(&graph, &pre, true);
        let flow = CfgFlow::from_interval(&graph);
        let lcm = lazy_code_motion(&flow, &pre);
        // GNT: one new insertion after the kill, join use redundant.
        assert_eq!(gnt.total_redundant(), 1, "{gnt:?}");
        // LCM: keeps both computations, no elimination.
        assert_eq!(lcm.total_redundant(), 0, "{lcm:?}");
    }
}
