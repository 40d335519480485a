//! §5.4: shifting production off synthetic nodes.
//!
//! Production placed at a synthetic node would require materializing a new
//! basic block (a fresh `else` branch, a landing pad). Often the
//! production can instead ride on a neighboring real node: the paper's
//! implementation runs "a backward pass on G which checks whether these
//! movements can be done without conflicts". [`shift_off_synthetic`]
//! implements that pass:
//!
//! * `RES` at a synthetic node `s` moves backward to its unique real
//!   predecessor `p` when `s` is `p`'s only successor (the production
//!   then fires on `p`'s exit — the same edge);
//! * otherwise it moves forward to its unique real successor `q` when `s`
//!   is `q`'s only predecessor (firing at `q`'s entry — again the same
//!   edge);
//! * otherwise it stays: the code generator must create a block for `s`
//!   (as in Figure 3's synthesized `else` branch).

use crate::solver::FlavorSolution;
use gnt_cfg::{EdgeMask, IntervalGraph, NodeId};

/// Statistics returned by [`shift_off_synthetic`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShiftReport {
    /// Productions moved to a predecessor's exit.
    pub moved_back: usize,
    /// Productions moved to a successor's entry.
    pub moved_forward: usize,
    /// Synthetic nodes that still carry production and need a real block.
    pub stuck_nodes: usize,
}

/// Moves production off synthetic nodes where no conflict arises,
/// mutating `placement` in place. Returns what happened.
///
/// The transformation never changes on which *edges* production fires.
/// Balance is therefore preserved. Sufficiency and safety are preserved
/// only if no synthetic node that carries production also carries a
/// `STEAL_init` of the produced items: a backward move takes `RES_out(s)`,
/// which fires after `s`'s own steal, to `RES_out(p)`, which fires before
/// it, so the steal now destroys the production. Synthetic nodes carry no
/// initial sets in problems built from a program, but `gnt-comm`'s WRITE
/// problem does: its phase coupling adds a steal wherever the *pre-shift*
/// READ placement produces, synthetic nodes included. On
///
/// ```text
/// z(1) = ...
/// if q then
///   do j = 1, N
///     ... = z(j)
///   enddo
/// endif
/// ```
///
/// the shifted WRITE solution fails [`crate::check_sufficiency`] on the
/// reversed graph while the unshifted one passes. The emitted plan is
/// still correct — `WRITE_recv{z(1)}` before `READ_send{z(1:N)}` in the
/// `then` branch — only because the READ that is the steal shifts to the
/// same anchor and the emitter orders writes before reads there. Verify
/// such a placement before the shift.
pub fn shift_off_synthetic(graph: &IntervalGraph, placement: &mut FlavorSolution) -> ShiftReport {
    let mut report = ShiftReport::default();
    // Backward pass, as in the paper.
    for &s in graph.preorder().iter().rev() {
        if !graph.kind(s).is_synthetic() {
            continue;
        }
        let has_res =
            !placement.res_in[s.index()].is_empty() || !placement.res_out[s.index()].is_empty();
        if !has_res {
            continue;
        }
        let preds: Vec<NodeId> = graph.preds(s, EdgeMask::CEFJ).collect();
        let succs: Vec<NodeId> = graph.succs(s, EdgeMask::CEFJ).collect();
        // Forward: s is q's only incoming edge, so production at q's
        // entry fires on the same edge. For loop headers only non-CYCLE
        // predecessors count: a header's RES_in is emitted before the
        // `do` and does not re-fire on the back edge, so a header whose
        // only outside predecessor is s is a legal target (this is how
        // the pre-loop sends of Figures 2/14 end up textually before
        // their loops).
        let forward_ok = succs.len() == 1 && !graph.kind(succs[0]).is_synthetic() && {
            let q = succs[0];
            let mut outside = q_outside_preds(graph, q);
            outside.next() == Some(s) && outside.next().is_none()
        };
        if forward_ok {
            let q = succs[0].index();
            let (rin, rout) = (
                placement.res_in[s.index()].clone(),
                placement.res_out[s.index()].clone(),
            );
            placement.res_in[q].union_with(&rin);
            placement.res_in[q].union_with(&rout);
            placement.res_in[s.index()].clear();
            placement.res_out[s.index()].clear();
            report.moved_forward += 1;
            continue;
        }
        // Backward: p → s is p's only outgoing edge, so placing the
        // production at p's exit fires on exactly the same edge. For a
        // loop header p, RES_out fires on FORWARD/JUMP (loop-exit) edges
        // only, so the requirement is that s be its unique loop exit —
        // this is how ops land textually right after the `enddo`.
        let back_ok = preds.len() == 1 && !graph.kind(preds[0]).is_synthetic() && {
            let p = preds[0];
            if graph.is_loop_header(p) {
                let mut exits = graph.succs(p, EdgeMask::FJ);
                exits.next() == Some(s) && exits.next().is_none()
            } else {
                graph.succs(p, EdgeMask::CEFJ).count() == 1
            }
        };
        if back_ok {
            let p = preds[0].index();
            let (rin, rout) = (
                placement.res_in[s.index()].clone(),
                placement.res_out[s.index()].clone(),
            );
            placement.res_out[p].union_with(&rin);
            placement.res_out[p].union_with(&rout);
            placement.res_in[s.index()].clear();
            placement.res_out[s.index()].clear();
            report.moved_back += 1;
            continue;
        }
        report.stuck_nodes += 1;
    }
    report
}

/// Non-CYCLE real predecessors of `q` (the edges on which `RES_in(q)`
/// fires).
fn q_outside_preds<'a>(graph: &'a IntervalGraph, q: NodeId) -> impl Iterator<Item = NodeId> + 'a {
    graph
        .pred_edges(q)
        .filter(|(_, c)| EdgeMask::CEFJ.matches(*c) && *c != gnt_cfg::EdgeClass::Cycle)
        .map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{PlacementProblem, SolverOptions};
    use crate::solver::solve;
    use crate::verify::{check_balance, check_sufficiency};
    use gnt_cfg::NodeKind;
    use gnt_ir::parse;

    fn graph(src: &str) -> IntervalGraph {
        IntervalGraph::from_program(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn production_on_synthetic_else_branch_stays_put() {
        // Figure 3's shape: consumer after an if-without-else; the eager
        // production for the else path sits on the synthetic else branch
        // and has nowhere legal to go.
        let g = graph("if t then\n  z = 0\nendif\n... = x(1)");
        let consumer = g
            .nodes()
            .filter(|&n| matches!(g.kind(n), NodeKind::Stmt(_)))
            .last()
            .unwrap();
        let killer = g
            .nodes()
            .find(|&n| matches!(g.kind(n), NodeKind::Stmt(_)))
            .unwrap();
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.take(consumer, 0);
        prob.steal(killer, 0);
        let mut sol = solve(&g, &prob, &SolverOptions::default());
        let on_synth_before = g
            .nodes()
            .filter(|&n| g.kind(n).is_synthetic())
            .any(|n| !sol.eager.res_in[n.index()].is_empty());
        assert!(on_synth_before, "{}", g.dump());
        let report = shift_off_synthetic(&g, &mut sol.eager);
        // The else-branch synthetic node has branch pred (multi-succ) and
        // join succ (multi-pred): it must stay, but the post-steal path
        // production (also synthetic after the `then` side) may move.
        assert!(report.stuck_nodes >= 1, "{report:?}\n{}", g.dump());
        // Still correct afterwards.
        assert!(check_sufficiency(&g, &prob, &sol.eager, true).is_empty());
    }

    #[test]
    fn latch_production_moves_to_real_neighbor() {
        // A production that lands on a single-pred single-succ synthetic
        // node moves to a real neighbor.
        let g = graph("do i = 1, N\n  ... = x(a(i))\n  z = 0\nenddo\nb = 1");
        let consumer = g
            .nodes()
            .find(|&n| matches!(g.kind(n), NodeKind::Stmt(_)) && g.level(n) == 2)
            .unwrap();
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.take(consumer, 0);
        let mut sol = solve(&g, &prob, &SolverOptions::default());
        let before = sol.eager.num_productions();
        let _ = shift_off_synthetic(&g, &mut sol.eager);
        assert_eq!(sol.eager.num_productions(), before, "moves, not drops");
        assert!(check_sufficiency(&g, &prob, &sol.eager, true).is_empty());
    }

    #[test]
    fn shift_preserves_balance_and_sufficiency() {
        for seed in 0..20 {
            let p = crate::generator::random_program(seed, &crate::GenConfig::default());
            let Ok(g) = IntervalGraph::from_program(&p) else {
                continue;
            };
            let prob = crate::generator::random_problem(seed, &g, 3, 0.4);
            let mut sol = solve(&g, &prob, &SolverOptions::default());
            shift_off_synthetic(&g, &mut sol.eager);
            shift_off_synthetic(&g, &mut sol.lazy);
            let v = check_sufficiency(&g, &prob, &sol.eager, true);
            assert!(
                v.is_empty(),
                "seed {seed}: {v:?}\n{}\n{}",
                gnt_ir::pretty(&p),
                g.dump()
            );
            assert!(
                check_sufficiency(&g, &prob, &sol.lazy, true).is_empty(),
                "seed {seed}"
            );
            assert!(
                check_balance(&g, &prob, &sol.eager, &sol.lazy).is_empty(),
                "seed {seed}"
            );
        }
    }
}
