//! §6 extension: bounding production-region pressure.
//!
//! "Often the computations compete for resources, like registers or
//! message buffers … certain extensions (such as a heuristic for
//! inserting additional STEAL_init's which blocks production) could help
//! to solve this conflict." — the paper's closing discussion.
//!
//! An item is *in flight* at a program point when the EAGER solution has
//! produced it but the LAZY one has not yet (a sent-but-unreceived
//! message, a live temporary). [`measure_pressure`] reports the in-flight
//! count per node; [`solve_with_pressure_limit_in_place`] iteratively
//! inserts `STEAL_init` at the hottest points to force shorter
//! production regions until the limit holds — trading hiding (and
//! possibly extra productions) for bounded buffers, exactly the conflict
//! the paper describes.
//!
//! The re-solve loop runs entirely inside one [`SolverScratch`] arena:
//! [`solve_with_pressure_limit_in_place`] mutates `steal_init` in place,
//! reads the in-flight counts straight off the arena, and rolls the
//! inserted steals back before returning — no per-round clones, no
//! per-round `Solution` export.

use crate::delta::{solve_delta, DeltaSet};
use crate::problem::{PlacementProblem, SolverOptions};
use crate::scratch::SolverScratch;
use crate::solver::Solution;
use crate::tape::solve_batch_into;
use gnt_cfg::{IntervalGraph, NodeId};

/// The in-flight item count at each node's entry for `solution`:
/// `|GIVEN_in^eager − GIVEN_in^lazy|`.
pub fn measure_pressure(graph: &IntervalGraph, solution: &Solution) -> Vec<usize> {
    graph
        .nodes()
        .map(|n| {
            let i = n.index();
            solution.eager.given_in[i]
                .difference(&solution.lazy.given_in[i])
                .len()
        })
        .collect()
}

/// The outcome of pressure-limited solving.
#[derive(Clone, Debug)]
pub struct PressureReport {
    /// Maximum in-flight count before limiting.
    pub initial_max: usize,
    /// Maximum in-flight count of the returned solution.
    pub final_max: usize,
    /// `STEAL_init` entries inserted by the heuristic.
    pub steals_inserted: usize,
    /// Rounds of re-solving performed.
    pub rounds: usize,
    /// Rounds served by the incremental engine ([`crate::solve_delta`])
    /// rather than a full tape replay. Equal to `rounds` whenever the
    /// tape supports delta execution (all forward tapes do).
    pub delta_rounds: usize,
}

/// Solves `problem`, then re-solves with additional `STEAL_init`s until
/// no node has more than `max_pending` items in flight (or `max_rounds`
/// is exhausted — the limit may be infeasible, e.g. a single node
/// consuming more items than the budget).
///
/// The heuristic demotes the highest-numbered in-flight items at the
/// currently hottest node; each inserted steal blocks production across
/// that node, shortening the item's region (and possibly splitting it,
/// at the cost of extra productions — the paper's stated trade).
///
/// The rounds mutate `problem.steal_init` in place (reusing `scratch`,
/// so rounds after the first allocate nothing) and every inserted steal
/// is rolled back before returning, leaving `problem` exactly as it was.
/// The returned [`Solution`] is the one exported from the final round,
/// i.e. it reflects the inserted steals.
pub fn solve_with_pressure_limit_in_place(
    graph: &IntervalGraph,
    problem: &mut PlacementProblem,
    opts: &SolverOptions,
    max_pending: usize,
    max_rounds: usize,
    scratch: &mut SolverScratch,
) -> (Solution, PressureReport) {
    // Round 0 is a full tape replay; it establishes the delta basis, so
    // every later round — which only mutates `STEAL_init` at the one hot
    // node — re-solves incrementally through the cached tape's dirty-row
    // engine instead of replaying every op.
    solve_batch_into(graph, problem, opts, scratch);
    let pressure_max = |s: &SolverScratch| {
        graph
            .nodes()
            .map(|n| s.in_flight_count(n))
            .max()
            .unwrap_or(0)
    };
    let initial_max = pressure_max(scratch);
    let mut report = PressureReport {
        initial_max,
        final_max: initial_max,
        steals_inserted: 0,
        rounds: 0,
        delta_rounds: 0,
    };
    // Steals inserted by the heuristic (only those not already present in
    // the caller's problem), for rollback.
    let mut inserted: Vec<(usize, usize)> = Vec::new();
    let mut delta = DeltaSet::new();

    while report.final_max > max_pending && report.rounds < max_rounds {
        report.rounds += 1;
        let (hot, count) = graph
            .nodes()
            .map(|n| (n.index(), scratch.in_flight_count(n)))
            .max_by_key(|&(_, c)| c)
            .expect("non-empty graph");
        if count <= max_pending {
            break;
        }
        let node = NodeId(hot as u32);
        // In-flight items at the hot node, highest ids demoted first.
        let mut in_flight = scratch.in_flight_items(node);
        in_flight.reverse();
        for item in in_flight.into_iter().take(count - max_pending) {
            if !problem.steal_init[hot].contains(item) {
                problem.steal(node, item);
                inserted.push((hot, item));
                report.steals_inserted += 1;
            }
        }
        // Only STEAL_init(hot) changed since the solve the scratch holds.
        delta.clear();
        delta.mark_steal(node);
        let delta_report = solve_delta(graph, problem, opts, scratch, &delta);
        if !delta_report.full_replay {
            report.delta_rounds += 1;
        }
        report.final_max = pressure_max(scratch);
    }
    let solution = scratch.export();
    for (node, item) in inserted {
        problem.steal_init[node].remove(item);
    }
    (solution, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PlacementProblem;
    use crate::verify::{check_balance, check_sufficiency};
    use gnt_cfg::{IntervalGraph, NodeKind};
    use gnt_ir::parse;

    /// A chain of consumers of distinct items: everything hoists to ROOT,
    /// so all K items are in flight at once.
    fn chain(k: usize) -> (IntervalGraph, PlacementProblem) {
        let src = (0..k)
            .map(|i| format!("... = x{i}(1)"))
            .collect::<Vec<_>>()
            .join("\n");
        let g = IntervalGraph::from_program(&parse(&src).unwrap()).unwrap();
        let mut problem = PlacementProblem::new(g.num_nodes(), k);
        let consumers: Vec<_> = g
            .nodes()
            .filter(|&n| matches!(g.kind(n), NodeKind::Stmt(_)))
            .collect();
        for (i, &c) in consumers.iter().enumerate() {
            problem.take(c, i);
        }
        (g, problem)
    }

    /// The pressure loop on a fresh scratch and a copy of `p`.
    fn limit(
        g: &IntervalGraph,
        p: &PlacementProblem,
        max_pending: usize,
        max_rounds: usize,
    ) -> (Solution, PressureReport) {
        let mut working = p.clone();
        let mut scratch = SolverScratch::new();
        solve_with_pressure_limit_in_place(
            g,
            &mut working,
            &SolverOptions::default(),
            max_pending,
            max_rounds,
            &mut scratch,
        )
    }

    #[test]
    fn unlimited_solve_pipelines_everything() {
        let (g, p) = chain(6);
        let s = crate::solver::solve(&g, &p, &SolverOptions::default());
        let max = measure_pressure(&g, &s).into_iter().max().unwrap();
        assert_eq!(max, 6, "all sends hoisted to ROOT");
    }

    #[test]
    fn pressure_limit_is_enforced_and_solution_stays_correct() {
        let (g, p) = chain(6);
        let (s, report) = limit(&g, &p, 2, 32);
        assert!(report.final_max <= 2, "{report:?}");
        assert!(report.steals_inserted > 0);
        assert!(check_sufficiency(&g, &p, &s.eager, true).is_empty());
        assert!(check_sufficiency(&g, &p, &s.lazy, true).is_empty());
        assert!(check_balance(&g, &p, &s.eager, &s.lazy).is_empty());
    }

    #[test]
    fn generous_limit_changes_nothing() {
        let (g, p) = chain(4);
        let (s, report) = limit(&g, &p, 10, 32);
        assert_eq!(report.steals_inserted, 0);
        assert_eq!(report.rounds, 0);
        assert_eq!(s.eager.num_productions(), 4);
    }

    #[test]
    fn infeasible_limit_terminates() {
        // One consumer of 3 items at a single node: pressure at that node
        // cannot drop below... the lazy receives happen at the consumer,
        // so pending just before it stays at 3 minus whatever the
        // heuristic forces local. The call must terminate either way.
        let src = "a = 1\n... = x(1) + y(1) + z(1)";
        let g = IntervalGraph::from_program(&parse(src).unwrap()).unwrap();
        let consumer = g
            .nodes()
            .filter(|&n| matches!(g.kind(n), NodeKind::Stmt(_)))
            .last()
            .unwrap();
        let mut p = PlacementProblem::new(g.num_nodes(), 3);
        for i in 0..3 {
            p.take(consumer, i);
        }
        let (s, report) = limit(&g, &p, 0, 8);
        assert!(report.rounds <= 8);
        assert!(check_sufficiency(&g, &p, &s.eager, true).is_empty());
    }

    #[test]
    fn pressure_rounds_are_served_incrementally() {
        let (g, p) = chain(6);
        let (_, report) = limit(&g, &p, 2, 32);
        assert!(report.rounds > 0);
        assert_eq!(
            report.delta_rounds, report.rounds,
            "forward tapes must serve every re-solve round via the delta engine: {report:?}"
        );
    }

    #[test]
    fn in_place_rolls_back_inserted_steals() {
        let (g, p) = chain(6);
        let mut working = p.clone();
        let mut scratch = SolverScratch::new();
        let (s, report) = solve_with_pressure_limit_in_place(
            &g,
            &mut working,
            &SolverOptions::default(),
            2,
            32,
            &mut scratch,
        );
        assert!(report.steals_inserted > 0);
        // The problem is restored bit-for-bit despite the in-place rounds.
        assert_eq!(working, p);
        assert!(report.final_max <= 2);
        // And the reused-scratch result matches a fresh scratch's.
        let (s2, _) = limit(&g, &p, 2, 32);
        assert_eq!(s, s2);
    }
}
