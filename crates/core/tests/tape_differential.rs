//! Differential suite for the full schedule walk that [`solve_delta`]
//! falls back to when it declines: on the paper's figure programs, a
//! declined delta through one shared, re-shaped scratch is bit-identical
//! to the direct solver, on the forward graph and on the reversed graph
//! `solve_after` solved last. (The file keeps the name it had when that
//! fallback replayed a compiled schedule tape.)

use gnt_cfg::{IntervalGraph, NodeKind};
use gnt_core::{
    solve, solve_after, solve_delta, DeltaSet, PlacementProblem, SolverOptions, SolverScratch,
};
use gnt_ir::parse;

/// The paper's figure programs, BEFORE and AFTER: golden shapes the rest
/// of the test suite pins in detail, here checked bit-for-bit between a
/// declined delta's full walk and the direct solver, then between a
/// marked incremental delta and the direct solver.
#[test]
fn figure_programs_solve_identically_before_and_after() {
    // Figures 1/2 (branch consumers), 4–10 (straight-line and branch
    // shapes of §4's worked example), 11/12/16 (the goto program).
    let figures: &[&str] = &[
        "if t then\n  a = 1\nelse\n  b = 2\nendif\nc = x(1)",
        "a = 1\nb = 2\nc = x(1)",
        "do i = 1, N\n  y(i) = ...\nenddo\n\
         if test then\n  do k = 1, N\n    ... = x(a(k))\n  enddo\n\
         else\n  do l = 1, N\n    ... = x(a(l))\n  enddo\nendif",
        "do i = 1, N\n\
         \u{20} y(a(i)) = ...\n\
         \u{20} if test(i) goto 77\n\
         enddo\n\
         do j = 1, N\n\
         \u{20} ... = ...\n\
         enddo\n\
         77 do k = 1, N\n\
         \u{20} ... = x(k+10) + y(b(k))\n\
         enddo",
    ];
    let opts = SolverOptions::default();
    let mut scratch = SolverScratch::new();
    for (fig, src) in figures.iter().enumerate() {
        let program = parse(src).unwrap();
        let graph = IntervalGraph::from_program(&program).unwrap();
        for items in [1usize, 64, 65] {
            let label = format!("figure {fig}, items {items}");
            let stmts: Vec<_> = graph
                .nodes()
                .filter(|&n| matches!(graph.kind(n), NodeKind::Stmt(_)))
                .collect();
            let mut problem = PlacementProblem::new(graph.num_nodes(), items);
            for (k, &n) in stmts.iter().enumerate() {
                problem.take(n, k % items);
            }

            // The scratch last held another graph or universe width, so
            // the delta declines and walks the whole schedule.
            let report = solve_delta(&graph, &problem, &opts, &mut scratch, &DeltaSet::new());
            assert!(report.full_replay, "{label}");
            assert_eq!(scratch.export(), solve(&graph, &problem, &opts), "{label}");

            // The same scratch is now a basis: marked steals re-walk
            // incrementally and still agree.
            let mut delta = DeltaSet::new();
            for (k, &n) in stmts.iter().enumerate() {
                if k % 3 == 2 {
                    problem.steal(n, (k + 1) % items);
                    delta.mark_steal(n);
                }
            }
            let report = solve_delta(&graph, &problem, &opts, &mut scratch, &delta);
            assert!(!report.full_replay, "{label}");
            assert_eq!(scratch.export(), solve(&graph, &problem, &opts), "{label}");

            // AFTER: a declined delta on the reversed graph `solve_after`
            // solved last (poisoned if the §5.3 fallback ran) walks to
            // its solution.
            let after = solve_after(&graph, &problem, &opts).unwrap();
            let mut rp = problem.clone();
            rp.resize_nodes(after.reversed.num_nodes());
            let report = solve_delta(&after.reversed, &rp, &opts, &mut scratch, &DeltaSet::new());
            assert!(report.full_replay, "{label}: after");
            assert_eq!(scratch.export(), after.solution, "{label}: after");
        }
    }
}
