//! Property-based tests: the correctness criteria hold on random
//! structured programs with random consumption patterns.

use gnt_cfg::{reversed_graph, IntervalGraph};
use gnt_core::{
    check_balance, check_path, check_sufficiency, enumerate_paths, path_has_zero_trip,
    random_problem, random_program, shift_off_synthetic, solve, solve_after, GenConfig,
    SolverOptions, Violation,
};
use proptest::prelude::*;

fn arb_case() -> impl Strategy<Value = (u64, u64, usize, u32)> {
    (0u64..5_000, 0u64..1_000, 1usize..4, 0u32..100u32)
}

fn not_soft(v: &Violation) -> bool {
    !matches!(v, Violation::Redundant { .. } | Violation::Unsafe { .. })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// C1 + C3 via the dataflow verifiers, under the paper's ≥1-trip
    /// worldview.
    #[test]
    fn solver_is_sufficient_and_balanced((pseed, qseed, items, density) in arb_case()) {
        let program = random_program(pseed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let problem = random_problem(qseed, &graph, items, f64::from(density) / 100.0);
        let sol = solve(&graph, &problem, &SolverOptions::default());
        prop_assert!(check_sufficiency(&graph, &problem, &sol.eager, true).is_empty());
        prop_assert!(check_sufficiency(&graph, &problem, &sol.lazy, true).is_empty());
        prop_assert!(check_balance(&graph, &problem, &sol.eager, &sol.lazy).is_empty());
    }

    /// Exhaustive bounded-path check: no insufficiency or unbalance on
    /// any enumerated path (strict off on zero-trip paths).
    #[test]
    fn solver_is_correct_on_enumerated_paths((pseed, qseed, items, density) in arb_case()) {
        let program = random_program(pseed, &GenConfig { max_depth: 2, max_block_len: 3, ..Default::default() });
        let graph = IntervalGraph::from_program(&program).unwrap();
        let problem = random_problem(qseed, &graph, items, f64::from(density) / 100.0);
        let sol = solve(&graph, &problem, &SolverOptions::default());
        for path in enumerate_paths(&graph, 2, 120) {
            let strict = !path_has_zero_trip(&graph, &path);
            let v = check_path(&graph, &path, &problem, &sol.eager, &sol.lazy, strict);
            let hard: Vec<_> = v.iter().filter(|x| not_soft(x)).collect();
            prop_assert!(hard.is_empty(), "{hard:?} on {path:?}");
        }
    }

    /// With zero-trip hoisting disabled, sufficiency holds on *every*
    /// path, including zero-trip ones.
    #[test]
    fn no_hoist_mode_is_sufficient_everywhere((pseed, qseed, items, density) in arb_case()) {
        let program = random_program(pseed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let problem = random_problem(qseed, &graph, items, f64::from(density) / 100.0);
        let opts = SolverOptions { no_zero_trip_hoist: true };
        let sol = solve(&graph, &problem, &opts);
        prop_assert!(check_sufficiency(&graph, &problem, &sol.eager, false).is_empty());
        prop_assert!(check_sufficiency(&graph, &problem, &sol.lazy, false).is_empty());
        prop_assert!(check_balance(&graph, &problem, &sol.eager, &sol.lazy).is_empty());
    }

    /// The §5.4 shift pass preserves all criteria.
    #[test]
    fn shift_preserves_criteria((pseed, qseed, items, density) in arb_case()) {
        let program = random_program(pseed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let problem = random_problem(qseed, &graph, items, f64::from(density) / 100.0);
        let mut sol = solve(&graph, &problem, &SolverOptions::default());
        shift_off_synthetic(&graph, &mut sol.eager);
        shift_off_synthetic(&graph, &mut sol.lazy);
        prop_assert!(check_sufficiency(&graph, &problem, &sol.eager, true).is_empty());
        prop_assert!(check_sufficiency(&graph, &problem, &sol.lazy, true).is_empty());
        prop_assert!(check_balance(&graph, &problem, &sol.eager, &sol.lazy).is_empty());
    }

    /// AFTER problems: the reversed-graph solution is sufficient and
    /// balanced over the reversed flow.
    #[test]
    fn after_solutions_are_sufficient_and_balanced((pseed, qseed, items, density) in arb_case()) {
        let program = random_program(pseed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let mut problem = random_problem(qseed, &graph, items, f64::from(density) / 100.0);
        // AFTER problems rarely use GIVE in our applications; keep it,
        // the framework supports it symmetrically.
        let after = solve_after(&graph, &problem, &SolverOptions::default()).unwrap();
        problem.resize_nodes(after.reversed.num_nodes());
        prop_assert!(check_sufficiency(&after.reversed, &problem, &after.solution.eager, true).is_empty());
        prop_assert!(check_sufficiency(&after.reversed, &problem, &after.solution.lazy, true).is_empty());
        prop_assert!(check_balance(&after.reversed, &problem, &after.solution.eager, &after.solution.lazy).is_empty());
    }

    /// The solver is deterministic.
    #[test]
    fn solver_is_deterministic((pseed, qseed, items, density) in arb_case()) {
        let program = random_program(pseed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let problem = random_problem(qseed, &graph, items, f64::from(density) / 100.0);
        let a = solve(&graph, &problem, &SolverOptions::default());
        let b = solve(&graph, &problem, &SolverOptions::default());
        prop_assert_eq!(a.eager.res_in, b.eager.res_in);
        prop_assert_eq!(a.lazy.res_in, b.lazy.res_in);
        prop_assert_eq!(a.eager.res_out, b.eager.res_out);
    }

    /// Reversing twice yields a graph with the original root/exit and the
    /// same loop headers.
    #[test]
    fn double_reversal_preserves_structure(pseed in 0u64..5_000) {
        let program = random_program(pseed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let rev = reversed_graph(&graph).unwrap();
        prop_assert_eq!(rev.root(), graph.exit());
        for h in graph.nodes() {
            if graph.is_loop_header(h) {
                prop_assert!(rev.is_loop_header(h));
            }
        }
    }

    /// An empty problem never produces anything, and a problem's
    /// productions never exceed (items × nodes) sanity bounds.
    #[test]
    fn production_count_is_sane((pseed, qseed, items, density) in arb_case()) {
        let program = random_program(pseed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let problem = random_problem(qseed, &graph, items, f64::from(density) / 100.0);
        let sol = solve(&graph, &problem, &SolverOptions::default());
        let takes: usize = problem.take_init.iter().map(|s| s.len()).sum();
        if takes == 0 {
            prop_assert_eq!(sol.eager.num_productions(), 0);
            prop_assert_eq!(sol.lazy.num_productions(), 0);
        }
        prop_assert!(sol.eager.num_productions() <= graph.num_nodes() * items);
    }
}
