//! Property: the linter accepts the solver's own output — on random
//! placement problems over random structured programs, and end to end
//! through the `gnt-lint` driver pipeline.

use gnt_analyze::audit::{audit_placement, AuditOptions};
use gnt_analyze::driver::{detect_distributed, lint_program, LintOptions};
use gnt_analyze::placement::{lint_placement, PlacementLintOptions};
use gnt_cfg::IntervalGraph;
use gnt_comm::{analyze, CommConfig};
use gnt_core::{
    random_problem, random_program, shift_off_synthetic, sized_program, solve, GenConfig,
    SolverOptions,
};
use gnt_ir::Program;
use proptest::prelude::*;

/// The placement audits on the READ placement `gnt-lint` emits for
/// `program`: the solver's shifted solution of the analysis's READ
/// problem, with the arrays auto-detected as the driver does.
fn audit_driver_read_placement(program: &Program) -> Vec<gnt_analyze::Diagnostic> {
    let distributed = detect_distributed(program);
    let refs: Vec<&str> = distributed.iter().map(String::as_str).collect();
    let analysis = analyze(program, &CommConfig::distributed(&refs)).expect("program analyzes");
    let graph = &analysis.graph;
    let mut sol = solve(graph, &analysis.read_problem, &SolverOptions::default());
    shift_off_synthetic(graph, &mut sol.eager);
    shift_off_synthetic(graph, &mut sol.lazy);
    audit_placement(
        graph,
        &analysis.read_problem,
        &sol.eager,
        &sol.lazy,
        &AuditOptions::default(),
    )
}

/// The driver does not run `audit_placement` on the solver's own READ
/// placement because it is silent there by construction. This pins
/// that on the example corpus and on array-carrying sized programs;
/// `optimality_audits_are_silent_on_solver_output` below covers random
/// programs with random problems.
#[test]
fn placement_audits_are_silent_on_the_driver_read_placement() {
    let dir = format!("{}/../../examples", env!("CARGO_MANIFEST_DIR"));
    let mut examples: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "minif"))
        .collect();
    examples.sort();
    assert!(!examples.is_empty(), "no examples/*.minif");
    for path in &examples {
        let src = std::fs::read_to_string(path).expect("example reads");
        let program = gnt_ir::parse(&src).expect("example parses");
        let diags = audit_driver_read_placement(&program);
        assert!(diags.is_empty(), "{}: {diags:?}", path.display());
    }
    for stmts in [10, 50, 200] {
        let diags = audit_driver_read_placement(&sized_program(stmts));
        assert!(diags.is_empty(), "sized_program({stmts}): {diags:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// 1000 random programs with random consumption patterns: the
    /// solved-and-shifted placement produces zero diagnostics.
    #[test]
    fn solver_output_lints_clean(
        pseed in 0u64..20_000,
        qseed in 0u64..5_000,
        items in 1usize..4,
        density in 0u32..100,
    ) {
        let program = random_program(pseed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let problem = random_problem(qseed, &graph, items, f64::from(density) / 100.0);
        let mut sol = solve(&graph, &problem, &SolverOptions::default());
        shift_off_synthetic(&graph, &mut sol.eager);
        shift_off_synthetic(&graph, &mut sol.lazy);
        let diags = lint_placement(
            &graph,
            &problem,
            &sol.eager,
            &sol.lazy,
            &PlacementLintOptions::default(),
        );
        prop_assert!(diags.is_empty(), "solver output flagged: {diags:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// 500 random programs: the GNT03x optimality auditors never fire on
    /// the solver's own (shifted) output — the solver is already optimal,
    /// so any audit finding would be a false positive.
    #[test]
    fn optimality_audits_are_silent_on_solver_output(
        pseed in 20_000u64..30_000,
        qseed in 0u64..5_000,
        items in 1usize..4,
        density in 0u32..100,
    ) {
        let program = random_program(pseed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let problem = random_problem(qseed, &graph, items, f64::from(density) / 100.0);
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
        prop_assert!(diags.is_empty(), "audit flagged solver output: {diags:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// End to end: random programs through the whole `gnt-lint` pipeline
    /// (analysis, both placement problems, the communication-plan replay)
    /// lint clean and exit 0.
    #[test]
    fn driver_pipeline_is_clean_on_random_programs(pseed in 0u64..20_000) {
        let program = random_program(pseed, &GenConfig::default());
        let report = lint_program(&program, &LintOptions::default())
            .expect("pipeline runs on random programs");
        prop_assert!(
            report.diagnostics.is_empty(),
            "driver flagged solver output: {:?}",
            report.diagnostics
        );
        prop_assert_eq!(report.exit_code(&[]), 0);
    }
}
