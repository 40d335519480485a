//! Property: the linter accepts the solver's own output — on random
//! placement problems over random structured programs, on the placements
//! a communication plan was emitted from, and end to end through the
//! `gnt-lint` driver pipeline.

use gnt_analyze::audit::{audit_placement, AuditOptions};
use gnt_analyze::driver::{detect_distributed, lint_program, LintOptions};
use gnt_analyze::placement::{lint_placement, PlacementLintOptions};
use gnt_analyze::{lint_plan, CommLintOptions, Diagnostic};
use gnt_cfg::IntervalGraph;
use gnt_comm::{
    analyze, generate_with_placement, CommConfig, CommPlan, EmittedPlacement, GenerateOptions,
};
use gnt_core::{
    check_balance, check_sufficiency, random_problem, random_program, shift_off_synthetic,
    sized_program, solve, solve_after, GenConfig, SolverOptions, SolverScratch,
};
use gnt_ir::Program;
use proptest::prelude::*;

/// The plan `gnt-lint` would lint for `program` (arrays auto-detected as
/// the driver does), generated under `opts`, and the placement it was
/// emitted from.
fn emitted(program: &Program, opts: &GenerateOptions) -> (CommPlan, EmittedPlacement) {
    let distributed = detect_distributed(program);
    let refs: Vec<&str> = distributed.iter().map(String::as_str).collect();
    let analysis = analyze(program, &CommConfig::distributed(&refs)).expect("program analyzes");
    generate_with_placement(analysis, opts, &mut SolverScratch::new()).expect("plan generates")
}

/// Every placement criterion, O2/O3/O3' included, on the solutions a plan
/// was emitted from: READ (shifted) on the analysis graph, and the
/// coupled WRITE problem (unshifted) on the plan's reversed graph. The
/// driver skips O2/O3/O3': for READ they compare the solution with
/// itself, and for WRITE with a shifted optimum. This is the only check
/// that they would be silent.
fn lint_emitted(plan: &CommPlan, placement: &EmittedPlacement) -> Vec<Diagnostic> {
    let opts = PlacementLintOptions::default();
    let mut found = lint_placement(
        &plan.analysis.graph,
        &plan.analysis.read_problem,
        &placement.read_eager,
        &placement.read_lazy,
        &opts,
    );
    found.extend(lint_placement(
        &placement.reversed,
        &placement.write_problem,
        &placement.write_eager,
        &placement.write_lazy,
        &opts,
    ));
    found
}

/// `examples/*.minif`, sorted, with their paths.
fn examples() -> Vec<(std::path::PathBuf, Program)> {
    let dir = format!("{}/../../examples", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "minif"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no examples/*.minif");
    paths
        .into_iter()
        .map(|path| {
            let src = std::fs::read_to_string(&path).expect("example reads");
            let program = gnt_ir::parse(&src).expect("example parses");
            (path, program)
        })
        .collect()
}

/// The placement audits on the READ placement `gnt-lint` emits for
/// `program`.
fn audit_driver_read_placement(program: &Program) -> Vec<Diagnostic> {
    let (plan, placement) = emitted(program, &GenerateOptions::default());
    audit_placement(
        &plan.analysis.graph,
        &plan.analysis.read_problem,
        &placement.read_eager,
        &placement.read_lazy,
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
    for (path, program) in examples() {
        let diags = audit_driver_read_placement(&program);
        assert!(diags.is_empty(), "{}: {diags:?}", path.display());
    }
    for stmts in [10, 50, 200] {
        let diags = audit_driver_read_placement(&sized_program(stmts));
        assert!(diags.is_empty(), "sized_program({stmts}): {diags:?}");
    }
}

/// The driver lints the plan's own solutions without O2/O3/O3'. This
/// pins that every criterion, those included, is silent on them: on the
/// example corpus and on array-carrying sized programs. Random programs
/// follow in `emitted_placements_lint_clean_on_random_programs`.
#[test]
fn emitted_placements_lint_clean_with_optimality() {
    for (path, program) in examples() {
        let (plan, placement) = emitted(&program, &GenerateOptions::default());
        let diags = lint_emitted(&plan, &placement);
        assert!(diags.is_empty(), "{}: {diags:?}", path.display());
    }
    for stmts in [10, 50, 200] {
        let (plan, placement) = emitted(&sized_program(stmts), &GenerateOptions::default());
        let diags = lint_emitted(&plan, &placement);
        assert!(diags.is_empty(), "sized_program({stmts}): {diags:?}");
    }
}

/// A pressure-bounded plan hands out the bounded READ placement, not the
/// unbounded optimum a re-solve of the analysis's READ problem gives, and
/// every criterion is silent on it against the problem it solved: the
/// READ problem plus the steals the pressure heuristic inserted.
#[test]
fn emitted_read_placement_is_the_pressure_bounded_one() {
    let program =
        gnt_ir::parse("... = x(1)\n... = x(11)\n... = x(21)\n... = x(31)").expect("program parses");
    let bounded = GenerateOptions {
        max_in_flight: Some(1),
        ..Default::default()
    };
    let (plan, placement) = emitted(&program, &bounded);
    let report = plan.read_pressure.as_ref().expect("bounded plan");
    assert!(!report.steals.is_empty(), "{report:?}");
    let graph = &plan.analysis.graph;
    let mut unbounded = solve(
        graph,
        &plan.analysis.read_problem,
        &SolverOptions::default(),
    );
    shift_off_synthetic(graph, &mut unbounded.eager);
    assert_ne!(placement.read_eager.res_in, unbounded.eager.res_in);
    let mut problem = plan.analysis.read_problem.clone();
    for &(node, item) in &report.steals {
        problem.steal(node, item);
    }
    let diags = lint_placement(
        graph,
        &problem,
        &placement.read_eager,
        &placement.read_lazy,
        &PlacementLintOptions::default(),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

/// Figures 3 and 11 are where coupling the phases matters: the WRITE
/// solution the plan was emitted from differs from a solve of the
/// analysis's uncoupled WRITE problem, so the tests above check the
/// placement the plan really carries. Figure 1 has no READ to couple.
#[test]
fn coupled_write_solve_differs_from_the_uncoupled_one_on_figures_3_and_11() {
    for (path, program) in examples() {
        let (plan, placement) = emitted(&program, &GenerateOptions::default());
        let uncoupled = solve_after(
            &plan.analysis.graph,
            &plan.analysis.write_problem,
            &SolverOptions::default(),
        )
        .expect("figure reverses");
        let differs = uncoupled.solution.eager.res_in != placement.write_eager.res_in
            || uncoupled.solution.eager.res_out != placement.write_eager.res_out;
        let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        assert_eq!(differs, name != "fig1", "{}", path.display());
    }
}

/// The synthetic-node shift does not preserve sufficiency when the
/// synthetic node carries a `STEAL_init`, and the phase coupling puts one
/// on the node between `then` and the loop here. The shifted WRITE
/// solution fails sufficiency on the reversed graph; the unshifted one,
/// which the driver lints, passes; and the emitted plan is correct,
/// because the emitter orders `WRITE_recv{z(1)}` before the READ that
/// shifted to the same anchor.
#[test]
fn shift_breaks_sufficiency_of_the_coupled_write_solution_but_not_the_plan() {
    let program =
        gnt_ir::parse("z(1) = ...\nif q then\n  do j = 1, N\n    ... = z(j)\n  enddo\nendif")
            .expect("program parses");
    let (plan, placement) = emitted(&program, &GenerateOptions::default());
    let rev = &placement.reversed;
    let mut shifted = placement.write_eager.clone();
    shift_off_synthetic(rev, &mut shifted);
    assert!(!check_sufficiency(rev, &placement.write_problem, &shifted, true).is_empty());
    for flavor in [&placement.write_eager, &placement.write_lazy] {
        let v = check_sufficiency(rev, &placement.write_problem, flavor, true);
        assert!(v.is_empty(), "{v:?}");
    }
    let diags = lint_plan(&plan, &CommLintOptions::default());
    assert!(diags.is_empty(), "{diags:?}");
}

/// `program` with array traffic: `random_program` assigns only scalars,
/// so every filler `sK = ...` becomes, by `K mod 4`, a write of
/// `x(a(K mod 3))`, a read of it, a copy `y(K mod 5) = x(K mod 2)`, or
/// stays as it is.
fn with_arrays(program: &Program) -> Program {
    let text: String = gnt_ir::pretty(program)
        .lines()
        .map(|line| {
            let body = line.trim_start();
            let indent = &line[..line.len() - body.len()];
            let k = body
                .strip_prefix('s')
                .and_then(|rest| rest.strip_suffix(" = ..."))
                .and_then(|k| k.parse::<usize>().ok());
            match k.map(|k| (k, k % 4)) {
                Some((k, 0)) => format!("{indent}x(a({})) = ...\n", k % 3),
                Some((k, 1)) => format!("{indent}... = x(a({}))\n", k % 3),
                Some((k, 2)) => format!("{indent}y({}) = x({})\n", k % 5, k % 2),
                _ => format!("{line}\n"),
            }
        })
        .collect();
    gnt_ir::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"))
}

/// Layer 2 skips C1/C3 on WRITE when the WRITE solve's §5.3 check found
/// them clean. That is sound only if the check ran on the rows Layer 2
/// lints: whenever `write_checked` is set, fresh checkers on the emitted
/// WRITE rows must find nothing. `write_checked` is set exactly when a
/// loop is jump-entered on the reversed graph and the fallback did not
/// poison it. Over `examples/*.minif` and random programs with `goto`s
/// and array traffic.
#[test]
fn a_reused_write_verdict_holds_on_the_emitted_write_rows() {
    let config = GenConfig {
        goto_prob: 0.3,
        loop_prob: 0.45,
        ..GenConfig::default()
    };
    let mut programs: Vec<(String, Program)> = examples()
        .into_iter()
        .map(|(path, program)| (path.display().to_string(), program))
        .collect();
    programs.extend((0..64).map(|seed| {
        (
            format!("seed {seed}"),
            with_arrays(&random_program(seed, &config)),
        )
    }));
    let (mut reused, mut fallbacks) = (0, 0);
    for (name, program) in &programs {
        let (_, placement) = emitted(program, &GenerateOptions::default());
        let rev = &placement.reversed;
        let jump_entered = rev.nodes().any(|h| !rev.jump_in_sources(h).is_empty());
        let poisoned = !rev.poisoned().is_empty();
        assert_eq!(placement.write_checked, jump_entered && !poisoned, "{name}");
        fallbacks += usize::from(poisoned);
        if !placement.write_checked {
            continue;
        }
        reused += 1;
        let (problem, eager, lazy) = (
            &placement.write_problem,
            &placement.write_eager,
            &placement.write_lazy,
        );
        assert!(problem.universe_size > 0, "{name}");
        for flavor in [eager, lazy] {
            let missed = check_sufficiency(rev, problem, flavor, true);
            assert!(missed.is_empty(), "{name}: {missed:?}");
        }
        let unbalanced = check_balance(rev, problem, eager, lazy);
        assert!(unbalanced.is_empty(), "{name}: {unbalanced:?}");
    }
    assert!(reused >= 10, "the verdict was reused on {reused} programs");
    assert!(fallbacks > 0, "no program took the poisoned fallback");
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

    /// The placements random programs' plans were emitted from meet every
    /// criterion, O2/O3/O3' included.
    #[test]
    fn emitted_placements_lint_clean_on_random_programs(pseed in 0u64..20_000) {
        let program = random_program(pseed, &GenConfig::default());
        let (plan, placement) = emitted(&program, &GenerateOptions::default());
        let diags = lint_emitted(&plan, &placement);
        prop_assert!(diags.is_empty(), "emitted placement flagged: {diags:?}");
    }
}
