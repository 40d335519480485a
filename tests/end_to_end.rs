//! Cross-crate integration tests: source text → interval graph →
//! GIVE-N-TAKE solution → communication plan → rendering → simulation,
//! with the independent verifiers in the loop at every step.

use give_n_take::cfg::IntervalGraph;
use give_n_take::comm::{analyze, generate, render, CommConfig, OpKind};
use give_n_take::core::{
    check_balance, check_sufficiency, solve, solve_after, Flavor, SolverOptions,
};
use give_n_take::sim::{simulate, Mode, SimConfig};

const FIG1: &str = "do i = 1, N\n  y(i) = ...\nenddo\n\
                    if test then\n  do j = 1, N\n    z(j) = ...\n  enddo\n\
                    \u{20} do k = 1, N\n    ... = x(a(k))\n  enddo\n\
                    else\n  do l = 1, N\n    ... = x(a(l))\n  enddo\nendif";

#[test]
fn full_read_pipeline_on_figure_1() {
    let program = give_n_take::ir::parse(FIG1).unwrap();
    let analysis = analyze(&program, &CommConfig::distributed(&["x"])).unwrap();

    // The solver's solution satisfies the paper's criteria…
    let solution = solve(
        &analysis.graph,
        &analysis.read_problem,
        &SolverOptions::default(),
    );
    assert!(check_sufficiency(
        &analysis.graph,
        &analysis.read_problem,
        &solution.eager,
        true
    )
    .is_empty());
    assert!(check_sufficiency(
        &analysis.graph,
        &analysis.read_problem,
        &solution.lazy,
        true
    )
    .is_empty());
    assert!(check_balance(
        &analysis.graph,
        &analysis.read_problem,
        &solution.eager,
        &solution.lazy
    )
    .is_empty());

    // …the plan renders the Figure 2 placement…
    let plan = generate(analysis).unwrap();
    let listing = render(&program, &plan);
    assert!(listing.starts_with("READ_send{x(a(1:N))}"));
    assert_eq!(listing.matches("READ_recv{x(a(1:N))}").count(), 2);

    // …and the simulator confirms the headline numbers: one message
    // instead of N, and a strictly better makespan.
    let config = SimConfig::with_n(128);
    let naive = simulate(&program, &plan, &config, Mode::Naive);
    let gnt = simulate(&program, &plan, &config, Mode::GiveNTake);
    assert_eq!(naive.messages, 128);
    assert_eq!(gnt.messages, 1);
    assert!(gnt.makespan < naive.makespan / 10.0);
    assert_eq!(gnt.unattributed_ops, 0);
}

#[test]
fn full_write_pipeline_respects_after_semantics() {
    let program = give_n_take::ir::parse(
        "do i = 1, N\n  x(a(i)) = ...\nenddo\ndo j = 1, N\n  y(j) = ...\nenddo",
    )
    .unwrap();
    let analysis = analyze(&program, &CommConfig::distributed(&["x"])).unwrap();
    let mut problem = analysis.write_problem.clone();
    let after = solve_after(&analysis.graph, &problem, &SolverOptions::default()).unwrap();
    problem.resize_nodes(after.reversed.num_nodes());
    assert!(check_sufficiency(&after.reversed, &problem, &after.solution.lazy, true).is_empty());
    assert!(check_balance(
        &after.reversed,
        &problem,
        &after.solution.eager,
        &after.solution.lazy
    )
    .is_empty());
    // Exactly one vectorized write-back pair.
    assert_eq!(after.num_productions(Flavor::Lazy), 1);
    assert_eq!(after.num_productions(Flavor::Eager), 1);

    let plan = generate(analysis).unwrap();
    assert_eq!(plan.count(OpKind::WriteSend), 1);
    assert_eq!(plan.count(OpKind::WriteRecv), 1);
}

#[test]
fn pretty_parse_round_trip_through_the_whole_ast() {
    let text = give_n_take::ir::pretty(&give_n_take::ir::parse(FIG1).unwrap());
    let reparsed = give_n_take::ir::parse(&text).unwrap();
    assert_eq!(give_n_take::ir::pretty(&reparsed), text);
}

#[test]
fn interval_graph_is_consistent_with_its_reversal() {
    let program = give_n_take::ir::parse(FIG1).unwrap();
    let graph = IntervalGraph::from_program(&program).unwrap();
    let reversed = give_n_take::cfg::reversed_graph(&graph).unwrap();
    assert_eq!(reversed.root(), graph.exit());
    assert_eq!(reversed.exit(), graph.root());
    for h in graph.nodes() {
        assert_eq!(graph.is_loop_header(h), reversed.is_loop_header(h));
    }
}

#[test]
fn strict_owner_computes_generates_more_communication() {
    let src = "x(1) = 2\n... = x(1)";
    let program = give_n_take::ir::parse(src).unwrap();
    let relaxed = generate(analyze(&program, &CommConfig::distributed(&["x"])).unwrap()).unwrap();
    let mut config = CommConfig::distributed(&["x"]);
    config.strict_owner_computes = true;
    let strict = generate(analyze(&program, &config).unwrap()).unwrap();
    assert_eq!(relaxed.count(OpKind::ReadSend), 0, "GIVE makes it free");
    assert_eq!(strict.count(OpKind::ReadSend), 1);
}

#[test]
fn zero_trip_option_controls_hoisting_end_to_end() {
    let src = "do i = 1, N\n  ... = x(a(i))\nenddo";
    let program = give_n_take::ir::parse(src).unwrap();
    let analysis = analyze(&program, &CommConfig::distributed(&["x"])).unwrap();
    let hoisted = solve(
        &analysis.graph,
        &analysis.read_problem,
        &SolverOptions::default(),
    );
    let safe = solve(
        &analysis.graph,
        &analysis.read_problem,
        &SolverOptions {
            no_zero_trip_hoist: true,
        },
    );
    // Hoisted: one production pair outside the loop. Safe: production
    // inside the loop, once per iteration.
    assert_eq!(hoisted.eager.num_productions(), 1);
    assert!(hoisted.eager.res_in[analysis.graph.root().index()].contains(0));
    assert!(safe.eager.res_in[analysis.graph.root().index()].is_empty());
    // Safe placements must also be sufficient without the ≥1-trip
    // assumption.
    assert!(
        check_sufficiency(&analysis.graph, &analysis.read_problem, &safe.eager, false).is_empty()
    );
}
