//! Provenance acceptance tests: every Send/Recv the solver places on the
//! paper's figures has a blame chain in which every link is a true
//! Figure-13 equation application — validated by the independent
//! [`check_chain`] checker, not by the engine that built the chain — and
//! why-not queries name the conjunct that blocks a hoist.

use gnt_analyze::driver::detect_distributed;
use gnt_analyze::provenance::{render_chain, render_why_not, run_query, QuerySpec};
use gnt_cfg::{reversed_graph, IntervalGraph};
use gnt_comm::{analyze, generate_with_placement, CommConfig, GenerateOptions};
use gnt_core::{
    check_chain, solve_into, BlameEngine, Flavor, Reason, Root, SolverOptions, SolverScratch, Var,
};

const FIG1: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/fig1.minif"
));
const FIG3: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/fig3.minif"
));
const FIG11: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/fig11.minif"
));

const RES_VARS: [Var; 4] = [
    Var::ResIn(Flavor::Eager),
    Var::ResIn(Flavor::Lazy),
    Var::ResOut(Flavor::Eager),
    Var::ResOut(Flavor::Lazy),
];

/// Queries `why` for every set production bit of the solved problem and
/// validates each chain with the independent checker. Returns how many
/// bits were validated.
fn validate_all_production_bits(
    engine: &BlameEngine<'_>,
    graph: &IntervalGraph,
    cap: usize,
) -> usize {
    let mut validated = 0;
    for var in RES_VARS {
        for n in graph.nodes() {
            for item in 0..cap {
                if !engine.holds(var, n, item) {
                    continue;
                }
                let chain = engine
                    .why(var, n, item)
                    .unwrap_or_else(|| panic!("set bit {var}({n}) item {item} has no chain"));
                check_chain(engine, &chain)
                    .unwrap_or_else(|e| panic!("invalid chain for {var}({n}) item {item}: {e}"));
                validated += 1;
            }
        }
    }
    validated
}

/// Solves both communication problems of `src` (as the driver does) and
/// validates every production bit of both — every Send and Recv the
/// plan will carry corresponds to exactly one of these bits.
fn validated_bits(src: &str) -> usize {
    let program = gnt_ir::parse(src).expect("figure parses");
    let arrays = detect_distributed(&program);
    let refs: Vec<&str> = arrays.iter().map(String::as_str).collect();
    let analysis = analyze(&program, &CommConfig::distributed(&refs)).expect("analysis runs");
    let opts = SolverOptions::default();
    let mut total = 0;

    let mut scratch = SolverScratch::new();
    solve_into(&analysis.graph, &analysis.read_problem, &opts, &mut scratch);
    let engine = BlameEngine::new(&analysis.graph, &analysis.read_problem, &scratch);
    total += validate_all_production_bits(
        &engine,
        &analysis.graph,
        analysis.read_problem.universe_size,
    );

    let rev = reversed_graph(&analysis.graph).expect("figure reverses");
    let mut write_problem = analysis.write_problem.clone();
    write_problem.resize_nodes(rev.num_nodes());
    let mut scratch = SolverScratch::new();
    solve_into(&rev, &write_problem, &opts, &mut scratch);
    let engine = BlameEngine::new(&rev, &write_problem, &scratch);
    total += validate_all_production_bits(&engine, &rev, write_problem.universe_size);

    total
}

#[test]
fn every_fig1_send_recv_has_a_checkable_chain() {
    assert!(validated_bits(FIG1) > 0, "figure 1 places transfers");
}

#[test]
fn every_fig3_send_recv_has_a_checkable_chain() {
    assert!(validated_bits(FIG3) > 0, "figure 3 places transfers");
}

#[test]
fn every_fig11_send_recv_has_a_checkable_chain() {
    assert!(validated_bits(FIG11) > 0, "figure 11 places transfers");
}

/// Compact rendering of a chain for golden comparison: one
/// `VAR(node)` link per step, the root annotated.
fn chain_sig(chain: &gnt_core::BlameChain) -> Vec<String> {
    chain
        .steps
        .iter()
        .map(|s| match &s.reason {
            Reason::Term { eq, .. } => format!("{}({}) eq{eq}", s.var, s.node),
            Reason::Root(r) => format!("{}({}) root:{r:?}", s.var, s.node),
        })
        .collect()
}

/// Golden chain for the Figure 9 counterexample shape (`a = 1; b = 2;
/// c = x(1)`): the solver hoists the eager production to the top, and
/// the chain walks Eq. 14 → Eq. 12 → the Eq. 4/6 consumption chain down
/// to the `TAKE_init` root at the consumer.
#[test]
fn golden_chain_for_figure_9_shape_is_stable() {
    let src = "a = 1\nb = 2\nc = x(1)";
    let program = gnt_ir::parse(src).unwrap();
    let graph = IntervalGraph::from_program(&program).unwrap();
    let consumer = graph
        .nodes()
        .filter(|&n| graph.kind(n).stmt().is_some())
        .nth(2)
        .unwrap();
    let mut problem = gnt_core::PlacementProblem::new(graph.num_nodes(), 1);
    problem.take(consumer, 0);
    let opts = SolverOptions::default();
    let mut scratch = SolverScratch::new();
    solve_into(&graph, &problem, &opts, &mut scratch);
    let engine = BlameEngine::new(&graph, &problem, &scratch);

    // The eager production starts at the root's entry.
    let start = graph
        .nodes()
        .find(|&n| engine.holds(Var::ResIn(Flavor::Eager), n, 0))
        .expect("solver placed an eager production");
    let chain = engine.why(Var::ResIn(Flavor::Eager), start, 0).unwrap();
    check_chain(&engine, &chain).unwrap();
    let sig = chain_sig(&chain);
    assert_eq!(
        sig.first().unwrap(),
        &format!("RES_in^eager({start}) eq14"),
        "chain starts at the queried bit: {sig:?}"
    );
    assert_eq!(
        sig.last().unwrap(),
        &format!("TAKE({consumer}) root:TakeInit"),
        "chain roots in the consumer's TAKE_init: {sig:?}"
    );
    // Every inner link is a consumption-propagation equation (4, 5, 6,
    // 12): the derivation never leaves Figure 13.
    for step in &sig[1..sig.len() - 1] {
        assert!(
            step.contains("eq4")
                || step.contains("eq5")
                || step.contains("eq6")
                || step.contains("eq12"),
            "unexpected link {step} in {sig:?}"
        );
    }
}

/// Golden chains for the remaining Figure 4–10 counterexample shapes:
/// on each figure's problem the solver's own solution yields chains the
/// independent checker accepts, and the why-not for a node *outside*
/// the optimum names why the solver refused it.
#[test]
fn golden_chains_cover_the_figure_4_to_10_shapes() {
    // (source, consumer-statement index, why-not node index) — the
    // consumer carries TAKE_init; the why-not node is a statement the
    // solver leaves out of the optimum placement.
    let shapes: &[(&str, usize, usize)] = &[
        // Figure 4 shape: straight line, consumption at the bottom.
        ("a = 1\nb = 2\nc = x(1)", 2, 1),
        // Figure 6/8 shape: consumption on one branch arm only.
        ("if t then\n  c = x(1)\nelse\n  d = 2\nendif", 1, 2),
        // Figure 7/10 shape: two consumers in sequence.
        ("c = x(1)\nd = x(1)", 0, 1),
    ];
    for &(src, consumer_idx, why_not_idx) in shapes {
        let program = gnt_ir::parse(src).unwrap();
        let graph = IntervalGraph::from_program(&program).unwrap();
        let stmts: Vec<_> = graph
            .nodes()
            .filter(|&n| graph.kind(n).stmt().is_some())
            .collect();
        let mut problem = gnt_core::PlacementProblem::new(graph.num_nodes(), 1);
        problem.take(stmts[consumer_idx], 0);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        solve_into(&graph, &problem, &opts, &mut scratch);
        let engine = BlameEngine::new(&graph, &problem, &scratch);

        // Every set production bit derives to a TAKE_init root.
        let mut saw_chain = false;
        for var in RES_VARS {
            for n in graph.nodes() {
                if !engine.holds(var, n, 0) {
                    continue;
                }
                let chain = engine.why(var, n, 0).unwrap();
                check_chain(&engine, &chain).unwrap_or_else(|e| panic!("{src:?} {var}({n}): {e}"));
                assert!(
                    matches!(
                        chain.steps.last().unwrap().reason,
                        Reason::Root(Root::TakeInit)
                    ),
                    "{src:?}: only TAKE feeds this problem"
                );
                saw_chain = true;
            }
        }
        assert!(saw_chain, "{src:?} places at least one transfer");

        // The node outside the optimum explains its absence.
        let outside = stmts[why_not_idx];
        for flavor in [Flavor::Eager, Flavor::Lazy] {
            let var = Var::ResIn(flavor);
            if engine.holds(var, outside, 0) {
                continue;
            }
            let wn = engine.why_not(var, outside, 0).expect("absence explains");
            assert_eq!(wn.steps.first().unwrap().var, var);
            if let Some(blocker) = &wn.blocker {
                check_chain(&engine, blocker).unwrap();
            }
        }
    }
}

/// The acceptance shape for why-not: a Recv that cannot hoist out of a
/// loop because the loop body redefines the index array (`a(i) = ...`
/// steals `x(a(1:N))`, §4.1). The why-not query names the blocking
/// conjunct — BLOCK at the redefining statement — and the attached
/// blocker derivation bottoms out in that statement's `STEAL_init`.
#[test]
fn why_not_names_the_blocking_conjunct_for_a_hoist_blocked_recv() {
    let src = "do i = 1, N\n  a(i) = ...\n  ... = x(a(i))\nenddo";
    let program = gnt_ir::parse(src).unwrap();
    let analysis = analyze(&program, &CommConfig::distributed(&["x"])).unwrap();
    let graph = &analysis.graph;
    let opts = SolverOptions::default();
    let mut scratch = SolverScratch::new();
    solve_into(graph, &analysis.read_problem, &opts, &mut scratch);
    let engine = BlameEngine::new(graph, &analysis.read_problem, &scratch);

    let item = analysis
        .universe
        .iter()
        .find(|(_, r)| r.to_string() == "x(a(1:N))")
        .expect("gather item interned")
        .0
        .index();
    let header = graph
        .nodes()
        .find(|&n| graph.is_loop_header(n))
        .expect("loop header");
    let killer_node = graph
        .nodes()
        .find(|&n| !analysis.read_problem.steal_init[n.index()].is_empty())
        .expect("the index-array redefinition steals the gather");
    assert!(
        !engine.holds(Var::ResIn(Flavor::Lazy), header, item),
        "the Recv must NOT hoist to the header entry"
    );
    let wn = engine
        .why_not(Var::ResIn(Flavor::Lazy), header, item)
        .expect("clear bit explains");
    let (killer, at) = wn
        .blocking_conjunct()
        .expect("a hoist-blocked Recv has a blocking conjunct");
    assert_eq!(killer, Var::Block, "BLOCK kills the hoist: {wn:?}");
    assert_eq!(at, killer_node, "blocked at the redefining statement");
    let blocker = wn.blocker.as_ref().expect("blocker derived");
    check_chain(&engine, blocker).expect("blocker chain validates");
    let root = blocker.steps.last().unwrap();
    assert!(
        matches!(root.reason, Reason::Root(Root::StealInit)),
        "blocker roots in the index-array redefinition: {blocker:?}"
    );
    assert_eq!(root.node, killer_node);
}

/// The same shape through the public CLI path: `--why-not` output names
/// the blocking conjunct in prose.
#[test]
fn run_query_reports_the_blocking_conjunct() {
    let src = "do i = 1, N\n  a(i) = ...\n  ... = x(a(i))\nenddo";
    let program = gnt_ir::parse(src).unwrap();
    let opts = gnt_analyze::driver::LintOptions::default();
    let spec = QuerySpec::parse("0:a(1:N):res_in.lazy").unwrap();
    let graph = IntervalGraph::from_program(&program).unwrap();
    let header = graph
        .nodes()
        .find(|&n| graph.is_loop_header(n))
        .unwrap()
        .index();
    let header_spec = QuerySpec {
        node: header,
        ..spec
    };
    let out = run_query(&program, &opts, &header_spec, true, "t.minif", src).unwrap();
    assert!(out.contains("blocked by BLOCK"), "{out}");
    assert!(out.contains("the blocking conjunct derives as:"), "{out}");
    // Under auto-detection `a` is distributed too, so the redefinition
    // produces `a(1:N)` for free (owner-computes) and BLOCK derives
    // through the GIVE term of Eq. 3.
    assert!(out.contains("root: GIVE_init"), "{out}");
    assert!(out.contains("`a(i) = ...`"), "{out}");
}

/// Every Figure-13 variable, both flavors of the placement variables.
fn all_vars() -> Vec<Var> {
    let mut vars = vec![
        Var::Steal,
        Var::Give,
        Var::Block,
        Var::TakenOut,
        Var::Take,
        Var::TakenIn,
        Var::BlockLoc,
        Var::TakeLoc,
        Var::GiveLoc,
        Var::StealLoc,
    ];
    for flavor in [Flavor::Eager, Flavor::Lazy] {
        vars.extend([
            Var::GivenIn(flavor),
            Var::Given(flavor),
            Var::GivenOut(flavor),
            Var::ResIn(flavor),
            Var::ResOut(flavor),
        ]);
    }
    vars
}

/// FNV-1a over every rendered `why` or `why_not` of `(graph, problem)`:
/// one query per (variable, node, item), in that nesting order.
fn render_digest(
    hash: &mut u64,
    graph: &IntervalGraph,
    problem: &gnt_core::PlacementProblem,
    spans: &[Option<gnt_ir::Span>],
    names: &[String],
    src: &str,
) {
    let opts = SolverOptions::default();
    let mut scratch = SolverScratch::new();
    solve_into(graph, problem, &opts, &mut scratch);
    let engine = BlameEngine::new(graph, problem, &scratch);
    for var in all_vars() {
        for n in graph.nodes() {
            for (item, name) in names.iter().enumerate() {
                let text = match engine.why(var, n, item) {
                    Some(chain) => render_chain(&chain, name, spans, "fig.minif", src),
                    None => {
                        let wn = engine
                            .why_not(var, n, item)
                            .unwrap_or_else(|| panic!("{var}({n}) item {item} unexplained"));
                        render_why_not(&wn, name, spans, "fig.minif", src)
                    }
                };
                for byte in text.bytes() {
                    *hash ^= u64::from(byte);
                    *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
}

/// The digest of every `--why`/`--why-not` text of `src`: READ on the
/// forward graph, then the coupled WRITE problem on the (possibly
/// poisoned) reversed graph that generation solved, as `run_query`
/// addresses them.
fn blame_digest(src: &str) -> u64 {
    let program = gnt_ir::parse(src).expect("figure parses");
    let arrays = detect_distributed(&program);
    let refs: Vec<&str> = arrays.iter().map(String::as_str).collect();
    let analysis = analyze(&program, &CommConfig::distributed(&refs)).expect("analysis runs");
    let names: Vec<String> = analysis
        .universe
        .iter()
        .map(|(_, r)| r.to_string())
        .collect();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let spans = gnt_cfg::node_spans(&program, &analysis.graph);
    render_digest(
        &mut hash,
        &analysis.graph,
        &analysis.read_problem,
        &spans,
        &names,
        src,
    );
    let (plan, placement) = generate_with_placement(
        analysis,
        &GenerateOptions::default(),
        &mut SolverScratch::new(),
    )
    .expect("figure generates");
    let spans = gnt_cfg::node_spans(&program, &plan.analysis.graph);
    let spans: Vec<Option<gnt_ir::Span>> = (0..placement.reversed.num_nodes())
        .map(|i| spans.get(i).copied().flatten())
        .collect();
    render_digest(
        &mut hash,
        &placement.reversed,
        &placement.write_problem,
        &spans,
        &names,
        src,
    );
    hash
}

/// Byte-identity golden of the blame engine: every why and why-not text
/// of Figures 1, 3 and 11, READ and coupled WRITE, hashed per program.
/// A moved digest means a chain, a term choice or a message changed.
#[test]
fn every_why_and_why_not_text_of_the_figures_is_unchanged() {
    for (name, src, want) in [
        ("fig1", FIG1, 0x3411_af5e_1a20_90f6),
        ("fig3", FIG3, 0xf5bc_0dae_631e_1d4a),
        ("fig11", FIG11, 0x31e0_4147_90f4_be00),
    ] {
        let got = blame_digest(src);
        assert_eq!(got, want, "{name}: digest {got:#018x}");
    }
}
