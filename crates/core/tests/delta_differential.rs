//! Differential suite for the incremental delta engine: after any
//! sequence of marked single-row mutations, [`solve_delta`] leaves the
//! scratch bit-identical to a fresh full solve of the mutated problem —
//! on 500+ random programs across word-boundary-straddling universes, on
//! the paper's figure programs, and under proptest-driven mutation
//! sequences. The suite also pins the *incrementality*: warm forward
//! solves must actually re-run fewer schedule steps than a full walk,
//! reversed graphs with jump-in sources must go incremental too, and the
//! decline paths (cold scratches, changed universes, other graphs or
//! poison sets in between) must fall back to a full walk rather than serve
//! stale bits.

use gnt_cfg::{reversed_graph, IntervalGraph, NodeId, NodeKind};
use gnt_core::{
    random_problem, random_program, sized_program, solve, solve_after_with_scratch, solve_delta,
    solve_into, DeltaKind, DeltaSet, GenConfig, PlacementProblem, SolverOptions, SolverScratch,
};
use gnt_ir::parse;
use proptest::prelude::*;

/// A tiny deterministic generator for mutation choices (the vendored
/// `rand` shim is for the program generator; test-local draws keep the
/// mutation schedule independent of it).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 17
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// Toggles one `(kind, node, item)` bit of `problem` and records the row
/// in `delta` — the exact contract [`solve_delta`] is specified against.
fn mutate(problem: &mut PlacementProblem, delta: &mut DeltaSet, rng: &mut Lcg, universe: usize) {
    let node = rng.below(problem.num_nodes());
    let item = rng.below(universe);
    let kind = match rng.below(3) {
        0 => DeltaKind::Take,
        1 => DeltaKind::Steal,
        _ => DeltaKind::Give,
    };
    let node_id = NodeId(node as u32);
    let row = match kind {
        DeltaKind::Take => &mut problem.take_init[node],
        DeltaKind::Steal => &mut problem.steal_init[node],
        DeltaKind::Give => &mut problem.give_init[node],
    };
    if row.contains(item) {
        row.remove(item);
    } else {
        row.insert(item);
    }
    delta.mark(kind, node_id);
}

/// Warm `scratch` on `problem`, apply `mutations` toggles, re-solve
/// incrementally, and compare against a fresh direct solve of the
/// mutated problem. Returns whether the incremental path served the call.
#[allow(clippy::too_many_arguments)]
fn run_mutation_case(
    graph: &IntervalGraph,
    problem: &mut PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
    rng: &mut Lcg,
    universe: usize,
    mutations: usize,
    label: &str,
) -> bool {
    solve_into(graph, problem, opts, scratch);
    let mut delta = DeltaSet::new();
    for _ in 0..mutations {
        mutate(problem, &mut delta, rng, universe);
    }
    let report = solve_delta(graph, problem, opts, scratch, &delta);
    assert_eq!(scratch.export(), solve(graph, problem, opts), "{label}");
    assert!(
        report.blocks_run <= report.blocks_total,
        "{label}: {report:?}"
    );
    !report.full_replay
}

#[test]
fn delta_matches_fresh_solve_on_500_random_programs() {
    let universes = [1usize, 5, 63, 64, 65, 128, 200, 256, 300];
    let config = GenConfig {
        goto_prob: 0.1,
        ..Default::default()
    };
    let mut scratch = SolverScratch::new();
    let mut incremental = 0usize;
    for seed in 0..500u64 {
        let universe = universes[seed as usize % universes.len()];
        let program = random_program(seed, &config);
        let graph = IntervalGraph::from_program(&program).unwrap();
        let mut problem = random_problem(seed.wrapping_mul(31), &graph, universe, 0.3);
        let mut rng = Lcg(seed ^ 0xD17A);
        if run_mutation_case(
            &graph,
            &mut problem,
            &SolverOptions::default(),
            &mut scratch,
            &mut rng,
            universe,
            1,
            &format!("seed {seed}, universe {universe}"),
        ) {
            incremental += 1;
        }
    }
    // Every warm case must have gone incremental.
    assert_eq!(incremental, 500, "forward solves must never fall back");
}

/// Chains of mutations against one warm scratch: each round re-solves
/// incrementally on top of the *previous* incremental solve, so basis
/// maintenance (not just single-shot correctness) is exercised.
#[test]
fn repeated_deltas_stay_identical_across_rounds() {
    let mut scratch = SolverScratch::new();
    for seed in 0..60u64 {
        let universe = 96;
        let program = random_program(seed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let mut problem = random_problem(seed + 3, &graph, universe, 0.25);
        let opts = SolverOptions::default();
        solve_into(&graph, &problem, &opts, &mut scratch);
        let mut rng = Lcg(seed.wrapping_mul(977));
        let mut delta = DeltaSet::new();
        for round in 0..8 {
            delta.clear();
            for _ in 0..(1 + rng.below(3)) {
                mutate(&mut problem, &mut delta, &mut rng, universe);
            }
            let report = solve_delta(&graph, &problem, &opts, &mut scratch, &delta);
            assert!(
                !report.full_replay,
                "seed {seed}, round {round}: must stay incremental"
            );
            assert_eq!(
                scratch.export(),
                solve(&graph, &problem, &opts),
                "seed {seed}, round {round}"
            );
        }
    }
}

/// Reversed graphs (jump-in sources, whose unwritten rows the schedule
/// folds out) support the incremental path and produce exact results.
#[test]
fn reversed_graphs_resolve_incrementally() {
    let mut scratch = SolverScratch::new();
    let mut declined = 0usize;
    for seed in 0..80u64 {
        let program = random_program(seed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let rg = reversed_graph(&graph).unwrap();
        let universe = 70;
        let mut problem = random_problem(seed + 11, &graph, universe, 0.3);
        problem.resize_nodes(rg.num_nodes());
        let opts = SolverOptions::default();
        solve_into(&rg, &problem, &opts, &mut scratch);
        let mut delta = DeltaSet::new();
        let mut rng = Lcg(seed ^ 0xAF7E);
        mutate(&mut problem, &mut delta, &mut rng, universe);
        let report = solve_delta(&rg, &problem, &opts, &mut scratch, &delta);
        assert_eq!(
            scratch.export(),
            solve(&rg, &problem, &opts),
            "reversed, seed {seed}"
        );
        if report.full_replay {
            declined += 1;
        }
    }
    assert_eq!(declined, 0, "no reversed graph may decline");
}

/// Every graph of the incremental engine's reference corpus re-solves
/// incrementally and exactly: 200 random programs under the default
/// generator, the same seeds with `goto_prob` 0.1, and three sized
/// programs; forward and reversed, the reversed ones also with the §5.3
/// fallback's poisoned headers. A decline would silently cost a full
/// walk per re-solve.
#[test]
fn every_corpus_tape_supports_delta() {
    let sparse = GenConfig {
        goto_prob: 0.1,
        ..Default::default()
    };
    let mut programs: Vec<(String, gnt_ir::Program)> = Vec::new();
    for (tag, config) in [("default", GenConfig::default()), ("sparse", sparse)] {
        for seed in 0..200u64 {
            programs.push((format!("{tag}{seed}"), random_program(seed, &config)));
        }
    }
    for size in [200, 800, 3000] {
        programs.push((format!("sized{size}"), sized_program(size)));
    }
    let opts = SolverOptions::default();
    let mut scratch = SolverScratch::new();
    for (k, (name, program)) in programs.iter().enumerate() {
        let forward = IntervalGraph::from_program(program).unwrap();
        let reversed = reversed_graph(&forward).unwrap();
        let mut poisoned = reversed.clone();
        for h in reversed.nodes() {
            if !reversed.jump_in_sources(h).is_empty() {
                poisoned.poison(h);
            }
        }
        for (dir, graph) in [
            ("fwd", &forward),
            ("rev", &reversed),
            ("rev+poison", &poisoned),
        ] {
            let mut problem = random_problem(k as u64, graph, 16, 0.3);
            solve_into(graph, &problem, &opts, &mut scratch);
            let mut delta = DeltaSet::new();
            mutate(&mut problem, &mut delta, &mut Lcg(k as u64), 16);
            let report = solve_delta(graph, &problem, &opts, &mut scratch, &delta);
            assert!(!report.full_replay, "{name}/{dir}");
            assert_eq!(
                scratch.export(),
                solve(graph, &problem, &opts),
                "{name}/{dir}"
            );
        }
    }
}

/// The paper's figure programs: a steal toggled at the root (the classic
/// "block hoisting past the top" edit) re-solves incrementally, re-runs
/// a strict subset of the schedule's steps, and matches the fresh solve
/// bit-for-bit, on the forward graph and on the reversed graph
/// `solve_after` solved last (poisoned if the §5.3 fallback ran).
#[test]
fn figure_programs_resolve_incrementally() {
    let figures: &[&str] = &[
        "if t then\n  a = 1\nelse\n  b = 2\nendif\nc = x(1)",
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
    for (fig, src) in figures.iter().enumerate() {
        let program = parse(src).unwrap();
        let graph = IntervalGraph::from_program(&program).unwrap();
        for items in [1usize, 64, 65] {
            let mut problem = PlacementProblem::new(graph.num_nodes(), items);
            for (k, n) in graph
                .nodes()
                .filter(|&n| matches!(graph.kind(n), NodeKind::Stmt(_)))
                .enumerate()
            {
                problem.take(n, k % items);
            }
            let opts = SolverOptions::default();
            let mut scratch = SolverScratch::new();
            solve_into(&graph, &problem, &opts, &mut scratch);
            problem.steal(graph.root(), 0);
            let mut delta = DeltaSet::new();
            delta.mark_steal(graph.root());
            let report = solve_delta(&graph, &problem, &opts, &mut scratch, &delta);
            assert!(!report.full_replay, "figure {fig}, items {items}");
            assert!(
                report.blocks_run < report.blocks_total,
                "figure {fig}, items {items}: {report:?}"
            );
            assert_eq!(
                scratch.export(),
                solve(&graph, &problem, &opts),
                "figure {fig}, items {items}"
            );

            let mut after =
                solve_after_with_scratch(&graph, &problem, &opts, &mut scratch).unwrap();
            let mut rp = problem.clone();
            rp.resize_nodes(after.reversed.num_nodes());
            let mut rng = Lcg(fig as u64 * 64 + items as u64);
            delta.clear();
            mutate(&mut rp, &mut delta, &mut rng, items);
            let report = solve_delta(&after.reversed, &rp, &opts, &mut scratch, &delta);
            assert!(!report.full_replay, "figure {fig}, items {items}: after");
            after.solution = solve(&after.reversed, &rp, &opts);
            assert_eq!(
                scratch.export(),
                after.solution,
                "figure {fig}, items {items}: after"
            );
        }
    }
}

/// Every full solve sets the delta basis to its own fingerprint: a
/// `solve_into` of a different graph with the same node count through
/// the same scratch must invalidate the first graph's basis, so the next
/// delta on the first graph walks in full instead of patching the other
/// graph's bits.
#[test]
fn direct_solve_in_between_invalidates_the_delta_basis() {
    let src = "do i = 1, N\n  ... = x(a(i))\n  z = 0\nenddo\nif t then\n  b = x(1)\nendif";
    let graph = IntervalGraph::from_program(&parse(src).unwrap()).unwrap();
    let other = reversed_graph(&graph).unwrap();
    assert_eq!(other.num_nodes(), graph.num_nodes());
    let mut problem = random_problem(7, &graph, 70, 0.3);
    let opts = SolverOptions::default();
    let mut scratch = SolverScratch::new();
    // An empty delta after a full solve re-walks nothing.
    solve_into(&graph, &problem, &opts, &mut scratch);
    let report = solve_delta(&graph, &problem, &opts, &mut scratch, &DeltaSet::new());
    assert!(!report.full_replay && report.blocks_run == 0);
    solve_into(&other, &problem, &opts, &mut scratch);
    assert_ne!(scratch.export(), solve(&graph, &problem, &opts));

    let node = graph.nodes().nth(2).unwrap();
    problem.take(node, 3);
    let mut delta = DeltaSet::new();
    delta.mark_take(node);
    let report = solve_delta(&graph, &problem, &opts, &mut scratch, &delta);
    assert!(report.full_replay, "{report:?}");
    assert_eq!(scratch.export(), solve(&graph, &problem, &opts));
}

/// An *unmarked* mutation after an intervening marked solve must still be
/// reported consistently once it IS marked: the engine trusts the marks,
/// so the test documents the contract by marking late and checking the
/// late solve converges to the fresh result.
#[test]
fn late_marking_converges_once_the_row_is_named() {
    let src = "do i = 1, N\n  ... = x(a(i))\nenddo\nb = 1\nc = x(2)";
    let graph = IntervalGraph::from_program(&parse(src).unwrap()).unwrap();
    let mut problem = PlacementProblem::new(graph.num_nodes(), 8);
    let consumers: Vec<_> = graph
        .nodes()
        .filter(|&n| matches!(graph.kind(n), NodeKind::Stmt(_)))
        .collect();
    for (k, &c) in consumers.iter().enumerate() {
        problem.take(c, k % 8);
    }
    let opts = SolverOptions::default();
    let mut scratch = SolverScratch::new();
    solve_into(&graph, &problem, &opts, &mut scratch);
    // Mutate two rows, but only mark one: the engine may serve stale bits
    // for the unmarked row's cone (the documented contract)...
    problem.steal(consumers[0], 1);
    problem.give(consumers[1], 2);
    let mut delta = DeltaSet::new();
    delta.mark_steal(consumers[0]);
    solve_delta(&graph, &problem, &opts, &mut scratch, &delta);
    // ...and a follow-up solve naming the forgotten row repairs it fully.
    delta.clear();
    delta.mark_give(consumers[1]);
    let report = solve_delta(&graph, &problem, &opts, &mut scratch, &delta);
    assert!(!report.full_replay);
    assert_eq!(scratch.export(), solve(&graph, &problem, &opts));
}

/// Several fingerprints visited in a pseudo-random order by
/// `solve_delta` through one scratch: the forward graph as it is and
/// with every loop header poisoned, the reversed graph, its poisoned form and a second
/// program. Every visit toggles one bit of its graph's problem, marks that
/// row and must match `solve`, whether it walks in full or re-walks
/// against the last visit.
#[test]
fn cycling_several_fingerprints_through_one_scratch_stays_exact() {
    let config = GenConfig {
        goto_prob: 0.1,
        ..Default::default()
    };
    let mut scratch = SolverScratch::new();
    let mut rng = Lcg(0x9e37_79b9_7f4a_7c15);
    let (mut visited, mut incremental) = (0u64, 0u64);
    for seed in 0..30u64 {
        let graph = IntervalGraph::from_program(&random_program(seed, &config)).unwrap();
        let other = IntervalGraph::from_program(&random_program(seed + 1000, &config)).unwrap();
        let reversed = reversed_graph(&graph).unwrap();
        let mut poisoned = reversed.clone();
        for h in reversed.nodes() {
            if !reversed.jump_in_sources(h).is_empty() || h.index() % 3 == 0 {
                poisoned.poison(h);
            }
        }
        let mut no_hoist = graph.clone();
        no_hoist.poison_loop_headers();
        // Both forms of `graph` share its problem: on a loop-free graph
        // their fingerprints coincide, and so must their problems.
        let cases = [
            (&graph, 0),
            (&no_hoist, 0),
            (&reversed, 1),
            (&poisoned, 2),
            (&other, 3),
        ];
        let opts = SolverOptions::default();
        let universes = [1, 64, 65, 130];
        let mut problems: Vec<PlacementProblem> = [&graph, &reversed, &poisoned, &other]
            .iter()
            .enumerate()
            .map(|(k, g)| random_problem(seed * 64 + k as u64, g, universes[k], 0.3))
            .collect();
        for step in 0..40u64 {
            let (g, slot) = cases[rng.below(cases.len())];
            let mut delta = DeltaSet::new();
            mutate(&mut problems[slot], &mut delta, &mut rng, universes[slot]);
            let report = solve_delta(g, &problems[slot], &opts, &mut scratch, &delta);
            assert_eq!(
                scratch.export(),
                solve(g, &problems[slot], &opts),
                "seed {seed}, step {step}"
            );
            visited += 1;
            incremental += u64::from(!report.full_replay);
        }
    }
    let c = scratch.counters();
    assert_eq!(c.direct_solves, 0);
    assert_eq!(c.deltas_incremental, incremental);
    assert_eq!(c.deltas_incremental + c.deltas_declined, visited);
    assert!(incremental > 0 && c.deltas_declined > 30, "{c:?}");
}

/// Reversed graphs and their §5.3 poisoned form through one shared
/// scratch: a full solve, then a chain of marked mutations, each
/// re-walked and compared with `solve`.
#[test]
fn poisoned_and_reversed_graphs_resolve_exactly() {
    let mut scratch = SolverScratch::new();
    let mut poisoned_cases = 0;
    for seed in 0..120u64 {
        let program = random_program(seed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let mut rg = reversed_graph(&graph).unwrap();
        let mut problem = random_problem(seed + 7, &graph, 130, 0.3);
        problem.resize_nodes(rg.num_nodes());
        let jump_entered: Vec<_> = rg
            .nodes()
            .filter(|&h| !rg.jump_in_sources(h).is_empty())
            .collect();
        let mut graphs = vec![rg.clone()];
        if !jump_entered.is_empty() {
            for h in jump_entered {
                rg.poison(h);
            }
            graphs.push(rg);
            poisoned_cases += 1;
        }
        let opts = SolverOptions::default();
        let mut rng = Lcg(seed ^ 0x0501);
        for (k, g) in graphs.iter().enumerate() {
            solve_into(g, &problem, &opts, &mut scratch);
            let mut delta = DeltaSet::new();
            for round in 0..3 {
                delta.clear();
                mutate(&mut problem, &mut delta, &mut rng, 130);
                let report = solve_delta(g, &problem, &opts, &mut scratch, &delta);
                assert!(!report.full_replay, "seed {seed}, graph {k}, round {round}");
                assert_eq!(
                    scratch.export(),
                    solve(g, &problem, &opts),
                    "seed {seed}, graph {k}, round {round}"
                );
            }
        }
    }
    assert!(poisoned_cases > 0, "no reversed graph was jump-entered");
}

/// Poisoning the loop header between deltas changes the graph's
/// fingerprint, so each call after a flip walks in full on the *current*
/// graph; a delta on an unchanged graph re-walks.
#[test]
fn option_changes_invalidate_the_delta_basis() {
    let plain = IntervalGraph::from_program(&parse("do i = 1, N\n  ... = x(a(i))\nenddo").unwrap())
        .unwrap();
    let problem = random_problem(3, &plain, 4, 0.5);
    let mut no_hoist = plain.clone();
    no_hoist.poison_loop_headers();
    assert_ne!(
        plain.fingerprint(),
        no_hoist.fingerprint(),
        "poisoning the header moves the fingerprint"
    );
    let (opts, mut scratch) = (SolverOptions::default(), SolverScratch::new());
    for (k, graph) in [&plain, &no_hoist, &plain].into_iter().enumerate() {
        let report = solve_delta(graph, &problem, &opts, &mut scratch, &DeltaSet::new());
        assert!(report.full_replay, "flip {k}");
        assert_eq!(scratch.export(), solve(graph, &problem, &opts), "flip {k}");
        let report = solve_delta(graph, &problem, &opts, &mut scratch, &DeltaSet::new());
        assert!(!report.full_replay, "flip {k}, again");
    }
    let c = scratch.counters();
    assert_eq!((c.deltas_declined, c.deltas_incremental), (3, 3));
}

/// A one-bit delta on a 3000-statement program re-runs under 1 % of the
/// steps a full walk runs, on the forward and the reversed graph, and
/// stays exact.
#[test]
fn one_bit_delta_on_a_large_program_runs_under_one_percent_of_the_steps() {
    let forward = IntervalGraph::from_program(&sized_program(3000)).unwrap();
    let reversed = reversed_graph(&forward).unwrap();
    let opts = SolverOptions::default();
    let mut scratch = SolverScratch::new();
    for (dir, graph) in [("fwd", &forward), ("rev", &reversed)] {
        let mut problem = random_problem(42, graph, 16, 0.3);
        solve_into(graph, &problem, &opts, &mut scratch);
        let mut rng = Lcg(0xB17);
        for call in 0..16 {
            let mut delta = DeltaSet::new();
            mutate(&mut problem, &mut delta, &mut rng, 16);
            let report = solve_delta(graph, &problem, &opts, &mut scratch, &delta);
            assert!(!report.full_replay, "{dir}, call {call}");
            assert!(
                report.blocks_run * 100 < report.blocks_total,
                "{dir}, call {call}: {report:?}"
            );
        }
        assert_eq!(scratch.export(), solve(graph, &problem, &opts), "{dir}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary programs, universes, and mutation batch sizes: the
    /// incremental solve equals the fresh solve after every batch.
    #[test]
    fn delta_differential_holds_on_arbitrary_mutation_sequences(
        pseed in 0u64..50_000,
        universe in 1usize..160,
        batches in 1usize..5,
        per_batch in 1usize..6,
    ) {
        let program = random_program(pseed, &GenConfig { goto_prob: 0.05, ..Default::default() });
        let graph = IntervalGraph::from_program(&program).unwrap();
        let mut problem = random_problem(pseed ^ 0x5eed, &graph, universe, 0.3);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        solve_into(&graph, &problem, &opts, &mut scratch);
        let mut rng = Lcg(pseed.wrapping_mul(2654435761));
        let mut delta = DeltaSet::new();
        for batch in 0..batches {
            delta.clear();
            for _ in 0..per_batch {
                mutate(&mut problem, &mut delta, &mut rng, universe);
            }
            let report = solve_delta(&graph, &problem, &opts, &mut scratch, &delta);
            prop_assert!(!report.full_replay, "seed {pseed}, batch {batch}");
            prop_assert!(
                scratch.export() == solve(&graph, &problem, &opts),
                "seed {pseed}, batch {batch}"
            );
        }
    }
}
