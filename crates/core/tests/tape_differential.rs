//! Differential suite for the schedule-compiled solver: replaying a
//! [`ScheduleTape`] (`ScheduleTape::compile(..).execute_into(..)`, what
//! `solve_delta` runs when it declines) is bit-identical to the direct
//! four-pass solver (`solve`/`solve_into`) — on 500+ random programs
//! across universe sizes straddling every word boundary, on the reversed
//! graphs of the AFTER direction (jump-in edges, synthetic pads,
//! poisoned headers), and on the paper's figure programs.
//!
//! One scratch is shared across every case of a sweep, so the arena is
//! re-shaped (different graph, different universe) at each step — the
//! reuse machinery is exercised as hard as the kernels.

use gnt_cfg::{reversed_graph, IntervalGraph, NodeKind};
use gnt_core::{
    random_problem, random_program, solve, solve_after, solve_delta, solve_into, DeltaSet,
    GenConfig, PlacementProblem, ScheduleTape, SolverOptions, SolverScratch,
};
use gnt_ir::parse;

/// One case: direct `solve` vs a replay of the freshly compiled tape into
/// the shared warm scratch, all 20 variable families.
fn run_case(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
    label: &str,
) {
    ScheduleTape::compile(graph, opts).execute_into(problem, scratch);
    assert_eq!(scratch.export(), solve(graph, problem, opts), "{label}");
}

#[test]
fn tape_matches_interpreter_on_500_random_programs() {
    let universes = [1usize, 5, 63, 64, 65, 128, 200, 256, 300];
    let config = GenConfig {
        goto_prob: 0.1,
        ..Default::default()
    };
    let mut scratch = SolverScratch::new();
    for seed in 0..500u64 {
        let universe = universes[seed as usize % universes.len()];
        let program = random_program(seed, &config);
        let graph = IntervalGraph::from_program(&program).unwrap();
        let problem = random_problem(seed.wrapping_mul(31), &graph, universe, 0.3);
        run_case(
            &graph,
            &problem,
            &SolverOptions::default(),
            &mut scratch,
            &format!("seed {seed}, universe {universe}"),
        );
    }
}

/// The AFTER direction's graphs: the tape must agree with the direct solver
/// on reversed graphs — jump-in edges extending Eq. 11, synthetic landing
/// pads, and the §5.3 poisoned fallback.
#[test]
fn tape_matches_interpreter_on_reversed_graphs() {
    let mut scratch = SolverScratch::new();
    for seed in 0..120u64 {
        let program = random_program(seed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let problem = random_problem(seed + 7, &graph, 130, 0.3);
        let opts = SolverOptions::default();

        let mut rg = reversed_graph(&graph).unwrap();
        let mut rp = problem.clone();
        rp.resize_nodes(rg.num_nodes());
        run_case(
            &rg,
            &rp,
            &opts,
            &mut scratch,
            &format!("reversed, seed {seed}"),
        );

        // The §5.3 fallback shape: poison every jump-entered header and
        // compare again through the *same* scratch.
        let jump_entered: Vec<_> = rg
            .nodes()
            .filter(|&h| !rg.jump_in_sources(h).is_empty())
            .collect();
        if !jump_entered.is_empty() {
            for h in jump_entered {
                rg.poison(h);
            }
            run_case(
                &rg,
                &rp,
                &opts,
                &mut scratch,
                &format!("reversed+poisoned, seed {seed}"),
            );
        }
    }
}

/// More fingerprints than the scratch's one cached tape, visited in a
/// pseudo-random order by `solve_delta` through one scratch: the forward
/// graph under two hoisting settings, the reversed graph, its poisoned
/// form and a second program. Every visit toggles one bit of its graph's
/// problem, marks that row and must match `solve` whether it compiles,
/// replays in full or re-solves incrementally against the last visit.
#[test]
fn cycling_more_fingerprints_than_the_cache_holds_stays_exact() {
    let no_hoist = SolverOptions {
        no_zero_trip_hoist: true,
        ..Default::default()
    };
    let config = GenConfig {
        goto_prob: 0.1,
        ..Default::default()
    };
    let mut scratch = SolverScratch::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
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
        let default = SolverOptions::default();
        // Both settings of `graph` share its problem: on a loop-free
        // graph their fingerprints coincide, and so must their problems.
        let cases = [
            (&graph, &default, 0),
            (&graph, &no_hoist, 0),
            (&reversed, &default, 1),
            (&poisoned, &default, 2),
            (&other, &default, 3),
        ];
        let mut problems: Vec<PlacementProblem> = [&graph, &reversed, &poisoned, &other]
            .iter()
            .enumerate()
            .map(|(k, g)| random_problem(seed * 64 + k as u64, g, [1, 64, 65, 130][k], 0.3))
            .collect();
        for step in 0..40u64 {
            let (g, opts, slot) = cases[next() % cases.len()];
            let problem = &mut problems[slot];
            let node = gnt_cfg::NodeId((next() % g.num_nodes()) as u32);
            let item = next() % problem.universe_size;
            let mut delta = DeltaSet::new();
            let row = if next() % 2 == 0 {
                delta.mark_take(node);
                &mut problem.take_init[node.index()]
            } else {
                delta.mark_steal(node);
                &mut problem.steal_init[node.index()]
            };
            if !row.insert(item) {
                row.remove(item);
            }
            let report = solve_delta(g, problem, opts, &mut scratch, &delta);
            assert_eq!(
                scratch.export(),
                solve(g, problem, opts),
                "seed {seed}, step {step}"
            );
            visited += 1;
            incremental += u64::from(!report.full_replay);
        }
    }
    let c = scratch.counters();
    assert_eq!(c.direct_solves, 0);
    assert_eq!(c.tape_replays + incremental, visited);
    assert!(incremental > 0 && c.tape_replays > 0, "{c:?}");
    assert!(c.tape_compiles > 30, "no fingerprint recompiled: {c:?}");
}

/// A tape replay leaves the scratch in exactly the state `solve_into`
/// does: every accessor-visible variable identical, so blame queries and
/// the pressure loop read the same bits either way.
#[test]
fn batch_into_leaves_identical_scratch_state() {
    for seed in [3u64, 17, 42, 99] {
        let program = random_program(seed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let problem = random_problem(seed, &graph, 96, 0.4);
        let opts = SolverOptions::default();
        let mut interp = SolverScratch::new();
        solve_into(&graph, &problem, &opts, &mut interp);
        let mut taped = SolverScratch::new();
        ScheduleTape::compile(&graph, &opts).execute_into(&problem, &mut taped);
        assert_eq!(interp.export(), taped.export(), "seed {seed}");
        let n = graph.nodes().next().unwrap();
        assert_eq!(
            interp.in_flight_count(n),
            taped.in_flight_count(n),
            "seed {seed}: in-flight accessor"
        );
    }
}

/// The paper's figure programs, BEFORE and AFTER: golden shapes the rest
/// of the test suite pins in detail, here checked bit-for-bit between the
/// tape and the direct solver, on the forward graph and on the reversed
/// graph `solve_after` solved last.
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
    let mut scratch = SolverScratch::new();
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
                if k % 3 == 2 {
                    problem.steal(n, (k + 1) % items);
                }
            }
            let opts = SolverOptions::default();
            run_case(
                &graph,
                &problem,
                &opts,
                &mut scratch,
                &format!("figure {fig}, items {items}"),
            );
            // AFTER: the tape of the reversed graph `solve_after` solved
            // last (poisoned if the §5.3 fallback ran) replays its
            // solution.
            let after = solve_after(&graph, &problem, &opts).unwrap();
            let mut rp = problem.clone();
            rp.resize_nodes(after.reversed.num_nodes());
            ScheduleTape::compile(&after.reversed, &opts).execute_into(&rp, &mut scratch);
            assert_eq!(
                scratch.export(),
                after.solution,
                "figure {fig}, items {items}: after"
            );
        }
    }
}

/// Compiling twice yields the identical op sequence (determinism), and a
/// recompiled tape after poisoning differs — the fingerprint really
/// tracks the schedule, not just the node count.
#[test]
fn compilation_is_deterministic_and_poison_sensitive() {
    let src = "do i = 1, N\n  ... = x(a(i))\n  if t(i) goto 7\nenddo\n7 b = 2";
    let program = parse(src).unwrap();
    let graph = IntervalGraph::from_program(&program).unwrap();
    let opts = SolverOptions::default();
    let a = ScheduleTape::compile(&graph, &opts);
    let b = ScheduleTape::compile(&graph, &opts);
    assert_eq!(a.ops(), b.ops());
    assert_eq!(a.num_nodes(), graph.num_nodes());
    let no_hoist = SolverOptions {
        no_zero_trip_hoist: true,
        ..Default::default()
    };
    let c = ScheduleTape::compile(&graph, &no_hoist);
    assert_ne!(a.ops(), c.ops(), "poisoning must change the emitted ops");
}

/// FNV-1a over the `Debug` rendering of every fused op: a digest that
/// moves whenever any op, operand or op order moves.
fn tape_digest(tape: &ScheduleTape) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for op in tape.ops() {
        for byte in format!("{op:?};").bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The compiled tapes are pinned: for the paper's figure programs, a
/// 400-statement generated program and 8 random programs, forward and
/// reversed, the fused op stream, the unfused op count and the delta
/// block partition all equal the recorded values. They were last
/// re-recorded when the walker began to fold out reads of rows it has not
/// written yet: every forward tape lost the three ops that read ROOT's
/// never-written `*_loc` rows, reversed tapes also lost their reads of
/// jump-in rows, and every reversed tape became delta-supported.
#[test]
fn compiled_tapes_are_pinned() {
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut programs: Vec<(String, gnt_ir::Program)> = ["fig1", "fig3", "fig11"]
        .iter()
        .map(|name| {
            let src = std::fs::read_to_string(format!("{examples}/{name}.minif")).unwrap();
            ((*name).to_string(), parse(&src).unwrap())
        })
        .collect();
    programs.push(("sized400".to_string(), gnt_core::sized_program(400)));
    let config = GenConfig {
        goto_prob: 0.1,
        ..Default::default()
    };
    for seed in 0..8u64 {
        programs.push((format!("random{seed}"), random_program(seed, &config)));
    }

    let opts = SolverOptions::default();
    let mut got = Vec::new();
    for (name, program) in &programs {
        let forward = IntervalGraph::from_program(program).unwrap();
        let reversed = reversed_graph(&forward).unwrap();
        for (dir, graph) in [("fwd", &forward), ("rev", &reversed)] {
            let tape = ScheduleTape::compile(graph, &opts);
            // A cold scratch replays in full and reports the partition.
            let problem = PlacementProblem::new(graph.num_nodes(), 1);
            let mut scratch = SolverScratch::new();
            let report = gnt_core::solve_delta(
                graph,
                &problem,
                &opts,
                &mut scratch,
                &gnt_core::DeltaSet::new(),
            );
            got.push((
                format!("{name}/{dir}"),
                tape_digest(&tape),
                tape.num_unfused_ops(),
                report.blocks_total,
            ));
        }
    }
    // (tape, fused-op digest, unfused ops, delta blocks; 0 would mean declined)
    let expected: &[(&str, u64, usize, usize)] = &[
        ("fig1/fwd", 880958744201253559, 819, 255),
        ("fig1/rev", 13603307353785634438, 816, 255),
        ("fig3/fwd", 6582749060629831895, 819, 255),
        ("fig3/rev", 9347203039443669738, 819, 255),
        ("fig11/fwd", 436219129286907353, 819, 255),
        ("fig11/rev", 1086993433597422169, 817, 255),
        ("sized400/fwd", 12932414072930257074, 39370, 11964),
        ("sized400/rev", 5622906412159971810, 39370, 11964),
        ("random0/fwd", 1319799475720525648, 1865, 574),
        ("random0/rev", 16192813932391928747, 1865, 574),
        ("random1/fwd", 5544636756044172010, 10810, 3264),
        ("random1/rev", 1836837627311998579, 10808, 3264),
        ("random2/fwd", 3043736777326541321, 233, 77),
        ("random2/rev", 15765252544793875914, 233, 77),
        ("random3/fwd", 7619381686064350913, 3512, 1056),
        ("random3/rev", 17251814411819945184, 3502, 1056),
        ("random4/fwd", 16317844272146042350, 8764, 2662),
        ("random4/rev", 16858651144972214549, 8764, 2662),
        ("random5/fwd", 12838345959328015051, 7884, 2402),
        ("random5/rev", 14263585825780266871, 7882, 2402),
        ("random6/fwd", 15191707981625114018, 3784, 1152),
        ("random6/rev", 11122924835831850621, 3781, 1152),
        ("random7/fwd", 17672005617205487263, 9194, 2768),
        ("random7/rev", 15071373967937832011, 9192, 2768),
    ];
    assert_eq!(got.len(), expected.len());
    for (g, e) in got.iter().zip(expected) {
        assert_eq!((g.0.as_str(), g.1, g.2, g.3), *e);
    }
}
