//! Differential suite for the schedule-compiled solver: replaying a
//! [`ScheduleTape`] (`solve_batch*`) is bit-identical to the direct
//! four-pass solver (`solve`/`solve_into`) — on 500+ random programs
//! across universe sizes straddling every word boundary, on the reversed
//! graphs of the AFTER direction (jump-in edges, synthetic pads,
//! poisoned headers), and on the paper's figure programs.
//!
//! One scratch and one output buffer are shared across every case of a
//! sweep, so the tape cache is invalidated (different graph fingerprint)
//! and the output buffer re-shaped (different universe) at each step —
//! the reuse machinery is exercised as hard as the kernels.

use gnt_cfg::{reversed_graph, IntervalGraph, NodeKind};
use gnt_core::{
    random_problem, random_program, solve, solve_after, solve_batch, solve_batch_into,
    solve_batch_with_scratch, GenConfig, PlacementProblem, ScheduleTape, Solution, SolverOptions,
    SolverScratch,
};
use gnt_ir::parse;

/// One BEFORE-direction case: direct `solve` vs cached-tape
/// `solve_batch` (shared warm scratch + output buffer) vs
/// `solve_batch_with_scratch` (export path), all 20 variable families.
fn run_case(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
    out: &mut Solution,
    label: &str,
) {
    let expected = solve(graph, problem, opts);
    solve_batch(graph, problem, opts, scratch, out);
    assert_eq!(*out, expected, "{label}: solve_batch");
    let exported = solve_batch_with_scratch(graph, problem, opts, scratch);
    assert_eq!(exported, expected, "{label}: solve_batch_with_scratch");
}

#[test]
fn tape_matches_interpreter_on_500_random_programs() {
    let universes = [1usize, 5, 63, 64, 65, 128, 200, 256, 300];
    let config = GenConfig {
        goto_prob: 0.1,
        ..Default::default()
    };
    let mut scratch = SolverScratch::new();
    let mut out = Solution::default();
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
            &mut out,
            &format!("seed {seed}, universe {universe}"),
        );
    }
}

/// The AFTER direction's graphs: the tape must agree with the direct solver
/// on reversed graphs — jump-in edges extending Eq. 11, synthetic landing
/// pads, and the §5.3 poisoned fallback — and the full `solve_after`
/// pipeline (tape-cached both attempts) must match a direct solve
/// of the same reversal.
#[test]
fn tape_matches_interpreter_on_reversed_graphs() {
    let mut scratch = SolverScratch::new();
    let mut out = Solution::default();
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
            &mut out,
            &format!("reversed, seed {seed}"),
        );

        // The §5.3 fallback shape: poison every jump-entered header and
        // compare again through the *same* scratch — the fingerprint
        // change must force a recompile, never a stale replay.
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
                &mut out,
                &format!("reversed+poisoned, seed {seed}"),
            );
        }
    }
}

/// `solve_batch_into` leaves the scratch in exactly the state
/// `solve_into` does: every accessor-visible variable identical, so blame
/// queries and the pressure loop read the same bits either way.
#[test]
fn batch_into_leaves_identical_scratch_state() {
    for seed in [3u64, 17, 42, 99] {
        let program = random_program(seed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let problem = random_problem(seed, &graph, 96, 0.4);
        let opts = SolverOptions::default();
        let mut interp = SolverScratch::new();
        gnt_core::solve_into(&graph, &problem, &opts, &mut interp);
        let mut taped = SolverScratch::new();
        solve_batch_into(&graph, &problem, &opts, &mut taped);
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
/// tape and the direct solver (and through the tape-cached `solve_after`).
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
    let mut out = Solution::default();
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
                &mut out,
                &format!("figure {fig}, items {items}"),
            );
            // AFTER through the public pipeline: both its attempts replay
            // the scratch-cached tape; the result must equal a fresh
            // direct comparison on its own reversed graph.
            let after = solve_after(&graph, &problem, &opts).unwrap();
            let mut rp = problem.clone();
            rp.resize_nodes(after.reversed.num_nodes());
            assert_eq!(
                after.solution,
                solve(&after.reversed, &rp, &opts),
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
/// block partition all equal the values recorded before the schedule
/// walker was shared between the direct and the recording backends.
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
    // (tape, fused-op digest, unfused ops, delta blocks; 0 = declined)
    let expected: &[(&str, u64, usize, usize)] = &[
        ("fig1/fwd", 18294894129410154566, 822, 255),
        ("fig1/rev", 4711853848677644402, 822, 255),
        ("fig3/fwd", 6936269261855549726, 822, 255),
        ("fig3/rev", 16379764817350567042, 822, 255),
        ("fig11/fwd", 9932858663078336092, 822, 255),
        ("fig11/rev", 9777761389023931117, 824, 0),
        ("sized400/fwd", 15233699370645591438, 39373, 11964),
        ("sized400/rev", 5556746930040925415, 39373, 11964),
        ("random0/fwd", 10932864537999298761, 1868, 574),
        ("random0/rev", 2629337199239781383, 1868, 574),
        ("random1/fwd", 16847354050234946452, 10813, 3264),
        ("random1/rev", 2973436858681277862, 10815, 0),
        ("random2/fwd", 9504735206088035554, 236, 77),
        ("random2/rev", 599025950055734982, 236, 77),
        ("random3/fwd", 15251355541958558175, 3515, 1056),
        ("random3/rev", 8299702841349453384, 3517, 0),
        ("random4/fwd", 18142960519690680101, 8767, 2662),
        ("random4/rev", 13070054208711409014, 8771, 0),
        ("random5/fwd", 1754568315608834753, 7887, 2402),
        ("random5/rev", 13427661674915826139, 7889, 0),
        ("random6/fwd", 9668535673424829943, 3787, 1152),
        ("random6/rev", 5131900476899740977, 3787, 1152),
        ("random7/fwd", 14850246735056683766, 9197, 2768),
        ("random7/rev", 7984509501947202549, 9199, 0),
    ];
    assert_eq!(got.len(), expected.len());
    for (g, e) in got.iter().zip(expected) {
        assert_eq!((g.0.as_str(), g.1, g.2, g.3), *e);
    }
}
