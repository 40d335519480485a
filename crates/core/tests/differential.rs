//! Differential tests: the arena/kernel solver — fresh and with a
//! reused [`SolverScratch`] — is bit-identical to a straightforward clone-per-equation reference
//! implementation of Figure 13, on hundreds of random programs, BEFORE
//! and AFTER.
//!
//! The reference below is the pre-arena solver preserved verbatim (modulo
//! being lifted out of the crate): every equation clones its operands and
//! applies `union_with`/`intersect_with`/`subtract_with`. It is the
//! simplest possible reading of the paper and serves as the oracle.

use gnt_cfg::{reversed_graph, IntervalGraph};
use gnt_core::{
    random_problem, random_program, solve, solve_after, solve_after_with_scratch, solve_batch,
    solve_into, GenConfig, PlacementProblem, Solution, SolverOptions, SolverScratch,
};
use proptest::prelude::*;

/// The clone-per-equation reference solver (the pre-arena implementation).
mod reference {
    use gnt_cfg::{EdgeMask, IntervalGraph, NodeId};
    use gnt_core::{Flavor, PlacementProblem};
    use gnt_dataflow::BitSet;

    pub struct RefVars {
        pub steal: Vec<BitSet>,
        pub give: Vec<BitSet>,
        pub block: Vec<BitSet>,
        pub taken_out: Vec<BitSet>,
        pub take: Vec<BitSet>,
        pub taken_in: Vec<BitSet>,
        pub block_loc: Vec<BitSet>,
        pub take_loc: Vec<BitSet>,
        pub give_loc: Vec<BitSet>,
        pub steal_loc: Vec<BitSet>,
    }

    pub struct RefFlavor {
        pub given_in: Vec<BitSet>,
        pub given: Vec<BitSet>,
        pub given_out: Vec<BitSet>,
        pub res_in: Vec<BitSet>,
        pub res_out: Vec<BitSet>,
    }

    pub struct RefSolution {
        pub vars: RefVars,
        pub eager: RefFlavor,
        pub lazy: RefFlavor,
    }

    fn intersect_over(nodes: impl Iterator<Item = NodeId>, sets: &[BitSet]) -> Option<BitSet> {
        let mut acc: Option<BitSet> = None;
        for p in nodes {
            match &mut acc {
                None => acc = Some(sets[p.index()].clone()),
                Some(a) => {
                    a.intersect_with(&sets[p.index()]);
                }
            }
        }
        acc
    }

    pub fn solve(graph: &IntervalGraph, problem: &PlacementProblem) -> RefSolution {
        let n = graph.num_nodes();
        let cap = problem.universe_size;
        let empty = BitSet::new(cap);

        let mut vars = RefVars {
            steal: vec![empty.clone(); n],
            give: vec![empty.clone(); n],
            block: vec![empty.clone(); n],
            taken_out: vec![empty.clone(); n],
            take: vec![empty.clone(); n],
            taken_in: vec![empty.clone(); n],
            block_loc: vec![empty.clone(); n],
            take_loc: vec![empty.clone(); n],
            give_loc: vec![empty.clone(); n],
            steal_loc: vec![empty.clone(); n],
        };

        let steal_init_of = |n: NodeId| -> BitSet {
            if graph.is_poisoned(n) {
                BitSet::full(cap)
            } else {
                problem.steal_init[n.index()].clone()
            }
        };

        for &node in graph.preorder().iter().rev() {
            let ni = node.index();
            for &c in graph.children(node) {
                let ci = c.index();
                // Eq. 9
                let mut give_loc = vars.give[ci].clone();
                give_loc.union_with(&vars.take[ci]);
                if let Some(meet) = intersect_over(graph.preds(c, EdgeMask::FJ), &vars.give_loc) {
                    give_loc.union_with(&meet);
                }
                give_loc.subtract_with(&vars.steal[ci]);
                vars.give_loc[ci] = give_loc;

                // Eq. 10
                let mut steal_loc = vars.steal[ci].clone();
                for p in graph.preds(c, EdgeMask::FJ) {
                    let mut s = vars.steal_loc[p.index()].clone();
                    s.subtract_with(&vars.give_loc[p.index()]);
                    steal_loc.union_with(&s);
                }
                for p in graph.preds(c, EdgeMask::S) {
                    steal_loc.union_with(&vars.steal_loc[p.index()]);
                }
                vars.steal_loc[ci] = steal_loc;
            }

            // Eqs. 1–2
            let mut steal = steal_init_of(node);
            let mut give = problem.give_init[ni].clone();
            if let Some(lc) = graph.last_child(node) {
                steal.union_with(&vars.steal_loc[lc.index()]);
                give.union_with(&vars.give_loc[lc.index()]);
            }
            vars.steal[ni] = steal;
            vars.give[ni] = give;

            // Eq. 3
            let mut block = vars.steal[ni].clone();
            block.union_with(&vars.give[ni]);
            for s in graph.succs(node, EdgeMask::E) {
                block.union_with(&vars.block_loc[s.index()]);
            }
            vars.block[ni] = block;

            // Eq. 4
            vars.taken_out[ni] = intersect_over(graph.succs(node, EdgeMask::FJS), &vars.taken_in)
                .unwrap_or_else(|| BitSet::new(cap));

            // Eq. 5
            let mut take = problem.take_init[ni].clone();
            if !graph.is_poisoned(node) {
                let mut hoisted = BitSet::new(cap);
                for s in graph.succs(node, EdgeMask::E) {
                    hoisted.union_with(&vars.taken_in[s.index()]);
                }
                hoisted.subtract_with(&vars.steal[ni]);
                take.union_with(&hoisted);

                let mut maybe = BitSet::new(cap);
                for s in graph.succs(node, EdgeMask::E) {
                    maybe.union_with(&vars.take_loc[s.index()]);
                }
                maybe.intersect_with(&vars.taken_out[ni]);
                maybe.subtract_with(&vars.block[ni]);
                take.union_with(&maybe);
            }
            vars.take[ni] = take;

            // Eq. 6
            let mut taken_in = vars.taken_out[ni].clone();
            taken_in.subtract_with(&vars.block[ni]);
            taken_in.union_with(&vars.take[ni]);
            vars.taken_in[ni] = taken_in;

            // Eq. 7
            let mut block_loc = vars.block[ni].clone();
            for s in graph.succs(node, EdgeMask::F) {
                block_loc.union_with(&vars.block_loc[s.index()]);
            }
            block_loc.subtract_with(&vars.take[ni]);
            vars.block_loc[ni] = block_loc;

            // Eq. 8
            let mut take_loc = BitSet::new(cap);
            for s in graph.succs(node, EdgeMask::EF) {
                take_loc.union_with(&vars.take_loc[s.index()]);
            }
            take_loc.subtract_with(&vars.block[ni]);
            take_loc.union_with(&vars.take[ni]);
            vars.take_loc[ni] = take_loc;
        }

        let eager = place(graph, cap, &vars, Flavor::Eager);
        let lazy = place(graph, cap, &vars, Flavor::Lazy);
        RefSolution { vars, eager, lazy }
    }

    fn place(graph: &IntervalGraph, cap: usize, vars: &RefVars, flavor: Flavor) -> RefFlavor {
        let n = graph.num_nodes();
        let mut given_in = vec![BitSet::new(cap); n];
        let mut given = vec![BitSet::new(cap); n];
        let mut given_out = vec![BitSet::new(cap); n];

        for &node in graph.preorder() {
            let ni = node.index();
            // Eq. 11
            let mut gin = match graph.header_of(node) {
                Some(h) => {
                    let mut s = given[h.index()].clone();
                    s.subtract_with(&vars.steal[h.index()]);
                    s
                }
                None => BitSet::new(cap),
            };
            let eq11_preds = || {
                graph
                    .preds(node, EdgeMask::FJ)
                    .chain(graph.jump_in_sources(node).iter().copied())
            };
            if let Some(meet) = intersect_over(eq11_preds(), &given_out) {
                gin.union_with(&meet);
            }
            let mut any = BitSet::new(cap);
            for q in eq11_preds() {
                any.union_with(&given_out[q.index()]);
            }
            any.intersect_with(&vars.taken_in[ni]);
            gin.union_with(&any);
            given_in[ni] = gin;

            // Eq. 12
            let mut g = given_in[ni].clone();
            match flavor {
                Flavor::Eager => {
                    g.union_with(&vars.taken_in[ni]);
                }
                Flavor::Lazy => {
                    g.union_with(&vars.take[ni]);
                }
            }
            given[ni] = g;

            // Eq. 13
            let mut gout = vars.give[ni].clone();
            gout.union_with(&given[ni]);
            gout.subtract_with(&vars.steal[ni]);
            given_out[ni] = gout;
        }

        // Eqs. 14–15
        let mut res_in = vec![BitSet::new(cap); n];
        let mut res_out = vec![BitSet::new(cap); n];
        for node in graph.nodes() {
            let ni = node.index();
            let mut rin = given[ni].clone();
            rin.subtract_with(&given_in[ni]);
            res_in[ni] = rin;

            let mut rout = BitSet::new(cap);
            for s in graph.succs(node, EdgeMask::FJ) {
                rout.union_with(&given_in[s.index()]);
            }
            rout.subtract_with(&given_out[ni]);
            res_out[ni] = rout;
        }

        RefFlavor {
            given_in,
            given,
            given_out,
            res_in,
            res_out,
        }
    }
}

/// Asserts every one of the 20 variable families matches the reference,
/// bit for bit.
fn assert_matches_reference(sol: &Solution, oracle: &reference::RefSolution, label: &str) {
    let pairs: [(&str, &[gnt_dataflow::BitSet], &[gnt_dataflow::BitSet]); 20] = [
        ("steal", &sol.vars.steal, &oracle.vars.steal),
        ("give", &sol.vars.give, &oracle.vars.give),
        ("block", &sol.vars.block, &oracle.vars.block),
        ("taken_out", &sol.vars.taken_out, &oracle.vars.taken_out),
        ("take", &sol.vars.take, &oracle.vars.take),
        ("taken_in", &sol.vars.taken_in, &oracle.vars.taken_in),
        ("block_loc", &sol.vars.block_loc, &oracle.vars.block_loc),
        ("take_loc", &sol.vars.take_loc, &oracle.vars.take_loc),
        ("give_loc", &sol.vars.give_loc, &oracle.vars.give_loc),
        ("steal_loc", &sol.vars.steal_loc, &oracle.vars.steal_loc),
        (
            "eager.given_in",
            &sol.eager.given_in,
            &oracle.eager.given_in,
        ),
        ("eager.given", &sol.eager.given, &oracle.eager.given),
        (
            "eager.given_out",
            &sol.eager.given_out,
            &oracle.eager.given_out,
        ),
        ("eager.res_in", &sol.eager.res_in, &oracle.eager.res_in),
        ("eager.res_out", &sol.eager.res_out, &oracle.eager.res_out),
        ("lazy.given_in", &sol.lazy.given_in, &oracle.lazy.given_in),
        ("lazy.given", &sol.lazy.given, &oracle.lazy.given),
        (
            "lazy.given_out",
            &sol.lazy.given_out,
            &oracle.lazy.given_out,
        ),
        ("lazy.res_in", &sol.lazy.res_in, &oracle.lazy.res_in),
        ("lazy.res_out", &sol.lazy.res_out, &oracle.lazy.res_out),
    ];
    for (family, got, want) in pairs {
        assert_eq!(got.len(), want.len(), "{label}: {family} length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g, w, "{label}: {family}[{i}] differs");
        }
    }
}

/// One differential case: reference vs `solve` vs `solve_into` on a
/// reused arena, all 20 families.
fn run_case(seed: u64, universe: usize, density: f64, scratch: &mut SolverScratch) {
    let config = GenConfig {
        goto_prob: 0.1,
        ..Default::default()
    };
    let program = random_program(seed, &config);
    let graph = IntervalGraph::from_program(&program).unwrap();
    let problem = random_problem(seed.wrapping_mul(31), &graph, universe, density);
    let opts = SolverOptions::default();
    let label = format!("seed {seed}, universe {universe}");

    let oracle = reference::solve(&graph, &problem);
    let sol = solve(&graph, &problem, &opts);
    assert_matches_reference(&sol, &oracle, &label);

    solve_into(&graph, &problem, &opts, scratch);
    assert_eq!(sol, scratch.export(), "{label}: scratch reuse");
}

/// The headline differential sweep: 500 random programs across universe
/// sizes straddling every word boundary, one shared scratch throughout.
#[test]
fn new_solver_matches_reference_on_500_random_programs() {
    let universes = [5usize, 63, 64, 65, 128, 200, 256];
    let mut scratch = SolverScratch::new();
    for seed in 0..500u64 {
        let universe = universes[seed as usize % universes.len()];
        run_case(seed, universe, 0.3, &mut scratch);
    }
}

/// AFTER problems: `solve_after` on a fresh scratch matches
/// `solve_after_with_scratch` on one shared across seeds, and the
/// reversed-graph BEFORE solve matches the reference on the reversed
/// graph.
#[test]
fn after_and_reversed_solves_match() {
    let mut scratch = SolverScratch::new();
    let mut after_scratch = SolverScratch::new();
    for seed in 0..60u64 {
        let program = random_program(seed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let problem = random_problem(seed + 7, &graph, 130, 0.3);
        let seq_opts = SolverOptions::default();
        let fresh = solve_after(&graph, &problem, &seq_opts).unwrap();
        let shared =
            solve_after_with_scratch(&graph, &problem, &seq_opts, &mut after_scratch).unwrap();
        assert_eq!(
            fresh.solution, shared.solution,
            "seed {seed}: after flavors"
        );

        // Reference comparison on the reversed graph directly.
        let rg = reversed_graph(&graph).unwrap();
        let mut rp = problem.clone();
        rp.resize_nodes(rg.num_nodes());
        let oracle = reference::solve(&rg, &rp);
        solve_into(&rg, &rp, &seq_opts, &mut scratch);
        let sol = scratch.export();
        assert_matches_reference(&sol, &oracle, &format!("reversed, seed {seed}"));
    }
}

/// Poisoning every loop header (zero-trip safety everywhere, a control
/// decision) still agrees with the reference.
#[test]
fn no_hoist_options_stay_bit_identical() {
    for seed in 0..60u64 {
        let program = random_program(seed, &GenConfig::default());
        let mut graph = IntervalGraph::from_program(&program).unwrap();
        graph.poison_loop_headers();
        let problem = random_problem(seed ^ 0xbeef, &graph, 96, 0.4);
        let oracle = reference::solve(&graph, &problem);
        let sol = solve(&graph, &problem, &SolverOptions::default());
        assert_matches_reference(&sol, &oracle, &format!("no-hoist, seed {seed}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized shapes and densities beyond the fixed sweep: the
    /// reference and the solver agree.
    #[test]
    fn differential_holds_on_arbitrary_cases(
        pseed in 0u64..50_000,
        universe in 1usize..200,
        density in 0u32..100,
    ) {
        let program = random_program(pseed, &GenConfig { goto_prob: 0.05, ..Default::default() });
        let graph = IntervalGraph::from_program(&program).unwrap();
        let problem = random_problem(pseed ^ 0x5eed, &graph, universe, f64::from(density) / 100.0);
        let opts = SolverOptions::default();
        let oracle = reference::solve(&graph, &problem);
        let sol = solve(&graph, &problem, &opts);
        assert_matches_reference(&sol, &oracle, &format!("prop seed {pseed}"));
    }
}

/// `PlacementProblem` is untouched by any solve entry point.
#[test]
fn solve_does_not_mutate_the_problem() {
    let program = random_program(11, &GenConfig::default());
    let graph = IntervalGraph::from_program(&program).unwrap();
    let problem: PlacementProblem = random_problem(13, &graph, 100, 0.4);
    let snapshot = problem.clone();
    let _ = solve(&graph, &problem, &SolverOptions::default());
    let mut scratch = SolverScratch::new();
    let mut out = Solution::default();
    solve_batch(
        &graph,
        &problem,
        &SolverOptions::default(),
        &mut scratch,
        &mut out,
    );
    assert_eq!(problem, snapshot);
}
