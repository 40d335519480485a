//! Differential suite for the reversal a [`SolverScratch`] keeps between
//! AFTER solves.
//!
//! Every case puts AFTER solves through one long-lived scratch with
//! `solve_after_with_scratch` and compares each with `solve_after` on a
//! fresh scratch, which builds its reversal anew: the `Solution`s, the
//! reversed graphs' `dump()` and their poison sets must be equal. The
//! cases are random programs without and with a `goto` out of a loop
//! (more under `GNT_STRESS`), the example programs, graphs alternating on
//! one scratch, two programs whose graphs share a fingerprint but not
//! their node kinds, and a §5.3 fallback followed by a solve of the same
//! graph whose optimistic attempt holds.

use gnt_cfg::IntervalGraph;
use gnt_core::{
    random_problem, random_program, solve_after, solve_after_with_scratch, AfterSolution,
    GenConfig, PlacementProblem, SolverOptions, SolverScratch,
};

fn stress() -> u64 {
    std::env::var("GNT_STRESS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn graph(src: &str) -> IntervalGraph {
    IntervalGraph::from_program(&gnt_ir::parse(src).expect("parses")).expect("reducible")
}

/// One scratch for many AFTER solves, and the `dump()` of the forward
/// graph it last solved.
#[derive(Default)]
struct Shared {
    scratch: SolverScratch,
    last: Option<String>,
}

impl Shared {
    /// One AFTER solve through the shared scratch, checked against a
    /// fresh-scratch solve. It must reuse the kept reversal exactly when
    /// the last graph dumps as `graph` does (random programs of two seeds
    /// may lower alike), and build one otherwise.
    fn check(
        &mut self,
        graph: &IntervalGraph,
        problem: &PlacementProblem,
        what: &str,
    ) -> AfterSolution {
        let opts = SolverOptions::default();
        let before = self.scratch.counters();
        let shared = solve_after_with_scratch(graph, problem, &opts, &mut self.scratch).unwrap();
        let counted = self.scratch.counters() - before;
        let fresh = solve_after(graph, problem, &opts).unwrap();
        assert_eq!(shared.solution, fresh.solution, "{what}: solution");
        assert_eq!(
            shared.reversed.dump(),
            fresh.reversed.dump(),
            "{what}: reversal"
        );
        assert_eq!(
            shared.reversed.poisoned(),
            fresh.reversed.poisoned(),
            "{what}: poison"
        );
        let dump = graph.dump();
        let same = self.last.as_ref() == Some(&dump);
        assert_eq!(
            (counted.reversals_built, counted.reversals_reused),
            (u64::from(!same), u64::from(same)),
            "{what}"
        );
        self.last = Some(dump);
        shared
    }
}

/// Random programs, three problems each and the first one again, all
/// through one scratch: the first solve of a graph builds its reversal,
/// and the other three reuse it.
#[test]
fn random_programs_reuse_their_reversal() {
    let mut shared = Shared::default();
    let mut fallbacks = 0;
    for goto_prob in [0.0, 0.1] {
        let config = GenConfig {
            goto_prob,
            loop_prob: 0.4,
            ..GenConfig::default()
        };
        for seed in 0..40 * stress() {
            let g = IntervalGraph::from_program(&random_program(seed, &config)).unwrap();
            let problems: Vec<PlacementProblem> = [1, 65, 130]
                .iter()
                .map(|&cap| random_problem(seed ^ cap as u64, &g, cap, 0.25))
                .collect();
            for (i, problem) in problems.iter().chain(&problems[..1]).enumerate() {
                let what = format!("goto {goto_prob}, seed {seed}, problem {i}");
                let after = shared.check(&g, problem, &what);
                fallbacks += usize::from(!after.reversed.poisoned().is_empty());
            }
        }
    }
    assert!(fallbacks > 0, "no solve took §5.3's poisoned fallback");
}

/// The example programs (the paper's Figures 1, 3 and 11), each solved
/// twice.
#[test]
fn example_programs_reuse_their_reversal() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "minif"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    let mut shared = Shared::default();
    for path in paths {
        let g = graph(&std::fs::read_to_string(&path).expect("example source"));
        let problem = random_problem(7, &g, 64, 0.3);
        for round in 0..2 {
            shared.check(&g, &problem, &format!("{}, round {round}", path.display()));
        }
    }
}

/// Two graphs alternating on one scratch, which keeps one reversal: every
/// switch builds, and each result matches a fresh solve.
#[test]
fn alternating_graphs_each_build() {
    let config = GenConfig {
        goto_prob: 0.1,
        ..GenConfig::default()
    };
    let mut shared = Shared::default();
    let mut switches = 0;
    for seed in 0..10 * stress() {
        let pair: Vec<IntervalGraph> = [seed, seed + 1000]
            .iter()
            .map(|&s| IntervalGraph::from_program(&random_program(s, &config)).unwrap())
            .collect();
        let problems: Vec<PlacementProblem> = pair
            .iter()
            .map(|g| random_problem(seed, g, 65, 0.3))
            .collect();
        switches += usize::from(pair[0].dump() != pair[1].dump());
        for round in 0..4 {
            let i = round % 2;
            shared.check(
                &pair[i],
                &problems[i],
                &format!("seed {seed}, round {round}"),
            );
        }
    }
    assert!(switches > 0, "every pair lowered alike");
}

/// An empty loop body lowers to a synthetic latch, a one-statement body
/// to a statement: one CFG shape, so one fingerprint, but other node
/// kinds, which the reversal copies. Neither graph may reuse the other's
/// reversal.
#[test]
fn equal_fingerprints_with_other_kinds_build_again() {
    let empty = graph("do i = 1, N\nenddo\nb = 1");
    let filled = graph("do i = 1, N\n  a = 1\nenddo\nb = 1");
    assert_eq!(empty.fingerprint(), filled.fingerprint());
    assert!(empty.nodes().any(|n| empty.kind(n) != filled.kind(n)));
    let mut shared = Shared::default();
    for (round, g) in [&empty, &filled, &filled, &empty].into_iter().enumerate() {
        let problem = random_problem(round as u64, g, 3, 0.5);
        shared.check(g, &problem, &format!("round {round}"));
    }
    let c = shared.scratch.counters();
    assert_eq!((c.reversals_built, c.reversals_reused), (3, 1));
}

/// A `goto` out of the loop ahead of the write: §5.3's optimistic solve
/// fails its checks and the fallback poisons the loop. A later solve of
/// the same graph with nothing to place keeps the optimistic attempt, so
/// its reversal is unpoisoned: the kept reversal was not the poisoned
/// clone.
#[test]
fn a_fallback_leaves_the_kept_reversal_unpoisoned() {
    let src = "do j = 1, N\n  if t(j) goto 99\n  x(a(j)) = ...\nenddo\n99 b = 1";
    let g = graph(src);
    let def = g
        .nodes()
        .find(|&n| matches!(g.kind(n), gnt_cfg::NodeKind::Stmt(_)) && g.level(n) == 2)
        .expect("the in-loop write");
    let mut write = PlacementProblem::new(g.num_nodes(), 1);
    write.take(def, 0);
    let nothing = PlacementProblem::new(g.num_nodes(), 1);
    let mut shared = Shared::default();
    for (round, (problem, poisoned)) in [(&write, true), (&nothing, false), (&write, true)]
        .into_iter()
        .enumerate()
    {
        let after = shared.check(&g, problem, &format!("round {round}"));
        assert_eq!(
            after.reversed.poisoned().is_empty(),
            !poisoned,
            "round {round}"
        );
    }
    let c = shared.scratch.counters();
    assert_eq!((c.reversals_built, c.reversals_reused), (1, 2));
}
