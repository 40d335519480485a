//! Differential suite for the word-parallel path replay: [`check_path`]
//! advances every item at once, and [`PathChecker`] also resumes each
//! path where it leaves the previous one. Both must report exactly what
//! the original one-item-at-a-time replay reports — the same violations
//! in the same order — on every bounded path, strict and non-strict.
//!
//! `reference_check_path` below is that original replay, kept verbatim
//! as the oracle. Cases: the paper's figure programs, a large
//! `sized_program`, random programs (more under `GNT_STRESS`), universes
//! on both sides of the 64-bit word boundary, and hand-made placements
//! that trigger all four [`Violation`] kinds (solver output triggers
//! none of them).

use gnt_cfg::{IntervalGraph, NodeId, NodeKind};
use gnt_core::{
    check_path, enumerate_paths, path_has_zero_trip, random_problem, random_program, sized_program,
    solve, FlavorSolution, GenConfig, Path, PathChecker, PlacementProblem, SolverOptions,
    Violation,
};
use gnt_dataflow::BitSet;
use gnt_ir::parse;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The per-item replay `check_path` had before it went word-parallel.
fn reference_check_path(
    graph: &IntervalGraph,
    path: &Path,
    problem: &PlacementProblem,
    eager: &FlavorSolution,
    lazy: &FlavorSolution,
    strict: bool,
) -> Vec<Violation> {
    use gnt_cfg::EdgeClass;
    let cap = problem.universe_size;
    let mut violations = Vec::new();
    for item in 0..cap {
        let mut avail = false; // produced (lazy-complete) and not stolen
        let mut pending = false; // eager started, lazy not yet
        let mut last_producer: Option<NodeId> = None;
        let mut consumed_since_production = true;

        let produce_eager = |node: NodeId,
                             pending: &mut bool,
                             avail: bool,
                             consumed: &mut bool,
                             last: &mut Option<NodeId>,
                             violations: &mut Vec<Violation>| {
            if *pending {
                violations.push(Violation::Unbalanced { node, item });
            }
            if avail {
                violations.push(Violation::Redundant { node, item });
            }
            if !*consumed && strict {
                violations.push(Violation::Unsafe {
                    node: last.unwrap_or(node),
                    item,
                });
            }
            *pending = true;
            *consumed = false;
            *last = Some(node);
        };

        for (idx, &node) in path.iter().enumerate() {
            let i = node.index();
            let in_class = if idx == 0 {
                None
            } else {
                graph.edge_class(path[idx - 1], node)
            };
            // RES_in fires unless we re-entered a header via its CYCLE
            // edge.
            if in_class != Some(EdgeClass::Cycle) {
                if eager.res_in[i].contains(item) {
                    produce_eager(
                        node,
                        &mut pending,
                        avail,
                        &mut consumed_since_production,
                        &mut last_producer,
                        &mut violations,
                    );
                }
                if lazy.res_in[i].contains(item) {
                    if !pending {
                        violations.push(Violation::Unbalanced { node, item });
                    }
                    pending = false;
                    avail = true;
                }
            }
            // Node effects.
            if problem.take_init[i].contains(item) {
                if strict && !avail && !problem.give_init[i].contains(item) {
                    violations.push(Violation::Insufficient { node, item });
                }
                consumed_since_production = true;
            }
            if problem.give_init[i].contains(item) {
                avail = true;
            }
            if problem.steal_init[i].contains(item) {
                avail = false;
            }
            // RES_out fires toward FORWARD/JUMP successors only.
            let out_class = path
                .get(idx + 1)
                .and_then(|&next| graph.edge_class(node, next));
            if matches!(
                out_class,
                Some(EdgeClass::Forward | EdgeClass::Jump | EdgeClass::JumpIn)
            ) {
                if eager.res_out[i].contains(item) {
                    produce_eager(
                        node,
                        &mut pending,
                        avail,
                        &mut consumed_since_production,
                        &mut last_producer,
                        &mut violations,
                    );
                }
                if lazy.res_out[i].contains(item) {
                    if !pending {
                        violations.push(Violation::Unbalanced { node, item });
                    }
                    pending = false;
                    avail = true;
                }
            }
        }
        if pending {
            violations.push(Violation::Unbalanced {
                node: *path.last().unwrap(),
                item,
            });
        }
        if strict && !consumed_since_production {
            violations.push(Violation::Unsafe {
                node: last_producer.unwrap_or(*path.last().unwrap()),
                item,
            });
        }
    }
    violations
}

/// Stress multiplier from the environment (`GNT_STRESS`, default 1).
fn stress() -> usize {
    std::env::var("GNT_STRESS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// Violation kinds seen across a sweep: insufficient, unbalanced,
/// unsafe, redundant.
#[derive(Default)]
struct Kinds([usize; 4]);

impl Kinds {
    fn add(&mut self, vs: &[Violation]) {
        for v in vs {
            let k = match v {
                Violation::Insufficient { .. } => 0,
                Violation::Unbalanced { .. } => 1,
                Violation::Unsafe { .. } => 2,
                Violation::Redundant { .. } => 3,
            };
            self.0[k] += 1;
        }
    }
}

/// Asserts `check_path` equals the reference on every path of
/// `enumerate_paths(graph, 2, 256)`, strict and non-strict, and so does
/// one `PathChecker` fed every path in enumeration order (long shared
/// prefixes) or the zero-trip paths only (as the zero-trip lint feeds
/// it).
fn assert_agrees(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    eager: &FlavorSolution,
    lazy: &FlavorSolution,
    kinds: &mut Kinds,
    label: &str,
) {
    let paths = enumerate_paths(graph, 2, 256);
    for strict in [false, true] {
        let expected: Vec<Vec<Violation>> = paths
            .iter()
            .map(|path| reference_check_path(graph, path, problem, eager, lazy, strict))
            .collect();
        for (p, path) in paths.iter().enumerate() {
            let got = check_path(graph, path, problem, eager, lazy, strict);
            assert_eq!(got, expected[p], "{label}: path {p}, strict {strict}");
            kinds.add(&got);
        }
        let all: Vec<usize> = (0..paths.len()).collect();
        let zero_trip: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&p| path_has_zero_trip(graph, &paths[p]))
            .collect();
        for (order, sweep) in [("all", all), ("zero-trip", zero_trip)] {
            let mut checker = PathChecker::new(graph, problem, eager, lazy, strict);
            for p in sweep {
                assert_eq!(
                    checker.check(&paths[p]),
                    expected[p],
                    "{label}: {order} sweep, path {p}, strict {strict}"
                );
            }
        }
    }
}

/// Flips each `RES_in`/`RES_out` bit of `flavor` with probability
/// `1/rate`, so the replay meets every kind of misplacement.
fn perturb(rng: &mut StdRng, flavor: &FlavorSolution, rate: u32) -> FlavorSolution {
    let mut out = flavor.clone();
    for sets in [&mut out.res_in, &mut out.res_out] {
        for set in sets.iter_mut() {
            for item in 0..set.capacity() {
                if rng.gen_range(0..rate) == 0 && !set.remove(item) {
                    set.insert(item);
                }
            }
        }
    }
    out
}

/// Solver output, and a perturbed copy of it, on `problem`.
fn sweep(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    seed: u64,
    kinds: &mut Kinds,
    label: &str,
) {
    let sol = solve(graph, problem, &SolverOptions::default());
    assert_agrees(graph, problem, &sol.eager, &sol.lazy, kinds, label);
    let mut rng = StdRng::seed_from_u64(seed);
    let eager = perturb(&mut rng, &sol.eager, 8);
    let lazy = perturb(&mut rng, &sol.lazy, 8);
    assert_agrees(
        graph,
        problem,
        &eager,
        &lazy,
        kinds,
        &format!("{label}, perturbed"),
    );
}

fn figure(name: &str) -> IntervalGraph {
    let path = format!("{}/../../examples/{name}.minif", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    IntervalGraph::from_program(&parse(&src).unwrap()).unwrap()
}

#[test]
fn replay_matches_reference_on_figure_programs() {
    let mut kinds = Kinds::default();
    for name in ["fig1", "fig3", "fig11"] {
        let graph = figure(name);
        for (k, universe) in [1usize, 5, 64, 65, 130].into_iter().enumerate() {
            let seed = 1000 + k as u64;
            let problem = random_problem(seed, &graph, universe, 0.3);
            sweep(
                &graph,
                &problem,
                seed,
                &mut kinds,
                &format!("{name}, universe {universe}"),
            );
        }
    }
    assert!(kinds.0.iter().all(|&n| n > 0), "kinds seen: {:?}", kinds.0);
}

#[test]
fn replay_matches_reference_on_a_sized_program() {
    let graph = IntervalGraph::from_program(&sized_program(400)).unwrap();
    let problem = random_problem(400, &graph, 4, 0.05);
    sweep(&graph, &problem, 400, &mut Kinds::default(), "sized 400");
}

#[test]
fn replay_matches_reference_on_random_programs() {
    let universes = [1usize, 2, 5, 65, 8, 13];
    let config = GenConfig {
        goto_prob: 0.2,
        ..Default::default()
    };
    let mut kinds = Kinds::default();
    for seed in 0..(16 * stress()) as u64 {
        let universe = universes[seed as usize % universes.len()];
        let graph = IntervalGraph::from_program(&random_program(seed, &config)).unwrap();
        let problem = random_problem(seed.wrapping_mul(31), &graph, universe, 0.3);
        sweep(
            &graph,
            &problem,
            seed,
            &mut kinds,
            &format!("seed {seed}, universe {universe}"),
        );
    }
    assert!(kinds.0.iter().all(|&n| n > 0), "kinds seen: {:?}", kinds.0);
}

/// One hand-made placement per violation kind, each on an item of its
/// own across a 70-item universe (two words), plus one production that
/// is unbalanced, redundant and unsafe at once.
#[test]
fn hand_made_placements_trigger_every_kind() {
    let graph =
        IntervalGraph::from_program(&parse("a = 1\nb = 2\n... = x(1)\nc = 3").unwrap()).unwrap();
    let s: Vec<NodeId> = graph
        .nodes()
        .filter(|&n| matches!(graph.kind(n), NodeKind::Stmt(_)))
        .collect();
    let cap = 70;
    let empty = || FlavorSolution {
        given_in: vec![BitSet::new(cap); graph.num_nodes()],
        given: vec![BitSet::new(cap); graph.num_nodes()],
        given_out: vec![BitSet::new(cap); graph.num_nodes()],
        res_in: vec![BitSet::new(cap); graph.num_nodes()],
        res_out: vec![BitSet::new(cap); graph.num_nodes()],
    };
    let mut problem = PlacementProblem::new(graph.num_nodes(), cap);
    let (mut eager, mut lazy) = (empty(), empty());
    // Item 3: consumed, never produced.
    problem.take(s[2], 3);
    // Item 10: started twice, stopped once.
    problem.take(s[2], 10);
    eager.res_in[s[0].index()].insert(10);
    eager.res_in[s[1].index()].insert(10);
    lazy.res_in[s[2].index()].insert(10);
    // Item 65: produced, then produced again while still available.
    problem.take(s[2], 65);
    for n in [s[0], s[1]] {
        eager.res_in[n.index()].insert(65);
        lazy.res_in[n.index()].insert(65);
    }
    // Item 66: produced after the last consumer.
    eager.res_in[s[3].index()].insert(66);
    lazy.res_in[s[3].index()].insert(66);
    // Item 69: a second start at `b` while pending, available (given at
    // `a`) and unconsumed since the start at `a`.
    problem.give(s[0], 69);
    eager.res_in[s[0].index()].insert(69);
    eager.res_in[s[1].index()].insert(69);

    let paths = enumerate_paths(&graph, 2, 256);
    assert_eq!(paths.len(), 1);
    let got = check_path(&graph, &paths[0], &problem, &eager, &lazy, true);
    assert_eq!(
        got,
        reference_check_path(&graph, &paths[0], &problem, &eager, &lazy, true)
    );
    let mut kinds = Kinds::default();
    kinds.add(&got);
    assert!(kinds.0.iter().all(|&n| n > 0), "kinds seen: {:?}", kinds.0);
    let item_69: Vec<&Violation> = got
        .iter()
        .filter(|v| {
            matches!(
                v,
                Violation::Unbalanced { item: 69, .. }
                    | Violation::Redundant { item: 69, .. }
                    | Violation::Unsafe { item: 69, .. }
            )
        })
        .collect();
    assert_eq!(
        item_69,
        [
            &Violation::Unbalanced {
                node: s[1],
                item: 69
            },
            &Violation::Redundant {
                node: s[1],
                item: 69
            },
            &Violation::Unsafe {
                node: s[0],
                item: 69
            },
            &Violation::Unbalanced {
                node: *paths[0].last().unwrap(),
                item: 69
            },
            &Violation::Unsafe {
                node: s[1],
                item: 69
            },
        ]
    );
    assert_agrees(
        &graph,
        &problem,
        &eager,
        &lazy,
        &mut Kinds::default(),
        "hand-made",
    );
}
