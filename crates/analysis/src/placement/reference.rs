//! The reference oracles of the flat Layer-2 sweeps: the per-edge
//! `BitSet` O1 fixpoint and the `GenKillProblem` C2 reach they replaced,
//! kept verbatim. The flat [`O1Avail`](super::O1Avail) and
//! [`c2_reach`](super::c2_reach) must give the same states, rounds and
//! findings on solver placements and perturbed ones, forward and
//! reversed, on universes of 0, 1, 64, 65 and 130 items, also on deep
//! loop nests, where the flat sweeps skip the most settled nodes.

use super::{c2_reach, exits, has, real_out, O1Avail as FlatO1};
use gnt_cfg::{CfgFlow, EdgeClass, IntervalGraph, NodeId};
use gnt_core::{
    random_problem, random_program, shift_off_synthetic, solve, solve_after, FlavorSolution,
    GenConfig, PlacementProblem, SolverOptions,
};
use gnt_dataflow::{BitSet, Direction, GenKillProblem, Meet};

/// The O1 must-availability of every interval-graph edge, the ground
/// for `GNT004` (redundant production).
///
/// It replays the edge-aware slot semantics of [`gnt_core::check_path`]
/// as a forward must-dataflow over the graph's *edges*: availability is
/// set by completed (lazy) productions and GIVEs, killed only by STEALs,
/// a header's `RES_in` does not re-fire on its CYCLE edge, and a header's
/// `RES_out` fires only toward FORWARD/JUMP successors — so a header's
/// production never leaks into its own body as availability. The edge
/// list mirrors [`CfgFlow::from_interval`] (no synthetic edges, no
/// virtual CYCLE edge into the root).
///
/// The states are the greatest fixpoint of a monotone system, reached by
/// sweeping from "everything available" downwards. That fixpoint is
/// unique, so the sweep order changes only how many rounds it takes, not
/// the states. The preorder settles in a few rounds, as every non-CYCLE
/// edge points forward in it; an order that is not a flow order (node
/// ids) needs a number of rounds that grows with the file.
pub(super) struct O1Avail<'a> {
    problem: &'a PlacementProblem,
    lazy: &'a FlavorSolution,
    /// Class of each edge, by edge id.
    pub(super) class: Vec<EdgeClass>,
    in_edges: Vec<Vec<usize>>,
    out_edges: Vec<Vec<usize>>,
    /// Availability on each edge, by edge id.
    pub(super) state: Vec<BitSet>,
    /// Sweeps run, the last one confirming that nothing changed.
    pub(super) rounds: u64,
}

impl<'a> O1Avail<'a> {
    /// Runs the fixpoint, sweeping the nodes in `order` each round.
    pub(super) fn solve(
        graph: &IntervalGraph,
        problem: &'a PlacementProblem,
        lazy: &'a FlavorSolution,
        order: &[NodeId],
    ) -> O1Avail<'a> {
        let n = graph.num_nodes();
        let cap = problem.universe_size;
        let mut class = Vec::new();
        let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for m in graph.nodes() {
            for (s, c) in graph.succ_edges(m) {
                if c == EdgeClass::Synthetic || (c == EdgeClass::Cycle && s == graph.root()) {
                    continue;
                }
                out_edges[m.index()].push(class.len());
                in_edges[s.index()].push(class.len());
                class.push(c);
            }
        }
        let mut o1 = O1Avail {
            problem,
            lazy,
            state: vec![BitSet::full(cap); class.len()],
            class,
            in_edges,
            out_edges,
            rounds: 0,
        };
        // Optimistic fixpoint: start full, intersect downwards.
        let mut mid = BitSet::new(cap);
        let mut next = BitSet::new(cap);
        let mut entry = BitSet::new(cap);
        let mut changed = true;
        while changed {
            changed = false;
            o1.rounds += 1;
            for &node in order {
                let i = node.index();
                if o1.out_edges[i].is_empty() {
                    continue;
                }
                o1.mid_meet(i, &mut mid, &mut entry);
                for &e in &o1.out_edges[i] {
                    next.copy_from(&mid);
                    if exits(o1.class[e]) {
                        next.union_with(&lazy.res_out[i]);
                    }
                    if next != o1.state[e] {
                        o1.state[e].copy_from(&next);
                        changed = true;
                    }
                }
            }
        }
        o1
    }

    /// Availability right after node `i`'s statement, met over all its
    /// entries, into `acc`. Each entry adds lazy `RES_in` (unless it is
    /// the CYCLE edge) to its state; the root's boundary is "nothing
    /// available". TAKE and STEAL then both end availability. Killing at
    /// TAKE is stricter than `check_path`'s replay on purpose: consumption
    /// re-justifies later production, so only productions that no
    /// consumer separates from prior availability are *definitely*
    /// redundant.
    fn mid_meet(&self, i: usize, acc: &mut BitSet, entry: &mut BitSet) {
        let res_in = &self.lazy.res_in[i];
        if self.in_edges[i].is_empty() {
            acc.copy_from(res_in);
        } else {
            for (k, &e) in self.in_edges[i].iter().enumerate() {
                entry.copy_from(&self.state[e]);
                if self.class[e] != EdgeClass::Cycle {
                    entry.union_with(res_in);
                }
                if k == 0 {
                    acc.copy_from(entry);
                } else {
                    acc.intersect_with(entry);
                }
            }
        }
        acc.subtract_with(&self.problem.take_init[i]);
        acc.subtract_with(&self.problem.steal_init[i]);
    }

    /// The redundant production points of `eager`, as (node, item) in
    /// node-id order; per node, `RES_in` items ascending, then `RES_out`
    /// items ascending. A point is redundant only when *every* firing
    /// occurrence of it finds the item available.
    pub(super) fn redundant(&self, eager: &FlavorSolution) -> Vec<(NodeId, usize)> {
        let mut found = Vec::new();
        let cap = self.problem.universe_size;
        let (mut out_mid, mut entry) = (BitSet::new(cap), BitSet::new(cap));
        for (i, ins) in self.in_edges.iter().enumerate() {
            let node = NodeId(i as u32);
            // RES_in fires on every non-CYCLE entry; redundant only if the
            // item is available on all of them.
            let mut firing = ins
                .iter()
                .filter(|&&e| self.class[e] != EdgeClass::Cycle)
                .peekable();
            if firing.peek().is_some() {
                let firing: Vec<&BitSet> = firing.map(|&e| &self.state[e]).collect();
                for item in eager.res_in[i].iter() {
                    if firing.iter().all(|s| s.contains(item)) {
                        found.push((node, item));
                    }
                }
            }
            // RES_out fires toward FORWARD/JUMP successors, over the
            // post-statement state of whichever entry was taken.
            if !eager.res_out[i].is_empty()
                && self.out_edges[i].iter().any(|&e| exits(self.class[e]))
            {
                self.mid_meet(i, &mut out_mid, &mut entry);
                for item in eager.res_out[i].iter() {
                    if out_mid.contains(item) {
                        found.push((node, item));
                    }
                }
            }
        }
        found
    }
}

/// C2's backward reach as the `GenKillProblem` over the `CfgFlow`:
/// `(after, before)` per node, the entry and the exit side.
fn c2_reach_reference(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
) -> (Vec<BitSet>, Vec<BitSet>) {
    let flow = CfgFlow::from_interval(graph);
    let cap = problem.universe_size;
    let reach = GenKillProblem {
        direction: Direction::Backward,
        meet: Meet::Union,
        gen: problem.take_init.clone(),
        kill: problem.steal_init.clone(),
        boundary: BitSet::new(cap),
    }
    .solve(&flow);
    (reach.after, reach.before)
}

/// SplitMix64: a few random bits without a dependency.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Adds a production of a random item at about one slot in `per`.
fn perturb(flavor: &mut FlavorSolution, cap: usize, per: u64, rng: &mut u64) {
    if cap == 0 {
        return;
    }
    for sets in [&mut flavor.res_in, &mut flavor.res_out] {
        for set in sets.iter_mut() {
            if next(rng).is_multiple_of(per) {
                set.insert((next(rng) % cap as u64) as usize);
            }
        }
    }
}

/// Stress multiplier from the environment (`GNT_STRESS`, default 1).
fn stress() -> u64 {
    std::env::var("GNT_STRESS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// What one comparison saw fire, summed over a run.
#[derive(Default)]
struct Fired {
    redundant: usize,
    unreached: usize,
}

/// Compares the flat sweeps with the oracles on one placement; returns
/// the O1 rounds.
fn compare(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    eager: &FlavorSolution,
    lazy: &FlavorSolution,
    what: &str,
    fired: &mut Fired,
) -> u64 {
    let flat = FlatO1::solve(graph, problem, lazy, graph.preorder());
    let old = O1Avail::solve(graph, problem, lazy, graph.preorder());
    // The reference numbers the real edges densely, source by source.
    let real: Vec<(usize, EdgeClass)> = graph
        .nodes()
        .flat_map(|m| real_out(graph, m.index()).map(|(e, _, c)| (e, c)))
        .collect();
    assert_eq!(real.len(), old.class.len(), "{what}: edge count");
    for (id, (&(e, class), state)) in real.iter().zip(&old.state).enumerate() {
        assert_eq!(class, old.class[id], "{what}: class of edge {id}");
        assert_eq!(
            flat.state.row(e),
            state.words(),
            "{what}: O1 state of edge {id}"
        );
    }
    assert_eq!(flat.rounds, old.rounds, "{what}: O1 rounds");
    let found = flat.redundant(eager);
    assert_eq!(found, old.redundant(eager), "{what}: GNT004 points");
    fired.redundant += found.len();

    let (reach_in, reach_out) = c2_reach(graph, problem);
    let (after, before) = c2_reach_reference(graph, problem);
    for i in 0..graph.num_nodes() {
        assert_eq!(
            reach_in.row(i),
            after[i].words(),
            "{what}: C2 reach_in of {i}"
        );
        assert_eq!(
            reach_out.row(i),
            before[i].words(),
            "{what}: C2 reach_out of {i}"
        );
        for (set, reach) in [
            (&eager.res_in[i], &reach_in),
            (&eager.res_out[i], &reach_out),
        ] {
            fired.unreached += set.iter().filter(|&item| !has(reach.row(i), item)).count();
        }
    }
    flat.rounds
}

/// Compares the flat sweeps with the oracles on `graph`'s forward and
/// reversed orientations, each on a solver placement and on a perturbed
/// one, over universes on both sides of the word boundary. Returns the
/// most O1 rounds any comparison took.
fn compare_orientations(graph: &IntervalGraph, seed: u64, rng: &mut u64, fired: &mut Fired) -> u64 {
    let opts = SolverOptions::default();
    let mut rounds = 0;
    for cap in [0, 1, 64, 65, 130] {
        let what = format!("seed {seed}, {cap} items");
        let problem = random_problem(seed * 7 + cap as u64, graph, cap, 0.2);

        let mut sol = solve(graph, &problem, &opts);
        shift_off_synthetic(graph, &mut sol.eager);
        shift_off_synthetic(graph, &mut sol.lazy);
        rounds = rounds.max(compare(
            graph, &problem, &sol.eager, &sol.lazy, &what, fired,
        ));
        perturb(&mut sol.eager, cap, 3, rng);
        perturb(&mut sol.lazy, cap, 3, rng);
        let what = format!("{what}, perturbed");
        rounds = rounds.max(compare(
            graph, &problem, &sol.eager, &sol.lazy, &what, fired,
        ));

        let after = solve_after(graph, &problem, &opts).unwrap();
        let mut reversed_problem = problem.clone();
        reversed_problem.resize_nodes(after.reversed.num_nodes());
        let (mut eager, mut lazy) = (after.solution.eager, after.solution.lazy);
        let rev = &after.reversed;
        let what = format!("seed {seed}, {cap} items, reversed");
        rounds = rounds.max(compare(rev, &reversed_problem, &eager, &lazy, &what, fired));
        perturb(&mut eager, cap, 3, rng);
        perturb(&mut lazy, cap, 3, rng);
        let what = format!("{what}, perturbed");
        rounds = rounds.max(compare(rev, &reversed_problem, &eager, &lazy, &what, fired));
    }
    rounds
}

#[test]
fn flat_layer2_sweeps_match_the_bitset_oracles() {
    let configs = [
        GenConfig {
            loop_prob: 0.45,
            ..GenConfig::default()
        },
        GenConfig {
            goto_prob: 0.1,
            ..GenConfig::default()
        },
    ];
    let mut rng = 0x0123_4567_89ab_cdef;
    let mut fired = Fired::default();
    for seed in 0..16 * stress() {
        for config in &configs {
            let graph = IntervalGraph::from_program(&random_program(seed, config)).unwrap();
            compare_orientations(&graph, seed, &mut rng, &mut fired);
        }
    }
    assert!(fired.redundant > 0, "the placements never trigger GNT004");
    assert!(fired.unreached > 0, "the placements never trigger GNT003");
}

/// Deep loop nests take more O1 rounds and more C2 sweeps than shallow
/// programs, and most nodes settle before the last rounds: the rounds
/// where a sweep that revisits only moved nodes skips the most. Its
/// states, rounds and findings must still be the oracles'.
#[test]
fn dirty_layer2_sweeps_match_the_oracles_on_deep_loop_nests() {
    let config = GenConfig {
        max_depth: 5,
        loop_prob: 0.7,
        if_prob: 0.15,
        goto_prob: 0.15,
        ..GenConfig::default()
    };
    let mut rng = 0x0dee_9000_0000_0001;
    let mut fired = Fired::default();
    let mut rounds = 0;
    for seed in 0..12 * stress() {
        let graph = IntervalGraph::from_program(&random_program(seed, &config)).unwrap();
        rounds = rounds.max(compare_orientations(&graph, seed, &mut rng, &mut fired));
    }
    assert!(rounds >= 4, "the deep nests settle in {rounds} O1 rounds");
    assert!(fired.redundant > 0, "the placements never trigger GNT004");
    assert!(fired.unreached > 0, "the placements never trigger GNT003");
}
