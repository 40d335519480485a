//! Reference suite for the flat C1/C3 checkers: [`check_sufficiency`]
//! and [`check_balance`] of `gnt-core` sweep flat word rows over one CSR
//! adjacency in reverse postorder; they must return exactly the
//! violations, in exactly the order, that the former checkers returned.
//!
//! `reference::check_sufficiency` and `reference::check_balance` below
//! are those former checkers, kept verbatim as oracles: sufficiency as a
//! `GenKillProblem` over a `SimpleGraph`, balance over per-node
//! `BitSet`s. Cases: random programs (with and without `goto`s; more
//! under `GNT_STRESS`), `sized_program(200/800/3000)`, on the forward,
//! reversed and poisoned-reversed graphs, graphs with nodes unreachable
//! from ROOT (a `goto` loop that never exits); the solver's solutions, the
//! optimistic §5.3 solutions that fail the check, and solutions with
//! flipped production bits; both flavors, `assume_one_trip` on and off,
//! and universes above 64 items.
//!
//! [`check_sufficiency_pair`] checks both flavors in one fixpoint; it
//! must return exactly what two [`check_sufficiency`] calls return.

use gnt_cfg::{reversed_graph, IntervalGraph};
use gnt_core::{
    check_balance, check_sufficiency, check_sufficiency_pair, random_problem, random_program,
    sized_program, solve, FlavorSolution, GenConfig, PlacementProblem, Solution, SolverOptions,
};

/// The checkers before they went flat, verbatim.
mod reference {
    use gnt_cfg::{IntervalGraph, NodeId};
    use gnt_core::{FlavorSolution, PlacementProblem, Violation};
    use gnt_dataflow::{BitSet, Direction, GenKillProblem, Meet};

    /// Checks sufficiency (C3) of one flavor's placement by a forward
    /// must-availability dataflow over the concrete flow graph.
    ///
    /// Availability is generated by `RES_in`/`RES_out` and `GIVE_init` and
    /// killed by `STEAL_init`; each `TAKE_init(n)` must be covered at `n`
    /// (after `RES_in(n)` fires).
    /// `assume_one_trip` selects the paper's default worldview (§2): every
    /// reached loop executes at least one iteration, so availability at a
    /// loop exit is what survives the body, not the zero-trip bypass. Pass
    /// `false` to demand sufficiency on zero-trip paths too (the right
    /// setting for solutions computed with every loop header poisoned).
    pub fn check_sufficiency(
        graph: &IntervalGraph,
        problem: &PlacementProblem,
        placement: &FlavorSolution,
        assume_one_trip: bool,
    ) -> Vec<Violation> {
        use gnt_cfg::EdgeClass;
        let base_n = graph.num_nodes();
        let cap = problem.universe_size;

        // Per-node transfer: RES_in, then GIVE/TAKE/STEAL, then RES_out:
        // avail_out = ((avail_in ∪ res_in ∪ give) − steal) ∪ res_out.
        let mut gen: Vec<BitSet> = Vec::with_capacity(base_n);
        let mut kill: Vec<BitSet> = Vec::with_capacity(base_n);
        for i in 0..base_n {
            let mut g = placement.res_in[i].clone();
            g.union_with(&problem.give_init[i]);
            g.subtract_with(&problem.steal_init[i]);
            g.union_with(&placement.res_out[i]);
            gen.push(g);
            kill.push(problem.steal_init[i].clone());
        }

        // Concrete edges. Under the ≥1-trip view, a loop-exit edge h → x is
        // replaced by LASTCHILD(h) → pad → x, where the pad carries h's
        // RES_out (exit-side production); the zero-trip bypass disappears.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut extra_gen: Vec<BitSet> = Vec::new();
        for m in graph.nodes() {
            for (s, c) in graph.succ_edges(m) {
                if c == EdgeClass::Synthetic {
                    continue;
                }
                let is_loop_exit =
                    graph.is_loop_header(m) && matches!(c, EdgeClass::Forward | EdgeClass::Jump);
                if assume_one_trip && is_loop_exit {
                    if let Some(lc) = graph.last_child(m) {
                        let pad = base_n + extra_gen.len();
                        extra_gen.push(placement.res_out[m.index()].clone());
                        edges.push((lc.index(), pad));
                        edges.push((pad, s.index()));
                        continue;
                    }
                }
                edges.push((m.index(), s.index()));
            }
        }
        if assume_one_trip {
            // RES_out of headers now lives on the exit pads.
            for h in graph.nodes() {
                if graph.is_loop_header(h) && graph.last_child(h).is_some() {
                    gen[h.index()].subtract_with(&placement.res_out[h.index()]);
                }
            }
        }
        let n = base_n + extra_gen.len();
        gen.extend(extra_gen);
        kill.resize(n, BitSet::new(cap));
        let flow = gnt_dataflow::SimpleGraph::from_edges(
            n,
            &edges,
            graph.root().index(),
            graph.exit().index(),
        );

        let solution = GenKillProblem {
            direction: Direction::Forward,
            meet: Meet::Intersection,
            gen,
            kill,
            boundary: BitSet::new(cap),
        }
        .solve(&flow);

        let mut violations = Vec::new();
        for i in 0..base_n {
            let mut avail = solution.before[i].clone();
            avail.union_with(&placement.res_in[i]);
            for item in problem.take_init[i].iter() {
                if !avail.contains(item) {
                    violations.push(Violation::Insufficient {
                        node: NodeId(i as u32),
                        item,
                    });
                }
            }
        }
        violations
    }

    /// Checks balance (C1) between the EAGER and LAZY placements with a
    /// forward state dataflow over the concrete flow graph.
    ///
    /// Per item, an eager production moves the state Idle→Pending (Pending→
    /// conflict: double start) and a lazy production Pending→Idle (Idle→
    /// conflict: stop without start). Joins of differing states and a Pending
    /// state at the exit are violations. Eager and lazy productions at the
    /// same program point pair up (start immediately stopped).
    ///
    /// Placement is *edge-aware*: `RES_in` at a loop header executes only on
    /// entry from outside the loop (it is emitted textually before the `do`,
    /// so it is skipped on CYCLE edges), and `RES_out` applies only toward
    /// FORWARD/JUMP successors (Eq. 15 considers only those).
    pub fn check_balance(
        graph: &IntervalGraph,
        problem: &PlacementProblem,
        eager: &FlavorSolution,
        lazy: &FlavorSolution,
    ) -> Vec<Violation> {
        use gnt_cfg::EdgeClass;
        let n = graph.num_nodes();
        let cap = problem.universe_size;

        // Real control-flow edges with their classes.
        let edges: Vec<(usize, usize, EdgeClass)> = graph
            .nodes()
            .flat_map(|m| {
                graph
                    .succ_edges(m)
                    .filter(|(_, c)| *c != EdgeClass::Synthetic)
                    .map(move |(s, c)| (m.index(), s.index(), c))
                    .collect::<Vec<_>>()
            })
            .collect();
        let entry = graph.root().index();
        let exit = graph.exit().index();

        // Reverse postorder over the real edges: chaotic iteration in this
        // order converges in O(loop depth) passes instead of O(diameter),
        // which matters on reversed graphs whose edge lists run
        // anti-topologically.
        let rpo = {
            let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
            let mut edge_of: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (e, &(src, dst, _)) in edges.iter().enumerate() {
                succs[src].push(dst);
                edge_of[src].push(e);
            }
            let mut post = Vec::with_capacity(n);
            let mut seen = vec![false; n];
            // Iterative DFS (child cursor per frame).
            let mut stack: Vec<(usize, usize)> = vec![(entry, 0)];
            seen[entry] = true;
            while let Some(&mut (u, ref mut i)) = stack.last_mut() {
                if *i < succs[u].len() {
                    let v = succs[u][*i];
                    *i += 1;
                    if !seen[v] {
                        seen[v] = true;
                        stack.push((v, 0));
                    }
                } else {
                    post.push(u);
                    stack.pop();
                }
            }
            post.reverse();
            // Per-RPO-node out-edge ids, in source edge order.
            let order: Vec<usize> = post
                .iter()
                .flat_map(|&u| edge_of[u].iter().copied())
                .collect();
            order
        };

        // Word-parallel set semantics over all items at once: `idle[v]` /
        // `pend[v]` hold the items for which the Idle / Pending entry state
        // is reachable at `v`. "Conflict" is both bits at once; `Unknown` is
        // neither. One production collapses every reachable state to the
        // produced one, so conflicts wash out exactly as in the per-item
        // lattice.
        let mut idle: Vec<BitSet> = vec![BitSet::new(cap); n];
        let mut pend: Vec<BitSet> = vec![BitSet::new(cap); n];

        // Entry seeding: every item starts Idle, then the entry's own RES_in
        // fires (eager first, then lazy — a pair at one point cancels).
        let ei = &eager.res_in[entry];
        let li = &lazy.res_in[entry];
        // Items left Pending: eager fired and no lazy stop after it.
        pend[entry].copy_from(ei);
        pend[entry].subtract_with(li);
        idle[entry] = BitSet::full(cap);
        idle[entry].subtract_with(&pend[entry]);
        // Lazy stop while (exactly) Idle: lazy fired without an eager start.
        let mut entry_viol = li.clone();
        entry_viol.subtract_with(ei);

        let out_applies =
            |c: EdgeClass| matches!(c, EdgeClass::Forward | EdgeClass::Jump | EdgeClass::JumpIn);

        // Transfer of (di, dp) along one edge; optionally records production
        // misfires (start-while-pending / stop-while-idle, judged on the
        // *exact* pre-production state so joined conflicts stay silent, as in
        // the per-item lattice where `Conflict` probes neither branch).
        let mut di = BitSet::new(cap);
        let mut dp = BitSet::new(cap);
        let mut tmp = BitSet::new(cap);
        let apply = |di: &mut BitSet,
                     dp: &mut BitSet,
                     tmp: &mut BitSet,
                     eager_mask: &BitSet,
                     lazy_mask: &BitSet,
                     viol: Option<&mut BitSet>| {
            let mut viol = viol;
            if !eager_mask.is_empty() {
                if let Some(v) = viol.as_mut() {
                    // Double start: eager fires while exactly Pending.
                    tmp.copy_from(dp);
                    tmp.subtract_with(di);
                    tmp.intersect_with(eager_mask);
                    v.union_with(tmp);
                }
                // All reachable states collapse to Pending where eager fires.
                tmp.copy_from(di);
                tmp.union_with(dp);
                tmp.intersect_with(eager_mask);
                dp.union_with(tmp);
                di.subtract_with(eager_mask);
            }
            if !lazy_mask.is_empty() {
                if let Some(v) = viol.as_mut() {
                    // Stop without start: lazy fires while exactly Idle.
                    tmp.copy_from(di);
                    tmp.subtract_with(dp);
                    tmp.intersect_with(lazy_mask);
                    v.union_with(tmp);
                }
                tmp.copy_from(di);
                tmp.union_with(dp);
                tmp.intersect_with(lazy_mask);
                di.union_with(tmp);
                dp.subtract_with(lazy_mask);
            }
        };

        // Fixpoint: states only grow, so probing violations afterwards sees
        // every state any pass saw.
        let mut changed = true;
        while changed {
            changed = false;
            for &e in &rpo {
                let (src, dst, class) = edges[e];
                if idle[src].is_empty() && pend[src].is_empty() {
                    continue;
                }
                di.copy_from(&idle[src]);
                dp.copy_from(&pend[src]);
                if out_applies(class) {
                    apply(
                        &mut di,
                        &mut dp,
                        &mut tmp,
                        &eager.res_out[src],
                        &lazy.res_out[src],
                        None,
                    );
                }
                if class != EdgeClass::Cycle {
                    apply(
                        &mut di,
                        &mut dp,
                        &mut tmp,
                        &eager.res_in[dst],
                        &lazy.res_in[dst],
                        None,
                    );
                }
                changed |= idle[dst].union_with(&di);
                changed |= pend[dst].union_with(&dp);
            }
        }

        // Violation pass over the final states. `recorded[v]` dedups the
        // (node, item) pairs.
        let mut recorded: Vec<BitSet> = vec![BitSet::new(cap); n];
        recorded[entry].union_with(&entry_viol);
        for &(src, dst, class) in &edges {
            if idle[src].is_empty() && pend[src].is_empty() {
                continue;
            }
            di.copy_from(&idle[src]);
            dp.copy_from(&pend[src]);
            let mut viol = BitSet::new(cap);
            if out_applies(class) {
                apply(
                    &mut di,
                    &mut dp,
                    &mut tmp,
                    &eager.res_out[src],
                    &lazy.res_out[src],
                    Some(&mut viol),
                );
            }
            if class != EdgeClass::Cycle {
                apply(
                    &mut di,
                    &mut dp,
                    &mut tmp,
                    &eager.res_in[dst],
                    &lazy.res_in[dst],
                    Some(&mut viol),
                );
            }
            recorded[dst].union_with(&viol);
        }
        // Differing states met: both Idle and Pending reachable.
        for v in 0..n {
            tmp.copy_from(&idle[v]);
            tmp.intersect_with(&pend[v]);
            recorded[v].union_with(&tmp);
        }
        // Exactly Pending at the exit: a start was never stopped.
        tmp.copy_from(&pend[exit]);
        tmp.subtract_with(&idle[exit]);
        recorded[exit].union_with(&tmp);

        // Emit item-major (matching the historical per-item outer loop),
        // node-index order within an item.
        let mut violations = Vec::new();
        for item in 0..cap {
            for (v, rec) in recorded.iter().enumerate() {
                if rec.contains(item) {
                    violations.push(Violation::Unbalanced {
                        node: NodeId(v as u32),
                        item,
                    });
                }
            }
        }
        violations
    }
}

/// Stress multiplier from the environment (`GNT_STRESS`, default 1).
fn stress() -> u64 {
    std::env::var("GNT_STRESS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// A tiny deterministic generator for the bit flips.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 17) % bound.max(1) as u64) as usize
    }
}

/// Flips `flips` random `RES_in`/`RES_out` bits of `flavor`.
fn perturb(flavor: &mut FlavorSolution, rng: &mut Lcg, items: usize, flips: usize) {
    let nodes = flavor.res_in.len();
    for _ in 0..flips {
        let (node, item) = (rng.below(nodes), rng.below(items));
        let row = if rng.below(2) == 0 {
            &mut flavor.res_in[node]
        } else {
            &mut flavor.res_out[node]
        };
        if !row.insert(item) {
            row.remove(item);
        }
    }
}

/// How many compared cases reported violations, per checker.
#[derive(Default)]
struct Tally {
    cases: usize,
    insufficient: usize,
    unbalanced: usize,
}

/// Compares both checkers with their references on `solution`, in both
/// flavors and both worldviews.
fn compare(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    solution: &Solution,
    label: &str,
    tally: &mut Tally,
) {
    for (name, flavor) in [("eager", &solution.eager), ("lazy", &solution.lazy)] {
        for one_trip in [true, false] {
            let got = check_sufficiency(graph, problem, flavor, one_trip);
            let want = reference::check_sufficiency(graph, problem, flavor, one_trip);
            assert_eq!(
                got, want,
                "{label}: sufficiency, {name}, one-trip {one_trip}"
            );
            tally.insufficient += usize::from(!want.is_empty());
        }
    }
    let got = check_balance(graph, problem, &solution.eager, &solution.lazy);
    let want = reference::check_balance(graph, problem, &solution.eager, &solution.lazy);
    assert_eq!(got, want, "{label}: balance");
    tally.unbalanced += usize::from(!want.is_empty());
    tally.cases += 1;
}

/// The solver's solution of `problem` on `graph`, plus two copies with
/// flipped production bits (one in each flavor, then both).
fn compare_solved_and_perturbed(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    rng: &mut Lcg,
    label: &str,
    tally: &mut Tally,
) {
    let solution = solve(graph, problem, &SolverOptions::default());
    compare(graph, problem, &solution, label, tally);
    let items = problem.universe_size;
    let mut flipped = solution.clone();
    perturb(&mut flipped.eager, rng, items, 3);
    compare(
        graph,
        problem,
        &flipped,
        &format!("{label}, eager flipped"),
        tally,
    );
    perturb(&mut flipped.lazy, rng, items, 3);
    compare(
        graph,
        problem,
        &flipped,
        &format!("{label}, both flipped"),
        tally,
    );
}

/// Forward, reversed and poisoned-reversed graphs of `graph`, with
/// `problem` resized to each. On a reversed graph with jump-in sources
/// the unpoisoned solve is §5.3's optimistic attempt.
fn orientations(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
) -> Vec<(&'static str, IntervalGraph, PlacementProblem)> {
    let mut out = vec![("forward", graph.clone(), problem.clone())];
    if let Ok(reversed) = reversed_graph(graph) {
        let mut p = problem.clone();
        p.resize_nodes(reversed.num_nodes());
        let jump_entered: Vec<_> = reversed
            .nodes()
            .filter(|&h| !reversed.jump_in_sources(h).is_empty())
            .collect();
        if !jump_entered.is_empty() {
            let mut poisoned = reversed.clone();
            for h in jump_entered {
                poisoned.poison(h);
            }
            out.push(("poisoned", poisoned, p.clone()));
        }
        out.push(("reversed", reversed, p));
    }
    out
}

#[test]
fn flat_checkers_match_the_reference_on_random_programs() {
    let configs = [
        ("default", GenConfig::default()),
        (
            "goto 0.1",
            GenConfig {
                goto_prob: 0.1,
                ..GenConfig::default()
            },
        ),
    ];
    let mut tally = Tally::default();
    let mut rng = Lcg(0x0c1c3);
    for (name, config) in &configs {
        for seed in 0..60 * stress() {
            let Ok(graph) = IntervalGraph::from_program(&random_program(seed, config)) else {
                continue;
            };
            let items = [1usize, 7, 64, 65, 100, 130][(seed % 6) as usize];
            let problem = random_problem(seed ^ 0xc3, &graph, items, 0.25);
            for (orient, mut g, p) in orientations(&graph, &problem) {
                if seed % 3 == 0 {
                    g.poison_loop_headers();
                }
                let label = format!("{name}, seed {seed}, {orient}, {items} items");
                compare_solved_and_perturbed(&g, &p, &mut rng, &label, &mut tally);
            }
        }
    }
    assert!(tally.cases >= 600, "{} cases", tally.cases);
    assert!(
        tally.insufficient >= 50,
        "{} insufficient",
        tally.insufficient
    );
    assert!(tally.unbalanced >= 50, "{} unbalanced", tally.unbalanced);
}

#[test]
fn flat_checkers_match_the_reference_on_sized_programs() {
    let mut tally = Tally::default();
    let mut rng = Lcg(0x5123d);
    for size in [200usize, 800, 3000] {
        let graph = IntervalGraph::from_program(&sized_program(size)).unwrap();
        for items in [5usize, 90] {
            let problem = random_problem(size as u64 + items as u64, &graph, items, 0.05);
            for (orient, g, p) in orientations(&graph, &problem) {
                let label = format!("sized {size}, {orient}, {items} items");
                compare_solved_and_perturbed(&g, &p, &mut rng, &label, &mut tally);
            }
        }
    }
    assert!(tally.insufficient > 0 && tally.unbalanced > 0);
}

/// §5.3's optimistic WRITE solve on a `goto` out of a loop ahead of the
/// write fails the checks: the reference and the flat checkers must
/// report the same violations.
#[test]
fn flat_checkers_match_the_reference_on_failing_optimistic_solves() {
    let mut tally = Tally::default();
    let mut failing = 0;
    for (k, items) in [1usize, 66, 129].into_iter().enumerate() {
        let src: String = (0..4)
            .map(|j| {
                format!(
                    "do j{j} = 1, N\n  if t(j{j}) goto {l}\n  x{j}(a(j{j})) = ...\n  \
                     ... = y(a(j{j}))\nenddo\n{l} b{j} = 1\n",
                    l = 100 + j
                )
            })
            .collect();
        let graph = IntervalGraph::from_program(&gnt_ir::parse(&src).unwrap()).unwrap();
        let reversed = reversed_graph(&graph).unwrap();
        let mut problem = random_problem(k as u64, &graph, items, 0.3);
        problem.resize_nodes(reversed.num_nodes());
        let optimistic = solve(&reversed, &problem, &SolverOptions::default());
        let fails = !reference::check_sufficiency(&reversed, &problem, &optimistic.eager, true)
            .is_empty()
            || !reference::check_sufficiency(&reversed, &problem, &optimistic.lazy, true)
                .is_empty()
            || !reference::check_balance(&reversed, &problem, &optimistic.eager, &optimistic.lazy)
                .is_empty();
        failing += usize::from(fails);
        compare(
            &reversed,
            &problem,
            &optimistic,
            &format!("{items} items"),
            &mut tally,
        );
    }
    assert!(failing > 0, "no optimistic solve failed its checks");
}

/// A backward `goto` that never exits leaves nodes unreachable from
/// ROOT: the isolated exit of the forward graph, and on the reversed
/// graph the loop itself, whose ⊤ entries still meet into reachable
/// nodes.
#[test]
fn flat_checkers_match_the_reference_with_unreachable_nodes() {
    let programs = [
        "10 a = 1\n... = x(a(1))\ngoto 10\nb = x(a(2))\n",
        "do i = 1, N\n  10 a = x(a(i))\n  y(i) = 1\n  goto 10\nenddo\nb = x(a(3))\n",
        "if t then\n  20 c = x(a(1))\n  goto 20\nendif\nd = x(a(2))\ny(1) = 3\n",
    ];
    let mut tally = Tally::default();
    let mut rng = Lcg(0x1f100);
    for (k, src) in programs.iter().enumerate() {
        let graph = IntervalGraph::from_program(&gnt_ir::parse(src).unwrap()).unwrap();
        for seed in 0..24u64 {
            let items = [2usize, 70][(seed % 2) as usize];
            let problem = random_problem(seed, &graph, items, 0.5);
            for (orient, g, p) in orientations(&graph, &problem) {
                let label = format!("program {k}, seed {seed}, {orient}");
                compare_solved_and_perturbed(&g, &p, &mut rng, &label, &mut tally);
            }
        }
    }
    assert!(tally.insufficient > 0 && tally.unbalanced > 0);
}

/// The paired C3 fixpoint returns, flavor by flavor, exactly the
/// violations of two single-flavor [`check_sufficiency`] calls: on the
/// forward, reversed and poisoned-reversed graphs of random programs
/// (with `goto`s and deep loop nests), in both worldviews, on solver
/// placements and on ones with flipped bits in either flavor or in the
/// lazy `RES_out` of every loop header, over universes of 5, 64 and 97
/// items.
#[test]
fn paired_sufficiency_matches_two_single_checks() {
    let configs = [
        GenConfig {
            goto_prob: 0.2,
            ..GenConfig::default()
        },
        GenConfig {
            max_depth: 5,
            loop_prob: 0.6,
            if_prob: 0.2,
            ..GenConfig::default()
        },
    ];
    let mut rng = Lcg(0x9a1e5);
    let (mut cases, mut differing) = (0, 0);
    for config in &configs {
        for seed in 0..24 * stress() {
            let Ok(graph) = IntervalGraph::from_program(&random_program(seed, config)) else {
                continue;
            };
            for items in [5usize, 64, 97] {
                let problem = random_problem(seed * 3 + items as u64, &graph, items, 0.25);
                for (orient, g, p) in orientations(&graph, &problem) {
                    let mut solution = solve(&g, &p, &SolverOptions::default());
                    for flip in 0..4 {
                        match flip {
                            1 => perturb(&mut solution.eager, &mut rng, items, 3),
                            2 => perturb(&mut solution.lazy, &mut rng, items, 3),
                            // Loop headers' RES_out rides along their
                            // moved exits under the ≥1-trip view: make
                            // the flavors differ there.
                            3 => {
                                for h in g.nodes().filter(|&h| g.is_loop_header(h)) {
                                    let item = rng.below(items);
                                    let row = &mut solution.lazy.res_out[h.index()];
                                    if !row.insert(item) {
                                        row.remove(item);
                                    }
                                }
                            }
                            _ => {}
                        }
                        for one_trip in [true, false] {
                            let (eager, lazy) = (&solution.eager, &solution.lazy);
                            let want = [
                                check_sufficiency(&g, &p, eager, one_trip),
                                check_sufficiency(&g, &p, lazy, one_trip),
                            ];
                            let got = check_sufficiency_pair(&g, &p, eager, lazy, one_trip);
                            let label = format!(
                                "seed {seed}, {orient}, {items} items, flip {flip}, \
                                 one-trip {one_trip}"
                            );
                            assert_eq!(got, want, "{label}");
                            cases += 1;
                            differing += usize::from(want[0] != want[1]);
                        }
                    }
                }
            }
        }
    }
    assert!(cases >= 600, "{cases} cases");
    assert!(
        differing >= 50,
        "the flavors differ in only {differing} cases"
    );
}
