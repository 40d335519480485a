//! Independent verification of the correctness criteria (§3.2).
//!
//! These checkers do not trust the solver's variables: they run over the
//! *concrete* control flow (real CEFJ edges of the interval graph) and
//! validate a finished placement against the paper's criteria:
//!
//! * **C1 balance** — on every path, EAGER and LAZY production of an item
//!   alternate start/stop with no double-starts, double-stops, or
//!   dangling starts ([`check_balance`]);
//! * **C3 sufficiency** — every consumer is preceded by a production on
//!   every incoming path, with no destroyer in between
//!   ([`check_sufficiency`]);
//! * **C2 safety** and **O1 non-redundancy** — checked exactly on bounded
//!   path enumerations ([`enumerate_paths`], [`check_path`]), where safety
//!   is only required of paths that execute every reached loop at least
//!   once (zero-trip hoisting deliberately trades safety on zero-trip
//!   paths, §2).
//!
//! The dataflow-based checkers scale to large graphs; the path-based ones
//! are exhaustive on small graphs and drive the property-based tests.

use crate::problem::PlacementProblem;
use crate::solver::FlavorSolution;
use gnt_cfg::{CfgFlow, IntervalGraph, NodeId};
use gnt_dataflow::{BitSet, Direction, FlowGraph, GenKillProblem, Meet};

/// A violation found by a verifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A consumer was not covered by production on some path (C3).
    Insufficient {
        /// The consuming node.
        node: NodeId,
        /// The uncovered item.
        item: usize,
    },
    /// Eager/lazy productions do not alternate properly on some path (C1).
    Unbalanced {
        /// The node at which the mismatch is observable.
        node: NodeId,
        /// The offending item.
        item: usize,
    },
    /// Something was produced but never consumed on a ≥1-trip path (C2).
    Unsafe {
        /// The producing node.
        node: NodeId,
        /// The unconsumed item.
        item: usize,
    },
    /// An item was produced although it was already available (O1).
    Redundant {
        /// The re-producing node.
        node: NodeId,
        /// The re-produced item.
        item: usize,
    },
}

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
/// setting for solutions computed with
/// [`SolverOptions::no_zero_trip_hoist`](crate::SolverOptions)).
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

/// One execution path through the concrete flow graph, entry to exit.
pub type Path = Vec<NodeId>;

/// Enumerates execution paths from entry to exit, traversing each edge at
/// most `max_edge_visits` times per path and returning at most
/// `max_paths` paths. Exhaustive for small graphs and bounded loop
/// unrollings.
pub fn enumerate_paths(
    graph: &IntervalGraph,
    max_edge_visits: usize,
    max_paths: usize,
) -> Vec<Path> {
    enumerate_paths_capped(graph, max_edge_visits, max_paths).0
}

/// [`enumerate_paths`], also reporting whether `max_paths` cut the
/// enumeration short: the flag is `true` exactly when the bounded graph
/// has more than `max_paths` paths.
pub fn enumerate_paths_capped(
    graph: &IntervalGraph,
    max_edge_visits: usize,
    max_paths: usize,
) -> (Vec<Path>, bool) {
    let flow = CfgFlow::from_interval(graph);
    // One visit counter per distinct (node, successor) pair, laid out
    // flat: `slot[first[node] + k]` is the counter of `node`'s k-th
    // successor, shared by repeated successors.
    let mut first = Vec::with_capacity(flow.num_nodes());
    let mut slot = Vec::new();
    for node in 0..flow.num_nodes() {
        let base = slot.len();
        first.push(base);
        let succs = flow.succs(node);
        for (k, s) in succs.iter().enumerate() {
            let dup = succs[..k].iter().position(|t| t == s).unwrap_or(k);
            slot.push(base + dup);
        }
    }

    struct Search<'a> {
        flow: &'a CfgFlow,
        first: Vec<usize>,
        slot: Vec<usize>,
        visits: Vec<usize>,
        current: Vec<NodeId>,
        paths: Vec<Path>,
        max_edge_visits: usize,
        max_paths: usize,
        truncated: bool,
    }

    impl Search<'_> {
        fn dfs(&mut self, node: usize) {
            let flow = self.flow;
            if self.truncated {
                return;
            }
            if node == flow.exit() {
                if self.paths.len() < self.max_paths {
                    self.paths.push(self.current.clone());
                } else {
                    self.truncated = true;
                }
                return;
            }
            for (k, &s) in flow.succs(node).iter().enumerate() {
                let c = self.slot[self.first[node] + k];
                if self.visits[c] >= self.max_edge_visits {
                    continue;
                }
                self.visits[c] += 1;
                self.current.push(NodeId(s as u32));
                self.dfs(s);
                self.current.pop();
                self.visits[c] -= 1;
            }
        }
    }

    let mut search = Search {
        flow: &flow,
        visits: vec![0; slot.len()],
        first,
        slot,
        current: vec![NodeId(flow.entry() as u32)],
        paths: Vec::new(),
        max_edge_visits,
        max_paths,
        truncated: false,
    };
    search.dfs(flow.entry());
    (search.paths, search.truncated)
}

/// Checks one concrete path against all four criteria.
///
/// Placement is edge-aware exactly as in [`check_balance`]: a header's
/// `RES_in` fires only when the header is entered from outside its loop,
/// and `RES_out` fires only when leaving along a FORWARD/JUMP edge.
///
/// `strict` should be `false` for paths on which some reached loop
/// iterated zero times: zero-trip hoisting deliberately produces items
/// such paths never consume (safety) and relies on loop bodies to supply
/// items for downstream consumers (sufficiency). Use
/// [`path_has_zero_trip`] to decide. Balance is checked on every path
/// regardless.
///
/// The replay is word-parallel: one pass over the path advances every
/// item's state at once. Violations come out item-major, and in path
/// order within one item (at a single production: unbalanced, then
/// redundant, then unsafe). The per-item reference this must agree with
/// lives in `crates/core/tests/path_replay.rs`. To check many paths of
/// one placement, use a [`PathChecker`].
pub fn check_path(
    graph: &IntervalGraph,
    path: &Path,
    problem: &PlacementProblem,
    eager: &FlavorSolution,
    lazy: &FlavorSolution,
    strict: bool,
) -> Vec<Violation> {
    PathChecker::new(graph, problem, eager, lazy, strict).check(path)
}

/// [`check_path`] for many paths of one placement.
///
/// [`enumerate_paths`] yields paths depth-first, so each shares a long
/// prefix with the one before it. The checker keeps the replay state
/// reached at every node of the previous path and resumes the next path
/// where the two diverge: a sweep costs about the number of distinct
/// prefixes, not the sum of the path lengths. The saved state is a few
/// words per node of one path.
pub struct PathChecker<'a> {
    graph: &'a IntervalGraph,
    problem: &'a PlacementProblem,
    eager: &'a FlavorSolution,
    lazy: &'a FlavorSolution,
    strict: bool,
    /// Produced (lazy-complete) and not stolen since.
    avail: BitSet,
    /// Eager production started, lazy not yet.
    pending: BitSet,
    /// Consumed since the last eager production (initially all items).
    consumed: BitSet,
    last_producer: Vec<Option<NodeId>>,
    /// `(item, previous last_producer[item])` for every update, so a
    /// rewind can restore `last_producer`.
    undo: Vec<(usize, Option<NodeId>)>,
    scratch: BitSet,
    /// Violations of the current path so far, tagged with their item.
    found: Vec<(usize, Violation)>,
    /// The previous path.
    path: Vec<NodeId>,
    /// Per node `k` of `path`: `avail`, `pending` and `consumed` words
    /// right before node `k`'s `RES_out` slot, `3 * words` per node.
    saved_words: Vec<u64>,
    /// Per node `k` of `path`: `found` and `undo` lengths at that point.
    saved_lens: Vec<(usize, usize)>,
}

impl<'a> PathChecker<'a> {
    /// A checker of `eager`/`lazy` for `problem` over `graph`; `strict`
    /// as in [`check_path`], for every path it checks.
    pub fn new(
        graph: &'a IntervalGraph,
        problem: &'a PlacementProblem,
        eager: &'a FlavorSolution,
        lazy: &'a FlavorSolution,
        strict: bool,
    ) -> PathChecker<'a> {
        let cap = problem.universe_size;
        PathChecker {
            graph,
            problem,
            eager,
            lazy,
            strict,
            avail: BitSet::new(cap),
            pending: BitSet::new(cap),
            consumed: BitSet::full(cap),
            last_producer: vec![None; cap],
            undo: Vec::new(),
            scratch: BitSet::new(cap),
            found: Vec::new(),
            path: Vec::new(),
            saved_words: Vec::new(),
            saved_lens: Vec::new(),
        }
    }

    /// Checks `path`; the same result as [`check_path`].
    pub fn check(&mut self, path: &Path) -> Vec<Violation> {
        use gnt_cfg::EdgeClass;
        let Some(&last) = path.last() else {
            return Vec::new();
        };
        let shared = self
            .path
            .iter()
            .zip(path)
            .take_while(|(a, b)| a == b)
            .count();
        let (graph, eager, lazy) = (self.graph, self.eager, self.lazy);
        // Resume at the last shared node's RES_out slot (its firing
        // depends on the successor), or replay from the start.
        let start = match shared.checked_sub(1) {
            Some(k) => {
                self.rewind(k);
                k
            }
            None => {
                self.reset();
                0
            }
        };
        let mut in_class = None;
        for (idx, &node) in path.iter().enumerate().skip(start) {
            let i = node.index();
            if idx >= shared {
                // RES_in fires unless we re-entered a header via its
                // CYCLE edge.
                if in_class != Some(EdgeClass::Cycle) {
                    self.produce(node, &eager.res_in[i], &lazy.res_in[i]);
                }
                self.execute(node, i);
                self.save();
            }
            let out_class = path
                .get(idx + 1)
                .and_then(|&next| graph.edge_class(node, next));
            // RES_out fires toward FORWARD/JUMP successors only.
            if matches!(
                out_class,
                Some(EdgeClass::Forward | EdgeClass::Jump | EdgeClass::JumpIn)
            ) {
                self.produce(node, &eager.res_out[i], &lazy.res_out[i]);
            }
            in_class = out_class;
        }
        self.path.clear();
        self.path.extend_from_slice(path);
        self.finish(last)
    }

    /// Back to the state before the first node.
    fn reset(&mut self) {
        self.avail.clear();
        self.pending.clear();
        self.consumed = BitSet::full(self.consumed.capacity());
        self.last_producer.fill(None);
        self.undo.clear();
        self.found.clear();
        self.saved_words.clear();
        self.saved_lens.clear();
    }

    /// Records the state right before the `RES_out` slot of the node
    /// just executed.
    fn save(&mut self) {
        for set in [&self.avail, &self.pending, &self.consumed] {
            self.saved_words.extend_from_slice(set.words());
        }
        self.saved_lens.push((self.found.len(), self.undo.len()));
    }

    /// Back to the state saved at node `k` of the previous path.
    fn rewind(&mut self, k: usize) {
        let words = self.avail.words().len();
        let base = 3 * words * k;
        let saved = &self.saved_words[base..base + 3 * words];
        self.avail.words_mut().copy_from_slice(&saved[..words]);
        self.pending
            .words_mut()
            .copy_from_slice(&saved[words..2 * words]);
        self.consumed
            .words_mut()
            .copy_from_slice(&saved[2 * words..]);
        let (found, undo) = self.saved_lens[k];
        self.found.truncate(found);
        for (item, previous) in self.undo.drain(undo..).rev() {
            self.last_producer[item] = previous;
        }
        self.saved_words.truncate(base + 3 * words);
        self.saved_lens.truncate(k + 1);
    }

    /// Tags every item of `scratch` with `violation(item)`.
    fn report(&mut self, violation: impl Fn(usize) -> Violation) {
        for item in self.scratch.iter() {
            self.found.push((item, violation(item)));
        }
    }

    /// Reports every item of `scratch` as unsafe, charged to its last
    /// producer (or to `node` if it has none).
    fn report_unsafe(&mut self, node: NodeId) {
        for item in self.scratch.iter() {
            let node = self.last_producer[item].unwrap_or(node);
            self.found.push((item, Violation::Unsafe { node, item }));
        }
    }

    /// One production slot: the eager starts of `eager`, then the lazy
    /// stops of `lazy`.
    fn produce(&mut self, node: NodeId, eager: &BitSet, lazy: &BitSet) {
        if !eager.is_empty() {
            self.scratch.copy_from(eager);
            self.scratch.intersect_with(&self.pending);
            self.report(|item| Violation::Unbalanced { node, item });
            self.scratch.copy_from(eager);
            self.scratch.intersect_with(&self.avail);
            self.report(|item| Violation::Redundant { node, item });
            if self.strict {
                self.scratch.copy_from(eager);
                self.scratch.subtract_with(&self.consumed);
                self.report_unsafe(node);
            }
            self.pending.union_with(eager);
            self.consumed.subtract_with(eager);
            for item in eager.iter() {
                let previous = self.last_producer[item].replace(node);
                self.undo.push((item, previous));
            }
        }
        if !lazy.is_empty() {
            self.scratch.copy_from(lazy);
            self.scratch.subtract_with(&self.pending);
            self.report(|item| Violation::Unbalanced { node, item });
            self.pending.subtract_with(lazy);
            self.avail.union_with(lazy);
        }
    }

    /// Node `i`'s own effects: TAKE, then GIVE, then STEAL.
    fn execute(&mut self, node: NodeId, i: usize) {
        let take = &self.problem.take_init[i];
        let give = &self.problem.give_init[i];
        if !take.is_empty() {
            if self.strict {
                self.scratch.copy_from(take);
                self.scratch.subtract_with(&self.avail);
                self.scratch.subtract_with(give);
                self.report(|item| Violation::Insufficient { node, item });
            }
            self.consumed.union_with(take);
        }
        self.avail.union_with(give);
        self.avail.subtract_with(&self.problem.steal_init[i]);
    }

    /// The path's violations, item-major: those found along it, then
    /// the dangling starts at its end `last` and (strict) the items
    /// produced but not consumed since.
    fn finish(&mut self, last: NodeId) -> Vec<Violation> {
        let along = self.found.len();
        self.scratch.copy_from(&self.pending);
        self.report(|item| Violation::Unbalanced { node: last, item });
        if self.strict {
            self.scratch = BitSet::full(self.consumed.capacity());
            self.scratch.subtract_with(&self.consumed);
            self.report_unsafe(last);
        }
        let mut tagged = self.found.clone();
        self.found.truncate(along);
        // Stable: path order survives within each item.
        tagged.sort_by_key(|&(item, _)| item);
        tagged.into_iter().map(|(_, v)| v).collect()
    }
}

/// `true` if `path` reaches some loop header but exits it without ever
/// entering the loop body (a zero-trip execution of that loop).
pub fn path_has_zero_trip(graph: &IntervalGraph, path: &Path) -> bool {
    for i in 1..path.len() {
        let n = path[i - 1];
        let next = path[i];
        if graph.is_loop_header(n) && !graph.enclosing_headers(next).contains(&n) {
            // The header was left without entering the body. If it was
            // also *entered* from outside right before (rather than via
            // the back edge), no iteration ran: a zero trip.
            let from_inside = i >= 2 && graph.enclosing_headers(path[i - 2]).contains(&n);
            if !from_inside {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SolverOptions;
    use crate::solver::solve;
    use gnt_cfg::NodeKind;
    use gnt_ir::parse;

    fn graph(src: &str) -> IntervalGraph {
        IntervalGraph::from_program(&parse(src).unwrap()).unwrap()
    }

    fn stmt_nodes(g: &IntervalGraph) -> Vec<NodeId> {
        g.nodes()
            .filter(|&n| matches!(g.kind(n), NodeKind::Stmt(_)))
            .collect()
    }

    #[test]
    fn solver_output_is_sufficient_and_balanced_on_figure_1_shape() {
        let g = graph(
            "do i = 1, N\n  y(i) = ...\nenddo\n\
             if test then\n  do k = 1, N\n    ... = x(a(k))\n  enddo\n\
             else\n  do l = 1, N\n    ... = x(a(l))\n  enddo\nendif",
        );
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        for n in g.nodes() {
            if g.level(n) == 2 && matches!(g.kind(n), NodeKind::Stmt(_)) {
                // loop bodies; y(i) producer body also gets level 2 but
                // taking x there too only strengthens the test
                problem.take(n, 0);
            }
        }
        let sol = solve(&g, &problem, &SolverOptions::default());
        assert!(check_sufficiency(&g, &problem, &sol.eager, true).is_empty());
        assert!(check_sufficiency(&g, &problem, &sol.lazy, true).is_empty());
        assert!(check_balance(&g, &problem, &sol.eager, &sol.lazy).is_empty());
    }

    #[test]
    fn missing_production_is_flagged_insufficient() {
        let g = graph("a = 1\n... = x(1)");
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        let consumer = stmt_nodes(&g)[1];
        problem.take(consumer, 0);
        // An empty placement is insufficient.
        let empty = crate::solver::FlavorSolution {
            given_in: vec![BitSet::new(1); g.num_nodes()],
            given: vec![BitSet::new(1); g.num_nodes()],
            given_out: vec![BitSet::new(1); g.num_nodes()],
            res_in: vec![BitSet::new(1); g.num_nodes()],
            res_out: vec![BitSet::new(1); g.num_nodes()],
        };
        let v = check_sufficiency(&g, &problem, &empty, true);
        assert_eq!(
            v,
            vec![Violation::Insufficient {
                node: consumer,
                item: 0
            }]
        );
    }

    #[test]
    fn unbalanced_double_send_is_flagged() {
        // Figure 4's shape: eager production at two consecutive nodes with
        // a single lazy stop.
        let g = graph("a = 1\nb = 2\n... = x(1)");
        let nodes = stmt_nodes(&g);
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        problem.take(nodes[2], 0);
        let mk = |res_in_nodes: &[NodeId]| {
            let mut f = crate::solver::FlavorSolution {
                given_in: vec![BitSet::new(1); g.num_nodes()],
                given: vec![BitSet::new(1); g.num_nodes()],
                given_out: vec![BitSet::new(1); g.num_nodes()],
                res_in: vec![BitSet::new(1); g.num_nodes()],
                res_out: vec![BitSet::new(1); g.num_nodes()],
            };
            for &n in res_in_nodes {
                f.res_in[n.index()].insert(0);
            }
            f
        };
        let eager = mk(&[nodes[0], nodes[1]]); // double start
        let lazy = mk(&[nodes[2]]);
        let v = check_balance(&g, &problem, &eager, &lazy);
        assert!(!v.is_empty());
        // The solver's own output is balanced.
        let sol = solve(&g, &problem, &SolverOptions::default());
        assert!(check_balance(&g, &problem, &sol.eager, &sol.lazy).is_empty());
    }

    #[test]
    fn path_enumeration_covers_branches_and_loops() {
        let g = graph("if t then\n  a = 1\nelse\n  b = 2\nendif");
        let paths = enumerate_paths(&g, 1, 100);
        assert_eq!(paths.len(), 2);
        let g2 = graph("do i = 1, N\n  a = 1\nenddo");
        let paths2 = enumerate_paths(&g2, 2, 100);
        // zero-trip, one-trip, two-trip
        assert_eq!(paths2.len(), 3);
    }

    #[test]
    fn zero_trip_paths_are_recognized() {
        let g = graph("do i = 1, N\n  a = 1\nenddo");
        let paths = enumerate_paths(&g, 2, 100);
        let zero_trips = paths.iter().filter(|p| path_has_zero_trip(&g, p)).count();
        assert_eq!(zero_trips, 1);
    }

    #[test]
    fn check_path_accepts_solver_output_on_all_paths() {
        let g =
            graph("do i = 1, N\n  ... = x(a(i))\nenddo\nif t then\n  z = 0\nendif\n... = x(a(1))");
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        for n in stmt_nodes(&g) {
            problem.take(n, 0);
        }
        let sol = solve(&g, &problem, &SolverOptions::default());
        for path in enumerate_paths(&g, 2, 500) {
            let strict = !path_has_zero_trip(&g, &path);
            let v = check_path(&g, &path, &problem, &sol.eager, &sol.lazy, strict);
            assert!(v.is_empty(), "{v:?} on {path:?}\n{}", g.dump());
        }
    }

    #[test]
    fn redundant_production_is_flagged_on_paths() {
        let g = graph("a = 1\nb = 2\n... = x(1)");
        let nodes = stmt_nodes(&g);
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        problem.take(nodes[2], 0);
        // Place eager+lazy at node 0 AND again at node 1: second is
        // redundant.
        let mut eager = solve(&g, &problem, &SolverOptions::default()).eager;
        let mut lazy = solve(&g, &problem, &SolverOptions::default()).lazy;
        eager.res_in[nodes[0].index()].insert(0);
        lazy.res_in[nodes[0].index()].insert(0);
        eager.res_in[nodes[1].index()].insert(0);
        lazy.res_in[nodes[1].index()].insert(0);
        let paths = enumerate_paths(&g, 1, 10);
        let v = check_path(&g, &paths[0], &problem, &eager, &lazy, true);
        assert!(v.iter().any(|x| matches!(x, Violation::Redundant { .. })));
    }
}
