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
//! The former GenKill-based C1/C3 checkers live on as oracles in
//! `tests/verify_reference.rs`.

use crate::problem::PlacementProblem;
use crate::solver::FlavorSolution;
use gnt_cfg::{IntervalGraph, NodeId};
use gnt_dataflow::BitSet;

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

/// One flavor's production rows, `RES_in` and `RES_out`, as word slices
/// by node index: an exported [`FlavorSolution`], or the rows a
/// [`crate::SolverScratch`] still holds, which the §5.3 optimistic check
/// reads in place ([`crate::solve_after_into`]).
pub(crate) trait ProductionRows {
    /// `RES_in(i)`'s words.
    fn res_in(&self, i: usize) -> &[u64];
    /// `RES_out(i)`'s words.
    fn res_out(&self, i: usize) -> &[u64];
}

impl ProductionRows for FlavorSolution {
    fn res_in(&self, i: usize) -> &[u64] {
        self.res_in[i].words()
    }

    fn res_out(&self, i: usize) -> &[u64] {
        self.res_out[i].words()
    }
}

/// Per-node bit rows over one universe, laid out flat: row `v` is
/// `words[v * stride..(v + 1) * stride]`.
struct Rows {
    stride: usize,
    words: Vec<u64>,
}

impl Rows {
    fn new(rows: usize, stride: usize) -> Rows {
        Rows {
            stride,
            words: vec![0; rows * stride],
        }
    }

    fn row(&self, v: usize) -> &[u64] {
        &self.words[v * self.stride..(v + 1) * self.stride]
    }

    fn row_mut(&mut self, v: usize) -> &mut [u64] {
        &mut self.words[v * self.stride..(v + 1) * self.stride]
    }
}

/// The mask of the valid bits of word `k` of a `cap`-bit row.
fn word_mask(cap: usize, k: usize) -> u64 {
    let bits = cap - 64 * k;
    if bits >= 64 {
        !0
    } else {
        (1u64 << bits) - 1
    }
}

/// Meets `along` into `row`; whether `row` moved.
fn meet_into(row: &mut [u64], along: &[u64]) -> bool {
    let mut moved = false;
    for (w, &a) in row.iter_mut().zip(along) {
        let met = *w & a;
        moved |= met != *w;
        *w = met;
    }
    moved
}

/// The sweep order of the checkers' fixpoints: the nodes reachable from
/// `entry` in reverse postorder of a depth-first search, then the others
/// in id order. `succs(u, out)` appends `u`'s successors to `out`.
fn sweep_order(n: usize, entry: usize, succs: impl Fn(usize, &mut Vec<usize>)) -> Vec<usize> {
    let mut post = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut next = Vec::new();
    // `(u, true)` finishes `u` once everything it discovered has.
    let mut stack = vec![(entry, false)];
    while let Some((u, finish)) = stack.pop() {
        if finish {
            post.push(u);
        } else if !std::mem::replace(&mut seen[u], true) {
            stack.push((u, true));
            next.clear();
            succs(u, &mut next);
            stack.extend(next.iter().filter(|&&v| !seen[v]).map(|&v| (v, false)));
        }
    }
    post.reverse();
    post.extend((0..n).filter(|&v| !seen[v]));
    post
}

/// Calls `f(v, carried)` for each successor `v` of `u` in the flow
/// [`sufficiency`] checks: `u`'s out-edges but the synthetic ones, where
/// a header whose exits moved (`moved[h]`, the ≥1-trip view) has its
/// FORWARD/JUMP exits leave from its LASTCHILD instead, with `carried`
/// the header, whose RES_out rides along.
fn flow_succs(
    graph: &IntervalGraph,
    moved: &[bool],
    u: usize,
    mut f: impl FnMut(usize, Option<usize>),
) {
    use gnt_cfg::EdgeClass;
    let is_exit = |c: EdgeClass| matches!(c, EdgeClass::Forward | EdgeClass::Jump);
    for (s, c) in graph.succ_edges(NodeId(u as u32)) {
        if c == EdgeClass::Synthetic || (moved[u] && is_exit(c)) {
            continue;
        }
        f(s.index(), None);
        if c == EdgeClass::Cycle && moved[s.index()] {
            for (x, _) in graph.succ_edges(s).filter(|&(_, c)| is_exit(c)) {
                f(x.index(), Some(s.index()));
            }
        }
    }
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
/// setting for solutions computed with every loop header poisoned,
/// [`IntervalGraph::poison_loop_headers`]).
///
/// The dataflow runs over flat word rows and the graph's own edge
/// lists, swept in reverse postorder to its greatest fixpoint; it
/// shares no code with the solver. Violations come out node by node,
/// items ascending. [`check_sufficiency_pair`] checks both flavors of a
/// placement in one fixpoint.
pub fn check_sufficiency(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    placement: &FlavorSolution,
    assume_one_trip: bool,
) -> Vec<Violation> {
    let [found] = sufficiency([placement], graph, problem, assume_one_trip);
    found
}

/// [`check_sufficiency`] of `eager` and of `lazy`, in that order, in one
/// fixpoint: the two flavors' rows sit side by side, so the graph is
/// walked, and its sweep order built, once for both. Each list equals
/// what [`check_sufficiency`] returns for its flavor.
pub fn check_sufficiency_pair(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    eager: &FlavorSolution,
    lazy: &FlavorSolution,
    assume_one_trip: bool,
) -> [Vec<Violation>; 2] {
    sufficiency([eager, lazy], graph, problem, assume_one_trip)
}

/// [`check_sufficiency`] of each of the `F` placements in one fixpoint
/// over any [`ProductionRows`]: a row holds the `F` flavors' words side
/// by side, and a node is revisited when any of them moved. The
/// fixpoint of each flavor is unique, so sharing the sweep changes none
/// of them.
pub(crate) fn sufficiency<P: ProductionRows, const F: usize>(
    placements: [&P; F],
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    assume_one_trip: bool,
) -> [Vec<Violation>; F] {
    let n = graph.num_nodes();
    let cap = problem.universe_size;
    let words = cap.div_ceil(64);
    let width = F * words;
    let word = |set: &BitSet, k: usize| set.words()[k];

    // Under the ≥1-trip view a loop header's exits leave from its
    // LASTCHILD ([`flow_succs`]); the zero-trip bypass disappears.
    let moved: Vec<bool> = graph
        .nodes()
        .map(|h| assume_one_trip && graph.is_loop_header(h) && graph.last_child(h).is_some())
        .collect();

    // Per-node transfer: RES_in, then GIVE/TAKE/STEAL, then RES_out:
    // avail_out = ((avail_in ∪ res_in ∪ give) − steal) ∪ res_out. Where a
    // header's exits moved, its RES_out moved with them. Flavor `f`
    // holds words `f * words..(f + 1) * words` of each row; the kill row
    // (STEAL) is the flavors' common one.
    let mut gen = Rows::new(n, width);
    let mut kill = Rows::new(n, words);
    for (i, &exits_moved) in moved.iter().enumerate() {
        let (give, steal) = (&problem.give_init[i], &problem.steal_init[i]);
        for (f, placement) in placements.iter().enumerate() {
            let (res_in, res_out) = (placement.res_in(i), placement.res_out(i));
            for k in 0..words {
                let mut g = ((res_in[k] | word(give, k)) & !word(steal, k)) | res_out[k];
                if exits_moved {
                    g &= !res_out[k];
                }
                gen.row_mut(i)[f * words + k] = g;
            }
        }
        for (k, w) in kill.row_mut(i).iter_mut().enumerate() {
            *w = word(steal, k);
        }
    }

    // Greatest fixpoint: every entry starts at ⊤ but the boundary (∅ at
    // the entry); a node pushes `gen ∪ (in − kill)` into its successors'
    // entries by intersection, which equals the meet over predecessors
    // once nothing changes. Reachable nodes sweep in reverse postorder,
    // the rest (still ⊤-seeded predecessors) after them; a node pushes
    // again only after its own entry changed.
    let entry = graph.root().index();
    let mut avail_in = Rows::new(n, width);
    for v in 0..n {
        if v != entry {
            for flavor in avail_in.row_mut(v).chunks_mut(words.max(1)) {
                for (k, w) in flavor.iter_mut().enumerate() {
                    *w = word_mask(cap, k);
                }
            }
        }
    }
    let mut dirty = vec![true; n];
    let (mut out, mut padded) = (vec![0u64; width], vec![0u64; width]);
    let mut changed = true;
    let order = sweep_order(n, entry, |u, out| {
        flow_succs(graph, &moved, u, |v, _| out.push(v))
    });
    while changed {
        changed = false;
        for &u in &order {
            if !std::mem::take(&mut dirty[u]) {
                continue;
            }
            let (g, kl, a) = (gen.row(u), kill.row(u), avail_in.row(u));
            for f in 0..F {
                for (k, &steal) in kl.iter().enumerate() {
                    let j = f * words + k;
                    out[j] = g[j] | (a[j] & !steal);
                }
            }
            flow_succs(graph, &moved, u, |v, carried| {
                let along = match carried {
                    None => &out,
                    Some(h) => {
                        let flavors = padded
                            .chunks_mut(words.max(1))
                            .zip(out.chunks(words.max(1)));
                        for ((p, o), placement) in flavors.zip(placements) {
                            for ((p, &o), &r) in p.iter_mut().zip(o).zip(placement.res_out(h)) {
                                *p = o | r;
                            }
                        }
                        &padded
                    }
                };
                if v != entry && meet_into(avail_in.row_mut(v), along) {
                    dirty[v] = true;
                    changed = true;
                }
            });
        }
    }

    std::array::from_fn(|f| {
        let mut violations = Vec::new();
        for i in 0..n {
            let (take, res_in) = (&problem.take_init[i], placements[f].res_in(i));
            let a = &avail_in.row(i)[f * words..(f + 1) * words];
            for (k, &avail) in a.iter().enumerate() {
                let mut missed = word(take, k) & !(avail | res_in[k]);
                while missed != 0 {
                    let bit = missed.trailing_zeros() as usize;
                    missed &= missed - 1;
                    violations.push(Violation::Insufficient {
                        node: NodeId(i as u32),
                        item: 64 * k + bit,
                    });
                }
            }
        }
        violations
    })
}

/// One production slot on the per-word state of [`check_balance`]: the
/// eager starts `e`, then the lazy stops `l`, applied to the items'
/// reachable Idle (`di`) and Pending (`dp`) states. Returns the misfires,
/// judged on the *exact* pre-production state so joined conflicts stay
/// silent, as in the per-item lattice where `Conflict` probes neither
/// branch: a start while exactly Pending, a stop while exactly Idle.
fn produce(di: &mut u64, dp: &mut u64, e: u64, l: u64) -> u64 {
    let mut misfire = *dp & !*di & e;
    // All reachable states collapse to Pending where eager fires.
    *dp |= (*di | *dp) & e;
    *di &= !e;
    misfire |= *di & !*dp & l;
    *di |= (*di | *dp) & l;
    *dp &= !l;
    misfire
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
///
/// Like [`check_sufficiency`], it sweeps flat word rows over the graph's
/// edge lists in reverse postorder, and shares no code with the solver.
/// Violations come out item by item, nodes ascending.
pub fn check_balance(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    eager: &FlavorSolution,
    lazy: &FlavorSolution,
) -> Vec<Violation> {
    balance(graph, problem, eager, lazy)
}

/// [`check_balance`] over any [`ProductionRows`].
pub(crate) fn balance<P: ProductionRows>(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    eager: &P,
    lazy: &P,
) -> Vec<Violation> {
    use gnt_cfg::EdgeClass;
    let n = graph.num_nodes();
    let cap = problem.universe_size;
    let words = cap.div_ceil(64);

    // Real control-flow edges with their classes: the graph's own, but
    // the synthetic ones.
    let out_edges = |u: usize| {
        graph
            .succ_edges(NodeId(u as u32))
            .filter(|(_, c)| *c != EdgeClass::Synthetic)
            .map(|(v, c)| (v.index(), c))
    };
    let entry = graph.root().index();
    let exit = graph.exit().index();

    // Word-parallel set semantics over all items at once: `idle[v]` /
    // `pend[v]` hold the items for which the Idle / Pending entry state
    // is reachable at `v`. "Conflict" is both bits at once; `Unknown` is
    // neither. One production collapses every reachable state to the
    // produced one, so conflicts wash out exactly as in the per-item
    // lattice.
    let mut idle = Rows::new(n, words);
    let mut pend = Rows::new(n, words);
    // `recorded[v]`: the (node, item) violations found, deduplicated.
    let mut recorded = Rows::new(n, words);

    // Entry seeding: every item starts Idle, then the entry's own RES_in
    // fires (eager first, then lazy — a pair at one point cancels); a
    // lazy stop without an eager start there misfires.
    for k in 0..words {
        let (mut di, mut dp) = (word_mask(cap, k), 0);
        let (e, l) = (eager.res_in(entry)[k], lazy.res_in(entry)[k]);
        recorded.row_mut(entry)[k] = produce(&mut di, &mut dp, e, l);
        idle.row_mut(entry)[k] = di;
        pend.row_mut(entry)[k] = dp;
    }

    let out_applies =
        |c: EdgeClass| matches!(c, EdgeClass::Forward | EdgeClass::Jump | EdgeClass::JumpIn);
    // The state along edge `src → dst` (word `k`), and the misfires of
    // its production slots: `src`'s RES_out, then `dst`'s RES_in.
    let transfer = |di: &mut u64, dp: &mut u64, src: usize, dst: usize, class, k| {
        let mut misfire = 0;
        if out_applies(class) {
            let (e, l) = (eager.res_out(src)[k], lazy.res_out(src)[k]);
            misfire |= produce(di, dp, e, l);
        }
        if class != EdgeClass::Cycle {
            let (e, l) = (eager.res_in(dst)[k], lazy.res_in(dst)[k]);
            misfire |= produce(di, dp, e, l);
        }
        misfire
    };

    // Least fixpoint, swept in reverse postorder (O(loop depth) sweeps,
    // also on reversed graphs whose edge lists run anti-topologically):
    // states only grow, so a node pushes again only after its own state
    // grew, and probing violations afterwards sees every state any sweep
    // saw. Only reachable nodes ever push.
    let order = sweep_order(n, entry, |u, next| {
        next.extend(out_edges(u).map(|(v, _)| v))
    });
    let mut dirty = vec![false; n];
    dirty[entry] = true;
    let mut changed = true;
    while changed {
        changed = false;
        for &u in &order {
            if !std::mem::take(&mut dirty[u]) {
                continue;
            }
            for (v, class) in out_edges(u) {
                let mut grew = false;
                for k in 0..words {
                    let (mut di, mut dp) = (idle.row(u)[k], pend.row(u)[k]);
                    transfer(&mut di, &mut dp, u, v, class, k);
                    let (iv, pv) = (idle.row(v)[k], pend.row(v)[k]);
                    grew |= (di & !iv) | (dp & !pv) != 0;
                    idle.row_mut(v)[k] = iv | di;
                    pend.row_mut(v)[k] = pv | dp;
                }
                if grew {
                    dirty[v] = true;
                    changed = true;
                }
            }
        }
    }

    // Violation pass over the final states: production misfires along
    // every edge, differing states met (both Idle and Pending reachable),
    // and items exactly Pending at the exit (a start never stopped).
    for u in 0..n {
        for (v, class) in out_edges(u) {
            for k in 0..words {
                let (mut di, mut dp) = (idle.row(u)[k], pend.row(u)[k]);
                recorded.row_mut(v)[k] |= transfer(&mut di, &mut dp, u, v, class, k);
            }
        }
    }
    for v in 0..n {
        for k in 0..words {
            let met = idle.row(v)[k] & pend.row(v)[k];
            let dangling = if v == exit {
                pend.row(v)[k] & !idle.row(v)[k]
            } else {
                0
            };
            recorded.row_mut(v)[k] |= met | dangling;
        }
    }

    // Emit item-major (matching the historical per-item outer loop),
    // node-index order within an item.
    let mut found: Vec<(usize, usize)> = Vec::new();
    for v in 0..n {
        for (k, &w) in recorded.row(v).iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                found.push((64 * k + bits.trailing_zeros() as usize, v));
                bits &= bits - 1;
            }
        }
    }
    found.sort_unstable();
    found
        .into_iter()
        .map(|(item, v)| Violation::Unbalanced {
            node: NodeId(v as u32),
            item,
        })
        .collect()
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
    let mut paths = Vec::new();
    for_each_path(graph, max_edge_visits, max_paths, |path| {
        paths.push(path.clone());
    });
    paths
}

/// Calls `visit` on every path [`enumerate_paths`] returns, in the same
/// order, without keeping them: the path handed over is the search's own
/// stack, valid for the call. Returns whether `max_paths` cut the
/// enumeration short: `true` exactly when the bounded graph has more
/// than `max_paths` paths.
pub fn for_each_path(
    graph: &IntervalGraph,
    max_edge_visits: usize,
    max_paths: usize,
    mut visit: impl FnMut(&Path),
) -> bool {
    // One visit counter per real edge, by edge id (a CFG has no
    // parallel edges, so each counts one (node, successor) pair).
    struct Search<'a> {
        graph: &'a IntervalGraph,
        visits: Vec<usize>,
        current: Vec<NodeId>,
        visit: &'a mut dyn FnMut(&Path),
        found: usize,
        max_edge_visits: usize,
        max_paths: usize,
        truncated: bool,
    }

    impl Search<'_> {
        fn dfs(&mut self, node: NodeId) {
            let graph = self.graph;
            if self.truncated {
                return;
            }
            if node == graph.exit() {
                if self.found < self.max_paths {
                    self.found += 1;
                    (self.visit)(&self.current);
                } else {
                    self.truncated = true;
                }
                return;
            }
            for e in graph.succ_edge_ids(node) {
                let (s, c) = graph.edge(e);
                if !graph.is_real(s, c) || self.visits[e] >= self.max_edge_visits {
                    continue;
                }
                self.visits[e] += 1;
                self.current.push(s);
                self.dfs(s);
                self.current.pop();
                self.visits[e] -= 1;
            }
        }
    }

    let mut search = Search {
        graph,
        visits: vec![0; graph.num_edges()],
        current: vec![graph.root()],
        visit: &mut visit,
        found: 0,
        max_edge_visits,
        max_paths,
        truncated: false,
    };
    search.dfs(graph.root());
    search.truncated
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
