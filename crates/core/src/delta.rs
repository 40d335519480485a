//! Incremental re-solve: re-walking only the steps of the Figure-15
//! schedule downstream of an edit.
//!
//! The pressure-limit loop (and with it plan generation under an
//! in-flight bound) re-solves the Figure-13 system after *small* edits
//! to the initial variables — one inserted `STEAL_init`, one changed
//! reference — yet a full solve evaluates every equation at every node
//! again. The schedule is a straight-line elimination (each equation
//! evaluated once per node, §5.2), so it admits a change-driven
//! formulation: only the schedule steps downstream of a mutated input row
//! can produce different bits.
//!
//! # How it works
//!
//! The schedule is a sequence of steps, each one group of equations at
//! one node (Eqs. 9–10 at a header's child, Eqs. 1–8, and per flavor
//! Eqs. 11–13 and 14–15). Each step starts every row it writes with a
//! full overwrite and reads only rows of earlier steps, so re-running one
//! step over the rows of a finished walk recomputes its outputs exactly.
//! [`solve_delta`] queues the step that loads each row named in the
//! caller's [`DeltaSet`] and pops steps in schedule order from a min-heap.
//! Each popped step re-runs on the direct backend; for each output row
//! that changed, it queues the steps that read the row, found from the
//! graph's edge classes (the reader rule of `solver.rs`). A step that
//! reproduces its rows queues nothing, so the propagation dies out as
//! soon as the fixpoint re-stabilises. Readers that run earlier than the
//! writer are never queued: those are exactly the reads the walk folds
//! out because it has not written the row yet. The result is
//! bit-identical to a full solve (the delta differential suite locks this
//! on hundreds of random programs, and a reader-rule oracle checks every
//! read of a full walk against the rule).
//!
//! # When the engine declines
//!
//! [`solve_delta`] walks the whole schedule instead, reported via
//! [`DeltaReport::full_replay`], when the scratch does not hold a prior
//! full solve of the same graph at the same universe width: a cold
//! scratch, a full solve of another fingerprint in between, a changed
//! universe width, or a changed graph (a CFG edit, a poisoned header).
//! Every full solve lays this basis
//! ([`IntervalGraph::fingerprint`](gnt_cfg::IntervalGraph::fingerprint)),
//! and a re-walk keeps it.
//!
//! The caller's contract is the usual incremental one: between the solve
//! that established the scratch state and this call, `problem` may
//! differ **only** in the rows named by the [`DeltaSet`]. Marking a row
//! that did not change is merely wasted work; changing a row without
//! marking it yields stale results.

use crate::problem::{PlacementProblem, SolverOptions};
use crate::scratch::SolverScratch;
use crate::solver::{check_coverage, rewalk, walk, Step};
use gnt_cfg::{IntervalGraph, NodeId};

/// Which initial-variable family of a node changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeltaKind {
    /// `TAKE_init(node)` changed.
    Take,
    /// `STEAL_init(node)` changed.
    Steal,
    /// `GIVE_init(node)` changed.
    Give,
}

/// The set of mutated initial-variable rows between two solves: the
/// input to [`solve_delta`]. Granularity is a whole `(family, node)` row
/// — any number of item bits of that row may have changed.
#[derive(Clone, Debug, Default)]
pub struct DeltaSet {
    entries: Vec<(DeltaKind, NodeId)>,
}

impl DeltaSet {
    /// Creates an empty set.
    pub fn new() -> DeltaSet {
        DeltaSet::default()
    }

    /// Marks `(kind, node)` as mutated.
    pub fn mark(&mut self, kind: DeltaKind, node: NodeId) -> &mut DeltaSet {
        self.entries.push((kind, node));
        self
    }

    /// Marks `TAKE_init(node)` as mutated.
    pub fn mark_take(&mut self, node: NodeId) -> &mut DeltaSet {
        self.mark(DeltaKind::Take, node)
    }

    /// Marks `STEAL_init(node)` as mutated.
    pub fn mark_steal(&mut self, node: NodeId) -> &mut DeltaSet {
        self.mark(DeltaKind::Steal, node)
    }

    /// Marks `GIVE_init(node)` as mutated.
    pub fn mark_give(&mut self, node: NodeId) -> &mut DeltaSet {
        self.mark(DeltaKind::Give, node)
    }

    /// Forgets every mark (for reuse across rounds without reallocating).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of marked rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The marked rows, in insertion order.
    pub fn entries(&self) -> &[(DeltaKind, NodeId)] {
        &self.entries
    }
}

/// What one [`solve_delta`] call actually executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// `true` if the call declined to re-walk and walked the whole
    /// schedule (no full solve of the same graph, options and universe
    /// width in the scratch).
    pub full_replay: bool,
    /// Schedule steps run (equals `blocks_total` on a full walk).
    pub blocks_run: usize,
    /// The steps a full walk runs: a `loc_step` per node but ROOT, a
    /// `node_step` per node, and a `given_step` and a `res_step` per node
    /// and flavor.
    pub blocks_total: usize,
}

/// Incrementally re-solves a BEFORE problem after the mutations named in
/// `delta`, leaving every Figure-13 variable readable in `scratch` — the
/// change-driven analogue of [`crate::solve_into`].
///
/// Requirements for the incremental path (checked at run time; any miss
/// falls back to a full walk, reported via [`DeltaReport::full_replay`]):
/// `scratch` must hold a prior full solve of the same graph (structure
/// and poison set) and universe width — i.e. a preceding
/// [`crate::solve_into`] or `solve_delta` call — and `problem` may
/// differ from the problem of that solve only in the rows marked in
/// `delta`. Results are bit-identical to a fresh [`crate::solve_into`]
/// either way, and a call on a warm scratch allocates nothing.
///
/// # Panics
///
/// Panics if `problem` does not cover all nodes of `graph`, or a delta
/// entry names a node outside the graph.
///
/// # Examples
///
/// ```
/// use gnt_core::{solve_delta, solve_into, DeltaSet};
/// use gnt_core::{PlacementProblem, SolverOptions, SolverScratch};
/// use gnt_cfg::IntervalGraph;
///
/// let p = gnt_ir::parse("do i = 1, N\n  ... = x(a(i))\nenddo")?;
/// let g = IntervalGraph::from_program(&p)?;
/// let body = g.nodes().find(|&n| g.level(n) == 2).unwrap();
/// let mut problem = PlacementProblem::new(g.num_nodes(), 8);
/// problem.take(body, 3);
/// let (opts, mut scratch) = (SolverOptions::default(), SolverScratch::new());
/// solve_into(&g, &problem, &opts, &mut scratch); // full solve
///
/// problem.steal(g.root(), 3); // block hoisting past the root…
/// let mut delta = DeltaSet::new();
/// delta.mark_steal(g.root()); // …and tell the solver what changed
/// let report = solve_delta(&g, &problem, &opts, &mut scratch, &delta);
/// assert!(!report.full_replay);
/// assert!(report.blocks_run < report.blocks_total);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_delta(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    _opts: &SolverOptions,
    scratch: &mut SolverScratch,
    delta: &DeltaSet,
) -> DeltaReport {
    check_coverage(graph, problem);
    let n = graph.num_nodes();
    for &(_, node) in delta.entries() {
        assert!(node.index() < n, "delta node out of range");
    }
    let blocks_total = Step::count(n);
    let incremental = scratch.delta_basis() == Some(graph.fingerprint())
        && scratch.num_nodes() == n
        && scratch.universe_bits() == problem.universe_size;
    if incremental {
        scratch.counters.deltas_incremental += 1;
        let dirty = delta.entries().iter().map(|&(_, node)| node);
        DeltaReport {
            full_replay: false,
            blocks_run: rewalk(graph, problem, scratch, dirty),
            blocks_total,
        }
    } else {
        scratch.counters.deltas_declined += 1;
        walk(graph, problem, scratch);
        DeltaReport {
            full_replay: true,
            blocks_run: blocks_total,
            blocks_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve, solve_into};
    use gnt_cfg::{reversed_graph, NodeKind};
    use gnt_ir::parse;

    fn graph(src: &str) -> IntervalGraph {
        IntervalGraph::from_program(&parse(src).unwrap()).unwrap()
    }

    const BRANCHY: &str = "do i = 1, N\n  ... = x(a(i))\n  if t(i) goto 7\n  z = 0\nenddo\n\
                           if test then\n  c = 3\nelse\n  d = 4\nendif\n7 e = 5";

    fn take_everywhere(g: &IntervalGraph, items: usize) -> PlacementProblem {
        let mut prob = PlacementProblem::new(g.num_nodes(), items);
        for (k, node) in g
            .nodes()
            .filter(|&n| matches!(g.kind(n), NodeKind::Stmt(_)))
            .enumerate()
        {
            prob.take(node, k % items);
        }
        prob
    }

    /// A forward graph re-solves incrementally, and `blocks_total`
    /// counts the steps of a full walk: six per node, less ROOT's
    /// `loc_step`.
    #[test]
    fn forward_tapes_support_delta_and_partition_into_blocks() {
        let g = graph(BRANCHY);
        let prob = take_everywhere(&g, 4);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        solve_into(&g, &prob, &opts, &mut scratch);
        let mut delta = DeltaSet::new();
        delta.mark_take(g.exit());
        let report = solve_delta(&g, &prob, &opts, &mut scratch, &delta);
        assert!(!report.full_replay);
        assert_eq!(report.blocks_total, 6 * g.num_nodes() - 1);
        assert!(report.blocks_run >= 1, "the marked node_step runs");
    }

    #[test]
    fn cold_scratch_falls_back_to_a_full_replay() {
        let g = graph(BRANCHY);
        let prob = take_everywhere(&g, 16);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        let delta = DeltaSet::new();
        let report = solve_delta(&g, &prob, &opts, &mut scratch, &delta);
        assert!(report.full_replay);
        assert_eq!(report.blocks_run, report.blocks_total);
        assert_eq!(scratch.export(), solve(&g, &prob, &opts));
        let c = scratch.counters();
        assert_eq!((c.direct_solves, c.deltas_declined), (0, 1));
    }

    #[test]
    fn incremental_resolve_is_bit_identical_and_skips_ops() {
        let g = graph(BRANCHY);
        let mut prob = take_everywhere(&g, 16);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        solve_into(&g, &prob, &opts, &mut scratch);

        prob.steal(g.root(), 5);
        let mut delta = DeltaSet::new();
        delta.mark_steal(g.root());
        let report = solve_delta(&g, &prob, &opts, &mut scratch, &delta);
        assert!(!report.full_replay, "warm scratch must go incremental");
        assert!(
            report.blocks_run < report.blocks_total,
            "a one-row delta must not re-run the whole schedule ({} vs {})",
            report.blocks_run,
            report.blocks_total
        );
        assert_eq!(scratch.export(), solve(&g, &prob, &opts));
        assert_eq!(scratch.counters().deltas_incremental, 1);
    }

    #[test]
    fn empty_delta_on_a_warm_scratch_runs_nothing() {
        let g = graph(BRANCHY);
        let prob = take_everywhere(&g, 16);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        solve_into(&g, &prob, &opts, &mut scratch);
        let report = solve_delta(&g, &prob, &opts, &mut scratch, &DeltaSet::new());
        assert!(!report.full_replay);
        assert_eq!(report.blocks_run, 0);
        assert_eq!(scratch.export(), solve(&g, &prob, &opts));
    }

    /// Reversing a graph with a forward goto creates jump-in sources:
    /// Eq. 11 at a jump-entered header meets `GIVEN_out` rows the walk
    /// has not written yet and folds them out, and a delta re-walks.
    #[test]
    fn jump_in_tapes_resolve_incrementally() {
        let g = graph(BRANCHY);
        let rev = reversed_graph(&g).unwrap();
        assert!(rev.nodes().any(|n| !rev.jump_in_sources(n).is_empty()));
        let opts = SolverOptions::default();
        let mut prob = take_everywhere(&rev, 8);
        let mut scratch = SolverScratch::new();
        solve_into(&rev, &prob, &opts, &mut scratch);
        prob.steal(rev.root(), 2);
        let mut delta = DeltaSet::new();
        delta.mark_steal(rev.root());
        let report = solve_delta(&rev, &prob, &opts, &mut scratch, &delta);
        assert!(!report.full_replay, "{report:?}");
        assert_eq!(scratch.export(), solve(&rev, &prob, &opts));
    }

    #[test]
    fn changed_universe_width_falls_back() {
        let g = graph(BRANCHY);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        solve_into(&g, &take_everywhere(&g, 64), &opts, &mut scratch);
        let prob = take_everywhere(&g, 65);
        let report = solve_delta(&g, &prob, &opts, &mut scratch, &DeltaSet::new());
        assert!(report.full_replay);
        assert_eq!(scratch.export(), solve(&g, &prob, &opts));
    }

    /// A universe of no items has rows of no words: a marked row re-walks
    /// its step and finds nothing changed.
    #[test]
    fn empty_universe_re_walks_only_the_marked_steps() {
        let g = graph(BRANCHY);
        let prob = PlacementProblem::new(g.num_nodes(), 0);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        solve_into(&g, &prob, &opts, &mut scratch);
        let mut delta = DeltaSet::new();
        delta.mark_take(g.exit()).mark_steal(g.root());
        let report = solve_delta(&g, &prob, &opts, &mut scratch, &delta);
        assert!(!report.full_replay);
        assert_eq!(report.blocks_run, 2);
        assert_eq!(scratch.export(), solve(&g, &prob, &opts));
    }

    /// Once warm, one-bit deltas on a graph leave every re-walk buffer at
    /// its capacity and the queued set all zero: a warm call neither
    /// allocates nor clears.
    #[test]
    fn warm_deltas_allocate_nothing() {
        let g = IntervalGraph::from_program(&crate::sized_program(400)).unwrap();
        let mut prob = take_everywhere(&g, 130);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        solve_into(&g, &prob, &opts, &mut scratch);
        let nodes: Vec<NodeId> = g.nodes().step_by(7).collect();
        let mut delta = DeltaSet::new();
        let mut round = |scratch: &mut SolverScratch, prob: &mut PlacementProblem| {
            for &node in &nodes {
                let row = &mut prob.steal_init[node.index()];
                if !row.insert(3) {
                    row.remove(3);
                }
                delta.clear();
                delta.mark_steal(node);
                solve_delta(&g, prob, &opts, scratch, &delta);
            }
        };
        round(&mut scratch, &mut prob);
        let wl = &scratch.worklist;
        let caps = (
            wl.heap.capacity(),
            wl.queued.capacity(),
            wl.snapshot.capacity(),
        );
        round(&mut scratch, &mut prob);
        let wl = &scratch.worklist;
        assert_eq!(
            (
                wl.heap.capacity(),
                wl.queued.capacity(),
                wl.snapshot.capacity()
            ),
            caps
        );
        assert!(wl.heap.is_empty() && wl.queued.iter().all(|&w| w == 0));
        assert_eq!(scratch.export(), solve(&g, &prob, &opts));
    }
}
