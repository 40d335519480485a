//! Schedule compilation: the Figure-15 elimination schedule recorded as
//! a flat tape of fused kernel ops, the substrate of the incremental
//! engine ([`crate::solve_delta`]).
//!
//! The direct solver ([`crate::solve_into`]) re-derives the schedule on
//! every call: per-node edge-class filtering, interval lookups, and
//! per-equation branching. None of that depends on the *problem* — only
//! on the graph and the hoisting options — so [`ScheduleTape::compile`]
//! runs the same schedule walker with a recording backend that pushes
//! every kernel call as a [`TapeOp`] over arena row ids, and partitions
//! the result into the blocks a delta re-solve replays when their inputs
//! change. Executing a whole tape is a single linear sweep: load the
//! problem's initial variables, replay the ops.
//!
//! A peephole pass fuses adjacent ops on the same destination row into
//! the multi-word kernels of `gnt-dataflow` (`copy`+`or` → `copy_or`,
//! `copy_or`+`andnot` → `copy_or_andnot`, …). Every rule is an exact set
//! identity guarded against operand aliasing, so a replay is
//! bit-identical to the direct solve — the differential suite
//! (`tests/tape_differential.rs`) locks this on hundreds of random
//! programs in both directions and pins the compiled tapes themselves.
//!
//! Only [`crate::solve_delta`] compiles a tape, and a [`SolverScratch`]
//! caches exactly one: the tape of the last `(graph, opts)` it re-solved
//! incrementally, matched on the 64-bit fingerprint the tape stores (the
//! graph's structural fingerprint, hashed once when the graph is built,
//! mixed with the effective poison set). Poisoning a header (the AFTER
//! fallback of [`crate::solve_after`]) or changing a hoisting knob is a
//! new fingerprint; a delta on it compiles and replaces the cached tape.
//! Every full solve walks the schedule directly: one compile costs
//! several direct solves, and a full replay saves only a few percent of
//! one (EXP-C17). A full solve leaves the cached tape alone and lays the
//! delta basis, so the next `solve_delta` of its fingerprint runs
//! incrementally.

use crate::problem::{PlacementProblem, SolverOptions};
use crate::scratch::SolverScratch;
use crate::solver::{schedule, Init, Kernels};
use gnt_cfg::{IntervalGraph, NodeId};

/// One instruction of a compiled schedule: a fused `gnt-dataflow` kernel
/// applied to solver-arena rows resolved at compile time. `dst`, `a`,
/// `b`, `c` are [`gnt_dataflow::BitSlab`] row ids (`family · n + node`,
/// or one of the two temporaries); `node` indexes the problem's
/// initial-variable arrays at execution time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TapeOp {
    /// `dst ← ∅`.
    Clear {
        /// Destination row.
        dst: u32,
    },
    /// `dst ← ⊤` (poisoned headers' `STEAL`, §4.1).
    Fill {
        /// Destination row.
        dst: u32,
    },
    /// `dst ← a`.
    Copy {
        /// Destination row.
        dst: u32,
        /// Source row.
        a: u32,
    },
    /// `dst ← dst ∪ a`.
    Or {
        /// Destination row.
        dst: u32,
        /// Source row.
        a: u32,
    },
    /// `dst ← dst ∩ a`.
    And {
        /// Destination row.
        dst: u32,
        /// Source row.
        a: u32,
    },
    /// `dst ← dst ∖ a`.
    AndNot {
        /// Destination row.
        dst: u32,
        /// Source row.
        a: u32,
    },
    /// `dst ← dst ∪ (a ∖ b)`.
    OrAndNot {
        /// Destination row.
        dst: u32,
        /// Minuend row.
        a: u32,
        /// Subtrahend row.
        b: u32,
    },
    /// `dst ← a ∪ b` (peephole of `Copy`+`Or`).
    CopyOr {
        /// Destination row.
        dst: u32,
        /// First operand row.
        a: u32,
        /// Second operand row.
        b: u32,
    },
    /// `dst ← a ∩ b` (peephole of `Copy`+`And`).
    CopyAnd {
        /// Destination row.
        dst: u32,
        /// First operand row.
        a: u32,
        /// Second operand row.
        b: u32,
    },
    /// `dst ← a ∖ b` (peephole of `Copy`+`AndNot`).
    CopyAndNot {
        /// Destination row.
        dst: u32,
        /// Minuend row.
        a: u32,
        /// Subtrahend row.
        b: u32,
    },
    /// `dst ← (a ∪ b) ∖ c` (peephole of `CopyOr`+`AndNot`).
    CopyOrAndNot {
        /// Destination row.
        dst: u32,
        /// First union operand row.
        a: u32,
        /// Second union operand row.
        b: u32,
        /// Subtrahend row.
        c: u32,
    },
    /// `dst ← TAKE_init(node)`.
    LoadTake {
        /// Destination row.
        dst: u32,
        /// Problem node index.
        node: u32,
    },
    /// `dst ← STEAL_init(node)`.
    LoadSteal {
        /// Destination row.
        dst: u32,
        /// Problem node index.
        node: u32,
    },
    /// `dst ← GIVE_init(node)`.
    LoadGive {
        /// Destination row.
        dst: u32,
        /// Problem node index.
        node: u32,
    },
}

/// A compiled Figure-15 schedule for one graph and one set of hoisting
/// options: the flat op sequence one solve replays, with all interval,
/// edge-class, and equation dispatch already resolved.
///
/// Compile once ([`ScheduleTape::compile`]); re-solve incrementally with
/// [`crate::solve_delta`], which compiles and caches the tape inside the
/// scratch, or replay it whole with [`ScheduleTape::execute_into`].
/// Execution is bit-identical to the direct solver on the same inputs.
#[derive(Clone, Debug)]
pub struct ScheduleTape {
    ops: Vec<TapeOp>,
    nodes: usize,
    unfused_ops: usize,
    fingerprint: u64,
    delta: crate::delta::DeltaIndex,
}

impl ScheduleTape {
    /// Compiles the four-pass schedule for `graph` under `opts`: runs the
    /// schedule walker with the recording backend, then the peephole
    /// fuser and the delta partition over the result.
    pub fn compile(graph: &IntervalGraph, opts: &SolverOptions) -> ScheduleTape {
        let n = graph.num_nodes();
        let mut recorder = Recorder(Vec::new());
        schedule(graph, opts, &mut recorder);
        let unfused_ops = recorder.0.len();
        let ops = fuse(recorder.0);
        let delta = crate::delta::DeltaIndex::build(&ops, n);
        ScheduleTape {
            ops,
            nodes: n,
            unfused_ops,
            fingerprint: fingerprint(graph, opts),
            delta,
        }
    }

    /// Number of ops in the (fused) tape.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of ops the compiler emitted before peephole fusion; the
    /// difference to [`ScheduleTape::num_ops`] is how many arena passes
    /// fusion saved per replay.
    pub fn num_unfused_ops(&self) -> usize {
        self.unfused_ops
    }

    /// Number of graph nodes the tape was compiled for.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// The compiled ops, for inspection and tests.
    pub fn ops(&self) -> &[TapeOp] {
        &self.ops
    }

    /// Whether this tape admits incremental re-execution via
    /// [`crate::solve_delta`]. Every compiled tape does, forward and
    /// reversed: the schedule walker emits no read of a row it has not
    /// written yet, so reads of jump-in rows on reversed graphs do not
    /// become forward references. The index still rejects a tape that
    /// reads a row ahead of its def chain; [`crate::solve_delta`] would
    /// replay such a tape in full.
    pub fn delta_supported(&self) -> bool {
        self.delta.supported()
    }

    /// The block partition and consumer indices behind
    /// [`crate::solve_delta`].
    pub(crate) fn delta_index(&self) -> &crate::delta::DeltaIndex {
        &self.delta
    }

    /// The structural fingerprint this tape was compiled under.
    pub(crate) fn fingerprint_value(&self) -> u64 {
        self.fingerprint
    }

    /// The fingerprint a tape and the delta basis are matched by: two
    /// `(graph, opts)` pairs with equal fingerprints compile to the same
    /// tape.
    pub fn fingerprint_of(graph: &IntervalGraph, opts: &SolverOptions) -> u64 {
        fingerprint(graph, opts)
    }

    /// Replays the tape over the full universe into `scratch`, leaving
    /// every Figure-13 variable readable in place — the tape analogue of
    /// [`crate::solve_into`], and what [`crate::solve_delta`] runs when it
    /// declines to re-solve incrementally.
    ///
    /// # Panics
    ///
    /// Panics if `problem` does not cover the graph this tape was
    /// compiled for.
    pub fn execute_into(&self, problem: &PlacementProblem, scratch: &mut SolverScratch) {
        assert_eq!(
            problem.num_nodes(),
            self.nodes,
            "problem must cover the compiled graph"
        );
        scratch.prepare(self.nodes, problem.universe_size);
        let slab = &mut scratch.slab;
        for &op in &self.ops {
            match op {
                TapeOp::Clear { dst } => slab.clear(dst as usize),
                TapeOp::Fill { dst } => slab.fill(dst as usize),
                TapeOp::Copy { dst, a } => slab.copy(dst as usize, a as usize),
                TapeOp::Or { dst, a } => slab.or(dst as usize, a as usize),
                TapeOp::And { dst, a } => slab.and(dst as usize, a as usize),
                TapeOp::AndNot { dst, a } => slab.andnot(dst as usize, a as usize),
                TapeOp::OrAndNot { dst, a, b } => {
                    slab.or_andnot(dst as usize, a as usize, b as usize);
                }
                TapeOp::CopyOr { dst, a, b } => slab.copy_or(dst as usize, a as usize, b as usize),
                TapeOp::CopyAnd { dst, a, b } => {
                    slab.copy_and(dst as usize, a as usize, b as usize);
                }
                TapeOp::CopyAndNot { dst, a, b } => {
                    slab.copy_andnot(dst as usize, a as usize, b as usize);
                }
                TapeOp::CopyOrAndNot { dst, a, b, c } => {
                    slab.copy_or_andnot(dst as usize, a as usize, b as usize, c as usize);
                }
                TapeOp::LoadTake { dst, node } => {
                    slab.load(dst as usize, problem.take_init[node as usize].words());
                }
                TapeOp::LoadSteal { dst, node } => {
                    slab.load(dst as usize, problem.steal_init[node as usize].words());
                }
                TapeOp::LoadGive { dst, node } => {
                    slab.load(dst as usize, problem.give_init[node as usize].words());
                }
            }
        }
        // A replay establishes the basis the incremental engine
        // (`solve_delta`) re-solves against.
        scratch.set_delta_basis(Some(self.fingerprint));
        scratch.counters.tape_replays += 1;
    }
}

/// The recording backend: every kernel call of the schedule becomes one
/// unfused [`TapeOp`]; the fused calls expand through the [`Kernels`]
/// defaults, and [`fuse`] folds them back.
struct Recorder(Vec<TapeOp>);

fn row(r: usize) -> u32 {
    u32::try_from(r).expect("arena row fits u32")
}

impl Kernels for Recorder {
    fn clear(&mut self, dst: usize) {
        self.0.push(TapeOp::Clear { dst: row(dst) });
    }

    fn fill(&mut self, dst: usize) {
        self.0.push(TapeOp::Fill { dst: row(dst) });
    }

    fn copy(&mut self, dst: usize, a: usize) {
        self.0.push(TapeOp::Copy {
            dst: row(dst),
            a: row(a),
        });
    }

    fn or(&mut self, dst: usize, a: usize) {
        self.0.push(TapeOp::Or {
            dst: row(dst),
            a: row(a),
        });
    }

    fn and(&mut self, dst: usize, a: usize) {
        self.0.push(TapeOp::And {
            dst: row(dst),
            a: row(a),
        });
    }

    fn andnot(&mut self, dst: usize, a: usize) {
        self.0.push(TapeOp::AndNot {
            dst: row(dst),
            a: row(a),
        });
    }

    fn or_andnot(&mut self, dst: usize, a: usize, b: usize) {
        self.0.push(TapeOp::OrAndNot {
            dst: row(dst),
            a: row(a),
            b: row(b),
        });
    }

    fn load(&mut self, dst: usize, init: Init, node: usize) {
        let (dst, node) = (row(dst), u32::try_from(node).expect("node id fits u32"));
        self.0.push(match init {
            Init::Take => TapeOp::LoadTake { dst, node },
            Init::Steal => TapeOp::LoadSteal { dst, node },
            Init::Give => TapeOp::LoadGive { dst, node },
        });
    }
}

/// The peephole fuser: collapses adjacent ops on the same destination row
/// into the fused multi-word kernels. Every rule is an exact set identity
/// with aliasing guards (an operand equal to the destination would read
/// the half-updated row), so fusion can never change results.
fn fuse(ops: Vec<TapeOp>) -> Vec<TapeOp> {
    let mut out: Vec<TapeOp> = Vec::with_capacity(ops.len());
    for op in ops {
        let fused = match (out.last().copied(), op) {
            // ∅ ∪ a = a
            (Some(TapeOp::Clear { dst: d }), TapeOp::Or { dst, a }) if d == dst && a != dst => {
                Some(TapeOp::Copy { dst, a })
            }
            // ∅ ∩ a = ∅, ∅ ∖ a = ∅
            (Some(TapeOp::Clear { dst: d }), TapeOp::And { dst, .. })
            | (Some(TapeOp::Clear { dst: d }), TapeOp::AndNot { dst, .. })
                if d == dst =>
            {
                Some(TapeOp::Clear { dst })
            }
            // ∅ ∪ (a ∖ b) = a ∖ b
            (Some(TapeOp::Clear { dst: d }), TapeOp::OrAndNot { dst, a, b })
                if d == dst && a != dst && b != dst =>
            {
                Some(TapeOp::CopyAndNot { dst, a, b })
            }
            // a ∪ b, a ∩ b, a ∖ b over a fresh copy
            (Some(TapeOp::Copy { dst: d, a }), TapeOp::Or { dst, a: b })
                if d == dst && a != dst && b != dst =>
            {
                Some(TapeOp::CopyOr { dst, a, b })
            }
            (Some(TapeOp::Copy { dst: d, a }), TapeOp::And { dst, a: b })
                if d == dst && a != dst && b != dst =>
            {
                Some(TapeOp::CopyAnd { dst, a, b })
            }
            (Some(TapeOp::Copy { dst: d, a }), TapeOp::AndNot { dst, a: b })
                if d == dst && a != dst && b != dst =>
            {
                Some(TapeOp::CopyAndNot { dst, a, b })
            }
            // (a ∪ b) ∖ c
            (Some(TapeOp::CopyOr { dst: d, a, b }), TapeOp::AndNot { dst, a: c })
                if d == dst && c != dst =>
            {
                Some(TapeOp::CopyOrAndNot { dst, a, b, c })
            }
            _ => None,
        };
        // A rule fires only on a prior op, so `fused` implies a last op.
        match (out.last_mut(), fused) {
            (Some(last), Some(f)) => *last = f,
            _ => out.push(op),
        }
    }
    out
}

/// The tape's key for `(graph, opts)`: the graph's stored
/// structural fingerprint ([`IntervalGraph::fingerprint`]) mixed with the
/// effective poison set, the nodes whose `STEAL` the schedule forces to
/// ⊤ (`effective_poison` in the solver). That set is `graph.poisoned()` ∪
/// `opts.no_hoist_headers`, plus every loop header under
/// `opts.no_zero_trip_hoist`; it is hashed in one canonical form, so
/// equal fingerprints mean the same schedule inputs, and the cost is in
/// the size of the listed sets, not of the graph.
fn fingerprint(graph: &IntervalGraph, opts: &SolverOptions) -> u64 {
    let n = graph.num_nodes();
    let mut listed: Vec<NodeId> = graph
        .poisoned()
        .iter()
        .chain(&opts.no_hoist_headers)
        .copied()
        .filter(|h| h.index() < n)
        .collect();
    listed.sort_unstable();
    listed.dedup();
    // Canonical form: when the set holds every loop header, by the
    // option or by listing, hash that as one flag plus the other nodes.
    let headers = graph.num_loop_headers();
    let listed_headers = listed.iter().filter(|&&h| graph.is_loop_header(h)).count();
    let all_headers = headers > 0 && (opts.no_zero_trip_hoist || listed_headers == headers);
    if all_headers {
        listed.retain(|&h| !graph.is_loop_header(h));
    }
    let mut h = mix(graph.fingerprint(), u64::from(all_headers));
    h = mix(h, listed.len() as u64);
    for x in listed {
        h = mix(h, u64::from(x.0));
    }
    h
}

/// One step of [`fingerprint`]: the splitmix64 finalizer over `h ^ x`.
fn mix(h: u64, x: u64) -> u64 {
    let mut z = h ^ x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The engine counters of one [`SolverScratch`] over its lifetime
/// ([`SolverScratch::counters`]); subtract two readings to count one
/// stretch of work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Tapes compiled: one per [`crate::solve_delta`] whose scratch
    /// caches no tape for its `(graph, opts)`. Full solves compile none.
    pub tape_compiles: u64,
    /// Full solves, each a direct walk of the schedule: every
    /// [`crate::solve_into`], and so every `solve`, `solve_batch*`, AFTER
    /// attempt and pressure-loop round 0.
    pub direct_solves: u64,
    /// Full tape replays: a [`crate::solve_delta`] that declines to
    /// re-solve incrementally replays its whole tape. Incremental calls
    /// are not counted.
    pub tape_replays: u64,
}

impl std::ops::Sub for EngineCounters {
    type Output = EngineCounters;

    fn sub(self, earlier: EngineCounters) -> EngineCounters {
        EngineCounters {
            tape_compiles: self.tape_compiles - earlier.tape_compiles,
            direct_solves: self.direct_solves - earlier.direct_solves,
            tape_replays: self.tape_replays - earlier.tape_replays,
        }
    }
}

impl SolverScratch {
    /// The tape this scratch caches, if it was compiled for `graph` under
    /// `opts`: the tape of the last [`crate::solve_delta`] through this
    /// scratch.
    pub fn cached_tape(
        &self,
        graph: &IntervalGraph,
        opts: &SolverOptions,
    ) -> Option<&ScheduleTape> {
        let fp = fingerprint(graph, opts);
        self.tape.as_ref().filter(|tape| tape.fingerprint == fp)
    }

    /// This scratch's engine counters so far.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// Runs `f` on the tape for `graph` under `opts` and this scratch:
    /// the cached tape when its fingerprint matches, else a fresh compile
    /// that then replaces it. The tape moves out for the call so `f` can
    /// mutate the scratch.
    pub(crate) fn with_tape<R>(
        &mut self,
        graph: &IntervalGraph,
        opts: &SolverOptions,
        f: impl FnOnce(&ScheduleTape, &mut SolverScratch) -> R,
    ) -> R {
        let fp = fingerprint(graph, opts);
        let tape = match self.tape.take() {
            Some(tape) if tape.fingerprint == fp => tape,
            _ => {
                self.counters.tape_compiles += 1;
                ScheduleTape::compile(graph, opts)
            }
        };
        let result = f(&tape, self);
        self.tape = Some(tape);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve, solve_batch, solve_into, Solution};
    use gnt_cfg::NodeKind;
    use gnt_ir::parse;

    fn graph(src: &str) -> IntervalGraph {
        IntervalGraph::from_program(&parse(src).unwrap()).unwrap()
    }

    fn take_everywhere(g: &IntervalGraph, items: usize) -> PlacementProblem {
        let mut prob = PlacementProblem::new(g.num_nodes(), items);
        for (k, n) in g
            .nodes()
            .filter(|&n| matches!(g.kind(n), NodeKind::Stmt(_)))
            .enumerate()
        {
            prob.take(n, k % items);
        }
        prob
    }

    const BRANCHY: &str = "do i = 1, N\n  ... = x(a(i))\n  if t(i) goto 7\n  z = 0\nenddo\n\
                           if test then\n  c = 3\nelse\n  d = 4\nendif\n7 e = 5";

    #[test]
    fn fusion_shrinks_the_tape_and_uses_fused_kernels() {
        let g = graph(BRANCHY);
        let tape = ScheduleTape::compile(&g, &SolverOptions::default());
        assert!(
            tape.num_ops() < tape.num_unfused_ops(),
            "{} !< {}",
            tape.num_ops(),
            tape.num_unfused_ops()
        );
        let has = |pred: fn(&TapeOp) -> bool| tape.ops().iter().any(pred);
        // Every peephole family fires on this shape: Eq. 3/12 (CopyOr),
        // Eq. 6/9/14 (CopyAndNot), Eq. 13 (CopyOrAndNot), Eq. 4/11 meets
        // over a fresh copy stay Copy+And chains, and Eq. 8 on nodes
        // without EF successors collapses Clear+Or to Copy.
        assert!(has(|op| matches!(op, TapeOp::CopyOr { .. })));
        assert!(has(|op| matches!(op, TapeOp::CopyAndNot { .. })));
        assert!(has(|op| matches!(op, TapeOp::CopyOrAndNot { .. })));
    }

    #[test]
    fn tape_execution_matches_the_interpreted_solver() {
        let g = graph(BRANCHY);
        let opts = SolverOptions::default();
        let tape = ScheduleTape::compile(&g, &opts);
        for items in [1usize, 63, 64, 65, 300] {
            let prob = take_everywhere(&g, items);
            let expected = solve(&g, &prob, &opts);
            let mut scratch = SolverScratch::new();
            tape.execute_into(&prob, &mut scratch);
            assert_eq!(scratch.export(), expected, "items = {items}");
            // A second replay into the now warm arena.
            tape.execute_into(&prob, &mut scratch);
            assert_eq!(scratch.export(), expected, "replay, items = {items}");
        }
    }

    /// The engine rule on one scratch. Full solves of any kind — READ
    /// through every entry point, AFTER with its §5.3 fallback — walk
    /// the schedule directly and compile nothing. Only `solve_delta`
    /// compiles, on a miss; the scratch keeps that one tape through full
    /// solves of other fingerprints (how `solver_resolve` interleaves
    /// them), and a delta on a second fingerprint replaces it.
    #[test]
    fn full_solves_walk_and_only_a_delta_compiles_the_one_cached_tape() {
        use gnt_ir::StmtKind;
        let p = parse("do j = 1, N\n  if t(j) goto 99\n  x(a(j)) = ...\nenddo\n99 b = 1").unwrap();
        let g = IntervalGraph::from_program(&p).unwrap();
        let def = g
            .nodes()
            .find(|&n| match g.kind(n) {
                NodeKind::Stmt(s) => matches!(p.stmt(s).kind, StmtKind::Assign { .. }),
                _ => false,
            })
            .unwrap();
        let mut write = PlacementProblem::new(g.num_nodes(), 1);
        write.take(def, 0);
        let read = take_everywhere(&g, 3);
        let mut edited = read.clone();
        edited.steal(g.root(), 1);
        let mut delta = crate::DeltaSet::new();
        delta.mark_steal(g.root());
        let (opts, no_hoist) = (
            SolverOptions::default(),
            SolverOptions {
                no_zero_trip_hoist: true,
                ..Default::default()
            },
        );
        let counts = |s: &SolverScratch| {
            let c = s.counters();
            (c.tape_compiles, c.direct_solves, c.tape_replays)
        };
        let mut scratch = SolverScratch::new();
        let mut out = Solution::default();
        for _ in 0..2 {
            solve_into(&g, &read, &opts, &mut scratch);
            solve_batch(&g, &read, &opts, &mut scratch, &mut out);
            crate::solve_batch_with_scratch(&g, &read, &opts, &mut scratch);
            let after = crate::solve_after_with_scratch(&g, &write, &opts, &mut scratch).unwrap();
            assert!(
                after
                    .reversed
                    .nodes()
                    .any(|h| after.reversed.is_poisoned(h)),
                "the fallback must run"
            );
        }
        assert_eq!(counts(&scratch), (0, 10, 0));
        assert!(scratch.cached_tape(&g, &opts).is_none());

        // The first delta compiles and re-solves against the last walk.
        solve_into(&g, &read, &opts, &mut scratch);
        let report = crate::solve_delta(&g, &edited, &opts, &mut scratch, &delta);
        assert!(!report.full_replay);
        assert_eq!(scratch.export(), solve(&g, &edited, &opts));
        assert_eq!(counts(&scratch), (1, 11, 0));

        // Full solves of three other fingerprints in between evict nothing.
        for round in 0..3 {
            crate::solve_after_with_scratch(&g, &write, &opts, &mut scratch).unwrap();
            solve_into(&g, &read, &no_hoist, &mut scratch);
            solve_into(&g, &read, &opts, &mut scratch);
            let report = crate::solve_delta(&g, &edited, &opts, &mut scratch, &delta);
            assert!(!report.full_replay, "round {round}");
            assert_eq!(scratch.export(), solve(&g, &edited, &opts));
        }
        assert_eq!(counts(&scratch), (1, 23, 0));

        // A delta on another fingerprint replaces the tape.
        solve_into(&g, &read, &no_hoist, &mut scratch);
        let report = crate::solve_delta(&g, &edited, &no_hoist, &mut scratch, &delta);
        assert!(!report.full_replay);
        assert_eq!(scratch.export(), solve(&g, &edited, &no_hoist));
        assert_eq!(counts(&scratch), (2, 24, 0));
        assert!(scratch.cached_tape(&g, &no_hoist).is_some());
        assert!(scratch.cached_tape(&g, &opts).is_none());
    }

    /// The premise of laying the delta basis from a direct walk: after a
    /// direct solve and after a replay of the compiled tape, every row of
    /// the arena — the 20 families and the two temporaries — holds the
    /// same words. Forward, reversed and poisoned-reversed graphs of
    /// random programs (some with gotos), with and without zero-trip
    /// hoisting, at universe widths around the word boundary.
    #[test]
    fn direct_walk_leaves_every_row_as_a_replay_does() {
        use crate::generator::{random_problem, random_program, GenConfig};
        let configs = [
            GenConfig::default(),
            GenConfig {
                goto_prob: 0.1,
                ..GenConfig::default()
            },
        ];
        let no_hoist = SolverOptions {
            no_zero_trip_hoist: true,
            ..Default::default()
        };
        let mut cases = 0;
        for (c, config) in configs.iter().enumerate() {
            for seed in 0..40u64 {
                let Ok(g) = IntervalGraph::from_program(&random_program(seed, config)) else {
                    continue;
                };
                let Ok(r) = gnt_cfg::reversed_graph(&g) else {
                    continue;
                };
                let mut poisoned = r.clone();
                for h in r.nodes().filter(|&h| !r.jump_in_sources(h).is_empty()) {
                    poisoned.poison(h);
                }
                for (label, graph) in [("fwd", &g), ("rev", &r), ("poisoned", &poisoned)] {
                    let items = [1usize, 64, 65, 130][(seed % 4) as usize];
                    let prob = random_problem(seed ^ 0x5eed, graph, items, 0.3);
                    for opts in [SolverOptions::default(), no_hoist.clone()] {
                        let mut direct = SolverScratch::new();
                        solve_into(graph, &prob, &opts, &mut direct);
                        let mut replay = SolverScratch::new();
                        ScheduleTape::compile(graph, &opts).execute_into(&prob, &mut replay);
                        assert_eq!(direct.slab.rows(), replay.slab.rows());
                        for row in 0..direct.slab.rows() {
                            assert_eq!(
                                direct.slab.row(row).words(),
                                replay.slab.row(row).words(),
                                "config {c}, seed {seed}, {label}, row {row}"
                            );
                        }
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases >= 200, "{cases} cases");
    }

    #[test]
    fn option_changes_invalidate_the_cached_tape() {
        let g = graph("do i = 1, N\n  ... = x(a(i))\nenddo");
        let prob = take_everywhere(&g, 4);
        let mut scratch = SolverScratch::new();
        let plain = SolverOptions::default();
        let no_hoist = SolverOptions {
            no_zero_trip_hoist: true,
            ..Default::default()
        };
        // Re-solve, flip the hoisting knob, re-solve, flip back: each
        // result must match the direct solver under the *current*
        // options, i.e. the fingerprint mismatch forces a recompile and a
        // full replay every time.
        for (k, opts) in [&plain, &no_hoist, &plain].into_iter().enumerate() {
            let report = crate::solve_delta(&g, &prob, opts, &mut scratch, &crate::DeltaSet::new());
            assert!(report.full_replay);
            assert_eq!(scratch.export(), solve(&g, &prob, opts));
            assert_eq!(scratch.counters().tape_compiles, k as u64 + 1);
        }
        // And the fingerprints really differ (the knob poisons the header).
        assert_ne!(fingerprint(&g, &plain), fingerprint(&g, &no_hoist));
    }

    #[test]
    fn output_buffer_reshapes_across_universe_sizes() {
        let g = graph(BRANCHY);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        let mut out = Solution::default();
        // Shrinking and growing the universe through the same buffer must
        // never leak stale high bits into a narrower solve.
        for items in [130usize, 64, 65, 63, 1, 300] {
            let prob = take_everywhere(&g, items);
            solve_batch(&g, &prob, &opts, &mut scratch, &mut out);
            assert_eq!(out, solve(&g, &prob, &opts), "items = {items}");
        }
    }

    #[test]
    fn fuser_rules_are_guarded_against_aliasing() {
        // Clear(0); Or(0, 0) must NOT become Copy(0, 0) — the guard keeps
        // the Clear and drops nothing.
        let fused = fuse(vec![TapeOp::Clear { dst: 0 }, TapeOp::Or { dst: 0, a: 0 }]);
        assert_eq!(
            fused,
            vec![TapeOp::Clear { dst: 0 }, TapeOp::Or { dst: 0, a: 0 }]
        );
        // The straight-line chain: Clear + Or + AndNot → Copy + AndNot →
        // CopyAndNot.
        let fused = fuse(vec![
            TapeOp::Clear { dst: 0 },
            TapeOp::Or { dst: 0, a: 1 },
            TapeOp::AndNot { dst: 0, a: 2 },
        ]);
        assert_eq!(fused, vec![TapeOp::CopyAndNot { dst: 0, a: 1, b: 2 }]);
        // Copy + Or + AndNot → CopyOr + AndNot → CopyOrAndNot.
        let fused = fuse(vec![
            TapeOp::Copy { dst: 0, a: 1 },
            TapeOp::Or { dst: 0, a: 2 },
            TapeOp::AndNot { dst: 0, a: 3 },
        ]);
        assert_eq!(
            fused,
            vec![TapeOp::CopyOrAndNot {
                dst: 0,
                a: 1,
                b: 2,
                c: 3
            }]
        );
    }
}
