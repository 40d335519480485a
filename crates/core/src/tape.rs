//! Schedule compilation: the Figure-15 elimination schedule recorded as
//! a flat tape of fused kernel ops, compiled once per `(graph, direction)`
//! and replayed for every solve.
//!
//! The direct solver ([`crate::solve_into`]) re-derives the schedule on
//! every call: per-node edge-class filtering, interval lookups, and
//! per-equation branching. None of that depends on the *problem* — only
//! on the graph and the hoisting options — so [`ScheduleTape::compile`]
//! runs the same schedule walker with a recording backend that pushes
//! every kernel call as a [`TapeOp`] over arena row ids. Executing a
//! tape is then a single linear sweep: load the problem's initial
//! variables, replay the ops.
//!
//! A peephole pass fuses adjacent ops on the same destination row into
//! the multi-word kernels of `gnt-dataflow` (`copy`+`or` → `copy_or`,
//! `copy_or`+`andnot` → `copy_or_andnot`, …). Every rule is an exact set
//! identity guarded against operand aliasing, so a replay is
//! bit-identical to the direct solve — the differential suite
//! (`tests/tape_differential.rs`) locks this on hundreds of random
//! programs in both directions and pins the compiled tapes themselves.
//!
//! Tapes are cached per direction inside the [`SolverScratch`] that
//! executes them: BEFORE and AFTER problems, the pressure re-solve loop,
//! and the lint driver's blame re-derivations all replay the same two
//! tapes. A 64-bit structural fingerprint over the classified edges, the
//! effective poison set, and the jump-in sources guards each slot —
//! poisoning a header (the AFTER fallback of [`crate::solve_after`]) or
//! changing a hoisting knob recompiles, anything else replays.

use crate::problem::{Direction, PlacementProblem, SolverOptions};
use crate::scratch::SolverScratch;
use crate::solver::{check_coverage, effective_poison, schedule, Init, Kernels, Solution};
use gnt_cfg::{EdgeClass, IntervalGraph};

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
/// Compile once ([`ScheduleTape::compile`]), execute many times
/// ([`ScheduleTape::execute_into`], or the cache-managed entry points
/// [`crate::solve_batch`] / [`crate::solve_batch_into`]). Execution is
/// bit-identical to the direct solver on the same inputs.
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
    /// [`crate::solve_delta`]. Forward tapes always do; tapes with
    /// forward references (e.g. jump-in sources on reversed graphs) do
    /// not, and [`crate::solve_delta`] silently falls back to a full
    /// replay for them.
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

    /// Replays the tape over the full universe into `scratch`, leaving
    /// every Figure-13 variable readable in place — the tape analogue of
    /// [`crate::solve_into`]. Prefer [`crate::solve_batch_into`], which
    /// additionally caches the tape inside the scratch.
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
        match fused {
            Some(f) => *out.last_mut().expect("fusion requires a prior op") = f,
            None => out.push(op),
        }
    }
    out
}

/// FNV-1a over everything the compiled tape depends on: node count,
/// classified successor edges, the effective poison set (graph poison ∪
/// option-induced poison), and the jump-in sources. Two graphs with equal
/// fingerprints compile to the same tape.
fn fingerprint(graph: &IntervalGraph, opts: &SolverOptions) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    let class_tag = |c: EdgeClass| -> u64 {
        match c {
            EdgeClass::Entry => 1,
            EdgeClass::Cycle => 2,
            EdgeClass::Jump => 3,
            EdgeClass::Forward => 4,
            EdgeClass::Synthetic => 5,
            EdgeClass::JumpIn => 6,
        }
    };
    mix(graph.num_nodes() as u64);
    for node in graph.nodes() {
        mix(0xE0E0);
        for (s, c) in graph.succ_edges(node) {
            mix((u64::from(s.0) << 3) | class_tag(c));
        }
        mix(u64::from(effective_poison(graph, opts, node)));
        for &j in graph.jump_in_sources(node) {
            mix(0x1000_0000 | u64::from(j.0));
        }
    }
    h
}

/// The per-scratch tape cache: one slot per [`Direction`], guarded by the
/// structural fingerprint. BEFORE solves, AFTER solves (on the reversed
/// graph), pressure re-solve rounds, and blame re-derivations through the
/// same scratch replay the same two tapes.
#[derive(Debug, Default)]
pub(crate) struct TapeCache {
    slots: [Option<ScheduleTape>; 2],
}

impl TapeCache {
    fn slot(dir: Direction) -> usize {
        match dir {
            Direction::Before => 0,
            Direction::After => 1,
        }
    }

    /// Takes the cached tape for `dir` if its fingerprint still matches
    /// `graph` under `opts`; compiles a fresh tape otherwise. The caller
    /// returns it with [`TapeCache::put`] after executing (the tape moves
    /// out so the scratch can be mutably borrowed during execution).
    pub(crate) fn take_or_compile(
        &mut self,
        dir: Direction,
        graph: &IntervalGraph,
        opts: &SolverOptions,
    ) -> ScheduleTape {
        match self.slots[Self::slot(dir)].take() {
            Some(tape) if tape.fingerprint == fingerprint(graph, opts) => tape,
            _ => ScheduleTape::compile(graph, opts),
        }
    }

    pub(crate) fn put(&mut self, dir: Direction, tape: ScheduleTape) {
        self.slots[Self::slot(dir)] = Some(tape);
    }
}

impl SolverScratch {
    /// The tape cached for `dir`, if any — populated by the
    /// `solve_batch*` entry points and [`crate::solve_after_with_scratch`].
    pub fn cached_tape(&self, dir: Direction) -> Option<&ScheduleTape> {
        self.tapes.slots[TapeCache::slot(dir)].as_ref()
    }
}

/// Batched tape solve: replays the scratch-cached schedule tape for
/// `(graph, BEFORE)` across the item universe and writes the result into
/// the caller-reused `out`, allocating nothing once `scratch` and `out`
/// are warm. Results are bit-identical to [`crate::solve`].
///
/// # Panics
///
/// Panics if `problem` does not cover all nodes of `graph`.
///
/// # Examples
///
/// ```
/// use gnt_core::{solve, solve_batch, PlacementProblem, Solution, SolverOptions, SolverScratch};
/// use gnt_cfg::IntervalGraph;
///
/// let p = gnt_ir::parse("do i = 1, N\n  ... = x(a(i))\nenddo")?;
/// let g = IntervalGraph::from_program(&p)?;
/// let body = g.nodes().find(|&n| g.level(n) == 2).unwrap();
/// let mut problem = PlacementProblem::new(g.num_nodes(), 256);
/// problem.take(body, 200);
/// let opts = SolverOptions::default();
/// let (mut scratch, mut out) = (SolverScratch::new(), Solution::default());
/// solve_batch(&g, &problem, &opts, &mut scratch, &mut out); // compiles + caches the tape
/// solve_batch(&g, &problem, &opts, &mut scratch, &mut out); // replays it, allocation-free
/// assert_eq!(out, solve(&g, &problem, &opts));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_batch(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
    out: &mut Solution,
) {
    solve_batch_dir(Direction::Before, graph, problem, opts, scratch, out);
}

pub(crate) fn solve_batch_dir(
    dir: Direction,
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
    out: &mut Solution,
) {
    check_coverage(graph, problem);
    let tape = scratch.tapes.take_or_compile(dir, graph, opts);
    tape.execute_into(problem, scratch);
    scratch.tapes.put(dir, tape);
    // Every word of every row of `out` is overwritten below, so
    // re-shaping skips the zeroing.
    out.reshape_for_overwrite(graph.num_nodes(), problem.universe_size);
    scratch.write_into(out);
}

/// [`solve_batch`] without the export: replays the cached BEFORE tape and
/// leaves every variable readable in `scratch` (zero-copy views) — the
/// tape analogue of [`crate::solve_into`], used by the pressure re-solve
/// loop and the lint driver's blame queries.
///
/// # Panics
///
/// Panics if `problem` does not cover all nodes of `graph`.
pub fn solve_batch_into(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
) {
    solve_batch_into_dir(Direction::Before, graph, problem, opts, scratch);
}

pub(crate) fn solve_batch_into_dir(
    dir: Direction,
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
) {
    check_coverage(graph, problem);
    let tape = scratch.tapes.take_or_compile(dir, graph, opts);
    tape.execute_into(problem, scratch);
    scratch.tapes.put(dir, tape);
}

/// [`solve_batch_into`] followed by [`SolverScratch::export`]: the
/// tape-cached counterpart of [`crate::solve`] for a reused scratch.
///
/// # Panics
///
/// Panics if `problem` does not cover all nodes of `graph`.
pub fn solve_batch_with_scratch(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
) -> Solution {
    solve_batch_into(graph, problem, opts, scratch);
    scratch.export()
}

pub(crate) fn solve_batch_with_scratch_dir(
    dir: Direction,
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
) -> Solution {
    solve_batch_into_dir(dir, graph, problem, opts, scratch);
    scratch.export()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve;
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
        for items in [1usize, 63, 64, 65, 300] {
            let prob = take_everywhere(&g, items);
            let opts = SolverOptions::default();
            let expected = solve(&g, &prob, &opts);
            let mut scratch = SolverScratch::new();
            let mut out = Solution::default();
            solve_batch(&g, &prob, &opts, &mut scratch, &mut out);
            assert_eq!(out, expected, "items = {items}");
            // Second call replays the cached tape into the warm buffer.
            assert!(scratch.cached_tape(Direction::Before).is_some());
            solve_batch(&g, &prob, &opts, &mut scratch, &mut out);
            assert_eq!(out, expected, "replay, items = {items}");
        }
    }

    #[test]
    fn option_changes_invalidate_the_cached_tape() {
        let g = graph("do i = 1, N\n  ... = x(a(i))\nenddo");
        let prob = take_everywhere(&g, 4);
        let mut scratch = SolverScratch::new();
        let mut out = Solution::default();
        let plain = SolverOptions::default();
        let no_hoist = SolverOptions {
            no_zero_trip_hoist: true,
            ..Default::default()
        };
        // Solve, flip the hoisting knob, solve, flip back: each result
        // must match the direct solver under the *current* options,
        // i.e. the fingerprint mismatch forces a recompile every time.
        solve_batch(&g, &prob, &plain, &mut scratch, &mut out);
        assert_eq!(out, solve(&g, &prob, &plain));
        solve_batch(&g, &prob, &no_hoist, &mut scratch, &mut out);
        assert_eq!(out, solve(&g, &prob, &no_hoist));
        solve_batch(&g, &prob, &plain, &mut scratch, &mut out);
        assert_eq!(out, solve(&g, &prob, &plain));
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
