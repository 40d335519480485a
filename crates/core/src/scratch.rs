//! Reusable solver workspace: all Figure-13 variable families in one
//! [`BitSlab`] arena.
//!
//! One GIVE-N-TAKE solve materialises 20 bitset families (the 10 shared
//! consumption variables plus 5 placement variables for each flavor) over
//! every node. [`SolverScratch`] lays them out as strided rows of a single
//! contiguous allocation — row `family · n + node` — plus two temporary
//! rows for the multi-operand meets/joins. Repeated solves of the same
//! shape ([`crate::solve_into`], the pressure re-solve loop, ablations,
//! proptests) reuse the allocation and touch the allocator not at all
//! after warm-up.

use crate::blame::Var;
use crate::problem::Flavor;
use crate::solver::{ConsumptionVars, FlavorSolution, Solution, Worklist};
use crate::verify::ProductionRows;
use gnt_cfg::NodeId;
use gnt_dataflow::{BitRef, BitSet, BitSlab};

// Family indices. The 10 consumption families are shared between the two
// flavors; the 5 placement families exist once per flavor, LAZY offset by
// [`FLAVOR_STRIDE`] from EAGER.
pub(crate) const F_STEAL: usize = 0;
pub(crate) const F_GIVE: usize = 1;
pub(crate) const F_BLOCK: usize = 2;
pub(crate) const F_TAKEN_OUT: usize = 3;
pub(crate) const F_TAKE: usize = 4;
pub(crate) const F_TAKEN_IN: usize = 5;
pub(crate) const F_BLOCK_LOC: usize = 6;
pub(crate) const F_TAKE_LOC: usize = 7;
pub(crate) const F_GIVE_LOC: usize = 8;
pub(crate) const F_STEAL_LOC: usize = 9;
pub(crate) const F_GIVEN_IN: usize = 10;
pub(crate) const F_GIVEN: usize = 11;
pub(crate) const F_GIVEN_OUT: usize = 12;
pub(crate) const F_RES_IN: usize = 13;
pub(crate) const F_RES_OUT: usize = 14;
pub(crate) const FLAVOR_STRIDE: usize = 5;
pub(crate) const NUM_FAMILIES: usize = 20;
pub(crate) const NUM_TEMPS: usize = 2;

pub(crate) fn flavor_offset(flavor: Flavor) -> usize {
    match flavor {
        Flavor::Eager => 0,
        Flavor::Lazy => FLAVOR_STRIDE,
    }
}

/// The family index of `var`.
fn family(var: Var) -> usize {
    match var {
        Var::Steal => F_STEAL,
        Var::Give => F_GIVE,
        Var::Block => F_BLOCK,
        Var::TakenOut => F_TAKEN_OUT,
        Var::Take => F_TAKE,
        Var::TakenIn => F_TAKEN_IN,
        Var::BlockLoc => F_BLOCK_LOC,
        Var::TakeLoc => F_TAKE_LOC,
        Var::GiveLoc => F_GIVE_LOC,
        Var::StealLoc => F_STEAL_LOC,
        Var::GivenIn(f) => F_GIVEN_IN + flavor_offset(f),
        Var::Given(f) => F_GIVEN + flavor_offset(f),
        Var::GivenOut(f) => F_GIVEN_OUT + flavor_offset(f),
        Var::ResIn(f) => F_RES_IN + flavor_offset(f),
        Var::ResOut(f) => F_RES_OUT + flavor_offset(f),
    }
}

/// The engine counters of one [`SolverScratch`] over its lifetime
/// ([`SolverScratch::counters`]); subtract two readings to count one
/// stretch of work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Full solves, each a walk of the whole schedule: every
    /// [`crate::solve_into`], and so every `solve`, `solve_batch*`, AFTER
    /// attempt and pressure-loop round 0.
    pub direct_solves: u64,
    /// [`crate::solve_delta`] calls served by a re-walk of the steps
    /// downstream of the edit.
    pub deltas_incremental: u64,
    /// [`crate::solve_delta`] calls that declined and walked the whole
    /// schedule: the scratch held no full solve of the same graph,
    /// options and universe width.
    pub deltas_declined: u64,
}

impl std::ops::Sub for EngineCounters {
    type Output = EngineCounters;

    fn sub(self, earlier: EngineCounters) -> EngineCounters {
        EngineCounters {
            direct_solves: self.direct_solves - earlier.direct_solves,
            deltas_incremental: self.deltas_incremental - earlier.deltas_incremental,
            deltas_declined: self.deltas_declined - earlier.deltas_declined,
        }
    }
}

/// A reusable arena holding every solver variable of one solve.
///
/// Create once, pass to [`crate::solve_into`] or [`crate::solve_delta`]
/// repeatedly; after the first solve of a given graph/universe shape,
/// subsequent full solves allocate nothing. The solved variables are
/// readable in place through [`SolverScratch::row`] (zero-copy [`BitRef`]
/// views), exported wholesale with
/// [`SolverScratch::export`], or only the production rows with
/// [`SolverScratch::export_productions`].
///
/// # Examples
///
/// ```
/// use gnt_core::{solve_into, PlacementProblem, SolverOptions, SolverScratch};
/// use gnt_cfg::IntervalGraph;
///
/// let p = gnt_ir::parse("do i = 1, N\n  ... = x(a(i))\nenddo")?;
/// let g = IntervalGraph::from_program(&p)?;
/// let body = g.nodes().find(|&n| g.level(n) == 2).unwrap();
/// let mut problem = PlacementProblem::new(g.num_nodes(), 1);
/// problem.take(body, 0);
/// let mut scratch = SolverScratch::new();
/// solve_into(&g, &problem, &SolverOptions::default(), &mut scratch);
/// use gnt_core::{Flavor, Var};
/// assert!(scratch.row(Var::ResIn(Flavor::Eager), g.root()).contains(0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SolverScratch {
    pub(crate) slab: BitSlab,
    nodes: usize,
    bits: usize,
    /// The buffers of [`crate::solve_delta`]'s re-walk.
    pub(crate) worklist: Worklist,
    pub(crate) counters: EngineCounters,
    /// Fingerprint of the graph whose full solve the arena currently
    /// holds, if any — the validity token for
    /// [`crate::solve_delta`]. Set by every full walk, kept by a
    /// re-walk, and cleared by [`SolverScratch::prepare`].
    delta_basis: Option<u64>,
}

impl Default for SolverScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl SolverScratch {
    /// Creates an empty scratch; the first solve sizes it.
    pub fn new() -> Self {
        SolverScratch {
            slab: BitSlab::new(0, 0),
            nodes: 0,
            bits: 0,
            worklist: Worklist::default(),
            counters: EngineCounters::default(),
            delta_basis: None,
        }
    }

    /// Sizes the arena for `nodes` × `bits` and zeroes every row, reusing
    /// the allocation when possible.
    pub(crate) fn prepare(&mut self, nodes: usize, bits: usize) {
        self.nodes = nodes;
        self.bits = bits;
        self.delta_basis = None;
        self.slab.reset(NUM_FAMILIES * nodes + NUM_TEMPS, bits);
    }

    /// The delta-validity token: the fingerprint of the graph whose full
    /// solve this arena holds, if any (see
    /// [`crate::solve_delta`]).
    pub(crate) fn delta_basis(&self) -> Option<u64> {
        self.delta_basis
    }

    pub(crate) fn set_delta_basis(&mut self, basis: Option<u64>) {
        self.delta_basis = basis;
    }

    /// This scratch's engine counters so far.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// Number of graph nodes of the last solve.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Bits per row (the universe size).
    pub fn universe_bits(&self) -> usize {
        self.bits
    }

    #[inline]
    pub(crate) fn fam(&self, family: usize, node: usize) -> usize {
        family * self.nodes + node
    }

    /// The solved row of the Figure-13 variable `var` at node `n`, read
    /// in place.
    pub fn row(&self, var: Var, n: NodeId) -> BitRef<'_> {
        self.slab.row(self.fam(family(var), n.index()))
    }

    /// Total `(node, item)` production points for `flavor`, straight from
    /// the arena (no export needed).
    pub fn num_productions(&self, flavor: Flavor) -> usize {
        let off = flavor_offset(flavor);
        (0..self.nodes)
            .map(|i| {
                self.slab.count(self.fam(F_RES_IN + off, i))
                    + self.slab.count(self.fam(F_RES_OUT + off, i))
            })
            .sum()
    }

    /// `|GIVEN_in^eager(n) − GIVEN_in^lazy(n)|` — the in-flight item count
    /// at `n`'s entry, computed without materialising the difference.
    pub fn in_flight_count(&self, n: NodeId) -> usize {
        self.slab.diff_count(
            self.fam(F_GIVEN_IN, n.index()),
            self.fam(F_GIVEN_IN + FLAVOR_STRIDE, n.index()),
        )
    }

    /// The in-flight items at `n`'s entry, ascending.
    pub fn in_flight_items(&self, n: NodeId) -> Vec<usize> {
        let lazy = self.row(Var::GivenIn(Flavor::Lazy), n);
        self.row(Var::GivenIn(Flavor::Eager), n)
            .iter()
            .filter(|&i| !lazy.contains(i))
            .collect()
    }

    /// Exports the EAGER and LAZY production rows, `RES_in` and `RES_out`,
    /// into owned [`FlavorSolution`]s whose `GIVEN` families stay empty:
    /// 4 of the 20 families [`SolverScratch::export`] copies, and all a
    /// placement is emitted and linted from.
    pub fn export_productions(&self) -> (FlavorSolution, FlavorSolution) {
        let rows = |family: usize| -> Vec<BitSet> {
            (0..self.nodes)
                .map(|i| self.slab.row(self.fam(family, i)).to_bitset())
                .collect()
        };
        let flavor = |flavor: Flavor| {
            let off = flavor_offset(flavor);
            FlavorSolution {
                given_in: Vec::new(),
                given: Vec::new(),
                given_out: Vec::new(),
                res_in: rows(F_RES_IN + off),
                res_out: rows(F_RES_OUT + off),
            }
        };
        (flavor(Flavor::Eager), flavor(Flavor::Lazy))
    }

    /// One flavor's production rows in place, for the checkers.
    pub(crate) fn production_rows(&self, flavor: Flavor) -> ScratchRows<'_> {
        ScratchRows {
            scratch: self,
            off: flavor_offset(flavor),
        }
    }

    /// Exports the arena into an owned [`Solution`].
    pub fn export(&self) -> Solution {
        let mut sol = Solution::empty(self.nodes, self.bits);
        self.write_into(&mut sol);
        sol
    }

    /// Copies every row into `sol`, which must already be shaped for
    /// this scratch's nodes and universe.
    pub(crate) fn write_into(&self, sol: &mut Solution) {
        let put = |family: usize, sets: &mut [BitSet]| {
            debug_assert_eq!(sets.len(), self.nodes);
            for (i, set) in sets.iter_mut().enumerate() {
                let row = self.slab.row(self.fam(family, i));
                set.words_mut().copy_from_slice(row.words());
            }
        };
        let ConsumptionVars {
            steal,
            give,
            block,
            taken_out,
            take,
            taken_in,
            block_loc,
            take_loc,
            give_loc,
            steal_loc,
        } = &mut sol.vars;
        put(F_STEAL, steal);
        put(F_GIVE, give);
        put(F_BLOCK, block);
        put(F_TAKEN_OUT, taken_out);
        put(F_TAKE, take);
        put(F_TAKEN_IN, taken_in);
        put(F_BLOCK_LOC, block_loc);
        put(F_TAKE_LOC, take_loc);
        put(F_GIVE_LOC, give_loc);
        put(F_STEAL_LOC, steal_loc);
        for (flavor, fs) in [
            (Flavor::Eager, &mut sol.eager),
            (Flavor::Lazy, &mut sol.lazy),
        ] {
            let off = flavor_offset(flavor);
            let FlavorSolution {
                given_in,
                given,
                given_out,
                res_in,
                res_out,
            } = fs;
            put(F_GIVEN_IN + off, given_in);
            put(F_GIVEN + off, given);
            put(F_GIVEN_OUT + off, given_out);
            put(F_RES_IN + off, res_in);
            put(F_RES_OUT + off, res_out);
        }
    }
}

/// One flavor's `RES_in`/`RES_out` rows read in place in a
/// [`SolverScratch`] ([`SolverScratch::production_rows`]).
pub(crate) struct ScratchRows<'a> {
    scratch: &'a SolverScratch,
    off: usize,
}

impl ProductionRows for ScratchRows<'_> {
    fn res_in(&self, i: usize) -> &[u64] {
        let s = self.scratch;
        s.slab.row(s.fam(F_RES_IN + self.off, i)).words()
    }

    fn res_out(&self, i: usize) -> &[u64] {
        let s = self.scratch;
        s.slab.row(s.fam(F_RES_OUT + self.off, i)).words()
    }
}
