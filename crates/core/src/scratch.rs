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
//! after warm-up. [`SolverScratch::export`] copies each family out in one
//! bulk pass ([`BitSlab::to_bitsets`]).
//!
//! A scratch also keeps the reversed graph of the last AFTER problem
//! [`crate::solve_after_with_scratch`] solved through it, so a re-solve
//! of an unchanged graph clones the reversal instead of building it
//! again. It keeps one reversal at most, and never a poisoned one.

use crate::blame::Var;
use crate::problem::Flavor;
use crate::solver::{ConsumptionVars, FlavorSolution, Solution, Worklist};
use crate::verify::ProductionRows;
use gnt_cfg::{reversed_graph, GraphError, IntervalGraph, NodeId};
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
    /// Reversed graphs [`crate::solve_after_with_scratch`] built, because
    /// the scratch held no reversal of the graph it was given.
    pub reversals_built: u64,
    /// [`crate::solve_after_with_scratch`] calls that cloned the reversal
    /// the scratch kept from the last one, instead of building it again.
    pub reversals_reused: u64,
}

impl std::ops::Sub for EngineCounters {
    type Output = EngineCounters;

    fn sub(self, earlier: EngineCounters) -> EngineCounters {
        EngineCounters {
            direct_solves: self.direct_solves - earlier.direct_solves,
            deltas_incremental: self.deltas_incremental - earlier.deltas_incremental,
            deltas_declined: self.deltas_declined - earlier.deltas_declined,
            reversals_built: self.reversals_built - earlier.reversals_built,
            reversals_reused: self.reversals_reused - earlier.reversals_reused,
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
/// [`SolverScratch::export_productions`]. AFTER solves through
/// [`crate::solve_after_with_scratch`] also reuse the reversed graph the
/// scratch kept from the last one, when the graph is the same.
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
    /// The reversal of the last graph [`crate::solve_after_with_scratch`]
    /// ran on, never poisoned: at most one graph per scratch.
    reversal: Option<Reversal>,
}

/// A reversed graph and what identifies the forward graph it reverses.
#[derive(Debug)]
struct Reversal {
    /// The forward graph's [`IntervalGraph::fingerprint`].
    fingerprint: u64,
    /// The forward graph's node count; the reversal appends its synthetic
    /// nodes after these.
    nodes: usize,
    reversed: IntervalGraph,
}

impl Reversal {
    /// Whether `reversed` reverses `graph`: the fingerprint, the node
    /// count, ROOT and exit (swapped by the reversal) and every node's
    /// kind, which the reversal copies and the fingerprint leaves out.
    fn reverses(&self, graph: &IntervalGraph) -> bool {
        let r = &self.reversed;
        self.fingerprint == graph.fingerprint()
            && self.nodes == graph.num_nodes()
            && r.root() == graph.exit()
            && r.exit() == graph.root()
            && graph.nodes().all(|n| r.kind(n) == graph.kind(n))
    }
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
            reversal: None,
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

    /// The [`reversed_graph`] of `graph`: a clone of the one this scratch
    /// keeps when it reverses `graph`, else a new build that replaces it.
    /// The caller may poison its copy (§5.3's fallback); the kept one
    /// stays as built.
    pub(crate) fn reversal_of(
        &mut self,
        graph: &IntervalGraph,
    ) -> Result<IntervalGraph, GraphError> {
        if let Some(kept) = self.reversal.as_ref().filter(|r| r.reverses(graph)) {
            self.counters.reversals_reused += 1;
            return Ok(kept.reversed.clone());
        }
        // Drop the old reversal first, so two are never held at once.
        self.reversal = None;
        let reversed = reversed_graph(graph)?;
        self.counters.reversals_built += 1;
        self.reversal = Some(Reversal {
            fingerprint: graph.fingerprint(),
            nodes: graph.num_nodes(),
            reversed: reversed.clone(),
        });
        Ok(reversed)
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
        let flavor = |flavor: Flavor| {
            let off = flavor_offset(flavor);
            FlavorSolution {
                given_in: Vec::new(),
                given: Vec::new(),
                given_out: Vec::new(),
                res_in: self.family_rows(F_RES_IN + off),
                res_out: self.family_rows(F_RES_OUT + off),
            }
        };
        (flavor(Flavor::Eager), flavor(Flavor::Lazy))
    }

    /// Every row of `family`, node by node, copied out in one bulk pass
    /// ([`BitSlab::to_bitsets`]).
    fn family_rows(&self, family: usize) -> Vec<BitSet> {
        let first = self.fam(family, 0);
        self.slab.to_bitsets(first..first + self.nodes)
    }

    /// One flavor's production rows in place, for the checkers.
    pub(crate) fn production_rows(&self, flavor: Flavor) -> ScratchRows<'_> {
        ScratchRows {
            scratch: self,
            off: flavor_offset(flavor),
        }
    }

    /// Exports the arena into an owned [`Solution`]: one bulk copy per
    /// family.
    pub fn export(&self) -> Solution {
        let rows = |family: usize| self.family_rows(family);
        let flavor = |flavor: Flavor| {
            let off = flavor_offset(flavor);
            FlavorSolution {
                given_in: rows(F_GIVEN_IN + off),
                given: rows(F_GIVEN + off),
                given_out: rows(F_GIVEN_OUT + off),
                res_in: rows(F_RES_IN + off),
                res_out: rows(F_RES_OUT + off),
            }
        };
        Solution {
            vars: ConsumptionVars {
                steal: rows(F_STEAL),
                give: rows(F_GIVE),
                block: rows(F_BLOCK),
                taken_out: rows(F_TAKEN_OUT),
                take: rows(F_TAKE),
                taken_in: rows(F_TAKEN_IN),
                block_loc: rows(F_BLOCK_LOC),
                take_loc: rows(F_TAKE_LOC),
                give_loc: rows(F_GIVE_LOC),
                steal_loc: rows(F_STEAL_LOC),
            },
            eager: flavor(Flavor::Eager),
            lazy: flavor(Flavor::Lazy),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{random_problem, random_program, GenConfig};
    use crate::problem::SolverOptions;
    use crate::{solve_after_into, solve_into};

    /// The export [`SolverScratch::export`] replaced, kept as its oracle:
    /// an all-empty solution shaped for the scratch, then a per-set copy
    /// of every row, read in place through [`SolverScratch::row`].
    fn two_pass_export(scratch: &SolverScratch) -> Solution {
        let empty = BitSet::new(scratch.universe_bits());
        let sets = || vec![empty.clone(); scratch.num_nodes()];
        let flavor = || FlavorSolution {
            given_in: sets(),
            given: sets(),
            given_out: sets(),
            res_in: sets(),
            res_out: sets(),
        };
        let mut sol = Solution {
            vars: ConsumptionVars {
                steal: sets(),
                give: sets(),
                block: sets(),
                taken_out: sets(),
                take: sets(),
                taken_in: sets(),
                block_loc: sets(),
                take_loc: sets(),
                give_loc: sets(),
                steal_loc: sets(),
            },
            eager: flavor(),
            lazy: flavor(),
        };
        let put = |var: Var, sets: &mut [BitSet]| {
            for (i, set) in sets.iter_mut().enumerate() {
                let row = scratch.row(var, NodeId(i as u32));
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
        put(Var::Steal, steal);
        put(Var::Give, give);
        put(Var::Block, block);
        put(Var::TakenOut, taken_out);
        put(Var::Take, take);
        put(Var::TakenIn, taken_in);
        put(Var::BlockLoc, block_loc);
        put(Var::TakeLoc, take_loc);
        put(Var::GiveLoc, give_loc);
        put(Var::StealLoc, steal_loc);
        for (flavor, fs) in [
            (Flavor::Eager, &mut sol.eager),
            (Flavor::Lazy, &mut sol.lazy),
        ] {
            let FlavorSolution {
                given_in,
                given,
                given_out,
                res_in,
                res_out,
            } = fs;
            put(Var::GivenIn(flavor), given_in);
            put(Var::Given(flavor), given);
            put(Var::GivenOut(flavor), given_out);
            put(Var::ResIn(flavor), res_in);
            put(Var::ResOut(flavor), res_out);
        }
        sol
    }

    /// The one-pass export equals the two-pass one on forward and
    /// reversed solves of random programs, at universe widths on both
    /// sides of each word boundary, the empty universe included.
    #[test]
    fn export_matches_the_two_pass_export() {
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        for seed in 0..30u64 {
            let g =
                IntervalGraph::from_program(&random_program(seed, &GenConfig::default())).unwrap();
            for cap in [0, 1, 63, 64, 65, 129] {
                let what = format!("seed {seed}, {cap} items");
                let problem = random_problem(seed ^ cap as u64, &g, cap, 0.3);
                solve_into(&g, &problem, &opts, &mut scratch);
                assert_eq!(scratch.export(), two_pass_export(&scratch), "{what}");
                let mut reversed = reversed_graph(&g).unwrap();
                solve_after_into(&mut reversed, &problem, &opts, &mut scratch);
                let exported = scratch.export();
                assert_eq!(exported, two_pass_export(&scratch), "{what}, reversed");
                assert_eq!(exported.eager.res_in.len(), reversed.num_nodes(), "{what}");
            }
        }
    }
}
