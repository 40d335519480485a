//! The GIVE-N-TAKE balanced code placement framework.
//!
//! This crate is the primary contribution of *GIVE-N-TAKE — A Balanced
//! Code Placement Framework* (R. von Hanxleden and K. Kennedy, PLDI
//! 1994): a generalization of partial redundancy elimination that views
//! code placement as a producer–consumer problem and computes **balanced
//! pairs** of placements — an EAGER solution (production as far from the
//! consumers as legal) and a LAZY solution (as close as legal) that match
//! one-to-one on every execution path. The gap between the two is a
//! *production region* usable for latency hiding (send/receive splitting,
//! prefetching).
//!
//! # Overview
//!
//! * describe consumption with a [`PlacementProblem`] (`TAKE_init`,
//!   `STEAL_init`, `GIVE_init` per node of a
//!   [`gnt_cfg::IntervalGraph`]);
//! * [`solve`] a BEFORE problem (produce before consuming: operand
//!   fetches, READ generation, classical PRE) or [`solve_after`] an AFTER
//!   problem (produce after consuming: stores, WRITE generation);
//! * inspect the result: `RES_in`/`RES_out` per node for both flavors
//!   ([`Solution`], [`FlavorSolution`]), plus every intermediate variable
//!   of the paper's Figure 13 ([`ConsumptionVars`]);
//! * post-process with [`shift_off_synthetic`] (§5.4) and validate with
//!   the independent checkers ([`check_balance`], [`check_sufficiency`],
//!   [`check_path`]).
//!
//! # Examples
//!
//! The paper's Figure 1/2: a gather consumed in both branches of a
//! conditional is sent once, at the top of the program, and received just
//! before each consuming loop:
//!
//! ```
//! use gnt_cfg::IntervalGraph;
//! use gnt_core::{solve, PlacementProblem, SolverOptions};
//!
//! let program = gnt_ir::parse(
//!     "do i = 1, N\n  y(i) = ...\nenddo\n\
//!      if test then\n  do k = 1, N\n    ... = x(a(k))\n  enddo\n\
//!      else\n  do l = 1, N\n    ... = x(a(l))\n  enddo\nendif",
//! )?;
//! let graph = IntervalGraph::from_program(&program)?;
//! let mut problem = PlacementProblem::new(graph.num_nodes(), 1);
//! for n in graph.nodes() {
//!     // the two x(a(·)) references, recognized as the same item
//!     if graph.level(n) == 2 && matches!(graph.kind(n), gnt_cfg::NodeKind::Stmt(s) if s.0 != 0) {
//!         problem.take(n, 0);
//!     }
//! }
//! let solution = solve(&graph, &problem, &SolverOptions::default());
//! // One send, hoisted to the very top (ROOT) for maximal latency hiding.
//! assert!(solution.eager.res_in[graph.root().index()].contains(0));
//! assert_eq!(solution.eager.num_productions(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod after;
mod blame;
mod delta;
mod generator;
mod pressure;
mod problem;
mod scratch;
mod scratch_pool;
mod shift;
mod solver;
mod verify;

pub use after::{solve_after, solve_after_into, solve_after_with_scratch, AfterSolution};
pub use blame::{
    check_chain, Absence, BlameChain, BlameEngine, BlameStep, Reason, Root, Var, WhyNot, WhyNotStep,
};
pub use delta::{solve_delta, DeltaKind, DeltaReport, DeltaSet};
pub use generator::{random_problem, random_program, sized_program, GenConfig};
pub use pressure::{measure_pressure, solve_with_pressure_limit_in_place, PressureReport};
pub use problem::{Flavor, PlacementProblem, SolverOptions};
pub use scratch::{EngineCounters, SolverScratch};
pub use scratch_pool::ScratchPool;
pub use shift::{shift_off_synthetic, ShiftReport};
/// Another name of [`solve_into`], kept for callers of the batch entry
/// points.
pub use solver::solve_into as solve_batch_into;
pub use solver::{
    solve, solve_batch, solve_batch_with_scratch, solve_into, ConsumptionVars, FlavorSolution,
    Solution,
};
pub use verify::{
    check_balance, check_path, check_sufficiency, check_sufficiency_pair, enumerate_paths,
    for_each_path, path_has_zero_trip, Path, PathChecker, Violation,
};
