//! Dataflow substrate for the GIVE-N-TAKE reproduction.
//!
//! This crate provides the machinery shared by the GIVE-N-TAKE solver
//! (`gnt-core`), the PRE baselines (`gnt-pre`), and the correctness
//! verifiers:
//!
//! * [`BitSet`] — dense bit vectors over a finite universe,
//! * [`BitSlab`] — a flat arena of bit rows with fused word-level kernels,
//!   the zero-allocation data plane of the GIVE-N-TAKE solver,
//! * [`WorkerPool`] — a scoped, input-ordered fan-out
//!   ([`WorkerPool::map`]), the parallel primitive of the batch lint
//!   front-end,
//! * [`FreeList`] — a bounded check-out pool of warm values, where the
//!   solver and CFG scratches wait between the fan-out's jobs,
//! * [`Universe`] — interning of domain items ([`ItemId`]) into bitset
//!   indices,
//! * [`GenKillProblem`] — a generic iterative (worklist) solver for classic
//!   gen/kill bit-vector problems over any [`FlowGraph`], the engine of
//!   the checkers' reference oracles,
//! * [`sweep`] — the round-robin kernel of the placement checkers (C1,
//!   C3, C2 reach, O1 availability): flat [`WordRows`], a
//!   [`reverse_postorder`] and dirty-node rounds.
//!
//! # Examples
//!
//! Reaching "productions" on a diamond:
//!
//! ```
//! use gnt_dataflow::{BitSet, Direction, GenKillProblem, Meet, SimpleGraph};
//!
//! let g = SimpleGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3);
//! let mut gen = vec![BitSet::new(1); 4];
//! gen[1].insert(0);
//! let problem = GenKillProblem {
//!     direction: Direction::Forward,
//!     meet: Meet::Intersection,
//!     gen,
//!     kill: vec![BitSet::new(1); 4],
//!     boundary: BitSet::new(1),
//! };
//! let solution = problem.solve(&g);
//! assert!(!solution.before[3].contains(0)); // not produced on the 0→2 path
//! ```

#![warn(missing_docs)]

mod bitset;
mod pool;
mod scratch_pool;
mod slab;
mod solver;
mod sweep;
mod universe;

pub use bitset::{BitSet, Iter};
pub use pool::{default_workers, global_pool, WorkerPool};
pub use scratch_pool::{Checkout, FreeList, Pooled};
pub use slab::{BitMut, BitRef, BitSlab};
pub use solver::{Direction, FlowGraph, GenKillProblem, Meet, SimpleGraph, Solution};
pub use sweep::{reverse_postorder, sweep, Dirty, WordRows};
pub use universe::{ItemId, Universe};
