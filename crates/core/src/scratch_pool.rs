//! The process-wide pool of warm [`SolverScratch`] arenas.
//!
//! One [`SolverScratch`] is cheap to reuse and expensive to rebuild: it
//! holds the `20·n+2`-row bitset arena, the buffers of the delta re-walk
//! and the delta-basis token. The lint entry points in `gnt-analyze` (the
//! batch jobs of [`gnt_dataflow::WorkerPool::map`] and the serial
//! `lint_source`) check one out of [`ScratchPool::global`], a bounded
//! [`gnt_dataflow::FreeList`], so each run picks up whichever scratch is
//! warm. Checked-in scratches keep their delta bases; the solver entry
//! points decide validity (the delta-basis token), so a stale scratch
//! can never corrupt a solve — it only costs a full walk.

use crate::scratch::SolverScratch;
use gnt_dataflow::{FreeList, Pooled};

/// A [`FreeList`] of warm [`SolverScratch`] arenas.
///
/// # Examples
///
/// ```
/// use gnt_core::ScratchPool;
///
/// let pool = ScratchPool::new();
/// {
///     let mut scratch = pool.checkout();
///     let _ = &mut *scratch; // use like a &mut SolverScratch
/// } // returned to the pool here
/// assert_eq!(pool.warm(), 1);
/// assert_eq!(pool.created(), 1);
/// let _again = pool.checkout(); // no new allocation
/// assert_eq!(pool.created(), 1);
/// ```
pub type ScratchPool = FreeList<SolverScratch>;

impl Pooled for SolverScratch {
    fn global() -> &'static ScratchPool {
        static POOL: ScratchPool = ScratchPool::new();
        &POOL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve;
    use crate::{solve_into, GenConfig, SolverOptions};
    use gnt_cfg::IntervalGraph;

    #[test]
    fn warm_checkouts_solve_bit_identically_to_cold_scratches() {
        let pool = ScratchPool::new();
        let opts = SolverOptions::default();
        for seed in 0..20u64 {
            let program = crate::random_program(seed, &GenConfig::default());
            let graph = IntervalGraph::from_program(&program).expect("reducible");
            let problem = crate::random_problem(seed, &graph, 70, 0.4);
            let expected = solve(&graph, &problem, &opts);
            let mut cold = SolverScratch::new();
            solve_into(&graph, &problem, &opts, &mut cold);
            // The pooled scratch is warm from whatever the previous seed
            // left behind (different graph, delta basis) — the
            // fingerprint checks must make that invisible.
            let mut warm = pool.checkout();
            solve_into(&graph, &problem, &opts, &mut warm);
            let warm_out = warm.export();
            assert_eq!(warm_out, expected, "seed {seed}: warm vs direct");
            assert_eq!(warm_out, cold.export(), "seed {seed}: warm vs cold scratch");
        }
        assert_eq!(pool.created(), 1, "one worker's traffic needs one scratch");
    }
}
