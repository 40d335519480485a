//! A check-in/check-out pool of warm [`SolverScratch`] arenas.
//!
//! One [`SolverScratch`] is cheap to reuse and expensive to rebuild: it
//! holds the `20·n+2`-row bitset arena *and* the compiled
//! [`crate::ScheduleTape`]s of its last three fingerprints plus the
//! delta-basis token. A batch pipeline
//! that fans whole solver runs out with [`gnt_dataflow::WorkerPool::map`]
//! wants each job to pick up whichever scratch is warm — same
//! allocation, and when the graph shape repeats, the same compiled tapes
//! (a graph solved a second time compiles its tape) — instead of paying
//! a cold arena per job. The fan-out
//! spawns its threads per call, so the warm state lives here, in a
//! process-wide free-list, rather than with any thread.
//!
//! [`ScratchPool::checkout`] pops a warm scratch (or creates one when
//! the pool is empty); the returned [`PooledScratch`] guard derefs to
//! `SolverScratch` and checks the scratch back in on drop — including
//! on unwind, so a panicking job returns its arena rather than leaking
//! it. Checked-in scratches keep their tapes and delta bases; the solver
//! entry points themselves decide validity (tape fingerprints, the
//! delta-basis token), so a stale cache can never corrupt a solve — it
//! only costs a recompile.
//!
//! [`ScratchPool::global`] is the process-wide instance used by the
//! batch lint front-end in `gnt-analyze`; steady-state batch runs
//! allocate nothing once every worker has warmed a scratch.

use crate::scratch::SolverScratch;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

// The whole point of the pool is to move scratches between worker
// threads; assert the capability at compile time (the "Send audit").
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SolverScratch>();
    assert_send::<PooledScratch<'static>>();
};

/// A lock-protected stack of warm [`SolverScratch`] arenas.
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
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<SolverScratch>>,
    created: AtomicUsize,
}

impl ScratchPool {
    /// Creates an empty pool; scratches are built on first checkout.
    pub fn new() -> ScratchPool {
        ScratchPool::default()
    }

    /// The process-wide pool used by the batch lint front-end. Its
    /// population converges on the maximum number of concurrently
    /// checked-out scratches (≈ fan-out width).
    pub fn global() -> &'static ScratchPool {
        static POOL: OnceLock<ScratchPool> = OnceLock::new();
        POOL.get_or_init(ScratchPool::new)
    }

    /// Checks a scratch out: the most recently returned (warmest) one,
    /// or a fresh arena when none are free. The guard checks it back in
    /// on drop.
    pub fn checkout(&self) -> PooledScratch<'_> {
        let scratch = self.free.lock().expect("scratch pool").pop();
        let scratch = scratch.unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            SolverScratch::new()
        });
        PooledScratch {
            pool: self,
            scratch: Some(scratch),
        }
    }

    /// Number of scratches currently checked in (free).
    pub fn warm(&self) -> usize {
        self.free.lock().expect("scratch pool").len()
    }

    /// Total scratches ever created by this pool. Steady-state batch
    /// traffic must not grow this — the determinism and hardening tests
    /// pin it.
    pub fn created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    fn check_in(&self, scratch: SolverScratch) {
        self.free.lock().expect("scratch pool").push(scratch);
    }
}

/// A checked-out [`SolverScratch`]; derefs to the scratch and returns
/// it to its [`ScratchPool`] on drop (also on unwind).
#[derive(Debug)]
pub struct PooledScratch<'a> {
    pool: &'a ScratchPool,
    scratch: Option<SolverScratch>,
}

impl Deref for PooledScratch<'_> {
    type Target = SolverScratch;

    fn deref(&self) -> &SolverScratch {
        self.scratch.as_ref().expect("present until drop")
    }
}

impl DerefMut for PooledScratch<'_> {
    fn deref_mut(&mut self) -> &mut SolverScratch {
        self.scratch.as_mut().expect("present until drop")
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.pool.check_in(scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve, Solution};
    use crate::{solve_batch, GenConfig, SolverOptions};
    use gnt_cfg::IntervalGraph;

    #[test]
    fn checkout_reuses_returned_scratches() {
        let pool = ScratchPool::new();
        {
            let _a = pool.checkout();
            let _b = pool.checkout();
            assert_eq!(pool.created(), 2);
            assert_eq!(pool.warm(), 0);
        }
        assert_eq!(pool.warm(), 2);
        {
            let _c = pool.checkout();
            assert_eq!(pool.created(), 2, "warm scratch reused, none created");
            assert_eq!(pool.warm(), 1);
        }
        assert_eq!(pool.warm(), 2);
    }

    #[test]
    fn a_panicking_holder_still_returns_the_scratch() {
        let pool = ScratchPool::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = pool.checkout();
            panic!("job died");
        }));
        assert!(result.is_err());
        assert_eq!(pool.warm(), 1, "unwind must check the scratch back in");
    }

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
            let mut cold_out = Solution::default();
            solve_batch(&graph, &problem, &opts, &mut cold, &mut cold_out);
            // The pooled scratch is warm from whatever the previous seed
            // left behind (different graph, tapes, delta basis) — the
            // fingerprint checks must make that invisible.
            let mut warm = pool.checkout();
            let mut warm_out = Solution::default();
            solve_batch(&graph, &problem, &opts, &mut warm, &mut warm_out);
            assert_eq!(warm_out, expected, "seed {seed}: warm vs direct");
            assert_eq!(warm_out, cold_out, "seed {seed}: warm vs cold tape");
        }
        assert_eq!(pool.created(), 1, "one worker's traffic needs one scratch");
    }
}
