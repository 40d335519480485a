//! A scoped, input-ordered fan-out over a fixed worker width.
//!
//! Every parallel caller in the workspace is a flat fan-out: one job per
//! input (a source file to lint) whose result lands in that input's
//! slot. [`WorkerPool::map`] is that
//! shape and nothing more. It runs on [`std::thread::scope`]: the
//! calling thread plus `min(workers, items.len()) − 1` scoped threads
//! pull the next input index from one shared counter until the inputs
//! run out, and the results come back in input order whatever order the
//! jobs finished in. Jobs may borrow from the caller, a job may itself
//! call `map` (it only spawns more scoped threads), and a panicking job
//! propagates its panic to the caller once the other threads have
//! joined.
//!
//! Threads are spawned per call and joined before `map` returns. No
//! queue, parked thread or cross-call state exists, so there is nothing
//! to shut down and nothing for a panic to poison. The warm state a job
//! wants (solver arenas, CFG scratch) lives in
//! process-wide [`crate::FreeList`]s (`gnt_core::ScratchPool`,
//! `gnt_cfg::CfgScratchPool`), which do not depend on which thread
//! checks them out.
//!
//! [`global_pool`] is the process-wide width, sized to the available
//! parallelism; the batch lint front-end in `gnt-analyze` fans out
//! through it.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// Fan-out threads spawned by [`WorkerPool::map`] in this process,
/// across all pools — the statistic behind
/// [`WorkerPool::threads_spawned`].
static THREADS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// A fan-out width: how many threads, the caller's included, one
/// [`WorkerPool::map`] call runs its jobs on.
///
/// # Examples
///
/// ```
/// use gnt_dataflow::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let squares = pool.map(&[1u64, 2, 3, 4, 5, 6, 7, 8], |&x| x * x);
/// assert_eq!(squares, [1, 4, 9, 16, 25, 36, 49, 64]);
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// Creates a pool `workers` threads wide (at least one).
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// The pool's width: the most jobs one [`WorkerPool::map`] call runs
    /// at once.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Fan-out threads spawned by [`WorkerPool::map`] so far in this
    /// process, across every [`WorkerPool`]. A call over `k` items on a
    /// `w`-wide pool adds `min(w, k) − 1`, so the count grows with every
    /// parallel call.
    pub fn threads_spawned() -> usize {
        THREADS_SPAWNED.load(Ordering::Relaxed)
    }

    /// Applies `f` to every item on up to [`WorkerPool::workers`]
    /// threads — the caller's and `min(workers, items.len()) − 1` scoped
    /// ones — and returns the results in input order. Each thread takes
    /// the next unclaimed index until none is left, so uneven jobs
    /// balance themselves. With one worker or at most one item, `f` runs
    /// on the calling thread alone and nothing is spawned.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a job that panicked, after every thread
    /// has joined. Items not yet claimed when a job panics may or may
    /// not run.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let helpers = self.workers.min(items.len()).saturating_sub(1);
        if helpers == 0 {
            return items.iter().map(f).collect();
        }
        // The counter hands out indices only; the results travel back
        // through the joins, which order every job before the merge.
        let next = AtomicUsize::new(0);
        let run = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    return done;
                };
                done.push((i, f(item)));
            }
        };
        let mut done = thread::scope(|s| {
            let handles: Vec<_> = (0..helpers)
                .map(|_| {
                    THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
                    s.spawn(run)
                })
                .collect();
            let mut done = run();
            for handle in handles {
                done.extend(handle.join().unwrap_or_else(|panic| resume_unwind(panic)));
            }
            done
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    }
}

/// The worker count the process-wide pool uses: exactly the host's
/// [`std::thread::available_parallelism`] (1 when detection fails).
/// More workers than hardware threads only adds contention — the
/// committed benchmarks measured an 8-worker batch lint running slower
/// than 1 worker on a single-CPU host — so the *default* never
/// oversubscribes; callers wanting a specific width (e.g. `--jobs N`)
/// build their own [`WorkerPool`].
pub fn default_workers() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// The process-wide pool, created on first use and sized to
/// [`default_workers`]. Batch lint jobs across the whole process fan
/// out to this width.
pub fn global_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(default_workers()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// Counts jobs running at once and keeps the highest count seen.
    #[derive(Default)]
    struct Gauge {
        now: AtomicUsize,
        peak: AtomicUsize,
    }

    impl Gauge {
        fn run<R>(&self, job: impl FnOnce() -> R) -> R {
            let now = self.now.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            let r = job();
            self.now.fetch_sub(1, Ordering::SeqCst);
            r
        }
    }

    #[test]
    fn map_returns_results_in_input_order_and_allows_borrows() {
        let pool = WorkerPool::new(3);
        let offset = 7usize;
        let items: Vec<usize> = (0..40).collect();
        let out = pool.map(&items, |&i| i + offset);
        assert_eq!(out, (7..47).collect::<Vec<_>>());
    }

    #[test]
    fn input_order_survives_scrambled_completion() {
        // Item 0 is held until every later item has finished, so it
        // completes last; its result must still come back first.
        let pool = WorkerPool::new(2);
        let items: Vec<usize> = (0..16).collect();
        let finished = AtomicUsize::new(0);
        let out = pool.map(&items, |&i| {
            if i == 0 {
                while finished.load(Ordering::SeqCst) < items.len() - 1 {
                    thread::yield_now();
                }
            }
            finished.fetch_add(1, Ordering::SeqCst);
            i * i
        });
        assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn in_flight_jobs_never_exceed_the_width() {
        for workers in [1usize, 2, 3] {
            let pool = WorkerPool::new(workers);
            let gauge = Gauge::default();
            let items: Vec<usize> = (0..64).collect();
            let out = pool.map(&items, |&i| {
                gauge.run(|| {
                    thread::yield_now();
                    i
                })
            });
            assert_eq!(out, items);
            let peak = gauge.peak.load(Ordering::SeqCst);
            assert!(
                (1..=workers).contains(&peak),
                "{peak} jobs at once on {workers} workers"
            );
        }
    }

    #[test]
    fn the_width_is_reached_when_jobs_overlap() {
        // Every job waits at a barrier sized to the width, so the call
        // completes only if `workers` jobs really run at once.
        let pool = WorkerPool::new(3);
        let barrier = Barrier::new(3);
        let gauge = Gauge::default();
        pool.map(&[(); 3], |_| gauge.run(|| barrier.wait()));
        assert_eq!(gauge.peak.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn a_single_worker_runs_everything_on_the_caller() {
        let pool = WorkerPool::new(1);
        let caller = thread::current().id();
        let items: Vec<usize> = (0..8).collect();
        let threads = pool.map(&items, |_| thread::current().id());
        assert!(threads.iter().all(|&t| t == caller));
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let out: Vec<u8> = WorkerPool::new(4).map(&[] as &[u8], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn nested_maps_inside_jobs_complete() {
        let pool = WorkerPool::new(2);
        let outer: Vec<usize> = (0..6).collect();
        let inner: Vec<usize> = (0..4).collect();
        let sums = pool.map(&outer, |&o| {
            pool.map(&inner, |&i| o * 10 + i).iter().sum::<usize>()
        });
        assert_eq!(sums, outer.iter().map(|o| 40 * o + 6).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "boom at 5")]
    fn a_job_panic_reaches_the_caller() {
        let pool = WorkerPool::new(2);
        let items: Vec<usize> = (0..8).collect();
        pool.map(&items, |&i| {
            if i == 5 {
                panic!("boom at {i}");
            }
            i
        });
    }

    #[test]
    fn global_pool_never_oversubscribes_the_host() {
        assert_eq!(
            global_pool().workers(),
            thread::available_parallelism().map_or(1, usize::from)
        );
    }

    #[test]
    fn global_pool_is_shared_and_working() {
        let p1 = global_pool() as *const WorkerPool;
        let p2 = global_pool() as *const WorkerPool;
        assert_eq!(p1, p2);
        let out = global_pool().map(&[1, 2, 3, 4, 5, 6, 7, 8], |&x| x + 1);
        assert_eq!(out, [2, 3, 4, 5, 6, 7, 8, 9]);
    }
}
