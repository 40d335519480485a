//! Stress tests for the scoped fan-out [`WorkerPool::map`]: long runs
//! of sequential calls, many client threads fanning out at once, nested
//! fan-outs on the global pool, scrambled completion order and panic
//! storms. None of them reads a process-global counter, so they stay
//! exact however many tests run beside them.
//!
//! Iteration counts scale with the `GNT_STRESS` environment variable
//! (default 1): CI's stress job runs these in release with a multiplier,
//! the default `cargo test` keeps them cheap.

use gnt_dataflow::{global_pool, WorkerPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Stress multiplier from the environment (`GNT_STRESS`, default 1).
fn stress() -> usize {
    std::env::var("GNT_STRESS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

#[test]
fn many_sequential_maps_stay_within_the_width() {
    let pool = WorkerPool::new(4);
    let items: Vec<usize> = (0..8).collect();
    let now = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    for round in 0..100 * stress() {
        let out = pool.map(&items, |&i| {
            let running = now.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(running, Ordering::SeqCst);
            std::thread::yield_now();
            now.fetch_sub(1, Ordering::SeqCst);
            i + round
        });
        assert_eq!(out, (round..round + 8).collect::<Vec<_>>());
    }
    let peak = peak.load(Ordering::SeqCst);
    assert!(
        (1..=4).contains(&peak),
        "{peak} jobs in flight on 4 workers"
    );
}

#[test]
fn concurrent_maps_from_many_client_threads() {
    // One shared pool, many external threads fanning out at once: every
    // call must return all of its own results, in order.
    let pool = WorkerPool::new(4);
    let total = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for client in 0..8usize {
            let (pool, total) = (&pool, &total);
            s.spawn(move || {
                for round in 0..25 * stress() {
                    let items = [client, round, client + round, 1];
                    let out = pool.map(&items, |&x| x * 2);
                    assert_eq!(out, items.map(|x| x * 2), "client {client} round {round}");
                    total.fetch_add(out.len(), Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(total.load(Ordering::Relaxed), 8 * 25 * stress() * 4);
}

#[test]
fn panic_storm_reaches_every_caller() {
    // Every call of the storm has panicking jobs; each must re-raise one
    // of them, and a clean call between storms runs normally.
    let pool = WorkerPool::new(2);
    let items: Vec<usize> = (0..8).collect();
    for round in 0..10 * stress() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, |&i| -> usize { panic!("storm {round} job {i}") })
        }));
        let payload = result.expect_err("map must propagate the job panic");
        let message = payload
            .downcast_ref::<String>()
            .expect("panic payload is the job's message");
        assert!(
            message.starts_with(&format!("storm {round} job ")),
            "{message}"
        );

        assert_eq!(pool.map(&items, |&i| i), items);
    }
}

#[test]
fn nested_maps_on_the_global_pool_complete() {
    // A fan-out from inside a fan-out job (a lint job whose solve shards)
    // only spawns more scoped threads, so it completes however wide the
    // tree is.
    let outer: Vec<usize> = (0..8).collect();
    let inner: Vec<usize> = (0..4).collect();
    for _ in 0..10 * stress() {
        let leaves = global_pool().map(&outer, |&o| {
            global_pool()
                .map(&inner, |&i| global_pool().map(&[o, i], |&x| x).len())
                .iter()
                .sum::<usize>()
        });
        assert_eq!(leaves, vec![inner.len() * 2; outer.len()]);
    }
}

#[test]
fn results_are_ordered_by_input_not_schedule() {
    // The batch front-end's determinism rests on input-ordered results;
    // stress the same shape directly with completion order scrambled.
    let pool = WorkerPool::new(4);
    let items: Vec<usize> = (0..64).collect();
    for round in 0..20 * stress() {
        let out = pool.map(&items, |&i| {
            for _ in 0..(i * 7 + round) % 5 {
                std::thread::yield_now();
            }
            i * i
        });
        assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
    }
}
