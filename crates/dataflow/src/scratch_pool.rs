//! A bounded check-out pool of warm, reusable values.
//!
//! Solver arenas (`gnt_core::SolverScratch`) and CFG construction
//! buffers (`gnt_cfg::CfgScratch`) are cheap to reuse and costly to
//! rebuild. [`crate::WorkerPool::map`] spawns its threads per call, so
//! the warm values live in a process-wide [`FreeList`] rather than with
//! any thread: a job checks a value out, and the [`Checkout`] guard
//! checks it back in on drop, also on unwind. A list keeps at most 32
//! values and drops the extras, so the memory it holds stays bounded
//! whatever the fan-out.
//!
//! A type names its process-wide list by implementing [`Pooled`];
//! `gnt_core::ScratchPool` and `gnt_cfg::CfgScratchPool` are
//! `FreeList`s of the two scratch types.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The most values a [`FreeList`] keeps checked in.
const CAP: usize = 32;

/// A type with one process-wide [`FreeList`], reached as
/// `FreeList::<T>::global()`.
pub trait Pooled: Default + Send + Sized + 'static {
    /// This type's process-wide free list.
    fn global() -> &'static FreeList<Self>;
}

/// A lock-protected stack of at most 32 warm values.
///
/// # Examples
///
/// ```
/// use gnt_dataflow::FreeList;
///
/// static POOL: FreeList<Vec<u64>> = FreeList::new();
/// POOL.checkout().push(7); // checked back in, allocation and all
/// assert_eq!(POOL.checkout().pop(), Some(7));
/// assert_eq!(POOL.created(), 1);
/// ```
#[derive(Debug, Default)]
pub struct FreeList<T> {
    free: Mutex<Vec<T>>,
    created: AtomicUsize,
}

impl<T> FreeList<T> {
    /// An empty list; values are created on first checkout.
    pub const fn new() -> FreeList<T> {
        FreeList {
            free: Mutex::new(Vec::new()),
            created: AtomicUsize::new(0),
        }
    }

    /// Number of values currently checked in.
    pub fn warm(&self) -> usize {
        self.lock().len()
    }

    /// Values this list has ever created. Steady-state traffic leaves
    /// it unchanged.
    pub fn created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, Vec<T>> {
        // Push and pop leave the list valid wherever a panic stops them,
        // so a poisoned lock is safe to take over.
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> FreeList<T> {
    /// Checks out the most recently returned (warmest) value, or a new
    /// one when none is free.
    pub fn checkout(&self) -> Checkout<'_, T> {
        let warm = self.lock().pop();
        let value = warm.unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            T::default()
        });
        Checkout { list: self, value }
    }
}

impl<T: Pooled> FreeList<T> {
    /// `T`'s process-wide list.
    pub fn global() -> &'static FreeList<T> {
        T::global()
    }
}

/// A checked-out value; derefs to it and checks it back in on drop.
#[derive(Debug)]
pub struct Checkout<'a, T: Default> {
    list: &'a FreeList<T>,
    value: T,
}

impl<T: Default> Deref for Checkout<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: Default> DerefMut for Checkout<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: Default> Drop for Checkout<'_, T> {
    fn drop(&mut self) {
        let value = std::mem::take(&mut self.value);
        let mut free = self.list.lock();
        if free.len() < CAP {
            free.push(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn checkout_reuses_returned_scratches() {
        let pool = FreeList::<Vec<u8>>::new();
        {
            let mut a = pool.checkout();
            a.reserve(100);
            let _b = pool.checkout();
            assert_eq!(pool.created(), 2);
            assert_eq!(pool.warm(), 0);
        }
        assert_eq!(pool.warm(), 2);
        {
            let c = pool.checkout();
            assert_eq!(pool.created(), 2, "warm value reused, none created");
            assert_eq!(pool.warm(), 1);
            // Last in, first out: `a` went back after `_b`.
            assert!(c.capacity() >= 100);
        }
        assert_eq!(pool.warm(), 2);
    }

    #[test]
    fn a_panicking_holder_still_returns_the_scratch() {
        let pool = FreeList::<Vec<u8>>::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut held = pool.checkout();
            held.push(1);
            panic!("job died");
        }));
        assert!(result.is_err());
        assert_eq!(pool.warm(), 1, "unwind must check the value back in");
        assert_eq!(*pool.checkout(), [1]);
        assert_eq!(pool.created(), 1);
    }

    #[test]
    fn check_ins_beyond_the_cap_are_dropped() {
        let pool = FreeList::<Vec<u8>>::new();
        let held: Vec<_> = (0..CAP + 5).map(|_| pool.checkout()).collect();
        assert_eq!(pool.created(), CAP + 5);
        drop(held);
        assert_eq!(pool.warm(), CAP);
        let again: Vec<_> = (0..CAP + 5).map(|_| pool.checkout()).collect();
        assert_eq!(pool.created(), CAP + 10, "only the extras are new");
        drop(again);
        assert_eq!(pool.warm(), CAP);
    }

    #[test]
    fn a_poisoned_lock_is_recovered() {
        let pool = FreeList::<Vec<u8>>::new();
        drop(pool.checkout());
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            let _guard = pool.free.lock();
            panic!("poison the free list");
        }));
        assert!(poisoned.is_err());
        assert!(pool.free.is_poisoned());
        assert_eq!(pool.warm(), 1);
        drop(pool.checkout());
        drop(pool.checkout());
        assert_eq!(pool.warm(), 1);
        assert_eq!(pool.created(), 1, "the warm value survived the poison");
    }

    #[test]
    fn created_counts_only_new_values() {
        static POOL: FreeList<Vec<u8>> = FreeList::new();
        assert_eq!((POOL.created(), POOL.warm()), (0, 0));
        for round in 1..=3 {
            let held: Vec<_> = (0..round).map(|_| POOL.checkout()).collect();
            assert_eq!(POOL.created(), round, "round {round}");
            drop(held);
            assert_eq!(POOL.warm(), round);
        }
    }

    #[test]
    fn contended_checkouts_return_every_value() {
        const THREADS: usize = 8;
        let pool = FreeList::<Vec<usize>>::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let pool = &pool;
                s.spawn(move || {
                    for i in 0..200 {
                        let mut v = pool.checkout();
                        v.push(t * 1000 + i);
                        std::thread::yield_now();
                    }
                });
            }
        });
        assert!(pool.created() <= THREADS, "{} created", pool.created());
        assert!(pool.warm() <= CAP);
        assert_eq!(pool.warm(), pool.created(), "every value came back");
        let mut pushed = Vec::new();
        let held: Vec<_> = (0..pool.created()).map(|_| pool.checkout()).collect();
        for v in &held {
            pushed.extend_from_slice(v);
        }
        assert_eq!(pool.created(), held.len(), "all were warm");
        pushed.sort_unstable();
        let expected: Vec<usize> = (0..THREADS)
            .flat_map(|t| (0..200).map(move |i| t * 1000 + i))
            .collect();
        assert_eq!(pushed, expected, "every checkout's work came back");
    }
}
