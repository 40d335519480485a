//! The host-shape stamp every result carries, and heap accounting.
//!
//! A parallel speed-up can only show on a host whose cores really run in
//! parallel. `nproc` alone does not say so: a 2-CPU container whose CPUs
//! share one physical core reports 2 and runs two threads at the speed of
//! one. The stamp therefore measures `effective_parallelism` directly.

use crate::stats::json_number;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Instant;

/// The shape of the host and build a result was measured on.
#[derive(Clone, Copy, Debug)]
pub struct HostStamp {
    /// Hardware threads available (the global pool's worker count).
    pub nproc: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// The workload seed of the run.
    pub seed: u64,
    /// Serial spin time ÷ `nproc`-thread spin time for the same total
    /// work: ≈ `nproc` on a host with that many free cores, ≈ 1 where the
    /// threads share one.
    pub effective_parallelism: f64,
}

impl HostStamp {
    /// Measures the stamp for a run with `seed`.
    pub fn measure(seed: u64) -> HostStamp {
        let nproc = gnt_dataflow::default_workers();
        HostStamp {
            nproc,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            seed,
            effective_parallelism: effective_parallelism(nproc),
        }
    }

    /// The stamp as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"profile\": \"{}\", \"seed\": {}, \"effective_parallelism\": {}}}",
            self.nproc,
            self.profile,
            self.seed,
            json_number(self.effective_parallelism)
        )
    }
}

/// Dependent multiply-add chain: pure ALU work, no memory traffic.
fn spin(iterations: u64) -> u64 {
    let mut x = 1u64;
    for i in 0..iterations {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    black_box(x)
}

/// Serial time for `threads` units of spin work ÷ the time `threads`
/// threads take for one unit each; the median of a few trials, since one
/// trial is short enough for a descheduled thread to skew it either way.
fn effective_parallelism(threads: usize) -> f64 {
    const UNIT: u64 = 20_000_000;
    const TRIALS: usize = 5;
    let ratios: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..threads {
                spin(black_box(UNIT));
            }
            let serial = start.elapsed().as_secs_f64();
            let start = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| spin(black_box(UNIT)));
                }
            });
            serial / start.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&ratios)
}

/// The system allocator, counting the bytes the process holds.
///
/// Peak memory is the peak of live heap bytes rather than the kernel's
/// peak resident set (`VmHWM`): on identical runs of one seed `VmHWM`
/// landed on 62 or 79 MiB depending on how the C allocator happened to
/// lay out and keep freed blocks, while the bytes the program holds do
/// not depend on that. Each thread batches its changes up to
/// [`CountingAlloc::SLACK`] bytes before touching the shared counters, so
/// the count costs no contended atomic per allocation and the peak is
/// exact to within `SLACK` bytes per thread.
#[derive(Debug)]
pub struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static UNFLUSHED: Cell<isize> = const { Cell::new(0) };
}

impl CountingAlloc {
    /// Bytes a thread may allocate or free before it updates the shared
    /// counters.
    pub const SLACK: isize = 64 << 10;

    fn account(delta: isize) {
        let flush = UNFLUSHED.try_with(|local| {
            let pending = local.get() + delta;
            if pending.abs() < Self::SLACK {
                local.set(pending);
                0
            } else {
                local.set(0);
                pending
            }
        });
        // A thread being torn down has no thread-locals left: count directly.
        let flush = flush.unwrap_or(delta);
        if flush != 0 {
            let live = LIVE.fetch_add(flush, Ordering::Relaxed) + flush;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result; the bookkeeping around the calls
// allocates nothing (a const-initialised thread-local `Cell` and two
// atomics) and never touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::account(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::account(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        Self::account(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            Self::account(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// The peak of live heap bytes so far, in MiB — meaningful when the
/// binary installs [`CountingAlloc`] as its global allocator.
pub fn peak_heap_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
