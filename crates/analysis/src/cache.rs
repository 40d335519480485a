//! A content-fingerprint cache in front of the lint pipeline.
//!
//! A lint service sees the same sources over and over: editors re-lint
//! on save, CI re-lints whole trees where one file changed. The
//! [`PipelineCache`] keys each source by an FNV-1a fingerprint of its
//! *text* plus the analysis-relevant lint options, and serves repeat
//! requests from the cached [`LintReport`] without parsing, building a
//! CFG, or solving anything. Reports are shared (`Arc`), so a hit costs
//! one hash of the source bytes, one map probe, and one text comparison
//! to rule out fingerprint collisions.
//!
//! What is part of the key: the source text, [`LintOptions::select`],
//! [`LintOptions::distributed`], and [`LintOptions::zero_trip`] — the
//! inputs the pipeline analyzes under. What is *not*: `deny`, which
//! filters exit codes after the fact and never changes the report, and
//! the display name, which only labels output.
//!
//! Only successful reports are cached. Parse and pipeline failures
//! re-run — they are cheap (they fail early) and keeping them out means
//! a transient failure can never be pinned by the cache.
//!
//! Eviction is FIFO with a bounded entry count: the workload is "lint
//! the same corpus repeatedly", where FIFO and LRU behave identically
//! until the corpus outgrows the cache, and FIFO needs no per-hit
//! bookkeeping under the lock.

use crate::driver::{LintOptions, LintReport, ProblemSelect};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fingerprints a source text under the analysis-relevant options: an
/// FNV-1a folded over the text and the option fields, with separators so
/// `("ab", zero_trip)` and `("a", "b…")` cannot collide structurally.
fn fingerprint(text: &str, opts: &LintOptions) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, text.as_bytes());
    h = fnv1a(
        h,
        &[
            0xff,
            match opts.select {
                ProblemSelect::Before => 1,
                ProblemSelect::After => 2,
                ProblemSelect::Both => 3,
            },
            u8::from(opts.zero_trip),
        ],
    );
    match &opts.distributed {
        None => h = fnv1a(h, &[0xfe]),
        Some(arrays) => {
            for a in arrays {
                h = fnv1a(h, a.as_bytes());
                h = fnv1a(h, &[0xfd]);
            }
        }
    }
    h
}

struct Entry {
    /// The exact source text, compared on lookup so a fingerprint
    /// collision degrades to a miss, never to a wrong report.
    text: String,
    report: Arc<LintReport>,
}

#[derive(Default)]
struct Inner {
    map: HashMap<u64, Entry>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<u64>,
    hits: u64,
    misses: u64,
}

/// Hit/miss counters of a [`PipelineCache`], for tests and `--profile`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the pipeline.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A bounded, thread-safe cache of [`LintReport`]s keyed by source
/// fingerprint. See the module docs for the keying and eviction
/// contract.
pub struct PipelineCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl PipelineCache {
    /// A cache holding at most `capacity` reports (FIFO eviction).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> PipelineCache {
        assert!(capacity > 0, "a zero-capacity cache cannot hold anything");
        PipelineCache {
            inner: Mutex::new(Inner::default()),
            capacity,
        }
    }

    /// The process-wide cache [`crate::batch::lint_batch`] consults.
    /// 512 entries bounds residency to medium-repo scale while keeping
    /// editor/CI re-lint loops fully resident.
    pub fn global() -> &'static PipelineCache {
        static GLOBAL: OnceLock<PipelineCache> = OnceLock::new();
        GLOBAL.get_or_init(|| PipelineCache::with_capacity(512))
    }

    /// The cached report for `text` under `opts`, if present.
    pub fn get(&self, text: &str, opts: &LintOptions) -> Option<Arc<LintReport>> {
        let key = fingerprint(text, opts);
        let mut inner = self.lock();
        match inner.map.get(&key) {
            Some(entry) if entry.text == text => {
                let report = Arc::clone(&entry.report);
                inner.hits += 1;
                Some(report)
            }
            _ => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores the report for `text` under `opts`, evicting the oldest
    /// entry when full.
    pub fn insert(&self, text: &str, opts: &LintOptions, report: Arc<LintReport>) {
        let key = fingerprint(text, opts);
        let mut inner = self.lock();
        if inner.map.contains_key(&key) {
            return; // a racing worker already cached this source
        }
        while inner.map.len() >= self.capacity {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            inner.map.remove(&oldest);
        }
        inner.map.insert(
            key,
            Entry {
                text: text.to_owned(),
                report,
            },
        );
        inner.order.push_back(key);
    }

    /// Current hit/miss/occupancy counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
        }
    }

    /// Drops every entry and resets the counters.
    pub fn clear(&self) {
        let mut inner = self.lock();
        *inner = Inner::default();
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // No operation under the lock can panic between two writes that
        // must agree (an eviction tolerates an `order` key the map lost),
        // so a poisoned lock is safe to take over, as in `FreeList`.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{lint_batch_on_cached, Source};
    use gnt_dataflow::WorkerPool;

    const FIG1: &str = "do i = 1, N\n  y(i) = ...\nenddo\n\
                        if test then\n  do k = 1, N\n    ... = x(a(k))\n  enddo\n\
                        else\n  do l = 1, N\n    ... = x(a(l))\n  enddo\nendif";

    #[test]
    fn repeat_lints_hit_and_share_the_report() {
        let cache = PipelineCache::with_capacity(8);
        let pool = WorkerPool::new(1);
        let sources = vec![Source::new("a.minif", FIG1)];
        let opts = LintOptions::default();
        let cold = lint_batch_on_cached(&pool, &sources, &opts, Some(&cache));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                entries: 1
            }
        );
        let warm = lint_batch_on_cached(&pool, &sources, &opts, Some(&cache));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // The warm outcome is the same report, not a re-computation.
        let (a, b) = (
            warm[0].result.as_ref().unwrap(),
            cold[0].result.as_ref().unwrap(),
        );
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(a.diagnostics.len(), b.diagnostics.len());
    }

    /// A panic while the lock is held poisons it; every method then takes
    /// the lock over and the cached report is still served.
    #[test]
    fn a_poisoned_lock_is_recovered() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let cache = PipelineCache::with_capacity(8);
        let pool = WorkerPool::new(1);
        let sources = vec![Source::new("a.minif", FIG1)];
        let opts = LintOptions::default();
        let cold = lint_batch_on_cached(&pool, &sources, &opts, Some(&cache));
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            let _guard = cache.inner.lock();
            panic!("poison the pipeline cache");
        }));
        assert!(poisoned.is_err());
        assert!(cache.inner.is_poisoned());
        let warm = lint_batch_on_cached(&pool, &sources, &opts, Some(&cache));
        let (a, b) = (
            warm[0].result.as_ref().unwrap(),
            cold[0].result.as_ref().unwrap(),
        );
        assert!(Arc::ptr_eq(a, b), "served from the cache");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn text_changes_invalidate() {
        let cache = PipelineCache::with_capacity(8);
        let pool = WorkerPool::new(1);
        let opts = LintOptions::default();
        lint_batch_on_cached(&pool, &[Source::new("a.minif", FIG1)], &opts, Some(&cache));
        // One byte of difference (an added comment) is a different
        // program as far as the cache is concerned.
        let edited = format!("{FIG1}\n! edited\n");
        lint_batch_on_cached(
            &pool,
            &[Source::new("a.minif", edited)],
            &opts,
            Some(&cache),
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));
    }

    #[test]
    fn analysis_options_are_part_of_the_key_but_deny_is_not() {
        let cache = PipelineCache::with_capacity(8);
        let pool = WorkerPool::new(1);
        let sources = vec![Source::new("a.minif", FIG1)];
        let base = LintOptions::default();
        lint_batch_on_cached(&pool, &sources, &base, Some(&cache));
        // zero-trip analyzes differently: miss.
        let zt = LintOptions {
            zero_trip: true,
            ..Default::default()
        };
        lint_batch_on_cached(&pool, &sources, &zt, Some(&cache));
        assert_eq!(cache.stats().misses, 2);
        // deny only filters exit codes: hit.
        let deny = LintOptions {
            deny: vec!["all".to_string()],
            ..Default::default()
        };
        lint_batch_on_cached(&pool, &sources, &deny, Some(&cache));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn fifo_eviction_bounds_residency() {
        let cache = PipelineCache::with_capacity(2);
        let pool = WorkerPool::new(1);
        let opts = LintOptions::default();
        let src = |i: usize| Source::new(format!("p{i}.minif"), format!("x({i}) = 1\n{FIG1}"));
        for i in 0..3 {
            lint_batch_on_cached(&pool, &[src(i)], &opts, Some(&cache));
        }
        assert_eq!(cache.stats().entries, 2);
        // p0 was evicted first; p2 (newest) is still resident.
        lint_batch_on_cached(&pool, &[src(0)], &opts, Some(&cache));
        assert_eq!(cache.stats().hits, 0);
        lint_batch_on_cached(&pool, &[src(2)], &opts, Some(&cache));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn parse_failures_are_not_cached() {
        let cache = PipelineCache::with_capacity(8);
        let pool = WorkerPool::new(1);
        let opts = LintOptions::default();
        let bad = vec![Source::new("bad.minif", "do i = 1,\n")];
        let outcomes = lint_batch_on_cached(&pool, &bad, &opts, Some(&cache));
        assert!(outcomes[0].result.is_err());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn batch_output_is_identical_with_and_without_the_cache() {
        let cache = PipelineCache::with_capacity(64);
        let opts = LintOptions {
            zero_trip: true,
            ..Default::default()
        };
        let sources: Vec<Source> = (0..8)
            .map(|i| Source::new(format!("p{i}.minif"), FIG1))
            .collect();
        for threads in [1usize, 4] {
            let pool = WorkerPool::new(threads);
            let cold = lint_batch_on_cached(&pool, &sources, &opts, None);
            let warm = lint_batch_on_cached(&pool, &sources, &opts, Some(&cache));
            for (c, w) in cold.iter().zip(warm.iter()) {
                assert_eq!(c.name, w.name);
                let (c, w) = (c.result.as_ref().unwrap(), w.result.as_ref().unwrap());
                let render = |r: &LintReport| {
                    r.diagnostics
                        .iter()
                        .map(|d| format!("{d:?}"))
                        .collect::<Vec<_>>()
                        .join("\n")
                };
                assert_eq!(render(c), render(w));
            }
        }
    }
}
