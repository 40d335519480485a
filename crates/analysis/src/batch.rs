//! Batch lint front-end: fan whole pipeline runs over the worker pool.
//!
//! The unit of traffic for a lint service is the *program*:
//! [`lint_batch`] maps one job per source over a
//! [`gnt_dataflow::WorkerPool`] (the process-wide
//! [`gnt_dataflow::global_pool`] by default). Each job checks a warm
//! [`gnt_core::SolverScratch`] out of [`gnt_core::ScratchPool::global`]
//! and runs the complete pipeline — parse → CFG/intervals → analyze →
//! solve → generate → lint — so steady-state batches reuse the
//! scratches' arenas and cached schedule tapes whichever thread runs
//! the job.
//!
//! Results come back **in input order** regardless of scheduling:
//! [`gnt_dataflow::WorkerPool::map`] returns them by input index, so the
//! diagnostic stream for a batch is byte-identical at any thread count
//! (the determinism tests pin 1, 2, and 8 workers against each other).
//!
//! # Examples
//!
//! ```
//! use gnt_analyze::batch::{batch_exit_code, lint_batch, Source};
//! use gnt_analyze::driver::LintOptions;
//!
//! let fig1 = "do i = 1, N\n  y(i) = ...\nenddo\n\
//!             if test then\n  do k = 1, N\n    ... = x(a(k))\n  enddo\n\
//!             else\n  do l = 1, N\n    ... = x(a(l))\n  enddo\nendif";
//! let sources = vec![
//!     Source::new("a.minif", fig1),
//!     Source::new("b.minif", fig1),
//! ];
//! let outcomes = lint_batch(&sources, &LintOptions::default());
//! assert_eq!(outcomes.len(), 2);
//! assert_eq!(outcomes[0].name, "a.minif");
//! assert!(outcomes[0].result.as_ref().unwrap().diagnostics.is_empty());
//! assert_eq!(batch_exit_code(&outcomes, &[]), 0);
//! ```

use crate::cache::PipelineCache;
use crate::driver::{lint_program_with_scratch, LintError, LintOptions, LintReport};
use gnt_core::ScratchPool;
use gnt_dataflow::{global_pool, WorkerPool};
use std::sync::Arc;

/// One named program to lint — typically a file path and its contents.
#[derive(Clone, Debug)]
pub struct Source {
    /// Display name (used in diagnostics and outcome ordering).
    pub name: String,
    /// MiniF source text.
    pub text: String,
}

impl Source {
    /// Creates a source from a name and its text.
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> Source {
        Source {
            name: name.into(),
            text: text.into(),
        }
    }

    /// Reads a source from a file, named by its path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from reading the file.
    pub fn from_file(path: &std::path::Path) -> std::io::Result<Source> {
        Ok(Source {
            name: path.display().to_string(),
            text: std::fs::read_to_string(path)?,
        })
    }
}

/// The result of linting one batch entry: the source's name plus either
/// its [`LintReport`] or the failure that kept the pipeline from running.
#[derive(Debug)]
pub struct LintOutcome {
    /// The [`Source::name`] this outcome belongs to.
    pub name: String,
    /// The lint report, or the parse/pipeline failure. Reports are
    /// shared: a batch served from the [`PipelineCache`] hands out the
    /// same `Arc` the cold run produced.
    pub result: Result<Arc<LintReport>, LintError>,
}

impl LintOutcome {
    /// Per-entry process exit code under `deny`: `2` when the pipeline
    /// failed (parse/analysis error), `1` on denied findings, else `0`.
    pub fn exit_code(&self, deny: &[String]) -> i32 {
        match &self.result {
            Ok(report) => report.exit_code(deny),
            Err(_) => 2,
        }
    }
}

/// Aggregate exit code for a whole batch: the maximum of the per-entry
/// codes (`2` usage/parse beats `1` denied findings beats `0` clean),
/// matching the single-file CLI contract.
pub fn batch_exit_code(outcomes: &[LintOutcome], deny: &[String]) -> i32 {
    outcomes
        .iter()
        .map(|o| o.exit_code(deny))
        .max()
        .unwrap_or(0)
}

/// Lints every source end to end on the process-wide worker pool,
/// serving unchanged sources from the process-wide [`PipelineCache`],
/// and returns the outcomes in input order. See the module docs for the
/// scheduling and determinism contract.
pub fn lint_batch(sources: &[Source], opts: &LintOptions) -> Vec<LintOutcome> {
    lint_batch_on_cached(global_pool(), sources, opts, Some(PipelineCache::global()))
}

/// [`lint_batch`] on a caller-provided pool, with no cache in front —
/// the benchmark harness uses this to compare fixed 1-thread and
/// 8-thread pools on one machine, and to keep its cold-pipeline rows
/// honest.
pub fn lint_batch_on(
    pool: &WorkerPool,
    sources: &[Source],
    opts: &LintOptions,
) -> Vec<LintOutcome> {
    lint_batch_on_cached(pool, sources, opts, None)
}

/// The general batch front-end: a caller-provided pool and an optional
/// [`PipelineCache`]. Each job first consults the cache (one FNV-1a
/// hash of the source plus a map probe); on a miss it checks a warm
/// scratch out of the global [`ScratchPool`], runs the full pipeline,
/// and publishes the report for the next batch. The diagnostic stream
/// is byte-identical with and without the cache at any worker count.
pub fn lint_batch_on_cached(
    pool: &WorkerPool,
    sources: &[Source],
    opts: &LintOptions,
    cache: Option<&PipelineCache>,
) -> Vec<LintOutcome> {
    pool.map(sources, |source| {
        let result = match cache.and_then(|c| c.get(&source.text, opts)) {
            Some(report) => Ok(report),
            None => {
                let mut scratch = ScratchPool::global().checkout();
                let fresh = gnt_ir::parse(&source.text)
                    .map_err(LintError::Parse)
                    .and_then(|program| lint_program_with_scratch(&program, opts, &mut scratch))
                    .map(Arc::new);
                if let (Some(c), Ok(report)) = (cache, &fresh) {
                    c.insert(&source.text, opts, Arc::clone(report));
                }
                fresh
            }
        };
        LintOutcome {
            name: source.name.clone(),
            result,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = "do i = 1, N\n  y(i) = ...\nenddo\n\
                        if test then\n  do k = 1, N\n    ... = x(a(k))\n  enddo\n\
                        else\n  do l = 1, N\n    ... = x(a(l))\n  enddo\nendif";

    #[test]
    fn outcomes_come_back_in_input_order() {
        let sources: Vec<Source> = (0..16)
            .map(|i| Source::new(format!("p{i}.minif"), FIG1))
            .collect();
        let outcomes = lint_batch(&sources, &LintOptions::default());
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.name, format!("p{i}.minif"));
            assert!(o.result.is_ok());
        }
    }

    #[test]
    fn parse_failures_are_outcomes_not_batch_failures() {
        let sources = vec![
            Source::new("good.minif", FIG1),
            Source::new("bad.minif", "do i = 1,\n"),
        ];
        let outcomes = lint_batch(&sources, &LintOptions::default());
        assert!(outcomes[0].result.is_ok());
        assert!(matches!(outcomes[1].result, Err(LintError::Parse(_))));
        assert_eq!(outcomes[0].exit_code(&[]), 0);
        assert_eq!(outcomes[1].exit_code(&[]), 2);
        assert_eq!(batch_exit_code(&outcomes, &[]), 2);
    }

    #[test]
    fn empty_batch_is_clean() {
        let outcomes = lint_batch(&[], &LintOptions::default());
        assert!(outcomes.is_empty());
        assert_eq!(batch_exit_code(&outcomes, &[]), 0);
    }
}
