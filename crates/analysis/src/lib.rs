//! `gnt-analyze`: a placement linter for the GIVE-N-TAKE reproduction.
//!
//! This crate turns the framework's independent verifiers into a
//! static-analysis tool for MiniF programs and their solved placements,
//! with three layers:
//!
//! 1. **Diagnostics** ([`diag`]) — stable `GNT0xx` codes (one per
//!    failure shape of the paper's Figures 4–10, plus structural and
//!    communication lints), anchored to byte spans of the original
//!    source and rendered rustc-style or as JSON.
//! 2. **Lint passes** — placement criteria C1/C2/C3/O1 and optimality
//!    comparisons O2/O3/O3' ([`placement`]), the §3.3/§3.4 graph
//!    invariants reported instead of panicking ([`invariants`]), and a
//!    communication-plan pass with dead/redundant-transfer detection and
//!    a static race/deadlock detector that replays Send/Recv windows
//!    along execution paths ([`comm_lint`]).
//! 3. **Driver** ([`driver`]) — the full pipeline behind the `gnt-lint`
//!    binary: `gnt-lint file.minif [--before|--after] [--deny CODE]
//!    [--format=json]`, exiting nonzero on denied findings.
//!
//! # Examples
//!
//! Linting the paper's Figure 1 — the solver's own output is clean:
//!
//! ```
//! use gnt_analyze::driver::{lint_source, LintOptions};
//!
//! let src = "do i = 1, N\n  y(i) = ...\nenddo\n\
//!            if test then\n  do k = 1, N\n    ... = x(a(k))\n  enddo\n\
//!            else\n  do l = 1, N\n    ... = x(a(l))\n  enddo\nendif";
//! let (_, report) = lint_source(src, &LintOptions::default())?;
//! assert!(report.diagnostics.is_empty());
//! assert_eq!(report.exit_code(&[]), 0);
//! # Ok::<(), gnt_analyze::driver::LintError>(())
//! ```
//!
//! Reporting a hand-made criteria violation with a source span:
//!
//! ```
//! use gnt_analyze::diag::attach_spans;
//! use gnt_analyze::placement::{lint_placement, PlacementLintOptions};
//! use gnt_core::{PlacementProblem, SolverOptions};
//!
//! let src = "a = 1\nb = 2";
//! let program = gnt_ir::parse(src)?;
//! let graph = gnt_cfg::IntervalGraph::from_program(&program)?;
//! let problem = PlacementProblem::new(graph.num_nodes(), 1);
//! // Produce item 0 at the first statement — nothing ever consumes it.
//! let mut sol = gnt_core::solve(&graph, &problem, &SolverOptions::default());
//! let stmt = graph.nodes().find(|&n| graph.kind(n).stmt().is_some()).unwrap();
//! sol.eager.res_in[stmt.index()].insert(0);
//! sol.lazy.res_in[stmt.index()].insert(0);
//! let mut diags = lint_placement(
//!     &graph, &problem, &sol.eager, &sol.lazy, &PlacementLintOptions::default(),
//! );
//! attach_spans(&mut diags, &gnt_cfg::node_spans(&program, &graph));
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].code, "GNT003");
//! assert_eq!(diags[0].primary_span.unwrap().slice(src), "a = 1");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod audit;
pub mod batch;
pub mod cache;
pub mod comm_lint;
pub mod diag;
pub mod driver;
pub mod invariants;
pub mod placement;
pub mod provenance;
pub mod sarif;

/// Path-enumeration bound of the bounded-path replays (Layer 2's
/// zero-trip pass and Layer 3's plan replay): maximum visits per edge.
pub(crate) const MAX_EDGE_VISITS: usize = 2;
/// Path-enumeration bound of the bounded-path replays: maximum number of
/// paths.
pub(crate) const MAX_PATHS: usize = 256;

pub use audit::{audit_placement, audit_plan, AuditOptions};
pub use batch::{
    batch_exit_code, lint_batch, lint_batch_on, lint_batch_on_cached, LintOutcome, Source,
};
pub use cache::{CacheStats, PipelineCache};
pub use comm_lint::{lint_plan, CommLintOptions};
pub use diag::{
    attach_spans, explain, render_json, render_json_batch, render_text, render_text_into,
    CodeFamily, Diagnostic, RelatedInfo, Severity, REGISTRY,
};
pub use driver::{
    lint_program, lint_program_with_scratch, lint_source, lint_source_timed, LintError,
    LintOptions, LintReport, StageTimings,
};
pub use invariants::lint_graph;
pub use placement::{lint_placement, PlacementLintOptions};
pub use provenance::{render_chain, render_why_not, run_query, QuerySpec};
pub use sarif::{render_sarif, render_sarif_batch};
