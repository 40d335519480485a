//! The `gnt-lint` driver: parse a MiniF program, run the full pipeline
//! (analysis → placement → communication plan), and lint every layer.
//!
//! The driver is what the CLI binary wraps; it is equally usable as a
//! library (see `examples/lint_report.rs` at the workspace root).
//!
//! The serial entry points ([`lint_program`], [`lint_source`],
//! [`lint_source_timed`]) check their solver scratch out of
//! [`gnt_core::ScratchPool::global`], and CFG construction checks its
//! buffers out of [`gnt_cfg::CfgScratchPool::global`]. Both are bounded
//! [`gnt_dataflow::FreeList`]s, so a process that lints file after file
//! reuses one warm scratch of each kind.

use crate::audit::audit_plan;
use crate::comm_lint::{lint_plan_counted, CommLintOptions};
use crate::diag::{attach_spans, Diagnostic, Severity};
use crate::invariants::lint_graph;
use crate::placement::{lint_placement_counted, PlacementLintOptions};
use crate::provenance::{chain_trail, why_not_trail};
use gnt_cfg::{node_spans, DotOverlay};
use gnt_comm::{analyze_timed, generate_with_placement, CommConfig, CommPlan, GenerateOptions};
use gnt_core::{BlameEngine, Flavor, SolverOptions, Var};
use gnt_ir::{Program, StmtKind, Symbol};
use std::fmt;

/// Which communication problems to lint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProblemSelect {
    /// Only the BEFORE (READ) problem.
    Before,
    /// Only the AFTER (WRITE) problem.
    After,
    /// Both (the default).
    #[default]
    Both,
}

/// Output format for the CLI.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OutputFormat {
    /// Human-readable rustc-style text.
    #[default]
    Text,
    /// Machine-readable JSON array.
    Json,
    /// SARIF 2.1.0 log (blame trails as `relatedLocations`).
    Sarif,
}

/// Options controlling a lint run.
#[derive(Clone, Debug, Default)]
pub struct LintOptions {
    /// Which communication problems to lint.
    pub select: ProblemSelect,
    /// Diagnostic codes to deny (`"all"` denies everything). Errors
    /// always fail the run; denied warnings fail it too.
    pub deny: Vec<String>,
    /// Distributed arrays; `None` auto-detects every subscripted name.
    pub distributed: Option<Vec<String>>,
    /// Also lint zero-trip executions (reported as warnings).
    pub zero_trip: bool,
}

/// The outcome of linting one program.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// All diagnostics, errors first, in stable order.
    pub diagnostics: Vec<Diagnostic>,
    /// The communication plan the program was linted against.
    pub plan: CommPlan,
}

impl LintReport {
    /// `true` if any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of diagnostics failing the run under `deny`.
    pub fn denied(&self, deny: &[String]) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| {
                d.severity == Severity::Error
                    || deny
                        .iter()
                        .any(|c| c == d.code || c.eq_ignore_ascii_case("all"))
            })
            .count()
    }

    /// Process exit code under `deny`: 0 clean, 1 denied findings.
    pub fn exit_code(&self, deny: &[String]) -> i32 {
        i32::from(self.denied(deny) > 0)
    }

    /// A Graphviz overlay marking every diagnostic-carrying node, for
    /// [`gnt_cfg::to_dot`].
    pub fn overlay(&self) -> DotOverlay {
        let mut overlay = DotOverlay::new();
        for d in &self.diagnostics {
            if let Some(n) = d.node {
                overlay.add(n, format!("{}: {}", d.code, d.message));
            }
        }
        overlay
    }
}

/// A failure to lint at all (as opposed to lint findings).
#[derive(Debug)]
pub enum LintError {
    /// The source failed to parse.
    Parse(gnt_ir::ParseError),
    /// The pipeline itself failed (graph construction, plan generation).
    Pipeline(String),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Parse(e) => write!(f, "parse error: {e}"),
            LintError::Pipeline(e) => write!(f, "analysis error: {e}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Auto-detects distributed arrays: every name used with a subscript
/// anywhere in the program, in first-appearance order.
pub fn detect_distributed(program: &Program) -> Vec<String> {
    // Deduplicated by symbol id; each name is turned into a `String`
    // once, at the end.
    let mut names: Vec<Symbol> = Vec::new();
    let mut add = |n: Symbol| {
        if !names.contains(&n) {
            names.push(n);
        }
    };
    let mut exprs: Vec<&gnt_ir::Expr> = Vec::new();
    for (_, stmt) in program.iter() {
        exprs.clear();
        match &stmt.kind {
            StmtKind::Assign { lhs, rhs } => {
                if let gnt_ir::LValue::Element(name, idx) = lhs {
                    add(*name);
                    exprs.push(idx);
                }
                exprs.push(rhs);
            }
            StmtKind::Do { lo, hi, .. } => exprs.extend([lo, hi]),
            StmtKind::If { cond, .. } | StmtKind::IfGoto { cond, .. } => exprs.push(cond),
            StmtKind::Goto(_) | StmtKind::Continue => {}
        }
        for e in &exprs {
            for (name, _) in e.subscripted_refs() {
                add(name);
            }
        }
    }
    names.into_iter().map(String::from).collect()
}

/// Attaches a blame trail to a node-and-item-carrying diagnostic: a
/// `because:` chain when the item is available at the finding's node
/// (`GIVEN_in`), a `blocked by:` chain when it is not. Findings that
/// already carry a trail (the audits) are left alone.
fn enrich(d: &mut Diagnostic, engine: &BlameEngine<'_>, item_names: &[String]) {
    if !d.related.is_empty() {
        return;
    }
    let (Some(node), Some(item)) = (d.node, d.item) else {
        return;
    };
    if node.index() >= engine.graph().num_nodes() {
        return;
    }
    let name = item_names
        .get(item)
        .cloned()
        .unwrap_or_else(|| format!("item {item}"));
    let var = Var::GivenIn(Flavor::Eager);
    if let Some(chain) = engine.why(var, node, item) {
        d.related.extend(chain_trail(&chain, &name));
    } else if let Some(wn) = engine.why_not(var, node, item) {
        d.related.extend(why_not_trail(&wn, &name));
    }
}

/// Wall-clock nanoseconds spent in each pipeline stage, produced by
/// [`lint_source_timed`] for `gnt-lint --profile`. "cfg" covers lowering
/// and interval-graph assembly, "analyze" the communication analysis
/// that walks them, "reverse" the reversed graph of the WRITE problem,
/// "criteria" Layer 2's placement lints; "lint" is everything not
/// attributed to another stage (invariant layers, audits, blame
/// enrichment, span attachment). The run's solve and solver-engine
/// counts, bounded-path replay counts, O1 fixpoint rounds and reused
/// WRITE verdicts ride along.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Source → AST.
    pub parse_ns: u64,
    /// AST → CFG → interval graph.
    pub cfg_ns: u64,
    /// Communication analysis: per-statement accesses, the universe's
    /// relation rows and the initial variables of both problems.
    pub analyze_ns: u64,
    /// Building the reversed interval graph of the WRITE (AFTER) problem,
    /// inside generation.
    pub reverse_ns: u64,
    /// Placement solves: the plan's READ and WRITE solves (run inside
    /// generation) plus any blame re-derivation.
    pub solve_ns: u64,
    /// Communication plan generation, its reversed graph and solves
    /// excluded.
    pub generate_ns: u64,
    /// Layer 2: the placement criteria of both problems (C1–C3, O1 and
    /// the zero-trip pass), their blame excluded.
    pub criteria_ns: u64,
    /// The other lint layers, audits, blame, span attachment.
    pub lint_ns: u64,
    /// Paths the lint layers replayed (placement zero-trip pass and
    /// plan replay together).
    pub paths_replayed: u64,
    /// Path enumerations cut short by their `MAX_PATHS` bound (more
    /// paths existed).
    pub enumerations_truncated: u64,
    /// Sweeps the O1 must-availability fixpoint (`GNT004`) ran, summed
    /// over the READ and WRITE fixpoints; each one's last sweep confirms
    /// it.
    pub o1_rounds: u64,
    /// Placement solves run: the plan's two, plus one blame
    /// re-derivation per problem whose placement lint found something.
    pub solves: u64,
    /// WRITE C1/C3 verdicts Layer 2 took from the WRITE solve's §5.3
    /// check instead of checking again: 1 when that check ran and passed
    /// on the rows Layer 2 lints, else 0.
    pub checks_reused: u64,
    /// The run's solver-engine counts. Every solve of a lint is a full
    /// walk of the schedule, so a run re-solves no delta, and its direct
    /// solves are the plan's (2, or 3 with §5.3's poisoned fallback) plus
    /// the blame re-derivations.
    pub engine: gnt_core::EngineCounters,
}

impl StageTimings {
    /// Sum over all stages.
    pub fn total_ns(&self) -> u64 {
        self.parse_ns
            + self.cfg_ns
            + self.analyze_ns
            + self.reverse_ns
            + self.solve_ns
            + self.generate_ns
            + self.criteria_ns
            + self.lint_ns
    }

    /// One JSON object (no trailing newline), the `--profile` line.
    pub fn to_json(&self, file: &str) -> String {
        format!(
            "{{\"file\":\"{}\",\"parse_ns\":{},\"cfg_ns\":{},\"analyze_ns\":{},\
             \"reverse_ns\":{},\"solve_ns\":{},\"generate_ns\":{},\"criteria_ns\":{},\"lint_ns\":{},\
             \"total_ns\":{},\"solves\":{},\"direct_solves\":{},\
             \"paths_replayed\":{},\"enumerations_truncated\":{},\"o1_rounds\":{},\"checks_reused\":{}}}",
            crate::diag::json_escape(file),
            self.parse_ns,
            self.cfg_ns,
            self.analyze_ns,
            self.reverse_ns,
            self.solve_ns,
            self.generate_ns,
            self.criteria_ns,
            self.lint_ns,
            self.total_ns(),
            self.solves,
            self.engine.direct_solves,
            self.paths_replayed,
            self.enumerations_truncated,
            self.o1_rounds,
            self.checks_reused,
        )
    }
}

fn elapsed_ns(from: std::time::Instant) -> u64 {
    u64::try_from(from.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Lints `program` end to end and returns every finding with source
/// spans attached (when the program was parsed).
///
/// The solver workspace comes from [`gnt_core::ScratchPool::global`], so
/// repeated calls (and the batch front-end, [`crate::batch::lint_batch`])
/// reuse warm arenas instead of allocating.
///
/// # Errors
///
/// Fails only when the pipeline itself cannot run (irreducible control
/// flow, plan generation failure) — lint findings are not errors.
pub fn lint_program(program: &Program, opts: &LintOptions) -> Result<LintReport, LintError> {
    let mut scratch = gnt_core::ScratchPool::global().checkout();
    lint_program_with_scratch(program, opts, &mut scratch)
}

/// [`lint_program`] with a caller-provided solver workspace: one scratch
/// arena backs the whole pipeline — the plan's READ/WRITE solves walk
/// their schedules directly, and blame re-derives a solve into it. The
/// batch front-end checks scratches out of a [`gnt_core::ScratchPool`]
/// per worker and calls this.
///
/// # Errors
///
/// Fails only when the pipeline itself cannot run (irreducible control
/// flow, plan generation failure) — lint findings are not errors.
pub fn lint_program_with_scratch(
    program: &Program,
    opts: &LintOptions,
    scratch: &mut gnt_core::SolverScratch,
) -> Result<LintReport, LintError> {
    lint_program_inner(program, opts, scratch, &mut StageTimings::default())
}

/// The pipeline body. Stage boundaries are timed into `timings` (the
/// `Instant` reads cost nanoseconds against millisecond stages, so the
/// untimed entry points share this body rather than duplicating it);
/// `lint_ns` is the run's remainder after the attributed stages.
fn lint_program_inner(
    program: &Program,
    opts: &LintOptions,
    scratch: &mut gnt_core::SolverScratch,
    timings: &mut StageTimings,
) -> Result<LintReport, LintError> {
    let run_start = std::time::Instant::now();
    let engine_at_start = scratch.counters();
    let distributed = opts
        .distributed
        .clone()
        .unwrap_or_else(|| detect_distributed(program));
    let refs: Vec<&str> = distributed.iter().map(String::as_str).collect();
    let stage = std::time::Instant::now();
    let (analysis, graph_ns) = analyze_timed(program, &CommConfig::distributed(&refs))
        .map_err(|e| LintError::Pipeline(e.to_string()))?;
    timings.cfg_ns = graph_ns;
    timings.analyze_ns = elapsed_ns(stage).saturating_sub(graph_ns);
    let stage = std::time::Instant::now();
    let (plan, placement) = generate_with_placement(analysis, &GenerateOptions::default(), scratch)
        .map_err(|e| LintError::Pipeline(e.to_string()))?;
    timings.solves = placement.solves;
    timings.solve_ns = placement.solve_ns;
    timings.reverse_ns = placement.reverse_ns;
    timings.generate_ns =
        elapsed_ns(stage).saturating_sub(placement.solve_ns + placement.reverse_ns);
    let graph = &plan.analysis.graph;

    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    // Layer 1: structural invariants of both graph orientations.
    diagnostics.extend(lint_graph(graph, false));
    diagnostics.extend(lint_graph(&placement.reversed, true));

    let item_names: Vec<String> = plan
        .analysis
        .universe
        .iter()
        .map(|(_, r)| r.to_string())
        .collect();

    // Layer 2: the placement criteria of both problems, on the solutions
    // the plan was emitted from — READ shifted as emitted, WRITE (the
    // coupled problem, on the reversed graph) unshifted, since the shift
    // does not preserve its sufficiency (`shift_off_synthetic`). O2/O3/O3'
    // and the placement audits (`audit_placement`) compare with a shifted
    // re-solve: for READ that is the solution itself; for the unshifted
    // WRITE solution it does not apply, and only `tests/solver_clean.rs`
    // checks them on it. The zero-trip pass runs on READ only.
    // When the WRITE solve's §5.3 check passed, it checked C1 and C3 on
    // exactly the WRITE rows linted here, so that verdict is reused. It
    // would not carry over to a shifted WRITE placement.
    let mut layer2 = Vec::new();
    if opts.select != ProblemSelect::After {
        let read = (&placement.read_eager, &placement.read_lazy);
        layer2.push((
            graph,
            &plan.analysis.read_problem,
            read,
            opts.zero_trip,
            false,
        ));
    }
    if opts.select != ProblemSelect::Before {
        let write = (&placement.write_eager, &placement.write_lazy);
        let checked = placement.write_checked;
        layer2.push((
            &placement.reversed,
            &placement.write_problem,
            write,
            false,
            checked,
        ));
    }
    let solver_opts = SolverOptions::default();
    for (g, problem, (eager, lazy), zero_trip, checked) in layer2 {
        let popts = PlacementLintOptions {
            check_optimality: false,
            zero_trip,
            item_names: item_names.clone(),
        };
        let stage = std::time::Instant::now();
        let mut found = lint_placement_counted(g, problem, eager, lazy, &popts, checked, timings);
        timings.criteria_ns += elapsed_ns(stage);
        timings.checks_reused += u64::from(checked);
        if !found.is_empty() {
            // Blame needs the full solve in the scratch: re-derive it.
            let stage = std::time::Instant::now();
            gnt_core::solve_into(g, problem, &solver_opts, scratch);
            timings.solve_ns += elapsed_ns(stage);
            timings.solves += 1;
            let engine = BlameEngine::new(g, problem, scratch);
            for d in &mut found {
                enrich(d, &engine, &item_names);
            }
        }
        diagnostics.extend(found);
    }
    drop(placement);

    // Layer 3: the communication plan itself — dead/redundant transfers
    // and the race/deadlock replay.
    let copts = CommLintOptions {
        reads: opts.select != ProblemSelect::After,
        writes: opts.select != ProblemSelect::Before,
        zero_trip: opts.zero_trip,
    };
    diagnostics.extend(lint_plan_counted(&plan, &copts, timings));
    // GNT030: mergeable same-slot transfers (message aggregation, §6).
    diagnostics.extend(audit_plan(&plan, &item_names));

    let spans = node_spans(program, graph);
    attach_spans(&mut diagnostics, &spans);
    diagnostics.sort_by_key(|d| {
        (
            std::cmp::Reverse(d.severity),
            d.code,
            d.node.map_or(usize::MAX, gnt_cfg::NodeId::index),
        )
    });
    timings.engine = scratch.counters() - engine_at_start;
    timings.lint_ns = elapsed_ns(run_start).saturating_sub(
        timings.cfg_ns
            + timings.analyze_ns
            + timings.reverse_ns
            + timings.generate_ns
            + timings.solve_ns
            + timings.criteria_ns,
    );
    Ok(LintReport { diagnostics, plan })
}

/// Parses `src` and lints it; the convenience entry point used by the
/// CLI and tests.
///
/// # Errors
///
/// Fails on parse errors and pipeline failures (see [`lint_program`]).
pub fn lint_source(src: &str, opts: &LintOptions) -> Result<(Program, LintReport), LintError> {
    let program = gnt_ir::parse(src).map_err(LintError::Parse)?;
    let report = lint_program(&program, opts)?;
    Ok((program, report))
}

/// [`lint_source`] with per-stage wall-clock attribution — the engine
/// behind `gnt-lint --profile`. Always runs the pipeline (no cache), so
/// the timings describe real stage work.
///
/// # Errors
///
/// Fails on parse errors and pipeline failures (see [`lint_program`]).
pub fn lint_source_timed(
    src: &str,
    opts: &LintOptions,
) -> Result<(Program, LintReport, StageTimings), LintError> {
    let mut timings = StageTimings::default();
    let stage = std::time::Instant::now();
    let program = gnt_ir::parse(src).map_err(LintError::Parse)?;
    timings.parse_ns = elapsed_ns(stage);
    let mut scratch = gnt_core::ScratchPool::global().checkout();
    let report = lint_program_inner(&program, opts, &mut scratch, &mut timings)?;
    Ok((program, report, timings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_distributed_keeps_first_appearance_order_once_per_name() {
        let p = gnt_ir::parse(
            "y(a(i)) = x(b(i)) + y(1)\ndo k = 1, c(2)\n  ... = x(k) + a(k)\nenddo\nif d(1) goto 5\n5 continue",
        )
        .unwrap();
        // The target first, then its subscript's references, then the
        // right-hand side's, inner references before outer ones.
        assert_eq!(detect_distributed(&p), ["y", "a", "b", "x", "c", "d"]);
    }
}
