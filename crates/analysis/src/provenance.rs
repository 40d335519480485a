//! Rendering and CLI plumbing for blame/why-not queries.
//!
//! The query engine itself lives in [`gnt_core::BlameEngine`]; this
//! module turns its chains into human-readable text (`gnt-lint --why` /
//! `--why-not`) and into [`RelatedInfo`] note trails
//! (`because: …` / `blocked by: …`) that the driver attaches to GNT0xx
//! findings.

use crate::diag::RelatedInfo;
use crate::driver::{detect_distributed, LintError, LintOptions, ProblemSelect};
use gnt_cfg::NodeId;
use gnt_comm::{analyze, generate_with_placement, CommConfig, GenerateOptions};
use gnt_core::{
    check_chain, Absence, BlameChain, BlameEngine, Reason, SolverOptions, SolverScratch, Var,
    WhyNot,
};
use gnt_ir::{Program, Span};
use std::fmt::Write as _;

/// A parsed `--why` / `--why-not` query: `NODE:ITEM[:VAR]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    /// Interval-graph node index.
    pub node: usize,
    /// Item: a universe index (`"0"`) or a section display name
    /// (`"x(a(1:N))"`).
    pub item: String,
    /// Queried variable; defaults to `res_in.eager`.
    pub var: Var,
}

impl QuerySpec {
    /// Parses `NODE:ITEM[:VAR]`. `ITEM` may itself contain colons
    /// (`x(6:N+5)`): the part after the *last* colon is treated as `VAR`
    /// only if it names a Figure-13 variable.
    ///
    /// # Errors
    ///
    /// Returns a usage message when the spec cannot be parsed.
    pub fn parse(s: &str) -> Result<QuerySpec, String> {
        let (node_str, rest) = s
            .split_once(':')
            .ok_or_else(|| format!("expected NODE:ITEM[:VAR], got `{s}`"))?;
        let node: usize = node_str
            .parse()
            .map_err(|_| format!("`{node_str}` is not a node index"))?;
        let (item, var) = match rest.rsplit_once(':') {
            Some((head, tail)) => match Var::parse(tail) {
                Some(var) => (head.to_string(), var),
                None => (rest.to_string(), Var::ResIn(gnt_core::Flavor::Eager)),
            },
            None => (rest.to_string(), Var::ResIn(gnt_core::Flavor::Eager)),
        };
        if item.is_empty() {
            return Err(format!("empty ITEM in `{s}`"));
        }
        Ok(QuerySpec { node, item, var })
    }
}

fn location(node: NodeId, spans: &[Option<Span>], file: &str, src: &str) -> String {
    match spans.get(node.index()).copied().flatten() {
        Some(span) => {
            let (line, col) = span.start_line_col(src);
            let text = span.slice(src).lines().next().unwrap_or("").trim();
            format!("{file}:{line}:{col}: `{text}`")
        }
        None => format!("node {node}"),
    }
}

/// Renders a why-chain as an indented derivation, one line per link,
/// ending in the root.
pub fn render_chain(
    chain: &BlameChain,
    item_name: &str,
    spans: &[Option<Span>],
    file: &str,
    src: &str,
) -> String {
    let mut out = String::new();
    let first = &chain.steps[0];
    let _ = writeln!(
        out,
        "why {}({}) contains {item_name}:",
        first.var, first.node
    );
    for step in &chain.steps {
        let loc = location(step.node, spans, file, src);
        match &step.reason {
            Reason::Term { eq, what } => {
                let _ = writeln!(out, "  {}({}) — Eq. {eq}: {what}", step.var, step.node);
                let _ = writeln!(out, "      at {loc}");
            }
            Reason::Root(root) => {
                let _ = writeln!(out, "  {}({}) — root: {root}", step.var, step.node);
                let _ = writeln!(out, "      at {loc}");
            }
        }
    }
    out
}

/// Renders a why-not result: the absence chain, then (when the bit was
/// killed rather than never generated) the blocking conjunct's own
/// derivation.
pub fn render_why_not(
    wn: &WhyNot,
    item_name: &str,
    spans: &[Option<Span>],
    file: &str,
    src: &str,
) -> String {
    let mut out = String::new();
    let first = &wn.steps[0];
    let _ = writeln!(
        out,
        "why {}({}) does NOT contain {item_name}:",
        first.var, first.node
    );
    for step in &wn.steps {
        let loc = location(step.node, spans, file, src);
        match &step.absence {
            Absence::Blocked {
                eq,
                killer,
                at,
                what,
            } => {
                let _ = writeln!(
                    out,
                    "  {}({}) — Eq. {eq}: blocked by {killer}({at}): {what}",
                    step.var, step.node
                );
                let _ = writeln!(out, "      at {loc}");
            }
            Absence::Missing { eq, what } => {
                let _ = writeln!(out, "  {}({}) — Eq. {eq}: {what}", step.var, step.node);
                let _ = writeln!(out, "      at {loc}");
            }
            Absence::Never { eq, what } => {
                let _ = writeln!(out, "  {}({}) — Eq. {eq}: {what}", step.var, step.node);
                let _ = writeln!(out, "      at {loc}");
            }
        }
    }
    if let Some(blocker) = &wn.blocker {
        let _ = writeln!(out, "the blocking conjunct derives as:");
        out.push_str(&render_chain(blocker, item_name, spans, file, src));
    }
    out
}

/// Converts a why-chain into `because:` trail entries for a diagnostic.
/// Spans are filled later by [`crate::diag::attach_spans`].
pub fn chain_trail(chain: &BlameChain, item_name: &str) -> Vec<RelatedInfo> {
    chain
        .steps
        .iter()
        .map(|step| {
            let message = match &step.reason {
                Reason::Term { eq, what } => format!(
                    "because: {}({}) has {item_name} — Eq. {eq}: {what}",
                    step.var, step.node
                ),
                Reason::Root(root) => {
                    format!("because: {}({}) — root: {root}", step.var, step.node)
                }
            };
            RelatedInfo {
                message,
                node: Some(step.node),
                span: None,
            }
        })
        .collect()
}

/// Converts a why-not result into `blocked by:` trail entries.
pub fn why_not_trail(wn: &WhyNot, item_name: &str) -> Vec<RelatedInfo> {
    let mut trail: Vec<RelatedInfo> = wn
        .steps
        .iter()
        .map(|step| {
            let message = match &step.absence {
                Absence::Blocked {
                    eq,
                    killer,
                    at,
                    what,
                } => format!(
                    "blocked by: {killer}({at}) kills {}({}) — Eq. {eq}: {what}",
                    step.var, step.node
                ),
                Absence::Missing { eq, what } | Absence::Never { eq, what } => format!(
                    "missing: {}({}) lacks {item_name} — Eq. {eq}: {what}",
                    step.var, step.node
                ),
            };
            RelatedInfo {
                message,
                node: Some(step.node),
                span: None,
            }
        })
        .collect();
    if let Some(root) = wn.blocker.as_ref().and_then(|b| b.steps.last()) {
        trail.push(RelatedInfo {
            message: format!(
                "killed at: {}({}) — root: {}",
                root.var,
                root.node,
                match root.reason {
                    Reason::Root(r) => r.to_string(),
                    Reason::Term { .. } => root.var.to_string(),
                }
            ),
            node: Some(root.node),
            span: None,
        });
    }
    trail
}

/// Runs a `--why` / `--why-not` query against the program's READ or
/// WRITE problem (per [`LintOptions::select`]; `Both` means READ) and
/// returns the rendered chain.
///
/// The query addresses the *solver's* variables of the problems the
/// plan was generated from: placements are queried pre-shift, on the
/// forward graph for READ and, for WRITE, on the reversed graph with the
/// coupled problem (placed READs as extra `STEAL_init`s).
///
/// # Errors
///
/// Fails when the pipeline cannot run, the node/item/variable do not
/// resolve, or — defensively — a produced chain fails the independent
/// [`check_chain`] validator.
pub fn run_query(
    program: &Program,
    opts: &LintOptions,
    spec: &QuerySpec,
    why_not: bool,
    file: &str,
    src: &str,
) -> Result<String, LintError> {
    let distributed = opts
        .distributed
        .clone()
        .unwrap_or_else(|| detect_distributed(program));
    let refs: Vec<&str> = distributed.iter().map(String::as_str).collect();
    let analysis = analyze(program, &CommConfig::distributed(&refs))
        .map_err(|e| LintError::Pipeline(e.to_string()))?;
    // READ is queried on the analysis's own problem. WRITE is the coupled
    // problem on the (possibly poisoned) reversed graph that generation
    // solved, so only an `--after` query generates the plan.
    let mut scratch = SolverScratch::new();
    let after_select = opts.select == ProblemSelect::After;
    let (analysis, placement) = if after_select {
        let (plan, placement) =
            generate_with_placement(analysis, &GenerateOptions::default(), &mut scratch)
                .map_err(|e| LintError::Pipeline(e.to_string()))?;
        (plan.analysis, Some(placement))
    } else {
        (analysis, None)
    };

    // Resolve the item: universe index or display name.
    let names: Vec<String> = analysis
        .universe
        .iter()
        .map(|(_, r)| r.to_string())
        .collect();
    let item = match spec.item.parse::<usize>() {
        Ok(i) if i < names.len() => i,
        _ => names.iter().position(|n| *n == spec.item).ok_or_else(|| {
            LintError::Pipeline(format!(
                "item `{}` is neither an index < {} nor one of: {}",
                spec.item,
                names.len(),
                names.join(", ")
            ))
        })?,
    };
    let item_name = &names[item];

    let solver_opts = SolverOptions::default();
    let (graph, problem) = match &placement {
        Some(placement) => (&placement.reversed, &placement.write_problem),
        None => (&analysis.graph, &analysis.read_problem),
    };
    if spec.node >= graph.num_nodes() {
        return Err(LintError::Pipeline(format!(
            "node {} out of range (the {} graph has {} nodes)",
            spec.node,
            if after_select { "reversed" } else { "forward" },
            graph.num_nodes()
        )));
    }
    gnt_core::solve_into(graph, problem, &solver_opts, &mut scratch);
    let engine = BlameEngine::new(graph, problem, &scratch);
    let node = NodeId(spec.node as u32);
    let spans = gnt_cfg::node_spans(program, &analysis.graph);
    // Reversed-graph nodes past the forward node count are synthetic and
    // have no spans; index safely either way.
    let spans: Vec<Option<Span>> = (0..graph.num_nodes())
        .map(|i| spans.get(i).copied().flatten())
        .collect();

    if why_not {
        match engine.why_not(spec.var, node, item) {
            Some(wn) => {
                if let Some(blocker) = &wn.blocker {
                    check_chain(&engine, blocker)
                        .map_err(|e| LintError::Pipeline(format!("invalid blocker chain: {e}")))?;
                }
                Ok(render_why_not(&wn, item_name, &spans, file, src))
            }
            None => Ok(format!(
                "{}({node}) DOES contain {item_name} — ask --why instead\n",
                spec.var
            )),
        }
    } else {
        match engine.why(spec.var, node, item) {
            Some(chain) => {
                check_chain(&engine, &chain)
                    .map_err(|e| LintError::Pipeline(format!("invalid chain: {e}")))?;
                Ok(render_chain(&chain, item_name, &spans, file, src))
            }
            None => Ok(format!(
                "{}({node}) does not contain {item_name} — ask --why-not instead\n",
                spec.var
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnt_core::Flavor;

    #[test]
    fn query_spec_parses_plain_and_suffixed_forms() {
        let q = QuerySpec::parse("3:0").unwrap();
        assert_eq!((q.node, q.item.as_str()), (3, "0"));
        assert_eq!(q.var, Var::ResIn(Flavor::Eager));

        let q = QuerySpec::parse("7:x(a(1:N)):given_in.lazy").unwrap();
        assert_eq!(q.node, 7);
        assert_eq!(q.item, "x(a(1:N))");
        assert_eq!(q.var, Var::GivenIn(Flavor::Lazy));

        // A colon inside the item name is NOT a var separator.
        let q = QuerySpec::parse("2:x(6:N+5)").unwrap();
        assert_eq!(q.item, "x(6:N+5)");
        assert_eq!(q.var, Var::ResIn(Flavor::Eager));

        assert!(QuerySpec::parse("nonsense").is_err());
        assert!(QuerySpec::parse("x:0").is_err());
        assert!(QuerySpec::parse("3:").is_err());
    }

    #[test]
    fn run_query_explains_a_real_placement() {
        let src = "do i = 1, N\n  ... = x(a(i))\nenddo";
        let program = gnt_ir::parse(src).unwrap();
        let opts = LintOptions::default();
        let spec = QuerySpec::parse("0:0:res_in").unwrap();
        let out = run_query(&program, &opts, &spec, false, "t.minif", src).unwrap();
        assert!(out.contains("why RES_in^eager(n0) contains"), "{out}");
        assert!(out.contains("root: TAKE_init"), "{out}");
        // The consuming statement's source line shows up.
        assert!(out.contains("x(a(i))"), "{out}");
    }

    #[test]
    fn run_query_why_not_reports_set_bits_gracefully() {
        let src = "do i = 1, N\n  ... = x(a(i))\nenddo";
        let program = gnt_ir::parse(src).unwrap();
        let opts = LintOptions::default();
        let spec = QuerySpec::parse("0:x(a(1:N)):res_in").unwrap();
        let out = run_query(&program, &opts, &spec, true, "t.minif", src).unwrap();
        assert!(out.contains("DOES contain"), "{out}");
    }
}
