//! The traced run: spans around each layer's public entry point, and the
//! per-layer metrics derived from them.
//!
//! For every input of a workload the decomposition calls each layer on
//! the output of the layer before — parse, CFG build, analysis, the READ
//! and WRITE solves, plan generation, the lint driver, rendering — inside
//! a span. The library nests some of these calls inside others; a
//! layer's self time is its span minus the separately timed spans of the
//! calls it makes ([`CALL_TREE`]):
//!
//! * `comm.analyze` builds the CFG itself;
//! * `comm.generate` solves READ and WRITE once each on a scratch whose
//!   schedule tapes belong to the previous input (so it compiles them);
//! * `analysis.lint_program` runs `comm.analyze` and `comm.generate`, then
//!   re-solves READ and WRITE on the now-warm tapes.
//!
//! Each solve is therefore timed twice, cold and then warm, on scratches
//! kept stale the same way, and the cold pair is subtracted from
//! `comm.generate`, the warm pair from `analysis.lint_program`.
//!
//! Spans stay in memory and are written out when the run ends.

use crate::stats::{json_number, median, Metric};
use crate::workloads::{render_report, sources, Counters};
use gnt_analyze::driver::detect_distributed;
use gnt_analyze::{lint_batch_on, lint_program_with_scratch, lint_source, LintOptions};
use gnt_cfg::{IntervalGraph, NodeKind};
use gnt_comm::{analyze, generate_with_options, CommConfig, GenerateOptions};
use gnt_core::{
    solve_after_with_scratch, solve_batch_into, solve_delta, DeltaSet, PlacementProblem,
    SolverOptions, SolverScratch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The call tree the self times are derived from, recorded with the spans.
pub const CALL_TREE: &str = "analysis.lint_program > [comm.analyze > cfg.build], \
     [comm.generate > core.solve_before(cold) + core.export + core.solve_after(cold)], \
     core.solve_before(warm) + core.export + core.solve_after(warm)";

/// One timed interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The span that caused this one (`0` for none); ids start at 1.
    pub parent: u32,
    /// Layer entry point, e.g. `ir.parse`.
    pub name: &'static str,
    /// Index of the input it worked on.
    pub input: u32,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans beyond this many are timed but not kept.
    cap: usize,
}

impl Tracer {
    /// A tracer keeping at most `cap` spans.
    pub fn new(cap: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            cap,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span whose end comes later ([`Tracer::close`]); returns its id.
    pub fn open(&mut self, name: &'static str, parent: u32, input: u32) -> u32 {
        if self.spans.len() >= self.cap {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            input,
            start_ns,
            dur_ns: 0,
        });
        self.spans.len() as u32
    }

    /// Closes span `id` and returns its duration in ns.
    pub fn close(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        match id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            Some(span) => {
                span.dur_ns = now - span.start_ns;
                span.dur_ns
            }
            None => 0,
        }
    }

    /// Runs `f` inside a span; returns its value and the span's duration.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        input: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let id = self.open(name, parent, input);
        let out = f();
        let dur = start.elapsed().as_nanos() as f64;
        self.close(id);
        (out, dur)
    }

    /// The log as JSON, with the run's identity and [`CALL_TREE`].
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"call_tree\": \"{CALL_TREE}\", \"spans\": [\n"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"input\": {}, \"start_us\": {}, \"dur_us\": {}}}{sep}",
                i + 1,
                s.parent,
                s.name,
                s.input,
                json_number(s.start_ns as f64 / 1e3),
                json_number(s.dur_ns as f64 / 1e3),
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Per-pass sums over a workload's inputs (times in ns).
#[derive(Clone, Copy, Debug, Default)]
pub struct Pass {
    parse: f64,
    cfg: f64,
    analyze_self: f64,
    generate_self: f64,
    solve_before: f64,
    solve_after: f64,
    export: f64,
    lint_self: f64,
    render: f64,
    /// Traced parse + lint + render.
    traced_op: f64,
    /// The same work as one untraced `lint_source` plus rendering.
    untraced_op: f64,
    /// Wall time of one untraced pool batch over all inputs.
    batch_wall: f64,
    nodes: u64,
    items: u64,
    ops: u64,
    diagnostics: u64,
    render_bytes: u64,
}

/// The scratches of the decomposition: one per role, so each holds the
/// schedule tapes of the previous input exactly as the pipeline's pooled
/// scratch does when a new file arrives.
struct Scratches {
    solve: SolverScratch,
    generate: SolverScratch,
    lint: SolverScratch,
    probe: SolverScratch,
}

/// Toggles one `TAKE_init` bit at a statement node of `graph`, drawn from
/// `rng`, and marks it in `delta`.
fn toggle_one(
    rng: &mut StdRng,
    graph: &IntervalGraph,
    p: &mut PlacementProblem,
    delta: &mut DeltaSet,
) {
    let stmts: Vec<_> = graph
        .nodes()
        .filter(|&n| matches!(graph.kind(n), NodeKind::Stmt(_)))
        .collect();
    let node = stmts[rng.gen_range(0..stmts.len())];
    let item = rng.gen_range(0..p.universe_size);
    let row = &mut p.take_init[node.index()];
    if !row.insert(item) {
        row.remove(item);
    }
    delta.clear();
    delta.mark_take(node);
}

/// Decomposes one input into layer spans and adds it to `pass`.
#[allow(clippy::too_many_arguments)]
fn trace_input(
    t: &mut Tracer,
    k: u32,
    (name, src): (&str, &str),
    opts: &LintOptions,
    s: &mut Scratches,
    rng: &mut StdRng,
    counters: &mut Counters,
    pass: &mut Pass,
) -> Result<(), String> {
    let sopts = SolverOptions::default();
    let mut buf = String::new();

    let start = Instant::now();
    let (_, report) = lint_source(src, opts).map_err(|e| format!("{name}: {e}"))?;
    render_report(&mut buf, name, src, &report);
    pass.untraced_op += start.elapsed().as_nanos() as f64;

    let root = t.open("input", 0, k);
    let (program, parse) = t.span("ir.parse", root, k, || gnt_ir::parse(src));
    let program = program.map_err(|e| format!("{name}: {e}"))?;
    let (graph, cfg) = t.span("cfg.build", root, k, || {
        gnt_cfg::lower(&program)
            .map_err(|e| e.to_string())
            .and_then(|l| IntervalGraph::from_cfg(l.cfg).map_err(|e| e.to_string()))
    });
    graph.map_err(|e| format!("{name}: {e}"))?;
    let distributed = detect_distributed(&program);
    let refs: Vec<&str> = distributed.iter().map(String::as_str).collect();
    let (analysis, analyze_ns) = t.span("comm.analyze", root, k, || {
        analyze(&program, &CommConfig::distributed(&refs))
    });
    let analysis = analysis.map_err(|e| format!("{name}: {e}"))?;
    let graph = &analysis.graph;

    // READ: cold (the scratch holds the previous input's tapes), then warm.
    let mut before = [0.0; 2];
    let mut export = [0.0; 2];
    for (b, e) in before.iter_mut().zip(export.iter_mut()) {
        let ((), ns) = t.span("core.solve_before", root, k, || {
            solve_batch_into(graph, &analysis.read_problem, &sopts, &mut s.solve);
        });
        *b = ns;
        let (_, ns) = t.span("core.export", root, k, || s.solve.export());
        *e = ns;
    }
    let mut delta = DeltaSet::new();
    let mut p = analysis.read_problem.clone();
    toggle_one(rng, graph, &mut p, &mut delta);
    let (report, ns) = t.span("core.delta.forward", root, k, || {
        solve_delta(graph, &p, &sopts, &mut s.solve, &delta)
    });
    counters
        .forward
        .record(std::time::Duration::from_nanos(ns as u64), &report);

    // WRITE: cold, then warm.
    let mut after_ns = [0.0; 2];
    let mut after = None;
    for a in &mut after_ns {
        let (solved, ns) = t.span("core.solve_after", root, k, || {
            solve_after_with_scratch(graph, &analysis.write_problem, &sopts, &mut s.solve)
        });
        after = Some(solved.map_err(|e| format!("{name}: {e}"))?);
        *a = ns;
    }
    let after = after.expect("two WRITE solves ran");
    let mut p = analysis.write_problem.clone();
    p.resize_nodes(after.reversed.num_nodes());
    // Untimed: compile the reversed tape and lay the delta basis, so the
    // probe measures a steady re-solve as `solver_resolve` does.
    solve_batch_into(&after.reversed, &p, &sopts, &mut s.probe);
    toggle_one(rng, graph, &mut p, &mut delta);
    let (report, ns) = t.span("core.delta.reversed", root, k, || {
        solve_delta(&after.reversed, &p, &sopts, &mut s.probe, &delta)
    });
    counters
        .reversed
        .record(std::time::Duration::from_nanos(ns as u64), &report);

    pass.nodes += graph.num_nodes() as u64;
    pass.items += analysis.universe.len() as u64;
    let input = analysis.clone();
    let (plan, generate_ns) = t.span("comm.generate", root, k, || {
        generate_with_options(input, &GenerateOptions::default(), &mut s.generate)
    });
    pass.ops += plan.map_err(|e| format!("{name}: {e}"))?.ops().count() as u64;
    let (report, lint_ns) = t.span("analysis.lint_program", root, k, || {
        lint_program_with_scratch(&program, opts, &mut s.lint)
    });
    let report = report.map_err(|e| format!("{name}: {e}"))?;
    buf.clear();
    let ((), render) = t.span("analysis.render", root, k, || {
        render_report(&mut buf, name, src, &report);
    });
    t.close(root);

    pass.diagnostics += report.diagnostics.len() as u64;
    pass.render_bytes += buf.len() as u64;
    pass.parse += parse;
    pass.cfg += cfg;
    pass.analyze_self += analyze_ns - cfg;
    pass.generate_self += generate_ns - before[0] - export[0] - after_ns[0];
    pass.lint_self += lint_ns - analyze_ns - generate_ns - before[1] - export[1] - after_ns[1];
    pass.solve_before += before[0] + before[1];
    pass.export += export[0] + export[1];
    pass.solve_after += after_ns[0] + after_ns[1];
    pass.render += render;
    pass.traced_op += parse + lint_ns + render;
    Ok(())
}

/// Runs up to `passes` traced decompositions over `inputs`, each followed
/// by one untraced batch over the global pool, and returns the per-pass
/// sums. No pass starts once `budget` has elapsed (the first always
/// runs). The `solve_delta` probes (one per input and direction) are
/// recorded in `counters`.
///
/// # Errors
///
/// Describes the first input the pipeline failed on.
pub fn decompose(
    t: &mut Tracer,
    inputs: &[(String, String)],
    opts: &LintOptions,
    passes: usize,
    budget: std::time::Duration,
    seed: u64,
    counters: &mut Counters,
) -> Result<Vec<Pass>, String> {
    let began = Instant::now();
    let mut s = Scratches {
        solve: SolverScratch::new(),
        generate: SolverScratch::new(),
        lint: SolverScratch::new(),
        probe: SolverScratch::new(),
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ace);
    let sources = sources(inputs.to_vec());
    let mut out = Vec::with_capacity(passes);
    while out.len() < passes && (out.is_empty() || began.elapsed() < budget) {
        let mut pass = Pass::default();
        for (k, (name, src)) in inputs.iter().enumerate() {
            let input = (name.as_str(), src.as_str());
            trace_input(
                t, k as u32, input, opts, &mut s, &mut rng, counters, &mut pass,
            )?;
        }
        let start = Instant::now();
        let outcomes = lint_batch_on(gnt_dataflow::global_pool(), &sources, opts);
        let mut buf = String::new();
        for (o, src) in outcomes.iter().zip(&sources) {
            let report = o.result.as_ref().map_err(|e| format!("{}: {e}", o.name))?;
            render_report(&mut buf, &o.name, &src.text, report);
        }
        pass.batch_wall = start.elapsed().as_nanos() as f64;
        out.push(pass);
    }
    Ok(out)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics: medians over the decomposition's `passes`,
/// what the run's `solve_delta` calls and cache lookups counted, and the
/// process-wide pools, interner and thread counts as they stand now.
pub fn layer_metrics(passes: &[Pass], counters: &Counters) -> Vec<Metric> {
    let med = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let ms = |f: fn(&Pass) -> f64| med(f) / 1e6;
    let first = passes.first().copied().unwrap_or_default();
    let (fwd, rev) = (&counters.forward, &counters.reversed);
    vec![
        Metric::new("ir.parse_ms", ms(|p| p.parse), "ms"),
        Metric::new(
            "ir.interned_symbols",
            gnt_ir::SymbolTable::global().len() as f64,
            "count",
        ),
        Metric::new("cfg.build_ms", ms(|p| p.cfg), "ms"),
        Metric::new("cfg.nodes", first.nodes as f64, "count"),
        Metric::new(
            "cfg.scratch_created",
            gnt_cfg::CfgScratchPool::global().created() as f64,
            "count",
        ),
        Metric::new("comm.analyze_self_ms", ms(|p| p.analyze_self), "ms"),
        Metric::new("comm.generate_self_ms", ms(|p| p.generate_self), "ms"),
        Metric::new("comm.universe_items", first.items as f64, "count"),
        Metric::new("comm.ops_placed", first.ops as f64, "count"),
        Metric::new("core.solve_before_ms", ms(|p| p.solve_before), "ms"),
        Metric::new("core.solve_after_ms", ms(|p| p.solve_after), "ms"),
        Metric::new("core.export_ms", ms(|p| p.export), "ms"),
        Metric::new("core.delta_us.forward", median(&fwd.times_us), "us"),
        Metric::new("core.delta_us.reversed", median(&rev.times_us), "us"),
        Metric::new(
            "core.delta_full_replay_ratio.forward",
            ratio(fwd.full_replays as f64, fwd.calls as f64),
            "ratio",
        ),
        Metric::new(
            "core.delta_full_replay_ratio.reversed",
            ratio(rev.full_replays as f64, rev.calls as f64),
            "ratio",
        ),
        Metric::new(
            "core.delta_blocks_run_ratio",
            ratio(
                (fwd.blocks_run + rev.blocks_run) as f64,
                (fwd.blocks_total + rev.blocks_total) as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "core.scratch_created",
            gnt_core::ScratchPool::global().created() as f64,
            "count",
        ),
        Metric::new("analysis.lint_self_ms", ms(|p| p.lint_self), "ms"),
        Metric::new("analysis.render_ms", ms(|p| p.render), "ms"),
        Metric::new("analysis.render_bytes", first.render_bytes as f64, "bytes"),
        Metric::new("analysis.diagnostics", first.diagnostics as f64, "count"),
        Metric::new(
            "analysis.cache_hit_ratio",
            ratio(
                counters.cache_hits as f64,
                (counters.cache_hits + counters.cache_misses) as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "analysis.cache_misses_per_round",
            ratio(counters.cache_misses as f64, counters.cache_ops as f64),
            "count",
        ),
        Metric::new(
            "analysis.cache_entries",
            counters.cache_entries as f64,
            "count",
        ),
        Metric::new(
            "dataflow.batch_efficiency",
            med(|p| p.traced_op / p.batch_wall),
            "ratio",
        ),
        Metric::new(
            "dataflow.threads_spawned",
            gnt_dataflow::WorkerPool::threads_spawned() as f64,
            "count",
        ),
        Metric::new(
            "trace.overhead_pct",
            med(|p| 100.0 * (p.traced_op - p.untraced_op) / p.untraced_op),
            "%",
        ),
    ]
}
