//! Perf-trajectory harness: measures the solver data plane and writes a
//! machine-readable `BENCH_solver.json` at the repo root, so each commit
//! can be compared against the last.
//!
//! Records:
//! * `solve/16items` — the EXP-C1 protocol (end-to-end [`solve`] at
//!   universe 16, sequential) at several program sizes;
//! * `solve_into/16items` — the direct backend on a warm scratch, no
//!   export, at the same sizes;
//! * `pressure_resolve/full` and `pressure_resolve/delta` — one
//!   pressure-loop round (toggle a `STEAL_init` bit, re-solve) served by
//!   a full solve (a direct walk since EXP-C17, a full tape replay
//!   before) vs the incremental delta engine ([`gnt_core::solve_delta`],
//!   the EXP-C4 protocol; a re-walk of the schedule steps downstream of
//!   the edit since EXP-C18, a replay of the dirty tape blocks before);
//! * `delta_1row/16items` — a single `TAKE_init` bit toggled and
//!   re-solved incrementally, the engine's best case;
//! * `delta_1row_reversed/16items` — the same on the reversed graph of a
//!   program whose loops each have a `goto` out of them, so the walk
//!   folds out reads of jump-in rows (ungated);
//! * `oneshot_direct/16items` — one full solve on a fresh scratch at
//!   `sized_program(3000)` (ungated);
//! * `verify/16items` — the independent checkers on that solution:
//!   [`gnt_core::check_sufficiency`] of both flavors plus
//!   [`gnt_core::check_balance`] (ungated);
//! * `export/full` and `export/productions` — copying that solution out
//!   of the scratch: all 20 families ([`SolverScratch::export`]) against
//!   the 4 production families a plan reads
//!   ([`SolverScratch::export_productions`]) (ungated);
//! * `cfg/lower`, `cfg/from_cfg` and `cfg/reversed_graph` — at
//!   `sized_program(3000)`: one [`gnt_cfg::lower`] call (the walk, the
//!   flat edge tables and the prune), [`IntervalGraph::from_cfg`] on the
//!   lowered CFG (its clone untimed) and [`gnt_cfg::reversed_graph`] of
//!   the result, each timed per call and recorded per node of the
//!   interval graph; a moved pipeline number can then name its graph
//!   layer (ungated);
//! * `comm_analyze/ns_per_node` and `lint_layer2/ns_per_node` — the
//!   communication analysis of `sized_program(3000)` without lowering
//!   and the interval graph, and Layer 2's criteria lints of its READ
//!   placement; `items` is its universe size (ungated);
//! * `lint_criteria/ns_per_node` — the `criteria_ns` stage of
//!   [`lint_source_timed`] on the printed `sized_program(3000)`: the
//!   driver's Layer 2 over both problems, the WRITE C1/C3 verdict reused
//!   when the solve's §5.3 check passed; `items` is the universe size
//!   (ungated);
//! * `solve/256items` — a 4-word universe solved with export (the
//!   EXP-C2 protocol), plus `solve_into/256items`, the direct walk on a
//!   warm scratch without export (ungated);
//! * `solve/2048items` — a 32-word universe on the same graph, with the
//!   same ungated row `solve_into/2048items`;
//! * `pipeline/ns_per_node` — one complete lint pipeline run (parse →
//!   CFG/intervals → analyze → solve → generate → lint) over a sized
//!   program, warm scratch pool;
//! * `frontend/ns_per_node` — parse plus CFG/interval construction only,
//!   the slice the interning/arena/scratch-pool work targets;
//! * `lint_batch/1threads` and `lint_batch/8threads` — the EXP-C5
//!   protocol: a corpus of generated programs linted end to end via
//!   [`gnt_analyze::lint_batch_on`] on fixed-size worker pools,
//!   normalized to total CFG nodes (items is 0 for pipeline rows: the
//!   work unit is the program, not the set-universe item). The corpora
//!   are `random_program` outputs whose communication analysis finds no
//!   items, so these rows time parse, CFG and lint over empty universes
//!   and say little about the solve and generate stages; a claim about
//!   the lint pipeline belongs to the end-to-end benchmark's
//!   `corpus_lint` workload (`gnt_benchmark/`);
//! * `lint_batch_warm/1threads` — the same corpus served out of a warm
//!   [`gnt_analyze::PipelineCache`]: fingerprint, text-equality guard,
//!   and `Arc` clone per program instead of a pipeline run;
//! * `solve_after_reused/16items` and `solve_after_reused/256items` —
//!   [`solve_after_with_scratch`] re-solving one AFTER problem on one
//!   reused scratch, at `sized_program(3000)` and at the 256-item rows'
//!   size: the reversal the scratch keeps, both solves of §5.3 and the
//!   export. They run last, so no gated row inherits their heap
//!   (ungated).
//!
//! ```sh
//! cargo run -p gnt-bench --release --bin bench_json \
//!     [-- --smoke] [--json path] [--check baseline.json] [--tolerance PCT]
//! ```
//!
//! `--smoke` shrinks the sizes for CI; the default output path is
//! `BENCH_solver.json` in the current directory. With `--check`, every
//! new record matching a baseline record on (bench, nodes, items) must
//! be within `--tolerance` percent (default 30) of the baseline's
//! ns/node, or the process exits 1 — the CI perf gate. Smoke runs gate
//! against the committed `BENCH_solver_smoke.json` (smoke medians use
//! fewer runs and smaller sizes, so full-run baselines would not
//! compare). New records with no baseline row are ignored; a baseline
//! row with no measurement in the run fails the gate, so silently
//! dropping or renaming a benchmark cannot slip through. The ungated
//! rows are kept out of the committed baselines, which come from a
//! different host shape.

use gnt_analyze::driver::{detect_distributed, lint_source, lint_source_timed, LintOptions};
use gnt_analyze::{
    lint_batch_on, lint_batch_on_cached, lint_placement, PipelineCache, PlacementLintOptions,
    Source,
};
use gnt_bench::{
    check_against_baseline, json_flag_from_args, median_ns, read_records_json, write_records_json,
    BenchRecord,
};
use gnt_cfg::IntervalGraph;
use gnt_comm::{analyze, analyze_timed, generate_with_placement, CommConfig, GenerateOptions};
use gnt_core::{
    check_balance, check_sufficiency, random_problem, random_program, sized_program, solve,
    solve_after_with_scratch, solve_delta, solve_into, DeltaSet, GenConfig, PlacementProblem,
    SolverOptions, SolverScratch,
};
use gnt_dataflow::WorkerPool;
use gnt_ir::{Expr, ProgramBuilder};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Flips one `STEAL_init` bit at `node` (item 3), so each call really
/// mutates the row the delta benchmarks mark.
fn toggle_steal(problem: &mut gnt_core::PlacementProblem, node: gnt_cfg::NodeId) {
    let row = &mut problem.steal_init[node.index()];
    if row.contains(3) {
        row.remove(3);
    } else {
        row.insert(3);
    }
}

/// Flips one `TAKE_init` bit at `node` (item 3).
fn toggle_take(problem: &mut gnt_core::PlacementProblem, node: gnt_cfg::NodeId) {
    let row = &mut problem.take_init[node.index()];
    if row.contains(3) {
        row.remove(3);
    } else {
        row.insert(3);
    }
}

/// A program of about `target` statements in which every loop has a
/// `goto` out of it ahead of a read, so its reversed graph (the WRITE
/// problem's, §5.3) has jumps into loops.
fn goto_program(target: usize) -> gnt_ir::Program {
    let mut builder = ProgramBuilder::new("goto");
    for k in 0..target.div_ceil(4) {
        let (var, label) = (format!("i{k}"), 100 + k as u32);
        builder = builder
            .do_loop(var.clone(), Expr::Const(1), Expr::var("N"), |b| {
                b.assign_array("x", Expr::elem("a", Expr::var(&var)), Expr::Opaque);
                b.if_goto(Expr::var("t"), label);
                b.consume(Expr::elem("y", Expr::var(&var)));
            })
            .labeled_continue(label);
    }
    builder.build()
}

/// Value of `--flag <value>` in the process arguments, if present.
fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == flag {
            return Some(
                args.next()
                    .unwrap_or_else(|| panic!("{flag} requires a value")),
            );
        }
    }
    None
}

/// `solve_into/{items}items`: the direct backend on a warm scratch,
/// without export.
fn like_for_like_direct(
    runs: usize,
    graph: &IntervalGraph,
    problem: &PlacementProblem,
) -> BenchRecord {
    let opts = SolverOptions::default();
    let mut scratch = SolverScratch::new();
    let ns = median_ns(runs, || solve_into(graph, problem, &opts, &mut scratch));
    let nodes = graph.num_nodes();
    BenchRecord {
        bench: format!("solve_into/{}items", problem.universe_size),
        nodes,
        items: problem.universe_size,
        ns_per_node: ns / nodes as f64,
        threads: 1,
    }
}

/// `solve_after_reused/{items}items`: the AFTER problem `problem`
/// re-solved on one reused scratch, per node of the forward graph.
fn after_reused(runs: usize, graph: &IntervalGraph, problem: &PlacementProblem) -> BenchRecord {
    let opts = SolverOptions::default();
    let mut scratch = SolverScratch::new();
    let ns = median_ns(runs, || {
        solve_after_with_scratch(graph, problem, &opts, &mut scratch).expect("reversible")
    });
    let nodes = graph.num_nodes();
    BenchRecord {
        bench: format!("solve_after_reused/{}items", problem.universe_size),
        nodes,
        items: problem.universe_size,
        ns_per_node: ns / nodes as f64,
        threads: 1,
    }
}

/// [`median_ns`] of `f` on a fresh input from `setup` per call, the
/// setup untimed.
fn median_ns_with<I, T>(
    runs: usize,
    mut setup: impl FnMut() -> I,
    mut f: impl FnMut(I) -> T,
) -> f64 {
    let _ = std::hint::black_box(f(setup()));
    let mut times: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let input = setup();
            let t = Instant::now();
            let out = f(input);
            let ns = t.elapsed().as_secs_f64() * 1e9;
            std::hint::black_box(out);
            ns
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The two stages a cold lint of `program` runs on its own relation
/// rows and the graph's edges (ungated): `comm_analyze/ns_per_node`, the
/// communication analysis without lowering and the interval graph
/// (accesses, relation rows, initial variables), and
/// `lint_layer2/ns_per_node`, Layer 2's criteria lints (C1/C3 checkers,
/// C2 reach, O1 availability) of the plan's READ placement. `items` is
/// the universe size.
fn comm_layers(runs: usize, program: &gnt_ir::Program) -> Vec<BenchRecord> {
    let names = detect_distributed(program);
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let config = CommConfig::distributed(&refs);
    let mut samples: Vec<f64> = (0..=runs)
        .map(|_| {
            let start = Instant::now();
            let (analysis, graph_ns) = analyze_timed(program, &config).expect("sized programs");
            let total = start.elapsed().as_nanos() as f64;
            std::hint::black_box(analysis);
            total - graph_ns as f64
        })
        .collect();
    samples.remove(0); // warm-up
    samples.sort_by(f64::total_cmp);
    let analysis = analyze(program, &config).expect("sized programs");
    let (nodes, items) = (analysis.graph.num_nodes(), analysis.universe.len());
    let mut records = vec![BenchRecord {
        bench: "comm_analyze/ns_per_node".to_string(),
        nodes,
        items,
        ns_per_node: samples[samples.len() / 2] / nodes as f64,
        threads: 1,
    }];
    let problem = analysis.read_problem.clone();
    let mut scratch = SolverScratch::new();
    let (plan, placement) =
        generate_with_placement(analysis, &GenerateOptions::default(), &mut scratch)
            .expect("sized programs");
    let lint_opts = PlacementLintOptions {
        check_optimality: false,
        ..Default::default()
    };
    let graph = &plan.analysis.graph;
    let (eager, lazy) = (&placement.read_eager, &placement.read_lazy);
    let ns = median_ns(runs, || {
        lint_placement(graph, &problem, eager, lazy, &lint_opts)
    });
    records.push(BenchRecord {
        bench: "lint_layer2/ns_per_node".to_string(),
        nodes,
        items,
        ns_per_node: ns / nodes as f64,
        threads: 1,
    });
    records
}

/// `lint_criteria/ns_per_node` (ungated): the median `criteria_ns` of
/// [`lint_source_timed`] on `program` printed, the driver's Layer 2 as a
/// cold lint runs it. `items` is the universe size.
fn lint_criteria(runs: usize, program: &gnt_ir::Program) -> BenchRecord {
    let src = gnt_ir::pretty(program);
    let opts = LintOptions::default();
    let mut samples: Vec<u64> = (0..=runs)
        .map(|_| {
            let (_, _, timings) = lint_source_timed(&src, &opts).expect("sized programs lint");
            timings.criteria_ns
        })
        .collect();
    samples.remove(0); // warm-up
    samples.sort_unstable();
    let (_, report) = lint_source(&src, &opts).expect("sized programs lint");
    let nodes = report.plan.analysis.graph.num_nodes();
    BenchRecord {
        bench: "lint_criteria/ns_per_node".to_string(),
        nodes,
        items: report.plan.analysis.universe.len(),
        ns_per_node: samples[samples.len() / 2] as f64 / nodes as f64,
        threads: 1,
    }
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let path = json_flag_from_args().unwrap_or_else(|| PathBuf::from("BENCH_solver.json"));
    let check = flag_value("--check").map(PathBuf::from);
    let tolerance: f64 = flag_value("--tolerance")
        .map(|v| v.parse().expect("--tolerance takes a percentage"))
        .unwrap_or(30.0);
    // Smoke sizes are small enough that a single sample is microseconds;
    // more samples (not bigger sizes) is what keeps the medians inside
    // the CI gate's tolerance on a noisy shared host.
    let (sizes, runs): (&[usize], usize) = if smoke {
        (&[100, 400], 7)
    } else {
        (&[400, 1600, 6400], 5)
    };
    let mut records = Vec::new();

    for &target in sizes {
        let program = sized_program(target);
        let graph = IntervalGraph::from_program(&program).expect("reducible");
        let nodes = graph.num_nodes();
        let problem = random_problem(42, &graph, 16, 0.3);
        let opts = SolverOptions::default();

        let ns = median_ns(runs, || solve(&graph, &problem, &opts));
        records.push(BenchRecord {
            bench: "solve/16items".to_string(),
            nodes,
            items: 16,
            ns_per_node: ns / nodes as f64,
            threads: 1,
        });

        records.push(like_for_like_direct(runs, &graph, &problem));

        // One pressure-loop round — toggle a STEAL_init bit at a mid-
        // program node, re-solve — served two ways over the same warm
        // scratch. `full` solves in full (what the loop did before the
        // delta engine); `delta` re-walks only the schedule steps
        // downstream of the edit. The mutation alternates insert/remove
        // so every timed call really changes the row, honoring the delta
        // contract.
        let hot = gnt_cfg::NodeId((nodes / 2) as u32);
        let mut working = problem.clone();
        let mut scratch = SolverScratch::new();
        let ns = median_ns(runs, || {
            toggle_steal(&mut working, hot);
            solve_into(&graph, &working, &opts, &mut scratch);
        });
        records.push(BenchRecord {
            bench: "pressure_resolve/full".to_string(),
            nodes,
            items: 16,
            ns_per_node: ns / nodes as f64,
            threads: 1,
        });

        let mut working = problem.clone();
        let mut scratch = SolverScratch::new();
        let mut delta = DeltaSet::new();
        solve_into(&graph, &working, &opts, &mut scratch);
        let ns = median_ns(runs, || {
            toggle_steal(&mut working, hot);
            delta.clear();
            delta.mark_steal(hot);
            solve_delta(&graph, &working, &opts, &mut scratch, &delta)
        });
        records.push(BenchRecord {
            bench: "pressure_resolve/delta".to_string(),
            nodes,
            items: 16,
            ns_per_node: ns / nodes as f64,
            threads: 1,
        });

        // The engine's best case: one TAKE_init bit at one node.
        let mut working = problem.clone();
        let mut scratch = SolverScratch::new();
        let mut delta = DeltaSet::new();
        solve_into(&graph, &working, &opts, &mut scratch);
        let ns = median_ns(runs, || {
            toggle_take(&mut working, hot);
            delta.clear();
            delta.mark_take(hot);
            solve_delta(&graph, &working, &opts, &mut scratch, &delta)
        });
        records.push(BenchRecord {
            bench: "delta_1row/16items".to_string(),
            nodes,
            items: 16,
            ns_per_node: ns / nodes as f64,
            threads: 1,
        });

        // The same best case on a reversed graph with jumps into loops.
        let forward = IntervalGraph::from_program(&goto_program(target)).expect("reducible");
        let reversed = gnt_cfg::reversed_graph(&forward).expect("reversible");
        assert!(reversed
            .nodes()
            .any(|h| !reversed.jump_in_sources(h).is_empty()));
        let rev_nodes = reversed.num_nodes();
        let rev_hot = gnt_cfg::NodeId((rev_nodes / 2) as u32);
        let mut working = random_problem(42, &reversed, 16, 0.3);
        let mut scratch = SolverScratch::new();
        let mut delta = DeltaSet::new();
        solve_into(&reversed, &working, &opts, &mut scratch);
        let ns = median_ns(runs, || {
            toggle_take(&mut working, rev_hot);
            delta.clear();
            delta.mark_take(rev_hot);
            solve_delta(&reversed, &working, &opts, &mut scratch, &delta)
        });
        records.push(BenchRecord {
            bench: "delta_1row_reversed/16items".to_string(),
            nodes: rev_nodes,
            items: 16,
            ns_per_node: ns / rev_nodes as f64,
            threads: 1,
        });
    }

    // A one-shot full solve and the checkers at 3000 statements.
    let graph = IntervalGraph::from_program(&sized_program(3000)).expect("reducible");
    let nodes = graph.num_nodes();
    let problem = random_problem(42, &graph, 16, 0.3);
    let opts = SolverOptions::default();
    let ns = median_ns(runs, || {
        let mut scratch = SolverScratch::new();
        solve_into(&graph, &problem, &opts, &mut scratch);
        scratch
    });
    let mut oneshot = vec![("oneshot_direct/16items", ns)];
    let solution = solve(&graph, &problem, &opts);
    let ns = median_ns(runs, || {
        check_sufficiency(&graph, &problem, &solution.eager, true).len()
            + check_sufficiency(&graph, &problem, &solution.lazy, true).len()
            + check_balance(&graph, &problem, &solution.eager, &solution.lazy).len()
    });
    oneshot.push(("verify/16items", ns));
    // What one solve copies out: every family, or the production rows a
    // placement is emitted and linted from.
    let mut scratch = SolverScratch::new();
    solve_into(&graph, &problem, &opts, &mut scratch);
    oneshot.push(("export/full", median_ns(runs, || scratch.export())));
    let ns = median_ns(runs, || scratch.export_productions());
    oneshot.push(("export/productions", ns));
    // The graph layer: building both orientations.
    let program = sized_program(3000);
    let ns = median_ns(runs, || gnt_cfg::lower(&program).expect("sized programs"));
    oneshot.push(("cfg/lower", ns));
    let lowered = gnt_cfg::lower(&program).expect("sized programs");
    let ns = median_ns_with(
        runs,
        || lowered.cfg.clone(),
        |cfg| IntervalGraph::from_cfg(cfg).expect("reducible"),
    );
    oneshot.push(("cfg/from_cfg", ns));
    let ns = median_ns(runs, || {
        gnt_cfg::reversed_graph(&graph).expect("reversible")
    });
    oneshot.push(("cfg/reversed_graph", ns));
    for (bench, ns) in oneshot {
        records.push(BenchRecord {
            bench: bench.to_string(),
            nodes,
            items: 16,
            ns_per_node: ns / nodes as f64,
            threads: 1,
        });
    }
    records.extend(comm_layers(runs, &sized_program(3000)));
    records.push(lint_criteria(runs, &sized_program(3000)));

    // Multi-word universes on the largest size.
    let target = if smoke { 400 } else { 6400 };
    let program = sized_program(target);
    let graph = IntervalGraph::from_program(&program).expect("reducible");
    let nodes = graph.num_nodes();
    let problem = random_problem(43, &graph, 256, 0.3);
    let opts = SolverOptions::default();
    let ns = median_ns(runs, || solve(&graph, &problem, &opts));
    records.push(BenchRecord {
        bench: "solve/256items".to_string(),
        nodes,
        items: 256,
        ns_per_node: ns / nodes as f64,
        threads: 1,
    });
    records.push(like_for_like_direct(runs, &graph, &problem));

    let problem = random_problem(44, &graph, 2048, 0.3);
    let ns = median_ns(runs, || solve(&graph, &problem, &opts));
    records.push(BenchRecord {
        bench: "solve/2048items".to_string(),
        nodes,
        items: 2048,
        ns_per_node: ns / nodes as f64,
        threads: 1,
    });
    records.push(like_for_like_direct(runs, &graph, &problem));

    // End-to-end pipeline cost for a single program: parse → CFG →
    // analyze → solve → generate → lint, scratch checked out of the
    // warm global pool on every call (steady-state service shape).
    let target = if smoke { 200 } else { 800 };
    let lint_opts = LintOptions::default();
    let src = gnt_ir::pretty(&sized_program(target));
    let (_, report) = lint_source(&src, &lint_opts).expect("sized programs lint");
    let nodes = report.plan.analysis.graph.num_nodes();
    let ns = median_ns(runs, || lint_source(&src, &lint_opts).expect("lints"));
    records.push(BenchRecord {
        bench: "pipeline/ns_per_node".to_string(),
        nodes,
        items: 0,
        ns_per_node: ns / nodes as f64,
        threads: 1,
    });

    // Front end alone: parse (interned symbols, zero-copy lexer) plus
    // CFG lowering and interval assembly out of the warm scratch pool.
    // This is the slice the arena/interning/pooling work targets; the
    // pipeline row above includes solver and lint cost on top.
    let ns = median_ns(runs, || {
        let program = gnt_ir::parse(&src).expect("sized programs parse");
        IntervalGraph::from_program(&program).expect("reducible")
    });
    records.push(BenchRecord {
        bench: "frontend/ns_per_node".to_string(),
        nodes,
        items: 0,
        ns_per_node: ns / nodes as f64,
        threads: 1,
    });

    // EXP-C5: batch lint throughput on fixed-size pools. ns/node is
    // normalized to the corpus's total CFG nodes so the 1- and 8-thread
    // rows compare directly; the printed programs/sec is the service-
    // level number. On a single-core host the 8-thread row measures
    // scheduling overhead, not speedup — the baselines record whatever
    // this machine honestly does.
    let corpus = if smoke { 16 } else { 64 };
    let sources: Vec<Source> = (0..corpus)
        .map(|i| {
            let program = random_program(i as u64, &GenConfig::default());
            Source::new(format!("gen{i}.minif"), gnt_ir::pretty(&program))
        })
        .collect();
    let total_nodes: usize = lint_batch_on(&WorkerPool::new(1), &sources, &lint_opts)
        .iter()
        .map(|o| {
            let report = o.result.as_ref().expect("generated programs lint");
            report.plan.analysis.graph.num_nodes()
        })
        .sum();
    for threads in [1usize, 8] {
        let pool = WorkerPool::new(threads);
        let ns = median_ns(runs, || lint_batch_on(&pool, &sources, &lint_opts));
        records.push(BenchRecord {
            bench: format!("lint_batch/{threads}threads"),
            nodes: total_nodes,
            items: 0,
            ns_per_node: ns / total_nodes as f64,
            threads,
        });
        println!(
            "lint_batch/{threads}threads: {corpus} programs in {:.2} ms ({:.1} programs/sec)",
            ns / 1e6,
            corpus as f64 / (ns / 1e9)
        );
    }

    // The warm-cache path: every source already fingerprinted into a
    // dedicated `PipelineCache`, so each timed call is hash + text
    // compare + `Arc` clone per program. The gap between this row and
    // `lint_batch/1threads` is what re-linting an unchanged file costs.
    let cache = PipelineCache::with_capacity(sources.len());
    let pool = WorkerPool::new(1);
    lint_batch_on_cached(&pool, &sources, &lint_opts, Some(&cache));
    // A warm batch is tens of microseconds — far too small for one call
    // per sample to survive scheduler jitter under a ±30% gate — so
    // each sample times a block of batches and reports the mean.
    const WARM_REPS: u32 = 32;
    let ns = median_ns(runs, || {
        for _ in 0..WARM_REPS {
            lint_batch_on_cached(&pool, &sources, &lint_opts, Some(&cache));
        }
    }) / WARM_REPS as f64;
    records.push(BenchRecord {
        bench: "lint_batch_warm/1threads".to_string(),
        nodes: total_nodes,
        items: 0,
        ns_per_node: ns / total_nodes as f64,
        threads: 1,
    });
    println!(
        "lint_batch_warm/1threads: {corpus} programs in {:.3} ms ({:.1} programs/sec)",
        ns / 1e6,
        corpus as f64 / (ns / 1e9)
    );

    // AFTER re-solves on one scratch, at the sizes of the one-shot and
    // the 256-item rows.
    let graph = IntervalGraph::from_program(&sized_program(3000)).expect("reducible");
    records.push(after_reused(
        runs,
        &graph,
        &random_problem(42, &graph, 16, 0.3),
    ));
    let graph = IntervalGraph::from_program(&sized_program(if smoke { 400 } else { 6400 }))
        .expect("reducible");
    records.push(after_reused(
        runs,
        &graph,
        &random_problem(43, &graph, 256, 0.3),
    ));

    for r in &records {
        println!(
            "{:>22} nodes={:<6} threads={} {:>8.1} ns/node",
            r.bench, r.nodes, r.threads, r.ns_per_node
        );
    }
    write_records_json(&path, &records).expect("write json");
    println!("wrote {} records to {}", records.len(), path.display());

    if let Some(baseline_path) = check {
        let baseline = read_records_json(&baseline_path).expect("read baseline");
        let failures = check_against_baseline(&records, &baseline, tolerance);
        for f in &failures {
            eprintln!("PERF REGRESSION: {f}");
        }
        if !failures.is_empty() {
            return ExitCode::FAILURE;
        }
        println!(
            "perf gate passed against {} (\u{b1}{tolerance}%)",
            baseline_path.display()
        );
    }
    ExitCode::SUCCESS
}
