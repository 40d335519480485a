//! The five workloads, each a closed loop of one client: the next
//! operation starts when the previous one returned.
//!
//! | workload | one operation | one round |
//! |---|---|---|
//! | `corpus_lint` | one 32-file slice of a 384-file corpus through `lint_batch_on_cached` on the global pool with a fresh 512-entry cache, then rendering — what `gnt-lint <dir>` does | 12 operations: every slice once |
//! | `large_file` | `lint_source` plus rendering of one of three files of 1.5k/3k/6k statements | 3 operations: every file once |
//! | `zero_trip_lint` | `lint_source` with `zero_trip` plus rendering of one of 96 files of 20–300 statements | 96 operations: every file once |
//! | `relint_edit` | one watch-mode re-lint of a 256-file project: 4 seeded edits, then `lint_batch` (global pool, global `PipelineCache`) | 250 operations from the project as generated |
//! | `solver_resolve` | one re-solve request on the READ/WRITE problems of a 6k-statement program: every 51st a full solve of both, otherwise a one-bit `solve_delta` (3 of 4 on the forward graph, 1 of 4 on the reversed one) | 1020 operations from the first full solve |
//!
//! A run repeats rounds, each starting with [`Workload::warm_up`], which
//! restores the state the round starts from. Every round therefore does
//! the same operations on the same inputs on every commit, and a faster
//! commit runs more rounds, not different ones.
//!
//! Only the call into the system is timed. Input edits happen before the
//! clock starts and checks after it stops; both still run inside the
//! run's `--seconds`.

use crate::gen::{self, Edit, Jump, Project, Shape};
use gnt_analyze::driver::detect_distributed;
use gnt_analyze::{
    lint_batch, lint_batch_on_cached, lint_source, render_text_into, CacheStats, LintError,
    LintOptions, LintReport, PipelineCache, Severity, Source,
};
use gnt_cfg::{IntervalGraph, NodeId, NodeKind};
use gnt_core::{
    check_balance, check_sufficiency, solve, solve_after_with_scratch, solve_batch_with_scratch,
    solve_delta, AfterSolution, DeltaReport, DeltaSet, PlacementProblem, SolverOptions,
    SolverScratch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::{Duration, Instant};

/// Workload names, in the order a full run visits them.
pub const NAMES: [&str; 5] = [
    "corpus_lint",
    "large_file",
    "zero_trip_lint",
    "relint_edit",
    "solver_resolve",
];

/// `true` for the workloads that fan work over the global worker pool,
/// whose numbers depend on [`crate::host::HostStamp::effective_parallelism`].
pub fn uses_pool(name: &str) -> bool {
    matches!(name, "corpus_lint" | "relint_edit")
}

/// Input sizes: the measured ones, or a few small files for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Tiny inputs that still take every code path.
    Smoke,
}

impl Scale {
    fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// What the `solve_delta` calls of one direction did.
#[derive(Clone, Debug, Default)]
pub struct DeltaTally {
    /// Calls made.
    pub calls: u64,
    /// Calls that fell back to a full tape replay.
    pub full_replays: u64,
    /// Blocks re-executed, summed over calls.
    pub blocks_run: u64,
    /// Blocks of the tapes' partitions, summed over calls.
    pub blocks_total: u64,
    /// Wall time of each call in µs (kept only when `keep_times`).
    pub times_us: Vec<f64>,
    /// Whether to keep per-call times (traced runs only, so an untraced
    /// run's memory does not grow with its operation count).
    pub keep_times: bool,
}

impl DeltaTally {
    /// Records one call that took `elapsed` and reported `report`.
    pub fn record(&mut self, elapsed: Duration, report: &DeltaReport) {
        self.calls += 1;
        self.full_replays += u64::from(report.full_replay);
        self.blocks_run += report.blocks_run as u64;
        self.blocks_total += report.blocks_total as u64;
        if self.keep_times {
            self.times_us.push(elapsed.as_secs_f64() * 1e6);
        }
    }
}

/// Counters the operations of a run accumulate for the traced metrics.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Delta re-solves on forward graphs.
    pub forward: DeltaTally,
    /// Delta re-solves on reversed graphs.
    pub reversed: DeltaTally,
    /// Pipeline-cache lookups served from the cache.
    pub cache_hits: u64,
    /// Pipeline-cache lookups that ran the pipeline.
    pub cache_misses: u64,
    /// Operations that consulted a pipeline cache.
    pub cache_ops: u64,
    /// Entries resident after the last such operation.
    pub cache_entries: u64,
}

impl Counters {
    fn record_cache(&mut self, before: CacheStats, after: CacheStats) {
        self.cache_hits += after.hits - before.hits;
        self.cache_misses += after.misses - before.misses;
        self.cache_ops += 1;
        self.cache_entries = after.entries as u64;
    }
}

/// One workload: its inputs, its warm-up, and its operation.
pub trait Workload {
    /// The programs it feeds the pipeline, as `(name, text)`: the inputs
    /// of the traced layer-by-layer decomposition.
    fn inputs(&self) -> Vec<(String, String)>;

    /// The options of its lint calls.
    fn lint_options(&self) -> LintOptions {
        LintOptions::default()
    }

    /// Brings the system from the generated inputs to the state a round
    /// starts from — caches filled, scratches warm, edits undone —
    /// starting over on every call. This is what `setup_s` times.
    ///
    /// # Errors
    ///
    /// Describes the first wrong output.
    fn warm_up(&mut self, counters: &mut Counters) -> Result<(), String>;

    /// Operations in one round, the same on every commit.
    fn round_len(&self) -> u64;

    /// Runs operation `i` of a round and returns how long its timed part
    /// took.
    ///
    /// # Errors
    ///
    /// Describes the first check the operation's output failed.
    fn step(&mut self, i: u64, counters: &mut Counters) -> Result<Duration, String>;
}

/// Generates the inputs of workload `name` from `seed`; `None` for an
/// unknown name.
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "corpus_lint" => Box::new(CorpusLint::new(seed, scale)),
        "large_file" => Box::new(Serial::large_file(seed, scale)),
        "zero_trip_lint" => Box::new(Serial::zero_trip(seed, scale)),
        "relint_edit" => Box::new(RelintEdit::new(seed, scale)),
        "solver_resolve" => Box::new(SolverResolve::new(seed, scale)),
        _ => return None,
    })
}

/// Renders `report` for file `name` the way `gnt-lint` prints text:
/// every diagnostic followed by a blank line, then the file's summary.
pub fn render_report(out: &mut String, name: &str, src: &str, report: &LintReport) {
    use std::fmt::Write as _;
    for d in &report.diagnostics {
        render_text_into(out, d, name, src);
        out.push('\n');
    }
    let errors = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    if report.diagnostics.is_empty() {
        let ops = report.plan.ops().count();
        let _ = writeln!(out, "{name}: clean ({ops} communication ops placed)");
    } else {
        let warnings = report.diagnostics.len() - errors;
        let _ = writeln!(out, "{name}: {errors} error(s), {warnings} warning(s)");
    }
}

/// FNV-1a over `bytes`: the digest outputs are compared by.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The figures the preflight renders, each with default options and with
/// `--zero-trip`.
pub const PREFLIGHT_FIGURES: [&str; 3] = ["fig1", "fig3", "fig11"];

/// Renders `examples/fig{1,3,11}.minif` with default options and with
/// `--zero-trip` and compares each byte for byte with its golden under
/// `crates/analysis/tests/golden/`. Returns one message per mismatch.
pub fn preflight(root: &Path) -> Vec<String> {
    let mut failures = Vec::new();
    for fig in PREFLIGHT_FIGURES {
        let name = format!("examples/{fig}.minif");
        for (zero_trip, golden) in [(false, "lint"), (true, "zerotrip")] {
            let golden = format!("crates/analysis/tests/golden/{fig}.{golden}.txt");
            let (src, expected) = match (
                std::fs::read_to_string(root.join(&name)),
                std::fs::read_to_string(root.join(&golden)),
            ) {
                (Ok(src), Ok(expected)) => (src, expected),
                (Err(e), _) | (_, Err(e)) => {
                    failures.push(format!("preflight: cannot read {name} or {golden}: {e}"));
                    continue;
                }
            };
            let opts = LintOptions {
                zero_trip,
                ..Default::default()
            };
            let mut got = String::new();
            match lint_source(&src, &opts) {
                Ok((_, report)) => render_report(&mut got, &name, &src, &report),
                Err(e) => got = format!("error: {e}"),
            }
            if got != expected {
                failures.push(format!("preflight: {name} differs from {golden}"));
            }
        }
    }
    failures
}

/// Checks a report for Error-severity findings.
fn clean(name: &str, report: &LintReport) -> Result<(), String> {
    match report
        .diagnostics
        .iter()
        .find(|d| d.severity == Severity::Error)
    {
        Some(d) => Err(format!(
            "{name}: unexpected error {}: {}",
            d.code, d.message
        )),
        None => Ok(()),
    }
}

/// `(name, text)` pairs as batch-lint sources.
pub(crate) fn sources(files: Vec<(String, String)>) -> Vec<Source> {
    files
        .into_iter()
        .map(|(name, text)| Source::new(name, text))
        .collect()
}

/// Records `d` as the first output of an input, or checks a later output
/// against it.
fn same_as_first(first: &mut Option<u64>, d: u64, what: &str) -> Result<(), String> {
    match *first {
        None => *first = Some(d),
        Some(f) if f != d => return Err(format!("{what}: output differs from the first pass")),
        Some(_) => {}
    }
    Ok(())
}

/// The input operation `i` visits among `n` size-ordered inputs: a fixed
/// stride of about 0.62·n, coprime to `n`, so consecutive operations mix
/// small and large inputs instead of taking the smallest first.
fn visit(i: u64, n: usize) -> usize {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let n = n as u64;
    let mut stride = (n * 5 / 8).max(1);
    while gcd(stride, n) != 1 {
        stride += 1;
    }
    (i % n * stride % n) as usize
}

/// `corpus_lint`: directory traffic — many small files, each linted once.
struct CorpusLint {
    slices: Vec<Vec<Source>>,
    /// Output digest of each slice's first pass.
    digests: Vec<Option<u64>>,
    out: String,
}

impl CorpusLint {
    const SLICE: usize = 32;

    fn new(seed: u64, scale: Scale) -> CorpusLint {
        let count = scale.pick(384, 2 * Self::SLICE);
        let shapes = gen::log_uniform_shapes(count, 10, scale.pick(400, 40));
        let all = sources(gen::corpus(seed, &shapes));
        let slices: Vec<Vec<Source>> = all.chunks(Self::SLICE).map(<[Source]>::to_vec).collect();
        CorpusLint {
            digests: vec![None; slices.len()],
            slices,
            out: String::new(),
        }
    }

    /// Lints and renders slice `k`.
    fn pass(&mut self, k: usize, counters: &mut Counters) -> Result<Duration, String> {
        let opts = LintOptions::default();
        let cache = PipelineCache::with_capacity(512);
        let slice = &self.slices[k];
        let start = Instant::now();
        let outcomes =
            lint_batch_on_cached(gnt_dataflow::global_pool(), slice, &opts, Some(&cache));
        self.out.clear();
        for (o, s) in outcomes.iter().zip(slice) {
            if let Ok(report) = &o.result {
                render_report(&mut self.out, &o.name, &s.text, report);
            }
        }
        let elapsed = start.elapsed();
        let empty = CacheStats {
            hits: 0,
            misses: 0,
            entries: 0,
        };
        counters.record_cache(empty, cache.stats());
        for o in &outcomes {
            match &o.result {
                Ok(report) => clean(&o.name, report)?,
                Err(e) => return Err(format!("{}: {e}", o.name)),
            }
        }
        let d = digest(self.out.as_bytes());
        same_as_first(&mut self.digests[k], d, &format!("slice {k}"))?;
        Ok(elapsed)
    }
}

impl Workload for CorpusLint {
    fn inputs(&self) -> Vec<(String, String)> {
        self.slices
            .iter()
            .flatten()
            .map(|s| (s.name.clone(), s.text.clone()))
            .collect()
    }

    fn warm_up(&mut self, counters: &mut Counters) -> Result<(), String> {
        // The median slice: slices are ordered by size.
        self.pass(self.slices.len() / 2, counters).map(|_| ())
    }

    fn round_len(&self) -> u64 {
        self.slices.len() as u64
    }

    fn step(&mut self, i: u64, counters: &mut Counters) -> Result<Duration, String> {
        self.pass(visit(i, self.slices.len()), counters)
    }
}

/// `large_file` and `zero_trip_lint`: one file per operation, serial,
/// through `lint_source` and rendering.
struct Serial {
    files: Vec<(String, String)>,
    opts: LintOptions,
    digests: Vec<Option<u64>>,
    out: String,
}

impl Serial {
    fn large_file(seed: u64, scale: Scale) -> Serial {
        let shapes: Vec<Shape> = [1500, 3000, 6000]
            .iter()
            .map(|&stmts| Shape {
                stmts: scale.pick(stmts, stmts / 25),
                arrays: 4,
                jump: Jump::AfterWrite,
            })
            .collect();
        Serial::new(gen::corpus(seed, &shapes), false)
    }

    fn zero_trip(seed: u64, scale: Scale) -> Serial {
        let shapes = gen::log_uniform_shapes(scale.pick(96, 4), 20, scale.pick(300, 40));
        Serial::new(gen::corpus(seed, &shapes), true)
    }

    fn new(files: Vec<(String, String)>, zero_trip: bool) -> Serial {
        Serial {
            digests: vec![None; files.len()],
            files,
            opts: LintOptions {
                zero_trip,
                ..Default::default()
            },
            out: String::new(),
        }
    }

    /// Lints and renders file `k`.
    fn lint(&mut self, k: usize) -> Result<Duration, String> {
        let (name, src) = &self.files[k];
        let start = Instant::now();
        let result = lint_source(src, &self.opts);
        self.out.clear();
        if let Ok((_, report)) = &result {
            render_report(&mut self.out, name, src, report);
        }
        let elapsed = start.elapsed();
        match result {
            Ok((_, report)) => clean(name, &report)?,
            Err(e) => return Err(format!("{name}: {e}")),
        }
        same_as_first(&mut self.digests[k], digest(self.out.as_bytes()), name)?;
        Ok(elapsed)
    }
}

impl Workload for Serial {
    fn inputs(&self) -> Vec<(String, String)> {
        self.files.clone()
    }

    fn lint_options(&self) -> LintOptions {
        self.opts.clone()
    }

    fn warm_up(&mut self, _: &mut Counters) -> Result<(), String> {
        // The middle eighth of the files (files are ordered by size), at
        // least one: enough work that the set-up time is not one short
        // lint's jitter.
        let n = self.files.len();
        let k = (n / 8).max(1);
        for i in (n - k) / 2..(n + k) / 2 {
            self.lint(i)?;
        }
        Ok(())
    }

    fn round_len(&self) -> u64 {
        self.files.len() as u64
    }

    fn step(&mut self, i: u64, _: &mut Counters) -> Result<Duration, String> {
        self.lint(visit(i, self.files.len()))
    }
}

/// `relint_edit`: a watched project re-linted after every round of edits.
struct RelintEdit {
    project: Project,
    sources: Vec<Source>,
    /// The project as generated, with the edit generator's state: every
    /// warm-up restores both, so every round makes the same edits.
    initial: Project,
    ops: u64,
}

impl RelintEdit {
    /// Edits per operation.
    const EDITS: usize = 4;
    /// Operations per round: the cache fills from the project's 256
    /// entries to its 512 within the first ≈50, then evicts.
    const OPS: u64 = 250;
    /// Every this many operations, the edited files are re-linted without
    /// the cache and compared with what the cached batch returned.
    const RECHECK_EVERY: u64 = 8;

    fn new(seed: u64, scale: Scale) -> RelintEdit {
        let shapes = gen::log_uniform_shapes(scale.pick(256, 16), 10, scale.pick(400, 40));
        let project = Project::new(seed, &shapes);
        RelintEdit {
            sources: Vec::new(),
            initial: project.clone(),
            project,
            ops: scale.pick(Self::OPS, 8),
        }
    }

    fn name(k: usize) -> String {
        format!("src/mod{k:03}.minif")
    }
}

impl Workload for RelintEdit {
    fn inputs(&self) -> Vec<(String, String)> {
        (0..self.initial.len())
            .map(|k| (Self::name(k), self.initial.text(k)))
            .collect()
    }

    fn warm_up(&mut self, counters: &mut Counters) -> Result<(), String> {
        self.project = self.initial.clone();
        self.sources = sources(self.inputs());
        let cache = PipelineCache::global();
        cache.clear();
        let before = cache.stats();
        let outcomes = lint_batch(&self.sources, &LintOptions::default());
        counters.record_cache(before, cache.stats());
        for o in &outcomes {
            match &o.result {
                Ok(report) => clean(&o.name, report)?,
                Err(e) => return Err(format!("{}: {e}", o.name)),
            }
        }
        Ok(())
    }

    fn round_len(&self) -> u64 {
        self.ops
    }

    fn step(&mut self, i: u64, counters: &mut Counters) -> Result<Duration, String> {
        let edits = self.project.edit_round(Self::EDITS);
        for &(k, _) in &edits {
            self.sources[k].text = self.project.text(k);
        }
        let opts = LintOptions::default();
        let cache = PipelineCache::global();
        let before = cache.stats();
        let start = Instant::now();
        let outcomes = lint_batch(&self.sources, &opts);
        let elapsed = start.elapsed();
        counters.record_cache(before, cache.stats());
        for (k, o) in outcomes.iter().enumerate() {
            match (&o.result, self.project.is_broken(k)) {
                (Ok(report), false) => clean(&o.name, report)?,
                (Err(LintError::Parse(_)), true) => {}
                (Ok(_), true) => return Err(format!("{}: parsed without its enddo", o.name)),
                (Err(e), _) => return Err(format!("{}: {e}", o.name)),
            }
        }
        if i.is_multiple_of(Self::RECHECK_EVERY) {
            for &(k, edit) in &edits {
                let (Ok(cached), Edit::Shift | Edit::AddConsumer | Edit::Restore) =
                    (&outcomes[k].result, edit)
                else {
                    continue;
                };
                let (_, fresh) =
                    lint_source(&self.sources[k].text, &opts).map_err(|e| e.to_string())?;
                let render = |r: &LintReport| {
                    let mut out = String::new();
                    render_report(&mut out, &self.sources[k].name, &self.sources[k].text, r);
                    out
                };
                if render(cached) != render(&fresh) {
                    return Err(format!(
                        "{}: cached report differs from a fresh lint",
                        self.sources[k].name
                    ));
                }
            }
        }
        Ok(elapsed)
    }
}

/// `solver_resolve`: library traffic on one program's placement problems.
struct SolverResolve {
    text: String,
    seed: u64,
    /// Built by [`Workload::warm_up`].
    session: Option<Session>,
    /// Full solves per round, each followed by its edits.
    cycles: u64,
}

/// A client's solver state: the problems, the last solutions, and one
/// scratch per graph orientation.
struct Session {
    graph: IntervalGraph,
    read: PlacementProblem,
    write: PlacementProblem,
    /// `write` extended to the nodes of `after.reversed`.
    write_rev: PlacementProblem,
    after: Option<AfterSolution>,
    fwd: SolverScratch,
    rev: SolverScratch,
    /// Statement nodes: the nodes edits toggle bits at.
    stmts: Vec<NodeId>,
    rng: StdRng,
    delta: DeltaSet,
    full_ops: u64,
    deltas: u64,
}

/// Edit requests after each full solve.
const EDITS_PER_FULL: u64 = 50;
/// Full solves per round.
const FULLS_PER_ROUND: u64 = 20;
/// Every this many full solves, the solutions go through the independent
/// sufficiency and balance checkers.
const VERIFY_FULL_EVERY: u64 = 10;
/// Every this many deltas, the result is compared bit for bit with a
/// fresh solve by the interpreter.
const VERIFY_DELTA_EVERY: u64 = 50;

impl SolverResolve {
    fn new(seed: u64, scale: Scale) -> SolverResolve {
        let shape = Shape {
            stmts: scale.pick(6000, 300),
            arrays: 4,
            jump: Jump::AfterWrite,
        };
        SolverResolve {
            text: gen::program(gen::file_seed(seed, 0), shape),
            seed,
            session: None,
            cycles: scale.pick(FULLS_PER_ROUND, 2),
        }
    }
}

impl Session {
    /// Parses and analyzes `text` into its READ and WRITE problems.
    fn new(text: &str, seed: u64) -> Result<Session, String> {
        let program = gnt_ir::parse(text).map_err(|e| e.to_string())?;
        let distributed = detect_distributed(&program);
        let refs: Vec<&str> = distributed.iter().map(String::as_str).collect();
        let analysis = gnt_comm::analyze(&program, &gnt_comm::CommConfig::distributed(&refs))
            .map_err(|e| e.to_string())?;
        let graph = analysis.graph;
        let stmts = graph
            .nodes()
            .filter(|&n| matches!(graph.kind(n), NodeKind::Stmt(_)))
            .collect();
        Ok(Session {
            write_rev: analysis.write_problem.clone(),
            read: analysis.read_problem,
            write: analysis.write_problem,
            graph,
            after: None,
            fwd: SolverScratch::new(),
            rev: SolverScratch::new(),
            stmts,
            rng: StdRng::seed_from_u64(seed ^ 0xde17a),
            delta: DeltaSet::new(),
            full_ops: 0,
            deltas: 0,
        })
    }

    /// Solves READ on the forward graph and WRITE on the reversed one.
    fn full(&mut self) -> Result<Duration, String> {
        let opts = SolverOptions::default();
        let start = Instant::now();
        let read = solve_batch_with_scratch(&self.graph, &self.read, &opts, &mut self.fwd);
        let after = solve_after_with_scratch(&self.graph, &self.write, &opts, &mut self.rev)
            .map_err(|e| format!("WRITE solve failed: {e}"))?;
        let elapsed = start.elapsed();
        self.write_rev = self.write.clone();
        self.write_rev.resize_nodes(after.reversed.num_nodes());
        if self.full_ops.is_multiple_of(VERIFY_FULL_EVERY) {
            let (rev, w) = (&after.reversed, &self.write_rev);
            let violations = check_sufficiency(&self.graph, &self.read, &read.eager, true).len()
                + check_balance(&self.graph, &self.read, &read.eager, &read.lazy).len()
                + check_sufficiency(rev, w, &after.solution.eager, true).len()
                + check_balance(rev, w, &after.solution.eager, &after.solution.lazy).len();
            if violations > 0 {
                return Err(format!(
                    "full solve {}: {violations} criteria violations",
                    self.full_ops
                ));
            }
        }
        self.full_ops += 1;
        self.after = Some(after);
        Ok(elapsed)
    }

    /// Toggles one `TAKE_init` or `STEAL_init` bit and re-solves by delta.
    fn edit(&mut self, reversed: bool, counters: &mut Counters) -> Result<Duration, String> {
        let opts = SolverOptions::default();
        let node = self.stmts[self.rng.gen_range(0..self.stmts.len())];
        let item = self.rng.gen_range(0..self.read.universe_size);
        let take = self.rng.gen_bool(0.5);
        let toggle = |p: &mut PlacementProblem| {
            let row = if take {
                &mut p.take_init[node.index()]
            } else {
                &mut p.steal_init[node.index()]
            };
            if !row.insert(item) {
                row.remove(item);
            }
        };
        self.delta.clear();
        if take {
            self.delta.mark_take(node);
        } else {
            self.delta.mark_steal(node);
        }
        let check = self.deltas.is_multiple_of(VERIFY_DELTA_EVERY);
        let (elapsed, wrong) = if reversed {
            toggle(&mut self.write);
            toggle(&mut self.write_rev);
            let after = self
                .after
                .as_ref()
                .expect("a full solve precedes every edit");
            let (graph, problem) = (&after.reversed, &self.write_rev);
            let start = Instant::now();
            let report = solve_delta(graph, problem, &opts, &mut self.rev, &self.delta);
            let elapsed = start.elapsed();
            counters.reversed.record(elapsed, &report);
            (
                elapsed,
                check && self.rev.export() != solve(graph, problem, &opts),
            )
        } else {
            toggle(&mut self.read);
            let start = Instant::now();
            let report = solve_delta(&self.graph, &self.read, &opts, &mut self.fwd, &self.delta);
            let elapsed = start.elapsed();
            counters.forward.record(elapsed, &report);
            (
                elapsed,
                check && self.fwd.export() != solve(&self.graph, &self.read, &opts),
            )
        };
        if wrong {
            return Err(format!("delta {} differs from a fresh solve", self.deltas));
        }
        self.deltas += 1;
        Ok(elapsed)
    }
}

impl Workload for SolverResolve {
    fn inputs(&self) -> Vec<(String, String)> {
        vec![("resolve.minif".to_string(), self.text.clone())]
    }

    fn warm_up(&mut self, _: &mut Counters) -> Result<(), String> {
        self.session = None;
        let mut session = Session::new(&self.text, self.seed)?;
        session.full()?;
        self.session = Some(session);
        Ok(())
    }

    fn round_len(&self) -> u64 {
        self.cycles * (EDITS_PER_FULL + 1)
    }

    fn step(&mut self, i: u64, counters: &mut Counters) -> Result<Duration, String> {
        let session = self.session.as_mut().expect("warm_up ran");
        match i % (EDITS_PER_FULL + 1) {
            0 => session.full(),
            k => session.edit(k % 4 == 0, counters),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::visit;

    #[test]
    fn every_pass_visits_each_input_once_with_sizes_mixed() {
        for n in 1..=200 {
            let mut seen: Vec<usize> = (0..n as u64).map(|i| visit(i, n)).collect();
            assert_eq!(visit(n as u64, n), visit(0, n), "n {n}: passes repeat");
            if n >= 12 {
                // The first quarter of a pass already reaches the upper half.
                assert!(seen[..n / 4].iter().any(|&k| k >= n / 2), "n {n}");
            }
            seen.sort_unstable();
            assert!(seen.iter().copied().eq(0..n), "n {n}: not a permutation");
        }
    }
}
