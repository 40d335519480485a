//! `gnt-lint` — lint MiniF programs' communication placement.
//!
//! ```text
//! gnt-lint <file.minif | dir>... [--before|--after] [--deny CODE[,CODE…]]
//!          [--format text|json|sarif] [--distributed a,b] [--zero-trip]
//!          [--jobs N] [--dot out.dot] [--explain CODE] [--list-codes]
//!          [--why NODE:ITEM[:VAR]] [--why-not NODE:ITEM[:VAR]]
//! ```
//!
//! Several files (or directories, walked recursively for `*.minif` in
//! sorted order) lint as one batch fanned over the worker pool; output
//! and exit code are deterministic regardless of `--jobs`. Exit codes:
//! 0 clean, 1 denied findings (errors always deny), 2 usage, I/O, parse,
//! or pipeline errors — the aggregate is the per-file maximum.

use gnt_analyze::batch::{batch_exit_code, lint_batch_on, LintOutcome, Source};
use gnt_analyze::driver::{LintOptions, OutputFormat, ProblemSelect};
use gnt_analyze::provenance::{run_query, QuerySpec};
use gnt_analyze::{
    explain, render_json_batch, render_sarif_batch, render_text_into, CodeFamily, REGISTRY,
};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "\
usage: gnt-lint <file.minif | dir>... [options]

options:
  --before            lint only the BEFORE (READ) problem
  --after             lint only the AFTER (WRITE) problem
  --deny CODE[,...]   fail (exit 1) on these warning codes; `all` denies every finding
  --format FMT        `text` (default), `json`, or `sarif`
  --distributed LIST  comma-separated distributed arrays (default: auto-detect)
  --zero-trip         also lint zero-trip executions (reported as warnings)
  --jobs N            lint batches on a dedicated N-worker pool
                      (default: the shared process pool, one worker per
                      host core — the default never oversubscribes)
  --profile           emit one JSON line per file to stderr with per-stage
                      wall-clock timings (parse/cfg/analyze/reverse/solve/
                      generate/lint ns; total_ns is their sum),
                      solve counts, solver engine counts (direct solves,
                      incremental and declined deltas) and bounded-path replay
                      counts; profiled runs lint sequentially and bypass
                      the cache
  --dot PATH          write the interval graph with findings highlighted
                      (Graphviz; single input only)
  --explain CODE      print the registry entry for a diagnostic code
  --list-codes        print the whole diagnostic registry, grouped by family
  --why SPEC          explain why a placement bit is set; SPEC is NODE:ITEM[:VAR]
                      (ITEM: universe index or section name; VAR: a Figure-13
                      variable like res_in, given_in.lazy — default res_in;
                      single input only)
  --why-not SPEC      explain why a placement bit is NOT set (names the
                      blocking conjunct and derives the blocker; single input only)
  -h, --help          show this help

Directories are walked recursively; every *.minif inside lints in sorted
path order. Multiple inputs lint in parallel with deterministic output
order and an aggregate exit code (the per-file maximum).
";

struct Args {
    inputs: Vec<String>,
    opts: LintOptions,
    format: OutputFormat,
    dot: Option<String>,
    query: Option<(QuerySpec, bool)>,
    jobs: usize,
    profile: bool,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        inputs: Vec::new(),
        opts: LintOptions::default(),
        format: OutputFormat::Text,
        dot: None,
        query: None,
        jobs: 0,
        profile: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(None);
            }
            "--list-codes" => {
                for family in [
                    CodeFamily::Correctness,
                    CodeFamily::CommSafety,
                    CodeFamily::OptimalityAudit,
                ] {
                    println!("[{family}]");
                    for info in REGISTRY.iter().filter(|i| i.family == family) {
                        println!(
                            "  {} [{:7}] {} ({})",
                            info.code,
                            info.severity.to_string(),
                            info.title,
                            info.reference
                        );
                    }
                }
                return Ok(None);
            }
            "--explain" => {
                let code = value("--explain")?;
                let info = explain(&code).ok_or_else(|| format!("unknown code `{code}`"))?;
                println!(
                    "{}: {}\n  family: {}\n  reference: {}\n  default severity: {}",
                    info.code, info.title, info.family, info.reference, info.severity
                );
                return Ok(None);
            }
            "--before" => args.opts.select = ProblemSelect::Before,
            "--profile" => args.profile = true,
            "--after" => args.opts.select = ProblemSelect::After,
            "--zero-trip" => args.opts.zero_trip = true,
            "--deny" => {
                let v = value("--deny")?;
                for code in v.split(',') {
                    if code != "all" && explain(code).is_none() {
                        return Err(format!("unknown code `{code}` in --deny"));
                    }
                    args.opts.deny.push(code.to_string());
                }
            }
            "--format" => {
                args.format = parse_format(&value("--format")?)?;
            }
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs takes a worker count".to_string())?;
            }
            "--why" => {
                args.query = Some((QuerySpec::parse(&value("--why")?)?, false));
            }
            "--why-not" => {
                args.query = Some((QuerySpec::parse(&value("--why-not")?)?, true));
            }
            "--distributed" => {
                let v = value("--distributed")?;
                args.opts.distributed = Some(
                    v.split(',')
                        .map(str::to_string)
                        .filter(|s| !s.is_empty())
                        .collect(),
                );
            }
            "--dot" => args.dot = Some(value("--dot")?),
            other if other.starts_with("--format=") => {
                args.format = parse_format(&other["--format=".len()..])?;
            }
            other if other.starts_with("--jobs=") => {
                args.jobs = other["--jobs=".len()..]
                    .parse()
                    .map_err(|_| "--jobs takes a worker count".to_string())?;
            }
            other if other.starts_with("--why=") => {
                args.query = Some((QuerySpec::parse(&other["--why=".len()..])?, false));
            }
            other if other.starts_with("--why-not=") => {
                args.query = Some((QuerySpec::parse(&other["--why-not=".len()..])?, true));
            }
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => args.inputs.push(other.to_string()),
        }
    }
    if args.inputs.is_empty() {
        return Err("no input file".to_string());
    }
    Ok(Some(args))
}

fn parse_format(fmt: &str) -> Result<OutputFormat, String> {
    match fmt {
        "text" => Ok(OutputFormat::Text),
        "json" => Ok(OutputFormat::Json),
        "sarif" => Ok(OutputFormat::Sarif),
        other => Err(format!("unknown format `{other}`")),
    }
}

/// Expands inputs into the ordered file list: plain files stay in
/// argument order; a directory contributes every `*.minif` below it in
/// sorted path order. The expansion is what makes batch output
/// deterministic for a directory walk.
fn expand_inputs(inputs: &[String]) -> Result<Vec<std::path::PathBuf>, String> {
    let mut files = Vec::new();
    for input in inputs {
        let path = std::path::PathBuf::from(input);
        if path.is_dir() {
            let mut found = Vec::new();
            walk_minif(&path, &mut found)?;
            found.sort();
            if found.is_empty() {
                return Err(format!("no .minif files under {input}"));
            }
            files.extend(found);
        } else {
            files.push(path);
        }
    }
    Ok(files)
}

fn walk_minif(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk_minif(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "minif") {
            out.push(path);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let files = match expand_inputs(&args.inputs) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if files.len() > 1 && (args.query.is_some() || args.dot.is_some()) {
        eprintln!("error: --why/--why-not/--dot take exactly one input file");
        return ExitCode::from(2);
    }

    // Provenance queries run the single-file query pipeline directly.
    if let Some((spec, why_not)) = &args.query {
        let file = files[0].display().to_string();
        let src = match std::fs::read_to_string(&files[0]) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("error: cannot read {file}: {e}");
                return ExitCode::from(2);
            }
        };
        let program = match gnt_ir::parse(&src) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {file}: parse error: {e}");
                return ExitCode::from(2);
            }
        };
        return match run_query(&program, &args.opts, spec, *why_not, &file, &src) {
            Ok(out) => {
                print!("{out}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {file}: {e}");
                ExitCode::from(2)
            }
        };
    }

    // Read every input up front (unreadable files abort before linting,
    // like the single-file CLI always has), then lint them as one batch
    // over the worker pool.
    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        match Source::from_file(path) {
            Ok(source) => sources.push(source),
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    let outcomes = if args.profile {
        // Stage attribution wants clean per-file numbers: lint
        // sequentially, skip the pipeline cache, and report each file's
        // stage breakdown on stderr while stdout stays the normal report.
        sources
            .iter()
            .map(|s| {
                let result = gnt_analyze::lint_source_timed(&s.text, &args.opts).map(
                    |(_, report, timings)| {
                        eprintln!("{}", timings.to_json(&s.name));
                        std::sync::Arc::new(report)
                    },
                );
                LintOutcome {
                    name: s.name.clone(),
                    result,
                }
            })
            .collect()
    } else {
        match args.jobs {
            0 => gnt_analyze::lint_batch(&sources, &args.opts),
            n => lint_batch_on(&gnt_dataflow::WorkerPool::new(n), &sources, &args.opts),
        }
    };

    let exit = render_outcomes(&args, &sources, &outcomes);
    ExitCode::from(exit)
}

/// Renders every outcome in input order and returns the aggregate exit
/// code. Pipeline failures print to stderr in every format.
fn render_outcomes(args: &Args, sources: &[Source], outcomes: &[LintOutcome]) -> u8 {
    for o in outcomes {
        if let Err(e) = &o.result {
            eprintln!("error: {}: {e}", o.name);
        }
    }
    match write_reports(&mut std::io::stdout().lock(), args, sources, outcomes) {
        Ok(()) => {}
        // The reader stopped early (`gnt-lint … | head`): it wants no
        // more output, and the batch's verdict stands.
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("error: cannot write the report: {e}");
            return 2;
        }
    }
    if let (Some(path), Some(outcome)) = (&args.dot, outcomes.first()) {
        if let Ok(report) = &outcome.result {
            let dot = gnt_cfg::to_dot(&report.plan.analysis.graph, Some(&report.overlay()));
            if let Err(e) = std::fs::write(path, dot) {
                eprintln!("error: cannot write {path}: {e}");
                return 2;
            }
        }
    }
    u8::try_from(batch_exit_code(outcomes, &args.opts.deny)).unwrap_or(2)
}

/// Writes every outcome's report to `out` in input order, in the
/// format `args` asks for.
fn write_reports(
    out: &mut impl Write,
    args: &Args,
    sources: &[Source],
    outcomes: &[LintOutcome],
) -> std::io::Result<()> {
    match args.format {
        OutputFormat::Json | OutputFormat::Sarif => {
            let entries: Vec<(&[gnt_analyze::Diagnostic], &str, &str)> = outcomes
                .iter()
                .zip(sources.iter())
                .filter_map(|(o, s)| {
                    o.result
                        .as_ref()
                        .ok()
                        .map(|r| (r.diagnostics.as_slice(), o.name.as_str(), s.text.as_str()))
                })
                .collect();
            let report = if args.format == OutputFormat::Json {
                render_json_batch(&entries)
            } else {
                render_sarif_batch(&entries)
            };
            out.write_all(report.as_bytes())?;
        }
        OutputFormat::Text => {
            // One rendering buffer for the whole batch: reset per
            // diagnostic, never shrunk, so steady-state rendering
            // performs no allocation.
            let mut buf = String::new();
            for (o, s) in outcomes.iter().zip(sources.iter()) {
                let Ok(report) = &o.result else { continue };
                for d in &report.diagnostics {
                    buf.clear();
                    render_text_into(&mut buf, d, &o.name, &s.text);
                    writeln!(out, "{buf}")?;
                }
                let errors = report
                    .diagnostics
                    .iter()
                    .filter(|d| d.severity == gnt_analyze::Severity::Error)
                    .count();
                let warnings = report.diagnostics.len() - errors;
                if report.diagnostics.is_empty() {
                    writeln!(
                        out,
                        "{}: clean ({} communication ops placed)",
                        o.name,
                        report.plan.ops().count()
                    )?;
                } else {
                    writeln!(out, "{}: {errors} error(s), {warnings} warning(s)", o.name)?;
                }
            }
        }
    }
    out.flush()
}
