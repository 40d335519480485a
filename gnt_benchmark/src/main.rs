//! `gnt-benchmark` — the end-to-end benchmark of `gnt-lint` and the solver.
//!
//! ```text
//! gnt-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--json PATH] [--smoke]
//! ```
//!
//! With `--workload`, runs that one workload: traced in this process,
//! untraced in four child processes one after another (`--part`), each
//! measuring a quarter of `--seconds`. A process runs a preflight against
//! the figure goldens, then whole rounds until less than half a round's
//! time is left (at least one). A round is a set-up followed by the
//! workload's fixed sequence of operations, every output checked. The
//! last line of standard output is the result: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics, or with `--trace 1` the per-layer ones, whose spans go to
//! `.bench_out/spans-<workload>-<seed>.json` under the working directory.
//! End-to-end timings are divided by the host's slowness at the moment
//! they were taken, which a [`Yardstick`] samples between operations; the
//! report above the result line shows them before that division too.
//!
//! Without `--workload`, runs every workload, each in a child process of
//! its own so peak memory and process-wide state (interner, pools, global
//! cache) stay per workload, and writes all results to `--json`.
//!
//! Exit code: 0 when every output was correct, 1 when one was not, 2 on a
//! usage error.

use gnt_benchmark::host::{peak_heap_mib, CountingAlloc, HostStamp};
use gnt_benchmark::part::{Part, Timing};
use gnt_benchmark::stats::{median, quantile, Metric, Outcome};
use gnt_benchmark::trace::{decompose, layer_metrics, Tracer};
use gnt_benchmark::workloads::{
    self, preflight, uses_pool, Counters, Scale, NAMES, PREFLIGHT_FIGURES,
};
use gnt_benchmark::yardstick::{Yardstick, REFERENCE_MS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc;

/// Seconds a run measures unless `--seconds` says otherwise: the
/// `run_seconds` of `BENCHMARK.json`, which the reference numbers use.
const DEFAULT_SECONDS: f64 = 20.0;
/// Traced decomposition passes (as many as fit in half of `--seconds`,
/// at least one); per-layer times are medians over them.
const TRACE_PASSES: usize = 3;
/// Spans a traced run keeps in memory.
const SPAN_CAP: usize = 50_000;
/// `effective_parallelism` below which a pool workload is flagged.
const PARALLEL_FLAG: f64 = 1.5;
/// Child processes an untraced run is split over (see
/// [`gnt_benchmark::part`]).
const PARTS: usize = 4;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    smoke: bool,
    /// Measure one part of an untraced run here and print its timings.
    part: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        json: None,
        smoke: false,
        part: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}` (one of {NAMES:?})"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--json" => args.json = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--part" => args.part = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_some() && args.json.is_some() {
        return Err("--json collects the runs of every workload: drop --workload".to_string());
    }
    if args.part && (args.workload.is_none() || args.trace) {
        return Err("--part measures one workload untraced".to_string());
    }
    Ok(args)
}

/// Runs `f`, turning a panic into an error.
fn guard<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

fn fail(out: &mut Outcome, what: &str) {
    out.failed += 1;
    if out.failed <= 10 {
        eprintln!("FAILED: {what}");
    }
}

/// Runs workload `name` in this process: the outcome (with the per-layer
/// metrics when traced) and, untraced, the timings.
fn run(args: &Args, name: &str) -> (Outcome, Part) {
    let began = Instant::now();
    let deadline = began + Duration::from_secs_f64(args.seconds);
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository");
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let mut out = Outcome {
        attempted: 2 * PREFLIGHT_FIGURES.len() as u64,
        ..Outcome::default()
    };
    match guard(|| Ok(preflight(root))) {
        Ok(failures) => failures.iter().for_each(|f| fail(&mut out, f)),
        Err(e) => fail(&mut out, &format!("preflight: {e}")),
    }

    // Inputs are generated once, untimed; set-up is what the system does
    // with them before the first timed operation of a round.
    let mut w = match guard(|| Ok(workloads::build(name, args.seed, scale))) {
        Ok(w) => w.expect("the workload name was validated"),
        Err(e) => {
            fail(&mut out, &format!("input generation: {e}"));
            return (out, Part::default());
        }
    };

    let mut counters = Counters::default();
    counters.forward.keep_times = args.trace;
    counters.reversed.keep_times = args.trace;
    let mut tracer = Tracer::new(SPAN_CAP);
    let mut passes = Vec::new();
    if args.trace {
        out.attempted += 1;
        let inputs = w.inputs();
        let opts = w.lint_options();
        let budget = Duration::from_secs_f64(args.seconds / 2.0);
        let decomposed = guard(|| {
            decompose(
                &mut tracer,
                &inputs,
                &opts,
                TRACE_PASSES,
                budget,
                args.seed,
                &mut counters,
            )
        });
        match decomposed {
            Ok(p) => passes = p,
            Err(e) => fail(&mut out, &format!("traced decomposition: {e}")),
        }
    }

    // Whole rounds until less than half a round's time is left. Every
    // round does the same work, so the pooled latencies have the same mix
    // however many rounds ran. Untraced runs sample the host's speed
    // between operations, and keep each timing with the moment it was
    // taken: `(moment, duration)`.
    let mut yardstick = Yardstick::new();
    let mut setup_s: Vec<(f64, f64)> = Vec::new();
    let mut latencies_ms: Vec<(f64, f64)> = Vec::with_capacity(1 << 16);
    'rounds: loop {
        out.attempted += 1;
        if !args.trace {
            yardstick.sample_if_due();
        }
        let at = yardstick.now();
        let start = Instant::now();
        // Set-up lookups are not part of the operations' cache counts.
        match guard(|| w.warm_up(&mut Counters::default())) {
            Ok(()) => {
                let s = start.elapsed().as_secs_f64();
                setup_s.push((at + s / 2.0, s));
            }
            Err(e) => {
                fail(&mut out, &format!("set-up: {e}"));
                break;
            }
        }
        for i in 0..w.round_len() {
            out.attempted += 1;
            if !args.trace {
                yardstick.sample_if_due();
            }
            let span = if args.trace {
                tracer.open("workload.op", 0, i as u32)
            } else {
                0
            };
            let at = yardstick.now();
            let step = guard(|| w.step(i, &mut counters));
            tracer.close(span);
            match step {
                Ok(elapsed) => {
                    let ms = elapsed.as_secs_f64() * 1e3;
                    latencies_ms.push((at + ms / 2e3, ms));
                }
                Err(e) => {
                    fail(&mut out, &format!("operation {i}: {e}"));
                    if e.starts_with("panicked") {
                        break 'rounds;
                    }
                }
            }
        }
        if deadline.saturating_duration_since(Instant::now()) < start.elapsed() / 2 {
            break;
        }
    }

    if args.trace {
        out.metrics = layer_metrics(&passes, &counters);
        let path = PathBuf::from(format!(".bench_out/spans-{name}-{}.json", args.seed));
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.to_json(name, args.seed)));
        if let Err(e) = written {
            eprintln!("warning: cannot write spans to {}: {e}", path.display());
        }
    }
    eprintln!(
        "{name}: {} rounds, {} operations timed, {:.1} s",
        setup_s.len(),
        latencies_ms.len(),
        began.elapsed().as_secs_f64()
    );
    let timings = |timed: &[(f64, f64)]| -> Vec<Timing> {
        timed
            .iter()
            .map(|&(at, raw)| Timing {
                raw,
                normalised: raw / yardstick.slowness_at(at),
            })
            .collect()
    };
    let part = Part {
        attempted: out.attempted,
        failed: out.failed,
        peak_heap_mib: peak_heap_mib(),
        slowness: yardstick.median_slowness(),
        ops_ms: timings(&latencies_ms),
        setup_s: timings(&setup_s),
    };
    (out, part)
}

/// Runs workload `name` untraced in [`PARTS`] child processes, one after
/// another, each measuring until its share of `--seconds` has passed (at
/// least one whole round), and pools what they measured.
fn in_parts(args: &Args, name: &str) -> Part {
    let began = Instant::now();
    let mut parts = Vec::with_capacity(PARTS);
    let mut lost = 0;
    for p in 1..=PARTS {
        let due = args.seconds * p as f64 / PARTS as f64;
        let left = (due - began.elapsed().as_secs_f64()).max(1e-3);
        let measured = std::env::current_exe().and_then(|exe| {
            let mut cmd = std::process::Command::new(exe);
            cmd.args(["--workload", name, "--trace", "0", "--part"])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &left.to_string()]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            cmd.stderr(std::process::Stdio::inherit()).output()
        });
        let part = measured.ok().and_then(|child| {
            String::from_utf8_lossy(&child.stdout)
                .lines()
                .last()
                .and_then(Part::parse)
        });
        match part {
            Some(part) => parts.push(part),
            None => {
                eprintln!("FAILED: part {p} of {name} printed no timings");
                lost += 1;
            }
        }
    }
    let mut pooled = Part::pool(&parts);
    pooled.attempted += lost;
    pooled.failed += lost;
    pooled
}

/// The timing metrics of a run from its operation latencies (ms) and
/// set-up times (s).
fn timing_metrics(latencies_ms: &[f64], setup_s: &[f64]) -> Vec<Metric> {
    let busy_s: f64 = latencies_ms.iter().sum::<f64>() / 1e3;
    vec![
        Metric::new("op_p50_ms", quantile(latencies_ms, 0.5), "ms"),
        Metric::new("op_p90_ms", quantile(latencies_ms, 0.9), "ms"),
        Metric::new(
            "ops_per_s",
            latencies_ms.len() as f64 / busy_s.max(f64::MIN_POSITIVE),
            "1/s",
        ),
        Metric::new("setup_s", median(setup_s), "s"),
    ]
}

/// Runs one workload and prints its report, result line last: traced in
/// this process, untraced in parts.
fn single(args: &Args, name: &str) -> ExitCode {
    let stamp = HostStamp::measure(args.seed);
    let (out, raw) = if args.trace {
        (run(args, name).0, None)
    } else {
        let part = in_parts(args, name);
        let pick = |timings: &[Timing], f: fn(&Timing) -> f64| -> Vec<f64> {
            timings.iter().map(f).collect()
        };
        let mut metrics = timing_metrics(
            &pick(&part.ops_ms, |t| t.normalised),
            &pick(&part.setup_s, |t| t.normalised),
        );
        metrics.push(Metric::new("peak_heap_mib", part.peak_heap_mib, "MiB"));
        let raw = timing_metrics(
            &pick(&part.ops_ms, |t| t.raw),
            &pick(&part.setup_s, |t| t.raw),
        );
        let out = Outcome {
            attempted: part.attempted,
            failed: part.failed,
            metrics,
        };
        (out, Some((raw, part.slowness)))
    };
    println!("host: {}", stamp.to_json());
    println!(
        "workload: {name} (seed {}, {} s, trace {}, {} attempted)",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.attempted
    );
    for m in &out.metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some((raw, slowness)) = raw {
        println!(
            "before dividing by the host's slowness ({slowness:.3}: median yardstick ÷ \
             {REFERENCE_MS} ms, over {PARTS} processes):"
        );
        for m in &raw {
            println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    if uses_pool(name) && stamp.effective_parallelism < PARALLEL_FLAG {
        println!(
            "flag: {name} fans out over {} workers but effective_parallelism is {:.2} \
             (< {PARALLEL_FLAG}): no parallel gain can show on this host",
            stamp.nproc, stamp.effective_parallelism
        );
    }
    println!("{}", out.to_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process, and gathers the results.
fn all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut runs = Vec::new();
    let mut ok = true;
    for name in NAMES {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let child = match cmd.stderr(std::process::Stdio::inherit()).output() {
            Ok(child) => child,
            Err(e) => {
                eprintln!("error: cannot run {name}: {e}");
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        let host = stdout.lines().find_map(|l| l.strip_prefix("host: "));
        let result = stdout.lines().last().filter(|l| l.starts_with('{'));
        ok &= child.status.success();
        match (host, result) {
            (Some(host), Some(result)) => runs.push(format!(
                "  {{\"workload\": \"{name}\", \"trace\": {}, \"host\": {host}, \"result\": {result}}}",
                u8::from(args.trace)
            )),
            _ => {
                eprintln!("error: {name} printed no result");
                ok = false;
            }
        }
    }
    if let Some(path) = &args.json {
        let doc = format!("{{\"runs\": [\n{}\n]}}\n", runs.join(",\n"));
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) if args.part => {
            let (out, part) = run(&args, name);
            println!("{}", part.to_line());
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some(name) => single(&args, name),
        None => all(&args),
    }
}
