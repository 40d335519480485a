//! Shared workloads and helpers for the benchmark harness.
//!
//! Every table/figure of the paper is regenerated by a binary in
//! `src/bin/` (printing the rows to stdout); `bench_json` times the
//! solver and pipeline rows. The kernels here are the paper's own examples
//! plus two classic distributed-memory workloads exercising the same
//! code paths (a Jacobi-style stencil and an irregular gather/scatter).

use gnt_comm::{analyze, generate, CommConfig, CommPlan};
use gnt_ir::Program;
use std::io::Write;
use std::path::Path;

/// A named benchmark kernel: source program plus its distributed arrays.
#[derive(Clone, Copy, Debug)]
pub struct Kernel {
    /// Short name used in table rows.
    pub name: &'static str,
    /// MiniF source.
    pub source: &'static str,
    /// Distributed arrays.
    pub distributed: &'static [&'static str],
}

/// The evaluation kernels.
pub const KERNELS: &[Kernel] = &[
    Kernel {
        name: "fig1",
        source: "do i = 1, N\n  y(i) = ...\nenddo\n\
                 if test then\n  do j = 1, N\n    z(j) = ...\n  enddo\n\
                 \u{20} do k = 1, N\n    ... = x(a(k))\n  enddo\n\
                 else\n  do l = 1, N\n    ... = x(a(l))\n  enddo\nendif",
        distributed: &["x"],
    },
    Kernel {
        name: "fig3",
        source: "if test then\n  do i = 1, N\n    x(a(i)) = ...\n  enddo\n\
                 \u{20} do j = 1, N\n    ... = x(j+5)\n  enddo\nendif\n\
                 do k = 1, N\n  ... = x(k+5)\nenddo",
        distributed: &["x"],
    },
    Kernel {
        name: "fig11",
        source: "do i = 1, N\n  y(a(i)) = ...\n  if test(i) goto 77\nenddo\n\
                 do j = 1, N\n  ... = ...\nenddo\n\
                 77 do k = 1, N\n  ... = x(k+10) + y(b(k))\nenddo",
        distributed: &["x", "y"],
    },
    Kernel {
        name: "jacobi",
        source: "do t = 1, M\n\
                 \u{20} do i = 1, N\n    new(i) = u(i) + u(i+1) + u(i+2)\n  enddo\n\
                 \u{20} do j = 1, N\n    u(j+1) = new(j)\n  enddo\n\
                 enddo",
        distributed: &["u"],
    },
    Kernel {
        name: "irregular",
        source: "do i = 1, N\n  w(i) = ...\nenddo\n\
                 do k = 1, N\n  ... = x(a(k)) + x(b(k))\nenddo\n\
                 if test then\n  do l = 1, N\n    x(c(l)) = w(l)\n  enddo\nendif\n\
                 do m = 1, N\n  ... = x(a(m))\nenddo",
        distributed: &["x"],
    },
];

/// Parses a kernel and generates its communication plan.
///
/// # Panics
///
/// Panics on malformed kernels (they are constants in this crate).
pub fn plan_for(kernel: &Kernel) -> (Program, CommPlan) {
    let program = gnt_ir::parse(kernel.source).expect("kernel parses");
    let plan = generate(
        analyze(&program, &CommConfig::distributed(kernel.distributed)).expect("analyzes"),
    )
    .expect("plan generates");
    (program, plan)
}

/// Prints a horizontal rule sized for the standard table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// One machine-readable benchmark measurement, for tracking the perf
/// trajectory across commits (`--json` flags on the table binaries and
/// the `bench_json` harness emit these).
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Benchmark identifier, e.g. `"scaling"` or `"solve_into/256items"`.
    pub bench: String,
    /// Graph size the measurement was taken at.
    pub nodes: usize,
    /// Item-universe size the measurement was taken at.
    pub items: usize,
    /// Median solve time divided by node count.
    pub ns_per_node: f64,
    /// Worker threads used (1 = sequential). Reported for context only —
    /// deliberately *not* part of the baseline key (see
    /// [`check_against_baseline`]).
    pub threads: usize,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Writes `records` to `path` as a JSON array of
/// `{"bench", "nodes", "items", "ns_per_node", "threads"}` objects.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_records_json(path: &Path, records: &[BenchRecord]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "[")?;
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        writeln!(
            f,
            "  {{\"bench\": \"{}\", \"nodes\": {}, \"items\": {}, \"ns_per_node\": {:.1}, \"threads\": {}}}{}",
            json_escape(&r.bench),
            r.nodes,
            r.items,
            r.ns_per_node,
            r.threads,
            comma
        )?;
    }
    writeln!(f, "]")?;
    Ok(())
}

/// Reads a records file previously written by [`write_records_json`].
/// The parser is deliberately line-oriented — it reads exactly the
/// format this crate writes, not arbitrary JSON.
///
/// # Errors
///
/// Propagates I/O errors; malformed lines are skipped.
pub fn read_records_json(path: &Path) -> std::io::Result<Vec<BenchRecord>> {
    let text = std::fs::read_to_string(path)?;
    let field = |line: &str, key: &str| -> Option<String> {
        let tag = format!("\"{key}\":");
        let at = line.find(&tag)? + tag.len();
        let rest = line[at..].trim_start();
        if let Some(stripped) = rest.strip_prefix('"') {
            Some(stripped[..stripped.find('"')?].to_string())
        } else {
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim().to_string())
        }
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let (Some(bench), Some(nodes), Some(ns), Some(threads)) = (
            field(line, "bench"),
            field(line, "nodes"),
            field(line, "ns_per_node"),
            field(line, "threads"),
        ) else {
            continue;
        };
        let (Ok(nodes), Ok(ns_per_node), Ok(threads)) =
            (nodes.parse(), ns.parse(), threads.parse())
        else {
            continue;
        };
        // Pre-`items` baselines omit the field; 0 marks "unspecified" and
        // only ever matches records that also carry 0.
        let items = field(line, "items")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        out.push(BenchRecord {
            bench,
            nodes,
            items,
            ns_per_node,
            threads,
        });
    }
    Ok(out)
}

/// Compares `new` measurements against a committed `baseline`: every
/// record is keyed on (`bench`, `nodes`, `items`) and must be no more
/// than `tolerance_pct` percent slower per node than **every** baseline
/// record with that key. Returns one message per failure (empty = gate
/// passes).
///
/// The check is direction-aware:
///
/// * a **new** record without a baseline match is ignored — freshly
///   added benchmarks gate only once their rows are committed;
/// * a **baseline** key with no new record at all is a failure. A
///   renamed or silently dropped benchmark used to sail through the gate
///   as "nothing to compare"; now the run must cover every committed
///   key, so smoke runs must gate against the smoke baseline, full runs
///   against the full one.
///
/// Two deliberate properties of the key:
///
/// * duplicates are checked against *all* matches, not the first — a
///   stray duplicate row in a hand-edited baseline cannot shadow the
///   strict one and let a regression through;
/// * `threads` is **not** part of the key — a change to the recorded
///   thread count would otherwise unmatch the record and skip the gate
///   exactly when it most needs to fire.
pub fn check_against_baseline(
    new: &[BenchRecord],
    baseline: &[BenchRecord],
    tolerance_pct: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for r in new {
        for base in baseline
            .iter()
            .filter(|b| b.bench == r.bench && b.nodes == r.nodes && b.items == r.items)
        {
            let limit = base.ns_per_node * (1.0 + tolerance_pct / 100.0);
            if r.ns_per_node > limit {
                failures.push(format!(
                    "{} (nodes={}, items={}): {:.1} ns/node exceeds baseline {:.1} by more than {tolerance_pct}%",
                    r.bench, r.nodes, r.items, r.ns_per_node, base.ns_per_node
                ));
            }
        }
    }
    let mut missing: Vec<(&str, usize, usize)> = baseline
        .iter()
        .filter(|b| {
            !new.iter()
                .any(|r| r.bench == b.bench && r.nodes == b.nodes && r.items == b.items)
        })
        .map(|b| (b.bench.as_str(), b.nodes, b.items))
        .collect();
    missing.sort_unstable();
    missing.dedup();
    for (bench, nodes, items) in missing {
        failures.push(format!(
            "{bench} (nodes={nodes}, items={items}): baseline row has no measurement in this run \
             (renamed or dropped benchmark?)"
        ));
    }
    failures
}

/// Parses a `--json <path>` flag from the command line, if present.
pub fn json_flag_from_args() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            return Some(std::path::PathBuf::from(
                args.next().expect("--json requires a path"),
            ));
        }
    }
    None
}

/// Times `f` with one warm-up call and returns the median of `runs`
/// timed calls, in nanoseconds.
pub fn median_ns<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    let _ = std::hint::black_box(f());
    let mut times: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            let out = f();
            std::hint::black_box(&out);
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_build_plans() {
        for k in KERNELS {
            let (_, plan) = plan_for(k);
            assert!(!plan.analysis.universe.is_empty(), "{}", k.name);
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let records = vec![
            BenchRecord {
                bench: "solve/16items".to_string(),
                nodes: 605,
                items: 16,
                ns_per_node: 464.6,
                threads: 1,
            },
            BenchRecord {
                bench: "solve_into/256items".to_string(),
                nodes: 9605,
                items: 256,
                ns_per_node: 1936.9,
                threads: 4,
            },
        ];
        let dir = std::env::temp_dir().join("gnt_bench_roundtrip_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.json");
        write_records_json(&path, &records).unwrap();
        let back = read_records_json(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].bench, "solve/16items");
        assert_eq!(back[0].nodes, 605);
        assert_eq!(back[0].items, 16);
        assert!((back[0].ns_per_node - 464.6).abs() < 1e-9);
        assert_eq!(back[1].items, 256);
        assert_eq!(back[1].threads, 4);
    }

    #[test]
    fn pre_items_baselines_parse_with_items_zero() {
        let dir = std::env::temp_dir().join("gnt_bench_legacy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.json");
        std::fs::write(
            &path,
            "[\n  {\"bench\": \"solve/16items\", \"nodes\": 605, \"ns_per_node\": 464.6, \"threads\": 1}\n]\n",
        )
        .unwrap();
        let back = read_records_json(&path).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].items, 0, "missing field defaults to unspecified");
    }

    #[test]
    fn baseline_gate_flags_only_out_of_tolerance_regressions() {
        let base = vec![BenchRecord {
            bench: "solve/16items".to_string(),
            nodes: 605,
            items: 16,
            ns_per_node: 100.0,
            threads: 1,
        }];
        let mut new = base.clone();
        new[0].ns_per_node = 129.0;
        assert!(check_against_baseline(&new, &base, 30.0).is_empty());
        new[0].ns_per_node = 131.0;
        assert_eq!(check_against_baseline(&new, &base, 30.0).len(), 1);
        // An unmatched NEW record is ignored as such, but it leaves the
        // baseline key uncovered, which is itself a failure now.
        new[0].nodes = 155;
        let failures = check_against_baseline(&new, &base, 30.0);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("no measurement"), "{failures:?}");
        // A run covering the baseline key passes regardless of extra rows.
        new.push(base[0].clone());
        assert!(check_against_baseline(&new, &base, 30.0).is_empty());
    }

    #[test]
    fn baseline_gate_fails_loudly_on_dropped_benchmarks() {
        let base = vec![
            BenchRecord {
                bench: "solve/16items".to_string(),
                nodes: 605,
                items: 16,
                ns_per_node: 100.0,
                threads: 1,
            },
            BenchRecord {
                bench: "delta_1row/16items".to_string(),
                nodes: 605,
                items: 16,
                ns_per_node: 10.0,
                threads: 1,
            },
        ];
        // The run renamed (or forgot) the delta benchmark: within
        // tolerance on what it did measure, but the dropped row fails.
        let new = vec![base[0].clone()];
        let failures = check_against_baseline(&new, &base, 30.0);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("delta_1row/16items") && failures[0].contains("no measurement"),
            "{failures:?}"
        );
        // Duplicate baseline rows for one key report once.
        let dup = vec![base[1].clone(), base[1].clone(), base[0].clone()];
        assert_eq!(check_against_baseline(&new, &dup, 30.0).len(), 1);
    }

    #[test]
    fn baseline_gate_checks_every_duplicate_and_ignores_threads() {
        // A duplicate baseline row with a looser value must not shadow
        // the strict one: the gate compares against all matches.
        let strict = BenchRecord {
            bench: "solve/256items".to_string(),
            nodes: 605,
            items: 256,
            ns_per_node: 100.0,
            threads: 1,
        };
        let loose = BenchRecord {
            ns_per_node: 1000.0,
            ..strict.clone()
        };
        let mut new = vec![strict.clone()];
        new[0].ns_per_node = 131.0;
        assert_eq!(
            check_against_baseline(&new, &[loose.clone(), strict.clone()], 30.0).len(),
            1,
            "first-match would have passed against the loose duplicate"
        );
        // A planner granting a different thread count must not unmatch
        // the record: threads is reporting, not identity.
        new[0].threads = 4;
        assert_eq!(
            check_against_baseline(&new, std::slice::from_ref(&strict), 30.0).len(),
            1,
            "a changed thread grant must not skip the gate"
        );
        new[0].ns_per_node = 99.0;
        assert!(check_against_baseline(&new, &[loose, strict], 30.0).is_empty());
    }
}
