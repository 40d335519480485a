//! A `--smoke` run of every workload prints exactly the metrics
//! `BENCHMARK.json` lists: the end-to-end ones untraced, the per-layer
//! ones traced.

use std::process::Command;

/// The `"name"` values inside the JSON array that follows `key`.
fn names_under(doc: &str, key: &str) -> Vec<String> {
    let start = doc.find(&format!("\"{key}\"")).expect("key present");
    let open = start + doc[start..].find('[').expect("array follows");
    let close = open + doc[open..].find(']').expect("array closes");
    doc[open..close]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

/// The metric names of a result line, in order.
fn result_metrics(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    // Every piece but the last ends with a metric name: `…, "name`.
    let pieces: Vec<&str> = metrics.split("\": {\"value\"").collect();
    pieces[..pieces.len() - 1]
        .iter()
        .map(|s| s[s.rfind('"').expect("opening quote") + 1..].to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    // Traced runs write their spans under the working directory.
    let out = Command::new(env!("CARGO_BIN_EXE_gnt-benchmark"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("run gnt-benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(out.status.success(), "{workload} trace {trace}:\n{stdout}");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn smoke_runs_emit_exactly_the_listed_metrics() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let workloads = names_under(&doc, "workloads");
    assert_eq!(workloads, gnt_benchmark::workloads::NAMES);
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let listed = names_under(&doc, key);
        for w in &workloads {
            let line = run(w, trace);
            assert!(line.starts_with("{\"correct\": true,"), "{w}: {line}");
            assert_eq!(result_metrics(&line), listed, "{w} trace {trace}");
        }
    }
}
