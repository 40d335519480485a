//! Determinism contract for the batch front-end: the rendered diagnostic
//! stream for a corpus is byte-identical at every worker count, and
//! warm batches on the global pool reproduce the cold stream.

use gnt_analyze::driver::LintOptions;
use gnt_analyze::{lint_batch, lint_batch_on, render_json_batch, Source};
use gnt_core::{random_program, GenConfig};
use gnt_dataflow::WorkerPool;

/// Figure 1 of the paper: lints clean normally, but produces zero-trip
/// warnings under `--zero-trip` — the corpus salts these in so the
/// compared streams carry real findings.
const FIG1: &str = "do i = 1, N\n  y(i) = ...\nenddo\n\
                    if test then\n  do k = 1, N\n    ... = x(a(k))\n  enddo\n\
                    else\n  do l = 1, N\n    ... = x(a(l))\n  enddo\nendif";

/// 100 generated programs (names embed the seed so diffs are
/// attributable), every tenth one replaced by a finding-producing
/// Figure 1.
fn corpus() -> Vec<Source> {
    (0..100)
        .map(|seed| {
            if seed % 10 == 9 {
                return Source::new(format!("fig1_{seed}.minif"), FIG1);
            }
            let program = random_program(seed, &GenConfig::default());
            Source::new(format!("seed{seed}.minif"), gnt_ir::pretty(&program))
        })
        .collect()
}

/// Renders a batch the way `gnt-lint --format=json` does: one flat
/// document over every successful outcome, in input order.
fn render(sources: &[Source], outcomes: &[gnt_analyze::LintOutcome]) -> String {
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
    render_json_batch(&entries)
}

#[test]
fn diagnostic_stream_is_byte_identical_at_1_2_and_8_threads() {
    let sources = corpus();
    let opts = LintOptions {
        zero_trip: true, // surface some findings so the streams are non-trivial
        ..LintOptions::default()
    };

    let outcomes = lint_batch_on(&WorkerPool::new(1), &sources, &opts);
    assert_eq!(outcomes.len(), sources.len());
    for o in &outcomes {
        assert!(o.result.is_ok(), "{} failed: {:?}", o.name, o.result);
    }
    let baseline = render(&sources, &outcomes);
    assert!(
        baseline.contains("GNT"),
        "corpus produced no findings — the comparison would be vacuous"
    );

    for threads in [2usize, 8] {
        let outcomes = lint_batch_on(&WorkerPool::new(threads), &sources, &opts);
        let stream = render(&sources, &outcomes);
        assert_eq!(
            stream, baseline,
            "diagnostic stream diverged at {threads} threads"
        );
    }
}

#[test]
fn warm_batches_on_the_global_pool_reproduce_the_stream() {
    let sources = corpus();
    let opts = LintOptions::default();

    // The first batch fills the scratch pool's arenas and the pipeline
    // cache; the later ones run warm.
    let first = render(&sources, &lint_batch(&sources, &opts));
    for _ in 0..5 {
        let again = render(&sources, &lint_batch(&sources, &opts));
        assert_eq!(again, first, "warm batches must reproduce the stream");
    }
}
