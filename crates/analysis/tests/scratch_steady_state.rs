//! The process-wide scratch pools reach a steady state: once one batch
//! has warmed them, further batches and serial lints create no solver
//! or CFG scratch. This binary holds this one test, so it owns its
//! process and the global `created()` counts are exact.

use gnt_analyze::driver::{lint_source, LintOptions};
use gnt_analyze::{lint_batch_on, Source};
use gnt_cfg::CfgScratchPool;
use gnt_core::{random_program, GenConfig, ScratchPool};
use gnt_dataflow::WorkerPool;

fn corpus() -> Vec<Source> {
    (0..24)
        .map(|seed| {
            let program = random_program(seed, &GenConfig::default());
            Source::new(format!("seed{seed}.minif"), gnt_ir::pretty(&program))
        })
        .collect()
}

fn created() -> (usize, usize) {
    (
        ScratchPool::global().created(),
        CfgScratchPool::global().created(),
    )
}

#[test]
fn warm_batches_and_serial_lints_create_no_scratch() {
    let sources = corpus();
    let pool = WorkerPool::new(2);
    let opts = LintOptions {
        zero_trip: true,
        ..LintOptions::default()
    };
    assert_eq!(created(), (0, 0), "nothing checked out yet");

    let warm_up = lint_batch_on(&pool, &sources, &opts);
    assert!(warm_up.iter().all(|o| o.result.is_ok()));
    let warm = created();
    assert!(
        (1..=2).contains(&warm.0) && (1..=2).contains(&warm.1),
        "a 2-wide fan-out needs at most 2 scratches of each kind: {warm:?}"
    );

    for round in 0..3 {
        let outcomes = lint_batch_on(&pool, &sources, &opts);
        assert_eq!(outcomes.len(), sources.len());
        for source in &sources[..4] {
            assert!(lint_source(&source.text, &opts).is_ok());
        }
        assert_eq!(created(), warm, "round {round} created a scratch");
    }
}
