//! The process-wide scratch pools reach a steady state: a 2-wide batch
//! never holds more than two solver or CFG scratches, and once a batch
//! has warmed them, serial lints create none. This binary holds this one
//! test, so it owns its process and the global `created()` counts are
//! exact.
//!
//! Whether the two workers' checkouts overlap is a matter of timing (a
//! CFG scratch is held only around lowering, the interval graph and the
//! reversed graph), so one batch need not create the second scratch of a
//! kind; a later one may. The warm-up therefore runs until a whole batch
//! leaves both counts unchanged, and later batches are held to the bound
//! of two, not to an exact count.

use gnt_analyze::driver::{lint_source, LintOptions};
use gnt_analyze::{lint_batch_on, Source};
use gnt_cfg::CfgScratchPool;
use gnt_core::{random_program, GenConfig, ScratchPool};
use gnt_dataflow::WorkerPool;

/// Warm-up batches allowed before one must leave the counts unchanged.
/// Each batch that changes them creates at least one of the at most
/// 2 + 2 scratches, so 5 always suffice.
const WARM_UP_ROUNDS: usize = 5;

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

/// A 2-wide fan-out needs at most 2 scratches of each kind.
fn assert_bounded(when: &str) -> (usize, usize) {
    let now = created();
    assert!(
        (1..=2).contains(&now.0) && (1..=2).contains(&now.1),
        "{when}: a 2-wide fan-out needs at most 2 scratches of each kind: {now:?}"
    );
    now
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

    let mut before = created();
    let mut round = 0;
    loop {
        assert!(
            round < WARM_UP_ROUNDS,
            "no batch of {WARM_UP_ROUNDS} left the counts unchanged: {before:?}"
        );
        let outcomes = lint_batch_on(&pool, &sources, &opts);
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        let after = assert_bounded(&format!("warm-up round {round}"));
        if after == before {
            break;
        }
        before = after;
        round += 1;
    }

    for round in 0..3 {
        let outcomes = lint_batch_on(&pool, &sources, &opts);
        assert_eq!(outcomes.len(), sources.len());
        let warm = assert_bounded(&format!("round {round}"));
        for source in &sources[..4] {
            assert!(lint_source(&source.text, &opts).is_ok());
        }
        assert_eq!(
            created(),
            warm,
            "round {round}: a serial lint created a scratch"
        );
    }
}
