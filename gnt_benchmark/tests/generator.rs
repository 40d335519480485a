//! The seeded inputs: determinism, well-formedness, and edits that never
//! panic the pipeline.

use gnt_analyze::{lint_source, LintError, LintOptions};
use gnt_benchmark::gen::{
    corpus, log_uniform_shapes, program, Edit, Jump, Project, Shape, MAX_DEPTH,
};
use gnt_cfg::IntervalGraph;
use gnt_comm::{analyze, CommConfig};

#[test]
fn the_same_seed_gives_byte_identical_corpora() {
    let shapes = log_uniform_shapes(24, 10, 400);
    assert_eq!(corpus(7, &shapes), corpus(7, &shapes));
    assert_ne!(corpus(7, &shapes), corpus(8, &shapes));
}

#[test]
fn shapes_are_log_uniform_quantiles_with_every_path_in_each_run_of_twenty() {
    let shapes = log_uniform_shapes(48, 20, 300);
    assert!(shapes.windows(2).all(|w| w[0].stmts <= w[1].stmts));
    assert!(
        shapes[0].stmts >= 20 && shapes[47].stmts <= 300,
        "{shapes:?}"
    );
    for run in shapes.chunks(20) {
        for jump in [Jump::None, Jump::AfterWrite, Jump::BeforeWrite] {
            assert!(run.iter().any(|s| s.jump == jump), "{jump:?} missing");
        }
        assert!((1..=4).all(|a| run.iter().any(|s| s.arrays == a)));
    }
}

#[test]
fn programs_have_exactly_the_requested_statements_and_depth() {
    for seed in 0..40 {
        let shape = Shape {
            stmts: 10 + seed as usize * 7,
            arrays: 1 + seed as usize % 4,
            jump: [Jump::None, Jump::AfterWrite, Jump::BeforeWrite][seed as usize % 3],
        };
        let text = program(seed, shape);
        let p = gnt_ir::parse(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        // The closing `99 continue` of a file with a goto is extra.
        let gotos = text.matches("goto 99").count();
        assert_eq!(gotos, usize::from(shape.jump != Jump::None), "seed {seed}");
        assert_eq!(p.num_stmts(), shape.stmts + gotos, "seed {seed}");
        let depth = text
            .lines()
            .map(|l| (l.len() - l.trim_start().len()) / 2)
            .max()
            .unwrap_or(0);
        assert!(depth <= MAX_DEPTH, "seed {seed}: depth {depth}");
    }
}

#[test]
fn every_generated_file_is_reducible_with_a_non_empty_universe() {
    for (k, shape) in log_uniform_shapes(64, 10, 400).into_iter().enumerate() {
        let text = program(k as u64, shape);
        let p = gnt_ir::parse(&text).expect("generated programs parse");
        IntervalGraph::from_program(&p).unwrap_or_else(|e| panic!("file {k}: {e}\n{text}"));
        let distributed = gnt_analyze::driver::detect_distributed(&p);
        let refs: Vec<&str> = distributed.iter().map(String::as_str).collect();
        let analysis = analyze(&p, &CommConfig::distributed(&refs)).expect("analyzes");
        assert!(!analysis.universe.is_empty(), "file {k}: empty universe");
    }
}

#[test]
fn the_jump_shape_decides_whether_the_write_solve_poisons_a_loop() {
    for seed in 0..12 {
        for (jump, poisons) in [
            (Jump::None, false),
            (Jump::AfterWrite, false),
            (Jump::BeforeWrite, true),
        ] {
            let shape = Shape {
                stmts: 40 + 30 * seed as usize,
                arrays: 1 + seed as usize % 4,
                jump,
            };
            let p = gnt_ir::parse(&program(seed, shape)).expect("parses");
            let distributed = gnt_analyze::driver::detect_distributed(&p);
            let refs: Vec<&str> = distributed.iter().map(String::as_str).collect();
            let a = analyze(&p, &CommConfig::distributed(&refs)).expect("analyzes");
            let opts = gnt_core::SolverOptions::default();
            let after = gnt_core::solve_after(&a.graph, &a.write_problem, &opts).expect("solves");
            let poisoned = after
                .reversed
                .nodes()
                .any(|h| after.reversed.is_poisoned(h));
            assert_eq!(poisoned, poisons, "seed {seed}, {jump:?}");
        }
    }
}

#[test]
fn the_jth_edit_of_a_round_goes_to_the_jth_size_stratum() {
    let shapes = log_uniform_shapes(32, 10, 120);
    for seed in 0..4 {
        let mut project = Project::new(seed, &shapes);
        for _ in 0..50 {
            for (j, (k, edit)) in project.edit_round(4).into_iter().enumerate() {
                if edit != Edit::Restore {
                    assert!(
                        (8 * j..8 * j + 8).contains(&k),
                        "seed {seed}: edit {j} on {k}"
                    );
                }
            }
        }
    }
}

#[test]
fn edits_never_panic_and_break_only_what_they_drop() {
    let shapes = log_uniform_shapes(12, 10, 120);
    let mut project = Project::new(5, &shapes);
    let opts = LintOptions::default();
    let mut seen = Vec::new();
    for _ in 0..40 {
        for (k, edit) in project.edit_round(4) {
            seen.push(edit);
            let text = project.text(k);
            let result = std::panic::catch_unwind(|| lint_source(&text, &opts).map(|(_, r)| r));
            let result =
                result.unwrap_or_else(|_| panic!("{edit:?} on file {k} panicked:\n{text}"));
            match (result, project.is_broken(k)) {
                (Ok(report), false) => assert!(!report.has_errors(), "{edit:?}:\n{text}"),
                (Err(LintError::Parse(_)), true) => {}
                (other, broken) => panic!("{edit:?} (broken: {broken}) gave {other:?}:\n{text}"),
            }
        }
    }
    for edit in [
        Edit::Shift,
        Edit::AddConsumer,
        Edit::DropEnddo,
        Edit::Restore,
    ] {
        assert!(seen.contains(&edit), "no {edit:?} in 160 edits");
    }
}
