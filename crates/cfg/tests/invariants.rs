//! Property tests: the §3.3/§3.4 structural invariants of the interval
//! flow graph hold for every random structured program, in both
//! orientations.

use gnt_cfg::{reversed_graph, EdgeClass, EdgeMask, IntervalGraph};
use gnt_core::{random_program, GenConfig};
use proptest::prelude::*;

fn check_invariants(g: &IntervalGraph, reversed: bool) -> Result<(), String> {
    for n in g.nodes() {
        // Unique CYCLE edge per header, and LASTCHILD consistency.
        let cycles: Vec<_> = g.preds(n, EdgeMask::C).collect();
        if cycles.len() > 1 {
            return Err(format!("{n} has {} cycle edges", cycles.len()));
        }
        if let Some(lc) = g.last_child(n) {
            if cycles != vec![lc] {
                return Err(format!("LASTCHILD({n}) mismatch"));
            }
            // The cycle source has no EFJ successors.
            if g.succs(lc, EdgeMask::EFJ).count() != 0 {
                return Err(format!("cycle source {lc} has EFJ succs"));
            }
        }
        // No critical edges among real edges.
        let outs: Vec<_> = g.succs(n, EdgeMask::CEFJ).collect();
        if outs.len() > 1 {
            for &s in &outs {
                if g.preds(s, EdgeMask::CEFJ).count() > 1 {
                    return Err(format!("critical edge {n} → {s}"));
                }
            }
        }
        for (s, c) in g.succ_edges(n) {
            match c {
                EdgeClass::Jump
                    // Jump sinks have only the jump predecessor (CEF-wise).
                    if g.preds(s, EdgeMask::CEF).count() != 0 => {
                        return Err(format!("jump sink {s} has CEF preds"));
                    }
                EdgeClass::JumpIn if !reversed => {
                    return Err(format!("JumpIn on forward graph at {n}"));
                }
                _ => {}
            }
            // Preorder: F/J/S edges go forward, headers precede members.
            if matches!(
                c,
                EdgeClass::Forward | EdgeClass::Jump | EdgeClass::Synthetic
            ) && g.preorder_index(n) >= g.preorder_index(s)
            {
                return Err(format!("preorder violated on {n} → {s}"));
            }
        }
        for &h in g.enclosing_headers(n) {
            if g.preorder_index(h) >= g.preorder_index(n) {
                return Err(format!("header {h} not before member {n}"));
            }
            if !g.is_loop_header(h) {
                return Err(format!("enclosing {h} is not a header"));
            }
        }
        // LEVEL = 1 + enclosing count (0 for ROOT).
        let expect = if n == g.root() {
            0
        } else {
            1 + g.enclosing_headers(n).len()
        };
        if g.level(n) != expect {
            return Err(format!("level({n}) = {} ≠ {expect}", g.level(n)));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn forward_graphs_satisfy_the_structural_invariants(seed in 0u64..20_000) {
        let program = random_program(seed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        check_invariants(&graph, false).map_err(|e| {
            TestCaseError::fail(format!("{e}\n{}", graph.dump()))
        })?;
    }

    #[test]
    fn reversed_graphs_satisfy_the_structural_invariants(seed in 0u64..20_000) {
        let program = random_program(seed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let rev = reversed_graph(&graph).unwrap();
        check_invariants(&rev, true).map_err(|e| {
            TestCaseError::fail(format!("{e}\n{}", rev.dump()))
        })?;
    }
}

/// `real_succ_edges` is exactly "every successor edge except the
/// synthetic ones and the virtual exit→ROOT cycle edge", written out here
/// as an independent filter, on both orientations of the figure programs
/// and of random programs with `goto`s.
#[test]
fn real_succ_edges_drop_exactly_the_synthetic_and_virtual_edges() {
    let figures = ["fig1", "fig3", "fig11"].map(|name| {
        let path = format!("{}/../../examples/{name}.minif", env!("CARGO_MANIFEST_DIR"));
        gnt_ir::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    });
    let config = GenConfig {
        goto_prob: 0.1,
        ..GenConfig::default()
    };
    let random = (0..60u64).map(|seed| random_program(seed, &config));
    let mut graphs = 0;
    for program in figures.into_iter().chain(random) {
        let Ok(forward) = IntervalGraph::from_program(&program) else {
            continue;
        };
        let reversed = reversed_graph(&forward).ok();
        for g in std::iter::once(&forward).chain(reversed.as_ref()) {
            for n in g.nodes() {
                let expected: Vec<_> = g
                    .succ_edges(n)
                    .filter(|&(s, c)| {
                        c != EdgeClass::Synthetic && !(c == EdgeClass::Cycle && s == g.root())
                    })
                    .collect();
                assert_eq!(g.real_succ_edges(n).collect::<Vec<_>>(), expected);
            }
            graphs += 1;
        }
    }
    assert!(graphs >= 100, "{graphs} graphs");
}
