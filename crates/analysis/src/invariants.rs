//! Structural lint: the §3.3/§3.4 interval-flow-graph invariants,
//! reported as `GNT010` diagnostics instead of panics.
//!
//! The checks mirror the property-test oracle in `gnt-cfg`: unique
//! CYCLE edge and LASTCHILD consistency, no critical edges among real
//! edges, jump-sink isolation, preorder monotonicity of forward edges,
//! header-before-member ordering, and the LEVEL equation. A healthy
//! graph produces no diagnostics; a corrupted one produces one
//! diagnostic per violated invariant.

use crate::diag::Diagnostic;
use gnt_cfg::{EdgeClass, EdgeMask, IntervalGraph};

/// Checks every structural invariant of `graph`, returning one `GNT010`
/// diagnostic per violation. `reversed` selects the orientation rules
/// (JUMPIN edges are legal only on reversed graphs).
pub fn lint_graph(graph: &IntervalGraph, reversed: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut report = |node, msg: String| {
        out.push(
            Diagnostic::error("GNT010", msg)
                .at(node)
                .note("the interval flow graph no longer satisfies §3.3/§3.4"),
        );
    };

    for n in graph.nodes() {
        // Unique CYCLE edge per header, consistent with LASTCHILD.
        let mut cycles = graph.preds(n, EdgeMask::C);
        let first_cycle = cycles.next();
        let num_cycles = usize::from(first_cycle.is_some()) + cycles.count();
        if num_cycles > 1 {
            report(
                n,
                format!("node {n} has {num_cycles} CYCLE in-edges (max 1)"),
            );
        }
        if let Some(lc) = graph.last_child(n) {
            if num_cycles != 1 || first_cycle != Some(lc) {
                report(
                    n,
                    format!("LASTCHILD({n}) = {lc} does not match its CYCLE edge"),
                );
            }
            if graph.succs(lc, EdgeMask::EFJ).next().is_some() {
                report(
                    lc,
                    format!("CYCLE source {lc} has ENTRY/FORWARD/JUMP successors"),
                );
            }
        }
        // No critical edges among real (CEFJ) edges.
        if graph.succs(n, EdgeMask::CEFJ).nth(1).is_some() {
            for s in graph.succs(n, EdgeMask::CEFJ) {
                if graph.preds(s, EdgeMask::CEFJ).nth(1).is_some() {
                    report(n, format!("critical edge {n} → {s} survived normalization"));
                }
            }
        }
        for (s, c) in graph.succ_edges(n) {
            match c {
                EdgeClass::Jump if graph.preds(s, EdgeMask::CEF).next().is_some() => {
                    report(s, format!("JUMP sink {s} has non-JUMP predecessors"));
                }
                EdgeClass::JumpIn if !reversed => {
                    report(n, format!("JUMPIN edge {n} → {s} on a forward graph"));
                }
                _ => {}
            }
            if matches!(
                c,
                EdgeClass::Forward | EdgeClass::Jump | EdgeClass::Synthetic
            ) && graph.preorder_index(n) >= graph.preorder_index(s)
            {
                report(n, format!("{c:?} edge {n} → {s} goes backward in preorder"));
            }
        }
        for &h in graph.enclosing_headers(n) {
            if graph.preorder_index(h) >= graph.preorder_index(n) {
                report(
                    h,
                    format!("header {h} does not precede its member {n} in preorder"),
                );
            }
            if !graph.is_loop_header(h) {
                report(h, format!("enclosing node {h} of {n} is not a loop header"));
            }
        }
        // LEVEL = 1 + number of enclosing headers (0 for ROOT).
        let expect = if n == graph.root() {
            0
        } else {
            1 + graph.enclosing_headers(n).len()
        };
        if graph.level(n) != expect {
            report(
                n,
                format!("LEVEL({n}) = {}, expected {expect}", graph.level(n)),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_graphs_lint_clean_in_both_orientations() {
        let p = gnt_ir::parse(
            "do i = 1, N\n  y(a(i)) = ...\n  if test(i) goto 77\nenddo\n\
             do j = 1, N\n  ... = ...\nenddo\n\
             77 do k = 1, N\n  ... = x(k+10)\nenddo",
        )
        .unwrap();
        let g = IntervalGraph::from_program(&p).unwrap();
        assert!(lint_graph(&g, false).is_empty());
        let rev = gnt_cfg::reversed_graph(&g).unwrap();
        assert!(lint_graph(&rev, true).is_empty());
    }

    #[test]
    fn jumpin_is_reported_on_forward_orientation_only() {
        // A reversed graph legitimately contains JUMPIN edges; linting it
        // *as if forward* must flag them — showing the pass reports
        // instead of panicking on structure it does not expect.
        let p = gnt_ir::parse("do i = 1, N\n  if test(i) goto 9\n  a = 1\nenddo\n9 b = 2").unwrap();
        let g = IntervalGraph::from_program(&p).unwrap();
        let rev = gnt_cfg::reversed_graph(&g).unwrap();
        assert!(lint_graph(&rev, true).is_empty());
        let diags = lint_graph(&rev, false);
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.code == "GNT010"));
        assert!(diags.iter().any(|d| d.message.contains("JUMPIN")));
    }
}
