//! Reversed interval graphs for AFTER problems (§5.3 of the paper).
//!
//! An AFTER problem (e.g. placing global WRITEs after the definitions they
//! communicate) is a BEFORE problem on the reversed flow graph. The
//! reversed graph must satisfy the same structural requirements as the
//! forward one, which §5.3 observes is not automatic:
//!
//! * original ENTRY edges become the reversed loop's back edges (unified
//!   behind a fresh latch if needed), and the original CYCLE edge becomes
//!   its ENTRY edge — the *interval structure is kept*: each loop keeps
//!   its member set, and its unique entry in reversed flow is still the
//!   original header, because every MiniF loop exits through its header;
//! * original JUMP edges become jumps *into* loops, which would make the
//!   reversed graph irreducible. Such edges are kept as
//!   [`EdgeClass::JumpIn`](crate::EdgeClass::JumpIn) and recorded with
//!   every interval header they bypass
//!   ([`IntervalGraph::jump_in_sources`](crate::IntervalGraph::jump_in_sources)),
//!   so the solver can either extend availability (Eq. 11) along them or
//!   fall back to §5.3's conservative poisoning.

use crate::dom::{LoopForest, LoopId, LoopInfo};
use crate::graph::{Flat, NodeId, NodeKind};
use crate::interval::{latch_back_edges, GraphError, IntervalGraph};
use crate::scratch::CfgScratchPool;

/// Builds the reversed interval graph of `g` for solving AFTER problems.
///
/// Node ids of `g` are preserved (new synthetic nodes may be appended).
/// The reversed graph's ROOT is `g.exit()` and its exit is `g.root()`.
///
/// # Errors
///
/// Returns [`GraphError`] if the reversed structure cannot be scheduled
/// (not expected for graphs produced by
/// [`IntervalGraph::from_program`](crate::IntervalGraph::from_program)).
///
/// # Examples
///
/// ```
/// use gnt_cfg::{reversed_graph, IntervalGraph};
///
/// let p = gnt_ir::parse("do i = 1, N\n  x(a(i)) = ...\nenddo")?;
/// let g = IntervalGraph::from_program(&p)?;
/// let r = reversed_graph(&g)?;
/// assert_eq!(r.root(), g.exit());
/// assert_eq!(r.exit(), g.root());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn reversed_graph(g: &IntervalGraph) -> Result<IntervalGraph, GraphError> {
    reversed_graph_with_loops(g, reversed_loops(g))
}

/// [`reversed_graph`] around an explicit loop transfer: `loops` must be
/// what [`reversed_loops`] returns for `g` (sorted inner-to-outer, parents
/// and depths consistent). The seam lets a test rebuild the reversed
/// graph from an independent transfer and compare the two.
///
/// # Errors
///
/// As [`reversed_graph`].
pub fn reversed_graph_with_loops(
    g: &IntervalGraph,
    loops: Vec<LoopInfo>,
) -> Result<IntervalGraph, GraphError> {
    // 1. Transfer the loop forest: identical headers and member sets.
    let mut forest = LoopForest::from_parts(loops, g.num_nodes());
    let mut kinds: Vec<NodeKind> = g.nodes().map(|x| g.kind(x)).collect();

    // 2. Reversed real edges over the same node ids: node x's out-edges
    //    are its forward real (CEFJ) in-edges, by ascending source.
    //    Synthetic edges and the virtual exit→ROOT cycle edge are
    //    artifacts re-derived by the assembly. Reversal keeps the forward
    //    graph free of critical edges, so nothing needs splitting; debug
    //    builds re-check that when validating the result.
    let reversed = Flat::build(kinds.len(), |i, out| {
        let x = NodeId(i as u32);
        out.extend(
            g.pred_edges(x)
                .filter(|&(_, c)| g.is_real(x, c))
                .map(|(p, _)| p),
        );
    });

    // 3. A unique CYCLE edge per loop: the original ENTRY edges are the
    //    reversed loop's back edges.
    let real = latch_back_edges(reversed, &mut forest, &mut kinds);

    // 4. Assemble with jump-in edges tolerated; they poison the loops they
    //    enter (§5.3).
    let mut scratch = CfgScratchPool::global().checkout();
    IntervalGraph::assemble(
        kinds,
        (g.exit(), g.root()),
        &real,
        &forest,
        true,
        &mut scratch,
    )
}

/// The loop records [`reversed_graph`] transfers from `g`: the same
/// headers and member sets (members in id order), sorted inner-to-outer
/// by member count (stable over header ids), each with the parent and
/// depth it has in `g`.
///
/// One walk over the nodes builds every member list — each node joins the
/// loops of its enclosing headers — so the transfer is linear in the
/// total member count.
pub fn reversed_loops(g: &IntervalGraph) -> Vec<LoopInfo> {
    const NONE: usize = usize::MAX;
    let mut slot = vec![NONE; g.num_nodes()];
    let mut loops: Vec<LoopInfo> = Vec::new();
    for h in g.nodes().filter(|&n| g.is_loop_header(n)) {
        slot[h.index()] = loops.len();
        loops.push(LoopInfo {
            header: h,
            members: Vec::new(),
            parent: None,
            depth: g.level(h),
        });
    }
    for n in g.nodes() {
        // `get_mut(NONE)` skips an enclosing header that heads no loop.
        for &h in g.enclosing_headers(n) {
            if let Some(l) = loops.get_mut(slot[h.index()]) {
                l.members.push(n);
            }
        }
    }
    loops.sort_by_key(|l| l.members.len());
    for (i, l) in loops.iter().enumerate() {
        slot[l.header.index()] = i;
    }
    // Parent: the first loop in sorted order listing the header as a
    // member, i.e. the lowest sorted index among its enclosing headers.
    let parents: Vec<Option<LoopId>> = loops
        .iter()
        .map(|l| {
            g.enclosing_headers(l.header)
                .iter()
                .map(|h| slot[h.index()])
                .filter(|&j| j != NONE)
                .min()
                .map(|j| LoopId(j as u32))
        })
        .collect();
    for (l, p) in loops.iter_mut().zip(parents) {
        l.parent = p;
    }
    loops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{EdgeClass, EdgeMask};
    use gnt_ir::parse;

    fn fwd(src: &str) -> IntervalGraph {
        IntervalGraph::from_program(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn straight_line_reverses_cleanly() {
        let g = fwd("a = 1\nb = 2");
        let r = reversed_graph(&g).unwrap();
        assert_eq!(r.num_nodes(), g.num_nodes());
        assert_eq!(r.root(), g.exit());
        // Same number of real edges.
        let real = |x: &IntervalGraph| {
            x.nodes()
                .flat_map(|n| x.succ_edges(n).collect::<Vec<_>>())
                .filter(|(s, c)| {
                    !(matches!(c, EdgeClass::Synthetic)
                        || (*c == EdgeClass::Cycle && *s == x.root()))
                })
                .count()
        };
        assert_eq!(real(&r), real(&g));
    }

    #[test]
    fn loop_keeps_header_and_members_in_reverse() {
        let g = fwd("do i = 1, N\n  x(a(i)) = ...\nenddo");
        let header = g.nodes().find(|&n| g.is_loop_header(n)).unwrap();
        let r = reversed_graph(&g).unwrap();
        assert!(r.is_loop_header(header));
        // The original body node is still a member.
        for n in g.nodes() {
            if g.enclosing_headers(n).contains(&header) {
                assert!(r.enclosing_headers(n).contains(&header));
            }
        }
        // Reversed ENTRY edge: header → original latch side.
        assert_eq!(r.succs(header, EdgeMask::E).count(), 1);
        assert_eq!(r.preds(header, EdgeMask::C).count(), 1);
    }

    #[test]
    fn jump_out_becomes_jump_in_and_records_sources() {
        let g = fwd("do i = 1, N\n  if t(i) goto 7\n  a = 1\nenddo\n7 b = 2");
        let header = g.nodes().find(|&n| g.is_loop_header(n)).unwrap();
        let r = reversed_graph(&g).unwrap();
        let jump_ins = r
            .nodes()
            .flat_map(|n| r.succ_edges(n).collect::<Vec<_>>())
            .filter(|(_, c)| *c == EdgeClass::JumpIn)
            .count();
        assert_eq!(jump_ins, 1, "{}", r.dump());
        // The jump-in source is recorded with the bypassed header so the
        // solver can extend Eq. 11 (§5.3).
        assert_eq!(r.jump_in_sources(header).len(), 1);
        assert!(
            !r.is_poisoned(header),
            "poisoning is now the solver's fallback"
        );
    }

    #[test]
    fn no_jump_edges_in_reversed_graph() {
        let g = fwd("do i = 1, N\n  if t(i) goto 7\n  a = 1\nenddo\n7 b = 2");
        let r = reversed_graph(&g).unwrap();
        let jumps = r
            .nodes()
            .flat_map(|n| r.succ_edges(n).collect::<Vec<_>>())
            .filter(|(_, c)| *c == EdgeClass::Jump)
            .count();
        assert_eq!(jumps, 0, "{}", r.dump());
    }

    #[test]
    fn nested_loops_reverse_with_nesting_intact() {
        let g = fwd("do i = 1, N\n  do j = 1, M\n    x(j) = 1\n  enddo\nenddo");
        let r = reversed_graph(&g).unwrap();
        let headers: Vec<_> = g.nodes().filter(|&n| g.is_loop_header(n)).collect();
        for &h in &headers {
            assert!(r.is_loop_header(h));
            assert_eq!(r.level(h), g.level(h));
        }
    }

    #[test]
    fn reversed_preorder_respects_headers() {
        let g = fwd("do i = 1, N\n  do j = 1, M\n    x(j) = 1\n  enddo\nenddo\nc = 1");
        let r = reversed_graph(&g).unwrap();
        for n in r.nodes() {
            for &h in r.enclosing_headers(n) {
                assert!(r.preorder_index(h) < r.preorder_index(n));
            }
        }
    }
}
