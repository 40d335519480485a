//! Pooled scratch buffers for CFG construction.
//!
//! Lowering a program and assembling its [`crate::IntervalGraph`] churns
//! through a set of short-lived buffers — the lowering walk's edge list
//! and goto-patch tables, the dominator DFS worklist, reverse-postorder
//! tables, the assembly's edge classes and per-node counts. Under batch
//! linting the front end runs thousands of times per second, and those
//! allocations dominate its profile. A [`CfgScratch`] keeps the buffers alive between runs,
//! and [`CfgScratchPool::global`], a bounded [`gnt_dataflow::FreeList`]
//! like `gnt-core`'s solver `ScratchPool`, shares warm scratches across
//! pipeline workers.
//!
//! The public construction entry points ([`crate::lower`],
//! [`crate::IntervalGraph::from_cfg`] and [`crate::reversed_graph`])
//! check a scratch out of that pool transparently, so callers reuse
//! buffers without passing any.

use crate::graph::NodeId;
use crate::interval::EdgeClass;
use gnt_dataflow::{FreeList, Pooled};
use gnt_ir::Label;
use std::collections::HashMap;

/// Reusable buffers for one CFG construction (lower → dominators →
/// loop forest → interval assembly) or one reversed graph, checked out
/// of [`CfgScratchPool::global`].
#[derive(Debug, Default)]
pub struct CfgScratch {
    // Dominator computation: DFS bookkeeping plus the buffers that
    // become the `Dominators` tables. The latter are moved *into* the
    // computed `Dominators` and come back via `Dominators::recycle`.
    pub(crate) state: Vec<u8>,
    pub(crate) dfs: Vec<(NodeId, usize)>,
    pub(crate) rpo: Vec<NodeId>,
    pub(crate) rpo_index: Vec<u32>,
    pub(crate) idom: Vec<u32>,
    // Lowering: the edges in the order the walk adds them, the stack of
    // dangling ends, and label resolution for goto patching.
    pub(crate) edges: Vec<(NodeId, NodeId)>,
    pub(crate) ends: Vec<NodeId>,
    pub(crate) label_node: HashMap<Label, NodeId>,
    pub(crate) pending_gotos: Vec<(NodeId, Label)>,
    // Interval assembly: the real edges' classes, the synthetic edges
    // `(source, sink)` and their slots, jump-in `(header, source)`
    // pairs, and one count per node (a fill cursor, then the preorder's
    // in-degrees). Each lives as long as the scratch, so they are kept
    // few, and node indices and edge slots are `u32`, as in `NodeId`:
    // 2^32 edge slots would take over 32 GiB in the edge table alone.
    pub(crate) classes: Vec<EdgeClass>,
    pub(crate) synthetic: Vec<(u32, NodeId)>,
    pub(crate) synth_slots: Vec<u32>,
    pub(crate) jump_ins: Vec<(u32, NodeId)>,
    pub(crate) counts: Vec<u32>,
}

impl CfgScratch {
    /// An empty scratch; buffers grow to the working-set high-water mark
    /// on first use and stay allocated.
    pub fn new() -> CfgScratch {
        CfgScratch::default()
    }
}

/// A [`FreeList`] of warm [`CfgScratch`]es shared across threads.
pub type CfgScratchPool = FreeList<CfgScratch>;

impl Pooled for CfgScratch {
    fn global() -> &'static CfgScratchPool {
        static POOL: CfgScratchPool = CfgScratchPool::new();
        &POOL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lower, IntervalGraph};

    #[test]
    fn checkout_reuses_returned_scratches() {
        let pool = CfgScratchPool::new();
        {
            let _a = pool.checkout();
            let _b = pool.checkout();
            assert_eq!(pool.created(), 2);
        }
        assert_eq!(pool.warm(), 2);
        {
            let _c = pool.checkout();
            assert_eq!(pool.created(), 2);
        }
    }

    #[test]
    fn scratch_reuse_is_invisible_in_the_built_graph() {
        let srcs = [
            "do i = 1, N\n  y(i) = ...\nenddo",
            "if test then\n  a = 1\nelse\n  b = 2\nendif\nc = 3",
            "do i = 1, N\n  do j = 1, M\n    x(j) = 1\n  enddo\nenddo",
        ];
        let mut scratch = CfgScratch::new();
        for src in srcs {
            let p = gnt_ir::parse(src).unwrap();
            let fresh = lower(&p).unwrap();
            let pooled = crate::build::lower_with(&p, &mut scratch).unwrap();
            assert_eq!(fresh.node_of_stmt, pooled.node_of_stmt);
            let fresh_g = IntervalGraph::from_cfg(fresh.cfg).unwrap();
            let pooled_g = IntervalGraph::from_cfg_with(pooled.cfg, &mut scratch).unwrap();
            assert_eq!(fresh_g.preorder(), pooled_g.preorder());
            let all = crate::EdgeMask::CEFJ | crate::EdgeMask::S;
            for n in fresh_g.nodes() {
                assert_eq!(fresh_g.kind(n), pooled_g.kind(n));
                assert_eq!(
                    fresh_g.succs(n, all).collect::<Vec<_>>(),
                    pooled_g.succs(n, all).collect::<Vec<_>>()
                );
                assert_eq!(
                    fresh_g.preds(n, all).collect::<Vec<_>>(),
                    pooled_g.preds(n, all).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn steady_state_builds_create_one_scratch() {
        let pool = CfgScratchPool::new();
        let p = gnt_ir::parse("do i = 1, N\n  y(i) = ...\nenddo").unwrap();
        for _ in 0..16 {
            let mut s = pool.checkout();
            let lowered = crate::build::lower_with(&p, &mut s).unwrap();
            IntervalGraph::from_cfg_with(lowered.cfg, &mut s).unwrap();
        }
        assert_eq!(pool.created(), 1);
    }
}
