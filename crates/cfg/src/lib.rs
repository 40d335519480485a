//! Control flow graphs and interval structure for GIVE-N-TAKE.
//!
//! This crate provides everything between the MiniF AST and the
//! GIVE-N-TAKE equations:
//!
//! * [`lower`] — one-CFG-node-per-statement lowering of a
//!   [`gnt_ir::Program`],
//! * [`Dominators`], [`LoopForest`], [`make_reducible`] — dominator
//!   analysis, Tarjan-style loop nesting, reducibility repair,
//! * [`IntervalGraph`] — the paper's interval flow graph (§3.3):
//!   normalized (no critical edges, unique CYCLE edge per interval) with
//!   edges classified ENTRY/CYCLE/JUMP/FORWARD plus SYNTHETIC edges and
//!   the traversal orders of §3.4,
//! * [`reversed_graph`] — the reversed structure used for AFTER problems
//!   (§5.3),
//! * [`CfgFlow`] — an adapter running the generic iterative solver of
//!   [`gnt_dataflow`] over a [`Cfg`] (PRE baselines, verifiers).
//!
//! # Examples
//!
//! ```
//! use gnt_cfg::{EdgeMask, IntervalGraph};
//!
//! let program = gnt_ir::parse(
//!     "do i = 1, N\n  y(a(i)) = ...\n  if test(i) goto 77\nenddo\n77 continue",
//! )?;
//! let graph = IntervalGraph::from_program(&program)?;
//! let header = graph.nodes().find(|&n| graph.is_loop_header(n)).unwrap();
//! assert_eq!(graph.preds(header, EdgeMask::C).count(), 1); // unique CYCLE edge
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod build;
mod dom;
mod dot;
mod graph;
mod interval;
mod reverse;
mod scratch;

pub use build::{lower, lower_with, BuildError, LoweredCfg};
pub use dom::{
    back_edges, make_reducible, Dominators, IrreducibleError, LoopForest, LoopId, LoopInfo,
};
pub use dot::{to_dot, DotOverlay};
pub use graph::{Cfg, NodeId, NodeKind, SynthKind};
pub use interval::{EdgeClass, EdgeMask, GraphError, IntervalGraph};
pub use reverse::reversed_graph;
pub use scratch::{CfgScratch, CfgScratchPool, PooledCfgScratch};

/// Maps every node of `graph` to the source span of the statement it was
/// lowered from, if any: the node→span table consumed by diagnostics
/// (`gnt-analyze`). Synthetic nodes, ROOT/EXIT, and statements built
/// programmatically (no parse spans) map to `None`.
///
/// # Examples
///
/// ```
/// use gnt_cfg::{node_spans, IntervalGraph, NodeKind};
///
/// let src = "a = 1\nb = 2";
/// let p = gnt_ir::parse(src)?;
/// let g = IntervalGraph::from_program(&p)?;
/// let spans = node_spans(&p, &g);
/// let stmt = g.nodes().find(|&n| matches!(g.kind(n), NodeKind::Stmt(_))).unwrap();
/// assert_eq!(spans[stmt.index()].unwrap().slice(src), "a = 1");
/// assert_eq!(spans[g.root().index()], None);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn node_spans(program: &gnt_ir::Program, graph: &IntervalGraph) -> Vec<Option<gnt_ir::Span>> {
    graph
        .nodes()
        .map(|n| graph.kind(n).stmt().and_then(|s| program.span(s)))
        .collect()
}

/// Adjacency-materialized view of a [`Cfg`] implementing
/// [`gnt_dataflow::FlowGraph`], so the generic iterative solver can run
/// over it (used by the PRE baselines and the verifiers).
///
/// # Examples
///
/// ```
/// use gnt_dataflow::FlowGraph;
///
/// let p = gnt_ir::parse("a = 1\nb = 2")?;
/// let lowered = gnt_cfg::lower(&p)?;
/// let flow = gnt_cfg::CfgFlow::new(&lowered.cfg);
/// assert_eq!(flow.entry(), lowered.cfg.entry().index());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct CfgFlow {
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
    entry: usize,
    exit: usize,
}

impl CfgFlow {
    /// Materializes the adjacency of `cfg` as plain indices.
    pub fn new(cfg: &Cfg) -> CfgFlow {
        CfgFlow {
            succs: cfg
                .nodes()
                .map(|n| cfg.succs(n).iter().map(|s| s.index()).collect())
                .collect(),
            preds: cfg
                .nodes()
                .map(|n| cfg.preds(n).iter().map(|p| p.index()).collect())
                .collect(),
            entry: cfg.entry().index(),
            exit: cfg.exit().index(),
        }
    }

    /// Materializes the *real* (CEFJ) edges of an [`IntervalGraph`],
    /// dropping synthetic edges and the virtual exit→ROOT cycle edge.
    /// This is the concrete control flow the verifiers check placements
    /// against.
    pub fn from_interval(g: &IntervalGraph) -> CfgFlow {
        let n = g.num_nodes();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for m in g.nodes() {
            for (s, c) in g.succ_edges(m) {
                let virtual_cycle = c == EdgeClass::Cycle && s == g.root();
                if c == EdgeClass::Synthetic || virtual_cycle {
                    continue;
                }
                succs[m.index()].push(s.index());
                preds[s.index()].push(m.index());
            }
        }
        CfgFlow {
            succs,
            preds,
            entry: g.root().index(),
            exit: g.exit().index(),
        }
    }
}

impl gnt_dataflow::FlowGraph for CfgFlow {
    fn num_nodes(&self) -> usize {
        self.succs.len()
    }
    fn succs(&self, n: usize) -> &[usize] {
        &self.succs[n]
    }
    fn preds(&self, n: usize) -> &[usize] {
        &self.preds[n]
    }
    fn entry(&self) -> usize {
        self.entry
    }
    fn exit(&self) -> usize {
        self.exit
    }
}

#[cfg(test)]
mod flow_tests {
    use super::*;
    use gnt_dataflow::FlowGraph;

    #[test]
    fn cfg_flow_mirrors_cfg() {
        let p = gnt_ir::parse("a = 1\nif t then\n  b = 2\nendif").unwrap();
        let lowered = lower(&p).unwrap();
        let flow = CfgFlow::new(&lowered.cfg);
        assert_eq!(flow.num_nodes(), lowered.cfg.num_nodes());
        for n in lowered.cfg.nodes() {
            assert_eq!(flow.succs(n.index()).len(), lowered.cfg.succs(n).len());
        }
    }

    #[test]
    fn interval_flow_drops_synthetic_and_virtual_edges() {
        let p = gnt_ir::parse("do i = 1, N\n  if t(i) goto 7\n  a = 1\nenddo\n7 b = 2").unwrap();
        let g = IntervalGraph::from_program(&p).unwrap();
        let flow = CfgFlow::from_interval(&g);
        // No edge into the root in the materialized flow.
        assert!(flow.preds(g.root().index()).is_empty());
        // Total edges: classified minus synthetic.
        let synth = g
            .nodes()
            .flat_map(|n| g.succ_edges(n).collect::<Vec<_>>())
            .filter(|(_, c)| *c == EdgeClass::Synthetic)
            .count();
        let total: usize = (0..flow.num_nodes()).map(|n| flow.succs(n).len()).sum();
        assert_eq!(total, g.num_edges() - synth);
    }
}
