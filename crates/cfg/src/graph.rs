//! The raw control flow graph.
//!
//! [`Cfg`] is a plain digraph over [`NodeId`]s with a unique entry (the
//! paper's ROOT) and a unique exit. Nodes remember where they came from
//! ([`NodeKind`]): a MiniF statement, a loop header, a branch, or one of the
//! synthetic nodes inserted by normalization (§3.3 of the paper).

use gnt_ir::StmtId;
use std::fmt;

/// Identifies a node of a [`Cfg`] (dense, `0..num_nodes`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Why a synthetic node exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SynthKind {
    /// Inserted to break a critical edge (the paper's synthetic nodes,
    /// e.g. a new `else` branch).
    EdgeSplit,
    /// Inserted so an interval has a unique CYCLE edge (`LASTCHILD`).
    Latch,
    /// Landing pad for a jump out of a loop.
    LandingPad,
}

/// The provenance of a CFG node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The unique program entry; the paper's ROOT.
    Entry,
    /// The unique program exit.
    Exit,
    /// A straight-line statement (assignment or `continue`).
    Stmt(StmtId),
    /// The header/test of a `do` loop.
    LoopHeader(StmtId),
    /// The condition of an `if` or `if … goto`.
    Branch(StmtId),
    /// A node inserted by graph normalization.
    Synthetic(SynthKind),
}

impl NodeKind {
    /// The statement this node was created for, if any.
    pub fn stmt(self) -> Option<StmtId> {
        match self {
            NodeKind::Stmt(s) | NodeKind::LoopHeader(s) | NodeKind::Branch(s) => Some(s),
            _ => None,
        }
    }

    /// `true` for nodes inserted by normalization.
    pub fn is_synthetic(self) -> bool {
        matches!(self, NodeKind::Synthetic(_))
    }
}

/// A mutable control flow graph with unique entry and exit.
///
/// # Examples
///
/// ```
/// use gnt_cfg::{Cfg, NodeKind};
///
/// let mut cfg = Cfg::new();
/// let mid = cfg.add_node(NodeKind::Synthetic(gnt_cfg::SynthKind::EdgeSplit));
/// cfg.add_edge(cfg.entry(), mid);
/// cfg.add_edge(mid, cfg.exit());
/// assert_eq!(cfg.succs(cfg.entry()), &[mid]);
/// ```
#[derive(Clone, Debug)]
pub struct Cfg {
    kinds: Vec<NodeKind>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
    entry: NodeId,
    exit: NodeId,
}

impl Cfg {
    /// Creates a graph containing only an entry and an exit node
    /// (not yet connected).
    pub fn new() -> Self {
        let mut cfg = Cfg {
            kinds: Vec::new(),
            succs: Vec::new(),
            preds: Vec::new(),
            entry: NodeId(0),
            exit: NodeId(0),
        };
        cfg.entry = cfg.add_node(NodeKind::Entry);
        cfg.exit = cfg.add_node(NodeKind::Exit);
        cfg
    }

    /// The unique entry node (ROOT).
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// The unique exit node.
    pub fn exit(&self) -> NodeId {
        self.exit
    }

    /// Number of nodes; ids are `0..num_nodes()`.
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Adds a node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the graph already holds `u32::MAX + 1` nodes, the most a
    /// 32-bit [`NodeId`] can name. Lowering a program never gets near: a
    /// node costs over 50 bytes here, so that graph would need more than
    /// 200 GiB.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(u32::try_from(self.kinds.len()).expect("node id overflow"));
        self.kinds.push(kind);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    /// Adds the edge `src → dst`. Parallel edges are collapsed.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) {
        if !self.succs[src.index()].contains(&dst) {
            self.succs[src.index()].push(dst);
            self.preds[dst.index()].push(src);
        }
    }

    /// Removes the edge `src → dst` if present.
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId) {
        self.succs[src.index()].retain(|&n| n != dst);
        self.preds[dst.index()].retain(|&n| n != src);
    }

    /// Replaces the edge `src → dst` with `src → mid → dst`, where `mid` is
    /// a fresh synthetic node of the given kind. Returns `mid`.
    ///
    /// # Panics
    ///
    /// Panics if the edge does not exist.
    pub fn split_edge(&mut self, src: NodeId, dst: NodeId, kind: SynthKind) -> NodeId {
        assert!(
            self.succs[src.index()].contains(&dst),
            "cannot split missing edge {src} → {dst}"
        );
        let mid = self.add_node(NodeKind::Synthetic(kind));
        // Preserve successor order of `src` (branch polarity).
        for s in &mut self.succs[src.index()] {
            if *s == dst {
                *s = mid;
            }
        }
        self.preds[dst.index()].retain(|&n| n != src);
        self.preds[mid.index()].push(src);
        self.succs[mid.index()].push(dst);
        self.preds[dst.index()].push(mid);
        mid
    }

    /// The kind of `n`.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.index()]
    }

    /// Successors of `n`, in insertion order.
    pub fn succs(&self, n: NodeId) -> &[NodeId] {
        &self.succs[n.index()]
    }

    /// Predecessors of `n`, in insertion order.
    pub fn preds(&self, n: NodeId) -> &[NodeId] {
        &self.preds[n.index()]
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len() as u32).map(NodeId)
    }

    /// Iterates over all edges as `(src, dst)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |n| self.succs(n).iter().map(move |&s| (n, s)))
    }

    /// Nodes reachable from the entry, as a boolean map.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.num_nodes()];
        let mut stack = vec![self.entry];
        seen[self.entry.index()] = true;
        while let Some(n) = stack.pop() {
            for &s in self.succs(n) {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// Removes nodes unreachable from the entry, compacting ids.
    /// Returns the remapping table (`old index → new id`, `None` if
    /// removed). The entry is always retained; if the exit became
    /// unreachable it is retained as an isolated node.
    pub fn prune_unreachable(&mut self) -> Vec<Option<NodeId>> {
        let mut keep = self.reachable();
        keep[self.exit.index()] = true;
        // Both ends are kept, so each one's new id is the number of kept
        // nodes before it.
        let new_id = |n: NodeId| NodeId(keep[..n.index()].iter().filter(|&&k| k).count() as u32);
        let (entry, exit) = (new_id(self.entry), new_id(self.exit));
        let mut remap: Vec<Option<NodeId>> = vec![None; self.num_nodes()];
        let mut next = 0u32;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                remap[i] = Some(NodeId(next));
                next += 1;
            }
        }
        let old_kinds = std::mem::take(&mut self.kinds);
        let old_succs = std::mem::take(&mut self.succs);
        self.preds = vec![Vec::new(); next as usize];
        self.succs = vec![Vec::new(); next as usize];
        self.kinds = vec![NodeKind::Entry; next as usize];
        for (i, kind) in old_kinds.into_iter().enumerate() {
            if let Some(new) = remap[i] {
                self.kinds[new.index()] = kind;
            }
        }
        for (i, succs) in old_succs.into_iter().enumerate() {
            if let Some(new_src) = remap[i] {
                for dst in succs {
                    if let Some(new_dst) = remap[dst.index()] {
                        self.succs[new_src.index()].push(new_dst);
                        self.preds[new_dst.index()].push(new_src);
                    }
                }
            }
        }
        self.entry = entry;
        self.exit = exit;
        remap
    }
}

impl Default for Cfg {
    fn default() -> Self {
        Cfg::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_has_entry_and_exit() {
        let cfg = Cfg::new();
        assert_eq!(cfg.num_nodes(), 2);
        assert_eq!(cfg.kind(cfg.entry()), NodeKind::Entry);
        assert_eq!(cfg.kind(cfg.exit()), NodeKind::Exit);
    }

    #[test]
    fn add_edge_ignores_duplicates() {
        let mut cfg = Cfg::new();
        cfg.add_edge(cfg.entry(), cfg.exit());
        cfg.add_edge(cfg.entry(), cfg.exit());
        assert_eq!(cfg.num_edges(), 1);
    }

    #[test]
    fn split_edge_preserves_successor_order() {
        let mut cfg = Cfg::new();
        let a = cfg.add_node(NodeKind::Synthetic(SynthKind::EdgeSplit));
        let b = cfg.add_node(NodeKind::Synthetic(SynthKind::EdgeSplit));
        cfg.add_edge(cfg.entry(), a);
        cfg.add_edge(cfg.entry(), b);
        let mid = cfg.split_edge(cfg.entry(), a, SynthKind::EdgeSplit);
        assert_eq!(cfg.succs(cfg.entry()), &[mid, b]);
        assert_eq!(cfg.succs(mid), &[a]);
        assert_eq!(cfg.preds(a), &[mid]);
    }

    #[test]
    fn prune_removes_unreachable_nodes() {
        let mut cfg = Cfg::new();
        let a = cfg.add_node(NodeKind::Synthetic(SynthKind::EdgeSplit));
        let dead = cfg.add_node(NodeKind::Synthetic(SynthKind::EdgeSplit));
        cfg.add_edge(cfg.entry(), a);
        cfg.add_edge(a, cfg.exit());
        cfg.add_edge(dead, cfg.exit());
        let remap = cfg.prune_unreachable();
        assert_eq!(cfg.num_nodes(), 3);
        assert!(remap[dead.index()].is_none());
        assert_eq!(cfg.preds(cfg.exit()).len(), 1);
    }

    #[test]
    fn reachable_marks_reached_nodes_only() {
        let mut cfg = Cfg::new();
        let a = cfg.add_node(NodeKind::Synthetic(SynthKind::EdgeSplit));
        cfg.add_edge(cfg.entry(), cfg.exit());
        let r = cfg.reachable();
        assert!(r[cfg.entry().index()]);
        assert!(r[cfg.exit().index()]);
        assert!(!r[a.index()]);
    }
}
