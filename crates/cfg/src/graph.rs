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

/// Per-node lists stored flat: node `i`'s list is
/// `items[off[i]..off[i + 1]]`.
#[derive(Clone, Debug)]
pub(crate) struct Flat<T> {
    pub(crate) off: Vec<usize>,
    pub(crate) items: Vec<T>,
}

impl<T: Copy> Flat<T> {
    /// Lists for no node.
    pub(crate) fn new() -> Flat<T> {
        Flat {
            off: vec![0],
            items: Vec::new(),
        }
    }

    /// The number of lists.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// Groups `(node, item)` pairs over nodes `0..n` by count-then-fill,
    /// keeping the pairs' order within each node. `pairs` is walked
    /// twice.
    pub(crate) fn group(n: usize, pairs: impl Iterator<Item = (usize, T)> + Clone) -> Flat<T> {
        let mut off = vec![0; n + 1];
        let mut any = None;
        for (i, x) in pairs.clone() {
            off[i + 1] += 1;
            any = Some(x);
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let Some(x) = any else {
            return Flat {
                off,
                items: Vec::new(),
            };
        };
        let mut items = vec![x; off[n]];
        for (i, x) in pairs {
            let at = &mut off[i];
            items[*at] = x;
            *at += 1;
        }
        ends_to_starts(&mut off);
        Flat { off, items }
    }

    /// Builds the lists of nodes `0..n` in order: `fill(i, items)` pushes
    /// node `i`'s list.
    pub(crate) fn build(n: usize, mut fill: impl FnMut(usize, &mut Vec<T>)) -> Flat<T> {
        let mut off = Vec::with_capacity(n + 1);
        let mut items = Vec::new();
        off.push(0);
        for i in 0..n {
            fill(i, &mut items);
            off.push(items.len());
        }
        Flat { off, items }
    }

    /// Appends a list for a new node.
    pub(crate) fn push(&mut self, list: &[T]) {
        self.items.extend_from_slice(list);
        self.off.push(self.items.len());
    }

    /// Node `i`'s list.
    #[inline]
    pub(crate) fn of(&self, i: usize) -> &[T] {
        &self.items[self.range(i)]
    }

    /// The slots of node `i`'s list.
    #[inline]
    pub(crate) fn range(&self, i: usize) -> std::ops::Range<usize> {
        let ends = &self.off[i..i + 2];
        ends[0]..ends[1]
    }

    /// Inserts `item` at position `k` of node `i`'s list, shifting the
    /// slots of every later list: linear in the size of the whole table.
    fn insert(&mut self, i: usize, k: usize, item: T) {
        self.items.insert(self.off[i] + k, item);
        for o in &mut self.off[i + 1..] {
            *o += 1;
        }
    }

    /// Removes position `k` of node `i`'s list, as [`Flat::insert`].
    fn remove(&mut self, i: usize, k: usize) {
        self.items.remove(self.off[i] + k);
        for o in &mut self.off[i + 1..] {
            *o -= 1;
        }
    }

    /// The transpose over nodes `0..n`: `item(x)` names the list an item
    /// `x` of node `i`'s list moves to, where it becomes `node(i)`. Each
    /// new list is ordered by ascending `i`.
    pub(crate) fn transpose<U: Copy>(
        &self,
        n: usize,
        item: impl Fn(T) -> usize,
        node: impl Fn(usize) -> U,
    ) -> Flat<U> {
        let mut off = vec![0; n + 1];
        for &x in &self.items {
            off[item(x) + 1] += 1;
        }
        for j in 0..n {
            off[j + 1] += off[j];
        }
        let mut items = vec![node(0); self.items.len()];
        for i in 0..self.len() {
            for &x in self.of(i) {
                let at = &mut off[item(x)];
                items[*at] = node(i);
                *at += 1;
            }
        }
        ends_to_starts(&mut off);
        Flat { off, items }
    }
}

/// After a count-then-fill, `off[i]` ends list `i` (and `off[n]` ends
/// the last): shifts them to starts.
pub(crate) fn ends_to_starts(off: &mut [usize]) {
    let n = off.len() - 1;
    off.copy_within(0..n, 1);
    off[0] = 0;
}

/// The id of the node at dense index `index`.
///
/// # Panics
///
/// Panics past `u32::MAX`, the most a 32-bit [`NodeId`] can name.
/// Lowering a program never gets near: a node costs over 30 bytes in a
/// [`Cfg`], so that graph would need more than 120 GiB.
pub(crate) fn node_id(index: usize) -> NodeId {
    NodeId(u32::try_from(index).expect("node id overflow"))
}

/// A control flow graph with unique entry and exit.
///
/// The edges are stored flat, one offsets-plus-targets table per
/// direction: a node's successors are in insertion order (an `if`'s
/// then-arm before its else-arm), and its predecessors ascend by source.
/// [`crate::lower`] fills the tables in one pass; the mutators below
/// (used by hand-built graphs and [`crate::make_reducible`]) each cost
/// time linear in the size of the graph.
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
    succs: Flat<NodeId>,
    /// The transpose of `succs`.
    preds: Flat<NodeId>,
    entry: NodeId,
    exit: NodeId,
}

impl Cfg {
    /// Creates a graph containing only an entry and an exit node
    /// (not yet connected).
    pub fn new() -> Self {
        let mut cfg = Cfg {
            kinds: Vec::new(),
            succs: Flat::new(),
            preds: Flat::new(),
            entry: NodeId(0),
            exit: NodeId(0),
        };
        cfg.entry = cfg.add_node(NodeKind::Entry);
        cfg.exit = cfg.add_node(NodeKind::Exit);
        cfg
    }

    /// The graph over `kinds` with the edges `edges`, in order; of
    /// parallel edges the first is kept. `ends` is `(entry, exit)`.
    pub(crate) fn from_edges(
        kinds: Vec<NodeKind>,
        (entry, exit): (NodeId, NodeId),
        edges: &[(NodeId, NodeId)],
    ) -> Cfg {
        let n = kinds.len();
        let mut off = vec![0; n + 1];
        for &(s, _) in edges {
            off[s.index() + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        // `end[i]` is where node `i`'s next successor goes.
        let mut end = off[..n].to_vec();
        let mut items = vec![NodeId(0); edges.len()];
        let mut parallel = false;
        for &(s, d) in edges {
            let (start, at) = (off[s.index()], &mut end[s.index()]);
            if items[start..*at].contains(&d) {
                parallel = true;
            } else {
                items[*at] = d;
                *at += 1;
            }
        }
        if parallel {
            // Close the gaps the dropped edges left.
            let mut w = 0;
            for (i, &e) in end.iter().enumerate() {
                let start = off[i];
                off[i] = w;
                items.copy_within(start..e, w);
                w += e - start;
            }
            off[n] = w;
            items.truncate(w);
        }
        let succs = Flat { off, items };
        let preds = succs.transpose(n, NodeId::index, |i| NodeId(i as u32));
        Cfg {
            kinds,
            succs,
            preds,
            entry,
            exit,
        }
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
        self.succs.items.len()
    }

    /// Adds a node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the graph already holds `u32::MAX + 1` nodes, the most a
    /// 32-bit [`NodeId`] can name. Lowering a program never gets near: a
    /// node costs over 30 bytes here, so that graph would need more than
    /// 120 GiB.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = node_id(self.kinds.len());
        self.kinds.push(kind);
        self.succs.push(&[]);
        self.preds.push(&[]);
        id
    }

    /// Adds the edge `src → dst` after `src`'s other successors.
    /// Parallel edges are collapsed.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) {
        let out = self.succs.of(src.index());
        if !out.contains(&dst) {
            self.succs.insert(src.index(), out.len(), dst);
            let k = self.preds.of(dst.index()).partition_point(|&p| p < src);
            self.preds.insert(dst.index(), k, src);
        }
    }

    /// Removes the edge `src → dst` if present.
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId) {
        if let Some(k) = self.succs.of(src.index()).iter().position(|&s| s == dst) {
            self.succs.remove(src.index(), k);
            let k = self.preds.of(dst.index()).partition_point(|&p| p < src);
            self.preds.remove(dst.index(), k);
        }
    }

    /// Replaces the edge `src → dst` with `src → mid → dst`, where `mid` is
    /// a fresh synthetic node of the given kind. Returns `mid`.
    ///
    /// # Panics
    ///
    /// Panics if the edge does not exist.
    pub fn split_edge(&mut self, src: NodeId, dst: NodeId, kind: SynthKind) -> NodeId {
        let out = self.succs.of(src.index());
        assert!(
            out.contains(&dst),
            "cannot split missing edge {src} → {dst}"
        );
        let k = out.iter().position(|&s| s == dst).unwrap_or_default();
        let mid = self.add_node(NodeKind::Synthetic(kind));
        // Preserve successor order of `src` (branch polarity): `mid` takes
        // the slot `dst` had.
        self.succs.items[self.succs.off[src.index()] + k] = mid;
        let j = self.preds.of(dst.index()).partition_point(|&p| p < src);
        self.preds.remove(dst.index(), j);
        self.preds.insert(mid.index(), 0, src);
        self.add_edge(mid, dst);
        mid
    }

    /// The kind of `n`.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.index()]
    }

    /// Successors of `n`, in insertion order.
    #[inline]
    pub fn succs(&self, n: NodeId) -> &[NodeId] {
        self.succs.of(n.index())
    }

    /// Predecessors of `n`, by ascending id.
    #[inline]
    pub fn preds(&self, n: NodeId) -> &[NodeId] {
        self.preds.of(n.index())
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len() as u32).map(NodeId)
    }

    /// Iterates over all edges as `(src, dst)` pairs, by source, each
    /// source's in successor order.
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
        self.prune()
            .unwrap_or_else(|| self.nodes().map(Some).collect())
    }

    /// [`Cfg::prune_unreachable`], returning `None` and leaving the graph
    /// as it is when every node is kept.
    pub(crate) fn prune(&mut self) -> Option<Vec<Option<NodeId>>> {
        let mut keep = self.reachable();
        keep[self.exit.index()] = true;
        if keep.iter().all(|&k| k) {
            return None;
        }
        let mut remap: Vec<Option<NodeId>> = vec![None; self.num_nodes()];
        let mut next = 0u32;
        for (slot, _) in remap.iter_mut().zip(&keep).filter(|(_, &k)| k) {
            *slot = Some(NodeId(next));
            next += 1;
        }
        let mut kinds = Vec::with_capacity(next as usize);
        let mut succs = Flat::new();
        for old in (0..self.num_nodes()).filter(|&i| keep[i]) {
            kinds.push(self.kinds[old]);
            succs
                .items
                .extend(self.succs.of(old).iter().filter_map(|d| remap[d.index()]));
            succs.off.push(succs.items.len());
        }
        let n = kinds.len();
        // Both ends are kept.
        let new_id = |x: NodeId| remap[x.index()].unwrap_or(x);
        *self = Cfg {
            preds: succs.transpose(n, NodeId::index, |i| NodeId(i as u32)),
            kinds,
            succs,
            entry: new_id(self.entry),
            exit: new_id(self.exit),
        };
        Some(remap)
    }

    /// Takes the graph apart: node kinds, successor lists, predecessor
    /// lists, entry and exit.
    pub(crate) fn into_parts(
        self,
    ) -> (Vec<NodeKind>, Flat<NodeId>, Flat<NodeId>, (NodeId, NodeId)) {
        (self.kinds, self.succs, self.preds, (self.entry, self.exit))
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

    /// Plain successor lists with the semantics the mutators keep:
    /// insertion order, parallel edges collapsed, a split node in its
    /// edge's slot, and a prune that keeps each survivor's successor
    /// order.
    #[derive(Default)]
    struct Model(Vec<Vec<u32>>);

    impl Model {
        fn add_edge(&mut self, a: u32, b: u32) {
            if !self.0[a as usize].contains(&b) {
                self.0[a as usize].push(b);
            }
        }

        fn prune(&mut self) -> Vec<Option<u32>> {
            let mut keep = vec![false; self.0.len()];
            let mut stack = vec![0];
            keep[0] = true;
            while let Some(x) = stack.pop() {
                for &s in &self.0[x as usize] {
                    if !std::mem::replace(&mut keep[s as usize], true) {
                        stack.push(s);
                    }
                }
            }
            keep[1] = true;
            let mut remap = vec![None; keep.len()];
            let kept = keep.iter().enumerate().filter(|(_, &k)| k);
            for (new, (i, _)) in (0..).zip(kept) {
                remap[i] = Some(new);
            }
            let old = std::mem::take(&mut self.0);
            self.0 = (0..old.len())
                .filter(|&i| keep[i])
                .map(|i| old[i].iter().filter_map(|&d| remap[d as usize]).collect())
                .collect();
            remap
        }
    }

    #[test]
    fn mutators_match_the_successor_list_model() {
        let mut x: u64 = 0x2545_f491;
        let mut next = |m: u64| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (x >> 33) % m
        };
        for round in 0..60 {
            let (mut cfg, mut model) = (Cfg::new(), Model(vec![Vec::new(), Vec::new()]));
            for _ in 0..200 {
                let n = cfg.num_nodes() as u64;
                let (a, b) = (next(n) as u32, next(n) as u32);
                match next(10) {
                    0 | 1 => {
                        cfg.add_node(NodeKind::Synthetic(SynthKind::EdgeSplit));
                        model.0.push(Vec::new());
                    }
                    2..=6 => {
                        cfg.add_edge(NodeId(a), NodeId(b));
                        model.add_edge(a, b);
                    }
                    7 => {
                        cfg.remove_edge(NodeId(a), NodeId(b));
                        model.0[a as usize].retain(|&s| s != b);
                    }
                    8 if model.0[a as usize].contains(&b) => {
                        let mid = cfg.split_edge(NodeId(a), NodeId(b), SynthKind::EdgeSplit);
                        assert_eq!(mid.index(), model.0.len());
                        for s in &mut model.0[a as usize] {
                            if *s == b {
                                *s = mid.0;
                            }
                        }
                        model.0.push(vec![b]);
                    }
                    9 if round % 3 == 0 => {
                        let remap = cfg.prune_unreachable();
                        let expected = model.prune();
                        let got: Vec<_> = remap.iter().map(|r| r.map(|n| n.0)).collect();
                        assert_eq!(got, expected);
                    }
                    _ => {}
                }
                assert_eq!(cfg.num_nodes(), model.0.len());
                let mut preds = vec![Vec::new(); model.0.len()];
                for (i, out) in model.0.iter().enumerate() {
                    let succs: Vec<u32> = cfg.succs(NodeId(i as u32)).iter().map(|s| s.0).collect();
                    assert_eq!(&succs, out, "round {round}: successors of n{i}");
                    for &s in out {
                        preds[s as usize].push(i as u32);
                    }
                }
                for (i, p) in preds.iter().enumerate() {
                    let got: Vec<u32> = cfg.preds(NodeId(i as u32)).iter().map(|p| p.0).collect();
                    assert_eq!(&got, p, "round {round}: predecessors of n{i}");
                }
                assert_eq!(cfg.num_edges(), preds.iter().map(Vec::len).sum::<usize>());
            }
        }
    }

    #[test]
    fn from_edges_matches_add_edge_in_the_same_order() {
        let edges = [
            (0, 2),
            (2, 3),
            (2, 4),
            (3, 2),
            (2, 3),
            (4, 1),
            (3, 1),
            (0, 2),
        ];
        let mut by_hand = Cfg::new();
        for _ in 0..3 {
            by_hand.add_node(NodeKind::Synthetic(SynthKind::EdgeSplit));
        }
        for &(a, b) in &edges {
            by_hand.add_edge(NodeId(a), NodeId(b));
        }
        let pairs: Vec<_> = edges.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect();
        let kinds = (0..5).map(|i| by_hand.kind(NodeId(i))).collect();
        let flat = Cfg::from_edges(kinds, (NodeId(0), NodeId(1)), &pairs);
        assert_eq!(flat.num_edges(), 6);
        for n in by_hand.nodes() {
            assert_eq!(flat.succs(n), by_hand.succs(n));
            assert_eq!(flat.preds(n), by_hand.preds(n));
        }
    }
}
