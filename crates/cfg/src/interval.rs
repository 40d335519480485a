//! The interval flow graph of §3.3–3.4 of the paper.
//!
//! An [`IntervalGraph`] is a normalized control flow graph whose edges are
//! classified as ENTRY, CYCLE, JUMP, or FORWARD, augmented with SYNTHETIC
//! edges from interval headers to the sinks of JUMP edges that leave them.
//! The graph satisfies the paper's structural requirements:
//!
//! * reducible, with a unique header per loop (Tarjan intervals `T(h)`,
//!   header excluded);
//! * exactly one CYCLE edge per non-empty interval (the source is
//!   `LASTCHILD(h)`);
//! * no critical edges (synthetic nodes are inserted to break them);
//! * ROOT acts as the header of the whole program, with a virtual CYCLE
//!   edge from the exit so `LASTCHILD(ROOT)` exists.
//!
//! For AFTER problems the same structure is rebuilt over the reversed
//! graph (see `reverse`); jumps *into* loops that arise there are carried
//! as the extra [`EdgeClass::JumpIn`] class and recorded with the headers
//! they bypass (§5.3).

use crate::dom::{Dominators, IrreducibleError, LoopForest, LoopId};
use crate::graph::{Cfg, NodeId, NodeKind, SynthKind};
use crate::scratch::{CfgScratch, CfgScratchPool};
use std::fmt;

/// Classification of an interval-flow-graph edge (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeClass {
    /// Header → node within its interval.
    Entry,
    /// `LASTCHILD(h)` → `h` (the unique back edge of an interval).
    Cycle,
    /// Out of at least one interval, not to its header.
    Jump,
    /// Neither entering nor leaving any interval.
    Forward,
    /// Header → sink of a JUMP edge leaving the header's interval.
    Synthetic,
    /// Into an interval, bypassing its header. Only legal on reversed
    /// graphs (AFTER problems, §5.3).
    JumpIn,
}

impl fmt::Display for EdgeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EdgeClass::Entry => "E",
            EdgeClass::Cycle => "C",
            EdgeClass::Jump => "J",
            EdgeClass::Forward => "F",
            EdgeClass::Synthetic => "S",
            EdgeClass::JumpIn => "Ji",
        })
    }
}

/// A set of [`EdgeClass`]es used to select neighbors, e.g.
/// `PREDS^FJ(n)` is `graph.preds(n, EdgeMask::F | EdgeMask::J)`.
///
/// The paper's `J` selector covers jumps in either direction, so
/// [`EdgeMask::J`] matches both [`EdgeClass::Jump`] and
/// [`EdgeClass::JumpIn`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeMask(u8);

impl EdgeMask {
    /// ENTRY edges.
    pub const E: EdgeMask = EdgeMask(1);
    /// CYCLE edges.
    pub const C: EdgeMask = EdgeMask(2);
    /// JUMP edges (including reversed-graph JUMP-IN edges).
    pub const J: EdgeMask = EdgeMask(4);
    /// FORWARD edges.
    pub const F: EdgeMask = EdgeMask(8);
    /// SYNTHETIC edges.
    pub const S: EdgeMask = EdgeMask(16);
    /// The conventional predecessors/successors: `C ∪ E ∪ F ∪ J`.
    pub const CEFJ: EdgeMask = EdgeMask(1 | 2 | 4 | 8);
    /// `F ∪ J`.
    pub const FJ: EdgeMask = EdgeMask(4 | 8);
    /// `F ∪ J ∪ S`.
    pub const FJS: EdgeMask = EdgeMask(4 | 8 | 16);
    /// `E ∪ F`.
    pub const EF: EdgeMask = EdgeMask(1 | 8);
    /// `C ∪ E ∪ F`.
    pub const CEF: EdgeMask = EdgeMask(1 | 2 | 8);
    /// `E ∪ F ∪ J`.
    pub const EFJ: EdgeMask = EdgeMask(1 | 4 | 8);

    /// `true` if `class` is selected by this mask.
    pub fn matches(self, class: EdgeClass) -> bool {
        let bit = match class {
            EdgeClass::Entry => 1,
            EdgeClass::Cycle => 2,
            EdgeClass::Jump | EdgeClass::JumpIn => 4,
            EdgeClass::Forward => 8,
            EdgeClass::Synthetic => 16,
        };
        self.0 & bit != 0
    }
}

impl std::ops::BitOr for EdgeMask {
    type Output = EdgeMask;
    fn bitor(self, rhs: EdgeMask) -> EdgeMask {
        EdgeMask(self.0 | rhs.0)
    }
}

/// Errors produced while building an [`IntervalGraph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The underlying CFG is irreducible.
    Irreducible(IrreducibleError),
    /// An edge enters an interval without passing its header (only legal
    /// on reversed graphs).
    JumpIntoLoop {
        /// Edge source.
        src: NodeId,
        /// Edge sink (inside an interval whose header it bypasses).
        dst: NodeId,
    },
    /// A node cannot be scheduled: the forward structure is cyclic
    /// (internal invariant violation).
    CyclicOrder(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Irreducible(e) => e.fmt(f),
            GraphError::JumpIntoLoop { src, dst } => {
                write!(f, "edge {src} → {dst} jumps into a loop")
            }
            GraphError::CyclicOrder(n) => {
                write!(f, "no topological order: cycle through {n}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl From<IrreducibleError> for GraphError {
    fn from(e: IrreducibleError) -> Self {
        GraphError::Irreducible(e)
    }
}

#[derive(Clone, Debug)]
struct NodeInfo {
    kind: NodeKind,
    /// Chain of enclosing loop headers, innermost first (ROOT excluded).
    enclosing: Vec<NodeId>,
    /// Source of the ENTRY edge reaching this node, if any.
    header: Option<NodeId>,
    /// Children of this node's interval (only headers have any),
    /// sorted by preorder.
    children: Vec<NodeId>,
    /// `LASTCHILD(n)`: source of the unique CYCLE edge into `n`.
    last_child: Option<NodeId>,
    /// User-requested no-hoist marker for this header (§4.1).
    poisoned: bool,
    /// Sources of JUMP-IN edges bypassing this header (reversed graphs,
    /// §5.3): paths that enter the interval without passing the header.
    jump_in_sources: Vec<NodeId>,
}

/// The interval flow graph: classified edges plus the interval structure
/// GIVE-N-TAKE's equations consume.
///
/// # Examples
///
/// ```
/// use gnt_cfg::{EdgeClass, IntervalGraph};
///
/// let p = gnt_ir::parse("do i = 1, N\n  y(i) = ...\nenddo")?;
/// let g = IntervalGraph::from_program(&p)?;
/// let header = g
///     .nodes()
///     .find(|&n| g.is_loop_header(n))
///     .expect("one loop header");
/// assert_eq!(g.level(header), 1);
/// assert_eq!(g.level(g.last_child(header).unwrap()), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct IntervalGraph {
    nodes: Vec<NodeInfo>,
    /// `succs[n]` with edge classes; virtual exit→root CYCLE edge included.
    succs: Vec<Vec<(NodeId, EdgeClass)>>,
    preds: Vec<Vec<(NodeId, EdgeClass)>>,
    root: NodeId,
    exit: NodeId,
    preorder: Vec<NodeId>,
    preorder_index: Vec<usize>,
}

impl IntervalGraph {
    /// Lowers `program` and builds its interval flow graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] for irreducible programs (e.g. a `goto` into
    /// a loop) and [`crate::BuildError`]-class label problems are reported
    /// by [`crate::lower`] beforehand.
    pub fn from_program(
        program: &gnt_ir::Program,
    ) -> Result<IntervalGraph, Box<dyn std::error::Error>> {
        let lowered = crate::lower(program)?;
        Ok(Self::from_cfg(lowered.cfg)?)
    }

    /// Builds the interval flow graph from an arbitrary reducible CFG.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Irreducible`] if `cfg` is irreducible (use
    /// [`crate::make_reducible`] first if desired).
    pub fn from_cfg(cfg: Cfg) -> Result<IntervalGraph, GraphError> {
        let mut scratch = CfgScratchPool::global().checkout();
        Self::from_cfg_with(cfg, &mut scratch)
    }

    /// [`IntervalGraph::from_cfg`] with caller-provided scratch buffers
    /// (dominator tables and assembly worklists are reused across calls).
    pub fn from_cfg_with(
        mut cfg: Cfg,
        scratch: &mut CfgScratch,
    ) -> Result<IntervalGraph, GraphError> {
        cfg.prune_unreachable();
        let dom = Dominators::compute_with(&cfg, scratch);
        let forest = LoopForest::compute(&cfg, &dom);
        dom.recycle(scratch);
        let mut forest = forest?;
        normalize(&mut cfg, &mut forest);
        Self::assemble_with(&cfg, &forest, false, scratch)
    }

    /// Builds the graph from a CFG plus an externally supplied loop
    /// forest, optionally tolerating jumps into loops (reversed graphs,
    /// §5.3). The CFG must already be normalized consistently with the
    /// forest; this is the entry point used by [`crate::reverse`].
    pub(crate) fn assemble(
        cfg: &Cfg,
        forest: &LoopForest,
        allow_jump_in: bool,
    ) -> Result<IntervalGraph, GraphError> {
        let mut scratch = CfgScratchPool::global().checkout();
        Self::assemble_with(cfg, forest, allow_jump_in, &mut scratch)
    }

    pub(crate) fn assemble_with(
        cfg: &Cfg,
        forest: &LoopForest,
        allow_jump_in: bool,
        scratch: &mut CfgScratch,
    ) -> Result<IntervalGraph, GraphError> {
        let n = cfg.num_nodes();
        let root = cfg.entry();
        let exit = cfg.exit();

        let mut nodes: Vec<NodeInfo> = (0..n as u32)
            .map(|i| {
                let id = NodeId(i);
                let mut enclosing = Vec::new();
                let mut cur = forest.innermost(id);
                while let Some(l) = cur {
                    enclosing.push(forest.loops()[l.index()].header);
                    cur = forest.loops()[l.index()].parent;
                }
                NodeInfo {
                    kind: cfg.kind(id),
                    enclosing,
                    header: None,
                    children: Vec::new(),
                    last_child: None,
                    poisoned: false,
                    jump_in_sources: Vec::new(),
                }
            })
            .collect();

        // Classify edges.
        let mut succs: Vec<Vec<(NodeId, EdgeClass)>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<(NodeId, EdgeClass)>> = vec![Vec::new(); n];
        let mut jumps: Vec<(NodeId, NodeId)> = Vec::new();
        for (m, dst) in cfg.edges() {
            let class = classify(forest, root, m, dst);
            match class {
                Some(EdgeClass::JumpIn) if !allow_jump_in => {
                    return Err(GraphError::JumpIntoLoop { src: m, dst });
                }
                Some(c) => {
                    if c == EdgeClass::Jump {
                        jumps.push((m, dst));
                    }
                    if c == EdgeClass::JumpIn {
                        // Record the source with every interval header the
                        // edge bypasses: availability at those headers must
                        // additionally hold along the jump-in path
                        // (Eq. 11 is extended accordingly; see gnt-core).
                        let src_chain = nodes[m.index()].enclosing.clone();
                        let entered: Vec<NodeId> = nodes[dst.index()]
                            .enclosing
                            .iter()
                            .filter(|h| !src_chain.contains(h) && **h != m)
                            .copied()
                            .collect();
                        for h in entered {
                            nodes[h.index()].jump_in_sources.push(m);
                        }
                    }
                    succs[m.index()].push((dst, c));
                    preds[dst.index()].push((m, c));
                }
                None => return Err(GraphError::JumpIntoLoop { src: m, dst }),
            }
        }
        // Note: ROOT acts as a header only for the evaluation schedule
        // (CHILDREN(ROOT) = top-level nodes). It heads no Tarjan interval,
        // so it has no CYCLE edge and LASTCHILD(ROOT) = ∅ — the paper's §4
        // example values (GIVE(1) stays empty, TAKEN_out(1) = TAKEN_in(2))
        // pin this down.

        // SYNTHETIC edges: one per interval left by each JUMP edge.
        for (m, dst) in jumps {
            let dst_chain = nodes[dst.index()].enclosing.clone();
            let left: Vec<NodeId> = nodes[m.index()]
                .enclosing
                .iter()
                .filter(|h| !dst_chain.contains(h))
                .copied()
                .collect();
            for h in left {
                succs[h.index()].push((dst, EdgeClass::Synthetic));
                preds[dst.index()].push((h, EdgeClass::Synthetic));
            }
        }

        // HEADER(n) and LASTCHILD(h).
        for i in 0..n {
            let id = NodeId(i as u32);
            for &(p, c) in &preds[i] {
                if c == EdgeClass::Entry {
                    nodes[i].header = Some(p);
                }
                if c == EdgeClass::Cycle {
                    nodes[i].last_child = Some(nodes[i].last_child.map_or(p, |prev| {
                        debug_assert_eq!(prev, p, "multiple CYCLE edges into {id}");
                        prev
                    }));
                }
            }
        }

        // Preorder: topological over E/F/J/S (+JumpIn) edges, skipping the
        // CYCLE edges; ties broken by ascending node id (construction
        // order, which follows the source).
        let indeg = &mut scratch.indeg;
        indeg.clear();
        indeg.resize(n, 0);
        for (i, ps) in preds.iter().enumerate() {
            indeg[i] = ps.iter().filter(|(_, c)| *c != EdgeClass::Cycle).count();
        }
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<u32>> =
            std::collections::BinaryHeap::new();
        for (i, &d) in indeg.iter().enumerate() {
            if d == 0 {
                ready.push(std::cmp::Reverse(i as u32));
            }
        }
        let mut preorder = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(i)) = ready.pop() {
            let id = NodeId(i);
            preorder.push(id);
            for &(s, c) in &succs[i as usize] {
                if c == EdgeClass::Cycle {
                    continue;
                }
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    ready.push(std::cmp::Reverse(s.0));
                }
            }
        }
        if preorder.len() != n {
            let stuck = (0..n).find(|&i| indeg[i] > 0).unwrap();
            return Err(GraphError::CyclicOrder(NodeId(stuck as u32)));
        }
        let mut preorder_index = vec![usize::MAX; n];
        for (i, &node) in preorder.iter().enumerate() {
            preorder_index[node.index()] = i;
        }

        // CHILDREN: every non-root node is a child of its innermost header
        // (or of ROOT); sort by preorder.
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (i, node) in nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            if id == root {
                continue;
            }
            let parent = node.enclosing.first().copied().unwrap_or(root);
            children[parent.index()].push(id);
        }
        for c in &mut children {
            c.sort_by_key(|x| preorder_index[x.index()]);
        }
        for (i, c) in children.into_iter().enumerate() {
            nodes[i].children = c;
        }

        let g = IntervalGraph {
            nodes,
            succs,
            preds,
            root,
            exit,
            preorder,
            preorder_index,
        };
        g.validate(allow_jump_in)?;
        Ok(g)
    }

    /// Checks the §3.3/§3.4 invariants; called at construction.
    fn validate(&self, allow_jump_in: bool) -> Result<(), GraphError> {
        for n in self.nodes() {
            // No critical edges among real (CEFJ) edges.
            let out: Vec<_> = self
                .succ_edges(n)
                .filter(|(_, c)| EdgeMask::CEFJ.matches(*c))
                .collect();
            if out.len() > 1 {
                for &(s, _) in &out {
                    let ins = self
                        .pred_edges(s)
                        .filter(|(_, c)| EdgeMask::CEFJ.matches(*c))
                        .count();
                    debug_assert!(
                        ins <= 1 || s == self.root,
                        "critical edge {n} → {s} survived normalization"
                    );
                }
            }
            for (s, c) in self.succ_edges(n) {
                match c {
                    EdgeClass::Jump => {
                        // The sink of a JUMP edge has no other CEF preds.
                        let other = self
                            .pred_edges(s)
                            .filter(|&(p, pc)| EdgeMask::CEF.matches(pc) && p != n)
                            .count();
                        debug_assert_eq!(other, 0, "jump sink {s} has extra preds");
                    }
                    EdgeClass::Cycle if s != self.root => {
                        // The source of a CYCLE edge has no EFJ succs.
                        let extra = self
                            .succ_edges(n)
                            .filter(|(_, sc)| EdgeMask::EFJ.matches(*sc))
                            .count();
                        debug_assert_eq!(extra, 0, "cycle source {n} has EFJ succs");
                    }
                    EdgeClass::JumpIn => {
                        debug_assert!(allow_jump_in, "JumpIn edge on a forward graph");
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// The ROOT node (program entry, header of the whole program).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The unique exit node.
    pub fn exit(&self) -> NodeId {
        self.exit
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges, including synthetic edges.
    pub fn num_edges(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The provenance of `n`.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.index()].kind
    }

    /// `LEVEL(n)`: 0 for ROOT, 1 + loop nesting depth otherwise.
    pub fn level(&self, n: NodeId) -> usize {
        if n == self.root {
            0
        } else {
            1 + self.nodes[n.index()].enclosing.len()
        }
    }

    /// `true` if `n` heads an interval (a loop header or ROOT).
    pub fn is_header(&self, n: NodeId) -> bool {
        n == self.root || !self.nodes[n.index()].children.is_empty()
    }

    /// `true` if `n` is a loop header (excludes ROOT).
    pub fn is_loop_header(&self, n: NodeId) -> bool {
        n != self.root && !self.nodes[n.index()].children.is_empty()
    }

    /// `HEADER(n)`: source of the ENTRY edge into `n`, if any.
    pub fn header_of(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.index()].header
    }

    /// `LASTCHILD(h)`: source of the unique CYCLE edge into `h`.
    pub fn last_child(&self, h: NodeId) -> Option<NodeId> {
        self.nodes[h.index()].last_child
    }

    /// `CHILDREN(h)`: interval members one level below `h`, in preorder.
    pub fn children(&self, h: NodeId) -> &[NodeId] {
        &self.nodes[h.index()].children
    }

    /// The chain of loop headers enclosing `n`, innermost first
    /// (ROOT excluded).
    pub fn enclosing_headers(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[n.index()].enclosing
    }

    /// `true` if `n ∈ T(h)` (`h` may be ROOT, whose interval is all nodes).
    pub fn in_interval(&self, h: NodeId, n: NodeId) -> bool {
        if h == self.root {
            return n != self.root;
        }
        self.nodes[n.index()].enclosing.contains(&h)
    }

    /// `true` if hoisting into header `h` was forbidden via
    /// [`IntervalGraph::poison`].
    pub fn is_poisoned(&self, h: NodeId) -> bool {
        self.nodes[h.index()].poisoned
    }

    /// Sources of JUMP-IN edges that enter `h`'s interval bypassing `h`
    /// (nonempty only on reversed graphs, §5.3). Availability at `h` must
    /// additionally hold along these paths; the solver folds them into
    /// the Eq. 11 predecessor sets of `h`.
    pub fn jump_in_sources(&self, h: NodeId) -> &[NodeId] {
        &self.nodes[h.index()].jump_in_sources
    }

    /// Marks header `h` as no-hoist (used to disable zero-trip hoisting
    /// case by case, §4.1, and by the reversal machinery).
    pub fn poison(&mut self, h: NodeId) {
        self.nodes[h.index()].poisoned = true;
    }

    /// All outgoing edges of `n` with their classes.
    pub fn succ_edges(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeClass)> + '_ {
        self.succs[n.index()].iter().copied()
    }

    /// All incoming edges of `n` with their classes.
    pub fn pred_edges(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeClass)> + '_ {
        self.preds[n.index()].iter().copied()
    }

    /// `SUCCS^mask(n)`.
    pub fn succs(&self, n: NodeId, mask: EdgeMask) -> impl Iterator<Item = NodeId> + '_ {
        self.succs[n.index()]
            .iter()
            .filter(move |(_, c)| mask.matches(*c))
            .map(|&(s, _)| s)
    }

    /// `PREDS^mask(n)`.
    pub fn preds(&self, n: NodeId, mask: EdgeMask) -> impl Iterator<Item = NodeId> + '_ {
        self.preds[n.index()]
            .iter()
            .filter(move |(_, c)| mask.matches(*c))
            .map(|&(p, _)| p)
    }

    /// Nodes in PREORDER (FORWARD ∧ DOWNWARD, §3.4).
    pub fn preorder(&self) -> &[NodeId] {
        &self.preorder
    }

    /// The position of `n` in the preorder.
    pub fn preorder_index(&self, n: NodeId) -> usize {
        self.preorder_index[n.index()]
    }

    /// The class of edge `m → n`, if present (synthetic edges included).
    pub fn edge_class(&self, m: NodeId, n: NodeId) -> Option<EdgeClass> {
        self.succs[m.index()]
            .iter()
            .find(|&&(s, c)| s == n && c != EdgeClass::Synthetic)
            .or_else(|| self.succs[m.index()].iter().find(|&&(s, _)| s == n))
            .map(|&(_, c)| c)
    }

    /// Renders the classified edge list for debugging and golden tests.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for n in self.preorder.iter().copied() {
            let _ = write!(out, "{n} (level {}, {:?})", self.level(n), self.kind(n));
            for (s, c) in self.succ_edges(n) {
                let _ = write!(out, "  -{c}-> {s}");
            }
            out.push('\n');
        }
        out
    }
}

/// Classifies `m → dst` given the loop forest. Returns `None` for edges
/// that are inconsistent with reducibility and not a recognized jump-in.
fn classify(forest: &LoopForest, root: NodeId, m: NodeId, dst: NodeId) -> Option<EdgeClass> {
    let chain_of = |x: NodeId| -> Vec<LoopId> {
        let mut v = Vec::new();
        let mut cur = forest.innermost(x);
        while let Some(l) = cur {
            v.push(l);
            cur = forest.loops()[l.index()].parent;
        }
        v
    };
    // CYCLE: m is a member of the loop headed by dst.
    if let Some(l) = forest.loop_headed_by(dst) {
        if forest.is_member(l, m) {
            return Some(EdgeClass::Cycle);
        }
    }
    // ENTRY: dst is a member of the loop headed by m.
    //
    // ROOT is deliberately *not* an ENTRY source: the paper's §4 example
    // values (x_k ∈ TAKEN_out(1) = TAKEN_in(2)) show that ROOT's outgoing
    // edges behave as FORWARD edges in the equations, even though ROOT
    // acts as the header of the whole program for the evaluation schedule
    // (CHILDREN, LASTCHILD).
    if let Some(l) = forest.loop_headed_by(m) {
        if forest.is_member(l, dst) {
            return Some(EdgeClass::Entry);
        }
    }
    let _ = root;
    let cm = chain_of(m);
    let cd = chain_of(dst);
    let m_extra = cm.iter().any(|l| !cd.contains(l));
    let d_extra = cd
        .iter()
        .any(|l| !cm.contains(l) && forest.loops()[l.index()].header != m);
    match (m_extra, d_extra) {
        (false, false) => Some(EdgeClass::Forward),
        (true, false) => Some(EdgeClass::Jump),
        // dst is in a loop that m is not in (and m is not its header):
        // a jump into a loop.
        (_, true) => Some(EdgeClass::JumpIn),
    }
}

/// Normalizes `cfg` for interval analysis: splits critical edges and
/// unifies multiple back edges per header behind a fresh latch node,
/// keeping `forest` consistent with the new nodes.
pub(crate) fn normalize(cfg: &mut Cfg, forest: &mut LoopForest) {
    // 1. Split critical edges.
    let edges: Vec<(NodeId, NodeId)> = cfg.edges().collect();
    for (m, n) in edges {
        if cfg.succs(m).len() > 1 && cfg.preds(n).len() > 1 {
            let mid = cfg.split_edge(m, n, SynthKind::EdgeSplit);
            forest.adopt(cfg, m, n, mid);
        }
    }
    // 2. Unique CYCLE edge per loop.
    for li in 0..forest.loops().len() {
        let header = forest.loops()[li].header;
        let tails: Vec<NodeId> = cfg
            .preds(header)
            .iter()
            .copied()
            .filter(|&p| forest.is_member(crate::dom::LoopId(li as u32), p))
            .collect();
        // A fresh latch is needed when there are several back edges, or
        // when the single back-edge source has other successors (the
        // source of a CYCLE edge may have no EFJ successors, §3.4).
        let needs_latch = tails.len() > 1 || (tails.len() == 1 && cfg.succs(tails[0]).len() > 1);
        if needs_latch {
            let latch = cfg.add_node(NodeKind::Synthetic(SynthKind::Latch));
            for &t in &tails {
                cfg.remove_edge(t, header);
                cfg.add_edge(t, latch);
            }
            cfg.add_edge(latch, header);
            forest.adopt_into(crate::dom::LoopId(li as u32), latch);
        }
    }
}

impl LoopForest {
    /// Registers `mid`, a node splitting the edge `m → n`, with the loops
    /// that should contain it: the loops containing both endpoints, plus
    /// the loop itself when the split edge was a back edge (`n` heads a
    /// loop `m` belongs to) or an entry edge (`m` heads a loop `n` belongs
    /// to).
    pub(crate) fn adopt(&mut self, _cfg: &Cfg, m: NodeId, n: NodeId, mid: NodeId) {
        let target = if let Some(l) = self.loop_headed_by(n).filter(|&l| self.is_member(l, m)) {
            Some(l) // back edge: latch side lives inside the loop
        } else if let Some(l) = self.loop_headed_by(m).filter(|&l| self.is_member(l, n)) {
            Some(l) // entry edge: split node lives inside the loop
        } else {
            // Deepest loop containing both endpoints.
            let mut cur = self.innermost(m);
            let mut found = None;
            while let Some(l) = cur {
                if self.is_member(l, n) || self.loop_headed_by(n) == Some(l) {
                    found = Some(l);
                    break;
                }
                cur = self.loops()[l.index()].parent;
            }
            // Also allow the symmetric case where n's chain contains m's
            // header-side loops (jump edges land outside: found = loop
            // containing the *sink*).
            if found.is_none() {
                let mut cur = self.innermost(n);
                while let Some(l) = cur {
                    if self.is_member(l, m) || self.loop_headed_by(m) == Some(l) {
                        found = Some(l);
                        break;
                    }
                    cur = self.loops()[l.index()].parent;
                }
            }
            found
        };
        match target {
            Some(l) => self.adopt_into(l, mid),
            None => self.adopt_outside(mid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnt_ir::parse;

    fn graph(src: &str) -> IntervalGraph {
        IntervalGraph::from_program(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn straight_line_all_forward() {
        let g = graph("a = 1\nb = 2");
        let classes: Vec<EdgeClass> = g
            .nodes()
            .flat_map(|n| g.succ_edges(n).map(|(_, c)| c).collect::<Vec<_>>())
            .collect();
        // entry→a, a→b, b→exit are all Forward (ROOT's edges behave as
        // FORWARD per the paper's §4 example values); exit→root is the
        // virtual Cycle.
        assert_eq!(
            classes.iter().filter(|c| **c == EdgeClass::Forward).count(),
            3
        );
        assert_eq!(
            classes.iter().filter(|c| **c == EdgeClass::Entry).count(),
            0
        );
        assert_eq!(
            classes.iter().filter(|c| **c == EdgeClass::Cycle).count(),
            0
        );
    }

    #[test]
    fn simple_loop_has_entry_cycle_and_levels() {
        let g = graph("do i = 1, N\n  y(i) = ...\nenddo");
        let header = g.nodes().find(|&n| g.is_loop_header(n)).unwrap();
        assert_eq!(g.level(header), 1);
        let body = g.children(header).to_vec();
        assert_eq!(body.len(), 1);
        assert_eq!(g.level(body[0]), 2);
        assert_eq!(g.last_child(header), Some(body[0]));
        assert_eq!(g.header_of(body[0]), Some(header));
        // Header's loop-exit edge is FORWARD.
        assert!(g.succ_edges(header).any(|(_, c)| c == EdgeClass::Forward));
    }

    #[test]
    fn root_interval_covers_everything() {
        let g = graph("a = 1\ndo i = 1, N\n  b = 2\nenddo");
        for n in g.nodes() {
            if n != g.root() {
                assert!(g.in_interval(g.root(), n));
            }
        }
        assert_eq!(g.last_child(g.root()), None);
        assert_eq!(g.level(g.root()), 0);
    }

    #[test]
    fn goto_out_of_loop_creates_jump_and_synthetic_edges() {
        let g = graph(
            "do i = 1, N\n\
               y(a(i)) = ...\n\
               if test(i) goto 77\n\
             enddo\n\
             do j = 1, N\n\
               z(j) = ...\n\
             enddo\n\
             77 do k = 1, N\n\
               ... = x(k+10)\n\
             enddo",
        );
        let jump_edges: Vec<(NodeId, NodeId)> = g
            .nodes()
            .flat_map(|n| {
                g.succ_edges(n)
                    .filter(|(_, c)| *c == EdgeClass::Jump)
                    .map(move |(s, _)| (n, s))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(jump_edges.len(), 1, "{}", g.dump());
        let (src, sink) = jump_edges[0];
        // LEVEL(src) − LEVEL(sink) synthetic edges, here 2 − 1 = 1.
        assert_eq!(g.level(src), 2);
        assert_eq!(g.level(sink), 1);
        let synth: Vec<(NodeId, NodeId)> = g
            .nodes()
            .flat_map(|n| {
                g.succ_edges(n)
                    .filter(|(_, c)| *c == EdgeClass::Synthetic)
                    .map(move |(s, _)| (n, s))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(synth.len(), 1);
        // It connects the i-loop header to the jump sink.
        assert!(g.is_loop_header(synth[0].0));
        assert_eq!(synth[0].1, sink);
        // Jump sinks have no other CEF preds.
        assert_eq!(g.preds(sink, EdgeMask::CEF).count(), 0, "{}", g.dump());
    }

    #[test]
    fn preorder_visits_headers_before_members() {
        let g = graph("do i = 1, N\n  do j = 1, M\n    x(j) = 1\n  enddo\nenddo\nb = 2");
        for n in g.nodes() {
            for &h in g.enclosing_headers(n) {
                assert!(
                    g.preorder_index(h) < g.preorder_index(n),
                    "header {h} must precede member {n}"
                );
            }
        }
        assert_eq!(g.preorder()[0], g.root());
    }

    #[test]
    fn forward_and_jump_edges_go_forward_in_preorder() {
        let g = graph("do i = 1, N\n  if t(i) goto 7\n  a = 1\nenddo\n7 b = 2");
        for n in g.nodes() {
            for (s, c) in g.succ_edges(n) {
                if matches!(
                    c,
                    EdgeClass::Forward | EdgeClass::Jump | EdgeClass::Synthetic
                ) {
                    assert!(g.preorder_index(n) < g.preorder_index(s));
                }
            }
        }
    }

    #[test]
    fn if_else_join_gets_split_node() {
        // The branch has 2 succs and the join has 2 preds: both edges into
        // the join are critical and get synthetic nodes (or the arms act
        // as them).
        let g = graph("if t then\n  a = 1\nelse\n  b = 2\nendif\nc = 3");
        for n in g.nodes() {
            let outs = g.succs(n, EdgeMask::CEFJ).count();
            if outs > 1 {
                for s in g.succs(n, EdgeMask::CEFJ) {
                    assert!(
                        g.preds(s, EdgeMask::CEFJ).count() <= 1,
                        "critical edge {n} → {s}\n{}",
                        g.dump()
                    );
                }
            }
        }
    }

    #[test]
    fn if_without_else_gets_synthetic_else_branch() {
        // Figure 3's shape: branch → join directly would be critical.
        let g = graph("if t then\n  a = 1\nendif\nc = 3");
        let synth = g.nodes().filter(|&n| g.kind(n).is_synthetic()).count();
        assert!(synth >= 1, "expected a synthetic else branch\n{}", g.dump());
    }

    #[test]
    fn multi_backedge_loop_gets_unified_latch() {
        // An if at the bottom of the loop creates two paths back to the
        // header; normalization must leave exactly one CYCLE edge.
        let g = graph("do i = 1, N\n  if t(i) then\n    a = 1\n  else\n    b = 2\n  endif\nenddo");
        let header = g.nodes().find(|&n| g.is_loop_header(n)).unwrap();
        let cycles = g.preds(header, EdgeMask::C).count();
        assert_eq!(cycles, 1, "{}", g.dump());
        let latch = g.last_child(header).unwrap();
        // The cycle source has no EFJ successors.
        assert_eq!(g.succs(latch, EdgeMask::EFJ).count(), 0);
    }

    #[test]
    fn jump_into_loop_is_rejected_on_forward_graphs() {
        let p = parse(
            "do i = 1, N\n  if t(i) goto 5\n  a = 1\nenddo\n\
             do j = 1, N\n  5 b = 2\nenddo",
        )
        .unwrap();
        let lowered = crate::lower(&p).unwrap();
        let err = IntervalGraph::from_cfg(lowered.cfg).unwrap_err();
        assert!(matches!(
            err,
            GraphError::Irreducible(_) | GraphError::JumpIntoLoop { .. }
        ));
    }

    #[test]
    fn edge_mask_matches_expected_classes() {
        assert!(EdgeMask::FJ.matches(EdgeClass::Forward));
        assert!(EdgeMask::FJ.matches(EdgeClass::Jump));
        assert!(EdgeMask::FJ.matches(EdgeClass::JumpIn));
        assert!(!EdgeMask::FJ.matches(EdgeClass::Entry));
        assert!(EdgeMask::FJS.matches(EdgeClass::Synthetic));
        assert!((EdgeMask::E | EdgeMask::C).matches(EdgeClass::Cycle));
    }

    #[test]
    fn levels_count_from_outside_in() {
        let g = graph(
            "do i = 1, N\n  do j = 1, M\n    do k = 1, K\n      x(k) = 1\n    enddo\n  enddo\nenddo",
        );
        let max_level = g.nodes().map(|n| g.level(n)).max().unwrap();
        assert_eq!(max_level, 4); // innermost body
    }
}
