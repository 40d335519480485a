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
use crate::graph::{ends_to_starts, node_id, Cfg, Flat, NodeId, NodeKind, SynthKind};
use crate::scratch::{CfgScratch, CfgScratchPool};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

/// The interval flow graph: classified edges plus the interval structure
/// GIVE-N-TAKE's equations consume.
///
/// Built once and then read-only but for [`IntervalGraph::poison`]:
/// every per-node list (edges, enclosing headers, `CHILDREN`, jump-in
/// sources) is one flat array with offsets, and the structural part of
/// the [`fingerprint`](IntervalGraph::fingerprint) is computed at
/// construction.
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
    kinds: Vec<NodeKind>,
    /// Out-edges with their classes: real edges in CFG order, then
    /// synthetic ones. An edge's id is its slot here.
    succs: Flat<(NodeId, EdgeClass)>,
    /// In-edges: real edges by ascending source, then synthetic ones.
    preds: Flat<(NodeId, EdgeClass)>,
    /// The id (slot in `succs`) of each in-edge, in `preds` order.
    pred_ids: Vec<usize>,
    /// Chain of enclosing loop headers, innermost first (ROOT excluded).
    enclosing: Flat<NodeId>,
    /// `CHILDREN(h)` in preorder (only headers have any).
    children: Flat<NodeId>,
    /// Sources of JUMP-IN edges bypassing each header (reversed graphs,
    /// §5.3): paths that enter the interval without passing the header.
    jump_in: Flat<NodeId>,
    /// `HEADER(n)` and `LASTCHILD(n)`, read off the in-edges once: the
    /// solver asks for both at every node.
    header_last_child: Vec<(Option<NodeId>, Option<NodeId>)>,
    /// No-hoist headers (§4.1), sorted.
    poisoned: Vec<NodeId>,
    /// The structural part of [`IntervalGraph::fingerprint`].
    fingerprint: u64,
    root: NodeId,
    exit: NodeId,
    preorder: Vec<NodeId>,
    preorder_index: Vec<usize>,
}

/// One step of the structural fingerprint: the splitmix64 finalizer over
/// `h ^ x`.
fn mix(h: u64, x: u64) -> u64 {
    let mut z = h ^ x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
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
    pub(crate) fn from_cfg_with(
        mut cfg: Cfg,
        scratch: &mut CfgScratch,
    ) -> Result<IntervalGraph, GraphError> {
        let mut dom = Dominators::compute_with(&cfg, scratch);
        // A graph `lower` built is pruned already; prune only when the
        // dominator DFS missed a node.
        if dom.rpo.len() < cfg.num_nodes() && cfg.prune().is_some() {
            dom.recycle(scratch);
            dom = Dominators::compute_with(&cfg, scratch);
        }
        let forest = LoopForest::compute(&cfg, &dom);
        dom.recycle(scratch);
        let mut forest = forest?;
        let (mut kinds, succs, preds, ends) = cfg.into_parts();
        let real = split_critical_edges(succs, &preds, &mut forest, &mut kinds);
        let real = latch_back_edges(real, &mut forest, &mut kinds);
        Self::assemble(kinds, ends, &real, &forest, false, scratch)
    }

    /// Builds the graph over `kinds` from its real (CFG) edges, grouped
    /// by source, and a loop forest consistent with them, optionally
    /// tolerating jumps into loops (reversed graphs, §5.3). `ends` is
    /// `(root, exit)`. The edges must already be normalized; this is the
    /// entry point [`crate::reverse`] shares.
    pub(crate) fn assemble(
        mut kinds: Vec<NodeKind>,
        (root, exit): (NodeId, NodeId),
        real: &Flat<NodeId>,
        forest: &LoopForest,
        allow_jump_in: bool,
        scratch: &mut CfgScratch,
    ) -> Result<IntervalGraph, GraphError> {
        let n = kinds.len();
        let enclosing = Flat::build(n, |i, out| {
            out.extend(
                forest
                    .chain(NodeId(i as u32))
                    .map(|l| forest.loops()[l.index()].header),
            );
        });

        // Classify the real edges (`classes` runs parallel to
        // `real.items`), and collect one SYNTHETIC edge per interval each
        // JUMP edge leaves, and the jump-in sources of each header.
        let CfgScratch {
            classes,
            synthetic,
            jump_ins,
            counts,
            synth_slots,
            ..
        } = scratch;
        classes.clear();
        synthetic.clear();
        jump_ins.clear();
        for m in (0..n as u32).map(NodeId) {
            let src_chain = enclosing.of(m.index());
            for &dst in real.of(m.index()) {
                let (class, dst_chain) = (classify(&enclosing, m, dst), enclosing.of(dst.index()));
                match class {
                    EdgeClass::JumpIn if !allow_jump_in => {
                        return Err(GraphError::JumpIntoLoop { src: m, dst });
                    }
                    EdgeClass::Jump => synthetic.extend(
                        src_chain
                            .iter()
                            .filter(|h| !dst_chain.contains(h))
                            .map(|h| (h.0, dst)),
                    ),
                    // Record the source with every interval header the edge
                    // bypasses: availability at those headers must
                    // additionally hold along the jump-in path (Eq. 11 is
                    // extended accordingly; see gnt-core).
                    EdgeClass::JumpIn => jump_ins.extend(
                        dst_chain
                            .iter()
                            .filter(|&&h| !src_chain.contains(&h) && h != m)
                            .map(|h| (h.0, m)),
                    ),
                    _ => {}
                }
                classes.push(class);
            }
        }
        // Note: ROOT acts as a header only for the evaluation schedule
        // (CHILDREN(ROOT) = top-level nodes). It heads no Tarjan interval,
        // so it has no CYCLE edge and LASTCHILD(ROOT) = ∅ — the paper's §4
        // example values (GIVE(1) stays empty, TAKEN_out(1) = TAKEN_in(2))
        // pin this down.

        // Out-edges: each node's real edges in CFG order, then the
        // synthetic edges it is the source of, in the order they were
        // found. An edge's id is its slot.
        let num_edges = real.items.len() + synthetic.len();
        let mut off = vec![0; n + 1];
        for &(h, _) in synthetic.iter() {
            off[h as usize + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i] + real.range(i).len();
        }
        let mut items = vec![(NodeId(0), EdgeClass::Forward); num_edges];
        // `counts[i]`: where node `i`'s next synthetic edge goes.
        counts.clear();
        for (i, &to) in off[..n].iter().enumerate() {
            let from = real.range(i);
            for (edge, slot) in items[to..].iter_mut().zip(from.clone()) {
                *edge = (real.items[slot], classes[slot]);
            }
            counts.push((to + from.len()) as u32);
        }
        synth_slots.clear();
        for &(h, dst) in synthetic.iter() {
            let at = &mut counts[h as usize];
            items[*at as usize] = (dst, EdgeClass::Synthetic);
            synth_slots.push(*at);
            *at += 1;
        }
        let succs = Flat { off, items };

        // In-edges: real edges by ascending source, then synthetic ones
        // in the order they were found. `HEADER(n)` is the source of the
        // last ENTRY edge into `n`, `LASTCHILD(n)` that of the first
        // CYCLE edge.
        let mut off = vec![0; n + 1];
        for dst in real.items.iter().chain(synthetic.iter().map(|(_, d)| d)) {
            off[dst.index() + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let mut items = vec![(NodeId(0), EdgeClass::Forward); num_edges];
        let mut pred_ids = vec![0; num_edges];
        let mut header_last_child = vec![(None, None); n];
        let mut put = |dst: NodeId, (src, class): (NodeId, EdgeClass), id: usize| {
            let at = &mut off[dst.index()];
            items[*at] = (src, class);
            pred_ids[*at] = id;
            *at += 1;
            let hl: &mut (Option<NodeId>, Option<NodeId>) = &mut header_last_child[dst.index()];
            match class {
                EdgeClass::Entry => hl.0 = Some(src),
                EdgeClass::Cycle if hl.1.is_none() => hl.1 = Some(src),
                _ => {}
            }
        };
        for m in 0..n {
            for (k, slot) in real.range(m).enumerate() {
                let src = (NodeId(m as u32), classes[slot]);
                put(real.items[slot], src, succs.off[m] + k);
            }
        }
        for (&(h, dst), &id) in synthetic.iter().zip(synth_slots.iter()) {
            put(dst, (NodeId(h), EdgeClass::Synthetic), id as usize);
        }
        ends_to_starts(&mut off);
        let preds = Flat { off, items };
        let jump_in = Flat::group(n, jump_ins.iter().map(|&(h, m)| (h as usize, m)));

        // Preorder: topological over E/F/J/S (+JumpIn) edges, skipping the
        // CYCLE edges; ties broken by ascending node id (construction
        // order, which follows the source).
        // `counts[i]`: node `i`'s predecessors not yet scheduled.
        counts.clear();
        counts.extend((0..n).map(|i| {
            preds
                .of(i)
                .iter()
                .filter(|e| e.1 != EdgeClass::Cycle)
                .count() as u32
        }));
        let mut ready: BinaryHeap<Reverse<u32>> = (0..n as u32)
            .filter(|&i| counts[i as usize] == 0)
            .map(Reverse)
            .collect();
        let mut preorder = Vec::with_capacity(n);
        while let Some(Reverse(i)) = ready.pop() {
            preorder.push(NodeId(i));
            for &(s, _) in succs
                .of(i as usize)
                .iter()
                .filter(|e| e.1 != EdgeClass::Cycle)
            {
                counts[s.index()] -= 1;
                if counts[s.index()] == 0 {
                    ready.push(Reverse(s.0));
                }
            }
        }
        // Every node left unscheduled waits on a predecessor.
        if let Some(stuck) = counts.iter().position(|&d| d > 0) {
            return Err(GraphError::CyclicOrder(NodeId(stuck as u32)));
        }
        let mut preorder_index = vec![usize::MAX; n];
        for (i, &node) in preorder.iter().enumerate() {
            preorder_index[node.index()] = i;
        }

        // CHILDREN: every non-root node is a child of its innermost header
        // (or of ROOT); listing them in preorder sorts each list.
        let children = Flat::group(
            n,
            preorder
                .iter()
                .filter(|&&x| x != root)
                .map(|&x| (enclosing.of(x.index()).first().unwrap_or(&root).index(), x)),
        );

        // What a compiled schedule depends on besides poisoning: the node
        // count, each node's classified out-edges and its jump-in sources.
        let fingerprint = [n as u64]
            .into_iter()
            .chain(succs.off.iter().chain(&jump_in.off).map(|&o| o as u64))
            .chain(
                succs
                    .items
                    .iter()
                    .map(|&(s, c)| (u64::from(s.0) << 3) | c as u64),
            )
            .chain(jump_in.items.iter().map(|j| u64::from(j.0)))
            .fold(0, mix);
        // `kinds` grew node by node while lowering and normalizing; a
        // graph can outlive its lint in the pipeline cache.
        kinds.shrink_to_fit();
        let g = IntervalGraph {
            kinds,
            succs,
            preds,
            pred_ids,
            enclosing,
            children,
            jump_in,
            header_last_child,
            poisoned: Vec::new(),
            fingerprint,
            root,
            exit,
            preorder,
            preorder_index,
        };
        #[cfg(debug_assertions)]
        g.validate(allow_jump_in);
        Ok(g)
    }

    /// Checks the §3.3/§3.4 invariants; called at construction in debug
    /// builds (`crates/cfg/tests/invariants.rs` checks the same ones on
    /// random graphs).
    #[cfg(debug_assertions)]
    fn validate(&self, allow_jump_in: bool) {
        for n in self.nodes() {
            // No critical edges among real (CEFJ) edges.
            if self.succs(n, EdgeMask::CEFJ).nth(1).is_some() {
                for s in self.succs(n, EdgeMask::CEFJ) {
                    debug_assert!(
                        s == self.root || self.preds(s, EdgeMask::CEFJ).nth(1).is_none(),
                        "critical edge {n} → {s} survived normalization"
                    );
                }
            }
            debug_assert!(
                self.preds(n, EdgeMask::C).nth(1).is_none(),
                "{n}: two CYCLE edges"
            );
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
                        let extra = self.succs(n, EdgeMask::EFJ).count();
                        debug_assert_eq!(extra, 0, "cycle source {n} has EFJ succs");
                    }
                    EdgeClass::JumpIn => {
                        debug_assert!(allow_jump_in, "JumpIn edge on a forward graph");
                    }
                    _ => {}
                }
            }
        }
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
        self.kinds.len()
    }

    /// Number of edges, including synthetic edges.
    pub fn num_edges(&self) -> usize {
        self.succs.items.len()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len() as u32).map(NodeId)
    }

    /// The provenance of `n`.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.index()]
    }

    /// `LEVEL(n)`: 0 for ROOT, 1 + loop nesting depth otherwise.
    pub fn level(&self, n: NodeId) -> usize {
        if n == self.root {
            0
        } else {
            1 + self.enclosing_headers(n).len()
        }
    }

    /// `true` if `n` heads an interval (a loop header or ROOT).
    pub fn is_header(&self, n: NodeId) -> bool {
        n == self.root || !self.children(n).is_empty()
    }

    /// `true` if `n` is a loop header (excludes ROOT).
    #[inline]
    pub fn is_loop_header(&self, n: NodeId) -> bool {
        n != self.root && !self.children(n).is_empty()
    }

    /// `HEADER(n)`: source of the ENTRY edge into `n`, if any.
    #[inline]
    pub fn header_of(&self, n: NodeId) -> Option<NodeId> {
        self.header_last_child[n.index()].0
    }

    /// `LASTCHILD(h)`: source of the unique CYCLE edge into `h`.
    #[inline]
    pub fn last_child(&self, h: NodeId) -> Option<NodeId> {
        self.header_last_child[h.index()].1
    }

    /// `CHILDREN(h)`: interval members one level below `h`, in preorder.
    #[inline]
    pub fn children(&self, h: NodeId) -> &[NodeId] {
        self.children.of(h.index())
    }

    /// The chain of loop headers enclosing `n`, innermost first
    /// (ROOT excluded).
    #[inline]
    pub fn enclosing_headers(&self, n: NodeId) -> &[NodeId] {
        self.enclosing.of(n.index())
    }

    /// `true` if `n ∈ T(h)` (`h` may be ROOT, whose interval is all nodes).
    pub fn in_interval(&self, h: NodeId, n: NodeId) -> bool {
        if h == self.root {
            return n != self.root;
        }
        self.enclosing_headers(n).contains(&h)
    }

    /// `true` if hoisting into header `h` was forbidden via
    /// [`IntervalGraph::poison`].
    #[inline]
    pub fn is_poisoned(&self, h: NodeId) -> bool {
        self.poisoned.binary_search(&h).is_ok()
    }

    /// The nodes [`IntervalGraph::poison`] marked, ascending.
    pub fn poisoned(&self) -> &[NodeId] {
        &self.poisoned
    }

    /// Sources of JUMP-IN edges that enter `h`'s interval bypassing `h`
    /// (nonempty only on reversed graphs, §5.3). Availability at `h` must
    /// additionally hold along these paths; the solver folds them into
    /// the Eq. 11 predecessor sets of `h`.
    #[inline]
    pub fn jump_in_sources(&self, h: NodeId) -> &[NodeId] {
        self.jump_in.of(h.index())
    }

    /// Marks header `h` as no-hoist: the solver forces its `STEAL` to ⊤
    /// (`STEAL_init = ⊤`, the paper's switch for zero-trip safety, §3.2
    /// C2 and §4.1). Nothing is hoisted out of the loop and nothing
    /// survives across it, so both placement flavors stay inside it and
    /// balanced, and consumers after it get their own production even on
    /// zero-trip paths. Also used by the reversal machinery (§5.3).
    pub fn poison(&mut self, h: NodeId) {
        if let Err(at) = self.poisoned.binary_search(&h) {
            self.poisoned.insert(at, h);
        }
    }

    /// Poisons every loop header: no consumption is hoisted out of any
    /// loop, as in classically safe PRE (§3.2 C2).
    pub fn poison_loop_headers(&mut self) {
        let mut poisoned = std::mem::take(&mut self.poisoned);
        poisoned.extend(self.nodes().filter(|&n| self.is_loop_header(n)));
        poisoned.sort_unstable();
        poisoned.dedup();
        self.poisoned = poisoned;
    }

    /// The fingerprint of everything the solver's schedule reads of the
    /// graph: a hash of the node count, every node's classified
    /// out-edges and its jump-in sources (computed at construction),
    /// mixed with the poisoned nodes inside the graph (ids past it are
    /// ignored, as the solver never reads them). Equal fingerprints mean
    /// the same schedule, barring a 64-bit hash collision; the cost is in
    /// the size of the poison set, not of the graph.
    pub fn fingerprint(&self) -> u64 {
        // `poison()` keeps the list ascending, so the in-graph ids come
        // first.
        let n = self.num_nodes();
        let inside = &self.poisoned[..self.poisoned.partition_point(|h| h.index() < n)];
        inside
            .iter()
            .fold(mix(self.fingerprint, inside.len() as u64), |h, p| {
                mix(h, u64::from(p.0))
            })
    }

    /// All outgoing edges of `n` with their classes.
    #[inline]
    pub fn succ_edges(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeClass)> + '_ {
        self.succs.of(n.index()).iter().copied()
    }

    /// The *real* (CEFJ) outgoing edges of `n` with their classes: the
    /// concrete control flow, without synthetic edges and the virtual
    /// exit→ROOT cycle edge.
    pub fn real_succ_edges(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeClass)> + '_ {
        self.succ_edges(n).filter(|&(s, c)| self.is_real(s, c))
    }

    /// Whether an edge into `s` of class `c` is real (CEFJ): neither
    /// synthetic nor the virtual CYCLE edge into ROOT.
    #[inline]
    pub fn is_real(&self, s: NodeId, c: EdgeClass) -> bool {
        c != EdgeClass::Synthetic && !(c == EdgeClass::Cycle && s == self.root)
    }

    /// All incoming edges of `n` with their classes.
    #[inline]
    pub fn pred_edges(&self, n: NodeId) -> impl Iterator<Item = (NodeId, EdgeClass)> + '_ {
        self.preds.of(n.index()).iter().copied()
    }

    /// The ids of `n`'s outgoing edges, in [`IntervalGraph::succ_edges`]
    /// order. Ids are dense over `0..num_edges()`, so a pass can keep one
    /// row per edge.
    #[inline]
    pub fn succ_edge_ids(&self, n: NodeId) -> std::ops::Range<usize> {
        self.succs.range(n.index())
    }

    /// The sink and class of the edge with id `e`.
    #[inline]
    pub fn edge(&self, e: usize) -> (NodeId, EdgeClass) {
        self.succs.items[e]
    }

    /// The ids of `n`'s incoming edges, in [`IntervalGraph::pred_edges`]
    /// order.
    #[inline]
    pub fn pred_edge_ids(&self, n: NodeId) -> &[usize] {
        &self.pred_ids[self.preds.range(n.index())]
    }

    /// `SUCCS^mask(n)`.
    #[inline]
    pub fn succs(&self, n: NodeId, mask: EdgeMask) -> impl Iterator<Item = NodeId> + '_ {
        self.succs
            .of(n.index())
            .iter()
            .filter(move |(_, c)| mask.matches(*c))
            .map(|&(s, _)| s)
    }

    /// `PREDS^mask(n)`.
    #[inline]
    pub fn preds(&self, n: NodeId, mask: EdgeMask) -> impl Iterator<Item = NodeId> + '_ {
        self.preds
            .of(n.index())
            .iter()
            .filter(move |(_, c)| mask.matches(*c))
            .map(|&(p, _)| p)
    }

    /// Nodes in PREORDER (FORWARD ∧ DOWNWARD, §3.4).
    pub fn preorder(&self) -> &[NodeId] {
        &self.preorder
    }

    /// The position of `n` in the preorder.
    #[inline]
    pub fn preorder_index(&self, n: NodeId) -> usize {
        self.preorder_index[n.index()]
    }

    /// The class of edge `m → n`, if present (synthetic edges included).
    pub fn edge_class(&self, m: NodeId, n: NodeId) -> Option<EdgeClass> {
        let out = self.succs.of(m.index());
        out.iter()
            .find(|&&(s, c)| s == n && c != EdgeClass::Synthetic)
            .or_else(|| out.iter().find(|&&(s, _)| s == n))
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

/// Classifies `m → dst` given the enclosing-header chains of the loop
/// forest.
fn classify(enclosing: &Flat<NodeId>, m: NodeId, dst: NodeId) -> EdgeClass {
    let (cm, cd) = (enclosing.of(m.index()), enclosing.of(dst.index()));
    // CYCLE: m is a member of the loop headed by dst.
    if cm.contains(&dst) {
        return EdgeClass::Cycle;
    }
    // ENTRY: dst is a member of the loop headed by m.
    //
    // ROOT is deliberately *not* an ENTRY source: the paper's §4 example
    // values (x_k ∈ TAKEN_out(1) = TAKEN_in(2)) show that ROOT's outgoing
    // edges behave as FORWARD edges in the equations, even though ROOT
    // acts as the header of the whole program for the evaluation schedule
    // (CHILDREN, LASTCHILD).
    if cd.contains(&m) {
        return EdgeClass::Entry;
    }
    let m_extra = cm.iter().any(|h| !cd.contains(h));
    let d_extra = cd.iter().any(|h| !cm.contains(h) && *h != m);
    match (m_extra, d_extra) {
        (false, false) => EdgeClass::Forward,
        (true, false) => EdgeClass::Jump,
        // dst is in a loop that m is not in (and m is not its header):
        // a jump into a loop.
        (_, true) => EdgeClass::JumpIn,
    }
}

/// Splits the critical edges of the graph with successor lists `succs`
/// and predecessor lists `preds` over the nodes of `kinds`, keeping
/// `forest` consistent with the new nodes (the first half of
/// normalization; the second is [`latch_back_edges`]). One linear pass
/// in edge order: a split node takes its edge's slot in the source's
/// list and is appended to `kinds`. A split changes no degree, so every
/// edge is judged on the input graph.
fn split_critical_edges(
    mut succs: Flat<NodeId>,
    preds: &Flat<NodeId>,
    forest: &mut LoopForest,
    kinds: &mut Vec<NodeKind>,
) -> Flat<NodeId> {
    for m in 0..preds.len() {
        let out = succs.range(m);
        if out.len() < 2 {
            continue;
        }
        for slot in out {
            let dst = succs.items[slot];
            if preds.of(dst.index()).len() > 1 {
                let mid = node_id(kinds.len());
                kinds.push(NodeKind::Synthetic(SynthKind::EdgeSplit));
                succs.items[slot] = mid;
                succs.push(&[dst]);
                forest.adopt(NodeId(m as u32), dst, mid);
            }
        }
    }
    succs
}

/// Gives every loop of `forest` a unique CYCLE edge over the real edges
/// `succs` (grouped by source, over the nodes of `kinds`): when several
/// members jump back to the header, or one that has other successors
/// does (the source of a CYCLE edge may have no EFJ successors, §3.4),
/// they jump to a fresh latch instead, whose one edge goes to the
/// header. Latches are appended to `kinds` in loop order; each node's
/// retargeted edges move to the end of its list. Without latches,
/// `succs` comes back as it is.
pub(crate) fn latch_back_edges(
    succs: Flat<NodeId>,
    forest: &mut LoopForest,
    kinds: &mut Vec<NodeKind>,
) -> Flat<NodeId> {
    let n = kinds.len();
    let mut retarget: Vec<(usize, (NodeId, NodeId))> = Vec::new();
    let mut latch_header: Vec<NodeId> = Vec::new();
    let mut tails: Vec<NodeId> = Vec::new();
    for li in 0..forest.loops().len() {
        let (l, header) = (LoopId(li as u32), forest.loops()[li].header);
        tails.clear();
        tails.extend(
            forest.loops()[li]
                .members
                .iter()
                .copied()
                // Latches of inner loops are members too, and no tails.
                .filter(|t| t.index() < n && succs.of(t.index()).contains(&header)),
        );
        if tails.len() > 1 || tails.first().is_some_and(|t| succs.of(t.index()).len() > 1) {
            let latch = node_id(kinds.len());
            kinds.push(NodeKind::Synthetic(SynthKind::Latch));
            latch_header.push(header);
            forest.adopt_into(l, latch);
            retarget.extend(tails.iter().map(|t| (t.index(), (header, latch))));
        }
    }
    if latch_header.is_empty() {
        return succs;
    }
    let retarget = Flat::group(n, retarget.iter().copied());
    Flat::build(kinds.len(), |i, out| {
        let Some(own) = (i < n).then(|| succs.of(i)) else {
            out.push(latch_header[i - n]);
            return;
        };
        let moved = retarget.of(i);
        out.extend(own.iter().filter(|s| !moved.iter().any(|(h, _)| h == *s)));
        out.extend(moved.iter().map(|&(_, latch)| latch));
    })
}

impl LoopForest {
    /// Registers `mid`, a node splitting the edge `m → n`, with the loops
    /// that should contain it: the loops containing both endpoints, plus
    /// the loop itself when the split edge was a back edge (`n` heads a
    /// loop `m` belongs to) or an entry edge (`m` heads a loop `n` belongs
    /// to).
    pub(crate) fn adopt(&mut self, m: NodeId, n: NodeId, mid: NodeId) {
        let target = if let Some(l) = self.loop_headed_by(n).filter(|&l| self.is_member(l, m)) {
            Some(l) // back edge: latch side lives inside the loop
        } else if let Some(l) = self.loop_headed_by(m).filter(|&l| self.is_member(l, n)) {
            Some(l) // entry edge: split node lives inside the loop
        } else {
            // The deepest loop containing both endpoints, or, for a jump
            // landing outside m's loops, the loop containing the sink.
            let holds =
                |l: LoopId, x: NodeId| self.is_member(l, x) || self.loop_headed_by(x) == Some(l);
            (self.chain(m).find(|&l| holds(l, n))).or_else(|| self.chain(n).find(|&l| holds(l, m)))
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
