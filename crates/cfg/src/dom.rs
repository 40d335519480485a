//! Dominators, reducibility, and the loop forest.
//!
//! GIVE-N-TAKE requires a reducible flow graph (§3.3): every loop must be
//! entered through a unique header. We compute immediate dominators with
//! the Cooper–Harvey–Kennedy algorithm, detect back edges, test
//! reducibility, and derive the Tarjan-style loop forest (a node belongs to
//! the interval `T(h)` of every enclosing header `h`, and a header is *not*
//! a member of its own interval). Irreducible graphs can be repaired by
//! node splitting ([`make_reducible`]), as the paper suggests via [CM69].

use crate::graph::{Cfg, NodeId};
use crate::scratch::CfgScratch;
use std::fmt;

/// Immediate-dominator tree for a [`Cfg`].
#[derive(Clone, Debug)]
pub struct Dominators {
    /// Immediate dominators by node index, [`NONE`] where unreachable.
    idom: Vec<u32>,
    /// Reverse-postorder indices, [`NONE`] where unreachable.
    rpo_index: Vec<u32>,
    /// Nodes in reverse postorder.
    pub rpo: Vec<NodeId>,
}

/// The `idom` and `rpo_index` entry of an unreachable node.
const NONE: u32 = u32::MAX;

impl Dominators {
    /// Computes dominators for all nodes reachable from the entry.
    pub fn compute(cfg: &Cfg) -> Dominators {
        Dominators::compute_with(cfg, &mut CfgScratch::new())
    }

    /// [`Dominators::compute`] with caller-provided scratch buffers.
    /// The result's tables are built in (recycled) scratch storage;
    /// hand them back with [`Dominators::recycle`] once done.
    pub(crate) fn compute_with(cfg: &Cfg, scratch: &mut CfgScratch) -> Dominators {
        let n = cfg.num_nodes();
        // Postorder DFS from the entry; reversed in place below.
        let mut post = std::mem::take(&mut scratch.rpo);
        post.clear();
        post.reserve(n);
        let state = &mut scratch.state;
        state.clear();
        state.resize(n, 0); // 0 = unseen, 1 = open, 2 = done
        let stack = &mut scratch.dfs;
        stack.clear();
        stack.push((cfg.entry(), 0));
        state[cfg.entry().index()] = 1;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succs = cfg.succs(node);
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if state[s.index()] == 0 {
                    state[s.index()] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[node.index()] = 2;
                post.push(node);
                stack.pop();
            }
        }
        post.reverse();
        let rpo = post;
        let mut rpo_index = std::mem::take(&mut scratch.rpo_index);
        rpo_index.clear();
        rpo_index.resize(n, NONE);
        for (i, &node) in rpo.iter().enumerate() {
            rpo_index[node.index()] = i as u32;
        }

        let mut idom = std::mem::take(&mut scratch.idom);
        idom.clear();
        idom.resize(n, NONE);
        idom[cfg.entry().index()] = cfg.entry().0;
        let mut changed = true;
        while changed {
            changed = false;
            for &node in rpo.iter().skip(1) {
                let mut new_idom = NONE;
                for &p in cfg.preds(node) {
                    if idom[p.index()] == NONE {
                        continue;
                    }
                    new_idom = match new_idom {
                        NONE => p.0,
                        cur => intersect(&idom, &rpo_index, p.0, cur),
                    };
                }
                if new_idom != NONE && idom[node.index()] != new_idom {
                    idom[node.index()] = new_idom;
                    changed = true;
                }
            }
        }
        Dominators {
            idom,
            rpo_index,
            rpo,
        }
    }

    /// Returns the dominator tables to `scratch` for the next
    /// [`Dominators::compute_with`] call to reuse.
    pub(crate) fn recycle(self, scratch: &mut CfgScratch) {
        scratch.idom = self.idom;
        scratch.rpo_index = self.rpo_index;
        scratch.rpo = self.rpo;
    }

    /// The immediate dominator of `n` (the entry dominates itself).
    /// `None` for unreachable nodes.
    pub fn idom(&self, n: NodeId) -> Option<NodeId> {
        let d = self.idom[n.index()];
        (d != NONE).then_some(NodeId(d))
    }

    /// `true` if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: NodeId, b: NodeId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }

    /// The reverse-postorder index of `n` (`usize::MAX` if unreachable).
    pub fn rpo_index(&self, n: NodeId) -> usize {
        match self.rpo_index[n.index()] {
            NONE => usize::MAX,
            i => i as usize,
        }
    }
}

/// The nearest common dominator of the processed nodes `a` and `b`.
fn intersect(idom: &[u32], rpo_index: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while rpo_index[a as usize] > rpo_index[b as usize] {
            a = idom[a as usize];
        }
        while rpo_index[b as usize] > rpo_index[a as usize] {
            b = idom[b as usize];
        }
    }
    a
}

/// The graph is irreducible: some retreating edge targets a node that does
/// not dominate its source (a multi-entry loop).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IrreducibleError {
    /// The offending retreating edges.
    pub edges: Vec<(NodeId, NodeId)>,
}

impl fmt::Display for IrreducibleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "irreducible flow graph; offending edges: ")?;
        for (i, (m, n)) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m} → {n}")?;
        }
        Ok(())
    }
}

impl std::error::Error for IrreducibleError {}

/// Returns the back edges `(tail, header)` of `cfg` — retreating edges
/// whose target dominates their source.
///
/// # Errors
///
/// Returns [`IrreducibleError`] if a retreating edge is not a back edge.
pub fn back_edges(cfg: &Cfg, dom: &Dominators) -> Result<Vec<(NodeId, NodeId)>, IrreducibleError> {
    let mut back = Vec::new();
    let mut bad = Vec::new();
    for (m, n) in cfg.edges() {
        if dom.rpo_index(n) <= dom.rpo_index(m) && dom.rpo_index(m) != usize::MAX {
            if dom.dominates(n, m) {
                back.push((m, n));
            } else {
                bad.push((m, n));
            }
        }
    }
    if bad.is_empty() {
        Ok(back)
    } else {
        Err(IrreducibleError { edges: bad })
    }
}

/// Identifies a loop in a [`LoopForest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(pub u32);

impl LoopId {
    /// The id as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One natural loop: its header plus the member set `T(header)`
/// (which, following Tarjan, *excludes* the header itself).
#[derive(Clone, Debug)]
pub struct LoopInfo {
    /// The unique entry node of the loop.
    pub header: NodeId,
    /// Loop members, excluding the header.
    pub members: Vec<NodeId>,
    /// The immediately enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// Nesting depth: 1 for outermost loops.
    pub depth: usize,
}

/// The loop nesting forest of a reducible CFG.
#[derive(Clone, Debug)]
pub struct LoopForest {
    loops: Vec<LoopInfo>,
    /// Per node: the innermost loop having the node as a *member*.
    innermost: Vec<Option<LoopId>>,
    /// Per node: the loop this node heads, if any.
    headed: Vec<Option<LoopId>>,
}

impl LoopForest {
    /// Computes the loop forest from the back edges of a reducible graph.
    ///
    /// # Errors
    ///
    /// Returns [`IrreducibleError`] if the graph is irreducible.
    pub fn compute(cfg: &Cfg, dom: &Dominators) -> Result<LoopForest, IrreducibleError> {
        let backs = back_edges(cfg, dom)?;
        Ok(Self::from_back_edges(cfg, &backs))
    }

    /// Builds the forest from an explicit back-edge list (natural loops
    /// with identical headers are merged).
    ///
    /// Linear in the total member count: the natural-loop walks share one
    /// stamp array, so no loop costs time in the size of the graph.
    pub fn from_back_edges(cfg: &Cfg, backs: &[(NodeId, NodeId)]) -> LoopForest {
        const NONE: u32 = u32::MAX;
        let n = cfg.num_nodes();
        // Back-edge tails grouped by header, headers in first-appearance
        // order.
        let mut body_of = vec![NONE; n];
        let mut bodies: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        for &(tail, header) in backs {
            let slot = &mut body_of[header.index()];
            if *slot == NONE {
                *slot = bodies.len() as u32;
                bodies.push((header, Vec::new()));
            }
            bodies[*slot as usize].1.push(tail);
        }
        // Natural loop: nodes that reach a tail without passing the
        // header. `stamp[x] == b` marks `x` as a member of body `b`.
        let mut stamp = vec![NONE; n];
        let mut stack = Vec::new();
        let mut loops: Vec<LoopInfo> = bodies
            .into_iter()
            .enumerate()
            .map(|(b, (header, tails))| {
                let mut members = Vec::new();
                stack.extend(tails);
                while let Some(x) = stack.pop() {
                    if x == header || stamp[x.index()] == b as u32 {
                        continue;
                    }
                    stamp[x.index()] = b as u32;
                    members.push(x);
                    stack.extend_from_slice(cfg.preds(x));
                }
                members.sort_unstable();
                LoopInfo {
                    header,
                    members,
                    parent: None,
                    depth: 0,
                }
            })
            .collect();
        // Sort by body size so parents (larger) come later; assign ids in
        // ascending size so an inner loop has a smaller member count.
        loops.sort_by_key(|l| l.members.len());
        let mut forest = Self::from_parts(loops, n);
        // Parent: the first loop in sorted order listing the header as a
        // member, i.e. the header's innermost loop. In a reducible graph
        // that loop is strictly larger, so it comes later, and walking
        // outer-to-inner sees each parent's depth first.
        for i in (0..forest.loops.len()).rev() {
            let parent = forest.innermost[forest.loops[i].header.index()];
            debug_assert!(
                parent.is_none_or(|p| p.index() > i),
                "loop {i} nests in a smaller loop"
            );
            forest.loops[i].parent = parent;
            forest.loops[i].depth = parent.map_or(1, |p| forest.loops[p.index()].depth + 1);
        }
        forest
    }

    /// All loops, inner-to-outer (ids are valid indices).
    pub fn loops(&self) -> &[LoopInfo] {
        &self.loops
    }

    /// The loop headed by `n`, if `n` is a loop header.
    pub fn loop_headed_by(&self, n: NodeId) -> Option<LoopId> {
        self.headed[n.index()]
    }

    /// The innermost loop of which `n` is a member (headers are members of
    /// their *enclosing* loops only).
    pub fn innermost(&self, n: NodeId) -> Option<LoopId> {
        self.innermost[n.index()]
    }

    /// `true` if `n` is a member of loop `l` (members exclude the header).
    pub fn is_member(&self, l: LoopId, n: NodeId) -> bool {
        self.chain(n).any(|c| c == l)
    }

    /// The loops having `n` as a member, innermost first.
    pub(crate) fn chain(&self, n: NodeId) -> impl Iterator<Item = LoopId> + '_ {
        std::iter::successors(self.innermost(n), |l| self.loops[l.index()].parent)
    }

    fn ensure_node(&mut self, n: NodeId) {
        if n.index() >= self.innermost.len() {
            self.innermost.resize(n.index() + 1, None);
            self.headed.resize(n.index() + 1, None);
        }
    }

    /// Registers a freshly created node as a member of loop `l` (and,
    /// transitively, of every enclosing loop). Used by normalization when
    /// it inserts synthetic nodes.
    pub(crate) fn adopt_into(&mut self, l: LoopId, n: NodeId) {
        self.ensure_node(n);
        self.innermost[n.index()] = Some(l);
        let mut cur = Some(l);
        while let Some(c) = cur {
            self.loops[c.index()].members.push(n);
            cur = self.loops[c.index()].parent;
        }
    }

    /// Registers a freshly created node that belongs to no loop.
    pub(crate) fn adopt_outside(&mut self, n: NodeId) {
        self.ensure_node(n);
        self.innermost[n.index()] = None;
    }

    /// Reassembles a forest from explicit loop records over `num_nodes`
    /// nodes. `loops` must be sorted inner-to-outer (members of an inner
    /// loop are a subset of its ancestors'), with `parent`/`depth` already
    /// consistent.
    pub fn from_parts(loops: Vec<LoopInfo>, num_nodes: usize) -> LoopForest {
        let mut innermost = vec![None; num_nodes];
        let mut headed = vec![None; num_nodes];
        for (i, l) in loops.iter().enumerate() {
            headed[l.header.index()] = Some(LoopId(i as u32));
            for &m in &l.members {
                if innermost[m.index()].is_none() {
                    innermost[m.index()] = Some(LoopId(i as u32));
                }
            }
        }
        LoopForest {
            loops,
            innermost,
            headed,
        }
    }
}

/// Splits nodes until `cfg` is reducible (identity on reducible graphs).
///
/// Each round finds an irreducible retreating edge `(m, n)` and peels a
/// copy of `n` for that edge, preserving semantics (the copy has the same
/// [`NodeKind`](crate::NodeKind) and successors). Returns the number of
/// nodes added.
///
/// # Errors
///
/// Returns [`IrreducibleError`] if the graph is still irreducible after
/// `max_splits` rounds (node splitting can blow up exponentially; callers
/// choose the budget).
pub fn make_reducible(cfg: &mut Cfg, max_splits: usize) -> Result<usize, IrreducibleError> {
    let mut added = 0;
    loop {
        let dom = Dominators::compute(cfg);
        let Err(err) = back_edges(cfg, &dom) else {
            return Ok(added);
        };
        if added >= max_splits {
            return Err(err);
        }
        let (m, n) = err.edges[0];
        let copy = cfg.add_node(cfg.kind(n));
        for &s in cfg.succs(n).to_vec().iter() {
            cfg.add_edge(copy, s);
        }
        cfg.remove_edge(m, n);
        cfg.add_edge(m, copy);
        added += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{NodeKind, SynthKind};
    use gnt_ir::parse;

    fn synth(cfg: &mut Cfg) -> NodeId {
        cfg.add_node(NodeKind::Synthetic(SynthKind::EdgeSplit))
    }

    /// entry → a → b → exit plus back edge b → a.
    fn simple_loop() -> (Cfg, NodeId, NodeId) {
        let mut cfg = Cfg::new();
        let a = synth(&mut cfg);
        let b = synth(&mut cfg);
        cfg.add_edge(cfg.entry(), a);
        cfg.add_edge(a, b);
        cfg.add_edge(b, a);
        cfg.add_edge(a, cfg.exit());
        (cfg, a, b)
    }

    #[test]
    fn idom_on_diamond() {
        let mut cfg = Cfg::new();
        let t = synth(&mut cfg);
        let e = synth(&mut cfg);
        let j = synth(&mut cfg);
        cfg.add_edge(cfg.entry(), t);
        cfg.add_edge(cfg.entry(), e);
        cfg.add_edge(t, j);
        cfg.add_edge(e, j);
        cfg.add_edge(j, cfg.exit());
        let dom = Dominators::compute(&cfg);
        assert_eq!(dom.idom(j), Some(cfg.entry()));
        assert!(dom.dominates(cfg.entry(), j));
        assert!(!dom.dominates(t, j));
    }

    #[test]
    fn back_edge_detected_in_simple_loop() {
        let (cfg, a, b) = simple_loop();
        let dom = Dominators::compute(&cfg);
        let backs = back_edges(&cfg, &dom).unwrap();
        assert_eq!(backs, vec![(b, a)]);
    }

    #[test]
    fn loop_forest_members_exclude_header() {
        let (cfg, a, b) = simple_loop();
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::compute(&cfg, &dom).unwrap();
        let l = forest.loop_headed_by(a).unwrap();
        assert_eq!(forest.loops()[l.index()].members, vec![b]);
        assert!(forest.is_member(l, b));
        assert!(!forest.is_member(l, a));
        assert_eq!(forest.innermost(b), Some(l));
        assert_eq!(forest.innermost(a), None);
    }

    #[test]
    fn nested_loops_have_parents() {
        let l = crate::lower(
            &parse("do i = 1, N\n  do j = 1, M\n    x(j) = 1\n  enddo\nenddo").unwrap(),
        )
        .unwrap();
        let dom = Dominators::compute(&l.cfg);
        let forest = LoopForest::compute(&l.cfg, &dom).unwrap();
        assert_eq!(forest.loops().len(), 2);
        let inner = forest
            .loops()
            .iter()
            .position(|li| li.depth == 2)
            .expect("an inner loop");
        assert!(forest.loops()[inner].parent.is_some());
        // Inner header is a member of the outer loop.
        let outer = forest.loops()[inner].parent.unwrap();
        assert!(forest.is_member(outer, forest.loops()[inner].header));
    }

    #[test]
    fn irreducible_graph_is_rejected() {
        // entry → a, entry → b, a → b, b → a (two-entry cycle), a → exit.
        let mut cfg = Cfg::new();
        let a = synth(&mut cfg);
        let b = synth(&mut cfg);
        cfg.add_edge(cfg.entry(), a);
        cfg.add_edge(cfg.entry(), b);
        cfg.add_edge(a, b);
        cfg.add_edge(b, a);
        cfg.add_edge(a, cfg.exit());
        let dom = Dominators::compute(&cfg);
        let err = back_edges(&cfg, &dom).unwrap_err();
        assert!(!err.edges.is_empty());
        assert!(err.to_string().contains("irreducible"));
    }

    #[test]
    fn make_reducible_fixes_two_entry_cycle() {
        let mut cfg = Cfg::new();
        let a = synth(&mut cfg);
        let b = synth(&mut cfg);
        cfg.add_edge(cfg.entry(), a);
        cfg.add_edge(cfg.entry(), b);
        cfg.add_edge(a, b);
        cfg.add_edge(b, a);
        cfg.add_edge(a, cfg.exit());
        let added = make_reducible(&mut cfg, 16).unwrap();
        assert!(added >= 1);
        let dom = Dominators::compute(&cfg);
        assert!(back_edges(&cfg, &dom).is_ok());
    }

    #[test]
    fn make_reducible_is_identity_on_reducible_graphs() {
        let (mut cfg, _, _) = simple_loop();
        let before = cfg.num_nodes();
        assert_eq!(make_reducible(&mut cfg, 16).unwrap(), 0);
        assert_eq!(cfg.num_nodes(), before);
    }

    #[test]
    fn goto_between_sibling_loops_is_irreducible() {
        // A goto from inside one loop into another loop's body.
        let p = parse(
            "do i = 1, N\n  if t(i) goto 5\n  a = 1\nenddo\n\
             do j = 1, N\n  5 b = 2\nenddo",
        )
        .unwrap();
        let l = crate::lower(&p).unwrap();
        let dom = Dominators::compute(&l.cfg);
        assert!(back_edges(&l.cfg, &dom).is_err());
    }
}
