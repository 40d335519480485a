//! Lowering MiniF programs to control flow graphs.
//!
//! One CFG node is created per statement — the granularity of the paper's
//! Figure 12 — plus the shared entry (ROOT) and exit nodes. `do` loops
//! lower to a header node with a back edge from the end of the body;
//! `if/else` lowers to a branch node with two arms; `goto` edges are
//! patched once all targets are known.

use crate::graph::{node_id, Cfg, NodeId, NodeKind, SynthKind};
use crate::scratch::{CfgScratch, CfgScratchPool};
use gnt_ir::{Label, Program, StmtId, StmtKind};
use std::collections::HashMap;
use std::fmt;

/// An error produced while lowering a program to a CFG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A `goto` targets a label no statement carries (possible for
    /// programs assembled through the builder API, which skips the
    /// parser's validation).
    UnknownLabel(Label),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownLabel(l) => write!(f, "goto references unknown label {l}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// The result of lowering: the graph plus statement↔node correspondence.
#[derive(Clone, Debug)]
pub struct LoweredCfg {
    /// The control flow graph.
    pub cfg: Cfg,
    /// The primary node created for each reachable statement.
    pub node_of_stmt: HashMap<StmtId, NodeId>,
}

impl LoweredCfg {
    /// The node lowered from `stmt`, if the statement was reachable.
    pub fn node(&self, stmt: StmtId) -> Option<NodeId> {
        self.node_of_stmt.get(&stmt).copied()
    }
}

/// Lowers `program` to a [`Cfg`], pruning statically unreachable code
/// (e.g. statements following an unconditional `goto`).
///
/// # Errors
///
/// Returns [`BuildError::UnknownLabel`] if a `goto` target does not exist.
///
/// # Examples
///
/// ```
/// let p = gnt_ir::parse("do i = 1, N\n  y(i) = ...\nenddo")?;
/// let lowered = gnt_cfg::lower(&p)?;
/// // entry, exit, loop header, body statement
/// assert_eq!(lowered.cfg.num_nodes(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn lower(program: &Program) -> Result<LoweredCfg, BuildError> {
    let mut scratch = CfgScratchPool::global().checkout();
    lower_with(program, &mut scratch)
}

/// [`lower`] with caller-provided scratch buffers; the pooled entry
/// points route through here.
///
/// The walk records each node's kind, each statement's node and every
/// edge in the order it is found; [`Cfg::from_edges`] then groups the
/// edges by source into the flat tables at once. Pruning rebuilds them,
/// and renumbers `node_of_stmt`, only when some node is unreachable.
pub(crate) fn lower_with(
    program: &Program,
    scratch: &mut CfgScratch,
) -> Result<LoweredCfg, BuildError> {
    let CfgScratch {
        edges,
        ends,
        label_node,
        pending_gotos,
        ..
    } = scratch;
    edges.clear();
    ends.clear();
    label_node.clear();
    pending_gotos.clear();
    let mut b = Builder {
        program,
        kinds: vec![NodeKind::Entry, NodeKind::Exit],
        node_of_stmt: HashMap::with_capacity(program.num_stmts()),
        edges,
        ends,
        label_node,
        pending_gotos,
    };
    b.ends.push(ENTRY);
    b.seq(program.body(), 0);
    for &e in b.ends.iter() {
        b.edges.push((e, EXIT));
    }
    for &(src, label) in b.pending_gotos.iter() {
        let Some(&dst) = b.label_node.get(&label) else {
            return Err(BuildError::UnknownLabel(label));
        };
        b.edges.push((src, dst));
    }
    let mut cfg = Cfg::from_edges(b.kinds, (ENTRY, EXIT), b.edges);
    let mut node_of_stmt = b.node_of_stmt;
    if let Some(remap) = cfg.prune() {
        node_of_stmt.retain(|_, n| match remap[n.index()] {
            Some(kept) => {
                *n = kept;
                true
            }
            None => false,
        });
    }
    Ok(LoweredCfg { cfg, node_of_stmt })
}

/// The entry and exit nodes, created first.
const ENTRY: NodeId = NodeId(0);
const EXIT: NodeId = NodeId(1);

struct Builder<'a> {
    program: &'a Program,
    kinds: Vec<NodeKind>,
    node_of_stmt: HashMap<StmtId, NodeId>,
    edges: &'a mut Vec<(NodeId, NodeId)>,
    /// A stack of dangling ends: a sequence lowered from `base` finds its
    /// predecessors in `ends[base..]` and leaves its own ends there.
    ends: &'a mut Vec<NodeId>,
    label_node: &'a mut HashMap<Label, NodeId>,
    pending_gotos: &'a mut Vec<(NodeId, Label)>,
}

impl Builder<'_> {
    /// Lowers a statement sequence entered from the ends `ends[base..]`,
    /// replacing them with the dangling ends that fall through to
    /// whatever follows.
    fn seq(&mut self, stmts: &[StmtId], base: usize) {
        for &sid in stmts {
            self.stmt(sid, base);
        }
    }

    /// A fresh node lowered from `sid`, entered from the ends
    /// `ends[base..]`; it becomes the only end.
    fn enter(&mut self, sid: StmtId, kind: NodeKind, base: usize) -> NodeId {
        let node = node_id(self.kinds.len());
        self.kinds.push(kind);
        self.node_of_stmt.insert(sid, node);
        if let Some(label) = self.program.stmt(sid).label {
            self.label_node.insert(label, node);
        }
        self.edges
            .extend(self.ends[base..].iter().map(|&p| (p, node)));
        self.ends.truncate(base);
        self.ends.push(node);
        node
    }

    fn stmt(&mut self, sid: StmtId, base: usize) {
        match &self.program.stmt(sid).kind {
            StmtKind::Assign { .. } | StmtKind::Continue => {
                self.enter(sid, NodeKind::Stmt(sid), base);
            }
            StmtKind::Do { body, .. } => {
                let h = self.enter(sid, NodeKind::LoopHeader(sid), base);
                self.seq(body, base);
                if self.ends[base..] == [h] {
                    // Empty loop body: a self edge h → h would make the
                    // header a member of its own interval; give the loop a
                    // body node instead.
                    let c = node_id(self.kinds.len());
                    self.kinds.push(NodeKind::Synthetic(SynthKind::Latch));
                    self.edges.extend([(h, c), (c, h)]);
                } else {
                    self.edges.extend(self.ends[base..].iter().map(|&e| (e, h)));
                }
                self.ends.truncate(base);
                self.ends.push(h);
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                let b = self.enter(sid, NodeKind::Branch(sid), base);
                // The then-arm's ends replace `[b]`; the else-arm's follow.
                if !then_body.is_empty() {
                    self.seq(then_body, base);
                }
                if else_body.is_empty() {
                    if !self.ends[base..].contains(&b) {
                        self.ends.push(b);
                    }
                } else {
                    let arm = self.ends.len();
                    self.ends.push(b);
                    self.seq(else_body, arm);
                }
            }
            StmtKind::IfGoto { target, .. } => {
                let b = self.enter(sid, NodeKind::Branch(sid), base);
                self.pending_gotos.push((b, *target));
            }
            StmtKind::Goto(target) => {
                let g = self.enter(sid, NodeKind::Stmt(sid), base);
                self.pending_gotos.push((g, *target));
                self.ends.truncate(base);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnt_ir::parse;

    fn lower_src(src: &str) -> LoweredCfg {
        lower(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn straight_line_chains_nodes() {
        let l = lower_src("a = 1\nb = 2");
        // entry, exit, 2 statements
        assert_eq!(l.cfg.num_nodes(), 4);
        assert_eq!(l.cfg.succs(l.cfg.entry()).len(), 1);
        assert_eq!(l.cfg.preds(l.cfg.exit()).len(), 1);
    }

    #[test]
    fn do_loop_gets_header_with_back_edge() {
        let l = lower_src("do i = 1, N\n  y(i) = ...\nenddo");
        let header = l
            .cfg
            .nodes()
            .find(|&n| matches!(l.cfg.kind(n), NodeKind::LoopHeader(_)))
            .unwrap();
        // Header succs: body and exit; body's succ is the header again.
        assert_eq!(l.cfg.succs(header).len(), 2);
        let body = l
            .cfg
            .succs(header)
            .iter()
            .copied()
            .find(|&n| matches!(l.cfg.kind(n), NodeKind::Stmt(_)))
            .unwrap();
        assert_eq!(l.cfg.succs(body), &[header]);
    }

    #[test]
    fn empty_do_loop_gets_synthetic_body() {
        let l = lower_src("do i = 1, N\nenddo");
        let synth = l
            .cfg
            .nodes()
            .filter(|&n| l.cfg.kind(n).is_synthetic())
            .count();
        assert_eq!(synth, 1);
    }

    #[test]
    fn if_without_else_falls_through_branch() {
        let l = lower_src("if test then\n  a = 1\nendif\nb = 2");
        let branch = l
            .cfg
            .nodes()
            .find(|&n| matches!(l.cfg.kind(n), NodeKind::Branch(_)))
            .unwrap();
        assert_eq!(l.cfg.succs(branch).len(), 2);
        let after = l
            .cfg
            .nodes()
            .find(|&n| matches!(l.cfg.kind(n), NodeKind::Stmt(_)) && l.cfg.preds(n).len() == 2)
            .unwrap();
        assert!(l.cfg.preds(after).contains(&branch));
    }

    #[test]
    fn goto_out_of_loop_creates_jump_edge() {
        let l = lower_src("do i = 1, N\n  if test(i) goto 77\n  a = 1\nenddo\n77 continue");
        let branch = l
            .cfg
            .nodes()
            .find(|&n| matches!(l.cfg.kind(n), NodeKind::Branch(_)))
            .unwrap();
        // branch succs: fallthrough (a = 1) and the labeled continue
        assert_eq!(l.cfg.succs(branch).len(), 2);
    }

    #[test]
    fn code_after_goto_is_pruned() {
        let l = lower_src("goto 9\na = 1\n9 continue");
        // entry, exit, goto node, labeled continue; `a = 1` is unreachable
        assert_eq!(l.cfg.num_nodes(), 4);
        let stmt_nodes = l
            .cfg
            .nodes()
            .filter(|&n| matches!(l.cfg.kind(n), NodeKind::Stmt(_)))
            .count();
        assert_eq!(stmt_nodes, 2);
    }

    #[test]
    fn a_goto_to_its_own_fall_through_is_one_edge() {
        // The branch falls through to label 5 and jumps there too; the
        // unreachable `b = 1` is pruned, which renumbers the nodes.
        let l = lower_src("if t goto 5\n5 continue\ngoto 9\nb = 1\n9 continue");
        let branch = l
            .cfg
            .nodes()
            .find(|&n| matches!(l.cfg.kind(n), NodeKind::Branch(_)))
            .unwrap();
        let [target] = l.cfg.succs(branch) else {
            panic!("branch successors {:?}", l.cfg.succs(branch));
        };
        assert_eq!(l.cfg.preds(*target), &[branch]);
        // entry, exit, branch, two `continue`s, the `goto`
        assert_eq!(l.cfg.num_nodes(), 6);
        assert_eq!(l.cfg.num_edges(), 5);
        for n in l.cfg.nodes() {
            for &s in l.cfg.succs(n) {
                assert!(l.cfg.preds(s).contains(&n));
            }
        }
        assert_eq!(l.node_of_stmt.len(), 4);
    }

    #[test]
    fn node_of_stmt_maps_reachable_statements() {
        let p = parse("a = 1\nb = 2").unwrap();
        let l = lower(&p).unwrap();
        for &sid in p.body() {
            assert!(l.node(sid).is_some());
        }
    }

    #[test]
    fn unknown_label_from_builder_is_an_error() {
        use gnt_ir::{Expr, ProgramBuilder};
        let p = ProgramBuilder::new("bad")
            .do_loop("i", Expr::Const(1), Expr::var("N"), |b| {
                b.if_goto(Expr::var("t"), 99);
            })
            .build();
        assert_eq!(lower(&p).unwrap_err(), BuildError::UnknownLabel(Label(99)));
    }

    #[test]
    fn nested_loops_nest_back_edges() {
        let l = lower_src("do i = 1, N\n  do j = 1, M\n    x(j) = 1\n  enddo\nenddo");
        let headers: Vec<_> = l
            .cfg
            .nodes()
            .filter(|&n| matches!(l.cfg.kind(n), NodeKind::LoopHeader(_)))
            .collect();
        assert_eq!(headers.len(), 2);
    }
}
