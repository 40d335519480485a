//! Lowering MiniF programs to control flow graphs.
//!
//! One CFG node is created per statement — the granularity of the paper's
//! Figure 12 — plus the shared entry (ROOT) and exit nodes. `do` loops
//! lower to a header node with a back edge from the end of the body;
//! `if/else` lowers to a branch node with two arms; `goto` edges are
//! patched once all targets are known.

use crate::graph::{Cfg, NodeId, NodeKind, SynthKind};
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
pub(crate) fn lower_with(
    program: &Program,
    scratch: &mut CfgScratch,
) -> Result<LoweredCfg, BuildError> {
    scratch.label_node.clear();
    scratch.pending_gotos.clear();
    let mut b = Builder {
        program,
        cfg: Cfg::new(),
        node_of_stmt: HashMap::new(),
        label_node: &mut scratch.label_node,
        pending_gotos: &mut scratch.pending_gotos,
    };
    let entry = b.cfg.entry();
    let ends = b.seq(program.body(), vec![entry]);
    let exit = b.cfg.exit();
    for e in ends {
        b.cfg.add_edge(e, exit);
    }
    for &(src, label) in b.pending_gotos.iter() {
        let Some(&dst) = b.label_node.get(&label) else {
            return Err(BuildError::UnknownLabel(label));
        };
        b.cfg.add_edge(src, dst);
    }
    let mut cfg = b.cfg;
    let remap = cfg.prune_unreachable();
    let node_of_stmt = b
        .node_of_stmt
        .into_iter()
        .filter_map(|(s, n)| remap[n.index()].map(|n2| (s, n2)))
        .collect();
    Ok(LoweredCfg { cfg, node_of_stmt })
}

struct Builder<'a> {
    program: &'a Program,
    cfg: Cfg,
    node_of_stmt: HashMap<StmtId, NodeId>,
    label_node: &'a mut HashMap<Label, NodeId>,
    pending_gotos: &'a mut Vec<(NodeId, Label)>,
}

impl Builder<'_> {
    /// Lowers a statement sequence entered from `preds`; returns the
    /// dangling ends that fall through to whatever follows.
    fn seq(&mut self, stmts: &[StmtId], mut preds: Vec<NodeId>) -> Vec<NodeId> {
        for &sid in stmts {
            preds = self.stmt(sid, preds);
        }
        preds
    }

    fn register(&mut self, sid: StmtId, node: NodeId) {
        self.node_of_stmt.insert(sid, node);
        if let Some(label) = self.program.stmt(sid).label {
            self.label_node.insert(label, node);
        }
    }

    fn connect(&mut self, preds: &[NodeId], node: NodeId) {
        for &p in preds {
            self.cfg.add_edge(p, node);
        }
    }

    fn stmt(&mut self, sid: StmtId, preds: Vec<NodeId>) -> Vec<NodeId> {
        match &self.program.stmt(sid).kind {
            StmtKind::Assign { .. } | StmtKind::Continue => {
                let n = self.cfg.add_node(NodeKind::Stmt(sid));
                self.register(sid, n);
                self.connect(&preds, n);
                vec![n]
            }
            StmtKind::Do { body, .. } => {
                let h = self.cfg.add_node(NodeKind::LoopHeader(sid));
                self.register(sid, h);
                self.connect(&preds, h);
                let body_ends = self.seq(body, vec![h]);
                if body_ends == [h] {
                    // Empty loop body: a self edge h → h would make the
                    // header a member of its own interval; give the loop a
                    // body node instead.
                    let c = self.cfg.add_node(NodeKind::Synthetic(SynthKind::Latch));
                    self.cfg.add_edge(h, c);
                    self.cfg.add_edge(c, h);
                } else {
                    for e in body_ends {
                        self.cfg.add_edge(e, h);
                    }
                }
                vec![h]
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                let b = self.cfg.add_node(NodeKind::Branch(sid));
                self.register(sid, b);
                self.connect(&preds, b);
                let mut ends = Vec::new();
                if then_body.is_empty() {
                    ends.push(b);
                } else {
                    ends.extend(self.seq(then_body, vec![b]));
                }
                if else_body.is_empty() {
                    if !ends.contains(&b) {
                        ends.push(b);
                    }
                } else {
                    ends.extend(self.seq(else_body, vec![b]));
                }
                ends
            }
            StmtKind::IfGoto { target, .. } => {
                let b = self.cfg.add_node(NodeKind::Branch(sid));
                self.register(sid, b);
                self.connect(&preds, b);
                self.pending_gotos.push((b, *target));
                vec![b]
            }
            StmtKind::Goto(target) => {
                let g = self.cfg.add_node(NodeKind::Stmt(sid));
                self.register(sid, g);
                self.connect(&preds, g);
                self.pending_gotos.push((g, *target));
                Vec::new()
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
