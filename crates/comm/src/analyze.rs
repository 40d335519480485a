//! From a MiniF program to GIVE-N-TAKE placement problems (§3.1).
//!
//! The READ problem (BEFORE): every reference to a distributed array
//! consumes its (vectorized) section; definitions of overlapping portions
//! destroy it; without strict owner-computes, a local definition produces
//! its own section "for free". The WRITE problem (AFTER): every
//! definition of a distributed array consumes a write-back; later reads
//! of overlapping portions (which would re-communicate stale owner data)
//! and definitions of indirection arrays act as destroyers.

use gnt_cfg::{lower, IntervalGraph, LoweredCfg, NodeId};
use gnt_core::PlacementProblem;
use gnt_dataflow::{BitSet, ItemId, Universe};
use gnt_ir::{Expr, LValue, Program, StmtId, StmtKind, Symbol};
use gnt_sections::{normalize_ref, DataRef, LoopContext};
use std::collections::HashMap;
use std::time::Instant;

/// Which arrays are distributed and how definitions behave.
#[derive(Clone, Debug, Default)]
pub struct CommConfig {
    /// Arrays whose non-owned accesses require communication.
    pub distributed: Vec<String>,
    /// With strict owner-computes (`true`), local definitions do not make
    /// data locally available for later reads (§2, [CK88]). The paper's
    /// examples use `false`.
    pub strict_owner_computes: bool,
}

impl CommConfig {
    /// Marks `arrays` as distributed, non-strict owner computes.
    pub fn distributed(arrays: &[&str]) -> CommConfig {
        CommConfig {
            distributed: arrays.iter().map(|s| s.to_string()).collect(),
            strict_owner_computes: false,
        }
    }
}

/// Per-statement access summary collected in the first pass.
#[derive(Clone, Debug, Default)]
pub(crate) struct Accesses {
    pub(crate) reads: Vec<ItemId>,
    pub(crate) defs: Vec<ItemId>,
    /// Accumulating definitions `x(e) = x(e) ⊕ …`: the self-reference
    /// read that is elided if the item is communicated as a reduction.
    pub(crate) acc_reads: Vec<ItemId>,
    /// The reduction operator of each accumulating definition, keyed by
    /// item.
    pub(crate) acc_ops: Vec<(ItemId, gnt_ir::BinOp)>,
    /// Names of scalars/arrays (re)defined by the statement that are not
    /// distributed (candidate indirection or bound variables).
    pub(crate) local_defs: Vec<Symbol>,
}

impl Accesses {
    /// `true` if the statement touches no item and redefines no local
    /// name, so it adds nothing to either problem.
    fn is_empty(&self) -> bool {
        self.reads.is_empty()
            && self.defs.is_empty()
            && self.acc_reads.is_empty()
            && self.local_defs.is_empty()
    }
}

/// The communication analysis: graph, universe of array portions, and the
/// two placement problems.
#[derive(Clone, Debug)]
pub struct CommAnalysis {
    /// The interval flow graph of the program.
    pub graph: IntervalGraph,
    /// Statement → node correspondence.
    pub node_of_stmt: HashMap<StmtId, NodeId>,
    /// The dataflow universe: canonical array portions.
    pub universe: Universe<DataRef>,
    /// The READ problem (BEFORE).
    pub read_problem: PlacementProblem,
    /// The WRITE problem (AFTER).
    pub write_problem: PlacementProblem,
    /// Items whose every definition is an accumulation `x(e) = x(e) ⊕ …`
    /// with one operator: their write-backs are communicated as
    /// reductions and the self-reference reads are elided (§6 of the
    /// paper: "WRITEs combined with different reduction operations").
    pub reductions: HashMap<ItemId, gnt_ir::BinOp>,
    /// The overlap relation of the universe, one row per item: row `i`
    /// holds every item `j` with `item_i.may_overlap(item_j)`. Built once
    /// per universe; the initial variables and the plan's phase coupling
    /// both read it.
    pub overlaps: Vec<BitSet>,
}

/// What pass 1 collects from the program: the universe, each statement's
/// accesses, and the reduction items.
pub(crate) struct Collected {
    pub(crate) universe: Universe<DataRef>,
    /// One entry per statement of the program, indexed by
    /// [`StmtId::index`]; statements without accesses keep an empty one.
    pub(crate) accesses: Vec<Accesses>,
    pub(crate) reductions: HashMap<ItemId, gnt_ir::BinOp>,
}

/// Analyzes `program` under `config`.
///
/// # Errors
///
/// Fails when the program cannot be lowered to a reducible interval flow
/// graph.
///
/// # Examples
///
/// ```
/// use gnt_comm::{analyze, CommConfig};
///
/// let p = gnt_ir::parse("do k = 1, N\n  ... = x(a(k))\nenddo")?;
/// let analysis = analyze(&p, &CommConfig::distributed(&["x"]))?;
/// assert_eq!(analysis.universe.len(), 1); // the gather x(a(1:N))
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn analyze(
    program: &Program,
    config: &CommConfig,
) -> Result<CommAnalysis, Box<dyn std::error::Error>> {
    analyze_timed(program, config).map(|(analysis, _)| analysis)
}

/// [`analyze`], also returning the wall-clock nanoseconds its first stage
/// took: lowering to a CFG and building the interval graph. The rest is
/// the communication analysis proper (accesses and initial variables).
///
/// # Errors
///
/// As [`analyze`].
pub fn analyze_timed(
    program: &Program,
    config: &CommConfig,
) -> Result<(CommAnalysis, u64), Box<dyn std::error::Error>> {
    let start = Instant::now();
    let LoweredCfg { cfg, node_of_stmt } = lower(program)?;
    let graph = IntervalGraph::from_cfg(cfg)?;
    let graph_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let Collected {
        universe,
        accesses,
        reductions,
    } = collect_accesses(program, config);

    // Pass 2: initial variables over the full universe, from one overlap
    // row per item and one invalidation row per redefined local name,
    // each built once and OR-ed into every statement that needs it.
    let n = graph.num_nodes();
    let cap = universe.len();
    let mut read_problem = PlacementProblem::new(n, cap);
    let mut write_problem = PlacementProblem::new(n, cap);
    let row_of = |hit: &dyn Fn(&DataRef) -> bool| {
        let mut row = BitSet::new(cap);
        for (j, other) in universe.iter() {
            if hit(other) {
                row.insert(j.index());
            }
        }
        row
    };
    let overlaps: Vec<BitSet> = universe
        .iter()
        .map(|(_, r)| row_of(&|other| r.may_overlap(other)))
        .collect();
    let mut invalidations: HashMap<Symbol, BitSet> = HashMap::new();
    let mut is_reduction = BitSet::new(cap);
    for item in reductions.keys() {
        is_reduction.insert(item.index());
    }
    // Each statement's node, by statement index; `None` for statements
    // lowering pruned as unreachable.
    let mut node_at: Vec<Option<NodeId>> = vec![None; accesses.len()];
    for (sid, &node) in &node_of_stmt {
        if let Some(slot) = node_at.get_mut(sid.index()) {
            *slot = Some(node);
        }
    }

    for (acc, &node) in accesses.iter().zip(&node_at) {
        let Some(node) = node.filter(|_| !acc.is_empty()) else {
            continue; // no accesses, or an unreachable statement
        };
        let i = node.index();
        // A self-reference read of a reduction item is elided (the owner
        // combines contributions); otherwise it is an ordinary read.
        let effective_reads = acc.reads.iter().chain(
            acc.acc_reads
                .iter()
                .filter(|i| !is_reduction.contains(i.index())),
        );
        for &item in effective_reads {
            read_problem.take(node, item.index());
            // A read of a portion overlapping a pending write-back forces
            // the WRITE to complete first (Figure 3).
            write_problem.steal_init[i].union_with(&overlaps[item.index()]);
        }
        for &item in &acc.defs {
            // The definition demands a write-back…
            write_problem.take(node, item.index());
            // …destroys cached copies of the *other* portions it overlaps
            // (both for later reads and for pending write-backs of other
            // portions)…
            let row = &overlaps[item.index()];
            union_except(&mut read_problem.steal_init[i], row, item.index());
            union_except(&mut write_problem.steal_init[i], row, item.index());
            // …and, without strict owner-computes, produces its own
            // portion for free (§3.1). A reduction contribution is only a
            // *partial* value: it gives nothing, and it invalidates any
            // previously fetched copy of its own portion.
            if is_reduction.contains(item.index()) {
                read_problem.steal(node, item.index());
            } else if !config.strict_owner_computes {
                read_problem.give(node, item.index());
            }
        }
        for &name in &acc.local_defs {
            // Redefining an indirection array or a bound variable voids
            // every portion whose meaning depends on it (§4.1).
            let row = invalidations
                .entry(name)
                .or_insert_with(|| row_of(&|other| invalidated_by(other, name)));
            read_problem.steal_init[i].union_with(row);
            write_problem.steal_init[i].union_with(row);
        }
    }

    let analysis = CommAnalysis {
        graph,
        node_of_stmt,
        universe,
        read_problem,
        write_problem,
        reductions,
        overlaps,
    };
    Ok((analysis, graph_ns))
}

/// `dst ∪= row − {skip}`: `skip`'s own bit of `row` is not added, nor is
/// one `dst` already holds removed.
fn union_except(dst: &mut BitSet, row: &BitSet, skip: usize) {
    let skip_word = skip / 64;
    for (k, (d, &r)) in dst.words_mut().iter_mut().zip(row.words()).enumerate() {
        *d |= if k == skip_word {
            r & !(1 << (skip % 64))
        } else {
            r
        };
    }
}

/// Whether redefining the local `name` voids portion `r`: `r` is a
/// gather through index array `name`, or a section with `name` in a
/// bound.
fn invalidated_by(r: &DataRef, name: Symbol) -> bool {
    r.depends_on_index_array(name)
        || match r {
            DataRef::Section { range, .. } => {
                range.lo.coeff(name) != 0 || range.hi.coeff(name) != 0
            }
            _ => false,
        }
}

/// Pass 1: canonical accesses per statement, then the reduction items.
pub(crate) fn collect_accesses(program: &Program, config: &CommConfig) -> Collected {
    let mut universe = Universe::new();
    let mut accesses = vec![Accesses::default(); program.num_stmts()];
    let mut ctx = LoopContext::new();
    // The distributed arrays as symbols, resolved once, so that testing
    // a reference is an id compare and takes no symbol-table lock. A
    // name that was never interned names no array of the program.
    let table = gnt_ir::SymbolTable::global();
    let distributed: Vec<Symbol> = config
        .distributed
        .iter()
        .filter_map(|a| table.get(a))
        .collect();
    collect(
        program,
        program.body(),
        &distributed,
        &mut ctx,
        &mut universe,
        &mut accesses,
    );

    // An item is a reduction iff every definition of it accumulates with
    // one operator; mixed items fall back to ordinary READ+WRITE.
    let mut reductions: HashMap<ItemId, gnt_ir::BinOp> = HashMap::new();
    let mut disqualified: Vec<ItemId> = Vec::new();
    for acc in &accesses {
        for &(item, op) in &acc.acc_ops {
            match reductions.get(&item) {
                None => {
                    reductions.insert(item, op);
                }
                Some(&prev) if prev == op => {}
                Some(_) => disqualified.push(item),
            }
        }
        for &d in &acc.defs {
            if !acc.acc_ops.iter().any(|&(i, _)| i == d) {
                disqualified.push(d); // plain definition of the same item
            }
        }
    }
    for d in disqualified {
        reductions.remove(&d);
    }
    Collected {
        universe,
        accesses,
        reductions,
    }
}

/// If `rhs` is `name(idx) ⊕ rest` or `rest ⊕ name(idx)` for a commutative
/// operator, returns the operator.
fn accumulation_op(name: Symbol, idx: &Expr, rhs: &Expr) -> Option<gnt_ir::BinOp> {
    let Expr::Bin(op, l, r) = rhs else {
        return None;
    };
    if !matches!(op, gnt_ir::BinOp::Add | gnt_ir::BinOp::Mul) {
        return None;
    }
    let is_self = |e: &Expr| matches!(e, Expr::Elem(n, i) if *n == name && **i == *idx);
    if is_self(l) || is_self(r) {
        Some(*op)
    } else {
        None
    }
}

fn collect(
    program: &Program,
    stmts: &[StmtId],
    distributed: &[Symbol],
    ctx: &mut LoopContext,
    universe: &mut Universe<DataRef>,
    accesses: &mut [Accesses],
) {
    for &sid in stmts {
        match &program.stmt(sid).kind {
            StmtKind::Assign { lhs, rhs } => {
                let acc = &mut accesses[sid.index()];
                // An accumulation `x(e) = x(e) ⊕ …` reads its own target;
                // that read is recorded separately so it can be elided
                // when the item is communicated as a reduction.
                let acc_op = match lhs {
                    LValue::Element(name, idx) if distributed.contains(name) => {
                        accumulation_op(*name, idx, rhs)
                    }
                    _ => None,
                };
                match (acc_op, lhs) {
                    (Some(op), LValue::Element(name, idx)) => {
                        // Collect non-self reads only.
                        for (array, sub) in rhs.subscripted_refs() {
                            if distributed.contains(&array) {
                                let item = universe.intern(normalize_ref(array, sub, ctx));
                                if array == *name && sub == idx {
                                    acc.acc_reads.push(item);
                                } else {
                                    acc.reads.push(item);
                                }
                            }
                        }
                        collect_reads(idx, distributed, ctx, universe, acc);
                        let d = universe.intern(normalize_ref(*name, idx, ctx));
                        acc.defs.push(d);
                        acc.acc_ops.push((d, op));
                    }
                    _ => {
                        collect_reads(rhs, distributed, ctx, universe, acc);
                        match lhs {
                            LValue::Element(name, idx) => {
                                // Subscript reads happen regardless of the
                                // target.
                                collect_reads(idx, distributed, ctx, universe, acc);
                                if distributed.contains(name) {
                                    let d = normalize_ref(*name, idx, ctx);
                                    acc.defs.push(universe.intern(d));
                                } else {
                                    acc.local_defs.push(*name);
                                }
                            }
                            LValue::Scalar(name) => acc.local_defs.push(*name),
                            LValue::Opaque => {}
                        }
                    }
                }
            }
            StmtKind::Do { var, lo, hi, body } => {
                // Bound expressions are read outside the loop.
                let acc = &mut accesses[sid.index()];
                collect_reads(lo, distributed, ctx, universe, acc);
                collect_reads(hi, distributed, ctx, universe, acc);
                ctx.push(*var, lo, hi);
                collect(program, body, distributed, ctx, universe, accesses);
                ctx.pop();
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                collect_reads(cond, distributed, ctx, universe, &mut accesses[sid.index()]);
                collect(program, then_body, distributed, ctx, universe, accesses);
                collect(program, else_body, distributed, ctx, universe, accesses);
            }
            StmtKind::IfGoto { cond, .. } => {
                collect_reads(cond, distributed, ctx, universe, &mut accesses[sid.index()]);
            }
            StmtKind::Goto(_) | StmtKind::Continue => {}
        }
    }
}

fn collect_reads(
    expr: &Expr,
    distributed: &[Symbol],
    ctx: &LoopContext,
    universe: &mut Universe<DataRef>,
    acc: &mut Accesses,
) {
    for (array, idx) in expr.subscripted_refs() {
        if distributed.contains(&array) {
            let r = normalize_ref(array, idx, ctx);
            acc.reads.push(universe.intern(r));
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use gnt_ir::parse;

    #[test]
    fn figure_1_produces_one_gather_item() {
        let p = parse(
            "do i = 1, N\n  y(i) = ...\nenddo\n\
             if test then\n  do k = 1, N\n    ... = x(a(k))\n  enddo\n\
             else\n  do l = 1, N\n    ... = x(a(l))\n  enddo\nendif",
        )
        .unwrap();
        let a = analyze(&p, &CommConfig::distributed(&["x"])).unwrap();
        // x(a(k)) and x(a(l)) share one value number.
        assert_eq!(a.universe.len(), 1);
        assert_eq!(a.universe.iter().next().unwrap().1.to_string(), "x(a(1:N))");
        // Two consumers in the READ problem, none in the WRITE problem.
        let takes: usize = a.read_problem.take_init.iter().map(|s| s.len()).sum();
        assert_eq!(takes, 2);
        let wtakes: usize = a.write_problem.take_init.iter().map(|s| s.len()).sum();
        assert_eq!(wtakes, 0);
    }

    #[test]
    fn figure_12_read_instance_matches_initial_variables() {
        // y distributed too: y(a(i)) = … gives y_a and steals y_b.
        let p = parse(
            "do i = 1, N\n  y(a(i)) = ...\n  if test(i) goto 77\nenddo\n\
             do j = 1, N\n  ... = ...\nenddo\n\
             77 do k = 1, N\n  ... = x(k+10) + y(b(k))\nenddo",
        )
        .unwrap();
        let a = analyze(&p, &CommConfig::distributed(&["x", "y"])).unwrap();
        assert_eq!(a.universe.len(), 3);
        let find = |s: &str| {
            a.universe
                .iter()
                .find(|(_, r)| r.to_string() == s)
                .unwrap_or_else(|| panic!("missing item {s}"))
                .0
        };
        let xk = find("x(11:N+10)");
        let ya = find("y(a(1:N))");
        let yb = find("y(b(1:N))");
        // The def node gives y_a, steals y_b, and is the WRITE consumer.
        let def_node = *a
            .node_of_stmt
            .iter()
            .find(|(sid, _)| {
                matches!(&p.stmt(**sid).kind, StmtKind::Assign { lhs: LValue::Element(n, _), .. } if n == "y")
            })
            .unwrap()
            .1;
        assert!(a.read_problem.give_init[def_node.index()].contains(ya.index()));
        assert!(a.read_problem.steal_init[def_node.index()].contains(yb.index()));
        assert!(a.write_problem.take_init[def_node.index()].contains(ya.index()));
        // The k-loop body consumes x_k and y_b.
        let use_node = *a
            .node_of_stmt
            .iter()
            .find(|(sid, _)| {
                matches!(&p.stmt(**sid).kind, StmtKind::Assign { rhs, .. }
                    if rhs.to_string().contains("x(k+10)"))
            })
            .unwrap()
            .1;
        assert!(a.read_problem.take_init[use_node.index()].contains(xk.index()));
        assert!(a.read_problem.take_init[use_node.index()].contains(yb.index()));
        // …and steals the pending write-back of overlapping y_a.
        assert!(a.write_problem.steal_init[use_node.index()].contains(ya.index()));
    }

    #[test]
    fn indirection_array_definition_steals_gathers() {
        let p = parse(
            "do k = 1, N\n  ... = x(a(k))\nenddo\na(1) = 0\ndo l = 1, N\n  ... = x(a(l))\nenddo",
        )
        .unwrap();
        let a = analyze(&p, &CommConfig::distributed(&["x"])).unwrap();
        let def_node = *a
            .node_of_stmt
            .iter()
            .find(|(sid, _)| {
                matches!(&p.stmt(**sid).kind, StmtKind::Assign { lhs: LValue::Element(n, _), .. } if n == "a")
            })
            .unwrap()
            .1;
        // The gather item is stolen by the definition of `a`.
        let gather = a.universe.iter().next().unwrap().0;
        assert!(a.read_problem.steal_init[def_node.index()].contains(gather.index()));
    }

    #[test]
    fn strict_owner_computes_suppresses_gives() {
        let p = parse("x(1) = 2\n... = x(1)").unwrap();
        let mut config = CommConfig::distributed(&["x"]);
        config.strict_owner_computes = true;
        let a = analyze(&p, &config).unwrap();
        assert!(a.read_problem.give_init.iter().all(|s| s.is_empty()));
        let relaxed = analyze(&p, &CommConfig::distributed(&["x"])).unwrap();
        assert!(relaxed.read_problem.give_init.iter().any(|s| !s.is_empty()));
    }

    #[test]
    fn scalar_bound_redefinition_steals_dependent_sections() {
        let p = parse("... = x(M)\nM = 2\n... = x(M)").unwrap();
        let a = analyze(&p, &CommConfig::distributed(&["x"])).unwrap();
        let def_node = *a
            .node_of_stmt
            .iter()
            .find(|(sid, _)| {
                matches!(&p.stmt(**sid).kind, StmtKind::Assign { lhs: LValue::Scalar(n), .. } if n == "M")
            })
            .unwrap()
            .1;
        let item = a.universe.iter().next().unwrap().0;
        assert!(a.read_problem.steal_init[def_node.index()].contains(item.index()));
    }
}
