//! Solving AFTER problems (§5.3): production placed *after* consumption.
//!
//! An AFTER problem — the paper's example is placing global WRITEs after
//! the definitions they communicate — is a BEFORE problem with reversed
//! flow of control. [`solve_after`] reverses the interval graph (keeping
//! the interval structure, poisoning loops entered by reversed jumps) and
//! runs the ordinary solver; the result is re-interpreted in original
//! orientation: a reversed-`RES_in` is production placed *at the exit* of
//! the original node, a reversed-`RES_out` production *at the entry*.
//!
//! Building the reversal costs more than cloning it, so
//! [`solve_after_with_scratch`] keeps the last one in its
//! [`SolverScratch`] and re-solves of an unchanged graph reuse it. The
//! key is the graph's [`IntervalGraph::fingerprint`] plus an exact
//! compare of its node count, ROOT, exit and node kinds. [`solve_after`]
//! and [`solve_after_into`] keep nothing.
//!
//! Flavor naming follows the paper: for an AFTER problem "early" and
//! "late" are interchanged, so the EAGER solution is the one *furthest
//! after* the consumer (e.g. `WRITE_Recv`) and the LAZY solution the one
//! *immediately after* it (e.g. `WRITE_Send`).

use crate::problem::{Flavor, PlacementProblem, SolverOptions};
use crate::scratch::SolverScratch;
use crate::solver::{solve_into, Solution};
use crate::verify::{balance, sufficiency};
use gnt_cfg::{reversed_graph, GraphError, IntervalGraph, NodeId};
use gnt_dataflow::BitSet;

/// The result of an AFTER problem: a solution over the reversed graph,
/// with accessors that translate back to original program order.
#[derive(Clone, Debug)]
pub struct AfterSolution {
    /// The reversed interval graph the solution lives on. Node ids of the
    /// original graph are preserved; extra synthetic nodes may follow.
    pub reversed: IntervalGraph,
    /// The GIVE-N-TAKE solution over [`AfterSolution::reversed`].
    pub solution: Solution,
}

impl AfterSolution {
    /// Production placed immediately *after* node `n` in original program
    /// order (the reversed solution's `RES_in`).
    pub fn res_after(&self, flavor: Flavor, n: NodeId) -> &BitSet {
        &self.solution.flavor(flavor).res_in[n.index()]
    }

    /// Production placed immediately *before* node `n` in original program
    /// order (the reversed solution's `RES_out`).
    pub fn res_before(&self, flavor: Flavor, n: NodeId) -> &BitSet {
        &self.solution.flavor(flavor).res_out[n.index()]
    }

    /// Total number of `(node, item)` production points for `flavor`.
    pub fn num_productions(&self, flavor: Flavor) -> usize {
        self.solution.flavor(flavor).num_productions()
    }
}

/// Solves an AFTER problem over `graph`.
///
/// `problem`'s node arrays are indexed by the *original* graph's node ids;
/// they are extended with empty sets for any synthetic nodes the reversal
/// introduces.
///
/// # Errors
///
/// Returns [`GraphError`] if the reversed graph cannot be built.
///
/// # Examples
///
/// ```
/// use gnt_core::{solve_after, Flavor, PlacementProblem, SolverOptions};
/// use gnt_cfg::IntervalGraph;
///
/// // x(a(i)) is defined in the loop; the WRITE back to the owner is the
/// // production, placed after the definitions.
/// let p = gnt_ir::parse("do i = 1, N\n  x(a(i)) = ...\nenddo\nb = 1")?;
/// let g = IntervalGraph::from_program(&p)?;
/// let def = g.nodes().find(|&n| g.level(n) == 2).unwrap();
/// let mut problem = PlacementProblem::new(g.num_nodes(), 1);
/// problem.take(def, 0);
/// let after = solve_after(&g, &problem, &SolverOptions::default())?;
/// // One LAZY production right after the loop, not one per iteration.
/// assert_eq!(after.num_productions(Flavor::Lazy), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_after(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
) -> Result<AfterSolution, GraphError> {
    let reversed = reversed_graph(graph)?;
    let mut scratch = SolverScratch::new();
    Ok(solve_reversed(reversed, problem, opts, &mut scratch))
}

/// [`solve_after`] reusing a caller-provided scratch arena — the
/// optimistic attempt and the poisoned fallback (and any further AFTER
/// solves through the same scratch) share one allocation. The scratch
/// also keeps the reversal of the last graph it solved: a re-solve of
/// the same graph clones it instead of building it again, and a
/// different graph replaces it. §5.3's fallback poisons the clone, so
/// the kept reversal stays unpoisoned.
///
/// # Errors
///
/// Fails if the reversed graph for the AFTER problem cannot be built.
pub fn solve_after_with_scratch(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
) -> Result<AfterSolution, GraphError> {
    let reversed = scratch.reversal_of(graph)?;
    Ok(solve_reversed(reversed, problem, opts, scratch))
}

/// [`solve_after_into`] over `reversed`, exported.
fn solve_reversed(
    mut reversed: IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
) -> AfterSolution {
    solve_after_into(&mut reversed, problem, opts, scratch);
    AfterSolution {
        reversed,
        solution: scratch.export(),
    }
}

/// Solves an AFTER problem into `scratch` over `reversed`, the
/// [`reversed_graph`] of the problem's graph, poisoning the headers
/// §5.3's fallback poisons: the AFTER twin of
/// [`crate::solve_into`]. Every variable stays readable in place
/// (zero-copy views over the reversed graph's node ids), and
/// [`SolverScratch::export_productions`] copies out only the rows a
/// placement needs. Building `reversed` is the caller's, so it can be
/// timed apart from the solves.
///
/// Returns `true` when §5.3's check of the optimistic attempt ran and
/// found it clean: C3 (≥1-trip) of both flavors and C1, against
/// `problem` resized to `reversed`, on exactly the production rows the
/// scratch now holds. It is `false` when no loop is jump-entered (no
/// check runs) and when the check failed (the scratch then holds the
/// poisoned fallback's solution, which is not checked).
///
/// # Panics
///
/// Panics if `problem` does not cover the nodes of the original graph.
pub fn solve_after_into(
    reversed: &mut IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
) -> bool {
    let mut p = problem.clone();
    p.resize_nodes(reversed.num_nodes());

    // Optimistic attempt: loops entered by reversed jumps participate
    // fully (Eq. 11 extended with the jump-in sources), which yields the
    // paper's Figure 14 placement — the production region spans the jump
    // and the jump path gets its own balanced production at the landing
    // pad. This is sound whenever consumption on the jump path occurs
    // before the back edge; the independent verifiers decide, reading the
    // production rows in place.
    // This solve and the poisoned fallback are full solves: both walk
    // the schedule directly, and the last one lays the delta basis.
    solve_into(reversed, &p, opts, scratch);
    let jump_entered: Vec<_> = reversed
        .nodes()
        .filter(|&h| !reversed.jump_in_sources(h).is_empty())
        .collect();
    if jump_entered.is_empty() {
        return false;
    }
    let (eager, lazy) = (
        scratch.production_rows(Flavor::Eager),
        scratch.production_rows(Flavor::Lazy),
    );
    let [eager_missed, lazy_missed] = sufficiency([&eager, &lazy], reversed, &p, true);
    let ok = eager_missed.is_empty()
        && lazy_missed.is_empty()
        && balance(reversed, &p, &eager, &lazy).is_empty();
    if !ok {
        // Conservative fallback (§5.3's first mechanism): poison the
        // jump-entered loops; nothing is hoisted out of or across
        // them. "While our current approach prevents unsafe code
        // generation, it may miss some otherwise legal
        // optimizations" — the paper's own assessment.
        for h in jump_entered {
            reversed.poison(h);
        }
        solve_into(reversed, &p, opts, scratch);
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnt_cfg::NodeKind;
    use gnt_ir::{parse, StmtKind};

    fn graph(src: &str) -> (gnt_ir::Program, IntervalGraph) {
        let p = parse(src).unwrap();
        let g = IntervalGraph::from_program(&p).unwrap();
        (p, g)
    }

    fn stmt_node(g: &IntervalGraph, p: &gnt_ir::Program, needle: &str) -> NodeId {
        g.nodes()
            .find(|&n| match g.kind(n) {
                NodeKind::Stmt(s) | NodeKind::LoopHeader(s) | NodeKind::Branch(s) => {
                    match &p.stmt(s).kind {
                        StmtKind::Assign { lhs, rhs } => format!("{lhs} = {rhs}").contains(needle),
                        StmtKind::Do { var, .. } => format!("do {var}").contains(needle),
                        _ => false,
                    }
                }
                _ => false,
            })
            .unwrap_or_else(|| panic!("no node for {needle}"))
    }

    #[test]
    fn write_after_loop_is_vectorized() {
        // Definitions inside a loop; the write-back is sunk below the
        // loop and executed once (the AFTER mirror of Figure 2).
        let (p, g) = graph("do i = 1, N\n  x(a(i)) = ...\nenddo\nb = 1");
        let def = stmt_node(&g, &p, "x(a(i))");
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        problem.take(def, 0);
        let after = solve_after(&g, &problem, &SolverOptions::default()).unwrap();
        // Lazy (WRITE_Send): once, just after the loop — i.e. at the
        // reversed graph's loop-header RES_in or equivalent; crucially not
        // at the in-loop definition.
        assert_eq!(after.num_productions(Flavor::Lazy), 1);
        assert!(after.res_after(Flavor::Lazy, def).is_empty());
        // Eager (WRITE_Recv): once, at the reversed ROOT (= original
        // exit): as late as possible in original order.
        assert_eq!(after.num_productions(Flavor::Eager), 1);
        assert!(after.res_after(Flavor::Eager, g.exit()).contains(0));
    }

    #[test]
    fn straight_line_write_sits_after_the_definition() {
        let (p, g) = graph("x(1) = 2\nb = 1");
        let def = stmt_node(&g, &p, "x(1) = 2");
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        problem.take(def, 0);
        let after = solve_after(&g, &problem, &SolverOptions::default()).unwrap();
        // Lazy production immediately after the definition.
        assert!(after.res_after(Flavor::Lazy, def).contains(0));
        assert_eq!(after.num_productions(Flavor::Lazy), 1);
    }

    #[test]
    fn steal_after_definition_blocks_sinking() {
        // A redefinition-by-others (steal) between def and program end:
        // the write must happen before the steal.
        let (p, g) = graph("x(1) = 2\nz = 0\nb = 1");
        let def = stmt_node(&g, &p, "x(1) = 2");
        let killer = stmt_node(&g, &p, "z = 0");
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        problem.take(def, 0);
        problem.steal(killer, 0);
        let after = solve_after(&g, &problem, &SolverOptions::default()).unwrap();
        // Eager (furthest after the def) stops before the steal: it may
        // not slide past `z = 0`.
        assert!(after.res_after(Flavor::Eager, killer).is_empty());
        assert!(
            after.res_after(Flavor::Eager, def).contains(0)
                || after.res_before(Flavor::Eager, killer).contains(0)
        );
    }

    #[test]
    fn defs_on_both_branches_meet_below_join() {
        let (_, g) = graph("if t then\n  x(1) = 1\nelse\n  x(1) = 2\nendif\nb = 1");
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        // Statement nodes in construction order: x(1)=1, x(1)=2, b=1.
        let defs: Vec<NodeId> = g
            .nodes()
            .filter(|&n| matches!(g.kind(n), NodeKind::Stmt(_)))
            .collect();
        problem.take(defs[0], 0);
        problem.take(defs[1], 0);
        let after = solve_after(&g, &problem, &SolverOptions::default()).unwrap();
        // One eager production at the reversed root (original exit).
        assert_eq!(after.num_productions(Flavor::Eager), 1);
        assert!(after.res_after(Flavor::Eager, g.exit()).contains(0));
    }

    #[test]
    fn jump_out_of_loop_still_vectorizes_the_write() {
        // With a goto out of the loop the reversed graph has a jump-in
        // edge. The optimistic solve (Eq. 11 extended with the jump-in
        // sources) still vectorizes: one write on the fall-through exit
        // and one on the jump path — Figure 14's placement — rather than
        // one per iteration; the independent verifiers accept it.
        let (p, g) = graph("do i = 1, N\n  x(a(i)) = ...\n  if t(i) goto 7\nenddo\n7 b = 2");
        let def = stmt_node(&g, &p, "x(a(i))");
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        problem.take(def, 0);
        let after = solve_after(&g, &problem, &SolverOptions::default()).unwrap();
        // Not per-iteration: nothing directly after the in-loop def.
        assert!(
            after.res_after(Flavor::Lazy, def).is_empty(),
            "{}",
            after.reversed.dump()
        );
        // Exactly two lazy sends: fall-through exit and jump path.
        assert_eq!(after.num_productions(Flavor::Lazy), 2);
        let mut p2 = problem.clone();
        p2.resize_nodes(after.reversed.num_nodes());
        assert!(
            crate::verify::check_sufficiency(&after.reversed, &p2, &after.solution.lazy, true)
                .is_empty()
        );
        assert!(crate::verify::check_balance(
            &after.reversed,
            &p2,
            &after.solution.eager,
            &after.solution.lazy
        )
        .is_empty());
    }

    /// The production export copies exactly `export()`'s `RES_*` rows on
    /// forward, reversed and poisoned-reversed graphs, and the §5.3
    /// checks that read those rows in place in the scratch find what the
    /// public checkers find on the exported rows. `solve_after_into`
    /// reports a clean check exactly when a loop is jump-entered and the
    /// fallback did not run.
    #[test]
    fn production_export_matches_the_full_export() {
        use crate::generator::{random_problem, random_program, GenConfig};
        use crate::verify::{check_balance, check_sufficiency};
        let config = GenConfig {
            loop_prob: 0.45,
            ..GenConfig::default()
        };
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        let same = |scratch: &SolverScratch, what: &str| {
            let full = scratch.export();
            let (eager, lazy) = scratch.export_productions();
            for (got, want) in [(&eager, &full.eager), (&lazy, &full.lazy)] {
                assert_eq!(got.res_in, want.res_in, "{what}");
                assert_eq!(got.res_out, want.res_out, "{what}");
                assert!(got.given_in.is_empty() && got.given.is_empty());
                assert!(got.given_out.is_empty());
            }
            full
        };
        let (mut poisoned, mut jump_checked) = (0, 0);
        for seed in 0..60u64 {
            let g = IntervalGraph::from_program(&random_program(seed, &config)).unwrap();
            for cap in [1, 64, 65, 130] {
                let what = format!("seed {seed}, {cap} items");
                let problem = random_problem(seed ^ cap as u64, &g, cap, 0.2);
                solve_into(&g, &problem, &opts, &mut scratch);
                same(&scratch, &format!("{what}, forward"));

                let mut reversed = reversed_graph(&g).unwrap();
                let verified = solve_after_into(&mut reversed, &problem, &opts, &mut scratch);
                let full = same(&scratch, &format!("{what}, reversed"));
                let jump_entered = reversed
                    .nodes()
                    .any(|h| !reversed.jump_in_sources(h).is_empty());
                assert_eq!(
                    verified,
                    jump_entered && reversed.poisoned().is_empty(),
                    "{what}"
                );
                let after = solve_after(&g, &problem, &opts).unwrap();
                assert_eq!(after.solution, full, "{what}");
                poisoned += usize::from(!reversed.poisoned().is_empty());
                if jump_entered {
                    jump_checked += 1;
                    let mut p = problem.clone();
                    p.resize_nodes(reversed.num_nodes());
                    let (eager, lazy) = (
                        scratch.production_rows(Flavor::Eager),
                        scratch.production_rows(Flavor::Lazy),
                    );
                    assert_eq!(
                        sufficiency([&eager, &lazy], &reversed, &p, true),
                        [
                            check_sufficiency(&reversed, &p, &full.eager, true),
                            check_sufficiency(&reversed, &p, &full.lazy, true)
                        ],
                        "{what}"
                    );
                    assert_eq!(
                        balance(&reversed, &p, &eager, &lazy),
                        check_balance(&reversed, &p, &full.eager, &full.lazy),
                        "{what}"
                    );
                }
            }
        }
        assert!(poisoned > 0, "no solve took the poisoned fallback");
        assert!(jump_checked > poisoned, "every optimistic check failed");
    }

    /// A `goto` out of the loop ahead of the write: the optimistic solve
    /// fails its checks and the poisoned fallback serves it.
    fn goto_before_write() -> (IntervalGraph, PlacementProblem) {
        let (p, g) = graph("do j = 1, N\n  if t(j) goto 99\n  x(a(j)) = ...\nenddo\n99 b = 1");
        let def = stmt_node(&g, &p, "x(a(j))");
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        problem.take(def, 0);
        (g, problem)
    }

    /// Two AFTER solves of one graph through one scratch build its
    /// reversal once and reuse it once; a different graph builds again.
    /// `solve_after` keeps nothing, so it counts on no caller's scratch.
    #[test]
    fn reversal_counters_count_builds_and_reuses() {
        let opts = SolverOptions::default();
        let (g, problem) = goto_before_write();
        let (other_program, other) = graph("x(1) = 2\nb = 1");
        let mut other_problem = PlacementProblem::new(other.num_nodes(), 1);
        other_problem.take(stmt_node(&other, &other_program, "x(1) = 2"), 0);
        let mut scratch = SolverScratch::new();
        let counts = |scratch: &SolverScratch| {
            let c = scratch.counters();
            (c.reversals_built, c.reversals_reused)
        };
        for _ in 0..2 {
            solve_after_with_scratch(&g, &problem, &opts, &mut scratch).unwrap();
        }
        assert_eq!(counts(&scratch), (1, 1));
        solve_after_with_scratch(&other, &other_problem, &opts, &mut scratch).unwrap();
        assert_eq!(counts(&scratch), (2, 1));
        solve_after(&g, &problem, &opts).unwrap();
        assert_eq!(counts(&scratch), (2, 1));
    }

    /// The first one-bit `solve_delta` on the reversed graph right after
    /// one or two AFTER solves, with and without the fallback, re-walks
    /// incrementally against the basis the last full walk laid.
    #[test]
    fn delta_after_an_after_solve_runs_incrementally() {
        let (p, g) = graph("do i = 1, N\n  x(a(i)) = ...\n  if t(i) goto 7\nenddo\n7 b = 2");
        let mut vectorized = PlacementProblem::new(g.num_nodes(), 1);
        vectorized.take(stmt_node(&g, &p, "x(a(i))"), 0);
        for (g, problem) in [(g, vectorized), goto_before_write()] {
            for solves in [1, 2] {
                let opts = SolverOptions::default();
                let mut scratch = crate::SolverScratch::new();
                let mut after =
                    solve_after_with_scratch(&g, &problem, &opts, &mut scratch).unwrap();
                for _ in 1..solves {
                    after = solve_after_with_scratch(&g, &problem, &opts, &mut scratch).unwrap();
                }
                assert!(after
                    .reversed
                    .nodes()
                    .any(|h| !after.reversed.jump_in_sources(h).is_empty()));
                let before = scratch.counters();
                let mut p = problem.clone();
                p.resize_nodes(after.reversed.num_nodes());
                let node = after.reversed.nodes().nth(3).unwrap();
                p.steal(node, 0);
                let mut delta = crate::DeltaSet::new();
                delta.mark_steal(node);
                let report = crate::solve_delta(&after.reversed, &p, &opts, &mut scratch, &delta);
                assert!(!report.full_replay, "{solves}: {report:?}");
                let counted = scratch.counters() - before;
                assert_eq!(
                    (counted.deltas_incremental, counted.deltas_declined),
                    (1, 0),
                    "{solves}"
                );
                assert_eq!(scratch.export(), crate::solve(&after.reversed, &p, &opts));
            }
        }
    }
}
