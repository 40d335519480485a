//! Lazy Code Motion (Knoop, Rüthing, Steffen, PLDI 1992).
//!
//! The strongest classical PRE baseline: computationally optimal and
//! lifetime optimal, placing computations as late as possible. We use the
//! standard four-pass formulation over statement-level nodes (anticipated
//! → earliest via availability → postponable → latest → used), which
//! requires the same no-critical-edge normal form GIVE-N-TAKE uses.
//!
//! GIVE-N-TAKE's LAZY BEFORE solution subsumes LCM (§1 of the paper
//! classifies classical PRE as a LAZY, BEFORE problem); the equivalence is
//! exercised in this crate's tests and the `table_vs_pre` table.

use crate::problem::{PrePlacement, PreProblem};
use gnt_dataflow::{BitSet, Direction, FlowGraph, GenKillProblem, Meet};

/// Runs lazy code motion over `flow`.
///
/// Returns insertions at node entries and the set of originally-computed
/// occurrences that became redundant.
///
/// # Panics
///
/// Panics if the problem does not cover all nodes.
pub fn lazy_code_motion(flow: &impl FlowGraph, problem: &PreProblem) -> PrePlacement {
    let n = flow.num_nodes();
    assert_eq!(problem.antloc.len(), n);
    let cap = problem.universe_size;
    let kill: Vec<BitSet> = problem
        .transp
        .iter()
        .map(|t| {
            let mut k = BitSet::full(cap);
            k.subtract_with(t);
            k
        })
        .collect();

    // Pass 1: anticipated (very busy) expressions — backward, must.
    let anticipated = GenKillProblem {
        direction: Direction::Backward,
        meet: Meet::Intersection,
        gen: problem.antloc.clone(),
        kill: kill.clone(),
        boundary: BitSet::new(cap),
    }
    .solve(flow);
    let ant_in = &anticipated.after; // entry side for backward problems

    // Pass 2: "availability" of anticipated values — forward, must.
    // available.out = (anticipated.in ∪ available.in) − kill.
    let available = GenKillProblem {
        direction: Direction::Forward,
        meet: Meet::Intersection,
        gen: ant_in
            .iter()
            .zip(&kill)
            .map(|(a, k)| a.difference(k))
            .collect(),
        kill: kill.clone(),
        boundary: BitSet::new(cap),
    }
    .solve(flow);
    // earliest[B] = anticipated.in[B] − available.in[B]
    let earliest: Vec<BitSet> = (0..n)
        .map(|i| ant_in[i].difference(&available.before[i]))
        .collect();

    // Pass 3: postponable — forward, must.
    // postponable.out = (earliest ∪ postponable.in) − use.
    let postponable = GenKillProblem {
        direction: Direction::Forward,
        meet: Meet::Intersection,
        gen: earliest
            .iter()
            .zip(&problem.antloc)
            .map(|(e, u)| e.difference(u))
            .collect(),
        kill: problem.antloc.clone(),
        boundary: BitSet::new(cap),
    }
    .solve(flow);

    // latest[B] = (earliest ∪ postponable.in)
    //           ∩ (use ∪ ¬∩_{S ∈ succ} (earliest[S] ∪ postponable.in[S]))
    let frontier: Vec<BitSet> = (0..n)
        .map(|i| earliest[i].union(&postponable.before[i]))
        .collect();
    let latest: Vec<BitSet> = (0..n)
        .map(|i| {
            let mut all_succs = BitSet::full(cap);
            let mut has_succ = false;
            for &s in flow.succs(i) {
                has_succ = true;
                all_succs.intersect_with(&frontier[s]);
            }
            if !has_succ {
                all_succs = BitSet::full(cap); // exit: ¬∩ over ∅ = ∅ → keep
            }
            let mut not_all = BitSet::full(cap);
            not_all.subtract_with(&all_succs);
            if !has_succ {
                // At the exit everything is "not postponable further".
                not_all = BitSet::full(cap);
            }
            let mut rhs = problem.antloc[i].union(&not_all);
            rhs.intersect_with(&frontier[i]);
            rhs
        })
        .collect();

    // Pass 4: used (live-out of the temporaries) — backward, may.
    // used.in = (use ∪ used.out) − latest.
    let used = GenKillProblem {
        direction: Direction::Backward,
        meet: Meet::Union,
        gen: problem
            .antloc
            .iter()
            .zip(&latest)
            .map(|(u, l)| u.difference(l))
            .collect(),
        kill: latest.clone(),
        boundary: BitSet::new(cap),
    }
    .solve(flow);
    // used.out[B]: the exit side = `before` for backward problems.
    let used_out = &used.before;

    let mut insert_entry = Vec::with_capacity(n);
    let mut redundant = Vec::with_capacity(n);
    for i in 0..n {
        // insert at B: latest[B] ∩ used.out[B]
        let mut ins = latest[i].intersection(&used_out[i]);
        // An expression both latest and locally used is inserted and
        // immediately used even if dead afterwards.
        let mut self_use = latest[i].intersection(&problem.antloc[i]);
        ins.union_with(&self_use);
        insert_entry.push(ins.clone());
        // A local computation is redundant (replaced by the temporary)
        // iff it is not itself the insertion point… it still *reads* the
        // temporary; classical LCM replaces it either way, but only
        // non-insertion uses save a computation.
        self_use.copy_from(&problem.antloc[i]);
        self_use.subtract_with(&latest[i]);
        redundant.push(self_use);
    }
    let insert_exit = vec![BitSet::new(cap); n];
    PrePlacement {
        insert_entry,
        insert_exit,
        redundant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnt_dataflow::SimpleGraph;

    fn problem(n: usize, cap: usize) -> PreProblem {
        PreProblem {
            universe_size: cap,
            antloc: vec![BitSet::new(cap); n],
            transp: vec![BitSet::full(cap); n],
        }
    }

    #[test]
    fn straight_line_single_use_inserts_once() {
        // 0 → 1 → 2 → 3; expression used at 2.
        let g = SimpleGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], 0, 3);
        let mut p = problem(4, 1);
        p.antloc[2].insert(0);
        let r = lazy_code_motion(&g, &p);
        // Latest: right at the use.
        assert!(r.insert_entry[2].contains(0));
        assert_eq!(r.total_insertions(), 1);
        assert_eq!(r.total_redundant(), 0);
    }

    #[test]
    fn diamond_with_uses_on_both_arms_stays_late() {
        // 0 → {1, 2} → 3; both arms use the expression. There is no
        // redundancy (each path computes once), and LCM — being lifetime
        // optimal — keeps the computations at their uses rather than
        // hoisting to node 0 (which busy code motion would do).
        let g = SimpleGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3);
        let mut p = problem(4, 1);
        p.antloc[1].insert(0);
        p.antloc[2].insert(0);
        let r = lazy_code_motion(&g, &p);
        assert!(r.insert_entry[1].contains(0), "{r:?}");
        assert!(r.insert_entry[2].contains(0), "{r:?}");
        assert!(!r.insert_entry[0].contains(0), "{r:?}");
        assert_eq!(r.total_insertions(), 2);
        assert_eq!(r.total_redundant(), 0);
    }

    #[test]
    fn partial_redundancy_is_removed() {
        // 0 → 1 → 3, 0 → 2 → 3, 3 → 4; use at 1 and at 3.
        // The second use is partially redundant: insert on the 2-path.
        let g = SimpleGraph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], 0, 4);
        let mut p = problem(5, 1);
        p.antloc[1].insert(0);
        p.antloc[3].insert(0);
        let r = lazy_code_motion(&g, &p);
        assert!(r.insert_entry[1].contains(0));
        assert!(r.insert_entry[2].contains(0));
        assert!(!r.insert_entry[3].contains(0));
        assert!(r.redundant[3].contains(0));
        assert_eq!(r.total_insertions(), 2);
    }

    #[test]
    fn kill_forces_recomputation() {
        // 0 → 1 → 2 → 3; use at 1, operands killed at 2... use at 3 too.
        let g = SimpleGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], 0, 3);
        let mut p = problem(4, 1);
        p.antloc[1].insert(0);
        p.antloc[3].insert(0);
        p.transp[2].remove(0);
        let r = lazy_code_motion(&g, &p);
        assert!(r.insert_entry[1].contains(0));
        assert!(r.insert_entry[3].contains(0));
        assert_eq!(r.total_insertions(), 2);
    }

    #[test]
    fn loop_invariant_use_is_not_hoisted_out_of_zero_trip_loop() {
        // 0 → 1(header) → 2(body) → 1, 1 → 3; use at 2, transparent
        // everywhere. Safe LCM keeps the computation at the loop entry
        // *inside* the loop region: earliest at 2 is entry… it hoists to
        // the header-side only if anticipated there; anticipability at 1
        // fails because of the exit path 1 → 3.
        let g = SimpleGraph::from_edges(4, &[(0, 1), (1, 2), (2, 1), (1, 3)], 0, 3);
        let mut p = problem(4, 1);
        p.antloc[2].insert(0);
        let r = lazy_code_motion(&g, &p);
        assert!(!r.insert_entry[0].contains(0), "{r:?}");
        assert!(r.insert_entry[2].contains(0), "{r:?}");
        // Inserted once (statically); executes once per iteration — the
        // safety price GIVE-N-TAKE's zero-trip hoisting avoids paying.
        assert_eq!(r.total_insertions(), 1);
    }
}
