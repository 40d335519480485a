//! A generic iterative (worklist) solver for gen/kill bit-vector problems.
//!
//! GIVE-N-TAKE itself uses the single-visit elimination schedule of the
//! paper's Figure 15 and does *not* go through this solver. The iterative
//! solver backs everything around it: the Morel–Renvoise and lazy code
//! motion baselines, and the independent correctness verifiers that check
//! GIVE-N-TAKE's output (balance, sufficiency) without trusting its
//! machinery.

use crate::BitSet;

/// Direction of information flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Information flows along edges (e.g. available expressions).
    Forward,
    /// Information flows against edges (e.g. anticipated expressions).
    Backward,
}

/// The confluence operator applied where paths meet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Meet {
    /// May-style: a fact holds if it holds on *some* path.
    Union,
    /// Must-style: a fact holds only if it holds on *all* paths.
    Intersection,
}

/// A graph as seen by the dataflow solver.
///
/// Node ids must be dense in `0..num_nodes()`.
pub trait FlowGraph {
    /// Number of nodes; ids are `0..num_nodes()`.
    fn num_nodes(&self) -> usize;
    /// Successors of `n`.
    fn succs(&self, n: usize) -> &[usize];
    /// Predecessors of `n`.
    fn preds(&self, n: usize) -> &[usize];
    /// The unique entry node.
    fn entry(&self) -> usize;
    /// The unique exit node.
    fn exit(&self) -> usize;
}

/// A minimal adjacency-list graph implementing [`FlowGraph`].
///
/// # Examples
///
/// ```
/// use gnt_dataflow::{SimpleGraph, FlowGraph};
///
/// // 0 → 1 → 2, 0 → 2
/// let g = SimpleGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)], 0, 2);
/// assert_eq!(g.succs(0), &[1, 2]);
/// assert_eq!(g.preds(2), &[1, 0]);
/// ```
#[derive(Clone, Debug)]
pub struct SimpleGraph {
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
    entry: usize,
    exit: usize,
}

impl SimpleGraph {
    /// Builds a graph with `n` nodes from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint, `entry`, or `exit` is `>= n`.
    pub fn from_edges(n: usize, edges: &[(usize, usize)], entry: usize, exit: usize) -> Self {
        assert!(entry < n && exit < n, "entry/exit out of range");
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a}, {b}) out of range");
            succs[a].push(b);
            preds[b].push(a);
        }
        SimpleGraph {
            succs,
            preds,
            entry,
            exit,
        }
    }
}

impl FlowGraph for SimpleGraph {
    fn num_nodes(&self) -> usize {
        self.succs.len()
    }
    fn succs(&self, n: usize) -> &[usize] {
        &self.succs[n]
    }
    fn preds(&self, n: usize) -> &[usize] {
        &self.preds[n]
    }
    fn entry(&self) -> usize {
        self.entry
    }
    fn exit(&self) -> usize {
        self.exit
    }
}

/// A gen/kill bit-vector dataflow problem.
///
/// The transfer function of node `n` is
/// `out = gen[n] ∪ (in − kill[n])` (forward) or the mirror image backward.
#[derive(Clone, Debug)]
pub struct GenKillProblem {
    /// Flow direction.
    pub direction: Direction,
    /// Confluence operator.
    pub meet: Meet,
    /// Facts generated by each node.
    pub gen: Vec<BitSet>,
    /// Facts killed by each node.
    pub kill: Vec<BitSet>,
    /// The value at the boundary node (entry for forward, exit for backward).
    pub boundary: BitSet,
}

/// The fixed point of a [`GenKillProblem`].
#[derive(Clone, Debug)]
pub struct Solution {
    /// Dataflow value at node entry (forward) / exit (backward) — the
    /// "before transfer" side.
    pub before: Vec<BitSet>,
    /// Dataflow value on the other side of the transfer function.
    pub after: Vec<BitSet>,
}

impl GenKillProblem {
    /// Solves the problem to its (unique) fixed point over `graph`.
    ///
    /// Interior nodes start at ⊤ for [`Meet::Intersection`] and ⊥ for
    /// [`Meet::Union`], which yields the meet-over-paths solution for
    /// gen/kill problems.
    ///
    /// # Panics
    ///
    /// Panics if `gen`/`kill` lengths do not match `graph.num_nodes()` or
    /// the capacities disagree with `boundary`.
    pub fn solve(&self, graph: &impl FlowGraph) -> Solution {
        let n = graph.num_nodes();
        assert_eq!(self.gen.len(), n, "gen length must equal node count");
        assert_eq!(self.kill.len(), n, "kill length must equal node count");
        let cap = self.boundary.capacity();
        assert!(self.gen.iter().all(|s| s.capacity() == cap));
        assert!(self.kill.iter().all(|s| s.capacity() == cap));

        let init = match self.meet {
            Meet::Union => BitSet::new(cap),
            Meet::Intersection => BitSet::full(cap),
        };
        let boundary_node = match self.direction {
            Direction::Forward => graph.entry(),
            Direction::Backward => graph.exit(),
        };
        let mut before: Vec<BitSet> = vec![init; n];
        before[boundary_node] = self.boundary.clone();
        let mut after: Vec<BitSet> = (0..n)
            .map(|i| {
                let mut s = before[i].clone();
                s.subtract_with(&self.kill[i]);
                s.union_with(&self.gen[i]);
                s
            })
            .collect();

        let mut on_list = vec![true; n];
        let mut worklist: Vec<usize> = (0..n).collect();
        let mut scratch = BitSet::new(cap);
        while let Some(node) = worklist.pop() {
            on_list[node] = false;
            if node != boundary_node {
                let inputs: &[usize] = match self.direction {
                    Direction::Forward => graph.preds(node),
                    Direction::Backward => graph.succs(node),
                };
                if !inputs.is_empty() {
                    scratch.copy_from(&after[inputs[0]]);
                    for &p in &inputs[1..] {
                        match self.meet {
                            Meet::Union => scratch.union_with(&after[p]),
                            Meet::Intersection => scratch.intersect_with(&after[p]),
                        };
                    }
                    before[node].copy_from(&scratch);
                }
            }
            scratch.copy_from(&before[node]);
            scratch.subtract_with(&self.kill[node]);
            scratch.union_with(&self.gen[node]);
            if scratch != after[node] {
                after[node].copy_from(&scratch);
                let outputs: &[usize] = match self.direction {
                    Direction::Forward => graph.succs(node),
                    Direction::Backward => graph.preds(node),
                };
                for &s in outputs {
                    if !on_list[s] {
                        on_list[s] = true;
                        worklist.push(s);
                    }
                }
            }
        }
        Solution { before, after }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets(n: usize, cap: usize, elems: &[(usize, &[usize])]) -> Vec<BitSet> {
        let mut v = vec![BitSet::new(cap); n];
        for &(node, es) in elems {
            v[node].extend(es.iter().copied());
        }
        v
    }

    /// Diamond: 0 → {1, 2} → 3. Item 0 generated in 1 only; item 1 in both.
    fn diamond() -> SimpleGraph {
        SimpleGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3)
    }

    #[test]
    fn forward_intersection_requires_all_paths() {
        let g = diamond();
        let p = GenKillProblem {
            direction: Direction::Forward,
            meet: Meet::Intersection,
            gen: sets(4, 2, &[(1, &[0, 1]), (2, &[1])]),
            kill: vec![BitSet::new(2); 4],
            boundary: BitSet::new(2),
        };
        let s = p.solve(&g);
        // At node 3's entry, only item 1 is available on all paths.
        assert!(!s.before[3].contains(0));
        assert!(s.before[3].contains(1));
    }

    #[test]
    fn forward_union_requires_some_path() {
        let g = diamond();
        let p = GenKillProblem {
            direction: Direction::Forward,
            meet: Meet::Union,
            gen: sets(4, 2, &[(1, &[0])]),
            kill: vec![BitSet::new(2); 4],
            boundary: BitSet::new(2),
        };
        let s = p.solve(&g);
        assert!(s.before[3].contains(0));
        assert!(!s.before[2].contains(0));
    }

    #[test]
    fn kill_removes_facts() {
        // 0 → 1 → 2 with gen at 0, kill at 1.
        let g = SimpleGraph::from_edges(3, &[(0, 1), (1, 2)], 0, 2);
        let p = GenKillProblem {
            direction: Direction::Forward,
            meet: Meet::Intersection,
            gen: sets(3, 1, &[(0, &[0])]),
            kill: sets(3, 1, &[(1, &[0])]),
            boundary: BitSet::new(1),
        };
        let s = p.solve(&g);
        assert!(s.before[1].contains(0));
        assert!(!s.before[2].contains(0));
    }

    #[test]
    fn backward_union_is_liveness() {
        // 0 → 1 → 2; "use" of item 0 at node 2, "def" (kill) at node 1.
        let g = SimpleGraph::from_edges(3, &[(0, 1), (1, 2)], 0, 2);
        let p = GenKillProblem {
            direction: Direction::Backward,
            meet: Meet::Union,
            gen: sets(3, 1, &[(2, &[0])]),
            kill: sets(3, 1, &[(1, &[0])]),
            boundary: BitSet::new(1),
        };
        let s = p.solve(&g);
        // For backward problems `before` is the exit-side value and `after`
        // the entry-side (live-in). Item 0 is live into node 2, killed by
        // node 1, hence dead everywhere above.
        assert!(s.after[2].contains(0));
        assert!(s.before[1].contains(0));
        assert!(!s.after[1].contains(0));
        assert!(!s.after[0].contains(0));
    }

    #[test]
    fn loop_reaches_fixed_point() {
        // 0 → 1 → 2 → 1 (loop), 2 → 3. gen at 1.
        let g = SimpleGraph::from_edges(4, &[(0, 1), (1, 2), (2, 1), (2, 3)], 0, 3);
        let p = GenKillProblem {
            direction: Direction::Forward,
            meet: Meet::Intersection,
            gen: sets(4, 1, &[(1, &[0])]),
            kill: vec![BitSet::new(1); 4],
            boundary: BitSet::new(1),
        };
        let s = p.solve(&g);
        assert!(s.before[3].contains(0));
        assert!(s.before[2].contains(0));
        // The entry of node 1 meets pred 0 (empty) with pred 2 (has the
        // item): ∩ = ∅.
        assert!(!s.before[1].contains(0));
    }
}
