//! Problem descriptions for the GIVE-N-TAKE solver.
//!
//! A code placement problem supplies, for every node of the interval flow
//! graph, the three *initial variables* of §4.1:
//!
//! * `TAKE_init(n)` — items consumed at `n`,
//! * `STEAL_init(n)` — items whose production is voided at `n`,
//! * `GIVE_init(n)` — items produced at `n` "for free" (side effects).
//!
//! The same description can be solved as a BEFORE problem (production must
//! precede consumption — e.g. READ generation) or as an AFTER problem
//! (production must follow consumption — e.g. WRITE generation, solved on
//! the reversed graph).

use gnt_cfg::NodeId;
use gnt_dataflow::BitSet;

/// Which of the two balanced solutions a placement belongs to (§1).
///
/// For a BEFORE problem the EAGER solution produces as early as possible
/// (sends) and the LAZY solution as late as possible (receives); for an
/// AFTER problem early and late are interchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Flavor {
    /// Production as far from the consumer as legal.
    Eager,
    /// Production as close to the consumer as legal.
    Lazy,
}

/// The initial variables of a placement problem over a graph with
/// `num_nodes` nodes and a universe of `universe_size` items.
///
/// # Examples
///
/// ```
/// use gnt_core::PlacementProblem;
/// use gnt_cfg::NodeId;
///
/// let mut p = PlacementProblem::new(5, 2);
/// p.take(NodeId(3), 0); // node 3 consumes item 0
/// p.steal(NodeId(2), 0); // node 2 destroys it
/// assert!(p.take_init[3].contains(0));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementProblem {
    /// Number of items in the dataflow universe.
    pub universe_size: usize,
    /// `TAKE_init`, indexed by node.
    pub take_init: Vec<BitSet>,
    /// `STEAL_init`, indexed by node.
    pub steal_init: Vec<BitSet>,
    /// `GIVE_init`, indexed by node.
    pub give_init: Vec<BitSet>,
}

impl PlacementProblem {
    /// Creates a problem with empty initial variables.
    pub fn new(num_nodes: usize, universe_size: usize) -> Self {
        PlacementProblem {
            universe_size,
            take_init: vec![BitSet::new(universe_size); num_nodes],
            steal_init: vec![BitSet::new(universe_size); num_nodes],
            give_init: vec![BitSet::new(universe_size); num_nodes],
        }
    }

    /// Marks item `item` as consumed at `n`.
    pub fn take(&mut self, n: NodeId, item: usize) -> &mut Self {
        self.take_init[n.index()].insert(item);
        self
    }

    /// Marks item `item` as destroyed at `n`.
    pub fn steal(&mut self, n: NodeId, item: usize) -> &mut Self {
        self.steal_init[n.index()].insert(item);
        self
    }

    /// Marks item `item` as produced for free at `n`.
    pub fn give(&mut self, n: NodeId, item: usize) -> &mut Self {
        self.give_init[n.index()].insert(item);
        self
    }

    /// Number of nodes this problem covers.
    pub fn num_nodes(&self) -> usize {
        self.take_init.len()
    }

    /// Grows the node arrays to `n` nodes (new nodes have empty sets).
    /// Used when the reversed graph gains synthetic nodes.
    pub fn resize_nodes(&mut self, n: usize) {
        let empty = BitSet::new(self.universe_size);
        self.take_init.resize(n, empty.clone());
        self.steal_init.resize(n, empty.clone());
        self.give_init.resize(n, empty);
    }
}

/// The solver's options, of which none are left. Every public `solve*`
/// entry point still takes one, so they all share one signature shape.
/// Zero-trip hoisting (§3.2 C2, §4.1) is switched off on the graph
/// instead: poison one loop's header
/// ([`IntervalGraph::poison`](gnt_cfg::IntervalGraph::poison)), or
/// every loop header for classically safe PRE
/// ([`IntervalGraph::poison_loop_headers`](gnt_cfg::IntervalGraph::poison_loop_headers)).
#[derive(Clone, Debug, Default)]
pub struct SolverOptions {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problem_starts_empty() {
        let p = PlacementProblem::new(3, 4);
        assert!(p.take_init.iter().all(BitSet::is_empty));
        assert_eq!(p.num_nodes(), 3);
        assert_eq!(p.universe_size, 4);
    }

    #[test]
    fn setters_fill_the_right_node() {
        let mut p = PlacementProblem::new(3, 2);
        p.take(NodeId(1), 0).steal(NodeId(2), 1).give(NodeId(0), 1);
        assert!(p.take_init[1].contains(0));
        assert!(p.steal_init[2].contains(1));
        assert!(p.give_init[0].contains(1));
    }

    #[test]
    fn resize_preserves_existing_sets() {
        let mut p = PlacementProblem::new(2, 2);
        p.take(NodeId(1), 1);
        p.resize_nodes(5);
        assert_eq!(p.num_nodes(), 5);
        assert!(p.take_init[1].contains(1));
        assert!(p.take_init[4].is_empty());
    }
}
