//! The sweep kernel of the placement checkers (C1, C3, C2 reach, O1):
//! their states are [`WordRows`], and [`sweep`] runs their rounds over a
//! fixed order, such as a [`reverse_postorder`], revisiting only nodes
//! whose input moved. Each checker keeps its own transfer and meet.

/// Per-node (or per-edge) rows over one universe of `cap` bits, laid out
/// flat. Each row holds `blocks` side-by-side blocks of `cap.div_ceil(64)`
/// words; ⊤ rows keep every block's bits past `cap` clear.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WordRows {
    stride: usize,
    words: Vec<u64>,
}

impl WordRows {
    /// `rows` ∅ rows of `blocks` blocks.
    pub fn new(rows: usize, cap: usize, blocks: usize) -> WordRows {
        let stride = blocks * cap.div_ceil(64);
        WordRows {
            stride,
            words: vec![0; rows * stride],
        }
    }

    /// `rows` ⊤ rows of `blocks` blocks.
    pub fn full(rows: usize, cap: usize, blocks: usize) -> WordRows {
        let mut top = vec![!0; cap.div_ceil(64)];
        if !cap.is_multiple_of(64) {
            top[cap / 64] = (1 << (cap % 64)) - 1;
        }
        WordRows {
            stride: blocks * top.len(),
            words: top.repeat(blocks * rows),
        }
    }

    // The checkers call the accessors across the crate boundary in their
    // innermost loops, where a call instead of an inlined slice made C1
    // 14 % slower at `sized_program(3000)`.

    /// Row `v`'s words.
    #[inline]
    pub fn row(&self, v: usize) -> &[u64] {
        &self.words[v * self.stride..(v + 1) * self.stride]
    }

    /// Row `v`'s words, mutably.
    #[inline]
    pub fn row_mut(&mut self, v: usize) -> &mut [u64] {
        &mut self.words[v * self.stride..(v + 1) * self.stride]
    }
}

/// The nodes reachable from `entry` in reverse postorder of a depth-first
/// search, then the others in id order. `succs(u, out)` appends `u`'s
/// successors to `out`.
pub fn reverse_postorder(
    n: usize,
    entry: usize,
    succs: impl Fn(usize, &mut Vec<usize>),
) -> Vec<usize> {
    let mut post = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut next = Vec::new();
    // `(u, true)` finishes `u` once everything it discovered has.
    let mut stack = vec![(entry, false)];
    while let Some((u, finish)) = stack.pop() {
        if finish {
            post.push(u);
        } else if !std::mem::replace(&mut seen[u], true) {
            stack.push((u, true));
            next.clear();
            succs(u, &mut next);
            stack.extend(next.iter().filter(|&&v| !seen[v]).map(|&v| (v, false)));
        }
    }
    post.reverse();
    post.extend((0..n).filter(|&v| !seen[v]));
    post
}

/// The nodes a [`sweep`] visits next, by index.
#[derive(Debug)]
pub struct Dirty {
    flags: Vec<bool>,
    marked: bool,
}

impl Dirty {
    /// Revisits `v`: later in this round if `v` is still ahead in the
    /// order, else in the next one.
    #[inline]
    pub fn mark(&mut self, v: usize) {
        self.flags[v] = true;
        self.marked = true;
    }
}

/// Runs rounds over `order`, calling `visit(u, dirty)` on each node `u`
/// marked dirty (`seeds` before the first round), until a round marks
/// nothing. `visit` recomputes `u` and [`Dirty::mark`]s every node whose
/// input moved. Returns the rounds run, the last one confirming that
/// nothing moved: as many as visiting every node each round takes, when
/// a node whose inputs held still moves nothing.
pub fn sweep<O>(order: O, seeds: Vec<bool>, mut visit: impl FnMut(usize, &mut Dirty)) -> u64
where
    O: IntoIterator<Item = usize> + Clone,
{
    let mut dirty = Dirty {
        flags: seeds,
        marked: true,
    };
    let mut rounds = 0;
    while std::mem::take(&mut dirty.marked) {
        rounds += 1;
        for u in order.clone() {
            if std::mem::take(&mut dirty.flags[u]) {
                visit(u, &mut dirty);
            }
        }
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitSet, Direction, FlowGraph, GenKillProblem, Meet, SimpleGraph};

    /// SplitMix64: a few random bits without a dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A graph of 2–13 nodes, entry 0 and exit `n − 1`, with one to
    /// three random successors per node, so back edges and self-loops
    /// are common. In about half the graphs one node loses its in-edges:
    /// it and what only it reaches are unreachable but still feed on.
    fn random_graph(rng: &mut u64) -> SimpleGraph {
        let n = 2 + (next(rng) % 12) as usize;
        let orphan = next(rng)
            .is_multiple_of(2)
            .then(|| 1 + (next(rng) % (n as u64 - 1)) as usize);
        let mut edges = Vec::new();
        for a in 0..n {
            for _ in 0..1 + next(rng) % 3 {
                let b = (next(rng) % n as u64) as usize;
                if Some(b) != orphan {
                    edges.push((a, b));
                }
            }
        }
        SimpleGraph::from_edges(n, &edges, 0, n - 1)
    }

    fn random_sets(n: usize, cap: usize, rng: &mut u64) -> Vec<BitSet> {
        (0..n)
            .map(|_| {
                let mut set = BitSet::new(cap);
                set.extend((0..cap).filter(|_| next(rng).is_multiple_of(4)));
                set
            })
            .collect()
    }

    /// Node `u`'s step of `p` on `g`: its before row from its inputs'
    /// after rows (unless it is the boundary or has no inputs), then its
    /// transfer. Whether its after row moved.
    fn step(
        g: &SimpleGraph,
        p: &GenKillProblem,
        u: usize,
        before: &mut WordRows,
        after: &mut WordRows,
    ) -> bool {
        let (boundary, inputs) = match p.direction {
            Direction::Forward => (g.entry(), g.preds(u)),
            Direction::Backward => (g.exit(), g.succs(u)),
        };
        if let Some((&first, rest)) = inputs.split_first().filter(|_| u != boundary) {
            let row = before.row_mut(u);
            row.copy_from_slice(after.row(first));
            for &i in rest {
                for (w, &a) in row.iter_mut().zip(after.row(i)) {
                    *w = if p.meet == Meet::Union {
                        *w | a
                    } else {
                        *w & a
                    };
                }
            }
        }
        let (gen, kill) = (p.gen[u].words(), p.kill[u].words());
        let mut moved = false;
        for (k, w) in after.row_mut(u).iter_mut().enumerate() {
            let next = gen[k] | (before.row(u)[k] & !kill[k]);
            moved |= *w != next;
            *w = next;
        }
        moved
    }

    /// `p` on `g` from every node dirty, each round in `order`: by
    /// [`sweep`] if `skip_clean`, else visiting every node each round
    /// until no node's input moved. The before and after rows and the
    /// rounds.
    fn solve(
        g: &SimpleGraph,
        p: &GenKillProblem,
        order: &[usize],
        skip_clean: bool,
    ) -> (WordRows, WordRows, u64) {
        let (n, cap) = (g.num_nodes(), p.boundary.capacity());
        let forward = p.direction == Direction::Forward;
        let init = || match p.meet {
            Meet::Intersection => WordRows::full(n, cap, 1),
            Meet::Union => WordRows::new(n, cap, 1),
        };
        let (mut before, mut after) = (init(), init());
        let boundary = if forward { g.entry() } else { g.exit() };
        before.row_mut(boundary).copy_from_slice(p.boundary.words());
        let outputs = |u| if forward { g.succs(u) } else { g.preds(u) };
        let rounds = if skip_clean {
            sweep(order.iter().copied(), vec![true; n], |u, dirty| {
                if step(g, p, u, &mut before, &mut after) {
                    outputs(u).iter().for_each(|&v| dirty.mark(v));
                }
            })
        } else {
            let mut rounds = 0;
            loop {
                rounds += 1;
                let mut moved = false;
                for &u in order {
                    moved |= step(g, p, u, &mut before, &mut after) && !outputs(u).is_empty();
                }
                if !moved {
                    break rounds;
                }
            }
        };
        (before, after, rounds)
    }

    /// A forward must-problem and a backward may-problem on random
    /// graphs: [`sweep`] reaches [`GenKillProblem::solve`]'s fixpoint in
    /// reverse postorder and in id order, and in as many rounds as a
    /// sweep that visits every node each round.
    #[test]
    fn sweep_matches_gen_kill_and_full_sweep_rounds() {
        let mut rng = 0x5eed_5eed_5eed;
        let mut most_rounds = 0;
        for _ in 0..200 {
            let g = random_graph(&mut rng);
            let n = g.num_nodes();
            for cap in [0, 1, 64, 65, 130] {
                for (direction, meet) in [
                    (Direction::Forward, Meet::Intersection),
                    (Direction::Backward, Meet::Union),
                ] {
                    let p = GenKillProblem {
                        direction,
                        meet,
                        gen: random_sets(n, cap, &mut rng),
                        kill: random_sets(n, cap, &mut rng),
                        boundary: random_sets(1, cap, &mut rng).remove(0),
                    };
                    let want = p.solve(&g);
                    let rpo = match direction {
                        Direction::Forward => {
                            reverse_postorder(n, g.entry(), |u, out| out.extend(g.succs(u)))
                        }
                        Direction::Backward => {
                            reverse_postorder(n, g.exit(), |u, out| out.extend(g.preds(u)))
                        }
                    };
                    let ids: Vec<usize> = (0..n).collect();
                    for order in [&rpo, &ids] {
                        let what = format!("{direction:?}, {cap} bits, order {order:?}");
                        let (before, after, rounds) = solve(&g, &p, order, true);
                        for v in 0..n {
                            assert_eq!(before.row(v), want.before[v].words(), "{what}: {v}");
                            assert_eq!(after.row(v), want.after[v].words(), "{what}: {v}");
                        }
                        let (_, _, full) = solve(&g, &p, order, false);
                        assert_eq!(rounds, full, "{what}: rounds");
                        most_rounds = most_rounds.max(rounds);
                    }
                }
            }
        }
        assert!(
            most_rounds >= 3,
            "every sweep settled in {most_rounds} rounds"
        );
    }

    #[test]
    fn full_rows_hold_exactly_the_universe_in_every_block() {
        for cap in [0, 1, 64, 65, 130] {
            let full = WordRows::full(3, cap, 2);
            let empty = WordRows::new(3, cap, 2);
            for v in 0..3 {
                let row = full.row(v);
                assert_eq!(row.len(), 2 * cap.div_ceil(64));
                assert_eq!(empty.row(v).len(), row.len());
                assert!(empty.row(v).iter().all(|&w| w == 0));
                for block in row.chunks(cap.div_ceil(64).max(1)) {
                    assert_eq!(block, BitSet::full(cap).words(), "{cap} bits");
                }
            }
        }
    }

    #[test]
    fn reverse_postorder_lists_unreachable_nodes_last() {
        // 0 → 1 → 2 → 1, 0 → 3; node 4 only reaches 2.
        let g = SimpleGraph::from_edges(5, &[(0, 1), (1, 2), (2, 1), (0, 3), (4, 2)], 0, 3);
        let order = reverse_postorder(5, 0, |u, out| out.extend(g.succs(u)));
        assert_eq!(order[0], 0);
        let at = |v| order.iter().position(|&x| x == v).unwrap();
        assert!(at(1) < at(2));
        assert_eq!(order[4], 4);
    }
}
