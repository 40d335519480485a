//! An independent interval oracle for `gnt-cfg`: Allen–Cocke first-order
//! intervals and the derived-graph sequence, built from plain successor
//! lists with Cifuentes' header-queue algorithm (Reverse Compilation
//! Techniques, 1994, Fig. 6.8). It shares no code with `interval.rs` or
//! `dom.rs` and checks what the two definitions of loop structure agree
//! on:
//!
//! * on a lowered (or hand-built) CFG, the derived sequence collapses to
//!   one node exactly when `back_edges` finds no irreducible retreating
//!   edge;
//! * on the interval graph `gnt-cfg` builds, every Tarjan loop header is
//!   the header of a first-order interval, and the real edges form a
//!   reducible graph.
//!
//! Cases: the example programs, `sized_program` at three sizes, random
//! programs with `goto_prob` 0 and 0.6 (more under `GNT_STRESS`), random
//! small digraphs, and hand-made irreducible CFGs before and after
//! `make_reducible`.

use gnt_cfg::{
    back_edges, lower, make_reducible, Cfg, Dominators, IntervalGraph, NodeId, NodeKind, SynthKind,
};
use gnt_core::{random_program, sized_program, GenConfig};
use gnt_ir::{parse, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NONE: usize = usize::MAX;

/// A digraph over `0..succs.len()` with an entry node.
struct Digraph {
    succs: Vec<Vec<usize>>,
    entry: usize,
}

impl Digraph {
    fn of_cfg(cfg: &Cfg) -> Digraph {
        Digraph {
            succs: cfg
                .nodes()
                .map(|n| cfg.succs(n).iter().map(|s| s.index()).collect())
                .collect(),
            entry: cfg.entry().index(),
        }
    }

    /// The concrete flow of an interval graph: its real (CEFJ) edges.
    fn of_graph(g: &IntervalGraph) -> Digraph {
        Digraph {
            succs: g
                .nodes()
                .map(|n| g.real_succ_edges(n).map(|(s, _)| s.index()).collect())
                .collect(),
            entry: g.root().index(),
        }
    }

    /// Nodes reachable from the entry.
    fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.succs.len()];
        let mut stack = vec![self.entry];
        seen[self.entry] = true;
        while let Some(x) = stack.pop() {
            for &s in &self.succs[x] {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }
}

/// The first-order intervals of the part of `g` reachable from its
/// entry: each node's interval number (`NONE` when unreachable) and
/// each interval's header, in discovery order (the entry's is 0).
///
/// An interval `I(h)` grows from `h` by any unpartitioned node whose
/// predecessors all lie in `I(h)`; every unpartitioned node with a
/// predecessor in `I(h)` then joins the header queue.
fn intervals(g: &Digraph) -> (Vec<usize>, Vec<usize>) {
    let n = g.succs.len();
    let reach = g.reachable();
    let mut preds = vec![Vec::new(); n];
    for (x, succs) in g.succs.iter().enumerate() {
        if reach[x] {
            for &s in succs {
                preds[s].push(x);
            }
        }
    }
    let mut of = vec![NONE; n];
    let mut queued = vec![false; n];
    let mut headers = vec![g.entry];
    queued[g.entry] = true;
    let mut next = 0;
    while next < headers.len() {
        let (id, h) = (next, headers[next]);
        next += 1;
        of[h] = id;
        let mut members = vec![h];
        let mut grew = true;
        while grew {
            grew = false;
            for i in 0..members.len() {
                for &s in &g.succs[members[i]] {
                    if of[s] == NONE && !queued[s] && preds[s].iter().all(|&p| of[p] == id) {
                        of[s] = id;
                        members.push(s);
                        grew = true;
                    }
                }
            }
        }
        for &m in &members {
            for &s in &g.succs[m] {
                if of[s] == NONE && !queued[s] {
                    queued[s] = true;
                    headers.push(s);
                }
            }
        }
    }
    (of, headers)
}

/// The derived graph: one node per interval, an edge between two
/// intervals when an edge of `g` leaves the first for the second.
fn derived(g: &Digraph) -> Digraph {
    let (of, headers) = intervals(g);
    let mut succs = vec![Vec::new(); headers.len()];
    for (x, out) in g.succs.iter().enumerate() {
        if of[x] == NONE {
            continue;
        }
        for &s in out {
            if of[s] != of[x] && !succs[of[x]].contains(&of[s]) {
                succs[of[x]].push(of[s]);
            }
        }
    }
    Digraph { succs, entry: 0 }
}

/// Whether the derived sequence of `g` ends in a single node. The
/// sequence has reached its limit when a derivation merges nothing;
/// that test starts at the first derived graph, because a self loop in
/// `g` keeps a node out of every interval but its own without making
/// `g` irreducible.
fn collapses(g: &Digraph) -> bool {
    let mut g = derived(g);
    loop {
        if g.succs.len() == 1 {
            return true;
        }
        let d = derived(&g);
        if d.succs.len() == g.succs.len() {
            return false;
        }
        g = d;
    }
}

/// Check 1 on a CFG: interval reducibility agrees with `back_edges`.
fn check_cfg(name: &str, cfg: &Cfg) -> bool {
    let reducible = back_edges(cfg, &Dominators::compute(cfg)).is_ok();
    assert_eq!(
        collapses(&Digraph::of_cfg(cfg)),
        reducible,
        "{name}: the derived sequence disagrees with back_edges"
    );
    reducible
}

/// Check 2 on a built graph: every loop header heads a first-order
/// interval, and the concrete flow is reducible.
fn check_graph(name: &str, g: &IntervalGraph) {
    let flow = Digraph::of_graph(g);
    let (of, headers) = intervals(&flow);
    for n in g.nodes().filter(|&n| g.is_loop_header(n)) {
        assert_ne!(of[n.index()], NONE, "{name}: loop header {n} unreachable");
        assert_eq!(
            headers[of[n.index()]],
            n.index(),
            "{name}: loop header {n} is inside the interval of n{}",
            headers[of[n.index()]]
        );
    }
    assert!(collapses(&flow), "{name}: built graph is not reducible");
}

/// Both checks on a program.
fn check_program(name: &str, program: &Program) {
    let cfg = lower(program).expect("lowers").cfg;
    assert!(check_cfg(name, &cfg), "{name}: lowered CFG is irreducible");
    let g = IntervalGraph::from_cfg(cfg).expect("interval graph");
    check_graph(name, &g);
}

/// Stress multiplier from the environment (`GNT_STRESS`, default 1).
fn stress() -> usize {
    std::env::var("GNT_STRESS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// A hand-made case: name, plain node count, edges, and whether the
/// graph is reducible.
type Handmade = (&'static str, usize, &'static [(u32, u32)], bool);

/// A CFG of `n` plain nodes after entry and exit (ids 2..2+n) with the
/// given edges; `0` is the entry and `1` the exit.
fn handmade(n: usize, edges: &[(u32, u32)]) -> Cfg {
    let mut cfg = Cfg::new();
    for _ in 0..n {
        cfg.add_node(NodeKind::Synthetic(SynthKind::EdgeSplit));
    }
    for &(a, b) in edges {
        cfg.add_edge(NodeId(a), NodeId(b));
    }
    cfg
}

#[test]
fn example_programs_agree_with_the_interval_oracle() {
    let dir = format!("{}/../../examples", env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("examples dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "minif") {
            let src = std::fs::read_to_string(&path).expect("example readable");
            check_program(&path.display().to_string(), &parse(&src).expect("parses"));
            seen += 1;
        }
    }
    assert!(seen >= 3, "expected the figure examples in {dir}");
}

#[test]
fn sized_programs_agree_with_the_interval_oracle() {
    for size in [50, 500, 3000] {
        check_program(&format!("sized_program({size})"), &sized_program(size));
    }
}

#[test]
fn random_programs_agree_with_the_interval_oracle() {
    for goto_prob in [0.0, 0.6] {
        let config = GenConfig {
            goto_prob,
            ..GenConfig::default()
        };
        for seed in 0..(40 * stress()) as u64 {
            check_program(
                &format!("random seed {seed}, goto_prob {goto_prob}"),
                &random_program(seed, &config),
            );
        }
    }
}

#[test]
fn gotos_out_of_and_into_loops_agree_with_the_interval_oracle() {
    let reducible = [
        "do i = 1, N\n  if t(i) goto 7\n  a = 1\nenddo\n7 b = 2",
        "do i = 1, N\n  do j = 1, M\n    if t(j) goto 5\n    x(j) = 1\n  enddo\n5 z(i) = 1\nenddo",
        "if t goto 5\n5 continue",
        "goto 9\na = 1\n9 continue",
        "do i = 1, N\nenddo",
    ];
    for src in reducible {
        check_program(src, &parse(src).expect("parses"));
    }
    // A goto into a sibling loop's body: a second entry into that loop.
    let src = "do i = 1, N\n  if t(i) goto 5\n  a = 1\nenddo\ndo j = 1, N\n  5 b = 2\nenddo";
    let mut cfg = lower(&parse(src).expect("parses")).expect("lowers").cfg;
    assert!(!check_cfg(src, &cfg), "a goto into a loop is irreducible");
    make_reducible(&mut cfg, 64).expect("repairable");
    assert!(check_cfg(src, &cfg), "make_reducible leaves it reducible");
}

#[test]
fn handmade_cfgs_agree_with_the_interval_oracle() {
    let cases: [Handmade; 6] = [
        // entry → a, entry → b, a ⇄ b: the classic two-entry cycle.
        (
            "two_entry_cycle",
            2,
            &[(0, 2), (0, 3), (2, 3), (3, 2), (2, 1)],
            false,
        ),
        // A loop entered at its header and in its middle.
        (
            "side_entry",
            3,
            &[(0, 2), (2, 3), (3, 4), (4, 2), (0, 3), (4, 1)],
            false,
        ),
        // Two nested cycles sharing an irreducible inner entry.
        (
            "nested_side_entry",
            4,
            &[
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 3),
                (4, 5),
                (5, 2),
                (2, 4),
                (5, 1),
            ],
            false,
        ),
        // h=2 branches into a=3 and b=4, which join at c=5 before the
        // back edge; h also exits.
        (
            "branchy_header",
            4,
            &[(0, 2), (2, 3), (2, 4), (3, 5), (4, 5), (5, 2), (2, 1)],
            true,
        ),
        // h=2 → a=3 → b=4, with back edges from a and b.
        (
            "two_back_edges",
            3,
            &[(0, 2), (2, 3), (3, 2), (3, 4), (4, 2), (2, 1)],
            true,
        ),
        // h1=2 ⊃ h2=3 ∋ x=4, and x jumps to y=6 past both loops.
        (
            "deep_jump",
            5,
            &[
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 3),
                (4, 6),
                (3, 5),
                (5, 2),
                (2, 6),
                (6, 1),
            ],
            true,
        ),
    ];
    for (name, n, edges, reducible) in cases {
        let mut cfg = handmade(n, edges);
        assert_eq!(check_cfg(name, &cfg), reducible, "{name}");
        if !reducible {
            assert!(make_reducible(&mut cfg, 64).expect("repairable") >= 1);
            assert!(check_cfg(name, &cfg), "{name}: repaired");
        }
        match IntervalGraph::from_cfg(cfg) {
            Ok(g) => check_graph(name, &g),
            Err(e) => assert!(!reducible, "{name}: {e}"),
        }
    }
}

#[test]
fn random_digraphs_agree_with_the_interval_oracle() {
    let (mut reducible, mut irreducible) = (0, 0);
    for seed in 0..(400 * stress()) as u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..8);
        let mut edges = vec![(0, 2)];
        for _ in 0..rng.gen_range(n..3 * n + 2) {
            let src = if rng.gen_range(0..4) == 0 {
                0
            } else {
                rng.gen_range(2..n as u32 + 2)
            };
            edges.push((src, rng.gen_range(1..n as u32 + 2)));
        }
        let cfg = handmade(n, &edges);
        if check_cfg(&format!("random digraph {seed}"), &cfg) {
            reducible += 1;
        } else {
            irreducible += 1;
        }
    }
    assert!(
        reducible >= 40 && irreducible >= 40,
        "{reducible} reducible, {irreducible} irreducible"
    );
}
