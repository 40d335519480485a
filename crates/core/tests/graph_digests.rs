//! Golden digests of the interval flow graphs: an FNV-1a hash of
//! `IntervalGraph::dump()` for the forward and the reversed graph of
//! every example program, `sized_program` at three sizes, and random
//! programs with and without a `goto` out of a loop.
//!
//! `dump()` lists every node in preorder with its level, its kind and
//! its classified out-edges in stored order, so a digest that holds
//! pins node numbering, edge order, edge classes and the interval
//! structure of both orientations at once. Three hand-built CFGs add
//! shapes lowering never produces: a loop header branching into two
//! members (its reversed loop needs a latch), several back edges, and a
//! jump out of two loops from the middle of the inner one. The golden table lives in
//! `golden/graph_digests.txt`; on a mismatch the test prints the table
//! it computed.

use gnt_cfg::{reversed_graph, Cfg, IntervalGraph, NodeKind, SynthKind};
use gnt_core::{random_program, sized_program, GenConfig};
use gnt_ir::Program;

const GOLDEN: &str = include_str!("golden/graph_digests.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn programs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "minif"))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("example source");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        out.push((name, gnt_ir::parse(&text).expect("example parses")));
    }
    for size in [50, 500, 3000] {
        out.push((format!("sized_{size}"), sized_program(size)));
    }
    for (tag, goto_prob) in [("nogoto", 0.0), ("goto", 0.6)] {
        let config = GenConfig {
            goto_prob,
            ..GenConfig::default()
        };
        for seed in 0..40 {
            out.push((
                format!("random_{tag}_{seed}"),
                random_program(seed, &config),
            ));
        }
    }
    out
}

/// A CFG of `n` plain nodes after entry and exit (ids 2..2+n) with the
/// given edges; `0` is the entry and `1` the exit.
fn handmade(n: usize, edges: &[(u32, u32)]) -> Cfg {
    let mut cfg = Cfg::new();
    for _ in 0..n {
        cfg.add_node(NodeKind::Synthetic(SynthKind::EdgeSplit));
    }
    for &(a, b) in edges {
        cfg.add_edge(gnt_cfg::NodeId(a), gnt_cfg::NodeId(b));
    }
    cfg
}

fn graphs() -> Vec<(String, IntervalGraph)> {
    let mut out: Vec<(String, IntervalGraph)> = programs()
        .into_iter()
        .map(|(name, p)| (name, IntervalGraph::from_program(&p).expect("reducible")))
        .collect();
    // h=2 branches into a=3 and b=4, which join at c=5 before the back
    // edge; h also exits.
    let branchy_header = handmade(4, &[(0, 2), (2, 3), (2, 4), (3, 5), (4, 5), (5, 2), (2, 1)]);
    // h=2 → a=3 → b=4, with back edges from a and b.
    let two_back_edges = handmade(3, &[(0, 2), (2, 3), (3, 2), (3, 4), (4, 2), (2, 1)]);
    // h1=2 ⊃ h2=3 ∋ x=4, and x jumps to y=6 past both loops.
    let deep_jump = handmade(
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
    );
    for (name, cfg) in [
        ("handmade_branchy_header", branchy_header),
        ("handmade_two_back_edges", two_back_edges),
        ("handmade_deep_jump", deep_jump),
    ] {
        out.push((
            name.to_owned(),
            IntervalGraph::from_cfg(cfg).expect("reducible"),
        ));
    }
    out
}

fn table() -> String {
    let mut out = String::new();
    for (name, g) in graphs() {
        let r = reversed_graph(&g).expect("reversible graph");
        out.push_str(&format!(
            "{name} {} {:016x} {} {:016x}\n",
            g.num_nodes(),
            fnv1a(g.dump().as_bytes()),
            r.num_nodes(),
            fnv1a(r.dump().as_bytes()),
        ));
    }
    out
}

#[test]
fn both_orientations_dump_as_recorded() {
    let computed = table();
    assert!(
        computed == GOLDEN,
        "graph digests moved; computed table:\n{computed}"
    );
}

#[test]
fn the_random_cases_include_jumps_out_of_loops() {
    let config = GenConfig {
        goto_prob: 0.6,
        ..GenConfig::default()
    };
    let with_jumps = (0..40)
        .filter(|&seed| {
            let g = IntervalGraph::from_program(&random_program(seed, &config)).unwrap();
            let jumps = g
                .nodes()
                .any(|n| g.succ_edges(n).any(|(_, c)| c == gnt_cfg::EdgeClass::Jump));
            jumps
        })
        .count();
    assert!(with_jumps >= 10, "only {with_jumps} of 40 programs jump");
}
