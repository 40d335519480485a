//! Reference suite for the delta-basis fingerprint
//! ([`IntervalGraph::fingerprint`]).
//!
//! `reference_fingerprint` below is the full-graph hash the fingerprint
//! was first computed as: FNV-1a over the node count and, per node, its
//! classified successor edges, whether its `STEAL` is forced to ⊤ and
//! its jump-in sources. Over random graphs in both orientations and
//! several `poison()` sets, the fingerprint under test must tell apart
//! exactly the pairs the reference tells apart. Poisoning a header must
//! change it, and `clone()` must keep it.

use gnt_cfg::{reversed_graph, EdgeClass, IntervalGraph, NodeId};
use gnt_core::{random_program, sized_program, GenConfig};
use std::collections::HashMap;

fn reference_fingerprint(graph: &IntervalGraph) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    let class_tag = |c: EdgeClass| -> u64 {
        match c {
            EdgeClass::Entry => 1,
            EdgeClass::Cycle => 2,
            EdgeClass::Jump => 3,
            EdgeClass::Forward => 4,
            EdgeClass::Synthetic => 5,
            EdgeClass::JumpIn => 6,
        }
    };
    mix(graph.num_nodes() as u64);
    for node in graph.nodes() {
        mix(0xE0E0);
        for (s, c) in graph.succ_edges(node) {
            mix((u64::from(s.0) << 3) | class_tag(c));
        }
        mix(u64::from(graph.is_poisoned(node)));
        for &j in graph.jump_in_sources(node) {
            mix(0x1000_0000 | u64::from(j.0));
        }
    }
    h
}

fn stress() -> u64 {
    std::env::var("GNT_STRESS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Forward and reversed graphs of random programs (with and without a
/// `goto` out of a loop) and of a small `sized_program`.
fn base_graphs() -> Vec<IntervalGraph> {
    let mut out = Vec::new();
    for goto_prob in [0.0, 0.6] {
        let config = GenConfig {
            goto_prob,
            ..GenConfig::default()
        };
        for seed in 0..12 * stress() {
            let g = IntervalGraph::from_program(&random_program(seed, &config)).unwrap();
            out.push(reversed_graph(&g).unwrap());
            out.push(g);
        }
    }
    let g = IntervalGraph::from_program(&sized_program(40)).unwrap();
    out.push(reversed_graph(&g).unwrap());
    out.push(g);
    out
}

/// The graph under several poison sets: none, the first loop header,
/// every loop header, a non-header node, the root, and one header
/// poisoned twice.
fn poisonings(g: &IntervalGraph) -> Vec<IntervalGraph> {
    let headers: Vec<NodeId> = g.nodes().filter(|&n| g.is_loop_header(n)).collect();
    let plain = g.nodes().find(|&n| n != g.root() && !g.is_header(n));
    let mut out = vec![g.clone()];
    let mut poisoned = |nodes: &[NodeId]| {
        let mut p = g.clone();
        for &n in nodes {
            p.poison(n);
        }
        out.push(p);
    };
    if let Some(&h) = headers.first() {
        poisoned(&[h]);
        poisoned(&[h, h]);
    }
    poisoned(&headers);
    poisoned(&plain.into_iter().collect::<Vec<_>>());
    poisoned(&[g.root()]);
    out
}

/// The graph under more poison sets: none, every loop header by
/// [`IntervalGraph::poison_loop_headers`] and one by one, an id past the
/// graph, the last header poisoned twice, poisoned out of order with
/// the exit, and poisoned with the root and then every loop header.
fn more_poisonings(g: &IntervalGraph) -> Vec<IntervalGraph> {
    let headers: Vec<NodeId> = g.nodes().filter(|&n| g.is_loop_header(n)).collect();
    let poisoned = |nodes: &[NodeId]| {
        let mut p = g.clone();
        for &n in nodes {
            p.poison(n);
        }
        p
    };
    let all_headers = |mut p: IntervalGraph| {
        p.poison_loop_headers();
        p
    };
    let mut out = vec![
        g.clone(),
        all_headers(g.clone()),
        poisoned(&headers),
        poisoned(&[NodeId(g.num_nodes() as u32 + 7)]),
    ];
    if let Some(&h) = headers.last() {
        out.push(poisoned(&[h, h]));
        out.push(poisoned(&[g.exit(), h]));
        out.push(all_headers(poisoned(&[h, g.root()])));
    }
    out
}

#[test]
fn the_fingerprint_distinguishes_exactly_what_the_reference_does() {
    // reference value → fingerprint under test, and back.
    let mut forward: HashMap<u64, u64> = HashMap::new();
    let mut backward: HashMap<u64, u64> = HashMap::new();
    let mut cases = 0usize;
    for base in base_graphs() {
        for poisoned in poisonings(&base) {
            for g in more_poisonings(&poisoned) {
                let (r, f) = (reference_fingerprint(&g), g.fingerprint());
                assert_eq!(
                    *forward.entry(r).or_insert(f),
                    f,
                    "one schedule, two fingerprints"
                );
                assert_eq!(
                    *backward.entry(f).or_insert(r),
                    r,
                    "two schedules, one fingerprint"
                );
                cases += 1;
            }
        }
    }
    // The cases must collide under the reference as well as differ,
    // or the bijection above tests nothing.
    assert!(
        forward.len() < cases && forward.len() > cases / 4,
        "{} of {cases}",
        forward.len()
    );
}

#[test]
fn poisoning_a_header_changes_the_fingerprint_and_clone_keeps_it() {
    for g in base_graphs() {
        let fp = g.fingerprint();
        assert_eq!(g.clone().fingerprint(), fp);
        for h in g.nodes().filter(|&n| g.is_loop_header(n)) {
            let mut p = g.clone();
            p.poison(h);
            let poisoned = p.fingerprint();
            assert_ne!(poisoned, fp, "poisoning {h} left the fingerprint");
            assert_eq!(p.clone().fingerprint(), poisoned);
        }
    }
}
