//! Reference suite for the delta-basis fingerprint
//! ([`delta_fingerprint`]).
//!
//! `reference_fingerprint` below is the full-graph hash the fingerprint
//! was first computed as: FNV-1a over the node count and, per node, its
//! classified successor edges, whether its `STEAL` is forced to ⊤ and
//! its jump-in sources. Over random graphs in both orientations, several
//! `poison()` sets and both [`SolverOptions`], the fingerprint under
//! test must tell apart exactly the pairs the reference tells apart.
//! Poisoning a header must change it, and `clone()` must keep it.

use gnt_cfg::{reversed_graph, EdgeClass, IntervalGraph, NodeId};
use gnt_core::{delta_fingerprint, random_program, sized_program, GenConfig, SolverOptions};
use std::collections::HashMap;

fn reference_fingerprint(graph: &IntervalGraph, opts: &SolverOptions) -> u64 {
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
        let poisoned =
            graph.is_poisoned(node) || (opts.no_zero_trip_hoist && graph.is_loop_header(node));
        mix(u64::from(poisoned));
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

/// The graph under option sets, some with more nodes poisoned: the
/// default, no zero-trip hoisting, every loop header poisoned, an id past
/// the graph poisoned, the last header poisoned twice, poisoned out of
/// order with the exit, and poisoned with the root under no zero-trip
/// hoisting.
fn option_sets(g: &IntervalGraph) -> Vec<(IntervalGraph, SolverOptions)> {
    let headers: Vec<NodeId> = g.nodes().filter(|&n| g.is_loop_header(n)).collect();
    let zero_trip = SolverOptions {
        no_zero_trip_hoist: true,
    };
    let poisoned = |nodes: &[NodeId], opts: &SolverOptions| {
        let mut p = g.clone();
        for &n in nodes {
            p.poison(n);
        }
        (p, opts.clone())
    };
    let default = SolverOptions::default();
    let mut out = vec![
        (g.clone(), default.clone()),
        (g.clone(), zero_trip.clone()),
        poisoned(&headers, &default),
        poisoned(&[NodeId(g.num_nodes() as u32 + 7)], &default),
    ];
    if let Some(&h) = headers.last() {
        out.push(poisoned(&[h, h], &default));
        out.push(poisoned(&[g.exit(), h], &default));
        out.push(poisoned(&[h, g.root()], &zero_trip));
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
            for (g, opts) in option_sets(&poisoned) {
                let (r, f) = (
                    reference_fingerprint(&g, &opts),
                    delta_fingerprint(&g, &opts),
                );
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
    let opts = SolverOptions::default();
    for g in base_graphs() {
        let fp = delta_fingerprint(&g, &opts);
        assert_eq!(delta_fingerprint(&g.clone(), &opts), fp);
        for h in g.nodes().filter(|&n| g.is_loop_header(n)) {
            let mut p = g.clone();
            p.poison(h);
            let poisoned = delta_fingerprint(&p, &opts);
            assert_ne!(poisoned, fp, "poisoning {h} left the fingerprint");
            assert_eq!(delta_fingerprint(&p.clone(), &opts), poisoned);
        }
    }
}
