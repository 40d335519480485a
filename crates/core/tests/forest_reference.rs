//! Reference suite for the linear-time loop forests of `gnt-cfg`:
//! [`LoopForest::from_back_edges`] (the forward forest) and
//! [`reversed_loops`] (the forest transferred to the reversed graph of an
//! AFTER problem) must build exactly the loops the original quadratic
//! constructions built — same headers, same members in the same order,
//! same parents and depths — and the reversed graph must not move.
//!
//! `reference_from_back_edges` and `reference_reversed_loops` below are
//! those original constructions, kept verbatim as oracles. Cases: the
//! example programs, a large `sized_program`, random programs (more under
//! `GNT_STRESS`), and programs with a `goto` out of a loop, placed before
//! and after the loop's write.

use gnt_cfg::{
    back_edges, lower, reversed_graph, reversed_graph_with_loops, reversed_loops, Cfg, Dominators,
    IntervalGraph, LoopForest, LoopId, LoopInfo, NodeId,
};
use gnt_core::{random_program, sized_program, GenConfig};
use gnt_ir::{parse, Program};

/// `LoopForest::from_back_edges` before it went linear, up to the
/// per-node tables (which `LoopForest::from_parts` derives from the loops).
fn reference_from_back_edges(cfg: &Cfg, backs: &[(NodeId, NodeId)]) -> Vec<LoopInfo> {
    let n = cfg.num_nodes();
    // header node → member marks
    let mut bodies: Vec<(NodeId, Vec<bool>)> = Vec::new();
    for &(tail, header) in backs {
        let entry = bodies.iter().position(|(h, _)| *h == header);
        let idx = match entry {
            Some(i) => i,
            None => {
                bodies.push((header, vec![false; n]));
                bodies.len() - 1
            }
        };
        // Natural loop: nodes that reach `tail` without passing `header`.
        let marks = &mut bodies[idx].1;
        let mut stack = vec![tail];
        while let Some(x) = stack.pop() {
            if x == header || marks[x.index()] {
                continue;
            }
            marks[x.index()] = true;
            for &p in cfg.preds(x) {
                stack.push(p);
            }
        }
    }
    // Sort by body size so parents (larger) come later; assign ids in
    // ascending size so an inner loop has a smaller member count.
    bodies.sort_by_key(|(_, marks)| marks.iter().filter(|&&b| b).count());
    let mut loops: Vec<LoopInfo> = bodies
        .iter()
        .map(|(h, marks)| LoopInfo {
            header: *h,
            members: (0..n as u32)
                .map(NodeId)
                .filter(|x| marks[x.index()])
                .collect(),
            parent: None,
            depth: 0,
        })
        .collect();
    // Parent: the smallest strictly-larger loop containing this header.
    for i in 0..loops.len() {
        let header = loops[i].header;
        for (j, candidate) in loops.iter().enumerate().skip(i + 1) {
            if candidate.members.contains(&header) {
                loops[i].parent = Some(LoopId(j as u32));
                break;
            }
        }
    }
    for i in 0..loops.len() {
        let mut depth = 1;
        let mut cur = loops[i].parent;
        while let Some(p) = cur {
            depth += 1;
            cur = loops[p.index()].parent;
        }
        loops[i].depth = depth;
    }
    loops
}

/// The forest transfer `reversed_graph` made before it went linear.
fn reference_reversed_loops(g: &IntervalGraph) -> Vec<LoopInfo> {
    // 2. Transfer the loop forest: identical headers and member sets.
    let mut loops: Vec<LoopInfo> = g
        .nodes()
        .filter(|&n| g.is_loop_header(n))
        .map(|h| LoopInfo {
            header: h,
            members: g
                .nodes()
                .filter(|&n| g.enclosing_headers(n).contains(&h))
                .collect(),
            parent: None,
            depth: g.level(h),
        })
        .collect();
    loops.sort_by_key(|l| l.members.len());
    // Parent links by membership of headers.
    let parents: Vec<Option<usize>> = loops
        .iter()
        .map(|l| {
            loops
                .iter()
                .position(|outer| outer.members.contains(&l.header))
        })
        .collect();
    for (i, p) in parents.into_iter().enumerate() {
        loops[i].parent = p.map(|j| LoopId(j as u32));
    }
    loops
}

type LoopKey = (NodeId, Vec<NodeId>, Option<LoopId>, usize);

fn keys(loops: &[LoopInfo]) -> Vec<LoopKey> {
    loops
        .iter()
        .map(|l| (l.header, l.members.clone(), l.parent, l.depth))
        .collect()
}

/// Both forests of `program` against their references.
fn check(name: &str, program: &Program) {
    // Forward: the CFG `IntervalGraph::from_cfg` computes its forest on.
    let mut cfg = lower(program).expect("lowers").cfg;
    cfg.prune_unreachable();
    let dom = Dominators::compute(&cfg);
    let backs = back_edges(&cfg, &dom).expect("reducible");
    let forest = LoopForest::from_back_edges(&cfg, &backs);
    assert_eq!(
        keys(forest.loops()),
        keys(&reference_from_back_edges(&cfg, &backs)),
        "{name}: forward forest"
    );

    // Reversed: the transfer, and the reversed graph built around it.
    let g = IntervalGraph::from_program(program).expect("interval graph");
    let reference = reference_reversed_loops(&g);
    assert_eq!(
        keys(&reversed_loops(&g)),
        keys(&reference),
        "{name}: reversed transfer"
    );
    let r = reversed_graph(&g).expect("reverses");
    let r_ref = reversed_graph_with_loops(&g, reference).expect("reverses");
    assert_eq!(r.dump(), r_ref.dump(), "{name}: reversed graph");
}

/// Stress multiplier from the environment (`GNT_STRESS`, default 1).
fn stress() -> usize {
    std::env::var("GNT_STRESS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

#[test]
fn example_programs_match_the_reference_forests() {
    let dir = format!("{}/../../examples", env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("examples dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "minif") {
            let src = std::fs::read_to_string(&path).expect("example readable");
            check(&path.display().to_string(), &parse(&src).expect("parses"));
            seen += 1;
        }
    }
    assert!(seen >= 3, "expected the figure examples in {dir}");
}

#[test]
fn sized_program_matches_the_reference_forests() {
    check("sized_program(2000)", &sized_program(2000));
}

#[test]
fn random_programs_match_the_reference_forests() {
    let config = GenConfig {
        max_depth: 4,
        max_block_len: 5,
        loop_prob: 0.45,
        ..GenConfig::default()
    };
    for seed in 0..(48 * stress()) as u64 {
        check(
            &format!("random seed {seed}"),
            &random_program(seed, &config),
        );
    }
}

#[test]
fn gotos_out_of_loops_match_the_reference_forests() {
    let cases = [
        // Out of a loop, before and after its write.
        "do i = 1, N\n  if t(i) goto 7\n  x(a(i)) = y(i)\nenddo\n7 b = 2",
        "do i = 1, N\n  x(a(i)) = y(i)\n  if t(i) goto 7\nenddo\n7 b = 2",
        // Out of an inner loop into the outer body, before and after.
        "do i = 1, N\n  do j = 1, M\n    if t(j) goto 5\n    x(a(j)) = y(j)\n  enddo\n5 z(i) = 1\nenddo",
        "do i = 1, N\n  do j = 1, M\n    x(a(j)) = y(j)\n    if t(j) goto 5\n  enddo\n5 z(i) = 1\nenddo",
        // Out of both loops at once, next to a sibling loop.
        "do i = 1, N\n  do j = 1, M\n    x(a(j)) = y(j)\n    if t(j) goto 7\n  enddo\nenddo\n\
         do k = 1, N\n  w(k) = x(a(k))\nenddo\n7 b = 2",
    ];
    for src in cases {
        check(src, &parse(src).expect("parses"));
    }
}
