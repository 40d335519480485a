//! Golden digests of zero-trip-safe solves: one FNV-1a hash per input of
//! every exported row of `solve` (the ten consumption rows, then the
//! five rows of each flavor, node by node) with no consumption hoisted
//! out of any loop (§3.2 C2, §4.1), that is, with every loop header
//! poisoned.
//!
//! Inputs are the example programs, `sized_program(400)` and random
//! programs with and without a `goto` out of a loop; each is solved on
//! its forward graph and, passed to `solve` directly, on its reversed
//! graph, under a random problem. The golden table lives in
//! `golden/zero_trip_digests.txt`; on a mismatch the test prints the
//! table it computed.

use gnt_cfg::{reversed_graph, IntervalGraph};
use gnt_core::{
    random_problem, random_program, sized_program, solve, FlavorSolution, GenConfig, Solution,
    SolverOptions,
};
use gnt_dataflow::BitSet;
use gnt_ir::Program;

const GOLDEN: &str = include_str!("golden/zero_trip_digests.txt");

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
    out.push(("sized_400".into(), sized_program(400)));
    for (tag, goto_prob) in [("nogoto", 0.0), ("goto", 0.1)] {
        let config = GenConfig {
            goto_prob,
            ..GenConfig::default()
        };
        for seed in 0..16 {
            out.push((
                format!("random_{tag}_{seed}"),
                random_program(seed, &config),
            ));
        }
    }
    out
}

fn hash_rows(h: &mut u64, rows: &[BitSet]) {
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            *h ^= u64::from(byte);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(rows.len() as u64);
    for row in rows {
        eat(u64::MAX);
        for item in row.iter() {
            eat(item as u64);
        }
    }
}

fn solution_digest(sol: &Solution) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let v = &sol.vars;
    for rows in [
        &v.steal,
        &v.give,
        &v.block,
        &v.taken_out,
        &v.take,
        &v.taken_in,
        &v.block_loc,
        &v.take_loc,
        &v.give_loc,
        &v.steal_loc,
    ] {
        hash_rows(&mut h, rows);
    }
    for f in [&sol.eager, &sol.lazy] {
        let FlavorSolution {
            given_in,
            given,
            given_out,
            res_in,
            res_out,
        } = f;
        for rows in [given_in, given, given_out, res_in, res_out] {
            hash_rows(&mut h, rows);
        }
    }
    h
}

/// The digests of `graph` solved under a random problem keyed by
/// `seed`: with every loop header poisoned, and as it is.
fn digests(graph: &IntervalGraph, seed: u64) -> (u64, u64) {
    let problem = random_problem(seed, graph, 12, 0.3);
    let opts = SolverOptions::default();
    let mut safe = graph.clone();
    safe.poison_loop_headers();
    (
        solution_digest(&solve(&safe, &problem, &opts)),
        solution_digest(&solve(graph, &problem, &opts)),
    )
}

/// The table of zero-trip-safe digests, one line per input (forward,
/// then reversed), and how many solves hoisting changed.
fn table() -> (String, usize) {
    let mut out = String::new();
    let mut hoisted = 0;
    for (seed, (name, program)) in (0u64..).zip(programs()) {
        let forward = IntervalGraph::from_program(&program).expect("reducible");
        let reversed = reversed_graph(&forward).expect("reversible");
        let (fwd, fwd_hoisting) = digests(&forward, seed);
        let (rev, rev_hoisting) = digests(&reversed, seed);
        hoisted += usize::from(fwd != fwd_hoisting) + usize::from(rev != rev_hoisting);
        out.push_str(&format!("{name} {fwd:016x} {rev:016x}\n"));
    }
    (out, hoisted)
}

#[test]
fn zero_trip_safe_solutions_solve_as_recorded() {
    let (computed, hoisted) = table();
    assert!(
        computed == GOLDEN,
        "zero-trip-safe digests moved; computed table:\n{computed}"
    );
    // The table pins something only if switching hoisting off matters.
    assert!(hoisted >= 20, "hoisting changed only {hoisted} solves");
}
