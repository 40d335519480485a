//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. zero-trip hoisting on/off — productions placed and simulated
//!    messages on the paper kernels;
//! 2. the §5.4 shift pass on/off — how many synthetic nodes would need
//!    materialized basic blocks;
//! 3. the §5.3 optimistic AFTER solve — how often the conservative
//!    fallback triggers on random jump-bearing programs;
//! 4. the §6 pressure limiter — bounded buffers versus exposed latency.
//!
//! ```sh
//! cargo run -p gnt-bench --bin table_ablations --release
//! ```

use gnt_bench::{plan_for, rule, KERNELS};
use gnt_cfg::IntervalGraph;
use gnt_core::{
    measure_pressure, random_problem, random_program, shift_off_synthetic, solve,
    solve_with_pressure_limit_in_place, GenConfig, SolverOptions, SolverScratch,
};
use gnt_sim::{simulate, Mode, SimConfig};

fn main() {
    ablation_zero_trip();
    ablation_shift();
    ablation_after_fallback();
    ablation_pressure();
}

/// 1. Zero-trip hoisting: with it off, production stays inside loops.
fn ablation_zero_trip() {
    println!("== ablation 1: zero-trip hoisting (EAGER productions placed) ==");
    println!("{:>10} {:>10} {:>10}", "kernel", "hoist on", "hoist off");
    rule(34);
    for kernel in KERNELS {
        let program = gnt_ir::parse(kernel.source).unwrap();
        let analysis = gnt_comm::analyze(
            &program,
            &gnt_comm::CommConfig::distributed(kernel.distributed),
        )
        .unwrap();
        let on = solve(
            &analysis.graph,
            &analysis.read_problem,
            &SolverOptions::default(),
        );
        let off = solve(
            &analysis.graph,
            &analysis.read_problem,
            &SolverOptions {
                no_zero_trip_hoist: true,
            },
        );
        println!(
            "{:>10} {:>10} {:>10}",
            kernel.name,
            on.eager.num_productions(),
            off.eager.num_productions()
        );
    }
    println!();
}

/// 2. The §5.4 shift pass: productions stuck on synthetic nodes.
fn ablation_shift() {
    println!("== ablation 2: §5.4 synthetic-node shifting ==");
    println!(
        "{:>8} {:>22} {:>22}",
        "", "synthetic productions", "synthetic productions"
    );
    println!(
        "{:>8} {:>22} {:>22}",
        "kernel", "without shift", "with shift"
    );
    rule(56);
    for kernel in KERNELS {
        let program = gnt_ir::parse(kernel.source).unwrap();
        let analysis = gnt_comm::analyze(
            &program,
            &gnt_comm::CommConfig::distributed(kernel.distributed),
        )
        .unwrap();
        let graph = &analysis.graph;
        let count_synthetic = |sol: &gnt_core::FlavorSolution| {
            graph
                .nodes()
                .filter(|&n| graph.kind(n).is_synthetic())
                .map(|n| sol.res_in[n.index()].len() + sol.res_out[n.index()].len())
                .sum::<usize>()
        };
        let solution = solve(graph, &analysis.read_problem, &SolverOptions::default());
        let before = count_synthetic(&solution.eager) + count_synthetic(&solution.lazy);
        let mut shifted = solution.clone();
        shift_off_synthetic(graph, &mut shifted.eager);
        shift_off_synthetic(graph, &mut shifted.lazy);
        let after = count_synthetic(&shifted.eager) + count_synthetic(&shifted.lazy);
        println!("{:>8} {:>22} {:>22}", kernel.name, before, after);
    }
    println!();
}

/// 3. How often the optimistic AFTER solve needs the §5.3 fallback.
fn ablation_after_fallback() {
    println!("== ablation 3: §5.3 AFTER problems on jump-bearing programs ==");
    let config = GenConfig {
        goto_prob: 0.9,
        ..Default::default()
    };
    let mut with_jumps = 0usize;
    let mut fell_back = 0usize;
    for seed in 0..400u64 {
        let program = random_program(seed, &config);
        let graph = IntervalGraph::from_program(&program).unwrap();
        let has_jump = graph.nodes().any(|n| {
            graph
                .succ_edges(n)
                .any(|(_, c)| c == gnt_cfg::EdgeClass::Jump)
        });
        if !has_jump {
            continue;
        }
        with_jumps += 1;
        let problem = random_problem(seed, &graph, 2, 0.4);
        let after = gnt_core::solve_after(&graph, &problem, &SolverOptions::default()).unwrap();
        // Fallback happened iff some header got poisoned.
        if after
            .reversed
            .nodes()
            .any(|h| after.reversed.is_poisoned(h))
        {
            fell_back += 1;
        }
    }
    println!(
        "programs with jumps: {with_jumps}; conservative fallback used: {fell_back} \
         ({:.1}%)\n",
        100.0 * fell_back as f64 / with_jumps.max(1) as f64
    );
}

/// 4. Pressure limiting: buffers versus exposed latency on a wide
///    pipeline of independent gathers.
fn ablation_pressure() {
    println!("== ablation 4: §6 pressure limiter (8 independent gathers) ==");
    let src = (0..8)
        .map(|i| format!("do k{i} = 1, N\n  ... = x{i}(a(k{i}))\nenddo"))
        .collect::<Vec<_>>()
        .join("\n");
    let program = gnt_ir::parse(&src).unwrap();
    let arrays: Vec<String> = (0..8).map(|i| format!("x{i}")).collect();
    let array_refs: Vec<&str> = arrays.iter().map(String::as_str).collect();
    let analysis =
        gnt_comm::analyze(&program, &gnt_comm::CommConfig::distributed(&array_refs)).unwrap();
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "limit", "max pending", "productions", "steals added"
    );
    rule(48);
    let mut problem = analysis.read_problem.clone();
    let mut scratch = SolverScratch::new();
    for limit in [usize::MAX, 4, 2, 1] {
        let (solution, report) = solve_with_pressure_limit_in_place(
            &analysis.graph,
            &mut problem,
            &SolverOptions::default(),
            limit,
            64,
            &mut scratch,
        );
        let max = measure_pressure(&analysis.graph, &solution)
            .into_iter()
            .max()
            .unwrap_or(0);
        let label = if limit == usize::MAX {
            "∞".to_string()
        } else {
            limit.to_string()
        };
        println!(
            "{:>8} {:>12} {:>12} {:>12}",
            label,
            max,
            solution.eager.num_productions(),
            report.steals.len()
        );
    }
    println!();
    // And the latency cost of bounding buffers, via the simulator.
    let (program2, plan) = plan_for(&KERNELS[0]);
    let config = SimConfig::with_n(256);
    let r = simulate(&program2, &plan, &config, Mode::GiveNTake);
    println!(
        "(reference: fig1 unbounded hides {:.0} time units of latency)",
        r.hidden_time
    );
}
