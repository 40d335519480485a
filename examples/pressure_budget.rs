//! The §6 extension: bounding message-buffer pressure.
//!
//! "Often the computations compete for resources, like registers or
//! message buffers" — the paper proposes inserting additional
//! `STEAL_init`s to block production. This example shows the trade: a
//! pipeline of independent gathers is fully overlapped by default
//! (all sends in flight at once); with a pressure budget the framework
//! staggers them.
//!
//! ```sh
//! cargo run --example pressure_budget
//! ```

use give_n_take::cfg::IntervalGraph;
use give_n_take::comm::{analyze, CommConfig};
use give_n_take::core::{
    measure_pressure, solve_with_pressure_limit_in_place, SolverOptions, SolverScratch,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = (0..6)
        .map(|i| format!("do k{i} = 1, N\n  ... = x{i}(a(k{i}))\nenddo"))
        .collect::<Vec<_>>()
        .join("\n");
    let program = give_n_take::ir::parse(&source)?;
    let arrays: Vec<String> = (0..6).map(|i| format!("x{i}")).collect();
    let refs: Vec<&str> = arrays.iter().map(String::as_str).collect();
    let analysis = analyze(&program, &CommConfig::distributed(&refs))?;
    let _ = IntervalGraph::from_program(&program)?; // the same graph shape

    println!("six independent gathers; in-flight budget sweep:");
    println!(
        "{:>8} {:>12} {:>14}",
        "budget", "max pending", "steals added"
    );
    // The pressure loop rolls its inserted steals back, so one working
    // copy of the problem and one scratch serve every budget.
    let mut problem = analysis.read_problem.clone();
    let mut scratch = SolverScratch::new();
    for budget in [usize::MAX, 3, 1] {
        let (solution, report) = solve_with_pressure_limit_in_place(
            &analysis.graph,
            &mut problem,
            &SolverOptions::default(),
            budget,
            64,
            &mut scratch,
        );
        let max = measure_pressure(&analysis.graph, &solution)
            .into_iter()
            .max()
            .unwrap_or(0);
        let label = if budget == usize::MAX {
            "none".to_string()
        } else {
            budget.to_string()
        };
        println!("{:>8} {:>12} {:>14}", label, max, report.steals.len());
    }
    Ok(())
}
