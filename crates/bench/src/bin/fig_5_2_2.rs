//! Regenerates **Fig. 5.2.2**: average execution-time reduction for
//! different numbers of ISEs (1, 2, 4, 8, 16, 32), for every configuration
//! `MI|SI × {machine preset} × {O0, O3}`.
//!
//! Run with: `cargo run --release -p isex-bench --bin fig_5_2_2 [--quick]`

use isex_bench::{harness_from_args, pct, TextTable};
use isex_flow::experiment::{self, ISE_COUNTS};
use isex_workloads::Benchmark;

fn main() {
    let effort = harness_from_args()
        .unwrap_or_else(|e| {
            eprintln!("fig_5_2_2: {e}");
            std::process::exit(2)
        })
        .effort;
    println!("Fig. 5.2.2: execution-time reduction for different numbers of ISEs");
    println!(
        "(7 benchmarks averaged; effort: {} repeats, {} iterations)\n",
        effort.repeats, effort.max_iterations
    );
    let header: Vec<String> = std::iter::once("configuration".to_string())
        .chain(ISE_COUNTS.iter().map(|c| format!("{c} ISE")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TextTable::new(&header_refs);
    let counts: Vec<f64> = ISE_COUNTS.iter().map(|&c| c as f64).collect();
    for point in experiment::evaluation_configs() {
        let ms = experiment::ise_count_sweep(&point, Benchmark::ALL, &effort, 0x522);
        let avgs = experiment::average_by_constraint(&ms, &counts);
        let mut row = vec![point.label.clone()];
        row.extend(avgs.iter().map(|(_, r)| pct(*r)));
        table.row(row);
        eprintln!("done: {}", point.label);
    }
    print!("{}", table.render());
}
