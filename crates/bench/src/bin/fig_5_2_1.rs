//! Regenerates **Fig. 5.2.1**: average execution-time reduction under
//! different silicon-area constraints (20k / 40k / 80k / 160k / 320k µm²),
//! for every configuration `MI|SI × {machine preset} × {O0, O3}`.
//!
//! Each printed row is one bar of the figure; the columns are the stacked
//! area-constraint segments.
//!
//! Run with: `cargo run --release -p isex-bench --bin fig_5_2_1 [--quick]`

use isex_bench::{harness_from_args, pct, TextTable};
use isex_flow::experiment::{self, AREA_CONSTRAINTS};
use isex_workloads::Benchmark;

fn main() {
    let effort = harness_from_args()
        .unwrap_or_else(|e| {
            eprintln!("fig_5_2_1: {e}");
            std::process::exit(2)
        })
        .effort;
    println!("Fig. 5.2.1: execution-time reduction under silicon-area constraints");
    println!(
        "(7 benchmarks averaged; effort: {} repeats, {} iterations)\n",
        effort.repeats, effort.max_iterations
    );
    let header: Vec<String> = std::iter::once("configuration".to_string())
        .chain(
            AREA_CONSTRAINTS
                .iter()
                .map(|a| format!("{:.0}k", a / 1000.0)),
        )
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TextTable::new(&header_refs);
    for point in experiment::evaluation_configs() {
        let ms = experiment::area_sweep(&point, Benchmark::ALL, &effort, 0x521);
        let avgs = experiment::average_by_constraint(&ms, AREA_CONSTRAINTS);
        let mut row = vec![point.label.clone()];
        row.extend(avgs.iter().map(|(_, r)| pct(*r)));
        table.row(row);
        eprintln!("done: {}", point.label);
    }
    print!("{}", table.render());
}
