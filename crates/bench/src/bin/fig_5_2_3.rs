//! Regenerates **Fig. 5.2.3**: silicon-area cost vs execution-time
//! reduction as the number of ISEs grows (1, 2, 4, 8, 16, 32), MI vs SI.
//!
//! The paper's observation: "most of \[the\] execution time reduction is
//! dominated by several ISEs, especially \[the\] first ISE … although
//! increasing the number of ISEs can boost performance, considerable
//! silicon area cost must be incurred."
//!
//! Run with: `cargo run --release -p isex-bench --bin fig_5_2_3 [--quick]`

use isex_bench::{harness_from_args, pct, TextTable};
use isex_flow::experiment::{self, ConfigPoint, ISE_COUNTS};
use isex_flow::Algorithm;
use isex_isa::MachineConfig;
use isex_workloads::{Benchmark, OptLevel};

fn main() {
    let effort = harness_from_args()
        .unwrap_or_else(|e| {
            eprintln!("fig_5_2_3: {e}");
            std::process::exit(2)
        })
        .effort;
    println!("Fig. 5.2.3: silicon-area cost vs execution-time reduction");
    println!(
        "(7 benchmarks averaged on the 2-issue 4/2 O3 configuration; effort: {} repeats, {} iterations)\n",
        effort.repeats, effort.max_iterations
    );
    let mut table = TextTable::new(&[
        "#ISEs",
        "MI area (um^2)",
        "SI area (um^2)",
        "MI time red.",
        "SI time red.",
    ]);
    let mut results: Vec<Vec<(f64, f64)>> = Vec::new(); // per-alg: (area, reduction) per count
    for algorithm in [Algorithm::MultiIssue, Algorithm::SingleIssue] {
        let point = ConfigPoint {
            label: format!("{algorithm}(4/2, 2IS, O3)"),
            machine: MachineConfig::preset_2issue_4r2w(),
            opt: OptLevel::O3,
            algorithm,
        };
        let ms = experiment::ise_count_sweep(&point, Benchmark::ALL, &effort, 0x523);
        let per_count: Vec<(f64, f64)> = ISE_COUNTS
            .iter()
            .map(|&c| {
                let xs: Vec<&experiment::Measurement> =
                    ms.iter().filter(|m| m.constraint == c as f64).collect();
                let area = xs.iter().map(|m| m.area_um2).sum::<f64>() / xs.len().max(1) as f64;
                let red = xs.iter().map(|m| m.reduction).sum::<f64>() / xs.len().max(1) as f64;
                (area, red)
            })
            .collect();
        results.push(per_count);
        eprintln!("done: {algorithm}");
    }
    for (i, &c) in ISE_COUNTS.iter().enumerate() {
        table.row(vec![
            c.to_string(),
            format!("{:.0}", results[0][i].0),
            format!("{:.0}", results[1][i].0),
            pct(results[0][i].1),
            pct(results[1][i].1),
        ]);
    }
    print!("{}", table.render());
    println!("\n(expected shape: the first ISE dominates the reduction; area keeps growing)");
}
