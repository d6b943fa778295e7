//! Regenerates the paper's **headline numbers** (abstract / Ch. 6):
//!
//! * with a single ISE, execution-time reduction vs no-ISE of
//!   max 17.17% / min 12.9% / avg 14.79% across configurations;
//! * under the same area constraint, MI's further reduction over SI of
//!   max 11.39% / min 2.87% / avg 7.16%.
//!
//! Run with: `cargo run --release -p isex-bench --bin headline [--quick]`

use isex_bench::{harness_from_args, pct, TextTable};
use isex_flow::experiment::{self, ConfigPoint};
use isex_flow::select::Budgets;
use isex_flow::{self as flow_crate, Algorithm, FlowConfig};
use isex_workloads::Benchmark;

/// Exploration is stochastic; every configuration point is averaged over
/// these seeds so the headline numbers are not one sample's noise.
const SEEDS: &[u64] = &[0x4ead, 77, 1234];

fn run_point(
    point: &ConfigPoint,
    budgets: Budgets,
    effort: &isex_flow::experiment::SweepEffort,
    benches: &[Benchmark],
) -> f64 {
    // Average reduction over the selected benchmarks and the seed set.
    let mut total = 0.0;
    let mut count = 0usize;
    for &bench in benches {
        let program = bench.program(point.opt);
        for &seed in SEEDS {
            let mut cfg = FlowConfig::for_machine(point.algorithm, point.machine);
            cfg.repeats = effort.repeats;
            cfg.params.max_iterations = effort.max_iterations;
            cfg.jobs = effort.jobs;
            cfg.budgets = budgets;
            let report = flow_crate::run_flow(&cfg, &program, seed);
            total += report.reduction();
            count += 1;
        }
    }
    total / count as f64
}

fn stats(xs: &[f64]) -> (f64, f64, f64) {
    let max = xs.iter().cloned().fold(f64::MIN, f64::max);
    let min = xs.iter().cloned().fold(f64::MAX, f64::min);
    let avg = xs.iter().sum::<f64>() / xs.len() as f64;
    (max, min, avg)
}

fn main() {
    let args = harness_from_args().unwrap_or_else(|e| {
        eprintln!("headline: {e}");
        std::process::exit(2)
    });
    let (effort, benches) = (args.effort, args.benches);
    let configs: Vec<ConfigPoint> = experiment::evaluation_configs()
        .into_iter()
        .filter(|c| c.algorithm == Algorithm::MultiIssue)
        .collect();

    // Part 1: one ISE vs no ISE (MI).
    let one_ise = Budgets {
        area_um2: None,
        max_ises: Some(1),
    };
    let mut single: Vec<f64> = Vec::new();
    for point in &configs {
        single.push(run_point(point, one_ise, &effort, &benches));
        eprintln!("single-ISE done: {}", point.label);
    }
    let (max1, min1, avg1) = stats(&single);

    // Part 2: MI vs SI under the same area constraint. 40k µm² is the
    // Fig. 5.2.1 budget at which the constraint binds for both algorithms
    // (Fig. 5.2.3: MI saturates near ~50k, SI near ~100k) — an equal-area
    // comparison is meaningful only in that regime.
    let area = Budgets {
        area_um2: Some(40_000.0),
        max_ises: None,
    };
    let mut deltas: Vec<f64> = Vec::new();
    for point in &configs {
        let mi = run_point(point, area, &effort, &benches);
        let si_point = ConfigPoint {
            label: point.label.replace("MI", "SI"),
            machine: point.machine,
            opt: point.opt,
            algorithm: Algorithm::SingleIssue,
        };
        let si = run_point(&si_point, area, &effort, &benches);
        deltas.push(mi - si);
        eprintln!(
            "MI-vs-SI done: {}  MI={:.2}% SI={:.2}% delta={:+.2}",
            point.label,
            mi * 100.0,
            si * 100.0,
            (mi - si) * 100.0
        );
    }
    let (max2, min2, avg2) = stats(&deltas);

    println!("Headline numbers (paper vs measured)\n");
    let mut t = TextTable::new(&["metric", "paper", "measured"]);
    t.row(vec![
        "1 ISE vs no ISE, max".into(),
        "17.17%".into(),
        pct(max1),
    ]);
    t.row(vec![
        "1 ISE vs no ISE, min".into(),
        "12.90%".into(),
        pct(min1),
    ]);
    t.row(vec![
        "1 ISE vs no ISE, avg".into(),
        "14.79%".into(),
        pct(avg1),
    ]);
    t.row(vec![
        "MI over SI (same area), max".into(),
        "11.39%".into(),
        pct(max2),
    ]);
    t.row(vec![
        "MI over SI (same area), min".into(),
        "2.87%".into(),
        pct(min2),
    ]);
    t.row(vec![
        "MI over SI (same area), avg".into(),
        "7.16%".into(),
        pct(avg2),
    ]);
    print!("{}", t.render());
    println!("\n(workloads are synthetic kernel models; compare shapes, not digits — see EXPERIMENTS.md)");
}
