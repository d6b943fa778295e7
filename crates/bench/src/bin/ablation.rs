//! Ablation study over the design choices DESIGN.md calls out:
//!
//! 1. **Scheduling-priority (SP) function** — the paper uses the number of
//!    child operations and names height/mobility alternatives as future
//!    work (Ch. 6, point 1);
//! 2. **α** — the trail-vs-merit balance of Eqs. 1/3;
//! 3. **λ** — the weight of SP in the Ready-Matrix pick (the thesis lists
//!    λ without printing its value);
//! 4. **iteration budget** — solution quality vs ACO effort.
//!
//! Each row reports the average execution-time reduction over the seven
//! O3 benchmarks on the 2-issue 4/2 machine.
//!
//! Run with: `cargo run --release -p isex-bench --bin ablation [--quick]`

use isex_aco::AcoParams;
use isex_bench::{harness_from_args, pct, TextTable};
use isex_core::{Constraints, MultiIssueExplorer, SpFunction};
use isex_engine::run_jobs;
use isex_isa::MachineConfig;
use isex_workloads::{Benchmark, OptLevel};
use rand::SeedableRng;

fn average_reduction(
    explorer: &MultiIssueExplorer,
    repeats: usize,
    jobs: usize,
    benches: &[Benchmark],
) -> f64 {
    // One pool job per benchmark; seeds depend only on the repeat index, so
    // the numbers are identical to the historical serial loop at any worker
    // count.
    let programs: Vec<_> = benches.iter().map(|b| b.program(OptLevel::O3)).collect();
    let bests = run_jobs(&programs, jobs, |_, program| {
        let dfg = &program.hottest().dfg;
        let mut best = 0.0f64;
        for rep in 0..repeats.max(1) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xAB1 ^ (rep as u64) << 8);
            let r = explorer.explore(dfg, &mut rng);
            best = best.max(r.reduction());
        }
        best
    });
    bests.iter().sum::<f64>() / bests.len() as f64
}

fn main() {
    let args = harness_from_args().unwrap_or_else(|e| {
        eprintln!("ablation: {e}");
        std::process::exit(2)
    });
    let (effort, benches) = (args.effort, args.benches);
    let machine = MachineConfig::preset_2issue_4r2w();
    let cons = Constraints::from_machine(&machine);
    let base = AcoParams {
        max_iterations: effort.max_iterations,
        ..AcoParams::default()
    };

    println!(
        "Ablations ({} O3 hot blocks, 2-issue 4/2, {} repeats, {} iterations)\n",
        benches.len(),
        effort.repeats,
        effort.max_iterations
    );

    let mut t = TextTable::new(&["knob", "setting", "avg reduction"]);
    for (name, sp) in [
        ("SP function", SpFunction::ChildCount),
        ("SP function", SpFunction::Height),
        ("SP function", SpFunction::Mobility),
    ] {
        let mut e = MultiIssueExplorer::with_params(machine, cons, base);
        e.sp_function = sp;
        t.row(vec![
            name.into(),
            format!("{sp:?}"),
            pct(average_reduction(&e, effort.repeats, effort.jobs, &benches)),
        ]);
        eprintln!("done: SP {sp:?}");
    }
    for alpha in [0.0, 0.25, 0.5, 0.9] {
        let e = MultiIssueExplorer::with_params(machine, cons, AcoParams { alpha, ..base });
        t.row(vec![
            "alpha".into(),
            format!("{alpha}"),
            pct(average_reduction(&e, effort.repeats, effort.jobs, &benches)),
        ]);
        eprintln!("done: alpha {alpha}");
    }
    for lambda in [0.0, 0.5, 2.0] {
        let e = MultiIssueExplorer::with_params(machine, cons, AcoParams { lambda, ..base });
        t.row(vec![
            "lambda".into(),
            format!("{lambda}"),
            pct(average_reduction(&e, effort.repeats, effort.jobs, &benches)),
        ]);
        eprintln!("done: lambda {lambda}");
    }
    for iters in [10usize, 40, 100, effort.max_iterations] {
        let e = MultiIssueExplorer::with_params(
            machine,
            cons,
            AcoParams {
                max_iterations: iters,
                ..base
            },
        );
        t.row(vec![
            "iterations".into(),
            iters.to_string(),
            pct(average_reduction(&e, effort.repeats, effort.jobs, &benches)),
        ]);
        eprintln!("done: iters {iters}");
    }
    // Trail evaporation: scale ρ1..ρ5 together (their ratio is the policy,
    // their magnitude the adaptation speed).
    for scale in [0.25, 1.0, 4.0] {
        let params = AcoParams {
            rho1: base.rho1 * scale,
            rho2: base.rho2 * scale,
            rho3: base.rho3 * scale,
            rho4: base.rho4 * scale,
            rho5: base.rho5 * scale,
            ..base
        };
        let e = MultiIssueExplorer::with_params(machine, cons, params);
        t.row(vec![
            "rho scale".into(),
            format!("{scale}x"),
            pct(average_reduction(&e, effort.repeats, effort.jobs, &benches)),
        ]);
        eprintln!("done: rho {scale}x");
    }
    // Convergence threshold: a lower P_END ends rounds earlier.
    for p_end in [0.6, 0.9, 0.99] {
        let e = MultiIssueExplorer::with_params(machine, cons, AcoParams { p_end, ..base });
        t.row(vec![
            "P_END".into(),
            format!("{p_end}"),
            pct(average_reduction(&e, effort.repeats, effort.jobs, &benches)),
        ]);
        eprintln!("done: p_end {p_end}");
    }
    // Merit β penalties: weaker (closer to 1) vs the paper's defaults.
    for (label, b_io, b_convex) in [
        ("paper", 0.8, 0.4),
        ("mild", 0.95, 0.9),
        ("harsh", 0.4, 0.1),
    ] {
        let e = MultiIssueExplorer::with_params(
            machine,
            cons,
            AcoParams {
                beta_io: b_io,
                beta_convex: b_convex,
                ..base
            },
        );
        t.row(vec![
            "beta IO/convex".into(),
            label.into(),
            pct(average_reduction(&e, effort.repeats, effort.jobs, &benches)),
        ]);
        eprintln!("done: beta {label}");
    }
    // ASFU pipelining: a non-pipelined unit serialises overlapping ISEs.
    for pipelined in [true, false] {
        let mut m = machine;
        m.asfu_pipelined = pipelined;
        let e = MultiIssueExplorer::with_params(m, cons, base);
        t.row(vec![
            "ASFU".into(),
            if pipelined { "pipelined" } else { "blocking" }.into(),
            pct(average_reduction(&e, effort.repeats, effort.jobs, &benches)),
        ]);
        eprintln!("done: asfu pipelined={pipelined}");
    }
    print!("{}", t.render());

    // Hardware-sharing model: selection-level comparison (area, not speed).
    sharing_comparison(&effort, &benches);
}

/// Compares the two sharing cost models on the full MI flow.
fn sharing_comparison(effort: &isex_flow::experiment::SweepEffort, benches: &[Benchmark]) {
    use isex_flow::select::SharingModel;
    use isex_flow::{run_flow, Algorithm, FlowConfig};
    use isex_workloads::OptLevel;
    let machine = MachineConfig::preset_2issue_4r2w();
    let mut t = TextTable::new(&["sharing model", "avg area (um^2)", "avg reduction"]);
    for (label, sharing) in [
        ("containment", SharingModel::Containment),
        ("operator-pool", SharingModel::OperatorPool),
    ] {
        let mut area = 0.0;
        let mut red = 0.0;
        for &bench in benches {
            let program = bench.program(OptLevel::O3);
            let mut cfg = FlowConfig::for_machine(Algorithm::MultiIssue, machine);
            cfg.repeats = effort.repeats;
            cfg.params.max_iterations = effort.max_iterations;
            cfg.jobs = effort.jobs;
            cfg.sharing = sharing;
            let report = run_flow(&cfg, &program, 0x5a);
            area += report.total_area;
            red += report.reduction();
        }
        t.row(vec![
            label.into(),
            format!("{:.0}", area / benches.len() as f64),
            pct(red / benches.len() as f64),
        ]);
        eprintln!("done: sharing {label}");
    }
    println!();
    print!("{}", t.render());
}
