//! End-to-end integration tests: the full design flow on every benchmark,
//! both explorers, multiple machines.

use isex::flow::select::Budgets;
use isex::flow::{explore_run, finish_from_entries, CancelToken};
use isex::prelude::*;

fn quick(algorithm: Algorithm, machine: MachineConfig) -> FlowConfig {
    let mut cfg = FlowConfig::for_machine(algorithm, machine);
    cfg.repeats = 1;
    cfg.params.max_iterations = 60;
    cfg
}

#[test]
fn full_flow_runs_on_every_benchmark_and_level() {
    let machine = MachineConfig::preset_2issue_4r2w();
    for &bench in Benchmark::ALL {
        for opt in [OptLevel::O0, OptLevel::O3] {
            let program = bench.program(opt);
            let report = run_flow(&quick(Algorithm::MultiIssue, machine), &program, 1);
            assert!(report.cycles_before > 0, "{bench} {opt}");
            assert!(
                report.cycles_after <= report.cycles_before,
                "{bench} {opt}: replacement must never hurt"
            );
            // Selected patterns satisfy the §4.2 port constraints.
            for sel in &report.selected {
                assert!(sel.pattern.inputs <= machine.read_ports);
                assert!(sel.pattern.outputs <= machine.write_ports);
                assert!(sel.pattern.size() >= 2);
                // No memory operation ever enters an ISE.
                for op in &sel.pattern.ops {
                    assert!(op.opcode.is_ise_eligible(), "{bench}: {} in ISE", op.opcode);
                }
            }
        }
    }
}

#[test]
fn every_benchmark_gains_from_ises_at_o3() {
    // The kernels were chosen because their hot paths are ISE-friendly;
    // the MI flow must find real savings on each of them.
    let machine = MachineConfig::preset_2issue_6r3w();
    for &bench in Benchmark::ALL {
        let program = bench.program(OptLevel::O3);
        let report = run_flow(&quick(Algorithm::MultiIssue, machine), &program, 3);
        assert!(
            report.reduction() > 0.0,
            "{bench}: expected a positive reduction, got {}",
            report.reduction()
        );
    }
}

#[test]
fn si_baseline_runs_on_every_benchmark() {
    let machine = MachineConfig::preset_2issue_4r2w();
    for &bench in Benchmark::ALL {
        let program = bench.program(OptLevel::O3);
        let report = run_flow(&quick(Algorithm::SingleIssue, machine), &program, 5);
        assert!(report.cycles_after <= report.cycles_before, "{bench}");
    }
}

#[test]
fn all_machine_presets_work() {
    let program = Benchmark::Bitcount.program(OptLevel::O3);
    for (label, machine) in MachineConfig::evaluation_presets() {
        let report = run_flow(&quick(Algorithm::MultiIssue, machine), &program, 7);
        assert!(
            report.reduction() >= 0.0 && report.reduction() < 1.0,
            "{label}: reduction {}",
            report.reduction()
        );
    }
}

#[test]
fn area_budgets_are_respected_end_to_end() {
    let machine = MachineConfig::preset_2issue_4r2w();
    let program = Benchmark::Adpcm.program(OptLevel::O3);
    for budget in [0.0, 5_000.0, 50_000.0] {
        let mut cfg = quick(Algorithm::MultiIssue, machine);
        cfg.budgets = Budgets {
            area_um2: Some(budget),
            max_ises: None,
        };
        let report = run_flow(&cfg, &program, 11);
        assert!(
            report.total_area <= budget + 1e-9,
            "budget {budget}: used {}",
            report.total_area
        );
    }
}

#[test]
fn ise_count_budget_is_respected_end_to_end() {
    let machine = MachineConfig::preset_2issue_6r3w();
    let program = Benchmark::Dijkstra.program(OptLevel::O3);
    for max in [0usize, 1, 3] {
        let mut cfg = quick(Algorithm::MultiIssue, machine);
        cfg.budgets = Budgets {
            area_um2: None,
            max_ises: Some(max),
        };
        let report = run_flow(&cfg, &program, 13);
        assert!(report.selected.len() <= max);
    }
}

#[test]
fn reduction_is_monotone_in_area_budget() {
    let machine = MachineConfig::preset_2issue_4r2w();
    let program = Benchmark::Bitcount.program(OptLevel::O3);
    let cfg0 = quick(Algorithm::MultiIssue, machine);
    let cancel = CancelToken::new();
    let entries = explore_run(&cfg0, &program, 17, &NullSink, &cancel, None).cut();
    let mut last = -1.0f64;
    for budget in [0.0, 10_000.0, 40_000.0, 160_000.0] {
        let mut cfg = cfg0.clone();
        cfg.budgets = Budgets {
            area_um2: Some(budget),
            max_ises: None,
        };
        let (report, _) = finish_from_entries(&cfg, &program, 17, entries.clone(), entries.len());
        assert!(
            report.reduction() >= last - 1e-9,
            "budget {budget}: {} < {last}",
            report.reduction()
        );
        last = report.reduction();
    }
}

#[test]
fn whole_flow_is_deterministic_per_seed() {
    let machine = MachineConfig::preset_3issue_6r3w();
    let program = Benchmark::Fft.program(OptLevel::O3);
    let cfg = quick(Algorithm::MultiIssue, machine);
    let a = run_flow(&cfg, &program, 23);
    let b = run_flow(&cfg, &program, 23);
    assert_eq!(a.cycles_after, b.cycles_after);
    assert_eq!(a.total_area, b.total_area);
    assert_eq!(a.selected.len(), b.selected.len());
}

#[test]
fn per_block_accounting_sums_to_totals() {
    let machine = MachineConfig::preset_2issue_4r2w();
    let program = Benchmark::Blowfish.program(OptLevel::O0);
    let report = run_flow(&quick(Algorithm::MultiIssue, machine), &program, 29);
    let before: u64 = report
        .per_block
        .iter()
        .map(|b| b.cycles_before as u64 * b.exec_count)
        .sum();
    let after: u64 = report
        .per_block
        .iter()
        .map(|b| b.cycles_after as u64 * b.exec_count)
        .sum();
    assert_eq!(before, report.cycles_before);
    assert_eq!(after, report.cycles_after);
}
