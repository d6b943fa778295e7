//! Cross-crate invariants of the explorers: every candidate produced on
//! any workload satisfies the §4.2 formulation, and the paper's structural
//! claims hold.

use isex::dfg::{convex, ports, Reachability};
use isex::prelude::*;
use rand::SeedableRng;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn explore_all(dfg: &ProgramDfg, machine: MachineConfig, seed: u64) -> (Exploration, Exploration) {
    let params = AcoParams {
        max_iterations: 60,
        ..AcoParams::default()
    };
    explore_both(dfg, machine, seed, params, None)
}

/// MI and SI on the same block, seed, parameters and stop flag.
fn explore_both(
    dfg: &ProgramDfg,
    machine: MachineConfig,
    seed: u64,
    params: AcoParams,
    stop: Option<Arc<AtomicBool>>,
) -> (Exploration, Exploration) {
    let cons = Constraints::from_machine(&machine);
    let mi = MultiIssueExplorer {
        stop: stop.clone(),
        ..MultiIssueExplorer::with_params(machine, cons, params)
    };
    let si = SingleIssueExplorer {
        stop,
        ..SingleIssueExplorer::with_params(machine, cons, params)
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let a = mi.explore(dfg, &mut rng);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let b = si.explore(dfg, &mut rng);
    (a, b)
}

fn check_candidates(dfg: &ProgramDfg, result: &Exploration, machine: &MachineConfig, tag: &str) {
    let reach = Reachability::compute(dfg);
    let cons = Constraints::from_machine(machine);
    let mut all_members = isex::dfg::NodeSet::new(dfg.len());
    for c in &result.candidates {
        // §4.2 constraint 1 & 2: port limits.
        let d = ports::demand(dfg, &c.nodes);
        assert!(
            d.inputs <= cons.n_in && d.outputs <= cons.n_out,
            "{tag}: {}in/{}out exceeds {}/{}",
            d.inputs,
            d.outputs,
            cons.n_in,
            cons.n_out
        );
        assert_eq!(
            (d.inputs, d.outputs),
            (c.inputs, c.outputs),
            "{tag}: recorded ports"
        );
        // §4.2 constraint 3: convexity.
        assert!(
            convex::is_convex(&c.nodes, &reach),
            "{tag}: non-convex candidate"
        );
        // §4.2 constraint 4: no loads/stores (nor branches).
        for n in &c.nodes {
            assert!(
                dfg.node(n).payload().opcode().is_ise_eligible(),
                "{tag}: ineligible op inside ISE"
            );
        }
        // Candidates of one block never overlap.
        assert!(
            !all_members.intersects(&c.nodes),
            "{tag}: overlapping candidates"
        );
        all_members.union_with(&c.nodes);
        // Latency is consistent with delay and the 10 ns cycle.
        assert_eq!(c.latency, machine.cycles_for_delay_ns(c.delay_ns), "{tag}");
        assert!(c.size() >= 2, "{tag}: singleton ISE");
        assert!(c.area_um2 > 0.0, "{tag}");
    }
}

#[test]
fn candidates_satisfy_formulation_on_all_benchmarks() {
    let machine = MachineConfig::preset_2issue_4r2w();
    for &bench in Benchmark::ALL {
        let program = bench.program(OptLevel::O3);
        let dfg = &program.hottest().dfg;
        let (mi, si) = explore_all(dfg, machine, 41);
        check_candidates(dfg, &mi, &machine, &format!("MI/{bench}"));
        check_candidates(dfg, &si, &machine, &format!("SI/{bench}"));
    }
}

#[test]
fn candidates_satisfy_formulation_on_random_dfgs() {
    use isex::workloads::random::{random_dfg, RandomDfgConfig};
    let machine = MachineConfig::preset_3issue_8r4w();
    for seed in 0..8u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dfg = random_dfg(
            &RandomDfgConfig {
                nodes: 40,
                width: 3,
                mem_fraction: 0.2,
                live_ins: 6,
            },
            &mut rng,
        );
        let (mi, _) = explore_all(&dfg, machine, seed);
        check_candidates(&dfg, &mi, &machine, &format!("random/{seed}"));
    }
}

#[test]
fn exploration_never_lengthens_the_schedule() {
    let machine = MachineConfig::preset_2issue_6r3w();
    for &bench in Benchmark::ALL {
        let program = bench.program(OptLevel::O0);
        let dfg = &program.hottest().dfg;
        let (mi, si) = explore_all(dfg, machine, 43);
        assert!(mi.cycles_with_ises <= mi.baseline_cycles, "{bench} MI");
        assert!(si.cycles_with_ises <= si.baseline_cycles, "{bench} SI");
    }
}

#[test]
fn deeper_chains_gain_more_than_wide_blocks() {
    // The paper's core premise: ISEs compress dependence chains, so a
    // serial block must benefit more than an embarrassingly parallel one
    // of the same size.
    use isex::workloads::random::{random_dfg, RandomDfgConfig};
    let machine = MachineConfig::preset_4issue_10r5w();
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let serial = random_dfg(
        &RandomDfgConfig {
            nodes: 24,
            width: 1,
            mem_fraction: 0.0,
            live_ins: 2,
        },
        &mut rng,
    );
    let wide = random_dfg(
        &RandomDfgConfig {
            nodes: 24,
            width: 8,
            mem_fraction: 0.0,
            live_ins: 12,
        },
        &mut rng,
    );
    let (mi_serial, _) = explore_all(&serial, machine, 7);
    let (mi_wide, _) = explore_all(&wide, machine, 7);
    assert!(
        mi_serial.reduction() > mi_wide.reduction(),
        "serial {} vs wide {}",
        mi_serial.reduction(),
        mi_wide.reduction()
    );
}

#[test]
fn critical_path_bounds_hold() {
    // With infinite-ish resources the baseline equals the dependence
    // length, and ISEs push below it — the Fig. 1.3.1 argument.
    let program = Benchmark::Bitcount.program(OptLevel::O3);
    let dfg = &program.hottest().dfg;
    let wide = MachineConfig::new(16, 64, 32);
    let dep = isex::dfg::analysis::critical_path_len(dfg) as u32;
    let cons = Constraints::from_machine(&wide);
    let params = AcoParams {
        max_iterations: 60,
        ..AcoParams::default()
    };
    let mi = MultiIssueExplorer::with_params(wide, cons, params);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let r = mi.explore(dfg, &mut rng);
    assert_eq!(
        r.baseline_cycles, dep,
        "baseline = dependence bound when resources are ample"
    );
    assert!(r.cycles_with_ises < dep, "ISEs break the dependence bound");
}

#[test]
fn a_round_budget_cuts_both_explorers_after_that_round() {
    let machine = MachineConfig::preset_2issue_4r2w();
    let params = AcoParams {
        max_iterations: 60,
        max_rounds: 1,
        ..AcoParams::default()
    };
    for bench in [Benchmark::Crc32, Benchmark::Blowfish, Benchmark::Jpeg] {
        let program = bench.program(OptLevel::O3);
        let dfg = &program.hottest().dfg;
        let (mi, si) = explore_both(dfg, machine, 3, params, None);
        for (tag, e) in [("MI", &mi), ("SI", &si)] {
            assert!(e.degraded, "{tag}/{bench}: a budget cut is degraded");
            assert_eq!(e.rounds, 1, "{tag}/{bench}");
            assert_eq!(e.candidates.len(), 1, "{tag}/{bench}: one commit");
        }
    }
}

#[test]
fn a_stop_flag_tripped_before_the_call_stops_both_explorers_at_once() {
    let machine = MachineConfig::preset_2issue_4r2w();
    let params = AcoParams {
        max_iterations: 60,
        ..AcoParams::default()
    };
    let program = Benchmark::Crc32.program(OptLevel::O3);
    let dfg = &program.hottest().dfg;
    let stop = Some(Arc::new(AtomicBool::new(true)));
    let (mi, si) = explore_both(dfg, machine, 3, params, stop);
    for (tag, e) in [("MI", &mi), ("SI", &si)] {
        assert!(e.degraded, "{tag}");
        assert_eq!(e.rounds, 0, "{tag}");
        assert_eq!(e.iterations, 0, "{tag}");
        assert!(e.candidates.is_empty(), "{tag}");
        assert_eq!(e.cycles_with_ises, e.baseline_cycles, "{tag}");
    }
}
