//! Criterion benches for the substrate: list scheduling, the
//! collapse-and-schedule kernel, reachability and convexity checking — the
//! inner loops whose cost dominates one ACO iteration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isex_dfg::{convex, NodeId, NodeSet, Reachability};
use isex_isa::MachineConfig;
use isex_sched::soa::SoaGraph;
use isex_sched::{
    collapsed_len, list_schedule, unit, CollapseScratch, Priority, SchedOp, UnitClass,
};
use isex_workloads::random::{random_dfg, RandomDfgConfig};
use rand::SeedableRng;

fn graphs(sizes: &[usize]) -> Vec<(usize, isex_isa::ProgramDfg)> {
    sizes
        .iter()
        .map(|&k| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(k as u64 * 3 + 1);
            (
                k,
                random_dfg(
                    &RandomDfgConfig {
                        nodes: k,
                        width: 4,
                        mem_fraction: 0.1,
                        live_ins: 8,
                    },
                    &mut rng,
                ),
            )
        })
        .collect()
}

fn list_scheduling(c: &mut Criterion) {
    let mut group = c.benchmark_group("list_schedule");
    for (k, dfg) in graphs(&[32, 128, 512]) {
        let sched = unit::lower(&dfg);
        let machine = MachineConfig::preset_4issue_10r5w();
        group.bench_with_input(BenchmarkId::from_parameter(k), &sched, |b, s| {
            b.iter(|| list_schedule(s, &machine, Priority::Height))
        });
    }
    group.finish();
}

/// `collapsed_len` on the same graphs, with a three-node ISE starting at
/// every eighth node (index ranges of a DFG built in topological order
/// are convex): the kernel behind candidate ranking and ISE replacement.
fn collapse_and_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("collapsed_len");
    for (k, dfg) in graphs(&[32, 128, 512]) {
        let base = SoaGraph::from_sched(&unit::lower(&dfg));
        let machine = MachineConfig::preset_4issue_10r5w();
        let groups: Vec<(NodeSet, SchedOp)> = (0..dfg.len().saturating_sub(2))
            .step_by(8)
            .map(|lo| {
                let mut set = NodeSet::new(dfg.len());
                for n in lo..lo + 3 {
                    set.insert(NodeId::new(n as u32));
                }
                (set, SchedOp::new(1, 2, 1, UnitClass::Asfu))
            })
            .collect();
        let mut scratch = CollapseScratch::default();
        group.bench_with_input(BenchmarkId::from_parameter(k), &groups, |b, gs| {
            b.iter(|| collapsed_len(&base, gs, &machine, &mut scratch))
        });
    }
    group.finish();
}

fn reachability(c: &mut Criterion) {
    let mut group = c.benchmark_group("reachability");
    for (k, dfg) in graphs(&[32, 128, 512]) {
        group.bench_with_input(BenchmarkId::from_parameter(k), &dfg, |b, d| {
            b.iter(|| Reachability::compute(d))
        });
    }
    group.finish();
}

fn convexity(c: &mut Criterion) {
    let mut group = c.benchmark_group("convexity_check");
    for (k, dfg) in graphs(&[32, 128, 512]) {
        let reach = Reachability::compute(&dfg);
        // An adversarial set: every other node.
        let mut set = NodeSet::new(dfg.len());
        for (i, id) in dfg.node_ids().enumerate() {
            if i % 2 == 0 {
                set.insert(id);
            }
        }
        group.bench_with_input(BenchmarkId::from_parameter(k), &set, |b, s| {
            b.iter(|| convex::is_convex(s, &reach))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    list_scheduling,
    collapse_and_schedule,
    reachability,
    convexity
);
criterion_main!(benches);
