//! Property-based tests (proptest) over the core data structures and
//! algorithms, driven by randomly generated DFGs.

use isex::dfg::{analysis, convex, ports, NodeId, NodeSet, Reachability};
use isex::prelude::*;
use isex::sched::collapse::collapse_groups;
use isex::sched::{timing, unit};
use isex::workloads::random::{random_dfg, RandomDfgConfig};
use proptest::prelude::*;
use rand::SeedableRng;

fn arb_dfg() -> impl Strategy<Value = ProgramDfg> {
    (1usize..60, 1usize..6, 0u8..40, 1usize..8, any::<u64>()).prop_map(
        |(nodes, width, memf, live_ins, seed)| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            random_dfg(
                &RandomDfgConfig {
                    nodes,
                    width,
                    mem_fraction: memf as f64 / 100.0,
                    live_ins,
                },
                &mut rng,
            )
        },
    )
}

fn arb_subset(k: usize, seed: u64) -> NodeSet {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut s = NodeSet::new(k);
    for i in 0..k {
        if rand::Rng::gen_bool(&mut rng, 0.4) {
            s.insert(NodeId::new(i as u32));
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn convexity_matches_bruteforce(dfg in arb_dfg(), seed in any::<u64>()) {
        let reach = Reachability::compute(&dfg);
        let set = arb_subset(dfg.len(), seed);
        // Brute force: for all (u, v) in S, any intermediate node on a
        // path u -> w -> v with w outside S disproves convexity.
        let mut brute = true;
        'outer: for u in &set {
            for v in &set {
                for w in dfg.node_ids() {
                    if !set.contains(w) && reach.reaches(u, w) && reach.reaches(w, v) {
                        brute = false;
                        break 'outer;
                    }
                }
            }
        }
        prop_assert_eq!(convex::is_convex(&set, &reach), brute);
    }

    #[test]
    fn make_convex_outputs_are_convex_partition(dfg in arb_dfg(), seed in any::<u64>()) {
        let reach = Reachability::compute(&dfg);
        let set = arb_subset(dfg.len(), seed);
        let parts = convex::make_convex(&dfg, &set, &reach);
        let mut union = NodeSet::new(dfg.len());
        for p in &parts {
            prop_assert!(convex::is_convex(p, &reach));
            prop_assert!(!p.is_empty());
            prop_assert!(!union.intersects(p), "parts must be disjoint");
            union.union_with(p);
        }
        prop_assert_eq!(union, set, "partition covers exactly the input");
    }

    #[test]
    fn port_counts_match_naive(dfg in arb_dfg(), seed in any::<u64>()) {
        let set = arb_subset(dfg.len(), seed);
        let d = ports::demand(&dfg, &set);
        // Naive recount with hash sets.
        use std::collections::HashSet;
        let mut ins: HashSet<String> = HashSet::new();
        let mut outs = 0usize;
        for n in &set {
            for op in dfg.node(n).operands() {
                match *op {
                    Operand::Node(p) if !set.contains(p) => {
                        ins.insert(format!("n{}", p.index()));
                    }
                    Operand::LiveIn(v) => {
                        ins.insert(format!("v{}", v.index()));
                    }
                    _ => {}
                }
            }
            if dfg.node(n).is_live_out() || dfg.succs(n).any(|s| !set.contains(s)) {
                outs += 1;
            }
        }
        prop_assert_eq!(d.inputs, ins.len());
        prop_assert_eq!(d.outputs, outs);
    }

    #[test]
    fn list_schedule_is_valid_and_bounded(dfg in arb_dfg()) {
        let sched_dfg = unit::lower(&dfg);
        for machine in [
            MachineConfig::preset_2issue_4r2w(),
            MachineConfig::preset_4issue_10r5w(),
        ] {
            let s = list_schedule(&sched_dfg, &machine, Priority::Height);
            // Dependences hold.
            for (id, _) in sched_dfg.iter() {
                for p in sched_dfg.preds(id) {
                    prop_assert!(
                        s.start_of(p) + sched_dfg.node(p).payload().latency <= s.start_of(id)
                    );
                }
            }
            // Bounded below by the dependence-only length, above by serial.
            prop_assert!(s.length >= timing::dep_length(&sched_dfg));
            let serial: u32 = sched_dfg.iter().map(|(_, n)| n.payload().latency).sum();
            prop_assert!(s.length <= serial.max(1));
            // Per-cycle issue width respected.
            let mut per_cycle = std::collections::HashMap::new();
            for (id, _) in sched_dfg.iter() {
                *per_cycle.entry(s.start_of(id)).or_insert(0usize) += 1;
            }
            for (_, count) in per_cycle {
                prop_assert!(count <= machine.issue_width);
            }
        }
    }

    #[test]
    fn collapse_preserves_external_interface(dfg in arb_dfg(), seed in any::<u64>()) {
        // Pick one convex, legal set; collapsing must keep the quotient
        // acyclic and preserve live-out reachability counts.
        let reach = Reachability::compute(&dfg);
        let raw = arb_subset(dfg.len(), seed);
        let parts = convex::make_convex(&dfg, &raw, &reach);
        let Some(set) = parts.into_iter().find(|p| p.len() >= 2) else {
            return Ok(());
        };
        let sched_dfg = unit::lower(&dfg);
        let before_live_outs = sched_dfg
            .iter()
            .filter(|(_, n)| n.is_live_out())
            .count();
        let covered_live_outs = set
            .iter()
            .filter(|&n| sched_dfg.node(n).is_live_out())
            .count();
        let out = collapse_groups(
            &sched_dfg,
            &[(set.clone(), SchedOp::new(1, 4, 2, UnitClass::Asfu))],
        );
        prop_assert_eq!(out.dfg.len(), dfg.len() - set.len() + 1);
        let after_live_outs = out.dfg.iter().filter(|(_, n)| n.is_live_out()).count();
        // All covered live-outs merge into (at most) one.
        let expected = before_live_outs - covered_live_outs
            + usize::from(covered_live_outs > 0);
        prop_assert_eq!(after_live_outs, expected);
    }

    #[test]
    fn exploration_invariants_on_random_graphs(dfg in arb_dfg(), seed in any::<u64>()) {
        let machine = MachineConfig::preset_2issue_4r2w();
        let cons = Constraints::from_machine(&machine);
        let params = AcoParams {
            max_iterations: 12, // keep proptest fast
            ..AcoParams::default()
        };
        let mi = MultiIssueExplorer::with_params(machine, cons, params);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let r = mi.explore(&dfg, &mut rng);
        prop_assert!(r.cycles_with_ises <= r.baseline_cycles);
        let reach = Reachability::compute(&dfg);
        for c in &r.candidates {
            prop_assert!(c.size() >= 2);
            prop_assert!(convex::is_convex(&c.nodes, &reach));
            let d = ports::demand(&dfg, &c.nodes);
            prop_assert!(d.inputs <= cons.n_in && d.outputs <= cons.n_out);
            for n in &c.nodes {
                prop_assert!(dfg.node(n).payload().opcode().is_ise_eligible());
            }
        }
    }

    #[test]
    fn max_aec_never_below_span(dfg in arb_dfg(), seed in any::<u64>()) {
        let sched_dfg = unit::lower(&dfg);
        let set = arb_subset(dfg.len(), seed);
        if set.is_empty() {
            return Ok(());
        }
        let deadline = timing::dep_length(&sched_dfg) + 5;
        let aec = timing::max_aec(&sched_dfg, &set, deadline);
        // The window always covers the subgraph's own dependence span.
        let span = {
            let asap = timing::asap(&sched_dfg);
            let lo = set.iter().map(|n| asap[n.index()]).min().unwrap_or(0);
            let hi = set
                .iter()
                .map(|n| asap[n.index()] + sched_dfg.node(n).payload().latency)
                .max()
                .unwrap_or(0);
            hi - lo
        };
        prop_assert!(aec >= span, "aec {} < span {}", aec, span);
    }

    #[test]
    fn reachability_is_transitive(dfg in arb_dfg()) {
        let reach = Reachability::compute(&dfg);
        for u in dfg.node_ids() {
            for v in dfg.succs(u) {
                prop_assert!(reach.reaches(u, v));
                for w in reach.descendants(v).iter().take(8) {
                    prop_assert!(reach.reaches(u, w), "transitivity");
                }
            }
        }
    }

    #[test]
    fn weighted_path_at_least_max_node(dfg in arb_dfg(), seed in any::<u64>()) {
        let set = arb_subset(dfg.len(), seed);
        let w = analysis::weighted_longest_path_within(&dfg, &set, |_, _| 2.5);
        prop_assert_eq!(w, 2.5 * chain_len(&dfg, &set) as f64);
    }
}

/// Longest unit chain within `set` (independent re-implementation used to
/// cross-check the weighted path).
fn chain_len(dfg: &ProgramDfg, set: &NodeSet) -> usize {
    let mut depth = vec![0usize; dfg.len()];
    let mut best = 0;
    for (id, _) in dfg.iter() {
        if !set.contains(id) {
            continue;
        }
        let d = dfg
            .preds(id)
            .filter(|p| set.contains(*p))
            .map(|p| depth[p.index()])
            .max()
            .unwrap_or(0)
            + 1;
        depth[id.index()] = d;
        best = best.max(d);
    }
    best
}
