//! Property tests of the quotient-free walk timing: on arbitrary DAGs,
//! arbitrary latency patches and arbitrary (convex, disjoint, jointly
//! acyclic) ISE group families, the ASAP/ALAP that `walk_timing_into` reads
//! through its base-node → unit map must equal full passes over the
//! `collapse_soa` quotient, and the walk-deadline handling must obey the
//! uniform-shift lemma the merit path relies on.

use isex_dfg::{NodeId, NodeSet, Operand};
use isex_sched::soa::{
    alap_into, asap_into, collapse_soa, length_from_asap, walk_timing_into, Quotient,
    QuotientScratch, SoaGraph, WalkTiming,
};
use isex_sched::{SchedDfg, SchedOp, UnitClass};
use proptest::prelude::*;

/// One node: latency, predecessor pick mask over earlier nodes, live-out.
type NodeSpec = (u32, u64, bool);

fn arb_dag() -> impl Strategy<Value = Vec<NodeSpec>> {
    prop::collection::vec((1u32..4, any::<u64>(), any::<bool>()), 2..40)
}

/// Per-node replacement latencies (`None` keeps the base latency) — the
/// shape of a walk's software-option patch.
fn arb_patch() -> impl Strategy<Value = Vec<Option<u32>>> {
    prop::collection::vec(prop::option::of(1u32..6), 0..40)
}

/// Per-node priorities that pick one topological order of the DAG.
fn arb_order() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 40..41)
}

/// Interval picks over that order.
fn arb_groups() -> impl Strategy<Value = Vec<(prop::sample::Index, u8, u32)>> {
    prop::collection::vec((any::<prop::sample::Index>(), 1u8..4, 1u32..3), 0..3)
}

fn build(spec: &[NodeSpec]) -> SchedDfg {
    let mut g = SchedDfg::new();
    let x = g.live_in();
    for (i, &(lat, mask, live)) in spec.iter().enumerate() {
        let mut operands: Vec<Operand> = (0..i)
            .filter(|p| mask >> (p % 64) & 1 == 1)
            .take(3)
            .map(|p| Operand::Node(NodeId::new(p as u32)))
            .collect();
        if operands.is_empty() {
            operands.push(Operand::LiveIn(x));
        }
        let reads = operands.len().min(2);
        let id = g.add_node(SchedOp::new(lat, reads, 1, UnitClass::Alu), operands);
        if live {
            g.set_live_out(id, true);
        }
    }
    g
}

/// A topological order of `g`: Kahn's walk taking the ready node of
/// highest priority. Unlike index order, it interleaves independent chains.
fn topo_order(g: &SoaGraph, prio: &[u64]) -> Vec<usize> {
    let mut indeg: Vec<usize> = (0..g.len()).map(|v| g.preds(v).len()).collect();
    let mut ready: Vec<usize> = (0..g.len()).filter(|&v| indeg[v] == 0).collect();
    let mut order = Vec::with_capacity(g.len());
    while let Some(i) = (0..ready.len()).max_by_key(|&i| prio[ready[i]]) {
        let v = ready.swap_remove(i);
        order.push(v);
        for &s in g.succs(v) {
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                ready.push(s as usize);
            }
        }
    }
    order
}

/// Disjoint ranges of a topological order. A range of a topological order
/// is convex (a path between two members only visits positions between
/// them), and disjoint ranges of one order collapse without a cycle — the
/// shape of an ant's groups, which are instructions issued in time order.
/// Ranges of a non-index order are in general non-contiguous index sets.
fn build_groups(
    order: &[usize],
    picks: &[(prop::sample::Index, u8, u32)],
) -> Vec<(NodeSet, SchedOp)> {
    let k = order.len();
    let mut groups = Vec::new();
    let mut next = 0usize;
    for (pick, span, glat) in picks {
        if next + 1 >= k {
            break;
        }
        let lo = next + pick.index(k - 1 - next);
        let hi = (lo + *span as usize).min(k - 1);
        if hi <= lo {
            break;
        }
        let mut set = NodeSet::new(k);
        for &n in &order[lo..=hi] {
            set.insert(NodeId::new(n as u32));
        }
        groups.push((set, SchedOp::new(*glat, 2, 1, UnitClass::Asfu)));
        next = hi + 1;
    }
    groups
}

/// The DAG of `spec` in array form, its latencies after `patch`, a group
/// family over the topological order `prio` picks, and the `collapse_soa`
/// quotient of the patched graph.
fn setup(
    spec: &[NodeSpec],
    patch: &[Option<u32>],
    prio: &[u64],
    picks: &[(prop::sample::Index, u8, u32)],
) -> (SoaGraph, Vec<u32>, Vec<(NodeSet, SchedOp)>, Quotient) {
    let base = SoaGraph::from_sched(&build(spec));
    let mut patched = base.clone();
    for (lat, new) in patched.lat.iter_mut().zip(patch) {
        *lat = new.unwrap_or(*lat);
    }
    let groups = build_groups(&topo_order(&base, prio), picks);
    let mut q = Quotient::default();
    collapse_soa(&patched, &groups, &mut QuotientScratch::default(), &mut q);
    (base, patched.lat, groups, q)
}

proptest! {
    /// Walk timing per base node equals full ASAP/ALAP over the patched
    /// `collapse_soa` quotient, for any latency patch and any convex group
    /// family, and the units are exactly the quotient's vertices.
    #[test]
    fn walk_timing_equals_quotient_timing(
        spec in arb_dag(),
        patch in arb_patch(),
        order in arb_order(),
        picks in arb_groups(),
    ) {
        let (base, lat, groups, q) = setup(&spec, &patch, &order, &picks);
        let (mut asap, mut alap) = (Vec::new(), Vec::new());
        asap_into(&q.graph, &mut asap);
        let len = length_from_asap(&q.graph, &asap);
        alap_into(&q.graph, len, &mut alap);

        // Time an ungrouped walk first, so the real one runs on reused
        // buffers, as it does across the walks of a round.
        let mut t = WalkTiming::default();
        let members = |set: &NodeSet| set.iter().map(|m| m.index() as u32).collect::<Vec<_>>();
        walk_timing_into(&base, &base.lat, Vec::<(Vec<u32>, u32)>::new(), &mut t);
        walk_timing_into(&base, &lat, groups.iter().map(|(set, op)| (members(set), op.latency)), &mut t);
        prop_assert_eq!(t.len, len, "walk length");
        let mut units = 0;
        for n in 0..base.len() {
            let (u, v) = (t.unit[n] as usize, q.node_map[n] as usize);
            prop_assert_eq!(q.node_map[u] as usize, v, "node {} left its vertex", n);
            if u == n {
                units += 1;
            }
            prop_assert_eq!(t.lat[u], q.graph.lat[v], "latency of node {}", n);
            prop_assert_eq!(t.asap[u], asap[v], "ASAP of node {}", n);
            prop_assert_eq!(t.alap[u], alap[v], "ALAP of node {}", n);
        }
        prop_assert_eq!(units, q.graph.len(), "one unit per quotient vertex");
    }

    /// The uniform-shift lemma: relaxing the deadline shifts every ALAP
    /// slot by exactly the relaxation, so the walk deadline can be folded
    /// into `Max_AEC` queries instead of costing another reverse pass.
    #[test]
    fn alap_deadline_shift_is_uniform(
        spec in arb_dag(),
        order in arb_order(),
        picks in arb_groups(),
        extra in 0u32..7,
    ) {
        let (_, _, _, q) = setup(&spec, &[], &order, &picks);
        let mut asap = Vec::new();
        asap_into(&q.graph, &mut asap);
        let len = length_from_asap(&q.graph, &asap);
        let (mut at_len, mut relaxed) = (Vec::new(), Vec::new());
        alap_into(&q.graph, len, &mut at_len);
        alap_into(&q.graph, len + extra, &mut relaxed);
        for v in 0..q.graph.len() {
            prop_assert_eq!(relaxed[v], at_len[v] + extra, "vertex {}", v);
        }
    }
}
