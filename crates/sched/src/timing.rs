//! Dependence-only timing analysis: ASAP/ALAP, mobility, critical path and
//! the merit function's `Max_AEC` slack window.
//!
//! These analyses ignore resource limits and consider only data dependences
//! and latencies; they answer "which operations determine the execution
//! time" (§4.0 step 1) and "how much may a non-critical subgraph slip
//! without hurting the schedule" (§4.3 criterion (3)).
//!
//! The explorer does not call this module: it times its graphs with the
//! array kernels of [`soa`](crate::soa). These passes over a [`SchedDfg`]
//! are the reference those kernels are tested against, and the API the
//! benchmark's layer harness times.
//!
//! # Topological-order invariant
//!
//! Every pass in this module visits nodes in index order (forward for ASAP,
//! reverse for ALAP) and assumes that order is topological: every operand
//! of a node has a smaller index than the node itself. [`SchedDfg`] graphs
//! built through [`isex_dfg::Dfg::add_node`] satisfy this by construction,
//! but a graph deserialized from an external payload may not — the passes
//! would then read a predecessor's start time before it is written and
//! return wrong (not panicking) timings. Debug builds assert the invariant
//! on every edge; release builds trust the constructor.

use isex_dfg::{NodeId, NodeSet};

use crate::unit::SchedDfg;

/// Earliest possible start cycle of every node (resources ignored).
pub fn asap(dfg: &SchedDfg) -> Vec<u32> {
    let mut start = vec![0u32; dfg.len()];
    for (id, _) in dfg.iter() {
        let s = dfg
            .preds(id)
            .map(|p| {
                debug_assert!(
                    p.index() < id.index(),
                    "asap: node {} reads node {} — index order is not topological",
                    id.index(),
                    p.index()
                );
                start[p.index()] + dfg.node(p).payload().latency
            })
            .max()
            .unwrap_or(0);
        start[id.index()] = s;
    }
    start
}

/// The dependence-only schedule length: the latency-weighted critical-path
/// length in cycles. A lower bound on any machine's schedule length.
pub fn dep_length(dfg: &SchedDfg) -> u32 {
    length_from_asap(dfg, &asap(dfg))
}

/// Latest possible start cycle of every node such that everything finishes
/// by `deadline` cycles (resources ignored).
///
/// # Panics
///
/// Panics if `deadline` is smaller than the dependence-only length — no
/// valid ALAP exists then.
pub fn alap(dfg: &SchedDfg, deadline: u32) -> Vec<u32> {
    alap_from_asap(dfg, &asap(dfg), deadline)
}

/// [`alap`] against a precomputed [`asap`] vector, so callers that already
/// ran the forward pass (every mobility or shared-timing computation)
/// validate the deadline without paying for a second ASAP sweep.
///
/// # Panics
///
/// Panics if `deadline` is smaller than the dependence-only length implied
/// by `asap` — no valid ALAP exists then.
pub fn alap_from_asap(dfg: &SchedDfg, asap: &[u32], deadline: u32) -> Vec<u32> {
    let len = length_from_asap(dfg, asap);
    assert!(
        deadline >= len,
        "deadline {deadline} below dependence-only length {len}"
    );
    let mut start = vec![0u32; dfg.len()];
    for u in (0..dfg.len()).rev() {
        let uid = NodeId::new(u as u32);
        let lat = dfg.node(uid).payload().latency;
        let s = dfg
            .succs(uid)
            .map(|s| {
                debug_assert!(
                    s.index() > u,
                    "alap: node {u} feeds node {} — index order is not topological",
                    s.index()
                );
                start[s.index()]
            })
            .min()
            .map(|earliest_succ| earliest_succ - lat)
            .unwrap_or(deadline - lat);
        start[u] = s;
    }
    start
}

/// Schedule length implied by an ASAP vector.
pub fn length_from_asap(dfg: &SchedDfg, asap: &[u32]) -> u32 {
    dfg.iter()
        .map(|(id, n)| asap[id.index()] + n.payload().latency)
        .max()
        .unwrap_or(0)
}

/// Mobility (slack) of every node against the dependence-only length:
/// `alap − asap`. Zero mobility means the node is on a critical path.
pub fn mobility(dfg: &SchedDfg) -> Vec<u32> {
    let a = asap(dfg);
    let len = length_from_asap(dfg, &a);
    let l = alap_from_asap(dfg, &a, len);
    a.iter().zip(&l).map(|(a, l)| l - a).collect()
}

/// The set of nodes on a latency-weighted critical path (mobility zero).
///
/// # Example
///
/// ```
/// use isex_dfg::Operand;
/// use isex_sched::{SchedDfg, SchedOp, UnitClass};
/// use isex_sched::timing::critical_nodes;
///
/// let mut g = SchedDfg::new();
/// let alu = |l| SchedOp::new(l, 1, 1, UnitClass::Alu);
/// let a = g.add_node(alu(1), vec![]);
/// let b = g.add_node(alu(2), vec![Operand::Node(a)]);
/// let c = g.add_node(alu(1), vec![Operand::Node(a)]); // slack 1
/// let d = g.add_node(alu(1), vec![Operand::Node(b), Operand::Node(c)]);
/// let crit = critical_nodes(&g);
/// assert!(crit.contains(a) && crit.contains(b) && crit.contains(d));
/// assert!(!crit.contains(c));
/// ```
pub fn critical_nodes(dfg: &SchedDfg) -> NodeSet {
    let mut set = NodeSet::new(dfg.len());
    for (i, m) in mobility(dfg).iter().enumerate() {
        if *m == 0 {
            set.insert(NodeId::new(i as u32));
        }
    }
    set
}

/// The maximal allowable execution cycles of a subgraph (§4.3, Fig. 4.3.8):
/// the window between the earliest cycle any member of `set` could start
/// and the latest cycle any member could finish without stretching the
/// schedule beyond `deadline`.
///
/// If the subgraph (as an ISE) executes in at most `Max_AEC` cycles, "there
/// does not have any performance loss".
///
/// Returns 0 for an empty set.
pub fn max_aec(dfg: &SchedDfg, set: &NodeSet, deadline: u32) -> u32 {
    if set.is_empty() {
        return 0;
    }
    let asap = asap(dfg);
    let alap = alap_from_asap(dfg, &asap, deadline);
    let earliest_start = set.iter().map(|n| asap[n.index()]).min().unwrap_or(0);
    let latest_finish = set
        .iter()
        .map(|n| alap[n.index()] + dfg.node(n).payload().latency)
        .max()
        .unwrap_or(0);
    latest_finish.saturating_sub(earliest_start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::{SchedOp, UnitClass};
    use isex_dfg::Operand;

    fn alu(lat: u32) -> SchedOp {
        SchedOp::new(lat, 1, 1, UnitClass::Alu)
    }

    /// a(1) -> b(2) -> d(1);  a -> c(1) -> d
    fn sample() -> (SchedDfg, [NodeId; 4]) {
        let mut g = SchedDfg::new();
        let a = g.add_node(alu(1), vec![]);
        let b = g.add_node(alu(2), vec![Operand::Node(a)]);
        let c = g.add_node(alu(1), vec![Operand::Node(a)]);
        let d = g.add_node(alu(1), vec![Operand::Node(b), Operand::Node(c)]);
        (g, [a, b, c, d])
    }

    #[test]
    fn asap_and_length() {
        let (g, [a, b, c, d]) = sample();
        let s = asap(&g);
        assert_eq!(s[a.index()], 0);
        assert_eq!(s[b.index()], 1);
        assert_eq!(s[c.index()], 1);
        assert_eq!(s[d.index()], 3);
        assert_eq!(length_from_asap(&g, &s), 4);
    }

    #[test]
    fn alap_pushes_slack_late() {
        let (g, [a, b, c, d]) = sample();
        let l = alap(&g, 4);
        assert_eq!(l[a.index()], 0);
        assert_eq!(l[b.index()], 1);
        assert_eq!(l[c.index()], 2, "c can slip one cycle");
        assert_eq!(l[d.index()], 3);
    }

    #[test]
    fn mobility_and_critical() {
        let (g, [a, b, c, d]) = sample();
        let m = mobility(&g);
        assert_eq!(m[a.index()], 0);
        assert_eq!(m[b.index()], 0);
        assert_eq!(m[c.index()], 1);
        assert_eq!(m[d.index()], 0);
        let crit = critical_nodes(&g);
        assert_eq!(crit.len(), 3);
        assert!(!crit.contains(c));
    }

    #[test]
    fn alap_with_extended_deadline() {
        let (g, [a, ..]) = sample();
        let l = alap(&g, 6);
        assert_eq!(l[a.index()], 2, "everything slips by the extra slack");
    }

    #[test]
    #[should_panic(expected = "deadline")]
    fn alap_below_length_panics() {
        let (g, _) = sample();
        alap(&g, 3);
    }

    #[test]
    fn alap_from_asap_matches_alap() {
        let (g, _) = sample();
        let a = asap(&g);
        assert_eq!(alap_from_asap(&g, &a, 4), alap(&g, 4));
        assert_eq!(alap_from_asap(&g, &a, 7), alap(&g, 7));
    }

    #[test]
    #[should_panic(expected = "deadline")]
    fn alap_from_asap_validates_deadline() {
        let (g, _) = sample();
        let a = asap(&g);
        alap_from_asap(&g, &a, 3);
    }

    /// Regression: `asap`/`alap` assume index order is topological.
    /// `Dfg::add_node` guarantees it, but serde deserialization bypasses
    /// the constructor — a payload with a forward reference used to yield
    /// silently wrong timings. Debug builds now assert on the bad edge.
    #[cfg(debug_assertions)]
    #[test]
    fn non_topological_order_is_caught_in_debug() {
        // Node 0 reads node 1: a forward reference no `add_node` call can
        // produce, but a stale/hostile serialized graph can.
        let json = r#"{
            "nodes": [
                {"payload": {"latency": 1, "reads": 1, "writes": 1, "class": "Alu"},
                 "operands": [{"Node": 1}], "live_out": false},
                {"payload": {"latency": 1, "reads": 1, "writes": 1, "class": "Alu"},
                 "operands": [], "live_out": true}
            ],
            "succs": [[], [0]],
            "live_ins": 0
        }"#;
        let g: SchedDfg = serde_json::from_str(json).expect("payload parses");
        let fwd = std::panic::catch_unwind(|| asap(&g));
        assert!(fwd.is_err(), "asap must reject a non-topological order");
        let bwd = std::panic::catch_unwind(|| alap_from_asap(&g, &[0, 0], 2));
        assert!(bwd.is_err(), "alap must reject a non-topological order");
    }

    #[test]
    fn max_aec_on_critical_chain_equals_its_span() {
        let (g, [a, b, _, d]) = sample();
        let mut s = NodeSet::new(4);
        s.insert(a);
        s.insert(b);
        s.insert(d);
        // Critical chain occupies the whole schedule: window = deadline.
        assert_eq!(max_aec(&g, &s, 4), 4);
    }

    #[test]
    fn max_aec_of_slack_node_includes_slack() {
        let (g, [_, _, c, _]) = sample();
        let mut s = NodeSet::new(4);
        s.insert(c);
        // c may start at 1 and finish by 3 (alap 2 + lat 1): window 2.
        assert_eq!(max_aec(&g, &s, 4), 2);
        // With a relaxed deadline the window grows.
        assert_eq!(max_aec(&g, &s, 6), 4);
    }

    #[test]
    fn max_aec_empty_set_is_zero() {
        let (g, _) = sample();
        assert_eq!(max_aec(&g, &NodeSet::new(4), 4), 0);
    }

    #[test]
    fn empty_graph() {
        let g = SchedDfg::new();
        assert!(asap(&g).is_empty());
        assert_eq!(length_from_asap(&g, &[]), 0);
        assert!(critical_nodes(&g).is_empty());
    }
}
