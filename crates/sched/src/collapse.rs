//! Collapsing ISE subgraphs into single schedulable units.
//!
//! ISE replacement (§3.1, final design-flow stage) substitutes matched
//! subgraphs with single ISE instructions, after which "the code is
//! scheduled again to obtain execution time" (§5.1); the explorer does the
//! same after each round, because "the critical path moves after each new
//! ISE" (§4.3). Both schedule through one kernel, [`collapsed_len`]: the
//! groups are collapsed on the block's [`SoaGraph`] by [`collapse_soa`]
//! and the quotient is list-scheduled with height priority.
//!
//! [`collapse_groups`] performs the substitution on a DFG of any payload:
//! each selected subgraph becomes one node whose payload the caller
//! supplies, and all edges are re-routed through the quotient graph. The
//! explorer freezes a committed ISE into its graph with it, and it is the
//! reference that `collapse_soa` replays on arrays.

use isex_dfg::{Dfg, NodeId, NodeSet, Operand};
use isex_isa::MachineConfig;

use crate::list::{schedule_soa, ListScratch, Priority};
use crate::soa::{collapse_soa, Quotient, QuotientScratch, SoaGraph};
use crate::unit::SchedOp;

/// Reusable buffers for [`collapsed_len`]: the quotient, its construction
/// scratch and the list scheduler's.
#[derive(Debug, Default)]
pub struct CollapseScratch {
    qscratch: QuotientScratch,
    quotient: Quotient,
    list: ListScratch,
}

/// Schedule length of `base` with every `(members, footprint)` group
/// collapsed into one instruction: [`collapse_soa`] builds the quotient
/// with the numbering [`collapse_groups`] would give (the scheduler's
/// tie-breaks depend on it), and the height-priority list scheduler
/// schedules it. Candidate ranking, the leave-one-out sweep and ISE
/// replacement all go through here.
///
/// # Panics
///
/// Panics if groups overlap or some group is not convex, as
/// [`collapse_soa`] does.
pub fn collapsed_len(
    base: &SoaGraph,
    groups: &[(NodeSet, SchedOp)],
    machine: &MachineConfig,
    s: &mut CollapseScratch,
) -> u32 {
    collapse_soa(base, groups, &mut s.qscratch, &mut s.quotient);
    schedule_soa(&s.quotient.graph, machine, Priority::Height, &mut s.list)
}

/// The result of [`collapse_groups`]: the quotient graph plus the node
/// mapping.
#[derive(Clone, Debug)]
pub struct CollapsedGraph<N> {
    /// The quotient graph: one node per un-collapsed operation and per
    /// group.
    pub dfg: Dfg<N>,
    /// For every original node, the quotient node that now contains it.
    pub node_map: Vec<NodeId>,
    /// For every collapsed group (by input index), its quotient node.
    pub group_nodes: Vec<NodeId>,
}

/// Collapses each `(set, payload)` group of any payload-typed DFG into a
/// single node carrying `payload`. Edges are deduplicated and re-routed
/// through the quotient graph; the group node's operands are the distinct
/// external inputs of the set (constants are dropped — they are hard-wired
/// into the collapsed unit).
///
/// For an ISE, the payload is the footprint of the single instruction:
/// latency = ceil of the ASFU critical delay, reads = `IN(S)`, writes =
/// `OUT(S)`, class `Asfu`.
///
/// # Panics
///
/// Panics if group sets overlap or if the quotient graph is cyclic (i.e.
/// some set is not convex).
///
/// # Example
///
/// ```
/// use isex_dfg::{NodeSet, Operand};
/// use isex_sched::collapse::collapse_groups;
/// use isex_sched::{SchedDfg, SchedOp, UnitClass};
///
/// let mut g = SchedDfg::new();
/// let op = SchedOp::new(1, 1, 1, UnitClass::Alu);
/// let a = g.add_node(op, vec![]);
/// let b = g.add_node(op, vec![Operand::Node(a)]);
/// let c = g.add_node(op, vec![Operand::Node(b)]);
/// let mut s = NodeSet::new(3);
/// s.insert(b);
/// s.insert(c);
/// let out = collapse_groups(&g, &[(s, SchedOp::new(1, 1, 1, UnitClass::Asfu))]);
/// assert_eq!(out.dfg.len(), 2); // a + the ISE
/// ```
pub fn collapse_groups<N: Clone>(dfg: &Dfg<N>, groups: &[(NodeSet, N)]) -> CollapsedGraph<N> {
    let k = dfg.len();
    let ises = groups;
    // group[n] = Some(i) if n belongs to ISE i.
    let mut group: Vec<Option<usize>> = vec![None; k];
    for (i, ise) in ises.iter().enumerate() {
        for n in &ise.0 {
            assert!(
                group[n.index()].is_none(),
                "node {n:?} belongs to two ISE instances"
            );
            group[n.index()] = Some(i);
        }
    }

    // Quotient vertices: ISEs first (stable ids), then singleton nodes.
    // qid assignment happens during topological emission below; here we
    // only need a canonical vertex key.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum Vertex {
        Ise(usize),
        Single(usize),
    }
    let vertex_of = |n: NodeId| -> Vertex {
        match group[n.index()] {
            Some(i) => Vertex::Ise(i),
            None => Vertex::Single(n.index()),
        }
    };

    // Build quotient vertex list and adjacency (dedup edges).
    let mut vertices: Vec<Vertex> = Vec::new();
    for i in 0..ises.len() {
        vertices.push(Vertex::Ise(i));
    }
    for (n, g) in group.iter().enumerate().take(k) {
        if g.is_none() {
            vertices.push(Vertex::Single(n));
        }
    }
    let index_of = |v: Vertex| -> usize {
        match v {
            Vertex::Ise(i) => i,
            Vertex::Single(n) => {
                // singles keep relative order after the ISE block
                ises.len() + (0..n).filter(|&m| group[m].is_none()).count()
            }
        }
    };
    let vcount = vertices.len();
    let mut q_preds: Vec<Vec<usize>> = vec![Vec::new(); vcount];
    let mut q_succ_count: Vec<usize> = vec![0; vcount];
    // BTreeSet keeps edge iteration deterministic (HashSet's per-instance
    // keys would randomise the quotient topological order).
    let mut edge_seen: std::collections::BTreeSet<(usize, usize)> =
        std::collections::BTreeSet::new();
    for n in 0..k {
        let nid = NodeId::new(n as u32);
        let dst = index_of(vertex_of(nid));
        for p in dfg.preds(nid) {
            let src = index_of(vertex_of(p));
            if src != dst && edge_seen.insert((src, dst)) {
                q_preds[dst].push(src);
                q_succ_count[src] += 1;
            }
        }
    }

    // Kahn topological sort of the quotient graph.
    let mut indeg: Vec<usize> = q_preds.iter().map(Vec::len).collect();
    let mut queue: Vec<usize> = (0..vcount).filter(|&v| indeg[v] == 0).collect();
    queue.sort_unstable();
    let mut topo: Vec<usize> = Vec::with_capacity(vcount);
    let mut q_succs: Vec<Vec<usize>> = vec![Vec::new(); vcount];
    for (&(src, dst), _) in edge_seen.iter().map(|e| (e, ())) {
        q_succs[src].push(dst);
    }
    while let Some(v) = queue.pop() {
        topo.push(v);
        for &s in &q_succs[v] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push(s);
            }
        }
    }
    assert_eq!(
        topo.len(),
        vcount,
        "quotient graph is cyclic: some ISE set is not convex"
    );

    // Emit the new graph in quotient-topological order.
    let mut out: Dfg<N> = Dfg::new();
    // Live-ins must be re-declared in the new graph; ids are preserved.
    let mut livein_map = Vec::with_capacity(dfg.live_in_count());
    for _ in 0..dfg.live_in_count() {
        livein_map.push(out.live_in());
    }
    let mut new_id: Vec<Option<NodeId>> = vec![None; vcount];
    for &v in &topo {
        let (payload, operands, live_out) = match vertices[v] {
            Vertex::Single(n) => {
                let nid = NodeId::new(n as u32);
                let node = dfg.node(nid);
                let ops = node
                    .operands()
                    .iter()
                    .map(|op| match *op {
                        Operand::Node(p) => {
                            Operand::Node(new_id[index_of(vertex_of(p))].expect("topo order"))
                        }
                        Operand::LiveIn(x) => Operand::LiveIn(livein_map[x.index()]),
                        c @ Operand::Const(_) => c,
                    })
                    .collect();
                (node.payload().clone(), ops, node.is_live_out())
            }
            Vertex::Ise(i) => {
                let ise = &ises[i];
                // External inputs, deduplicated, in member order.
                let mut ops: Vec<Operand> = Vec::new();
                for n in &ise.0 {
                    for op in dfg.node(n).operands() {
                        let mapped = match *op {
                            Operand::Node(p) => {
                                if ise.0.contains(p) {
                                    continue; // internal edge
                                }
                                Operand::Node(new_id[index_of(vertex_of(p))].expect("topo order"))
                            }
                            Operand::LiveIn(x) => Operand::LiveIn(livein_map[x.index()]),
                            Operand::Const(_) => continue, // hard-wired in the ASFU
                        };
                        if !ops.contains(&mapped) {
                            ops.push(mapped);
                        }
                    }
                }
                let live_out = ise.0.iter().any(|n| dfg.node(n).is_live_out());
                (ise.1.clone(), ops, live_out)
            }
        };
        let id = out.add_node(payload, operands);
        out.set_live_out(id, live_out);
        new_id[v] = Some(id);
    }

    let node_map = (0..k)
        .map(|n| new_id[index_of(vertex_of(NodeId::new(n as u32)))].expect("all emitted"))
        .collect();
    let group_nodes = (0..ises.len())
        .map(|i| new_id[i].expect("all emitted"))
        .collect();
    CollapsedGraph {
        dfg: out,
        node_map,
        group_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::{SchedDfg, SchedOp, UnitClass};

    fn alu() -> SchedOp {
        SchedOp::new(1, 1, 1, UnitClass::Alu)
    }

    fn asfu(lat: u32) -> SchedOp {
        SchedOp::new(lat, 2, 1, UnitClass::Asfu)
    }

    #[test]
    fn collapse_rewires_edges() {
        // a -> b -> c -> d; collapse {b, c}.
        let mut g = SchedDfg::new();
        let a = g.add_node(alu(), vec![]);
        let b = g.add_node(alu(), vec![Operand::Node(a)]);
        let c = g.add_node(alu(), vec![Operand::Node(b)]);
        let d = g.add_node(alu(), vec![Operand::Node(c)]);
        g.set_live_out(d, true);
        let mut s = NodeSet::new(4);
        s.insert(b);
        s.insert(c);
        let out = collapse_groups(&g, &[(s, asfu(1))]);
        assert_eq!(out.dfg.len(), 3);
        let ise = out.group_nodes[0];
        assert_eq!(out.dfg.preds(ise).count(), 1);
        assert_eq!(out.dfg.succs(ise).count(), 1);
        assert_eq!(out.node_map[b.index()], ise);
        assert_eq!(out.node_map[c.index()], ise);
        assert_eq!(out.dfg.node(ise).payload().class, UnitClass::Asfu);
    }

    #[test]
    fn external_inputs_dedup_and_consts_dropped() {
        // x,y live-ins; m = x+y; n = m+x; ISE {m, n}: inputs {x, y} only.
        let mut g = SchedDfg::new();
        let x = g.live_in();
        let y = g.live_in();
        let m = g.add_node(alu(), vec![Operand::LiveIn(x), Operand::LiveIn(y)]);
        let n = g.add_node(
            alu(),
            vec![Operand::Node(m), Operand::LiveIn(x), Operand::Const(7)],
        );
        g.set_live_out(n, true);
        let mut s = NodeSet::new(2);
        s.insert(m);
        s.insert(n);
        let out = collapse_groups(&g, &[(s, asfu(1))]);
        let ise = out.group_nodes[0];
        assert_eq!(out.dfg.len(), 1);
        assert_eq!(
            out.dfg.node(ise).operands().len(),
            2,
            "x deduped, const dropped"
        );
        assert!(out.dfg.node(ise).is_live_out());
    }

    #[test]
    fn two_ises_and_singletons() {
        // Paper Fig. 4.0.2 final state: ISE{3,5} and ISE{6,7,8} among 9 ops.
        let mut g = SchedDfg::new();
        let li: Vec<_> = (0..4).map(|_| g.live_in()).collect();
        let n1 = g.add_node(alu(), vec![Operand::LiveIn(li[0])]);
        let n2 = g.add_node(alu(), vec![Operand::LiveIn(li[1])]);
        let n3 = g.add_node(alu(), vec![Operand::LiveIn(li[2])]);
        let n4 = g.add_node(alu(), vec![Operand::Node(n1)]);
        let n5 = g.add_node(alu(), vec![Operand::Node(n2), Operand::Node(n3)]);
        let n6 = g.add_node(alu(), vec![Operand::Node(n4)]);
        let n7 = g.add_node(alu(), vec![Operand::Node(n4)]);
        let n8 = g.add_node(alu(), vec![Operand::Node(n6), Operand::Node(n7)]);
        let n9 = g.add_node(alu(), vec![Operand::Node(n5), Operand::LiveIn(li[3])]);
        g.set_live_out(n8, true);
        g.set_live_out(n9, true);
        let mut s35 = NodeSet::new(9);
        s35.insert(n3);
        s35.insert(n5);
        let mut s678 = NodeSet::new(9);
        for n in [n6, n7, n8] {
            s678.insert(n);
        }
        let out = collapse_groups(&g, &[(s35, asfu(1)), (s678, asfu(1))]);
        assert_eq!(out.dfg.len(), 6); // 1,2,4,9 + two ISEs
        let ise35 = out.group_nodes[0];
        let ise678 = out.group_nodes[1];
        assert_eq!(out.dfg.preds(ise35).count(), 1, "feeds from op 2");
        assert_eq!(out.dfg.preds(ise678).count(), 1, "feeds from op 4");
        assert!(out.dfg.node(ise678).is_live_out());
        // Quotient is schedulable 3 cycles on 2-issue like Fig. 4.0.2 step 2.
        use crate::list::{list_schedule, Priority};
        let m = isex_isa::MachineConfig::preset_2issue_6r3w();
        let sch = list_schedule(&out.dfg, &m, Priority::Height);
        assert_eq!(sch.length, 3);
    }

    #[test]
    #[should_panic(expected = "two ISE instances")]
    fn overlapping_sets_panic() {
        let mut g = SchedDfg::new();
        let a = g.add_node(alu(), vec![]);
        let b = g.add_node(alu(), vec![Operand::Node(a)]);
        let mut s1 = NodeSet::new(2);
        s1.insert(a);
        s1.insert(b);
        let mut s2 = NodeSet::new(2);
        s2.insert(b);
        collapse_groups(&g, &[(s1, asfu(1)), (s2, asfu(1))]);
    }

    #[test]
    #[should_panic(expected = "not convex")]
    fn nonconvex_set_panics() {
        // a -> b -> c with set {a, c}: quotient has a 2-cycle.
        let mut g = SchedDfg::new();
        let a = g.add_node(alu(), vec![]);
        let b = g.add_node(alu(), vec![Operand::Node(a)]);
        let c = g.add_node(alu(), vec![Operand::Node(b)]);
        let mut s = NodeSet::new(3);
        s.insert(a);
        s.insert(c);
        collapse_groups(&g, &[(s, asfu(1))]);
    }

    #[test]
    fn empty_ise_list_is_identity_modulo_ids() {
        let mut g = SchedDfg::new();
        let a = g.add_node(alu(), vec![]);
        let b = g.add_node(alu(), vec![Operand::Node(a)]);
        let out = collapse_groups(&g, &[]);
        assert_eq!(out.dfg.len(), 2);
        assert_eq!(out.node_map[a.index()].index(), 0);
        assert_eq!(out.node_map[b.index()].index(), 1);
    }
}
