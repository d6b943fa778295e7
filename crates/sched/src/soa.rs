//! Struct-of-arrays graph form and its kernels: the arena graph the list
//! scheduler runs on, dependence-only timing, exact quotient collapse and
//! quotient-free walk timing.
//!
//! The exploration loop evaluates thousands of ISE patches per round, and
//! each evaluation used to rebuild a pointer-rich [`SchedDfg`] quotient and
//! re-run full ASAP/ALAP/height passes over it. This module provides the
//! data-oriented replacements:
//!
//! * [`SoaGraph`] — latency/read/write/class vectors plus flat CSR
//!   adjacency arenas, no per-node allocations; built from any payload
//!   DFG ([`SoaGraph::from_dfg`]) and scheduled by
//!   [`schedule_soa`](crate::list::schedule_soa). It is the explorer's one
//!   array form of a round's graph: the ant walk reads its rows too;
//! * [`asap_into`], [`alap_into`], [`length_from_asap`] and
//!   [`height_into`] — the [`timing`](crate::timing) passes on arrays, and
//!   the values behind [`Priority`](crate::Priority);
//! * [`collapse_soa`] — the quotient construction of
//!   [`collapse_groups`](crate::collapse::collapse_groups) replayed on the
//!   arrays, producing *bit-identical vertex numbering* (same Kahn order,
//!   same edge dedup) without emitting a `Dfg`; the list scheduler's
//!   tie-breaks need that numbering, and
//!   [`collapsed_len`](crate::collapse::collapsed_len) schedules the
//!   quotient;
//! * [`walk_timing_into`] — ASAP/ALAP of a walk whose groups are collapsed,
//!   by a counter-driven pass over the base CSR and its reverse, with no
//!   quotient at all (timing values do not depend on a vertex numbering).
//!
//! # Determinism
//!
//! Every kernel here is documented (and tested) to reproduce its
//! `Dfg`-walking counterpart *exactly*: quotient vertex ids and all timing
//! vectors are equal value for value, so a caller may switch
//! representations per evaluation without perturbing a single downstream
//! f64.

use isex_dfg::{Dfg, NodeSet};

use crate::unit::{SchedDfg, SchedOp, UnitClass};

/// A schedulable graph in struct-of-arrays form: per-node footprint
/// vectors plus compressed-sparse-row predecessor/successor arenas
/// (distinct neighbours, first-occurrence order — the same sequences
/// [`isex_dfg::Dfg::preds`]/[`succs`](isex_dfg::Dfg::succs) yield).
///
/// Node indices follow the source DFG (or, for a quotient built
/// by [`collapse_soa`], the emission order of
/// [`collapse_groups`](crate::collapse::collapse_groups)); the index order
/// is topological.
#[derive(Clone, Debug, Default)]
pub struct SoaGraph {
    /// Latency in cycles per node.
    pub lat: Vec<u32>,
    /// Register read ports per node.
    pub reads: Vec<u32>,
    /// Register write ports per node.
    pub writes: Vec<u32>,
    /// Function-unit class per node.
    pub class: Vec<UnitClass>,
    pred_off: Vec<u32>,
    pred: Vec<u32>,
    succ_off: Vec<u32>,
    succ: Vec<u32>,
}

impl SoaGraph {
    /// Lowers `dfg` into arrays.
    pub fn from_sched(dfg: &SchedDfg) -> Self {
        Self::from_dfg(dfg, |op| *op)
    }

    /// Lowers a DFG of any payload into arrays, `op_of` giving each node's
    /// scheduling footprint.
    pub fn from_dfg<N>(dfg: &Dfg<N>, op_of: impl Fn(&N) -> SchedOp) -> Self {
        let mut g = SoaGraph::default();
        g.assign(dfg, op_of);
        g
    }

    /// [`SoaGraph::from_dfg`] into `self`, reusing its allocations.
    pub(crate) fn assign<N>(&mut self, dfg: &Dfg<N>, op_of: impl Fn(&N) -> SchedOp) {
        self.clear();
        for (_, n) in dfg.iter() {
            let op = op_of(n.payload());
            self.lat.push(op.latency);
            self.reads.push(op.reads as u32);
            self.writes.push(op.writes as u32);
            self.class.push(op.class);
        }
        self.pred_off.push(0);
        for id in dfg.node_ids() {
            self.pred.extend(dfg.preds(id).map(|p| p.index() as u32));
            self.pred_off.push(self.pred.len() as u32);
        }
        self.succ_off.push(0);
        for id in dfg.node_ids() {
            self.succ.extend(dfg.succs(id).map(|s| s.index() as u32));
            self.succ_off.push(self.succ.len() as u32);
        }
    }

    fn clear(&mut self) {
        self.lat.clear();
        self.reads.clear();
        self.writes.clear();
        self.class.clear();
        self.pred_off.clear();
        self.pred.clear();
        self.succ_off.clear();
        self.succ.clear();
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.lat.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.lat.is_empty()
    }

    /// Distinct predecessors of node `v`.
    pub fn preds(&self, v: usize) -> &[u32] {
        &self.pred[self.pred_off[v] as usize..self.pred_off[v + 1] as usize]
    }

    /// Distinct successors of node `v`.
    pub fn succs(&self, v: usize) -> &[u32] {
        &self.succ[self.succ_off[v] as usize..self.succ_off[v + 1] as usize]
    }

    /// The scheduling footprint of node `v`.
    pub(crate) fn op(&self, v: usize) -> SchedOp {
        SchedOp {
            latency: self.lat[v],
            reads: self.reads[v] as usize,
            writes: self.writes[v] as usize,
            class: self.class[v],
        }
    }
}

/// Earliest start of every node (resources ignored), written into `out`.
/// Equal to [`timing::asap`](crate::timing::asap) on the source graph.
pub fn asap_into(g: &SoaGraph, out: &mut Vec<u32>) {
    out.clear();
    out.resize(g.len(), 0);
    for v in 0..g.len() {
        let s = g
            .preds(v)
            .iter()
            .map(|&p| out[p as usize] + g.lat[p as usize])
            .max()
            .unwrap_or(0);
        out[v] = s;
    }
}

/// Schedule length implied by an ASAP vector of `g`.
pub fn length_from_asap(g: &SoaGraph, asap: &[u32]) -> u32 {
    (0..g.len()).map(|v| asap[v] + g.lat[v]).max().unwrap_or(0)
}

/// Latest start of every node such that everything finishes by `deadline`,
/// written into `out`. Equal to
/// [`timing::alap`](crate::timing::alap) on the source graph.
///
/// # Panics
///
/// Panics if `deadline` is smaller than the dependence-only length — no
/// valid ALAP exists then.
pub fn alap_into(g: &SoaGraph, deadline: u32, out: &mut Vec<u32>) {
    out.clear();
    out.resize(g.len(), 0);
    for v in (0..g.len()).rev() {
        let latest_finish = g
            .succs(v)
            .iter()
            .map(|&s| out[s as usize])
            .min()
            .unwrap_or(deadline);
        // A start goes negative exactly when `deadline` is below the
        // dependence-only length, so the check costs no extra pass.
        out[v] = match latest_finish.checked_sub(g.lat[v]) {
            Some(start) => start,
            None => {
                let mut asap = Vec::new();
                asap_into(g, &mut asap);
                let len = length_from_asap(g, &asap);
                panic!("deadline {deadline} below dependence-only length {len}")
            }
        };
    }
}

/// Latency-weighted height of every node (the
/// [`Priority::Height`](crate::Priority::Height) values), written into
/// `out`.
pub fn height_into(g: &SoaGraph, out: &mut Vec<i64>) {
    out.clear();
    out.resize(g.len(), 0);
    for v in (0..g.len()).rev() {
        out[v] = g.lat[v] as i64
            + g.succs(v)
                .iter()
                .map(|&s| out[s as usize])
                .max()
                .unwrap_or(0);
    }
}

/// The quotient graph produced by [`collapse_soa`]: arrays plus the
/// base→quotient mapping.
#[derive(Clone, Debug, Default)]
pub struct Quotient {
    /// The quotient in SoA form; vertex ids match the emission order of
    /// [`collapse_groups`](crate::collapse::collapse_groups) exactly.
    pub graph: SoaGraph,
    /// For every base node, its quotient vertex.
    pub node_map: Vec<u32>,
}

/// Reusable working memory for [`collapse_soa`].
#[derive(Clone, Debug, Default)]
pub struct QuotientScratch {
    group_of: Vec<i32>,
    vx: Vec<u32>,
    singles: Vec<u32>,
    edges: Vec<(u32, u32)>,
    indeg: Vec<u32>,
    osucc_off: Vec<u32>,
    queue: Vec<u32>,
    topo: Vec<u32>,
    new_id: Vec<u32>,
    counts: Vec<u32>,
}

/// Collapses each `(members, footprint)` group of `base` into a single
/// vertex, writing the quotient into `out`.
///
/// This is [`collapse_groups`](crate::collapse::collapse_groups) replayed
/// on arrays: the same vertex keys (groups first, then singles in index
/// order), the same deduplicated edge set, and the same vec-stack Kahn
/// walk (initial zero-indegree queue ascending, pop from the back), so the
/// emitted vertex numbering — which downstream scheduler tie-breaks depend
/// on — is identical. No `Dfg` is built and, at steady state, nothing is
/// allocated.
///
/// # Panics
///
/// Panics if group sets overlap or if some set is not convex, matching the
/// `Dfg` path.
pub fn collapse_soa(
    base: &SoaGraph,
    groups: &[(NodeSet, SchedOp)],
    s: &mut QuotientScratch,
    out: &mut Quotient,
) {
    let k = base.len();
    let gn = groups.len();

    s.group_of.clear();
    s.group_of.resize(k, -1);
    for (i, (set, _)) in groups.iter().enumerate() {
        for n in set {
            assert!(
                s.group_of[n.index()] < 0,
                "node {n:?} belongs to two ISE instances"
            );
            s.group_of[n.index()] = i as i32;
        }
    }

    // Vertex key per base node: groups take ids 0..gn, singles follow in
    // base-index order (the prefix-rank replacement for the O(n) scan the
    // Dfg path does per lookup).
    s.vx.clear();
    s.vx.reserve(k);
    s.singles.clear();
    for n in 0..k {
        if s.group_of[n] >= 0 {
            s.vx.push(s.group_of[n] as u32);
        } else {
            s.vx.push((gn + s.singles.len()) as u32);
            s.singles.push(n as u32);
        }
    }
    let vcount = gn + s.singles.len();

    // Deduplicated quotient edges, sorted — the same set, iterated in the
    // same (src, dst) order, as the Dfg path's BTreeSet.
    s.edges.clear();
    for n in 0..k {
        let dst = s.vx[n];
        for &p in base.preds(n) {
            let src = s.vx[p as usize];
            if src != dst {
                s.edges.push((src, dst));
            }
        }
    }
    s.edges.sort_unstable();
    s.edges.dedup();

    // Kahn topological sort, replicating the Dfg path exactly: vec-stack
    // queue seeded with zero-indegree vertices ascending, popped from the
    // back, successors scanned in dst-ascending order.
    s.indeg.clear();
    s.indeg.resize(vcount, 0);
    for &(_, d) in &s.edges {
        s.indeg[d as usize] += 1;
    }
    s.osucc_off.clear();
    s.osucc_off.resize(vcount + 1, 0);
    for &(src, _) in &s.edges {
        s.osucc_off[src as usize + 1] += 1;
    }
    for v in 0..vcount {
        s.osucc_off[v + 1] += s.osucc_off[v];
    }
    s.queue.clear();
    s.queue
        .extend((0..vcount as u32).filter(|&v| s.indeg[v as usize] == 0));
    s.topo.clear();
    while let Some(v) = s.queue.pop() {
        s.topo.push(v);
        let (lo, hi) = (s.osucc_off[v as usize], s.osucc_off[v as usize + 1]);
        for &(_, d) in &s.edges[lo as usize..hi as usize] {
            s.indeg[d as usize] -= 1;
            if s.indeg[d as usize] == 0 {
                s.queue.push(d);
            }
        }
    }
    assert_eq!(
        s.topo.len(),
        vcount,
        "quotient graph is cyclic: some ISE set is not convex"
    );
    s.new_id.clear();
    s.new_id.resize(vcount, 0);
    for (pos, &v) in s.topo.iter().enumerate() {
        s.new_id[v as usize] = pos as u32;
    }

    // Emit payload arrays in quotient-topological order.
    let q = &mut out.graph;
    q.clear();
    for &v in &s.topo {
        if (v as usize) < gn {
            let fp = &groups[v as usize].1;
            q.lat.push(fp.latency);
            q.reads.push(fp.reads as u32);
            q.writes.push(fp.writes as u32);
            q.class.push(fp.class);
        } else {
            let n = s.singles[v as usize - gn] as usize;
            q.lat.push(base.lat[n]);
            q.reads.push(base.reads[n]);
            q.writes.push(base.writes[n]);
            q.class.push(base.class[n]);
        }
    }

    // Quotient adjacency in new-id space (CSR by counting; list order is
    // irrelevant — every consumer takes an order-free min/max/sum).
    s.counts.clear();
    s.counts.resize(vcount, 0);
    for &(_, d) in &s.edges {
        s.counts[s.new_id[d as usize] as usize] += 1;
    }
    q.pred_off.clear();
    q.pred_off.resize(vcount + 1, 0);
    for v in 0..vcount {
        q.pred_off[v + 1] = q.pred_off[v] + s.counts[v];
    }
    q.pred.clear();
    q.pred.resize(s.edges.len(), 0);
    s.counts.clear();
    s.counts.resize(vcount, 0);
    for &(src, d) in &s.edges {
        let nd = s.new_id[d as usize] as usize;
        let slot = q.pred_off[nd] + s.counts[nd];
        q.pred[slot as usize] = s.new_id[src as usize];
        s.counts[nd] += 1;
    }
    s.counts.clear();
    s.counts.resize(vcount, 0);
    for &(src, _) in &s.edges {
        s.counts[s.new_id[src as usize] as usize] += 1;
    }
    q.succ_off.clear();
    q.succ_off.resize(vcount + 1, 0);
    for v in 0..vcount {
        q.succ_off[v + 1] = q.succ_off[v] + s.counts[v];
    }
    q.succ.clear();
    q.succ.resize(s.edges.len(), 0);
    s.counts.clear();
    s.counts.resize(vcount, 0);
    for &(src, d) in &s.edges {
        let ns = s.new_id[src as usize] as usize;
        let slot = q.succ_off[ns] + s.counts[ns];
        q.succ[slot as usize] = s.new_id[d as usize];
        s.counts[ns] += 1;
    }

    out.node_map.clear();
    out.node_map
        .extend((0..k).map(|n| s.new_id[s.vx[n] as usize]));
}

/// The timing of one walk over a base graph, computed by
/// [`walk_timing_into`]. Every group is one *unit*, represented by its
/// first (lowest-index) member; every other node is a unit of its own.
/// The unit-indexed vectors are indexed by the representative's base index;
/// their entries at other members are unspecified.
#[derive(Clone, Debug, Default)]
pub struct WalkTiming {
    /// The unit (representative base node) of every base node.
    pub unit: Vec<u32>,
    /// Latency per unit.
    pub lat: Vec<u32>,
    /// ASAP start per unit.
    pub asap: Vec<u32>,
    /// ALAP start per unit at deadline [`WalkTiming::len`].
    pub alap: Vec<u32>,
    /// Dependence-only schedule length of the walk.
    pub len: u32,
    /// The next member of the same unit, ascending (`u32::MAX` after the
    /// last).
    next: Vec<u32>,
    /// Crossing in-edges of each unit not yet resolved.
    pending: Vec<u32>,
    /// Units in the order they resolved (a topological order).
    order: Vec<u32>,
}

/// Times a walk on `g` without building a quotient: `lat` holds every
/// node's latency in this walk, and each non-empty `(members, latency)`
/// group, its members' indices ascending, is collapsed into one unit of
/// that latency.
///
/// A unit's pending count is its number of crossing base in-edges (from
/// another unit). The forward pass resolves a unit when its count reaches
/// zero, fixing its ASAP and pushing its finish to the units it feeds; the
/// backward pass takes ALAP at the walk's length in the reverse of that
/// order. Starts are a max or a min over neighbours, so any topological
/// order gives the same values, and no edge sort, dedup or vertex
/// renumbering is needed. For every base node `n`, `asap[unit[n]]`,
/// `alap[unit[n]]` and `lat[unit[n]]` equal [`asap_into`], [`alap_into`]
/// at [`length_from_asap`] and the latency on the [`collapse_soa`]
/// quotient at `node_map[n]`. Nothing is allocated once the buffers have
/// grown to the graph.
///
/// # Panics
///
/// Panics if some group is not convex (its unit would sit on a cycle).
/// Overlapping groups are a caller error, checked in debug builds.
pub fn walk_timing_into<M: IntoIterator<Item = u32>>(
    g: &SoaGraph,
    lat: &[u32],
    groups: impl IntoIterator<Item = (M, u32)>,
    t: &mut WalkTiming,
) {
    let k = g.len();
    t.unit.clear();
    t.unit.extend(0..k as u32);
    t.lat.clear();
    t.lat.extend_from_slice(lat);
    t.next.clear();
    t.next.resize(k, u32::MAX);
    let mut units = k;
    for (members, glat) in groups {
        let mut it = members.into_iter();
        let rep = it.next().expect("groups are non-empty");
        debug_assert_eq!(t.unit[rep as usize], rep, "node {rep} in two groups");
        t.lat[rep as usize] = glat;
        let mut prev = rep;
        for m in it {
            debug_assert_eq!(t.unit[m as usize], m, "node {m} in two groups");
            t.unit[m as usize] = rep;
            t.next[prev as usize] = m;
            prev = m;
            units -= 1;
        }
    }

    t.pending.clear();
    t.pending.resize(k, 0);
    for n in 0..k {
        let u = t.unit[n];
        for &p in g.preds(n) {
            if t.unit[p as usize] != u {
                t.pending[u as usize] += 1;
            }
        }
    }
    t.asap.clear();
    t.asap.resize(k, 0);
    t.order.clear();
    t.order
        .extend((0..k as u32).filter(|&v| t.unit[v as usize] == v && t.pending[v as usize] == 0));
    let (mut i, mut len) = (0, 0);
    while let Some(&u) = t.order.get(i) {
        i += 1;
        let finish = t.asap[u as usize] + t.lat[u as usize];
        len = len.max(finish);
        let mut m = u;
        while m != u32::MAX {
            for &sc in g.succs(m as usize) {
                let su = t.unit[sc as usize] as usize;
                if su as u32 != u {
                    t.asap[su] = t.asap[su].max(finish);
                    t.pending[su] -= 1;
                    if t.pending[su] == 0 {
                        t.order.push(su as u32);
                    }
                }
            }
            m = t.next[m as usize];
        }
    }
    assert_eq!(
        t.order.len(),
        units,
        "walk timing is cyclic: some group is not convex"
    );
    t.len = len;

    t.alap.clear();
    t.alap.resize(k, 0);
    for &u in t.order.iter().rev() {
        let mut earliest_succ = len;
        let mut m = u;
        while m != u32::MAX {
            for &sc in g.succs(m as usize) {
                let su = t.unit[sc as usize];
                if su != u {
                    earliest_succ = earliest_succ.min(t.alap[su as usize]);
                }
            }
            m = t.next[m as usize];
        }
        t.alap[u as usize] = earliest_succ - t.lat[u as usize];
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::collapse::{collapse_groups, collapsed_len, CollapseScratch};
    use crate::list::{list_schedule, Priority};
    use crate::timing;
    use isex_dfg::{NodeId, Operand};
    use isex_isa::MachineConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random DAG with varied latencies/classes, operands drawn from
    /// earlier nodes (so index order is topological by construction).
    pub(crate) fn random_dfg(rng: &mut StdRng, k: usize) -> SchedDfg {
        let mut g = SchedDfg::new();
        let x = g.live_in();
        for i in 0..k {
            let mut operands = Vec::new();
            if i > 0 {
                for _ in 0..rng.gen_range(0..=3usize.min(i)) {
                    operands.push(Operand::Node(NodeId::new(rng.gen_range(0..i) as u32)));
                }
            }
            if operands.is_empty() {
                operands.push(Operand::LiveIn(x));
            }
            let class = match rng.gen_range(0..4u32) {
                0 => UnitClass::Mult,
                1 => UnitClass::Mem,
                _ => UnitClass::Alu,
            };
            let id = g.add_node(
                SchedOp::new(rng.gen_range(1..4), operands.len().min(2), 1, class),
                operands,
            );
            if rng.gen_bool(0.3) {
                g.set_live_out(id, true);
            }
        }
        g
    }

    /// A random family of disjoint convex groups of `dfg` (contiguous
    /// index ranges are always convex), each an `Asfu` footprint.
    pub(crate) fn random_groups(rng: &mut StdRng, k: usize) -> Vec<(NodeSet, SchedOp)> {
        let mut groups = Vec::new();
        let mut next = 0usize;
        while next + 1 < k && groups.len() < 3 {
            let lo = rng.gen_range(next..k - 1);
            let hi = rng.gen_range(lo + 1..(lo + 4).min(k));
            let mut set = NodeSet::new(k);
            for n in lo..=hi {
                set.insert(NodeId::new(n as u32));
            }
            groups.push((
                set,
                SchedOp::new(rng.gen_range(1..3), 2, 1, UnitClass::Asfu),
            ));
            next = hi + 1;
        }
        groups
    }

    /// The CSR rows hold exactly what the `Dfg` iterators yield: distinct
    /// neighbours in first-occurrence order.
    fn assert_same_adjacency(dfg: &SchedDfg, g: &SoaGraph) {
        assert_eq!(g.len(), dfg.len());
        for id in dfg.node_ids() {
            let preds: Vec<u32> = dfg.preds(id).map(|n| n.index() as u32).collect();
            let succs: Vec<u32> = dfg.succs(id).map(|n| n.index() as u32).collect();
            assert_eq!(g.preds(id.index()), preds, "preds of {id:?}");
            assert_eq!(g.succs(id.index()), succs, "succs of {id:?}");
        }
    }

    #[test]
    fn soa_timing_matches_dfg_timing() {
        // Adjacency first, which the ant walk reads: a duplicated operand
        // is one edge, neighbours keep first-occurrence (not ascending)
        // order, and the empty graph has no rows.
        let mut dfg = SchedDfg::new();
        let op = SchedOp::new(1, 1, 1, UnitClass::Alu);
        let a = dfg.add_node(op, vec![]);
        let c = dfg.add_node(op, vec![]);
        let b = dfg.add_node(
            op,
            vec![Operand::Node(c), Operand::Node(a), Operand::Node(c)],
        );
        let d = dfg.add_node(op, vec![Operand::Node(a), Operand::Node(a)]);
        let g = SoaGraph::from_sched(&dfg);
        assert_same_adjacency(&dfg, &g);
        assert_eq!(g.preds(b.index()), [c.index() as u32, a.index() as u32]);
        assert_eq!(g.preds(d.index()), [a.index() as u32], "duplicate deduped");
        assert_eq!(g.succs(a.index()), [b.index() as u32, d.index() as u32]);
        let empty = SoaGraph::from_sched(&SchedDfg::new());
        assert!(empty.is_empty());

        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..30 {
            let k = rng.gen_range(1..40);
            let dfg = random_dfg(&mut rng, k);
            let g = SoaGraph::from_sched(&dfg);
            assert_same_adjacency(&dfg, &g);
            let mut asap = Vec::new();
            asap_into(&g, &mut asap);
            assert_eq!(asap, timing::asap(&dfg));
            let len = length_from_asap(&g, &asap);
            assert_eq!(len, timing::dep_length(&dfg));
            let mut alap = Vec::new();
            alap_into(&g, len + 3, &mut alap);
            assert_eq!(alap, timing::alap(&dfg, len + 3));
            let mut h = Vec::new();
            height_into(&g, &mut h);
            // Height is the distance from issue to the end of the chain.
            let at_len = timing::alap(&dfg, len);
            assert!(h.iter().zip(&at_len).all(|(&h, &l)| h == (len - l) as i64));
        }
    }

    #[test]
    #[should_panic(expected = "deadline 4 below dependence-only length 5")]
    fn alap_below_length_panics() {
        let mut dfg = SchedDfg::new();
        let a = dfg.add_node(SchedOp::new(2, 1, 1, UnitClass::Alu), vec![]);
        dfg.add_node(
            SchedOp::new(3, 1, 1, UnitClass::Alu),
            vec![Operand::Node(a)],
        );
        alap_into(&SoaGraph::from_sched(&dfg), 4, &mut Vec::new());
    }

    #[test]
    fn collapse_soa_replicates_dfg_quotient() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut scratch = QuotientScratch::default();
        let mut q = Quotient::default();
        let m = MachineConfig::preset_2issue_4r2w();
        let mut kernel = CollapseScratch::default();
        for _ in 0..40 {
            let k = rng.gen_range(4..40);
            let dfg = random_dfg(&mut rng, k);
            let groups = random_groups(&mut rng, dfg.len());
            let reference = collapse_groups(&dfg, &groups);
            let base = SoaGraph::from_sched(&dfg);
            collapse_soa(&base, &groups, &mut scratch, &mut q);
            assert_eq!(q.graph.len(), reference.dfg.len(), "vertex count");
            assert_eq!(
                q.node_map,
                reference
                    .node_map
                    .iter()
                    .map(|n| n.index() as u32)
                    .collect::<Vec<_>>(),
                "node_map must match vertex numbering exactly"
            );
            for ((set, _), gv) in groups.iter().zip(&reference.group_nodes) {
                let first = set.first().expect("non-empty group").index();
                assert_eq!(q.node_map[first], gv.index() as u32, "group vertex");
            }
            for v in 0..q.graph.len() {
                let vid = NodeId::new(v as u32);
                let op = reference.dfg.node(vid).payload();
                assert_eq!(q.graph.lat[v], op.latency);
                assert_eq!(q.graph.reads[v] as usize, op.reads);
                assert_eq!(q.graph.writes[v] as usize, op.writes);
                assert_eq!(q.graph.class[v], op.class);
                let mut soa_preds: Vec<u32> = q.graph.preds(v).to_vec();
                soa_preds.sort_unstable();
                let mut dfg_preds: Vec<u32> =
                    reference.dfg.preds(vid).map(|p| p.index() as u32).collect();
                dfg_preds.sort_unstable();
                assert_eq!(soa_preds, dfg_preds, "pred set of vertex {v}");
            }
            // The collapse-and-schedule kernel schedules exactly the graph
            // `collapse_groups` builds.
            assert_eq!(
                collapsed_len(&base, &groups, &m, &mut kernel),
                list_schedule(&reference.dfg, &m, Priority::Height).length,
                "collapsed_len"
            );
        }
    }
}
