//! Hardware-Grouping and the merit function (Figs. 4.3.6 / 4.3.7 / 4.3.8).
//!
//! After every walk the algorithm evaluates each implementation option of
//! each operation "according to which implementation option is chosen in
//! its neighboring ones at previous iteration" (Ch. 3). Concretely:
//!
//! * **Hardware-Grouping** builds, per operation `x`, the virtual subgraph
//!   `vS_x`: `x` together with its reachable neighbours that chose a
//!   hardware option in this iteration, and evaluates each hardware option
//!   `j` of `x` into `ET(vS_x,HW-j)` (critical-path delay) and
//!   `Area_x,HW-j`;
//! * the **merit function** then applies the four cases: critical-path
//!   boost, size-1 penalty, constraint-violation penalties, and the
//!   performance/area scoring with the `Max_AEC` slack window.

use isex_aco::{ImplChoice, PheromoneStore};
use isex_dfg::{analysis, ports, NodeId, NodeSet, Operand, Reachability};
use isex_isa::MachineConfig;
use isex_sched::soa::SoaGraph;

use crate::ant::Walk;
use crate::candidate::Constraints;
use crate::exgraph::ExGraph;

/// Hardware-Grouping (Fig. 4.3.6): the virtual subgraph of `x` — `x` plus
/// every node reachable from it through neighbours that chose a hardware
/// option in this iteration.
pub(crate) fn virtual_subgraph(g: &ExGraph, walk: &Walk, x: NodeId) -> NodeSet {
    let mut vs = NodeSet::new(g.len());
    vs.insert(x);
    let mut stack = vec![x];
    while let Some(u) = stack.pop() {
        for v in g.preds(u).chain(g.succs(u)) {
            if !vs.contains(v) && walk.choice[v.index()].is_hardware() {
                vs.insert(v);
                stack.push(v);
            }
        }
    }
    vs
}

/// Evaluation of one hardware option of one operation inside its virtual
/// subgraph.
#[derive(Clone, Copy, Debug)]
pub(crate) struct VsEval {
    /// `ET(vS_x,HW-j)` in cycles.
    pub et_cycles: u32,
    /// Total silicon area of the virtual subgraph, µm².
    pub area: f64,
}

/// Evaluates option `j` of `x` within `vs` (members use their own chosen
/// hardware option, `x` uses option `j`).
pub(crate) fn evaluate_option(
    g: &ExGraph,
    walk: &Walk,
    vs: &NodeSet,
    x: NodeId,
    j: usize,
    machine: &MachineConfig,
) -> VsEval {
    let delay = analysis::weighted_longest_path_within(g, vs, |y, op| {
        if y == x {
            op.hw[j].delay_ns
        } else {
            match walk.choice[y.index()] {
                ImplChoice::Hw(h) => op.hw[h].delay_ns,
                // x's own software choice never lands here (y != x), and
                // vs members besides x always chose hardware.
                ImplChoice::Sw(_) => op.hw[0].delay_ns,
            }
        }
    });
    let area: f64 = vs
        .iter()
        .map(|y| {
            let op = g.node(y).payload();
            if y == x {
                op.hw[j].area_um2
            } else {
                match walk.choice[y.index()] {
                    ImplChoice::Hw(h) => op.hw[h].area_um2,
                    ImplChoice::Sw(_) => op.hw[0].area_um2,
                }
            }
        })
        .sum();
    VsEval {
        et_cycles: machine.cycles_for_delay_ns(delay),
        area,
    }
}

/// Software execution cycles of `vs` on the core: its latency-weighted
/// dependence chain (the multi-issue lower bound the ISE must beat). The
/// reference for [`FastPrims::software_cycles`].
#[cfg(test)]
pub(crate) fn software_cycles(g: &ExGraph, vs: &NodeSet) -> u32 {
    analysis::weighted_longest_path_within(g, vs, |_, op| op.sw_delays[0] as f64).round() as u32
}

/// One recorded merit multiplication: `(node index, option, factor)`.
///
/// The merit update is a pure function of the walk given a fixed graph and
/// parameters, so the round cache stores these sequences and replays them.
/// Replaying the *exact* `scale_merit` calls — never pre-multiplied
/// factors — keeps the floating-point results bit-identical to a fresh
/// computation (f64 multiplication is not associative).
pub(crate) type MeritOp = (u32, ImplChoice, f64);

/// Applies a merit-op sequence (step 8 of Fig. 4.3.1) and normalises
/// merits.
pub(crate) fn apply_merit_ops(store: &mut PheromoneStore, ops: &[MeritOp]) {
    for &(node, choice, factor) in ops {
        store.scale_merit(node as usize, choice, factor);
    }
    store.normalize_merits();
}

/// The merit computation of one iteration as a replayable op sequence (the
/// store is only ever touched through `scale_merit`, so recording the calls
/// captures the whole update). Every graph query goes through `prims`, the
/// walk's timing and scratch state.
pub(crate) fn walk_merit_ops(
    g: &ExGraph,
    walk: &Walk,
    constraints: &Constraints,
    machine: &MachineConfig,
    params: &isex_aco::AcoParams,
    reach: &Reachability,
    prims: &mut FastPrims,
) -> Vec<MeritOp> {
    let critical = prims.critical;
    let mut ops: Vec<MeritOp> = Vec::new();
    let mut vs_buf = NodeSet::new(g.len());
    for x in g.node_ids() {
        let xi = x.index() as u32;
        let op = g.node(x).payload();
        // Software merit: merit ×= ET(x, SW-i) (Eq. 3 of §4.3's merit part).
        for (i, d) in op.sw_delays.iter().enumerate() {
            ops.push((xi, ImplChoice::Sw(i), *d as f64));
        }
        if op.hw.is_empty() {
            continue;
        }

        // Case 1: critical-path boost.
        if critical.contains(x) {
            for j in 0..op.hw.len() {
                ops.push((xi, ImplChoice::Hw(j), 1.0 / params.beta_cp));
            }
        }

        prims.virtual_subgraph_into(walk, x, &mut vs_buf);

        // Case 2: nothing to fuse with.
        if vs_buf.len() == 1 {
            for j in 0..op.hw.len() {
                ops.push((xi, ImplChoice::Hw(j), params.beta_size));
            }
            continue;
        }

        // Case 3: constraint violations. The β penalties discourage
        // growing the blob further, but the operation may still anchor a
        // smaller legal ISE, so case 4 is evaluated on the maximal legal
        // sub-blob around `x` — otherwise on dense blocks every hardware
        // merit collapses and the search starves (the paper's penalties
        // assume the violating state is transient).
        let demand = prims.demand(g, &vs_buf);
        let io_ok = demand.fits(constraints.n_in, constraints.n_out);
        let convex_ok = prims.is_convex(&vs_buf, reach);
        let legal_store;
        let vs: &NodeSet = if !io_ok || !convex_ok {
            for j in 0..op.hw.len() {
                if !io_ok {
                    ops.push((xi, ImplChoice::Hw(j), params.beta_io));
                }
                if !convex_ok {
                    ops.push((xi, ImplChoice::Hw(j), params.beta_convex));
                }
            }
            legal_store = crate::explore::grow_legal_from(g, x, &vs_buf, constraints, reach);
            if legal_store.len() < 2 {
                continue;
            }
            &legal_store
        } else {
            &vs_buf
        };

        // Case 4: performance and area scoring.
        let evals: Vec<VsEval> = (0..op.hw.len())
            .map(|j| prims.evaluate_option(g, walk, vs, x, j, machine))
            .collect();
        let et_max_reduction = evals.iter().map(|e| e.et_cycles).min().unwrap_or(1);
        let area_max = evals.iter().map(|e| e.area).fold(0.0f64, f64::max).max(1.0);
        let sw_cycles = prims.software_cycles(g, vs);
        let vs_critical = vs.iter().any(|y| critical.contains(y));
        let max_aec = prims.max_aec(vs);
        for (j, ev) in evals.iter().enumerate() {
            let saving = sw_cycles as i64 - ev.et_cycles as i64;
            // Criterion (1): positive savings scale merit up proportionally;
            // a useless option decays instead.
            let perf = if saving > 0 { saving as f64 } else { 0.5 };
            ops.push((xi, ImplChoice::Hw(j), perf));
            // Criteria (2)–(4): area-aware adjustment.
            let factor = if vs_critical {
                if ev.et_cycles == et_max_reduction {
                    area_max / ev.area.max(1.0)
                } else {
                    1.0 / (1.0 + (ev.et_cycles - et_max_reduction) as f64)
                }
            } else if ev.et_cycles <= max_aec {
                area_max / ev.area.max(1.0)
            } else {
                1.0 / (1.0 + (ev.et_cycles - max_aec) as f64)
            };
            ops.push((xi, ImplChoice::Hw(j), factor));
        }
    }
    ops
}

/// Per-round scratch of the fast merit primitives: hardware-choice
/// connected components (recomputed once per walk), the longest-path finish
/// buffer, and the demand/convexity sets. Steady state allocates nothing.
pub(crate) struct FastMeritScratch {
    /// Component id per node for the current walk; `u32::MAX` when the node
    /// did not choose hardware.
    comp_id: Vec<u32>,
    /// Component member sets, pooled across walks.
    comps: Vec<NodeSet>,
    n_comps: usize,
    /// Longest-path finish times. Stale entries are never read: members are
    /// visited in ascending index order and every predecessor of a member
    /// inside the set has a smaller index (the topological-order invariant
    /// of [`isex_dfg::Dfg`]), so it was written earlier in the same call.
    finish: Vec<f64>,
    /// External-producer set of the demand query.
    ext: NodeSet,
    live_ins: Vec<u32>,
    stack: Vec<u32>,
    /// Descendants/ancestors unions of the convexity test.
    desc: NodeSet,
    anc: NodeSet,
}

impl Default for FastMeritScratch {
    fn default() -> Self {
        FastMeritScratch {
            comp_id: Vec::new(),
            comps: Vec::new(),
            n_comps: 0,
            finish: Vec::new(),
            ext: NodeSet::new(0),
            live_ins: Vec::new(),
            stack: Vec::new(),
            desc: NodeSet::new(0),
            anc: NodeSet::new(0),
        }
    }
}

impl FastMeritScratch {
    /// Recomputes the walk-dependent state: the connected components of the
    /// hardware-chosen nodes (connectivity through hardware nodes only,
    /// edges taken as undirected). The virtual subgraph of any `x` is then
    /// `{x} ∪ ⋃ comp(v)` over the hardware-chosen neighbours `v` of `x` —
    /// exactly the set the per-node DFS of [`virtual_subgraph`] discovers.
    pub(crate) fn prepare(&mut self, base: &SoaGraph, walk: &Walk) {
        let n = base.len();
        self.comp_id.clear();
        self.comp_id.resize(n, u32::MAX);
        self.n_comps = 0;
        if self.finish.len() != n {
            self.finish = vec![0.0; n];
            self.ext = NodeSet::new(n);
            self.desc = NodeSet::new(n);
            self.anc = NodeSet::new(n);
        }
        for v in 0..n {
            if !walk.choice[v].is_hardware() || self.comp_id[v] != u32::MAX {
                continue;
            }
            let k = self.n_comps;
            if k == self.comps.len() {
                self.comps.push(NodeSet::new(n));
            } else {
                self.comps[k].clear();
            }
            self.n_comps += 1;
            self.comp_id[v] = k as u32;
            self.comps[k].insert(NodeId::new(v as u32));
            self.stack.clear();
            self.stack.push(v as u32);
            while let Some(u) = self.stack.pop() {
                for &w in base
                    .preds(u as usize)
                    .iter()
                    .chain(base.succs(u as usize).iter())
                {
                    let wi = w as usize;
                    if self.comp_id[wi] == u32::MAX && walk.choice[wi].is_hardware() {
                        self.comp_id[wi] = k as u32;
                        self.comps[k].insert(NodeId::new(w));
                        self.stack.push(w);
                    }
                }
            }
        }
    }
}

/// The graph queries of the merit computation for one walk, answered from
/// the round's SoA arrays and [`FastMeritScratch`]: virtual subgraphs by
/// word-level component union, longest paths and port demand scanning
/// members only, and `Max_AEC` read directly from the walk's quotient
/// timing vectors (`alap` holds slots at deadline `len`; the walk's
/// deadline shifts every slot uniformly, folded in as `extra`).
///
/// Each query equals a free-function reference — [`virtual_subgraph`],
/// [`ports::demand`], [`isex_dfg::convex::is_convex`], [`evaluate_option`],
/// [`software_cycles`] and `isex_sched::timing::max_aec` on the walk's
/// collapsed graph — which the unit tests check on real hot blocks.
pub(crate) struct FastPrims<'a> {
    pub scratch: &'a mut FastMeritScratch,
    pub base: &'a SoaGraph,
    /// Original-node → quotient-node map of this walk's quotient.
    pub node_map: &'a [u32],
    /// Quotient latencies, ASAP and ALAP-at-`len`.
    pub qlat: &'a [u32],
    pub asap: &'a [u32],
    pub alap: &'a [u32],
    /// `walk deadline − len`, the uniform ALAP shift.
    pub extra: u32,
    /// Critical-path membership per original node (ASAP = ALAP in the
    /// walk's quotient).
    pub critical: &'a NodeSet,
}

impl FastPrims<'_> {
    /// Fills `out` with the virtual subgraph of `x` (Fig. 4.3.6).
    pub(crate) fn virtual_subgraph_into(&mut self, walk: &Walk, x: NodeId, out: &mut NodeSet) {
        out.clear();
        out.insert(x);
        let xi = x.index() as u32;
        let s = &mut *self.scratch;
        let mut last = u32::MAX;
        for &v in self
            .base
            .preds(xi as usize)
            .iter()
            .chain(self.base.succs(xi as usize).iter())
        {
            if walk.choice[v as usize].is_hardware() {
                let k = s.comp_id[v as usize];
                if k != last {
                    out.union_with(&s.comps[k as usize]);
                    last = k;
                }
            }
        }
    }

    /// `IN/OUT` port demand of `vs`.
    pub(crate) fn demand(&mut self, g: &ExGraph, vs: &NodeSet) -> ports::PortDemand {
        let s = &mut *self.scratch;
        s.ext.clear();
        s.live_ins.clear();
        for n in vs {
            for op in g.node(n).operands() {
                match *op {
                    Operand::Node(p) => {
                        if !vs.contains(p) {
                            s.ext.insert(p);
                        }
                    }
                    Operand::LiveIn(v) => {
                        let raw = v.index() as u32;
                        if !s.live_ins.contains(&raw) {
                            s.live_ins.push(raw);
                        }
                    }
                    Operand::Const(_) => {}
                }
            }
        }
        let mut outputs = 0usize;
        for n in vs {
            let escapes = g.node(n).is_live_out()
                || self
                    .base
                    .succs(n.index())
                    .iter()
                    .any(|&sc| !vs.contains(NodeId::new(sc)));
            if escapes {
                outputs += 1;
            }
        }
        ports::PortDemand {
            inputs: s.ext.len() + s.live_ins.len(),
            outputs,
        }
    }

    /// Convexity of `vs`.
    pub(crate) fn is_convex(&mut self, vs: &NodeSet, reach: &Reachability) -> bool {
        let s = &mut *self.scratch;
        s.desc.clear();
        s.anc.clear();
        for n in vs {
            s.desc.union_with(reach.descendants(n));
            s.anc.union_with(reach.ancestors(n));
        }
        // Convex iff no node outside `vs` is both a descendant and an
        // ancestor of members — word-wise: desc ∧ anc ∧ ¬vs is empty.
        s.desc
            .as_words()
            .iter()
            .zip(s.anc.as_words())
            .zip(vs.as_words())
            .all(|((d, a), v)| d & a & !v == 0)
    }

    /// `ET(vS_x,HW-j)` and area of option `j` of `x` within `vs`.
    pub(crate) fn evaluate_option(
        &mut self,
        g: &ExGraph,
        walk: &Walk,
        vs: &NodeSet,
        x: NodeId,
        j: usize,
        machine: &MachineConfig,
    ) -> VsEval {
        let finish = &mut self.scratch.finish;
        let mut best = 0.0f64;
        let mut area = 0.0f64;
        for y in vs {
            let op = g.node(y).payload();
            let (d, a) = if y == x {
                (op.hw[j].delay_ns, op.hw[j].area_um2)
            } else {
                match walk.choice[y.index()] {
                    ImplChoice::Hw(h) => (op.hw[h].delay_ns, op.hw[h].area_um2),
                    ImplChoice::Sw(_) => (op.hw[0].delay_ns, op.hw[0].area_um2),
                }
            };
            let mut start = 0.0f64;
            for &p in self.base.preds(y.index()) {
                if vs.contains(NodeId::new(p)) {
                    start = start.max(finish[p as usize]);
                }
            }
            let f = start + d;
            finish[y.index()] = f;
            best = best.max(f);
            area += a;
        }
        VsEval {
            et_cycles: machine.cycles_for_delay_ns(best),
            area,
        }
    }

    /// Software execution cycles of `vs` on the core.
    pub(crate) fn software_cycles(&mut self, g: &ExGraph, vs: &NodeSet) -> u32 {
        let finish = &mut self.scratch.finish;
        let mut best = 0.0f64;
        for y in vs {
            let d = g.node(y).payload().sw_delays[0] as f64;
            let mut start = 0.0f64;
            for &p in self.base.preds(y.index()) {
                if vs.contains(NodeId::new(p)) {
                    start = start.max(finish[p as usize]);
                }
            }
            let f = start + d;
            finish[y.index()] = f;
            best = best.max(f);
        }
        best.round() as u32
    }

    /// The `Max_AEC` slack window of `vs` (members in base node space).
    pub(crate) fn max_aec(&self, vs: &NodeSet) -> u32 {
        if vs.is_empty() {
            return 0;
        }
        let mut earliest = u32::MAX;
        let mut latest = 0u32;
        for y in vs {
            let qv = self.node_map[y.index()] as usize;
            earliest = earliest.min(self.asap[qv]);
            latest = latest.max(self.alap[qv] + self.extra + self.qlat[qv]);
        }
        latest.saturating_sub(earliest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ant::Ant;
    use crate::evalcache::RoundEval;
    use crate::exgraph;
    use isex_aco::AcoParams;
    use isex_dfg::{CsrAdjacency, Operand};
    use isex_isa::{Opcode, Operation, ProgramDfg};
    use rand::SeedableRng;

    /// add -> sll -> xor chain plus one independent slack op.
    fn graph() -> ExGraph {
        let mut dfg = ProgramDfg::new();
        let x = dfg.live_in();
        let a = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::LiveIn(x), Operand::Const(1)],
        );
        let b = dfg.add_node(
            Operation::new(Opcode::Sll),
            vec![Operand::Node(a), Operand::Const(2)],
        );
        let c = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(b), Operand::LiveIn(x)],
        );
        let d = dfg.add_node(
            Operation::new(Opcode::And),
            vec![Operand::LiveIn(x), Operand::Const(3)],
        );
        dfg.set_live_out(c, true);
        dfg.set_live_out(d, true);
        exgraph::build(&dfg)
    }

    fn software_walk(g: &ExGraph) -> Walk {
        let m = MachineConfig::preset_2issue_4r2w();
        let cons = Constraints::from_machine(&m);
        let csr = CsrAdjacency::from_dfg(g);
        let ant = Ant::new(g, &m, &cons, 0.5, &csr);
        let shape: Vec<(usize, usize)> = g
            .iter()
            .map(|(_, n)| (n.payload().sw_delays.len(), n.payload().hw.len()))
            .collect();
        let mut store = PheromoneStore::new(&shape, &AcoParams::default());
        for n in 0..g.len() {
            store.set_merit(n, ImplChoice::Sw(0), 1e9);
            for j in 0..g.node(NodeId::new(n as u32)).payload().hw.len() {
                store.set_merit(n, ImplChoice::Hw(j), 1e-9);
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        ant.run(&store, &mut rng)
    }

    #[test]
    fn virtual_subgraph_follows_hardware_choices() {
        let g = graph();
        let mut w = software_walk(&g);
        // Pretend b and c chose hardware.
        w.choice[1] = ImplChoice::Hw(0);
        w.choice[2] = ImplChoice::Hw(0);
        let vs = virtual_subgraph(&g, &w, NodeId::new(0));
        assert_eq!(vs.len(), 3, "a + hardware-chosen b, c");
        let vs_d = virtual_subgraph(&g, &w, NodeId::new(3));
        assert_eq!(vs_d.len(), 1, "d has no hardware neighbours");
    }

    #[test]
    fn evaluate_option_sums_area_and_chains_delay() {
        let g = graph();
        let mut w = software_walk(&g);
        w.choice[0] = ImplChoice::Hw(0); // add slow option: 4.04 ns, 926.33
        w.choice[1] = ImplChoice::Hw(0); // sll: 3.0 ns, 400
        let vs = virtual_subgraph(&g, &w, NodeId::new(0));
        let m = MachineConfig::preset_2issue_4r2w();
        let ev = evaluate_option(&g, &w, &vs, NodeId::new(0), 0, &m);
        assert_eq!(ev.et_cycles, 1, "7.04 ns fits one 10 ns cycle");
        assert!((ev.area - (926.33 + 400.0)).abs() < 1e-9);
        // Fast add option: 2.12 ns / 2075.35 µm².
        let ev1 = evaluate_option(&g, &w, &vs, NodeId::new(0), 1, &m);
        assert!(ev1.area > ev.area);
        assert_eq!(ev1.et_cycles, 1);
    }

    #[test]
    fn software_cycles_is_chain_length() {
        let g = graph();
        let mut vs = NodeSet::new(g.len());
        vs.insert(NodeId::new(0));
        vs.insert(NodeId::new(1));
        vs.insert(NodeId::new(2));
        assert_eq!(software_cycles(&g, &vs), 3);
        vs.remove(NodeId::new(1));
        assert_eq!(
            software_cycles(&g, &vs),
            1,
            "a and c disconnected inside the set"
        );
    }

    #[test]
    fn merit_update_prefers_hardware_on_critical_chain() {
        let g = graph();
        let m = MachineConfig::preset_2issue_4r2w();
        let cons = Constraints::from_machine(&m);
        let params = AcoParams::default();
        let reach = Reachability::compute(&g);
        let shape: Vec<(usize, usize)> = g
            .iter()
            .map(|(_, n)| (n.payload().sw_delays.len(), n.payload().hw.len()))
            .collect();
        let mut store = PheromoneStore::new(&shape, &params);
        // Iteration in which the chain chose hardware.
        let mut w = software_walk(&g);
        w.choice[0] = ImplChoice::Hw(0);
        w.choice[1] = ImplChoice::Hw(0);
        w.choice[2] = ImplChoice::Hw(0);
        let mut eval = RoundEval::new(&g, &m, exgraph::schedule_len(&g, &m));
        apply_merit_ops(&mut store, &eval.merit_ops(&g, &w, &cons, &params, &reach));
        // After the update the chain's hardware options outweigh software.
        for n in [0usize, 1, 2] {
            let hw = store.merit(n, ImplChoice::Hw(0));
            let sw = store.merit(n, ImplChoice::Sw(0));
            assert!(hw > sw, "node {n}: hw merit {hw} should beat sw {sw}");
        }
        // The slack op d got its hardware merit *reduced* (size-1 penalty).
        let hw_d = store.merit(3, ImplChoice::Hw(0));
        let sw_d = store.merit(3, ImplChoice::Sw(0));
        assert!(hw_d < sw_d * 2.0 + 1.0, "d is not pushed towards hardware");
    }

    #[test]
    fn merit_update_penalises_port_violation() {
        // A 3-input cone with n_in = 2 must be discouraged.
        let mut dfg = ProgramDfg::new();
        let li: Vec<_> = (0..3).map(|_| dfg.live_in()).collect();
        let a = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::LiveIn(li[0]), Operand::LiveIn(li[1])],
        );
        let b = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(a), Operand::LiveIn(li[2])],
        );
        dfg.set_live_out(b, true);
        let g = exgraph::build(&dfg);
        let m = MachineConfig::preset_2issue_4r2w();
        let cons = Constraints::new(2, 2);
        let params = AcoParams::default();
        let reach = Reachability::compute(&g);
        let shape: Vec<(usize, usize)> = g
            .iter()
            .map(|(_, n)| (n.payload().sw_delays.len(), n.payload().hw.len()))
            .collect();
        let mut store = PheromoneStore::new(&shape, &params);
        let mut w = software_walk_for(&g, &m, &cons);
        w.choice[0] = ImplChoice::Hw(0);
        w.choice[1] = ImplChoice::Hw(0);
        let mut eval = RoundEval::new(&g, &m, exgraph::schedule_len(&g, &m));
        // The β_IO penalty compounds across iterations; after a handful of
        // violating iterations the hardware option must fall below software.
        for _ in 0..10 {
            apply_merit_ops(&mut store, &eval.merit_ops(&g, &w, &cons, &params, &reach));
        }
        let hw = store.merit(0, ImplChoice::Hw(0));
        let sw = store.merit(0, ImplChoice::Sw(0));
        assert!(
            hw < sw,
            "violating subgraph must not attract hardware choices"
        );
    }

    fn software_walk_for(g: &ExGraph, m: &MachineConfig, cons: &Constraints) -> Walk {
        let csr = CsrAdjacency::from_dfg(g);
        let ant = Ant::new(g, m, cons, 0.5, &csr);
        let shape: Vec<(usize, usize)> = g
            .iter()
            .map(|(_, n)| (n.payload().sw_delays.len(), n.payload().hw.len()))
            .collect();
        let mut store = PheromoneStore::new(&shape, &AcoParams::default());
        for n in 0..g.len() {
            store.set_merit(n, ImplChoice::Sw(0), 1e9);
            for j in 0..g.node(NodeId::new(n as u32)).payload().hw.len() {
                store.set_merit(n, ImplChoice::Hw(j), 1e-9);
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        ant.run(&store, &mut rng)
    }
}
