//! One ACO iteration: the Ready-Matrix walk with embedded scheduling.
//!
//! Steps 2–6 of the exploration flow (Fig. 4.3.1): the ant repeatedly picks
//! one `(ready operation, implementation option)` entry from the
//! Ready-Matrix with the chosen-probability of Eq. 1, schedules that
//! operation (Operation-Scheduling, Figs. 4.3.3/4.3.4), and updates the
//! Ready-Matrix, until every operation has a time slot. Hardware-chosen
//! operations coalesce into *groups* — the in-flight ISE candidates — when
//! they can pack with an already-scheduled parent in the same time slot.

use isex_aco::{ImplChoice, PheromoneStore};
use isex_dfg::ports::PortDemand;
use isex_dfg::NodeId;
use isex_isa::MachineConfig;
use isex_sched::resources::ResourceTable;
use isex_sched::soa::SoaGraph;
use isex_sched::{Priority, SchedOp, UnitClass};
use rand::Rng;

use crate::candidate::Constraints;
use crate::exgraph::ExGraph;
use crate::rows::{RoundRows, Row};

/// An in-flight ISE group formed during one walk.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct AntGroup<const W: usize> {
    /// Member nodes (all chose a hardware option).
    pub members: Row<W>,
    /// Unions of the members' producer and live-in rows.
    prod: Row<W>,
    live_ins: Row<W>,
    /// Issue cycle of the group's single ISE instruction.
    pub issue: u32,
    /// Combinational delay of the group, in ns.
    pub delay_ns: f64,
    /// Latency in cycles.
    pub latency: u32,
    /// Committed `IN(S)` read-port demand.
    pub reads: usize,
    /// Committed `OUT(S)` write-port demand.
    pub writes: usize,
    /// The cycle from which every external input of the members is
    /// available. Those inputs' producers are software nodes or members of
    /// closed groups, so their finish cycles never change again.
    pub inputs_ready: u32,
    /// A group closes once any external consumer of a member is scheduled;
    /// its latency (hence its members' finish times) is then frozen.
    pub open: bool,
}

/// The outcome of one iteration. [`Ant::run_into`] overwrites a walk in
/// place, so a round keeps two (the current and the best) and never
/// allocates another.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Walk<const W: usize> {
    /// Implementation option chosen for every node.
    pub choice: Vec<ImplChoice>,
    /// Issue cycle of every node (group members share the group's cycle).
    pub issue: Vec<u32>,
    /// Finish cycle of every node (value available from this cycle on):
    /// issue plus software latency, or the group's issue plus its latency.
    /// Kept in step whenever a node is placed or its group slides.
    pub finish: Vec<u32>,
    /// Group membership.
    pub group_of: Vec<Option<usize>>,
    /// The groups formed.
    pub groups: Vec<AntGroup<W>>,
    /// Total execution time of the block in cycles (`TET`).
    pub tet: u32,
}

/// The scheduling-priority (SP) function of Eq. 1.
///
/// The paper "adopts only \[a\] simple way (i.e. number of child operations)
/// to determine the scheduling priority" and names alternatives as future
/// work (Ch. 6); all three are provided for the ablation bench.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SpFunction {
    /// Number of child operations (the paper's choice).
    #[default]
    ChildCount,
    /// Latency-weighted height towards the sinks (critical-path first).
    Height,
    /// Negated mobility (least-slack first).
    Mobility,
}

impl SpFunction {
    /// The normalised (`[0, 1]`) priority of every node of `base`, the
    /// round's graph lowered.
    fn values(self, base: &SoaGraph) -> Vec<f64> {
        let priority = match self {
            SpFunction::ChildCount => Priority::ChildCount,
            SpFunction::Height => Priority::Height,
            SpFunction::Mobility => Priority::Mobility,
        };
        let raw = priority.values(base).into_iter().map(|v| v as f64);
        Self::normalise(raw.collect())
    }

    fn normalise(raw: Vec<f64>) -> Vec<f64> {
        let lo = raw.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = raw.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if raw.is_empty() || hi <= lo {
            return vec![0.0; raw.len()];
        }
        raw.into_iter().map(|v| (v - lo) / (hi - lo)).collect()
    }
}

/// Reusable buffers for [`Ant::run_into`]. One scratch serves every walk
/// of a round, so a walk allocates nothing once the buffers have grown.
///
/// - `eq1`: the Eq. 1 weight `attraction + λ·sp` of every option, indexed
///   like the store ([`PheromoneStore::options`]), filled once per walk
///   and cleaned as [`isex_aco::roulette`] cleans its weights (finite and
///   positive, else 0).
/// - `ready`: the Ready-Matrix's operations as a row (iterated in
///   ascending order), kept by the `pending` predecessor counters.
/// - `hw`: the hardware-scheduling buffers ([`HwScratch`]).
#[derive(Debug, Default)]
pub(crate) struct AntScratch<const W: usize> {
    eq1: Vec<f64>,
    ready: Row<W>,
    pending: Vec<u32>,
    hw: HwScratch,
    resources: Option<ResourceTable>,
}

/// Buffers of Operation-Scheduling for hardware options (Fig. 4.3.4).
#[derive(Debug, Default)]
struct HwScratch {
    /// Each hardware node's combinational finish time (ns) within its
    /// group: the longest in-group path ending at the node.
    finish_in_group: Vec<f64>,
    /// Candidate groups of the current hardware pick.
    cands: Vec<usize>,
    /// Successful and rejected joins, so the walk invariant test can tell
    /// it exercised both outcomes.
    #[cfg(test)]
    joins: [usize; 2],
}

/// One Ready-Matrix pick (Eq. 1): an entry `(ready operation, option)`
/// drawn with probability proportional to its weight `eq1[i]`, over the
/// ready operations in ascending order and each one's options in store
/// order. Returns the operation and the option's flat index.
///
/// The weights must be clean (finite and non-negative). The pick and the
/// random numbers drawn are exactly those of [`isex_aco::roulette`] over
/// the list of entries: the same ordered sum, `gen_range(0.0..total)`
/// scanned by the same subtraction (or `gen_range(0..count)` when the
/// total is not positive), and the last entry when the scan falls
/// through.
fn draw<R: Rng + ?Sized, const W: usize>(
    rng: &mut R,
    store: &PheromoneStore,
    eq1: &[f64],
    ready: &Row<W>,
) -> (usize, usize) {
    let mut total = 0.0f64;
    let mut count = 0usize;
    for n in ready.ones() {
        let options = store.options(n);
        count += options.len();
        for i in options {
            total += eq1[i];
        }
    }
    assert!(count > 0, "cannot select from no options");
    let mut last = (0, 0);
    if total <= 0.0 {
        let mut at = rng.gen_range(0..count);
        for n in ready.ones() {
            let options = store.options(n);
            if at < options.len() {
                return (n, options.start + at);
            }
            at -= options.len();
        }
    } else {
        let mut target = rng.gen_range(0.0..total);
        for n in ready.ones() {
            for i in store.options(n) {
                if target < eq1[i] {
                    return (n, i);
                }
                target -= eq1[i];
                last = (n, i);
            }
        }
    }
    last
}

/// The per-round immutable context of the walks.
pub(crate) struct Ant<'a, const W: usize> {
    pub g: &'a ExGraph,
    pub machine: &'a MachineConfig,
    pub constraints: &'a Constraints,
    /// λ weight of the scheduling priority in Eq. 1.
    pub lambda: f64,
    /// Normalised scheduling priority per node (e.g. child count).
    pub sp: Vec<f64>,
    /// The round's graph lowered: its CSR rows are the walk's adjacency
    /// (readiness counters, allocation-free pred scans).
    base: &'a SoaGraph,
    /// The round's rows, shared with the merit update and candidate
    /// extraction.
    rows: &'a RoundRows<W>,
    /// `(IN, OUT)` of every singleton `{n}`: the demand of a new group.
    singleton: Vec<PortDemand>,
}

impl<'a, const W: usize> Ant<'a, W> {
    /// Builds the round's walk context over `base`, the round's graph `g`
    /// lowered ([`crate::exgraph::to_soa`]), and `rows`, its rows: the walk
    /// reads its adjacency and the values of `sp_function` come from
    /// `base`.
    pub fn new(
        g: &'a ExGraph,
        machine: &'a MachineConfig,
        constraints: &'a Constraints,
        lambda: f64,
        sp_function: SpFunction,
        base: &'a SoaGraph,
        rows: &'a RoundRows<W>,
    ) -> Self {
        let sp = sp_function.values(base);
        let singleton = (0..g.len())
            .map(|n| PortDemand {
                inputs: rows.prod(n).len() + rows.live_ins(n).len(),
                outputs: usize::from(rows.is_live_out(n) || !base.succs(n).is_empty()),
            })
            .collect();
        Ant {
            g,
            machine,
            constraints,
            lambda,
            sp,
            base,
            rows,
            singleton,
        }
    }

    /// Runs one full iteration on fresh buffers: chooses options and
    /// schedules every operation, returning the walk.
    #[cfg(test)]
    pub fn run<R: Rng + ?Sized>(&self, store: &PheromoneStore, rng: &mut R) -> Walk<W> {
        let mut walk = Walk::default();
        self.run_into(store, rng, &mut AntScratch::default(), &mut walk);
        walk
    }

    /// Runs one full iteration into `walk`, overwriting it: chooses options
    /// and schedules every operation. Groups are rows held in the walk, so
    /// the round loop (hundreds of walks over the same graph) allocates
    /// nothing once its buffers have grown.
    pub fn run_into<R: Rng + ?Sized>(
        &self,
        store: &PheromoneStore,
        rng: &mut R,
        scratch: &mut AntScratch<W>,
        walk: &mut Walk<W>,
    ) {
        let k = self.g.len();
        let AntScratch {
            eq1,
            ready,
            pending,
            hw,
            resources,
        } = scratch;
        walk.choice.clear();
        walk.choice.resize(k, ImplChoice::Sw(0));
        walk.issue.clear();
        walk.issue.resize(k, 0);
        walk.finish.clear();
        walk.finish.resize(k, 0);
        walk.group_of.clear();
        walk.group_of.resize(k, None);
        walk.groups.clear();
        // The store is read-only during a walk, so every Eq. 1 weight is
        // computed (and cleaned) once here, bit-identical to a per-step
        // recomputation.
        eq1.clear();
        for n in 0..k {
            for i in store.options(n) {
                let w = store.attraction_at(i) + self.lambda * self.sp[n];
                eq1.push(if w.is_finite() && w > 0.0 { w } else { 0.0 });
            }
        }
        // Counter-maintained readiness: pending[n] == 0 exactly when every
        // predecessor is scheduled, and `ready` holds those unscheduled
        // nodes.
        pending.clear();
        pending.extend((0..k).map(|n| self.base.preds(n).len() as u32));
        *ready = Row::default();
        for (n, &p) in pending.iter().enumerate() {
            if p == 0 {
                ready.insert(n);
            }
        }
        hw.finish_in_group.clear();
        hw.finish_in_group.resize(k, 0.0);
        let rt = resources.get_or_insert_with(|| ResourceTable::new(*self.machine));
        rt.reset(*self.machine);

        for _ in 0..k {
            let (n, i) = draw(rng, store, eq1, ready);
            ready.remove(n);
            let c = store.choice_at(n, i);
            walk.choice[n] = c;
            match c {
                ImplChoice::Sw(j) => self.schedule_sw(walk, rt, n, j),
                ImplChoice::Hw(j) => self.schedule_hw(walk, rt, hw, n, j),
            }
            for &sc in self.base.succs(n) {
                pending[sc as usize] -= 1;
                if pending[sc as usize] == 0 {
                    ready.insert(sc as usize);
                }
            }
        }

        walk.tet = walk.finish.iter().copied().max().unwrap_or(0);
    }

    fn earliest_start(&self, walk: &Walk<W>, n: usize) -> u32 {
        self.base
            .preds(n)
            .iter()
            .map(|&p| walk.finish[p as usize])
            .max()
            .unwrap_or(0)
    }

    /// Closes every open group that `n` consumed from (its finish time is
    /// now observed and must not change).
    fn close_pred_groups(&self, walk: &mut Walk<W>, n: usize, except: Option<usize>) {
        for &p in self.base.preds(n) {
            if let Some(gp) = walk.group_of[p as usize] {
                if Some(gp) != except {
                    walk.groups[gp].open = false;
                }
            }
        }
    }

    /// Operation-Scheduling for a software option (Fig. 4.3.3).
    fn schedule_sw(&self, walk: &mut Walk<W>, rt: &mut ResourceTable, n: usize, j: usize) {
        let op = self.g.node(NodeId::new(n as u32)).payload().sched_op(j);
        let est = self.earliest_start(walk, n);
        let cycle = rt
            .earliest_fit(est, &op)
            .unwrap_or_else(|| panic!("operation {n} cannot fit the machine"));
        rt.commit(cycle, &op);
        walk.issue[n] = cycle;
        walk.finish[n] = cycle + op.latency;
        self.close_pred_groups(walk, n, None);
    }

    /// Operation-Scheduling for a hardware option (Fig. 4.3.4): first try
    /// to pack `n` with the ISE group of a parent in that group's time
    /// slot; otherwise open a new group at the earliest feasible slot.
    fn schedule_hw(
        &self,
        walk: &mut Walk<W>,
        rt: &mut ResourceTable,
        hw: &mut HwScratch,
        n: usize,
        j: usize,
    ) {
        // Candidate groups: open groups containing a parent, latest issue
        // first (the paper packs at `LTS_i`, the latest parent's slot),
        // ties by group index.
        hw.cands.clear();
        hw.cands.extend(
            self.base
                .preds(n)
                .iter()
                .filter_map(|&p| walk.group_of[p as usize])
                .filter(|&gi| walk.groups[gi].open),
        );
        hw.cands.sort_unstable();
        hw.cands.dedup();
        hw.cands
            .sort_unstable_by_key(|&gi| (std::cmp::Reverse(walk.groups[gi].issue), gi));

        for ci in 0..hw.cands.len() {
            let gi = hw.cands[ci];
            let joined = self.try_join(walk, rt, hw, n, j, gi);
            #[cfg(test)]
            {
                hw.joins[usize::from(!joined)] += 1;
            }
            if joined {
                self.close_pred_groups(walk, n, Some(gi));
                return;
            }
        }

        // New singleton group.
        let demand = self.singleton[n];
        let delay = self.g.node(NodeId::new(n as u32)).payload().hw[j].delay_ns;
        let latency = self.machine.cycles_for_delay_ns(delay);
        let op = SchedOp::new(latency, demand.inputs, demand.outputs, UnitClass::Asfu);
        let est = self.earliest_start(walk, n);
        let cycle = rt
            .earliest_fit(est, &op)
            .unwrap_or_else(|| panic!("ISE seed {n} cannot fit the machine"));
        rt.commit(cycle, &op);
        let gi = walk.groups.len();
        walk.groups.push(AntGroup {
            members: Row::single(n),
            prod: self.rows.prod(n),
            live_ins: self.rows.live_ins(n),
            issue: cycle,
            delay_ns: delay,
            latency,
            reads: demand.inputs,
            writes: demand.outputs,
            inputs_ready: est,
            open: true,
        });
        hw.finish_in_group[n] = delay;
        walk.group_of[n] = Some(gi);
        walk.issue[n] = cycle;
        walk.finish[n] = cycle + latency;
        self.close_pred_groups(walk, n, Some(gi));
    }

    /// Attempts to pack `n` (hardware option `j`) into group `gi`. If the
    /// group's current slot is too early for `n`'s external inputs, the
    /// whole (still open) group slides to a later slot — Fig. 4.3.4's
    /// "while cannot pack operation i … at CTS_i: CTS_i++".
    ///
    /// Every member was scheduled before `n`, so `n` is no member's
    /// predecessor: it joins as a sink of `members ∪ {n}`. The union's port
    /// demand and delay therefore follow from the group's kept unions and
    /// values and `n`'s own rows, without materialising the union.
    fn try_join(
        &self,
        walk: &mut Walk<W>,
        rt: &mut ResourceTable,
        hw: &mut HwScratch,
        n: usize,
        j: usize,
        gi: usize,
    ) -> bool {
        let group = &walk.groups[gi];
        let rows = self.rows;
        let members = group.members;
        let with = members | Row::single(n);
        let preds = self.base.preds(n);

        // IN(members ∪ {n}) over the grown producer and live-in unions.
        let prod = group.prod | rows.prod(n);
        let live_ins = group.live_ins | rows.live_ins(n);
        let inputs = prod.and_not(with).len() + live_ins.len();
        // OUT(members ∪ {n}): `n` escapes if anything consumes it; a member
        // feeding `n` stops escaping once `n` was its last outside consumer.
        let mut outputs = group.writes;
        if rows.is_live_out(n) || !self.base.succs(n).is_empty() {
            outputs += 1;
        }
        for p in (rows.prod(n) & members).ones() {
            if !rows.is_live_out(p) && rows.cons(p).and_not(with).is_empty() {
                outputs -= 1;
            }
        }
        if inputs > self.constraints.n_in || outputs > self.constraints.n_out {
            return false;
        }
        // Grown combinational delay: the members' in-group finish times do
        // not change, so the union's longest path is the group's or the one
        // ending at `n`. `max` is exact, hence bit-identical to
        // `analysis::weighted_longest_path_within` over the union.
        let start = (rows.prod(n) & members)
            .ones()
            .map(|p| hw.finish_in_group[p])
            .fold(0.0f64, f64::max);
        let finish_n = start + self.g.node(NodeId::new(n as u32)).payload().hw[j].delay_ns;
        let delay = group.delay_ns.max(finish_n);
        let latency = self.machine.cycles_for_delay_ns(delay);

        // Earliest slot at which every external input of the union is
        // ready: the members' external inputs (`n` feeds no member) and
        // `n`'s own.
        let mut t_needed = group.inputs_ready;
        for &p in preds {
            if !members.contains(p as usize) {
                t_needed = t_needed.max(walk.finish[p as usize]);
            }
        }

        // Re-place the grown group: release the old footprint, find the
        // earliest slot where the union's inputs are ready and the (possibly
        // longer, possibly wider) new footprint fits, and commit there. The
        // group is open — nobody has observed its finish time — so moving
        // its slot is legal; this is Fig. 4.3.4's `CTS++` loop generalised
        // to both directions and to occupancy-changing growth.
        let old_op = SchedOp::new(group.latency, group.reads, group.writes, UnitClass::Asfu);
        let new_op = SchedOp::new(latency, inputs, outputs, UnitClass::Asfu);
        rt.uncommit(group.issue, &old_op);
        let Some(new_issue) = rt.earliest_fit(t_needed, &new_op) else {
            rt.commit(group.issue, &old_op); // roll back
            return false;
        };
        rt.commit(new_issue, &new_op);

        let group = &mut walk.groups[gi];
        group.members = with;
        group.prod = prod;
        group.live_ins = live_ins;
        group.reads = inputs;
        group.writes = outputs;
        group.delay_ns = delay;
        group.latency = latency;
        group.issue = new_issue;
        group.inputs_ready = t_needed;
        hw.finish_in_group[n] = finish_n;
        walk.group_of[n] = Some(gi);
        for m in with.ones() {
            walk.issue[m] = new_issue;
            walk.finish[m] = new_issue + latency;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exgraph;
    use isex_aco::{roulette, AcoParams};
    use isex_dfg::{ports, Operand, Reachability};
    use isex_isa::{Opcode, Operation, ProgramDfg};
    use rand::SeedableRng;

    /// Every test block fits two-word rows.
    const W: usize = 2;

    fn rows(g: &ExGraph) -> RoundRows<W> {
        RoundRows::new(g, &Reachability::compute(g))
    }

    fn chain3() -> ExGraph {
        // add -> sll -> xor, all ISE-eligible.
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
        dfg.set_live_out(c, true);
        exgraph::build(&dfg)
    }

    fn context<'a>(
        g: &'a ExGraph,
        machine: &'a MachineConfig,
        cons: &'a Constraints,
        base: &'a SoaGraph,
        rows: &'a RoundRows<W>,
    ) -> (Ant<'a, W>, PheromoneStore) {
        let shape: Vec<(usize, usize)> = g
            .iter()
            .map(|(_, n)| (n.payload().sw_delays.len(), n.payload().hw.len()))
            .collect();
        let store = PheromoneStore::new(&shape, &AcoParams::default());
        let ant = Ant::new(g, machine, cons, 0.5, SpFunction::ChildCount, base, rows);
        (ant, store)
    }

    /// Biases every node's merits towards hardware (`true`) or software:
    /// `Sw(0)` and every `Hw(j)` get opposite extreme merits.
    fn force(g: &ExGraph, store: &mut PheromoneStore, hardware: bool) {
        let (sw, hw) = if hardware { (1e-9, 1e9) } else { (1e9, 1e-9) };
        for n in 0..g.len() {
            store.set_merit(n, ImplChoice::Sw(0), sw);
            for j in 0..g.node(NodeId::new(n as u32)).payload().hw.len() {
                store.set_merit(n, ImplChoice::Hw(j), hw);
            }
        }
    }

    /// Every group a walk forms equals a from-scratch recomputation over
    /// its member set: port demand, combinational delay (bit for bit),
    /// latency, and one shared issue slot no earlier than any external
    /// input; every node's finish cycle equals its issue plus its software
    /// or group latency. Random walks on every benchmark's O3 hot block,
    /// under the default store and under one that forces hardware so that
    /// many joins happen and some are rejected. All walks of all blocks are
    /// written into one reused `Walk` with one scratch, and each equals,
    /// field for field, a fresh walk from a clone of the generator.
    #[test]
    fn walk_groups_match_from_scratch_recomputation() {
        use isex_dfg::{analysis, ports};
        use isex_workloads::{Benchmark, OptLevel};

        let m = MachineConfig::preset_2issue_4r2w();
        let cons = Constraints::from_machine(&m);
        let mut scratch = AntScratch::default();
        let mut w = Walk::default();
        let mut groups = 0usize;
        for (seed, &bench) in Benchmark::ALL.iter().enumerate() {
            let g = exgraph::build(&bench.program(OptLevel::O3).hottest().dfg);
            let base = exgraph::to_soa(&g);
            let rows = rows(&g);
            let (ant, default_store) = context(&g, &m, &cons, &base, &rows);
            let mut forced = default_store.clone();
            force(&g, &mut forced, true);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed as u64);
            for store in [&default_store, &forced] {
                for _ in 0..16 {
                    let fresh = ant.run(store, &mut rng.clone());
                    ant.run_into(store, &mut rng, &mut scratch, &mut w);
                    assert_eq!(w, fresh, "{bench}: reused walk");
                    for (id, node) in g.iter() {
                        let i = id.index();
                        let hw = w.choice[i].is_hardware();
                        assert_eq!(w.group_of[i].is_some(), hw, "{bench}: {id:?}");
                        let finish = match (w.group_of[i], w.choice[i]) {
                            (Some(gi), _) => w.groups[gi].issue + w.groups[gi].latency,
                            (None, ImplChoice::Sw(j)) => w.issue[i] + node.payload().sw_latency(j),
                            (None, ImplChoice::Hw(_)) => unreachable!(),
                        };
                        assert_eq!(w.finish[i], finish, "{bench}: finish of {id:?}");
                    }
                    let tet = w.finish.iter().copied().max().unwrap_or(0);
                    assert_eq!(w.tet, tet, "{bench}: TET");
                    for (gi, gr) in w.groups.iter().enumerate() {
                        let at = format!("{bench} group {gi}");
                        let members = gr.members.to_node_set(g.len());
                        let demand = ports::demand(&g, &members);
                        assert_eq!(
                            (gr.reads, gr.writes),
                            (demand.inputs, demand.outputs),
                            "{at}"
                        );
                        let delay =
                            analysis::weighted_longest_path_within(&g, &members, |y, op| {
                                match w.choice[y.index()] {
                                    ImplChoice::Hw(h) => op.hw[h].delay_ns,
                                    ImplChoice::Sw(_) => panic!("{at}: software member"),
                                }
                            });
                        assert_eq!(gr.delay_ns.to_bits(), delay.to_bits(), "{at}: delay");
                        assert_eq!(gr.latency, m.cycles_for_delay_ns(gr.delay_ns), "{at}");
                        for mem in &members {
                            assert_eq!(w.group_of[mem.index()], Some(gi), "{at}");
                            assert_eq!(w.issue[mem.index()], gr.issue, "{at}: issue");
                        }
                        for mem in &members {
                            for &p in base.preds(mem.index()) {
                                if !members.contains(NodeId::new(p)) {
                                    let ready = w.finish[p as usize] <= gr.issue;
                                    assert!(ready, "{at}: input not ready");
                                }
                            }
                        }
                        groups += 1;
                    }
                }
            }
        }
        let [joined, rejected] = scratch.hw.joins;
        assert!(groups >= 1000, "only {groups} groups checked");
        assert!(joined >= 1000, "only {joined} successful joins");
        assert!(rejected >= 100, "only {rejected} rejected joins");
    }

    /// A generator stuck at its largest output: `gen_range(0.0..total)`
    /// then returns the largest float below `total`, the draw most likely
    /// to fall through the scan.
    #[derive(Clone, Debug, PartialEq)]
    struct Top;

    impl rand::RngCore for Top {
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }

    /// Checks the in-place draw against `roulette` over the entry list the
    /// walk used to build: same entry, same generator state afterwards.
    fn assert_draw_matches_roulette<R: Rng + Clone + PartialEq + std::fmt::Debug>(
        rng: &R,
        store: &PheromoneStore,
        eq1: &[f64],
        ready: &Row<3>,
    ) -> (usize, usize) {
        let mut entries = Vec::new();
        let mut weights = Vec::new();
        for n in ready.ones() {
            for i in store.options(n) {
                entries.push((n, i));
                weights.push(eq1[i]);
            }
        }
        let (mut a, mut b) = (rng.clone(), rng.clone());
        let expect = entries[roulette(&mut a, &weights)];
        let got = draw(&mut b, store, eq1, ready);
        assert_eq!(got, expect, "weights {weights:?}");
        assert_eq!(a, b, "generator state after the draw");
        got
    }

    /// The in-place Ready-Matrix draw picks exactly what `roulette` picks
    /// over the explicit entry list and consumes the same random numbers:
    /// random store shapes, weights with zeros, ready sets across word
    /// boundaries, all-zero totals, targets just below the total (which
    /// expose a sum taken in another order), and a scan that falls through
    /// to the last entry (a zero-weight one).
    #[test]
    fn in_place_draw_matches_roulette_over_entries() {
        use rand::RngCore;
        let mut gen = rand::rngs::StdRng::seed_from_u64(0xD2A);
        let (mut zero_totals, mut zero_picks) = (0, 0);
        for case in 0..2000 {
            let k = 1 + (gen.next_u64() % 130) as usize;
            let shape: Vec<(usize, usize)> = (0..k)
                .map(|_| {
                    (
                        1 + (gen.next_u64() % 2) as usize,
                        (gen.next_u64() % 4) as usize,
                    )
                })
                .collect();
            let store = PheromoneStore::new(&shape, &AcoParams::default());
            let all_zero = case % 10 == 0;
            // Zeros, and full-mantissa weights in [0, 9e3), [0, 9e6) or
            // [0, 9e9), so that the order of the sum shows in its last bits.
            let eq1: Vec<f64> = (0..store.options(k - 1).end)
                .map(|_| match gen.next_u64() % 4 {
                    _ if all_zero => 0.0,
                    0 => 0.0,
                    e => (gen.next_u64() >> 11) as f64 * 1e-15 * 1e3f64.powi(e as i32),
                })
                .collect();
            let mut ready = Row::default();
            for n in 0..k {
                if gen.next_u64() % 3 == 0 {
                    ready.insert(n);
                }
            }
            if ready.is_empty() {
                ready.insert(0);
            }
            let rng = rand::rngs::StdRng::seed_from_u64(case);
            let (_, i) = assert_draw_matches_roulette(&rng, &store, &eq1, &ready);
            assert_draw_matches_roulette(&Top, &store, &eq1, &ready);
            zero_totals += usize::from(
                ready
                    .ones()
                    .all(|n| store.options(n).all(|i| eq1[i] == 0.0)),
            );
            zero_picks += usize::from(eq1[i] == 0.0);
        }
        assert!(zero_totals >= 100, "only {zero_totals} all-zero totals");
        assert!(zero_picks >= 100, "only {zero_picks} zero-weight picks");

        // Nodes 0 and 2 ready: weights [0.1, 0.2] then [0.7, 0.0]. The
        // largest target below the sum 1.0 survives every subtraction, so
        // the scan falls through to the last entry, node 2's zero-weight
        // option.
        let store = PheromoneStore::new(&[(1, 1), (1, 0), (1, 1)], &AcoParams::default());
        let eq1 = [0.1, 0.2, 5.0, 0.7, 0.0];
        let ready = Row::single(0) | Row::single(2);
        assert_eq!(
            assert_draw_matches_roulette(&Top, &store, &eq1, &ready),
            (2, 4)
        );
    }

    #[test]
    fn walk_schedules_every_node_and_respects_deps() {
        let g = chain3();
        let m = MachineConfig::preset_2issue_4r2w();
        let cons = Constraints::from_machine(&m);
        let base = exgraph::to_soa(&g);
        let rows = rows(&g);
        let (ant, store) = context(&g, &m, &cons, &base, &rows);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let w = ant.run(&store, &mut rng);
            assert!(w.tet >= 1);
            for (id, _) in g.iter() {
                for p in g.preds(id) {
                    if w.group_of[id.index()].is_some()
                        && w.group_of[id.index()] == w.group_of[p.index()]
                    {
                        continue; // same ISE: internal forwarding
                    }
                    assert!(
                        w.finish[p.index()] <= w.issue[id.index()],
                        "dependence violated"
                    );
                }
            }
        }
    }

    #[test]
    fn all_hardware_forms_one_group_and_saves_time() {
        // Force hardware by shaping the store: no trail needed, we drive
        // choices by merit weights (software merit ~0).
        let g = chain3();
        let m = MachineConfig::preset_2issue_4r2w();
        let cons = Constraints::from_machine(&m);
        let base = exgraph::to_soa(&g);
        let rows = rows(&g);
        let (ant, mut store) = context(&g, &m, &cons, &base, &rows);
        force(&g, &mut store, true);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let w = ant.run(&store, &mut rng);
        assert!(w.choice.iter().all(|c| c.is_hardware()));
        assert_eq!(w.groups.len(), 1, "chain packs into one ISE");
        let gder = &w.groups[0];
        assert_eq!(gder.members.len(), 3);
        // add(≤4.04) + sll(3.0) + xor(4.17) ≈ 11.21 ns → 2 cycles worst case
        assert!(gder.latency <= 2);
        assert!(w.tet <= 2, "one ISE instruction, ≤2 cycles");
    }

    #[test]
    fn all_software_matches_list_schedule_length() {
        let g = chain3();
        let m = MachineConfig::preset_2issue_4r2w();
        let cons = Constraints::from_machine(&m);
        let base = exgraph::to_soa(&g);
        let rows = rows(&g);
        let (ant, mut store) = context(&g, &m, &cons, &base, &rows);
        force(&g, &mut store, false);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let w = ant.run(&store, &mut rng);
        assert!(w.choice.iter().all(|c| !c.is_hardware()));
        assert_eq!(w.tet, 3, "3-op chain in software = 3 cycles");
    }

    #[test]
    fn open_group_slides_past_a_load() {
        // add -> lw -> xor -> or: forcing hardware everywhere must still
        // produce legal groups. The xor/or pair depends on the load, so its
        // group forms *after* the load completes; the add seeds a separate
        // group. Crucially, when or joins xor's group the group may have to
        // slide to a slot where the load result is available.
        let mut dfg = ProgramDfg::new();
        let x = dfg.live_in();
        let a = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::LiveIn(x), Operand::Const(1)],
        );
        let l = dfg.add_node(Operation::new(Opcode::Lw), vec![Operand::Node(a)]);
        let e = dfg.add_node(
            Operation::new(Opcode::Srl),
            vec![Operand::LiveIn(x), Operand::Const(8)],
        );
        let f = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(l), Operand::Node(e)],
        );
        let o = dfg.add_node(
            Operation::new(Opcode::Or),
            vec![Operand::Node(f), Operand::Const(1)],
        );
        dfg.set_live_out(o, true);
        let g = exgraph::build(&dfg);
        let m = MachineConfig::preset_2issue_6r3w();
        let cons = Constraints::from_machine(&m);
        let base = exgraph::to_soa(&g);
        let rows = rows(&g);
        let (ant, mut store) = context(&g, &m, &cons, &base, &rows);
        force(&g, &mut store, true);
        for seed in 0..20u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let w = ant.run(&store, &mut rng);
            // The load never joins a group.
            assert!(w.group_of[l.index()].is_none());
            // Groups whose member consumes the load issue after it finishes.
            for gr in &w.groups {
                if gr.members.contains(f.index()) {
                    assert!(
                        gr.issue >= w.finish[l.index()],
                        "seed {seed}: group with xor must wait for the load"
                    );
                    if gr.members.contains(o.index()) {
                        // srl may or may not be packed; the xor/or fusion is
                        // the interesting slide case.
                        assert!(gr.members.len() >= 2);
                    }
                }
            }
        }
    }

    #[test]
    fn sp_functions_are_normalised() {
        let g = exgraph::to_soa(&chain3());
        for f in [
            SpFunction::ChildCount,
            SpFunction::Height,
            SpFunction::Mobility,
        ] {
            let v = f.values(&g);
            assert_eq!(v.len(), 3);
            for x in &v {
                assert!((0.0..=1.0).contains(x), "{f:?}: {x}");
            }
            // Non-degenerate spreads normalise so some node hits 1.0;
            // uniform inputs (e.g. mobility on a pure chain) collapse to 0.
            if v.iter().any(|&x| x != v[0]) {
                assert!(v.contains(&1.0), "{f:?}: some node is max");
            }
        }
        // Chain: head has 1 child, tail 0 → ChildCount ranks head over tail.
        let v = SpFunction::ChildCount.values(&g);
        assert!(v[0] > v[2]);
        // Height strictly decreases along a chain.
        let h = SpFunction::Height.values(&g);
        assert!(h[0] > h[1] && h[1] > h[2]);
        // On a pure chain every node is critical: mobility is uniform.
        let m = SpFunction::Mobility.values(&g);
        assert_eq!(m, vec![0.0; 3]);
    }

    #[test]
    fn port_limited_group_splits() {
        // Four independent adds feeding a wide xor tree; with n_in = 2 the
        // whole thing cannot be one ISE.
        let mut dfg = ProgramDfg::new();
        let li: Vec<_> = (0..8).map(|_| dfg.live_in()).collect();
        let adds: Vec<_> = (0..4)
            .map(|i| {
                dfg.add_node(
                    Operation::new(Opcode::Add),
                    vec![Operand::LiveIn(li[2 * i]), Operand::LiveIn(li[2 * i + 1])],
                )
            })
            .collect();
        let x1 = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(adds[0]), Operand::Node(adds[1])],
        );
        let x2 = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(adds[2]), Operand::Node(adds[3])],
        );
        let top = dfg.add_node(
            Operation::new(Opcode::Or),
            vec![Operand::Node(x1), Operand::Node(x2)],
        );
        dfg.set_live_out(top, true);
        let g = exgraph::build(&dfg);
        let m = MachineConfig::preset_4issue_10r5w();
        let cons = Constraints::new(2, 1);
        let base = exgraph::to_soa(&g);
        let rows = rows(&g);
        let (ant, mut store) = context(&g, &m, &cons, &base, &rows);
        force(&g, &mut store, true);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let w = ant.run(&store, &mut rng);
        for gr in &w.groups {
            let d = ports::demand(&g, &gr.members.to_node_set(g.len()));
            assert!(d.inputs <= 2, "IN(S) respected, got {}", d.inputs);
            assert!(d.outputs <= 1, "OUT(S) respected, got {}", d.outputs);
        }
        assert!(w.groups.len() >= 3, "forced to split");
    }
}
