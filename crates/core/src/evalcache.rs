//! Round-scoped hot-path evaluation: one-shot lowering, no memo tables.
//!
//! The round lowers its [`ExGraph`] exactly once, into struct-of-arrays
//! form ([`crate::exgraph::to_soa`]). [`RoundEval`] borrows that
//! lowering, as do the walk builder and candidate extraction, so one
//! graph serves the SP values, the ant walk's adjacency, every walk's
//! merit analysis and every candidate's schedule length. A walk's merit analysis times the walk
//! with a counter-driven pass over that base graph and its reverse, each
//! group one unit and no quotient built ([`walk_timing_into`]), and then
//! answers each hardware component's queries once for all its members
//! ([`merit::FastPrims::component`]). A candidate's schedule length comes
//! from `isex-sched`'s [`collapsed_len`], which the leave-one-out sweep
//! and ISE replacement share: the groups are collapsed into the numbered
//! quotient the list scheduler's tie-breaks need and the quotient is
//! list-scheduled.
//!
//! Nothing is memoised. Memoised candidate evaluation is what keeps
//! iterative-improvement ISE search tractable in ISEGEN, but here a walk
//! memo answered about 5% of lookups, and a candidate memo cannot hit at
//! all: the candidates of a round are disjoint pieces of one choice
//! vector, each scheduled once. Both cost more than they saved.
//!
//! The state is *round-scoped by construction*: committing a candidate
//! collapses the graph, and the next round builds a fresh `RoundEval`.

use isex_aco::{AcoParams, ImplChoice, PheromoneStore};
use isex_dfg::{NodeId, NodeSet, Reachability};
use isex_isa::MachineConfig;
use isex_sched::soa::{walk_timing_into, SoaGraph, WalkTiming};
use isex_sched::{collapsed_len, CollapseScratch, SchedOp};

use crate::ant::Walk;
use crate::candidate::Constraints;
use crate::exgraph::ExGraph;
use crate::merit::{self, PortMasks};

/// One round's evaluation over its shared lowering, with the SoA timing
/// buffers, dropped when the round ends (commitment collapses the graph).
/// Every scratch buffer an evaluation needs lives here, so steady-state
/// evaluation allocates nothing.
pub(crate) struct RoundEval<'a> {
    machine: &'a MachineConfig,
    /// Schedule length of `base` with no new ISE (the round's `base_len`).
    pub base_len: u32,
    /// The round's graph lowered once (`to_soa`: every node on
    /// implementation option 0) — same indices, same adjacency.
    base: &'a SoaGraph,
    /// Per-node latencies of the walk being timed (software options change
    /// latency, never ports or unit class).
    walk_lat: Vec<u32>,
    timing: WalkTiming,
    critical: NodeSet,
    collapse: CollapseScratch,
    fast: merit::FastMeritScratch,
}

impl<'a> RoundEval<'a> {
    /// Evaluates over `base`, the round's graph lowered. `base_len` is its
    /// schedule length, which the caller already knows (the block
    /// baseline, or the previous round's committed candidate length).
    pub fn new(base: &'a SoaGraph, machine: &'a MachineConfig, base_len: u32) -> Self {
        RoundEval {
            machine,
            base_len,
            base,
            walk_lat: Vec::new(),
            timing: WalkTiming::default(),
            critical: NodeSet::new(base.len()),
            collapse: CollapseScratch::default(),
            fast: merit::FastMeritScratch::default(),
        }
    }

    /// Applies the merit update of `walk` to `store` (step 8 of Fig.
    /// 4.3.1): the walk's timing, critical path, virtual subgraphs and
    /// option evaluation, one pass per walk.
    #[allow(clippy::too_many_arguments)]
    pub fn update_merits(
        &mut self,
        g: &ExGraph,
        walk: &Walk,
        constraints: &Constraints,
        params: &AcoParams,
        reach: &Reachability,
        masks: &PortMasks,
        store: &mut PheromoneStore,
    ) {
        let machine = self.machine;
        let mut prims = self.walk_prims(g, walk, masks);
        merit::update_merits(
            g,
            walk,
            constraints,
            machine,
            params,
            reach,
            &mut prims,
            store,
        );
    }

    /// Times `walk` ("identify the critical path using instruction
    /// scheduling", §4.0) and returns the merit queries over that timing.
    /// Each of the walk's groups is one unit on the latency-patched base
    /// graph; ASAP comes from a counter-driven pass and ALAP from its
    /// reverse, with no quotient built.
    fn walk_prims<'s>(
        &'s mut self,
        g: &ExGraph,
        walk: &Walk,
        masks: &'s PortMasks,
    ) -> merit::FastPrims<'s> {
        // Per-walk software latencies on top of the base ones (hardware
        // members keep the option-0 placeholder: they sit inside a group).
        self.walk_lat.clone_from(&self.base.lat);
        for (i, c) in walk.choice.iter().enumerate() {
            if let ImplChoice::Sw(j) = *c {
                self.walk_lat[i] = g.node(NodeId::new(i as u32)).payload().sched_op(j).latency;
            }
        }
        walk_timing_into(
            self.base,
            &self.walk_lat,
            walk.groups.iter().map(|gr| (&gr.members, gr.latency)),
            &mut self.timing,
        );
        let t = &self.timing;
        self.critical.clear();
        for n in g.node_ids() {
            let u = t.unit[n.index()] as usize;
            if t.alap[u] == t.asap[u] {
                self.critical.insert(n);
            }
        }
        self.fast.prepare(self.base, walk);
        // `alap` holds ALAP at deadline `len`; the walk's deadline only
        // shifts every slot by the same amount, folded into the query.
        merit::FastPrims {
            scratch: &mut self.fast,
            base: self.base,
            masks,
            timing: t,
            extra: walk.tet.max(t.len) - t.len,
            critical: &self.critical,
        }
    }

    /// Schedule length of the round's graph with `members` frozen into one
    /// ISE of the given footprint.
    pub fn candidate_len(&mut self, members: &NodeSet, footprint: SchedOp) -> u32 {
        collapsed_len(
            self.base,
            &[(members.clone(), footprint)],
            self.machine,
            &mut self.collapse,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exgraph::{self, ExKind};
    use isex_dfg::Operand;
    use isex_isa::{Opcode, Operation, ProgramDfg};
    use isex_sched::UnitClass;

    fn chain() -> ExGraph {
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

    #[test]
    fn candidate_len_matches_freeze_path() {
        let g = chain();
        let m = MachineConfig::preset_2issue_4r2w();
        let base = exgraph::to_soa(&g);
        let mut eval = RoundEval::new(&base, &m, exgraph::schedule_len(&g, &m));
        let mut members = NodeSet::new(g.len());
        members.insert(NodeId::new(0));
        members.insert(NodeId::new(1));
        // Two footprints on the same members, each against a fresh freeze,
        // with the round's scratch reused between them.
        for fp in [
            SchedOp::new(1, 2, 1, UnitClass::Asfu),
            SchedOp::new(3, 2, 1, UnitClass::Asfu),
        ] {
            let frozen = exgraph::freeze(&g, &members, fp, usize::MAX).dfg;
            assert_eq!(
                eval.candidate_len(&members, fp),
                exgraph::schedule_len(&frozen, &m)
            );
        }
    }

    /// Every [`merit::FastPrims`] query equals its free-function reference
    /// on random walks over real hot blocks: the walk's critical set and
    /// `Max_AEC` against `isex_sched::timing` on the `collapse_groups`
    /// quotient at the walk deadline, legality repair against the
    /// allocating `explore::grow_legal_from` (on every illegal virtual
    /// subgraph, and on every piece `explore::enforce_ports` grows from the
    /// walk's hardware choices), the rest against the `merit`, `ports` and
    /// `convex` functions. Every hardware-chosen node's per-component
    /// answers are checked against the same references on its fresh
    /// `vS_x`, including those served from the walk's component cache, and
    /// members of an illegal component must get no cached case-4 answers.
    #[test]
    fn fast_prims_match_their_references_on_hot_blocks() {
        use crate::ant::{Ant, SpFunction};
        use crate::explore::{enforce_ports, grow_legal_from};
        use isex_dfg::{analysis, convex, ports};
        use isex_sched::collapse::collapse_groups;
        use isex_sched::timing;
        use isex_workloads::{Benchmark, OptLevel};
        use rand::SeedableRng;

        let m = MachineConfig::preset_2issue_4r2w();
        let cons = Constraints::from_machine(&m);
        let params = AcoParams::default();
        let mut queries = 0usize;
        let mut merit_repairs = 0usize;
        let mut port_repairs = 0usize;
        let mut reused = 0usize;
        let mut illegal_members = 0usize;
        let mut kernel = merit::GrowScratch::default();
        for (seed, &bench) in Benchmark::ALL.iter().enumerate() {
            let g = exgraph::build(&bench.program(OptLevel::O3).hottest().dfg);
            let reach = Reachability::compute(&g);
            let base = exgraph::to_soa(&g);
            let ant = Ant::new(&g, &m, &cons, params.lambda, SpFunction::ChildCount, &base);
            let shape: Vec<(usize, usize)> = g
                .iter()
                .map(|(_, n)| (n.payload().sw_delays.len(), n.payload().hw.len()))
                .collect();
            let store = PheromoneStore::new(&shape, &params);
            let mut eval = RoundEval::new(&base, &m, exgraph::schedule_len(&g, &m));
            let masks = PortMasks::new(&g);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed as u64);
            for _ in 0..12 {
                let walk = ant.run(&store, &mut rng);
                let lowered = g.map(|id, op| match walk.choice[id.index()] {
                    ImplChoice::Sw(j) => op.sched_op(j),
                    ImplChoice::Hw(_) => op.sched_op(0),
                });
                let groups: Vec<(NodeSet, SchedOp)> = walk
                    .groups
                    .iter()
                    .map(|gr| {
                        let fp = SchedOp::new(gr.latency, gr.reads, gr.writes, UnitClass::Asfu);
                        (gr.members.clone(), fp)
                    })
                    .collect();
                let q = collapse_groups(&lowered, &groups);
                let deadline = walk.tet.max(timing::dep_length(&q.dfg));
                let critical_q = timing::critical_nodes(&q.dfg);
                let mut prims = eval.walk_prims(&g, &walk, &masks);
                let mut vs = NodeSet::new(g.len());
                let mut legal = NodeSet::new(g.len());
                for x in g.node_ids() {
                    let at = format!("{bench} node {}", x.index());
                    assert_eq!(
                        prims.critical.contains(x),
                        critical_q.contains(q.node_map[x.index()]),
                        "{at}: critical"
                    );
                    prims.virtual_subgraph_into(&walk, x, &mut vs);
                    assert_eq!(vs, merit::virtual_subgraph(&g, &walk, x), "{at}: vS_x");
                    // Software cycles, critical membership and `Max_AEC`
                    // of a set, from the references.
                    let fresh = |set: &NodeSet| {
                        let mut set_q = NodeSet::new(q.dfg.len());
                        for y in set {
                            set_q.insert(q.node_map[y.index()]);
                        }
                        merit::SetAnswers {
                            sw_cycles: merit::software_cycles(&g, set),
                            critical: set_q.intersects(&critical_q),
                            max_aec: timing::max_aec(&q.dfg, &set_q, deadline),
                        }
                    };
                    let demand = ports::demand(&g, &vs);
                    let convex = convex::is_convex(&vs, &reach);
                    let is_legal = demand.fits(cons.n_in, cons.n_out) && convex;
                    let expect = merit::VsAnswers {
                        demand,
                        convex,
                        scored: is_legal.then(|| fresh(&vs)),
                    };
                    assert_eq!(prims.answers(&g, &vs, &cons, &reach), expect, "{at}: vS_x");
                    let hw = walk.choice[x.index()].is_hardware();
                    if hw {
                        let cached = prims.component(&g, x, &vs, &cons, &reach);
                        assert_eq!(cached, expect, "{at}: component answers");
                    }
                    if !is_legal {
                        // Every such node, a member of an illegal component
                        // included, scores its own legal sub-blob.
                        prims.grow_legal(x, &vs, &cons, &reach, &mut legal);
                        assert_eq!(
                            legal,
                            grow_legal_from(&g, x, &vs, &cons, &reach),
                            "{at}: legal sub-blob"
                        );
                        let sub = prims.set_answers(&g, &legal);
                        assert_eq!(sub, fresh(&legal), "{at}: sub-blob answers");
                        merit_repairs += 1;
                        illegal_members += usize::from(hw);
                    }
                    for j in 0..g.node(x).payload().hw.len() {
                        let fast = prims.evaluate_option(&g, &walk, &vs, x, j, &m);
                        let reference = merit::evaluate_option(&g, &walk, &vs, x, j, &m);
                        assert_eq!(fast.et_cycles, reference.et_cycles, "{at}: ET option {j}");
                        assert_eq!(
                            fast.area.to_bits(),
                            reference.area.to_bits(),
                            "{at}: area option {j}"
                        );
                    }
                    queries += 1;
                }
                // Candidate extraction's port trimming over the same walk.
                let mut hw = NodeSet::new(g.len());
                for x in g.node_ids() {
                    if walk.choice[x.index()].is_hardware() {
                        hw.insert(x);
                    }
                }
                for comp in analysis::components_within(&g, &hw) {
                    for piece in convex::make_convex(&g, &comp, &reach) {
                        enforce_ports(&g, piece, &cons, &reach, |seed, s| {
                            let mut grown = NodeSet::new(g.len());
                            kernel.grow(&base, &masks, &reach, &cons, seed, s, &mut grown);
                            let reference = grow_legal_from(&g, seed, s, &cons, &reach);
                            assert_eq!(grown, reference, "{bench}: enforce_ports piece");
                            port_repairs += 1;
                            grown
                        });
                    }
                }
            }
            reused += eval.fast.reused;
        }
        assert!(queries > 1000, "only {queries} nodes queried");
        assert!(reused >= 1000, "only {reused} component answers reused");
        assert!(
            illegal_members >= 100,
            "only {illegal_members} members of illegal components"
        );
        assert!(merit_repairs >= 1000, "only {merit_repairs} illegal vS_x");
        assert!(
            port_repairs >= 50,
            "only {port_repairs} port-trimming grows"
        );
    }

    #[test]
    fn frozen_exop_lowering_equals_candidate_footprint() {
        // The commutation candidate_len relies on: the ExOp that `freeze`
        // installs lowers (via sched_op(0)) to exactly the footprint.
        let fp = SchedOp::new(2, 3, 1, UnitClass::Asfu);
        let frozen = crate::exgraph::ExOp {
            sw_delays: vec![fp.latency],
            hw: Vec::new(),
            reads: fp.reads,
            writes: fp.writes,
            class: UnitClass::Asfu,
            kind: ExKind::FrozenIse(0),
        };
        assert_eq!(frozen.sched_op(0), fp);
    }
}
