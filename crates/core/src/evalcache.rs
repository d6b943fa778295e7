//! Round-scoped hot-path evaluation: one-shot lowering, no memo tables.
//!
//! The round lowers its [`ExGraph`] exactly once, into struct-of-arrays
//! form ([`crate::exgraph::to_soa`]), and builds its bit rows once
//! ([`RoundRows`]). [`RoundEval`] borrows both, as do the walk builder and
//! candidate extraction, so one graph serves the SP values, the ant walk's
//! adjacency, every walk's merit analysis and every candidate's schedule
//! length. A walk's merit analysis times the walk with a counter-driven
//! pass over that base graph and its reverse, each group one unit and no
//! quotient built ([`walk_timing_into`]), and then answers each virtual
//! subgraph from the walk's hardware components
//! ([`merit::MeritScratch::vs`]). A candidate's schedule length comes
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
use isex_dfg::{NodeId, NodeSet};
use isex_isa::MachineConfig;
use isex_sched::soa::{walk_timing_into, SoaGraph, WalkTiming};
use isex_sched::{collapsed_len, CollapseScratch, SchedOp};

use crate::ant::Walk;
use crate::candidate::Constraints;
use crate::exgraph::ExGraph;
use crate::merit::{self, MeritScratch, Timed};
use crate::rows::{RoundRows, Row};

/// One round's evaluation over its shared lowering and rows, with the SoA
/// timing buffers, dropped when the round ends (commitment collapses the
/// graph). Every scratch buffer an evaluation needs lives here, so
/// steady-state evaluation allocates nothing.
pub(crate) struct RoundEval<'a, const W: usize> {
    g: &'a ExGraph,
    machine: &'a MachineConfig,
    /// Schedule length of `base` with no new ISE (the round's `base_len`).
    pub base_len: u32,
    /// The round's graph lowered once (`to_soa`: every node on
    /// implementation option 0) — same indices, same adjacency.
    base: &'a SoaGraph,
    rows: &'a RoundRows<W>,
    /// Per-node latencies of the walk being timed (software options change
    /// latency, never ports or unit class).
    walk_lat: Vec<u32>,
    timing: WalkTiming,
    critical: Row<W>,
    collapse: CollapseScratch,
    /// The merit kernels' scratch, shared by both explorers' merit updates.
    pub merit: MeritScratch<W>,
}

impl<'a, const W: usize> RoundEval<'a, W> {
    /// Evaluates over `base` and `rows`, the round's graph `g` lowered and
    /// its rows. `base_len` is its schedule length, which the caller
    /// already knows (the block baseline, or the previous round's
    /// committed candidate length).
    pub fn new(
        g: &'a ExGraph,
        base: &'a SoaGraph,
        rows: &'a RoundRows<W>,
        machine: &'a MachineConfig,
        base_len: u32,
    ) -> Self {
        RoundEval {
            g,
            machine,
            base_len,
            base,
            rows,
            walk_lat: Vec::new(),
            timing: WalkTiming::default(),
            critical: Row::default(),
            collapse: CollapseScratch::default(),
            merit: MeritScratch::new(g),
        }
    }

    /// Applies the merit update of `walk` to `store` (step 8 of Fig.
    /// 4.3.1): the walk's timing, critical path, virtual subgraphs and
    /// option evaluation, one pass per walk.
    pub fn update_merits(
        &mut self,
        walk: &Walk<W>,
        constraints: &Constraints,
        params: &AcoParams,
        store: &mut PheromoneStore,
    ) {
        let extra = self.time_walk(walk);
        let timed = Timed {
            timing: &self.timing,
            extra,
            critical: &self.critical,
        };
        merit::update_merits(
            self.g,
            walk,
            self.rows,
            constraints,
            self.machine,
            params,
            &timed,
            &mut self.merit,
            store,
        );
    }

    /// Times `walk` ("identify the critical path using instruction
    /// scheduling", §4.0) into `timing` and `critical`, and returns the
    /// uniform ALAP shift of its deadline. Each of the walk's groups is one
    /// unit on the latency-patched base graph; ASAP comes from a
    /// counter-driven pass and ALAP from its reverse, with no quotient
    /// built.
    fn time_walk(&mut self, walk: &Walk<W>) -> u32 {
        // Per-walk software latencies on top of the base ones (hardware
        // members keep the option-0 placeholder: they sit inside a group).
        self.walk_lat.clone_from(&self.base.lat);
        for (i, c) in walk.choice.iter().enumerate() {
            if let ImplChoice::Sw(j) = *c {
                self.walk_lat[i] = self
                    .g
                    .node(NodeId::new(i as u32))
                    .payload()
                    .sched_op(j)
                    .latency;
            }
        }
        walk_timing_into(
            self.base,
            &self.walk_lat,
            walk.groups
                .iter()
                .map(|gr| (gr.members.ones().map(|m| m as u32), gr.latency)),
            &mut self.timing,
        );
        let t = &self.timing;
        self.critical = Row::default();
        for n in 0..self.g.len() {
            let u = t.unit[n] as usize;
            if t.alap[u] == t.asap[u] {
                self.critical.insert(n);
            }
        }
        // `alap` holds ALAP at deadline `len`; the walk's deadline only
        // shifts every slot by the same amount, folded into the query.
        walk.tet.max(t.len) - t.len
    }

    /// The walk's timing and its prepared merit scratch, as
    /// [`RoundEval::update_merits`] hands them to the merit update.
    #[cfg(test)]
    fn walk_view(&mut self, walk: &Walk<W>) -> (Timed<'_, W>, &mut MeritScratch<W>) {
        let extra = self.time_walk(walk);
        self.merit.prepare(self.g, self.rows, &walk.choice);
        let timed = Timed {
            timing: &self.timing,
            extra,
            critical: &self.critical,
        };
        (timed, &mut self.merit)
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
        let rows = RoundRows::<1>::new(&g, &isex_dfg::Reachability::compute(&g));
        let mut eval = RoundEval::new(&g, &base, &rows, &m, exgraph::schedule_len(&g, &m));
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

    /// Counts of the oracle checks of [`check_walks`].
    #[derive(Debug, Default)]
    struct Checked {
        /// Nodes whose every query was checked.
        queries: usize,
        /// Hardware-chosen nodes' component answers, and those of them
        /// served from the walk's component cache.
        components: usize,
        reused: usize,
        /// Software-chosen nodes' answers on a virtual subgraph of two or
        /// more nodes, joined from component summaries.
        software: usize,
        /// Legality repairs of illegal virtual subgraphs, and those of
        /// hardware-chosen nodes (members of illegal components).
        merit_repairs: usize,
        illegal_members: usize,
        /// Legality repairs of candidate extraction's port trimming.
        port_repairs: usize,
        /// Per-option `ET` and area evaluations.
        options: usize,
    }

    /// Checks every merit query of `walks` random walks on `g`, on rows of
    /// `W` words, against its free-function reference: the walk's
    /// critical set and `Max_AEC` against `isex_sched::timing` on the
    /// `collapse_groups` quotient at the walk deadline; legality repair
    /// against the allocating `explore::grow_legal_from`, on every illegal
    /// virtual subgraph and on every piece `explore::enforce_ports` grows
    /// from the walk's hardware choices; the rest against the `merit`,
    /// `ports` and `convex` functions. Every node's answers are checked on
    /// its fresh `vS_x`: a hardware-chosen node's come from its component,
    /// cached or not, and members of an illegal component must get no
    /// cached case-4 answers; a software-chosen node's are joined from its
    /// neighbours' component summaries.
    fn check_walks<const W: usize>(g: &ExGraph, walks: usize, seed: u64, n: &mut Checked) {
        use crate::ant::{Ant, SpFunction};
        use crate::explore::{enforce_ports, grow_legal_from};
        use isex_dfg::{analysis, convex, ports, Reachability};
        use isex_sched::collapse::collapse_groups;
        use isex_sched::timing;
        use rand::SeedableRng;

        let m = MachineConfig::preset_2issue_4r2w();
        let cons = Constraints::from_machine(&m);
        let params = AcoParams::default();
        let reach = Reachability::compute(g);
        let base = exgraph::to_soa(g);
        let rows = RoundRows::<W>::new(g, &reach);
        let ant = Ant::new(
            g,
            &m,
            &cons,
            params.lambda,
            SpFunction::ChildCount,
            &base,
            &rows,
        );
        let shape: Vec<(usize, usize)> = g
            .iter()
            .map(|(_, n)| (n.payload().sw_delays.len(), n.payload().hw.len()))
            .collect();
        let store = PheromoneStore::new(&shape, &params);
        let mut eval = RoundEval::new(g, &base, &rows, &m, exgraph::schedule_len(g, &m));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let row = |set: &NodeSet| Row::<W>::from_node_set(set);
        for _ in 0..walks {
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
                    (gr.members.to_node_set(g.len()), fp)
                })
                .collect();
            let q = collapse_groups(&lowered, &groups);
            let deadline = walk.tet.max(timing::dep_length(&q.dfg));
            let critical_q = timing::critical_nodes(&q.dfg);
            // Software cycles, critical membership and `Max_AEC` of a set,
            // from the references.
            let fresh = |set: &NodeSet| {
                let mut set_q = NodeSet::new(q.dfg.len());
                for y in set {
                    set_q.insert(q.node_map[y.index()]);
                }
                merit::SetAnswers {
                    sw_cycles: merit::software_cycles(g, set),
                    critical: set_q.intersects(&critical_q),
                    max_aec: timing::max_aec(&q.dfg, &set_q, deadline),
                }
            };
            let (timed, ms) = eval.walk_view(&walk);
            for x in g.node_ids() {
                let (xi, at) = (x.index(), format!("k = {} node {}", g.len(), x.index()));
                assert_eq!(
                    timed.critical.contains(xi),
                    critical_q.contains(q.node_map[xi]),
                    "{at}: critical"
                );
                let vs = merit::virtual_subgraph(g, &walk.choice, x);
                let fast = ms.vs(&rows, xi);
                assert_eq!(fast.members, row(&vs), "{at}: vS_x");
                let demand = ports::demand(g, &vs);
                let convex = convex::is_convex(&vs, &reach);
                let is_legal = demand.fits(cons.n_in, cons.n_out) && convex;
                let expect = merit::VsAnswers {
                    demand,
                    convex,
                    scored: is_legal.then(|| fresh(&vs)),
                };
                assert_eq!(
                    ms.answers(&rows, xi, &fast, &cons, &timed),
                    expect,
                    "{at}: answers"
                );
                let hw = walk.choice[xi].is_hardware();
                if hw {
                    n.components += 1;
                } else if vs.len() > 1 {
                    n.software += 1;
                }
                if !is_legal {
                    // Every such node, a member of an illegal component
                    // included, scores its own legal sub-blob.
                    let legal = merit::grow_legal(&rows, &cons, xi, fast.members);
                    let reference = grow_legal_from(g, x, &vs, &cons, &reach);
                    assert_eq!(legal, row(&reference), "{at}: legal sub-blob");
                    let sub = timed.set_answers(ms, &rows, legal);
                    assert_eq!(sub, fresh(&reference), "{at}: sub-blob answers");
                    n.merit_repairs += 1;
                    n.illegal_members += usize::from(hw);
                }
                let fast = ms.evaluate_options(g, &rows, row(&vs), xi, &m).to_vec();
                assert_eq!(fast.len(), g.node(x).payload().hw.len(), "{at}: options");
                for (j, fast) in fast.into_iter().enumerate() {
                    let reference = merit::evaluate_option(g, &walk.choice, &vs, x, j, &m);
                    assert_eq!(fast.et_cycles, reference.et_cycles, "{at}: ET option {j}");
                    assert_eq!(
                        fast.area.to_bits(),
                        reference.area.to_bits(),
                        "{at}: area option {j}"
                    );
                    n.options += 1;
                }
                n.queries += 1;
            }
            n.reused += std::mem::take(&mut ms.reused);
            // Candidate extraction's port trimming over the same walk.
            let mut hw = NodeSet::new(g.len());
            for x in g.node_ids() {
                if walk.choice[x.index()].is_hardware() {
                    hw.insert(x);
                }
            }
            for comp in analysis::components_within(g, &hw) {
                for piece in convex::make_convex(g, &comp, &reach) {
                    enforce_ports(g, piece, &cons, &reach, |seed, s| {
                        let grown = merit::grow_legal(&rows, &cons, seed.index(), row(s));
                        let reference = grow_legal_from(g, seed, s, &cons, &reach);
                        assert_eq!(grown, row(&reference), "k = {}: trimmed piece", g.len());
                        n.port_repairs += 1;
                        reference
                    });
                }
            }
        }
    }

    /// The merit kernels equal their references on random walks over every
    /// benchmark's O3 hot block (rows of one or two words).
    #[test]
    fn fast_prims_match_their_references_on_hot_blocks() {
        use isex_workloads::{Benchmark, OptLevel};

        let mut n = Checked::default();
        for (seed, &bench) in Benchmark::ALL.iter().enumerate() {
            let g = exgraph::build(&bench.program(OptLevel::O3).hottest().dfg);
            assert!(
                g.len().max(g.live_in_count()) <= 128,
                "{bench}: wider than two words"
            );
            check_walks::<2>(&g, 12, seed as u64, &mut n);
        }
        assert!(n.queries > 1000, "{n:?}");
        assert!(n.components >= 1000, "{n:?}");
        assert!(n.reused >= 300, "{n:?}");
        assert!(n.illegal_members >= 100, "{n:?}");
        assert!(n.merit_repairs >= 1000, "{n:?}");
        assert!(n.software >= 300, "{n:?}");
        assert!(n.port_repairs >= 50, "{n:?}");
    }

    /// The merit kernels equal their references on seeded random blocks at
    /// the row widths the registry's hot blocks never reach: 2, 4 and 16
    /// words, each with minimum counts of every kind of check.
    #[test]
    fn fast_prims_match_their_references_on_wide_random_blocks() {
        use isex_workloads::random::{random_dfg, RandomDfgConfig};
        use rand::SeedableRng;

        let block = |k: usize, seed: u64| {
            let cfg = RandomDfgConfig {
                nodes: k,
                width: 4,
                mem_fraction: 0.1,
                live_ins: 8,
            };
            exgraph::build(&random_dfg(
                &cfg,
                &mut rand::rngs::StdRng::seed_from_u64(seed),
            ))
        };
        fn run<const W: usize>(g: &ExGraph, walks: usize, min: usize) {
            assert_eq!(crate::rows::width_words(g), W);
            let mut n = Checked::default();
            check_walks::<W>(g, walks, 5, &mut n);
            let counts = [
                n.components,
                n.software,
                n.merit_repairs,
                n.illegal_members,
                n.port_repairs,
                n.options,
            ];
            assert!(counts.iter().all(|&c| c >= min), "W = {W}: {n:?}");
        }
        run::<2>(&block(100, 1), 4, 25);
        run::<4>(&block(200, 2), 2, 25);
        run::<16>(&block(1000, 3), 1, 25);
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
