//! The exploration driver: rounds, convergence, candidate extraction and
//! the public [`MultiIssueExplorer`] API.
//!
//! "The proposed algorithm explores ISE iteratively until no ISEs in a DFG
//! can be found. The algorithm would be performed for several rounds …
//! except for the last round, each round would produce at least one ISE"
//! (§4.3). A round is the ACO loop of Fig. 4.3.1 (steps 2–9) run to
//! convergence; after convergence the taken hardware options induce the
//! ISE candidate(s), Make-Convex legalises them, and the best one is
//! committed by collapsing it into the graph before the next round.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use isex_aco::{AcoParams, ImplChoice, PheromoneStore};
use isex_dfg::{analysis, convex, ports, CsrAdjacency, NodeId, NodeSet, Reachability};
use isex_isa::{MachineConfig, ProgramDfg};
use isex_sched::soa::{self, SoaGraph};
use isex_sched::{schedule_soa, ListScratch, Priority, SchedOp, UnitClass};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::ant::{Ant, AntScratch, Walk};
use crate::candidate::{Constraints, IseCandidate};
use crate::evalcache::{collapsed_len, CollapseScratch, RoundEval};
use crate::exgraph::{self, ExGraph, ExKind};
use crate::merit;
use crate::trail::{self, TrailState};

/// Hard cap on exploration rounds per basic block (each committed ISE
/// shrinks the graph, so real runs stop far earlier).
const MAX_ROUNDS: usize = 32;

/// Whether `ISEX_DEBUG` diagnostics are on. The env var is read once per
/// process — the round loop must never touch `std::env` (lookups walk the
/// environment block under a lock on most platforms).
fn debug_enabled() -> bool {
    static DEBUG: OnceLock<bool> = OnceLock::new();
    *DEBUG.get_or_init(|| std::env::var_os("ISEX_DEBUG").is_some())
}

/// One sampled point of an exploration trace: the walk TET observed at a
/// given round/iteration (see [`MultiIssueExplorer::explore_traced`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Exploration round (1-based).
    pub round: usize,
    /// Iteration within the round (1-based).
    pub iteration: usize,
    /// The walk's total execution time, cycles.
    pub tet: u32,
    /// Best TET seen so far in this round.
    pub best_tet: u32,
}

/// The result of exploring one basic block.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Exploration {
    /// Committed ISE candidates, in discovery order, in original-DFG
    /// coordinates.
    pub candidates: Vec<IseCandidate>,
    /// Schedule length of the block without any ISE, in cycles.
    pub baseline_cycles: u32,
    /// Schedule length with every committed ISE in place, in cycles.
    pub cycles_with_ises: u32,
    /// Exploration rounds executed (including the final empty one).
    pub rounds: usize,
    /// Total ant iterations across all rounds.
    pub iterations: usize,
    /// Whether exploration was cut short — by a tripped stop flag or by an
    /// explicit [`AcoParams::max_rounds`] budget — so the candidates are a
    /// valid best-so-far set rather than the run-to-quiescence answer.
    /// Absent from serialized form when `false`, keeping untouched runs
    /// byte-identical to pre-anytime output.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub degraded: bool,
}

impl Exploration {
    /// Fractional execution-time reduction of this block
    /// (`1 − with/without`).
    pub fn reduction(&self) -> f64 {
        if self.baseline_cycles == 0 {
            return 0.0;
        }
        1.0 - self.cycles_with_ises as f64 / self.baseline_cycles as f64
    }

    /// Total extra silicon area of the committed candidates, µm².
    pub fn total_area(&self) -> f64 {
        self.candidates.iter().map(|c| c.area_um2).sum()
    }
}

/// An ISE candidate in the coordinates of the current (possibly collapsed)
/// exploration graph.
#[derive(Clone, Debug)]
pub(crate) struct CurCandidate {
    pub members: NodeSet,
    pub choices: Vec<(NodeId, usize)>,
    pub delay_ns: f64,
    pub latency: u32,
    pub area: f64,
    pub inputs: usize,
    pub outputs: usize,
}

impl CurCandidate {
    pub fn footprint(&self) -> SchedOp {
        SchedOp::new(self.latency, self.inputs, self.outputs, UnitClass::Asfu)
    }
}

/// The proposed multi-issue-aware ISE explorer ("MI").
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Clone, Debug)]
pub struct MultiIssueExplorer {
    /// The modelled machine.
    pub machine: MachineConfig,
    /// The §4.2 port constraints.
    pub constraints: Constraints,
    /// ACO tunables (defaults = §5.1).
    pub params: AcoParams,
    /// The scheduling-priority function of Eq. 1 (default: child count,
    /// the paper's choice; Ch. 6 names the alternatives as future work).
    pub sp_function: crate::ant::SpFunction,
    /// Optional cooperative stop flag, checked between rounds. When it
    /// trips, the explorer returns the committed best-so-far candidates
    /// with [`Exploration::degraded`] set instead of running to
    /// quiescence — the anytime property of the round loop (§4.3: each
    /// round ends holding a valid ISE set).
    pub stop: Option<Arc<AtomicBool>>,
}

impl MultiIssueExplorer {
    /// Creates an explorer with the paper's default parameters.
    pub fn new(machine: MachineConfig, constraints: Constraints) -> Self {
        MultiIssueExplorer {
            machine,
            constraints,
            params: AcoParams::default(),
            sp_function: crate::ant::SpFunction::default(),
            stop: None,
        }
    }

    /// Creates an explorer with custom ACO parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`AcoParams::validate`].
    pub fn with_params(
        machine: MachineConfig,
        constraints: Constraints,
        params: AcoParams,
    ) -> Self {
        params.validate().expect("invalid ACO parameters");
        MultiIssueExplorer {
            machine,
            constraints,
            params,
            sp_function: crate::ant::SpFunction::default(),
            stop: None,
        }
    }

    /// Explores `dfg`, returning the committed candidates and the
    /// before/after schedule lengths. Deterministic for a given `rng` seed.
    pub fn explore<R: Rng + ?Sized>(&self, dfg: &ProgramDfg, rng: &mut R) -> Exploration {
        self.explore_inner(dfg, rng, None)
    }

    /// Like [`MultiIssueExplorer::explore`], additionally recording the TET
    /// of every ant walk — the raw material for convergence plots.
    pub fn explore_traced<R: Rng + ?Sized>(
        &self,
        dfg: &ProgramDfg,
        rng: &mut R,
    ) -> (Exploration, Vec<TraceEntry>) {
        let mut trace = Vec::new();
        let exploration = self.explore_inner(dfg, rng, Some(&mut trace));
        (exploration, trace)
    }

    fn explore_inner<R: Rng + ?Sized>(
        &self,
        dfg: &ProgramDfg,
        rng: &mut R,
        mut trace: Option<&mut Vec<TraceEntry>>,
    ) -> Exploration {
        let g0 = exgraph::build(dfg);
        // The original graph is lowered once and the lowering shared
        // between the baseline measurement and the leave-one-out sweep at
        // the end.
        let base0 = exgraph::to_soa(&g0);
        let baseline = schedule_soa(
            &base0,
            &self.machine,
            Priority::Height,
            &mut ListScratch::new(),
        );
        let mut current = g0.clone();
        let mut commits: Vec<IseCandidate> = Vec::new();
        let mut iterations = 0usize;
        let mut rounds = 0usize;
        // Schedule length of `current`, carried across rounds: the
        // baseline before any commit, then the committed candidate's
        // measured `with_len`.
        let mut known_len = baseline;

        let round_cap = match self.params.max_rounds {
            0 => MAX_ROUNDS,
            budget => budget.min(MAX_ROUNDS),
        };
        let mut degraded = false;
        let mut quiescent = false;
        while rounds < round_cap {
            if self
                .stop
                .as_ref()
                .is_some_and(|flag| flag.load(Ordering::Acquire))
            {
                degraded = true;
                break;
            }
            rounds += 1;
            let explorable = current
                .iter()
                .filter(|(_, n)| n.payload().is_explorable())
                .count();
            if explorable < 2 {
                quiescent = true;
                break;
            }
            let out = self.round(
                &current,
                rng,
                &mut iterations,
                rounds,
                trace.as_deref_mut(),
                known_len,
            );
            let base_len = out.base_len;
            known_len = base_len;
            // A candidate with zero *immediate* saving may still be half of
            // a jointly-improving set (two balanced chains must both be
            // packed before the schedule drops). Commit it anyway when the
            // best sampled walk proves a shorter schedule is reachable;
            // gains are re-measured leave-one-out after the last round.
            let allow_zero = out.best_tet < base_len;
            let mut committed = false;
            for (cand, saved, with_len) in out.ranked {
                if saved == 0 && !allow_zero {
                    continue;
                }
                let orig_nodes: NodeSet = {
                    let mut s = NodeSet::new(g0.len());
                    for n in &cand.members {
                        match current.node(n).payload().kind {
                            ExKind::Op(o) => {
                                s.insert(o);
                            }
                            ExKind::FrozenIse(_) => {
                                unreachable!("frozen ISEs have no hardware options")
                            }
                        }
                    }
                    s
                };
                let d0 = ports::demand(&g0, &orig_nodes);
                if !d0.fits(self.constraints.n_in, self.constraints.n_out) {
                    continue;
                }
                let choices = cand
                    .choices
                    .iter()
                    .map(|(n, j)| match current.node(*n).payload().kind {
                        ExKind::Op(o) => (o, *j),
                        ExKind::FrozenIse(_) => unreachable!(),
                    })
                    .collect();
                let candidate = IseCandidate {
                    nodes: orig_nodes,
                    choices,
                    delay_ns: cand.delay_ns,
                    latency: cand.latency,
                    area_um2: cand.area,
                    inputs: d0.inputs,
                    outputs: d0.outputs,
                    saved_cycles: saved,
                };
                current =
                    exgraph::freeze(&current, &cand.members, cand.footprint(), commits.len()).dfg;
                commits.push(candidate);
                // Ranking already scheduled exactly this frozen graph.
                known_len = with_len;
                committed = true;
                break;
            }
            if !committed {
                quiescent = true;
                break;
            }
        }
        // Falling out of the loop still mid-commit on an explicit round
        // budget is the deterministic cut; hitting the hard safety cap
        // without a budget keeps its historical (non-degraded) meaning.
        if !quiescent && self.params.max_rounds != 0 {
            degraded = true;
        }

        debug_assert_eq!(known_len, exgraph::schedule_len(&current, &self.machine));
        // Leave-one-out gain attribution: a candidate's value is how much
        // the schedule degrades without it (jointly-necessary candidates
        // each carry the joint gain, which is what selection should see).
        // With the shared lowering this is k+1 quotient collapses of one
        // `SoaGraph`; a frozen candidate collapses to
        // `SchedOp::new(latency, inputs, outputs, Asfu)`.
        let groups: Vec<(NodeSet, SchedOp)> = commits
            .iter()
            .map(|c| {
                let fp = SchedOp::new(c.latency, c.inputs, c.outputs, UnitClass::Asfu);
                (c.nodes.clone(), fp)
            })
            .collect();
        let mut loo = CollapseScratch::default();
        let all_len = collapsed_len(&base0, &groups, &self.machine, &mut loo);
        for (i, c) in commits.iter_mut().enumerate() {
            let mut without = groups.clone();
            without.remove(i);
            let without_len = collapsed_len(&base0, &without, &self.machine, &mut loo);
            c.saved_cycles = without_len.saturating_sub(all_len);
        }
        Exploration {
            candidates: commits,
            baseline_cycles: baseline,
            cycles_with_ises: known_len,
            rounds,
            iterations,
            degraded,
        }
    }

    /// One exploration round: ACO to convergence, extraction, evaluation.
    ///
    /// A [`RoundEval`] lowers the graph once, shares that lowering with the
    /// SP function, the merit analysis and candidate ranking; `known_len`
    /// (the schedule length carried from the previous round's commit) is
    /// the round's base length.
    fn round<R: Rng + ?Sized>(
        &self,
        g: &ExGraph,
        rng: &mut R,
        iterations: &mut usize,
        round_no: usize,
        mut trace: Option<&mut Vec<TraceEntry>>,
        known_len: u32,
    ) -> RoundOutcome {
        let _round_span = isex_trace::span_with("aco.round", || {
            vec![
                ("round", round_no.to_string()),
                ("nodes", g.len().to_string()),
            ]
        });
        let reach = Reachability::compute(g);
        let shape: Vec<(usize, usize)> = g
            .iter()
            .map(|(_, n)| (n.payload().sw_delays.len(), n.payload().hw.len()))
            .collect();
        let mut store = PheromoneStore::new(&shape, &self.params);
        let mut eval = RoundEval::new(g, &self.machine, known_len);
        let csr = CsrAdjacency::from_dfg(g);
        let ant = Ant::with_sp_on(
            g,
            &self.machine,
            &self.constraints,
            self.params.lambda,
            self.sp_function,
            &eval.base,
            &csr,
        );
        let mut ant_scratch = AntScratch::default();
        let mut tstate = TrailState::default();

        // The ACO is the search engine; the answer is the best *sampled*
        // walk (smallest TET, then smallest ASFU area). Waiting for formal
        // `P_END` convergence is unnecessary — and on noisy schedules the
        // trail dynamics of Fig. 4.3.5 may hover without converging.
        // Every walk is written into `walk`; an improvement swaps it with
        // `best`, whose old contents the next walk overwrites.
        let mut walk = Walk::default();
        let mut best = Walk::default();
        let mut best_area: Option<f64> = None;
        for it in 0..self.params.max_iterations {
            {
                let _s = isex_trace::span("aco.construct");
                ant.run_into(&store, rng, &mut ant_scratch, &mut walk);
            }
            *iterations += 1;
            if let Some(trace) = trace.as_deref_mut() {
                trace.push(TraceEntry {
                    round: round_no,
                    iteration: it + 1,
                    tet: walk.tet,
                    best_tet: match best_area {
                        Some(_) => best.tet.min(walk.tet),
                        None => walk.tet,
                    },
                });
            }
            {
                let _s = isex_trace::span("aco.pheromone_update");
                trail::update(&mut store, &walk, &mut tstate, &self.params);
            }
            {
                let _s = isex_trace::span("aco.merit");
                eval.update_merits(
                    g,
                    &walk,
                    &self.constraints,
                    &self.params,
                    &reach,
                    &ant.masks,
                    &mut store,
                );
            }
            let area = walk_area(g, &walk);
            let better = match best_area {
                None => true,
                Some(barea) => walk.tet < best.tet || (walk.tet == best.tet && area < barea),
            };
            if better {
                std::mem::swap(&mut walk, &mut best);
                best_area = Some(area);
            }
            if store.converged(self.params.p_end) {
                break;
            }
        }
        let best_tet = best_area.map(|_| best.tet);

        let taken: Vec<ImplChoice> = match best_area {
            Some(_) => best.choice,
            None => (0..g.len()).map(|n| store.best_option(n).0).collect(),
        };
        if debug_enabled() {
            let hw_taken = taken.iter().filter(|c| c.is_hardware()).count();
            let converged = store.converged(self.params.p_end);
            eprintln!(
                "[round] k={} hw_taken={} converged={} probs={:?}",
                g.len(),
                hw_taken,
                converged,
                (0..g.len().min(40))
                    .map(|n| (store.best_option(n).1 * 100.0).round() as i32)
                    .collect::<Vec<_>>()
            );
        }
        let _extract_span = isex_trace::span("aco.extract");
        let cands = extract_candidates(
            g,
            &eval.base,
            &ant.masks,
            &taken,
            &self.constraints,
            &self.machine,
            &reach,
        );
        let base_len = eval.base_len;
        let mut ranked: Vec<(CurCandidate, u32, u32)> = cands
            .into_iter()
            .map(|c| {
                let with_len = eval.candidate_len(&c.members, c.footprint());
                let saved = base_len.saturating_sub(with_len);
                (c, saved, with_len)
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then(a.0.area.total_cmp(&b.0.area))
                .then(b.0.members.len().cmp(&a.0.members.len()))
        });
        if debug_enabled() {
            let (mut asap, mut alap) = (Vec::new(), Vec::new());
            soa::asap_into(&eval.base, &mut asap);
            let dep_len = soa::length_from_asap(&eval.base, &asap);
            soa::alap_into(&eval.base, dep_len, &mut alap);
            let on_crit = |n: NodeId| asap[n.index()] == alap[n.index()];
            eprintln!(
                "[round] base_len={} dep_len={} best_tet={}",
                base_len,
                dep_len,
                best_tet.unwrap_or(0),
            );
            for (c, s, _) in ranked.iter().take(4) {
                eprintln!(
                    "  cand size={} lat={} saved={} members={:?} on_crit={}",
                    c.members.len(),
                    c.latency,
                    s,
                    c.members.iter().map(|n| n.index()).collect::<Vec<_>>(),
                    c.members.iter().filter(|&n| on_crit(n)).count()
                );
            }
        }
        RoundOutcome {
            ranked,
            best_tet: best_tet.unwrap_or(u32::MAX),
            base_len,
        }
    }
}

/// Outcome of one exploration round.
struct RoundOutcome {
    /// Candidates ranked best-first: `(candidate, saved cycles, schedule
    /// length with the candidate frozen)`.
    ranked: Vec<(CurCandidate, u32, u32)>,
    /// TET of the best sampled walk (`u32::MAX` if no iteration ran).
    best_tet: u32,
    /// Schedule length of the round's graph with no new ISE.
    base_len: u32,
}

/// Total ASFU silicon area implied by a walk's hardware choices.
pub(crate) fn walk_area(g: &ExGraph, walk: &Walk) -> f64 {
    g.iter()
        .map(|(id, n)| match walk.choice[id.index()] {
            ImplChoice::Hw(j) => n.payload().hw[j].area_um2,
            ImplChoice::Sw(_) => 0.0,
        })
        .sum()
}

/// Extracts legal ISE candidates from the converged option assignment:
/// connected components of taken-hardware nodes, legalised by Make-Convex
/// and port trimming, size ≥ 2. `base` is `g` in array form (the round's
/// [`SoaGraph`]) and `masks` its port rows, over which port trimming grows
/// its legal pieces.
pub(crate) fn extract_candidates(
    g: &ExGraph,
    base: &SoaGraph,
    masks: &merit::PortMasks,
    taken: &[ImplChoice],
    constraints: &Constraints,
    machine: &MachineConfig,
    reach: &Reachability,
) -> Vec<CurCandidate> {
    let mut hw = NodeSet::new(g.len());
    for n in g.node_ids() {
        if taken[n.index()].is_hardware() {
            debug_assert!(g.node(n).payload().is_explorable());
            hw.insert(n);
        }
    }
    let mut kernel = merit::GrowScratch::default();
    let mut grow_legal = |seed: NodeId, s: &NodeSet| {
        let mut grown = NodeSet::new(g.len());
        kernel.grow(base, masks, reach, constraints, seed, s, &mut grown);
        grown
    };
    let mut out = Vec::new();
    for comp in analysis::components_within(g, &hw) {
        for piece in convex::make_convex(g, &comp, reach) {
            for legal in enforce_ports(g, piece, constraints, reach, &mut grow_legal) {
                if legal.len() >= 2 {
                    out.push(materialize(g, &legal, taken, machine));
                }
            }
        }
    }
    out
}

/// Splits a convex piece into legal sub-pieces with `IN(S) ≤ N_in` and
/// `OUT(S) ≤ N_out`.
///
/// A piece that already fits is kept whole. An oversized piece is covered
/// by *greedily grown* maximal legal sub-pieces: `grow_legal(seed, s)`
/// grows one from the piece's earliest member, absorbing neighbours while
/// the union stays convex and within the port budget, smallest `IN + OUT`
/// of the union first and the lower node index on ties (internalising
/// values is what shrinks the port demand). The remainder is processed the
/// same way, so long dependence chains shatter into few large chunks
/// instead of many two-op crumbs.
pub(crate) fn enforce_ports(
    g: &ExGraph,
    piece: NodeSet,
    constraints: &Constraints,
    reach: &Reachability,
    mut grow_legal: impl FnMut(NodeId, &NodeSet) -> NodeSet,
) -> Vec<NodeSet> {
    let mut work = vec![piece];
    let mut out = Vec::new();
    while let Some(s) = work.pop() {
        if s.len() < 2 {
            continue;
        }
        let d = ports::demand(g, &s);
        if d.fits(constraints.n_in, constraints.n_out) && convex::is_convex(&s, reach) {
            out.push(s);
            continue;
        }
        let grown = match s.first() {
            Some(seed) => grow_legal(seed, &s),
            None => continue,
        };
        let mut rest = s;
        if grown.len() >= 2 {
            rest.difference_with(&grown);
            out.push(grown);
        } else {
            // Even a pair seeded here is illegal: discard the seed and
            // retry with the remainder.
            if let Some(seed) = rest.first() {
                rest.remove(seed);
            }
        }
        for comp in analysis::components_within(g, &rest) {
            work.push(comp);
        }
    }
    out
}

/// Grows a maximal legal (convex, port-feasible) sub-piece of `allowed`
/// starting from `seed`, preferring absorptions that minimise port demand.
/// The allocating reference of [`merit::GrowScratch::grow`].
#[cfg(test)]
pub(crate) fn grow_legal_from(
    g: &ExGraph,
    seed: NodeId,
    s: &NodeSet,
    constraints: &Constraints,
    reach: &Reachability,
) -> NodeSet {
    let mut grown = NodeSet::new(g.len());
    grown.insert(seed);
    loop {
        // Frontier: members of s adjacent to the grown set.
        let mut best: Option<(usize, usize, NodeId)> = None;
        for m in &grown.clone() {
            for v in g.preds(m).chain(g.succs(m)) {
                if !s.contains(v) || grown.contains(v) {
                    continue;
                }
                let mut cand = grown.clone();
                cand.insert(v);
                if !convex::is_convex(&cand, reach) {
                    continue;
                }
                let d = ports::demand(g, &cand);
                if !d.fits(constraints.n_in, constraints.n_out) {
                    continue;
                }
                let key = (d.inputs + d.outputs, v.index());
                if best.is_none_or(|(bk, bi, _)| key < (bk, bi)) {
                    best = Some((key.0, key.1, v));
                }
            }
        }
        match best {
            Some((_, _, v)) => {
                grown.insert(v);
            }
            None => break,
        }
    }
    grown
}

/// Builds the candidate record for a legal member set.
pub(crate) fn materialize(
    g: &ExGraph,
    set: &NodeSet,
    taken: &[ImplChoice],
    machine: &MachineConfig,
) -> CurCandidate {
    let choice_of = |n: NodeId| -> usize {
        match taken[n.index()] {
            ImplChoice::Hw(j) => j,
            // A node can be forced into a candidate only via taken-hardware
            // components, so this is unreachable in practice; fall back to
            // the smallest option defensively.
            ImplChoice::Sw(_) => 0,
        }
    };
    let delay_ns =
        analysis::weighted_longest_path_within(g, set, |n, op| op.hw[choice_of(n)].delay_ns);
    let area: f64 = set
        .iter()
        .map(|n| g.node(n).payload().hw[choice_of(n)].area_um2)
        .sum();
    let d = ports::demand(g, set);
    CurCandidate {
        members: set.clone(),
        choices: set.iter().map(|n| (n, choice_of(n))).collect(),
        delay_ns,
        latency: machine.cycles_for_delay_ns(delay_ns),
        area,
        inputs: d.inputs,
        outputs: d.outputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isex_dfg::Operand;
    use isex_isa::{Opcode, Operation};
    use rand::SeedableRng;

    /// A block with a long ISE-friendly chain and some parallel slack ops.
    fn block() -> ProgramDfg {
        let mut dfg = ProgramDfg::new();
        let x = dfg.live_in();
        let y = dfg.live_in();
        // critical chain: 5 dependent ALU ops
        let a = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::LiveIn(x), Operand::LiveIn(y)],
        );
        let b = dfg.add_node(
            Operation::new(Opcode::Sll),
            vec![Operand::Node(a), Operand::Const(3)],
        );
        let c = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(b), Operand::LiveIn(y)],
        );
        let d = dfg.add_node(
            Operation::new(Opcode::And),
            vec![Operand::Node(c), Operand::Const(255)],
        );
        let e = dfg.add_node(
            Operation::new(Opcode::Or),
            vec![Operand::Node(d), Operand::LiveIn(x)],
        );
        dfg.set_live_out(e, true);
        // slack: two independent ops
        let f = dfg.add_node(
            Operation::new(Opcode::Sub),
            vec![Operand::LiveIn(x), Operand::LiveIn(y)],
        );
        let gg = dfg.add_node(
            Operation::new(Opcode::Nor),
            vec![Operand::Node(f), Operand::LiveIn(y)],
        );
        dfg.set_live_out(gg, true);
        dfg
    }

    #[test]
    fn exploration_reduces_cycles_on_chain_block() {
        let dfg = block();
        let m = MachineConfig::preset_2issue_4r2w();
        let ex = MultiIssueExplorer::new(m, Constraints::from_machine(&m));
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let r = ex.explore(&dfg, &mut rng);
        assert_eq!(r.baseline_cycles, 5, "5-deep chain bounds the baseline");
        assert!(!r.candidates.is_empty(), "an ISE must be found");
        assert!(
            r.cycles_with_ises < r.baseline_cycles,
            "ISE must shorten the schedule: {} -> {}",
            r.baseline_cycles,
            r.cycles_with_ises
        );
        for c in &r.candidates {
            assert!(c.satisfies(&ex.constraints));
            assert!(c.size() >= 2);
            assert!(c.saved_cycles > 0);
        }
        assert!(r.reduction() > 0.0 && r.reduction() < 1.0);
    }

    #[test]
    fn exploration_is_deterministic_per_seed() {
        let dfg = block();
        let m = MachineConfig::preset_2issue_4r2w();
        let ex = MultiIssueExplorer::new(m, Constraints::from_machine(&m));
        let run = |seed: u64| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let r = ex.explore(&dfg, &mut rng);
            (
                r.cycles_with_ises,
                r.candidates.len(),
                r.total_area().round() as i64,
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn no_eligible_ops_means_no_candidates() {
        // Loads and stores only.
        let mut dfg = ProgramDfg::new();
        let x = dfg.live_in();
        let a = dfg.add_node(Operation::new(Opcode::Lw), vec![Operand::LiveIn(x)]);
        let b = dfg.add_node(Operation::new(Opcode::Lw), vec![Operand::Node(a)]);
        let s = dfg.add_node(
            Operation::new(Opcode::Sw),
            vec![Operand::Node(b), Operand::LiveIn(x)],
        );
        dfg.set_live_out(s, false);
        let m = MachineConfig::preset_2issue_4r2w();
        let ex = MultiIssueExplorer::new(m, Constraints::from_machine(&m));
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let r = ex.explore(&dfg, &mut rng);
        assert!(r.candidates.is_empty());
        assert_eq!(r.baseline_cycles, r.cycles_with_ises);
    }

    #[test]
    fn empty_block() {
        let dfg = ProgramDfg::new();
        let m = MachineConfig::preset_2issue_4r2w();
        let ex = MultiIssueExplorer::new(m, Constraints::from_machine(&m));
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let r = ex.explore(&dfg, &mut rng);
        assert_eq!(r.baseline_cycles, 0);
        assert!(r.candidates.is_empty());
        assert_eq!(r.reduction(), 0.0);
    }

    #[test]
    fn enforce_ports_trims_wide_cones() {
        // 4 adds feeding an or-tree, n_in = 3: whole set has 8 inputs.
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
        let o1 = dfg.add_node(
            Operation::new(Opcode::Or),
            vec![Operand::Node(adds[0]), Operand::Node(adds[1])],
        );
        let o2 = dfg.add_node(
            Operation::new(Opcode::Or),
            vec![Operand::Node(adds[2]), Operand::Node(adds[3])],
        );
        let top = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(o1), Operand::Node(o2)],
        );
        dfg.set_live_out(top, true);
        let g = exgraph::build(&dfg);
        let reach = Reachability::compute(&g);
        let cons = Constraints::new(3, 2);
        let all = NodeSet::full(g.len());
        let base = exgraph::to_soa(&g);
        let masks = merit::PortMasks::new(&g);
        let mut kernel = merit::GrowScratch::default();
        let pieces = enforce_ports(&g, all, &cons, &reach, |seed, s| {
            let mut grown = NodeSet::new(g.len());
            kernel.grow(&base, &masks, &reach, &cons, seed, s, &mut grown);
            assert_eq!(grown, grow_legal_from(&g, seed, s, &cons, &reach));
            grown
        });
        assert!(!pieces.is_empty());
        for p in &pieces {
            let d = ports::demand(&g, p);
            assert!(
                d.fits(3, 2),
                "piece {:?} has {}in/{}out",
                p,
                d.inputs,
                d.outputs
            );
            assert!(convex::is_convex(p, &reach));
            assert!(p.len() >= 2);
        }
    }
}
