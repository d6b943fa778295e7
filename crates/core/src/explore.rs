//! The exploration driver both explorers run, the multi-issue strategy
//! and the public [`MultiIssueExplorer`] API.
//!
//! "The proposed algorithm explores ISE iteratively until no ISEs in a DFG
//! can be found. The algorithm would be performed for several rounds …
//! except for the last round, each round would produce at least one ISE"
//! (§4.3). A round is the ACO loop of Fig. 4.3.1 (steps 2–9) run to
//! convergence; after convergence the taken hardware options induce the
//! ISE candidate(s), Make-Convex legalises them, and the best one is
//! committed by collapsing it into the graph before the next round.
//!
//! One driver owns all of that for both explorers: the round loop (stop
//! flag, round budget, explorable check, commit in original coordinates,
//! freeze), the ACO iteration loop (pheromone store, trail update,
//! best-walk extraction, convergence, `aco.*` spans and [`TraceEntry`]
//! recording) and candidate extraction. An explorer's `Strategy` supplies
//! only what differs: how a walk is built, the merit update, and how
//! candidates are ranked and credited. MI's strategy is here; SI's is in
//! [`crate::baseline`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use isex_aco::{AcoParams, ImplChoice, PheromoneStore};
use isex_dfg::{analysis, convex, ports, NodeId, NodeSet, Reachability};
use isex_isa::{MachineConfig, ProgramDfg};
use isex_sched::soa::SoaGraph;
use isex_sched::{
    collapsed_len, schedule_soa, CollapseScratch, ListScratch, Priority, SchedOp, UnitClass,
};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use crate::ant::{Ant, AntScratch, Walk};
use crate::baseline::{self, Picker, SingleIssueExplorer};
use crate::candidate::{Constraints, IseCandidate};
use crate::evalcache::RoundEval;
use crate::exgraph::{self, ExGraph, ExKind};
use crate::merit;
use crate::rows::{self, RoundRows, Row};
use crate::trail::{self, TrailState};

/// Hard cap on exploration rounds per basic block, for both explorers
/// (each committed ISE shrinks the graph, so real runs stop far earlier).
const MAX_ROUNDS: usize = 32;

/// One sampled point of an exploration trace: the walk TET observed at a
/// given round/iteration (see [`MultiIssueExplorer::explore_with_trace`]).
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
///
/// # Limits
///
/// A round keeps its node sets as fixed-width bit rows of at most 64
/// words, so it explores blocks of at most 4,096 operations and 4,096
/// live-in values. A wider block is refused when its first round starts:
/// [`MultiIssueExplorer::explore`] (and [`SingleIssueExplorer::explore`],
/// which shares the round) panics with a message that names the limit.
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
        Self::with_params(machine, constraints, AcoParams::default())
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
        drive(Strategy::Mi(self), dfg, &mut DynRng(rng), None)
    }

    /// [`MultiIssueExplorer::explore`], recording the TET of every ant walk
    /// into `trace` when one is given — the raw material for convergence
    /// plots; the exploration is the same either way.
    pub fn explore_with_trace<R: Rng + ?Sized>(
        &self,
        dfg: &ProgramDfg,
        rng: &mut R,
        trace: Option<&mut Vec<TraceEntry>>,
    ) -> Exploration {
        drive(Strategy::Mi(self), dfg, &mut DynRng(rng), trace)
    }
}

/// A caller's generator behind `dyn RngCore`, so that the driver and its
/// per-width rounds are compiled once, in this crate, whatever generator
/// type the caller has. Every draw goes through `next_u64`, so the stream
/// is the caller's own.
pub(crate) struct DynRng<'a, R: ?Sized>(pub &'a mut R);

impl<R: RngCore + ?Sized> RngCore for DynRng<'_, R> {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A ranked candidate: `(candidate, credited saving in cycles, schedule
/// length of the round's graph with it frozen)`.
pub(crate) type Ranked = (CurCandidate, u32, u32);

/// The explorer a driver run follows. Everything the explorers share is
/// [`drive`]'s; a strategy supplies only what differs — how a walk is
/// built, the merit update, and how candidates are ranked and credited.
/// Dispatch is a `match` over two statically known arms, not a trait
/// object.
#[derive(Clone, Copy)]
pub(crate) enum Strategy<'a> {
    /// The multi-issue explorer: Ready-Matrix ant walks scheduled as they
    /// are built, the four-case merit of Fig. 4.3.7, candidates ranked by
    /// measured schedule saving and credited leave-one-out.
    Mi(&'a MultiIssueExplorer),
    /// The single-issue baseline ([`crate::baseline`]): schedule-blind
    /// walks, the legality-only merit, serial-saving rank and credit.
    Si(&'a SingleIssueExplorer),
}

/// An explorer's machine, constraints, ACO parameters and stop flag.
type Settings<'a> = (
    &'a MachineConfig,
    &'a Constraints,
    &'a AcoParams,
    Option<&'a AtomicBool>,
);

/// One round's walk builder.
enum Walker<'r, const W: usize> {
    /// The ant and its reused buffers (boxed: they dwarf SI's picker).
    Mi(Ant<'r, W>, Box<AntScratch<W>>),
    Si(Picker<'r, W>),
}

impl<'a> Strategy<'a> {
    fn settings(self) -> Settings<'a> {
        match self {
            Strategy::Mi(e) => (&e.machine, &e.constraints, &e.params, e.stop.as_deref()),
            Strategy::Si(e) => (&e.machine, &e.constraints, &e.params, e.stop.as_deref()),
        }
    }

    /// Sets up a round's walk builder over `g`; `base` is `g` lowered and
    /// `rows` its rows.
    fn walker<'r, const W: usize>(
        self,
        g: &'r ExGraph,
        base: &'r SoaGraph,
        rows: &'r RoundRows<W>,
    ) -> Walker<'r, W>
    where
        'a: 'r,
    {
        match self {
            Strategy::Mi(e) => {
                let (lambda, sp) = (e.params.lambda, e.sp_function);
                let ant = Ant::new(g, &e.machine, &e.constraints, lambda, sp, base, rows);
                Walker::Mi(ant, Box::default())
            }
            Strategy::Si(e) => Walker::Si(Picker::new(e, g, rows)),
        }
    }

    /// Ranks the round's extracted candidates best-first; `best_tet` is the
    /// TET of the round's best sampled walk. The driver commits the first
    /// whose ports still fit in original coordinates, and stops exploring
    /// when none does.
    fn rank<const W: usize>(
        self,
        cands: Vec<CurCandidate>,
        eval: &mut RoundEval<'_, W>,
        best_tet: u32,
    ) -> Vec<Ranked> {
        let Strategy::Mi(_) = self else {
            return baseline::rank_serial(cands, eval);
        };
        // Each candidate is frozen into the round's graph and
        // list-scheduled; its saving is the drop in schedule length. A
        // candidate with zero *immediate* saving may still be half of a
        // jointly-improving set (two balanced chains must both be packed
        // before the schedule drops): keep it when the best sampled walk
        // proves a shorter schedule is reachable; gains are re-credited
        // leave-one-out after the last round.
        let base_len = eval.base_len;
        let allow_zero = best_tet < base_len;
        let mut ranked: Vec<Ranked> = cands
            .into_iter()
            .map(|c| {
                let with_len = eval.candidate_len(&c.members, c.footprint());
                (c, base_len.saturating_sub(with_len), with_len)
            })
            .filter(|&(_, saved, _)| saved > 0 || allow_zero)
            .collect();
        // Ties go to the smaller area, then the larger candidate.
        ranked.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then(a.0.area.total_cmp(&b.0.area))
                .then(b.0.members.len().cmp(&a.0.members.len()))
        });
        ranked
    }

    /// Re-credits the committed candidates after the last round; `base0` is
    /// the original graph lowered. SI keeps its serial credit.
    fn credit(self, base0: &SoaGraph, commits: &mut [IseCandidate]) {
        let Strategy::Mi(e) = self else {
            return;
        };
        // Leave-one-out: a candidate's value is how much the schedule
        // degrades without it (jointly-necessary candidates each carry the
        // joint gain, which is what selection should see). With the shared
        // lowering this is k+1 quotient collapses of one `SoaGraph`; a
        // frozen candidate collapses to `SchedOp::new(latency, inputs,
        // outputs, Asfu)`.
        let groups: Vec<(NodeSet, SchedOp)> = commits
            .iter()
            .map(|c| {
                let fp = SchedOp::new(c.latency, c.inputs, c.outputs, UnitClass::Asfu);
                (c.nodes.clone(), fp)
            })
            .collect();
        let mut loo = CollapseScratch::default();
        let all_len = collapsed_len(base0, &groups, &e.machine, &mut loo);
        for (i, c) in commits.iter_mut().enumerate() {
            let mut without = groups.clone();
            without.remove(i);
            let without_len = collapsed_len(base0, &without, &e.machine, &mut loo);
            c.saved_cycles = without_len.saturating_sub(all_len);
        }
    }
}

impl<const W: usize> Walker<'_, W> {
    /// Overwrites `walk` with one walk drawn from `store` (steps 3–7 of
    /// Fig. 4.3.1).
    fn build<R: Rng + ?Sized>(
        &mut self,
        eval: &mut RoundEval<'_, W>,
        store: &PheromoneStore,
        rng: &mut R,
        walk: &mut Walk<W>,
    ) {
        match self {
            Walker::Mi(ant, scratch) => ant.run_into(store, rng, scratch, walk),
            Walker::Si(picker) => picker.pick_options(store, rng, walk, &mut eval.merit),
        }
    }

    /// Applies the merit update of `walk` to `store` (step 8).
    fn update_merits(
        &self,
        eval: &mut RoundEval<'_, W>,
        walk: &Walk<W>,
        params: &AcoParams,
        store: &mut PheromoneStore,
    ) {
        match self {
            Walker::Mi(ant, _) => eval.update_merits(walk, ant.constraints, params, store),
            Walker::Si(picker) => picker.update_merits(walk, &mut eval.merit, store),
        }
    }
}

/// Explores `dfg` with `strategy`: rounds until quiescence, the round cap,
/// the [`AcoParams::max_rounds`] budget or the stop flag, one committed
/// candidate per round. Records every walk into `trace` when given.
pub(crate) fn drive(
    strategy: Strategy<'_>,
    dfg: &ProgramDfg,
    rng: &mut dyn RngCore,
    mut trace: Option<&mut Vec<TraceEntry>>,
) -> Exploration {
    let (machine, constraints, params, stop) = strategy.settings();
    let g0 = exgraph::build(dfg);
    // The original graph is lowered once and the lowering shared between
    // the baseline measurement and the final credit.
    let base0 = exgraph::to_soa(&g0);
    let baseline = schedule_soa(&base0, machine, Priority::Height, &mut ListScratch::new());
    let mut current = g0.clone();
    let mut commits: Vec<IseCandidate> = Vec::new();
    let mut iterations = 0usize;
    let mut rounds = 0usize;
    // Schedule length of `current`, carried across rounds: the baseline
    // before any commit, then the committed candidate's measured length.
    let mut known_len = baseline;

    let round_cap = match params.max_rounds {
        0 => MAX_ROUNDS,
        budget => budget.min(MAX_ROUNDS),
    };
    let mut degraded = false;
    let mut quiescent = false;
    while rounds < round_cap {
        if stop.is_some_and(|flag| flag.load(Ordering::Acquire)) {
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
        let ranked = round(
            strategy,
            &current,
            rng,
            &mut iterations,
            rounds,
            trace.as_deref_mut(),
            known_len,
        );
        let commit = ranked.into_iter().find_map(|(cand, saved, with_len)| {
            let original = |n: NodeId| match current.node(n).payload().kind {
                ExKind::Op(o) => o,
                ExKind::FrozenIse(_) => unreachable!("frozen ISEs have no hardware options"),
            };
            let mut nodes = NodeSet::new(g0.len());
            for n in &cand.members {
                nodes.insert(original(n));
            }
            let d0 = ports::demand(&g0, &nodes);
            if !d0.fits(constraints.n_in, constraints.n_out) {
                return None;
            }
            let candidate = IseCandidate {
                nodes,
                choices: cand
                    .choices
                    .iter()
                    .map(|&(n, j)| (original(n), j))
                    .collect(),
                delay_ns: cand.delay_ns,
                latency: cand.latency,
                area_um2: cand.area,
                inputs: d0.inputs,
                outputs: d0.outputs,
                saved_cycles: saved,
            };
            Some((cand, candidate, with_len))
        });
        let Some((cand, candidate, with_len)) = commit else {
            quiescent = true;
            break;
        };
        current = exgraph::freeze(&current, &cand.members, cand.footprint(), commits.len()).dfg;
        commits.push(candidate);
        // Ranking already scheduled exactly this frozen graph.
        known_len = with_len;
    }
    // Falling out of the loop still mid-commit on an explicit round
    // budget is the deterministic cut; hitting the hard safety cap
    // without a budget keeps its historical (non-degraded) meaning.
    if !quiescent && params.max_rounds != 0 {
        degraded = true;
    }

    debug_assert_eq!(known_len, exgraph::schedule_len(&current, machine));
    strategy.credit(&base0, &mut commits);
    Exploration {
        candidates: commits,
        baseline_cycles: baseline,
        cycles_with_ises: known_len,
        rounds,
        iterations,
        degraded,
    }
}

/// One exploration round: ACO to convergence, extraction, ranking.
///
/// The round's node sets are rows of `W` words, `W` chosen here from the
/// larger of the graph's node and live-in counts
/// ([`rows::width_words`]); the round body is compiled once per width.
/// `known_len` (the schedule length carried from the previous round's
/// commit) is the round's base length.
///
/// # Panics
///
/// Panics, naming the limit, if `g` is too wide for the widest row.
fn round(
    strategy: Strategy<'_>,
    g: &ExGraph,
    rng: &mut dyn RngCore,
    iterations: &mut usize,
    round_no: usize,
    trace: Option<&mut Vec<TraceEntry>>,
    known_len: u32,
) -> Vec<Ranked> {
    let args = (strategy, g, iterations, round_no, trace, known_len);
    match rows::width_words(g) {
        1 => round_in::<1>(args, rng),
        2 => round_in::<2>(args, rng),
        4 => round_in::<4>(args, rng),
        8 => round_in::<8>(args, rng),
        16 => round_in::<16>(args, rng),
        32 => round_in::<32>(args, rng),
        _ => round_in::<{ rows::MAX_WORDS }>(args, rng),
    }
}

/// The arguments [`round`] passes through to [`round_in`].
type RoundArgs<'a, 'g> = (
    Strategy<'a>,
    &'g ExGraph,
    &'g mut usize,
    usize,
    Option<&'g mut Vec<TraceEntry>>,
    u32,
);

/// [`round`] on rows of `W` words.
///
/// The round lowers the graph and builds its rows once; the walk builder,
/// the [`RoundEval`] behind the merit update and ranking, and extraction
/// all borrow them.
fn round_in<const W: usize>(
    (strategy, g, iterations, round_no, mut trace, known_len): RoundArgs<'_, '_>,
    rng: &mut dyn RngCore,
) -> Vec<Ranked> {
    let (machine, constraints, params, _) = strategy.settings();
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
    let mut store = PheromoneStore::new(&shape, params);
    let base = {
        let _span = isex_trace::span_with("eval.lower", || vec![("ops", g.len().to_string())]);
        exgraph::to_soa(g)
    };
    let rows = RoundRows::<W>::new(g, &reach);
    debug_assert_eq!(
        known_len,
        exgraph::schedule_len(g, machine),
        "carried base length must match a fresh schedule"
    );
    let mut eval = RoundEval::new(g, &base, &rows, machine, known_len);
    let mut walker = strategy.walker(g, &base, &rows);
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
    for it in 0..params.max_iterations {
        {
            let _s = isex_trace::span("aco.construct");
            walker.build(&mut eval, &store, rng, &mut walk);
        }
        *iterations += 1;
        if let Some(trace) = trace.as_deref_mut() {
            trace.push(TraceEntry {
                round: round_no,
                iteration: it + 1,
                tet: walk.tet,
                best_tet: best_area.map_or(walk.tet, |_| best.tet.min(walk.tet)),
            });
        }
        {
            let _s = isex_trace::span("aco.pheromone_update");
            trail::update(&mut store, &walk, &mut tstate, params);
        }
        {
            let _s = isex_trace::span("aco.merit");
            walker.update_merits(&mut eval, &walk, params, &mut store);
        }
        // Only the first walk and a walk that ties or beats the best TET
        // read the walk's area, so only they sum it.
        let better_area = match best_area {
            Some(_) if walk.tet > best.tet => None,
            Some(barea) if walk.tet == best.tet => {
                Some(walk_area(g, &walk)).filter(|&area| area < barea)
            }
            _ => Some(walk_area(g, &walk)),
        };
        if let Some(area) = better_area {
            std::mem::swap(&mut walk, &mut best);
            best_area = Some(area);
        }
        if store.converged(params.p_end) {
            break;
        }
    }
    let best_tet = best_area.map_or(u32::MAX, |_| best.tet);

    let taken: Vec<ImplChoice> = match best_area {
        Some(_) => best.choice,
        None => (0..g.len()).map(|n| store.best_option(n).0).collect(),
    };
    let _extract_span = isex_trace::span("aco.extract");
    let cands = extract_candidates(g, &rows, &taken, constraints, machine, &reach);
    strategy.rank(cands, &mut eval, best_tet)
}

/// Total ASFU silicon area implied by a walk's hardware choices.
fn walk_area<const W: usize>(g: &ExGraph, walk: &Walk<W>) -> f64 {
    g.iter()
        .map(|(id, n)| match walk.choice[id.index()] {
            ImplChoice::Hw(j) => n.payload().hw[j].area_um2,
            ImplChoice::Sw(_) => 0.0,
        })
        .sum()
}

/// Extracts legal ISE candidates from the converged option assignment:
/// connected components of taken-hardware nodes, legalised by Make-Convex
/// and port trimming, size ≥ 2. `rows` are `g`'s rows, over which port
/// trimming grows its legal pieces ([`merit::grow_legal`]).
fn extract_candidates<const W: usize>(
    g: &ExGraph,
    rows: &RoundRows<W>,
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
    let grow_legal = |seed: NodeId, s: &NodeSet| {
        merit::grow_legal(rows, constraints, seed.index(), Row::from_node_set(s))
            .to_node_set(g.len())
    };
    let mut out = Vec::new();
    for comp in analysis::components_within(g, &hw) {
        for piece in convex::make_convex(g, &comp, reach) {
            for legal in enforce_ports(g, piece, constraints, reach, grow_legal) {
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
/// The allocating reference of [`merit::grow_legal`].
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
fn materialize(
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

    /// Two operations reading live-in values `0`, `1` and `last`, of
    /// `last + 1` live-ins in all.
    fn block_with_live_ins(last: usize) -> ProgramDfg {
        let mut dfg = ProgramDfg::new();
        let li: Vec<_> = (0..=last).map(|_| dfg.live_in()).collect();
        let a = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::LiveIn(li[0]), Operand::LiveIn(li[1])],
        );
        let b = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(a), Operand::LiveIn(li[last])],
        );
        dfg.set_live_out(b, true);
        dfg
    }

    /// The widest row holds 4,096 bits: a block with 4,096 live-in values
    /// is explored on 64-word rows.
    #[test]
    fn the_widest_row_holds_4096_live_ins() {
        let m = MachineConfig::preset_2issue_4r2w();
        let ex = MultiIssueExplorer::new(m, Constraints::from_machine(&m));
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let r = ex.explore(&block_with_live_ins(4095), &mut rng);
        assert!(r.rounds >= 1 && r.iterations >= 1);
    }

    /// A block wider than the widest row is refused when its first round
    /// starts, with a message that names the limit.
    #[test]
    #[should_panic(
        expected = "block too wide to explore: 2 nodes and 4097 live-in values, \
                               but a round's bit rows hold at most 4096"
    )]
    fn blocks_wider_than_the_widest_row_are_refused() {
        let m = MachineConfig::preset_2issue_4r2w();
        let ex = MultiIssueExplorer::new(m, Constraints::from_machine(&m));
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        ex.explore(&block_with_live_ins(4096), &mut rng);
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
        let rows = RoundRows::<1>::new(&g, &reach);
        let pieces = enforce_ports(&g, all, &cons, &reach, |seed, s| {
            let grown = merit::grow_legal(&rows, &cons, seed.index(), Row::from_node_set(s));
            let grown = grown.to_node_set(g.len());
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
