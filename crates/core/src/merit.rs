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
//!
//! Every set here is a fixed-width [`Row`] of the round's width `W`, and
//! every graph query reads the round's [`RoundRows`].

use isex_aco::{ImplChoice, PheromoneStore};
use isex_dfg::ports::PortDemand;
#[cfg(test)]
use isex_dfg::{analysis, NodeId, NodeSet};
use isex_isa::MachineConfig;
use isex_sched::soa::WalkTiming;

use crate::ant::Walk;
use crate::candidate::Constraints;
use crate::exgraph::ExGraph;
use crate::rows::{RoundRows, Row};

/// Hardware-Grouping (Fig. 4.3.6): the virtual subgraph of `x` — `x` plus
/// every node reachable from it through neighbours that chose a hardware
/// option in this iteration. The reference of [`MeritScratch::vs`].
#[cfg(test)]
pub(crate) fn virtual_subgraph(g: &ExGraph, choice: &[ImplChoice], x: NodeId) -> NodeSet {
    let mut vs = NodeSet::new(g.len());
    vs.insert(x);
    let mut stack = vec![x];
    while let Some(u) = stack.pop() {
        for v in g.preds(u).chain(g.succs(u)) {
            if !vs.contains(v) && choice[v.index()].is_hardware() {
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
/// hardware option, `x` uses option `j`). The reference of
/// [`MeritScratch::evaluate_options`].
#[cfg(test)]
pub(crate) fn evaluate_option(
    g: &ExGraph,
    choice: &[ImplChoice],
    vs: &NodeSet,
    x: NodeId,
    j: usize,
    machine: &MachineConfig,
) -> VsEval {
    let option = |y: NodeId| match choice[y.index()] {
        _ if y == x => j,
        ImplChoice::Hw(h) => h,
        // x's own software choice never lands here (y != x), and vs
        // members besides x always chose hardware.
        ImplChoice::Sw(_) => 0,
    };
    let delay = analysis::weighted_longest_path_within(g, vs, |y, op| op.hw[option(y)].delay_ns);
    let area: f64 = vs
        .iter()
        .map(|y| g.node(y).payload().hw[option(y)].area_um2)
        .sum();
    VsEval {
        et_cycles: machine.cycles_for_delay_ns(delay),
        area,
    }
}

/// Software execution cycles of `vs` on the core: its latency-weighted
/// dependence chain (the multi-issue lower bound the ISE must beat). The
/// reference for [`Timed::set_answers`]' software cycles.
#[cfg(test)]
pub(crate) fn software_cycles(g: &ExGraph, vs: &NodeSet) -> u32 {
    analysis::weighted_longest_path_within(g, vs, |_, op| op.sw_delays[0] as f64).round() as u32
}

/// The merit update of one iteration (step 8 of Fig. 4.3.1): scales each
/// option's merit in `store`, then normalises. The walk's sets come from
/// `m`, prepared here, and its timing from `timed`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn update_merits<const W: usize>(
    g: &ExGraph,
    walk: &Walk<W>,
    rows: &RoundRows<W>,
    constraints: &Constraints,
    machine: &MachineConfig,
    params: &isex_aco::AcoParams,
    timed: &Timed<'_, W>,
    m: &mut MeritScratch<W>,
    store: &mut PheromoneStore,
) {
    m.prepare(g, rows, &walk.choice);
    for (xi, node) in g.iter().map(|(id, node)| (id.index(), node)) {
        let op = node.payload();
        // Software merit: merit ×= ET(x, SW-i) (Eq. 3 of §4.3's merit part).
        for (i, d) in op.sw_delays.iter().enumerate() {
            store.scale_merit(xi, ImplChoice::Sw(i), *d as f64);
        }
        if op.hw.is_empty() {
            continue;
        }

        // Case 1: critical-path boost.
        if timed.critical.contains(xi) {
            for j in 0..op.hw.len() {
                store.scale_merit(xi, ImplChoice::Hw(j), 1.0 / params.beta_cp);
            }
        }

        let vs = m.vs(rows, xi);

        // Case 2: nothing to fuse with.
        if vs.members.len() == 1 {
            for j in 0..op.hw.len() {
                store.scale_merit(xi, ImplChoice::Hw(j), params.beta_size);
            }
            continue;
        }

        // Case 3: constraint violations. The β penalties discourage
        // growing the blob further, but the operation may still anchor a
        // smaller legal ISE, so case 4 is evaluated on the maximal legal
        // sub-blob around `x` — otherwise on dense blocks every hardware
        // merit collapses and the search starves (the paper's penalties
        // assume the violating state is transient). A hardware-chosen `x`'s
        // `vS_x` is its component, scored once per walk.
        let answers = m.answers(rows, xi, &vs, constraints, timed);
        let io_ok = answers.demand.fits(constraints.n_in, constraints.n_out);
        let (set, scored) = match answers.scored {
            Some(scored) => (vs.members, scored),
            None => {
                for j in 0..op.hw.len() {
                    if !io_ok {
                        store.scale_merit(xi, ImplChoice::Hw(j), params.beta_io);
                    }
                    if !answers.convex {
                        store.scale_merit(xi, ImplChoice::Hw(j), params.beta_convex);
                    }
                }
                let legal = grow_legal(rows, constraints, xi, vs.members);
                if legal.len() < 2 {
                    continue;
                }
                (legal, timed.set_answers(m, rows, legal))
            }
        };

        // Case 4: performance and area scoring.
        let evals = m.evaluate_options(g, rows, set, xi, machine);
        let et_max_reduction = evals.iter().map(|e| e.et_cycles).min().unwrap_or(1);
        let area_max = evals.iter().map(|e| e.area).fold(0.0f64, f64::max).max(1.0);
        for (j, ev) in evals.iter().enumerate() {
            let saving = scored.sw_cycles as i64 - ev.et_cycles as i64;
            // Criterion (1): positive savings scale merit up proportionally;
            // a useless option decays instead.
            let perf = if saving > 0 { saving as f64 } else { 0.5 };
            store.scale_merit(xi, ImplChoice::Hw(j), perf);
            // Criteria (2)–(4): area-aware adjustment.
            let factor = if scored.critical {
                if ev.et_cycles == et_max_reduction {
                    area_max / ev.area.max(1.0)
                } else {
                    1.0 / (1.0 + (ev.et_cycles - et_max_reduction) as f64)
                }
            } else if ev.et_cycles <= scored.max_aec {
                area_max / ev.area.max(1.0)
            } else {
                1.0 / (1.0 + (ev.et_cycles - scored.max_aec) as f64)
            };
            store.scale_merit(xi, ImplChoice::Hw(j), factor);
        }
    }
    store.normalize_merits();
}

/// The case-4 answers that depend on the scored set alone, not on which of
/// its members is being scored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SetAnswers {
    /// Software execution cycles of the set: its latency-weighted
    /// dependence chain.
    pub sw_cycles: u32,
    /// Whether some member is on the walk's critical path.
    pub critical: bool,
    /// The `Max_AEC` slack window of the set.
    pub max_aec: u32,
}

/// What merit cases 3 and 4 read of a virtual subgraph before they look at
/// the scored node itself ([`MeritScratch::answers`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct VsAnswers {
    /// `IN/OUT` port demand.
    pub demand: PortDemand,
    /// Convexity.
    pub convex: bool,
    /// The set answers when the set is legal. `None` otherwise: each
    /// member then scores its own legal sub-blob.
    pub scored: Option<SetAnswers>,
}

/// A set of nodes with the unions its port demand and convexity read: a
/// hardware component of a walk, or a virtual subgraph built from them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Summary<const W: usize> {
    /// The nodes.
    pub members: Row<W>,
    /// Unions of the members' producer, live-in, descendant and ancestor
    /// rows.
    prod: Row<W>,
    live_ins: Row<W>,
    desc: Row<W>,
    anc: Row<W>,
    /// The members that are outputs: live out, or with a consumer outside
    /// the set.
    esc: Row<W>,
    /// The members that are not live out and have exactly one consumer
    /// outside the set (kept for components; see [`MeritScratch::vs`]).
    single: Row<W>,
}

impl<const W: usize> Summary<W> {
    /// The summary of `members`.
    fn of(rows: &RoundRows<W>, members: Row<W>) -> Self {
        let mut s = Summary {
            members,
            ..Summary::default()
        };
        for y in members.ones() {
            s.prod |= rows.prod(y);
            s.live_ins |= rows.live_ins(y);
            s.desc |= rows.desc(y);
            s.anc |= rows.anc(y);
            let outside = rows.cons(y).and_not(members).len();
            let live_out = rows.is_live_out(y);
            s.esc.set(y, live_out || outside > 0);
            s.single.set(y, !live_out && outside == 1);
        }
        s
    }

    /// Adds the members and unions of `other`, a disjoint set.
    fn join(&mut self, other: &Self) {
        self.members |= other.members;
        self.prod |= other.prod;
        self.live_ins |= other.live_ins;
        self.desc |= other.desc;
        self.anc |= other.anc;
        self.esc |= other.esc;
        self.single |= other.single;
    }

    /// `IN/OUT` of the set, equal to [`isex_dfg::ports::demand`].
    pub(crate) fn demand(&self) -> PortDemand {
        PortDemand {
            inputs: self.prod.and_not(self.members).len() + self.live_ins.len(),
            outputs: self.esc.len(),
        }
    }

    /// Convexity, equal to [`isex_dfg::convex::is_convex`]: no node
    /// outside the set is both a descendant and an ancestor of members.
    pub(crate) fn convex(&self) -> bool {
        (self.desc & self.anc).and_not(self.members).is_empty()
    }
}

/// The walk's timing as the case-4 answers read it: `alap` holds slots at
/// deadline `len`, and the walk's deadline shifts every slot uniformly,
/// folded in as `extra`.
pub(crate) struct Timed<'s, const W: usize> {
    pub timing: &'s WalkTiming,
    /// `walk deadline − len`, the uniform ALAP shift.
    pub extra: u32,
    /// The walk's critical nodes (ASAP = ALAP).
    pub critical: &'s Row<W>,
}

impl<const W: usize> Timed<'_, W> {
    /// The case-4 answers of `set` that do not depend on the scored node.
    /// `Max_AEC` is read from the walk's timing through each member's unit.
    pub(crate) fn set_answers(
        &self,
        m: &mut MeritScratch<W>,
        rows: &RoundRows<W>,
        set: Row<W>,
    ) -> SetAnswers {
        let sw = &m.sw_delay;
        let (sw_delay, _) = longest_within(&mut m.finish, rows, set, |y| (sw[y], 0.0));
        let t = self.timing;
        let (mut earliest, mut latest) = (u32::MAX, 0u32);
        for y in set.ones() {
            let u = t.unit[y] as usize;
            earliest = earliest.min(t.asap[u]);
            latest = latest.max(t.alap[u] + self.extra + t.lat[u]);
        }
        SetAnswers {
            sw_cycles: sw_delay.round() as u32,
            critical: set.intersects(self.critical),
            max_aec: latest.saturating_sub(earliest),
        }
    }
}

/// The longest delay-weighted path through `set` (in-set edges only) and
/// the members' summed area, under per-member `(delay, area)` costs.
///
/// Members are visited in ascending index order. Every producer of a member
/// has a smaller index (the topological-order invariant of
/// [`isex_dfg::Dfg`]), so its `finish` entry was written earlier in the
/// same call and stale entries are never read. The sums run in that same
/// order as `analysis::weighted_longest_path_within` and the references'
/// area sums, and `max` is exact, so the values agree bit for bit.
fn longest_within<const W: usize>(
    finish: &mut [f64],
    rows: &RoundRows<W>,
    set: Row<W>,
    cost: impl Fn(usize) -> (f64, f64),
) -> (f64, f64) {
    let mut best = 0.0f64;
    let mut area = 0.0f64;
    for y in set.ones() {
        let (d, a) = cost(y);
        let mut start = 0.0f64;
        for p in (rows.prod(y) & set).ones() {
            start = start.max(finish[p]);
        }
        let f = start + d;
        finish[y] = f;
        best = best.max(f);
        area += a;
    }
    (best, area)
}

/// Per-round scratch of the merit kernels, rebuilt per walk by
/// [`MeritScratch::prepare`]: the walk's hardware-choice connected
/// components with their [`Summary`] and, once some member has asked,
/// their case-4 answers; each node's chosen hardware delay and area; the
/// longest-path finish buffer and the per-option evaluations. Steady
/// state allocates nothing.
pub(crate) struct MeritScratch<const W: usize> {
    /// Software delay (option 0) per node, fixed for the round.
    sw_delay: Vec<f64>,
    /// The walk's hardware-chosen nodes.
    hw: Row<W>,
    /// Component id per node for the current walk; `u32::MAX` when the node
    /// did not choose hardware.
    comp_id: Vec<u32>,
    comps: Vec<Summary<W>>,
    /// Per component of the current walk, its case-4 answers once some
    /// member has asked ([`MeritScratch::answers`]).
    scored: Vec<Option<SetAnswers>>,
    /// Component answers served from `scored` (checked by the oracle test).
    #[cfg(test)]
    pub(crate) reused: usize,
    /// Per node, `(delay, area)` of its chosen hardware option (option 0
    /// when it chose software).
    chosen: Vec<(f64, f64)>,
    /// Longest-path finish times ([`longest_within`]).
    finish: Vec<f64>,
    evals: Vec<VsEval>,
}

impl<const W: usize> MeritScratch<W> {
    /// Scratch for the rounds over `g`.
    pub(crate) fn new(g: &ExGraph) -> Self {
        let k = g.len();
        MeritScratch {
            sw_delay: g
                .iter()
                .map(|(_, n)| n.payload().sw_delays[0] as f64)
                .collect(),
            hw: Row::default(),
            comp_id: vec![u32::MAX; k],
            comps: Vec::new(),
            scored: Vec::new(),
            #[cfg(test)]
            reused: 0,
            chosen: vec![(0.0, 0.0); k],
            finish: vec![0.0; k],
            evals: Vec::new(),
        }
    }

    /// Recomputes the walk-dependent state for the option assignment
    /// `choice`: the connected components of the hardware-chosen nodes
    /// (connectivity through hardware nodes only, edges taken as
    /// undirected) with their summaries, answers cleared, and each node's
    /// chosen hardware cost.
    pub(crate) fn prepare(&mut self, g: &ExGraph, rows: &RoundRows<W>, choice: &[ImplChoice]) {
        self.hw = Row::default();
        for (i, (c, (_, node))) in choice.iter().zip(g.iter()).enumerate() {
            let hw = &node.payload().hw;
            self.chosen[i] = match *c {
                ImplChoice::Hw(h) => {
                    self.hw.insert(i);
                    (hw[h].delay_ns, hw[h].area_um2)
                }
                ImplChoice::Sw(_) => hw.first().map_or((0.0, 0.0), |o| (o.delay_ns, o.area_um2)),
            };
        }
        self.comp_id.fill(u32::MAX);
        self.comps.clear();
        for v in self.hw.ones() {
            if self.comp_id[v] != u32::MAX {
                continue;
            }
            // Flood from `v` through hardware neighbours, a layer at a time.
            let mut members = Row::single(v);
            let mut layer = members;
            while !layer.is_empty() {
                let mut next = Row::default();
                for u in layer.ones() {
                    next |= rows.prod(u) | rows.cons(u);
                }
                layer = (next & self.hw).and_not(members);
                members |= layer;
            }
            let id = self.comps.len() as u32;
            for u in members.ones() {
                self.comp_id[u] = id;
            }
            self.comps.push(Summary::of(rows, members));
        }
        self.scored.clear();
        self.scored.resize(self.comps.len(), None);
    }

    /// The virtual subgraph of `x` (Fig. 4.3.6) with its unions: a
    /// hardware-chosen `x`'s component, or `x` joined to the components of
    /// its hardware neighbours.
    ///
    /// A software `x`'s set needs no member scan. A member's consumers
    /// outside its own component are all software, and `x` is the only
    /// software node of the set, so a member escapes the set unless it
    /// is not live out and `x` is its one outside consumer: the set's
    /// outputs are the components' `esc ∖ (single ∩ prod x)`, plus `x`
    /// when it is live out or feeds a node outside the set.
    pub(crate) fn vs(&self, rows: &RoundRows<W>, x: usize) -> Summary<W> {
        if let Some(c) = self.comps.get(self.comp_id[x] as usize) {
            return *c;
        }
        let mut s = Summary {
            members: Row::single(x),
            prod: rows.prod(x),
            live_ins: rows.live_ins(x),
            desc: rows.desc(x),
            anc: rows.anc(x),
            ..Summary::default()
        };
        let mut last = u32::MAX;
        for v in ((rows.prod(x) | rows.cons(x)) & self.hw).ones() {
            let c = self.comp_id[v];
            if c != last {
                s.join(&self.comps[c as usize]);
                last = c;
            }
        }
        s.esc = s.esc.and_not(s.single & rows.prod(x));
        s.single = Row::default();
        if rows.is_live_out(x) || !rows.cons(x).and_not(s.members).is_empty() {
            s.esc.insert(x);
        }
        s
    }

    /// The port demand, convexity and, when it is legal, the case-4
    /// answers of `vs`, the virtual subgraph of `x`. A hardware-chosen
    /// `x`'s set is its component, whose answers are computed when the
    /// first member asks and served to the others for the rest of the
    /// walk.
    pub(crate) fn answers(
        &mut self,
        rows: &RoundRows<W>,
        x: usize,
        vs: &Summary<W>,
        constraints: &Constraints,
        timed: &Timed<'_, W>,
    ) -> VsAnswers {
        let demand = vs.demand();
        let convex = vs.convex();
        let legal = convex && demand.fits(constraints.n_in, constraints.n_out);
        let comp = self.comp_id[x] as usize;
        let scored = match self.scored.get(comp) {
            _ if !legal => None,
            Some(&Some(cached)) => {
                #[cfg(test)]
                {
                    self.reused += 1;
                }
                Some(cached)
            }
            Some(None) => {
                let answers = timed.set_answers(self, rows, vs.members);
                self.scored[comp] = Some(answers);
                Some(answers)
            }
            None => Some(timed.set_answers(self, rows, vs.members)),
        };
        VsAnswers {
            demand,
            convex,
            scored,
        }
    }

    /// The cycles of the walk's hardware components as ISEs: the sum over
    /// components of the cycles of their longest path under the members'
    /// chosen options.
    pub(crate) fn component_cycles(&mut self, rows: &RoundRows<W>, machine: &MachineConfig) -> u32 {
        let mut cycles = 0;
        for c in &self.comps {
            let chosen = &self.chosen;
            let (delay, _) = longest_within(&mut self.finish, rows, c.members, |y| chosen[y]);
            cycles += machine.cycles_for_delay_ns(delay);
        }
        cycles
    }

    /// `ET(vS_x,HW-j)` and area of every hardware option `j` of `x` within
    /// `set`, in option order.
    pub(crate) fn evaluate_options(
        &mut self,
        g: &ExGraph,
        rows: &RoundRows<W>,
        set: Row<W>,
        x: usize,
        machine: &MachineConfig,
    ) -> &[VsEval] {
        self.evals.clear();
        for own in &g.node(isex_dfg::NodeId::new(x as u32)).payload().hw {
            let chosen = &self.chosen;
            let (delay, area) = longest_within(&mut self.finish, rows, set, |y| {
                if y == x {
                    (own.delay_ns, own.area_um2)
                } else {
                    chosen[y]
                }
            });
            self.evals.push(VsEval {
                et_cycles: machine.cycles_for_delay_ns(delay),
                area,
            });
        }
        &self.evals
    }
}

/// Grows a maximal legal (convex, port-feasible) sub-blob of `allowed`
/// from `seed` (merit case 3, and candidate extraction's port trimming):
/// while some frontier node fits, absorb the one with the smallest
/// `(IN + OUT, index)` of the enlarged set.
///
/// The grown set is convex at every step, so convexity of `grown ∪ {v}`
/// is one row test against the kept unions `D` and `A` of its members'
/// descendants and ancestors, `(D ∪ desc v) ∧ (A ∪ anc v) ∧ ¬grown = ∅`.
/// Its inputs are `|(E ∪ prod v) ∖ (grown ∪ {v})| + |L ∪ li v|` over the
/// kept producer and live-in unions `E` and `L`. Its outputs follow from
/// two kept masks: the members that escape, and the members that are not
/// live out and have exactly one consumer outside the set. Absorbing `v`
/// stops exactly the second kind among `v`'s producers from escaping.
/// Both equal [`isex_dfg::ports::demand`] and
/// [`isex_dfg::convex::is_convex`] on the enlarged set.
pub(crate) fn grow_legal<const W: usize>(
    rows: &RoundRows<W>,
    constraints: &Constraints,
    seed: usize,
    allowed: Row<W>,
) -> Row<W> {
    let mut grown = Grown::default();
    grown.absorb(rows, allowed, seed);
    loop {
        // Ascending index order, so only a strictly smaller demand
        // displaces the incumbent: ties go to the lower index.
        let mut best: Option<(usize, usize)> = None;
        for v in grown.frontier.ones() {
            let (inputs, outputs) = grown.demand_with(rows, v);
            if inputs > constraints.n_in || outputs > constraints.n_out {
                continue;
            }
            let key = inputs + outputs;
            if best.is_some_and(|(bk, _)| bk <= key) {
                continue;
            }
            if grown.convex_with(rows, v) {
                best = Some((key, v));
            }
        }
        match best {
            Some((_, v)) => grown.absorb(rows, allowed, v),
            None => return grown.members,
        }
    }
}

/// The state of [`grow_legal`]: the grown set, its frontier and the
/// unions and masks its demand and convexity read.
#[derive(Default)]
struct Grown<const W: usize> {
    members: Row<W>,
    /// Allowed nodes adjacent to the grown set and outside it.
    frontier: Row<W>,
    /// Unions of the members' strict descendants and ancestors.
    desc: Row<W>,
    anc: Row<W>,
    /// `E` and `L`: unions of the members' producer and live-in rows.
    prod: Row<W>,
    live_ins: Row<W>,
    /// The members that are outputs of the grown set.
    esc: Row<W>,
    /// The members that are not live out and have exactly one consumer
    /// outside the grown set.
    single: Row<W>,
}

impl<const W: usize> Grown<W> {
    /// `(IN, OUT)` of `grown ∪ {v}` for a non-member `v`.
    fn demand_with(&self, rows: &RoundRows<W>, v: usize) -> (usize, usize) {
        let with = self.members | Row::single(v);
        let inputs = (self.prod | rows.prod(v)).and_not(with).len()
            + (self.live_ins | rows.live_ins(v)).len();
        // A member whose only outside consumer was `v` stops escaping; `v`
        // escapes unless it is internal to the set.
        let escapes = rows.is_live_out(v) || !rows.cons(v).and_not(with).is_empty();
        let outputs = self.esc.len() - (self.single & rows.prod(v)).len() + usize::from(escapes);
        (inputs, outputs)
    }

    /// Convexity of `grown ∪ {v}`, given that `grown` is convex. `v` needs
    /// no bit of its own in the mask: it is in neither of its own
    /// (strict) rows, and being in both `D` and `A` would put it on a path
    /// between two members of the convex grown set.
    fn convex_with(&self, rows: &RoundRows<W>, v: usize) -> bool {
        ((self.desc | rows.desc(v)) & (self.anc | rows.anc(v)))
            .and_not(self.members)
            .is_empty()
    }

    /// Adds `v` and updates the unions, the output masks of `v` and of its
    /// member producers (the only members whose outside consumers change),
    /// and the frontier.
    fn absorb(&mut self, rows: &RoundRows<W>, allowed: Row<W>, v: usize) {
        self.members.insert(v);
        self.desc |= rows.desc(v);
        self.anc |= rows.anc(v);
        self.prod |= rows.prod(v);
        self.live_ins |= rows.live_ins(v);
        for m in (rows.prod(v) & self.members).ones().chain([v]) {
            let outside = rows.cons(m).and_not(self.members).len();
            let live_out = rows.is_live_out(m);
            self.esc.set(m, live_out || outside > 0);
            self.single.set(m, !live_out && outside == 1);
        }
        self.frontier =
            (self.frontier | ((rows.prod(v) | rows.cons(v)) & allowed)).and_not(self.members);
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::ant::{Ant, SpFunction};
    use crate::evalcache::RoundEval;
    use crate::exgraph;
    use isex_aco::AcoParams;
    use isex_dfg::{Operand, Reachability};
    use isex_isa::{Opcode, Operation, ProgramDfg};
    use rand::SeedableRng;

    fn rows(g: &ExGraph) -> RoundRows<1> {
        RoundRows::new(g, &Reachability::compute(g))
    }

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

    fn software_walk(g: &ExGraph) -> Walk<1> {
        let m = MachineConfig::preset_2issue_4r2w();
        let cons = Constraints::from_machine(&m);
        software_walk_for(g, &m, &cons)
    }

    fn software_walk_for(g: &ExGraph, m: &MachineConfig, cons: &Constraints) -> Walk<1> {
        let base = exgraph::to_soa(g);
        let rows = rows(g);
        let ant = Ant::new(g, m, cons, 0.5, SpFunction::ChildCount, &base, &rows);
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

    #[test]
    fn virtual_subgraph_follows_hardware_choices() {
        let g = graph();
        let mut w = software_walk(&g);
        // Pretend b and c chose hardware.
        w.choice[1] = ImplChoice::Hw(0);
        w.choice[2] = ImplChoice::Hw(0);
        let vs = virtual_subgraph(&g, &w.choice, NodeId::new(0));
        assert_eq!(vs.len(), 3, "a + hardware-chosen b, c");
        let vs_d = virtual_subgraph(&g, &w.choice, NodeId::new(3));
        assert_eq!(vs_d.len(), 1, "d has no hardware neighbours");
    }

    #[test]
    fn evaluate_option_sums_area_and_chains_delay() {
        let g = graph();
        let mut w = software_walk(&g);
        w.choice[0] = ImplChoice::Hw(0); // add slow option: 4.04 ns, 926.33
        w.choice[1] = ImplChoice::Hw(0); // sll: 3.0 ns, 400
        let vs = virtual_subgraph(&g, &w.choice, NodeId::new(0));
        let m = MachineConfig::preset_2issue_4r2w();
        let ev = evaluate_option(&g, &w.choice, &vs, NodeId::new(0), 0, &m);
        assert_eq!(ev.et_cycles, 1, "7.04 ns fits one 10 ns cycle");
        assert!((ev.area - (926.33 + 400.0)).abs() < 1e-9);
        // Fast add option: 2.12 ns / 2075.35 µm².
        let ev1 = evaluate_option(&g, &w.choice, &vs, NodeId::new(0), 1, &m);
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
        let base = exgraph::to_soa(&g);
        let rows = RoundRows::<1>::new(&g, &reach);
        let mut eval = RoundEval::new(&g, &base, &rows, &m, exgraph::schedule_len(&g, &m));
        eval.update_merits(&w, &cons, &params, &mut store);
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
        let base = exgraph::to_soa(&g);
        let rows = RoundRows::<1>::new(&g, &reach);
        let mut eval = RoundEval::new(&g, &base, &rows, &m, exgraph::schedule_len(&g, &m));
        // The β_IO penalty compounds across iterations; after a handful of
        // violating iterations the hardware option must fall below software.
        for _ in 0..10 {
            eval.update_merits(&w, &cons, &params, &mut store);
        }
        let hw = store.merit(0, ImplChoice::Hw(0));
        let sw = store.merit(0, ImplChoice::Sw(0));
        assert!(
            hw < sw,
            "violating subgraph must not attract hardware choices"
        );
    }

    /// `s = add(x, w)` with the consumers `a = add(s, y)` (node 1) and
    /// `b = xor(s, x or z)` (node 2), all three live out. Under `N_in = 3`,
    /// `N_out = 2` the three never fit together, so growing from `s`
    /// absorbs exactly one consumer: the greedy's first pick. `{s, a}`
    /// costs `IN + OUT = 3 + 2`; `{s, b}` costs the same when `b` reads
    /// `z`, and `2 + 2` when it reads `x`, already an input.
    fn fork_grown_from_s(b_reads_x: bool) -> NodeSet {
        let mut dfg = ProgramDfg::new();
        let (x, w, y, z) = (dfg.live_in(), dfg.live_in(), dfg.live_in(), dfg.live_in());
        let s = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::LiveIn(x), Operand::LiveIn(w)],
        );
        let a = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::Node(s), Operand::LiveIn(y)],
        );
        let b_rhs = if b_reads_x { x } else { z };
        let b = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(s), Operand::LiveIn(b_rhs)],
        );
        for n in [s, a, b] {
            dfg.set_live_out(n, true);
        }
        let g = exgraph::build(&dfg);
        let cons = Constraints::new(3, 2);
        let reach = Reachability::compute(&g);
        let all = NodeSet::full(g.len());
        let rows = RoundRows::<1>::new(&g, &reach);
        let grown =
            grow_legal(&rows, &cons, s.index(), Row::from_node_set(&all)).to_node_set(g.len());
        let reference = crate::explore::grow_legal_from(&g, s, &all, &cons, &reach);
        assert_eq!(grown, reference, "kernel and reference disagree");
        grown
    }

    fn members(set: &NodeSet) -> Vec<usize> {
        set.iter().map(|n| n.index()).collect()
    }

    #[test]
    fn legality_repair_breaks_demand_ties_on_lower_index() {
        assert_eq!(members(&fork_grown_from_s(false)), [0, 1]);
    }

    #[test]
    fn legality_repair_prefers_lower_demand_over_lower_index() {
        assert_eq!(members(&fork_grown_from_s(true)), [0, 2]);
    }
}
