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
use isex_sched::soa::{SoaGraph, WalkTiming};

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
/// reference for [`FastPrims::set_answers`]' software cycles.
#[cfg(test)]
pub(crate) fn software_cycles(g: &ExGraph, vs: &NodeSet) -> u32 {
    analysis::weighted_longest_path_within(g, vs, |_, op| op.sw_delays[0] as f64).round() as u32
}

/// The merit update of one iteration (step 8 of Fig. 4.3.1): scales each
/// option's merit in `store`, then normalises. Every graph query goes
/// through `prims`, the walk's timing and scratch state.
#[allow(clippy::too_many_arguments)]
pub(crate) fn update_merits(
    g: &ExGraph,
    walk: &Walk,
    constraints: &Constraints,
    machine: &MachineConfig,
    params: &isex_aco::AcoParams,
    reach: &Reachability,
    prims: &mut FastPrims,
    store: &mut PheromoneStore,
) {
    let critical = prims.critical;
    // The per-node buffers live in the round scratch; they are moved out
    // for the walk so the queries below can borrow `prims` mutably.
    let mut vs_buf = std::mem::take(&mut prims.scratch.vs);
    let mut legal = std::mem::take(&mut prims.scratch.legal);
    let mut evals = std::mem::take(&mut prims.scratch.evals);
    for x in g.node_ids() {
        let xi = x.index();
        let op = g.node(x).payload();
        // Software merit: merit ×= ET(x, SW-i) (Eq. 3 of §4.3's merit part).
        for (i, d) in op.sw_delays.iter().enumerate() {
            store.scale_merit(xi, ImplChoice::Sw(i), *d as f64);
        }
        if op.hw.is_empty() {
            continue;
        }

        // Case 1: critical-path boost.
        if critical.contains(x) {
            for j in 0..op.hw.len() {
                store.scale_merit(xi, ImplChoice::Hw(j), 1.0 / params.beta_cp);
            }
        }

        prims.virtual_subgraph_into(walk, x, &mut vs_buf);

        // Case 2: nothing to fuse with.
        if vs_buf.len() == 1 {
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
        // `vS_x` is its component, answered once per walk.
        let comp = if walk.choice[x.index()].is_hardware() {
            prims.component(g, x, &vs_buf, constraints, reach)
        } else {
            prims.answers(g, &vs_buf, constraints, reach)
        };
        let io_ok = comp.demand.fits(constraints.n_in, constraints.n_out);
        let (vs, set) = if !io_ok || !comp.convex {
            for j in 0..op.hw.len() {
                if !io_ok {
                    store.scale_merit(xi, ImplChoice::Hw(j), params.beta_io);
                }
                if !comp.convex {
                    store.scale_merit(xi, ImplChoice::Hw(j), params.beta_convex);
                }
            }
            prims.grow_legal(x, &vs_buf, constraints, reach, &mut legal);
            if legal.len() < 2 {
                continue;
            }
            (&legal, prims.set_answers(g, &legal))
        } else {
            (&vs_buf, comp.scored.expect("a legal set is scored"))
        };

        // Case 4: performance and area scoring.
        evals.clear();
        evals.extend((0..op.hw.len()).map(|j| prims.evaluate_option(g, walk, vs, x, j, machine)));
        let et_max_reduction = evals.iter().map(|e| e.et_cycles).min().unwrap_or(1);
        let area_max = evals.iter().map(|e| e.area).fold(0.0f64, f64::max).max(1.0);
        for (j, ev) in evals.iter().enumerate() {
            let saving = set.sw_cycles as i64 - ev.et_cycles as i64;
            // Criterion (1): positive savings scale merit up proportionally;
            // a useless option decays instead.
            let perf = if saving > 0 { saving as f64 } else { 0.5 };
            store.scale_merit(xi, ImplChoice::Hw(j), perf);
            // Criteria (2)–(4): area-aware adjustment.
            let factor = if set.critical {
                if ev.et_cycles == et_max_reduction {
                    area_max / ev.area.max(1.0)
                } else {
                    1.0 / (1.0 + (ev.et_cycles - et_max_reduction) as f64)
                }
            } else if ev.et_cycles <= set.max_aec {
                area_max / ev.area.max(1.0)
            } else {
                1.0 / (1.0 + (ev.et_cycles - set.max_aec) as f64)
            };
            store.scale_merit(xi, ImplChoice::Hw(j), factor);
        }
    }
    prims.scratch.vs = vs_buf;
    prims.scratch.legal = legal;
    prims.scratch.evals = evals;
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
/// the scored node itself ([`FastPrims::answers`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct VsAnswers {
    /// `IN/OUT` port demand.
    pub demand: ports::PortDemand,
    /// Convexity.
    pub convex: bool,
    /// The set answers when the set is legal. `None` otherwise: each
    /// member then scores its own legal sub-blob.
    pub scored: Option<SetAnswers>,
}

/// Word-level port rows of one round's graph, built once per round and
/// shared by the ant walk, the merit queries and candidate extraction.
///
/// Per node: its distinct producers and distinct consumers (rows of node-set
/// words, laid out like [`NodeSet::as_words`]) and its distinct live-in
/// values (rows of live-in words); per live-in value the nodes that read
/// it; per node whether it is live out. For a set `S` with producer union
/// `E` and live-in union `L`, `IN(S) = |E ∖ S| + |L|` and a member is an
/// output when it is live out or has a consumer outside `S` (§4.2, the
/// counting rules of [`ports::demand`]), so port demand is ORs of rows and
/// `count_ones`, with no operand list scanned.
pub(crate) struct PortMasks {
    /// Words per node-set row.
    words: usize,
    /// Words per live-in row.
    li_words: usize,
    prod: Vec<u64>,
    cons: Vec<u64>,
    live_ins: Vec<u64>,
    readers: Vec<u64>,
    live_out: Vec<bool>,
}

fn set_bit(row: &mut [u64], i: usize) {
    row[i / 64] |= 1 << (i % 64);
}

/// Whether bit `i` of `row` is set.
pub(crate) fn has_bit(row: &[u64], i: usize) -> bool {
    row[i / 64] & (1 << (i % 64)) != 0
}

/// The indices of the set bits of `row`, ascending.
pub(crate) fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &bits)| {
        let mut bits = bits;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + b
            })
        })
    })
}

/// Whether `a ∩ b` is non-empty.
pub(crate) fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

impl PortMasks {
    /// Builds the rows of `g`.
    pub(crate) fn new(g: &ExGraph) -> Self {
        let k = g.len();
        let words = k.div_ceil(64);
        let n_li = g.live_in_count();
        let li_words = n_li.div_ceil(64);
        let mut m = PortMasks {
            words,
            li_words,
            prod: vec![0; k * words],
            cons: vec![0; k * words],
            live_ins: vec![0; k * li_words],
            readers: vec![0; n_li * words],
            live_out: Vec::with_capacity(k),
        };
        for (n, node) in g.iter() {
            let i = n.index();
            for op in node.operands() {
                match *op {
                    Operand::Node(p) => {
                        set_bit(&mut m.prod[i * words..(i + 1) * words], p.index());
                        let p = p.index();
                        set_bit(&mut m.cons[p * words..(p + 1) * words], i);
                    }
                    Operand::LiveIn(v) => {
                        let v = v.index();
                        set_bit(&mut m.live_ins[i * li_words..(i + 1) * li_words], v);
                        set_bit(&mut m.readers[v * words..(v + 1) * words], i);
                    }
                    Operand::Const(_) => {}
                }
            }
            m.live_out.push(node.is_live_out());
        }
        m
    }

    /// The distinct producers of node `i`.
    pub(crate) fn prod(&self, i: usize) -> &[u64] {
        &self.prod[i * self.words..(i + 1) * self.words]
    }

    /// The distinct consumers of node `i`.
    pub(crate) fn cons(&self, i: usize) -> &[u64] {
        &self.cons[i * self.words..(i + 1) * self.words]
    }

    /// The distinct live-in values node `i` reads.
    pub(crate) fn live_ins(&self, i: usize) -> &[u64] {
        &self.live_ins[i * self.li_words..(i + 1) * self.li_words]
    }

    /// The nodes that read live-in value `v`.
    pub(crate) fn readers(&self, v: usize) -> &[u64] {
        &self.readers[v * self.words..(v + 1) * self.words]
    }

    /// Whether node `i` is live out of the block.
    pub(crate) fn is_live_out(&self, i: usize) -> bool {
        self.live_out[i]
    }

    /// `IN/OUT` of `set`, equal to [`ports::demand`]; `e` and `l` are
    /// scratch for the producer and live-in unions.
    pub(crate) fn demand(
        &self,
        set: &NodeSet,
        e: &mut Vec<u64>,
        l: &mut Vec<u64>,
    ) -> ports::PortDemand {
        e.clear();
        e.resize(self.words, 0);
        l.clear();
        l.resize(self.li_words, 0);
        let s = set.as_words();
        let mut outputs = 0usize;
        for n in set {
            let i = n.index();
            e.iter_mut().zip(self.prod(i)).for_each(|(a, b)| *a |= b);
            l.iter_mut()
                .zip(self.live_ins(i))
                .for_each(|(a, b)| *a |= b);
            let escapes = self.cons(i).iter().zip(s).any(|(c, m)| c & !m != 0);
            outputs += usize::from(self.live_out[i] || escapes);
        }
        let ext: u32 = e.iter().zip(s).map(|(a, m)| (a & !m).count_ones()).sum();
        let li: u32 = l.iter().map(|a| a.count_ones()).sum();
        ports::PortDemand {
            inputs: (ext + li) as usize,
            outputs,
        }
    }
}

/// Per-round scratch of the fast merit primitives: hardware-choice
/// connected components and their answers (recomputed once per walk), the
/// longest-path finish buffer, the demand/convexity sets, the
/// legality-repair kernel and the per-node buffers of [`update_merits`].
/// Steady state allocates nothing.
#[derive(Default)]
pub(crate) struct FastMeritScratch {
    /// Component id per node for the current walk; `u32::MAX` when the node
    /// did not choose hardware.
    comp_id: Vec<u32>,
    /// Component member sets, pooled across walks.
    comps: Vec<NodeSet>,
    n_comps: usize,
    /// Per component of the current walk, its answers once some member
    /// has asked ([`FastPrims::component`]).
    answers: Vec<Option<VsAnswers>>,
    /// Component answers served from `answers` (checked by the oracle test).
    #[cfg(test)]
    pub(crate) reused: usize,
    /// Longest-path finish times. Stale entries are never read: members are
    /// visited in ascending index order and every predecessor of a member
    /// inside the set has a smaller index (the topological-order invariant
    /// of [`isex_dfg::Dfg`]), so it was written earlier in the same call.
    finish: Vec<f64>,
    /// Producer and live-in unions of the demand query.
    e: Vec<u64>,
    l: Vec<u64>,
    stack: Vec<u32>,
    /// Descendants/ancestors unions of the convexity test.
    desc: NodeSet,
    anc: NodeSet,
    /// Legality repair (merit case 3).
    grow: GrowScratch,
    /// The virtual subgraph, its legal sub-blob and the per-option
    /// evaluations of the node [`update_merits`] is scoring.
    vs: NodeSet,
    legal: NodeSet,
    evals: Vec<VsEval>,
}

impl FastMeritScratch {
    /// Recomputes the walk-dependent state: the connected components of the
    /// hardware-chosen nodes (connectivity through hardware nodes only,
    /// edges taken as undirected), with their answers cleared. The virtual
    /// subgraph of any `x` is then `{x} ∪ ⋃ comp(v)` over the
    /// hardware-chosen neighbours `v` of `x` — exactly the set the per-node
    /// DFS of [`virtual_subgraph`] discovers — which for a hardware-chosen
    /// `x` is its own component.
    pub(crate) fn prepare(&mut self, base: &SoaGraph, walk: &Walk) {
        let n = base.len();
        self.comp_id.clear();
        self.comp_id.resize(n, u32::MAX);
        self.n_comps = 0;
        if self.finish.len() != n {
            self.finish = vec![0.0; n];
            self.desc = NodeSet::new(n);
            self.anc = NodeSet::new(n);
            self.vs = NodeSet::new(n);
            self.legal = NodeSet::new(n);
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
        self.answers.clear();
        self.answers.resize(self.n_comps, None);
    }
}

/// The graph queries of the merit computation for one walk, answered from
/// the round's SoA arrays and [`FastMeritScratch`]: virtual subgraphs by
/// word-level component union, the per-component answers once per walk,
/// longest paths and port demand scanning members only, and `Max_AEC` read
/// directly from the walk's timing vectors (`alap` holds slots at deadline
/// `len`; the walk's deadline shifts every slot uniformly, folded in as
/// `extra`).
///
/// Each query equals a free-function reference — [`virtual_subgraph`],
/// [`ports::demand`], [`isex_dfg::convex::is_convex`], [`evaluate_option`],
/// [`software_cycles`], the `isex-sched` reference `timing::max_aec` on the
/// walk's collapsed graph, and the allocating greedy `explore::grow_legal_from`
/// for legality repair — which the unit tests check on real hot blocks.
pub(crate) struct FastPrims<'a> {
    pub scratch: &'a mut FastMeritScratch,
    pub base: &'a SoaGraph,
    /// The round's port rows.
    pub masks: &'a PortMasks,
    /// The walk's timing, read per base node through its unit.
    pub timing: &'a WalkTiming,
    /// `walk deadline − len`, the uniform ALAP shift.
    pub extra: u32,
    /// Critical-path membership per original node (ASAP = ALAP in the
    /// walk's timing).
    pub critical: &'a NodeSet,
}

impl FastPrims<'_> {
    /// Fills `out` with the virtual subgraph of `x` (Fig. 4.3.6): a
    /// hardware-chosen `x`'s component, or `x` plus its hardware
    /// neighbours' components.
    pub(crate) fn virtual_subgraph_into(&mut self, walk: &Walk, x: NodeId, out: &mut NodeSet) {
        out.clear();
        let xi = x.index() as u32;
        let s = &*self.scratch;
        if s.comp_id[xi as usize] != u32::MAX {
            out.union_with(&s.comps[s.comp_id[xi as usize] as usize]);
            return;
        }
        out.insert(x);
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

    /// The answers of the component of a hardware-chosen `x`, whose set
    /// `vs` is (its `vS_x`): computed when the first member asks and
    /// served to the others for the rest of the walk.
    pub(crate) fn component(
        &mut self,
        g: &ExGraph,
        x: NodeId,
        vs: &NodeSet,
        constraints: &Constraints,
        reach: &Reachability,
    ) -> VsAnswers {
        let k = self.scratch.comp_id[x.index()] as usize;
        debug_assert!(vs == &self.scratch.comps[k], "vs must be x's component");
        if let Some(answers) = self.scratch.answers[k] {
            #[cfg(test)]
            {
                self.scratch.reused += 1;
            }
            return answers;
        }
        let answers = self.answers(g, vs, constraints, reach);
        self.scratch.answers[k] = Some(answers);
        answers
    }

    /// The port demand and convexity of `vs` and, when it is legal, its
    /// set answers.
    pub(crate) fn answers(
        &mut self,
        g: &ExGraph,
        vs: &NodeSet,
        constraints: &Constraints,
        reach: &Reachability,
    ) -> VsAnswers {
        let s = &mut *self.scratch;
        let demand = self.masks.demand(vs, &mut s.e, &mut s.l);
        let convex = self.is_convex(vs, reach);
        let legal = convex && demand.fits(constraints.n_in, constraints.n_out);
        VsAnswers {
            demand,
            convex,
            scored: legal.then(|| self.set_answers(g, vs)),
        }
    }

    /// The case-4 answers of `vs` that do not depend on the scored node.
    /// `Max_AEC` is read from the walk's timing through each member's unit.
    pub(crate) fn set_answers(&mut self, g: &ExGraph, vs: &NodeSet) -> SetAnswers {
        let (sw_delay, _) =
            self.longest_within(vs, |y| (g.node(y).payload().sw_delays[0] as f64, 0.0));
        let t = self.timing;
        let (mut earliest, mut latest) = (u32::MAX, 0u32);
        for y in vs {
            let u = t.unit[y.index()] as usize;
            earliest = earliest.min(t.asap[u]);
            latest = latest.max(t.alap[u] + self.extra + t.lat[u]);
        }
        SetAnswers {
            sw_cycles: sw_delay.round() as u32,
            critical: vs.intersects(self.critical),
            max_aec: latest.saturating_sub(earliest),
        }
    }

    /// Convexity of `vs`.
    fn is_convex(&mut self, vs: &NodeSet, reach: &Reachability) -> bool {
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

    /// The maximal legal sub-blob of `vs` grown from `x` into `out` (merit
    /// case 3); see [`GrowScratch::grow`].
    pub(crate) fn grow_legal(
        &mut self,
        x: NodeId,
        vs: &NodeSet,
        constraints: &Constraints,
        reach: &Reachability,
        out: &mut NodeSet,
    ) {
        self.scratch
            .grow
            .grow(self.base, self.masks, reach, constraints, x, vs, out);
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
        let (delay, area) = self.longest_within(vs, |y| {
            let op = g.node(y).payload();
            let h = match walk.choice[y.index()] {
                _ if y == x => j,
                ImplChoice::Hw(h) => h,
                ImplChoice::Sw(_) => 0,
            };
            (op.hw[h].delay_ns, op.hw[h].area_um2)
        });
        VsEval {
            et_cycles: machine.cycles_for_delay_ns(delay),
            area,
        }
    }

    /// The longest delay-weighted path through `vs` (in-set edges only) and
    /// the members' summed area, under per-member `(delay, area)` costs.
    fn longest_within(&mut self, vs: &NodeSet, cost: impl Fn(NodeId) -> (f64, f64)) -> (f64, f64) {
        let finish = &mut self.scratch.finish;
        let mut best = 0.0f64;
        let mut area = 0.0f64;
        for y in vs {
            let (d, a) = cost(y);
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
        (best, area)
    }
}

/// Scratch of the legality-repair kernel [`GrowScratch::grow`]: the
/// grown set's descendant/ancestor unions, its candidate frontier and its
/// port bookkeeping, updated as members are absorbed.
#[derive(Default)]
pub(crate) struct GrowScratch {
    /// Unions of the strict descendants / ancestors of the grown members.
    desc: NodeSet,
    anc: NodeSet,
    /// Allowed nodes adjacent to the grown set and outside it.
    frontier: NodeSet,
    /// `E` and `L`: unions of the grown members' producer and live-in rows
    /// ([`PortMasks`]).
    e: Vec<u64>,
    l: Vec<u64>,
    /// Per grown member: its distinct successors outside the grown set.
    ext_succs: Vec<u32>,
    /// `OUT` of the grown set: members that are live out or feed a
    /// non-member.
    outputs: usize,
}

impl GrowScratch {
    /// Grows into `grown` a maximal legal (convex, port-feasible) sub-blob
    /// of `allowed` from `seed`: while some frontier node fits, absorb the
    /// one with the smallest `(IN + OUT, index)` of the enlarged set.
    ///
    /// The grown set is convex at every step, so convexity of
    /// `grown ∪ {v}` is one word-level test against the kept unions `D`
    /// and `A` of its members' descendants and ancestors,
    /// `(D ∪ desc v) ∧ (A ∪ anc v) ∧ ¬grown = ∅`. Its inputs are
    /// `|(E ∪ pred v) ∖ (grown ∪ {v})| + |L ∪ li v|` over the kept
    /// producer and live-in unions `E` and `L` and `v`'s rows in `masks`,
    /// and its outputs follow from `v`'s successors alone. Both equal
    /// [`ports::demand`] and [`isex_dfg::convex::is_convex`] on the
    /// enlarged set. Nothing is allocated once the scratch has been sized
    /// for the graph.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn grow(
        &mut self,
        base: &SoaGraph,
        masks: &PortMasks,
        reach: &Reachability,
        constraints: &Constraints,
        seed: NodeId,
        allowed: &NodeSet,
        grown: &mut NodeSet,
    ) {
        let n = base.len();
        if self.ext_succs.len() != n {
            self.desc = NodeSet::new(n);
            self.anc = NodeSet::new(n);
            self.frontier = NodeSet::new(n);
            self.ext_succs = vec![0; n];
        }
        self.desc.clear();
        self.anc.clear();
        self.frontier.clear();
        self.e.clear();
        self.e.resize(masks.words, 0);
        self.l.clear();
        self.l.resize(masks.li_words, 0);
        self.outputs = 0;
        grown.clear();
        self.absorb(base, masks, reach, allowed, grown, seed);
        loop {
            // Ascending index order, so only a strictly smaller demand
            // displaces the incumbent: ties go to the lower index.
            let mut best: Option<(usize, NodeId)> = None;
            for v in &self.frontier {
                let (inputs, outputs) = self.demand_with(base, masks, grown, v);
                if inputs > constraints.n_in || outputs > constraints.n_out {
                    continue;
                }
                let key = inputs + outputs;
                if best.is_some_and(|(bk, _)| bk <= key) {
                    continue;
                }
                if self.convex_with(reach, grown, v) {
                    best = Some((key, v));
                }
            }
            match best {
                Some((_, v)) => self.absorb(base, masks, reach, allowed, grown, v),
                None => break,
            }
        }
    }

    /// `(IN, OUT)` of `grown ∪ {v}` for a non-member `v`.
    fn demand_with(
        &self,
        base: &SoaGraph,
        masks: &PortMasks,
        grown: &NodeSet,
        v: NodeId,
    ) -> (usize, usize) {
        let vi = v.index();
        // `v` is none of its own producers, so of `E ∪ pred v` only `E`
        // can hold it.
        let ext: u32 = self
            .e
            .iter()
            .zip(masks.prod(vi))
            .zip(grown.as_words())
            .map(|((e, p), m)| ((e | p) & !m).count_ones())
            .sum();
        let li: u32 = self
            .l
            .iter()
            .zip(masks.live_ins(vi))
            .map(|(l, x)| (l | x).count_ones())
            .sum();
        let inputs = (ext + li) as usize - usize::from(has_bit(&self.e, vi));
        // A member producer whose only outside consumer was `v` stops
        // escaping; `v` escapes unless it is internal to the set.
        let mut outputs = self.outputs;
        for &p in base.preds(vi) {
            if grown.contains(NodeId::new(p))
                && self.ext_succs[p as usize] == 1
                && !masks.is_live_out(p as usize)
            {
                outputs -= 1;
            }
        }
        if masks.is_live_out(vi)
            || base
                .succs(vi)
                .iter()
                .any(|&s| !grown.contains(NodeId::new(s)))
        {
            outputs += 1;
        }
        (inputs, outputs)
    }

    /// Convexity of `grown ∪ {v}`, given that `grown` is convex: no node
    /// outside it is both a descendant and an ancestor of its members.
    /// `v` needs no bit of its own in the mask: it is in neither of its
    /// own (strict) rows, and being in both `D` and `A` would put it on a
    /// path between two members of the convex grown set.
    fn convex_with(&self, reach: &Reachability, grown: &NodeSet, v: NodeId) -> bool {
        let (d, a, m) = (self.desc.as_words(), self.anc.as_words(), grown.as_words());
        let (dv, av) = (
            reach.descendants(v).as_words(),
            reach.ancestors(v).as_words(),
        );
        (0..m.len()).all(|i| (d[i] | dv[i]) & (a[i] | av[i]) & !m[i] == 0)
    }

    /// Adds `v` to `grown` and updates the unions, the port bookkeeping and
    /// the frontier.
    fn absorb(
        &mut self,
        base: &SoaGraph,
        masks: &PortMasks,
        reach: &Reachability,
        allowed: &NodeSet,
        grown: &mut NodeSet,
        v: NodeId,
    ) {
        let vi = v.index();
        grown.insert(v);
        self.frontier.remove(v);
        self.desc.union_with(reach.descendants(v));
        self.anc.union_with(reach.ancestors(v));
        self.e
            .iter_mut()
            .zip(masks.prod(vi))
            .for_each(|(a, b)| *a |= b);
        self.l
            .iter_mut()
            .zip(masks.live_ins(vi))
            .for_each(|(a, b)| *a |= b);
        for &p in base.preds(vi) {
            if grown.contains(NodeId::new(p)) {
                self.ext_succs[p as usize] -= 1;
                if self.ext_succs[p as usize] == 0 && !masks.is_live_out(p as usize) {
                    self.outputs -= 1;
                }
            }
        }
        let outside = base
            .succs(vi)
            .iter()
            .filter(|&&s| !grown.contains(NodeId::new(s)))
            .count();
        self.ext_succs[vi] = outside as u32;
        if masks.is_live_out(vi) || outside > 0 {
            self.outputs += 1;
        }
        for &w in base.preds(vi).iter().chain(base.succs(vi)) {
            let w = NodeId::new(w);
            if allowed.contains(w) && !grown.contains(w) {
                self.frontier.insert(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ant::{Ant, SpFunction};
    use crate::evalcache::RoundEval;
    use crate::exgraph;
    use isex_aco::AcoParams;
    use isex_dfg::Operand;
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
        let base = exgraph::to_soa(g);
        let ant = Ant::new(g, &m, &cons, 0.5, SpFunction::ChildCount, &base);
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
        let base = exgraph::to_soa(&g);
        let mut eval = RoundEval::new(&base, &m, exgraph::schedule_len(&g, &m));
        let masks = PortMasks::new(&g);
        eval.update_merits(&g, &w, &cons, &params, &reach, &masks, &mut store);
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
        let mut eval = RoundEval::new(&base, &m, exgraph::schedule_len(&g, &m));
        let masks = PortMasks::new(&g);
        // The β_IO penalty compounds across iterations; after a handful of
        // violating iterations the hardware option must fall below software.
        for _ in 0..10 {
            eval.update_merits(&g, &w, &cons, &params, &reach, &masks, &mut store);
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
        let base = exgraph::to_soa(&g);
        let all = NodeSet::full(g.len());
        let mut grown = NodeSet::new(g.len());
        let masks = PortMasks::new(&g);
        GrowScratch::default().grow(&base, &masks, &reach, &cons, s, &all, &mut grown);
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

    fn software_walk_for(g: &ExGraph, m: &MachineConfig, cons: &Constraints) -> Walk {
        let base = exgraph::to_soa(g);
        let ant = Ant::new(g, m, cons, 0.5, SpFunction::ChildCount, &base);
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
