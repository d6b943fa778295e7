//! The single-issue, legality-only baseline explorer ("SI").
//!
//! Re-implements the style of exploration the paper compares against
//! (Wu et al. \[8\]): the same ACO machinery and the same §4.2 legality
//! constraints, but **no instruction scheduling** — every operation is
//! assumed to execute sequentially, so there is no critical path, no
//! `Max_AEC` slack, and no notion of operation *location*. This is exactly
//! the behaviour §1.4 criticises: "current ISE exploration algorithms only
//! consider the legality of operations, but do not consider the location of
//! operations".
//!
//! SI runs the same exploration driver as MI ([`crate::explore`]): the
//! same round loop, stop flag and round budget, the same ACO iteration
//! loop, extraction and commit. This module holds only SI's strategy, the
//! pieces that differ: walks are option assignments with a serial time
//! estimate, the merit update is legality-only, and candidates are ranked
//! and credited by their serial saving, with only the top one offered for
//! commit.
//!
//! The output is reported through the same [`Exploration`] type, with the
//! before/after cycle counts measured on the *multi-issue* machine so the
//! two explorers are compared exactly as in the paper (its "case 1":
//! schedule the single-issue exploration result on a multi-issue
//! processor).

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use isex_aco::{roulette, AcoParams, ImplChoice, PheromoneStore};
use isex_isa::{MachineConfig, ProgramDfg};
use rand::Rng;

use crate::ant::Walk;
use crate::candidate::Constraints;
use crate::evalcache::RoundEval;
use crate::exgraph::ExGraph;
use crate::explore::{drive, CurCandidate, DynRng, Exploration, Ranked, Strategy, TraceEntry};
use crate::merit::MeritScratch;
use crate::rows::RoundRows;

/// The legality-only baseline explorer.
///
/// # Example
///
/// ```
/// use isex_core::{Constraints, SingleIssueExplorer};
/// use isex_isa::{MachineConfig, Opcode, Operation, ProgramDfg};
/// use isex_dfg::Operand;
/// use rand::SeedableRng;
///
/// let mut dfg = ProgramDfg::new();
/// let x = dfg.live_in();
/// let a = dfg.add_node(Operation::new(Opcode::Add), vec![Operand::LiveIn(x), Operand::Const(1)]);
/// let b = dfg.add_node(Operation::new(Opcode::Sll), vec![Operand::Node(a), Operand::Const(2)]);
/// dfg.set_live_out(b, true);
/// let machine = MachineConfig::preset_2issue_4r2w();
/// let si = SingleIssueExplorer::new(machine, Constraints::from_machine(&machine));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let r = si.explore(&dfg, &mut rng);
/// assert!(r.cycles_with_ises <= r.baseline_cycles);
/// ```
#[derive(Clone, Debug)]
pub struct SingleIssueExplorer {
    /// The machine used only to *report* multi-issue cycle counts; the
    /// exploration itself is schedule-blind.
    pub machine: MachineConfig,
    /// The §4.2 port constraints.
    pub constraints: Constraints,
    /// ACO tunables.
    pub params: AcoParams,
    /// Optional cooperative stop flag, checked between rounds, with the
    /// same anytime meaning as [`MultiIssueExplorer::stop`](crate::MultiIssueExplorer::stop).
    pub stop: Option<Arc<AtomicBool>>,
}

impl SingleIssueExplorer {
    /// Creates a baseline explorer with default parameters.
    pub fn new(machine: MachineConfig, constraints: Constraints) -> Self {
        Self::with_params(machine, constraints, AcoParams::default())
    }

    /// Creates a baseline explorer with custom ACO parameters.
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
        SingleIssueExplorer {
            machine,
            constraints,
            params,
            stop: None,
        }
    }

    /// Explores `dfg` without scheduling awareness.
    pub fn explore<R: Rng + ?Sized>(&self, dfg: &ProgramDfg, rng: &mut R) -> Exploration {
        drive(Strategy::Si(self), dfg, &mut DynRng(rng), None)
    }

    /// [`SingleIssueExplorer::explore`], recording every walk into `trace`
    /// when one is given; the exploration is the same either way.
    pub fn explore_with_trace<R: Rng + ?Sized>(
        &self,
        dfg: &ProgramDfg,
        rng: &mut R,
        trace: Option<&mut Vec<TraceEntry>>,
    ) -> Exploration {
        drive(Strategy::Si(self), dfg, &mut DynRng(rng), trace)
    }
}

/// One round's SI walk builder: the round graph, its rows and the
/// roulette buffer.
pub(crate) struct Picker<'r, const W: usize> {
    si: &'r SingleIssueExplorer,
    g: &'r ExGraph,
    rows: &'r RoundRows<W>,
    weights: Vec<f64>,
}

impl<'r, const W: usize> Picker<'r, W> {
    pub fn new(si: &'r SingleIssueExplorer, g: &'r ExGraph, rows: &'r RoundRows<W>) -> Self {
        Picker {
            si,
            g,
            rows,
            weights: Vec::new(),
        }
    }

    /// Chooses an implementation option per operation — no scheduling, so
    /// the walk is just an option assignment with a serial time estimate,
    /// its hardware components found by the merit kernels' `m`.
    pub fn pick_options<R: Rng + ?Sized>(
        &mut self,
        store: &PheromoneStore,
        rng: &mut R,
        walk: &mut Walk<W>,
        m: &mut MeritScratch<W>,
    ) {
        let g = self.g;
        let k = g.len();
        walk.choice.clear();
        for n in 0..k {
            let options = store.options(n);
            self.weights.clear();
            self.weights
                .extend(options.clone().map(|i| store.attraction_at(i)));
            let pick = options.start + roulette(rng, &self.weights);
            walk.choice.push(store.choice_at(n, pick));
        }
        // No ordering information.
        for v in [&mut walk.issue, &mut walk.finish] {
            v.clear();
            v.resize(k, 0);
        }
        walk.group_of.clear();
        walk.group_of.resize(k, None);
        walk.groups.clear();
        // Serial execution time: software ops cost their latency, each
        // hardware component costs its ISE latency once.
        let mut tet = 0;
        for (c, (_, n)) in walk.choice.iter().zip(g.iter()) {
            if let ImplChoice::Sw(j) = *c {
                tet += n.payload().sw_latency(j);
            }
        }
        m.prepare(g, self.rows, &walk.choice);
        walk.tet = tet + m.component_cycles(self.rows, &self.si.machine);
    }

    /// Legality-only merit: size/IO/convexity penalties plus serial-speedup
    /// scoring; no critical-path or slack terms. The virtual subgraphs,
    /// their demand and convexity and the per-option evaluations are the
    /// MI merit's kernels, prepared in `m` for this walk.
    pub fn update_merits(
        &self,
        walk: &Walk<W>,
        m: &mut MeritScratch<W>,
        store: &mut PheromoneStore,
    ) {
        let (g, si, rows) = (self.g, self.si, self.rows);
        let params = &si.params;
        m.prepare(g, rows, &walk.choice);
        for (x, node) in g.iter().map(|(id, node)| (id.index(), node)) {
            let op = node.payload();
            for (i, d) in op.sw_delays.iter().enumerate() {
                store.scale_merit(x, ImplChoice::Sw(i), *d as f64);
            }
            if op.hw.is_empty() {
                continue;
            }
            let vs = m.vs(rows, x);
            if vs.members.len() == 1 {
                for j in 0..op.hw.len() {
                    store.scale_merit(x, ImplChoice::Hw(j), params.beta_size);
                }
                continue;
            }
            let io_ok = vs.demand().fits(si.constraints.n_in, si.constraints.n_out);
            let convex_ok = vs.convex();
            if !io_ok || !convex_ok {
                for j in 0..op.hw.len() {
                    if !io_ok {
                        store.scale_merit(x, ImplChoice::Hw(j), params.beta_io);
                    }
                    if !convex_ok {
                        store.scale_merit(x, ImplChoice::Hw(j), params.beta_convex);
                    }
                }
                continue;
            }
            let evals = m.evaluate_options(g, rows, vs.members, x, &si.machine);
            let et_best = evals.iter().map(|e| e.et_cycles).min().unwrap_or(1);
            let area_max = evals.iter().map(|e| e.area).fold(0.0f64, f64::max).max(1.0);
            // Serial software cost of the subgraph: one cycle per member.
            let serial = vs.members.len() as i64;
            for (j, ev) in evals.iter().enumerate() {
                let saving = serial - ev.et_cycles as i64;
                let perf = if saving > 0 { saving as f64 } else { 0.5 };
                store.scale_merit(x, ImplChoice::Hw(j), perf);
                let factor = if ev.et_cycles == et_best {
                    area_max / ev.area.max(1.0)
                } else {
                    1.0 / (1.0 + (ev.et_cycles - et_best) as f64)
                };
                store.scale_merit(x, ImplChoice::Hw(j), factor);
            }
        }
        store.normalize_merits();
    }
}

/// SI's rank and credit: a single-issue tool estimates a candidate's gain
/// serially — its members execute one per cycle on the core, the ISE in
/// `latency` cycles. That estimate, not a multi-issue measurement, is what
/// SI ranks by and credits, reproducing the paper's "case 1" (a
/// single-issue exploration result dropped onto a multi-issue machine).
/// Ties go to the smaller area. Only the top candidate is offered, so
/// exploration ends when it fails the driver's port re-check.
pub(crate) fn rank_serial<const W: usize>(
    cands: Vec<CurCandidate>,
    eval: &mut RoundEval<'_, W>,
) -> Vec<Ranked> {
    let serial = |c: &CurCandidate| (c.members.len() as u32).saturating_sub(c.latency);
    cands
        .into_iter()
        .filter(|c| serial(c) > 0)
        .min_by(|a, b| serial(b).cmp(&serial(a)).then(a.area.total_cmp(&b.area)))
        .map(|c| {
            let with_len = eval.candidate_len(&c.members, c.footprint());
            let saved = serial(&c);
            (c, saved, with_len)
        })
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exgraph;
    use isex_dfg::Operand;
    use isex_isa::{Opcode, Operation};
    use rand::SeedableRng;

    /// Wide block: a short critical chain plus many parallel eligible ops.
    /// The SI explorer happily packs slack ops; MI should not.
    fn wide_block() -> ProgramDfg {
        let mut dfg = ProgramDfg::new();
        let x = dfg.live_in();
        let y = dfg.live_in();
        // chain (critical on 2-issue): 4 ops
        let mut prev = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::LiveIn(x), Operand::LiveIn(y)],
        );
        for op in [Opcode::Sll, Opcode::Xor, Opcode::And] {
            prev = dfg.add_node(
                Operation::new(op),
                vec![Operand::Node(prev), Operand::Const(5)],
            );
        }
        dfg.set_live_out(prev, true);
        // parallel pairs
        for _ in 0..3 {
            let a = dfg.add_node(
                Operation::new(Opcode::Or),
                vec![Operand::LiveIn(x), Operand::Const(1)],
            );
            let b = dfg.add_node(
                Operation::new(Opcode::Nor),
                vec![Operand::Node(a), Operand::LiveIn(y)],
            );
            dfg.set_live_out(b, true);
        }
        dfg
    }

    #[test]
    fn baseline_finds_legal_candidates() {
        let dfg = wide_block();
        let m = MachineConfig::preset_2issue_4r2w();
        let si = SingleIssueExplorer::new(m, Constraints::from_machine(&m));
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let r = si.explore(&dfg, &mut rng);
        assert!(!r.candidates.is_empty(), "plenty of legal subgraphs exist");
        for c in &r.candidates {
            assert!(c.satisfies(&si.constraints));
            assert!(c.size() >= 2);
        }
        assert!(r.cycles_with_ises <= r.baseline_cycles);
    }

    #[test]
    fn baseline_is_deterministic_per_seed() {
        let dfg = wide_block();
        let m = MachineConfig::preset_2issue_6r3w();
        let si = SingleIssueExplorer::new(m, Constraints::from_machine(&m));
        let run = |seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let r = si.explore(&dfg, &mut rng);
            (r.candidates.len(), r.cycles_with_ises)
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn serial_estimate_counts_components_once() {
        let dfg = wide_block();
        let g = exgraph::build(&dfg);
        let m = MachineConfig::preset_2issue_4r2w();
        let si = SingleIssueExplorer::new(m, Constraints::from_machine(&m));
        let shape: Vec<(usize, usize)> = g
            .iter()
            .map(|(_, n)| (n.payload().sw_delays.len(), n.payload().hw.len()))
            .collect();
        let mut store = PheromoneStore::new(&shape, &si.params);
        // All software: TET = number of ops.
        for n in 0..g.len() {
            store.set_merit(n, ImplChoice::Sw(0), 1e9);
            for j in 0..g.node(isex_dfg::NodeId::new(n as u32)).payload().hw.len() {
                store.set_merit(n, ImplChoice::Hw(j), 1e-9);
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut w = Walk::default();
        let rows = RoundRows::<1>::new(&g, &isex_dfg::Reachability::compute(&g));
        let mut m = MeritScratch::new(&g);
        Picker::new(&si, &g, &rows).pick_options(&store, &mut rng, &mut w, &mut m);
        assert_eq!(w.tet, g.len() as u32);
    }
}
