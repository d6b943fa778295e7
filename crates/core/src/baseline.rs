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
//! The output is reported through the same [`Exploration`] type, with the
//! before/after cycle counts measured on the *multi-issue* machine so the
//! two explorers are compared exactly as in the paper (its "case 1":
//! schedule the single-issue exploration result on a multi-issue
//! processor).

use isex_aco::{roulette, AcoParams, ImplChoice, PheromoneStore};
use isex_dfg::{analysis, convex, ports, NodeSet, Reachability};
use isex_isa::{MachineConfig, ProgramDfg};
use rand::Rng;

use crate::ant::Walk;
use crate::candidate::{Constraints, IseCandidate};
use crate::exgraph::{self, ExGraph, ExKind};
use crate::explore::{extract_candidates, CurCandidate, Exploration};
use crate::merit::PortMasks;
use crate::trail::{self, TrailState};

const MAX_ROUNDS: usize = 32;

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
}

impl SingleIssueExplorer {
    /// Creates a baseline explorer with default parameters.
    pub fn new(machine: MachineConfig, constraints: Constraints) -> Self {
        SingleIssueExplorer {
            machine,
            constraints,
            params: AcoParams::default(),
        }
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
        }
    }

    /// Explores `dfg` without scheduling awareness.
    pub fn explore<R: Rng + ?Sized>(&self, dfg: &ProgramDfg, rng: &mut R) -> Exploration {
        let g0 = exgraph::build(dfg);
        let baseline = exgraph::schedule_len(&g0, &self.machine);
        let mut current = g0.clone();
        let mut commits: Vec<IseCandidate> = Vec::new();
        let mut iterations = 0usize;
        let mut rounds = 0usize;

        while rounds < MAX_ROUNDS {
            rounds += 1;
            let explorable = current
                .iter()
                .filter(|(_, n)| n.payload().is_explorable())
                .count();
            if explorable < 2 {
                break;
            }
            let Some(cand) = self.round(&current, rng, &mut iterations) else {
                break;
            };
            let orig_nodes: NodeSet = {
                let mut s = NodeSet::new(g0.len());
                for n in &cand.members {
                    match current.node(n).payload().kind {
                        ExKind::Op(o) => {
                            s.insert(o);
                        }
                        ExKind::FrozenIse(_) => unreachable!("frozen ISEs are not explorable"),
                    }
                }
                s
            };
            let d0 = ports::demand(&g0, &orig_nodes);
            if !d0.fits(self.constraints.n_in, self.constraints.n_out) {
                break;
            }
            // A single-issue tool estimates its gain serially: the members
            // execute one per cycle on the core, the ISE in `latency`
            // cycles. This estimate — not a multi-issue measurement — is
            // what the baseline reports and what drives its selection
            // ranking, reproducing the paper's "case 1" (a single-issue
            // exploration result dropped onto a multi-issue machine).
            let serial_saving = (cand.members.len() as u32).saturating_sub(cand.latency);
            let frozen = exgraph::freeze(&current, &cand.members, cand.footprint(), commits.len());
            let choices = cand
                .choices
                .iter()
                .map(|(n, j)| match current.node(*n).payload().kind {
                    ExKind::Op(o) => (o, *j),
                    ExKind::FrozenIse(_) => unreachable!(),
                })
                .collect();
            commits.push(IseCandidate {
                nodes: orig_nodes,
                choices,
                delay_ns: cand.delay_ns,
                latency: cand.latency,
                area_um2: cand.area,
                inputs: d0.inputs,
                outputs: d0.outputs,
                saved_cycles: serial_saving,
            });
            current = frozen.dfg;
        }

        let final_len = exgraph::schedule_len(&current, &self.machine);
        Exploration {
            candidates: commits,
            baseline_cycles: baseline,
            cycles_with_ises: final_len,
            rounds,
            iterations,
            degraded: false,
        }
    }

    /// One schedule-blind ACO round; returns the best candidate by *serial*
    /// cycle saving (the only metric a single-issue explorer sees).
    fn round<R: Rng + ?Sized>(
        &self,
        g: &ExGraph,
        rng: &mut R,
        iterations: &mut usize,
    ) -> Option<CurCandidate> {
        let reach = Reachability::compute(g);
        let shape: Vec<(usize, usize)> = g
            .iter()
            .map(|(_, n)| (n.payload().sw_delays.len(), n.payload().hw.len()))
            .collect();
        let mut store = PheromoneStore::new(&shape, &self.params);
        let mut tstate = TrailState::default();

        // Keep the best sampled assignment (smallest serial time, then
        // area), mirroring the MI explorer's best-walk extraction.
        let mut best: Option<(Walk, f64)> = None;
        let mut weights = Vec::new();
        for _ in 0..self.params.max_iterations {
            let walk = self.pick_options(g, &store, rng, &mut weights);
            *iterations += 1;
            trail::update(&mut store, &walk, &mut tstate, &self.params);
            self.update_merits(&mut store, g, &walk, &reach);
            let area = crate::explore::walk_area(g, &walk);
            let better = match &best {
                None => true,
                Some((b, barea)) => walk.tet < b.tet || (walk.tet == b.tet && area < *barea),
            };
            if better {
                best = Some((walk, area));
            }
            if store.converged(self.params.p_end) {
                break;
            }
        }

        let taken: Vec<ImplChoice> = match &best {
            Some((walk, _)) => walk.choice.clone(),
            None => (0..g.len()).map(|n| store.best_option(n).0).collect(),
        };
        let base = exgraph::to_soa(g);
        let masks = PortMasks::new(g);
        let mut cands = extract_candidates(
            g,
            &base,
            &masks,
            &taken,
            &self.constraints,
            &self.machine,
            &reach,
        );
        // Serial saving: size (1 cycle per op on a single-issue core) minus
        // the ISE latency.
        cands.retain(|c| c.members.len() as i64 - c.latency as i64 > 0);
        cands.sort_by(|a, b| {
            let sa = a.members.len() as i64 - a.latency as i64;
            let sb = b.members.len() as i64 - b.latency as i64;
            sb.cmp(&sa).then(a.area.total_cmp(&b.area))
        });
        cands.into_iter().next()
    }

    /// Choose an implementation option per operation — no scheduling, so
    /// the "walk" is just an option assignment with a serial time estimate.
    /// `weights` is the reused roulette buffer.
    fn pick_options<R: Rng + ?Sized>(
        &self,
        g: &ExGraph,
        store: &PheromoneStore,
        rng: &mut R,
        weights: &mut Vec<f64>,
    ) -> Walk {
        let k = g.len();
        let mut choice = vec![ImplChoice::Sw(0); k];
        for (n, slot) in choice.iter_mut().enumerate() {
            let options = store.options(n);
            weights.clear();
            weights.extend(options.clone().map(|i| store.attraction_at(i)));
            *slot = store.choice_at(n, options.start + roulette(rng, weights));
        }
        // Serial execution time: software ops cost their latency, each
        // hardware component costs its ISE latency once.
        let mut hw = NodeSet::new(k);
        for (i, c) in choice.iter().enumerate() {
            if c.is_hardware() {
                hw.insert(isex_dfg::NodeId::new(i as u32));
            }
        }
        let mut tet: u32 = g
            .iter()
            .filter(|(id, _)| !hw.contains(*id))
            .map(|(id, n)| {
                let ImplChoice::Sw(j) = choice[id.index()] else {
                    unreachable!()
                };
                n.payload().sw_latency(j)
            })
            .sum();
        for comp in analysis::components_within(g, &hw) {
            let delay =
                analysis::weighted_longest_path_within(g, &comp, |y, op| match choice[y.index()] {
                    ImplChoice::Hw(h) => op.hw[h].delay_ns,
                    ImplChoice::Sw(_) => unreachable!(),
                });
            tet += self.machine.cycles_for_delay_ns(delay);
        }
        Walk {
            choice,
            issue: vec![0; k], // no ordering information
            finish: vec![0; k],
            group_of: vec![None; k],
            groups: Vec::new(),
            tet,
        }
    }

    /// Legality-only merit: size/IO/convexity penalties plus serial-speedup
    /// scoring; no critical-path or slack terms.
    fn update_merits(
        &self,
        store: &mut PheromoneStore,
        g: &ExGraph,
        walk: &Walk,
        reach: &Reachability,
    ) {
        let params = &self.params;
        for x in g.node_ids() {
            let op = g.node(x).payload();
            for (i, d) in op.sw_delays.iter().enumerate() {
                store.scale_merit(x.index(), ImplChoice::Sw(i), *d as f64);
            }
            if op.hw.is_empty() {
                continue;
            }
            let vs = crate::merit::virtual_subgraph(g, walk, x);
            if vs.len() == 1 {
                for j in 0..op.hw.len() {
                    store.scale_merit(x.index(), ImplChoice::Hw(j), params.beta_size);
                }
                continue;
            }
            let demand = ports::demand(g, &vs);
            let io_ok = demand.fits(self.constraints.n_in, self.constraints.n_out);
            let convex_ok = convex::is_convex(&vs, reach);
            if !io_ok || !convex_ok {
                for j in 0..op.hw.len() {
                    if !io_ok {
                        store.scale_merit(x.index(), ImplChoice::Hw(j), params.beta_io);
                    }
                    if !convex_ok {
                        store.scale_merit(x.index(), ImplChoice::Hw(j), params.beta_convex);
                    }
                }
                continue;
            }
            let evals: Vec<crate::merit::VsEval> = (0..op.hw.len())
                .map(|j| crate::merit::evaluate_option(g, walk, &vs, x, j, &self.machine))
                .collect();
            let et_best = evals.iter().map(|e| e.et_cycles).min().unwrap_or(1);
            let area_max = evals.iter().map(|e| e.area).fold(0.0f64, f64::max).max(1.0);
            // Serial software cost of the subgraph: one cycle per member.
            let serial = vs.len() as i64;
            for (j, ev) in evals.iter().enumerate() {
                let saving = serial - ev.et_cycles as i64;
                let perf = if saving > 0 { saving as f64 } else { 0.5 };
                store.scale_merit(x.index(), ImplChoice::Hw(j), perf);
                let factor = if ev.et_cycles == et_best {
                    area_max / ev.area.max(1.0)
                } else {
                    1.0 / (1.0 + (ev.et_cycles - et_best) as f64)
                };
                store.scale_merit(x.index(), ImplChoice::Hw(j), factor);
            }
        }
        store.normalize_merits();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let w = si.pick_options(&g, &store, &mut rng, &mut Vec::new());
        assert_eq!(w.tet, g.len() as u32);
    }
}
