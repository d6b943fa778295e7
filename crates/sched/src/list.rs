//! The in-order multi-issue list scheduler.
//!
//! §4.3 derives the exploration's scheduling steps "from the idea of list
//! scheduling"; the same scheduler is used stand-alone to evaluate final
//! code (ISE replacement is followed by "schedule the code again to obtain
//! execution time", §5.1).
//!
//! One scheduling loop, [`schedule_soa`], serves every caller. It runs on a
//! [`SoaGraph`]: [`list_schedule`] and [`list_schedule_len`] lower a
//! [`SchedDfg`] into the graph their [`ListScratch`] holds, and the
//! explorer, whose graphs are already in array form, calls it directly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use isex_dfg::NodeId;
use isex_isa::MachineConfig;

use crate::resources::ResourceTable;
use crate::soa::{self, SoaGraph};
use crate::unit::SchedDfg;

/// The scheduling-priority (SP) function used to rank ready operations.
///
/// The paper uses "the number of child operations" as its default SP and
/// names mobility-based priorities as an alternative (§4.3, Ch. 6 future
/// work); all three are provided so the ablation bench can compare them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Priority {
    /// Rank by number of child operations (the paper's default).
    #[default]
    ChildCount,
    /// Rank by latency-weighted height (critical-path scheduling).
    Height,
    /// Rank by negated mobility (least-slack-first).
    Mobility,
}

impl Priority {
    /// Computes the static priority value of every node (larger = sooner).
    pub fn values(self, g: &SoaGraph) -> Vec<i64> {
        let mut out = Vec::new();
        self.values_into(g, &mut out);
        out
    }

    /// Like [`Priority::values`], but writes into `out` (cleared first) so
    /// a caller scheduling many graphs can reuse one allocation.
    pub fn values_into(self, g: &SoaGraph, out: &mut Vec<i64>) {
        match self {
            Priority::ChildCount => {
                out.clear();
                out.extend((0..g.len()).map(|v| g.succs(v).len() as i64));
            }
            // latency-weighted height: cycles from issue to end of chain
            Priority::Height => soa::height_into(g, out),
            Priority::Mobility => {
                let (mut asap, mut alap) = (Vec::new(), Vec::new());
                soa::asap_into(g, &mut asap);
                soa::alap_into(g, soa::length_from_asap(g, &asap), &mut alap);
                out.clear();
                out.extend(asap.iter().zip(&alap).map(|(a, l)| -((l - a) as i64)));
            }
        }
    }
}

/// The result of scheduling: an issue cycle per node and the makespan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Issue cycle of every node, indexed by node id.
    pub start: Vec<u32>,
    /// Total schedule length in cycles.
    pub length: u32,
}

impl Schedule {
    /// Issue cycle of `id`.
    pub fn start_of(&self, id: NodeId) -> u32 {
        self.start[id.index()]
    }
}

/// Schedules `dfg` on `machine` with the given priority.
///
/// The scheduler is cycle-driven: each cycle it considers the data-ready
/// operations in priority order and issues as many as the machine's issue
/// width, register ports and function units admit.
///
/// # Panics
///
/// Panics if some operation can never be issued (its port demand exceeds
/// the machine even in an empty cycle) — callers must check ISE port
/// demand against `N_in`/`N_out` beforehand, as the exploration constraints
/// of §4.2 do.
///
/// # Example
///
/// ```
/// use isex_dfg::Operand;
/// use isex_isa::MachineConfig;
/// use isex_sched::{list_schedule, Priority, SchedDfg, SchedOp, UnitClass};
///
/// let mut g = SchedDfg::new();
/// let op = SchedOp::new(1, 1, 1, UnitClass::Alu);
/// let a = g.add_node(op, vec![]);
/// let b = g.add_node(op, vec![]);
/// let c = g.add_node(op, vec![Operand::Node(a), Operand::Node(b)]);
/// let m = MachineConfig::preset_2issue_4r2w();
/// let s = list_schedule(&g, &m, Priority::ChildCount);
/// assert_eq!(s.length, 2); // a and b co-issue, then c
/// ```
pub fn list_schedule(dfg: &SchedDfg, machine: &MachineConfig, priority: Priority) -> Schedule {
    let mut scratch = ListScratch::new();
    let length = list_schedule_len(dfg, machine, priority, &mut scratch);
    Schedule {
        start: std::mem::take(&mut scratch.start),
        length,
    }
}

/// [`list_schedule`] for callers that only need the makespan, reusing the
/// buffers in `scratch` (the lowered graph included) across calls.
pub fn list_schedule_len(
    dfg: &SchedDfg,
    machine: &MachineConfig,
    priority: Priority,
    scratch: &mut ListScratch,
) -> u32 {
    let mut g = std::mem::take(&mut scratch.graph);
    g.assign(dfg, |op| *op);
    let length = schedule_soa(&g, machine, priority, scratch);
    scratch.graph = g;
    length
}

/// Reusable buffers for the list scheduler: the lowered graph, issue
/// cycles, priorities, pending-predecessor counters, the ready list, the
/// completion heap and the resource table.
///
/// One `ListScratch` serves any sequence of `(graph, machine)` pairs —
/// every buffer is cleared (not reallocated) at the start of each schedule.
#[derive(Debug, Default)]
pub struct ListScratch {
    graph: SoaGraph,
    start: Vec<u32>,
    prio: Vec<i64>,
    pending: Vec<u32>,
    ready: Vec<u32>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    resources: Option<ResourceTable>,
}

impl ListScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Schedules `g` on `machine` with the given priority and returns the
/// makespan. This is the crate's one list-scheduling loop.
///
/// Each cycle, the data-ready nodes (every predecessor issued and
/// completed) are issued greedily in `(-priority, index)` order as far as
/// [`ResourceTable::can_issue`] admits; the index breaks ties, so the
/// schedule is deterministic and depends on the node numbering. Readiness
/// is kept by predecessor counters and a completion heap rather than a
/// rescan of every node, so a cycle costs O(ready), and cycles in which
/// nothing is ready are skipped (no decision could change in them).
///
/// # Panics
///
/// Panics if some operation's port demand exceeds the machine even in an
/// empty cycle, as [`list_schedule`] documents.
pub fn schedule_soa(
    g: &SoaGraph,
    machine: &MachineConfig,
    priority: Priority,
    scratch: &mut ListScratch,
) -> u32 {
    // One thread-local read when no tracer is attached — the scheduler is
    // called per candidate evaluation, so this must stay near-free.
    let _span = isex_trace::span_with("sched.list", || vec![("ops", g.len().to_string())]);
    let k = g.len();
    // Pre-check impossibility so the loop below cannot spin forever.
    for v in 0..k {
        assert!(
            g.reads[v] as usize <= machine.read_ports
                && g.writes[v] as usize <= machine.write_ports,
            "operation {v} demands {}R/{}W, machine has {}R/{}W",
            g.reads[v],
            g.writes[v],
            machine.read_ports,
            machine.write_ports
        );
    }
    let ListScratch {
        start,
        prio,
        pending,
        ready,
        heap,
        resources,
        ..
    } = scratch;
    priority.values_into(g, prio);
    start.clear();
    start.resize(k, 0);
    pending.clear();
    pending.extend((0..k).map(|v| g.preds(v).len() as u32));
    ready.clear();
    ready.extend((0..k as u32).filter(|&v| pending[v as usize] == 0));
    heap.clear();
    let rt = resources.get_or_insert_with(|| ResourceTable::new(*machine));
    rt.reset(*machine);
    let mut remaining = k;
    let mut cycle: u32 = 0;

    while remaining > 0 {
        while let Some(&Reverse((finish, node))) = heap.peek() {
            if finish > cycle {
                break;
            }
            heap.pop();
            for &s in g.succs(node as usize) {
                pending[s as usize] -= 1;
                if pending[s as usize] == 0 {
                    ready.push(s);
                }
            }
        }
        if ready.is_empty() {
            // Nothing can become ready before the next completion.
            let &Reverse((finish, _)) = heap.peek().expect("in-flight work exists");
            cycle = finish;
            continue;
        }
        // Priority order; node index breaks ties deterministically.
        ready.sort_unstable_by_key(|&v| (-prio[v as usize], v));
        let mut keep = 0;
        for i in 0..ready.len() {
            let v = ready[i];
            let op = g.op(v as usize);
            if rt.can_issue(cycle, &op) {
                rt.commit(cycle, &op);
                start[v as usize] = cycle;
                heap.push(Reverse((cycle + op.latency, v)));
                remaining -= 1;
            } else {
                ready[keep] = v;
                keep += 1;
            }
        }
        ready.truncate(keep);
        cycle += 1;
    }

    (0..k).map(|v| start[v] + g.lat[v]).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collapse::collapse_groups;
    use crate::soa::tests::{random_dfg, random_groups};
    use crate::timing;
    use crate::unit::{SchedOp, UnitClass};
    use isex_dfg::Operand;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-cycle rescan scheduler, kept as the reference for
    /// [`schedule_soa`]: every cycle it rescans all nodes for data
    /// readiness and issues the ready ones in `(-prio, index)` order.
    fn rescan_schedule(dfg: &SchedDfg, machine: &MachineConfig, prio: &[i64]) -> Schedule {
        let k = dfg.len();
        let mut start = vec![0u32; k];
        let mut scheduled = vec![false; k];
        let mut rt = ResourceTable::new(*machine);
        let (mut remaining, mut cycle) = (k, 0u32);
        while remaining > 0 {
            let mut ready: Vec<NodeId> = dfg
                .node_ids()
                .filter(|&n| {
                    !scheduled[n.index()]
                        && dfg.preds(n).all(|p| {
                            scheduled[p.index()]
                                && start[p.index()] + dfg.node(p).payload().latency <= cycle
                        })
                })
                .collect();
            ready.sort_by_key(|&n| (-prio[n.index()], n.index()));
            for n in ready {
                let op = dfg.node(n).payload();
                if rt.can_issue(cycle, op) {
                    rt.commit(cycle, op);
                    start[n.index()] = cycle;
                    scheduled[n.index()] = true;
                    remaining -= 1;
                }
            }
            cycle += 1;
        }
        let length = dfg
            .iter()
            .map(|(id, n)| start[id.index()] + n.payload().latency)
            .max()
            .unwrap_or(0);
        Schedule { start, length }
    }

    /// Priority values computed independently of the `soa` kernels:
    /// child counts on the `Dfg`, height as `len − ALAP` at the
    /// dependence-only length, and negated [`timing::mobility`].
    fn reference_priority(priority: Priority, dfg: &SchedDfg) -> Vec<i64> {
        match priority {
            Priority::ChildCount => dfg.node_ids().map(|n| dfg.child_count(n) as i64).collect(),
            Priority::Height => {
                let len = timing::dep_length(dfg);
                timing::alap(dfg, len)
                    .iter()
                    .map(|&l| (len - l) as i64)
                    .collect()
            }
            Priority::Mobility => timing::mobility(dfg).iter().map(|&m| -(m as i64)).collect(),
        }
    }

    /// The counter-driven scheduler must issue every node in the same cycle
    /// as the rescan reference: random DAGs and their quotients under
    /// random ISE groups (so `Asfu` vertices appear), every priority, on
    /// pipelined and blocking-ASFU machines, one scratch reused throughout.
    #[test]
    fn counter_scheduler_matches_rescan_scheduler() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut scratch = ListScratch::new();
        let machines = [
            MachineConfig::preset_2issue_4r2w(),
            MachineConfig::preset_4issue_10r5w(),
            MachineConfig::new(1, 4, 2),
        ];
        let (mut schedules, mut asfu_delayed) = (0usize, 0usize);
        for i in 0..40 {
            let k = rng.gen_range(2..50);
            let dfg = random_dfg(&mut rng, k);
            let groups = random_groups(&mut rng, k);
            let quotient = collapse_groups(&dfg, &groups).dfg;
            for (g, name) in [(&dfg, "base"), (&quotient, "quotient")] {
                let soa_graph = SoaGraph::from_sched(g);
                for p in [Priority::ChildCount, Priority::Height, Priority::Mobility] {
                    let prio = reference_priority(p, g);
                    assert_eq!(p.values(&soa_graph), prio, "graph {i} {name}: {p:?} values");
                    for m in machines {
                        let mut blocking = m;
                        blocking.asfu_pipelined = false;
                        let mut starts = Vec::new();
                        for machine in [m, blocking] {
                            let expect = rescan_schedule(g, &machine, &prio);
                            let length = list_schedule_len(g, &machine, p, &mut scratch);
                            let got = Schedule {
                                start: scratch.start.clone(),
                                length,
                            };
                            assert_eq!(got, expect, "graph {i} {name}: {p:?} on {machine:?}");
                            starts.push(got.start);
                            schedules += 1;
                        }
                        // The machines differ only in ASFU pipelining.
                        asfu_delayed += usize::from(starts[0] != starts[1]);
                    }
                }
            }
        }
        assert_eq!(schedules, 40 * 2 * 3 * 3 * 2);
        assert!(
            asfu_delayed >= 30,
            "a blocking ASFU delayed an issue in only {asfu_delayed} schedules"
        );
    }

    fn alu(reads: usize) -> SchedOp {
        SchedOp::new(1, reads, 1, UnitClass::Alu)
    }

    #[test]
    fn respects_dependences() {
        let mut g = SchedDfg::new();
        let a = g.add_node(alu(0), vec![]);
        let b = g.add_node(
            SchedOp::new(3, 1, 1, UnitClass::Alu),
            vec![Operand::Node(a)],
        );
        let c = g.add_node(alu(1), vec![Operand::Node(b)]);
        let m = MachineConfig::preset_4issue_10r5w();
        let s = list_schedule(&g, &m, Priority::Height);
        assert_eq!(s.start_of(a), 0);
        assert_eq!(s.start_of(b), 1);
        assert_eq!(s.start_of(c), 4, "b has latency 3");
        assert_eq!(s.length, 5);
    }

    #[test]
    fn respects_issue_width() {
        // 4 independent ops on a 2-issue machine: 2 cycles.
        let mut g = SchedDfg::new();
        for _ in 0..4 {
            g.add_node(alu(1), vec![]);
        }
        let m = MachineConfig::preset_2issue_6r3w();
        let s = list_schedule(&g, &m, Priority::ChildCount);
        assert_eq!(s.length, 2);
    }

    #[test]
    fn respects_read_ports() {
        // 2 ops needing 2 reads each on a 4-issue machine with 3 read
        // ports: cannot co-issue.
        let mut g = SchedDfg::new();
        g.add_node(alu(2), vec![]);
        g.add_node(alu(2), vec![]);
        let m = MachineConfig::new(4, 3, 4);
        let s = list_schedule(&g, &m, Priority::ChildCount);
        assert_eq!(s.length, 2);
    }

    #[test]
    fn paper_fig_1_3_1_shape() {
        // The intro's point: a 4-deep dependence chain stays 4 cycles even
        // with infinite width, while independent ops fold into fewer cycles.
        let mut g = SchedDfg::new();
        let mut prev = g.add_node(alu(0), vec![]);
        for _ in 0..3 {
            prev = g.add_node(alu(1), vec![Operand::Node(prev)]);
        }
        for _ in 0..4 {
            g.add_node(alu(0), vec![]);
        }
        let wide = MachineConfig::new(8, 32, 16);
        let s = list_schedule(&g, &wide, Priority::Height);
        assert_eq!(s.length, 4, "dependence chain bounds the schedule");
        let narrow = MachineConfig::new(1, 4, 2);
        let s1 = list_schedule(&g, &narrow, Priority::Height);
        assert_eq!(s1.length, 8, "single-issue executes all 8 ops serially");
    }

    #[test]
    fn asfu_and_alu_coissue() {
        let mut g = SchedDfg::new();
        g.add_node(SchedOp::new(1, 4, 2, UnitClass::Asfu), vec![]);
        g.add_node(alu(1), vec![]);
        let m = MachineConfig::preset_2issue_6r3w();
        let s = list_schedule(&g, &m, Priority::ChildCount);
        assert_eq!(s.length, 1, "ISE and a normal op issue together");
    }

    #[test]
    fn schedule_never_beats_dep_length() {
        let mut g = SchedDfg::new();
        let a = g.add_node(alu(0), vec![]);
        let b = g.add_node(alu(1), vec![Operand::Node(a)]);
        let _ = g.add_node(alu(1), vec![Operand::Node(b)]);
        let m = MachineConfig::preset_4issue_10r5w();
        let s = list_schedule(&g, &m, Priority::Mobility);
        assert!(s.length >= timing::dep_length(&g));
        assert_eq!(s.length, 3);
    }

    #[test]
    #[should_panic(expected = "demands")]
    fn impossible_demand_panics() {
        let mut g = SchedDfg::new();
        g.add_node(SchedOp::new(1, 9, 1, UnitClass::Asfu), vec![]);
        let m = MachineConfig::preset_2issue_4r2w();
        list_schedule(&g, &m, Priority::ChildCount);
    }

    #[test]
    fn blocking_asfu_serialises_independent_ises() {
        // Two independent 3-cycle ISEs: pipelined ASFU issues them in
        // consecutive cycles; a blocking ASFU forces a 3-cycle gap.
        let ise = SchedOp::new(3, 2, 1, UnitClass::Asfu);
        let mut g = SchedDfg::new();
        g.add_node(ise, vec![]);
        g.add_node(ise, vec![]);
        let pipelined = MachineConfig::preset_4issue_10r5w();
        let s = list_schedule(&g, &pipelined, Priority::Height);
        assert_eq!(s.length, 4, "issue at cycles 0 and 1");
        let mut blocking = pipelined;
        blocking.asfu_pipelined = false;
        let s = list_schedule(&g, &blocking, Priority::Height);
        assert_eq!(s.length, 6, "issue at cycles 0 and 3");
    }

    #[test]
    fn empty_graph_schedules_to_zero() {
        let g = SchedDfg::new();
        let m = MachineConfig::default();
        let s = list_schedule(&g, &m, Priority::ChildCount);
        assert_eq!(s.length, 0);
    }

    #[test]
    fn scratch_reuse_matches_fresh_schedules() {
        // The same scratch across graphs of different sizes and machines
        // must reproduce what a fresh list_schedule computes.
        let mut scratch = ListScratch::new();
        let mut big = SchedDfg::new();
        let mut prev = big.add_node(alu(0), vec![]);
        for _ in 0..6 {
            prev = big.add_node(alu(1), vec![Operand::Node(prev)]);
        }
        let mut small = SchedDfg::new();
        small.add_node(alu(0), vec![]);
        small.add_node(alu(0), vec![]);
        for (g, m) in [
            (&big, MachineConfig::preset_2issue_4r2w()),
            (&small, MachineConfig::new(1, 4, 2)),
            (&big, MachineConfig::preset_4issue_10r5w()),
        ] {
            for p in [Priority::ChildCount, Priority::Height, Priority::Mobility] {
                let fresh = list_schedule(g, &m, p);
                let reused = list_schedule_len(g, &m, p, &mut scratch);
                assert_eq!(reused, fresh.length, "{p:?}");
            }
        }
    }

    #[test]
    fn priorities_yield_valid_schedules() {
        // Same graph under all three priorities: all valid, maybe
        // different, none shorter than the dependence bound.
        let mut g = SchedDfg::new();
        let a = g.add_node(alu(0), vec![]);
        let b = g.add_node(alu(1), vec![Operand::Node(a)]);
        let c = g.add_node(alu(1), vec![Operand::Node(a)]);
        let _d = g.add_node(alu(2), vec![Operand::Node(b), Operand::Node(c)]);
        for p in [Priority::ChildCount, Priority::Height, Priority::Mobility] {
            let m = MachineConfig::preset_2issue_4r2w();
            let s = list_schedule(&g, &m, p);
            assert!(s.length >= timing::dep_length(&g));
            // dependences hold
            for (id, _) in g.iter() {
                for pr in g.preds(id) {
                    assert!(
                        s.start_of(pr) + g.node(pr).payload().latency <= s.start_of(id),
                        "{p:?}: dep violated"
                    );
                }
            }
        }
    }
}
