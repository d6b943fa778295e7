//! The exploration graph `G+`: a DFG whose nodes carry their IO tables.
//!
//! §4.1: "A new graph `G+` is generated after the IO table is added to
//! `G`." Exploration rounds run on an [`ExGraph`]; after a round commits an
//! ISE the chosen subgraph is collapsed into a single frozen node and the
//! next round runs on the quotient (this is how "the algorithm also
//! schedules all instructions *including ISE and normal instructions*" in
//! Fig. 4.0.2 step 2).

use isex_dfg::{Dfg, NodeId, NodeSet};
use isex_isa::{HwOption, MachineConfig, ProgramDfg};
use isex_sched::collapse::{collapse_groups, CollapsedGraph};
use isex_sched::soa::SoaGraph;
use isex_sched::{schedule_soa, ListScratch, Priority, SchedOp, UnitClass};

/// What an exploration node stands for.
#[derive(Clone, Debug, PartialEq)]
pub enum ExKind {
    /// An original assembly operation (by original node id).
    Op(NodeId),
    /// An ISE committed in an earlier round (by commit index).
    FrozenIse(usize),
}

/// One node of the exploration graph: the scheduling footprint plus the
/// implementation options still open to the explorer.
#[derive(Clone, Debug, PartialEq)]
pub struct ExOp {
    /// Software-option latencies in cycles (index = SW option). Frozen ISEs
    /// carry exactly one "software" entry: their fixed ASFU latency.
    pub sw_delays: Vec<u32>,
    /// Hardware options still open (empty for ineligible ops and frozen
    /// ISEs).
    pub hw: Vec<HwOption>,
    /// Register read ports consumed at issue.
    pub reads: usize,
    /// Register write ports consumed at issue.
    pub writes: usize,
    /// Function-unit class of the software/frozen execution.
    pub class: UnitClass,
    /// Provenance.
    pub kind: ExKind,
}

impl ExOp {
    /// Returns `true` if the explorer may still put this node into an ISE.
    pub fn is_explorable(&self) -> bool {
        !self.hw.is_empty()
    }

    /// The latency of software option `j`.
    pub fn sw_latency(&self, j: usize) -> u32 {
        self.sw_delays[j]
    }

    /// The scheduling footprint of software option `j`.
    pub fn sched_op(&self, j: usize) -> SchedOp {
        SchedOp::new(self.sw_delays[j], self.reads, self.writes, self.class)
    }
}

/// A DFG in exploration form.
pub type ExGraph = Dfg<ExOp>;

/// Builds the exploration graph from an ISA-level block: every operation
/// keeps its IO table (§4.1's `G+`), lowered to scheduling footprints.
pub fn build(dfg: &ProgramDfg) -> ExGraph {
    dfg.map(|id, op| {
        let node = dfg.node(id);
        ExOp {
            sw_delays: op
                .io_table()
                .software()
                .iter()
                .map(|s| s.delay_cycles)
                .collect(),
            hw: if op.is_ise_eligible() {
                op.io_table().hardware().to_vec()
            } else {
                Vec::new()
            },
            reads: isex_sched::unit::register_reads(node.operands()),
            writes: isex_sched::unit::register_writes(op.opcode().class()),
            class: op.opcode().class().into(),
            kind: ExKind::Op(id),
        }
    })
}

/// Collapses a committed ISE (member set in *current-graph* coordinates)
/// into a single frozen node with the given footprint.
pub fn freeze(
    g: &ExGraph,
    members: &NodeSet,
    footprint: SchedOp,
    commit_index: usize,
) -> CollapsedGraph<ExOp> {
    let frozen = ExOp {
        sw_delays: vec![footprint.latency],
        hw: Vec::new(),
        reads: footprint.reads,
        writes: footprint.writes,
        class: UnitClass::Asfu,
        kind: ExKind::FrozenIse(commit_index),
    };
    collapse_groups(g, &[(members.clone(), frozen)])
}

/// Lowers the exploration graph to array form with every node on its
/// first software option (frozen ISEs on their fixed latency). This is the
/// "no new ISE" graph of the current round.
pub fn to_soa(g: &ExGraph) -> SoaGraph {
    SoaGraph::from_dfg(g, |op| op.sched_op(0))
}

/// The schedule length of `g` with no new ISEs, under the given machine.
///
/// Evaluation scheduling uses the critical-path (height) priority: the
/// measured cycle counts must reflect the code's potential, not the
/// weaknesses of a particular ready-list heuristic (the child-count SP is
/// still what ranks operations *inside* the exploration walks, per §4.3).
pub fn schedule_len(g: &ExGraph, machine: &MachineConfig) -> u32 {
    schedule_soa(
        &to_soa(g),
        machine,
        Priority::Height,
        &mut ListScratch::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use isex_dfg::Operand;
    use isex_isa::{Opcode, Operation};

    fn block() -> ProgramDfg {
        let mut dfg = ProgramDfg::new();
        let x = dfg.live_in();
        let a = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::LiveIn(x), Operand::Const(1)],
        );
        let b = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(a), Operand::LiveIn(x)],
        );
        let c = dfg.add_node(Operation::new(Opcode::Lw), vec![Operand::Node(b)]);
        dfg.set_live_out(c, true);
        dfg
    }

    #[test]
    fn build_keeps_tables_and_eligibility() {
        let g = build(&block());
        assert_eq!(g.len(), 3);
        let add = g.node(NodeId::new(0)).payload();
        assert_eq!(add.hw.len(), 2);
        assert_eq!(add.sw_delays, vec![1]);
        assert!(add.is_explorable());
        let lw = g.node(NodeId::new(2)).payload();
        assert!(lw.hw.is_empty(), "loads are not explorable");
        assert_eq!(lw.class, UnitClass::Mem);
        assert_eq!(lw.kind, ExKind::Op(NodeId::new(2)));
    }

    #[test]
    fn freeze_collapses_and_fixes_latency() {
        let g = build(&block());
        let mut s = NodeSet::new(3);
        s.insert(NodeId::new(0));
        s.insert(NodeId::new(1));
        let fp = SchedOp::new(2, 2, 1, UnitClass::Asfu);
        let out = freeze(&g, &s, fp, 0);
        assert_eq!(out.dfg.len(), 2);
        let ise = out.group_nodes[0];
        let p = out.dfg.node(ise).payload();
        assert_eq!(p.sw_delays, vec![2]);
        assert!(!p.is_explorable());
        assert_eq!(p.kind, ExKind::FrozenIse(0));
    }

    #[test]
    fn schedule_len_matches_plain_lowering() {
        let g = build(&block());
        let m = MachineConfig::preset_2issue_4r2w();
        // 3-op dependence chain: 3 cycles.
        assert_eq!(schedule_len(&g, &m), 3);
    }
}
