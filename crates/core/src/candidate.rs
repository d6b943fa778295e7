//! Exploration constraints (§4.2) and the ISE candidate type.

use isex_dfg::{NodeId, NodeSet};
use isex_isa::MachineConfig;
use serde::{Deserialize, Serialize};

/// The hard constraints of the ISE formulation (§4.2):
/// `IN(S) ≤ N_in`, `OUT(S) ≤ N_out`, convexity, and no memory operations
/// (the last two are structural and always enforced).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Constraints {
    /// `N_in`: register-file read ports an ISE may use.
    pub n_in: usize,
    /// `N_out`: register-file write ports an ISE may use.
    pub n_out: usize,
}

impl Constraints {
    /// Creates explicit port constraints.
    ///
    /// # Panics
    ///
    /// Panics if either limit is zero.
    pub fn new(n_in: usize, n_out: usize) -> Self {
        assert!(n_in > 0 && n_out > 0, "port limits must be positive");
        Constraints { n_in, n_out }
    }

    /// Port constraints implied by the machine's register file (the paper
    /// lets an ISE use the full read/write port budget, e.g. 4/2 on the
    /// `4/2, 2IS` configuration).
    pub fn from_machine(machine: &MachineConfig) -> Self {
        Constraints::new(machine.read_ports, machine.write_ports)
    }
}

/// One explored ISE candidate: a convex, memory-free subgraph of the basic
/// block plus a chosen hardware implementation option for every member.
///
/// `nodes` and `choices` are in the *original* DFG's node coordinates, even
/// when the candidate was found in a later round on a partially collapsed
/// graph.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IseCandidate {
    /// Member operations of the subgraph `S`.
    pub nodes: NodeSet,
    /// Chosen hardware option index (into the member's IO-table hardware
    /// list) for every member, sorted by node id.
    pub choices: Vec<(NodeId, usize)>,
    /// Critical-path combinational delay through the ASFU, in ns.
    pub delay_ns: f64,
    /// Latency of the ISE instruction in cycles.
    pub latency: u32,
    /// Extra silicon area of the ASFU logic, in µm².
    pub area_um2: f64,
    /// `IN(S)`: distinct external input values.
    pub inputs: usize,
    /// `OUT(S)`: distinct externally visible output values.
    pub outputs: usize,
    /// Schedule-length improvement (cycles per block execution) measured
    /// when this candidate was committed during exploration.
    pub saved_cycles: u32,
}

impl IseCandidate {
    /// Number of member operations.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// The chosen hardware option index of `node`, if it is a member.
    pub fn choice_of(&self, node: NodeId) -> Option<usize> {
        self.choices
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, j)| *j)
    }

    /// Checks the §4.2 port constraints.
    pub fn satisfies(&self, constraints: &Constraints) -> bool {
        self.inputs <= constraints.n_in && self.outputs <= constraints.n_out
    }
}

impl std::fmt::Display for IseCandidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ISE[{} ops, {:.2} ns, {} cyc, {:.0} µm², {}in/{}out, saves {}]",
            self.size(),
            self.delay_ns,
            self.latency,
            self.area_um2,
            self.inputs,
            self.outputs,
            self.saved_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand() -> IseCandidate {
        let mut nodes = NodeSet::new(8);
        nodes.insert(NodeId::new(2));
        nodes.insert(NodeId::new(3));
        IseCandidate {
            nodes,
            choices: vec![(NodeId::new(2), 0), (NodeId::new(3), 1)],
            delay_ns: 6.2,
            latency: 1,
            area_um2: 1500.0,
            inputs: 3,
            outputs: 1,
            saved_cycles: 1,
        }
    }

    #[test]
    fn from_machine_copies_ports() {
        let c = Constraints::from_machine(&MachineConfig::preset_3issue_8r4w());
        assert_eq!((c.n_in, c.n_out), (8, 4));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ports_rejected() {
        Constraints::new(0, 1);
    }

    #[test]
    fn candidate_accessors() {
        let c = cand();
        assert_eq!(c.size(), 2);
        assert_eq!(c.choice_of(NodeId::new(3)), Some(1));
        assert_eq!(c.choice_of(NodeId::new(4)), None);
        assert!(c.satisfies(&Constraints::new(4, 2)));
        assert!(!c.satisfies(&Constraints::new(2, 2)));
        let s = c.to_string();
        assert!(s.contains("2 ops") && s.contains("3in/1out"));
    }
}
