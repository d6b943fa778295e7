//! ISE replacement and rescheduling (§3.1 final stage).
//!
//! "The ISE replacement is performed to discover all instruction patterns
//! in the DFG that match selected ISEs, prioritizes these matches and
//! replaces the matches with ISEs"; afterwards "we … schedule the code
//! again to obtain execution time" (§5.1). The block is lowered once into
//! a `SoaGraph`, and every trial replacement is scheduled through the
//! explorer's collapse-and-schedule kernel, [`collapsed_len`]: the kept
//! matches are collapsed on that graph and the quotient list-scheduled.

use isex_dfg::{NodeSet, Reachability};
use isex_isa::{MachineConfig, ProgramDfg};
use isex_sched::soa::SoaGraph;
use isex_sched::{
    collapsed_len, schedule_soa, unit, CollapseScratch, ListScratch, Priority, SchedOp, UnitClass,
};

use crate::select::SelectedIse;

/// What replacement did to one block.
#[derive(Clone, Debug)]
pub struct BlockReplacement {
    /// Claimed matches: `(selection index, member nodes)`.
    pub matches: Vec<(usize, NodeSet)>,
    /// Schedule length before replacement, cycles.
    pub cycles_before: u32,
    /// Schedule length after replacement, cycles.
    pub cycles_after: u32,
}

/// Replaces every claimable match of `selection` (in rank order) inside
/// `dfg` and reschedules.
///
/// Matches never overlap: once an operation is claimed by a higher-ranked
/// ISE it is skipped by later ones.
pub fn replace_in_block(
    dfg: &ProgramDfg,
    selection: &[SelectedIse],
    machine: &MachineConfig,
) -> BlockReplacement {
    let reach = Reachability::compute(dfg);
    let base = SoaGraph::from_sched(&unit::lower(dfg));
    let cycles_before = schedule_soa(&base, machine, Priority::Height, &mut ListScratch::new());

    // Claim matches in rank order, but keep a match only if the rescheduled
    // block is no slower than without it — an ISE explored in one block may
    // serialise another block (single ASFU slot, multi-cycle latency).
    let mut claimed = NodeSet::new(dfg.len());
    let mut matches: Vec<(usize, NodeSet)> = Vec::new();
    let mut kept_units: Vec<(NodeSet, SchedOp)> = Vec::new();
    let mut best_cycles = cycles_before;
    let mut scratch = CollapseScratch::default();
    for (rank, sel) in selection.iter().enumerate() {
        for image in sel.pattern.find_matches(dfg, &reach) {
            if image.intersects(&claimed) {
                continue;
            }
            let op = SchedOp::new(
                sel.pattern.latency,
                sel.pattern.inputs,
                sel.pattern.outputs,
                UnitClass::Asfu,
            );
            kept_units.push((image.clone(), op));
            let len = collapsed_len(&base, &kept_units, machine, &mut scratch);
            if len <= best_cycles {
                best_cycles = len;
                claimed.union_with(&image);
                matches.push((rank, image));
            } else {
                kept_units.pop();
            }
        }
    }

    BlockReplacement {
        matches,
        cycles_before,
        cycles_after: best_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::IsePattern;
    use isex_core::IseCandidate;
    use isex_dfg::{NodeId, Operand};
    use isex_isa::{Opcode, Operation};

    /// Pattern `(x + y) << 2` (both ops fused, 1-cycle ASFU).
    fn addsll_selection() -> Vec<SelectedIse> {
        let mut dfg = ProgramDfg::new();
        let x = dfg.live_in();
        let y = dfg.live_in();
        let a = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::LiveIn(x), Operand::LiveIn(y)],
        );
        let s = dfg.add_node(
            Operation::new(Opcode::Sll),
            vec![Operand::Node(a), Operand::Const(2)],
        );
        dfg.set_live_out(s, true);
        let mut nodes = NodeSet::new(2);
        nodes.insert(a);
        nodes.insert(s);
        let cand = IseCandidate {
            nodes,
            choices: vec![(NodeId::new(0), 0), (NodeId::new(1), 0)],
            delay_ns: 7.04,
            latency: 1,
            area_um2: 1326.33,
            inputs: 2,
            outputs: 1,
            saved_cycles: 1,
        };
        vec![SelectedIse {
            pattern: IsePattern::from_candidate(&cand, &dfg),
            gain: 100,
            incremental_area: 1326.33,
        }]
    }

    /// A block with two independent `(u+v)<<2` instances chained by a xor.
    fn block() -> ProgramDfg {
        let mut dfg = ProgramDfg::new();
        let u = dfg.live_in();
        let v = dfg.live_in();
        let p = dfg.live_in();
        let q = dfg.live_in();
        let a1 = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::LiveIn(u), Operand::LiveIn(v)],
        );
        let s1 = dfg.add_node(
            Operation::new(Opcode::Sll),
            vec![Operand::Node(a1), Operand::Const(2)],
        );
        let a2 = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::LiveIn(p), Operand::LiveIn(q)],
        );
        let s2 = dfg.add_node(
            Operation::new(Opcode::Sll),
            vec![Operand::Node(a2), Operand::Const(2)],
        );
        let x = dfg.add_node(
            Operation::new(Opcode::Xor),
            vec![Operand::Node(s1), Operand::Node(s2)],
        );
        dfg.set_live_out(x, true);
        dfg
    }

    #[test]
    fn both_instances_replaced_and_schedule_shrinks() {
        let dfg = block();
        let sel = addsll_selection();
        let m = MachineConfig::preset_2issue_6r3w();
        let r = replace_in_block(&dfg, &sel, &m);
        assert_eq!(r.matches.len(), 2, "two disjoint matches claimed");
        // Before: 5 ops, chain depth 3, 2-issue → 3 cycles.
        assert_eq!(r.cycles_before, 3);
        // After: two 1-cycle ISEs co-issue? No — both are ASFU class, one
        // per cycle: ISE, ISE, xor → but they are independent, so
        // cycle1 = ISE1, cycle2 = ISE2, cycle3 = xor. Still 3? The second
        // ISE can issue in cycle 2 while xor waits for both: 3 cycles
        // before, after = 3 as well on this tiny block — but with 4/2 ports
        // replacement must never *hurt*.
        assert!(r.cycles_after <= r.cycles_before);
    }

    #[test]
    fn overlapping_matches_claimed_once() {
        // A single instance: the pattern matches once, not twice.
        let mut dfg = ProgramDfg::new();
        let u = dfg.live_in();
        let v = dfg.live_in();
        let a = dfg.add_node(
            Operation::new(Opcode::Add),
            vec![Operand::LiveIn(u), Operand::LiveIn(v)],
        );
        let s = dfg.add_node(
            Operation::new(Opcode::Sll),
            vec![Operand::Node(a), Operand::Const(2)],
        );
        dfg.set_live_out(s, true);
        let sel = addsll_selection();
        let m = MachineConfig::preset_2issue_4r2w();
        let r = replace_in_block(&dfg, &sel, &m);
        assert_eq!(r.matches.len(), 1);
        assert_eq!(r.cycles_before, 2);
        assert_eq!(r.cycles_after, 1, "two dependent ops became one ISE");
    }

    #[test]
    fn no_selection_is_identity() {
        let dfg = block();
        let m = MachineConfig::preset_2issue_4r2w();
        let r = replace_in_block(&dfg, &[], &m);
        assert!(r.matches.is_empty());
        assert_eq!(r.cycles_before, r.cycles_after);
    }
}
