//! ISE merging (§3.1): "the algorithm merges the ISE B into ISE A, if
//! ISE B is a subgraph of ISE A", provided "the execution cycle of ISE B is
//! equal or larger than that of the identical subgraph in A" — otherwise
//! running B's computation on A's (slower) shared hardware would degrade
//! performance.
//!
//! Merging is what enables *hardware sharing* at selection time: a merged
//! pattern's ASFU serves both instructions, so its silicon area is paid
//! once.

use isex_dfg::{analysis, Reachability};
use serde::{Deserialize, Serialize};

use crate::pattern::IsePattern;

/// A pattern annotated with its profiled gain (cycles saved × block
/// executions), the unit the merger and selector work on.
///
/// Serializable because checkpoints persist each explored block's
/// patterns; see [`crate::checkpoint`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WeightedPattern {
    /// The pattern.
    pub pattern: IsePattern,
    /// Profiled whole-program gain in cycles.
    pub gain: u64,
}

/// Returns `true` if `b` is (isomorphic to) a subgraph of `a` whose
/// hardware is at least as fast as `b`'s own, i.e. `b` can be served by
/// `a`'s ASFU without performance loss.
pub fn merges_into(b: &IsePattern, a: &IsePattern) -> bool {
    if b.size() > a.size() {
        return false;
    }
    let a_dfg = a.to_dfg();
    let reach = Reachability::compute(&a_dfg);
    for image in b.find_matches(&a_dfg, &reach) {
        // Critical delay of the matched region under a's hardware choices.
        let delay = analysis::weighted_longest_path_within(&a_dfg, &image, |id, op| {
            let j = a.ops[id.index()].hw_choice;
            op.io_table().hardware().get(j).map_or(0.0, |h| h.delay_ns)
        });
        if delay <= b.delay_ns + 1e-9 {
            return true;
        }
    }
    false
}

/// Merges a candidate list: exact or subgraph-contained patterns are folded
/// into their containers, accumulating gains (both instructions execute,
/// both save their cycles) while the container's area is kept once.
///
/// Returns the surviving patterns, gain-descending.
pub fn merge_patterns(mut items: Vec<WeightedPattern>) -> Vec<WeightedPattern> {
    // Containers first so smaller patterns fold into the biggest host.
    items.sort_by(|x, y| {
        y.pattern
            .size()
            .cmp(&x.pattern.size())
            .then(y.gain.cmp(&x.gain))
    });
    let mut out: Vec<WeightedPattern> = Vec::new();
    'next: for item in items {
        for host in &mut out {
            if merges_into(&item.pattern, &host.pattern) {
                host.gain += item.gain;
                continue 'next;
            }
        }
        out.push(item);
    }
    out.sort_by_key(|x| std::cmp::Reverse(x.gain));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use isex_core::IseCandidate;
    use isex_dfg::{NodeId, NodeSet, Operand};
    use isex_isa::{Opcode, Operation, ProgramDfg};

    fn chain_pattern(opcodes: &[Opcode]) -> IsePattern {
        let mut dfg = ProgramDfg::new();
        let x = dfg.live_in();
        let mut prev = None;
        for (i, &op) in opcodes.iter().enumerate() {
            let operands = match prev {
                None => vec![Operand::LiveIn(x), Operand::Const(1)],
                Some(p) => vec![Operand::Node(p), Operand::Const(i as i64)],
            };
            prev = Some(dfg.add_node(Operation::new(op), operands));
        }
        dfg.set_live_out(prev.unwrap(), true);
        let mut nodes = NodeSet::new(opcodes.len());
        for i in 0..opcodes.len() {
            nodes.insert(NodeId::new(i as u32));
        }
        let delay: f64 = opcodes
            .iter()
            .map(|o| isex_isa::hw_table::hardware_options(*o)[0].delay_ns)
            .sum();
        let area: f64 = opcodes
            .iter()
            .map(|o| isex_isa::hw_table::hardware_options(*o)[0].area_um2)
            .sum();
        let cand = IseCandidate {
            nodes,
            choices: (0..opcodes.len())
                .map(|i| (NodeId::new(i as u32), 0))
                .collect(),
            delay_ns: delay,
            latency: (delay / 10.0).ceil().max(1.0) as u32,
            area_um2: area,
            inputs: 1,
            outputs: 1,
            saved_cycles: 1,
        };
        IsePattern::from_candidate(&cand, &dfg)
    }

    #[test]
    fn identical_patterns_merge() {
        let a = chain_pattern(&[Opcode::Add, Opcode::Sll]);
        let b = chain_pattern(&[Opcode::Add, Opcode::Sll]);
        assert!(merges_into(&b, &a));
        assert!(merges_into(&a, &b));
    }

    #[test]
    fn prefix_is_not_a_match_when_interior_escapes_differ() {
        // b = add (output) vs a = add -> sll where the add does NOT escape:
        // a's add cannot serve b's output, but pattern matching treats
        // output members permissively only for b's own outputs. The add in
        // a is internal (no live-out), and b's single op is an output that
        // may match any node; so b merges into a.
        let a = chain_pattern(&[Opcode::Add, Opcode::Sll]);
        let b = chain_pattern(&[Opcode::Add]);
        assert!(merges_into(&b, &a), "single add is served by a's adder");
        assert!(!merges_into(&a, &b), "bigger cannot fold into smaller");
    }

    #[test]
    fn different_shapes_do_not_merge() {
        let a = chain_pattern(&[Opcode::Add, Opcode::Sll]);
        let b = chain_pattern(&[Opcode::Xor, Opcode::Srl]);
        assert!(!merges_into(&b, &a));
    }

    #[test]
    fn merge_accumulates_gain_and_keeps_host() {
        let a = WeightedPattern {
            pattern: chain_pattern(&[Opcode::Add, Opcode::Sll, Opcode::Xor]),
            gain: 100,
        };
        let b = WeightedPattern {
            pattern: chain_pattern(&[Opcode::Add, Opcode::Sll]),
            gain: 40,
        };
        let c = WeightedPattern {
            pattern: chain_pattern(&[Opcode::Nor, Opcode::Nor]),
            gain: 70,
        };
        let merged = merge_patterns(vec![b, a, c]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].gain, 140, "b folded into a");
        assert_eq!(merged[0].pattern.size(), 3);
        assert_eq!(merged[1].gain, 70);
    }
}
