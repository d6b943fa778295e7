//! Reproduces the motivating comparison of thesis Fig. 1.3.1: the same DFG
//! scheduled on single-issue vs 2-issue machines, with and without an ISE.
//!
//! The point of the figure: issue width alone cannot break a dependence
//! chain, an ISE alone cannot exploit parallelism — combining both wins.
//!
//! Run with: `cargo run --example motivation`

use isex::dfg::NodeSet;
use isex::prelude::*;
use isex::sched::collapse::collapse_groups;
use isex::sched::unit;

fn example_dfg() -> ProgramDfg {
    // A 4-deep critical chain plus independent side work, like Fig. 1.
    let mut dfg = ProgramDfg::new();
    let li: Vec<_> = (0..4).map(|_| dfg.live_in()).collect();
    let c1 = dfg.add_node(
        Operation::new(Opcode::Add),
        vec![Operand::LiveIn(li[0]), Operand::LiveIn(li[1])],
    );
    let c2 = dfg.add_node(
        Operation::new(Opcode::Sll),
        vec![Operand::Node(c1), Operand::Const(2)],
    );
    let c3 = dfg.add_node(
        Operation::new(Opcode::Xor),
        vec![Operand::Node(c2), Operand::LiveIn(li[2])],
    );
    let c4 = dfg.add_node(
        Operation::new(Opcode::And),
        vec![Operand::Node(c3), Operand::Const(0xff)],
    );
    dfg.set_live_out(c4, true);
    let s1 = dfg.add_node(
        Operation::new(Opcode::Sub),
        vec![Operand::LiveIn(li[2]), Operand::LiveIn(li[3])],
    );
    let s2 = dfg.add_node(
        Operation::new(Opcode::Or),
        vec![Operand::Node(s1), Operand::Const(1)],
    );
    let s3 = dfg.add_node(
        Operation::new(Opcode::Nor),
        vec![Operand::LiveIn(li[0]), Operand::LiveIn(li[3])],
    );
    let s4 = dfg.add_node(
        Operation::new(Opcode::Srl),
        vec![Operand::Node(s3), Operand::Const(4)],
    );
    dfg.set_live_out(s2, true);
    dfg.set_live_out(s4, true);
    dfg
}

fn main() {
    let dfg = example_dfg();
    let sched_dfg = unit::lower(&dfg);

    // The ISE packs the whole critical chain (ops 0..=3): delay
    // 4.04 + 3.0 + 4.17 + 1.58 = 12.79 ns → 2 cycles at 100 MHz.
    let mut chain = NodeSet::new(dfg.len());
    for i in 0..4u32 {
        chain.insert(isex::dfg::NodeId::new(i));
    }
    let ise = (chain, SchedOp::new(2, 3, 1, UnitClass::Asfu));
    let with_ise = collapse_groups(&sched_dfg, &[ise]);

    let single = MachineConfig::new(1, 4, 2);
    let dual = MachineConfig::preset_2issue_6r3w();

    println!("Fig. 1.3.1 reproduction — schedule lengths (cycles):\n");
    println!("{:<28}{:>10}{:>10}", "", "1-issue", "2-issue");
    let row = |label: &str, g: &SchedDfg| {
        let a = list_schedule(g, &single, Priority::Height).length;
        let b = list_schedule(g, &dual, Priority::Height).length;
        println!("{label:<28}{a:>10}{b:>10}");
        (a, b)
    };
    let (s_no, d_no) = row("without ISE", &sched_dfg);
    let (s_ise, d_ise) = row("with ISE (chain fused)", &with_ise.dfg);

    println!();
    println!("issue width alone:   {s_no} -> {d_no} cycles");
    println!("ISE alone:           {s_no} -> {s_ise} cycles");
    println!("both combined:       {s_no} -> {d_ise} cycles");
    assert!(
        d_ise < s_ise && d_ise < d_no,
        "combining ISE and issue width must beat either alone"
    );
}
