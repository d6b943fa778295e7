//! Multi-issue list scheduler and timing analysis for ISE exploration.
//!
//! The paper's key argument (§1.4) is that ISE exploration for a
//! multiple-issue processor must *embed instruction scheduling*: only
//! operations on the critical path are worth packing, and the critical path
//! moves after each new ISE. This crate provides the machinery:
//!
//! * a schedulable program form ([`SchedDfg`] = `Dfg<SchedOp>`) and the
//!   lowering from the ISA-level [`ProgramDfg`](isex_isa::ProgramDfg)
//!   ([`unit::lower`]);
//! * the struct-of-arrays graph every schedule and hot-loop pass runs on
//!   ([`soa::SoaGraph`]: the explorer's round graph, the ant walk's
//!   adjacency and replacement's block), with its ASAP/ALAP/height
//!   kernels, the quotient collapse of ISE groups ([`soa::collapse_soa`])
//!   and the quotient-free timing of an ant walk
//!   ([`soa::walk_timing_into`]);
//! * a per-cycle resource model — issue slots, register-file read/write
//!   ports, multiplier and memory units ([`resources`]);
//! * one in-order list scheduler with pluggable priority
//!   ([`list::schedule_soa`] on a `SoaGraph`, [`list_schedule`] on a
//!   `SchedDfg`, [`Priority`]);
//! * one collapse-and-schedule kernel, [`collapsed_len`]: the schedule
//!   length of a `SoaGraph` with ISE groups collapsed, which the
//!   explorer's candidate ranking and leave-one-out credit and ISE
//!   replacement all call;
//! * dependence-only timing on a `SchedDfg`: ASAP/ALAP, mobility,
//!   critical-path membership and the `Max_AEC` slack window of the merit
//!   function ([`timing`]) — the reference the `soa` kernels are tested
//!   against;
//! * collapsing of chosen ISE subgraphs into a quotient DFG of any payload
//!   ([`collapse::collapse_groups`]): the explorer's freeze of a committed
//!   ISE, and the reference `collapse_soa` is tested against;
//! * a text timeline of a schedule ([`display`]).
//!
//! # Example
//!
//! ```
//! use isex_isa::{MachineConfig, Opcode, Operation, ProgramDfg};
//! use isex_dfg::Operand;
//! use isex_sched::{list_schedule, unit, Priority};
//!
//! let mut dfg = ProgramDfg::new();
//! let x = dfg.live_in();
//! let a = dfg.add_node(Operation::new(Opcode::Add), vec![Operand::LiveIn(x), Operand::Const(1)]);
//! let b = dfg.add_node(Operation::new(Opcode::Sll), vec![Operand::Node(a), Operand::Const(2)]);
//! dfg.set_live_out(b, true);
//!
//! let sched_dfg = unit::lower(&dfg);
//! let m = MachineConfig::preset_2issue_4r2w();
//! let sched = list_schedule(&sched_dfg, &m, Priority::ChildCount);
//! assert_eq!(sched.length, 2); // a then b: pure dependence chain
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collapse;
pub mod display;
pub mod list;
pub mod resources;
pub mod soa;
pub mod timing;
pub mod unit;

pub use collapse::{collapsed_len, CollapseScratch};
pub use list::{list_schedule, list_schedule_len, schedule_soa, ListScratch, Priority, Schedule};
pub use unit::{SchedDfg, SchedOp, UnitClass};
