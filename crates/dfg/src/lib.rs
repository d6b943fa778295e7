//! Data-flow-graph substrate for instruction-set-extension exploration.
//!
//! This crate implements the graph layer that the whole ISE tool-chain is
//! built on: a compact directed-acyclic-graph container ([`Dfg`]), dense node
//! bitsets ([`NodeSet`]), reachability analysis ([`Reachability`]),
//! convexity checking and repair ([`convex`]), and input/output register-port
//! counting for candidate subgraphs ([`ports`]).
//!
//! The paper formulates ISE exploration over a data-flow graph `G(V, E)`
//! where every vertex is one assembly operation of a basic block and every
//! edge `(u, v)` means that `v` consumes the value produced by `u`
//! (thesis §4.0). An ISE candidate is a subgraph `S ⊆ G` subject to the
//! constraints of §4.2: `IN(S) ≤ N_in`, `OUT(S) ≤ N_out`, `S` convex, and no
//! load/store operation inside `S`. Everything needed to evaluate those
//! constraints — except the load/store opcode classification, which lives in
//! `isex-isa` — is provided here in a payload-generic way.
//!
//! [`Dfg::preds`]/[`Dfg::succs`] yield each node's distinct neighbours in
//! first-occurrence order. The hot loops do not walk them per query: each
//! exploration round and each replaced block is frozen once into
//! `isex-sched`'s struct-of-arrays graph (`SoaGraph`), whose CSR rows hold
//! exactly those sequences.
//!
//! # Example
//!
//! ```
//! use isex_dfg::{Dfg, Operand};
//!
//! // Build  a = x + y;  b = a << 2
//! let mut dfg: Dfg<&'static str> = Dfg::new();
//! let x = dfg.live_in();
//! let y = dfg.live_in();
//! let a = dfg.add_node("add", vec![Operand::LiveIn(x), Operand::LiveIn(y)]);
//! let b = dfg.add_node("sll", vec![Operand::Node(a), Operand::Const(2)]);
//! dfg.set_live_out(b, true);
//!
//! assert_eq!(dfg.len(), 2);
//! assert_eq!(dfg.preds(b).count(), 1);
//! assert_eq!(dfg.succs(a).count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod graph;

pub mod analysis;
pub mod convex;
pub mod dot;
pub mod ports;

pub use analysis::Reachability;
pub use bitset::NodeSet;
pub use graph::{Dfg, DfgNode, NodeId, Operand, ValueId};
