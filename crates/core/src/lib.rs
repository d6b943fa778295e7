//! ACO-based instruction-set-extension exploration for multiple-issue
//! architectures — the paper's core contribution.
//!
//! Given the data-flow graph of a hot basic block, an exploration finds
//! subgraphs worth turning into custom instructions (ISEs) executed on an
//! application-specific functional unit, **while scheduling the block on the
//! modelled multiple-issue machine**. The two multi-issue insights the paper
//! contributes (§1.4) are baked into the merit function:
//!
//! 1. only operations on the *critical path* of the current schedule are
//!    worth packing — packing slack operations wastes area;
//! 2. the critical path *moves* after each new ISE, so every exploration
//!    round re-schedules.
//!
//! The crate offers two explorers with one output type, and one
//! exploration driver ([`explore`]) that both run: the round loop (stop
//! flag, round budget, commit, freeze), the ACO iteration loop (trail
//! update, best-walk extraction, convergence, traces) and candidate
//! extraction. Each explorer is a strategy of that driver, supplying only
//! its walk builder, its merit update and how it ranks and credits
//! candidates:
//!
//! * [`MultiIssueExplorer`] — the proposed algorithm ("MI"): Ready-Matrix
//!   ant walks interleaved with list scheduling, the trail update of
//!   Fig. 4.3.5, Hardware-Grouping and the four-case merit function of
//!   Fig. 4.3.7, Make-Convex, one ISE per round until no gain remains;
//! * [`SingleIssueExplorer`] — the legality-only baseline in the style of
//!   Wu et al. \[8\] ("SI"): same ACO machinery and §4.2 constraints, but no
//!   scheduling and no critical-path/`Max_AEC` awareness.
//!
//! # Example
//!
//! ```
//! use isex_core::{Constraints, MultiIssueExplorer};
//! use isex_isa::{MachineConfig, Opcode, Operation, ProgramDfg};
//! use isex_dfg::Operand;
//! use rand::SeedableRng;
//!
//! // b = ((x + y) << 2) ^ y  — a 3-op dependence chain.
//! let mut dfg = ProgramDfg::new();
//! let x = dfg.live_in();
//! let y = dfg.live_in();
//! let a = dfg.add_node(Operation::new(Opcode::Add), vec![Operand::LiveIn(x), Operand::LiveIn(y)]);
//! let s = dfg.add_node(Operation::new(Opcode::Sll), vec![Operand::Node(a), Operand::Const(2)]);
//! let b = dfg.add_node(Operation::new(Opcode::Xor), vec![Operand::Node(s), Operand::LiveIn(y)]);
//! dfg.set_live_out(b, true);
//!
//! let machine = MachineConfig::preset_2issue_4r2w();
//! let explorer = MultiIssueExplorer::new(machine, Constraints::from_machine(&machine));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let result = explorer.explore(&dfg, &mut rng);
//! assert!(result.cycles_with_ises <= result.baseline_cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ant;

pub use ant::SpFunction;
mod candidate;
mod evalcache;
mod exgraph;
mod merit;
mod rows;
mod trail;

pub mod baseline;
pub mod exact;
pub mod explore;

pub use baseline::SingleIssueExplorer;
pub use candidate::{Constraints, IseCandidate};
pub use exact::ExactExplorer;
pub use exgraph::{ExGraph, ExKind, ExOp};
pub use explore::{Exploration, MultiIssueExplorer, TraceEntry};
