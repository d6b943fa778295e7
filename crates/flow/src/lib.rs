//! The end-to-end ISE design flow (thesis Fig. 3.1.1).
//!
//! `application profiling → basic-block selection → ISE exploration →
//! ISE merging → ISE selection & hardware sharing → ISE replacement →
//! instruction scheduling`.
//!
//! This crate drives the explorers of `isex-core` over profiled programs
//! and turns per-block candidates into whole-program numbers:
//!
//! * [`pattern`] — ISE candidates as re-usable instruction *patterns*
//!   (labelled subgraphs) with a subgraph-isomorphism matcher;
//! * [`merge`] — merging of pattern `B` into pattern `A` when `B` is a
//!   subgraph of `A` (hardware sharing across ASFUs);
//! * [`select`] — greedy selection under silicon-area and ISE-count
//!   budgets, ranked by profiled performance gain;
//! * [`replace`] — pattern matching and replacement in every block,
//!   followed by rescheduling;
//! * [`flow`] — the [`run_flow`] driver with the paper's
//!   "5 explorations per block, keep the best" repetition;
//! * [`run_ledger`] — the [`RunLedger`] every local, checkpointed and
//!   clustered run keeps its blocks in: resume, slot, reduce, save and cut;
//! * [`checkpoint`] — the per-block [`CheckpointEntry`] every report is
//!   reduced from ([`entry_from_repeats`] → [`finish_from_entries`]), plus
//!   crash-safe block-grain checkpointing to an `isex-store` directory
//!   ([`Checkpoints`]) and resume ([`run_flow_checkpointed`]);
//! * [`experiment`] — the parameter sweeps behind every evaluation figure.
//!
//! # Example
//!
//! ```
//! use isex_flow::{run_flow, Algorithm, FlowConfig};
//! use isex_workloads::{Benchmark, OptLevel};
//!
//! let program = Benchmark::Bitcount.program(OptLevel::O3);
//! let mut cfg = FlowConfig::paper_default(Algorithm::MultiIssue);
//! cfg.repeats = 1; // keep the doctest fast
//! cfg.params.max_iterations = 40;
//! let report = run_flow(&cfg, &program, 1);
//! assert!(report.cycles_after <= report.cycles_before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod emit;
pub mod experiment;
pub mod flow;
pub mod merge;
pub mod pattern;
pub mod replace;
pub mod report;
pub mod run_ledger;
pub mod select;

pub use checkpoint::{
    entry_from_repeats, explore_block_entry, explore_repeats, finish_from_entries,
    run_flow_checkpointed, run_key, CheckpointEntry, Checkpoints,
};
pub use flow::{
    hot_blocks, run_flow, run_flow_cancellable, run_flow_observed, Algorithm, BlockOutcome,
    FlowConfig, FlowReport,
};
pub use isex_engine::{CancelToken, Cancelled, FaultPlan, RepeatOutcome};
pub use pattern::IsePattern;
pub use run_ledger::{explore_run, Duplicate, Job, RunLedger};
pub use select::SelectedIse;
