//! Deterministic parallel exploration engine.
//!
//! Owns the execution of ISE exploration runs: `(block, repeat)`
//! [`ExploreJob`]s, a per-job RNG seed that does not depend on scheduling,
//! one scoped-thread worker pool that runs any job list and hands each
//! outcome back as it lands ([`Engine::explore_jobs`]), and the reduction
//! of a block's [`RepeatOutcome`]s to its best-of-N result
//! ([`reduce_repeats`]). It also defines the run
//! telemetry ([`RunMetrics`]) and the optional event stream.
//!
//! The central contract is **bitwise determinism**: for a fixed master seed
//! the engine produces identical results for any worker count, because every
//! job's seed is a pure function of `(master_seed, block_index, repeat)` and
//! a block's outcomes are reduced in repeat order, not completion order.

mod cancel;
mod engine;
mod events;
mod fault;
mod flags;
mod job;
mod metrics;
mod pool;
mod reduce;
mod seed;

pub use cancel::{CancelToken, Cancelled, DeadlineTimer};
pub use engine::{Algorithm, BlockResult, BlockTask, Engine, ExploreSpec};
pub use events::{EventSink, JsonlSink, NullSink, RunEvent, Seq, TaggedSink, VecSink};
pub use fault::{FaultKind, FaultPlan};
pub use flags::Flags;
pub use job::ExploreJob;
pub use metrics::{BlockFailure, BlockSpread, PhaseProfile, PhaseStat, PhaseTimes, RunMetrics};
pub use pool::{
    lock_unpoisoned, panic_message, run_jobs, run_jobs_anytime, worker_count, JobPanic,
};
pub use reduce::{reduce_repeats, BlockReduction, RepeatOutcome, RepeatSlots};
pub use seed::derive_seed;
