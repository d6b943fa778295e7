//! Deterministic parallel exploration engine.
//!
//! Owns the execution of ISE exploration runs: turning a program's blocks
//! into [`ExploreJob`]s, deriving a per-job RNG seed that does not depend on
//! scheduling, fanning jobs out over a scoped-thread worker pool, and
//! collecting run telemetry ([`RunMetrics`]) plus an optional event stream.
//!
//! The central contract is **bitwise determinism**: for a fixed master seed
//! the engine produces identical results for any worker count, because every
//! job's seed is a pure function of `(master_seed, block_index, repeat)` and
//! results are committed in job order, not completion order.

mod cancel;
mod engine;
mod events;
mod fault;
mod job;
mod metrics;
mod pool;
mod reduce;
mod seed;

pub use cancel::{CancelToken, Cancelled};
pub use engine::{Algorithm, BlockResult, BlockTask, Engine, EngineOutcome, ExploreSpec};
pub use events::{EventSink, JsonlSink, NullSink, RunEvent, Seq, TaggedSink, VecSink};
pub use fault::{FaultKind, FaultPlan};
pub use job::ExploreJob;
pub use metrics::{BlockFailure, BlockSpread, PhaseProfile, PhaseStat, PhaseTimes, RunMetrics};
pub use pool::{
    run_jobs, run_jobs_anytime, run_jobs_cancellable, run_jobs_supervised, worker_count,
    AnytimeOutcome, JobPanic, PoolOutcome,
};
pub use reduce::{reduce_repeats, BlockReduction, RepeatOutcome, RepeatSlots};
pub use seed::derive_seed;
