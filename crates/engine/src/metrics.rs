//! Run telemetry: what a run cost and how consistent the search was.

use serde::{Deserialize, Serialize};

pub use isex_trace::{PhaseProfile, PhaseStat};

/// Wall-clock time per flow phase, milliseconds.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Exploration (all jobs, wall time — not CPU time summed over workers).
    pub explore_ms: f64,
    /// Candidate selection under budgets.
    pub select_ms: f64,
    /// Pattern replacement and re-scheduling over all blocks.
    pub replace_ms: f64,
    /// End-to-end run time.
    pub total_ms: f64,
}

/// Best-of-N consistency of one block's repeated explorations.
///
/// A wide best/worst gap means the ACO search is noisy on this block and
/// the `repeats` knob is earning its keep; a zero gap means repeats are
/// redundant there.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BlockSpread {
    /// Block label.
    pub block: String,
    /// Explorations run.
    pub repeats: usize,
    /// Schedule length without ISEs, cycles.
    pub baseline_cycles: u32,
    /// Best `cycles_with_ises` over the repeats.
    pub best_cycles: u32,
    /// Worst `cycles_with_ises` over the repeats.
    pub worst_cycles: u32,
}

/// A block that produced **no** kept exploration: every one of its repeat
/// jobs panicked. The rest of the run is unaffected — jobs share no state,
/// so the supervisor drops only this block's patterns.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BlockFailure {
    /// Block label.
    pub block: String,
    /// Index of the block in the run's task list.
    pub block_index: usize,
    /// Repeat jobs that panicked (= all of the block's repeats).
    pub repeats_failed: usize,
    /// The first panic's payload, stringified.
    pub error: String,
}

/// Everything measured about one engine-driven flow run.
///
/// The leading *provenance* fields (`master_seed`, `algorithm`,
/// `benchmark`, `version`) make every serialized record self-describing:
/// a `--metrics` file or a server response can be re-run — and, thanks to
/// engine determinism, bitwise reproduced — from the record alone.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// The run's master seed.
    pub master_seed: u64,
    /// Explorer that drove the run (`"MI"` / `"SI"`), or `""` when the
    /// producing layer did not say.
    pub algorithm: String,
    /// Name of the explored program (e.g. `"crc32-O3"`), or `""`.
    pub benchmark: String,
    /// `isex-engine` crate version that produced the record.
    pub version: String,
    /// Worker threads used for exploration.
    pub workers: usize,
    /// Jobs planned (blocks × repeats).
    pub jobs_total: usize,
    /// Jobs that ran to completion.
    pub jobs_completed: usize,
    /// Jobs that panicked and were isolated by pool supervision.
    pub jobs_failed: usize,
    /// Workers logically resurrected after a caught panic (one per
    /// isolated job panic).
    pub worker_restarts: usize,
    /// Hot blocks explored.
    pub blocks_explored: usize,
    /// Blocks skipped because a checkpoint store already held their
    /// results (always 0 for non-checkpointed runs).
    pub blocks_resumed: usize,
    /// Blocks with no surviving exploration (every repeat panicked).
    pub block_failures: Vec<BlockFailure>,
    /// Ant iterations summed over all jobs.
    pub ant_iterations: usize,
    /// ISE candidates produced by the kept (best-of-N) explorations.
    pub candidates_generated: usize,
    /// Candidates that survived budgeted selection.
    pub candidates_accepted: usize,
    /// Per-phase wall time.
    pub phases: PhaseTimes,
    /// Per-block best-of-N spread.
    pub block_spread: Vec<BlockSpread>,
    /// Per-span-name aggregate from the run's tracer (empty when tracing
    /// was disabled; missing in pre-tracing records, which still parse).
    pub phase_profile: PhaseProfile,
    /// Whether the run was cut short (deadline, cancellation, or explicit
    /// round budget) and the report is a valid best-so-far partial rather
    /// than the canonical answer. Degraded records are barred from the
    /// result cache, the disk store, and coalesced job results. Absent
    /// from serialized form when `false`, so pristine records stay
    /// byte-identical to pre-anytime output (and old records still parse).
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub degraded: bool,
    /// Jobs never started because the run's token tripped first.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub jobs_skipped: usize,
    /// Blocks whose result is best-so-far (skipped repeats or a mid-rounds
    /// cut) in a degraded run.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub blocks_degraded: usize,
}

fn is_zero(n: &usize) -> bool {
    *n == 0
}

impl RunMetrics {
    /// An empty record for a run that explored nothing.
    pub fn empty(master_seed: u64, workers: usize) -> Self {
        RunMetrics {
            master_seed,
            algorithm: String::new(),
            benchmark: String::new(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            workers,
            jobs_total: 0,
            jobs_completed: 0,
            jobs_failed: 0,
            worker_restarts: 0,
            blocks_explored: 0,
            blocks_resumed: 0,
            block_failures: Vec::new(),
            ant_iterations: 0,
            candidates_generated: 0,
            candidates_accepted: 0,
            phases: PhaseTimes::default(),
            block_spread: Vec::new(),
            phase_profile: PhaseProfile::default(),
            degraded: false,
            jobs_skipped: 0,
            blocks_degraded: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_round_trip_through_json() {
        let mut m = RunMetrics::empty(7, 4);
        m.algorithm = "MI".to_string();
        m.benchmark = "crc32-O3".to_string();
        m.jobs_total = 10;
        m.jobs_completed = 9;
        m.jobs_failed = 1;
        m.worker_restarts = 1;
        m.blocks_resumed = 2;
        m.block_failures.push(BlockFailure {
            block: "poisoned".to_string(),
            block_index: 3,
            repeats_failed: 1,
            error: "injected fault: panic at block=3 repeat=0".to_string(),
        });
        m.ant_iterations = 1234;
        m.phase_profile.0.push(PhaseStat {
            name: "aco.round".to_string(),
            count: 3,
            total_ms: 4.5,
            max_ms: 2.0,
        });
        m.phases.explore_ms = 12.5;
        m.phases.total_ms = 13.0;
        m.block_spread.push(BlockSpread {
            block: "crc32_loop".to_string(),
            repeats: 5,
            baseline_cycles: 40,
            best_cycles: 28,
            worst_cycles: 33,
        });
        let text = serde_json::to_string_pretty(&m).unwrap();
        let back: RunMetrics = serde_json::from_str(&text).unwrap();
        assert_eq!(back, m);
    }
}
