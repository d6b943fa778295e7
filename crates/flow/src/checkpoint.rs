//! Block entries — the one intermediate form of every run — and
//! crash-safe checkpointing.
//!
//! Every [`FlowReport`] is folded by [`finish_from_entries`] from one
//! [`CheckpointEntry`] per hot block, each reduced by
//! [`entry_from_repeats`] in a run's [`RunLedger`](crate::RunLedger).
//! [`run_flow_checkpointed`] saves each block's entry through
//! [`Checkpoints`] the moment the block completes, so a process that dies
//! loses at most the blocks in flight, and a re-run resumes the rest.
//! Job seeds derive from a block's *canonical* index in the hot list, so
//! the resumed report is bitwise identical to an uninterrupted one.
//!
//! Crash safety is the store's: each entry is written to a temp file,
//! fsync'd and renamed into place, and read back checksummed, so a crash
//! leaves whole entries plus at most a stray temp file, and a torn or
//! damaged entry reads as a miss. Entries are keyed by [`run_key`], a
//! canonical rendering of every input that affects exploration, plus the
//! block index; an entry of a different run (other seed, machine, params,
//! program, …) is never found, let alone trusted.

use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use isex_engine::{
    lock_unpoisoned, reduce_repeats, BlockReduction, BlockSpread, CancelToken, Cancelled, Engine,
    EventSink, ExploreJob, RepeatOutcome, RunMetrics,
};
use isex_store::Store;
use isex_workloads::{BasicBlock, Program};
use serde::{Deserialize, Serialize};

use crate::flow::{
    block_task, explore_spec, hot_blocks, replace_and_report, FlowConfig, FlowReport,
};
use crate::merge::WeightedPattern;
use crate::run_ledger::run_local;
use crate::select;

/// One explored block: everything the flow needs from that block's
/// exploration, plus the key binding it to its run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CheckpointEntry {
    /// The owning run's [`run_key`]; entries with a foreign key are skipped.
    pub run_key: String,
    /// Canonical index of the block in the hot list.
    pub block_index: usize,
    /// Block label (diagnostic only — the index is authoritative).
    pub block: String,
    /// Ant iterations the block's surviving repeats spent.
    pub iterations: usize,
    /// Repeat jobs that completed.
    pub jobs_completed: usize,
    /// Repeat jobs that panicked.
    pub jobs_failed: usize,
    /// Workers resurrected while exploring this block.
    pub worker_restarts: usize,
    /// Best-of-N spread, absent when every repeat panicked.
    pub spread: Option<BlockSpread>,
    /// The block's gain-weighted patterns, in candidate order.
    pub patterns: Vec<WeightedPattern>,
    /// First panic payload when the whole block failed.
    pub error: Option<String>,
    /// Whether the entry is best-so-far rather than canonical: some repeat
    /// was cut mid-rounds, or skipped by a tripped token — a failed block
    /// included, since the skipped repeat might have survived. A degraded
    /// entry reaches its run's report but is never saved: a resume must
    /// recompute the block.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub degraded: bool,
    /// ACO rounds the kept exploration completed; stamped only on
    /// degraded entries (`Some(0)` when no repeat explored).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rounds_completed: Option<usize>,
}

/// The canonical identity of a checkpointable run: every input that can
/// change a block's exploration result, rendered deterministically. Two
/// runs share checkpoint entries iff their keys are byte-identical.
pub fn run_key(cfg: &FlowConfig, program: &Program, seed: u64) -> String {
    // serde_json writes struct fields in declaration order, so this is a
    // stable rendering. Budgets and sharing are deliberately absent: they
    // only shape selection, which runs after the checkpointed phase.
    #[derive(Serialize)]
    struct Key {
        version: String,
        program: String,
        seed: u64,
        algorithm: String,
        repeats: usize,
        coverage: f64,
        machine: isex_isa::MachineConfig,
        constraints: isex_core::Constraints,
        params: isex_aco::AcoParams,
        fault_plan: Option<String>,
    }
    serde_json::to_string(&Key {
        version: env!("CARGO_PKG_VERSION").to_string(),
        program: program.name.clone(),
        seed,
        algorithm: cfg.algorithm.to_string(),
        repeats: cfg.repeats,
        coverage: cfg.hot_block_coverage,
        machine: cfg.machine,
        constraints: cfg.constraints,
        params: cfg.params,
        fault_plan: cfg.fault_plan.as_ref().map(|p| p.source().to_string()),
    })
    .expect("key serializes")
}

/// Block entries saved in an `isex-store` directory: the checkpoint of
/// [`run_flow_checkpointed`] and of the cluster coordinator alike.
///
/// Each entry is one store entry keyed by its run's [`run_key`] and its
/// block index, so it has the store's guarantees — atomic, checksummed,
/// fsync'd — and `isex store ls` lists it.
pub struct Checkpoints {
    store: Store,
}

impl Checkpoints {
    /// Opens (creating if needed) the store at `dir` with no byte budget,
    /// so no saved block is evicted as a side effect.
    pub fn open(dir: &Path) -> std::io::Result<Checkpoints> {
        Ok(Checkpoints {
            store: Store::open(dir, 0)?,
        })
    }

    /// The saved entry of block `block_index` of the run `run_key`. A
    /// missing, corrupt, undecodable or foreign entry is `None`, and the
    /// block is explored again.
    pub fn lookup(&self, run_key: &str, block_index: usize) -> Option<CheckpointEntry> {
        let payload = self.store.lookup(&store_key(run_key, block_index))?;
        let entry: CheckpointEntry =
            serde_json::from_str(std::str::from_utf8(&payload).ok()?).ok()?;
        (entry.run_key == run_key && entry.block_index == block_index).then_some(entry)
    }

    /// Saves `entry`; it is durable once this returns. A degraded entry is
    /// not saved: a resumed run must recompute a cut block, not inherit
    /// the cut. A failed save is logged, not returned — a lost save costs
    /// only a re-exploration on resume, so no run stops for one.
    pub fn save(&self, entry: &CheckpointEntry) {
        if entry.degraded {
            return;
        }
        let payload = serde_json::to_string(entry).expect("entry serializes");
        let key = store_key(&entry.run_key, entry.block_index);
        if let Err(e) = self.store.insert(&key, payload.as_bytes()) {
            let block = entry.block_index;
            eprintln!("isex: checkpoint save of block {block} failed: {e}");
        }
    }
}

/// The store key of block `block_index` of the run `run_key`.
fn store_key(run_key: &str, block_index: usize) -> String {
    format!("checkpoint block {block_index} {run_key}")
}

/// Explores the block at canonical index `block_index` of the run's hot
/// list, bitwise as a whole run does, and reduces it to its entry.
///
/// Anytime: a token tripping mid-block yields a
/// [`degraded`](CheckpointEntry::degraded) entry, never the `Err` variant,
/// which the signature keeps for its callers.
///
/// # Panics
///
/// Panics if `block_index` is outside the run's hot list.
pub fn explore_block_entry(
    cfg: &FlowConfig,
    program: &Program,
    seed: u64,
    block_index: usize,
    sink: &dyn EventSink,
    cancel: &CancelToken,
) -> Result<CheckpointEntry, Cancelled> {
    let jobs: Vec<_> = (0..cfg.repeats.max(1)).map(|r| (block_index, r)).collect();
    let outcomes = explore_repeats(cfg, program, seed, &jobs, sink, cancel);
    let block = hot_blocks(cfg, program)[block_index];
    let key = run_key(cfg, program, seed);
    Ok(entry_from_repeats(&key, block, block_index, &outcomes))
}

/// Runs `(block, repeat)` jobs of the run — the cluster's unit of work:
/// a worker's one job, or every job a coordinator has no worker for — on
/// one engine pool, and returns their unreduced outcomes in `jobs` order,
/// each bitwise the one the same repeat yields in a whole run; a job a
/// tripped token kept from starting is [`RepeatOutcome::Skipped`].
///
/// # Panics
///
/// Panics if a block index is outside the run's hot list; the cluster
/// worker checks indices off the wire against [`hot_blocks`] first.
pub fn explore_repeats(
    cfg: &FlowConfig,
    program: &Program,
    seed: u64,
    jobs: &[(usize, usize)],
    sink: &dyn EventSink,
    cancel: &CancelToken,
) -> Vec<RepeatOutcome> {
    let hot = hot_blocks(cfg, program);
    let len = hot.len();
    let jobs: Vec<_> = jobs
        .iter()
        .map(|&(block, repeat)| {
            let outside = || panic!("block index {block} outside the hot list ({len} blocks)");
            let task = block_task(hot.get(block).unwrap_or_else(outside));
            (task, ExploreJob::new(block, repeat, seed))
        })
        .collect();
    let outcomes = Mutex::new(vec![RepeatOutcome::Skipped; jobs.len()]);
    Engine::new(explore_spec(cfg)).explore_jobs(&jobs, sink, cancel, |i, outcome| {
        lock_unpoisoned(&outcomes)[i] = outcome;
    });
    outcomes
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Reduces one block's repeat outcomes, given in repeat order, to its
/// entry through the engine's [`reduce_repeats`]: every entry of every run
/// is made here.
pub fn entry_from_repeats(
    key: &str,
    block: &BasicBlock,
    block_index: usize,
    outcomes: &[RepeatOutcome],
) -> CheckpointEntry {
    let count = |want: fn(&RepeatOutcome) -> bool| outcomes.iter().filter(|o| want(o)).count();
    let jobs_failed = count(|o| matches!(o, RepeatOutcome::Panicked(_)));
    // A skipped repeat might have changed the block's answer, kept or
    // failed: without it the entry is best-so-far, not canonical.
    let skipped = count(|o| matches!(o, RepeatOutcome::Skipped)) > 0;
    let base = CheckpointEntry {
        run_key: key.to_string(),
        block_index,
        block: block.name.clone(),
        iterations: 0,
        jobs_completed: count(|o| matches!(o, RepeatOutcome::Explored(_))),
        jobs_failed,
        // Pool supervision resurrects one worker per caught panic.
        worker_restarts: jobs_failed,
        spread: None,
        patterns: Vec::new(),
        error: None,
        degraded: skipped,
        rounds_completed: skipped.then_some(0),
    };
    match reduce_repeats(&block.name, block_index, outcomes) {
        BlockReduction::Kept(result) => CheckpointEntry {
            iterations: result.iterations,
            patterns: result
                .best
                .candidates
                .iter()
                .map(|cand| WeightedPattern {
                    pattern: crate::pattern::IsePattern::from_candidate(cand, &block.dfg),
                    gain: cand.saved_cycles as u64 * block.exec_count,
                })
                .collect(),
            spread: Some(result.spread),
            degraded: result.degraded,
            rounds_completed: result.degraded.then_some(result.best.rounds),
            ..base
        },
        BlockReduction::Failed(failure) => CheckpointEntry {
            error: Some(failure.error),
            ..base
        },
        // Every repeat was skipped by the trip: a degraded empty entry —
        // no result yet, but no failure either.
        BlockReduction::Skipped => base,
    }
}

/// The reduce half of every run — local, checkpointed and clustered: folds
/// one [`CheckpointEntry`] per hot block into the final [`FlowReport`] and
/// [`RunMetrics`], selecting (under the `flow.select` span) and replacing
/// (under `flow.replace`) on the way.
///
/// Entries are sorted by canonical block index first, so a resumed run
/// and a cluster merge reduce to the bytes of one uninterrupted
/// [`run_flow`](crate::run_flow). Planned jobs no entry accounts for count
/// as skipped; a skipped job or a degraded entry degrades the run, and
/// only degraded blocks carry `rounds_completed` in the report. The run's
/// own accounting (`phases.explore_ms`/`total_ms`, `blocks_resumed`,
/// `phase_profile`) is left zeroed for
/// [`RunLedger::report`](crate::RunLedger::report) and its caller.
pub fn finish_from_entries(
    cfg: &FlowConfig,
    program: &Program,
    seed: u64,
    mut entries: Vec<CheckpointEntry>,
    hot_len: usize,
) -> (FlowReport, RunMetrics) {
    entries.sort_by_key(|e| e.block_index);
    let mut patterns = Vec::new();
    let mut iterations = 0usize;
    let mut metrics = RunMetrics::empty(seed, isex_engine::worker_count(cfg.jobs));
    metrics.algorithm = cfg.algorithm.to_string();
    metrics.benchmark = program.name.clone();
    metrics.jobs_total = hot_len * cfg.repeats.max(1);
    metrics.blocks_explored = hot_len;
    for entry in &mut entries {
        iterations += entry.iterations;
        metrics.ant_iterations += entry.iterations;
        metrics.jobs_completed += entry.jobs_completed;
        metrics.jobs_failed += entry.jobs_failed;
        metrics.worker_restarts += entry.worker_restarts;
        match &entry.spread {
            Some(spread) => metrics.block_spread.push(spread.clone()),
            // A spread-less entry with an error is a failed block; without
            // one it is a degraded empty entry (every repeat skipped) —
            // not a failure.
            None if entry.error.is_some() => {
                metrics.block_failures.push(isex_engine::BlockFailure {
                    block: entry.block.clone(),
                    block_index: entry.block_index,
                    repeats_failed: entry.jobs_failed,
                    error: entry.error.clone().unwrap_or_default(),
                })
            }
            None => {}
        }
        if entry.degraded {
            metrics.blocks_degraded += 1;
        }
        patterns.append(&mut entry.patterns);
    }
    metrics.jobs_skipped = metrics
        .jobs_total
        .saturating_sub(metrics.jobs_completed + metrics.jobs_failed);
    metrics.degraded = metrics.blocks_degraded > 0 || metrics.jobs_skipped > 0;
    metrics.candidates_generated = patterns.len();

    let select_start = Instant::now();
    let selected = {
        let _s = cfg.tracer.span_with("flow.select", || {
            vec![("candidates", patterns.len().to_string())]
        });
        select::select_with(patterns, &cfg.budgets, cfg.sharing)
    };
    metrics.phases.select_ms = select_start.elapsed().as_secs_f64() * 1e3;
    metrics.candidates_accepted = selected.len();

    let replace_start = Instant::now();
    let mut report = {
        let _s = cfg.tracer.span_with("flow.replace", || {
            vec![("ises", selected.len().to_string())]
        });
        replace_and_report(cfg, program, selected, hot_len, iterations)
    };
    metrics.phases.replace_ms = replace_start.elapsed().as_secs_f64() * 1e3;
    // Degraded runs carry their provenance on the report itself, so the
    // partial is self-describing wherever it travels (responses, CLI
    // output). Clean runs stamp nothing — the serde-skipped fields
    // keep their reports byte-identical to canonical output.
    if metrics.degraded {
        report.degraded = true;
        for outcome in &mut report.per_block {
            if let Some(entry) = entries.iter().find(|e| e.block == outcome.name) {
                if entry.degraded {
                    outcome.rounds_completed = entry.rounds_completed.or(Some(0));
                    outcome.degraded = true;
                }
            }
        }
    }
    (report, metrics)
}

/// [`run_flow_cancellable`](crate::run_flow_cancellable) with block-grain
/// checkpointing to the store directory `dir` (see [`Checkpoints`]).
///
/// Blocks whose entry the store holds are resumed (counted in
/// [`RunMetrics::blocks_resumed`], their totals folded in as recorded);
/// every job of every other block runs on one engine pool, and each clean
/// entry is saved as its block completes. A tripped `cancel` answers a
/// degraded report with the clean blocks saved for a re-run. Opening the
/// store is the only error.
pub fn run_flow_checkpointed(
    cfg: &FlowConfig,
    program: &Program,
    seed: u64,
    sink: &dyn EventSink,
    cancel: &CancelToken,
    dir: &Path,
) -> std::io::Result<(FlowReport, RunMetrics)> {
    let store = Checkpoints::open(dir)?;
    Ok(run_local(cfg, program, seed, sink, cancel, Some(&store)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{run_flow, Algorithm};
    use isex_engine::NullSink;
    use isex_workloads::{Benchmark, OptLevel};

    fn quick_cfg() -> FlowConfig {
        let mut cfg = FlowConfig::paper_default(Algorithm::MultiIssue);
        cfg.repeats = 2;
        cfg.params.max_iterations = 30;
        cfg
    }

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("isex-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpointed_run_matches_plain_run_bitwise() {
        let program = Benchmark::Crc32.program(OptLevel::O3);
        let cfg = quick_cfg();
        let dir = temp_store("fresh");
        let plain = run_flow(&cfg, &program, 9);
        let (checkpointed, metrics) =
            run_flow_checkpointed(&cfg, &program, 9, &NullSink, &CancelToken::new(), &dir).unwrap();
        assert_eq!(
            serde_json::to_string(&checkpointed).unwrap(),
            serde_json::to_string(&plain).unwrap()
        );
        assert_eq!(metrics.blocks_resumed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_skips_saved_blocks_and_reproduces_report() {
        let program = Benchmark::Bitcount.program(OptLevel::O3);
        let cfg = quick_cfg();
        let dir = temp_store("resume");
        let (first, first_metrics) =
            run_flow_checkpointed(&cfg, &program, 4, &NullSink, &CancelToken::new(), &dir).unwrap();
        assert!(first_metrics.blocks_explored > 0);
        // Second run over the same store: everything resumes, nothing is
        // re-explored, and the report is byte-identical.
        let (second, metrics) =
            run_flow_checkpointed(&cfg, &program, 4, &NullSink, &CancelToken::new(), &dir).unwrap();
        assert_eq!(metrics.blocks_resumed, first_metrics.blocks_explored);
        assert_eq!(
            serde_json::to_string(&second).unwrap(),
            serde_json::to_string(&first).unwrap()
        );

        // An entry filed under another run's or another block's key, or
        // one that does not decode, is a miss.
        let checkpoints = Checkpoints::open(&dir).unwrap();
        let key = run_key(&cfg, &program, 4);
        let saved = serde_json::to_string(&checkpoints.lookup(&key, 0).unwrap()).unwrap();
        for (run, block) in [("another run", 0), (key.as_str(), 1)] {
            let store_key = store_key(run, block);
            checkpoints
                .store
                .insert(&store_key, saved.as_bytes())
                .unwrap();
            assert_eq!(checkpoints.lookup(run, block), None, "{store_key}");
        }
        checkpoints.store.insert(&store_key(&key, 0), b"{").unwrap();
        assert_eq!(checkpoints.lookup(&key, 0), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_block_with_a_skipped_repeat_is_degraded_and_not_saved() {
        let program = Benchmark::Crc32.program(OptLevel::O3);
        let mut cfg = quick_cfg();
        cfg.jobs = 1;
        // Block 0's first repeat trips the run's token, then panics; its
        // second repeat never starts and might have survived.
        cfg.fault_plan = Some(isex_engine::FaultPlan::parse("cancel@0.0 panic@0.0").unwrap());
        let entry =
            explore_block_entry(&cfg, &program, 3, 0, &NullSink, &CancelToken::new()).unwrap();
        assert!(entry.error.is_some());
        assert_eq!((entry.jobs_completed, entry.jobs_failed), (0, 1));
        assert!(entry.degraded, "the failure is best-so-far, not canonical");
        assert_eq!(entry.rounds_completed, Some(0));

        let dir = temp_store("failed-skip");
        let (report, metrics) =
            run_flow_checkpointed(&cfg, &program, 3, &NullSink, &CancelToken::new(), &dir).unwrap();
        assert!(
            report.degraded && metrics.degraded,
            "a cut run answers, degraded"
        );
        let checkpoints = Checkpoints::open(&dir).unwrap();
        let key = run_key(&cfg, &program, 3);
        checkpoints.save(&entry);
        assert_eq!(
            checkpoints.lookup(&key, 0),
            None,
            "a cut failure must be recomputed on resume, not inherited"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
