//! Block entries — the one intermediate form of every run — and
//! crash-safe checkpointing.
//!
//! Every [`FlowReport`] is reduced from one [`CheckpointEntry`] per hot
//! block by [`finish_from_entries`]. A local run builds its entries with
//! [`explore_entries`]; a cluster coordinator builds them from repeat
//! outcomes off the wire with [`entry_from_repeats`], the same reduction.
//!
//! [`run_flow_checkpointed`] explores the hot set one block at a time and
//! saves each finished block's entry to an `isex-store` directory through
//! [`Checkpoints`] *before* moving on. If the process dies — `kill -9`,
//! OOM, power loss — a re-run with the same directory skips every block
//! whose entry is there and re-explores only the rest. Because job seeds
//! derive from a block's *canonical* index in the hot list (see
//! [`isex_engine::Engine::explore`]), the resumed run's [`FlowReport`] is
//! bitwise identical to an uninterrupted one.
//!
//! Crash safety is the store's: each entry is written to a temp file,
//! fsync'd and renamed into place, and read back checksummed, so a crash
//! leaves whole entries plus at most a stray temp file, and a torn or
//! damaged entry reads as a miss. Entries are keyed by [`run_key`], a
//! canonical rendering of every input that affects exploration, plus the
//! block index; an entry of a different run (other seed, machine, params,
//! program, …) is never found, let alone trusted.

use std::path::Path;
use std::time::Instant;

use isex_engine::{
    reduce_repeats, BlockReduction, BlockSpread, CancelToken, Cancelled, Engine, EventSink,
    ExploreJob, RepeatOutcome, RunMetrics,
};
use isex_store::Store;
use isex_workloads::{BasicBlock, Program};
use serde::{Deserialize, Serialize};

use crate::flow::{
    block_task, explore_spec, hot_blocks, replace_and_report, FlowConfig, FlowReport,
};
use crate::merge::WeightedPattern;
use crate::select;

/// Why a checkpointed run did not produce a report.
#[derive(Debug)]
pub enum CheckpointError {
    /// Checkpoint store I/O failed (the saved state is still consistent:
    /// the store never holds a partially written entry).
    Io(std::io::Error),
    /// The run's [`CancelToken`] tripped; completed blocks stay saved and a
    /// re-run resumes from them.
    Cancelled,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint store I/O: {e}"),
            CheckpointError::Cancelled => f.write_str("run cancelled"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<Cancelled> for CheckpointError {
    fn from(_: Cancelled) -> Self {
        CheckpointError::Cancelled
    }
}

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
    /// included, since the skipped repeat might have survived. Degraded
    /// entries are never *saved* by [`Checkpoints`] — a resume must
    /// recompute the block — but they do reach the coordinator's cut path,
    /// which folds worker partials into a degraded report.
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
    /// the cut.
    pub fn save(&self, entry: &CheckpointEntry) -> std::io::Result<()> {
        if entry.degraded {
            return Ok(());
        }
        let payload = serde_json::to_string(entry).expect("entry serializes");
        let key = store_key(&entry.run_key, entry.block_index);
        self.store.insert(&key, payload.as_bytes()).map(|_| ())
    }
}

/// The store key of block `block_index` of the run `run_key`.
fn store_key(run_key: &str, block_index: usize) -> String {
    format!("checkpoint block {block_index} {run_key}")
}

/// The hot block at canonical index `block_index`.
///
/// # Panics
///
/// Panics if the index is outside the run's hot list.
fn hot_block<'p>(hot: &[&'p BasicBlock], block_index: usize) -> &'p BasicBlock {
    hot.get(block_index).copied().unwrap_or_else(|| {
        panic!(
            "block index {block_index} outside the hot list ({} blocks)",
            hot.len()
        )
    })
}

/// Explores exactly one block of the run's hot list, identified by its
/// canonical index, and packages the outcome as a [`CheckpointEntry`].
///
/// Seeds derive from the canonical index, so an entry produced here — on
/// any node — is bitwise identical to what the same block yields inside an
/// uninterrupted all-blocks run.
///
/// Anytime semantics: a token tripping mid-block yields an `Ok` entry with
/// [`CheckpointEntry::degraded`] set (the block's best-so-far) instead of
/// an error. The `Result` signature is kept for caller stability; the
/// `Err` variant is no longer produced.
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
    let hot = hot_blocks(cfg, program);
    let entry = explore_indices(cfg, program, seed, &hot, &[block_index], sink, cancel).pop();
    Ok(entry.expect("one block, one entry"))
}

/// Runs `(block, repeat)` jobs of the run — the cluster's unit of work:
/// a worker's one job, or every job a coordinator has no worker for — on
/// one engine pool, and returns their unreduced outcomes in `jobs` order,
/// each bitwise the one the same repeat yields in a whole run.
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
    let jobs: Vec<_> = jobs
        .iter()
        .map(|&(block, repeat)| {
            let task = block_task(hot_block(&hot, block));
            (task, ExploreJob::new(block, repeat, seed))
        })
        .collect();
    Engine::new(explore_spec(cfg)).explore_jobs(&jobs, sink, cancel)
}

/// Explores every hot block of the run and reduces each block's repeats to
/// its entry, in canonical block order — the exploration half of every
/// local run, ahead of [`finish_from_entries`].
///
/// All `(block, repeat)` jobs share one engine pool, so a worker that
/// finishes a small block steals the next job of a large one. Anytime: once
/// `cancel` trips no new job starts, running jobs stop at the next ACO
/// round boundary, and the cut blocks come back as degraded entries.
pub fn explore_entries(
    cfg: &FlowConfig,
    program: &Program,
    seed: u64,
    sink: &dyn EventSink,
    cancel: &CancelToken,
) -> Vec<CheckpointEntry> {
    let hot = hot_blocks(cfg, program);
    let indices: Vec<usize> = (0..hot.len()).collect();
    explore_indices(cfg, program, seed, &hot, &indices, sink, cancel)
}

/// Explores the hot blocks at canonical `indices` in one engine call
/// (under the `flow.explore` span) and reduces each to its entry (under
/// `flow.patterns`), in `indices` order.
fn explore_indices(
    cfg: &FlowConfig,
    program: &Program,
    seed: u64,
    hot: &[&BasicBlock],
    indices: &[usize],
    sink: &dyn EventSink,
    cancel: &CancelToken,
) -> Vec<CheckpointEntry> {
    let _trace = cfg.tracer.attach();
    let blocks: Vec<_> = indices
        .iter()
        .map(|&i| (block_task(hot_block(hot, i)), i))
        .collect();
    let outcomes = {
        let _s = cfg.tracer.span_with("flow.explore", || {
            vec![
                ("blocks", blocks.len().to_string()),
                ("seed", seed.to_string()),
            ]
        });
        Engine::new(explore_spec(cfg)).explore(&blocks, seed, sink, cancel)
    };
    let _s = cfg.tracer.span("flow.patterns");
    let key = run_key(cfg, program, seed);
    indices
        .iter()
        .zip(&outcomes)
        .map(|(&i, outcomes)| entry_from_repeats(&key, hot[i], i, outcomes))
        .collect()
}

/// Reduces one block's repeat outcomes, given in repeat order, to its
/// entry through the engine's [`reduce_repeats`].
///
/// Every path that builds a [`CheckpointEntry`] goes through here:
/// [`explore_entries`] (and so every local run), the checkpointed run,
/// [`explore_block_entry`], and the cluster coordinator once all of a
/// block's repeats are back (or, on a deadline, with the missing ones as
/// [`RepeatOutcome::Skipped`]).
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
/// Entries are sorted by canonical block index before reduction, so the
/// result is independent of completion order — a resumed run and a
/// cluster merge over any worker placement all reduce to the
/// same bytes as one uninterrupted [`run_flow`](crate::run_flow).
///
/// Jobs of the `hot_len × repeats` plan that no entry accounts for as
/// completed or failed count as skipped, and any skipped job or degraded
/// entry makes the run degraded. Only degraded blocks carry
/// `rounds_completed` provenance in the report.
///
/// The caller owns the exploration-phase accounting it alone can see:
/// `phases.explore_ms`, `phases.total_ms`, `blocks_resumed` and
/// `phase_profile` are left zeroed here.
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

/// [`run_flow`](crate::run_flow) with block-grain checkpointing to the
/// store directory `dir` (see [`Checkpoints`]).
///
/// Blocks are explored one engine call at a time (each with its canonical
/// index, so seeds — and therefore results — match an all-at-once run
/// bitwise) and saved as they finish. On resume, saved blocks are
/// skipped and counted in [`RunMetrics::blocks_resumed`]; their recorded
/// job counts, iterations, spreads and failures fold into the metrics so
/// totals match an uninterrupted run.
///
/// The one thing checkpointing costs is cross-block work stealing: a fresh
/// `run_flow` fans every job of every block into one pool, while this path
/// synchronises at each block boundary. For the paper's workloads (few hot
/// blocks × several repeats) the difference is noise; crash-safety is worth
/// it for long sweeps.
pub fn run_flow_checkpointed(
    cfg: &FlowConfig,
    program: &Program,
    seed: u64,
    sink: &dyn EventSink,
    cancel: &CancelToken,
    dir: &Path,
) -> Result<(FlowReport, RunMetrics), CheckpointError> {
    let start = Instant::now();
    let key = run_key(cfg, program, seed);
    let checkpoints = Checkpoints::open(dir)?;
    let hot_len = hot_blocks(cfg, program).len();
    let mut entries = Vec::with_capacity(hot_len);
    let mut resumed = 0;
    for index in 0..hot_len {
        if let Some(entry) = checkpoints.lookup(&key, index) {
            resumed += 1;
            entries.push(entry);
            continue;
        }
        let entry = explore_block_entry(cfg, program, seed, index, sink, cancel)?;
        if entry.degraded {
            // A degraded entry is a best-so-far partial, which is never
            // saved: completed blocks stay saved and the rest re-explore
            // on resume.
            return Err(CheckpointError::Cancelled);
        }
        checkpoints.save(&entry)?;
        entries.push(entry);
    }

    let explore_ms = start.elapsed().as_secs_f64() * 1e3;
    let (report, mut metrics) = finish_from_entries(cfg, program, seed, entries, hot_len);
    metrics.blocks_resumed = resumed;
    metrics.phases.explore_ms = explore_ms;
    metrics.phases.total_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok((report, metrics))
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

    /// Every ordering of `0..n`.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for rest in permutations(n - 1) {
            for at in 0..=rest.len() {
                let mut p = rest.clone();
                p.insert(at, n - 1);
                out.push(p);
            }
        }
        out
    }

    /// Slots block 0's `outcomes` (given in repeat order) in `order` of
    /// arrival, then reduces the block as a cluster coordinator does: from
    /// the complete set, or from a cut when some repeat never arrived.
    fn arrive(
        key: &str,
        block: &BasicBlock,
        outcomes: &[Option<RepeatOutcome>],
        order: &[usize],
    ) -> CheckpointEntry {
        let mut slots = isex_engine::RepeatSlots::new(1, outcomes.len());
        for &repeat in order {
            if let Some(outcome) = &outcomes[repeat] {
                assert!(slots.fill(0, repeat, outcome.clone()));
            }
        }
        let reduced = slots.complete(0).unwrap_or_else(|| slots.cut(0));
        entry_from_repeats(key, block, 0, &reduced)
    }

    #[test]
    fn arrival_order_never_reaches_the_reduction() {
        let program = Benchmark::Crc32.program(OptLevel::O3);
        let mut cfg = quick_cfg();
        cfg.repeats = 4;
        cfg.jobs = 1;
        cfg.params.max_iterations = 20;
        // Repeat 1 panics; repeat 2 trips the run's token at its start, so
        // it comes back degraded and repeat 3 never starts.
        cfg.fault_plan = Some(isex_engine::FaultPlan::parse("panic@0.1 cancel@0.2").unwrap());
        let seed = 5;
        let key = run_key(&cfg, &program, seed);
        let block = hot_blocks(&cfg, &program)[0];
        let expected =
            explore_block_entry(&cfg, &program, seed, 0, &NullSink, &CancelToken::new()).unwrap();
        let real = Engine::new(explore_spec(&cfg))
            .explore(
                &[(block_task(block), 0)],
                seed,
                &NullSink,
                &CancelToken::new(),
            )
            .pop()
            .unwrap();
        let explored = |o: &RepeatOutcome| match o {
            RepeatOutcome::Explored(e) => Some(e.clone()),
            _ => None,
        };
        assert!(matches!(real[1], RepeatOutcome::Panicked(_)));
        assert!(explored(&real[2]).is_some_and(|e| e.degraded));
        assert_eq!(real[3], RepeatOutcome::Skipped);

        // The real outcomes, in every arrival order, with the skipped
        // repeat both delivered (a job skipped at dispatch) and missing (a
        // deadline cut): always `explore_block_entry`'s entry.
        let delivered: Vec<Option<RepeatOutcome>> = real.iter().cloned().map(Some).collect();
        let mut missing = delivered.clone();
        missing[3] = None;
        for order in permutations(real.len()) {
            assert_eq!(
                arrive(&key, block, &delivered, &order),
                expected,
                "{order:?}"
            );
            assert_eq!(arrive(&key, block, &missing, &order), expected, "{order:?}");
        }

        // Ties: equal cycles and area, one of them degraded; equal cycles
        // and a larger area; a panic; a skip. The kept exploration is the
        // first non-degraded one of the full tie in repeat order — `rounds`
        // tells the tied ones apart — whatever order the repeats arrive in.
        let base = explored(&real[0]).unwrap();
        assert!(
            !base.candidates.is_empty(),
            "the area tie-break needs a candidate"
        );
        let with = |rounds: usize, degraded: bool, extra_area: f64| {
            let mut e = base.clone();
            e.rounds = rounds;
            e.degraded = degraded;
            e.candidates[0].area_um2 += extra_area;
            RepeatOutcome::Explored(e)
        };
        let tied = vec![
            Some(with(1, true, 0.0)),
            Some(with(7, false, 0.0)),
            Some(with(9, false, 0.0)),
            Some(with(3, false, 1.0)),
            Some(RepeatOutcome::Panicked("boom".into())),
            Some(RepeatOutcome::Skipped),
        ];
        let in_repeat_order: Vec<RepeatOutcome> = tied.iter().flatten().cloned().collect();
        let reference = entry_from_repeats(&key, block, 0, &in_repeat_order);
        assert!(reference.degraded, "a skipped repeat degrades the block");
        assert_eq!(reference.rounds_completed, Some(7));
        assert_eq!((reference.jobs_completed, reference.jobs_failed), (4, 1));
        for order in permutations(tied.len()) {
            assert_eq!(arrive(&key, block, &tied, &order), reference, "{order:?}");
        }
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
        let run = run_flow_checkpointed(&cfg, &program, 3, &NullSink, &CancelToken::new(), &dir);
        assert!(matches!(run, Err(CheckpointError::Cancelled)));
        let checkpoints = Checkpoints::open(&dir).unwrap();
        let key = run_key(&cfg, &program, 3);
        checkpoints.save(&entry).unwrap();
        assert_eq!(
            checkpoints.lookup(&key, 0),
            None,
            "a cut failure must be recomputed on resume, not inherited"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
