//! Block entries — the one intermediate form of every run — and
//! crash-safe checkpointing.
//!
//! Every [`FlowReport`] is reduced from one [`CheckpointEntry`] per hot
//! block by [`finish_from_entries`]. A local run builds its entries with
//! [`explore_entries`]; a cluster coordinator builds them from repeat
//! outcomes off the wire with [`entry_from_repeats`], the same reduction.
//!
//! [`run_flow_checkpointed`] explores the hot set one block at a time and
//! journals each finished block's entry to an append-only JSONL file
//! *before* moving on. If the process dies — `kill -9`, OOM, power loss — a
//! re-run with the same journal path skips every block whose entry is
//! present and re-explores only the rest. Because job seeds derive from a
//! block's *canonical* index in the hot list (see
//! [`isex_engine::Engine::explore`]), the resumed run's [`FlowReport`] is
//! bitwise identical to an uninterrupted one.
//!
//! # Journal format
//!
//! One JSON object per line, in completion order:
//!
//! ```text
//! {"run_key":"…","block_index":3,"block":"crc32_loop","iterations":…,
//!  "jobs_completed":5,"jobs_failed":0,"worker_restarts":0,
//!  "spread":{…}|null,"patterns":[{…}],"error":null|"…"}
//! ```
//!
//! Crash safety comes from the write discipline, not the format: a line is
//! appended, flushed, and fsynced before the next block starts, so the
//! journal always holds whole entries plus at most one torn trailing line
//! (which the loader discards). Entries are keyed by [`run_key`], a
//! canonical rendering of every input that affects exploration; entries
//! from a different run (other seed, machine, params, program, …) are
//! ignored rather than trusted.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::time::Instant;

use isex_engine::{
    reduce_repeats, BlockReduction, BlockSpread, CancelToken, Cancelled, Engine, EventSink,
    ExploreJob, RepeatOutcome, RunMetrics,
};
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
    /// Journal I/O failed (the exploration state is still consistent: the
    /// journal never holds a partially-applied block).
    Io(std::io::Error),
    /// The run's [`CancelToken`] tripped; completed blocks stay journaled
    /// and a re-run resumes from them.
    Cancelled,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint journal I/O: {e}"),
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

/// One journaled block: everything the flow needs from that block's
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
    /// entries are never *journaled* — a resume must recompute the block —
    /// but they do travel the cluster wire so the coordinator can fold
    /// worker partials into a degraded report.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub degraded: bool,
    /// ACO rounds the kept exploration completed; stamped only on
    /// degraded entries (`Some(0)` when no repeat explored).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rounds_completed: Option<usize>,
}

/// The canonical identity of a checkpointable run: every input that can
/// change a block's exploration result, rendered deterministically. Two
/// runs share journal entries iff their keys are byte-identical.
pub fn run_key(cfg: &FlowConfig, program: &Program, seed: u64) -> String {
    // serde_json writes struct fields in declaration order, so this is a
    // stable rendering. Budgets and sharing are deliberately absent: they
    // only shape selection, which runs after the journaled phase.
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

/// Loads the entries of `path` that belong to the run identified by `key`.
///
/// Missing file means a fresh run. Unparseable lines are tolerated *only*
/// as the final line (the torn tail of an interrupted append); a malformed
/// line with entries after it means the file is not a journal — it is
/// reported as corrupt rather than silently half-used.
pub fn load_journal(path: &Path, key: &str) -> std::io::Result<Vec<CheckpointEntry>> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut entries = Vec::new();
    let mut torn: Option<usize> = None;
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<CheckpointEntry>(&line) {
            Ok(entry) => {
                if let Some(bad) = torn {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "journal line {} is malformed but not the last line \
                             — refusing to resume from a corrupt journal",
                            bad + 1
                        ),
                    ));
                }
                if entry.run_key == key {
                    entries.push(entry);
                }
            }
            Err(_) => torn = Some(lineno),
        }
    }
    Ok(entries)
}

/// Truncates the residue of an append that died mid-write, so the next
/// append starts at a clean line boundary. Without this, a new entry would
/// concatenate onto the torn line and *both* would be lost to the next
/// resume — the journal would stay correct but stop being monotonic.
fn repair_torn_tail(path: &Path) -> std::io::Result<()> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let mut valid = 0usize;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        let terminated = line.ends_with(b"\n");
        let intact = std::str::from_utf8(line).is_ok_and(|text| {
            text.trim().is_empty() || serde_json::from_str::<CheckpointEntry>(text).is_ok()
        });
        if !terminated || !intact {
            break;
        }
        valid += line.len();
    }
    if valid < bytes.len() {
        OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(valid as u64)?;
    }
    Ok(())
}

/// Appends one entry, then flushes and fsyncs so the entry survives any
/// crash that happens after this returns. The one journal writer: the
/// checkpointed flow and the cluster coordinator both append through it.
pub fn append_entry(file: &mut File, entry: &CheckpointEntry) -> std::io::Result<()> {
    let line = serde_json::to_string(entry).expect("entry serializes");
    file.write_all(line.as_bytes())?;
    file.write_all(b"\n")?;
    file.flush()?;
    file.sync_data()
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

/// Runs one `(block, repeat)` job of the run — the cluster's unit of work —
/// and returns its unreduced outcome. The outcome is bitwise the one the
/// same repeat yields inside [`explore_block_entry`] or a whole run;
/// [`entry_from_repeats`] folds a block's outcomes into its entry.
///
/// # Panics
///
/// Panics if `block_index` is outside the run's hot list. Callers that take
/// the index from outside input (the cluster worker) check it against
/// [`hot_blocks`] first.
pub fn explore_block_repeat(
    cfg: &FlowConfig,
    program: &Program,
    seed: u64,
    block_index: usize,
    repeat: usize,
    sink: &dyn EventSink,
    cancel: &CancelToken,
) -> RepeatOutcome {
    let block = hot_block(&hot_blocks(cfg, program), block_index);
    Engine::new(explore_spec(cfg)).explore_repeat(
        block_task(block),
        ExploreJob::new(block_index, repeat, seed),
        sink,
        cancel,
    )
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
/// journal entry through the engine's [`reduce_repeats`].
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
/// result is independent of completion order — a journal replay, a resumed
/// run and a cluster merge over any worker placement all reduce to the
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
    // partial is self-describing wherever it travels (responses, journals,
    // CLI output). Clean runs stamp nothing — the serde-skipped fields
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
/// JSONL journal at `path`.
///
/// Blocks are explored one engine call at a time (each with its canonical
/// index, so seeds — and therefore results — match an all-at-once run
/// bitwise) and journaled as they finish. On resume, journaled blocks are
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
    path: &Path,
) -> Result<(FlowReport, RunMetrics), CheckpointError> {
    let start = Instant::now();
    let key = run_key(cfg, program, seed);
    let mut entries = load_journal(path, &key)?;
    let resumed = entries.len();
    repair_torn_tail(path)?;
    let mut journal = OpenOptions::new().create(true).append(true).open(path)?;

    let hot_len = hot_blocks(cfg, program).len();
    for index in 0..hot_len {
        if entries.iter().any(|e| e.block_index == index) {
            continue;
        }
        let entry = explore_block_entry(cfg, program, seed, index, sink, cancel)?;
        if entry.degraded {
            // A degraded entry is a best-so-far partial; journaling it
            // would make the resumed run inherit the cut instead of
            // recomputing the block canonically. Keep the journal clean
            // and surface the historical cancel contract: completed
            // blocks stay journaled, the rest re-explore on resume.
            return Err(CheckpointError::Cancelled);
        }
        append_entry(&mut journal, &entry)?;
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

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("isex-ckpt-{}-{tag}.jsonl", std::process::id()))
    }

    #[test]
    fn checkpointed_run_matches_plain_run_bitwise() {
        let program = Benchmark::Crc32.program(OptLevel::O3);
        let cfg = quick_cfg();
        let path = temp_journal("fresh");
        let _ = std::fs::remove_file(&path);
        let plain = run_flow(&cfg, &program, 9);
        let (checkpointed, metrics) =
            run_flow_checkpointed(&cfg, &program, 9, &NullSink, &CancelToken::new(), &path)
                .unwrap();
        assert_eq!(
            serde_json::to_string(&checkpointed).unwrap(),
            serde_json::to_string(&plain).unwrap()
        );
        assert_eq!(metrics.blocks_resumed, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_skips_journaled_blocks_and_reproduces_report() {
        let program = Benchmark::Bitcount.program(OptLevel::O3);
        let cfg = quick_cfg();
        let path = temp_journal("resume");
        let _ = std::fs::remove_file(&path);
        let (first, first_metrics) =
            run_flow_checkpointed(&cfg, &program, 4, &NullSink, &CancelToken::new(), &path)
                .unwrap();
        assert!(first_metrics.blocks_explored > 0);
        // Second run over the same journal: everything resumes, nothing is
        // re-explored, and the report is byte-identical.
        let (second, metrics) =
            run_flow_checkpointed(&cfg, &program, 4, &NullSink, &CancelToken::new(), &path)
                .unwrap();
        assert_eq!(metrics.blocks_resumed, first_metrics.blocks_explored);
        assert_eq!(
            serde_json::to_string(&second).unwrap(),
            serde_json::to_string(&first).unwrap()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_and_torn_journal_lines_are_tolerated() {
        let program = Benchmark::Crc32.program(OptLevel::O0);
        let cfg = quick_cfg();
        let path = temp_journal("torn");
        let _ = std::fs::remove_file(&path);
        let (first, _) =
            run_flow_checkpointed(&cfg, &program, 2, &NullSink, &CancelToken::new(), &path)
                .unwrap();
        // Simulate a crash mid-append: a torn half-line at the tail.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"run_key\":\"truncated mid-wri").unwrap();
        }
        let (again, _) =
            run_flow_checkpointed(&cfg, &program, 2, &NullSink, &CancelToken::new(), &path)
                .unwrap();
        assert_eq!(
            serde_json::to_string(&again).unwrap(),
            serde_json::to_string(&first).unwrap()
        );
        // A different seed has a different run_key: existing entries are
        // foreign to it and must not be reused.
        let key_other = run_key(&cfg, &program, 3);
        assert!(load_journal(&path, &key_other).unwrap().is_empty());
        let _ = std::fs::remove_file(&path);
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
    fn a_failed_block_with_a_skipped_repeat_is_degraded_and_not_journaled() {
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

        let path = temp_journal("failed-skip");
        let _ = std::fs::remove_file(&path);
        let run = run_flow_checkpointed(&cfg, &program, 3, &NullSink, &CancelToken::new(), &path);
        assert!(matches!(run, Err(CheckpointError::Cancelled)));
        let key = run_key(&cfg, &program, 3);
        assert!(
            load_journal(&path, &key).unwrap().is_empty(),
            "a cut failure must be recomputed on resume, not inherited"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_interior_line_is_refused() {
        let path = temp_journal("corrupt");
        let entry = CheckpointEntry {
            run_key: "k".to_string(),
            block_index: 0,
            block: "b".to_string(),
            iterations: 1,
            jobs_completed: 1,
            jobs_failed: 0,
            worker_restarts: 0,
            spread: None,
            patterns: Vec::new(),
            error: None,
            degraded: false,
            rounds_completed: None,
        };
        let good = serde_json::to_string(&entry).unwrap();
        // Malformed line *followed by* a well-formed entry: that is not a
        // torn tail, it is corruption — refuse to resume.
        std::fs::write(&path, format!("not json\n{good}\n")).unwrap();
        let err = load_journal(&path, "k").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The same malformed text as the *last* line is a torn append.
        std::fs::write(&path, format!("{good}\nnot json")).unwrap();
        assert_eq!(load_journal(&path, "k").unwrap(), vec![entry]);
        let _ = std::fs::remove_file(&path);
    }
}
