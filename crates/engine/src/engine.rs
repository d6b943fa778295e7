//! The engine proper: job fan-out under pool supervision, per-block
//! best-of-N reduction (see [`reduce_repeats`]).

use std::time::Instant;

use isex_aco::AcoParams;
use isex_core::{Constraints, Exploration, MultiIssueExplorer, SingleIssueExplorer, TraceEntry};
use isex_isa::{MachineConfig, ProgramDfg};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::cancel::{CancelToken, Cancelled};
use crate::events::{EventSink, RunEvent};
use crate::fault::FaultPlan;
use crate::job::ExploreJob;
use crate::metrics::{BlockFailure, BlockSpread};
use crate::pool::{run_jobs_anytime, worker_count};
use crate::reduce::{reduce_repeats, BlockReduction, RepeatOutcome};

/// Which explorer drives a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Algorithm {
    /// The paper's multi-issue-aware explorer ("MI").
    MultiIssue,
    /// The legality-only baseline ("SI", Wu et al. \[8\]).
    SingleIssue,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Algorithm::MultiIssue => "MI",
            Algorithm::SingleIssue => "SI",
        })
    }
}

/// What to explore and how hard.
#[derive(Clone, Debug)]
pub struct ExploreSpec {
    /// The modelled machine.
    pub machine: MachineConfig,
    /// §4.2 port constraints.
    pub constraints: Constraints,
    /// ACO tunables.
    pub params: AcoParams,
    /// Explorer choice.
    pub algorithm: Algorithm,
    /// Explorations per block, best kept (§5.1 uses 5).
    pub repeats: usize,
    /// Worker threads; `0` = one per available core. Results are identical
    /// for every value — only wall time changes.
    pub jobs: usize,
    /// Deterministic fault injection (tests and resilience drills only).
    /// `None` in production; see [`FaultPlan`].
    pub fault_plan: Option<FaultPlan>,
    /// Span collector; [`Tracer::disabled`](isex_trace::Tracer::disabled)
    /// (the default) costs one atomic/thread-local check per span site.
    /// Tracing only observes — results stay bitwise identical.
    pub tracer: isex_trace::Tracer,
}

/// One block to explore.
#[derive(Clone, Copy)]
pub struct BlockTask<'a> {
    /// Label used in events and telemetry.
    pub name: &'a str,
    /// The block's data-flow graph.
    pub dfg: &'a ProgramDfg,
}

/// The kept (best-of-N) exploration of one block.
#[derive(Clone, Debug)]
pub struct BlockResult {
    /// Index into the task list passed to [`Engine::explore_blocks`].
    pub block_index: usize,
    /// The best exploration over the block's repeats.
    pub best: Exploration,
    /// Ant iterations summed over *all* the block's repeats.
    pub iterations: usize,
    /// Best-of-N consistency of the repeats.
    pub spread: BlockSpread,
    /// Repeats that ran to completion (= planned repeats unless the run
    /// was cut short).
    pub repeats_completed: usize,
    /// Whether this block's kept result is best-so-far rather than
    /// canonical: some repeats were skipped after a cancellation, or the
    /// kept exploration itself was cut mid-rounds.
    pub degraded: bool,
}

/// Aggregate outcome of one engine run.
#[derive(Clone, Debug)]
pub struct EngineOutcome {
    /// Per-block kept results, in task order. Blocks whose every repeat
    /// panicked are absent here and listed in `failures` instead.
    pub blocks: Vec<BlockResult>,
    /// Blocks that produced no kept exploration (every repeat panicked).
    pub failures: Vec<BlockFailure>,
    /// Canonical indices of blocks whose every repeat was skipped by a
    /// tripped token before it could start — no result, but no failure
    /// either. Empty unless `cancelled`.
    pub skipped_blocks: Vec<usize>,
    /// Jobs that ran to completion.
    pub jobs_completed: usize,
    /// Jobs that panicked and were isolated by pool supervision.
    pub jobs_failed: usize,
    /// Jobs never started because the token tripped first.
    pub jobs_skipped: usize,
    /// Whether the token tripped before every job completed — the outcome
    /// is a valid best-so-far partial, not the canonical answer.
    pub cancelled: bool,
    /// Workers logically resurrected after a caught panic.
    pub worker_restarts: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Exploration wall time, milliseconds.
    pub explore_ms: f64,
}

/// Runs exploration jobs deterministically in parallel.
///
/// For a fixed master seed the outcome is bitwise identical at any worker
/// count: every job's seed comes from [`crate::derive_seed`], jobs never
/// share RNG state, and results are reduced in job order, not completion
/// order.
pub struct Engine {
    spec: ExploreSpec,
}

impl Engine {
    /// Creates an engine.
    pub fn new(spec: ExploreSpec) -> Self {
        Engine { spec }
    }

    /// The spec this engine runs.
    pub fn spec(&self) -> &ExploreSpec {
        &self.spec
    }

    /// Explores every block `repeats` times, keeping each block's best
    /// exploration (fewest cycles, ties broken by smaller area).
    pub fn explore_blocks(
        &self,
        blocks: &[BlockTask<'_>],
        master_seed: u64,
        sink: &dyn EventSink,
    ) -> EngineOutcome {
        self.try_explore_blocks(blocks, master_seed, sink, &CancelToken::new())
            .expect("a fresh token never cancels")
    }

    /// [`explore_blocks`](Engine::explore_blocks) with cooperative
    /// cancellation: no new job starts once `cancel` trips, the in-progress
    /// jobs finish, and the run returns [`Cancelled`] instead of a partial
    /// outcome. A token that trips only after the last job completed still
    /// yields `Ok` — the full (and deterministic) outcome exists.
    pub fn try_explore_blocks(
        &self,
        blocks: &[BlockTask<'_>],
        master_seed: u64,
        sink: &dyn EventSink,
        cancel: &CancelToken,
    ) -> Result<EngineOutcome, Cancelled> {
        let indices: Vec<usize> = (0..blocks.len()).collect();
        self.try_explore_subset(blocks, &indices, master_seed, sink, cancel)
    }

    /// Explores a *subset* of a run's blocks, preserving their canonical
    /// block indices for seed derivation.
    ///
    /// `indices[i]` is the position `tasks[i]` holds in the full run's hot
    /// list; job seeds derive from that canonical index, so exploring
    /// blocks one at a time (the checkpoint/resume path) yields results
    /// bitwise identical to one all-blocks call. Panicking jobs are
    /// isolated: a block keeps the best of its surviving repeats, and a
    /// block whose every repeat panicked lands in
    /// [`EngineOutcome::failures`] instead of aborting the run.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` and `indices` differ in length.
    pub fn try_explore_subset(
        &self,
        tasks: &[BlockTask<'_>],
        indices: &[usize],
        master_seed: u64,
        sink: &dyn EventSink,
        cancel: &CancelToken,
    ) -> Result<EngineOutcome, Cancelled> {
        let outcome = self.explore_subset_anytime(tasks, indices, master_seed, sink, cancel);
        if outcome.cancelled {
            return Err(Cancelled);
        }
        Ok(outcome)
    }

    /// [`try_explore_subset`](Engine::try_explore_subset) with anytime
    /// semantics: a tripped token yields the best-so-far partial outcome
    /// (`cancelled: true`, per-block degraded provenance) instead of
    /// discarding completed work. With an untripped token the outcome is
    /// bitwise identical to the non-anytime path.
    pub fn explore_subset_anytime(
        &self,
        tasks: &[BlockTask<'_>],
        indices: &[usize],
        master_seed: u64,
        sink: &dyn EventSink,
        cancel: &CancelToken,
    ) -> EngineOutcome {
        assert_eq!(tasks.len(), indices.len(), "one canonical index per task");
        let repeats = self.spec.repeats.max(1);
        let start = Instant::now();
        let jobs = ExploreJob::plan_subset(indices, repeats, master_seed);
        // Jobs are planned task-major, `repeats` per task.
        let (outcomes, worker_restarts, cancelled) =
            self.run_outcomes(&jobs, |pos| tasks[pos / repeats], sink, cancel);

        let mut results = Vec::with_capacity(tasks.len());
        let mut failures = Vec::new();
        let mut skipped_blocks = Vec::new();
        let mut jobs_completed = 0usize;
        let mut jobs_failed = 0usize;
        let mut jobs_skipped = 0usize;
        for ((task, &block_index), per_block) in
            tasks.iter().zip(indices).zip(outcomes.chunks(repeats))
        {
            for outcome in per_block {
                match outcome {
                    RepeatOutcome::Explored(_) => jobs_completed += 1,
                    RepeatOutcome::Panicked(_) => jobs_failed += 1,
                    RepeatOutcome::Skipped => jobs_skipped += 1,
                }
            }
            match reduce_repeats(task.name, block_index, per_block) {
                BlockReduction::Kept(result) => results.push(result),
                BlockReduction::Failed(failure) => failures.push(failure),
                BlockReduction::Skipped => skipped_blocks.push(block_index),
            }
        }
        EngineOutcome {
            blocks: results,
            failures,
            skipped_blocks,
            jobs_completed,
            jobs_failed,
            jobs_skipped,
            cancelled,
            worker_restarts,
            workers: worker_count(self.spec.jobs),
            explore_ms: start.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// Runs every repeat of one block through the pool and returns their
    /// outcomes in repeat order, unreduced — the input
    /// [`reduce_repeats`] takes. `block_index` is the block's canonical
    /// index, which the seeds derive from.
    pub fn explore_repeats(
        &self,
        task: BlockTask<'_>,
        block_index: usize,
        master_seed: u64,
        sink: &dyn EventSink,
        cancel: &CancelToken,
    ) -> Vec<RepeatOutcome> {
        let jobs = ExploreJob::plan_subset(&[block_index], self.spec.repeats, master_seed);
        self.run_outcomes(&jobs, |_| task, sink, cancel).0
    }

    /// Runs one `(block, repeat)` job under the same pool supervision as a
    /// whole run: a panic comes back as [`RepeatOutcome::Panicked`] (and a
    /// `JobFailed` event), a token tripped before the start as
    /// [`RepeatOutcome::Skipped`], and a token tripped mid-rounds as a
    /// degraded exploration. The outcome is bitwise the one the same job
    /// yields inside an all-blocks run, because its seed is `job.seed`.
    pub fn explore_repeat(
        &self,
        task: BlockTask<'_>,
        job: ExploreJob,
        sink: &dyn EventSink,
        cancel: &CancelToken,
    ) -> RepeatOutcome {
        let (mut outcomes, _, _) =
            self.run_outcomes(std::slice::from_ref(&job), |_| task, sink, cancel);
        outcomes.pop().expect("one job, one outcome")
    }

    /// The supervised fan-out behind every entry point: runs `jobs` on the
    /// pool, `task_of(i)` naming job `i`'s block, and returns one outcome
    /// per job in job order, the pool's restart count, and whether the
    /// token skipped any job. Panicked jobs are reported as `JobFailed`
    /// events, in job order, once the pool has joined.
    fn run_outcomes<'t>(
        &self,
        jobs: &[ExploreJob],
        task_of: impl Fn(usize) -> BlockTask<'t> + Sync,
        sink: &dyn EventSink,
        cancel: &CancelToken,
    ) -> (Vec<RepeatOutcome>, usize, bool) {
        let pool = run_jobs_anytime(jobs, self.spec.jobs, cancel, |pos, job| {
            self.run_job(task_of(pos), *job, sink, cancel)
        });
        let outcomes = pool
            .results
            .into_iter()
            .zip(jobs)
            .enumerate()
            .map(|(pos, (slot, job))| match slot {
                Some(Ok(exploration)) => RepeatOutcome::Explored(exploration),
                Some(Err(panic)) => {
                    sink.emit(RunEvent::JobFailed {
                        block: task_of(pos).name.to_string(),
                        block_index: job.block_index,
                        repeat: job.repeat,
                        seed: job.seed,
                        error: panic.payload.clone(),
                        seq: crate::events::Seq(0),
                        trace: None,
                    });
                    RepeatOutcome::Panicked(panic.payload)
                }
                None => RepeatOutcome::Skipped,
            })
            .collect();
        (outcomes, pool.worker_restarts, pool.cancelled)
    }

    fn run_job(
        &self,
        task: BlockTask<'_>,
        job: ExploreJob,
        sink: &dyn EventSink,
        cancel: &CancelToken,
    ) -> Exploration {
        // Attach per job, not per worker: the pool's threads are scoped to
        // one engine call, and the guard flushes this thread's buffered
        // spans even when the job panics (unwinding drops it last).
        let _trace = self.spec.tracer.attach();
        let _job_span = self.spec.tracer.span_with("engine.job", || {
            vec![
                ("block", task.name.to_string()),
                ("block_index", job.block_index.to_string()),
                ("repeat", job.repeat.to_string()),
                ("seed", job.seed.to_string()),
            ]
        });
        if let Some(plan) = &self.spec.fault_plan {
            plan.apply(job.block_index, job.repeat, cancel);
        }
        sink.emit(RunEvent::JobStart {
            block: task.name.to_string(),
            block_index: job.block_index,
            repeat: job.repeat,
            seed: job.seed,
            seq: crate::events::Seq(0),
            trace: None,
        });
        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(job.seed);
        let (exploration, trace) = match self.spec.algorithm {
            Algorithm::MultiIssue => {
                let mut explorer = MultiIssueExplorer::with_params(
                    self.spec.machine,
                    self.spec.constraints,
                    self.spec.params,
                );
                // The anytime hook: a token tripping mid-job stops the
                // round loop at the next boundary, and the job returns its
                // best-so-far (degraded) exploration instead of burning the
                // rest of the deadline.
                explorer.stop = Some(cancel.flag());
                if sink.wants_traces() {
                    explorer.explore_traced(task.dfg, &mut rng)
                } else {
                    (explorer.explore(task.dfg, &mut rng), Vec::new())
                }
            }
            // The SI baseline records no per-iteration trace.
            Algorithm::SingleIssue => (
                SingleIssueExplorer::with_params(
                    self.spec.machine,
                    self.spec.constraints,
                    self.spec.params,
                )
                .explore(task.dfg, &mut rng),
                Vec::new(),
            ),
        };
        emit_round_summaries(&trace, task.name, &job, sink);
        sink.emit(RunEvent::JobFinish {
            block: task.name.to_string(),
            block_index: job.block_index,
            repeat: job.repeat,
            baseline_cycles: exploration.baseline_cycles,
            cycles: exploration.cycles_with_ises,
            iterations: exploration.iterations,
            candidates: exploration.candidates.len(),
            elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
            seq: crate::events::Seq(0),
            trace: None,
        });
        exploration
    }
}

fn emit_round_summaries(trace: &[TraceEntry], block: &str, job: &ExploreJob, sink: &dyn EventSink) {
    let mut i = 0;
    while i < trace.len() {
        let round = trace[i].round;
        let mut tets = Vec::new();
        let mut best_tet = u32::MAX;
        while i < trace.len() && trace[i].round == round {
            tets.push(trace[i].tet);
            best_tet = best_tet.min(trace[i].tet);
            i += 1;
        }
        sink.emit(RunEvent::RoundSummary {
            block: block.to_string(),
            block_index: job.block_index,
            repeat: job.repeat,
            round,
            best_tet,
            tets,
            seq: crate::events::Seq(0),
            trace: None,
        });
    }
}
