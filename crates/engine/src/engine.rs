//! The engine proper: job fan-out, per-block best-of-N reduction.

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
        let workers = worker_count(self.spec.jobs);
        let start = Instant::now();
        let jobs = ExploreJob::plan_subset(indices, repeats, master_seed);
        let outcome = run_jobs_anytime(&jobs, self.spec.jobs, cancel, |pos, job| {
            // Jobs are planned task-major, `repeats` per task.
            self.run_job(tasks[pos / repeats], *job, sink, cancel)
        });

        let mut results = Vec::with_capacity(tasks.len());
        let mut failures = Vec::new();
        let mut skipped_blocks = Vec::new();
        let mut jobs_completed = 0usize;
        let mut jobs_failed = 0usize;
        let mut jobs_skipped = 0usize;
        for (t, ((task, &block_index), per_block)) in tasks
            .iter()
            .zip(indices.iter())
            .zip(outcome.results.chunks(repeats))
            .enumerate()
        {
            let survivors: Vec<&Exploration> = per_block
                .iter()
                .filter_map(|slot| slot.as_ref().and_then(|r| r.as_ref().ok()))
                .collect();
            jobs_completed += survivors.len();
            jobs_skipped += per_block.iter().filter(|slot| slot.is_none()).count();
            let mut panics = 0usize;
            for (rep, slot) in per_block.iter().enumerate() {
                if let Some(Err(p)) = slot {
                    panics += 1;
                    sink.emit(RunEvent::JobFailed {
                        block: task.name.to_string(),
                        block_index,
                        repeat: rep,
                        seed: jobs[t * repeats + rep].seed,
                        error: p.payload.clone(),
                        seq: crate::events::Seq(0),
                        trace: None,
                    });
                }
            }
            jobs_failed += panics;
            if survivors.is_empty() {
                if panics > 0 {
                    let error = per_block
                        .iter()
                        .find_map(|slot| slot.as_ref().and_then(|r| r.as_ref().err()))
                        .map(|p| p.payload.clone())
                        .unwrap_or_default();
                    failures.push(BlockFailure {
                        block: task.name.to_string(),
                        block_index,
                        repeats_failed: repeats,
                        error,
                    });
                } else {
                    // Every repeat was skipped by the trip: nothing ran,
                    // nothing failed — the block simply has no result yet.
                    skipped_blocks.push(block_index);
                }
                continue;
            }
            let iterations = survivors.iter().map(|e| e.iterations).sum();
            // Identical tie-break as the historical serial flow: cycles
            // first, then area, first-seen wins — in repeat order. On a
            // full tie a non-degraded exploration beats a degraded one, so
            // partial work never shadows an equally good canonical repeat.
            let mut best: Option<&Exploration> = None;
            for &e in &survivors {
                let better = match best {
                    None => true,
                    Some(b) => {
                        e.cycles_with_ises < b.cycles_with_ises
                            || (e.cycles_with_ises == b.cycles_with_ises
                                && e.total_area() < b.total_area())
                            || (e.cycles_with_ises == b.cycles_with_ises
                                && e.total_area() == b.total_area()
                                && b.degraded
                                && !e.degraded)
                    }
                };
                if better {
                    best = Some(e);
                }
            }
            let best = best.expect("at least one survivor").clone();
            let spread = BlockSpread {
                block: task.name.to_string(),
                repeats,
                baseline_cycles: best.baseline_cycles,
                best_cycles: best.cycles_with_ises,
                worst_cycles: survivors
                    .iter()
                    .map(|e| e.cycles_with_ises)
                    .max()
                    .expect("at least one survivor"),
            };
            let repeats_completed = survivors.len();
            let degraded = best.degraded || repeats_completed + panics < repeats;
            results.push(BlockResult {
                block_index,
                best,
                iterations,
                spread,
                repeats_completed,
                degraded,
            });
        }
        EngineOutcome {
            blocks: results,
            failures,
            skipped_blocks,
            jobs_completed,
            jobs_failed,
            jobs_skipped,
            cancelled: outcome.cancelled,
            worker_restarts: outcome.worker_restarts,
            workers,
            explore_ms: start.elapsed().as_secs_f64() * 1e3,
        }
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
