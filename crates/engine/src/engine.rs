//! The engine proper: `(block, repeat)` job fan-out under pool
//! supervision. The per-block best-of-N reduction is
//! [`reduce_repeats`](crate::reduce_repeats).

use std::time::Instant;

use isex_aco::AcoParams;
use isex_core::{Constraints, Exploration, MultiIssueExplorer, SingleIssueExplorer, TraceEntry};
use isex_isa::{MachineConfig, ProgramDfg};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::cancel::CancelToken;
use crate::events::{EventSink, RunEvent};
use crate::fault::FaultPlan;
use crate::job::ExploreJob;
use crate::metrics::BlockSpread;
use crate::pool::run_jobs_anytime;
use crate::reduce::RepeatOutcome;

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
    /// The block's canonical index in the run's hot list.
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
    /// canonical: some repeats were skipped after a cancellation, or some
    /// surviving exploration was cut mid-rounds.
    pub degraded: bool,
}

/// Runs exploration jobs deterministically in parallel.
///
/// For a fixed master seed the outcomes are bitwise identical at any worker
/// count: every job's seed comes from [`crate::derive_seed`], jobs never
/// share RNG state, and outcomes come back in job order, not completion
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

    /// Runs every `(block, repeat)` job of `blocks` on **one** pool and
    /// returns each block's outcomes in repeat order, blocks in the order
    /// given — the input [`reduce_repeats`](crate::reduce_repeats) takes.
    ///
    /// `blocks[i].1` is the block's canonical index in the run's hot list;
    /// its jobs' seeds derive from that index, so exploring any subset of
    /// a run's blocks (one at a time, on resume, on another node) yields
    /// the outcomes the same blocks get in an all-blocks call. All jobs
    /// go through [`Engine::explore_jobs`] on one pool, so a worker that
    /// finishes a small block steals the next job of a large one.
    pub fn explore(
        &self,
        blocks: &[(BlockTask<'_>, usize)],
        master_seed: u64,
        sink: &dyn EventSink,
        cancel: &CancelToken,
    ) -> Vec<Vec<RepeatOutcome>> {
        let repeats = self.spec.repeats.max(1);
        let indices: Vec<usize> = blocks.iter().map(|&(_, index)| index).collect();
        // Jobs are planned block-major, `repeats` per block.
        let jobs: Vec<_> = ExploreJob::plan_subset(&indices, repeats, master_seed)
            .into_iter()
            .enumerate()
            .map(|(pos, job)| (blocks[pos / repeats].0, job))
            .collect();
        let mut outcomes = self.explore_jobs(&jobs, sink, cancel).into_iter();
        blocks
            .iter()
            .map(|_| outcomes.by_ref().take(repeats).collect())
            .collect()
    }

    /// Runs any list of `(block, repeat)` jobs on **one** pool and returns
    /// one outcome per job, in job order; each is bitwise the one the same
    /// job yields in any other list, its seed being `job.seed`. A panic
    /// comes back as [`RepeatOutcome::Panicked`] (and a `JobFailed` event,
    /// once the pool has joined), a job the token kept from starting as
    /// [`RepeatOutcome::Skipped`], and one cut mid-rounds as a degraded
    /// exploration.
    pub fn explore_jobs(
        &self,
        jobs: &[(BlockTask<'_>, ExploreJob)],
        sink: &dyn EventSink,
        cancel: &CancelToken,
    ) -> Vec<RepeatOutcome> {
        let pool = run_jobs_anytime(jobs, self.spec.jobs, cancel, |_, &(task, job)| {
            self.run_job(task, job, sink, cancel)
        });
        pool.results
            .into_iter()
            .zip(jobs)
            .map(|(slot, &(task, job))| match slot {
                Some(Ok(exploration)) => RepeatOutcome::Explored(exploration),
                Some(Err(panic)) => {
                    sink.emit(RunEvent::job_failed(task.name, &job, &panic.payload));
                    RepeatOutcome::Panicked(panic.payload)
                }
                None => RepeatOutcome::Skipped,
            })
            .collect()
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
        sink.emit(RunEvent::job_start(task.name, &job));
        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(job.seed);
        let (machine, constraints, params) =
            (self.spec.machine, self.spec.constraints, self.spec.params);
        // The anytime hook: a token tripping mid-job stops the round loop
        // at the next boundary, and the job returns its best-so-far
        // (degraded) exploration instead of burning the rest of the
        // deadline.
        let stop = Some(cancel.flag());
        let mut trace = Vec::new();
        let record = sink.wants_traces().then_some(&mut trace);
        let exploration = match self.spec.algorithm {
            Algorithm::MultiIssue => MultiIssueExplorer {
                stop,
                ..MultiIssueExplorer::with_params(machine, constraints, params)
            }
            .explore_with_trace(task.dfg, &mut rng, record),
            Algorithm::SingleIssue => SingleIssueExplorer {
                stop,
                ..SingleIssueExplorer::with_params(machine, constraints, params)
            }
            .explore_with_trace(task.dfg, &mut rng, record),
        };
        emit_round_summaries(&trace, task.name, &job, sink);
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        sink.emit(RunEvent::job_finish(
            task.name,
            &job,
            Some(&exploration),
            elapsed_ms,
        ));
        exploration
    }
}

fn emit_round_summaries(trace: &[TraceEntry], block: &str, job: &ExploreJob, sink: &dyn EventSink) {
    for walks in trace.chunk_by(|a, b| a.round == b.round) {
        let tets: Vec<u32> = walks.iter().map(|e| e.tet).collect();
        sink.emit(RunEvent::RoundSummary {
            block: block.to_string(),
            block_index: job.block_index,
            repeat: job.repeat,
            round: walks[0].round,
            best_tet: tets.iter().copied().min().unwrap_or(u32::MAX),
            tets,
            seq: crate::events::Seq(0),
            trace: None,
        });
    }
}
