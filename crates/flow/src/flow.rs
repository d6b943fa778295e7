//! The flow driver: profiling-driven block selection, repeated
//! exploration, selection, replacement and whole-program accounting.

use std::time::Instant;

use isex_aco::AcoParams;
use isex_core::Constraints;
use isex_engine::{
    BlockTask, CancelToken, Cancelled, Engine, EventSink, ExploreSpec, FaultPlan, NullSink,
    RunMetrics,
};
use isex_isa::MachineConfig;
use isex_trace::Tracer;
use isex_workloads::{BasicBlock, Program};
use serde::{Deserialize, Serialize};

// The explorer choice lives with the engine that runs it; re-exported here
// so `flow::Algorithm` keeps working.
pub use isex_engine::Algorithm;

use crate::merge::WeightedPattern;
use crate::pattern::IsePattern;
use crate::replace;
use crate::select::{self, Budgets, SelectedIse, SharingModel};

/// Configuration of one flow run.
#[derive(Clone, Debug)]
pub struct FlowConfig {
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
    /// Worker threads for exploration; `0` = one per available core.
    /// Results are bitwise identical for every value — only wall time
    /// changes (the engine derives each job's seed from its coordinates).
    pub jobs: usize,
    /// Selection budgets.
    pub budgets: Budgets,
    /// Hardware-sharing cost model used at selection.
    pub sharing: SharingModel,
    /// Fraction of profiled work the explored hot blocks must cover.
    pub hot_block_coverage: f64,
    /// Deterministic fault injection passed through to the engine.
    /// `None` (the default) in production; see [`FaultPlan`].
    pub fault_plan: Option<FaultPlan>,
    /// Span collector threaded through the whole run (flow phases, engine
    /// jobs, ACO rounds, scheduler passes). Disabled by default; tracing
    /// only observes, so reports stay bitwise identical either way.
    pub tracer: Tracer,
}

impl FlowConfig {
    /// The paper's §5.1 defaults on the 2-issue 4/2 machine.
    pub fn paper_default(algorithm: Algorithm) -> Self {
        let machine = MachineConfig::preset_2issue_4r2w();
        FlowConfig {
            machine,
            constraints: Constraints::from_machine(&machine),
            params: AcoParams::default(),
            algorithm,
            repeats: 5,
            jobs: 0,
            budgets: Budgets::default(),
            sharing: SharingModel::default(),
            hot_block_coverage: 0.95,
            fault_plan: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Same defaults on a specific machine.
    pub fn for_machine(algorithm: Algorithm, machine: MachineConfig) -> Self {
        FlowConfig {
            machine,
            constraints: Constraints::from_machine(&machine),
            ..Self::paper_default(algorithm)
        }
    }
}

/// Replacement outcome for one block.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BlockOutcome {
    /// Block label.
    pub name: String,
    /// Profiled executions.
    pub exec_count: u64,
    /// Cycles per execution before ISEs.
    pub cycles_before: u32,
    /// Cycles per execution after replacement.
    pub cycles_after: u32,
    /// Number of ISE instances placed in the block.
    pub matches: usize,
    /// ACO rounds completed by the block's kept exploration. Stamped only
    /// on degraded runs, and only for explored (hot) blocks — `0` for a
    /// hot block whose every repeat was skipped. Absent from serialized
    /// form otherwise, so clean reports stay byte-identical to
    /// pre-anytime output.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rounds_completed: Option<usize>,
    /// Whether this block's exploration was cut short (skipped repeats or
    /// a mid-rounds cut) and its result is best-so-far, not canonical.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub degraded: bool,
}

/// The whole-program result of one flow run.
///
/// Serializable so determinism can be checked end-to-end: two runs that
/// should agree are compared via their serialized forms, byte for byte.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FlowReport {
    /// Program name.
    pub program: String,
    /// The selected ISEs, rank order.
    pub selected: Vec<SelectedIse>,
    /// Total incremental silicon area, µm².
    pub total_area: f64,
    /// Profiled program cycles without ISEs.
    pub cycles_before: u64,
    /// Profiled program cycles with ISEs.
    pub cycles_after: u64,
    /// Per-block outcomes.
    pub per_block: Vec<BlockOutcome>,
    /// Blocks that were explored (hot set).
    pub explored_blocks: usize,
    /// Total ant iterations spent.
    pub iterations: usize,
    /// Whether the run was cut short (deadline or round budget) and this
    /// report is a valid best-so-far partial rather than the canonical
    /// answer. Absent from serialized form when `false`.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub degraded: bool,
}

impl FlowReport {
    /// Fractional execution-time reduction (`1 − after/before`).
    pub fn reduction(&self) -> f64 {
        if self.cycles_before == 0 {
            return 0.0;
        }
        1.0 - self.cycles_after as f64 / self.cycles_before as f64
    }
}

/// The exploration half of the flow: profile, pick hot blocks, explore each
/// `repeats` times keeping the best result, and return the gain-weighted
/// patterns. Exposed separately so budget sweeps can explore once and
/// re-select many times.
pub fn explore_program(
    cfg: &FlowConfig,
    program: &Program,
    seed: u64,
) -> (Vec<WeightedPattern>, usize, usize) {
    let (patterns, explored, iterations, _) =
        explore_program_observed(cfg, program, seed, &NullSink);
    (patterns, explored, iterations)
}

/// [`explore_program`] with telemetry: also emits engine events to `sink`
/// and returns partially-filled [`RunMetrics`] (exploration phase only —
/// [`run_flow_observed`] completes the selection/replacement fields).
pub fn explore_program_observed(
    cfg: &FlowConfig,
    program: &Program,
    seed: u64,
    sink: &dyn EventSink,
) -> (Vec<WeightedPattern>, usize, usize, RunMetrics) {
    explore_program_cancellable(cfg, program, seed, sink, &CancelToken::new())
        .expect("a fresh token never cancels")
}

/// [`explore_program_observed`] with cooperative cancellation and
/// *anytime* semantics: once `cancel` trips no new exploration job starts,
/// in-progress explorations stop at the next ACO round boundary, and the
/// run returns the best-so-far partial patterns with
/// [`RunMetrics::degraded`] set — never an error. The `Result` signature
/// is kept for caller stability; the `Err` variant is no longer produced.
pub fn explore_program_cancellable(
    cfg: &FlowConfig,
    program: &Program,
    seed: u64,
    sink: &dyn EventSink,
    cancel: &CancelToken,
) -> Result<(Vec<WeightedPattern>, usize, usize, RunMetrics), Cancelled> {
    let (patterns, explored, iterations, metrics, _) =
        explore_program_anytime(cfg, program, seed, sink, cancel);
    Ok((patterns, explored, iterations, metrics))
}

/// Anytime provenance of one explored block, threaded from the engine
/// outcome to the final report's [`BlockOutcome`] rows.
pub(crate) struct BlockProvenance {
    /// Block label (matches [`BlockOutcome::name`]).
    pub name: String,
    /// ACO rounds the kept exploration completed (`0` when every repeat
    /// was skipped).
    pub rounds_completed: usize,
    /// Whether the block's kept result is best-so-far, not canonical.
    pub degraded: bool,
}

/// The anytime core: explores as much as the token allows and reports what
/// it got, with per-block provenance.
pub(crate) fn explore_program_anytime(
    cfg: &FlowConfig,
    program: &Program,
    seed: u64,
    sink: &dyn EventSink,
    cancel: &CancelToken,
) -> (
    Vec<WeightedPattern>,
    usize,
    usize,
    RunMetrics,
    Vec<BlockProvenance>,
) {
    let _trace = cfg.tracer.attach();
    let hot = hot_blocks(cfg, program);
    let engine = Engine::new(explore_spec(cfg));
    let tasks: Vec<BlockTask<'_>> = hot
        .iter()
        .map(|b| BlockTask {
            name: b.name.as_str(),
            dfg: &b.dfg,
        })
        .collect();
    let indices: Vec<usize> = (0..tasks.len()).collect();
    let outcome = {
        let _s = cfg.tracer.span_with("flow.explore", || {
            vec![
                ("blocks", tasks.len().to_string()),
                ("seed", seed.to_string()),
            ]
        });
        engine.explore_subset_anytime(&tasks, &indices, seed, sink, cancel)
    };

    let _pattern_span = cfg.tracer.span("flow.patterns");
    let mut patterns = Vec::new();
    let mut iterations = 0usize;
    let mut metrics = RunMetrics::empty(seed, outcome.workers);
    metrics.algorithm = cfg.algorithm.to_string();
    metrics.benchmark = program.name.clone();
    metrics.jobs_total = tasks.len() * cfg.repeats.max(1);
    metrics.jobs_completed = outcome.jobs_completed;
    metrics.jobs_failed = outcome.jobs_failed;
    metrics.worker_restarts = outcome.worker_restarts;
    metrics.block_failures = outcome.failures.clone();
    metrics.blocks_explored = hot.len();
    metrics.phases.explore_ms = outcome.explore_ms;
    let mut provenance = Vec::new();
    for result in &outcome.blocks {
        let block = hot[result.block_index];
        iterations += result.iterations;
        metrics.ant_iterations += result.iterations;
        metrics.block_spread.push(result.spread.clone());
        provenance.push(BlockProvenance {
            name: block.name.clone(),
            rounds_completed: result.best.rounds,
            degraded: result.degraded,
        });
        for cand in &result.best.candidates {
            patterns.push(WeightedPattern {
                pattern: IsePattern::from_candidate(cand, &block.dfg),
                gain: cand.saved_cycles as u64 * block.exec_count,
            });
        }
    }
    // Hot blocks whose every repeat was skipped by the trip have no result
    // at all — still part of the partial report's provenance.
    for &block_index in &outcome.skipped_blocks {
        provenance.push(BlockProvenance {
            name: hot[block_index].name.clone(),
            rounds_completed: 0,
            degraded: true,
        });
    }
    metrics.jobs_skipped = outcome.jobs_skipped;
    metrics.blocks_degraded = provenance.iter().filter(|p| p.degraded).count();
    metrics.degraded = outcome.cancelled || metrics.blocks_degraded > 0;
    metrics.candidates_generated = patterns.len();
    (patterns, hot.len(), iterations, metrics, provenance)
}

/// The profiling-driven hot set: heaviest blocks first until
/// `hot_block_coverage` of the profiled work is covered. The order of the
/// returned slice defines the canonical block indices that job seeds derive
/// from — the checkpoint/resume and cluster-sharding paths depend on it
/// being stable: any node that holds the same `(cfg, program)` computes the
/// same list, so a bare block index is a complete job description.
pub fn hot_blocks<'a>(cfg: &FlowConfig, program: &'a Program) -> Vec<&'a BasicBlock> {
    let by_heat = program.by_heat();
    let total_work: f64 = by_heat
        .iter()
        .map(|b| b.exec_count as f64 * b.dfg.len() as f64)
        .sum();
    let mut covered = 0.0;
    let mut hot = Vec::new();
    for b in by_heat {
        if covered >= cfg.hot_block_coverage * total_work && !hot.is_empty() {
            break;
        }
        covered += b.exec_count as f64 * b.dfg.len() as f64;
        hot.push(b);
    }
    hot
}

/// The engine spec a flow config implies.
pub(crate) fn explore_spec(cfg: &FlowConfig) -> ExploreSpec {
    ExploreSpec {
        machine: cfg.machine,
        constraints: cfg.constraints,
        params: cfg.params,
        algorithm: cfg.algorithm,
        repeats: cfg.repeats,
        jobs: cfg.jobs,
        fault_plan: cfg.fault_plan.clone(),
        tracer: cfg.tracer.clone(),
    }
}

/// The selection/replacement half of the flow, given explored patterns.
pub fn finish_flow(
    cfg: &FlowConfig,
    program: &Program,
    patterns: Vec<WeightedPattern>,
    explored_blocks: usize,
    iterations: usize,
) -> FlowReport {
    let selected = select::select_with(patterns, &cfg.budgets, cfg.sharing);
    replace_and_report(cfg, program, selected, explored_blocks, iterations)
}

/// Replacement over every block plus whole-program accounting.
pub(crate) fn replace_and_report(
    cfg: &FlowConfig,
    program: &Program,
    selected: Vec<SelectedIse>,
    explored_blocks: usize,
    iterations: usize,
) -> FlowReport {
    let mut per_block = Vec::new();
    let mut before = 0u64;
    let mut after = 0u64;
    for block in &program.blocks {
        let _s = isex_trace::span_with("flow.reschedule", || vec![("block", block.name.clone())]);
        let r = replace::replace_in_block(&block.dfg, &selected, &cfg.machine);
        before += r.cycles_before as u64 * block.exec_count;
        after += r.cycles_after as u64 * block.exec_count;
        per_block.push(BlockOutcome {
            name: block.name.clone(),
            exec_count: block.exec_count,
            cycles_before: r.cycles_before,
            cycles_after: r.cycles_after,
            matches: r.matches.len(),
            rounds_completed: None,
            degraded: false,
        });
    }
    let total_area = select::total_area(&selected);
    FlowReport {
        program: program.name.clone(),
        selected,
        total_area,
        cycles_before: before,
        cycles_after: after,
        per_block,
        explored_blocks,
        iterations,
        degraded: false,
    }
}

/// The full design flow of Fig. 3.1.1 on one program.
pub fn run_flow(cfg: &FlowConfig, program: &Program, seed: u64) -> FlowReport {
    let (report, _) = run_flow_observed(cfg, program, seed, &NullSink);
    report
}

/// [`run_flow`] with telemetry: streams engine events to `sink` and returns
/// complete [`RunMetrics`] alongside the report.
pub fn run_flow_observed(
    cfg: &FlowConfig,
    program: &Program,
    seed: u64,
    sink: &dyn EventSink,
) -> (FlowReport, RunMetrics) {
    run_flow_cancellable(cfg, program, seed, sink, &CancelToken::new())
        .expect("a fresh token never cancels")
}

/// [`run_flow_observed`] with cooperative cancellation, for callers that
/// impose deadlines (the `isexd` server's per-request timeout). Anytime
/// semantics: once `cancel` trips, exploration stops at the next round
/// boundary and the run returns a *partial* report — each block's
/// best-so-far candidates, per-block `rounds_completed`/`degraded`
/// provenance, and [`RunMetrics::degraded`] set — instead of an error.
/// Selection/replacement are not interruptible — they are orders of
/// magnitude cheaper than exploration. The `Result` signature is kept for
/// caller stability; the `Err` variant is no longer produced. A token that
/// never trips (and an unbudgeted [`AcoParams::max_rounds`]) yields a
/// report byte-identical to [`run_flow`]'s.
pub fn run_flow_cancellable(
    cfg: &FlowConfig,
    program: &Program,
    seed: u64,
    sink: &dyn EventSink,
    cancel: &CancelToken,
) -> Result<(FlowReport, RunMetrics), Cancelled> {
    let _trace = cfg.tracer.attach();
    let start = Instant::now();
    let (patterns, explored, iterations, mut metrics, provenance) =
        explore_program_anytime(cfg, program, seed, sink, cancel);

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
        replace_and_report(cfg, program, selected, explored, iterations)
    };
    // Degraded runs carry their provenance on the report itself, so the
    // partial is self-describing wherever it travels (responses, journals,
    // CLI output). Clean runs stamp nothing — the serde-skipped fields
    // keep their reports byte-identical to `run_flow`'s.
    if metrics.degraded {
        report.degraded = true;
        for outcome in &mut report.per_block {
            if let Some(p) = provenance.iter().find(|p| p.name == outcome.name) {
                outcome.rounds_completed = Some(p.rounds_completed);
                outcome.degraded = p.degraded;
            }
        }
    }
    metrics.phases.replace_ms = replace_start.elapsed().as_secs_f64() * 1e3;
    metrics.phases.total_ms = start.elapsed().as_secs_f64() * 1e3;
    // Every span above is closed by now, so the aggregate covers the whole
    // run. An untraced run leaves the profile empty — the report itself
    // never depends on the tracer.
    metrics.phase_profile = cfg.tracer.phase_profile();
    Ok((report, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use isex_workloads::{Benchmark, OptLevel};

    fn quick_cfg(algorithm: Algorithm) -> FlowConfig {
        let mut cfg = FlowConfig::paper_default(algorithm);
        cfg.repeats = 1;
        cfg.params.max_iterations = 40;
        cfg
    }

    #[test]
    fn mi_flow_improves_bitcount() {
        let program = Benchmark::Bitcount.program(OptLevel::O3);
        let report = run_flow(&quick_cfg(Algorithm::MultiIssue), &program, 11);
        assert!(report.cycles_before > 0);
        assert!(
            report.cycles_after < report.cycles_before,
            "bitcount's SWAR chain is the canonical ISE win: {} -> {}",
            report.cycles_before,
            report.cycles_after
        );
        assert!(!report.selected.is_empty());
        assert!(report.total_area > 0.0);
        assert!(report.reduction() > 0.0);
    }

    #[test]
    fn replacement_never_hurts() {
        for b in [Benchmark::Crc32, Benchmark::Adpcm] {
            let program = b.program(OptLevel::O0);
            let report = run_flow(&quick_cfg(Algorithm::MultiIssue), &program, 3);
            assert!(
                report.cycles_after <= report.cycles_before,
                "{b}: {} -> {}",
                report.cycles_before,
                report.cycles_after
            );
        }
    }

    #[test]
    fn area_budget_limits_selection() {
        let program = Benchmark::Bitcount.program(OptLevel::O3);
        let mut cfg = quick_cfg(Algorithm::MultiIssue);
        cfg.budgets.area_um2 = Some(0.0);
        let report = run_flow(&cfg, &program, 11);
        assert!(report.selected.is_empty(), "zero budget selects nothing");
        assert_eq!(report.cycles_before, report.cycles_after);
    }

    #[test]
    fn flow_is_deterministic() {
        let program = Benchmark::Dijkstra.program(OptLevel::O3);
        let cfg = quick_cfg(Algorithm::MultiIssue);
        let a = run_flow(&cfg, &program, 5);
        let b = run_flow(&cfg, &program, 5);
        assert_eq!(a.cycles_after, b.cycles_after);
        assert_eq!(a.selected.len(), b.selected.len());
    }

    #[test]
    fn operator_pool_sharing_never_costs_more() {
        let program = Benchmark::Adpcm.program(OptLevel::O3);
        let mut cfg = quick_cfg(Algorithm::MultiIssue);
        let base = run_flow(&cfg, &program, 21);
        cfg.sharing = crate::select::SharingModel::OperatorPool;
        let pooled = run_flow(&cfg, &program, 21);
        assert!(
            pooled.total_area <= base.total_area + 1e-9,
            "pool {} vs containment {}",
            pooled.total_area,
            base.total_area
        );
        assert!(
            pooled.selected.len() >= base.selected.len(),
            "cheaper costing can only admit more candidates under a budget"
        );
    }

    #[test]
    fn si_flow_runs_and_reports() {
        let program = Benchmark::Blowfish.program(OptLevel::O3);
        let report = run_flow(&quick_cfg(Algorithm::SingleIssue), &program, 2);
        assert!(report.cycles_after <= report.cycles_before);
    }
}
