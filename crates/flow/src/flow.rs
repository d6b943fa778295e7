//! The flow driver: profiling-driven block selection, repeated
//! exploration, selection, replacement and whole-program accounting.

use isex_aco::AcoParams;
use isex_core::Constraints;
use isex_engine::{
    BlockTask, CancelToken, EventSink, ExploreSpec, FaultPlan, NullSink, RunMetrics,
};
use isex_isa::MachineConfig;
use isex_trace::Tracer;
use isex_workloads::{BasicBlock, Program};
use serde::{Deserialize, Serialize};

// The explorer choice lives with the engine that runs it; re-exported here
// so `flow::Algorithm` keeps working.
pub use isex_engine::Algorithm;

use crate::replace;
use crate::run_ledger::run_local;
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
    /// on degraded blocks (see [`BlockOutcome::degraded`]) — `0` for a hot
    /// block whose every repeat was skipped. Absent from serialized form
    /// otherwise, so clean reports stay byte-identical to pre-anytime
    /// output.
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

/// The engine task exploring `block`.
pub(crate) fn block_task(block: &BasicBlock) -> BlockTask<'_> {
    BlockTask {
        name: block.name.as_str(),
        dfg: &block.dfg,
    }
}

/// The engine spec a flow config implies.
pub(crate) fn explore_spec(cfg: &FlowConfig) -> ExploreSpec {
    ExploreSpec {
        machine: cfg.machine,
        constraints: cfg.constraints,
        params: cfg.params,
        algorithm: cfg.algorithm,
        jobs: cfg.jobs,
        fault_plan: cfg.fault_plan.clone(),
        tracer: cfg.tracer.clone(),
    }
}

/// Replacement over every block plus whole-program accounting; the tail
/// of [`finish_from_entries`](crate::finish_from_entries), which every
/// report comes from.
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
}

/// [`run_flow_observed`] with cooperative cancellation, for callers that
/// impose deadlines (the `isexd` server's per-request timeout). Anytime
/// semantics: once `cancel` trips, exploration stops at the next round
/// boundary and the run returns a *partial* report — each block's
/// best-so-far candidates, `rounds_completed`/`degraded` provenance on
/// every cut block, and [`RunMetrics::degraded`] set — instead of an
/// error.
/// Selection/replacement are not interruptible — they are orders of
/// magnitude cheaper than exploration. A token that never trips (and an
/// unbudgeted [`AcoParams::max_rounds`]) yields a report byte-identical to
/// [`run_flow`]'s.
pub fn run_flow_cancellable(
    cfg: &FlowConfig,
    program: &Program,
    seed: u64,
    sink: &dyn EventSink,
    cancel: &CancelToken,
) -> (FlowReport, RunMetrics) {
    run_local(cfg, program, seed, sink, cancel, None)
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
