//! The evaluation sweeps behind the paper's figures (§5.2).
//!
//! Fig. 5.2.1 sweeps silicon-area constraints, Fig. 5.2.2 sweeps the number
//! of ISEs, Fig. 5.2.3 relates area cost to execution-time reduction. Each
//! sweep explores once per `(benchmark, machine, opt-level, algorithm)` and
//! re-runs only selection + replacement per budget point, exactly like a
//! real flow would.

use isex_engine::{CancelToken, NullSink};
use isex_isa::MachineConfig;
use isex_workloads::{Benchmark, OptLevel};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{explore_entries, finish_from_entries};
use crate::flow::{Algorithm, FlowConfig};
use crate::select::Budgets;

/// The silicon-area constraints of Fig. 5.2.1, µm².
pub const AREA_CONSTRAINTS: &[f64] = &[20_000.0, 40_000.0, 80_000.0, 160_000.0, 320_000.0];

/// The ISE-count constraints of Figs. 5.2.2 / 5.2.3.
pub const ISE_COUNTS: &[usize] = &[1, 2, 4, 8, 16, 32];

/// One evaluated configuration: a machine preset × optimisation level ×
/// algorithm, labelled like the paper's X axis (`"MI(4/2, 2IS, O3)"`).
#[derive(Clone, Debug)]
pub struct ConfigPoint {
    /// Display label.
    pub label: String,
    /// Machine preset.
    pub machine: MachineConfig,
    /// Optimisation level of the workload build.
    pub opt: OptLevel,
    /// Explorer.
    pub algorithm: Algorithm,
}

/// All 24 configurations of §5.2 (MI/SI × six machines × O0/O3).
pub fn evaluation_configs() -> Vec<ConfigPoint> {
    let mut out = Vec::new();
    for algorithm in [Algorithm::MultiIssue, Algorithm::SingleIssue] {
        for (mlabel, machine) in MachineConfig::evaluation_presets() {
            for opt in [OptLevel::O0, OptLevel::O3] {
                out.push(ConfigPoint {
                    label: format!("{algorithm}({mlabel}, {opt})"),
                    machine,
                    opt,
                    algorithm,
                });
            }
        }
    }
    out
}

/// One measured point of a sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Measurement {
    /// Configuration label.
    pub config: String,
    /// Benchmark name.
    pub benchmark: String,
    /// The constraint of this point (area in µm² or #ISEs).
    pub constraint: f64,
    /// Fractional execution-time reduction.
    pub reduction: f64,
    /// Incremental silicon area actually used, µm².
    pub area_um2: f64,
    /// Number of ISEs selected.
    pub num_ises: usize,
}

/// Effort knobs for a sweep, trading fidelity for wall-clock time.
#[derive(Clone, Copy, Debug)]
pub struct SweepEffort {
    /// Explorations per block (§5.1 uses 5).
    pub repeats: usize,
    /// ACO iteration cap per round.
    pub max_iterations: usize,
    /// Exploration worker threads; `0` = one per available core. Sweep
    /// results are identical for every value (engine determinism).
    pub jobs: usize,
}

impl SweepEffort {
    /// The paper's settings.
    pub fn paper() -> Self {
        SweepEffort {
            repeats: 5,
            max_iterations: 200,
            jobs: 0,
        }
    }

    /// A fast setting for tests and smoke runs.
    pub fn quick() -> Self {
        SweepEffort {
            repeats: 1,
            max_iterations: 40,
            jobs: 0,
        }
    }

    /// The same effort with an explicit worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }
}

fn config_for(point: &ConfigPoint, effort: &SweepEffort) -> FlowConfig {
    let mut cfg = FlowConfig::for_machine(point.algorithm, point.machine);
    cfg.repeats = effort.repeats;
    cfg.params.max_iterations = effort.max_iterations;
    cfg.jobs = effort.jobs;
    cfg
}

/// Runs one configuration over the given benchmarks across a list of
/// budget points; `budget_of` turns a sweep value into [`Budgets`].
fn sweep(
    point: &ConfigPoint,
    benchmarks: &[Benchmark],
    values: &[f64],
    budget_of: impl Fn(f64) -> Budgets,
    effort: &SweepEffort,
    seed: u64,
) -> Vec<Measurement> {
    let cfg = config_for(point, effort);
    let mut out = Vec::new();
    for &bench in benchmarks {
        let program = bench.program(point.opt);
        let entries = explore_entries(&cfg, &program, seed, &NullSink, &CancelToken::new());
        for &v in values {
            let mut cfg_v = cfg.clone();
            cfg_v.budgets = budget_of(v);
            let (report, _) =
                finish_from_entries(&cfg_v, &program, seed, entries.clone(), entries.len());
            out.push(Measurement {
                config: point.label.clone(),
                benchmark: bench.name().to_string(),
                constraint: v,
                reduction: report.reduction(),
                area_um2: report.total_area,
                num_ises: report.selected.len(),
            });
        }
    }
    out
}

/// Fig. 5.2.1: execution-time reduction under silicon-area constraints.
pub fn area_sweep(
    point: &ConfigPoint,
    benchmarks: &[Benchmark],
    effort: &SweepEffort,
    seed: u64,
) -> Vec<Measurement> {
    sweep(
        point,
        benchmarks,
        AREA_CONSTRAINTS,
        |v| Budgets {
            area_um2: Some(v),
            max_ises: None,
        },
        effort,
        seed,
    )
}

/// Figs. 5.2.2 / 5.2.3: execution-time reduction (and area cost) for
/// different numbers of ISEs.
pub fn ise_count_sweep(
    point: &ConfigPoint,
    benchmarks: &[Benchmark],
    effort: &SweepEffort,
    seed: u64,
) -> Vec<Measurement> {
    let values: Vec<f64> = ISE_COUNTS.iter().map(|&c| c as f64).collect();
    sweep(
        point,
        benchmarks,
        &values,
        |v| Budgets {
            area_um2: None,
            max_ises: Some(v as usize),
        },
        effort,
        seed,
    )
}

/// Averages the reductions of a measurement list per constraint value,
/// preserving the sweep order — one bar segment of the paper's figures.
pub fn average_by_constraint(measurements: &[Measurement], values: &[f64]) -> Vec<(f64, f64)> {
    values
        .iter()
        .map(|&v| {
            let xs: Vec<f64> = measurements
                .iter()
                .filter(|m| m.constraint == v)
                .map(|m| m.reduction)
                .collect();
            let avg = if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            };
            (v, avg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_cover_the_grid() {
        let cs = evaluation_configs();
        assert_eq!(cs.len(), 24);
        assert!(cs.iter().any(|c| c.label == "MI(4/2, 2IS, O0)"));
        assert!(cs.iter().any(|c| c.label == "SI(10/5, 4IS, O3)"));
    }

    #[test]
    fn area_sweep_is_monotone_in_budget() {
        let point = ConfigPoint {
            label: "MI(4/2, 2IS, O3)".into(),
            machine: MachineConfig::preset_2issue_4r2w(),
            opt: OptLevel::O3,
            algorithm: Algorithm::MultiIssue,
        };
        let ms = area_sweep(&point, &[Benchmark::Bitcount], &SweepEffort::quick(), 3);
        assert_eq!(ms.len(), AREA_CONSTRAINTS.len());
        for w in ms.windows(2) {
            assert!(
                w[1].reduction >= w[0].reduction - 1e-9,
                "more area can only help: {:?}",
                ms.iter().map(|m| m.reduction).collect::<Vec<_>>()
            );
            assert!(w[0].area_um2 <= w[0].constraint + 1e-9);
        }
    }

    #[test]
    fn ise_count_sweep_is_monotone() {
        let point = ConfigPoint {
            label: "MI(6/3, 2IS, O3)".into(),
            machine: MachineConfig::preset_2issue_6r3w(),
            opt: OptLevel::O3,
            algorithm: Algorithm::MultiIssue,
        };
        let ms = ise_count_sweep(&point, &[Benchmark::Crc32], &SweepEffort::quick(), 4);
        assert_eq!(ms.len(), ISE_COUNTS.len());
        for w in ms.windows(2) {
            assert!(w[1].reduction >= w[0].reduction - 1e-9);
            assert!(w[0].num_ises <= w[0].constraint as usize);
        }
    }

    #[test]
    fn averaging_groups_by_constraint() {
        let ms = vec![
            Measurement {
                config: "c".into(),
                benchmark: "a".into(),
                constraint: 1.0,
                reduction: 0.2,
                area_um2: 0.0,
                num_ises: 1,
            },
            Measurement {
                config: "c".into(),
                benchmark: "b".into(),
                constraint: 1.0,
                reduction: 0.4,
                area_um2: 0.0,
                num_ises: 1,
            },
        ];
        let avg = average_by_constraint(&ms, &[1.0, 2.0]);
        assert!((avg[0].1 - 0.3).abs() < 1e-12);
        assert_eq!(avg[1].1, 0.0);
    }
}
