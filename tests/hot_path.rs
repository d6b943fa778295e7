//! Hot-path regression tests: committed golden reports pin the MI
//! explorer's answers byte for byte, and the evaluation cache must actually
//! earn hits (and incremental timing updates) on converging workloads.
//!
//! `tests/golden/` holds the exact `serde_json::to_string` bytes of one
//! `FlowReport` per registry program (7 benchmarks × O0/O3) and seed
//! {3, 11, 29} — MI on `preset_2issue_4r2w`, `repeats = 2`,
//! `max_iterations = 40` — plus the engine bench's smoke report (crc32 O3
//! at the bench's own settings, seed `0xE46`). The checker re-runs every
//! case at `jobs ∈ {1, 4}` and never writes a file. Regenerate with
//!
//! ```text
//! cargo test --test hot_path -- --ignored write_golden_reports
//! ```
//!
//! Any diff in `tests/golden/` is a behaviour change of the explorer: the
//! change that produces it must say why the new answers are right.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use isex::core::EvalStats;
use isex::prelude::*;
use rand::SeedableRng;

const SEEDS: [u64; 3] = [3, 11, 29];

/// One golden report: the file it lives in and how to reproduce it.
struct Golden {
    file: String,
    program: Program,
    cfg: FlowConfig,
    seed: u64,
}

fn quick_cfg() -> FlowConfig {
    let mut cfg =
        FlowConfig::for_machine(Algorithm::MultiIssue, MachineConfig::preset_2issue_4r2w());
    cfg.repeats = 2;
    cfg.jobs = 1;
    cfg.params.max_iterations = 40;
    cfg
}

/// The engine bench's hot-path configuration (`benches/engine.rs`): every
/// block explored, the paper's five repeats, 150 iterations.
fn bench_smoke_cfg() -> FlowConfig {
    let mut cfg = FlowConfig::paper_default(Algorithm::MultiIssue);
    cfg.hot_block_coverage = 1.0;
    cfg.repeats = 5;
    cfg.params.max_iterations = 150;
    cfg
}

fn goldens() -> Vec<Golden> {
    let mut out = Vec::new();
    for &bench in Benchmark::ALL {
        for opt in [OptLevel::O0, OptLevel::O3] {
            for seed in SEEDS {
                out.push(Golden {
                    file: format!("{bench}_{}_s{seed}.json", opt.to_string().to_lowercase()),
                    program: bench.program(opt),
                    cfg: quick_cfg(),
                    seed,
                });
            }
        }
    }
    out.push(Golden {
        file: "engine_smoke_crc32_o3.json".to_string(),
        program: Benchmark::Crc32.program(OptLevel::O3),
        cfg: bench_smoke_cfg(),
        seed: 0xE46,
    });
    out
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn report_json(golden: &Golden, jobs: usize) -> String {
    let mut cfg = golden.cfg.clone();
    cfg.jobs = jobs;
    serde_json::to_string(&run_flow(&cfg, &golden.program, golden.seed)).unwrap()
}

/// Describes where `got` first departs from `want`, or `None` if equal.
fn first_difference(want: &[u8], got: &[u8]) -> Option<String> {
    if want == got {
        return None;
    }
    let at = want
        .iter()
        .zip(got)
        .position(|(a, b)| a != b)
        .unwrap_or(want.len().min(got.len()));
    let context =
        |bytes: &[u8]| String::from_utf8_lossy(&bytes[at..(at + 60).min(bytes.len())]).into_owned();
    Some(format!(
        "first difference at byte {at} (golden {} bytes, run {} bytes): golden `{}` vs run `{}`",
        want.len(),
        got.len(),
        context(want),
        context(got)
    ))
}

/// Every golden report reproduces byte for byte at one and four workers,
/// and the golden directory holds exactly the expected files.
#[test]
fn golden_reports_match_byte_for_byte() {
    let dir = golden_dir();
    let cases = goldens();
    let mut failures = Vec::new();
    let mut present: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    present.sort();
    for name in &present {
        if !cases.iter().any(|g| &g.file == name) {
            failures.push(format!("{name}: unexpected file in tests/golden/"));
        }
    }
    for golden in &cases {
        let want = match std::fs::read(dir.join(&golden.file)) {
            Ok(bytes) => bytes,
            Err(e) => {
                failures.push(format!("{}: missing golden ({e})", golden.file));
                continue;
            }
        };
        for jobs in [1usize, 4] {
            let got = report_json(golden, jobs);
            if let Some(diff) = first_difference(&want, got.as_bytes()) {
                failures.push(format!("{} at jobs {jobs}: {diff}", golden.file));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} golden mismatch(es):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Rewrites `tests/golden/` from the current tree. The only code that
/// writes the directory; run it only for a deliberate behaviour change.
#[test]
#[ignore = "regenerates the committed golden reports"]
fn write_golden_reports() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for golden in goldens() {
        std::fs::write(dir.join(&golden.file), report_json(&golden, 1)).unwrap();
    }
}

#[test]
fn cache_counters_surface_in_phase_profile() {
    let program = Benchmark::Crc32.program(OptLevel::O3);
    let (_, metrics) = run_flow_observed(&quick_cfg(), &program, 7, &NullSink);
    let hit = metrics
        .phase_profile
        .get("eval.cache_hit")
        .expect("cached run must report eval.cache_hit");
    let miss = metrics
        .phase_profile
        .get("eval.cache_miss")
        .expect("cached run must report eval.cache_miss");
    assert!(miss.count > 0, "every round's first walk is a miss");
    assert!(
        hit.count > 0,
        "a converging ACO must resample walks: {} hits / {} misses",
        hit.count,
        miss.count
    );

    let mut si = quick_cfg();
    si.algorithm = Algorithm::SingleIssue;
    let (_, metrics) = run_flow_observed(&si, &program, 7, &NullSink);
    assert!(
        ["eval.cache_hit", "eval.cache_miss"]
            .iter()
            .all(|name| metrics.phase_profile.get(name).is_none()),
        "the SI explorer has no evaluation cache and must not report its counters"
    );
}

#[test]
fn explorer_records_hits_on_a_converging_workload() {
    let program = Benchmark::Bitcount.program(OptLevel::O3);
    let block = program.hottest();
    let machine = MachineConfig::preset_2issue_4r2w();
    let mut explorer = MultiIssueExplorer::new(machine, Constraints::from_machine(&machine));
    let stats = Arc::new(EvalStats::default());
    explorer.eval_stats = Some(Arc::clone(&stats));
    let mut rng = rand::rngs::StdRng::seed_from_u64(2008);
    let result = explorer.explore(&block.dfg, &mut rng);
    assert!(result.cycles_with_ises <= result.baseline_cycles);
    assert!(stats.misses() > 0, "each distinct walk costs one analysis");
    assert!(
        stats.hits() > 0,
        "near convergence the ants resample identical walks; the cache must hit"
    );
    let rate = stats.hits() as f64 / (stats.hits() + stats.misses()) as f64;
    assert!(
        rate > 0.0 && rate < 1.0,
        "hit rate {rate} must be a real fraction"
    );
}
