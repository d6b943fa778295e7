//! Hot-path regression tests: committed golden reports pin the MI
//! explorer's answers byte for byte, a reused explorer answers exactly as
//! a fresh one, and no counter reports an evaluation layer that no longer
//! exists.
//!
//! `tests/golden/` holds the exact `serde_json::to_string` bytes of one
//! `FlowReport` per registry program (7 benchmarks × O0/O3) and seed
//! {3, 11, 29} — MI on `preset_2issue_4r2w`, `repeats = 2`,
//! `max_iterations = 40` — the same programs under the single-issue
//! baseline (SI) at seed 3 (`si_*.json`), plus the engine bench's smoke
//! report (crc32 O3 at the bench's own settings, seed `0xE46`). The
//! `wide_k*.json` files hold the exact `Exploration` bytes of seeded
//! random blocks too wide for the registry (k = 100, 200 and 500: two,
//! four and eight 64-bit words per node-set row), MI at 40 iterations.
//! The checker re-runs every case at `jobs ∈ {1, 4}` and never writes a
//! file. Regenerate with
//!
//! ```text
//! cargo test --test hot_path -- --ignored write_golden_reports
//! ```
//!
//! Any diff in `tests/golden/` is a behaviour change of the explorer: the
//! change that produces it must say why the new answers are right.

use std::path::{Path, PathBuf};

use isex::engine::{BlockTask, CancelToken, Engine, ExploreJob, ExploreSpec, RepeatOutcome};
use isex::prelude::*;
use isex::workloads::random::{random_dfg, RandomDfgConfig};
use rand::SeedableRng;

const SEEDS: [u64; 3] = [3, 11, 29];

/// The seed of the single-issue baseline's goldens.
const SI_SEED: u64 = 3;

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
            let mut si = quick_cfg();
            si.algorithm = Algorithm::SingleIssue;
            out.push(Golden {
                file: format!(
                    "si_{bench}_{}_s{SI_SEED}.json",
                    opt.to_string().to_lowercase()
                ),
                program: bench.program(opt),
                cfg: si,
                seed: SI_SEED,
            });
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

/// The wide-block goldens: `(k, seed)` of each seeded random block.
const WIDE: [(usize, u64); 3] = [(100, 1), (200, 2), (500, 3)];

fn wide_file(k: usize) -> String {
    format!("wide_k{k}.json")
}

/// The seeded random block of `k` operations (width 4, 10% memory
/// operations, 8 live-ins).
fn wide_block(k: usize, seed: u64) -> ProgramDfg {
    let cfg = RandomDfgConfig {
        nodes: k,
        width: 4,
        mem_fraction: 0.1,
        live_ins: 8,
    };
    random_dfg(&cfg, &mut rand::rngs::StdRng::seed_from_u64(seed))
}

/// The exact JSON of every wide block's exploration, in [`WIDE`] order:
/// all blocks explored as one engine run on `jobs` workers, one repeat
/// each, MI on `preset_2issue_4r2w` at 40 iterations.
fn wide_jsons(jobs: usize) -> Vec<String> {
    let machine = MachineConfig::preset_2issue_4r2w();
    let spec = ExploreSpec {
        machine,
        constraints: Constraints::from_machine(&machine),
        params: AcoParams {
            max_iterations: 40,
            ..AcoParams::default()
        },
        algorithm: Algorithm::MultiIssue,
        repeats: 1,
        jobs,
        fault_plan: None,
        tracer: Tracer::disabled(),
    };
    let dfgs: Vec<ProgramDfg> = WIDE.iter().map(|&(k, seed)| wide_block(k, seed)).collect();
    let names: Vec<String> = WIDE.iter().map(|&(k, _)| format!("wide_k{k}")).collect();
    let jobs: Vec<_> = dfgs
        .iter()
        .zip(&names)
        .enumerate()
        .map(|(i, (dfg, name))| (BlockTask { name, dfg }, ExploreJob::new(i, 0, 2008)))
        .collect();
    Engine::new(spec)
        .explore_jobs(&jobs, &NullSink, &CancelToken::new())
        .into_iter()
        .map(|outcome| match outcome {
            RepeatOutcome::Explored(e) => serde_json::to_string(&e).unwrap(),
            other => panic!("wide block not explored: {other:?}"),
        })
        .collect()
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
        let wide = WIDE.iter().any(|&(k, _)| &wide_file(k) == name);
        if !wide && !cases.iter().any(|g| &g.file == name) {
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

/// The wide random blocks' explorations reproduce byte for byte at one
/// and four workers. Their node-set rows span two to eight words, where
/// the registry's hot blocks never need more than two.
#[test]
fn wide_block_explorations_match_byte_for_byte() {
    let dir = golden_dir();
    let mut failures = Vec::new();
    for jobs in [1usize, 4] {
        for (&(k, _), got) in WIDE.iter().zip(wide_jsons(jobs)) {
            let file = wide_file(k);
            let want = std::fs::read(dir.join(&file))
                .unwrap_or_else(|e| panic!("{file}: missing golden ({e})"));
            if let Some(diff) = first_difference(&want, got.as_bytes()) {
                failures.push(format!("{file} at jobs {jobs}: {diff}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
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
    for (&(k, _), json) in WIDE.iter().zip(wide_jsons(1)) {
        std::fs::write(dir.join(wide_file(k)), json).unwrap();
    }
}

/// The round memos and their hit/miss counters are gone: no
/// `phase_profile` entry may report them. Untraced runs carry no `eval.`
/// entry at all; on a traced run the only one is the round-lowering span.
#[test]
fn no_phase_profile_entry_reports_a_deleted_eval_layer() {
    let program = Benchmark::Crc32.program(OptLevel::O3);
    let eval_entries = |cfg: &FlowConfig| -> Vec<String> {
        let (_, metrics) = run_flow_observed(cfg, &program, 7, &NullSink);
        metrics
            .phase_profile
            .0
            .iter()
            .map(|s| s.name.clone())
            .filter(|name| name.starts_with("eval."))
            .collect()
    };
    for algorithm in [Algorithm::MultiIssue, Algorithm::SingleIssue] {
        let mut cfg = quick_cfg();
        cfg.algorithm = algorithm;
        assert_eq!(eval_entries(&cfg), Vec::<String>::new(), "{algorithm}");
        cfg.tracer = Tracer::new();
        assert_eq!(eval_entries(&cfg), ["eval.lower"], "{algorithm}, traced");
    }
}

/// With no memo there is no state for one walk to leave behind for the
/// next: exploring a block whose ants converge (and so resample identical
/// walks) gives the same answer on a reused explorer as on a fresh one.
#[test]
fn explorer_is_stateless_on_a_converging_workload() {
    let program = Benchmark::Bitcount.program(OptLevel::O3);
    let block = program.hottest();
    let machine = MachineConfig::preset_2issue_4r2w();
    let explorer = MultiIssueExplorer::new(machine, Constraints::from_machine(&machine));
    let explore = |explorer: &MultiIssueExplorer| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2008);
        explorer.explore(&block.dfg, &mut rng)
    };
    let first = explore(&explorer);
    assert!(
        !first.candidates.is_empty(),
        "bitcount's hot block has ISEs"
    );
    assert!(first.cycles_with_ises < first.baseline_cycles);
    let reused = explore(&explorer);
    let fresh = explore(&MultiIssueExplorer::new(
        machine,
        Constraints::from_machine(&machine),
    ));
    let json = |e: &Exploration| serde_json::to_string(e).unwrap();
    assert_eq!(json(&reused), json(&first), "reused explorer");
    assert_eq!(json(&fresh), json(&first), "fresh explorer");
}
