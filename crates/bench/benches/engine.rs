//! Scaling benchmark for the exploration engine's worker pool.
//!
//! Two sections:
//!
//! * `flow` — the full `run_flow` at 1/2/4/8 workers. CPU-bound, so the
//!   speedup tracks the host's core count: ≥2× at 4 workers needs ≥4
//!   cores, and a single-core host shows ≈1× throughout (the recorded
//!   `host_cpus` says which regime a result file came from).
//! * `pool_overlap` — the same pool over latency-bound jobs (sleeps), which
//!   overlap regardless of core count. This isolates the pool's dispatch
//!   machinery: if these numbers don't scale, the pool itself serialises.
//! * `trace_overhead` — the same flow with tracing disabled (the default
//!   no-op `Tracer`) vs enabled (spans recorded, Chrome trace exportable).
//!   The disabled path is the one every untraced run pays and must stay
//!   within noise of a build without the instrumentation (≤2% is the
//!   budget); the enabled ratio prices `--trace`.
//! * `hot_path` — the same flow at one worker, which isolates
//!   per-evaluation cost from pool overlap. Every run must reproduce the
//!   committed golden report `tests/golden/engine_smoke_crc32_o3.json`
//!   byte for byte, so the time prices an unchanged answer.
//!
//! Results land in `BENCH_engine.json` at the workspace root (committed so
//! the numbers travel with the code; absolute times are machine-dependent,
//! the *ratios* are the interesting part).
//!
//! Run with: `cargo bench -p isex-bench --bench engine`
//!
//! With `ISEX_BENCH_SMOKE=1` only the `hot_path` section runs (few
//! samples) and no result file is written. It fails unless every report
//! matches the golden and the median stays within
//! [`SMOKE_CEILING`] × the committed `hot_path.median_ms` — the CI
//! regression gate against the hot path losing ground.

use std::time::{Duration, Instant};

use isex_engine::run_jobs;
use isex_flow::{run_flow, Algorithm, FlowConfig};
use isex_workloads::{Benchmark, OptLevel};
use serde::Deserialize;

const WORKERS: &[usize] = &[1, 2, 4, 8];
const SAMPLES: usize = 5;
/// The committed result file, rewritten by a full run.
const BENCH_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
/// The report every `hot_path` run must reproduce (crc32 O3, seed `0xE46`,
/// [`flow_cfg`] at one worker), written by the golden writer in
/// `tests/hot_path.rs`.
const HOT_PATH_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/engine_smoke_crc32_o3.json"
);
/// How far the smoke median may exceed the committed `hot_path.median_ms`
/// before the smoke fails; wide enough for about ±20% host drift.
const SMOKE_CEILING: f64 = 1.5;

/// The part of `BENCH_engine.json` the smoke compares against.
#[derive(Deserialize)]
struct Committed {
    hot_path: HotPath,
}

#[derive(Deserialize)]
struct HotPath {
    median_ms: f64,
}

fn flow_cfg(jobs: usize) -> FlowConfig {
    let mut cfg = FlowConfig::paper_default(Algorithm::MultiIssue);
    // Explore every block (not just the 95% hot set) with the paper's five
    // repeats so the pool has blocks × 5 jobs to spread across workers.
    cfg.hot_block_coverage = 1.0;
    cfg.repeats = 5;
    cfg.params.max_iterations = 150;
    cfg.jobs = jobs;
    cfg
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    samples[samples.len() / 2]
}

fn rows_json(rows: &[(usize, f64, f64)]) -> String {
    rows.iter()
        .map(|(workers, ms, speedup)| {
            format!(
                "    {{\"workers\": {workers}, \"median_ms\": {ms:.2}, \"speedup\": {speedup:.3}}}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn flow_section(program: &isex_workloads::Program) -> Vec<(usize, f64, f64)> {
    let mut rows = Vec::new();
    let mut serial_ms = 0.0;
    for &workers in WORKERS {
        let cfg = flow_cfg(workers);
        // Warm-up run; also pins down the report we assert against below.
        let reference = run_flow(&cfg, program, 0xE46);
        let mut samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                let report = run_flow(&cfg, program, 0xE46);
                assert_eq!(
                    report.cycles_after, reference.cycles_after,
                    "engine must be deterministic at any worker count"
                );
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let ms = median(&mut samples);
        if workers == 1 {
            serial_ms = ms;
        }
        let speedup = serial_ms / ms;
        println!("flow         workers {workers}: median {ms:8.1} ms  speedup {speedup:4.2}x");
        rows.push((workers, ms, speedup));
    }
    rows
}

fn pool_overlap_section() -> Vec<(usize, f64, f64)> {
    const JOBS: usize = 16;
    const SLEEP_MS: u64 = 10;
    let items: Vec<u64> = (0..JOBS as u64).collect();
    let mut rows = Vec::new();
    let mut serial_ms = 0.0;
    for &workers in WORKERS {
        let mut samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                let out = run_jobs(&items, workers, |_, &x| {
                    std::thread::sleep(Duration::from_millis(SLEEP_MS));
                    x
                });
                assert_eq!(out, items, "pool must preserve item order");
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let ms = median(&mut samples);
        if workers == 1 {
            serial_ms = ms;
        }
        let speedup = serial_ms / ms;
        println!("pool_overlap workers {workers}: median {ms:8.1} ms  speedup {speedup:4.2}x");
        rows.push((workers, ms, speedup));
    }
    rows
}

/// Median flow time with the given tracer installed, new tracer per run.
fn traced_flow_ms(program: &isex_workloads::Program, make: impl Fn() -> isex_trace::Tracer) -> f64 {
    let mut cfg = flow_cfg(4);
    cfg.tracer = make();
    let _warm = run_flow(&cfg, program, 0xE46);
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let mut cfg = flow_cfg(4);
            cfg.tracer = make();
            let start = Instant::now();
            let _ = run_flow(&cfg, program, 0xE46);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut samples)
}

fn trace_overhead_section(program: &isex_workloads::Program) -> (f64, f64, f64) {
    let disabled_ms = traced_flow_ms(program, isex_trace::Tracer::disabled);
    let enabled_ms = traced_flow_ms(program, isex_trace::Tracer::new);
    let ratio = enabled_ms / disabled_ms;
    println!("trace_overhead disabled: median {disabled_ms:8.1} ms");
    println!("trace_overhead enabled:  median {enabled_ms:8.1} ms  ratio {ratio:4.3}x");
    (disabled_ms, enabled_ms, ratio)
}

/// Median one-worker flow time; every run, the warm-up included, must
/// reproduce the golden report byte for byte.
fn hot_path_section(program: &isex_workloads::Program, samples: usize) -> f64 {
    let golden = std::fs::read_to_string(HOT_PATH_GOLDEN).expect("read the golden report");
    let timed_run = || {
        let start = Instant::now();
        let report = run_flow(&flow_cfg(1), program, 0xE46);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(
            serde_json::to_string(&report).expect("report serializes") == golden,
            "hot-path report departs from the committed golden {HOT_PATH_GOLDEN}"
        );
        ms
    };
    timed_run();
    let mut runs: Vec<f64> = (0..samples).map(|_| timed_run()).collect();
    let ms = median(&mut runs);
    println!("hot_path: median {ms:8.1} ms");
    ms
}

fn main() {
    let bench = Benchmark::Crc32;
    let program = bench.program(OptLevel::O3);
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    if std::env::var_os("ISEX_BENCH_SMOKE").is_some() {
        let committed: Committed = serde_json::from_str(
            &std::fs::read_to_string(BENCH_FILE).expect("read BENCH_engine.json"),
        )
        .expect("BENCH_engine.json has hot_path.median_ms");
        let ms = hot_path_section(&program, 3);
        let ceiling = SMOKE_CEILING * committed.hot_path.median_ms;
        assert!(
            ms <= ceiling,
            "hot path lost ground: median {ms:.1} ms > {SMOKE_CEILING} x committed {:.1} ms",
            committed.hot_path.median_ms
        );
        println!(
            "smoke ok: hot_path median {ms:.1} ms <= {ceiling:.1} ms ceiling, report matches the golden (no result file written)"
        );
        return;
    }

    let flow_rows = flow_section(&program);
    let pool_rows = pool_overlap_section();
    let (disabled_ms, enabled_ms, ratio) = trace_overhead_section(&program);
    let hot_ms = hot_path_section(&program, SAMPLES);

    let json = format!(
        "{{\n  \"benchmark\": \"{}\",\n  \"host_cpus\": {host_cpus},\n  \"samples\": {SAMPLES},\n  \"repeats\": 5,\n  \"max_iterations\": 150,\n  \"flow\": [\n{}\n  ],\n  \"pool_overlap\": [\n{}\n  ],\n  \"trace_overhead\": {{\"disabled_ms\": {disabled_ms:.2}, \"enabled_ms\": {enabled_ms:.2}, \"ratio\": {ratio:.3}}},\n  \"hot_path\": {{\"median_ms\": {hot_ms:.2}}}\n}}\n",
        bench.name(),
        rows_json(&flow_rows),
        rows_json(&pool_rows),
    );
    std::fs::write(BENCH_FILE, &json).expect("write BENCH_engine.json");
    println!("wrote {BENCH_FILE}");
}
