//! The isex benchmark: drives the system from outside, in one process, and
//! prints every metric declared in `BENCHMARK.json`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-suite --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the workload untraced and reports the end-to-end
//! metrics; `--trace 1` runs it with tracing and the layer harness and
//! reports the per-layer metrics. Standard error gets a table of every
//! metric with its unit, statistic and sample count; the second-to-last
//! line of standard output is the run's provenance and the last line the
//! result object. `--write-expected` regenerates the paper-suite's
//! expected reports from the current tree.

mod cluster_shard;
mod layers;
mod paper_suite;
mod serve_mix;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use isex_flow::FlowReport;
use serde::Value;

use crate::stats::{mean, median, percentile, Metric};

const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");
const WORKLOADS: [&str; 3] = ["paper-suite", "serve-mix", "cluster-shard"];

/// What a workload run hands back: its operation counts and metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Per-request latency metrics shared by every workload. `hit_ms` are the
/// requests answered without new exploration work of their own (a cache
/// tier, or a key the run already answered).
pub fn latency_metrics(all_ms: &[f64], hit_ms: &[f64], hit_stat: &str) -> Vec<Metric> {
    vec![
        Metric::new(
            "latency_ms.p50",
            "ms",
            median(all_ms),
            "median of requests",
            all_ms.len(),
        ),
        Metric::new(
            "latency_ms.p95",
            "ms",
            percentile(all_ms, 0.95),
            "p95 (nearest rank) of requests",
            all_ms.len(),
        ),
        Metric::new(
            "hit_latency_ms.p50",
            "ms",
            median(hit_ms),
            format!("median of {hit_stat}"),
            hit_ms.len(),
        ),
    ]
}

/// Simulated quality of the distinct reports a run produced; these repeat
/// exactly for a given seed.
pub fn report_quality(reports: &[FlowReport]) -> Vec<Metric> {
    let reduction: Vec<f64> = reports.iter().map(|r| r.reduction() * 100.0).collect();
    let area: Vec<f64> = reports.iter().map(|r| r.total_area).collect();
    vec![
        Metric::new(
            "cycle_reduction_pct",
            "%",
            mean(&reduction),
            "mean over distinct reports",
            reports.len(),
        ),
        Metric::new(
            "ise_area_um2",
            "um2",
            mean(&area),
            "mean over distinct reports",
            reports.len(),
        ),
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(Args),
    WriteExpected,
}

fn parse_args() -> Result<Mode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--write-expected" => return Ok(Mode::WriteExpected),
            "--workload" => workload = Some(value(i)?),
            "--seed" => seed = Some(value(i)?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value(i)?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = match value(i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    }))
}

/// The `(name, unit)` list `BENCHMARK.json` declares under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(MANIFEST_DIR).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let spec = serde_json::parse(&text).expect("parse BENCHMARK.json");
    spec.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Orders `metrics` as declared, checking names and units. In a traced
/// run, a declared layer the workload never reaches reads 0 with 0 samples.
fn arrange(metrics: Vec<Metric>, declared: &[(String, String)], trace: bool) -> Vec<Metric> {
    for m in &metrics {
        assert!(
            declared.iter().any(|(n, _)| *n == m.name),
            "metric `{}` is not declared in BENCHMARK.json",
            m.name
        );
    }
    declared
        .iter()
        .map(
            |(name, unit)| match metrics.iter().find(|m| &m.name == name) {
                Some(m) => {
                    assert_eq!(&m.unit, unit, "unit of `{name}`");
                    assert!(m.value.is_finite(), "`{name}` is not finite: {}", m.value);
                    m.clone()
                }
                None if trace => Metric::new(name, unit, 0.0, "not reached by this workload", 0),
                None => panic!("end-to-end metric `{name}` was not measured"),
            },
        )
        .collect()
}

/// FNV-1a over the sources the benchmark builds from, for checkouts that
/// carry no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let root = Path::new(MANIFEST_DIR).join("..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    walk(&Path::new(MANIFEST_DIR).join("src"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", isex_store::fnv1a64(&bytes))
}

fn git_sha() -> String {
    // GIT_DIR pins the lookup to this checkout: a checkout without git
    // metadata reads "unknown" rather than an enclosing repository's HEAD.
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_DIR", Path::new(MANIFEST_DIR).join("../.git"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args, metrics: &[Metric]) -> Value {
    let s = |v: &str| Value::String(v.to_string());
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let per_metric = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Object(vec![
                    ("stat".into(), s(&m.stat)),
                    ("samples".into(), Value::U64(m.samples as u64)),
                ]),
            )
        })
        .collect();
    Value::Object(vec![(
        "provenance".into(),
        Value::Object(vec![
            ("workload".into(), s(&args.workload)),
            ("seed".into(), Value::U64(args.seed)),
            ("seconds".into(), Value::U64(args.seconds)),
            ("trace".into(), Value::Bool(args.trace)),
            ("host_cpus".into(), Value::U64(host_cpus as u64)),
            ("rustc".into(), s(env!("PERFBENCH_RUSTC"))),
            ("git_sha".into(), s(&git_sha())),
            ("source_fnv1a64".into(), s(&source_digest())),
            ("metrics".into(), Value::Object(per_metric)),
        ]),
    )])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Mode::Run(args)) => args,
        Ok(Mode::WriteExpected) => {
            paper_suite::write_expected();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload {} --seed N --seconds N --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "perfbench: unknown workload `{}` (valid: {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    }
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = declared(section);
    let run_dir = Path::new(MANIFEST_DIR)
        .join(".run")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&run_dir).expect("create run directory");

    let window = Duration::from_secs(args.seconds);
    let mut outcome = match args.workload.as_str() {
        "paper-suite" => paper_suite::run(args.seed, window, args.trace),
        "serve-mix" => serve_mix::run(args.seed, window, args.trace, &run_dir),
        _ => cluster_shard::run(args.seed, window, args.trace),
    };
    if args.trace {
        outcome.metrics.extend(layers::run(args.seed, &run_dir));
        outcome.metrics.push(Metric::new(
            "error_rate",
            "ratio",
            outcome.failed as f64 / outcome.attempted as f64,
            "failed / attempted operations",
            outcome.attempted as usize,
        ));
    } else {
        outcome.metrics.push(Metric::new(
            "peak_rss_mb",
            "MiB",
            stats::peak_rss_mb(),
            "VmHWM at the end of the run",
            1,
        ));
    }
    let _ = std::fs::remove_dir_all(&run_dir);

    let metrics = arrange(outcome.metrics, &declared, args.trace);
    eprintln!(
        "{:<34} {:>16} {:<6} {:>8}  statistic",
        "metric", "value", "unit", "samples"
    );
    for m in &metrics {
        eprintln!(
            "{:<34} {:>16.6} {:<6} {:>8}  {}",
            m.name, m.value, m.unit, m.samples, m.stat
        );
    }
    eprintln!("attempted {}, failed {}", outcome.attempted, outcome.failed);

    println!(
        "{}",
        serde_json::value_to_string(&provenance(&args, &metrics))
    );
    let values = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::String(m.unit.clone())),
                ]),
            )
        })
        .collect();
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.failed == 0)),
        ("attempted".into(), Value::U64(outcome.attempted)),
        ("failed".into(), Value::U64(outcome.failed)),
        ("metrics".into(), Value::Object(values)),
    ]);
    println!("{}", serde_json::value_to_string(&result));
    ExitCode::SUCCESS
}
