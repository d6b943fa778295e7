//! `paper-suite`: the paper's own evaluation (§5.1). `run_flow` over the
//! seven benchmarks at -O0 and -O3 with the MI explorer, the paper's
//! defaults and two exploration workers. Every report is checked against
//! the expected results committed in `expected/paper-suite.json`. The suite
//! is fixed, as in the paper; the benchmark seed orders the programs in
//! every pass.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use isex_engine::{EventSink, RunEvent};
use isex_flow::{run_flow, run_flow_observed, Algorithm, FlowConfig, FlowReport};
use isex_trace::Tracer;
use isex_workloads::{Benchmark, OptLevel, Program};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::stats::{self, for_window, median, Metric};
use crate::{spans, Outcome};

/// The flow seed of every program, fixed so that every run does the same
/// work and the simulated quality metrics repeat exactly.
pub const FLOW_SEED: u64 = 2008;

const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/paper-suite.json");

/// The committed digest of one `(program, flow seed)` report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Expected {
    pub program: String,
    pub flow_seed: u64,
    /// FNV-1a 64 of the report's serialized bytes, hex.
    pub report_fnv1a64: String,
    pub report_bytes: usize,
    pub cycles_before: u64,
    pub cycles_after: u64,
    pub total_area: f64,
    pub iterations: usize,
    pub selected: usize,
}

impl Expected {
    fn of(report: &FlowReport, flow_seed: u64) -> Expected {
        let bytes = serde_json::to_string(report).expect("report serializes");
        Expected {
            program: report.program.clone(),
            flow_seed,
            report_fnv1a64: format!("{:016x}", isex_store::fnv1a64(bytes.as_bytes())),
            report_bytes: bytes.len(),
            cycles_before: report.cycles_before,
            cycles_after: report.cycles_after,
            total_area: report.total_area,
            iterations: report.iterations,
            selected: report.selected.len(),
        }
    }
}

/// The paper's configuration: MI, §5.1 defaults, two workers.
pub fn flow_config() -> FlowConfig {
    let mut cfg = FlowConfig::paper_default(Algorithm::MultiIssue);
    cfg.jobs = 2;
    cfg
}

/// The 14 registry programs, in the paper's order.
pub fn programs() -> Vec<Program> {
    Benchmark::ALL
        .iter()
        .flat_map(|b| [b.program(OptLevel::O0), b.program(OptLevel::O3)])
        .collect()
}

/// Regenerates the expected-results file from the current tree.
pub fn write_expected() {
    let cfg = flow_config();
    let all: Vec<Expected> = programs()
        .iter()
        .map(|program| Expected::of(&run_flow(&cfg, program, FLOW_SEED), FLOW_SEED))
        .collect();
    let text = serde_json::to_string_pretty(&all).expect("expected results serialize");
    std::fs::write(EXPECTED_PATH, text + "\n").expect("write expected results");
    eprintln!("wrote {} expected reports to {EXPECTED_PATH}", all.len());
}

struct Item {
    program: Program,
    expected: Expected,
}

impl Item {
    /// Whether `report` matches the committed expectation.
    fn check(&self, report: &FlowReport) -> bool {
        let got = Expected::of(report, FLOW_SEED);
        if got != self.expected {
            eprintln!(
                "paper-suite: {} differs from its expected report:\n  got      {got:?}\n  expected {:?}",
                self.program.name, self.expected
            );
        }
        got == self.expected
    }
}

fn setup() -> Vec<Item> {
    let text = std::fs::read_to_string(EXPECTED_PATH).expect("read expected results");
    let expected: Vec<Expected> = serde_json::from_str(&text).expect("parse expected results");
    let items: Vec<Item> = programs()
        .into_iter()
        .map(|program| {
            let expected = expected
                .iter()
                .find(|e| e.program == program.name && e.flow_seed == FLOW_SEED)
                .unwrap_or_else(|| panic!("no expected report for {}", program.name))
                .clone();
            Item { program, expected }
        })
        .collect();
    // Warm-up: every program once at a small effort, same code path.
    let mut warm = flow_config();
    warm.repeats = 1;
    warm.params.max_iterations = 40;
    for item in &items {
        let _ = run_flow(&warm, &item.program, FLOW_SEED);
    }
    items
}

/// Engine job timings taken from the event stream: JobStart → JobFinish.
#[derive(Default)]
struct JobClock {
    started: Mutex<HashMap<(usize, usize), Instant>>,
    done_ms: Mutex<Vec<f64>>,
}

impl EventSink for JobClock {
    fn emit(&self, event: RunEvent) {
        let now = Instant::now();
        match event {
            RunEvent::JobStart {
                block_index,
                repeat,
                ..
            } => {
                self.started
                    .lock()
                    .expect("job clock poisoned")
                    .insert((block_index, repeat), now);
            }
            RunEvent::JobFinish {
                block_index,
                repeat,
                ..
            } => {
                let start = self
                    .started
                    .lock()
                    .expect("job clock poisoned")
                    .remove(&(block_index, repeat));
                if let Some(start) = start {
                    let ms = now.duration_since(start).as_secs_f64() * 1e3;
                    self.done_ms.lock().expect("job clock poisoned").push(ms);
                }
            }
            _ => {}
        }
    }
}

/// Per-layer totals of one traced pass.
#[derive(Default)]
struct TracedPass {
    /// Span name → (self ns, spans).
    self_ns: BTreeMap<&'static str, (u64, usize)>,
    flow_wall_ns: u64,
    flow_covered_ns: u64,
    explore_ms: f64,
    select_ms: f64,
    replace_ms: f64,
    job_ms: Vec<f64>,
    worker_explore_ms: f64,
    counters: BTreeMap<String, u64>,
}

/// Runs the workload for `window`: end-to-end metrics untraced, or with
/// `trace`, alternating untraced and traced passes for the per-layer view.
pub fn run(seed: u64, window: Duration, trace: bool) -> Outcome {
    let (items, setup_metric) = stats::repeated_setup(setup, drop);
    let cfg = flow_config();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut lat_s: Vec<Vec<f64>> = vec![Vec::new(); items.len()];
    let mut repeat_lat_s = Vec::new();
    let mut first: Vec<Option<FlowReport>> = vec![None; items.len()];
    let mut untraced_pass_s = Vec::new();
    let mut traced_pass_s = Vec::new();
    let mut traced = Vec::new();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..items.len()).collect();
    for_window(window, |pass| {
        let traced_pass = trace && pass % 2 == 1;
        stats::shuffle(&mut order, &mut rng);
        let pass_start = Instant::now();
        let mut tp = TracedPass::default();
        for &i in &order {
            let item = &items[i];
            let start = Instant::now();
            let report = if traced_pass {
                run_traced(&cfg, item, &mut tp)
            } else {
                run_flow(&cfg, &item.program, FLOW_SEED)
            };
            let secs = start.elapsed().as_secs_f64();
            attempted += 1;
            if !item.check(&report) {
                failed += 1;
            }
            if !traced_pass {
                lat_s[i].push(secs);
                if first[i].is_some() {
                    repeat_lat_s.push(secs);
                }
            }
            first[i].get_or_insert(report);
        }
        let pass_s = pass_start.elapsed().as_secs_f64();
        eprintln!(
            "paper-suite pass {pass}{}: {pass_s:.3} s",
            if traced_pass { " (traced)" } else { "" }
        );
        if traced_pass {
            traced_pass_s.push(pass_s);
            traced.push(tp);
        } else {
            untraced_pass_s.push(pass_s);
        }
    });

    let reports: Vec<FlowReport> = first
        .into_iter()
        .map(|r| r.expect("every program ran"))
        .collect();
    let metrics = if trace {
        layer_metrics(&traced, &untraced_pass_s, &traced_pass_s, items.len())
    } else {
        let all_ms: Vec<f64> = lat_s.iter().flatten().map(|s| s * 1e3).collect();
        let repeat_ms: Vec<f64> = repeat_lat_s.iter().map(|s| s * 1e3).collect();
        let wall_s: f64 = lat_s.iter().map(|l| median(l)).sum();
        let iters: usize = reports.iter().map(|r| r.iterations).sum();
        let passes = untraced_pass_s.len();
        let mut m = vec![
            setup_metric,
            Metric::new(
                "wall_s",
                "s",
                wall_s,
                "sum over programs of the median run_flow time",
                passes,
            ),
        ];
        m.extend(crate::latency_metrics(
            &all_ms,
            &repeat_ms,
            "repeats of an answered program (re-explored: no cache)",
        ));
        m.push(Metric::new(
            "iters_per_s",
            "1/s",
            iters as f64 / wall_s,
            "ant iterations per pass / wall_s",
            passes,
        ));
        m.extend(crate::report_quality(&reports));
        m
    };
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

fn run_traced(cfg: &FlowConfig, item: &Item, tp: &mut TracedPass) -> FlowReport {
    let tracer = Tracer::new();
    let mut cfg = cfg.clone();
    cfg.tracer = tracer.clone();
    let clock = JobClock::default();
    let lo = tracer.elapsed_ns();
    let (report, metrics) = run_flow_observed(&cfg, &item.program, FLOW_SEED, &clock);
    let hi = tracer.elapsed_ns();
    let records = tracer.records();
    for (name, (ns, n)) in spans::self_times(&records) {
        let slot = tp.self_ns.entry(name).or_default();
        slot.0 += ns;
        slot.1 += n;
    }
    tp.flow_wall_ns += hi - lo;
    tp.flow_covered_ns += spans::covered_ns(&records, "flow.", lo, hi);
    tp.explore_ms += metrics.phases.explore_ms;
    tp.select_ms += metrics.phases.select_ms;
    tp.replace_ms += metrics.phases.replace_ms;
    tp.worker_explore_ms += metrics.phases.explore_ms * metrics.workers as f64;
    tp.job_ms
        .extend(clock.done_ms.into_inner().expect("job clock poisoned"));
    for stat in &metrics.phase_profile.0 {
        if stat.name.starts_with("eval.") || stat.name.starts_with("timing.") {
            *tp.counters.entry(stat.name.clone()).or_default() += stat.count;
        }
    }
    report
}

fn layer_metrics(
    traced: &[TracedPass],
    untraced_s: &[f64],
    traced_s: &[f64],
    programs: usize,
) -> Vec<Metric> {
    let n = traced.len();
    let per_pass =
        |f: &dyn Fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let self_ms = |span: &'static str| {
        let spans: usize = traced
            .iter()
            .map(|t| t.self_ns.get(span).map_or(0, |s| s.1))
            .sum();
        (
            per_pass(&|t| t.self_ns.get(span).map_or(0, |s| s.0) as f64 / 1e6),
            spans,
        )
    };
    let mut m = Vec::new();
    for (metric, span) in [
        ("sched.list.self_ms", "sched.list"),
        ("aco.round.self_ms", "aco.round"),
        ("aco.construct.self_ms", "aco.construct"),
        ("aco.merit.self_ms", "aco.merit"),
        ("aco.pheromone_update.self_ms", "aco.pheromone_update"),
        ("aco.extract.self_ms", "aco.extract"),
        ("eval.lower.self_ms", "eval.lower"),
    ] {
        let (value, spans) = self_ms(span);
        m.push(Metric::new(
            metric,
            "ms",
            value,
            "span self time per pass, median of traced passes",
            spans,
        ));
    }
    let counter = |name: &str| -> u64 {
        traced
            .iter()
            .map(|t| t.counters.get(name).copied().unwrap_or(0))
            .sum()
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let (hits, misses) = (counter("eval.cache_hit"), counter("eval.cache_miss"));
    m.push(Metric::new(
        "eval.cache_hit_ratio",
        "ratio",
        ratio(hits, hits + misses),
        "hits / lookups over traced passes",
        (hits + misses) as usize,
    ));
    let (copied, recomputed) = (
        counter("timing.incr_copied"),
        counter("timing.incr_recomputed"),
    );
    m.push(Metric::new(
        "timing.incr_recomputed_ratio",
        "ratio",
        ratio(recomputed, copied + recomputed),
        "recomputed / touched vertices over traced passes",
        (copied + recomputed) as usize,
    ));
    let job_ms: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.job_ms.iter().copied())
        .collect();
    m.push(Metric::new(
        "engine.job_ms.p50",
        "ms",
        median(&job_ms),
        "median JobStart→JobFinish",
        job_ms.len(),
    ));
    let busy_ms: f64 = job_ms.iter().sum();
    let offered_ms: f64 = traced.iter().map(|t| t.worker_explore_ms).sum();
    m.push(Metric::new(
        "engine.busy_ratio",
        "ratio",
        busy_ms / offered_ms,
        "job time / (workers × explore phase time)",
        job_ms.len(),
    ));
    for (name, value) in [
        ("flow.explore_ms", per_pass(&|t| t.explore_ms)),
        ("flow.select_ms", per_pass(&|t| t.select_ms)),
        ("flow.replace_ms", per_pass(&|t| t.replace_ms)),
    ] {
        m.push(Metric::new(
            name,
            "ms",
            value,
            "phase time per pass, median of traced passes",
            n,
        ));
    }
    let wall: u64 = traced.iter().map(|t| t.flow_wall_ns).sum();
    let covered: u64 = traced.iter().map(|t| t.flow_covered_ns).sum();
    m.push(Metric::new(
        "flow.unattributed_pct",
        "%",
        100.0 * (wall - covered.min(wall)) as f64 / wall as f64,
        "run_flow time outside flow.* spans / run_flow time",
        n * programs,
    ));
    m.push(Metric::new(
        "trace.overhead_ratio",
        "ratio",
        median(traced_s) / median(untraced_s),
        "median traced pass / median untraced pass",
        traced_s.len() + untraced_s.len(),
    ));
    m
}
