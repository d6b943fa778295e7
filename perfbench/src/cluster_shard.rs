//! `cluster-shard`: a coordinator and two in-process workers over
//! loopback. One caller runs `Coordinator::run` on the seven benchmarks in
//! a seeded order per pass; every merged report is
//! byte-compared with a single-node `run_flow` made during set-up.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use isex_cluster::{run_worker, Coordinator, CoordinatorConfig, WorkerConfig};
use isex_engine::{CancelToken, NullSink, RunMetrics};
use isex_flow::{run_flow, FlowReport};
use isex_serve::ExploreRequest;
use isex_workloads::{Benchmark, OptLevel, Program};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;

use crate::stats::{self, for_window, median, Metric};
use crate::Outcome;

const WORKERS: usize = 2;
const REPEATS: usize = 2;
const EFFORT: usize = 60;

struct Job {
    request: ExploreRequest,
    program: Program,
    golden: String,
}

struct Cluster {
    coordinator: Coordinator,
    workers: Vec<JoinHandle<()>>,
}

impl Cluster {
    fn start() -> Cluster {
        let coordinator =
            Coordinator::start(CoordinatorConfig::default()).expect("coordinator binds");
        let workers = (0..WORKERS)
            .map(|i| {
                let config = WorkerConfig {
                    connect: coordinator.addr().to_string(),
                    name: format!("w{i}"),
                    retry_ms: 50,
                    ..WorkerConfig::default()
                };
                std::thread::spawn(move || {
                    if let Err(e) = run_worker(&config) {
                        eprintln!("cluster-shard: worker {}: {e}", config.name);
                    }
                })
            })
            .collect();
        assert!(
            coordinator.wait_for_workers(WORKERS, Duration::from_secs(30)),
            "workers register"
        );
        Cluster {
            coordinator,
            workers,
        }
    }

    fn stop(self) {
        self.coordinator.shutdown();
        for w in self.workers {
            w.join().expect("worker thread");
        }
    }
}

/// The seven benchmarks at -O3 with a fixed exploration seed, so every
/// pass does the same work, and their single-node answers.
fn jobs() -> Vec<Job> {
    Benchmark::ALL
        .iter()
        .map(|&bench| {
            let request = ExploreRequest {
                bench,
                opt: OptLevel::O3,
                seed: crate::paper_suite::FLOW_SEED,
                repeats: REPEATS,
                effort: EFFORT,
                jobs: 1,
                ..ExploreRequest::default()
            };
            let program = request.program();
            let report = run_flow(&single_node_cfg(&request), &program, request.seed);
            Job {
                golden: serde_json::to_string(&report).expect("report serializes"),
                request,
                program,
            }
        })
        .collect()
}

/// The single-node reference configuration: the request's, at two workers
/// (reports are identical at any worker count).
fn single_node_cfg(request: &ExploreRequest) -> isex_flow::FlowConfig {
    let mut cfg = request.flow_config();
    cfg.jobs = 2;
    cfg
}

fn check(job: &Job, report: &FlowReport, path: &str) -> bool {
    let ok =
        !report.degraded && serde_json::to_string(report).expect("report serializes") == job.golden;
    if !ok {
        eprintln!(
            "cluster-shard: {path} report for `{}` differs from run_flow",
            job.request.canonical_key()
        );
    }
    ok
}

fn cluster_run(cluster: &Cluster, job: &Job) -> Option<(FlowReport, RunMetrics)> {
    cluster
        .coordinator
        .run(
            &job.request,
            &job.request.flow_config(),
            &job.program,
            &NullSink,
            &CancelToken::new(),
            "perfbench",
            None,
        )
        .ok()
}

pub fn run(seed: u64, window: Duration, trace: bool) -> Outcome {
    let ((jobs, cluster), setup_metric) =
        stats::repeated_setup(|| (jobs(), Cluster::start()), |(_, c)| c.stop());
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut lat_ms = Vec::new();
    let mut repeat_ms = Vec::new();
    let mut cluster_pass_s = Vec::new();
    let mut single_pass_s = Vec::new();
    let mut reports: Vec<Option<FlowReport>> = vec![None; jobs.len()];
    let mut counters = (0u64, 0u64);

    // The benchmark seed orders the requests of every pass.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    for_window(window, |pass| {
        let single = trace && pass % 2 == 1;
        stats::shuffle(&mut order, &mut rng);
        let start = Instant::now();
        for &i in &order {
            let job = &jobs[i];
            let t = Instant::now();
            let answer = if single {
                let cfg = single_node_cfg(&job.request);
                Some(run_flow(&cfg, &job.program, job.request.seed))
            } else {
                cluster_run(&cluster, job).map(|(report, metrics)| {
                    let stat = |n: &str| metrics.phase_profile.get(n).map_or(0, |s| s.count);
                    counters.0 += stat("cluster.jobs_redispatched");
                    counters.1 += stat("cluster.jobs_local");
                    report
                })
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            attempted += 1;
            match answer {
                Some(report) => {
                    if !check(job, &report, if single { "single-node" } else { "cluster" }) {
                        failed += 1;
                    }
                    if !single {
                        lat_ms.push(ms);
                        if reports[i].is_some() {
                            repeat_ms.push(ms);
                        }
                    }
                    reports[i].get_or_insert(report);
                }
                None => {
                    eprintln!(
                        "cluster-shard: run of `{}` failed",
                        job.request.canonical_key()
                    );
                    failed += 1;
                }
            }
        }
        let s = start.elapsed().as_secs_f64();
        eprintln!(
            "cluster-shard pass {pass}{}: {s:.3} s",
            if single { " (single node)" } else { "" }
        );
        if single {
            single_pass_s.push(s);
        } else {
            cluster_pass_s.push(s);
        }
    });
    let dispatch_p50 = worker_p50_ms(&cluster.coordinator.metrics_value());
    cluster.stop();

    let reports: Vec<FlowReport> = reports.into_iter().flatten().collect();
    let metrics = if trace {
        let runs = cluster_pass_s.len() * jobs.len();
        vec![
            Metric::new(
                "cluster.overhead_ratio",
                "ratio",
                median(&cluster_pass_s) / median(&single_pass_s),
                "median cluster pass / median single-node pass at 2 workers",
                cluster_pass_s.len() + single_pass_s.len(),
            ),
            Metric::new(
                "cluster.dispatch_ms.p50",
                "ms",
                median(&dispatch_p50),
                "median over workers of the coordinator's dispatch→result p50 bucket",
                dispatch_p50.len(),
            ),
            Metric::new(
                "cluster.jobs_redispatched",
                "count",
                counters.0 as f64,
                "sum over cluster runs",
                runs,
            ),
            Metric::new(
                "cluster.jobs_local",
                "count",
                counters.1 as f64,
                "sum over cluster runs",
                runs,
            ),
        ]
    } else {
        let wall_s = median(&cluster_pass_s);
        let iters: usize = reports.iter().map(|r| r.iterations).sum();
        let mut m = vec![
            setup_metric,
            Metric::new(
                "wall_s",
                "s",
                wall_s,
                "median of passes",
                cluster_pass_s.len(),
            ),
        ];
        m.extend(crate::latency_metrics(
            &lat_ms,
            &repeat_ms,
            "repeats of an answered request (re-explored: no cache)",
        ));
        m.push(Metric::new(
            "iters_per_s",
            "1/s",
            iters as f64 / wall_s,
            "ant iterations per pass / wall_s",
            cluster_pass_s.len(),
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

/// Each worker's `latency_p50_ms` from the coordinator's metrics rollup.
fn worker_p50_ms(rollup: &Value) -> Vec<f64> {
    rollup
        .get("worker")
        .and_then(Value::as_object)
        .map(|workers| {
            workers
                .iter()
                .filter_map(|(_, w)| w.get("latency_p50_ms").and_then(Value::as_f64))
                .collect()
        })
        .unwrap_or_default()
}
