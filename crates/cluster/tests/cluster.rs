//! End-to-end cluster tests: determinism of the distributed merge, worker
//! death and re-dispatch, transport fault drills, resume from the store,
//! the heartbeat sentinel, and the Prometheus surface.
//!
//! The load is kept tiny (1–2 hot blocks × 2 repeats × ~30 iterations) so
//! the whole file runs in seconds on one core; every determinism check is
//! a *byte* comparison of serialized [`FlowReport`]s against a plain
//! single-node [`run_flow`] with the same request.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier, Once};
use std::time::Duration;

use isex_cluster::messages::{Hello, HelloAck, JobAssign, Message, RepeatResult, PROTOCOL_VERSION};
use isex_cluster::wire::{read_frame, write_frame};
use isex_cluster::{ClusterRunner, Coordinator, CoordinatorConfig, WorkerConfig};
use isex_engine::{CancelToken, EventSink, FaultPlan, NullSink, RunEvent, RunMetrics, VecSink};
use isex_flow::{explore_block_entry, run_flow, Checkpoints, FlowConfig, FlowReport};
use isex_serve::ExploreRequest;
use isex_workloads::Benchmark;

/// A small two-hot-block request (crc32 has 2 hot blocks at the paper's
/// coverage), so jobs genuinely shard across two workers.
fn small_request(seed: u64) -> ExploreRequest {
    ExploreRequest {
        bench: Benchmark::Crc32,
        seed,
        repeats: 2,
        effort: 30,
        jobs: 1,
        ..ExploreRequest::default()
    }
}

fn coordinator(heartbeat_ms: u64, store_dir: Option<std::path::PathBuf>) -> Arc<Coordinator> {
    Arc::new(
        Coordinator::start(CoordinatorConfig {
            listen_addr: "127.0.0.1:0".to_string(),
            heartbeat_ms,
            heartbeat_misses: 2,
            store_dir,
            ..CoordinatorConfig::default()
        })
        .expect("coordinator binds"),
    )
}

fn spawn_worker(addr: std::net::SocketAddr, name: &str) -> std::thread::JoinHandle<()> {
    spawn_worker_with(addr, name, |_| {})
}

fn spawn_worker_with(
    addr: std::net::SocketAddr,
    name: &str,
    tweak: impl FnOnce(&mut WorkerConfig),
) -> std::thread::JoinHandle<()> {
    let mut config = WorkerConfig {
        connect: addr.to_string(),
        name: name.to_string(),
        retry_ms: 50,
        ..WorkerConfig::default()
    };
    tweak(&mut config);
    std::thread::spawn(move || {
        let _ = isex_cluster::run_worker(&config);
    })
}

fn cluster_run(
    coordinator: &Coordinator,
    request: &ExploreRequest,
    fault_plan: Option<FaultPlan>,
) -> (FlowReport, RunMetrics) {
    let mut cfg = request.flow_config();
    cfg.fault_plan = fault_plan;
    run_with(coordinator, request, &cfg, &NullSink, &CancelToken::new())
}

fn run_with(
    coordinator: &Coordinator,
    request: &ExploreRequest,
    cfg: &FlowConfig,
    sink: &dyn EventSink,
    cancel: &CancelToken,
) -> (FlowReport, RunMetrics) {
    let program = request.program();
    coordinator
        .run(request, cfg, &program, sink, cancel, "trace-test", None)
        .expect("cluster run completes")
}

fn single_node(request: &ExploreRequest, fault_plan: Option<FaultPlan>) -> FlowReport {
    let mut cfg = request.flow_config();
    cfg.fault_plan = fault_plan;
    run_flow(&cfg, &request.program(), request.seed)
}

fn report_json(report: &FlowReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

fn stat_count(metrics: &RunMetrics, name: &str) -> u64 {
    metrics.phase_profile.get(name).map_or(0, |s| s.count)
}

#[test]
fn two_workers_merge_byte_identical_to_single_node() {
    let coord = coordinator(200, None);
    let w0 = spawn_worker(coord.addr(), "w0");
    let w1 = spawn_worker(coord.addr(), "w1");
    assert!(
        coord.wait_for_workers(2, Duration::from_secs(10)),
        "both workers register"
    );

    let request = small_request(11);
    let (report, metrics) = cluster_run(&coord, &request, None);
    assert_eq!(
        report_json(&report),
        report_json(&single_node(&request, None)),
        "clustered report must be byte-identical to the single-node run"
    );
    assert_eq!(coord.workers_alive(), 2);
    assert_eq!(stat_count(&metrics, "cluster.jobs_redispatched"), 0);
    assert_eq!(stat_count(&metrics, "cluster.jobs_local"), 0);
    let remote_jobs = stat_count(&metrics, "cluster.worker.w0.jobs")
        + stat_count(&metrics, "cluster.worker.w1.jobs");
    assert_eq!(
        remote_jobs as usize, metrics.jobs_total,
        "every block ran remotely"
    );

    // A second run over the same live cluster reproduces the same bytes.
    let (again, _) = cluster_run(&coord, &request, None);
    assert_eq!(report_json(&again), report_json(&report));

    Arc::try_unwrap(coord).ok().expect("sole owner").shutdown();
    let _ = (w0.join(), w1.join());
}

#[test]
fn killed_worker_is_redispatched_without_changing_the_answer() {
    let coord = coordinator(100, None);
    // w-dies receives its first assignment and drops dead before running
    // it — the deterministic stand-in for `kill -9` mid-run.
    let dying = spawn_worker_with(coord.addr(), "w-dies", |c| {
        c.die_at_job = Some(1);
        c.reconnect = false;
    });
    let survivor = spawn_worker(coord.addr(), "w-lives");
    assert!(
        coord.wait_for_workers(2, Duration::from_secs(10)),
        "both workers register"
    );

    let request = small_request(23);
    let (report, metrics) = cluster_run(&coord, &request, None);
    assert_eq!(
        report_json(&report),
        report_json(&single_node(&request, None)),
        "a mid-run worker death must not change the merged report"
    );
    assert!(
        stat_count(&metrics, "cluster.jobs_redispatched") >= 1,
        "the dead worker's block was re-dispatched"
    );
    assert_eq!(stat_count(&metrics, "cluster.worker.w-dies.jobs"), 0);
    assert_eq!(
        stat_count(&metrics, "cluster.worker.w-lives.jobs") as usize,
        metrics.jobs_total,
        "the survivor picked up every block"
    );

    Arc::try_unwrap(coord).ok().expect("sole owner").shutdown();
    let _ = (dying.join(), survivor.join());
}

#[test]
fn drop_fault_severs_a_connection_and_the_run_self_heals() {
    let coord = coordinator(100, None);
    let w0 = spawn_worker(coord.addr(), "d0");
    let w1 = spawn_worker(coord.addr(), "d1");
    assert!(coord.wait_for_workers(2, Duration::from_secs(10)));

    // Sever whichever connection block 0's first dispatch picks. Workers
    // reconnect by default, so the cluster heals itself afterwards.
    let plan = FaultPlan::parse("drop@0.0").expect("plan parses");
    let request = small_request(31);
    let (report, metrics) = cluster_run(&coord, &request, Some(plan.clone()));
    assert_eq!(
        report_json(&report),
        report_json(&single_node(&request, Some(plan))),
        "a transport drop must not change the merged report"
    );
    assert!(
        stat_count(&metrics, "cluster.jobs_redispatched") >= 1,
        "the dropped dispatch was re-dispatched"
    );

    Arc::try_unwrap(coord).ok().expect("sole owner").shutdown();
    let _ = (w0.join(), w1.join());
}

#[test]
fn zero_workers_fall_back_to_local_execution() {
    let coord = coordinator(100, None);
    let request = small_request(41);
    let (report, metrics) = cluster_run(&coord, &request, None);
    assert_eq!(
        report_json(&report),
        report_json(&single_node(&request, None)),
        "an empty cluster degrades to the single-node flow"
    );
    assert_eq!(
        stat_count(&metrics, "cluster.jobs_local") as usize,
        metrics.jobs_total
    );
    assert_eq!(coord.workers_alive(), 0);
}

#[test]
fn journal_makes_block_completion_exactly_once() {
    let dir = std::env::temp_dir().join(format!("isex-cluster-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let coord = coordinator(200, Some(dir.clone()));
    let w0 = spawn_worker(coord.addr(), "j0");
    assert!(coord.wait_for_workers(1, Duration::from_secs(10)));

    let request = small_request(53);
    let (first, first_metrics) = cluster_run(&coord, &request, None);
    assert_eq!(first_metrics.blocks_resumed, 0);
    assert!(first_metrics.blocks_explored > 0);

    // Same request again: every block resumes from the store; no job
    // reaches any worker.
    let (second, metrics) = cluster_run(&coord, &request, None);
    assert_eq!(report_json(&second), report_json(&first));
    assert_eq!(metrics.blocks_resumed, first_metrics.blocks_explored);
    assert_eq!(stat_count(&metrics, "cluster.worker.j0.jobs"), 0);
    assert_eq!(stat_count(&metrics, "cluster.jobs_local"), 0);

    // A different seed is a different run key: nothing resumes.
    let other = small_request(54);
    let (_, other_metrics) = cluster_run(&coord, &other, None);
    assert_eq!(other_metrics.blocks_resumed, 0);

    Arc::try_unwrap(coord).ok().expect("sole owner").shutdown();
    let _ = w0.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parks the run that emits through it at its first event until the test
/// has passed the barrier twice: once to see the run hold the slot, once
/// to release it.
struct Gate(Barrier, Once);

impl EventSink for Gate {
    fn emit(&self, _: RunEvent) {
        self.1.call_once(|| {
            self.0.wait();
            self.0.wait();
        });
    }
}

#[test]
fn a_deadline_before_the_run_slot_cuts_from_the_resumed_blocks() {
    let dir = std::env::temp_dir().join(format!("isex-cluster-preslot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // No workers: every job runs on the local fallback.
    let coord = coordinator(100, Some(dir.clone()));
    let request = small_request(61);
    let (first, _) = cluster_run(&coord, &request, None);

    let other = small_request(62);
    let gate = Gate(Barrier::new(2), Once::new());
    std::thread::scope(|scope| {
        let holder = scope.spawn(|| {
            run_with(
                &coord,
                &other,
                &other.flow_config(),
                &gate,
                &CancelToken::new(),
            )
        });
        gate.0.wait();
        let tripped = CancelToken::new();
        tripped.cancel();
        let (report, metrics) = run_with(
            &coord,
            &request,
            &request.flow_config(),
            &NullSink,
            &tripped,
        );
        gate.0.wait();
        holder.join().expect("holder run");
        assert_eq!(report_json(&report), report_json(&first));
        assert!(!report.degraded && !metrics.degraded);
        assert_eq!(metrics.blocks_resumed, metrics.blocks_explored);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crash_mid_save_resumes_every_intact_block_on_each_restart() {
    let dir = std::env::temp_dir().join(format!("isex-cluster-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let request = small_request(71);
    // Full coverage gives the request more than two hot blocks, so the
    // crash leaves one block intact, one torn and the rest unwritten.
    let mut cfg = request.flow_config();
    cfg.hot_block_coverage = 1.0;
    let expected = report_json(&run_flow(&cfg, &request.program(), request.seed));
    let restart = || coordinator(100, Some(dir.clone()));
    let (_, metrics) = run_with(&restart(), &request, &cfg, &NullSink, &CancelToken::new());
    let hot = metrics.blocks_explored;
    assert!(hot >= 3, "{hot} hot blocks");

    let entries = dir.join("entries");
    let mut files: Vec<_> = std::fs::read_dir(&entries)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), hot, "one entry per block: {files:?}");
    let torn = std::fs::read(&files[1]).unwrap();
    std::fs::write(&files[1], &torn[..torn.len() / 2]).unwrap();
    std::fs::write(entries.join("0000000000000000.tmp.1.0"), &torn[..9]).unwrap();
    for file in &files[2..] {
        std::fs::remove_file(file).unwrap();
    }

    for intact in [1, hot] {
        let (report, metrics) =
            run_with(&restart(), &request, &cfg, &NullSink, &CancelToken::new());
        assert_eq!(report_json(&report), expected);
        assert_eq!(metrics.blocks_resumed, intact);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn silent_worker_is_expired_by_the_heartbeat_sentinel() {
    let coord = coordinator(50, None);

    // A hand-rolled worker that completes the handshake, then never beats
    // and swallows whatever it is assigned.
    let stream = hand_rolled_worker(&coord, "zombie");
    assert!(coord.wait_for_workers(1, Duration::from_secs(5)));

    let request = small_request(61);
    let (report, metrics) = cluster_run(&coord, &request, None);
    assert_eq!(
        report_json(&report),
        report_json(&single_node(&request, None)),
        "a silent worker must not change the merged report"
    );
    assert!(
        stat_count(&metrics, "cluster.heartbeats_missed") >= 1,
        "the sentinel declared the zombie dead"
    );
    assert_eq!(coord.workers_alive(), 0);
    // Its job(s) completed elsewhere — here, on the local fallback.
    assert!(stat_count(&metrics, "cluster.jobs_local") >= 1);

    drop(stream);
    Arc::try_unwrap(coord).ok().expect("sole owner").shutdown();
}

#[test]
fn http_explore_scales_out_and_prometheus_shows_cluster_counters() {
    let coord = coordinator(200, None);
    let w0 = spawn_worker(coord.addr(), "h0");
    let w1 = spawn_worker(coord.addr(), "h1");
    assert!(coord.wait_for_workers(2, Duration::from_secs(10)));

    let server_config = isex_serve::ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine_workers: 1,
        ..isex_serve::ServerConfig::default()
    };
    let runner = Arc::new(ClusterRunner::new(Arc::clone(&coord)));
    let handle = isex_serve::start_with_runner(server_config, runner).expect("server starts");
    let addr = handle.addr().to_string();

    let request = small_request(71);
    let response = isex_serve::client::explore(&addr, &request).expect("explore succeeds");
    assert!(!response.cached);
    assert_eq!(
        report_json(&response.report),
        report_json(&single_node(&request, None)),
        "POST /v1/explore through the cluster matches the single-node answer"
    );
    let remote_jobs = stat_count(&response.metrics, "cluster.worker.h0.jobs")
        + stat_count(&response.metrics, "cluster.worker.h1.jobs");
    assert_eq!(remote_jobs as usize, response.metrics.jobs_total);

    // The exact same request is answered from the cache — clustering does
    // not disturb the canonical-key contract.
    let cached = isex_serve::client::explore(&addr, &request).expect("cache hit");
    assert!(cached.cached);

    // The run's cluster counters surface in the Prometheus exposition.
    let prom = isex_serve::client::get(&addr, "/metrics?format=prometheus")
        .expect("metrics fetch")
        .body;
    for needle in [
        "isexd_cluster_workers_alive 2",
        r#"isexd_phases_count{phase="cluster.jobs_redispatched"} 0"#,
        r#"isexd_phases_count{phase="cluster.heartbeats_missed"} 0"#,
        r#"isexd_phases_count{phase="cluster.jobs_local"} 0"#,
        r#"phase="cluster.worker.h"#,
    ] {
        assert!(
            prom.contains(needle),
            "prometheus exposition is missing `{needle}`:\n{prom}"
        );
    }

    handle.shutdown();
    Arc::try_unwrap(coord).ok().expect("sole owner").shutdown();
    let _ = (w0.join(), w1.join());
}

#[test]
fn workers_alive_is_a_live_gauge_not_summed_over_runs() {
    let coord = coordinator(200, None);
    let w0 = spawn_worker(coord.addr(), "g0");
    let w1 = spawn_worker(coord.addr(), "g1");
    assert!(coord.wait_for_workers(2, Duration::from_secs(10)));
    let server_config = isex_serve::ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine_workers: 1,
        ..isex_serve::ServerConfig::default()
    };
    let runner = Arc::new(ClusterRunner::new(Arc::clone(&coord)));
    let handle = isex_serve::start_with_runner(server_config, runner).expect("server starts");
    let addr = handle.addr().to_string();

    // Two distinct runs: a per-run count summed over them would read 4.
    for seed in [73, 74] {
        let response = isex_serve::client::explore(&addr, &small_request(seed)).expect("explore");
        assert!(!response.cached);
    }
    let prom = isex_serve::client::get(&addr, "/metrics?format=prometheus")
        .expect("metrics fetch")
        .body;
    assert!(
        prom.contains("# TYPE isexd_cluster_workers_alive gauge\n"),
        "{prom}"
    );
    assert!(prom.contains("\nisexd_cluster_workers_alive 2\n"), "{prom}");
    assert!(!prom.contains(r#"phase="cluster.workers_alive""#), "{prom}");

    handle.shutdown();
    Arc::try_unwrap(coord).ok().expect("sole owner").shutdown();
    let _ = (w0.join(), w1.join());
}

#[test]
fn tight_deadline_makes_workers_ship_degraded_partials() {
    let coord = coordinator(100, None);
    let w0 = spawn_worker(coord.addr(), "b0");
    assert!(coord.wait_for_workers(1, Duration::from_secs(10)));

    // An exploration far too heavy for its deadline: the coordinator
    // stamps the remaining budget on each assignment, the worker's budget
    // timer trips its cancel token, and a *degraded best-so-far* entry
    // comes back — the run finishes near the deadline instead of running
    // to completion or erroring.
    let request = ExploreRequest {
        bench: Benchmark::Crc32,
        seed: 97,
        repeats: 4,
        effort: if cfg!(debug_assertions) { 300 } else { 2_000 },
        jobs: 1,
        ..ExploreRequest::default()
    };
    let cfg = request.flow_config();
    let program = request.program();
    let started = std::time::Instant::now();
    let (report, metrics) = coord
        .run(
            &request,
            &cfg,
            &program,
            &NullSink,
            &CancelToken::new(),
            "trace-deadline",
            Some(std::time::Instant::now() + Duration::from_millis(300)),
        )
        .expect("a budgeted run answers, degraded, never errors");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the deadline must actually cut the run short"
    );
    assert!(report.degraded, "report carries the degradation marker");
    assert!(metrics.degraded);
    assert!(metrics.blocks_degraded >= 1);
    assert_eq!(
        metrics.jobs_completed + metrics.jobs_failed + metrics.jobs_skipped,
        metrics.jobs_total,
        "job accounting must add up on a cut run: {metrics:?}"
    );
    assert!(
        report
            .per_block
            .iter()
            .any(|b| b.degraded && b.rounds_completed.is_some()),
        "degraded blocks carry rounds_completed provenance: {:?}",
        report.per_block
    );

    // The same request with no deadline still yields the canonical bytes:
    // degradation is a property of the *budget*, not of the cluster.
    let (full, full_metrics) = cluster_run(&coord, &request, None);
    assert!(!full.degraded);
    assert!(!full_metrics.degraded);
    assert_eq!(
        report_json(&full),
        report_json(&single_node(&request, None))
    );

    Arc::try_unwrap(coord).ok().expect("sole owner").shutdown();
    let _ = w0.join();
}

#[test]
fn flapping_worker_trips_its_breaker_and_the_run_falls_back_local() {
    // Every dispatch to this cluster is consumed by a transport drop
    // fault, so the single worker fails on its very first assignment.
    // With a threshold of 1 and a cooloff longer than the test, the
    // breaker opens immediately and stays open: the coordinator must
    // stop retrying the flapping worker and finish every block locally —
    // without changing a byte of the answer.
    let coord = Arc::new(
        Coordinator::start(CoordinatorConfig {
            listen_addr: "127.0.0.1:0".to_string(),
            heartbeat_ms: 100,
            heartbeat_misses: 2,
            breaker_threshold: 1,
            breaker_cooloff_ms: Some(60_000),
            ..CoordinatorConfig::default()
        })
        .expect("coordinator binds"),
    );
    let w0 = spawn_worker(coord.addr(), "flappy");
    assert!(coord.wait_for_workers(1, Duration::from_secs(10)));

    let plan = FaultPlan::parse("drop:1/1").expect("plan parses");
    let request = small_request(89);
    let (report, metrics) = cluster_run(&coord, &request, Some(plan.clone()));
    assert_eq!(
        report_json(&report),
        report_json(&single_node(&request, Some(plan))),
        "breaker fallback must not change the merged report"
    );
    assert!(
        stat_count(&metrics, "cluster.breaker_trips") >= 1,
        "the flapping worker's breaker opened"
    );
    assert_eq!(
        stat_count(&metrics, "cluster.jobs_local") as usize,
        metrics.jobs_total,
        "with the breaker open, every block ran on the local fallback"
    );
    assert_eq!(stat_count(&metrics, "cluster.worker.flappy.jobs"), 0);

    Arc::try_unwrap(coord).ok().expect("sole owner").shutdown();
    let _ = w0.join();
}

#[test]
fn traced_cluster_run_merges_one_chrome_trace_without_changing_bytes() {
    use serde::Value;

    let coord = coordinator(200, None);
    let w0 = spawn_worker(coord.addr(), "t0");
    let w1 = spawn_worker(coord.addr(), "t1");
    assert!(coord.wait_for_workers(2, Duration::from_secs(10)));

    let request = small_request(101);
    let mut cfg = request.flow_config();
    cfg.tracer = isex_trace::Tracer::with_trace_id("trace-pin");
    let program = request.program();
    let (report, _) = coord
        .run(
            &request,
            &cfg,
            &program,
            &NullSink,
            &CancelToken::new(),
            "trace-pin",
            None,
        )
        .expect("traced cluster run completes");

    // The acceptance pin: with tracing ON across all three processes, the
    // merged report stays byte-identical to an *untraced single-node* run.
    // Observability never perturbs the answer.
    assert_eq!(
        report_json(&report),
        report_json(&single_node(&request, None)),
        "tracing must not change a byte of the merged report"
    );

    // One Perfetto-loadable Chrome trace with a pid lane per process and
    // cross-process parent links from worker spans back to the
    // coordinator's `job.dispatch` spans.
    let trace = cfg.tracer.chrome_trace();
    let parsed = serde_json::parse(&trace).expect("chrome trace is valid JSON");
    let events = parsed.as_array().expect("trace-event array");
    let pids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .filter_map(|e| e.get("pid").and_then(Value::as_u64))
        .collect();
    assert!(
        pids.len() >= 2,
        "span events must come from the coordinator AND at least one worker: {pids:?}"
    );
    let process_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
        })
        .collect();
    assert!(
        process_names.iter().any(|n| n.starts_with("isex worker t")),
        "worker lanes carry process names: {process_names:?}"
    );
    let dispatch_ids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("job.dispatch"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("id"))
                .and_then(Value::as_u64)
        })
        .collect();
    assert!(
        !dispatch_ids.is_empty(),
        "coordinator dispatch spans present"
    );
    let linked = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .filter(|e| e.get("pid").and_then(Value::as_u64) != Some(1))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Value::as_u64)
        })
        .filter(|parent| dispatch_ids.contains(parent))
        .count();
    assert!(
        linked >= 1,
        "at least one worker span is parented under a coordinator dispatch span"
    );

    Arc::try_unwrap(coord).ok().expect("sole owner").shutdown();
    let _ = (w0.join(), w1.join());
}

#[test]
fn hostile_bytes_on_the_cluster_port_do_not_wedge_the_coordinator() {
    let coord = coordinator(100, None);

    // Garbage instead of a Hello: the connection is dropped, no worker
    // registers.
    let mut garbage = TcpStream::connect(coord.addr()).expect("connect");
    garbage.write_all(&[0xde, 0xad, 0xbe, 0xef, 0xff]).unwrap();
    drop(garbage);

    // A version-skewed Hello is refused with a Goodbye, from the past
    // (version 1, whose sessions negotiated their observability frames)
    // as from the future.
    let mut skewed = Vec::new();
    for version in [1, PROTOCOL_VERSION + 1] {
        let mut stream = TcpStream::connect(coord.addr()).expect("connect");
        let hello = Message::Hello(Hello {
            version,
            name: format!("v{version}"),
            capacity: 1,
        });
        write_frame(&mut stream, &hello.encode()).unwrap();
        let reply = read_frame(&mut stream).expect("reply").expect("a frame");
        assert_eq!(
            Message::decode(&reply).unwrap(),
            Message::Goodbye,
            "version {version} must be refused"
        );
        skewed.push(stream);
    }
    assert_eq!(coord.workers_alive(), 0, "no skewed worker registered");

    // And a real worker still registers and serves.
    let w0 = spawn_worker(coord.addr(), "ok");
    assert!(coord.wait_for_workers(1, Duration::from_secs(10)));
    let request = small_request(83);
    let (report, _) = cluster_run(&coord, &request, None);
    assert_eq!(
        report_json(&report),
        report_json(&single_node(&request, None))
    );

    drop(skewed);
    Arc::try_unwrap(coord).ok().expect("sole owner").shutdown();
    let _ = w0.join();
}

#[test]
fn out_of_range_block_index_fails_the_job_without_panicking_the_worker() {
    // A hand-rolled coordinator: accept the real worker's Hello, ack it,
    // then assign a block far outside the run's hot list.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let config = WorkerConfig {
        connect: listener.local_addr().unwrap().to_string(),
        name: "bounds".to_string(),
        reconnect: false,
        retry_ms: 50,
        ..WorkerConfig::default()
    };
    let worker = std::thread::spawn(move || isex_cluster::run_worker(&config));

    let (mut stream, _) = listener.accept().expect("worker dials");
    let hello = read_frame(&mut stream)
        .expect("hello frame")
        .expect("hello");
    assert!(matches!(Message::decode(&hello), Ok(Message::Hello(_))));
    let ack = Message::HelloAck(HelloAck {
        version: PROTOCOL_VERSION,
        heartbeat_ms: 1_000,
    });
    write_frame(&mut stream, &ack.encode()).expect("ack");
    let assign = Message::Job(JobAssign {
        job_id: 1,
        request: small_request(91).to_json(),
        fault_plan: None,
        block_index: 10_000,
        repeat: 0,
        attempt: 0,
        trace_id: "bounds".to_string(),
        budget_ms: None,
        collect_spans: false,
        parent_span: None,
    });
    write_frame(&mut stream, &assign.encode()).expect("assign");

    let outcome = worker.join();
    assert!(
        matches!(outcome, Ok(Err(_))),
        "the bad job drops the session, not the process: {outcome:?}"
    );
}

/// adpcm at -O3 has a single hot block: all of the request's work is that
/// block's repeats.
fn one_block_request(seed: u64) -> ExploreRequest {
    ExploreRequest {
        bench: Benchmark::Adpcm,
        seed,
        repeats: 2,
        effort: 30,
        jobs: 1,
        ..ExploreRequest::default()
    }
}

#[test]
fn one_heavy_block_splits_its_repeats_across_two_workers() {
    let coord = coordinator(200, None);
    let w0 = spawn_worker(coord.addr(), "s0");
    let w1 = spawn_worker(coord.addr(), "s1");
    assert!(coord.wait_for_workers(2, Duration::from_secs(10)));

    let request = one_block_request(13);
    let (report, metrics) = cluster_run(&coord, &request, None);
    assert_eq!(metrics.blocks_explored, 1, "one hot block");
    assert_eq!(metrics.jobs_total, 2);
    assert_eq!(
        report_json(&report),
        report_json(&single_node(&request, None)),
        "repeats of one block on two workers reduce to the single-node bytes"
    );
    for worker in ["s0", "s1"] {
        assert!(
            stat_count(&metrics, &format!("cluster.worker.{worker}.jobs")) >= 1,
            "worker {worker} ran one of the block's repeats"
        );
    }

    Arc::try_unwrap(coord).ok().expect("sole owner").shutdown();
    let _ = (w0.join(), w1.join());
}

#[test]
fn worker_trace_files_are_named_per_repeat() {
    use serde::Value;

    let dir = std::env::temp_dir().join(format!("isex-cluster-traces-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let coord = coordinator(200, None);
    // One worker runs both repeats of the one block: without the repeat
    // in the file name the second trace would overwrite the first.
    let trace_dir = dir.clone();
    let w0 = spawn_worker_with(coord.addr(), "tf", move |c| c.trace_dir = Some(trace_dir));
    assert!(coord.wait_for_workers(1, Duration::from_secs(10)));

    let request = one_block_request(17);
    let (report, _) = cluster_run(&coord, &request, None);
    assert_eq!(
        report_json(&report),
        report_json(&single_node(&request, None))
    );
    for repeat in 0..2 {
        let path = dir.join(format!("trace-test.tf.b0.r{repeat}.trace.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} missing: {e}", path.display()));
        let parsed = serde_json::parse(&text).expect("chrome trace is valid JSON");
        let span_repeats: Vec<&str> = parsed
            .as_array()
            .expect("trace-event array")
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("worker.block"))
            .filter_map(|e| e.get("args")?.get("repeat")?.as_str())
            .collect();
        assert_eq!(
            span_repeats,
            vec![repeat.to_string().as_str()],
            "{} holds its own repeat's worker.block span",
            path.display()
        );
    }

    Arc::try_unwrap(coord).ok().expect("sole owner").shutdown();
    let _ = w0.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hand-rolled worker named `name`, past its handshake.
fn hand_rolled_worker(coord: &Coordinator, name: &str) -> TcpStream {
    let mut stream = TcpStream::connect(coord.addr()).expect("connect");
    let hello = Message::Hello(Hello {
        version: PROTOCOL_VERSION,
        name: name.to_string(),
        capacity: 1,
    });
    write_frame(&mut stream, &hello.encode()).expect("hello");
    let ack = read_frame(&mut stream).expect("ack frame").expect("ack");
    assert!(matches!(Message::decode(&ack), Ok(Message::HelloAck(_))));
    stream
}

/// The answer a real worker named `worker` gives `assign`.
fn real_answer(assign: &JobAssign, worker: &str) -> RepeatResult {
    let request = serde_json::parse(&assign.request).expect("request JSON");
    let request = ExploreRequest::from_json(&request).expect("request");
    let (cfg, program, none) = (request.flow_config(), request.program(), CancelToken::new());
    let job = [(assign.block_index, assign.repeat)];
    let outcome = isex_flow::explore_repeats(&cfg, &program, request.seed, &job, &NullSink, &none);
    RepeatResult {
        job_id: assign.job_id,
        worker: worker.to_string(),
        run_key: isex_flow::run_key(&cfg, &program, request.seed),
        block_index: assign.block_index,
        repeat: assign.repeat,
        outcome: outcome.into_iter().next().expect("one job, one outcome"),
    }
}

/// The next job assigned on `stream`, or `None` once it closes.
fn next_assign(stream: &mut TcpStream) -> Option<JobAssign> {
    while let Ok(Some(frame)) = read_frame(stream) {
        if let Ok(Message::Job(assign)) = Message::decode(&frame) {
            return Some(assign);
        }
    }
    None
}

#[test]
fn duplicate_repeat_results_are_dropped() {
    use isex_engine::RepeatOutcome;

    let coord = coordinator(1_000, None);
    // A hand-rolled worker that answers every job with the real outcome,
    // then sends a conflicting copy of the same result: the first answer
    // for a `(block, repeat)` must win.
    let mut stream = hand_rolled_worker(&coord, "twice");
    let answerer = std::thread::spawn(move || {
        let mut answered = 0usize;
        while let Some(assign) = next_assign(&mut stream) {
            let first = real_answer(&assign, "twice");
            let duplicate = RepeatResult {
                outcome: RepeatOutcome::Panicked("duplicate".to_string()),
                ..first.clone()
            };
            for message in [
                Message::RepeatResult(first),
                Message::RepeatResult(duplicate),
                Message::Heartbeat,
            ] {
                if write_frame(&mut stream, &message.encode()).is_err() {
                    return answered;
                }
            }
            answered += 1;
        }
        answered
    });
    assert!(coord.wait_for_workers(1, Duration::from_secs(5)));

    let request = small_request(67);
    let (report, metrics) = cluster_run(&coord, &request, None);
    assert_eq!(
        report_json(&report),
        report_json(&single_node(&request, None)),
        "a conflicting duplicate must not change the merged report"
    );
    assert_eq!(metrics.jobs_failed, 0, "the duplicate panic was dropped");
    assert_eq!(
        stat_count(&metrics, "cluster.worker.twice.jobs") as usize,
        metrics.jobs_total,
        "each job counted once"
    );

    Arc::try_unwrap(coord).ok().expect("sole owner").shutdown();
    assert_eq!(answerer.join().expect("answerer"), metrics.jobs_total);
}

#[test]
fn a_cut_runs_late_result_leaves_the_next_run_alone() {
    let coord = coordinator(5_000, None);
    // A hand-rolled worker keeps run A's job until A is cut, answers it
    // during run B, then serves B.
    let mut stream = hand_rolled_worker(&coord, "late");
    let gate = Arc::new(Barrier::new(2));
    let worker_gate = Arc::clone(&gate);
    let answerer = std::thread::spawn(move || {
        let held = next_assign(&mut stream).expect("run A's job");
        // A holds its job: the test cuts A and starts B. Read with a timeout:
        // B sends nothing while this worker holds A's job, but a coordinator
        // that took it for idle would dispatch at once.
        worker_gate.wait();
        worker_gate.wait();
        let wait = Some(Duration::from_millis(500));
        stream.set_read_timeout(wait).unwrap();
        let early = next_assign(&mut stream);
        stream.set_read_timeout(None).unwrap();
        let mut reader = stream.try_clone().unwrap();
        let later = std::iter::from_fn(|| next_assign(&mut reader));
        for assign in std::iter::once(held).chain(early).chain(later) {
            let result = Message::RepeatResult(real_answer(&assign, "late"));
            if write_frame(&mut stream, &result.encode()).is_err() {
                break;
            }
        }
    });
    assert!(coord.wait_for_workers(1, Duration::from_secs(5)));

    let (a, cut) = (small_request(5), CancelToken::new());
    std::thread::scope(|scope| {
        let run_a = scope.spawn(|| run_with(&coord, &a, &a.flow_config(), &NullSink, &cut));
        gate.wait();
        cut.cancel();
        assert!(run_a.join().expect("run A").0.degraded);
    });
    gate.wait();
    let b = small_request(6);
    let (report, metrics) = cluster_run(&coord, &b, None);
    assert_eq!(report_json(&report), report_json(&single_node(&b, None)));
    let requeued = stat_count(&metrics, "cluster.jobs_redispatched");
    assert_eq!(requeued, 0, "A's late result requeued none of B's jobs");

    Arc::try_unwrap(coord).ok().expect("sole owner").shutdown();
    answerer.join().expect("answerer");
}

#[test]
fn zero_workers_run_only_the_jobs_the_store_lacks_on_one_pool() {
    let dir = std::env::temp_dir().join(format!("isex-cluster-subset-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut request = small_request(43);
    request.jobs = 2;
    let (cfg, program, none) = (request.flow_config(), request.program(), CancelToken::new());
    // The store already holds block 0's entry.
    let entry = explore_block_entry(&cfg, &program, request.seed, 0, &NullSink, &none).unwrap();
    Checkpoints::open(&dir).unwrap().save(&entry).unwrap();

    let (coord, sink) = (coordinator(100, Some(dir.clone())), VecSink::new());
    let (report, metrics) = run_with(&coord, &request, &cfg, &sink, &none);
    let single = single_node(&request, None);
    assert_eq!(report_json(&report), report_json(&single));
    assert!(metrics.blocks_explored >= 2);
    assert_eq!(metrics.blocks_resumed, 1);
    let events = sink.into_events();
    let ran = events
        .iter()
        .filter(|e| matches!(e, RunEvent::JobStart { .. }))
        .count();
    assert_eq!(ran, (metrics.blocks_explored - 1) * request.repeats);
    assert_eq!(stat_count(&metrics, "cluster.jobs_local") as usize, ran);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn workers_exit_promptly_after_goodbye() {
    // A heartbeat far longer than the bound: a worker must notice the
    // coordinator's Goodbye at once, not after sleeping out a beat.
    let coord = coordinator(5_000, None);
    let w0 = spawn_worker(coord.addr(), "exit0");
    let w1 = spawn_worker(coord.addr(), "exit1");
    assert!(coord.wait_for_workers(2, Duration::from_secs(10)));
    // Registration precedes a worker's read of its HelloAck; a served run
    // proves a session is past it, with its heartbeat thread waiting.
    cluster_run(&coord, &small_request(3), None);
    let started = std::time::Instant::now();
    Arc::try_unwrap(coord).ok().expect("sole owner").shutdown();
    w0.join().expect("worker 0 exits cleanly");
    w1.join().expect("worker 1 exits cleanly");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(2_500),
        "shutdown plus joining the workers took {elapsed:?}"
    );
}
