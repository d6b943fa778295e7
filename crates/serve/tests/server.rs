//! End-to-end tests over real TCP: every test binds `127.0.0.1:0`, starts
//! a full server, and talks to it with the blocking client.
//!
//! Coverage follows the service's contract:
//! * a served exploration is bitwise identical to a direct `run_flow`;
//! * repeating a request is a cache hit — counter increments, latency drops;
//! * malformed requests get `400`, unknown paths `404`, wrong methods `405`;
//! * a full queue gets `503` + `Retry-After`;
//! * a request that outlives its deadline gets `504`;
//! * graceful shutdown drains the in-flight run (its waiter gets `200`)
//!   and rejects queued ones (`503`).

use std::time::{Duration, Instant};

use isex_serve::client::{self, ClientError};
use isex_serve::{start, ExploreRequest, ServerConfig};
use serde::Value;

fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    }
}

fn request(seed: u64, effort: usize, repeats: usize) -> ExploreRequest {
    ExploreRequest {
        seed,
        effort,
        repeats,
        ..ExploreRequest::default()
    }
}

/// Debug builds explore several times slower than release; slow requests
/// use a smaller iteration budget there so the suite's wall-clock stays
/// comparable under plain `cargo test`.
const SLOW_EFFORT: usize = if cfg!(debug_assertions) { 300 } else { 2_000 };
const MEDIUM_EFFORT: usize = if cfg!(debug_assertions) { 150 } else { 600 };

/// A request quick enough to answer in tens of milliseconds.
fn quick(seed: u64) -> ExploreRequest {
    request(seed, 40, 2)
}

/// A request slow enough (seconds) to observe in-flight through `/metrics`.
fn slow(seed: u64) -> ExploreRequest {
    request(seed, SLOW_EFFORT, 4)
}

fn metrics(addr: &str) -> Value {
    let raw = client::get(addr, "/metrics").expect("GET /metrics");
    assert_eq!(raw.status, 200, "{}", raw.body);
    serde_json::parse(&raw.body).expect("metrics JSON")
}

/// Walks an object path like `["queue", "depth"]`.
fn lookup<'a>(value: &'a Value, path: &[&str]) -> &'a Value {
    let mut current = value;
    for key in path {
        current = current
            .as_object()
            .unwrap_or_else(|| panic!("`{key}`: not an object"))
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no `{key}` in metrics"));
    }
    current
}

fn metric_u64(value: &Value, path: &[&str]) -> u64 {
    match lookup(value, path) {
        Value::U64(n) => *n,
        Value::I64(n) => *n as u64,
        other => panic!("{path:?}: expected integer, got {}", other.kind()),
    }
}

fn metric_f64(value: &Value, path: &[&str]) -> f64 {
    match lookup(value, path) {
        Value::F64(x) => *x,
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        other => panic!("{path:?}: expected number, got {}", other.kind()),
    }
}

/// Polls `/metrics` until `predicate` holds; panics after `timeout`.
fn wait_for_metric(addr: &str, timeout: Duration, what: &str, predicate: impl Fn(&Value) -> bool) {
    let deadline = Instant::now() + timeout;
    loop {
        if predicate(&metrics(addr)) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn served_exploration_matches_direct_run_bitwise() {
    let handle = start(config()).expect("start server");
    let addr = handle.addr().to_string();

    let req = quick(0x5e_ed);
    let response = client::explore(&addr, &req).expect("explore");
    assert!(!response.cached);

    let direct = isex_flow::run_flow(&req.flow_config(), &req.program(), req.seed);
    assert_eq!(
        serde_json::to_string(&response.report).unwrap(),
        serde_json::to_string(&direct).unwrap(),
        "served report must be bitwise identical to a direct run_flow"
    );

    // Provenance travels with the metrics.
    assert_eq!(response.metrics.algorithm, "MI");
    assert_eq!(response.metrics.benchmark, direct_benchmark_name(&req));
    assert!(!response.metrics.version.is_empty());
    assert_eq!(response.metrics.master_seed, req.seed);

    handle.shutdown();
}

fn direct_benchmark_name(req: &ExploreRequest) -> String {
    req.program().name.clone()
}

#[test]
fn repeated_request_is_a_cache_hit_with_lower_latency() {
    let handle = start(config()).expect("start server");
    let addr = handle.addr().to_string();

    // Expensive enough that the recompute-vs-lookup gap is unmistakable.
    let req = request(0xCAC4E, MEDIUM_EFFORT, 2);

    let t0 = Instant::now();
    let first = client::explore(&addr, &req).expect("first explore");
    let miss_latency = t0.elapsed();
    assert!(!first.cached);

    let snap = metrics(&addr);
    assert_eq!(metric_u64(&snap, &["cache", "misses"]), 1);
    assert_eq!(metric_u64(&snap, &["cache", "hits"]), 0);
    let sum_after_miss = metric_f64(&snap, &["latency", "explore", "sum_ms"]);

    let t1 = Instant::now();
    let second = client::explore(&addr, &req).expect("second explore");
    let hit_latency = t1.elapsed();
    assert!(second.cached, "identical request must be served from cache");
    assert_eq!(second.key, first.key);
    assert_eq!(
        serde_json::to_string(&second.report).unwrap(),
        serde_json::to_string(&first.report).unwrap()
    );

    let snap = metrics(&addr);
    assert_eq!(metric_u64(&snap, &["cache", "hits"]), 1);
    assert_eq!(metric_u64(&snap, &["cache", "misses"]), 1);
    assert_eq!(metric_u64(&snap, &["latency", "explore", "count"]), 2);

    // Both clocks agree the hit was strictly cheaper: client wall time and
    // the server's own histogram.
    assert!(
        hit_latency < miss_latency,
        "cache hit ({hit_latency:?}) should beat recompute ({miss_latency:?})"
    );
    let sum_after_hit = metric_f64(&snap, &["latency", "explore", "sum_ms"]);
    assert!(
        sum_after_hit - sum_after_miss < sum_after_miss,
        "server-side hit latency ({:.2}ms) should beat the miss ({sum_after_miss:.2}ms)",
        sum_after_hit - sum_after_miss
    );

    handle.shutdown();
}

#[test]
fn malformed_requests_get_400_and_routing_errors_are_clean() {
    let handle = start(config()).expect("start server");
    let addr = handle.addr().to_string();
    let timeout = Duration::from_secs(30);

    // Broken JSON.
    let raw = client::roundtrip(&addr, "POST", "/v1/explore", Some("{not json"), timeout).unwrap();
    assert_eq!(raw.status, 400, "{}", raw.body);
    assert!(raw.body.contains("error"), "{}", raw.body);

    // Valid JSON, unknown field.
    let raw = client::roundtrip(
        &addr,
        "POST",
        "/v1/explore",
        Some(r#"{"bench": "crc32", "bananas": 1}"#),
        timeout,
    )
    .unwrap();
    assert_eq!(raw.status, 400, "{}", raw.body);
    assert!(raw.body.contains("bananas"), "{}", raw.body);

    // Valid JSON, unknown benchmark: the registry's error lists valid names.
    let raw = client::roundtrip(
        &addr,
        "POST",
        "/v1/explore",
        Some(r#"{"bench": "quicksort"}"#),
        timeout,
    )
    .unwrap();
    assert_eq!(raw.status, 400, "{}", raw.body);
    assert!(
        raw.body.contains("crc32"),
        "should list valid names: {}",
        raw.body
    );

    // Routing.
    let raw = client::roundtrip(&addr, "GET", "/nope", None, timeout).unwrap();
    assert_eq!(raw.status, 404);
    let raw = client::roundtrip(&addr, "POST", "/healthz", Some("{}"), timeout).unwrap();
    assert_eq!(raw.status, 405);
    let raw = client::get(&addr, "/healthz").unwrap();
    assert_eq!(raw.status, 200);

    let snap = metrics(&addr);
    assert_eq!(metric_u64(&snap, &["requests", "by_status", "400"]), 3);

    handle.shutdown();
}

#[test]
fn full_queue_gets_503_with_retry_after() {
    // One worker, one waiting slot: the third concurrent request must bounce.
    let cfg = ServerConfig {
        engine_workers: 1,
        queue_capacity: 1,
        ..config()
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.addr().to_string();

    let addr_a = addr.clone();
    let a = std::thread::spawn(move || client::explore(&addr_a, &slow(1)));
    wait_for_metric(&addr, Duration::from_secs(30), "job A in flight", |m| {
        metric_u64(m, &["queue", "in_flight"]) == 1
    });

    let addr_b = addr.clone();
    let b = std::thread::spawn(move || client::explore(&addr_b, &slow(2)));
    wait_for_metric(&addr, Duration::from_secs(30), "job B queued", |m| {
        metric_u64(m, &["queue", "depth"]) == 1
    });

    // The queue is now full: an immediate 503, not a hang.
    let t0 = Instant::now();
    match client::explore(&addr, &slow(3)) {
        Err(ClientError::Http { status: 503, .. }) => {}
        other => panic!("expected 503, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "backpressure must answer immediately, not after the queue drains"
    );
    let raw = client::roundtrip(
        &addr,
        "POST",
        "/v1/explore",
        Some(&slow(4).to_json()),
        Duration::from_secs(30),
    )
    .unwrap();
    assert_eq!(raw.status, 503);
    assert_eq!(
        raw.header("retry-after"),
        Some(isex_serve::server::RETRY_AFTER_SECS.to_string().as_str())
    );

    let snap = metrics(&addr);
    assert!(metric_u64(&snap, &["queue", "rejected_queue_full"]) >= 2);

    // Shutdown drains: the in-flight run completes (200), the queued one is
    // rejected (503).
    handle.shutdown();
    let a = a.join().expect("join A");
    assert!(a.is_ok(), "in-flight job should drain to 200: {a:?}");
    match b.join().expect("join B") {
        Err(ClientError::Http { status: 503, .. }) => {}
        other => panic!("queued job should be rejected on shutdown, got {other:?}"),
    }
}

#[test]
fn tight_deadline_yields_degraded_200_within_budget() {
    let cfg = ServerConfig {
        engine_workers: 1,
        ..config()
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.addr().to_string();

    // A run that would take seconds, boxed into a 1-second budget: the
    // watchdog trips the run at the budget minus grace, the engine hands
    // back its best-so-far partial, and the waiter gets a 200 with
    // `"degraded": true` instead of an empty-handed 504. Three times the
    // repeats of `slow`, whose single run can finish inside the budget.
    let full = request(0xDEAD, SLOW_EFFORT, 12);
    let mut req = full.clone();
    req.timeout_ms = Some(1_000);
    let t0 = Instant::now();
    let response = client::explore(&addr, &req).expect("partial answer, not an error");
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "the deadline must bound the wait"
    );
    assert!(response.degraded, "envelope must carry degraded");
    assert!(response.report.degraded, "report must carry degraded");
    assert!(response.metrics.degraded, "metrics must carry degraded");
    assert!(
        response
            .report
            .per_block
            .iter()
            .any(|b| b.degraded && b.rounds_completed.is_some()),
        "degraded blocks must carry rounds_completed: {:?}",
        response.report.per_block
    );
    wait_for_metric(
        &addr,
        Duration::from_secs(10),
        "degraded run counted",
        |m| {
            metric_u64(m, &["requests", "degraded_runs"]) == 1
                && metric_u64(m, &["requests", "degraded_responses"]) == 1
        },
    );

    // The partial must never have entered a cache tier: the same
    // exploration with a full budget recomputes from scratch and matches a
    // direct run bitwise.
    let again = client::explore(&addr, &full).expect("full-budget run");
    assert!(!again.cached, "degraded result must not have been cached");
    assert!(!again.degraded);
    let direct = isex_flow::run_flow(&full.flow_config(), &full.program(), full.seed);
    assert_eq!(
        serde_json::to_string(&again.report).unwrap(),
        serde_json::to_string(&direct).unwrap(),
        "the full-budget rerun is the canonical answer"
    );

    handle.shutdown();
}

#[test]
fn async_job_coalescing_onto_a_tight_run_extends_its_deadline() {
    let cfg = ServerConfig {
        engine_workers: 1,
        ..config()
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.addr().to_string();

    // A sync run whose budget is far shorter than its work...
    let mut tight = slow(0xC0A1);
    tight.timeout_ms = Some(400);
    let (addr_sync, sync_req) = (addr.clone(), tight.clone());
    let sync = std::thread::spawn(move || client::explore(&addr_sync, &sync_req));
    wait_for_metric(&addr, Duration::from_secs(30), "sync run in flight", |m| {
        metric_u64(m, &["queue", "in_flight"]) == 1
    });

    // ...joined by an async job for the same exploration with a long
    // budget: the run must get the longer budget, not stop at the first.
    let mut patient = tight;
    patient.timeout_ms = Some(600_000);
    let submitted = client::submit_job(&addr, &patient).expect("submit");
    assert!(submitted.coalesced, "same canonical key joins the run");
    let done = client::wait_job(&addr, &submitted.job_id, 600_000).expect("wait");
    assert_eq!(done.status, "done", "error: {:?}", done.error);
    assert!(!done.report.expect("report").degraded, "full-budget report");
    assert!(!done.metrics.expect("metrics").degraded);
    let _ = sync.join().expect("join");
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_the_in_flight_job() {
    let cfg = ServerConfig {
        engine_workers: 1,
        ..config()
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.addr().to_string();

    let addr_a = addr.clone();
    let req = slow(0x0FF);
    let expected = isex_flow::run_flow(&req.flow_config(), &req.program(), req.seed);
    let a = std::thread::spawn(move || client::explore(&addr_a, &req));
    wait_for_metric(&addr, Duration::from_secs(30), "job in flight", |m| {
        metric_u64(m, &["queue", "in_flight"]) == 1
    });

    // shutdown() blocks until the worker finishes the run; the waiter must
    // still receive the full, correct answer.
    handle.shutdown();
    let response = a.join().expect("join").expect("drained job answers 200");
    assert_eq!(
        serde_json::to_string(&response.report).unwrap(),
        serde_json::to_string(&expected).unwrap(),
        "a drained job still returns the exact deterministic result"
    );

    // The listener is gone: new connections are refused.
    assert!(
        client::get(&addr, "/healthz").is_err(),
        "server should no longer accept connections"
    );
}
