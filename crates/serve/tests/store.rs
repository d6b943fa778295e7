//! End-to-end tests of the async job tier and the persistent result store:
//! every test binds `127.0.0.1:0` and talks to a full server over TCP.
//!
//! Coverage follows the contract:
//! * a stored result survives a server restart and is byte-identical to a
//!   direct `run_flow` of the same request;
//! * two live replicas sharing one `--store-dir` share answers;
//! * N concurrent identical explorations coalesce into ONE engine run;
//! * damaged runs (injected panics, cancellations) never persist;
//! * the `/v1/jobs` lifecycle: submit → wait → done, cache-tier admission;
//! * `405` responses carry an `Allow` header (checked over raw TCP).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use isex_engine::FaultPlan;
use isex_serve::client;
use isex_serve::{start, ExploreRequest, ServerConfig};
use serde::Value;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "isex-serve-store-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(store_dir: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir,
        ..ServerConfig::default()
    }
}

fn quick(seed: u64) -> ExploreRequest {
    ExploreRequest {
        seed,
        effort: 40,
        repeats: 2,
        ..ExploreRequest::default()
    }
}

fn metrics(addr: &str) -> Value {
    let raw = client::get(addr, "/metrics").expect("GET /metrics");
    assert_eq!(raw.status, 200, "{}", raw.body);
    serde_json::parse(&raw.body).expect("metrics JSON")
}

fn metric_u64(value: &Value, path: &[&str]) -> u64 {
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
    match current {
        Value::U64(n) => *n,
        Value::I64(n) => *n as u64,
        other => panic!("{path:?}: expected integer, got {}", other.kind()),
    }
}

#[test]
fn stored_result_survives_restart_bitwise() {
    let dir = tmp_dir("restart");
    let req = quick(0x5707E);

    // First server: a fresh run that lands in the store.
    let first = {
        let handle = start(config(Some(dir.clone()))).expect("start server 1");
        let addr = handle.addr().to_string();
        let response = client::explore(&addr, &req).expect("first explore");
        assert_eq!(response.source, "run");
        let snap = metrics(&addr);
        assert_eq!(metric_u64(&snap, &["store", "inserts"]), 1);
        handle.shutdown();
        response
    };

    // Second server, same directory, cold memory cache: the answer must
    // come from the disk store.
    let handle = start(config(Some(dir.clone()))).expect("start server 2");
    let addr = handle.addr().to_string();
    let second = client::explore(&addr, &req).expect("explore after restart");
    assert!(second.cached, "must not recompute");
    assert_eq!(second.source, "store");
    let snap = metrics(&addr);
    assert_eq!(metric_u64(&snap, &["store", "hits"]), 1);
    assert_eq!(metric_u64(&snap, &["queue", "jobs_completed"]), 0);
    handle.shutdown();

    // Byte-identical across the restart AND against a direct local run.
    let served = serde_json::to_string(&second.report).unwrap();
    assert_eq!(served, serde_json::to_string(&first.report).unwrap());
    let direct = isex_flow::run_flow(&req.flow_config(), &req.program(), req.seed);
    assert_eq!(served, serde_json::to_string(&direct).unwrap());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_replicas_share_one_store_directory() {
    let dir = tmp_dir("replicas");
    let req = quick(0x2E911CA);

    // Both replicas are up BEFORE the run: replica B's in-memory index
    // cannot know about A's insert, so serving the hit exercises the
    // disk-probe adoption path.
    let a = start(config(Some(dir.clone()))).expect("start replica a");
    let b = start(config(Some(dir.clone()))).expect("start replica b");
    let computed = client::explore(&a.addr().to_string(), &req).expect("explore on a");
    assert_eq!(computed.source, "run");

    let shared = client::explore(&b.addr().to_string(), &req).expect("explore on b");
    assert_eq!(shared.source, "store", "replica b must adopt a's entry");
    assert_eq!(
        serde_json::to_string(&shared.report).unwrap(),
        serde_json::to_string(&computed.report).unwrap()
    );
    assert_eq!(
        metric_u64(
            &metrics(&b.addr().to_string()),
            &["queue", "jobs_completed"]
        ),
        0,
        "replica b must not run the engine"
    );

    a.shutdown();
    b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_identical_explorations_coalesce_into_one_run() {
    // One worker, one slowish request, four concurrent clients: the job
    // table must fold them onto a single engine run.
    let cfg = ServerConfig {
        engine_workers: 1,
        ..config(None)
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.addr().to_string();
    let req = ExploreRequest {
        seed: 0xC0A1,
        effort: if cfg!(debug_assertions) { 300 } else { 2_000 },
        repeats: 4,
        ..ExploreRequest::default()
    };

    let clients: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let req = req.clone();
            std::thread::spawn(move || client::explore(&addr, &req).expect("coalesced explore"))
        })
        .collect();
    let responses: Vec<_> = clients.into_iter().map(|t| t.join().unwrap()).collect();

    let reference = serde_json::to_string(&responses[0].report).unwrap();
    for r in &responses[1..] {
        assert_eq!(
            serde_json::to_string(&r.report).unwrap(),
            reference,
            "every waiter sees the same answer"
        );
    }

    let snap = metrics(&addr);
    assert_eq!(
        metric_u64(&snap, &["queue", "jobs_completed"]),
        1,
        "exactly one engine run for four identical requests"
    );
    assert!(
        metric_u64(&snap, &["jobs", "coalesced"]) >= 1,
        "late arrivals coalesced onto the in-flight run"
    );
    assert_eq!(metric_u64(&snap, &["requests", "by_status", "200"]), 4);
    handle.shutdown();
}

#[test]
fn damaged_and_cancelled_runs_never_persist() {
    // Plan: block 0 repeat 0 panics — the run *survives* (repeat 1 covers
    // it) and is served with `jobs_failed == 1`, which is exactly the
    // dangerous case: a 200 answer that must still never be persisted.
    let dir = tmp_dir("damaged");
    let cfg = ServerConfig {
        fault_plan: Some(FaultPlan::parse("panic@0.0").expect("valid plan")),
        ..config(Some(dir.clone()))
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.addr().to_string();
    let response = client::explore(&addr, &quick(0xDA3A6E)).expect("damaged run is served");
    assert_eq!(response.metrics.jobs_failed, 1, "the planned casualty");
    let snap = metrics(&addr);
    assert_eq!(metric_u64(&snap, &["store", "inserts"]), 0);
    handle.shutdown();

    // A cancelled (now: degraded, best-so-far partial) run is *served* as
    // a 200 with `degraded: true` — but it must not persist either.
    let cfg = ServerConfig {
        fault_plan: Some(FaultPlan::parse("cancel@0.0").expect("valid plan")),
        ..config(Some(dir.clone()))
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.addr().to_string();
    let partial = client::explore(&addr, &quick(0xCA4CE1)).expect("partial is served");
    assert!(partial.degraded, "cancel fault yields a degraded partial");
    let snap = metrics(&addr);
    assert_eq!(metric_u64(&snap, &["store", "inserts"]), 0);
    handle.shutdown();

    let store = isex_store::Store::open(&dir, 0).expect("open store offline");
    assert!(
        store.entries().is_empty(),
        "no damaged or degraded run may leave a store entry: {:?}",
        store.entries()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn async_job_lifecycle_submit_wait_done() {
    let dir = tmp_dir("jobs");
    let handle = start(config(Some(dir.clone()))).expect("start server");
    let addr = handle.addr().to_string();
    let req = quick(0xA57);

    let submitted = client::submit_job(&addr, &req).expect("submit");
    assert!(!submitted.coalesced);
    assert!(matches!(submitted.status.as_str(), "queued" | "running"));

    let done = client::wait_job(&addr, &submitted.job_id, 120_000).expect("wait");
    assert_eq!(done.status, "done", "error: {:?}", done.error);
    assert_eq!(done.key, submitted.key);
    let report = done.report.expect("done embeds the report");

    // Non-blocking status poll still answers after completion.
    let polled = client::job_status(&addr, &submitted.job_id).expect("status");
    assert_eq!(polled.status, "done");

    // The same exploration resubmitted is admitted pre-completed from a
    // cache tier — no second engine run.
    let again = client::submit_job(&addr, &req).expect("resubmit");
    assert_eq!(again.status, "done");
    assert_ne!(again.job_id, submitted.job_id, "a fresh handle every time");
    let cached = client::wait_job(&addr, &again.job_id, 1_000).expect("wait cached");
    assert_eq!(cached.status, "done");
    assert_eq!(cached.source.as_deref(), Some("memory"));

    // And the one-call wrapper agrees with everything above.
    let wrapped = client::explore_async(&addr, &req, 120_000).expect("explore_async");
    assert!(wrapped.cached);
    assert_eq!(
        serde_json::to_string(&wrapped.report).unwrap(),
        serde_json::to_string(&report).unwrap()
    );

    assert_eq!(
        metric_u64(&metrics(&addr), &["queue", "jobs_completed"]),
        1,
        "one engine run behind three submissions"
    );

    // Unknown and malformed job IDs are 404, not 500.
    for path in ["/v1/jobs/j-999999", "/v1/jobs/", "/v1/jobs/a/b"] {
        let raw = client::get(&addr, path).expect("GET");
        assert_eq!(raw.status, 404, "{path}: {}", raw.body);
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn method_not_allowed_carries_allow_header_over_raw_tcp() {
    let handle = start(config(None)).expect("start server");
    let addr = handle.addr().to_string();

    // (request line, expected Allow) — a GET on the explore endpoints and
    // a POST on the read-only ones.
    let cases = [
        ("GET /v1/explore HTTP/1.1", "POST"),
        ("DELETE /v1/jobs HTTP/1.1", "POST"),
        ("POST /healthz HTTP/1.1", "GET"),
        ("PUT /metrics HTTP/1.1", "GET"),
        ("POST /v1/jobs/j-1/wait HTTP/1.1", "GET"),
    ];
    for (request_line, allow) in cases {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .write_all(format!("{request_line}\r\nhost: t\r\ncontent-length: 0\r\n\r\n").as_bytes())
            .expect("write request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(
            response.starts_with("HTTP/1.1 405"),
            "{request_line}: {response}"
        );
        let allow_line = response
            .lines()
            .find(|l| l.to_ascii_lowercase().starts_with("allow:"))
            .unwrap_or_else(|| panic!("{request_line}: no Allow header in {response}"));
        assert_eq!(
            allow_line.split(':').nth(1).map(str::trim),
            Some(allow),
            "{request_line}"
        );
    }
    handle.shutdown();
}

/// Every `/metrics` JSON leaf path of a fresh server, in document order,
/// `section: fields` per line. A fresh server's labelled maps
/// (`requests.by_status`, `phases`) are empty, and the `store` section
/// exists only with a store directory.
const METRIC_PATHS: &str = "
    : uptime_ms
    queue: depth capacity in_flight jobs_completed jobs_failed last_failure rejected_queue_full
    cache: hits misses hit_rate entries capacity
    requests: deadline_timeouts runs_cancelled runs_failed worker_restarts shed_overload degraded_runs degraded_responses trace_spans_dropped run_cost_ewma_ms
    latency.explore: HISTOGRAM
    latency.control: HISTOGRAM
    engine: runs jobs_completed jobs_failed worker_restarts ant_iterations candidates_generated candidates_accepted explore_ms total_ms
    store: entries bytes max_bytes hits misses inserts evictions write_errors stale
    jobs: submitted coalesced tracked active inflight coalesced_waiters
";

const HISTOGRAM: &str = "count sum_ms avg_ms p50_ms p95_ms p99_ms buckets.le_1ms buckets.le_5ms \
    buckets.le_10ms buckets.le_25ms buckets.le_50ms buckets.le_100ms buckets.le_250ms \
    buckets.le_500ms buckets.le_1000ms buckets.le_5000ms buckets.le_30000ms buckets.le_inf";

fn expected_paths(with_store: bool) -> Vec<String> {
    let mut paths = Vec::new();
    for line in METRIC_PATHS.lines().filter(|l| !l.trim().is_empty()) {
        let (section, fields) = line.trim().split_once(':').unwrap();
        if section == "store" && !with_store {
            continue;
        }
        let fields = fields.replace("HISTOGRAM", HISTOGRAM);
        for field in fields.split_whitespace() {
            paths.push(match section {
                "" => field.to_string(),
                section => format!("{section}.{field}"),
            });
        }
    }
    paths
}

fn leaf_paths(value: &Value, path: &str, out: &mut Vec<String>) {
    match value {
        Value::Object(fields) => {
            for (key, child) in fields {
                let child_path = match path {
                    "" => key.clone(),
                    path => format!("{path}.{key}"),
                };
                leaf_paths(child, &child_path, out);
            }
        }
        _ => out.push(path.to_string()),
    }
}

#[test]
fn store_counts_hits_and_stale_payloads_and_metric_paths_hold() {
    let paths = |addr: &str| {
        let mut out = Vec::new();
        leaf_paths(&metrics(addr), "", &mut out);
        out
    };
    let plain = start(config(None)).expect("start plain server");
    assert_eq!(paths(&plain.addr().to_string()), expected_paths(false));
    plain.shutdown();

    // A payload of another format under the request's key: the store
    // serves its bytes, the provenance guard rejects them.
    let dir = tmp_dir("stale");
    let req = quick(0x57A1E);
    let key = req.canonical_key();
    let stale = serde_json::value_to_string(&Value::Object(vec![
        ("payload_version".into(), Value::U64(0)),
        ("key".into(), Value::String(key.clone())),
    ]));
    let store = isex_store::Store::open(&dir, 0).expect("open store");
    store
        .insert(&key, stale.as_bytes())
        .expect("write stale payload");

    let handle = start(config(Some(dir.clone()))).expect("start store server");
    let addr = handle.addr().to_string();
    assert_eq!(paths(&addr), expected_paths(true));
    let first = client::explore(&addr, &req).expect("explore over a stale entry");
    assert_eq!(first.source, "run", "a stale payload never serves");
    let snap = metrics(&addr);
    assert_eq!(metric_u64(&snap, &["store", "stale"]), 1);
    // The frame was intact but nothing was served: a miss, not a hit.
    assert_eq!(metric_u64(&snap, &["store", "hits"]), 0);
    assert_eq!(metric_u64(&snap, &["store", "misses"]), 1);
    assert_eq!(metric_u64(&snap, &["store", "inserts"]), 1);
    assert_eq!(metric_u64(&snap, &["store", "write_errors"]), 0);
    handle.shutdown();
    assert!(
        decode_ok(&store, &req),
        "the run replaced the stale payload"
    );

    // Restart: the fresh entry answers as one store hit.
    let handle = start(config(Some(dir.clone()))).expect("restart store server");
    let addr = handle.addr().to_string();
    assert_eq!(
        client::explore(&addr, &req).expect("explore").source,
        "store"
    );
    let snap = metrics(&addr);
    assert_eq!(metric_u64(&snap, &["store", "hits"]), 1);
    assert_eq!(metric_u64(&snap, &["store", "misses"]), 0);
    assert_eq!(metric_u64(&snap, &["store", "stale"]), 0);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn decode_ok(store: &isex_store::Store, req: &ExploreRequest) -> bool {
    let key = req.canonical_key();
    let bytes = store.lookup(&key).expect("entry present");
    isex_serve::protocol::decode_result_payload(&key, &bytes).is_some()
}
