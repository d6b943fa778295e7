//! Fault-injection tests over real TCP: a server configured with a
//! deterministic [`FaultPlan`](isex_engine::FaultPlan) must degrade
//! gracefully — isolate the panicking job, keep answering, report the
//! damage truthfully — and the transport layer must cut off slow or
//! oversized clients with `408`/`413` instead of hanging or ballooning.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use isex_engine::FaultPlan;
use isex_serve::client::{self, ClientError};
use isex_serve::{start, ExploreRequest, ServerConfig};
use serde::Value;

fn config(plan: Option<&str>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        fault_plan: plan.map(|spec| FaultPlan::parse(spec).expect("valid plan")),
        ..ServerConfig::default()
    }
}

fn quick(seed: u64, repeats: usize) -> ExploreRequest {
    ExploreRequest {
        seed,
        effort: 40,
        repeats,
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
fn injected_job_panic_is_isolated_and_reported() {
    // Block 0, repeat 0 panics; repeat 1 survives, so the run completes.
    let handle = start(config(Some("panic@0.0"))).expect("start server");
    let addr = handle.addr().to_string();

    let response = client::explore(&addr, &quick(0xFA117, 2)).expect("run survives the panic");
    assert!(!response.cached);
    assert_eq!(response.metrics.jobs_failed, 1, "exactly the planned job");
    assert!(response.metrics.worker_restarts >= 1);
    assert_eq!(
        response.metrics.jobs_completed + response.metrics.jobs_failed,
        response.metrics.jobs_total
    );
    assert!(
        response.metrics.block_failures.is_empty(),
        "one surviving repeat keeps the block alive"
    );

    // A damaged run must not poison the cache: the same request recomputes.
    let again = client::explore(&addr, &quick(0xFA117, 2)).expect("second run");
    assert!(
        !again.cached,
        "a run with failed jobs must never be served from cache"
    );

    let snap = metrics(&addr);
    assert!(metric_u64(&snap, &["engine", "jobs_failed"]) >= 2);
    assert!(metric_u64(&snap, &["engine", "worker_restarts"]) >= 2);
    assert_eq!(metric_u64(&snap, &["queue", "jobs_completed"]), 2);

    handle.shutdown();
}

#[test]
fn every_job_panicking_yields_structured_500_and_a_live_server() {
    let handle = start(config(Some("panic:1/1"))).expect("start server");
    let addr = handle.addr().to_string();

    // Two requests back to back: both must be *answered* (500 with the
    // structured cause), proving the worker survived the first disaster.
    for seed in [1u64, 2] {
        match client::explore(&addr, &quick(seed, 1)) {
            Err(ClientError::Http {
                status: 500,
                message,
                ..
            }) => {
                assert!(
                    message.contains("explored blocks failed")
                        && message.contains("injected fault"),
                    "cause must name the fault: {message}"
                );
            }
            other => panic!("expected structured 500, got {other:?}"),
        }
    }

    let raw = client::get(&addr, "/healthz").expect("healthz");
    assert_eq!(raw.status, 200, "server must still be alive");

    let snap = metrics(&addr);
    assert!(metric_u64(&snap, &["requests", "runs_failed"]) >= 2);
    assert!(metric_u64(&snap, &["queue", "jobs_failed"]) >= 2);
    assert_eq!(metric_u64(&snap, &["requests", "by_status", "500"]), 2);

    handle.shutdown();
}

#[test]
fn cancel_fault_is_answered_as_degraded_200() {
    // The injected cancellation trips the run's own token mid-run. Anytime
    // extraction turns that into a *partial* answer: a 200 whose report
    // carries `degraded: true` and per-block provenance — never a 500, and
    // never a cacheable result.
    let handle = start(config(Some("cancel@0.0"))).expect("start server");
    let addr = handle.addr().to_string();

    let response = client::explore(&addr, &quick(3, 1)).expect("partial answer, not an error");
    assert!(response.degraded, "envelope must carry degraded");
    assert!(response.report.degraded, "report must carry degraded");
    assert!(response.metrics.degraded);
    assert!(
        response
            .report
            .per_block
            .iter()
            .any(|b| b.degraded && b.rounds_completed.is_some()),
        "degraded blocks must carry rounds_completed provenance: {:?}",
        response.report.per_block
    );

    // A degraded answer must never enter any cache tier: the same request
    // with the fault still armed recomputes (and the server stays up).
    let again = client::explore(&addr, &quick(3, 1)).expect("second partial");
    assert!(!again.cached, "degraded results must not be cached");

    let raw = client::get(&addr, "/healthz").expect("healthz");
    assert_eq!(raw.status, 200);

    let snap = metrics(&addr);
    assert!(metric_u64(&snap, &["requests", "degraded_runs"]) >= 2);
    assert!(metric_u64(&snap, &["requests", "degraded_responses"]) >= 2);

    handle.shutdown();
}

/// A response is *well-formed* if it reads as a complete answer: the
/// report covers every explored block, job accounting adds up, and
/// degradation — when claimed — carries its provenance everywhere it is
/// contracted to appear.
fn assert_well_formed(response: &isex_serve::ExploreResponse, context: &str) {
    let report = &response.report;
    let metrics = &response.metrics;
    assert!(
        metrics.blocks_explored > 0,
        "{context}: an answered run explored nothing"
    );
    assert_eq!(
        report.explored_blocks, metrics.blocks_explored,
        "{context}: report and metrics must agree on the hot set"
    );
    assert!(
        report.per_block.len() >= metrics.blocks_explored,
        "{context}: per-block outcomes must cover at least the hot set"
    );
    assert_eq!(
        metrics.jobs_completed + metrics.jobs_failed + metrics.jobs_skipped,
        metrics.jobs_total,
        "{context}: job accounting must add up"
    );
    assert_eq!(
        response.degraded, metrics.degraded,
        "{context}: envelope and metrics must agree on degradation"
    );
    assert_eq!(
        report.degraded, metrics.degraded,
        "{context}: report and metrics must agree on degradation"
    );
    if response.degraded {
        assert!(
            report
                .per_block
                .iter()
                .filter(|b| b.degraded)
                .all(|b| b.rounds_completed.is_some()),
            "{context}: every degraded block needs rounds_completed provenance"
        );
        assert!(
            report.per_block.iter().any(|b| b.degraded),
            "{context}: a degraded report must name at least one cut block"
        );
    } else {
        assert!(
            report
                .per_block
                .iter()
                .all(|b| !b.degraded && b.rounds_completed.is_none()),
            "{context}: a full report must carry no degradation provenance"
        );
    }
    // The whole thing must survive a serialize/parse cycle — no field an
    // interrupted run left half-written.
    let json = serde_json::to_string(report).expect("report serializes");
    serde_json::parse(&json).expect("serialized report parses back");
}

#[test]
fn cancellation_point_sweep_every_answer_is_clean_or_complete() {
    // Sweep the cancel fault across densities and positions (different
    // plans trip the token at different cancellation points of the same
    // run), plus a wall-clock deadline doing the same nondeterministically.
    // The contract under every cut: a well-formed full or partial 200, or
    // a clean structured 503 — never a panic, a hang, or a half-written
    // response.
    for spec in [
        "cancel:1/1",
        "cancel:1/2",
        "cancel:1/3 seed:5",
        "cancel:2/3",
        "cancel@0.1",
        "cancel@1.0",
    ] {
        let handle = start(config(Some(spec))).expect("start server");
        let addr = handle.addr().to_string();
        match client::explore(&addr, &quick(0x5EE9, 2)) {
            Ok(response) => assert_well_formed(&response, spec),
            Err(ClientError::Http { status: 503, .. }) => {}
            other => panic!("{spec}: expected a clean answer, got {other:?}"),
        }
        // The server survives the cut and still answers.
        let raw = client::get(&addr, "/healthz").expect("healthz");
        assert_eq!(raw.status, 200, "{spec}: server died");
        handle.shutdown();
    }

    // Wall-clock flavor of the same sweep: tight-but-plausible budgets.
    let handle = start(config(None)).expect("start server");
    let addr = handle.addr().to_string();
    for timeout_ms in [300u64, 1_000, 120_000] {
        let request = ExploreRequest {
            timeout_ms: Some(timeout_ms),
            ..quick(0xDEAD1, 2)
        };
        match client::explore(&addr, &request) {
            Ok(response) => assert_well_formed(&response, &format!("timeout {timeout_ms}ms")),
            // 503 is the admission controller shedding; 504 is the
            // documented fallback when the engine overruns the grace
            // window between two cancellation points. Both are clean.
            Err(ClientError::Http {
                status: 503 | 504, ..
            }) => {}
            other => panic!("timeout {timeout_ms}ms: got {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn cancel_plan_that_never_fires_pins_the_full_report() {
    // The fault's coordinates are outside the run's (block, repeat) space,
    // so the token never trips: the response must be bitwise the plain
    // `run_flow` answer with zero degradation residue — proof the anytime
    // machinery is pay-for-use.
    let handle = start(config(Some("cancel@9.9"))).expect("start server");
    let addr = handle.addr().to_string();
    let req = quick(0xF011, 2);
    let response = client::explore(&addr, &req).expect("uncancelled run");
    assert!(!response.degraded);
    assert_well_formed(&response, "cancel@9.9");
    let direct = isex_flow::run_flow(&req.flow_config(), &req.program(), req.seed);
    assert_eq!(
        serde_json::to_string(&response.report).unwrap(),
        serde_json::to_string(&direct).unwrap(),
        "a cancel plan that never fires must not change a byte"
    );
    handle.shutdown();
}

#[test]
fn slow_client_gets_408_within_the_read_timeout() {
    let cfg = ServerConfig {
        read_timeout_ms: 300,
        ..config(None)
    };
    let handle = start(cfg).expect("start server");
    let addr = handle.addr().to_string();

    // Send half a request head, then stall past the read timeout.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"POST /v1/explore HTT")
        .expect("partial head");
    stream.flush().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read 408");
    assert!(response.starts_with("HTTP/1.1 408"), "{response}");
    assert!(response.contains("not received within 300ms"), "{response}");

    let snap = metrics(&addr);
    assert_eq!(metric_u64(&snap, &["requests", "by_status", "408"]), 1);

    handle.shutdown();
}

#[test]
fn oversized_body_and_head_get_413() {
    let handle = start(config(None)).expect("start server");
    let addr = handle.addr().to_string();

    // Body over the cap: rejected from the Content-Length declaration
    // alone, before any body bytes are read — so only the head is sent
    // (the server closes immediately; a full client write would race a
    // broken pipe against the 413).
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"POST /v1/explore HTTP/1.1\r\ncontent-length: 65537\r\n\r\n")
        .expect("write head");
    let mut response = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.read_to_string(&mut response).expect("read 413");
    assert!(response.starts_with("HTTP/1.1 413"), "{response}");
    assert!(response.contains("65536-byte cap"), "{response}");

    // Head over the cap: same verdict, different limb. The client may see
    // the 413 or a reset (the server closes with unread bytes pending, so
    // the kernel may RST); the server-side status counter is authoritative.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let head = format!(
        "GET /healthz HTTP/1.1\r\nx-pad: {}\r\n\r\n",
        "a".repeat(2 * 16 * 1024)
    );
    stream.write_all(head.as_bytes()).expect("write head");
    let mut response = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    if stream.read_to_string(&mut response).is_ok() && !response.is_empty() {
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
    }
    drop(stream);

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if metric_u64(&metrics(&addr), &["requests", "by_status", "413"]) == 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never counted the second 413"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    handle.shutdown();
}

#[test]
fn fault_free_requests_are_unaffected_by_queued_faulty_ones() {
    // A plan that only delays: results must be bitwise identical to a
    // clean run — injection may cost time, never answers.
    let handle = start(config(Some("delay:1/2:5ms"))).expect("start server");
    let addr = handle.addr().to_string();

    let req = quick(0xC1EA4, 2);
    let served = client::explore(&addr, &req).expect("explore");
    let direct = isex_flow::run_flow(&req.flow_config(), &req.program(), req.seed);
    assert_eq!(
        serde_json::to_string(&served.report).unwrap(),
        serde_json::to_string(&direct).unwrap(),
        "delay faults must not change the answer"
    );
    assert_eq!(served.metrics.jobs_failed, 0);
    assert!(served.metrics.block_failures.is_empty());

    handle.shutdown();
}
