//! Byte pins for every JSON document `isexd` writes: the explore answer
//! (clean and degraded), job statuses (`queued`, `done`, `failed`), the
//! `202` acceptance, the store payload, the error body, `/healthz`,
//! `/readyz` and the events page.
//!
//! A fixed runner answers every exploration with one constant report and
//! metrics, so each body is a pure function of the request sequence and
//! can be compared byte for byte.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use isex_engine::{EventSink, RunMetrics};
use isex_flow::{FlowConfig, FlowReport};
use isex_serve::client::{self, RawResponse};
use isex_serve::jobs::Job;
use isex_serve::protocol::result_payload_json;
use isex_serve::{start_with_runner, ExploreRequest, ExploreRunner, ServerConfig};
use isex_workloads::Program;

/// Seed whose run answers degraded.
const DEGRADED: u64 = 2;
/// Seed whose run panics.
const PANICS: u64 = 13;
/// Seed whose run holds its worker until the gate opens.
const HELD: u64 = 21;

fn report(degraded: bool) -> FlowReport {
    FlowReport {
        program: "fixed".into(),
        selected: Vec::new(),
        total_area: 12.5,
        cycles_before: 100,
        cycles_after: 80,
        per_block: Vec::new(),
        explored_blocks: 1,
        iterations: 7,
        degraded,
    }
}

fn metrics(degraded: bool) -> RunMetrics {
    let mut m = RunMetrics::empty(9, 1);
    m.algorithm = "MI".into();
    m.benchmark = "fixed".into();
    m.degraded = degraded;
    m
}

/// Answers every run with [`report`] and [`metrics`], keyed off the seed.
struct FixedRunner {
    open: Mutex<bool>,
    opened: Condvar,
}

impl FixedRunner {
    fn open_gate(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

impl ExploreRunner for FixedRunner {
    fn run_explore(
        &self,
        job: &Job,
        _cfg: &FlowConfig,
        _program: &Program,
        _sink: &dyn EventSink,
    ) -> (FlowReport, RunMetrics) {
        match job.request.seed {
            PANICS => panic!("boom"),
            HELD => {
                let mut open = self.open.lock().unwrap();
                while !*open {
                    open = self.opened.wait(open).unwrap();
                }
            }
            _ => {}
        }
        let degraded = job.request.seed == DEGRADED;
        (report(degraded), metrics(degraded))
    }
}

fn request(seed: u64) -> ExploreRequest {
    ExploreRequest {
        seed,
        ..ExploreRequest::default()
    }
}

fn json(value: &impl serde::Serialize) -> String {
    serde_json::to_string(value).unwrap()
}

fn call(addr: &str, method: &str, path: &str, body: Option<&str>) -> RawResponse {
    client::roundtrip(addr, method, path, body, Duration::from_secs(30)).expect("exchange")
}

#[test]
fn every_wire_document_keeps_its_bytes() {
    let runner = Arc::new(FixedRunner {
        open: Mutex::new(false),
        opened: Condvar::new(),
    });
    let handle = start_with_runner(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            engine_workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
        Arc::clone(&runner) as Arc<dyn ExploreRunner>,
    )
    .expect("server starts");
    let addr = handle.addr().to_string();
    let bodies = |degraded| (json(&report(degraded)), json(&metrics(degraded)));
    let (report_ok, metrics_ok) = bodies(false);
    let (report_bad, metrics_bad) = bodies(true);

    // /healthz: everything but the uptime is fixed.
    let health = call(&addr, "GET", "/healthz", None);
    assert_eq!(health.status, 200);
    let uptime: String = health
        .body
        .trim_start_matches("{\"status\":\"ok\",\"uptime_ms\":")
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    assert!(!uptime.is_empty(), "{}", health.body);
    assert_eq!(
        health.body,
        format!(r#"{{"status":"ok","uptime_ms":{uptime},"shutting_down":false}}"#)
    );

    // /readyz, idle.
    let ready = call(&addr, "GET", "/readyz", None);
    assert_eq!(
        (ready.status, ready.body.as_str()),
        (200, r#"{"status":"ok","queue_depth":0,"queue_capacity":1}"#)
    );

    // A 202 whose run holds the one worker.
    let held = request(HELD);
    let held_key = held.canonical_key();
    let accepted = call(&addr, "POST", "/v1/jobs", Some(&held.to_json()));
    assert_eq!(accepted.status, 202);
    assert_eq!(
        accepted.body,
        format!(r#"{{"job_id":"j-1","key":"{held_key}","status":"queued","coalesced":false}}"#)
    );
    let running = format!(r#"{{"job_id":"j-1","key":"{held_key}","status":"running"}}"#);
    let mut status = String::new();
    for _ in 0..500 {
        status = call(&addr, "GET", "/v1/jobs/j-1", None).body;
        if status == running {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(status, running);

    // A second job waits in the one-slot queue: `queued`, and /readyz
    // reports the saturation.
    let queued = request(22);
    let queued_key = queued.canonical_key();
    let accepted = call(&addr, "POST", "/v1/jobs", Some(&queued.to_json()));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let status = call(&addr, "GET", "/v1/jobs/j-2", None);
    assert_eq!(
        (status.status, status.body),
        (
            200,
            format!(r#"{{"job_id":"j-2","key":"{queued_key}","status":"queued"}}"#)
        )
    );
    let ready = call(&addr, "GET", "/readyz", None);
    assert_eq!(
        (ready.status, ready.body.as_str()),
        (
            503,
            r#"{"status":"unready","queue_depth":1,"queue_capacity":1,"reason":"queue saturated"}"#
        )
    );

    // Released, the held job is `done` with its result.
    runner.open_gate();
    let done = call(&addr, "GET", "/v1/jobs/j-1/wait?timeout_ms=30000", None);
    assert_eq!(
        (done.status, done.body),
        (
            200,
            format!(
                r#"{{"job_id":"j-1","key":"{held_key}","status":"done","source":"run","report":{report_ok},"metrics":{metrics_ok}}}"#
            )
        )
    );
    let _ = call(&addr, "GET", "/v1/jobs/j-2/wait?timeout_ms=30000", None);

    // The finished job's events page.
    let events = call(&addr, "GET", "/v1/jobs/j-1/events?from_seq=0", None);
    assert_eq!(
        (events.status, events.body.as_str()),
        (
            200,
            r#"{"job_id":"j-1","status":"done","from_seq":0,"next_seq":0,"dropped":0,"closed":true,"events":[]}"#
        )
    );

    // Synchronous explores: a fresh run, then the same key from memory.
    let fresh = request(1);
    let key = fresh.canonical_key();
    let answer = call(&addr, "POST", "/v1/explore", Some(&fresh.to_json()));
    assert_eq!(
        (answer.status, answer.body),
        (
            200,
            format!(
                r#"{{"cached":false,"source":"run","key":"{key}","report":{report_ok},"metrics":{metrics_ok}}}"#
            )
        )
    );
    let answer = call(&addr, "POST", "/v1/explore", Some(&fresh.to_json()));
    assert_eq!(
        (answer.status, answer.body),
        (
            200,
            format!(
                r#"{{"cached":true,"source":"memory","key":"{key}","report":{report_ok},"metrics":{metrics_ok}}}"#
            )
        )
    );

    // A degraded explore carries the flag, in the explore answer and in a
    // job status.
    let partial = request(DEGRADED);
    let key = partial.canonical_key();
    let answer = call(&addr, "POST", "/v1/explore", Some(&partial.to_json()));
    assert_eq!(
        (answer.status, answer.body),
        (
            200,
            format!(
                r#"{{"cached":false,"source":"run","key":"{key}","degraded":true,"report":{report_bad},"metrics":{metrics_bad}}}"#
            )
        )
    );
    let accepted = call(&addr, "POST", "/v1/jobs", Some(&partial.to_json()));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    assert!(
        accepted.body.starts_with(r#"{"job_id":"j-5","#),
        "{}",
        accepted.body
    );
    let done = call(&addr, "GET", "/v1/jobs/j-5/wait?timeout_ms=30000", None);
    assert_eq!(
        done.body,
        format!(
            r#"{{"job_id":"j-5","key":"{key}","status":"done","source":"run","degraded":true,"report":{report_bad},"metrics":{metrics_bad}}}"#
        )
    );

    // A run that panics: the job is `failed` with the cause.
    let doomed = request(PANICS);
    let key = doomed.canonical_key();
    let accepted = call(&addr, "POST", "/v1/jobs", Some(&doomed.to_json()));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let failed = call(&addr, "GET", "/v1/jobs/j-6/wait?timeout_ms=30000", None);
    assert_eq!(
        (failed.status, failed.body),
        (
            200,
            format!(
                r#"{{"job_id":"j-6","key":"{key}","status":"failed","error":"worker panicked: boom"}}"#
            )
        )
    );

    // The error body.
    let missing = call(&addr, "GET", "/nope", None);
    assert_eq!(
        (missing.status, missing.body.as_str()),
        (
            404,
            r#"{"error":"no route `/nope` (try /v1/explore, /v1/jobs, /healthz, /readyz, /metrics)"}"#
        )
    );

    handle.shutdown();

    // The store payload.
    assert_eq!(
        result_payload_json("k1", &report(false), &metrics(false)),
        format!(
            r#"{{"payload_version":1,"key":"k1","report":{report_ok},"metrics":{metrics_ok}}}"#
        )
    );
}
