//! Hostile input for the typed decoders of `isexd`'s wire documents.
//!
//! Store payloads come from disk and response bodies from the network, so
//! their decoders must be total: mutated or truncated bytes make
//! `decode_result_payload` answer `Some` or `None` and the client decoders
//! `Ok` or `Err`, never panic. The payloads start from a real run's report
//! and metrics, so mutations land inside nested, non-empty structures.

use std::sync::OnceLock;

use isex_engine::{NullSink, RunMetrics};
use isex_flow::FlowReport;
use isex_serve::protocol::{
    decode_result_payload, encode, explore_response_json, result_payload_json, JobStatusResponse,
};
use isex_serve::{ExploreRequest, ExploreResponse};
use proptest::prelude::*;

const KEY: &str = "bench=crc32 opt=O3 machine=2is-4r2w algorithm=MI seed=5 repeats=1 effort=20";

/// One small real run, shared by every case.
fn result() -> &'static (FlowReport, RunMetrics) {
    static RESULT: OnceLock<(FlowReport, RunMetrics)> = OnceLock::new();
    RESULT.get_or_init(|| {
        let req = ExploreRequest {
            seed: 5,
            effort: 20,
            repeats: 1,
            ..ExploreRequest::default()
        };
        assert_eq!(req.canonical_key(), KEY);
        isex_flow::run_flow_observed(&req.flow_config(), &req.program(), req.seed, &NullSink)
    })
}

fn payload() -> String {
    let (report, metrics) = result();
    result_payload_json(KEY, report, metrics)
}

fn explore_body() -> String {
    let (report, metrics) = result();
    explore_response_json("store", KEY, report, metrics)
}

fn status_body() -> String {
    let (report, metrics) = result();
    encode(&JobStatusResponse {
        job_id: "j-1".to_string(),
        key: KEY.to_string(),
        status: "done".to_string(),
        source: Some("run".to_string()),
        degraded: false,
        report: Some(report),
        metrics: Some(metrics),
        error: None,
    })
}

/// Truncates `text` to `cut_permille`‰ of its length (1000 keeps it
/// whole), then XORs each `(at_permille, mask)` byte.
fn mutate(text: &str, cut_permille: usize, flips: &[(usize, u8)]) -> Vec<u8> {
    let mut bytes = text.as_bytes().to_vec();
    bytes.truncate(cut_permille * bytes.len() / 1000);
    if !bytes.is_empty() {
        for &(at_permille, mask) in flips {
            let at = at_permille * (bytes.len() - 1) / 1000;
            bytes[at] ^= mask;
        }
    }
    bytes
}

fn flips() -> impl Strategy<Value = Vec<(usize, u8)>> {
    proptest::collection::vec((0usize..1000, any::<u8>()), 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_store_payload_is_some_or_none(cut in 0usize..1001, flips in flips()) {
        let _ = decode_result_payload(KEY, &mutate(&payload(), cut, &flips));
    }

    #[test]
    fn mutated_explore_body_is_ok_or_err(cut in 0usize..1001, flips in flips()) {
        let bytes = mutate(&explore_body(), cut, &flips);
        let _ = ExploreResponse::from_json(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_job_status_is_ok_or_err(cut in 0usize..1001, flips in flips()) {
        let bytes = mutate(&status_body(), cut, &flips);
        if let Ok(status) = JobStatusResponse::from_json(&String::from_utf8_lossy(&bytes)) {
            let _ = status.into_explore_response();
        }
    }
}

#[test]
fn intact_documents_decode() {
    let (report, metrics) = result();
    let served = decode_result_payload(KEY, payload().as_bytes()).expect("payload decodes");
    assert_eq!(encode(&served.report), encode(report));
    let answer = ExploreResponse::from_json(&explore_body()).expect("explore body decodes");
    assert_eq!(answer.source, "store");
    let status = JobStatusResponse::from_json(&status_body()).expect("status decodes");
    let answer = status.into_explore_response().expect("done status answers");
    assert_eq!(encode(&answer.metrics), encode(metrics));
}

#[test]
fn provenance_guards_reject_a_real_payload_as_miss() {
    let (report, metrics) = result();
    let payload = payload();
    assert!(decode_result_payload("another key", payload.as_bytes()).is_none());
    let bumped = payload.replace("\"payload_version\":1", "\"payload_version\":2");
    assert!(decode_result_payload(KEY, bumped.as_bytes()).is_none());
    let foreign = payload.replace(
        &format!("\"version\":\"{}\"", metrics.version),
        "\"version\":\"0.0.0-elsewhere\"",
    );
    assert_ne!(foreign, payload, "replacement must hit");
    assert!(decode_result_payload(KEY, foreign.as_bytes()).is_none());
    assert!(decode_result_payload(KEY, b"not json").is_none());
    assert!(decode_result_payload(KEY, &[0xff, 0xfe]).is_none());
    assert!(decode_result_payload(KEY, b"{}").is_none());
    // Degraded results smuggled in by hand, in either half.
    let degraded = RunMetrics {
        degraded: true,
        ..metrics.clone()
    };
    let smuggled = result_payload_json(KEY, report, &degraded);
    assert!(decode_result_payload(KEY, smuggled.as_bytes()).is_none());
    let partial = FlowReport {
        degraded: true,
        ..report.clone()
    };
    let smuggled = result_payload_json(KEY, &partial, metrics);
    assert!(decode_result_payload(KEY, smuggled.as_bytes()).is_none());
}
