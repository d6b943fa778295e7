//! What the coordinator reports about its workers and never computes an
//! answer from: the federated per-worker rollup behind `GET /metrics`.

use std::collections::BTreeMap;

use isex_serve::metrics::Histogram;
use serde::Value;

use crate::ledger::ClusterCore;
use crate::messages::MetricsReport;

/// Federated telemetry for one worker *name* — like the breakers, keyed
/// by identity rather than connection so it survives redials, and kept
/// across runs so `/metrics` shows the cluster between explorations too.
#[derive(Default)]
pub(crate) struct WorkerTelemetry {
    /// Latest [`MetricsReport`] shipped on the heartbeat cadence.
    pub report: Option<MetricsReport>,
    /// Dispatch→result latency observed by the coordinator itself (covers
    /// wire + queue + compute, which is what a caller actually waits on).
    pub latency: Histogram,
}

/// The federated cluster rollup as a JSON value; see
/// [`Coordinator::metrics_value`](crate::Coordinator::metrics_value).
pub(crate) fn metrics_value(
    core: &ClusterCore,
    telemetry: &BTreeMap<String, WorkerTelemetry>,
) -> Value {
    let field = |name: &str, value| (name.to_string(), value);
    let mut workers = Vec::new();
    for (name, t) in telemetry {
        let mut fields = vec![
            field("alive", Value::U64(core.worker_alive(name) as u64)),
            field("breaker_open", Value::U64(core.breaker_open(name) as u64)),
            field("latency_p50_ms", Value::F64(t.latency.quantile_ms(0.50))),
            field("latency_p95_ms", Value::F64(t.latency.quantile_ms(0.95))),
            field("latency_jobs", Value::U64(t.latency.count())),
        ];
        if let Some(report) = &t.report {
            fields.push(field("jobs_completed", Value::U64(report.jobs_completed)));
            fields.push(field("jobs_failed", Value::U64(report.jobs_failed)));
            let stats = report.phase_profile.0.iter();
            let phases: Vec<(String, Value)> = stats
                .map(|s| (sanitize_metric_segment(&s.name), Value::U64(s.count)))
                .collect();
            if !phases.is_empty() {
                fields.push(field("phases", Value::Object(phases)));
            }
        }
        workers.push((sanitize_metric_segment(name), Value::Object(fields)));
    }
    Value::Object(vec![
        field("workers_alive", Value::U64(core.workers_alive() as u64)),
        field("worker", Value::Object(workers)),
    ])
}

/// Maps an externally-supplied name (worker names arrive off the wire,
/// phase names contain dots) onto a legal metric-name segment:
/// `[a-zA-Z0-9_]+`, never empty.
fn sanitize_metric_segment(name: &str) -> String {
    let out = name.replace(|c: char| !c.is_ascii_alphanumeric(), "_");
    if out.is_empty() {
        "_".to_string()
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_segments_are_sanitized() {
        assert_eq!(sanitize_metric_segment("w0"), "w0");
        assert_eq!(sanitize_metric_segment("node-3.local"), "node_3_local");
        assert_eq!(sanitize_metric_segment("flow.explore"), "flow_explore");
        assert_eq!(sanitize_metric_segment(""), "_");
    }
}
