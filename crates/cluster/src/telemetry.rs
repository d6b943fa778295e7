//! What the coordinator reports about its workers and never computes an
//! answer from: the federated per-worker rollup behind `GET /metrics`.

use std::collections::BTreeMap;

use isex_serve::metrics::{counter, gauge, section, Histogram, Metric};

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

/// The federated cluster rollup; see
/// [`Coordinator::metrics`](crate::Coordinator::metrics).
pub(crate) fn metrics(core: &ClusterCore, telemetry: &BTreeMap<String, WorkerTelemetry>) -> Metric {
    let workers = telemetry.iter().map(|(name, t)| {
        let mut fields = vec![
            ("alive", gauge(core.worker_alive(name) as u64)),
            ("breaker_open", gauge(core.breaker_open(name) as u64)),
            ("latency_p50_ms", gauge(t.latency.quantile_ms(0.50))),
            ("latency_p95_ms", gauge(t.latency.quantile_ms(0.95))),
            ("latency_jobs", counter(t.latency.count())),
        ];
        if let Some(report) = &t.report {
            fields.push(("jobs_completed", counter(report.jobs_completed)));
            fields.push(("jobs_failed", counter(report.jobs_failed)));
            let stats = &report.phase_profile.0;
            if !stats.is_empty() {
                let phases = stats
                    .iter()
                    .map(|s| (sanitize_metric_segment(&s.name), counter(s.count)));
                fields.push(("phases", section(phases)));
            }
        }
        (sanitize_metric_segment(name), section(fields))
    });
    section([
        ("workers_alive", gauge(core.workers_alive() as u64)),
        ("worker", section(workers)),
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
