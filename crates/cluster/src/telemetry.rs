//! What the coordinator reports about its workers and never computes an
//! answer from: the per-worker rollup behind `GET /metrics`, counted from
//! the results each worker sends back.

use std::collections::BTreeMap;

use isex_engine::RepeatOutcome;
use isex_serve::metrics::{counter, gauge, section, Histogram, Metric};

use crate::ledger::ClusterCore;

/// What the coordinator saw of one worker *name* — like the breakers,
/// keyed by identity rather than connection so it survives redials, and
/// kept across runs so `/metrics` shows the cluster between explorations
/// too.
#[derive(Default)]
pub(crate) struct WorkerTelemetry {
    /// Dispatch→result latency observed by the coordinator itself (covers
    /// wire + queue + compute, which is what a caller actually waits on).
    pub latency: Histogram,
    /// Results that arrived on this name's connections (degraded partials,
    /// skips and caught panics included).
    jobs_completed: u64,
    /// Of those, results whose repeat panicked.
    jobs_failed: u64,
}

impl WorkerTelemetry {
    /// Counts one result as it arrives.
    pub fn count(&mut self, outcome: &RepeatOutcome) {
        self.jobs_completed += 1;
        self.jobs_failed += matches!(outcome, RepeatOutcome::Panicked(_)) as u64;
    }
}

/// The cluster rollup; see
/// [`Coordinator::metrics`](crate::Coordinator::metrics).
pub(crate) fn metrics(core: &ClusterCore, telemetry: &BTreeMap<String, WorkerTelemetry>) -> Metric {
    let workers = telemetry.iter().map(|(name, t)| {
        let fields = [
            ("alive", gauge(core.worker_alive(name) as u64)),
            ("breaker_open", gauge(core.breaker_open(name) as u64)),
            ("latency_p50_ms", gauge(t.latency.quantile_ms(0.50))),
            ("latency_p95_ms", gauge(t.latency.quantile_ms(0.95))),
            ("latency_jobs", counter(t.latency.count())),
            ("jobs_completed", counter(t.jobs_completed)),
            ("jobs_failed", counter(t.jobs_failed)),
        ];
        (sanitize_metric_segment(name), section(fields))
    });
    section([
        ("workers_alive", gauge(core.workers_alive() as u64)),
        ("worker", section(workers)),
    ])
}

/// Maps an externally-supplied name (worker names arrive off the wire)
/// onto a legal metric-name segment:
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
