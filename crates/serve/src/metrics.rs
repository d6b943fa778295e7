//! Live serving telemetry behind `GET /metrics`.
//!
//! Everything is lock-free counters or a short-held mutex, updated on the
//! request path. A scrape reads them into one typed [`Metric`] tree: queue
//! depth and in-flight jobs (from the job registry), cache hit rate (from the
//! cache), per-endpoint latency histograms, response-status counts, and
//! cumulative engine [`RunMetrics`] aggregates over every completed run.
//! Each leaf is declared where its value is read, as a counter, a gauge or
//! a histogram; the JSON document and the Prometheus text are two
//! renderings of that one tree.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use isex_engine::{lock_unpoisoned, PhaseProfile, RunMetrics};
use serde::Value;

use crate::cache::ResultCache;
use crate::jobs::JobRegistry;

/// Upper bucket bounds, milliseconds. The last bucket is open-ended.
pub const LATENCY_BOUNDS_MS: &[u64] = &[1, 5, 10, 25, 50, 100, 250, 500, 1000, 5000, 30_000];

/// One node of the `/metrics` tree.
pub enum Metric {
    /// A cumulative count or sum: a Prometheus `counter`.
    Counter(Value),
    /// A level that can fall: a Prometheus `gauge`.
    Gauge(Value),
    /// A JSON-only field (text or `null`) with no Prometheus sample.
    Note(Value),
    /// A latency histogram, read once.
    Histogram(HistogramRead),
    /// Named children: a JSON object. In Prometheus each key joins the
    /// parent's name with `_`.
    Section(Vec<(String, Metric)>),
    /// Rows keyed by one label: a JSON object of rows, each a leaf or a
    /// section of leaves. In Prometheus the node is named `family`, not
    /// its JSON key, and each row's samples carry `{label="row key"}`.
    Labeled {
        /// The label the row keys become.
        label: &'static str,
        /// The Prometheus name that replaces this node's JSON key.
        family: &'static str,
        /// `(row key, row)`.
        rows: Vec<(String, Metric)>,
    },
}

/// A number as read: integers stay JSON `U64`, measurements `F64`.
pub trait Number {
    /// The JSON value.
    fn json(self) -> Value;
}

impl Number for u64 {
    fn json(self) -> Value {
        Value::U64(self)
    }
}

impl Number for f64 {
    fn json(self) -> Value {
        Value::F64(self)
    }
}

/// A counter leaf.
pub fn counter(n: impl Number) -> Metric {
    Metric::Counter(n.json())
}

/// A gauge leaf.
pub fn gauge(n: impl Number) -> Metric {
    Metric::Gauge(n.json())
}

/// A section of `(key, child)` fields, in document order.
pub fn section<K: Into<String>>(fields: impl IntoIterator<Item = (K, Metric)>) -> Metric {
    Metric::Section(fields.into_iter().map(|(k, m)| (k.into(), m)).collect())
}

impl Metric {
    /// The JSON rendering.
    pub fn to_json(&self) -> Value {
        match self {
            Metric::Counter(v) | Metric::Gauge(v) | Metric::Note(v) => v.clone(),
            Metric::Histogram(h) => h.to_json(),
            Metric::Section(fields) | Metric::Labeled { rows: fields, .. } => Value::Object(
                fields
                    .iter()
                    .map(|(k, m)| (k.clone(), m.to_json()))
                    .collect(),
            ),
        }
    }

    /// The Prometheus text exposition (0.0.4), under the `isexd` prefix.
    /// Each family is announced by one `# HELP` and one `# TYPE` line with
    /// its declared kind, and its samples follow contiguously.
    pub fn to_prometheus(&self) -> String {
        let mut out = Prom::default();
        self.prom("isexd", "", &mut out);
        out.finish()
    }

    /// Adds this node's samples under `name`, each carrying `labels`.
    fn prom(&self, name: &str, labels: &str, out: &mut Prom) {
        match self {
            Metric::Counter(v) => {
                out.sample(name, "counter", &format!("{name}{labels}"), number(v))
            }
            Metric::Gauge(v) => out.sample(name, "gauge", &format!("{name}{labels}"), number(v)),
            Metric::Note(_) => {}
            Metric::Histogram(h) => h.prom(name, out),
            Metric::Section(fields) => {
                for (key, m) in fields {
                    let key = match m {
                        Metric::Labeled { family, .. } => family,
                        _ => key.as_str(),
                    };
                    m.prom(&format!("{name}_{key}"), labels, out);
                }
            }
            Metric::Labeled { label, rows, .. } => {
                for (key, row) in rows {
                    // Row keys can come off the wire (worker names inside
                    // phase names): escape them as the format requires.
                    let key = key.replace('\\', "\\\\").replace('"', "\\\"");
                    let key = key.replace('\n', "\\n");
                    row.prom(name, &format!("{{{label}=\"{key}\"}}"), out);
                }
            }
        }
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::F64(x) => *x,
        _ => 0.0,
    }
}

/// Prometheus samples grouped by family, in first-sample order.
#[derive(Default)]
struct Prom {
    index: HashMap<String, usize>,
    /// `(family, kind, sample lines)`.
    families: Vec<(String, &'static str, String)>,
}

impl Prom {
    fn sample(&mut self, family: &str, kind: &'static str, series: &str, x: f64) {
        let i = *self.index.entry(family.to_string()).or_insert_with(|| {
            self.families
                .push((family.to_string(), kind, String::new()));
            self.families.len() - 1
        });
        let _ = writeln!(self.families[i].2, "{series} {x}");
    }

    fn finish(self) -> String {
        let mut text = String::new();
        for (family, kind, samples) in &self.families {
            let what = family.strip_prefix("isexd_").unwrap_or(family);
            let _ = write!(
                text,
                "# HELP {family} isexd {kind} `{what}`, mirroring the /metrics JSON field of the same path.\n\
                 # TYPE {family} {kind}\n{samples}"
            );
        }
        text
    }
}

/// A fixed-bucket latency histogram.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BOUNDS_MS.len() + 1],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe_ms(&self, ms: f64) {
        let idx = LATENCY_BOUNDS_MS
            .iter()
            .position(|&b| ms <= b as f64)
            .unwrap_or(LATENCY_BOUNDS_MS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // The `as` cast saturates on overflow and the accumulator saturates
        // instead of wrapping: a pathological observation pins the sum at
        // `u64::MAX` rather than corrupting every later average.
        let us = (ms * 1000.0).max(0.0) as u64;
        let _ = self
            .sum_us
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_add(us))
            });
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimated latency quantile for `q` in `0.0..=1.0`, linearly
    /// interpolated inside the fixed bucket holding the target rank. The
    /// open-ended overflow bucket has no upper edge to interpolate toward,
    /// so ranks landing there report the last finite bound.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.read().quantile_ms(q)
    }

    /// The histogram as one `/metrics` node.
    pub fn metric(&self) -> Metric {
        Metric::Histogram(self.read())
    }

    fn read(&self) -> HistogramRead {
        HistogramRead {
            buckets: self.buckets.each_ref().map(|b| b.load(Ordering::Relaxed)),
            sum_ms: self.sum_us.load(Ordering::Relaxed) as f64 / 1000.0,
            count: self.count(),
        }
    }
}

/// One read of a [`Histogram`]'s counters.
pub struct HistogramRead {
    buckets: [u64; LATENCY_BOUNDS_MS.len() + 1],
    sum_ms: f64,
    count: u64,
}

impl HistogramRead {
    /// See [`Histogram::quantile_ms`].
    fn quantile_ms(&self, q: f64) -> f64 {
        let last = *LATENCY_BOUNDS_MS.last().unwrap() as f64;
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if cum + c >= target && c > 0 {
                if i == LATENCY_BOUNDS_MS.len() {
                    return last;
                }
                let lower = if i == 0 {
                    0.0
                } else {
                    LATENCY_BOUNDS_MS[i - 1] as f64
                };
                let upper = LATENCY_BOUNDS_MS[i] as f64;
                return lower + (upper - lower) * (target - cum) as f64 / c as f64;
            }
            cum += c;
        }
        last
    }

    /// The derived gauges, in document order.
    fn gauges(&self) -> [(&'static str, f64); 4] {
        let avg = if self.count == 0 {
            0.0
        } else {
            self.sum_ms / self.count as f64
        };
        [
            ("avg_ms", avg),
            ("p50_ms", self.quantile_ms(0.50)),
            ("p95_ms", self.quantile_ms(0.95)),
            ("p99_ms", self.quantile_ms(0.99)),
        ]
    }

    /// `(upper bound, observations in the bucket)`; `None` is the
    /// open-ended last bucket.
    fn bucket_counts(&self) -> impl Iterator<Item = (Option<u64>, u64)> + '_ {
        (LATENCY_BOUNDS_MS.iter().copied().map(Some))
            .chain([None])
            .zip(self.buckets)
    }

    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("count".to_string(), Value::U64(self.count)),
            ("sum_ms".to_string(), Value::F64(self.sum_ms)),
        ];
        fields.extend(self.gauges().map(|(k, x)| (k.to_string(), Value::F64(x))));
        let buckets = self.bucket_counts().map(|(bound, n)| {
            let key = bound.map_or("le_inf".to_string(), |b| format!("le_{b}ms"));
            (key, Value::U64(n))
        });
        fields.push(("buckets".to_string(), Value::Object(buckets.collect())));
        Value::Object(fields)
    }

    /// Cumulative `_bucket{le="..."}` series (the JSON holds per-bucket
    /// counts), `_sum` and `_count` in one `histogram` family, then the
    /// derived gauges.
    fn prom(&self, name: &str, out: &mut Prom) {
        let family = format!("{name}_ms");
        let mut cum = 0;
        for (bound, n) in self.bucket_counts() {
            cum += n;
            let le = bound.map_or("+Inf".to_string(), |b| b.to_string());
            let series = format!("{family}_bucket{{le=\"{le}\"}}");
            out.sample(&family, "histogram", &series, cum as f64);
        }
        out.sample(&family, "histogram", &format!("{family}_sum"), self.sum_ms);
        let count = self.count as f64;
        out.sample(&family, "histogram", &format!("{family}_count"), count);
        for (k, x) in self.gauges() {
            let gauge = format!("{name}_{k}");
            out.sample(&gauge, "gauge", &gauge, x);
        }
    }
}

/// Cumulative engine telemetry over every completed run.
#[derive(Default)]
struct EngineTotals {
    runs: u64,
    jobs_completed: u64,
    jobs_failed: u64,
    worker_restarts: u64,
    ant_iterations: u64,
    candidates_generated: u64,
    candidates_accepted: u64,
    explore_ms: f64,
    total_ms: f64,
}

impl EngineTotals {
    fn accumulate(&mut self, m: &RunMetrics) {
        self.runs += 1;
        self.jobs_completed += m.jobs_completed as u64;
        self.jobs_failed += m.jobs_failed as u64;
        self.worker_restarts += m.worker_restarts as u64;
        self.ant_iterations += m.ant_iterations as u64;
        self.candidates_generated += m.candidates_generated as u64;
        self.candidates_accepted += m.candidates_accepted as u64;
        self.explore_ms += m.phases.explore_ms;
        self.total_ms += m.phases.total_ms;
    }

    fn metric(&self) -> Metric {
        section([
            ("runs", counter(self.runs)),
            ("jobs_completed", counter(self.jobs_completed)),
            ("jobs_failed", counter(self.jobs_failed)),
            ("worker_restarts", counter(self.worker_restarts)),
            ("ant_iterations", counter(self.ant_iterations)),
            ("candidates_generated", counter(self.candidates_generated)),
            ("candidates_accepted", counter(self.candidates_accepted)),
            ("explore_ms", counter(self.explore_ms)),
            ("total_ms", counter(self.total_ms)),
        ])
    }
}

/// When the server started; the default is now.
struct Started(Instant);

impl Default for Started {
    fn default() -> Self {
        Started(Instant::now())
    }
}

/// All server-side counters.
#[derive(Default)]
pub struct ServerMetrics {
    started: Started,
    /// `/v1/explore` end-to-end latency (including queue wait).
    pub explore_latency: Histogram,
    /// `/healthz` + `/metrics` latency.
    pub control_latency: Histogram,
    /// Responses by HTTP status.
    statuses: Mutex<BTreeMap<u16, u64>>,
    /// Requests that hit their deadline.
    pub deadline_timeouts: AtomicU64,
    /// Jobs cancelled while still queued (their last waiter left). A run
    /// cut once started is not cancelled: it answers its best-so-far
    /// partial and counts in `degraded_runs`.
    pub runs_cancelled: AtomicU64,
    /// Runs that died (worker panic or every block failed).
    pub runs_failed: AtomicU64,
    /// Server engine-workers resurrected after a caught run panic.
    pub worker_restarts: AtomicU64,
    /// Requests shed by deadline-aware admission control (estimated queue
    /// wait exceeded the request's whole budget).
    pub shed_overload: AtomicU64,
    /// Completed runs that came back degraded (budget tripped mid-run,
    /// best-so-far partial).
    pub degraded_runs: AtomicU64,
    /// `200` responses that carried `"degraded": true`.
    pub degraded_responses: AtomicU64,
    /// Store writes that failed (`store.write_errors`).
    pub(crate) store_write_errors: AtomicU64,
    /// EWMA of completed-run wall time, microseconds (`0` until the first
    /// run lands). Feeds the admission controller's queue-wait estimate.
    run_cost_ewma_us: AtomicU64,
    engine: Mutex<EngineTotals>,
    /// Per-span-name profile over every completed run's
    /// [`RunMetrics::phase_profile`].
    phases: Mutex<PhaseProfile>,
}

impl ServerMetrics {
    /// Fresh counters; their creation anchors the uptime report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one response with the given status.
    pub fn count_status(&self, status: u16) {
        *lock_unpoisoned(&self.statuses).entry(status).or_insert(0) += 1;
    }

    /// Folds one completed run's telemetry into the cumulative totals and
    /// refreshes the admission controller's run-cost EWMA (α = 0.2 —
    /// reactive enough to track a load shift within a handful of runs,
    /// smooth enough that one outlier run does not swing admission).
    pub fn record_run(&self, m: &RunMetrics) {
        let sample_us = (m.phases.total_ms * 1000.0).max(0.0) as u64;
        let _ = self
            .run_cost_ewma_us
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(if cur == 0 {
                    sample_us
                } else {
                    (cur / 5).saturating_mul(4).saturating_add(sample_us / 5)
                })
            });
        lock_unpoisoned(&self.engine).accumulate(m);
        if !m.phase_profile.0.is_empty() {
            lock_unpoisoned(&self.phases).absorb(m.phase_profile.0.iter().cloned());
        }
    }

    /// The EWMA of completed-run wall time, milliseconds (`0.0` before the
    /// first run completes).
    pub fn run_cost_ewma_ms(&self) -> f64 {
        self.run_cost_ewma_us.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// Estimated queue wait for a request admitted *now*: every job ahead
    /// of it costs one EWMA run, spread over the worker pool. `0.0` on an
    /// empty queue or before any run has calibrated the EWMA — admission
    /// control fails open, never refusing work it has no evidence against.
    pub fn estimated_queue_wait_ms(&self, queue_depth: usize, workers: usize) -> f64 {
        self.run_cost_ewma_ms() * queue_depth as f64 / workers.max(1) as f64
    }

    /// Milliseconds since the server started.
    pub fn uptime_ms(&self) -> u64 {
        self.started.0.elapsed().as_millis() as u64
    }

    /// The full `/metrics` tree: the server's own sections, then `extra`,
    /// the caller-owned ones (the server's `store` and `jobs`, a runner's
    /// `cluster`). Render it with [`Metric::to_json`] or
    /// [`Metric::to_prometheus`].
    pub fn snapshot(
        &self,
        jobs: &JobRegistry,
        cache: &ResultCache,
        extra: Vec<(&'static str, Metric)>,
    ) -> Metric {
        let count = |c: &AtomicU64| counter(c.load(Ordering::Relaxed));
        let c = cache.stats();
        let statuses = lock_unpoisoned(&self.statuses)
            .iter()
            .map(|(code, &n)| (code.to_string(), counter(n)))
            .collect();
        let phases = lock_unpoisoned(&self.phases)
            .0
            .iter()
            .map(|t| {
                let stat = section([
                    ("count", counter(t.count)),
                    ("total_ms", counter(t.total_ms)),
                    ("max_ms", gauge(t.max_ms)),
                ]);
                (t.name.clone(), stat)
            })
            .collect();
        let last_failure = jobs.last_failure().map_or(Value::Null, Value::String);
        let own = [
            ("uptime_ms", gauge(self.uptime_ms())),
            (
                "queue",
                section([
                    ("depth", gauge(jobs.depth() as u64)),
                    ("capacity", gauge(jobs.capacity() as u64)),
                    ("in_flight", gauge(jobs.in_flight() as u64)),
                    ("jobs_completed", counter(jobs.jobs_completed())),
                    ("jobs_failed", counter(jobs.jobs_failed())),
                    ("last_failure", Metric::Note(last_failure)),
                    ("rejected_queue_full", counter(jobs.refused_full())),
                ]),
            ),
            (
                "cache",
                section([
                    ("hits", counter(c.hits)),
                    ("misses", counter(c.misses)),
                    ("hit_rate", gauge(c.hit_rate())),
                    ("entries", gauge(c.entries as u64)),
                    ("capacity", gauge(c.capacity as u64)),
                ]),
            ),
            (
                "requests",
                section([
                    (
                        "by_status",
                        Metric::Labeled {
                            label: "status",
                            family: "total",
                            rows: statuses,
                        },
                    ),
                    ("deadline_timeouts", count(&self.deadline_timeouts)),
                    ("runs_cancelled", count(&self.runs_cancelled)),
                    ("runs_failed", count(&self.runs_failed)),
                    ("worker_restarts", count(&self.worker_restarts)),
                    ("shed_overload", count(&self.shed_overload)),
                    ("degraded_runs", count(&self.degraded_runs)),
                    ("degraded_responses", count(&self.degraded_responses)),
                    ("run_cost_ewma_ms", gauge(self.run_cost_ewma_ms())),
                ]),
            ),
            (
                "latency",
                section([
                    ("explore", self.explore_latency.metric()),
                    ("control", self.control_latency.metric()),
                ]),
            ),
            ("engine", lock_unpoisoned(&self.engine).metric()),
            (
                "phases",
                Metric::Labeled {
                    label: "phase",
                    family: "phases",
                    rows: phases,
                },
            ),
        ];
        section(own.into_iter().chain(extra))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bound() {
        let h = Histogram::default();
        h.observe_ms(0.5);
        h.observe_ms(3.0);
        h.observe_ms(999_999.0);
        assert_eq!(h.count(), 3);
        let snap = serde_json::value_to_string(&h.metric().to_json());
        assert!(snap.contains("\"le_1ms\":1"), "{snap}");
        assert!(snap.contains("\"le_5ms\":1"), "{snap}");
        assert!(snap.contains("\"le_inf\":1"), "{snap}");
    }

    #[test]
    fn snapshot_reports_queue_cache_and_engine_sections() {
        let m = ServerMetrics::new();
        let q = JobRegistry::new(8, 8);
        let c = ResultCache::new(4);
        m.count_status(200);
        let mut run = RunMetrics::empty(1, 2);
        run.jobs_completed = 5;
        run.ant_iterations = 100;
        m.record_run(&run);
        let text = serde_json::value_to_string(&m.snapshot(&q, &c, Vec::new()).to_json());
        for key in ["queue", "cache", "requests", "latency", "engine", "phases"] {
            assert!(text.contains(&format!("\"{key}\"")), "{text}");
        }
        assert!(text.contains("\"jobs_completed\":5"), "{text}");
    }

    fn leaf_types(v: &Value, path: &str, out: &mut Vec<(String, &'static str)>) {
        let kind = match v {
            Value::Object(fields) => {
                for (k, v) in fields {
                    let child = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    leaf_types(v, &child, out);
                }
                return;
            }
            Value::U64(_) => "U64",
            Value::F64(_) => "F64",
            _ => "other",
        };
        out.push((path.to_string(), kind));
    }

    #[test]
    fn json_keeps_each_leafs_number_type() {
        let m = ServerMetrics::new();
        let mut leaves = Vec::new();
        let tree = m.snapshot(&JobRegistry::new(8, 8), &ResultCache::new(4), Vec::new());
        leaf_types(&tree.to_json(), "", &mut leaves);
        let mut f64s = vec![
            "cache.hit_rate".to_string(),
            "requests.run_cost_ewma_ms".to_string(),
            "engine.explore_ms".to_string(),
            "engine.total_ms".to_string(),
        ];
        for h in ["explore", "control"] {
            for k in ["sum_ms", "avg_ms", "p50_ms", "p95_ms", "p99_ms"] {
                f64s.push(format!("latency.{h}.{k}"));
            }
        }
        for (path, kind) in &leaves {
            let want = match path.as_str() {
                "queue.last_failure" => "other",
                p if f64s.iter().any(|f| f == p) => "F64",
                _ => "U64",
            };
            assert_eq!(*kind, want, "{path}");
        }
        assert_eq!(leaves.len(), 1 + 7 + 5 + 8 + 2 * 18 + 9);
    }

    #[test]
    fn extra_sections_land_in_json_and_prometheus() {
        let m = ServerMetrics::new();
        let q = JobRegistry::new(8, 8);
        let c = ResultCache::new(4);
        let store = || section([("entries", gauge(3u64)), ("bytes", gauge(4096u64))]);
        let json =
            serde_json::value_to_string(&m.snapshot(&q, &c, vec![("store", store())]).to_json());
        assert!(json.contains("\"store\":{\"entries\":3"), "{json}");
        let prom = m.snapshot(&q, &c, vec![("store", store())]).to_prometheus();
        assert!(prom.contains("isexd_store_entries 3"), "{prom}");
        assert!(prom.contains("isexd_store_bytes 4096"), "{prom}");
    }

    #[test]
    fn run_phases_ride_the_phases_labels() {
        let m = ServerMetrics::new();
        for count in [2, 1] {
            let mut run = RunMetrics::empty(1, 1);
            run.phase_profile.0.push(isex_engine::PhaseStat {
                name: "engine.job".to_string(),
                count,
                total_ms: 1.5,
                max_ms: 1.0,
            });
            m.record_run(&run);
        }
        let prom = m
            .snapshot(&JobRegistry::new(8, 8), &ResultCache::new(4), Vec::new())
            .to_prometheus();
        assert!(
            prom.contains("isexd_phases_count{phase=\"engine.job\"} 3"),
            "{prom}"
        );
        assert!(
            prom.contains("isexd_phases_total_ms{phase=\"engine.job\"} 3"),
            "{prom}"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let rows = vec![("w\"0\\\n".to_string(), counter(1u64))];
        let tree = section([(
            "phases",
            Metric::Labeled {
                label: "phase",
                family: "phases",
                rows,
            },
        )]);
        let prom = tree.to_prometheus();
        assert!(
            prom.contains("isexd_phases{phase=\"w\\\"0\\\\\\n\"} 1\n"),
            "{prom}"
        );
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h = Histogram::default();
        h.observe_ms(f64::MAX);
        h.observe_ms(f64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum_us.load(Ordering::Relaxed), u64::MAX);
        // A further ordinary observation stays pinned, not wrapped to ~0.
        h.observe_ms(3.0);
        assert_eq!(h.sum_us.load(Ordering::Relaxed), u64::MAX);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::default();
        // 100 observations all landing in the (10, 25] bucket: rank r of
        // 100 sits at 10 + 15 * r/100.
        for _ in 0..100 {
            h.observe_ms(20.0);
        }
        assert!((h.quantile_ms(0.50) - 17.5).abs() < 1e-9);
        assert!((h.quantile_ms(1.00) - 25.0).abs() < 1e-9);
        assert_eq!(Histogram::default().quantile_ms(0.5), 0.0);
    }

    #[test]
    fn quantiles_split_across_buckets() {
        let h = Histogram::default();
        for _ in 0..50 {
            h.observe_ms(0.5); // (0, 1]
        }
        for _ in 0..50 {
            h.observe_ms(600.0); // (500, 1000]
        }
        // Rank 50 exhausts the first bucket exactly: its upper edge.
        assert!((h.quantile_ms(0.50) - 1.0).abs() < 1e-9);
        // Rank 95 is 45 of 50 into (500, 1000].
        assert!((h.quantile_ms(0.95) - 950.0).abs() < 1e-9);
        assert!((h.quantile_ms(0.99) - 990.0).abs() < 1e-9);
        // The overflow bucket cannot interpolate: report the last bound.
        h.observe_ms(999_999.0);
        assert!((h.quantile_ms(1.0) - 30_000.0).abs() < 1e-9);
    }

    fn numeric_leaves(v: &Value) -> usize {
        match v {
            Value::Object(fields) => fields.iter().map(|(_, v)| numeric_leaves(v)).sum(),
            Value::Array(items) => items.iter().map(numeric_leaves).sum(),
            Value::U64(_) | Value::I64(_) | Value::F64(_) => 1,
            _ => 0,
        }
    }

    #[test]
    fn prometheus_parses_and_covers_every_json_metric() {
        let m = ServerMetrics::new();
        let q = JobRegistry::new(8, 8);
        let c = ResultCache::new(4);
        m.count_status(200);
        m.count_status(503);
        m.explore_latency.observe_ms(12.0);
        let mut run = RunMetrics::empty(1, 2);
        run.jobs_completed = 5;
        run.phase_profile.0.push(isex_engine::PhaseStat {
            name: "aco.round".to_string(),
            count: 7,
            total_ms: 3.5,
            max_ms: 1.25,
        });
        m.record_run(&run);
        let text = m.snapshot(&q, &c, Vec::new()).to_prometheus();

        // Every sample line parses as `name{labels}? value` with a finite
        // value and a legal metric name, and belongs to the family the
        // `# TYPE` line before it announced (a histogram's series carry a
        // `_bucket`/`_sum`/`_count` suffix). No family is announced twice.
        let mut kinds: BTreeMap<&str, &str> = BTreeMap::new();
        let mut family = ("", "");
        let mut lines = 0usize;
        for line in text.lines() {
            if let Some(t) = line.strip_prefix("# TYPE ") {
                let (name, kind) = t.split_once(' ').expect(line);
                assert!(
                    kinds.insert(name, kind).is_none(),
                    "two # TYPE lines for `{name}`"
                );
                family = (name, kind);
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            lines += 1;
            let (name, value) = line.rsplit_once(' ').expect(line);
            let v: f64 = value.parse().expect(line);
            assert!(v.is_finite(), "{line}");
            let bare = name.split('{').next().unwrap();
            assert!(
                !bare.is_empty()
                    && bare
                        .chars()
                        .all(|ch| ch.is_ascii_alphanumeric() || ch == '_'),
                "{line}"
            );
            let suffix = bare.strip_prefix(family.0).expect(line);
            let histogram_series = ["_bucket", "_sum", "_count"].contains(&suffix);
            assert!(
                suffix.is_empty() || (family.1 == "histogram" && histogram_series),
                "`{bare}` sits under # TYPE {} {}",
                family.0,
                family.1
            );
        }

        // Coverage: at least one line per numeric metric in the JSON
        // snapshot (both render the same tree).
        let leaves = numeric_leaves(&m.snapshot(&q, &c, Vec::new()).to_json());
        assert!(lines >= leaves, "{lines} lines < {leaves} JSON metrics");

        // Kinds are declared with each leaf, not guessed from its name.
        for (name, kind) in [
            ("isexd_queue_jobs_completed", "counter"),
            ("isexd_cache_hits", "counter"),
            ("isexd_engine_runs", "counter"),
            ("isexd_phases_count", "counter"),
            ("isexd_phases_total_ms", "counter"),
            ("isexd_phases_max_ms", "gauge"),
            ("isexd_queue_depth", "gauge"),
            ("isexd_cache_hit_rate", "gauge"),
            ("isexd_requests_total", "counter"),
            ("isexd_latency_explore_ms", "histogram"),
            ("isexd_latency_explore_p50_ms", "gauge"),
        ] {
            assert_eq!(kinds.get(name), Some(&kind), "# TYPE of `{name}`");
        }

        for needle in [
            "# HELP isexd_queue_depth ",
            "isexd_uptime_ms ",
            "isexd_queue_depth ",
            "isexd_cache_hits ",
            "isexd_requests_total{status=\"200\"} 1",
            "isexd_requests_total{status=\"503\"} 1",
            "isexd_latency_explore_ms_bucket{le=\"+Inf\"} 1",
            "isexd_latency_explore_ms_count 1",
            "isexd_latency_explore_p50_ms ",
            "isexd_latency_explore_p95_ms ",
            "isexd_latency_explore_p99_ms ",
            "isexd_engine_runs 1",
            "isexd_phases_count{phase=\"aco.round\"} 7",
            "isexd_phases_total_ms{phase=\"aco.round\"} 3.5",
            "isexd_phases_max_ms{phase=\"aco.round\"} 1.25",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }

        // Bucket series are cumulative: the +Inf bucket equals the count.
        let inf = text
            .lines()
            .find(|l| l.starts_with("isexd_latency_explore_ms_bucket{le=\"+Inf\"}"))
            .unwrap();
        assert!(inf.ends_with(" 1"), "{inf}");
    }
}
