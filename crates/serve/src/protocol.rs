//! The `isexd` wire protocol: request parsing, canonicalisation, and one
//! derived type per JSON document the server writes or reads.
//!
//! A request names *what* to explore (`bench`, `opt`, `machine`,
//! `algorithm`, `seed`, `repeats`, `effort`) and *how* to run it (`jobs`,
//! `timeout_ms`). The first group fully determines the answer — the engine
//! is bitwise deterministic — so the [canonical key](ExploreRequest::canonical_key)
//! is built from it alone: two requests that differ only in worker count or
//! deadline are the *same* exploration and share a cache entry.

use isex_engine::RunMetrics;
use isex_flow::select::Budgets;
use isex_flow::{Algorithm, FlowConfig, FlowReport};
use isex_isa::MachineConfig;
use isex_workloads::{registry, Benchmark, OptLevel};
use serde::{Deserialize, Serialize, Value};

/// Hard caps on request effort, so one request cannot pin a worker for
/// hours: `repeats`, ACO iterations and worker threads are clamped-checked
/// against these at parse time (HTTP 400 on violation).
pub mod limits {
    /// Max explorations per block.
    pub const MAX_REPEATS: usize = 64;
    /// Max ACO iterations per round.
    pub const MAX_EFFORT: usize = 100_000;
    /// Max exploration worker threads per request.
    pub const MAX_JOBS: usize = 256;
    /// Max per-request deadline.
    pub const MAX_TIMEOUT_MS: u64 = 600_000;
}

/// A fully-resolved exploration request (all defaults applied).
#[derive(Clone, Debug)]
pub struct ExploreRequest {
    /// The benchmark to explore.
    pub bench: Benchmark,
    /// Workload fidelity.
    pub opt: OptLevel,
    /// Canonical machine-preset name (see [`MachineConfig::named_presets`]).
    pub machine_name: String,
    /// The resolved machine.
    pub machine: MachineConfig,
    /// Explorer choice.
    pub algorithm: Algorithm,
    /// Master RNG seed.
    pub seed: u64,
    /// Explorations per block, best kept.
    pub repeats: usize,
    /// ACO iteration cap per round.
    pub effort: usize,
    /// Exploration worker threads (`0` = one per core). Not part of the
    /// canonical key: results are identical for every value.
    pub jobs: usize,
    /// Per-request deadline override, milliseconds.
    pub timeout_ms: Option<u64>,
}

impl Default for ExploreRequest {
    fn default() -> Self {
        ExploreRequest {
            bench: Benchmark::Crc32,
            opt: OptLevel::O3,
            machine_name: "2is-4r2w".to_string(),
            machine: MachineConfig::preset_2issue_4r2w(),
            algorithm: Algorithm::MultiIssue,
            seed: 2008,
            repeats: 3,
            effort: 150,
            jobs: 1,
            timeout_ms: None,
        }
    }
}

/// A request the server refused to parse; the message goes to the client
/// verbatim in the 400 body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BadRequest(pub String);

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BadRequest {}

fn bad(msg: impl Into<String>) -> BadRequest {
    BadRequest(msg.into())
}

fn field<'v>(obj: &'v [(String, Value)], name: &str) -> Option<&'v Value> {
    obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn as_u64(v: &Value, name: &str) -> Result<u64, BadRequest> {
    match v {
        Value::U64(n) => Ok(*n),
        Value::I64(n) if *n >= 0 => Ok(*n as u64),
        other => Err(bad(format!(
            "field `{name}` must be a non-negative integer, got {}",
            other.kind()
        ))),
    }
}

fn as_str<'v>(v: &'v Value, name: &str) -> Result<&'v str, BadRequest> {
    match v {
        Value::String(s) => Ok(s),
        other => Err(bad(format!(
            "field `{name}` must be a string, got {}",
            other.kind()
        ))),
    }
}

impl ExploreRequest {
    /// Parses a request from the decoded JSON body, applying defaults for
    /// absent fields and rejecting unknown fields, wrong types, unknown
    /// names and absurd effort values with a self-explanatory message.
    pub fn from_json(body: &Value) -> Result<Self, BadRequest> {
        let obj = body.as_object().ok_or_else(|| {
            bad(format!(
                "request body must be a JSON object, got {}",
                body.kind()
            ))
        })?;
        const KNOWN: &[&str] = &[
            "bench",
            "opt",
            "machine",
            "algorithm",
            "seed",
            "repeats",
            "effort",
            "jobs",
            "timeout_ms",
        ];
        if let Some((k, _)) = obj.iter().find(|(k, _)| !KNOWN.contains(&k.as_str())) {
            return Err(bad(format!(
                "unknown field `{k}` (valid: {})",
                KNOWN.join(", ")
            )));
        }

        let mut req = ExploreRequest::default();
        let bench = field(obj, "bench")
            .ok_or_else(|| bad("missing required field `bench`"))
            .and_then(|v| as_str(v, "bench"))?;
        req.bench = registry::resolve(bench).map_err(|e| bad(e.to_string()))?;

        if let Some(v) = field(obj, "opt") {
            req.opt = match as_str(v, "opt")? {
                "O0" | "o0" => OptLevel::O0,
                "O3" | "o3" => OptLevel::O3,
                other => return Err(bad(format!("unknown opt level `{other}` (valid: O0, O3)"))),
            };
        }
        if let Some(v) = field(obj, "machine") {
            let name = as_str(v, "machine")?;
            req.machine = MachineConfig::by_name(name).ok_or_else(|| {
                let names: Vec<&str> = MachineConfig::named_presets()
                    .iter()
                    .map(|(n, _)| *n)
                    .collect();
                bad(format!(
                    "unknown machine `{name}` (valid: {})",
                    names.join(", ")
                ))
            })?;
            req.machine_name = name.to_ascii_lowercase();
        }
        if let Some(v) = field(obj, "algorithm") {
            req.algorithm = match as_str(v, "algorithm")? {
                "mi" | "MI" => Algorithm::MultiIssue,
                "si" | "SI" => Algorithm::SingleIssue,
                other => return Err(bad(format!("unknown algorithm `{other}` (valid: mi, si)"))),
            };
        }
        if let Some(v) = field(obj, "seed") {
            req.seed = as_u64(v, "seed")?;
        }
        if let Some(v) = field(obj, "repeats") {
            req.repeats = as_u64(v, "repeats")?.max(1) as usize;
            if req.repeats > limits::MAX_REPEATS {
                return Err(bad(format!(
                    "`repeats` {} exceeds the limit {}",
                    req.repeats,
                    limits::MAX_REPEATS
                )));
            }
        }
        if let Some(v) = field(obj, "effort") {
            req.effort = as_u64(v, "effort")?.max(1) as usize;
            if req.effort > limits::MAX_EFFORT {
                return Err(bad(format!(
                    "`effort` {} exceeds the limit {}",
                    req.effort,
                    limits::MAX_EFFORT
                )));
            }
        }
        if let Some(v) = field(obj, "jobs") {
            req.jobs = as_u64(v, "jobs")? as usize;
            if req.jobs > limits::MAX_JOBS {
                return Err(bad(format!(
                    "`jobs` {} exceeds the limit {}",
                    req.jobs,
                    limits::MAX_JOBS
                )));
            }
        }
        if let Some(v) = field(obj, "timeout_ms") {
            let t = as_u64(v, "timeout_ms")?;
            if t == 0 || t > limits::MAX_TIMEOUT_MS {
                return Err(bad(format!(
                    "`timeout_ms` must be in 1..={}",
                    limits::MAX_TIMEOUT_MS
                )));
            }
            req.timeout_ms = Some(t);
        }
        Ok(req)
    }

    /// The canonical identity of the *answer* this request asks for.
    ///
    /// Execution knobs (`jobs`, `timeout_ms`) are deliberately excluded:
    /// the engine's determinism contract makes the result a pure function
    /// of the remaining fields, which is exactly what makes exact-match
    /// caching sound.
    pub fn canonical_key(&self) -> String {
        format!(
            "bench={} opt={} machine={} algorithm={} seed={} repeats={} effort={}",
            self.bench.name(),
            self.opt,
            self.machine_name,
            self.algorithm,
            self.seed,
            self.repeats,
            self.effort
        )
    }

    /// The request as a JSON body (for the CLI client).
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("bench".into(), Value::String(self.bench.name().into())),
            ("opt".into(), Value::String(self.opt.to_string())),
            ("machine".into(), Value::String(self.machine_name.clone())),
            (
                "algorithm".into(),
                Value::String(match self.algorithm {
                    Algorithm::MultiIssue => "mi".into(),
                    Algorithm::SingleIssue => "si".into(),
                }),
            ),
            ("seed".into(), Value::U64(self.seed)),
            ("repeats".into(), Value::U64(self.repeats as u64)),
            ("effort".into(), Value::U64(self.effort as u64)),
            ("jobs".into(), Value::U64(self.jobs as u64)),
        ];
        if let Some(t) = self.timeout_ms {
            fields.push(("timeout_ms".into(), Value::U64(t)));
        }
        serde_json::value_to_string(&Value::Object(fields))
    }

    /// The [`FlowConfig`] this request resolves to.
    pub fn flow_config(&self) -> FlowConfig {
        let mut cfg = FlowConfig::for_machine(self.algorithm, self.machine);
        cfg.repeats = self.repeats;
        cfg.params.max_iterations = self.effort;
        cfg.jobs = self.jobs;
        cfg.budgets = Budgets::default();
        cfg
    }

    /// The program the request names.
    pub fn program(&self) -> isex_workloads::Program {
        self.bench.program(self.opt)
    }
}

/// Encodes a wire document as compact JSON.
pub fn encode(body: &impl Serialize) -> String {
    serde_json::to_string(body).expect("wire documents serialize")
}

/// The `/v1/explore` success body. `source` names where the answer came
/// from — `"run"` (computed now), `"memory"` (in-process LRU), `"store"`
/// (disk store), or `"coalesced"` (shared an in-flight run); `cached`
/// stays for wire compatibility and is true for everything but a fresh
/// run.
///
/// The server encodes it over borrowed results (`R = &FlowReport`,
/// `M = &RunMetrics`); a client decodes the owned default.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExploreResponse<R = FlowReport, M = RunMetrics> {
    /// Whether a cache tier answered rather than a fresh run.
    pub cached: bool,
    /// Where the answer came from (`run`, `memory`, `store`, `coalesced`).
    pub source: String,
    /// The canonical key the server cached under.
    pub key: String,
    /// Whether the report is a best-so-far partial (deadline tripped
    /// mid-run). Degraded answers are served `200` but never cached; only
    /// they carry the field, so a full-budget answer keeps its bytes.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub degraded: bool,
    /// The exploration's whole-program report.
    pub report: R,
    /// The run's telemetry (the cached run's, on a hit).
    pub metrics: M,
}

impl ExploreResponse {
    /// Decodes a response body.
    pub fn from_json(body: &str) -> Result<Self, String> {
        serde_json::from_str(body).map_err(|e| format!("bad response: {e}"))
    }
}

/// Encodes the `/v1/explore` success body for a result from `source`.
pub fn explore_response_json(
    source: &str,
    key: &str,
    report: &FlowReport,
    metrics: &RunMetrics,
) -> String {
    encode(&ExploreResponse {
        cached: source != "run",
        source: source.to_string(),
        key: key.to_string(),
        degraded: metrics.degraded,
        report,
        metrics,
    })
}

/// Version of the *store payload* envelope (orthogonal to the store's
/// frame version, which guards the container, not the content).
pub const RESULT_PAYLOAD_VERSION: u64 = 1;

/// A finished result as the persistent store files it under its canonical
/// key. Self-describing — it embeds its own version, the key it answers,
/// and (inside `metrics`) the engine version and seed provenance of the
/// producing run — so a reader can refuse anything it does not fully
/// recognise.
#[derive(Serialize, Deserialize)]
struct ResultPayload<R = FlowReport, M = RunMetrics> {
    payload_version: u64,
    key: String,
    report: R,
    metrics: M,
}

/// Encodes a finished result as its store payload.
pub fn result_payload_json(key: &str, report: &FlowReport, metrics: &RunMetrics) -> String {
    encode(&ResultPayload {
        payload_version: RESULT_PAYLOAD_VERSION,
        key: key.to_string(),
        report,
        metrics,
    })
}

/// Decodes a store payload back into a servable result, or `None` — never
/// an error — when the entry cannot be trusted: not UTF-8/JSON, an
/// unknown `payload_version`, filed under a different key (hash collision
/// or a copied file), undecodable report/metrics, or produced by a
/// different engine version (`RunMetrics::version` ≠ ours). A stale or
/// foreign entry is a cache miss; the flow recomputes.
pub fn decode_result_payload(
    expected_key: &str,
    bytes: &[u8],
) -> Option<crate::cache::CachedResult> {
    let payload: ResultPayload = serde_json::from_str(std::str::from_utf8(bytes).ok()?).ok()?;
    let ResultPayload {
        payload_version,
        key,
        report,
        metrics,
    } = payload;
    // All workspace crates share one version, so the engine that stamped
    // these metrics and the server deciding whether to trust them agree on
    // the version string exactly when they were built together. Degraded
    // (best-so-far partial) results must never be re-served as the
    // canonical answer: the write path refuses to store them, and this
    // read-side guard also voids any entry smuggled in by hand.
    let trusted = payload_version == RESULT_PAYLOAD_VERSION
        && key == expected_key
        && metrics.version == env!("CARGO_PKG_VERSION")
        && !metrics.degraded
        && !report.degraded;
    trusted.then_some(crate::cache::CachedResult { report, metrics })
}

/// The `POST /v1/jobs` acceptance body (`202`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobAccepted {
    /// Handle for the status endpoints.
    pub job_id: String,
    /// The canonical key of the exploration the job answers.
    pub key: String,
    /// The job's lifecycle phase at admission (`queued`, `running`,
    /// `done` — the last when a cache tier already held the answer).
    pub status: String,
    /// Whether the submission coalesced onto an identical in-flight run.
    pub coalesced: bool,
}

/// The `GET /v1/jobs/{id}` (and `/wait`) body. A `done` job carries its
/// answer (`source`, `degraded` when set, `report`, `metrics`); a
/// `failed`, `rejected` or `cancelled` one its `error`. Absent fields are
/// omitted. Encoded over borrowed results like [`ExploreResponse`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobStatusResponse<R = FlowReport, M = RunMetrics> {
    /// The job ID (echoed).
    pub job_id: String,
    /// The canonical key of the exploration the job answers.
    pub key: String,
    /// The lifecycle phase (`queued`, `running`, `done`, `cancelled`,
    /// `failed`, `rejected`).
    pub status: String,
    /// For `done`: where the answer came from (`run`, `memory`, `store`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub source: Option<String>,
    /// For `done`: whether the report is a best-so-far partial.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub degraded: bool,
    /// For `done`: the report.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub report: Option<R>,
    /// For `done`: the producing run's telemetry.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub metrics: Option<M>,
    /// For `failed`/`rejected`/`cancelled`: the cause.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
}

impl JobStatusResponse {
    /// Decodes a status body.
    pub fn from_json(body: &str) -> Result<Self, String> {
        serde_json::from_str(body).map_err(|e| format!("bad status: {e}"))
    }

    /// A `done` status as the `/v1/explore` answer it carries; `None` for
    /// any other status or a `done` body missing part of its answer.
    pub fn into_explore_response(self) -> Option<ExploreResponse> {
        match (self.status.as_str(), self.source, self.report, self.metrics) {
            ("done", Some(source), Some(report), Some(metrics)) => Some(ExploreResponse {
                cached: source != "run",
                source,
                key: self.key,
                degraded: self.degraded,
                report,
                metrics,
            }),
            _ => None,
        }
    }
}

/// The uniform error body `{"error": ...}` of every non-2xx answer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ErrorBody {
    /// What went wrong, for a human.
    pub error: String,
}

/// Encodes the error body for `message`.
pub fn error_json(message: &str) -> String {
    encode(&ErrorBody {
        error: message.to_string(),
    })
}

/// The `GET /healthz` body: liveness.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Health {
    /// Always `ok`: a process that answers is alive.
    pub status: String,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Whether a drain is under way.
    pub shutting_down: bool,
}

/// The `GET /readyz` body: whether new work admitted now would be served.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Readiness {
    /// `ok` or `unready`.
    pub status: String,
    /// Jobs in the waiting room.
    pub queue_depth: usize,
    /// Waiting-room size.
    pub queue_capacity: usize,
    /// Why the server is unready; absent when ready.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub reason: Option<String>,
}

/// The `GET /v1/jobs/{id}/events` body: one page of a job's event stream.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EventsPage {
    /// The job ID (echoed).
    pub job_id: String,
    /// The job's lifecycle phase.
    pub status: String,
    /// The first sequence number asked for.
    pub from_seq: u64,
    /// Where the next page starts.
    pub next_seq: u64,
    /// Events evicted from the ring before this page could read them.
    pub dropped: u64,
    /// Whether the stream is complete.
    pub closed: bool,
    /// The events, one JSON object per engine event.
    pub events: Vec<Value>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(body: &str) -> Result<ExploreRequest, BadRequest> {
        ExploreRequest::from_json(&serde_json::parse(body).unwrap())
    }

    #[test]
    fn minimal_request_gets_defaults() {
        let req = parse(r#"{"bench":"crc32"}"#).unwrap();
        assert_eq!(req.bench, Benchmark::Crc32);
        assert_eq!(req.opt, OptLevel::O3);
        assert_eq!(req.machine_name, "2is-4r2w");
        assert_eq!(req.seed, 2008);
    }

    #[test]
    fn unknown_bench_lists_valid_names() {
        let err = parse(r#"{"bench":"quicksort"}"#).unwrap_err();
        assert!(err.0.contains("crc32"), "{err}");
        assert!(err.0.contains("dijkstra"), "{err}");
    }

    #[test]
    fn unknown_field_is_rejected() {
        let err = parse(r#"{"bench":"fft","sed":1}"#).unwrap_err();
        assert!(err.0.contains("`sed`"), "{err}");
    }

    #[test]
    fn effort_limit_is_enforced() {
        let err = parse(r#"{"bench":"fft","effort":1000000}"#).unwrap_err();
        assert!(err.0.contains("exceeds"), "{err}");
    }

    #[test]
    fn canonical_key_ignores_execution_knobs() {
        let a = parse(r#"{"bench":"fft","seed":7,"jobs":1}"#).unwrap();
        let b = parse(r#"{"bench":"fft","seed":7,"jobs":8,"timeout_ms":50}"#).unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key());
        let c = parse(r#"{"bench":"fft","seed":8}"#).unwrap();
        assert_ne!(a.canonical_key(), c.canonical_key());
    }

    fn report() -> FlowReport {
        FlowReport {
            program: "t".into(),
            selected: Vec::new(),
            total_area: 0.0,
            cycles_before: 10,
            cycles_after: 8,
            per_block: Vec::new(),
            explored_blocks: 1,
            iterations: 5,
            degraded: false,
        }
    }

    #[test]
    fn store_payload_round_trips() {
        let metrics = isex_engine::RunMetrics::empty(1, 2);
        let payload = result_payload_json("k1", &report(), &metrics);
        let decoded = decode_result_payload("k1", payload.as_bytes()).unwrap();
        assert_eq!(
            serde_json::to_string(&decoded.report).unwrap(),
            serde_json::to_string(&report()).unwrap(),
            "report survives the store payload bitwise"
        );
        assert_eq!(decoded.metrics.version, metrics.version);
    }

    #[test]
    fn store_payload_provenance_guards_reject_as_miss() {
        let metrics = isex_engine::RunMetrics::empty(1, 2);
        let payload = result_payload_json("k1", &report(), &metrics);
        // Filed under a different key: a hash collision or a copied file.
        assert!(decode_result_payload("k2", payload.as_bytes()).is_none());
        // Unknown payload version.
        let bumped = payload.replace("\"payload_version\":1", "\"payload_version\":2");
        assert!(decode_result_payload("k1", bumped.as_bytes()).is_none());
        // A different engine version stamped the metrics.
        let foreign = payload.replace(
            &format!("\"version\":\"{}\"", metrics.version),
            "\"version\":\"0.0.0-elsewhere\"",
        );
        assert_ne!(foreign, payload, "replacement must hit");
        assert!(decode_result_payload("k1", foreign.as_bytes()).is_none());
        // Plain garbage.
        assert!(decode_result_payload("k1", b"not json").is_none());
        assert!(decode_result_payload("k1", &[0xff, 0xfe]).is_none());
        assert!(decode_result_payload("k1", b"{}").is_none());
    }

    #[test]
    fn job_status_decodes_and_converts_to_the_explore_answer() {
        let metrics = RunMetrics::empty(1, 2);
        let report = report();
        let status = |source: Option<&str>, error: Option<&str>| {
            encode(&JobStatusResponse {
                job_id: "j-3".to_string(),
                key: "k".to_string(),
                status: if error.is_some() { "failed" } else { "done" }.to_string(),
                source: source.map(str::to_string),
                degraded: false,
                report: error.is_none().then_some(&report),
                metrics: error.is_none().then_some(&metrics),
                error: error.map(str::to_string),
            })
        };
        let done = JobStatusResponse::from_json(&status(Some("store"), None)).unwrap();
        let answer = done.into_explore_response().expect("a done status answers");
        let sync =
            ExploreResponse::from_json(&explore_response_json("store", "k", &report, &metrics))
                .unwrap();
        assert_eq!(
            (answer.cached, answer.source.as_str(), answer.degraded),
            (sync.cached, sync.source.as_str(), sync.degraded)
        );
        assert_eq!(encode(&answer), encode(&sync), "one answer, two routes");
        // A done body without its source is a protocol error, not a guess.
        let sourceless = JobStatusResponse::from_json(&status(None, None)).unwrap();
        assert!(sourceless.into_explore_response().is_none());
        let failed = JobStatusResponse::from_json(&status(None, Some("boom"))).unwrap();
        assert_eq!(failed.error.as_deref(), Some("boom"));
        assert!(failed.report.is_none());
        assert!(failed.into_explore_response().is_none());
    }

    #[test]
    fn request_round_trips_through_client_json() {
        let a = parse(r#"{"bench":"adpcm","opt":"O0","algorithm":"si","seed":42,"repeats":2,"effort":99,"jobs":3}"#)
            .unwrap();
        let b = parse(&a.to_json()).unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(b.jobs, 3);
        assert_eq!(b.algorithm, Algorithm::SingleIssue);
    }
}
