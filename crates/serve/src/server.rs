//! The `isexd` server proper: accept loop, request routing, engine worker
//! pool, and graceful shutdown.
//!
//! Threading model — all std, no async runtime:
//!
//! * one **acceptor** thread on the shared [`Listener`] (it polls the
//!   shutdown flag);
//! * one short-lived **connection** thread per request (`Connection:
//!   close`, bounded by socket timeouts);
//! * `engine_workers` long-lived **worker** threads popping the
//!   [`JobRegistry`]'s bounded waiting room and running
//!   [`run_flow_cancellable`].
//!
//! Every exploration is admitted by one [`JobRegistry::admit`] call, which
//! coalesces it onto a live identical job, enqueues a fresh one, or
//! refuses it with nothing registered. Backpressure is explicit: a
//! connection never blocks on a full waiting room, it answers `503` +
//! `Retry-After` immediately. Deadlines are cooperative: a
//! [`DeadlineTimer`] trips the job's [`CancelToken`](isex_engine::CancelToken)
//! at its compute budget and the engine hands back a best-so-far partial;
//! a waiter that still runs out of time answers `504`, and the last waiter
//! of a non-detached job to leave cancels it. Graceful shutdown stops
//! accepting, lets in-flight runs finish (their waiters still get `200`),
//! rejects queued-but-unstarted jobs with `503`, then joins every thread.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use isex_engine::{DeadlineTimer, EventSink, Flags, RunMetrics};
use isex_flow::{run_flow_cancellable, FlowConfig, FlowReport};
use isex_workloads::Program;
use serde::Value;

use crate::cache::{CachedResult, ResultCache};
use crate::http::{self, HttpError, Request};
use crate::jobs::{Admitted, Job, JobOutcome, JobRegistry, Refused};
use crate::listener::Listener;
use crate::metrics::{counter, gauge, section, Metric, ServerMetrics};
use crate::protocol::{
    self, EventsPage, ExploreRequest, Health, JobAccepted, JobStatusResponse, Readiness,
};

/// The `Retry-After` hint sent with every `503`, seconds.
pub const RETRY_AFTER_SECS: u64 = 1;

/// How the server executes an exploration once it is dequeued.
///
/// The default, [`LocalRunner`], runs the flow in-process on the engine
/// pool. A distributed deployment swaps in a runner that shards the run
/// across remote nodes (see the `isex-cluster` crate) — the HTTP surface,
/// queue, cache and deadline machinery are unchanged, because the engine's
/// determinism contract makes *where* a run executes unobservable in its
/// result.
///
/// Implementations keep the anytime contract: once `job.cancel` trips,
/// exploration stops at the next boundary and the run still answers, with
/// each block's best-so-far candidates and [`RunMetrics::degraded`] set.
/// They may emit engine events to `sink`.
pub trait ExploreRunner: Send + Sync {
    /// Executes the exploration `job` resolves to and returns the report
    /// plus its telemetry.
    fn run_explore(
        &self,
        job: &Job,
        cfg: &FlowConfig,
        program: &Program,
        sink: &dyn EventSink,
    ) -> (FlowReport, RunMetrics);

    /// Whether the runner could execute a run *right now*. The local
    /// runner always can; a cluster front-end reports `false` while no
    /// workers are registered. Surfaced by `GET /readyz` — liveness
    /// (`/healthz`) is unaffected.
    fn ready(&self) -> bool {
        true
    }

    /// Extra root sections the runner contributes to `GET /metrics` — a
    /// cluster front-end reports its federated per-worker rollups here.
    /// Each `(name, tree)` renders to JSON and Prometheus like the
    /// server's own sections. The local runner has nothing beyond what the
    /// server already exports.
    fn metrics_sections(&self) -> Vec<(&'static str, Metric)> {
        Vec::new()
    }
}

/// The default [`ExploreRunner`]: [`run_flow_cancellable`] in-process.
pub struct LocalRunner;

impl ExploreRunner for LocalRunner {
    fn run_explore(
        &self,
        job: &Job,
        cfg: &FlowConfig,
        program: &Program,
        sink: &dyn EventSink,
    ) -> (FlowReport, RunMetrics) {
        run_flow_cancellable(cfg, program, job.request.seed, sink, &job.cancel)
    }
}

/// Tunables for one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8173` (`:0` picks a free port).
    pub addr: String,
    /// Engine worker threads — concurrent exploration runs.
    pub engine_workers: usize,
    /// Waiting-room size; beyond it requests get `503` + `Retry-After`.
    pub queue_capacity: usize,
    /// Result-cache entries.
    pub cache_capacity: usize,
    /// Default per-request deadline, ms (requests may set a lower one).
    pub default_timeout_ms: u64,
    /// Per-connection socket read timeout, ms; a client that dribbles its
    /// request slower than this gets `408`.
    pub read_timeout_ms: u64,
    /// Per-connection socket write timeout, ms.
    pub write_timeout_ms: u64,
    /// Deterministic fault injection applied to every run — a test/drill
    /// knob, `None` in production. See [`isex_engine::FaultPlan`].
    pub fault_plan: Option<isex_engine::FaultPlan>,
    /// When set, every explore run is traced and its Chrome-trace JSON +
    /// event JSONL are written here, named by the request's trace ID.
    pub trace_dir: Option<std::path::PathBuf>,
    /// Cap on trace *files* kept in `trace_dir` (each traced request
    /// writes two); the oldest are deleted beyond it.
    pub trace_keep: usize,
    /// When set, completed explorations persist to a content-addressed
    /// store in this directory and lookups read through it (memory LRU →
    /// disk store → run). Replicas sharing the directory share the cache.
    pub store_dir: Option<std::path::PathBuf>,
    /// Byte budget for the store; least-recently-used entries are evicted
    /// beyond it (`0` = unlimited).
    pub store_max_bytes: u64,
    /// Finished async jobs kept addressable by ID for status polls.
    pub jobs_keep: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8173".to_string(),
            engine_workers: 2,
            queue_capacity: 64,
            cache_capacity: 256,
            default_timeout_ms: 120_000,
            read_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
            fault_plan: None,
            trace_dir: None,
            trace_keep: 64,
            store_dir: None,
            store_max_bytes: 0,
            jobs_keep: 256,
        }
    }
}

impl ServerConfig {
    /// Parses the daemon's command-line flags (`--addr`, `--workers`,
    /// `--queue-cap`, `--cache-cap`, `--timeout-ms`) on top of defaults.
    /// Shared by the `isexd` binary and `isex serve`.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut config = ServerConfig::default();
        let mut flags = Flags::new(args);
        while let Some(flag) = flags.next_arg() {
            match flag {
                "--addr" => config.addr = flags.value(flag)?,
                "--workers" => config.engine_workers = flags.parse(flag)?,
                "--queue-cap" => config.queue_capacity = flags.parse(flag)?,
                "--cache-cap" => config.cache_capacity = flags.parse(flag)?,
                "--timeout-ms" => config.default_timeout_ms = flags.parse(flag)?,
                "--read-timeout-ms" => config.read_timeout_ms = flags.parse(flag)?,
                "--write-timeout-ms" => config.write_timeout_ms = flags.parse(flag)?,
                "--fault-plan" => {
                    config.fault_plan = Some(isex_engine::FaultPlan::parse(&flags.value(flag)?)?)
                }
                "--trace-dir" => config.trace_dir = Some(flags.value(flag)?.into()),
                "--trace-keep" => config.trace_keep = flags.parse(flag)?,
                "--store-dir" => config.store_dir = Some(flags.value(flag)?.into()),
                "--store-max-bytes" => config.store_max_bytes = flags.parse(flag)?,
                "--jobs-keep" => config.jobs_keep = flags.parse(flag)?,
                other => {
                    return Err(format!(
                        "unknown flag `{other}` (valid: --addr, --workers, --queue-cap, \
                         --cache-cap, --timeout-ms, --read-timeout-ms, --write-timeout-ms, \
                         --fault-plan, --trace-dir, --trace-keep, --store-dir, \
                         --store-max-bytes, --jobs-keep)"
                    ))
                }
            }
        }
        Ok(config)
    }
}

/// Parses daemon flags and runs the server until a termination signal.
pub fn run_from_args(args: &[String]) -> Result<(), String> {
    let config = ServerConfig::from_args(args)?;
    run(config).map_err(|e| e.to_string())
}

/// Shared state threaded through every server thread.
pub struct ServerState {
    /// The instance's tunables.
    pub config: ServerConfig,
    /// The result cache.
    pub cache: ResultCache,
    /// Live counters.
    pub metrics: ServerMetrics,
    /// Trips once; every loop polls it.
    pub shutdown: AtomicBool,
    /// Bounded ring of per-request trace files (empty unless
    /// [`ServerConfig::trace_dir`] is set).
    pub trace_ring: crate::trace::TraceRing,
    /// The persistent result store (`None` without `--store-dir`).
    pub store: Option<Arc<isex_store::Store>>,
    /// Every admitted exploration: admission, the waiting room, IDs,
    /// coalescing and in-flight accounting.
    pub jobs: JobRegistry,
    /// Executes dequeued explorations ([`LocalRunner`] unless the server
    /// was started with [`start_with_runner`]).
    pub runner: Arc<dyn ExploreRunner>,
}

/// A running server; dropping it without [`shutdown`](ServerHandle::shutdown)
/// leaves the threads running detached.
pub struct ServerHandle {
    state: Arc<ServerState>,
    listener: Listener,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The shared state (tests poke counters through this).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Requests shutdown without blocking (signal-handler friendly).
    pub fn request_shutdown(&self) {
        self.state.shutdown.store(true, Ordering::Release);
        self.state.jobs.wake_all();
    }

    /// Graceful shutdown: stop accepting, reject queued jobs, finish
    /// in-flight runs, join every thread.
    pub fn shutdown(mut self) {
        self.request_shutdown();
        self.listener.join();
        // Queued-but-unstarted jobs are rejected so their waiters get an
        // immediate 503 instead of silently losing the race with workers
        // that are already exiting. The drain also closes the waiting
        // room: a connection thread that passed its shutdown check just
        // before the flag tripped is refused at admission, never stranded.
        self.state.jobs.drain();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Connection threads answer from completed slots and exit; give
        // them a bounded window to flush.
        self.listener.wait_idle(Duration::from_secs(10));
    }
}

/// Binds and starts a server, returning once it is accepting.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    start_with_runner(config, Arc::new(LocalRunner))
}

/// [`start`] with a custom [`ExploreRunner`] — the hook a cluster
/// coordinator uses to front remote execution with this HTTP surface.
pub fn start_with_runner(
    config: ServerConfig,
    runner: Arc<dyn ExploreRunner>,
) -> std::io::Result<ServerHandle> {
    if let Some(dir) = &config.trace_dir {
        std::fs::create_dir_all(dir)?;
    }
    let store = match &config.store_dir {
        Some(dir) => Some(Arc::new(isex_store::Store::open(
            dir,
            config.store_max_bytes,
        )?)),
        None => None,
    };
    let state = Arc::new(ServerState {
        cache: ResultCache::new(config.cache_capacity),
        metrics: ServerMetrics::new(),
        shutdown: AtomicBool::new(false),
        trace_ring: crate::trace::TraceRing::new(config.trace_keep),
        store,
        jobs: JobRegistry::new(config.queue_capacity, config.jobs_keep),
        runner,
        config,
    });
    let stop_state = Arc::clone(&state);
    let conn_state = Arc::clone(&state);
    let listener = Listener::spawn(
        &state.config.addr,
        "isexd",
        move || stop_state.shutdown.load(Ordering::Acquire),
        move |stream| handle_connection(stream, &conn_state),
    )?;

    let mut workers = Vec::new();
    for i in 0..state.config.engine_workers.max(1) {
        let state = Arc::clone(&state);
        workers.push(
            std::thread::Builder::new()
                .name(format!("isexd-worker-{i}"))
                .spawn(move || worker_loop(&state))
                .expect("spawn worker"),
        );
    }

    Ok(ServerHandle {
        state,
        listener,
        workers,
    })
}

fn worker_loop(state: &Arc<ServerState>) {
    while let Some(job) = state.jobs.pop(&state.shutdown) {
        // Supervision: a panicking run must not take the worker thread (and
        // with it, the server's capacity) down. The panic is caught here,
        // the waiter gets a structured 500, and the loop — the resurrected
        // worker — carries on with the next job.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_one(state, &job);
        }));
        if let Err(payload) = outcome {
            state
                .metrics
                .worker_restarts
                .fetch_add(1, Ordering::Relaxed);
            state.metrics.runs_failed.fetch_add(1, Ordering::Relaxed);
            let cause = isex_engine::panic_message(payload.as_ref());
            job.complete(JobOutcome::Failed(format!("worker panicked: {cause}")));
        }
    }
}

fn run_one(state: &Arc<ServerState>, job: &Arc<Job>) {
    if job.cancel.is_cancelled() {
        // The waiter gave up while the job sat in the queue.
        state.metrics.runs_cancelled.fetch_add(1, Ordering::Relaxed);
        job.complete(JobOutcome::Cancelled);
        return;
    }
    let in_flight = state.jobs.start_job();
    // The compute deadline is re-read on every wake, so a coalesced waiter
    // extending the budget mid-run is honoured.
    let deadline_job = Arc::clone(job);
    let _timer = DeadlineTimer::arm(job.cancel.clone(), move || deadline_job.deadline());
    let mut cfg = job.request.flow_config();
    cfg.fault_plan = state.config.fault_plan.clone();
    let tracer = match &state.config.trace_dir {
        Some(_) => isex_trace::Tracer::with_trace_id(&job.trace_id),
        None => isex_trace::Tracer::disabled(),
    };
    cfg.tracer = tracer.clone();
    let program = job.request.program();

    // Every run streams seq-stamped, trace-tagged events into the job's
    // bounded ring (the live `GET /v1/jobs/{id}/events` feed); a traced
    // run additionally tees the identical lines into a JSONL file, so ring
    // and file share one gapless numbering. Both are observational. The
    // whole run sits under one `request.explore` span (a no-op untraced;
    // the flow re-attaches the same tracer internally, which keeps this
    // span the parent of every flow/engine/ACO span).
    let events_path = state
        .config
        .trace_dir
        .as_ref()
        .map(|dir| dir.join(format!("{}.events.jsonl", job.trace_id)));
    let file = events_path
        .as_ref()
        .and_then(|path| isex_engine::JsonlSink::create(path).ok());
    let sink = isex_engine::TaggedSink::new(
        crate::events::RingSink::new(&job.events, file),
        job.trace_id.clone(),
    );
    let (report, run_metrics) = {
        let _attach = tracer.attach();
        let _span = tracer.span_with("request.explore", || {
            vec![
                ("key", job.key.clone()),
                ("seed", job.request.seed.to_string()),
                ("trace", job.trace_id.clone()),
            ]
        });
        state.runner.run_explore(job, &cfg, &program, &sink)
    };
    if let Some(dir) = &state.config.trace_dir {
        let mut written = Vec::new();
        if sink.into_inner().finish() {
            if let Some(path) = events_path {
                written.push(path);
            }
        }
        let trace_path = dir.join(format!("{}.trace.json", job.trace_id));
        if std::fs::write(&trace_path, tracer.chrome_trace()).is_ok() {
            written.push(trace_path);
        }
        state.trace_ring.push(written);
        let dropped = &state.metrics.trace_spans_dropped;
        dropped.fetch_add(tracer.dropped(), Ordering::Relaxed);
    }

    if run_metrics.blocks_explored > 0
        && run_metrics.block_failures.len() == run_metrics.blocks_explored
    {
        // Every hot block lost every repeat to a panic: there is no
        // exploration behind this report, so a "no ISEs found" answer
        // would be a lie. Fail the run instead.
        state.metrics.runs_failed.fetch_add(1, Ordering::Relaxed);
        let cause = run_metrics
            .block_failures
            .first()
            .map(|f| f.error.clone())
            .unwrap_or_default();
        in_flight.complete_failed(&cause);
        job.complete(JobOutcome::Failed(format!(
            "all {} explored blocks failed; first cause: {cause}",
            run_metrics.blocks_explored
        )));
        return;
    }
    state.metrics.record_run(&run_metrics);
    if run_metrics.degraded {
        state.metrics.degraded_runs.fetch_add(1, Ordering::Relaxed);
    }
    let result = Arc::new(CachedResult {
        report,
        metrics: run_metrics,
    });
    // Cache soundness: the canonical key promises the *fault-free,
    // full-budget* answer. A run that survived injected or real job panics
    // is still served to its requester (with the failures visible in its
    // metrics) but must never be cached under that key — and the same goes
    // for a degraded run, whose report is a valid best-so-far partial of
    // whatever deadline happened to be in force, not the canonical result.
    // Both guards also gate the persistent store, where a damaged answer
    // would outlive the process.
    if result.metrics.jobs_failed == 0 && !result.metrics.degraded {
        state.cache.insert(job.key.clone(), Arc::clone(&result));
        if let Some(store) = &state.store {
            let payload = protocol::result_payload_json(&job.key, &result.report, &result.metrics);
            if store.insert(&job.key, payload.as_bytes()).is_err() {
                state
                    .metrics
                    .store_write_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    in_flight.complete_ok();
    job.complete(JobOutcome::Done(result));
}

fn handle_connection(mut stream: TcpStream, state: &Arc<ServerState>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        state.config.read_timeout_ms.max(1),
    )));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(
        state.config.write_timeout_ms.max(1),
    )));
    let (status, msg) =
        match http::read_request(&mut stream, http::MAX_BODY_BYTES, http::MAX_HEAD_BYTES) {
            Ok(request) => return route(state, &mut stream, &request),
            Err(HttpError::BadRequest(m)) => (400, m),
            Err(HttpError::PayloadTooLarge(n)) => (
                413,
                format!(
                    "body of {n} bytes exceeds the {}-byte cap",
                    http::MAX_BODY_BYTES
                ),
            ),
            Err(HttpError::HeadTooLarge(n)) => (
                413,
                format!(
                    "request head of {n} bytes exceeds the {}-byte cap",
                    http::MAX_HEAD_BYTES
                ),
            ),
            // Slow client (slowloris or a stalled sender): tell it why the
            // request died rather than silently dropping the socket.
            Err(HttpError::Timeout) => (
                408,
                format!(
                    "request not received within {}ms",
                    state.config.read_timeout_ms
                ),
            ),
            // Other socket-level failure: nothing sensible to answer.
            Err(HttpError::Io(_)) => return,
        };
    let body = protocol::error_json(&msg);
    respond_control(state, &mut stream, status, "application/json", &body, &[]);
}

/// Answers one well-formed request.
fn route(state: &Arc<ServerState>, stream: &mut TcpStream, request: &Request) {
    // Every routed request gets a trace ID — the client's (when
    // well-formed) or a freshly minted one — echoed on the response and,
    // for explores, stamped through the run's spans and events.
    let trace_id = request
        .header(crate::trace::TRACE_HEADER)
        .and_then(crate::trace::accept_trace_id)
        .unwrap_or_else(crate::trace::mint_trace_id);

    // `no-store` on `/readyz` and `/metrics`: a readiness verdict is only
    // honest at the instant it was computed, and a scrape must see live
    // counters — an intermediary replaying a cached copy would hide
    // saturation or recovery.
    let no_store = Some(("cache-control", "no-store".to_string()));
    let mut content_type = "application/json";
    let (status, body, extra) = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/explore") => return handle_explore(state, stream, request, &trace_id),
        ("POST", "/v1/jobs") => return handle_job_submit(state, stream, request, &trace_id),
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            return handle_job_status(state, stream, request, &trace_id)
        }
        ("GET", "/healthz") => {
            // Liveness: the process is up and answering. Always 200 — a
            // saturated or workerless server is still *alive*; readiness
            // is `/readyz`'s verdict.
            let body = protocol::encode(&Health {
                status: "ok".to_string(),
                uptime_ms: state.metrics.uptime_ms(),
                shutting_down: state.shutdown.load(Ordering::Acquire),
            });
            (200, body, None)
        }
        ("GET", "/readyz") => {
            // Readiness: whether new work admitted *now* would be served.
            // Unready (503) while shutting down, while the queue is
            // saturated, or while the runner has nowhere to execute (a
            // cluster front-end with zero live workers).
            let reason = if state.shutdown.load(Ordering::Acquire) {
                Some("shutting down")
            } else if state.jobs.depth() >= state.jobs.capacity() {
                Some("queue saturated")
            } else if !state.runner.ready() {
                Some("runner not ready (no workers available)")
            } else {
                None
            };
            let body = protocol::encode(&Readiness {
                status: if reason.is_none() { "ok" } else { "unready" }.to_string(),
                queue_depth: state.jobs.depth(),
                queue_capacity: state.jobs.capacity(),
                reason: reason.map(str::to_string),
            });
            let status = if reason.is_none() { 200 } else { 503 };
            (status, body, no_store)
        }
        ("GET", "/metrics") => {
            let tree = state
                .metrics
                .snapshot(&state.jobs, &state.cache, metrics_extra(state));
            let body = if request.query_param("format") == Some("prometheus") {
                content_type = "text/plain; version=0.0.4";
                tree.to_prometheus()
            } else {
                serde_json::value_to_string(&tree.to_json())
            };
            (200, body, no_store)
        }
        // Known path, wrong method: 405 with an `Allow` header naming what
        // the path *does* accept, per RFC 9110 §15.5.6.
        (_, path @ ("/v1/explore" | "/v1/jobs")) => method_not_allowed(path, "POST"),
        (_, path @ ("/healthz" | "/readyz" | "/metrics")) => method_not_allowed(path, "GET"),
        (_, path) if path.starts_with("/v1/jobs/") => method_not_allowed(path, "GET"),
        (_, path) => {
            let msg = format!(
                "no route `{path}` (try /v1/explore, /v1/jobs, /healthz, /readyz, /metrics)"
            );
            (404, protocol::error_json(&msg), None)
        }
    };
    let mut headers = vec![(crate::trace::TRACE_HEADER, trace_id)];
    headers.extend(extra);
    respond_control(state, stream, status, content_type, &body, &headers);
}

/// A control route's answer: status, body and one extra header.
type ControlAnswer = (u16, String, Option<(&'static str, String)>);

fn method_not_allowed(path: &str, allow: &'static str) -> ControlAnswer {
    let msg = format!("method not allowed on `{path}` (allow: {allow})");
    (
        405,
        protocol::error_json(&msg),
        Some(("allow", allow.to_string())),
    )
}

/// The caller-owned `/metrics` sections: the persistent store's (when
/// configured), the job registry's, then the runner's.
fn metrics_extra(state: &ServerState) -> Vec<(&'static str, Metric)> {
    let mut extra = Vec::new();
    if let Some(store) = &state.store {
        let s = store.stats();
        let m = &state.metrics;
        extra.push((
            "store",
            section([
                ("entries", gauge(s.entries)),
                ("bytes", gauge(s.bytes)),
                ("max_bytes", gauge(s.max_bytes)),
                ("hits", counter(s.hits)),
                ("misses", counter(s.misses)),
                ("inserts", counter(s.inserts)),
                ("evictions", counter(s.evictions)),
                (
                    "write_errors",
                    counter(m.store_write_errors.load(Ordering::Relaxed)),
                ),
                ("stale", counter(s.stale)),
            ]),
        ));
    }
    let j = state.jobs.stats();
    let jobs = section([
        ("submitted", counter(j.submitted)),
        ("coalesced", counter(j.coalesced)),
        ("tracked", gauge(j.tracked)),
        ("active", gauge(j.active)),
        ("inflight", gauge(state.jobs.in_flight() as u64)),
        ("coalesced_waiters", gauge(j.waiters)),
    ]);
    extra.push(("jobs", jobs));
    extra.extend(state.runner.metrics_sections());
    extra
}

/// Memory LRU → disk store read-through. A store hit is decoded behind the
/// provenance guard, promoted into the memory cache, and served; a payload
/// the guard refuses is a store miss (counted in `store.stale`, its entry
/// removed).
fn lookup_tiers(state: &ServerState, key: &str) -> Option<(Arc<CachedResult>, &'static str)> {
    if let Some(hit) = state.cache.lookup(key) {
        return Some((hit, "memory"));
    }
    let store = state.store.as_ref()?;
    let result = store.lookup_with(key, |bytes| protocol::decode_result_payload(key, &bytes))?;
    let result = Arc::new(result);
    state.cache.insert(key.to_string(), Arc::clone(&result));
    Some((result, "store"))
}

/// What [`admit`] did with an exploration.
enum Admission {
    /// A cache tier already held the answer; `source` is `"memory"` or
    /// `"store"`. The request comes back for the async job.
    Hit(ExploreRequest, Arc<CachedResult>, &'static str),
    /// The job registry admitted a run: a fresh one, or an identical run
    /// already queued or running.
    Run(Admitted),
}

/// The admission steps both explore endpoints share: parse the body, look
/// up the cache tiers, refuse during shutdown, shed a synchronous request
/// whose budget the estimated queue wait would eat, then admit it to the
/// job registry with its compute budget. Answers the canonical key, the
/// request's deadline in ms and the admission; a refusal is
/// `(status, message)`.
fn admit(
    state: &ServerState,
    request: &Request,
    trace_id: &str,
    detached: bool,
) -> Result<(String, u64, Admission), (u16, String)> {
    let explore = parse_explore_body(request).map_err(|msg| (400, msg))?;
    let key = explore.canonical_key();
    let timeout_ms = explore
        .timeout_ms
        .unwrap_or(state.config.default_timeout_ms);
    if let Some((hit, source)) = lookup_tiers(state, &key) {
        return Ok((key, timeout_ms, Admission::Hit(explore, hit, source)));
    }
    if state.shutdown.load(Ordering::Acquire) {
        return Err((503, "server shutting down".to_string()));
    }

    // Deadline-aware admission, synchronous requests only: estimate this
    // request's queue wait (EWMA of recent run cost × queue depth ÷
    // workers) and shed it *now* with 503 + Retry-After when the whole
    // budget would be eaten before a worker even picked it up — a cheap,
    // honest refusal beats holding the connection open to time out. An
    // empty queue admits everything: a tight deadline with a free worker
    // is served best-effort (a degraded 200), never refused.
    if !detached {
        let est_wait_ms = state
            .metrics
            .estimated_queue_wait_ms(state.jobs.depth(), state.config.engine_workers.max(1));
        if est_wait_ms > timeout_ms as f64 {
            state.metrics.shed_overload.fetch_add(1, Ordering::Relaxed);
            return Err((503, format!(
                "estimated queue wait {est_wait_ms:.0}ms exceeds the {timeout_ms}ms budget; retry later"
            )));
        }
    }

    // Every run is budgeted, detached ones too: a job must not pin a
    // worker past the deadline its submitter asked for. A coalescing
    // submitter with a longer budget *extends* the run's compute deadline
    // (never shrinks it), so the fullest answer anyone asked for stays
    // reachable.
    let budget = Instant::now() + Duration::from_millis(run_budget_ms(timeout_ms));
    match state
        .jobs
        .admit(explore, key.clone(), trace_id.to_string(), detached, budget)
    {
        Ok(admitted) => Ok((key, timeout_ms, Admission::Run(admitted))),
        Err(Refused::Full) => Err((
            503,
            format!(
                "queue full ({} waiting); retry later",
                state.config.queue_capacity
            ),
        )),
        Err(Refused::Closed) => Err((503, "server shutting down".to_string())),
    }
}

/// Writes an explore or job endpoint's JSON answer with the trace-ID echo
/// (and `Retry-After` on a `503`); `started` feeds the synchronous explore
/// latency histogram.
fn reply(
    state: &ServerState,
    stream: &mut TcpStream,
    trace_id: &str,
    status: u16,
    body: &str,
    started: Option<Instant>,
) {
    let mut headers = Vec::with_capacity(2);
    if status == 503 {
        headers.push(("retry-after", RETRY_AFTER_SECS.to_string()));
    }
    headers.push((crate::trace::TRACE_HEADER, trace_id.to_string()));
    let _ = http::write_response(stream, status, "application/json", body, &headers);
    state.metrics.count_status(status);
    if let Some(started) = started {
        state
            .metrics
            .explore_latency
            .observe_ms(started.elapsed().as_secs_f64() * 1e3);
    }
}

/// `POST /v1/explore`: admit, then wait for the run and answer `200` with
/// the report (degraded when the compute budget cut it), or the error.
fn handle_explore(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    request: &Request,
    trace_id: &str,
) {
    let started = Some(Instant::now());
    let mut respond =
        |status: u16, body: &str| reply(state, stream, trace_id, status, body, started);
    let (key, timeout_ms, Admitted { job, coalesced }) =
        match admit(state, request, trace_id, false) {
            Err((status, msg)) => return respond(status, &protocol::error_json(&msg)),
            Ok((key, _, Admission::Hit(_, hit, source))) => {
                let body = protocol::explore_response_json(source, &key, &hit.report, &hit.metrics);
                return respond(200, &body);
            }
            Ok((key, timeout_ms, Admission::Run(admitted))) => (key, timeout_ms, admitted),
        };
    let source = if coalesced { "coalesced" } else { "run" };

    // Registered waiter: the run is abandoned only when the *last* waiter
    // leaves (and nobody detached the job via the async API).
    let _waiting = job.begin_wait();
    match job.wait_shared_until(Instant::now() + Duration::from_millis(timeout_ms)) {
        Some(JobOutcome::Done(result)) => {
            if result.metrics.degraded {
                // The run's compute deadline tripped and it handed back a
                // best-so-far partial inside the grace window: a 200 with
                // `"degraded": true`, not a 504 with nothing.
                state
                    .metrics
                    .degraded_responses
                    .fetch_add(1, Ordering::Relaxed);
            }
            let body =
                protocol::explore_response_json(source, &key, &result.report, &result.metrics);
            respond(200, &body);
        }
        Some(JobOutcome::Rejected(reason)) => respond(503, &protocol::error_json(reason)),
        Some(JobOutcome::Failed(cause)) => {
            // The worker caught a panic in this run; the supervisor already
            // resurrected it. The client gets the structured cause.
            respond(500, &protocol::error_json(&cause));
        }
        Some(JobOutcome::Cancelled) => {
            // The run was cancelled while this waiter was still waiting —
            // an injected cancel fault, or a lost coalescing race against a
            // previous last waiter giving up. Either way the waiter asked
            // for an answer and there is none: an explicit error, not a
            // silent drop. A retry gets a fresh run.
            respond(
                500,
                &protocol::error_json("run cancelled before completion; a retry starts fresh"),
            );
        }
        None => {
            state
                .metrics
                .deadline_timeouts
                .fetch_add(1, Ordering::Relaxed);
            let msg = format!("deadline of {timeout_ms}ms exceeded; run cancelled");
            respond(504, &protocol::error_json(&msg));
        }
    }
}

/// The compute budget carved out of a request's deadline: the run gets the
/// deadline minus a grace window (10%, clamped to 5..=1000 ms) in which a
/// budget-tripped run can hand its best-so-far partial back to the waiter
/// before the waiter's own HTTP deadline fires 504. 504 remains the
/// fallback when the engine overruns the grace window between two
/// cancellation points.
fn run_budget_ms(timeout_ms: u64) -> u64 {
    let grace = (timeout_ms / 10).clamp(5, 1_000);
    timeout_ms.saturating_sub(grace).max(1)
}

fn parse_explore_body(request: &Request) -> Result<ExploreRequest, String> {
    let body = std::str::from_utf8(&request.body).map_err(|_| "body is not UTF-8".to_string())?;
    serde_json::parse(body)
        .map_err(|e| format!("malformed JSON: {e}"))
        .and_then(|v| ExploreRequest::from_json(&v).map_err(|e| e.0))
}

/// `POST /v1/jobs`: admit an exploration asynchronously. Answers `202`
/// with a job ID immediately — from a cache tier (the job is born `done`),
/// by coalescing onto an identical in-flight run, or by queueing a fresh
/// detached run that completes whether or not anyone polls it.
fn handle_job_submit(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    request: &Request,
    trace_id: &str,
) {
    let (key, job, status, coalesced) = match admit(state, request, trace_id, true) {
        Err((status, msg)) => {
            return reply(
                state,
                stream,
                trace_id,
                status,
                &protocol::error_json(&msg),
                None,
            )
        }
        Ok((key, _, Admission::Hit(explore, hit, source))) => {
            let job =
                state
                    .jobs
                    .admit_completed(explore, key.clone(), JobOutcome::Done(hit), source);
            (key, job, "done", false)
        }
        Ok((key, _, Admission::Run(Admitted { job, coalesced }))) => {
            let status = if coalesced {
                job.status().as_str()
            } else {
                "queued"
            };
            (key, job, status, coalesced)
        }
    };
    let body = protocol::encode(&JobAccepted {
        job_id: job.id.clone(),
        key,
        status: status.to_string(),
        coalesced,
    });
    reply(state, stream, trace_id, 202, &body, None);
}

/// Which view of a job a `GET /v1/jobs/...` path names.
enum JobView {
    /// `/v1/jobs/{id}` — lifecycle status, non-blocking.
    Status,
    /// `/v1/jobs/{id}/wait` — long-poll for the terminal status.
    Wait,
    /// `/v1/jobs/{id}/events` — an incremental page of the run's live
    /// event stream.
    Events,
}

/// `GET /v1/jobs/{id}`, `GET /v1/jobs/{id}/wait?timeout_ms=N` and
/// `GET /v1/jobs/{id}/events?from_seq=N&timeout_ms=M`: the job's lifecycle
/// status (terminal jobs embed their result or error), a long-poll on it,
/// or a page of the run's event stream. The `/wait` form blocks until the
/// job finishes or the timeout lapses, then reports whatever state the job
/// is in (a poll that expires never cancels the run; polls are observers,
/// not waiters).
fn handle_job_status(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    request: &Request,
    trace_id: &str,
) {
    let respond = |stream: &mut TcpStream, status: u16, body: &str| {
        reply(state, stream, trace_id, status, body, None)
    };

    let rest = request.path.strip_prefix("/v1/jobs/").unwrap_or("");
    let (id, view) = if let Some(id) = rest.strip_suffix("/wait") {
        (id, JobView::Wait)
    } else if let Some(id) = rest.strip_suffix("/events") {
        (id, JobView::Events)
    } else {
        (rest, JobView::Status)
    };
    if id.is_empty() || id.contains('/') {
        respond(
            stream,
            404,
            &protocol::error_json(
                "expected /v1/jobs/{id}, /v1/jobs/{id}/wait or /v1/jobs/{id}/events",
            ),
        );
        return;
    }
    let Some(job) = state.jobs.get(id) else {
        respond(
            stream,
            404,
            &protocol::error_json(&format!(
                "no such job `{id}` (finished jobs age out after {} newer ones)",
                state.config.jobs_keep
            )),
        );
        return;
    };

    if matches!(view, JobView::Events) {
        // Incremental page of the run's live event stream. `from_seq`
        // resumes where the previous page's `next_seq` left off (gapless by
        // construction: ring seqs are contiguous and eviction is reported
        // in `dropped`); `timeout_ms > 0` long-polls for fresh events.
        // Polling is observation only — it never cancels or extends the
        // run, and it works the same for degraded and cancelled runs.
        let from_seq = request
            .query_param("from_seq")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        let timeout_ms = request
            .query_param("timeout_ms")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
            .min(protocol::limits::MAX_TIMEOUT_MS);
        let page = job
            .events
            .read_from(from_seq, Duration::from_millis(timeout_ms));
        let body = protocol::encode(&EventsPage {
            job_id: job.id.clone(),
            status: job.status().as_str().to_string(),
            from_seq,
            next_seq: page.next_seq,
            dropped: page.dropped,
            closed: page.closed,
            events: page
                .events
                .iter()
                .map(|(_, line)| serde_json::parse(line).unwrap_or(Value::Null))
                .collect(),
        });
        respond(stream, 200, &body);
        return;
    }

    let outcome = if matches!(view, JobView::Wait) {
        let timeout_ms = request
            .query_param("timeout_ms")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(30_000)
            .clamp(1, protocol::limits::MAX_TIMEOUT_MS);
        job.wait_shared_until(Instant::now() + Duration::from_millis(timeout_ms))
    } else {
        job.peek_outcome()
    };

    let (status, result, error) = match &outcome {
        Some(JobOutcome::Done(result)) => ("done", Some(&**result), None),
        Some(JobOutcome::Failed(cause)) => ("failed", None, Some(cause.as_str())),
        Some(JobOutcome::Rejected(reason)) => ("rejected", None, Some(*reason)),
        Some(JobOutcome::Cancelled) => ("cancelled", None, Some("run cancelled")),
        None => (job.status().as_str(), None, None),
    };
    let body = protocol::encode(&JobStatusResponse {
        job_id: job.id.clone(),
        key: job.key.clone(),
        status: status.to_string(),
        source: result.map(|_| job.origin.to_string()),
        degraded: result.is_some_and(|r| r.metrics.degraded),
        report: result.map(|r| &r.report),
        metrics: result.map(|r| &r.metrics),
        error: error.map(str::to_string),
    });
    respond(stream, 200, &body);
}

fn respond_control(
    state: &ServerState,
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    extra: &[(&str, String)],
) {
    let started = Instant::now();
    let _ = http::write_response(stream, status, content_type, body, extra);
    state.metrics.count_status(status);
    state
        .metrics
        .control_latency
        .observe_ms(started.elapsed().as_secs_f64() * 1e3);
}

/// Runs a server until SIGTERM/SIGINT (or a prior
/// [`request_shutdown`](ServerHandle::request_shutdown)), then drains and
/// returns — the `isexd` main loop.
pub fn run(config: ServerConfig) -> std::io::Result<()> {
    serve_until_shutdown(start(config)?, "isexd");
    Ok(())
}

/// The daemon loop of `isexd` and `isexd-coordinator`: announces `handle`'s
/// address, waits for SIGTERM/SIGINT or a
/// [`request_shutdown`](ServerHandle::request_shutdown), then drains.
pub fn serve_until_shutdown(handle: ServerHandle, name: &str) {
    eprintln!("{name} listening on http://{}", handle.addr());
    crate::signal::install();
    while !crate::signal::shutdown_requested() && !handle.state().shutdown.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("{name}: draining in-flight jobs and shutting down");
    handle.shutdown();
}
