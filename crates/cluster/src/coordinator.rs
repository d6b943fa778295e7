//! The cluster coordinator: deterministic job sharding, heartbeat
//! sentinels, and re-dispatch.
//!
//! Workers dial in over TCP and announce themselves
//! ([`Hello`](crate::messages::Hello)); the coordinator shards a run's
//! `(block, repeat)` job space across them, one job per [`JobAssign`].
//! Because every job seed derives from `(seed, block, repeat)` — not from
//! which node runs it or in what order — and a block's repeats are
//! reduced in repeat order once all are back, the merged result is
//! bitwise identical to a single-node run at any worker count, placement,
//! or failure history.
//!
//! # Liveness and re-dispatch
//!
//! Workers heartbeat every [`CoordinatorConfig::heartbeat_ms`]. A worker
//! whose connection drops, or that goes silent for
//! `heartbeat_ms × heartbeat_misses`, is declared dead and its in-flight
//! jobs return to the pending queue for re-dispatch. If *every* worker
//! is dead, the coordinator runs pending jobs locally, one at a time — a
//! cluster of zero degrades to the single-node flow, it never hangs.
//!
//! # Exactly-once completion
//!
//! Re-dispatch can race a slow worker against its replacement, so a job
//! may finish twice; the first [`RepeatResult`](crate::messages::RepeatResult)
//! for a `(block, repeat)` wins and later duplicates are dropped
//! (identical by determinism, so "first" is not a choice that shows in
//! the output). When a block's last repeat lands, the block is reduced
//! with [`entry_from_repeats`] — the same reduction a local run uses —
//! and, with a store directory configured, its entry is saved there
//! through [`Checkpoints`]: a crashed coordinator resumes from it and
//! re-explores only the rest.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use isex_engine::{
    lock_unpoisoned, CancelToken, Cancelled, EventSink, ExploreJob, FaultPlan, RepeatOutcome,
    RepeatSlots, RunEvent, RunMetrics, Seq,
};
use isex_flow::{
    entry_from_repeats, explore_block_repeat, finish_from_entries, hot_blocks, run_key,
    CheckpointEntry, Checkpoints, FlowConfig, FlowReport,
};
use isex_serve::listener::Listener;
use isex_serve::metrics::Histogram;
use isex_serve::ExploreRequest;
use isex_trace::{OwnedSpan, PhaseProfile, PhaseStat, Tracer};
use isex_workloads::{BasicBlock, Program};

use crate::messages::{HelloAck, JobAssign, Message, MetricsReport, PROTOCOL_VERSION};
use crate::wire::{read_frame, write_frame, Frame, OpCode};

/// Tunables for one coordinator instance.
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// Bind address for the worker-facing listener (`:0` picks a port).
    pub listen_addr: String,
    /// Heartbeat interval announced to workers, milliseconds.
    pub heartbeat_ms: u64,
    /// Consecutive missed beats before a silent worker is declared dead.
    pub heartbeat_misses: u32,
    /// When set, each run saves its completed blocks as entries of the
    /// result store in this directory (the one `--store-dir` names) and
    /// resumes from them.
    pub store_dir: Option<PathBuf>,
    /// Consecutive failures (unclean disconnects, missed-heartbeat
    /// expiries, dispatch write errors) after which a worker *name* is
    /// circuit-broken: no dispatch until the cooloff elapses, then one
    /// half-open probe job decides between closing and re-opening.
    pub breaker_threshold: u32,
    /// Breaker cooloff, milliseconds. `None` = 5 × [`heartbeat_ms`]
    /// (long enough for a flapping worker to miss a sentinel cycle).
    ///
    /// [`heartbeat_ms`]: CoordinatorConfig::heartbeat_ms
    pub breaker_cooloff_ms: Option<u64>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            listen_addr: "127.0.0.1:0".to_string(),
            heartbeat_ms: 500,
            heartbeat_misses: 3,
            store_dir: None,
            breaker_threshold: 3,
            breaker_cooloff_ms: None,
        }
    }
}

impl CoordinatorConfig {
    fn breaker_cooloff(&self) -> Duration {
        Duration::from_millis(
            self.breaker_cooloff_ms
                .unwrap_or(self.heartbeat_ms.saturating_mul(5))
                .max(1),
        )
    }
}

/// Per-worker-*name* circuit breaker. Keyed by name (not connection id)
/// so a flapping worker that reconnects under the same identity keeps its
/// failure history instead of resetting it with every redial.
#[derive(Debug, Default)]
struct Breaker {
    consecutive_failures: u32,
    /// `Some(t)` = open until `t`; past `t` the breaker is *half-open*
    /// (one probe job allowed).
    open_until: Option<Instant>,
}

impl Breaker {
    /// Records one failure; returns whether this (re)opened the breaker.
    fn record_failure(&mut self, threshold: u32, cooloff: Duration, now: Instant) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.consecutive_failures >= threshold.max(1) {
            self.open_until = Some(now + cooloff);
            return true;
        }
        false
    }

    fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.open_until = None;
    }

    /// Dispatch allowed? Closed: yes. Open: no. Half-open: yes (the
    /// caller limits half-open dispatch to a single probe job).
    fn allows(&self, now: Instant) -> bool {
        self.open_until.is_none_or(|t| now >= t)
    }

    fn is_half_open(&self, now: Instant) -> bool {
        self.open_until.is_some_and(|t| now >= t)
    }
}

/// One connected worker, as the coordinator sees it. Dead workers stay in
/// the table (marked `!alive`) so their job counts survive into the run's
/// metrics.
struct Worker {
    id: u64,
    name: String,
    /// Write half; the connection's reader thread owns its own clone.
    stream: TcpStream,
    capacity: usize,
    alive: bool,
    last_beat: Instant,
    /// Job ids currently assigned to this worker.
    inflight: Vec<u64>,
    jobs_done: u64,
}

/// Federated telemetry for one worker *name* — like the breakers, keyed
/// by identity rather than connection so it survives redials, and kept
/// across runs so `/metrics` shows the cluster between explorations too.
#[derive(Default)]
struct WorkerTelemetry {
    /// Latest [`MetricsReport`] shipped on the heartbeat cadence.
    report: Option<MetricsReport>,
    /// Dispatch→result latency observed by the coordinator itself (covers
    /// wire + queue + compute, which is what a caller actually waits on).
    latency: Histogram,
}

/// Counters accumulated over one run, surfaced as `cluster.*` phase stats.
#[derive(Default)]
struct RunCounters {
    redispatched: u64,
    heartbeats_missed: u64,
    local: u64,
    breaker_trips: u64,
}

/// One unit of cluster work: repeat `repeat` of the hot block at
/// canonical index `block`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct JobKey {
    block: usize,
    repeat: usize,
}

/// The in-progress run (at most one at a time; concurrent callers queue).
struct RunState {
    key: String,
    request_json: String,
    fault_plan: Option<FaultPlan>,
    trace_id: String,
    /// The run's compute deadline. Dispatch stamps each [`JobAssign`] with
    /// the budget *remaining at dispatch time* (minus wire overhead), so
    /// re-dispatched jobs get only what is actually left.
    deadline: Option<Instant>,
    /// Jobs awaiting dispatch, block-major in repeat order.
    pending: VecDeque<JobKey>,
    /// Dispatch attempts per job.
    attempts: HashMap<JobKey, usize>,
    /// job id → dispatch-time metadata.
    inflight: HashMap<u64, InflightJob>,
    /// Job outcomes as they arrive; first completion wins.
    slots: RepeatSlots,
    /// Jobs whose outcome landed since the run loop last looked.
    arrived: Vec<JobKey>,
    /// Reduced entries keyed by block index: resumed from the store, or
    /// folded from all of the block's repeats.
    completed: BTreeMap<usize, CheckpointEntry>,
    /// Worker span batches awaiting injection into the run's tracer when
    /// the run finishes (empty on untraced runs).
    trace_chunks: Vec<PendingTrace>,
    next_job_id: u64,
    counters: RunCounters,
}

impl RunState {
    fn is_done(&self, job: JobKey) -> bool {
        self.completed.contains_key(&job.block) || self.slots.get(job.block, job.repeat).is_some()
    }

    /// Records a job's outcome for the run loop; a duplicate is dropped.
    fn accept(&mut self, job: JobKey, outcome: RepeatOutcome) -> bool {
        if self.completed.contains_key(&job.block)
            || !self.slots.fill(job.block, job.repeat, outcome)
        {
            return false;
        }
        self.arrived.push(job);
        true
    }

    /// Puts an unfinished job back in the pending queue.
    fn requeue(&mut self, job: JobKey) {
        if !self.is_done(job) && !self.pending.contains(&job) {
            self.counters.redispatched += 1;
            self.pending.push_back(job);
        }
    }
}

/// What the coordinator remembers about one dispatched job.
struct InflightJob {
    job: JobKey,
    worker_id: u64,
    /// The `job.dispatch` span this job's remote spans re-parent onto
    /// (`None` when the run is untraced).
    span_id: Option<u64>,
    /// For the dispatch→result latency histogram.
    dispatched_at: Instant,
    /// Tracer-epoch nanoseconds at dispatch — the timestamp offset that
    /// places the worker's spans (relative to *its* epoch) on the
    /// coordinator's timeline.
    dispatch_ns: u64,
}

/// One worker's span batch, parked until the run completes and the spans
/// can be merged into the request's tracer.
struct PendingTrace {
    process: String,
    parent: Option<u64>,
    offset_ns: u64,
    spans: Vec<OwnedSpan>,
    threads: Vec<(u64, String)>,
}

struct ClusterState {
    workers: Vec<Worker>,
    run: Option<RunState>,
    /// Circuit breakers by worker name; outlives connections and runs.
    breakers: HashMap<String, Breaker>,
    /// Federated per-worker telemetry by name; outlives connections and
    /// runs, like the breakers.
    telemetry: HashMap<String, WorkerTelemetry>,
}

impl ClusterState {
    fn workers_alive(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }
}

/// Can `worker` be assigned a job right now? Alive, breaker closed — or
/// half-open with nothing in flight (the single probe job).
fn dispatchable(breakers: &HashMap<String, Breaker>, worker: &Worker, now: Instant) -> bool {
    if !worker.alive {
        return false;
    }
    match breakers.get(&worker.name) {
        None => true,
        Some(b) if b.is_half_open(now) => worker.inflight.is_empty(),
        Some(b) => b.allows(now),
    }
}

/// Declares `worker` dead: severs its stream, charges its name's breaker
/// when `charge` (counting a trip on the active run if that opens it), and
/// returns its in-flight jobs to the run's pending queue.
fn drop_worker(
    worker: &mut Worker,
    run: Option<&mut RunState>,
    breakers: &mut HashMap<String, Breaker>,
    config: &CoordinatorConfig,
    charge: bool,
) {
    worker.alive = false;
    let _ = worker.stream.shutdown(Shutdown::Both);
    let opened = charge
        && breakers
            .entry(worker.name.clone())
            .or_default()
            .record_failure(
                config.breaker_threshold,
                config.breaker_cooloff(),
                Instant::now(),
            );
    let Some(run) = run else { return };
    if opened {
        run.counters.breaker_trips += 1;
    }
    for job_id in worker.inflight.drain(..) {
        if let Some(job) = run.inflight.remove(&job_id) {
            run.requeue(job.job);
        }
    }
}

struct Shared {
    config: CoordinatorConfig,
    /// The block entries of [`CoordinatorConfig::store_dir`], when set.
    checkpoints: Option<Checkpoints>,
    state: Mutex<ClusterState>,
    wake: Condvar,
    shutdown: AtomicBool,
    next_worker_id: AtomicU64,
}

/// A running coordinator. Dropping it severs every worker connection and
/// joins its threads.
pub struct Coordinator {
    shared: Arc<Shared>,
    listener: Listener,
}

impl Coordinator {
    /// Opens the store directory, if any, binds the worker-facing listener
    /// and starts accepting workers.
    pub fn start(config: CoordinatorConfig) -> std::io::Result<Coordinator> {
        let checkpoints = config
            .store_dir
            .as_deref()
            .map(Checkpoints::open)
            .transpose()?;
        let shared = Arc::new(Shared {
            config,
            checkpoints,
            state: Mutex::new(ClusterState {
                workers: Vec::new(),
                run: None,
                breakers: HashMap::new(),
                telemetry: HashMap::new(),
            }),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_worker_id: AtomicU64::new(1),
        });
        let stop_shared = Arc::clone(&shared);
        let conn_shared = Arc::clone(&shared);
        let listener = Listener::spawn(
            &shared.config.listen_addr,
            "isex-cluster",
            move || stop_shared.shutdown.load(Ordering::Acquire),
            move |stream| serve_worker_connection(stream, &conn_shared),
        )?;
        Ok(Coordinator { shared, listener })
    }

    /// The worker-facing address actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Workers currently connected and alive.
    pub fn workers_alive(&self) -> usize {
        lock_unpoisoned(&self.shared.state).workers_alive()
    }

    /// The federated cluster rollup as a JSON value, shaped for the serve
    /// tier's `/metrics` document (and, through it, the Prometheus
    /// exposition — every key is already a legal metric-name segment):
    ///
    /// ```json
    /// {
    ///   "workers_alive": 2,
    ///   "worker": {
    ///     "w0": {
    ///       "alive": 1, "breaker_open": 0,
    ///       "jobs_completed": 9, "jobs_failed": 0,
    ///       "latency_p50_ms": 21.7, "latency_p95_ms": 88.4, "latency_jobs": 9,
    ///       "phases": {"engine_job": 9, ...}
    ///     }
    ///   }
    /// }
    /// ```
    pub fn metrics_value(&self) -> serde::Value {
        use serde::Value;
        let state = lock_unpoisoned(&self.shared.state);
        let now = Instant::now();
        let mut names: Vec<&String> = state.telemetry.keys().collect();
        names.sort();
        let mut workers = Vec::new();
        for name in names {
            let t = &state.telemetry[name];
            let alive = state.workers.iter().any(|w| w.alive && &w.name == name);
            let breaker_open = state
                .breakers
                .get(name)
                .is_some_and(|b| !b.allows(now) || b.is_half_open(now));
            let mut fields = vec![
                ("alive".to_string(), Value::U64(alive as u64)),
                ("breaker_open".to_string(), Value::U64(breaker_open as u64)),
                (
                    "latency_p50_ms".to_string(),
                    Value::F64(t.latency.quantile_ms(0.50)),
                ),
                (
                    "latency_p95_ms".to_string(),
                    Value::F64(t.latency.quantile_ms(0.95)),
                ),
                ("latency_jobs".to_string(), Value::U64(t.latency.count())),
            ];
            if let Some(report) = &t.report {
                fields.push((
                    "jobs_completed".to_string(),
                    Value::U64(report.jobs_completed),
                ));
                fields.push(("jobs_failed".to_string(), Value::U64(report.jobs_failed)));
                let phases: Vec<(String, Value)> = report
                    .phase_profile
                    .0
                    .iter()
                    .map(|s| (sanitize_metric_segment(&s.name), Value::U64(s.count)))
                    .collect();
                if !phases.is_empty() {
                    fields.push(("phases".to_string(), Value::Object(phases)));
                }
            }
            workers.push((sanitize_metric_segment(name), Value::Object(fields)));
        }
        Value::Object(vec![
            (
                "workers_alive".to_string(),
                Value::U64(state.workers_alive() as u64),
            ),
            ("worker".to_string(), Value::Object(workers)),
        ])
    }

    /// Blocks until at least `n` workers are alive or `timeout` elapses;
    /// returns whether the quorum was reached. Test/CI convenience — runs
    /// themselves never require a quorum (zero workers falls back to
    /// local execution).
    pub fn wait_for_workers(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = lock_unpoisoned(&self.shared.state);
        loop {
            if state.workers_alive() >= n {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self
                .shared
                .wake
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
        }
    }

    /// Runs one exploration across the cluster and merges the result.
    ///
    /// Blocks until every hot block has exactly one reduced entry — each
    /// folded with [`entry_from_repeats`] from its repeats in repeat order
    /// — then reduces the entries with [`finish_from_entries`], the same
    /// reduce the checkpoint path uses, so the report is byte-identical to
    /// a local [`run_flow`](isex_flow::run_flow) with the same request.
    ///
    /// With a `deadline`, every [`JobAssign`] is stamped with the budget
    /// remaining at dispatch time (workers self-cancel and ship degraded
    /// partials), and `cancel` tripping finishes the run *with what it
    /// has*: each unfinished block reduces from the repeats it has, the
    /// missing ones skipped, and the report comes back `Ok` with
    /// [`FlowReport::degraded`](isex_flow::FlowReport) set — never an
    /// error.
    ///
    /// `sink` sees engine events for locally-executed jobs (fallback
    /// path) and coordinator-side `JobStart`/`JobFinish`/`JobFailed` for
    /// remote ones; engine events do not cross the wire.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        request: &ExploreRequest,
        cfg: &FlowConfig,
        program: &Program,
        sink: &dyn EventSink,
        cancel: &CancelToken,
        trace_id: &str,
        deadline: Option<Instant>,
    ) -> Result<(FlowReport, RunMetrics), Cancelled> {
        let start = Instant::now();
        let seed = request.seed;
        let key = run_key(cfg, program, seed);
        let hot = hot_blocks(cfg, program);
        let repeats = cfg.repeats.max(1);

        // Resume: pre-complete blocks the store already holds.
        let completed: BTreeMap<usize, CheckpointEntry> = match &self.shared.checkpoints {
            Some(checkpoints) => (0..hot.len())
                .filter_map(|index| Some((index, checkpoints.lookup(&key, index)?)))
                .collect(),
            None => BTreeMap::new(),
        };
        let resumed = completed.len();
        let pending: VecDeque<JobKey> = (0..hot.len())
            .filter(|b| !completed.contains_key(b))
            .flat_map(|block| (0..repeats).map(move |repeat| JobKey { block, repeat }))
            .collect();
        let run = RunState {
            key: key.clone(),
            request_json: request.to_json(),
            fault_plan: cfg.fault_plan.clone(),
            trace_id: trace_id.to_string(),
            deadline,
            pending,
            attempts: HashMap::new(),
            inflight: HashMap::new(),
            slots: RepeatSlots::new(hot.len(), repeats),
            arrived: Vec::new(),
            completed,
            trace_chunks: Vec::new(),
            next_job_id: 1,
            counters: RunCounters::default(),
        };

        let end = 'run: {
            // Install the run (serializing with any run already in
            // progress).
            let mut state = lock_unpoisoned(&self.shared.state);
            while state.run.is_some() {
                if cancel.is_cancelled() {
                    // The deadline expired before this run even got the
                    // slot: cut it with the blocks it resumed, as a
                    // deadline cuts a run mid-flight.
                    let entries = cut_entries(&hot, &key, run.completed, &run.slots);
                    break 'run RunEnd {
                        entries,
                        counters: run.counters,
                        worker_totals: Vec::new(),
                        workers_alive: state.workers_alive(),
                        trace_chunks: Vec::new(),
                    };
                }
                let (next, _) = self
                    .shared
                    .wake
                    .wait_timeout(state, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                state = next;
            }
            state.run = Some(run);
            drop(state);
            self.shared.wake.notify_all();
            self.drive(cfg, program, seed, &hot, sink, cancel)
        };
        self.shared.wake.notify_all();
        Ok(self.finish(cfg, program, seed, hot.len(), start, resumed, end))
    }

    /// Drives the installed run until every hot block has its entry, or
    /// until `cancel` trips and the run is cut, and uninstalls it.
    fn drive(
        &self,
        cfg: &FlowConfig,
        program: &Program,
        seed: u64,
        hot: &[&BasicBlock],
        sink: &dyn EventSink,
        cancel: &CancelToken,
    ) -> RunEnd {
        // The drive loop. Each pass holds the lock once: sentinel-checks
        // workers, dispatches pending jobs, slots newly arrived outcomes
        // and reduces every block whose last repeat landed; events,
        // checkpoint saves and local fallback jobs happen with the lock
        // released.
        //
        // Jobs currently out on a worker, by dispatch time: the source of
        // the coordinator-side `JobStart`/`JobFinish` events that give
        // `/v1/jobs/{id}/events` pollers progress on remote work (engine
        // events themselves never cross the wire). Local-fallback jobs are
        // absent — the engine emits their events itself.
        let mut remote_started: HashMap<JobKey, Instant> = HashMap::new();
        loop {
            if cancel.is_cancelled() {
                // Deadline: finish with what the cluster has. Reduced
                // blocks merge as-is, every other block reduces from the
                // repeats it has, and results that race in later are
                // dropped with the cleared run.
                let mut state = lock_unpoisoned(&self.shared.state);
                let run_state = state.run.as_mut().expect("run installed");
                let completed = std::mem::take(&mut run_state.completed);
                let entries = cut_entries(hot, &run_state.key, completed, &run_state.slots);
                return end_run(&mut state, entries);
            }
            let dispatched: Vec<JobKey>;
            let mut events: Vec<RunEvent> = Vec::new();
            let mut fresh: Vec<CheckpointEntry> = Vec::new();
            let mut local_job: Option<JobKey> = None;
            let mut done: Option<RunEnd> = None;
            {
                let mut state = lock_unpoisoned(&self.shared.state);
                self.expire_silent_workers(&mut state);
                dispatched = self.dispatch(&mut state, &cfg.tracer);
                let ClusterState {
                    workers,
                    run,
                    breakers,
                    ..
                } = &mut *state;
                let run_state = run.as_mut().expect("run installed above");
                for job in std::mem::take(&mut run_state.arrived) {
                    if let (Some(t0), Some(outcome)) = (
                        remote_started.remove(&job),
                        run_state.slots.get(job.block, job.repeat),
                    ) {
                        let name = &hot[job.block].name;
                        events.push(remote_finish_event(name, job, outcome, ms_since(t0), seed));
                    }
                    if run_state.completed.contains_key(&job.block) {
                        continue;
                    }
                    if let Some(outcomes) = run_state.slots.complete(job.block) {
                        let entry = entry_from_repeats(
                            &run_state.key,
                            hot[job.block],
                            job.block,
                            &outcomes,
                        );
                        fresh.push(entry.clone());
                        run_state.completed.insert(job.block, entry);
                    }
                }
                let now = Instant::now();
                if run_state.completed.len() == hot.len() {
                    let entries = std::mem::take(&mut run_state.completed)
                        .into_values()
                        .collect();
                    done = Some(end_run(&mut state, entries));
                } else if !run_state.pending.is_empty()
                    && !workers.iter().any(|w| dispatchable(breakers, w, now))
                {
                    // Cluster of zero — none connected, or every breaker
                    // open: take one job and run it here.
                    let job = run_state.pending.pop_front().expect("non-empty");
                    *run_state.attempts.entry(job).or_default() += 1;
                    local_job = Some(job);
                }
            }

            // Announce this pass's remote dispatches and completions with
            // the lock released (a sink may block on IO). A re-dispatched
            // job announces again — truthfully: it started again.
            for &job in &dispatched {
                remote_started.insert(job, Instant::now());
                sink.emit(remote_start_event(&hot[job.block].name, job, seed));
            }
            for event in events.drain(..) {
                sink.emit(event);
            }

            // Save first: an entry must be durable before anything
            // downstream of it, exactly like the single-node checkpoint. A
            // failed save costs only a re-exploration on resume.
            if let Some(checkpoints) = &self.shared.checkpoints {
                for entry in &fresh {
                    if let Err(e) = checkpoints.save(entry) {
                        eprintln!("isex-cluster: checkpoint save failed: {e}");
                    }
                }
            }
            if let Some(end) = done {
                return end;
            }

            if let Some(job) = local_job {
                // Anytime semantics: a deadline tripping mid-job comes back
                // as a degraded exploration (or a skip); the next loop pass
                // sees the cancelled token and finishes with partials.
                let outcome =
                    explore_block_repeat(cfg, program, seed, job.block, job.repeat, sink, cancel);
                let mut state = lock_unpoisoned(&self.shared.state);
                if let Some(run_state) = state.run.as_mut() {
                    run_state.counters.local += 1;
                    run_state.accept(job, outcome);
                }
                continue;
            }

            if dispatched.is_empty() && fresh.is_empty() {
                // Nothing to do until a result, a worker change, or the
                // next heartbeat deadline. A result that landed since the
                // pass released the lock is picked up at once.
                let state = lock_unpoisoned(&self.shared.state);
                if state.run.as_ref().is_some_and(|r| r.arrived.is_empty()) {
                    let tick = self.shared.config.heartbeat_ms.clamp(10, 100);
                    let _ = self
                        .shared
                        .wake
                        .wait_timeout(state, Duration::from_millis(tick))
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// The shared reduce-and-account tail: merges the workers' span
    /// batches into the request's tracer, folds entries into the report,
    /// and stamps run timing plus the `cluster.*` phase stats.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        cfg: &FlowConfig,
        program: &Program,
        seed: u64,
        hot_len: usize,
        start: Instant,
        resumed: usize,
        end: RunEnd,
    ) -> (FlowReport, RunMetrics) {
        // One multi-process Chrome trace per run. Strictly an observation:
        // the report below is computed from the entries alone.
        for chunk in end.trace_chunks {
            cfg.tracer.inject_remote(
                &chunk.process,
                chunk.parent,
                chunk.offset_ns,
                &chunk.spans,
                &chunk.threads,
            );
        }
        let explore_ms = start.elapsed().as_secs_f64() * 1e3;
        let (report, mut metrics) = finish_from_entries(cfg, program, seed, end.entries, hot_len);
        metrics.blocks_resumed = resumed;
        metrics.phases.explore_ms = explore_ms;
        metrics.phases.total_ms = start.elapsed().as_secs_f64() * 1e3;

        // Cluster telemetry rides the phase profile (`count` carries the
        // value) so it flows through existing RunMetrics consumers — the
        // Prometheus exposition included — without a schema change that
        // would orphan pre-cluster records.
        fold_cluster_stats(
            &mut metrics.phase_profile,
            &end.counters,
            &end.worker_totals,
            end.workers_alive,
        );
        (report, metrics)
    }

    /// Declares silent workers dead and requeues their in-flight jobs.
    fn expire_silent_workers(&self, state: &mut ClusterState) {
        let limit = Duration::from_millis(
            self.shared.config.heartbeat_ms * self.shared.config.heartbeat_misses.max(1) as u64,
        );
        let now = Instant::now();
        let ClusterState {
            workers,
            run,
            breakers,
            ..
        } = state;
        for worker in workers.iter_mut() {
            if worker.alive && now.duration_since(worker.last_beat) > limit {
                if let Some(run_state) = run.as_mut() {
                    run_state.counters.heartbeats_missed += 1;
                }
                drop_worker(worker, run.as_mut(), breakers, &self.shared.config, true);
            }
        }
    }

    /// Assigns pending jobs to dispatchable workers (alive, breaker
    /// closed or half-open-probing) with spare capacity, consuming
    /// transport `drop` faults at the moment of dispatch. With a run
    /// deadline, each assignment is stamped with the budget remaining *at
    /// dispatch time* minus wire overhead — so a re-dispatched job asks
    /// its new worker only for what the run can still afford.
    ///
    /// Returns the jobs actually shipped this pass, so the run loop can
    /// announce them on its event sink outside the lock.
    fn dispatch(&self, state: &mut ClusterState, tracer: &Tracer) -> Vec<JobKey> {
        let mut sent = Vec::new();
        let ClusterState {
            workers,
            run,
            breakers,
            ..
        } = state;
        let Some(run_state) = run.as_mut() else {
            return sent;
        };
        let now = Instant::now();
        let remaining_ms = run_state
            .deadline
            .map(|d| d.saturating_duration_since(now).as_millis() as u64);
        if remaining_ms.is_some_and(|ms| ms <= DISPATCH_OVERHEAD_MS) {
            // Past the deadline no job could come back in time: every
            // pending one is skipped, as the engine skips the jobs it has
            // not started when its token trips, and each block reduces
            // from the repeats already out.
            for job in std::mem::take(&mut run_state.pending) {
                run_state.accept(job, RepeatOutcome::Skipped);
            }
            return sent;
        }
        while let Some(&job) = run_state.pending.front() {
            // Least-loaded dispatchable worker, ties broken by connection
            // order.
            let Some(slot) = workers
                .iter()
                .enumerate()
                .filter(|(_, w)| dispatchable(breakers, w, now) && w.inflight.len() < w.capacity)
                .min_by_key(|(i, w)| (w.inflight.len(), *i))
                .map(|(i, _)| i)
            else {
                return sent;
            };
            run_state.pending.pop_front();
            let attempts = run_state.attempts.entry(job).or_default();
            let attempt = *attempts;
            *attempts += 1;

            let dropped = run_state
                .fault_plan
                .as_ref()
                .is_some_and(|plan| plan.drops(job.block, attempt));
            let job_id = run_state.next_job_id;
            let assign = (!dropped).then(|| {
                let budget_ms = remaining_ms.map(|ms| ms - DISPATCH_OVERHEAD_MS);
                // On traced runs the dispatch gets its own span and the
                // worker is asked to ship its spans back, re-parented under
                // this id — the cross-process link in the merged trace.
                let collect = tracer.is_enabled();
                let span_id = collect
                    .then(|| {
                        let worker_name = workers[slot].name.clone();
                        tracer.span_with("job.dispatch", move || {
                            vec![
                                ("job_id", job_id.to_string()),
                                ("block", job.block.to_string()),
                                ("repeat", job.repeat.to_string()),
                                ("worker", worker_name),
                            ]
                        })
                    })
                    .and_then(|span| span.id());
                let message = Message::Job(JobAssign {
                    job_id,
                    request: run_state.request_json.clone(),
                    fault_plan: run_state
                        .fault_plan
                        .as_ref()
                        .map(|p| p.source().to_string()),
                    block_index: job.block,
                    repeat: job.repeat,
                    attempt,
                    trace_id: run_state.trace_id.clone(),
                    budget_ms,
                    collect_spans: collect,
                    parent_span: span_id,
                });
                (message, span_id)
            });
            let worker = &mut workers[slot];
            let shipped = assign.and_then(|(message, span_id)| {
                write_frame(&mut worker.stream, &message.encode())
                    .ok()
                    .map(|()| span_id)
            });
            let Some(span_id) = shipped else {
                // An injected `drop` fault, or a failed write: sever this
                // worker's connection. Its reader thread sees EOF, and the
                // job (plus anything else it held) is re-dispatched.
                drop_worker(
                    worker,
                    Some(&mut *run_state),
                    breakers,
                    &self.shared.config,
                    true,
                );
                run_state.counters.redispatched += 1;
                run_state.pending.push_back(job);
                continue;
            };
            run_state.inflight.insert(
                job_id,
                InflightJob {
                    job,
                    worker_id: worker.id,
                    span_id,
                    dispatched_at: now,
                    dispatch_ns: tracer.elapsed_ns(),
                },
            );
            worker.inflight.push(job_id);
            run_state.next_job_id += 1;
            sent.push(job);
        }
        sent
    }

    /// Severs every worker and joins the acceptor.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let mut state = lock_unpoisoned(&self.shared.state);
            for worker in &mut state.workers {
                if worker.alive {
                    let _ = write_frame(&mut worker.stream, &Frame::control(OpCode::Goodbye));
                }
                worker.alive = false;
                let _ = worker.stream.shutdown(Shutdown::Both);
            }
        }
        self.shared.wake.notify_all();
        self.listener.join();
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Wire-and-queue overhead discounted from a job's budget at dispatch:
/// the worker must ship its partial back *before* the coordinator's own
/// deadline trips, or the best-so-far work is lost to the race.
const DISPATCH_OVERHEAD_MS: u64 = 25;

/// The entries of a run cut by its deadline: every reduced block as-is,
/// every other block reduced from the repeats it has, the missing ones
/// [`RepeatOutcome::Skipped`] — a block with none is a degraded empty
/// entry, the same shape the engine produces for a block whose every
/// repeat was skipped.
fn cut_entries(
    hot: &[&BasicBlock],
    key: &str,
    mut completed: BTreeMap<usize, CheckpointEntry>,
    slots: &RepeatSlots,
) -> Vec<CheckpointEntry> {
    for (index, block) in hot.iter().enumerate() {
        completed
            .entry(index)
            .or_insert_with(|| entry_from_repeats(key, block, index, &slots.cut(index)));
    }
    completed.into_values().collect()
}

/// Everything a finished (or cut) run hands to [`Coordinator::finish`].
struct RunEnd {
    entries: Vec<CheckpointEntry>,
    counters: RunCounters,
    worker_totals: Vec<(String, u64)>,
    workers_alive: usize,
    trace_chunks: Vec<PendingTrace>,
}

/// Uninstalls the active run, collecting its counters, per-worker job
/// totals and span batches; late results for it are dropped from here on.
fn end_run(state: &mut ClusterState, entries: Vec<CheckpointEntry>) -> RunEnd {
    let run = state.run.take().expect("run installed");
    let worker_totals = state
        .workers
        .iter()
        .filter(|w| w.jobs_done > 0)
        .map(|w| (w.name.clone(), w.jobs_done))
        .collect();
    let workers_alive = state.workers_alive();
    for w in &mut state.workers {
        w.inflight.clear();
        w.jobs_done = 0;
    }
    RunEnd {
        entries,
        counters: run.counters,
        worker_totals,
        workers_alive,
        trace_chunks: run.trace_chunks,
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// The coordinator-side `JobStart` for a job shipped to a worker, with
/// the job's real repeat and derived seed. The seq is `0` here — the
/// receiving sink stamps emission order — and the trace id is stamped by
/// the server's tagging sink.
fn remote_start_event(block: &str, job: JobKey, seed: u64) -> RunEvent {
    RunEvent::JobStart {
        block: block.to_string(),
        block_index: job.block,
        repeat: job.repeat,
        seed: ExploreJob::new(job.block, job.repeat, seed).seed,
        seq: Seq(0),
        trace: None,
    }
}

/// The coordinator-side terminal event for a remotely-completed job:
/// `JobFailed` when it panicked on the worker, otherwise `JobFinish` with
/// the exploration's own counters (zeros for a skipped job; elapsed is
/// dispatch-to-arrival wall time as the coordinator observed it).
fn remote_finish_event(
    block: &str,
    job: JobKey,
    outcome: &RepeatOutcome,
    elapsed_ms: f64,
    seed: u64,
) -> RunEvent {
    let exploration = match outcome {
        RepeatOutcome::Panicked(error) => {
            return RunEvent::JobFailed {
                block: block.to_string(),
                block_index: job.block,
                repeat: job.repeat,
                seed: ExploreJob::new(job.block, job.repeat, seed).seed,
                error: error.clone(),
                seq: Seq(0),
                trace: None,
            }
        }
        RepeatOutcome::Explored(e) => Some(e),
        RepeatOutcome::Skipped => None,
    };
    RunEvent::JobFinish {
        block: block.to_string(),
        block_index: job.block,
        repeat: job.repeat,
        baseline_cycles: exploration.map_or(0, |e| e.baseline_cycles),
        cycles: exploration.map_or(0, |e| e.cycles_with_ises),
        iterations: exploration.map_or(0, |e| e.iterations),
        candidates: exploration.map_or(0, |e| e.candidates.len()),
        elapsed_ms,
        seq: Seq(0),
        trace: None,
    }
}

/// Folds the run's `cluster.*` counters into the profile via
/// [`PhaseProfile::absorb`]: a stat whose name the profile already holds
/// (a resumed run's saved counters, or a worker's federated
/// `cluster.*` entries arriving through `finish_from_entries`) is *summed
/// into* the existing entry instead of appended as a duplicate, and the
/// profile stays name-sorted.
fn fold_cluster_stats(
    profile: &mut PhaseProfile,
    counters: &RunCounters,
    worker_totals: &[(String, u64)],
    workers_alive: usize,
) {
    let mut stats = vec![
        PhaseStat::counter("cluster.workers_alive", workers_alive as u64),
        PhaseStat::counter("cluster.jobs_redispatched", counters.redispatched),
        PhaseStat::counter("cluster.heartbeats_missed", counters.heartbeats_missed),
        PhaseStat::counter("cluster.jobs_local", counters.local),
        PhaseStat::counter("cluster.breaker_trips", counters.breaker_trips),
    ];
    for (name, jobs) in worker_totals {
        stats.push(PhaseStat::counter(
            &format!("cluster.worker.{name}.jobs"),
            *jobs,
        ));
    }
    profile.absorb(stats);
}

/// Maps an externally-supplied name (worker names arrive off the wire,
/// phase names contain dots) onto a legal metric-name segment:
/// `[a-zA-Z0-9_]+`, never empty.
fn sanitize_metric_segment(name: &str) -> String {
    let out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.is_empty() {
        "_".to_string()
    } else {
        out
    }
}

/// One worker connection: handshake, then a read loop that feeds
/// heartbeats and results into the shared state until the peer goes away.
fn serve_worker_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    // Handshake.
    let hello = match read_frame(&mut stream) {
        Ok(Some(frame)) => match Message::decode(&frame) {
            Ok(Message::Hello(h)) => h,
            _ => return,
        },
        _ => return,
    };
    if hello.version != PROTOCOL_VERSION {
        // Version skew would silently break bitwise merging; refuse loudly.
        eprintln!(
            "isex-cluster: refusing worker `{}`: protocol {} != {}",
            hello.name, hello.version, PROTOCOL_VERSION
        );
        let _ = write_frame(&mut stream, &Frame::control(OpCode::Goodbye));
        return;
    }
    let Ok(mut write_half) = stream.try_clone() else {
        return;
    };
    let _ = write_half.set_write_timeout(Some(Duration::from_secs(10)));
    let ack = Message::HelloAck(HelloAck {
        version: PROTOCOL_VERSION,
        heartbeat_ms: shared.config.heartbeat_ms,
    });
    if write_frame(&mut write_half, &ack.encode()).is_err() {
        return;
    }

    let worker_id = shared.next_worker_id.fetch_add(1, Ordering::Relaxed);
    {
        let mut state = lock_unpoisoned(&shared.state);
        state.workers.push(Worker {
            id: worker_id,
            name: hello.name.clone(),
            stream: write_half,
            capacity: hello.capacity.max(1),
            alive: true,
            last_beat: Instant::now(),
            inflight: Vec::new(),
            jobs_done: 0,
        });
    }
    shared.wake.notify_all();

    let mut clean_exit = false;
    while let Ok(Some(frame)) = read_frame(&mut stream) {
        let Ok(message) = Message::decode(&frame) else {
            break; // hostile or skewed peer: drop it
        };
        let mut state = lock_unpoisoned(&shared.state);
        let ClusterState {
            workers,
            run,
            breakers,
            telemetry,
        } = &mut *state;
        let Some(worker) = workers.iter_mut().find(|w| w.id == worker_id) else {
            break;
        };
        worker.last_beat = Instant::now();
        match message {
            Message::Heartbeat => {}
            Message::RepeatResult(result) => {
                worker.inflight.retain(|&id| id != result.job_id);
                if let Some(run_state) = run.as_mut() {
                    if let Some(inflight) = run_state.inflight.remove(&result.job_id) {
                        let job = inflight.job;
                        // Dispatch→result latency, by worker name.
                        telemetry
                            .entry(worker.name.clone())
                            .or_default()
                            .latency
                            .observe_ms(ms_since(inflight.dispatched_at));
                        // Guard the merge: the outcome must come from the
                        // connection the job was assigned to, be the
                        // installed run's (matching key), and be for the
                        // `(block, repeat)` assigned. A *degraded*
                        // exploration is a legitimate answer — the worker
                        // self-cancelled at its stamped budget and shipped
                        // its best-so-far.
                        if inflight.worker_id == worker.id
                            && result.run_key == run_state.key
                            && result.block_index == job.block
                            && result.repeat == job.repeat
                        {
                            if run_state.accept(job, result.outcome) {
                                worker.jobs_done += 1;
                            }
                            // A delivered result closes the name's breaker.
                            breakers
                                .entry(worker.name.clone())
                                .or_default()
                                .record_success();
                        } else {
                            run_state.requeue(job);
                        }
                    }
                }
            }
            Message::TraceChunk(chunk) => {
                if let Some(run_state) = run.as_mut() {
                    // Accept only spans for the active traced run, keyed
                    // through a live job assignment — late chunks for a
                    // requeued or finished job are dropped, exactly like
                    // late results.
                    if chunk.trace_id == run_state.trace_id {
                        if let Some(job) = run_state.inflight.get(&chunk.job_id) {
                            run_state.trace_chunks.push(PendingTrace {
                                process: format!("isex worker {}", chunk.worker),
                                parent: job.span_id,
                                offset_ns: job.dispatch_ns,
                                spans: chunk.spans,
                                threads: chunk.threads,
                            });
                        }
                    }
                }
            }
            Message::MetricsReport(report) => {
                let name = report.worker.clone();
                telemetry.entry(name).or_default().report = Some(report);
            }
            Message::Goodbye => {
                clean_exit = true;
                drop(state);
                break;
            }
            // A worker has no business sending these; treat as hostile.
            Message::Hello(_) | Message::HelloAck(_) | Message::Job(_) | Message::Result(_) => {
                drop(state);
                break;
            }
        }
        drop(state);
        shared.wake.notify_all();
    }

    // Connection over: whatever the worker still held goes back in the
    // queue. An *unclean* end (no Goodbye) while the worker was still
    // considered alive counts against its circuit breaker.
    let mut state = lock_unpoisoned(&shared.state);
    let ClusterState {
        workers,
        run,
        breakers,
        ..
    } = &mut *state;
    if let Some(worker) = workers.iter_mut().find(|w| w.id == worker_id) {
        let charge = worker.alive && !clean_exit && !shared.shutdown.load(Ordering::Acquire);
        drop_worker(worker, run.as_mut(), breakers, &shared.config, charge);
    }
    drop(state);
    shared.wake.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    const COOLOFF: Duration = Duration::from_millis(250);

    #[test]
    fn breaker_opens_only_at_the_threshold() {
        let now = Instant::now();
        let mut breaker = Breaker::default();
        assert!(breaker.allows(now));
        assert!(!breaker.record_failure(3, COOLOFF, now));
        assert!(!breaker.record_failure(3, COOLOFF, now));
        assert!(breaker.allows(now), "still closed below the threshold");
        assert!(
            breaker.record_failure(3, COOLOFF, now),
            "third strike opens"
        );
        assert!(!breaker.allows(now), "open: no dispatch");
        assert!(!breaker.is_half_open(now));
    }

    #[test]
    fn breaker_goes_half_open_after_the_cooloff_and_success_closes_it() {
        let now = Instant::now();
        let mut breaker = Breaker::default();
        for _ in 0..3 {
            breaker.record_failure(3, COOLOFF, now);
        }
        let later = now + COOLOFF;
        assert!(
            breaker.is_half_open(later),
            "cooloff elapsed: probe allowed"
        );
        assert!(breaker.allows(later));

        // A successful probe closes the breaker entirely.
        breaker.record_success();
        assert!(breaker.allows(later));
        assert!(!breaker.is_half_open(later));
        assert_eq!(breaker.consecutive_failures, 0);
    }

    #[test]
    fn failed_half_open_probe_reopens_for_a_full_cooloff() {
        let now = Instant::now();
        let mut breaker = Breaker::default();
        for _ in 0..3 {
            breaker.record_failure(3, COOLOFF, now);
        }
        let probe_time = now + COOLOFF;
        assert!(breaker.is_half_open(probe_time));
        // The probe fails: immediately open again, measured from *now*.
        assert!(breaker.record_failure(3, COOLOFF, probe_time));
        assert!(!breaker.allows(probe_time));
        assert!(breaker.allows(probe_time + COOLOFF));
    }

    #[test]
    fn cluster_stats_fold_into_existing_entries_without_duplicates() {
        // A profile that already carries a `cluster.jobs_local` entry —
        // the shape `finish_from_entries` hands back when worker entries
        // themselves contributed cluster counters. The old flat
        // `extend(...)` appended a duplicate name; `fold_cluster_stats`
        // must sum into it instead.
        let mut profile = PhaseProfile(vec![
            PhaseStat::counter("cluster.jobs_local", 2),
            PhaseStat::counter("store.hit", 7),
        ]);
        let counters = RunCounters {
            redispatched: 1,
            heartbeats_missed: 0,
            local: 3,
            breaker_trips: 0,
        };
        fold_cluster_stats(&mut profile, &counters, &[("w0".to_string(), 4)], 2);

        let names: Vec<&str> = profile.0.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names.iter().filter(|n| **n == "cluster.jobs_local").count(),
            1,
            "same-named entries merged, not duplicated: {names:?}"
        );
        let local = profile
            .0
            .iter()
            .find(|s| s.name == "cluster.jobs_local")
            .unwrap();
        assert_eq!(local.count, 5, "2 pre-existing + 3 from this run");
        let worker = profile
            .0
            .iter()
            .find(|s| s.name == "cluster.worker.w0.jobs")
            .unwrap();
        assert_eq!(worker.count, 4);
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "profile stays name-sorted");
    }

    #[test]
    fn metric_segments_are_sanitized() {
        assert_eq!(sanitize_metric_segment("w0"), "w0");
        assert_eq!(sanitize_metric_segment("node-3.local"), "node_3_local");
        assert_eq!(sanitize_metric_segment("flow.explore"), "flow_explore");
        assert_eq!(sanitize_metric_segment(""), "_");
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let now = Instant::now();
        let mut breaker = Breaker::default();
        breaker.record_failure(3, COOLOFF, now);
        breaker.record_failure(3, COOLOFF, now);
        breaker.record_success();
        // Two more failures don't reach the threshold after the reset.
        assert!(!breaker.record_failure(3, COOLOFF, now));
        assert!(!breaker.record_failure(3, COOLOFF, now));
        assert!(breaker.allows(now));
    }
}
