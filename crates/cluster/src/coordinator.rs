//! The cluster coordinator: deterministic job sharding, heartbeat
//! sentinels, and re-dispatch.
//!
//! Workers dial in over TCP and announce themselves
//! ([`Hello`](crate::messages::Hello)); the
//! coordinator shards a run's hot-block job space across them, one
//! canonical block index per [`JobAssign`]. Because every job seed derives
//! from the block's canonical index — not from which node runs it or in
//! what order — the merged result is bitwise identical to a single-node
//! run at any worker count, placement, or failure history.
//!
//! # Liveness and re-dispatch
//!
//! Workers heartbeat every [`CoordinatorConfig::heartbeat_ms`]. A worker
//! whose connection drops, or that goes silent for
//! `heartbeat_ms × heartbeat_misses`, is declared dead and its in-flight
//! blocks return to the pending queue for re-dispatch. If *every* worker
//! is dead, the coordinator explores pending blocks locally — a cluster
//! of zero degrades to the single-node flow, it never hangs.
//!
//! # Exactly-once completion
//!
//! Re-dispatch can race a slow worker against its replacement, so a block
//! may finish twice; the first [`JobResult`](crate::messages::JobResult)
//! wins and later duplicates
//! are dropped (identical by determinism, so "first" is not a choice that
//! shows in the output). With a journal directory configured, completed
//! entries are appended to the PR-3 checkpoint journal as they arrive —
//! a crashed coordinator resumes from it and re-explores only the rest.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use isex_engine::{CancelToken, Cancelled, EventSink, FaultPlan, RunMetrics};
use isex_flow::{
    explore_block_entry, finish_from_entries, hot_blocks, load_journal, run_key, CheckpointEntry,
    FlowConfig, FlowReport,
};
use isex_serve::ExploreRequest;
use isex_trace::{OwnedSpan, PhaseProfile, PhaseStat, Tracer};
use isex_workloads::Program;

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
    /// When set, each run appends completed blocks to a checkpoint journal
    /// here (named by a hash of the run key) and resumes from it.
    pub journal_dir: Option<PathBuf>,
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
            journal_dir: None,
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

/// Latency bucket upper bounds, milliseconds. Log-spaced: job latency
/// spans sub-millisecond cache-hot blocks to multi-second deep explores.
const LATENCY_BUCKETS_MS: [u64; 11] = [1, 2, 5, 10, 25, 50, 100, 250, 1000, 2500, 10_000];

/// A fixed-bucket latency histogram (dispatch → result, per worker).
/// Quantiles are read as the upper bound of the covering bucket — coarse,
/// but allocation-free and monotone, which is all a federation rollup
/// needs.
#[derive(Clone, Debug, Default)]
struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS_MS.len() + 1],
    total: u64,
}

impl LatencyHistogram {
    fn observe(&mut self, ms: u64) {
        let slot = LATENCY_BUCKETS_MS
            .iter()
            .position(|&bound| ms <= bound)
            .unwrap_or(LATENCY_BUCKETS_MS.len());
        self.counts[slot] += 1;
        self.total += 1;
    }

    /// Upper bound of the bucket containing quantile `q` (0 when empty;
    /// the overflow bucket reports the largest finite bound).
    fn quantile_ms(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (slot, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return LATENCY_BUCKETS_MS
                    .get(slot)
                    .copied()
                    .unwrap_or(LATENCY_BUCKETS_MS[LATENCY_BUCKETS_MS.len() - 1]);
            }
        }
        LATENCY_BUCKETS_MS[LATENCY_BUCKETS_MS.len() - 1]
    }
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
    latency: LatencyHistogram,
}

/// Counters accumulated over one run, surfaced as `cluster.*` phase stats.
#[derive(Default)]
struct RunCounters {
    redispatched: u64,
    heartbeats_missed: u64,
    local: u64,
    breaker_trips: u64,
}

/// The in-progress run (at most one at a time; concurrent callers queue).
struct RunState {
    key: String,
    request_json: String,
    fault_plan: Option<FaultPlan>,
    trace_id: String,
    /// The run's compute deadline. Dispatch stamps each [`JobAssign`] with
    /// the budget *remaining at dispatch time* (minus wire overhead), so
    /// re-dispatched blocks get only what is actually left.
    deadline: Option<Instant>,
    pending: VecDeque<usize>,
    /// Dispatch attempts per block (indexes the hot list).
    attempts: Vec<usize>,
    /// job id → dispatch-time metadata.
    inflight: HashMap<u64, InflightJob>,
    /// Completed entries keyed by block index; first completion wins.
    completed: BTreeMap<usize, CheckpointEntry>,
    /// Worker span batches awaiting injection into the run's tracer when
    /// the run finishes (empty on untraced runs).
    trace_chunks: Vec<PendingTrace>,
    next_job_id: u64,
    counters: RunCounters,
}

/// What the coordinator remembers about one dispatched job.
struct InflightJob {
    block: usize,
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

/// Records a worker failure on its name's breaker, counting a trip on the
/// active run when the breaker (re)opens.
fn breaker_failure(
    breakers: &mut HashMap<String, Breaker>,
    run: &mut Option<RunState>,
    name: &str,
    threshold: u32,
    cooloff: Duration,
) {
    let opened = breakers
        .entry(name.to_string())
        .or_default()
        .record_failure(threshold, cooloff, Instant::now());
    if opened {
        if let Some(run_state) = run.as_mut() {
            run_state.counters.breaker_trips += 1;
        }
    }
}

struct Shared {
    config: CoordinatorConfig,
    state: Mutex<ClusterState>,
    wake: Condvar,
    shutdown: AtomicBool,
    next_worker_id: AtomicU64,
}

fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running coordinator. Dropping it severs every worker connection and
/// joins its threads.
pub struct Coordinator {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl Coordinator {
    /// Binds the worker-facing listener and starts accepting workers.
    pub fn start(config: CoordinatorConfig) -> std::io::Result<Coordinator> {
        let listener = TcpListener::bind(&config.listen_addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
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
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("isex-cluster-accept".to_string())
            .spawn(move || accept_loop(listener, acceptor_shared))
            .expect("spawn cluster acceptor");
        Ok(Coordinator {
            shared,
            local_addr,
            acceptor: Some(acceptor),
        })
    }

    /// The worker-facing address actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Workers currently connected and alive.
    pub fn workers_alive(&self) -> usize {
        lock_unpoisoned(&self.shared.state)
            .workers
            .iter()
            .filter(|w| w.alive)
            .count()
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
    ///       "latency_p50_ms": 25, "latency_p95_ms": 100, "latency_jobs": 9,
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
                    Value::U64(t.latency.quantile_ms(0.50)),
                ),
                (
                    "latency_p95_ms".to_string(),
                    Value::U64(t.latency.quantile_ms(0.95)),
                ),
                ("latency_jobs".to_string(), Value::U64(t.latency.total)),
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
                Value::U64(state.workers.iter().filter(|w| w.alive).count() as u64),
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
            if state.workers.iter().filter(|w| w.alive).count() >= n {
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
    /// Blocks until every hot block has exactly one completed entry, then
    /// reduces them with [`finish_from_entries`] — the same reduce the
    /// checkpoint path uses, so the report is byte-identical to a local
    /// [`run_flow`](isex_flow::run_flow) with the same request.
    ///
    /// With a `deadline`, every [`JobAssign`] is stamped with the budget
    /// remaining at dispatch time (workers self-cancel and ship degraded
    /// partials), and `cancel` tripping finishes the run *with what it
    /// has*: completed entries merge as-is, unfinished blocks become
    /// degraded empty entries, and the report comes back `Ok` with
    /// [`FlowReport::degraded`](isex_flow::FlowReport) set — never an
    /// error.
    ///
    /// `sink` only observes locally-executed blocks (fallback path);
    /// engine events do not cross the wire.
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
        let key = run_key(cfg, program, request.seed);
        let hot_names: Vec<String> = hot_blocks(cfg, program)
            .iter()
            .map(|b| b.name.clone())
            .collect();
        let hot_len = hot_names.len();

        // Resume: pre-complete blocks the journal already holds.
        let journal_path = self
            .shared
            .config
            .journal_dir
            .as_ref()
            .map(|dir| dir.join(format!("run-{:016x}.jsonl", fnv1a(&key))));
        let mut resumed_entries = Vec::new();
        if let Some(path) = &journal_path {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            match load_journal(path, &key) {
                Ok(entries) => resumed_entries = entries,
                Err(e) => eprintln!("isex-cluster: journal {} unreadable: {e}", path.display()),
            }
        }
        let mut journal = journal_path.as_ref().and_then(|path| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| eprintln!("isex-cluster: journal {} unwritable: {e}", path.display()))
                .ok()
        });

        // Install the run (serializing with any run already in progress).
        let resumed;
        {
            let mut state = lock_unpoisoned(&self.shared.state);
            while state.run.is_some() {
                if cancel.is_cancelled() {
                    // The deadline expired before this run even got the
                    // slot: answer with an all-degraded empty report
                    // rather than an error — same anytime contract as a
                    // run cut mid-flight.
                    let alive = state.workers.iter().filter(|w| w.alive).count();
                    drop(state);
                    let entries = fill_missing_degraded(BTreeMap::new(), &hot_names, &key);
                    return Ok(self.finish(
                        cfg,
                        program,
                        request.seed,
                        entries,
                        hot_len,
                        start,
                        0,
                        RunCounters::default(),
                        Vec::new(),
                        alive,
                    ));
                }
                let (next, _) = self
                    .shared
                    .wake
                    .wait_timeout(state, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                state = next;
            }
            let mut completed = BTreeMap::new();
            for entry in resumed_entries {
                if entry.block_index < hot_len {
                    completed.entry(entry.block_index).or_insert(entry);
                }
            }
            resumed = completed.len();
            let pending: VecDeque<usize> = (0..hot_len)
                .filter(|b| !completed.contains_key(b))
                .collect();
            state.run = Some(RunState {
                key: key.clone(),
                request_json: request.to_json(),
                fault_plan: cfg.fault_plan.clone(),
                trace_id: trace_id.to_string(),
                deadline,
                pending,
                attempts: vec![0; hot_len],
                inflight: HashMap::new(),
                completed,
                trace_chunks: Vec::new(),
                next_job_id: 1,
                counters: RunCounters::default(),
            });
        }
        self.shared.wake.notify_all();

        // The drive loop. Each pass holds the lock once: sentinel-checks
        // workers, dispatches pending blocks, and drains newly completed
        // entries for journaling; journal appends and local fallback
        // exploration happen with the lock released.
        let mut journaled: Vec<usize> = Vec::new();
        // Blocks currently out on a worker, by dispatch time: the source
        // of the coordinator-side `JobStart`/`JobFinish` events that give
        // `/v1/jobs/{id}/events` pollers progress on remote work (engine
        // events themselves never cross the wire). Local-fallback blocks
        // are absent — `explore_block_entry` emits its own engine events.
        let mut remote_started: HashMap<usize, Instant> = HashMap::new();
        let (entries, counters, worker_totals, workers_alive, last_fresh, trace_chunks) = loop {
            if cancel.is_cancelled() {
                // Deadline: finish with what the cluster has. Completed
                // entries merge as-is, everything still pending or in
                // flight becomes a degraded empty entry, and results that
                // race in later are dropped with the cleared run.
                let mut state = lock_unpoisoned(&self.shared.state);
                let ClusterState { workers, run, .. } = &mut *state;
                let run_state = run.as_mut().expect("run installed above");
                let completed = std::mem::take(&mut run_state.completed);
                let counters = std::mem::take(&mut run_state.counters);
                let chunks = std::mem::take(&mut run_state.trace_chunks);
                let totals: Vec<(String, u64)> = workers
                    .iter()
                    .filter(|w| w.jobs_done > 0)
                    .map(|w| (w.name.clone(), w.jobs_done))
                    .collect();
                let alive = workers.iter().filter(|w| w.alive).count();
                for w in workers.iter_mut() {
                    w.inflight.clear();
                    w.jobs_done = 0;
                }
                *run = None;
                drop(state);
                let entries = fill_missing_degraded(completed, &hot_names, &key);
                break (entries, counters, totals, alive, Vec::new(), chunks);
            }
            let mut fresh: Vec<CheckpointEntry> = Vec::new();
            let mut local_block: Option<usize> = None;
            let dispatched: Vec<usize>;
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
                for (&block, entry) in &run_state.completed {
                    if !journaled.contains(&block) {
                        journaled.push(block);
                        fresh.push(entry.clone());
                    }
                }
                if run_state.completed.len() == hot_len {
                    let entries: Vec<CheckpointEntry> =
                        run_state.completed.values().cloned().collect();
                    let counters = std::mem::take(&mut run_state.counters);
                    let chunks = std::mem::take(&mut run_state.trace_chunks);
                    let totals: Vec<(String, u64)> = workers
                        .iter()
                        .filter(|w| w.jobs_done > 0)
                        .map(|w| (w.name.clone(), w.jobs_done))
                        .collect();
                    let alive = workers.iter().filter(|w| w.alive).count();
                    for w in workers.iter_mut() {
                        w.inflight.clear();
                        w.jobs_done = 0;
                    }
                    *run = None;
                    // Entries drained *this* pass haven't been journaled
                    // yet — hand them out with the break.
                    break (
                        entries,
                        counters,
                        totals,
                        alive,
                        std::mem::take(&mut fresh),
                        chunks,
                    );
                }
                let now = Instant::now();
                if !run_state.pending.is_empty()
                    && !workers.iter().any(|w| dispatchable(breakers, w, now))
                {
                    // Cluster of zero — none connected, or every breaker
                    // open: take one block and run it here.
                    let block = run_state.pending.pop_front().expect("non-empty");
                    run_state.attempts[block] += 1;
                    local_block = Some(block);
                }
            }

            // Announce this pass's remote dispatches and completions with
            // the lock released (a sink may block on IO). A re-dispatched
            // block announces again — truthfully: it started again.
            for &block in &dispatched {
                remote_started.insert(block, Instant::now());
                sink.emit(remote_start_event(&hot_names[block], block, request.seed));
            }
            for entry in &fresh {
                if let Some(t0) = remote_started.remove(&entry.block_index) {
                    sink.emit(remote_finish_event(entry, ms_since(t0), request.seed));
                }
            }

            // Journal first: an entry must be durable before anything
            // downstream of it, exactly like the single-node journal.
            // Degraded partials never touch the journal — a resumed run
            // must recompute the block canonically, not inherit the cut.
            if let Some(file) = &mut journal {
                for entry in fresh.iter().filter(|e| !e.degraded) {
                    if let Err(e) = append_entry(file, entry) {
                        eprintln!("isex-cluster: journal append failed: {e}");
                        journal = None;
                        break;
                    }
                }
            }

            if let Some(block) = local_block {
                // Anytime semantics: a deadline tripping mid-block comes
                // back as an `Ok` degraded entry; the next loop pass sees
                // the cancelled token and finishes with partials.
                let entry =
                    match explore_block_entry(cfg, program, request.seed, block, sink, cancel) {
                        Ok(entry) => entry,
                        Err(Cancelled) => {
                            self.abandon_run();
                            return Err(Cancelled);
                        }
                    };
                let mut state = lock_unpoisoned(&self.shared.state);
                if let Some(run_state) = state.run.as_mut() {
                    run_state.counters.local += 1;
                    run_state.completed.entry(block).or_insert(entry);
                }
                drop(state);
                self.shared.wake.notify_all();
                continue;
            }

            if fresh.is_empty() {
                // Nothing to do until a result, a worker change, or the
                // next heartbeat deadline.
                let state = lock_unpoisoned(&self.shared.state);
                let tick = self.shared.config.heartbeat_ms.clamp(10, 100);
                let _ = self
                    .shared
                    .wake
                    .wait_timeout(state, Duration::from_millis(tick))
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        self.shared.wake.notify_all();
        for entry in &last_fresh {
            if let Some(t0) = remote_started.remove(&entry.block_index) {
                sink.emit(remote_finish_event(entry, ms_since(t0), request.seed));
            }
        }
        if let Some(file) = &mut journal {
            for entry in last_fresh.iter().filter(|e| !e.degraded) {
                if let Err(e) = append_entry(file, entry) {
                    eprintln!("isex-cluster: journal append failed: {e}");
                    break;
                }
            }
        }

        // Merge the workers' span batches into the request's tracer so the
        // run exports as ONE multi-process Chrome trace. Strictly an
        // observation: the report below is computed from `entries` alone.
        for chunk in trace_chunks {
            cfg.tracer.inject_remote(
                &chunk.process,
                chunk.parent,
                chunk.offset_ns,
                &chunk.spans,
                &chunk.threads,
            );
        }

        Ok(self.finish(
            cfg,
            program,
            request.seed,
            entries,
            hot_len,
            start,
            resumed,
            counters,
            worker_totals,
            workers_alive,
        ))
    }

    /// The shared reduce-and-account tail: folds entries into the report
    /// and stamps run timing plus the `cluster.*` phase stats.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        cfg: &FlowConfig,
        program: &Program,
        seed: u64,
        entries: Vec<CheckpointEntry>,
        hot_len: usize,
        start: Instant,
        resumed: usize,
        counters: RunCounters,
        worker_totals: Vec<(String, u64)>,
        workers_alive: usize,
    ) -> (FlowReport, RunMetrics) {
        let explore_ms = start.elapsed().as_secs_f64() * 1e3;
        let (report, mut metrics) = finish_from_entries(cfg, program, seed, entries, hot_len);
        metrics.blocks_resumed = resumed;
        metrics.phases.explore_ms = explore_ms;
        metrics.phases.total_ms = start.elapsed().as_secs_f64() * 1e3;

        // Cluster telemetry rides the phase profile (`count` carries the
        // value) so it flows through existing RunMetrics consumers — the
        // Prometheus exposition included — without a schema change that
        // would orphan pre-cluster records.
        fold_cluster_stats(
            &mut metrics.phase_profile,
            &counters,
            &worker_totals,
            workers_alive,
        );
        (report, metrics)
    }

    /// Declares silent workers dead and requeues their in-flight blocks.
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
                worker.alive = false;
                let _ = worker.stream.shutdown(Shutdown::Both);
                breaker_failure(
                    breakers,
                    run,
                    &worker.name,
                    self.shared.config.breaker_threshold,
                    self.shared.config.breaker_cooloff(),
                );
                if let Some(run_state) = run.as_mut() {
                    run_state.counters.heartbeats_missed += 1;
                    requeue_worker_inflight(run_state, worker);
                }
            }
        }
    }

    /// Assigns pending blocks to dispatchable workers (alive, breaker
    /// closed or half-open-probing) with spare capacity, consuming
    /// transport `drop` faults at the moment of dispatch. With a run
    /// deadline, each assignment is stamped with the budget remaining *at
    /// dispatch time* minus wire overhead — so a re-dispatched block asks
    /// its new worker only for what the run can still afford.
    ///
    /// Returns the block indices actually shipped this pass, so the run
    /// loop can announce them on its event sink outside the lock.
    fn dispatch(&self, state: &mut ClusterState, tracer: &Tracer) -> Vec<usize> {
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
        while let Some(&block) = run_state.pending.front() {
            let now = Instant::now();
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
            let attempt = run_state.attempts[block];
            run_state.attempts[block] += 1;

            let dropped = run_state
                .fault_plan
                .as_ref()
                .is_some_and(|plan| plan.drops(block, attempt));
            if dropped {
                // Injected network fault: sever this worker's connection
                // instead of sending. Its reader thread sees EOF and the
                // block (plus anything else it held) is re-dispatched.
                let worker = &mut workers[slot];
                worker.alive = false;
                let _ = worker.stream.shutdown(Shutdown::Both);
                run_state.counters.redispatched += 1;
                requeue_worker_inflight(run_state, worker);
                run_state.pending.push_back(block);
                if breakers
                    .entry(worker.name.clone())
                    .or_default()
                    .record_failure(
                        self.shared.config.breaker_threshold,
                        self.shared.config.breaker_cooloff(),
                        now,
                    )
                {
                    run_state.counters.breaker_trips += 1;
                }
                continue;
            }

            let budget_ms = run_state.deadline.map(|d| {
                let remaining = d.saturating_duration_since(now).as_millis() as u64;
                remaining.saturating_sub(DISPATCH_OVERHEAD_MS).max(1)
            });
            // On traced runs the dispatch gets its own span and the worker
            // is asked to ship its spans back, re-parented under this id —
            // the cross-process link in the merged trace.
            let collect = tracer.is_enabled();
            let span = collect.then(|| {
                let worker_name = workers[slot].name.clone();
                let job_id = run_state.next_job_id;
                tracer.span_with("job.dispatch", move || {
                    vec![
                        ("job_id", job_id.to_string()),
                        ("block", block.to_string()),
                        ("worker", worker_name),
                    ]
                })
            });
            let span_id = span.as_ref().and_then(|s| s.id());
            let assign = Message::Job(JobAssign {
                job_id: run_state.next_job_id,
                request: run_state.request_json.clone(),
                fault_plan: run_state
                    .fault_plan
                    .as_ref()
                    .map(|p| p.source().to_string()),
                block_index: block,
                attempt,
                trace_id: run_state.trace_id.clone(),
                budget_ms,
                collect_spans: collect,
                parent_span: span_id,
            });
            let worker = &mut workers[slot];
            if write_frame(&mut worker.stream, &assign.encode()).is_err() {
                worker.alive = false;
                let _ = worker.stream.shutdown(Shutdown::Both);
                run_state.counters.redispatched += 1;
                requeue_worker_inflight(run_state, worker);
                run_state.pending.push_back(block);
                if breakers
                    .entry(worker.name.clone())
                    .or_default()
                    .record_failure(
                        self.shared.config.breaker_threshold,
                        self.shared.config.breaker_cooloff(),
                        now,
                    )
                {
                    run_state.counters.breaker_trips += 1;
                }
                continue;
            }
            run_state.inflight.insert(
                run_state.next_job_id,
                InflightJob {
                    block,
                    worker_id: worker.id,
                    span_id,
                    dispatched_at: now,
                    dispatch_ns: tracer.elapsed_ns(),
                },
            );
            worker.inflight.push(run_state.next_job_id);
            run_state.next_job_id += 1;
            sent.push(block);
        }
        sent
    }

    /// Clears the active run (cancellation path).
    fn abandon_run(&self) {
        let mut state = lock_unpoisoned(&self.shared.state);
        state.run = None;
        for worker in &mut state.workers {
            worker.inflight.clear();
            worker.jobs_done = 0;
        }
        drop(state);
        self.shared.wake.notify_all();
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
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
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

/// Pads `completed` out to one entry per hot block, synthesizing a
/// degraded empty entry (zero rounds, no patterns) for each block the
/// deadline cut before any result arrived — the same shape the engine
/// produces for a block whose every repeat was skipped.
fn fill_missing_degraded(
    completed: BTreeMap<usize, CheckpointEntry>,
    hot_names: &[String],
    key: &str,
) -> Vec<CheckpointEntry> {
    let mut entries: Vec<CheckpointEntry> = completed.into_values().collect();
    for (index, name) in hot_names.iter().enumerate() {
        if entries.iter().any(|e| e.block_index == index) {
            continue;
        }
        entries.push(CheckpointEntry {
            run_key: key.to_string(),
            block_index: index,
            block: name.clone(),
            iterations: 0,
            jobs_completed: 0,
            jobs_failed: 0,
            worker_restarts: 0,
            spread: None,
            patterns: Vec::new(),
            error: None,
            degraded: true,
            rounds_completed: Some(0),
        });
    }
    entries
}

fn stat(name: &str, count: u64) -> PhaseStat {
    PhaseStat {
        name: name.to_string(),
        count,
        total_ms: 0.0,
        max_ms: 0.0,
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// The coordinator-side `JobStart` for a block shipped to a worker. The
/// seq is `0` here — the receiving sink stamps emission order — and the
/// trace id is stamped by the server's tagging sink; `repeat` is `0`
/// because a cluster job covers a whole block entry, every repeat.
fn remote_start_event(block: &str, block_index: usize, seed: u64) -> isex_engine::RunEvent {
    isex_engine::RunEvent::JobStart {
        block: block.to_string(),
        block_index,
        repeat: 0,
        seed,
        seq: isex_engine::Seq(0),
        trace: None,
    }
}

/// The coordinator-side terminal event for a remotely-completed block
/// entry: `JobFinish` with the entry's own spread and counters (elapsed
/// is dispatch-to-merge wall time as the coordinator observed it), or
/// `JobFailed` when every repeat of the block panicked on the worker.
fn remote_finish_event(
    entry: &CheckpointEntry,
    elapsed_ms: f64,
    seed: u64,
) -> isex_engine::RunEvent {
    if entry.spread.is_none() {
        if let Some(error) = &entry.error {
            return isex_engine::RunEvent::JobFailed {
                block: entry.block.clone(),
                block_index: entry.block_index,
                repeat: 0,
                seed,
                error: error.clone(),
                seq: isex_engine::Seq(0),
                trace: None,
            };
        }
    }
    isex_engine::RunEvent::JobFinish {
        block: entry.block.clone(),
        block_index: entry.block_index,
        repeat: 0,
        baseline_cycles: entry.spread.as_ref().map_or(0, |s| s.baseline_cycles),
        cycles: entry.spread.as_ref().map_or(0, |s| s.best_cycles),
        iterations: entry.iterations,
        candidates: entry.patterns.len(),
        elapsed_ms,
        seq: isex_engine::Seq(0),
        trace: None,
    }
}

/// Folds the run's `cluster.*` counters into the profile via
/// [`PhaseProfile::absorb`]: a stat whose name the profile already holds
/// (a resumed run's journaled counters, or a worker's federated
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
        stat("cluster.workers_alive", workers_alive as u64),
        stat("cluster.jobs_redispatched", counters.redispatched),
        stat("cluster.heartbeats_missed", counters.heartbeats_missed),
        stat("cluster.jobs_local", counters.local),
        stat("cluster.breaker_trips", counters.breaker_trips),
    ];
    for (name, jobs) in worker_totals {
        stats.push(stat(&format!("cluster.worker.{name}.jobs"), *jobs));
    }
    profile.absorb(stats);
}

/// Returns a dead worker's in-flight blocks to the pending queue.
fn requeue_worker_inflight(run: &mut RunState, worker: &mut Worker) {
    for job_id in worker.inflight.drain(..) {
        if let Some(job) = run.inflight.remove(&job_id) {
            if !run.completed.contains_key(&job.block) && !run.pending.contains(&job.block) {
                run.counters.redispatched += 1;
                run.pending.push_back(job.block);
            }
        }
    }
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

/// FNV-1a, for stable journal file names derived from the run key.
fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in s.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Appends one journal entry with the same flush-and-fsync discipline as
/// the single-node checkpoint path.
fn append_entry(file: &mut std::fs::File, entry: &CheckpointEntry) -> std::io::Result<()> {
    let line = serde_json::to_string(entry).expect("entry serializes");
    file.write_all(line.as_bytes())?;
    file.write_all(b"\n")?;
    file.flush()?;
    file.sync_data()
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("isex-cluster-reader".to_string())
                    .spawn(move || serve_worker_connection(stream, &shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
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
            Message::Result(result) => {
                worker.inflight.retain(|&id| id != result.job_id);
                if let Some(run_state) = run.as_mut() {
                    if let Some(job) = run_state.inflight.remove(&result.job_id) {
                        let block = job.block;
                        // Dispatch→result latency, by worker name.
                        telemetry
                            .entry(worker.name.clone())
                            .or_default()
                            .latency
                            .observe(
                                job.dispatched_at
                                    .elapsed()
                                    .as_millis()
                                    .min(u64::MAX as u128) as u64,
                            );
                        // Guard the merge: the entry must come from the
                        // connection the job was assigned to, be the
                        // installed run's (matching key), and be for the
                        // block assigned. A *degraded* entry is a
                        // legitimate answer — the worker self-cancelled at
                        // its stamped budget and shipped its best-so-far.
                        if job.worker_id == worker.id
                            && result.entry.run_key == run_state.key
                            && result.entry.block_index == block
                        {
                            worker.jobs_done += 1;
                            run_state.completed.entry(block).or_insert(result.entry);
                            // A delivered result closes the name's breaker.
                            breakers
                                .entry(worker.name.clone())
                                .or_default()
                                .record_success();
                        } else if !run_state.completed.contains_key(&block)
                            && !run_state.pending.contains(&block)
                        {
                            run_state.counters.redispatched += 1;
                            run_state.pending.push_back(block);
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
            Message::Hello(_) | Message::HelloAck(_) | Message::Job(_) => {
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
        let was_alive = worker.alive;
        worker.alive = false;
        let _ = worker.stream.shutdown(Shutdown::Both);
        if was_alive && !clean_exit && !shared.shutdown.load(Ordering::Acquire) {
            breaker_failure(
                breakers,
                run,
                &worker.name.clone(),
                shared.config.breaker_threshold,
                shared.config.breaker_cooloff(),
            );
        }
        if let Some(run_state) = run.as_mut() {
            requeue_worker_inflight(run_state, worker);
        }
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
            PhaseStat {
                name: "cluster.jobs_local".to_string(),
                count: 2,
                total_ms: 0.0,
                max_ms: 0.0,
            },
            PhaseStat {
                name: "store.hit".to_string(),
                count: 7,
                total_ms: 0.0,
                max_ms: 0.0,
            },
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
    fn latency_histogram_quantiles_are_bucket_upper_bounds() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile_ms(0.5), 0, "empty histogram reads 0");
        for ms in [1, 1, 3, 8, 40, 90, 20_000] {
            h.observe(ms);
        }
        assert_eq!(h.total, 7);
        assert_eq!(h.quantile_ms(0.5), 10, "4th of 7 lands in the ≤10 bucket");
        assert_eq!(h.quantile_ms(0.95), 10_000, "overflow reports last bound");
        assert_eq!(h.quantile_ms(0.0), 1);
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
