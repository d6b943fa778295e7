//! The cluster coordinator: a thin TCP driver around a pure job ledger.
//!
//! Workers dial in and announce themselves; the coordinator shards a
//! run's `(block, repeat)` jobs across them, one per [`JobAssign`]. Job
//! seeds derive from `(seed, block, repeat)` and a block's repeats reduce
//! in repeat order, so the merged report is bitwise a single-node run's
//! at any worker count, placement or failure history.
//!
//! Every decision — who gets which job, when a silent worker is dead,
//! when a breaker lets a probe through, what a deadline cuts, which
//! result wins — is taken by the `ClusterCore` of the `ledger` module.
//! This module is the only code that touches sockets, the lock and the
//! clock: each connection's reader thread turns frames into core events,
//! and the run's own thread ticks the core and does what only it can:
//! sink events, [`Checkpoints`] saves, and local jobs. When no worker can
//! take a job, every pending job runs here in one engine call on `jobs`
//! threads, so a cluster of zero runs like the single-node flow.

use std::collections::{BTreeMap, HashMap};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use isex_engine::{lock_unpoisoned, CancelToken, Cancelled, EventSink, RunMetrics};
use isex_flow::{explore_repeats, Checkpoints, FlowConfig, FlowReport, RunLedger};
use isex_serve::listener::Listener;
use isex_serve::metrics::Metric;
use isex_serve::ExploreRequest;
use isex_trace::Tracer;
use isex_workloads::Program;

use crate::ledger::{Action, ClusterCore, Counters, Dispatch, Event, RunPlan};
use crate::messages::{HelloAck, JobAssign, Message, PROTOCOL_VERSION};
use crate::telemetry::{self, WorkerTelemetry};
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

/// The installed run's I/O side: what its dispatches carry, its trace,
/// and the actions only the run's own thread can carry out.
struct RunIo {
    request_json: String,
    fault_plan: Option<String>,
    trace_id: String,
    tracer: Tracer,
    /// Each dispatched job's `job.dispatch` span id and tracer time, by
    /// job id: where its worker's spans go in the merged trace.
    dispatches: HashMap<u64, (Option<u64>, u64)>,
    /// `Emit`, `Save`, `RunLocal` and `Finish`, in the core's order.
    outbox: Vec<Action>,
}

struct State {
    core: ClusterCore,
    /// Each live connection's name and write half, by worker id; the
    /// connection's reader thread owns its own clone.
    conns: HashMap<u64, (String, TcpStream)>,
    run: Option<RunIo>,
    /// What the coordinator saw of each worker, by name; outlives
    /// connections and runs.
    telemetry: BTreeMap<String, WorkerTelemetry>,
}

impl State {
    /// Feeds `event` to the core and carries out the socket actions that
    /// follow at once; the rest queue for the run's thread. A dispatch
    /// whose write fails loses the worker, which the core hears next.
    fn feed(&mut self, event: Event, now: Duration) {
        for action in self.core.on(event, now) {
            match action {
                Action::Dispatch(d) => {
                    if !self.send(&d) {
                        let (worker, charge) = (d.worker, true);
                        self.feed(Event::Lost { worker, charge }, now);
                    }
                }
                Action::Sever { worker } => {
                    if let Some((_, stream)) = self.conns.remove(&worker) {
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                }
                action => self.run.as_mut().expect("a run").outbox.push(action),
            }
        }
    }

    /// Ships one [`JobAssign`]; on traced runs the dispatch gets its own
    /// span and the worker is asked to ship its spans back, re-parented
    /// under it — the cross-process link in the merged trace.
    fn send(&mut self, d: &Dispatch) -> bool {
        let (Some(run), Some((name, stream))) = (self.run.as_mut(), self.conns.get_mut(&d.worker))
        else {
            return false;
        };
        let (job_id, (block, repeat)) = (d.job_id, d.job);
        let collect = run.tracer.is_enabled();
        let span_id = collect
            .then(|| {
                run.tracer.span_with("job.dispatch", || {
                    vec![
                        ("job_id", job_id.to_string()),
                        ("block", block.to_string()),
                        ("repeat", repeat.to_string()),
                        ("worker", name.clone()),
                    ]
                })
            })
            .and_then(|span| span.id());
        let message = Message::Job(JobAssign {
            job_id,
            request: run.request_json.clone(),
            fault_plan: run.fault_plan.clone(),
            block_index: block,
            repeat,
            attempt: d.attempt,
            trace_id: run.trace_id.clone(),
            budget_ms: d.budget_ms,
            collect_spans: collect,
            parent_span: span_id,
        });
        if write_frame(stream, &message.encode()).is_err() {
            return false;
        }
        run.dispatches
            .insert(job_id, (span_id, run.tracer.elapsed_ns()));
        true
    }
}

struct Shared {
    config: CoordinatorConfig,
    /// The block entries of [`CoordinatorConfig::store_dir`], when set.
    checkpoints: Option<Checkpoints>,
    /// The core's time zero: it is told the time since.
    epoch: Instant,
    state: Mutex<State>,
    wake: Condvar,
    shutdown: AtomicBool,
    next_worker_id: AtomicU64,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        lock_unpoisoned(&self.state)
    }
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
            state: Mutex::new(State {
                core: ClusterCore::new(&config),
                conns: HashMap::new(),
                run: None,
                telemetry: BTreeMap::new(),
            }),
            config,
            checkpoints,
            epoch: Instant::now(),
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
        self.shared.lock().core.workers_alive()
    }

    /// The cluster rollup: the `cluster` section of the serve tier's
    /// `/metrics` tree, each leaf with its kind (every key is already a
    /// legal metric-name segment).
    pub(crate) fn metrics(&self) -> Metric {
        let state = self.shared.lock();
        telemetry::metrics(&state.core, &state.telemetry)
    }

    /// The cluster rollup as JSON:
    ///
    /// ```json
    /// {
    ///   "workers_alive": 2,
    ///   "worker": {
    ///     "w0": {
    ///       "alive": 1, "breaker_open": 0,
    ///       "latency_p50_ms": 21.7, "latency_p95_ms": 88.4, "latency_jobs": 9,
    ///       "jobs_completed": 9, "jobs_failed": 0
    ///     }
    ///   }
    /// }
    /// ```
    pub fn metrics_value(&self) -> serde::Value {
        self.metrics().to_json()
    }

    /// Blocks until at least `n` workers are alive or `timeout` elapses;
    /// returns whether the quorum was reached. Test/CI convenience — runs
    /// themselves never require a quorum (zero workers falls back to
    /// local execution).
    pub fn wait_for_workers(&self, n: usize, timeout: Duration) -> bool {
        let too_few = |state: &mut State| state.core.workers_alive() < n;
        let wake = &self.shared.wake;
        let wait = wake.wait_timeout_while(self.shared.lock(), timeout, too_few);
        let (state, _) = wait.unwrap_or_else(PoisonError::into_inner);
        state.core.workers_alive() >= n
    }

    /// Runs one exploration across the cluster and merges the result.
    ///
    /// The run's [`RunLedger`] opens, resuming the blocks the store holds,
    /// and reports as a local run's does, so the report is byte-identical
    /// to [`run_flow`](isex_flow::run_flow)'s.
    ///
    /// With a `deadline`, every [`JobAssign`] carries the budget left at
    /// dispatch, and `cancel` tripping finishes the run *with what it
    /// has*: unfinished blocks reduce from the repeats they have, and the
    /// report comes back `Ok` and [`degraded`](isex_flow::FlowReport).
    /// `sink` sees engine events for local jobs and the coordinator's own
    /// `JobStart`/`JobFinish`/`JobFailed` for remote ones.
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
        let store = self.shared.checkpoints.as_ref();
        let plan = RunPlan {
            ledger: RunLedger::open(cfg, program, request.seed, store),
            deadline: deadline.map(|d| d.saturating_duration_since(self.shared.epoch)),
            fault_plan: cfg.fault_plan.clone(),
        };
        let io = RunIo {
            request_json: request.to_json(),
            fault_plan: cfg.fault_plan.as_ref().map(|p| p.source().to_string()),
            trace_id: trace_id.to_string(),
            tracer: cfg.tracer.clone(),
            dispatches: HashMap::new(),
            outbox: Vec::new(),
        };
        let (ledger, counters) = self.drive(plan, io, cfg, program, sink, cancel);
        self.shared.wake.notify_all();
        let (report, mut metrics) = ledger.report(cfg, program, start);
        // Cluster telemetry rides the phase profile, so every RunMetrics
        // consumer sees it with no schema change; a name already there (a
        // worker's federated `cluster.*` stat) is summed into.
        metrics.phase_profile.absorb(counters.stats());
        Ok((report, metrics))
    }

    /// Installs the run once the slot is free and ticks the core until it
    /// finishes the run, carrying out this thread's actions. A `cancel`
    /// that trips while another run holds the slot cuts this one from the
    /// blocks it resumed.
    fn drive(
        &self,
        plan: RunPlan,
        io: RunIo,
        cfg: &FlowConfig,
        program: &Program,
        sink: &dyn EventSink,
        cancel: &CancelToken,
    ) -> (RunLedger, Counters) {
        let (seed, wake) = (plan.ledger.seed(), &self.shared.wake);
        let mut state = self.shared.lock();
        while state.run.is_some() {
            if cancel.is_cancelled() {
                return (plan.ledger, Counters::default());
            }
            let wait = wake.wait_timeout(state, Duration::from_millis(50));
            state = wait.unwrap_or_else(PoisonError::into_inner).0;
        }
        state.run = Some(io);
        state.feed(Event::Begin(plan), self.shared.epoch.elapsed());
        let tick = Duration::from_millis(self.shared.config.heartbeat_ms.clamp(10, 100));
        loop {
            let event = match cancel.is_cancelled() {
                true => Event::Deadline,
                false => Event::Tick,
            };
            state.feed(event, self.shared.epoch.elapsed());
            let actions = std::mem::take(&mut state.run.as_mut().expect("installed").outbox);
            if actions.is_empty() {
                // Nothing to do until a frame, a worker change, or the
                // next tick.
                let wait = wake.wait_timeout(state, tick);
                state = wait.unwrap_or_else(PoisonError::into_inner).0;
                continue;
            }
            drop(state);
            for action in actions {
                match action {
                    Action::Emit(event) => sink.emit(event),
                    // An entry is durable before anything downstream of
                    // it, as in a local checkpointed run.
                    Action::Save(entry) => {
                        if let Some(checkpoints) = &self.shared.checkpoints {
                            checkpoints.save(&entry);
                        }
                    }
                    Action::RunLocal(jobs) => {
                        let outcomes = explore_repeats(cfg, program, seed, &jobs, sink, cancel);
                        let now = self.shared.epoch.elapsed();
                        self.shared.lock().feed(Event::LocalDone(outcomes), now);
                    }
                    Action::Finish(ledger, counters) => {
                        self.shared.lock().run = None;
                        return (ledger, counters);
                    }
                    other => unreachable!("{other:?} is carried out in `feed`"),
                }
            }
            state = self.shared.lock();
        }
    }

    /// Severs every worker and joins the acceptor.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for (_, (_, mut stream)) in self.shared.lock().conns.drain() {
            let _ = write_frame(&mut stream, &Frame::control(OpCode::Goodbye));
            let _ = stream.shutdown(Shutdown::Both);
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

/// One worker connection: handshake, then a read loop that turns frames
/// into core events until the peer goes away.
fn serve_worker_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let hello = read_frame(&mut stream).map(|frame| frame.map(|f| Message::decode(&f)));
    let Ok(Some(Ok(Message::Hello(hello)))) = hello else {
        return;
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

    let worker = shared.next_worker_id.fetch_add(1, Ordering::Relaxed);
    let name = hello.name.clone();
    {
        let mut state = shared.lock();
        state.conns.insert(worker, (name.clone(), write_half));
        state.feed(Event::Joined { worker, hello }, shared.epoch.elapsed());
    }
    shared.wake.notify_all();

    let mut clean_exit = false;
    while let Ok(Some(frame)) = read_frame(&mut stream) {
        let Ok(message) = Message::decode(&frame) else {
            break; // hostile or skewed peer: drop it
        };
        let now = shared.epoch.elapsed();
        let mut state = shared.lock();
        let event = match message {
            Message::RepeatResult(result) => {
                // Counted under the name this connection's Hello announced,
                // as each result arrives.
                let since = state.core.dispatched_at(worker, result.job_id);
                let t = state.telemetry.entry(name.clone()).or_default();
                t.count(&result.outcome);
                if let Some(since) = since {
                    let latency = now.saturating_sub(since).as_secs_f64() * 1e3;
                    t.latency.observe_ms(latency);
                }
                Event::Result { worker, result }
            }
            Message::TraceChunk(chunk) => {
                // One multi-process Chrome trace per run: spans merge into
                // the run's tracer only through a live lease this
                // connection holds, in the lane of its Hello's name — late
                // chunks for a requeued or finished job are dropped, like
                // late results.
                let live = state.core.dispatched_at(worker, chunk.job_id).is_some();
                let io = state.run.as_ref().filter(|_| live);
                if let Some((io, &(parent, offset_ns))) =
                    io.and_then(|io| Some((io, io.dispatches.get(&chunk.job_id)?)))
                {
                    let process = format!("isex worker {name}");
                    let (spans, threads) = (&chunk.spans, &chunk.threads);
                    io.tracer
                        .inject_remote(&process, parent, offset_ns, spans, threads);
                }
                Event::Beat { worker }
            }
            Message::Heartbeat => Event::Beat { worker },
            Message::Goodbye => {
                clean_exit = true;
                break;
            }
            // A worker has no business sending these; treat as hostile.
            Message::Hello(_) | Message::HelloAck(_) | Message::Job(_) | Message::Result(_) => {
                break
            }
        };
        state.feed(event, now);
        drop(state);
        shared.wake.notify_all();
    }

    // Connection over: whatever the worker still held goes back in the
    // queue. An *unclean* end (no Goodbye) counts against its breaker.
    let charge = !clean_exit && !shared.shutdown.load(Ordering::Acquire);
    shared
        .lock()
        .feed(Event::Lost { worker, charge }, shared.epoch.elapsed());
    shared.wake.notify_all();
}
