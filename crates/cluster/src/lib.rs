//! `isex-cluster` — distributed ISE exploration.
//!
//! A coordinator shards the deterministic `(block, repeat)` job space of
//! one exploration across remote worker nodes over a compact
//! length-prefixed binary protocol (std TCP only), merges their results,
//! and survives node death via heartbeat sentinels plus job re-dispatch.
//!
//! The subsystem leans entirely on the engine's determinism contract:
//! every job's seed derives from its block's *canonical* index and its
//! repeat, so a repeat explored on any node — or re-dispatched after its
//! first node died — yields bitwise the same
//! [`RepeatOutcome`](isex_flow::RepeatOutcome). The coordinator reduces a
//! block's outcomes in repeat order with
//! [`entry_from_repeats`](isex_flow::entry_from_repeats), the reduction a
//! local run uses, so the merged [`FlowReport`] is byte-identical to a
//! single-node run. Distribution changes *where* work happens, never
//! *what* the answer is.
//!
//! Pieces:
//!
//! * [`wire`] — the frame format (`[opcode][len][payload]`), written for
//!   hostile input;
//! * [`messages`] — typed messages over those frames;
//! * [`coordinator`] — per-job sharding, heartbeat sentinel,
//!   re-dispatch, repeat-order reduction, checkpoint-journal reuse,
//!   zero-worker local fallback;
//! * [`worker`] — the remote shell around
//!   [`explore_block_repeat`](isex_flow::explore_block_repeat);
//! * [`ClusterRunner`] — plugs the coordinator into the `isexd` HTTP
//!   server ([`isex_serve::start_with_runner`]) so `POST /v1/explore`
//!   transparently scales out.
//!
//! # Quickstart
//!
//! ```text
//! isexd-coordinator --addr 127.0.0.1:8173 --cluster-addr 127.0.0.1:8473
//! isexd-worker --connect 127.0.0.1:8473 --name w0
//! isexd-worker --connect 127.0.0.1:8473 --name w1
//! curl -s -X POST http://127.0.0.1:8173/v1/explore -d '{"bench":"crc32"}'
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod messages;
pub mod wire;
pub mod worker;

use std::sync::Arc;

use isex_engine::{Cancelled, EventSink, RunMetrics};
use isex_flow::{FlowConfig, FlowReport};
use isex_serve::ExploreRunner;
use isex_workloads::Program;

pub use coordinator::{Coordinator, CoordinatorConfig};
pub use messages::{
    Hello, HelloAck, JobAssign, JobResult, Message, RepeatResult, PROTOCOL_VERSION,
};
pub use wire::{Frame, OpCode, WireError, MAX_FRAME_BYTES};
pub use worker::{run_worker, WorkerConfig};

/// An [`ExploreRunner`] that executes each dequeued `/v1/explore` job
/// across the cluster instead of in-process.
///
/// The HTTP surface, queue, cache and deadline machinery of `isexd` are
/// untouched: determinism makes a clustered run indistinguishable from a
/// local one in its result, so the server cannot tell (and need not care)
/// where the jobs actually ran.
pub struct ClusterRunner {
    coordinator: Arc<Coordinator>,
}

impl ClusterRunner {
    /// A runner fronting `coordinator`.
    pub fn new(coordinator: Arc<Coordinator>) -> ClusterRunner {
        ClusterRunner { coordinator }
    }

    /// The fronted coordinator (tests reach counters through this).
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.coordinator
    }
}

impl ExploreRunner for ClusterRunner {
    fn run_explore(
        &self,
        job: &isex_serve::queue::Job,
        cfg: &FlowConfig,
        program: &Program,
        sink: &dyn EventSink,
    ) -> Result<(FlowReport, RunMetrics), Cancelled> {
        // The job's deadline (stamped by the HTTP layer from the request's
        // `timeout_ms`) propagates into per-assignment worker budgets, so
        // a deadline-pressed run degrades to partials instead of timing
        // out.
        self.coordinator.run(
            &job.request,
            cfg,
            program,
            sink,
            &job.cancel,
            &job.trace_id,
            job.deadline(),
        )
    }

    /// A coordinator with zero live workers still *answers* (local
    /// fallback), but it is not what the operator deployed a cluster for:
    /// `GET /readyz` reports unready so load balancers hold traffic until
    /// at least one worker has registered.
    fn ready(&self) -> bool {
        self.coordinator.workers_alive() > 0
    }

    /// The federated cluster rollup: `workers_alive` and per-worker
    /// liveness, breaker state, job latency quantiles and
    /// heartbeat-reported counters — one `cluster` section in
    /// `GET /metrics`, JSON and Prometheus alike.
    fn metrics_sections(&self) -> Vec<(String, serde::Value)> {
        vec![("cluster".to_string(), self.coordinator.metrics_value())]
    }
}

fn need(args: &[String], i: usize, flag: &str) -> Result<String, String> {
    args.get(i + 1)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// The `isexd-coordinator` entry point: an `isexd` server whose explores
/// run on the cluster. Cluster flags (`--cluster-addr`, `--heartbeat-ms`,
/// `--heartbeat-misses`, `--journal-dir`, `--breaker-threshold`,
/// `--breaker-cooloff-ms`) are consumed here; everything else is the
/// standard `isexd` flag set.
pub fn coordinator_main(args: &[String]) -> Result<(), String> {
    let mut cluster = CoordinatorConfig {
        listen_addr: "127.0.0.1:8473".to_string(),
        ..CoordinatorConfig::default()
    };
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cluster-addr" => {
                cluster.listen_addr = need(args, i, "--cluster-addr")?;
                i += 1;
            }
            "--heartbeat-ms" => {
                cluster.heartbeat_ms = need(args, i, "--heartbeat-ms")?
                    .parse()
                    .map_err(|_| "bad --heartbeat-ms")?;
                i += 1;
            }
            "--heartbeat-misses" => {
                cluster.heartbeat_misses = need(args, i, "--heartbeat-misses")?
                    .parse()
                    .map_err(|_| "bad --heartbeat-misses")?;
                i += 1;
            }
            "--journal-dir" => {
                cluster.journal_dir = Some(need(args, i, "--journal-dir")?.into());
                i += 1;
            }
            "--breaker-threshold" => {
                cluster.breaker_threshold = need(args, i, "--breaker-threshold")?
                    .parse()
                    .map_err(|_| "bad --breaker-threshold")?;
                i += 1;
            }
            "--breaker-cooloff-ms" => {
                cluster.breaker_cooloff_ms = Some(
                    need(args, i, "--breaker-cooloff-ms")?
                        .parse()
                        .map_err(|_| "bad --breaker-cooloff-ms")?,
                );
                i += 1;
            }
            // Pass-through flags and their values land here one token at a
            // time, preserving order for the server's own parser.
            other => rest.push(other.to_string()),
        }
        i += 1;
    }
    let server_config = isex_serve::ServerConfig::from_args(&rest)?;

    let coordinator =
        Arc::new(Coordinator::start(cluster).map_err(|e| format!("cluster listener: {e}"))?);
    eprintln!(
        "isexd-coordinator: workers connect to {}",
        coordinator.addr()
    );
    let runner = Arc::new(ClusterRunner::new(coordinator));
    let handle = isex_serve::start_with_runner(server_config, runner).map_err(|e| e.to_string())?;
    eprintln!("isexd-coordinator listening on http://{}", handle.addr());
    isex_serve::signal::install();
    while !isex_serve::signal::shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("isexd-coordinator: draining and shutting down");
    handle.shutdown();
    Ok(())
}

/// The `isexd-worker` entry point.
pub fn worker_main(args: &[String]) -> Result<(), String> {
    let mut config = WorkerConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--connect" => {
                config.connect = need(args, i, "--connect")?;
                i += 1;
            }
            "--name" => {
                config.name = need(args, i, "--name")?;
                i += 1;
            }
            "--capacity" => {
                config.capacity = need(args, i, "--capacity")?
                    .parse()
                    .map_err(|_| "bad --capacity")?;
                i += 1;
            }
            "--trace-dir" => {
                config.trace_dir = Some(need(args, i, "--trace-dir")?.into());
                i += 1;
            }
            "--die-after-jobs" => {
                config.die_at_job = Some(
                    need(args, i, "--die-after-jobs")?
                        .parse()
                        .map_err(|_| "bad --die-after-jobs")?,
                );
                i += 1;
            }
            "--no-reconnect" => config.reconnect = false,
            "--retry-ms" => {
                config.retry_ms = need(args, i, "--retry-ms")?
                    .parse()
                    .map_err(|_| "bad --retry-ms")?;
                i += 1;
            }
            "--dial-attempts" => {
                config.max_dial_attempts = need(args, i, "--dial-attempts")?
                    .parse()
                    .map_err(|_| "bad --dial-attempts")?;
                i += 1;
            }
            other => {
                return Err(format!(
                    "unknown flag `{other}` (valid: --connect, --name, --capacity, \
                     --trace-dir, --die-after-jobs, --no-reconnect, --retry-ms, \
                     --dial-attempts)"
                ))
            }
        }
        i += 1;
    }
    eprintln!("isexd-worker `{}` dialling {}", config.name, config.connect);
    run_worker(&config)
}
