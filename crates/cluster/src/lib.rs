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
//! [`RepeatOutcome`](isex_flow::RepeatOutcome). The coordinator keeps a
//! run's blocks in the [`RunLedger`](isex_flow::RunLedger) a local run
//! keeps, which reduces a block's outcomes in repeat order, so the merged
//! [`FlowReport`] is byte-identical to a single-node run. Distribution changes *where* work happens, never
//! *what* the answer is.
//!
//! Pieces:
//!
//! * [`wire`] — the frame format (`[opcode][len][payload]`), written for
//!   hostile input;
//! * [`messages`] — typed messages over those frames;
//! * [`coordinator`] — a thin TCP driver around a pure job ledger that
//!   shards, re-dispatches, reduces and resumes from the `--store-dir`
//!   store, and runs what no worker can take on its own engine pool;
//! * [`worker`] — the remote shell around
//!   [`explore_repeats`](isex_flow::explore_repeats);
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
mod ledger;
pub mod messages;
mod telemetry;
pub mod wire;
pub mod worker;

use std::sync::Arc;

use isex_engine::{EventSink, Flags, RunMetrics};
use isex_flow::{FlowConfig, FlowReport};
use isex_serve::metrics::Metric;
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
}

impl ExploreRunner for ClusterRunner {
    fn run_explore(
        &self,
        job: &isex_serve::jobs::Job,
        cfg: &FlowConfig,
        program: &Program,
        sink: &dyn EventSink,
    ) -> (FlowReport, RunMetrics) {
        // The job's deadline (stamped by the HTTP layer from the request's
        // `timeout_ms`) propagates into per-assignment worker budgets, so
        // a deadline-pressed run degrades to partials instead of timing
        // out.
        let run = self.coordinator.run(
            &job.request,
            cfg,
            program,
            sink,
            &job.cancel,
            &job.trace_id,
            job.deadline(),
        );
        run.expect("a cut cluster run answers its best-so-far partial, never Err")
    }

    /// A coordinator with zero live workers still *answers* (local
    /// fallback), but it is not what the operator deployed a cluster for:
    /// `GET /readyz` reports unready so load balancers hold traffic until
    /// at least one worker has registered.
    fn ready(&self) -> bool {
        self.coordinator.workers_alive() > 0
    }

    /// The cluster rollup: `workers_alive` and per-worker liveness,
    /// breaker state, job latency quantiles and job and failure counts,
    /// all taken from what the workers' results bring back — one
    /// `cluster` section in `GET /metrics`, JSON and Prometheus alike.
    fn metrics_sections(&self) -> Vec<(&'static str, Metric)> {
        vec![("cluster", self.coordinator.metrics())]
    }
}

/// Splits `isexd-coordinator`'s flags: the cluster flags into a
/// [`CoordinatorConfig`], everything else, in order, into the standard
/// `isexd` [`ServerConfig`](isex_serve::ServerConfig). The coordinator
/// saves its block entries in the server's `--store-dir`.
fn coordinator_config(
    args: &[String],
) -> Result<(CoordinatorConfig, isex_serve::ServerConfig), String> {
    let mut cluster = CoordinatorConfig {
        listen_addr: "127.0.0.1:8473".to_string(),
        ..CoordinatorConfig::default()
    };
    let mut rest = Vec::new();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_arg() {
        match flag {
            "--cluster-addr" => cluster.listen_addr = flags.value(flag)?,
            "--heartbeat-ms" => cluster.heartbeat_ms = flags.parse(flag)?,
            "--heartbeat-misses" => cluster.heartbeat_misses = flags.parse(flag)?,
            "--breaker-threshold" => cluster.breaker_threshold = flags.parse(flag)?,
            "--breaker-cooloff-ms" => cluster.breaker_cooloff_ms = Some(flags.parse(flag)?),
            // Pass-through flags and their values land here one token at a
            // time, preserving order for the server's own parser.
            other => rest.push(other.to_string()),
        }
    }
    let server = isex_serve::ServerConfig::from_args(&rest)?;
    cluster.store_dir = server.store_dir.clone();
    Ok((cluster, server))
}

/// The `isexd-coordinator` entry point: an `isexd` server whose explores
/// run on the cluster. Cluster flags (`--cluster-addr`, `--heartbeat-ms`,
/// `--heartbeat-misses`, `--breaker-threshold`, `--breaker-cooloff-ms`)
/// are consumed here; everything else is the standard `isexd` flag set.
pub fn coordinator_main(args: &[String]) -> Result<(), String> {
    let (cluster, server_config) = coordinator_config(args)?;
    let coordinator =
        Arc::new(Coordinator::start(cluster).map_err(|e| format!("cluster listener: {e}"))?);
    eprintln!(
        "isexd-coordinator: workers connect to {}",
        coordinator.addr()
    );
    let runner = Arc::new(ClusterRunner::new(coordinator));
    let handle = isex_serve::start_with_runner(server_config, runner).map_err(|e| e.to_string())?;
    isex_serve::serve_until_shutdown(handle, "isexd-coordinator");
    Ok(())
}

/// Reads `isexd-worker`'s flags into a [`WorkerConfig`].
fn worker_config(args: &[String]) -> Result<WorkerConfig, String> {
    let mut config = WorkerConfig::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_arg() {
        match flag {
            "--connect" => config.connect = flags.value(flag)?,
            "--name" => config.name = flags.value(flag)?,
            "--capacity" => config.capacity = flags.parse(flag)?,
            "--die-after-jobs" => config.die_at_job = Some(flags.parse(flag)?),
            "--no-reconnect" => config.reconnect = false,
            "--retry-ms" => config.retry_ms = flags.parse(flag)?,
            "--dial-attempts" => config.max_dial_attempts = flags.parse(flag)?,
            other => {
                return Err(format!(
                    "unknown flag `{other}` (valid: --connect, --name, --capacity, \
                     --die-after-jobs, --no-reconnect, --retry-ms, --dial-attempts)"
                ))
            }
        }
    }
    Ok(config)
}

/// The `isexd-worker` entry point.
pub fn worker_main(args: &[String]) -> Result<(), String> {
    let config = worker_config(args)?;
    eprintln!("isexd-worker `{}` dialling {}", config.name, config.connect);
    run_worker(&config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn every_daemon_flag_parses_and_errors_keep_their_text() {
        // Every cluster flag, with every isexd flag passed through.
        let (cluster, server) = coordinator_config(&args(
            "--cluster-addr 10.0.0.1:1 --addr 10.0.0.1:2 --heartbeat-ms 7 --workers 3 \
             --heartbeat-misses 4 --queue-cap 5 --cache-cap 6 \
             --breaker-threshold 8 --timeout-ms 9 --breaker-cooloff-ms 10 \
             --read-timeout-ms 11 --write-timeout-ms 12 --fault-plan panic:1/4 \
             --trace-dir /t --trace-keep 13 --store-dir /s --store-max-bytes 14 \
             --jobs-keep 15",
        ))
        .unwrap();
        assert_eq!(cluster.listen_addr, "10.0.0.1:1");
        assert_eq!((cluster.heartbeat_ms, cluster.heartbeat_misses), (7, 4));
        assert_eq!(cluster.store_dir, Some("/s".into()));
        assert_eq!(cluster.breaker_threshold, 8);
        assert_eq!(cluster.breaker_cooloff_ms, Some(10));
        assert_eq!(server.addr, "10.0.0.1:2");
        assert_eq!(
            (
                server.engine_workers,
                server.queue_capacity,
                server.cache_capacity,
                server.default_timeout_ms,
                server.read_timeout_ms,
                server.write_timeout_ms,
            ),
            (3, 5, 6, 9, 11, 12)
        );
        assert_eq!(server.fault_plan.unwrap().source(), "panic:1/4");
        assert_eq!(server.trace_dir, Some("/t".into()));
        assert_eq!(server.trace_keep, 13);
        assert_eq!(server.store_dir, Some("/s".into()));
        assert_eq!((server.store_max_bytes, server.jobs_keep), (14, 15));

        let worker = worker_config(&args(
            "--connect 10.0.0.1:3 --name w9 --capacity 2 \
             --die-after-jobs 5 --no-reconnect --retry-ms 6 --dial-attempts 7",
        ))
        .unwrap();
        assert_eq!(
            (worker.connect.as_str(), worker.name.as_str()),
            ("10.0.0.1:3", "w9")
        );
        assert_eq!(worker.capacity, 2);
        assert_eq!(worker.die_at_job, Some(5));
        assert!(!worker.reconnect);
        assert_eq!((worker.retry_ms, worker.max_dial_attempts), (6, 7));

        let coordinator_err = |line: &str| coordinator_config(&args(line)).err().unwrap();
        let worker_err = |line: &str| worker_config(&args(line)).err().unwrap();
        assert_eq!(
            coordinator_err("--heartbeat-ms"),
            "--heartbeat-ms needs a value"
        );
        assert_eq!(
            coordinator_err("--breaker-threshold x"),
            "bad --breaker-threshold"
        );
        assert_eq!(coordinator_err("--addr"), "--addr needs a value");
        assert_eq!(coordinator_err("--workers two"), "bad --workers");
        assert_eq!(
            coordinator_err("--bogus"),
            "unknown flag `--bogus` (valid: --addr, --workers, --queue-cap, --cache-cap, \
             --timeout-ms, --read-timeout-ms, --write-timeout-ms, --fault-plan, --trace-dir, \
             --trace-keep, --store-dir, --store-max-bytes, --jobs-keep)"
        );
        assert_eq!(worker_err("--capacity"), "--capacity needs a value");
        assert_eq!(worker_err("--retry-ms soon"), "bad --retry-ms");
        assert_eq!(
            worker_err("--bogus"),
            "unknown flag `--bogus` (valid: --connect, --name, --capacity, \
             --die-after-jobs, --no-reconnect, --retry-ms, --dial-attempts)"
        );
        // Workers write no trace files: their spans reach the coordinator's
        // merged trace only.
        assert_eq!(
            worker_err("--trace-dir x"),
            "unknown flag `--trace-dir` (valid: --connect, --name, --capacity, \
             --die-after-jobs, --no-reconnect, --retry-ms, --dial-attempts)"
        );
    }
}
