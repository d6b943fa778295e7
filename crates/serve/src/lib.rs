//! `isexd` — the ISE exploration service.
//!
//! Turns the deterministic engine of `isex-engine` + `isex-flow` into a
//! serving subsystem: a std-only HTTP/1.1 JSON API where a request names a
//! benchmark, machine model and effort, and the answer is the flow's
//! [`FlowReport`](isex_flow::FlowReport) plus
//! [`RunMetrics`](isex_engine::RunMetrics).
//!
//! * `POST /v1/explore` — run (or re-serve) an exploration synchronously;
//! * `POST /v1/jobs` — submit the same exploration asynchronously: `202`
//!   `{job_id}` immediately, with `GET /v1/jobs/{id}` for status/result
//!   and `GET /v1/jobs/{id}/wait?timeout_ms=` to long-poll ([`jobs`]);
//! * `GET /v1/jobs/{id}/events?from_seq=N&timeout_ms=T` — page the job's
//!   live run-event stream from a bounded per-job ring ([`events`]):
//!   contiguous `seq`s, evictions reported as a `dropped` count, and
//!   `closed: true` once the job reaches any terminal state;
//! * `GET /healthz` — liveness (the process is up: always `200`);
//! * `GET /readyz` — readiness (`503` while shutting down, while the
//!   queue is saturated, or while the runner has no workers to execute
//!   on);
//! * `GET /metrics` — queue depth, in-flight jobs, cache hit rate,
//!   latency histograms (with p50/p95/p99), cumulative engine telemetry
//!   and per-phase span aggregates; `?format=prometheus` renders the same
//!   document in Prometheus text exposition format.
//!
//! Every request carries an `X-Isex-Trace-Id` (client-supplied or minted)
//! echoed in the response; with `--trace-dir` each explore run is traced
//! and written as a Chrome-trace JSON + event JSONL pair named by that ID
//! (see [`trace`]).
//!
//! The serving core is a few small mechanisms, behind one shared
//! [`listener`] (the coordinator accepts its workers through it too):
//!
//! * a **bounded job queue** ([`queue`]) feeding an engine worker pool,
//!   with `503` + `Retry-After` backpressure when full;
//! * a **result cache** ([`cache`]) keyed by the canonical request — sound
//!   because engine runs are bitwise deterministic, so an exact key match
//!   *is* the answer — optionally backed by a persistent on-disk store
//!   (`--store-dir`, the `isex-store` crate) that survives restarts and is
//!   shared by replicas pointing at one directory;
//! * a **job table** ([`jobs`]) that coalesces identical in-flight
//!   explorations into one engine run with N waiters and gives every
//!   admitted exploration an ID for the async endpoints;
//! * **cooperative deadlines with anytime results** — a budgeted run gets
//!   its deadline minus a grace window; a deadline timer trips the run's
//!   [`CancelToken`](isex_engine::CancelToken) at that budget and the
//!   engine hands back its best-so-far partial, served as `200` with
//!   `"degraded": true` inside the still-open HTTP deadline (`504` remains
//!   the fallback when the engine overruns the grace window). Degraded
//!   results are barred from every cache tier. Deadline-aware **admission
//!   control** sheds requests (`503` + `Retry-After`) whose whole budget
//!   would be eaten by the estimated queue wait.
//!
//! No external dependencies: everything is `std::net` + `std::thread` +
//! the workspace's vendored serde stand-ins.
//!
//! # Quickstart
//!
//! ```no_run
//! let mut config = isex_serve::ServerConfig::default();
//! config.addr = "127.0.0.1:0".to_string(); // pick a free port
//! let handle = isex_serve::start(config).unwrap();
//! println!("listening on {}", handle.addr());
//! handle.shutdown();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod events;
pub mod http;
pub mod jobs;
pub mod listener;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod signal;
pub mod trace;

pub use protocol::{ExploreRequest, ExploreResponse};
pub use server::{
    run, run_from_args, serve_until_shutdown, start, start_with_runner, ExploreRunner, LocalRunner,
    ServerConfig, ServerHandle,
};
