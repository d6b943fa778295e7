//! Typed cluster messages and their mapping onto wire frames.
//!
//! Each [`OpCode`] with a payload carries one serde struct as JSON. The
//! JSON-in-binary-framing split is deliberate: framing needs to be cheap
//! and hostile-input-safe (see [`wire`](crate::wire)), while the payloads
//! reuse the workspace's existing serde types. A [`RepeatResult`] carries
//! one repeat's [`RepeatOutcome`] — for a completed repeat, the
//! exploration itself, whose `f64` candidate areas round-trip bit-exactly
//! through JSON — so the coordinator's best-of-N tie-break compares
//! exactly what a local run would.

use isex_flow::{CheckpointEntry, RepeatOutcome};
use isex_trace::{OwnedSpan, PhaseProfile};
use serde::{Deserialize, Serialize};

use crate::wire::{Frame, OpCode, WireError};

/// The cluster protocol version. A worker and coordinator must agree
/// exactly: results are merged bitwise, so "close enough" versions are
/// exactly the bug this check refuses. Version 3 makes one
/// `(block, repeat)` the unit of work: a [`JobAssign`] names a repeat and
/// a [`RepeatResult`] answers it. Every session carries [`TraceChunk`] and
/// [`MetricsReport`] frames; there is no capability negotiation.
pub const PROTOCOL_VERSION: u32 = 3;

/// Worker → coordinator: first frame on a connection.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    /// Must equal [`PROTOCOL_VERSION`].
    pub version: u32,
    /// Worker name (diagnostics, per-worker counters, trace file names).
    pub name: String,
    /// `(block, repeat)` jobs the worker will hold in flight at once (≥ 1).
    pub capacity: usize,
}

/// Coordinator → worker: accepts the [`Hello`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HelloAck {
    /// Coordinator's [`PROTOCOL_VERSION`].
    pub version: u32,
    /// Interval at which the worker must send [`OpCode::Heartbeat`].
    pub heartbeat_ms: u64,
}

/// Coordinator → worker: explore one repeat of one block of one run.
///
/// A job is fully described by the run's request plus a canonical block
/// index and a repeat — any node resolving the same `(request,
/// fault_plan)` computes the same hot list, and the job's seed derives
/// from `(seed, block_index, repeat)` alone, so the pair is a complete,
/// placement-independent unit of work.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobAssign {
    /// Coordinator-unique id; echoed in the matching [`RepeatResult`].
    pub job_id: u64,
    /// The run's `/v1/explore` request as its client JSON (see
    /// [`ExploreRequest::to_json`](isex_serve::ExploreRequest::to_json)).
    pub request: String,
    /// Engine fault-plan source to apply, if the run has one (the `drop`
    /// kind is transport-only and is consumed by the coordinator instead).
    pub fault_plan: Option<String>,
    /// Canonical index of the block in the run's hot list.
    pub block_index: usize,
    /// Which of the block's repeats to explore (0-based).
    pub repeat: usize,
    /// Dispatch attempt for this `(block, repeat)` job, 0-based
    /// (re-dispatches increment).
    pub attempt: usize,
    /// The originating request's trace id, stamped on the worker's spans
    /// and trace files.
    pub trace_id: String,
    /// Compute budget for this job, milliseconds, already discounted for
    /// wire and queue overhead by the coordinator. The worker arms a timer
    /// that trips its run's [`CancelToken`](isex_engine::CancelToken) at
    /// the budget, so the result comes back as a *degraded best-so-far
    /// partial* instead of the job overrunning the run's deadline.
    /// `None` = unbudgeted (explore to completion).
    pub budget_ms: Option<u64>,
    /// Asks the worker to collect spans for this job and ship them back as
    /// [`TraceChunk`] frames; set when the originating request is traced.
    pub collect_spans: bool,
    /// The coordinator-side `job.dispatch` span id — the *remote parent*
    /// the worker's root span is re-attached under when its spans are
    /// merged into the request's trace. `None` when the run is untraced.
    pub parent_span: Option<u64>,
}

/// Worker → coordinator: one finished `(block, repeat)` job.
///
/// The coordinator slots the outcome by `(block_index, repeat)` and, once
/// all of a block's repeats are in, reduces them in repeat order — never
/// in arrival order — to the block's journal entry.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RepeatResult {
    /// The id from the [`JobAssign`] this answers.
    pub job_id: u64,
    /// The reporting worker's name.
    pub worker: String,
    /// The run's [`run_key`](isex_flow::run_key); a result for another run
    /// is refused.
    pub run_key: String,
    /// The assigned block's canonical index.
    pub block_index: usize,
    /// The assigned repeat.
    pub repeat: usize,
    /// What the repeat produced: an exploration (degraded when its budget
    /// cut it), a caught panic's payload, or a skip.
    pub outcome: RepeatOutcome,
}

/// A whole block's [`CheckpointEntry`] as one frame.
///
/// No protocol-3 session sends it: a coordinator drops the worker that
/// does. It stays because the benchmark's layer harness (`perfbench`,
/// `cluster.frame_roundtrip_us`) times its encode and decode; the next
/// change to the benchmark moves that metric to [`RepeatResult`] and
/// deletes this message.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// A job id.
    pub job_id: u64,
    /// The reporting worker's name.
    pub worker: String,
    /// A block's journal entry.
    pub entry: CheckpointEntry,
}

/// Upper bound on spans per [`TraceChunk`] frame. A span serializes to a
/// few hundred bytes, so this keeps every chunk far under
/// [`MAX_FRAME_BYTES`](crate::wire::MAX_FRAME_BYTES) while still shipping
/// a whole job's profile in one or two frames.
pub const TRACE_CHUNK_SPANS: usize = 2048;

/// Worker → coordinator: a bounded batch of closed spans for one job,
/// sent *before* the job's [`RepeatResult`] on the same connection so the
/// coordinator holds the full span set by the time the run can complete.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceChunk {
    /// The [`JobAssign::job_id`] these spans belong to.
    pub job_id: u64,
    /// The shipping worker's name (becomes the Chrome `process_name`).
    pub worker: String,
    /// The originating request's trace id ([`JobAssign::trace_id`]) —
    /// chunks for a trace the coordinator is no longer running are
    /// dropped, not merged.
    pub trace_id: String,
    /// At most [`TRACE_CHUNK_SPANS`] spans, ids local to the worker's
    /// per-job tracer (the coordinator remaps them on merge).
    pub spans: Vec<OwnedSpan>,
    /// `(tid, thread name)` pairs for the shipped spans' threads.
    pub threads: Vec<(u64, String)>,
}

/// Worker → coordinator: cumulative worker-process telemetry, sent on the
/// heartbeat cadence. All counters are monotonic totals since worker
/// start — the coordinator keeps the latest report per worker, so a lost
/// frame only delays freshness.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// The reporting worker's name.
    pub worker: String,
    /// `(block, repeat)` jobs the worker finished (including degraded
    /// partials and caught panics).
    pub jobs_completed: u64,
    /// Jobs whose repeat panicked.
    pub jobs_failed: u64,
    /// The worker's cumulative per-phase span aggregate (merged across
    /// jobs with [`PhaseProfile::absorb`], so it never grows unboundedly).
    pub phase_profile: PhaseProfile,
}

/// A decoded cluster message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// See [`Hello`].
    Hello(Hello),
    /// See [`HelloAck`].
    HelloAck(HelloAck),
    /// See [`JobAssign`].
    Job(JobAssign),
    /// See [`JobResult`]; never sent on a protocol-3 session.
    Result(JobResult),
    /// See [`RepeatResult`].
    RepeatResult(RepeatResult),
    /// Liveness beacon.
    Heartbeat,
    /// Orderly close.
    Goodbye,
    /// See [`TraceChunk`].
    TraceChunk(TraceChunk),
    /// See [`MetricsReport`].
    MetricsReport(MetricsReport),
}

fn json_frame<T: Serialize>(opcode: OpCode, value: &T) -> Frame {
    Frame {
        opcode,
        payload: serde_json::to_string(value)
            .expect("cluster message serializes")
            .into_bytes(),
    }
}

fn decode_json<'a, T: Deserialize<'a>>(frame: &'a Frame) -> Result<T, WireError> {
    let text = std::str::from_utf8(&frame.payload)
        .map_err(|_| WireError::Malformed("payload is not UTF-8".to_string()))?;
    serde_json::from_str(text).map_err(|e| WireError::Malformed(e.to_string()))
}

impl Message {
    /// Encodes the message as its wire frame.
    pub fn encode(&self) -> Frame {
        match self {
            Message::Hello(m) => json_frame(OpCode::Hello, m),
            Message::HelloAck(m) => json_frame(OpCode::HelloAck, m),
            Message::Job(m) => json_frame(OpCode::Job, m),
            Message::Result(m) => json_frame(OpCode::Result, m),
            Message::RepeatResult(m) => json_frame(OpCode::RepeatResult, m),
            Message::Heartbeat => Frame::control(OpCode::Heartbeat),
            Message::Goodbye => Frame::control(OpCode::Goodbye),
            Message::TraceChunk(m) => json_frame(OpCode::TraceChunk, m),
            Message::MetricsReport(m) => json_frame(OpCode::MetricsReport, m),
        }
    }

    /// Decodes a frame into its typed message. Fails (never panics) on
    /// payloads that are not the opcode's JSON shape — the bytes came off
    /// the network and are untrusted.
    pub fn decode(frame: &Frame) -> Result<Message, WireError> {
        Ok(match frame.opcode {
            OpCode::Hello => Message::Hello(decode_json(frame)?),
            OpCode::HelloAck => Message::HelloAck(decode_json(frame)?),
            OpCode::Job => Message::Job(decode_json(frame)?),
            OpCode::Result => Message::Result(decode_json(frame)?),
            OpCode::RepeatResult => Message::RepeatResult(decode_json(frame)?),
            OpCode::Heartbeat => Message::Heartbeat,
            OpCode::Goodbye => Message::Goodbye,
            OpCode::TraceChunk => Message::TraceChunk(decode_json(frame)?),
            OpCode::MetricsReport => Message::MetricsReport(decode_json(frame)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_messages_round_trip() {
        let messages = vec![
            Message::Hello(Hello {
                version: PROTOCOL_VERSION,
                name: "w0".to_string(),
                capacity: 2,
            }),
            Message::HelloAck(HelloAck {
                version: PROTOCOL_VERSION,
                heartbeat_ms: 250,
            }),
            Message::Job(JobAssign {
                job_id: 7,
                request: r#"{"bench":"crc32"}"#.to_string(),
                fault_plan: Some("panic:1/8".to_string()),
                block_index: 3,
                repeat: 2,
                attempt: 1,
                trace_id: "tr-abc".to_string(),
                budget_ms: Some(1_500),
                collect_spans: true,
                parent_span: Some(42),
            }),
            Message::TraceChunk(TraceChunk {
                job_id: 7,
                worker: "w0".to_string(),
                trace_id: "tr-abc".to_string(),
                spans: vec![isex_trace::OwnedSpan {
                    id: 1,
                    parent: None,
                    name: "worker.block".to_string(),
                    start_ns: 10,
                    dur_ns: 90,
                    tid: 1,
                    args: vec![("block".to_string(), "crc32_loop".to_string())],
                }],
                threads: vec![(1, "session".to_string())],
            }),
            Message::MetricsReport(MetricsReport {
                worker: "w0".to_string(),
                jobs_completed: 3,
                jobs_failed: 1,
                phase_profile: PhaseProfile(vec![isex_trace::PhaseStat {
                    name: "aco.construct".to_string(),
                    count: 9,
                    total_ms: 4.5,
                    max_ms: 1.25,
                }]),
            }),
            Message::Heartbeat,
            Message::Goodbye,
        ];
        for m in messages {
            let back = Message::decode(&m.encode()).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn result_entry_survives_the_wire_bitwise() {
        let entry = CheckpointEntry {
            run_key: "k".to_string(),
            block_index: 2,
            block: "crc32_loop".to_string(),
            iterations: 30,
            jobs_completed: 2,
            jobs_failed: 0,
            worker_restarts: 0,
            spread: None,
            patterns: Vec::new(),
            error: None,
            degraded: false,
            rounds_completed: None,
        };
        let m = Message::Result(JobResult {
            job_id: 9,
            worker: "w1".to_string(),
            entry: entry.clone(),
        });
        match Message::decode(&m.encode()).unwrap() {
            Message::Result(r) => assert_eq!(
                serde_json::to_string(&r.entry).unwrap(),
                serde_json::to_string(&entry).unwrap()
            ),
            other => panic!("expected Result, got {other:?}"),
        }
    }

    #[test]
    fn exploration_areas_survive_the_wire_bit_exactly() {
        // The coordinator's tie-break compares `total_area()`, so every
        // candidate area must come back with the same bits — including
        // values with no short decimal form, whole numbers (which print
        // without a fraction), and the extremes of the positive range.
        let areas = [
            0.1 + 0.2,
            1.0 / 3.0,
            123_456.789_012_345_6,
            4096.0,
            0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            1e-300,
            2f64.powi(60) + 2048.0,
        ];
        let candidates = areas
            .iter()
            .enumerate()
            .map(|(i, &area_um2)| isex_core::IseCandidate {
                nodes: isex_dfg::NodeSet::new(4),
                choices: vec![(isex_dfg::NodeId::new(i as u32 % 4), i)],
                delay_ns: area_um2 / 7.0,
                latency: 1,
                area_um2,
                inputs: 2,
                outputs: 1,
                saved_cycles: 1,
            })
            .collect();
        let exploration = isex_core::Exploration {
            candidates,
            baseline_cycles: 40,
            cycles_with_ises: 31,
            rounds: 4,
            iterations: 120,
            degraded: false,
        };
        let m = Message::RepeatResult(RepeatResult {
            job_id: 5,
            worker: "w0".to_string(),
            run_key: "k".to_string(),
            block_index: 1,
            repeat: 1,
            outcome: RepeatOutcome::Explored(exploration.clone()),
        });
        let back = match Message::decode(&m.encode()).unwrap() {
            Message::RepeatResult(r) => r,
            other => panic!("expected RepeatResult, got {other:?}"),
        };
        let RepeatOutcome::Explored(back) = back.outcome else {
            panic!("expected an exploration");
        };
        let bits = |e: &isex_core::Exploration| -> Vec<(u64, u64)> {
            e.candidates
                .iter()
                .map(|c| (c.area_um2.to_bits(), c.delay_ns.to_bits()))
                .collect()
        };
        assert_eq!(bits(&back), bits(&exploration));
        assert_eq!(
            back.total_area().to_bits(),
            exploration.total_area().to_bits()
        );
        assert_eq!(back, exploration);
    }

    #[test]
    fn trace_chunk_spans_survive_the_wire() {
        let span = isex_trace::OwnedSpan {
            id: 3,
            parent: Some(1),
            name: "engine.job".to_string(),
            start_ns: 1_000,
            dur_ns: 2_000,
            tid: 4,
            args: vec![("attempt".to_string(), "0".to_string())],
        };
        let m = Message::TraceChunk(TraceChunk {
            job_id: 11,
            worker: "w1".to_string(),
            trace_id: "t-chunk".to_string(),
            spans: vec![span.clone()],
            threads: vec![(4, "job".to_string())],
        });
        match Message::decode(&m.encode()).unwrap() {
            Message::TraceChunk(chunk) => {
                assert_eq!(chunk.spans, vec![span]);
                assert_eq!(chunk.threads, vec![(4, "job".to_string())]);
            }
            other => panic!("expected TraceChunk, got {other:?}"),
        }
    }

    #[test]
    fn wrong_payload_shape_is_malformed_not_panic() {
        let frame = Frame {
            opcode: OpCode::Result,
            payload: br#"{"job_id":"not a number"}"#.to_vec(),
        };
        assert!(matches!(
            Message::decode(&frame),
            Err(WireError::Malformed(_))
        ));
        let not_utf8 = Frame {
            opcode: OpCode::Hello,
            payload: vec![0xff, 0xfe],
        };
        assert!(matches!(
            Message::decode(&not_utf8),
            Err(WireError::Malformed(_))
        ));
    }
}
