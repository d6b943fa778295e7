//! The optional run event stream.
//!
//! Events are telemetry, not results: with more than one worker their
//! arrival order depends on scheduling. The determinism contract covers the
//! engine's *outputs*. For a total order over a multi-worker JSONL stream,
//! sort by the `seq` field — sinks stamp it monotonically at emission, so
//! it reflects arrival order exactly. (The historical
//! `(block_index, repeat, round)` sort still yields the scheduling-
//! independent canonical order; [`VecSink::into_events`] applies it.)

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use isex_core::Exploration;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::job::ExploreJob;

/// A sink-stamped monotonic sequence number.
///
/// Serializes as a bare integer; a *missing or null* field deserializes as
/// `0`, so event streams written before `seq` existed still parse.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Seq(pub u64);

impl Serialize for Seq {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.0.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Seq {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            serde::Value::Null => Ok(Seq(0)),
            v => serde::de::from_value(&v).map(Seq),
        }
    }
}

/// One engine event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RunEvent {
    /// A job was handed to a worker.
    JobStart {
        /// Block label.
        block: String,
        /// Block index in the hot set.
        block_index: usize,
        /// Repeat index.
        repeat: usize,
        /// Derived RNG seed.
        seed: u64,
        /// Sink-stamped emission order (0 in pre-`seq` streams).
        seq: Seq,
        /// Trace id of the request that owns the run, if any.
        trace: Option<String>,
    },
    /// A job finished.
    JobFinish {
        /// Block label.
        block: String,
        /// Block index in the hot set.
        block_index: usize,
        /// Repeat index.
        repeat: usize,
        /// Schedule length without ISEs, cycles.
        baseline_cycles: u32,
        /// Schedule length with this exploration's ISEs, cycles.
        cycles: u32,
        /// Ant iterations the job spent.
        iterations: usize,
        /// ISE candidates the job produced.
        candidates: usize,
        /// Wall time of the job, milliseconds.
        elapsed_ms: f64,
        /// Sink-stamped emission order (0 in pre-`seq` streams).
        seq: Seq,
        /// Trace id of the request that owns the run, if any.
        trace: Option<String>,
    },
    /// A job panicked and was isolated by pool supervision: its block loses
    /// one repeat, the rest of the run is untouched.
    JobFailed {
        /// Block label.
        block: String,
        /// Block index in the hot set.
        block_index: usize,
        /// Repeat index.
        repeat: usize,
        /// Derived RNG seed (replaying it reproduces the panic).
        seed: u64,
        /// The panic payload, stringified.
        error: String,
        /// Sink-stamped emission order (0 in pre-`seq` streams).
        seq: Seq,
        /// Trace id of the request that owns the run, if any.
        trace: Option<String>,
    },
    /// One ACO round of a traced job: every sampled walk TET, in iteration
    /// order (the raw material for convergence sparklines).
    RoundSummary {
        /// Block label.
        block: String,
        /// Block index in the hot set.
        block_index: usize,
        /// Repeat index.
        repeat: usize,
        /// Exploration round (1-based).
        round: usize,
        /// Best TET observed in the round, cycles.
        best_tet: u32,
        /// Sampled walk TETs, iteration order.
        tets: Vec<u32>,
        /// Sink-stamped emission order (0 in pre-`seq` streams).
        seq: Seq,
        /// Trace id of the request that owns the run, if any.
        trace: Option<String>,
    },
}

impl RunEvent {
    /// The `JobStart` of `job`, a job of the block labelled `block`.
    pub fn job_start(block: &str, job: &ExploreJob) -> RunEvent {
        RunEvent::JobStart {
            block: block.to_string(),
            block_index: job.block_index,
            repeat: job.repeat,
            seed: job.seed,
            seq: Seq(0),
            trace: None,
        }
    }

    /// The `JobFinish` of `job`: its exploration's counters, or zeros.
    pub fn job_finish(
        block: &str,
        job: &ExploreJob,
        exploration: Option<&Exploration>,
        elapsed_ms: f64,
    ) -> RunEvent {
        RunEvent::JobFinish {
            block: block.to_string(),
            block_index: job.block_index,
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

    /// The `JobFailed` of `job`, which panicked with `error`.
    pub fn job_failed(block: &str, job: &ExploreJob, error: &str) -> RunEvent {
        RunEvent::JobFailed {
            block: block.to_string(),
            block_index: job.block_index,
            repeat: job.repeat,
            seed: job.seed,
            error: error.to_string(),
            seq: Seq(0),
            trace: None,
        }
    }

    /// The sink-stamped sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            RunEvent::JobStart { seq, .. }
            | RunEvent::JobFinish { seq, .. }
            | RunEvent::JobFailed { seq, .. }
            | RunEvent::RoundSummary { seq, .. } => seq.0,
        }
    }

    /// Stamps the sequence number (sinks call this at emission).
    pub fn set_seq(&mut self, value: u64) {
        match self {
            RunEvent::JobStart { seq, .. }
            | RunEvent::JobFinish { seq, .. }
            | RunEvent::JobFailed { seq, .. }
            | RunEvent::RoundSummary { seq, .. } => *seq = Seq(value),
        }
    }

    /// The trace id stamped on the event, if any.
    pub fn trace_id(&self) -> Option<&str> {
        match self {
            RunEvent::JobStart { trace, .. }
            | RunEvent::JobFinish { trace, .. }
            | RunEvent::JobFailed { trace, .. }
            | RunEvent::RoundSummary { trace, .. } => trace.as_deref(),
        }
    }

    /// Stamps a trace id (see [`TaggedSink`]).
    pub fn set_trace(&mut self, id: &str) {
        match self {
            RunEvent::JobStart { trace, .. }
            | RunEvent::JobFinish { trace, .. }
            | RunEvent::JobFailed { trace, .. }
            | RunEvent::RoundSummary { trace, .. } => *trace = Some(id.to_string()),
        }
    }
}

/// Receives engine events; shared across workers.
pub trait EventSink: Send + Sync {
    /// Accepts one event.
    fn emit(&self, event: RunEvent);

    /// Whether explorations should record per-iteration traces (the source
    /// of [`RunEvent::RoundSummary`]). Tracing costs memory per walk, so
    /// sinks that drop round data leave this `false`.
    fn wants_traces(&self) -> bool {
        false
    }
}

/// Discards everything.
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _: RunEvent) {}
}

/// Wraps a sink, stamping every event with a trace id — the joint between
/// a request's `X-Isex-Trace-Id` and its engine telemetry.
pub struct TaggedSink<S> {
    inner: S,
    trace_id: String,
}

impl<S: EventSink> TaggedSink<S> {
    /// Stamps `trace_id` on everything emitted through `inner`.
    pub fn new(inner: S, trace_id: impl Into<String>) -> Self {
        TaggedSink {
            inner,
            trace_id: trace_id.into(),
        }
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: EventSink> EventSink for TaggedSink<S> {
    fn emit(&self, mut event: RunEvent) {
        event.set_trace(&self.trace_id);
        self.inner.emit(event);
    }

    fn wants_traces(&self) -> bool {
        self.inner.wants_traces()
    }
}

/// Collects events in memory.
#[derive(Default)]
pub struct VecSink {
    events: Mutex<Vec<RunEvent>>,
    next_seq: AtomicU64,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the collected events, sorted to the stable
    /// `(block_index, repeat, round)` order. Each event's `seq` still
    /// carries its arrival order.
    pub fn into_events(self) -> Vec<RunEvent> {
        // Sinks only ever append whole events, so a lock poisoned by a
        // panicking worker holds nothing torn — recover, don't cascade.
        let mut events = self
            .events
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        events.sort_by_key(|e| match e {
            RunEvent::JobStart {
                block_index,
                repeat,
                ..
            } => (*block_index, *repeat, 0, 0),
            RunEvent::RoundSummary {
                block_index,
                repeat,
                round,
                ..
            } => (*block_index, *repeat, 1, *round),
            RunEvent::JobFinish {
                block_index,
                repeat,
                ..
            }
            | RunEvent::JobFailed {
                block_index,
                repeat,
                ..
            } => (*block_index, *repeat, 2, 0),
        });
        events
    }
}

impl EventSink for VecSink {
    fn emit(&self, mut event: RunEvent) {
        event.set_seq(self.next_seq.fetch_add(1, Ordering::Relaxed));
        crate::pool::lock_unpoisoned(&self.events).push(event);
    }

    fn wants_traces(&self) -> bool {
        true
    }
}

/// Streams events as JSON Lines to a writer.
pub struct JsonlSink {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
    next_seq: AtomicU64,
}

impl JsonlSink {
    /// Wraps any writer.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: Mutex::new(BufWriter::new(writer)),
            next_seq: AtomicU64::new(0),
        }
    }

    /// Creates (truncating) a JSONL file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(Box::new(File::create(path)?)))
    }

    /// Flushes buffered output.
    pub fn flush(&self) -> io::Result<()> {
        crate::pool::lock_unpoisoned(&self.out).flush()
    }

    /// Writes one pre-serialized event line verbatim, bypassing this sink's
    /// own `seq` stamping — for callers that number events elsewhere and
    /// tee the identical line into the file (the serving tier's per-job
    /// ring does this so file and ring share one numbering).
    pub fn emit_line(&self, line: &str) {
        let mut out = crate::pool::lock_unpoisoned(&self.out);
        let _ = writeln!(out, "{line}");
    }
}

impl EventSink for JsonlSink {
    fn emit(&self, mut event: RunEvent) {
        // Stamp and serialize under the writer lock so the stream's line
        // order and its seq order agree exactly.
        let mut out = crate::pool::lock_unpoisoned(&self.out);
        event.set_seq(self.next_seq.fetch_add(1, Ordering::Relaxed));
        let line = serde_json::to_string(&event).expect("event serializes");
        // Telemetry must never take the run down; drop lines on I/O errors.
        let _ = writeln!(out, "{line}");
    }

    fn wants_traces(&self) -> bool {
        true
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_json() {
        let e = RunEvent::RoundSummary {
            block: "b".to_string(),
            block_index: 1,
            repeat: 2,
            round: 3,
            best_tet: 17,
            tets: vec![20, 19, 17],
            seq: Seq(9),
            trace: Some("t-42".to_string()),
        };
        let text = serde_json::to_string(&e).unwrap();
        let back: RunEvent = serde_json::from_str(&text).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn pre_seq_streams_still_deserialize_with_defaults() {
        // A JobStart line exactly as PR 1's JsonlSink wrote it: no seq, no
        // trace field at all.
        let old = r#"{"JobStart":{"block":"b0","block_index":0,"repeat":1,"seed":42}}"#;
        let e: RunEvent = serde_json::from_str(old).unwrap();
        assert_eq!(e.seq(), 0);
        assert_eq!(e.trace_id(), None);
        match e {
            RunEvent::JobStart {
                block,
                block_index,
                repeat,
                seed,
                ..
            } => {
                assert_eq!(block, "b0");
                assert_eq!(block_index, 0);
                assert_eq!(repeat, 1);
                assert_eq!(seed, 42);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn vec_sink_sorts_into_stable_order_but_seq_keeps_arrival_order() {
        let sink = VecSink::new();
        let finish = |bi, rep| RunEvent::JobFinish {
            block: "b".to_string(),
            block_index: bi,
            repeat: rep,
            baseline_cycles: 10,
            cycles: 8,
            iterations: 5,
            candidates: 1,
            elapsed_ms: 0.1,
            seq: Seq(0),
            trace: None,
        };
        sink.emit(finish(1, 0));
        sink.emit(finish(0, 1));
        sink.emit(finish(0, 0));
        let order: Vec<(usize, usize, u64)> = sink
            .into_events()
            .iter()
            .map(|e| match e {
                RunEvent::JobFinish {
                    block_index,
                    repeat,
                    seq,
                    ..
                } => (*block_index, *repeat, seq.0),
                _ => unreachable!(),
            })
            .collect();
        // Canonical sort for the tuple, emission order in seq.
        assert_eq!(order, vec![(0, 0, 2), (0, 1, 1), (1, 0, 0)]);
    }

    #[test]
    fn tagged_sink_stamps_trace_ids() {
        let sink = TaggedSink::new(VecSink::new(), "req-7");
        sink.emit(RunEvent::JobStart {
            block: "b".to_string(),
            block_index: 0,
            repeat: 0,
            seed: 1,
            seq: Seq(0),
            trace: None,
        });
        let events = sink.into_inner().into_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].trace_id(), Some("req-7"));
    }
}
