//! The per-job live event stream behind `GET /v1/jobs/{id}/events`.
//!
//! Every admitted job owns one bounded [`EventRing`]. The engine worker
//! running the job streams its [`RunEvent`]s through a [`RingSink`], which
//! stamps the monotonic `seq` and serialized line under one lock — so the
//! ring's retention order, the optional JSONL trace file, and the `seq`
//! numbering all agree exactly. Observers page through the ring with
//! [`EventRing::read_from`], long-polling for fresh events; completion
//! [`close`](EventRing::close)s the ring so a poller is woken instead of
//! timing out against a finished run.
//!
//! The ring is strictly observational: it receives copies of events the
//! run emits anyway and never feeds anything back into the engine, so a
//! run with N pollers is bitwise identical to a run with none.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use isex_engine::{lock_unpoisoned, EventSink, JsonlSink, RunEvent};

/// Events retained per job. Beyond it the oldest are evicted; a reader
/// paging from an evicted seq learns how many lines it lost.
pub const EVENT_RING_CAPACITY: usize = 4096;

struct RingInner {
    /// `(seq, serialized event)` pairs, seqs contiguous front to back.
    events: VecDeque<(u64, String)>,
    /// The next seq to stamp — also one past the newest retained seq.
    next_seq: u64,
    closed: bool,
}

/// One page of the stream, as returned by [`EventRing::read_from`].
#[derive(Clone, Debug, Default)]
pub struct EventPage {
    /// `(seq, serialized event)` pairs with contiguous seqs.
    pub events: Vec<(u64, String)>,
    /// Pass this as the next poll's `from_seq` for a gapless continuation.
    pub next_seq: u64,
    /// Events that existed in `from_seq..` but were already evicted — `0`
    /// means the page is gapless from the requested position.
    pub dropped: u64,
    /// Whether the job is finished: no further events will ever arrive.
    pub closed: bool,
}

/// A bounded, closable ring of serialized run events.
pub struct EventRing {
    inner: Mutex<RingInner>,
    fresh: Condvar,
    capacity: usize,
}

impl Default for EventRing {
    fn default() -> Self {
        Self::new(EVENT_RING_CAPACITY)
    }
}

impl EventRing {
    /// A ring retaining at most `capacity` events.
    pub fn new(capacity: usize) -> EventRing {
        EventRing {
            inner: Mutex::new(RingInner {
                events: VecDeque::new(),
                next_seq: 0,
                closed: false,
            }),
            fresh: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Stamps `event` with the next seq, serializes it, retains the line
    /// and returns a copy (for a trace file sharing the numbering). Events
    /// arriving after [`close`](EventRing::close) are dropped — the
    /// stream's contract is "closed means complete".
    pub fn append(&self, event: &mut RunEvent) -> Option<String> {
        let mut inner = lock_unpoisoned(&self.inner);
        if inner.closed {
            return None;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        event.set_seq(seq);
        let line = serde_json::to_string(event).expect("event serializes");
        inner.events.push_back((seq, line.clone()));
        while inner.events.len() > self.capacity {
            inner.events.pop_front();
        }
        drop(inner);
        self.fresh.notify_all();
        Some(line)
    }

    /// Marks the stream complete and wakes every poller. Idempotent.
    pub fn close(&self) {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.closed = true;
        drop(inner);
        self.fresh.notify_all();
    }

    /// Whether [`close`](EventRing::close) has been called.
    pub fn is_closed(&self) -> bool {
        lock_unpoisoned(&self.inner).closed
    }

    /// Events stamped so far (including evicted ones).
    pub fn len(&self) -> u64 {
        lock_unpoisoned(&self.inner).next_seq
    }

    /// Whether no event was ever stamped.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the retained events with `seq >= from_seq`, long-polling
    /// until at least one exists, the ring closes, or `wait` lapses. A
    /// `wait` of zero reads the current state without blocking.
    pub fn read_from(&self, from_seq: u64, wait: Duration) -> EventPage {
        let deadline = Instant::now() + wait;
        let mut inner = lock_unpoisoned(&self.inner);
        loop {
            if inner.next_seq > from_seq || inner.closed {
                let first_retained = inner.events.front().map(|(s, _)| *s);
                let events: Vec<(u64, String)> = inner
                    .events
                    .iter()
                    .filter(|(s, _)| *s >= from_seq)
                    .cloned()
                    .collect();
                let dropped = match first_retained {
                    Some(first) if first > from_seq && inner.next_seq > from_seq => {
                        first - from_seq
                    }
                    // Everything ever stamped in `from_seq..` is gone.
                    None if inner.next_seq > from_seq => inner.next_seq - from_seq,
                    _ => 0,
                };
                return EventPage {
                    events,
                    next_seq: inner.next_seq,
                    dropped,
                    closed: inner.closed,
                };
            }
            let now = Instant::now();
            if now >= deadline {
                return EventPage {
                    events: Vec::new(),
                    next_seq: inner.next_seq,
                    dropped: 0,
                    closed: false,
                };
            }
            let (next, _) = self
                .fresh
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            inner = next;
        }
    }
}

/// An [`EventSink`] feeding a job's [`EventRing`], optionally teeing every
/// line into a JSONL trace file. The ring stamps `seq` at admission, so
/// file lines and ring entries share one numbering.
pub struct RingSink<'r> {
    ring: &'r EventRing,
    file: Option<JsonlSink>,
}

impl<'r> RingSink<'r> {
    /// A sink feeding `ring`, teeing into `file` when given.
    pub fn new(ring: &'r EventRing, file: Option<JsonlSink>) -> RingSink<'r> {
        RingSink { ring, file }
    }

    /// Flushes the tee file (if any) and returns whether one was written.
    pub fn finish(self) -> bool {
        match self.file {
            Some(file) => {
                let _ = file.flush();
                true
            }
            None => false,
        }
    }
}

impl EventSink for RingSink<'_> {
    fn emit(&self, mut event: RunEvent) {
        if let Some(line) = self.ring.append(&mut event) {
            if let Some(file) = &self.file {
                file.emit_line(&line);
            }
        }
    }

    fn wants_traces(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isex_engine::Seq;

    fn event(block_index: usize) -> RunEvent {
        RunEvent::JobStart {
            block: format!("b{block_index}"),
            block_index,
            repeat: 0,
            seed: 1,
            seq: Seq(0),
            trace: None,
        }
    }

    #[test]
    fn seqs_are_contiguous_and_pages_resume_gapless() {
        let ring = EventRing::new(16);
        for i in 0..5 {
            ring.append(&mut event(i));
        }
        let first = ring.read_from(0, Duration::ZERO);
        assert_eq!(first.events.len(), 5);
        assert_eq!(first.dropped, 0);
        assert_eq!(first.next_seq, 5);
        let seqs: Vec<u64> = first.events.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        // Resuming from next_seq yields nothing new, with no gap.
        let second = ring.read_from(first.next_seq, Duration::ZERO);
        assert!(second.events.is_empty());
        assert_eq!(second.dropped, 0);
    }

    #[test]
    fn eviction_is_reported_as_dropped() {
        let ring = EventRing::new(3);
        for i in 0..10 {
            ring.append(&mut event(i));
        }
        // Seqs 0..7 evicted; a reader from 0 learns it lost 7.
        let page = ring.read_from(0, Duration::ZERO);
        assert_eq!(page.dropped, 7);
        let seqs: Vec<u64> = page.events.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        // A reader already past the eviction horizon sees no gap.
        assert_eq!(ring.read_from(8, Duration::ZERO).dropped, 0);
    }

    #[test]
    fn close_wakes_pollers_and_stops_admission() {
        let ring = std::sync::Arc::new(EventRing::new(8));
        let poller = std::sync::Arc::clone(&ring);
        let handle = std::thread::spawn(move || poller.read_from(0, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        ring.close();
        let page = handle.join().unwrap();
        assert!(page.closed, "close must wake and mark the page");
        assert!(
            ring.append(&mut event(0)).is_none(),
            "closed rejects events"
        );
        assert_eq!(ring.len(), 0);
    }

    #[test]
    fn timed_out_poll_reports_open_stream() {
        let ring = EventRing::new(8);
        let page = ring.read_from(0, Duration::from_millis(10));
        assert!(!page.closed);
        assert!(page.events.is_empty());
        assert_eq!(page.next_seq, 0);
    }

    #[test]
    fn ring_sink_stamps_seq_into_emitted_lines() {
        let ring = EventRing::new(8);
        let sink = RingSink::new(&ring, None);
        sink.emit(event(0));
        sink.emit(event(1));
        assert!(!sink.finish(), "no tee file was configured");
        let page = ring.read_from(0, Duration::ZERO);
        assert_eq!(page.events.len(), 2);
        assert!(
            page.events[0].1.contains("\"seq\":0"),
            "{}",
            page.events[0].1
        );
        assert!(
            page.events[1].1.contains("\"seq\":1"),
            "{}",
            page.events[1].1
        );
    }
}
