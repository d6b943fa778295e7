//! Structured tracing for the exploration stack.
//!
//! A [`Tracer`] collects **spans** — named, nested intervals with
//! nanosecond monotonic timestamps — through RAII guards. The design goals,
//! in order:
//!
//! 1. **Negligible when disabled.** `Tracer::disabled()` carries no
//!    allocation; the hot-path check in [`span`] is one thread-local read
//!    and a branch. Instrumented code never pays for argument formatting
//!    unless tracing is live ([`span_with`] takes a closure).
//! 2. **Deterministic results.** Tracing only *observes*: it consumes no
//!    RNG state and never changes control flow, so a traced run's outputs
//!    are bitwise identical to an untraced run's.
//! 3. **Panic safe.** Guards record on drop, so unwinding closes spans in
//!    LIFO order and a supervised job that panics still leaves a
//!    well-formed span tree (no orphans — see the crate tests).
//!
//! Threading model: a worker calls [`Tracer::attach`] once per unit of
//! work, which installs a per-thread context (parent stack + record
//! buffer). Buffers drain into the tracer's central sink in batches under a
//! short-held mutex. Each drained span is folded into the per-name profile;
//! the record buffer the Chrome export reads is bounded — spans merged in
//! from other processes share the same capacity — and records past it are
//! counted in [`Tracer::dropped`] rather than growing without bound. A
//! truncated export says so in one metadata record.
//!
//! Exporters: [`Tracer::chrome_trace`] renders Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`, one `pid` per process, one
//! `tid` per worker thread) and [`Tracer::phase_profile`] holds the
//! per-span-name count/total/max for `RunMetrics`, over every closed span.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod profile;

pub use chrome::{chrome_trace_multi_json, ProcessSpans};
pub use profile::{PhaseProfile, PhaseStat};

use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Default cap on buffered span records per tracer.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// Per-thread buffer size before draining into the central sink.
const FLUSH_BATCH: usize = 256;

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// For state that stays consistent under unwinding — every shared
/// structure here and in the crates above is mutated in whole steps
/// (span records and slots hold completed values only; sinks append whole
/// lines; queues push whole jobs), so a poisoned lock carries no torn
/// state. Never `unwrap` a [`PoisonError`] on these paths: one caught
/// panic must not cascade into killing every thread that shares the lock.
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the tracer (allocation order, not tree order).
    pub id: u64,
    /// Enclosing span's id, if the span had one on its thread's stack.
    pub parent: Option<u64>,
    /// Span name, e.g. `"aco.construct"`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Ordinal of the OS thread that ran the span.
    pub tid: u64,
    /// Key/value annotations.
    pub args: Vec<(&'static str, String)>,
}

/// An owned, serde-capable counterpart of [`SpanRecord`].
///
/// [`SpanRecord::name`] is `&'static str` — right for in-process
/// collection, useless on a wire. This is the form spans take when they
/// cross a process boundary (cluster workers shipping span batches back
/// to their coordinator) and when foreign spans are injected into a
/// tracer via [`Tracer::inject_remote`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OwnedSpan {
    /// Span id, unique within its *originating* tracer (remapped on
    /// injection — see [`Tracer::inject_remote`]).
    pub id: u64,
    /// Enclosing span's id in the same id space, if any.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub parent: Option<u64>,
    /// Span name, e.g. `"worker.block"`.
    pub name: String,
    /// Start, nanoseconds since the originating tracer's epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Thread ordinal within the originating process.
    pub tid: u64,
    /// Key/value annotations.
    pub args: Vec<(String, String)>,
}

impl From<&SpanRecord> for OwnedSpan {
    fn from(r: &SpanRecord) -> OwnedSpan {
        OwnedSpan {
            id: r.id,
            parent: r.parent,
            name: r.name.to_string(),
            start_ns: r.start_ns,
            dur_ns: r.dur_ns,
            tid: r.tid,
            args: r
                .args
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        }
    }
}

/// Spans contributed by another process, kept per process name.
struct RemoteProcess {
    name: String,
    spans: Vec<OwnedSpan>,
    threads: Vec<(u64, String)>,
}

/// Where drained spans land: every one folds into `profile`; those that
/// fit the tracer's capacity are also kept as records for the Chrome
/// export.
#[derive(Default)]
struct Sink {
    records: Vec<SpanRecord>,
    profile: PhaseProfile,
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    /// Records kept for the export, local and remote: at most `capacity`.
    held: AtomicUsize,
    dropped: AtomicU64,
    capacity: usize,
    trace_id: Option<String>,
    sink: Mutex<Sink>,
    threads: Mutex<Vec<(u64, String)>>,
    remote: Mutex<Vec<RemoteProcess>>,
}

impl Inner {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Takes up to `n` of the export's free slots, which local and remote
    /// spans share, and counts the rest as dropped; returns how many it
    /// took.
    fn reserve(&self, n: usize) -> usize {
        let room = |held: usize| n.min(self.capacity.saturating_sub(held));
        let held = self
            .held
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| Some(h + room(h)))
            .unwrap_or_else(|h| h);
        let taken = room(held);
        self.dropped
            .fetch_add((n - taken) as u64, Ordering::Relaxed);
        taken
    }

    fn push_records(&self, records: Vec<SpanRecord>) {
        let mut sink = lock_unpoisoned(&self.sink);
        for r in &records {
            sink.profile.record(r.name, r.dur_ns);
        }
        let kept = self.reserve(records.len());
        sink.records.extend(records.into_iter().take(kept));
    }

    fn register_thread(&self, tid: u64) {
        let mut threads = lock_unpoisoned(&self.threads);
        if threads.iter().any(|(t, _)| *t == tid) {
            return;
        }
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{tid}"));
        threads.push((tid, name));
    }
}

/// A handle to one run's span collector. Cloning shares the collector;
/// the default value is disabled.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Tracer(disabled)"),
            Some(inner) => write!(
                f,
                "Tracer(enabled, trace_id={:?})",
                inner.trace_id.as_deref().unwrap_or("")
            ),
        }
    }
}

impl Tracer {
    /// An enabled tracer with the default record capacity.
    pub fn new() -> Tracer {
        Self::make(DEFAULT_CAPACITY, None)
    }

    /// An enabled tracer buffering at most `capacity` records for export;
    /// further records are dropped and counted (the profile still counts
    /// them).
    pub fn with_capacity(capacity: usize) -> Tracer {
        Self::make(capacity, None)
    }

    /// An enabled tracer stamped with an externally-supplied trace id
    /// (the `X-Isex-Trace-Id` propagation contract).
    pub fn with_trace_id(trace_id: impl Into<String>) -> Tracer {
        Self::make(DEFAULT_CAPACITY, Some(trace_id.into()))
    }

    fn make(capacity: usize, trace_id: Option<String>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                held: AtomicUsize::new(0),
                dropped: AtomicU64::new(0),
                capacity,
                trace_id,
                sink: Mutex::new(Sink::default()),
                threads: Mutex::new(Vec::new()),
                remote: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The no-op tracer: spans cost one thread-local read and a branch.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace id this tracer is stamped with, if any.
    pub fn trace_id(&self) -> Option<&str> {
        self.inner.as_ref()?.trace_id.as_deref()
    }

    /// Nanoseconds elapsed since this tracer's epoch (0 when disabled).
    /// Pairs with [`Tracer::inject_remote`]'s `offset_ns`: capture this at
    /// dispatch time and remote spans land where the dispatch happened.
    pub fn elapsed_ns(&self) -> u64 {
        self.inner.as_ref().map(|i| i.now_ns()).unwrap_or(0)
    }

    /// Merges spans collected in another process into this tracer's
    /// export, under the process name `process` (one Chrome `pid` per
    /// distinct name — see [`Tracer::chrome_trace`]).
    ///
    /// Span ids are remapped into this tracer's id space (a fresh block is
    /// allocated, internal parent links are rewritten), so foreign ids can
    /// never collide with local ones. Spans that were roots in the remote
    /// process are re-parented onto `parent` — the local span that caused
    /// the remote work (the cluster's `job.dispatch` → `worker.block`
    /// cross-process link). `offset_ns` shifts the remote timestamps,
    /// which are relative to the *remote* tracer's epoch, onto this
    /// tracer's timeline.
    ///
    /// Remote spans count against this tracer's capacity and
    /// [`Tracer::dropped`] as local ones do: the first spans of the batch
    /// that fit are kept, and a kept span whose parent was dropped is
    /// re-parented onto `parent`. No-op when disabled.
    pub fn inject_remote(
        &self,
        process: &str,
        parent: Option<u64>,
        offset_ns: u64,
        spans: &[OwnedSpan],
        threads: &[(u64, String)],
    ) {
        let Some(inner) = &self.inner else { return };
        let spans = &spans[..inner.reserve(spans.len())];
        if spans.is_empty() && threads.is_empty() {
            return;
        }
        let base = inner
            .next_id
            .fetch_add(spans.len() as u64, Ordering::Relaxed);
        let remap: std::collections::HashMap<u64, u64> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, base + i as u64))
            .collect();
        let remapped: Vec<OwnedSpan> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| OwnedSpan {
                id: base + i as u64,
                parent: match s.parent {
                    Some(p) => remap.get(&p).copied().or(parent),
                    None => parent,
                },
                name: s.name.clone(),
                start_ns: s.start_ns.saturating_add(offset_ns),
                dur_ns: s.dur_ns,
                tid: s.tid,
                args: s.args.clone(),
            })
            .collect();
        let mut remote = lock_unpoisoned(&inner.remote);
        match remote.iter_mut().find(|p| p.name == process) {
            Some(existing) => {
                existing.spans.extend(remapped);
                for (tid, name) in threads {
                    if !existing.threads.iter().any(|(t, _)| t == tid) {
                        existing.threads.push((*tid, name.clone()));
                    }
                }
            }
            None => remote.push(RemoteProcess {
                name: process.to_string(),
                spans: remapped,
                threads: threads.to_vec(),
            }),
        }
    }

    /// Spans injected from other processes, grouped by process name
    /// (tests and custom exporters).
    pub fn remote_processes(&self) -> Vec<ProcessSpans> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        lock_unpoisoned(&inner.remote)
            .iter()
            .map(|p| ProcessSpans {
                name: p.name.clone(),
                spans: p.spans.clone(),
                threads: p.threads.clone(),
            })
            .collect()
    }

    /// Records left out of the export because its buffer was full, local
    /// spans and spans merged in from other processes alike. The phase
    /// profile counts the local ones all the same.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.dropped.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Makes this tracer current on the calling thread until the guard
    /// drops. Spans created through [`span`]/[`span_with`] while attached
    /// are buffered per-thread and drained into the tracer.
    ///
    /// Attaching a tracer that is already current is a no-op (the existing
    /// parent stack is kept); attaching over a *different* tracer suspends
    /// it and restores it when the guard drops. Disabled tracers return an
    /// inert guard.
    #[must_use = "the tracer detaches when the guard drops"]
    pub fn attach(&self) -> AttachGuard {
        let Some(inner) = &self.inner else {
            return AttachGuard { restore: None };
        };
        CURRENT.with(|c| {
            {
                let cur = c.borrow();
                if let Some(ctx) = cur.as_ref() {
                    if Arc::ptr_eq(&ctx.inner, inner) {
                        return AttachGuard { restore: None };
                    }
                }
            }
            inner.register_thread(current_tid());
            let prev = c.borrow_mut().replace(ThreadCtx {
                inner: Arc::clone(inner),
                stack: Vec::new(),
                buf: Vec::new(),
            });
            AttachGuard {
                restore: Some(prev),
            }
        })
    }

    /// Opens a span on this tracer. When the tracer is attached on the
    /// calling thread the span nests under the thread's current span;
    /// otherwise it records as a root span.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_with(name, Vec::new)
    }

    /// [`Tracer::span`] with annotations; `args` runs only when enabled.
    #[must_use = "the span closes when the guard drops"]
    pub fn span_with(
        &self,
        name: &'static str,
        args: impl FnOnce() -> Vec<(&'static str, String)>,
    ) -> SpanGuard {
        match &self.inner {
            None => SpanGuard { active: None },
            Some(inner) => start_span(inner, name, args()),
        }
    }

    /// Per-span-name aggregate (count / total / max) over every span
    /// closed so far, sorted by name — including spans past the export
    /// buffer's capacity. Flushes the calling thread's buffer first.
    pub fn phase_profile(&self) -> PhaseProfile {
        let Some(inner) = &self.inner else {
            return PhaseProfile::default();
        };
        self.flush_current();
        lock_unpoisoned(&inner.sink).profile.clone()
    }

    /// A copy of the collected records (tests and custom exporters).
    pub fn records(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        self.flush_current();
        lock_unpoisoned(&inner.sink).records.clone()
    }

    /// Renders the collected spans as a Chrome trace-event JSON array
    /// (Perfetto / `chrome://tracing` loadable). Empty array when disabled.
    ///
    /// Local spans take `pid` 1 under the process name `isex run <id>`.
    /// Spans from other processes merged in via [`Tracer::inject_remote`]
    /// each get their own `pid` and `process_name` metadata, so a cluster
    /// run renders as one trace with a lane per node. When spans were
    /// dropped, a final `dropped_spans` metadata record carries
    /// [`Tracer::dropped`].
    pub fn chrome_trace(&self) -> String {
        let Some(inner) = &self.inner else {
            return "[]".to_string();
        };
        self.flush_current();
        let local = ProcessSpans {
            name: match inner.trace_id.as_deref() {
                Some(id) => format!("isex run {id}"),
                None => "isex run".to_string(),
            },
            spans: lock_unpoisoned(&inner.sink)
                .records
                .iter()
                .map(OwnedSpan::from)
                .collect(),
            threads: lock_unpoisoned(&inner.threads).clone(),
        };
        let remote = self.remote_processes();
        let trace_id = inner.trace_id.as_deref();
        chrome::chrome_trace_multi_json(&local, &remote, trace_id, self.dropped())
    }

    /// Drains the calling thread's buffer (if it belongs to this tracer)
    /// into the central sink.
    fn flush_current(&self) {
        let Some(inner) = &self.inner else { return };
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            if let Some(ctx) = cur.as_mut() {
                if Arc::ptr_eq(&ctx.inner, inner) && !ctx.buf.is_empty() {
                    let batch: Vec<SpanRecord> = ctx.buf.drain(..).collect();
                    let sink = Arc::clone(&ctx.inner);
                    drop(cur);
                    sink.push_records(batch);
                }
            }
        });
    }
}

struct ThreadCtx {
    inner: Arc<Inner>,
    /// Open span ids, innermost last — the parent chain.
    stack: Vec<u64>,
    buf: Vec<SpanRecord>,
}

thread_local! {
    static CURRENT: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// The calling OS thread's stable trace ordinal (assigned on first use).
pub fn current_tid() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// Whether a tracer is attached on the calling thread.
pub fn enabled() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Opens a span on the thread's attached tracer; inert (one thread-local
/// read) when none is attached. This is how deep layers — the scheduler,
/// the ACO loop — trace without carrying a `Tracer` through their
/// signatures.
#[must_use = "the span closes when the guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, Vec::new)
}

/// [`span`] with annotations; the closure runs only when a tracer is
/// attached, so disabled runs never pay for formatting.
#[must_use = "the span closes when the guard drops"]
pub fn span_with(
    name: &'static str,
    args: impl FnOnce() -> Vec<(&'static str, String)>,
) -> SpanGuard {
    let inner = CURRENT.with(|c| c.borrow().as_ref().map(|ctx| Arc::clone(&ctx.inner)));
    match inner {
        None => SpanGuard { active: None },
        Some(inner) => start_span(&inner, name, args()),
    }
}

fn start_span(
    inner: &Arc<Inner>,
    name: &'static str,
    args: Vec<(&'static str, String)>,
) -> SpanGuard {
    let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        match cur.as_mut() {
            Some(ctx) if Arc::ptr_eq(&ctx.inner, inner) => {
                let parent = ctx.stack.last().copied();
                ctx.stack.push(id);
                parent
            }
            // Not attached here (e.g. a Tracer::span call on a foreign
            // thread): record as a root span, bypassing the stack.
            _ => None,
        }
    });
    SpanGuard {
        active: Some(ActiveSpan {
            inner: Arc::clone(inner),
            id,
            parent,
            name,
            start_ns: inner.now_ns(),
            args,
        }),
    }
}

struct ActiveSpan {
    inner: Arc<Inner>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    args: Vec<(&'static str, String)>,
}

/// Closes its span on drop (including during panic unwinding).
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Adds an annotation to a live span (no-op when tracing is disabled).
    pub fn arg(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(act) = self.active.as_mut() {
            act.args.push((key, value.to_string()));
        }
    }

    /// The live span's tracer-unique id (`None` when tracing is disabled).
    /// This is what crosses the wire as a *remote parent*: a span opened
    /// in another process can be re-parented under this one on merge.
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|act| act.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(act) = self.active.take() else {
            return;
        };
        let dur_ns = act.inner.now_ns().saturating_sub(act.start_ns);
        let record = SpanRecord {
            id: act.id,
            parent: act.parent,
            name: act.name,
            start_ns: act.start_ns,
            dur_ns,
            tid: current_tid(),
            args: act.args,
        };
        let direct = CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            match cur.as_mut() {
                Some(ctx) if Arc::ptr_eq(&ctx.inner, &act.inner) => {
                    // Pop this span — and, defensively, anything mis-nested
                    // above it — so unwinding can never leave stale parents.
                    if let Some(pos) = ctx.stack.iter().rposition(|&id| id == act.id) {
                        ctx.stack.truncate(pos);
                    }
                    ctx.buf.push(record);
                    if ctx.buf.len() >= FLUSH_BATCH {
                        let batch: Vec<SpanRecord> = ctx.buf.drain(..).collect();
                        Some((Arc::clone(&ctx.inner), batch))
                    } else {
                        None
                    }
                }
                // The thread's context moved on (or never existed): deliver
                // the record straight to the collector.
                _ => Some((Arc::clone(&act.inner), vec![record])),
            }
        });
        if let Some((sink, batch)) = direct {
            sink.push_records(batch);
        }
    }
}

/// Restores the thread's previous tracer context on drop, flushing any
/// buffered records first.
#[must_use = "the tracer detaches when the guard drops"]
pub struct AttachGuard {
    /// `None` for no-op guards; `Some(prev)` restores `prev` on drop.
    restore: Option<Option<ThreadCtx>>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        let Some(prev) = self.restore.take() else {
            return;
        };
        let outgoing = CURRENT.with(|c| c.replace(prev));
        if let Some(ctx) = outgoing {
            if !ctx.buf.is_empty() {
                ctx.inner.push_records(ctx.buf);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let _at = t.attach();
            let _s = span("never");
        }
        assert!(!t.is_enabled());
        assert!(t.records().is_empty());
        assert_eq!(t.chrome_trace(), "[]");
        assert!(t.phase_profile().0.is_empty());
    }

    #[test]
    fn spans_nest_under_the_thread_stack() {
        let t = Tracer::new();
        {
            let _at = t.attach();
            let outer = span("outer");
            {
                let _inner = span("inner");
            }
            drop(outer);
        }
        let records = t.records();
        assert_eq!(records.len(), 2);
        // Guards close innermost-first, so "inner" lands first.
        let inner = records.iter().find(|r| r.name == "inner").unwrap();
        let outer = records.iter().find(|r| r.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert!(outer.start_ns <= inner.start_ns);
    }

    #[test]
    fn unattached_thread_spans_are_inert() {
        let t = Tracer::new();
        {
            let _s = span("no context here");
        }
        assert!(t.records().is_empty());
        // But Tracer::span works without attachment, as a root span.
        {
            let _s = t.span("direct");
        }
        let records = t.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].parent, None);
    }

    #[test]
    fn capacity_bounds_the_sink_and_counts_drops() {
        let t = Tracer::with_capacity(4);
        {
            let _at = t.attach();
            for _ in 0..10 {
                let _s = span("tick");
            }
        }
        assert_eq!(t.records().len(), 4);
        assert_eq!(t.dropped(), 6);
        // The export is bounded; the profile still counts every span.
        assert_eq!(t.phase_profile().get("tick").map(|s| s.count), Some(10));
        // And the export says what it left out, in one metadata record.
        let text = t.chrome_trace();
        assert!(
            text.ends_with(
                r#"{"name":"dropped_spans","ph":"M","pid":1,"tid":0,"args":{"count":6}}]"#
            ),
            "{text}"
        );
        assert_eq!(text.matches("dropped_spans").count(), 1, "{text}");
    }

    #[test]
    fn an_untruncated_export_carries_no_dropped_record() {
        let t = Tracer::with_capacity(4);
        {
            let _at = t.attach();
            let _s = span("tick");
        }
        assert_eq!(t.dropped(), 0);
        assert!(!t.chrome_trace().contains("dropped_spans"));
    }

    #[test]
    fn remote_spans_share_the_capacity_and_the_dropped_count() {
        let t = Tracer::with_capacity(4);
        let dispatch = t.span("job.dispatch");
        let dispatch_id = dispatch.id().unwrap();
        drop(dispatch);
        // Five remote spans, children closed before their parents as a
        // tracer records them: 1 under 2 under 4; 3 and 5 are roots.
        let remote: Vec<OwnedSpan> = [(1, Some(2)), (2, Some(4)), (3, None), (4, None), (5, None)]
            .into_iter()
            .map(|(id, parent)| OwnedSpan {
                id,
                parent,
                name: format!("remote.{id}"),
                start_ns: 0,
                dur_ns: 1,
                tid: 1,
                args: Vec::new(),
            })
            .collect();
        t.inject_remote("isex worker w0", Some(dispatch_id), 0, &remote, &[]);
        // One local span held a slot: three remote spans fit, two drop.
        let processes = t.remote_processes();
        let kept = &processes[0].spans;
        let names: Vec<&str> = kept.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["remote.1", "remote.2", "remote.3"]);
        assert_eq!(t.dropped(), 2);
        // Span 2 lost its parent (4) to the cap: it hangs under the
        // dispatch span, so the merged tree stays well formed.
        assert_eq!(kept[0].parent, Some(kept[1].id));
        assert_eq!(kept[1].parent, Some(dispatch_id));
        // A full buffer drops later local spans and remote batches alike.
        drop(t.span("late.local"));
        t.inject_remote("isex worker w1", Some(dispatch_id), 0, &remote[..1], &[]);
        assert_eq!(t.records().len(), 1);
        assert_eq!(
            t.remote_processes().len(),
            1,
            "an all-dropped batch adds no lane"
        );
        assert_eq!(t.dropped(), 4);
        let text = t.chrome_trace();
        assert!(text.contains(r#""args":{"count":4}"#), "{text}");
        // Every kept span's parent is a kept span or the dispatch span.
        let ids: Vec<u64> = kept.iter().map(|s| s.id).collect();
        for span in kept {
            let parent = span.parent.expect("remote spans hang under the dispatch");
            assert!(parent == dispatch_id || ids.contains(&parent), "{span:?}");
        }
    }

    #[test]
    fn nested_attach_of_same_tracer_is_a_noop() {
        let t = Tracer::new();
        let _at = t.attach();
        let outer = span("outer");
        {
            let _again = t.attach();
            let _inner = span("inner");
        }
        drop(outer);
        let records = t.records();
        let inner = records.iter().find(|r| r.name == "inner").unwrap();
        let outer = records.iter().find(|r| r.name == "outer").unwrap();
        // The no-op re-attach kept the parent stack alive.
        assert_eq!(inner.parent, Some(outer.id));
    }

    #[test]
    fn attach_over_a_different_tracer_suspends_and_restores() {
        let a = Tracer::new();
        let b = Tracer::new();
        let _aa = a.attach();
        let span_a = span("on-a");
        {
            let _ab = b.attach();
            let _s = span("on-b");
        }
        drop(span_a);
        assert_eq!(a.records().len(), 1);
        assert_eq!(a.records()[0].name, "on-a");
        assert_eq!(b.records().len(), 1);
        assert_eq!(b.records()[0].name, "on-b");
    }

    #[test]
    fn panic_unwinding_closes_spans_lifo_with_no_orphans() {
        let t = Tracer::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _at = t.attach();
            let _outer = span("outer");
            let _mid = span("mid");
            let _leaf = span("leaf");
            panic!("boom");
        }));
        assert!(result.is_err());
        let records = t.records();
        assert_eq!(records.len(), 3, "every open span closed during unwind");
        let by_name = |n: &str| records.iter().find(|r| r.name == n).unwrap();
        assert_eq!(by_name("leaf").parent, Some(by_name("mid").id));
        assert_eq!(by_name("mid").parent, Some(by_name("outer").id));
        assert_eq!(by_name("outer").parent, None);
        // Well-formedness: every non-root parent id names a recorded span.
        for r in &records {
            if let Some(p) = r.parent {
                assert!(records.iter().any(|q| q.id == p), "orphan parent {p}");
            }
        }
        // The thread context is gone; later spans don't leak into it.
        assert!(!enabled());
    }

    #[test]
    fn worker_threads_get_distinct_tids() {
        let t = Tracer::new();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _at = t.attach();
                    let _s = span("w");
                });
            }
        });
        let records = t.records();
        assert_eq!(records.len(), 2);
        assert_ne!(records[0].tid, records[1].tid);
    }

    #[test]
    fn span_guard_exposes_its_id_when_enabled() {
        assert_eq!(span("no tracer").id(), None);
        let t = Tracer::new();
        let _at = t.attach();
        let s = span("parent-to-be");
        let id = s.id().expect("enabled span has an id");
        drop(s);
        assert_eq!(t.records()[0].id, id);
    }

    #[test]
    fn inject_remote_remaps_ids_and_reparents_roots() {
        let t = Tracer::new();
        let dispatch = t.span("job.dispatch");
        let dispatch_id = dispatch.id().unwrap();
        drop(dispatch);
        // A "remote" batch whose ids collide with local ones on purpose.
        let remote = vec![
            OwnedSpan {
                id: 1,
                parent: None,
                name: "worker.block".to_string(),
                start_ns: 100,
                dur_ns: 900,
                tid: 1,
                args: Vec::new(),
            },
            OwnedSpan {
                id: 2,
                parent: Some(1),
                name: "engine.job".to_string(),
                start_ns: 200,
                dur_ns: 500,
                tid: 1,
                args: Vec::new(),
            },
        ];
        let threads = vec![(1u64, "session".to_string())];
        t.inject_remote(
            "isex worker w0",
            Some(dispatch_id),
            1_000,
            &remote,
            &threads,
        );
        let processes = t.remote_processes();
        assert_eq!(processes.len(), 1);
        let spans = &processes[0].spans;
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "worker.block").unwrap();
        let child = spans.iter().find(|s| s.name == "engine.job").unwrap();
        // Fresh ids, disjoint from the local span's.
        assert_ne!(root.id, dispatch_id);
        assert_ne!(child.id, dispatch_id);
        // The remote root now parents onto the local dispatch span; the
        // internal link is rewritten consistently.
        assert_eq!(root.parent, Some(dispatch_id));
        assert_eq!(child.parent, Some(root.id));
        // Timestamps shifted onto the local timeline.
        assert_eq!(root.start_ns, 1_100);
        // The Chrome export switches to multi-process form.
        let text = t.chrome_trace();
        let parsed: serde::Value = serde_json::parse(&text).unwrap();
        let pids: std::collections::BTreeSet<u64> = parsed
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|e| e.get("pid").and_then(serde::Value::as_u64))
            .collect();
        assert_eq!(pids.len(), 2, "local + one remote process: {text}");
        // A second batch from the same worker merges into the same lane.
        t.inject_remote(
            "isex worker w0",
            Some(dispatch_id),
            0,
            &remote[..1],
            &threads,
        );
        assert_eq!(t.remote_processes().len(), 1);
        assert_eq!(t.remote_processes()[0].spans.len(), 3);
    }

    #[test]
    fn trace_id_is_carried() {
        let t = Tracer::with_trace_id("abc123");
        assert_eq!(t.trace_id(), Some("abc123"));
        assert_eq!(Tracer::new().trace_id(), None);
    }

    #[test]
    fn args_closure_runs_only_when_enabled() {
        let ran = std::cell::Cell::new(false);
        {
            let _s = span_with("x", || {
                ran.set(true);
                vec![]
            });
        }
        assert!(!ran.get(), "no tracer attached: args must not be built");
        let t = Tracer::new();
        let _at = t.attach();
        {
            let _s = span_with("x", || {
                ran.set(true);
                vec![("k", "v".to_string())]
            });
        }
        assert!(ran.get());
    }
}
