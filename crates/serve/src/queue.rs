//! The bounded job queue between connection handlers and engine workers.
//!
//! Connection threads `try_push` (never block — a full queue is an
//! immediate 503 with `Retry-After`, which is the backpressure contract),
//! then wait on the job's completion slot with a deadline. Engine workers
//! `pop` (blocking), run the flow with the job's [`CancelToken`], and
//! `complete` the slot. Waiting never cancels by itself: the job table
//! trips the token when the last waiter of a non-detached job leaves, and
//! the run's deadline timer trips it at the compute budget.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use isex_engine::{lock_unpoisoned, CancelToken};

use crate::cache::CachedResult;
use crate::events::EventRing;
use crate::protocol::ExploreRequest;

/// How a job ended, delivered to its waiting connection thread.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The flow ran to completion.
    Done(Arc<CachedResult>),
    /// The run was abandoned because the job's token tripped (deadline).
    Cancelled,
    /// The run died (worker panic); the payload is the stringified cause.
    Failed(String),
    /// The job never ran: the server is shutting down.
    Rejected(&'static str),
}

/// One queued exploration with its completion slot.
pub struct Job {
    /// The resolved request.
    pub request: ExploreRequest,
    /// The request's canonical cache key.
    pub key: String,
    /// The request's trace ID (minted or client-supplied), stamped on the
    /// run's spans and events and echoed in the response.
    pub trace_id: String,
    /// Trips when the waiter gives up; workers check it between engine jobs.
    pub cancel: CancelToken,
    /// The job's bounded live event stream (`GET /v1/jobs/{id}/events`).
    /// Fed by the worker running the job; closed at completion.
    pub events: EventRing,
    /// When the job entered the queue (for queue-wait telemetry).
    pub enqueued_at: Instant,
    /// Set once a worker has dequeued the job (queued vs running, for the
    /// async status endpoint).
    started: AtomicBool,
    /// The run's compute budget, absolute: the watchdog trips `cancel` here
    /// so the engine returns a best-so-far partial *before* the waiter's
    /// own (slightly later) HTTP deadline. `None` = unbudgeted.
    deadline: Mutex<Option<Instant>>,
    outcome: Mutex<Option<JobOutcome>>,
    ready: Condvar,
}

impl Job {
    /// A fresh job for `request`.
    pub fn new(request: ExploreRequest, key: String, trace_id: String) -> Arc<Job> {
        Arc::new(Job {
            request,
            key,
            trace_id,
            cancel: CancelToken::new(),
            events: EventRing::default(),
            enqueued_at: Instant::now(),
            started: AtomicBool::new(false),
            deadline: Mutex::new(None),
            outcome: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    /// Grants the run compute budget until `deadline`. A later waiter with
    /// a longer budget *extends* the deadline (coalescing must not shorten
    /// the run for waiters who asked for more); it never shrinks.
    pub fn extend_deadline(&self, deadline: Instant) {
        let mut slot = lock_unpoisoned(&self.deadline);
        *slot = Some(match *slot {
            Some(existing) => existing.max(deadline),
            None => deadline,
        });
    }

    /// The run's current compute deadline, if budgeted.
    pub fn deadline(&self) -> Option<Instant> {
        *lock_unpoisoned(&self.deadline)
    }

    /// Marks the job as picked up by a worker.
    pub fn mark_started(&self) {
        self.started.store(true, Ordering::Release);
    }

    /// Whether a worker has dequeued the job yet.
    pub fn is_started(&self) -> bool {
        self.started.load(Ordering::Acquire)
    }

    /// Delivers the outcome and wakes the waiter. First delivery wins.
    /// Also closes the job's event stream: however the job ended —
    /// completed, cancelled, failed, or rejected at shutdown — a live
    /// `/events` poller is woken with `closed: true` instead of timing
    /// out against a run that will never emit again.
    pub fn complete(&self, outcome: JobOutcome) {
        let mut slot = lock_unpoisoned(&self.outcome);
        if slot.is_none() {
            *slot = Some(outcome);
        }
        self.ready.notify_all();
        drop(slot);
        self.events.close();
    }

    /// A copy of the outcome, if delivered. Reading never consumes the
    /// slot, so any number of observers (coalesced waiters, async status
    /// pollers) can each read the same result.
    pub fn peek_outcome(&self) -> Option<JobOutcome> {
        lock_unpoisoned(&self.outcome).clone()
    }

    /// Waits for the outcome until `deadline`, *without* consuming it and
    /// *without* cancelling on timeout — the shared-wait discipline for
    /// coalesced waiters and long-poll observers, where one impatient
    /// waiter must not abandon the run for everyone else. Cancellation is
    /// the job table's call (last waiter out, non-detached job).
    pub fn wait_shared_until(&self, deadline: Instant) -> Option<JobOutcome> {
        let mut slot = lock_unpoisoned(&self.outcome);
        loop {
            if let Some(outcome) = slot.clone() {
                return Some(outcome);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self
                .ready
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            slot = next;
        }
    }
}

/// Why [`JobQueue::try_push`] refused a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushRefused {
    /// The queue is at capacity.
    Full,
    /// The shutdown drain closed the queue: no worker will pop it again.
    Closed,
}

struct Waiting {
    jobs: VecDeque<Arc<Job>>,
    closed: bool,
}

/// A bounded MPMC queue with an in-flight counter and job accounting.
pub struct JobQueue {
    queue: Mutex<Waiting>,
    available: Condvar,
    capacity: usize,
    in_flight: AtomicUsize,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_cancelled: AtomicU64,
    last_failure: Mutex<Option<String>>,
}

impl JobQueue {
    /// A queue holding at most `capacity` *waiting* jobs (in-flight jobs
    /// have already left the queue and do not count).
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            queue: Mutex::new(Waiting {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
            in_flight: AtomicUsize::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            last_failure: Mutex::new(None),
        }
    }

    /// Enqueues without blocking; a full or closed queue is the caller's
    /// 503.
    pub fn try_push(&self, job: Arc<Job>) -> Result<(), PushRefused> {
        let mut queue = lock_unpoisoned(&self.queue);
        if queue.closed {
            return Err(PushRefused::Closed);
        }
        if queue.jobs.len() >= self.capacity {
            return Err(PushRefused::Full);
        }
        queue.jobs.push_back(job);
        drop(queue);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until a job is available or `shutdown` is set. Returns
    /// `None` on shutdown *even if jobs remain queued* — the drain path
    /// rejects those explicitly so their waiters get an immediate 503
    /// instead of a silent run.
    pub fn pop(&self, shutdown: &AtomicBool) -> Option<Arc<Job>> {
        let mut queue = lock_unpoisoned(&self.queue);
        loop {
            if shutdown.load(Ordering::Acquire) {
                return None;
            }
            if let Some(job) = queue.jobs.pop_front() {
                return Some(job);
            }
            let (next, _) = self
                .available
                .wait_timeout(queue, Duration::from_millis(100))
                .unwrap_or_else(PoisonError::into_inner);
            queue = next;
        }
    }

    /// Wakes every blocked [`pop`](JobQueue::pop) (used at shutdown).
    pub fn wake_all(&self) {
        self.available.notify_all();
    }

    /// Closes the queue and removes and returns every queued job
    /// (shutdown drain); every later [`try_push`](JobQueue::try_push) is
    /// refused with [`PushRefused::Closed`].
    pub fn drain(&self) -> Vec<Arc<Job>> {
        let mut queue = lock_unpoisoned(&self.queue);
        queue.closed = true;
        queue.jobs.drain(..).collect()
    }

    /// Jobs waiting in the queue.
    pub fn depth(&self) -> usize {
        lock_unpoisoned(&self.queue).jobs.len()
    }

    /// The waiting-room size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently running on a worker.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Jobs that ran to completion.
    pub fn jobs_completed(&self) -> u64 {
        self.jobs_completed.load(Ordering::Relaxed)
    }

    /// Jobs whose run died (worker panic — explicit or detected at drop).
    pub fn jobs_failed(&self) -> u64 {
        self.jobs_failed.load(Ordering::Relaxed)
    }

    /// Jobs abandoned via cancellation (deadline or shutdown).
    pub fn jobs_cancelled(&self) -> u64 {
        self.jobs_cancelled.load(Ordering::Relaxed)
    }

    /// The most recent failure cause, for `/metrics`.
    pub fn last_failure(&self) -> Option<String> {
        lock_unpoisoned(&self.last_failure).clone()
    }

    /// Marks a job as running for the lifetime of the returned guard.
    pub fn start_job(&self) -> InFlightGuard<'_> {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        InFlightGuard {
            queue: self,
            recorded: false,
        }
    }

    fn record_failure(&self, cause: &str) {
        self.jobs_failed.fetch_add(1, Ordering::Relaxed);
        *lock_unpoisoned(&self.last_failure) = Some(cause.to_string());
    }
}

/// RAII in-flight marker with outcome accounting.
///
/// The worker reports how the job ended via [`complete_ok`](InFlightGuard::complete_ok),
/// [`complete_cancelled`](InFlightGuard::complete_cancelled) or
/// [`complete_failed`](InFlightGuard::complete_failed). If the guard is
/// instead dropped during a panic unwind — a failure path nobody reported —
/// the drop records the job as *failed*, not silently finished, so
/// `/metrics` can always tell `jobs_failed` from `jobs_completed`.
pub struct InFlightGuard<'q> {
    queue: &'q JobQueue,
    recorded: bool,
}

impl InFlightGuard<'_> {
    /// Records a clean completion.
    pub fn complete_ok(mut self) {
        self.queue.jobs_completed.fetch_add(1, Ordering::Relaxed);
        self.recorded = true;
    }

    /// Records a cancelled run.
    pub fn complete_cancelled(mut self) {
        self.queue.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
        self.recorded = true;
    }

    /// Records a failed run with its cause.
    pub fn complete_failed(mut self, cause: &str) {
        self.queue.record_failure(cause);
        self.recorded = true;
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.queue.in_flight.fetch_sub(1, Ordering::AcqRel);
        if !self.recorded {
            // Nobody reported an outcome: the job died on an unexpected
            // path. Distinguish an active unwind (worker panic) from a
            // plain early return so the cause in `/metrics` is honest.
            let cause = if std::thread::panicking() {
                "worker panicked while running job (outcome unreported)"
            } else {
                "job dropped without a reported outcome"
            };
            self.queue.record_failure(cause);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ExploreRequest;

    fn job() -> Arc<Job> {
        Job::new(ExploreRequest::default(), "k".into(), "t0".into())
    }

    #[test]
    fn push_beyond_capacity_is_refused() {
        let q = JobQueue::new(2);
        assert!(q.try_push(job()).is_ok());
        assert!(q.try_push(job()).is_ok());
        assert_eq!(q.try_push(job()), Err(PushRefused::Full));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn push_after_the_shutdown_drain_is_refused() {
        let q = JobQueue::new(4);
        q.try_push(job()).unwrap();
        assert_eq!(q.drain().len(), 1);
        // A connection thread that passed its shutdown check before the
        // drain must not strand its job in a queue no worker will pop.
        assert_eq!(q.try_push(job()), Err(PushRefused::Closed));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn pop_returns_none_on_shutdown_with_jobs_still_queued() {
        let q = JobQueue::new(4);
        q.try_push(job()).unwrap();
        let shutdown = AtomicBool::new(true);
        assert!(q.pop(&shutdown).is_none());
        assert_eq!(q.drain().len(), 1);
    }

    #[test]
    fn completion_wakes_the_waiter() {
        let j = job();
        let j2 = Arc::clone(&j);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            j2.complete(JobOutcome::Rejected("test"));
        });
        let got = j.wait_shared_until(Instant::now() + Duration::from_secs(5));
        t.join().unwrap();
        assert!(matches!(got, Some(JobOutcome::Rejected(_))));
    }

    #[test]
    fn in_flight_guard_counts() {
        let q = JobQueue::new(1);
        assert_eq!(q.in_flight(), 0);
        {
            let g = q.start_job();
            assert_eq!(q.in_flight(), 1);
            g.complete_ok();
        }
        assert_eq!(q.in_flight(), 0);
        assert_eq!(q.jobs_completed(), 1);
        assert_eq!(q.jobs_failed(), 0);
    }

    #[test]
    fn guard_records_each_outcome_kind() {
        let q = JobQueue::new(1);
        q.start_job().complete_ok();
        q.start_job().complete_cancelled();
        q.start_job().complete_failed("engine exploded");
        assert_eq!(
            (q.jobs_completed(), q.jobs_cancelled(), q.jobs_failed()),
            (1, 1, 1)
        );
        assert_eq!(q.last_failure().as_deref(), Some("engine exploded"));
    }

    #[test]
    fn guard_dropped_during_panic_counts_as_failed() {
        let q = JobQueue::new(1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = q.start_job();
            panic!("worker died mid-job");
        }));
        assert!(caught.is_err());
        assert_eq!(q.in_flight(), 0, "guard still decrements on unwind");
        assert_eq!(q.jobs_failed(), 1, "unreported panic is a failure");
        assert_eq!(q.jobs_completed(), 0);
        assert!(
            q.last_failure().unwrap().contains("panicked"),
            "cause names the panic"
        );
    }

    #[test]
    fn shared_wait_neither_consumes_nor_cancels() {
        let j = job();
        // An expiring shared wait leaves the run alone: no cancellation.
        let deadline = Instant::now() + Duration::from_millis(10);
        assert!(j.wait_shared_until(deadline).is_none());
        assert!(!j.cancel.is_cancelled());
        // Every observer sees the same delivered outcome.
        j.complete(JobOutcome::Rejected("test"));
        for _ in 0..3 {
            assert!(matches!(
                j.wait_shared_until(Instant::now()),
                Some(JobOutcome::Rejected(_))
            ));
            assert!(matches!(j.peek_outcome(), Some(JobOutcome::Rejected(_))));
        }
    }

    #[test]
    fn started_flag_flips_once_marked() {
        let j = job();
        assert!(!j.is_started());
        j.mark_started();
        assert!(j.is_started());
    }

    #[test]
    fn poisoned_queue_lock_recovers() {
        let q = Arc::new(JobQueue::new(4));
        let q2 = Arc::clone(&q);
        // Poison the queue mutex by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _guard = lock_unpoisoned(&q2.queue);
            panic!("poison");
        })
        .join();
        // Every queue operation must still work.
        assert!(q.try_push(job()).is_ok());
        assert_eq!(q.depth(), 1);
        assert_eq!(q.drain().len(), 1);
    }
}
