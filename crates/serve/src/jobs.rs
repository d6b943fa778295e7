//! The job registry: every exploration the server admits, from admission
//! to retention, behind one lock.
//!
//! Every exploration — synchronous `/v1/explore` or asynchronous
//! `POST /v1/jobs` — is admitted by one call, [`JobRegistry::admit`],
//! which under the registry's one mutex either **coalesces** the
//! submission onto a live identical [`Job`], **enqueues** a fresh one in
//! the bounded waiting room, or **refuses** it (room full, or closed by
//! the shutdown drain) having registered nothing. So at most one engine
//! run per canonical key is in flight at a time, and a refused submission
//! can never strand a waiter: no identical request can coalesce onto a job
//! that was not enqueued. Coalesced waiters block on the one completion
//! slot and all receive the identical result; with a bitwise-deterministic
//! engine, the coalesced run's answer is exactly what a second run would
//! have produced.
//!
//! Engine workers [`pop`](JobRegistry::pop) the waiting room (blocking),
//! run the flow with the job's [`CancelToken`], and complete the slot.
//! Waiting never cancels by itself. A job submitted synchronously is
//! abandoned (its token tripped) only when its *last* waiter gives up:
//! one impatient client among N must not kill the run for the rest. A job
//! submitted via `POST /v1/jobs` is **detached**: it runs to completion
//! with zero waiters, because the submitter's contract is "come back
//! later". Coalescing a detached submission onto a live synchronous job
//! promotes that job to detached. The run's deadline timer trips the token
//! at the compute budget.
//!
//! Finished jobs stay addressable by ID in a bounded ring (`jobs_keep`)
//! so status polls keep working after completion; the oldest finished
//! jobs are dropped beyond it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use isex_engine::{lock_unpoisoned, CancelToken};

use crate::cache::CachedResult;
use crate::events::EventRing;
use crate::protocol::ExploreRequest;

/// How a job ended, delivered to its waiters.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The flow ran to completion.
    Done(Arc<CachedResult>),
    /// The run was abandoned because the job's token tripped while it
    /// was still queued.
    Cancelled,
    /// The run died (worker panic); the payload is the stringified cause.
    Failed(String),
    /// The job never ran: the server is shutting down.
    Rejected(&'static str),
}

/// Lifecycle phases surfaced by `GET /v1/jobs/{id}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, not yet picked up by a worker.
    Queued,
    /// On a worker now.
    Running,
    /// Finished with a result.
    Done,
    /// Abandoned via its cancel token.
    Cancelled,
    /// The run died (worker panic or total block failure).
    Failed,
    /// Never ran (shutdown drain).
    Rejected,
}

impl JobStatus {
    /// The wire name of the status.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Failed => "failed",
            JobStatus::Rejected => "rejected",
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// One admitted exploration with its completion slot.
pub struct Job {
    /// The server-assigned job ID (`j-<seq>`).
    pub id: String,
    /// The resolved request.
    pub request: ExploreRequest,
    /// The request's canonical key (shared by every coalesced submitter).
    pub key: String,
    /// The request's trace ID (minted or client-supplied), stamped on the
    /// run's spans and events and echoed in the response.
    pub trace_id: String,
    /// Where a `Done` outcome came from: `"run"` for queued jobs,
    /// `"memory"`/`"store"` for jobs admitted pre-completed from a cache
    /// tier.
    pub origin: &'static str,
    /// Trips when the last waiter gives up or the compute budget runs
    /// out; workers check it between engine jobs.
    pub cancel: CancelToken,
    /// The job's bounded live event stream (`GET /v1/jobs/{id}/events`).
    /// Fed by the worker running the job; closed at completion.
    pub events: EventRing,
    /// Set once a worker has dequeued the job (queued vs running).
    started: AtomicBool,
    /// Whether the job runs to completion without waiters.
    detached: AtomicBool,
    /// Synchronous waiters currently blocked on the outcome.
    waiters: AtomicUsize,
    /// The run's compute budget, absolute: the watchdog trips `cancel` here
    /// so the engine returns a best-so-far partial *before* the waiter's
    /// own (slightly later) HTTP deadline. `None` = unbudgeted.
    deadline: Mutex<Option<Instant>>,
    outcome: Mutex<Option<JobOutcome>>,
    ready: Condvar,
}

impl Job {
    fn new(
        id: String,
        request: ExploreRequest,
        key: String,
        trace_id: String,
        origin: &'static str,
        detached: bool,
    ) -> Arc<Job> {
        Arc::new(Job {
            id,
            request,
            key,
            trace_id,
            origin,
            cancel: CancelToken::new(),
            events: EventRing::default(),
            started: AtomicBool::new(false),
            detached: AtomicBool::new(detached),
            waiters: AtomicUsize::new(0),
            deadline: Mutex::new(None),
            outcome: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    /// Grants the run compute budget until `deadline`. A later waiter with
    /// a longer budget *extends* the deadline (coalescing must not shorten
    /// the run for waiters who asked for more); it never shrinks.
    fn extend_deadline(&self, deadline: Instant) {
        let mut slot = lock_unpoisoned(&self.deadline);
        *slot = Some(slot.map_or(deadline, |existing| existing.max(deadline)));
    }

    /// The run's current compute deadline, if budgeted.
    pub fn deadline(&self) -> Option<Instant> {
        *lock_unpoisoned(&self.deadline)
    }

    /// Whether the job runs to completion without waiters.
    pub fn is_detached(&self) -> bool {
        self.detached.load(Ordering::Acquire)
    }

    /// The job's lifecycle phase, as reported by the status endpoint.
    pub fn status(&self) -> JobStatus {
        match self.peek_outcome() {
            None if self.started.load(Ordering::Acquire) => JobStatus::Running,
            None => JobStatus::Queued,
            Some(JobOutcome::Done(_)) => JobStatus::Done,
            Some(JobOutcome::Cancelled) => JobStatus::Cancelled,
            Some(JobOutcome::Failed(_)) => JobStatus::Failed,
            Some(JobOutcome::Rejected(_)) => JobStatus::Rejected,
        }
    }

    /// Delivers the outcome and wakes every waiter. First delivery wins.
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
    /// the [`WaitGuard`]'s call (last waiter out, non-detached job).
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

    /// Begins a synchronous wait on the job; the guard's drop ends it,
    /// cancelling the run when appropriate (last waiter out, non-detached,
    /// still unfinished).
    pub fn begin_wait(self: &Arc<Job>) -> WaitGuard {
        self.waiters.fetch_add(1, Ordering::AcqRel);
        WaitGuard(Arc::clone(self))
    }
}

/// RAII registration of one synchronous waiter (see [`Job::begin_wait`]).
pub struct WaitGuard(Arc<Job>);

impl Drop for WaitGuard {
    fn drop(&mut self) {
        let job = &self.0;
        if job.waiters.fetch_sub(1, Ordering::AcqRel) == 1
            && !job.is_detached()
            && job.peek_outcome().is_none()
        {
            // Last waiter out on a job nobody detached: abandon the run at
            // the next engine-job boundary instead of burning a worker on
            // an answer no one will read.
            job.cancel.cancel();
        }
    }
}

/// A submission [`JobRegistry::admit`] accepted.
pub struct Admitted {
    /// The job the submitter waits on or polls.
    pub job: Arc<Job>,
    /// Whether the submission joined an identical job already in flight
    /// (`false`: a fresh job, now in the waiting room).
    pub coalesced: bool,
}

/// Why [`JobRegistry::admit`] refused a submission. A refusal registers
/// nothing: no ID, no coalescing target, no queued job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refused {
    /// The waiting room is at capacity.
    Full,
    /// The shutdown drain closed the waiting room: no worker will pop it
    /// again.
    Closed,
}

/// Aggregate counters for the `/metrics` `jobs` section.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Jobs admitted (coalesced submissions excluded).
    pub submitted: u64,
    /// Submissions answered by an already-in-flight job.
    pub coalesced: u64,
    /// Jobs currently addressable by ID.
    pub tracked: u64,
    /// Jobs still queued or running.
    pub active: u64,
    /// Synchronous waiters currently blocked on active jobs — the live
    /// audience that coalescing is multiplexing one engine run across.
    pub waiters: u64,
}

struct Inner {
    next_seq: u64,
    by_id: HashMap<String, Arc<Job>>,
    active_by_key: HashMap<String, Arc<Job>>,
    /// Job IDs in admission order, for bounded retention.
    order: VecDeque<String>,
    /// The waiting room: admitted jobs no worker has popped yet.
    waiting: VecDeque<Arc<Job>>,
    closed: bool,
    submitted: u64,
    coalesced: u64,
    refused_full: u64,
}

impl Inner {
    /// Mints the next ID and makes `job` addressable by it.
    fn register(&mut self, make: impl FnOnce(String) -> Arc<Job>) -> Arc<Job> {
        let job = make(format!("j-{}", self.next_seq));
        self.next_seq += 1;
        self.submitted += 1;
        self.by_id.insert(job.id.clone(), Arc::clone(&job));
        self.order.push_back(job.id.clone());
        job
    }
}

/// The registry itself. One per server.
pub struct JobRegistry {
    inner: Mutex<Inner>,
    available: Condvar,
    capacity: usize,
    keep: usize,
    in_flight: AtomicUsize,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    last_failure: Mutex<Option<String>>,
}

impl JobRegistry {
    /// A registry whose waiting room holds at most `capacity` jobs (running
    /// jobs have left it and do not count), retaining at most `keep`
    /// finished jobs for status polls (active jobs are always retained).
    pub fn new(capacity: usize, keep: usize) -> Self {
        JobRegistry {
            inner: Mutex::new(Inner {
                next_seq: 1,
                by_id: HashMap::new(),
                active_by_key: HashMap::new(),
                order: VecDeque::new(),
                waiting: VecDeque::new(),
                closed: false,
                submitted: 0,
                coalesced: 0,
                refused_full: 0,
            }),
            available: Condvar::new(),
            capacity,
            keep,
            in_flight: AtomicUsize::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            last_failure: Mutex::new(None),
        }
    }

    /// Admits an exploration, never blocking. If an identical one (same
    /// canonical key) is in flight and can still answer, the submission
    /// coalesces onto it; otherwise a fresh job enters the waiting room,
    /// or — room full or closed — the submission is refused with nothing
    /// registered. Either way an admitted job's compute deadline is at
    /// least `budget`.
    pub fn admit(
        &self,
        request: ExploreRequest,
        key: String,
        trace_id: String,
        detached: bool,
        budget: Instant,
    ) -> Result<Admitted, Refused> {
        let mut inner = lock_unpoisoned(&self.inner);
        self.sweep(&mut inner);
        if let Some(existing) = inner.active_by_key.get(&key) {
            // Coalesce only onto a run that can still produce an answer: a
            // tripped token means the run is being abandoned and a new
            // submitter deserves a fresh run, not a guaranteed Cancelled.
            if existing.peek_outcome().is_none() && !existing.cancel.is_cancelled() {
                let job = Arc::clone(existing);
                inner.coalesced += 1;
                if detached {
                    job.detached.store(true, Ordering::Release);
                }
                job.extend_deadline(budget);
                return Ok(Admitted {
                    job,
                    coalesced: true,
                });
            }
        }
        if inner.closed {
            return Err(Refused::Closed);
        }
        if inner.waiting.len() >= self.capacity {
            inner.refused_full += 1;
            return Err(Refused::Full);
        }
        let job =
            inner.register(|id| Job::new(id, request, key.clone(), trace_id, "run", detached));
        job.extend_deadline(budget);
        inner.active_by_key.insert(key, Arc::clone(&job));
        inner.waiting.push_back(Arc::clone(&job));
        drop(inner);
        self.available.notify_one();
        Ok(Admitted {
            job,
            coalesced: false,
        })
    }

    /// Registers a pre-completed job — the submission was answered from a
    /// cache or the store (`origin`), so the job ID must resolve without
    /// anything entering the waiting room. The job is born finished.
    pub fn admit_completed(
        &self,
        request: ExploreRequest,
        key: String,
        outcome: JobOutcome,
        origin: &'static str,
    ) -> Arc<Job> {
        let mut inner = lock_unpoisoned(&self.inner);
        self.sweep(&mut inner);
        let job = inner.register(|id| Job::new(id, request, key, String::new(), origin, true));
        job.started.store(true, Ordering::Release);
        job.complete(outcome);
        job
    }

    /// Blocks until a job is waiting or `shutdown` is set, and marks the
    /// popped job running. Returns `None` on shutdown *even if jobs remain
    /// queued* — the [`drain`](JobRegistry::drain) rejects those
    /// explicitly so their waiters get an immediate 503 instead of a
    /// silent run.
    pub fn pop(&self, shutdown: &AtomicBool) -> Option<Arc<Job>> {
        let mut inner = lock_unpoisoned(&self.inner);
        loop {
            if shutdown.load(Ordering::Acquire) {
                return None;
            }
            if let Some(job) = inner.waiting.pop_front() {
                job.started.store(true, Ordering::Release);
                return Some(job);
            }
            let (next, _) = self
                .available
                .wait_timeout(inner, Duration::from_millis(100))
                .unwrap_or_else(PoisonError::into_inner);
            inner = next;
        }
    }

    /// Wakes every blocked [`pop`](JobRegistry::pop) (used at shutdown).
    pub fn wake_all(&self) {
        self.available.notify_all();
    }

    /// The shutdown drain: closes the waiting room and rejects every job
    /// still in it, so its waiters get an immediate 503. Every later
    /// [`admit`](JobRegistry::admit) of a fresh job is refused with
    /// [`Refused::Closed`]. Returns the number of jobs rejected.
    pub fn drain(&self) -> usize {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.closed = true;
        let drained = inner.waiting.len();
        for job in inner.waiting.drain(..) {
            job.complete(JobOutcome::Rejected("server shutting down"));
        }
        drained
    }

    /// Resolves a job ID.
    pub fn get(&self, id: &str) -> Option<Arc<Job>> {
        let mut inner = lock_unpoisoned(&self.inner);
        self.sweep(&mut inner);
        inner.by_id.get(id).cloned()
    }

    /// Jobs in the waiting room.
    pub fn depth(&self) -> usize {
        lock_unpoisoned(&self.inner).waiting.len()
    }

    /// The waiting-room size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Submissions refused because the waiting room was full.
    pub fn refused_full(&self) -> u64 {
        lock_unpoisoned(&self.inner).refused_full
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

    /// The most recent failure cause, for `/metrics`.
    pub fn last_failure(&self) -> Option<String> {
        lock_unpoisoned(&self.last_failure).clone()
    }

    /// Marks a job as running for the lifetime of the returned guard.
    pub fn start_job(&self) -> InFlightGuard<'_> {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        InFlightGuard {
            registry: self,
            recorded: false,
        }
    }

    /// Current counters.
    pub fn stats(&self) -> JobStats {
        let mut inner = lock_unpoisoned(&self.inner);
        self.sweep(&mut inner);
        JobStats {
            submitted: inner.submitted,
            coalesced: inner.coalesced,
            tracked: inner.by_id.len() as u64,
            active: inner.active_by_key.len() as u64,
            waiters: inner
                .active_by_key
                .values()
                .map(|job| job.waiters.load(Ordering::Acquire) as u64)
                .sum(),
        }
    }

    fn record_failure(&self, cause: &str) {
        self.jobs_failed.fetch_add(1, Ordering::Relaxed);
        *lock_unpoisoned(&self.last_failure) = Some(cause.to_string());
    }

    /// Drops finished keys from the coalescing map and prunes finished
    /// jobs beyond the retention cap. Runs opportunistically under the
    /// registry lock — it is O(completed since last sweep), not O(table).
    fn sweep(&self, inner: &mut Inner) {
        inner
            .active_by_key
            .retain(|_, job| job.peek_outcome().is_none());
        while inner.order.len() > self.keep {
            // Only finished jobs may be dropped; an active job at the
            // front (a long run admitted early) pins the ring until done.
            let Some(front) = inner.order.front().cloned() else {
                break;
            };
            let finished = inner
                .by_id
                .get(&front)
                .map(|job| job.status().is_terminal())
                .unwrap_or(true);
            if !finished {
                break;
            }
            inner.order.pop_front();
            inner.by_id.remove(&front);
        }
    }
}

/// RAII in-flight marker with outcome accounting.
///
/// The worker reports how the job ended via
/// [`complete_ok`](InFlightGuard::complete_ok) or
/// [`complete_failed`](InFlightGuard::complete_failed). If the guard is
/// instead dropped during a panic unwind — a failure path nobody reported —
/// the drop records the job as *failed*, not silently finished, so
/// `/metrics` can always tell `jobs_failed` from `jobs_completed`.
pub struct InFlightGuard<'r> {
    registry: &'r JobRegistry,
    recorded: bool,
}

impl InFlightGuard<'_> {
    /// Records a clean completion.
    pub fn complete_ok(mut self) {
        self.registry.jobs_completed.fetch_add(1, Ordering::Relaxed);
        self.recorded = true;
    }

    /// Records a failed run with its cause.
    pub fn complete_failed(mut self, cause: &str) {
        self.registry.record_failure(cause);
        self.recorded = true;
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.registry.in_flight.fetch_sub(1, Ordering::AcqRel);
        if !self.recorded {
            // Nobody reported an outcome: the job died on an unexpected
            // path. Distinguish an active unwind (worker panic) from a
            // plain early return so the cause in `/metrics` is honest.
            let cause = if std::thread::panicking() {
                "worker panicked while running job (outcome unreported)"
            } else {
                "job dropped without a reported outcome"
            };
            self.registry.record_failure(cause);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(3600)
    }

    fn admit(registry: &JobRegistry, seed: u64, detached: bool) -> Result<Admitted, Refused> {
        let request = ExploreRequest {
            seed,
            ..ExploreRequest::default()
        };
        let key = request.canonical_key();
        registry.admit(request, key, "t".into(), detached, far())
    }

    fn fresh(registry: &JobRegistry, seed: u64, detached: bool) -> Arc<Job> {
        let admitted = admit(registry, seed, detached).expect("room to admit");
        assert!(!admitted.coalesced, "seed {seed} should start a fresh job");
        admitted.job
    }

    #[test]
    fn identical_submissions_coalesce_onto_one_job() {
        let registry = JobRegistry::new(16, 16);
        let first = admit(&registry, 7, false).unwrap();
        let second = admit(&registry, 7, false).unwrap();
        assert!(!first.coalesced);
        assert!(second.coalesced);
        assert!(Arc::ptr_eq(&first.job, &second.job));
        let stats = registry.stats();
        assert_eq!((stats.submitted, stats.coalesced), (1, 1));
        assert_eq!(registry.depth(), 1, "a coalesced submission queues nothing");
    }

    #[test]
    fn different_keys_get_different_jobs() {
        let registry = JobRegistry::new(16, 16);
        let a = fresh(&registry, 1, false);
        let b = fresh(&registry, 2, false);
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn finished_jobs_do_not_capture_new_submissions() {
        let registry = JobRegistry::new(16, 16);
        let first = fresh(&registry, 7, false);
        first.complete(JobOutcome::Failed("boom".into()));
        let second = admit(&registry, 7, false).unwrap();
        assert!(
            !second.coalesced,
            "a finished job must not swallow a fresh request"
        );
    }

    #[test]
    fn cancelled_jobs_do_not_capture_new_submissions() {
        let registry = JobRegistry::new(16, 16);
        let first = fresh(&registry, 7, false);
        first.cancel.cancel();
        assert!(!admit(&registry, 7, false).unwrap().coalesced);
    }

    #[test]
    fn last_sync_waiter_out_cancels_a_non_detached_job() {
        let registry = JobRegistry::new(16, 16);
        let job = fresh(&registry, 7, false);
        {
            let _w1 = job.begin_wait();
            {
                let _w2 = job.begin_wait();
                assert_eq!(registry.stats().waiters, 2, "both waiters counted");
            }
            assert!(
                !job.cancel.is_cancelled(),
                "one waiter leaving must not cancel while another remains"
            );
            assert_eq!(registry.stats().waiters, 1);
        }
        assert!(job.cancel.is_cancelled(), "last waiter out cancels");
    }

    #[test]
    fn detached_jobs_survive_all_waiters_leaving() {
        let registry = JobRegistry::new(16, 16);
        let job = fresh(&registry, 7, true);
        {
            let _w = job.begin_wait();
        }
        assert!(!job.cancel.is_cancelled());
    }

    #[test]
    fn async_coalescing_promotes_a_sync_job_to_detached() {
        let registry = JobRegistry::new(16, 16);
        let job = fresh(&registry, 7, false);
        assert!(!job.is_detached());
        assert!(admit(&registry, 7, true).unwrap().coalesced);
        assert!(job.is_detached(), "async submit pins the run");
        {
            let _w = job.begin_wait();
        }
        assert!(!job.cancel.is_cancelled());
    }

    #[test]
    fn coalescing_extends_but_never_shrinks_the_deadline() {
        let registry = JobRegistry::new(16, 16);
        let request = ExploreRequest::default();
        let key = request.canonical_key();
        let soon = Instant::now() + Duration::from_secs(1);
        let later = soon + Duration::from_secs(1);
        let admit_by = |budget| {
            registry
                .admit(request.clone(), key.clone(), "t".into(), false, budget)
                .unwrap()
                .job
        };
        let job = admit_by(soon);
        assert_eq!(job.deadline(), Some(soon));
        admit_by(later);
        admit_by(soon);
        assert_eq!(job.deadline(), Some(later));
    }

    #[test]
    fn jobs_resolve_by_id_and_finished_ones_age_out() {
        let registry = JobRegistry::new(16, 2);
        let ids: Vec<String> = (0..4)
            .map(|seed| {
                let job = fresh(&registry, seed, true);
                job.complete(JobOutcome::Rejected("done"));
                job.id.clone()
            })
            .collect();
        assert!(registry.get(&ids[0]).is_none(), "oldest finished aged out");
        assert!(registry.get(&ids[3]).is_some(), "newest retained");
        assert!(registry.stats().tracked <= 2);
    }

    #[test]
    fn active_jobs_pin_the_retention_ring() {
        let registry = JobRegistry::new(16, 1);
        let active = fresh(&registry, 0, true);
        for seed in 1..4 {
            fresh(&registry, seed, true).complete(JobOutcome::Rejected("done"));
        }
        assert!(
            registry.get(&active.id).is_some(),
            "an unfinished job is never dropped"
        );
    }

    #[test]
    fn admit_completed_is_done_immediately() {
        let registry = JobRegistry::new(16, 16);
        let request = ExploreRequest::default();
        let key = request.canonical_key();
        let job =
            registry.admit_completed(request, key, JobOutcome::Rejected("precomputed"), "memory");
        assert_eq!(job.status(), JobStatus::Rejected);
        assert!(registry.get(&job.id).is_some());
        assert_eq!(registry.depth(), 0, "a born-finished job never queues");
        // Pre-completed jobs never occupy the coalescing map.
        assert!(!admit(&registry, 2008, false).unwrap().coalesced);
    }

    #[test]
    fn status_tracks_the_job_lifecycle() {
        let registry = JobRegistry::new(16, 16);
        let job = fresh(&registry, 7, false);
        assert_eq!(job.status(), JobStatus::Queued);
        let popped = registry.pop(&AtomicBool::new(false)).unwrap();
        assert!(Arc::ptr_eq(&job, &popped));
        assert_eq!(job.status(), JobStatus::Running);
        job.complete(JobOutcome::Failed("x".into()));
        assert_eq!(job.status(), JobStatus::Failed);
        assert!(job.status().is_terminal());
    }

    #[test]
    fn admission_beyond_capacity_is_refused() {
        let registry = JobRegistry::new(2, 16);
        fresh(&registry, 1, false);
        fresh(&registry, 2, false);
        assert_eq!(admit(&registry, 3, false).err(), Some(Refused::Full));
        assert_eq!(registry.depth(), 2);
        assert_eq!(registry.refused_full(), 1);
    }

    #[test]
    fn admission_after_the_shutdown_drain_is_refused() {
        let registry = JobRegistry::new(4, 16);
        let queued = fresh(&registry, 1, false);
        assert_eq!(registry.drain(), 1);
        assert_eq!(queued.status(), JobStatus::Rejected);
        // A connection thread that passed its shutdown check before the
        // drain must not strand its job in a room no worker will pop.
        assert_eq!(admit(&registry, 2, false).err(), Some(Refused::Closed));
        assert_eq!(registry.depth(), 0);
    }

    /// Refusal is atomic: a refused submission leaves no job an identical
    /// follower could coalesce onto (and then wait on forever), and no ID
    /// that resolves. Refused first with the room full, then closed.
    #[test]
    fn a_refused_submission_registers_nothing() {
        let registry = JobRegistry::new(1, 16);
        fresh(&registry, 1, false);
        // Only the seed-1 job is ever active; the drain finishes it.
        for (refusal, active) in [(Refused::Full, 1), (Refused::Closed, 0)] {
            if refusal == Refused::Closed {
                assert_eq!(registry.drain(), 1);
            }
            assert_eq!(admit(&registry, 7, false).err(), Some(refusal));
            assert_eq!(
                admit(&registry, 7, true).err(),
                Some(refusal),
                "an identical follower is refused too, not coalesced"
            );
            let stats = registry.stats();
            assert_eq!((stats.submitted, stats.coalesced), (1, 0));
            assert_eq!((stats.tracked, stats.active), (1, active));
            assert!(registry.get("j-2").is_none(), "no ID resolves");
            assert_eq!(registry.depth(), active as usize);
        }
    }

    #[test]
    fn pop_returns_none_on_shutdown_with_jobs_still_queued() {
        let registry = JobRegistry::new(4, 16);
        fresh(&registry, 1, false);
        assert!(registry.pop(&AtomicBool::new(true)).is_none());
        assert_eq!(registry.drain(), 1);
    }

    #[test]
    fn completion_wakes_the_waiter() {
        let registry = JobRegistry::new(4, 16);
        let job = fresh(&registry, 1, false);
        let j2 = Arc::clone(&job);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            j2.complete(JobOutcome::Rejected("test"));
        });
        let got = job.wait_shared_until(Instant::now() + Duration::from_secs(5));
        t.join().unwrap();
        assert!(matches!(got, Some(JobOutcome::Rejected(_))));
    }

    #[test]
    fn shared_wait_neither_consumes_nor_cancels() {
        let registry = JobRegistry::new(4, 16);
        let job = fresh(&registry, 1, false);
        // An expiring shared wait leaves the run alone: no cancellation.
        let deadline = Instant::now() + Duration::from_millis(10);
        assert!(job.wait_shared_until(deadline).is_none());
        assert!(!job.cancel.is_cancelled());
        // Every observer sees the same delivered outcome.
        job.complete(JobOutcome::Rejected("test"));
        for _ in 0..3 {
            assert!(matches!(
                job.wait_shared_until(Instant::now()),
                Some(JobOutcome::Rejected(_))
            ));
            assert!(matches!(job.peek_outcome(), Some(JobOutcome::Rejected(_))));
        }
    }

    #[test]
    fn in_flight_guard_counts() {
        let registry = JobRegistry::new(1, 16);
        assert_eq!(registry.in_flight(), 0);
        {
            let g = registry.start_job();
            assert_eq!(registry.in_flight(), 1);
            g.complete_ok();
        }
        assert_eq!(registry.in_flight(), 0);
        assert_eq!(registry.jobs_completed(), 1);
        assert_eq!(registry.jobs_failed(), 0);
    }

    #[test]
    fn guard_records_each_outcome_kind() {
        let registry = JobRegistry::new(1, 16);
        registry.start_job().complete_ok();
        registry.start_job().complete_failed("engine exploded");
        assert_eq!((registry.jobs_completed(), registry.jobs_failed()), (1, 1));
        assert_eq!(registry.last_failure().as_deref(), Some("engine exploded"));
    }

    #[test]
    fn guard_dropped_during_panic_counts_as_failed() {
        let registry = JobRegistry::new(1, 16);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = registry.start_job();
            panic!("worker died mid-job");
        }));
        assert!(caught.is_err());
        assert_eq!(registry.in_flight(), 0, "guard still decrements on unwind");
        assert_eq!(registry.jobs_failed(), 1, "unreported panic is a failure");
        assert_eq!(registry.jobs_completed(), 0);
        assert!(
            registry.last_failure().unwrap().contains("panicked"),
            "cause names the panic"
        );
    }

    #[test]
    fn poisoned_registry_lock_recovers() {
        let registry = Arc::new(JobRegistry::new(4, 16));
        let r2 = Arc::clone(&registry);
        // Poison the registry mutex by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _guard = lock_unpoisoned(&r2.inner);
            panic!("poison");
        })
        .join();
        // Every registry operation must still work.
        let job = fresh(&registry, 1, false);
        assert_eq!(registry.depth(), 1);
        assert!(registry.get(&job.id).is_some());
        assert_eq!(registry.drain(), 1);
    }
}
