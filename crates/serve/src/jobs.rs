//! The asynchronous job table: IDs for in-flight explorations, request
//! coalescing, and waiter-aware cancellation.
//!
//! Every exploration admitted to the server — synchronous `/v1/explore` or
//! asynchronous `POST /v1/jobs` — registers here. The table enforces one
//! invariant the cache alone cannot: **at most one engine run per
//! canonical key is in flight at a time**. A second identical request that
//! arrives while the first is queued or running *coalesces* onto the same
//! [`Job`]: both waiters block on the one completion slot and both receive
//! the identical result, while engine-run counters record a single
//! execution. With a bitwise-deterministic engine this is pure win — the
//! coalesced run's answer is exactly what a second run would have
//! produced.
//!
//! Cancellation policy: a job submitted synchronously is abandoned (its
//! [`CancelToken`](isex_engine::CancelToken) tripped) only when its *last*
//! waiter gives up — one impatient client among N must not kill the run
//! for the rest. A job submitted via `POST /v1/jobs` is **detached**: it
//! runs to completion with zero waiters, because the submitter's contract
//! is "come back later". Coalescing a detached submission onto a live
//! synchronous job promotes that job to detached.
//!
//! Completed records stay addressable by ID in a bounded ring
//! (`jobs_keep`) so status polls keep working after completion; the oldest
//! finished records are dropped beyond it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use isex_engine::lock_unpoisoned;

use crate::protocol::ExploreRequest;
use crate::queue::{Job, JobOutcome};

/// One registered exploration: the job plus its async-tier bookkeeping.
pub struct JobRecord {
    /// The server-assigned job ID (`j-<seq>`).
    pub id: String,
    /// The canonical request key (shared by every coalesced submitter).
    pub key: String,
    /// The underlying queued job.
    pub job: Arc<Job>,
    /// Where a `Done` outcome came from: `"run"` for queued jobs,
    /// `"memory"`/`"store"` for records admitted pre-completed from a
    /// cache tier.
    pub origin: &'static str,
    /// Submitters that coalesced onto this record after the first.
    pub coalesced: AtomicU64,
    detached: AtomicBool,
    waiters: AtomicUsize,
}

impl JobRecord {
    /// Whether the record runs to completion without waiters.
    pub fn is_detached(&self) -> bool {
        self.detached.load(Ordering::Acquire)
    }

    /// Marks the record detached (async submit, or promotion by one).
    pub fn detach(&self) {
        self.detached.store(true, Ordering::Release);
    }

    /// Synchronous waiters currently blocked on the outcome.
    pub fn waiters(&self) -> usize {
        self.waiters.load(Ordering::Acquire)
    }

    /// The job's lifecycle phase, as reported by the status endpoint.
    pub fn status(&self) -> JobStatus {
        match self.job.peek_outcome() {
            None if self.job.is_started() => JobStatus::Running,
            None => JobStatus::Queued,
            Some(JobOutcome::Done(_)) => JobStatus::Done,
            Some(JobOutcome::Cancelled) => JobStatus::Cancelled,
            Some(JobOutcome::Failed(_)) => JobStatus::Failed,
            Some(JobOutcome::Rejected(_)) => JobStatus::Rejected,
        }
    }
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

/// What [`JobTable::submit`] decided.
pub enum Submitted {
    /// A fresh record: the caller owns pushing `record.job` onto the
    /// queue (and must [`abort`](JobTable::abort) the record if the push
    /// is refused).
    New(Arc<JobRecord>),
    /// An identical exploration is already in flight; the caller shares
    /// its record and must not enqueue anything.
    Coalesced(Arc<JobRecord>),
}

impl Submitted {
    /// The record either way.
    pub fn record(&self) -> &Arc<JobRecord> {
        match self {
            Submitted::New(r) | Submitted::Coalesced(r) => r,
        }
    }
}

/// Aggregate counters for `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobTableStats {
    /// Records submitted (coalesced submissions excluded).
    pub submitted: u64,
    /// Submissions answered by an already-in-flight record.
    pub coalesced: u64,
    /// Records currently addressable by ID.
    pub tracked: u64,
    /// Records still queued or running.
    pub active: u64,
    /// Synchronous waiters currently blocked on active records — the live
    /// audience that coalescing is multiplexing one engine run across.
    pub waiters: u64,
}

struct TableInner {
    next_seq: u64,
    by_id: HashMap<String, Arc<JobRecord>>,
    active_by_key: HashMap<String, Arc<JobRecord>>,
    /// Record IDs in admission order, for bounded retention.
    order: VecDeque<String>,
    submitted: u64,
    coalesced: u64,
}

/// The table itself. One per server.
pub struct JobTable {
    inner: Mutex<TableInner>,
    keep: usize,
}

impl JobTable {
    /// A table retaining at most `keep` finished records for status polls
    /// (active records are always retained).
    pub fn new(keep: usize) -> Self {
        JobTable {
            inner: Mutex::new(TableInner {
                next_seq: 1,
                by_id: HashMap::new(),
                active_by_key: HashMap::new(),
                order: VecDeque::new(),
                submitted: 0,
                coalesced: 0,
            }),
            keep,
        }
    }

    /// Admits an exploration. If an identical one (same canonical key) is
    /// already in flight and still cancellable-free, the submission
    /// coalesces onto it; otherwise a fresh record (and fresh [`Job`]) is
    /// created for the caller to enqueue.
    pub fn submit(
        &self,
        request: ExploreRequest,
        key: String,
        trace_id: String,
        detached: bool,
    ) -> Submitted {
        let mut inner = lock_unpoisoned(&self.inner);
        self.sweep(&mut inner);
        if let Some(existing) = inner.active_by_key.get(&key) {
            // Coalesce only onto a run that can still produce an answer: a
            // tripped token means the run is being abandoned and a new
            // submitter deserves a fresh run, not a guaranteed Cancelled.
            if existing.job.peek_outcome().is_none() && !existing.job.cancel.is_cancelled() {
                let existing = Arc::clone(existing);
                inner.coalesced += 1;
                existing.coalesced.fetch_add(1, Ordering::Relaxed);
                drop(inner);
                if detached {
                    existing.detach();
                }
                return Submitted::Coalesced(existing);
            }
            inner.active_by_key.remove(&key);
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.submitted += 1;
        let record = Arc::new(JobRecord {
            id: format!("j-{seq}"),
            key: key.clone(),
            job: Job::new(request, key.clone(), trace_id),
            origin: "run",
            coalesced: AtomicU64::new(0),
            detached: AtomicBool::new(detached),
            waiters: AtomicUsize::new(0),
        });
        inner.by_id.insert(record.id.clone(), Arc::clone(&record));
        inner.active_by_key.insert(key, Arc::clone(&record));
        inner.order.push_back(record.id.clone());
        Submitted::New(record)
    }

    /// Registers a pre-completed record — the submission was answered from
    /// a cache or the store (`origin`), so the job ID must resolve without
    /// anything ever entering the queue. The record is created already
    /// `Done`.
    pub fn admit_completed(
        &self,
        request: ExploreRequest,
        key: String,
        outcome: JobOutcome,
        origin: &'static str,
    ) -> Arc<JobRecord> {
        let mut inner = lock_unpoisoned(&self.inner);
        self.sweep(&mut inner);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.submitted += 1;
        let job = Job::new(request, key.clone(), String::new());
        job.mark_started();
        job.complete(outcome);
        let record = Arc::new(JobRecord {
            id: format!("j-{seq}"),
            key,
            job,
            origin,
            coalesced: AtomicU64::new(0),
            detached: AtomicBool::new(true),
            waiters: AtomicUsize::new(0),
        });
        inner.by_id.insert(record.id.clone(), Arc::clone(&record));
        inner.order.push_back(record.id.clone());
        record
    }

    /// Withdraws a freshly submitted record whose queue push was refused,
    /// so the dead record neither blocks coalescing for the next identical
    /// request nor lingers by ID.
    pub fn abort(&self, record: &Arc<JobRecord>) {
        let mut inner = lock_unpoisoned(&self.inner);
        if let Some(active) = inner.active_by_key.get(&record.key) {
            if Arc::ptr_eq(active, record) {
                inner.active_by_key.remove(&record.key);
            }
        }
        inner.by_id.remove(&record.id);
        if let Some(pos) = inner.order.iter().position(|id| id == &record.id) {
            inner.order.remove(pos);
        }
    }

    /// Resolves a job ID.
    pub fn get(&self, id: &str) -> Option<Arc<JobRecord>> {
        let mut inner = lock_unpoisoned(&self.inner);
        self.sweep(&mut inner);
        inner.by_id.get(id).cloned()
    }

    /// Begins a synchronous wait on `record`; the guard's drop ends it,
    /// cancelling the run when appropriate (last waiter out, non-detached,
    /// still unfinished).
    pub fn begin_wait<'t>(&'t self, record: &Arc<JobRecord>) -> WaitGuard<'t> {
        record.waiters.fetch_add(1, Ordering::AcqRel);
        WaitGuard {
            table: self,
            record: Arc::clone(record),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> JobTableStats {
        let mut inner = lock_unpoisoned(&self.inner);
        self.sweep(&mut inner);
        JobTableStats {
            submitted: inner.submitted,
            coalesced: inner.coalesced,
            tracked: inner.by_id.len() as u64,
            active: inner.active_by_key.len() as u64,
            waiters: inner
                .active_by_key
                .values()
                .map(|r| r.waiters() as u64)
                .sum(),
        }
    }

    /// Drops finished keys from the coalescing map and prunes finished
    /// records beyond the retention cap. Runs opportunistically under the
    /// table lock — it is O(completed since last sweep), not O(table).
    fn sweep(&self, inner: &mut TableInner) {
        inner
            .active_by_key
            .retain(|_, record| record.job.peek_outcome().is_none());
        while inner.order.len() > self.keep {
            // Only finished records may be dropped; an active record at the
            // front (a long run admitted early) pins the ring until done.
            let Some(front) = inner.order.front().cloned() else {
                break;
            };
            let finished = inner
                .by_id
                .get(&front)
                .map(|r| r.status().is_terminal())
                .unwrap_or(true);
            if !finished {
                break;
            }
            inner.order.pop_front();
            inner.by_id.remove(&front);
        }
    }
}

/// RAII registration of one synchronous waiter (see
/// [`JobTable::begin_wait`]).
pub struct WaitGuard<'t> {
    table: &'t JobTable,
    record: Arc<JobRecord>,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        let _ = self.table; // the table outlives the guard by construction
        if self.record.waiters.fetch_sub(1, Ordering::AcqRel) == 1
            && !self.record.is_detached()
            && self.record.job.peek_outcome().is_none()
        {
            // Last waiter out on a job nobody detached: abandon the run at
            // the next engine-job boundary instead of burning a worker on
            // an answer no one will read.
            self.record.job.cancel.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(table: &JobTable, seed: u64, detached: bool) -> Submitted {
        let request = ExploreRequest {
            seed,
            ..ExploreRequest::default()
        };
        let key = request.canonical_key();
        table.submit(request, key, "t".into(), detached)
    }

    #[test]
    fn identical_submissions_coalesce_onto_one_job() {
        let table = JobTable::new(16);
        let first = submit(&table, 7, false);
        let second = submit(&table, 7, false);
        assert!(matches!(first, Submitted::New(_)));
        assert!(matches!(second, Submitted::Coalesced(_)));
        assert!(Arc::ptr_eq(&first.record().job, &second.record().job));
        let stats = table.stats();
        assert_eq!((stats.submitted, stats.coalesced), (1, 1));
    }

    #[test]
    fn different_keys_get_different_jobs() {
        let table = JobTable::new(16);
        let a = submit(&table, 1, false);
        let b = submit(&table, 2, false);
        assert!(matches!(b, Submitted::New(_)));
        assert!(!Arc::ptr_eq(&a.record().job, &b.record().job));
    }

    #[test]
    fn finished_jobs_do_not_capture_new_submissions() {
        let table = JobTable::new(16);
        let first = submit(&table, 7, false);
        first
            .record()
            .job
            .complete(JobOutcome::Failed("boom".into()));
        let second = submit(&table, 7, false);
        assert!(
            matches!(second, Submitted::New(_)),
            "a finished job must not swallow a fresh request"
        );
    }

    #[test]
    fn cancelled_jobs_do_not_capture_new_submissions() {
        let table = JobTable::new(16);
        let first = submit(&table, 7, false);
        first.record().job.cancel.cancel();
        let second = submit(&table, 7, false);
        assert!(matches!(second, Submitted::New(_)));
    }

    #[test]
    fn last_sync_waiter_out_cancels_a_non_detached_job() {
        let table = JobTable::new(16);
        let record = Arc::clone(submit(&table, 7, false).record());
        {
            let _w1 = table.begin_wait(&record);
            {
                let _w2 = table.begin_wait(&record);
                assert_eq!(table.stats().waiters, 2, "both waiters counted");
            }
            assert!(
                !record.job.cancel.is_cancelled(),
                "one waiter leaving must not cancel while another remains"
            );
            assert_eq!(table.stats().waiters, 1);
        }
        assert!(record.job.cancel.is_cancelled(), "last waiter out cancels");
    }

    #[test]
    fn detached_jobs_survive_all_waiters_leaving() {
        let table = JobTable::new(16);
        let record = Arc::clone(submit(&table, 7, true).record());
        {
            let _w = table.begin_wait(&record);
        }
        assert!(!record.job.cancel.is_cancelled());
    }

    #[test]
    fn async_coalescing_promotes_a_sync_job_to_detached() {
        let table = JobTable::new(16);
        let record = Arc::clone(submit(&table, 7, false).record());
        assert!(!record.is_detached());
        let coalesced = submit(&table, 7, true);
        assert!(matches!(coalesced, Submitted::Coalesced(_)));
        assert!(record.is_detached(), "async submit pins the run");
        {
            let _w = table.begin_wait(&record);
        }
        assert!(!record.job.cancel.is_cancelled());
    }

    #[test]
    fn records_resolve_by_id_and_finished_ones_age_out() {
        let table = JobTable::new(2);
        let ids: Vec<String> = (0..4)
            .map(|seed| {
                let s = submit(&table, seed, true);
                let record = Arc::clone(s.record());
                record.job.complete(JobOutcome::Rejected("done"));
                record.id.clone()
            })
            .collect();
        assert!(table.get(&ids[0]).is_none(), "oldest finished aged out");
        assert!(table.get(&ids[3]).is_some(), "newest retained");
        assert!(table.stats().tracked <= 2);
    }

    #[test]
    fn active_records_pin_the_retention_ring() {
        let table = JobTable::new(1);
        let active = Arc::clone(submit(&table, 0, true).record());
        for seed in 1..4 {
            let s = submit(&table, seed, true);
            s.record().job.complete(JobOutcome::Rejected("done"));
        }
        assert!(
            table.get(&active.id).is_some(),
            "an unfinished record is never dropped"
        );
    }

    #[test]
    fn admit_completed_is_done_immediately() {
        let table = JobTable::new(16);
        let request = ExploreRequest::default();
        let key = request.canonical_key();
        let record =
            table.admit_completed(request, key, JobOutcome::Rejected("precomputed"), "memory");
        assert_eq!(record.status(), JobStatus::Rejected);
        assert!(table.get(&record.id).is_some());
        // Pre-completed records never occupy the coalescing map.
        let next = submit(&table, 2008, false);
        assert!(matches!(next, Submitted::New(_)));
    }

    #[test]
    fn aborted_records_free_the_key_and_the_id() {
        let table = JobTable::new(16);
        let record = Arc::clone(submit(&table, 7, false).record());
        table.abort(&record);
        assert!(table.get(&record.id).is_none());
        assert!(matches!(submit(&table, 7, false), Submitted::New(_)));
    }

    #[test]
    fn status_tracks_the_job_lifecycle() {
        let table = JobTable::new(16);
        let record = Arc::clone(submit(&table, 7, false).record());
        assert_eq!(record.status(), JobStatus::Queued);
        record.job.mark_started();
        assert_eq!(record.status(), JobStatus::Running);
        record.job.complete(JobOutcome::Failed("x".into()));
        assert_eq!(record.status(), JobStatus::Failed);
        assert!(record.status().is_terminal());
    }
}
