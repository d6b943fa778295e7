//! The coordinator's job ledger as a pure state machine: [`ClusterCore`].
//!
//! The core holds the workers and their leases, the circuit breakers, and
//! the run's pending queue, attempts, [`RepeatSlots`], reduced entries and
//! deadline. It changes only through [`ClusterCore::on`]: an [`Event`] and
//! the time it happened go in, the [`Action`]s it implies come out. It
//! takes no lock, opens no socket and never reads the clock; time is a
//! [`Duration`] since an epoch the caller picks. Job ids are unique for
//! the core's life, not per run, so a late answer to a job of an earlier
//! run matches nothing in the current one.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::time::Duration;

use isex_engine::{ExploreJob, FaultPlan, PhaseStat, RepeatOutcome, RepeatSlots, RunEvent};
use isex_flow::{entry_from_repeats, CheckpointEntry};
use isex_workloads::BasicBlock;

use crate::coordinator::CoordinatorConfig;
use crate::messages::{Hello, RepeatResult};

/// Wire-and-queue time kept back from a job's budget: the worker must ship
/// its partial back *before* the run's own deadline trips.
pub const DISPATCH_OVERHEAD_MS: u64 = 25;

/// One unit of cluster work: `(block, repeat)`, the block by its canonical
/// index in the run's hot list.
pub type Job = (usize, usize);

/// What the core is told.
#[derive(Debug)]
pub enum Event {
    /// A worker finished its handshake.
    Joined { worker: u64, hello: Hello },
    /// A frame other than a result arrived from a worker: it is alive.
    Beat { worker: u64 },
    /// A worker's connection ended; `charge` counts it against the name's
    /// breaker (no Goodbye came, or a dispatch write failed).
    Lost { worker: u64, charge: bool },
    /// A worker answered a job.
    Result { worker: u64, result: RepeatResult },
    /// Install a run; one at a time.
    Begin(RunPlan),
    /// The jobs of the last [`Action::RunLocal`] came back, in its order.
    LocalDone(Vec<RepeatOutcome>),
    /// Time passed: expire silent workers, then move the run on.
    Tick,
    /// The run's token tripped: finish it with what it has.
    Deadline,
}

/// What the core asks of its driver, in order.
#[derive(Debug)]
pub enum Action {
    /// Send a job to a worker.
    Dispatch(Dispatch),
    /// Close the connection of a worker declared dead.
    Sever { worker: u64 },
    /// No worker can take these jobs: run them here on one engine pool and
    /// answer with [`Event::LocalDone`].
    RunLocal(Vec<Job>),
    /// Make this reduced block entry durable.
    Save(CheckpointEntry),
    /// Emit this event on the run's sink, in a remote job engine's stead.
    Emit(RunEvent),
    /// The run is over; the core holds none any more.
    Finish(RunEnd),
}

/// One job for one worker.
#[derive(Debug)]
pub struct Dispatch {
    pub worker: u64,
    /// Unique for the core's life.
    pub job_id: u64,
    pub job: Job,
    /// Earlier dispatches of the same job.
    pub attempt: usize,
    /// The time the run can still afford, minus [`DISPATCH_OVERHEAD_MS`].
    pub budget_ms: Option<u64>,
}

/// Everything a run starts from.
#[derive(Debug)]
pub struct RunPlan {
    /// The run's [`run_key`](isex_flow::run_key).
    pub key: String,
    pub seed: u64,
    /// The hot blocks, in canonical order.
    pub hot: Vec<BasicBlock>,
    pub repeats: usize,
    /// Entries resumed from the store, by block index.
    pub completed: BTreeMap<usize, CheckpointEntry>,
    pub deadline: Option<Duration>,
    /// The core consumes its `drop` faults at dispatch.
    pub fault_plan: Option<FaultPlan>,
}

impl RunPlan {
    /// The entries of the run cut now: every reduced block as-is, every
    /// other block reduced from its outcomes in `slots`, the missing ones
    /// [`RepeatOutcome::Skipped`].
    pub fn cut(mut self, slots: &RepeatSlots) -> Vec<CheckpointEntry> {
        for (index, block) in self.hot.iter().enumerate() {
            let reduce = || entry_from_repeats(&self.key, block, index, &slots.cut(index));
            self.completed.entry(index).or_insert_with(reduce);
        }
        self.completed.into_values().collect()
    }
}

/// How a run ended: one entry per hot block, and what it counted.
#[derive(Debug, Default)]
pub struct RunEnd {
    pub entries: Vec<CheckpointEntry>,
    pub redispatched: u64,
    pub heartbeats_missed: u64,
    /// Jobs run on the local engine pool.
    pub local: u64,
    pub breaker_trips: u64,
    /// Results each worker name delivered.
    pub worker_jobs: BTreeMap<String, u64>,
}

impl RunEnd {
    /// The run's `cluster.*` counters; each stat's `count` is the value.
    pub fn stats(&self) -> Vec<PhaseStat> {
        let mut stats = vec![
            PhaseStat::counter("cluster.jobs_redispatched", self.redispatched),
            PhaseStat::counter("cluster.heartbeats_missed", self.heartbeats_missed),
            PhaseStat::counter("cluster.jobs_local", self.local),
            PhaseStat::counter("cluster.breaker_trips", self.breaker_trips),
        ];
        for (name, &jobs) in &self.worker_jobs {
            let name = format!("cluster.worker.{name}.jobs");
            stats.push(PhaseStat::counter(&name, jobs));
        }
        stats
    }
}

/// A dispatched job: the job (`None` once its run has ended), the
/// connection holding it, and when it went out.
type Lease = (Option<Job>, u64, Duration);

/// One connection, as the core sees it.
struct Worker {
    id: u64,
    name: String,
    capacity: usize,
    alive: bool,
    last_beat: Duration,
}

struct Run {
    plan: RunPlan,
    /// Jobs awaiting dispatch, block-major in repeat order.
    pending: VecDeque<Job>,
    attempts: HashMap<Job, usize>,
    /// Outcomes as they arrive; the first for a job wins.
    slots: RepeatSlots,
    /// Blocks with an outcome slotted since the last reduction.
    arrived: BTreeSet<usize>,
    /// The jobs out on the local engine pool.
    local: Vec<Job>,
    /// What the run counts as it goes; its entries come at the end.
    counters: RunEnd,
}

impl Run {
    /// Slots a job's outcome; a duplicate is dropped.
    fn accept(&mut self, (block, repeat): Job, outcome: RepeatOutcome) -> bool {
        let slotted = self.slots.fill(block, repeat, outcome);
        if slotted {
            self.arrived.insert(block);
        }
        slotted
    }

    /// Puts a job whose lease is gone back in the queue. A job is pending,
    /// leased once, local or slotted, one at a time: it goes back once.
    fn requeue(&mut self, job: Job) {
        self.counters.redispatched += 1;
        self.pending.push_back(job);
    }
}

/// The coordinator's state machine; see the [module docs](self).
#[derive(Default)]
pub struct ClusterCore {
    config: CoordinatorConfig,
    /// By connection id: connection order.
    workers: BTreeMap<u64, Worker>,
    /// Per-worker-*name* breakers: `(consecutive failures, open until)`.
    /// Keyed by name so a worker that redials keeps its history. From the
    /// `open until` time on a breaker is *half-open*: one probe job goes
    /// through, and a delivered result removes the breaker.
    breakers: HashMap<String, (u32, Option<Duration>)>,
    /// Every job out on a worker, by job id, of this run or an earlier one.
    leases: BTreeMap<u64, Lease>,
    run: Option<Run>,
    next_job_id: u64,
}

impl ClusterCore {
    /// A core with no worker and no run, under `config`'s heartbeat and
    /// breaker policy.
    pub fn new(config: &CoordinatorConfig) -> ClusterCore {
        let config = config.clone();
        ClusterCore {
            config,
            ..ClusterCore::default()
        }
    }

    /// Applies `event`, which happened at `now`, and returns what follows.
    pub fn on(&mut self, event: Event, now: Duration) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            Event::Joined { worker, hello } => {
                let w = Worker {
                    id: worker,
                    name: hello.name,
                    capacity: hello.capacity.max(1),
                    alive: true,
                    last_beat: now,
                };
                self.workers.insert(worker, w);
            }
            Event::Beat { worker } => {
                if let Some(w) = self.workers.get_mut(&worker) {
                    w.last_beat = now;
                }
            }
            Event::Lost { worker, charge } => self.kill(worker, charge, now, &mut out),
            Event::Result { worker, result } => self.result(worker, result, now, &mut out),
            Event::Begin(plan) => {
                assert!(self.run.is_none(), "one run at a time");
                let pending = (0..plan.hot.len())
                    .filter(|block| !plan.completed.contains_key(block))
                    .flat_map(|block| (0..plan.repeats).map(move |repeat| (block, repeat)))
                    .collect();
                self.run = Some(Run {
                    pending,
                    attempts: HashMap::new(),
                    slots: RepeatSlots::new(plan.hot.len(), plan.repeats),
                    arrived: BTreeSet::new(),
                    local: Vec::new(),
                    counters: RunEnd::default(),
                    plan,
                });
            }
            Event::LocalDone(outcomes) => {
                if let Some(run) = self.run.as_mut() {
                    let batch = std::mem::take(&mut run.local);
                    run.counters.local += batch.len() as u64;
                    for (job, outcome) in batch.into_iter().zip(outcomes) {
                        run.accept(job, outcome);
                    }
                }
            }
            Event::Tick => {
                let misses = self.config.heartbeat_misses.max(1) as u64;
                let silence = Duration::from_millis(self.config.heartbeat_ms * misses);
                let silent: Vec<u64> = self
                    .workers
                    .values()
                    .filter(|w| w.alive && now.saturating_sub(w.last_beat) > silence)
                    .map(|w| w.id)
                    .collect();
                for worker in silent {
                    if let Some(run) = self.run.as_mut() {
                        run.counters.heartbeats_missed += 1;
                    }
                    self.kill(worker, true, now, &mut out);
                }
            }
            Event::Deadline => {
                if let Some(run) = self.run.take() {
                    let entries = run.plan.cut(&run.slots);
                    out.push(Action::Finish(self.end(run.counters, entries)));
                }
            }
        }
        self.advance(now, &mut out);
        out
    }

    /// Workers connected and alive.
    pub fn workers_alive(&self) -> usize {
        self.workers.values().filter(|w| w.alive).count()
    }

    /// Whether some live connection announced `name`.
    pub fn worker_alive(&self, name: &str) -> bool {
        self.workers.values().any(|w| w.alive && w.name == name)
    }

    /// Whether `name`'s breaker is open or half-open.
    pub fn breaker_open(&self, name: &str) -> bool {
        self.breakers.get(name).is_some_and(|b| b.1.is_some())
    }

    /// When job `job_id` of the current run went out, while it is out.
    pub fn dispatched_at(&self, job_id: u64) -> Option<Duration> {
        let (job, _, since) = self.leases.get(&job_id)?;
        job.and(Some(*since))
    }

    /// Jobs worker `id` holds.
    fn held(&self, id: u64) -> usize {
        self.leases.values().filter(|lease| lease.1 == id).count()
    }

    /// Can `w` take a job? Alive, breaker closed — or half-open with
    /// nothing held (the single probe job).
    fn dispatchable(&self, w: &Worker, now: Duration) -> bool {
        w.alive
            && match self.breakers.get(&w.name).and_then(|b| b.1) {
                Some(until) if now < until => false,
                Some(_) => self.held(w.id) == 0,
                None => true,
            }
    }

    /// Declares worker `id` dead: severs it, charges its name's breaker
    /// when `charge`, and requeues the current run's jobs it held.
    fn kill(&mut self, id: u64, charge: bool, now: Duration, out: &mut Vec<Action>) {
        let Some(w) = self.workers.get_mut(&id).filter(|w| w.alive) else {
            return;
        };
        w.alive = false;
        out.push(Action::Sever { worker: id });
        let breaker = self.breakers.entry(w.name.clone()).or_default();
        breaker.0 += charge as u32;
        let opened = charge && breaker.0 >= self.config.breaker_threshold.max(1);
        if opened {
            let config = &self.config;
            let cooloff = config
                .breaker_cooloff_ms
                .unwrap_or(config.heartbeat_ms.saturating_mul(5));
            breaker.1 = Some(now + Duration::from_millis(cooloff.max(1)));
        }
        let mut held = Vec::new();
        self.leases.retain(|_, &mut (job, holder, _)| {
            held.extend(job.filter(|_| holder == id));
            holder != id
        });
        let Some(run) = self.run.as_mut() else { return };
        run.counters.breaker_trips += opened as u64;
        for job in held {
            run.requeue(job);
        }
    }

    fn result(&mut self, id: u64, result: RepeatResult, now: Duration, out: &mut Vec<Action>) {
        let Some(w) = self.workers.get_mut(&id) else {
            return;
        };
        w.last_beat = now;
        // No lease: a duplicate. No job: the lease of an earlier run.
        let Some((Some(job), holder, since)) = self.leases.remove(&result.job_id) else {
            return;
        };
        let Some(run) = self.run.as_mut() else { return };
        // The outcome must come from the connection the job was leased to,
        // be the run's, and be for the `(block, repeat)` leased. A
        // degraded exploration is a legitimate answer: the worker
        // self-cancelled at its stamped budget and shipped its best-so-far.
        if holder != w.id
            || result.run_key != run.plan.key
            || (result.block_index, result.repeat) != job
        {
            run.requeue(job);
            return;
        }
        let name = &run.plan.hot[job.0].name;
        let remote = ExploreJob::new(job.0, job.1, run.plan.seed);
        let elapsed_ms = now.saturating_sub(since).as_secs_f64() * 1e3;
        let event = match &result.outcome {
            RepeatOutcome::Panicked(error) => RunEvent::job_failed(name, &remote, error),
            RepeatOutcome::Explored(e) => RunEvent::job_finish(name, &remote, Some(e), elapsed_ms),
            RepeatOutcome::Skipped => RunEvent::job_finish(name, &remote, None, elapsed_ms),
        };
        if run.accept(job, result.outcome) {
            *run.counters.worker_jobs.entry(w.name.clone()).or_default() += 1;
            out.push(Action::Emit(event));
        }
        self.breakers.remove(&w.name);
    }

    /// Moves the run on: dispatches, reduces every block whose last repeat
    /// is in, and either finishes or hands the jobs no worker can take to
    /// the local pool — all of them, in one batch.
    fn advance(&mut self, now: Duration, out: &mut Vec<Action>) {
        self.dispatch(now, out);
        let Some(run) = self.run.as_mut() else { return };
        for block in std::mem::take(&mut run.arrived) {
            if let Some(outcomes) = run.slots.complete(block) {
                let entry =
                    entry_from_repeats(&run.plan.key, &run.plan.hot[block], block, &outcomes);
                // A degraded entry is a best-so-far partial, never saved.
                if !entry.degraded {
                    out.push(Action::Save(entry.clone()));
                }
                run.plan.completed.insert(block, entry);
            }
        }
        if run.plan.completed.len() == run.plan.hot.len() {
            let Run { plan, counters, .. } = self.run.take().expect("checked above");
            let entries = plan.completed.into_values().collect();
            out.push(Action::Finish(self.end(counters, entries)));
        } else if !run.pending.is_empty()
            && run.local.is_empty()
            && !self.workers.values().any(|w| self.dispatchable(w, now))
        {
            let run = self.run.as_mut().expect("checked above");
            run.local = run.pending.drain(..).collect();
            out.push(Action::RunLocal(run.local.clone()));
        }
    }

    /// Leases pending jobs to the least-loaded dispatchable workers with
    /// room, stamping each with the budget left at `now`, and consumes the
    /// plan's `drop` faults. Once the deadline leaves no more than the
    /// dispatch overhead, every pending job is skipped instead — as the
    /// engine skips the jobs it has not started when its token trips.
    fn dispatch(&mut self, now: Duration, out: &mut Vec<Action>) {
        let Some(run) = self.run.as_mut() else { return };
        let left = run.plan.deadline.map(|d| d.saturating_sub(now));
        let left_ms = left.map(|left| left.as_millis() as u64);
        if left_ms.is_some_and(|ms| ms <= DISPATCH_OVERHEAD_MS) {
            for job in std::mem::take(&mut run.pending) {
                run.accept(job, RepeatOutcome::Skipped);
            }
            return;
        }
        while let Some(&job) = self.run.as_ref().and_then(|run| run.pending.front()) {
            // The least-loaded dispatchable worker with room, ties broken
            // by connection order.
            let Some(worker) = self
                .workers
                .values()
                .filter(|w| self.dispatchable(w, now) && self.held(w.id) < w.capacity)
                .min_by_key(|w| (self.held(w.id), w.id))
                .map(|w| w.id)
            else {
                return;
            };
            let run = self.run.as_mut().expect("a pending job");
            run.pending.pop_front();
            let attempts = run.attempts.entry(job).or_default();
            let attempt = std::mem::replace(attempts, *attempts + 1);
            self.next_job_id += 1;
            let job_id = self.next_job_id;
            self.leases.insert(job_id, (Some(job), worker, now));
            let faults = run.plan.fault_plan.as_ref();
            if faults.is_some_and(|plan| plan.drops(job.0, attempt)) {
                // An injected transport drop: sever the connection, and
                // the job (with anything else it held) goes back.
                self.kill(worker, true, now, out);
                continue;
            }
            let remote = ExploreJob::new(job.0, job.1, run.plan.seed);
            let start = RunEvent::job_start(&run.plan.hot[job.0].name, &remote);
            out.push(Action::Emit(start));
            let budget_ms = left_ms.map(|ms| ms - DISPATCH_OVERHEAD_MS);
            out.push(Action::Dispatch(Dispatch {
                worker,
                job_id,
                job,
                attempt,
                budget_ms,
            }));
        }
    }

    /// Closes out the run. Its leases stay with their workers until answered
    /// or lost, so a worker still busy with a cut run's job is not taken
    /// for idle by the next run.
    fn end(&mut self, counters: RunEnd, entries: Vec<CheckpointEntry>) -> RunEnd {
        self.leases.values_mut().for_each(|lease| lease.0 = None);
        self.workers.retain(|_, w| w.alive);
        RunEnd {
            entries,
            ..counters
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isex_workloads::{Benchmark, OptLevel};

    fn ms(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    /// Heartbeat 100 ms × 2 misses, breaker threshold 2, cooloff 1 s.
    fn core() -> ClusterCore {
        ClusterCore::new(&CoordinatorConfig {
            heartbeat_ms: 100,
            heartbeat_misses: 2,
            breaker_threshold: 2,
            breaker_cooloff_ms: Some(1_000),
            ..CoordinatorConfig::default()
        })
    }

    /// crc32's first `blocks` blocks, 2 repeats each.
    fn begin(blocks: usize, deadline: Option<Duration>) -> Event {
        Event::Begin(RunPlan {
            key: "run".to_string(),
            seed: 7,
            hot: Benchmark::Crc32.program(OptLevel::O3).blocks[..blocks].to_vec(),
            repeats: 2,
            completed: BTreeMap::new(),
            deadline,
            fault_plan: None,
        })
    }

    fn join(worker: u64, name: &str, capacity: usize) -> Event {
        let hello = Hello {
            version: crate::messages::PROTOCOL_VERSION,
            name: name.to_string(),
            capacity,
        };
        Event::Joined { worker, hello }
    }

    fn lost(worker: u64, charge: bool) -> Event {
        Event::Lost { worker, charge }
    }

    /// `worker`'s answer to job `job_id`: a panic with payload `payload`.
    fn answer(worker: u64, job_id: u64, (block_index, repeat): Job, payload: &str) -> Event {
        let result = RepeatResult {
            job_id,
            worker: String::new(),
            run_key: "run".to_string(),
            block_index,
            repeat,
            outcome: RepeatOutcome::Panicked(payload.to_string()),
        };
        Event::Result { worker, result }
    }

    /// `(worker, job_id, job, attempt, budget_ms)` of each dispatch.
    fn sent(actions: &[Action]) -> Vec<(u64, u64, Job, usize, Option<u64>)> {
        let each = |a: &Action| match a {
            Action::Dispatch(d) => Some((d.worker, d.job_id, d.job, d.attempt, d.budget_ms)),
            _ => None,
        };
        actions.iter().filter_map(each).collect()
    }

    fn finish(actions: Vec<Action>) -> RunEnd {
        let Some(Action::Finish(end)) = actions.into_iter().last() else {
            panic!("the run does not finish");
        };
        end
    }

    /// Redispatched, heartbeats missed, local and breaker trips.
    fn counters(e: &RunEnd) -> [u64; 4] {
        [
            e.redispatched,
            e.heartbeats_missed,
            e.local,
            e.breaker_trips,
        ]
    }

    #[test]
    fn a_lost_workers_job_is_dispatched_again() {
        let mut core = core();
        core.on(join(1, "a", 1), ms(0));
        core.on(join(2, "b", 1), ms(0));
        let first = sent(&core.on(begin(1, None), ms(0)));
        assert_eq!(first, [(1, 1, (0, 0), 0, None), (2, 2, (0, 1), 0, None)]);
        let severed = core.on(lost(1, false), ms(5));
        assert!(matches!(severed[..], [Action::Sever { worker: 1 }]));
        let again = sent(&core.on(answer(2, 2, (0, 1), "x"), ms(6)));
        assert_eq!(again, [(2, 3, (0, 0), 1, None)], "attempt 1, a fresh id");
        let end = finish(core.on(answer(2, 3, (0, 0), "x"), ms(7)));
        assert_eq!(counters(&end), [1, 0, 0, 0]);
        assert_eq!(end.worker_jobs["b"], 2);
        assert!(!core.breaker_open("a"), "a clean end charges nothing");
    }

    #[test]
    fn a_silent_worker_expires_just_after_heartbeat_times_misses() {
        let mut core = core();
        core.on(join(1, "a", 1), ms(0));
        assert_eq!(sent(&core.on(begin(1, None), ms(0))).len(), 1);
        assert!(core.on(Event::Beat { worker: 1 }, ms(50)).is_empty());
        assert!(core.on(Event::Tick, ms(250)).is_empty(), "silent 200 ms");
        let expired = core.on(Event::Tick, ms(250) + Duration::from_nanos(1));
        // Every pending job, the lost one included, goes to the local pool
        // in one batch.
        assert!(matches!(expired[0], Action::Sever { worker: 1 }));
        assert!(matches!(&expired[1..], [Action::RunLocal(j)] if j == &[(0, 1), (0, 0)]));
        let end = finish(core.on(Event::LocalDone(vec![RepeatOutcome::Skipped; 2]), ms(300)));
        assert_eq!(counters(&end), [1, 1, 2, 0]);
        assert_eq!(core.workers_alive(), 0);
    }

    #[test]
    fn a_duplicate_result_is_dropped_and_the_first_wins() {
        let mut core = core();
        core.on(join(1, "a", 2), ms(0));
        assert_eq!(sent(&core.on(begin(1, None), ms(0))).len(), 2);
        let first = core.on(answer(1, 1, (0, 0), "first"), ms(1));
        assert!(matches!(
            first[..],
            [Action::Emit(RunEvent::JobFailed { .. })]
        ));
        assert!(core.on(answer(1, 1, (0, 0), "second"), ms(2)).is_empty());
        let end = finish(core.on(answer(1, 2, (0, 1), "first"), ms(3)));
        assert_eq!(end.entries[0].error.as_deref(), Some("first"));
        assert_eq!(end.entries[0].jobs_failed, 2);
        assert_eq!(end.worker_jobs["a"], 2);
    }

    #[test]
    fn a_breaker_opens_at_its_threshold_and_half_open_lets_one_probe_through() {
        let mut core = core();
        for worker in [1, 2] {
            core.on(join(worker, "w", 2), ms(0));
            assert!(!core.breaker_open("w"), "below the threshold");
            core.on(lost(worker, true), ms(0));
        }
        assert!(core.breaker_open("w"));
        core.on(join(3, "w", 2), ms(0));
        // Half-open at the cooloff: one probe, though the worker has room
        // for two; the other job runs locally.
        let probe = core.on(begin(1, None), ms(1_000));
        assert_eq!(sent(&probe), [(3, 1, (0, 0), 0, None)]);
        assert!(matches!(probe.last(), Some(Action::RunLocal(jobs)) if jobs == &[(0, 1)]));
        // The probe fails: open again for a full cooloff from then.
        core.on(lost(3, true), ms(1_200));
        core.on(join(4, "w", 2), ms(1_200));
        core.on(Event::Beat { worker: 4 }, ms(2_100));
        assert!(sent(&core.on(Event::Tick, ms(2_199))).is_empty());
        let retry = sent(&core.on(Event::Tick, ms(2_200)));
        assert_eq!(retry, [(4, 2, (0, 0), 1, None)]);
        // A delivered probe closes it, and restarts the failure streak.
        core.on(answer(4, 2, (0, 0), "x"), ms(2_300));
        core.on(lost(4, true), ms(2_300));
        assert!(!core.breaker_open("w"));
        let end = finish(core.on(Event::LocalDone(vec![RepeatOutcome::Skipped]), ms(2_400)));
        assert_eq!(counters(&end), [1, 0, 1, 1], "one trip: the failed probe");
    }

    #[test]
    fn budgets_are_time_left_minus_overhead_until_it_runs_out() {
        let mut core = core();
        core.on(join(1, "a", 1), ms(0));
        let first = sent(&core.on(begin(2, Some(ms(1_000))), ms(200)));
        assert_eq!(first, [(1, 1, (0, 0), 0, Some(775))]);
        let last = sent(&core.on(answer(1, 1, (0, 0), "x"), ms(974)));
        assert_eq!(last, [(1, 2, (0, 1), 0, Some(1))]);
        // 25 ms left: block 1's jobs are skipped, never dispatched, and
        // its degraded entry is not saved.
        assert!(core.on(Event::Tick, ms(975)).is_empty());
        let end = core.on(answer(1, 2, (0, 1), "x"), ms(990));
        assert!(matches!(
            end[..],
            [Action::Emit(_), Action::Save(_), Action::Finish(_)]
        ));
        let entries = finish(end).entries;
        assert!(!entries[0].degraded && entries[1].degraded);
        assert_eq!(entries[1].jobs_completed + entries[1].jobs_failed, 0);
    }

    #[test]
    fn job_ids_outlive_the_run_that_issued_them() {
        let mut core = core();
        core.on(join(1, "a", 1), ms(0));
        assert_eq!(sent(&core.on(begin(1, None), ms(0)))[0].1, 1);
        let cut = core.on(Event::Deadline, ms(10));
        assert!(matches!(cut[..], [Action::Finish(_)]));
        // The worker still runs job 1: the next run waits for it, and its
        // late answer is not slotted.
        assert!(sent(&core.on(begin(1, None), ms(20))).is_empty());
        let next = sent(&core.on(answer(1, 1, (0, 0), "late"), ms(30)));
        assert_eq!(next, [(1, 2, (0, 0), 0, None)]);
        core.on(answer(1, 2, (0, 0), "x"), ms(40));
        let end = finish(core.on(answer(1, 3, (0, 1), "x"), ms(50)));
        assert_eq!(counters(&end), [0; 4]);
        assert_eq!(end.entries[0].error.as_deref(), Some("x"));
    }
}
