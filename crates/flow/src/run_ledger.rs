//! The run ledger: how every run turns `(block, repeat)` outcomes into
//! block entries.
//!
//! Paper §5.1 explores each hot block `repeats` times and keeps the best.
//! Local, checkpointed and clustered runs keep that book in one
//! [`RunLedger`]: it resumes the blocks a [`Checkpoints`] store holds,
//! slots each outcome by `(block, repeat)` (the first for a job wins),
//! reduces a block through [`entry_from_repeats`] the moment its last
//! repeat is in — handing back the entry to save when it is clean — and
//! cuts the unfinished blocks of a run that ends early from the repeats
//! they have. [`explore_run`] drives it locally on one engine pool; the
//! cluster coordinator drives it with outcomes off the wire.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use isex_engine::{
    lock_unpoisoned, CancelToken, Engine, EventSink, ExploreJob, RepeatOutcome, RepeatSlots,
    RunMetrics,
};
use isex_workloads::{BasicBlock, Program};

use crate::checkpoint::{
    entry_from_repeats, finish_from_entries, run_key, CheckpointEntry, Checkpoints,
};
use crate::flow::{block_task, explore_spec, hot_blocks, FlowConfig, FlowReport};

/// One unit of work: `(block, repeat)`, the block by its canonical index in
/// the run's hot list.
pub type Job = (usize, usize);

/// The job had an outcome already: [`RunLedger::accept`] dropped this one.
#[derive(Debug, PartialEq)]
pub struct Duplicate;

/// One run's block bookkeeping; see the [module docs](self).
#[derive(Debug)]
pub struct RunLedger {
    key: String,
    seed: u64,
    hot: Vec<BasicBlock>,
    repeats: usize,
    slots: RepeatSlots,
    /// Every resumed or reduced block's entry, by block index.
    entries: BTreeMap<usize, CheckpointEntry>,
    resumed: usize,
}

impl RunLedger {
    /// An empty ledger for the run keyed `key`: the hot blocks in canonical
    /// order, `repeats` per block (at least one).
    pub fn new(key: String, seed: u64, hot: Vec<BasicBlock>, repeats: usize) -> RunLedger {
        let repeats = repeats.max(1);
        RunLedger {
            slots: RepeatSlots::new(hot.len(), repeats),
            key,
            seed,
            hot,
            repeats,
            entries: BTreeMap::new(),
            resumed: 0,
        }
    }

    /// The ledger of the run `(cfg, program, seed)` with every block whose
    /// entry `store` holds resumed: how local and clustered runs start.
    pub fn open(
        cfg: &FlowConfig,
        program: &Program,
        seed: u64,
        store: Option<&Checkpoints>,
    ) -> RunLedger {
        let hot = hot_blocks(cfg, program).into_iter().cloned().collect();
        let mut ledger = RunLedger::new(run_key(cfg, program, seed), seed, hot, cfg.repeats);
        let saved = |i| Some((i, store?.lookup(&ledger.key, i)?));
        ledger.entries = (0..ledger.hot.len()).filter_map(saved).collect();
        ledger.resumed = ledger.entries.len();
        ledger
    }

    /// The run's [`run_key`].
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The run's master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The hot blocks, in canonical order.
    pub fn hot(&self) -> &[BasicBlock] {
        &self.hot
    }

    /// Every job of every block without an entry, block-major in repeat
    /// order: the jobs a run starts with.
    pub fn pending(&self) -> Vec<Job> {
        let open = (0..self.hot.len()).filter(|block| !self.entries.contains_key(block));
        open.flat_map(|block| (0..self.repeats).map(move |repeat| (block, repeat)))
            .collect()
    }

    /// Whether every block has its entry.
    pub fn is_complete(&self) -> bool {
        self.entries.len() == self.hot.len()
    }

    /// Slots `outcome` as `job`'s unless the job has one already. When it
    /// is the block's last repeat the block reduces, and a clean entry
    /// comes back to be saved; a degraded one is a best-so-far partial and
    /// never does.
    ///
    /// # Panics
    ///
    /// Panics if the block or repeat is out of range.
    pub fn accept(
        &mut self,
        (block, repeat): Job,
        outcome: RepeatOutcome,
    ) -> Result<Option<CheckpointEntry>, Duplicate> {
        if !self.slots.fill(block, repeat, outcome) {
            return Err(Duplicate);
        }
        if !self.slots.is_complete(block) {
            return Ok(None);
        }
        let outcomes = self.slots.cut(block);
        let entry = entry_from_repeats(&self.key, &self.hot[block], block, &outcomes);
        let save = (!entry.degraded).then(|| entry.clone());
        self.entries.insert(block, entry);
        Ok(save)
    }

    /// One entry per hot block, in block order: every resumed or reduced
    /// block as it is, every other block reduced from the repeats it has,
    /// the missing ones [`RepeatOutcome::Skipped`].
    pub fn cut(mut self) -> Vec<CheckpointEntry> {
        for (index, block) in self.hot.iter().enumerate() {
            let reduce = || entry_from_repeats(&self.key, block, index, &self.slots.cut(index));
            self.entries.entry(index).or_insert_with(reduce);
        }
        self.entries.into_values().collect()
    }

    /// Closes the run begun at `start`: folds [`cut`](RunLedger::cut)'s
    /// entries with [`finish_from_entries`] and stamps what only the run
    /// sees — `blocks_resumed`, `phases.explore_ms` (up to this call) and
    /// `phases.total_ms`.
    pub fn report(
        self,
        cfg: &FlowConfig,
        program: &Program,
        start: Instant,
    ) -> (FlowReport, RunMetrics) {
        let explore_ms = start.elapsed().as_secs_f64() * 1e3;
        let (seed, hot_len, resumed) = (self.seed, self.hot.len(), self.resumed);
        let (report, mut metrics) = finish_from_entries(cfg, program, seed, self.cut(), hot_len);
        metrics.blocks_resumed = resumed;
        metrics.phases.explore_ms = explore_ms;
        metrics.phases.total_ms = start.elapsed().as_secs_f64() * 1e3;
        (report, metrics)
    }
}

/// The local driver, under the `flow.explore` span: opens the run's ledger
/// (resuming from `store`, when there is one), runs every remaining job of
/// every block on **one** engine pool, and accepts each outcome as it
/// lands, saving a block's clean entry the moment the block completes — so
/// a crash loses at most the blocks in flight.
///
/// Anytime: once `cancel` trips no new job starts and running jobs stop at
/// the next ACO round boundary; the ledger's [`cut`](RunLedger::cut)
/// reduces the unfinished blocks to degraded entries.
pub fn explore_run(
    cfg: &FlowConfig,
    program: &Program,
    seed: u64,
    sink: &dyn EventSink,
    cancel: &CancelToken,
    store: Option<&Checkpoints>,
) -> RunLedger {
    let _trace = cfg.tracer.attach();
    let hot = hot_blocks(cfg, program);
    let _s = cfg.tracer.span_with("flow.explore", || {
        vec![
            ("blocks", hot.len().to_string()),
            ("seed", seed.to_string()),
        ]
    });
    let ledger = RunLedger::open(cfg, program, seed, store);
    let pending = ledger.pending();
    let jobs: Vec<_> = pending
        .iter()
        .map(|&(block, repeat)| (block_task(hot[block]), ExploreJob::new(block, repeat, seed)))
        .collect();
    let ledger = Mutex::new(ledger);
    Engine::new(explore_spec(cfg)).explore_jobs(&jobs, sink, cancel, |i, outcome| {
        let landed = lock_unpoisoned(&ledger).accept(pending[i], outcome);
        if let (Ok(Some(entry)), Some(store)) = (landed, store) {
            store.save(&entry);
        }
    });
    ledger.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Every local run: [`explore_run`], then [`RunLedger::report`] and the
/// tracer's phase profile.
pub(crate) fn run_local(
    cfg: &FlowConfig,
    program: &Program,
    seed: u64,
    sink: &dyn EventSink,
    cancel: &CancelToken,
    store: Option<&Checkpoints>,
) -> (FlowReport, RunMetrics) {
    let _trace = cfg.tracer.attach();
    let start = Instant::now();
    let ledger = explore_run(cfg, program, seed, sink, cancel, store);
    let (report, mut metrics) = ledger.report(cfg, program, start);
    // Every span above is closed by now, so the aggregate covers the whole
    // run. An untraced run leaves the profile empty — the report itself
    // never depends on the tracer.
    metrics.phase_profile = cfg.tracer.phase_profile();
    (report, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{explore_block_entry, explore_repeats};
    use crate::flow::Algorithm;
    use isex_engine::NullSink;
    use isex_workloads::{Benchmark, OptLevel};

    fn quick_cfg() -> FlowConfig {
        let mut cfg = FlowConfig::paper_default(Algorithm::MultiIssue);
        cfg.repeats = 2;
        cfg.params.max_iterations = 30;
        cfg
    }

    /// crc32's first `blocks` blocks, `repeats` each.
    fn ledger(blocks: usize, repeats: usize) -> RunLedger {
        let hot = Benchmark::Crc32.program(OptLevel::O3).blocks[..blocks].to_vec();
        RunLedger::new("run".to_string(), 7, hot, repeats)
    }

    fn panicked(payload: &str) -> RepeatOutcome {
        RepeatOutcome::Panicked(payload.to_string())
    }

    #[test]
    fn the_first_outcome_for_a_job_wins() {
        let mut ledger = ledger(1, 2);
        assert_eq!(ledger.pending(), [(0, 0), (0, 1)]);
        assert_eq!(ledger.accept((0, 0), panicked("first")), Ok(None));
        assert_eq!(ledger.accept((0, 0), panicked("second")), Err(Duplicate));
        assert!(!ledger.is_complete(), "repeat 1 still out");
        // A failed block is a clean answer: it is saved, so a resume trusts
        // the failure instead of retrying it into another answer.
        let saved = ledger.accept((0, 1), panicked("first")).unwrap();
        let saved = saved.expect("the block's last repeat reduces it");
        assert_eq!(saved.error.as_deref(), Some("first"));
        assert_eq!(saved.jobs_failed, 2);
        assert!(ledger.is_complete());
        assert_eq!(
            ledger.accept((0, 1), RepeatOutcome::Skipped),
            Err(Duplicate)
        );
        assert_eq!(ledger.cut(), [saved]);
    }

    #[test]
    fn a_degraded_entry_is_never_handed_out_for_saving() {
        let mut ledger = ledger(1, 2);
        assert_eq!(ledger.accept((0, 1), panicked("x")), Ok(None));
        // The skipped repeat completes the block, and degrades it.
        let landing = ledger.accept((0, 0), RepeatOutcome::Skipped);
        assert_eq!(landing, Ok(None));
        assert!(ledger.is_complete());
        let entry = ledger.cut().pop().unwrap();
        assert!(entry.degraded && entry.error.is_some());
    }

    #[test]
    fn a_cut_block_reduces_from_the_repeats_it_has() {
        let mut ledger = ledger(2, 2);
        assert_eq!(ledger.accept((0, 0), panicked("x")), Ok(None));
        let entries = ledger.cut();
        assert_eq!(entries.len(), 2);
        let (partial, untouched) = (&entries[0], &entries[1]);
        assert_eq!(
            (partial.jobs_failed, partial.error.as_deref()),
            (1, Some("x"))
        );
        assert!(partial.degraded, "the missing repeat is skipped");
        assert_eq!(untouched.jobs_completed + untouched.jobs_failed, 0);
        assert!(untouched.degraded && untouched.error.is_none());
        assert_eq!(untouched.rounds_completed, Some(0));
    }

    #[test]
    fn open_resumes_the_saved_blocks_and_pends_the_rest() {
        let program = Benchmark::Crc32.program(OptLevel::O3);
        let cfg = quick_cfg();
        let dir = std::env::temp_dir().join(format!("isex-ledger-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Checkpoints::open(&dir).unwrap();
        let entry = explore_block_entry(&cfg, &program, 4, 0, &NullSink, &CancelToken::new());
        store.save(&entry.unwrap());
        let fresh = RunLedger::open(&cfg, &program, 4, None);
        let ledger = RunLedger::open(&cfg, &program, 4, Some(&store));
        assert_eq!(ledger.key(), run_key(&cfg, &program, 4));
        assert_eq!(ledger.resumed, 1);
        assert_eq!(ledger.pending(), fresh.pending()[cfg.repeats..]);
        assert_eq!(
            ledger.cut()[0],
            store.lookup(&run_key(&cfg, &program, 4), 0).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every ordering of `0..n`.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for rest in permutations(n - 1) {
            for at in 0..=rest.len() {
                let mut p = rest.clone();
                p.insert(at, n - 1);
                out.push(p);
            }
        }
        out
    }

    /// Hands block 0's `outcomes` (given in repeat order) to a ledger in
    /// `order` of arrival and takes its entry: reduced when every repeat
    /// arrived, cut when some never did.
    fn arrive(
        key: &str,
        block: &BasicBlock,
        outcomes: &[Option<RepeatOutcome>],
        order: &[usize],
    ) -> CheckpointEntry {
        let hot = vec![block.clone()];
        let mut ledger = RunLedger::new(key.to_string(), 0, hot, outcomes.len());
        for &repeat in order {
            if let Some(outcome) = &outcomes[repeat] {
                assert!(ledger.accept((0, repeat), outcome.clone()).is_ok());
            }
        }
        ledger.cut().pop().unwrap()
    }

    #[test]
    fn arrival_order_never_reaches_the_reduction() {
        let program = Benchmark::Crc32.program(OptLevel::O3);
        let mut cfg = quick_cfg();
        cfg.repeats = 4;
        cfg.jobs = 1;
        cfg.params.max_iterations = 20;
        // Repeat 1 panics; repeat 2 trips the run's token at its start, so
        // it comes back degraded and repeat 3 never starts.
        cfg.fault_plan = Some(isex_engine::FaultPlan::parse("panic@0.1 cancel@0.2").unwrap());
        let seed = 5;
        let key = run_key(&cfg, &program, seed);
        let block = hot_blocks(&cfg, &program)[0];
        let none = CancelToken::new();
        let expected = explore_block_entry(&cfg, &program, seed, 0, &NullSink, &none).unwrap();
        let jobs = [(0, 0), (0, 1), (0, 2), (0, 3)];
        let real = explore_repeats(&cfg, &program, seed, &jobs, &NullSink, &CancelToken::new());
        let explored = |o: &RepeatOutcome| match o {
            RepeatOutcome::Explored(e) => Some(e.clone()),
            _ => None,
        };
        assert!(matches!(real[1], RepeatOutcome::Panicked(_)));
        assert!(explored(&real[2]).is_some_and(|e| e.degraded));
        assert_eq!(real[3], RepeatOutcome::Skipped);

        // The real outcomes, in every arrival order, with the skipped
        // repeat both delivered (a job skipped at dispatch) and missing (a
        // cut run): always `explore_block_entry`'s entry.
        let delivered: Vec<Option<RepeatOutcome>> = real.iter().cloned().map(Some).collect();
        let mut missing = delivered.clone();
        missing[3] = None;
        for order in permutations(real.len()) {
            assert_eq!(
                arrive(&key, block, &delivered, &order),
                expected,
                "{order:?}"
            );
            assert_eq!(arrive(&key, block, &missing, &order), expected, "{order:?}");
        }

        // Ties: equal cycles and area, one of them degraded; equal cycles
        // and a larger area; a panic; a skip. The kept exploration is the
        // first non-degraded one of the full tie in repeat order — `rounds`
        // tells the tied ones apart — whatever order the repeats arrive in.
        let base = explored(&real[0]).unwrap();
        assert!(
            !base.candidates.is_empty(),
            "the area tie-break needs a candidate"
        );
        let with = |rounds: usize, degraded: bool, extra_area: f64| {
            let mut e = base.clone();
            e.rounds = rounds;
            e.degraded = degraded;
            e.candidates[0].area_um2 += extra_area;
            RepeatOutcome::Explored(e)
        };
        let tied = vec![
            Some(with(1, true, 0.0)),
            Some(with(7, false, 0.0)),
            Some(with(9, false, 0.0)),
            Some(with(3, false, 1.0)),
            Some(RepeatOutcome::Panicked("boom".into())),
            Some(RepeatOutcome::Skipped),
        ];
        let in_repeat_order: Vec<RepeatOutcome> = tied.iter().flatten().cloned().collect();
        let reference = entry_from_repeats(&key, block, 0, &in_repeat_order);
        assert!(reference.degraded, "a skipped repeat degrades the block");
        assert_eq!(reference.rounds_completed, Some(7));
        assert_eq!((reference.jobs_completed, reference.jobs_failed), (4, 1));
        for order in permutations(tied.len()) {
            assert_eq!(arrive(&key, block, &tied, &order), reference, "{order:?}");
        }
    }
}
