//! End-to-end fault-tolerance tests over the whole flow: deterministic
//! fault injection ([`FaultPlan`]), panic isolation + worker supervision,
//! and checkpoint/resume.
//!
//! The `FAULT_PLAN` environment variable overrides the default plan for
//! the invariant tests, so CI can sweep a matrix of plans over the same
//! assertions: whatever the plan, accounting must balance, results must be
//! deterministic, and undamaged blocks must be untouched. The invariant
//! tests run both explorers: MI and SI share one round loop, so a plan
//! must mean the same to each.

use isex::engine::{RunEvent, VecSink};
use isex::flow::{run_flow_checkpointed, CancelToken, FaultPlan};
use isex::prelude::*;

const ALGORITHMS: [Algorithm; 2] = [Algorithm::MultiIssue, Algorithm::SingleIssue];

fn base_config(algorithm: Algorithm) -> FlowConfig {
    let mut cfg = FlowConfig::for_machine(algorithm, MachineConfig::preset_2issue_4r2w());
    cfg.params.max_iterations = 40;
    cfg.repeats = 2;
    cfg.jobs = 2;
    cfg
}

fn config_with_plan(algorithm: Algorithm, plan: Option<&str>) -> FlowConfig {
    let mut cfg = base_config(algorithm);
    cfg.fault_plan = plan.map(|spec| FaultPlan::parse(spec).expect("valid plan"));
    cfg
}

fn report_json(report: &FlowReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

/// The plan under test: `FAULT_PLAN` from the environment (the CI matrix
/// sets e.g. `panic:1/3 delay:1/5`), or a mixed default.
fn env_plan() -> String {
    std::env::var("FAULT_PLAN").unwrap_or_else(|_| "panic:1/3 delay:1/5:1ms".to_string())
}

#[test]
fn any_fault_plan_keeps_the_accounting_balanced() {
    let spec = env_plan();
    for algorithm in ALGORITHMS {
        let mut cfg = config_with_plan(algorithm, Some(&spec));
        cfg.repeats = 4; // enough jobs for ratio rules to actually fire
        let program = Benchmark::Crc32.program(OptLevel::O3);
        let (_, m) = run_flow_observed(&cfg, &program, 0xF417, &NullSink);

        assert_eq!(
            m.jobs_completed + m.jobs_failed,
            m.jobs_total,
            "{algorithm}, plan `{spec}`: every planned job must be accounted for"
        );
        assert_eq!(
            m.worker_restarts, m.jobs_failed,
            "{algorithm}, plan `{spec}`: one supervised restart per isolated panic"
        );
        assert_eq!(m.jobs_total, m.blocks_explored * cfg.repeats);
        for failure in &m.block_failures {
            assert_eq!(
                failure.repeats_failed, cfg.repeats,
                "{algorithm}: a block failure means *every* repeat died"
            );
            assert!(!failure.error.is_empty());
        }
    }
}

#[test]
fn fault_injection_is_deterministic_across_runs() {
    let spec = env_plan();
    let program = Benchmark::Crc32.program(OptLevel::O3);
    for algorithm in ALGORITHMS {
        let cfg = config_with_plan(algorithm, Some(&spec));
        let run = || run_flow_observed(&cfg, &program, 0xD3, &NullSink);
        let (report_a, metrics_a) = run();
        let (report_b, metrics_b) = run();

        assert_eq!(
            report_json(&report_a),
            report_json(&report_b),
            "{algorithm}, plan `{spec}`: same plan, same seed, same answer"
        );
        assert_eq!(metrics_a.jobs_failed, metrics_b.jobs_failed);
        assert_eq!(metrics_a.worker_restarts, metrics_b.worker_restarts);
        assert_eq!(metrics_a.block_failures, metrics_b.block_failures);
        assert_eq!(metrics_a.block_spread, metrics_b.block_spread);
    }
}

#[test]
fn targeted_panic_fails_one_block_and_leaves_the_rest_bitwise_intact() {
    // One repeat per block: panicking (block 0, repeat 0) kills block 0
    // outright while every other block's exploration must be untouched.
    let mut clean_cfg = config_with_plan(Algorithm::MultiIssue, None);
    clean_cfg.repeats = 1;
    let mut fault_cfg = config_with_plan(Algorithm::MultiIssue, Some("panic@0.0"));
    fault_cfg.repeats = 1;
    let program = Benchmark::Crc32.program(OptLevel::O3);
    let seed = 0x1507;

    let (_, clean) = run_flow_observed(&clean_cfg, &program, seed, &NullSink);
    let (_, faulted) = run_flow_observed(&fault_cfg, &program, seed, &NullSink);

    assert!(clean.blocks_explored >= 2, "need a victim and survivors");
    assert_eq!(faulted.jobs_failed, 1);
    assert!(faulted.worker_restarts >= 1);
    assert_eq!(faulted.block_failures.len(), 1);
    let failure = &faulted.block_failures[0];
    assert_eq!(failure.block_index, 0);
    assert!(
        failure
            .error
            .contains("injected fault: panic at block=0 repeat=0"),
        "{}",
        failure.error
    );

    // The surviving blocks' explorations are bitwise identical to the
    // clean run's: per-job seeds come from canonical block indices, so a
    // neighbour's panic cannot perturb them.
    assert_eq!(clean.block_spread.len(), faulted.block_spread.len() + 1);
    assert_eq!(
        faulted.block_spread,
        clean.block_spread[1..],
        "survivors must not feel block 0's panic"
    );
    assert_eq!(faulted.jobs_completed, clean.jobs_completed - 1);
}

#[test]
fn delay_faults_never_change_the_answer() {
    let program = Benchmark::Crc32.program(OptLevel::O3);
    for algorithm in ALGORITHMS {
        let (clean_report, clean) = run_flow_observed(
            &config_with_plan(algorithm, None),
            &program,
            0xDE1A7,
            &NullSink,
        );
        let (slow_report, slow) = run_flow_observed(
            &config_with_plan(algorithm, Some("delay:1/1:2ms")),
            &program,
            0xDE1A7,
            &NullSink,
        );
        assert_eq!(
            report_json(&clean_report),
            report_json(&slow_report),
            "{algorithm}"
        );
        assert_eq!(slow.jobs_failed, 0);
        assert_eq!(clean.block_spread, slow.block_spread);
    }
}

/// A token tripped as the first job starts cuts that job at the boundary
/// before its first round, for SI as for MI: block 0 keeps a degraded,
/// empty exploration with `rounds_completed: Some(0)`, and every later job
/// is skipped.
#[test]
fn cancel_at_the_first_job_cuts_si_at_a_round_boundary() {
    let mut cfg = config_with_plan(Algorithm::SingleIssue, Some("cancel@0.0"));
    cfg.jobs = 1;
    let program = Benchmark::Crc32.program(OptLevel::O3);
    let (report, metrics) = run_flow_observed(&cfg, &program, 0xCA7, &NullSink);

    let hottest = &program.hottest().name;
    let block0 = report
        .per_block
        .iter()
        .find(|b| &b.name == hottest)
        .expect("block 0 is in the report");
    assert!(block0.degraded, "{block0:?}");
    assert_eq!(block0.rounds_completed, Some(0), "cut before round 1");
    assert_eq!(report.iterations, 0, "no ant ran after the trip");
    assert!(report.selected.is_empty());
    assert_eq!(metrics.jobs_completed, 1, "block 0's first repeat ran");
    assert_eq!(metrics.jobs_skipped, metrics.jobs_total - 1);
}

#[test]
fn interrupted_checkpoint_resume_is_bitwise_equal_to_a_fresh_run() {
    let dir =
        std::env::temp_dir().join(format!("isex-fault-tolerance-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = base_config(Algorithm::MultiIssue);
    let program = Benchmark::Crc32.program(OptLevel::O3);
    let seed = 0x2e54;
    let cancel = CancelToken::new();

    let (plain_report, plain_metrics) = run_flow_observed(&cfg, &program, seed, &NullSink);

    // A full checkpointed run saves one entry per explored block and
    // reproduces the plain run exactly.
    let (full_report, full_metrics) =
        run_flow_checkpointed(&cfg, &program, seed, &NullSink, &cancel, &dir)
            .expect("checkpointed run");
    assert_eq!(report_json(&full_report), report_json(&plain_report));
    assert_eq!(full_metrics.blocks_resumed, 0);
    let entries = dir.join("entries");
    let mut files: Vec<_> = std::fs::read_dir(&entries)
        .expect("entries exist")
        .map(|e| e.expect("entry").path())
        .collect();
    files.sort();
    assert_eq!(
        files.len(),
        plain_metrics.blocks_explored,
        "one store entry per explored block"
    );

    // Simulate a crash mid-run: keep the first block's entry, plus a torn
    // entry and a stray temp file from a save that died mid-write.
    let torn = std::fs::read(&files[1]).expect("second entry");
    std::fs::write(&files[1], &torn[..torn.len() / 2]).expect("tear entry");
    std::fs::write(entries.join("0000000000000000.tmp.1.0"), &torn[..9]).expect("temp file");

    let (resumed_report, resumed_metrics) =
        run_flow_checkpointed(&cfg, &program, seed, &NullSink, &cancel, &dir).expect("resumed run");
    assert_eq!(
        report_json(&resumed_report),
        report_json(&plain_report),
        "resume must be bitwise equal to an uninterrupted run"
    );
    assert_eq!(resumed_metrics.blocks_resumed, 1, "one block was intact");
    assert_eq!(
        resumed_metrics.blocks_explored,
        plain_metrics.blocks_explored
    );
    assert_eq!(resumed_metrics.jobs_completed, plain_metrics.jobs_completed);
    assert_eq!(resumed_metrics.block_spread, plain_metrics.block_spread);

    // The store is complete again: a third run resumes everything and
    // re-explores nothing.
    let (rerun_report, rerun_metrics) =
        run_flow_checkpointed(&cfg, &program, seed, &NullSink, &cancel, &dir)
            .expect("fully-resumed run");
    assert_eq!(report_json(&rerun_report), report_json(&plain_report));
    assert_eq!(rerun_metrics.blocks_resumed, plain_metrics.blocks_explored);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointed_run_under_faults_journals_the_failure() {
    // A panic that kills a whole block must be recorded in the checkpoint
    // — resume trusts it, so a failed block is resumed as failed, not
    // silently retried into a different answer.
    let dir = std::env::temp_dir().join(format!(
        "isex-fault-tolerance-faulty-ckpt-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = config_with_plan(Algorithm::MultiIssue, Some("panic@0.0"));
    cfg.repeats = 1;
    let program = Benchmark::Crc32.program(OptLevel::O3);
    let cancel = CancelToken::new();

    let (report, metrics) = run_flow_checkpointed(&cfg, &program, 9, &NullSink, &cancel, &dir)
        .expect("faulty checkpointed run");
    assert_eq!(metrics.block_failures.len(), 1);

    let (resumed_report, resumed_metrics) =
        run_flow_checkpointed(&cfg, &program, 9, &NullSink, &cancel, &dir)
            .expect("resume of faulty run");
    assert_eq!(report_json(&resumed_report), report_json(&report));
    assert_eq!(resumed_metrics.blocks_resumed, metrics.blocks_explored);
    assert_eq!(
        resumed_metrics.block_failures, metrics.block_failures,
        "the saved failure must survive resume"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh checkpoint directory for `tag`.
fn temp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("isex-ft-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(seq, block, repeat)` of every `JobStart` and every `JobFinish`.
type JobMarks = Vec<(u64, usize, usize)>;

fn job_marks(events: &[RunEvent]) -> (JobMarks, JobMarks) {
    let (mut starts, mut finishes) = (Vec::new(), Vec::new());
    for e in events {
        match e {
            RunEvent::JobStart {
                block_index,
                repeat,
                ..
            } => starts.push((e.seq(), *block_index, *repeat)),
            RunEvent::JobFinish {
                block_index,
                repeat,
                ..
            } => finishes.push((e.seq(), *block_index, *repeat)),
            _ => {}
        }
    }
    (starts, finishes)
}

#[test]
fn a_checkpointed_run_keeps_every_block_on_one_pool() {
    let dir = temp_store("one-pool");
    let program = Benchmark::Crc32.program(OptLevel::O3);
    let mut cfg = base_config(Algorithm::MultiIssue);
    cfg.repeats = 3;
    assert!(isex::flow::hot_blocks(&cfg, &program).len() >= 2);
    // Block 0's last repeat sleeps (a delay never changes the report), so
    // the other worker runs out of block 0's jobs while it is still open.
    cfg.fault_plan = Some(FaultPlan::parse("delay@0.2:300ms").expect("valid plan"));
    let sink = VecSink::new();
    let (report, metrics) =
        run_flow_checkpointed(&cfg, &program, 12, &sink, &CancelToken::new(), &dir)
            .expect("checkpointed run");
    assert_eq!(
        report_json(&report),
        report_json(&run_flow(&cfg, &program, 12))
    );
    assert!(!metrics.degraded);

    let (starts, finishes) = job_marks(&sink.into_events());
    let block_0_done = finishes.iter().filter(|f| f.1 == 0).map(|f| f.0).max();
    let block_1_starts = starts.iter().filter(|s| s.1 == 1).map(|s| s.0).min();
    let (block_0_done, block_1_starts) = (block_0_done.unwrap(), block_1_starts.unwrap());
    assert!(
        block_1_starts < block_0_done,
        "a job of block 1 must start before block 0's last job finishes: {starts:?} {finishes:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Trips `cancel` when the first job of `block` starts.
struct CancelAtBlock<'a> {
    block: usize,
    cancel: &'a CancelToken,
}

impl EventSink for CancelAtBlock<'_> {
    fn emit(&self, event: RunEvent) {
        if matches!(event, RunEvent::JobStart { block_index, .. } if block_index == self.block) {
            self.cancel.cancel();
        }
    }
}

#[test]
fn a_cancelled_checkpointed_run_answers_degraded_and_resumes_its_clean_blocks() {
    let dir = temp_store("cancelled");
    let program = Benchmark::Crc32.program(OptLevel::O3);
    let mut cfg = base_config(Algorithm::MultiIssue);
    cfg.jobs = 1;
    let seed = 0xca9;
    let cancel = CancelToken::new();
    let sink = CancelAtBlock {
        block: 1,
        cancel: &cancel,
    };
    let (cut, cut_metrics) =
        run_flow_checkpointed(&cfg, &program, seed, &sink, &cancel, &dir).expect("cut run");
    assert!(cut.degraded && cut_metrics.degraded);
    let clean = cut_metrics.blocks_explored - cut_metrics.blocks_degraded;
    assert_eq!(clean, 1, "block 0 completed before the trip");
    let saved = std::fs::read_dir(dir.join("entries"))
        .expect("entries exist")
        .filter(|e| e.as_ref().expect("entry").path().extension() == Some("entry".as_ref()))
        .count();
    assert_eq!(saved, clean, "exactly the clean blocks are saved");

    let (resumed, metrics) =
        run_flow_checkpointed(&cfg, &program, seed, &NullSink, &CancelToken::new(), &dir)
            .expect("resumed run");
    assert_eq!(metrics.blocks_resumed, clean);
    assert!(!resumed.degraded);
    assert_eq!(
        report_json(&resumed),
        report_json(&run_flow(&cfg, &program, seed))
    );
    let _ = std::fs::remove_dir_all(&dir);
}
