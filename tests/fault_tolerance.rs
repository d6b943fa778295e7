//! End-to-end fault-tolerance tests over the whole flow: deterministic
//! fault injection ([`FaultPlan`]), panic isolation + worker supervision,
//! and checkpoint/resume.
//!
//! The `FAULT_PLAN` environment variable overrides the default plan for
//! the invariant tests, so CI can sweep a matrix of plans over the same
//! assertions: whatever the plan, accounting must balance, results must be
//! deterministic, and undamaged blocks must be untouched.

use isex::flow::{run_flow_checkpointed, CancelToken, FaultPlan};
use isex::prelude::*;

fn base_config() -> FlowConfig {
    let mut cfg =
        FlowConfig::for_machine(Algorithm::MultiIssue, MachineConfig::preset_2issue_4r2w());
    cfg.params.max_iterations = 40;
    cfg.repeats = 2;
    cfg.jobs = 2;
    cfg
}

fn config_with_plan(plan: Option<&str>) -> FlowConfig {
    let mut cfg = base_config();
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
    let mut cfg = config_with_plan(Some(&spec));
    cfg.repeats = 4; // enough jobs for ratio rules to actually fire
    let program = Benchmark::Crc32.program(OptLevel::O3);
    let (_, m) = run_flow_observed(&cfg, &program, 0xF417, &NullSink);

    assert_eq!(
        m.jobs_completed + m.jobs_failed,
        m.jobs_total,
        "plan `{spec}`: every planned job must be accounted for"
    );
    assert_eq!(
        m.worker_restarts, m.jobs_failed,
        "plan `{spec}`: one supervised restart per isolated panic"
    );
    assert_eq!(m.jobs_total, m.blocks_explored * cfg.repeats);
    for failure in &m.block_failures {
        assert_eq!(
            failure.repeats_failed, cfg.repeats,
            "a block failure means *every* repeat died"
        );
        assert!(!failure.error.is_empty());
    }
}

#[test]
fn fault_injection_is_deterministic_across_runs() {
    let spec = env_plan();
    let program = Benchmark::Crc32.program(OptLevel::O3);
    let run = || run_flow_observed(&config_with_plan(Some(&spec)), &program, 0xD3, &NullSink);
    let (report_a, metrics_a) = run();
    let (report_b, metrics_b) = run();

    assert_eq!(
        report_json(&report_a),
        report_json(&report_b),
        "plan `{spec}`: same plan, same seed, same answer"
    );
    assert_eq!(metrics_a.jobs_failed, metrics_b.jobs_failed);
    assert_eq!(metrics_a.worker_restarts, metrics_b.worker_restarts);
    assert_eq!(metrics_a.block_failures, metrics_b.block_failures);
    assert_eq!(metrics_a.block_spread, metrics_b.block_spread);
}

#[test]
fn targeted_panic_fails_one_block_and_leaves_the_rest_bitwise_intact() {
    // One repeat per block: panicking (block 0, repeat 0) kills block 0
    // outright while every other block's exploration must be untouched.
    let mut clean_cfg = config_with_plan(None);
    clean_cfg.repeats = 1;
    let mut fault_cfg = config_with_plan(Some("panic@0.0"));
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
    let (clean_report, clean) =
        run_flow_observed(&config_with_plan(None), &program, 0xDE1A7, &NullSink);
    let (slow_report, slow) = run_flow_observed(
        &config_with_plan(Some("delay:1/1:2ms")),
        &program,
        0xDE1A7,
        &NullSink,
    );
    assert_eq!(report_json(&clean_report), report_json(&slow_report));
    assert_eq!(slow.jobs_failed, 0);
    assert_eq!(clean.block_spread, slow.block_spread);
}

#[test]
fn interrupted_checkpoint_resume_is_bitwise_equal_to_a_fresh_run() {
    let dir =
        std::env::temp_dir().join(format!("isex-fault-tolerance-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = base_config();
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
    let mut cfg = config_with_plan(Some("panic@0.0"));
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
