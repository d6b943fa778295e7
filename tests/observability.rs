//! End-to-end observability tests: tracing must observe without
//! perturbing (bitwise-identical reports), produce well-formed span trees
//! even when jobs panic, export Perfetto-loadable Chrome traces, and
//! account for essentially all of a run's wall time in the phase profile.

use isex::engine::{RunEvent, VecSink};
use isex::flow::FaultPlan;
use isex::prelude::*;
use serde::Value;

fn quick_cfg() -> FlowConfig {
    let mut cfg =
        FlowConfig::for_machine(Algorithm::MultiIssue, MachineConfig::preset_2issue_4r2w());
    cfg.repeats = 2;
    cfg.jobs = 2;
    cfg.params.max_iterations = 60;
    cfg
}

#[test]
fn traced_and_untraced_reports_are_bitwise_identical() {
    let program = Benchmark::Crc32.program(OptLevel::O3);
    let plain = run_flow(&quick_cfg(), &program, 0x0b5e);
    let mut traced_cfg = quick_cfg();
    traced_cfg.tracer = Tracer::new();
    let traced = run_flow(&traced_cfg, &program, 0x0b5e);
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&traced).unwrap(),
        "tracing consumed RNG or changed control flow"
    );
    assert!(
        !traced_cfg.tracer.records().is_empty(),
        "the traced run recorded no spans"
    );
}

/// SI runs the shared round loop, so a trace-wanting sink gets its
/// per-round `RoundSummary` events too, and recording them leaves the
/// report untouched.
#[test]
fn si_runs_emit_round_summaries_without_changing_the_report() {
    let mut cfg = quick_cfg();
    cfg.algorithm = Algorithm::SingleIssue;
    let program = Benchmark::Crc32.program(OptLevel::O3);
    let plain = run_flow(&cfg, &program, 0x51);
    let sink = VecSink::new();
    let (traced, _) = run_flow_observed(&cfg, &program, 0x51, &sink);
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&traced).unwrap()
    );
    let summaries: Vec<_> = sink
        .into_events()
        .into_iter()
        .filter_map(|e| match e {
            RunEvent::RoundSummary { round, tets, .. } => Some((round, tets.len())),
            _ => None,
        })
        .collect();
    assert!(!summaries.is_empty(), "SI emitted no RoundSummary");
    assert!(summaries
        .iter()
        .all(|&(round, walks)| round >= 1 && walks >= 1));
}

#[test]
fn span_tree_is_well_formed() {
    let mut cfg = quick_cfg();
    cfg.tracer = Tracer::new();
    let program = Benchmark::Bitcount.program(OptLevel::O3);
    let (_, metrics) = run_flow_observed(&cfg, &program, 7, &isex::engine::NullSink);

    let records = cfg.tracer.records();
    assert_eq!(cfg.tracer.dropped(), 0);
    let ids: std::collections::HashSet<u64> = records.iter().map(|r| r.id).collect();
    assert_eq!(ids.len(), records.len(), "span ids are unique");
    for r in &records {
        if let Some(parent) = r.parent {
            assert!(
                ids.contains(&parent),
                "{}: dangling parent {parent}",
                r.name
            );
            assert_ne!(parent, r.id);
        }
    }
    // One engine.job span per planned job, each parented ACO rounds.
    let jobs = records.iter().filter(|r| r.name == "engine.job").count();
    assert_eq!(jobs, metrics.jobs_total);
    let job_ids: std::collections::HashSet<u64> = records
        .iter()
        .filter(|r| r.name == "engine.job")
        .map(|r| r.id)
        .collect();
    for r in records.iter().filter(|r| r.name == "aco.round") {
        assert!(
            r.parent.is_some_and(|p| job_ids.contains(&p)),
            "aco.round must be a child of engine.job"
        );
    }
}

#[test]
fn span_tree_stays_well_formed_when_jobs_panic() {
    let mut cfg = quick_cfg();
    cfg.tracer = Tracer::new();
    cfg.repeats = 4;
    cfg.fault_plan = Some(FaultPlan::parse("panic:1/3").expect("valid plan"));
    let program = Benchmark::Crc32.program(OptLevel::O3);
    let (_, metrics) = run_flow_observed(&cfg, &program, 0xdead, &isex::engine::NullSink);
    assert!(metrics.jobs_failed > 0, "the plan must actually fire");

    // Unwinding closes spans LIFO, so even panicked jobs leave a
    // well-formed forest: unique ids, no dangling parents, and every
    // engine.job span closed (present in the records at all).
    let records = cfg.tracer.records();
    let ids: std::collections::HashSet<u64> = records.iter().map(|r| r.id).collect();
    assert_eq!(ids.len(), records.len());
    for r in &records {
        if let Some(parent) = r.parent {
            assert!(
                ids.contains(&parent),
                "{}: dangling parent {parent}",
                r.name
            );
        }
    }
    let jobs = records.iter().filter(|r| r.name == "engine.job").count();
    assert_eq!(jobs, metrics.jobs_total, "panicked jobs still close spans");
}

#[test]
fn chrome_trace_round_trips_as_valid_json() {
    let mut cfg = quick_cfg();
    cfg.tracer = Tracer::new();
    let program = Benchmark::Bitcount.program(OptLevel::O3);
    let _ = run_flow(&cfg, &program, 3);

    let text = cfg.tracer.chrome_trace();
    let doc = serde_json::parse(&text).expect("chrome trace parses as JSON");
    let Value::Array(events) = doc else {
        panic!("chrome trace must be a JSON array");
    };
    let mut complete = 0usize;
    for ev in &events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph");
        match ph {
            "M" => continue, // metadata (process/thread names)
            "X" => complete += 1,
            other => panic!("unexpected phase `{other}`"),
        }
        assert!(ev.get("name").and_then(Value::as_str).is_some());
        assert!(ev.get("ts").and_then(Value::as_f64).is_some());
        assert!(ev.get("dur").and_then(Value::as_f64).unwrap_or(-1.0) >= 0.0);
        assert!(ev.get("pid").and_then(Value::as_u64).is_some());
        assert!(ev.get("tid").and_then(Value::as_u64).is_some());
    }
    assert_eq!(
        complete,
        cfg.tracer.records().len(),
        "every span record exports as one complete event"
    );
}

#[test]
fn phase_profile_accounts_for_the_run() {
    let mut cfg = quick_cfg();
    cfg.tracer = Tracer::new();
    cfg.params.max_iterations = 150;
    let program = Benchmark::Crc32.program(OptLevel::O3);
    let (_, metrics) = run_flow_observed(&cfg, &program, 11, &isex::engine::NullSink);

    let profile = &metrics.phase_profile;
    assert!(!profile.0.is_empty(), "traced run must produce a profile");
    // The top-level flow spans partition the run (children like aco.round
    // nest inside flow.explore and must not be double counted here).
    let top: f64 = profile
        .0
        .iter()
        .filter(|s| {
            matches!(
                s.name.as_str(),
                "flow.explore" | "flow.patterns" | "flow.select" | "flow.replace"
            )
        })
        .map(|s| s.total_ms)
        .sum();
    let total = metrics.phases.total_ms;
    assert!(top > 0.0 && total > 0.0);
    assert!(
        top <= total * 1.10,
        "top-level spans ({top:.3}ms) exceed the run's wall time ({total:.3}ms)"
    );
    assert!(
        top >= total * 0.85,
        "top-level spans ({top:.3}ms) cover too little of the run ({total:.3}ms)"
    );
}

#[test]
fn event_seq_is_a_total_order_over_arrival() {
    let mut cfg = quick_cfg();
    let program = Benchmark::Bitcount.program(OptLevel::O3);
    let sink = VecSink::new();
    let _ = run_flow_observed(&cfg, &program, 5, &sink);
    cfg.repeats = 2;

    let events = sink.into_events();
    assert!(!events.is_empty());
    let mut seqs: Vec<u64> = events.iter().map(|e| e.seq()).collect();
    seqs.sort_unstable();
    let expect: Vec<u64> = (0..events.len() as u64).collect();
    assert_eq!(seqs, expect, "seq must be gapless 0..n over the stream");
}

#[test]
fn jsonl_events_carry_seq_in_line_order() {
    let dir = std::env::temp_dir().join(format!("isex-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");
    {
        let cfg = quick_cfg();
        let program = Benchmark::Bitcount.program(OptLevel::O3);
        let sink = isex::engine::JsonlSink::create(&path).unwrap();
        let _ = run_flow_observed(&cfg, &program, 9, &sink);
        sink.flush().unwrap();
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let mut n = 0u64;
    for (i, line) in text.lines().enumerate() {
        let ev: isex::engine::RunEvent = serde_json::from_str(line).expect(line);
        assert_eq!(ev.seq(), i as u64, "line order must equal seq order");
        n += 1;
    }
    assert!(n > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
