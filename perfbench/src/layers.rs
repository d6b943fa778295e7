//! The layer harness: outside timings of each crate's public calls on the
//! paper suite's real hot blocks and reports. It runs in every traced run,
//! whatever the workload, because it measures the layers themselves.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use isex_cluster::messages::JobResult;
use isex_cluster::wire::read_frame;
use isex_cluster::Message;
use isex_core::{MultiIssueExplorer, SingleIssueExplorer};
use isex_dfg::{convex, ports, NodeId, NodeSet, Reachability};
use isex_engine::{CancelToken, NullSink};
use isex_flow::{explore_block_entry, hot_blocks, run_flow_observed, FlowConfig};
use isex_isa::ProgramDfg;
use isex_sched::soa::{self, SoaGraph};
use isex_sched::{list_schedule, timing, unit, Priority};
use isex_serve::cache::{CachedResult, ResultCache};
use isex_serve::protocol::{explore_response_json, result_payload_json};
use isex_serve::ExploreRequest;
use isex_store::Store;
use isex_workloads::{Benchmark, OptLevel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::paper_suite;
use crate::stats::{loglog_slope, median, time_per_call, Metric};

/// Time budget for one batch of calls of a sub-millisecond kernel.
const BATCH: Duration = Duration::from_millis(3);
/// Random candidate node sets per block for the set kernels.
const SETS: usize = 48;

/// A hot block of the suite, with its op count `k`.
struct Block {
    dfg: ProgramDfg,
    k: usize,
}

fn hot_set(cfg: &FlowConfig) -> Vec<Block> {
    paper_suite::programs()
        .iter()
        .flat_map(|p| {
            hot_blocks(cfg, p)
                .into_iter()
                .map(|b| Block {
                    dfg: b.dfg.clone(),
                    k: b.dfg.len(),
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Seeded random node sets of 2..=8 members, the size of ISE candidates.
fn random_sets(k: usize, rng: &mut StdRng) -> Vec<NodeSet> {
    (0..SETS)
        .map(|_| {
            let mut s = NodeSet::new(k);
            for _ in 0..rng.gen_range(2..=8usize.min(k)) {
                s.insert(NodeId::new(rng.gen_range(0..k as u32)));
            }
            s
        })
        .collect()
}

/// Median over blocks of the mean per-call time of `f` on each block.
fn per_block(
    name: &str,
    unit: &str,
    scale: f64,
    blocks: &[Block],
    mut f: impl FnMut(usize, &Block),
) -> Metric {
    let mut calls = 0;
    let times: Vec<f64> = blocks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let (secs, n) = time_per_call(BATCH, || f(i, b));
            calls += n;
            secs * scale
        })
        .collect();
    Metric::new(
        name,
        unit,
        median(&times),
        format!(
            "median over {} hot blocks of the mean per call",
            blocks.len()
        ),
        calls,
    )
}

fn dfg_and_sched(blocks: &[Block], cfg: &FlowConfig, seed: u64) -> Vec<Metric> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sets: Vec<Vec<NodeSet>> = blocks.iter().map(|b| random_sets(b.k, &mut rng)).collect();
    let reach: Vec<Reachability> = blocks
        .iter()
        .map(|b| Reachability::compute(&b.dfg))
        .collect();
    let per_set = SETS as f64;
    let lowered: Vec<_> = blocks.iter().map(|b| unit::lower(&b.dfg)).collect();
    let soa_graphs: Vec<SoaGraph> = lowered.iter().map(SoaGraph::from_sched).collect();
    let machine = cfg.machine;
    vec![
        per_block("dfg.reachability_us", "us", 1e6, blocks, |_, b| {
            black_box(Reachability::compute(black_box(&b.dfg)));
        }),
        per_block("dfg.is_convex_ns", "ns", 1e9 / per_set, blocks, |i, _| {
            for s in &sets[i] {
                black_box(convex::is_convex(black_box(s), &reach[i]));
            }
        }),
        per_block("dfg.make_convex_us", "us", 1e6 / per_set, blocks, |i, b| {
            for s in &sets[i] {
                black_box(convex::make_convex(&b.dfg, black_box(s), &reach[i]));
            }
        }),
        per_block("dfg.port_demand_ns", "ns", 1e9 / per_set, blocks, |i, b| {
            for s in &sets[i] {
                black_box(ports::demand(&b.dfg, black_box(s)));
            }
        }),
        per_block("sched.lower_us", "us", 1e6, blocks, |_, b| {
            black_box(unit::lower(black_box(&b.dfg)));
        }),
        per_block("sched.list_schedule_us", "us", 1e6, blocks, |i, _| {
            black_box(list_schedule(&lowered[i], &machine, Priority::Height));
        }),
        per_block("sched.asap_alap_us", "us", 1e6, blocks, |i, _| {
            let s = &lowered[i];
            let asap = timing::asap(black_box(s));
            let len = timing::length_from_asap(s, &asap);
            black_box(timing::alap_from_asap(s, &asap, len));
        }),
        per_block("sched.soa_asap_us", "us", 1e6, blocks, |i, _| {
            let mut out = Vec::new();
            soa::asap_into(black_box(&soa_graphs[i]), &mut out);
            black_box(out);
        }),
    ]
}

/// One MI and one SI exploration of every hot block, and the fit of time
/// per ant iteration against the block's op count (§4.4 predicts k²).
fn core(blocks: &[Block], cfg: &FlowConfig, seed: u64) -> Vec<Metric> {
    let mi = MultiIssueExplorer::with_params(cfg.machine, cfg.constraints, cfg.params);
    let si = SingleIssueExplorer::with_params(cfg.machine, cfg.constraints, cfg.params);
    let mut mi_ms = Vec::new();
    let mut si_ms = Vec::new();
    let mut points = Vec::new();
    let (mut total_s, mut total_iters) = (0.0, 0usize);
    for (i, b) in blocks.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed ^ i as u64);
        let start = Instant::now();
        let ex = mi.explore(&b.dfg, &mut rng);
        let secs = start.elapsed().as_secs_f64();
        mi_ms.push(secs * 1e3);
        total_s += secs;
        total_iters += ex.iterations;
        points.push((b.k as f64, secs * 1e6 / ex.iterations.max(1) as f64));
        let mut rng = StdRng::seed_from_u64(seed ^ i as u64);
        let start = Instant::now();
        black_box(si.explore(&b.dfg, &mut rng));
        si_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let n = blocks.len();
    let ks: Vec<usize> = blocks.iter().map(|b| b.k).collect();
    let (kmin, kmax) = (
        ks.iter().min().copied().unwrap_or(0),
        ks.iter().max().copied().unwrap_or(0),
    );
    vec![
        Metric::new(
            "core.block_explore_ms",
            "ms",
            median(&mi_ms),
            "median over hot blocks of one MI exploration",
            n,
        ),
        Metric::new(
            "core.iter_us",
            "us",
            total_s * 1e6 / total_iters as f64,
            "MI exploration time / ant iterations over all hot blocks",
            total_iters,
        ),
        Metric::new(
            "core.k_exponent",
            "exponent",
            loglog_slope(&points),
            format!("least-squares slope of ln(us per iteration) on ln k, k = {kmin}..{kmax}"),
            n,
        ),
        Metric::new(
            "core.si_block_explore_ms",
            "ms",
            median(&si_ms),
            "median over hot blocks of one SI exploration",
            n,
        ),
    ]
}

/// Store, serve-tier and wire-frame calls on real reports: one small
/// exploration (effort 40, one repeat) of each of the 14 programs.
fn service(seed: u64, run_dir: &Path) -> Vec<Metric> {
    let results: Vec<(String, Arc<CachedResult>)> = Benchmark::ALL
        .iter()
        .flat_map(|&bench| [(bench, OptLevel::O0), (bench, OptLevel::O3)])
        .map(|(bench, opt)| {
            let req = ExploreRequest {
                bench,
                opt,
                seed,
                repeats: 1,
                effort: 40,
                ..ExploreRequest::default()
            };
            let (report, metrics) =
                run_flow_observed(&req.flow_config(), &req.program(), seed, &NullSink);
            (
                req.canonical_key(),
                Arc::new(CachedResult { report, metrics }),
            )
        })
        .collect();

    let store = Store::open(&run_dir.join("layer-store"), 0).expect("open store");
    let mut insert_us = Vec::new();
    let mut entry_bytes = Vec::new();
    for (key, r) in &results {
        let payload = result_payload_json(key, &r.report, &r.metrics);
        let start = Instant::now();
        let bytes = store.insert(key, payload.as_bytes()).expect("store insert");
        insert_us.push(start.elapsed().as_secs_f64() * 1e6);
        entry_bytes.push(bytes as f64);
    }
    let mut lookup_us = Vec::new();
    for (key, _) in &results {
        let (secs, _) = time_per_call(BATCH, || {
            assert!(store.lookup(black_box(key)).is_some(), "store hit");
        });
        lookup_us.push(secs * 1e6);
    }

    let cache = ResultCache::new(results.len());
    for (key, r) in &results {
        cache.insert(key.clone(), Arc::clone(r));
    }
    let mut cache_us = Vec::new();
    let mut json_us = Vec::new();
    for (key, r) in &results {
        let (secs, _) = time_per_call(BATCH, || {
            assert!(cache.lookup(black_box(key)).is_some(), "cache hit");
        });
        cache_us.push(secs * 1e6);
        let (secs, _) = time_per_call(BATCH, || {
            black_box(explore_response_json("memory", key, &r.report, &r.metrics));
        });
        json_us.push(secs * 1e6);
    }

    // A real JobResult: the largest -O3 hot block's exploration entry.
    let req = ExploreRequest {
        bench: Benchmark::Adpcm,
        seed,
        repeats: 1,
        effort: 40,
        ..ExploreRequest::default()
    };
    let entry = explore_block_entry(
        &req.flow_config(),
        &req.program(),
        seed,
        0,
        &NullSink,
        &CancelToken::new(),
    )
    .expect("a fresh token never cancels");
    let message = Message::Result(JobResult {
        job_id: 1,
        worker: "w0".into(),
        entry,
    });
    let (frame_secs, frames) = time_per_call(BATCH * 10, || {
        let bytes = message.encode().encode();
        let frame = read_frame(&mut bytes.as_slice())
            .expect("frame reads")
            .expect("one frame");
        assert_eq!(Message::decode(&frame).expect("frame decodes"), message);
    });

    let n = results.len();
    vec![
        Metric::new(
            "store.insert_us",
            "us",
            median(&insert_us),
            "median over reports of one durable insert",
            n,
        ),
        Metric::new(
            "store.lookup_us",
            "us",
            median(&lookup_us),
            "median over reports of the mean hit lookup",
            n,
        ),
        Metric::new(
            "store.entry_bytes",
            "bytes",
            crate::stats::mean(&entry_bytes),
            "mean entry file size",
            n,
        ),
        Metric::new(
            "serve.cache_lookup_us",
            "us",
            median(&cache_us),
            "median over reports of the mean LRU hit",
            n,
        ),
        Metric::new(
            "serve.response_json_us",
            "us",
            median(&json_us),
            "median over reports of explore_response_json",
            n,
        ),
        Metric::new(
            "cluster.frame_roundtrip_us",
            "us",
            frame_secs * 1e6,
            "mean encode + decode of a JobResult frame",
            frames,
        ),
    ]
}

pub fn run(seed: u64, run_dir: &Path) -> Vec<Metric> {
    let cfg = paper_suite::flow_config();
    let blocks = hot_set(&cfg);
    let mut m = dfg_and_sched(&blocks, &cfg, seed);
    m.extend(core(&blocks, &cfg, seed));
    m.extend(service(seed, run_dir));
    m
}
