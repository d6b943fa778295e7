//! `serve-mix`: an in-process `isexd` with one engine worker, a memory LRU
//! smaller than the key set and a fresh disk store, driven by two
//! closed-loop clients (one connection per request, as the shipped client
//! does). A key's first touch is a cold run that writes the store; recent
//! keys hit memory, evicted ones hit the store. Every pass starts from a
//! fresh server and store and draws fresh seeded traffic. Each answer is
//! byte-compared with a plain `run_flow` made during set-up.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use isex_flow::{run_flow, FlowReport};
use isex_serve::server::{self, ServerConfig, ServerHandle};
use isex_serve::{client, ExploreRequest, ExploreResponse};
use isex_workloads::{Benchmark, OptLevel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{self, for_window, median, Metric};
use crate::Outcome;

/// Memory-LRU entries; the key set is larger, so the store serves too.
const LRU_ENTRIES: usize = 4;
/// Requests per pass beyond the first touch of every key. The 14 cold runs
/// are then 2.5% of a pass, so `latency_ms.p95` lies among the cache hits
/// this workload is about instead of on the host-speed-bound cold runs.
const REPEATS: usize = 546;
/// Closed-loop clients, one request in flight each.
const CLIENTS: usize = 2;
/// ACO iterations per round for every request.
const EFFORT: usize = 40;

/// The key set and the expected answer of every key.
struct Mix {
    keys: Vec<ExploreRequest>,
    golden: Vec<String>,
}

/// All 14 programs as keys, with a fixed exploration seed so every pass
/// computes the same cold runs, and their plain `run_flow` answers.
fn make_mix() -> Mix {
    let keys: Vec<ExploreRequest> = Benchmark::ALL
        .iter()
        .flat_map(|&bench| [(bench, OptLevel::O0), (bench, OptLevel::O3)])
        .map(|(bench, opt)| ExploreRequest {
            bench,
            opt,
            seed: crate::paper_suite::FLOW_SEED,
            repeats: 1,
            effort: EFFORT,
            jobs: 1,
            ..ExploreRequest::default()
        })
        .collect();
    let golden = keys
        .iter()
        .map(|req| {
            let report = run_flow(&req.flow_config(), &req.program(), req.seed);
            serde_json::to_string(&report).expect("report serializes")
        })
        .collect();
    Mix { keys, golden }
}

/// One pass of traffic, as key indices in request order: every key once,
/// and `REPEATS` more requests following a Zipf(1) popularity over a fresh
/// seeded ranking of the keys, shuffled together.
fn traffic(keys: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut by_rank: Vec<usize> = (0..keys).collect();
    stats::shuffle(&mut by_rank, rng);
    let weights: Vec<f64> = (0..keys).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut ops: Vec<usize> = (0..keys).collect();
    for _ in 0..REPEATS {
        let mut x = rng.gen_range(0.0..total);
        let rank = weights
            .iter()
            .position(|w| {
                x -= w;
                x < 0.0
            })
            .unwrap_or(keys - 1);
        ops.push(by_rank[rank]);
    }
    stats::shuffle(&mut ops, rng);
    ops
}

/// A live server over its own fresh store directory.
struct Live {
    handle: ServerHandle,
    store_dir: PathBuf,
}

impl Live {
    fn start(run_dir: &Path, n: usize) -> Live {
        let store_dir = run_dir.join(format!("serve-store-{n}"));
        let _ = std::fs::remove_dir_all(&store_dir);
        let handle = server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            engine_workers: 1,
            cache_capacity: LRU_ENTRIES,
            store_dir: Some(store_dir.clone()),
            ..ServerConfig::default()
        })
        .expect("server starts");
        let health = client::get(&handle.addr().to_string(), "/healthz").expect("server answers");
        assert_eq!(health.status, 200, "healthz");
        Live { handle, store_dir }
    }

    fn stop(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

/// Client-side split of one traced exchange.
#[derive(Clone, Copy, Default)]
struct Wire {
    connect_ms: f64,
    ttfb_ms: f64,
    body_ms: f64,
    parse_us: f64,
}

/// One answered (or refused) request.
struct Answer {
    key: usize,
    ms: f64,
    /// `run`, `memory`, `store`, `coalesced`, or `error`.
    source: String,
    ok: bool,
    shed: bool,
    report: Option<FlowReport>,
    wire: Option<Wire>,
}

/// The same exchange as `client::explore`, timed at each stage.
fn timed_explore(addr: &str, req: &ExploreRequest) -> Result<(ExploreResponse, Wire), u16> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|_| 0u16)?;
    let connected = Instant::now();
    let body = req.to_json();
    let head = format!(
        "POST /v1/explore HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(|_| 0u16)?;
    stream.write_all(body.as_bytes()).map_err(|_| 0u16)?;
    let mut raw = vec![0u8; 64 * 1024];
    let n = stream.read(&mut raw).map_err(|_| 0u16)?;
    let first_byte = Instant::now();
    raw.truncate(n);
    stream.read_to_end(&mut raw).map_err(|_| 0u16)?;
    let done = Instant::now();
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text.split_once("\r\n\r\n").ok_or(0u16)?;
    let status: u16 = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(0u16)?;
    if status != 200 {
        return Err(status);
    }
    let parse_start = Instant::now();
    let response = ExploreResponse::from_json(body).map_err(|_| status)?;
    let wire = Wire {
        connect_ms: (connected - t0).as_secs_f64() * 1e3,
        ttfb_ms: (first_byte - connected).as_secs_f64() * 1e3,
        body_ms: (done - first_byte).as_secs_f64() * 1e3,
        parse_us: parse_start.elapsed().as_secs_f64() * 1e6,
    };
    Ok((response, wire))
}

fn ask(mix: &Mix, addr: &str, key: usize, traced: bool) -> Answer {
    let req = &mix.keys[key];
    let start = Instant::now();
    let result = if traced {
        timed_explore(addr, req).map(|(r, w)| (r, Some(w)))
    } else {
        client::explore(addr, req)
            .map(|r| (r, None))
            .map_err(|e| match e {
                client::ClientError::Http { status, .. } => status,
                _ => 0,
            })
    };
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok((response, wire)) => {
            let bytes = serde_json::to_string(&response.report).expect("report serializes");
            let ok = !response.degraded && bytes == mix.golden[key];
            if !ok {
                eprintln!(
                    "serve-mix: `{}` answered ({}) with a report that differs from run_flow",
                    req.canonical_key(),
                    response.source
                );
            }
            Answer {
                key,
                ms,
                source: response.source,
                ok,
                shed: false,
                report: Some(response.report),
                wire,
            }
        }
        Err(status) => {
            eprintln!(
                "serve-mix: `{}` failed with status {status}",
                req.canonical_key()
            );
            Answer {
                key,
                ms,
                source: "error".into(),
                ok: false,
                shed: status == 503,
                report: None,
                wire: None,
            }
        }
    }
}

/// One pass of `ops` by `CLIENTS` closed-loop clients.
fn pass(mix: &Mix, ops: &[usize], addr: &str, traced: bool) -> (Vec<Answer>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let answers = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&key) = ops.get(i) else {
                            return out;
                        };
                        out.push(ask(mix, addr, key, traced));
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (answers, start.elapsed().as_secs_f64())
}

pub fn run(seed: u64, window: Duration, trace: bool, run_dir: &Path) -> Outcome {
    let mut servers = 0usize;
    let (first, setup_metric) = stats::repeated_setup(
        || {
            servers += 1;
            (make_mix(), Live::start(run_dir, servers))
        },
        |(_, live)| live.stop(),
    );
    let (mix, mut live) = first;
    let mut answers = Vec::new();
    let mut pass_s = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for_window(window, |i| {
        if i > 0 {
            // A fresh server and store: every pass sees the same cold start.
            live_restart(&mut live, run_dir, &mut servers);
        }
        let ops = traffic(mix.keys.len(), &mut rng);
        let (a, s) = pass(&mix, &ops, &live.handle.addr().to_string(), trace);
        eprintln!("serve-mix pass {i}: {s:.3} s");
        answers.push(a);
        pass_s.push(s);
    });
    live.stop();

    let attempted = answers.iter().map(Vec::len).sum::<usize>() as u64;
    let failed = answers.iter().flatten().filter(|a| !a.ok).count() as u64;
    let metrics = if trace {
        layer_metrics(&answers)
    } else {
        end_to_end(&mix, &answers, &pass_s, setup_metric)
    };
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

fn live_restart(live: &mut Live, run_dir: &Path, servers: &mut usize) {
    *servers += 1;
    let fresh = Live::start(run_dir, *servers);
    std::mem::replace(live, fresh).stop();
}

fn end_to_end(mix: &Mix, answers: &[Vec<Answer>], pass_s: &[f64], setup: Metric) -> Vec<Metric> {
    let all = answers.iter().flatten();
    let all_ms: Vec<f64> = all.clone().map(|a| a.ms).collect();
    let hit_ms: Vec<f64> = all
        .clone()
        .filter(|a| a.source == "memory" || a.source == "store")
        .map(|a| a.ms)
        .collect();
    let wall_s = median(pass_s);
    let mut by_key: Vec<Option<FlowReport>> = vec![None; mix.keys.len()];
    for a in answers.iter().flatten() {
        if let Some(r) = &a.report {
            by_key[a.key].get_or_insert_with(|| r.clone());
        }
    }
    let reports: Vec<FlowReport> = by_key.into_iter().flatten().collect();
    // Each key is explored once per pass (fresh server); hits compute none.
    let iters_per_pass: usize = reports.iter().map(|r| r.iterations).sum();
    let mut m = vec![
        setup,
        Metric::new("wall_s", "s", wall_s, "median of passes", pass_s.len()),
    ];
    m.extend(crate::latency_metrics(
        &all_ms,
        &hit_ms,
        "requests answered from memory or store",
    ));
    m.push(Metric::new(
        "iters_per_s",
        "1/s",
        iters_per_pass as f64 / wall_s,
        "ant iterations computed per pass (one cold run per key) / wall_s",
        pass_s.len(),
    ));
    m.extend(crate::report_quality(&reports));
    m
}

fn layer_metrics(answers: &[Vec<Answer>]) -> Vec<Metric> {
    let all: Vec<&Answer> = answers.iter().flatten().collect();
    let wires: Vec<Wire> = all.iter().filter_map(|a| a.wire).collect();
    let wire = |f: fn(&Wire) -> f64| median(&wires.iter().map(f).collect::<Vec<_>>());
    let mut m = vec![
        Metric::new(
            "serve.connect_ms",
            "ms",
            wire(|w| w.connect_ms),
            "median of requests",
            wires.len(),
        ),
        Metric::new(
            "serve.ttfb_ms",
            "ms",
            wire(|w| w.ttfb_ms),
            "median of requests: request sent → first byte",
            wires.len(),
        ),
        Metric::new(
            "serve.body_ms",
            "ms",
            wire(|w| w.body_ms),
            "median of requests: first byte → last byte",
            wires.len(),
        ),
        Metric::new(
            "serve.parse_us",
            "us",
            wire(|w| w.parse_us),
            "median of ExploreResponse::from_json",
            wires.len(),
        ),
    ];
    let passes = answers.len();
    let per_pass = |source: &str| {
        let counts: Vec<f64> = answers
            .iter()
            .map(|a| a.iter().filter(|x| x.source == source).count() as f64)
            .collect();
        median(&counts)
    };
    for source in ["run", "memory", "store", "coalesced"] {
        m.push(Metric::new(
            format!("serve.source.{source}"),
            "count",
            per_pass(source),
            "answers per pass, median of passes",
            passes,
        ));
    }
    let shed = all.iter().filter(|a| a.shed).count();
    m.push(Metric::new(
        "serve.shed",
        "count",
        shed as f64,
        "503 answers over all passes",
        all.len(),
    ));
    let hits = all
        .iter()
        .filter(|a| matches!(a.source.as_str(), "memory" | "store" | "coalesced"))
        .count();
    m.push(Metric::new(
        "serve.hit_ratio",
        "ratio",
        hits as f64 / all.len() as f64,
        "memory + store + coalesced answers / requests",
        all.len(),
    ));
    m
}
