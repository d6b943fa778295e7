//! End-to-end overload drill against the **real `isexd` binary** — the
//! CI `overload-smoke` job's teeth. A release-built server with a tiny
//! waiting room is driven into overload over real TCP and must show all
//! three graceful-degradation faces at once:
//!
//! * shed requests answer `503` with a `Retry-After` hint, immediately;
//! * deadline-pressed requests answer `200` with `"degraded": true` and
//!   per-block provenance — a partial answer beats a timeout;
//! * unpressed requests are byte-identical to a direct [`run_flow`]
//!   call, proving the overload machinery is pay-for-use;
//! * and after the dust settles, the on-disk result store holds **zero**
//!   degraded entries — partials never reach any durable tier.
//!
//! Two more drills share the daemon setup: an identical-key burst that must
//! be answered `200` or `503`, never stranded until a `504`, and graceful
//! shutdown while saturated.
//!
//! The test is `#[ignore]`d: it spawns a subprocess and leans on wall
//! clocks, so it runs in the dedicated CI job
//! (`cargo test -p isex-serve --release --test overload_smoke -- --ignored`)
//! rather than in every `cargo test` sweep.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use isex_serve::client::{self, ClientError};
use isex_serve::protocol::decode_result_payload;
use isex_serve::ExploreRequest;
use isex_store::Store;

/// The spawned `isexd`, killed on drop so a panicking assertion never
/// leaks a listener into the CI runner.
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns the real binary on an OS-assigned port and scrapes the bound
/// address from its startup banner on stderr.
fn spawn_isexd(args: &[&str]) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_isexd"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn isexd");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut reader = BufReader::new(stderr);
    let mut addr = None;
    let mut line = String::new();
    while reader.read_line(&mut line).expect("read isexd stderr") > 0 {
        if let Some(rest) = line.trim().strip_prefix("isexd listening on http://") {
            addr = Some(rest.to_string());
            break;
        }
        line.clear();
    }
    let addr = addr.expect("isexd printed its listen address before exiting");
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    Daemon { child, addr }
}

/// A request heavy enough to occupy the single worker for a while.
fn slow(seed: u64) -> ExploreRequest {
    ExploreRequest {
        seed,
        effort: 4_000,
        repeats: 6,
        ..ExploreRequest::default()
    }
}

#[test]
#[ignore = "spawns the isexd binary; run via the CI overload-smoke job"]
fn overloaded_isexd_sheds_degrades_and_keeps_clean_answers_clean() {
    let store_dir =
        std::env::temp_dir().join(format!("isex-overload-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let daemon = spawn_isexd(&[
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--queue-cap",
        "1",
        "--store-dir",
        store_dir.to_str().expect("utf-8 temp path"),
    ]);
    let addr = daemon.addr.clone();

    // -- Phase 1: saturation. One worker, one waiting-room slot, a burst
    // of slow requests with distinct seeds (so coalescing cannot merge
    // them): the overflow must be *refused now* with 503 + Retry-After,
    // not parked until its deadline burns out.
    let outcomes: Vec<_> = (0..6u64)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || client::explore(&addr, &slow(1_000 + i)))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    let shed: Vec<_> = outcomes
        .iter()
        .filter_map(|r| match r {
            Err(ClientError::Http {
                status: 503,
                retry_after_secs,
                ..
            }) => Some(retry_after_secs),
            _ => None,
        })
        .collect();
    assert!(
        !shed.is_empty(),
        "a 1-deep queue under a 6-request burst must shed: {outcomes:?}"
    );
    assert!(
        shed.iter().all(|hint| hint.is_some()),
        "every 503 must carry a Retry-After hint"
    );
    assert!(
        outcomes.iter().any(|r| r.is_ok()),
        "shedding must protect the admitted requests, not replace them: {outcomes:?}"
    );
    for response in outcomes.iter().flatten() {
        assert!(
            !(response.degraded && response.cached),
            "a degraded answer must never come from a cache tier"
        );
    }

    // -- Phase 2: deadline pressure. The queue is idle again, so a tight
    // budget is *admitted* and answered with whatever completed: a 200
    // carrying `degraded: true` and per-block rounds provenance. The
    // engine stops a job at its next ACO round boundary, so a round is
    // the cancellation interval: at this effort the longest round is about
    // 30 ms, a third of the 90 ms grace window, while the whole request
    // costs at least 3x the 810 ms compute budget — uncancelled, it
    // explores for 3.2 s to 3.8 s on a 2-vCPU host.
    let tight = ExploreRequest {
        seed: 77,
        effort: 1_600,
        repeats: 60,
        timeout_ms: Some(900),
        ..ExploreRequest::default()
    };
    let partial =
        client::explore(&addr, &tight).expect("tight deadline yields a partial, not an error");
    assert!(partial.degraded, "envelope must say degraded");
    assert!(partial.report.degraded, "report must say degraded");
    assert!(
        partial
            .report
            .per_block
            .iter()
            .any(|b| b.degraded && b.rounds_completed.is_some()),
        "degraded blocks must carry rounds_completed: {:?}",
        partial.report.per_block
    );

    // -- Phase 3: no pressure, no residue. A comfortable request must be
    // bitwise the direct `run_flow` answer.
    let full = ExploreRequest {
        seed: 0x5EED,
        effort: 40,
        repeats: 2,
        ..ExploreRequest::default()
    };
    let clean = client::explore(&addr, &full).expect("unpressed run");
    assert!(!clean.degraded);
    let direct = isex_flow::run_flow(&full.flow_config(), &full.program(), full.seed);
    assert_eq!(
        serde_json::to_string(&clean.report).unwrap(),
        serde_json::to_string(&direct).unwrap(),
        "an unpressed clustered answer must match run_flow byte for byte"
    );

    // The server lived through all of it.
    let health = client::get(&addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);

    // -- Phase 4: the durable tier. Kill the daemon and audit its store
    // offline: the clean run is there, the partial is not, and no entry
    // anywhere decodes as degraded.
    drop(daemon);
    let store = Store::open(&store_dir, 0).expect("reopen store offline");
    let entries = store.entries();
    assert!(
        entries.iter().any(|e| e.key == clean.key),
        "the clean run must be durably stored; got {entries:?}"
    );
    assert!(
        !entries.iter().any(|e| e.key == partial.key),
        "the degraded run must never be durably stored; got {entries:?}"
    );
    for entry in &entries {
        let bytes = store.lookup(&entry.key).expect("entry readable");
        let cached = decode_result_payload(&entry.key, &bytes)
            .unwrap_or_else(|| panic!("store entry {} must decode", entry.key));
        assert!(
            !cached.report.degraded,
            "store entry {} is degraded — partials leaked into the durable tier",
            entry.key
        );
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// The `/metrics` JSON leaf at `section.field`, as an integer.
fn metric(addr: &str, section: &str, field: &str) -> u64 {
    let raw = client::get(addr, "/metrics").expect("GET /metrics");
    let doc = serde_json::parse(&raw.body).expect("metrics JSON");
    match doc.get(section).and_then(|s| s.get(field)) {
        Some(serde::Value::U64(n)) => *n,
        Some(serde::Value::I64(n)) => *n as u64,
        other => panic!("{section}.{field}: expected an integer, got {other:?}"),
    }
}

/// An identical-key burst into a busy daemon, twice. With the one worker
/// busy, six identical uncached requests arrive at once: first behind a
/// distinct rival that takes the single waiting-room slot, then with the
/// slot free. Every identical request is answered `200` (it joined the
/// admitted run) or `503` (refused, with nothing registered that a
/// follower could coalesce onto) — never a `504` after sitting out its
/// deadline on a job that was never queued. Afterwards no job is left
/// active or in flight.
#[test]
#[ignore = "spawns the isexd binary; run via the CI overload-smoke job"]
fn identical_burst_is_answered_never_stranded() {
    let daemon = spawn_isexd(&[
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--queue-cap",
        "1",
    ]);
    let addr = daemon.addr.clone();
    let explore = |request: ExploreRequest| {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let started = std::time::Instant::now();
            (client::explore(&addr, &request), started.elapsed())
        })
    };

    let wait_until = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    for (round, rival_first) in [(0u64, true), (1, false)] {
        let busy = explore(slow(7_000 + round));
        wait_until("the busy run never started", &|| {
            metric(&addr, "queue", "in_flight") == 1
        });
        // The budget bounds how long a stranded request would sit before
        // its 504; an admitted one finishes well inside it.
        let identical = ExploreRequest {
            seed: 7_100 + round,
            effort: 40,
            repeats: 2,
            timeout_ms: Some(120_000),
            ..ExploreRequest::default()
        };
        let rival = rival_first.then(|| {
            let submitted = metric(&addr, "jobs", "submitted");
            let rival = explore(ExploreRequest {
                seed: 7_200 + round,
                ..identical.clone()
            });
            wait_until("the rival was never admitted", &|| {
                metric(&addr, "jobs", "submitted") > submitted
            });
            rival
        });
        let burst: Vec<_> = (0..6).map(|_| explore(identical.clone())).collect();

        let mut reports = Vec::new();
        for t in burst {
            let (outcome, elapsed) = t.join().expect("client thread");
            match outcome {
                Ok(response) => reports.push(serde_json::to_string(&response.report).unwrap()),
                Err(ClientError::Http {
                    status: 503,
                    retry_after_secs,
                    ..
                }) => {
                    assert!(retry_after_secs.is_some(), "a 503 carries Retry-After");
                    assert!(
                        elapsed < Duration::from_secs(10),
                        "a refusal answers at once, not after {elapsed:?}"
                    );
                }
                other => panic!("an identical request must get 200 or 503, got {other:?}"),
            }
        }
        assert!(
            reports.windows(2).all(|w| w[0] == w[1]),
            "every 200 in a burst carries the one run's report"
        );
        if let Some(rival) = rival {
            let (rival, _) = rival.join().expect("rival thread");
            assert!(
                matches!(rival, Ok(_) | Err(ClientError::Http { status: 503, .. })),
                "{rival:?}"
            );
        }
        assert!(busy.join().expect("busy thread").0.is_ok());

        // Every admitted run has answered its waiters: nothing is left.
        assert_eq!(metric(&addr, "jobs", "active"), 0);
        assert_eq!(metric(&addr, "queue", "in_flight"), 0);
    }
}

/// A cheaper drill: graceful shutdown while saturated must still
/// answer every in-flight client — the running job finishes (200), the
/// queued overflow is rejected (503), nobody hangs. Overload and drain
/// compose.
#[test]
#[ignore = "spawns the isexd binary; run via the CI overload-smoke job"]
fn saturated_shutdown_answers_every_client() {
    let mut daemon = spawn_isexd(&[
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--queue-cap",
        "1",
    ]);
    let addr = daemon.addr.clone();

    let clients: Vec<_> = (0..3u64)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || client::explore(&addr, &slow(9_000 + i)))
        })
        .collect();
    // Let the burst land, then ask for a graceful drain.
    std::thread::sleep(Duration::from_millis(300));
    let _ = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status();
    let _ = daemon.child.wait();

    for client_thread in clients {
        // Every thread must *return* — an answered request (200 for the
        // drained run, 503 for the rejected overflow, 504 for a tripped
        // deadline) or at worst a reset socket — rather than hang on a
        // dying server.
        let outcome = client_thread.join().expect("client thread returns");
        match outcome {
            Ok(_) | Err(ClientError::Http { .. }) | Err(ClientError::Io(_)) => {}
            Err(other) => panic!("client saw a protocol-level failure: {other}"),
        }
    }
}
