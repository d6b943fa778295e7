//! The cluster worker: dial the coordinator, heartbeat, explore repeats.
//!
//! A worker is a thin shell around [`explore_repeats`], called with the
//! one `(block, repeat)` job it was sent, so the outcome it ships back is
//! bitwise the one the same repeat yields in a local run. Everything else
//! here is plumbing: the [`Hello`] handshake, a heartbeat thread beating
//! at the coordinator-announced interval, a per-job [`DeadlineTimer`] that
//! trips the run's cancel token so a deadline-pressed job ships a degraded
//! best-so-far partial instead of overrunning, span collection for jobs
//! whose assignment asks for it (shipped back as [`TraceChunk`]s ahead of
//! the result, the worker keeping no trace of its own), and
//! reconnect-with-backoff when the coordinator severs or restarts.

use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use isex_engine::{lock_unpoisoned, CancelToken, DeadlineTimer, FaultPlan, NullSink};
use isex_flow::{explore_repeats, hot_blocks, run_key};
use isex_serve::ExploreRequest;
use isex_trace::OwnedSpan;

use crate::messages::{
    Hello, JobAssign, Message, RepeatResult, TraceChunk, PROTOCOL_VERSION, TRACE_CHUNK_SPANS,
};
use crate::wire::{read_frame, write_frame};

/// Tunables for one worker process.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Coordinator address to dial, e.g. `127.0.0.1:8473`.
    pub connect: String,
    /// Name announced in [`Hello`] (counters, traces, logs).
    pub name: String,
    /// `(block, repeat)` jobs held in flight at once (the coordinator
    /// pipelines up to this many assignments onto the connection).
    pub capacity: usize,
    /// Fault-drill hook: die (return an error, dropping the connection)
    /// upon *receiving* the Nth job, before exploring it — the
    /// deterministic stand-in for `kill -9` mid-assignment.
    pub die_at_job: Option<usize>,
    /// Redial after a lost connection instead of exiting.
    pub reconnect: bool,
    /// Delay between dial attempts, milliseconds.
    pub retry_ms: u64,
    /// Dial attempts before giving up (initial connect and reconnect).
    pub max_dial_attempts: u32,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            connect: "127.0.0.1:8473".to_string(),
            name: "worker".to_string(),
            capacity: 1,
            die_at_job: None,
            reconnect: true,
            retry_ms: 200,
            max_dial_attempts: 50,
        }
    }
}

/// How one connection to the coordinator ended.
enum Session {
    /// Coordinator said [`Goodbye`](Message::Goodbye): exit cleanly.
    Closed,
    /// Connection lost (severed, coordinator died): maybe reconnect.
    Lost,
    /// The `die_at_job` drill fired: exit with an error.
    Died,
}

/// Runs a worker until the coordinator closes the session (`Ok`), the
/// connection is lost with reconnect disabled or exhausted, or the
/// `die_at_job` drill fires (both `Err`).
pub fn run_worker(config: &WorkerConfig) -> Result<(), String> {
    let mut jobs_received = 0usize;
    loop {
        let stream = dial(config)?;
        match serve_session(config, stream, &mut jobs_received)? {
            Session::Closed => return Ok(()),
            Session::Died => {
                return Err(format!(
                    "worker `{}` died after receiving job {} (--die-after-jobs)",
                    config.name, jobs_received
                ))
            }
            Session::Lost if config.reconnect => continue,
            Session::Lost => {
                return Err(format!(
                    "worker `{}` lost its coordinator connection",
                    config.name
                ))
            }
        }
    }
}

fn dial(config: &WorkerConfig) -> Result<TcpStream, String> {
    let mut last_err = String::new();
    for _ in 0..config.max_dial_attempts.max(1) {
        match TcpStream::connect(&config.connect) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = e.to_string(),
        }
        std::thread::sleep(Duration::from_millis(config.retry_ms.max(1)));
    }
    Err(format!(
        "worker `{}` could not reach coordinator at {}: {last_err}",
        config.name, config.connect
    ))
}

fn serve_session(
    config: &WorkerConfig,
    mut stream: TcpStream,
    jobs_received: &mut usize,
) -> Result<Session, String> {
    let hello = Message::Hello(Hello {
        version: PROTOCOL_VERSION,
        name: config.name.clone(),
        capacity: config.capacity.max(1),
    });
    if write_frame(&mut stream, &hello.encode()).is_err() {
        return Ok(Session::Lost);
    }
    let heartbeat_ms = match read_frame(&mut stream) {
        Ok(Some(frame)) => match Message::decode(&frame) {
            Ok(Message::HelloAck(ack)) if ack.version == PROTOCOL_VERSION => ack.heartbeat_ms,
            Ok(Message::HelloAck(ack)) => {
                return Err(format!(
                    "coordinator speaks protocol {} but this worker speaks {}",
                    ack.version, PROTOCOL_VERSION
                ))
            }
            Ok(Message::Goodbye) => return Ok(Session::Closed),
            _ => return Ok(Session::Lost),
        },
        _ => return Ok(Session::Lost),
    };

    // Heartbeats go from their own thread through a shared write half, so
    // a long-running block cannot starve the liveness signal.
    let write_half = Arc::new(Mutex::new(stream.try_clone().map_err(|e| e.to_string())?));
    // Dropping `stop` at session end wakes the beater mid-wait, so the
    // session ends at once instead of up to one heartbeat later.
    let (stop, stopped) = mpsc::channel::<()>();
    let beat_half = Arc::clone(&write_half);
    let beater = std::thread::Builder::new()
        .name(format!("isex-worker-{}-beat", config.name))
        .spawn(move || {
            let beat = Duration::from_millis(heartbeat_ms.max(10));
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(beat) {
                let mut half = lock_unpoisoned(&beat_half);
                if write_frame(&mut *half, &Message::Heartbeat.encode()).is_err() {
                    return;
                }
            }
        })
        .map_err(|e| e.to_string())?;
    let session = 'conn: loop {
        let message = match read_frame(&mut stream) {
            Ok(Some(frame)) => match Message::decode(&frame) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("isex-worker {}: bad frame: {e}", config.name);
                    break 'conn Session::Lost;
                }
            },
            Ok(None) | Err(_) => break 'conn Session::Lost,
        };
        match message {
            Message::Job(assign) => {
                *jobs_received += 1;
                if config.die_at_job.is_some_and(|n| *jobs_received >= n) {
                    break 'conn Session::Died;
                }
                let (result, trace) = match run_job(config, &assign) {
                    Ok(r) => r,
                    Err(e) => {
                        // A job this worker cannot even parse, or one naming
                        // a block outside the run's hot list, is a protocol
                        // breach: drop the connection so the coordinator
                        // re-dispatches elsewhere instead of waiting.
                        eprintln!("isex-worker {}: job {}: {e}", config.name, assign.job_id);
                        break 'conn Session::Lost;
                    }
                };
                let mut half = lock_unpoisoned(&write_half);
                // Span chunks go out before the result on the same
                // connection: frames are ordered, so the coordinator holds
                // the job's full span set by the time the result can
                // complete the run.
                if let Some((spans, threads)) = trace {
                    for batch in spans.chunks(TRACE_CHUNK_SPANS.max(1)) {
                        let chunk = Message::TraceChunk(TraceChunk {
                            job_id: assign.job_id,
                            spans: batch.to_vec(),
                            threads: threads.clone(),
                        });
                        if write_frame(&mut *half, &chunk.encode()).is_err() {
                            break 'conn Session::Lost;
                        }
                    }
                }
                let frame = Message::RepeatResult(result).encode();
                if write_frame(&mut *half, &frame).is_err() {
                    break 'conn Session::Lost;
                }
            }
            Message::Goodbye => break 'conn Session::Closed,
            Message::Heartbeat => {}
            Message::Hello(_)
            | Message::HelloAck(_)
            | Message::Result(_)
            | Message::RepeatResult(_)
            | Message::TraceChunk(_) => break 'conn Session::Lost,
        }
    };
    drop(stop);
    let _ = stream.shutdown(Shutdown::Both);
    let _ = beater.join();
    Ok(session)
}

/// A job's shippable trace: the worker-local spans plus thread names.
type JobTrace = (Vec<OwnedSpan>, Vec<(u64, String)>);

/// Resolves one [`JobAssign`] to its [`RepeatResult`] by running the
/// shared per-repeat unit. When the assignment asks for spans, the job's
/// closed spans come back alongside the result for shipping as
/// [`TraceChunk`] frames. A `block_index` outside the run's hot list is an
/// `Err`, never a panic: the index came off the wire. (Any `repeat` is a
/// valid job: its seed derives from it like any other.)
fn run_job(
    config: &WorkerConfig,
    assign: &JobAssign,
) -> Result<(RepeatResult, Option<JobTrace>), String> {
    let parsed =
        serde_json::parse(&assign.request).map_err(|e| format!("bad request JSON: {e}"))?;
    let request = ExploreRequest::from_json(&parsed).map_err(|e| format!("bad request: {e}"))?;
    let mut cfg = request.flow_config();
    if let Some(spec) = &assign.fault_plan {
        cfg.fault_plan = Some(FaultPlan::parse(spec).map_err(|e| format!("bad fault plan: {e}"))?);
    }
    let program = request.program();
    let hot = hot_blocks(&cfg, &program).len();
    if assign.block_index >= hot {
        return Err(format!(
            "block index {} outside the hot list ({hot} blocks)",
            assign.block_index
        ));
    }
    let tracer = if assign.collect_spans {
        isex_trace::Tracer::with_trace_id(&assign.trace_id)
    } else {
        isex_trace::Tracer::disabled()
    };
    cfg.tracer = tracer.clone();

    // A budgeted job self-cancels at its deadline: the timer trips the
    // token, the repeat comes back as a *degraded* best-so-far exploration
    // (or a skip, if it never started), and the coordinator folds it into
    // a degraded report instead of waiting on work the run can't afford.
    let cancel = CancelToken::new();
    let _budget = assign.budget_ms.and_then(|ms| {
        let deadline = Instant::now() + Duration::from_millis(ms.max(1));
        DeadlineTimer::arm(cancel.clone(), move || Some(deadline))
    });
    let outcome = {
        let _attach = tracer.attach();
        let _span = tracer.span_with("worker.block", || {
            vec![
                ("worker", config.name.clone()),
                ("block", assign.block_index.to_string()),
                ("repeat", assign.repeat.to_string()),
                ("attempt", assign.attempt.to_string()),
                ("trace", assign.trace_id.clone()),
            ]
        });
        let job = [(assign.block_index, assign.repeat)];
        explore_repeats(&cfg, &program, request.seed, &job, &NullSink, &cancel)
            .pop()
            .expect("one job, one outcome")
    };

    let trace = assign.collect_spans.then(|| {
        let spans: Vec<OwnedSpan> = tracer.records().iter().map(OwnedSpan::from).collect();
        let threads: Vec<(u64, String)> = spans
            .iter()
            .map(|s| s.tid)
            .collect::<std::collections::BTreeSet<u64>>()
            .into_iter()
            .map(|tid| (tid, format!("{}-job", config.name)))
            .collect();
        (spans, threads)
    });

    Ok((
        RepeatResult {
            job_id: assign.job_id,
            run_key: run_key(&cfg, &program, request.seed),
            block_index: assign.block_index,
            repeat: assign.repeat,
            outcome,
        },
        trace,
    ))
}
