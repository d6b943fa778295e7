//! A scoped-thread worker pool with deterministic result ordering and
//! panic isolation.
//!
//! [`run_jobs_anytime`] is the one fan-out: each job runs under
//! `catch_unwind`, a panic becomes a structured [`JobPanic`] in that job's
//! result slot, and the worker that caught it keeps draining the queue —
//! logically, the supervisor resurrected it. The restart count is reported
//! so telemetry can distinguish a clean run from a survived one, and a
//! tripped [`CancelToken`] leaves the slots it kept from starting empty
//! instead of discarding the work already done. [`run_jobs`] is the plain
//! wrapper for callers with nothing to cancel and panics to propagate.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::cancel::CancelToken;

pub use isex_trace::lock_unpoisoned;

/// Resolves a requested worker count: `0` means "one per available core".
pub fn worker_count(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// A job that panicked instead of returning a result.
#[derive(Clone, Debug)]
pub struct JobPanic {
    /// Index of the item whose job panicked.
    pub index: usize,
    /// The panic payload, stringified (`&str`/`String` payloads verbatim).
    pub payload: String,
}

/// What an anytime fan-out produced: every slot that completed before the
/// token tripped, in item order, with skipped slots left `None` instead of
/// the whole result set being discarded.
#[derive(Debug)]
pub struct AnytimeOutcome<R> {
    /// Per-item slots in item order: `Some(Ok)` completed, `Some(Err)`
    /// panicked, `None` never started (claimed after the token tripped).
    pub results: Vec<Option<Result<R, JobPanic>>>,
    /// Panics caught (= workers logically resurrected by the supervisor).
    pub worker_restarts: usize,
    /// Whether any slot was skipped because the token tripped.
    pub cancelled: bool,
}

/// Renders a panic payload for telemetry (`&str`/`String` payloads
/// verbatim).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` over every item, on up to `workers` threads (`0` = auto), and
/// returns the results **in item order** — each result lands in the slot of
/// its item index, so the output is identical for any worker count or
/// scheduling. Items are handed out through a shared cursor, which keeps
/// the pool busy even when per-item cost varies wildly (hot blocks next to
/// tiny ones).
///
/// Panics in `f` propagate once every item has run.
pub fn run_jobs<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_jobs_anytime(items, workers, &CancelToken::new(), f)
        .results
        .into_iter()
        .map(|slot| match slot.expect("a fresh token never cancels") {
            Ok(v) => v,
            Err(p) => panic!("job {} panicked: {}", p.index, p.payload),
        })
        .collect()
}

/// The fault-isolating, anytime fan-out: like [`run_jobs`], but a panic in
/// `f` is caught, recorded as that item's [`JobPanic`], and the worker
/// carries on with the next item; and the pool checks `cancel` before
/// claiming each item, so an in-progress `f` always finishes but no new
/// item starts once the token trips. Every job completed (or caught
/// panicking) before the trip keeps its slot; slots never claimed stay
/// `None`. A token that trips only after the last item completed reports
/// `cancelled: false` — the full, deterministic result set exists.
/// Determinism is preserved: a panicking job affects only its own slot,
/// because jobs share no RNG or accumulator state.
pub fn run_jobs_anytime<T, R, F>(
    items: &[T],
    workers: usize,
    cancel: &CancelToken,
    f: F,
) -> AnytimeOutcome<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = worker_count(workers).min(items.len().max(1));
    let slots: Vec<Mutex<Option<Result<R, JobPanic>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let restarts = AtomicUsize::new(0);
    let run_one = |i: usize| {
        let result = catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))).map_err(|payload| {
            restarts.fetch_add(1, Ordering::Relaxed);
            JobPanic {
                index: i,
                payload: panic_message(&*payload),
            }
        });
        *lock_unpoisoned(&slots[i]) = Some(result);
    };
    if workers <= 1 {
        for i in 0..items.len() {
            if cancel.is_cancelled() {
                break;
            }
            run_one(i);
        }
    } else {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if cancel.is_cancelled() {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    run_one(i);
                });
            }
        });
    }
    let mut results = Vec::with_capacity(items.len());
    let mut cancelled = false;
    for slot in slots {
        let slot = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
        cancelled |= slot.is_none();
        results.push(slot);
    }
    AnytimeOutcome {
        results,
        worker_restarts: restarts.load(Ordering::Relaxed),
        cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_auto_worker_count() {
        assert!(worker_count(0) >= 1);
        assert_eq!(worker_count(3), 3);
    }

    #[test]
    fn results_keep_item_order() {
        let items: Vec<usize> = (0..100).collect();
        let serial = run_jobs(&items, 1, |i, x| i * 1000 + x * x);
        for workers in [2, 4, 8] {
            let parallel = run_jobs(&items, workers, |i, x| i * 1000 + x * x);
            assert_eq!(parallel, serial, "workers={workers}");
        }
    }

    #[test]
    fn uneven_job_costs_still_complete() {
        let items: Vec<u64> = (0..20).collect();
        let out = run_jobs(&items, 4, |_, &x| {
            if x % 5 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x + 1
        });
        assert_eq!(out, (1..=20).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = run_jobs(&[] as &[u32], 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn pre_cancelled_token_skips_all_items() {
        let token = CancelToken::new();
        token.cancel();
        let items: Vec<u32> = (0..8).collect();
        for workers in [1, 4] {
            let out = run_jobs_anytime(&items, workers, &token, |_, &x| x);
            assert!(out.cancelled, "workers={workers}");
            assert!(out.results.iter().all(Option::is_none), "workers={workers}");
        }
    }

    #[test]
    fn cancel_mid_run_stops_issuing_jobs() {
        let token = CancelToken::new();
        let items: Vec<usize> = (0..64).collect();
        let seen = AtomicUsize::new(0);
        let out = run_jobs_anytime(&items, 2, &token, |i, _| {
            seen.fetch_add(1, Ordering::Relaxed);
            if i == 3 {
                token.cancel();
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            i
        });
        assert!(out.cancelled);
        // In-flight jobs finish and keep their slots; nothing new starts
        // after the trip. With 2 workers at most one extra job can already
        // be claimed.
        let ran = seen.load(Ordering::Relaxed);
        assert!(ran < items.len());
        assert_eq!(out.results.iter().filter(|r| r.is_some()).count(), ran);
        assert!(matches!(out.results[3], Some(Ok(3))));
    }

    #[test]
    fn late_cancel_after_completion_still_returns_results() {
        let token = CancelToken::new();
        let items: Vec<u32> = (0..10).collect();
        let out = run_jobs_anytime(&items, 4, &token, |_, &x| x * 2);
        token.cancel();
        assert!(!out.cancelled);
        let values: Vec<u32> = out
            .results
            .into_iter()
            .map(|r| r.unwrap().unwrap())
            .collect();
        assert_eq!(values, (0..10).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn supervised_pool_isolates_panics_and_counts_restarts() {
        let items: Vec<usize> = (0..32).collect();
        for workers in [1, 4] {
            let outcome = run_jobs_anytime(&items, workers, &CancelToken::new(), |_, &x| {
                if x % 8 == 3 {
                    panic!("boom at {x}");
                }
                x * 2
            });
            assert!(!outcome.cancelled);
            assert_eq!(outcome.worker_restarts, 4, "workers={workers}");
            for (i, r) in outcome.results.iter().enumerate() {
                let r = r.as_ref().expect("every slot ran");
                if i % 8 == 3 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.index, i);
                    assert_eq!(p.payload, format!("boom at {i}"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 2, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn panicking_worker_is_resurrected_for_later_items() {
        // One worker, first item panics: the remaining items must still
        // complete on the same (logically restarted) worker.
        let items: Vec<usize> = (0..6).collect();
        let outcome = run_jobs_anytime(&items, 1, &CancelToken::new(), |_, &x| {
            if x == 0 {
                panic!("first job dies");
            }
            x
        });
        assert!(matches!(outcome.results[0], Some(Err(_))));
        assert!(outcome.results[1..]
            .iter()
            .all(|r| matches!(r, Some(Ok(_)))));
        assert_eq!(outcome.worker_restarts, 1);
    }

    #[test]
    fn supervised_results_match_unsupervised_when_clean() {
        let items: Vec<u64> = (0..40).collect();
        let clean = run_jobs(&items, 4, |i, &x| (i as u64) * 100 + x);
        let supervised =
            run_jobs_anytime(&items, 4, &CancelToken::new(), |i, &x| (i as u64) * 100 + x);
        assert_eq!(supervised.worker_restarts, 0);
        let unwrapped: Vec<u64> = supervised
            .results
            .into_iter()
            .map(|r| r.unwrap().unwrap())
            .collect();
        assert_eq!(unwrapped, clean);
    }

    #[test]
    #[should_panic(expected = "job 2 panicked: boom")]
    fn run_jobs_propagates_a_job_panic() {
        let items: Vec<usize> = (0..4).collect();
        run_jobs(&items, 2, |i, _| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }
}
