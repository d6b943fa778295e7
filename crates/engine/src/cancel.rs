//! Cooperative cancellation for engine runs.
//!
//! A [`CancelToken`] is a cheap, clonable flag shared between the party
//! that wants a run stopped (a serving deadline, a ctrl-C handler) and the
//! worker pool running it. Cancellation is *cooperative and job-grained*:
//! the pool checks the token before claiming each job, so an in-progress
//! block exploration always runs to completion, but no further jobs start
//! once the token trips. That keeps cancellation clean — no half-committed
//! results, no poisoned locks — at the cost of job-sized latency.
//! A [`DeadlineTimer`] trips a token when a (possibly moving) deadline
//! passes: the one timer behind every budgeted run in the service shell.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// A shared cancellation flag.
///
/// Clones observe the same flag; once [`cancel`](CancelToken::cancel) is
/// called the token can never be un-cancelled.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the flag. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the flag has tripped.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// The shared flag itself — for layers (e.g. the core explorer's
    /// between-rounds stop check) that observe cancellation without
    /// depending on this crate.
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.0)
    }
}

/// Error returned when a run was abandoned because its token tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("run cancelled before all jobs completed")
    }
}

impl std::error::Error for Cancelled {}

/// Trips a [`CancelToken`] when a deadline passes, so a budgeted run hands
/// back its best-so-far partial instead of overrunning.
///
/// One timer thread per armed run. It re-reads the deadline each time it
/// wakes, so a deadline that moves later while the run is going (a
/// coalesced waiter asking for more time) is honoured; a fixed deadline is
/// simply a closure that always answers the same instant. Dropping the
/// timer (the run finished, or its thread is unwinding) stops the thread
/// without tripping anything.
pub struct DeadlineTimer {
    done: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl DeadlineTimer {
    /// Starts a timer that trips `cancel` once `deadline()` is in the past.
    /// `None` when there is no deadline now (nothing to arm), when the
    /// deadline is later withdrawn (the thread exits), or when the thread
    /// cannot be spawned.
    pub fn arm(
        cancel: CancelToken,
        deadline: impl Fn() -> Option<Instant> + Send + 'static,
    ) -> Option<DeadlineTimer> {
        deadline()?;
        let done = Arc::new((Mutex::new(false), Condvar::new()));
        let shared = Arc::clone(&done);
        let thread = std::thread::Builder::new()
            .name("isex-deadline".to_string())
            .spawn(move || {
                let (lock, wake) = &*shared;
                let mut finished = lock.lock().unwrap_or_else(PoisonError::into_inner);
                while !*finished {
                    let Some(at) = deadline() else { return };
                    let now = Instant::now();
                    if now >= at {
                        cancel.cancel();
                        return;
                    }
                    finished = wake
                        .wait_timeout(finished, at - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            })
            .ok()?;
        Some(DeadlineTimer {
            done,
            thread: Some(thread),
        })
    }
}

impl Drop for DeadlineTimer {
    fn drop(&mut self) {
        let (lock, wake) = &*self.done;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
        wake.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_trips_once_and_for_all_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled());
        assert!(!c.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled());
        assert!(c.is_cancelled());
    }

    #[test]
    fn timer_trips_at_its_deadline_and_not_after_drop() {
        use std::time::Duration;
        let tripped = CancelToken::new();
        let at = Instant::now() + Duration::from_millis(5);
        let _timer = DeadlineTimer::arm(tripped.clone(), move || Some(at)).unwrap();
        let patience = Instant::now() + Duration::from_secs(5);
        while !tripped.is_cancelled() && Instant::now() < patience {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(tripped.is_cancelled());

        let spared = CancelToken::new();
        let at = Instant::now() + Duration::from_secs(60);
        drop(DeadlineTimer::arm(spared.clone(), move || Some(at)).unwrap());
        assert!(!spared.is_cancelled(), "a dropped timer trips nothing");
        assert!(DeadlineTimer::arm(CancelToken::new(), || None).is_none());
    }
}
