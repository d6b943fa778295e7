//! SIGINT/SIGTERM → a process-wide shutdown flag, with no signal crate.
//!
//! The handler does the only async-signal-safe thing possible — an atomic
//! store — and the server's main loop polls [`shutdown_requested`]. The
//! registration itself is the one `unsafe` in the whole workspace: a
//! direct `signal(2)` prototype against the libc that `std` already links.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal has been received.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::Acquire)
}

#[cfg(unix)]
mod imp {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::Release);
    }

    /// Registers the flag-setting handler for SIGINT and SIGTERM.
    #[allow(unsafe_code)]
    pub fn install() {
        extern "C" {
            // `signal(2)` from the libc std already links; usize stands in
            // for the handler pointer on both sides of the call.
            fn signal(signum: i32, handler: usize) -> usize;
        }
        let handler: extern "C" fn(i32) = on_signal;
        unsafe {
            signal(SIGINT, handler as usize);
            signal(SIGTERM, handler as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No-op where `signal(2)` is unavailable; ctrl-C terminates
    /// unconditionally there.
    pub fn install() {}
}

pub use imp::install;
