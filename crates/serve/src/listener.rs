//! The one TCP listener behind `isexd` and the cluster coordinator.
//!
//! It binds, polls a non-blocking `accept` every 10 ms so the acceptor can
//! see its stop condition, and hands each connection to its own thread.
//! The active-connection count rides inside the connection's closure: it
//! is released when the handler returns or unwinds, and also when the
//! thread fails to spawn (the closure is dropped unrun), so a failed spawn
//! never leaves a count behind for shutdown to wait out.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the acceptor sleeps when no connection is waiting.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// A bound listener and its acceptor thread.
pub struct Listener {
    addr: SocketAddr,
    active: Arc<AtomicUsize>,
    acceptor: Option<JoinHandle<()>>,
}

/// One counted connection; dropping it (handler returned or unwound, or
/// the thread never started) releases the count.
struct Active(Arc<AtomicUsize>);

impl Active {
    fn enter(count: &Arc<AtomicUsize>) -> Active {
        count.fetch_add(1, Ordering::AcqRel);
        Active(Arc::clone(count))
    }
}

impl Drop for Active {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Listener {
    /// Binds `addr` and starts accepting until `stop()` answers `true`.
    /// Each connection runs `handle` on a thread named `<name>-conn`; the
    /// acceptor is `<name>-accept`.
    pub fn spawn(
        addr: &str,
        name: &str,
        stop: impl Fn() -> bool + Send + 'static,
        handle: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let active = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&active);
        let handle = Arc::new(handle);
        let conn_name = format!("{name}-conn");
        let acceptor = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || {
                while !stop() {
                    let Ok((stream, _)) = listener.accept() else {
                        std::thread::sleep(ACCEPT_POLL);
                        continue;
                    };
                    let handle = Arc::clone(&handle);
                    let active = Active::enter(&count);
                    let _ = std::thread::Builder::new()
                        .name(conn_name.clone())
                        .spawn(move || {
                            let _active = active;
                            handle(stream);
                        });
                }
            })?;
        Ok(Listener {
            addr,
            active,
            acceptor: Some(acceptor),
        })
    }

    /// The address actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Joins the acceptor, which returns once `stop()` is `true`; the
    /// socket closes with it. Idempotent.
    pub fn join(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Waits up to `patience` for every connection thread to finish.
    pub fn wait_idle(&self, patience: Duration) {
        let until = Instant::now() + patience;
        while self.active.load(Ordering::Acquire) > 0 && Instant::now() < until {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
