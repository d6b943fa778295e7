//! Request trace IDs and the bounded on-disk trace ring.
//!
//! Every request carries an `X-Isex-Trace-Id`: the client's value when it
//! supplies a well-formed one, a freshly minted one otherwise. The ID is
//! echoed in the response, stamped on the run's spans and events, and —
//! when the server runs with `--trace-dir` — names the per-request trace
//! files. [`TraceRing`] keeps the directory bounded: beyond `keep` files,
//! the oldest are deleted.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use isex_engine::lock_unpoisoned;

/// The trace-ID header, lower-cased as the parser stores header names.
pub const TRACE_HEADER: &str = "x-isex-trace-id";

/// Longest accepted client-supplied trace ID.
pub const MAX_TRACE_ID_LEN: usize = 64;

static MINTED: AtomicU64 = AtomicU64::new(0);

/// Mints a fresh trace ID: wall-clock nanoseconds mixed with a process
/// counter, so concurrent requests in the same nanosecond still differ.
pub fn mint_trace_id() -> String {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let n = MINTED.fetch_add(1, Ordering::Relaxed);
    format!("{:016x}{:04x}", nanos ^ n.rotate_left(48), n & 0xffff)
}

/// Validates a client-supplied trace ID. IDs name files under
/// `--trace-dir`, so only `[A-Za-z0-9_-]` up to [`MAX_TRACE_ID_LEN`] chars
/// pass; anything else is discarded (the server mints instead).
pub fn accept_trace_id(raw: &str) -> Option<String> {
    let ok = !raw.is_empty()
        && raw.len() <= MAX_TRACE_ID_LEN
        && raw
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
    ok.then(|| raw.to_string())
}

/// A bounded ring of trace files on disk. `push` registers the files one
/// request produced and deletes the oldest files beyond `keep`.
pub struct TraceRing {
    keep: usize,
    files: Mutex<VecDeque<PathBuf>>,
}

impl TraceRing {
    /// A ring keeping at most `keep` files (0 keeps nothing: every pushed
    /// file is deleted immediately).
    pub fn new(keep: usize) -> Self {
        TraceRing {
            keep,
            files: Mutex::new(VecDeque::new()),
        }
    }

    /// Registers freshly written files, evicting (deleting) the oldest
    /// beyond the ring's capacity.
    pub fn push(&self, paths: impl IntoIterator<Item = PathBuf>) {
        let mut files = lock_unpoisoned(&self.files);
        files.extend(paths);
        while files.len() > self.keep {
            if let Some(old) = files.pop_front() {
                let _ = std::fs::remove_file(old);
            }
        }
    }

    /// Files currently tracked.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.files).len()
    }

    /// Whether the ring tracks no files.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_ids_are_valid_and_distinct() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert_ne!(a, b);
        assert_eq!(accept_trace_id(&a).as_deref(), Some(a.as_str()));
    }

    #[test]
    fn hostile_ids_are_rejected() {
        for bad in ["", "../../etc/passwd", "a b", "x/y", &"a".repeat(65)] {
            assert_eq!(accept_trace_id(bad), None, "{bad:?}");
        }
        assert!(accept_trace_id("req-42_A").is_some());
    }

    #[test]
    fn ring_evicts_oldest_files() {
        let dir = std::env::temp_dir().join(format!("isex-trace-ring-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ring = TraceRing::new(2);
        let paths: Vec<PathBuf> = (0..4).map(|i| dir.join(format!("t{i}.json"))).collect();
        for p in &paths {
            std::fs::write(p, "[]").unwrap();
            ring.push([p.clone()]);
        }
        assert_eq!(ring.len(), 2);
        assert!(!paths[0].exists() && !paths[1].exists());
        assert!(paths[2].exists() && paths[3].exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
