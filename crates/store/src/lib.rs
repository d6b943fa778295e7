//! `isex-store` — a disk-backed, content-addressed result store.
//!
//! The store maps a **canonical request key** (the string that uniquely
//! identifies one deterministic exploration — see
//! `isex_serve::ExploreRequest::canonical_key`) to an opaque payload (the
//! serialized `FlowReport` + `RunMetrics`); checkpoints map a run key plus
//! block index to that block's entry (`isex_flow::Checkpoints`). Because
//! engine runs are bitwise deterministic, an exact key match *is* the
//! answer, forever: once a hot benchmark has been explored anywhere, every
//! `isexd` replica pointing at the same `--store-dir` serves it as an O(1)
//! lookup.
//!
//! The crate is payload-agnostic (`&[u8]` in, `Vec<u8>` out) so the
//! serving layer owns serialization and the provenance guard on what it
//! reads back; this layer owns durability, integrity, and space.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/
//!   entries/
//!     <fnv64(key)>.entry  one framed entry per key (see [`format`])
//! ```
//!
//! The directory is the store's only record. An entry file's mtime is its
//! last use: it is set when the entry is written and again on every hit,
//! so LRU order needs no journal and survives any reopen.
//!
//! # Durability and integrity
//!
//! * **Entries are atomic**: written to a temp file, `fsync`'d, then
//!   `rename`'d into place. A crash leaves either the old entry, the new
//!   entry, or a stray temp file — never a half-written `.entry`.
//! * **Corruption reads as a miss**: the frame ([`format::decode_entry`])
//!   validates magic, version, lengths and checksum; anything torn or
//!   tampered returns `None`, the lookup deletes the file, and the caller
//!   recomputes. The store can only ever *accelerate* a deterministic
//!   computation, so a false miss is always sound and a false hit is
//!   impossible short of a checksum collision on equal-keyed content.
//! * **Recency is advisory**: a lost mtime update costs eviction order,
//!   never data. Equal mtimes are ranked by key, so eviction order is
//!   deterministic.
//!
//! # Sharing
//!
//! Multiple handles — in one process or across processes — may point at
//! one directory. Writers are safe against each other via atomic renames,
//! and no handle keeps a view of its own: a lookup reads the entry file,
//! and `stats`, `entries` and GC scan `entries/` afresh, so every handle
//! counts one byte total and evicts in one order. Only the hit, miss,
//! insert and eviction counters belong to a handle.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod format;

use std::fs::{self, File};
use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

pub use format::{decode_entry, encode_entry, fnv1a64, FORMAT_VERSION};

/// Entry subdirectory name.
pub const ENTRIES_DIR: &str = "entries";

/// A live view of one stored entry, for `isex store ls` and tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntryInfo {
    /// The canonical request key.
    pub key: String,
    /// Entry file size, bytes (frame overhead included).
    pub bytes: u64,
    /// Last use: the entry file's mtime, set on insert and on every hit.
    pub last_used: SystemTime,
}

/// Store counters and gauges, for `/metrics` and `isex store stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live entries in the directory.
    pub entries: u64,
    /// Total entry-file bytes in the directory.
    pub bytes: u64,
    /// Configured byte budget (`0` = unlimited).
    pub max_bytes: u64,
    /// Lookups this handle answered from disk.
    pub hits: u64,
    /// Lookups by this handle that found nothing usable (absent, corrupt,
    /// or stale).
    pub misses: u64,
    /// Misses whose intact payload the reader refused (see
    /// [`Store::lookup_with`]).
    pub stale: u64,
    /// Entries this handle wrote.
    pub inserts: u64,
    /// Entries this handle's GC evicted.
    pub evictions: u64,
}

/// A handle on one store directory. Cheap to share behind an `Arc`; it
/// holds nothing but its path, budget and its own counters, so handles on
/// one directory never disagree about what the directory holds.
pub struct Store {
    dir: PathBuf,
    entries_dir: PathBuf,
    max_bytes: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

/// Process-wide temp-file counter. Deliberately NOT per-[`Store`]: two
/// handles on one directory in one process share a pid, so per-instance
/// counters would collide on temp names and one handle's rename would
/// steal the other's temp file mid-write.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The entry file name for `key`.
pub fn entry_file_name(key: &str) -> String {
    format!("{:016x}.entry", fnv1a64(key.as_bytes()))
}

/// One `.entry` file seen by a directory scan.
struct EntryFile {
    path: PathBuf,
    bytes: u64,
    last_used: SystemTime,
}

impl Store {
    /// Opens (creating if needed) the store at `dir` with a byte budget of
    /// `max_bytes` (`0` = unlimited). One pass over the entry files reads
    /// each frame's header and key and deletes every file that can never
    /// serve a hit — a bad header, or a key that does not hash to its file
    /// name — then GC brings the store inside its budget. Payloads are not
    /// read, so opening costs per file, not per byte; a torn payload is
    /// found and deleted by the lookup that reads it.
    pub fn open(dir: &Path, max_bytes: u64) -> std::io::Result<Store> {
        let entries_dir = dir.join(ENTRIES_DIR);
        fs::create_dir_all(&entries_dir)?;
        let store = Store {
            dir: dir.to_path_buf(),
            entries_dir,
            max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        };
        // Ranking reads every header and deletes what can never hit.
        ranked(store.entry_files()?);
        if max_bytes > 0 {
            let _ = store.gc_to(max_bytes);
        }
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks up `key`. A hit sets the entry file's mtime to now, through
    /// the descriptor the read opened, so LRU eviction keeps hot entries;
    /// anything unusable — absent, torn, checksum mismatch, hash-colliding
    /// foreign key — is a counted miss, and an undecodable file is deleted.
    pub fn lookup(&self, key: &str) -> Option<Vec<u8>> {
        self.lookup_with(key, Some)
    }

    /// [`Store::lookup`] through the reader's own check of the payload: a
    /// payload `accept` refuses (another format or engine version) is a
    /// miss, counted in [`StoreStats::stale`], and its entry is deleted,
    /// since it can never serve a hit.
    pub fn lookup_with<T>(
        &self,
        key: &str,
        accept: impl FnOnce(Vec<u8>) -> Option<T>,
    ) -> Option<T> {
        let path = self.entries_dir.join(entry_file_name(key));
        let payload = File::open(&path).ok().and_then(|mut file| {
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes).ok()?;
            match decode_entry(&bytes) {
                Some((stored_key, payload)) if stored_key == key => {
                    let _ = file.set_modified(SystemTime::now());
                    Some(payload)
                }
                // Another key hashing to this name: a miss, not damage.
                Some(_) => None,
                None => {
                    let _ = fs::remove_file(&path);
                    None
                }
            }
        });
        let hit = payload.and_then(|payload| {
            let accepted = accept(payload);
            if accepted.is_none() {
                self.stale.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&path);
            }
            accepted
        });
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Inserts (or replaces) the entry for `key`, durably: the frame is
    /// written to a temp file stamped with the current time, `fsync`'d and
    /// renamed into place before this returns. When a byte budget is
    /// configured and exceeded, least-recently-used entries are evicted
    /// until the store fits. Returns the entry-file size in bytes.
    pub fn insert(&self, key: &str, payload: &[u8]) -> std::io::Result<u64> {
        let frame = encode_entry(key, payload);
        let final_path = self.entries_dir.join(entry_file_name(key));
        let temp_path = self.entries_dir.join(format!(
            "{:016x}.tmp.{}.{}",
            fnv1a64(key.as_bytes()),
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        let written = File::create(&temp_path)
            .and_then(|mut temp| {
                temp.write_all(&frame)?;
                temp.set_modified(SystemTime::now())?;
                temp.sync_data()
            })
            .and_then(|()| fs::rename(&temp_path, &final_path));
        if let Err(e) = written {
            let _ = fs::remove_file(&temp_path);
            return Err(e);
        }
        // Make the rename itself durable where the platform allows
        // fsync-ing a directory; failure here only risks the entry
        // disappearing on power loss, which is a legal miss.
        if let Ok(d) = File::open(&self.entries_dir) {
            let _ = d.sync_all();
        }
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if self.max_bytes > 0 {
            self.gc_to(self.max_bytes)?;
        }
        Ok(frame.len() as u64)
    }

    /// Removes `key`'s entry if present; returns whether one was removed.
    pub fn remove(&self, key: &str) -> std::io::Result<bool> {
        match fs::remove_file(self.entries_dir.join(entry_file_name(key))) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Evicts least-recently-used entries until total bytes fit inside
    /// `max_bytes`, returning the evicted keys (oldest first). `0` evicts
    /// everything — use [`clear`](Store::clear) for that intent instead.
    pub fn gc_to(&self, max_bytes: u64) -> std::io::Result<Vec<String>> {
        let mut evicted = Vec::new();
        let files = self.entry_files()?;
        if files.iter().map(|f| f.bytes).sum::<u64>() <= max_bytes {
            return Ok(evicted);
        }
        let ranked = ranked(files);
        let mut total: u64 = ranked.iter().map(|(info, _)| info.bytes).sum();
        for (info, path) in ranked {
            if total <= max_bytes {
                break;
            }
            total -= info.bytes;
            match fs::remove_file(&path) {
                Ok(()) => {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    evicted.push(info.key);
                }
                // Another handle evicted it first.
                Err(e) if e.kind() == ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(evicted)
    }

    /// Deletes every entry. Returns how many entries were deleted.
    pub fn clear(&self) -> std::io::Result<usize> {
        let files = self.entry_files()?;
        Ok(files
            .iter()
            .filter(|f| fs::remove_file(&f.path).is_ok())
            .count())
    }

    /// Live entries, least-recently-used first.
    pub fn entries(&self) -> Vec<EntryInfo> {
        let files = self.entry_files().unwrap_or_default();
        ranked(files).into_iter().map(|(info, _)| info).collect()
    }

    /// Current counters and gauges.
    pub fn stats(&self) -> StoreStats {
        let files = self.entry_files().unwrap_or_default();
        StoreStats {
            entries: files.len() as u64,
            bytes: files.iter().map(|f| f.bytes).sum(),
            max_bytes: self.max_bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Every `.entry` file in the directory with its size and mtime. Temp
    /// files and strangers are skipped, and so is a file another handle
    /// removed mid-scan.
    fn entry_files(&self) -> std::io::Result<Vec<EntryFile>> {
        let mut files = Vec::new();
        for dirent in fs::read_dir(&self.entries_dir)? {
            let dirent = dirent?;
            if !dirent.file_name().to_string_lossy().ends_with(".entry") {
                continue;
            }
            let Ok(meta) = dirent.metadata() else {
                continue;
            };
            files.push(EntryFile {
                path: dirent.path(),
                bytes: meta.len(),
                last_used: meta.modified()?,
            });
        }
        Ok(files)
    }
}

/// `files` with their keys, least-recently-used first and equal mtimes
/// by key. Only each frame's header and key are read. A file whose header
/// names no key, or a key that does not hash to the file's name, can
/// never serve a hit and is deleted.
fn ranked(files: Vec<EntryFile>) -> Vec<(EntryInfo, PathBuf)> {
    let mut ranked: Vec<(EntryInfo, PathBuf)> = files
        .into_iter()
        .filter_map(|f| {
            let mut file = File::open(&f.path).ok()?;
            let key = format::read_key(&mut file);
            let Some(key) = key.filter(|key| f.path.ends_with(entry_file_name(key))) else {
                let _ = fs::remove_file(&f.path);
                return None;
            };
            let info = EntryInfo {
                key,
                bytes: f.bytes,
                last_used: f.last_used,
            };
            Some((info, f.path))
        })
        .collect();
    ranked.sort_by(|(a, _), (b, _)| (a.last_used, &a.key).cmp(&(b.last_used, &b.key)));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "isex-store-{}-{tag}-{:x}",
            std::process::id(),
            fnv1a64(tag.as_bytes())
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn insert_lookup_round_trip_survives_reopen() {
        let dir = temp_store("roundtrip");
        {
            let store = Store::open(&dir, 0).unwrap();
            assert_eq!(store.lookup("k1"), None);
            store.insert("k1", b"payload one").unwrap();
            assert_eq!(store.lookup("k1").as_deref(), Some(&b"payload one"[..]));
            let s = store.stats();
            assert_eq!((s.entries, s.hits, s.misses, s.inserts), (1, 1, 1, 1));
        }
        let store = Store::open(&dir, 0).unwrap();
        assert_eq!(store.lookup("k1").as_deref(), Some(&b"payload one"[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_refused_payload_is_a_stale_miss_and_leaves_the_store() {
        let dir = temp_store("refused");
        let store = Store::open(&dir, 0).unwrap();
        store.insert("k1", b"old format").unwrap();
        assert_eq!(store.lookup_with("k1", |_| None::<()>), None);
        let s = store.stats();
        assert_eq!((s.entries, s.hits, s.misses, s.stale), (0, 0, 1, 1));
        store.insert("k1", b"new format").unwrap();
        let len = store.lookup_with("k1", |payload| Some(payload.len()));
        assert_eq!(len, Some(10));
        let s = store.stats();
        assert_eq!((s.entries, s.hits, s.misses, s.stale), (1, 1, 1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reinsert_replaces_payload() {
        let dir = temp_store("replace");
        let store = Store::open(&dir, 0).unwrap();
        store.insert("k", b"old").unwrap();
        store.insert("k", b"new").unwrap();
        assert_eq!(store.lookup("k").as_deref(), Some(&b"new"[..]));
        assert_eq!(store.stats().entries, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_reads_as_miss_and_is_dropped() {
        let dir = temp_store("corrupt");
        let store = Store::open(&dir, 0).unwrap();
        store.insert("k", b"payload").unwrap();
        let path = dir.join(ENTRIES_DIR).join(entry_file_name("k"));
        // Torn write: keep only half the file.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(store.lookup("k"), None, "torn entry must be a miss");
        assert_eq!(store.stats().entries, 0, "dead entry leaves the index");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_least_recently_used_first() {
        let dir = temp_store("gc");
        let store = Store::open(&dir, 0).unwrap();
        let payload = vec![7u8; 100];
        for key in ["a", "b", "c"] {
            store.insert(key, &payload).unwrap();
        }
        store.lookup("a"); // refresh a; b is now LRU
        let one_entry = store.entries()[0].bytes;
        let evicted = store.gc_to(2 * one_entry).unwrap();
        assert_eq!(evicted, vec!["b".to_string()]);
        assert!(store.lookup("a").is_some());
        assert!(store.lookup("b").is_none());
        assert!(store.lookup("c").is_some());
        assert_eq!(store.stats().evictions, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_is_enforced_on_insert() {
        let dir = temp_store("budget");
        let payload = vec![1u8; 200];
        let frame_len = encode_entry("k0", &payload).len() as u64;
        let store = Store::open(&dir, 2 * frame_len).unwrap();
        for i in 0..5 {
            store.insert(&format!("k{i}"), &payload).unwrap();
        }
        let stats = store.stats();
        assert!(stats.bytes <= 2 * frame_len, "{stats:?}");
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 3);
        // The newest entries survive.
        assert!(store.lookup("k4").is_some());
        assert!(store.lookup("k3").is_some());
        assert!(store.lookup("k0").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cross_handle_sharing_without_reopen() {
        let dir = temp_store("shared");
        let a = Store::open(&dir, 0).unwrap();
        let b = Store::open(&dir, 0).unwrap();
        a.insert("k", b"from a").unwrap();
        // b opened before k existed; its lookup reads the directory.
        assert_eq!(b.lookup("k").as_deref(), Some(&b"from a"[..]));
        assert_eq!(b.stats().entries, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_everything() {
        let dir = temp_store("clear");
        let store = Store::open(&dir, 0).unwrap();
        store.insert("k1", b"one").unwrap();
        store.insert("k2", b"two").unwrap();
        assert_eq!(store.clear().unwrap(), 2);
        assert_eq!(store.stats().entries, 0);
        assert_eq!(store.lookup("k1"), None);
        let reopened = Store::open(&dir, 0).unwrap();
        assert_eq!(reopened.stats().entries, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_order_survives_reopen() {
        let dir = temp_store("reopen-order");
        {
            let store = Store::open(&dir, 0).unwrap();
            store.insert("hot", b"x").unwrap();
            store.insert("cold", b"y").unwrap();
            store.lookup("hot");
        }
        let store = Store::open(&dir, 0).unwrap();
        let order: Vec<String> = store.entries().into_iter().map(|e| e.key).collect();
        assert_eq!(order, vec!["cold".to_string(), "hot".to_string()]);
        assert_eq!(store.gc_to(store.entries()[1].bytes).unwrap(), vec!["cold"]);
        assert!(
            !dir.join("manifest.jsonl").exists(),
            "the store keeps no journal"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn handles_sharing_a_directory_rank_one_lru_and_count_one_total() {
        let dir = temp_store("shared-lru");
        let a = Store::open(&dir, 0).unwrap();
        let b = Store::open(&dir, 0).unwrap();
        a.insert("y", b"older").unwrap();
        b.insert("x", b"newer").unwrap();
        assert_eq!(a.stats().entries, 2, "a counts b's insert");
        let third = Store::open(&dir, 0).unwrap();
        let one_entry = encode_entry("x", b"newer").len() as u64;
        assert_eq!(third.gc_to(one_entry).unwrap(), vec!["y"], "y is older");
        assert_eq!(b.lookup("x").as_deref(), Some(&b"newer"[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_deletes_misfiled_entries() {
        let dir = temp_store("misfiled");
        {
            let store = Store::open(&dir, 0).unwrap();
            store.insert("a", b"payload").unwrap();
        }
        let entries = dir.join(ENTRIES_DIR);
        fs::rename(
            entries.join(entry_file_name("a")),
            entries.join(entry_file_name("b")),
        )
        .unwrap();
        let store = Store::open(&dir, 0).unwrap();
        assert_eq!(
            store.stats().entries,
            0,
            "a's frame under b's name never hits"
        );
        assert!(!entries.join(entry_file_name("b")).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
