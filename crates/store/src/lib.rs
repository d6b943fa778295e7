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
//!   manifest.jsonl        access journal: insert / touch / remove records
//!   entries/
//!     <fnv64(key)>.entry  one framed entry per key (see [`format`])
//! ```
//!
//! # Durability and integrity
//!
//! * **Entries are atomic**: written to a temp file, flushed, `fsync`'d,
//!   then `rename`'d into place. A crash leaves either the old entry, the
//!   new entry, or a stray temp file — never a half-written `.entry`.
//! * **Corruption reads as a miss**: the frame ([`format::decode_entry`])
//!   validates magic, version, lengths and checksum; anything torn or
//!   tampered returns `None` and the caller recomputes. The store can only
//!   ever *accelerate* a deterministic computation, so a false miss is
//!   always sound and a false hit is impossible short of a checksum
//!   collision on equal-keyed content.
//! * **The manifest is advisory**: it orders entries for LRU GC and feeds
//!   `stats`. Because losing *order* can never change an answer, replay
//!   skips any malformed line — a torn tail included — then reconciles
//!   against the files actually on disk. A deleted or
//!   scrambled manifest costs eviction order, never data.
//!
//! # Sharing
//!
//! Multiple handles — in one process or across processes — may point at
//! one directory. Writers are safe against each other via atomic renames;
//! a reader whose in-memory index misses probes the disk directly, so an
//! entry inserted by another replica is found without reopening.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod format;

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

pub use format::{decode_entry, encode_entry, fnv1a64, FORMAT_VERSION};

/// Manifest file name inside the store directory.
pub const MANIFEST_FILE: &str = "manifest.jsonl";

/// Entry subdirectory name.
pub const ENTRIES_DIR: &str = "entries";

/// Compact the manifest when it holds more than this many lines *and*
/// more than 8× the live entry count — both bounds keep steady-state
/// appends cheap while stopping unbounded growth from touch records.
const COMPACT_MIN_LINES: u64 = 1024;

/// One manifest record. `op` is `"insert"`, `"touch"` or `"remove"`;
/// `bytes` is the entry file size for inserts and `0` otherwise.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct ManifestRecord {
    seq: u64,
    op: String,
    key: String,
    bytes: u64,
}

/// Index state for one live entry.
#[derive(Clone, Debug)]
struct IndexEntry {
    bytes: u64,
    last_seq: u64,
}

/// A live view of one stored entry, for `isex store ls` and tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntryInfo {
    /// The canonical request key.
    pub key: String,
    /// Entry file size, bytes (frame overhead included).
    pub bytes: u64,
    /// Last-access sequence number — higher means more recently used.
    pub last_seq: u64,
}

/// Store counters and gauges, for `/metrics` and `isex store stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live entries.
    pub entries: u64,
    /// Total entry-file bytes.
    pub bytes: u64,
    /// Configured byte budget (`0` = unlimited).
    pub max_bytes: u64,
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that found nothing usable (absent, corrupt, or stale).
    pub misses: u64,
    /// Entries written.
    pub inserts: u64,
    /// Entries evicted by GC.
    pub evictions: u64,
    /// Manifest lines skipped as malformed during replay.
    pub manifest_skipped: u64,
}

struct Inner {
    index: HashMap<String, IndexEntry>,
    manifest: File,
    manifest_lines: u64,
    next_seq: u64,
    inserts: u64,
    evictions: u64,
    manifest_skipped: u64,
}

/// A handle on one store directory. Cheap to share behind an `Arc`; all
/// mutation is serialized on an internal mutex (cross-process writers are
/// serialized by the filesystem's atomic rename instead).
pub struct Store {
    dir: PathBuf,
    entries_dir: PathBuf,
    max_bytes: u64,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Process-wide temp-file counter. Deliberately NOT per-[`Store`]: two
/// handles on one directory in one process share a pid, so per-instance
/// counters would collide on temp names and one handle's rename would
/// steal the other's temp file mid-write.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The entry file name for `key`.
pub fn entry_file_name(key: &str) -> String {
    format!("{:016x}.entry", fnv1a64(key.as_bytes()))
}

impl Store {
    /// Opens (creating if needed) the store at `dir` with a byte budget of
    /// `max_bytes` (`0` = unlimited). Replays the manifest, reconciles it
    /// against the entry files actually present, and compacts the manifest
    /// when it has grown far past the live entry count.
    pub fn open(dir: &Path, max_bytes: u64) -> std::io::Result<Store> {
        let entries_dir = dir.join(ENTRIES_DIR);
        fs::create_dir_all(&entries_dir)?;
        let manifest_path = dir.join(MANIFEST_FILE);

        // Replay: malformed lines (torn tails, interleaved cross-process
        // appends) are skipped and counted — the manifest only orders
        // entries, it never holds data.
        let mut index: HashMap<String, IndexEntry> = HashMap::new();
        let mut next_seq = 1u64;
        let mut manifest_lines = 0u64;
        let mut manifest_skipped = 0u64;
        match File::open(&manifest_path) {
            Ok(file) => {
                for line in BufReader::new(file).split(b'\n') {
                    let line = line?;
                    if line.iter().all(|b| b.is_ascii_whitespace()) {
                        continue;
                    }
                    manifest_lines += 1;
                    let record = std::str::from_utf8(&line)
                        .ok()
                        .and_then(|text| serde_json::from_str::<ManifestRecord>(text).ok());
                    let Some(record) = record else {
                        manifest_skipped += 1;
                        continue;
                    };
                    next_seq = next_seq.max(record.seq + 1);
                    match record.op.as_str() {
                        "insert" => {
                            index.insert(
                                record.key,
                                IndexEntry {
                                    bytes: record.bytes,
                                    last_seq: record.seq,
                                },
                            );
                        }
                        "touch" => {
                            if let Some(entry) = index.get_mut(&record.key) {
                                entry.last_seq = record.seq;
                            }
                        }
                        "remove" => {
                            index.remove(&record.key);
                        }
                        _ => manifest_skipped += 1,
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }

        // Reconcile against the disk. Indexed entries whose file is gone
        // are dropped; entry files the manifest never mentioned (it was
        // torn, deleted, or another process wrote them) are adopted with
        // the oldest possible age so GC prefers them first.
        let mut on_disk: HashMap<String, u64> = HashMap::new();
        for dirent in fs::read_dir(&entries_dir)? {
            let dirent = dirent?;
            let name = dirent.file_name();
            let name = name.to_string_lossy();
            if !name.ends_with(".entry") {
                continue; // temp files and strangers
            }
            let len = dirent.metadata().map(|m| m.len()).unwrap_or(0);
            on_disk.insert(name.into_owned(), len);
        }
        index.retain(|key, entry| match on_disk.get(&entry_file_name(key)) {
            Some(&len) => {
                entry.bytes = len;
                true
            }
            None => false,
        });
        let indexed: std::collections::HashSet<String> =
            index.keys().map(|k| entry_file_name(k)).collect();
        for (file, len) in &on_disk {
            if indexed.contains(file) {
                continue;
            }
            let path = entries_dir.join(file);
            match fs::read(&path).ok().and_then(|b| decode_entry(&b)) {
                Some((key, _)) if entry_file_name(&key) == *file => {
                    index.insert(
                        key,
                        IndexEntry {
                            bytes: *len,
                            last_seq: 0,
                        },
                    );
                }
                // Undecodable or misfiled: it can never serve a hit, so
                // reclaim the space now.
                _ => {
                    let _ = fs::remove_file(&path);
                }
            }
        }

        let manifest = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&manifest_path)?;
        let store = Store {
            dir: dir.to_path_buf(),
            entries_dir,
            max_bytes,
            inner: Mutex::new(Inner {
                index,
                manifest,
                manifest_lines,
                next_seq,
                inserts: 0,
                evictions: 0,
                manifest_skipped,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        };
        {
            let mut inner = lock_unpoisoned(&store.inner);
            if inner.manifest_lines > COMPACT_MIN_LINES
                && inner.manifest_lines > 8 * inner.index.len() as u64
            {
                store.compact_manifest(&mut inner)?;
            }
        }
        if store.max_bytes > 0 {
            let _ = store.gc_locked(&mut lock_unpoisoned(&store.inner), store.max_bytes);
        }
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks up `key`. A hit records an access (`touch`) so LRU eviction
    /// keeps hot entries; anything unusable — absent, torn, checksum
    /// mismatch, hash-colliding foreign key — is a counted miss.
    ///
    /// An index miss falls through to a direct disk probe, so entries
    /// written by another replica sharing the directory are found without
    /// reopening the store.
    pub fn lookup(&self, key: &str) -> Option<Vec<u8>> {
        let path = self.entries_dir.join(entry_file_name(key));
        let decoded = fs::read(&path).ok().and_then(|b| decode_entry(&b));
        let mut inner = lock_unpoisoned(&self.inner);
        match decoded {
            Some((stored_key, payload)) if stored_key == key => {
                let seq = inner.next_seq;
                inner.next_seq += 1;
                let bytes = payload.len() as u64;
                match inner.index.get_mut(key) {
                    Some(entry) => entry.last_seq = seq,
                    None => {
                        // Another replica's insert: adopt it.
                        let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(bytes);
                        inner.index.insert(
                            key.to_string(),
                            IndexEntry {
                                bytes: len,
                                last_seq: seq,
                            },
                        );
                    }
                }
                let _ = self.append_record(&mut inner, seq, "touch", key, 0, false);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            _ => {
                // A dead index entry (file evicted elsewhere, or corrupt)
                // stops occupying budget accounting.
                if inner.index.remove(key).is_some() {
                    let seq = inner.next_seq;
                    inner.next_seq += 1;
                    let _ = self.append_record(&mut inner, seq, "remove", key, 0, false);
                }
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) the entry for `key`, durably: the frame is
    /// written to a temp file, flushed, `fsync`'d, renamed into place, and
    /// journaled before this returns. When a byte budget is configured and
    /// exceeded, least-recently-used entries are evicted until the store
    /// fits. Returns the entry-file size in bytes.
    pub fn insert(&self, key: &str, payload: &[u8]) -> std::io::Result<u64> {
        let frame = encode_entry(key, payload);
        let final_path = self.entries_dir.join(entry_file_name(key));
        let temp_path = self.entries_dir.join(format!(
            "{:016x}.tmp.{}.{}",
            fnv1a64(key.as_bytes()),
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        {
            let mut temp = File::create(&temp_path)?;
            temp.write_all(&frame)?;
            temp.flush()?;
            temp.sync_data()?;
        }
        if let Err(e) = fs::rename(&temp_path, &final_path) {
            let _ = fs::remove_file(&temp_path);
            return Err(e);
        }
        // Make the rename itself durable where the platform allows
        // fsync-ing a directory; failure here only risks the entry
        // disappearing on power loss, which is a legal miss.
        if let Ok(d) = File::open(&self.entries_dir) {
            let _ = d.sync_all();
        }

        let bytes = frame.len() as u64;
        let mut inner = lock_unpoisoned(&self.inner);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.index.insert(
            key.to_string(),
            IndexEntry {
                bytes,
                last_seq: seq,
            },
        );
        inner.inserts += 1;
        self.append_record(&mut inner, seq, "insert", key, bytes, true)?;
        if self.max_bytes > 0 {
            self.gc_locked(&mut inner, self.max_bytes)?;
        }
        Ok(bytes)
    }

    /// Removes `key`'s entry if present; returns whether one was removed.
    pub fn remove(&self, key: &str) -> std::io::Result<bool> {
        let mut inner = lock_unpoisoned(&self.inner);
        if inner.index.remove(key).is_none() {
            return Ok(false);
        }
        let _ = fs::remove_file(self.entries_dir.join(entry_file_name(key)));
        let seq = inner.next_seq;
        inner.next_seq += 1;
        self.append_record(&mut inner, seq, "remove", key, 0, true)?;
        Ok(true)
    }

    /// Evicts least-recently-used entries until total bytes fit inside
    /// `max_bytes`, returning the evicted keys (oldest first). `0` evicts
    /// everything — use [`clear`](Store::clear) for that intent instead.
    pub fn gc_to(&self, max_bytes: u64) -> std::io::Result<Vec<String>> {
        self.gc_locked(&mut lock_unpoisoned(&self.inner), max_bytes)
    }

    fn gc_locked(&self, inner: &mut Inner, max_bytes: u64) -> std::io::Result<Vec<String>> {
        let mut evicted = Vec::new();
        loop {
            let total: u64 = inner.index.values().map(|e| e.bytes).sum();
            if total <= max_bytes {
                break;
            }
            let Some(oldest) = inner
                .index
                .iter()
                .min_by_key(|(key, e)| (e.last_seq, key.as_str().to_string()))
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            inner.index.remove(&oldest);
            let _ = fs::remove_file(self.entries_dir.join(entry_file_name(&oldest)));
            let seq = inner.next_seq;
            inner.next_seq += 1;
            self.append_record(inner, seq, "remove", &oldest, 0, false)?;
            inner.evictions += 1;
            evicted.push(oldest);
        }
        Ok(evicted)
    }

    /// Deletes every entry and truncates the manifest. Returns how many
    /// entries were deleted.
    pub fn clear(&self) -> std::io::Result<usize> {
        let mut inner = lock_unpoisoned(&self.inner);
        let keys: Vec<String> = inner.index.keys().cloned().collect();
        for key in &keys {
            let _ = fs::remove_file(self.entries_dir.join(entry_file_name(key)));
        }
        inner.index.clear();
        self.compact_manifest(&mut inner)?;
        Ok(keys.len())
    }

    /// Live entries, least-recently-used first.
    pub fn entries(&self) -> Vec<EntryInfo> {
        let inner = lock_unpoisoned(&self.inner);
        let mut all: Vec<EntryInfo> = inner
            .index
            .iter()
            .map(|(key, e)| EntryInfo {
                key: key.clone(),
                bytes: e.bytes,
                last_seq: e.last_seq,
            })
            .collect();
        all.sort_by(|a, b| (a.last_seq, &a.key).cmp(&(b.last_seq, &b.key)));
        all
    }

    /// Current counters and gauges.
    pub fn stats(&self) -> StoreStats {
        let inner = lock_unpoisoned(&self.inner);
        StoreStats {
            entries: inner.index.len() as u64,
            bytes: inner.index.values().map(|e| e.bytes).sum(),
            max_bytes: self.max_bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: inner.inserts,
            evictions: inner.evictions,
            manifest_skipped: inner.manifest_skipped,
        }
    }

    /// Appends one manifest record. Inserts and explicit removes are
    /// fsync'd (they change what a resurrected store believes it holds);
    /// touches only flush — losing one costs eviction order, nothing else.
    fn append_record(
        &self,
        inner: &mut Inner,
        seq: u64,
        op: &str,
        key: &str,
        bytes: u64,
        durable: bool,
    ) -> std::io::Result<()> {
        let record = ManifestRecord {
            seq,
            op: op.to_string(),
            key: key.to_string(),
            bytes,
        };
        let line = serde_json::to_string(&record).expect("record serializes");
        inner.manifest.write_all(line.as_bytes())?;
        inner.manifest.write_all(b"\n")?;
        inner.manifest.flush()?;
        if durable {
            inner.manifest.sync_data()?;
        }
        inner.manifest_lines += 1;
        Ok(())
    }

    /// Rewrites the manifest to one insert record per live entry (in LRU
    /// order, re-sequenced from 1), atomically via temp + rename.
    fn compact_manifest(&self, inner: &mut Inner) -> std::io::Result<()> {
        let temp_path = self.dir.join(format!(
            "manifest.tmp.{}.{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let mut ordered: Vec<(String, u64)> = inner
            .index
            .iter()
            .map(|(key, e)| (key.clone(), e.bytes))
            .collect();
        ordered.sort_by(|a, b| {
            let sa = inner.index[&a.0].last_seq;
            let sb = inner.index[&b.0].last_seq;
            (sa, &a.0).cmp(&(sb, &b.0))
        });
        let mut lines = 0u64;
        let mut next_seq = 1u64;
        {
            let mut temp = File::create(&temp_path)?;
            for (key, bytes) in &ordered {
                let record = ManifestRecord {
                    seq: next_seq,
                    op: "insert".to_string(),
                    key: key.clone(),
                    bytes: *bytes,
                };
                next_seq += 1;
                lines += 1;
                let line = serde_json::to_string(&record).expect("record serializes");
                temp.write_all(line.as_bytes())?;
                temp.write_all(b"\n")?;
            }
            temp.flush()?;
            temp.sync_data()?;
        }
        let manifest_path = self.dir.join(MANIFEST_FILE);
        fs::rename(&temp_path, &manifest_path)?;
        for (i, (key, _)) in ordered.into_iter().enumerate() {
            if let Some(entry) = inner.index.get_mut(&key) {
                entry.last_seq = i as u64 + 1;
            }
        }
        inner.manifest = OpenOptions::new().append(true).open(&manifest_path)?;
        inner.manifest_lines = lines;
        inner.next_seq = next_seq;
        Ok(())
    }
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
    fn torn_manifest_tail_is_tolerated() {
        let dir = temp_store("torntail");
        {
            let store = Store::open(&dir, 0).unwrap();
            store.insert("k1", b"one").unwrap();
            store.insert("k2", b"two").unwrap();
        }
        let manifest = dir.join(MANIFEST_FILE);
        let mut f = OpenOptions::new().append(true).open(&manifest).unwrap();
        f.write_all(b"{\"seq\":99,\"op\":\"ins").unwrap(); // torn append
        let store = Store::open(&dir, 0).unwrap();
        assert_eq!(store.lookup("k1").as_deref(), Some(&b"one"[..]));
        assert_eq!(store.lookup("k2").as_deref(), Some(&b"two"[..]));
        assert_eq!(store.stats().manifest_skipped, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deleted_manifest_recovers_from_entry_files() {
        let dir = temp_store("noman");
        {
            let store = Store::open(&dir, 0).unwrap();
            store.insert("k1", b"one").unwrap();
            store.insert("k2", b"two").unwrap();
        }
        fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let store = Store::open(&dir, 0).unwrap();
        assert_eq!(store.stats().entries, 2, "entries adopted from disk");
        assert_eq!(store.lookup("k1").as_deref(), Some(&b"one"[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cross_handle_sharing_without_reopen() {
        let dir = temp_store("shared");
        let a = Store::open(&dir, 0).unwrap();
        let b = Store::open(&dir, 0).unwrap();
        a.insert("k", b"from a").unwrap();
        // b has never seen k in its manifest replay; the disk probe finds it.
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
    fn manifest_compaction_preserves_lru_order() {
        let dir = temp_store("compact");
        {
            let store = Store::open(&dir, 0).unwrap();
            store.insert("hot", b"x").unwrap();
            store.insert("cold", b"y").unwrap();
            // Touch `hot` far more than the compaction threshold.
            for _ in 0..(COMPACT_MIN_LINES + 32) {
                store.lookup("hot");
            }
        }
        let store = Store::open(&dir, 0).unwrap();
        assert!(
            store.stats().entries == 2,
            "compaction kept both live entries"
        );
        let order: Vec<String> = store.entries().into_iter().map(|e| e.key).collect();
        assert_eq!(order, vec!["cold".to_string(), "hot".to_string()]);
        // The rewritten manifest is small again.
        let lines = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        assert!(lines.lines().count() < 16, "{}", lines.lines().count());
        let _ = fs::remove_dir_all(&dir);
    }
}
