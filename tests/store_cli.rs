//! The `isex store` CLI on a real store directory: `ls` lists least
//! recently used first, `gc --max-bytes N` evicts in that order, `stats`
//! counts entries and bytes, and `clear` empties the store.

use std::path::{Path, PathBuf};
use std::process::Command;

use isex::store::{encode_entry, Store};

fn isex_store(action: &str, dir: &Path, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_isex"))
        .args(["store", action, "--store-dir"])
        .arg(dir)
        .args(extra)
        .output()
        .expect("run isex store");
    assert!(
        out.status.success(),
        "isex store {action} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The keys `isex store ls` prints, in its order (the last column).
fn listed_keys(dir: &Path) -> Vec<String> {
    let ls = isex_store("ls", dir, &[]);
    let mut lines = ls.lines();
    assert!(lines.next().expect("header").ends_with("key"), "{ls}");
    lines
        .map(|line| line.split_whitespace().last().expect("key").to_string())
        .collect()
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("isex-store-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn ls_gc_stats_and_clear_follow_last_use() {
    let dir = temp_dir();
    let payload = [7u8; 64];
    let frame = encode_entry("a", &payload).len() as u64;
    {
        let store = Store::open(&dir, 0).expect("open");
        for key in ["a", "b", "c"] {
            store.insert(key, &payload).expect("insert");
        }
        assert!(store.lookup("a").is_some(), "a becomes most recently used");
    }
    assert_eq!(listed_keys(&dir), ["b", "c", "a"]);

    let stats = isex_store("stats", &dir, &[]);
    assert!(stats.contains("entries:          3"), "{stats}");
    assert!(
        stats.contains(&format!("bytes:            {}", 3 * frame)),
        "{stats}"
    );

    let budget = (2 * frame).to_string();
    let gc = isex_store("gc", &dir, &["--max-bytes", &budget]);
    assert!(gc.starts_with("evicted: b\n"), "{gc}");
    assert!(gc.contains("1 entry evicted; 2 entries"), "{gc}");
    assert_eq!(listed_keys(&dir), ["c", "a"]);

    let clear = isex_store("clear", &dir, &[]);
    assert!(clear.contains("removed 2 entries"), "{clear}");
    assert!(listed_keys(&dir).is_empty());
    assert_eq!(Store::open(&dir, 0).expect("reopen").stats().entries, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
