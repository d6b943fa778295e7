//! Adversarial tests of the store's on-disk format and recovery paths.
//!
//! The contract under test is *no trust in the disk*: whatever bytes an
//! entry file holds — truncated, bit-flipped, hostile length fields — and
//! whatever else lies in the directory (a stray `manifest.jsonl` from an
//! older build, misnamed files), `Store::open` never panics and never
//! errors on content, a corrupted entry is a miss (never a wrong answer),
//! and two handles racing on one directory leave it consistent.

use std::fs;
use std::path::Path;

use isex_store::format::{self, HEADER_BYTES, MAX_FIELD_BYTES};
use isex_store::Store;
use proptest::prelude::*;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "isex-store-fuzz-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn entry_path(dir: &Path, key: &str) -> std::path::PathBuf {
    dir.join("entries").join(isex_store::entry_file_name(key))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Any prefix of a valid frame is a decode miss, and a store whose
    // entry file was truncated serves a miss for that key — not an error,
    // not a stale payload.
    #[test]
    fn truncated_entry_is_a_miss(
        key in "[a-z]{1,24}",
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        cut_permille in 0usize..1000,
    ) {
        let frame = format::encode_entry(&key, &payload);
        let cut = cut_permille * (frame.len() - 1) / 1000; // strictly short
        prop_assert!(format::decode_entry(&frame[..cut]).is_none());

        let dir = tmp_dir("trunc");
        {
            let store = Store::open(&dir, 0).expect("open");
            store.insert(&key, &payload).expect("insert");
        }
        fs::write(entry_path(&dir, &key), &frame[..cut]).expect("truncate on disk");
        let store = Store::open(&dir, 0).expect("reopen never errors on content");
        prop_assert!(store.lookup(&key).is_none(), "truncated entry must miss");
        let _ = fs::remove_dir_all(&dir);
    }

    // Random bytes — including ones that happen to start with the magic —
    // never panic the decoder.
    #[test]
    fn decoder_never_panics_on_random_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..256),
        with_magic in any::<bool>(),
    ) {
        let mut data = data;
        if with_magic && data.len() >= 8 {
            data[..8].copy_from_slice(&format::MAGIC);
        }
        let _ = format::decode_entry(&data);
    }

    // A single flipped bit anywhere in the frame is caught: the decode
    // either fails or returns the original content (a flip in a length
    // field can still yield a well-formed shorter/longer parse only if the
    // checksum also matches, which the checksum makes negligible — and the
    // store's key comparison guards the rest).
    #[test]
    fn bit_flips_never_yield_a_different_payload(
        key in "[a-z]{1,16}",
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        at_permille in 0usize..1000,
        bit in 0u8..8,
    ) {
        let mut frame = format::encode_entry(&key, &payload);
        let at = at_permille * (frame.len() - 1) / 1000;
        frame[at] ^= 1 << bit;
        if let Some((k, p)) = format::decode_entry(&frame) {
            prop_assert_eq!(k, key);
            prop_assert_eq!(p, payload);
        }
    }

    // Hostile length fields (up to u32::MAX) must be rejected arithmetically
    // — no allocation attempt, no overflow panic.
    #[test]
    fn hostile_lengths_are_rejected(key_len in any::<u32>(), payload_len in any::<u32>()) {
        // Force at least one length past the cap; the other stays arbitrary.
        let key_len = key_len.saturating_add(MAX_FIELD_BYTES + 1);
        let mut frame = Vec::with_capacity(HEADER_BYTES + 16);
        frame.extend_from_slice(&format::MAGIC);
        frame.extend_from_slice(&format::FORMAT_VERSION.to_le_bytes());
        frame.extend_from_slice(&key_len.to_le_bytes());
        frame.extend_from_slice(&payload_len.to_le_bytes());
        frame.extend_from_slice(b"some trailing bytes");
        prop_assert!(format::decode_entry(&frame).is_none());
    }
}

// ---------------------------------------------------------------------------
// Deterministic edge cases
// ---------------------------------------------------------------------------

#[test]
fn two_handles_racing_on_one_directory_stay_consistent() {
    // Two handles (as two replicas would) hammer one directory with
    // overlapping keys. Atomic temp+rename writes mean every lookup during
    // and after the race sees some complete value or a miss — never a torn
    // frame — and a fresh open at the end adopts a consistent view.
    let dir = tmp_dir("race");
    let a = std::sync::Arc::new(Store::open(&dir, 0).expect("open a"));
    let b = std::sync::Arc::new(Store::open(&dir, 0).expect("open b"));
    let mut threads = Vec::new();
    for (id, store) in [(0u8, &a), (1u8, &b)] {
        let store = std::sync::Arc::clone(store);
        threads.push(std::thread::spawn(move || {
            for round in 0..40u32 {
                let key = format!("k{}", round % 8);
                let payload = vec![id; 16 + (round as usize % 16)];
                store.insert(&key, &payload).expect("insert");
                if let Some(seen) = store.lookup(&key) {
                    assert!(
                        seen.iter().all(|&b| b == seen[0]),
                        "lookup observed a torn write: {seen:?}"
                    );
                }
                if round % 7 == 0 {
                    let _ = store.remove(&key);
                }
            }
        }));
    }
    for t in threads {
        t.join().expect("writer thread");
    }
    let fresh = Store::open(&dir, 0).expect("reopen after the race");
    for info in fresh.entries() {
        let payload = fresh.lookup(&info.key).expect("listed entry readable");
        assert!(payload.iter().all(|&b| b == payload[0]));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn entirely_hostile_directory_contents_never_panic_open() {
    let dir = tmp_dir("hostile");
    fs::create_dir_all(dir.join("entries")).expect("mkdir");
    fs::write(dir.join("manifest.jsonl"), b"\x00\xff{not json\n{\"seq\":").expect("manifest");
    fs::write(dir.join("entries").join("nothex.entry"), b"junk").expect("entry 1");
    fs::write(
        dir.join("entries").join("0123456789abcdef.entry"),
        b"ISEXSTO1junkjunkjunk",
    )
    .expect("entry 2");
    let store = Store::open(&dir, 0).expect("open survives hostility");
    assert!(store.lookup("anything").is_none());
    assert_eq!(store.stats().entries, 0, "nothing trustworthy to adopt");
    let _ = fs::remove_dir_all(&dir);
}
