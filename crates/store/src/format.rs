//! The on-disk entry frame: a self-validating container for one
//! `key → payload` mapping.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"ISEXSTO1"
//! 8       4     format version, u32 LE
//! 12      4     key length, u32 LE
//! 16      4     payload length, u32 LE
//! 20      K     key bytes (UTF-8)
//! 20+K    P     payload bytes
//! 20+K+P  8     FNV-1a 64 checksum over key ++ payload, u64 LE
//! ```
//!
//! Decoding is *total*: any byte sequence — truncated, oversized, with
//! hostile length fields, or plain garbage — decodes to `None`, never a
//! panic. A frame that decodes is exactly what was encoded: the magic pins
//! the file type, the version pins the layout, the lengths are checked
//! against the actual byte count before any slice is taken, and the
//! checksum catches torn or bit-flipped content. Readers treat `None` as a
//! cache miss, which is always sound — the store only ever *accelerates*
//! deterministic recomputation.

use std::io::Read;

/// Identifies an entry file; bumped (with [`FORMAT_VERSION`]) on layout
/// changes so old binaries never misparse new files and vice versa.
pub const MAGIC: [u8; 8] = *b"ISEXSTO1";

/// Layout version inside the frame. A mismatch reads as a miss: stale
/// formats are ignored, not trusted.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed header size: magic + version + two lengths.
pub const HEADER_BYTES: usize = 8 + 4 + 4 + 4;

/// Trailing checksum size.
pub const CHECKSUM_BYTES: usize = 8;

/// Cap on the key and payload length fields. Anything larger is hostile
/// (the flow's reports are a few hundred KiB at most) and is rejected
/// before any allocation is sized from it.
pub const MAX_FIELD_BYTES: u32 = 64 * 1024 * 1024;

/// FNV-1a 64-bit over `bytes` — the frame checksum and the store's
/// filename hash. Not cryptographic; collisions are handled by storing and
/// comparing the full key.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Encodes one `key → payload` frame.
pub fn encode_entry(key: &str, payload: &[u8]) -> Vec<u8> {
    let key = key.as_bytes();
    let mut out = Vec::with_capacity(HEADER_BYTES + key.len() + payload.len() + CHECKSUM_BYTES);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(payload);
    let mut sum = Vec::with_capacity(key.len() + payload.len());
    sum.extend_from_slice(key);
    sum.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(&sum).to_le_bytes());
    out
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

/// Checks a frame header (magic, version, field caps) and returns its
/// `(key_len, payload_len)`.
fn header_lengths(bytes: &[u8]) -> Option<(usize, usize)> {
    if bytes.len() < HEADER_BYTES || bytes[..8] != MAGIC || read_u32(bytes, 8)? != FORMAT_VERSION {
        return None;
    }
    let key_len = read_u32(bytes, 12)?;
    let payload_len = read_u32(bytes, 16)?;
    if key_len > MAX_FIELD_BYTES || payload_len > MAX_FIELD_BYTES {
        return None;
    }
    Some((key_len as usize, payload_len as usize))
}

/// Reads only the key from the start of a frame. The header is checked as
/// [`decode_entry`] checks it; the payload and checksum are not read, so a
/// key is no promise that the whole frame decodes.
pub(crate) fn read_key(reader: &mut impl Read) -> Option<String> {
    let mut header = [0u8; HEADER_BYTES];
    reader.read_exact(&mut header).ok()?;
    let (key_len, _) = header_lengths(&header)?;
    // `take` grows the buffer only as bytes arrive: a hostile length field
    // never sizes an allocation.
    let mut key = Vec::new();
    reader.take(key_len as u64).read_to_end(&mut key).ok()?;
    if key.len() != key_len {
        return None;
    }
    String::from_utf8(key).ok()
}

/// Decodes a frame back to `(key, payload)`; `None` on any corruption.
///
/// Trailing bytes after the checksum are also corruption: a frame is a
/// whole file, so extra bytes mean a torn or concatenated write.
pub fn decode_entry(bytes: &[u8]) -> Option<(String, Vec<u8>)> {
    let (key_len, payload_len) = header_lengths(bytes)?;
    // Checked arithmetic: hostile lengths must not wrap into a plausible
    // total or size an allocation.
    let expected = HEADER_BYTES
        .checked_add(key_len)?
        .checked_add(payload_len)?
        .checked_add(CHECKSUM_BYTES)?;
    if bytes.len() != expected {
        return None;
    }
    let key = &bytes[HEADER_BYTES..HEADER_BYTES + key_len];
    let payload = &bytes[HEADER_BYTES + key_len..HEADER_BYTES + key_len + payload_len];
    let stored_sum = u64::from_le_bytes(bytes[expected - CHECKSUM_BYTES..].try_into().ok()?);
    let mut sum = Vec::with_capacity(key_len + payload_len);
    sum.extend_from_slice(key);
    sum.extend_from_slice(payload);
    if fnv1a64(&sum) != stored_sum {
        return None;
    }
    let key = std::str::from_utf8(key).ok()?;
    Some((key.to_string(), payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let frame = encode_entry("bench=crc32 seed=7", b"{\"report\":1}");
        let (key, payload) = decode_entry(&frame).unwrap();
        assert_eq!(key, "bench=crc32 seed=7");
        assert_eq!(payload, b"{\"report\":1}");
    }

    #[test]
    fn empty_key_and_payload_round_trip() {
        let frame = encode_entry("", b"");
        assert_eq!(decode_entry(&frame).unwrap(), (String::new(), Vec::new()));
    }

    #[test]
    fn every_truncation_is_a_miss() {
        let frame = encode_entry("key", b"payload bytes");
        for len in 0..frame.len() {
            assert_eq!(decode_entry(&frame[..len]), None, "truncated to {len}");
        }
    }

    #[test]
    fn trailing_garbage_is_a_miss() {
        let mut frame = encode_entry("key", b"payload");
        frame.push(0);
        assert_eq!(decode_entry(&frame), None);
    }

    #[test]
    fn any_single_bit_flip_is_a_miss() {
        let frame = encode_entry("key", b"payload");
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert_eq!(decode_entry(&bad), None, "flip at {byte}.{bit}");
            }
        }
    }

    #[test]
    fn hostile_lengths_are_rejected() {
        // Lengths that overflow or exceed the field cap, grafted onto an
        // otherwise plausible header.
        for (key_len, payload_len) in [
            (u32::MAX, 0),
            (0, u32::MAX),
            (MAX_FIELD_BYTES + 1, 0),
            (u32::MAX, u32::MAX),
        ] {
            let mut frame = Vec::new();
            frame.extend_from_slice(&MAGIC);
            frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            frame.extend_from_slice(&key_len.to_le_bytes());
            frame.extend_from_slice(&payload_len.to_le_bytes());
            frame.extend_from_slice(&[0u8; 64]);
            assert_eq!(decode_entry(&frame), None, "{key_len}/{payload_len}");
        }
    }

    #[test]
    fn read_key_needs_the_whole_key_and_nothing_after_it() {
        let frame = encode_entry("key", b"payload");
        assert_eq!(read_key(&mut &frame[..]).as_deref(), Some("key"));
        assert_eq!(
            read_key(&mut &frame[..HEADER_BYTES + 3]).as_deref(),
            Some("key")
        );
        for len in 0..HEADER_BYTES + 3 {
            assert_eq!(read_key(&mut &frame[..len]), None, "truncated to {len}");
        }
    }

    #[test]
    fn wrong_version_is_a_miss() {
        let mut frame = encode_entry("key", b"payload");
        frame[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert_eq!(decode_entry(&frame), None);
    }
}
