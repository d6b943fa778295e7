//! The cluster wire format: length-prefixed binary frames over TCP.
//!
//! Every message on a coordinator↔worker connection is one frame:
//!
//! ```text
//! [opcode: u8][len: u32 big-endian][payload: len bytes]
//! ```
//!
//! The payload is the message's JSON rendering (see [`messages`](crate::messages));
//! the binary envelope exists so a reader can delimit messages without
//! scanning for terminators, reject oversized or unknown frames *before*
//! allocating for them, and distinguish a clean connection close (EOF at a
//! frame boundary) from a truncated one (EOF mid-frame).
//!
//! The decoder is written for hostile input: an unknown opcode, a length
//! above [`MAX_FRAME_BYTES`], or a short read all surface as typed
//! [`WireError`]s — never a panic, never an unbounded allocation
//! (payloads are read incrementally, so a huge *claimed* length that
//! passes the cap check still cannot balloon memory past the cap).

use std::io::{Read, Write};

/// Hard cap on a frame payload. Cluster payloads are one JSON-encoded
/// repeat outcome at most — a few hundred KiB for pathological candidate
/// lists — so 8 MiB is generous headroom, while still refusing the
/// `len = 0xffff_ffff` allocation a hostile peer could claim.
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// Frame types on a cluster connection. Byte 8 is retired: protocol 3
/// sent a worker's heartbeat-borne metrics under it, and it now decodes
/// as [`WireError::UnknownOpCode`] like any other unknown byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Worker → coordinator: identify and offer capacity.
    Hello = 1,
    /// Coordinator → worker: accept and announce the heartbeat interval.
    HelloAck = 2,
    /// Coordinator → worker: explore one repeat of one block.
    Job = 3,
    /// A whole block's [`CheckpointEntry`](isex_flow::CheckpointEntry);
    /// no session sends it (see
    /// [`JobResult`](crate::messages::JobResult)).
    Result = 4,
    /// Worker → coordinator: liveness beacon (empty payload).
    Heartbeat = 5,
    /// Either direction: orderly close (empty payload).
    Goodbye = 6,
    /// Worker → coordinator: a bounded batch of the worker's closed spans
    /// for one job.
    TraceChunk = 7,
    /// Worker → coordinator: one `(block, repeat)` job's outcome.
    RepeatResult = 9,
}

impl OpCode {
    /// Decodes a wire byte; unknown values are the *caller's* error, not a
    /// panic — a hostile or version-skewed peer controls this byte.
    pub fn from_u8(byte: u8) -> Option<OpCode> {
        match byte {
            1 => Some(OpCode::Hello),
            2 => Some(OpCode::HelloAck),
            3 => Some(OpCode::Job),
            4 => Some(OpCode::Result),
            5 => Some(OpCode::Heartbeat),
            6 => Some(OpCode::Goodbye),
            7 => Some(OpCode::TraceChunk),
            9 => Some(OpCode::RepeatResult),
            _ => None,
        }
    }
}

/// One decoded frame: an opcode and its raw payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The frame type.
    pub opcode: OpCode,
    /// The payload (message JSON; empty for `Heartbeat`/`Goodbye`).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with an empty payload.
    pub fn control(opcode: OpCode) -> Frame {
        Frame {
            opcode,
            payload: Vec::new(),
        }
    }

    /// Encodes the frame to its wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(5 + self.payload.len());
        bytes.push(self.opcode as u8);
        bytes.extend_from_slice(&(self.payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&self.payload);
        bytes
    }
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes EOF *mid-frame* — a
    /// truncated frame is an error, unlike EOF at a frame boundary).
    Io(std::io::Error),
    /// The peer sent an opcode this version does not know.
    UnknownOpCode(u8),
    /// The peer claimed a payload larger than [`MAX_FRAME_BYTES`].
    Oversized(usize),
    /// The payload bytes did not decode as the opcode's message.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "cluster socket: {e}"),
            WireError::UnknownOpCode(b) => write!(f, "unknown opcode {b:#04x}"),
            WireError::Oversized(n) => {
                write!(
                    f,
                    "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
            WireError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Reads exactly `buf.len()` bytes, reporting whether EOF struck before
/// the *first* byte (clean close) or after it (truncation).
fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> Result<bool, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame. `Ok(None)` is a clean close: EOF exactly on a frame
/// boundary. EOF anywhere inside a frame is a truncation error.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Frame>, WireError> {
    let mut header = [0u8; 5];
    if !read_exact_or_eof(reader, &mut header)? {
        return Ok(None);
    }
    let opcode = OpCode::from_u8(header[0]).ok_or(WireError::UnknownOpCode(header[0]))?;
    let len = u32::from_be_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(len));
    }
    // Read in bounded chunks so a hostile length that passes the cap check
    // still only allocates as bytes actually arrive.
    let mut payload = Vec::new();
    let mut remaining = len;
    let mut chunk = [0u8; 64 * 1024];
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        if !read_exact_or_eof(reader, &mut chunk[..take])? {
            return Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-payload",
            )));
        }
        payload.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }
    Ok(Some(Frame { opcode, payload }))
}

/// Writes one frame and flushes it (frames are the unit of progress — a
/// buffered half-frame helps nobody).
pub fn write_frame(writer: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    writer.write_all(&frame.encode())?;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let frame = Frame {
            opcode: OpCode::Job,
            payload: br#"{"job_id":1}"#.to_vec(),
        };
        let bytes = frame.encode();
        let back = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn eof_at_boundary_is_clean_close() {
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());
    }

    #[test]
    fn eof_mid_header_is_truncation() {
        let bytes = [OpCode::Heartbeat as u8, 0, 0];
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::Io(_)), "{err}");
    }

    #[test]
    fn eof_mid_payload_is_truncation() {
        let mut bytes = Frame {
            opcode: OpCode::Result,
            payload: vec![b'x'; 100],
        }
        .encode();
        bytes.truncate(bytes.len() - 1);
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::Io(_)), "{err}");
    }

    #[test]
    fn unknown_opcode_is_typed() {
        let bytes = [0xee, 0, 0, 0, 0];
        match read_frame(&mut bytes.as_slice()).unwrap_err() {
            WireError::UnknownOpCode(0xee) => {}
            other => panic!("expected UnknownOpCode, got {other}"),
        }
    }

    #[test]
    fn oversized_length_is_refused_without_allocation() {
        let mut bytes = vec![OpCode::Job as u8];
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        match read_frame(&mut bytes.as_slice()).unwrap_err() {
            WireError::Oversized(n) => assert_eq!(n, u32::MAX as usize),
            other => panic!("expected Oversized, got {other}"),
        }
    }
}
