//! Length-prefixed framing for the `pgsd serve` wire protocol.
//!
//! Every frame is a 9-byte header followed by the payload:
//!
//! ```text
//! [4-byte magic "PGSD"] [1-byte kind] [4-byte big-endian length] [payload]
//! ```
//!
//! Kinds: `1` = JSON (a request or response document), `2` = binary (a
//! variant image artifact in the `pgsd-cache` self-checking encoding).
//! A conversation is one JSON request frame from the client, one JSON
//! response frame from the server, and — when the response announces a
//! payload — exactly one binary frame after it.
//!
//! Decoding is strict and typed: a wrong magic, unknown kind, length
//! above [`MAX_FRAME_LEN`], or short read each produce a distinct
//! [`FrameError`] — a malformed peer can never make the reader allocate
//! unboundedly or misinterpret garbage as a request.

use std::io::{Read, Write};

/// The four bytes every frame starts with.
pub const FRAME_MAGIC: [u8; 4] = *b"PGSD";

/// Upper bound on a frame payload (64 MiB) — far above any real image,
/// and a hard cap on what a malformed length field can make the reader
/// allocate.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Most bytes the reader reserves before any payload arrives; beyond
/// it the buffer grows with the bytes actually read, so a header that
/// announces a large payload costs nothing until the payload comes.
const INITIAL_PAYLOAD_CAPACITY: usize = 8 << 10;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A JSON document (request or response envelope).
    Json,
    /// Opaque binary payload (an encoded image artifact).
    Bin,
}

impl FrameKind {
    fn byte(self) -> u8 {
        match self {
            FrameKind::Json => 1,
            FrameKind::Bin => 2,
        }
    }

    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Json),
            2 => Some(FrameKind::Bin),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Payload interpretation.
    pub kind: FrameKind,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

/// Typed framing failures.
#[derive(Debug)]
pub enum FrameError {
    /// The stream did not start with [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// The kind byte is not a known [`FrameKind`].
    BadKind(u8),
    /// The length field exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// The stream ended before the announced payload arrived.
    Truncated {
        /// Bytes the header announced.
        expected: usize,
        /// Bytes actually read before EOF.
        got: usize,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Oversized(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            FrameError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated frame: expected {expected} payload bytes, got {got}"
                )
            }
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates I/O failures.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] — the writer sizes its
/// own payloads, so an oversized one is a caller bug.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> std::io::Result<()> {
    assert!(
        payload.len() <= MAX_FRAME_LEN as usize,
        "frame payload of {} bytes exceeds the cap",
        payload.len()
    );
    w.write_all(&FRAME_MAGIC)?;
    w.write_all(&[kind.byte()])?;
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame, validating magic, kind and length before the
/// payload is touched.
///
/// # Errors
///
/// Returns a typed [`FrameError`] for malformed or truncated input.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut magic = [0u8; 4];
    read_exact_or_truncated(r, &mut magic, 4)?;
    read_frame_after_magic(r, magic)
}

/// Reads the rest of a frame when the caller already consumed (and
/// wants validated) the first four bytes — the server does this to
/// distinguish framed traffic from the HTTP shim.
///
/// # Errors
///
/// As [`read_frame`].
pub fn read_frame_after_magic(r: &mut impl Read, magic: [u8; 4]) -> Result<Frame, FrameError> {
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let mut head = [0u8; 5];
    read_exact_or_truncated(r, &mut head, 5)?;
    let kind = FrameKind::from_byte(head[0]).ok_or(FrameError::BadKind(head[0]))?;
    let len = u32::from_be_bytes([head[1], head[2], head[3], head[4]]);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let expected = len as usize;
    let mut payload = Vec::with_capacity(expected.min(INITIAL_PAYLOAD_CAPACITY));
    let got = r.take(u64::from(len)).read_to_end(&mut payload)?;
    if got < expected {
        return Err(FrameError::Truncated { expected, got });
    }
    Ok(Frame { kind, payload })
}

/// `read_exact` that reports how many bytes arrived before EOF, so
/// truncation errors carry their evidence.
fn read_exact_or_truncated(
    r: &mut impl Read,
    buf: &mut [u8],
    expected: usize,
) -> Result<(), FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Err(FrameError::Truncated { expected, got }),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(kind: FrameKind, payload: &[u8]) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind, payload).unwrap();
        read_frame(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn frames_round_trip() {
        for (kind, payload) in [
            (FrameKind::Json, b"{\"k\":1}".as_slice()),
            (FrameKind::Bin, [0u8, 255, 7].as_slice()),
            (FrameKind::Json, b"".as_slice()),
        ] {
            let f = round_trip(kind, payload);
            assert_eq!(f.kind, kind);
            assert_eq!(f.payload, payload);
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Json, b"{}").unwrap();
        buf[0] = b'X';
        match read_frame(&mut buf.as_slice()) {
            Err(FrameError::BadMagic(m)) => assert_eq!(&m[1..], b"GSD"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn bad_kind_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Json, b"{}").unwrap();
        buf[4] = 9;
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::BadKind(9))
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC);
        buf.push(1);
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::Oversized(u32::MAX))
        ));
    }

    #[test]
    fn truncation_reports_expected_and_got() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Bin, &[1, 2, 3, 4]).unwrap();
        buf.truncate(buf.len() - 2);
        match read_frame(&mut buf.as_slice()) {
            Err(FrameError::Truncated { expected, got }) => {
                assert_eq!((expected, got), (4, 2));
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Truncated header too.
        assert!(matches!(
            read_frame(&mut buf[..6].as_ref()),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn cap_sized_header_with_short_payload_is_exact_truncation() {
        // The header announces the full cap; only 10 bytes follow. The
        // buffer grows with what arrives instead of trusting the header.
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC);
        buf.push(2);
        buf.extend_from_slice(&MAX_FRAME_LEN.to_be_bytes());
        buf.extend_from_slice(&[7; 10]);
        match read_frame(&mut buf.as_slice()) {
            Err(FrameError::Truncated { expected, got }) => {
                assert_eq!((expected, got), (MAX_FRAME_LEN as usize, 10));
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }
}
