//! Property: the daemon's path from socket bytes to a [`Request`] —
//! [`read_frame`], then [`Request::from_json`] on the frame's text —
//! ends in a typed error or a request for any input, and never panics.

use pgsd_proto::{read_frame, write_frame, DiversifyRequest, FrameKind, Request, Target};
use proptest::prelude::*;

/// Reads one frame from `bytes` and parses its payload as a request.
fn request_from(bytes: &[u8]) -> Result<Request, String> {
    let frame = read_frame(&mut &bytes[..]).map_err(|e| e.to_string())?;
    let text = String::from_utf8(frame.payload).map_err(|e| e.to_string())?;
    Request::from_json(&text).map_err(|e| e.to_string())
}

/// A well-formed diversify request frame, so that mutating it reaches
/// the schema checks and not only the frame header and JSON parser.
fn valid_frame() -> Vec<u8> {
    let doc = Request::Diversify(DiversifyRequest {
        target: Target::Workload("470.lbm".into()),
        pnop: Some("0.0-0.3".into()),
        seed: Some(7),
        shift: true,
        subst: false,
        regrand: true,
        train: Some(vec![10, -3]),
        validate: true,
    })
    .to_json();
    let mut out = Vec::new();
    write_frame(&mut out, FrameKind::Json, doc.as_bytes()).expect("writes to a Vec");
    out
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let _ = request_from(&bytes);
    }

    #[test]
    fn mutated_request_frames_never_panic(
        at in any::<usize>(),
        splice in prop::collection::vec(any::<u8>(), 0..8),
        cut in any::<usize>(),
    ) {
        let valid = valid_frame();
        prop_assert!(request_from(&valid).is_ok());
        let at = at % valid.len();
        let mut bytes = valid[..at].to_vec();
        bytes.extend_from_slice(&splice);
        bytes.extend_from_slice(&valid[(at + splice.len()).min(valid.len())..]);
        let _ = request_from(&bytes);
        let _ = request_from(&bytes[..cut % (bytes.len() + 1)]);
    }
}
