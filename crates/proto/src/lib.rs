//! # pgsd-proto — one request/response surface for the whole toolchain
//!
//! Every machine-readable result pgsd produces — daemon responses on the
//! wire, `pgsd fetch` output, and the CLI `--json` documents of `check`,
//! `audit`, `diversify`, `run`, `symbolicate`, `fuzz` and `cache stats`
//! — is one [`Envelope`]: a schema-versioned JSON object with a fixed
//! field order,
//!
//! ```json
//! {"schema_version":1,"tool":"pgsd-<command>","verdict":"<verdict>", …}
//! ```
//!
//! followed by command-specific fields in a deterministic order (no
//! floats beyond what the command computed deterministically, no
//! timestamps, no hash-ordered collections), so every document is
//! golden-test safe and `pgsd … --json | python3 -m json.tool` always
//! parses. The exit-code contract rides along: `0` when the verdict is
//! a success, `1` when the checked property failed (validation findings,
//! busy/error responses, abnormal exits, fuzz divergences, symbolication
//! misses), `2` for usage and I/O errors.
//!
//! The same types serve the `pgsd serve` wire protocol: a
//! length-prefixed [frame] carries one [`Request`]
//! JSON document to the daemon, which answers with one
//! [`Response`] envelope frame, optionally followed by a
//! single binary frame holding the variant image artifact. See the
//! module docs of [`frame`] and [`wire`] for the exact layouts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod wire;

pub use frame::{
    read_frame, write_frame, Frame, FrameError, FrameKind, FRAME_MAGIC, MAX_FRAME_LEN,
};
pub use wire::{DiversifyRequest, Request, Response, Target, VariantInfo};

use pgsd_telemetry::json::quote;

/// Schema version stamped into every envelope and wire frame. Bump on
/// any breaking change to the envelope layout or the wire types; old
/// clients then fail loudly instead of misparsing.
pub const PROTO_SCHEMA_VERSION: u32 = 1;

/// The shared schema-versioned JSON envelope.
///
/// Renders as `{"schema_version":N,"tool":…,"verdict":…,…fields}` with
/// fields in insertion order — build it in one deterministic order and
/// the document is byte-stable.
///
/// ```
/// let doc = pgsd_proto::Envelope::new("pgsd-check", "pass")
///     .raw("findings", "[]")
///     .to_json();
/// assert_eq!(
///     doc,
///     "{\"schema_version\":1,\"tool\":\"pgsd-check\",\"verdict\":\"pass\",\"findings\":[]}"
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    tool: String,
    verdict: String,
    fields: Vec<(String, String)>,
}

impl Envelope {
    /// A fresh envelope for `tool` (by convention `pgsd-<command>`)
    /// carrying `verdict`.
    pub fn new(tool: &str, verdict: &str) -> Envelope {
        Envelope {
            tool: tool.to_owned(),
            verdict: verdict.to_owned(),
            fields: Vec::new(),
        }
    }

    /// Appends a field whose value is already-rendered JSON (an object,
    /// array, number or `null` produced by another deterministic
    /// renderer).
    #[must_use]
    pub fn raw(mut self, key: &str, json: impl Into<String>) -> Envelope {
        self.fields.push((key.to_owned(), json.into()));
        self
    }

    /// Appends a string field (escaped).
    #[must_use]
    pub fn str(self, key: &str, value: &str) -> Envelope {
        self.raw(key, quote(value))
    }

    /// Appends an unsigned integer field.
    #[must_use]
    pub fn u64(self, key: &str, value: u64) -> Envelope {
        self.raw(key, value.to_string())
    }

    /// Renders the envelope: schema version, tool and verdict first,
    /// then every field in insertion order.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{{\"schema_version\":{PROTO_SCHEMA_VERSION},\"tool\":{},\"verdict\":{}",
            quote(&self.tool),
            quote(&self.verdict),
        );
        for (k, v) in &self.fields {
            write!(out, ",{}:{v}", quote(k)).expect("infallible");
        }
        out.push('}');
        out
    }
}

/// Typed protocol failures, used for malformed requests on the wire and
/// for `Error` responses. The `code` is stable (part of the schema);
/// the message is free-form diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable machine-readable code, e.g. `bad_request`.
    pub code: ErrorCode,
    /// Human-oriented detail.
    pub message: String,
}

impl ProtoError {
    /// A new error with `code` and `message`.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ProtoError {
        ProtoError {
            code,
            message: message.into(),
        }
    }

    /// Shorthand for a [`ErrorCode::BadRequest`] error.
    pub fn bad_request(message: impl Into<String>) -> ProtoError {
        ProtoError::new(ErrorCode::BadRequest, message)
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.label(), self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Stable error codes carried by `Error` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request did not parse or failed schema validation.
    BadRequest,
    /// The request named a workload the server does not know.
    UnknownWorkload,
    /// Compilation, training, or validation of the variant failed.
    BuildFailed,
    /// The server is draining connections and accepts no new work.
    ShuttingDown,
    /// Anything else (I/O mid-conversation, internal invariants).
    Internal,
}

impl ErrorCode {
    /// Every code, in a stable order.
    pub const ALL: [ErrorCode; 5] = [
        ErrorCode::BadRequest,
        ErrorCode::UnknownWorkload,
        ErrorCode::BuildFailed,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
    ];

    /// The stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownWorkload => "unknown_workload",
            ErrorCode::BuildFailed => "build_failed",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire label back to a code.
    pub fn parse(label: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.label() == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_field_order_is_insertion_order() {
        let doc = Envelope::new("pgsd-run", "ok")
            .u64("exit", 3)
            .str("label", "a\"b")
            .raw("stats", "{\"cycles\":9}")
            .to_json();
        assert_eq!(
            doc,
            "{\"schema_version\":1,\"tool\":\"pgsd-run\",\"verdict\":\"ok\",\
             \"exit\":3,\"label\":\"a\\\"b\",\"stats\":{\"cycles\":9}}"
        );
        // And it is valid JSON.
        pgsd_telemetry::json::parse(&doc).expect("parses");
    }

    #[test]
    fn error_codes_round_trip() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::parse(code.label()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
    }
}
