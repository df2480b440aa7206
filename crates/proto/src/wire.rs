//! Typed request/response documents for the `pgsd serve` protocol.
//!
//! Both sides exchange the same schema-versioned JSON the CLI `--json`
//! envelopes use. A request is
//!
//! ```json
//! {"schema_version":1,"kind":"diversify","target":{"workload":"470.lbm"},
//!  "pnop":"0.0-0.3","seed":7,"shift":true,"subst":false,"regrand":false,
//!  "train":[10],"validate":false}
//! ```
//!
//! (`seed` may be omitted — the server then assigns the next seed from
//! its ledgered sequence; `target` is either `{"workload":NAME}` or
//! `{"source_name":NAME,"source":TEXT}`). The other request kinds are
//! `health`, `metrics` and `shutdown`, which carry no further fields.
//!
//! A response is an [`Envelope`] whose verdict selects
//! the variant: `variant` (followed by one binary frame carrying the
//! image artifact), `busy`, `error`, `ok` (shutdown ack), `health`, or
//! `metrics`. [`Response::from_json`] folds unknown verdicts into a
//! typed error instead of guessing.

use pgsd_telemetry::json::{parse, quote, Value};

use crate::{Envelope, ErrorCode, ProtoError, PROTO_SCHEMA_VERSION};

/// What a diversify request wants built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// A named workload from the built-in suite (e.g. `470.lbm`).
    Workload(String),
    /// Ad-hoc MiniC source shipped with the request.
    Source {
        /// Display name for diagnostics and ledger records.
        name: String,
        /// The program text.
        text: String,
    },
}

/// One variant-production request.
#[derive(Debug, Clone, PartialEq)]
pub struct DiversifyRequest {
    /// What to build.
    pub target: Target,
    /// NOP strategy spec (`0.5` or `0.0-0.3`); `None` = server default.
    pub pnop: Option<String>,
    /// Client-pinned seed; `None` = the server assigns the next seed
    /// from its ledgered sequence.
    pub seed: Option<u64>,
    /// Also apply basic-block shifting.
    pub shift: bool,
    /// Also apply instruction substitution.
    pub subst: bool,
    /// Also randomize register allocation.
    pub regrand: bool,
    /// Training inputs for profile-guided strategies (each inner value
    /// is one `main` argument; one training run per request is enough
    /// for the synthetic workloads). Workload targets default to their
    /// own train set.
    pub train: Option<Vec<i32>>,
    /// Statically validate the variant before shipping it.
    pub validate: bool,
}

impl DiversifyRequest {
    /// A minimal request for `target` with every knob at its default.
    pub fn new(target: Target) -> DiversifyRequest {
        DiversifyRequest {
            target,
            pnop: None,
            seed: None,
            shift: false,
            subst: false,
            regrand: false,
            train: None,
            validate: false,
        }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Build (or fetch from cache) one diversified variant.
    Diversify(DiversifyRequest),
    /// Liveness probe (also served over the HTTP shim as `/healthz`).
    Health,
    /// Telemetry snapshot (also served over HTTP as `/metrics`).
    Metrics,
    /// Ask the server to drain and stop.
    Shutdown,
}

impl Request {
    /// Renders the request as its deterministic JSON document.
    pub fn to_json(&self) -> String {
        let kind = match self {
            Request::Diversify(_) => "diversify",
            Request::Health => "health",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
        };
        let mut out = format!(
            "{{\"schema_version\":{PROTO_SCHEMA_VERSION},\"kind\":{}",
            quote(kind)
        );
        if let Request::Diversify(d) = self {
            use std::fmt::Write as _;
            match &d.target {
                Target::Workload(w) => {
                    write!(out, ",\"target\":{{\"workload\":{}}}", quote(w))
                }
                Target::Source { name, text } => write!(
                    out,
                    ",\"target\":{{\"source_name\":{},\"source\":{}}}",
                    quote(name),
                    quote(text)
                ),
            }
            .expect("infallible");
            if let Some(p) = &d.pnop {
                write!(out, ",\"pnop\":{}", quote(p)).expect("infallible");
            }
            if let Some(s) = d.seed {
                write!(out, ",\"seed\":{s}").expect("infallible");
            }
            write!(
                out,
                ",\"shift\":{},\"subst\":{},\"regrand\":{}",
                d.shift, d.subst, d.regrand
            )
            .expect("infallible");
            if let Some(train) = &d.train {
                let items: Vec<String> = train.iter().map(ToString::to_string).collect();
                write!(out, ",\"train\":[{}]", items.join(",")).expect("infallible");
            }
            write!(out, ",\"validate\":{}", d.validate).expect("infallible");
        }
        out.push('}');
        out
    }

    /// Parses and schema-checks one request document.
    ///
    /// # Errors
    ///
    /// Every malformation is a [`ProtoError`] with code `bad_request`:
    /// unparsable JSON, missing or mistyped fields, an unknown `kind`,
    /// or a schema version this build does not speak.
    pub fn from_json(text: &str) -> Result<Request, ProtoError> {
        let doc = parse(text).map_err(|e| ProtoError::bad_request(format!("bad JSON: {e}")))?;
        let version = doc
            .get("schema_version")
            .and_then(Value::as_u64)
            .ok_or_else(|| ProtoError::bad_request("missing schema_version"))?;
        if version != u64::from(PROTO_SCHEMA_VERSION) {
            return Err(ProtoError::bad_request(format!(
                "unsupported schema_version {version} (this build speaks {PROTO_SCHEMA_VERSION})"
            )));
        }
        let kind = doc
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| ProtoError::bad_request("missing kind"))?;
        match kind {
            "health" => Ok(Request::Health),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            "diversify" => Ok(Request::Diversify(parse_diversify(&doc)?)),
            other => Err(ProtoError::bad_request(format!(
                "unknown request kind `{other}`"
            ))),
        }
    }
}

fn parse_diversify(doc: &Value) -> Result<DiversifyRequest, ProtoError> {
    let target = doc
        .get("target")
        .ok_or_else(|| ProtoError::bad_request("diversify request missing target"))?;
    let target = if let Some(w) = target.get("workload").and_then(Value::as_str) {
        Target::Workload(w.to_owned())
    } else {
        let name = target
            .get("source_name")
            .and_then(Value::as_str)
            .ok_or_else(|| ProtoError::bad_request("target needs workload or source_name"))?;
        let text = target
            .get("source")
            .and_then(Value::as_str)
            .ok_or_else(|| ProtoError::bad_request("source target missing source text"))?;
        Target::Source {
            name: name.to_owned(),
            text: text.to_owned(),
        }
    };
    let flag = |key: &str| -> Result<bool, ProtoError> {
        match doc.get(key) {
            None => Ok(false),
            Some(Value::Bool(b)) => Ok(*b),
            Some(_) => Err(ProtoError::bad_request(format!("{key} must be a boolean"))),
        }
    };
    let seed = match doc.get("seed") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| ProtoError::bad_request("seed must be an unsigned integer"))?,
        ),
    };
    let train = match doc.get("train") {
        None | Some(Value::Null) => None,
        Some(v) => {
            let items = v
                .as_arr()
                .ok_or_else(|| ProtoError::bad_request("train must be an array"))?;
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                let n = item
                    .as_f64()
                    .filter(|f| f.fract() == 0.0 && (i32::MIN as f64..=i32::MAX as f64).contains(f))
                    .ok_or_else(|| ProtoError::bad_request("train values must be i32"))?;
                out.push(n as i32);
            }
            Some(out)
        }
    };
    let pnop = match doc.get("pnop") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| ProtoError::bad_request("pnop must be a string spec"))?
                .to_owned(),
        ),
    };
    Ok(DiversifyRequest {
        target,
        pnop,
        seed,
        shift: flag("shift")?,
        subst: flag("subst")?,
        regrand: flag("regrand")?,
        train,
        validate: flag("validate")?,
    })
}

/// Everything the server tells a client about a shipped variant; the
/// image artifact itself travels in the binary frame that follows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariantInfo {
    /// Fleet identity: content hash of the variant text.
    pub variant_id: String,
    /// The seed the variant was built with (assigned or pinned).
    pub seed: u64,
    /// Whether the seed was pinned by the client (`false` = assigned
    /// from the server's sequence).
    pub seed_pinned: bool,
    /// Stable transform-set label, e.g. `nop+shift`.
    pub transforms: String,
    /// Strategy display label, e.g. `pNOP=0-30%`.
    pub strategy: String,
    /// Bytes of diversified text in the image.
    pub text_bytes: u64,
    /// Length of the binary frame that follows this envelope.
    pub payload_bytes: u64,
    /// Provenance: the ledger's module key (hex).
    pub module_key: String,
    /// Provenance: the ledger's configuration fingerprint (hex).
    pub config_key: String,
    /// Provenance: size of the ledgered baseline↔variant address map.
    pub addr_map_bytes: u64,
}

/// One server response (the JSON part; `Variant` is followed by a
/// binary frame carrying `payload_bytes` of image artifact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A variant was produced; the image artifact frame follows.
    Variant(VariantInfo),
    /// The request queue is full — retry later. Typed backpressure,
    /// never a hang.
    Busy {
        /// Connections queued when the request was refused.
        queue_depth: u64,
        /// The queue's capacity.
        capacity: u64,
    },
    /// The request failed; the code says how.
    Error {
        /// Stable machine-readable code.
        code: ErrorCode,
        /// Diagnostic detail.
        message: String,
    },
    /// Liveness: the server is accepting work.
    Health {
        /// Connections currently queued.
        queue_depth: u64,
        /// Worker threads serving requests.
        workers: u64,
    },
    /// A telemetry snapshot (the metrics-JSON document, verbatim).
    Metrics {
        /// The schema-versioned metrics document.
        metrics_json: String,
    },
    /// Shutdown acknowledged; the server is draining.
    Ok,
}

impl Response {
    /// Renders the response as its envelope document.
    pub fn to_json(&self) -> String {
        match self {
            Response::Variant(v) => Envelope::new("pgsd-serve", "variant")
                .str("variant_id", &v.variant_id)
                .u64("seed", v.seed)
                .raw("seed_pinned", if v.seed_pinned { "true" } else { "false" })
                .str("transforms", &v.transforms)
                .str("strategy", &v.strategy)
                .u64("text_bytes", v.text_bytes)
                .u64("payload_bytes", v.payload_bytes)
                .str("module_key", &v.module_key)
                .str("config_key", &v.config_key)
                .u64("addr_map_bytes", v.addr_map_bytes)
                .to_json(),
            Response::Busy {
                queue_depth,
                capacity,
            } => Envelope::new("pgsd-serve", "busy")
                .u64("queue_depth", *queue_depth)
                .u64("capacity", *capacity)
                .to_json(),
            Response::Error { code, message } => Envelope::new("pgsd-serve", "error")
                .str("code", code.label())
                .str("message", message)
                .to_json(),
            Response::Health {
                queue_depth,
                workers,
            } => Envelope::new("pgsd-serve", "health")
                .str("status", "ok")
                .u64("queue_depth", *queue_depth)
                .u64("workers", *workers)
                .to_json(),
            Response::Metrics { metrics_json } => Envelope::new("pgsd-serve", "metrics")
                .raw("metrics", metrics_json.clone())
                .to_json(),
            Response::Ok => Envelope::new("pgsd-serve", "ok").to_json(),
        }
    }

    /// Parses a response envelope.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] (code `bad_request`) on unparsable JSON, a wrong
    /// tool or schema version, a missing field, or an unknown verdict.
    pub fn from_json(text: &str) -> Result<Response, ProtoError> {
        let doc = parse(text).map_err(|e| ProtoError::bad_request(format!("bad JSON: {e}")))?;
        let version = doc
            .get("schema_version")
            .and_then(Value::as_u64)
            .ok_or_else(|| ProtoError::bad_request("missing schema_version"))?;
        if version != u64::from(PROTO_SCHEMA_VERSION) {
            return Err(ProtoError::bad_request(format!(
                "unsupported schema_version {version}"
            )));
        }
        let tool = doc.get("tool").and_then(Value::as_str).unwrap_or_default();
        if tool != "pgsd-serve" {
            return Err(ProtoError::bad_request(format!(
                "response from unexpected tool `{tool}`"
            )));
        }
        let verdict = doc
            .get("verdict")
            .and_then(Value::as_str)
            .ok_or_else(|| ProtoError::bad_request("missing verdict"))?;
        let str_field = |key: &str| -> Result<String, ProtoError> {
            doc.get(key)
                .and_then(Value::as_str)
                .map(ToOwned::to_owned)
                .ok_or_else(|| ProtoError::bad_request(format!("missing field {key}")))
        };
        let u64_field = |key: &str| -> Result<u64, ProtoError> {
            doc.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| ProtoError::bad_request(format!("missing field {key}")))
        };
        match verdict {
            "variant" => Ok(Response::Variant(VariantInfo {
                variant_id: str_field("variant_id")?,
                seed: u64_field("seed")?,
                seed_pinned: matches!(doc.get("seed_pinned"), Some(Value::Bool(true))),
                transforms: str_field("transforms")?,
                strategy: str_field("strategy")?,
                text_bytes: u64_field("text_bytes")?,
                payload_bytes: u64_field("payload_bytes")?,
                module_key: str_field("module_key")?,
                config_key: str_field("config_key")?,
                addr_map_bytes: u64_field("addr_map_bytes")?,
            })),
            "busy" => Ok(Response::Busy {
                queue_depth: u64_field("queue_depth")?,
                capacity: u64_field("capacity")?,
            }),
            "error" => Ok(Response::Error {
                code: ErrorCode::parse(&str_field("code")?).unwrap_or(ErrorCode::Internal),
                message: str_field("message")?,
            }),
            "health" => Ok(Response::Health {
                queue_depth: u64_field("queue_depth")?,
                workers: u64_field("workers")?,
            }),
            "metrics" => Ok(Response::Metrics {
                metrics_json: doc
                    .get("metrics")
                    .map(ToString::to_string)
                    .ok_or_else(|| ProtoError::bad_request("missing field metrics"))?,
            }),
            "ok" => Ok(Response::Ok),
            other => Err(ProtoError::bad_request(format!(
                "unknown response verdict `{other}`"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Health,
            Request::Metrics,
            Request::Shutdown,
            Request::Diversify(DiversifyRequest {
                target: Target::Workload("470.lbm".into()),
                pnop: Some("0.0-0.3".into()),
                seed: Some(7),
                shift: true,
                subst: false,
                regrand: true,
                train: Some(vec![10, -3]),
                validate: true,
            }),
            Request::Diversify(DiversifyRequest::new(Target::Source {
                name: "demo.mc".into(),
                text: "int main() { return 0; }".into(),
            })),
        ];
        for req in reqs {
            let json = req.to_json();
            assert_eq!(Request::from_json(&json).unwrap(), req, "doc: {json}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Variant(VariantInfo {
                variant_id: "00ff".into(),
                seed: 9,
                seed_pinned: true,
                transforms: "nop+shift".into(),
                strategy: "pNOP=0-30%".into(),
                text_bytes: 1234,
                payload_bytes: 2048,
                module_key: "abcd".into(),
                config_key: "ef01".into(),
                addr_map_bytes: 99,
            }),
            Response::Busy {
                queue_depth: 5,
                capacity: 4,
            },
            Response::Error {
                code: ErrorCode::UnknownWorkload,
                message: "no such workload".into(),
            },
            Response::Health {
                queue_depth: 0,
                workers: 4,
            },
            Response::Metrics {
                metrics_json: "{\"schema_version\":1}".into(),
            },
            Response::Ok,
        ];
        for resp in resps {
            let json = resp.to_json();
            assert_eq!(Response::from_json(&json).unwrap(), resp, "doc: {json}");
        }
    }

    #[test]
    fn malformed_requests_are_typed_bad_request() {
        for doc in [
            "not json",
            "{}",
            "{\"schema_version\":1}",
            "{\"schema_version\":99,\"kind\":\"health\"}",
            "{\"schema_version\":1,\"kind\":\"explode\"}",
            "{\"schema_version\":1,\"kind\":\"diversify\"}",
            "{\"schema_version\":1,\"kind\":\"diversify\",\"target\":{}}",
            "{\"schema_version\":1,\"kind\":\"diversify\",\
             \"target\":{\"workload\":\"x\"},\"seed\":\"high\"}",
            "{\"schema_version\":1,\"kind\":\"diversify\",\
             \"target\":{\"workload\":\"x\"},\"train\":[1.5]}",
        ] {
            let err = Request::from_json(doc).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "doc: {doc}");
        }
    }

    #[test]
    fn unknown_response_verdict_is_rejected() {
        let doc = Envelope::new("pgsd-serve", "surprise").to_json();
        assert!(Response::from_json(&doc).is_err());
        let wrong_tool = Envelope::new("pgsd-check", "ok").to_json();
        assert!(Response::from_json(&wrong_tool).is_err());
    }
}
