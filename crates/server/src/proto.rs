//! The request/response vocabulary spoken inside frames.
//!
//! Every frame is a JSON object. Requests carry an `"op"` field
//! (`ping | stats | shutdown | compute | resume`); responses carry
//! `"ok": true|false`. Parsing is strict and bounded: unknown ops, missing
//! fields, wrong types, oversized per-field payloads, and malformed resume
//! tokens all surface as structured [`WireError`]s with stable codes, never
//! as panics.
//!
//! Error codes share the CLI's exit-code taxonomy: `2` usage, `4` parse,
//! `10`–`24` one per [`ReliabilityError`] variant
//! ([`ReliabilityError::code`]), plus server-side codes `5` protocol,
//! `6` overloaded (with a `retry_after_ms` hint), `7` unknown token,
//! `8` shutting down, and `9` internal.

use flowrel_core::ReliabilityError;

use crate::json::{obj, Json};

/// Per-field payload limits, independent of the frame-size cap (a frame may
/// be large because it carries a checkpoint; a *network description* that
/// large is still suspicious).
#[derive(Clone, Copy, Debug)]
pub struct ProtoLimits {
    /// Maximum byte length of an inline `.fnet` network description.
    pub max_net: usize,
    /// Maximum byte length of an inline checkpoint.
    pub max_checkpoint: usize,
}

impl Default for ProtoLimits {
    fn default() -> Self {
        ProtoLimits {
            max_net: 1 << 20,
            max_checkpoint: 32 << 20,
        }
    }
}

/// Wire error codes that do not come from [`ReliabilityError`].
pub mod code {
    /// Malformed request shape (missing/bad fields, unknown op).
    pub const USAGE: u8 = 2;
    /// The inline `.fnet` text failed to parse.
    pub const PARSE: u8 = 4;
    /// Framing/JSON-level protocol violation.
    pub const PROTOCOL: u8 = 5;
    /// Admission control shed the request; retry after the hint.
    pub const OVERLOADED: u8 = 6;
    /// No parked session with the given token.
    pub const UNKNOWN_TOKEN: u8 = 7;
    /// The server is draining and accepts no new work.
    pub const SHUTTING_DOWN: u8 = 8;
    /// The server hit an unexpected internal failure (e.g. a caught panic).
    pub const INTERNAL: u8 = 9;
}

/// A structured error reply.
#[derive(Clone, Debug, PartialEq)]
pub struct WireError {
    /// Stable small-integer code (see [`code`] and [`ReliabilityError::code`]).
    pub code: u8,
    /// Machine-readable kind slug (`"usage"`, `"overloaded"`, …).
    pub kind: String,
    /// Human-readable description.
    pub message: String,
    /// For `overloaded`: how long the client should wait before retrying.
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// Builds an error with no retry hint.
    pub fn new(code: u8, kind: &str, message: impl Into<String>) -> Self {
        WireError {
            code,
            kind: kind.to_string(),
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// A `usage` error (malformed request shape).
    pub fn usage(message: impl Into<String>) -> Self {
        WireError::new(code::USAGE, "usage", message)
    }

    /// A `protocol` error (framing/JSON violation).
    pub fn protocol(message: impl Into<String>) -> Self {
        WireError::new(code::PROTOCOL, "protocol", message)
    }

    /// Maps a [`ReliabilityError`] onto the shared taxonomy.
    pub fn reliability(e: &ReliabilityError) -> Self {
        WireError::new(e.code(), "reliability", e.to_string())
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} {}] {}", self.code, self.kind, self.message)?;
        if let Some(ms) = self.retry_after_ms {
            write!(f, " (retry after {ms} ms)")?;
        }
        Ok(())
    }
}

impl std::error::Error for WireError {}

/// Which algorithm a compute request asks for. A deliberately small subset
/// of the CLI's strategy surface — the daemon's job is serving, not
/// experimentation.
#[derive(Clone, Debug, PartialEq)]
pub enum StrategySpec {
    /// Let the calculator pick (bottleneck planner, fallbacks).
    Auto,
    /// Exhaustive enumeration.
    Naive,
    /// Conditioning with flow-based pruning.
    Factoring,
    /// Monte-Carlo estimation.
    Mc {
        /// RNG seed.
        seed: u64,
        /// Sample allowance.
        samples: u64,
    },
}

impl StrategySpec {
    /// Stable name used as the result-cache key and in parked sessions.
    pub fn key(&self) -> String {
        match self {
            StrategySpec::Auto => "auto".into(),
            StrategySpec::Naive => "naive".into(),
            StrategySpec::Factoring => "factoring".into(),
            StrategySpec::Mc { seed, samples } => format!("mc:{seed}:{samples}"),
        }
    }

    /// Parses the parked-session / wire spelling produced by [`Self::key`].
    pub fn from_key(key: &str) -> Option<StrategySpec> {
        match key {
            "auto" => Some(StrategySpec::Auto),
            "naive" => Some(StrategySpec::Naive),
            "factoring" => Some(StrategySpec::Factoring),
            _ => {
                let rest = key.strip_prefix("mc:")?;
                let (seed, samples) = rest.split_once(':')?;
                Some(StrategySpec::Mc {
                    seed: seed.parse().ok()?,
                    samples: samples.parse().ok()?,
                })
            }
        }
    }
}

/// A compute (or inline-resume) request.
#[derive(Clone, Debug, PartialEq)]
pub struct ComputeRequest {
    /// The `.fnet` network + demand description.
    pub net: String,
    /// Requested strategy.
    pub strategy: StrategySpec,
    /// Client deadline for this request, in milliseconds. The server clamps
    /// it to its own maximum and applies a default when absent.
    pub timeout_ms: Option<u64>,
    /// Configuration (or sample) allowance for this request.
    pub max_configs: Option<u64>,
    /// Opt into hybrid exact/statistical plans: leaves whose exact cost
    /// exceeds their budget share may be sampled, and the answer (plus any
    /// cached statistical answer) is labelled rather than refused.
    pub hybrid: bool,
    /// Inline `flowrel-checkpoint v1` text to resume from.
    pub checkpoint: Option<String>,
}

/// A parsed request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Heartbeat/keepalive; also legal mid-compute.
    Ping,
    /// Server statistics snapshot.
    Stats,
    /// Begin graceful shutdown (drain, park, exit).
    Shutdown,
    /// Run a reliability calculation.
    Compute(ComputeRequest),
    /// Resume a parked session by token.
    Resume {
        /// The token minted when the session was parked.
        token: String,
    },
}

/// Longest resume token the protocol accepts (tokens are hex-and-dash; the
/// bound keeps them safe to embed in file names).
pub const MAX_TOKEN_LEN: usize = 64;

/// Whether `token` is shaped like a token this server could have minted
/// (lowercase hex and dashes only — in particular no path separators, so it
/// is safe to use as a file-name component).
pub fn valid_token(token: &str) -> bool {
    !token.is_empty()
        && token.len() <= MAX_TOKEN_LEN
        && token
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase() || c == '-')
}

impl Request {
    /// Parses a request frame under the given per-field limits.
    pub fn from_json(v: &Json, limits: &ProtoLimits) -> Result<Request, WireError> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| WireError::usage("missing or non-string 'op' field"))?;
        match op {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "resume" => {
                let token = v
                    .get("token")
                    .and_then(Json::as_str)
                    .ok_or_else(|| WireError::usage("resume: missing 'token'"))?;
                if !valid_token(token) {
                    return Err(WireError::usage("resume: malformed token"));
                }
                Ok(Request::Resume {
                    token: token.to_string(),
                })
            }
            "compute" => {
                let net = v
                    .get("net")
                    .and_then(Json::as_str)
                    .ok_or_else(|| WireError::usage("compute: missing 'net'"))?;
                if net.len() > limits.max_net {
                    return Err(WireError::usage(format!(
                        "compute: 'net' exceeds the {}-byte limit",
                        limits.max_net
                    )));
                }
                let strategy = match v.get("strategy") {
                    None => StrategySpec::Auto,
                    Some(Json::Str(s)) => match s.as_str() {
                        "auto" => StrategySpec::Auto,
                        "naive" => StrategySpec::Naive,
                        "factoring" => StrategySpec::Factoring,
                        "mc" => StrategySpec::Mc {
                            seed: opt_u64(v, "seed")?.unwrap_or(0),
                            samples: opt_u64(v, "samples")?.unwrap_or(1_000_000),
                        },
                        other => {
                            return Err(WireError::usage(format!(
                                "compute: unknown strategy '{other}'"
                            )))
                        }
                    },
                    Some(_) => return Err(WireError::usage("compute: non-string 'strategy'")),
                };
                let checkpoint = match v.get("checkpoint") {
                    None => None,
                    Some(Json::Str(s)) => {
                        if s.len() > limits.max_checkpoint {
                            return Err(WireError::usage(format!(
                                "compute: 'checkpoint' exceeds the {}-byte limit",
                                limits.max_checkpoint
                            )));
                        }
                        Some(s.clone())
                    }
                    Some(_) => return Err(WireError::usage("compute: non-string 'checkpoint'")),
                };
                let hybrid = match v.get("hybrid") {
                    None => false,
                    Some(Json::Bool(b)) => *b,
                    Some(_) => return Err(WireError::usage("compute: non-boolean 'hybrid'")),
                };
                Ok(Request::Compute(ComputeRequest {
                    net: net.to_string(),
                    strategy,
                    timeout_ms: opt_u64(v, "timeout_ms")?,
                    max_configs: opt_u64(v, "max_configs")?,
                    hybrid,
                    checkpoint,
                }))
            }
            other => Err(WireError::usage(format!("unknown op '{other}'"))),
        }
    }

    /// Renders this request as a frame payload (used by the client library).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => obj([("op", Json::Str("ping".into()))]),
            Request::Stats => obj([("op", Json::Str("stats".into()))]),
            Request::Shutdown => obj([("op", Json::Str("shutdown".into()))]),
            Request::Resume { token } => obj([
                ("op", Json::Str("resume".into())),
                ("token", Json::Str(token.clone())),
            ]),
            Request::Compute(c) => {
                let mut pairs = vec![
                    ("op".to_string(), Json::Str("compute".into())),
                    ("net".to_string(), Json::Str(c.net.clone())),
                ];
                match &c.strategy {
                    StrategySpec::Auto => {}
                    StrategySpec::Naive => {
                        pairs.push(("strategy".into(), Json::Str("naive".into())))
                    }
                    StrategySpec::Factoring => {
                        pairs.push(("strategy".into(), Json::Str("factoring".into())))
                    }
                    StrategySpec::Mc { seed, samples } => {
                        pairs.push(("strategy".into(), Json::Str("mc".into())));
                        pairs.push(("seed".into(), Json::Num(*seed as f64)));
                        pairs.push(("samples".into(), Json::Num(*samples as f64)));
                    }
                }
                if let Some(ms) = c.timeout_ms {
                    pairs.push(("timeout_ms".into(), Json::Num(ms as f64)));
                }
                if let Some(n) = c.max_configs {
                    pairs.push(("max_configs".into(), Json::Num(n as f64)));
                }
                if c.hybrid {
                    pairs.push(("hybrid".into(), Json::Bool(true)));
                }
                if let Some(ck) = &c.checkpoint {
                    pairs.push(("checkpoint".into(), Json::Str(ck.clone())));
                }
                Json::Obj(pairs)
            }
        }
    }
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, WireError> {
    match v.get(key) {
        None => Ok(None),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| WireError::usage(format!("'{key}' must be a non-negative integer"))),
    }
}

/// A server statistics snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Currently open client sessions.
    pub active_sessions: u64,
    /// Requests currently inside the worker pool.
    pub active_requests: u64,
    /// Compute and resume requests answered since start with anything but
    /// an overloaded refusal: complete, partial, cache hit or error. Each
    /// such request counts in exactly one of `served` and `shed`.
    pub served: u64,
    /// Compute and resume requests refused by admission control (code 6)
    /// since start.
    pub shed: u64,
    /// Protocol-level errors (malformed frames etc.) since start.
    pub protocol_errors: u64,
    /// Compute panics caught and converted to internal errors since start.
    pub panics: u64,
    /// Parked (resumable) sessions currently held.
    pub parked: u64,
    /// Instance-cache hits since start.
    pub cache_hits: u64,
    /// Instance-cache misses since start.
    pub cache_misses: u64,
    /// Result-cache hits (whole answers served from memory) since start.
    pub result_hits: u64,
    /// Result-cache hits keyed by the raw instance fingerprint.
    pub result_hits_raw: u64,
    /// Result-cache hits keyed by the post-reduction fingerprint — distinct
    /// raw instances unified by the structural reduction.
    pub result_hits_reduced: u64,
    /// Whether the server is draining.
    pub shutting_down: bool,
}

/// A parsed response frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Stats`].
    Stats(StatsSnapshot),
    /// Reply to [`Request::Shutdown`]: the drain has begun.
    ShuttingDown,
    /// A finished calculation.
    Complete {
        /// The reliability value.
        reliability: f64,
        /// Which algorithm produced it.
        algorithm: String,
        /// Whether it was served from the result cache.
        cached: bool,
        /// `true` for exact enumeration, `false` when any part of the
        /// answer was sampled (hybrid plan leaves, Monte-Carlo strategy).
        certified: bool,
    },
    /// A budget-interrupted calculation: certified bounds plus resume state.
    Partial {
        /// Certified (or, for `mc`/hybrid, statistical) lower bound.
        r_low: f64,
        /// Certified (or statistical) upper bound.
        r_high: f64,
        /// Fraction of the work done, in `[0, 1]`.
        explored: f64,
        /// Which algorithm was interrupted.
        algorithm: String,
        /// Resume token; the session is parked server-side under it.
        token: String,
        /// The full `flowrel-checkpoint v1` text (client-side resume path).
        checkpoint: String,
        /// Whether the bounds are certified (exact enumeration so far) or
        /// statistical (some part was sampled).
        certified: bool,
    },
    /// A structured failure.
    Error(WireError),
}

impl Response {
    /// Renders this response as a frame payload.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Pong => obj([("ok", Json::Bool(true)), ("op", Json::Str("pong".into()))]),
            Response::ShuttingDown => obj([
                ("ok", Json::Bool(true)),
                ("op", Json::Str("shutting-down".into())),
            ]),
            Response::Stats(s) => obj([
                ("ok", Json::Bool(true)),
                ("op", Json::Str("stats".into())),
                ("active_sessions", Json::Num(s.active_sessions as f64)),
                ("active_requests", Json::Num(s.active_requests as f64)),
                ("served", Json::Num(s.served as f64)),
                ("shed", Json::Num(s.shed as f64)),
                ("protocol_errors", Json::Num(s.protocol_errors as f64)),
                ("panics", Json::Num(s.panics as f64)),
                ("parked", Json::Num(s.parked as f64)),
                ("cache_hits", Json::Num(s.cache_hits as f64)),
                ("cache_misses", Json::Num(s.cache_misses as f64)),
                ("result_hits", Json::Num(s.result_hits as f64)),
                ("result_hits_raw", Json::Num(s.result_hits_raw as f64)),
                (
                    "result_hits_reduced",
                    Json::Num(s.result_hits_reduced as f64),
                ),
                ("shutting_down", Json::Bool(s.shutting_down)),
            ]),
            Response::Complete {
                reliability,
                algorithm,
                cached,
                certified,
            } => obj([
                ("ok", Json::Bool(true)),
                ("status", Json::Str("complete".into())),
                ("reliability", Json::Num(*reliability)),
                ("algorithm", Json::Str(algorithm.clone())),
                ("cached", Json::Bool(*cached)),
                ("certified", Json::Bool(*certified)),
            ]),
            Response::Partial {
                r_low,
                r_high,
                explored,
                algorithm,
                token,
                checkpoint,
                certified,
            } => obj([
                ("ok", Json::Bool(true)),
                ("status", Json::Str("partial".into())),
                ("r_low", Json::Num(*r_low)),
                ("r_high", Json::Num(*r_high)),
                ("explored", Json::Num(*explored)),
                ("algorithm", Json::Str(algorithm.clone())),
                ("token", Json::Str(token.clone())),
                ("checkpoint", Json::Str(checkpoint.clone())),
                ("certified", Json::Bool(*certified)),
            ]),
            Response::Error(e) => {
                let mut pairs = vec![
                    ("ok".to_string(), Json::Bool(false)),
                    ("code".to_string(), Json::Num(e.code as f64)),
                    ("kind".to_string(), Json::Str(e.kind.clone())),
                    ("message".to_string(), Json::Str(e.message.clone())),
                ];
                if let Some(ms) = e.retry_after_ms {
                    pairs.push(("retry_after_ms".into(), Json::Num(ms as f64)));
                }
                Json::Obj(pairs)
            }
        }
    }

    /// Parses a response frame (used by the client library).
    pub fn from_json(v: &Json) -> Result<Response, WireError> {
        let ok = v
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| WireError::protocol("reply has no boolean 'ok'"))?;
        if !ok {
            let code = v.get("code").and_then(Json::as_u64).unwrap_or(9) as u8;
            let kind = v
                .get("kind")
                .and_then(Json::as_str)
                .unwrap_or("internal")
                .to_string();
            let message = v
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            return Ok(Response::Error(WireError {
                code,
                kind,
                message,
                retry_after_ms: v.get("retry_after_ms").and_then(Json::as_u64),
            }));
        }
        if let Some(op) = v.get("op").and_then(Json::as_str) {
            return match op {
                "pong" => Ok(Response::Pong),
                "shutting-down" => Ok(Response::ShuttingDown),
                "stats" => {
                    let n = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
                    Ok(Response::Stats(StatsSnapshot {
                        active_sessions: n("active_sessions"),
                        active_requests: n("active_requests"),
                        served: n("served"),
                        shed: n("shed"),
                        protocol_errors: n("protocol_errors"),
                        panics: n("panics"),
                        parked: n("parked"),
                        cache_hits: n("cache_hits"),
                        cache_misses: n("cache_misses"),
                        result_hits: n("result_hits"),
                        result_hits_raw: n("result_hits_raw"),
                        result_hits_reduced: n("result_hits_reduced"),
                        shutting_down: v
                            .get("shutting_down")
                            .and_then(Json::as_bool)
                            .unwrap_or(false),
                    }))
                }
                other => Err(WireError::protocol(format!("unknown reply op '{other}'"))),
            };
        }
        match v.get("status").and_then(Json::as_str) {
            Some("complete") => Ok(Response::Complete {
                reliability: v
                    .get("reliability")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| WireError::protocol("complete reply lacks 'reliability'"))?,
                algorithm: v
                    .get("algorithm")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
                certified: v.get("certified").and_then(Json::as_bool).unwrap_or(true),
            }),
            Some("partial") => Ok(Response::Partial {
                r_low: v
                    .get("r_low")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| WireError::protocol("partial reply lacks 'r_low'"))?,
                r_high: v
                    .get("r_high")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| WireError::protocol("partial reply lacks 'r_high'"))?,
                explored: v.get("explored").and_then(Json::as_f64).unwrap_or(0.0),
                algorithm: v
                    .get("algorithm")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                token: v
                    .get("token")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                checkpoint: v
                    .get("checkpoint")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                certified: v.get("certified").and_then(Json::as_bool).unwrap_or(true),
            }),
            _ => Err(WireError::protocol("reply has neither 'op' nor 'status'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Resume {
                token: "0123abcd-9".into(),
            },
            Request::Compute(ComputeRequest {
                net: "directed\nnodes 2\nedge 0 1 1 0.1\ndemand 0 1 1\n".into(),
                strategy: StrategySpec::Mc {
                    seed: 7,
                    samples: 1000,
                },
                timeout_ms: Some(250),
                max_configs: None,
                hybrid: false,
                checkpoint: Some("flowrel-checkpoint v1\n…".into()),
            }),
            Request::Compute(ComputeRequest {
                net: "directed\nnodes 2\nedge 0 1 1 0.1\ndemand 0 1 1\n".into(),
                strategy: StrategySpec::Auto,
                timeout_ms: None,
                max_configs: Some(4096),
                hybrid: true,
                checkpoint: None,
            }),
        ];
        for r in reqs {
            let back = Request::from_json(&r.to_json(), &ProtoLimits::default()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = [
            Response::Pong,
            Response::ShuttingDown,
            Response::Stats(StatsSnapshot {
                active_sessions: 3,
                served: 17,
                result_hits: 5,
                result_hits_raw: 3,
                result_hits_reduced: 2,
                shutting_down: true,
                ..Default::default()
            }),
            Response::Complete {
                reliability: 0.999125,
                algorithm: "auto:bottleneck".into(),
                cached: true,
                certified: true,
            },
            Response::Complete {
                reliability: 0.42,
                algorithm: "plan+mc".into(),
                cached: false,
                certified: false,
            },
            Response::Partial {
                r_low: 0.25,
                r_high: 0.875,
                explored: 0.5,
                algorithm: "naive".into(),
                token: "deadbeef-1".into(),
                checkpoint: "flowrel-checkpoint v1\nkind naive\n".into(),
                certified: true,
            },
            Response::Error(WireError {
                code: code::OVERLOADED,
                kind: "overloaded".into(),
                message: "queue full".into(),
                retry_after_ms: Some(500),
            }),
        ];
        for r in resps {
            let back = Response::from_json(&r.to_json()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn legacy_complete_reply_without_certified_parses_as_certified() {
        // Replies from a pre-hybrid server carry no 'certified' field; every
        // answer it produced was exact, so the default must be true.
        let legacy = obj([
            ("ok", Json::Bool(true)),
            ("status", Json::Str("complete".into())),
            ("reliability", Json::Num(0.5)),
            ("algorithm", Json::Str("naive".into())),
        ]);
        match Response::from_json(&legacy).unwrap() {
            Response::Complete { certified, .. } => assert!(certified),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        let limits = ProtoLimits::default();
        let cases = [
            obj([]),
            obj([("op", Json::Num(1.0))]),
            obj([("op", Json::Str("frobnicate".into()))]),
            obj([("op", Json::Str("compute".into()))]),
            obj([
                ("op", Json::Str("compute".into())),
                ("net", Json::Str("x".into())),
                ("timeout_ms", Json::Num(-5.0)),
            ]),
            obj([
                ("op", Json::Str("resume".into())),
                ("token", Json::Str("../../etc/passwd".into())),
            ]),
            obj([
                ("op", Json::Str("resume".into())),
                ("token", Json::Str("ABCDEF".into())),
            ]),
        ];
        for c in cases {
            let e = Request::from_json(&c, &limits).unwrap_err();
            assert_eq!(e.code, code::USAGE, "{c:?}");
        }
    }

    #[test]
    fn field_limits_trip() {
        let limits = ProtoLimits {
            max_net: 8,
            max_checkpoint: 8,
        };
        let big_net = obj([
            ("op", Json::Str("compute".into())),
            ("net", Json::Str("directed\nnodes 2\n".into())),
        ]);
        assert!(Request::from_json(&big_net, &limits)
            .unwrap_err()
            .message
            .contains("byte limit"));
    }

    #[test]
    fn token_validation() {
        assert!(valid_token("0f3a-12"));
        assert!(!valid_token(""));
        assert!(!valid_token("ABC"));
        assert!(!valid_token("a/b"));
        assert!(!valid_token(&"a".repeat(100)));
    }
}
