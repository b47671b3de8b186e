//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! Every request is one JSON object on one line with a `cmd` field; every
//! response is one JSON object on one line with a `status` field (`"ok"` or
//! `"error"`). Errors carry a machine-readable `kind` mapped from the
//! [`ModelError`] severity taxonomy, so clients can distinguish bad requests
//! from recoverable modeling failures from fatal ones without string
//! matching.
//!
//! ```text
//! → {"cmd":"model","set":{...},"timeout_ms":5000,"id":"k1"}
//! ← {"status":"ok","id":"k1","outcome":{...}}
//! → {"cmd":"batch","sets":[{...},{...}]}
//! ← {"status":"ok","results":[{"status":"ok",...},{"status":"error",...}]}
//! → {"cmd":"health"}       → {"cmd":"stats"}       → {"cmd":"shutdown"}
//! ```

use nrpm_core::adaptive::{AdaptiveOutcome, ModelerChoice};
use nrpm_extrap::{MeasurementSet, ModelError, Severity};
use serde::{Deserialize, Serialize, Value};

/// Hard cap on the length of one request line; a longer line is answered
/// with one `usage` error before any parsing happens, and the connection
/// is closed.
pub const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Hard cap on JSON nesting depth. The vendored `serde_json` parser is
/// recursive, so a hostile `[[[[…` line would otherwise exhaust the stack;
/// a cheap bracket scan rejects such lines before any parsing happens.
pub const MAX_JSON_DEPTH: usize = 64;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Model one kernel's measurements.
    Model {
        /// The kernel's measurement set.
        set: MeasurementSet,
        /// Evaluate the selected model at this point.
        at: Option<Vec<f64>>,
        /// Per-request deadline override (milliseconds).
        timeout_ms: Option<u64>,
        /// Client-chosen correlation id, echoed in the response.
        id: Option<String>,
        /// Retry ordinal set by retrying clients (`0`/absent = first try).
        /// The server counts `attempt >= 1` as `retries_observed`.
        attempt: Option<u64>,
        /// Tenant/workload tag. Tagged requests feed the adaptation
        /// engine's per-key noise accumulation, so retraining can mirror
        /// the dominant live workload.
        tenant: Option<String>,
    },
    /// Model several kernels, coalescing their DNN forward passes into one
    /// batched inference.
    Batch {
        /// One measurement set per kernel.
        sets: Vec<MeasurementSet>,
        /// Per-request deadline override (milliseconds).
        timeout_ms: Option<u64>,
        /// Client-chosen correlation id, echoed in the response.
        id: Option<String>,
        /// Retry ordinal set by retrying clients (`0`/absent = first try).
        attempt: Option<u64>,
    },
    /// Liveness probe.
    Health,
    /// Metrics snapshot.
    Stats,
    /// Begin a graceful drain: stop accepting, finish in-flight work, exit.
    Shutdown,
    /// Test-only fault hook: makes the worker that dequeues it die abruptly,
    /// exercising the supervisor's respawn path. Refused with a `usage`
    /// error unless the server was started with `debug_hooks` enabled.
    CrashWorker,
    /// Asks the adaptation engine to run a retrain cycle at its next tick
    /// instead of waiting for the interval (and regardless of how few
    /// observations accumulated). Refused unless the engine is running.
    ForceAdapt,
    /// Test-only fault hook: queues one adaptation-specific fault
    /// (`kill_retrain`, `corrupt_candidate`, `regress_swap`,
    /// `kill_commit`) consumed by the engine's next cycle. Refused unless
    /// the server was started with `debug_hooks` and the engine is
    /// running.
    AdaptFault {
        /// The fault's wire name.
        kind: String,
    },
}

/// Machine-readable classification of an error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid JSON or not a valid request object.
    Parse,
    /// The request was well-formed but semantically unusable
    /// (unknown command, missing field, oversized payload).
    Usage,
    /// A recoverable modeling failure ([`Severity::Recoverable`]) — the
    /// input data cannot support a model, but the server is healthy.
    Recoverable,
    /// A fatal modeling failure ([`Severity::Fatal`]) — the input data is
    /// structurally broken (e.g. non-positive coordinates).
    Fatal,
    /// The request missed its deadline.
    Timeout,
    /// The server shed the request because its admission queue (or its
    /// connection table) is full. Retryable after backing off.
    Overloaded,
    /// The server is draining and no longer accepts modeling work.
    ShuttingDown,
}

impl ErrorKind {
    /// The wire name of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Usage => "usage",
            ErrorKind::Recoverable => "recoverable",
            ErrorKind::Fatal => "fatal",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting_down",
        }
    }

    /// Maps a modeling error onto its wire classification.
    pub fn of_model_error(e: &ModelError) -> Self {
        match e.severity() {
            Severity::Recoverable => ErrorKind::Recoverable,
            Severity::Fatal => ErrorKind::Fatal,
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn opt_str(v: &Value, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("`{key}` must be a string")),
    }
}

fn opt_point(v: &Value, key: &str) -> Result<Option<Vec<f64>>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => {
            let seq = x
                .as_seq()
                .ok_or_else(|| format!("`{key}` must be an array"))?;
            seq.iter()
                .map(|e| {
                    e.as_f64()
                        .filter(|f| f.is_finite())
                        .ok_or_else(|| format!("`{key}` must hold finite numbers"))
                })
                .collect::<Result<Vec<f64>, String>>()
                .map(Some)
        }
    }
}

/// `true` when `line`'s bracket nesting (outside string literals) exceeds
/// `max` — a linear scan, safe to run on hostile input of any size.
fn nesting_exceeds(line: &str, max: usize) -> bool {
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for b in line.bytes() {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
        } else {
            match b {
                b'"' => in_string = true,
                b'{' | b'[' => {
                    depth += 1;
                    if depth > max {
                        return true;
                    }
                }
                b'}' | b']' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
    }
    false
}

/// Parses one request line into JSON, refusing nesting deeper than
/// [`MAX_JSON_DEPTH`] before the (recursive) parser sees it. Front ends
/// with a vocabulary of their own (the cluster router) inspect the value,
/// then hand it to [`Request::from_value`].
pub fn parse_json(line: &str) -> Result<Value, (ErrorKind, String)> {
    if nesting_exceeds(line, MAX_JSON_DEPTH) {
        return Err((
            ErrorKind::Parse,
            format!("JSON nesting exceeds {MAX_JSON_DEPTH} levels"),
        ));
    }
    serde_json::from_str(line).map_err(|e| (ErrorKind::Parse, format!("invalid JSON: {e}")))
}

impl Request {
    /// Parses one request line. `Err((kind, message))` distinguishes JSON
    /// breakage ([`ErrorKind::Parse`]) from semantic misuse
    /// ([`ErrorKind::Usage`]).
    pub fn parse(line: &str) -> Result<Request, (ErrorKind, String)> {
        Request::from_value(&parse_json(line)?)
    }

    /// Reads a request out of an already parsed line (see [`parse_json`]).
    pub fn from_value(value: &Value) -> Result<Request, (ErrorKind, String)> {
        if value.as_map().is_none() {
            return Err((ErrorKind::Parse, "request must be a JSON object".into()));
        }
        let cmd = value
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or((ErrorKind::Usage, "missing string field `cmd`".to_string()))?;
        let usage = |m: String| (ErrorKind::Usage, m);
        match cmd {
            "model" => {
                let set_value = value
                    .get("set")
                    .ok_or_else(|| usage("`model` needs a `set` object".into()))?;
                let set = MeasurementSet::from_value(set_value)
                    .map_err(|e| usage(format!("bad `set`: {e}")))?;
                Ok(Request::Model {
                    set,
                    at: opt_point(value, "at").map_err(usage)?,
                    timeout_ms: opt_u64(value, "timeout_ms").map_err(usage)?,
                    id: opt_str(value, "id").map_err(usage)?,
                    attempt: opt_u64(value, "attempt").map_err(usage)?,
                    tenant: opt_str(value, "tenant").map_err(usage)?,
                })
            }
            "batch" => {
                let seq = value
                    .get("sets")
                    .and_then(Value::as_seq)
                    .ok_or_else(|| usage("`batch` needs a `sets` array".into()))?;
                if seq.is_empty() {
                    return Err(usage("`sets` must not be empty".into()));
                }
                let sets = seq
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        MeasurementSet::from_value(v)
                            .map_err(|e| usage(format!("bad `sets[{i}]`: {e}")))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::Batch {
                    sets,
                    timeout_ms: opt_u64(value, "timeout_ms").map_err(usage)?,
                    id: opt_str(value, "id").map_err(usage)?,
                    attempt: opt_u64(value, "attempt").map_err(usage)?,
                })
            }
            "health" => Ok(Request::Health),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "crash_worker" => Ok(Request::CrashWorker),
            "force_adapt" => Ok(Request::ForceAdapt),
            "adapt_fault" => {
                let kind = opt_str(value, "kind")
                    .map_err(usage)?
                    .ok_or_else(|| usage("`adapt_fault` needs a `kind` string".into()))?;
                Ok(Request::AdaptFault { kind })
            }
            other => Err(usage(format!("unknown command `{other}`"))),
        }
    }

    /// Serializes this request to its one-line wire form (client side).
    pub fn to_line(&self) -> String {
        let mut fields: Vec<(String, Value)> = Vec::new();
        let push_common = |fields: &mut Vec<(String, Value)>,
                           timeout_ms: &Option<u64>,
                           id: &Option<String>,
                           attempt: &Option<u64>| {
            if let Some(t) = timeout_ms {
                fields.push(("timeout_ms".into(), Value::U64(*t)));
            }
            if let Some(i) = id {
                fields.push(("id".into(), Value::Str(i.clone())));
            }
            if let Some(a) = attempt {
                fields.push(("attempt".into(), Value::U64(*a)));
            }
        };
        match self {
            Request::Model {
                set,
                at,
                timeout_ms,
                id,
                attempt,
                tenant,
            } => {
                fields.push(("cmd".into(), Value::Str("model".into())));
                fields.push(("set".into(), set.to_value()));
                if let Some(point) = at {
                    fields.push((
                        "at".into(),
                        Value::Seq(point.iter().map(|&x| Value::F64(x)).collect()),
                    ));
                }
                if let Some(t) = tenant {
                    fields.push(("tenant".into(), Value::Str(t.clone())));
                }
                push_common(&mut fields, timeout_ms, id, attempt);
            }
            Request::Batch {
                sets,
                timeout_ms,
                id,
                attempt,
            } => {
                fields.push(("cmd".into(), Value::Str("batch".into())));
                fields.push((
                    "sets".into(),
                    Value::Seq(sets.iter().map(|s| s.to_value()).collect()),
                ));
                push_common(&mut fields, timeout_ms, id, attempt);
            }
            Request::Health => fields.push(("cmd".into(), Value::Str("health".into()))),
            Request::Stats => fields.push(("cmd".into(), Value::Str("stats".into()))),
            Request::Shutdown => fields.push(("cmd".into(), Value::Str("shutdown".into()))),
            Request::CrashWorker => fields.push(("cmd".into(), Value::Str("crash_worker".into()))),
            Request::ForceAdapt => fields.push(("cmd".into(), Value::Str("force_adapt".into()))),
            Request::AdaptFault { kind } => {
                fields.push(("cmd".into(), Value::Str("adapt_fault".into())));
                fields.push(("kind".into(), Value::Str(kind.clone())));
            }
        }
        serde_json::to_string(&Value::Map(fields)).expect("request serialization is infallible")
    }
}

/// The wire name of a modeler choice.
pub fn choice_name(choice: ModelerChoice) -> &'static str {
    match choice {
        ModelerChoice::Regression => "regression",
        ModelerChoice::Dnn => "dnn",
        ModelerChoice::ConstantMean => "constant_mean",
    }
}

/// Renders an adaptive outcome as the response `outcome` object.
pub fn outcome_value(outcome: &AdaptiveOutcome, at: Option<&[f64]>) -> Value {
    let mut fields: Vec<(String, Value)> = vec![
        ("model".into(), Value::Str(outcome.result.model.to_string())),
        (
            "growth".into(),
            Value::Str(outcome.result.model.asymptotic_string()),
        ),
        (
            "choice".into(),
            Value::Str(choice_name(outcome.choice).into()),
        ),
        ("cv_smape".into(), Value::F64(outcome.result.cv_smape)),
        ("fit_smape".into(), Value::F64(outcome.result.fit_smape)),
        ("noise_mean".into(), Value::F64(outcome.noise.mean())),
        ("threshold".into(), Value::F64(outcome.threshold)),
        (
            "points_dropped".into(),
            Value::U64(outcome.quality.points_dropped as u64),
        ),
        (
            "repairs".into(),
            Value::U64((outcome.quality.dropped() + outcome.quality.clamped) as u64),
        ),
    ];
    if let Some(point) = at {
        fields.push((
            "prediction".into(),
            Value::F64(outcome.result.model.evaluate(point)),
        ));
    }
    Value::Map(fields)
}

/// Builds an `{"status":"ok", ...}` response line from extra fields.
pub fn ok_line(id: Option<&str>, fields: Vec<(String, Value)>) -> String {
    let mut all: Vec<(String, Value)> = vec![("status".into(), Value::Str("ok".into()))];
    if let Some(id) = id {
        all.push(("id".into(), Value::Str(id.into())));
    }
    all.extend(fields);
    serde_json::to_string(&Value::Map(all)).expect("response serialization is infallible")
}

/// Builds an `{"status":"error", ...}` response line.
pub fn error_line(id: Option<&str>, kind: ErrorKind, message: &str) -> String {
    let mut all: Vec<(String, Value)> = vec![("status".into(), Value::Str("error".into()))];
    if let Some(id) = id {
        all.push(("id".into(), Value::Str(id.into())));
    }
    all.push(("kind".into(), Value::Str(kind.as_str().into())));
    all.push(("message".into(), Value::Str(message.into())));
    serde_json::to_string(&Value::Map(all)).expect("response serialization is infallible")
}

/// The per-kernel entry inside a batch response's `results` array.
pub fn batch_entry(result: &Result<AdaptiveOutcome, ModelError>) -> Value {
    match result {
        Ok(outcome) => {
            let mut fields: Vec<(String, Value)> = vec![("status".into(), Value::Str("ok".into()))];
            fields.push(("outcome".into(), outcome_value(outcome, None)));
            Value::Map(fields)
        }
        Err(e) => Value::Map(vec![
            ("status".into(), Value::Str("error".into())),
            (
                "kind".into(),
                Value::Str(ErrorKind::of_model_error(e).as_str().into()),
            ),
            ("message".into(), Value::Str(e.to_string())),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_set() -> MeasurementSet {
        let mut set = MeasurementSet::new(1);
        for &x in &[4.0, 8.0, 16.0, 32.0] {
            set.add_repetitions(&[x], &[2.0 * x, 2.1 * x]);
        }
        set
    }

    #[test]
    fn request_lines_round_trip() {
        let requests = vec![
            Request::Model {
                set: linear_set(),
                at: Some(vec![128.0]),
                timeout_ms: Some(2500),
                id: Some("k1".into()),
                attempt: Some(2),
                tenant: Some("team-a".into()),
            },
            Request::Model {
                set: linear_set(),
                at: None,
                timeout_ms: None,
                id: None,
                attempt: None,
                tenant: None,
            },
            Request::Batch {
                sets: vec![linear_set(), linear_set()],
                timeout_ms: None,
                id: None,
                attempt: None,
            },
            Request::Health,
            Request::Stats,
            Request::Shutdown,
            Request::CrashWorker,
            Request::ForceAdapt,
            Request::AdaptFault {
                kind: "kill_retrain".into(),
            },
        ];
        for request in requests {
            let line = request.to_line();
            assert!(!line.contains('\n'), "one line per request: {line}");
            assert_eq!(Request::parse(&line).unwrap(), request);
        }
    }

    #[test]
    fn malformed_lines_are_parse_errors() {
        for line in ["", "{", "null", "42", "[1,2]", "\"cmd\""] {
            let (kind, _) = Request::parse(line).unwrap_err();
            assert_eq!(kind, ErrorKind::Parse, "line: {line:?}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_before_parsing() {
        // Far past the recursion a stack could absorb — the guard must trip
        // on the linear scan, not inside the recursive parser.
        let bomb = "[".repeat(200_000);
        let (kind, message) = Request::parse(&bomb).unwrap_err();
        assert_eq!(kind, ErrorKind::Parse);
        assert!(message.contains("nesting"), "{message}");

        // Nesting inside string literals is payload, not structure.
        let fake = format!(r#"{{"cmd":"frobnicate","x":"{}"}}"#, "[".repeat(500));
        let (kind, _) = Request::parse(&fake).unwrap_err();
        assert_eq!(kind, ErrorKind::Usage, "string brackets must not count");

        // Just under the cap still parses (to a usage error, not a parse one).
        let deep_ok = format!(
            "{}1{}",
            "[".repeat(MAX_JSON_DEPTH - 1),
            "]".repeat(MAX_JSON_DEPTH - 1)
        );
        let (kind, _) = Request::parse(&deep_ok).unwrap_err();
        assert_eq!(kind, ErrorKind::Parse, "array is not a request object");
    }

    #[test]
    fn semantic_misuse_is_a_usage_error() {
        for line in [
            "{}",
            r#"{"cmd":"frobnicate"}"#,
            r#"{"cmd":"model"}"#,
            r#"{"cmd":"model","set":{"wrong":true}}"#,
            r#"{"cmd":"batch","sets":[]}"#,
            r#"{"cmd":"batch","sets":[7]}"#,
            r#"{"cmd":"model","set":{"num_params":1,"measurements":[]},"timeout_ms":-4}"#,
            r#"{"cmd":"model","set":{"num_params":1,"measurements":[]},"at":["x"]}"#,
            r#"{"cmd":"adapt_fault"}"#,
            r#"{"cmd":"adapt_fault","kind":42}"#,
        ] {
            let (kind, _) = Request::parse(line).unwrap_err();
            assert_eq!(kind, ErrorKind::Usage, "line: {line:?}");
        }
    }

    #[test]
    fn integers_past_u64_are_usage_errors() {
        // 2^64 is no u64 literal, so it parses as a float; it must not
        // saturate to u64::MAX.
        let set = serde_json::to_string(&linear_set().to_value()).unwrap();
        let line =
            |timeout: &str| format!(r#"{{"cmd":"model","set":{set},"timeout_ms":{timeout}}}"#);
        let (kind, message) = Request::parse(&line("18446744073709551616")).unwrap_err();
        assert_eq!(kind, ErrorKind::Usage, "{message}");
        assert!(message.contains("timeout_ms"), "{message}");
        let Request::Model { timeout_ms, .. } =
            Request::parse(&line("18446744073709551615")).unwrap()
        else {
            panic!("a model request");
        };
        assert_eq!(timeout_ms, Some(u64::MAX));
    }

    #[test]
    fn error_kinds_map_model_error_severity() {
        assert_eq!(
            ErrorKind::of_model_error(&ModelError::TooFewPoints {
                param: 0,
                found: 2,
                required: 5
            }),
            ErrorKind::Recoverable
        );
        assert_eq!(
            ErrorKind::of_model_error(&ModelError::NoParameters),
            ErrorKind::Fatal
        );
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let ok = ok_line(Some("a"), vec![("x".into(), Value::U64(1))]);
        assert!(ok.starts_with(r#"{"status":"ok","id":"a""#), "{ok}");
        let err = error_line(None, ErrorKind::Timeout, "deadline exceeded");
        let parsed: Value = serde_json::from_str(&err).unwrap();
        assert_eq!(parsed.get("kind").and_then(Value::as_str), Some("timeout"));
        assert_eq!(parsed.get("status").and_then(Value::as_str), Some("error"));
    }

    #[test]
    fn measurement_sets_survive_the_wire_encoding() {
        let set = linear_set();
        let value = set.to_value();
        let text = serde_json::to_string(&value).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(MeasurementSet::from_value(&back).unwrap(), set);
    }
}
