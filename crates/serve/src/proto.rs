//! The serve wire protocol: versioned JSONL requests, deterministic
//! JSONL response rows, and length-delimited socket framing.
//!
//! Every request is one JSON object. Schema version 1:
//!
//! * ingest — `{"v":1,"tenant":"alpha","key":17,"op":"read","bytes":128}`
//! * advise — `{"v":1,"cmd":"advise","tenant":"alpha"}`
//! * status — `{"v":1,"cmd":"status"}`
//! * snapshot — `{"v":1,"cmd":"snapshot"}`
//! * follow — `{"v":1,"cmd":"follow"}` (socket clients only: subscribe
//!   to every emitted row)
//! * shutdown — `{"v":1,"cmd":"shutdown"}`
//!
//! On stdin and in `--replay` files requests are newline-framed; on the
//! Unix socket both directions use 4-byte little-endian length prefixes
//! ([`encode_frame`] / [`FrameBuffer`]), so a row containing a newline
//! can never split a message.
//!
//! Response rows are also single JSON objects (`"row"` keyed), rendered
//! with [`mnemo_telemetry::export::fmt_f64`] so float fields are
//! shortest-roundtrip and the whole transcript is byte-stable across
//! worker counts and replays.

use mnemo::advisor::{DegradedReason, ResilientRecommendation};
use mnemo_stream::Drift;
use mnemo_telemetry::export::fmt_f64;
use std::fmt;
use ycsb::Op;

/// The protocol schema version this build speaks.
pub const PROTO_VERSION: u64 = 1;

/// Frames larger than this are rejected as protocol errors rather than
/// buffered (a corrupt length prefix must not allocate gigabytes).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Typed serve-layer error. [`ServeError::exit_code`] maps onto the CLI
/// exit-code contract: usage 2, I/O 3, protocol/parse 4, engine 5.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Invalid invocation or configuration.
    Usage(String),
    /// The environment failed us: socket, file, or stream I/O.
    Io(String),
    /// A request violated the wire protocol; `line` is 1-based within
    /// the input (or the frame ordinal on a socket).
    Proto {
        /// 1-based input line / frame ordinal.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The advising engine failed.
    Engine(String),
    /// Persisted bytes (a state dump or journal segment) failed
    /// validation; `line` is the 1-based record ordinal within `path`.
    Corrupt {
        /// The file that failed validation.
        path: String,
        /// 1-based record ordinal inside the file (0 = header).
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl ServeError {
    /// Process exit code for this error class.
    pub fn exit_code(&self) -> i32 {
        match self {
            ServeError::Usage(_) => 2,
            ServeError::Io(_) => 3,
            ServeError::Proto { .. } => 4,
            ServeError::Engine(_) => 5,
            ServeError::Corrupt { .. } => 4,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Usage(m) => write!(f, "usage: {m}"),
            ServeError::Io(m) => write!(f, "io: {m}"),
            ServeError::Proto { line, reason } => write!(f, "protocol (line {line}): {reason}"),
            ServeError::Engine(m) => write!(f, "engine: {m}"),
            ServeError::Corrupt { path, line, reason } => {
                write!(f, "corrupt: {path} record {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// The largest record size an ingest event may carry: 512 MiB, the
/// largest value Redis accepts. A tenant's reconstructed pattern holds
/// at most about [`DistinctCounter::max_estimate`] (~2.2e10) keys, each
/// sized at most the largest size ingested, so its byte total stays
/// below `u64::MAX` (2.2e10 × 2^29 ≈ 1.2e19 < 1.8e19). Larger values
/// are rejected at parse time.
///
/// [`DistinctCounter::max_estimate`]: mnemo_stream::DistinctCounter::max_estimate
pub const MAX_EVENT_BYTES: u64 = 1 << 29;

/// One ingest event, schema v1.
#[derive(Debug, Clone, PartialEq)]
pub struct EventV1 {
    /// Tenant the event belongs to.
    pub tenant: String,
    /// Accessed key.
    pub key: u64,
    /// Operation kind.
    pub op: Op,
    /// Record size in bytes.
    pub bytes: u64,
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Feed one access event into a tenant's profiler.
    Ingest(EventV1),
    /// Answer with a fresh advise row for the tenant, immediately.
    Advise {
        /// Tenant to advise.
        tenant: String,
    },
    /// Answer with a daemon status row.
    Status,
    /// Answer with a merged telemetry snapshot row.
    Snapshot,
    /// Subscribe this connection to every emitted row.
    Follow,
    /// Stop the daemon.
    Shutdown,
}

// ---------------------------------------------------------------------
// JSON value + parser
// ---------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their raw token so 64-bit integers
/// round-trip exactly (an `f64` detour would corrupt values above 2^53,
/// e.g. the distinct-counter bitmap words in a state dump).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its raw token.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse exactly one JSON value spanning the whole input.
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object members, or an error naming `what`.
    pub fn obj(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(members) => Ok(members),
            _ => Err(format!("{what} must be an object")),
        }
    }

    /// The array elements, or an error naming `what`.
    pub fn arr(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(format!("{what} must be an array")),
        }
    }

    /// The string value, or an error naming `what`.
    pub fn str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(format!("{what} must be a string")),
        }
    }

    /// The value as a `u64`, or an error naming `what`.
    pub fn u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(raw) => raw
                .parse::<u64>()
                .map_err(|_| format!("{what} must be an unsigned integer, got {raw}")),
            _ => Err(format!("{what} must be a number")),
        }
    }

    /// The value as a `u128`, or an error naming `what`.
    pub fn u128(&self, what: &str) -> Result<u128, String> {
        match self {
            Json::Num(raw) => raw
                .parse::<u128>()
                .map_err(|_| format!("{what} must be an unsigned integer, got {raw}")),
            _ => Err(format!("{what} must be a number")),
        }
    }

    /// The value as an `f64`, or an error naming `what`.
    pub fn f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(raw) => raw
                .parse::<f64>()
                .map_err(|_| format!("{what} must be a number, got {raw}")),
            _ => Err(format!("{what} must be a number")),
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let raw = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| "non-utf8 number token".to_string())?;
    if raw.is_empty() || raw.parse::<f64>().is_err() {
        return Err(format!("invalid number at byte {start}"));
    }
    Ok(Json::Num(raw.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("invalid escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // always a valid boundary walk).
                let rest = &bytes[*pos..];
                let s = std::str::from_utf8(rest).map_err(|_| "non-utf8 string".to_string())?;
                if let Some(c) = s.chars().next() {
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut members: Vec<(String, Json)> = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected member name at byte {pos}"));
        }
        let key = parse_string(bytes, pos)?;
        if members.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate key `{key}`"));
        }
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

// ---------------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------------

fn proto_err(line: usize, reason: impl Into<String>) -> ServeError {
    ServeError::Proto {
        line,
        reason: reason.into(),
    }
}

fn check_keys(obj: &Json, known: &[&str], line: usize) -> Result<(), ServeError> {
    for (key, _) in obj.obj("request").map_err(|e| proto_err(line, e))? {
        if !known.contains(&key.as_str()) {
            return Err(proto_err(line, format!("unknown key `{key}`")));
        }
    }
    Ok(())
}

/// Decode one request line. `line` is the 1-based input line (or frame
/// ordinal), reported in protocol errors.
pub fn parse_request(input: &str, line: usize) -> Result<Request, ServeError> {
    let value = Json::parse(input).map_err(|e| proto_err(line, e))?;
    let v = value
        .get("v")
        .ok_or_else(|| proto_err(line, "missing `v` (schema version)"))?
        .u64("`v`")
        .map_err(|e| proto_err(line, e))?;
    if v != PROTO_VERSION {
        return Err(proto_err(
            line,
            format!("unsupported schema version {v} (this build speaks {PROTO_VERSION})"),
        ));
    }
    if let Some(cmd) = value.get("cmd") {
        let cmd = cmd.str("`cmd`").map_err(|e| proto_err(line, e))?;
        return match cmd {
            "advise" => {
                check_keys(&value, &["v", "cmd", "tenant"], line)?;
                let tenant = value
                    .get("tenant")
                    .ok_or_else(|| proto_err(line, "`advise` needs a `tenant`"))?
                    .str("`tenant`")
                    .map_err(|e| proto_err(line, e))?;
                if tenant.is_empty() {
                    return Err(proto_err(line, "`tenant` must not be empty"));
                }
                Ok(Request::Advise {
                    tenant: tenant.to_string(),
                })
            }
            "status" | "snapshot" | "follow" | "shutdown" => {
                check_keys(&value, &["v", "cmd"], line)?;
                Ok(match cmd {
                    "status" => Request::Status,
                    "snapshot" => Request::Snapshot,
                    "follow" => Request::Follow,
                    _ => Request::Shutdown,
                })
            }
            other => Err(proto_err(line, format!("unknown cmd `{other}`"))),
        };
    }
    // No `cmd`: an ingest event.
    check_keys(&value, &["v", "tenant", "key", "op", "bytes"], line)?;
    let tenant = value
        .get("tenant")
        .ok_or_else(|| proto_err(line, "event needs a `tenant`"))?
        .str("`tenant`")
        .map_err(|e| proto_err(line, e))?;
    if tenant.is_empty() {
        return Err(proto_err(line, "`tenant` must not be empty"));
    }
    let key = value
        .get("key")
        .ok_or_else(|| proto_err(line, "event needs a `key`"))?
        .u64("`key`")
        .map_err(|e| proto_err(line, e))?;
    let op = match value
        .get("op")
        .ok_or_else(|| proto_err(line, "event needs an `op`"))?
        .str("`op`")
        .map_err(|e| proto_err(line, e))?
    {
        "read" => Op::Read,
        "update" | "write" => Op::Update,
        other => {
            return Err(proto_err(
                line,
                format!("unknown op `{other}` (read|update)"),
            ))
        }
    };
    let bytes = match value.get("bytes") {
        Some(b) => b.u64("`bytes`").map_err(|e| proto_err(line, e))?,
        None => 0,
    };
    if bytes > MAX_EVENT_BYTES {
        return Err(proto_err(
            line,
            format!("`bytes` {bytes} exceeds the {MAX_EVENT_BYTES}-byte record limit"),
        ));
    }
    Ok(Request::Ingest(EventV1 {
        tenant: tenant.to_string(),
        key,
        op,
        bytes,
    }))
}

// ---------------------------------------------------------------------
// Response rows
// ---------------------------------------------------------------------

/// Escape a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Stable wire label for a drift trigger.
pub fn drift_json(drift: &Drift) -> &'static str {
    match drift {
        Drift::Initial => "initial",
        Drift::Theta { .. } => "theta",
        Drift::HotSet { .. } => "hot_set",
        Drift::Stable => "stable",
    }
}

/// `null` or the stable wire label for a degradation reason.
pub fn degraded_json(degraded: &Option<DegradedReason>) -> &'static str {
    match degraded {
        None => "null",
        Some(DegradedReason::SloClamped { .. }) => "\"slo_clamped\"",
        Some(DegradedReason::SloUnattainable { .. }) => "\"slo_unattainable\"",
        Some(DegradedReason::EmptyCurve) => "\"empty_curve\"",
    }
}

/// One advise row: emitted at a tenant's drift-epoch boundary, or in
/// response to an `advise` command. `at_event` counts the *tenant's own*
/// profiled events, so a tenant's advise rows are invariant under other
/// tenants' traffic.
pub fn advise_row(
    tenant: &str,
    at_event: u64,
    trigger: &Drift,
    resilient: &ResilientRecommendation,
) -> String {
    let r = &resilient.recommendation;
    format!(
        concat!(
            "{{\"v\":1,\"row\":\"advise\",\"tenant\":\"{}\",\"at_event\":{},",
            "\"trigger\":\"{}\",\"prefix\":{},\"fast_bytes\":{},\"fast_ratio\":{},",
            "\"cost_reduction\":{},\"est_slowdown\":{},\"degraded\":{}}}"
        ),
        json_escape(tenant),
        at_event,
        drift_json(trigger),
        r.prefix,
        r.fast_bytes,
        fmt_f64(r.fast_ratio),
        fmt_f64(r.cost_reduction),
        fmt_f64(r.est_slowdown),
        degraded_json(&resilient.degraded),
    )
}

/// One re-plan row: the shared-capacity grant a tenant received at a
/// scheduler epoch. Carries the *global* epoch: re-planning is a
/// cross-tenant decision and is excluded from per-tenant isolation.
pub fn replan_row(
    epoch: u64,
    tenant: &str,
    fast_bytes: u64,
    budget_bytes: u64,
    est_slowdown: f64,
) -> String {
    format!(
        concat!(
            "{{\"v\":1,\"row\":\"replan\",\"epoch\":{},\"tenant\":\"{}\",",
            "\"fast_bytes\":{},\"budget_bytes\":{},\"est_slowdown\":{}}}"
        ),
        epoch,
        json_escape(tenant),
        fast_bytes,
        budget_bytes,
        fmt_f64(est_slowdown),
    )
}

/// One crash row: a tenant-scoped shard crash took effect; the tenant's
/// profiler was cold-reset and its ingest drops until `until_ns`.
pub fn crash_row(tenant: &str, at_ns: u128, until_ns: u128) -> String {
    format!(
        "{{\"v\":1,\"row\":\"crash\",\"tenant\":\"{}\",\"at_ns\":{},\"until_ns\":{}}}",
        json_escape(tenant),
        at_ns,
        until_ns,
    )
}

/// One error row (unknown tenant, rejected admission, …). Kept as a row
/// rather than a hard error so a daemon serving many clients degrades
/// per-request instead of dying.
pub fn error_row(reason: &str) -> String {
    format!(
        "{{\"v\":1,\"row\":\"error\",\"reason\":\"{}\"}}",
        json_escape(reason)
    )
}

// ---------------------------------------------------------------------
// Socket framing
// ---------------------------------------------------------------------

/// Frame a payload for the socket: 4-byte little-endian length prefix.
pub fn encode_frame(payload: &str) -> Vec<u8> {
    let bytes = payload.as_bytes();
    let mut out = Vec::with_capacity(4 + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Incremental decoder for length-prefixed frames arriving in arbitrary
/// chunks.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Append raw bytes from the wire.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, if one is buffered. `frame_no` is
    /// reported in protocol errors (oversized frame, non-UTF-8 payload).
    pub fn next_frame(&mut self, frame_no: usize) -> Result<Option<String>, ServeError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(proto_err(
                frame_no,
                format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
            ));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        String::from_utf8(payload)
            .map(Some)
            .map_err(|_| proto_err(frame_no, "frame payload is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_and_commands_decode() {
        let ev = parse_request(
            r#"{"v":1,"tenant":"alpha","key":17,"op":"read","bytes":128}"#,
            1,
        )
        .unwrap();
        assert_eq!(
            ev,
            Request::Ingest(EventV1 {
                tenant: "alpha".into(),
                key: 17,
                op: Op::Read,
                bytes: 128,
            })
        );
        assert_eq!(
            parse_request(r#"{"v":1,"cmd":"advise","tenant":"beta"}"#, 1).unwrap(),
            Request::Advise {
                tenant: "beta".into()
            }
        );
        assert_eq!(
            parse_request(r#"{"v":1,"cmd":"shutdown"}"#, 1).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn protocol_errors_carry_the_line() {
        let cases = [
            (r#"{"tenant":"a","key":1,"op":"read"}"#, "missing `v`"),
            (r#"{"v":2,"cmd":"status"}"#, "unsupported schema version"),
            (r#"{"v":1,"cmd":"warp"}"#, "unknown cmd"),
            (r#"{"v":1,"tenant":"a","key":1,"op":"scan"}"#, "unknown op"),
            (
                r#"{"v":1,"tenant":"a","key":1,"op":"read","x":1}"#,
                "unknown key",
            ),
            (
                r#"{"v":1,"tenant":"","key":1,"op":"read"}"#,
                "must not be empty",
            ),
            (r#"{"v":1,"cmd":"advise"}"#, "needs a `tenant`"),
            ("{]", "expected member name"),
        ];
        for (input, want) in cases {
            match parse_request(input, 7) {
                Err(ServeError::Proto { line, reason }) => {
                    assert_eq!(line, 7, "{input}");
                    assert!(reason.contains(want), "{input}: got `{reason}`");
                }
                other => panic!("{input}: expected protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn json_numbers_round_trip_u64_exactly() {
        let v = Json::parse("{\"w\":18446744073709551615}").unwrap();
        assert_eq!(v.get("w").unwrap().u64("w").unwrap(), u64::MAX);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        assert!(Json::parse(r#"{"a":1,"a":2}"#).is_err());
    }

    #[test]
    fn framing_round_trips_in_chunks() {
        let frames = ["{\"v\":1,\"cmd\":\"status\"}", "short", ""];
        let mut wire = Vec::new();
        for f in frames {
            wire.extend_from_slice(&encode_frame(f));
        }
        let mut buf = FrameBuffer::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(3) {
            buf.extend(chunk);
            while let Some(frame) = buf.next_frame(got.len() + 1).unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn bytes_above_the_record_limit_are_protocol_errors() {
        let line = |bytes: u64| {
            format!("{{\"v\":1,\"tenant\":\"a\",\"key\":1,\"op\":\"read\",\"bytes\":{bytes}}}")
        };
        assert!(parse_request(&line(MAX_EVENT_BYTES), 1).is_ok());
        for bytes in [MAX_EVENT_BYTES + 1, u64::MAX] {
            match parse_request(&line(bytes), 7) {
                Err(ServeError::Proto { line, reason }) => {
                    assert_eq!(line, 7);
                    assert!(reason.contains("record limit"), "{reason}");
                }
                other => panic!("expected a protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn record_limit_keeps_a_full_pattern_total_in_range() {
        // One more key than the largest distinct estimate covers the
        // profiler's cardinality-underestimate tail key.
        let keys = mnemo_stream::DistinctCounter::max_estimate() + 1;
        assert!(keys.checked_mul(MAX_EVENT_BYTES).is_some());
    }

    #[test]
    fn oversized_frames_are_protocol_errors() {
        let mut buf = FrameBuffer::new();
        buf.extend(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            buf.next_frame(1),
            Err(ServeError::Proto { line: 1, .. })
        ));
    }

    #[test]
    fn rows_are_single_json_objects() {
        use mnemo::advisor::Recommendation;
        let resilient = ResilientRecommendation {
            recommendation: Recommendation {
                prefix: 3,
                fast_bytes: 4096,
                fast_ratio: 0.25,
                cost_reduction: 0.4,
                est_throughput_ops_s: 1e6,
                est_slowdown: 0.05,
            },
            degraded: Some(DegradedReason::EmptyCurve),
        };
        let row = advise_row("a\"b", 42, &Drift::Initial, &resilient);
        let parsed = Json::parse(&row).unwrap();
        assert_eq!(parsed.get("tenant").unwrap().str("t").unwrap(), "a\"b");
        assert_eq!(parsed.get("at_event").unwrap().u64("e").unwrap(), 42);
        assert_eq!(
            parsed.get("degraded").unwrap().str("d").unwrap(),
            "empty_curve"
        );
        let replan = replan_row(2, "alpha", 1 << 20, 1 << 26, 0.1);
        assert!(Json::parse(&replan).is_ok());
        assert!(Json::parse(&crash_row("beta", 100, 200)).is_ok());
        assert!(Json::parse(&error_row("unknown tenant `x`")).is_ok());
    }
}
