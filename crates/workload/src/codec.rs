//! JSON-lines codec for request traces.
//!
//! One line per tick, with the schema:
//!
//! ```text
//! {"tick":12,"requests":[{"id":480,"kind":"bid","arrival_tick":12}, ...]}
//! ```
//!
//! The workspace builds without registry access (the `serde` dependency is a
//! no-op shim), so both directions are hand-rolled on the shared
//! [`selfheal_jsonl`] primitives (the same scanner backs the synopsis codec
//! in `selfheal-core`).  The parser accepts arbitrary whitespace between
//! tokens and object keys in any order, and the pair satisfies
//! `parse ∘ serialize = id` — asserted structurally by the codec property
//! test in `tests/properties.rs`.

use crate::request::{Request, RequestKind};
use selfheal_jsonl::{parse_lines, Scanner};

/// A parse failure, with the 1-based line number when decoding a whole
/// JSON-lines document (0 when parsing a single line directly).
pub(crate) type CodecError = selfheal_jsonl::JsonError;

/// The batch of requests that arrived in one tick — the unit record of a
/// JSON-lines trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Tick (within the recorded run) at which the batch arrived.
    pub tick: u64,
    /// The batch, in arrival order.
    pub requests: Vec<Request>,
}

impl TraceRecord {
    /// Creates a record.
    pub fn new(tick: u64, requests: Vec<Request>) -> Self {
        TraceRecord { tick, requests }
    }
}

/// Serializes one record as a single JSON line (no trailing newline).
pub(crate) fn serialize_record(record: &TraceRecord) -> String {
    let mut out = String::with_capacity(32 + record.requests.len() * 48);
    out.push_str("{\"tick\":");
    out.push_str(&record.tick.to_string());
    out.push_str(",\"requests\":[");
    for (i, request) in record.requests.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        out.push_str(&request.id.to_string());
        out.push_str(",\"kind\":\"");
        out.push_str(request.kind.label());
        out.push_str("\",\"arrival_tick\":");
        out.push_str(&request.arrival_tick.to_string());
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Parses one JSON line back into a record.
pub(crate) fn parse_record(line: &str) -> Result<TraceRecord, CodecError> {
    let mut scanner = Scanner::new(line);
    let record = scan_record(&mut scanner)?;
    scanner
        .finish()
        .map_err(|err| CodecError::at(err.offset, "trailing data after the record object"))?;
    Ok(record)
}

/// Serializes a sequence of records as a JSON-lines document (one record per
/// line, trailing newline included when nonempty).
pub(crate) fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for record in records {
        out.push_str(&serialize_record(record));
        out.push('\n');
    }
    out
}

/// Parses a JSON-lines document (blank lines are skipped).
pub(crate) fn from_jsonl(text: &str) -> Result<Vec<TraceRecord>, CodecError> {
    parse_lines(text, parse_record)
}

fn scan_record(s: &mut Scanner<'_>) -> Result<TraceRecord, CodecError> {
    let mut tick: Option<u64> = None;
    let mut requests: Option<Vec<Request>> = None;
    s.object(|s, key, key_at| {
        match key {
            "tick" => tick = Some(s.parse_u64()?),
            "requests" => {
                let mut batch = Vec::new();
                s.array(|s| scan_request(s).map(|request| batch.push(request)))?;
                requests = Some(batch);
            }
            other => {
                let message = format!("unknown record field \"{other}\"");
                return Err(CodecError::at(key_at, message));
            }
        }
        Ok(())
    })?;
    match (tick, requests) {
        (Some(tick), Some(requests)) => Ok(TraceRecord { tick, requests }),
        (None, _) => Err(CodecError::at(s.pos(), "record is missing \"tick\"")),
        (_, None) => Err(CodecError::at(s.pos(), "record is missing \"requests\"")),
    }
}

fn scan_request(s: &mut Scanner<'_>) -> Result<Request, CodecError> {
    let mut id: Option<u64> = None;
    let mut kind: Option<RequestKind> = None;
    let mut arrival_tick: Option<u64> = None;
    s.object(|s, key, key_at| {
        match key {
            "id" => id = Some(s.parse_u64()?),
            "arrival_tick" => arrival_tick = Some(s.parse_u64()?),
            "kind" => {
                let label_at = s.pos();
                let label = s.parse_string()?;
                kind = Some(RequestKind::from_label(&label).ok_or_else(|| {
                    CodecError::at(label_at, format!("unknown request kind \"{label}\""))
                })?);
            }
            other => {
                let message = format!("unknown request field \"{other}\"");
                return Err(CodecError::at(key_at, message));
            }
        }
        Ok(())
    })?;
    match (id, kind, arrival_tick) {
        (Some(id), Some(kind), Some(arrival_tick)) => Ok(Request::new(id, kind, arrival_tick)),
        (None, ..) => Err(CodecError::at(s.pos(), "request is missing \"id\"")),
        (_, None, _) => Err(CodecError::at(s.pos(), "request is missing \"kind\"")),
        (.., None) => Err(CodecError::at(
            s.pos(),
            "request is missing \"arrival_tick\"",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> TraceRecord {
        TraceRecord::new(
            7,
            vec![
                Request::new(100, RequestKind::Bid, 7),
                Request::new(101, RequestKind::AboutMe, 7),
            ],
        )
    }

    #[test]
    fn serialize_then_parse_is_identity() {
        let original = record();
        let line = serialize_record(&original);
        assert_eq!(parse_record(&line), Ok(original));
    }

    #[test]
    fn empty_batches_round_trip() {
        let original = TraceRecord::new(3, Vec::new());
        let line = serialize_record(&original);
        assert_eq!(line, "{\"tick\":3,\"requests\":[]}");
        assert_eq!(parse_record(&line), Ok(original));
    }

    #[test]
    fn whitespace_and_key_order_are_tolerated() {
        let line = "{ \"requests\": [ {\"kind\": \"browse\", \"arrival_tick\": 2, \"id\": 9} ], \
                    \"tick\": 2 }";
        let parsed = parse_record(line).expect("reordered keys parse");
        assert_eq!(parsed.tick, 2);
        assert_eq!(
            parsed.requests,
            vec![Request::new(9, RequestKind::Browse, 2)]
        );
    }

    #[test]
    fn jsonl_document_round_trips_and_numbers_error_lines() {
        let records = vec![record(), TraceRecord::new(8, Vec::new())];
        let text = to_jsonl(&records);
        assert_eq!(from_jsonl(&text), Ok(records));

        let broken = format!("{}\n{{\"tick\":oops}}\n", serialize_record(&record()));
        let err = from_jsonl(&broken).expect_err("second line is invalid");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn unknown_kinds_and_fields_are_rejected() {
        let bad_kind =
            "{\"tick\":0,\"requests\":[{\"id\":0,\"kind\":\"checkout\",\"arrival_tick\":0}]}";
        assert!(parse_record(bad_kind)
            .unwrap_err()
            .message
            .contains("unknown request kind"));
        let bad_field = "{\"tick\":0,\"requests\":[],\"color\":3}";
        assert!(parse_record(bad_field)
            .unwrap_err()
            .message
            .contains("unknown record field"));
        let trailing = "{\"tick\":0,\"requests\":[]}gunk";
        assert!(parse_record(trailing)
            .unwrap_err()
            .message
            .contains("trailing data"));
    }

    #[test]
    fn a_repeated_key_is_refused_not_read_as_its_last_value() {
        let twice = "{\"tick\":1,\"tick\":2,\"requests\":[]}";
        let err = parse_record(twice).unwrap_err();
        assert_eq!(err.offset, twice.rfind("\"tick\"").unwrap());
        assert_eq!(err.message, "duplicate key \"tick\"");
        // Inside a request too, whichever way the key is spelled.
        let twice = "{\"tick\":0,\"requests\":[{\"id\":0,\"\\u0069d\":1,\"kind\":\"bid\"}]}";
        assert_eq!(
            parse_record(twice).unwrap_err().message,
            "duplicate key \"id\""
        );
    }

    #[test]
    fn escaped_keys_parse_through_the_shared_scanner() {
        // Keys decode escapes before matching: "\u0074ick" is "tick".
        let line = "{\"\\u0074ick\":4,\"requests\":[]}";
        assert_eq!(parse_record(line), Ok(TraceRecord::new(4, Vec::new())));
    }
}
