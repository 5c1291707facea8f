//! The `TRACE_*.jsonl` format: one JSON object per line, a `meta` header
//! line followed by flat record lines — and its reader, which parses each
//! line into a [`serde_json::Value`] and picks the fields out of it.
//!
//! ## Schema
//!
//! The first line is the run header:
//!
//! ```json
//! {"meta":{"exp":"exp_e1","seed":42,"n":5,"delta_ns":10000000,
//!          "epsilon_ns":10000000,"ts_ns":300000000,"bound_ns":170000000,
//!          "dropped":0}}
//! ```
//!
//! `dropped` (v7) counts ring-evicted records; older files omit it and
//! parse as 0.
//!
//! Every following line is one [`TraceRecord`]: the stamp, the emitting
//! process, the event `kind` (the labels of
//! [`TraceEvent::kind`]), and the kind's payload fields, all
//! integer-valued:
//!
//! ```json
//! {"at_ns":312000000,"pid":2,"kind":"decided","shard":0,"slot":3,"value":7}
//! ```
//!
//! | kind | payload fields |
//! |---|---|
//! | `1a_sent`, `promise_quorum`, `anchored`, `unanchored` | `ballot` |
//! | `submit`, `forward` | `value` |
//! | `admitted`, `reply` | `shard`, `value` |
//! | `proposed`, `decided` | `shard`, `slot`, `value` |
//! | `chosen` | `shard`, `slot` |
//! | `rb_freeze`, `rb_drain`, `rb_commit`, `rb_abort` | `epoch` |
//! | `rb_reforward` | `epoch`, `count` |
//!
//! Writing is deterministic: fixed key order, no whitespace, `\n` line
//! ends — so same-seed simulator runs produce byte-identical files.

use crate::buffer::TraceRecord;
use esync_core::metrics::Metric;
use esync_core::trace::TraceEvent;
use esync_core::types::ProcessId;
use serde::Serializer;
use serde_json::Value;
use std::fmt;
use std::fmt::Write as _;

/// The run header of a trace file: enough context to validate the
/// paper's decision bound without the artifact that produced the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// The experiment (or test) name the trace belongs to.
    pub exp: String,
    /// The run's seed.
    pub seed: u64,
    /// Number of processes.
    pub n: u32,
    /// The post-stabilization message-delay bound δ, in nanoseconds.
    pub delta_ns: u64,
    /// The retransmission period ε, in nanoseconds.
    pub epsilon_ns: u64,
    /// The stabilization time `TS` on the driver clock, in nanoseconds.
    pub ts_ns: u64,
    /// The per-decision bound after `TS`: `ε + 3τ + 5δ` (plus the ε
    /// alignment slack), in nanoseconds. A run satisfies the paper's
    /// guarantee iff every nonfaulty process's decision stamp is at most
    /// `ts_ns + bound_ns`. Zero means the bound does not apply to this
    /// trace (steady-state workload drives, where first decides are
    /// gated on client submission schedules, not on stabilization) and
    /// checkers must skip the per-decision validation.
    pub bound_ns: u64,
    /// Records evicted by the bounded ring(s) that collected this trace,
    /// summed across nodes. Nonzero means the file is a *suffix* of the
    /// run — phase decompositions and bound checks may be missing early
    /// decisions — so checkers warn. Old files omit the key; the parser
    /// reads it as 0.
    pub dropped: u64,
}

/// A parsed trace line: the header or a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line {
    /// The `{"meta":…}` header line.
    Meta(TraceMeta),
    /// A stamped event record.
    Record(TraceRecord),
}

/// A line of an artifact file (`TRACE_*.jsonl` or `HEALTH_*.jsonl`)
/// failed to parse.
#[derive(Debug)]
pub enum ParseError {
    /// The line is not JSON the reader accepts.
    Json(serde_json::Error),
    /// The line is JSON, but the named field is missing, has the wrong
    /// type, or holds a value the schema does not know.
    Field(&'static str),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Json(e) => write!(f, "invalid JSONL line: {e}"),
            ParseError::Field(key) => write!(f, "invalid JSONL line: bad or missing `{key}`"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Renders the header line (no trailing newline).
pub fn meta_line(meta: &TraceMeta) -> String {
    let mut exp = Serializer::new();
    exp.value_str(&meta.exp);
    format!(
        "{{\"meta\":{{\"exp\":{},\"seed\":{},\"n\":{},\"delta_ns\":{},\"epsilon_ns\":{},\"ts_ns\":{},\"bound_ns\":{},\"dropped\":{}}}}}",
        exp.finish(), meta.seed, meta.n, meta.delta_ns, meta.epsilon_ns, meta.ts_ns, meta.bound_ns, meta.dropped
    )
}

/// Renders one record line (no trailing newline). Key order is fixed:
/// `at_ns`, `pid`, `kind`, then the kind's payload fields in the order
/// of the schema table.
pub fn record_line(r: &TraceRecord) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(
        out,
        "{{\"at_ns\":{},\"pid\":{},\"kind\":\"{}\"",
        r.at_ns,
        r.pid.as_u32(),
        r.ev.kind()
    );
    match r.ev {
        TraceEvent::OneASent { ballot }
        | TraceEvent::PromiseQuorum { ballot }
        | TraceEvent::Anchored { ballot }
        | TraceEvent::Unanchored { ballot } => {
            let _ = write!(out, ",\"ballot\":{ballot}");
        }
        TraceEvent::Submit { value } | TraceEvent::ForwardSent { value } => {
            let _ = write!(out, ",\"value\":{value}");
        }
        TraceEvent::Admitted { shard, value } | TraceEvent::ReplySent { shard, value } => {
            let _ = write!(out, ",\"shard\":{shard},\"value\":{value}");
        }
        TraceEvent::Proposed { shard, slot, value }
        | TraceEvent::Decided { shard, slot, value } => {
            let _ = write!(out, ",\"shard\":{shard},\"slot\":{slot},\"value\":{value}");
        }
        TraceEvent::Chosen { shard, slot } => {
            let _ = write!(out, ",\"shard\":{shard},\"slot\":{slot}");
        }
        TraceEvent::RebalanceFreeze { epoch }
        | TraceEvent::RebalanceDrain { epoch }
        | TraceEvent::RebalanceCommit { epoch }
        | TraceEvent::RebalanceAbort { epoch } => {
            let _ = write!(out, ",\"epoch\":{epoch}");
        }
        TraceEvent::RebalanceReforward { epoch, count } => {
            let _ = write!(out, ",\"epoch\":{epoch},\"count\":{count}");
        }
    }
    out.push('}');
    out
}

/// Renders a whole trace file: the header line, then every record in
/// order, `\n`-terminated.
pub fn write_jsonl<'a>(
    meta: &TraceMeta,
    records: impl IntoIterator<Item = &'a TraceRecord>,
) -> String {
    let mut out = meta_line(meta);
    out.push('\n');
    for r in records {
        out.push_str(&record_line(r));
        out.push('\n');
    }
    out
}

fn u64_of(obj: &Value, key: &'static str) -> Result<u64, ParseError> {
    obj.get(key)
        .and_then(Value::as_u64)
        .ok_or(ParseError::Field(key))
}

fn u32_of(obj: &Value, key: &'static str) -> Result<u32, ParseError> {
    u32::try_from(u64_of(obj, key)?).map_err(|_| ParseError::Field(key))
}

fn str_of<'v>(obj: &'v Value, key: &'static str) -> Result<&'v str, ParseError> {
    obj.get(key)
        .and_then(Value::as_str)
        .ok_or(ParseError::Field(key))
}

fn event_of(fields: &Value) -> Result<TraceEvent, ParseError> {
    let kind = Metric::from_name(str_of(fields, "kind")?).ok_or(ParseError::Field("kind"))?;
    Ok(match kind {
        Metric::OneASent => TraceEvent::OneASent {
            ballot: u64_of(fields, "ballot")?,
        },
        Metric::PromiseQuorum => TraceEvent::PromiseQuorum {
            ballot: u64_of(fields, "ballot")?,
        },
        Metric::Anchored => TraceEvent::Anchored {
            ballot: u64_of(fields, "ballot")?,
        },
        Metric::Unanchored => TraceEvent::Unanchored {
            ballot: u64_of(fields, "ballot")?,
        },
        Metric::Submitted => TraceEvent::Submit {
            value: u64_of(fields, "value")?,
        },
        Metric::Forwarded => TraceEvent::ForwardSent {
            value: u64_of(fields, "value")?,
        },
        Metric::Admitted => TraceEvent::Admitted {
            shard: u32_of(fields, "shard")?,
            value: u64_of(fields, "value")?,
        },
        Metric::Proposed => TraceEvent::Proposed {
            shard: u32_of(fields, "shard")?,
            slot: u64_of(fields, "slot")?,
            value: u64_of(fields, "value")?,
        },
        Metric::Chosen => TraceEvent::Chosen {
            shard: u32_of(fields, "shard")?,
            slot: u64_of(fields, "slot")?,
        },
        Metric::Decided => TraceEvent::Decided {
            shard: u32_of(fields, "shard")?,
            slot: u64_of(fields, "slot")?,
            value: u64_of(fields, "value")?,
        },
        Metric::Replied => TraceEvent::ReplySent {
            shard: u32_of(fields, "shard")?,
            value: u64_of(fields, "value")?,
        },
        Metric::RebalanceFreeze => TraceEvent::RebalanceFreeze {
            epoch: u64_of(fields, "epoch")?,
        },
        Metric::RebalanceDrain => TraceEvent::RebalanceDrain {
            epoch: u64_of(fields, "epoch")?,
        },
        Metric::RebalanceCommit => TraceEvent::RebalanceCommit {
            epoch: u64_of(fields, "epoch")?,
        },
        Metric::RebalanceReforward => TraceEvent::RebalanceReforward {
            epoch: u64_of(fields, "epoch")?,
            count: u64_of(fields, "count")?,
        },
        Metric::RebalanceAbort => TraceEvent::RebalanceAbort {
            epoch: u64_of(fields, "epoch")?,
        },
        // Driver-fed: a counter, never a trace kind.
        Metric::TraceDropped => return Err(ParseError::Field("kind")),
    })
}

/// Parses one line of a trace file.
///
/// # Errors
///
/// Returns [`ParseError`] for malformed JSON, unknown kinds, or missing
/// payload fields.
pub fn parse_line(line: &str) -> Result<Line, ParseError> {
    let v: Value = line.parse().map_err(ParseError::Json)?;
    if let Some(meta) = v.get("meta") {
        return Ok(Line::Meta(TraceMeta {
            exp: str_of(meta, "exp")?.to_string(),
            seed: u64_of(meta, "seed")?,
            n: u32_of(meta, "n")?,
            delta_ns: u64_of(meta, "delta_ns")?,
            epsilon_ns: u64_of(meta, "epsilon_ns")?,
            ts_ns: u64_of(meta, "ts_ns")?,
            bound_ns: u64_of(meta, "bound_ns")?,
            // Pre-v7 files have no dropped count; absent means none.
            dropped: meta.get("dropped").and_then(Value::as_u64).unwrap_or(0),
        }));
    }
    Ok(Line::Record(TraceRecord {
        at_ns: u64_of(&v, "at_ns")?,
        pid: ProcessId::new(u32_of(&v, "pid")?),
        ev: event_of(&v)?,
    }))
}

/// Parses a whole trace file: the header (if present) plus every record,
/// in order. Blank lines are skipped.
///
/// # Errors
///
/// Returns the first line's [`ParseError`], if any.
pub fn parse_jsonl(text: &str) -> Result<(Option<TraceMeta>, Vec<TraceRecord>), ParseError> {
    let mut meta = None;
    let mut records = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line)? {
            Line::Meta(m) => meta = Some(m),
            Line::Record(r) => records.push(r),
        }
    }
    Ok((meta, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meta() -> TraceMeta {
        TraceMeta {
            exp: "exp_e1".to_string(),
            seed: 42,
            n: 5,
            delta_ns: 10_000_000,
            epsilon_ns: 10_000_000,
            ts_ns: 300_000_000,
            bound_ns: 170_000_000,
            dropped: 0,
        }
    }

    #[test]
    fn every_kind_roundtrips_through_jsonl() {
        let events = [
            TraceEvent::OneASent { ballot: 9 },
            TraceEvent::PromiseQuorum { ballot: 9 },
            TraceEvent::Anchored { ballot: 9 },
            TraceEvent::Unanchored { ballot: 4 },
            TraceEvent::Submit { value: 7 },
            TraceEvent::ForwardSent { value: 7 },
            TraceEvent::Admitted { shard: 1, value: 7 },
            TraceEvent::Proposed {
                shard: 1,
                slot: 3,
                value: 7,
            },
            TraceEvent::Chosen { shard: 1, slot: 3 },
            TraceEvent::Decided {
                shard: 1,
                slot: 3,
                value: 7,
            },
            TraceEvent::ReplySent { shard: 1, value: 7 },
            TraceEvent::RebalanceFreeze { epoch: 1 },
            TraceEvent::RebalanceDrain { epoch: 1 },
            TraceEvent::RebalanceCommit { epoch: 1 },
            TraceEvent::RebalanceReforward {
                epoch: 1,
                count: 12,
            },
            TraceEvent::RebalanceAbort { epoch: 2 },
        ];
        let records: Vec<TraceRecord> = events
            .iter()
            .enumerate()
            .map(|(i, ev)| TraceRecord {
                at_ns: 1_000 * i as u64,
                pid: ProcessId::new(i as u32 % 3),
                ev: *ev,
            })
            .collect();
        let meta = sample_meta();
        let text = write_jsonl(&meta, &records);
        let (parsed_meta, parsed) = parse_jsonl(&text).expect("roundtrip parses");
        assert_eq!(parsed_meta, Some(meta));
        assert_eq!(parsed, records);
    }

    #[test]
    fn writer_is_deterministic() {
        let r = TraceRecord {
            at_ns: 5,
            pid: ProcessId::new(2),
            ev: TraceEvent::Chosen { shard: 0, slot: 9 },
        };
        assert_eq!(
            record_line(&r),
            "{\"at_ns\":5,\"pid\":2,\"kind\":\"chosen\",\"shard\":0,\"slot\":9}"
        );
        assert_eq!(
            write_jsonl(&sample_meta(), [&r]),
            write_jsonl(&sample_meta(), [&r])
        );
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_line("").is_err());
        assert!(parse_line("{\"at_ns\":1}").is_err(), "missing pid/kind");
        assert!(
            parse_line("{\"at_ns\":1,\"pid\":0,\"kind\":\"nope\"}").is_err(),
            "unknown kind"
        );
        assert!(
            parse_line("{\"at_ns\":1,\"pid\":0,\"kind\":\"trace_dropped\"}").is_err(),
            "a counter name that is no trace kind"
        );
        assert!(
            parse_line("{\"at_ns\":1,\"pid\":0,\"kind\":\"submit\"}").is_err(),
            "missing payload"
        );
        assert!(parse_line("{\"at_ns\":1,\"pid\":0} trailing").is_err());
        assert!(
            parse_line("{\"at_ns\":99999999999999999999999,\"pid\":0,\"kind\":\"chosen\",\"shard\":0,\"slot\":1}")
                .is_err(),
            "overflowing number"
        );
    }

    #[test]
    fn exp_names_are_escaped() {
        for exp in [
            "odd \"name\"\\with\nnoise",
            "exp_δ",
            "tab\there",
            "cr\rhere",
            "ctl\u{1}here",
        ] {
            let mut meta = sample_meta();
            meta.exp = exp.to_string();
            let line = meta_line(&meta);
            match parse_line(&line).expect("escaped header parses") {
                Line::Meta(m) => assert_eq!(m, meta),
                other => panic!("expected meta, got {other:?}"),
            }
        }
    }
}
