//! The `HEALTH_*.jsonl` artifact format.
//!
//! One JSON object per line, mirroring the `TRACE_*.jsonl` layout:
//!
//! | line | shape |
//! |------|-------|
//! | header | `{"meta":{"exp":…,"seed":…,"n":…,"interval_ns":…,"backend":"sim"\|"rt"}}` |
//! | snapshot | `{"at_ns":…,"node":…\|null,"counters":[["1a_sent",v],…]}` |
//! | firing | `{"at_ns":…,"node":…\|null,"watchdog":"bound"\|…,"value":…}` |
//!
//! Snapshot `counters` always carries all [`METRIC_COUNT`] pairs in
//! [`Metric::ALL`] order; the parser accepts any order and subset (a
//! missing name reads as zero), so the format can grow counters without
//! breaking old readers. Firing lines are distinguished from snapshot
//! lines by the `watchdog` key.
//!
//! Lines are read through the vendored [`serde_json::Value`], and a bad
//! line is the trace codec's [`ParseError`], so both artifact kinds
//! share one reader and one error.

use crate::snapshot::MetricsSnapshot;
use crate::watchdog::{WatchdogFiring, WatchdogKind};
use esync_core::metrics::{Metric, METRIC_COUNT};
use esync_trace::ParseError::{self, Field};
use serde::{Serialize, Serializer};
use serde_json::Value;

/// The run header of a `HEALTH_*.jsonl` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthMeta {
    /// Experiment label (e.g. `"w6_health"`).
    pub exp: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Cluster size.
    pub n: u32,
    /// Snapshot cadence in nanoseconds.
    pub interval_ns: u64,
    /// Which backend stamped the time axis: `"sim"` (virtual time) or
    /// `"rt"` (monotonic wall time since cluster start).
    pub backend: String,
}

/// One parsed line of a health file.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthLine {
    /// The header line.
    Meta(HealthMeta),
    /// A registry sample.
    Snapshot(MetricsSnapshot),
    /// A watchdog firing.
    Firing(WatchdogFiring),
}

fn meta_line(meta: &HealthMeta) -> String {
    let mut s = Serializer::new();
    s.begin_map();
    s.key("meta");
    s.begin_map();
    s.key("exp");
    s.value_str(&meta.exp);
    s.key("seed");
    s.value_u64(meta.seed);
    s.key("n");
    s.value_u64(u64::from(meta.n));
    s.key("interval_ns");
    s.value_u64(meta.interval_ns);
    s.key("backend");
    s.value_str(&meta.backend);
    s.end_map();
    s.end_map();
    s.finish()
}

/// Renders a whole health file: the header, then every snapshot, then
/// every firing, one JSON object per line with a trailing newline.
pub fn write_health_jsonl(
    meta: &HealthMeta,
    snapshots: &[MetricsSnapshot],
    firings: &[WatchdogFiring],
) -> String {
    let mut out = meta_line(meta);
    out.push('\n');
    for snap in snapshots {
        let mut s = Serializer::new();
        snap.serialize(&mut s);
        out.push_str(&s.finish());
        out.push('\n');
    }
    for f in firings {
        let mut s = Serializer::new();
        f.serialize(&mut s);
        out.push_str(&s.finish());
        out.push('\n');
    }
    out
}

/// Every counter pair whose name this build knows; unknown names are
/// skipped, so old readers survive new counters.
fn counters_of(pairs: &[Value]) -> Result<[u64; METRIC_COUNT], ParseError> {
    let mut counters = [0u64; METRIC_COUNT];
    for pair in pairs {
        let Some([name, v]) = pair.as_array().map(Vec::as_slice) else {
            return Err(Field("counters"));
        };
        let (Some(name), Some(v)) = (name.as_str(), v.as_u64()) else {
            return Err(Field("counters"));
        };
        if let Some(m) = Metric::from_name(name) {
            counters[m as usize] = v;
        }
    }
    Ok(counters)
}

/// Parses one line of a health file.
///
/// # Errors
///
/// Returns [`ParseError`] for malformed JSON, unknown watchdog names, or
/// missing fields.
pub fn parse_health_line(line: &str) -> Result<HealthLine, ParseError> {
    let v: Value = line.parse().map_err(ParseError::Json)?;
    let u64_of = |obj: &Value, key| obj.get(key).and_then(Value::as_u64).ok_or(Field(key));
    let u32_of = |obj: &Value, key| u32::try_from(u64_of(obj, key)?).map_err(|_| Field(key));
    let str_of = |obj: &Value, key| {
        obj.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(Field(key))
    };
    if let Some(meta) = v.get("meta") {
        return Ok(HealthLine::Meta(HealthMeta {
            exp: str_of(meta, "exp")?,
            seed: u64_of(meta, "seed")?,
            n: u32_of(meta, "n")?,
            interval_ns: u64_of(meta, "interval_ns")?,
            backend: str_of(meta, "backend")?,
        }));
    }
    let at_ns = u64_of(&v, "at_ns")?;
    let node = match v.get("node") {
        Some(n) if n.is_null() => None,
        _ => Some(u32_of(&v, "node")?),
    };
    if let Some(name) = v.get("watchdog") {
        let kind = name
            .as_str()
            .and_then(WatchdogKind::from_name)
            .ok_or(Field("watchdog"))?;
        return Ok(HealthLine::Firing(WatchdogFiring {
            kind,
            at_ns,
            node,
            value: u64_of(&v, "value")?,
        }));
    }
    let pairs = v
        .get("counters")
        .and_then(Value::as_array)
        .ok_or(Field("counters"))?;
    Ok(HealthLine::Snapshot(MetricsSnapshot {
        at_ns,
        node,
        counters: counters_of(pairs)?,
    }))
}

/// Parses a whole health file into its header, snapshot series, and
/// firing list, in file order (blank lines skipped).
///
/// # Errors
///
/// Returns [`ParseError`] on the first malformed line, or a `meta` field
/// error if the header is missing.
pub fn parse_health_jsonl(
    text: &str,
) -> Result<(HealthMeta, Vec<MetricsSnapshot>, Vec<WatchdogFiring>), ParseError> {
    let mut meta = None;
    let mut snapshots = Vec::new();
    let mut firings = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_health_line(line)? {
            HealthLine::Meta(m) => meta = Some(m),
            HealthLine::Snapshot(s) => snapshots.push(s),
            HealthLine::Firing(f) => firings.push(f),
        }
    }
    let meta = meta.ok_or(Field("meta"))?;
    Ok((meta, snapshots, firings))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meta() -> HealthMeta {
        HealthMeta {
            exp: "w6_health".to_string(),
            seed: 42,
            n: 3,
            interval_ns: 500_000_000,
            backend: "sim".to_string(),
        }
    }

    #[test]
    fn roundtrips_a_full_file() {
        let mut counters = [0u64; METRIC_COUNT];
        counters[Metric::Decided as usize] = 11;
        counters[Metric::Submitted as usize] = 12;
        let snapshots = vec![
            MetricsSnapshot {
                at_ns: 500,
                node: None,
                counters: [0; METRIC_COUNT],
            },
            MetricsSnapshot {
                at_ns: 1000,
                node: Some(2),
                counters,
            },
        ];
        let firings = vec![WatchdogFiring {
            kind: WatchdogKind::AnchorChurn,
            at_ns: 1000,
            node: None,
            value: 2,
        }];
        let text = write_health_jsonl(&sample_meta(), &snapshots, &firings);
        let (meta, s2, f2) = parse_health_jsonl(&text).expect("roundtrip parses");
        assert_eq!(meta, sample_meta());
        assert_eq!(s2, snapshots);
        assert_eq!(f2, firings);
    }

    #[test]
    fn exp_names_are_escaped() {
        for exp in ["h\tx", "h_δ"] {
            let meta = HealthMeta {
                exp: exp.to_string(),
                ..sample_meta()
            };
            let text = write_health_jsonl(&meta, &[], &[]);
            let (back, _, _) = parse_health_jsonl(&text).expect("escaped header parses");
            assert_eq!(back, meta);
        }
    }

    #[test]
    fn missing_counter_names_read_as_zero() {
        let line =
            "{\"at_ns\":7,\"node\":null,\"counters\":[[\"decided\",3],[\"future_counter\",9]]}";
        let HealthLine::Snapshot(s) = parse_health_line(line).expect("parses") else {
            panic!("expected a snapshot line");
        };
        assert_eq!(s.counter(Metric::Decided), 3);
        assert_eq!(s.counter(Metric::Chosen), 0);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_health_line("{\"at_ns\":1").is_err());
        assert!(
            parse_health_line("{\"at_ns\":1,\"node\":0,\"watchdog\":\"nope\",\"value\":1}")
                .is_err()
        );
        assert!(parse_health_jsonl("{\"at_ns\":1,\"node\":null,\"counters\":[]}\n").is_err());
    }
}
