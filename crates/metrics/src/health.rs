//! The `health` section embedded in schema-v7 workload artifacts.

use crate::snapshot::MetricsSnapshot;
use crate::watchdog::{WatchdogFiring, WatchdogKind};
use serde::{Serialize, Serializer};

/// Everything a run's metrics pipeline produced, embedded verbatim in
/// `WorkloadSummary`'s schema-v7 `health` field (in `esync-sim`, which
/// this crate cannot name without a cycle) and exported as
/// `HEALTH_*.jsonl`: the snapshot time series, the watchdog firings,
/// and the trace-drop count surfaced from the collectors.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthSummary {
    /// The snapshot cadence in nanoseconds.
    pub interval_ns: u64,
    /// The snapshot time series, ordered by `at_ns` (and by node within
    /// an instant on the runtime, where every node samples).
    pub snapshots: Vec<MetricsSnapshot>,
    /// Every watchdog firing, in observation order.
    pub firings: Vec<WatchdogFiring>,
    /// Trace records dropped at full collector buffers, summed across
    /// nodes — nonzero means `TRACE_*.jsonl` under-reports and
    /// `inspect`'s latency stats are suspect.
    pub trace_dropped: u64,
}

impl HealthSummary {
    /// Firings of `kind`, for assertions and report rendering.
    pub fn firings_of(&self, kind: WatchdogKind) -> usize {
        self.firings.iter().filter(|f| f.kind == kind).count()
    }
}

impl Serialize for HealthSummary {
    fn serialize(&self, s: &mut Serializer) {
        s.begin_map();
        s.key("interval_ns");
        s.value_u64(self.interval_ns);
        s.key("snapshots");
        self.snapshots.serialize(s);
        s.key("firings");
        self.firings.serialize(s);
        s.key("trace_dropped");
        s.value_u64(self.trace_dropped);
        s.end_map();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esync_core::metrics::METRIC_COUNT;

    #[test]
    fn serializes_all_sections() {
        let h = HealthSummary {
            interval_ns: 500,
            snapshots: vec![MetricsSnapshot {
                at_ns: 500,
                node: None,
                counters: [0; METRIC_COUNT],
            }],
            firings: vec![WatchdogFiring {
                kind: WatchdogKind::Stall,
                at_ns: 500,
                node: None,
                value: 3,
            }],
            trace_dropped: 1,
        };
        let mut s = Serializer::new();
        h.serialize(&mut s);
        let json = s.finish();
        assert!(json.starts_with("{\"interval_ns\":500,\"snapshots\":[{\"at_ns\":500,"));
        assert!(json.contains("\"watchdog\":\"stall\""));
        assert!(json.ends_with("\"trace_dropped\":1}"));
        assert_eq!(h.firings_of(WatchdogKind::Stall), 1);
        assert_eq!(h.firings_of(WatchdogKind::Bound), 0);
    }
}
