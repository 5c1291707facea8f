//! Run reports: decision times, message counts, and the derived quantities
//! the experiments tabulate — plus the steady-state workload instruments
//! ([`LatencyHistogram`], [`ThroughputTimeline`], [`WorkloadSummary`]) that
//! the `esync-workload` drivers fill from per-command commit records.

use crate::time::SimTime;
use esync_core::time::RealDuration;
use esync_core::types::{ProcessId, ShardId, Value};
use serde::Serialize;
use std::collections::BTreeMap;

/// One committed command observed at one process (a single
/// `Action::Decide`). The world records these for every run; workload
/// drivers turn them into latency and throughput measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    /// When the command was applied.
    pub at: SimTime,
    /// The applying process.
    pub pid: ProcessId,
    /// The log-group shard the command committed in
    /// ([`ShardId::ZERO`] for single-instance protocols).
    pub shard: ShardId,
    /// The command.
    pub value: Value,
}

/// Everything measured in one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Report {
    /// Protocol name (from [`esync_core::outbox::Protocol::name`]).
    pub protocol: String,
    /// Number of processes.
    pub n: usize,
    /// The run's seed.
    pub seed: u64,
    /// The stabilization time.
    pub ts: SimTime,
    /// The message-delay bound.
    pub delta: RealDuration,
    /// Simulated time when the run stopped.
    pub end_time: SimTime,
    /// Per-process decision instants.
    pub decided_at: Vec<Option<SimTime>>,
    /// Per-process decided values.
    pub decisions: Vec<Option<Value>>,
    /// Per-process liveness at the end of the run.
    pub alive_at_end: Vec<bool>,
    /// Whether each process ever started.
    pub started: Vec<bool>,
    /// Applied crash instants per process.
    pub crashes: Vec<Vec<SimTime>>,
    /// Applied restart instants per process.
    pub restarts: Vec<Vec<SimTime>>,
    /// Initial values proposed.
    pub initial_values: Vec<Value>,
    /// Total protocol messages handed to the network.
    pub msgs_sent: u64,
    /// Messages handed to the network at or after `TS`.
    pub msgs_sent_after_ts: u64,
    /// Messages by protocol-defined kind.
    pub msgs_by_kind: BTreeMap<String, u64>,
    /// Messages dropped (network loss or dead destination).
    pub msgs_dropped: u64,
    /// Events processed.
    pub events: u64,
}

impl Report {
    /// **Agreement**: no two processes decided differently.
    pub fn agreement(&self) -> bool {
        let mut seen: Option<Value> = None;
        for d in self.decisions.iter().flatten() {
            match seen {
                None => seen = Some(*d),
                Some(v) if v != *d => return false,
                _ => {}
            }
        }
        true
    }

    /// **Validity**: every decided value was somebody's initial value.
    pub fn validity(&self) -> bool {
        self.decisions
            .iter()
            .flatten()
            .all(|d| self.initial_values.contains(d))
    }

    /// The (agreed) decided value, if anyone decided.
    pub fn decided_value(&self) -> Option<Value> {
        self.decisions.iter().flatten().next().copied()
    }

    /// Whether every process alive at the end has decided.
    pub fn all_alive_decided(&self) -> bool {
        (0..self.n)
            .all(|i| !(self.alive_at_end[i] && self.started[i]) || self.decisions[i].is_some())
    }

    /// The worst decision delay after `TS` over processes alive at the end,
    /// excluding processes that restarted after `TS` (whose bound is
    /// relative to their restart; see [`Report::decision_after_restart`]).
    pub fn max_decision_after_ts(&self) -> Option<RealDuration> {
        let mut worst: Option<RealDuration> = None;
        for i in 0..self.n {
            if !self.alive_at_end[i] || !self.started[i] {
                continue;
            }
            // Restarted after TS? Their clock starts at the restart.
            if self.restarts[i].iter().any(|t| *t > self.ts) {
                continue;
            }
            let d = self.decided_at[i]?.saturating_since(self.ts);
            worst = Some(worst.map_or(d, |w| w.max(d)));
        }
        worst
    }

    /// [`Report::max_decision_after_ts`] in units of `δ`.
    pub fn max_decision_after_ts_in_delta(&self) -> Option<f64> {
        self.max_decision_after_ts()
            .map(|d| d.as_nanos() as f64 / self.delta.as_nanos() as f64)
    }

    /// Decision delay after the process's **last restart** (experiment E4).
    /// `None` if it never restarted or never decided.
    pub fn decision_after_restart(&self, pid: ProcessId) -> Option<RealDuration> {
        let decided = self.decided_at[pid.as_usize()]?;
        let last_restart = *self.restarts[pid.as_usize()].last()?;
        Some(decided.saturating_since(last_restart))
    }

    /// A one-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: n={} seed={} decided={}/{} agree={} valid={} max(decide-TS)={:.2}δ msgs={} (post-TS {})",
            self.protocol,
            self.n,
            self.seed,
            self.decisions.iter().flatten().count(),
            self.n,
            self.agreement(),
            self.validity(),
            self.max_decision_after_ts_in_delta().unwrap_or(f64::NAN),
            self.msgs_sent,
            self.msgs_sent_after_ts,
        )
    }
}

pub use esync_trace::{HistogramSummary, LatencyHistogram, PhaseLatency};

/// Commits-per-window timeline: fixed-width windows from time zero, so
/// throughput dips (e.g. around the stabilization time) are visible in
/// artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThroughputTimeline {
    window: RealDuration,
    counts: Vec<u64>,
}

impl ThroughputTimeline {
    /// Creates a timeline with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: RealDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        ThroughputTimeline {
            window,
            counts: Vec::new(),
        }
    }

    /// Counts one commit at `at`.
    pub fn record(&mut self, at: SimTime) {
        let idx = (at.as_nanos() / self.window.as_nanos()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// The window width.
    pub fn window(&self) -> RealDuration {
        self.window
    }

    /// Commits per window, from time zero.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The peak commits-per-window observed.
    pub fn peak(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }
}

/// Per-shard slice of a workload run (artifact schema v3): the commit
/// feed is shard-tagged end to end, so throughput and latency attribute
/// exactly. An unsharded run reports one entry for [`ShardId::ZERO`]
/// whose counts and latency histograms equal the aggregate's (the
/// *span*-derived `commits_per_sec` can differ when submissions never
/// commit — see that field).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardSummary {
    /// The shard index.
    pub shard: u32,
    /// (v5) Commands the protocol's router dispatched to this shard,
    /// summed across processes — client submissions plus forwards,
    /// *before* dedup, so retry pressure shows up as load. Zero when the
    /// driver provided no load counters.
    #[serde(default)]
    pub submitted: u64,
    /// (v5) Commands freshly admitted by this shard after retry dedup,
    /// summed across processes. Zero when the driver provided no load
    /// counters.
    #[serde(default)]
    pub admitted: u64,
    /// Distinct commands whose first commit landed in this shard.
    pub committed: u64,
    /// Extra commits of already-committed ids observed in this shard.
    pub duplicate_commits: u64,
    /// `committed` over the shard's own measured span: first submission
    /// of a command this shard *committed* → the shard's last
    /// first-commit. Commands that never commit anywhere are excluded
    /// from every shard's span (their shard is unknowable at submission),
    /// while they *do* open the aggregate's span — so on lossy runs this
    /// can exceed the aggregate `commits_per_sec` even at one shard.
    pub commits_per_sec: f64,
    /// End-to-end commit latency of this shard's commands.
    pub latency: HistogramSummary,
    /// Latency of this shard's commands submitted before stabilization.
    pub pre_ts: Option<HistogramSummary>,
    /// Latency of this shard's commands submitted at or after it.
    pub post_ts: Option<HistogramSummary>,
}

/// The steady-state workload summary a throughput experiment records per
/// sweep point: commit throughput, end-to-end latency quantiles, and the
/// pre- vs post-stabilization split.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadSummary {
    /// Commands submitted by the generator.
    pub submitted: u64,
    /// Distinct commands committed (first commit per command id).
    pub committed: u64,
    /// Extra commits of already-committed ids (at-least-once re-proposals
    /// across leadership changes).
    pub duplicate_commits: u64,
    /// The measurement span in simulated (or wall, for the threaded
    /// runtime) seconds: first submission to last first-commit.
    pub measured_secs: f64,
    /// `committed / measured_secs`.
    pub commits_per_sec: f64,
    /// End-to-end commit latency (submission → first commit anywhere).
    pub latency: HistogramSummary,
    /// Latency of commands submitted before the stabilization time
    /// (`None` when nothing was, or the split is not applicable).
    pub pre_ts: Option<HistogramSummary>,
    /// Latency of commands submitted at or after the stabilization time.
    pub post_ts: Option<HistogramSummary>,
    /// Commits per timeline window (window width in `timeline_window_ms`).
    pub timeline: Vec<u64>,
    /// The timeline window width, in milliseconds.
    pub timeline_window_ms: f64,
    /// The per-shard split (schema v3), ascending by shard index; never
    /// empty — an unsharded run reports one [`ShardId::ZERO`] entry
    /// mirroring the aggregate counts and latency. Absent in artifacts
    /// written before schema v3; `#[serde(default)]` so readers built
    /// against a full serde treat those as empty (the vendored offline
    /// serde serializes only and ignores the attribute).
    #[serde(default)]
    pub per_shard: Vec<ShardSummary>,
    /// (v5) The shard-imbalance ratio: the hottest shard's committed
    /// count over the per-shard mean (`max / mean`). `1.0` is perfectly
    /// balanced (and the only possible value at one shard); `S` means
    /// one shard took everything; `0.0` when nothing committed. The
    /// one-number summary the rebalancing experiments plot.
    #[serde(default)]
    pub shard_imbalance: f64,
    /// (v6) The traced queue → quorum → learn phase decomposition of
    /// this run's command journeys (see [`PhaseLatency`]). `None` —
    /// serialized as `null` — when typed tracing was disabled, which is
    /// the default: artifacts regenerated without tracing stay
    /// value-identical to pre-v6 ones modulo this field.
    #[serde(default)]
    pub phase_latency: Option<PhaseLatency>,
    /// (v7) The run's health section: the metrics snapshot time series,
    /// every online watchdog firing (live decision bound, anchor churn,
    /// stall, shard imbalance), and the trace-drop count surfaced from
    /// the collectors (see [`esync_metrics::HealthSummary`]). `None` —
    /// serialized as `null` — when metering was disabled, which is the
    /// default: artifacts regenerated without metering stay
    /// value-identical to pre-v7 ones modulo this field.
    #[serde(default)]
    pub health: Option<esync_metrics::HealthSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_report() -> Report {
        Report {
            protocol: "test".into(),
            n: 3,
            seed: 0,
            ts: SimTime::from_millis(100),
            delta: RealDuration::from_millis(10),
            end_time: SimTime::from_millis(500),
            decided_at: vec![
                Some(SimTime::from_millis(150)),
                Some(SimTime::from_millis(160)),
                Some(SimTime::from_millis(170)),
            ],
            decisions: vec![Some(Value::new(5)); 3],
            alive_at_end: vec![true; 3],
            started: vec![true; 3],
            crashes: vec![vec![]; 3],
            restarts: vec![vec![]; 3],
            initial_values: vec![Value::new(5), Value::new(6), Value::new(7)],
            msgs_sent: 100,
            msgs_sent_after_ts: 40,
            msgs_by_kind: BTreeMap::new(),
            msgs_dropped: 3,
            events: 200,
        }
    }

    #[test]
    fn agreement_and_validity_hold() {
        let r = base_report();
        assert!(r.agreement());
        assert!(r.validity());
        assert!(r.all_alive_decided());
        assert_eq!(r.decided_value(), Some(Value::new(5)));
    }

    #[test]
    fn disagreement_detected() {
        let mut r = base_report();
        r.decisions[2] = Some(Value::new(6));
        assert!(!r.agreement());
    }

    #[test]
    fn invalid_value_detected() {
        let mut r = base_report();
        r.decisions[0] = Some(Value::new(999));
        assert!(!r.validity());
    }

    #[test]
    fn undecided_processes_allowed_in_agreement() {
        let mut r = base_report();
        r.decisions[1] = None;
        assert!(r.agreement());
        assert!(!r.all_alive_decided());
        // Dead processes do not count against completion.
        r.alive_at_end[1] = false;
        assert!(r.all_alive_decided());
    }

    #[test]
    fn max_decision_after_ts_in_delta_units() {
        let r = base_report();
        // Worst decide is 170ms, TS 100ms, delta 10ms => 7δ.
        assert_eq!(r.max_decision_after_ts_in_delta(), Some(7.0));
    }

    #[test]
    fn restarted_after_ts_excluded_from_max() {
        let mut r = base_report();
        r.restarts[2] = vec![SimTime::from_millis(120)];
        // p2 restarted post-TS: excluded; worst is now p1 at 6δ.
        assert_eq!(r.max_decision_after_ts_in_delta(), Some(6.0));
        // Its own recovery time is measured from the restart.
        assert_eq!(
            r.decision_after_restart(ProcessId::new(2)),
            Some(RealDuration::from_millis(50))
        );
        // A process that never restarted has no recovery time.
        assert_eq!(r.decision_after_restart(ProcessId::new(0)), None);
    }

    #[test]
    fn pre_ts_decision_counts_as_zero_delay() {
        let mut r = base_report();
        r.decided_at = vec![Some(SimTime::from_millis(50)); 3];
        assert_eq!(r.max_decision_after_ts_in_delta(), Some(0.0));
    }

    #[test]
    fn summary_is_informative() {
        let s = base_report().summary();
        assert!(s.contains("test"));
        assert!(s.contains("agree=true"));
    }

    // (The bucket-index inverse test moved to `esync-trace`'s hist
    // module together with the histogram internals.)

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 5, 31] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min_ns(), Some(0));
        assert_eq!(h.max_ns(), Some(31));
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(1.0), Some(31));
    }

    #[test]
    fn histogram_quantiles_within_relative_error() {
        let mut h = LatencyHistogram::new();
        // 1..=10_000 µs in ns.
        for i in 1..=10_000u64 {
            h.record(i * 1_000);
        }
        let p50 = h.quantile(0.5).unwrap() as f64;
        let p99 = h.quantile(0.99).unwrap() as f64;
        let p999 = h.quantile(0.999).unwrap() as f64;
        assert!((p50 - 5_000_000.0).abs() / 5_000_000.0 < 0.04, "p50={p50}");
        assert!((p99 - 9_900_000.0).abs() / 9_900_000.0 < 0.04, "p99={p99}");
        assert!(
            (p999 - 9_990_000.0).abs() / 9_990_000.0 < 0.04,
            "p999={p999}"
        );
        assert_eq!(h.mean_ns(), Some(5_000_500), "mean is exact, not bucketed");
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut c = LatencyHistogram::new();
        for i in 0..500u64 {
            let v = i * 7919;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
        assert_eq!(a.summary(), c.summary());
    }

    #[test]
    fn histogram_empty_and_summary() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean_ns(), None);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert!(s.buckets.is_empty());
        let mut h = LatencyHistogram::new();
        h.record_duration(RealDuration::from_millis(3));
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.min_ns, 3_000_000);
        assert_eq!(s.buckets.len(), 1);
        assert_eq!(s.buckets[0].1, 1);
    }

    #[test]
    fn timeline_buckets_by_window() {
        let mut t = ThroughputTimeline::new(RealDuration::from_millis(10));
        t.record(SimTime::from_millis(1));
        t.record(SimTime::from_millis(9));
        t.record(SimTime::from_millis(10));
        t.record(SimTime::from_millis(35));
        assert_eq!(t.counts(), &[2, 1, 0, 1]);
        assert_eq!(t.peak(), 2);
    }
}
