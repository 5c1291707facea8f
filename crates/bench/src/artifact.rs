//! Machine-readable benchmark artifacts (`BENCH_<experiment>.json`).
//!
//! Every experiment serializes its sweeps so future PRs have a perf and
//! correctness trajectory to diff against. Each record embeds the exact
//! [`SimConfig`] it was produced from — every number in an artifact is
//! reproducible from the artifact alone. The JSON schema is documented in
//! `crates/bench/README.md`.

use esync_sim::metrics::WorkloadSummary;
use esync_sim::{Report, SimConfig};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Duration;

/// Aggregate statistics (in `δ` units) over the per-seed decision delays.
#[derive(Debug, Clone, Serialize)]
pub struct DelayQuantiles {
    /// Observations contributing (seeds where someone decided).
    pub count: usize,
    /// Smallest observation.
    pub min: f64,
    /// 50th percentile (nearest-rank).
    pub median: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl DelayQuantiles {
    /// Computes quantiles over `xs`; `None` if empty.
    pub fn over(xs: impl IntoIterator<Item = f64>) -> Option<DelayQuantiles> {
        let mut v: Vec<f64> = xs.into_iter().filter(|x| x.is_finite()).collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let nearest = |q: f64| {
            let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
            v[rank - 1]
        };
        Some(DelayQuantiles {
            count: v.len(),
            min: v[0],
            median: nearest(0.50),
            p99: nearest(0.99),
            max: *v.last().expect("non-empty"),
            mean: v.iter().sum::<f64>() / v.len() as f64,
        })
    }
}

/// One seed's (or one custom job's) outcome inside a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRecord {
    /// The run's seed.
    pub seed: u64,
    /// `max(decide − TS)` in δ units (`None` if nobody counted).
    pub delay_after_ts_delta: Option<f64>,
    /// Processes that decided.
    pub decided: usize,
    /// Process count.
    pub n: usize,
    /// Agreement held.
    pub agreement: bool,
    /// Validity held.
    pub validity: bool,
    /// Messages handed to the network.
    pub msgs_sent: u64,
    /// Messages sent at or after `TS`.
    pub msgs_sent_after_ts: u64,
    /// Events processed.
    pub events: u64,
}

impl SweepRecord {
    /// Extracts the record of one report.
    pub fn from_report(r: &Report) -> SweepRecord {
        SweepRecord {
            seed: r.seed,
            delay_after_ts_delta: r.max_decision_after_ts_in_delta(),
            decided: r.decisions.iter().flatten().count(),
            n: r.n,
            agreement: r.agreement(),
            validity: r.validity(),
            msgs_sent: r.msgs_sent,
            msgs_sent_after_ts: r.msgs_sent_after_ts,
            events: r.events,
        }
    }
}

/// One sweep's aggregate: what a row (or row group) of an experiment table
/// is computed from.
#[derive(Debug, Clone, Serialize)]
pub struct SweepSummary {
    /// Human-readable sub-case label (e.g. `"n=9 silent"`).
    pub label: String,
    /// Protocol name (from the first report).
    pub protocol: Option<String>,
    /// The exact seed-0 configuration, when it is constant across the
    /// sweep modulo the per-record seed — it round-trips into the
    /// artifact so every number is reproducible from the artifact alone.
    /// `None` when records vary structurally beyond the seed (the label
    /// documents the per-record mapping); non-config inputs such as
    /// injected adversary messages are likewise named by the label.
    pub config: Option<SimConfig>,
    /// Seeds (or custom jobs) in the sweep.
    pub seeds: u64,
    /// Threads the sweep ran on.
    pub threads: usize,
    /// Wall-clock time of the whole sweep, in seconds.
    pub wall_secs: f64,
    /// Completed runs per wall-clock second.
    pub runs_per_sec: f64,
    /// Decision-delay quantiles in δ units (`None` if nobody decided).
    pub delay_after_ts_delta: Option<DelayQuantiles>,
    /// Total messages across the sweep.
    pub msgs_sent_total: u64,
    /// (v4) Total messages across the sweep, split by protocol message
    /// kind (`"1a"`, `"1b"`, `"2a"`, `"2b"`, `"forward"`, `"decided"`,
    /// …) as `[kind, count]` pairs in ascending kind order. The message
    /// *composition* is what the session-sharing experiment (`exp_w4`)
    /// quantifies — idle-period traffic is 1a/1b, load traffic 2a/2b —
    /// so artifacts carry the split, not just the total.
    pub msgs_by_kind: Vec<(String, u64)>,
    /// Total events across the sweep.
    pub events_total: u64,
    /// Per-seed outcomes.
    pub records: Vec<SweepRecord>,
    /// Experiment-specific named scalars (slopes, worst-case latencies,
    /// analytic bounds, …).
    pub extra: Vec<(String, f64)>,
    /// Steady-state workload measurements (throughput experiments only:
    /// commits/sec, latency histogram, pre/post-stability split). `null`
    /// for single-shot sweeps.
    pub workload: Option<WorkloadSummary>,
}

impl SweepSummary {
    /// Builds the summary of a completed sweep.
    pub fn from_reports(
        label: &str,
        config: Option<SimConfig>,
        reports: &[Report],
        threads: usize,
        wall: Duration,
    ) -> SweepSummary {
        let records: Vec<SweepRecord> = reports.iter().map(SweepRecord::from_report).collect();
        let wall_secs = wall.as_secs_f64();
        let mut by_kind: std::collections::BTreeMap<String, u64> =
            std::collections::BTreeMap::new();
        for r in reports {
            for (k, v) in &r.msgs_by_kind {
                *by_kind.entry(k.clone()).or_insert(0) += v;
            }
        }
        SweepSummary {
            label: label.to_string(),
            protocol: reports.first().map(|r| r.protocol.clone()),
            config,
            seeds: reports.len() as u64,
            threads,
            wall_secs,
            runs_per_sec: if wall_secs > 0.0 {
                reports.len() as f64 / wall_secs
            } else {
                f64::INFINITY
            },
            delay_after_ts_delta: DelayQuantiles::over(
                records.iter().filter_map(|r| r.delay_after_ts_delta),
            ),
            msgs_sent_total: records.iter().map(|r| r.msgs_sent).sum(),
            msgs_by_kind: by_kind.into_iter().collect(),
            events_total: records.iter().map(|r| r.events).sum(),
            records,
            extra: Vec::new(),
            workload: None,
        }
    }

    /// Attaches a named scalar (consumed-and-returned for chaining).
    #[must_use]
    pub fn with_extra(mut self, name: &str, value: f64) -> SweepSummary {
        self.extra.push((name.to_string(), value));
        self
    }

    /// Attaches a workload summary (throughput experiments).
    #[must_use]
    pub fn with_workload(mut self, workload: WorkloadSummary) -> SweepSummary {
        self.workload = Some(workload);
        self
    }
}

/// The artifact schema version this crate writes (see
/// `crates/bench/README.md`); v2 added the per-sweep `workload` field,
/// v3 the per-shard split (`workload.per_shard[]`) of the sharded
/// log-group experiments, v4 the per-sweep `msgs_by_kind` totals that
/// the session-sharing experiment (`exp_w4`) reads its idle-traffic
/// composition from, v5 the imbalance observability (`submitted`/
/// `admitted` per shard and the `shard_imbalance` ratio) that the
/// rebalancing experiment (`exp_w5`) reads, v6 the typed-tracing phase
/// decomposition (`workload.phase_latency`, `null` unless the run was
/// traced — see `esync-trace`), v7 the metrics/watchdog health section
/// (`workload.health`, `null` unless the run was metered — see
/// `esync-metrics`) and the trace writer's `dropped` meta field.
pub const SCHEMA_VERSION: u32 = 7;

/// A whole experiment's artifact: every sweep it ran, plus context.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentArtifact {
    /// Experiment id (e.g. `"exp_e1_decision_vs_n"`).
    pub experiment: String,
    /// One-line description of the claim under test.
    pub description: String,
    /// Schema version of this artifact format.
    pub schema_version: u32,
    /// The sweeps, in execution order.
    pub sweeps: Vec<SweepSummary>,
}

impl ExperimentArtifact {
    /// Starts an artifact for `experiment`.
    pub fn new(experiment: &str, description: &str) -> Self {
        ExperimentArtifact {
            experiment: experiment.to_string(),
            description: description.to_string(),
            schema_version: SCHEMA_VERSION,
            sweeps: Vec::new(),
        }
    }

    /// Appends a sweep.
    pub fn push(&mut self, sweep: SweepSummary) {
        self.sweeps.push(sweep);
    }

    /// Writes `BENCH_<experiment>.json` into the artifact directory
    /// (`$BENCH_OUT_DIR`, defaulting to the workspace root) and returns
    /// the path.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written — benchmark artifacts are the
    /// point of the run, so failing loudly beats a silent skip.
    pub fn write(&self) -> PathBuf {
        let dir = std::env::var_os("BENCH_OUT_DIR").map_or_else(
            || {
                // crates/bench → workspace root.
                PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                    .join("..")
                    .join("..")
            },
            PathBuf::from,
        );
        let dir = dir.canonicalize().unwrap_or(dir);
        let path = dir.join(format!("BENCH_{}.json", self.experiment));
        let json = serde_json::to_string_pretty(self).expect("artifact serializes");
        std::fs::write(&path, json + "\n")
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("wrote {}", path.display());
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_nearest_rank() {
        let q = DelayQuantiles::over((1..=100).map(|i| i as f64)).unwrap();
        assert_eq!(q.count, 100);
        assert_eq!(q.min, 1.0);
        assert_eq!(q.median, 50.0);
        assert_eq!(q.p99, 99.0);
        assert_eq!(q.max, 100.0);
        assert!((q.mean - 50.5).abs() < 1e-9);
        assert!(DelayQuantiles::over(std::iter::empty()).is_none());
        // NaN observations (undecided runs) are dropped, not propagated.
        let q = DelayQuantiles::over(vec![f64::NAN, 2.0]).unwrap();
        assert_eq!(q.count, 1);
        assert_eq!(q.median, 2.0);
    }

    #[test]
    fn artifact_serializes_with_schema() {
        let mut a = ExperimentArtifact::new("exp_test", "unit test artifact");
        a.push(SweepSummary::from_reports(
            "empty",
            None,
            &[],
            1,
            Duration::from_millis(10),
        ));
        let json = serde_json::to_string(&a).unwrap();
        assert!(json.contains("\"experiment\":\"exp_test\""));
        assert!(json.contains("\"schema_version\":7"));
        assert!(json.contains("\"msgs_by_kind\""));
        assert!(json.contains("\"runs_per_sec\""));
        assert!(json.contains("\"workload\":null"));
    }
}
