//! # esync-metrics — always-on metrics and online invariant watchdogs
//!
//! The *online* half of the observability story. Where `esync-trace`
//! answers "where did each decision's latency go?" after the fact, this
//! crate judges a run **while it executes**:
//!
//! * **Counters** — protocols bump the allocation-free counter registry
//!   ([`Metric`], [`MetricSet`], defined in `esync-core` because the
//!   `Outbox` owns the passive set) through the same sans-IO side
//!   channel as tracing.
//! * **Observer** — one [`Observer`] per snapshot stream (the sim's
//!   world holds one for the cluster, every runtime node its own) owns
//!   the trace ring and the metering state: it samples the registry on a
//!   fixed cadence into [`MetricsSnapshot`] time series (sim time on the
//!   simulator, wall time since cluster start on the runtime), runs the
//!   watchdogs, and hands back the trace and the schema-v7 `health`
//!   section ([`HealthSummary`]) that workload artifacts embed.
//! * **Watchdogs** — [`Watchdogs`] evaluates online invariants on the
//!   snapshot cadence: the live per-decision bound monitor (the paper's
//!   `TS + ε + 3τ + 5δ`, checked the moment a decision commits), the
//!   anchor-churn detector, the stall detector, and the shard-imbalance
//!   watch reusing the rebalance trigger's load ratios.
//! * **`HEALTH_*.jsonl`** — a documented JSONL export ([`jsonl`]) read
//!   back through the same reader and [`ParseError`] as `TRACE_*.jsonl`,
//!   rendered into a cluster-status report ([`render_report`]) by
//!   `crates/check`'s `inspect` binary.
//!
//! The latency histogram machinery the registry's future gauges summarize
//! with lives in `esync-trace` ([`LatencyHistogram`], [`HistogramSummary`]
//! — re-exported here so metrics consumers need only this crate).
//!
//! Disabled runs are bit-identical to unmetered ones, seed for seed, on
//! both backends — asserted by tier-1 `tests/metrics_smoke.rs`, the same
//! contract `trace_smoke` pins for tracing.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod health;
pub mod jsonl;
mod observer;
mod report;
mod snapshot;
mod watchdog;

pub use esync_core::metrics::{Metric, MetricSet, METRIC_COUNT};
pub use esync_trace::{HistogramSummary, LatencyHistogram, ParseError};
pub use health::HealthSummary;
pub use jsonl::{
    parse_health_jsonl, parse_health_line, write_health_jsonl, HealthLine, HealthMeta,
};
pub use observer::Observer;
pub use report::render_report;
pub use snapshot::MetricsSnapshot;
pub use watchdog::{
    imbalance_x1000, BoundSpec, WatchdogConfig, WatchdogFiring, WatchdogKind, Watchdogs,
};
