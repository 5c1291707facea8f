//! Observation of a run: the typed trace, the metrics snapshot series
//! and the online watchdogs, all collected by the world's one
//! [`Observer`](esync_metrics::Observer) (cluster-wide, `node = None`, stamped in simulated
//! nanoseconds). None of it feeds back into the run.

use crate::time::SimTime;
use crate::world::World;
use esync_core::outbox::{Process, Protocol};
use esync_core::time::RealDuration;
use esync_core::types::ShardId;
use esync_metrics::{HealthSummary, MetricsSnapshot, WatchdogConfig, WatchdogFiring};

impl<P: Protocol> World<P> {
    /// Starts collecting typed protocol trace events
    /// ([`esync_core::trace::TraceEvent`]) into a bounded ring of `cap`
    /// records, each stamped with the simulated instant of the emitting
    /// event. Tracing never alters protocol behaviour — a traced run's
    /// actions, messages and metrics are bit-identical to an untraced
    /// one — and stays enabled across [`World::reset`] (the buffer is
    /// cleared).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn enable_typed_trace(&mut self, cap: usize) {
        self.obs.enable_trace(cap);
        self.obs.arm(&mut self.scratch);
    }

    /// Starts metering: protocols bump the cluster-wide counter registry
    /// through the outbox side channel, the world samples it into a
    /// [`MetricsSnapshot`] series every `interval` of simulated time
    /// (stamped at exact interval boundaries — each snapshot reflects
    /// precisely the events at instants `≤ at_ns`), and `cfg`'s online
    /// watchdogs are evaluated per snapshot window plus at every first
    /// decision (the live bound monitor). Metering never alters protocol
    /// behaviour — a metered run's actions, messages and report are
    /// bit-identical to an unmetered one (`tests/metrics_smoke.rs`) —
    /// and stays enabled across [`World::reset`] (series cleared,
    /// watchdog windows re-based), mirroring the traces.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn enable_metrics(&mut self, interval: RealDuration, cfg: WatchdogConfig) {
        self.obs.enable_metrics(None, interval.as_nanos(), cfg);
        self.obs.arm(&mut self.scratch);
    }

    /// The snapshot series so far, if [`World::enable_metrics`] was
    /// called.
    pub fn metric_snapshots(&self) -> &[MetricsSnapshot] {
        self.obs.snapshots()
    }

    /// Every watchdog firing so far, in observation order.
    pub fn watchdog_firings(&self) -> &[WatchdogFiring] {
        self.obs.firings()
    }

    /// Takes what the observer collected — the typed trace (oldest
    /// first; empty unless [`World::enable_typed_trace`] was called) and
    /// the health section (`None` unless [`World::enable_metrics`] was)
    /// — leaving both enabled.
    pub fn take_observation(&mut self) -> (Vec<esync_trace::TraceRecord>, Option<HealthSummary>) {
        self.obs.take()
    }

    /// Flushes every snapshot boundary strictly before `end`. `step` passes
    /// the next event's instant: by then all events at instants `≤` the
    /// boundary have been applied and none after, so the sample is exact.
    /// The shard-imbalance probe reads the same per-shard `submitted`
    /// counters the rebalance trigger reads. One `Option` test per call
    /// when metering is off or nothing is due.
    #[inline]
    pub(super) fn flush_metric_snapshots(&mut self, end: SimTime) {
        let (protocol, harness) = (&self.protocol, &self.procs.harness);
        let loads = || {
            let shards = (0..protocol.shard_count() as u32).map(ShardId::new);
            let load = |s| harness.iter().map(move |h| h.proc.shard_load(s).submitted);
            shards.map(|s| load(s).sum()).collect()
        };
        let end_ns = end.as_nanos();
        self.obs.sample_before(&mut self.scratch, end_ns, loads);
    }
}
