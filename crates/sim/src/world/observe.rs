//! Observation of a run: the typed trace collector, the metrics snapshot
//! series and the online watchdogs. None of it feeds back into the run.

use crate::time::SimTime;
use crate::world::World;
use esync_core::metrics::Metric;
use esync_core::outbox::{Process, Protocol};
use esync_core::time::RealDuration;
use esync_core::types::ShardId;
use esync_metrics::{MetricsSnapshot, WatchdogConfig, WatchdogFiring, Watchdogs};

/// What a run is watched through; both halves are off (`None`) unless
/// the application enabled them.
#[derive(Debug, Default)]
pub(super) struct Observation {
    /// The typed trace collector ([`World::enable_typed_trace`]); the
    /// scratch outbox's tracing flag is on exactly while this is `Some`.
    pub(super) typed_trace: Option<esync_trace::TraceBuffer>,
    /// Metrics snapshots and watchdogs ([`World::enable_metrics`]); the
    /// scratch outbox's metering flag is on exactly while this is `Some`.
    pub(super) metrics: Option<MetricsState>,
}

/// Live metrics state ([`World::enable_metrics`]): the snapshot cadence,
/// the collected series, and the online watchdog evaluator. The counters
/// themselves live in the scratch outbox's passive
/// [`MetricSet`](esync_core::metrics::MetricSet) — one cluster-wide
/// registry, since one scratch outbox serves every process.
#[derive(Debug)]
pub(super) struct MetricsState {
    interval: RealDuration,
    next_at: SimTime,
    pub(super) watchdogs: Watchdogs,
    snapshots: Vec<MetricsSnapshot>,
    pub(super) firings: Vec<WatchdogFiring>,
}

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
        self.obs.typed_trace = Some(esync_trace::TraceBuffer::new(cap));
        self.scratch.set_tracing(true);
    }

    /// The typed trace collector, if [`World::enable_typed_trace`] was
    /// called.
    pub fn typed_trace(&self) -> Option<&esync_trace::TraceBuffer> {
        self.obs.typed_trace.as_ref()
    }

    /// Takes the collected typed trace records (oldest first), leaving
    /// collection enabled. Empty when tracing was never enabled.
    pub fn take_typed_trace(&mut self) -> Vec<esync_trace::TraceRecord> {
        self.obs
            .typed_trace
            .as_mut()
            .map(|tt| tt.take_records())
            .unwrap_or_default()
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
        assert!(interval > RealDuration::ZERO, "a snapshot cadence is required");
        self.obs.metrics = Some(MetricsState {
            interval,
            next_at: SimTime::ZERO + interval,
            watchdogs: Watchdogs::new(cfg),
            snapshots: Vec::new(),
            firings: Vec::new(),
        });
        self.scratch.set_metering(true);
    }

    /// The snapshot series so far, if [`World::enable_metrics`] was
    /// called.
    pub fn metric_snapshots(&self) -> &[MetricsSnapshot] {
        self.obs.metrics.as_ref().map_or(&[], |m| &m.snapshots)
    }

    /// Every watchdog firing so far, in observation order.
    pub fn watchdog_firings(&self) -> &[WatchdogFiring] {
        self.obs.metrics.as_ref().map_or(&[], |m| &m.firings)
    }

    /// The metering cadence, if [`World::enable_metrics`] was called.
    pub fn metrics_interval(&self) -> Option<RealDuration> {
        self.obs.metrics.as_ref().map(|m| m.interval)
    }

    /// Takes the collected snapshots and firings, leaving metering
    /// enabled. Empty when metering was never enabled.
    pub fn take_metrics(&mut self) -> (Vec<MetricsSnapshot>, Vec<WatchdogFiring>) {
        self.obs
            .metrics
            .as_mut()
            .map(|m| (std::mem::take(&mut m.snapshots), std::mem::take(&mut m.firings)))
            .unwrap_or_default()
    }

    /// Clears the trace and restarts the metrics series for a fresh run;
    /// whatever was enabled stays enabled.
    pub(super) fn reset_observation(&mut self) {
        if let Some(tt) = self.obs.typed_trace.as_mut() {
            tt.clear();
        }
        if let Some(state) = self.obs.metrics.as_mut() {
            state.next_at = SimTime::ZERO + state.interval;
            state.snapshots.clear();
            state.firings.clear();
            state.watchdogs = Watchdogs::new(*state.watchdogs.config());
            // Outbox::reset keeps counters (registries are sampled, not
            // drained); a fresh run starts its series from zero.
            self.scratch.metrics_mut().reset();
        }
    }

    /// Samples the registry into a snapshot stamped with the due boundary,
    /// evaluating the window watchdogs. `TraceDropped` is surfaced from the
    /// typed-trace collector first, and the shard-imbalance ratio is probed
    /// from the same per-shard `submitted` counters the rebalance trigger
    /// reads (sharded protocols only).
    fn take_metric_snapshot(&mut self) {
        let Some(state) = self.obs.metrics.as_mut() else {
            return;
        };
        let dropped = self
            .obs
            .typed_trace
            .as_ref()
            .map_or(0, esync_trace::TraceBuffer::dropped);
        self.scratch.metrics_mut().set(Metric::TraceDropped, dropped);
        let shards = self.protocol.shard_count();
        let imbalance = if shards > 1 {
            let loads: Vec<u64> = (0..shards as u32)
                .map(|s| {
                    let shard = ShardId::new(s);
                    self.procs
                        .harness
                        .iter()
                        .map(|h| h.proc.shard_load(shard).submitted)
                        .sum()
                })
                .collect();
            esync_metrics::imbalance_x1000(&loads)
        } else {
            None
        };
        let snap = MetricsSnapshot {
            at_ns: state.next_at.as_nanos(),
            node: None,
            counters: *self.scratch.metrics().counters(),
        };
        state.watchdogs.on_snapshot(&snap, imbalance, &mut state.firings);
        state.snapshots.push(snap);
        state.next_at = state.next_at + state.interval;
    }

    /// Flushes every snapshot boundary strictly before `end`. `step` passes
    /// the next event's instant: by then all events at instants `≤` the
    /// boundary have been applied and none after, so the sample is exact.
    /// One `Option` test per call when metering is off or nothing is due.
    #[inline]
    pub(super) fn flush_metric_snapshots(&mut self, end: SimTime) {
        while self.obs.metrics.as_ref().is_some_and(|m| m.next_at < end) {
            self.take_metric_snapshot();
        }
    }
}
