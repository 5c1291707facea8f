//! One observer per snapshot stream, shared by both backends.

use crate::health::HealthSummary;
use crate::snapshot::MetricsSnapshot;
use crate::watchdog::{imbalance_x1000, WatchdogConfig, WatchdogFiring, Watchdogs};
use esync_core::metrics::Metric;
use esync_core::outbox::Outbox;
use esync_core::types::ProcessId;
use esync_trace::{TraceBuffer, TraceRecord};

/// What a driver watches a run through: an optional typed-trace ring and
/// an optional metering part (the node tag, the snapshot cadence, the
/// [`Watchdogs`], the series and its firings). Both are off until
/// enabled, and nothing here feeds back into the run.
///
/// One observer per snapshot stream: the simulator's world holds one for
/// the whole cluster (`node = None`, times in simulated nanoseconds),
/// each runtime node its own (`node = Some(pid)`, times in wall
/// nanoseconds since cluster start). The backends differ only in what
/// they call: the runtime also takes an exit snapshot
/// ([`sample_exit`](Self::sample_exit)), the simulator re-bases the
/// observer on `World::reset`.
#[derive(Debug, Default)]
pub struct Observer {
    trace: Option<TraceBuffer>,
    meter: Option<Meter>,
}

/// The metering part of an [`Observer`].
#[derive(Debug)]
struct Meter {
    /// Tags the snapshots and the bound firings.
    node: Option<u32>,
    interval_ns: u64,
    /// The next snapshot boundary.
    next_ns: u64,
    watchdogs: Watchdogs,
    snapshots: Vec<MetricsSnapshot>,
    firings: Vec<WatchdogFiring>,
}

impl Meter {
    /// Samples `out`'s registry at `at_ns`, surfacing the trace ring's
    /// drop count into [`Metric::TraceDropped`] first.
    fn stamp<M>(&self, out: &mut Outbox<M>, dropped: u64, at_ns: u64) -> MetricsSnapshot {
        out.metrics_mut().set(Metric::TraceDropped, dropped);
        MetricsSnapshot {
            at_ns,
            node: self.node,
            counters: *out.metrics().counters(),
        }
    }
}

impl Observer {
    /// Collects typed trace events into a keep-newest ring of `cap`
    /// records.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace = Some(TraceBuffer::new(cap));
    }

    /// Samples the registry every `interval_ns`, stamped at exact
    /// boundaries and tagged `node`, and evaluates `cfg`'s watchdogs on
    /// each sample and at every first decision.
    ///
    /// # Panics
    ///
    /// Panics if `interval_ns` is zero.
    pub fn enable_metrics(&mut self, node: Option<u32>, interval_ns: u64, cfg: WatchdogConfig) {
        assert!(interval_ns > 0, "a snapshot cadence is required");
        self.meter = Some(Meter {
            node,
            interval_ns,
            next_ns: interval_ns,
            watchdogs: Watchdogs::new(cfg),
            snapshots: Vec::new(),
            firings: Vec::new(),
        });
    }

    /// Turns `out`'s tracing and metering side channels on exactly while
    /// this observer collects them.
    pub fn arm<M>(&self, out: &mut Outbox<M>) {
        out.set_tracing(self.trace.is_some());
        out.set_metering(self.meter.is_some());
    }

    /// Drains the trace events `pid`'s handler left in `out` into the
    /// ring, each stamped `at_ns`. One `Option` test when tracing is off.
    #[inline]
    pub fn drain_trace<M>(&mut self, out: &mut Outbox<M>, pid: ProcessId, at_ns: u64) {
        if let Some(buf) = self.trace.as_mut() {
            for ev in out.drain_trace() {
                buf.push(TraceRecord { at_ns, pid, ev });
            }
        }
    }

    /// The live bound check, called when a process's *first* decision
    /// lands at `at_ns`: the online half of the paper's
    /// `TS + ε + 3τ + 5δ` claim.
    #[inline]
    pub fn on_first_decision(&mut self, at_ns: u64) {
        if let Some(m) = self.meter.as_mut() {
            m.firings.extend(m.watchdogs.on_decision(at_ns, m.node));
        }
    }

    /// The next snapshot boundary, when metering.
    pub fn next_snapshot_ns(&self) -> Option<u64> {
        self.meter.as_ref().map(|m| m.next_ns)
    }

    /// Takes every snapshot whose boundary lies strictly before `end_ns`,
    /// each stamped at its boundary and judged by the window watchdogs.
    /// The caller passes the first instant it has *not* applied yet, so a
    /// sample reflects exactly the events at instants `≤ at_ns`.
    /// `loads` (the per-shard routed load for the imbalance watch) is
    /// read once, and only when a boundary is due. One `Option` test
    /// when metering is off or nothing is due.
    #[inline]
    pub fn sample_before<M>(
        &mut self,
        out: &mut Outbox<M>,
        end_ns: u64,
        loads: impl FnOnce() -> Vec<u64>,
    ) {
        let Some(m) = self.meter.as_mut().filter(|m| m.next_ns < end_ns) else {
            return;
        };
        let dropped = self.trace.as_ref().map_or(0, TraceBuffer::dropped);
        let imbalance = imbalance_x1000(&loads());
        while m.next_ns < end_ns {
            let snap = m.stamp(out, dropped, m.next_ns);
            m.watchdogs.on_snapshot(&snap, imbalance, &mut m.firings);
            m.snapshots.push(snap);
            m.next_ns += m.interval_ns;
        }
    }

    /// One last snapshot at `at_ns`, off the cadence and not judged by
    /// the window watchdogs: the runtime's exit sample, so a run shorter
    /// than one interval still ships the node's totals.
    pub fn sample_exit<M>(&mut self, out: &mut Outbox<M>, at_ns: u64) {
        let dropped = self.trace_dropped();
        if let Some(m) = self.meter.as_mut() {
            let snap = m.stamp(out, dropped, at_ns);
            m.snapshots.push(snap);
        }
    }

    /// Re-bases for a fresh run: the ring, the series and the firings are
    /// emptied, the cadence and the watchdog window restart from zero,
    /// and `out`'s registry is zeroed (`Outbox::reset` keeps counters,
    /// which are sampled, never drained). Whatever was enabled stays
    /// enabled.
    pub fn reset<M>(&mut self, out: &mut Outbox<M>) {
        if let Some(buf) = self.trace.as_mut() {
            buf.clear();
        }
        if let Some(m) = self.meter.as_mut() {
            m.next_ns = m.interval_ns;
            m.snapshots.clear();
            m.firings.clear();
            m.watchdogs = Watchdogs::new(*m.watchdogs.config());
            out.metrics_mut().reset();
        }
    }

    /// The snapshot series so far (empty unless metering).
    pub fn snapshots(&self) -> &[MetricsSnapshot] {
        self.meter.as_ref().map_or(&[], |m| &m.snapshots)
    }

    /// Every watchdog firing so far, in observation order.
    pub fn firings(&self) -> &[WatchdogFiring] {
        self.meter.as_ref().map_or(&[], |m| &m.firings)
    }

    /// Trace records the ring has evicted (0 when tracing is off).
    pub fn trace_dropped(&self) -> u64 {
        self.trace.as_ref().map_or(0, TraceBuffer::dropped)
    }

    /// Hands back what was collected: the trace, oldest first (empty when
    /// tracing is off), and the health section when metering. Collection
    /// stays enabled and the cadence goes on where it was.
    pub fn take(&mut self) -> (Vec<TraceRecord>, Option<HealthSummary>) {
        let trace_dropped = self.trace_dropped();
        let trace = self.trace.as_mut().map(TraceBuffer::take_records);
        let health = self.meter.as_mut().map(|m| HealthSummary {
            interval_ns: m.interval_ns,
            snapshots: std::mem::take(&mut m.snapshots),
            firings: std::mem::take(&mut m.firings),
            trace_dropped,
        });
        (trace.unwrap_or_default(), health)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::{BoundSpec, WatchdogKind};
    use esync_core::trace::TraceEvent;

    const ANCHORED: TraceEvent = TraceEvent::Anchored { ballot: 1 };

    fn metered(node: Option<u32>, cfg: WatchdogConfig) -> (Observer, Outbox<()>) {
        let mut obs = Observer::default();
        obs.enable_metrics(node, 10, cfg);
        let mut out = Outbox::default();
        obs.arm(&mut out);
        (obs, out)
    }

    fn at_ns(obs: &Observer) -> Vec<u64> {
        obs.snapshots().iter().map(|s| s.at_ns).collect()
    }

    #[test]
    fn samples_exact_boundaries_strictly_before_the_end() {
        let (mut obs, mut out) = metered(Some(2), WatchdogConfig::default());
        obs.sample_before(&mut out, 35, Vec::new);
        assert_eq!(at_ns(&obs), [10, 20, 30]);
        // A boundary equal to the end is not taken: events at it may
        // still be pending.
        obs.sample_before(&mut out, 40, || unreachable!("nothing due"));
        assert_eq!(obs.next_snapshot_ns(), Some(40));
        obs.sample_before(&mut out, 41, Vec::new);
        assert_eq!(at_ns(&obs), [10, 20, 30, 40]);
        assert!(obs.snapshots().iter().all(|s| s.node == Some(2)));
        // The exit sample is stamped where it is taken, off the cadence.
        obs.sample_exit(&mut out, 47);
        assert_eq!(at_ns(&obs), [10, 20, 30, 40, 47]);
    }

    #[test]
    fn trace_drops_are_surfaced_into_the_counters() {
        let (mut obs, mut out) = metered(None, WatchdogConfig::default());
        obs.enable_trace(1);
        obs.arm(&mut out);
        for value in 0..3 {
            out.event(TraceEvent::Submit { value });
        }
        obs.drain_trace(&mut out, ProcessId::new(0), 5);
        assert_eq!(obs.trace_dropped(), 2);
        obs.sample_before(&mut out, 11, Vec::new);
        assert_eq!(obs.snapshots()[0].counter(Metric::TraceDropped), 2);
        let (trace, health) = obs.take();
        assert_eq!(trace.len(), 1, "the ring keeps the newest record");
        assert_eq!(health.expect("metering").trace_dropped, 2);
    }

    #[test]
    fn imbalance_watch_is_silent_below_two_shards() {
        let cfg = WatchdogConfig {
            imbalance_ratio_x1000: 1000,
            ..WatchdogConfig::default()
        };
        let (mut obs, mut out) = metered(None, cfg);
        obs.sample_before(&mut out, 11, || vec![50]);
        assert_eq!(obs.firings(), &[]);
        obs.sample_before(&mut out, 21, || vec![9, 1]);
        assert_eq!(obs.firings().len(), 1);
        assert_eq!(obs.firings()[0].kind, WatchdogKind::Imbalance);
    }

    #[test]
    fn a_late_first_decision_fires_once_with_the_node_tag() {
        let cfg = WatchdogConfig {
            bound: Some(BoundSpec {
                ts_ns: 0,
                bound_ns: 10,
            }),
            ..WatchdogConfig::default()
        };
        let (mut obs, _) = metered(Some(3), cfg);
        obs.on_first_decision(10);
        assert_eq!(obs.firings(), &[], "on the deadline is in time");
        obs.on_first_decision(25);
        let firing = WatchdogFiring {
            kind: WatchdogKind::Bound,
            at_ns: 25,
            node: Some(3),
            value: 15,
        };
        assert_eq!(obs.firings(), &[firing]);
        // Without metering there is nothing to judge against.
        let mut off = Observer::default();
        off.on_first_decision(25);
        assert_eq!(off.firings(), &[]);
    }

    #[test]
    fn reset_rebases_series_window_and_counters() {
        let (mut obs, mut out) = metered(None, WatchdogConfig::default());
        out.event(ANCHORED);
        obs.sample_before(&mut out, 21, Vec::new);
        obs.reset(&mut out);
        assert_eq!(obs.snapshots(), &[]);
        assert_eq!(obs.next_snapshot_ns(), Some(10));
        assert_eq!(out.metrics().get(Metric::Anchored), 0, "counters zeroed");
        // Two anchors after an anchored window would be churn; after a
        // reset the window starts empty, so the first sample is a base.
        out.event(ANCHORED);
        out.event(ANCHORED);
        obs.sample_before(&mut out, 11, Vec::new);
        assert_eq!(at_ns(&obs), [10]);
        assert_eq!(obs.firings(), &[]);
    }
}
