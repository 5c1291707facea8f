//! Passive protocol metrics: the counter half of the observability seam.
//!
//! Like tracing ([`crate::trace`]), metrics ride the sans-IO seam as a
//! **side channel** on the [`Outbox`](crate::outbox::Outbox): the one
//! [`Outbox::event`](crate::outbox::Outbox::event) call that reports a
//! milestone bumps its [`TraceEvent::metric`](crate::trace::TraceEvent::metric)
//! counter, and drivers read the accumulated [`MetricSet`] on their
//! snapshot cadence. Counters never feed back into protocol behaviour,
//! and with metering disabled (the default) the increment is a single
//! predictable branch — disabled runs are bit-identical to
//! uninstrumented ones (tier-1 `tests/metrics_smoke.rs` asserts this on
//! both backends).
//!
//! The counter taxonomy **is** the trace taxonomy: every protocol-fed
//! [`Metric`] is one [`TraceEvent`](crate::trace::TraceEvent) kind, and
//! [`Metric::name`] is the one table of kind names that both the trace
//! and the health codecs read (see [`Metric::from_name`]). Driver-fed
//! counters such as [`Metric::TraceDropped`], which surfaces
//! collector-side loss, come last. The time-series / watchdog layer
//! built on these counters lives in `esync-metrics`; this module is
//! only the allocation-free registry core, here because the `Outbox`
//! must know the type.

/// Number of distinct metrics in the registry (the length of
/// [`Metric::ALL`]).
pub const METRIC_COUNT: usize = 17;

/// One named counter in the registry. Every variant but the driver-fed
/// ones at the end is the kind of one
/// [`TraceEvent`](crate::trace::TraceEvent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Metric {
    /// Phase-1a broadcasts (session entry or ε-retransmission).
    OneASent,
    /// Promise quorums assembled by a coordinator.
    PromiseQuorum,
    /// Anchor events (a coordinator became the stable leader).
    Anchored,
    /// Unanchor events (a process abandoned its ballot).
    Unanchored,
    /// Client submissions received.
    Submitted,
    /// Commands forwarded toward the current leader.
    Forwarded,
    /// Commands freshly admitted by a shard (post-dedup).
    Admitted,
    /// Phase-2a proposals (one per value in a batch).
    Proposed,
    /// Slots that crossed their phase-2b quorum at the leader.
    Chosen,
    /// Per-process command applications (decides).
    Decided,
    /// Retries answered from the log.
    Replied,
    /// Rebalance migrations frozen.
    RebalanceFreeze,
    /// Rebalance migrations drained (control record proposed).
    RebalanceDrain,
    /// Rebalance migrations committed (router boundary moved).
    RebalanceCommit,
    /// Buffered commands re-forwarded after a migration applied.
    RebalanceReforward,
    /// Rebalance migrations aborted.
    RebalanceAbort,
    /// Trace records dropped by the bounded ring collector
    /// (driver-fed: set from the collector at snapshot time, not bumped
    /// by protocols).
    TraceDropped,
}

impl Metric {
    /// Every metric, in registry (serialization) order.
    pub const ALL: [Metric; METRIC_COUNT] = [
        Metric::OneASent,
        Metric::PromiseQuorum,
        Metric::Anchored,
        Metric::Unanchored,
        Metric::Submitted,
        Metric::Forwarded,
        Metric::Admitted,
        Metric::Proposed,
        Metric::Chosen,
        Metric::Decided,
        Metric::Replied,
        Metric::RebalanceFreeze,
        Metric::RebalanceDrain,
        Metric::RebalanceCommit,
        Metric::RebalanceReforward,
        Metric::RebalanceAbort,
        Metric::TraceDropped,
    ];

    /// A short static label naming the counter: the serialization key of
    /// health snapshots and, for protocol-fed counters, the trace `kind`
    /// label. The only table of these names.
    pub fn name(self) -> &'static str {
        match self {
            Metric::OneASent => "1a_sent",
            Metric::PromiseQuorum => "promise_quorum",
            Metric::Anchored => "anchored",
            Metric::Unanchored => "unanchored",
            Metric::Submitted => "submit",
            Metric::Forwarded => "forward",
            Metric::Admitted => "admitted",
            Metric::Proposed => "proposed",
            Metric::Chosen => "chosen",
            Metric::Decided => "decided",
            Metric::Replied => "reply",
            Metric::RebalanceFreeze => "rb_freeze",
            Metric::RebalanceDrain => "rb_drain",
            Metric::RebalanceCommit => "rb_commit",
            Metric::RebalanceReforward => "rb_reforward",
            Metric::RebalanceAbort => "rb_abort",
            Metric::TraceDropped => "trace_dropped",
        }
    }

    /// Inverse of [`name`](Self::name), for the artifact parsers.
    pub fn from_name(name: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// A fixed-size, allocation-free set of counters — one slot per
/// [`Metric`]. This is the passive registry protocols write through
/// [`Outbox::event`](crate::outbox::Outbox::event); drivers sample it
/// into `esync-metrics` snapshots. Plain `u64`s, not atomics: an outbox
/// is single-threaded by construction (one per simulator world / one per
/// runtime node thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSet {
    counters: [u64; METRIC_COUNT],
}

impl Default for MetricSet {
    fn default() -> Self {
        MetricSet::new()
    }
}

impl MetricSet {
    /// An all-zero set.
    pub const fn new() -> Self {
        MetricSet {
            counters: [0; METRIC_COUNT],
        }
    }

    /// Increments `m` by one.
    #[inline]
    pub fn inc(&mut self, m: Metric) {
        self.counters[m as usize] += 1;
    }

    /// Increments `m` by `n`.
    #[inline]
    pub fn add(&mut self, m: Metric, n: u64) {
        self.counters[m as usize] += n;
    }

    /// Overwrites `m` with `v` (for driver-fed values sampled from a
    /// collector, e.g. [`Metric::TraceDropped`]).
    #[inline]
    pub fn set(&mut self, m: Metric, v: u64) {
        self.counters[m as usize] = v;
    }

    /// The current value of `m`.
    #[inline]
    pub fn get(&self, m: Metric) -> u64 {
        self.counters[m as usize]
    }

    /// The raw counter array, in [`Metric::ALL`] order.
    pub fn counters(&self) -> &[u64; METRIC_COUNT] {
        &self.counters
    }

    /// Zeroes every counter.
    pub fn reset(&mut self) {
        self.counters = [0; METRIC_COUNT];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_discriminant_in_order() {
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i, "{m:?} out of registry order");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRIC_COUNT, "duplicate metric names");
    }

    #[test]
    fn from_name_inverts_name() {
        for m in Metric::ALL {
            assert_eq!(Metric::from_name(m.name()), Some(m));
        }
        assert_eq!(Metric::from_name("nope"), None);
    }

    #[test]
    fn inc_add_set_get_roundtrip() {
        let mut s = MetricSet::new();
        s.inc(Metric::Decided);
        s.add(Metric::Decided, 2);
        s.set(Metric::TraceDropped, 41);
        assert_eq!(s.get(Metric::Decided), 3);
        assert_eq!(s.get(Metric::TraceDropped), 41);
        assert_eq!(s.get(Metric::Submitted), 0);
        s.reset();
        assert_eq!(*s.counters(), [0; METRIC_COUNT]);
    }
}
