//! Online invariant watchdogs evaluated on the snapshot cadence.

use crate::snapshot::MetricsSnapshot;
use esync_core::metrics::Metric;
use serde::{Serialize, Serializer};

/// The per-run inputs of the live decision-bound monitor: the paper's
/// `TS + ε + 3τ + 5δ` deadline, pre-computed by the driver (which knows
/// the timing config and the broadcast instant `TS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundSpec {
    /// The broadcast instant `TS` on the driver's time axis, in ns.
    pub ts_ns: u64,
    /// The decision-latency budget `ε + 3τ + 5δ` in ns (plus whatever
    /// slack the driver grants — the sim adds `ε` for the admission
    /// wait, exactly as the offline bound `inspect` replays does).
    pub bound_ns: u64,
}

impl BoundSpec {
    /// The absolute deadline `TS + bound`: a first decision committing
    /// after this instant violates the paper's synchronous-epoch claim.
    #[inline]
    pub fn deadline_ns(&self) -> u64 {
        self.ts_ns.saturating_add(self.bound_ns)
    }
}

/// Which online invariant a [`WatchdogFiring`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WatchdogKind {
    /// A first decision committed after the [`BoundSpec`] deadline.
    Bound,
    /// The anchor changed again after the run had already anchored once:
    /// a re-election happened inside the snapshot window.
    AnchorChurn,
    /// Proposals were live across a whole snapshot window but the
    /// chosen/decided counters never advanced.
    Stall,
    /// The hottest shard's routed load exceeds the configured multiple
    /// of the per-shard mean (the rebalance trigger's ratio).
    Imbalance,
}

impl WatchdogKind {
    /// The four kinds, in declaration order.
    pub const ALL: [WatchdogKind; 4] = [
        WatchdogKind::Bound,
        WatchdogKind::AnchorChurn,
        WatchdogKind::Stall,
        WatchdogKind::Imbalance,
    ];

    /// Stable artifact name, used in `HEALTH_*.jsonl` firing lines and
    /// the workload summary's health section.
    pub fn name(self) -> &'static str {
        match self {
            WatchdogKind::Bound => "bound",
            WatchdogKind::AnchorChurn => "anchor_churn",
            WatchdogKind::Stall => "stall",
            WatchdogKind::Imbalance => "imbalance",
        }
    }

    /// Inverse of [`name`](Self::name), for the artifact parser.
    pub fn from_name(name: &str) -> Option<WatchdogKind> {
        WatchdogKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One watchdog firing: an invariant judged violated at `at_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogFiring {
    /// The violated invariant.
    pub kind: WatchdogKind,
    /// When the violation was observed, on the driver's time axis.
    pub at_ns: u64,
    /// The observing node, or `None` for a cluster-wide (sim) evaluator.
    pub node: Option<u32>,
    /// Kind-specific magnitude: lateness past the deadline in ns
    /// (`Bound`), re-elections inside the window (`AnchorChurn`), live
    /// submissions while chosen stood still (`Stall`), or the load
    /// ratio ×1000 (`Imbalance`).
    pub value: u64,
}

impl Serialize for WatchdogFiring {
    fn serialize(&self, s: &mut Serializer) {
        s.begin_map();
        s.key("at_ns");
        s.value_u64(self.at_ns);
        s.key("node");
        match self.node {
            Some(pid) => s.value_u64(u64::from(pid)),
            None => s.value_null(),
        }
        s.key("watchdog");
        s.value_str(self.kind.name());
        s.key("value");
        s.value_u64(self.value);
        s.end_map();
    }
}

/// Tunables for the [`Watchdogs`] evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// The live decision-bound deadline, or `None` to disable the bound
    /// monitor (e.g. open-loop runs with no single broadcast instant).
    pub bound: Option<BoundSpec>,
    /// Imbalance trip point as a max/mean load ratio ×1000. The default
    /// `3000` (3.0×) sits above the rebalance trigger's default 2.0×, so
    /// the watchdog only fires on skew the rebalancer failed to absorb.
    pub imbalance_ratio_x1000: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            bound: None,
            imbalance_ratio_x1000: 3000,
        }
    }
}

/// The hottest shard's routed load as a multiple of the per-shard mean,
/// ×1000 — the same max/mean statistic the rebalance trigger thresholds
/// on. `None` when fewer than two shards exist or no load has routed
/// yet (a ratio over zero means nothing).
pub fn imbalance_x1000(loads: &[u64]) -> Option<u64> {
    if loads.len() < 2 {
        return None;
    }
    let total: u64 = loads.iter().sum();
    if total == 0 {
        return None;
    }
    let max = *loads.iter().max().expect("len checked above");
    // max/mean = max * S / total, kept in integers.
    Some(max * 1000 * loads.len() as u64 / total)
}

/// The online evaluator: feed it every first decision as it commits
/// ([`on_decision`](Self::on_decision)) and every snapshot as it is
/// taken ([`on_snapshot`](Self::on_snapshot)); it returns firings for
/// the driver to record. Window rules need the previous snapshot, so
/// keep one evaluator per snapshot stream (one for the sim's
/// cluster-wide series, one per node on the runtime).
#[derive(Debug, Clone)]
pub struct Watchdogs {
    cfg: WatchdogConfig,
    prev: Option<MetricsSnapshot>,
}

impl Watchdogs {
    /// A fresh evaluator with no window history.
    pub fn new(cfg: WatchdogConfig) -> Self {
        Watchdogs { cfg, prev: None }
    }

    /// The evaluator's configuration.
    pub fn config(&self) -> &WatchdogConfig {
        &self.cfg
    }

    /// Live bound check, called at the instant a *first* decision
    /// commits (re-decides of the same value are idempotent echoes and
    /// carry no latency claim). Fires when `at_ns` is past the
    /// [`BoundSpec`] deadline, with the lateness as the value.
    pub fn on_decision(&self, at_ns: u64, node: Option<u32>) -> Option<WatchdogFiring> {
        let bound = self.cfg.bound?;
        let deadline = bound.deadline_ns();
        if at_ns <= deadline {
            return None;
        }
        Some(WatchdogFiring {
            kind: WatchdogKind::Bound,
            at_ns,
            node,
            value: at_ns - deadline,
        })
    }

    /// Window rules, evaluated as snapshot `snap` is taken against the
    /// previous snapshot of the same stream:
    ///
    /// * **anchor churn** — `anchored` advanced in a window that started
    ///   with the run already anchored: every increment past the first
    ///   anchor is a re-election.
    /// * **stall** — submissions or forwards landed in the window but
    ///   neither `chosen` nor `decided` moved.
    /// * **imbalance** — the caller-sampled load ratio (from
    ///   [`imbalance_x1000`], `None` when unavailable) is at or past the
    ///   configured trip point.
    ///
    /// Firings are appended to `out`; the snapshot becomes the new
    /// window base either way.
    pub fn on_snapshot(
        &mut self,
        snap: &MetricsSnapshot,
        imbalance_x1000: Option<u64>,
        out: &mut Vec<WatchdogFiring>,
    ) {
        if let Some(prev) = self.prev {
            let d = |m: Metric| snap.counter(m).saturating_sub(prev.counter(m));
            let churn = d(Metric::Anchored);
            if churn > 0 && prev.counter(Metric::Anchored) >= 1 {
                out.push(WatchdogFiring {
                    kind: WatchdogKind::AnchorChurn,
                    at_ns: snap.at_ns,
                    node: snap.node,
                    value: churn,
                });
            }
            let progress = d(Metric::Chosen) + d(Metric::Decided);
            let live = d(Metric::Submitted) + d(Metric::Forwarded);
            if progress == 0 && live > 0 {
                out.push(WatchdogFiring {
                    kind: WatchdogKind::Stall,
                    at_ns: snap.at_ns,
                    node: snap.node,
                    value: live,
                });
            }
        }
        if let Some(ratio) = imbalance_x1000 {
            if ratio >= self.cfg.imbalance_ratio_x1000 {
                out.push(WatchdogFiring {
                    kind: WatchdogKind::Imbalance,
                    at_ns: snap.at_ns,
                    node: snap.node,
                    value: ratio,
                });
            }
        }
        self.prev = Some(*snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esync_core::metrics::METRIC_COUNT;

    fn snap(at_ns: u64, fill: &[(Metric, u64)]) -> MetricsSnapshot {
        let mut counters = [0u64; METRIC_COUNT];
        for &(m, v) in fill {
            counters[m as usize] = v;
        }
        MetricsSnapshot {
            at_ns,
            node: None,
            counters,
        }
    }

    #[test]
    fn kind_names_roundtrip() {
        for k in WatchdogKind::ALL {
            assert_eq!(WatchdogKind::from_name(k.name()), Some(k));
        }
        assert_eq!(WatchdogKind::from_name("nope"), None);
    }

    #[test]
    fn bound_fires_only_past_deadline() {
        let w = Watchdogs::new(WatchdogConfig {
            bound: Some(BoundSpec {
                ts_ns: 100,
                bound_ns: 50,
            }),
            ..WatchdogConfig::default()
        });
        assert_eq!(w.on_decision(150, None), None);
        let f = w.on_decision(160, Some(2)).expect("late decision fires");
        assert_eq!(f.kind, WatchdogKind::Bound);
        assert_eq!(f.value, 10);
        assert_eq!(f.node, Some(2));
        // No spec configured: never fires.
        let off = Watchdogs::new(WatchdogConfig::default());
        assert_eq!(off.on_decision(u64::MAX, None), None);
    }

    #[test]
    fn churn_needs_a_prior_anchor() {
        let mut w = Watchdogs::new(WatchdogConfig::default());
        let mut out = Vec::new();
        // First window: 0 -> 1 anchors. The initial election is not churn.
        w.on_snapshot(&snap(10, &[]), None, &mut out);
        w.on_snapshot(&snap(20, &[(Metric::Anchored, 1)]), None, &mut out);
        assert!(out.is_empty());
        // Second window: 1 -> 3 is two re-elections.
        w.on_snapshot(&snap(30, &[(Metric::Anchored, 3)]), None, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, WatchdogKind::AnchorChurn);
        assert_eq!(out[0].value, 2);
        assert_eq!(out[0].at_ns, 30);
    }

    #[test]
    fn stall_needs_live_proposals() {
        let mut w = Watchdogs::new(WatchdogConfig::default());
        let mut out = Vec::new();
        w.on_snapshot(&snap(10, &[]), None, &mut out);
        // Quiet window: no submissions, no progress — not a stall.
        w.on_snapshot(&snap(20, &[]), None, &mut out);
        assert!(out.is_empty());
        // Submissions land but chosen/decided stand still: stall.
        w.on_snapshot(&snap(30, &[(Metric::Submitted, 5)]), None, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, WatchdogKind::Stall);
        assert_eq!(out[0].value, 5);
        out.clear();
        // Progress resumes: no firing even with more submissions.
        w.on_snapshot(
            &snap(40, &[(Metric::Submitted, 9), (Metric::Chosen, 4)]),
            None,
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn imbalance_trips_at_threshold() {
        let mut w = Watchdogs::new(WatchdogConfig::default());
        let mut out = Vec::new();
        w.on_snapshot(&snap(10, &[]), Some(2999), &mut out);
        assert!(out.is_empty());
        w.on_snapshot(&snap(20, &[]), Some(3000), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, WatchdogKind::Imbalance);
        assert_eq!(out[0].value, 3000);
    }

    #[test]
    fn imbalance_ratio_matches_rebalance_statistic() {
        assert_eq!(imbalance_x1000(&[]), None);
        assert_eq!(imbalance_x1000(&[10]), None);
        assert_eq!(imbalance_x1000(&[0, 0]), None);
        // max/mean = 6 / 3 = 2.0
        assert_eq!(imbalance_x1000(&[6, 2, 1]), Some(2000));
        // Balanced load: exactly 1.0.
        assert_eq!(imbalance_x1000(&[4, 4, 4, 4]), Some(1000));
    }
}
