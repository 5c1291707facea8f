//! Text rendering of a health file into a cluster-status report.

use crate::jsonl::HealthMeta;
use crate::snapshot::MetricsSnapshot;
use crate::watchdog::{WatchdogFiring, WatchdogKind};
use esync_core::metrics::{Metric, METRIC_COUNT};
use std::fmt::Write as _;

/// Cluster totals at the end of the series: the last snapshot per node
/// (a counter is monotonic, so "last" is "final"), summed. A sim series
/// has one `None` node and this is just its last sample.
fn final_counters(snapshots: &[MetricsSnapshot]) -> [u64; METRIC_COUNT] {
    let mut last: Vec<(Option<u32>, &MetricsSnapshot)> = Vec::new();
    for s in snapshots {
        match last.iter_mut().find(|(node, _)| *node == s.node) {
            Some((_, slot)) if slot.at_ns <= s.at_ns => *slot = s,
            Some(_) => {}
            None => last.push((s.node, s)),
        }
    }
    let mut totals = [0u64; METRIC_COUNT];
    for (_, s) in last {
        for (t, c) in totals.iter_mut().zip(s.counters.iter()) {
            *t += c;
        }
    }
    totals
}

/// Renders a human-readable cluster-status report from a parsed health
/// file: run identity, snapshot coverage, an overall verdict (healthy
/// iff no watchdog fired), final cluster-wide counters, and a per-
/// watchdog firing table. Deterministic for a given input — the sim's
/// report is as reproducible as the run it describes.
pub fn render_report(
    meta: &HealthMeta,
    snapshots: &[MetricsSnapshot],
    firings: &[WatchdogFiring],
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cluster health — {} (seed {}, n {}, backend {})",
        meta.exp, meta.seed, meta.n, meta.backend
    );
    // The latest stamp of any stream: a node that stopped early must not
    // shorten the span the throughput is computed over.
    let span_ns = snapshots.iter().map(|s| s.at_ns).max().unwrap_or(0);
    let mut nodes: Vec<Option<u32>> = Vec::new();
    for s in snapshots {
        if !nodes.contains(&s.node) {
            nodes.push(s.node);
        }
    }
    let _ = writeln!(
        out,
        "snapshots: {} every {:.3}s across {} stream(s), spanning {:.3}s",
        snapshots.len(),
        meta.interval_ns as f64 / 1e9,
        nodes.len().max(1),
        span_ns as f64 / 1e9,
    );
    let verdict = if firings.is_empty() {
        "HEALTHY"
    } else {
        "DEGRADED"
    };
    let _ = writeln!(
        out,
        "status: {verdict} ({} watchdog firings)",
        firings.len()
    );
    let totals = final_counters(snapshots);
    out.push_str("final counters:\n");
    for m in Metric::ALL {
        let v = totals[m as usize];
        if v > 0 {
            let _ = writeln!(out, "  {:<14} {v}", m.name());
        }
    }
    let decided = totals[Metric::Decided as usize];
    if span_ns > 0 && decided > 0 {
        let _ = writeln!(
            out,
            "throughput: {:.1} decided/s",
            decided as f64 / (span_ns as f64 / 1e9)
        );
    }
    out.push_str("watchdogs:\n");
    for kind in WatchdogKind::ALL {
        let of_kind: Vec<&WatchdogFiring> = firings.iter().filter(|f| f.kind == kind).collect();
        match of_kind.last() {
            None => {
                let _ = writeln!(out, "  {:<14} ok", kind.name());
            }
            Some(last) => {
                let _ = writeln!(
                    out,
                    "  {:<14} {} firing(s), last at {:.3}s (value {})",
                    kind.name(),
                    of_kind.len(),
                    last.at_ns as f64 / 1e9,
                    last.value,
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_verdict_and_tables() {
        let meta = HealthMeta {
            exp: "w6_health".to_string(),
            seed: 1,
            n: 3,
            interval_ns: 1_000_000_000,
            backend: "sim".to_string(),
        };
        let mut counters = [0u64; METRIC_COUNT];
        counters[Metric::Decided as usize] = 60;
        let snapshots = vec![
            MetricsSnapshot {
                at_ns: 1_000_000_000,
                node: None,
                counters: [0; METRIC_COUNT],
            },
            MetricsSnapshot {
                at_ns: 2_000_000_000,
                node: None,
                counters,
            },
        ];
        let clean = render_report(&meta, &snapshots, &[]);
        assert!(clean.contains("status: HEALTHY (0 watchdog firings)"));
        assert!(clean.contains("decided        60"));
        assert!(clean.contains("throughput: 30.0 decided/s"));
        assert!(clean.contains("bound          ok"));

        let firings = vec![WatchdogFiring {
            kind: WatchdogKind::Stall,
            at_ns: 2_000_000_000,
            node: None,
            value: 4,
        }];
        let bad = render_report(&meta, &snapshots, &firings);
        assert!(bad.contains("status: DEGRADED (1 watchdog firings)"));
        assert!(bad.contains("stall          1 firing(s), last at 2.000s (value 4)"));
    }

    #[test]
    fn sums_final_counters_across_nodes() {
        let mut a = [0u64; METRIC_COUNT];
        a[Metric::Submitted as usize] = 5;
        let mut b = [0u64; METRIC_COUNT];
        b[Metric::Submitted as usize] = 7;
        let snapshots = vec![
            MetricsSnapshot {
                at_ns: 10,
                node: Some(0),
                counters: [0; METRIC_COUNT],
            },
            MetricsSnapshot {
                at_ns: 20,
                node: Some(0),
                counters: a,
            },
            MetricsSnapshot {
                at_ns: 20,
                node: Some(1),
                counters: b,
            },
        ];
        assert_eq!(final_counters(&snapshots)[Metric::Submitted as usize], 12);
    }

    /// Node 1 stopped early and its series comes last: the span is still
    /// the latest stamp of any node.
    #[test]
    fn span_is_the_latest_stamp_of_any_node() {
        let meta = HealthMeta {
            exp: "rt".to_string(),
            seed: 1,
            n: 2,
            interval_ns: 10_000_000_000,
            backend: "runtime".to_string(),
        };
        let mut decided = [0u64; METRIC_COUNT];
        decided[Metric::Decided as usize] = 40;
        let snap = |at_s: u64, node, counters| MetricsSnapshot {
            at_ns: at_s * 1_000_000_000,
            node: Some(node),
            counters,
        };
        let snapshots = vec![
            snap(10, 0, [0; METRIC_COUNT]),
            snap(20, 0, decided),
            snap(5, 1, decided),
        ];
        let report = render_report(&meta, &snapshots, &[]);
        assert!(report.contains("spanning 20.000s"), "{report}");
        assert!(report.contains("throughput: 4.0 decided/s"), "{report}");
    }
}
