//! Summary statistics over a set of run reports.

use crate::metrics::{Report, Stats};

/// Statistics of `max(decide − TS)` in units of `δ` over a set of runs.
pub fn decision_stats(reports: &[Report]) -> Option<Stats> {
    Stats::over(
        reports
            .iter()
            .filter_map(|r| r.max_decision_after_ts_in_delta()),
    )
}

/// Statistics of restart recovery (`decide − restart`) in units of `δ` for
/// one process over a set of runs.
pub fn restart_recovery_stats(
    reports: &[Report],
    pid: esync_core::types::ProcessId,
) -> Option<Stats> {
    Stats::over(reports.iter().filter_map(|r| {
        r.decision_after_restart(pid)
            .map(|d| d.as_nanos() as f64 / r.delta.as_nanos() as f64)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{SimConfig, World};
    use esync_core::paxos::session::SessionPaxos;

    fn cfg(seed: u64) -> SimConfig {
        SimConfig::builder(3)
            .seed(seed)
            .stability_at_millis(150)
            .build()
            .unwrap()
    }

    fn run_seeds(seeds: u64) -> Vec<Report> {
        (0..seeds)
            .map(|s| World::new(cfg(s), SessionPaxos::new()).run_to_completion())
            .collect::<Result<_, _>>()
            .unwrap()
    }

    #[test]
    fn run_seeds_produces_one_report_each() {
        let reports = run_seeds(5);
        assert_eq!(reports.len(), 5);
        assert!(reports.iter().all(|r| r.agreement()));
        let stats = decision_stats(&reports).unwrap();
        assert_eq!(stats.count, 5);
        assert!(stats.max < 20.0, "well under ~17δ + slack: {}", stats.max);
    }

    #[test]
    fn restart_stats_empty_without_restarts() {
        let reports = run_seeds(2);
        assert!(restart_recovery_stats(&reports, esync_core::types::ProcessId::new(0)).is_none());
    }
}
