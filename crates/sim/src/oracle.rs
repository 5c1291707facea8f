//! Idealized oracles for the baselines.
//!
//! Two of the implemented algorithms assume services the paper treats as
//! given:
//!
//! * **Traditional Paxos** (§2) "assumes a leader-election procedure …
//!   guaranteed to choose a unique, nonfaulty leader within O(δ) seconds
//!   after the system is stable". [`LeaderOracle`] provides exactly that:
//!   at `TS + announce_after` it announces the lowest-id live process to
//!   everyone (and to every process that restarts later).
//! * **Original B-Consensus** (§5) assumes a weak-ordering oracle.
//!   [`plan_wab_delivery`] implements the idealized version: once stable,
//!   a w-broadcast message reaches *every* process at the *same* instant,
//!   so all processes w-deliver the same sequence; before stability,
//!   per-destination loss and delay scramble the order arbitrarily.
//!
//! The paper's own contributions use neither: modified Paxos elects no
//! leader, and modified B-Consensus implements the oracle in-process.

use crate::network::Network;
use crate::time::SimTime;
use esync_core::time::RealDuration;
use esync_core::types::ProcessId;
use rand::Rng;

/// The idealized leader-election oracle.
#[derive(Debug, Clone)]
pub struct LeaderOracle {
    /// How long after `TS` the stable announcement happens (default `2δ`).
    pub announce_after: RealDuration,
    announced: Option<ProcessId>,
}

impl LeaderOracle {
    /// Creates the oracle.
    pub fn new(announce_after: RealDuration) -> Self {
        LeaderOracle {
            announce_after,
            announced: None,
        }
    }

    /// When the stable announcement fires.
    pub fn announce_time(&self, ts: SimTime) -> SimTime {
        ts + self.announce_after
    }

    /// Records the stable choice: the lowest-id process alive at announce
    /// time (unique and nonfaulty thereafter, since no process fails after
    /// `TS`).
    pub fn announce(&mut self, alive: impl Iterator<Item = ProcessId>) -> Option<ProcessId> {
        let leader = alive.min();
        self.announced = leader;
        leader
    }

    /// The announced leader, if the announcement already happened.
    pub fn current(&self) -> Option<ProcessId> {
        self.announced
    }
}

/// Plans the w-delivery schedule for one w-broadcast sent at `at`.
///
/// Returns `(destination, Some(arrival))` or `(destination, None)` for a
/// loss. After stability every destination shares a single arrival instant
/// (sampled once), which — together with deterministic same-instant
/// ordering in the event queue — gives every process the same w-delivery
/// sequence: the oracle property B-Consensus needs. Before stability each
/// destination is treated independently under the pre-stability policy.
pub fn plan_wab_delivery<R: Rng>(
    at: SimTime,
    n: usize,
    network: &Network,
    rng: &mut R,
) -> Vec<(ProcessId, Option<SimTime>)> {
    if at >= network.ts() {
        // One arrival instant for everyone (nothing is lost after
        // stability): identical order at all processes.
        let arrival = network.classify(at, ProcessId::new(0), ProcessId::new(0), rng);
        ProcessId::all(n).map(|p| (p, arrival)).collect()
    } else {
        let from = ProcessId::new(0);
        ProcessId::all(n)
            .map(|p| (p, network.classify(at, from, p, rng)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::PreStability;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn leader_oracle_picks_lowest_alive() {
        let mut o = LeaderOracle::new(RealDuration::from_millis(20));
        assert_eq!(o.current(), None);
        let leader = o.announce([2u32, 0, 4].into_iter().map(ProcessId::new));
        assert_eq!(leader, Some(ProcessId::new(0)));
        assert_eq!(o.current(), Some(ProcessId::new(0)));
    }

    #[test]
    fn leader_oracle_with_lowest_dead() {
        let mut o = LeaderOracle::new(RealDuration::from_millis(20));
        let leader = o.announce([3u32, 1].into_iter().map(ProcessId::new));
        assert_eq!(leader, Some(ProcessId::new(1)));
    }

    #[test]
    fn announce_time_offsets_ts() {
        let o = LeaderOracle::new(RealDuration::from_millis(20));
        assert_eq!(
            o.announce_time(SimTime::from_millis(100)),
            SimTime::from_millis(120)
        );
    }

    #[test]
    fn stable_wab_delivery_is_simultaneous() {
        let net = Network::new(
            SimTime::from_millis(100),
            RealDuration::from_millis(10),
            (0.1, 1.0),
            PreStability::chaos(),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let plan = plan_wab_delivery(SimTime::from_millis(200), 5, &net, &mut rng);
        assert_eq!(plan.len(), 5);
        let first = plan[0].1.expect("delivered");
        for (_, t) in &plan {
            assert_eq!(*t, Some(first), "identical arrival everywhere");
        }
    }

    #[test]
    fn pre_stability_wab_delivery_is_independent() {
        let net = Network::new(
            SimTime::from_millis(1_000_000),
            RealDuration::from_millis(10),
            (0.1, 1.0),
            PreStability::chaos(),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut distinct_times = std::collections::BTreeSet::new();
        let mut losses = 0;
        for _ in 0..200 {
            let plan = plan_wab_delivery(SimTime::ZERO, 5, &net, &mut rng);
            for (_, t) in plan {
                match t {
                    Some(t) => {
                        distinct_times.insert(t.as_nanos());
                    }
                    None => losses += 1,
                }
            }
        }
        assert!(distinct_times.len() > 100, "per-destination delays differ");
        assert!(losses > 100, "pre-TS w-broadcasts can be lost");
    }
}
