//! Named worst-case constructions from the paper.
//!
//! These builders stage the executions the paper's arguments quantify over:
//!
//! * [`obsolete_ballots_traditional`] — §2's `O(Nδ)` pathology. Before
//!   `TS`, a process that believes itself leader can raise its ballot
//!   arbitrarily high *without communicating* (Start Phase 1 needs only
//!   self-belief), and its phase 1a messages can linger in the network
//!   arbitrarily long. The adversary releases `k ≤ ⌈N/2⌉−1` such obsolete
//!   1a messages one at a time, spaced `gap` apart, aimed at the live
//!   leader: each one bumps `mbal[q]` past the leader's own in-flight
//!   ballot, whose 1b replies then no longer match `mbal[q]` — the attempt
//!   dies and `q` must "choose a larger value of `mbal[q]`". Because each
//!   obsolete ballot is revealed only when released, the leader pays one
//!   restart per ballot: `O(k·δ)` in total.
//! * [`obsolete_ballots_session`] — the same adversary against the
//!   *modified* algorithm. Session gating caps what a failed process could
//!   legitimately have sent at **session `s0+1`** (proof step 1), so the
//!   strongest injectable ballots are in session 1 when the nonfaulty
//!   majority rests in session 0 — a single bounded disruption instead of
//!   `k` unbounded ones.
//! * [`dead_coordinators`] — §3's `O(Nδ)` pathology for rotating-
//!   coordinator algorithms: the `f = ⌈N/2⌉−1` lowest-id processes are
//!   dead forever, so rounds `0..f` each burn a timeout before a live
//!   coordinator is reached.

use crate::scenario::Scenario;
use crate::time::SimTime;
use esync_core::ballot::Ballot;
use esync_core::paxos::messages::PaxosMsg;
use esync_core::paxos::traditional::TradMsg;
use esync_core::time::RealDuration;
use esync_core::types::ProcessId;

/// One message the adversary releases: `(deliver_at, from, to, msg)`.
pub type Injection<M> = (SimTime, ProcessId, ProcessId, M);

/// The §2 obsolete-ballot attack against traditional Paxos.
///
/// Produces `count` phase-1a messages with strictly increasing,
/// anomalously high ballots owned by process `n−1` (the claimed failed
/// sender), delivered to `victim` at `start, start+gap, …`.
///
/// # Panics
///
/// Panics if `n < 2` or the victim is out of range.
pub fn obsolete_ballots_traditional(
    n: usize,
    count: usize,
    start: SimTime,
    gap: RealDuration,
    victim: ProcessId,
) -> Vec<Injection<TradMsg>> {
    assert!(n >= 2, "attack needs a sender and a victim");
    assert!(victim.as_usize() < n, "victim out of range");
    let owner = ProcessId::new(n as u32 - 1);
    (0..count)
        .map(|i| {
            // Sessions 1000, 2000, 3000, …: each release is far above
            // anything the leader can have reached meanwhile through its
            // own minimal ballot bumps, so every release kills the current
            // attempt (the pre-TS leader could raise its ballot arbitrarily,
            // so these are all legitimately reachable).
            let mbal = Ballot::new(1_000 * (i as u64 + 1) * n as u64 + owner.as_u32() as u64);
            (
                start + gap * i as u64,
                owner,
                victim,
                TradMsg::Paxos(PaxosMsg::P1a { mbal }),
            )
        })
        .collect()
}

/// The strongest *legitimate* version of the same attack against the
/// modified algorithm: with the nonfaulty majority in session 0, no failed
/// process can ever have sent a ballot beyond session 1 (proof step 1), so
/// that is what the adversary injects.
///
/// # Panics
///
/// Panics if `n < 2` or the victim is out of range.
pub fn obsolete_ballots_session(
    n: usize,
    count: usize,
    start: SimTime,
    gap: RealDuration,
    victim: ProcessId,
) -> Vec<Injection<PaxosMsg>> {
    assert!(n >= 2, "attack needs a sender and a victim");
    assert!(victim.as_usize() < n, "victim out of range");
    let owner = ProcessId::new(n as u32 - 1);
    let mbal = Ballot::new(n as u64 + owner.as_u32() as u64); // session 1
    (0..count)
        .map(|i| {
            (
                start + gap * i as u64,
                owner,
                victim,
                PaxosMsg::P1a { mbal },
            )
        })
        .collect()
}

/// §3's worst case for rotating coordinators: the `f` lowest-id processes
/// (the coordinators of rounds `0..f`) are dead forever.
pub fn dead_coordinators(f: usize) -> Scenario {
    let mut s = Scenario::none();
    for pid in ProcessId::all(f) {
        s = s.dead_forever(pid);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traditional_injections_increase_and_space_out() {
        let inj = obsolete_ballots_traditional(
            5,
            3,
            SimTime::from_millis(100),
            RealDuration::from_millis(30),
            ProcessId::new(1),
        );
        assert_eq!(inj.len(), 3);
        let mut last_ballot = Ballot::new(0);
        for (i, (at, from, to, msg)) in inj.iter().enumerate() {
            assert_eq!(*at, SimTime::from_millis(100 + 30 * i as u64));
            assert_eq!(*from, ProcessId::new(4));
            assert_eq!(*to, ProcessId::new(1));
            match msg {
                TradMsg::Paxos(PaxosMsg::P1a { mbal }) => {
                    assert!(*mbal > last_ballot);
                    assert_eq!(mbal.owner(5), ProcessId::new(4));
                    last_ballot = *mbal;
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn session_injections_stay_in_session_one() {
        let inj = obsolete_ballots_session(
            5,
            3,
            SimTime::from_millis(100),
            RealDuration::from_millis(30),
            ProcessId::new(1),
        );
        for (_, _, _, msg) in &inj {
            match msg {
                PaxosMsg::P1a { mbal } => {
                    assert_eq!(mbal.session(5).get(), 1, "gating caps obsolete sessions");
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn dead_coordinators_kill_a_prefix() {
        let s = dead_coordinators(3);
        assert_eq!(s.crashes.len(), 3);
        assert!(s
            .crashes
            .iter()
            .all(|(p, t)| p.as_usize() < 3 && *t == SimTime::ZERO));
        assert!(s.restarts.is_empty());
    }

    #[test]
    #[should_panic(expected = "victim out of range")]
    fn victim_validated() {
        let _ = obsolete_ballots_traditional(
            3,
            1,
            SimTime::ZERO,
            RealDuration::from_millis(1),
            ProcessId::new(9),
        );
    }
}
