//! The Paxos voting core shared by both variants.
//!
//! The paper deliberately "omit\[s\] many details that, while crucial to its
//! correctness, are irrelevant to \[the\] discussion"; this module supplies
//! those details: acceptor voting state, the leader's phase-1b quorum and
//! value-selection rule, and the phase-2b decision counter.

use crate::ballot::Ballot;
use crate::paxos::messages::Vote;
use crate::quorum::QuorumTracker;
use crate::types::{ProcessId, Value};
use std::collections::BTreeMap;

/// Acceptor-side persistent voting state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VotingState {
    /// The highest ballot this process has joined (`mbal[p]`).
    pub mbal: Ballot,
    /// The last vote cast (`maxVBal`, `maxVal`), if any.
    pub last_vote: Option<Vote>,
}

impl VotingState {
    /// Fresh state for process `p`: `mbal[p] = p`, never voted.
    pub fn initial(p: ProcessId) -> Self {
        VotingState {
            mbal: Ballot::initial(p),
            last_vote: None,
        }
    }

    /// Records a phase-2a vote: sets `last_vote` to `(bal, value)`.
    ///
    /// # Panics
    ///
    /// Debug-panics if voting for a ballot below an earlier vote, which
    /// would violate the acceptor invariant.
    pub fn record_vote(&mut self, bal: Ballot, value: Value) {
        if let Some(prev) = self.last_vote {
            debug_assert!(bal >= prev.bal, "votes must be ballot-monotone");
        }
        self.last_vote = Some(Vote::new(bal, value));
    }
}

/// Leader-side phase-1b quorum for one ballot the leader owns.
///
/// Collects `(acceptor, last_vote)` reports; once a majority has joined,
/// [`P1bQuorum::pick_value`] applies the Paxos value-selection rule: the
/// value of the highest-ballot vote among the reports, or the leader's own
/// initial value if no acceptor in the quorum ever voted. This rule is what
/// makes deciding safe across ballots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct P1bQuorum {
    bal: Ballot,
    tracker: QuorumTracker,
    best_vote: Option<Vote>,
}

impl P1bQuorum {
    /// Creates an empty quorum for ballot `bal` in an `n`-process system.
    pub fn new(bal: Ballot, n: usize) -> Self {
        P1bQuorum {
            bal,
            tracker: QuorumTracker::new(n),
            best_vote: None,
        }
    }

    /// The ballot this quorum is for.
    pub fn ballot(&self) -> Ballot {
        self.bal
    }

    /// Records a 1b report from `from`. Returns `true` if the majority
    /// threshold is crossed **by this call** (so phase 2a triggers once).
    pub fn record(&mut self, from: ProcessId, last_vote: Option<Vote>) -> bool {
        let before = self.tracker.reached();
        if !self.tracker.insert(from) {
            return false;
        }
        if let Some(v) = last_vote {
            let better = match self.best_vote {
                None => true,
                Some(best) => v.bal > best.bal,
            };
            if better {
                self.best_vote = Some(v);
            }
        }
        !before && self.tracker.reached()
    }

    /// Whether a majority has joined.
    pub fn reached(&self) -> bool {
        self.tracker.reached()
    }

    /// Number of distinct reports.
    pub fn count(&self) -> usize {
        self.tracker.count()
    }

    /// The Paxos value-selection rule (call once the quorum is reached).
    pub fn pick_value(&self, own_initial: Value) -> Value {
        match self.best_vote {
            Some(v) => v.value,
            None => own_initial,
        }
    }
}

/// Counts phase-2b messages per ballot; a majority of 2b's "with the same
/// mbal field" decides.
///
/// The *current* (highest-seen) ballot is cached outside the per-ballot
/// map: in a stable run every 2b targets the one live ballot, so the hot
/// path is a single ballot comparison instead of a `BTreeMap` descent per
/// message. Older ballots (late 2b's from superseded sessions) fall back
/// to the map.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecisionTracker {
    /// The highest ballot with a recorded 2b, and its running count.
    current: Option<(Ballot, QuorumTracker, Value)>,
    /// Counts for every older ballot still receiving stray 2b's.
    older: BTreeMap<Ballot, (QuorumTracker, Value)>,
}

/// Tallies one 2b into a ballot's running count; `Some(value)` exactly
/// when this crosses the majority threshold.
fn tally(
    tracker: &mut QuorumTracker,
    stored: Value,
    value: Value,
    from: ProcessId,
) -> Option<Value> {
    debug_assert_eq!(stored, value, "conflicting 2b values for one ballot");
    let before = tracker.reached();
    tracker.insert(from);
    (!before && tracker.reached()).then_some(stored)
}

impl DecisionTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        DecisionTracker::default()
    }

    /// Records a 2b from `from` for `(bal, value)`. Returns `Some(value)` if
    /// this crosses the majority threshold for `bal`.
    ///
    /// # Panics
    ///
    /// Debug-panics if two 2b messages for the same ballot carry different
    /// values — impossible in a correct Paxos run, since only the ballot
    /// owner issues 2a messages and issues at most one value per ballot.
    pub fn record(
        &mut self,
        n: usize,
        from: ProcessId,
        bal: Ballot,
        value: Value,
    ) -> Option<Value> {
        match &mut self.current {
            // Fast path: 2b for the current ballot (every message in a
            // stable run).
            Some((cb, tracker, stored)) if *cb == bal => tally(tracker, *stored, value, from),
            cur => {
                if cur.as_ref().is_none_or(|(cb, ..)| bal > *cb) {
                    // A newer ballot takes over the cache; the superseded
                    // one keeps counting from the map.
                    if let Some((cb, t, v)) = cur.take() {
                        self.older.insert(cb, (t, v));
                    }
                    let (_, tracker, stored) = cur.insert((bal, QuorumTracker::new(n), value));
                    tally(tracker, *stored, value, from)
                } else {
                    let (tracker, stored) = self
                        .older
                        .entry(bal)
                        .or_insert_with(|| (QuorumTracker::new(n), value));
                    tally(tracker, *stored, value, from)
                }
            }
        }
    }

    /// Number of ballots with at least one recorded 2b.
    pub fn ballots_seen(&self) -> usize {
        self.older.len() + usize::from(self.current.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn initial_voting_state() {
        let s = VotingState::initial(pid(3));
        assert_eq!(s.mbal, Ballot::new(3));
        assert_eq!(s.last_vote, None);
    }

    #[test]
    fn record_vote_updates_last_vote() {
        let mut s = VotingState::initial(pid(0));
        s.record_vote(Ballot::new(5), Value::new(9));
        assert_eq!(s.last_vote, Some(Vote::new(Ballot::new(5), Value::new(9))));
        s.record_vote(Ballot::new(8), Value::new(2));
        assert_eq!(s.last_vote.unwrap().bal, Ballot::new(8));
    }

    #[test]
    fn p1b_quorum_triggers_once() {
        let mut q = P1bQuorum::new(Ballot::new(5), 3);
        assert!(!q.record(pid(0), None));
        assert!(q.record(pid(1), None), "majority crossed here");
        assert!(!q.record(pid(2), None), "already reached: no retrigger");
        assert!(q.reached());
        assert_eq!(q.count(), 3);
    }

    #[test]
    fn p1b_duplicates_ignored() {
        let mut q = P1bQuorum::new(Ballot::new(5), 5);
        assert!(!q.record(pid(0), None));
        assert!(!q.record(pid(0), None));
        assert_eq!(q.count(), 1);
    }

    #[test]
    fn pick_value_prefers_highest_ballot_vote() {
        let mut q = P1bQuorum::new(Ballot::new(10), 5);
        q.record(pid(0), Some(Vote::new(Ballot::new(3), Value::new(30))));
        q.record(pid(1), Some(Vote::new(Ballot::new(7), Value::new(70))));
        q.record(pid(2), Some(Vote::new(Ballot::new(5), Value::new(50))));
        assert_eq!(q.pick_value(Value::new(99)), Value::new(70));
    }

    #[test]
    fn pick_value_falls_back_to_own_initial() {
        let mut q = P1bQuorum::new(Ballot::new(10), 3);
        q.record(pid(0), None);
        q.record(pid(1), None);
        assert_eq!(q.pick_value(Value::new(42)), Value::new(42));
    }

    #[test]
    fn decision_tracker_requires_majority_same_ballot() {
        let mut d = DecisionTracker::new();
        let b5 = Ballot::new(5);
        let b7 = Ballot::new(7);
        let v = Value::new(1);
        assert_eq!(d.record(5, pid(0), b5, v), None);
        assert_eq!(d.record(5, pid(1), b7, v), None, "different ballot");
        assert_eq!(d.record(5, pid(2), b5, v), None);
        assert_eq!(d.record(5, pid(3), b5, v), Some(v), "3 of 5 on b5");
        assert_eq!(d.record(5, pid(4), b5, v), None, "no retrigger");
        assert_eq!(d.ballots_seen(), 2);
    }

    #[test]
    fn decision_tracker_ignores_duplicate_senders() {
        let mut d = DecisionTracker::new();
        let b = Ballot::new(3);
        let v = Value::new(1);
        assert_eq!(d.record(3, pid(0), b, v), None);
        assert_eq!(d.record(3, pid(0), b, v), None);
        assert_eq!(d.record(3, pid(1), b, v), Some(v));
    }

    #[test]
    fn decision_tracker_demoted_ballot_keeps_its_count() {
        // The current-ballot cache must hand its running count to the map
        // when a newer ballot supersedes it, not drop it.
        let mut d = DecisionTracker::new();
        let b5 = Ballot::new(5);
        let b9 = Ballot::new(9);
        assert_eq!(d.record(3, pid(0), b5, Value::new(1)), None);
        assert_eq!(
            d.record(3, pid(0), b9, Value::new(2)),
            None,
            "cache moves to b9"
        );
        assert_eq!(
            d.record(3, pid(1), b5, Value::new(1)),
            Some(Value::new(1)),
            "b5's earlier 2b still counts after demotion"
        );
        assert_eq!(d.ballots_seen(), 2);
    }

    #[test]
    fn single_process_decides_alone() {
        let mut d = DecisionTracker::new();
        assert_eq!(
            d.record(1, pid(0), Ballot::new(0), Value::new(5)),
            Some(Value::new(5))
        );
    }
}
