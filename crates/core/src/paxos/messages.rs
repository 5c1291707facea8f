//! Wire messages shared by the traditional and session Paxos variants.

use crate::ballot::Ballot;
use crate::types::Value;

/// A vote cast by an acceptor: the pair `(maxVBal, maxVal)` reported in
/// phase 1b messages, used by the leader's value-selection rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vote {
    /// The ballot in which the vote was cast.
    pub bal: Ballot,
    /// The value voted for.
    pub value: Value,
}

impl Vote {
    /// Creates a vote record.
    pub fn new(bal: Ballot, value: Value) -> Self {
        Vote { bal, value }
    }
}

/// Paxos protocol messages. Every message `m` carries its ballot `m.mbal`
/// as in the paper; the *session* of a message is the session of its ballot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaxosMsg {
    /// Phase 1a: the owner of `mbal` (or a process relaying on its behalf —
    /// "any phase 1a message m is treated as if it were sent by process
    /// `m.mbal mod N`") asks acceptors to join ballot `mbal`.
    P1a {
        /// The ballot being started.
        mbal: Ballot,
    },
    /// Phase 1b: an acceptor that joined `mbal` reports its last vote to
    /// the ballot owner.
    P1b {
        /// The joined ballot.
        mbal: Ballot,
        /// The acceptor's `(maxVBal, maxVal)`, if it ever voted.
        last_vote: Option<Vote>,
    },
    /// Phase 2a: the owner of `mbal` asks acceptors to vote for `value`.
    P2a {
        /// The ballot.
        mbal: Ballot,
        /// The value chosen by the owner's selection rule.
        value: Value,
    },
    /// Phase 2b: an acceptor's vote, sent **to every process** (the paper's
    /// Decide action counts 2b messages at every process).
    P2b {
        /// The ballot voted in.
        mbal: Ballot,
        /// The value voted for.
        value: Value,
    },
    /// A rejection carrying the rejector's higher `mbal` (traditional Paxos
    /// only; the modified algorithm's timeouts "make the Reject action
    /// unnecessary").
    Rejected {
        /// The rejector's current ballot.
        mbal: Ballot,
    },
    /// A decided value being announced ("once a process has decided, it …
    /// simply respond\[s\] to every message by announcing the value it has
    /// decided upon").
    Decided {
        /// The decided value.
        value: Value,
    },
}

impl PaxosMsg {
    /// The ballot carried by this message, if any (`Decided` carries none).
    pub fn ballot(&self) -> Option<Ballot> {
        match self {
            PaxosMsg::P1a { mbal }
            | PaxosMsg::P1b { mbal, .. }
            | PaxosMsg::P2a { mbal, .. }
            | PaxosMsg::P2b { mbal, .. }
            | PaxosMsg::Rejected { mbal } => Some(*mbal),
            PaxosMsg::Decided { .. } => None,
        }
    }

    /// A short static label for message-count metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            PaxosMsg::P1a { .. } => "1a",
            PaxosMsg::P1b { .. } => "1b",
            PaxosMsg::P2a { .. } => "2a",
            PaxosMsg::P2b { .. } => "2b",
            PaxosMsg::Rejected { .. } => "rejected",
            PaxosMsg::Decided { .. } => "decided",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ballot_extraction() {
        let b = Ballot::new(7);
        assert_eq!(PaxosMsg::P1a { mbal: b }.ballot(), Some(b));
        assert_eq!(
            PaxosMsg::P1b {
                mbal: b,
                last_vote: None
            }
            .ballot(),
            Some(b)
        );
        assert_eq!(
            PaxosMsg::P2a {
                mbal: b,
                value: Value::new(1)
            }
            .ballot(),
            Some(b)
        );
        assert_eq!(
            PaxosMsg::P2b {
                mbal: b,
                value: Value::new(1)
            }
            .ballot(),
            Some(b)
        );
        assert_eq!(PaxosMsg::Rejected { mbal: b }.ballot(), Some(b));
        assert_eq!(
            PaxosMsg::Decided {
                value: Value::new(1)
            }
            .ballot(),
            None
        );
    }

    #[test]
    fn kinds_are_distinct() {
        let b = Ballot::new(0);
        let v = Value::new(0);
        let kinds = [
            PaxosMsg::P1a { mbal: b }.kind(),
            PaxosMsg::P1b {
                mbal: b,
                last_vote: None,
            }
            .kind(),
            PaxosMsg::P2a { mbal: b, value: v }.kind(),
            PaxosMsg::P2b { mbal: b, value: v }.kind(),
            PaxosMsg::Rejected { mbal: b }.kind(),
            PaxosMsg::Decided { value: v }.kind(),
        ];
        let unique: std::collections::BTreeSet<_> = kinds.iter().collect();
        assert_eq!(unique.len(), kinds.len());
    }
}
