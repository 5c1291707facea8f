//! Weak-ordering-oracle (WAB) interface for the B-Consensus family (§5).
//!
//! The B-Consensus algorithm of Pedone, Schiper, Urbán & Cavin assumes a
//! *weak atomic broadcast* oracle: processes `w-broadcast` messages, and the
//! oracle `w-delivers` them. The oracle is allowed to misbehave arbitrarily
//! during bad periods; a round of B-Consensus succeeds whenever more than
//! `N/2` processes are nonfaulty and the oracle delivers that round's first
//! message to all processes in the same order.
//!
//! Two oracle realizations exist in this workspace:
//!
//! * an **idealized oracle** in the simulator (spontaneous identical order
//!   after stability) — used to run the *original* B-Consensus baseline, and
//! * the paper's §5 **implementation** from Lamport timestamps plus a `2δ`
//!   delivery wait — [`crate::bconsensus::oracle::TimestampOracle`], used by
//!   the *modified* B-Consensus, which needs no simulator magic.

use crate::types::{ProcessId, Value};

/// A message handed to (and later delivered by) the weak-ordering oracle.
///
/// B-Consensus w-broadcasts one `(round, estimate)` pair per round; the
/// oracle tags it with its origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WabMessage {
    /// The process that w-broadcast the message.
    pub origin: ProcessId,
    /// The B-Consensus round the message belongs to.
    pub round: u64,
    /// The broadcaster's current estimate.
    pub value: Value,
}

impl WabMessage {
    /// Creates a WAB message.
    pub fn new(origin: ProcessId, round: u64, value: Value) -> Self {
        WabMessage {
            origin,
            round,
            value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let m = WabMessage::new(ProcessId::new(1), 4, Value::new(9));
        assert_eq!(m.origin, ProcessId::new(1));
        assert_eq!(m.round, 4);
        assert_eq!(m.value, Value::new(9));
    }

    #[test]
    fn equality_is_structural() {
        let a = WabMessage::new(ProcessId::new(0), 1, Value::new(2));
        let b = WabMessage::new(ProcessId::new(0), 1, Value::new(2));
        assert_eq!(a, b);
    }
}
