//! Typed trace events emitted by the protocol state machines.
//!
//! Tracing is a **side channel** on the sans-IO seam: protocols report
//! each milestone with one [`Outbox::event`](crate::outbox::Outbox::event)
//! call alongside the regular actions. That call has two independent
//! gates. With tracing on, the event is buffered for the driver to drain
//! into a collector (see `esync-trace`), stamped with driver time —
//! simulated time in the simulator, monotonic wall time in the threaded
//! runtime. With metering on, the event's [`Metric`] counter is bumped
//! (see [`crate::metrics`]). Events never feed back into protocol
//! behaviour, so a traced run executes the exact same action stream as
//! an untraced one, and with both gates off (the default) every payload
//! field is an integer already in hand, so the event's construction is
//! dead code.
//!
//! The taxonomy follows the three stories an experiment wants to tell:
//!
//! 1. **Ballot/session lifecycle** — phase-1a sent, promise quorum
//!    reached, leader anchored / unanchored. These are the paper's §4
//!    coordination milestones; the per-decision bound check replays them
//!    to locate where post-`TS` time went.
//! 2. **Command journey** — submit → forward → admit → propose (2a) →
//!    chosen (2b quorum) → decided → retry-reply. The replicated-log
//!    phase decomposition (queue wait vs quorum wait vs learn) falls out
//!    of the deltas between these.
//! 3. **Rebalance protocol** — freeze → drain → commit → re-forward (or
//!    abort), making the live rebalancer's damping visible in traces.

use crate::metrics::Metric;
use crate::types::Value;

/// One structured trace event. Fields are flat integers so that events
/// are `Copy`, comparable, and serialize without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A coordinator broadcast phase-1a for `ballot` (session entry or
    /// ε-retransmission; re-sends trace again, which is the point — the
    /// retry cost is visible).
    OneASent {
        /// The ballot number announced.
        ballot: u64,
    },
    /// The coordinator of `ballot` assembled a majority of promises.
    PromiseQuorum {
        /// The ballot that reached quorum.
        ballot: u64,
    },
    /// The coordinator of `ballot` anchored (is now the stable leader).
    Anchored {
        /// The anchored ballot.
        ballot: u64,
    },
    /// A process abandoned `ballot` (saw a higher one / lost leadership).
    Unanchored {
        /// The abandoned ballot.
        ballot: u64,
    },
    /// A client submitted `value` at this process.
    Submit {
        /// The submitted command.
        value: u64,
    },
    /// A non-leader forwarded `value` toward the current leader.
    ForwardSent {
        /// The forwarded command.
        value: u64,
    },
    /// Shard `shard` freshly admitted `value` into its pending queue.
    Admitted {
        /// The admitting shard.
        shard: u32,
        /// The admitted command.
        value: u64,
    },
    /// The leader proposed `value` in `(shard, slot)` — the phase-2a
    /// broadcast instant (one event per value in a batch).
    Proposed {
        /// The proposing shard.
        shard: u32,
        /// The log slot.
        slot: u64,
        /// The proposed command.
        value: u64,
    },
    /// `(shard, slot)` crossed its phase-2b quorum at the leader.
    Chosen {
        /// The shard.
        shard: u32,
        /// The slot that became chosen.
        slot: u64,
    },
    /// This process applied (decided) `value` in `(shard, slot)`.
    /// Single-shot protocols use shard 0 and slot 0.
    Decided {
        /// The shard.
        shard: u32,
        /// The slot.
        slot: u64,
        /// The decided command.
        value: u64,
    },
    /// A retry of an already-decided command was answered from the log.
    ReplySent {
        /// The shard that answered.
        shard: u32,
        /// The re-submitted command.
        value: u64,
    },
    /// The rebalancer froze a boundary to start migration `epoch`.
    RebalanceFreeze {
        /// The router epoch the migration will commit as.
        epoch: u64,
    },
    /// Migration `epoch`'s frozen shards drained; the control record was
    /// proposed through the log.
    RebalanceDrain {
        /// The migrating epoch.
        epoch: u64,
    },
    /// Migration `epoch` committed: the router boundary moved.
    RebalanceCommit {
        /// The applied router epoch.
        epoch: u64,
    },
    /// `count` buffered commands were re-forwarded after `epoch` applied.
    RebalanceReforward {
        /// The applied router epoch.
        epoch: u64,
        /// Buffered commands reinjected.
        count: u64,
    },
    /// Migration `epoch` aborted (leadership lost mid-migration).
    RebalanceAbort {
        /// The abandoned epoch.
        epoch: u64,
    },
}

impl TraceEvent {
    /// The counter this event bumps. Each kind has its own [`Metric`],
    /// so this is also the event's kind.
    #[inline]
    pub fn metric(&self) -> Metric {
        match self {
            TraceEvent::OneASent { .. } => Metric::OneASent,
            TraceEvent::PromiseQuorum { .. } => Metric::PromiseQuorum,
            TraceEvent::Anchored { .. } => Metric::Anchored,
            TraceEvent::Unanchored { .. } => Metric::Unanchored,
            TraceEvent::Submit { .. } => Metric::Submitted,
            TraceEvent::ForwardSent { .. } => Metric::Forwarded,
            TraceEvent::Admitted { .. } => Metric::Admitted,
            TraceEvent::Proposed { .. } => Metric::Proposed,
            TraceEvent::Chosen { .. } => Metric::Chosen,
            TraceEvent::Decided { .. } => Metric::Decided,
            TraceEvent::ReplySent { .. } => Metric::Replied,
            TraceEvent::RebalanceFreeze { .. } => Metric::RebalanceFreeze,
            TraceEvent::RebalanceDrain { .. } => Metric::RebalanceDrain,
            TraceEvent::RebalanceCommit { .. } => Metric::RebalanceCommit,
            TraceEvent::RebalanceReforward { .. } => Metric::RebalanceReforward,
            TraceEvent::RebalanceAbort { .. } => Metric::RebalanceAbort,
        }
    }

    /// A short static label naming the event kind (the `kind` field of
    /// the JSONL schema; see `esync-trace`): its counter's
    /// [`Metric::name`].
    pub fn kind(&self) -> &'static str {
        self.metric().name()
    }

    /// Convenience constructor for command-journey events that carry a
    /// wire [`Value`]. The originating process is not stored in the event
    /// itself — the driver knows which process it is draining and stamps
    /// the record (`esync-trace`'s `TraceRecord` carries the pid).
    pub fn submit(value: Value) -> TraceEvent {
        TraceEvent::Submit { value: value.get() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kind has its own protocol-bumped counter: the sixteen
    /// events map onto every [`Metric`] but the driver-fed
    /// [`Metric::TraceDropped`], one-for-one.
    #[test]
    fn each_kind_has_its_own_metric() {
        let all = [
            TraceEvent::OneASent { ballot: 1 },
            TraceEvent::PromiseQuorum { ballot: 1 },
            TraceEvent::Anchored { ballot: 1 },
            TraceEvent::Unanchored { ballot: 1 },
            TraceEvent::Submit { value: 1 },
            TraceEvent::ForwardSent { value: 1 },
            TraceEvent::Admitted { shard: 0, value: 1 },
            TraceEvent::Proposed {
                shard: 0,
                slot: 0,
                value: 1,
            },
            TraceEvent::Chosen { shard: 0, slot: 0 },
            TraceEvent::Decided {
                shard: 0,
                slot: 0,
                value: 1,
            },
            TraceEvent::ReplySent { shard: 0, value: 1 },
            TraceEvent::RebalanceFreeze { epoch: 1 },
            TraceEvent::RebalanceDrain { epoch: 1 },
            TraceEvent::RebalanceCommit { epoch: 1 },
            TraceEvent::RebalanceReforward { epoch: 1, count: 2 },
            TraceEvent::RebalanceAbort { epoch: 1 },
        ];
        let metrics: Vec<Metric> = all.iter().map(TraceEvent::metric).collect();
        let protocol_fed: Vec<Metric> = Metric::ALL
            .into_iter()
            .filter(|m| *m != Metric::TraceDropped)
            .collect();
        assert_eq!(metrics, protocol_fed);
        assert_eq!(all[9].kind(), "decided");
    }
}
