//! The sans-IO interface between protocol state machines and their drivers.
//!
//! A consensus protocol is a [`Process`]: a deterministic state machine that
//! reacts to events (start, message arrival, timer expiration, restart) by
//! pushing [`Action`]s into an [`Outbox`]. Drivers — the discrete-event
//! simulator in `esync-sim` and the threaded runtime in `esync-runtime` —
//! own all IO: they deliver messages subject to the network model, convert
//! the process's local-clock timer requests into real firings, and record
//! decisions.
//!
//! This split keeps every line of the paper's algorithms testable without a
//! network, and guarantees the simulator and the real runtime execute the
//! *same* algorithm.

use crate::config::TimingConfig;
use crate::metrics::MetricSet;
use crate::time::{LocalDuration, LocalInstant};
use crate::trace::TraceEvent;
use crate::types::{ProcessId, ShardId, TimerId, Value};
use crate::wab::WabMessage;
use core::fmt;

/// An effect requested by a protocol state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum Action<M> {
    /// Send `msg` to process `to` over the (unreliable before stability,
    /// `δ`-bounded after) network. Sending to oneself is allowed and also
    /// traverses the network, as the paper's timing analysis assumes.
    Send {
        /// Destination process.
        to: ProcessId,
        /// The message.
        msg: M,
    },
    /// Send `msg` to every process, *including the sender*.
    Broadcast {
        /// The message.
        msg: M,
    },
    /// Arm (or re-arm, replacing any pending instance with the same id) a
    /// one-shot timer that fires after `after` units of the **local** clock.
    SetTimer {
        /// The protocol-chosen timer id.
        id: TimerId,
        /// Local-clock delay until firing.
        after: LocalDuration,
    },
    /// Cancel the pending timer with this id, if any.
    CancelTimer {
        /// The protocol-chosen timer id.
        id: TimerId,
    },
    /// Irrevocably decide `value`.
    Decide {
        /// The decided value.
        value: Value,
        /// The log-group shard the decision belongs to. Single-instance
        /// protocols decide in [`ShardId::ZERO`]; the sharded log group
        /// tags each commit with its shard so drivers and metrics can
        /// attribute throughput and latency per shard.
        shard: ShardId,
    },
    /// Hand a message to the weak-ordering oracle (B-Consensus only; see
    /// [`crate::wab`]). Drivers without an oracle reject protocols that use
    /// this.
    WabBroadcast {
        /// The message for the oracle.
        msg: WabMessage,
    },
}

/// Per-shard load counters a log process exposes for observability (see
/// [`Process::shard_load`]): how many commands the router handed the
/// shard, and how many were fresh admissions after retry dedup. The
/// imbalance instrumentation of the workload layer (artifact schema v5)
/// and the live rebalancer's trigger both read these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardLoad {
    /// Commands dispatched to the shard (client submissions plus
    /// forwards, before dedup — retries count, which is the point:
    /// retry pressure is load).
    pub submitted: u64,
    /// Commands freshly admitted by the shard (after retry dedup).
    pub admitted: u64,
}

/// Collects the [`Action`]s emitted while handling one event, and exposes
/// the process's current local-clock reading.
///
/// The outbox also carries the **observability side channel**: a
/// protocol reports each milestone with one [`Outbox::event`] call. When
/// metering is on ([`Outbox::set_metering`]) the call bumps the event's
/// [`Metric`](crate::metrics::Metric) in a passive [`MetricSet`]; when
/// tracing is on ([`Outbox::set_tracing`]) it buffers the [`TraceEvent`]
/// for the driver to drain and timestamp. A counter and its trace record
/// therefore cannot disagree. Neither gate ever feeds back into
/// behaviour — the action stream is identical with them on or off — and
/// with both off (the default) an emit is two predictable branches and
/// builds nothing the optimiser keeps.
#[derive(Debug, Clone)]
pub struct Outbox<M> {
    now: LocalInstant,
    actions: Vec<Action<M>>,
    trace_on: bool,
    trace_buf: Vec<TraceEvent>,
    metrics_on: bool,
    metrics: MetricSet,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox::new(LocalInstant::ZERO)
    }
}

impl<M> Outbox<M> {
    /// Creates an outbox for an event handled at local time `now`
    /// (tracing disabled).
    pub fn new(now: LocalInstant) -> Self {
        Outbox {
            now,
            actions: Vec::new(),
            trace_on: false,
            trace_buf: Vec::new(),
            metrics_on: false,
            metrics: MetricSet::new(),
        }
    }

    /// Re-arms a (drained) outbox for the next event at local time `now`,
    /// keeping the action buffer's capacity (and the tracing/metering
    /// enablement — drivers flip those once, not per event). Drivers that
    /// process millions of events reuse one outbox instead of allocating
    /// per event. Metric counters are **kept**, not cleared: unlike trace
    /// events (drained per event), the registry accumulates across the
    /// run and is sampled, never drained.
    pub fn reset(&mut self, now: LocalInstant) {
        self.now = now;
        self.actions.clear();
        self.trace_buf.clear();
    }

    /// Enables or disables the trace side channel. Drivers call this once
    /// when the application asks for a trace; protocols never do.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace_on = on;
        if !on {
            self.trace_buf.clear();
        }
    }

    /// Reports a protocol milestone: counts `ev.metric()` when metering
    /// is on and buffers `ev` when tracing is on.
    #[inline]
    pub fn event(&mut self, ev: TraceEvent) {
        if self.metrics_on {
            self.metrics.inc(ev.metric());
        }
        if self.trace_on {
            self.trace_buf.push(ev);
        }
    }

    /// Removes and returns the buffered trace events as an iterator,
    /// keeping the buffer's capacity (the drivers' per-event drain).
    pub fn drain_trace(&mut self) -> std::vec::Drain<'_, TraceEvent> {
        self.trace_buf.drain(..)
    }

    /// Enables or disables the metrics side channel. Drivers call this
    /// once when the application asks for metrics; protocols never do.
    /// Disabling zeroes the registry.
    pub fn set_metering(&mut self, on: bool) {
        self.metrics_on = on;
        if !on {
            self.metrics.reset();
        }
    }

    /// The accumulated metric registry (drivers sample this on their
    /// snapshot cadence).
    pub fn metrics(&self) -> &MetricSet {
        &self.metrics
    }

    /// Mutable access to the registry, for driver-fed counters (e.g.
    /// [`Metric::TraceDropped`](crate::metrics::Metric::TraceDropped)
    /// sampled from a collector) and for re-zeroing on a driver reset.
    pub fn metrics_mut(&mut self) -> &mut MetricSet {
        &mut self.metrics
    }

    /// The local-clock reading at which the current event is being handled.
    pub fn now(&self) -> LocalInstant {
        self.now
    }

    /// Requests sending `msg` to `to`.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Requests broadcasting `msg` to all processes (including self).
    pub fn broadcast(&mut self, msg: M) {
        self.actions.push(Action::Broadcast { msg });
    }

    /// Arms (or re-arms) timer `id` to fire after local duration `after`.
    pub fn set_timer(&mut self, id: TimerId, after: LocalDuration) {
        self.actions.push(Action::SetTimer { id, after });
    }

    /// Cancels timer `id`.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer { id });
    }

    /// Records the decision `value` (in shard [`ShardId::ZERO`] — the
    /// single-instance case).
    pub fn decide(&mut self, value: Value) {
        self.decide_in_shard(ShardId::ZERO, value);
    }

    /// Records the decision `value` in log-group shard `shard`.
    pub fn decide_in_shard(&mut self, shard: ShardId, value: Value) {
        self.actions.push(Action::Decide { value, shard });
    }

    /// Hands `msg` to the weak-ordering oracle.
    pub fn wab_broadcast(&mut self, msg: WabMessage) {
        self.actions.push(Action::WabBroadcast { msg });
    }

    /// The actions emitted so far, in emission order.
    pub fn actions(&self) -> &[Action<M>] {
        &self.actions
    }

    /// Whether no actions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Removes and returns all emitted actions, in emission order.
    pub fn drain(&mut self) -> Vec<Action<M>> {
        std::mem::take(&mut self.actions)
    }

    /// Removes and returns all emitted actions as an iterator, keeping the
    /// outbox's buffer capacity (unlike [`Outbox::drain`], which gives the
    /// buffer away). The hot path for drivers with a reused outbox.
    pub fn drain_iter(&mut self) -> std::vec::Drain<'_, Action<M>> {
        self.actions.drain(..)
    }
}

/// A consensus process: a deterministic, sans-IO state machine.
///
/// Drivers call exactly one handler per event and then execute the drained
/// actions. Handlers must not block or perform IO.
///
/// # Restart semantics
///
/// The paper's processes keep their state "in stable storage so \[they\] can
/// restart after failure by simply resuming where \[they\] left off". We model
/// this as: the state machine's fields survive a crash, but all pending
/// timers are lost and messages delivered while down are dropped. On
/// restart the driver calls [`Process::on_restart`], where the protocol
/// re-arms its timers.
pub trait Process {
    /// The protocol's wire message type.
    type Msg: Clone + fmt::Debug;

    /// This process's identifier.
    fn id(&self) -> ProcessId;

    /// Called exactly once, when the process first boots.
    fn on_start(&mut self, out: &mut Outbox<Self::Msg>);

    /// Called when a message from `from` arrives.
    ///
    /// The message is passed **by reference**: drivers may share one
    /// allocation of a broadcast payload among all recipients (the
    /// simulator routes broadcasts as `Arc`-shared payloads), so handlers
    /// copy out only what they keep. `Copy` message types can simply
    /// `match *msg`.
    fn on_message(&mut self, from: ProcessId, msg: &Self::Msg, out: &mut Outbox<Self::Msg>);

    /// Called when the pending timer `timer` fires.
    fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<Self::Msg>);

    /// Called after a crash–restart cycle: state is intact, timers are gone.
    fn on_restart(&mut self, out: &mut Outbox<Self::Msg>);

    /// Called by drivers that run a leader-election oracle when the oracle's
    /// choice changes (traditional Paxos §2). Protocols that elect leaders
    /// implicitly (the paper's §4 algorithm) ignore this.
    fn on_leader_change(&mut self, leader: ProcessId, out: &mut Outbox<Self::Msg>) {
        let _ = (leader, out);
    }

    /// Called by drivers that run a weak-ordering oracle when the oracle
    /// w-delivers a message (original B-Consensus §5).
    fn on_wab_deliver(&mut self, msg: WabMessage, out: &mut Outbox<Self::Msg>) {
        let _ = (msg, out);
    }

    /// Called when an application submits a command to this process.
    /// Only multi-instance protocols (the replicated-log layer) consume
    /// this; single-shot consensus processes ignore it.
    fn on_client(&mut self, value: Value, out: &mut Outbox<Self::Msg>) {
        let _ = (value, out);
    }

    /// The value this process has decided, if any.
    fn decision(&self) -> Option<Value>;

    /// Whether this process currently believes it is the (anchored)
    /// leader. Drivers use this for observability only — crash-the-leader
    /// fault scenarios, load-balancing hints — never for correctness.
    /// Single-shot protocols keep the default `false`.
    fn is_leader(&self) -> bool {
        false
    }

    /// The shard-router epoch this process has applied (see
    /// `esync_core::paxos::group::rebalance`): bumped once per committed
    /// boundary move, `0` when the process never rebalanced or the
    /// protocol has no router. Observability only — tests assert epoch
    /// agreement across processes, drivers record it in artifacts.
    fn router_epoch(&self) -> u64 {
        0
    }

    /// Per-shard load counters (see [`ShardLoad`]). Protocols without
    /// per-shard admission keep the default zeros; drivers sum these
    /// across processes into the per-shard `submitted`/`admitted` fields
    /// of artifact schema v5.
    fn shard_load(&self, shard: ShardId) -> ShardLoad {
        let _ = shard;
        ShardLoad::default()
    }
}

/// A factory for one protocol's processes.
pub trait Protocol {
    /// The protocol's wire message type.
    type Msg: Clone + fmt::Debug;
    /// The process state machine type.
    type Process: Process<Msg = Self::Msg>;

    /// A short human-readable protocol name (used in reports).
    fn name(&self) -> &'static str;

    /// A short static label classifying `msg`, used by drivers for
    /// per-kind message-count metrics (experiment E6). The default lumps
    /// everything under `"msg"`.
    fn kind_of(msg: &Self::Msg) -> &'static str {
        let _ = msg;
        "msg"
    }

    /// How many log-group shards each spawned process runs. Measurement
    /// layers pre-size their per-shard accounting from this, so shards
    /// that never commit still appear (as zeros) in per-shard summaries.
    /// Single-instance protocols keep the default `1`.
    fn shard_count(&self) -> usize {
        1
    }

    /// Creates the state machine for process `id` proposing `initial`.
    fn spawn(&self, id: ProcessId, cfg: &TimingConfig, initial: Value) -> Self::Process;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;
    use crate::time::LocalDuration;

    #[derive(Debug, Clone, PartialEq)]
    struct Ping;

    #[test]
    fn outbox_collects_in_order() {
        let mut out: Outbox<Ping> = Outbox::new(LocalInstant::from_nanos(5));
        assert_eq!(out.now(), LocalInstant::from_nanos(5));
        assert!(out.is_empty());
        out.send(ProcessId::new(1), Ping);
        out.broadcast(Ping);
        out.set_timer(TimerId::new(0), LocalDuration::from_millis(1));
        out.cancel_timer(TimerId::new(0));
        out.decide(Value::new(3));
        let acts = out.drain();
        assert_eq!(acts.len(), 5);
        assert!(matches!(acts[0], Action::Send { to, .. } if to == ProcessId::new(1)));
        assert!(matches!(acts[1], Action::Broadcast { .. }));
        assert!(matches!(acts[2], Action::SetTimer { .. }));
        assert!(matches!(acts[3], Action::CancelTimer { .. }));
        assert!(
            matches!(acts[4], Action::Decide { value, shard } if value == Value::new(3) && shard == ShardId::ZERO)
        );
        assert!(out.is_empty());
    }

    fn drained(out: &mut Outbox<Ping>) -> Vec<TraceEvent> {
        out.drain_trace().collect()
    }

    #[test]
    fn event_buffers_only_when_tracing() {
        let mut out: Outbox<Ping> = Outbox::new(LocalInstant::ZERO);
        out.event(TraceEvent::Anchored { ballot: 1 });
        assert!(drained(&mut out).is_empty(), "tracing is off by default");

        out.set_tracing(true);
        out.event(TraceEvent::Anchored { ballot: 2 });
        out.event(TraceEvent::Submit { value: 9 });
        assert_eq!(
            drained(&mut out),
            [
                TraceEvent::Anchored { ballot: 2 },
                TraceEvent::Submit { value: 9 }
            ]
        );
        assert!(drained(&mut out).is_empty());

        // Reset keeps enablement but clears any leftover events.
        out.event(TraceEvent::Anchored { ballot: 3 });
        out.reset(LocalInstant::from_nanos(1));
        assert!(drained(&mut out).is_empty());
        out.event(TraceEvent::Anchored { ballot: 4 });
        assert_eq!(drained(&mut out).len(), 1, "reset kept tracing on");

        // Disabling clears the buffer.
        out.event(TraceEvent::Anchored { ballot: 5 });
        out.set_tracing(false);
        assert!(drained(&mut out).is_empty());
        assert_eq!(out.metrics().get(Metric::Anchored), 0, "metering is off");
    }

    #[test]
    fn event_counts_only_when_metering() {
        let decided = TraceEvent::Decided {
            shard: 0,
            slot: 0,
            value: 1,
        };
        let mut out: Outbox<Ping> = Outbox::new(LocalInstant::ZERO);
        out.event(decided);
        assert_eq!(out.metrics().get(Metric::Decided), 0, "off by default");
        out.set_metering(true);
        out.event(decided);
        out.event(decided);
        // Reset keeps enablement and the accumulated counters (the
        // registry is sampled, never drained).
        out.reset(LocalInstant::from_nanos(1));
        out.event(TraceEvent::Chosen { shard: 0, slot: 0 });
        assert_eq!(out.metrics().get(Metric::Decided), 2);
        assert_eq!(out.metrics().get(Metric::Chosen), 1);
        assert!(drained(&mut out).is_empty(), "tracing is off");
        // Disabling zeroes the registry.
        out.set_metering(false);
        assert_eq!(out.metrics().get(Metric::Decided), 0);
    }

    #[test]
    fn drain_empties() {
        let mut out: Outbox<Ping> = Outbox::new(LocalInstant::ZERO);
        out.broadcast(Ping);
        assert_eq!(out.drain().len(), 1);
        assert_eq!(out.drain().len(), 0);
    }

    #[test]
    fn wab_broadcast_action() {
        let mut out: Outbox<Ping> = Outbox::new(LocalInstant::ZERO);
        out.wab_broadcast(WabMessage::new(ProcessId::new(0), 1, Value::new(2)));
        let acts = out.drain();
        assert!(matches!(acts[0], Action::WabBroadcast { msg } if msg.round == 1));
    }

    // A minimal protocol exercising the default trait methods.
    #[derive(Debug)]
    struct Echo {
        id: ProcessId,
        decided: Option<Value>,
    }

    impl Process for Echo {
        type Msg = Ping;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_start(&mut self, out: &mut Outbox<Ping>) {
            out.broadcast(Ping);
        }
        fn on_message(&mut self, from: ProcessId, _msg: &Ping, out: &mut Outbox<Ping>) {
            out.send(from, Ping);
            self.decided = Some(Value::new(1));
            out.decide(Value::new(1));
        }
        fn on_timer(&mut self, _timer: TimerId, _out: &mut Outbox<Ping>) {}
        fn on_restart(&mut self, _out: &mut Outbox<Ping>) {}
        fn decision(&self) -> Option<Value> {
            self.decided
        }
    }

    #[test]
    fn default_oracle_handlers_are_noops() {
        let mut e = Echo {
            id: ProcessId::new(0),
            decided: None,
        };
        let mut out = Outbox::new(LocalInstant::ZERO);
        e.on_leader_change(ProcessId::new(1), &mut out);
        e.on_wab_deliver(
            WabMessage::new(ProcessId::new(1), 0, Value::new(0)),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn echo_process_flow() {
        let mut e = Echo {
            id: ProcessId::new(0),
            decided: None,
        };
        assert_eq!(e.id(), ProcessId::new(0));
        let mut out = Outbox::new(LocalInstant::ZERO);
        e.on_start(&mut out);
        assert_eq!(out.drain().len(), 1);
        e.on_message(ProcessId::new(2), &Ping, &mut out);
        assert_eq!(e.decision(), Some(Value::new(1)));
    }
}
