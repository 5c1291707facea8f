//! The paper's §5 implementation of the weak-ordering oracle.
//!
//! "We implement the message-delivery oracle as follows. All messages to be
//! delivered by the oracle are broadcast to all processes and are
//! timestamped with logical clocks. … The oracle delivers messages to a
//! process in timestamp order, waiting `2δ` seconds after the message is
//! actually received by the process before delivering it."
//!
//! Why `2δ` works after stability: a message `m` sent when the system is
//! stable reaches every nonfaulty process within `δ`, after which every
//! message anyone sends carries a higher timestamp; those later messages
//! need at most another `δ` to arrive. So by the time `m`'s `2δ` wait ends,
//! every message with a lower timestamp (sent after stability) has been
//! received, and delivering buffered messages in timestamp order yields the
//! same order at every process. Messages from before `TS` or from freshly
//! restarted processes can still arrive out of order — that is exactly the
//! disruption the round gating confines to rounds ≤ `r0 + 1`.

use crate::config::TimingConfig;
use crate::lclock::{LamportClock, Timestamp};
use crate::time::{LocalDuration, LocalInstant};
use crate::types::ProcessId;
use crate::wab::WabMessage;
use std::collections::{BTreeMap, BTreeSet};

/// A per-process weak-ordering oracle built from Lamport timestamps and a
/// `2δ` delivery wait. The host protocol broadcasts the stamped messages
/// itself and feeds arrivals back in; the oracle only decides *when* and in
/// *what order* to w-deliver.
#[derive(Debug, Clone)]
pub struct TimestampOracle {
    clock: LamportClock,
    /// Local-clock wait spanning at least `2δ` real time.
    wait: LocalDuration,
    /// Received but not yet w-delivered, keyed by timestamp (the delivery
    /// order), valued with the payload and its ripeness deadline.
    buffer: BTreeMap<Timestamp, (WabMessage, LocalInstant)>,
    /// Stamps already w-delivered (so retransmitted duplicates are not
    /// delivered twice).
    delivered: BTreeSet<Timestamp>,
}

impl TimestampOracle {
    /// Creates the oracle for process `pid`.
    pub fn new(pid: ProcessId, cfg: &TimingConfig) -> Self {
        TimestampOracle {
            clock: LamportClock::new(pid),
            wait: cfg.local_at_least(cfg.delta() * 2),
            buffer: BTreeMap::new(),
            delivered: BTreeSet::new(),
        }
    }

    /// Stamps an outgoing w-broadcast. The host must broadcast the stamped
    /// message (including to itself, whose copy arrives via the network
    /// like everyone else's).
    pub fn stamp(&mut self, msg: &WabMessage) -> Timestamp {
        let _ = msg;
        self.clock.stamp_send()
    }

    /// Records an arriving stamped message at local time `now`. Returns the
    /// earliest ripeness deadline the host should (re-)arm its oracle timer
    /// for, if any.
    pub fn on_stamped(
        &mut self,
        stamp: Timestamp,
        msg: WabMessage,
        now: LocalInstant,
    ) -> Option<LocalInstant> {
        self.clock.observe(stamp);
        if !self.delivered.contains(&stamp) && !self.buffer.contains_key(&stamp) {
            self.buffer.insert(stamp, (msg, now + self.wait));
        }
        self.earliest_deadline()
    }

    /// Releases buffered messages **in timestamp order**: walk the buffer
    /// from the smallest stamp, delivering each message whose `2δ` wait has
    /// elapsed, and stop at the first that is still waiting — later-stamped
    /// messages must queue behind it even if their own wait has elapsed,
    /// because "the oracle delivers messages to a process in timestamp
    /// order" and the `2δ` is only the *minimum* wait. (A lower-stamped
    /// straggler arriving after higher stamps were already delivered is the
    /// one violation the paper permits, and only pre-`TS` messages can
    /// cause it.) Returns the next deadline to arm, if any.
    pub fn release(&mut self, now: LocalInstant) -> (Vec<WabMessage>, Option<LocalInstant>) {
        let mut out = Vec::new();
        while let Some((&stamp, &(_, ripe_at))) = self.buffer.iter().next() {
            if ripe_at > now {
                break; // the next-in-order message gates everything behind it
            }
            let (msg, _) = self.buffer.remove(&stamp).expect("key just peeked");
            self.delivered.insert(stamp);
            out.push(msg);
        }
        (out, self.earliest_deadline())
    }

    /// When the next w-delivery can happen: the ripeness deadline of the
    /// *smallest-stamped* buffered message (which gates all the others).
    pub fn earliest_deadline(&self) -> Option<LocalInstant> {
        self.buffer.values().next().map(|(_, d)| *d)
    }

    /// Number of buffered (not yet w-delivered) messages.
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn cfg() -> TimingConfig {
        TimingConfig::for_n_processes(3).unwrap()
    }

    fn oracle(id: u32) -> TimestampOracle {
        TimestampOracle::new(ProcessId::new(id), &cfg())
    }

    fn wmsg(origin: u32, round: u64, v: u64) -> WabMessage {
        WabMessage::new(ProcessId::new(origin), round, Value::new(v))
    }

    fn t(ns: u64) -> LocalInstant {
        LocalInstant::from_nanos(ns)
    }

    #[test]
    fn nothing_ripens_before_the_wait() {
        let mut o = oracle(0);
        let stamp = Timestamp::new(1, ProcessId::new(1));
        let deadline = o.on_stamped(stamp, wmsg(1, 0, 5), t(0)).unwrap();
        assert_eq!(o.pending(), 1);
        let (msgs, next) = o.release(t(deadline.as_nanos() - 1));
        assert!(msgs.is_empty(), "not ripe yet");
        assert_eq!(next, Some(deadline));
        let (msgs, next) = o.release(deadline);
        assert_eq!(msgs.len(), 1);
        assert_eq!(next, None);
        assert_eq!(o.pending(), 0);
    }

    #[test]
    fn wait_spans_at_least_two_delta() {
        let o = oracle(0);
        let rho = cfg().rho();
        let real_min = o.wait.as_nanos() as f64 / (1.0 + rho);
        assert!(real_min + 1.0 >= (cfg().delta() * 2).as_nanos() as f64);
    }

    #[test]
    fn delivery_is_in_timestamp_order() {
        let mut o = oracle(0);
        // Received out of timestamp order, ripe together.
        o.on_stamped(Timestamp::new(9, ProcessId::new(2)), wmsg(2, 0, 9), t(0));
        o.on_stamped(Timestamp::new(3, ProcessId::new(1)), wmsg(1, 0, 3), t(1));
        o.on_stamped(Timestamp::new(3, ProcessId::new(0)), wmsg(0, 0, 30), t(2));
        let far = t(10_000_000_000);
        let (msgs, _) = o.release(far);
        let values: Vec<u64> = msgs.iter().map(|m| m.value.get()).collect();
        // (3,p0) < (3,p1) < (9,p2): pid breaks the tie.
        assert_eq!(values, vec![30, 3, 9]);
    }

    #[test]
    fn ripe_message_waits_for_unripe_lower_stamp() {
        // Timestamp order is the primary constraint: a message whose 2δ
        // elapsed still queues behind a buffered lower-stamped message
        // whose wait has not.
        let mut o = oracle(0);
        o.on_stamped(Timestamp::new(9, ProcessId::new(2)), wmsg(2, 0, 9), t(0));
        let d_high = t(0) + o.wait;
        // Lower stamp arrives just before the higher one ripens.
        o.on_stamped(
            Timestamp::new(3, ProcessId::new(1)),
            wmsg(1, 0, 3),
            t(d_high.as_nanos() - 1),
        );
        let (msgs, next) = o.release(d_high);
        assert!(msgs.is_empty(), "the lower stamp gates the ripe one");
        let d_low = t(d_high.as_nanos() - 1) + o.wait;
        assert_eq!(next, Some(d_low), "deadline follows the gating message");
        let (msgs, next) = o.release(d_low);
        assert_eq!(
            msgs.iter().map(|m| m.value.get()).collect::<Vec<_>>(),
            vec![3, 9],
            "released together, in stamp order"
        );
        assert_eq!(next, None);
    }

    #[test]
    fn pre_ts_straggler_may_be_delivered_out_of_order() {
        // The one permitted violation: a lower-stamped message arriving
        // after higher stamps were already delivered goes out late.
        let mut o = oracle(0);
        o.on_stamped(Timestamp::new(9, ProcessId::new(2)), wmsg(2, 0, 9), t(0));
        let d_high = t(0) + o.wait;
        let (msgs, _) = o.release(d_high);
        assert_eq!(msgs.len(), 1, "nothing lower was buffered: deliver");
        // Now the straggler shows up.
        o.on_stamped(Timestamp::new(3, ProcessId::new(1)), wmsg(1, 0, 3), d_high);
        let (msgs, _) = o.release(d_high + o.wait);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].value.get(), 3, "delivered late, out of order");
    }

    #[test]
    fn duplicates_are_not_delivered_twice() {
        let mut o = oracle(0);
        let stamp = Timestamp::new(1, ProcessId::new(1));
        o.on_stamped(stamp, wmsg(1, 0, 5), t(0));
        let far = t(10_000_000_000);
        let (msgs, _) = o.release(far);
        assert_eq!(msgs.len(), 1);
        // Retransmitted duplicate of the same stamp after delivery.
        o.on_stamped(stamp, wmsg(1, 0, 5), far);
        let (msgs, _) = o.release(t(20_000_000_000));
        assert!(msgs.is_empty(), "duplicate suppressed");
        // Duplicate while still buffered is also suppressed.
        let s2 = Timestamp::new(2, ProcessId::new(2));
        o.on_stamped(s2, wmsg(2, 0, 6), t(20_000_000_000));
        o.on_stamped(s2, wmsg(2, 0, 6), t(20_000_000_001));
        assert_eq!(o.pending(), 1);
    }

    #[test]
    fn stamping_after_observation_is_greater() {
        let mut o = oracle(0);
        o.on_stamped(Timestamp::new(41, ProcessId::new(1)), wmsg(1, 0, 1), t(0));
        let s = o.stamp(&wmsg(0, 1, 2));
        assert!(s > Timestamp::new(41, ProcessId::new(1)));
        assert_eq!(s.time, 42);
    }

    #[test]
    fn earliest_deadline_follows_the_smallest_stamp() {
        let mut o = oracle(0);
        assert_eq!(o.earliest_deadline(), None);
        // Stamp 1 received late, stamp 2 received early: stamp 1 gates.
        let d1 = o
            .on_stamped(Timestamp::new(1, ProcessId::new(1)), wmsg(1, 0, 1), t(100))
            .unwrap();
        let d_after_second = o
            .on_stamped(Timestamp::new(2, ProcessId::new(2)), wmsg(2, 0, 2), t(0))
            .unwrap();
        assert_eq!(d1, t(100) + o.wait);
        assert_eq!(
            d_after_second, d1,
            "the smaller stamp's deadline gates delivery"
        );
        assert_eq!(o.earliest_deadline(), Some(d1));
    }

    #[test]
    fn same_order_at_two_processes_when_stable() {
        // Two oracles receiving the same messages at different times (within
        // δ) deliver them in the same order.
        let mut a = oracle(0);
        let mut b = oracle(1);
        let msgs = [
            (Timestamp::new(5, ProcessId::new(2)), wmsg(2, 1, 50)),
            (Timestamp::new(6, ProcessId::new(0)), wmsg(0, 1, 60)),
            (Timestamp::new(6, ProcessId::new(1)), wmsg(1, 1, 61)),
        ];
        // a receives them in order, b in reverse.
        for (i, (s, m)) in msgs.iter().enumerate() {
            a.on_stamped(*s, *m, t(i as u64));
        }
        for (i, (s, m)) in msgs.iter().rev().enumerate() {
            b.on_stamped(*s, *m, t(i as u64));
        }
        let far = t(10_000_000_000);
        let (da, _) = a.release(far);
        let (db, _) = b.release(far);
        assert_eq!(da, db, "identical w-delivery order");
    }
}
