//! Channel-based links with pre-stability loss and delay.
//!
//! Each process owns an inbox (an unbounded [`std::sync::mpsc`]
//! receiver); a [`Transport`] handle fans messages out to peers. During
//! the configured unstable window the transport drops messages with a
//! fixed probability and gives a fraction of the survivors a random extra
//! delay: such a message goes into the recipient's inbox at once, as a
//! [`Wire::Late`] stamped with its due instant, and the receiving node
//! holds it until then (possibly past the stability point — obsolete
//! messages, alive even after their sender has stopped). After the
//! window, sends go straight through (channel latency is far below any
//! realistic `δ`).

use esync_core::types::{ProcessId, Value};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// What travels over a link.
#[derive(Debug, Clone)]
pub enum Wire<M> {
    /// A protocol message.
    Msg {
        /// The sender.
        from: ProcessId,
        /// The message.
        msg: M,
    },
    /// A protocol message the unstable window delayed (boxed, so that the
    /// rare delayed message does not widen every other one).
    Late(Box<Late<M>>),
    /// An application command (multi-instance protocols).
    Submit {
        /// The command.
        value: Value,
    },
    /// Shut the node down.
    Stop,
}

/// A delayed protocol message: its recipient handles it once `due` has
/// passed.
#[derive(Debug, Clone)]
pub struct Late<M> {
    /// The wall instant before which the recipient must not handle it.
    pub due: Instant,
    /// The sender.
    pub from: ProcessId,
    /// The message.
    pub msg: M,
}

/// A per-node sending handle.
#[derive(Debug)]
pub struct Transport<M> {
    node_senders: Vec<Sender<Wire<M>>>,
    stable_at: Instant,
    loss_prob: f64,
    max_extra_delay: Duration,
    rng: ChaCha8Rng,
}

impl<M: Clone> Transport<M> {
    pub(crate) fn new(
        node_senders: Vec<Sender<Wire<M>>>,
        stable_at: Instant,
        loss_prob: f64,
        max_extra_delay: Duration,
        rng: ChaCha8Rng,
    ) -> Self {
        Transport {
            node_senders,
            stable_at,
            loss_prob,
            max_extra_delay,
            rng,
        }
    }

    /// Number of endpoints.
    pub fn n(&self) -> usize {
        self.node_senders.len()
    }

    /// Sends `msg` from `from` to `to`, applying the unstable-window
    /// policy at wall instant `now` (the sending event's).
    pub fn send(&mut self, now: Instant, from: ProcessId, to: ProcessId, msg: M) {
        let mut extra_ns = 0;
        if now < self.stable_at {
            if self.loss_prob > 0.0 && self.rng.gen_bool(self.loss_prob) {
                return; // lost
            }
            if !self.max_extra_delay.is_zero() {
                extra_ns = self
                    .rng
                    .gen_range(0..=self.max_extra_delay.as_nanos() as u64);
            }
        }
        let wire = if extra_ns > 0 {
            let due = now + Duration::from_nanos(extra_ns);
            Wire::Late(Box::new(Late { due, from, msg }))
        } else {
            Wire::Msg { from, msg }
        };
        let _ = self.node_senders[to.as_usize()].send(wire);
    }

    /// Broadcasts to all endpoints, including the sender, at wall instant
    /// `now`.
    pub fn broadcast(&mut self, now: Instant, from: ProcessId, msg: M) {
        for to in 0..self.n() {
            self.send(now, from, ProcessId::new(to as u32), msg.clone());
        }
    }
}

/// The sending and receiving halves of all node inboxes.
pub(crate) type Inboxes<M> = (Vec<Sender<Wire<M>>>, Vec<Receiver<Wire<M>>>);

/// Creates the inbox channels for `n` nodes. Unbounded, like the commit
/// feed: its blocks are allocated as messages arrive, where a bounded one
/// would allocate its whole capacity up front.
pub(crate) fn make_inboxes<M>(n: usize) -> Inboxes<M> {
    (0..n).map(|_| channel()).unzip()
}

/// Takes a queued item without reading the clock; only an empty channel
/// reads it, to wait until `at` (`recv_deadline` is not stable in std).
pub(crate) fn recv_until<T>(rx: &Receiver<T>, at: Instant) -> Result<T, RecvTimeoutError> {
    rx.try_recv()
        .or_else(|_| rx.recv_timeout(at.saturating_duration_since(Instant::now())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn stable_send_is_immediate() {
        let (senders, receivers) = make_inboxes::<u32>(2);
        let now = Instant::now();
        let mut t = Transport::new(
            senders,
            now, // stable immediately
            1.0, // loss prob irrelevant after stability
            Duration::from_secs(1),
            ChaCha8Rng::seed_from_u64(1),
        );
        t.send(now, ProcessId::new(0), ProcessId::new(1), 42u32);
        match receivers[1].try_recv() {
            Ok(Wire::Msg { from, msg }) => {
                assert_eq!(from, ProcessId::new(0));
                assert_eq!(msg, 42);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn unstable_send_can_drop() {
        let (senders, receivers) = make_inboxes::<u32>(2);
        let now = Instant::now();
        let mut t = Transport::new(
            senders,
            now + Duration::from_secs(3600),
            1.0, // always lose
            Duration::ZERO,
            ChaCha8Rng::seed_from_u64(2),
        );
        for _ in 0..10 {
            t.send(now, ProcessId::new(0), ProcessId::new(1), 1u32);
        }
        assert!(
            receivers[1].try_recv().is_err(),
            "everything lost in the unstable window"
        );
    }

    #[test]
    fn unstable_send_stamps_late_messages_due_within_the_bound() {
        let (senders, receivers) = make_inboxes::<u32>(1);
        let now = Instant::now();
        let max = Duration::from_millis(30);
        let mut t = Transport::new(
            senders,
            now + Duration::from_secs(3600),
            0.0,
            max,
            ChaCha8Rng::seed_from_u64(3),
        );
        for i in 0..5 {
            t.send(now, ProcessId::new(0), ProcessId::new(0), i);
        }
        for i in 0..5 {
            match receivers[0].try_recv() {
                Ok(Wire::Late(late)) => {
                    assert_eq!((late.from, late.msg), (ProcessId::new(0), i));
                    assert!(late.due > now && late.due <= now + max, "{late:?}");
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn broadcast_reaches_everyone_including_self() {
        let (senders, receivers) = make_inboxes::<u32>(3);
        let now = Instant::now();
        let mut t = Transport::new(
            senders,
            now,
            0.0,
            Duration::ZERO,
            ChaCha8Rng::seed_from_u64(4),
        );
        t.broadcast(now, ProcessId::new(1), 9u32);
        for r in &receivers {
            assert!(matches!(r.try_recv(), Ok(Wire::Msg { msg: 9, .. })));
        }
    }
}
