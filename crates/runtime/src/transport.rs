//! Channel-based links with pre-stability loss and delay.
//!
//! Each process owns an inbox (an unbounded [`std::sync::mpsc`]
//! receiver); a [`Transport`] handle fans messages out to peers. During
//! the configured unstable window the transport drops messages with a
//! fixed probability and gives a fraction of the survivors a random extra
//! delay: such a message goes into the recipient's inbox at once, as a
//! [`Wire::Late`] stamped with its due instant, and the receiving node
//! holds it until then (possibly past the stability point — obsolete
//! messages, alive even after their sender has stopped).
//!
//! Every other message waits in the sender: [`Transport::send`] buffers
//! it per destination, and [`Transport::flush`], at the end of the
//! sender's wake-up, makes one channel send per peer — a lone message as
//! [`Wire::Msg`], several as one [`Wire::Batch`] in send order, so each
//! link stays FIFO. A message the node addresses to itself never enters
//! a channel: it goes into a local FIFO the node drains
//! ([`Transport::take_local`]) within the same wake-up. After the window
//! there is no loss or delay (channel latency is far below any realistic
//! `δ`).
//!
//! Every blocking receive of the runtime — the node loop's, the commit
//! feed's in [`Cluster::await_decisions`](crate::Cluster::await_decisions)
//! and the closed-loop driver's — goes through [`recv_until`]. It yields
//! the CPU and looks again [`YIELDS_BEFORE_SLEEP`] times before it parks
//! on an empty channel: with more threads than cores, the next item is
//! usually a peer's on the same CPU, and a yield hands it over without a
//! futex sleep on this side and a wake on the sender's.

use esync_core::types::{ProcessId, Value};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
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
    /// Two or more protocol messages from one sender's wake-up, in send
    /// order.
    Batch {
        /// The sender.
        from: ProcessId,
        /// The messages, oldest first.
        msgs: Vec<M>,
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
    /// The sending node.
    me: ProcessId,
    node_senders: Vec<Sender<Wire<M>>>,
    /// Messages to each peer not yet flushed, indexed by pid (the
    /// sender's own entry stays empty).
    pending: Vec<Vec<M>>,
    /// Messages the node sent itself, not yet taken.
    local: VecDeque<M>,
    stable_at: Instant,
    loss_prob: f64,
    max_extra_delay: Duration,
    rng: ChaCha8Rng,
}

impl<M: Clone> Transport<M> {
    pub(crate) fn new(
        me: ProcessId,
        node_senders: Vec<Sender<Wire<M>>>,
        stable_at: Instant,
        loss_prob: f64,
        max_extra_delay: Duration,
        rng: ChaCha8Rng,
    ) -> Self {
        Transport {
            me,
            pending: (0..node_senders.len()).map(|_| Vec::new()).collect(),
            node_senders,
            local: VecDeque::new(),
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

    /// Sends `msg` to `to`, applying the unstable-window policy at wall
    /// instant `now` (the sending event's). A delayed message goes out at
    /// once as a [`Wire::Late`]; any other waits for
    /// [`flush`](Self::flush), or for [`take_local`](Self::take_local) if
    /// `to` is the sender itself.
    pub fn send(&mut self, now: Instant, to: ProcessId, msg: M) {
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
        if extra_ns > 0 {
            let due = now + Duration::from_nanos(extra_ns);
            let from = self.me;
            let late = Wire::Late(Box::new(Late { due, from, msg }));
            let _ = self.node_senders[to.as_usize()].send(late);
        } else if to == self.me {
            self.local.push_back(msg);
        } else {
            self.pending[to.as_usize()].push(msg);
        }
    }

    /// Broadcasts to all endpoints, including the sender, at wall instant
    /// `now`: `n − 1` clones, the last recipient takes `msg` itself.
    pub fn broadcast(&mut self, now: Instant, msg: M) {
        let Some(last) = self.n().checked_sub(1) else {
            return;
        };
        for to in 0..last {
            self.send(now, ProcessId::new(to as u32), msg.clone());
        }
        self.send(now, ProcessId::new(last as u32), msg);
    }

    /// The oldest message the node sent itself and has not yet taken.
    pub fn take_local(&mut self) -> Option<M> {
        self.local.pop_front()
    }

    /// Sends every buffered message: one channel item per peer that has
    /// any, in send order.
    pub fn flush(&mut self) {
        let from = self.me;
        for (to, buf) in self.pending.iter_mut().enumerate() {
            let wire = match buf.len() {
                0 => continue,
                1 => Wire::Msg {
                    from,
                    msg: buf.pop().expect("one message"),
                },
                _ => {
                    // One exact-size allocation; `buf` keeps its capacity,
                    // so the next wake-up does not regrow it from zero.
                    let mut msgs = Vec::with_capacity(buf.len());
                    msgs.append(buf);
                    Wire::Batch { from, msgs }
                }
            };
            let _ = self.node_senders[to].send(wire);
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

/// How many times [`recv_until`] yields the CPU and looks again before it
/// sleeps on an empty channel.
pub const YIELDS_BEFORE_SLEEP: usize = 4;

/// Waits for the next item of `rx` until `at` (forever if `None`): the
/// one wait of every runtime node and of the closed-loop driver.
///
/// A queued item is taken at once, without reading the clock. On an empty
/// channel it yields the CPU and looks again, up to
/// [`YIELDS_BEFORE_SLEEP`] times: when threads outnumber cores, the peer
/// about to send the next item is often waiting for this very CPU, and a
/// yield lets it run where a sleep would cost both sides a futex call.
/// Only then does it read the clock and sleep (`recv_deadline` is not
/// stable in std). On a core with nothing else to run a yield returns at
/// once, so an idle caller still sleeps after a few system calls.
///
/// # Errors
///
/// [`RecvTimeoutError::Timeout`] once `at` has passed with the channel
/// empty, [`RecvTimeoutError::Disconnected`] once it is empty and every
/// sender is gone.
pub fn recv_until<T>(rx: &Receiver<T>, at: Option<Instant>) -> Result<T, RecvTimeoutError> {
    for look in 0..=YIELDS_BEFORE_SLEEP {
        if look > 0 {
            std::thread::yield_now();
        }
        match rx.try_recv() {
            Err(TryRecvError::Empty) => {}
            got => return got.map_err(|_| RecvTimeoutError::Disconnected),
        }
    }
    match at {
        Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn recv_until_returns_an_item_queued_before_the_call() {
        let (tx, rx) = channel();
        tx.send(5u32).unwrap();
        let past = Instant::now();
        assert_eq!(recv_until(&rx, Some(past)), Ok(5), "no wait needed");
    }

    #[test]
    fn recv_until_returns_an_item_sent_while_it_waits() {
        let (tx, rx) = channel();
        let sender = std::thread::spawn(move || {
            // Long past the looks, so the item arrives during the sleep
            // (the result must be the same if it comes earlier).
            std::thread::sleep(Duration::from_millis(20));
            tx.send(6u32).unwrap();
        });
        let at = Instant::now() + Duration::from_secs(5);
        assert_eq!(recv_until(&rx, Some(at)), Ok(6));
        sender.join().unwrap();
    }

    #[test]
    fn recv_until_times_out_at_once_on_a_past_deadline() {
        let (_tx, rx) = channel::<u32>();
        let called = Instant::now();
        let got = recv_until(&rx, Some(called));
        assert_eq!(got, Err(RecvTimeoutError::Timeout));
        assert!(called.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn recv_until_without_a_deadline_reports_the_last_sender_gone() {
        let (tx, rx) = channel();
        tx.send(1u32).unwrap();
        let dropper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(tx);
        });
        assert_eq!(recv_until(&rx, None), Ok(1), "queued items first");
        assert_eq!(recv_until(&rx, None), Err(RecvTimeoutError::Disconnected));
        dropper.join().unwrap();
    }

    #[test]
    fn stable_send_is_immediate() {
        let (senders, receivers) = make_inboxes::<u32>(2);
        let now = Instant::now();
        let mut t = Transport::new(
            ProcessId::new(0),
            senders,
            now, // stable immediately
            1.0, // loss prob irrelevant after stability
            Duration::from_secs(1),
            ChaCha8Rng::seed_from_u64(1),
        );
        t.send(now, ProcessId::new(1), 42u32);
        assert!(receivers[1].try_recv().is_err(), "buffered until the flush");
        t.flush();
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
            ProcessId::new(0),
            senders,
            now + Duration::from_secs(3600),
            1.0, // always lose
            Duration::ZERO,
            ChaCha8Rng::seed_from_u64(2),
        );
        for _ in 0..10 {
            t.send(now, ProcessId::new(1), 1u32);
        }
        t.flush();
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
            ProcessId::new(0),
            senders,
            now + Duration::from_secs(3600),
            0.0,
            max,
            ChaCha8Rng::seed_from_u64(3),
        );
        for i in 0..5 {
            t.send(now, ProcessId::new(0), i);
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
            ProcessId::new(1),
            senders,
            now,
            0.0,
            Duration::ZERO,
            ChaCha8Rng::seed_from_u64(4),
        );
        t.broadcast(now, 9u32);
        t.flush();
        for (i, r) in receivers.iter().enumerate() {
            if i == 1 {
                assert!(r.try_recv().is_err(), "no inbox item for the sender");
            } else {
                assert!(matches!(r.try_recv(), Ok(Wire::Msg { msg: 9, .. })));
            }
        }
        assert_eq!(t.take_local(), Some(9), "the sender's copy stays local");
        assert_eq!(t.take_local(), None);
    }

    #[test]
    fn a_flush_batches_each_peers_messages_in_send_order() {
        let (senders, receivers) = make_inboxes::<u32>(3);
        let now = Instant::now();
        let mut t = Transport::new(
            ProcessId::new(0),
            senders,
            now,
            0.0,
            Duration::ZERO,
            ChaCha8Rng::seed_from_u64(5),
        );
        for i in 0..3 {
            t.send(now, ProcessId::new(1), i);
        }
        t.send(now, ProcessId::new(2), 7);
        t.flush();
        match receivers[1].try_recv() {
            Ok(Wire::Batch { from, msgs }) => {
                assert_eq!((from, msgs), (ProcessId::new(0), vec![0, 1, 2]));
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(matches!(
            receivers[2].try_recv(),
            Ok(Wire::Msg { msg: 7, .. })
        ));
        t.flush();
        assert!(
            receivers.iter().all(|r| r.try_recv().is_err()),
            "flushed once"
        );
    }
}
