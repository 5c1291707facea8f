//! Channel-based links with pre-stability loss and delay injection.
//!
//! Each process owns an inbox (an unbounded [`std::sync::mpsc`]
//! receiver); a [`Transport`] handle fans messages out to peers. During
//! the configured unstable window the transport drops messages with a
//! fixed probability and routes a fraction of the survivors through a
//! *delayer* thread that holds them for a random extra delay (possibly
//! past the stability point — obsolete messages). After the window, sends
//! go straight through (channel latency is far below any realistic `δ`).

use esync_core::types::{ProcessId, Value};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::BinaryHeap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
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
    /// An application command (multi-instance protocols).
    Submit {
        /// The command.
        value: Value,
    },
    /// Shut the node down.
    Stop,
}

/// A message parked in the delayer until its due time.
pub(crate) struct Parked<M> {
    due: Instant,
    seq: u64,
    to: usize,
    wire: Wire<M>,
}

impl<M> PartialEq for Parked<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<M> Eq for Parked<M> {}
impl<M> PartialOrd for Parked<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Parked<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by (due, seq).
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// Spawns the delayer thread serving all links of one cluster. It exits
/// once every sender of its channel is dropped.
pub(crate) fn spawn_delayer<M: Send + 'static>(
    node_senders: Vec<Sender<Wire<M>>>,
) -> (Sender<Parked<M>>, JoinHandle<()>) {
    let (tx, rx): (Sender<Parked<M>>, Receiver<Parked<M>>) = channel();
    let handle = std::thread::Builder::new()
        .name("esync-delayer".into())
        .spawn(move || {
            let mut heap: BinaryHeap<Parked<M>> = BinaryHeap::new();
            loop {
                let parked = if let Some(p) = heap.peek() {
                    let now = Instant::now();
                    if p.due <= now {
                        let p = heap.pop().expect("peeked");
                        let _ = node_senders[p.to].send(p.wire);
                        continue;
                    }
                    match rx.recv_timeout(p.due - now) {
                        Ok(parked) => parked,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                } else {
                    match rx.recv() {
                        Ok(parked) => parked,
                        Err(_) => break,
                    }
                };
                heap.push(parked);
            }
        })
        .expect("spawn delayer thread");
    (tx, handle)
}

/// A per-node sending handle.
#[derive(Debug)]
pub struct Transport<M> {
    node_senders: Vec<Sender<Wire<M>>>,
    delayer: Sender<Parked<M>>,
    stable_at: Instant,
    loss_prob: f64,
    max_extra_delay: Duration,
    rng: ChaCha8Rng,
    seq: u64,
}

impl<M: Clone> Transport<M> {
    pub(crate) fn new(
        node_senders: Vec<Sender<Wire<M>>>,
        delayer: Sender<Parked<M>>,
        stable_at: Instant,
        loss_prob: f64,
        max_extra_delay: Duration,
        rng: ChaCha8Rng,
    ) -> Self {
        Transport {
            node_senders,
            delayer,
            stable_at,
            loss_prob,
            max_extra_delay,
            rng,
            seq: 0,
        }
    }

    /// Number of endpoints.
    pub fn n(&self) -> usize {
        self.node_senders.len()
    }

    /// Sends `msg` from `from` to `to`, applying the unstable-window
    /// policy at wall instant `now` (the sending event's).
    pub fn send(&mut self, now: Instant, from: ProcessId, to: ProcessId, msg: M) {
        let wire = Wire::Msg { from, msg };
        if now < self.stable_at {
            if self.loss_prob > 0.0 && self.rng.gen_bool(self.loss_prob) {
                return; // lost
            }
            if !self.max_extra_delay.is_zero() {
                let extra_ns = self
                    .rng
                    .gen_range(0..=self.max_extra_delay.as_nanos() as u64);
                if extra_ns > 0 {
                    self.seq += 1;
                    let _ = self.delayer.send(Parked {
                        due: now + Duration::from_nanos(extra_ns),
                        seq: self.seq,
                        to: to.as_usize(),
                        wire,
                    });
                    return;
                }
            }
        }
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

/// Creates the inbox channels for `n` nodes. Unbounded, like every other
/// runtime channel: its blocks are allocated as messages arrive, where a
/// bounded one would allocate its whole capacity up front.
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
        let (dtx, dh) = spawn_delayer(senders.clone());
        let now = Instant::now();
        let mut t = Transport::new(
            senders,
            dtx,
            now, // stable immediately
            1.0, // loss prob irrelevant after stability
            Duration::from_secs(1),
            ChaCha8Rng::seed_from_u64(1),
        );
        t.send(now, ProcessId::new(0), ProcessId::new(1), 42u32);
        match receivers[1].recv_timeout(Duration::from_millis(100)) {
            Ok(Wire::Msg { from, msg }) => {
                assert_eq!(from, ProcessId::new(0));
                assert_eq!(msg, 42);
            }
            other => panic!("unexpected: {other:?}"),
        }
        drop(t);
        dh.join().unwrap();
    }

    #[test]
    fn unstable_send_can_drop() {
        let (senders, receivers) = make_inboxes::<u32>(2);
        let (dtx, dh) = spawn_delayer(senders.clone());
        let now = Instant::now();
        let mut t = Transport::new(
            senders,
            dtx,
            now + Duration::from_secs(3600),
            1.0, // always lose
            Duration::ZERO,
            ChaCha8Rng::seed_from_u64(2),
        );
        for _ in 0..10 {
            t.send(now, ProcessId::new(0), ProcessId::new(1), 1u32);
        }
        assert!(
            receivers[1]
                .recv_timeout(Duration::from_millis(50))
                .is_err(),
            "everything lost in the unstable window"
        );
        drop(t);
        dh.join().unwrap();
    }

    #[test]
    fn delayed_messages_arrive_later() {
        let (senders, receivers) = make_inboxes::<u32>(1);
        let (dtx, dh) = spawn_delayer(senders.clone());
        let now = Instant::now();
        let mut t = Transport::new(
            senders,
            dtx,
            now + Duration::from_secs(3600),
            0.0,
            Duration::from_millis(30),
            ChaCha8Rng::seed_from_u64(3),
        );
        let sent_at = Instant::now();
        for _ in 0..5 {
            t.send(sent_at, ProcessId::new(0), ProcessId::new(0), 7u32);
        }
        let mut got = 0;
        while got < 5 {
            match receivers[0].recv_timeout(Duration::from_millis(500)) {
                Ok(Wire::Msg { .. }) => got += 1,
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert!(sent_at.elapsed() <= Duration::from_millis(400));
        drop(t);
        dh.join().unwrap();
    }

    #[test]
    fn broadcast_reaches_everyone_including_self() {
        let (senders, receivers) = make_inboxes::<u32>(3);
        let (dtx, dh) = spawn_delayer(senders.clone());
        let now = Instant::now();
        let mut t = Transport::new(
            senders,
            dtx,
            now,
            0.0,
            Duration::ZERO,
            ChaCha8Rng::seed_from_u64(4),
        );
        t.broadcast(now, ProcessId::new(1), 9u32);
        for r in &receivers {
            assert!(matches!(
                r.recv_timeout(Duration::from_millis(100)),
                Ok(Wire::Msg { msg: 9, .. })
            ));
        }
        drop(t);
        dh.join().unwrap();
    }
}
