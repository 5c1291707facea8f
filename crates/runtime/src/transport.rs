//! Queue-based links with pre-stability loss and delay.
//!
//! Every runtime link is a [`Queue`]: an unbounded FIFO behind one mutex
//! that any thread appends to and one receiver empties. Each process owns
//! an inbox (a `Queue` of [`Wire`] items), and the cluster's commit feed
//! is one too. A [`Transport`] handle fans messages out to peers. During
//! the configured unstable window the transport decides each message's
//! fate as the simulator's network decides a pre-`TS` one, by
//! [`PreStabilityModel::fate`]: the policy may drop it (always, if its
//! sender or recipient is isolated) or delay it by a multiple of `δ`.
//! A delayed message goes into the recipient's inbox at once, as a
//! [`Wire::Late`] stamped with its due instant, and the receiving node
//! holds it until then (possibly past the stability point — obsolete
//! messages, alive even after their sender has stopped).
//!
//! Every other message waits in the sender: [`Transport::send`] buffers
//! it per destination, and [`Transport::flush`], at the end of the
//! sender's wake-up, appends each peer's buffer to that peer's inbox
//! under one lock, as [`Wire::Msg`] items in send order, so each link
//! stays FIFO. A message the node addresses to itself never enters a
//! queue: it goes into a local FIFO the node drains
//! ([`Transport::take_local`]) within the same wake-up. After the window
//! there is no loss or delay (queue latency is far below any realistic
//! `δ`).
//!
//! Every blocking receive of the runtime — the node loop's, the commit
//! feed's in [`Cluster::await_decisions`](crate::Cluster::await_decisions)
//! and the closed-loop driver's — is [`Queue::take_until`], which yields
//! the CPU a few times before it sleeps on an empty queue.

use esync_core::network::PreStabilityModel;
use esync_core::time::RealDuration;
use esync_core::types::{ProcessId, Value};
use rand::RngCore;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
pub use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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

/// How many times a [`Queue`] wait yields the CPU and looks again before
/// it sleeps on an empty queue.
pub const YIELDS_BEFORE_SLEEP: usize = 4;

/// An unbounded FIFO link: any thread appends, one receiver takes.
///
/// A sender holds the lock only to append; a receiver only to look and
/// to swap the whole queue out. A receiver that finds the queue empty
/// raises `waiting` before it sleeps on the condition variable, and the
/// sender that finds the flag raised clears it and notifies, after
/// unlocking. Every other append makes no wake-up call: the receiver is
/// busy or still yielding, and looks again before it sleeps. Since the
/// flag is read and written only under the lock, a sender either sees it
/// raised or appends before the receiver's last look, so no wake-up is
/// lost.
///
/// [`close`](Self::close) drops the queued items and every item appended
/// later: a link to a stopped node carries nothing.
#[derive(Debug)]
pub struct Queue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    /// A receiver sleeps (or is about to) and needs a notify.
    waiting: bool,
    closed: bool,
}

impl<T> Default for Queue<T> {
    /// An empty, open queue.
    fn default() -> Self {
        let state = State {
            items: VecDeque::new(),
            waiting: false,
            closed: false,
        };
        Queue {
            state: Mutex::new(state),
            ready: Condvar::new(),
        }
    }
}

impl<T> Queue<T> {
    /// The state, also after another thread panicked holding the lock:
    /// every critical section leaves the state whole at every step (an
    /// append, a swap, a flag write).
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `item`, or drops it if the queue is closed.
    pub fn push(&self, item: T) {
        self.extend(std::iter::once(item));
    }

    /// Appends `items` in order under one lock, or drops them if the
    /// queue is closed.
    pub fn extend(&self, items: impl IntoIterator<Item = T>) {
        let mut state = self.lock();
        if state.closed {
            return;
        }
        state.items.extend(items);
        let wake = std::mem::take(&mut state.waiting);
        drop(state);
        if wake {
            self.ready.notify_all();
        }
    }

    /// Drops every queued item and every item appended from now on, and
    /// wakes a waiting receiver, whose wait then reports
    /// [`RecvTimeoutError::Disconnected`].
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        let dropped = std::mem::take(&mut state.items);
        drop(state);
        drop(dropped);
        self.ready.notify_all();
    }

    /// Waits until an item is queued, then moves every queued item to the
    /// back of `into`, oldest first. Into an empty `into` this is a swap
    /// of the two buffers, so each keeps its capacity and a steady
    /// stream of swaps allocates nothing.
    ///
    /// The wait lasts until `at` (forever if `None`). A queued item is
    /// taken at once, without reading the clock. On an empty queue it
    /// yields the CPU and looks again, up to [`YIELDS_BEFORE_SLEEP`]
    /// times: when threads outnumber cores, the peer about to append the
    /// next item often waits for this very CPU, and a yield lets it run
    /// where a sleep would cost both sides a futex call. Only then does
    /// it read the clock and sleep.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] once `at` has passed with the queue
    /// empty, [`RecvTimeoutError::Disconnected`] once it is closed.
    pub fn take_until(
        &self,
        into: &mut VecDeque<T>,
        at: Option<Instant>,
    ) -> Result<(), RecvTimeoutError> {
        self.wait(at, |items| {
            if into.is_empty() {
                std::mem::swap(items, into);
            } else {
                into.append(items);
            }
        })
    }

    /// Waits up to `timeout` for the next item and takes it alone, in the
    /// way of [`take_until`](Self::take_until).
    ///
    /// # Errors
    ///
    /// As [`take_until`](Self::take_until)'s.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let at = Instant::now() + timeout;
        self.wait(Some(at), |items| items.pop_front().expect("a queued item"))
    }

    /// The wait of [`take_until`](Self::take_until): hands the queue to
    /// `take` once it holds an item.
    fn wait<R>(
        &self,
        at: Option<Instant>,
        take: impl FnOnce(&mut VecDeque<T>) -> R,
    ) -> Result<R, RecvTimeoutError> {
        let (mut state, mut yields) = (self.lock(), 0);
        loop {
            if !state.items.is_empty() {
                return Ok(take(&mut state.items));
            }
            if state.closed {
                return Err(RecvTimeoutError::Disconnected);
            }
            if yields < YIELDS_BEFORE_SLEEP {
                drop(state);
                std::thread::yield_now();
                (state, yields) = (self.lock(), yields + 1);
                continue;
            }
            let left = at.map(|at| at.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                return Err(RecvTimeoutError::Timeout);
            }
            state.waiting = true;
            state = match left {
                None => self
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(left) => {
                    let woken = self.ready.wait_timeout(state, left);
                    woken.unwrap_or_else(PoisonError::into_inner).0
                }
            };
            state.waiting = false;
        }
    }
}

/// A per-node sending handle.
#[derive(Debug)]
pub struct Transport<M> {
    /// The sending node.
    me: ProcessId,
    /// Every node's inbox, indexed by pid (the sender's own included).
    inboxes: Vec<Arc<Queue<Wire<M>>>>,
    /// Messages to each peer not yet flushed, indexed by pid (the
    /// sender's own entry stays empty).
    pending: Vec<Vec<M>>,
    /// Messages the node sent itself, not yet taken.
    local: VecDeque<M>,
    stable_at: Instant,
    /// The fate of each message sent before `stable_at`.
    pre: PreStabilityModel,
    rng: ChaCha8Rng,
}

impl<M: Clone> Transport<M> {
    pub(crate) fn new(
        me: ProcessId,
        inboxes: Vec<Arc<Queue<Wire<M>>>>,
        stable_at: Instant,
        pre: PreStabilityModel,
        rng: ChaCha8Rng,
    ) -> Self {
        Transport {
            me,
            pending: (0..inboxes.len()).map(|_| Vec::new()).collect(),
            inboxes,
            local: VecDeque::new(),
            stable_at,
            pre,
            rng,
        }
    }

    /// Number of endpoints.
    pub fn n(&self) -> usize {
        self.inboxes.len()
    }

    /// Sends `msg` to `to` at wall instant `now` (the sending event's).
    /// Before the stability point the pre-stability policy decides its
    /// fate: lost, or delayed and sent at once as a [`Wire::Late`]. Any
    /// other message waits for [`flush`](Self::flush), or for
    /// [`take_local`](Self::take_local) if `to` is the sender itself.
    pub fn send(&mut self, now: Instant, to: ProcessId, msg: M) {
        if now < self.stable_at {
            let until_stable = (self.stable_at - now).as_nanos() as u64;
            let until_stable = RealDuration::from_nanos(until_stable);
            let rng = &mut self.rng;
            let fate = self.pre.fate(self.me, to, until_stable, || rng.next_u64());
            if let Some(delay) = fate {
                let due = now + Duration::from_nanos(delay.as_nanos());
                let from = self.me;
                let late = Wire::Late(Box::new(Late { due, from, msg }));
                self.inboxes[to.as_usize()].push(late);
            }
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

    /// Sends every buffered message: each peer's, in send order, under
    /// one lock of its inbox. The buffers keep their capacity.
    pub fn flush(&mut self) {
        let from = self.me;
        for (inbox, buf) in self.inboxes.iter().zip(&mut self.pending) {
            if !buf.is_empty() {
                inbox.extend(buf.drain(..).map(|msg| Wire::Msg { from, msg }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esync_core::network::PreStability;
    use rand::{Rng, SeedableRng};

    impl<T> Queue<T> {
        /// The number of queued items.
        pub(crate) fn len(&self) -> usize {
            self.lock().items.len()
        }
    }

    /// `n` empty inboxes.
    fn inboxes<M>(n: usize) -> Vec<Arc<Queue<Wire<M>>>> {
        (0..n).map(|_| Arc::new(Queue::default())).collect()
    }

    /// Every item queued in `q`, oldest first, taken without waiting.
    fn drain<T>(q: &Queue<T>) -> Vec<T> {
        let mut got = VecDeque::new();
        let _ = q.take_until(&mut got, Some(Instant::now()));
        got.into()
    }

    #[test]
    fn take_until_takes_items_queued_before_the_call() {
        let q = Queue::default();
        q.extend([5u32, 6]);
        let past = Instant::now();
        let mut got = VecDeque::new();
        assert_eq!(q.take_until(&mut got, Some(past)), Ok(()), "no wait");
        assert_eq!(got, [5, 6]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn take_until_appends_behind_items_already_taken() {
        let q = Queue::default();
        let mut got = VecDeque::from([1u32]);
        q.push(2);
        assert_eq!(q.take_until(&mut got, None), Ok(()));
        assert_eq!(got, [1, 2]);
    }

    #[test]
    fn take_until_returns_an_item_pushed_while_it_waits() {
        let q = Arc::new(Queue::default());
        let tx = Arc::clone(&q);
        let sender = std::thread::spawn(move || {
            // Long past the looks, so the item arrives during the sleep
            // (the result must be the same if it comes earlier).
            std::thread::sleep(Duration::from_millis(20));
            tx.push(6u32);
        });
        let called = Instant::now();
        let mut got = VecDeque::new();
        let at = called + Duration::from_secs(10);
        assert_eq!(q.take_until(&mut got, Some(at)), Ok(()));
        assert_eq!(got, [6]);
        let took = called.elapsed();
        assert!(took < Duration::from_secs(5), "woken by the push: {took:?}");
        sender.join().unwrap();
    }

    #[test]
    fn take_until_times_out_at_once_on_a_past_deadline() {
        let q = Queue::<u32>::default();
        let called = Instant::now();
        let got = q.take_until(&mut VecDeque::new(), Some(called));
        assert_eq!(got, Err(RecvTimeoutError::Timeout));
        assert!(called.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn a_closed_queue_wakes_its_receiver_and_drops_what_it_gets() {
        let q = Arc::new(Queue::default());
        q.push(1u32);
        let closer = Arc::clone(&q);
        let mut got = VecDeque::new();
        assert_eq!(q.take_until(&mut got, None), Ok(()), "queued items first");
        let close = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            closer.close();
        });
        let closed = RecvTimeoutError::Disconnected;
        assert_eq!(q.take_until(&mut got, None), Err(closed));
        close.join().unwrap();
        q.extend([2, 3]);
        assert_eq!(q.len(), 0, "dropped after the close");
        assert_eq!(q.recv_timeout(Duration::from_secs(5)), Err(closed));
        assert_eq!(got, [1]);
    }

    #[test]
    fn close_drops_the_queued_items() {
        let q = Queue::default();
        let item = Arc::new(());
        q.push(Arc::clone(&item));
        q.close();
        assert_eq!((q.len(), Arc::strong_count(&item)), (0, 1));
    }

    #[test]
    fn recv_timeout_takes_one_item_at_a_time_in_order() {
        let q = Queue::default();
        q.extend([1u32, 2]);
        q.push(3);
        let wait = Duration::from_secs(5);
        let got: Vec<_> = (0..3).map(|_| q.recv_timeout(wait)).collect();
        assert_eq!(got, [Ok(1), Ok(2), Ok(3)]);
    }

    #[test]
    fn recv_timeout_times_out_on_an_empty_queue() {
        let q = Queue::<u32>::default();
        let called = Instant::now();
        let wait = Duration::from_millis(30);
        assert_eq!(q.recv_timeout(wait), Err(RecvTimeoutError::Timeout));
        let took = called.elapsed();
        assert!(took >= wait && took < Duration::from_secs(5), "{took:?}");
    }

    /// One round of the lost-wake-up stress test: two senders push
    /// `PER_SENDER` items each, yielding at random, to a receiver that
    /// sleeps with no deadline whenever the queue is empty. Each sender
    /// waits until its item is handled before it pushes the next, so a
    /// lost wake-up leaves every thread waiting for good, and the
    /// watchdog fails the test.
    fn stress_round(seed: u64) {
        use std::sync::atomic::{AtomicU64, Ordering};
        const PER_SENDER: u64 = 50_000;
        let q = Arc::new(Queue::default());
        // The items of each sender the receiver has handled.
        let handled = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let senders: Vec<_> = (0..2u64)
            .map(|s| {
                let (q, handled) = (Arc::clone(&q), Arc::clone(&handled));
                std::thread::spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(2 * seed + s);
                    for i in 0..PER_SENDER {
                        if rng.gen_bool(0.5) {
                            std::thread::yield_now();
                        }
                        q.push((s, i));
                        while handled[s as usize].load(Ordering::Acquire) <= i {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let receiver = std::thread::spawn(move || {
            let (mut got, mut left) = (VecDeque::new(), 2 * PER_SENDER);
            while left > 0 {
                q.take_until(&mut got, None).unwrap();
                for (s, i) in got.drain(..) {
                    let next = handled[s as usize].load(Ordering::Relaxed);
                    assert_eq!(i, next, "sender {s}'s order");
                    handled[s as usize].store(i + 1, Ordering::Release);
                    left -= 1;
                }
            }
        });
        let watchdog = Instant::now() + Duration::from_secs(20);
        while !receiver.is_finished() {
            let hung = Instant::now() > watchdog;
            assert!(!hung, "round {seed}: the receiver hung, a lost wake-up");
            std::thread::sleep(Duration::from_millis(10));
        }
        receiver.join().unwrap();
        senders.into_iter().for_each(|s| s.join().unwrap());
    }

    /// A wake-up is lost only when a sender sits between two steps just
    /// as the receiver goes to sleep, so the test runs many rounds.
    #[test]
    fn no_wake_up_is_lost_between_two_senders_and_a_sleeping_receiver() {
        (0..20).for_each(stress_round);
    }

    /// `δ` of the transports below.
    const DELTA: Duration = Duration::from_millis(10);

    /// Node `me`'s transport over `queues`, stable from `stable_at`,
    /// applying `pre` before.
    fn transport(
        me: u32,
        queues: &[Arc<Queue<Wire<u32>>>],
        stable_at: Instant,
        pre: PreStability,
    ) -> Transport<u32> {
        let delta = RealDuration::from_nanos(DELTA.as_nanos() as u64);
        let pre = PreStabilityModel::new(pre, delta);
        let rng = ChaCha8Rng::seed_from_u64(u64::from(me) + 1);
        Transport::new(ProcessId::new(me), queues.to_vec(), stable_at, pre, rng)
    }

    #[test]
    fn stable_send_is_immediate() {
        let queues = inboxes::<u32>(2);
        let now = Instant::now();
        // Stable immediately: the policy is irrelevant.
        let mut t = transport(0, &queues, now, PreStability::silent());
        t.send(now, ProcessId::new(1), 42u32);
        assert!(queues[1].len() == 0, "buffered until the flush");
        t.flush();
        match &drain(&queues[1])[..] {
            [Wire::Msg { from, msg }] => {
                assert_eq!(*from, ProcessId::new(0));
                assert_eq!(*msg, 42);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn unstable_send_can_drop() {
        let queues = inboxes::<u32>(2);
        let now = Instant::now();
        let stable_at = now + Duration::from_secs(3600);
        let mut t = transport(0, &queues, stable_at, PreStability::silent());
        for _ in 0..10 {
            t.send(now, ProcessId::new(1), 1u32);
        }
        t.flush();
        assert!(
            queues[1].len() == 0,
            "everything lost in the unstable window"
        );
    }

    #[test]
    fn unstable_send_stamps_late_messages_due_within_the_policys_range() {
        let queues = inboxes::<u32>(1);
        let now = Instant::now();
        let stable_at = now + Duration::from_secs(3600);
        let pre = PreStability {
            loss_prob: 0.0,
            delay_delta_range: (0.0, 3.0),
            ..PreStability::chaos()
        };
        let mut t = transport(0, &queues, stable_at, pre);
        for i in 0..5 {
            t.send(now, ProcessId::new(0), i);
        }
        let items = drain(&queues[0]);
        assert_eq!(items.len(), 5, "{items:?}");
        for (i, item) in (0..).zip(items) {
            match item {
                Wire::Late(late) => {
                    assert_eq!((late.from, late.msg), (ProcessId::new(0), i));
                    assert!(late.due > now && late.due <= now + DELTA * 3, "{late:?}");
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn nothing_is_queued_to_or_from_an_isolated_process_before_stability() {
        let queues = inboxes::<u32>(3);
        let now = Instant::now();
        let stable_at = now + Duration::from_secs(3600);
        let pre = PreStability::lossless().with_isolated([ProcessId::new(2)]);
        let mut peer = transport(0, &queues, stable_at, pre.clone());
        let mut isolated = transport(2, &queues, stable_at, pre);
        for i in 0..100 {
            peer.broadcast(now, i);
            isolated.broadcast(now, i);
        }
        peer.flush();
        isolated.flush();
        assert_eq!(queues[2].len(), 0, "nothing reaches the isolated process");
        let from = |q: &Queue<Wire<u32>>| {
            let from = |item: Wire<u32>| match item {
                Wire::Late(late) => late.from,
                other => panic!("unexpected: {other:?}"),
            };
            drain(q).into_iter().map(from).collect::<Vec<_>>()
        };
        let from_peer = vec![ProcessId::new(0); 100];
        assert_eq!(from(&queues[0]), from_peer, "the peer's own copies only");
        assert_eq!(
            from(&queues[1]),
            from_peer,
            "none from the isolated process"
        );
        assert_eq!((peer.take_local(), isolated.take_local()), (None, None));
        // The isolation lifts at the stability point.
        isolated.send(stable_at, ProcessId::new(1), 7);
        isolated.flush();
        assert!(matches!(drain(&queues[1])[..], [Wire::Msg { msg: 7, .. }]));
    }

    #[test]
    fn bounded_carryover_makes_every_late_message_due_by_stability_plus_delta() {
        let queues = inboxes::<u32>(2);
        let now = Instant::now();
        let stable_at = now + DELTA * 2;
        let mut t = transport(0, &queues, stable_at, PreStability::bounded_carryover());
        for i in 0..1000 {
            t.send(now, ProcessId::new(1), i);
        }
        let items = drain(&queues[1]);
        assert!(
            items.len() > 300,
            "half survive on average: {}",
            items.len()
        );
        for item in items {
            match item {
                Wire::Late(late) => assert!(late.due <= stable_at + DELTA, "{late:?}"),
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn broadcast_reaches_everyone_including_self() {
        let queues = inboxes::<u32>(3);
        let now = Instant::now();
        let mut t = transport(1, &queues, now, PreStability::lossless());
        t.broadcast(now, 9u32);
        t.flush();
        for (i, q) in queues.iter().enumerate() {
            let items = drain(q);
            if i == 1 {
                assert!(items.is_empty(), "no inbox item for the sender");
            } else {
                assert!(matches!(items[..], [Wire::Msg { msg: 9, .. }]));
            }
        }
        assert_eq!(t.take_local(), Some(9), "the sender's copy stays local");
        assert_eq!(t.take_local(), None);
    }

    #[test]
    fn a_flush_appends_each_peers_messages_in_send_order() {
        let queues = inboxes::<u32>(3);
        let now = Instant::now();
        let mut t = transport(0, &queues, now, PreStability::lossless());
        for i in 0..3 {
            t.send(now, ProcessId::new(1), i);
        }
        t.send(now, ProcessId::new(2), 7);
        t.flush();
        let from_0 = |items: Vec<Wire<u32>>| -> Vec<u32> {
            let msg = |item| match item {
                Wire::Msg { from, msg } if from == ProcessId::new(0) => msg,
                other => panic!("unexpected: {other:?}"),
            };
            items.into_iter().map(msg).collect()
        };
        assert_eq!(from_0(drain(&queues[1])), [0, 1, 2]);
        assert_eq!(from_0(drain(&queues[2])), [7]);
        t.flush();
        assert!(queues.iter().all(|q| q.len() == 0), "flushed once");
    }
}
