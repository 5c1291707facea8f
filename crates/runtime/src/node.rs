//! One OS thread per process: inbox, wall-clock timers, drifting local
//! clock, and the late messages it holds until they are due.
//!
//! A wake-up is the node's unit of work and of communication. The node
//! swaps its whole inbox queue into a node-local buffer whenever that
//! buffer is empty; a wake-up fires the due timers, then handles up to
//! [`DRAIN_CAP`] items of the buffer, then the held messages now due. A
//! message the node sends itself is handled in the same wake-up, right
//! after the event that sent it, without touching a queue. What the
//! wake-up sends to peers is buffered and flushed at its end, one lock
//! of each peer's inbox, followed by its commits under one lock of the
//! commit feed.
//!
//! The loop reads the wall clock once per wake-up. The local reading, the
//! trace stamp, commit times, timer deadlines, the due test of held
//! messages and the unstable-window test of every event handled in that
//! wake-up are all derived from that one [`Instant`], converted once per
//! wake-up. While the local buffer holds items the next wake-up follows
//! at once; otherwise the node waits in [`Queue::take_until`]: a queued
//! message is taken at once; on an empty inbox the node yields the CPU
//! and looks again a few times, and only then takes the one extra reading
//! — when a timer, snapshot or held message is pending, the sleep until
//! that deadline is measured from it.

use crate::cluster::{Commit, NodeStats};
use crate::transport::{Late, Queue, RecvTimeoutError, Transport, Wire};
use esync_core::outbox::{Action, Outbox, Process};
use esync_core::time::LocalInstant;
use esync_core::types::{ProcessId, ShardId, TimerId};
use esync_metrics::Observer;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The most inbox items one wake-up handles. Past it the node flushes and
/// wakes again at once, so a busy inbox cannot starve due timers, held
/// late messages or snapshots.
pub const DRAIN_CAP: usize = 64;

/// Converts elapsed wall time into this node's local-clock reading.
#[derive(Debug, Clone, Copy)]
pub struct LocalClock {
    rate: f64,
    start: Instant,
}

impl LocalClock {
    /// Creates a clock with the given hidden rate.
    pub fn new(rate: f64, start: Instant) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        LocalClock { rate, start }
    }

    /// The local reading at wall instant `at` (zero before the clock's
    /// start) — the view of one wall reading the node loop hands its
    /// process.
    pub fn at(&self, at: Instant) -> LocalInstant {
        let wall = at.saturating_duration_since(self.start).as_nanos();
        // Through `u64` below 2⁶⁴ ns: the same `f64` without the slow
        // `u128` conversion.
        let wall = u64::try_from(wall).map_or(wall as f64, |ns| ns as f64);
        LocalInstant::from_nanos((wall * self.rate) as u64)
    }

    /// The wall duration spanned by a local duration.
    pub fn wall(&self, local: esync_core::time::LocalDuration) -> Duration {
        Duration::from_nanos((local.as_nanos() as f64 / self.rate).ceil() as u64)
    }
}

/// One wall reading of the node loop and what the node derives from it:
/// every event of a wake-up is handled at the same one.
#[derive(Debug, Clone, Copy)]
struct Reading {
    /// The wall instant.
    now: Instant,
    /// The node's local-clock reading at `now`.
    local: LocalInstant,
    /// Wall time since cluster start at `now`.
    elapsed: Duration,
}

/// Everything the actions of a handled event reach: the node's links,
/// timers, held late messages, clock, commit stream and observer.
pub(crate) struct NodeCtx<M> {
    pid: ProcessId,
    transport: Transport<M>,
    /// Armed deadlines indexed by [`TimerId::get`] (protocols use small
    /// constant ids) — the simulator's per-process timer-slot shape.
    timers: Vec<Option<Instant>>,
    /// Received [`Wire::Late`] messages not yet due, keyed by `(due,
    /// arrival number)`: handled in that order once `due` has passed.
    late: BTreeMap<(Instant, u64), (ProcessId, M)>,
    /// Late messages received so far (the next arrival number).
    arrivals: u64,
    clock: LocalClock,
    commits: Arc<Queue<Commit>>,
    /// The wake-up's commits, sent at its flush after the peer messages.
    decided: Vec<Commit>,
    /// Whether the node's first decide has been seen.
    reported: bool,
    /// The node's trace ring, snapshot series and watchdogs, stamped in
    /// monotonic wall nanoseconds since cluster start — the cross-node
    /// comparable axis (local clocks drift; elapsed wall time does not).
    obs: Observer,
}

impl<M: Clone> NodeCtx<M> {
    pub(crate) fn new(
        pid: ProcessId,
        transport: Transport<M>,
        clock: LocalClock,
        commits: Arc<Queue<Commit>>,
        obs: Observer,
    ) -> Self {
        NodeCtx {
            pid,
            transport,
            timers: Vec::new(),
            late: BTreeMap::new(),
            arrivals: 0,
            clock,
            commits,
            decided: Vec::new(),
            reported: false,
            obs,
        }
    }

    /// The readings derived from wall instant `now`.
    fn read(&self, now: Instant) -> Reading {
        Reading {
            now,
            local: self.clock.at(now),
            elapsed: now.saturating_duration_since(self.clock.start),
        }
    }

    fn timer_slot(&mut self, id: TimerId) -> &mut Option<Instant> {
        let idx = id.get() as usize;
        if idx >= self.timers.len() {
            self.timers.resize(idx + 1, None);
        }
        &mut self.timers[idx]
    }

    /// The earliest armed timer deadline, snapshot boundary or held
    /// message's due instant, if any.
    fn next_deadline(&self) -> Option<Instant> {
        let snapshot = self.obs.next_snapshot_ns();
        let snapshot = snapshot.map(|ns| self.clock.start + Duration::from_nanos(ns));
        let late = self.late.keys().next().map(|&(due, _)| due);
        let timers = self.timers.iter().flatten().copied();
        timers.chain(snapshot).chain(late).min()
    }

    /// Holds a late message until its due instant.
    fn hold(&mut self, late: Late<M>) {
        self.arrivals += 1;
        self.late
            .insert((late.due, self.arrivals), (late.from, late.msg));
    }

    /// Takes the earliest held message if it is due at `now`.
    fn take_due(&mut self, now: Instant) -> Option<(ProcessId, M)> {
        let first = self.late.first_entry()?;
        (first.key().0 <= now).then(|| first.remove())
    }

    /// Runs one event's handler at reading `at`, then every message
    /// the node sent itself meanwhile, in send order, each as an event of
    /// its own. Returns `false`, having run nothing, as soon as `kill` is
    /// raised: it is checked before every event.
    fn event<P: Process<Msg = M>>(
        &mut self,
        proc: &mut P,
        out: &mut Outbox<M>,
        at: Reading,
        kill: &AtomicBool,
        handler: impl FnOnce(&mut P, &mut Outbox<M>),
    ) -> bool {
        if kill.load(Ordering::Relaxed) {
            return false;
        }
        self.handle(out, at, |out| handler(proc, out));
        while let Some(msg) = self.transport.take_local() {
            if kill.load(Ordering::Relaxed) {
                return false;
            }
            let me = self.pid;
            self.handle(out, at, |out| proc.on_message(me, &msg, out));
        }
        true
    }

    /// Sends what the wake-up buffered: one append per peer, then its
    /// commits in one more.
    fn flush(&mut self) {
        self.transport.flush();
        if !self.decided.is_empty() {
            self.commits.extend(self.decided.drain(..));
        }
    }

    /// Runs one handler for an event read at `at` and carries out the
    /// actions it emits.
    fn handle(&mut self, out: &mut Outbox<M>, at: Reading, handler: impl FnOnce(&mut Outbox<M>)) {
        out.reset(at.local);
        handler(out);
        self.apply(out, at);
    }

    /// Carries out the actions of an event handled at reading `at`.
    ///
    /// # Panics
    ///
    /// On [`Action::WabBroadcast`]: the runtime provides no external
    /// oracle.
    fn apply(&mut self, out: &mut Outbox<M>, at: Reading) {
        let (pid, now, elapsed) = (self.pid, at.now, at.elapsed);
        self.obs.drain_trace(out, pid, elapsed.as_nanos() as u64);
        for action in out.drain_iter() {
            match action {
                Action::Send { to, msg } => self.transport.send(now, to, msg),
                Action::Broadcast { msg } => self.transport.broadcast(now, msg),
                Action::SetTimer { id, after } => {
                    let due = now + self.clock.wall(after);
                    *self.timer_slot(id) = Some(due);
                }
                Action::CancelTimer { id } => *self.timer_slot(id) = None,
                Action::Decide { value, shard } => {
                    // Every decide is a commit (per-command, multi-instance)…
                    self.decided.push(Commit {
                        pid,
                        shard,
                        value,
                        elapsed,
                    });
                    // …but only the first is the node's single-shot
                    // decision, whose deadline the live bound check judges
                    // at the commit itself.
                    if !self.reported {
                        self.reported = true;
                        self.obs.on_first_decision(elapsed.as_nanos() as u64);
                    }
                }
                Action::WabBroadcast { .. } => {
                    panic!(
                        "{pid}: protocol requested an external weak-ordering \
                         oracle; the threaded runtime provides none (use the \
                         modified B-Consensus or run under esync-sim)"
                    );
                }
            }
        }
    }
}

/// Runs one process until a [`Wire::Stop`] arrives, `kill_flag` is
/// raised or `inbox` is closed, then closes `inbox`.
///
/// Each wake-up runs as the [module docs](crate::node) describe.
///
/// A [`Wire::Late`] message is held and handled, like a timer, at the
/// first wake-up at or after its due instant; held messages go in `(due,
/// arrival)` order.
///
/// After every wake-up the node publishes its [`Process::is_leader`]
/// belief into `leader_flag` (cleared on exit), so the cluster can answer
/// leader-observability queries without touching protocol state across
/// threads. On exit it returns its final [`NodeStats`] (router epoch,
/// per-shard load counters over `shards` shards, and whatever its
/// observer collected) as the thread's result.
///
/// On [`Wire::Stop`] the node flushes what the wake-up produced so far,
/// then exits. `kill_flag` is checked before every event, so a raised
/// flag stops the node as soon as the current handler returns instead of
/// after the inbox backlog drains — [`crate::cluster::Cluster::kill`]'s
/// prompt path. A killed node drops what the wake-up had not flushed, as
/// a crash loses unsent output. On the way out the node closes its inbox,
/// so what is queued there and what peers send later is dropped.
///
/// # Panics
///
/// Panics if the protocol requests a weak-ordering-oracle broadcast
/// ([`Action::WabBroadcast`]): the runtime provides no external oracle.
/// Use the *modified* B-Consensus (in-process oracle) instead.
pub(crate) fn run_node<Proc>(
    mut ctx: NodeCtx<Proc::Msg>,
    mut proc: Proc,
    inbox: Arc<Queue<Wire<Proc::Msg>>>,
    leader_flag: Arc<AtomicBool>,
    kill_flag: Arc<AtomicBool>,
    shards: usize,
) -> NodeStats
where
    Proc: Process,
    Proc::Msg: Clone,
{
    // One outbox for the node's whole life, reset (not reallocated) per
    // event: `reset` keeps the tracing/metering enablement and the
    // metric registry — counters accumulate across events and are
    // *sampled* by snapshots, never drained.
    let mut out = Outbox::default();
    ctx.obs.arm(&mut out);
    let kill = &*kill_flag;
    // The inbox items taken and not yet handled; swapped with the inbox
    // queue's buffer, so both keep their capacity.
    let mut items = VecDeque::with_capacity(DRAIN_CAP);

    'run: {
        let at = ctx.read(Instant::now());
        if !ctx.event(&mut proc, &mut out, at, kill, |p, out| p.on_start(out)) {
            break 'run;
        }
        ctx.flush();
        leader_flag.store(proc.is_leader(), Ordering::Relaxed);
        loop {
            // With nothing taken left, wait for a message, the next timer
            // deadline, the next snapshot boundary, or the next held
            // message's due instant — whichever comes first. A timeout's
            // wake-up fires due timers, takes due snapshots and handles
            // due held messages.
            if items.is_empty() {
                let got = inbox.take_until(&mut items, ctx.next_deadline());
                if got == Err(RecvTimeoutError::Disconnected) {
                    break;
                }
            }
            let at = ctx.read(Instant::now());
            let now = at.now;
            // Publish every snapshot boundary at or before `now`; the
            // per-shard routed loads are gathered only when one is due.
            let end_ns = at.elapsed.as_nanos() as u64 + 1;
            let loads = || {
                let load = |s| proc.shard_load(ShardId::new(s)).submitted;
                (0..shards as u32).map(load).collect()
            };
            ctx.obs.sample_before(&mut out, end_ns, loads);
            // Fire all due timers, handle up to `DRAIN_CAP` inbox items
            // (holding late ones), then the held messages now due.
            for idx in 0..ctx.timers.len() {
                if ctx.timers[idx].is_some_and(|due| due <= now) {
                    ctx.timers[idx] = None;
                    let id = TimerId::new(idx as u32);
                    if !ctx.event(&mut proc, &mut out, at, kill, |p, out| p.on_timer(id, out)) {
                        break 'run;
                    }
                }
            }
            for _ in 0..DRAIN_CAP {
                let Some(item) = items.pop_front() else {
                    break;
                };
                if kill.load(Ordering::Relaxed) {
                    break 'run;
                }
                let live = match item {
                    Wire::Stop => {
                        ctx.flush();
                        break 'run;
                    }
                    Wire::Msg { from, msg } => {
                        ctx.event(&mut proc, &mut out, at, kill, |p, out| {
                            p.on_message(from, &msg, out)
                        })
                    }
                    Wire::Late(late) => {
                        ctx.hold(*late);
                        true
                    }
                    Wire::Submit { value } => ctx.event(&mut proc, &mut out, at, kill, |p, out| {
                        p.on_client(value, out)
                    }),
                };
                if !live {
                    break 'run;
                }
            }
            while let Some((from, msg)) = ctx.take_due(now) {
                if !ctx.event(&mut proc, &mut out, at, kill, |p, out| {
                    p.on_message(from, &msg, out)
                }) {
                    break 'run;
                }
            }
            ctx.flush();
            leader_flag.store(proc.is_leader(), Ordering::Relaxed);
        }
    }
    // Dead nodes lead nothing: clear the published belief on the way out
    // so `leader_hint` never points at a stopped thread.
    leader_flag.store(false, Ordering::Relaxed);
    inbox.close();
    let exit_ns = ctx.read(Instant::now()).elapsed.as_nanos() as u64;
    ctx.obs.sample_exit(&mut out, exit_ns);
    let trace_dropped = ctx.obs.trace_dropped();
    let (trace, health) = ctx.obs.take();
    let health = health.unwrap_or_default();
    NodeStats {
        pid: ctx.pid,
        router_epoch: proc.router_epoch(),
        shard_loads: (0..shards as u32)
            .map(|s| proc.shard_load(ShardId::new(s)))
            .collect(),
        trace,
        trace_dropped,
        snapshots: health.snapshots,
        firings: health.firings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use esync_core::config::TimingConfig;
    use esync_core::outbox::Protocol;
    use esync_core::time::LocalDuration;
    use esync_core::types::Value;

    #[test]
    fn local_clock_scales_elapsed_time() {
        let start = Instant::now();
        let c = LocalClock::new(2.0, start);
        let wall = c.wall(esync_core::time::LocalDuration::from_millis(10));
        assert_eq!(wall, Duration::from_millis(5), "fast clock: shorter wall");
    }

    #[test]
    fn local_clock_at_scales_the_given_instant() {
        let start = Instant::now();
        let c = LocalClock::new(2.0, start);
        let ten_ms = LocalInstant::from_nanos(10_000_000);
        assert_eq!(c.at(start + Duration::from_millis(5)), ten_ms);
        assert_eq!(c.at(start), LocalInstant::ZERO);
    }

    #[test]
    fn local_clock_at_matches_the_u128_formula() {
        let start = Instant::now();
        let old = |c: &LocalClock, at: Instant| {
            let wall = at.saturating_duration_since(c.start);
            LocalInstant::from_nanos((wall.as_nanos() as f64 * c.rate) as u64)
        };
        for rate in [0.999, 1.0, 1.001, 2.5] {
            let c = LocalClock::new(rate, start);
            let mut ns = 1u64;
            // 1 ns up to well past 2⁶⁴ ns (≈ 585 years).
            for step in 0..80u32 {
                for wall in [
                    Duration::from_nanos(ns),
                    Duration::from_nanos(ns) * 3 + Duration::from_nanos(u64::from(step)),
                ] {
                    let at = start + wall;
                    assert_eq!(c.at(at), old(&c, at), "rate {rate}, {wall:?}");
                }
                ns = ns.saturating_mul(2);
            }
            let huge = start + Duration::from_secs(1 << 40);
            assert_eq!(c.at(huge), old(&c, huge), "rate {rate}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = LocalClock::new(0.0, Instant::now());
    }

    /// Arms sparse timer ids 0 and 9 at boot, re-arms 0 with a longer
    /// delay and cancels 9; every firing commits its timer id.
    struct TimerProbe;

    struct TimerProbeProc(ProcessId);

    const EARLY_MS: u64 = 20;
    const LATE_MS: u64 = 80;

    impl Process for TimerProbeProc {
        type Msg = ();
        fn id(&self) -> ProcessId {
            self.0
        }
        fn on_start(&mut self, out: &mut Outbox<()>) {
            out.set_timer(TimerId::new(0), LocalDuration::from_millis(EARLY_MS));
            out.set_timer(TimerId::new(9), LocalDuration::from_millis(EARLY_MS));
            out.set_timer(TimerId::new(0), LocalDuration::from_millis(LATE_MS));
            out.cancel_timer(TimerId::new(9));
        }
        fn on_message(&mut self, _: ProcessId, _: &(), _: &mut Outbox<()>) {}
        fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<()>) {
            out.decide(Value::new(timer.get().into()));
        }
        fn on_restart(&mut self, _: &mut Outbox<()>) {}
        fn decision(&self) -> Option<Value> {
            None
        }
    }

    impl Protocol for TimerProbe {
        type Msg = ();
        type Process = TimerProbeProc;
        fn name(&self) -> &'static str {
            "timer-probe"
        }
        fn spawn(&self, id: ProcessId, _: &TimingConfig, _: Value) -> TimerProbeProc {
            TimerProbeProc(id)
        }
    }

    /// Node 0 of `n`, run directly by [`run_node`] and stable from
    /// `start + stable_after`. The test holds every inbox (node 0's is
    /// `inboxes[0]`, the peers' the rest), the commit feed and the kill
    /// flag.
    struct Harness {
        start: Instant,
        inboxes: Vec<Arc<Queue<Wire<u64>>>>,
        commits: Arc<Queue<Commit>>,
        kill: Arc<AtomicBool>,
        node: std::thread::JoinHandle<NodeStats>,
    }

    impl Harness {
        /// Queues `queued` in node 0's inbox, then starts the node.
        fn spawn<P>(proc: P, n: usize, stable_after: Duration, queued: Vec<Wire<u64>>) -> Self
        where
            P: Process<Msg = u64> + Send + 'static,
        {
            use rand::SeedableRng;
            let start = Instant::now();
            let inboxes: Vec<_> = (0..n).map(|_| Arc::new(Queue::default())).collect();
            let commits = Arc::new(Queue::default());
            let rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
            let stable_at = start + stable_after;
            let me = ProcessId::new(0);
            let transport =
                Transport::new(me, inboxes.clone(), stable_at, 0.0, Duration::ZERO, rng);
            let clock = LocalClock::new(1.0, start);
            let feed = Arc::clone(&commits);
            let ctx = NodeCtx::new(me, transport, clock, feed, Observer::default());
            inboxes[0].extend(queued);
            let inbox = Arc::clone(&inboxes[0]);
            let leader = Arc::new(AtomicBool::new(false));
            let kill = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&kill);
            let node = std::thread::spawn(move || run_node(ctx, proc, inbox, leader, flag, 1));
            Harness {
                start,
                inboxes,
                commits,
                kill,
                node,
            }
        }

        /// The next `k` commits, each within five seconds.
        fn commits(&self, k: usize) -> Vec<Commit> {
            let next = || self.commits.recv_timeout(Duration::from_secs(5)).unwrap();
            (0..k).map(|_| next()).collect()
        }

        /// Stops the node the prompt way and joins it.
        fn kill(self) {
            self.kill.store(true, Ordering::Relaxed);
            self.inboxes[0].push(Wire::Stop);
            self.node.join().unwrap();
        }
    }

    /// A message from peer 1 to node 0.
    fn from_peer(msg: u64) -> Wire<u64> {
        let from = ProcessId::new(1);
        Wire::Msg { from, msg }
    }

    /// Commits every message it receives (the message is the value).
    struct EchoProc;

    impl Process for EchoProc {
        type Msg = u64;
        fn id(&self) -> ProcessId {
            ProcessId::new(0)
        }
        fn on_start(&mut self, _: &mut Outbox<u64>) {}
        fn on_message(&mut self, _: ProcessId, msg: &u64, out: &mut Outbox<u64>) {
            out.decide(Value::new(*msg));
        }
        fn on_timer(&mut self, _: TimerId, _: &mut Outbox<u64>) {}
        fn on_restart(&mut self, _: &mut Outbox<u64>) {}
        fn decision(&self) -> Option<Value> {
            None
        }
    }

    #[test]
    fn late_messages_are_handled_once_due_in_due_then_arrival_order() {
        // Message i is due `due_ms[i]` after start; 3 is due after
        // stability (40 ms), and 0 and 2 share a due instant.
        let stable_after = Duration::from_millis(40);
        let due_ms = [30, 10, 30, 70];
        let start = Instant::now();
        let from = ProcessId::new(0);
        let queued = (0..due_ms.len()).map(|msg| {
            let due = start + Duration::from_millis(due_ms[msg]);
            let msg = msg as u64;
            Wire::Late(Box::new(Late { due, from, msg }))
        });
        let h = Harness::spawn(EchoProc, 1, stable_after, queued.collect());
        let handled = h.commits(due_ms.len());
        let clock_start = h.start;
        h.kill();
        let order: Vec<u64> = handled.iter().map(|c| c.value.get()).collect();
        assert_eq!(order, [1, 0, 2, 3], "(due, arrival) order: {handled:?}");
        for c in &handled {
            let due = Duration::from_millis(due_ms[c.value.get() as usize]);
            assert!(
                clock_start + c.elapsed >= start + due,
                "handled before due: {c:?}"
            );
        }
        assert!(handled[3].elapsed > stable_after);
    }

    /// Commits every message it receives and sends it back to its sender.
    struct ReplyProc;

    impl Process for ReplyProc {
        type Msg = u64;
        fn id(&self) -> ProcessId {
            ProcessId::new(0)
        }
        fn on_start(&mut self, _: &mut Outbox<u64>) {}
        fn on_message(&mut self, from: ProcessId, msg: &u64, out: &mut Outbox<u64>) {
            out.decide(Value::new(*msg));
            out.send(from, *msg);
        }
        fn on_timer(&mut self, _: TimerId, _: &mut Outbox<u64>) {}
        fn on_restart(&mut self, _: &mut Outbox<u64>) {}
        fn decision(&self) -> Option<Value> {
            None
        }
    }

    #[test]
    fn a_backlog_is_handled_in_order_and_answered_in_order_per_wake_up() {
        let n_msgs = 3 * DRAIN_CAP as u64 + 8;
        let mut queued: Vec<_> = (0..n_msgs).map(from_peer).collect();
        queued.push(Wire::Stop);
        let h = Harness::spawn(ReplyProc, 2, Duration::ZERO, queued);
        let commits = h.commits(n_msgs as usize);
        h.node.join().unwrap();
        let handled: Vec<u64> = commits.iter().map(|c| c.value.get()).collect();
        assert_eq!(handled, (0..n_msgs).collect::<Vec<_>>(), "send order");
        // The stopping wake-up flushed its replies too.
        let mut items = VecDeque::new();
        let _ = h.inboxes[1].take_until(&mut items, Some(Instant::now()));
        let reply = |item| match item {
            Wire::Msg { msg, .. } => msg,
            other => panic!("unexpected: {other:?}"),
        };
        let replies: Vec<u64> = items.into_iter().map(reply).collect();
        assert_eq!(replies, handled, "replies in order");
        // A wake-up's commits share its one reading: 64 + 64 + 64 + (8
        // and the stop) items, one wake-up each.
        let wake_ups = commits.chunk_by(|a, b| a.elapsed == b.elapsed);
        let per_wake_up: Vec<usize> = wake_ups.map(<[_]>::len).collect();
        assert_eq!(per_wake_up, [64, 64, 64, 8], "{commits:?}");
    }

    /// Decides 0 and broadcasts 7 at start; commits every message it
    /// receives.
    struct BroadcastProc;

    impl Process for BroadcastProc {
        type Msg = u64;
        fn id(&self) -> ProcessId {
            ProcessId::new(0)
        }
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            out.decide(Value::new(0));
            out.broadcast(7);
        }
        fn on_message(&mut self, from: ProcessId, msg: &u64, out: &mut Outbox<u64>) {
            assert_eq!(from, ProcessId::new(0));
            out.decide(Value::new(*msg));
        }
        fn on_timer(&mut self, _: TimerId, _: &mut Outbox<u64>) {}
        fn on_restart(&mut self, _: &mut Outbox<u64>) {}
        fn decision(&self) -> Option<Value> {
            None
        }
    }

    #[test]
    fn a_broadcast_reaches_its_sender_in_the_same_wake_up() {
        let h = Harness::spawn(BroadcastProc, 3, Duration::ZERO, Vec::new());
        let handled = h.commits(2);
        let values: Vec<u64> = handled.iter().map(|c| c.value.get()).collect();
        assert_eq!(values, [0, 7]);
        // One wall reading per wake-up: a copy sent through the inbox
        // would be handled at a later one.
        assert_eq!(handled[0].elapsed, handled[1].elapsed, "{handled:?}");
        for peer in &h.inboxes[1..] {
            let got = peer.recv_timeout(Duration::from_secs(5));
            assert!(matches!(got, Ok(Wire::Msg { msg: 7, .. })), "{got:?}");
        }
        h.kill();
    }

    /// Arms timer 0 at start and commits its firing; sleeps `SLOW` in
    /// every message handler.
    struct SlowProc;

    const TIMER_MS: u64 = 20;
    const SLOW: Duration = Duration::from_micros(500);

    impl Process for SlowProc {
        type Msg = u64;
        fn id(&self) -> ProcessId {
            ProcessId::new(0)
        }
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            out.set_timer(TimerId::new(0), LocalDuration::from_millis(TIMER_MS));
        }
        fn on_message(&mut self, _: ProcessId, _: &u64, _: &mut Outbox<u64>) {
            std::thread::sleep(SLOW);
        }
        fn on_timer(&mut self, _: TimerId, out: &mut Outbox<u64>) {
            out.decide(Value::new(u64::MAX));
        }
        fn on_restart(&mut self, _: &mut Outbox<u64>) {}
        fn decision(&self) -> Option<Value> {
            None
        }
    }

    #[test]
    fn a_busy_inbox_does_not_starve_a_timer() {
        // Two seconds of handler sleep queued ahead of a 20 ms timer: it
        // must fire after at most a few wake-ups of `DRAIN_CAP` messages.
        let backlog = 2 * 1_000_000 / SLOW.as_micros() as u64;
        let queued = (0..backlog).map(from_peer).collect();
        let h = Harness::spawn(SlowProc, 2, Duration::ZERO, queued);
        let fired = h.commits(1)[0];
        assert_eq!(fired.value, Value::new(u64::MAX));
        assert!(
            fired.elapsed >= Duration::from_millis(TIMER_MS),
            "{fired:?}"
        );
        assert!(
            fired.elapsed < Duration::from_millis(TIMER_MS + 300),
            "{fired:?}"
        );
        assert!(
            h.start.elapsed() < Duration::from_secs(1),
            "backlog drained first"
        );
        h.kill();
    }

    #[test]
    fn rearming_a_timer_replaces_it_and_cancelling_disarms_it() {
        let cluster = Cluster::spawn(ClusterConfig::new(1), TimerProbe).unwrap();
        // Every firing, until the stream has been quiet for well past the
        // later deadline.
        let mut fired = Vec::new();
        while let Ok(c) = cluster.commits().recv_timeout(Duration::from_millis(300)) {
            fired.push((c.value, c.elapsed));
        }
        cluster.shutdown();
        assert_eq!(fired.len(), 1, "timer 0 fires once, 9 never: {fired:?}");
        let (value, elapsed) = fired[0];
        assert_eq!(value, Value::new(0), "{fired:?}");
        // The later deadline in wall time, at a clock rate ≤ 1 + ρ
        // (ρ = 10⁻³), is past 79 ms; the earlier one is at ≈ 20 ms.
        assert!(elapsed >= Duration::from_millis(LATE_MS - 1), "{fired:?}");
    }
}
