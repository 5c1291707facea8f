//! One OS thread per process: inbox, wall-clock timers, drifting local
//! clock, and the late messages it holds until they are due.
//!
//! The loop reads the wall clock once per wake-up. The local reading, the
//! trace stamp, commit times, timer deadlines, the due test of held
//! messages and the unstable-window test of every event handled in that
//! wake-up are all derived from that one [`Instant`]. The one extra
//! reading is taken before a sleep: when a timer, snapshot or held
//! message is pending and the inbox is empty, the wait until that
//! deadline is measured from it. A queued message is taken without it.

use crate::cluster::{Commit, NodeStats};
use crate::transport::{recv_until, Late, Transport, Wire};
use esync_core::outbox::{Action, Outbox, Process};
use esync_core::time::LocalInstant;
use esync_core::types::{ProcessId, ShardId, TimerId};
use esync_metrics::Observer;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

    /// The local reading now.
    pub fn now(&self) -> LocalInstant {
        self.at(Instant::now())
    }

    /// The local reading at wall instant `at` (zero before the clock's
    /// start) — the view of one wall reading the node loop hands its
    /// process.
    pub fn at(&self, at: Instant) -> LocalInstant {
        let wall = at.saturating_duration_since(self.start);
        LocalInstant::from_nanos((wall.as_nanos() as f64 * self.rate) as u64)
    }

    /// The wall duration spanned by a local duration.
    pub fn wall(&self, local: esync_core::time::LocalDuration) -> Duration {
        Duration::from_nanos((local.as_nanos() as f64 / self.rate).ceil() as u64)
    }
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
    commits: Sender<Commit>,
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
        commits: Sender<Commit>,
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
            reported: false,
            obs,
        }
    }

    /// Wall time since cluster start at `now`.
    fn elapsed(&self, now: Instant) -> Duration {
        now.saturating_duration_since(self.clock.start)
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

    /// Runs one handler for an event read at wall instant `now` and
    /// carries out the actions it emits.
    fn handle(&mut self, out: &mut Outbox<M>, now: Instant, handler: impl FnOnce(&mut Outbox<M>)) {
        out.reset(self.clock.at(now));
        handler(out);
        self.apply(out, now);
    }

    /// Carries out the actions of an event handled at wall instant `now`.
    ///
    /// # Panics
    ///
    /// On [`Action::WabBroadcast`]: the runtime provides no external
    /// oracle.
    fn apply(&mut self, out: &mut Outbox<M>, now: Instant) {
        let pid = self.pid;
        let elapsed = self.elapsed(now);
        self.obs.drain_trace(out, pid, elapsed.as_nanos() as u64);
        for action in out.drain_iter() {
            match action {
                Action::Send { to, msg } => self.transport.send(now, pid, to, msg),
                Action::Broadcast { msg } => self.transport.broadcast(now, pid, msg),
                Action::SetTimer { id, after } => {
                    let at = now + self.clock.wall(after);
                    *self.timer_slot(id) = Some(at);
                }
                Action::CancelTimer { id } => *self.timer_slot(id) = None,
                Action::Decide { value, shard } => {
                    // Every decide is a commit (per-command, multi-instance)…
                    let _ = self.commits.send(Commit {
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

/// Runs one process until a [`Wire::Stop`] arrives or `kill_flag` is
/// raised.
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
/// `kill_flag` is checked before every event, so a raised flag stops the
/// node as soon as the current handler returns instead of after the
/// inbox backlog drains — [`crate::cluster::Cluster::kill`]'s prompt
/// path.
///
/// # Panics
///
/// Panics if the protocol requests a weak-ordering-oracle broadcast
/// ([`Action::WabBroadcast`]): the runtime provides no external oracle.
/// Use the *modified* B-Consensus (in-process oracle) instead.
pub(crate) fn run_node<Proc>(
    mut ctx: NodeCtx<Proc::Msg>,
    mut proc: Proc,
    inbox: Receiver<Wire<Proc::Msg>>,
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

    ctx.handle(&mut out, Instant::now(), |out| proc.on_start(out));
    leader_flag.store(proc.is_leader(), Ordering::Relaxed);

    'run: loop {
        // Wait for a message, the next timer deadline, the next snapshot
        // boundary, or the next held message's due instant — whichever
        // comes first.
        let wire = match ctx.next_deadline() {
            None => match inbox.recv() {
                Ok(w) => Some(w),
                Err(_) => break,
            },
            Some(at) => match recv_until(&inbox, at) {
                Ok(w) => Some(w),
                // The wake-up fires due timers, takes due snapshots and
                // handles due held messages.
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => break,
            },
        };
        let now = Instant::now();
        // Publish every snapshot boundary at or before `now`; the
        // per-shard routed loads are gathered only when one is due.
        let end_ns = ctx.elapsed(now).as_nanos() as u64 + 1;
        let loads = || {
            let load = |s| proc.shard_load(ShardId::new(s)).submitted;
            (0..shards as u32).map(load).collect()
        };
        ctx.obs.sample_before(&mut out, end_ns, loads);
        // Fire all due timers, handle the message (holding a late one),
        // then the held messages now due.
        for idx in 0..ctx.timers.len() {
            if ctx.timers[idx].is_some_and(|at| at <= now) {
                if kill_flag.load(Ordering::Relaxed) {
                    break 'run;
                }
                ctx.timers[idx] = None;
                let id = TimerId::new(idx as u32);
                ctx.handle(&mut out, now, |out| proc.on_timer(id, out));
            }
        }
        if kill_flag.load(Ordering::Relaxed) {
            break;
        }
        match wire {
            None => {}
            Some(Wire::Stop) => break,
            Some(Wire::Msg { from, msg }) => {
                ctx.handle(&mut out, now, |out| proc.on_message(from, &msg, out));
            }
            Some(Wire::Late(late)) => ctx.hold(*late),
            Some(Wire::Submit { value }) => {
                ctx.handle(&mut out, now, |out| proc.on_client(value, out));
            }
        }
        while let Some((from, msg)) = ctx.take_due(now) {
            if kill_flag.load(Ordering::Relaxed) {
                break 'run;
            }
            ctx.handle(&mut out, now, |out| proc.on_message(from, &msg, out));
        }
        leader_flag.store(proc.is_leader(), Ordering::Relaxed);
    }
    // Dead nodes lead nothing: clear the published belief on the way out
    // so `leader_hint` never points at a stopped thread.
    leader_flag.store(false, Ordering::Relaxed);
    let exit_ns = ctx.elapsed(Instant::now()).as_nanos() as u64;
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
    fn local_clock_now_is_monotone() {
        let c = LocalClock::new(1.0, Instant::now());
        let a = c.now();
        std::thread::sleep(Duration::from_millis(2));
        let b = c.now();
        assert!(b > a);
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
        use crate::transport::{make_inboxes, Late};
        use rand::SeedableRng;
        use std::sync::mpsc::channel;
        let start = Instant::now();
        let stable_at = start + Duration::from_millis(40);
        let (senders, mut receivers) = make_inboxes(1);
        let (commit_tx, commits) = channel();
        let rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let transport = Transport::new(senders.clone(), stable_at, 0.0, Duration::ZERO, rng);
        let clock = LocalClock::new(1.0, start);
        let ctx = NodeCtx::new(
            ProcessId::new(0),
            transport,
            clock,
            commit_tx,
            Observer::default(),
        );
        let inbox = receivers.remove(0);
        let flag = || Arc::new(AtomicBool::new(false));
        let (leader, kill) = (flag(), flag());
        let node = std::thread::spawn(move || run_node(ctx, EchoProc, inbox, leader, kill, 1));
        // Message i is due `due_ms[i]` after start; 3 is due after
        // `stable_at`, and 0 and 2 share a due instant.
        let due_ms = [30, 10, 30, 70];
        let from = ProcessId::new(0);
        for (msg, ms) in due_ms.into_iter().enumerate() {
            let due = start + Duration::from_millis(ms);
            let late = Late {
                due,
                from,
                msg: msg as u64,
            };
            senders[0].send(Wire::Late(Box::new(late))).unwrap();
        }
        let handled: Vec<_> = (0..due_ms.len())
            .map(|_| commits.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        senders[0].send(Wire::Stop).unwrap();
        node.join().unwrap();
        let order: Vec<u64> = handled.iter().map(|c| c.value.get()).collect();
        assert_eq!(order, [1, 0, 2, 3], "(due, arrival) order: {handled:?}");
        for c in &handled {
            let due = Duration::from_millis(due_ms[c.value.get() as usize]);
            assert!(c.elapsed >= due, "handled before due: {c:?}");
        }
        assert!(start + handled[3].elapsed > stable_at);
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
