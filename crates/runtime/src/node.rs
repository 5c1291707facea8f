//! One OS thread per process: inbox, wall-clock timers, drifting local
//! clock.
//!
//! The loop reads the wall clock once per wake-up. The local reading, the
//! trace stamp, commit and decision times, timer deadlines and the
//! unstable-window test of every event handled in that wake-up are all
//! derived from that one [`Instant`].

use crate::cluster::{Commit, Decision, NodeStats};
use crate::transport::{Transport, Wire};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use esync_core::metrics::Metric;
use esync_core::outbox::{Action, Outbox, Process};
use esync_core::time::LocalInstant;
use esync_core::types::{ProcessId, TimerId};
use esync_metrics::{MetricsSnapshot, WatchdogConfig, WatchdogFiring, Watchdogs};
use esync_trace::{TraceBuffer, TraceRecord};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Per-node metering parameters, handed to [`run_node`] when
/// [`crate::cluster::ClusterConfig::metrics`] is enabled.
#[derive(Debug, Clone)]
pub struct NodeMetricsCfg {
    /// Wall-clock snapshot cadence.
    pub interval: Duration,
    /// Watchdog tunables (bound spec, imbalance trip point).
    pub watchdogs: WatchdogConfig,
}

/// A metered node's snapshot/watchdog state: the cadence clock, the
/// online evaluator, and the accumulated series shipped in
/// [`NodeStats`] on exit.
struct NodeMetrics {
    interval: Duration,
    /// Next snapshot boundary, as wall time since cluster start.
    next_at: Duration,
    node: u32,
    watchdogs: Watchdogs,
    snapshots: Vec<MetricsSnapshot>,
    firings: Vec<WatchdogFiring>,
}

impl NodeMetrics {
    fn new(cfg: NodeMetricsCfg, pid: ProcessId) -> Self {
        assert!(cfg.interval > Duration::ZERO, "interval must be positive");
        NodeMetrics {
            interval: cfg.interval,
            next_at: cfg.interval,
            node: pid.as_u32(),
            watchdogs: Watchdogs::new(cfg.watchdogs),
            snapshots: Vec::new(),
            firings: Vec::new(),
        }
    }

    /// Takes every snapshot whose boundary has passed, stamping each at
    /// its exact boundary instant (matching the simulator's
    /// exact-boundary stamps, so cadence math — not scheduling jitter —
    /// defines the series). `loads` carries the node's per-shard routed
    /// load for the imbalance watch when the protocol shards.
    fn flush_due<M>(&mut self, out: &mut Outbox<M>, elapsed: Duration, dropped: u64, loads: &[u64]) {
        while self.next_at <= elapsed {
            out.metrics_mut().set(Metric::TraceDropped, dropped);
            let snap = MetricsSnapshot {
                at_ns: self.next_at.as_nanos() as u64,
                node: Some(self.node),
                counters: *out.metrics().counters(),
            };
            let imbalance = esync_metrics::imbalance_x1000(loads);
            self.watchdogs.on_snapshot(&snap, imbalance, &mut self.firings);
            self.snapshots.push(snap);
            self.next_at += self.interval;
        }
    }

    /// One final snapshot at node exit, stamped at the actual exit
    /// instant, so even sub-interval runs ship the node's totals.
    fn finish<M>(&mut self, out: &mut Outbox<M>, elapsed: Duration, dropped: u64) {
        out.metrics_mut().set(Metric::TraceDropped, dropped);
        let snap = MetricsSnapshot {
            at_ns: elapsed.as_nanos() as u64,
            node: Some(self.node),
            counters: *out.metrics().counters(),
        };
        self.snapshots.push(snap);
    }
}

/// Everything the actions of a handled event reach: the node's links,
/// timers, clock, output streams and observability state.
struct NodeCtx<M> {
    pid: ProcessId,
    transport: Transport<M>,
    /// Armed deadlines indexed by [`TimerId::get`] (protocols use small
    /// constant ids) — the simulator's per-process timer-slot shape.
    timers: Vec<Option<Instant>>,
    clock: LocalClock,
    decisions: Sender<Decision>,
    commits: Sender<Commit>,
    /// Whether the node's single-shot decision has been reported.
    reported: bool,
    tracer: Option<TraceBuffer>,
    met: Option<NodeMetrics>,
}

impl<M: Clone> NodeCtx<M> {
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

    /// The earliest armed timer deadline or snapshot boundary, if any.
    fn next_deadline(&self) -> Option<Instant> {
        let snapshot = self.met.as_ref().map(|m| self.clock.start + m.next_at);
        self.timers.iter().flatten().copied().chain(snapshot).min()
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
        if let Some(buf) = self.tracer.as_mut() {
            // Stamp in monotonic wall nanoseconds since cluster start — the
            // cross-node comparable axis (local clocks drift; `elapsed` does
            // not).
            let at_ns = elapsed.as_nanos() as u64;
            for ev in out.drain_trace() {
                buf.push(TraceRecord { at_ns, pid, ev });
            }
        }
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
                    // …but only the first is the node's single-shot decision.
                    if !self.reported {
                        self.reported = true;
                        // Live decision-bound check, at the commit itself —
                        // the online half of the paper's `TS + ε + 3τ + 5δ`
                        // claim (the sim's world evaluator mirrors this).
                        if let Some(m) = self.met.as_mut() {
                            if let Some(f) = m
                                .watchdogs
                                .on_decision(elapsed.as_nanos() as u64, Some(pid.as_u32()))
                            {
                                m.firings.push(f);
                            }
                        }
                        let _ = self.decisions.send(Decision {
                            pid,
                            value,
                            elapsed,
                        });
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
/// After every wake-up the node publishes its [`Process::is_leader`]
/// belief into `leader_flag` (cleared on exit), so the cluster can answer
/// leader-observability queries without touching protocol state across
/// threads. On exit it ships its final [`NodeStats`] (router epoch,
/// per-shard load counters over `shards` shards, and — when
/// `trace_capacity` is set — the typed trace ring) through `stats` — the
/// runtime half of the schema-v5/v6 observability.
///
/// `kill_flag` is checked before every event, so a raised flag stops the
/// node as soon as the current handler returns instead of after the
/// inbox backlog drains — [`crate::cluster::Cluster::kill`]'s prompt
/// path.
///
/// With `trace_capacity = Some(cap)` every outbox runs with typed
/// tracing enabled; drained [`esync_core::trace::TraceEvent`]s are
/// stamped with monotonic nanoseconds since cluster start and collected
/// into a node-local bounded ring shipped in [`NodeStats::trace`].
///
/// # Panics
///
/// Panics if the protocol requests a weak-ordering-oracle broadcast
/// ([`Action::WabBroadcast`]): the runtime provides no external oracle.
/// Use the *modified* B-Consensus (in-process oracle) instead.
#[allow(clippy::too_many_arguments)]
pub fn run_node<Proc>(
    pid: ProcessId,
    mut proc: Proc,
    inbox: Receiver<Wire<Proc::Msg>>,
    transport: Transport<Proc::Msg>,
    clock: LocalClock,
    decisions: Sender<Decision>,
    commits: Sender<Commit>,
    leader_flag: Arc<AtomicBool>,
    kill_flag: Arc<AtomicBool>,
    stats: Sender<NodeStats>,
    shards: usize,
    trace_capacity: Option<usize>,
    metrics: Option<NodeMetricsCfg>,
) where
    Proc: Process,
    Proc::Msg: Clone,
{
    let mut ctx = NodeCtx {
        pid,
        transport,
        timers: Vec::new(),
        clock,
        decisions,
        commits,
        reported: false,
        tracer: trace_capacity.map(TraceBuffer::new),
        met: metrics.map(|cfg| NodeMetrics::new(cfg, pid)),
    };

    // One outbox for the node's whole life, reset (not reallocated) per
    // event: `reset` keeps the tracing/metering enablement and the
    // metric registry — counters accumulate across events and are
    // *sampled* by snapshots, never drained.
    let mut out = Outbox::default();
    out.set_tracing(ctx.tracer.is_some());
    out.set_metering(ctx.met.is_some());

    ctx.handle(&mut out, Instant::now(), |out| proc.on_start(out));
    leader_flag.store(proc.is_leader(), Ordering::Relaxed);

    'run: loop {
        // Wait for a message, the next timer deadline, or the next
        // snapshot boundary — whichever comes first.
        let wire = match ctx.next_deadline() {
            None => match inbox.recv() {
                Ok(w) => Some(w),
                Err(_) => break,
            },
            Some(at) => match inbox.recv_deadline(at) {
                Ok(w) => Some(w),
                // The wake-up fires due timers / takes due snapshots.
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => break,
            },
        };
        let now = Instant::now();
        // Publish every snapshot boundary that has passed; the per-shard
        // loads are gathered only when one has.
        let elapsed = ctx.elapsed(now);
        if let Some(m) = ctx.met.as_mut().filter(|m| m.next_at <= elapsed) {
            let dropped = ctx.tracer.as_ref().map_or(0, TraceBuffer::dropped);
            m.flush_due(&mut out, elapsed, dropped, &shard_loads_of(&proc, shards));
        }
        // Fire all due timers, then handle the message.
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
            Some(Wire::Submit { value }) => {
                ctx.handle(&mut out, now, |out| proc.on_client(value, out));
            }
        }
        leader_flag.store(proc.is_leader(), Ordering::Relaxed);
    }
    // Dead nodes lead nothing: clear the published belief on the way out
    // so `leader_hint` never points at a stopped thread.
    leader_flag.store(false, Ordering::Relaxed);
    let trace_dropped = ctx.tracer.as_ref().map_or(0, TraceBuffer::dropped);
    let exit = ctx.elapsed(Instant::now());
    if let Some(m) = ctx.met.as_mut() {
        m.finish(&mut out, exit, trace_dropped);
    }
    let (snapshots, firings) = ctx
        .met
        .map(|m| (m.snapshots, m.firings))
        .unwrap_or_default();
    let _ = stats.send(NodeStats {
        pid,
        router_epoch: proc.router_epoch(),
        shard_loads: (0..shards as u32)
            .map(|s| proc.shard_load(esync_core::types::ShardId::new(s)))
            .collect(),
        trace: ctx
            .tracer
            .as_mut()
            .map_or_else(Vec::new, TraceBuffer::take_records),
        trace_dropped,
        snapshots,
        firings,
    });
}

/// The node's per-shard routed (`submitted`) load, for the imbalance
/// watch — empty for unsharded protocols, where the ratio means nothing.
fn shard_loads_of<Proc: Process>(proc: &Proc, shards: usize) -> Vec<u64> {
    if shards < 2 {
        return Vec::new();
    }
    (0..shards as u32)
        .map(|s| proc.shard_load(esync_core::types::ShardId::new(s)).submitted)
        .collect()
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
