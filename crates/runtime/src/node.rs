//! One OS thread per process: inbox, wall-clock timers, drifting local
//! clock.

use crate::cluster::{Commit, Decision, NodeStats};
use crate::transport::{Transport, Wire};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use esync_core::metrics::Metric;
use esync_core::outbox::{Action, Outbox, Process};
use esync_core::time::LocalInstant;
use esync_core::types::{ProcessId, TimerId};
use esync_metrics::{MetricsSnapshot, WatchdogConfig, WatchdogFiring, Watchdogs};
use esync_trace::{TraceBuffer, TraceRecord};
use std::collections::HashMap;
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
        LocalInstant::from_nanos((self.start.elapsed().as_nanos() as f64 * self.rate) as u64)
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
    /// Next snapshot boundary on the `transport.elapsed()` axis.
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

    /// How long the inbox wait may sleep before the next snapshot is due.
    fn until_due(&self, elapsed: Duration) -> Duration {
        self.next_at.saturating_sub(elapsed)
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

/// Runs one process until a [`Wire::Stop`] arrives or `kill_flag` is
/// raised.
///
/// After every handled event the node publishes its
/// [`Process::is_leader`] belief into `leader_flag` (cleared on exit), so
/// the cluster can answer leader-observability queries without touching
/// protocol state across threads. On exit it ships its final
/// [`NodeStats`] (router epoch, per-shard load counters over `shards`
/// shards, and — when `trace_capacity` is set — the typed trace ring)
/// through `stats` — the runtime half of the schema-v5/v6 observability.
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
    mut transport: Transport<Proc::Msg>,
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
    let mut timers: HashMap<TimerId, Instant> = HashMap::new();
    let mut reported = false;
    let mut tracer = trace_capacity.map(TraceBuffer::new);
    let mut met = metrics.map(|cfg| NodeMetrics::new(cfg, pid));

    // One outbox for the node's whole life, reset (not reallocated) per
    // event: `reset` keeps the tracing/metering enablement and the
    // metric registry — counters accumulate across events and are
    // *sampled* by snapshots, never drained.
    let mut out = Outbox::new(clock.now());
    out.set_tracing(tracer.is_some());
    out.set_metering(met.is_some());

    proc.on_start(&mut out);
    apply(
        pid,
        &mut out,
        &mut transport,
        &mut timers,
        &clock,
        &decisions,
        &commits,
        &mut reported,
        &mut tracer,
        &mut met,
    );
    leader_flag.store(proc.is_leader(), Ordering::Relaxed);

    while !kill_flag.load(Ordering::Relaxed) {
        // Publish every snapshot boundary that has passed before
        // sleeping again (cheap no-op when none is due).
        if let Some(m) = met.as_mut() {
            let dropped = tracer.as_ref().map_or(0, TraceBuffer::dropped);
            let loads = shard_loads_of(&proc, shards);
            m.flush_due(&mut out, transport.elapsed(), dropped, &loads);
        }
        // Fire all due timers first.
        let now = Instant::now();
        let due: Vec<TimerId> = timers
            .iter()
            .filter(|(_, at)| **at <= now)
            .map(|(id, _)| *id)
            .collect();
        if !due.is_empty() {
            for id in due {
                if kill_flag.load(Ordering::Relaxed) {
                    break;
                }
                timers.remove(&id);
                out.reset(clock.now());
                proc.on_timer(id, &mut out);
                apply(
                    pid,
                    &mut out,
                    &mut transport,
                    &mut timers,
                    &clock,
                    &decisions,
                    &commits,
                    &mut reported,
                    &mut tracer,
                    &mut met,
                );
            }
            leader_flag.store(proc.is_leader(), Ordering::Relaxed);
            continue;
        }
        // Wait for a message, the next timer deadline, or the next
        // snapshot boundary — whichever comes first.
        let timer_wait = timers
            .values()
            .min()
            .map(|next| next.saturating_duration_since(Instant::now()));
        let snap_wait = met.as_ref().map(|m| m.until_due(transport.elapsed()));
        let wire = match (timer_wait, snap_wait) {
            (None, None) => match inbox.recv() {
                Ok(w) => Some(w),
                Err(_) => break,
            },
            (a, b) => {
                let wait = match (a, b) {
                    (Some(a), Some(b)) => a.min(b),
                    (Some(a), None) => a,
                    (None, Some(b)) => b,
                    (None, None) => unreachable!("outer match handled"),
                };
                match inbox.recv_timeout(wait) {
                    Ok(w) => Some(w),
                    // Loop fires due timers / takes due snapshots.
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        let Some(wire) = wire else { continue };
        if kill_flag.load(Ordering::Relaxed) {
            break;
        }
        match wire {
            Wire::Stop => break,
            Wire::Msg { from, msg } => {
                out.reset(clock.now());
                proc.on_message(from, &msg, &mut out);
                apply(
                    pid,
                    &mut out,
                    &mut transport,
                    &mut timers,
                    &clock,
                    &decisions,
                    &commits,
                    &mut reported,
                    &mut tracer,
                    &mut met,
                );
            }
            Wire::Submit { value } => {
                out.reset(clock.now());
                proc.on_client(value, &mut out);
                apply(
                    pid,
                    &mut out,
                    &mut transport,
                    &mut timers,
                    &clock,
                    &decisions,
                    &commits,
                    &mut reported,
                    &mut tracer,
                    &mut met,
                );
            }
        }
        leader_flag.store(proc.is_leader(), Ordering::Relaxed);
    }
    // Dead nodes lead nothing: clear the published belief on the way out
    // so `leader_hint` never points at a stopped thread.
    leader_flag.store(false, Ordering::Relaxed);
    let trace_dropped = tracer.as_ref().map_or(0, TraceBuffer::dropped);
    if let Some(m) = met.as_mut() {
        m.finish(&mut out, transport.elapsed(), trace_dropped);
    }
    let (snapshots, firings) = met
        .map(|m| (m.snapshots, m.firings))
        .unwrap_or_default();
    let _ = stats.send(NodeStats {
        pid,
        router_epoch: proc.router_epoch(),
        shard_loads: (0..shards as u32)
            .map(|s| proc.shard_load(esync_core::types::ShardId::new(s)))
            .collect(),
        trace: tracer.as_mut().map_or_else(Vec::new, TraceBuffer::take_records),
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

#[allow(clippy::too_many_arguments)]
fn apply<M: Clone>(
    pid: ProcessId,
    out: &mut Outbox<M>,
    transport: &mut Transport<M>,
    timers: &mut HashMap<TimerId, Instant>,
    clock: &LocalClock,
    decisions: &Sender<Decision>,
    commits: &Sender<Commit>,
    reported: &mut bool,
    tracer: &mut Option<TraceBuffer>,
    met: &mut Option<NodeMetrics>,
) {
    if let Some(buf) = tracer.as_mut() {
        // Stamp in monotonic wall nanoseconds since cluster start — the
        // cross-node comparable axis (local clocks drift; `elapsed` does
        // not).
        let at_ns = transport.elapsed().as_nanos() as u64;
        for ev in out.drain_trace() {
            buf.push(TraceRecord { at_ns, pid, ev });
        }
    }
    for action in out.drain() {
        match action {
            Action::Send { to, msg } => transport.send(pid, to, msg),
            Action::Broadcast { msg } => transport.broadcast(pid, msg),
            Action::SetTimer { id, after } => {
                timers.insert(id, Instant::now() + clock.wall(after));
            }
            Action::CancelTimer { id } => {
                timers.remove(&id);
            }
            Action::Decide { value, shard } => {
                let elapsed = transport.elapsed();
                // Every decide is a commit (per-command, multi-instance)…
                let _ = commits.send(Commit {
                    pid,
                    shard,
                    value,
                    elapsed,
                });
                // …but only the first is the node's single-shot decision.
                if !*reported {
                    *reported = true;
                    // Live decision-bound check, at the commit itself —
                    // the online half of the paper's `TS + ε + 3τ + 5δ`
                    // claim (the sim's world evaluator mirrors this).
                    if let Some(m) = met.as_mut() {
                        if let Some(f) = m
                            .watchdogs
                            .on_decision(elapsed.as_nanos() as u64, Some(pid.as_u32()))
                        {
                            m.firings.push(f);
                        }
                    }
                    let _ = decisions.send(Decision {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_clock_scales_elapsed_time() {
        let start = Instant::now();
        let c = LocalClock::new(2.0, start);
        let wall = c.wall(esync_core::time::LocalDuration::from_millis(10));
        assert_eq!(wall, Duration::from_millis(5), "fast clock: shorter wall");
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
}
