//! Spawning and supervising a cluster of protocol threads.

use crate::node::{run_node, LocalClock, NodeCtx};
use crate::transport::{Queue, Transport, Wire};
use esync_core::config::{TimingConfig, TimingConfigBuilder};
use esync_core::error::ConfigError;
use esync_core::network::{PreStability, PreStabilityModel};
use esync_core::outbox::Protocol;
use esync_core::time::RealDuration;
use esync_core::types::{ProcessId, ShardId, Value};
use esync_metrics::Observer;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A committed command reported by one node: one notification per
/// `Decide` action, i.e. per command per node for the replicated-log
/// layer. A node's first commit is its single-shot decision (what
/// [`Cluster::await_decisions`] reports). Workload drivers consume the
/// commit stream to measure sustained throughput and end-to-end latency;
/// the shard tag lets them attribute both per log-group shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit {
    /// The applying process.
    pub pid: ProcessId,
    /// The log-group shard the command committed in
    /// ([`ShardId::ZERO`] for single-instance protocols).
    pub shard: ShardId,
    /// The committed command.
    pub value: Value,
    /// Wall time since cluster start.
    pub elapsed: Duration,
}

/// One node's final observability counters, returned by its thread on
/// exit (stop or kill): the applied router epoch and the per-shard load
/// counters the schema-v5 imbalance metrics read. Collected with
/// [`Cluster::shutdown_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStats {
    /// The reporting node.
    pub pid: ProcessId,
    /// The router epoch the node had applied when it stopped.
    pub router_epoch: u64,
    /// Per-shard load counters (indexed by shard).
    pub shard_loads: Vec<esync_core::outbox::ShardLoad>,
    /// The node's typed trace, stamped in monotonic nanoseconds since
    /// cluster start, oldest first. Empty unless the cluster was spawned
    /// with [`ClusterConfig::tracing`]; bounded by that capacity.
    pub trace: Vec<esync_trace::TraceRecord>,
    /// Trace records evicted by the node's bounded ring (0 when tracing
    /// was off or the capacity sufficed).
    pub trace_dropped: u64,
    /// Periodic per-node metric snapshots on the metrics cadence,
    /// stamped in monotonic nanoseconds since cluster start (the same
    /// axis as `trace`), oldest first — plus one final snapshot at node
    /// exit. Empty unless the cluster was spawned with
    /// [`ClusterConfig::metrics`] (schema-v7 observability).
    pub snapshots: Vec<esync_metrics::MetricsSnapshot>,
    /// Watchdog firings this node observed, in firing order. Empty
    /// unless metrics were enabled.
    pub firings: Vec<esync_metrics::WatchdogFiring>,
}

/// Errors from running a cluster.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The timing parameters were invalid.
    Config(ConfigError),
    /// A wait ran past its deadline: not every node decided
    /// ([`Cluster::await_decisions`]), or not every command of a
    /// workload driver's run was applied everywhere.
    Timeout {
        /// What the wait counted, as the message prints it: `"nodes
        /// decided"` or `"commands applied at every node"`.
        what: &'static str,
        /// How many were done by the deadline.
        done: usize,
        /// How many the wait was for.
        of: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Config(e) => write!(f, "invalid timing configuration: {e}"),
            RuntimeError::Timeout { what, done, of } => {
                write!(f, "only {done} of {of} {what} before the deadline")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for RuntimeError {
    fn from(e: ConfigError) -> Self {
        RuntimeError::Config(e)
    }
}

/// Configuration of a threaded cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    timing: TimingConfigBuilder,
    unstable_for: Duration,
    pre: PreStability,
    seed: u64,
    trace_capacity: Option<usize>,
    metrics_interval: Option<Duration>,
    watchdog_cfg: esync_metrics::WatchdogConfig,
}

impl ClusterConfig {
    /// A cluster of `n` nodes with `δ = 5ms`, stable from the start.
    pub fn new(n: usize) -> Self {
        let mut timing = TimingConfig::builder(n);
        timing.delta(RealDuration::from_millis(5));
        ClusterConfig {
            timing,
            unstable_for: Duration::ZERO,
            pre: PreStability::lossless(),
            seed: 0,
            trace_capacity: None,
            metrics_interval: None,
            watchdog_cfg: esync_metrics::WatchdogConfig::default(),
        }
    }

    /// Sets `δ`, `σ`, `ε` or `ρ` on the cluster's [`TimingConfigBuilder`]
    /// (defaults: `δ = 5ms`, the rest as [`TimingConfig::builder`]'s:
    /// `ε = δ/4`, the smallest admissible `σ`, `ρ = 10⁻³`):
    /// `.timing(|t| t.delta(RealDuration::from_millis(8)))`. `δ` must
    /// comfortably exceed queue and scheduling latency (milliseconds are
    /// fine; microseconds are not).
    pub fn timing(
        mut self,
        set: impl FnOnce(&mut TimingConfigBuilder) -> &mut TimingConfigBuilder,
    ) -> Self {
        set(&mut self.timing);
        self
    }

    /// Makes the first `window` of the run unstable (default: none): a
    /// message sent inside it meets the simulator's pre-`TS` network,
    /// where `pre` drops it (always, if its sender or recipient is
    /// isolated) or delays it by a multiple of `δ` (to end at most `δ`
    /// after the window under
    /// [`carryover_bounded`](PreStability::carryover_bounded)).
    pub fn unstable(mut self, window: Duration, pre: PreStability) -> Self {
        self.unstable_for = window;
        self.pre = pre;
        self
    }

    /// Seed for loss, delay and clock-rate sampling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables typed protocol tracing on every node, each collecting into
    /// a bounded ring of `capacity` records (oldest evicted first). The
    /// traces come back in [`NodeStats::trace`] from
    /// [`Cluster::shutdown_stats`]. Default: off — and the disabled path
    /// is behaviorally inert, not merely cheap (see
    /// [`esync_core::outbox::Outbox::event`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn tracing(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        self.trace_capacity = Some(capacity);
        self
    }

    /// Enables always-on metering on every node: each node keeps a
    /// passive [`esync_core::metrics::MetricSet`] in its outbox (the
    /// same sans-IO seam as tracing — disabled runs are behaviorally
    /// inert, not merely cheap) and publishes a
    /// [`esync_metrics::MetricsSnapshot`] every `interval` of wall
    /// time, evaluated online by the invariant watchdogs. Snapshots and
    /// firings ship in [`NodeStats`] at shutdown. Default: off.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn metrics(mut self, interval: Duration) -> Self {
        assert!(
            interval > Duration::ZERO,
            "metrics interval must be positive"
        );
        self.metrics_interval = Some(interval);
        self
    }

    /// Overrides the watchdog tunables used when [`metrics`](Self::metrics)
    /// is enabled — e.g. to arm the live decision-bound monitor with a
    /// [`esync_metrics::BoundSpec`]. Default: bound monitor off,
    /// imbalance trip at 3.0×.
    pub fn watchdogs(mut self, cfg: esync_metrics::WatchdogConfig) -> Self {
        self.watchdog_cfg = cfg;
        self
    }

    /// The configured metrics cadence, if [`metrics`](Self::metrics) was
    /// called — drivers read it to label the health series they fold out
    /// of [`NodeStats`].
    pub fn metrics_interval(&self) -> Option<Duration> {
        self.metrics_interval
    }
}

/// A running cluster of protocol threads.
#[derive(Debug)]
pub struct Cluster<P: Protocol> {
    n: usize,
    start: Instant,
    /// Every node's inbox, indexed by pid.
    inboxes: Vec<Arc<Queue<Wire<P::Msg>>>>,
    commits: Arc<Queue<Commit>>,
    /// Per-node "believes it leads" flags, published by the node threads
    /// after every event (see [`esync_core::outbox::Process::is_leader`]).
    leader_flags: Vec<Arc<AtomicBool>>,
    /// Per-node prompt-kill flags: set by [`Cluster::kill`], checked by
    /// the node loop before every event so a killed node stops without
    /// draining its inbox backlog first.
    kill_flags: Vec<Arc<AtomicBool>>,
    /// The node threads, in pid order; each returns its final stats.
    handles: Vec<JoinHandle<NodeStats>>,
}

impl<P: Protocol> Cluster<P> {
    /// Spawns one thread per process.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Config`] for invalid timing parameters.
    pub fn spawn(cfg: ClusterConfig, protocol: P) -> Result<Cluster<P>, RuntimeError>
    where
        P::Process: Send + 'static,
        P::Msg: Send + Clone + 'static,
    {
        let timing = cfg.timing.build()?;
        let n = timing.n();
        let start = Instant::now();
        let stable_at = start + cfg.unstable_for;
        let pre = PreStabilityModel::new(cfg.pre, timing.delta());
        let rho = timing.rho();

        let inboxes: Vec<_> = (0..n).map(|_| Arc::new(Queue::default())).collect();
        let commits = Arc::new(Queue::default());
        let shards = protocol.shard_count();
        let mut seed_rng = ChaCha8Rng::seed_from_u64(cfg.seed);

        let mut handles = Vec::with_capacity(n);
        let mut leader_flags = Vec::with_capacity(n);
        let mut kill_flags = Vec::with_capacity(n);
        for (i, inbox) in inboxes.iter().enumerate() {
            let pid = ProcessId::new(i as u32);
            let proc = protocol.spawn(pid, &timing, Value::new(100 + i as u64));
            let leader_flag = Arc::new(AtomicBool::new(false));
            leader_flags.push(Arc::clone(&leader_flag));
            let kill_flag = Arc::new(AtomicBool::new(false));
            kill_flags.push(Arc::clone(&kill_flag));
            let rate = if rho == 0.0 {
                1.0
            } else {
                1.0 + seed_rng.gen_range(-rho..=rho)
            };
            let transport = Transport::new(
                pid,
                inboxes.clone(),
                stable_at,
                pre.clone(),
                ChaCha8Rng::seed_from_u64(cfg.seed.wrapping_add(1 + i as u64)),
            );
            let mut obs = Observer::default();
            if let Some(cap) = cfg.trace_capacity {
                obs.enable_trace(cap);
            }
            if let Some(interval) = cfg.metrics_interval {
                let interval_ns = interval.as_nanos() as u64;
                obs.enable_metrics(Some(pid.as_u32()), interval_ns, cfg.watchdog_cfg);
            }
            let clock = LocalClock::new(rate, start);
            let ctx = NodeCtx::new(pid, transport, clock, Arc::clone(&commits), obs);
            let inbox = Arc::clone(inbox);
            let handle = std::thread::Builder::new()
                .name(format!("esync-node-{i}"))
                .spawn(move || run_node(ctx, proc, inbox, leader_flag, kill_flag, shards))
                .expect("spawn node thread");
            handles.push(handle);
        }
        Ok(Cluster {
            n,
            start,
            inboxes,
            commits,
            leader_flags,
            kill_flags,
            handles,
        })
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Wall time since the cluster started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Submits a client command to node `pid` (multi-instance protocols).
    pub fn submit(&self, pid: ProcessId, value: Value) {
        self.inboxes[pid.as_usize()].push(Wire::Submit { value });
    }

    /// The commit stream: one [`Commit`] per command per node, in each
    /// node's application order. Read it (from one thread at a time) to
    /// measure sustained-workload throughput and latency; leaving it
    /// unread only buffers (the queue is unbounded).
    pub fn commits(&self) -> &Queue<Commit> {
        &self.commits
    }

    /// The node currently claiming leadership (lowest pid wins a tie), if
    /// any. A wall-clock observation — the answer can be stale by the
    /// time the caller acts on it — so it is an *observability* hint for
    /// tests and fault injectors, never a correctness input (the paper's
    /// protocols elect leaders in-band).
    pub fn leader_hint(&self) -> Option<ProcessId> {
        self.leader_flags
            .iter()
            .position(|f| f.load(Ordering::Relaxed))
            .map(|i| ProcessId::new(i as u32))
    }

    /// Permanently stops node `pid` — the runtime's crash injection
    /// (threads have no restartable stable storage, so unlike the
    /// simulator's crash–restart this is crash-forever). The kill closes
    /// the node's inbox: what is queued there, and every message and
    /// submission sent to it later, is dropped, as at any dead
    /// destination. The messages it sent that the unstable window delayed
    /// still arrive, since their recipients hold them.
    ///
    /// The kill is *prompt*: the node's loop checks a shared flag before
    /// every event, so it exits — snapshotting its [`NodeStats`] — as
    /// soon as its current handler returns, rather than after handling
    /// the inbox items it has already taken. The stats a killed node
    /// returns therefore reflect its state at kill time, and
    /// [`Cluster::shutdown_stats`] reliably includes them.
    pub fn kill(&self, pid: ProcessId) {
        self.kill_flags[pid.as_usize()].store(true, Ordering::Relaxed);
        // The close also wakes a node asleep on an empty inbox.
        self.inboxes[pid.as_usize()].close();
        self.leader_flags[pid.as_usize()].store(false, Ordering::Relaxed);
    }

    /// Waits until every node has decided, or the deadline: reads the
    /// commit stream and keeps each node's first [`Commit`] — its
    /// single-shot decision. Later commits read meanwhile are consumed.
    ///
    /// Returns one decision per node, ordered by process id.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Timeout`] with the partial count on deadline.
    pub fn await_decisions(&self, timeout: Duration) -> Result<Vec<Commit>, RuntimeError> {
        let deadline = Instant::now() + timeout;
        let mut got: BTreeMap<ProcessId, Commit> = BTreeMap::new();
        let mut taken = VecDeque::new();
        while got.len() < self.n {
            if self.commits.take_until(&mut taken, Some(deadline)).is_err() {
                return Err(RuntimeError::Timeout {
                    what: "nodes decided",
                    done: got.len(),
                    of: self.n,
                });
            }
            for c in taken.drain(..) {
                got.entry(c.pid).or_insert(c);
            }
        }
        Ok(got.into_values().collect())
    }

    /// Stops all nodes and joins their threads.
    pub fn shutdown(self) {
        let _ = self.shutdown_stats();
    }

    /// Stops all nodes, joins their threads, and returns every node's
    /// final [`NodeStats`], ordered by process id (killed nodes report
    /// the counters they had when they died; a node whose thread panicked
    /// reports nothing).
    pub fn shutdown_stats(mut self) -> Vec<NodeStats> {
        for inbox in &self.inboxes {
            inbox.push(Wire::Stop);
        }
        std::mem::take(&mut self.handles)
            .into_iter()
            .filter_map(|h| h.join().ok())
            .collect()
    }
}

impl<P: Protocol> Drop for Cluster<P> {
    /// Kills every node still running, so that the threads of a cluster
    /// dropped without [`Cluster::shutdown`] stop too.
    fn drop(&mut self) {
        for pid in 0..self.n {
            self.kill(ProcessId::new(pid as u32));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esync_core::outbox::{Outbox, Process};
    use esync_core::paxos::session::SessionPaxos;
    use esync_core::types::TimerId;

    #[test]
    fn stable_cluster_decides_quickly() {
        let cfg = ClusterConfig::new(3).seed(1);
        let cluster = Cluster::spawn(cfg, SessionPaxos::new()).unwrap();
        let decisions = cluster.await_decisions(Duration::from_secs(10)).unwrap();
        assert_eq!(decisions.len(), 3);
        let v = decisions[0].value;
        assert!(decisions.iter().all(|d| d.value == v), "{decisions:?}");
        cluster.shutdown();
    }

    #[test]
    fn queued_decisions_are_taken_after_the_deadline_has_passed() {
        let cfg = ClusterConfig::new(3).seed(1);
        let cluster = Cluster::spawn(cfg, SessionPaxos::new()).unwrap();
        // A stable n = 3 cluster decides within a few δ; let all three
        // commits queue up well before anyone reads them.
        let wait = Duration::from_millis(500);
        std::thread::sleep(wait);
        let decisions = cluster.await_decisions(Duration::ZERO).unwrap();
        assert_eq!(decisions.len(), 3);
        assert!(decisions.iter().all(|d| d.elapsed < wait), "{decisions:?}");
        assert_eq!(
            cluster.await_decisions(Duration::ZERO),
            Err(RuntimeError::Timeout {
                what: "nodes decided",
                done: 0,
                of: 3
            })
        );
        cluster.shutdown();
    }

    #[test]
    fn lossy_window_then_stability_decides() {
        let lossy = PreStability {
            loss_prob: 0.5,
            delay_delta_range: (0.0, 5.0),
            ..PreStability::chaos()
        };
        let cfg = ClusterConfig::new(3)
            .unstable(Duration::from_millis(80), lossy)
            .seed(2);
        let cluster = Cluster::spawn(cfg, SessionPaxos::new()).unwrap();
        let decisions = cluster.await_decisions(Duration::from_secs(20)).unwrap();
        let v = decisions[0].value;
        assert!(decisions.iter().all(|d| d.value == v));
        cluster.shutdown();
    }

    #[test]
    fn killed_nodes_still_report_stats() {
        let cfg = ClusterConfig::new(3).seed(3);
        let cluster = Cluster::spawn(cfg, SessionPaxos::new()).unwrap();
        cluster.await_decisions(Duration::from_secs(10)).unwrap();
        cluster.kill(ProcessId::new(2));
        let stats = cluster.shutdown_stats();
        assert_eq!(stats.len(), 3, "killed node must be in {stats:?}");
        assert_eq!(stats[2].pid, ProcessId::new(2));
    }

    #[test]
    fn a_killed_nodes_inbox_stays_empty() {
        let cluster = Cluster::spawn(ClusterConfig::new(3), SessionPaxos::new()).unwrap();
        let dead = ProcessId::new(2);
        cluster.kill(dead);
        cluster.submit(dead, Value::new(1));
        // The live peers keep sending to the dead node meanwhile.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(cluster.inboxes[2].len(), 0);
        cluster.shutdown();
    }

    #[test]
    fn tracing_collects_decided_events() {
        let cfg = ClusterConfig::new(3).seed(4).tracing(1 << 14);
        let cluster = Cluster::spawn(cfg, SessionPaxos::new()).unwrap();
        cluster.await_decisions(Duration::from_secs(10)).unwrap();
        let stats = cluster.shutdown_stats();
        assert_eq!(stats.len(), 3);
        for s in &stats {
            assert!(
                s.trace
                    .iter()
                    .any(|r| matches!(r.ev, esync_core::trace::TraceEvent::Decided { .. })),
                "{}: no decided event in {} records",
                s.pid,
                s.trace.len()
            );
            assert_eq!(s.trace_dropped, 0);
            // Stamps are monotone within a node (one shared wall axis).
            assert!(s.trace.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        }
    }

    #[test]
    fn metered_cluster_ships_snapshots_per_node() {
        use esync_core::metrics::Metric;
        let cfg = ClusterConfig::new(3)
            .seed(5)
            .metrics(Duration::from_millis(20));
        let cluster = Cluster::spawn(cfg, SessionPaxos::new()).unwrap();
        cluster.await_decisions(Duration::from_secs(10)).unwrap();
        // Let at least one full cadence boundary pass before stopping.
        std::thread::sleep(Duration::from_millis(50));
        let stats = cluster.shutdown_stats();
        assert_eq!(stats.len(), 3);
        for s in &stats {
            // At least the exit snapshot, stamped for this node.
            assert!(!s.snapshots.is_empty(), "{}: no snapshots", s.pid);
            assert!(s.snapshots.iter().all(|p| p.node == Some(s.pid.as_u32())));
            // Cadence stamps are exact interval multiples except the
            // final exit stamp; all monotone on one node.
            assert!(s.snapshots.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
            let cadenced = &s.snapshots[..s.snapshots.len() - 1];
            assert!(cadenced.iter().all(|p| p.at_ns % 20_000_000 == 0));
            // The decided protocol moved real counters through the seam.
            let last = s.snapshots.last().unwrap();
            assert!(last.counter(Metric::Decided) > 0, "{}: {last:?}", s.pid);
            // A stable run churns no anchors and stalls nowhere.
            assert_eq!(s.firings, vec![], "{}", s.pid);
        }
    }

    #[test]
    fn unmetered_cluster_ships_no_snapshots() {
        let cfg = ClusterConfig::new(3).seed(6);
        let cluster = Cluster::spawn(cfg, SessionPaxos::new()).unwrap();
        cluster.await_decisions(Duration::from_secs(10)).unwrap();
        let stats = cluster.shutdown_stats();
        assert!(stats
            .iter()
            .all(|s| s.snapshots.is_empty() && s.firings.is_empty()));
    }

    /// Each node holds a clone of the `Arc` and does nothing else.
    struct Holder(Arc<()>);

    struct HolderProc {
        id: ProcessId,
        _held: Arc<()>,
    }

    impl Process for HolderProc {
        type Msg = ();
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_start(&mut self, _: &mut Outbox<()>) {}
        fn on_message(&mut self, _: ProcessId, _: &(), _: &mut Outbox<()>) {}
        fn on_timer(&mut self, _: TimerId, _: &mut Outbox<()>) {}
        fn on_restart(&mut self, _: &mut Outbox<()>) {}
        fn decision(&self) -> Option<Value> {
            None
        }
    }

    impl Protocol for Holder {
        type Msg = ();
        type Process = HolderProc;
        fn name(&self) -> &'static str {
            "holder"
        }
        fn spawn(&self, id: ProcessId, _: &TimingConfig, _: Value) -> HolderProc {
            let _held = Arc::clone(&self.0);
            HolderProc { id, _held }
        }
    }

    #[test]
    fn a_dropped_cluster_stops_its_nodes() {
        let held = Arc::new(());
        let cluster = Cluster::spawn(ClusterConfig::new(3), Holder(Arc::clone(&held))).unwrap();
        assert_eq!(Arc::strong_count(&held), 4, "one clone per node");
        drop(cluster);
        let deadline = Instant::now() + Duration::from_secs(5);
        while Arc::strong_count(&held) > 1 {
            assert!(Instant::now() < deadline, "a node outlived its cluster");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// `rt_*` benchmark workloads rely on these defaults.
    #[test]
    fn new_defaults_to_a_5ms_delta_and_the_core_timing_defaults() {
        let t = ClusterConfig::new(3).timing.build().unwrap();
        let delta = RealDuration::from_millis(5);
        assert_eq!(t.delta(), delta);
        assert_eq!(t.epsilon(), delta / 4);
        assert_eq!(t.sigma(), TimingConfig::min_sigma(delta, 1e-3));
        assert_eq!(t.rho(), 1e-3);
    }

    #[test]
    fn config_error_propagates() {
        let cfg = ClusterConfig::new(0);
        assert!(matches!(
            Cluster::<SessionPaxos>::spawn(cfg, SessionPaxos::new()),
            Err(RuntimeError::Config(_))
        ));
    }
}
