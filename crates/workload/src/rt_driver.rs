//! The closed-loop workload driver over the threaded real-time runtime.
//!
//! The same generator as [`crate::sim_driver::run_closed_loop`], driving
//! an [`esync_runtime::Cluster`] over real threads and wall clocks:
//! commands go in through [`Cluster::submit`], measurements come back out
//! of the per-command [`Cluster::commits`] stream. Command *sequences* are
//! bit-identical to the simulator driver's (same [`CommandGen`]); timings
//! are wall-clock and therefore machine-dependent — the runtime driver
//! demonstrates the subsystem end-to-end, while the simulator drivers
//! produce the reproducible artifacts.

use crate::collect::Collector;
use crate::gen::{ClosedLoopSpec, CommandGen};
use esync_core::outbox::{Protocol, ShardLoad};
use esync_core::types::ProcessId;
use esync_metrics::HealthSummary;
use esync_runtime::{Cluster, ClusterConfig, NodeStats, RuntimeError};
use esync_sim::metrics::WorkloadSummary;
use esync_trace::TraceRecord;
use std::collections::{BTreeSet, VecDeque};
use std::time::{Duration, Instant};

/// A completed threaded-runtime workload run.
#[derive(Debug, Clone)]
pub struct RtWorkloadOutcome {
    /// Throughput and latency measurements (wall-clock nanoseconds).
    pub summary: WorkloadSummary,
    /// Command ids applied per node — agreement means every node's set
    /// converges to the full command set.
    pub applied_per_node: Vec<BTreeSet<u64>>,
    /// Per-node router epochs at shutdown (all zero without live
    /// rebalancing).
    pub router_epochs: Vec<u64>,
    /// Every node's typed trace, concatenated in pid order (each node's
    /// records are stamped on the shared wall axis — monotonic
    /// nanoseconds since cluster start). Empty unless the cluster was
    /// configured with [`ClusterConfig::tracing`].
    pub trace: Vec<TraceRecord>,
}

/// Runs a **closed-loop** workload against a threaded cluster: spawns the
/// cluster, waits `warmup` for the log to anchor a leader, then keeps
/// `spec.clients × spec.outstanding` commands in flight until
/// `spec.commands` are committed *and applied at every node*, or
/// `deadline` (from cluster start) passes.
///
/// # Errors
///
/// Returns [`RuntimeError::Config`] for invalid timing parameters and
/// [`RuntimeError::Timeout`] if the deadline passes before every command
/// commits everywhere.
pub fn run_closed_loop<P>(
    cfg: ClusterConfig,
    protocol: P,
    spec: &ClosedLoopSpec,
    warmup: Duration,
    deadline: Duration,
) -> Result<RtWorkloadOutcome, RuntimeError>
where
    P: Protocol,
    P::Process: Send + 'static,
    P::Msg: Send + Clone + 'static,
{
    assert!(spec.clients >= 1, "at least one client");
    assert!(spec.outstanding >= 1, "at least one in-flight command");
    let shards = protocol.shard_count();
    let metrics_interval = cfg.metrics_interval();
    let cluster = Cluster::spawn(cfg, protocol)?;
    let n = cluster.n();
    std::thread::sleep(warmup);
    let mut gen = CommandGen::for_spec(spec);
    // The client of each issued command, by id (issued 0, 1, 2, …).
    let mut owner: Vec<u32> = Vec::new();
    let mut collector = Collector::new(None, spec.timeline_window);
    collector.reserve_shards(shards);
    for client in 0..spec.clients as u32 {
        for _ in 0..spec.outstanding {
            submit_one(&cluster, &mut gen, &mut collector, &mut owner, client, spec);
        }
    }
    // The commits taken in the current wake-up, and the clients whose
    // command committed in it.
    let (mut taken, mut freed) = (VecDeque::new(), Vec::new());
    // No wait outlasts the deadline.
    let give_up = Instant::now() + deadline.saturating_sub(cluster.elapsed());
    while !applied_everywhere(&collector, n, spec.commands) {
        if cluster.elapsed() > deadline {
            let decided = collector.committed() as usize;
            cluster.shutdown();
            return Err(RuntimeError::Timeout {
                decided,
                n: spec.commands as usize,
            });
        }
        // Take every commit queued, then submit the freed clients' next
        // commands in one burst.
        let Ok(()) = cluster.commits().take_until(&mut taken, Some(give_up)) else {
            continue;
        };
        for commit in taken.drain(..) {
            let at_ns = commit.elapsed.as_nanos() as u64;
            if let Some(id) = collector.on_commit(commit.pid, commit.shard, commit.value, at_ns) {
                freed.push(owner[id as usize]);
            }
        }
        for client in freed.drain(..) {
            submit_one(&cluster, &mut gen, &mut collector, &mut owner, client, spec);
        }
    }
    let stats = cluster.shutdown_stats();
    Ok(finish(collector, stats, shards, metrics_interval))
}

/// Whether `total` commands committed and every one of the `n` nodes
/// applied `total` distinct commands: the driver's done-condition. Every
/// command the cluster commits was submitted through the collector
/// first, so its per-node counts cover every commit.
fn applied_everywhere(collector: &Collector, n: usize, total: u64) -> bool {
    collector.committed() >= total
        && (0..n as u32).all(|p| collector.applied_at(ProcessId::new(p)) >= total)
}

/// Assembles the outcome from the nodes' final stats (one per node): the
/// ids each node applied, read from the collector once, the per-shard
/// load counters summed into the collector's schema-v5 fields, the router
/// epochs, and what the nodes' observers collected — the traces
/// concatenated in pid order and, when the cluster was metered, one
/// health section (the `node` tag distinguishes the streams).
fn finish(
    mut collector: Collector,
    stats: Vec<NodeStats>,
    shards: usize,
    metrics_interval: Option<Duration>,
) -> RtWorkloadOutcome {
    let applied_per_node: Vec<BTreeSet<u64>> = (0..stats.len() as u32)
        .map(|p| collector.applied_ids(ProcessId::new(p)).collect())
        .collect();
    let mut loads = vec![ShardLoad::default(); shards];
    let mut router_epochs = Vec::with_capacity(stats.len());
    let mut trace = Vec::new();
    let mut health = HealthSummary {
        interval_ns: metrics_interval.map_or(0, |i| i.as_nanos() as u64),
        ..HealthSummary::default()
    };
    for s in stats {
        for (total, load) in loads.iter_mut().zip(&s.shard_loads) {
            total.submitted += load.submitted;
            total.admitted += load.admitted;
        }
        router_epochs.push(s.router_epoch);
        trace.extend(s.trace);
        health.snapshots.extend(s.snapshots);
        health.firings.extend(s.firings);
        health.trace_dropped += s.trace_dropped;
    }
    // The per-node series merged in `(at_ns, node)` order, the order
    // `HealthSummary` promises: a node that stopped early interleaves.
    health.snapshots.sort_by_key(|s| (s.at_ns, s.node));
    health.firings.sort_by_key(|f| (f.at_ns, f.node));
    collector.set_shard_loads(&loads);
    RtWorkloadOutcome {
        summary: collector.observed_summary(&trace, metrics_interval.map(|_| health)),
        applied_per_node,
        router_epochs,
        trace,
    }
}

/// Issues the next command for `client`, if the budget allows.
fn submit_one<P>(
    cluster: &Cluster<P>,
    gen: &mut CommandGen,
    collector: &mut Collector,
    owner: &mut Vec<u32>,
    client: u32,
    spec: &ClosedLoopSpec,
) where
    P: Protocol,
    P::Process: Send + 'static,
    P::Msg: Send + Clone + 'static,
{
    if gen.issued() >= spec.commands {
        return;
    }
    let value = gen.next_command();
    owner.push(client);
    collector.on_submit(value, cluster.elapsed().as_nanos() as u64);
    cluster.submit(spec.target_of(client, cluster.n()), value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use esync_core::paxos::multi::MultiPaxos;

    #[test]
    fn closed_loop_over_threads_commits_everywhere() {
        let cfg = ClusterConfig::new(3)
            .delta(Duration::from_millis(5))
            .seed(21);
        let spec = ClosedLoopSpec::new(2, 2, 12).seed(3);
        let out = run_closed_loop(
            cfg,
            MultiPaxos::new().with_batching(4, 2),
            &spec,
            Duration::from_millis(300),
            Duration::from_secs(30),
        )
        .expect("workload completes");
        assert_eq!(out.summary.committed, 12);
        assert!(out.summary.latency.count == 12);
        for (i, ids) in out.applied_per_node.iter().enumerate() {
            assert_eq!(ids.len(), 12, "node {i} misses commands");
        }
    }

    /// Node 1 stopped early (as after `Cluster::kill`): its series must
    /// interleave with node 0's by time, not follow it.
    #[test]
    fn health_series_merge_in_time_then_node_order() {
        use esync_core::types::ProcessId;
        use esync_metrics::{MetricsSnapshot, METRIC_COUNT};
        let node = |pid: u32, at: &[u64]| NodeStats {
            pid: ProcessId::new(pid),
            router_epoch: 0,
            shard_loads: Vec::new(),
            trace: Vec::new(),
            trace_dropped: pid.into(),
            snapshots: at
                .iter()
                .map(|&at_ns| MetricsSnapshot {
                    at_ns,
                    node: Some(pid),
                    counters: [0; METRIC_COUNT],
                })
                .collect(),
            firings: Vec::new(),
        };
        let run = |interval| {
            let collector = Collector::new(None, esync_core::time::RealDuration::from_millis(50));
            let stats = vec![node(0, &[10, 20]), node(1, &[5, 10])];
            let out = finish(collector, stats, 1, interval);
            out.summary.health
        };
        let health = run(Some(Duration::from_nanos(10))).expect("metered");
        let order: Vec<_> = health.snapshots.iter().map(|s| (s.at_ns, s.node)).collect();
        let merged = [(5, Some(1)), (10, Some(0)), (10, Some(1)), (20, Some(0))];
        assert_eq!(order, merged);
        assert_eq!((health.interval_ns, health.trace_dropped), (10, 1));
        assert_eq!(run(None), None, "unmetered");
    }
}
