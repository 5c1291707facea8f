//! The threaded runtime runs the same state machines over its queue
//! links, wall-clock timers and drifting clocks, with the simulator's
//! pre-stability network for the first stretch of a run.

use esync_core::bconsensus::BConsensus;
use esync_core::network::PreStability;
use esync_core::paxos::multi::MultiPaxos;
use esync_core::paxos::session::SessionPaxos;
use esync_core::paxos::traditional::TraditionalPaxos;
use esync_core::round_based::RotatingCoordinator;
use esync_core::time::RealDuration;
use esync_core::types::{ProcessId, Value};
use esync_runtime::{Cluster, ClusterConfig};
use std::time::Duration;

fn assert_agreement(decisions: &[esync_runtime::Commit]) {
    let v = decisions[0].value;
    for d in decisions {
        assert_eq!(d.value, v, "{decisions:?}");
    }
}

/// Loses a message with probability `loss` and delays the rest by 0–5δ.
fn lossy(loss: f64) -> PreStability {
    PreStability {
        loss_prob: loss,
        delay_delta_range: (0.0, 5.0),
        ..PreStability::chaos()
    }
}

#[test]
fn session_paxos_over_threads_with_unstable_window() {
    let cfg = ClusterConfig::new(5)
        .unstable(Duration::from_millis(120), lossy(0.4))
        .seed(11);
    let cluster = Cluster::spawn(cfg, SessionPaxos::new()).unwrap();
    let decisions = cluster.await_decisions(Duration::from_secs(30)).unwrap();
    assert_eq!(decisions.len(), 5);
    assert_agreement(&decisions);
    cluster.shutdown();
}

/// A partition on threads: process 0 sends and hears nothing for the
/// first 100 ms, the rest of the cluster meets chaos, and everyone
/// decides the same value after the window.
#[test]
fn session_paxos_over_threads_with_an_isolated_process() {
    let pre = PreStability::chaos().with_isolated([ProcessId::new(0)]);
    let cfg = ClusterConfig::new(5)
        .unstable(Duration::from_millis(100), pre)
        .seed(16);
    let cluster = Cluster::spawn(cfg, SessionPaxos::new()).unwrap();
    let decisions = cluster.await_decisions(Duration::from_secs(30)).unwrap();
    assert_eq!(decisions.len(), 5);
    assert_agreement(&decisions);
    cluster.shutdown();
}

#[test]
fn modified_bconsensus_over_threads() {
    let cfg = ClusterConfig::new(3)
        .timing(|t| t.delta(RealDuration::from_millis(8)))
        .unstable(Duration::from_millis(60), lossy(0.3))
        .seed(12);
    let cluster = Cluster::spawn(cfg, BConsensus::modified()).unwrap();
    let decisions = cluster.await_decisions(Duration::from_secs(30)).unwrap();
    assert_agreement(&decisions);
    cluster.shutdown();
}

#[test]
fn heartbeat_traditional_paxos_over_threads() {
    let cfg = ClusterConfig::new(3).seed(13);
    let cluster = Cluster::spawn(cfg, TraditionalPaxos::with_heartbeats()).unwrap();
    let decisions = cluster.await_decisions(Duration::from_secs(30)).unwrap();
    assert_agreement(&decisions);
    cluster.shutdown();
}

#[test]
fn rotating_coordinator_over_threads() {
    let cfg = ClusterConfig::new(3).seed(14);
    let cluster = Cluster::spawn(cfg, RotatingCoordinator::new()).unwrap();
    let decisions = cluster.await_decisions(Duration::from_secs(30)).unwrap();
    assert_agreement(&decisions);
    cluster.shutdown();
}

#[test]
fn replicated_log_over_threads() {
    let cfg = ClusterConfig::new(3).seed(15);
    let cluster = Cluster::spawn(cfg, MultiPaxos::new()).unwrap();
    // Give the cluster time to anchor, then submit to every node; slot 0's
    // decision is what `await_decisions` reports.
    std::thread::sleep(Duration::from_millis(300));
    for pid in ProcessId::all(3) {
        cluster.submit(pid, Value::new(500 + pid.as_u32() as u64));
    }
    let decisions = cluster.await_decisions(Duration::from_secs(30)).unwrap();
    assert_agreement(&decisions);
    cluster.shutdown();
}
