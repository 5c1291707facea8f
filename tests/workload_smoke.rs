//! Tier-1 workload smoke: a small closed-loop drive through **both**
//! backends — the discrete-event simulator and the threaded runtime —
//! asserting nonzero commits and log agreement. The full sweeps live in
//! `exp_w1`/`exp_w2`/`exp_w3`; this is the fast always-on guard that the
//! workload subsystem stays wired end to end — including the sharded
//! log-group engine, of which the plain replicated log is the one-shard
//! configuration.

use esync::core::paxos::group::LogGroup;
use esync::core::paxos::multi::MultiPaxos;
use esync::sim::{PreStability, SimConfig, SimTime};
use esync::workload::gen::ClosedLoopSpec;
use esync::workload::{rt_driver, sim_driver};
use std::time::Duration;

const COMMANDS: u64 = 24;

#[test]
fn closed_loop_smoke_over_simulator() {
    let cfg = SimConfig::builder(3)
        .seed(1)
        .stability_at_millis(0)
        .pre_stability(PreStability::lossless())
        .build()
        .unwrap();
    let spec = ClosedLoopSpec::new(3, 2, COMMANDS).seed(1);
    let out = sim_driver::run_closed_loop(
        cfg,
        MultiPaxos::new().with_batching(4, 2),
        &spec,
        SimTime::from_millis(500),
        SimTime::from_secs(60),
    );
    assert_eq!(out.summary.committed, COMMANDS, "all commands commit");
    assert!(out.summary.commits_per_sec > 0.0);
    assert_eq!(out.summary.latency.count, COMMANDS);
    assert!(out.log_agreement, "replicas agree slot by slot");
}

#[test]
fn closed_loop_smoke_over_threaded_runtime() {
    let cfg = esync::runtime::ClusterConfig::new(3).seed(2);
    let spec = ClosedLoopSpec::new(3, 2, COMMANDS).seed(2);
    let out = rt_driver::run_closed_loop(
        cfg,
        MultiPaxos::new().with_batching(4, 2),
        &spec,
        Duration::from_millis(300),
        Duration::from_secs(30),
    )
    .expect("threaded workload completes");
    assert_eq!(out.summary.committed, COMMANDS);
    assert!(out.summary.latency.count == COMMANDS);
    // Log agreement over threads: every node applied every command id.
    let reference = &out.applied_per_node[0];
    assert_eq!(reference.len() as u64, COMMANDS);
    for (i, ids) in out.applied_per_node.iter().enumerate() {
        assert_eq!(ids, reference, "node {i} applied a different command set");
    }
}

/// A sharded group (S = 4) drives through BOTH backends: all commands
/// commit, per-shard logs agree across replicas, and the commit feed's
/// shard split partitions the total.
#[test]
fn sharded_closed_loop_smoke_over_simulator() {
    let cfg = SimConfig::builder(3)
        .seed(4)
        .stability_at_millis(0)
        .pre_stability(PreStability::lossless())
        .build()
        .unwrap();
    let spec = ClosedLoopSpec::new(4, 2, COMMANDS).seed(4).key_space(256);
    let out = sim_driver::run_closed_loop(
        cfg,
        LogGroup::new(4).with_batching(2, 2),
        &spec,
        SimTime::from_millis(500),
        SimTime::from_secs(60),
    );
    assert_eq!(out.summary.committed, COMMANDS, "all commands commit");
    assert!(
        out.log_agreement,
        "per-shard slot agreement across replicas"
    );
    assert_eq!(out.summary.per_shard.len(), 4);
    assert_eq!(
        out.summary
            .per_shard
            .iter()
            .map(|s| s.committed)
            .sum::<u64>(),
        COMMANDS,
        "shard split partitions the commits"
    );
}

#[test]
fn sharded_closed_loop_smoke_over_threaded_runtime() {
    let cfg = esync::runtime::ClusterConfig::new(3).seed(6);
    let spec = ClosedLoopSpec::new(3, 2, COMMANDS).seed(6).key_space(256);
    let out = rt_driver::run_closed_loop(
        cfg,
        LogGroup::new(2).with_batching(2, 2),
        &spec,
        Duration::from_millis(300),
        Duration::from_secs(30),
    )
    .expect("sharded threaded workload completes");
    assert_eq!(out.summary.committed, COMMANDS);
    assert_eq!(out.summary.per_shard.len(), 2);
    assert!(
        out.summary.per_shard.iter().all(|s| s.committed > 0),
        "both shards must actually commit: {:?}",
        out.summary
            .per_shard
            .iter()
            .map(|s| s.committed)
            .collect::<Vec<_>>()
    );
    assert_eq!(
        out.summary
            .per_shard
            .iter()
            .map(|s| s.committed)
            .sum::<u64>(),
        COMMANDS,
        "shard split partitions the commits"
    );
    let reference = &out.applied_per_node[0];
    assert_eq!(reference.len() as u64, COMMANDS);
    for (i, ids) in out.applied_per_node.iter().enumerate() {
        assert_eq!(ids, reference, "node {i} applied a different command set");
    }
}

#[test]
fn same_seed_same_sim_measurements() {
    // The acceptance-criterion determinism check, smoke-sized: identical
    // spec + config ⇒ bit-identical summary.
    let run = || {
        let cfg = SimConfig::builder(3)
            .seed(5)
            .stability_at_millis(100)
            .pre_stability(PreStability::chaos())
            .build()
            .unwrap();
        sim_driver::run_closed_loop(
            cfg,
            MultiPaxos::new().with_batching(4, 4),
            &ClosedLoopSpec::new(2, 3, COMMANDS).seed(5),
            SimTime::from_millis(400),
            SimTime::from_secs(60),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.summary, b.summary);
    assert_eq!(a.report, b.report);
}
