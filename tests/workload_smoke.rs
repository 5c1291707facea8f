//! Tier-1 workload smoke: a small closed-loop drive through **both**
//! backends — the discrete-event simulator and the threaded runtime —
//! asserting nonzero commits and log agreement. The full sweeps live in
//! `exp_w1`/`exp_w2`/`exp_w3`; this is the fast always-on guard that the
//! workload subsystem stays wired end to end — including the sharded
//! log-group engine, whose `S = 1` configuration must be bit-identical
//! to the plain replicated log.

use esync::core::outbox::{Process, Protocol};
use esync::core::paxos::group::{LogGroup, ShardedLogView};
use esync::core::paxos::multi::MultiPaxos;
use esync::core::time::RealDuration;
use esync::core::types::ProcessId;
use esync::metrics::WatchdogConfig;
use esync::sim::{PreStability, SimConfig, SimTime, World};
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
    let cfg = esync::runtime::ClusterConfig::new(3)
        .delta(Duration::from_millis(5))
        .seed(2);
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

/// The `tests/leader_churn.rs` scenario over any log protocol: warm up
/// until a leader anchors, crash it 30 ms into a closed-loop drive over
/// the other replicas, restart it 400 ms later, and run past the restart.
fn crash_the_anchored_leader_mid_drive<P>(seed: u64, protocol: P) -> sim_driver::SimWorkloadOutcome
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    const N: u32 = 5;
    let cfg = SimConfig::builder(N as usize)
        .seed(seed)
        .stability_at_millis(0)
        .pre_stability(PreStability::lossless())
        .max_time(SimTime::from_secs(300))
        .build()
        .unwrap();
    let mut world = World::new(cfg, protocol);
    let leader = loop {
        if let Some(p) = (0..N).map(ProcessId::new).find(|p| world.process(*p).is_leader()) {
            break p;
        }
        assert!(world.step(), "quiescent before any leader anchored");
    };
    let crash_at = world.now() + RealDuration::from_millis(30);
    let restart_at = crash_at + RealDuration::from_millis(400);
    world.inject_crash(crash_at, leader);
    world.inject_restart(restart_at, leader);
    let spec = ClosedLoopSpec::new(4, 2, 60)
        .seed(seed)
        .key_space(256)
        .targets((0..N).map(ProcessId::new).filter(|p| *p != leader).collect());
    let mut out = sim_driver::run_closed_loop_on(&mut world, &spec, SimTime::from_secs(120));
    assert_eq!(out.summary.committed, 60, "seed {seed}: the drive completes");
    assert_eq!(out.report.crashes[leader.as_usize()].len(), 1, "seed {seed}: crash mid-drive");
    // The restart may land after the last commit: run past it, so the
    // compared report covers the restarted leader's re-announcement too.
    world.run_until(restart_at + RealDuration::from_millis(100));
    out.end = world.now();
    out.report = world.report();
    assert_eq!(out.report.restarts[leader.as_usize()].len(), 1, "seed {seed}: restarted");
    out
}

/// `sim_driver::run_closed_loop` with the typed trace and the metric
/// registry both switched on before the warm-up.
fn observed_closed_loop<P>(cfg: SimConfig, protocol: P, spec: &ClosedLoopSpec) -> sim_driver::SimWorkloadOutcome
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    let mut world = World::new(cfg, protocol);
    world.enable_typed_trace(1 << 16);
    world.enable_metrics(RealDuration::from_millis(50), WatchdogConfig::default());
    world.run_until(SimTime::from_millis(400));
    sim_driver::run_closed_loop_on(&mut world, spec, SimTime::from_secs(60))
}

/// The log-group acceptance criterion: with one shard, the group engine
/// is **bit-identical** to the plain `MultiPaxos` layer — same seeds ⇒
/// same `WorkloadSummary`, closed- and open-loop, stable and chaotic,
/// and across a crash + restart of the anchored leader mid-drive — and,
/// observed, the same typed trace record for record (both hosts tag shard
/// 0 alike) and the same metric snapshot series (inside the summary).
/// (The simulator `Report`s differ only in the protocol name; every
/// timing-derived number is compared through the summary.)
#[test]
fn log_group_s1_bit_identical_to_multipaxos() {
    for seed in [1u64, 5, 9] {
        let cfg = || {
            SimConfig::builder(3)
                .seed(seed)
                .stability_at_millis(100)
                .pre_stability(PreStability::chaos())
                .build()
                .unwrap()
        };
        let spec = ClosedLoopSpec::new(3, 2, COMMANDS).seed(seed).key_space(64);
        let plain = sim_driver::run_closed_loop(
            cfg(),
            MultiPaxos::new().with_batching(4, 2),
            &spec,
            SimTime::from_millis(400),
            SimTime::from_secs(60),
        );
        let grouped = sim_driver::run_closed_loop(
            cfg(),
            LogGroup::new(1).with_batching(4, 2),
            &spec,
            SimTime::from_millis(400),
            SimTime::from_secs(60),
        );
        let churn_plain = crash_the_anchored_leader_mid_drive(seed, MultiPaxos::new().with_batching(2, 4));
        let churn_grouped = crash_the_anchored_leader_mid_drive(seed, LogGroup::new(1).with_batching(2, 4));
        let seen_plain = observed_closed_loop(cfg(), MultiPaxos::new().with_batching(4, 2), &spec);
        let seen_grouped = observed_closed_loop(cfg(), LogGroup::new(1).with_batching(4, 2), &spec);
        assert!(seen_plain.trace.len() > 500, "seed {seed}: the observed run is traced");
        assert!(seen_plain.summary.health.is_some(), "seed {seed}: … and metered");
        for (case, plain, grouped) in [
            ("pre-TS chaos", plain, grouped),
            ("leader crash + restart", churn_plain, churn_grouped),
            ("pre-TS chaos, traced + metered", seen_plain, seen_grouped),
        ] {
            assert_eq!(
                plain.trace, grouped.trace,
                "seed {seed}, {case}: typed traces differ"
            );
            assert_eq!(
                plain.summary, grouped.summary,
                "seed {seed}, {case}: S=1 group diverged from the plain log"
            );
            assert_eq!(plain.end, grouped.end, "seed {seed}, {case}: end instants differ");
            assert_eq!(
                plain.report.events, grouped.report.events,
                "seed {seed}, {case}: event counts differ"
            );
            assert_eq!(
                plain.report.msgs_by_kind, grouped.report.msgs_by_kind,
                "seed {seed}, {case}: per-kind message counts differ"
            );
        }
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
    assert!(out.log_agreement, "per-shard slot agreement across replicas");
    assert_eq!(out.summary.per_shard.len(), 4);
    assert_eq!(
        out.summary.per_shard.iter().map(|s| s.committed).sum::<u64>(),
        COMMANDS,
        "shard split partitions the commits"
    );
}

#[test]
fn sharded_closed_loop_smoke_over_threaded_runtime() {
    let cfg = esync::runtime::ClusterConfig::new(3)
        .delta(Duration::from_millis(5))
        .seed(6);
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
        out.summary.per_shard.iter().map(|s| s.committed).collect::<Vec<_>>()
    );
    assert_eq!(
        out.summary.per_shard.iter().map(|s| s.committed).sum::<u64>(),
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
