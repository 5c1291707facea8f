//! Tier-1 metrics smoke (ISSUE 10): the contracts the always-on metrics
//! registry and its online watchdogs must never break.
//!
//! 1. **Determinism** — same seed ⇒ identical snapshot series and
//!    firings on the simulator backend (down to `HEALTH_*.jsonl` bytes).
//! 2. **Noop bit-identity** — metering disabled is behaviorally inert:
//!    the summary, events and message counts reproduce the unmetered run
//!    seed-for-seed on the simulator, and the threaded runtime's
//!    deterministic outcomes (command set, commit counts) are unchanged
//!    by enabling collection.
//!    Counters are tracing-invariant too: metered and metered + traced
//!    runs end with the same registry.
//! 4. **Counters and traces agree** — each milestone is one
//!    `Outbox::event` call, so every snapshot's counter of a kind equals
//!    the number of that kind's trace records stamped at or before it,
//!    on both backends, and a traced run's records do not depend on
//!    metering.
//! 3. **Watchdog precision** — a stable run trips nothing (the live
//!    `TS + ε + 3τ + 5δ` bound monitor included); each injected
//!    violation fires its watchdog: a tight bound fires exactly once per
//!    first decision on both backends, and crashing the anchored leader mid-drive trips
//!    both the anchor-churn and stall detectors.

use esync::core::metrics::{Metric, METRIC_COUNT};
use esync::core::outbox::Process;
use esync::core::paxos::group::rebalance::RebalanceConfig;
use esync::core::paxos::group::{LogGroup, ShardRouter};
use esync::core::paxos::multi::MultiPaxos;
use esync::core::paxos::session::SessionPaxos;
use esync::core::time::RealDuration;
use esync::core::types::ProcessId;
use esync::metrics::{BoundSpec, HealthSummary, MetricsSnapshot, WatchdogConfig, WatchdogKind};
use esync::sim::{PreStability, SimConfig, SimTime, World};
use esync::trace::TraceRecord;
use esync::workload::gen::{ClosedLoopSpec, KeyDist};
use esync::workload::{rt_driver, sim_driver};
use std::time::Duration;

const COMMANDS: u64 = 24;
const INTERVAL: RealDuration = RealDuration::from_millis(50);

fn sim_cfg(seed: u64) -> SimConfig {
    SimConfig::builder(3)
        .seed(seed)
        .stability_at_millis(0)
        .pre_stability(PreStability::lossless())
        .build()
        .unwrap()
}

fn metered_outcome(seed: u64) -> sim_driver::SimWorkloadOutcome {
    let spec = ClosedLoopSpec::new(3, 2, COMMANDS).seed(seed);
    sim_driver::run_closed_loop_metered(
        sim_cfg(seed),
        MultiPaxos::new(),
        &spec,
        SimTime::from_millis(500),
        SimTime::from_secs(60),
        INTERVAL,
        WatchdogConfig::default(),
    )
}

#[test]
fn same_seed_gives_identical_snapshot_series() {
    let a = metered_outcome(5);
    let b = metered_outcome(5);
    let ha = a
        .summary
        .health
        .clone()
        .expect("metered run attaches health");
    let hb = b
        .summary
        .health
        .clone()
        .expect("metered run attaches health");
    assert!(!ha.snapshots.is_empty(), "cadence produced samples");
    assert_eq!(ha, hb, "same seed must sample identically");
    // Down to the artifact bytes.
    let meta = esync::metrics::HealthMeta {
        exp: "metrics_smoke".to_string(),
        seed: 5,
        n: 3,
        interval_ns: INTERVAL.as_nanos(),
        backend: "sim".to_string(),
    };
    assert_eq!(
        esync::metrics::write_health_jsonl(&meta, &ha.snapshots, &ha.firings),
        esync::metrics::write_health_jsonl(&meta, &hb.snapshots, &hb.firings),
    );
    // And the series is not trivially constant: a different seed diverges.
    let hc = metered_outcome(6).summary.health.expect("health attached");
    assert_ne!(
        ha.snapshots, hc.snapshots,
        "different seed, different series"
    );
}

#[test]
fn noop_metering_is_bit_identical_on_the_simulator() {
    // Workload drive: disabled metering reproduces summary + report
    // (events, msgs_by_kind) seed-for-seed; enabled metering only adds
    // the health field.
    let spec = ClosedLoopSpec::new(3, 2, COMMANDS).seed(5);
    let plain = sim_driver::run_closed_loop(
        sim_cfg(5),
        MultiPaxos::new(),
        &spec,
        SimTime::from_millis(500),
        SimTime::from_secs(60),
    );
    let metered = metered_outcome(5);
    assert!(plain.summary.health.is_none());
    let mut stripped = metered.summary.clone();
    stripped.health = None;
    assert_eq!(stripped, plain.summary, "summary is metering-invariant");
    assert_eq!(
        metered.report, plain.report,
        "events + msgs_by_kind identical"
    );
    assert_eq!(metered.end, plain.end);

    // Single-shot world: same invariant on the session protocol.
    let run = |metered: bool| {
        let mut w = World::new(sim_cfg(9), SessionPaxos::new());
        if metered {
            w.enable_metrics(INTERVAL, WatchdogConfig::default());
        }
        w.run_to_completion().expect("decides")
    };
    assert_eq!(
        run(false),
        run(true),
        "single-shot report is metering-invariant"
    );
}

/// Counters do not depend on tracing: the same seeded log run, metered
/// only and metered + traced, ends with the same registry. A counter
/// bumped inside a tracing gate reads 0 in every metered, untraced run —
/// hence the floor on `proposed`.
#[test]
fn counters_are_the_same_with_and_without_tracing() {
    let run = |traced: bool| {
        let mut world = World::new(sim_cfg(5), MultiPaxos::new());
        world.enable_metrics(INTERVAL, WatchdogConfig::default());
        if traced {
            world.enable_typed_trace(1 << 16);
        }
        world.run_until(SimTime::from_millis(500));
        let spec = ClosedLoopSpec::new(3, 2, COMMANDS).seed(5);
        let out = sim_driver::run_closed_loop_on(&mut world, &spec, SimTime::from_secs(60));
        // Past the next cadence boundary, so the last sample covers the
        // whole drive.
        world.run_until(world.now() + INTERVAL * 2);
        let last = world.metric_snapshots().last().expect("sampled");
        (out.summary.committed, last.counters)
    };
    let (committed, metered) = run(false);
    let (_, metered_and_traced) = run(true);
    assert_eq!(metered, metered_and_traced, "tracing moved a counter");
    let proposed = metered[Metric::Proposed as usize];
    assert!(
        proposed >= committed && committed > 0,
        "{committed} commands committed but only {proposed} proposals counted"
    );
}

#[test]
fn noop_metering_preserves_runtime_outcomes() {
    // The threaded backend is wall-clock timed, so snapshot *contents*
    // are not reproducible — but the deterministic outcomes (which
    // commands exist, that all commit everywhere) must be identical with
    // collection on, and the metered run must actually sample per node.
    let run = |metered: bool| {
        let mut cfg = esync::runtime::ClusterConfig::new(3).seed(7);
        if metered {
            cfg = cfg.metrics(Duration::from_millis(20));
        }
        let spec = ClosedLoopSpec::new(3, 2, COMMANDS).seed(7);
        rt_driver::run_closed_loop(
            cfg,
            MultiPaxos::new().with_batching(4, 2),
            &spec,
            Duration::from_millis(300),
            Duration::from_secs(30),
        )
        .expect("threaded workload completes")
    };
    let plain = run(false);
    let metered = run(true);
    assert!(plain.summary.health.is_none());
    assert_eq!(plain.summary.committed, COMMANDS);
    assert_eq!(metered.summary.committed, COMMANDS);
    assert_eq!(
        metered.applied_per_node, plain.applied_per_node,
        "same deterministic command set on both runs"
    );
    let health = metered.summary.health.expect("runtime collection works");
    assert_eq!(health.interval_ns, 20_000_000);
    assert!(!health.snapshots.is_empty());
    for pid in 0..3u32 {
        assert!(
            health.snapshots.iter().any(|s| s.node == Some(pid)),
            "node {pid} must ship its own snapshot stream"
        );
    }
    assert_eq!(health.trace_dropped, 0, "no trace collector, no drops");
}

/// The exp_e1 shape (silent pre-`TS`, single-shot session Paxos) with
/// the real paper bound armed: the run must decide and trip **nothing**
/// — zero bound violations, zero churn/stall/imbalance.
#[test]
fn stable_run_trips_no_watchdogs_under_the_live_bound() {
    let cfg = SimConfig::builder(5)
        .seed(42)
        .stability_at_millis(300)
        .pre_stability(PreStability::silent())
        .build()
        .unwrap();
    // The same deadline the offline `inspect` replays: ε admission
    // slack on top of the analytic ε + 3τ + 5δ.
    let bound = BoundSpec {
        ts_ns: cfg.ts.as_nanos(),
        bound_ns: (cfg.timing.decision_bound() + cfg.timing.epsilon()).as_nanos(),
    };
    let mut w = World::new(cfg, SessionPaxos::new());
    w.enable_metrics(
        INTERVAL,
        WatchdogConfig {
            bound: Some(bound),
            ..WatchdogConfig::default()
        },
    );
    let report = w.run_to_completion().expect("decides");
    assert!(report.agreement() && report.validity());
    assert!(!w.metric_snapshots().is_empty(), "cadence produced samples");
    assert_eq!(
        w.watchdog_firings(),
        &[],
        "a stable run must be clean under the live bound"
    );
}

/// Injected bound violation: a 1ns deadline makes every process's first
/// decision late, and the monitor must fire **exactly once per
/// decision** — n processes, n firings, no repeats from re-decides.
#[test]
fn tight_bound_fires_exactly_once_per_first_decision() {
    let n = 5;
    let cfg = SimConfig::builder(n)
        .seed(42)
        .stability_at_millis(0)
        .pre_stability(PreStability::lossless())
        .build()
        .unwrap();
    let mut w = World::new(cfg, SessionPaxos::new());
    w.enable_metrics(
        INTERVAL,
        WatchdogConfig {
            bound: Some(BoundSpec {
                ts_ns: 0,
                bound_ns: 1,
            }),
            ..WatchdogConfig::default()
        },
    );
    let report = w.run_to_completion().expect("decides");
    let deciders = report.decided_at.iter().filter(|d| d.is_some()).count();
    assert_eq!(deciders, n, "every process decides");
    let bound_firings: Vec<_> = w
        .watchdog_firings()
        .iter()
        .filter(|f| f.kind == WatchdogKind::Bound)
        .collect();
    assert_eq!(
        bound_firings.len(),
        n,
        "exactly one firing per first decision"
    );
    for f in &bound_firings {
        assert!(f.value > 0, "lateness is the firing's value");
    }
}

/// The same injected violation on the threaded backend: each node judges
/// its own first decision against the live bound, so every node ships
/// exactly one `Bound` firing, tagged with its pid.
#[test]
fn tight_bound_fires_exactly_once_per_node_on_the_runtime() {
    const N: u32 = 3;
    let cfg = esync::runtime::ClusterConfig::new(N as usize)
        .seed(7)
        .metrics(Duration::from_millis(20))
        .watchdogs(WatchdogConfig {
            bound: Some(BoundSpec {
                ts_ns: 0,
                bound_ns: 1,
            }),
            ..WatchdogConfig::default()
        });
    let cluster = esync::runtime::Cluster::spawn(cfg, SessionPaxos::new()).unwrap();
    let decisions = cluster
        .await_decisions(Duration::from_secs(30))
        .expect("every node decides");
    assert_eq!(decisions.len(), N as usize);
    let stats = cluster.shutdown_stats();
    assert_eq!(stats.len(), N as usize);
    for (pid, node) in (0..N).zip(&stats) {
        assert_eq!(node.pid, ProcessId::new(pid));
        let bound: Vec<_> = node
            .firings
            .iter()
            .filter(|f| f.kind == WatchdogKind::Bound)
            .collect();
        assert_eq!(bound.len(), 1, "node {pid}: one firing per first decision");
        assert_eq!(bound[0].node, Some(pid));
        assert!(bound[0].value > 0, "lateness is the firing's value");
    }
}

/// Injected churn + stall: crash the anchored leader, then keep
/// submitting against a live follower. The follower forwards to a dead
/// anchor — live traffic with zero progress, which must trip the stall
/// detector window after window until the re-election recovers the
/// cluster, which in turn must surface as exactly one anchor-churn
/// firing. The held commands then commit under the new anchor.
#[test]
fn crashing_the_anchor_trips_churn_and_stall() {
    const N: usize = 3;
    let run = || {
        let cfg = SimConfig::builder(N)
            .seed(11)
            .stability_at_millis(0)
            .pre_stability(PreStability::lossless())
            .max_time(SimTime::from_secs(300))
            .build()
            .unwrap();
        let mut world = World::new(cfg, MultiPaxos::new());
        world.enable_metrics(INTERVAL, WatchdogConfig::default());

        // Warm up until some process anchors as leader.
        let warmup_limit = SimTime::from_secs(5);
        while world.now() < warmup_limit
            && !(0..N).any(|i| world.process(ProcessId::new(i as u32)).is_leader())
        {
            assert!(world.step(), "quiescent before any leader anchored");
        }
        let leader = (0..N as u32)
            .map(ProcessId::new)
            .find(|p| world.process(*p).is_leader())
            .expect("a leader anchored during warmup");
        let follower = (0..N as u32)
            .map(ProcessId::new)
            .find(|p| *p != leader)
            .expect("n >= 2");

        // Crash the anchor; no restart — recovery must be a re-election.
        world.inject_crash(world.now() + RealDuration::from_millis(1), leader);
        world.run_until(world.now() + RealDuration::from_millis(5));
        assert_eq!(world.report().crashes[leader.as_usize()].len(), 1);

        // Submissions against the dead anchor: the follower accepts and
        // forwards them into the void. Live traffic, zero progress.
        for i in 0..4u64 {
            world.submit(world.now(), follower, (0xDEAD_0000 + i).into());
        }
        // Ride out several snapshot windows: the stalled ones, the
        // re-election, and the recovery commits under the new anchor.
        world.run_until(world.now() + RealDuration::from_millis(400));
        assert!(
            world.commits().len() >= 4,
            "held commands must commit after the re-election"
        );
        let firings = world.watchdog_firings().to_vec();
        (firings, leader)
    };

    let (firings, leader) = run();
    let count = |kind| {
        firings
            .iter()
            .filter(|f: &&esync::metrics::WatchdogFiring| f.kind == kind)
            .count()
    };
    assert!(
        count(WatchdogKind::Stall) >= 1,
        "forwards into a dead anchor must surface as a stall: {firings:?}"
    );
    assert_eq!(
        count(WatchdogKind::AnchorChurn),
        1,
        "one crash, one re-election, one churn firing: {firings:?}"
    );
    let churn = firings
        .iter()
        .find(|f| f.kind == WatchdogKind::AnchorChurn)
        .expect("counted above");
    assert_eq!(churn.value, 1, "exactly one re-election inside the window");
    assert_eq!(count(WatchdogKind::Bound), 0, "no bound spec armed");
    // The detectors are deterministic alarms, not noise: the exact same
    // injection reproduces the exact same firing list.
    let (again, leader2) = run();
    assert_eq!(leader2, leader);
    assert_eq!(again, firings, "watchdog firings are deterministic");
}

/// Per kind, the records of `trace` stamped at or before `at_ns`, in
/// [`Metric::ALL`] order.
fn trace_counts<'a>(
    trace: impl IntoIterator<Item = &'a TraceRecord>,
    at_ns: u64,
) -> [u64; METRIC_COUNT] {
    let mut counts = [0; METRIC_COUNT];
    for r in trace.into_iter().filter(|r| r.at_ns <= at_ns) {
        counts[r.ev.metric() as usize] += 1;
    }
    counts
}

/// Asserts that `snap` counted every protocol-fed kind exactly as often
/// as `trace` recorded it up to the snapshot's instant.
fn assert_snapshot_matches<'a>(
    snap: &MetricsSnapshot,
    trace: impl IntoIterator<Item = &'a TraceRecord>,
    drive: &str,
) {
    let traced = trace_counts(trace, snap.at_ns);
    for m in Metric::ALL
        .into_iter()
        .filter(|m| *m != Metric::TraceDropped)
    {
        assert_eq!(
            snap.counter(m),
            traced[m as usize],
            "{drive}: `{}` counted {} times but traced {} times by {} ns (node {:?})",
            m.name(),
            snap.counter(m),
            traced[m as usize],
            snap.at_ns,
            snap.node,
        );
    }
}

/// The simulator half of the agreement check: nothing was dropped, every
/// cluster-wide snapshot agrees with the trace, and each of `must` was
/// actually exercised by the drive.
fn assert_sim_agreement(
    drive: &str,
    trace: &[TraceRecord],
    health: &HealthSummary,
    must: &[Metric],
) {
    assert_eq!(
        health.trace_dropped, 0,
        "{drive}: the ring must hold the run"
    );
    assert!(health.snapshots.len() >= 2, "{drive}: too few snapshots");
    for snap in &health.snapshots {
        assert_snapshot_matches(snap, trace, drive);
    }
    let totals = trace_counts(trace, u64::MAX);
    for m in must {
        assert!(
            totals[*m as usize] > 0,
            "{drive}: no `{}` event, so its agreement is vacuous",
            m.name()
        );
    }
}

const TRACE_CAP: usize = 1 << 18;

/// Off the snapshot cadence: `run_until` samples a boundary equal to its
/// horizon before returning, so commands the drive then submits at that
/// very instant would land after a snapshot stamped with it.
const WARMUP: SimTime = SimTime::from_millis(520);

/// Single-shot session Paxos through a chaotic pre-`TS` phase at n = 5:
/// the §4 milestones, re-sent 1a's included. The same run traced but
/// unmetered must record the very same events — buffering does not
/// depend on the metering gate.
#[test]
fn counters_match_traces_for_session_paxos_under_chaos() {
    let run = |metered: bool| {
        let cfg = SimConfig::builder(5)
            .seed(21)
            .stability_at_millis(300)
            .pre_stability(PreStability::chaos())
            .build()
            .unwrap();
        let mut w = World::new(cfg, SessionPaxos::new());
        w.enable_typed_trace(TRACE_CAP);
        if metered {
            w.enable_metrics(INTERVAL, WatchdogConfig::default());
        }
        let report = w.run_to_completion().expect("decides");
        assert!(report.agreement());
        w.take_observation()
    };
    let (trace, health) = run(true);
    assert_sim_agreement(
        "session chaos",
        &trace,
        &health.expect("metered"),
        &[
            Metric::OneASent,
            Metric::PromiseQuorum,
            Metric::Proposed,
            Metric::Decided,
        ],
    );
    let (unmetered, _) = run(false);
    assert_eq!(unmetered, trace, "metering moved the trace");
}

/// The log in a closed loop whose anchored leader crashes mid-drive and
/// restarts later: election, forwarding into the void, re-forwarding
/// and the restarted leader's unanchor all count and trace alike.
#[test]
fn counters_match_traces_for_a_log_losing_its_anchor() {
    const N: usize = 3;
    let cfg = SimConfig::builder(N)
        .seed(13)
        .stability_at_millis(0)
        .pre_stability(PreStability::lossless())
        .max_time(SimTime::from_secs(300))
        .build()
        .unwrap();
    let mut world = World::new(cfg, MultiPaxos::new());
    world.enable_typed_trace(TRACE_CAP);
    world.enable_metrics(INTERVAL, WatchdogConfig::default());
    world.run_until(WARMUP);
    let leader = (0..N as u32)
        .map(ProcessId::new)
        .find(|p| world.process(*p).is_leader())
        .expect("a leader anchored during warmup");
    let followers: Vec<ProcessId> = (0..N as u32)
        .map(ProcessId::new)
        .filter(|p| *p != leader)
        .collect();
    world.inject_crash(world.now() + RealDuration::from_millis(30), leader);
    world.inject_restart(world.now() + RealDuration::from_millis(150), leader);
    let spec = ClosedLoopSpec::new(2, 2, 60).seed(13).targets(followers);
    let out = sim_driver::run_closed_loop_on(&mut world, &spec, SimTime::from_secs(200));
    assert_eq!(out.summary.committed, 60, "every command commits");
    assert_eq!(world.report().crashes[leader.as_usize()].len(), 1);
    assert_sim_agreement(
        "log failover",
        &out.trace,
        &out.summary.health.expect("metered"),
        &[
            Metric::OneASent,
            Metric::PromiseQuorum,
            Metric::Anchored,
            Metric::Unanchored,
            Metric::Submitted,
            Metric::Forwarded,
            Metric::Admitted,
            Metric::Proposed,
            Metric::Chosen,
            Metric::Decided,
        ],
    );
}

/// A range-routed, rebalancing log group under a hotspot: the rebalance
/// protocol's milestones and the retry replies join the command
/// journey.
#[test]
fn counters_match_traces_for_a_rebalancing_group() {
    let cfg = SimConfig::builder(3)
        .seed(53)
        .stability_at_millis(0)
        .pre_stability(PreStability::lossless())
        .max_time(SimTime::from_secs(600))
        .build()
        .unwrap();
    let proto = LogGroup::new(3)
        .with_batching(1, 4)
        .with_router(ShardRouter::Range(vec![341, 682]))
        .with_rebalancing(RebalanceConfig::default().check_every(64));
    let spec = ClosedLoopSpec::new(3, 8, 200)
        .seed(8)
        .key_space(1 << 10)
        .dist(KeyDist::Hotspot {
            frac: 0.9,
            span: 64,
        });
    let mut world = World::new(cfg, proto);
    world.enable_typed_trace(TRACE_CAP);
    world.enable_metrics(INTERVAL, WatchdogConfig::default());
    world.run_until(WARMUP);
    let out = sim_driver::run_closed_loop_on(&mut world, &spec, SimTime::from_secs(300));
    assert_eq!(out.summary.committed, 200);
    assert_sim_agreement(
        "rebalancing group",
        &out.trace,
        &out.summary.health.expect("metered"),
        &[
            Metric::Submitted,
            Metric::Forwarded,
            Metric::Admitted,
            Metric::Proposed,
            Metric::Chosen,
            Metric::Decided,
            Metric::Replied,
            Metric::RebalanceFreeze,
            Metric::RebalanceDrain,
            Metric::RebalanceCommit,
            Metric::RebalanceReforward,
        ],
    );
}

/// The threaded backend: each node's exit snapshot holds its totals, and
/// they must equal the node's own trace, kind by kind.
#[test]
fn counters_match_traces_per_node_on_the_runtime() {
    const N: u32 = 3;
    let cfg = esync::runtime::ClusterConfig::new(N as usize)
        .seed(7)
        .tracing(TRACE_CAP)
        .metrics(Duration::from_millis(20));
    let spec = ClosedLoopSpec::new(3, 2, COMMANDS).seed(7);
    let out = rt_driver::run_closed_loop(
        cfg,
        MultiPaxos::new().with_batching(4, 2),
        &spec,
        Duration::from_millis(300),
        Duration::from_secs(30),
    )
    .expect("threaded workload completes");
    assert_eq!(out.summary.committed, COMMANDS);
    let health = out.summary.health.expect("metered");
    assert_eq!(health.trace_dropped, 0, "the rings must hold the run");
    for pid in 0..N {
        let exit = health
            .snapshots
            .iter()
            .filter(|s| s.node == Some(pid))
            .max_by_key(|s| s.at_ns)
            .expect("every node ships an exit snapshot");
        let own = out.trace.iter().filter(|r| r.pid == ProcessId::new(pid));
        assert_snapshot_matches(exit, own.clone(), "runtime");
        let totals = trace_counts(own, u64::MAX);
        for m in [Metric::OneASent, Metric::Admitted, Metric::Decided] {
            assert!(
                totals[m as usize] > 0,
                "node {pid}: no `{}` event",
                m.name()
            );
        }
    }
}
