//! Tier-1 rebalance smoke: a short hotspot-skewed closed loop against a
//! live-rebalancing log group, on **both** backends — asserting that at
//! least one boundary move actually happens, that every command still
//! commits (100% completion across the migration), that duplicates stay
//! bounded, and (on the deterministic simulator, after quiescing) that
//! every process agrees on the router epoch. The full static-vs-live
//! comparison lives in `exp_w5_rebalance`; this is the fast always-on
//! guard that the key-handoff protocol stays wired end to end.

use esync::core::paxos::group::rebalance::{is_ctrl_value, RebalanceConfig};
use esync::core::paxos::group::{LogGroup, ShardRouter};
use esync::core::time::RealDuration;
use esync::core::types::ProcessId;
use esync::metrics::WatchdogConfig;
use esync::sim::{PreStability, SimConfig, SimTime, World};
use esync::workload::gen::{ClosedLoopSpec, KeyDist};
use esync::workload::{rt_driver, sim_driver};
use std::time::Duration;

const KEYS: u64 = 1 << 10;

/// One leadership change can re-propose at most the in-flight window;
/// a migration adds at most one frozen-buffer flush on top. Generous 2×
/// slack, per process.
fn dup_bound(clients: u64, outstanding: u64, n: u64) -> u64 {
    2 * clients * outstanding * n
}

#[test]
fn hotspot_migration_completes_on_the_simulator_with_epoch_agreement() {
    const N: usize = 3;
    const SHARDS: usize = 4;
    const COMMANDS: u64 = 240;
    let cfg = SimConfig::builder(N)
        .seed(51)
        .stability_at_millis(0)
        .pre_stability(PreStability::lossless())
        .max_time(SimTime::from_secs(600))
        .build()
        .unwrap();
    // Static even split of the key space; 90% of keys land in [0, 64) —
    // all of it shard 0 — until the rebalancer moves the boundaries.
    let proto = LogGroup::new(SHARDS)
        .with_batching(1, 4)
        .with_router(ShardRouter::Range(vec![256, 512, 768]))
        .with_rebalancing(RebalanceConfig::default().check_every(64));
    let spec = ClosedLoopSpec::new(N, 8, COMMANDS)
        .seed(7)
        .key_space(KEYS)
        .dist(KeyDist::Hotspot {
            frac: 0.9,
            span: 64,
        });
    let mut world = World::new(cfg, proto);
    world.run_until(SimTime::from_millis(500));
    let out = sim_driver::run_closed_loop_on(&mut world, &spec, SimTime::from_secs(300));

    assert_eq!(
        out.summary.committed, COMMANDS,
        "100% completion across the migration"
    );
    assert!(out.log_agreement, "per-shard logs agree across replicas");
    assert!(
        out.summary.duplicate_commits <= dup_bound(N as u64, 8, N as u64),
        "dup rate unbounded: {}",
        out.summary.duplicate_commits
    );
    assert!(
        out.router_epochs.iter().any(|e| *e >= 1),
        "the hotspot must trigger at least one boundary move: {:?}",
        out.router_epochs
    );
    // Load actually spread: the statically-hot shard no longer holds
    // (nearly) everything.
    let hot = out.summary.per_shard[0].committed;
    assert!(
        hot < COMMANDS * 3 / 4,
        "shard 0 still holds {hot} of {COMMANDS} commits after rebalancing"
    );
    // Per-shard load counters (schema v5) flowed through: admissions are
    // recorded wherever commits are.
    let admitted: u64 = out.summary.per_shard.iter().map(|s| s.admitted).sum();
    assert!(admitted >= COMMANDS, "per-shard admitted counters missing");

    // Quiesce: with no client traffic left, every committed control
    // entry reaches every process (ε repair + epoch re-announcement) and
    // the epochs converge.
    let quiet = world.now() + esync::core::time::RealDuration::from_millis(500);
    world.run_until(quiet);
    let epochs: Vec<u64> = (0..N as u32)
        .map(|p| world.process(ProcessId::new(p)).router_epoch())
        .collect();
    assert!(epochs[0] >= 1, "epoch advanced: {epochs:?}");
    assert!(
        epochs.windows(2).all(|w| w[0] == w[1]),
        "router epochs diverged after quiescing: {epochs:?}"
    );
}

/// The one write path of a shard no committed artifact covers at trace
/// level: a group with rebalancing **on** (control entry proposed, its
/// decides hidden, frozen commands re-admitted), traced and metered,
/// through one committed boundary move. The numbers were captured before
/// the shards wrote into their host's outbox directly; the record stream
/// (order, shard tags, stamps) and the counters must not move.
#[test]
fn traced_metered_rebalancing_run_is_pinned() {
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
        .key_space(KEYS)
        .dist(KeyDist::Hotspot {
            frac: 0.9,
            span: 64,
        });
    let mut world = World::new(cfg, proto);
    world.enable_typed_trace(1 << 16);
    world.enable_metrics(RealDuration::from_millis(50), WatchdogConfig::default());
    world.run_until(SimTime::from_millis(500));
    // Every commit record the drive reads, warmup's included.
    let mut ctrl_commits = 0;
    let out = sim_driver::run_closed_loop_tapped(&mut world, &spec, SimTime::from_secs(300), |c| {
        ctrl_commits += usize::from(is_ctrl_value(c.value));
    });

    assert_eq!(out.summary.committed, 200);
    assert_eq!(
        out.router_epochs,
        [1, 1, 1],
        "exactly one committed boundary move"
    );
    assert_eq!(ctrl_commits, 0, "control values never surface as commits");
    // FNV-1a over the JSONL form of every record, in order.
    let hash = out.trace.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, r| {
        esync::trace::jsonl::record_line(r)
            .bytes()
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    });
    let health = out.summary.health.expect("metered");
    let counters = health.snapshots.last().expect("sampled").counters;
    assert_eq!(
        (out.trace.len(), hash, counters),
        (
            4490,
            4_987_443_694_968_854_213,
            [688, 1, 1, 0, 282, 1291, 340, 259, 516, 524, 207, 1, 1, 3, 3, 0, 0]
        ),
    );
}

#[test]
fn hotspot_migration_completes_on_the_threaded_runtime() {
    const N: usize = 3;
    const COMMANDS: u64 = 150;
    let cfg = esync::runtime::ClusterConfig::new(N)
        .delta(Duration::from_millis(5))
        .seed(52);
    // At two shards the max/mean ratio tops out at 2.0, so the trigger
    // sits below it (a 90% hotspot reads ≈ 1.9).
    let proto = LogGroup::new(2)
        .with_batching(1, 4)
        .with_router(ShardRouter::Range(vec![512]))
        .with_rebalancing(RebalanceConfig::default().threshold(1.5).check_every(48));
    let spec = ClosedLoopSpec::new(N, 4, COMMANDS)
        .seed(9)
        .key_space(KEYS)
        .dist(KeyDist::Hotspot {
            frac: 0.9,
            span: 64,
        });
    let out = rt_driver::run_closed_loop(
        cfg,
        proto,
        &spec,
        Duration::from_millis(300),
        Duration::from_secs(60),
    )
    .expect("rebalancing workload completes over threads");

    assert_eq!(
        out.summary.committed, COMMANDS,
        "100% completion across the migration"
    );
    assert!(
        out.summary.duplicate_commits <= dup_bound(N as u64, 4, N as u64),
        "dup rate unbounded: {}",
        out.summary.duplicate_commits
    );
    let reference = &out.applied_per_node[0];
    assert_eq!(reference.len() as u64, COMMANDS);
    for (i, ids) in out.applied_per_node.iter().enumerate() {
        assert_eq!(ids, reference, "node {i} applied a different command set");
    }
    assert!(
        out.router_epochs.iter().any(|e| *e >= 1),
        "the hotspot must trigger at least one boundary move: {:?}",
        out.router_epochs
    );
    // Both shards ended up with real traffic.
    assert!(
        out.summary.per_shard.iter().all(|s| s.committed > 0),
        "rebalancing never spread the load: {:?}",
        out.summary
            .per_shard
            .iter()
            .map(|s| s.committed)
            .collect::<Vec<_>>()
    );
}
