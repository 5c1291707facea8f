//! E7 — §4 "Reducing Message Complexity": "In ordinary Paxos, phase 1 is
//! executed in advance for all instances of the algorithm, and all
//! nonfaulty processes decide within 3 message delays when the system is
//! stable. … our modified version of Paxos can be made to have this same
//! behavior in the stable case."
//!
//! The multi-instance layer anchors one leader (phase 1 once, covering all
//! slots), then we submit commands and step the simulator until every
//! process has the command in its log, measuring commit latency in δ.
//! The shape to verify: ≤ 2δ when submitted at the leader (2a + 2b), ≤ 3δ
//! when submitted at a follower (forward + 2a + 2b). Inherently serial
//! (one long-lived world); the artifact records the per-path worst cases
//! in `BENCH_exp_e7_stable_case.json`.

use esync_bench::{ExperimentArtifact, SweepSummary, Table};
use esync_core::paxos::multi::MultiPaxos;
use esync_core::time::RealDuration;
use esync_core::types::{ProcessId, ShardId, Value};
use esync_sim::{PreStability, SimConfig, SimTime, World};
use std::time::Instant;

/// Steps until every process's log contains `value`; returns the commit
/// time (when the LAST process learns it).
fn commit_time(world: &mut World<MultiPaxos>, n: usize, value: Value) -> SimTime {
    loop {
        let all = ProcessId::all(n).all(|p| {
            world
                .process(p)
                .shard(ShardId::ZERO)
                .log_values()
                .any(|v| v == value)
        });
        if all {
            return world.now();
        }
        assert!(world.step(), "quiesced before commit");
        assert!(
            world.now() < SimTime::from_secs(30),
            "command did not commit"
        );
    }
}

fn main() {
    let n = 5;
    let delta = RealDuration::from_millis(10);
    let started = Instant::now();
    let cfg = SimConfig::builder(n)
        .seed(4)
        .stability_at_millis(0)
        .pre_stability(PreStability::lossless())
        .build()
        .expect("valid config");
    let artifact_cfg = cfg.clone();
    let mut world = World::new(cfg, MultiPaxos::new());
    // Let the system anchor a leader.
    world.run_until(SimTime::from_millis(500));
    let leader = ProcessId::all(n)
        .find(|&p| world.process(p).is_anchored())
        .expect("anchored leader");
    let follower = ProcessId::all(n).find(|&p| p != leader).unwrap();

    let mut table = Table::new(
        "E7: stable-case commit latency, multi-instance with phase 1 pre-executed (n=5)",
        &["submitted at", "command", "commit latency (all processes)"],
    );
    let mut worst_leader: f64 = 0.0;
    let mut worst_follower: f64 = 0.0;
    for i in 0..10u64 {
        let value = Value::new(10_000 + i);
        let (target, label) = if i % 2 == 0 {
            (leader, "leader")
        } else {
            (follower, "follower")
        };
        let submit_at = world.now() + RealDuration::from_millis(20);
        world.submit(submit_at, target, value);
        let committed = commit_time(&mut world, n, value);
        let latency = committed.since(submit_at).as_nanos() as f64 / delta.as_nanos() as f64;
        if label == "leader" {
            worst_leader = worst_leader.max(latency);
        } else {
            worst_follower = worst_follower.max(latency);
        }
        table.row_owned(vec![
            format!("{target} ({label})"),
            value.to_string(),
            format!("{latency:.2}δ"),
        ]);
    }
    println!("{}", table.render());
    println!("worst at leader: {worst_leader:.2}δ (2a+2b = 2 message delays)");
    println!("worst at follower: {worst_follower:.2}δ (forward+2a+2b = 3 message delays)");
    println!("paper: 3 message delays in the stable case, like ordinary Paxos.");
    assert!(worst_leader <= 2.05, "leader path exceeds 2δ");
    assert!(worst_follower <= 3.05, "follower path exceeds 3δ");

    let mut artifact = ExperimentArtifact::new(
        "exp_e7_stable_case",
        "anchored multi-instance commits in ≤3 message delays in the stable case",
    );
    let report = world.report();
    artifact.push(
        SweepSummary::from_reports(
            "anchored stable-case run",
            Some(artifact_cfg),
            std::slice::from_ref(&report),
            1,
            started.elapsed(),
        )
        .with_extra("worst_commit_latency_leader_delta", worst_leader)
        .with_extra("worst_commit_latency_follower_delta", worst_follower),
    );
    artifact.write();
}
