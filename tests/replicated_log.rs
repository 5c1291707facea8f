//! The multi-instance layer (replicated log): phase 1 runs once, commands
//! commit with a single 2a/2b exchange — §4 "Reducing Message Complexity".

use esync_core::paxos::multi::MultiPaxos;
use esync_core::types::{ProcessId, ShardId, Value};
use esync_sim::{PreStability, Scenario, SimConfig, SimTime, World};

fn run_log(
    n: usize,
    seed: u64,
    submits: Vec<(ProcessId, SimTime, Value)>,
    horizon: SimTime,
) -> World<MultiPaxos> {
    let mut scenario = Scenario::none();
    for (pid, at, v) in submits {
        scenario = scenario.submit(pid, at, v);
    }
    let cfg = SimConfig::builder(n)
        .seed(seed)
        .stability_at_millis(0)
        .pre_stability(PreStability::lossless())
        .scenario(scenario)
        .build()
        .unwrap();
    let mut w = World::new(cfg, MultiPaxos::new());
    w.run_until(horizon);
    w
}

#[test]
fn commands_land_in_the_log_everywhere() {
    let n = 5;
    let submit_at = SimTime::from_millis(500); // long after anchoring
    let submits = vec![
        (ProcessId::new(0), submit_at, Value::new(1001)),
        (ProcessId::new(2), submit_at, Value::new(1002)),
        (
            ProcessId::new(4),
            submit_at + esync_core::time::RealDuration::from_millis(20),
            Value::new(1003),
        ),
    ];
    let w = run_log(n, 1, submits, SimTime::from_secs(2));
    // Every submitted command appears in every process's log.
    for pid in ProcessId::all(n) {
        let values: Vec<u64> = w
            .process(pid)
            .shard(ShardId::ZERO)
            .log_values()
            .map(|v| v.get())
            .collect();
        for expected in [1001, 1002, 1003] {
            assert!(
                values.contains(&expected),
                "{pid}: command {expected} missing from log {values:?}"
            );
        }
    }
}

#[test]
fn logs_agree_slot_by_slot() {
    let n = 5;
    let mut submits = Vec::new();
    for i in 0..10u64 {
        submits.push((
            ProcessId::new((i % n as u64) as u32),
            SimTime::from_millis(400 + 10 * i),
            Value::new(2000 + i),
        ));
    }
    let w = run_log(n, 2, submits, SimTime::from_secs(3));
    let reference = w
        .process(ProcessId::new(0))
        .shard(ShardId::ZERO)
        .log()
        .clone();
    assert!(!reference.is_empty());
    for pid in ProcessId::all(n) {
        let log = w.process(pid).shard(ShardId::ZERO).log();
        for (slot, batch) in log.iter() {
            assert_eq!(
                reference.get(slot),
                Some(batch),
                "{pid}: slot {slot} disagrees"
            );
        }
    }
}

#[test]
fn exactly_one_leader_anchors_in_the_stable_case() {
    let w = run_log(5, 3, vec![], SimTime::from_secs(1));
    let anchored: Vec<ProcessId> = ProcessId::all(5)
        .filter(|&p| w.process(p).is_anchored())
        .collect();
    assert_eq!(anchored.len(), 1, "anchored: {anchored:?}");
}

#[test]
fn commit_latency_is_a_few_message_delays_once_anchored() {
    // E7's claim in miniature: a command submitted directly to the anchored
    // leader commits everywhere within 3 message delays (2a out, 2b out,
    // counted at each process) plus scheduling slack.
    let n = 5;
    let probe = run_log(n, 4, vec![], SimTime::from_secs(1));
    let leader = ProcessId::all(n)
        .find(|&p| probe.process(p).is_anchored())
        .expect("anchored leader");

    let submit_at = SimTime::from_millis(1000);
    let w = run_log(
        n,
        4,
        vec![(leader, submit_at, Value::new(7777))],
        SimTime::from_millis(1100),
    );
    // With lossless delays ≤ δ = 10ms: 2a + 2b = 2δ to commit at every
    // process; allow 3δ for the submit event itself and jitter.
    for pid in ProcessId::all(n) {
        assert!(
            w.process(pid)
                .shard(ShardId::ZERO)
                .log_values()
                .any(|v| v.get() == 7777),
            "{pid}: command not committed within 3δ of submission"
        );
    }
}

#[test]
fn forwarded_commands_survive_non_leader_submission() {
    let n = 3;
    let probe = run_log(n, 5, vec![], SimTime::from_secs(1));
    let leader = ProcessId::all(n)
        .find(|&p| probe.process(p).is_anchored())
        .expect("anchored leader");
    let follower = ProcessId::all(n).find(|&p| p != leader).unwrap();
    let w = run_log(
        n,
        5,
        vec![(follower, SimTime::from_millis(1000), Value::new(4242))],
        SimTime::from_secs(2),
    );
    for pid in ProcessId::all(n) {
        assert!(
            w.process(pid)
                .shard(ShardId::ZERO)
                .log_values()
                .any(|v| v.get() == 4242),
            "{pid}: forwarded command missing"
        );
    }
}

#[test]
fn log_survives_chaotic_prestability() {
    let n = 5;
    let cfg = SimConfig::builder(n)
        .seed(6)
        .stability_at_millis(300)
        .pre_stability(PreStability::chaos())
        .scenario(
            Scenario::none()
                .submit(
                    ProcessId::new(1),
                    SimTime::from_millis(50),
                    Value::new(9001),
                )
                .submit(
                    ProcessId::new(2),
                    SimTime::from_millis(600),
                    Value::new(9002),
                ),
        )
        .build()
        .unwrap();
    let mut w = World::new(cfg, MultiPaxos::new());
    w.run_until(SimTime::from_secs(3));
    // The post-TS command must be everywhere; the pre-TS one may have been
    // lost in transit to a leader (at-least-once applies to delivery into
    // the log, not to lossy submission paths) — but logs must agree.
    let reference = w.process(ProcessId::new(0)).shard(ShardId::ZERO).log();
    for pid in ProcessId::all(n) {
        let shard = w.process(pid).shard(ShardId::ZERO);
        assert!(
            shard.log_values().any(|v| v.get() == 9002),
            "{pid}: post-TS command missing"
        );
        for (slot, batch) in shard.log().iter() {
            assert_eq!(reference.get(slot), Some(batch), "{pid}: slot {slot}");
        }
    }
}
