//! W4 — group-level session sharing: idle-period traffic is independent
//! of the shard count.
//!
//! The paper's §4 trick runs phase 1 "in advance" so stable-period
//! decisions cost one 2a/2b round trip; the log group applies it **across
//! shards** — one ballot, one session timer and one ε-retransmission
//! stream anchor all `S` shards of a process at once (`GroupMsg::G1a` /
//! `G1b` with a `GroupPromise` payload). A per-shard-session design pays
//! `S×` that idle traffic. This experiment measures, per `S ∈ {1, 2, 4,
//! 8}` at fixed `n`:
//!
//! * **Idle message rate**: messages/sec over a 2-second window in which
//!   the group is anchored and no client traffic flows — pure session
//!   upkeep (ε 1a re-announcements and their 1b promise replies).
//! * **Loaded sanity**: a short closed-loop drive (every command must
//!   commit, logs must agree) so the artifact also witnesses the shared
//!   session under load.
//! * **Re-anchor latency**: the anchored group leader is crashed and the
//!   time until another process anchors is measured — with the shared
//!   session this is ONE re-election regardless of `S`.
//!
//! Asserted headline: the idle message rate at `S = 8` stays within 2×
//! of `S = 1` (a per-shard-session design sits at ~8×), and every drive
//! commits 100% with per-shard log agreement.
//!
//! Deterministic per seed: reruns reproduce
//! `BENCH_exp_w4_session_sharing.json` bit-for-bit (modulo `wall_secs`).

use esync_bench::{ExperimentArtifact, SweepSummary, Table};
use esync_core::paxos::group::LogGroup;
use esync_core::types::ProcessId;
use esync_sim::{PreStability, SimConfig, SimTime};
use esync_workload::gen::ClosedLoopSpec;
use esync_workload::sim_driver::run_closed_loop_on;
use std::time::Instant;

const N: usize = 5;
/// Per-shard pipeline window for the loaded phase.
const WINDOW: usize = 4;
const BATCH: usize = 1;
const OUTSTANDING: usize = 8;
const COMMANDS: u64 = 300;
const KEYS: u64 = 1 << 10;
/// The idle window: `[IDLE_FROM, IDLE_TO]`, long after anchoring.
const IDLE_FROM: SimTime = SimTime::from_millis(500);
const IDLE_TO: SimTime = SimTime::from_millis(2_500);

fn anchored_leader<P>(world: &esync_sim::World<P>) -> Option<ProcessId>
where
    P: esync_core::outbox::Protocol,
{
    (0..N as u32)
        .map(ProcessId::new)
        .find(|p| esync_core::outbox::Process::is_leader(world.process(*p)))
}

fn main() {
    let mut artifact = ExperimentArtifact::new(
        "exp_w4_session_sharing",
        "group-level shared session: idle-period message rate is independent of the shard count (asserted within 2x of S=1 at S=8), and killing the one group anchor costs one re-election",
    );
    let mut table = Table::new(
        &format!(
            "W4: session sharing (n={N}, idle window {}ms, then closed loop B={BATCH} W={WINDOW} {COMMANDS} commands, then leader crash)",
            (IDLE_TO.as_nanos() - IDLE_FROM.as_nanos()) / 1_000_000
        ),
        &["S", "idle msgs/s", "vs S=1", "idle 1a/s", "commits/s", "re-anchor"],
    );
    let mut baseline: Option<f64> = None; // S=1 idle messages/sec
    for &shards in &[1usize, 2, 4, 8] {
        let seed = 400 + shards as u64;
        let cfg = SimConfig::builder(N)
            .seed(seed)
            .stability_at_millis(0)
            .pre_stability(PreStability::lossless())
            .max_time(SimTime::from_secs(600))
            .build()
            .expect("valid config");
        let started = Instant::now();
        let mut world = esync_sim::World::new(
            cfg.clone(),
            LogGroup::new(shards).with_batching(BATCH, WINDOW),
        );

        // Phase A — idle upkeep: anchored, no client traffic.
        world.run_until(IDLE_FROM);
        assert!(
            anchored_leader(&world).is_some(),
            "S={shards}: no group leader anchored before the idle window"
        );
        let before = world.report();
        world.run_until(IDLE_TO);
        let after = world.report();
        let idle_secs = (IDLE_TO.as_nanos() - IDLE_FROM.as_nanos()) as f64 / 1e9;
        let idle_msgs_per_sec = (after.msgs_sent - before.msgs_sent) as f64 / idle_secs;
        let kind_rate = |kind: &str| {
            (after.msgs_by_kind.get(kind).copied().unwrap_or(0)
                - before.msgs_by_kind.get(kind).copied().unwrap_or(0)) as f64
                / idle_secs
        };
        let idle_1a_per_sec = kind_rate("1a");
        let idle_2a_per_sec = kind_rate("2a");

        // Phase B — loaded sanity: the shared session under a closed loop.
        let spec = ClosedLoopSpec::new(N, OUTSTANDING, COMMANDS)
            .seed(seed)
            .key_space(KEYS);
        let out = run_closed_loop_on(&mut world, &spec, SimTime::from_secs(300));
        assert!(out.log_agreement, "S={shards}: per-shard logs diverged");
        assert_eq!(
            out.summary.committed, COMMANDS,
            "S={shards}: not all commands committed under the shared session"
        );
        assert_eq!(
            out.summary.per_shard.len(),
            shards,
            "S={shards}: missing shard slices"
        );

        // Phase C — re-anchor latency: kill the ONE group anchor.
        let leader = anchored_leader(&world).expect("anchored after the drive");
        let crash_at = world.now() + esync_core::time::RealDuration::from_millis(1);
        world.inject_crash(crash_at, leader);
        let reanchor_deadline = crash_at + esync_core::time::RealDuration::from_secs(60);
        let new_leader = loop {
            assert!(
                world.now() < reanchor_deadline,
                "S={shards}: no re-election within 60s of the anchor crash"
            );
            assert!(
                world.step(),
                "S={shards}: world went quiescent mid-re-election"
            );
            if world.now() <= crash_at {
                continue;
            }
            if let Some(l) = (0..N as u32)
                .map(ProcessId::new)
                .filter(|p| *p != leader)
                .find(|p| esync_core::outbox::Process::is_leader(world.process(*p)))
            {
                break l;
            }
        };
        let reanchor_ms = (world.now().as_nanos() - crash_at.as_nanos()) as f64 / 1e6;
        let wall = started.elapsed();

        let speedup = baseline.map_or(1.0, |b| idle_msgs_per_sec / b);
        table.row_owned(vec![
            shards.to_string(),
            format!("{idle_msgs_per_sec:.0}"),
            format!("{speedup:.2}x"),
            format!("{idle_1a_per_sec:.0}"),
            format!("{:.0}", out.summary.commits_per_sec),
            format!("{reanchor_ms:.1}ms (p{})", new_leader.as_usize()),
        ]);
        match baseline {
            None => baseline = Some(idle_msgs_per_sec),
            Some(base) => {
                // The acceptance criterion: session sharing caps idle
                // traffic at ~1× the single-shard rate; 2× is the bound
                // (a per-shard-session design sits at S×).
                if shards >= 8 {
                    assert!(
                        idle_msgs_per_sec <= 2.0 * base,
                        "S={shards}: idle message rate ({idle_msgs_per_sec:.0}/s) exceeds \
                         2x the S=1 baseline ({base:.0}/s) — session sharing broken"
                    );
                }
            }
        }
        artifact.push(
            SweepSummary::from_reports(
                &format!("n={N} shards={shards} batch={BATCH} window={WINDOW}"),
                Some(cfg),
                std::slice::from_ref(&out.report),
                1,
                wall,
            )
            .with_workload(out.summary.clone())
            .with_extra("shards", shards as f64)
            .with_extra("idle_msgs_per_sec", idle_msgs_per_sec)
            .with_extra("idle_1a_per_sec", idle_1a_per_sec)
            .with_extra("idle_2a_per_sec", idle_2a_per_sec)
            .with_extra("idle_rate_vs_s1", speedup)
            .with_extra("commits_per_sec", out.summary.commits_per_sec)
            .with_extra("reanchor_ms", reanchor_ms),
        );
    }
    println!("{}", table.render());
    println!(
        "one group-level session (one ballot, one timer, one 1a/1b exchange) \
         anchors all S shards: idle-period message rate stays flat in S \
         (asserted within 2x of S=1 at S=8; a per-shard-session design pays S×), \
         and killing the one group anchor costs one re-election."
    );
    artifact.write();
}
