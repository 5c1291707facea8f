//! W5 — live shard rebalancing under skewed keys: static vs live range
//! routing.
//!
//! The shard-group engine's write scaling (W3) assumes the router
//! spreads load; under a hotspot the static `ShardRouter::Range`
//! collapses to one saturated shard. This experiment drives the same
//! closed loop through the same `S = 8` group twice per skew — once with
//! the static even split, once with live rebalancing
//! (`LogGroup::with_rebalancing`) — under two adversarial key
//! distributions:
//!
//! * `Hotspot{frac: 0.9, span: 64}` — 90% of keys in a span one shard
//!   owns entirely under the even split.
//! * `Shifting{period: 150}` — the hot span *moves* every 150 commands,
//!   so a one-shot split cannot help; only continuous rebalancing can.
//!
//! Asserted headline: under the pinned hotspot, live rebalancing reaches
//! **≥ 1.5×** the commits/sec of the static router (the acceptance
//! criterion; measured ≈ 3–5×), with ≥ 1 committed boundary move, 100%
//! completion, per-shard log agreement, and the schema-v5
//! `shard_imbalance` dropping from ≈ `S` toward 1.
//!
//! The trigger's hysteresis band (`RebalanceConfig::release`/`escape`)
//! damps sampling jitter without losing track of the moving span: vs the
//! old single-threshold trigger, boundary moves dropped **8 → 2**
//! (hotspot) and **33 → 19** (shifting) while shifting throughput
//! *rose* (2.55× → 2.93× static) — fewer migrations, less freeze/drain
//! churn. The `TRACE_*` rebalance events (`rb_freeze` → `rb_commit`)
//! make the damping visible per migration.
//!
//! Deterministic per seed: reruns reproduce
//! `BENCH_exp_w5_rebalance.json` bit-for-bit (modulo `wall_secs`).

use esync_bench::{ExperimentArtifact, SweepSummary, Table};
use esync_core::paxos::group::rebalance::RebalanceConfig;
use esync_core::paxos::group::{LogGroup, ShardRouter};
use esync_sim::scenario::KeyDist;
use esync_sim::{PreStability, SimConfig, SimTime};
use esync_workload::gen::ClosedLoopSpec;
use esync_workload::sim_driver::{run_closed_loop, SimWorkloadOutcome};
use std::time::Instant;

const N: usize = 5;
const SHARDS: usize = 8;
/// Per-shard pipeline window; B = 1 so routing is the only lever.
const WINDOW: usize = 4;
const BATCH: usize = 1;
const OUTSTANDING: usize = 16;
const COMMANDS: u64 = 1_200;
const KEYS: u64 = 1 << 10;

/// The static even split of the key space over 8 shards.
fn even_bounds() -> Vec<u64> {
    (1..SHARDS as u64)
        .map(|i| i * (KEYS / SHARDS as u64))
        .collect()
}

fn run(dist: KeyDist, seed: u64, live: bool) -> SimWorkloadOutcome {
    let cfg = SimConfig::builder(N)
        .seed(seed)
        .stability_at_millis(0)
        .pre_stability(PreStability::lossless())
        .build()
        .expect("valid config");
    let mut proto = LogGroup::new(SHARDS)
        .with_batching(BATCH, WINDOW)
        .with_router(ShardRouter::Range(even_bounds()));
    if live {
        proto = proto.with_rebalancing(RebalanceConfig::default().check_every(128));
    }
    let spec = ClosedLoopSpec::new(N, OUTSTANDING, COMMANDS)
        .seed(seed)
        .key_space(KEYS)
        .dist(dist);
    run_closed_loop(
        cfg,
        proto,
        &spec,
        SimTime::from_millis(500),
        SimTime::from_secs(600),
    )
}

fn main() {
    let mut artifact = ExperimentArtifact::new(
        "exp_w5_rebalance",
        "live shard rebalancing: under a pinned hotspot at S=8, load-aware range migration reaches >=1.5x the commits/sec of the static Range router (asserted; measured well above), with router-epoch bumps committed through the log and the schema-v5 shard_imbalance dropping toward 1",
    );
    let mut table = Table::new(
        &format!(
            "W5: static vs live range routing (n={N}, S={SHARDS}, B={BATCH}, W={WINDOW}/shard, {COMMANDS} commands, keys {KEYS})"
        ),
        &["skew", "router", "commits/s", "vs static", "imbalance", "moves", "dups"],
    );
    let cases: [(&str, KeyDist, u64); 2] = [
        (
            "hotspot",
            KeyDist::Hotspot {
                frac: 0.9,
                span: 64,
            },
            500,
        ),
        ("shifting", KeyDist::Shifting { period: 150 }, 520),
    ];
    for (name, dist, seed) in cases {
        let mut static_tput = None;
        for live in [false, true] {
            let started = Instant::now();
            let out = run(dist, seed, live);
            let wall = started.elapsed();
            let s = &out.summary;
            let router = if live { "live" } else { "static" };
            assert!(
                out.log_agreement,
                "{name}/{router}: per-shard logs diverged"
            );
            assert_eq!(
                s.committed, COMMANDS,
                "{name}/{router}: not all commands committed"
            );
            let moves = out.router_epochs.iter().copied().max().unwrap_or(0);
            if live {
                assert!(
                    moves >= 1,
                    "{name}/live: the skew must trigger at least one boundary move"
                );
            } else {
                assert_eq!(moves, 0, "{name}/static: no rebalancer, no moves");
            }
            let speedup = static_tput.map_or(1.0, |base: f64| s.commits_per_sec / base);
            table.row_owned(vec![
                name.to_string(),
                router.to_string(),
                format!("{:.0}", s.commits_per_sec),
                format!("{speedup:.2}x"),
                format!("{:.2}", s.shard_imbalance),
                moves.to_string(),
                s.duplicate_commits.to_string(),
            ]);
            if live {
                let base = static_tput.expect("static ran first");
                if name == "hotspot" {
                    // THE acceptance criterion.
                    assert!(
                        s.commits_per_sec >= 1.5 * base,
                        "hotspot: live routing ({:.0}/s) below 1.5x static ({base:.0}/s)",
                        s.commits_per_sec
                    );
                } else {
                    assert!(
                        s.commits_per_sec >= base,
                        "{name}: live routing ({:.0}/s) slower than static ({base:.0}/s)",
                        s.commits_per_sec
                    );
                }
            } else {
                static_tput = Some(s.commits_per_sec);
            }
            artifact.push(
                SweepSummary::from_reports(
                    &format!("n={N} shards={SHARDS} skew={name} router={router}"),
                    Some(
                        SimConfig::builder(N)
                            .seed(seed)
                            .stability_at_millis(0)
                            .pre_stability(PreStability::lossless())
                            .build()
                            .expect("valid config"),
                    ),
                    std::slice::from_ref(&out.report),
                    1,
                    wall,
                )
                .with_workload(out.summary.clone())
                .with_extra("live", if live { 1.0 } else { 0.0 })
                .with_extra("commits_per_sec", s.commits_per_sec)
                .with_extra("speedup_vs_static", speedup)
                .with_extra("shard_imbalance", s.shard_imbalance)
                .with_extra("boundary_moves", moves as f64)
                .with_extra("duplicate_commits", s.duplicate_commits as f64)
                .with_extra("p99_ms", s.latency.p99_ns as f64 / 1e6),
            );
        }
    }
    println!("{}", table.render());
    println!(
        "load-aware range migration keeps skewed workloads on the W3 scaling \
         curve: the pinned hotspot regains >=1.5x (asserted) over the static \
         router, and the shifting hotspot is served by continuous boundary \
         moves no static split could provide."
    );
    artifact.write();
}
