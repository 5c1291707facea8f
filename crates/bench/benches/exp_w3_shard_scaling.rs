//! W3 — horizontal write scaling of the sharded log group.
//!
//! The paper's 2δ fast-path bound is per consensus instance, so post-GST
//! aggregate throughput should scale with the number of *independent*
//! instances: a closed-loop drive at fixed cluster size `n` against a
//! [`LogGroup`] of `S ∈ {1, 2, 4, 8}` shards, each shard an independent
//! `MultiPaxos` with its own anchored pipeline of `W = 4` unchosen slots
//! and one command per slot (`B = 1`, so the per-shard ceiling is
//! `W / RTT` and any lift must come from shard parallelism, not group
//! commit). Keys are uniform over 1024, routed `kv_key % S`.
//!
//! Asserted headline: `S = 4` sustains ≥ 2× the closed-loop commits/sec
//! of `S = 1`, and no shard's post-TS p99 exceeds ~2× the `S = 1`
//! baseline (shard-parallelism must not come at the cost of per-shard
//! tail latency — shorter queues should, if anything, improve it).
//!
//! Deterministic per seed: reruns reproduce
//! `BENCH_exp_w3_shard_scaling.json` bit-for-bit (modulo `wall_secs`).

use esync_bench::{ExperimentArtifact, SweepSummary, Table};
use esync_core::paxos::group::LogGroup;
use esync_sim::{PreStability, SimConfig, SimTime};
use esync_workload::gen::ClosedLoopSpec;
use esync_workload::sim_driver::run_closed_loop;
use std::time::Instant;

const N: usize = 5;
/// Per-shard pipeline window (unchosen slots in flight).
const WINDOW: usize = 4;
/// One command per slot: no group commit, shard count is the only lever.
const BATCH: usize = 1;
/// Offered load: n clients × 16 outstanding saturates 8 shards × W = 32.
const OUTSTANDING: usize = 16;
const COMMANDS: u64 = 1_200;
const KEYS: u64 = 1 << 10;

fn main() {
    let mut artifact = ExperimentArtifact::new(
        "exp_w3_shard_scaling",
        "sharded log group: closed-loop commits/sec scales with independent shards at fixed n; per-shard post-TS p99 stays within 2x of S=1",
    );
    let mut table = Table::new(
        &format!(
            "W3: shard scaling (n={N}, B={BATCH}, W={WINDOW}/shard, {OUTSTANDING}/client in flight, {COMMANDS} commands)"
        ),
        &["S", "commits/s (sim)", "vs S=1", "p50", "p99", "worst shard p99", "dups"],
    );
    let mut baseline: Option<(f64, u64)> = None; // (commits/sec, post-TS p99)
    for &shards in &[1usize, 2, 4, 8] {
        let seed = 300 + shards as u64;
        let cfg = SimConfig::builder(N)
            .seed(seed)
            .stability_at_millis(0)
            .pre_stability(PreStability::lossless())
            .build()
            .expect("valid config");
        let spec = ClosedLoopSpec::new(N, OUTSTANDING, COMMANDS)
            .seed(seed)
            .key_space(KEYS);
        let started = Instant::now();
        let out = run_closed_loop(
            cfg.clone(),
            LogGroup::new(shards).with_batching(BATCH, WINDOW),
            &spec,
            SimTime::from_millis(500),
            SimTime::from_secs(600),
        );
        let wall = started.elapsed();
        assert!(out.log_agreement, "S={shards}: per-shard logs diverged");
        assert_eq!(
            out.summary.committed, COMMANDS,
            "S={shards}: not all commands committed"
        );
        let s = &out.summary;
        assert_eq!(
            s.per_shard.len(),
            shards,
            "S={shards}: missing shard slices"
        );
        assert_eq!(
            s.per_shard.iter().map(|x| x.committed).sum::<u64>(),
            COMMANDS,
            "S={shards}: shard split does not partition the commits"
        );
        // TS = 0: every command is post-TS; the worst per-shard tail is
        // the p99 the acceptance criterion bounds.
        let worst_shard_p99 = s
            .per_shard
            .iter()
            .filter_map(|x| x.post_ts.as_ref().map(|h| h.p99_ns))
            .max()
            .expect("post-TS latency recorded");
        let speedup = baseline.map_or(1.0, |(b, _)| s.commits_per_sec / b);
        let ms = |ns: u64| format!("{:.2}ms", ns as f64 / 1e6);
        table.row_owned(vec![
            shards.to_string(),
            format!("{:.0}", s.commits_per_sec),
            format!("{speedup:.2}x"),
            ms(s.latency.p50_ns),
            ms(s.latency.p99_ns),
            ms(worst_shard_p99),
            s.duplicate_commits.to_string(),
        ]);
        match baseline {
            None => baseline = Some((s.commits_per_sec, worst_shard_p99)),
            Some((base_tput, base_p99)) => {
                if shards >= 4 {
                    assert!(
                        s.commits_per_sec >= 2.0 * base_tput,
                        "S={shards} ({:.0}/s) below 2x the S=1 baseline ({base_tput:.0}/s)",
                        s.commits_per_sec
                    );
                }
                assert!(
                    worst_shard_p99 <= 2 * base_p99.max(1),
                    "S={shards}: worst shard post-TS p99 ({worst_shard_p99}ns) \
                     exceeds 2x the S=1 baseline ({base_p99}ns)"
                );
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
            .with_extra("commits_per_sec", s.commits_per_sec)
            .with_extra("speedup_vs_s1", speedup)
            .with_extra("p50_ms", s.latency.p50_ns as f64 / 1e6)
            .with_extra("p99_ms", s.latency.p99_ns as f64 / 1e6)
            .with_extra("worst_shard_post_ts_p99_ms", worst_shard_p99 as f64 / 1e6)
            .with_extra(
                "events_per_command",
                out.report.events as f64 / COMMANDS as f64,
            ),
        );
    }
    println!("{}", table.render());
    println!(
        "independent shards scale closed-loop commits/sec at fixed n \
         (asserted ≥2x at S=4, per-shard post-TS p99 within 2x of S=1) — \
         the paper's per-instance bound composing horizontally."
    );
    artifact.write();
}
