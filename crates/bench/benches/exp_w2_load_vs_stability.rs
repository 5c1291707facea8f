//! W2 — open-loop load across the eventual-synchrony boundary.
//!
//! Poisson command streams at three arrival rates run from `t = 50ms`
//! through the chaotic pre-`TS` period (`TS = 300ms`, 30% loss, delays to
//! 12δ) into stability. The split the paper's bound predicts: commands
//! submitted **before** `TS` wait out the instability (their commit
//! latency is dominated by `TS − submit` plus the anchoring time), while
//! commands submitted **after** `TS` commit within a few δ — the
//! steady-state regime. The ε re-forward retry makes every submission to
//! a live process commit eventually, so completion is asserted at 100%.
//!
//! Deterministic per seed: reruns reproduce
//! `BENCH_exp_w2_load_vs_stability.json` bit-for-bit (modulo `wall_secs`).

use esync_bench::{ExperimentArtifact, SweepSummary, Table};
use esync_core::paxos::multi::MultiPaxos;
use esync_core::time::RealDuration;
use esync_sim::scenario::SubmitStream;
use esync_sim::{PreStability, Scenario, SimConfig, SimTime};
use esync_workload::sim_driver::run_open_loop;
use std::time::Instant;

const N: usize = 5;
const TS_MS: u64 = 300;
/// Each stream spans ~1.2s of arrivals: well past `TS`.
const SPAN_MS: u64 = 1_200;

fn main() {
    let mut artifact = ExperimentArtifact::new(
        "exp_w2_load_vs_stability",
        "open-loop Poisson load across TS: pre-TS submissions pay the instability, post-TS ones commit in a few delta",
    );
    let mut table = Table::new(
        &format!(
            "W2: open-loop Poisson rates across TS={TS_MS}ms (n={N}, chaos pre-TS, batching 16/8)"
        ),
        &[
            "rate",
            "commands",
            "committed",
            "pre-TS p50/p99",
            "post-TS p50/p99",
            "dups",
        ],
    );
    for &(label, mean_us) in &[("50/s", 20_000u64), ("200/s", 5_000), ("1000/s", 1_000)] {
        let count = SPAN_MS * 1_000 / mean_us;
        let stream = SubmitStream::poisson(
            SimTime::from_millis(50),
            RealDuration::from_micros(mean_us),
            count,
        )
        .keyed(1 << 10)
        .seed(7);
        let cfg = SimConfig::builder(N)
            .seed(17)
            .stability_at_millis(TS_MS)
            .pre_stability(PreStability::chaos())
            .scenario(Scenario::none().stream(stream))
            .build()
            .expect("valid config");
        let started = Instant::now();
        let out = run_open_loop(
            cfg.clone(),
            MultiPaxos::new().with_batching(16, 8),
            SimTime::from_secs(30),
        );
        let wall = started.elapsed();
        assert!(out.log_agreement, "{label}: logs diverged");
        assert_eq!(
            out.summary.committed, count,
            "{label}: the retry path must commit every submission"
        );
        let s = &out.summary;
        let pre = s.pre_ts.as_ref().expect("pre-TS submissions exist");
        let post = s.post_ts.as_ref().expect("post-TS submissions exist");
        assert!(
            pre.p99_ns > post.p99_ns,
            "{label}: pre-TS tail ({}) should dominate post-TS tail ({})",
            pre.p99_ns,
            post.p99_ns
        );
        let ms = |ns: u64| format!("{:.1}", ns as f64 / 1e6);
        table.row_owned(vec![
            label.to_string(),
            count.to_string(),
            s.committed.to_string(),
            format!("{}/{}ms", ms(pre.p50_ns), ms(pre.p99_ns)),
            format!("{}/{}ms", ms(post.p50_ns), ms(post.p99_ns)),
            s.duplicate_commits.to_string(),
        ]);
        artifact.push(
            SweepSummary::from_reports(
                &format!("poisson {label} across TS"),
                Some(cfg),
                std::slice::from_ref(&out.report),
                1,
                wall,
            )
            .with_workload(out.summary.clone())
            .with_extra("commits_per_sec", s.commits_per_sec)
            .with_extra("pre_ts_p99_ms", pre.p99_ns as f64 / 1e6)
            .with_extra("post_ts_p99_ms", post.p99_ns as f64 / 1e6)
            .with_extra("post_ts_p50_ms", post.p50_ns as f64 / 1e6),
        );
    }
    println!("{}", table.render());
    println!(
        "pre-TS submissions pay the instability (latency ~ TS - submit + anchoring); \
         post-TS submissions see the steady-state few-delta path."
    );
    artifact.write();
}
