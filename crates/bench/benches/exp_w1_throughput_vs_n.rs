//! W1 — closed-loop saturation throughput of the replicated log vs
//! cluster size and batch size.
//!
//! `n` clients each keep 16 commands in flight against a stable
//! (`TS = 0`, lossless) cluster whose anchored leader pipelines at most
//! `W = 4` unchosen slots. With one command per slot (`B = 1`) the
//! steady-state throughput is capped at `W / RTT`; proposer-side batching
//! lifts it to `≈ W·B / RTT` until the clients' offered load saturates —
//! the classic group-commit result, measured here as commits/sec of
//! *simulated* time with p50/p99/p999 end-to-end commit latency from the
//! fixed-bucket histogram. The artifact asserts the headline: batching
//! beats `B = 1` on every cluster size.
//!
//! Everything is a deterministic function of the seeds: rerunning this
//! experiment reproduces `BENCH_exp_w1_throughput_vs_n.json` bit-for-bit
//! (modulo the machine-dependent `wall_secs`).

use esync_bench::{ExperimentArtifact, SweepSummary, Table};
use esync_core::paxos::multi::MultiPaxos;
use esync_sim::{PreStability, SimConfig, SimTime};
use esync_workload::gen::ClosedLoopSpec;
use esync_workload::sim_driver::run_closed_loop;
use std::time::Instant;

/// Pipeline window: the leader keeps at most this many unchosen slots in
/// flight, modeling bounded proposer resources.
const WINDOW: usize = 4;
/// Commands each client keeps outstanding (offered load = n·16).
const OUTSTANDING: usize = 16;
/// Commands per sweep point.
const COMMANDS: u64 = 1_200;

fn cfg(n: usize, seed: u64) -> SimConfig {
    SimConfig::builder(n)
        .seed(seed)
        .stability_at_millis(0)
        .pre_stability(PreStability::lossless())
        .build()
        .expect("valid config")
}

fn main() {
    let mut artifact = ExperimentArtifact::new(
        "exp_w1_throughput_vs_n",
        "closed-loop saturation: batching lifts replicated-log commits/sec by ~B at fixed pipeline window",
    );
    let mut table = Table::new(
        &format!(
            "W1: closed-loop saturation (W={WINDOW}, {OUTSTANDING}/client in flight, {COMMANDS} commands)"
        ),
        &["n", "batch", "commits/s (sim)", "p50", "p99", "p999", "dups", "events/cmd"],
    );
    for &n in &[3usize, 5, 9] {
        let mut per_batch: Vec<(usize, f64)> = Vec::new();
        for &batch in &[1usize, 4, 16] {
            let seed = 100 + n as u64;
            let spec = ClosedLoopSpec::new(n, OUTSTANDING, COMMANDS).seed(seed);
            let run_cfg = cfg(n, seed);
            let started = Instant::now();
            let out = run_closed_loop(
                run_cfg.clone(),
                MultiPaxos::new().with_batching(batch, WINDOW),
                &spec,
                SimTime::from_millis(500),
                SimTime::from_secs(300),
            );
            let wall = started.elapsed();
            assert!(out.log_agreement, "n={n} B={batch}: logs diverged");
            assert_eq!(
                out.summary.committed, COMMANDS,
                "n={n} B={batch}: not all commands committed"
            );
            let s = &out.summary;
            let ms = |ns: u64| format!("{:.2}ms", ns as f64 / 1e6);
            table.row_owned(vec![
                n.to_string(),
                batch.to_string(),
                format!("{:.0}", s.commits_per_sec),
                ms(s.latency.p50_ns),
                ms(s.latency.p99_ns),
                ms(s.latency.p999_ns),
                s.duplicate_commits.to_string(),
                format!("{:.0}", out.report.events as f64 / COMMANDS as f64),
            ]);
            per_batch.push((batch, s.commits_per_sec));
            artifact.push(
                SweepSummary::from_reports(
                    &format!("n={n} batch={batch} window={WINDOW}"),
                    Some(run_cfg),
                    std::slice::from_ref(&out.report),
                    1,
                    wall,
                )
                .with_workload(out.summary.clone())
                .with_extra("commits_per_sec", s.commits_per_sec)
                .with_extra("p50_ms", s.latency.p50_ns as f64 / 1e6)
                .with_extra("p99_ms", s.latency.p99_ns as f64 / 1e6)
                .with_extra("p999_ms", s.latency.p999_ns as f64 / 1e6)
                .with_extra(
                    "events_per_command",
                    out.report.events as f64 / COMMANDS as f64,
                ),
            );
        }
        let base = per_batch[0].1;
        for &(batch, tput) in &per_batch[1..] {
            assert!(
                tput > base * 1.5,
                "n={n}: batch={batch} ({tput:.0}/s) not measurably above batch=1 ({base:.0}/s)"
            );
        }
    }
    println!("{}", table.render());
    println!(
        "batching > 1 beats one-command-per-slot on every n (asserted ≥1.5×; \
         expected ≈B× until offered load saturates)."
    );
    artifact.write();
}
