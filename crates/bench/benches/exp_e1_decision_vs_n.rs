//! E1 — the headline claim (abstract, §4): modified Paxos reaches consensus
//! by `TS + O(δ)` **independent of N**, where all previously known
//! algorithms needed `TS + O(Nδ)`.
//!
//! Sweep `N`, run the chaotic standard environment over several seeds (in
//! parallel across all cores via [`SweepRunner`]), and report
//! `max(decide − TS)` in δ units alongside the analytic bound `ε + 3τ + 5δ`.
//! The shape to verify: the column is flat in `N` and under the bound.
//! Every sweep is serialized to `BENCH_exp_e1_decision_vs_n.json`.

use esync_bench::{chaos_cfg, fmt_stats, ExperimentArtifact, SweepRunner, Table, TS_MS};
use esync_core::paxos::session::SessionPaxos;
use esync_sim::{PreStability, SimConfig};

fn silent_cfg(n: usize, seed: u64) -> SimConfig {
    SimConfig::builder(n)
        .seed(seed)
        .stability_at_millis(TS_MS)
        .pre_stability(PreStability::silent())
        .build()
        .expect("valid config")
}

fn main() {
    // `SEEDS_PER_CELL` scales the sweep (64 seeds per cell makes this the
    // wall-clock scaling benchmark of the parallel engine).
    let seeds_per_cell: u64 = std::env::var("SEEDS_PER_CELL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let runner = SweepRunner::new();
    let mut artifact = ExperimentArtifact::new(
        "exp_e1_decision_vs_n",
        "modified Paxos decides by TS + O(δ), independent of N (vs O(Nδ) prior art)",
    );
    let mut table = Table::new(
        "E1: modified Paxos decision delay after TS vs N",
        &[
            "N",
            "seeds",
            "silent pre-TS min/mean/max",
            "chaos pre-TS min/mean/max",
            "analytic bound",
        ],
    );
    for n in [3usize, 5, 9, 17, 33, 65] {
        let seeds = if seeds_per_cell > 0 {
            seeds_per_cell
        } else if n >= 33 {
            5
        } else {
            10
        };
        // Silent: every pre-TS message lost, so the entire protocol runs
        // after TS — the cleanest view of the O(δ) claim.
        let silent = runner
            .sweep_seeds(
                &format!("n={n} silent"),
                seeds,
                |s| silent_cfg(n, s),
                SessionPaxos::new,
            )
            .expect("runs complete");
        // Chaos: loss + long delays; at large N enough messages survive
        // that consensus can even finish before TS (delay 0).
        let chaos = runner
            .sweep_seeds(
                &format!("n={n} chaos"),
                seeds,
                |s| chaos_cfg(n, s),
                SessionPaxos::new,
            )
            .expect("runs complete");
        for r in silent.reports.iter().chain(&chaos.reports) {
            assert!(r.agreement() && r.validity());
        }
        let bound = {
            let cfg = silent_cfg(n, 0);
            (cfg.timing.decision_bound() + cfg.timing.epsilon()).as_nanos() as f64
                / cfg.timing.delta().as_nanos() as f64
        };
        table.row_owned(vec![
            n.to_string(),
            seeds.to_string(),
            fmt_stats(silent.summary.delay_after_ts_delta.as_ref()),
            fmt_stats(chaos.summary.delay_after_ts_delta.as_ref()),
            format!("{bound:.1}δ"),
        ]);
        artifact.push(silent.summary);
        artifact.push(chaos.summary);
    }
    println!("{}", table.render());
    let total_runs: u64 = artifact.sweeps.iter().map(|s| s.seeds).sum();
    let total_wall: f64 = artifact.sweeps.iter().map(|s| s.wall_secs).sum();
    println!(
        "{} runs on {} thread(s) in {:.2}s ({:.1} runs/sec)",
        total_runs,
        runner.threads(),
        total_wall,
        total_runs as f64 / total_wall.max(1e-9),
    );
    println!("paper: decision by TS + ε + 3τ + 5δ ≈ TS + 17δ, independent of N.");
    println!("the columns are flat in N (O(δ)); prior algorithms were O(Nδ).");
    artifact.write();
}
