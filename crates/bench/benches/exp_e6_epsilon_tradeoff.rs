//! E6 — §4 "Reducing Message Complexity": "We can have it send fewer phase
//! 1a messages by increasing the value of ε, but this can increase how long
//! it takes processes to decide after the system becomes stable. …
//! Frequent message sending is an unavoidable cost of fast recovery."
//!
//! Sweep `ε` and report (a) the decision delay after `TS` and (b) the
//! pre-`TS` message rate per process (the standing cost of recovery
//! readiness). The shape to verify: rate falls ~1/ε while decision delay
//! grows with ε once `2δ+ε` dominates `τ = max(2δ+ε, σ)`. Seed sweeps run
//! in parallel; results land in `BENCH_exp_e6_epsilon_tradeoff.json`.

use esync_bench::{fmt_stats, ExperimentArtifact, SweepRunner, Table, TS_MS};
use esync_core::paxos::session::SessionPaxos;
use esync_core::time::RealDuration;
use esync_sim::{PreStability, SimConfig};

fn main() {
    let n = 5;
    let seeds = 8;
    let delta_ms = 10.0;
    let runner = SweepRunner::new();
    let mut artifact = ExperimentArtifact::new(
        "exp_e6_epsilon_tradeoff",
        "ε trades standing message traffic against post-TS decision delay",
    );
    let mut table = Table::new(
        "E6: ε sweep (n=5, δ=10ms, chaos before TS=300ms)",
        &[
            "ε",
            "decide−TS min/mean/max",
            "analytic bound",
            "pre-TS msgs/proc/sec",
        ],
    );
    for eps_frac in [0.125f64, 0.25, 0.5, 1.0, 2.0, 4.0] {
        let eps = RealDuration::from_micros((eps_frac * delta_ms * 1000.0) as u64);
        let mk = |seed: u64| {
            SimConfig::builder(n)
                .seed(seed)
                .stability_at_millis(TS_MS)
                .epsilon(eps)
                .pre_stability(PreStability::chaos())
                .build()
                .expect("valid config")
        };
        let outcome = runner
            .sweep_seeds(
                &format!("eps={eps_frac}delta"),
                seeds,
                mk,
                SessionPaxos::new,
            )
            .expect("completes");
        assert!(outcome.reports.iter().all(|r| r.agreement()));
        let bound = {
            let cfg = mk(0);
            (cfg.timing.decision_bound() + cfg.timing.epsilon()).as_nanos() as f64
                / cfg.timing.delta().as_nanos() as f64
        };
        // Pre-TS sends per process per second.
        let rate: f64 = outcome
            .reports
            .iter()
            .map(|r| {
                (r.msgs_sent - r.msgs_sent_after_ts) as f64 / n as f64 / (TS_MS as f64 / 1000.0)
            })
            .sum::<f64>()
            / outcome.reports.len() as f64;
        table.row_owned(vec![
            format!("{eps_frac}δ"),
            fmt_stats(outcome.summary.delay_after_ts_delta.as_ref()),
            format!("{bound:.1}δ"),
            format!("{rate:.0}"),
        ]);
        artifact.push(outcome.summary);
    }
    println!("{}", table.render());
    println!("smaller ε: more standing traffic, faster post-TS convergence;");
    println!("larger ε: quieter network, slower recovery (τ = max(2δ+ε, σ) grows).");
    artifact.write();
}
