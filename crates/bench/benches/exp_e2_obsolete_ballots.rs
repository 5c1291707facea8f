//! E2 — §2's pathology: obsolete messages with anomalously high ballots
//! cost traditional Paxos one ballot restart each ("it could take O(Nδ)
//! seconds"), while the modified algorithm's session gating caps what any
//! failed process could have sent at session `s0 + 1`.
//!
//! Adversarial timing: delays pinned to exactly `δ`, one obsolete ballot
//! released every `1.5δ` at the live leader. The shape to verify: the
//! traditional column grows linearly in `k` (slope ≈ the release gap); the
//! modified column is flat. Both `k`-series run in parallel via
//! [`SweepRunner::sweep_fn`]; results land in `BENCH_exp_e2_obsolete_ballots.json`.

use esync_bench::{delay_in_delta, fmt_delta, ExperimentArtifact, SweepRunner, Table, TS_MS};
use esync_core::paxos::session::SessionPaxos;
use esync_core::paxos::traditional::TraditionalPaxos;
use esync_core::time::RealDuration;
use esync_core::types::ProcessId;
use esync_sim::{adversary, PreStability, SimConfig, SimTime, World};

fn cfg(n: usize, oracle: bool) -> SimConfig {
    SimConfig::builder(n)
        .seed(1)
        .stability_at_millis(TS_MS)
        .pre_stability(PreStability::silent())
        .post_delay_range((1.0, 1.0))
        .leader_oracle(oracle)
        .build()
        .expect("valid config")
}

fn main() {
    let n = 17; // ⌈N/2⌉ − 1 = 8 obsolete ballots possible
    let gap = RealDuration::from_millis(15); // 1.5δ
    let first_at = SimTime::from_millis(TS_MS + 30);
    let runner = SweepRunner::new();

    // One job per k; the job index IS k (deterministic ordering).
    let trad = runner
        .sweep_fn(
            "traditional k=0..=8 (record index = k injected obsolete ballots)",
            9,
            Some(cfg(n, true)),
            |k| {
                let mut w = World::new(cfg(n, true), TraditionalPaxos::new());
                for (at, from, to, msg) in adversary::obsolete_ballots_traditional(
                    n,
                    k as usize,
                    first_at,
                    gap,
                    ProcessId::new(0),
                ) {
                    w.inject_message(at, from, to, msg);
                }
                w.run_to_completion()
            },
        )
        .expect("traditional completes");
    let sess = runner
        .sweep_fn(
            "session k=0..=8 (record index = k injected obsolete ballots)",
            9,
            Some(cfg(n, false)),
            |k| {
                let mut w = World::new(cfg(n, false), SessionPaxos::new());
                for (at, from, to, msg) in adversary::obsolete_ballots_session(
                    n,
                    k as usize,
                    first_at,
                    gap,
                    ProcessId::new(0),
                ) {
                    w.inject_message(at, from, to, msg);
                }
                w.run_to_completion()
            },
        )
        .expect("session completes");

    let mut table = Table::new(
        "E2: decision delay after TS vs k obsolete high ballots (n=17, δ-exact delays)",
        &["k", "traditional Paxos", "modified Paxos"],
    );
    let mut series = Vec::new();
    for k in 0..=8usize {
        let trad_d = delay_in_delta(&trad.reports[k]);
        let sess_d = delay_in_delta(&sess.reports[k]);
        series.push((k as f64, trad_d));
        table.row_owned(vec![k.to_string(), fmt_delta(trad_d), fmt_delta(sess_d)]);
    }
    println!("{}", table.render());
    // Least-squares slope of the traditional series, in δ per ballot.
    let n_pts = series.len() as f64;
    let sx: f64 = series.iter().map(|(x, _)| x).sum();
    let sy: f64 = series.iter().map(|(_, y)| y).sum();
    let sxx: f64 = series.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = series.iter().map(|(x, y)| x * y).sum();
    let slope = (n_pts * sxy - sx * sy) / (n_pts * sxx - sx * sx);
    println!("traditional slope ≈ {slope:.2}δ per obsolete ballot (release gap 1.5δ)");
    println!("paper: up to ⌈N/2⌉−1 such ballots exist → O(Nδ); modified Paxos is immune.");

    let mut artifact = ExperimentArtifact::new(
        "exp_e2_obsolete_ballots",
        "k obsolete high ballots cost traditional Paxos O(kδ); session gating caps it",
    );
    artifact.push(trad.summary);
    artifact.push(sess.summary);
    artifact.write();
}
