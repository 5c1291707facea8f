//! The §2 pathology, live: obsolete high-ballot messages force traditional
//! Paxos into `O(Nδ)` recovery while the modified algorithm stays at
//! `O(δ)`.
//!
//! The adversary releases `k` phase-1a messages with anomalously high
//! ballots — states a self-proclaimed pre-`TS` leader could legitimately
//! have reached without communicating — one every `1.5δ`, each aimed at the
//! live leader. Traditional Paxos pays one ballot restart per release;
//! modified Paxos cannot even be fed such ballots, because session gating
//! bounds what any failed process could have sent at session `s0 + 1`.
//!
//! ```sh
//! cargo run --example adversarial_restarts
//! ```

use esync::core::paxos::session::SessionPaxos;
use esync::core::paxos::traditional::TraditionalPaxos;
use esync::core::time::RealDuration;
use esync::core::types::ProcessId;
use esync::sim::adversary;
use esync::sim::{PreStability, SimConfig, SimTime, World};

const N: usize = 9;
const TS_MS: u64 = 300;

fn cfg(oracle: bool) -> SimConfig {
    SimConfig::builder(N)
        .seed(7)
        .stability_at_millis(TS_MS)
        .pre_stability(PreStability::silent())
        .post_delay_range((1.0, 1.0)) // adversarial timing: every hop = δ
        .leader_oracle(oracle)
        .build()
        .expect("valid config")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gap = RealDuration::from_millis(15); // 1.5δ
    let first_at = SimTime::from_millis(TS_MS + 30);

    println!("obsolete-ballot adversary, n={N}, δ=10ms, TS={TS_MS}ms");
    println!();
    println!(
        "{:<22}{:>14}{:>14}",
        "k obsolete ballots", "traditional", "modified"
    );

    for k in [0usize, 1, 2, 3, 4] {
        let mut trad = World::new(cfg(true), TraditionalPaxos::new());
        for (at, from, to, msg) in
            adversary::obsolete_ballots_traditional(N, k, first_at, gap, ProcessId::new(0))
        {
            trad.inject_message(at, from, to, msg);
        }
        let trad_report = trad.run_to_completion()?;

        let mut sess = World::new(cfg(false), SessionPaxos::new());
        for (at, from, to, msg) in
            adversary::obsolete_ballots_session(N, k, first_at, gap, ProcessId::new(0))
        {
            sess.inject_message(at, from, to, msg);
        }
        let sess_report = sess.run_to_completion()?;

        println!(
            "{:<22}{:>12.2}δ{:>12.2}δ",
            k,
            trad_report.max_decision_after_ts_in_delta().unwrap(),
            sess_report.max_decision_after_ts_in_delta().unwrap()
        );
    }

    println!();
    println!("traditional grows ~1.5δ per obsolete ballot (up to ⌈N/2⌉−1 of them);");
    println!("modified Paxos is capped by its session gating regardless of k.");
    Ok(())
}
