//! Quickstart: run the paper's modified Paxos through a chaotic
//! pre-stability phase and watch every process decide within `O(δ)` of the
//! stabilization time `TS`.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use esync::core::paxos::session::SessionPaxos;
use esync::core::types::ProcessId;
use esync::sim::{PreStability, SimConfig, World};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Five processes, δ = 10ms. The network is adversarial until TS = 300ms
    // (30% loss, delays up to 12δ — some messages sent before TS will land
    // long after it), then delivers within δ.
    let cfg = SimConfig::builder(5)
        .seed(2025)
        .stability_at_millis(300)
        .pre_stability(PreStability::chaos())
        .build()?;

    let timing = cfg.timing;
    println!("modified Paxos (Dutta–Guerraoui–Lamport, DSN 2005)");
    println!(
        "n={} δ={} σ={} ε={} ρ={}",
        timing.n(),
        timing.delta(),
        timing.sigma(),
        timing.epsilon(),
        timing.rho()
    );
    println!(
        "analytic decision bound: TS + ε + 3τ + 5δ = TS + {:.1}δ\n",
        timing.decision_bound().as_nanos() as f64 / timing.delta().as_nanos() as f64
    );

    let mut world = World::new(cfg, SessionPaxos::new());
    let report = world.run_to_completion()?;

    println!("TS = {}", report.ts);
    for pid in ProcessId::all(report.n) {
        let i = pid.as_usize();
        match (report.decided_at[i], report.decisions[i]) {
            (Some(at), Some(v)) => println!(
                "  {pid} decided {v} at {at}  (TS + {:.2}δ)",
                at.saturating_since(report.ts).as_nanos() as f64 / report.delta.as_nanos() as f64
            ),
            _ => println!("  {pid} did not decide"),
        }
    }
    println!();
    println!(
        "agreement: {}   validity: {}   worst decision: TS + {:.2}δ",
        report.agreement(),
        report.validity(),
        report.max_decision_after_ts_in_delta().unwrap_or(f64::NAN)
    );
    println!(
        "messages: {} total ({} after TS), dropped {}",
        report.msgs_sent, report.msgs_sent_after_ts, report.msgs_dropped
    );
    Ok(())
}
