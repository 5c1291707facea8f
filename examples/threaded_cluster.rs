//! The same state machines on a real transport: one OS thread and one
//! swap-out queue inbox per process, wall-clock timers, and an unstable
//! first 150ms with 40% loss and delayed (obsolete) messages: up to
//! 5δ = 25ms late, held by their recipients until due.
//!
//! ```sh
//! cargo run --example threaded_cluster
//! ```

use esync::core::paxos::session::SessionPaxos;
use esync::runtime::{Cluster, ClusterConfig};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let delta = Duration::from_millis(5);
    let unstable = Duration::from_millis(150);
    let cfg = ClusterConfig::new(5)
        .delta(delta)
        .stability_after(unstable)
        .pre_stability_loss(0.4)
        .seed(31);

    println!("threaded cluster: 5 nodes, δ=5ms, unstable for 150ms (40% loss, delays ≤ 5δ)");
    let cluster = Cluster::spawn(cfg, SessionPaxos::new())?;
    // Each node's first commit is its decision.
    let decisions = cluster.await_decisions(Duration::from_secs(30))?;

    for d in &decisions {
        let after_stability = d.elapsed.saturating_sub(unstable);
        println!(
            "  {} decided {} after {:?} (≈ {:.1}δ past stabilization)",
            d.pid,
            d.value,
            d.elapsed,
            after_stability.as_secs_f64() / delta.as_secs_f64()
        );
    }
    let v = decisions[0].value;
    assert!(decisions.iter().all(|d| d.value == v));
    println!("\nagreement on {v} across all threads");
    cluster.shutdown();
    Ok(())
}
