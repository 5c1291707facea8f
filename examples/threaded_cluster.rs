//! The same state machines on a real transport: one OS thread and one
//! swap-out queue inbox per process, wall-clock timers, and an unstable
//! first 150ms under the simulator's pre-stability network: 40% loss and
//! delayed (obsolete) messages, up to 5δ = 25ms late, held by their
//! recipients until due.
//!
//! ```sh
//! cargo run --example threaded_cluster
//! ```

use esync::core::network::PreStability;
use esync::core::paxos::session::SessionPaxos;
use esync::core::time::RealDuration;
use esync::runtime::{Cluster, ClusterConfig};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let delta = RealDuration::from_millis(5);
    let unstable = Duration::from_millis(150);
    let lossy = PreStability {
        loss_prob: 0.4,
        delay_delta_range: (0.0, 5.0),
        ..PreStability::chaos()
    };
    let cfg = ClusterConfig::new(5)
        .timing(|t| t.delta(delta))
        .unstable(unstable, lossy)
        .seed(31);

    println!("threaded cluster: 5 nodes, δ=5ms, unstable for 150ms (40% loss, delays ≤ 5δ)");
    let cluster = Cluster::spawn(cfg, SessionPaxos::new())?;
    // Each node's first commit is its decision.
    let decisions = cluster.await_decisions(Duration::from_secs(30))?;

    for d in &decisions {
        // Negative when the node decided inside the unstable window.
        let since_stability = d.elapsed.as_secs_f64() - unstable.as_secs_f64();
        println!(
            "  {} decided {} after {:?} ({:+.1}δ from stabilization)",
            d.pid,
            d.value,
            d.elapsed,
            since_stability / delta.as_secs_f64()
        );
    }
    let v = decisions[0].value;
    assert!(decisions.iter().all(|d| d.value == v));
    println!("\nagreement on {v} across all threads");
    cluster.shutdown();
    Ok(())
}
