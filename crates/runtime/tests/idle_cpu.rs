//! An idle cluster sleeps: the wait's yields before a sleep must not turn
//! into a spin. Alone in its test binary, so that the process's CPU time
//! is the cluster's.

#![cfg(target_os = "linux")]

use esync_core::paxos::session::SessionPaxos;
use esync_runtime::{Cluster, ClusterConfig};
use std::time::{Duration, Instant};

/// `/proc/self/stat` counts CPU time in clock ticks of 1/100 s (the
/// `USER_HZ` every Linux architecture the project runs on uses).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of this process, every thread included.
fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("readable /proc/self/stat");
    // The fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 1..]
        .split_whitespace()
        .collect();
    let ticks: u64 = fields[11..13]
        .iter()
        .map(|f| f.parse::<u64>().expect("tick count"))
        .sum();
    Duration::from_secs_f64(ticks as f64 / TICKS_PER_S)
}

#[test]
fn an_idle_cluster_uses_under_a_quarter_of_a_core() {
    let cfg = ClusterConfig::new(3)
        .delta(Duration::from_millis(5))
        .seed(3);
    let cluster = Cluster::spawn(cfg, SessionPaxos::new()).unwrap();
    cluster.await_decisions(Duration::from_secs(10)).unwrap();
    let (cpu0, wall0) = (cpu_time(), Instant::now());
    std::thread::sleep(Duration::from_millis(300));
    let (cpu, wall) = (cpu_time() - cpu0, wall0.elapsed());
    cluster.shutdown();
    let share = cpu.as_secs_f64() / wall.as_secs_f64();
    assert!(share < 0.25, "{cpu:?} of CPU in {wall:?}: {share:.2} cores");
}
