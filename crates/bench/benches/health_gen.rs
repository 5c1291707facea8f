//! Regenerates the health artifact (`HEALTH_exp_h1.jsonl`, schema in
//! `esync_metrics::jsonl`) that `just inspect` renders:
//!
//! * `HEALTH_exp_h1.jsonl` — an H1-style sharded closed-loop drive
//!   (`LogGroup`, S=4) under a lossless stable environment, metered on a
//!   50ms snapshot cadence with the default watchdog thresholds. A
//!   stable run must come out HEALTHY: the generator asserts zero
//!   watchdog firings and zero dropped trace records before writing.
//!
//! The run is deterministic: same seed ⇒ byte-identical file (asserted
//! here by generating twice, and again by tier-1 `tests/metrics_smoke.rs`
//! at the snapshot-series level).

use esync_core::paxos::group::LogGroup;
use esync_core::time::RealDuration;
use esync_metrics::{write_health_jsonl, HealthMeta, WatchdogConfig};
use esync_sim::{PreStability, SimConfig, SimTime};
use esync_workload::gen::ClosedLoopSpec;
use esync_workload::sim_driver::run_closed_loop_metered;
use std::path::PathBuf;

fn out_dir() -> PathBuf {
    let dir = std::env::var_os("BENCH_OUT_DIR").map_or_else(
        || {
            // crates/bench → workspace root.
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
        },
        PathBuf::from,
    );
    dir.canonicalize().unwrap_or(dir)
}

/// One metered H1 run, rendered to the file's exact bytes.
fn h1_bytes(seed: u64) -> String {
    let n = 5;
    let cfg = SimConfig::builder(n)
        .seed(seed)
        .stability_at_millis(0)
        .pre_stability(PreStability::lossless())
        .build()
        .expect("valid config");
    let meta = HealthMeta {
        exp: "exp_h1".to_string(),
        seed,
        n: n as u32,
        interval_ns: 50_000_000,
        backend: "sim".to_string(),
    };
    let spec = ClosedLoopSpec::new(5, 8, 240).seed(seed).key_space(1 << 10);
    let out = run_closed_loop_metered(
        cfg,
        LogGroup::new(4),
        &spec,
        SimTime::from_millis(500),
        SimTime::from_secs(120),
        RealDuration::from_millis(50),
        WatchdogConfig::default(),
    );
    assert_eq!(out.summary.committed, 240, "drive completes");
    assert!(out.log_agreement);
    let health = out.summary.health.expect("metered run attaches health");
    assert!(!health.snapshots.is_empty(), "cadence produced samples");
    assert!(
        health.firings.is_empty(),
        "a stable lossless run must be HEALTHY, got {:?}",
        health.firings
    );
    assert_eq!(health.trace_dropped, 0);
    println!(
        "exp_h1: {} snapshots every 50ms, 0 firings, {} committed",
        health.snapshots.len(),
        out.summary.committed,
    );
    write_health_jsonl(&meta, &health.snapshots, &health.firings)
}

fn main() {
    let a = h1_bytes(7);
    let b = h1_bytes(7);
    assert_eq!(a, b, "same seed must serialize identically");
    let path = out_dir().join("HEALTH_exp_h1.jsonl");
    std::fs::write(&path, &a).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}
