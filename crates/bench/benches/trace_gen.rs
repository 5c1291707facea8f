//! Regenerates the typed-trace artifacts (`TRACE_<exp>.jsonl`, schema in
//! `esync_trace::jsonl`) that `just inspect` validates:
//!
//! * `TRACE_exp_e1.jsonl` — an E1-style single-shot run (silent pre-TS
//!   environment, modified session Paxos): the per-decision bound
//!   `decide ≤ TS + ε + 3τ + 5δ` must hold for **every** process, a
//!   strictly stronger check than `exp_e10_bound_check`'s run-level max.
//! * `TRACE_exp_w3.jsonl` — a W3-style sharded closed-loop drive
//!   (`LogGroup`, S=4): the queue → quorum → learn phase decomposition
//!   of steady-state commit latency (`bound_ns = 0`; the single-shot
//!   bound does not gate client-scheduled commands).
//!
//! Both runs are deterministic: same seed ⇒ byte-identical files.

use esync_bench::TS_MS;
use esync_core::paxos::group::LogGroup;
use esync_core::paxos::session::SessionPaxos;
use esync_sim::{PreStability, SimConfig, SimTime, World};
use esync_trace::jsonl::{write_jsonl, TraceMeta};
use esync_trace::{check_decision_bound, decompose};
use esync_workload::gen::ClosedLoopSpec;
use esync_workload::sim_driver::run_closed_loop_traced;
use std::path::PathBuf;

/// Ring capacity: comfortably above what either run emits, so the files
/// are complete traces, not tails.
const TRACE_CAP: usize = 1 << 20;

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

fn write_trace(name: &str, contents: &str) {
    let path = out_dir().join(format!("TRACE_{name}.jsonl"));
    std::fs::write(&path, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn meta_of(exp: &str, cfg: &SimConfig, seed: u64, bound_ns: u64) -> TraceMeta {
    TraceMeta {
        exp: exp.to_string(),
        seed,
        n: cfg.timing.n() as u32,
        delta_ns: cfg.timing.delta().as_nanos(),
        epsilon_ns: cfg.timing.epsilon().as_nanos(),
        ts_ns: cfg.ts.as_nanos(),
        bound_ns,
        // TRACE_CAP comfortably exceeds both runs' volume; the generators
        // assert this below before writing.
        dropped: 0,
    }
}

/// E1-style: silent pre-TS (every early message lost), so the whole
/// protocol runs after stabilization — the cleanest per-decision view of
/// the `O(δ)` claim.
fn gen_e1(seed: u64) {
    let n = 5;
    let cfg = SimConfig::builder(n)
        .seed(seed)
        .stability_at_millis(TS_MS)
        .pre_stability(PreStability::silent())
        .build()
        .expect("valid config");
    let bound_ns = (cfg.timing.decision_bound() + cfg.timing.epsilon()).as_nanos();
    let meta = meta_of("exp_e1", &cfg, seed, bound_ns);
    let mut world = World::new(cfg, SessionPaxos::new());
    world.enable_typed_trace(TRACE_CAP);
    let report = world.run_to_completion().expect("run completes");
    assert!(report.agreement() && report.validity());
    let (records, _) = world.take_observation();
    // A ring that never filled evicted nothing.
    assert!(records.len() < TRACE_CAP, "TRACE_CAP must hold the run");
    let check = check_decision_bound(&meta, &records);
    assert!(
        check.holds(),
        "generated e1 trace violates its own bound: {:?}",
        check.violations
    );
    println!(
        "exp_e1: {} records, {} first decisions, bound {:.1}δ — holds",
        records.len(),
        check.first_decisions.len(),
        bound_ns as f64 / meta.delta_ns as f64,
    );
    write_trace("exp_e1", &write_jsonl(&meta, &records));
}

/// W3-style: the sharded log group under a closed-loop client drive;
/// the trace feeds the phase decomposition, not the single-shot bound.
fn gen_w3(seed: u64) {
    let n = 5;
    let cfg = SimConfig::builder(n)
        .seed(seed)
        .stability_at_millis(0)
        .pre_stability(PreStability::lossless())
        .build()
        .expect("valid config");
    let meta = meta_of("exp_w3", &cfg, seed, 0);
    let spec = ClosedLoopSpec::new(5, 8, 240).seed(seed).key_space(1 << 10);
    let out = run_closed_loop_traced(
        cfg,
        LogGroup::new(4),
        &spec,
        SimTime::from_millis(500),
        SimTime::from_secs(120),
        TRACE_CAP,
    );
    assert_eq!(out.summary.committed, 240, "drive completes");
    assert!(out.log_agreement);
    let phases = decompose(&out.trace);
    assert_eq!(phases.decisions, 240, "every command decomposes");
    println!(
        "exp_w3: {} records, {} decisions — queue p50 {}ns, quorum p50 {}ns, learn p50 {}ns",
        out.trace.len(),
        phases.decisions,
        phases.queue.p50_ns,
        phases.quorum.p50_ns,
        phases.learn.p50_ns,
    );
    write_trace("exp_w3", &write_jsonl(&meta, &out.trace));
}

fn main() {
    gen_e1(42);
    gen_w3(7);
}
