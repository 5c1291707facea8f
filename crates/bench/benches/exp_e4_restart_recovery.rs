//! E4 — §4 "Process Restarts": "every process p that restarts after time TS
//! decides within O(δ) seconds of when it is restarted" (substituting
//! `T'S` for `TS` in the main theorem), and in practice much faster once
//! others have decided, because deciders re-announce their decision.
//!
//! One process goes down before `TS` and restarts at `TS + Δt` for a sweep
//! of `Δt`; we report `decide − restart` in δ units over several seeds
//! (run in parallel per Δt). The shape to verify: recovery time is flat in
//! `Δt` (and small). Results land in `BENCH_exp_e4_restart_recovery.json`.

use esync_bench::{fmt_stats, DelayQuantiles, ExperimentArtifact, SweepRunner, Table, TS_MS};
use esync_core::paxos::session::SessionPaxos;
use esync_core::types::ProcessId;
use esync_sim::{PreStability, Scenario, SimConfig, SimTime};

fn main() {
    let n = 5;
    let victim = ProcessId::new(4);
    let runner = SweepRunner::new();
    let mut artifact = ExperimentArtifact::new(
        "exp_e4_restart_recovery",
        "a post-TS restart decides within O(δ) of restarting, uniformly in restart time",
    );
    let mut table = Table::new(
        "E4: restart recovery (n=5, chaos before TS, victim down from 10ms)",
        &["restart at", "seeds", "decide−restart min/mean/max"],
    );
    for dt_ms in [50u64, 100, 200, 400, 800, 1600] {
        let restart_at = TS_MS + dt_ms;
        let outcome = runner
            .sweep_seeds(
                &format!("restart at TS+{dt_ms}ms"),
                8,
                |seed| {
                    SimConfig::builder(n)
                        .seed(seed)
                        .stability_at_millis(TS_MS)
                        .pre_stability(PreStability::chaos())
                        .scenario(Scenario::none().down_between(
                            victim,
                            SimTime::from_millis(10),
                            SimTime::from_millis(restart_at),
                        ))
                        .build()
                        .expect("valid config")
                },
                SessionPaxos::new,
            )
            .expect("runs complete");
        assert!(outcome.reports.iter().all(|r| r.agreement()));
        let recovery = DelayQuantiles::over(outcome.reports.iter().filter_map(|r| {
            r.decision_after_restart(victim)
                .map(|d| d.as_nanos() as f64 / r.delta.as_nanos() as f64)
        }));
        table.row_owned(vec![
            format!("TS+{dt_ms}ms"),
            "8".to_string(),
            fmt_stats(recovery.as_ref()),
        ]);
        artifact.push(outcome.summary);
    }
    println!("{}", table.render());
    println!("paper: O(δ) after the restart, uniformly in the restart time;");
    println!("deciders re-announce every ε, so recovery ≈ ε + δ here.");
    artifact.write();
}
