//! E9 — ablations: each of the paper's §4 modifications is load-bearing.
//!
//! * **no session gating** (change 1): arbitrarily high-session ballots
//!   become reachable pre-`TS` states, so the adversary may inject them
//!   after `TS`; each one re-enters a fresh session (resetting the session
//!   timer) whose owner never completes it, costing ~σ apiece — the
//!   `O(Nδ)` pathology is back. Gated, the strongest injectable ballot is
//!   session 1 (proof step 1) and the cost is bounded.
//! * **no ε-retransmission** (change 4): if every pre-`TS` message is
//!   lost, nothing is ever sent again after `TS` — processes sit gated on
//!   a majority they will never hear: deadlock (DNF).
//! * **no 1a-on-session-entry** (change 3): convergence leans on the ε
//!   rule alone; mild slowdown.
//! * **σ sweep** (E9b): when a session entry lands right at `TS` (one
//!   injected session-2 ballot), the next session must wait out the
//!   freshly reset session timer — the decision delay tracks σ, as
//!   `τ = max(2δ+ε, σ)` says it should.
//!
//! Each variant's seed batch runs in parallel (DNF runs return their
//! partial report instead of failing the sweep); results land in
//! `BENCH_exp_e9_ablations.json`.

use esync_bench::{delay_in_delta, fmt_delta, ExperimentArtifact, SweepRunner, Table, TS_MS};
use esync_core::ballot::Ballot;
use esync_core::paxos::messages::PaxosMsg;
use esync_core::paxos::session::{Ablation, SessionPaxos};
use esync_core::time::RealDuration;
use esync_core::types::ProcessId;
use esync_sim::{PreStability, Report, SimConfig, SimTime, World};

const N: usize = 9;

fn cfg(seed: u64, pre: PreStability, sigma: Option<RealDuration>) -> SimConfig {
    let mut b = SimConfig::builder(N)
        .seed(seed)
        .stability_at_millis(TS_MS)
        .pre_stability(pre)
        .max_time(SimTime::from_secs(5));
    if let Some(s) = sigma {
        b = b.timing(|t| t.sigma(s));
    }
    b.build().expect("valid config")
}

/// Injects `k` obsolete ballots with ever-higher sessions, one every 5δ —
/// timed so each lands while the previous recovery session is in flight.
/// Only reachable against the ungated variant; against the full algorithm
/// the same schedule capped at session 1 is used (the strongest legal one).
fn inject(w: &mut World<SessionPaxos>, k: usize, gated: bool) {
    let owner = ProcessId::new(N as u32 - 1);
    for i in 0..k {
        let session = if gated { 1 } else { 1_000 * (i as u64 + 1) };
        let mbal = Ballot::new(session * N as u64 + owner.as_u32() as u64);
        w.inject_message(
            SimTime::from_millis(TS_MS + 10 + 50 * i as u64), // every 5δ
            owner,
            ProcessId::new(0),
            PaxosMsg::P1a { mbal },
        );
    }
}

/// Decision delay if everyone decided, `None` for a DNF (deadlock/stall).
fn outcome_delay(r: &Report) -> Option<f64> {
    r.all_alive_decided().then(|| delay_in_delta(r))
}

fn fmt(d: Option<f64>) -> String {
    match d {
        Some(d) => fmt_delta(d),
        None => "DNF".to_string(),
    }
}

fn main() {
    let runner = SweepRunner::new();
    let mut artifact = ExperimentArtifact::new(
        "exp_e9_ablations",
        "every §4 modification is load-bearing (ablate one, lose the bound or liveness)",
    );
    let full = Ablation::full();
    let no_gating = Ablation {
        session_gating: false,
        ..full
    };
    let no_retransmit = Ablation {
        epsilon_retransmit: false,
        ..full
    };
    let no_entry_1a = Ablation {
        p1a_on_entry: false,
        ..full
    };

    let mut table = Table::new(
        "E9a: ablations of the §4 modifications (n=9, worst over 4 seeds, DNF = no decision in 5s)",
        &[
            "variant",
            "chaos pre-TS",
            "silent pre-TS",
            "+6 obsolete ballots (strongest legal)",
        ],
    );
    for (name, ab) in [
        ("full algorithm", full),
        ("no session gating", no_gating),
        ("no ε-retransmit", no_retransmit),
        ("no 1a on entry", no_entry_1a),
    ] {
        let gated = ab.session_gating;
        // Worst over 4 seeds; a DNF in any seed poisons the cell (None).
        let mut worst = |col: &str, pre: PreStability, inj: Option<(usize, bool)>| {
            let sweep = runner
                .sweep_fn(
                    &format!("{name} / {col}"),
                    4,
                    Some(cfg(0, pre.clone(), None)),
                    |seed| {
                        let mut w = World::new(
                            cfg(seed, pre.clone(), None),
                            SessionPaxos::with_ablation(ab),
                        );
                        if let Some((k, gated)) = inj {
                            inject(&mut w, k, gated);
                        }
                        // DNF is an expected outcome for ablated variants:
                        // keep the partial report instead of failing.
                        match w.run_to_completion() {
                            Ok(r) => Ok(r),
                            Err(_) => Ok(w.report()),
                        }
                    },
                )
                .expect("sweep runs");
            let cell = sweep
                .reports
                .iter()
                .map(outcome_delay)
                .try_fold(0.0f64, |w, d| d.map(|d| w.max(d)));
            artifact.push(sweep.summary);
            cell
        };
        table.row_owned(vec![
            name.to_string(),
            fmt(worst("chaos", PreStability::chaos(), None)),
            fmt(worst("silent", PreStability::silent(), None)),
            fmt(worst(
                "silent+inject",
                PreStability::silent(),
                Some((6, gated)),
            )),
        ]);
    }
    println!("{}", table.render());

    let mut sweep_table = Table::new(
        "E9b: σ sweep — a session entry at TS makes the next session wait out the timer (n=9)",
        &["σ", "worst decide−TS (4 seeds)", "analytic bound"],
    );
    for sigma_delta in [5u64, 8, 12, 16, 24] {
        let sigma = RealDuration::from_millis(sigma_delta * 10);
        let outcome = runner
            .sweep_fn(
                &format!("sigma={sigma_delta}delta doomed-session"),
                4,
                Some(cfg(0, PreStability::silent(), Some(sigma))),
                |seed| {
                    let c = cfg(seed, PreStability::silent(), Some(sigma));
                    let mut w = World::new(c, SessionPaxos::new());
                    // One session-2 ballot lands just after TS: everyone
                    // adopts it, resetting session timers; its owner never
                    // completes it, so the decision waits for the timer
                    // before session 3 can win.
                    let owner = ProcessId::new(N as u32 - 1);
                    let mbal = Ballot::new(2 * N as u64 + owner.as_u32() as u64);
                    w.inject_message(
                        SimTime::from_millis(TS_MS + 5),
                        owner,
                        ProcessId::new(0),
                        PaxosMsg::P1a { mbal },
                    );
                    match w.run_to_completion() {
                        Ok(r) => Ok(r),
                        Err(_) => Ok(w.report()),
                    }
                },
            )
            .expect("sweep runs");
        let worst = outcome
            .reports
            .iter()
            .filter(|r| r.all_alive_decided())
            .map(delay_in_delta)
            .fold(0.0f64, f64::max);
        let c = cfg(0, PreStability::silent(), Some(sigma));
        let bound = (c.timing.decision_bound() + c.timing.epsilon()).as_nanos() as f64
            / c.timing.delta().as_nanos() as f64;
        sweep_table.row_owned(vec![
            format!("{sigma_delta}δ"),
            fmt_delta(worst),
            format!("{bound:.1}δ"),
        ]);
        artifact.push(outcome.summary.with_extra("analytic_bound_delta", bound));
    }
    println!("{}", sweep_table.render());
    println!("gating bounds what obsolete ballots can exist; ε-retransmission is");
    println!("what guarantees anything is sent again after a silent pre-TS phase;");
    println!("σ is the recovery pace once a bad session must be waited out.");
    artifact.write();
}
