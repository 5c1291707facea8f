//! E10 — the §4 theorem's arithmetic: "every process nonfaulty at time TS
//! has decided by time `TS + ε + 3τ + 5δ`" with `τ = max(2δ+ε, σ)` —
//! "about `TS + 17δ`" for `σ ≈ 4δ`, `ε ≪ δ`.
//!
//! An adversary search: the worst measured `max(decide − TS)` over many
//! seeds and every named adversarial environment, against the analytic
//! bound. (Implementation note: our ε tick can lag one period behind the
//! paper's idealized "within the past ε" test, so the implementation bound
//! adds one ε.) The shape to verify: measured worst < bound, with margin.
//! Each environment's seed batch runs in parallel; results land in
//! `BENCH_exp_e10_bound_check.json`.

use esync_bench::{delay_in_delta, ExperimentArtifact, SweepRunner, Table, TS_MS};
use esync_core::paxos::session::SessionPaxos;
use esync_core::time::RealDuration;
use esync_core::types::ProcessId;
use esync_sim::{adversary, PreStability, Scenario, SimConfig, SimTime, World};

fn base(n: usize, seed: u64, pre: PreStability) -> SimConfig {
    SimConfig::builder(n)
        .seed(seed)
        .stability_at_millis(TS_MS)
        .pre_stability(pre)
        .build()
        .expect("valid config")
}

fn main() {
    let n = 9;
    let seeds = 20u64;
    let runner = SweepRunner::new();
    let mut artifact = ExperimentArtifact::new(
        "exp_e10_bound_check",
        "worst measured decision delay stays under the analytic bound ε+3τ+5δ (+ε impl slack)",
    );
    let mut table = Table::new(
        "E10: worst measured decision delay vs the analytic bound (n=9, 20 seeds each)",
        &[
            "environment",
            "worst decide−TS",
            "paper bound ε+3τ+5δ",
            "impl bound +ε",
        ],
    );

    let cfg0 = base(n, 0, PreStability::chaos());
    let delta = cfg0.timing.delta().as_nanos() as f64;
    let paper_bound = cfg0.timing.decision_bound().as_nanos() as f64 / delta;
    let impl_bound =
        (cfg0.timing.decision_bound() + cfg0.timing.epsilon()).as_nanos() as f64 / delta;

    let mut global_worst: f64 = 0.0;
    // Each environment embeds its own seed-0 config in the artifact;
    // non-config inputs (message injections) are named by the label.
    let mut run_env = |name: &str, mk: &(dyn Fn(u64) -> World<SessionPaxos> + Sync)| {
        let env_cfg = mk(0).config().clone();
        let sweep = runner
            .sweep_fn(name, seeds, Some(env_cfg), |seed| {
                mk(seed).run_to_completion()
            })
            .expect("completes");
        let mut worst: f64 = 0.0;
        for (seed, r) in sweep.reports.iter().enumerate() {
            assert!(r.agreement() && r.validity(), "{name} seed {seed}");
            worst = worst.max(delay_in_delta(r));
        }
        global_worst = global_worst.max(worst);
        table.row_owned(vec![
            name.to_string(),
            format!("{worst:.2}δ"),
            format!("{paper_bound:.2}δ"),
            format!("{impl_bound:.2}δ"),
        ]);
        artifact.push(
            sweep
                .summary
                .with_extra("worst_decide_after_ts_delta", worst)
                .with_extra("paper_bound_delta", paper_bound)
                .with_extra("impl_bound_delta", impl_bound),
        );
    };

    run_env("chaos", &|s| {
        World::new(base(n, s, PreStability::chaos()), SessionPaxos::new())
    });
    run_env("silent (all pre-TS lost)", &|s| {
        World::new(base(n, s, PreStability::silent()), SessionPaxos::new())
    });
    run_env("p0 isolated pre-TS", &|s| {
        World::new(
            base(
                n,
                s,
                PreStability::chaos().with_isolated([ProcessId::new(0)]),
            ),
            SessionPaxos::new(),
        )
    });
    run_env("dead minority (4 of 9)", &|s| {
        let cfg = SimConfig::builder(n)
            .seed(s)
            .stability_at_millis(TS_MS)
            .pre_stability(PreStability::chaos())
            .scenario(adversary::dead_coordinators(4))
            .build()
            .expect("valid config");
        World::new(cfg, SessionPaxos::new())
    });
    run_env("obsolete session-1 injections", &|s| {
        let mut w = World::new(base(n, s, PreStability::silent()), SessionPaxos::new());
        for (at, from, to, msg) in adversary::obsolete_ballots_session(
            n,
            4,
            SimTime::from_millis(TS_MS + 10),
            RealDuration::from_millis(15),
            ProcessId::new(0),
        ) {
            w.inject_message(at, from, to, msg);
        }
        w
    });
    run_env("crash + post-TS restart", &|s| {
        let cfg = SimConfig::builder(n)
            .seed(s)
            .stability_at_millis(TS_MS)
            .pre_stability(PreStability::chaos())
            .scenario(Scenario::none().down_between(
                ProcessId::new(8),
                SimTime::from_millis(20),
                SimTime::from_millis(TS_MS + 200),
            ))
            .build()
            .expect("valid config");
        World::new(cfg, SessionPaxos::new())
    });
    run_env("doomed session entered at TS", &|s| {
        // The harshest legal adversary we know: a silent pre-TS phase, and
        // a session-2 ballot (owner never completes it) delivered right
        // after TS — everyone adopts, resets session timers, and must wait
        // out the timer before a later session can win. This exercises the
        // σ term of τ.
        let mut w = World::new(base(n, s, PreStability::silent()), SessionPaxos::new());
        let owner = ProcessId::new(n as u32 - 1);
        let mbal = esync_core::ballot::Ballot::new(2 * n as u64 + owner.as_u32() as u64);
        w.inject_message(
            SimTime::from_millis(TS_MS + 5),
            owner,
            ProcessId::new(0),
            esync_core::paxos::messages::PaxosMsg::P1a { mbal },
        );
        w
    });

    println!("{}", table.render());
    println!(
        "global worst {global_worst:.2}δ vs paper bound {paper_bound:.2}δ (impl bound {impl_bound:.2}δ)"
    );
    assert!(
        global_worst <= impl_bound,
        "bound violated: {global_worst:.2}δ > {impl_bound:.2}δ"
    );
    println!("bound holds with margin across all adversarial environments.");
    artifact.write();
}
