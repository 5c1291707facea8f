//! E3 — §3's pathology for rotating-coordinator round-based algorithms:
//! "Since there could be ⌈N/2⌉−1 faulty processes, they could require O(N)
//! rounds to reach consensus, each round taking O(δ) seconds."
//!
//! The `f` lowest-id processes (coordinators of rounds `0..f`) are dead
//! forever; the network is synchronous from `t = 0`. The shape to verify:
//! the rotating-coordinator column grows by ~one round timeout per dead
//! coordinator; leaderless modified Paxos does not care who is dead.
//! Both `f`-series run in parallel; results land in
//! `BENCH_exp_e3_dead_coordinators.json`.

use esync_bench::{delay_in_delta, fmt_delta, ExperimentArtifact, SweepRunner, Table};
use esync_core::outbox::Protocol;
use esync_core::paxos::session::SessionPaxos;
use esync_core::round_based::RotatingCoordinator;
use esync_sim::{adversary, PreStability, SimConfig, World};

fn cfg(n: usize, f: usize) -> SimConfig {
    SimConfig::builder(n)
        .seed(2)
        .stability_at_millis(0)
        .pre_stability(PreStability::lossless())
        .scenario(adversary::dead_coordinators(f))
        .build()
        .expect("valid config")
}

fn sweep<P: Protocol>(
    runner: &SweepRunner,
    n: usize,
    label: &str,
    mk: impl Fn() -> P + Sync,
) -> esync_bench::SweepOutcome {
    // No single config represents this sweep: the fault script differs
    // per record (record index f = number of dead coordinators), so the
    // artifact embeds none and the label documents the mapping.
    runner
        .sweep_fn(label, 6, None, |f| {
            World::new(cfg(n, f as usize), mk()).run_to_completion()
        })
        .expect("completes")
}

fn main() {
    let n = 11; // up to f = 5 dead
    let runner = SweepRunner::new();
    let rot = sweep(
        &runner,
        n,
        "rotating f=0..=5 (record index = f dead coordinators)",
        RotatingCoordinator::new,
    );
    let sess = sweep(
        &runner,
        n,
        "session f=0..=5 (record index = f dead coordinators)",
        SessionPaxos::new,
    );
    let mut table = Table::new(
        "E3: decision delay vs f dead coordinators (n=11, synchronous from t=0)",
        &["f", "rotating coordinator", "modified Paxos"],
    );
    for f in 0..=5usize {
        table.row_owned(vec![
            f.to_string(),
            fmt_delta(delay_in_delta(&rot.reports[f])),
            fmt_delta(delay_in_delta(&sess.reports[f])),
        ]);
    }
    println!("{}", table.render());
    println!("each dead coordinator burns ~1 round timeout (4δ·(1+ρ) here);");
    println!("modified Paxos elects implicitly, so dead minorities cost nothing.");

    let mut artifact = ExperimentArtifact::new(
        "exp_e3_dead_coordinators",
        "f dead coordinators cost rotating-coordinator O(fδ); modified Paxos is flat",
    );
    artifact.push(rot.summary);
    artifact.push(sess.summary);
    artifact.write();
}
