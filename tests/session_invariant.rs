//! The §4 proof's **step 1** as a runtime-checked invariant:
//!
//! > "At any time after TS, all messages sent before TS and all failed
//! > processes have session number at most s0 + 1. Proof: A Start Phase 1
//! > action that advances a process session to s cannot be executed until
//! > a majority of processes are in session s−1, and any majority of
//! > processes contains a process in W."
//!
//! The checkable core: **whenever any process is in session `s ≥ 1`, a
//! majority of processes must have reached session `s − 1` or higher.**
//! We verify it two ways: stepping the timed simulator under chaos, and
//! exhaustively in the model checker (where it also guards every crash /
//! drop / reordering schedule).

use esync::check::{Budgets, Explorer};
use esync::core::paxos::session::SessionPaxos;
use esync::core::quorum::majority;
use esync::core::types::ProcessId;
use esync::sim::{PreStability, SimConfig, World};

/// Sessions of all processes → the invariant violation, if any.
fn violated(sessions: &[u64], alive_sessions_count: usize) -> Option<String> {
    let n = sessions.len();
    let _ = alive_sessions_count;
    let max = *sessions.iter().max()?;
    if max == 0 {
        return None;
    }
    let at_least_prev = sessions.iter().filter(|&&s| s + 1 >= max).count();
    (at_least_prev < majority(n)).then(|| {
        format!(
            "a process reached session {max} but only {at_least_prev} of {n} are at {} or higher",
            max - 1
        )
    })
}

#[test]
fn gating_invariant_holds_in_timed_chaos_runs() {
    for seed in 0..10 {
        let cfg = SimConfig::builder(5)
            .seed(seed)
            .stability_at_millis(300)
            .pre_stability(PreStability::chaos())
            .build()
            .unwrap();
        let mut w = World::new(cfg, SessionPaxos::new());
        let mut steps = 0u64;
        loop {
            if w.complete() || !w.step() {
                break;
            }
            steps += 1;
            let sessions: Vec<u64> = ProcessId::all(5)
                .map(|p| w.process(p).session().get())
                .collect();
            assert!(
                violated(&sessions, 5).is_none(),
                "seed {seed} step {steps}: {:?} — {:?}",
                sessions,
                violated(&sessions, 5)
            );
            assert!(steps < 2_000_000, "runaway");
        }
    }
}

#[test]
fn gating_invariant_holds_under_exhaustive_schedules() {
    let report = Explorer::new(SessionPaxos::new(), 2)
        .budgets(Budgets {
            drops: 1,
            crashes: 1,
            leader_lies: 0,
        })
        .max_depth(7)
        .max_states(60_000)
        .invariant(Box::new(|st| {
            let sessions: Vec<u64> = st.procs.iter().map(|p| p.session().get()).collect();
            violated(&sessions, st.procs.len())
        }))
        .explore();
    assert!(report.violation.is_none(), "{:?}", report.violation);
}

#[test]
fn invariant_checker_rejects_ungated_variant() {
    // Sanity for the invariant itself: with gating ablated, a process can
    // run arbitrarily far ahead; the checker must notice.
    use esync::core::paxos::session::Ablation;
    let report = Explorer::new(
        SessionPaxos::with_ablation(Ablation {
            session_gating: false,
            ..Ablation::full()
        }),
        2,
    )
    .budgets(Budgets {
        drops: 0,
        crashes: 0,
        leader_lies: 0,
    })
    .max_depth(8)
    .max_states(60_000)
    .invariant(Box::new(|st| {
        let sessions: Vec<u64> = st.procs.iter().map(|p| p.session().get()).collect();
        violated(&sessions, st.procs.len())
    }))
    .explore();
    let v = report
        .violation
        .expect("ungated sessions must outrun the majority somewhere");
    assert!(v.kind.contains("session"), "{v:?}");
}
