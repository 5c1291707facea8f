//! Model-checking integration: safety of every protocol under exhaustive
//! small-world schedules and deep adversarial random walks — schedules far
//! outside what any timed network produces (arbitrary reordering, early
//! timers, lying leader oracles, adversarial weak-ordering oracles).

use esync::check::{Budgets, Explorer};
use esync::core::bconsensus::BConsensus;
use esync::core::paxos::group::LogGroup;
use esync::core::paxos::multi::MultiPaxos;
use esync::core::paxos::session::SessionPaxos;
use esync::core::paxos::traditional::TraditionalPaxos;
use esync::core::round_based::RotatingCoordinator;

#[test]
fn session_paxos_exhaustive_small_world() {
    let report = Explorer::new(SessionPaxos::new(), 2)
        .budgets(Budgets {
            drops: 1,
            crashes: 1,
            leader_lies: 0,
        })
        .max_depth(8)
        .max_states(120_000)
        .explore();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.states_seen > 5_000);
}

#[test]
fn traditional_paxos_safe_under_lying_leader_oracle() {
    // Leadership is only a progress hint; even an oracle that tells several
    // processes they lead must not break agreement.
    let report = Explorer::new(TraditionalPaxos::new(), 2)
        .budgets(Budgets {
            drops: 1,
            crashes: 0,
            leader_lies: 2,
        })
        .max_depth(8)
        .max_states(120_000)
        .explore();
    assert!(report.violation.is_none(), "{:?}", report.violation);
}

#[test]
fn rotating_coordinator_exhaustive_small_world() {
    let report = Explorer::new(RotatingCoordinator::new(), 2)
        .budgets(Budgets {
            drops: 1,
            crashes: 1,
            leader_lies: 0,
        })
        .max_depth(8)
        .max_states(120_000)
        .explore();
    assert!(report.violation.is_none(), "{:?}", report.violation);
}

#[test]
fn bconsensus_modified_exhaustive_small_world() {
    let report = Explorer::new(BConsensus::modified(), 2)
        .budgets(Budgets {
            drops: 1,
            crashes: 1,
            leader_lies: 0,
        })
        .max_depth(7)
        .max_states(120_000)
        .explore();
    assert!(report.violation.is_none(), "{:?}", report.violation);
}

#[test]
fn bconsensus_original_safe_under_adversarial_oracle() {
    // The checker's WAB oracle delivers w-broadcasts per process in ANY
    // order — far weaker than §5's spontaneous-order assumption. Liveness
    // is forfeit; agreement must survive.
    let report = Explorer::new(BConsensus::original(), 2)
        .budgets(Budgets {
            drops: 1,
            crashes: 0,
            leader_lies: 0,
        })
        .max_depth(7)
        .max_states(120_000)
        .explore();
    assert!(report.violation.is_none(), "{:?}", report.violation);
}

/// What the two log runs below check, and what they do not: the checker
/// never calls `on_client`, so no command is ever submitted and no slot is
/// ever proposed. These schedules explore the **session / phase-1
/// skeleton** of the log group — the plain log (S = 1) and S = 2: Start
/// Phase 1, adopt, the promise quorum, anchoring on empty folds,
/// crash/restart, arbitrary reordering and early timers — with every
/// `debug_assert!` in the log layers as the oracle. They check nothing
/// about log agreement; per-slot agreement under the checker is ROADMAP
/// open item 4(a).
#[test]
fn multipaxos_exhaustive_small_world() {
    let budgets = Budgets {
        drops: 1,
        crashes: 1,
        leader_lies: 0,
    };
    let report = Explorer::new(MultiPaxos::new(), 2)
        .budgets(budgets)
        .max_depth(7)
        .max_states(120_000)
        .explore();
    assert!(report.violation.is_none(), "S = 1: {:?}", report.violation);
    let report = Explorer::new(LogGroup::new(2), 2)
        .budgets(budgets)
        .max_depth(7)
        .max_states(120_000)
        .explore();
    assert!(report.violation.is_none(), "S = 2: {:?}", report.violation);
}

/// For the two log runs at the end (S = 1 and S = 2), the same caveat as
/// [`multipaxos_exhaustive_small_world`]: no command is submitted, so the
/// walks exercise the session skeleton under the debug assertions, not
/// log agreement.
#[test]
fn deep_random_walks_three_processes_all_protocols() {
    let budgets = Budgets {
        drops: 4,
        crashes: 2,
        leader_lies: 2,
    };
    let r = Explorer::new(SessionPaxos::new(), 3)
        .budgets(budgets)
        .random_walks(25, 200, 1);
    assert!(r.violation.is_none(), "session: {:?}", r.violation);
    let r = Explorer::new(TraditionalPaxos::new(), 3)
        .budgets(budgets)
        .random_walks(25, 200, 2);
    assert!(r.violation.is_none(), "traditional: {:?}", r.violation);
    let r = Explorer::new(RotatingCoordinator::new(), 3)
        .budgets(budgets)
        .random_walks(25, 200, 3);
    assert!(r.violation.is_none(), "rotating: {:?}", r.violation);
    let r = Explorer::new(BConsensus::modified(), 3)
        .budgets(budgets)
        .random_walks(25, 200, 4);
    assert!(r.violation.is_none(), "bconsensus: {:?}", r.violation);
    let r = Explorer::new(MultiPaxos::new(), 3)
        .budgets(budgets)
        .random_walks(25, 200, 5);
    assert!(r.violation.is_none(), "log, S = 1: {:?}", r.violation);
    let r = Explorer::new(LogGroup::new(2), 3)
        .budgets(budgets)
        .random_walks(25, 200, 6);
    assert!(r.violation.is_none(), "log, S = 2: {:?}", r.violation);
}
