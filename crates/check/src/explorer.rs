//! Exhaustive and randomized schedule exploration.

use crate::state::CheckState;
use esync_core::outbox::Protocol;
use esync_core::types::Value;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashSet, VecDeque};
use std::fmt;

pub use crate::state::Budgets;

/// A safety violation with the schedule that produced it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What went wrong.
    pub kind: String,
    /// The transition labels from the initial state to the violation.
    pub trace: Vec<String>,
}

/// Exploration statistics and outcome.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Distinct states visited (exhaustive mode) or steps taken (random
    /// mode).
    pub states_seen: usize,
    /// Transitions applied.
    pub transitions: usize,
    /// Exhaustive mode: `true` if the frontier emptied within the bounds —
    /// the state space up to the budgets/depth was covered *completely*.
    pub frontier_exhausted: bool,
    /// The deepest schedule prefix reached.
    pub max_depth_reached: usize,
    /// States in which every live process had decided.
    pub decided_states: usize,
    /// The violation, if any was found.
    pub violation: Option<Violation>,
}

/// A protocol-specific state invariant checked in every explored state;
/// returns `Some(description)` on violation.
pub type Invariant<P> = Box<dyn Fn(&CheckState<P>) -> Option<String>>;

/// Configurable explorer over one protocol's schedules.
pub struct Explorer<P: Protocol> {
    protocol: P,
    n: usize,
    budgets: Budgets,
    max_depth: usize,
    max_states: usize,
    initial_values: Vec<Value>,
    invariant: Option<Invariant<P>>,
}

impl<P: Protocol> fmt::Debug for Explorer<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Explorer")
            .field("protocol", &self.protocol.name())
            .field("n", &self.n)
            .field("budgets", &self.budgets)
            .field("max_depth", &self.max_depth)
            .field("max_states", &self.max_states)
            .finish()
    }
}

impl<P> Explorer<P>
where
    P: Protocol,
    P::Process: Clone + fmt::Debug,
{
    /// Creates an explorer for `n` processes proposing `100 + i`.
    pub fn new(protocol: P, n: usize) -> Self {
        Explorer {
            protocol,
            n,
            budgets: Budgets::default(),
            max_depth: 10,
            max_states: 100_000,
            initial_values: (0..n as u64).map(|i| Value::new(100 + i)).collect(),
            invariant: None,
        }
    }

    /// Installs a protocol-specific invariant, checked in every explored
    /// state in addition to Agreement and Validity (e.g. the §4 proof's
    /// step 1: no reachable ballot runs more than one session ahead of
    /// what a majority has entered).
    pub fn invariant(mut self, inv: Invariant<P>) -> Self {
        self.invariant = Some(inv);
        self
    }

    /// Sets the adversary budgets.
    pub fn budgets(mut self, budgets: Budgets) -> Self {
        self.budgets = budgets;
        self
    }

    /// Sets the schedule depth bound (exhaustive mode).
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }

    /// Sets the distinct-state cap (exhaustive mode).
    pub fn max_states(mut self, states: usize) -> Self {
        self.max_states = states;
        self
    }

    /// Sets explicit initial values.
    ///
    /// # Panics
    ///
    /// Panics if the count differs from `n`.
    pub fn initial_values(mut self, values: Vec<Value>) -> Self {
        assert_eq!(values.len(), self.n, "one initial value per process");
        self.initial_values = values;
        self
    }

    fn initial_state(&self) -> CheckState<P> {
        let mut st = CheckState::boot(&self.protocol, self.n, &self.initial_values);
        st.budgets = self.budgets;
        st
    }

    /// Exhaustive BFS over all schedules up to the bounds, deduplicating
    /// visited states. Stops at the first violation, at `max_states`
    /// distinct states, or when the frontier empties.
    pub fn explore(&self) -> CheckReport {
        // Parent-pointer arena for trace reconstruction.
        let mut arena: Vec<(usize, String)> = vec![(usize::MAX, String::new())];
        let mut report = CheckReport {
            states_seen: 0,
            transitions: 0,
            frontier_exhausted: false,
            max_depth_reached: 0,
            decided_states: 0,
            violation: None,
        };
        let root = self.initial_state();
        if let Some(kind) = root.check_safety(&self.initial_values) {
            report.violation = Some(Violation {
                kind,
                trace: Vec::new(),
            });
            return report;
        }
        let mut visited: HashSet<u64> = HashSet::new();
        visited.insert(root.fingerprint());
        let mut frontier: VecDeque<(CheckState<P>, usize, usize)> = VecDeque::new();
        frontier.push_back((root, 0, 0)); // (state, arena node, depth)
        report.states_seen = 1;

        while let Some((state, node, depth)) = frontier.pop_front() {
            report.max_depth_reached = report.max_depth_reached.max(depth);
            if state.all_live_decided() {
                report.decided_states += 1;
            }
            if depth >= self.max_depth {
                continue;
            }
            for t in state.transitions() {
                report.transitions += 1;
                let label = t.label(&state);
                let (next, step_violation) = state.apply(&t);
                let kind = step_violation
                    .or_else(|| next.check_safety(&self.initial_values))
                    .or_else(|| self.invariant.as_ref().and_then(|inv| inv(&next)));
                if let Some(kind) = kind {
                    let mut trace = vec![label];
                    let mut cursor = node;
                    while cursor != 0 {
                        let (parent, l) = &arena[cursor];
                        trace.push(l.clone());
                        cursor = *parent;
                    }
                    trace.reverse();
                    report.violation = Some(Violation { kind, trace });
                    return report;
                }
                if visited.insert(next.fingerprint()) {
                    report.states_seen += 1;
                    arena.push((node, label));
                    frontier.push_back((next, arena.len() - 1, depth + 1));
                    if report.states_seen >= self.max_states {
                        return report; // bounds hit; not exhausted
                    }
                }
            }
        }
        report.frontier_exhausted = true;
        report
    }

    /// `walks` independent adversarial random walks of up to `steps`
    /// transitions each. Cheap probabilistic coverage for configurations
    /// too large to exhaust.
    pub fn random_walks(&self, walks: usize, steps: usize, seed: u64) -> CheckReport {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut report = CheckReport {
            states_seen: 0,
            transitions: 0,
            frontier_exhausted: false,
            max_depth_reached: 0,
            decided_states: 0,
            violation: None,
        };
        for _ in 0..walks {
            let mut state = self.initial_state();
            let mut trace: Vec<String> = Vec::new();
            for depth in 0..steps {
                let ts = state.transitions();
                if ts.is_empty() {
                    break;
                }
                let t = &ts[rng.gen_range(0..ts.len())];
                trace.push(t.label(&state));
                let (next, step_violation) = state.apply(t);
                report.transitions += 1;
                report.states_seen += 1;
                report.max_depth_reached = report.max_depth_reached.max(depth + 1);
                let kind = step_violation
                    .or_else(|| next.check_safety(&self.initial_values))
                    .or_else(|| self.invariant.as_ref().and_then(|inv| inv(&next)));
                if let Some(kind) = kind {
                    report.violation = Some(Violation { kind, trace });
                    return report;
                }
                state = next;
            }
            if state.all_live_decided() {
                report.decided_states += 1;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esync_core::bconsensus::BConsensus;
    use esync_core::outbox::{Outbox, Process};
    use esync_core::paxos::session::SessionPaxos;
    use esync_core::round_based::RotatingCoordinator;
    use esync_core::types::{ProcessId, TimerId};

    #[test]
    fn session_paxos_exhaustive_two_processes() {
        let report = Explorer::new(SessionPaxos::new(), 2)
            .budgets(Budgets {
                drops: 1,
                crashes: 1,
                leader_lies: 0,
            })
            .max_depth(7)
            .max_states(60_000)
            .explore();
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(
            report.states_seen > 1_000,
            "covered {} states",
            report.states_seen
        );
    }

    #[test]
    fn rotating_coordinator_exhaustive_two_processes() {
        let report = Explorer::new(RotatingCoordinator::new(), 2)
            .max_depth(7)
            .max_states(60_000)
            .explore();
        assert!(report.violation.is_none(), "{:?}", report.violation);
    }

    #[test]
    fn bconsensus_modified_exhaustive_two_processes() {
        let report = Explorer::new(BConsensus::modified(), 2)
            .max_depth(6)
            .max_states(60_000)
            .explore();
        assert!(report.violation.is_none(), "{:?}", report.violation);
    }

    #[test]
    fn random_walks_cover_deep_schedules() {
        let report = Explorer::new(SessionPaxos::new(), 3)
            .budgets(Budgets {
                drops: 3,
                crashes: 2,
                leader_lies: 0,
            })
            .random_walks(30, 150, 42);
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.max_depth_reached >= 100);
    }

    /// A deliberately broken protocol: decides its own value immediately.
    /// The checker must catch the disagreement.
    #[derive(Debug, Clone)]
    struct Dictator;
    #[derive(Debug, Clone)]
    struct DictatorProc {
        id: ProcessId,
        v: Value,
        decided: Option<Value>,
    }
    impl Process for DictatorProc {
        type Msg = ();
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_start(&mut self, out: &mut Outbox<()>) {
            self.decided = Some(self.v);
            out.decide(self.v);
        }
        fn on_message(&mut self, _f: ProcessId, _m: &(), _o: &mut Outbox<()>) {}
        fn on_timer(&mut self, _t: TimerId, _o: &mut Outbox<()>) {}
        fn on_restart(&mut self, _o: &mut Outbox<()>) {}
        fn decision(&self) -> Option<Value> {
            self.decided
        }
    }
    impl Protocol for Dictator {
        type Msg = ();
        type Process = DictatorProc;
        fn name(&self) -> &'static str {
            "dictator"
        }
        fn spawn(
            &self,
            id: ProcessId,
            _cfg: &esync_core::config::TimingConfig,
            initial: Value,
        ) -> DictatorProc {
            DictatorProc {
                id,
                v: initial,
                decided: None,
            }
        }
    }

    #[test]
    fn checker_catches_broken_protocols() {
        let report = Explorer::new(Dictator, 2).max_depth(2).explore();
        let v = report.violation.expect("dictator disagrees at boot");
        assert!(v.kind.contains("decided"), "{v:?}");
    }

    #[test]
    fn report_counts_decided_states() {
        // With no adversary and tiny depth, some explored states decide.
        let report = Explorer::new(SessionPaxos::new(), 1)
            .budgets(Budgets {
                drops: 0,
                crashes: 0,
                leader_lies: 0,
            })
            .max_depth(10)
            .max_states(20_000)
            .explore();
        assert!(report.violation.is_none());
        assert!(report.decided_states > 0, "{report:?}");
    }
}
