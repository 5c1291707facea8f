//! The checker's world state and transition semantics.

use esync_core::outbox::{Action, Outbox, Process, Protocol};
use esync_core::time::LocalInstant;
use esync_core::types::{ProcessId, TimerId, Value};
use esync_core::wab::WabMessage;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Adversary budgets for one exploration. Budgets bound the branching of
/// purely destructive transitions; message reordering and timer firing are
/// always unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Budgets {
    /// Messages the adversary may silently drop.
    pub drops: u32,
    /// Crash events (restarts are free; state survives, timers do not).
    pub crashes: u32,
    /// Adversarial leader-oracle events: a process is told it leads.
    pub leader_lies: u32,
}

impl Default for Budgets {
    fn default() -> Self {
        Budgets {
            drops: 1,
            crashes: 1,
            leader_lies: 1,
        }
    }
}

/// A message in flight (the network is a multiset; delivery order is the
/// scheduler's choice).
#[derive(Debug, Clone)]
pub enum Envelope<M> {
    /// A point-to-point protocol message.
    Msg {
        /// Sender.
        from: ProcessId,
        /// Recipient.
        to: ProcessId,
        /// Payload.
        msg: M,
    },
    /// A pending w-delivery from the (fully adversarial) weak-ordering
    /// oracle.
    Wab {
        /// Recipient.
        to: ProcessId,
        /// Payload.
        msg: WabMessage,
    },
}

impl<M: fmt::Debug> Envelope<M> {
    fn key(&self) -> String {
        format!("{self:?}")
    }

    /// The recipient.
    pub fn to(&self) -> ProcessId {
        match self {
            Envelope::Msg { to, .. } | Envelope::Wab { to, .. } => *to,
        }
    }
}

/// One schedulable transition.
#[derive(Debug, Clone)]
pub enum Transition {
    /// Deliver the in-flight message at this index.
    Deliver(usize),
    /// Drop the in-flight message at this index (consumes a drop budget if
    /// the recipient is alive; free if it is down, as the network loses
    /// messages to dead processes anyway).
    Drop(usize),
    /// Fire a pending timer, at an arbitrary (adversarial) moment.
    Fire(ProcessId, TimerId),
    /// Crash a process (consumes a crash budget).
    Crash(ProcessId),
    /// Restart a crashed process (free).
    Restart(ProcessId),
    /// Tell a process that it is the leader (consumes a lie budget).
    LeaderLie(ProcessId),
}

impl Transition {
    /// A short human-readable label for violation traces.
    pub fn label<M: fmt::Debug>(&self, st: &CheckState<impl Protocol<Msg = M>>) -> String {
        match self {
            Transition::Deliver(i) => format!("deliver {}", st.inflight[*i].key()),
            Transition::Drop(i) => format!("drop {}", st.inflight[*i].key()),
            Transition::Fire(p, t) => format!("fire {t} at {p}"),
            Transition::Crash(p) => format!("crash {p}"),
            Transition::Restart(p) => format!("restart {p}"),
            Transition::LeaderLie(p) => format!("tell {p} it leads"),
        }
    }
}

/// The complete checker state: processes, network multiset, pending timer
/// sets, liveness flags, recorded decisions and remaining budgets.
pub struct CheckState<P: Protocol> {
    /// The process state machines.
    pub procs: Vec<P::Process>,
    /// Liveness flags.
    pub alive: Vec<bool>,
    /// The network multiset.
    pub inflight: Vec<Envelope<P::Msg>>,
    /// Pending timers per process (durations are ignored: timers fire
    /// whenever the scheduler pleases).
    pub timers: Vec<BTreeSet<TimerId>>,
    /// First decision recorded per process.
    pub decided: Vec<Option<Value>>,
    /// Remaining adversary budgets.
    pub budgets: Budgets,
    /// Per-process logical step counters (drive the fake local clock).
    pub steps: Vec<u64>,
}

impl<P: Protocol> Clone for CheckState<P>
where
    P::Process: Clone,
{
    fn clone(&self) -> Self {
        CheckState {
            procs: self.procs.clone(),
            alive: self.alive.clone(),
            inflight: self.inflight.clone(),
            timers: self.timers.clone(),
            decided: self.decided.clone(),
            budgets: self.budgets,
            steps: self.steps.clone(),
        }
    }
}

impl<P: Protocol> fmt::Debug for CheckState<P>
where
    P::Process: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckState")
            .field("procs", &self.procs)
            .field("alive", &self.alive)
            .field("inflight", &self.inflight)
            .field("timers", &self.timers)
            .field("decided", &self.decided)
            .field("budgets", &self.budgets)
            .finish()
    }
}

/// A step of fake local time per handled event — large enough that every
/// duration comparison (ε idleness, etc.) sees "long ago".
const TICK_NS: u64 = 3_600_000_000_000; // one hour

impl<P: Protocol> CheckState<P>
where
    P::Process: Clone + fmt::Debug,
{
    /// Boots all `n` processes with `initial_values` and applies their
    /// start-up actions.
    pub fn boot(protocol: &P, n: usize, initial_values: &[Value]) -> Self {
        assert_eq!(initial_values.len(), n);
        let cfg = esync_core::config::TimingConfig::for_n_processes(n).expect("valid n");
        let mut st: CheckState<P> = CheckState {
            procs: ProcessId::all(n)
                .map(|pid| protocol.spawn(pid, &cfg, initial_values[pid.as_usize()]))
                .collect(),
            alive: vec![true; n],
            inflight: Vec::new(),
            timers: vec![BTreeSet::new(); n],
            decided: vec![None; n],
            budgets: Budgets::default(),
            steps: vec![0; n],
        };
        for pid in ProcessId::all(n) {
            let mut out = st.outbox(pid);
            st.procs[pid.as_usize()].on_start(&mut out);
            st.apply_actions(pid, out);
        }
        st
    }

    fn outbox(&mut self, pid: ProcessId) -> Outbox<P::Msg> {
        let i = pid.as_usize();
        self.steps[i] += 1;
        Outbox::new(LocalInstant::from_nanos(self.steps[i] * TICK_NS))
    }

    /// Applies the actions a handler emitted. Returns a violation string if
    /// a process contradicted its own earlier decision.
    pub fn apply_actions(&mut self, pid: ProcessId, mut out: Outbox<P::Msg>) -> Option<String> {
        let n = self.procs.len();
        let i = pid.as_usize();
        for action in out.drain() {
            match action {
                Action::Send { to, msg } => {
                    self.inflight.push(Envelope::Msg { from: pid, to, msg })
                }
                Action::Broadcast { msg } => {
                    for to in ProcessId::all(n) {
                        self.inflight.push(Envelope::Msg {
                            from: pid,
                            to,
                            msg: msg.clone(),
                        });
                    }
                }
                Action::SetTimer { id, .. } => {
                    self.timers[i].insert(id);
                }
                Action::CancelTimer { id } => {
                    self.timers[i].remove(&id);
                }
                Action::Decide { value, .. } => match self.decided[i] {
                    None => self.decided[i] = Some(value),
                    Some(prev) if prev != value => {
                        return Some(format!(
                            "{pid} decided {value} after earlier deciding {prev}"
                        ));
                    }
                    Some(_) => {}
                },
                Action::WabBroadcast { msg } => {
                    // Fully adversarial oracle: one independent pending
                    // w-delivery per process, deliverable in any order.
                    for to in ProcessId::all(n) {
                        self.inflight.push(Envelope::Wab { to, msg });
                    }
                }
            }
        }
        None
    }

    /// Enumerates the enabled transitions, deduplicating identical
    /// in-flight envelopes (delivering either copy reaches the same state).
    pub fn transitions(&self) -> Vec<Transition> {
        let n = self.procs.len();
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        for (idx, env) in self.inflight.iter().enumerate() {
            if !seen.insert(env.key()) {
                continue;
            }
            let to_alive = self.alive[env.to().as_usize()];
            if to_alive {
                out.push(Transition::Deliver(idx));
                if self.budgets.drops > 0 {
                    out.push(Transition::Drop(idx));
                }
            } else {
                // Free loss: the network drops mail to the dead.
                out.push(Transition::Drop(idx));
            }
        }
        for pid in ProcessId::all(n) {
            let i = pid.as_usize();
            if self.alive[i] {
                for t in &self.timers[i] {
                    out.push(Transition::Fire(pid, *t));
                }
                if self.budgets.crashes > 0 {
                    out.push(Transition::Crash(pid));
                }
                if self.budgets.leader_lies > 0 {
                    out.push(Transition::LeaderLie(pid));
                }
            } else {
                out.push(Transition::Restart(pid));
            }
        }
        out
    }

    /// Applies one transition to a clone of this state. Returns the new
    /// state and a violation string if the step itself misbehaved.
    pub fn apply(&self, t: &Transition) -> (CheckState<P>, Option<String>) {
        let mut st = self.clone();
        let violation = match t {
            Transition::Deliver(i) => {
                let env = st.inflight.remove(*i);
                let pid = env.to();
                debug_assert!(st.alive[pid.as_usize()]);
                let mut out = st.outbox(pid);
                match env {
                    Envelope::Msg { from, msg, .. } => {
                        st.procs[pid.as_usize()].on_message(from, &msg, &mut out)
                    }
                    Envelope::Wab { msg, .. } => {
                        st.procs[pid.as_usize()].on_wab_deliver(msg, &mut out)
                    }
                }
                st.apply_actions(pid, out)
            }
            Transition::Drop(i) => {
                let env = st.inflight.remove(*i);
                if st.alive[env.to().as_usize()] {
                    st.budgets.drops -= 1;
                }
                None
            }
            Transition::Fire(pid, timer) => {
                let i = pid.as_usize();
                st.timers[i].remove(timer);
                let mut out = st.outbox(*pid);
                st.procs[i].on_timer(*timer, &mut out);
                st.apply_actions(*pid, out)
            }
            Transition::Crash(pid) => {
                let i = pid.as_usize();
                st.alive[i] = false;
                st.timers[i].clear();
                st.budgets.crashes -= 1;
                None
            }
            Transition::Restart(pid) => {
                let i = pid.as_usize();
                st.alive[i] = true;
                let mut out = st.outbox(*pid);
                st.procs[i].on_restart(&mut out);
                st.apply_actions(*pid, out)
            }
            Transition::LeaderLie(pid) => {
                let i = pid.as_usize();
                st.budgets.leader_lies -= 1;
                let mut out = st.outbox(*pid);
                st.procs[i].on_leader_change(*pid, &mut out);
                st.apply_actions(*pid, out)
            }
        };
        (st, violation)
    }

    /// Checks Agreement and Validity over the recorded decisions.
    pub fn check_safety(&self, initial_values: &[Value]) -> Option<String> {
        let mut agreed: Option<Value> = None;
        for (i, d) in self.decided.iter().enumerate() {
            if let Some(v) = d {
                if !initial_values.contains(v) {
                    return Some(format!("p{i} decided {v}, which nobody proposed"));
                }
                match agreed {
                    None => agreed = Some(*v),
                    Some(a) if a != *v => {
                        return Some(format!("p{i} decided {v} but another decided {a}"));
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// A cheap structural fingerprint for visited-state deduplication.
    ///
    /// Uses the `Debug` rendering of the deterministic parts of the state
    /// (process machines, sorted network multiset, timers, flags). `Debug`
    /// is derived on every state machine in this workspace, so this is a
    /// faithful (if unglamorous) canonical form. The fake local-clock step
    /// counters are deliberately excluded: they advance on every handled
    /// event and are only observable through ε-idleness checks, which the
    /// one-hour tick saturates, so states differing only in step counts
    /// behave identically.
    pub fn fingerprint(&self) -> u64 {
        let mut inflight: Vec<String> = self.inflight.iter().map(|e| e.key()).collect();
        inflight.sort_unstable();
        let mut h = DefaultHasher::new();
        format!("{:?}", self.procs).hash(&mut h);
        self.alive.hash(&mut h);
        inflight.hash(&mut h);
        format!("{:?}", self.timers).hash(&mut h);
        self.decided.hash(&mut h);
        self.budgets.hash(&mut h);
        h.finish()
    }

    /// Whether every live process has decided (used for coverage stats).
    pub fn all_live_decided(&self) -> bool {
        self.alive
            .iter()
            .zip(&self.decided)
            .all(|(alive, d)| !alive || d.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esync_core::paxos::session::SessionPaxos;

    fn vals(n: usize) -> Vec<Value> {
        (0..n as u64).map(|i| Value::new(100 + i)).collect()
    }

    #[test]
    fn boot_seeds_messages_and_timers() {
        let st = CheckState::boot(&SessionPaxos::new(), 2, &vals(2));
        // Each process broadcast an initial 1a to both processes.
        assert_eq!(st.inflight.len(), 4);
        // Session + epsilon timers pending at both.
        assert_eq!(st.timers[0].len(), 2);
        assert_eq!(st.timers[1].len(), 2);
        assert!(st.check_safety(&vals(2)).is_none());
    }

    #[test]
    fn transitions_deduplicate_identical_envelopes() {
        let st = CheckState::boot(&SessionPaxos::new(), 2, &vals(2));
        let delivers = st
            .transitions()
            .iter()
            .filter(|t| matches!(t, Transition::Deliver(_)))
            .count();
        // p0 and p1 each broadcast an identical-per-destination 1a; the
        // four envelopes are pairwise distinct here (different from/to), so
        // all four are deliverable.
        assert_eq!(delivers, 4);
    }

    #[test]
    fn deliver_consumes_and_advances() {
        let st = CheckState::boot(&SessionPaxos::new(), 2, &vals(2));
        let before = st.inflight.len();
        let t = st
            .transitions()
            .into_iter()
            .find(|t| matches!(t, Transition::Deliver(_)))
            .unwrap();
        let (st2, v) = st.apply(&t);
        assert!(v.is_none());
        // One envelope consumed; the handler may have emitted more.
        assert!(st2.inflight.len() >= before - 1);
    }

    #[test]
    fn crash_clears_timers_and_allows_restart() {
        let st = CheckState::boot(&SessionPaxos::new(), 2, &vals(2));
        let (st2, _) = st.apply(&Transition::Crash(ProcessId::new(0)));
        assert!(!st2.alive[0]);
        assert!(st2.timers[0].is_empty());
        assert_eq!(st2.budgets.crashes, Budgets::default().crashes - 1);
        let restarts: Vec<_> = st2
            .transitions()
            .into_iter()
            .filter(|t| matches!(t, Transition::Restart(_)))
            .collect();
        assert_eq!(restarts.len(), 1);
        let (st3, v) = st2.apply(&restarts[0]);
        assert!(v.is_none());
        assert!(st3.alive[0]);
        assert!(!st3.timers[0].is_empty(), "restart re-arms timers");
    }

    #[test]
    fn drop_to_dead_process_is_free() {
        let st = CheckState::boot(&SessionPaxos::new(), 2, &vals(2));
        let (st2, _) = st.apply(&Transition::Crash(ProcessId::new(1)));
        // Envelopes to p1 are only droppable now, at no budget cost.
        let drops_before = st2.budgets.drops;
        let t = st2
            .transitions()
            .into_iter()
            .find(|t| match t {
                Transition::Drop(i) => st2.inflight[*i].to() == ProcessId::new(1),
                _ => false,
            })
            .expect("free drop available");
        let (st3, _) = st2.apply(&t);
        assert_eq!(st3.budgets.drops, drops_before);
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let a = CheckState::boot(&SessionPaxos::new(), 2, &vals(2));
        let b = CheckState::boot(&SessionPaxos::new(), 2, &vals(2));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let t = a
            .transitions()
            .into_iter()
            .find(|t| matches!(t, Transition::Deliver(_)))
            .unwrap();
        let (a2, _) = a.apply(&t);
        assert_ne!(a.fingerprint(), a2.fingerprint());
    }

    #[test]
    fn safety_checker_flags_disagreement() {
        let mut st = CheckState::boot(&SessionPaxos::new(), 2, &vals(2));
        st.decided[0] = Some(Value::new(100));
        st.decided[1] = Some(Value::new(101));
        assert!(st.check_safety(&vals(2)).is_some());
    }

    #[test]
    fn safety_checker_flags_invented_value() {
        let mut st = CheckState::boot(&SessionPaxos::new(), 2, &vals(2));
        st.decided[0] = Some(Value::new(999));
        assert!(st.check_safety(&vals(2)).is_some());
    }
}
