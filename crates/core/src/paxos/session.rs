//! The paper's **modified Paxos** (§4) — consensus by `TS + O(δ)`.
//!
//! The algorithm refines traditional Paxos with four changes that together
//! eliminate both leader election and the `O(Nδ)` obsolete-ballot pathology:
//!
//! 1. **Sessions.** Ballot `b`'s session is `⌊b/N⌋`. A process may only
//!    *start phase 1* (entering session `s+1`) after it has received a
//!    message of its current session `s` from a majority of processes (or
//!    is still in session 0). Hence whenever a majority is nonfaulty, any
//!    session-`s` message implies a nonfaulty process is in session `s−1`
//!    or higher — obsolete messages and restarted processes can be at most
//!    one session ahead of the nonfaulty maximum (proof step 1).
//! 2. **Session timer.** Entering a session resets a timer that (after
//!    `TS`) fires between `4δ` and `σ` later. Start Phase 1 additionally
//!    requires the timer to have expired, so a session that is going to
//!    succeed gets the `4δ` it needs (proof step 6c).
//! 3. **Phase 1a on session entry.** A process broadcasts a phase 1a
//!    message whenever it *begins* a new session (however it got there),
//!    spreading the highest ballot fast.
//! 4. **ε-retransmission.** A process that has sent no 1a/2a for `ε`
//!    broadcasts a 1a with its current ballot, so after `TS` everyone
//!    learns the system state within `ε + δ` even if all earlier messages
//!    were lost.
//!
//! There is no Reject action and no leader oracle: leadership is implicit
//! (the owner of the highest ballot in the newest session wins).
//!
//! The [`Ablation`] knobs exist for experiment E9, which shows each
//! modification is load-bearing.

use crate::ballot::{Ballot, Session};
use crate::config::TimingConfig;
use crate::outbox::{Outbox, Process, Protocol};
use crate::paxos::messages::PaxosMsg;
use crate::paxos::state::{DecisionTracker, P1bQuorum, VotingState};
use crate::quorum::QuorumTracker;
use crate::time::LocalInstant;
use crate::trace::TraceEvent;
use crate::types::{ProcessId, TimerId, Value};

/// Timer id of the session timer (fires `[4δ, σ]` after session entry).
pub const TIMER_SESSION: TimerId = TimerId::new(0);
/// Timer id of the ε-retransmission tick.
pub const TIMER_EPSILON: TimerId = TimerId::new(1);

/// Feature switches for experiment E9 ("each modification is load-bearing").
/// The real algorithm is [`Ablation::full`]; disabling a field removes one
/// of the paper's modifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ablation {
    /// Require majority-of-current-session before Start Phase 1 (change 1).
    pub session_gating: bool,
    /// Broadcast 1a every `ε` when idle (change 4).
    pub epsilon_retransmit: bool,
    /// Broadcast 1a whenever a new session is entered by adoption
    /// (change 3; Start Phase 1 itself always broadcasts its 1a).
    pub p1a_on_entry: bool,
}

impl Ablation {
    /// The full paper algorithm.
    pub const fn full() -> Self {
        Ablation {
            session_gating: true,
            epsilon_retransmit: true,
            p1a_on_entry: true,
        }
    }
}

impl Default for Ablation {
    fn default() -> Self {
        Ablation::full()
    }
}

/// Protocol factory for modified Paxos. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct SessionPaxos {
    ablation: Ablation,
    ack_suppression: bool,
}

impl SessionPaxos {
    /// The full paper algorithm.
    pub fn new() -> Self {
        SessionPaxos::default()
    }

    /// An ablated variant (experiment E9).
    pub fn with_ablation(ablation: Ablation) -> Self {
        SessionPaxos {
            ablation,
            ack_suppression: false,
        }
    }

    /// Enables the §4 "Reducing Message Complexity" optimization: "a
    /// process does not resend a phase 1a message to another process that
    /// has already received it". A message from `q` in our current session
    /// is the acknowledgement (piggybacked, as the paper suggests): `q`
    /// evidently has the session, so ε-retransmissions go only to processes
    /// not yet heard from. Start Phase 1 and session-entry announcements
    /// still broadcast, so liveness is untouched.
    pub fn with_ack_suppression(mut self) -> Self {
        self.ack_suppression = true;
        self
    }
}

impl Protocol for SessionPaxos {
    type Msg = PaxosMsg;
    type Process = SessionPaxosProcess;

    fn name(&self) -> &'static str {
        if self.ack_suppression {
            return "session-paxos/ack-suppressed";
        }
        match (
            self.ablation.session_gating,
            self.ablation.epsilon_retransmit,
            self.ablation.p1a_on_entry,
        ) {
            (true, true, true) => "session-paxos",
            (false, true, true) => "session-paxos/no-gating",
            (true, false, true) => "session-paxos/no-retransmit",
            (true, true, false) => "session-paxos/no-entry-1a",
            _ => "session-paxos/ablated",
        }
    }

    fn kind_of(msg: &PaxosMsg) -> &'static str {
        msg.kind()
    }

    fn spawn(&self, id: ProcessId, cfg: &TimingConfig, initial: Value) -> SessionPaxosProcess {
        SessionPaxosProcess {
            id,
            cfg: *cfg,
            initial,
            voting: VotingState::initial(id),
            decided: None,
            p1b: None,
            chosen: None,
            decisions: DecisionTracker::new(),
            session_heard: QuorumTracker::new(cfg.n()),
            timer_expired: false,
            last_p1a2a: None,
            ablation: self.ablation,
            ack_suppression: self.ack_suppression,
        }
    }
}

/// One modified-Paxos process. All fields model the paper's stable storage
/// (they survive crashes); timers do not and are re-armed in
/// [`Process::on_restart`].
#[derive(Debug, Clone)]
pub struct SessionPaxosProcess {
    id: ProcessId,
    cfg: TimingConfig,
    initial: Value,
    voting: VotingState,
    decided: Option<Value>,
    /// Phase-1b quorum for the ballot we currently own (if we started it).
    p1b: Option<P1bQuorum>,
    /// The value we issued a 2a for, per owned ballot — never changes for a
    /// given ballot (Paxos safety).
    chosen: Option<(Ballot, Value)>,
    decisions: DecisionTracker,
    /// Processes heard from with a message of our current session
    /// (Start Phase 1 condition (ii)).
    session_heard: QuorumTracker,
    /// Whether the session timer has expired in the current session
    /// (Start Phase 1 condition (i)).
    timer_expired: bool,
    last_p1a2a: Option<LocalInstant>,
    ablation: Ablation,
    ack_suppression: bool,
}

impl SessionPaxosProcess {
    /// The process's current ballot `mbal[p]`.
    pub fn mbal(&self) -> Ballot {
        self.voting.mbal
    }

    /// The process's current session `⌊mbal/N⌋`.
    pub fn session(&self) -> Session {
        self.voting.mbal.session(self.cfg.n())
    }

    /// Number of distinct processes heard from in the current session.
    pub fn session_heard_count(&self) -> usize {
        self.session_heard.count()
    }

    fn broadcast_p1a(&mut self, out: &mut Outbox<PaxosMsg>) {
        let mbal = self.voting.mbal;
        out.event(TraceEvent::OneASent { ballot: mbal.get() });
        out.broadcast(PaxosMsg::P1a { mbal });
        self.last_p1a2a = Some(out.now());
    }

    /// Common bookkeeping for entering the session of the (already updated)
    /// current ballot: reset the session timer, clear the heard-set, and —
    /// per the paper's change 3 — announce the new session with a 1a.
    fn enter_session(&mut self, announce: bool, out: &mut Outbox<PaxosMsg>) {
        self.session_heard.clear();
        self.timer_expired = false;
        out.set_timer(TIMER_SESSION, self.cfg.session_timer_local());
        if announce {
            self.broadcast_p1a(out);
        }
    }

    /// Adopts a higher ballot seen in a 1a/2a message; enters its session if
    /// that is higher than ours.
    fn adopt(&mut self, b: Ballot, out: &mut Outbox<PaxosMsg>) {
        debug_assert!(b > self.voting.mbal);
        let old_session = self.session();
        self.voting.mbal = b;
        // Any quorum we were collecting for a lower owned ballot is stale:
        // we will never issue a 2a for it again.
        if self.p1b.as_ref().is_some_and(|q| q.ballot() < b) {
            self.p1b = None;
        }
        if self.chosen.is_some_and(|(cb, _)| cb < b) {
            self.chosen = None;
        }
        if b.session(self.cfg.n()) > old_session {
            self.enter_session(self.ablation.p1a_on_entry, out);
        }
    }

    /// The paper's **Start Phase 1** action. Preconditions (checked by
    /// [`Self::try_start_phase1`]): session timer expired, and session 0 or
    /// a majority heard in the current session.
    fn start_phase1(&mut self, out: &mut Outbox<PaxosMsg>) {
        let next = self.voting.mbal.next_session(self.id, self.cfg.n());
        self.voting.mbal = next;
        self.p1b = Some(P1bQuorum::new(next, self.cfg.n()));
        self.chosen = None;
        // Start Phase 1's own 1a broadcast is part of core Paxos and is
        // never ablated; `enter_session` resets timer + heard-set.
        self.enter_session(false, out);
        self.broadcast_p1a(out);
    }

    fn try_start_phase1(&mut self, out: &mut Outbox<PaxosMsg>) {
        if self.decided.is_some() || !self.timer_expired {
            return;
        }
        let may_advance = !self.ablation.session_gating
            || self.session() == Session::ZERO
            || self.session_heard.reached();
        if may_advance {
            self.start_phase1(out);
        }
    }

    fn decide(&mut self, v: Value, out: &mut Outbox<PaxosMsg>) {
        if self.decided.is_some() {
            return;
        }
        self.decided = Some(v);
        out.event(TraceEvent::Decided {
            shard: 0,
            slot: 0,
            value: v.get(),
        });
        out.decide(v);
        out.cancel_timer(TIMER_SESSION);
        // Announce immediately; the ε tick keeps re-announcing so processes
        // that restart later decide within O(δ) of restarting.
        out.broadcast(PaxosMsg::Decided { value: v });
    }
}

impl Process for SessionPaxosProcess {
    type Msg = PaxosMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_start(&mut self, out: &mut Outbox<PaxosMsg>) {
        // "Session timers are set initially to time out within σ seconds."
        out.set_timer(TIMER_SESSION, self.cfg.session_timer_local());
        out.set_timer(TIMER_EPSILON, self.cfg.epsilon_timer_local());
        // Announce our initial ballot (the ε rule would force this within ε
        // anyway; doing it immediately speeds up the stable case).
        self.broadcast_p1a(out);
    }

    fn on_message(&mut self, from: ProcessId, msg: &PaxosMsg, out: &mut Outbox<PaxosMsg>) {
        if self.decided.is_some() {
            // A decided process answers everything with its decision.
            if let Some(v) = self.decided {
                if !matches!(*msg, PaxosMsg::Decided { .. }) {
                    out.send(from, PaxosMsg::Decided { value: v });
                }
            }
            return;
        }
        match *msg {
            PaxosMsg::P1a { mbal } => {
                if mbal > self.voting.mbal {
                    self.adopt(mbal, out);
                }
                if mbal == self.voting.mbal {
                    // Reply (and re-reply on duplicates: the original 1b may
                    // have been lost before TS) to the ballot's owner.
                    out.send(
                        mbal.owner(self.cfg.n()),
                        PaxosMsg::P1b {
                            mbal,
                            last_vote: self.voting.last_vote,
                        },
                    );
                }
                // mbal < ours: ignored — timeouts replace the Reject action.
            }
            PaxosMsg::P1b { mbal, last_vote } => {
                if mbal == self.voting.mbal {
                    if let Some(q) = self.p1b.as_mut() {
                        if q.ballot() == mbal {
                            let reached_now = q.record(from, last_vote);
                            if reached_now {
                                out.event(TraceEvent::PromiseQuorum { ballot: mbal.get() });
                                let value = q.pick_value(self.initial);
                                self.chosen = Some((mbal, value));
                            }
                            if let Some((cb, cv)) = self.chosen {
                                if cb == mbal && (reached_now || q.reached()) {
                                    // (Re-)issue phase 2a — always the same
                                    // value for this ballot.
                                    out.event(TraceEvent::Proposed {
                                        shard: 0,
                                        slot: 0,
                                        value: cv.get(),
                                    });
                                    out.broadcast(PaxosMsg::P2a { mbal, value: cv });
                                    self.last_p1a2a = Some(out.now());
                                }
                            }
                        }
                    }
                }
            }
            PaxosMsg::P2a { mbal, value } => {
                if mbal >= self.voting.mbal {
                    if mbal > self.voting.mbal {
                        self.adopt(mbal, out);
                    }
                    self.voting.record_vote(mbal, value);
                    // "sends a phase 2b message to every process."
                    out.broadcast(PaxosMsg::P2b { mbal, value });
                }
            }
            PaxosMsg::P2b { mbal, value } => {
                if let Some(v) = self.decisions.record(self.cfg.n(), from, mbal, value) {
                    self.decide(v, out);
                }
            }
            PaxosMsg::Rejected { .. } => {
                // Not part of the modified algorithm; tolerated for wire
                // compatibility with traditional Paxos.
            }
            PaxosMsg::Decided { value } => {
                self.decide(value, out);
            }
        }
        if self.decided.is_none() {
            // Condition (ii) bookkeeping: count `from` if its message is of
            // our (possibly just-entered) current session.
            if let Some(b) = msg.ballot() {
                if b.session(self.cfg.n()) == self.session() {
                    self.session_heard.insert(from);
                }
            }
            // A message may have completed condition (ii) after the timer
            // had already expired.
            self.try_start_phase1(out);
        }
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<PaxosMsg>) {
        match timer {
            TIMER_SESSION => {
                self.timer_expired = true;
                self.try_start_phase1(out);
            }
            TIMER_EPSILON => {
                out.set_timer(TIMER_EPSILON, self.cfg.epsilon_timer_local());
                if let Some(v) = self.decided {
                    out.broadcast(PaxosMsg::Decided { value: v });
                } else if self.ablation.epsilon_retransmit {
                    let idle = match self.last_p1a2a {
                        None => true,
                        Some(t) => out.now().saturating_since(t) >= self.cfg.epsilon_timer_local(),
                    };
                    if idle {
                        if self.ack_suppression {
                            // §4 optimization: a current-session message
                            // from q already acknowledged receipt; resend
                            // only to the others.
                            let mbal = self.voting.mbal;
                            let mut sent_any = false;
                            for to in ProcessId::all(self.cfg.n()) {
                                if !self.session_heard.contains(to) {
                                    out.send(to, PaxosMsg::P1a { mbal });
                                    sent_any = true;
                                }
                            }
                            if sent_any {
                                self.last_p1a2a = Some(out.now());
                            }
                        } else {
                            self.broadcast_p1a(out);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_restart(&mut self, out: &mut Outbox<PaxosMsg>) {
        // State survived (stable storage); timers did not.
        out.set_timer(TIMER_EPSILON, self.cfg.epsilon_timer_local());
        if let Some(v) = self.decided {
            out.broadcast(PaxosMsg::Decided { value: v });
            return;
        }
        self.timer_expired = false;
        out.set_timer(TIMER_SESSION, self.cfg.session_timer_local());
        self.broadcast_p1a(out);
    }

    fn decision(&self) -> Option<Value> {
        self.decided
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outbox::Action;

    fn cfg(n: usize) -> TimingConfig {
        TimingConfig::for_n_processes(n).unwrap()
    }

    fn spawn(n: usize, id: u32) -> SessionPaxosProcess {
        SessionPaxos::new().spawn(ProcessId::new(id), &cfg(n), Value::new(100 + id as u64))
    }

    fn out() -> Outbox<PaxosMsg> {
        Outbox::new(LocalInstant::ZERO)
    }

    fn sends_of(actions: &[Action<PaxosMsg>]) -> Vec<&PaxosMsg> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { msg, .. } | Action::Broadcast { msg } => Some(msg),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn start_arms_timers_and_announces() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        let acts = o.drain();
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_SESSION)));
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_EPSILON)));
        assert!(acts.iter().any(
            |a| matches!(a, Action::Broadcast { msg: PaxosMsg::P1a { mbal } } if *mbal == Ballot::new(0))
        ));
    }

    #[test]
    fn session_zero_timer_expiry_starts_phase1() {
        let mut p = spawn(3, 1);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_timer(TIMER_SESSION, &mut o);
        let acts = o.drain();
        // mbal 1 -> next session ballot (0+1)*3+1 = 4.
        assert_eq!(p.mbal(), Ballot::new(4));
        assert_eq!(p.session(), Session::new(1));
        assert!(acts.iter().any(
            |a| matches!(a, Action::Broadcast { msg: PaxosMsg::P1a { mbal } } if *mbal == Ballot::new(4))
        ));
        // Session entry re-armed the session timer.
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_SESSION)));
    }

    #[test]
    fn gating_blocks_start_in_higher_sessions() {
        let mut p = spawn(3, 1);
        let mut o = out();
        p.on_start(&mut o);
        p.on_timer(TIMER_SESSION, &mut o); // enters session 1
        o.drain();
        assert_eq!(p.session(), Session::new(1));
        // Timer expires again, but no session-1 majority heard: no advance.
        p.on_timer(TIMER_SESSION, &mut o);
        assert_eq!(p.session(), Session::new(1));
        assert!(sends_of(&o.drain()).is_empty());
        // Hear session-1 messages from itself and p2: majority of 3.
        p.on_message(
            ProcessId::new(1),
            &PaxosMsg::P1a {
                mbal: Ballot::new(4),
            },
            &mut o,
        );
        assert_eq!(p.session(), Session::new(1), "own echo alone insufficient");
        p.on_message(
            ProcessId::new(2),
            &PaxosMsg::P1a {
                mbal: Ballot::new(5),
            },
            &mut o,
        );
        // Condition (ii) now met and timer already expired: Start Phase 1.
        assert_eq!(p.session(), Session::new(2));
        assert_eq!(p.mbal(), Ballot::new(7)); // (1+1)*3+1
    }

    #[test]
    fn adopting_higher_session_resets_timer_and_announces() {
        let mut p = spawn(5, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        // 1a for ballot 12 (session 2, owner p2).
        p.on_message(
            ProcessId::new(2),
            &PaxosMsg::P1a {
                mbal: Ballot::new(12),
            },
            &mut o,
        );
        let acts = o.drain();
        assert_eq!(p.mbal(), Ballot::new(12));
        assert_eq!(p.session(), Session::new(2));
        // 1b goes to the ballot owner p2.
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send { to, msg: PaxosMsg::P1b { mbal, .. } }
                if *to == ProcessId::new(2) && *mbal == Ballot::new(12)
        )));
        // Session entry: timer reset + 1a announcement of the adopted ballot.
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_SESSION)));
        assert!(acts.iter().any(
            |a| matches!(a, Action::Broadcast { msg: PaxosMsg::P1a { mbal } } if *mbal == Ballot::new(12))
        ));
    }

    #[test]
    fn equal_ballot_p1a_rereplies_without_reset() {
        let mut p = spawn(5, 0);
        let mut o = out();
        p.on_start(&mut o);
        p.on_message(
            ProcessId::new(2),
            &PaxosMsg::P1a {
                mbal: Ballot::new(12),
            },
            &mut o,
        );
        o.drain();
        p.on_message(
            ProcessId::new(2),
            &PaxosMsg::P1a {
                mbal: Ballot::new(12),
            },
            &mut o,
        );
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: PaxosMsg::P1b { .. },
                ..
            }
        )));
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_SESSION)),
            "same session: no timer reset"
        );
    }

    #[test]
    fn lower_ballot_p1a_is_ignored_no_reject() {
        let mut p = spawn(5, 0);
        let mut o = out();
        p.on_start(&mut o);
        p.on_message(
            ProcessId::new(2),
            &PaxosMsg::P1a {
                mbal: Ballot::new(12),
            },
            &mut o,
        );
        o.drain();
        p.on_message(
            ProcessId::new(1),
            &PaxosMsg::P1a {
                mbal: Ballot::new(6),
            },
            &mut o,
        );
        let acts = o.drain();
        assert!(
            sends_of(&acts).is_empty(),
            "no reply and no Rejected for stale ballots: {acts:?}"
        );
    }

    #[test]
    fn p1b_quorum_triggers_2a_with_selected_value() {
        let n = 3;
        let mut p = spawn(n, 1);
        let mut o = out();
        p.on_start(&mut o);
        p.on_timer(TIMER_SESSION, &mut o); // owns ballot 4
        o.drain();
        let b = Ballot::new(4);
        // p0 reports an old vote; p2 reports none.
        p.on_message(
            ProcessId::new(0),
            &PaxosMsg::P1b {
                mbal: b,
                last_vote: Some(crate::paxos::messages::Vote::new(
                    Ballot::new(2),
                    Value::new(777),
                )),
            },
            &mut o,
        );
        assert!(sends_of(&o.drain()).is_empty(), "one 1b is not a majority");
        p.on_message(
            ProcessId::new(2),
            &PaxosMsg::P1b {
                mbal: b,
                last_vote: None,
            },
            &mut o,
        );
        let acts = o.drain();
        // Majority reached: must propose the highest reported vote's value.
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: PaxosMsg::P2a { mbal, value } }
                if *mbal == b && *value == Value::new(777)
        )));
    }

    #[test]
    fn p1b_quorum_with_no_votes_proposes_own_initial() {
        let n = 3;
        let mut p = spawn(n, 1); // initial value 101
        let mut o = out();
        p.on_start(&mut o);
        p.on_timer(TIMER_SESSION, &mut o);
        o.drain();
        let b = Ballot::new(4);
        for from in [0u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &PaxosMsg::P1b {
                    mbal: b,
                    last_vote: None,
                },
                &mut o,
            );
        }
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: PaxosMsg::P2a { value, .. } }
                if *value == Value::new(101)
        )));
    }

    #[test]
    fn stale_p1b_is_ignored() {
        let mut p = spawn(3, 1);
        let mut o = out();
        p.on_start(&mut o);
        p.on_timer(TIMER_SESSION, &mut o); // ballot 4
        o.drain();
        // 1b for a ballot we do not own / never started.
        p.on_message(
            ProcessId::new(0),
            &PaxosMsg::P1b {
                mbal: Ballot::new(3),
                last_vote: None,
            },
            &mut o,
        );
        p.on_message(
            ProcessId::new(2),
            &PaxosMsg::P1b {
                mbal: Ballot::new(3),
                last_vote: None,
            },
            &mut o,
        );
        assert!(
            !o.drain().iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    msg: PaxosMsg::P2a { .. }
                }
            )),
            "no 2a for a ballot we are not collecting"
        );
    }

    #[test]
    fn p2a_votes_and_broadcasts_2b() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_message(
            ProcessId::new(1),
            &PaxosMsg::P2a {
                mbal: Ballot::new(4),
                value: Value::new(9),
            },
            &mut o,
        );
        let acts = o.drain();
        assert_eq!(p.mbal(), Ballot::new(4));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: PaxosMsg::P2b { mbal, value } }
                if *mbal == Ballot::new(4) && *value == Value::new(9)
        )));
    }

    #[test]
    fn stale_p2a_is_ignored() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        p.on_message(
            ProcessId::new(1),
            &PaxosMsg::P1a {
                mbal: Ballot::new(7),
            },
            &mut o,
        );
        o.drain();
        p.on_message(
            ProcessId::new(1),
            &PaxosMsg::P2a {
                mbal: Ballot::new(4),
                value: Value::new(9),
            },
            &mut o,
        );
        assert!(
            !o.drain().iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    msg: PaxosMsg::P2b { .. }
                }
            )),
            "stale 2a must not be voted for"
        );
    }

    #[test]
    fn majority_2b_decides() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        let b = Ballot::new(4);
        let v = Value::new(9);
        p.on_message(
            ProcessId::new(1),
            &PaxosMsg::P2b { mbal: b, value: v },
            &mut o,
        );
        assert_eq!(p.decision(), None);
        p.on_message(
            ProcessId::new(2),
            &PaxosMsg::P2b { mbal: b, value: v },
            &mut o,
        );
        assert_eq!(p.decision(), Some(v));
        let acts = o.drain();
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Decide { value, .. } if *value == v)));
        assert!(acts.iter().any(
            |a| matches!(a, Action::Broadcast { msg: PaxosMsg::Decided { value } } if *value == v)
        ));
    }

    #[test]
    fn mixed_ballot_2b_does_not_decide() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        let v = Value::new(9);
        p.on_message(
            ProcessId::new(1),
            &PaxosMsg::P2b {
                mbal: Ballot::new(4),
                value: v,
            },
            &mut o,
        );
        p.on_message(
            ProcessId::new(2),
            &PaxosMsg::P2b {
                mbal: Ballot::new(7),
                value: v,
            },
            &mut o,
        );
        assert_eq!(p.decision(), None, "2bs must share the same mbal");
    }

    #[test]
    fn decided_process_answers_with_decision() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        let b = Ballot::new(4);
        let v = Value::new(9);
        p.on_message(
            ProcessId::new(1),
            &PaxosMsg::P2b { mbal: b, value: v },
            &mut o,
        );
        p.on_message(
            ProcessId::new(2),
            &PaxosMsg::P2b { mbal: b, value: v },
            &mut o,
        );
        o.drain();
        p.on_message(
            ProcessId::new(1),
            &PaxosMsg::P1a {
                mbal: Ballot::new(100),
            },
            &mut o,
        );
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send { to, msg: PaxosMsg::Decided { value } }
                if *to == ProcessId::new(1) && *value == v
        )));
        assert_eq!(acts.len(), 1, "nothing but the announcement: {acts:?}");
    }

    #[test]
    fn decided_ignores_decided_no_ping_pong() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        let v = Value::new(9);
        let b = Ballot::new(4);
        p.on_message(
            ProcessId::new(1),
            &PaxosMsg::P2b { mbal: b, value: v },
            &mut o,
        );
        p.on_message(
            ProcessId::new(2),
            &PaxosMsg::P2b { mbal: b, value: v },
            &mut o,
        );
        o.drain();
        p.on_message(ProcessId::new(1), &PaxosMsg::Decided { value: v }, &mut o);
        assert!(
            o.drain().is_empty(),
            "Decided to a decided process: silence"
        );
    }

    #[test]
    fn receiving_decided_decides() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_message(
            ProcessId::new(2),
            &PaxosMsg::Decided {
                value: Value::new(5),
            },
            &mut o,
        );
        assert_eq!(p.decision(), Some(Value::new(5)));
    }

    #[test]
    fn epsilon_tick_retransmits_when_idle() {
        let mut p = spawn(3, 0);
        let mut o = Outbox::new(LocalInstant::ZERO);
        p.on_start(&mut o);
        o.drain();
        // Next tick happens one epsilon later: idle, so a 1a is resent.
        let later = LocalInstant::ZERO + cfg(3).epsilon_timer_local();
        let mut o2 = Outbox::new(later);
        p.on_timer(TIMER_EPSILON, &mut o2);
        let acts = o2.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: PaxosMsg::P1a { .. }
            }
        )));
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_EPSILON)));
    }

    #[test]
    fn epsilon_tick_skips_when_recently_sent() {
        let mut p = spawn(3, 0);
        let mut o = Outbox::new(LocalInstant::ZERO);
        p.on_start(&mut o); // broadcast at t=0
        o.drain();
        // Tick *before* a full epsilon has elapsed.
        let soon = LocalInstant::from_nanos(1);
        let mut o2 = Outbox::new(soon);
        p.on_timer(TIMER_EPSILON, &mut o2);
        assert!(
            !o2.drain().iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    msg: PaxosMsg::P1a { .. }
                }
            )),
            "sent recently: no retransmission yet"
        );
    }

    #[test]
    fn epsilon_tick_announces_decision_when_decided() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        let b = Ballot::new(4);
        let v = Value::new(9);
        p.on_message(
            ProcessId::new(1),
            &PaxosMsg::P2b { mbal: b, value: v },
            &mut o,
        );
        p.on_message(
            ProcessId::new(2),
            &PaxosMsg::P2b { mbal: b, value: v },
            &mut o,
        );
        o.drain();
        p.on_timer(TIMER_EPSILON, &mut o);
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: PaxosMsg::Decided { .. }
            }
        )));
    }

    #[test]
    fn restart_rearms_and_announces() {
        let mut p = spawn(3, 1);
        let mut o = out();
        p.on_start(&mut o);
        p.on_timer(TIMER_SESSION, &mut o); // session 1, ballot 4
        o.drain();
        p.on_restart(&mut o);
        let acts = o.drain();
        assert_eq!(p.mbal(), Ballot::new(4), "state survived the crash");
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_SESSION)));
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_EPSILON)));
        assert!(acts.iter().any(
            |a| matches!(a, Action::Broadcast { msg: PaxosMsg::P1a { mbal } } if *mbal == Ballot::new(4))
        ));
    }

    #[test]
    fn restart_after_decision_reannounces_only() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        let b = Ballot::new(4);
        let v = Value::new(9);
        p.on_message(
            ProcessId::new(1),
            &PaxosMsg::P2b { mbal: b, value: v },
            &mut o,
        );
        p.on_message(
            ProcessId::new(2),
            &PaxosMsg::P2b { mbal: b, value: v },
            &mut o,
        );
        o.drain();
        p.on_restart(&mut o);
        let acts = o.drain();
        assert!(acts.iter().any(
            |a| matches!(a, Action::Broadcast { msg: PaxosMsg::Decided { value } } if *value == v)
        ));
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_SESSION)),
            "no session timer once decided"
        );
    }

    #[test]
    fn no_gating_ablation_advances_without_majority() {
        let proto = SessionPaxos::with_ablation(Ablation {
            session_gating: false,
            epsilon_retransmit: true,
            p1a_on_entry: true,
        });
        let mut p = proto.spawn(ProcessId::new(1), &cfg(3), Value::new(1));
        let mut o = out();
        p.on_start(&mut o);
        p.on_timer(TIMER_SESSION, &mut o); // session 1
        p.on_timer(TIMER_SESSION, &mut o); // session 2 without hearing anyone!
        assert_eq!(p.session(), Session::new(2));
    }

    #[test]
    fn session_heard_counts_only_current_session() {
        let mut p = spawn(5, 0);
        let mut o = out();
        p.on_start(&mut o);
        p.on_message(
            ProcessId::new(1),
            &PaxosMsg::P1a {
                mbal: Ballot::new(6), // session 1
            },
            &mut o,
        );
        o.drain();
        assert_eq!(p.session(), Session::new(1));
        assert_eq!(p.session_heard_count(), 1);
        // A stale session-0 message does not count.
        p.on_message(
            ProcessId::new(2),
            &PaxosMsg::P1a {
                mbal: Ballot::new(2),
            },
            &mut o,
        );
        assert_eq!(p.session_heard_count(), 1);
    }

    #[test]
    fn protocol_names() {
        assert_eq!(SessionPaxos::new().name(), "session-paxos");
        assert_eq!(
            SessionPaxos::with_ablation(Ablation {
                session_gating: false,
                ..Ablation::full()
            })
            .name(),
            "session-paxos/no-gating"
        );
        assert_eq!(
            SessionPaxos::new().with_ack_suppression().name(),
            "session-paxos/ack-suppressed"
        );
    }

    #[test]
    fn ack_suppression_resends_only_to_unheard() {
        let n = 5;
        let proto = SessionPaxos::new().with_ack_suppression();
        let mut p = proto.spawn(ProcessId::new(0), &cfg(n), Value::new(1));
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        // Hear session-0 messages from p1 and p2: they have acknowledged.
        for from in [1u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &PaxosMsg::P1a {
                    mbal: Ballot::new(from as u64),
                },
                &mut o,
            );
        }
        o.drain();
        // An idle ε tick resends only to p3 and p4 (and self, unheard).
        let later = LocalInstant::ZERO + cfg(n).epsilon_timer_local() * 4;
        let mut o2 = Outbox::new(later);
        p.on_timer(TIMER_EPSILON, &mut o2);
        let targets: Vec<ProcessId> = o2
            .drain()
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: PaxosMsg::P1a { .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(
            targets,
            vec![ProcessId::new(0), ProcessId::new(3), ProcessId::new(4)],
            "only unacknowledged processes get the retransmission"
        );
    }

    #[test]
    fn ack_suppression_goes_quiet_when_everyone_acked() {
        let n = 3;
        let proto = SessionPaxos::new().with_ack_suppression();
        let mut p = proto.spawn(ProcessId::new(0), &cfg(n), Value::new(1));
        let mut o = out();
        p.on_start(&mut o);
        for from in 0..n as u32 {
            p.on_message(
                ProcessId::new(from),
                &PaxosMsg::P1a {
                    mbal: Ballot::new(from as u64),
                },
                &mut o,
            );
        }
        o.drain();
        let later = LocalInstant::ZERO + cfg(n).epsilon_timer_local() * 4;
        let mut o2 = Outbox::new(later);
        p.on_timer(TIMER_EPSILON, &mut o2);
        // Hearing from everyone includes completing condition (ii); with
        // the timer not yet expired, an ε tick emits nothing but its
        // re-arm.
        let acts = o2.drain();
        assert!(
            acts.iter().all(|a| matches!(a, Action::SetTimer { .. })),
            "fully acknowledged: silence, got {acts:?}"
        );
    }

    /// A zero-delay lockstep "network" in which all messages are delivered
    /// immediately: the stable case. All processes must agree in session 1.
    #[test]
    fn lockstep_stable_run_reaches_agreement() {
        let n = 5;
        let c = cfg(n);
        let proto = SessionPaxos::new();
        let mut procs: Vec<_> = (0..n as u32)
            .map(|i| proto.spawn(ProcessId::new(i), &c, Value::new(1000 + i as u64)))
            .collect();
        let mut queue: std::collections::VecDeque<(ProcessId, ProcessId, PaxosMsg)> =
            std::collections::VecDeque::new();
        let mut o = out();
        for p in procs.iter_mut() {
            p.on_start(&mut o);
            let from = p.id();
            for a in o.drain() {
                enqueue(a, from, n, &mut queue);
            }
        }
        // Let p0's session timer fire first; deliver everything to quiescence.
        procs[0].on_timer(TIMER_SESSION, &mut o);
        for a in o.drain() {
            enqueue(a, ProcessId::new(0), n, &mut queue);
        }
        let mut steps = 0;
        while let Some((from, to, msg)) = queue.pop_front() {
            steps += 1;
            assert!(steps < 100_000, "no quiescence");
            let p = &mut procs[to.as_usize()];
            p.on_message(from, &msg, &mut o);
            for a in o.drain() {
                enqueue(a, to, n, &mut queue);
            }
        }
        let decisions: Vec<_> = procs.iter().map(|p| p.decision()).collect();
        let first = decisions[0].expect("p0 decided");
        for (i, d) in decisions.iter().enumerate() {
            assert_eq!(*d, Some(first), "p{i} disagrees");
        }
        // Validity: the decided value is someone's initial value.
        assert!((1000..1000 + n as u64).contains(&first.get()));

        fn enqueue(
            a: Action<PaxosMsg>,
            from: ProcessId,
            n: usize,
            q: &mut std::collections::VecDeque<(ProcessId, ProcessId, PaxosMsg)>,
        ) {
            match a {
                Action::Send { to, msg } => q.push_back((from, to, msg)),
                Action::Broadcast { msg } => {
                    for to in ProcessId::all(n) {
                        q.push_back((from, to, msg));
                    }
                }
                _ => {}
            }
        }
    }
}
