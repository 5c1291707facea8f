//! Traditional Paxos (§2 baseline) — leader-based, with the Reject action.
//!
//! This is the algorithm the paper recalls in §2 to show why simple
//! modifications do **not** achieve `TS + O(δ)`: a leader `q` elected after
//! stability picks a ballot, but "there could be messages with higher mbal
//! fields that were sent by processes that have since failed, or by failed
//! processes that just restarted. Receipt of such a message could prevent
//! the algorithm from succeeding with the current value of `mbal[q]`,
//! forcing `q` to choose a larger value. Since there could be as many as
//! `⌈N/2⌉ − 1` such failed processes, it could take `O(Nδ)` seconds to
//! reach consensus." Experiment E2 stages exactly that adversary.
//!
//! Leadership comes from either an idealized driver oracle
//! ([`LeaderMode::Oracle`], via [`Process::on_leader_change`]) or the real
//! heartbeat Ω of [`crate::leader::HeartbeatOmega`]
//! ([`LeaderMode::Heartbeat`]).
//!
//! [`TraditionalPaxos::with_preloaded_ballots`] models the pre-`TS` history
//! abstractly: a process that believed itself leader before `TS` may have
//! raised its `mbal` arbitrarily high **without any communication** (Start
//! Phase 1 requires only self-belief), so any preloaded ballot is a
//! legitimately reachable pre-stability state.

use crate::ballot::Ballot;
use crate::config::TimingConfig;
use crate::leader::{HeartbeatOmega, OmegaCmd, OmegaMsg};
use crate::outbox::{Outbox, Process, Protocol};
use crate::paxos::messages::PaxosMsg;
use crate::paxos::state::{DecisionTracker, P1bQuorum, VotingState};
use crate::time::RealDuration;
use crate::types::{ProcessId, TimerId, Value};

/// Timer id of the leader's periodic retry ("the leader spontaneously
/// executes the Start Phase 1 action every `O(δ)` seconds").
pub const TIMER_RETRY: TimerId = TimerId::new(2);
/// Timer id reserved for the embedded heartbeat elector.
pub const TIMER_OMEGA: TimerId = TimerId::new(3);

/// How this deployment learns who the leader is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LeaderMode {
    /// The driver runs an idealized election oracle and invokes
    /// [`Process::on_leader_change`]. Isolates the obsolete-ballot
    /// pathology from election cost.
    #[default]
    Oracle,
    /// Each process embeds a [`HeartbeatOmega`]; no driver support needed.
    Heartbeat,
}

/// Wire messages: Paxos proper plus (in heartbeat mode) elector messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TradMsg {
    /// A Paxos message.
    Paxos(PaxosMsg),
    /// A heartbeat-elector message.
    Omega(OmegaMsg),
}

/// Protocol factory for traditional Paxos.
#[derive(Debug, Clone, Default)]
pub struct TraditionalPaxos {
    mode: LeaderMode,
    preloaded: Vec<(ProcessId, Ballot)>,
}

impl TraditionalPaxos {
    /// Traditional Paxos led by the driver oracle (the default).
    pub fn new() -> Self {
        TraditionalPaxos::default()
    }

    /// Traditional Paxos with the embedded heartbeat elector.
    pub fn with_heartbeats() -> Self {
        TraditionalPaxos {
            mode: LeaderMode::Heartbeat,
            ..TraditionalPaxos::default()
        }
    }

    /// Preloads `mbal` values, modeling processes that ran Start Phase 1
    /// repeatedly before `TS` while believing themselves leader (see the
    /// [module docs](self) for why this state is reachable).
    pub fn with_preloaded_ballots(mut self, ballots: Vec<(ProcessId, Ballot)>) -> Self {
        self.preloaded = ballots;
        self
    }
}

impl Protocol for TraditionalPaxos {
    type Msg = TradMsg;
    type Process = TraditionalPaxosProcess;

    fn name(&self) -> &'static str {
        match self.mode {
            LeaderMode::Oracle => "traditional-paxos",
            LeaderMode::Heartbeat => "traditional-paxos/heartbeat",
        }
    }

    fn kind_of(msg: &TradMsg) -> &'static str {
        match msg {
            TradMsg::Paxos(m) => m.kind(),
            TradMsg::Omega(_) => "heartbeat",
        }
    }

    fn spawn(&self, id: ProcessId, cfg: &TimingConfig, initial: Value) -> TraditionalPaxosProcess {
        let mut voting = VotingState::initial(id);
        if let Some(&(_, b)) = self.preloaded.iter().find(|(p, _)| *p == id) {
            voting.mbal = b;
        }
        let omega = match self.mode {
            LeaderMode::Oracle => None,
            LeaderMode::Heartbeat => Some(HeartbeatOmega::new(id, cfg, TIMER_OMEGA)),
        };
        TraditionalPaxosProcess {
            id,
            cfg: *cfg,
            initial,
            voting,
            decided: None,
            p1b: None,
            chosen: None,
            decisions: DecisionTracker::new(),
            highest_seen: Ballot::initial(id),
            is_leader: false,
            omega,
            retry_real: cfg.delta() * 6,
            attempt_started: None,
        }
    }
}

/// One traditional-Paxos process.
#[derive(Debug, Clone)]
pub struct TraditionalPaxosProcess {
    id: ProcessId,
    cfg: TimingConfig,
    initial: Value,
    voting: VotingState,
    decided: Option<Value>,
    p1b: Option<P1bQuorum>,
    chosen: Option<(Ballot, Value)>,
    decisions: DecisionTracker,
    /// Highest ballot observed in any message (for jumping above rejections).
    highest_seen: Ballot,
    is_leader: bool,
    omega: Option<HeartbeatOmega>,
    retry_real: RealDuration,
    /// Local time our current phase-1 attempt started (for stall detection).
    attempt_started: Option<crate::time::LocalInstant>,
}

impl TraditionalPaxosProcess {
    /// The process's current ballot `mbal[p]`.
    pub fn mbal(&self) -> Ballot {
        self.voting.mbal
    }

    /// Whether this process currently believes itself leader.
    pub fn believes_leader(&self) -> bool {
        self.is_leader
    }

    fn note_ballot(&mut self, b: Ballot) {
        if b > self.highest_seen {
            self.highest_seen = b;
        }
    }

    /// Adopts a higher ballot. Returns `true` if this killed our own
    /// in-progress phase-1 attempt: once `mbal[q]` moves past our ballot,
    /// incoming 1b messages for it no longer match `mbal[q]` and are
    /// ignored (the paper's Start Phase 2 precondition), so the attempt can
    /// never complete — this is precisely how obsolete high-ballot
    /// messages "prevent the algorithm from succeeding with the current
    /// value of `mbal[q]`" (§2).
    fn adopt(&mut self, b: Ballot) -> bool {
        debug_assert!(b > self.voting.mbal);
        self.voting.mbal = b;
        let mut killed = false;
        if self.p1b.as_ref().is_some_and(|q| q.ballot() < b) {
            self.p1b = None;
            killed = true;
        }
        if self.chosen.is_some_and(|(cb, _)| cb < b) {
            self.chosen = None;
            killed = true;
        }
        killed
    }

    /// The paper's Start Phase 1: "increase `mbal[p]` to an arbitrary value
    /// congruent to `p` mod `N`" — we pick the smallest such value above
    /// everything we have seen.
    fn start_phase1(&mut self, out: &mut Outbox<TradMsg>) {
        let floor = self.highest_seen.max(self.voting.mbal);
        let bal = Ballot::next_for_owner_above(floor, self.id, self.cfg.n());
        self.voting.mbal = bal;
        self.note_ballot(bal);
        self.p1b = Some(P1bQuorum::new(bal, self.cfg.n()));
        self.chosen = None;
        self.attempt_started = Some(out.now());
        out.broadcast(TradMsg::Paxos(PaxosMsg::P1a { mbal: bal }));
    }

    fn decide(&mut self, v: Value, out: &mut Outbox<TradMsg>) {
        if self.decided.is_some() {
            return;
        }
        self.decided = Some(v);
        out.decide(v);
        out.broadcast(TradMsg::Paxos(PaxosMsg::Decided { value: v }));
    }

    fn apply_leader(&mut self, leader: ProcessId, out: &mut Outbox<TradMsg>) {
        let was = self.is_leader;
        self.is_leader = leader == self.id;
        if self.is_leader && !was && self.decided.is_none() {
            self.start_phase1(out);
        }
    }

    fn apply_omega_cmds(&mut self, cmds: Vec<OmegaCmd>, out: &mut Outbox<TradMsg>) {
        for cmd in cmds {
            match cmd {
                OmegaCmd::Broadcast(m) => out.broadcast(TradMsg::Omega(m)),
                OmegaCmd::SetTimer { id, after } => out.set_timer(id, after),
            }
        }
    }

    fn on_paxos(&mut self, from: ProcessId, msg: PaxosMsg, out: &mut Outbox<TradMsg>) {
        if let Some(b) = msg.ballot() {
            self.note_ballot(b);
        }
        match msg {
            PaxosMsg::P1a { mbal } => {
                let mut killed = false;
                if mbal > self.voting.mbal {
                    killed = self.adopt(mbal);
                }
                if mbal == self.voting.mbal {
                    out.send(
                        mbal.owner(self.cfg.n()),
                        TradMsg::Paxos(PaxosMsg::P1b {
                            mbal,
                            last_vote: self.voting.last_vote,
                        }),
                    );
                } else {
                    // The Reject action: tell the owner our higher ballot.
                    out.send(
                        mbal.owner(self.cfg.n()),
                        TradMsg::Paxos(PaxosMsg::Rejected {
                            mbal: self.voting.mbal,
                        }),
                    );
                }
                if killed && self.is_leader && self.decided.is_none() {
                    // Our attempt is dead: "choose a larger value of
                    // mbal[q]" right away (§2's reaction, 2δ per obsolete
                    // ballot in the worst case).
                    self.start_phase1(out);
                }
            }
            PaxosMsg::P1b { mbal, last_vote } => {
                if mbal == self.voting.mbal {
                    if let Some(q) = self.p1b.as_mut() {
                        if q.ballot() == mbal {
                            let reached_now = q.record(from, last_vote);
                            if reached_now {
                                let value = q.pick_value(self.initial);
                                self.chosen = Some((mbal, value));
                            }
                            if let Some((cb, cv)) = self.chosen {
                                if cb == mbal && q.reached() {
                                    out.broadcast(TradMsg::Paxos(PaxosMsg::P2a {
                                        mbal,
                                        value: cv,
                                    }));
                                }
                            }
                        }
                    }
                }
            }
            PaxosMsg::P2a { mbal, value } => {
                if mbal >= self.voting.mbal {
                    let mut killed = false;
                    if mbal > self.voting.mbal {
                        killed = self.adopt(mbal);
                    }
                    self.voting.record_vote(mbal, value);
                    out.broadcast(TradMsg::Paxos(PaxosMsg::P2b { mbal, value }));
                    if killed && self.is_leader && self.decided.is_none() {
                        self.start_phase1(out);
                    }
                } else {
                    out.send(
                        mbal.owner(self.cfg.n()),
                        TradMsg::Paxos(PaxosMsg::Rejected {
                            mbal: self.voting.mbal,
                        }),
                    );
                }
            }
            PaxosMsg::P2b { mbal, value } => {
                if let Some(v) = self.decisions.record(self.cfg.n(), from, mbal, value) {
                    self.decide(v, out);
                }
            }
            PaxosMsg::Rejected { mbal } => {
                // Our attempt is dead; if we lead, jump above immediately
                // (the §2 "plausible argument" reaction, costing 2δ per
                // obsolete ballot discovered).
                if self.is_leader && self.decided.is_none() && mbal > self.voting.mbal {
                    self.start_phase1(out);
                }
            }
            PaxosMsg::Decided { value } => {
                self.decide(value, out);
            }
        }
    }
}

impl Process for TraditionalPaxosProcess {
    type Msg = TradMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_start(&mut self, out: &mut Outbox<TradMsg>) {
        out.set_timer(TIMER_RETRY, self.cfg.local_at_least(self.retry_real));
        if let Some(omega) = self.omega.as_mut() {
            let cmds = omega.start(out.now());
            let leader = omega.leader();
            self.apply_omega_cmds(cmds, out);
            self.apply_leader(leader, out);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: &TradMsg, out: &mut Outbox<TradMsg>) {
        if self.decided.is_some() {
            if let Some(v) = self.decided {
                if !matches!(*msg, TradMsg::Paxos(PaxosMsg::Decided { .. })) {
                    out.send(from, TradMsg::Paxos(PaxosMsg::Decided { value: v }));
                }
            }
            return;
        }
        match *msg {
            TradMsg::Paxos(m) => self.on_paxos(from, m, out),
            TradMsg::Omega(m) => {
                if let Some(omega) = self.omega.as_mut() {
                    if let Some(leader) = omega.on_message(from, m, out.now()) {
                        self.apply_leader(leader, out);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<TradMsg>) {
        if timer == TIMER_RETRY {
            out.set_timer(TIMER_RETRY, self.cfg.local_at_least(self.retry_real));
            if let Some(v) = self.decided {
                out.broadcast(TradMsg::Paxos(PaxosMsg::Decided { value: v }));
            } else if self.is_leader {
                // Retry is stall recovery (lost messages before TS): only
                // abandon an attempt that has had a full retry period to
                // complete, otherwise the leader would sabotage itself.
                let stalled = match self.attempt_started {
                    None => true,
                    Some(t) => {
                        out.now().saturating_since(t) >= self.cfg.local_at_least(self.retry_real)
                    }
                };
                if stalled {
                    self.start_phase1(out);
                }
            }
            return;
        }
        if self.decided.is_some() {
            return;
        }
        if let Some(omega) = self.omega.as_mut() {
            let (handled, change, cmds) = omega.on_timer(timer, out.now());
            if handled {
                self.apply_omega_cmds(cmds, out);
                if let Some(leader) = change {
                    self.apply_leader(leader, out);
                }
            }
        }
    }

    fn on_restart(&mut self, out: &mut Outbox<TradMsg>) {
        out.set_timer(TIMER_RETRY, self.cfg.local_at_least(self.retry_real));
        if let Some(v) = self.decided {
            out.broadcast(TradMsg::Paxos(PaxosMsg::Decided { value: v }));
            return;
        }
        // Leadership must be re-learned after a crash.
        self.is_leader = false;
        if let Some(omega) = self.omega.as_mut() {
            let cmds = omega.start(out.now());
            let leader = omega.leader();
            self.apply_omega_cmds(cmds, out);
            self.apply_leader(leader, out);
        }
    }

    fn on_leader_change(&mut self, leader: ProcessId, out: &mut Outbox<TradMsg>) {
        if self.omega.is_none() && self.decided.is_none() {
            self.apply_leader(leader, out);
        }
    }

    fn decision(&self) -> Option<Value> {
        self.decided
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outbox::Action;
    use crate::time::LocalInstant;

    fn cfg(n: usize) -> TimingConfig {
        TimingConfig::for_n_processes(n).unwrap()
    }

    fn out() -> Outbox<TradMsg> {
        Outbox::new(LocalInstant::ZERO)
    }

    fn p1a(acts: &[Action<TradMsg>]) -> Option<Ballot> {
        acts.iter().find_map(|a| match a {
            Action::Broadcast {
                msg: TradMsg::Paxos(PaxosMsg::P1a { mbal }),
            } => Some(*mbal),
            _ => None,
        })
    }

    #[test]
    fn non_leader_is_passive_at_start() {
        let mut p = TraditionalPaxos::new().spawn(ProcessId::new(1), &cfg(3), Value::new(1));
        let mut o = out();
        p.on_start(&mut o);
        let acts = o.drain();
        assert!(p1a(&acts).is_none(), "no 1a without leadership");
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_RETRY)));
    }

    #[test]
    fn becoming_leader_starts_phase1() {
        let mut p = TraditionalPaxos::new().spawn(ProcessId::new(1), &cfg(3), Value::new(1));
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_leader_change(ProcessId::new(1), &mut o);
        let acts = o.drain();
        let b = p1a(&acts).expect("leader broadcasts 1a");
        assert_eq!(b.owner(3), ProcessId::new(1));
        assert!(p.believes_leader());
    }

    #[test]
    fn losing_leadership_stops_retries() {
        let mut p = TraditionalPaxos::new().spawn(ProcessId::new(1), &cfg(3), Value::new(1));
        let mut o = out();
        p.on_start(&mut o);
        p.on_leader_change(ProcessId::new(1), &mut o);
        o.drain();
        p.on_leader_change(ProcessId::new(0), &mut o);
        o.drain();
        p.on_timer(TIMER_RETRY, &mut o);
        assert!(p1a(&o.drain()).is_none(), "ex-leader stays quiet");
    }

    #[test]
    fn lower_1a_gets_rejected() {
        let proto = TraditionalPaxos::new()
            .with_preloaded_ballots(vec![(ProcessId::new(2), Ballot::new(92))]);
        let mut p = proto.spawn(ProcessId::new(2), &cfg(3), Value::new(1));
        assert_eq!(p.mbal(), Ballot::new(92));
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        // Leader p0's ballot 3 < 92: reject to owner p0.
        p.on_message(
            ProcessId::new(0),
            &TradMsg::Paxos(PaxosMsg::P1a {
                mbal: Ballot::new(3),
            }),
            &mut o,
        );
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send { to, msg: TradMsg::Paxos(PaxosMsg::Rejected { mbal }) }
                if *to == ProcessId::new(0) && *mbal == Ballot::new(92)
        )));
    }

    #[test]
    fn lower_2a_gets_rejected() {
        let proto = TraditionalPaxos::new()
            .with_preloaded_ballots(vec![(ProcessId::new(2), Ballot::new(92))]);
        let mut p = proto.spawn(ProcessId::new(2), &cfg(3), Value::new(1));
        let mut o = out();
        p.on_message(
            ProcessId::new(0),
            &TradMsg::Paxos(PaxosMsg::P2a {
                mbal: Ballot::new(3),
                value: Value::new(7),
            }),
            &mut o,
        );
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: TradMsg::Paxos(PaxosMsg::Rejected { .. }),
                ..
            }
        )));
        assert!(
            !acts.iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    msg: TradMsg::Paxos(PaxosMsg::P2b { .. })
                }
            )),
            "must not vote for a stale 2a"
        );
    }

    #[test]
    fn rejection_makes_leader_jump_above() {
        let mut p = TraditionalPaxos::new().spawn(ProcessId::new(1), &cfg(3), Value::new(1));
        let mut o = out();
        p.on_start(&mut o);
        p.on_leader_change(ProcessId::new(1), &mut o);
        o.drain();
        let before = p.mbal();
        p.on_message(
            ProcessId::new(2),
            &TradMsg::Paxos(PaxosMsg::Rejected {
                mbal: Ballot::new(92),
            }),
            &mut o,
        );
        let b = p1a(&o.drain()).expect("re-runs phase 1");
        assert!(b > Ballot::new(92), "jumps above the rejection");
        assert!(b > before);
        assert_eq!(b.owner(3), ProcessId::new(1));
    }

    #[test]
    fn stale_rejection_is_ignored() {
        let mut p = TraditionalPaxos::new().spawn(ProcessId::new(1), &cfg(3), Value::new(1));
        let mut o = out();
        p.on_start(&mut o);
        p.on_leader_change(ProcessId::new(1), &mut o);
        o.drain();
        let before = p.mbal();
        p.on_message(
            ProcessId::new(2),
            &TradMsg::Paxos(PaxosMsg::Rejected {
                mbal: Ballot::new(0),
            }),
            &mut o,
        );
        assert!(p1a(&o.drain()).is_none());
        assert_eq!(p.mbal(), before);
    }

    #[test]
    fn retry_timer_restarts_phase1_when_stalled() {
        let mut p = TraditionalPaxos::new().spawn(ProcessId::new(1), &cfg(3), Value::new(1));
        let mut o = out();
        p.on_start(&mut o);
        p.on_leader_change(ProcessId::new(1), &mut o);
        let first = p1a(&o.drain()).unwrap();
        // A retry firing immediately does NOT abandon the fresh attempt.
        p.on_timer(TIMER_RETRY, &mut o);
        assert!(
            p1a(&o.drain()).is_none(),
            "young attempts are left to complete"
        );
        // A retry firing a full period later does restart with a higher
        // ballot.
        let later = LocalInstant::ZERO + cfg(3).local_at_least(cfg(3).delta() * 6);
        let mut o2 = Outbox::new(later);
        p.on_timer(TIMER_RETRY, &mut o2);
        let acts = o2.drain();
        let second = p1a(&acts).expect("stalled attempt is retried");
        assert!(second > first);
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_RETRY)));
    }

    #[test]
    fn full_ballot_decides_via_quorum() {
        let n = 3;
        let mut p = TraditionalPaxos::new().spawn(ProcessId::new(0), &cfg(n), Value::new(50));
        let mut o = out();
        p.on_start(&mut o);
        p.on_leader_change(ProcessId::new(0), &mut o);
        let bal = p1a(&o.drain()).unwrap();
        // Two 1b's (majority) -> 2a with own value (no prior votes).
        for from in [1u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &TradMsg::Paxos(PaxosMsg::P1b {
                    mbal: bal,
                    last_vote: None,
                }),
                &mut o,
            );
        }
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: TradMsg::Paxos(PaxosMsg::P2a { mbal, value }) }
                if *mbal == bal && *value == Value::new(50)
        )));
        // Two 2b's decide.
        for from in [1u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &TradMsg::Paxos(PaxosMsg::P2b {
                    mbal: bal,
                    value: Value::new(50),
                }),
                &mut o,
            );
        }
        assert_eq!(p.decision(), Some(Value::new(50)));
    }

    #[test]
    fn heartbeat_mode_p0_leads_at_start() {
        let proto = TraditionalPaxos::with_heartbeats();
        let mut p0 = proto.spawn(ProcessId::new(0), &cfg(3), Value::new(1));
        let mut o = out();
        p0.on_start(&mut o);
        let acts = o.drain();
        assert!(p0.believes_leader());
        assert!(p1a(&acts).is_some(), "initial leader starts phase 1");
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: TradMsg::Omega(OmegaMsg::Heartbeat)
            }
        )));
    }

    #[test]
    fn heartbeat_mode_takeover_when_p0_silent() {
        let proto = TraditionalPaxos::with_heartbeats();
        let mut p1 = proto.spawn(ProcessId::new(1), &cfg(3), Value::new(1));
        let mut o = out();
        p1.on_start(&mut o);
        o.drain();
        assert!(!p1.believes_leader());
        // Long silence from p0: the omega tick suspects it.
        let late = LocalInstant::ZERO + crate::time::LocalDuration::from_secs(10);
        let mut o2 = Outbox::new(late);
        p1.on_timer(TIMER_OMEGA, &mut o2);
        assert!(p1.believes_leader());
        assert!(p1a(&o2.drain()).is_some());
    }

    #[test]
    fn decided_process_announces() {
        let n = 3;
        let mut p = TraditionalPaxos::new().spawn(ProcessId::new(0), &cfg(n), Value::new(50));
        let mut o = out();
        p.on_message(
            ProcessId::new(1),
            &TradMsg::Paxos(PaxosMsg::Decided {
                value: Value::new(5),
            }),
            &mut o,
        );
        assert_eq!(p.decision(), Some(Value::new(5)));
        o.drain();
        p.on_message(
            ProcessId::new(2),
            &TradMsg::Paxos(PaxosMsg::P1a {
                mbal: Ballot::new(30),
            }),
            &mut o,
        );
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Send { to, msg: TradMsg::Paxos(PaxosMsg::Decided { .. }) }
                if *to == ProcessId::new(2)
        )));
    }

    #[test]
    fn restart_requires_reelection() {
        let mut p = TraditionalPaxos::new().spawn(ProcessId::new(1), &cfg(3), Value::new(1));
        let mut o = out();
        p.on_start(&mut o);
        p.on_leader_change(ProcessId::new(1), &mut o);
        o.drain();
        assert!(p.believes_leader());
        p.on_restart(&mut o);
        o.drain();
        assert!(!p.believes_leader(), "leadership is volatile");
    }

    #[test]
    fn preload_only_applies_to_matching_process() {
        let proto = TraditionalPaxos::new()
            .with_preloaded_ballots(vec![(ProcessId::new(2), Ballot::new(92))]);
        let p1 = proto.spawn(ProcessId::new(1), &cfg(3), Value::new(1));
        assert_eq!(p1.mbal(), Ballot::new(1));
        let p2 = proto.spawn(ProcessId::new(2), &cfg(3), Value::new(1));
        assert_eq!(p2.mbal(), Ballot::new(92));
    }
}
