//! The paper's §4 session machine, written once for the replicated log.
//!
//! A ballot *session* may only advance after a majority of the current
//! session was heard; a session timer triggers Start Phase 1, session
//! entry re-arms it and announces a 1a, and an ε tick retransmits while
//! idle. [`LogSession`] is that machine and nothing else. Its one host is
//! the log group ([`group`](crate::paxos::group), `S` shards; the plain
//! log is the group with one), which supplies the 1a message and folds
//! each 1b's payload into the election's one `ReportFold` per shard.
//!
//! Single-shot [`session`](crate::paxos::session) keeps its own copy of
//! these rules on purpose: it has no anchoring and no suppression, stops
//! at `decided`, and carries E9's `Ablation` switches — sharing this type
//! with it would make every rule here branch on its caller.

use crate::ballot::{Ballot, Session};
use crate::config::TimingConfig;
use crate::outbox::Outbox;
use crate::paxos::multi::{ReportFold, TIMER_EPSILON, TIMER_SESSION};
use crate::quorum::QuorumTracker;
use crate::time::LocalInstant;
use crate::trace::TraceEvent;
use crate::types::ProcessId;

/// What [`LogSession::adopt`] changed besides the ballot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Adopted {
    /// We were anchored at a lower ballot: the host unanchors its shards.
    pub(crate) unanchored: bool,
    /// The ballot is of a higher session: the host enters it and announces.
    pub(crate) new_session: bool,
}

/// One process's ballot session for a replicated log.
#[derive(Debug, Clone)]
pub(crate) struct LogSession {
    id: ProcessId,
    cfg: TimingConfig,
    mbal: Ballot,
    /// The ballot whose phase 1 we completed. Only ever our own current
    /// ballot: every way of raising `mbal` clears it.
    anchored: Option<Ballot>,
    /// The ballot of the last 2a this process voted for, in any slot of
    /// any shard (see [`Self::phase2_seen`]).
    phase2_at: Option<Ballot>,
    /// The election we started at `mbal`: who promised, and per shard the
    /// fold of what they reported. Dropped when a higher ballot is
    /// adopted, consumed when the majority is crossed.
    election: Option<(QuorumTracker, Vec<ReportFold>)>,
    /// Processes heard from with a ballot of our current session
    /// (Start Phase 1 condition (ii)).
    heard: QuorumTracker,
    timer_expired: bool,
    /// Instant of our last 1a or 2a.
    last_p1a2a: Option<LocalInstant>,
}

impl LogSession {
    pub(crate) fn new(id: ProcessId, cfg: &TimingConfig) -> Self {
        LogSession {
            id,
            cfg: *cfg,
            mbal: Ballot::initial(id),
            anchored: None,
            phase2_at: None,
            election: None,
            heard: QuorumTracker::new(cfg.n()),
            timer_expired: false,
            last_p1a2a: None,
        }
    }

    pub(crate) fn id(&self) -> ProcessId {
        self.id
    }

    pub(crate) fn mbal(&self) -> Ballot {
        self.mbal
    }

    pub(crate) fn session(&self) -> Session {
        self.mbal.session(self.cfg.n())
    }

    /// The owner of the current ballot — where 1b replies go.
    pub(crate) fn owner(&self) -> ProcessId {
        self.mbal.owner(self.cfg.n())
    }

    /// The presumed leader held commands are forwarded to: the owner of
    /// the current ballot, unless that is this process.
    pub(crate) fn leader(&self) -> Option<ProcessId> {
        Some(self.owner()).filter(|o| *o != self.id)
    }

    /// Whether phase 1 is complete at our own current ballot.
    pub(crate) fn is_anchored(&self) -> bool {
        self.anchored.is_some()
    }

    /// Whether ballot `b` is in phase 2 as far as this process can tell:
    /// it voted for a 2a at `b`, or is itself anchored at `b`. The owner
    /// sends 2a(`b`) only after its election for `b` was consumed, and an
    /// election is only ever re-created at a higher ballot — so the
    /// payload of a 1b for `b` can no longer be read, and every later 1a
    /// for `b` is answered with a payload-free 1b (the message itself,
    /// the paper's acknowledgement, is still sent).
    pub(crate) fn phase2_seen(&self, b: Ballot) -> bool {
        self.phase2_at == Some(b) || self.anchored == Some(b)
    }

    /// Arms both timers — at process start, and at restart (timers do not
    /// survive a crash). The host announces its ballot next.
    pub(crate) fn boot<M>(&mut self, out: &mut Outbox<M>) {
        self.timer_expired = false;
        out.set_timer(TIMER_SESSION, self.cfg.session_timer_local());
        out.set_timer(TIMER_EPSILON, self.cfg.epsilon_timer_local());
    }

    /// Broadcasts `one_a`, the host's 1a for the current ballot.
    pub(crate) fn announce<M>(&mut self, one_a: M, out: &mut Outbox<M>) {
        out.event(TraceEvent::OneASent {
            ballot: self.mbal.get(),
        });
        out.broadcast(one_a);
        self.sent_1a2a(out.now());
    }

    /// Stamps the ε idle clock: a 1a or 2a went out at `now`.
    pub(crate) fn sent_1a2a(&mut self, now: LocalInstant) {
        self.last_p1a2a = Some(now);
    }

    /// Session entry: forget who was heard, clear the timer flag, re-arm
    /// the session timer. The host announces next.
    pub(crate) fn enter_session<M>(&mut self, out: &mut Outbox<M>) {
        self.heard.clear();
        self.timer_expired = false;
        out.set_timer(TIMER_SESSION, self.cfg.session_timer_local());
    }

    /// Adopts the higher ballot `b` seen in a 1a or 2a, dropping our own
    /// election and anchor (counted and traced here). Session entry is
    /// left to the host, which may have work to do in between.
    pub(crate) fn adopt<M>(&mut self, b: Ballot, out: &mut Outbox<M>) -> Adopted {
        debug_assert!(b > self.mbal);
        let old_session = self.session();
        self.mbal = b;
        self.election = None;
        let dropped = self.anchored.take();
        if let Some(dropped) = dropped {
            out.event(TraceEvent::Unanchored {
                ballot: dropped.get(),
            });
        }
        Adopted {
            unanchored: dropped.is_some(),
            new_session: self.session() > old_session,
        }
    }

    /// The paper's **Start Phase 1**: once the session timer has expired,
    /// an unanchored process that heard a majority of its session (or is
    /// still in session 0) moves to its own ballot of the next session,
    /// opens an election with a blank fold for each of its `shards` and
    /// enters the session. Returns whether it did; the host then
    /// announces. An anchored leader never restarts: its phase 1 already
    /// covers every slot (§4 "Reducing Message Complexity").
    pub(crate) fn try_start_phase1<M>(&mut self, shards: usize, out: &mut Outbox<M>) -> bool {
        let may_start = self.timer_expired
            && !self.is_anchored()
            && (self.session() == Session::ZERO || self.heard.reached());
        if may_start {
            self.mbal = self.mbal.next_session(self.id, self.cfg.n());
            let blank = vec![ReportFold::default(); shards];
            self.election = Some((QuorumTracker::new(self.cfg.n()), blank));
            self.enter_session(out);
        }
        may_start
    }

    /// Counts `from`'s promise for ballot `b` toward our election,
    /// letting the host `fold` its payload into the per-shard folds.
    /// Returns the completed folds when this promise crosses the
    /// majority: phase 1 is over and the session is anchored (counted and
    /// traced as the promise quorum; the host stamps `Anchored` and
    /// anchors its shards).
    pub(crate) fn promised<M>(
        &mut self,
        b: Ballot,
        from: ProcessId,
        fold: impl FnOnce(&mut [ReportFold]),
        out: &mut Outbox<M>,
    ) -> Option<Vec<ReportFold>> {
        if b != self.mbal {
            return None;
        }
        let (promised, folds) = self.election.as_mut()?;
        if !promised.insert(from) {
            return None;
        }
        fold(folds);
        if !promised.reached() {
            return None;
        }
        self.anchored = Some(b);
        out.event(TraceEvent::PromiseQuorum { ballot: b.get() });
        self.election.take().map(|(_, folds)| folds)
    }

    /// Whether a 2a at ballot `b` may be voted for (the host has already
    /// adopted `b` if it was higher); a vote puts `b` in phase 2.
    pub(crate) fn vote_2a(&mut self, b: Ballot) -> bool {
        let current = b >= self.mbal;
        if current {
            self.phase2_at = Some(b);
        }
        current
    }

    /// Per-message bookkeeping for a message from `from` carrying ballot
    /// `b`. Leader-liveness suppression (the paper's "appropriate
    /// acknowledgement messages"): a message from the owner of our
    /// current ballot — not from ourselves — proves the leader is alive,
    /// so we defer our own takeover by resetting the session timer. The
    /// leader's ε-period 1a/2a traffic keeps every follower suppressed,
    /// so the stable case runs one leader indefinitely — exactly ordinary
    /// Paxos; if the leader dies the traffic stops and timers expire
    /// within σ. And the heard-set counts `from` if `b` is of our session.
    pub(crate) fn heard_from<M>(&mut self, from: ProcessId, b: Ballot, out: &mut Outbox<M>) {
        if b == self.mbal && from == self.owner() && from != self.id {
            self.timer_expired = false;
            out.set_timer(TIMER_SESSION, self.cfg.session_timer_local());
        }
        if b.session(self.cfg.n()) == self.session() {
            self.heard.insert(from);
        }
    }

    /// The session timer fired; the host tries Start Phase 1 next.
    pub(crate) fn session_timer_expired(&mut self) {
        self.timer_expired = true;
    }

    /// Re-arms the ε tick and returns whether this one finds us idle — no
    /// 1a or 2a of ours within the last ε — and so owes a retransmission:
    /// an anchored host re-proposes its in-flight slots or re-announces,
    /// any other re-announces and retries held commands toward
    /// [`Self::leader`].
    pub(crate) fn epsilon_tick<M>(&mut self, out: &mut Outbox<M>) -> bool {
        let epsilon = self.cfg.epsilon_timer_local();
        out.set_timer(TIMER_EPSILON, epsilon);
        self.last_p1a2a
            .is_none_or(|t| out.now().saturating_since(t) >= epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outbox::Action;
    use crate::paxos::multi::batch_of;

    const N: usize = 5;

    fn session(id: u32) -> LogSession {
        let cfg = TimingConfig::for_n_processes(N).unwrap();
        LogSession::new(ProcessId::new(id), &cfg)
    }

    fn out_at(now: LocalInstant) -> Outbox<()> {
        Outbox::new(now)
    }

    fn out() -> Outbox<()> {
        out_at(LocalInstant::ZERO)
    }

    fn p(id: u32) -> ProcessId {
        ProcessId::new(id)
    }

    /// Start Phase 1, attempted after `setup`; every row is p1 of 5.
    #[test]
    fn start_phase1_precondition_table() {
        type Setup = fn(&mut LogSession, &mut Outbox<()>);
        let rows: [(&str, Setup, bool); 6] = [
            ("timer not expired", |_, _| {}, false),
            (
                "session 0 is exempt from the majority rule",
                |s, _| s.session_timer_expired(),
                true,
            ),
            (
                "session 1 without a majority heard",
                |s, o| {
                    s.session_timer_expired();
                    assert!(s.try_start_phase1(1, o));
                    s.heard_from(p(0), s.mbal(), o);
                    s.session_timer_expired();
                },
                false,
            ),
            (
                "session 1 with a majority heard",
                |s, o| {
                    s.session_timer_expired();
                    assert!(s.try_start_phase1(1, o));
                    for from in 0..3 {
                        s.heard_from(p(from), s.mbal(), o);
                    }
                    s.session_timer_expired();
                },
                true,
            ),
            (
                "previous-session ballots do not count as heard",
                |s, o| {
                    s.session_timer_expired();
                    assert!(s.try_start_phase1(1, o));
                    for from in 0..3 {
                        s.heard_from(p(from), Ballot::initial(p(from)), o);
                    }
                    s.session_timer_expired();
                },
                false,
            ),
            (
                "an anchored owner never restarts",
                |s, o| {
                    s.session_timer_expired();
                    assert!(s.try_start_phase1(1, o));
                    let b = s.mbal();
                    for from in 0..3 {
                        s.heard_from(p(from), b, o);
                        s.promised(b, p(from), |_| {}, o);
                    }
                    assert!(s.is_anchored());
                    s.session_timer_expired();
                },
                false,
            ),
        ];
        for (name, setup, expect) in rows {
            let mut s = session(1);
            let mut o = out();
            setup(&mut s, &mut o);
            let before = s.mbal();
            assert_eq!(s.try_start_phase1(1, &mut o), expect, "{name}");
            assert_eq!(
                s.mbal() > before,
                expect,
                "{name}: ballot moves iff started"
            );
        }
    }

    #[test]
    fn session_entry_clears_the_heard_set_and_the_timer_flag() {
        let mut s = session(1);
        let mut o = out();
        s.session_timer_expired();
        assert!(s.try_start_phase1(1, &mut o)); // session 1
        for from in 0..3 {
            s.heard_from(p(from), s.mbal(), &mut o);
        }
        // A higher session arrives: entering it forgets session 1's majority.
        let b = Ballot::new(2 * N as u64 + 2);
        let adopted = s.adopt(b, &mut o);
        assert_eq!(
            adopted,
            Adopted {
                unanchored: false,
                new_session: true
            }
        );
        o.drain();
        s.enter_session(&mut o);
        let rearmed = matches!(o.drain()[..], [Action::SetTimer { id, .. }] if id == TIMER_SESSION);
        assert!(rearmed, "session entry re-arms exactly the session timer");
        s.session_timer_expired();
        assert!(
            !s.try_start_phase1(1, &mut o),
            "nobody heard in session 2 yet"
        );
        // …and a ballot of the same session adopts without entering.
        assert!(!s.adopt(Ballot::new(b.get() + 1), &mut o).new_session);
    }

    /// Only a message from the owner of the current ballot, and not from
    /// ourselves, resets the session timer.
    #[test]
    fn suppression_table() {
        // p2 at ballot 6 (session 1, owner p1).
        let b = Ballot::new(N as u64 + 1);
        let rows = [
            ("the owner's traffic at the current ballot", 1, b, 2, true),
            ("a bystander at the current ballot", 0, b, 2, false),
            (
                "the owner, but at an older ballot",
                1,
                Ballot::new(1),
                2,
                false,
            ),
            ("our own self-addressed traffic", 1, b, 1, false),
        ];
        for (name, from, ballot, me, expect) in rows {
            let mut s = session(me);
            let mut o = out();
            if me == 1 {
                s.session_timer_expired();
                assert!(s.try_start_phase1(1, &mut o));
                assert_eq!(s.mbal(), b);
            } else {
                s.adopt(b, &mut o);
            }
            s.session_timer_expired();
            o.drain();
            s.heard_from(p(from), ballot, &mut o);
            let reset =
                matches!(o.drain()[..], [Action::SetTimer { id, .. }] if id == TIMER_SESSION);
            assert_eq!(reset, expect, "{name}");
            assert_eq!(s.timer_expired, !expect, "{name}: flag cleared iff reset");
        }
    }

    /// `from`'s promise for `b`, folded in as slot `mark` of shard 0; the
    /// slots marked in the completed fold, if this promise completed it.
    fn promise(s: &mut LogSession, b: Ballot, from: u32, mark: u64) -> Option<Vec<u64>> {
        let fold = |f: &mut [ReportFold]| {
            f[0].chosen.insert(mark, batch_of([]));
        };
        let folds = s.promised(b, p(from), fold, &mut out())?;
        assert_eq!(folds.len(), 1, "one fold per shard");
        Some(folds[0].chosen.keys().copied().collect())
    }

    #[test]
    fn promises_count_once_at_the_live_ballot_and_anchor_on_the_majority() {
        let mut s = session(1);
        let mut o = out();
        let b0 = s.mbal();
        assert_eq!(promise(&mut s, b0, 0, 0), None, "no election in flight");
        s.session_timer_expired();
        assert!(s.try_start_phase1(1, &mut o));
        let b = s.mbal();
        assert_eq!(promise(&mut s, Ballot::new(1), 0, 9), None);
        assert_eq!(promise(&mut s, b, 0, 0), None);
        assert_eq!(promise(&mut s, b, 0, 9), None, "duplicate");
        assert_eq!(promise(&mut s, b, 2, 2), None);
        assert!(!s.is_anchored() && !s.phase2_seen(b));
        assert_eq!(promise(&mut s, b, 4, 4), Some(vec![0, 2, 4]));
        assert!(s.is_anchored() && s.phase2_seen(b));
        assert_eq!(promise(&mut s, b, 3, 3), None, "election consumed");
        // A higher ballot drops the anchor, and says so.
        let adopted = s.adopt(Ballot::new(b.get() + 1), &mut o);
        assert!(adopted.unanchored && !adopted.new_session && !s.is_anchored());
    }

    #[test]
    fn epsilon_tick_owes_nothing_inside_epsilon_of_the_last_1a_or_2a() {
        let eps = TimingConfig::for_n_processes(N)
            .unwrap()
            .epsilon_timer_local();
        let t0 = LocalInstant::ZERO;
        let mut s = session(1);
        assert!(s.epsilon_tick(&mut out_at(t0)), "never sent anything: idle");
        s.announce((), &mut out_at(t0));
        assert!(!s.epsilon_tick(&mut out_at(t0 + eps / 2)), "1a within ε");
        assert!(s.epsilon_tick(&mut out_at(t0 + eps)), "ε after the 1a");
        s.sent_1a2a(t0 + eps);
        assert!(
            !s.epsilon_tick(&mut out_at(t0 + eps + eps / 2)),
            "2a within ε"
        );
        let mut o = out_at(t0 + eps * 2);
        assert!(s.epsilon_tick(&mut o), "ε after the 2a");
        let rearmed = matches!(o.drain()[..], [Action::SetTimer { id, .. }] if id == TIMER_EPSILON);
        assert!(rearmed, "every tick re-arms itself");
    }
}
