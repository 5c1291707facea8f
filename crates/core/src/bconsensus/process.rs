//! The B-Consensus round engine, runnable over either weak-ordering-oracle
//! realization (§5).
//!
//! B-Consensus (Pedone, Schiper, Urbán & Cavin) is leaderless: each round
//! `r`, every process w-broadcasts its estimate through the oracle, adopts
//! the **first** w-delivered message of the round, and exchanges what it
//! adopted; a round in which the oracle delivers the same first message to
//! everyone decides. We add an explicit *Echo/Vote* locking exchange (in
//! the style of Ben-Or) so that agreement holds even when the oracle
//! misbehaves arbitrarily, which the original paper obtains with an
//! analogous majority-voting stage:
//!
//! 1. entering round `r`: w-broadcast `First(r, est)`;
//! 2. on the first w-delivery for round `r` with value `v`: broadcast
//!    `Echo(r, v)` (one echo per process per round);
//! 3. on a majority of echoes: if all carry the same `v`, broadcast
//!    `Vote(r, v)`, else `Vote(r, ⊥)`;
//! 4. on a majority of votes: all `v` → **decide** `v`; any `v` → adopt
//!    `est := v`; all `⊥` → keep `est`. Then advance, *gated* on a majority
//!    having begun round `r` (the §3/§5 rule that confines obsolete
//!    messages to rounds ≤ `r0 + 1`).
//!
//! Processes jump directly to higher rounds on receiving any higher-round
//! message — the paper's final §5 modification ("the algorithm is easily
//! modified to allow a process to jump immediately to a later round …
//! without having to execute all previous rounds").
//!
//! Safety of the locking exchange: a non-`⊥` vote for `v` requires an
//! all-`v` echo majority; since each process echoes once per round, two
//! all-same echo majorities cannot carry different values, so all non-`⊥`
//! votes of a round agree. A decision on `v` means a majority voted `v`;
//! every vote-majority intersects it, so every process finishing the round
//! adopts `v` — after a decision, only `v` survives.

use crate::bconsensus::oracle::TimestampOracle;
use crate::config::TimingConfig;
use crate::lclock::Timestamp;
use crate::outbox::{Outbox, Process, Protocol};
use crate::quorum::majority;
use crate::time::RealDuration;
use crate::types::{ProcessId, TimerId, Value};
use crate::wab::WabMessage;
use std::collections::BTreeMap;

/// Timer id of the per-round progress/retransmission timer.
pub const TIMER_BC_ROUND: TimerId = TimerId::new(5);
/// Timer id of the timestamp oracle's ripeness timer.
pub const TIMER_ORACLE: TimerId = TimerId::new(6);

/// Which weak-ordering-oracle realization a deployment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WabMode {
    /// The driver provides an idealized oracle (`Action::WabBroadcast` /
    /// [`Process::on_wab_deliver`]): spontaneous identical order after
    /// stability. This runs the *original* B-Consensus.
    #[default]
    External,
    /// The §5 implementation: Lamport timestamps plus a `2δ` wait, fully
    /// in-process. This is the paper's *modified* B-Consensus.
    Timestamp,
}

/// A round-`r` vote: either locked on a value or `⊥`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcVote {
    /// The voter saw an all-same echo majority for this value.
    Locked(Value),
    /// The voter's echo majority was mixed.
    Bottom,
}

/// Wire messages of B-Consensus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BcMsg {
    /// A timestamped `First` en route to the in-process oracle
    /// ([`WabMode::Timestamp`] only).
    Stamped {
        /// The logical-clock stamp that orders w-deliveries.
        stamp: Timestamp,
        /// The wrapped oracle message.
        inner: WabMessage,
    },
    /// "My first w-delivery for this round was `value`."
    Echo {
        /// The round.
        round: u64,
        /// The first-delivered value.
        value: Value,
    },
    /// The locking vote derived from an echo majority.
    Vote {
        /// The round.
        round: u64,
        /// Locked value or `⊥`.
        vote: BcVote,
    },
    /// A decided value being announced.
    Decided {
        /// The decided value.
        value: Value,
    },
}

impl BcMsg {
    /// The round carried by this message, if any.
    pub fn round(&self) -> Option<u64> {
        match self {
            BcMsg::Stamped { inner, .. } => Some(inner.round),
            BcMsg::Echo { round, .. } | BcMsg::Vote { round, .. } => Some(*round),
            BcMsg::Decided { .. } => None,
        }
    }

    /// A short static label for message-count metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            BcMsg::Stamped { .. } => "first",
            BcMsg::Echo { .. } => "echo",
            BcMsg::Vote { .. } => "vote",
            BcMsg::Decided { .. } => "decided",
        }
    }
}

/// Protocol factory for B-Consensus.
#[derive(Debug, Clone, Default)]
pub struct BConsensus {
    mode: WabMode,
}

impl BConsensus {
    /// The original algorithm over the driver's idealized oracle.
    pub fn original() -> Self {
        BConsensus {
            mode: WabMode::External,
        }
    }

    /// The paper's modified algorithm with the in-process timestamp oracle.
    pub fn modified() -> Self {
        BConsensus {
            mode: WabMode::Timestamp,
        }
    }

    /// The configured oracle mode.
    pub fn mode(&self) -> WabMode {
        self.mode
    }
}

impl Protocol for BConsensus {
    type Msg = BcMsg;
    type Process = BConsensusProcess;

    fn name(&self) -> &'static str {
        match self.mode {
            WabMode::External => "b-consensus/oracle",
            WabMode::Timestamp => "b-consensus/modified",
        }
    }

    fn kind_of(msg: &BcMsg) -> &'static str {
        msg.kind()
    }

    fn spawn(&self, id: ProcessId, cfg: &TimingConfig, initial: Value) -> BConsensusProcess {
        let oracle = match self.mode {
            WabMode::External => None,
            WabMode::Timestamp => Some(TimestampOracle::new(id, cfg)),
        };
        BConsensusProcess {
            id,
            cfg: *cfg,
            mode: self.mode,
            oracle,
            round: 0,
            est: initial,
            first: None,
            my_echo: None,
            echoes: BTreeMap::new(),
            my_vote: None,
            votes: BTreeMap::new(),
            votes_concluded: false,
            want_advance: false,
            max_round_of: vec![0; cfg.n()],
            decided: None,
            // Sized for w-broadcast + `2δ` oracle wait + echo + vote.
            round_timeout: cfg.delta() * 8,
            started: false,
        }
    }
}

/// One B-Consensus process.
#[derive(Debug, Clone)]
pub struct BConsensusProcess {
    id: ProcessId,
    cfg: TimingConfig,
    mode: WabMode,
    oracle: Option<TimestampOracle>,
    round: u64,
    est: Value,
    /// First w-delivered value of the current round (latched once).
    first: Option<Value>,
    /// The echo we broadcast this round, if any.
    my_echo: Option<Value>,
    echoes: BTreeMap<ProcessId, Value>,
    /// The vote we broadcast this round, if any.
    my_vote: Option<BcVote>,
    votes: BTreeMap<ProcessId, BcVote>,
    votes_concluded: bool,
    want_advance: bool,
    max_round_of: Vec<u64>,
    decided: Option<Value>,
    round_timeout: RealDuration,
    started: bool,
}

impl BConsensusProcess {
    /// The process's current round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The process's current estimate.
    pub fn estimate(&self) -> Value {
        self.est
    }

    /// How many processes are known to have begun round `r` or higher.
    pub fn occupancy(&self, r: u64) -> usize {
        self.max_round_of.iter().filter(|&&mr| mr >= r).count()
    }

    fn note_round(&mut self, p: ProcessId, r: u64) {
        let slot = &mut self.max_round_of[p.as_usize()];
        if r > *slot {
            *slot = r;
        }
    }

    fn w_broadcast_first(&mut self, out: &mut Outbox<BcMsg>) {
        let m = WabMessage::new(self.id, self.round, self.est);
        match self.mode {
            WabMode::External => out.wab_broadcast(m),
            WabMode::Timestamp => {
                let oracle = self.oracle.as_mut().expect("timestamp mode has an oracle");
                let stamp = oracle.stamp(&m);
                out.broadcast(BcMsg::Stamped { stamp, inner: m });
            }
        }
    }

    fn enter_round(&mut self, r: u64, out: &mut Outbox<BcMsg>) {
        debug_assert!(r > self.round || !self.started);
        self.round = r;
        self.started = true;
        self.first = None;
        self.my_echo = None;
        self.echoes.clear();
        self.my_vote = None;
        self.votes.clear();
        self.votes_concluded = false;
        self.want_advance = false;
        self.note_round(self.id, r);
        self.w_broadcast_first(out);
        out.set_timer(TIMER_BC_ROUND, self.cfg.local_at_least(self.round_timeout));
    }

    fn try_advance(&mut self, out: &mut Outbox<BcMsg>) {
        if self.decided.is_none()
            && self.want_advance
            && self.occupancy(self.round) >= majority(self.cfg.n())
        {
            self.enter_round(self.round + 1, out);
        }
    }

    /// Handles one oracle w-delivery (from either realization).
    fn handle_wab(&mut self, m: WabMessage, out: &mut Outbox<BcMsg>) {
        if self.decided.is_some() {
            return;
        }
        self.note_round(m.origin, m.round);
        if m.round > self.round {
            self.enter_round(m.round, out);
        }
        if m.round == self.round && self.first.is_none() {
            // The round's defining step: adopt the FIRST w-delivery.
            self.first = Some(m.value);
            self.my_echo = Some(m.value);
            out.broadcast(BcMsg::Echo {
                round: self.round,
                value: m.value,
            });
        }
        self.try_advance(out);
    }

    fn on_echo(&mut self, from: ProcessId, round: u64, value: Value, out: &mut Outbox<BcMsg>) {
        debug_assert_eq!(round, self.round);
        self.echoes.insert(from, value);
        if self.my_vote.is_none() && self.echoes.len() >= majority(self.cfg.n()) {
            // Snapshot exactly the first majority of echoes.
            let mut values = self.echoes.values();
            let head = *values.next().expect("majority is nonempty");
            let vote = if values.all(|v| *v == head) {
                BcVote::Locked(head)
            } else {
                BcVote::Bottom
            };
            self.my_vote = Some(vote);
            out.broadcast(BcMsg::Vote { round, vote });
        }
    }

    fn on_vote(&mut self, from: ProcessId, round: u64, vote: BcVote, out: &mut Outbox<BcMsg>) {
        debug_assert_eq!(round, self.round);
        self.votes.insert(from, vote);
        if !self.votes_concluded && self.votes.len() >= majority(self.cfg.n()) {
            self.votes_concluded = true;
            let locked: Vec<Value> = self
                .votes
                .values()
                .filter_map(|v| match v {
                    BcVote::Locked(x) => Some(*x),
                    BcVote::Bottom => None,
                })
                .collect();
            debug_assert!(
                locked.windows(2).all(|w| w[0] == w[1]),
                "all non-bottom votes of a round agree"
            );
            if locked.len() == self.votes.len() {
                // Every vote in the majority locked the same value.
                self.decide(locked[0], out);
            } else if let Some(&v) = locked.first() {
                self.est = v;
            }
            if self.decided.is_none() {
                self.want_advance = true;
                self.try_advance(out);
            }
        }
    }

    fn decide(&mut self, v: Value, out: &mut Outbox<BcMsg>) {
        if self.decided.is_some() {
            return;
        }
        self.decided = Some(v);
        out.decide(v);
        out.broadcast(BcMsg::Decided { value: v });
    }

    fn retransmit_round(&mut self, out: &mut Outbox<BcMsg>) {
        self.w_broadcast_first(out);
        if let Some(v) = self.my_echo {
            out.broadcast(BcMsg::Echo {
                round: self.round,
                value: v,
            });
        }
        if let Some(vote) = self.my_vote {
            out.broadcast(BcMsg::Vote {
                round: self.round,
                vote,
            });
        }
    }

    fn arm_oracle_timer(&mut self, out: &mut Outbox<BcMsg>) {
        if let Some(oracle) = self.oracle.as_ref() {
            if let Some(deadline) = oracle.earliest_deadline() {
                let after = deadline.saturating_since(out.now());
                out.set_timer(TIMER_ORACLE, after);
            }
        }
    }
}

impl Process for BConsensusProcess {
    type Msg = BcMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_start(&mut self, out: &mut Outbox<BcMsg>) {
        self.enter_round(0, out);
    }

    fn on_message(&mut self, from: ProcessId, msg: &BcMsg, out: &mut Outbox<BcMsg>) {
        if self.decided.is_some() {
            if let Some(v) = self.decided {
                if !matches!(*msg, BcMsg::Decided { .. }) {
                    out.send(from, BcMsg::Decided { value: v });
                }
            }
            return;
        }
        if let Some(r) = msg.round() {
            self.note_round(from, r);
            // Round jumping (§5): any higher-round message moves us there.
            if r > self.round {
                self.enter_round(r, out);
            }
        }
        match *msg {
            BcMsg::Stamped { stamp, inner } => {
                if self.mode == WabMode::Timestamp {
                    let oracle = self.oracle.as_mut().expect("timestamp mode has an oracle");
                    oracle.on_stamped(stamp, inner, out.now());
                    self.arm_oracle_timer(out);
                }
                // External mode ignores stray stamped messages.
            }
            BcMsg::Echo { round, value } => {
                if round == self.round {
                    self.on_echo(from, round, value, out);
                }
            }
            BcMsg::Vote { round, vote } => {
                if round == self.round {
                    self.on_vote(from, round, vote, out);
                }
            }
            BcMsg::Decided { value } => {
                self.decide(value, out);
            }
        }
        if self.decided.is_none() {
            self.try_advance(out);
        }
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<BcMsg>) {
        match timer {
            TIMER_BC_ROUND => {
                out.set_timer(TIMER_BC_ROUND, self.cfg.local_at_least(self.round_timeout));
                if let Some(v) = self.decided {
                    out.broadcast(BcMsg::Decided { value: v });
                    return;
                }
                self.retransmit_round(out);
                self.want_advance = true;
                self.try_advance(out);
            }
            TIMER_ORACLE => {
                if self.decided.is_some() {
                    return;
                }
                if let Some(oracle) = self.oracle.as_mut() {
                    let (ripe, next) = oracle.release(out.now());
                    if let Some(deadline) = next {
                        let after = deadline.saturating_since(out.now());
                        out.set_timer(TIMER_ORACLE, after);
                    }
                    for m in ripe {
                        self.handle_wab(m, out);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_restart(&mut self, out: &mut Outbox<BcMsg>) {
        out.set_timer(TIMER_BC_ROUND, self.cfg.local_at_least(self.round_timeout));
        if let Some(v) = self.decided {
            out.broadcast(BcMsg::Decided { value: v });
            return;
        }
        self.retransmit_round(out);
        self.arm_oracle_timer(out);
    }

    fn on_wab_deliver(&mut self, msg: WabMessage, out: &mut Outbox<BcMsg>) {
        if self.mode == WabMode::External {
            self.handle_wab(msg, out);
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

    fn spawn_original(n: usize, id: u32) -> BConsensusProcess {
        BConsensus::original().spawn(ProcessId::new(id), &cfg(n), Value::new(10 + id as u64))
    }

    fn spawn_modified(n: usize, id: u32) -> BConsensusProcess {
        BConsensus::modified().spawn(ProcessId::new(id), &cfg(n), Value::new(10 + id as u64))
    }

    fn out() -> Outbox<BcMsg> {
        Outbox::new(LocalInstant::ZERO)
    }

    fn wmsg(origin: u32, round: u64, v: u64) -> WabMessage {
        WabMessage::new(ProcessId::new(origin), round, Value::new(v))
    }

    #[test]
    fn original_start_w_broadcasts() {
        let mut p = spawn_original(3, 1);
        let mut o = out();
        p.on_start(&mut o);
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::WabBroadcast { msg } if msg.round == 0 && msg.value == Value::new(11)
        )));
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_BC_ROUND)));
    }

    #[test]
    fn modified_start_broadcasts_stamped() {
        let mut p = spawn_modified(3, 1);
        let mut o = out();
        p.on_start(&mut o);
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: BcMsg::Stamped { inner, .. } }
                if inner.round == 0 && inner.value == Value::new(11)
        )));
    }

    #[test]
    fn first_delivery_is_latched_and_echoed() {
        let mut p = spawn_original(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_wab_deliver(wmsg(2, 0, 99), &mut o);
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: BcMsg::Echo { round: 0, value } }
                if *value == Value::new(99)
        )));
        // Second delivery of the round does not re-echo.
        p.on_wab_deliver(wmsg(1, 0, 55), &mut o);
        assert!(
            !o.drain().iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    msg: BcMsg::Echo { .. }
                }
            )),
            "only the first w-delivery counts"
        );
    }

    #[test]
    fn unanimous_echo_majority_votes_locked() {
        let mut p = spawn_original(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        for from in [1u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &BcMsg::Echo {
                    round: 0,
                    value: Value::new(7),
                },
                &mut o,
            );
        }
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: BcMsg::Vote { round: 0, vote: BcVote::Locked(v) } }
                if *v == Value::new(7)
        )));
    }

    #[test]
    fn mixed_echo_majority_votes_bottom() {
        let mut p = spawn_original(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_message(
            ProcessId::new(1),
            &BcMsg::Echo {
                round: 0,
                value: Value::new(7),
            },
            &mut o,
        );
        p.on_message(
            ProcessId::new(2),
            &BcMsg::Echo {
                round: 0,
                value: Value::new(8),
            },
            &mut o,
        );
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: BcMsg::Vote {
                    round: 0,
                    vote: BcVote::Bottom
                }
            }
        )));
    }

    #[test]
    fn vote_is_cast_once() {
        let mut p = spawn_original(5, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        for from in [1u32, 2, 3] {
            p.on_message(
                ProcessId::new(from),
                &BcMsg::Echo {
                    round: 0,
                    value: Value::new(7),
                },
                &mut o,
            );
        }
        let votes = o
            .drain()
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Broadcast {
                        msg: BcMsg::Vote { .. }
                    }
                )
            })
            .count();
        assert_eq!(votes, 1);
        // A fourth echo does not re-vote.
        p.on_message(
            ProcessId::new(4),
            &BcMsg::Echo {
                round: 0,
                value: Value::new(7),
            },
            &mut o,
        );
        assert!(!o.drain().iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: BcMsg::Vote { .. }
            }
        )));
    }

    #[test]
    fn unanimous_locked_votes_decide() {
        let mut p = spawn_original(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        for from in [1u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &BcMsg::Vote {
                    round: 0,
                    vote: BcVote::Locked(Value::new(7)),
                },
                &mut o,
            );
        }
        assert_eq!(p.decision(), Some(Value::new(7)));
        assert!(o
            .drain()
            .iter()
            .any(|a| matches!(a, Action::Decide { value, .. } if *value == Value::new(7))));
    }

    #[test]
    fn mixed_votes_adopt_locked_value_and_want_advance() {
        let mut p = spawn_original(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_message(
            ProcessId::new(1),
            &BcMsg::Vote {
                round: 0,
                vote: BcVote::Locked(Value::new(7)),
            },
            &mut o,
        );
        p.on_message(
            ProcessId::new(2),
            &BcMsg::Vote {
                round: 0,
                vote: BcVote::Bottom,
            },
            &mut o,
        );
        o.drain();
        assert_eq!(p.decision(), None);
        assert_eq!(p.estimate(), Value::new(7), "adopted the locked value");
        // Occupancy: self, p1, p2 all in round 0 -> majority -> advanced.
        assert_eq!(p.round(), 1, "gated advance succeeded");
    }

    #[test]
    fn all_bottom_votes_keep_estimate() {
        let mut p = spawn_original(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        for from in [1u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &BcMsg::Vote {
                    round: 0,
                    vote: BcVote::Bottom,
                },
                &mut o,
            );
        }
        assert_eq!(p.estimate(), Value::new(10), "own initial kept");
        assert_eq!(p.round(), 1);
    }

    #[test]
    fn higher_round_message_jumps() {
        let mut p = spawn_original(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_message(
            ProcessId::new(2),
            &BcMsg::Echo {
                round: 5,
                value: Value::new(1),
            },
            &mut o,
        );
        assert_eq!(p.round(), 5);
        let acts = o.drain();
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::WabBroadcast { msg } if msg.round == 5)),
            "re-w-broadcasts First for the new round"
        );
    }

    #[test]
    fn timeout_without_majority_occupancy_stalls() {
        // Round 0 is begun by everyone by definition; gating bites from
        // round 1 on.
        let mut p = spawn_original(5, 0);
        let mut o = out();
        p.on_start(&mut o);
        p.on_message(
            ProcessId::new(3),
            &BcMsg::Echo {
                round: 1,
                value: Value::new(1),
            },
            &mut o,
        );
        o.drain();
        assert_eq!(p.round(), 1);
        p.on_timer(TIMER_BC_ROUND, &mut o);
        o.drain();
        assert_eq!(p.round(), 1, "gating holds the round");
    }

    #[test]
    fn timeout_with_majority_occupancy_advances() {
        let mut p = spawn_original(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_message(
            ProcessId::new(1),
            &BcMsg::Echo {
                round: 0,
                value: Value::new(3),
            },
            &mut o,
        );
        o.drain();
        p.on_timer(TIMER_BC_ROUND, &mut o);
        assert_eq!(p.round(), 1);
    }

    #[test]
    fn modified_mode_oracle_roundtrip() {
        let n = 3;
        let mut p = spawn_modified(n, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        // A stamped First from p2 arrives; it must NOT be handled before
        // the 2δ wait.
        let stamp = Timestamp::new(50, ProcessId::new(2));
        p.on_message(
            ProcessId::new(2),
            &BcMsg::Stamped {
                stamp,
                inner: wmsg(2, 0, 99),
            },
            &mut o,
        );
        let acts = o.drain();
        assert!(
            !acts.iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    msg: BcMsg::Echo { .. }
                }
            )),
            "no echo before the oracle wait"
        );
        let deadline = acts
            .iter()
            .find_map(|a| match a {
                Action::SetTimer { id, after } if *id == TIMER_ORACLE => Some(*after),
                _ => None,
            })
            .expect("oracle timer armed");
        // Fire the oracle timer at the deadline: now the echo appears.
        let mut o2 = Outbox::new(LocalInstant::ZERO + deadline);
        p.on_timer(TIMER_ORACLE, &mut o2);
        let acts = o2.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: BcMsg::Echo { round: 0, value } }
                if *value == Value::new(99)
        )));
    }

    #[test]
    fn stamped_higher_round_jumps_at_receipt() {
        let mut p = spawn_modified(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_message(
            ProcessId::new(2),
            &BcMsg::Stamped {
                stamp: Timestamp::new(50, ProcessId::new(2)),
                inner: wmsg(2, 4, 99),
            },
            &mut o,
        );
        assert_eq!(p.round(), 4, "jumps on receipt, before oracle delivery");
    }

    #[test]
    fn decided_process_announces() {
        let mut p = spawn_original(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        p.on_message(
            ProcessId::new(1),
            &BcMsg::Decided {
                value: Value::new(3),
            },
            &mut o,
        );
        assert_eq!(p.decision(), Some(Value::new(3)));
        o.drain();
        p.on_message(
            ProcessId::new(2),
            &BcMsg::Echo {
                round: 9,
                value: Value::new(1),
            },
            &mut o,
        );
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Send { to, msg: BcMsg::Decided { .. } } if *to == ProcessId::new(2)
        )));
    }

    #[test]
    fn restart_retransmits_round_state() {
        let mut p = spawn_original(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        p.on_wab_deliver(wmsg(2, 0, 99), &mut o);
        o.drain();
        p.on_restart(&mut o);
        let acts = o.drain();
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::WabBroadcast { msg } if msg.round == 0)));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: BcMsg::Echo { round: 0, .. }
            }
        )));
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_BC_ROUND)));
    }

    #[test]
    fn validity_estimate_only_moves_to_proposed_values() {
        // est can only change via first-delivery adoption (a w-broadcast
        // value) or a locked vote (derived from echoes of first-deliveries),
        // so by induction it is always some process's initial value. This
        // test exercises the two mutation paths.
        let mut p = spawn_original(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        assert_eq!(p.estimate(), Value::new(10));
        p.on_message(
            ProcessId::new(1),
            &BcMsg::Vote {
                round: 0,
                vote: BcVote::Locked(Value::new(12)),
            },
            &mut o,
        );
        p.on_message(
            ProcessId::new(2),
            &BcMsg::Vote {
                round: 0,
                vote: BcVote::Bottom,
            },
            &mut o,
        );
        assert_eq!(p.estimate(), Value::new(12));
    }

    #[test]
    fn protocol_names_and_kinds() {
        assert_eq!(BConsensus::original().name(), "b-consensus/oracle");
        assert_eq!(BConsensus::modified().name(), "b-consensus/modified");
        assert_eq!(
            BConsensus::kind_of(&BcMsg::Decided {
                value: Value::new(0)
            }),
            "decided"
        );
    }
}
