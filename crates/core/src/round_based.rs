//! A rotating-coordinator round-based consensus algorithm (§3 baseline).
//!
//! §3 describes the family: "Processes execute a sequence of rounds. A
//! process executing round `i` ignores messages from lower-numbered rounds;
//! if it receives a message from a higher-numbered round `j`, then it begins
//! executing round `j`." The obsolete-message problem is avoided "by not
//! allowing a process spontaneously to enter round `i+1` until it has
//! learned that a majority of the processes have begun round `i`" — which we
//! implement — but the algorithms still need their round's *coordinator*
//! (process `i mod N`) to be nonfaulty: "Since there could be `⌈N/2⌉ − 1`
//! faulty processes, they could require `O(N)` rounds to reach consensus,
//! each round taking `O(δ)` seconds." Experiment E3 measures exactly that.
//!
//! The concrete algorithm is a Chandra–Toueg-style instance of the family:
//!
//! * entering round `r`, every process broadcasts `Estimate(r, est, ts)`
//!   (the broadcast doubles as the "I have begun round r" announcement used
//!   for gating);
//! * the coordinator `r mod N` collects a majority of estimates, picks the
//!   value with the highest lock stamp `ts`, and broadcasts
//!   `Propose(r, v)`;
//! * a process receiving the proposal locks it (`est := v`, `ts := r+1`)
//!   and broadcasts `Ack(r, v)`;
//! * a majority of `Ack(r, v)` decides `v`;
//! * a timeout (default `4δ`) makes a stalled process want to advance; it
//!   actually enters `r+1` only once a majority has begun `r` (gating).

use crate::config::TimingConfig;
use crate::outbox::{Outbox, Process, Protocol};
use crate::quorum::{majority, QuorumTracker};
use crate::time::RealDuration;
use crate::types::{ProcessId, TimerId, Value};
use std::collections::BTreeMap;

/// Timer id of the per-round progress/retransmission timer.
pub const TIMER_ROUND: TimerId = TimerId::new(4);

/// Wire messages of the rotating-coordinator algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundMsg {
    /// Broadcast on entering a round: announces the round and carries the
    /// sender's current estimate and lock stamp for the coordinator.
    Estimate {
        /// The round being entered.
        round: u64,
        /// The sender's current estimate.
        est: Value,
        /// The round-derived lock stamp (0 = never locked).
        ts: u64,
    },
    /// The coordinator's proposal for this round.
    Propose {
        /// The coordinator's round.
        round: u64,
        /// The proposed value (highest-stamp estimate from a majority).
        value: Value,
    },
    /// A positive acknowledgement, broadcast to everyone.
    Ack {
        /// The acknowledged round.
        round: u64,
        /// The proposed value being locked.
        value: Value,
    },
    /// A decided value being announced.
    Decided {
        /// The decided value.
        value: Value,
    },
}

impl RoundMsg {
    /// The round carried by this message, if any.
    pub fn round(&self) -> Option<u64> {
        match self {
            RoundMsg::Estimate { round, .. }
            | RoundMsg::Propose { round, .. }
            | RoundMsg::Ack { round, .. } => Some(*round),
            RoundMsg::Decided { .. } => None,
        }
    }

    /// A short static label for message-count metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            RoundMsg::Estimate { .. } => "estimate",
            RoundMsg::Propose { .. } => "propose",
            RoundMsg::Ack { .. } => "ack",
            RoundMsg::Decided { .. } => "decided",
        }
    }
}

/// Protocol factory for the rotating-coordinator baseline.
#[derive(Debug, Clone, Default)]
pub struct RotatingCoordinator;

impl RotatingCoordinator {
    /// The baseline; its rounds time out after `4δ`.
    pub fn new() -> Self {
        RotatingCoordinator
    }
}

impl Protocol for RotatingCoordinator {
    type Msg = RoundMsg;
    type Process = RotatingCoordinatorProcess;

    fn name(&self) -> &'static str {
        "rotating-coordinator"
    }

    fn kind_of(msg: &RoundMsg) -> &'static str {
        msg.kind()
    }

    fn spawn(
        &self,
        id: ProcessId,
        cfg: &TimingConfig,
        initial: Value,
    ) -> RotatingCoordinatorProcess {
        RotatingCoordinatorProcess {
            id,
            cfg: *cfg,
            round: 0,
            est: initial,
            ts: 0,
            estimates: BTreeMap::new(),
            proposed: None,
            acked: None,
            acks: QuorumTracker::new(cfg.n()),
            ack_value: None,
            want_advance: false,
            max_round_of: vec![0; cfg.n()],
            decided: None,
            // `Ω(δ)`, so that post-`TS` rounds complete.
            round_timeout: cfg.delta() * 4,
            started: false,
        }
    }
}

/// One rotating-coordinator process.
#[derive(Debug, Clone)]
pub struct RotatingCoordinatorProcess {
    id: ProcessId,
    cfg: TimingConfig,
    round: u64,
    est: Value,
    /// Lock stamp: `r+1` after locking the round-`r` proposal; 0 initially.
    ts: u64,
    /// Coordinator-side: estimates collected for the current round.
    estimates: BTreeMap<ProcessId, (Value, u64)>,
    /// Coordinator-side: the value proposed in the current round, if any.
    proposed: Option<Value>,
    /// The value we acked in the current round, if any.
    acked: Option<Value>,
    acks: QuorumTracker,
    ack_value: Option<Value>,
    want_advance: bool,
    /// Highest round observed per process (for the §3 majority gating).
    max_round_of: Vec<u64>,
    decided: Option<Value>,
    round_timeout: RealDuration,
    started: bool,
}

impl RotatingCoordinatorProcess {
    /// The process's current round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The coordinator of round `r`: process `r mod N`.
    pub fn coordinator_of(&self, r: u64) -> ProcessId {
        ProcessId::new((r % self.cfg.n() as u64) as u32)
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

    fn enter_round(&mut self, r: u64, out: &mut Outbox<RoundMsg>) {
        debug_assert!(r > self.round || !self.started);
        self.round = r;
        self.started = true;
        self.estimates.clear();
        self.proposed = None;
        self.acked = None;
        self.acks = QuorumTracker::new(self.cfg.n());
        self.ack_value = None;
        self.want_advance = false;
        self.note_round(self.id, r);
        out.broadcast(RoundMsg::Estimate {
            round: r,
            est: self.est,
            ts: self.ts,
        });
        out.set_timer(TIMER_ROUND, self.cfg.local_at_least(self.round_timeout));
    }

    fn try_advance(&mut self, out: &mut Outbox<RoundMsg>) {
        if self.decided.is_none()
            && self.want_advance
            && self.occupancy(self.round) >= majority(self.cfg.n())
        {
            self.enter_round(self.round + 1, out);
        }
    }

    fn try_propose(&mut self, out: &mut Outbox<RoundMsg>) {
        if self.proposed.is_some() || self.coordinator_of(self.round) != self.id {
            return;
        }
        if self.estimates.len() >= majority(self.cfg.n()) {
            // Highest lock stamp wins; at stamp 0 nothing was ever locked,
            // so any choice is safe (BTreeMap order makes it deterministic).
            let (&_, &(value, _)) = self
                .estimates
                .iter()
                .max_by_key(|(pid, (_, ts))| (*ts, std::cmp::Reverse(**pid)))
                .expect("nonempty");
            self.proposed = Some(value);
            out.broadcast(RoundMsg::Propose {
                round: self.round,
                value,
            });
        }
    }

    /// Re-sends this round's estimate, and the proposal and ack if any.
    fn retransmit_round(&self, out: &mut Outbox<RoundMsg>) {
        out.broadcast(RoundMsg::Estimate {
            round: self.round,
            est: self.est,
            ts: self.ts,
        });
        if let Some(value) = self.proposed {
            out.broadcast(RoundMsg::Propose {
                round: self.round,
                value,
            });
        }
        if let Some(value) = self.acked {
            out.broadcast(RoundMsg::Ack {
                round: self.round,
                value,
            });
        }
    }

    fn decide(&mut self, v: Value, out: &mut Outbox<RoundMsg>) {
        if self.decided.is_some() {
            return;
        }
        self.decided = Some(v);
        out.decide(v);
        out.broadcast(RoundMsg::Decided { value: v });
    }
}

impl Process for RotatingCoordinatorProcess {
    type Msg = RoundMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_start(&mut self, out: &mut Outbox<RoundMsg>) {
        self.enter_round(0, out);
    }

    fn on_message(&mut self, from: ProcessId, msg: &RoundMsg, out: &mut Outbox<RoundMsg>) {
        if self.decided.is_some() {
            if let Some(v) = self.decided {
                if !matches!(*msg, RoundMsg::Decided { .. }) {
                    out.send(from, RoundMsg::Decided { value: v });
                }
            }
            return;
        }
        if let Some(r) = msg.round() {
            self.note_round(from, r);
            // "If it receives a message from a higher-numbered round j, it
            // begins executing round j" — jump, then process the message.
            if r > self.round {
                self.enter_round(r, out);
            }
            if r < self.round {
                // "A process executing round i ignores messages from
                // lower-numbered rounds."
                self.try_advance(out);
                return;
            }
        }
        match *msg {
            RoundMsg::Estimate { round, est, ts } => {
                debug_assert_eq!(round, self.round);
                if self.coordinator_of(self.round) == self.id {
                    self.estimates.insert(from, (est, ts));
                    self.try_propose(out);
                }
            }
            RoundMsg::Propose { round, value } => {
                debug_assert_eq!(round, self.round);
                if self.acked.is_none() {
                    self.est = value;
                    self.ts = round + 1;
                    self.acked = Some(value);
                    out.broadcast(RoundMsg::Ack { round, value });
                }
            }
            RoundMsg::Ack { round, value } => {
                debug_assert_eq!(round, self.round);
                debug_assert!(
                    self.ack_value.is_none() || self.ack_value == Some(value),
                    "one proposal per round implies one ack value"
                );
                self.ack_value = Some(value);
                if self.acks.insert(from) && self.acks.reached() {
                    self.decide(value, out);
                }
            }
            RoundMsg::Decided { value } => {
                self.decide(value, out);
            }
        }
        if self.decided.is_none() {
            self.try_advance(out);
        }
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<RoundMsg>) {
        if timer != TIMER_ROUND {
            return;
        }
        out.set_timer(TIMER_ROUND, self.cfg.local_at_least(self.round_timeout));
        if let Some(v) = self.decided {
            out.broadcast(RoundMsg::Decided { value: v });
            return;
        }
        // The round stalled: retransmit (messages may have been lost before
        // TS) and try to move on, gated by majority occupancy.
        self.retransmit_round(out);
        self.want_advance = true;
        self.try_advance(out);
    }

    fn on_restart(&mut self, out: &mut Outbox<RoundMsg>) {
        out.set_timer(TIMER_ROUND, self.cfg.local_at_least(self.round_timeout));
        if let Some(v) = self.decided {
            out.broadcast(RoundMsg::Decided { value: v });
            return;
        }
        self.retransmit_round(out);
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

    fn spawn(n: usize, id: u32) -> RotatingCoordinatorProcess {
        RotatingCoordinator::new().spawn(ProcessId::new(id), &cfg(n), Value::new(10 + id as u64))
    }

    fn out() -> Outbox<RoundMsg> {
        Outbox::new(LocalInstant::ZERO)
    }

    #[test]
    fn start_enters_round_zero() {
        let mut p = spawn(3, 1);
        let mut o = out();
        p.on_start(&mut o);
        let acts = o.drain();
        assert_eq!(p.round(), 0);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: RoundMsg::Estimate { round: 0, est, ts: 0 } }
                if *est == Value::new(11)
        )));
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_ROUND)));
    }

    #[test]
    fn coordinator_proposes_highest_stamp() {
        let mut p = spawn(3, 0); // coordinator of round 0
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_message(
            ProcessId::new(0),
            &RoundMsg::Estimate {
                round: 0,
                est: Value::new(10),
                ts: 0,
            },
            &mut o,
        );
        assert!(o.drain().iter().all(|a| !matches!(
            a,
            Action::Broadcast {
                msg: RoundMsg::Propose { .. }
            }
        )));
        p.on_message(
            ProcessId::new(1),
            &RoundMsg::Estimate {
                round: 0,
                est: Value::new(77),
                ts: 5,
            },
            &mut o,
        );
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: RoundMsg::Propose { round: 0, value } }
                if *value == Value::new(77)
        )));
    }

    #[test]
    fn non_coordinator_never_proposes() {
        let mut p = spawn(3, 1);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        for from in 0..3u32 {
            p.on_message(
                ProcessId::new(from),
                &RoundMsg::Estimate {
                    round: 0,
                    est: Value::new(5),
                    ts: 0,
                },
                &mut o,
            );
        }
        assert!(!o.drain().iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: RoundMsg::Propose { .. }
            }
        )));
    }

    #[test]
    fn proposal_locks_estimate_and_acks() {
        let mut p = spawn(3, 1);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_message(
            ProcessId::new(0),
            &RoundMsg::Propose {
                round: 0,
                value: Value::new(99),
            },
            &mut o,
        );
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: RoundMsg::Ack { round: 0, value } }
                if *value == Value::new(99)
        )));
        // The lock stamp is round+1 so it beats unlocked estimates.
        assert_eq!(p.ts, 1);
        assert_eq!(p.est, Value::new(99));
    }

    #[test]
    fn majority_acks_decide() {
        let mut p = spawn(3, 2);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        let v = Value::new(99);
        p.on_message(
            ProcessId::new(0),
            &RoundMsg::Ack { round: 0, value: v },
            &mut o,
        );
        assert_eq!(p.decision(), None);
        p.on_message(
            ProcessId::new(1),
            &RoundMsg::Ack { round: 0, value: v },
            &mut o,
        );
        assert_eq!(p.decision(), Some(v));
        assert!(o
            .drain()
            .iter()
            .any(|a| matches!(a, Action::Decide { value, .. } if *value == v)));
    }

    #[test]
    fn higher_round_message_causes_jump() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_message(
            ProcessId::new(2),
            &RoundMsg::Estimate {
                round: 7,
                est: Value::new(1),
                ts: 0,
            },
            &mut o,
        );
        assert_eq!(p.round(), 7, "jumped straight to round 7");
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: RoundMsg::Estimate { round: 7, .. }
            }
        )));
    }

    #[test]
    fn lower_round_messages_ignored() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        p.on_message(
            ProcessId::new(2),
            &RoundMsg::Estimate {
                round: 7,
                est: Value::new(1),
                ts: 0,
            },
            &mut o,
        );
        o.drain();
        p.on_message(
            ProcessId::new(1),
            &RoundMsg::Propose {
                round: 3,
                value: Value::new(5),
            },
            &mut o,
        );
        assert!(
            !o.drain().iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    msg: RoundMsg::Ack { .. }
                }
            )),
            "stale proposal must not be acked"
        );
    }

    #[test]
    fn timeout_alone_does_not_advance_without_majority() {
        // Round 0 is begun by everyone by definition, so gating bites from
        // round 1 on: get there via a jump, then time out repeatedly.
        let mut p = spawn(5, 0);
        let mut o = out();
        p.on_start(&mut o);
        p.on_message(
            ProcessId::new(3),
            &RoundMsg::Estimate {
                round: 1,
                est: Value::new(1),
                ts: 0,
            },
            &mut o,
        );
        o.drain();
        assert_eq!(p.round(), 1);
        p.on_timer(TIMER_ROUND, &mut o);
        o.drain();
        assert_eq!(p.round(), 1, "only {{self, p3}} began round 1: gated");
    }

    #[test]
    fn timeout_with_majority_occupancy_advances() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        // p1's estimate shows round 0 has majority occupancy {p0, p1}.
        p.on_message(
            ProcessId::new(1),
            &RoundMsg::Estimate {
                round: 0,
                est: Value::new(11),
                ts: 0,
            },
            &mut o,
        );
        o.drain();
        p.on_timer(TIMER_ROUND, &mut o);
        assert_eq!(p.round(), 1, "gate open: advance on timeout");
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: RoundMsg::Estimate { round: 1, .. }
            }
        )));
    }

    #[test]
    fn timeout_retransmits_current_round() {
        let mut p = spawn(5, 1);
        let mut o = out();
        p.on_start(&mut o);
        p.on_message(
            ProcessId::new(0),
            &RoundMsg::Propose {
                round: 0,
                value: Value::new(4),
            },
            &mut o,
        );
        o.drain();
        p.on_timer(TIMER_ROUND, &mut o);
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: RoundMsg::Estimate { .. }
            }
        )));
        assert!(
            acts.iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    msg: RoundMsg::Ack { .. }
                }
            )),
            "acked value is retransmitted"
        );
    }

    #[test]
    fn decided_process_announces() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        p.on_message(
            ProcessId::new(1),
            &RoundMsg::Decided {
                value: Value::new(3),
            },
            &mut o,
        );
        assert_eq!(p.decision(), Some(Value::new(3)));
        o.drain();
        p.on_message(
            ProcessId::new(2),
            &RoundMsg::Estimate {
                round: 9,
                est: Value::new(1),
                ts: 0,
            },
            &mut o,
        );
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send { to, msg: RoundMsg::Decided { .. } } if *to == ProcessId::new(2)
        )));
        assert_eq!(p.round(), 0, "decided processes stop executing rounds");
    }

    #[test]
    fn restart_retransmits_state() {
        let mut p = spawn(3, 1);
        let mut o = out();
        p.on_start(&mut o);
        p.on_message(
            ProcessId::new(0),
            &RoundMsg::Propose {
                round: 0,
                value: Value::new(4),
            },
            &mut o,
        );
        o.drain();
        p.on_restart(&mut o);
        let acts = o.drain();
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_ROUND)));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: RoundMsg::Estimate { round: 0, .. }
            }
        )));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: RoundMsg::Ack { round: 0, .. }
            }
        )));
    }

    #[test]
    fn coordinator_rotation() {
        let p = spawn(3, 0);
        assert_eq!(p.coordinator_of(0), ProcessId::new(0));
        assert_eq!(p.coordinator_of(1), ProcessId::new(1));
        assert_eq!(p.coordinator_of(2), ProcessId::new(2));
        assert_eq!(p.coordinator_of(3), ProcessId::new(0));
    }

    #[test]
    fn occupancy_counts_self_and_others() {
        let mut p = spawn(5, 0);
        let mut o = out();
        p.on_start(&mut o);
        assert_eq!(p.occupancy(0), 5, "everyone begins in round 0");
        p.on_message(
            ProcessId::new(3),
            &RoundMsg::Estimate {
                round: 2,
                est: Value::new(0),
                ts: 0,
            },
            &mut o,
        );
        // We jumped to round 2; p3 is there too.
        assert_eq!(p.occupancy(2), 2);
        assert_eq!(p.occupancy(3), 0);
    }
}
