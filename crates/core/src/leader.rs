//! Leader election for the traditional-Paxos baseline (§2).
//!
//! The paper's §2 baseline "assumes a leader-election procedure whose correct
//! operation is required only to ensure progress, not safety", guaranteed to
//! choose a unique nonfaulty leader within `O(δ)` seconds after stability.
//! Two realizations are provided:
//!
//! * an **idealized oracle** in the simulator, which calls
//!   [`crate::outbox::Process::on_leader_change`] — useful to isolate the
//!   obsolete-ballot pathology from election cost; and
//! * [`HeartbeatOmega`] here — a real Ω implementation: every process
//!   broadcasts heartbeats every `ε` and trusts the lowest-id process it has
//!   heard from within the last `2δ + 2ε`; after `TS` this converges to the
//!   lowest-id nonfaulty process within `O(δ)`.
//!
//! `HeartbeatOmega` is a sub-state-machine: the host protocol multiplexes
//! its [`OmegaMsg`] into the host's message enum and forwards its events,
//! translating the returned [`OmegaCmd`]s into outbox actions.

use crate::config::TimingConfig;
use crate::time::{LocalDuration, LocalInstant};
use crate::types::{ProcessId, TimerId};

/// Wire message of the heartbeat elector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OmegaMsg {
    /// "I am alive" — broadcast every `ε`.
    Heartbeat,
}

/// An effect requested by [`HeartbeatOmega`]; the host translates these into
/// outbox actions on its own message type.
#[derive(Debug, Clone, PartialEq)]
pub enum OmegaCmd {
    /// Broadcast this elector message to all processes.
    Broadcast(OmegaMsg),
    /// Re-arm the elector's tick timer.
    SetTimer {
        /// The host-assigned timer id for the elector.
        id: TimerId,
        /// Local-clock delay.
        after: LocalDuration,
    },
}

/// A heartbeat-based eventual leader elector (Ω).
///
/// Trusts the lowest-id process heard from recently. Because heartbeats are
/// sent at least every `ε` (real time) and delivered within `δ` after `TS`,
/// a timeout of `2δ + 2ε` never suspects a live process once the system is
/// stable, and a crashed-forever process is suspected within `O(δ)`; all
/// nonfaulty processes therefore agree on the lowest-id nonfaulty leader
/// within `O(δ)` of `TS`.
#[derive(Debug, Clone)]
pub struct HeartbeatOmega {
    id: ProcessId,
    n: usize,
    timer_id: TimerId,
    tick: LocalDuration,
    suspect_after: LocalDuration,
    last_heard: Vec<Option<LocalInstant>>,
    leader: ProcessId,
}

impl HeartbeatOmega {
    /// Creates an elector for process `id`; `timer_id` is the host timer id
    /// reserved for the elector's periodic tick.
    pub fn new(id: ProcessId, cfg: &TimingConfig, timer_id: TimerId) -> Self {
        let suspect_real = cfg.delta() * 2 + cfg.epsilon() * 2;
        HeartbeatOmega {
            id,
            n: cfg.n(),
            timer_id,
            tick: cfg.epsilon_timer_local(),
            suspect_after: cfg.local_at_least(suspect_real),
            last_heard: vec![None; cfg.n()],
            leader: id,
        }
    }

    /// The currently trusted leader.
    pub fn leader(&self) -> ProcessId {
        self.leader
    }

    /// The host timer id reserved for this elector.
    pub fn timer_id(&self) -> TimerId {
        self.timer_id
    }

    /// Starts (or restarts after a crash) the elector. Returns the initial
    /// commands; the leader may have changed (restart with stale state), so
    /// the host should consult [`HeartbeatOmega::leader`] afterwards.
    pub fn start(&mut self, now: LocalInstant) -> Vec<OmegaCmd> {
        // Give every process the benefit of the doubt at boot so the initial
        // leader is p0 until evidence accumulates.
        for slot in self.last_heard.iter_mut() {
            *slot = Some(now);
        }
        self.recompute(now);
        vec![
            OmegaCmd::Broadcast(OmegaMsg::Heartbeat),
            OmegaCmd::SetTimer {
                id: self.timer_id,
                after: self.tick,
            },
        ]
    }

    /// Handles an elector message. Returns `Some(new_leader)` if the trusted
    /// leader changed.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: OmegaMsg,
        now: LocalInstant,
    ) -> Option<ProcessId> {
        match msg {
            OmegaMsg::Heartbeat => {
                if from.as_usize() < self.n {
                    self.last_heard[from.as_usize()] = Some(now);
                }
                self.recompute_reporting(now)
            }
        }
    }

    /// Handles the elector's tick timer if `timer` is ours. Returns
    /// `(handled, leader_change, cmds)`.
    pub fn on_timer(
        &mut self,
        timer: TimerId,
        now: LocalInstant,
    ) -> (bool, Option<ProcessId>, Vec<OmegaCmd>) {
        if timer != self.timer_id {
            return (false, None, Vec::new());
        }
        let change = self.recompute_reporting(now);
        let cmds = vec![
            OmegaCmd::Broadcast(OmegaMsg::Heartbeat),
            OmegaCmd::SetTimer {
                id: self.timer_id,
                after: self.tick,
            },
        ];
        (true, change, cmds)
    }

    fn alive(&self, p: ProcessId, now: LocalInstant) -> bool {
        if p == self.id {
            return true;
        }
        match self.last_heard[p.as_usize()] {
            Some(t) => now.saturating_since(t) <= self.suspect_after,
            None => false,
        }
    }

    fn recompute(&mut self, now: LocalInstant) {
        self.leader = ProcessId::all(self.n)
            .find(|&p| self.alive(p, now))
            .unwrap_or(self.id);
    }

    fn recompute_reporting(&mut self, now: LocalInstant) -> Option<ProcessId> {
        let before = self.leader;
        self.recompute(now);
        (self.leader != before).then_some(self.leader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TimingConfig {
        TimingConfig::for_n_processes(3).unwrap()
    }

    fn omega(id: u32) -> HeartbeatOmega {
        HeartbeatOmega::new(ProcessId::new(id), &cfg(), TimerId::new(9))
    }

    #[test]
    fn initial_leader_is_p0() {
        let mut o = omega(2);
        let cmds = o.start(LocalInstant::ZERO);
        assert_eq!(o.leader(), ProcessId::new(0));
        assert_eq!(cmds.len(), 2);
        assert!(matches!(cmds[0], OmegaCmd::Broadcast(OmegaMsg::Heartbeat)));
        assert!(matches!(cmds[1], OmegaCmd::SetTimer { .. }));
    }

    #[test]
    fn silent_p0_gets_suspected() {
        let mut o = omega(2);
        o.start(LocalInstant::ZERO);
        // Only p1 keeps sending heartbeats.
        let late = LocalInstant::ZERO + LocalDuration::from_secs(10);
        o.on_message(ProcessId::new(1), OmegaMsg::Heartbeat, late);
        assert_eq!(o.leader(), ProcessId::new(1), "p0 silent, p1 heard");
    }

    #[test]
    fn self_is_never_suspected() {
        let mut o = omega(2);
        o.start(LocalInstant::ZERO);
        let late = LocalInstant::ZERO + LocalDuration::from_secs(100);
        let (handled, change, _) = o.on_timer(TimerId::new(9), late);
        assert!(handled);
        assert_eq!(change, Some(ProcessId::new(2)));
        assert_eq!(o.leader(), ProcessId::new(2));
    }

    #[test]
    fn heartbeat_refreshes_trust() {
        let mut o = omega(2);
        o.start(LocalInstant::ZERO);
        let step = LocalDuration::from_millis(5);
        let mut now = LocalInstant::ZERO;
        // p0 heartbeats regularly: stays leader forever.
        for _ in 0..100 {
            now = now + step;
            let change = o.on_message(ProcessId::new(0), OmegaMsg::Heartbeat, now);
            assert_eq!(change, None);
        }
        assert_eq!(o.leader(), ProcessId::new(0));
    }

    #[test]
    fn foreign_timer_not_handled() {
        let mut o = omega(1);
        o.start(LocalInstant::ZERO);
        let (handled, change, cmds) = o.on_timer(TimerId::new(3), LocalInstant::ZERO);
        assert!(!handled);
        assert_eq!(change, None);
        assert!(cmds.is_empty());
    }

    #[test]
    fn leader_change_reported_once() {
        let mut o = omega(2);
        o.start(LocalInstant::ZERO);
        let late = LocalInstant::ZERO + LocalDuration::from_secs(10);
        let first = o.on_message(ProcessId::new(1), OmegaMsg::Heartbeat, late);
        assert_eq!(first, Some(ProcessId::new(1)));
        let second = o.on_message(ProcessId::new(1), OmegaMsg::Heartbeat, late);
        assert_eq!(second, None, "no change on repeat");
    }

    #[test]
    fn tick_rearms_timer() {
        let mut o = omega(0);
        o.start(LocalInstant::ZERO);
        let (_, _, cmds) = o.on_timer(TimerId::new(9), LocalInstant::ZERO);
        assert!(cmds
            .iter()
            .any(|c| matches!(c, OmegaCmd::SetTimer { id, .. } if *id == TimerId::new(9))));
        assert!(cmds
            .iter()
            .any(|c| matches!(c, OmegaCmd::Broadcast(OmegaMsg::Heartbeat))));
    }
}
