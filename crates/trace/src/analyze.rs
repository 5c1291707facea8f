//! Trace analysis: the per-command phase decomposition (queue → quorum →
//! learn) and the per-decision replay of the paper's post-`TS` bound.

use crate::buffer::TraceRecord;
use crate::hist::{HistogramSummary, LatencyHistogram};
use crate::jsonl::TraceMeta;
use esync_core::trace::TraceEvent;
use esync_core::types::ProcessId;
use serde::Serialize;
use std::collections::BTreeMap;

/// The latency decomposition of one run's command journeys, embedded in
/// `WorkloadSummary` artifacts as `phase_latency` (schema v6; `null`
/// when tracing was off):
///
/// * **queue** — submission to the first phase-2a carrying the command
///   (admission, forwarding, batching and any rebalance freeze);
/// * **quorum** — first 2a to the leader observing the 2b quorum
///   (`chosen`); the paper's two-message-delay phase;
/// * **learn** — chosen to the first process applying the command.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseLatency {
    /// Commands with a complete decomposition (submitted, proposed and
    /// decided inside the trace window).
    pub decisions: u64,
    /// Submission → first 2a, per command.
    pub queue: HistogramSummary,
    /// First 2a → 2b quorum, per command.
    pub quorum: HistogramSummary,
    /// 2b quorum → first apply, per command.
    pub learn: HistogramSummary,
}

/// The journey milestones of one command, assembled from a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandPhases {
    /// The command.
    pub value: u64,
    /// First `submit` stamp.
    pub submit_ns: u64,
    /// First `proposed` stamp, if the command reached a 2a.
    pub proposed_ns: Option<u64>,
    /// First `chosen` stamp of the slot the command was proposed into,
    /// if any (single-shot traces have no `chosen` events).
    pub chosen_ns: Option<u64>,
    /// First `decided` stamp anywhere, if the command committed.
    pub decided_ns: Option<u64>,
}

/// Assembles per-command journeys from `records`, ordered by submit
/// stamp. Records need not be time-sorted (the threaded runtime
/// concatenates per-node buffers); every "first" below is the minimum
/// stamp observed.
pub fn command_phases(records: &[TraceRecord]) -> Vec<CommandPhases> {
    let mut submit: BTreeMap<u64, u64> = BTreeMap::new();
    let mut proposed: BTreeMap<u64, (u64, u32, u64)> = BTreeMap::new();
    let mut chosen: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    let mut decided: BTreeMap<u64, u64> = BTreeMap::new();
    fn keep_min(slot: &mut u64, at: u64) {
        if at < *slot {
            *slot = at;
        }
    }
    for r in records {
        match r.ev {
            TraceEvent::Submit { value } => {
                keep_min(submit.entry(value).or_insert(u64::MAX), r.at_ns);
            }
            TraceEvent::Proposed { shard, slot, value } => {
                let e = proposed.entry(value).or_insert((u64::MAX, shard, slot));
                if r.at_ns < e.0 {
                    *e = (r.at_ns, shard, slot);
                }
            }
            TraceEvent::Chosen { shard, slot } => {
                keep_min(chosen.entry((shard, slot)).or_insert(u64::MAX), r.at_ns);
            }
            TraceEvent::Decided { value, .. } => {
                keep_min(decided.entry(value).or_insert(u64::MAX), r.at_ns);
            }
            _ => {}
        }
    }
    let mut out: Vec<CommandPhases> = submit
        .iter()
        .map(|(value, submit_ns)| {
            let p = proposed.get(value).copied();
            CommandPhases {
                value: *value,
                submit_ns: *submit_ns,
                proposed_ns: p.map(|(at, _, _)| at),
                chosen_ns: p.and_then(|(_, sh, sl)| chosen.get(&(sh, sl)).copied()),
                decided_ns: decided.get(value).copied(),
            }
        })
        .collect();
    out.sort_by_key(|c| (c.submit_ns, c.value));
    out
}

/// Computes the run-level [`PhaseLatency`] over every command with a
/// complete journey. Traces without `chosen` events (single-shot
/// protocols) fold the quorum and learn phases together: `quorum` then
/// spans 2a → first apply and `learn` is zero.
pub fn decompose(records: &[TraceRecord]) -> PhaseLatency {
    let mut queue = LatencyHistogram::new();
    let mut quorum = LatencyHistogram::new();
    let mut learn = LatencyHistogram::new();
    let mut decisions = 0u64;
    for c in command_phases(records) {
        let (Some(p), Some(d)) = (c.proposed_ns, c.decided_ns) else {
            continue;
        };
        decisions += 1;
        queue.record(p.saturating_sub(c.submit_ns));
        match c.chosen_ns.filter(|ch| *ch >= p) {
            Some(ch) => {
                quorum.record(ch.saturating_sub(p));
                learn.record(d.saturating_sub(ch));
            }
            None => {
                quorum.record(d.saturating_sub(p));
                learn.record(0);
            }
        }
    }
    PhaseLatency {
        decisions,
        queue: queue.summary(),
        quorum: quorum.summary(),
        learn: learn.summary(),
    }
}

/// One process's decision landing after the deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundViolation {
    /// The process that decided late.
    pub pid: ProcessId,
    /// Its first decision stamp.
    pub at_ns: u64,
    /// The deadline it missed (`ts_ns + bound_ns`).
    pub deadline_ns: u64,
}

/// The outcome of replaying a trace against the paper's per-decision
/// bound (see [`check_decision_bound`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundReport {
    /// `ts_ns + bound_ns` from the trace header.
    pub deadline_ns: u64,
    /// Per-process first-decision stamps, ascending by process id.
    pub first_decisions: Vec<(ProcessId, u64)>,
    /// The decisions that missed the deadline (empty = bound holds).
    pub violations: Vec<BoundViolation>,
}

impl BoundReport {
    /// Whether every observed decision met the deadline.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Replays `records` against `meta`'s deadline: every process's **first**
/// `decided` stamp must land at or before `ts_ns + bound_ns`. This is the
/// per-decision (per-process) form of the paper's Theorem-4.1-style
/// guarantee — strictly stronger than the run-level "max decision delay"
/// the experiment artifacts already assert, because one late process
/// cannot hide behind an early quorum. Processes that never decide inside
/// the trace window are not violations (the checker's caller knows the
/// crash schedule and can require a decision count separately).
pub fn check_decision_bound(meta: &TraceMeta, records: &[TraceRecord]) -> BoundReport {
    let deadline_ns = meta.ts_ns.saturating_add(meta.bound_ns);
    let mut first: BTreeMap<u32, u64> = BTreeMap::new();
    for r in records {
        if let TraceEvent::Decided { .. } = r.ev {
            let e = first.entry(r.pid.as_u32()).or_insert(u64::MAX);
            if r.at_ns < *e {
                *e = r.at_ns;
            }
        }
    }
    let first_decisions: Vec<(ProcessId, u64)> = first
        .iter()
        .map(|(pid, at)| (ProcessId::new(*pid), *at))
        .collect();
    let violations = first_decisions
        .iter()
        .filter(|(_, at)| *at > deadline_ns)
        .map(|(pid, at)| BoundViolation {
            pid: *pid,
            at_ns: *at,
            deadline_ns,
        })
        .collect();
    BoundReport {
        deadline_ns,
        first_decisions,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ns: u64, pid: u32, ev: TraceEvent) -> TraceRecord {
        TraceRecord {
            at_ns,
            pid: ProcessId::new(pid),
            ev,
        }
    }

    #[test]
    fn decomposition_splits_the_journey() {
        let records = vec![
            rec(100, 1, TraceEvent::Submit { value: 7 }),
            rec(120, 1, TraceEvent::ForwardSent { value: 7 }),
            rec(150, 0, TraceEvent::Admitted { shard: 0, value: 7 }),
            rec(
                200,
                0,
                TraceEvent::Proposed {
                    shard: 0,
                    slot: 3,
                    value: 7,
                },
            ),
            rec(260, 0, TraceEvent::Chosen { shard: 0, slot: 3 }),
            rec(
                300,
                2,
                TraceEvent::Decided {
                    shard: 0,
                    slot: 3,
                    value: 7,
                },
            ),
        ];
        let phases = command_phases(&records);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].submit_ns, 100);
        assert_eq!(phases[0].proposed_ns, Some(200));
        assert_eq!(phases[0].chosen_ns, Some(260));
        assert_eq!(phases[0].decided_ns, Some(300));
        let pl = decompose(&records);
        assert_eq!(pl.decisions, 1);
        assert_eq!(pl.queue.max_ns, 100);
        assert_eq!(pl.quorum.max_ns, 60);
        assert_eq!(pl.learn.max_ns, 40);
    }

    #[test]
    fn single_shot_traces_fold_learn_into_quorum() {
        let records = vec![
            rec(10, 0, TraceEvent::Submit { value: 5 }),
            rec(
                30,
                0,
                TraceEvent::Proposed {
                    shard: 0,
                    slot: 0,
                    value: 5,
                },
            ),
            rec(
                90,
                0,
                TraceEvent::Decided {
                    shard: 0,
                    slot: 0,
                    value: 5,
                },
            ),
        ];
        let pl = decompose(&records);
        assert_eq!(pl.decisions, 1);
        assert_eq!(pl.queue.max_ns, 20);
        assert_eq!(pl.quorum.max_ns, 60);
        assert_eq!(pl.learn.max_ns, 0);
    }

    #[test]
    fn bound_check_flags_only_late_deciders() {
        let meta = TraceMeta {
            exp: "t".into(),
            seed: 0,
            n: 3,
            delta_ns: 10,
            epsilon_ns: 10,
            ts_ns: 1_000,
            bound_ns: 500,
            dropped: 0,
        };
        let d = |at, pid| {
            rec(
                at,
                pid,
                TraceEvent::Decided {
                    shard: 0,
                    slot: 0,
                    value: 1,
                },
            )
        };
        // pid 0 decides pre-TS, pid 1 inside the bound, pid 2 late —
        // and a later duplicate decide of pid 1 must not count.
        let records = vec![d(900, 0), d(1_400, 1), d(9_999, 1), d(1_501, 2)];
        let report = check_decision_bound(&meta, &records);
        assert_eq!(report.deadline_ns, 1_500);
        assert_eq!(report.first_decisions.len(), 3);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].pid, ProcessId::new(2));
        assert!(!report.holds());
    }
}
