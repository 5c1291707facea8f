//! The simulation world: binds protocol state machines to the network,
//! clocks, oracles and fault script.
//!
//! The [`World`] groups its state by who touches it per event — the loop
//! (this file, with the handlers and `apply_actions`), the message
//! `fabric`, the processes (`procs`) and observation (`observe`) — so that
//! a handler writes into the reused outbox in place and its actions are
//! applied through disjoint borrows of the rest.

mod config;
mod fabric;
mod observe;
mod procs;

pub use config::{SimConfig, SimConfigBuilder};

use crate::clock::DriftClock;
use crate::error::SimError;
use crate::event::{EventKind, EventQueue, MsgPayload};
use crate::metrics::{CommitRecord, Report};
use crate::oracle::LeaderOracle;
use crate::time::SimTime;
use esync_core::outbox::{Action, Outbox, Process, Protocol};
use esync_core::time::RealDuration;
use esync_core::types::{ProcessId, TimerId, Value};
use esync_metrics::Observer;
use fabric::Fabric;
use procs::{BitSet, ProcHarness, Procs};

/// Process `i`'s initial value: `100 + i`.
fn initial_value(i: usize) -> Value {
    Value::new(100 + i as u64)
}

/// What every event touches.
#[derive(Debug)]
struct Loop<M> {
    queue: EventQueue<M>,
    now: SimTime,
    events: u64,
}

/// A deterministic run of one protocol under one configuration.
#[derive(Debug)]
pub struct World<P: Protocol> {
    cfg: SimConfig,
    protocol: P,
    lp: Loop<P::Msg>,
    fabric: Fabric,
    procs: Procs<P::Process>,
    /// The trace ring, snapshot series and watchdogs; the scratch
    /// outbox's tracing/metering flags are on exactly while it collects.
    obs: Observer,
    leader: LeaderOracle,
    /// Every `Action::Decide` with its instant since the last
    /// [`World::release_commits`] — one record per command per process for
    /// multi-instance protocols (the workload drivers' measurement feed),
    /// one per process for single-shot ones.
    commits: Vec<CommitRecord>,
    /// Reused outbox: handlers write into it in place and `apply_actions`
    /// drains it, so no event allocates or moves one.
    scratch: Outbox<P::Msg>,
}

impl<P: Protocol> World<P> {
    /// Creates a world and schedules boots, faults and oracle events.
    pub fn new(cfg: SimConfig, protocol: P) -> Self {
        let mut world = World {
            lp: Loop {
                queue: EventQueue::with_bucket_width_shift(
                    Self::width_shift(&cfg),
                    Self::queue_cap(&cfg),
                ),
                now: SimTime::ZERO,
                events: 0,
            },
            fabric: Fabric::new(&cfg),
            procs: Procs::new(),
            obs: Observer::default(),
            leader: LeaderOracle::new(cfg.timing.delta() * 2),
            cfg,
            protocol,
            commits: Vec::new(),
            scratch: Outbox::default(),
        };
        world.populate();
        world
    }

    /// Bucket width ~δ/16 spreads in-flight messages across the calendar
    /// ring; the queue's adaptive rule narrows it further where the horizon
    /// allows (to 2^16 ns within the first window of `sim_log_s1`). Against
    /// δ/4, while buckets were comparison-sorted: 2–7% fewer ns per event
    /// on n = 33 chaos runs, but `sim_log_s1` and `sim_group_s8` 8–9%
    /// slower with 16–23% more resident memory. Against δ/8, with large
    /// buckets ordered by a counting pass (10 interleaved pairs each, on
    /// 2 cores): `sim_recover_n33` ×1.001 µs per op (5/10 pairs; peak RSS
    /// ×0.864, as the rule narrows δ/8 to 2^17 ns at once) and `sim_log_s1`
    /// ×1.065 (3/10). Neither wider width wins, so δ/16 stays.
    fn width_shift(cfg: &SimConfig) -> u32 {
        (cfg.timing.delta().as_nanos() / 16).max(1024).ilog2()
    }

    /// Slab slots to pre-size. A broadcast is one fan-out record, so the
    /// slab holds only unicasts, timers and control events: measured live
    /// peaks under chaos are 72, 247, 755 and 2 674 entries at n = 5, 9, 17
    /// and 33 (≈ 3n², against 616 … 53 410 pending keys), which this covers
    /// with the per-process timers and boots on top. Longer submission
    /// scripts grow the slab while they are scheduled, before the run.
    fn queue_cap(cfg: &SimConfig) -> usize {
        let n = cfg.timing.n();
        3 * n * n + 8 * n + 64
    }

    /// Re-initializes this world for a fresh run of `cfg`, **reusing** the
    /// event queue's slab and ring, the per-process harness vector, the
    /// scratch outbox and every metrics buffer. A sweep resets one world
    /// per seed instead of rebuilding it; the run is bit-identical to one
    /// on a newly constructed `World::new(cfg, protocol)`
    /// (`reset_is_bit_identical_to_fresh_construction` enforces this).
    /// The protocol factory is kept; trace recording and metering stay
    /// enabled if they were.
    pub fn reset(&mut self, cfg: SimConfig) {
        self.lp
            .queue
            .reset(Self::width_shift(&cfg), Self::queue_cap(&cfg));
        self.lp.now = SimTime::ZERO;
        self.lp.events = 0;
        self.fabric = Fabric::new(&cfg);
        self.leader = LeaderOracle::new(cfg.timing.delta() * 2);
        self.cfg = cfg;
        self.commits.clear();
        self.obs.reset(&mut self.scratch);
        self.populate();
    }

    /// Spawns the processes and schedules boots, faults, submissions and
    /// oracle events (shared by [`World::new`] and [`World::reset`]).
    fn populate(&mut self) {
        let cfg = &self.cfg;
        let n = cfg.timing.n();
        // Reuse harness shells (and their timer-slot vectors) in place.
        let procs = &mut self.procs;
        procs.harness.truncate(n);
        procs.alive.reset(n);
        procs.started.reset(n);
        procs.decided_at.clear();
        procs.decided_at.resize(n, None);
        procs.live_undecided = 0;
        for (i, h) in procs.harness.iter_mut().enumerate() {
            let pid = ProcessId::new(i as u32);
            h.proc = self.protocol.spawn(pid, &cfg.timing, initial_value(i));
            h.clock = DriftClock::sample(cfg.timing.rho(), &mut self.fabric.rng);
            h.timers.clear();
            h.decided_value = None;
            h.crash_times.clear();
            h.restart_times.clear();
        }
        for i in procs.harness.len()..n {
            let pid = ProcessId::new(i as u32);
            procs.harness.push(ProcHarness {
                proc: self.protocol.spawn(pid, &cfg.timing, initial_value(i)),
                clock: DriftClock::sample(cfg.timing.rho(), &mut self.fabric.rng),
                timers: Vec::with_capacity(8),
                decided_value: None,
                crash_times: Vec::new(),
                restart_times: Vec::new(),
            });
        }
        // Crashes are scheduled before boots at the same instant so that a
        // crash at t=0 prevents the process from ever starting.
        let queue = &mut self.lp.queue;
        for &(pid, at) in &cfg.scenario.crashes {
            queue.push(at, EventKind::Crash { pid });
        }
        for pid in ProcessId::all(n) {
            queue.push(SimTime::ZERO, EventKind::Boot { pid });
        }
        for &(pid, at) in &cfg.scenario.restarts {
            queue.push(at, EventKind::Boot { pid });
        }
        for &(pid, at, value) in &cfg.scenario.submits {
            queue.push(at, EventKind::ClientSubmit { pid, value });
        }
        for stream in &cfg.scenario.streams {
            for (at, pid, value) in stream.expand(n) {
                queue.push(at, EventKind::ClientSubmit { pid, value });
            }
        }
        if cfg.leader_oracle {
            queue.push(self.leader.announce_time(cfg.ts), EventKind::LeaderAnnounce);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.lp.now
    }

    /// The stabilization time of this run.
    pub fn ts(&self) -> SimTime {
        self.cfg.ts
    }

    /// The full configuration of this run (e.g. for embedding in
    /// benchmark artifacts).
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Read access to a process's state machine (for typed assertions in
    /// experiments and tests).
    pub fn process(&self, pid: ProcessId) -> &P::Process {
        &self.procs.harness[pid.as_usize()].proc
    }

    /// Every commit (`Action::Decide`) so far, in application order: one
    /// record per command per process for multi-instance protocols. The
    /// feed the workload drivers compute latency histograms from. Only
    /// the records since the last [`World::release_commits`]; the whole
    /// stream for a caller that never releases.
    pub fn commits(&self) -> &[CommitRecord] {
        &self.commits
    }

    /// Drops every commit record held so far, once the caller has read
    /// them: a long drive that releases after each step holds only one
    /// step's records instead of one per command per process.
    pub fn release_commits(&mut self) {
        self.commits.clear();
    }

    /// Injects a message to be delivered at `at`, bypassing the network
    /// model. This models the paper's *obsolete messages*: messages "sent
    /// before `TS` by failed processes" that the adversary releases at a
    /// time of its choosing. The caller is responsible for injecting only
    /// states the claimed sender could legitimately have reached.
    pub fn inject_message(&mut self, at: SimTime, from: ProcessId, to: ProcessId, msg: P::Msg) {
        let msg = MsgPayload::Owned(msg);
        self.lp.queue.push(at, EventKind::Deliver { from, to, msg });
    }

    /// Schedules a client submission (multi-instance protocols).
    pub fn submit(&mut self, at: SimTime, pid: ProcessId, value: Value) {
        self.lp
            .queue
            .push(at, EventKind::ClientSubmit { pid, value });
    }

    /// Schedules a crash at `at`, bypassing the scenario script — the
    /// fault-injection hook for drivers that pick their victim *during*
    /// the run (e.g. crash whichever process anchored as leader). The
    /// paper's model allows failures only before `TS`; unlike scripted
    /// crashes this is not validated, so callers targeting the modeled
    /// regime must keep `at ≤ TS` themselves.
    pub fn inject_crash(&mut self, at: SimTime, pid: ProcessId) {
        assert!(pid.as_usize() < self.cfg.timing.n(), "unknown process");
        self.lp.queue.push(at, EventKind::Crash { pid });
    }

    /// Schedules a restart (or first boot, if the process never ran) at
    /// `at`, bypassing the scenario script. Pairs with
    /// [`World::inject_crash`] for mid-run leader-churn drives.
    pub fn inject_restart(&mut self, at: SimTime, pid: ProcessId) {
        assert!(pid.as_usize() < self.cfg.timing.n(), "unknown process");
        self.lp.queue.push(at, EventKind::Boot { pid });
    }

    /// Processes events until every started, live process has decided and
    /// no boots or submissions remain pending.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] if the horizon passes first.
    pub fn run_to_completion(&mut self) -> Result<Report, SimError> {
        loop {
            if self.complete() {
                return Ok(self.report());
            }
            match self.lp.queue.peek_time() {
                None => {
                    // Quiescent but incomplete: protocols always keep a
                    // timer armed, so this indicates a driver-level bug.
                    return Err(SimError::Timeout { at: self.lp.now });
                }
                Some(t) if t > self.cfg.max_time => {
                    return Err(SimError::Timeout { at: t });
                }
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Processes events with firing time ≤ `until`, then advances the clock
    /// to `until`. Useful for fixed-horizon measurements.
    pub fn run_until(&mut self, until: SimTime) {
        while self.lp.queue.peek_time().is_some_and(|t| t <= until) {
            self.step();
        }
        // Close out the horizon: boundaries past the last event but
        // within it still sample (every event ≤ them has been applied).
        self.flush_metric_snapshots(until + RealDuration::from_nanos(1));
        self.lp.now = self.lp.now.max(until);
    }

    /// Whether the completion condition holds. O(1): both halves are
    /// maintained incrementally (`live_undecided` by the boot/crash/decide
    /// handlers, pending control events by the queue). The debug cross-check
    /// scans only the SoA flag arrays — a few cache lines even at large `n`.
    pub fn complete(&self) -> bool {
        let procs = &self.procs;
        debug_assert_eq!(
            procs.live_undecided,
            ProcessId::all(procs.harness.len())
                .filter(|&p| procs.runnable(p) && procs.decided_at[p.as_usize()].is_none())
                .count(),
            "live_undecided counter drifted"
        );
        procs.live_undecided == 0 && self.lp.queue.control_pending() == 0
    }

    /// Processes a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.lp.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.lp.now, "time must not run backwards");
        self.flush_metric_snapshots(ev.at);
        self.lp.now = ev.at;
        self.lp.events += 1;
        match ev.kind {
            EventKind::Boot { pid } => self.on_boot(pid),
            EventKind::Crash { pid } => self.on_crash(pid),
            EventKind::Deliver { from, to, msg } => self.on_deliver(from, to, msg),
            EventKind::TimerFire { pid, timer, epoch } => self.on_timer_fire(pid, timer, epoch),
            EventKind::WabDeliver { to, msg } => {
                self.handle(to, |proc, out| proc.on_wab_deliver(msg, out));
            }
            EventKind::LeaderAnnounce => self.on_leader_announce(),
            EventKind::LeaderChange { to, leader } => {
                self.handle(to, |proc, out| proc.on_leader_change(leader, out));
            }
            EventKind::ClientSubmit { pid, value } => {
                self.handle(pid, |proc, out| proc.on_client(value, out));
            }
        }
        true
    }

    /// Runs one handler of `pid` — if it is alive and started — against the
    /// scratch outbox, re-armed in place at `pid`'s local clock, then
    /// applies what it emitted. Returns whether the handler ran.
    fn handle(
        &mut self,
        pid: ProcessId,
        handler: impl FnOnce(&mut P::Process, &mut Outbox<P::Msg>),
    ) -> bool {
        if !self.procs.runnable(pid) {
            return false;
        }
        let h = &mut self.procs.harness[pid.as_usize()];
        self.scratch.reset(h.clock.local_at(self.lp.now));
        handler(&mut h.proc, &mut self.scratch);
        self.apply_actions(pid);
        true
    }

    fn on_boot(&mut self, pid: ProcessId) {
        let i = pid.as_usize();
        let (procs, now) = (&mut self.procs, self.lp.now);
        if procs.alive.get(i) {
            return; // duplicate boot (e.g. restart of a never-crashed pid)
        }
        if procs.harness[i].crash_times.last() == Some(&now) {
            // A crash at the same instant wins (crashes are scheduled
            // before boots): "dead forever" processes never run.
            return;
        }
        procs.alive.set(i, true);
        if procs.decided_at[i].is_none() {
            procs.live_undecided += 1;
        }
        let first = !procs.started.get(i);
        if first {
            procs.started.set(i, true);
        } else {
            procs.harness[i].restart_times.push(now);
        }
        self.handle(pid, |proc, out| {
            if first {
                proc.on_start(out);
            } else {
                proc.on_restart(out);
            }
        });
        // A process restarting after the oracle spoke learns the leader.
        if self.cfg.leader_oracle {
            if let Some(leader) = self.leader.current() {
                let change = EventKind::LeaderChange { to: pid, leader };
                self.lp.queue.push(now, change);
            }
        }
    }

    fn on_crash(&mut self, pid: ProcessId) {
        let i = pid.as_usize();
        let procs = &mut self.procs;
        procs.harness[i].crash_times.push(self.lp.now);
        if !procs.alive.get(i) && !procs.started.get(i) {
            // Crash-before-start: mark started-never; nothing else to do.
            return;
        }
        if procs.alive.get(i) && procs.decided_at[i].is_none() {
            procs.live_undecided -= 1;
        }
        procs.alive.set(i, false);
        // All pending timers die with the incarnation.
        for slot in &mut procs.harness[i].timers {
            slot.epoch += 1;
            slot.armed_at = None;
        }
    }

    fn on_deliver(&mut self, from: ProcessId, to: ProcessId, msg: MsgPayload<P::Msg>) {
        if !self.handle(to, move |proc, out| proc.on_message(from, msg.get(), out)) {
            self.fabric.msgs_dropped += 1;
        }
    }

    fn on_timer_fire(&mut self, pid: ProcessId, timer: TimerId, epoch: u64) {
        let now = self.lp.now;
        let slot = self.procs.harness[pid.as_usize()].timer_slot(timer);
        slot.next_pending = None;
        if slot.epoch != epoch {
            // Superseded or cancelled. If the timer was re-armed to a later
            // deadline, this (earlier) pop is where the deferred heap event
            // gets scheduled — see `TimerSlot`.
            if let Some(armed) = slot.armed_at {
                debug_assert!(armed >= now, "armed deadlines are never in the past");
                let epoch = slot.epoch;
                slot.next_pending = Some(armed);
                let fire = EventKind::TimerFire { pid, timer, epoch };
                self.lp.queue.push(armed, fire);
            }
            return;
        }
        // Current epoch: this is the armed deadline firing. Consume the
        // arm by bumping the epoch — duplicate heap events for the same
        // epoch can exist (a stale pop re-pushing for a deadline that a
        // `SetTimer` also pushed for), and exactly one of them may fire.
        slot.epoch += 1;
        slot.armed_at = None;
        self.handle(pid, |proc, out| proc.on_timer(timer, out));
    }

    fn on_leader_announce(&mut self) {
        let n = self.cfg.timing.n();
        let procs = &self.procs;
        let runnable = ProcessId::all(n).filter(|&p| procs.runnable(p));
        if let Some(leader) = self.leader.announce(runnable) {
            for to in ProcessId::all(n).filter(|p| procs.alive.get(p.as_usize())) {
                let change = EventKind::LeaderChange { to, leader };
                self.lp.queue.push(self.lp.now, change);
            }
        }
    }

    /// Applies what `pid`'s handler left in the scratch outbox. The drain
    /// borrows only `self.scratch`; everything an action needs is reached
    /// through the other fields.
    fn apply_actions(&mut self, pid: ProcessId) {
        let now = self.lp.now;
        // Drain the trace side channel first, stamping each event with
        // the simulated instant of the event being applied — same-seed
        // runs therefore produce byte-identical trace files.
        self.obs.drain_trace(&mut self.scratch, pid, now.as_nanos());
        let (queue, fabric) = (&mut self.lp.queue, &mut self.fabric);
        for action in self.scratch.drain_iter() {
            match action {
                Action::Send { to, msg } => {
                    fabric.send(queue, now, P::kind_of(&msg), pid, to, msg);
                }
                Action::Broadcast { msg } => {
                    fabric.broadcast(queue, now, P::kind_of(&msg), pid, msg);
                }
                Action::SetTimer { id, after } => {
                    let h = &mut self.procs.harness[pid.as_usize()];
                    let fire_at = h.clock.real_after(now, after);
                    let slot = h.timer_slot(id);
                    slot.epoch += 1;
                    slot.armed_at = Some(fire_at);
                    // Lazy re-arm: if a pending heap event already fires at
                    // or before the new deadline, reuse it (its stale pop
                    // re-pushes for the armed deadline) instead of flooding
                    // the queue with one event per re-arm.
                    if slot.next_pending.is_none_or(|p| p > fire_at) {
                        slot.next_pending = Some(fire_at);
                        let epoch = slot.epoch;
                        let fire = EventKind::TimerFire {
                            pid,
                            timer: id,
                            epoch,
                        };
                        queue.push(fire_at, fire);
                    }
                }
                Action::CancelTimer { id } => {
                    let slot = self.procs.harness[pid.as_usize()].timer_slot(id);
                    slot.epoch += 1;
                    slot.armed_at = None;
                }
                Action::Decide { value, shard } => {
                    self.commits.push(CommitRecord {
                        at: now,
                        pid,
                        shard,
                        value,
                    });
                    let (procs, i) = (&mut self.procs, pid.as_usize());
                    if procs.decided_at[i].is_none() {
                        procs.decided_at[i] = Some(now);
                        procs.harness[i].decided_value = Some(value);
                        if procs.runnable(pid) {
                            procs.live_undecided -= 1;
                        }
                        // Live bound monitor: each process's *first*
                        // decision is the one the paper's deadline
                        // `TS + ε + 3τ + 5δ` speaks about.
                        self.obs.on_first_decision(now.as_nanos());
                    }
                }
                Action::WabBroadcast { msg } => {
                    fabric.wab_broadcast(queue, now, &self.cfg.pre, msg);
                }
            }
        }
    }

    /// Snapshot of everything measured so far.
    pub fn report(&self) -> Report {
        let (procs, fabric) = (&self.procs, &self.fabric);
        let flags = |bits: &BitSet| (0..procs.harness.len()).map(|i| bits.get(i)).collect();
        Report {
            protocol: self.protocol.name().to_string(),
            n: self.cfg.timing.n(),
            seed: self.cfg.seed,
            ts: self.cfg.ts,
            delta: self.cfg.timing.delta(),
            end_time: self.lp.now,
            decided_at: procs.decided_at.clone(),
            decisions: procs.harness.iter().map(|h| h.decided_value).collect(),
            alive_at_end: flags(&procs.alive),
            started: flags(&procs.started),
            crashes: procs
                .harness
                .iter()
                .map(|h| h.crash_times.clone())
                .collect(),
            restarts: procs
                .harness
                .iter()
                .map(|h| h.restart_times.clone())
                .collect(),
            initial_values: (0..procs.harness.len()).map(initial_value).collect(),
            msgs_sent: fabric.msgs_sent,
            msgs_sent_after_ts: fabric.msgs_sent_after_ts,
            msgs_by_kind: fabric
                .msgs_by_kind
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            msgs_dropped: fabric.msgs_dropped,
            events: self.lp.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::PreStability;
    use crate::scenario::Scenario;
    use esync_core::config::TimingConfig;
    use esync_core::paxos::session::SessionPaxos;
    use esync_core::types::ShardId;

    fn quick_cfg(n: usize, seed: u64) -> SimConfig {
        SimConfig::builder(n)
            .seed(seed)
            .stability_at_millis(200)
            .build()
            .unwrap()
    }

    #[test]
    fn session_paxos_completes_and_agrees() {
        let mut w = World::new(quick_cfg(5, 1), SessionPaxos::new());
        let r = w.run_to_completion().expect("completes");
        assert!(r.agreement());
        assert!(r.validity());
        assert!(r.all_alive_decided());
    }

    #[test]
    fn runs_are_deterministic() {
        let r1 = World::new(quick_cfg(5, 42), SessionPaxos::new())
            .run_to_completion()
            .unwrap();
        let r2 = World::new(quick_cfg(5, 42), SessionPaxos::new())
            .run_to_completion()
            .unwrap();
        assert_eq!(r1.decided_at, r2.decided_at);
        assert_eq!(r1.msgs_sent, r2.msgs_sent);
        assert_eq!(r1.events, r2.events);
    }

    #[test]
    fn different_seeds_differ() {
        let r1 = World::new(quick_cfg(5, 1), SessionPaxos::new())
            .run_to_completion()
            .unwrap();
        let r2 = World::new(quick_cfg(5, 2), SessionPaxos::new())
            .run_to_completion()
            .unwrap();
        // Overwhelmingly likely with chaotic pre-TS phases.
        assert_ne!(
            (r1.decided_at.clone(), r1.msgs_sent),
            (r2.decided_at.clone(), r2.msgs_sent)
        );
    }

    #[test]
    fn decisions_respect_paper_bound() {
        for seed in 0..10 {
            let cfg = quick_cfg(5, seed);
            let bound = cfg.timing.decision_bound() + cfg.timing.epsilon();
            let mut w = World::new(cfg, SessionPaxos::new());
            let r = w.run_to_completion().unwrap();
            let worst = r.max_decision_after_ts().expect("someone decided");
            assert!(
                worst <= bound,
                "seed {seed}: {:.2}δ exceeds the bound {:.2}δ",
                r.max_decision_after_ts_in_delta().unwrap(),
                bound.as_nanos() as f64 / r.delta.as_nanos() as f64
            );
        }
    }

    #[test]
    fn crash_before_start_keeps_process_down() {
        let cfg = SimConfig::builder(5)
            .seed(3)
            .stability_at_millis(200)
            .scenario(Scenario::none().dead_forever(ProcessId::new(4)))
            .build()
            .unwrap();
        let mut w = World::new(cfg, SessionPaxos::new());
        let r = w.run_to_completion().unwrap();
        assert!(!r.started[4], "p4 never ran");
        assert!(r.decisions[4].is_none());
        assert!(r.agreement());
        assert!((0..4).all(|i| r.decisions[i].is_some()));
    }

    #[test]
    fn crash_and_restart_cycle() {
        let cfg = SimConfig::builder(3)
            .seed(4)
            .stability_at_millis(200)
            .scenario(Scenario::none().down_between(
                ProcessId::new(2),
                SimTime::from_millis(50),
                SimTime::from_millis(400),
            ))
            .build()
            .unwrap();
        let mut w = World::new(cfg, SessionPaxos::new());
        let r = w.run_to_completion().unwrap();
        assert_eq!(r.restarts[2].len(), 1);
        assert!(r.decisions[2].is_some(), "restarted process decides");
        assert!(r.agreement());
    }

    #[test]
    fn scenario_validation_rejects_post_ts_crash() {
        let err = SimConfig::builder(3)
            .stability_at_millis(100)
            .scenario(Scenario::none().crash(ProcessId::new(0), SimTime::from_millis(150)))
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::CrashAfterStability { .. }));
    }

    #[test]
    fn scenario_validation_rejects_unknown_pid() {
        let err = SimConfig::builder(3)
            .scenario(Scenario::none().crash(ProcessId::new(7), SimTime::ZERO))
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::NoSuchProcess { .. }));
    }

    #[test]
    fn max_time_trips_timeout() {
        // Isolate a majority before TS and set max_time below TS: cannot
        // finish.
        let cfg = SimConfig::builder(3)
            .seed(5)
            .stability_at_millis(500)
            .pre_stability(PreStability::silent())
            .max_time(SimTime::from_millis(100))
            .build()
            .unwrap();
        let mut w = World::new(cfg, SessionPaxos::new());
        assert!(matches!(
            w.run_to_completion(),
            Err(SimError::Timeout { .. })
        ));
    }

    #[test]
    fn run_until_advances_clock() {
        let mut w = World::new(quick_cfg(3, 6), SessionPaxos::new());
        w.run_until(SimTime::from_millis(50));
        assert_eq!(w.now(), SimTime::from_millis(50));
    }

    #[test]
    fn report_counts_messages() {
        let mut w = World::new(quick_cfg(3, 7), SessionPaxos::new());
        let r = w.run_to_completion().unwrap();
        assert!(r.msgs_sent > 0);
        assert!(r.msgs_by_kind.contains_key("1a"));
        assert!(r.msgs_by_kind.contains_key("2b"));
        let sum: u64 = r.msgs_by_kind.values().sum();
        assert_eq!(sum, r.msgs_sent);
    }

    #[test]
    fn leader_oracle_skips_dead_lowest_process() {
        use esync_core::paxos::traditional::TraditionalPaxos;
        let cfg = SimConfig::builder(3)
            .seed(9)
            .stability_at_millis(100)
            .pre_stability(PreStability::lossless())
            .scenario(Scenario::none().dead_forever(ProcessId::new(0)))
            .leader_oracle(true)
            .build()
            .unwrap();
        let mut w = World::new(cfg, TraditionalPaxos::new());
        let r = w.run_to_completion().unwrap();
        assert!(r.agreement());
        assert!(r.decisions[1].is_some() && r.decisions[2].is_some());
        assert!(r.decisions[0].is_none(), "p0 never ran");
    }

    #[test]
    fn wab_oracle_drives_original_bconsensus() {
        use esync_core::bconsensus::BConsensus;
        let cfg = SimConfig::builder(3)
            .seed(10)
            .stability_at_millis(150)
            .build()
            .unwrap();
        let mut w = World::new(cfg, BConsensus::original());
        let r = w.run_to_completion().unwrap();
        assert!(r.agreement() && r.validity());
        assert!(
            r.msgs_by_kind.contains_key("wab"),
            "w-broadcasts are counted: {:?}",
            r.msgs_by_kind
        );
    }

    #[test]
    fn submit_to_down_process_is_ignored() {
        use esync_core::paxos::multi::MultiPaxos;
        let cfg = SimConfig::builder(3)
            .seed(11)
            .stability_at_millis(0)
            .pre_stability(PreStability::lossless())
            .scenario(
                Scenario::none()
                    .dead_forever(ProcessId::new(2))
                    // Submitted to the dead process: silently lost (the
                    // client's problem, as in any real system).
                    .submit(ProcessId::new(2), SimTime::from_millis(500), Value::new(9))
                    // Submitted to a live one: committed.
                    .submit(ProcessId::new(0), SimTime::from_millis(500), Value::new(8)),
            )
            .build()
            .unwrap();
        let mut w = World::new(cfg, MultiPaxos::new());
        w.run_until(SimTime::from_secs(2));
        let committed: Vec<u64> = w
            .process(ProcessId::new(0))
            .shard(ShardId::ZERO)
            .log_values()
            .map(|v| v.get())
            .collect();
        assert!(committed.contains(&8));
        assert!(!committed.contains(&9));
        // The commit feed saw value 8 at every live process.
        assert!(w.commits().iter().any(|c| c.value.get() == 8));
        assert!(!w.commits().iter().any(|c| c.value.get() == 9));
    }

    #[test]
    fn submit_streams_drive_the_log() {
        use crate::scenario::{kv_id, SubmitStream};
        use esync_core::paxos::multi::MultiPaxos;
        use esync_core::time::RealDuration;
        let stream =
            SubmitStream::fixed_rate(SimTime::from_millis(500), RealDuration::from_millis(10), 6)
                .keyed(8)
                .seed(3);
        let cfg = SimConfig::builder(3)
            .seed(12)
            .stability_at_millis(0)
            .pre_stability(PreStability::lossless())
            .scenario(Scenario::none().stream(stream))
            .build()
            .unwrap();
        let mut w = World::new(cfg, MultiPaxos::new());
        w.run_until(SimTime::from_secs(2));
        for pid in ProcessId::all(3) {
            let ids: std::collections::BTreeSet<u64> = w
                .process(pid)
                .shard(ShardId::ZERO)
                .log_values()
                .map(kv_id)
                .collect();
            assert_eq!(ids, (0..6).collect(), "{pid}: stream commands missing");
        }
    }

    /// The allocation-reusing `World::reset` must be indistinguishable
    /// from fresh construction — same events, same report, bit for bit —
    /// including across a change of `n` and scenario shape.
    #[test]
    fn reset_is_bit_identical_to_fresh_construction() {
        let mut reused = World::new(quick_cfg(5, 1), SessionPaxos::new());
        reused.run_to_completion().unwrap();
        for (n, seed) in [(5, 2u64), (3, 7), (5, 42), (9, 3)] {
            let fresh_report = World::new(quick_cfg(n, seed), SessionPaxos::new())
                .run_to_completion()
                .unwrap();
            reused.reset(quick_cfg(n, seed));
            let reused_report = reused.run_to_completion().unwrap();
            assert_eq!(fresh_report, reused_report, "n={n} seed={seed}");
        }
        // Scenario events reschedule on reset too.
        let cfg = || {
            SimConfig::builder(3)
                .seed(4)
                .stability_at_millis(200)
                .scenario(Scenario::none().down_between(
                    ProcessId::new(2),
                    SimTime::from_millis(50),
                    SimTime::from_millis(400),
                ))
                .build()
                .unwrap()
        };
        let fresh = World::new(cfg(), SessionPaxos::new())
            .run_to_completion()
            .unwrap();
        reused.reset(cfg());
        assert_eq!(fresh, reused.run_to_completion().unwrap());
        // Reset mid-chaos, with broadcasts in flight (fan-out records whose
        // recipients are still queued): nothing of them leaks into the next
        // run, for a flat-message and a heap-owning protocol alike.
        reused.reset(quick_cfg(9, 5));
        reused.run_until(SimTime::from_millis(60));
        assert!(
            reused.lp.queue.len() > 100,
            "chaos keeps broadcasts in flight"
        );
        reused.reset(cfg());
        assert_eq!(fresh, reused.run_to_completion().unwrap());
        use esync_core::paxos::multi::MultiPaxos;
        let mut fresh = World::new(quick_cfg(5, 9), MultiPaxos::new());
        fresh.run_until(SimTime::from_millis(400));
        let mut reused = World::new(quick_cfg(7, 3), MultiPaxos::new());
        reused.run_until(SimTime::from_millis(60));
        assert!(
            reused.lp.queue.len() > 100,
            "chaos keeps broadcasts in flight"
        );
        reused.reset(quick_cfg(5, 9));
        reused.run_until(SimTime::from_millis(400));
        assert_eq!(fresh.report(), reused.report());
    }

    /// The world loop moves messages, not the protocol: for fixed seeds the
    /// run is the one the per-recipient-push loop (before fan-out records
    /// and in-place outbox writes) produced, pinned here by its counters —
    /// a flat-message protocol and one whose 1b owns a `Vec`.
    #[test]
    fn reports_match_the_per_recipient_push_loop() {
        use esync_core::paxos::multi::MultiPaxos;
        fn pin(r: &Report) -> ([u64; 4], u64, u64, Vec<(&str, u64)>) {
            let decided: u64 = r.decided_at.iter().flatten().map(|t| t.as_nanos()).sum();
            let kinds = r
                .msgs_by_kind
                .iter()
                .map(|(k, v)| (k.as_str(), *v))
                .collect();
            let counts = [r.events, r.msgs_sent, r.msgs_sent_after_ts, r.msgs_dropped];
            (counts, r.end_time.as_nanos(), decided, kinds)
        }
        let r = World::new(quick_cfg(9, 77), SessionPaxos::new())
            .run_to_completion()
            .unwrap();
        let kinds = vec![
            ("1a", 6417),
            ("1b", 531),
            ("2a", 693),
            ("2b", 783),
            ("decided", 221),
        ];
        assert_eq!(
            pin(&r),
            ([4935, 8645, 2313, 1880], 217_511_386, 1_952_232_893, kinds)
        );
        let cfg = SimConfig::builder(5)
            .seed(78)
            .stability_at_millis(150)
            .scenario(
                Scenario::none()
                    .submit(ProcessId::new(1), SimTime::from_millis(20), Value::new(7))
                    .submit(ProcessId::new(3), SimTime::from_millis(400), Value::new(8)),
            )
            .build()
            .unwrap();
        let mut w = World::new(cfg, MultiPaxos::new());
        w.run_until(SimTime::from_secs(1));
        let kinds = vec![
            ("1a", 9560),
            ("1b", 8231),
            ("2a", 35),
            ("2b", 175),
            ("decided", 78),
            ("forward", 107),
        ];
        assert_eq!(
            pin(&w.report()),
            (
                [19673, 18186, 16472, 520],
                1_000_000_000,
                832_240_076,
                kinds
            )
        );
        assert_eq!(w.commits().len(), 10);
    }

    #[test]
    fn metered_run_is_bit_identical_and_samples_on_cadence() {
        let run = |metered: bool| {
            let mut w = World::new(quick_cfg(5, 21), SessionPaxos::new());
            if metered {
                w.enable_metrics(
                    RealDuration::from_millis(50),
                    esync_metrics::WatchdogConfig::default(),
                );
            }
            let r = w.run_to_completion().unwrap();
            (
                r,
                w.metric_snapshots().to_vec(),
                w.watchdog_firings().to_vec(),
            )
        };
        let (plain, no_snaps, _) = run(false);
        let (metered, snaps, firings) = run(true);
        assert_eq!(plain, metered, "metering must not perturb the run");
        assert!(no_snaps.is_empty());
        // TS is 200ms and the run decides after it, so at least four
        // 50ms boundaries pass; the series is stamped on-cadence and
        // its counters are monotone.
        assert!(snaps.len() >= 4, "{} snapshots", snaps.len());
        for (i, s) in snaps.iter().enumerate() {
            assert_eq!(s.at_ns, (i as u64 + 1) * 50_000_000);
            assert_eq!(s.node, None);
        }
        for w in snaps.windows(2) {
            assert!(w[0]
                .counters
                .iter()
                .zip(w[1].counters.iter())
                .all(|(a, b)| a <= b));
        }
        let last = snaps.last().unwrap();
        assert!(last.counter(esync_core::metrics::Metric::OneASent) > 0);
        // A quiet, healthy single-shot run trips no watchdog.
        assert_eq!(firings, &[]);
        // Metering survives reset and the series restarts from scratch.
        let mut w = World::new(quick_cfg(5, 21), SessionPaxos::new());
        w.enable_metrics(
            RealDuration::from_millis(50),
            esync_metrics::WatchdogConfig::default(),
        );
        w.run_to_completion().unwrap();
        w.reset(quick_cfg(5, 21));
        w.run_to_completion().unwrap();
        assert_eq!(w.metric_snapshots(), &snaps[..], "reset rebases the series");
    }

    #[test]
    fn bound_watchdog_fires_on_injected_tight_deadline() {
        let cfg = quick_cfg(5, 1);
        let mut w = World::new(cfg, SessionPaxos::new());
        w.enable_metrics(
            RealDuration::from_millis(50),
            esync_metrics::WatchdogConfig {
                // An absurdly tight injected deadline: 1ns after TS=0.
                bound: Some(esync_metrics::BoundSpec {
                    ts_ns: 0,
                    bound_ns: 1,
                }),
                ..Default::default()
            },
        );
        w.run_to_completion().unwrap();
        let fired = w
            .watchdog_firings()
            .iter()
            .filter(|f| f.kind == esync_metrics::WatchdogKind::Bound)
            .count();
        assert_eq!(
            fired, 5,
            "every first decision is past the injected deadline"
        );
    }

    #[test]
    fn silent_pre_ts_still_decides_after_ts() {
        let cfg = SimConfig::builder(5)
            .seed(8)
            .stability_at_millis(400)
            .pre_stability(PreStability::silent())
            .build()
            .unwrap();
        let bound = cfg.timing.decision_bound() + cfg.timing.epsilon();
        let mut w = World::new(cfg, SessionPaxos::new());
        let r = w.run_to_completion().unwrap();
        assert!(r.agreement());
        let worst = r.max_decision_after_ts().unwrap();
        assert!(worst <= bound, "worst {worst} > bound {bound}");
    }

    /// Regression: the lazy-rearm machinery must fire each timer arm at
    /// most once. The trap: arm at +10ms, re-arm *earlier* at +5ms (two
    /// heap events now pending), then re-arm at +20ms from inside the
    /// first fire — the stale +10ms pop re-pushes for the +20ms deadline
    /// that the re-arm also pushed for, creating duplicate same-epoch
    /// events. Exactly one of them may fire.
    #[test]
    fn rearmed_timer_fires_once_per_arm() {
        use esync_core::outbox::{Outbox, Process, Protocol};
        use esync_core::time::LocalDuration;

        #[derive(Debug)]
        struct TimerScript {
            id: ProcessId,
            fires: u32,
            decided: Option<Value>,
        }
        impl Process for TimerScript {
            type Msg = ();
            fn id(&self) -> ProcessId {
                self.id
            }
            fn on_start(&mut self, out: &mut Outbox<()>) {
                let t = esync_core::types::TimerId::new(0);
                out.set_timer(t, LocalDuration::from_millis(10));
                out.set_timer(t, LocalDuration::from_millis(5)); // earlier re-arm
            }
            fn on_message(&mut self, _f: ProcessId, _m: &(), _o: &mut Outbox<()>) {}
            fn on_timer(&mut self, timer: esync_core::types::TimerId, out: &mut Outbox<()>) {
                self.fires += 1;
                if self.fires == 1 {
                    out.set_timer(timer, LocalDuration::from_millis(20));
                }
                // No re-arm after the second fire: any further fire is a
                // duplicate of an already-consumed arm.
            }
            fn on_restart(&mut self, _o: &mut Outbox<()>) {}
            fn decision(&self) -> Option<Value> {
                self.decided
            }
        }
        #[derive(Debug)]
        struct TimerScriptProto;
        impl Protocol for TimerScriptProto {
            type Msg = ();
            type Process = TimerScript;
            fn name(&self) -> &'static str {
                "timer-script"
            }
            fn spawn(&self, id: ProcessId, _cfg: &TimingConfig, _v: Value) -> TimerScript {
                TimerScript {
                    id,
                    fires: 0,
                    decided: None,
                }
            }
        }

        let cfg = SimConfig::builder(1)
            .seed(0)
            .stability_at_millis(0)
            .pre_stability(PreStability::lossless())
            .build()
            .unwrap();
        let mut w = World::new(cfg, TimerScriptProto);
        // Drive past every pending (including duplicate) timer event.
        w.run_until(SimTime::from_millis(200));
        assert_eq!(w.process(ProcessId::new(0)).fires, 2, "one fire per arm");
    }
}
