//! Sharded log groups with a **group-level shared session**: one process
//! = `S` independent replicated logs anchored by **one** ballot.
//!
//! The paper's post-stabilization bound is **per consensus instance**:
//! once the system stabilizes, each instance decides within two message
//! delays, independently of every other instance. Aggregate throughput
//! therefore scales with the number of *independent* logs a cluster runs
//! — the classic multi-shard parallel-commit construction. But the
//! paper's §4 economy ("phase 1 is executed in advance for all instances
//! of the algorithm") is *per session*, and running one session **per
//! shard** multiplies the idle-period message rate by `S`: `S` session
//! timers, `S` ε-retransmission streams, `S` separate 1a/1b exchanges on
//! every re-election — and `S` shard leaders free to scatter across
//! processes. This module applies the phase-1-in-advance trick **across
//! shards**:
//!
//! * A [`LogGroup`] spawns, per process, `S` [`LogShard`]s — each its
//!   own log, slot pipeline, batching and admission dedup — under
//!   **one** `LogSession`: one ballot, one session timer, one ε tick.
//! * Phase 1 is a single [`GroupMsg::G1a`]/[`GroupMsg::G1b`] exchange
//!   whose 1b payload is a [`GroupPromise`] aggregating *every* shard's
//!   highest-accepted votes; the quorum anchors all `S` shards at once.
//!   Idle-period traffic is therefore independent of `S` (experiment W4
//!   measures this), and a leadership change is **one group event**:
//!   killing the group anchor drops exactly one anchor and one
//!   re-election recovers all shards — shard leaders can no longer
//!   scatter across processes.
//! * Below phase 1, every wire message is shard-tagged
//!   ([`GroupMsg::Shard`]) and every commit carries its [`ShardId`] via
//!   [`Outbox::decide_in_shard`](crate::outbox::Outbox::decide_in_shard),
//!   so drivers and metrics attribute throughput per shard end to end.
//! * Client commands are routed by their KV key through a pluggable
//!   [`ShardRouter`] (default: `kv_key(value) % S`).
//!
//! **The plain log is this host with one shard**: [`MultiPaxos`] spawns a
//! [`LogGroupProcess`] over one modulo-routed, non-rebalancing shard, so
//! there is one session host, one phase-1 wire and one trace order.
//!
//! Shards are independent by design: there is **no cross-shard
//! ordering**. Applications needing cross-shard transactions must layer
//! them above (each key's history is totally ordered by its shard's log,
//! as in any range-sharded store); drivers read the shard logs through
//! [`ShardedLogView`].
//!
//! Range routers can additionally **rebalance live**: the
//! [`rebalance`] submodule gives the group anchor a load-aware
//! key-handoff protocol (freeze → drain → router-epoch bump through
//! shard 0's log → re-forward) that moves range boundaries while the
//! group serves traffic. Enable it with [`LogGroup::with_rebalancing`];
//! disabled (the default), no rebalancing code path touches the message
//! stream.

pub mod rebalance;

use crate::ballot::{Ballot, Session};
use crate::config::TimingConfig;
use crate::outbox::{Outbox, Process, Protocol};
use crate::paxos::admitted::Admitted;
use crate::paxos::log_session::LogSession;
use crate::paxos::multi::{
    batch_of, Batch, LogShard, MultiMsg, MultiPaxos, ReportFold, ShardOut, VoteReport,
};
use crate::paxos::slotlog::SlotMap;
use crate::trace::TraceEvent;
use crate::types::{kv_key, ProcessId, TimerId, Value};
use rebalance::{is_ctrl_value, owner_of, Migration, RebalanceConfig, Rebalancer, RouterUpdate};
use std::collections::BTreeMap;

pub use crate::paxos::multi::{TIMER_EPSILON, TIMER_SESSION};
pub use crate::types::ShardId;

/// The phase-1b payload of a group-level session: for each shard of the
/// promising process, its truncated [`VoteReport`]. One `GroupPromise`
/// replaces the `S` separate per-shard 1bs of a per-shard-session design;
/// the ballot owner folds a majority of promises into one [`ReportFold`]
/// per shard ([`GroupPromise::fold_into`]) and anchors all shards from
/// them. Reports are truncated at the all-chosen prefix, so a promise is
/// `O(in-flight window)` per shard, not `O(log length)`; once the ballot
/// is in phase 2 — the replier voted for a 2a at it, or is anchored at it
/// — the reply to an ε re-announcement carries no report at all.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupPromise {
    /// Per-shard reports, indexed by shard; `shards.len()` is the
    /// promising process's shard count (zero for a payload-free reply).
    pub shards: Vec<VoteReport>,
}

impl GroupPromise {
    /// Folds this promise into the folding group's per-shard quorum
    /// folds ([`ReportFold::fold`], the single log's own rule, shard by
    /// shard). Reports for shards beyond `folds.len()` are ignored
    /// (heterogeneous shard counts are outside the model).
    pub fn fold_into(&self, folds: &mut [ReportFold]) {
        debug_assert!(
            self.shards.len() <= folds.len(),
            "promise reports more shards than the group runs"
        );
        for (fold, report) in folds.iter_mut().zip(&self.shards) {
            fold.fold(report);
        }
    }
}

/// A group-session wire message. Phase 1 is group-level (`G1a`/`G1b`,
/// one exchange for all shards); everything below it is shard-tagged
/// (`Shard`), and the receiving group dispatches on the tag.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupMsg {
    /// Group-level phase 1a: one ballot opening phase 1 for **every**
    /// shard of the sender's group at once.
    G1a {
        /// The group ballot being started (or re-announced on ε ticks).
        mbal: Ballot,
        /// The caller's per-shard all-chosen prefixes: repliers truncate
        /// each shard's report at the matching prefix (everything below
        /// it is already committed at the caller), which keeps
        /// steady-state promises `O(in-flight window)`.
        prefixes: Vec<u64>,
    },
    /// Group-level phase 1b: one promise carrying every shard's
    /// truncated report.
    G1b {
        /// The joined group ballot.
        mbal: Ballot,
        /// Per-shard truncated reports of the promising process.
        promise: GroupPromise,
    },
    /// A shard-tagged single-log message (2a, 2b, forward, decided — the
    /// per-slot machinery below the shared phase 1).
    Shard {
        /// The shard this message belongs to.
        shard: ShardId,
        /// The single-log payload.
        msg: MultiMsg,
    },
    /// A router-epoch switch announcement (live rebalancing): broadcast
    /// by an anchor when a committed [`RouterUpdate`] control entry
    /// applies, so followers whose shard-0 catch-up lags switch
    /// boundaries in `O(δ)`. Advisory — the control entry in shard 0's
    /// log is the authoritative, totally ordered switch point — and
    /// applied idempotently in epoch order. Never sent while the router
    /// is balanced (or rebalancing is disabled): a balanced group's
    /// message stream is bit-identical to the static-router engine's.
    Reroute {
        /// The epoch bump being announced.
        update: RouterUpdate,
    },
}

impl GroupMsg {
    /// The group ballot carried by this message, if any (shard-tagged
    /// `Forward`/`LogDecided` and `Reroute` carry none).
    pub fn ballot(&self) -> Option<Ballot> {
        match self {
            GroupMsg::G1a { mbal, .. } | GroupMsg::G1b { mbal, .. } => Some(*mbal),
            GroupMsg::Shard { msg, .. } => msg.ballot(),
            GroupMsg::Reroute { .. } => None,
        }
    }

    /// A short static label for message-count metrics. One `G1a` is the
    /// session's one "1a" however many shards it anchors — which is
    /// exactly the amortization experiment W4 counts.
    pub fn kind(&self) -> &'static str {
        match self {
            GroupMsg::G1a { .. } => "1a",
            GroupMsg::G1b { .. } => "1b",
            GroupMsg::Shard { msg, .. } => msg.kind(),
            GroupMsg::Reroute { .. } => "reroute",
        }
    }
}

/// How client commands map onto shards, by KV key (see
/// [`kv_key`]; unkeyed values have key 0 and all
/// land in shard 0).
#[derive(Debug, Clone, PartialEq)]
pub enum ShardRouter {
    /// `key % S` — uniform keys spread uniformly (the default).
    Modulo,
    /// Contiguous key ranges: `boundaries` holds `S − 1` ascending
    /// upper-exclusive split points; keys below `boundaries[0]` go to
    /// shard 0, keys in `boundaries[i-1]..boundaries[i]` to shard `i`,
    /// and keys at or above the last boundary to shard `S − 1`. The
    /// range-partitioned layout of ordered KV stores.
    Range(Vec<u64>),
}

impl ShardRouter {
    /// The shard `key` routes to, for a group of `shards` shards.
    pub fn route(&self, key: u64, shards: usize) -> ShardId {
        debug_assert!(shards >= 1);
        let s = match self {
            ShardRouter::Modulo => (key % shards as u64) as u32,
            ShardRouter::Range(bounds) => owner_of(bounds, key) as u32,
        };
        debug_assert!((s as usize) < shards, "router stayed in range");
        ShardId::new(s)
    }

    /// Validates the router against a shard count.
    ///
    /// # Panics
    ///
    /// Panics if a [`ShardRouter::Range`] does not carry exactly
    /// `shards − 1` strictly ascending boundaries.
    fn validate(&self, shards: usize) {
        if let ShardRouter::Range(bounds) = self {
            assert_eq!(
                bounds.len(),
                shards - 1,
                "a range router over {shards} shards takes {} boundaries",
                shards - 1
            );
            assert!(
                bounds.windows(2).all(|w| w[0] < w[1]),
                "range boundaries must be strictly ascending"
            );
        }
    }
}

/// Protocol factory for a sharded log group: `S` independent
/// [`MultiPaxos`] logs per process, shard-routed by KV key, anchored
/// together by one group-level session.
#[derive(Debug, Clone)]
pub struct LogGroup {
    inner: MultiPaxos,
    shards: usize,
    router: ShardRouter,
    rebalance: Option<RebalanceConfig>,
}

impl LogGroup {
    /// A group of `shards` independent unbatched logs with modulo
    /// routing.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a log group holds at least one shard");
        LogGroup::of_shards(MultiPaxos::new(), shards)
    }

    /// `shards` logs configured by `inner`, modulo-routed and not
    /// rebalancing — with one shard, what [`MultiPaxos`] spawns.
    pub(crate) fn of_shards(inner: MultiPaxos, shards: usize) -> Self {
        LogGroup {
            inner,
            shards,
            router: ShardRouter::Modulo,
            rebalance: None,
        }
    }

    /// Configures every shard's proposer-side batching (see
    /// [`MultiPaxos::with_batching`]; the pipeline window is per shard,
    /// so the group's aggregate in-flight capacity is `S · max_outstanding`).
    #[must_use]
    pub fn with_batching(mut self, max_batch: usize, max_outstanding: usize) -> Self {
        self.inner = self.inner.with_batching(max_batch, max_outstanding);
        self
    }

    /// Configures every shard's admitted-set compaction window (see
    /// [`MultiPaxos::with_admitted_window`]).
    #[must_use]
    pub fn with_admitted_window(mut self, window: u64) -> Self {
        self.inner = self.inner.with_admitted_window(window);
        self
    }

    /// Replaces the key router.
    ///
    /// # Panics
    ///
    /// Panics if a [`ShardRouter::Range`] does not fit the shard count.
    #[must_use]
    pub fn with_router(mut self, router: ShardRouter) -> Self {
        router.validate(self.shards);
        self.router = router;
        self
    }

    /// Enables live shard rebalancing (see [`rebalance`]): the group
    /// anchor observes per-shard routed load and migrates range
    /// boundaries through the key-handoff protocol when the imbalance
    /// crosses `cfg.threshold`.
    ///
    /// # Panics
    ///
    /// Panics unless the router is a [`ShardRouter::Range`] (modulo
    /// routing has no boundaries to move) over at least two shards —
    /// call [`LogGroup::with_router`] first.
    #[must_use]
    pub fn with_rebalancing(mut self, cfg: RebalanceConfig) -> Self {
        assert!(
            matches!(self.router, ShardRouter::Range(_)),
            "rebalancing moves Range boundaries; set a Range router first"
        );
        assert!(self.shards >= 2, "rebalancing needs at least two shards");
        self.rebalance = Some(cfg);
        self
    }
}

impl Protocol for LogGroup {
    type Msg = GroupMsg;
    type Process = LogGroupProcess;

    fn name(&self) -> &'static str {
        "sharded-log-group"
    }

    fn kind_of(msg: &GroupMsg) -> &'static str {
        // Per-kind metrics aggregate across shards (the shard split is
        // the commit feed's job), so the labels match the single-log
        // layer's and artifacts stay comparable across S.
        msg.kind()
    }

    fn shard_count(&self) -> usize {
        self.shards
    }

    fn spawn(&self, id: ProcessId, cfg: &TimingConfig, _initial: Value) -> LogGroupProcess {
        LogGroupProcess {
            session: LogSession::new(id, cfg),
            shards: (0..self.shards)
                .map(|_| self.inner.spawn_shard(cfg))
                .collect(),
            router: self.router.clone(),
            epoch: 0,
            ctrl_scan: 0,
            rebalance: self.rebalance.clone().map(Rebalancer::new),
            frozen: Vec::new(),
            moved: BTreeMap::new(),
        }
    }
}

/// One process's group of shard state machines plus the **shared
/// session**: one ballot, one session timer, one ε tick, one phase-1
/// exchange anchoring all shards at once.
#[derive(Debug, Clone)]
pub struct LogGroupProcess {
    /// The shared session; its election folds one [`ReportFold`] per
    /// shard out of the [`GroupPromise`]s.
    session: LogSession,
    shards: Vec<LogShard>,
    router: ShardRouter,
    /// The router epoch this process has applied: bumped once per
    /// committed boundary move, in shard-0 slot order, identically at
    /// every process.
    epoch: u64,
    /// The next shard-0 slot to scan for control entries (always at or
    /// below shard 0's all-chosen prefix; each slot is scanned once).
    ctrl_scan: u64,
    /// Live-rebalancing machinery ([`LogGroup::with_rebalancing`]);
    /// `None` keeps every rebalance code path off the message stream.
    rebalance: Option<Rebalancer>,
    /// Commands frozen mid-migration at the anchor: admissions of moving
    /// keys buffered between the freeze and the epoch switch, flushed
    /// through the new routing when the switch applies (or the old one
    /// if the migration aborts).
    frozen: Vec<Value>,
    /// Moved-command answers: commands chosen in a pre-move shard,
    /// mapped to `(old_shard, slot)` so a retry arriving after the move
    /// is answered with its `LogDecided` instead of committing a second
    /// time in the new owner. Kept across epochs and pruned by exactly
    /// the shards' own admitted-window rule (an entry lives while its
    /// slot is within the window of its old shard's all-chosen prefix),
    /// so retry dedup across migrations is as strong as without them;
    /// only retries older than the window fall back to the documented
    /// at-least-once contract.
    moved: BTreeMap<Value, (ShardId, u64)>,
}

impl LogGroupProcess {
    /// The number of shards in this group.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard's state machine.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard(&self, shard: ShardId) -> &LogShard {
        &self.shards[shard.as_usize()]
    }

    /// The shard a command value routes to.
    pub fn shard_of(&self, value: Value) -> ShardId {
        self.router.route(kv_key(value), self.shards.len())
    }

    /// The group's current ballot (every shard votes and proposes under
    /// it).
    pub fn mbal(&self) -> Ballot {
        self.session.mbal()
    }

    /// The group's current session.
    pub fn session(&self) -> Session {
        self.session.session()
    }

    /// Whether this process is the anchored group leader: the shared
    /// phase 1 completed at its ballot, so **all** shards propose with a
    /// single 2a/2b round trip.
    pub fn is_anchored(&self) -> bool {
        self.session.is_anchored()
    }

    /// This group's phase-1b payload relative to the 1a caller's
    /// per-shard prefixes: every shard's [`LogShard::vote_report`], in
    /// shard order, aggregated into one promise. A caller prefix beyond
    /// `caller_prefixes.len()` (heterogeneous shard counts are outside
    /// the model) is treated as zero — the full-catch-up reply.
    pub fn promise(&self, caller_prefixes: &[u64]) -> GroupPromise {
        let report = |(s, shard): (usize, &LogShard)| {
            shard.vote_report(caller_prefixes.get(s).copied().unwrap_or(0))
        };
        GroupPromise {
            shards: self.shards.iter().enumerate().map(report).collect(),
        }
    }

    /// The group's current router epoch (0 until the first committed
    /// boundary move).
    pub fn router_epoch(&self) -> u64 {
        self.epoch
    }

    fn announce(&mut self, out: &mut Outbox<GroupMsg>) {
        let g1a = GroupMsg::G1a {
            mbal: self.session.mbal(),
            prefixes: self.shards.iter().map(|s| s.chosen_prefix()).collect(),
        };
        self.session.announce(g1a, out);
    }

    /// Adopts a higher group ballot seen in a `G1a` or shard-tagged 2a;
    /// enters its session if that is higher than ours. Unanchoring is
    /// always a group event: every shard requeues its unchosen proposals
    /// in the same step.
    fn adopt(&mut self, b: Ballot, out: &mut Outbox<GroupMsg>) {
        let adopted = self.session.adopt(b, out);
        if adopted.unanchored {
            for s in &mut self.shards {
                s.unanchor();
            }
            // This host's order, pinned by the trace: an anchor lost
            // mid-migration aborts it after the shards unanchored and
            // before session entry, so frozen commands re-enter through
            // the still-current routing as *held* commands and forward
            // to the new presumed leader (not as proposals under the
            // dying ballot) ahead of the 1a. The control entry, if
            // already proposed, either dies with our ballot or is
            // revived by a later phase 1 and applies epoch-ordered at
            // every process — both safe.
            self.abort_migration(out);
        }
        if adopted.new_session {
            self.session.enter_session(out);
            self.announce(out);
        }
    }

    /// The paper's **Start Phase 1**, once for the whole group.
    fn try_start_phase1(&mut self, out: &mut Outbox<GroupMsg>) {
        if self.session.try_start_phase1(self.shards.len(), out) {
            self.announce(out);
        }
    }

    /// Becomes the anchored group leader: each shard anchors from its
    /// fold of the promise quorum — catch-up, re-completions and pending
    /// flush per shard, in shard order.
    fn anchor(&mut self, folds: Vec<ReportFold>, out: &mut Outbox<GroupMsg>) {
        let bal = self.session.mbal();
        // Pinned by the trace: `Anchored` is stamped once for the group,
        // before any shard learns or proposes.
        out.event(TraceEvent::Anchored { ballot: bal.get() });
        for (s, fold) in folds.iter().enumerate() {
            self.dispatch(ShardId::new(s as u32), out, |p, o| p.anchor(bal, fold, o));
        }
    }

    /// Runs one step of shard `shard` against its view of the driver's
    /// outbox: messages leave shard-tagged and decides carry the shard id
    /// as they are emitted. Control values stay out of the decide stream
    /// of a rebalancing group (the epoch switch happens in the shard-0
    /// prefix walk, `scan_ctrl`). A shard's 2a broadcast also stamps the
    /// session's idle clock: any shard's 2a counts, so one busy shard
    /// keeps the whole group's ε retransmission quiet.
    fn dispatch(
        &mut self,
        shard: ShardId,
        out: &mut Outbox<GroupMsg>,
        step: impl FnOnce(&mut LogShard, &mut ShardOut<'_>),
    ) {
        let mut view = ShardOut::new(out, shard, self.rebalance.is_some());
        step(&mut self.shards[shard.as_usize()], &mut view);
        if view.sent_2a {
            self.session.sent_1a2a(out.now());
        }
    }

    fn all_shards(&self) -> impl Iterator<Item = ShardId> {
        (0..self.shards.len() as u32).map(ShardId::new)
    }

    /// The boundaries of the range router a rebalancing group runs
    /// ([`LogGroup::with_rebalancing`] refuses any other router).
    fn range_bounds(&self) -> &[u64] {
        match &self.router {
            ShardRouter::Range(b) => b,
            ShardRouter::Modulo => unreachable!("rebalancing requires a Range router"),
        }
    }

    // ---- live rebalancing (every method below is a no-op, and every
    // call site gated, when `self.rebalance` is `None`) ----

    /// Admits a client command or a forwarded retry through the group's
    /// **current** routing. With rebalancing enabled this is the single
    /// choke point the handoff protocol guards: moved-command retries
    /// are answered from the old owner's log, and admissions of keys
    /// mid-migration are frozen instead of entering the old owner. A
    /// `Forward`'s incoming shard tag is deliberately ignored — a
    /// follower still on the previous epoch must not smuggle a moving
    /// key into its old shard.
    fn admit_value(&mut self, from: Option<ProcessId>, value: Value, out: &mut Outbox<GroupMsg>) {
        let key = kv_key(value);
        let target = self.shard_of(value);
        if self.rebalance.is_some() {
            debug_assert!(
                !is_ctrl_value(value),
                "client keys must stay below the reserved control key"
            );
            // A retry of a command whose key moved after it committed:
            // answer with the old owner's chosen entry so the retry loop
            // terminates (the new owner's admitted set has never seen
            // it — without this it would commit twice).
            if let Some((shard, slot)) = self.moved.get(&value).copied() {
                if let Some(from) = from {
                    out.event(TraceEvent::ReplySent {
                        shard: shard.get(),
                        value: value.get(),
                    });
                    let batch = self.shards[shard.as_usize()]
                        .log_entry(slot)
                        .expect("moved answers point at chosen entries")
                        .clone();
                    out.send(
                        from,
                        GroupMsg::Shard {
                            shard,
                            msg: MultiMsg::LogDecided { slot, batch },
                        },
                    );
                }
                // Answered at the group level, but still load on the
                // key's (new) span: the v5 counters and the trigger
                // must see migration-era retry pressure.
                self.shards[target.as_usize()].note_submitted();
                self.note_routed(key, out);
                return;
            }
            // Mid-migration: a key whose owner is about to change is
            // frozen (buffered at the group) unless the current owner
            // already committed it — then the shard's own Forward arm
            // answers with the `LogDecided`, which is exactly the
            // dispatch below.
            let migrating = self.rebalance.as_ref().and_then(|r| r.migration.as_ref());
            if let Some(mig) = migrating {
                let moves =
                    owner_of(self.range_bounds(), key) != owner_of(&mig.update.boundaries, key);
                let chosen_here = matches!(
                    self.shards[target.as_usize()].admitted_status(value),
                    Some(Admitted::Chosen(_))
                );
                if moves && !chosen_here {
                    if from.is_none() {
                        // The submit instant is stamped here even though
                        // the command only enters a shard at the flush —
                        // the frozen wait is queue latency and must show
                        // in the decomposition.
                        out.event(TraceEvent::submit(value));
                    }
                    self.frozen.push(value);
                    // The eventual flush dispatches (and counts) the
                    // command; feed only the trigger's key statistics
                    // here so migration-era arrivals keep shaping the
                    // next boundary computation.
                    self.note_routed(key, out);
                    return;
                }
            }
        }
        let leader = self.session.leader();
        self.dispatch(target, out, |p, o| match from {
            Some(from) => p.on_message(from, &MultiMsg::Forward { value }, o),
            None => p.submit(value, leader, o),
        });
        self.note_routed(key, out);
    }

    /// Requests a migration to `bounds` explicitly — the operator/test
    /// hook, running exactly the load-triggered key-handoff protocol
    /// (freeze → drain → epoch bump → re-forward). Returns `false`
    /// (doing nothing) unless rebalancing is enabled, this process is
    /// the anchored group leader, no migration is already in flight, and
    /// `bounds` is a valid, *different* boundary vector.
    pub fn request_rebalance(&mut self, bounds: Vec<u64>, out: &mut Outbox<GroupMsg>) -> bool {
        if self.rebalance.is_none() || !self.is_anchored() {
            return false;
        }
        if self
            .rebalance
            .as_ref()
            .is_some_and(|r| r.migration.is_some())
        {
            return false;
        }
        let valid = bounds.len() == self.shards.len() - 1
            && bounds.windows(2).all(|w| w[0] < w[1])
            && match &self.router {
                ShardRouter::Range(cur) => *cur != bounds,
                ShardRouter::Modulo => false,
            };
        if !valid {
            return false;
        }
        self.start_migration(bounds, out);
        true
    }

    /// Records one routed command at the anchor and runs the imbalance
    /// trigger; a crossing starts a migration.
    fn note_routed(&mut self, key: u64, out: &mut Outbox<GroupMsg>) {
        if self.rebalance.is_none() || !self.is_anchored() {
            return;
        }
        let rb = self.rebalance.as_mut().expect("checked above");
        rb.note(key);
        if rb.migration.is_some() {
            return;
        }
        if let Some(bounds) = rb.check(&self.router, self.shards.len()) {
            self.start_migration(bounds, out);
        }
    }

    /// **Freeze**: opens a migration to `bounds`. Pending (admitted but
    /// unproposed) commands on moving keys are pulled out of their old
    /// owner shards into the frozen buffer — their admitted entries move
    /// with them, so they re-admit cleanly at the new owner — and the
    /// drain begins.
    fn start_migration(&mut self, bounds: Vec<u64>, out: &mut Outbox<GroupMsg>) {
        let update = RouterUpdate {
            epoch: self.epoch + 1,
            boundaries: bounds,
        };
        let ep = update.epoch;
        out.event(TraceEvent::RebalanceFreeze { epoch: ep });
        let old = self.range_bounds().to_vec();
        for shard in &mut self.shards {
            let unchosen = shard.extract_pending(|v| {
                let k = kv_key(v);
                !is_ctrl_value(v) && owner_of(&old, k) != owner_of(&update.boundaries, k)
            });
            self.frozen.extend(unchosen);
        }
        self.rebalance
            .as_mut()
            .expect("migrations start only with rebalancing enabled")
            .migration = Some(Migration { update, ctrl: None });
        self.maybe_commit_migration(out);
    }

    /// **Drain → commit**: once no shard's in-flight proposals reference
    /// a moving key, the control batch is proposed into shard 0's log.
    fn maybe_commit_migration(&mut self, out: &mut Outbox<GroupMsg>) {
        if !self.is_anchored() {
            return;
        }
        let Some(mig) = self.rebalance.as_ref().and_then(|r| r.migration.as_ref()) else {
            return;
        };
        if mig.ctrl.is_some() {
            return;
        }
        let old = self.range_bounds();
        let new = &mig.update.boundaries;
        let drained = !self.shards.iter().any(|s| {
            s.has_proposal_matching(|v| {
                let k = kv_key(v);
                !is_ctrl_value(v) && owner_of(old, k) != owner_of(new, k)
            })
        });
        if !drained {
            return;
        }
        let ep = mig.update.epoch;
        let batch = batch_of(mig.update.encode_values());
        out.event(TraceEvent::RebalanceDrain { epoch: ep });
        let stored = batch.clone();
        let mut slot = 0;
        self.dispatch(ShardId::ZERO, out, |p, o| {
            slot = p.propose_batch(batch, o);
        });
        if let Some(m) = self.rebalance.as_mut().and_then(|r| r.migration.as_mut()) {
            m.ctrl = Some((slot, stored));
        }
    }

    /// Aborts an in-flight migration (anchor lost, or the control slot
    /// stolen by a competing leader): frozen commands re-enter through
    /// the still-current routing.
    fn abort_migration(&mut self, out: &mut Outbox<GroupMsg>) {
        let taken = self.rebalance.as_mut().and_then(|r| r.migration.take());
        if let Some(m) = &taken {
            let ep = m.update.epoch;
            out.event(TraceEvent::RebalanceAbort { epoch: ep });
        }
        if taken.is_none() && self.frozen.is_empty() {
            return;
        }
        let frozen = std::mem::take(&mut self.frozen);
        for v in frozen {
            self.admit_value(None, v, out);
        }
    }

    /// The per-event rebalance bookkeeping: walk shard 0's prefix for
    /// committed control entries, detect a stolen control slot, and
    /// re-try the drain. One cheap branch when rebalancing is disabled
    /// or idle.
    fn rebalance_tick(&mut self, out: &mut Outbox<GroupMsg>) {
        if self.rebalance.is_none() {
            return;
        }
        self.scan_ctrl(out);
        // A control slot filled by a competing leader's batch means our
        // bump will never commit there: abort (a revived copy may still
        // commit later — the epoch-ordered apply handles it).
        let stolen = self
            .rebalance
            .as_ref()
            .and_then(|r| r.migration.as_ref())
            .and_then(|m| m.ctrl.as_ref())
            .is_some_and(|(slot, batch)| {
                self.shards[0]
                    .log_entry(*slot)
                    .is_some_and(|chosen| chosen != batch)
            });
        if stolen {
            self.abort_migration(out);
        }
        self.maybe_commit_migration(out);
    }

    /// Applies committed control entries in shard-0 **slot order** as the
    /// all-chosen prefix advances — the total order that makes every
    /// process switch boundaries at the same slot, whatever the delivery
    /// interleaving. Each slot is scanned exactly once per process.
    fn scan_ctrl(&mut self, out: &mut Outbox<GroupMsg>) {
        loop {
            let prefix = self.shards[0].chosen_prefix();
            if self.ctrl_scan >= prefix {
                return;
            }
            let slot = self.ctrl_scan;
            self.ctrl_scan += 1;
            let update = self.shards[0].log_entry(slot).and_then(|batch| {
                batch
                    .first()
                    .copied()
                    .filter(|v| is_ctrl_value(*v))
                    .and_then(|_| RouterUpdate::decode_values(batch))
            });
            if let Some(update) = update {
                // Epoch-ordered application: the first epoch `e + 1`
                // entry in slot order wins; duplicates (a revived control
                // batch recommitted after an abort) are skipped.
                if update.epoch == self.epoch + 1 {
                    self.apply_update(update, out);
                }
            }
        }
    }

    /// **Switch + re-forward**: installs the new boundaries and migrates
    /// the moving keys' local state — identically at every process, so
    /// the switch is deterministic cluster-wide. An applying anchor also
    /// broadcasts the update ([`GroupMsg::Reroute`]) so lagging
    /// followers switch without waiting for shard-0 catch-up.
    fn apply_update(&mut self, update: RouterUpdate, out: &mut Outbox<GroupMsg>) {
        debug_assert!(update.epoch > self.epoch);
        // `decode_values` validates shape and ordering but cannot know
        // the shard count: an update whose arity does not fit this group
        // (a corrupted Reroute, or a mixed-S deployment outside the
        // model) must never install a router that maps keys to
        // nonexistent shards.
        if update.boundaries.len() != self.shards.len() - 1
            || !update.boundaries.windows(2).all(|w| w[0] < w[1])
        {
            debug_assert!(false, "router update does not fit this group");
            return;
        }
        let old = self.range_bounds().to_vec();
        let new = update.boundaries.clone();
        self.epoch = update.epoch;
        self.router = ShardRouter::Range(new.clone());
        let ep = self.epoch;
        out.event(TraceEvent::RebalanceCommit { epoch: ep });
        // Migrate held state: per shard, pull out every moving key's
        // pending commands and admitted entries. Unchosen values
        // re-enter through the new routing; chosen ones join the moved
        // answers (pruned below by the admitted-window rule).
        let mut reinject: Vec<Value> = Vec::new();
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let (unchosen, chosen) = shard.extract_matching(|v| {
                let k = kv_key(v);
                !is_ctrl_value(v) && owner_of(&old, k) == s && owner_of(&new, k) != s
            });
            reinject.extend(unchosen);
            for (v, slot) in chosen {
                self.moved.insert(v, (ShardId::new(s as u32), slot));
            }
        }
        // Prune moved answers exactly as the shards' admitted sets would
        // have: keep an entry while its slot is within the admitted
        // window of its old shard's all-chosen prefix. Bounds the map at
        // one window per shard however many migrations run.
        self.moved.retain(|_, (shard, slot)| {
            let p = &self.shards[shard.as_usize()];
            *slot + p.admitted_window() >= p.chosen_prefix()
        });
        // This epoch's migration (ours or a competitor's that beat it in
        // slot order) is done; the frozen buffer flushes through the new
        // routing together with the extracted pending commands.
        if let Some(rb) = self.rebalance.as_mut() {
            if rb
                .migration
                .as_ref()
                .is_some_and(|m| m.update.epoch <= update.epoch)
            {
                rb.migration = None;
            }
        }
        reinject.extend(std::mem::take(&mut self.frozen));
        if !reinject.is_empty() {
            let count = reinject.len() as u64;
            out.event(TraceEvent::RebalanceReforward { epoch: ep, count });
        }
        for v in reinject {
            self.admit_value(None, v, out);
        }
        if self.is_anchored() {
            out.broadcast(GroupMsg::Reroute { update });
        }
    }
}

impl Process for LogGroupProcess {
    type Msg = GroupMsg;

    fn id(&self) -> ProcessId {
        self.session.id()
    }

    fn on_start(&mut self, out: &mut Outbox<GroupMsg>) {
        self.session.boot(out);
        self.announce(out);
    }

    fn on_message(&mut self, from: ProcessId, msg: &GroupMsg, out: &mut Outbox<GroupMsg>) {
        match msg {
            GroupMsg::G1a { mbal, prefixes } => {
                let mbal = *mbal;
                if mbal > self.session.mbal() {
                    self.adopt(mbal, out);
                }
                if mbal == self.session.mbal() {
                    // One promise answers for every shard (and re-answers
                    // on duplicates: the original may have been lost
                    // before TS), truncated at the caller's prefixes —
                    // or payload-free once the ballot is in phase 2.
                    let promise = if self.session.phase2_seen(mbal) {
                        GroupPromise::default()
                    } else {
                        self.promise(prefixes)
                    };
                    out.send(self.session.owner(), GroupMsg::G1b { mbal, promise });
                }
            }
            GroupMsg::G1b { mbal, promise } => {
                let fold = |folds: &mut [ReportFold]| {
                    // The owner proposes (2a) only after the election was
                    // consumed, so no replier had seen phase 2 of `mbal`
                    // when it built a promise folded here: never a
                    // payload-free one.
                    debug_assert_eq!(
                        promise.shards.len(),
                        folds.len(),
                        "a payload-free promise reached a live quorum"
                    );
                    promise.fold_into(folds);
                };
                if let Some(folds) = self.session.promised(*mbal, from, fold, out) {
                    self.anchor(folds, out);
                }
            }
            GroupMsg::Shard { shard, msg } => {
                let shard = *shard;
                if shard.as_usize() >= self.shards.len() {
                    // A tag this group does not know (mixed-S deployments
                    // are outside the model): drop rather than corrupt a
                    // live shard.
                    debug_assert!(false, "message for unknown shard {shard}");
                    return;
                }
                match msg {
                    // A higher-ballot 2a is a leadership claim over the
                    // whole group (ballots are group-level): adopt
                    // *before* the shard votes. A stale one is dropped.
                    MultiMsg::M2a { mbal, .. } => {
                        if *mbal > self.session.mbal() {
                            self.adopt(*mbal, out);
                        }
                        if self.session.vote_2a(*mbal) {
                            self.dispatch(shard, out, |p, o| p.on_message(from, msg, o));
                        }
                    }
                    // With live rebalancing, forwards route by the
                    // receiver's epoch, not the sender's stale tag (and
                    // pass through the moved/frozen guards).
                    MultiMsg::Forward { value } if self.rebalance.is_some() => {
                        self.admit_value(Some(from), *value, out);
                    }
                    _ => self.dispatch(shard, out, |p, o| p.on_message(from, msg, o)),
                }
            }
            GroupMsg::Reroute { update } => {
                // Advisory fast path for lagging followers — including a
                // process restarted across several migrations: the
                // sender applied `update` in shard-0 slot order, so its
                // epoch → boundary mapping is authoritative and a
                // *forward jump* lands on the same final state (only the
                // skipped epochs' moved-answer maps are lost, which
                // degrades to the documented at-least-once contract).
                // The log walk later skips the applied epochs.
                if self.rebalance.is_some() && update.epoch > self.epoch {
                    self.apply_update(update.clone(), out);
                }
            }
        }
        self.rebalance_tick(out);
        if let Some(b) = msg.ballot() {
            self.session.heard_from(from, b, out);
        }
        self.try_start_phase1(out);
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<GroupMsg>) {
        match timer {
            TIMER_SESSION => {
                self.session.session_timer_expired();
                self.try_start_phase1(out);
            }
            TIMER_EPSILON => {
                let idle = self.session.epsilon_tick(out);
                if idle && self.session.is_anchored() {
                    // Re-propose in-flight slots (recovery) across all
                    // shards, or — when every shard's pipeline is
                    // empty — re-announce the group ballot with ONE
                    // 1a, independent of S. This is the idle-period
                    // amortization: a per-shard-session design sends
                    // S of these every ε.
                    if self.shards.iter().any(|s| s.has_live_proposals()) {
                        for shard in self.all_shards() {
                            self.dispatch(shard, out, LogShard::repropose);
                        }
                    } else {
                        self.announce(out);
                    }
                    // A rebalanced group's epoch is re-announced too,
                    // so a process that was down across a migration
                    // (missing both the control entry's LogDecided
                    // and the one-shot Reroute) re-converges within
                    // ε. Never-rebalanced groups (epoch 0) add zero
                    // messages — the balanced-run bit-identity.
                    if self.epoch > 0 {
                        if let ShardRouter::Range(bounds) = &self.router {
                            out.broadcast(GroupMsg::Reroute {
                                update: RouterUpdate {
                                    epoch: self.epoch,
                                    boundaries: bounds.clone(),
                                },
                            });
                        }
                    }
                } else if idle {
                    self.announce(out);
                    // Re-forward every shard's held commands toward
                    // the presumed group leader (commits prune them,
                    // terminating the retry).
                    if let Some(leader) = self.session.leader() {
                        for shard in self.all_shards() {
                            self.dispatch(shard, out, |p, o| p.reforward(leader, o));
                        }
                    }
                }
            }
            _ => {}
        }
        self.rebalance_tick(out);
    }

    fn on_restart(&mut self, out: &mut Outbox<GroupMsg>) {
        // Shard state survived (stable storage); the group's timers did
        // not. One re-arm + one announcement for the whole group.
        self.session.boot(out);
        self.announce(out);
    }

    fn on_client(&mut self, value: Value, out: &mut Outbox<GroupMsg>) {
        self.admit_value(None, value, out);
        self.rebalance_tick(out);
    }

    /// The single-shot interface reads the first command of shard 0's
    /// first log entry.
    fn decision(&self) -> Option<Value> {
        self.shards[0].log_entry(0).and_then(|b| b.first().copied())
    }

    /// Group-level leadership: the shared phase 1 completed at our
    /// ballot. Exactly one process can anchor a group — crash-the-leader
    /// scenarios kill ONE anchor and all `S` shards re-elect together.
    fn is_leader(&self) -> bool {
        self.is_anchored()
    }

    /// The applied router epoch (see [`rebalance`]); tests assert it
    /// agrees across processes after a migration.
    fn router_epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-shard load counters, straight from each shard's admission
    /// machinery.
    fn shard_load(&self, shard: ShardId) -> crate::outbox::ShardLoad {
        self.shards[shard.as_usize()].load()
    }
}

/// Uniform read access to the per-shard chosen logs of a log process —
/// what backend-agnostic drivers (the `esync-workload` crate) use for
/// cross-replica agreement checks and merged reads without knowing
/// whether they drive a plain [`MultiPaxos`] or a [`LogGroup`].
pub trait ShardedLogView {
    /// The number of shards this process runs.
    fn shard_count(&self) -> usize;

    /// Shard `shard`'s chosen log.
    ///
    /// # Panics
    ///
    /// May panic if `shard` is out of range.
    fn shard_log(&self, shard: ShardId) -> &SlotMap<Batch>;
}

impl ShardedLogView for LogGroupProcess {
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_log(&self, shard: ShardId) -> &SlotMap<Batch> {
        self.shards[shard.as_usize()].log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ballot::Ballot;
    use crate::outbox::Action;
    use crate::paxos::multi::{BatchVote, SlotVote};
    use crate::time::LocalInstant;
    use crate::types::kv_command;

    fn cfg(n: usize) -> TimingConfig {
        TimingConfig::for_n_processes(n).unwrap()
    }

    fn out() -> Outbox<GroupMsg> {
        Outbox::new(LocalInstant::ZERO)
    }

    fn spawn(shards: usize, n: usize, id: u32) -> LogGroupProcess {
        LogGroup::new(shards).spawn(ProcessId::new(id), &cfg(n), Value::new(0))
    }

    /// The full promise of a group of `shards` shards that never voted.
    fn blank_promise(shards: usize) -> GroupPromise {
        GroupPromise {
            shards: vec![VoteReport::default(); shards],
        }
    }

    /// A vote for `values` in `slot` at ballot `bal`.
    fn vote(slot: u64, bal: u64, values: &[u64]) -> SlotVote {
        SlotVote {
            slot,
            vote: BatchVote {
                bal: Ballot::new(bal),
                batch: batch_of(values.iter().copied().map(Value::new)),
            },
        }
    }

    /// Anchors the whole group of `p` (id 1 of 3) on ballot 4 by feeding
    /// the session timer and a quorum of blank group promises.
    fn anchor_group(p: &mut LogGroupProcess, o: &mut Outbox<GroupMsg>) -> Ballot {
        p.on_timer(TIMER_SESSION, o);
        o.drain();
        let b = Ballot::new(4);
        for from in [0u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &GroupMsg::G1b {
                    mbal: b,
                    promise: blank_promise(p.shard_count()),
                },
                o,
            );
        }
        o.drain();
        b
    }

    #[test]
    fn modulo_router_spreads_keys() {
        let r = ShardRouter::Modulo;
        assert_eq!(r.route(0, 4), ShardId::new(0));
        assert_eq!(r.route(5, 4), ShardId::new(1));
        assert_eq!(r.route(7, 4), ShardId::new(3));
        assert_eq!(r.route(123, 1), ShardId::ZERO, "S=1 is a single shard");
    }

    #[test]
    fn range_router_partitions_by_boundary() {
        let r = ShardRouter::Range(vec![10, 100, 1000]);
        assert_eq!(r.route(0, 4), ShardId::new(0));
        assert_eq!(r.route(9, 4), ShardId::new(0));
        assert_eq!(r.route(10, 4), ShardId::new(1));
        assert_eq!(r.route(999, 4), ShardId::new(2));
        assert_eq!(r.route(u64::MAX, 4), ShardId::new(3));
    }

    #[test]
    #[should_panic(expected = "3 boundaries")]
    fn range_router_arity_is_validated() {
        let _ = LogGroup::new(4).with_router(ShardRouter::Range(vec![10]));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn range_router_order_is_validated() {
        let _ = LogGroup::new(3).with_router(ShardRouter::Range(vec![10, 10]));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = LogGroup::new(0);
    }

    /// One message sits in every slot of the simulator's event-queue slab
    /// and of every runtime channel, so its size is paid per queued
    /// delivery on both log paths: a variant that grows it has to say so
    /// here.
    #[test]
    fn wire_message_size_is_pinned() {
        assert_eq!(std::mem::size_of::<MultiMsg>(), 40);
        assert_eq!(std::mem::size_of::<GroupMsg>(), 48);
    }

    #[test]
    fn start_arms_one_timer_pair_regardless_of_shards() {
        // THE tentpole property at the action level: S shards share one
        // session timer and one ε tick — booting an S=3 group emits
        // exactly the two timers a plain log would, not 2·S.
        let mut p = spawn(3, 3, 1);
        let mut o = out();
        p.on_start(&mut o);
        let acts = o.drain();
        let timers: Vec<u32> = acts
            .iter()
            .filter_map(|a| match a {
                Action::SetTimer { id, .. } => Some(id.get()),
                _ => None,
            })
            .collect();
        assert_eq!(timers, vec![TIMER_SESSION.get(), TIMER_EPSILON.get()]);
        // And ONE group 1a, not one per shard.
        let one_as = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Broadcast {
                        msg: GroupMsg::G1a { .. }
                    }
                )
            })
            .count();
        assert_eq!(one_as, 1, "one ballot announcement for all shards");
    }

    #[test]
    fn one_promise_quorum_anchors_every_shard() {
        let mut p = spawn(4, 3, 1);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        anchor_group(&mut p, &mut o);
        assert!(p.is_anchored(), "group anchored");
        assert!(p.is_leader());
        for s in 0..4u32 {
            assert!(
                p.shard(ShardId::new(s)).is_anchored(),
                "shard {s} anchored by the shared phase 1"
            );
        }
    }

    #[test]
    fn commands_route_to_their_shard_and_commit_with_its_tag() {
        let mut p = spawn(2, 3, 1);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        let b = anchor_group(&mut p, &mut o);
        // key 3 → shard 1 under modulo-2.
        let v = kv_command(3, 7);
        assert_eq!(p.shard_of(v), ShardId::new(1));
        p.on_client(v, &mut o);
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: GroupMsg::Shard { shard, msg: MultiMsg::M2a { slot: 0, .. } } }
                if *shard == ShardId::new(1)
        )));
        // Commit shard 1's slot 0: the decide carries shard 1.
        for from in [0u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &GroupMsg::Shard {
                    shard: ShardId::new(1),
                    msg: MultiMsg::M2b {
                        mbal: b,
                        slot: 0,
                        batch: batch_of([v]),
                    },
                },
                &mut o,
            );
        }
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Decide { value, shard } if *value == v && *shard == ShardId::new(1)
        )));
        assert_eq!(p.shard(ShardId::new(1)).log_entry(0), Some(&batch_of([v])));
        assert_eq!(
            p.shard(ShardId::ZERO).log_entry(0),
            None,
            "shard 0 untouched"
        );
    }

    #[test]
    fn higher_ballot_unanchors_the_whole_group() {
        // Unanchoring is a group event: one higher-ballot claim drops
        // every shard's anchor at once.
        let mut p = spawn(3, 3, 1);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        anchor_group(&mut p, &mut o);
        assert!(p.is_anchored());
        p.on_message(
            ProcessId::new(2),
            &GroupMsg::G1a {
                mbal: Ballot::new(8),
                prefixes: vec![],
            }, // session 2, owner p2
            &mut o,
        );
        o.drain();
        assert!(!p.is_anchored());
        assert_eq!(p.mbal(), Ballot::new(8));
        for s in 0..3u32 {
            assert!(
                !p.shard(ShardId::new(s)).is_anchored(),
                "shard {s} unanchored"
            );
        }
    }

    #[test]
    fn unanchoring_requeues_unchosen_proposals_of_every_shard() {
        let mut p = spawn(2, 3, 1);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        anchor_group(&mut p, &mut o);
        // One in-flight command per shard (keys 0 and 1 under modulo-2).
        p.on_client(kv_command(0, 10), &mut o);
        p.on_client(kv_command(1, 11), &mut o);
        o.drain();
        p.on_message(
            ProcessId::new(2),
            &GroupMsg::G1a {
                mbal: Ballot::new(8),
                prefixes: vec![],
            },
            &mut o,
        );
        o.drain();
        assert_eq!(p.shard(ShardId::ZERO).pending_len(), 1, "shard 0 requeued");
        assert_eq!(
            p.shard(ShardId::new(1)).pending_len(),
            1,
            "shard 1 requeued"
        );
    }

    #[test]
    fn shard_2a_with_higher_ballot_adopts_at_group_level() {
        let mut p = spawn(2, 3, 1);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        anchor_group(&mut p, &mut o);
        // A competing leader's 2a on shard 0 carries ballot 8: the WHOLE
        // group adopts (and shard 0 votes under the new ballot).
        p.on_message(
            ProcessId::new(2),
            &GroupMsg::Shard {
                shard: ShardId::ZERO,
                msg: MultiMsg::M2a {
                    mbal: Ballot::new(8),
                    slot: 0,
                    batch: batch_of([Value::new(9)]),
                },
            },
            &mut o,
        );
        let acts = o.drain();
        assert_eq!(p.mbal(), Ballot::new(8));
        assert!(!p.is_anchored());
        assert!(
            !p.shard(ShardId::new(1)).is_anchored(),
            "the other shard unanchors too"
        );
        assert!(
            acts.iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    msg: GroupMsg::Shard {
                        shard: ShardId::ZERO,
                        msg: MultiMsg::M2b { slot: 0, .. }
                    }
                }
            )),
            "shard 0 voted under the adopted ballot"
        );
    }

    #[test]
    fn promise_carries_every_shards_votes() {
        let mut p = spawn(2, 3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        // Shard 1 accepts a 2a in slot 3.
        p.on_message(
            ProcessId::new(1),
            &GroupMsg::Shard {
                shard: ShardId::new(1),
                msg: MultiMsg::M2a {
                    mbal: Ballot::new(4),
                    slot: 3,
                    batch: batch_of([Value::new(7)]),
                },
            },
            &mut o,
        );
        o.drain();
        let promise = p.promise(&[0, 0]);
        assert_eq!(promise.shards.len(), 2);
        assert!(promise.shards[0].votes.is_empty(), "shard 0 never voted");
        assert!(promise.shards[0].chosen.is_empty(), "shard 0 chose nothing");
        assert_eq!(
            promise.shards[1],
            VoteReport {
                votes: vec![vote(3, 4, &[7])],
                ..VoteReport::default()
            }
        );
    }

    #[test]
    fn g1a_is_answered_with_one_promise_for_all_shards() {
        let mut p = spawn(4, 3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_message(
            ProcessId::new(1),
            &GroupMsg::G1a {
                mbal: Ballot::new(4),
                prefixes: vec![],
            },
            &mut o,
        );
        let acts = o.drain();
        let promises: Vec<_> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: GroupMsg::G1b { mbal, promise },
                } => Some((*to, *mbal, promise.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(promises.len(), 1, "ONE 1b for four shards");
        let (to, mbal, promise) = &promises[0];
        assert_eq!(*to, ProcessId::new(1), "1b goes to the ballot owner");
        assert_eq!(*mbal, Ballot::new(4));
        assert_eq!(promise.shards.len(), 4);
    }

    /// The promise `p` sends in reply to a G1a for `mbal` from `from`.
    fn reply_to_g1a(p: &mut LogGroupProcess, from: u32, mbal: Ballot) -> GroupPromise {
        let mut o = out();
        p.on_message(
            ProcessId::new(from),
            &GroupMsg::G1a {
                mbal,
                prefixes: vec![0, 0],
            },
            &mut o,
        );
        let mut promises = o.drain().into_iter().filter_map(|a| match a {
            Action::Send {
                to,
                msg: GroupMsg::G1b { mbal: b, promise },
            } => {
                assert_eq!(
                    (to, b),
                    (mbal.owner(3), mbal),
                    "1b goes to the ballot owner"
                );
                Some(promise)
            }
            _ => None,
        });
        let promise = promises
            .next()
            .expect("every 1a for our ballot is answered");
        assert!(promises.next().is_none());
        promise
    }

    fn vote_2a(p: &mut LogGroupProcess, from: u32, shard: u32, mbal: Ballot, slot: u64) {
        let msg = MultiMsg::M2a {
            mbal,
            slot,
            batch: batch_of([Value::new(slot)]),
        };
        p.on_message(
            ProcessId::new(from),
            &GroupMsg::Shard {
                shard: ShardId::new(shard),
                msg,
            },
            &mut out(),
        );
    }

    #[test]
    fn g1b_is_full_until_the_ballot_reaches_phase2_then_payload_free() {
        let mut p = spawn(2, 3, 0);
        p.on_start(&mut out());
        vote_2a(&mut p, 1, 1, Ballot::new(1), 0);
        // Ballot 4 opens: the old vote travels on every re-announcement.
        let b4 = Ballot::new(4);
        for _ in 0..2 {
            let promise = reply_to_g1a(&mut p, 1, b4);
            assert_eq!(promise.shards.len(), 2);
            assert_eq!(promise.shards[1].votes, vec![vote(0, 1, &[0])]);
        }
        // One 2a at ballot 4, in ANY shard, proves the owner anchored the
        // whole group: acknowledgement only from here on.
        vote_2a(&mut p, 1, 0, b4, 3);
        assert_eq!(reply_to_g1a(&mut p, 1, b4), GroupPromise::default());
        // A higher ballot is a new election: full promises again …
        let b8 = Ballot::new(8);
        let promise = reply_to_g1a(&mut p, 2, b8);
        assert_eq!(promise.shards[0].votes, vec![vote(3, 4, &[3])]);
        assert_eq!(promise.shards[1].votes, vec![vote(0, 1, &[0])]);
        // … until that ballot's own first 2a.
        vote_2a(&mut p, 2, 1, b8, 0);
        assert_eq!(reply_to_g1a(&mut p, 2, b8), GroupPromise::default());
    }

    #[test]
    fn anchored_group_owner_elides_its_self_addressed_g1b() {
        let mut p = spawn(2, 3, 1);
        let mut o = out();
        p.on_start(&mut o);
        vote_2a(&mut p, 1, 1, Ballot::new(1), 0); // a vote it would report
        let b = anchor_group(&mut p, &mut o);
        assert_eq!(reply_to_g1a(&mut p, 1, b), GroupPromise::default());
        assert_eq!(
            p.promise(&[0, 0]).shards[1].votes.len(),
            1,
            "the full promise is still there"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "payload-free promise reached a live quorum")]
    fn live_quorum_rejects_a_payload_free_promise() {
        let mut p = spawn(2, 3, 1);
        let mut o = out();
        p.on_start(&mut o);
        p.on_timer(TIMER_SESSION, &mut o); // ballot 4, collecting promises
        p.on_message(
            ProcessId::new(0),
            &GroupMsg::G1b {
                mbal: Ballot::new(4),
                promise: GroupPromise::default(),
            },
            &mut o,
        );
    }

    #[test]
    fn anchoring_recompletes_reported_slots_per_shard() {
        let mut p = spawn(2, 3, 1);
        let mut o = out();
        p.on_start(&mut o);
        p.on_timer(TIMER_SESSION, &mut o);
        o.drain();
        // p0's promise reports an old vote in shard 1, slot 7.
        let reported = GroupPromise {
            shards: vec![
                VoteReport::default(),
                VoteReport {
                    votes: vec![vote(7, 1, &[70])],
                    ..VoteReport::default()
                },
            ],
        };
        p.on_message(
            ProcessId::new(0),
            &GroupMsg::G1b {
                mbal: Ballot::new(4),
                promise: reported,
            },
            &mut o,
        );
        p.on_message(
            ProcessId::new(2),
            &GroupMsg::G1b {
                mbal: Ballot::new(4),
                promise: blank_promise(2),
            },
            &mut o,
        );
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: GroupMsg::Shard { shard, msg: MultiMsg::M2a { slot: 7, .. } } }
                if *shard == ShardId::new(1)
        )), "shard 1 re-completes the reported slot");
        assert!(p.is_anchored());
        // Fresh proposals on shard 1 land past the re-completed slot.
        let v = kv_command(1, 9); // key 1 → shard 1
        p.on_client(v, &mut o);
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: GroupMsg::Shard { shard, msg: MultiMsg::M2a { slot: 8, .. } } }
                if *shard == ShardId::new(1)
        )));
    }

    /// A promise whose only shard carries `votes` (no chosen entries,
    /// prefix 0).
    fn votes_promise(votes: Vec<SlotVote>) -> GroupPromise {
        GroupPromise {
            shards: vec![VoteReport {
                votes,
                ..VoteReport::default()
            }],
        }
    }

    #[test]
    fn promise_fold_keeps_highest_ballot_vote_per_slot() {
        let mut folds = vec![ReportFold::default()];
        votes_promise(vec![vote(0, 2, &[20])]).fold_into(&mut folds);
        votes_promise(vec![vote(0, 5, &[50]), vote(1, 1, &[11])]).fold_into(&mut folds);
        votes_promise(vec![vote(0, 3, &[30])]).fold_into(&mut folds);
        let best = &folds[0].best;
        assert_eq!(best[&0].bal, Ballot::new(5), "highest ballot wins slot 0");
        assert_eq!(&*best[&0].batch, &[Value::new(50)]);
        assert_eq!(&*best[&1].batch, &[Value::new(11)]);
        assert!(folds[0].chosen.is_empty(), "no chosen entries reported");
    }

    #[test]
    fn promise_fold_collects_chosen_entries_first_writer_wins() {
        let mut folds = vec![ReportFold::default()];
        GroupPromise {
            shards: vec![VoteReport {
                prefix: 2,
                chosen: vec![
                    (0, batch_of([Value::new(5)])),
                    (1, batch_of([Value::new(6)])),
                ],
                votes: vec![],
            }],
        }
        .fold_into(&mut folds);
        // A second (identical, by agreement) report does not overwrite.
        GroupPromise {
            shards: vec![VoteReport {
                prefix: 1,
                chosen: vec![(0, batch_of([Value::new(5)]))],
                votes: vec![],
            }],
        }
        .fold_into(&mut folds);
        let chosen = &folds[0].chosen;
        assert_eq!(chosen.len(), 2);
        assert_eq!(&*chosen[&0], &[Value::new(5)]);
        assert_eq!(&*chosen[&1], &[Value::new(6)]);
        assert!(folds[0].best.is_empty());
        assert_eq!(
            folds[0].max_prefix, 2,
            "the highest reporter prefix is the floor"
        );
    }

    #[test]
    fn suppression_group_leader_traffic_defers_takeover() {
        // Follower p2 adopts leader p1's ballot 4; leader traffic on ANY
        // layer (here a shard 2a) resets the single group session timer.
        let mut p = spawn(2, 3, 2);
        let mut o = out();
        p.on_start(&mut o);
        p.on_message(
            ProcessId::new(1),
            &GroupMsg::G1a {
                mbal: Ballot::new(4),
                prefixes: vec![],
            },
            &mut o,
        );
        o.drain();
        p.on_message(
            ProcessId::new(1),
            &GroupMsg::Shard {
                shard: ShardId::new(1),
                msg: MultiMsg::M2a {
                    mbal: Ballot::new(4),
                    slot: 0,
                    batch: batch_of([Value::new(9)]),
                },
            },
            &mut o,
        );
        let acts = o.drain();
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_SESSION)),
            "leader liveness re-arms the group session timer"
        );
    }

    #[test]
    fn sharded_log_view_is_uniform_across_layers() {
        let plain = MultiPaxos::new().spawn(ProcessId::new(0), &cfg(3), Value::new(0));
        assert_eq!(ShardedLogView::shard_count(&plain), 1);
        assert!(plain.shard_log(ShardId::ZERO).is_empty());
        let group = spawn(4, 3, 0);
        assert_eq!(ShardedLogView::shard_count(&group), 4);
        assert!(group.shard_log(ShardId::new(3)).is_empty());
    }

    #[test]
    fn idle_epsilon_tick_sends_one_1a_for_all_shards() {
        // The W4 claim at the unit level: an anchored, idle S=4 group's ε
        // tick emits exactly ONE 1a broadcast (plus its re-arm), not four.
        let mut p = spawn(4, 3, 1);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        anchor_group(&mut p, &mut o);
        let later = LocalInstant::ZERO + cfg(3).epsilon_timer_local() * 4;
        let mut o2 = Outbox::new(later);
        p.on_timer(TIMER_EPSILON, &mut o2);
        let acts = o2.drain();
        let one_as = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Broadcast {
                        msg: GroupMsg::G1a { .. }
                    }
                )
            })
            .count();
        assert_eq!(one_as, 1, "S-independent idle traffic");
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_EPSILON)));
    }

    #[test]
    fn idle_epsilon_tick_reproposes_inflight_slots_instead() {
        let mut p = spawn(2, 3, 1);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        anchor_group(&mut p, &mut o);
        p.on_client(kv_command(0, 5), &mut o); // shard 0, in flight
        o.drain();
        let later = LocalInstant::ZERO + cfg(3).epsilon_timer_local() * 4;
        let mut o2 = Outbox::new(later);
        p.on_timer(TIMER_EPSILON, &mut o2);
        let acts = o2.drain();
        assert!(
            acts.iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    msg: GroupMsg::Shard {
                        shard: ShardId::ZERO,
                        msg: MultiMsg::M2a { slot: 0, .. }
                    }
                }
            )),
            "in-flight slot re-proposed"
        );
        assert!(
            !acts.iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    msg: GroupMsg::G1a { .. }
                }
            )),
            "recovery 2a replaces the 1a re-announcement"
        );
    }

    #[test]
    fn unanchored_epsilon_tick_reforwards_every_shards_pending() {
        // Follower p2 holds one command per shard; an idle ε tick retries
        // both toward the presumed group leader p1 after ONE group 1a.
        let mut p = spawn(2, 3, 2);
        let mut o = out();
        p.on_start(&mut o);
        p.on_message(
            ProcessId::new(1),
            &GroupMsg::G1a {
                mbal: Ballot::new(4),
                prefixes: vec![],
            },
            &mut o,
        );
        p.on_client(kv_command(0, 6), &mut o);
        p.on_client(kv_command(1, 7), &mut o);
        o.drain();
        let later = LocalInstant::ZERO + cfg(3).epsilon_timer_local() * 4;
        let mut o2 = Outbox::new(later);
        p.on_timer(TIMER_EPSILON, &mut o2);
        let acts = o2.drain();
        for (shard, id) in [(0u32, 6u64), (1, 7)] {
            assert!(acts.iter().any(|a| matches!(
                a,
                Action::Send { to, msg: GroupMsg::Shard { shard: s, msg: MultiMsg::Forward { value } } }
                    if *to == ProcessId::new(1) && s.get() == shard && crate::types::kv_id(*value) == id
            )), "shard {shard} command {id} re-forwarded");
        }
    }

    // ---- live rebalancing (the key-handoff protocol) ----

    use rebalance::RebalanceConfig;

    /// A rebalancing-enabled group over `Range(bounds)`.
    fn spawn_rb(shards: usize, n: usize, id: u32, bounds: Vec<u64>) -> LogGroupProcess {
        LogGroup::new(shards)
            .with_router(ShardRouter::Range(bounds))
            .with_rebalancing(RebalanceConfig::default())
            .spawn(ProcessId::new(id), &cfg(n), Value::new(0))
    }

    /// Feeds the 2b majority choosing `batch` in `(shard, slot)`.
    fn commit_slot(
        p: &mut LogGroupProcess,
        b: Ballot,
        shard: u32,
        slot: u64,
        batch: &Batch,
        o: &mut Outbox<GroupMsg>,
    ) {
        for from in [0u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &GroupMsg::Shard {
                    shard: ShardId::new(shard),
                    msg: MultiMsg::M2b {
                        mbal: b,
                        slot,
                        batch: batch.clone(),
                    },
                },
                o,
            );
        }
    }

    /// The batch of the first 2a broadcast for `(shard, slot)` among
    /// `acts`, if any.
    fn proposed_batch(acts: &[Action<GroupMsg>], shard: u32, slot: u64) -> Option<Batch> {
        acts.iter().find_map(|a| match a {
            Action::Broadcast {
                msg:
                    GroupMsg::Shard {
                        shard: s,
                        msg:
                            MultiMsg::M2a {
                                slot: sl, batch, ..
                            },
                    },
            } if s.get() == shard && *sl == slot => Some(batch.clone()),
            _ => None,
        })
    }

    #[test]
    fn handoff_freezes_drains_commits_and_reroutes() {
        // Anchor p1 of 3 over two shards split at key 8, with one
        // in-flight command on the span that is about to move.
        let mut p = spawn_rb(2, 3, 1, vec![8]);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        let b = anchor_group(&mut p, &mut o);
        let inflight = kv_command(2, 100); // key 2: shard 0 under [8]
        p.on_client(inflight, &mut o);
        let acts = o.drain();
        let slot0 = proposed_batch(&acts, 0, 0).expect("key 2 proposed in shard 0");
        // Move keys < 8 ≥ 2 to shard 1: key 2's owner changes.
        assert!(p.request_rebalance(vec![2], &mut o), "migration accepted");
        assert!(
            o.drain().is_empty(),
            "freeze + drain emit nothing while the span is in flight"
        );
        // A new admission on the moving span is frozen, not proposed.
        let frozen = kv_command(2, 101);
        p.on_client(frozen, &mut o);
        assert!(
            !o.drain()
                .iter()
                .any(|a| matches!(a, Action::Broadcast { .. })),
            "moving-key admission must freeze during the migration"
        );
        // The in-flight slot commits -> drained -> the control batch is
        // proposed into shard 0's next slot.
        commit_slot(&mut p, b, 0, 0, &slot0, &mut o);
        let acts = o.drain();
        let ctrl = proposed_batch(&acts, 0, 1).expect("control batch proposed after drain");
        assert!(
            rebalance::is_ctrl_value(ctrl[0]),
            "slot 1 holds the epoch bump"
        );
        assert_eq!(p.router_epoch(), 0, "not applied before the commit");
        // The control entry commits: the epoch applies at the anchor.
        commit_slot(&mut p, b, 0, 1, &ctrl, &mut o);
        let acts = o.drain();
        assert_eq!(p.router_epoch(), 1);
        assert_eq!(
            p.shard_of(kv_command(2, 999)),
            ShardId::new(1),
            "key 2 re-homed"
        );
        assert!(
            proposed_batch(&acts, 1, 0).is_some_and(|batch| batch.contains(&frozen)),
            "frozen command flushed into the NEW owner shard"
        );
        assert!(
            acts.iter().any(|a| matches!(
                a,
                Action::Broadcast { msg: GroupMsg::Reroute { update } } if update.epoch == 1
            )),
            "the applying anchor announces the switch"
        );
        assert!(
            !acts.iter().any(|a| matches!(
                a,
                Action::Decide { value, .. } if rebalance::is_ctrl_value(*value)
            )),
            "control values never surface as commits"
        );
    }

    #[test]
    fn moved_commands_are_answered_from_the_old_shard() {
        let mut p = spawn_rb(2, 3, 1, vec![8]);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        let b = anchor_group(&mut p, &mut o);
        // Key 2 commits in shard 0, then its span moves to shard 1.
        let v = kv_command(2, 100);
        p.on_client(v, &mut o);
        let slot0 = proposed_batch(&o.drain(), 0, 0).expect("proposed");
        commit_slot(&mut p, b, 0, 0, &slot0, &mut o);
        o.drain();
        assert!(p.request_rebalance(vec![2], &mut o));
        let ctrl = proposed_batch(&o.drain(), 0, 1).expect("nothing in flight: commits at once");
        commit_slot(&mut p, b, 0, 1, &ctrl, &mut o);
        o.drain();
        assert_eq!(p.router_epoch(), 1);
        // A retry of the moved command is answered with its chosen entry
        // from the OLD shard — not admitted into the new one.
        p.on_message(
            ProcessId::new(2),
            &GroupMsg::Shard {
                shard: ShardId::new(1),
                msg: MultiMsg::Forward { value: v },
            },
            &mut o,
        );
        let acts = o.drain();
        assert!(
            acts.iter().any(|a| matches!(
                a,
                Action::Send { to, msg: GroupMsg::Shard { shard: s, msg: MultiMsg::LogDecided { slot: 0, .. } } }
                    if *to == ProcessId::new(2) && s.get() == 0
            )),
            "retry answered from the pre-move log"
        );
        assert!(
            !acts.iter().any(|a| matches!(a, Action::Broadcast { .. })),
            "no re-proposal of a moved, already-chosen command"
        );
        // A client resubmission is dropped silently, like any dup.
        p.on_client(v, &mut o);
        assert!(!o
            .drain()
            .iter()
            .any(|a| matches!(a, Action::Broadcast { .. })));
    }

    #[test]
    fn followers_switch_at_the_control_slot_and_migrate_pending() {
        // Follower p0 holds a pending command on the moving span; the
        // committed control entry re-homes both the span and the pending
        // command.
        let mut p = spawn_rb(2, 3, 0, vec![8]);
        let mut o = out();
        p.on_start(&mut o);
        // Adopt p1's ballot so forwards go somewhere sane.
        p.on_message(
            ProcessId::new(1),
            &GroupMsg::G1a {
                mbal: Ballot::new(4),
                prefixes: vec![],
            },
            &mut o,
        );
        o.drain();
        let v = kv_command(2, 7);
        p.on_client(v, &mut o);
        o.drain();
        assert_eq!(
            p.shard(ShardId::ZERO).pending_len(),
            1,
            "held in the old owner"
        );
        // The anchor's control entry arrives as a LogDecided.
        let update = RouterUpdate {
            epoch: 1,
            boundaries: vec![2],
        };
        let ctrl = batch_of(update.encode_values());
        p.on_message(
            ProcessId::new(1),
            &GroupMsg::Shard {
                shard: ShardId::ZERO,
                msg: MultiMsg::LogDecided {
                    slot: 0,
                    batch: ctrl,
                },
            },
            &mut o,
        );
        let acts = o.drain();
        assert_eq!(p.router_epoch(), 1, "follower switched at the control slot");
        assert_eq!(
            p.shard(ShardId::ZERO).pending_len(),
            0,
            "pending left the old owner"
        );
        assert_eq!(p.shard(ShardId::new(1)).pending_len(), 1, "…and re-homed");
        assert!(
            acts.iter().any(|a| matches!(
                a,
                Action::Send { msg: GroupMsg::Shard { shard: s, msg: MultiMsg::Forward { value } }, .. }
                    if s.get() == 1 && *value == v
            )),
            "re-homed command re-forwards under the new shard tag"
        );
        assert!(
            !acts.iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    msg: GroupMsg::Reroute { .. }
                }
            )),
            "followers do not announce"
        );
    }

    #[test]
    fn reroute_fast_path_jumps_forward_and_stays_idempotent() {
        let mut p = spawn_rb(2, 3, 0, vec![8]);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        // A process that was down across two migrations hears only the
        // latest epoch's re-announcement: it jumps straight to it.
        p.on_message(
            ProcessId::new(1),
            &GroupMsg::Reroute {
                update: RouterUpdate {
                    epoch: 2,
                    boundaries: vec![5],
                },
            },
            &mut o,
        );
        assert_eq!(p.router_epoch(), 2, "forward jump to the announced epoch");
        assert_eq!(p.shard_of(kv_command(6, 1)), ShardId::new(1));
        o.drain();
        // Stale announcements and the skipped epochs' control entries
        // are no-ops afterwards.
        let stale = RouterUpdate {
            epoch: 1,
            boundaries: vec![2],
        };
        p.on_message(
            ProcessId::new(1),
            &GroupMsg::Reroute {
                update: stale.clone(),
            },
            &mut o,
        );
        assert_eq!(p.router_epoch(), 2, "stale epoch ignored");
        let ctrl = batch_of(stale.encode_values());
        p.on_message(
            ProcessId::new(1),
            &GroupMsg::Shard {
                shard: ShardId::ZERO,
                msg: MultiMsg::LogDecided {
                    slot: 0,
                    batch: ctrl,
                },
            },
            &mut o,
        );
        assert_eq!(p.router_epoch(), 2, "log walk skips applied epochs");
        assert_eq!(p.shard_of(kv_command(6, 1)), ShardId::new(1), "bounds kept");
    }

    #[test]
    fn idle_epsilon_reannounces_the_epoch_only_after_a_migration() {
        let mut p = spawn_rb(2, 3, 1, vec![8]);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        let b = anchor_group(&mut p, &mut o);
        let eps_tick = |p: &mut LogGroupProcess, rounds: u64| {
            let later = LocalInstant::ZERO + cfg(3).epsilon_timer_local() * (4 * rounds);
            let mut o = Outbox::new(later);
            p.on_timer(TIMER_EPSILON, &mut o);
            o.drain()
        };
        assert!(
            !eps_tick(&mut p, 1).iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    msg: GroupMsg::Reroute { .. }
                }
            )),
            "epoch 0: the balanced group's idle tick carries no reroute"
        );
        // Migrate, then the idle tick re-announces the epoch.
        assert!(p.request_rebalance(vec![2], &mut o));
        let ctrl = proposed_batch(&o.drain(), 0, 0).expect("drained immediately");
        commit_slot(&mut p, b, 0, 0, &ctrl, &mut o);
        o.drain();
        assert_eq!(p.router_epoch(), 1);
        assert!(
            eps_tick(&mut p, 2).iter().any(|a| matches!(
                a,
                Action::Broadcast { msg: GroupMsg::Reroute { update } }
                    if update.epoch == 1 && update.boundaries == vec![2]
            )),
            "rebalanced anchor re-announces its epoch every idle ε"
        );
    }

    #[test]
    fn losing_the_anchor_aborts_the_migration_and_releases_frozen_commands() {
        let mut p = spawn_rb(2, 3, 1, vec![8]);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        anchor_group(&mut p, &mut o);
        // An in-flight moving-span command keeps the drain open…
        p.on_client(kv_command(2, 100), &mut o);
        o.drain();
        assert!(p.request_rebalance(vec![2], &mut o));
        p.on_client(kv_command(2, 101), &mut o);
        o.drain(); // frozen
                   // …and a higher ballot takes the group: the migration aborts.
        p.on_message(
            ProcessId::new(2),
            &GroupMsg::G1a {
                mbal: Ballot::new(8),
                prefixes: vec![],
            },
            &mut o,
        );
        let acts = o.drain();
        assert!(!p.is_anchored());
        assert_eq!(p.router_epoch(), 0, "nothing committed, nothing applied");
        // The frozen command re-entered under the OLD routing (key 2 is
        // still shard 0) and re-forwards toward the new presumed leader.
        assert!(
            acts.iter().any(|a| matches!(
                a,
                Action::Send { to, msg: GroupMsg::Shard { shard: s, msg: MultiMsg::Forward { value } } }
                    if *to == ProcessId::new(2) && s.get() == 0 && crate::types::kv_id(*value) == 101
            )),
            "frozen command released toward the new leader: {acts:?}"
        );
    }

    /// Trace + action order of the two events whose order is the group
    /// host's own (see the comments in `anchor` and `adopt`).
    #[test]
    fn order_of_anchoring_a_reported_chosen_entry_and_of_adopt_while_anchored() {
        let mut p = spawn_rb(2, 3, 1, vec![8]);
        let mut o = out();
        o.set_tracing(true);
        p.on_start(&mut o);
        p.on_timer(TIMER_SESSION, &mut o); // ballot 4
        o.drain();
        o.drain_trace();
        let b = Ballot::new(4);
        let learned = batch_of([kv_command(9, 5)]);
        let reported = GroupPromise {
            shards: vec![
                VoteReport::default(),
                VoteReport {
                    prefix: 1,
                    chosen: vec![(0, learned.clone())],
                    votes: vec![],
                },
            ],
        };
        p.on_message(
            ProcessId::new(0),
            &GroupMsg::G1b {
                mbal: b,
                promise: reported,
            },
            &mut o,
        );
        p.on_message(
            ProcessId::new(2),
            &GroupMsg::G1b {
                mbal: b,
                promise: blank_promise(2),
            },
            &mut o,
        );
        assert_eq!(
            o.drain_trace().collect::<Vec<_>>(),
            vec![
                TraceEvent::PromiseQuorum { ballot: 4 },
                TraceEvent::Anchored { ballot: 4 },
                TraceEvent::Decided {
                    shard: 1,
                    slot: 0,
                    value: learned[0].get()
                },
            ],
            "Anchored is stamped once, before any shard learns or proposes"
        );
        assert_eq!(
            o.drain(),
            vec![
                Action::Decide {
                    value: learned[0],
                    shard: ShardId::new(1)
                },
                Action::Broadcast {
                    msg: GroupMsg::Shard {
                        shard: ShardId::new(1),
                        msg: MultiMsg::LogDecided {
                            slot: 0,
                            batch: learned
                        },
                    },
                },
            ]
        );
        // Adopt while anchored and mid-migration: an in-flight moving-key
        // command keeps the drain open, a second one is frozen.
        p.on_client(kv_command(2, 100), &mut o);
        assert!(p.request_rebalance(vec![2], &mut o));
        let frozen = kv_command(2, 101);
        p.on_client(frozen, &mut o);
        o.drain();
        o.drain_trace();
        let b8 = Ballot::new(8);
        p.on_message(
            ProcessId::new(2),
            &GroupMsg::G1a {
                mbal: b8,
                prefixes: vec![],
            },
            &mut o,
        );
        assert_eq!(
            o.drain_trace().collect::<Vec<_>>(),
            vec![
                TraceEvent::Unanchored { ballot: 4 },
                TraceEvent::RebalanceAbort { epoch: 1 },
                TraceEvent::submit(frozen),
                TraceEvent::Admitted {
                    shard: 0,
                    value: frozen.get()
                },
                TraceEvent::ForwardSent {
                    value: frozen.get()
                },
                TraceEvent::OneASent { ballot: 8 },
            ],
            "the abort runs between the shard unanchor and session entry"
        );
        let acts = o.drain();
        assert_eq!(acts.len(), 5, "{acts:?}");
        assert_eq!(
            acts[0],
            Action::Send {
                to: ProcessId::new(2),
                msg: GroupMsg::Shard {
                    shard: ShardId::ZERO,
                    msg: MultiMsg::Forward { value: frozen }
                },
            },
            "the released command forwards to the NEW presumed leader"
        );
        assert!(matches!(&acts[1], Action::SetTimer { id, .. } if *id == TIMER_SESSION));
        assert_eq!(
            acts[2],
            Action::Broadcast {
                msg: GroupMsg::G1a {
                    mbal: b8,
                    prefixes: vec![0, 1]
                }
            }
        );
        assert!(matches!(
            &acts[3],
            Action::Send { to, msg: GroupMsg::G1b { mbal, .. } } if *to == ProcessId::new(2) && *mbal == b8
        ));
        assert!(
            matches!(&acts[4], Action::SetTimer { id, .. } if *id == TIMER_SESSION),
            "the 1a came from the new ballot's owner: leader traffic re-arms the timer last"
        );
        assert_eq!(
            p.shard(ShardId::ZERO).pending_len(),
            2,
            "in-flight + released, both held"
        );
    }

    #[test]
    fn request_rebalance_rejects_invalid_or_untimely_requests() {
        let mut p = spawn_rb(2, 3, 1, vec![8]);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        assert!(!p.request_rebalance(vec![2], &mut o), "not anchored yet");
        anchor_group(&mut p, &mut o);
        assert!(!p.request_rebalance(vec![8], &mut o), "unchanged bounds");
        assert!(!p.request_rebalance(vec![2, 5], &mut o), "wrong arity");
        assert!(!p.request_rebalance(vec![], &mut o), "wrong arity");
        // A plain (non-rebalancing) group always refuses.
        let mut plain = spawn(2, 3, 1);
        let mut o2 = out();
        plain.on_start(&mut o2);
        o2.drain();
        anchor_group(&mut plain, &mut o2);
        assert!(!plain.request_rebalance(vec![2], &mut o2));
    }

    #[test]
    fn session_gating_applies_to_the_group() {
        let mut p = spawn(2, 5, 1);
        let mut o = out();
        p.on_start(&mut o);
        p.on_timer(TIMER_SESSION, &mut o); // session 0 -> 1 (exempt)
        o.drain();
        assert_eq!(p.session(), Session::new(1));
        p.on_timer(TIMER_SESSION, &mut o);
        assert_eq!(p.session(), Session::new(1), "gated without majority");
    }
}
