//! Multi-instance session Paxos: a replicated log.
//!
//! The paper's §4 "Reducing Message Complexity" observes that, as in
//! ordinary Paxos, "phase 1 is executed in advance for all instances of the
//! algorithm, and all nonfaulty processes decide within 3 message delays
//! when the system is stable" — and that the modified algorithm can be made
//! to behave the same way. This module is that construction: the session
//! machinery (gating, session timer, ε-retransmission — `LogSession`) runs
//! **once**, shared by all log slots; a process whose ballot gathers a
//! phase-1b majority becomes *anchored* and thereafter commits each
//! submitted command with a single 2a/2b exchange — decision within 3
//! message delays of submission (forward → 2a → 2b) in the stable period,
//! as experiment E7 measures. Everything below phase 1 is a [`LogShard`];
//! [`MultiPaxosProcess`] is one session leading one shard.
//!
//! Two throughput mechanisms sit on top of the paper's construction:
//!
//! * **Sharded, index-addressed log state**: the per-slot tables that
//!   grow with the log (acceptor votes, chosen entries, 2b counters) live
//!   in [`SlotMap`]s — O(1) slot
//!   addressing with a cache-resident hot tail, instead of a `BTreeMap`
//!   descent and rebalance per commit. (Bounded working sets — the live
//!   proposal pipeline, a phase-1b quorum's reported votes — stay in
//!   `BTreeMap`s.)
//! * **Proposer-side batching** ("group commit"): an anchored leader packs
//!   up to [`MultiPaxos::with_batching`]`(max_batch, ..)` client commands
//!   into one slot, and pipelines at most `max_outstanding` unchosen slots.
//!   While the pipeline window is full, arriving commands accumulate and
//!   leave in batches as slots commit — so sustained throughput scales
//!   with `max_batch · max_outstanding` per round trip instead of being
//!   capped at one command per consensus instance. The defaults
//!   (`max_batch = 1`, unbounded window) reproduce the unbatched behavior
//!   exactly.
//!
//! Commands are applied **at-least-once**: a command submitted during a
//! leadership change may be proposed in two different slots. Deduplication
//! is an application concern (the replicated-log example and the
//! `esync-workload` generators tag commands with unique ids).

use crate::ballot::{Ballot, Session};
use crate::config::TimingConfig;
use crate::metrics::Metric;
use crate::outbox::{Outbox, Process, Protocol, ShardLoad};
use crate::paxos::admitted::{Admitted, AdmittedSet, DEFAULT_ADMITTED_WINDOW};
use crate::paxos::group::rebalance::is_ctrl_value;
use crate::paxos::log_session::LogSession;
use crate::paxos::slotlog::SlotMap;
use crate::quorum::QuorumTracker;
use crate::trace::TraceEvent;
use crate::types::{ProcessId, ShardId, TimerId, Value};
use std::sync::Arc;

/// Timer id of the session timer (shared-phase-1 machinery).
pub const TIMER_SESSION: TimerId = TimerId::new(0);
/// Timer id of the ε-retransmission tick.
pub const TIMER_EPSILON: TimerId = TimerId::new(1);

/// One slot's payload: one or more client commands chosen together
/// ("group commit"). Reference-counted so that the fan-out paths — an
/// acceptor echoing a 2a as a 2b, a leader re-proposing on the ε tick —
/// bump a refcount instead of deep-copying the command list.
pub type Batch = Arc<[Value]>;

/// Builds a batch from its commands.
pub fn batch_of(values: impl IntoIterator<Item = Value>) -> Batch {
    values.into_iter().collect()
}

/// A per-slot acceptor vote: the last ballot voted in, and its batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchVote {
    /// The ballot of the vote.
    pub bal: Ballot,
    /// The batch voted for.
    pub batch: Batch,
}

/// A per-slot vote reported in phase 1b.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotVote {
    /// The log slot.
    pub slot: u64,
    /// The last vote cast in that slot.
    pub vote: BatchVote,
}

/// Wire messages of the replicated-log layer.
#[derive(Debug, Clone, PartialEq)]
pub enum MultiMsg {
    /// Phase 1a for **all** slots at once.
    M1a {
        /// The ballot being started.
        mbal: Ballot,
        /// The caller's all-chosen log prefix: the replier truncates its
        /// report at this slot (everything below it is already committed
        /// at the caller), which is what keeps steady-state promises
        /// `O(in-flight window)` instead of `O(log length)`.
        prefix: u64,
    },
    /// Phase 1b: the acceptor's **truncated** vote report (see
    /// [`LogShard::vote_report`]) — or, once the ballot is in
    /// phase 2, a payload-free acknowledgement (see
    /// [`MultiPaxosProcess::phase2_seen`]).
    M1b {
        /// The joined ballot.
        mbal: Ballot,
        /// The acceptor's report.
        report: VoteReport,
    },
    /// Phase 2a for one slot.
    M2a {
        /// The ballot.
        mbal: Ballot,
        /// The log slot.
        slot: u64,
        /// The proposed batch.
        batch: Batch,
    },
    /// Phase 2b for one slot, broadcast to everyone.
    M2b {
        /// The ballot.
        mbal: Ballot,
        /// The log slot.
        slot: u64,
        /// The voted batch.
        batch: Batch,
    },
    /// A client command forwarded to the presumed leader.
    Forward {
        /// The command.
        value: Value,
    },
    /// A chosen log entry being announced.
    LogDecided {
        /// The log slot.
        slot: u64,
        /// The chosen batch.
        batch: Batch,
    },
}

impl MultiMsg {
    /// The ballot carried by this message, if any.
    pub fn ballot(&self) -> Option<Ballot> {
        match self {
            MultiMsg::M1a { mbal, .. }
            | MultiMsg::M1b { mbal, .. }
            | MultiMsg::M2a { mbal, .. }
            | MultiMsg::M2b { mbal, .. } => Some(*mbal),
            MultiMsg::Forward { .. } | MultiMsg::LogDecided { .. } => None,
        }
    }

    /// A short static label for message-count metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            MultiMsg::M1a { .. } => "1a",
            MultiMsg::M1b { .. } => "1b",
            MultiMsg::M2a { .. } => "2a",
            MultiMsg::M2b { .. } => "2b",
            MultiMsg::Forward { .. } => "forward",
            MultiMsg::LogDecided { .. } => "decided",
        }
    }
}

/// One acceptor's truncated phase-1b payload: its all-chosen prefix, the
/// chosen entries the caller is missing, and its live votes. Slots below
/// the reporter's prefix are final, so they travel as chosen entries
/// rather than as votes. Built by [`LogShard::vote_report`]; the
/// payload of [`MultiMsg::M1b`], and — one per shard — of the log group's
/// [`GroupPromise`](crate::paxos::group::GroupPromise). Batches are
/// `Arc`-shared with the reporter's log, so building and folding a report
/// copies no command.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VoteReport {
    /// The reporter's all-chosen log prefix. Slots below it are
    /// committed, so the new leader must never propose fresh batches
    /// there (see [`ReportFold::max_prefix`]).
    pub prefix: u64,
    /// Chosen entries at or above the **caller's** prefix — the caller's
    /// catch-up material (empty when caller and reporter are equally
    /// caught up).
    pub chosen: Vec<(u64, Batch)>,
    /// Last votes at or above the reporter's prefix, for slots the
    /// reporter has not seen chosen.
    pub votes: Vec<SlotVote>,
}

/// Leader-side fold of one log's phase-1b reports across a quorum — what
/// anchoring consumes. One implementation shared by the single log's 1b
/// quorum and the group promise fold, so the two layers can never select
/// different values for the same reported votes.
///
/// `best`/`chosen` stay `BTreeMap`s: this is a short-lived per-election
/// structure sized by the *reported* votes, rebuilt on every ballot
/// attempt — the sharded `SlotMap`'s per-shard allocation would cost more
/// than it saves on exactly the unstable-period election-churn path.
#[derive(Debug, Clone, Default)]
pub struct ReportFold {
    /// The highest reporter prefix seen — a floor for the new leader's
    /// `next_slot` (every slot below a reporter's prefix is chosen
    /// *somewhere*), enforced in addition to the shipped chosen entries
    /// as defense in depth.
    pub max_prefix: u64,
    /// Chosen entries reported by the quorum (final — identical across
    /// reporters by agreement, so first writer wins).
    pub chosen: std::collections::BTreeMap<u64, Batch>,
    /// Best reported live vote per slot.
    pub best: std::collections::BTreeMap<u64, BatchVote>,
}

impl ReportFold {
    /// Folds one reporter in. The phase-1b **value-selection rule**, per
    /// slot: a reported vote replaces the current best iff its ballot is
    /// strictly higher.
    pub fn fold(&mut self, report: &VoteReport) {
        self.max_prefix = self.max_prefix.max(report.prefix);
        for (slot, batch) in &report.chosen {
            self.chosen.entry(*slot).or_insert_with(|| batch.clone());
        }
        for sv in &report.votes {
            if self.best.get(&sv.slot).is_none_or(|b| sv.vote.bal > b.bal) {
                self.best.insert(sv.slot, sv.vote.clone());
            }
        }
    }
}

/// 2b counts for one slot, per ballot. Nearly always a single entry (one
/// live ballot), so a linear scan beats any keyed structure.
#[derive(Debug, Clone, Default)]
struct Slot2b(Vec<(Ballot, QuorumTracker, Batch)>);

impl Slot2b {
    /// Records a 2b; returns the chosen batch if this crosses the
    /// majority threshold for `bal`.
    fn record(&mut self, n: usize, from: ProcessId, bal: Ballot, batch: &Batch) -> Option<Batch> {
        let entry = match self.0.iter_mut().find(|(b, ..)| *b == bal) {
            Some(e) => e,
            None => {
                self.0.push((bal, QuorumTracker::new(n), batch.clone()));
                self.0.last_mut().expect("just pushed")
            }
        };
        debug_assert_eq!(&entry.2, batch, "one batch per (slot, ballot)");
        let before = entry.1.reached();
        entry.1.insert(from);
        (!before && entry.1.reached()).then(|| entry.2.clone())
    }
}

/// Protocol factory for the replicated-log layer.
#[derive(Debug, Clone)]
pub struct MultiPaxos {
    max_batch: usize,
    max_outstanding: usize,
    admitted_window: u64,
}

impl Default for MultiPaxos {
    fn default() -> Self {
        MultiPaxos::new()
    }
}

impl MultiPaxos {
    /// Creates the factory with batching disabled (`max_batch = 1`) and an
    /// unbounded pipeline window — the classic one-command-per-slot layer.
    pub fn new() -> Self {
        MultiPaxos {
            max_batch: 1,
            max_outstanding: usize::MAX,
            admitted_window: DEFAULT_ADMITTED_WINDOW,
        }
    }

    /// Enables proposer-side batching: up to `max_batch` commands share a
    /// slot, and at most `max_outstanding` proposed-but-unchosen slots are
    /// in flight. Commands arriving while the window is full accumulate
    /// and leave in batches as slots commit.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    #[must_use]
    pub fn with_batching(mut self, max_batch: usize, max_outstanding: usize) -> Self {
        assert!(max_batch >= 1, "a batch holds at least one command");
        assert!(max_outstanding >= 1, "the pipeline needs at least one slot");
        self.max_batch = max_batch;
        self.max_outstanding = max_outstanding;
        self
    }

    /// The configured batch-size cap.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The configured pipeline-window cap.
    pub fn max_outstanding(&self) -> usize {
        self.max_outstanding
    }

    /// Sets the admitted-set compaction window: chosen commands are
    /// remembered (for retry dedup and `Forward`-of-chosen answers) until
    /// their slot falls `window` slots below the all-chosen log prefix
    /// (see [`AdmittedSet`]). Defaults to [`DEFAULT_ADMITTED_WINDOW`].
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn with_admitted_window(mut self, window: u64) -> Self {
        assert!(window >= 1, "the admitted window keeps at least one slot");
        self.admitted_window = window;
        self
    }

    /// The configured admitted-set compaction window.
    pub fn admitted_window(&self) -> u64 {
        self.admitted_window
    }
}

impl MultiPaxos {
    /// One log's state below phase 1, configured by this factory.
    pub(crate) fn spawn_shard(&self, cfg: &TimingConfig) -> LogShard {
        LogShard {
            n: cfg.n(),
            accepted: SlotMap::new(),
            log: SlotMap::new(),
            decisions: SlotMap::new(),
            anchored: None,
            proposals: std::collections::BTreeMap::new(),
            max_batch: self.max_batch,
            max_outstanding: self.max_outstanding,
            next_slot: 0,
            chosen_prefix: 0,
            pending: Vec::new(),
            admitted: AdmittedSet::new(self.admitted_window),
            load: ShardLoad::default(),
        }
    }
}

impl Protocol for MultiPaxos {
    type Msg = MultiMsg;
    type Process = MultiPaxosProcess;

    fn name(&self) -> &'static str {
        "multi-session-paxos"
    }

    fn kind_of(msg: &MultiMsg) -> &'static str {
        msg.kind()
    }

    fn spawn(&self, id: ProcessId, cfg: &TimingConfig, _initial: Value) -> MultiPaxosProcess {
        MultiPaxosProcess {
            session: LogSession::new(id, cfg),
            shard: self.spawn_shard(cfg),
        }
    }
}

/// How a shard's [`MultiMsg`] travels on its host's wire: as itself under
/// [`MultiPaxosProcess`], shard-tagged under a log group.
pub(crate) trait ShardWire {
    /// `msg` of shard `shard`, in the host's message type.
    fn of_shard(shard: ShardId, msg: MultiMsg) -> Self;
}

impl ShardWire for MultiMsg {
    fn of_shard(_: ShardId, msg: MultiMsg) -> Self {
        msg
    }
}

/// What a [`LogShard`] writes into: the **host's** outbox, seen as shard
/// `shard` of it. Messages are wrapped for the host's wire, decides and
/// trace events carry the shard id, counters land in the host registry —
/// in emission order, nothing buffered or copied. The view has no timer
/// and no oracle method: that shards own neither is held by the type.
pub(crate) struct ShardOut<'a, M> {
    out: &'a mut Outbox<M>,
    shard: ShardId,
    /// Whether control values (router-epoch entries, possible only under
    /// a rebalancing host) are withheld from the decide stream: they
    /// commit like any entry but are never surfaced as client commands.
    hide_ctrl: bool,
    /// Whether a 2a was broadcast through this view — leader traffic, so
    /// the host stamps its session's ε idle clock after the step.
    pub(crate) sent_2a: bool,
}

impl<'a, M: ShardWire> ShardOut<'a, M> {
    pub(crate) fn new(out: &'a mut Outbox<M>, shard: ShardId, hide_ctrl: bool) -> Self {
        ShardOut {
            out,
            shard,
            hide_ctrl,
            sent_2a: false,
        }
    }

    fn send(&mut self, to: ProcessId, msg: MultiMsg) {
        self.out.send(to, M::of_shard(self.shard, msg));
    }

    fn broadcast(&mut self, msg: MultiMsg) {
        self.sent_2a |= matches!(msg, MultiMsg::M2a { .. });
        self.out.broadcast(M::of_shard(self.shard, msg));
    }

    fn decide(&mut self, value: Value) {
        if !(self.hide_ctrl && is_ctrl_value(value)) {
            self.out.decide_in_shard(self.shard, value);
        }
    }

    /// Emits the event `ev` builds for this view's shard id.
    fn trace(&mut self, ev: impl FnOnce(u32) -> TraceEvent) {
        let shard = self.shard.get();
        self.out.trace(|| ev(shard));
    }

    fn metric(&mut self, m: Metric) {
        self.out.metric(m);
    }
}

/// One replicated log **below phase 1**: acceptor votes, the chosen log,
/// 2b tallies, the proposal pipeline with batching, admission dedup and
/// load counters. It owns no ballot, no timer and no quorum, and never
/// sends a 1a or 1b — the §4 session is its host's
/// ([`MultiPaxosProcess`] hosts one shard, a
/// [`LogGroupProcess`](crate::paxos::group::LogGroupProcess) hosts `S`),
/// which tells it when phase 1 completed (`anchor`) and when that is void
/// again (`unanchor`).
#[derive(Debug, Clone)]
pub struct LogShard {
    n: usize,
    /// Per-slot acceptor votes.
    accepted: SlotMap<BatchVote>,
    /// Chosen entries.
    log: SlotMap<Batch>,
    /// 2b counts per slot (per ballot within the slot).
    decisions: SlotMap<Slot2b>,
    /// The ballot this shard proposes under: `Some` from the host's
    /// `anchor` until its `unanchor`.
    anchored: Option<Ballot>,
    /// Batches we proposed and that are **not yet chosen** — the live
    /// pipeline, bounded by `max_outstanding` (plus anchoring
    /// re-completions). Entries leave on commit, so the ε re-propose scan
    /// and the unanchor requeue touch only in-flight work, never the
    /// ever-growing committed history (that lives in `log`). A bounded
    /// working set, so a plain `BTreeMap` beats the sharded store here.
    proposals: std::collections::BTreeMap<u64, Batch>,
    max_batch: usize,
    max_outstanding: usize,
    next_slot: u64,
    /// The first slot not yet chosen locally — every slot below it is in
    /// `log`. Drives admitted-set compaction (and is the merged-view
    /// boundary the log group exposes).
    chosen_prefix: u64,
    /// Commands awaiting an anchored leader or pipeline-window space.
    pending: Vec<Value>,
    /// The command values this process has seen, mapped to their chosen
    /// slot once committed. Admission is idempotent: the ε re-forward
    /// path retries commands every tick, and without this set a leader
    /// whose pipeline is full would re-queue each retry into a fresh
    /// slot — duplicating every queued command. The slot lets a
    /// duplicate Forward of an already-chosen command be answered with
    /// its `LogDecided`, so a submitter whose decision broadcasts were
    /// all lost still converges and stops retrying. **Windowed** (see
    /// [`AdmittedSet`]): chosen entries are compacted once they fall
    /// below the all-chosen prefix by more than the configured window,
    /// so the set stays bounded instead of growing with the log;
    /// duplicates remain possible only across leadership changes or for
    /// resubmissions older than the window (the documented at-least-once
    /// paths).
    admitted: AdmittedSet,
    /// Cumulative load counters (commands dispatched / freshly admitted)
    /// for the imbalance instrumentation and the rebalancer's trigger.
    load: ShardLoad,
}

impl LogShard {
    /// Whether this shard proposes: its host's session completed phase 1
    /// and no higher ballot was adopted since.
    pub fn is_anchored(&self) -> bool {
        self.anchored.is_some()
    }

    /// The chosen log so far: one batch per chosen slot.
    pub fn log(&self) -> &SlotMap<Batch> {
        &self.log
    }

    /// The chosen batch in `slot`, if any.
    pub fn log_entry(&self, slot: u64) -> Option<&Batch> {
        self.log.get(slot)
    }

    /// All chosen commands, flattened in slot order (the order an
    /// application applies them in).
    pub fn log_values(&self) -> impl Iterator<Item = Value> + '_ {
        self.log.values().flat_map(|b| b.iter().copied())
    }

    /// Commands waiting for an anchored leader or window space.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The first slot not yet chosen locally: every slot below it is
    /// committed (the *all-chosen log prefix* — the boundary the
    /// admitted-set compaction and the log group's merged view use).
    pub fn chosen_prefix(&self) -> u64 {
        self.chosen_prefix
    }

    /// Entries currently held by the admitted dedup set (bounded by the
    /// compaction window plus the in-flight pipeline; see [`AdmittedSet`]).
    pub fn admitted_len(&self) -> usize {
        self.admitted.len()
    }

    /// The admitted-set compaction window, in slots (see
    /// [`MultiPaxos::with_admitted_window`]). The log group prunes its
    /// moved-command answers by the same rule.
    pub fn admitted_window(&self) -> u64 {
        self.admitted.window()
    }

    /// The cumulative load counters of this shard.
    pub(crate) fn load(&self) -> ShardLoad {
        self.load
    }

    /// Drops leadership state, moving every proposed-but-uncommitted
    /// command back to `pending` so it is retried (re-forwarded, or
    /// re-assigned on a later anchoring) rather than silently dropped —
    /// without this, a command the *leader itself* admitted could vanish
    /// if no acceptor's vote survives into the next ballot's phase 1b.
    /// The filter is **value-level** (`admitted[v]` still `None`), not
    /// slot-level: a command whose slot was taken by a competing leader's
    /// batch needs the requeue, while one already committed in *any* slot
    /// must not re-enter `pending` (it would re-forward forever — commits
    /// never prune it again).
    pub(crate) fn unanchor(&mut self) {
        let requeue: Vec<Value> = self
            .proposals
            .values()
            .flat_map(|b| b.iter().copied())
            .filter(|v| self.admitted.is_unchosen(*v))
            .collect();
        self.pending.extend(requeue);
        self.anchored = None;
        self.proposals.clear();
    }

    fn propose<M: ShardWire>(&mut self, slot: u64, batch: Batch, out: &mut ShardOut<'_, M>) {
        let mbal = self.anchored.expect("only an anchored shard proposes");
        debug_assert!(!self.log.contains(slot), "never propose into a chosen slot");
        // Never propose two batches for the same (ballot, slot); a fresh
        // proposal occupies the pipeline until its slot commits.
        let batch = self.proposals.entry(slot).or_insert(batch).clone();
        for v in batch.iter() {
            out.metric(Metric::Proposed);
            out.trace(|shard| TraceEvent::Proposed {
                shard,
                slot,
                value: v.get(),
            });
        }
        out.broadcast(MultiMsg::M2a { mbal, slot, batch });
    }

    /// Applies chosen entries reported by a phase-1b quorum: final by
    /// agreement, so they are learned directly (emitting their decides
    /// and a `LogDecided` each, exactly like any other commit) instead of
    /// being re-proposed through a 2a/2b round. Slots already in the log
    /// are skipped by `choose`.
    pub(crate) fn learn_chosen<M: ShardWire>(
        &mut self,
        chosen: &std::collections::BTreeMap<u64, Batch>,
        out: &mut ShardOut<'_, M>,
    ) {
        for (slot, batch) in chosen {
            self.choose(*slot, batch.clone(), out);
        }
    }

    /// Becomes anchored at ballot `b`, whose phase 1 the host's session
    /// completed with `quorum` as this log's fold of the promises: learn
    /// the chosen entries the quorum reported, re-complete every reported
    /// live vote under `b`, then batch-assign fresh slots to pending
    /// commands.
    pub(crate) fn anchor<M: ShardWire>(
        &mut self,
        b: Ballot,
        quorum: &ReportFold,
        out: &mut ShardOut<'_, M>,
    ) {
        // Learn reported-chosen entries BEFORE declaring ourselves
        // anchored: `choose` flushes pending commands into fresh slots
        // when anchored, and that must not happen until `next_slot` has
        // been fixed up past everything the quorum reported.
        self.learn_chosen(&quorum.chosen, out);
        self.anchored = Some(b);
        let best = &quorum.best;
        // Fresh slots start past the reported votes, our own log's
        // high-water mark (which now covers the quorum's reported chosen
        // entries, plus entries learned via `LogDecided` without any 1b
        // report covering them), and `max_prefix` — the highest reporter
        // prefix of the quorum, below which every slot is chosen
        // somewhere (normally implied by the shipped chosen entries;
        // enforced independently as defense in depth). This is a
        // *reset*, not a max with the stale pre-election value: slots we
        // proposed under a dead ballot and that nobody reported must be
        // refilled, or the all-chosen prefix would never cross them.
        self.next_slot = best
            .keys()
            .next_back()
            .map_or(0, |m| m + 1)
            .max(self.log.max_slot().map_or(0, |m| m + 1))
            .max(quorum.max_prefix);
        // Re-completions bypass the pipeline window: safety requires every
        // reported slot to finish under the new ballot regardless of load.
        let to_recomplete: Vec<(u64, Batch)> = best
            .iter()
            .filter(|(s, _)| !self.log.contains(**s))
            .map(|(s, v)| (*s, v.batch.clone()))
            .collect();
        for (slot, batch) in to_recomplete {
            self.propose(slot, batch, out);
        }
        // A requeued command that a surviving vote already covers (its
        // old 2a reached an acceptor in this quorum) was just re-proposed
        // above — assigning it a fresh slot too would commit it twice.
        if !self.pending.is_empty() {
            let covered: std::collections::BTreeSet<Value> = self
                .proposals
                .values()
                .flat_map(|b| b.iter().copied())
                .collect();
            self.pending.retain(|v| !covered.contains(v));
        }
        self.drain_pending(out);
    }

    /// The truncated phase-1b payload, relative to the 1a caller's
    /// all-chosen prefix: the plain log's `M1b` report, and one entry of
    /// a [group promise](crate::paxos::group::GroupPromise).
    ///
    /// What travels (and why it is safe to drop the rest):
    ///
    /// * **Chosen entries** at or above `caller_prefix` — final by
    ///   agreement, they are the caller's catch-up material. Slots below
    ///   the caller's prefix are already committed at the caller.
    /// * **Live votes** at or above *our* prefix, for slots we have not
    ///   seen chosen. A vote below our prefix is superseded by the log
    ///   entry (sent above when the caller lacks it); a chosen slot's
    ///   classic-Paxos repair is preserved because any quorum intersects
    ///   the choosing majority, and that member either still reports the
    ///   vote (slot at or above its prefix) or ships the final entry.
    ///
    /// Cost is `O(in-flight window + prefix lag)` per reply — both tail
    /// reads visit only `[from, max_slot]` — while a caller at prefix 0
    /// (a restarted process) is sent the full log in one exchange.
    pub fn vote_report(&self, caller_prefix: u64) -> VoteReport {
        let chosen: Vec<(u64, Batch)> = self
            .log
            .tail(caller_prefix)
            .map(|(slot, batch)| (slot, batch.clone()))
            .collect();
        let votes: Vec<SlotVote> = self
            .accepted
            .tail(self.chosen_prefix)
            .filter(|(slot, _)| !self.log.contains(*slot))
            .map(|(slot, vote)| SlotVote {
                slot,
                vote: vote.clone(),
            })
            .collect();
        VoteReport {
            prefix: self.chosen_prefix,
            chosen,
            votes,
        }
    }

    /// Whether any proposed-but-unchosen slot is in flight (the live
    /// pipeline the ε tick re-proposes).
    pub(crate) fn has_live_proposals(&self) -> bool {
        !self.proposals.is_empty()
    }

    /// ε-retransmission of an anchored shard: re-proposes every in-flight
    /// (proposed-but-unchosen) slot. `proposals` holds only unchosen
    /// slots, so this is bounded by the pipeline window, not the log's
    /// history. With nothing in flight the host re-announces instead.
    pub(crate) fn repropose<M: ShardWire>(&mut self, out: &mut ShardOut<'_, M>) {
        let undecided: Vec<(u64, Batch)> = self
            .proposals
            .iter()
            .map(|(s, b)| (*s, b.clone()))
            .collect();
        for (slot, batch) in undecided {
            self.propose(slot, batch, out);
        }
    }

    /// ε re-forward of an unanchored shard: retries every held command
    /// toward the presumed `leader`. A Forward lost before `TS` (or
    /// stranded by a leadership change) retries every ε, so every
    /// submission to a live process commits within O(ε + δ) of
    /// stabilization — at-least-once across instability. Commits prune
    /// `pending` (see `choose`), terminating the retry.
    pub(crate) fn reforward<M: ShardWire>(&self, leader: ProcessId, out: &mut ShardOut<'_, M>) {
        for v in &self.pending {
            out.metric(Metric::Forwarded);
            out.trace(|_| TraceEvent::ForwardSent { value: v.get() });
            out.send(leader, MultiMsg::Forward { value: *v });
        }
    }

    /// The admitted-set status of `value`: `None` if never admitted (or
    /// compacted away), `Unchosen` while queued or in flight, `Chosen`
    /// with its slot once committed. Read by the log group's rebalancer
    /// to decide whether a command crossing a moving key span can still
    /// be answered from the old owner's log.
    pub(crate) fn admitted_status(&self, value: Value) -> Option<Admitted> {
        self.admitted.status(value)
    }

    /// Whether any proposed-but-unchosen slot holds a batch with a value
    /// matching `pred` — the rebalancer's **drain** condition: a key span
    /// may only switch shards once no in-flight proposal of the old owner
    /// still references it. Bounded by the pipeline window.
    pub(crate) fn has_proposal_matching(&self, mut pred: impl FnMut(Value) -> bool) -> bool {
        self.proposals.values().any(|b| b.iter().any(|v| pred(*v)))
    }

    /// Extracts every command matching `pred` from this shard's held
    /// state: pending entries leave the queue, and their admitted-set
    /// entries (plus those of matching *chosen* commands) are removed.
    /// Returns the unchosen values (for re-admission at the key span's
    /// new owner shard) and the chosen `(value, slot)` pairs (which
    /// become the group's moved-command answers). The per-shard half of
    /// a router-epoch switch; the caller re-routes the unchosen values.
    pub(crate) fn extract_matching(
        &mut self,
        mut pred: impl FnMut(Value) -> bool,
    ) -> (Vec<Value>, Vec<(Value, u64)>) {
        let taken = self.admitted.take_matching(|v, _| pred(v));
        if taken.is_empty() {
            return (Vec::new(), Vec::new());
        }
        self.pending.retain(|v| !pred(*v));
        let mut unchosen = Vec::new();
        let mut chosen = Vec::new();
        for (v, slot) in taken {
            match slot {
                None => unchosen.push(v),
                Some(s) => chosen.push((v, s)),
            }
        }
        (unchosen, chosen)
    }

    /// [`Self::extract_matching`] restricted to **pending** commands
    /// (admitted, unchosen, and *not* in a live proposal): they leave the
    /// queue and their admitted entries go with them. The migration
    /// **freeze** step — queued moving-key commands join the frozen
    /// buffer, while in-flight proposals are left to the drain (pulling
    /// their dedup entries early would let the frozen copy and the
    /// in-flight proposal both commit) and committed commands stay
    /// answerable from this shard's log until the epoch actually
    /// switches.
    pub(crate) fn extract_pending(&mut self, mut pred: impl FnMut(Value) -> bool) -> Vec<Value> {
        let moving: std::collections::BTreeSet<Value> =
            self.pending.iter().copied().filter(|v| pred(*v)).collect();
        if moving.is_empty() {
            return Vec::new();
        }
        self.pending.retain(|v| !moving.contains(v));
        self.admitted.take_matching(|v, _| moving.contains(&v));
        moving.into_iter().collect()
    }

    /// Proposes `batch` directly into the next fresh slot, bypassing the
    /// pending queue, admission dedup and the pipeline window — the
    /// control-entry path of the rebalancer's router-epoch bump (the
    /// batch is protocol metadata, not a client command: it must occupy
    /// exactly one slot, exactly once, and never be requeued as a lost
    /// client command). Returns the slot proposed into.
    ///
    /// # Panics
    ///
    /// Panics if this shard is not anchored.
    pub(crate) fn propose_batch<M: ShardWire>(
        &mut self,
        batch: Batch,
        out: &mut ShardOut<'_, M>,
    ) -> u64 {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.propose(slot, batch, out);
        slot
    }

    /// Counts one router dispatch that never reaches this shard's
    /// handlers — the log group's moved-command answers, which satisfy a
    /// retry entirely at the group level but are load on this shard's
    /// span all the same.
    pub(crate) fn note_submitted(&mut self) {
        self.load.submitted += 1;
    }

    /// Admits a command to the held set, idempotently: a value this
    /// process has already seen (an ε-retry duplicate, or a client
    /// resubmission of a committed command still inside the admitted
    /// window) is dropped. A newly admitted one is assigned a slot at
    /// once if we are anchored, else held until we anchor (the submitter
    /// keeps its own retried copy). Returns whether it was new.
    fn admit<M: ShardWire>(&mut self, value: Value, out: &mut ShardOut<'_, M>) -> bool {
        let fresh = self.admitted.admit(value);
        if fresh {
            self.load.admitted += 1;
            self.pending.push(value);
            out.metric(Metric::Admitted);
            out.trace(|shard| TraceEvent::Admitted {
                shard,
                value: value.get(),
            });
            if self.is_anchored() {
                self.drain_pending(out);
            }
        }
        fresh
    }

    /// Moves pending commands into fresh slots, `max_batch` per slot, while
    /// the pipeline window has space.
    fn drain_pending<M: ShardWire>(&mut self, out: &mut ShardOut<'_, M>) {
        debug_assert!(self.is_anchored());
        while !self.pending.is_empty() && self.proposals.len() < self.max_outstanding {
            let take = self.pending.len().min(self.max_batch);
            let batch: Batch = self.pending.drain(..take).collect();
            let slot = self.next_slot;
            self.next_slot += 1;
            self.propose(slot, batch, out);
        }
    }

    fn choose<M: ShardWire>(&mut self, slot: u64, batch: Batch, out: &mut ShardOut<'_, M>) {
        if self.log.contains(slot) {
            return;
        }
        for v in batch.iter() {
            out.metric(Metric::Decided);
            out.trace(|shard| TraceEvent::Decided {
                shard,
                slot,
                value: v.get(),
            });
            out.decide(*v);
            // Record where each command landed: admission of a later copy
            // short-circuits, and a duplicate Forward gets answered with
            // this slot's `LogDecided`.
            self.admitted.mark_chosen(*v, slot);
        }
        // Committed commands need no further client-side retry: drop them
        // from the held set so the ε re-forward loop terminates.
        if !self.pending.is_empty() {
            self.pending.retain(|v| !batch.contains(v));
        }
        self.log.insert(slot, batch.clone());
        // Never assign a fresh proposal to a slot that is already chosen
        // (a higher-ballot leader we have not heard from may be filling
        // slots ahead of us — proposing there would strand the batch).
        self.next_slot = self.next_slot.max(slot + 1);
        // Advance the all-chosen prefix past every contiguously chosen
        // slot (amortized O(1): each slot is crossed once per run) and
        // let the admitted set drop entries that fell out of the window.
        while self.log.contains(self.chosen_prefix) {
            self.chosen_prefix += 1;
        }
        self.admitted.maybe_compact(self.chosen_prefix);
        out.broadcast(MultiMsg::LogDecided {
            slot,
            batch: batch.clone(),
        });
        if let Some(ours) = self.proposals.remove(&slot) {
            if ours != batch {
                // Our proposal lost this slot to a competing leader's
                // batch: requeue its still-uncommitted commands for a
                // fresh slot (the entry is gone, so neither the ε
                // re-propose path nor a later unanchor resurrects the
                // losing batch).
                let requeue: Vec<Value> = ours
                    .iter()
                    .copied()
                    .filter(|v| self.admitted.is_unchosen(*v))
                    .collect();
                self.pending.extend(requeue);
            }
        }
        // A committed slot frees pipeline space (and may have requeued a
        // losing batch): flush what piled up.
        if self.is_anchored() {
            self.drain_pending(out);
        }
    }

    /// A client command submitted at this process: admitted (idempotently),
    /// then proposed if anchored, else held and forwarded to the presumed
    /// `leader` — the ε tick retries the forward ([`Self::reforward`]).
    pub(crate) fn submit<M: ShardWire>(
        &mut self,
        value: Value,
        leader: Option<ProcessId>,
        out: &mut ShardOut<'_, M>,
    ) {
        self.load.submitted += 1;
        out.metric(Metric::Submitted);
        out.trace(|_| TraceEvent::submit(value));
        if !self.admit(value, out) || self.is_anchored() {
            return;
        }
        if let Some(leader) = leader {
            out.metric(Metric::Forwarded);
            out.trace(|_| TraceEvent::ForwardSent { value: value.get() });
            out.send(leader, MultiMsg::Forward { value });
        }
    }

    /// Handles one of the four messages below phase 1. A 2a is voted for
    /// as given: comparing its ballot with the session's (and adopting a
    /// higher one) is the host's step before this call
    /// (`LogSession::vote_2a`). The session's own 1a/1b never reach a
    /// shard.
    pub(crate) fn on_message<M: ShardWire>(
        &mut self,
        from: ProcessId,
        msg: &MultiMsg,
        out: &mut ShardOut<'_, M>,
    ) {
        match msg {
            MultiMsg::M1a { .. } | MultiMsg::M1b { .. } => {
                debug_assert!(false, "phase 1 is the session's, not a shard's");
            }
            MultiMsg::M2a { mbal, slot, batch } => {
                if let Some(prev) = self.accepted.get(*slot) {
                    debug_assert!(*mbal >= prev.bal, "slot votes are ballot-monotone");
                }
                self.accepted.insert(
                    *slot,
                    BatchVote {
                        bal: *mbal,
                        batch: batch.clone(),
                    },
                );
                out.broadcast(MultiMsg::M2b {
                    mbal: *mbal,
                    slot: *slot,
                    batch: batch.clone(),
                });
            }
            MultiMsg::M2b { mbal, slot, batch } => {
                let chosen = self
                    .decisions
                    .get_or_insert_with(*slot, Slot2b::default)
                    .record(self.n, from, *mbal, batch);
                if let Some(b) = chosen {
                    let s = *slot;
                    out.metric(Metric::Chosen);
                    out.trace(|shard| TraceEvent::Chosen { shard, slot: s });
                    self.choose(s, b, out);
                }
            }
            MultiMsg::Forward { value } => {
                self.load.submitted += 1;
                // A retry of an already-chosen command means the sender
                // missed the decision broadcasts (lost pre-TS): answer
                // with the chosen entry so its retry loop terminates.
                if let Some(Admitted::Chosen(slot)) = self.admitted.status(*value) {
                    let batch = self
                        .log
                        .get(slot)
                        .expect("chosen commands are logged")
                        .clone();
                    out.metric(Metric::Replied);
                    out.trace(|shard| TraceEvent::ReplySent {
                        shard,
                        value: value.get(),
                    });
                    out.send(from, MultiMsg::LogDecided { slot, batch });
                } else {
                    self.admit(*value, out);
                }
            }
            MultiMsg::LogDecided { slot, batch } => {
                self.choose(*slot, batch.clone(), out);
            }
        }
    }
}

/// One replicated-log process: a `LogSession` leading one [`LogShard`],
/// speaking [`MultiMsg`] directly. The single-shot `initial` value from
/// [`Protocol::spawn`] is unused — commands arrive via
/// [`Process::on_client`].
#[derive(Debug, Clone)]
pub struct MultiPaxosProcess {
    session: LogSession<ReportFold>,
    shard: LogShard,
}

/// The process reads as its one shard: `log`, `log_entry`, `log_values`,
/// `chosen_prefix`, `pending_len`, `admitted_len`, `vote_report`, ….
impl std::ops::Deref for MultiPaxosProcess {
    type Target = LogShard;

    fn deref(&self) -> &LogShard {
        &self.shard
    }
}

impl MultiPaxosProcess {
    /// The process's current ballot.
    pub fn mbal(&self) -> Ballot {
        self.session.mbal()
    }

    /// The process's current session.
    pub fn session(&self) -> Session {
        self.session.session()
    }

    /// Whether this process is anchored (leader with phase 1 pre-executed).
    pub fn is_anchored(&self) -> bool {
        self.session.is_anchored()
    }

    /// Whether ballot `b` is in phase 2 as far as this process can tell —
    /// it voted for a 2a at `b`, or is itself anchored at `b` — so that
    /// the payload of a 1b for `b` can no longer be read and every later
    /// 1a for `b` is answered payload-free.
    pub fn phase2_seen(&self, b: Ballot) -> bool {
        self.session.phase2_seen(b)
    }

    fn announce(&mut self, out: &mut Outbox<MultiMsg>) {
        let m1a = MultiMsg::M1a {
            mbal: self.session.mbal(),
            prefix: self.shard.chosen_prefix(),
        };
        self.session.announce(m1a, out);
    }

    fn adopt(&mut self, b: Ballot, out: &mut Outbox<MultiMsg>) {
        let adopted = self.session.adopt(b, out);
        if adopted.unanchored {
            self.shard.unanchor();
        }
        if adopted.new_session {
            self.session.enter_session(out);
            self.announce(out);
        }
    }

    fn try_start_phase1(&mut self, out: &mut Outbox<MultiMsg>) {
        if self.session.try_start_phase1(ReportFold::default, out) {
            self.announce(out);
        }
    }

    /// Runs one step of the shard against a view of the host outbox, and
    /// stamps the session's ε idle clock if the step broadcast a 2a.
    fn drive(
        &mut self,
        out: &mut Outbox<MultiMsg>,
        step: impl FnOnce(&mut LogShard, &mut ShardOut<'_, MultiMsg>),
    ) {
        let mut view = ShardOut::new(out, ShardId::ZERO, false);
        step(&mut self.shard, &mut view);
        if view.sent_2a {
            self.session.sent_1a2a(out.now());
        }
    }
}

impl Process for MultiPaxosProcess {
    type Msg = MultiMsg;

    fn id(&self) -> ProcessId {
        self.session.id()
    }

    fn on_start(&mut self, out: &mut Outbox<MultiMsg>) {
        self.session.boot(out);
        self.announce(out);
    }

    fn on_message(&mut self, from: ProcessId, msg: &MultiMsg, out: &mut Outbox<MultiMsg>) {
        match msg {
            MultiMsg::M1a { mbal, prefix } => {
                let mbal = *mbal;
                if mbal > self.session.mbal() {
                    self.adopt(mbal, out);
                }
                if mbal == self.session.mbal() {
                    let report = if self.session.phase2_seen(mbal) {
                        VoteReport {
                            prefix: self.shard.chosen_prefix(),
                            ..VoteReport::default()
                        }
                    } else {
                        self.shard.vote_report(*prefix)
                    };
                    out.send(self.session.owner(), MultiMsg::M1b { mbal, report });
                }
            }
            MultiMsg::M1b { mbal, report } => {
                let quorum = self
                    .session
                    .promised(*mbal, from, |fold| fold.fold(report), out);
                if let Some(quorum) = quorum {
                    let b = *mbal;
                    // This host's order, pinned by the trace: the quorum's
                    // reported-chosen entries are learned before `Anchored`
                    // is stamped (`LogShard::anchor` would learn them after
                    // it — the group's order).
                    self.drive(out, |shard, o| shard.learn_chosen(&quorum.chosen, o));
                    out.metric(Metric::Anchored);
                    out.trace(|| TraceEvent::Anchored { ballot: b.get() });
                    self.drive(out, |shard, o| shard.anchor(b, &quorum, o));
                }
            }
            MultiMsg::M2a { mbal, .. } => {
                if *mbal > self.session.mbal() {
                    self.adopt(*mbal, out);
                }
                if self.session.vote_2a(*mbal) {
                    self.drive(out, |shard, o| shard.on_message(from, msg, o));
                }
            }
            _ => self.drive(out, |shard, o| shard.on_message(from, msg, o)),
        }
        if let Some(b) = msg.ballot() {
            self.session.heard_from(from, b, out);
        }
        self.try_start_phase1(out);
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<MultiMsg>) {
        match timer {
            TIMER_SESSION => {
                self.session.session_timer_expired();
                self.try_start_phase1(out);
            }
            TIMER_EPSILON => {
                let idle = self.session.epsilon_tick(out);
                if idle && self.session.is_anchored() {
                    // Re-propose undecided slots (recovery), or just
                    // re-announce the ballot.
                    if self.shard.has_live_proposals() {
                        self.drive(out, LogShard::repropose);
                    } else {
                        self.announce(out);
                    }
                } else if idle {
                    self.announce(out);
                    if let Some(leader) = self.session.leader() {
                        self.drive(out, |shard, o| shard.reforward(leader, o));
                    }
                }
            }
            _ => {}
        }
    }

    fn on_restart(&mut self, out: &mut Outbox<MultiMsg>) {
        self.session.boot(out);
        self.announce(out);
    }

    fn on_client(&mut self, value: Value, out: &mut Outbox<MultiMsg>) {
        let leader = self.session.leader();
        self.drive(out, |shard, o| shard.submit(value, leader, o));
    }

    /// The replicated log never "terminates"; for the single-shot driver
    /// interface, the decision is the first command of the first log entry.
    fn decision(&self) -> Option<Value> {
        self.shard.log_entry(0).and_then(|b| b.first().copied())
    }

    /// Anchored means leading: phase 1 is pre-executed for every slot.
    fn is_leader(&self) -> bool {
        self.is_anchored()
    }

    /// A plain log is one shard; its load counters live in shard zero.
    fn shard_load(&self, shard: ShardId) -> ShardLoad {
        debug_assert_eq!(shard, ShardId::ZERO, "a plain log has one shard");
        self.shard.load()
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

    fn spawn(n: usize, id: u32) -> MultiPaxosProcess {
        MultiPaxos::new().spawn(ProcessId::new(id), &cfg(n), Value::new(0))
    }

    fn out() -> Outbox<MultiMsg> {
        Outbox::new(LocalInstant::ZERO)
    }

    fn one(v: u64) -> Batch {
        batch_of([Value::new(v)])
    }

    /// Drives p (id 1 of 3) to anchored state on ballot 4.
    fn anchor_p1(p: &mut MultiPaxosProcess, o: &mut Outbox<MultiMsg>) -> Ballot {
        p.on_start(o);
        p.on_timer(TIMER_SESSION, o); // session 1, ballot 4, owns it
        o.drain();
        let b = Ballot::new(4);
        for from in [0u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &MultiMsg::M1b {
                    mbal: b,
                    report: VoteReport::default(),
                },
                o,
            );
        }
        o.drain();
        b
    }

    #[test]
    fn anchoring_after_1b_quorum() {
        let mut p = spawn(3, 1);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        assert!(p.is_anchored());
    }

    #[test]
    fn client_command_proposed_when_anchored() {
        let mut p = spawn(3, 1);
        let mut o = out();
        let b = anchor_p1(&mut p, &mut o);
        p.on_client(Value::new(77), &mut o);
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: MultiMsg::M2a { mbal, slot: 0, batch } }
                if *mbal == b && **batch == [Value::new(77)]
        )));
        p.on_client(Value::new(78), &mut o);
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: MultiMsg::M2a { slot: 1, batch, .. } }
                if **batch == [Value::new(78)]
        )));
    }

    #[test]
    fn client_command_forwarded_when_not_leader() {
        let mut p = spawn(3, 2);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        // p2's initial ballot is 2, owned by itself; adopt p1's ballot 4.
        p.on_message(
            ProcessId::new(1),
            &MultiMsg::M1a {
                mbal: Ballot::new(4),
                prefix: 0,
            },
            &mut o,
        );
        o.drain();
        p.on_client(Value::new(9), &mut o);
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send { to, msg: MultiMsg::Forward { value } }
                if *to == ProcessId::new(1) && *value == Value::new(9)
        )));
    }

    #[test]
    fn forwarded_command_assigned_by_anchored_leader() {
        let mut p = spawn(3, 1);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::Forward {
                value: Value::new(9),
            },
            &mut o,
        );
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: MultiMsg::M2a { slot: 0, batch, .. } }
                if **batch == [Value::new(9)]
        )));
    }

    #[test]
    fn pending_commands_assigned_on_anchoring() {
        let mut p = spawn(3, 1);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_client(Value::new(5), &mut o); // not anchored yet: pending
        o.drain();
        let _ = anchor_p1(&mut p, &mut o); // drains start/timer again is fine
                                           // anchor_p1 drained the outbox; the assignment happened inside it.
                                           // Re-check state: slot 0 proposed with the pending command.
        assert_eq!(p.shard.proposals.get(&0), Some(&one(5)));
    }

    #[test]
    fn acceptor_votes_and_broadcasts_2b() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_message(
            ProcessId::new(1),
            &MultiMsg::M2a {
                mbal: Ballot::new(4),
                slot: 3,
                batch: one(7),
            },
            &mut o,
        );
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: MultiMsg::M2b { slot: 3, batch, .. } }
                if **batch == [Value::new(7)]
        )));
        assert_eq!(p.mbal(), Ballot::new(4), "adopted the 2a ballot");
    }

    #[test]
    fn majority_2b_chooses_entry() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        let b = Ballot::new(4);
        for from in [1u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &MultiMsg::M2b {
                    mbal: b,
                    slot: 2,
                    batch: one(7),
                },
                &mut o,
            );
        }
        assert_eq!(p.log_entry(2), Some(&one(7)));
        assert_eq!(p.log_entry(0), None);
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: MultiMsg::LogDecided { slot: 2, .. }
            }
        )));
    }

    #[test]
    fn log_decided_catchup() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::LogDecided {
                slot: 5,
                batch: one(50),
            },
            &mut o,
        );
        assert_eq!(p.log_entry(5), Some(&one(50)));
    }

    #[test]
    fn anchoring_recompletes_reported_slots() {
        let mut p = spawn(3, 1);
        let mut o = out();
        p.on_start(&mut o);
        p.on_timer(TIMER_SESSION, &mut o);
        o.drain();
        let b = Ballot::new(4);
        // p0 reports an old vote in slot 7.
        p.on_message(
            ProcessId::new(0),
            &MultiMsg::M1b {
                mbal: b,
                report: VoteReport {
                    votes: vec![SlotVote {
                        slot: 7,
                        vote: BatchVote {
                            bal: Ballot::new(1),
                            batch: one(70),
                        },
                    }],
                    ..VoteReport::default()
                },
            },
            &mut o,
        );
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::M1b {
                mbal: b,
                report: VoteReport::default(),
            },
            &mut o,
        );
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: MultiMsg::M2a { slot: 7, batch, .. } }
                if **batch == [Value::new(70)]
        )));
        // Fresh slots start after the highest re-completed one.
        p.on_client(Value::new(1), &mut o);
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Broadcast {
                msg: MultiMsg::M2a { slot: 8, .. }
            }
        )));
    }

    #[test]
    fn adoption_unanchors() {
        let mut p = spawn(3, 1);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        assert!(p.is_anchored());
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::M1a {
                mbal: Ballot::new(8), // session 2, owner p2
                prefix: 0,
            },
            &mut o,
        );
        o.drain();
        assert!(!p.is_anchored());
        assert_eq!(p.mbal(), Ballot::new(8));
    }

    #[test]
    fn epsilon_reproposes_undecided_slots() {
        let mut p = spawn(3, 1);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        p.on_client(Value::new(77), &mut o);
        o.drain();
        let later = LocalInstant::ZERO + cfg(3).epsilon_timer_local() * 4;
        let mut o2 = Outbox::new(later);
        p.on_timer(TIMER_EPSILON, &mut o2);
        assert!(o2.drain().iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: MultiMsg::M2a { slot: 0, batch, .. } }
                if **batch == [Value::new(77)]
        )));
    }

    #[test]
    fn decision_is_slot_zero() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        assert_eq!(p.decision(), None);
        for from in [1u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &MultiMsg::M2b {
                    mbal: Ballot::new(4),
                    slot: 0,
                    batch: one(7),
                },
                &mut o,
            );
        }
        assert_eq!(p.decision(), Some(Value::new(7)));
    }

    #[test]
    fn leader_traffic_suppresses_follower_takeover() {
        let mut p = spawn(3, 2);
        let mut o = out();
        p.on_start(&mut o);
        // Adopt leader p1's ballot 4 (session 1).
        p.on_message(
            ProcessId::new(1),
            &MultiMsg::M1a {
                mbal: Ballot::new(4),
                prefix: 0,
            },
            &mut o,
        );
        o.drain();
        // The session timer expires…
        p.on_timer(TIMER_SESSION, &mut o);
        // …but condition (ii) is unmet (only p1 heard), so no takeover yet.
        assert_eq!(p.session(), Session::new(1));
        o.drain();
        // Fresh leader traffic resets the timer (suppression): the timer
        // expiry flag is cleared again.
        p.on_message(
            ProcessId::new(1),
            &MultiMsg::M2a {
                mbal: Ballot::new(4),
                slot: 0,
                batch: one(9),
            },
            &mut o,
        );
        let acts = o.drain();
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_SESSION)),
            "leader liveness re-arms the follower's session timer"
        );
        // Even after hearing a majority in session 1, the cleared expiry
        // flag blocks an immediate takeover.
        p.on_message(
            ProcessId::new(0),
            &MultiMsg::M1a {
                mbal: Ballot::new(4),
                prefix: 0,
            },
            &mut o,
        );
        assert_eq!(
            p.session(),
            Session::new(1),
            "no takeover while leader lives"
        );
    }

    #[test]
    fn anchored_leader_does_not_restart_phase1() {
        let mut p = spawn(3, 1);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        assert!(p.is_anchored());
        let before = p.mbal();
        p.on_timer(TIMER_SESSION, &mut o);
        assert_eq!(p.mbal(), before, "anchored leaders keep their ballot");
        assert!(p.is_anchored());
    }

    #[test]
    fn session_gating_applies_to_multi() {
        let mut p = spawn(5, 1);
        let mut o = out();
        p.on_start(&mut o);
        p.on_timer(TIMER_SESSION, &mut o); // session 0 -> 1 (exempt)
        o.drain();
        assert_eq!(p.session(), Session::new(1));
        p.on_timer(TIMER_SESSION, &mut o);
        assert_eq!(p.session(), Session::new(1), "gated without majority");
    }

    #[test]
    fn full_window_accumulates_then_batches() {
        // W = 1, B = 3: the first command occupies the only pipeline slot;
        // the next three accumulate and leave as ONE batch when it commits.
        let mut p =
            MultiPaxos::new()
                .with_batching(3, 1)
                .spawn(ProcessId::new(1), &cfg(3), Value::new(0));
        let mut o = out();
        let b = anchor_p1(&mut p, &mut o);
        p.on_client(Value::new(10), &mut o);
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: MultiMsg::M2a { slot: 0, batch, .. } }
                if **batch == [Value::new(10)]
        )));
        for v in [11, 12, 13] {
            p.on_client(Value::new(v), &mut o);
        }
        assert!(
            !o.drain().iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    msg: MultiMsg::M2a { .. }
                }
            )),
            "window full: no new proposal"
        );
        assert_eq!(p.pending_len(), 3);
        // Slot 0 commits: the backlog flushes as one 3-command batch.
        for from in [0u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &MultiMsg::M2b {
                    mbal: b,
                    slot: 0,
                    batch: one(10),
                },
                &mut o,
            );
        }
        let acts = o.drain();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast { msg: MultiMsg::M2a { slot: 1, batch, .. } }
                if **batch == [Value::new(11), Value::new(12), Value::new(13)]
        )));
        assert_eq!(p.pending_len(), 0);
    }

    #[test]
    fn batch_commit_decides_every_command() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        let batch = batch_of([Value::new(1), Value::new(2), Value::new(3)]);
        for from in [1u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &MultiMsg::M2b {
                    mbal: Ballot::new(4),
                    slot: 0,
                    batch: batch.clone(),
                },
                &mut o,
            );
        }
        let decides: Vec<Value> = o
            .drain()
            .iter()
            .filter_map(|a| match a {
                Action::Decide { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(decides, vec![Value::new(1), Value::new(2), Value::new(3)]);
        assert_eq!(p.log_values().count(), 3);
    }

    #[test]
    fn epsilon_reforwards_pending_at_followers() {
        let mut p = spawn(3, 2);
        let mut o = out();
        p.on_start(&mut o);
        // Adopt leader p1's ballot 4, then submit: pending + one Forward.
        p.on_message(
            ProcessId::new(1),
            &MultiMsg::M1a {
                mbal: Ballot::new(4),
                prefix: 0,
            },
            &mut o,
        );
        p.on_client(Value::new(9), &mut o);
        o.drain();
        // An idle ε tick retries the forward toward the presumed leader.
        let later = LocalInstant::ZERO + cfg(3).epsilon_timer_local() * 4;
        let mut o2 = Outbox::new(later);
        p.on_timer(TIMER_EPSILON, &mut o2);
        assert!(o2.drain().iter().any(|a| matches!(
            a,
            Action::Send { to, msg: MultiMsg::Forward { value } }
                if *to == ProcessId::new(1) && *value == Value::new(9)
        )));
        // Once the command commits, the retry stops.
        for from in [0u32, 1] {
            p.on_message(
                ProcessId::new(from),
                &MultiMsg::M2b {
                    mbal: Ballot::new(4),
                    slot: 0,
                    batch: one(9),
                },
                &mut o,
            );
        }
        assert_eq!(p.pending_len(), 0, "commit prunes the held command");
        let mut o3 = Outbox::new(later + cfg(3).epsilon_timer_local() * 4);
        p.on_timer(TIMER_EPSILON, &mut o3);
        assert!(
            !o3.drain().iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: MultiMsg::Forward { .. },
                    ..
                }
            )),
            "no retry after commit"
        );
    }

    #[test]
    fn duplicate_forwards_are_admitted_once() {
        // W = 1 keeps the pipeline full, so retried forwards would pile up
        // in `pending` without admission dedup.
        let mut p =
            MultiPaxos::new()
                .with_batching(1, 1)
                .spawn(ProcessId::new(1), &cfg(3), Value::new(0));
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        p.on_client(Value::new(5), &mut o); // occupies the window
        for _ in 0..4 {
            p.on_message(
                ProcessId::new(2),
                &MultiMsg::Forward {
                    value: Value::new(6),
                },
                &mut o,
            );
        }
        o.drain();
        assert_eq!(p.pending_len(), 1, "retries of value 6 admitted once");
    }

    #[test]
    fn forward_of_chosen_command_is_answered_with_log_decided() {
        // A submitter whose decision broadcasts were all lost keeps
        // retrying its Forward; the leader must answer with the chosen
        // entry (not silently dedup) so the retry loop terminates.
        let mut p = spawn(3, 1);
        let mut o = out();
        let b = anchor_p1(&mut p, &mut o);
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::Forward {
                value: Value::new(9),
            },
            &mut o,
        );
        o.drain();
        // Slot 0 commits at the leader.
        for from in [0u32, 2] {
            p.on_message(
                ProcessId::new(from),
                &MultiMsg::M2b {
                    mbal: b,
                    slot: 0,
                    batch: one(9),
                },
                &mut o,
            );
        }
        o.drain();
        // The submitter retries: it gets the decided entry back.
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::Forward {
                value: Value::new(9),
            },
            &mut o,
        );
        assert!(o.drain().iter().any(|a| matches!(
            a,
            Action::Send { to, msg: MultiMsg::LogDecided { slot: 0, batch } }
                if *to == ProcessId::new(2) && **batch == [Value::new(9)]
        )));
    }

    #[test]
    fn next_slot_skips_slots_chosen_by_unseen_leaders() {
        // A `LogDecided` for a slot at/above our next_slot (from a
        // higher-ballot leader whose other traffic we lost) must push
        // next_slot forward; proposing into a chosen slot would strand
        // the batch (acceptors are past our ballot, and no retry path
        // covers a slot that is already in the log).
        let mut p = spawn(3, 1);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::LogDecided {
                slot: 0,
                batch: one(50),
            },
            &mut o,
        );
        o.drain();
        p.on_client(Value::new(7), &mut o);
        assert!(
            o.drain().iter().any(|a| matches!(
                a,
                Action::Broadcast { msg: MultiMsg::M2a { slot: 1, batch, .. } }
                    if **batch == [Value::new(7)]
            )),
            "fresh proposal lands past the learned entry, not on slot 0"
        );
    }

    #[test]
    fn losing_a_slot_to_a_competing_batch_requeues_our_commands() {
        let mut p = spawn(3, 1);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        p.on_client(Value::new(7), &mut o); // proposed in slot 0
        o.drain();
        // A competing leader's different batch wins slot 0.
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::LogDecided {
                slot: 0,
                batch: one(50),
            },
            &mut o,
        );
        // Our command is immediately re-proposed in a fresh slot.
        assert!(
            o.drain().iter().any(|a| matches!(
                a,
                Action::Broadcast { msg: MultiMsg::M2a { slot: 1, batch, .. } }
                    if **batch == [Value::new(7)]
            )),
            "losing batch re-proposed past the stolen slot"
        );
    }

    #[test]
    fn unanchoring_skips_commands_committed_in_other_slots() {
        let mut p = spawn(3, 1);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        p.on_client(Value::new(7), &mut o); // proposed in slot 0, unchosen
        o.drain();
        // The same command commits elsewhere (slot 5) via another leader.
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::LogDecided {
                slot: 5,
                batch: one(7),
            },
            &mut o,
        );
        o.drain();
        // Unanchoring must NOT requeue it: it is committed, and a requeue
        // would re-forward it every ε forever (commits never prune it
        // again).
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::M1a {
                mbal: Ballot::new(8),
                prefix: 0,
            },
            &mut o,
        );
        o.drain();
        assert!(!p.is_anchored());
        assert_eq!(p.pending_len(), 0, "committed command not requeued");
    }

    #[test]
    fn unanchoring_requeues_unchosen_proposals() {
        let mut p = spawn(3, 1);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        p.on_client(Value::new(42), &mut o); // proposed in slot 0, unchosen
        o.drain();
        assert_eq!(p.pending_len(), 0);
        // A higher ballot takes over: the command must fall back to
        // pending, not vanish.
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::M1a {
                mbal: Ballot::new(8),
                prefix: 0,
            },
            &mut o,
        );
        o.drain();
        assert!(!p.is_anchored());
        assert_eq!(p.pending_len(), 1, "unchosen proposal requeued");
    }

    /// The report `p` sends in reply to a 1a for `mbal` from `from`.
    fn reply_to_1a(p: &mut MultiPaxosProcess, from: u32, mbal: Ballot) -> VoteReport {
        let mut o = out();
        p.on_message(
            ProcessId::new(from),
            &MultiMsg::M1a { mbal, prefix: 0 },
            &mut o,
        );
        let mut reports = o.drain().into_iter().filter_map(|a| match a {
            Action::Send {
                to,
                msg: MultiMsg::M1b { mbal: b, report },
            } => {
                assert_eq!(
                    (to, b),
                    (mbal.owner(3), mbal),
                    "1b goes to the ballot owner"
                );
                Some(report)
            }
            _ => None,
        });
        let report = reports.next().expect("every 1a for our ballot is answered");
        assert!(reports.next().is_none());
        report
    }

    fn vote_2a(p: &mut MultiPaxosProcess, from: u32, mbal: Ballot, slot: u64, v: u64) {
        let mut o = out();
        p.on_message(
            ProcessId::new(from),
            &MultiMsg::M2a {
                mbal,
                slot,
                batch: one(v),
            },
            &mut o,
        );
    }

    #[test]
    fn m1b_is_full_until_the_ballot_reaches_phase2_then_payload_free() {
        let mut p = spawn(3, 0);
        p.on_start(&mut out());
        vote_2a(&mut p, 1, Ballot::new(1), 0, 10);
        // Ballot 4 opens: nothing proves its phase 1 is over, so the old
        // vote travels — on every re-announcement.
        let b4 = Ballot::new(4);
        for _ in 0..2 {
            let r = reply_to_1a(&mut p, 1, b4);
            assert_eq!(r.votes.iter().map(|v| v.slot).collect::<Vec<_>>(), vec![0]);
        }
        // Its first 2a proves the owner consumed its quorum.
        vote_2a(&mut p, 1, b4, 1, 11);
        let r = reply_to_1a(&mut p, 1, b4);
        assert_eq!(
            r,
            VoteReport::default(),
            "phase 2 seen: acknowledgement only"
        );
        // Log decisions move the reported prefix, nothing else.
        p.on_message(
            ProcessId::new(1),
            &MultiMsg::LogDecided {
                slot: 0,
                batch: one(10),
            },
            &mut out(),
        );
        let r = reply_to_1a(&mut p, 1, b4);
        assert_eq!((r.prefix, r.chosen.len(), r.votes.len()), (1, 0, 0));
        // A higher ballot is a new election: full reports again (the
        // chosen entry the caller lacks, and the live vote) …
        let b8 = Ballot::new(8);
        let r = reply_to_1a(&mut p, 2, b8);
        assert_eq!(r.chosen, vec![(0, one(10))]);
        assert_eq!(
            r.votes
                .iter()
                .map(|v| (v.slot, v.vote.bal))
                .collect::<Vec<_>>(),
            vec![(1, b4)]
        );
        // … until that ballot's own first 2a.
        vote_2a(&mut p, 2, b8, 1, 11);
        assert!(reply_to_1a(&mut p, 2, b8).votes.is_empty());
    }

    #[test]
    fn anchored_owner_elides_its_self_addressed_1b() {
        let mut p = spawn(3, 1);
        let mut o = out();
        vote_2a(&mut p, 1, Ballot::new(1), 0, 10); // a vote it would report
        let b = anchor_p1(&mut p, &mut o);
        assert!(
            p.phase2_seen(b),
            "anchored at b, though its last 2a vote was at ballot 1"
        );
        assert_eq!(reply_to_1a(&mut p, 1, b), VoteReport::default());
        assert_eq!(
            p.vote_report(0).votes.len(),
            1,
            "the full report is still there"
        );
    }

    /// Trace + action order of the two events whose order is the plain
    /// host's own (see the comments in `anchor` and `adopt`).
    #[test]
    fn order_of_anchoring_a_reported_chosen_entry_and_of_adopt_while_anchored() {
        let mut p = spawn(3, 1);
        let mut o = out();
        o.set_tracing(true);
        p.on_start(&mut o);
        p.on_timer(TIMER_SESSION, &mut o); // ballot 4
        o.drain();
        o.drain_trace();
        let b = Ballot::new(4);
        let reported = VoteReport {
            prefix: 1,
            chosen: vec![(0, one(5))],
            votes: vec![],
        };
        p.on_message(
            ProcessId::new(0),
            &MultiMsg::M1b {
                mbal: b,
                report: reported,
            },
            &mut o,
        );
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::M1b {
                mbal: b,
                report: VoteReport::default(),
            },
            &mut o,
        );
        assert_eq!(
            o.drain_trace().collect::<Vec<_>>(),
            vec![
                TraceEvent::PromiseQuorum { ballot: 4 },
                TraceEvent::Decided {
                    shard: 0,
                    slot: 0,
                    value: 5
                },
                TraceEvent::Anchored { ballot: 4 },
            ],
            "the reported-chosen entry is learned before Anchored is stamped"
        );
        assert_eq!(
            o.drain(),
            vec![
                Action::Decide {
                    value: Value::new(5),
                    shard: crate::types::ShardId::ZERO
                },
                Action::Broadcast {
                    msg: MultiMsg::LogDecided {
                        slot: 0,
                        batch: one(5)
                    }
                },
            ]
        );
        // Adopt while anchored, one proposal in flight.
        p.on_client(Value::new(7), &mut o);
        o.drain();
        o.drain_trace();
        let b8 = Ballot::new(8);
        p.on_message(
            ProcessId::new(2),
            &MultiMsg::M1a {
                mbal: b8,
                prefix: 0,
            },
            &mut o,
        );
        assert_eq!(
            o.drain_trace().collect::<Vec<_>>(),
            vec![
                TraceEvent::Unanchored { ballot: 4 },
                TraceEvent::OneASent { ballot: 8 }
            ]
        );
        let acts = o.drain();
        assert_eq!(acts.len(), 4, "{acts:?}");
        assert!(matches!(&acts[0], Action::SetTimer { id, .. } if *id == TIMER_SESSION));
        assert_eq!(
            acts[1],
            Action::Broadcast {
                msg: MultiMsg::M1a {
                    mbal: b8,
                    prefix: 1
                }
            }
        );
        assert!(matches!(
            &acts[2],
            Action::Send { to, msg: MultiMsg::M1b { mbal, .. } } if *to == ProcessId::new(2) && *mbal == b8
        ));
        assert!(
            matches!(&acts[3], Action::SetTimer { id, .. } if *id == TIMER_SESSION),
            "the 1a came from the new ballot's owner: leader traffic re-arms the timer last"
        );
        assert_eq!(
            p.pending_len(),
            1,
            "the in-flight command fell back to pending"
        );
    }

    #[test]
    fn default_batching_is_one_command_per_slot() {
        let f = MultiPaxos::new();
        assert_eq!(f.max_batch(), 1);
        assert_eq!(f.max_outstanding(), usize::MAX);
    }

    #[test]
    #[should_panic(expected = "at least one command")]
    fn zero_batch_rejected() {
        let _ = MultiPaxos::new().with_batching(0, 1);
    }

    // ---- the shard's view of its host's outbox ----

    use crate::paxos::group::GroupMsg;
    use crate::types::kv_command;

    /// One send, decide, trace event and broadcast through a view of
    /// shard 2: the host outbox's actions and trace events.
    fn through_view<M: ShardWire>(v: Value) -> (Vec<Action<M>>, Vec<TraceEvent>) {
        let mut o: Outbox<M> = Outbox::new(LocalInstant::ZERO);
        o.set_tracing(true);
        let mut view = ShardOut::new(&mut o, ShardId::new(2), false);
        view.send(ProcessId::new(1), MultiMsg::Forward { value: v });
        view.decide(v);
        view.trace(|shard| TraceEvent::Chosen { shard, slot: 7 });
        let batch = batch_of([v]);
        view.broadcast(MultiMsg::LogDecided { slot: 7, batch });
        let trace = o.drain_trace().collect();
        (o.drain(), trace)
    }

    #[test]
    fn view_writes_through_in_emission_order_tagged_for_either_wire() {
        let v = Value::new(5);
        let shard = ShardId::new(2);
        let forward = MultiMsg::Forward { value: v };
        let decided = MultiMsg::LogDecided {
            slot: 7,
            batch: one(5),
        };
        let to = ProcessId::new(1);
        let (plain, plain_trace) = through_view::<MultiMsg>(v);
        assert_eq!(
            plain,
            vec![
                Action::Send {
                    to,
                    msg: forward.clone()
                },
                Action::Decide { value: v, shard },
                Action::Broadcast {
                    msg: decided.clone()
                },
            ]
        );
        assert_eq!(plain_trace, [TraceEvent::Chosen { shard: 2, slot: 7 }]);
        let (grouped, grouped_trace) = through_view::<GroupMsg>(v);
        let tagged = |msg| GroupMsg::Shard { shard, msg };
        assert_eq!(
            grouped,
            vec![
                Action::Send {
                    to,
                    msg: tagged(forward)
                },
                Action::Decide { value: v, shard },
                Action::Broadcast {
                    msg: tagged(decided)
                },
            ]
        );
        assert_eq!(grouped_trace, plain_trace);
    }

    #[test]
    fn only_a_2a_broadcast_sets_sent_2a() {
        let mut o = out();
        let mut view = ShardOut::new(&mut o, ShardId::ZERO, false);
        let (mbal, slot, batch) = (Ballot::new(4), 0, one(1));
        view.send(ProcessId::new(1), MultiMsg::Forward { value: batch[0] });
        view.decide(batch[0]);
        view.broadcast(MultiMsg::M2b {
            mbal,
            slot,
            batch: batch.clone(),
        });
        view.broadcast(MultiMsg::LogDecided {
            slot,
            batch: batch.clone(),
        });
        assert!(!view.sent_2a, "no 2a so far");
        view.broadcast(MultiMsg::M2a { mbal, slot, batch });
        assert!(view.sent_2a);
    }

    #[test]
    fn control_values_are_hidden_only_when_asked() {
        let ctrl = kv_command(crate::paxos::group::rebalance::CTRL_KEY, 1);
        let client = Value::new(5);
        assert!(is_ctrl_value(ctrl) && !is_ctrl_value(client));
        let shard = ShardId::new(1);
        let decide = |value| Action::Decide { value, shard };
        for (hide_ctrl, surfaced) in [
            (false, vec![decide(ctrl), decide(client)]),
            (true, vec![decide(client)]),
        ] {
            let mut o = out();
            let mut view = ShardOut::new(&mut o, shard, hide_ctrl);
            view.decide(ctrl);
            view.decide(client);
            assert_eq!(o.drain(), surfaced, "hide_ctrl = {hide_ctrl}");
        }
    }
}
