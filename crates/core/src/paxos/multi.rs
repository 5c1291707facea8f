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
//! the session and its phase-1 wire are the log group's, and the plain
//! log [`MultiPaxos`] is that group with one shard: it spawns a
//! [`LogGroupProcess`] and speaks [`GroupMsg`].
//!
//! Two throughput mechanisms sit on top of the paper's construction:
//!
//! * **Chunked, index-addressed log state**: the per-slot tables (acceptor
//!   votes, chosen entries, 2b counters) live in [`SlotMap`]s — O(1) slot
//!   addressing with a cache-resident hot tail, instead of a `BTreeMap`
//!   descent and rebalance per commit. Votes and 2b tallies are dead once
//!   their slot is chosen, so their maps keep only a trailing window below
//!   the all-chosen prefix (see [`LogShard`]'s 2a/2b rule); the chosen log
//!   keeps every entry. A slot's 2b tally holds its first
//!   ballot inline, so the one-ballot common case allocates nothing per
//!   slot; later ballots spill into a `Vec`. The admitted-command dedup
//!   set is hashed (see [`AdmittedSet`]). Bounded working sets whose
//!   iteration order the protocol reads — the live proposal pipeline
//!   (re-proposed and requeued in slot order) and a phase-1b quorum's
//!   reported votes and chosen entries (folded per election) — stay in
//!   `BTreeMap`s.
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

use crate::ballot::Ballot;
use crate::config::TimingConfig;
use crate::outbox::{Outbox, Protocol, ShardLoad};
use crate::paxos::admitted::{Admitted, AdmittedSet, DEFAULT_ADMITTED_WINDOW};
use crate::paxos::group::rebalance::is_ctrl_value;
use crate::paxos::group::{GroupMsg, LogGroup, LogGroupProcess};
use crate::paxos::slotlog::SlotMap;
use crate::quorum::QuorumTracker;
use crate::trace::TraceEvent;
use crate::types::{ProcessId, ShardId, TimerId, Value};
use std::fmt;
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

/// One log's wire messages below phase 1 — the payload of
/// [`GroupMsg::Shard`]. Phase 1 is the session's, one
/// [`GroupMsg::G1a`]/[`GroupMsg::G1b`] exchange for every shard.
#[derive(Debug, Clone, PartialEq)]
pub enum MultiMsg {
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
            MultiMsg::M2a { mbal, .. } | MultiMsg::M2b { mbal, .. } => Some(*mbal),
            MultiMsg::Forward { .. } | MultiMsg::LogDecided { .. } => None,
        }
    }

    /// A short static label for message-count metrics.
    pub fn kind(&self) -> &'static str {
        match self {
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
/// rather than as votes. Built by [`LogShard::vote_report`]; one per
/// shard is the payload of a
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
/// anchoring a shard consumes. The session's election keeps one per
/// shard and folds each [`GroupPromise`](crate::paxos::group::GroupPromise)
/// into them shard by shard.
///
/// `best`/`chosen` stay `BTreeMap`s: this is a short-lived per-election
/// structure sized by the *reported* votes, rebuilt on every ballot
/// attempt — a `SlotMap` allocates a 64-slot chunk per slot range touched,
/// which would cost more than it saves on exactly the unstable-period
/// election-churn path.
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

/// How far below the all-chosen prefix a [`LogShard`] keeps its votes and
/// 2b tallies. A chosen slot's 2b quorum may still complete after the
/// slot was learned by `LogDecided`; the window keeps those late quorums
/// (each a `Chosen` event) for slots at most this far behind.
const TRAILING_WINDOW: u64 = 1024;

/// One ballot's 2b tally in a slot: the ballot, the processes counted,
/// and the batch they voted for.
type Tally = (Ballot, QuorumTracker, Batch);

/// 2b counts for one slot, per ballot. The first ballot's tally is held
/// inline, so the common case (one live ballot per slot) costs no heap
/// block; a slot that sees a second ballot (a leader change mid-slot)
/// keeps the later tallies in `spill`, which stays empty otherwise.
#[derive(Clone)]
struct Slot2b {
    first: Tally,
    spill: Vec<Tally>,
}

impl Slot2b {
    fn new(n: usize, bal: Ballot, batch: &Batch) -> Self {
        Slot2b {
            first: (bal, QuorumTracker::new(n), batch.clone()),
            spill: Vec::new(),
        }
    }

    /// Records a 2b; returns the chosen batch if this crosses the
    /// majority threshold for `bal`.
    fn record(&mut self, n: usize, from: ProcessId, bal: Ballot, batch: &Batch) -> Option<Batch> {
        let entry = if self.first.0 == bal {
            &mut self.first
        } else if let Some(i) = self.spill.iter().position(|(b, ..)| *b == bal) {
            &mut self.spill[i]
        } else {
            self.spill.push((bal, QuorumTracker::new(n), batch.clone()));
            self.spill.last_mut().expect("just pushed")
        };
        debug_assert_eq!(&entry.2, batch, "one batch per (slot, ballot)");
        let before = entry.1.reached();
        entry.1.insert(from);
        (!before && entry.1.reached()).then(|| entry.2.clone())
    }
}

/// Prints `Slot2b([..])`, every tally in one list in arrival order: the
/// text state fingerprints hash is the same whether a tally is inline or
/// spilled.
impl fmt::Debug for Slot2b {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Tallies<'a>(&'a Slot2b);
        impl fmt::Debug for Tallies<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let s = self.0;
                f.debug_list()
                    .entries(std::iter::once(&s.first).chain(&s.spill))
                    .finish()
            }
        }
        f.debug_tuple("Slot2b").field(&Tallies(self)).finish()
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

/// The plain log is the log group with one shard: modulo routing over one
/// shard, no rebalancing — the same session, wire and host. Only the name
/// differs, which reports and artifacts carry.
impl Protocol for MultiPaxos {
    type Msg = GroupMsg;
    type Process = LogGroupProcess;

    fn name(&self) -> &'static str {
        "multi-session-paxos"
    }

    fn kind_of(msg: &GroupMsg) -> &'static str {
        msg.kind()
    }

    fn spawn(&self, id: ProcessId, cfg: &TimingConfig, initial: Value) -> LogGroupProcess {
        LogGroup::of_shards(self.clone(), 1).spawn(id, cfg, initial)
    }
}

/// What a [`LogShard`] writes into: the **host's** outbox, seen as shard
/// `shard` of it. Messages leave shard-tagged, decides and trace events
/// carry the shard id, counters land in the host registry — in emission
/// order, nothing buffered or copied. The view has no timer and no oracle
/// method: that shards own neither is held by the type.
pub(crate) struct ShardOut<'a> {
    out: &'a mut Outbox<GroupMsg>,
    shard: ShardId,
    /// Whether control values (router-epoch entries, possible only under
    /// a rebalancing host) are withheld from the decide stream: they
    /// commit like any entry but are never surfaced as client commands.
    hide_ctrl: bool,
    /// Whether a 2a was broadcast through this view — leader traffic, so
    /// the host stamps its session's ε idle clock after the step.
    pub(crate) sent_2a: bool,
}

impl<'a> ShardOut<'a> {
    pub(crate) fn new(out: &'a mut Outbox<GroupMsg>, shard: ShardId, hide_ctrl: bool) -> Self {
        ShardOut {
            out,
            shard,
            hide_ctrl,
            sent_2a: false,
        }
    }

    fn send(&mut self, to: ProcessId, msg: MultiMsg) {
        self.out.send(
            to,
            GroupMsg::Shard {
                shard: self.shard,
                msg,
            },
        );
    }

    fn broadcast(&mut self, msg: MultiMsg) {
        self.sent_2a |= matches!(msg, MultiMsg::M2a { .. });
        self.out.broadcast(GroupMsg::Shard {
            shard: self.shard,
            msg,
        });
    }

    fn decide(&mut self, value: Value) {
        if !(self.hide_ctrl && is_ctrl_value(value)) {
            self.out.decide_in_shard(self.shard, value);
        }
    }

    /// Reports the event `ev` builds for this view's shard id.
    #[inline]
    fn event(&mut self, ev: impl FnOnce(u32) -> TraceEvent) {
        self.out.event(ev(self.shard.get()));
    }
}

/// One replicated log **below phase 1**: acceptor votes, the chosen log,
/// 2b tallies, the proposal pipeline with batching, admission dedup and
/// load counters. It owns no ballot, no timer and no quorum, and never
/// sends a 1a or 1b — the §4 session is its host's (a [`LogGroupProcess`]
/// hosts `S` shards, the plain log one), which tells it when phase 1
/// completed (`anchor`) and when that is void again (`unanchor`).
#[derive(Debug, Clone)]
pub struct LogShard {
    n: usize,
    /// Per-slot acceptor votes, for the slots at or above the watermark
    /// (see [`Self::watermark`]): a vote below it is superseded by the
    /// chosen entry.
    accepted: SlotMap<BatchVote>,
    /// Chosen entries, every one since slot 0.
    log: SlotMap<Batch>,
    /// 2b counts per slot (per ballot within the slot), for the slots at
    /// or above the watermark.
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
    /// admitted-set compaction uses).
    pub fn chosen_prefix(&self) -> u64 {
        self.chosen_prefix
    }

    /// The slot below which this shard keeps no vote and no 2b tally: the
    /// all-chosen prefix minus [`TRAILING_WINDOW`]. Every slot below it is
    /// chosen here.
    fn watermark(&self) -> u64 {
        self.chosen_prefix.saturating_sub(TRAILING_WINDOW)
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

    fn propose(&mut self, slot: u64, batch: Batch, out: &mut ShardOut<'_>) {
        let mbal = self.anchored.expect("only an anchored shard proposes");
        debug_assert!(!self.log.contains(slot), "never propose into a chosen slot");
        // Never propose two batches for the same (ballot, slot); a fresh
        // proposal occupies the pipeline until its slot commits.
        let batch = self.proposals.entry(slot).or_insert(batch).clone();
        for v in batch.iter() {
            out.event(|shard| TraceEvent::Proposed {
                shard,
                slot,
                value: v.get(),
            });
        }
        out.broadcast(MultiMsg::M2a { mbal, slot, batch });
    }

    /// Becomes anchored at ballot `b`, whose phase 1 the host's session
    /// completed with `quorum` as this log's fold of the promises: learn
    /// the chosen entries the quorum reported, re-complete every reported
    /// live vote under `b`, then batch-assign fresh slots to pending
    /// commands.
    pub(crate) fn anchor(&mut self, b: Ballot, quorum: &ReportFold, out: &mut ShardOut<'_>) {
        // Chosen entries the quorum reported are final by agreement, so
        // they are learned directly (decides and a `LogDecided` each, like
        // any other commit; slots already logged are skipped by `choose`)
        // instead of being re-proposed. Learn them BEFORE declaring
        // ourselves anchored: `choose` flushes pending commands into fresh
        // slots when anchored, and that must not happen until `next_slot`
        // has been fixed up past everything the quorum reported.
        for (slot, batch) in &quorum.chosen {
            self.choose(*slot, batch.clone(), out);
        }
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
    /// all-chosen prefix: this shard's entry of a
    /// [group promise](crate::paxos::group::GroupPromise).
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
    pub(crate) fn repropose(&mut self, out: &mut ShardOut<'_>) {
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
    pub(crate) fn reforward(&self, leader: ProcessId, out: &mut ShardOut<'_>) {
        for v in &self.pending {
            out.event(|_| TraceEvent::ForwardSent { value: v.get() });
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
    pub(crate) fn propose_batch(&mut self, batch: Batch, out: &mut ShardOut<'_>) -> u64 {
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

    /// Queues a command the admitted set has just taken in for the first
    /// time (a value it already holds — an ε-retry duplicate, or a client
    /// resubmission of a committed command still inside the admitted
    /// window — is dropped by the caller). It is assigned a slot at once
    /// if we are anchored, else held until we anchor (the submitter keeps
    /// its own retried copy).
    fn on_admitted(&mut self, value: Value, out: &mut ShardOut<'_>) {
        self.load.admitted += 1;
        self.pending.push(value);
        out.event(|shard| TraceEvent::Admitted {
            shard,
            value: value.get(),
        });
        if self.is_anchored() {
            self.drain_pending(out);
        }
    }

    /// Moves pending commands into fresh slots, `max_batch` per slot, while
    /// the pipeline window has space.
    fn drain_pending(&mut self, out: &mut ShardOut<'_>) {
        debug_assert!(self.is_anchored());
        while !self.pending.is_empty() && self.proposals.len() < self.max_outstanding {
            let take = self.pending.len().min(self.max_batch);
            let batch: Batch = self.pending.drain(..take).collect();
            let slot = self.next_slot;
            self.next_slot += 1;
            self.propose(slot, batch, out);
        }
    }

    fn choose(&mut self, slot: u64, batch: Batch, out: &mut ShardOut<'_>) {
        if self.log.contains(slot) {
            return;
        }
        for v in batch.iter() {
            out.event(|shard| TraceEvent::Decided {
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
        // slot (amortized O(1): each slot is crossed once per run), let
        // the admitted set drop entries that fell out of its window, and
        // free the votes and tallies that fell below the watermark.
        while self.log.contains(self.chosen_prefix) {
            self.chosen_prefix += 1;
        }
        self.admitted.maybe_compact(self.chosen_prefix);
        let mark = self.watermark();
        self.accepted.forget_below(mark);
        self.decisions.forget_below(mark);
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
    pub(crate) fn submit(
        &mut self,
        value: Value,
        leader: Option<ProcessId>,
        out: &mut ShardOut<'_>,
    ) {
        self.load.submitted += 1;
        out.event(|_| TraceEvent::submit(value));
        if self.admitted.admit(value).is_some() {
            return;
        }
        self.on_admitted(value, out);
        if self.is_anchored() {
            return;
        }
        if let Some(leader) = leader {
            out.event(|_| TraceEvent::ForwardSent { value: value.get() });
            out.send(leader, MultiMsg::Forward { value });
        }
    }

    /// Handles one of the four messages below phase 1. A 2a is voted for
    /// as given: comparing its ballot with the session's (and adopting a
    /// higher one) is the host's step before this call
    /// (`LogSession::vote_2a`).
    ///
    /// **The watermark rule.** A 2a or 2b for a slot below
    /// [`Self::watermark`] (a slot chosen here more than
    /// [`TRAILING_WINDOW`] slots behind the all-chosen prefix, reaching us
    /// late, as a long pre-`TS` delay can) stores no vote and recreates no
    /// tally, so it emits no `Chosen`; the 2a still broadcasts its 2b. The
    /// chosen entry supersedes both, and a vote below the prefix is never
    /// reported (see [`Self::vote_report`]).
    pub(crate) fn on_message(&mut self, from: ProcessId, msg: &MultiMsg, out: &mut ShardOut<'_>) {
        match msg {
            MultiMsg::M2a { mbal, slot, batch } => {
                if let Some(prev) = self.accepted.get(*slot) {
                    debug_assert!(*mbal >= prev.bal, "slot votes are ballot-monotone");
                }
                if *slot >= self.watermark() {
                    let vote = BatchVote {
                        bal: *mbal,
                        batch: batch.clone(),
                    };
                    self.accepted.insert(*slot, vote);
                }
                out.broadcast(MultiMsg::M2b {
                    mbal: *mbal,
                    slot: *slot,
                    batch: batch.clone(),
                });
            }
            MultiMsg::M2b { mbal, slot, batch } => {
                if *slot < self.watermark() {
                    return;
                }
                let n = self.n;
                let chosen = self
                    .decisions
                    .get_or_insert_with(*slot, || Slot2b::new(n, *mbal, batch))
                    .record(n, from, *mbal, batch);
                if let Some(b) = chosen {
                    let s = *slot;
                    out.event(|shard| TraceEvent::Chosen { shard, slot: s });
                    self.choose(s, b, out);
                }
            }
            MultiMsg::Forward { value } => {
                self.load.submitted += 1;
                // A retry of an already-chosen command means the sender
                // missed the decision broadcasts (lost pre-TS): answer
                // with the chosen entry so its retry loop terminates.
                match self.admitted.admit(*value) {
                    Some(Admitted::Chosen(slot)) => {
                        let batch = self
                            .log
                            .get(slot)
                            .expect("chosen commands are logged")
                            .clone();
                        out.event(|shard| TraceEvent::ReplySent {
                            shard,
                            value: value.get(),
                        });
                        out.send(from, MultiMsg::LogDecided { slot, batch });
                    }
                    Some(Admitted::Unchosen) => {}
                    None => self.on_admitted(*value, out),
                }
            }
            MultiMsg::LogDecided { slot, batch } => {
                self.choose(*slot, batch.clone(), out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ballot::Session;
    use crate::outbox::{Action, Process};
    use crate::paxos::group::GroupPromise;
    use crate::time::LocalInstant;
    use crate::types::kv_command;

    const S0: ShardId = ShardId::ZERO;

    fn cfg(n: usize) -> TimingConfig {
        TimingConfig::for_n_processes(n).unwrap()
    }

    fn spawn(n: usize, id: u32) -> LogGroupProcess {
        MultiPaxos::new().spawn(ProcessId::new(id), &cfg(n), Value::new(0))
    }

    fn out() -> Outbox<GroupMsg> {
        Outbox::new(LocalInstant::ZERO)
    }

    fn one(v: u64) -> Batch {
        batch_of([Value::new(v)])
    }

    fn forward(v: u64) -> MultiMsg {
        MultiMsg::Forward {
            value: Value::new(v),
        }
    }

    /// A slot that sees 2bs at two ballots keeps the second one's tally
    /// in the spill: each ballot reaches its quorum exactly once and
    /// hands back its own batch, and `Debug` prints the ballot-ordered
    /// tally list the slot's state fingerprint has always read.
    #[test]
    fn slot_2b_tallies_spill_a_second_ballot() {
        let n = 5;
        let (low, high) = (Ballot::new(5), Ballot::new(11));
        let (a, b) = (one(1), one(2));
        let p = ProcessId::new;
        let mut slot = Slot2b::new(n, low, &a);
        assert_eq!(slot.record(n, p(0), low, &a), None);
        assert_eq!(slot.record(n, p(1), low, &a), None);
        // A new leader's ballot arrives before the old one's quorum.
        assert_eq!(slot.record(n, p(0), high, &b), None);
        assert_eq!(slot.record(n, p(1), high, &b), None);
        assert_eq!(slot.record(n, p(1), high, &b), None, "a repeat counts once");
        assert_eq!(slot.record(n, p(2), high, &b), Some(b.clone()));
        assert_eq!(slot.record(n, p(3), high, &b), None, "chosen once");
        assert_eq!(slot.record(n, p(2), low, &a), Some(a.clone()));
        assert_eq!(slot.record(n, p(4), low, &a), None, "chosen once");
        assert_eq!(slot.spill.len(), 1);

        let tally = |bal, from: &[u32], batch: &Batch| {
            let mut q = QuorumTracker::new(n);
            for &i in from {
                q.insert(p(i));
            }
            (bal, q, batch.clone())
        };
        let old = old_layout::Slot2b(vec![
            tally(low, &[0, 1, 2, 4], &a),
            tally(high, &[0, 1, 2, 3], &b),
        ]);
        assert_eq!(format!("{slot:?}"), format!("{old:?}"));
        assert_eq!(format!("{slot:#?}"), format!("{old:#?}"));
    }

    /// The layout `Slot2b` had before its first tally moved inline: the
    /// reference for its `Debug` text.
    mod old_layout {
        #[derive(Debug)]
        #[allow(dead_code)] // the field is read through `Debug` only
        pub(super) struct Slot2b(pub(super) Vec<super::Tally>);
    }

    fn decided(slot: u64, batch: Batch) -> MultiMsg {
        MultiMsg::LogDecided { slot, batch }
    }

    /// `msg` on the plain log's wire: tagged for its one shard.
    fn wire(msg: MultiMsg) -> GroupMsg {
        GroupMsg::Shard { shard: S0, msg }
    }

    /// A 1a for ballot `mbal` from a caller with nothing chosen.
    fn g1a(mbal: u64) -> GroupMsg {
        GroupMsg::G1a {
            mbal: Ballot::new(mbal),
            prefixes: vec![0],
        }
    }

    /// The shard messages among `acts`: `(None, msg)` for a broadcast,
    /// `(Some(to), msg)` for a send.
    fn shard_msgs(acts: &[Action<GroupMsg>]) -> Vec<(Option<ProcessId>, &MultiMsg)> {
        acts.iter()
            .filter_map(|a| match a {
                Action::Broadcast {
                    msg: GroupMsg::Shard { msg, .. },
                } => Some((None, msg)),
                Action::Send {
                    to,
                    msg: GroupMsg::Shard { msg, .. },
                } => Some((Some(*to), msg)),
                _ => None,
            })
            .collect()
    }

    /// The batch of the 2a broadcast for `slot` among `acts`, if any.
    fn proposed(acts: &[Action<GroupMsg>], slot: u64) -> Option<Batch> {
        shard_msgs(acts)
            .into_iter()
            .find_map(|(to, msg)| match msg {
                MultiMsg::M2a { slot: s, batch, .. } if to.is_none() && *s == slot => {
                    Some(batch.clone())
                }
                _ => None,
            })
    }

    /// Drives p (id 1 of 3) to anchored state on ballot 4.
    fn anchor_p1(p: &mut LogGroupProcess, o: &mut Outbox<GroupMsg>) -> Ballot {
        p.on_start(o);
        p.on_timer(TIMER_SESSION, o); // session 1, ballot 4, owns it
        o.drain();
        let b = Ballot::new(4);
        for from in [0u32, 2] {
            let promise = GroupPromise {
                shards: vec![VoteReport::default()],
            };
            p.on_message(ProcessId::new(from), &GroupMsg::G1b { mbal: b, promise }, o);
        }
        o.drain();
        b
    }

    /// Feeds `p` the 2bs of `voters` for `batch` in `slot` at `mbal`.
    fn votes_2b(
        p: &mut LogGroupProcess,
        voters: [u32; 2],
        mbal: Ballot,
        slot: u64,
        batch: &Batch,
        o: &mut Outbox<GroupMsg>,
    ) {
        for from in voters {
            let batch = batch.clone();
            let m2b = MultiMsg::M2b { mbal, slot, batch };
            p.on_message(ProcessId::new(from), &wire(m2b), o);
        }
    }

    /// The watermark rule: once the prefix is past 1 100 slots, a stale
    /// 2a and a quorum of stale 2bs for a slot below the watermark (a
    /// long pre-`TS` delay delivering them late) store no vote, recreate
    /// no tally and emit no `Chosen`; the 2a is still answered with its
    /// 2b. A slot inside the trailing window still tallies.
    #[test]
    fn votes_and_tallies_below_the_watermark_are_not_stored() {
        let mut p = spawn(3, 0);
        let mut o = out();
        o.set_tracing(true);
        p.on_start(&mut o);
        let mbal = Ballot::new(4);
        for slot in 0..1100 {
            let batch = one(slot);
            let m2a = MultiMsg::M2a {
                mbal,
                slot,
                batch: batch.clone(),
            };
            p.on_message(ProcessId::new(1), &wire(m2a), &mut o);
            votes_2b(&mut p, [1, 2], mbal, slot, &batch, &mut o);
            o.drain();
            o.drain_trace().for_each(drop);
        }
        let shard = p.shard(S0);
        assert_eq!(shard.chosen_prefix(), 1100);
        assert_eq!(shard.watermark(), 1100 - TRAILING_WINDOW);
        let window = TRAILING_WINDOW as usize;
        assert_eq!(
            (shard.accepted.len(), shard.decisions.len()),
            (window, window)
        );

        let (stale, batch) = (10, one(10));
        assert!(stale < shard.watermark());
        let m2a = MultiMsg::M2a {
            mbal,
            slot: stale,
            batch: batch.clone(),
        };
        p.on_message(ProcessId::new(1), &wire(m2a), &mut o);
        votes_2b(&mut p, [1, 2], mbal, stale, &batch, &mut o);
        let m2b = MultiMsg::M2b {
            mbal,
            slot: stale,
            batch,
        };
        assert!(
            shard_msgs(&o.drain()).contains(&(None, &m2b)),
            "the stale 2a is still answered"
        );
        let chosen = |o: &mut Outbox<GroupMsg>| {
            o.drain_trace()
                .filter(|ev| matches!(ev, TraceEvent::Chosen { .. }))
                .count()
        };
        assert_eq!(chosen(&mut o), 0, "no late quorum is counted");
        let shard = p.shard(S0);
        assert_eq!(shard.accepted.get(stale), None, "no vote stored");
        assert_eq!(shard.decisions.get(stale).map(|_| ()), None, "no tally");
        assert_eq!(
            (shard.accepted.len(), shard.decisions.len()),
            (window, window)
        );

        // Inside the window a late quorum (a re-proposal at a higher
        // ballot) still completes its tally.
        let late = 1100 - TRAILING_WINDOW + 1;
        votes_2b(&mut p, [0, 1], Ballot::new(8), late, &one(late), &mut o);
        assert_eq!(chosen(&mut o), 1);
    }

    #[test]
    fn client_command_proposed_when_anchored() {
        let mut p = spawn(3, 1);
        let mut o = out();
        let b = anchor_p1(&mut p, &mut o);
        p.on_client(Value::new(77), &mut o);
        let m2a = MultiMsg::M2a {
            mbal: b,
            slot: 0,
            batch: one(77),
        };
        assert!(shard_msgs(&o.drain()).contains(&(None, &m2a)));
        p.on_client(Value::new(78), &mut o);
        assert_eq!(proposed(&o.drain(), 1), Some(one(78)));
    }

    #[test]
    fn client_command_forwarded_when_not_leader() {
        let mut p = spawn(3, 2);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        // p2's initial ballot is 2, owned by itself; adopt p1's ballot 4.
        p.on_message(ProcessId::new(1), &g1a(4), &mut o);
        o.drain();
        p.on_client(Value::new(9), &mut o);
        let to_leader = (Some(ProcessId::new(1)), &forward(9));
        assert!(shard_msgs(&o.drain()).contains(&to_leader));
    }

    #[test]
    fn forwarded_command_assigned_by_anchored_leader() {
        let mut p = spawn(3, 1);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        p.on_message(ProcessId::new(2), &wire(forward(9)), &mut o);
        assert_eq!(proposed(&o.drain(), 0), Some(one(9)));
    }

    #[test]
    fn pending_commands_assigned_on_anchoring() {
        let mut p = spawn(3, 1);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_client(Value::new(5), &mut o); // not anchored yet: pending
        o.drain();
        // The assignment happens inside the anchoring step.
        anchor_p1(&mut p, &mut o);
        assert_eq!(p.shard(S0).proposals.get(&0), Some(&one(5)));
    }

    #[test]
    fn acceptor_votes_and_broadcasts_2b() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        let (mbal, slot) = (Ballot::new(4), 3);
        let m2a = MultiMsg::M2a {
            mbal,
            slot,
            batch: one(7),
        };
        p.on_message(ProcessId::new(1), &wire(m2a), &mut o);
        let m2b = MultiMsg::M2b {
            mbal,
            slot,
            batch: one(7),
        };
        assert!(shard_msgs(&o.drain()).contains(&(None, &m2b)));
        assert_eq!(p.mbal(), mbal, "adopted the 2a ballot");
    }

    #[test]
    fn majority_2b_chooses_entry() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        votes_2b(&mut p, [1, 2], Ballot::new(4), 2, &one(7), &mut o);
        assert_eq!(p.shard(S0).log_entry(2), Some(&one(7)));
        assert_eq!(p.shard(S0).log_entry(0), None);
        assert!(shard_msgs(&o.drain()).contains(&(None, &decided(2, one(7)))));
    }

    #[test]
    fn log_decided_catchup() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        p.on_message(ProcessId::new(2), &wire(decided(5, one(50))), &mut o);
        assert_eq!(p.shard(S0).log_entry(5), Some(&one(50)));
    }

    #[test]
    fn decision_is_slot_zero() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        assert_eq!(p.decision(), None);
        votes_2b(&mut p, [1, 2], Ballot::new(4), 0, &one(7), &mut o);
        assert_eq!(p.decision(), Some(Value::new(7)));
    }

    #[test]
    fn leader_traffic_suppresses_follower_takeover() {
        let mut p = spawn(3, 2);
        let mut o = out();
        p.on_start(&mut o);
        // Adopt leader p1's ballot 4 (session 1).
        p.on_message(ProcessId::new(1), &g1a(4), &mut o);
        o.drain();
        // The session timer expires…
        p.on_timer(TIMER_SESSION, &mut o);
        // …but condition (ii) is unmet (only p1 heard), so no takeover yet.
        assert_eq!(p.session(), Session::new(1));
        o.drain();
        // Fresh leader traffic resets the timer (suppression): the timer
        // expiry flag is cleared again.
        let m2a = MultiMsg::M2a {
            mbal: Ballot::new(4),
            slot: 0,
            batch: one(9),
        };
        p.on_message(ProcessId::new(1), &wire(m2a), &mut o);
        let acts = o.drain();
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == TIMER_SESSION)),
            "leader liveness re-arms the follower's session timer"
        );
        // Even after hearing a majority in session 1, the cleared expiry
        // flag blocks an immediate takeover.
        p.on_message(ProcessId::new(0), &g1a(4), &mut o);
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
        assert_eq!(proposed(&o.drain(), 0), Some(one(10)));
        for v in [11, 12, 13] {
            p.on_client(Value::new(v), &mut o);
        }
        assert!(
            !shard_msgs(&o.drain())
                .iter()
                .any(|(_, m)| matches!(m, MultiMsg::M2a { .. })),
            "window full: no new proposal"
        );
        assert_eq!(p.shard(S0).pending_len(), 3);
        // Slot 0 commits: the backlog flushes as one 3-command batch.
        votes_2b(&mut p, [0, 2], b, 0, &one(10), &mut o);
        let backlog = batch_of([11, 12, 13].map(Value::new));
        assert_eq!(proposed(&o.drain(), 1), Some(backlog));
        assert_eq!(p.shard(S0).pending_len(), 0);
    }

    #[test]
    fn batch_commit_decides_every_command() {
        let mut p = spawn(3, 0);
        let mut o = out();
        p.on_start(&mut o);
        o.drain();
        let batch = batch_of([1, 2, 3].map(Value::new));
        votes_2b(&mut p, [1, 2], Ballot::new(4), 0, &batch, &mut o);
        let decides: Vec<Value> = o
            .drain()
            .iter()
            .filter_map(|a| match a {
                Action::Decide { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(decides, vec![Value::new(1), Value::new(2), Value::new(3)]);
        assert_eq!(p.shard(S0).log_values().count(), 3);
    }

    #[test]
    fn epsilon_reforwards_pending_at_followers() {
        let mut p = spawn(3, 2);
        let mut o = out();
        p.on_start(&mut o);
        // Adopt leader p1's ballot 4, then submit: pending + one Forward.
        p.on_message(ProcessId::new(1), &g1a(4), &mut o);
        p.on_client(Value::new(9), &mut o);
        o.drain();
        // An idle ε tick retries the forward toward the presumed leader.
        let later = LocalInstant::ZERO + cfg(3).epsilon_timer_local() * 4;
        let mut o2 = Outbox::new(later);
        p.on_timer(TIMER_EPSILON, &mut o2);
        let to_leader = (Some(ProcessId::new(1)), &forward(9));
        assert!(shard_msgs(&o2.drain()).contains(&to_leader));
        // Once the command commits, the retry stops.
        votes_2b(&mut p, [0, 1], Ballot::new(4), 0, &one(9), &mut o);
        assert_eq!(
            p.shard(S0).pending_len(),
            0,
            "commit prunes the held command"
        );
        let mut o3 = Outbox::new(later + cfg(3).epsilon_timer_local() * 4);
        p.on_timer(TIMER_EPSILON, &mut o3);
        assert!(
            !shard_msgs(&o3.drain())
                .iter()
                .any(|(_, m)| matches!(m, MultiMsg::Forward { .. })),
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
            p.on_message(ProcessId::new(2), &wire(forward(6)), &mut o);
        }
        o.drain();
        assert_eq!(
            p.shard(S0).pending_len(),
            1,
            "retries of value 6 admitted once"
        );
    }

    #[test]
    fn forward_of_chosen_command_is_answered_with_log_decided() {
        // A submitter whose decision broadcasts were all lost keeps
        // retrying its Forward; the leader must answer with the chosen
        // entry (not silently dedup) so the retry loop terminates.
        let mut p = spawn(3, 1);
        let mut o = out();
        let b = anchor_p1(&mut p, &mut o);
        p.on_message(ProcessId::new(2), &wire(forward(9)), &mut o);
        o.drain();
        // Slot 0 commits at the leader.
        votes_2b(&mut p, [0, 2], b, 0, &one(9), &mut o);
        o.drain();
        // The submitter retries: it gets the decided entry back.
        p.on_message(ProcessId::new(2), &wire(forward(9)), &mut o);
        let answer = (Some(ProcessId::new(2)), &decided(0, one(9)));
        assert!(shard_msgs(&o.drain()).contains(&answer));
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
        p.on_message(ProcessId::new(2), &wire(decided(0, one(50))), &mut o);
        o.drain();
        p.on_client(Value::new(7), &mut o);
        assert_eq!(
            proposed(&o.drain(), 1),
            Some(one(7)),
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
        p.on_message(ProcessId::new(2), &wire(decided(0, one(50))), &mut o);
        // Our command is immediately re-proposed in a fresh slot.
        assert_eq!(
            proposed(&o.drain(), 1),
            Some(one(7)),
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
        p.on_message(ProcessId::new(2), &wire(decided(5, one(7))), &mut o);
        o.drain();
        // Unanchoring must NOT requeue it: it is committed, and a requeue
        // would re-forward it every ε forever (commits never prune it
        // again).
        p.on_message(ProcessId::new(2), &g1a(8), &mut o); // session 2, owner p2
        o.drain();
        assert!(!p.is_anchored());
        assert_eq!(
            p.shard(S0).pending_len(),
            0,
            "committed command not requeued"
        );
    }

    #[test]
    fn default_batching_is_one_command_per_slot() {
        // Three back-to-back commands at a default anchor leave at once as
        // three one-command slots: no batching, and no window holds any
        // of them back.
        let mut p = spawn(3, 1);
        let mut o = out();
        anchor_p1(&mut p, &mut o);
        for v in [7, 8, 9] {
            p.on_client(Value::new(v), &mut o);
        }
        let acts = o.drain();
        for (slot, v) in [(0, 7), (1, 8), (2, 9)] {
            assert_eq!(proposed(&acts, slot), Some(one(v)), "slot {slot}");
        }
        assert_eq!(proposed(&acts, 3), None);
    }

    #[test]
    #[should_panic(expected = "at least one command")]
    fn zero_batch_rejected() {
        let _ = MultiPaxos::new().with_batching(0, 1);
    }

    // ---- the shard's view of its host's outbox ----

    /// One send, decide, trace event and broadcast through a view of
    /// shard 2 land in the host outbox shard-tagged, in emission order.
    #[test]
    fn view_writes_through_in_emission_order_shard_tagged() {
        let v = Value::new(5);
        let shard = ShardId::new(2);
        let mut o = out();
        o.set_tracing(true);
        let mut view = ShardOut::new(&mut o, shard, false);
        view.send(ProcessId::new(1), forward(5));
        view.decide(v);
        view.event(|shard| TraceEvent::Chosen { shard, slot: 7 });
        view.broadcast(decided(7, one(5)));
        let tagged = |msg| GroupMsg::Shard { shard, msg };
        assert_eq!(
            o.drain_trace().collect::<Vec<_>>(),
            [TraceEvent::Chosen { shard: 2, slot: 7 }]
        );
        assert_eq!(
            o.drain(),
            vec![
                Action::Send {
                    to: ProcessId::new(1),
                    msg: tagged(forward(5))
                },
                Action::Decide { value: v, shard },
                Action::Broadcast {
                    msg: tagged(decided(7, one(5)))
                },
            ]
        );
    }

    #[test]
    fn only_a_2a_broadcast_sets_sent_2a() {
        let mut o = out();
        let mut view = ShardOut::new(&mut o, S0, false);
        let (mbal, slot, batch) = (Ballot::new(4), 0, one(1));
        view.send(ProcessId::new(1), MultiMsg::Forward { value: batch[0] });
        view.decide(batch[0]);
        view.broadcast(MultiMsg::M2b {
            mbal,
            slot,
            batch: batch.clone(),
        });
        view.broadcast(decided(slot, batch.clone()));
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
