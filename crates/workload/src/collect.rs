//! Latency/throughput collection from per-command commit feeds.

use esync_core::outbox::ShardLoad;
use esync_core::time::RealDuration;
use esync_core::types::{ProcessId, ShardId, Value};
use esync_metrics::HealthSummary;
use esync_sim::metrics::{
    HistogramSummary, LatencyHistogram, ShardSummary, ThroughputTimeline, WorkloadSummary,
};
use esync_sim::scenario::kv_id;
use esync_sim::SimTime;
use esync_trace::TraceRecord;

/// One slice of the measurements: a shard's (see [`ShardSummary`]),
/// or the whole run's. Shard slices grow on demand as shard tags appear
/// in the feed.
#[derive(Debug, Default)]
struct ShardAcc {
    committed: u64,
    duplicates: u64,
    latency: LatencyHistogram,
    pre_ts: LatencyHistogram,
    post_ts: LatencyHistogram,
    first_submit_ns: Option<u64>,
    last_commit_ns: Option<u64>,
}

/// A slice's summary section: its measured span, the throughput over it,
/// and its latency histograms.
struct Section {
    measured_secs: f64,
    commits_per_sec: f64,
    latency: HistogramSummary,
    pre_ts: Option<HistogramSummary>,
    post_ts: Option<HistogramSummary>,
}

impl ShardAcc {
    /// Records the first commit, at `at_ns`, of a command submitted at
    /// `submit`; `ts_ns` splits the pre/post histograms.
    fn record(&mut self, ts_ns: Option<u64>, submit: u64, at_ns: u64) {
        let lat = at_ns.saturating_sub(submit);
        self.committed += 1;
        self.latency.record(lat);
        match ts_ns {
            Some(ts) if submit < ts => self.pre_ts.record(lat),
            Some(_) => self.post_ts.record(lat),
            None => {}
        }
        if self.first_submit_ns.is_none_or(|t| submit < t) {
            self.first_submit_ns = Some(submit);
        }
        if self.last_commit_ns.is_none_or(|t| at_ns > t) {
            self.last_commit_ns = Some(at_ns);
        }
    }

    /// The slice's section: throughput over first submit → last commit,
    /// and the pre/post histograms only if the run has a `TS` (`split`)
    /// and they are non-empty.
    fn section(&self, split: bool) -> Section {
        let span_ns = match (self.first_submit_ns, self.last_commit_ns) {
            (Some(a), Some(b)) if b > a => b - a,
            _ => 0,
        };
        let measured_secs = span_ns as f64 / 1e9;
        let nonempty = |h: &LatencyHistogram| (split && !h.is_empty()).then(|| h.summary());
        Section {
            measured_secs,
            commits_per_sec: if span_ns > 0 {
                self.committed as f64 / measured_secs
            } else {
                0.0
            },
            latency: self.latency.summary(),
            pre_ts: nonempty(&self.pre_ts),
            post_ts: nonempty(&self.post_ts),
        }
    }
}

/// A growable bitset over table indices.
#[derive(Debug, Clone, Default)]
struct Bits(Vec<u64>);

impl Bits {
    fn get(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Sets bit `i`; returns whether it was clear.
    fn insert(&mut self, i: usize) -> bool {
        let w = i / 64;
        if w >= self.0.len() {
            self.0.resize(w + 1, 0);
        }
        let mask = 1 << (i % 64);
        let was_clear = self.0[w] & mask == 0;
        self.0[w] |= mask;
        was_clear
    }

    /// Shifts every bit up by `words` whole words.
    fn prepend_words(&mut self, words: usize) {
        if !self.0.is_empty() {
            self.0.splice(0..0, std::iter::repeat_n(0, words));
        }
    }

    /// The indices of the set bits, ascending.
    fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| w * 64 + b)
        })
    }
}

/// Per-command bookkeeping, indexed by command id minus `base`: the
/// submit instant, whether the first commit has been seen, and which
/// processes applied the command. Every access is an index, so a commit
/// record costs a few array reads however many commands the run tracks.
#[derive(Debug, Default)]
struct Commands {
    /// The id of index 0: the lowest tracked id, rounded down to a
    /// multiple of 64 so that re-basing shifts the bitsets by whole words.
    base: u64,
    /// Submit instant per index; meaningful where `tracked` is set.
    submit_ns: Vec<u64>,
    tracked: Bits,
    committed: Bits,
    /// Per-pid applied bits, indexed by pid.
    applied: Vec<Bits>,
    /// Per-pid count of distinct commands applied.
    applied_count: Vec<u64>,
    submitted: u64,
    committed_count: u64,
}

impl Commands {
    /// The index of a tracked `id`.
    fn index(&self, id: u64) -> Option<usize> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        self.tracked.get(i).then_some(i)
    }

    /// Starts tracking `id` with its submit instant; a resubmission keeps
    /// the first instant.
    fn submit(&mut self, id: u64, at_ns: u64) {
        if self.submit_ns.is_empty() {
            self.base = id & !63;
        } else if id < self.base {
            let base = id & !63;
            let words = ((self.base - base) / 64) as usize;
            self.submit_ns
                .splice(0..0, std::iter::repeat_n(0, words * 64));
            self.tracked.prepend_words(words);
            self.committed.prepend_words(words);
            for bits in &mut self.applied {
                bits.prepend_words(words);
            }
            self.base = base;
        }
        let i = (id - self.base) as usize;
        if i >= self.submit_ns.len() {
            self.submit_ns.resize(i + 1, 0);
        }
        if self.tracked.insert(i) {
            self.submit_ns[i] = at_ns;
            self.submitted += 1;
        }
    }

    /// Marks index `i` applied at `pid`; returns whether it was new there.
    fn apply(&mut self, pid: usize, i: usize) -> bool {
        if pid >= self.applied.len() {
            self.applied.resize_with(pid + 1, Bits::default);
            self.applied_count.resize(pid + 1, 0);
        }
        let fresh = self.applied[pid].insert(i);
        self.applied_count[pid] += u64::from(fresh);
        fresh
    }

    /// Marks index `i` committed; returns whether this is its first commit.
    fn commit(&mut self, i: usize) -> bool {
        let first = self.committed.insert(i);
        self.committed_count += u64::from(first);
        first
    }
}

/// Accumulates a workload run's measurements from its submit and commit
/// events, backend-agnostically: the simulator feeds nanoseconds of
/// simulated time, the threaded runtime nanoseconds of wall time since
/// cluster start.
///
/// Latency is measured **submission → first commit anywhere**; a command
/// re-applied at the same process under a second slot (the at-least-once
/// path across leadership changes) counts as a duplicate, while the normal
/// one-commit-per-process fan-out does not.
///
/// Per-command state lives in one table indexed by command id: the submit
/// instant, a first-commit bit and one applied bit per process, so each
/// submit and commit record costs a few array accesses. Its memory is
/// proportional to the **id span** (highest tracked id minus lowest), not
/// to the number of commands, so ids should be dense: every driver here
/// issues consecutive ids ([`CommandGen`](crate::CommandGen) from 0, a
/// [`SubmitStream`](esync_sim::scenario::SubmitStream) from its
/// `id_base`). Commits of ids never submitted are ignored.
///
/// Commits arrive shard-tagged (see
/// [`CommitRecord::shard`](esync_sim::metrics::CommitRecord) and
/// [`esync_runtime::Commit`](esync_runtime::cluster::Commit)); besides
/// the aggregate, the collector keeps one accumulator per shard, so the
/// summary reports the per-shard throughput/latency split of schema v3.
/// A command's shard is learned at its first commit — commands that
/// never commit count toward the aggregate's submitted/span but toward
/// no shard (see `ShardSummary::commits_per_sec`).
#[derive(Debug)]
pub struct Collector {
    commands: Commands,
    accounts: Accounts,
}

/// What the collector measures from the commands' events: the
/// aggregate and per-shard accumulators, the timeline and the load
/// counters.
#[derive(Debug)]
struct Accounts {
    /// The stabilization instant splitting the pre/post histograms, if the
    /// run has one.
    ts_ns: Option<u64>,
    /// The aggregate slice. Its first submit is taken at submission, so
    /// never-committed commands open the aggregate span too.
    total: ShardAcc,
    timeline: ThroughputTimeline,
    /// Per-shard accumulators, indexed by shard; shard 0 exists from the
    /// first commit, higher shards as their tags appear.
    shards: Vec<ShardAcc>,
    /// Protocol-level per-shard load counters (schema v5), installed by
    /// the driver after the run via [`Collector::set_shard_loads`].
    shard_loads: Vec<ShardLoad>,
}

impl Accounts {
    fn new(ts_ns: Option<u64>, timeline_window: RealDuration) -> Self {
        Accounts {
            ts_ns,
            total: ShardAcc::default(),
            timeline: ThroughputTimeline::new(timeline_window),
            shards: Vec::new(),
            shard_loads: Vec::new(),
        }
    }

    fn reserve_shards(&mut self, shards: usize) {
        if shards > self.shards.len() {
            self.shards.resize_with(shards, ShardAcc::default);
        }
    }

    /// A submission at `at_ns` opens the aggregate span.
    fn on_submit(&mut self, at_ns: u64) {
        if self.total.first_submit_ns.is_none_or(|t| at_ns < t) {
            self.total.first_submit_ns = Some(at_ns);
        }
    }

    /// A commit record of a tracked command submitted at `submit`: a
    /// `duplicate` re-application at its process, or its `first` commit
    /// anywhere, or neither (the fan-out).
    fn on_commit(&mut self, shard: ShardId, submit: u64, at_ns: u64, duplicate: bool, first: bool) {
        let s = shard.as_usize();
        self.reserve_shards(s + 1);
        if duplicate {
            self.total.duplicates += 1;
            self.shards[s].duplicates += 1;
        }
        if first {
            self.total.record(self.ts_ns, submit, at_ns);
            self.shards[s].record(self.ts_ns, submit, at_ns);
            self.timeline.record(SimTime::from_nanos(at_ns));
        }
    }

    /// The summary of everything recorded, for `submitted` commands of
    /// which `committed` committed.
    fn summary(&self, submitted: u64, committed: u64) -> WorkloadSummary {
        let split = self.ts_ns.is_some();
        let total = self.total.section(split);
        // Max-over-mean of the per-shard committed counts (v5): 1.0 is
        // balanced, S is one-shard-takes-all, 0.0 is nothing committed.
        let shard_imbalance = {
            let shards = self.shards.len().max(1);
            let total: u64 = self.shards.iter().map(|a| a.committed).sum();
            let max = self.shards.iter().map(|a| a.committed).max().unwrap_or(0);
            if total == 0 {
                0.0
            } else {
                max as f64 / (total as f64 / shards as f64)
            }
        };
        WorkloadSummary {
            submitted,
            committed,
            duplicate_commits: self.total.duplicates,
            measured_secs: total.measured_secs,
            commits_per_sec: total.commits_per_sec,
            latency: total.latency,
            pre_ts: total.pre_ts,
            post_ts: total.post_ts,
            timeline: self.timeline.counts().to_vec(),
            timeline_window_ms: self.timeline.window().as_millis_f64(),
            // Schema v3 guarantees at least a shard-0 entry (mirroring
            // the aggregate for unsharded runs), including the
            // nothing-committed case where no commit ever grew the
            // accumulator vector.
            per_shard: {
                let empty_shard0 = [ShardAcc::default()];
                let accs: &[ShardAcc] = if self.shards.is_empty() {
                    &empty_shard0
                } else {
                    &self.shards
                };
                accs.iter()
                    .enumerate()
                    .map(|(s, acc)| {
                        let section = acc.section(split);
                        let load = self.shard_loads.get(s).copied().unwrap_or_default();
                        ShardSummary {
                            shard: s as u32,
                            submitted: load.submitted,
                            admitted: load.admitted,
                            committed: acc.committed,
                            duplicate_commits: acc.duplicates,
                            commits_per_sec: section.commits_per_sec,
                            latency: section.latency,
                            pre_ts: section.pre_ts,
                            post_ts: section.post_ts,
                        }
                    })
                    .collect()
            },
            shard_imbalance,
            // Attached by `observed_summary` when typed tracing
            // (respectively metering) was enabled — the collector sees
            // neither trace records nor metric snapshots.
            phase_latency: None,
            health: None,
        }
    }
}

impl Collector {
    /// Creates a collector; `ts_ns` enables the pre/post-stability split.
    pub fn new(ts_ns: Option<u64>, timeline_window: RealDuration) -> Self {
        Collector {
            commands: Commands::default(),
            accounts: Accounts::new(ts_ns, timeline_window),
        }
    }

    /// Installs the protocol-level per-shard load counters (summed over
    /// processes by the driver; see
    /// [`Process::shard_load`](esync_core::outbox::Process::shard_load)),
    /// which the summary surfaces as the schema-v5 `submitted`/`admitted`
    /// fields of each [`ShardSummary`].
    pub fn set_shard_loads(&mut self, loads: &[ShardLoad]) {
        self.accounts.shard_loads = loads.to_vec();
        self.reserve_shards(loads.len());
    }

    /// Pre-sizes the per-shard accounting to at least `shards` entries
    /// (drivers pass [`Protocol::shard_count`](esync_core::outbox::Protocol::shard_count)),
    /// so shards that never commit — skewed keys, a dead range — still
    /// appear as explicit zeroed [`ShardSummary`]s instead of being
    /// silently absent.
    pub fn reserve_shards(&mut self, shards: usize) {
        self.accounts.reserve_shards(shards);
    }

    /// Registers a submission of `value` at `at_ns`.
    pub fn on_submit(&mut self, value: Value, at_ns: u64) {
        self.commands.submit(kv_id(value), at_ns);
        self.accounts.on_submit(at_ns);
    }

    /// Registers a commit of `value` in log-group shard `shard` at process
    /// `pid` at `at_ns`. Returns the command id if this is the command's
    /// **first** commit anywhere (the closed-loop driver's cue to submit a
    /// replacement); untracked ids are ignored.
    pub fn on_commit(
        &mut self,
        pid: ProcessId,
        shard: ShardId,
        value: Value,
        at_ns: u64,
    ) -> Option<u64> {
        let id = kv_id(value);
        let i = self.commands.index(id)?;
        let duplicate = !self.commands.apply(pid.as_usize(), i);
        let first = self.commands.commit(i);
        let submit = self.commands.submit_ns[i];
        self.accounts
            .on_commit(shard, submit, at_ns, duplicate, first);
        first.then_some(id)
    }

    /// Commands submitted so far.
    pub fn submitted(&self) -> u64 {
        self.commands.submitted
    }

    /// Distinct commands committed so far.
    pub fn committed(&self) -> u64 {
        self.commands.committed_count
    }

    /// Distinct tracked commands applied at `pid` so far.
    pub(crate) fn applied_at(&self, pid: ProcessId) -> u64 {
        self.commands
            .applied_count
            .get(pid.as_usize())
            .copied()
            .unwrap_or(0)
    }

    /// The ids of the tracked commands applied at `pid`, ascending.
    pub(crate) fn applied_ids(&self, pid: ProcessId) -> impl Iterator<Item = u64> + '_ {
        let base = self.commands.base;
        self.commands
            .applied
            .get(pid.as_usize())
            .into_iter()
            .flat_map(move |bits| bits.ones().map(move |i| base + i as u64))
    }

    /// Builds the summary of everything recorded.
    pub fn summary(&self) -> WorkloadSummary {
        self.accounts.summary(self.submitted(), self.committed())
    }

    /// [`Collector::summary`] plus what the run's observers collected,
    /// for both drivers: the phase decomposition of a non-empty `trace`
    /// and the `health` section.
    pub(crate) fn observed_summary(
        &self,
        trace: &[TraceRecord],
        health: Option<HealthSummary>,
    ) -> WorkloadSummary {
        let mut summary = self.summary();
        if !trace.is_empty() {
            summary.phase_latency = Some(esync_trace::decompose(trace));
        }
        summary.health = health;
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esync_sim::scenario::kv_command;
    use std::collections::{BTreeMap, BTreeSet};

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    const MS: u64 = 1_000_000;

    /// The collector as it was built on ordered maps and sets, kept as the
    /// reference the id-indexed table must match. It shares the
    /// [`Accounts`] the two feed, so only the per-command bookkeeping
    /// differs.
    struct Reference {
        submit_ns: BTreeMap<u64, u64>,
        committed: BTreeSet<u64>,
        applied: BTreeSet<(u32, u64)>,
        accounts: Accounts,
    }

    impl Reference {
        fn new(ts_ns: Option<u64>) -> Self {
            Reference {
                submit_ns: BTreeMap::new(),
                committed: BTreeSet::new(),
                applied: BTreeSet::new(),
                accounts: Accounts::new(ts_ns, RealDuration::from_millis(10)),
            }
        }

        fn on_submit(&mut self, value: Value, at_ns: u64) {
            self.submit_ns.entry(kv_id(value)).or_insert(at_ns);
            self.accounts.on_submit(at_ns);
        }

        fn on_commit(
            &mut self,
            pid: ProcessId,
            shard: ShardId,
            value: Value,
            at_ns: u64,
        ) -> Option<u64> {
            let id = kv_id(value);
            let submit = *self.submit_ns.get(&id)?;
            let duplicate = !self.applied.insert((pid.as_u32(), id));
            let first = self.committed.insert(id);
            self.accounts
                .on_commit(shard, submit, at_ns, duplicate, first);
            first.then_some(id)
        }

        fn applied_ids(&self, pid: u32) -> Vec<u64> {
            self.applied
                .iter()
                .filter(|(p, _)| *p == pid)
                .map(|(_, id)| *id)
                .collect()
        }

        fn summary(&self) -> WorkloadSummary {
            self.accounts
                .summary(self.submit_ns.len() as u64, self.committed.len() as u64)
        }
    }

    /// An id of the test pool: a dense block starting at `offset`, and
    /// sparse ids on both sides of it, so the table both grows and
    /// re-bases below its first id.
    fn pooled_id(offset: u64, pick: u64) -> u64 {
        if pick < 100 {
            offset + pick
        } else {
            (pick - 100) * 613
        }
    }

    proptest::proptest! {
        /// The id-indexed collector reports exactly what the ordered one
        /// did — every `on_commit` answer, `submitted`, `committed`, the
        /// per-pid applied sets and the whole summary — over random
        /// submits, commits at pids 0–70 (across a bit-word boundary),
        /// same-pid re-applications, untracked and sparse ids.
        #[test]
        fn id_table_matches_the_ordered_reference(
            offset in 0u64..5_000,
            split in proptest::option::of(0u64..2_000),
            ops in proptest::collection::vec((0u32..8, 0u64..200, 0u32..71, 0u32..3, 0u64..50), 1..300)
        ) {
            let ts = split.map(|ms| ms * MS);
            let mut c = Collector::new(ts, RealDuration::from_millis(10));
            let mut r = Reference::new(ts);
            let mut now = 0u64;
            let mut last: Option<(ProcessId, ShardId, Value)> = None;
            for (op, pick, p, shard, key) in ops {
                now += pick * MS / 7;
                let id = pooled_id(offset, pick);
                let value = kv_command(key, id);
                let (pid, shard) = (ProcessId::new(p), ShardId::new(shard));
                let commit = match op {
                    0..=2 => {
                        c.on_submit(value, now);
                        r.on_submit(value, now);
                        None
                    }
                    3..=5 => Some((pid, shard, value)),
                    // The same process applies its last command again.
                    6 => last,
                    // An id far outside every tracked span.
                    _ => Some((pid, shard, kv_command(key, (1 << 40) + id))),
                };
                if let Some((pid, shard, value)) = commit {
                    proptest::prop_assert_eq!(
                        c.on_commit(pid, shard, value, now),
                        r.on_commit(pid, shard, value, now)
                    );
                    last = Some((pid, shard, value));
                }
                proptest::prop_assert_eq!(c.submitted(), r.submit_ns.len() as u64);
                proptest::prop_assert_eq!(c.committed(), r.committed.len() as u64);
            }
            for p in 0..72u32 {
                let ids = r.applied_ids(p);
                proptest::prop_assert_eq!(c.applied_at(ProcessId::new(p)), ids.len() as u64);
                proptest::prop_assert_eq!(c.applied_ids(ProcessId::new(p)).collect::<Vec<_>>(), ids);
            }
            proptest::prop_assert_eq!(c.summary(), r.summary());
        }
    }

    #[test]
    fn first_commit_measures_latency() {
        let mut c = Collector::new(None, RealDuration::from_millis(10));
        let v = kv_command(3, 0);
        c.on_submit(v, 5 * MS);
        assert_eq!(
            c.on_commit(pid(0), ShardId::ZERO, v, 9 * MS),
            Some(0),
            "first commit"
        );
        assert_eq!(
            c.on_commit(pid(1), ShardId::ZERO, v, 10 * MS),
            None,
            "fan-out, not first"
        );
        let s = c.summary();
        assert_eq!(s.submitted, 1);
        assert_eq!(s.committed, 1);
        assert_eq!(s.duplicate_commits, 0, "per-process fan-out is not a dup");
        assert_eq!(s.latency.count, 1);
        assert_eq!(s.latency.min_ns, 4 * MS);
    }

    #[test]
    fn reapplication_counts_as_duplicate() {
        let mut c = Collector::new(None, RealDuration::from_millis(10));
        let v = kv_command(0, 7);
        c.on_submit(v, 0);
        c.on_commit(pid(0), ShardId::ZERO, v, MS);
        // Same process applies id 7 again (second slot): a duplicate.
        c.on_commit(pid(0), ShardId::ZERO, v, 2 * MS);
        assert_eq!(c.summary().duplicate_commits, 1);
        assert_eq!(c.summary().committed, 1);
    }

    #[test]
    fn untracked_ids_are_ignored() {
        let mut c = Collector::new(None, RealDuration::from_millis(10));
        assert_eq!(c.on_commit(pid(0), ShardId::ZERO, Value::new(42), MS), None);
        assert_eq!(c.summary().committed, 0);
    }

    #[test]
    fn pre_post_split_by_submit_time() {
        let ts = 100 * MS;
        let mut c = Collector::new(Some(ts), RealDuration::from_millis(10));
        let early = kv_command(0, 0);
        let late = kv_command(0, 1);
        c.on_submit(early, 50 * MS);
        c.on_submit(late, 150 * MS);
        c.on_commit(pid(0), ShardId::ZERO, early, 120 * MS); // submitted pre-TS
        c.on_commit(pid(0), ShardId::ZERO, late, 152 * MS); // submitted post-TS
        let s = c.summary();
        assert_eq!(s.pre_ts.as_ref().unwrap().count, 1);
        assert_eq!(s.pre_ts.as_ref().unwrap().min_ns, 70 * MS);
        assert_eq!(s.post_ts.as_ref().unwrap().count, 1);
        assert_eq!(s.post_ts.as_ref().unwrap().min_ns, 2 * MS);
    }

    #[test]
    fn per_shard_split_attributes_commits_and_duplicates() {
        let ts = 100 * MS;
        let mut c = Collector::new(Some(ts), RealDuration::from_millis(10));
        let a = kv_command(0, 0); // shard 0
        let b = kv_command(1, 1); // shard 1
        c.on_submit(a, 0);
        c.on_submit(b, 150 * MS);
        c.on_commit(pid(0), ShardId::new(0), a, 10 * MS);
        c.on_commit(pid(0), ShardId::new(1), b, 160 * MS);
        // Shard 1 re-applies b at the same pid: a shard-1 duplicate.
        c.on_commit(pid(0), ShardId::new(1), b, 170 * MS);
        let s = c.summary();
        assert_eq!(s.per_shard.len(), 2);
        assert_eq!(s.per_shard[0].shard, 0);
        assert_eq!(s.per_shard[0].committed, 1);
        assert_eq!(s.per_shard[0].duplicate_commits, 0);
        assert_eq!(s.per_shard[0].latency.count, 1);
        assert_eq!(s.per_shard[0].pre_ts.as_ref().unwrap().count, 1);
        assert!(s.per_shard[0].post_ts.is_none());
        assert_eq!(s.per_shard[1].committed, 1);
        assert_eq!(s.per_shard[1].duplicate_commits, 1);
        assert_eq!(s.per_shard[1].post_ts.as_ref().unwrap().count, 1);
        // Per-shard throughput uses the shard's own span.
        assert!((s.per_shard[1].commits_per_sec - 100.0).abs() < 1e-9);
        assert_eq!(
            s.per_shard.iter().map(|x| x.committed).sum::<u64>(),
            s.committed
        );
    }

    #[test]
    fn unsharded_runs_mirror_the_aggregate_in_shard_zero() {
        // Counts, latency and (with every submission committing, as
        // here) the span-derived throughput all coincide with the
        // aggregate; lossy runs keep the count/latency mirror but not
        // the throughput one (never-committed submissions open the
        // aggregate span only).
        let mut c = Collector::new(None, RealDuration::from_millis(10));
        for id in 0..5u64 {
            let v = kv_command(0, id);
            c.on_submit(v, id * MS);
            c.on_commit(pid(0), ShardId::ZERO, v, (id + 2) * MS);
        }
        let s = c.summary();
        assert_eq!(s.per_shard.len(), 1);
        assert_eq!(s.per_shard[0].committed, s.committed);
        assert_eq!(s.per_shard[0].latency, s.latency);
        assert!((s.per_shard[0].commits_per_sec - s.commits_per_sec).abs() < 1e-9);
    }

    #[test]
    fn reserved_shards_report_zeroed_entries_even_without_commits() {
        // A trailing shard that never commits (skewed keys, dead range)
        // must appear as an explicit zero entry, so consumers can tell
        // "shard 2 committed nothing" from "the run had 2 shards".
        let mut c = Collector::new(None, RealDuration::from_millis(10));
        c.reserve_shards(3);
        let v = kv_command(0, 0);
        c.on_submit(v, 0);
        c.on_commit(pid(0), ShardId::ZERO, v, MS);
        let s = c.summary();
        assert_eq!(s.per_shard.len(), 3);
        assert_eq!(s.per_shard[0].committed, 1);
        assert_eq!(s.per_shard[2].shard, 2);
        assert_eq!(s.per_shard[2].committed, 0);
        assert_eq!(s.per_shard[2].latency.count, 0);
    }

    #[test]
    fn empty_run_still_reports_a_shard_zero_entry() {
        // Schema v3: per_shard always holds at least shard 0, even when
        // nothing committed before the horizon.
        let c = Collector::new(Some(MS), RealDuration::from_millis(10));
        let s = c.summary();
        assert_eq!(s.per_shard.len(), 1);
        assert_eq!(s.per_shard[0].shard, 0);
        assert_eq!(s.per_shard[0].committed, 0);
        assert_eq!(s.per_shard[0].latency.count, 0);
        assert!(s.per_shard[0].pre_ts.is_none() && s.per_shard[0].post_ts.is_none());
    }

    #[test]
    fn shard_loads_and_imbalance_surface_in_the_summary() {
        let mut c = Collector::new(None, RealDuration::from_millis(10));
        c.reserve_shards(2);
        // Three commits in shard 0, one in shard 1: max/mean = 3/2.
        for (id, shard) in [(0u64, 0u32), (1, 0), (2, 0), (3, 1)] {
            let v = kv_command(shard as u64, id);
            c.on_submit(v, id * MS);
            c.on_commit(pid(0), ShardId::new(shard), v, (id + 1) * MS);
        }
        c.set_shard_loads(&[
            ShardLoad {
                submitted: 7,
                admitted: 3,
            },
            ShardLoad {
                submitted: 2,
                admitted: 1,
            },
        ]);
        let s = c.summary();
        assert_eq!(s.per_shard[0].submitted, 7);
        assert_eq!(s.per_shard[0].admitted, 3);
        assert_eq!(s.per_shard[1].submitted, 2);
        assert_eq!(s.per_shard[1].admitted, 1);
        assert!(
            (s.shard_imbalance - 1.5).abs() < 1e-9,
            "{}",
            s.shard_imbalance
        );
        // Without loads the counters default to zero, and an empty run
        // reports zero imbalance.
        let empty = Collector::new(None, RealDuration::from_millis(10)).summary();
        assert_eq!(empty.per_shard[0].submitted, 0);
        assert_eq!(empty.shard_imbalance, 0.0);
    }

    #[test]
    fn single_shard_imbalance_is_exactly_one() {
        let mut c = Collector::new(None, RealDuration::from_millis(10));
        let v = kv_command(0, 0);
        c.on_submit(v, 0);
        c.on_commit(pid(0), ShardId::ZERO, v, MS);
        assert!((c.summary().shard_imbalance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_over_measured_span() {
        let mut c = Collector::new(None, RealDuration::from_millis(10));
        for id in 0..10u64 {
            let v = kv_command(0, id);
            c.on_submit(v, 0);
            c.on_commit(pid(0), ShardId::ZERO, v, (id + 1) * 100 * MS);
        }
        let s = c.summary();
        // 10 commits over exactly 1 second (0 .. 1000ms).
        assert!(
            (s.commits_per_sec - 10.0).abs() < 1e-9,
            "{}",
            s.commits_per_sec
        );
        assert_eq!(s.timeline.iter().sum::<u64>(), 10);
    }
}
