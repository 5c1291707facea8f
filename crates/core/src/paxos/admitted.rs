//! The windowed admitted-command set of a replicated-log process.
//!
//! Every [`LogShard`](crate::paxos::multi::LogShard) deduplicates retried
//! command submissions against the set of values it has already seen. Keeping that set unbounded makes dedup perfect but
//! grows it with the log itself — for a long-lived process, strictly
//! worse asymptotics than the log (which at least amortizes into cold
//! shards). [`AdmittedSet`] bounds it instead: once a command's slot
//! falls more than `window` slots below the **all-chosen log prefix**
//! (every slot before the prefix is committed, so no in-flight proposal
//! can reference that history), its entry is dropped.
//!
//! What survives compaction, always:
//!
//! * **Unchosen entries** (commands queued or in the proposal pipeline).
//!   These are exactly the values the ε-retry machinery re-forwards, so
//!   retry dedup is unconditional — the
//!   `admitted_compaction_preserves_retry_dedup` proptest in
//!   `tests/proptest_core.rs` drives arbitrary interleavings of retries,
//!   commits and compactions across the boundary.
//! * **Recently chosen entries** (within `window` slots of the prefix).
//!   A duplicate `Forward` of such a command is still answered with its
//!   `LogDecided` instead of being re-proposed.
//!
//! What compaction gives up: a client that resubmits a command more than
//! `window` committed slots after it was chosen is no longer recognized,
//! and the command commits a second time. That is the replicated log's
//! documented **at-least-once** contract (the same duplicate was always
//! possible across a leadership change); the workload generators tag
//! commands with unique ids so applications deduplicate on apply.

use crate::types::Value;
use std::collections::BTreeMap;

/// How a value stands in the admitted set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admitted {
    /// Admitted but not yet committed anywhere (queued or proposed).
    Unchosen,
    /// Committed in this log slot.
    Chosen(u64),
}

/// A windowed map from admitted command values to their commit status.
///
/// Compaction is amortized: entries are scanned only after the all-chosen
/// prefix has advanced by at least half the window since the last scan,
/// so the per-commit cost stays O(1) amortized.
#[derive(Debug, Clone)]
pub struct AdmittedSet {
    entries: BTreeMap<Value, Option<u64>>,
    window: u64,
    /// The prefix the last compaction ran at; the next runs once the
    /// prefix has advanced by `window / 2` more slots.
    compacted_at: u64,
}

/// Default compaction window, in slots. Large enough that every
/// realistic retry (ε-period re-forwards stop as soon as the submitter
/// sees the commit) falls inside it, small enough to bound the set at a
/// few thousand entries regardless of log length.
pub const DEFAULT_ADMITTED_WINDOW: u64 = 1024;

impl AdmittedSet {
    /// Creates an empty set keeping chosen entries for `window` slots
    /// below the all-chosen prefix.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero (the *current* prefix boundary must
    /// always be retained).
    pub fn new(window: u64) -> Self {
        assert!(window >= 1, "the admitted window keeps at least one slot");
        AdmittedSet {
            entries: BTreeMap::new(),
            window,
            compacted_at: 0,
        }
    }

    /// Admits `value` if it has never been seen (or was compacted away).
    /// Returns whether the value was newly admitted.
    pub fn admit(&mut self, value: Value) -> bool {
        use std::collections::btree_map::Entry;
        match self.entries.entry(value) {
            Entry::Occupied(_) => false,
            Entry::Vacant(e) => {
                e.insert(None);
                true
            }
        }
    }

    /// The status of `value`: `None` if unknown (never admitted, or
    /// compacted away).
    pub fn status(&self, value: Value) -> Option<Admitted> {
        self.entries.get(&value).map(|s| match s {
            None => Admitted::Unchosen,
            Some(slot) => Admitted::Chosen(*slot),
        })
    }

    /// Whether `value` is admitted but not yet committed anywhere — the
    /// requeue filter of the unanchor and slot-loss paths.
    pub fn is_unchosen(&self, value: Value) -> bool {
        self.status(value) == Some(Admitted::Unchosen)
    }

    /// Records that `value` committed in `slot` (admitting it if absent).
    pub fn mark_chosen(&mut self, value: Value, slot: u64) {
        self.entries.insert(value, Some(slot));
    }

    /// Compacts against the all-chosen log `prefix` (the first unchosen
    /// slot): drops every *chosen* entry whose slot is more than the
    /// window below it. Amortized — most calls return without scanning.
    pub fn maybe_compact(&mut self, prefix: u64) {
        if prefix < self.compacted_at + self.window / 2 + 1 {
            return;
        }
        self.compacted_at = prefix;
        let floor = prefix.saturating_sub(self.window);
        if floor == 0 {
            return;
        }
        self.entries.retain(|_, status| match status {
            None => true,
            Some(slot) => *slot >= floor,
        });
    }

    /// Removes and returns every entry matching `pred` (which sees the
    /// value and its chosen slot, `None` = admitted but unchosen), as
    /// `(value, chosen_slot)` pairs. The shard-handoff path of the
    /// log-group rebalancer:
    /// when a key range moves to another shard, its dedup entries move
    /// with it — unchosen values are re-admitted at the new owner,
    /// chosen ones become the group-level "moved" answers — so retry
    /// dedup survives the migration.
    pub fn take_matching(
        &mut self,
        mut pred: impl FnMut(Value, Option<u64>) -> bool,
    ) -> Vec<(Value, Option<u64>)> {
        let matching: Vec<Value> = self
            .entries
            .iter()
            .filter(|(v, status)| pred(**v, **status))
            .map(|(v, _)| *v)
            .collect();
        matching
            .into_iter()
            .map(|v| {
                let status = self.entries.remove(&v).expect("key just listed");
                (v, status)
            })
            .collect()
    }

    /// The configured compaction window, in slots.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Entries currently held (for bound assertions in tests).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_is_idempotent_until_compacted() {
        let mut a = AdmittedSet::new(4);
        assert!(a.admit(Value::new(1)));
        assert!(!a.admit(Value::new(1)));
        assert_eq!(a.status(Value::new(1)), Some(Admitted::Unchosen));
        a.mark_chosen(Value::new(1), 0);
        assert!(!a.admit(Value::new(1)));
        assert_eq!(a.status(Value::new(1)), Some(Admitted::Chosen(0)));
    }

    #[test]
    fn unchosen_entries_survive_any_compaction() {
        let mut a = AdmittedSet::new(1);
        a.admit(Value::new(7));
        for slot in 0..100 {
            a.mark_chosen(Value::new(1000 + slot), slot);
            a.maybe_compact(slot + 1);
        }
        assert!(a.is_unchosen(Value::new(7)), "pipeline entries never drop");
    }

    #[test]
    fn chosen_entries_below_the_window_are_dropped() {
        let mut a = AdmittedSet::new(4);
        for slot in 0..20 {
            a.mark_chosen(Value::new(slot), slot);
        }
        a.maybe_compact(20);
        // Slots 16..20 remain; everything below the window is gone.
        assert_eq!(a.len(), 4);
        assert_eq!(a.status(Value::new(10)), None, "compacted away");
        assert_eq!(a.status(Value::new(16)), Some(Admitted::Chosen(16)));
        // A resubmission of a compacted command is re-admitted: the
        // documented at-least-once path.
        assert!(a.admit(Value::new(10)));
    }

    #[test]
    fn compaction_is_amortized() {
        let mut a = AdmittedSet::new(8);
        a.mark_chosen(Value::new(0), 0);
        a.maybe_compact(1); // below the half-window threshold: no scan
        for slot in 1..32 {
            a.mark_chosen(Value::new(slot), slot);
            a.maybe_compact(slot + 1);
        }
        assert!(a.len() <= 8 + 4, "bounded by window + half-window slack");
        assert!(!a.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_window_rejected() {
        let _ = AdmittedSet::new(0);
    }
}
