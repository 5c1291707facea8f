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
//!
//! The set is **hashed**: every `Forward` and every commit looks a value
//! up, so each access is one probe of a `std` [`HashMap`] instead of a
//! tree descent through a few thousand entries. Its hasher is a private
//! multiplicative one with no random state, so a run's table layout is a
//! function of its inputs alone. No output depends on that layout:
//! [`AdmittedSet::take_matching`] returns its entries in value order (the
//! rebalancer re-admits them at the new owner in that order) and `Debug`
//! prints them in value order (the model checker fingerprints process
//! state by its `Debug` text).

use crate::types::Value;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// How a value stands in the admitted set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admitted {
    /// Admitted but not yet committed anywhere (queued or proposed).
    Unchosen,
    /// Committed in this log slot.
    Chosen(u64),
}

impl Admitted {
    fn of(status: Option<u64>) -> Self {
        match status {
            None => Admitted::Unchosen,
            Some(slot) => Admitted::Chosen(slot),
        }
    }
}

/// A multiplicative hasher for the one `u64` a [`Value`] hashes as: the
/// 128-bit product with an odd constant, folded to 64 bits, so every
/// input bit reaches the high bits the table's control bytes read and the
/// low bits its bucket index reads. Deterministic: no per-process seed.
#[derive(Default)]
struct MulHasher(u64);

/// 2⁶⁴ / φ, the usual odd multiplier of Fibonacci hashing.
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for MulHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * u128::from(MUL);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A windowed map from admitted command values to their commit status.
///
/// Compaction is amortized: entries are scanned only after the all-chosen
/// prefix has advanced by at least half the window since the last scan,
/// so the per-commit cost stays O(1) amortized.
#[derive(Clone)]
pub struct AdmittedSet {
    entries: HashMap<Value, Option<u64>, BuildHasherDefault<MulHasher>>,
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
            entries: HashMap::default(),
            window,
            compacted_at: 0,
        }
    }

    /// Admits `value` if it has never been seen (or was compacted away).
    /// Returns the status it had before: `None` means it was newly
    /// admitted, so one lookup both tests and admits.
    pub fn admit(&mut self, value: Value) -> Option<Admitted> {
        use std::collections::hash_map::Entry;
        match self.entries.entry(value) {
            Entry::Occupied(e) => Some(Admitted::of(*e.get())),
            Entry::Vacant(e) => {
                e.insert(None);
                None
            }
        }
    }

    /// The status of `value`: `None` if unknown (never admitted, or
    /// compacted away).
    pub fn status(&self, value: Value) -> Option<Admitted> {
        self.entries.get(&value).map(|s| Admitted::of(*s))
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
    /// `(value, chosen_slot)` pairs in value order. `pred` is called once
    /// per entry in no particular order, so it must not keep state. The
    /// shard-handoff path of the log-group rebalancer:
    /// when a key range moves to another shard, its dedup entries move
    /// with it — unchosen values are re-admitted at the new owner,
    /// chosen ones become the group-level "moved" answers — so retry
    /// dedup survives the migration.
    pub fn take_matching(
        &mut self,
        mut pred: impl FnMut(Value, Option<u64>) -> bool,
    ) -> Vec<(Value, Option<u64>)> {
        let mut taken: Vec<(Value, Option<u64>)> = self
            .entries
            .iter()
            .filter(|(v, status)| pred(**v, **status))
            .map(|(v, status)| (*v, *status))
            .collect();
        taken.sort_unstable_by_key(|(v, _)| *v);
        for (v, _) in &taken {
            self.entries.remove(v);
        }
        taken
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

/// The entries in value order, printed as a map.
struct SortedEntries<'a>(&'a HashMap<Value, Option<u64>, BuildHasherDefault<MulHasher>>);

impl fmt::Debug for SortedEntries<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<_> = self.0.iter().collect();
        entries.sort_unstable_by_key(|(v, _)| **v);
        f.debug_map().entries(entries).finish()
    }
}

/// Prints the entries as a map in value order, so the text state
/// fingerprints hash does not depend on the table layout.
impl fmt::Debug for AdmittedSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdmittedSet")
            .field("entries", &SortedEntries(&self.entries))
            .field("window", &self.window)
            .field("compacted_at", &self.compacted_at)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_is_idempotent_until_compacted() {
        let mut a = AdmittedSet::new(4);
        assert_eq!(a.admit(Value::new(1)), None);
        assert_eq!(a.admit(Value::new(1)), Some(Admitted::Unchosen));
        assert_eq!(a.status(Value::new(1)), Some(Admitted::Unchosen));
        a.mark_chosen(Value::new(1), 0);
        assert_eq!(a.admit(Value::new(1)), Some(Admitted::Chosen(0)));
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
        assert_eq!(a.admit(Value::new(10)), None);
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

    /// The ordered map this set was built on, kept as the reference its
    /// statuses, `take_matching` order and `Debug` text must match.
    mod reference {
        use crate::types::Value;
        use std::collections::BTreeMap;

        #[derive(Debug)]
        pub(super) struct AdmittedSet {
            entries: BTreeMap<Value, Option<u64>>,
            window: u64,
            compacted_at: u64,
        }

        impl AdmittedSet {
            pub(super) fn new(window: u64) -> Self {
                AdmittedSet {
                    entries: BTreeMap::new(),
                    window,
                    compacted_at: 0,
                }
            }

            pub(super) fn admit(&mut self, value: Value) -> Option<Option<u64>> {
                let prior = self.entries.get(&value).copied();
                self.entries.entry(value).or_insert(None);
                prior
            }

            pub(super) fn status(&self, value: Value) -> Option<Option<u64>> {
                self.entries.get(&value).copied()
            }

            pub(super) fn mark_chosen(&mut self, value: Value, slot: u64) {
                self.entries.insert(value, Some(slot));
            }

            pub(super) fn maybe_compact(&mut self, prefix: u64) {
                if prefix < self.compacted_at + self.window / 2 + 1 {
                    return;
                }
                self.compacted_at = prefix;
                let floor = prefix.saturating_sub(self.window);
                if floor > 0 {
                    self.entries
                        .retain(|_, s| s.is_none_or(|slot| slot >= floor));
                }
            }

            pub(super) fn take_matching(
                &mut self,
                mut pred: impl FnMut(Value, Option<u64>) -> bool,
            ) -> Vec<(Value, Option<u64>)> {
                let keys: Vec<Value> = self
                    .entries
                    .iter()
                    .filter(|(v, s)| pred(**v, **s))
                    .map(|(v, _)| *v)
                    .collect();
                keys.into_iter()
                    .map(|v| (v, self.entries.remove(&v).expect("listed")))
                    .collect()
            }

            pub(super) fn len(&self) -> usize {
                self.entries.len()
            }
        }
    }

    /// A value of the test pool: small ids, and keyed commands whose high
    /// bits differ while their low bits collide.
    fn pooled(pick: u64) -> Value {
        match pick % 3 {
            0 => Value::new(pick),
            1 => crate::types::kv_command(pick % 7, pick / 7),
            _ => Value::new(pick << 40 | 5),
        }
    }

    proptest::proptest! {
        /// The hashed set answers exactly as the ordered map did under any
        /// interleaving of admissions, commits, compactions and handoffs:
        /// the same prior statuses, lengths, `take_matching` output in
        /// value order, and `Debug` text.
        #[test]
        fn hashed_set_matches_the_ordered_reference(
            window in 1u64..12,
            ops in proptest::collection::vec((0u32..10, 0u64..400, 0u64..6), 1..400)
        ) {
            let mut set = AdmittedSet::new(window);
            let mut model = reference::AdmittedSet::new(window);
            let mut prefix = 0u64;
            let as_model = |s: Option<Admitted>| {
                s.map(|a| match a {
                    Admitted::Unchosen => None,
                    Admitted::Chosen(slot) => Some(slot),
                })
            };
            for (op, pick, arg) in ops {
                let v = pooled(pick);
                match op {
                    0..=3 => {
                        proptest::prop_assert_eq!(as_model(set.admit(v)), model.admit(v));
                    }
                    4..=6 => {
                        let slot = prefix + arg;
                        set.mark_chosen(v, slot);
                        model.mark_chosen(v, slot);
                    }
                    7 | 8 => {
                        prefix += arg;
                        set.maybe_compact(prefix);
                        model.maybe_compact(prefix);
                    }
                    _ => {
                        // A key span moving away: every value of one residue
                        // class, or (arg = 0) only the chosen ones.
                        let m = 2 + arg;
                        let pred = |x: Value, s: Option<u64>| {
                            x.get() % m == pick % m && (arg > 0 || s.is_some())
                        };
                        proptest::prop_assert_eq!(set.take_matching(pred), model.take_matching(pred));
                    }
                }
                proptest::prop_assert_eq!(as_model(set.status(v)), model.status(v));
                proptest::prop_assert_eq!(set.len(), model.len());
            }
            proptest::prop_assert_eq!(format!("{set:?}"), format!("{model:?}"));
            proptest::prop_assert_eq!(format!("{set:#?}"), format!("{model:#?}"));
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_window_rejected() {
        let _ = AdmittedSet::new(0);
    }
}
