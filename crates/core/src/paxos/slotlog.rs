//! A slot-range-sharded store for replicated-log state.
//!
//! The multi-instance layer keeps several per-slot tables (acceptor votes,
//! chosen entries, leader proposals, 2b counters). A `BTreeMap<u64, T>`
//! pays a tree descent plus rebalance per commit, and long replicated-log
//! workloads hammer exactly those paths — slot numbers, however, are dense
//! and monotonically growing, which is the best case for index addressing.
//!
//! [`SlotMap`] shards the slot space into fixed ranges of
//! [`SLOTS_PER_SHARD`] slots; a shard is a flat `Vec<Option<T>>` allocated
//! on first touch. Every access is two array indexings — O(1), no
//! rebalancing, and the hot tail (the highest shard, where all new traffic
//! lands) stays cache-resident. Sparse historic shards cost one `Option`
//! per slot, a deliberate memory-for-time trade for log workloads.
//!
//! `tests/proptest_core.rs` differential-tests this container against a
//! reference `BTreeMap` model under arbitrary interleavings of inserts,
//! lookups and tail reads.

use core::fmt;

/// Slots per shard (a power of two so the shard index is a shift).
pub const SLOTS_PER_SHARD: u64 = 1 << SHARD_SHIFT;

const SHARD_SHIFT: u32 = 10;
const SHARD_MASK: u64 = SLOTS_PER_SHARD - 1;

/// A slot-range-sharded, index-addressed map from `u64` slots to `T`.
///
/// ```
/// use esync_core::paxos::slotlog::SlotMap;
/// let mut m: SlotMap<&str> = SlotMap::new();
/// m.insert(3, "c");
/// m.insert(0, "a");
/// assert_eq!(m.get(3), Some(&"c"));
/// assert_eq!(m.len(), 2);
/// assert_eq!(m.max_slot(), Some(3));
/// let slots: Vec<u64> = m.iter().map(|(s, _)| s).collect();
/// assert_eq!(slots, vec![0, 3]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SlotMap<T> {
    /// Shard `i` covers slots `[i·SLOTS_PER_SHARD, (i+1)·SLOTS_PER_SHARD)`;
    /// `None` until a slot in the range is first inserted.
    shards: Vec<Option<Box<[Option<T>]>>>,
    len: usize,
    /// Highest occupied slot (entries are never removed).
    max_slot: Option<u64>,
}

impl<T> Default for SlotMap<T> {
    fn default() -> Self {
        SlotMap::new()
    }
}

impl<T> SlotMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        SlotMap {
            shards: Vec::new(),
            len: 0,
            max_slot: None,
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The highest occupied slot, if any.
    pub fn max_slot(&self) -> Option<u64> {
        self.max_slot
    }

    /// The entry at `slot`, if occupied.
    #[inline]
    pub fn get(&self, slot: u64) -> Option<&T> {
        let shard = self.shards.get((slot >> SHARD_SHIFT) as usize)?.as_ref()?;
        shard[(slot & SHARD_MASK) as usize].as_ref()
    }

    /// Mutable access to the entry at `slot`, if occupied.
    #[inline]
    pub fn get_mut(&mut self, slot: u64) -> Option<&mut T> {
        let shard = self
            .shards
            .get_mut((slot >> SHARD_SHIFT) as usize)?
            .as_mut()?;
        shard[(slot & SHARD_MASK) as usize].as_mut()
    }

    /// Whether `slot` is occupied.
    #[inline]
    pub fn contains(&self, slot: u64) -> bool {
        self.get(slot).is_some()
    }

    /// Inserts `value` at `slot`, returning the previous entry if any.
    pub fn insert(&mut self, slot: u64, value: T) -> Option<T> {
        let shard_idx = (slot >> SHARD_SHIFT) as usize;
        if shard_idx >= self.shards.len() {
            self.shards.resize_with(shard_idx + 1, || None);
        }
        let shard = self.shards[shard_idx].get_or_insert_with(|| {
            let mut v = Vec::new();
            v.resize_with(SLOTS_PER_SHARD as usize, || None);
            v.into_boxed_slice()
        });
        let prev = shard[(slot & SHARD_MASK) as usize].replace(value);
        if prev.is_none() {
            self.len += 1;
            if self.max_slot.is_none_or(|m| slot > m) {
                self.max_slot = Some(slot);
            }
        }
        prev
    }

    /// The entry at `slot`, inserting `default()` first if vacant.
    pub fn get_or_insert_with(&mut self, slot: u64, default: impl FnOnce() -> T) -> &mut T {
        if !self.contains(slot) {
            self.insert(slot, default());
        }
        self.get_mut(slot).expect("just ensured occupancy")
    }

    /// Iterates occupied `(slot, &entry)` pairs in ascending slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.tail(0)
    }

    /// Iterates occupied `(slot, &entry)` pairs with `slot ≥ from`, in
    /// ascending order — the hot-tail read (undecided-slot scans start at
    /// the first unchosen slot, not at slot 0). Visits only the cells of
    /// `[from, max_slot]`, so a read of the in-flight window costs the
    /// window, not the shard.
    pub fn tail(&self, from: u64) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.cells(from).flat_map(|(first, cells)| {
            cells
                .iter()
                .enumerate()
                .filter_map(move |(off, e)| Some((first + off as u64, e.as_ref()?)))
        })
    }

    /// The cells of `[from, max_slot]`, one `(first slot, cells)` run per
    /// allocated shard, ascending.
    fn cells(&self, from: u64) -> impl Iterator<Item = (u64, &[Option<T>])> + '_ {
        let end = self.max_slot.map_or(0, |m| m + 1);
        self.shards
            .iter()
            .enumerate()
            .skip((from >> SHARD_SHIFT) as usize)
            .filter_map(move |(i, shard)| {
                let base = (i as u64) << SHARD_SHIFT;
                let lo = from.saturating_sub(base).min(SLOTS_PER_SHARD);
                let hi = end.saturating_sub(base).min(SLOTS_PER_SHARD);
                // `lo > hi` (no run) when `from` lies beyond `max_slot`.
                let cells = shard.as_ref()?.get(lo as usize..hi as usize)?;
                Some((base + lo, cells))
            })
    }

    /// Iterates occupied entries in ascending slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.iter().map(|(_, v)| v)
    }
}

impl<T: fmt::Debug> fmt::Debug for SlotMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map() {
        let m: SlotMap<u32> = SlotMap::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(0), None);
        assert_eq!(m.max_slot(), None);
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn insert_get_overwrite() {
        let mut m = SlotMap::new();
        assert_eq!(m.insert(5, "a"), None);
        assert_eq!(m.insert(5, "b"), Some("a"));
        assert_eq!(m.get(5), Some(&"b"));
        assert_eq!(m.len(), 1, "overwrite does not grow");
        assert_eq!(m.max_slot(), Some(5));
    }

    #[test]
    fn spans_multiple_shards() {
        let mut m = SlotMap::new();
        let far = 3 * SLOTS_PER_SHARD + 17;
        m.insert(far, 1u32);
        m.insert(0, 2);
        m.insert(SLOTS_PER_SHARD, 3);
        assert_eq!(m.len(), 3);
        assert_eq!(m.max_slot(), Some(far));
        let slots: Vec<u64> = m.iter().map(|(s, _)| s).collect();
        assert_eq!(slots, vec![0, SLOTS_PER_SHARD, far]);
        // Shard 2 was never touched: no allocation.
        assert!(m.shards[2].is_none());
    }

    #[test]
    fn tail_starts_mid_shard() {
        let mut m = SlotMap::new();
        for s in [0u64, 7, 9, SLOTS_PER_SHARD + 1] {
            m.insert(s, s);
        }
        let tail: Vec<u64> = m.tail(8).map(|(s, _)| s).collect();
        assert_eq!(tail, vec![9, SLOTS_PER_SHARD + 1]);
        let all: Vec<u64> = m.tail(0).map(|(s, _)| s).collect();
        assert_eq!(all, vec![0, 7, 9, SLOTS_PER_SHARD + 1]);
        assert_eq!(m.tail(SLOTS_PER_SHARD * 9).count(), 0);
    }

    #[test]
    fn tail_from_a_shards_last_slot_yields_exactly_it() {
        let last = 2 * SLOTS_PER_SHARD + SHARD_MASK;
        let mut m = SlotMap::new();
        m.insert(last, 7u32);
        assert_eq!(m.tail(last).collect::<Vec<_>>(), vec![(last, &7)]);
        assert_eq!(m.cells(last).map(|(_, c)| c.len()).sum::<usize>(), 1);
        assert_eq!(m.tail(last + 1).count(), 0);
    }

    #[test]
    fn iter_stops_at_max_slot() {
        let mut m = SlotMap::new();
        m.insert(5, 1u32);
        m.insert(SLOTS_PER_SHARD, 2);
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            vec![(5, &1), (SLOTS_PER_SHARD, &2)]
        );
        // All of shard 0, then one cell of the last shard — not its 1024.
        let visited: Vec<usize> = m.cells(0).map(|(_, c)| c.len()).collect();
        assert_eq!(visited, vec![SLOTS_PER_SHARD as usize, 1]);
    }

    #[test]
    fn tail_visits_the_window_not_the_shard() {
        let mut m = SlotMap::new();
        for s in 0..100u64 {
            m.insert(s, s);
        }
        assert_eq!(
            m.tail(96).map(|(s, _)| s).collect::<Vec<_>>(),
            vec![96, 97, 98, 99]
        );
        assert_eq!(m.cells(96).map(|(_, c)| c.len()).sum::<usize>(), 4);
    }

    #[test]
    fn get_or_insert_with_behaves_like_entry() {
        let mut m: SlotMap<Vec<u32>> = SlotMap::new();
        m.get_or_insert_with(2, Vec::new).push(1);
        m.get_or_insert_with(2, || panic!("occupied: default not called"))
            .push(2);
        assert_eq!(m.get(2), Some(&vec![1, 2]));
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut m = SlotMap::new();
        m.insert(1, 10u32);
        *m.get_mut(1).unwrap() += 5;
        assert_eq!(m.get(1), Some(&15));
        assert_eq!(m.get_mut(99), None);
    }
}
