//! A chunked, index-addressed store for replicated-log state.
//!
//! The multi-instance layer keeps several per-slot tables (acceptor votes,
//! chosen entries, 2b counters). A `BTreeMap<u64, T>` pays a tree descent
//! plus rebalance per commit, and long replicated-log workloads hammer
//! exactly those paths — slot numbers, however, are dense and
//! monotonically growing, which is the best case for index addressing.
//!
//! [`SlotMap`] cuts the slot space into fixed chunks of 64 slots; a chunk
//! is a flat `Box<[Option<T>]>` allocated on first touch. Every access is
//! two array indexings — O(1), no rebalancing, and the hot tail (the
//! highest chunk, where all new traffic lands) stays cache-resident. A
//! chunk costs one `Option` per slot of its range; small chunks keep that
//! cost close to the entries a sparse or short log actually holds.
//!
//! A table whose old entries are dead state (a slot's votes and 2b
//! tallies, once the slot is chosen) raises a **watermark** with
//! [`SlotMap::forget_below`]: every entry below it is dropped and every
//! whole chunk below it is freed. Such a table holds the window above its
//! watermark, not its history. Whether a slot below the watermark may be
//! written again is the caller's rule; the map takes the insert.
//!
//! `tests/proptest_core.rs` differential-tests this container against a
//! reference `BTreeMap` model (`split_off` for the watermark) under
//! arbitrary interleavings of inserts, lookups, tail reads and forgets.

use core::fmt;
use std::collections::VecDeque;

/// Slots per chunk: a power of two, so the chunk index is a shift.
const CHUNK_SHIFT: u32 = 6;
const CHUNK_SLOTS: u64 = 1 << CHUNK_SHIFT;
const CHUNK_MASK: u64 = CHUNK_SLOTS - 1;

/// A chunked, index-addressed map from `u64` slots to `T` that can drop
/// every entry below a slot.
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
/// m.forget_below(1);
/// assert_eq!((m.len(), m.get(0)), (1, None));
/// ```
#[derive(Clone)]
pub struct SlotMap<T> {
    /// `chunks[i]` covers chunk `base + i`, the slots
    /// `[(base+i)·64, (base+i+1)·64)`; `None` until a slot in the range is
    /// first inserted.
    chunks: VecDeque<Option<Box<[Option<T>]>>>,
    /// The chunk `chunks[0]` covers: every chunk below it is freed.
    base: u64,
    /// No entry lies below this slot: the watermark, or a slot inserted
    /// below it since. `base` is at most its chunk.
    floor: u64,
    len: usize,
    /// Highest occupied slot.
    max_slot: Option<u64>,
}

impl<T> Default for SlotMap<T> {
    fn default() -> Self {
        SlotMap::new()
    }
}

/// The occupied cells of a chunk.
fn occupied<T>(cells: &[Option<T>]) -> usize {
    cells.iter().filter(|c| c.is_some()).count()
}

impl<T> SlotMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        SlotMap {
            chunks: VecDeque::new(),
            base: 0,
            floor: 0,
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

    /// The highest occupied slot, if any: `None` once the watermark has
    /// passed every entry.
    pub fn max_slot(&self) -> Option<u64> {
        self.max_slot
    }

    /// The cells of the chunk holding `slot`, if allocated.
    #[inline]
    fn chunk(&self, slot: u64) -> Option<&[Option<T>]> {
        let i = (slot >> CHUNK_SHIFT).checked_sub(self.base)?;
        self.chunks.get(i as usize)?.as_deref()
    }

    /// The entry at `slot`, if occupied.
    #[inline]
    pub fn get(&self, slot: u64) -> Option<&T> {
        self.chunk(slot)?[(slot & CHUNK_MASK) as usize].as_ref()
    }

    /// Mutable access to the entry at `slot`, if occupied.
    #[inline]
    pub fn get_mut(&mut self, slot: u64) -> Option<&mut T> {
        let i = (slot >> CHUNK_SHIFT).checked_sub(self.base)?;
        let chunk = self.chunks.get_mut(i as usize)?.as_mut()?;
        chunk[(slot & CHUNK_MASK) as usize].as_mut()
    }

    /// Whether `slot` is occupied.
    #[inline]
    pub fn contains(&self, slot: u64) -> bool {
        self.get(slot).is_some()
    }

    /// Inserts `value` at `slot`, returning the previous entry if any.
    pub fn insert(&mut self, slot: u64, value: T) -> Option<T> {
        let c = slot >> CHUNK_SHIFT;
        if c < self.base {
            for _ in c..self.base {
                self.chunks.push_front(None);
            }
            self.base = c;
        }
        self.floor = self.floor.min(slot);
        let i = (c - self.base) as usize;
        if i >= self.chunks.len() {
            self.chunks.resize_with(i + 1, || None);
        }
        let chunk = self.chunks[i].get_or_insert_with(|| {
            let mut v = Vec::new();
            v.resize_with(CHUNK_SLOTS as usize, || None);
            v.into_boxed_slice()
        });
        let prev = chunk[(slot & CHUNK_MASK) as usize].replace(value);
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

    /// Raises the watermark to `slot`: drops every entry below it and
    /// frees every whole chunk below it. A `slot` at or below the lowest
    /// entry is a no-op. Amortized O(1) per slot passed: each chunk is
    /// freed once, and a cell of the chunk the watermark lands in is
    /// cleared once.
    pub fn forget_below(&mut self, slot: u64) {
        if slot <= self.floor {
            return;
        }
        let old = self.floor;
        self.floor = slot;
        let new_base = slot >> CHUNK_SHIFT;
        let whole = ((new_base - self.base) as usize).min(self.chunks.len());
        let freed: usize = self
            .chunks
            .drain(..whole)
            .flatten()
            .map(|c| occupied(&c))
            .sum();
        self.len -= freed;
        self.base = new_base;
        // The cells of `[old, slot)` in the chunk the watermark lands in.
        if let Some(Some(chunk)) = self.chunks.front_mut() {
            let lo = old.saturating_sub(new_base << CHUNK_SHIFT) as usize;
            let hi = (slot & CHUNK_MASK) as usize;
            for cell in &mut chunk[lo..hi] {
                if cell.take().is_some() {
                    self.len -= 1;
                }
            }
        }
        if self.max_slot.is_some_and(|m| m < slot) {
            self.max_slot = None;
        }
    }

    /// Iterates occupied `(slot, &entry)` pairs in ascending slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.tail(0)
    }

    /// Iterates occupied `(slot, &entry)` pairs with `slot ≥ from`, in
    /// ascending order — the hot-tail read (undecided-slot scans start at
    /// the first unchosen slot, not at slot 0). Visits only the cells of
    /// `[from, max_slot]` at or above the watermark, so a read of the in-flight
    /// window costs the window, not the chunk.
    pub fn tail(&self, from: u64) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.cells(from).flat_map(|(first, cells)| {
            cells
                .iter()
                .enumerate()
                .filter_map(move |(off, e)| Some((first + off as u64, e.as_ref()?)))
        })
    }

    /// The cells of `[max(from, floor), max_slot]`, one
    /// `(first slot, cells)` run per allocated chunk, ascending.
    fn cells(&self, from: u64) -> impl Iterator<Item = (u64, &[Option<T>])> + '_ {
        let from = from.max(self.floor);
        let end = self.max_slot.map_or(0, |m| m + 1);
        let skip = ((from >> CHUNK_SHIFT) - self.base) as usize;
        let skip = skip.min(self.chunks.len());
        self.chunks
            .range(skip..)
            .enumerate()
            .filter_map(move |(i, chunk)| {
                let base = (self.base + (skip + i) as u64) << CHUNK_SHIFT;
                let lo = from.saturating_sub(base).min(CHUNK_SLOTS);
                let hi = end.saturating_sub(base).min(CHUNK_SLOTS);
                // `lo > hi` (no run) when `from` lies beyond `max_slot`.
                let cells = chunk.as_ref()?.get(lo as usize..hi as usize)?;
                Some((base + lo, cells))
            })
    }

    /// Iterates occupied entries in ascending slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.iter().map(|(_, v)| v)
    }
}

/// Equal entries are equal maps, whatever the chunks or watermarks.
impl<T: PartialEq> PartialEq for SlotMap<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for SlotMap<T> {}

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
    fn spans_multiple_chunks() {
        let mut m = SlotMap::new();
        let far = 3 * CHUNK_SLOTS + 17;
        m.insert(far, 1u32);
        m.insert(0, 2);
        m.insert(CHUNK_SLOTS, 3);
        assert_eq!(m.len(), 3);
        assert_eq!(m.max_slot(), Some(far));
        let slots: Vec<u64> = m.iter().map(|(s, _)| s).collect();
        assert_eq!(slots, vec![0, CHUNK_SLOTS, far]);
        // Chunk 2 was never touched: no allocation.
        assert!(m.chunks[2].is_none());
    }

    #[test]
    fn tail_starts_mid_chunk() {
        let mut m = SlotMap::new();
        for s in [0u64, 7, 9, CHUNK_SLOTS + 1] {
            m.insert(s, s);
        }
        let tail: Vec<u64> = m.tail(8).map(|(s, _)| s).collect();
        assert_eq!(tail, vec![9, CHUNK_SLOTS + 1]);
        let all: Vec<u64> = m.tail(0).map(|(s, _)| s).collect();
        assert_eq!(all, vec![0, 7, 9, CHUNK_SLOTS + 1]);
        assert_eq!(m.tail(CHUNK_SLOTS * 9).count(), 0);
    }

    #[test]
    fn tail_from_a_chunks_last_slot_yields_exactly_it() {
        let last = 2 * CHUNK_SLOTS + CHUNK_MASK;
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
        m.insert(CHUNK_SLOTS, 2);
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            vec![(5, &1), (CHUNK_SLOTS, &2)]
        );
        // All of chunk 0, then one cell of the last chunk — not its 64.
        let visited: Vec<usize> = m.cells(0).map(|(_, c)| c.len()).collect();
        assert_eq!(visited, vec![CHUNK_SLOTS as usize, 1]);
    }

    #[test]
    fn tail_visits_the_window_not_the_chunk() {
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

    /// Forgetting mid-chunk drops that chunk's lower entries in place and
    /// frees every whole chunk below; the map then reads as if those
    /// entries had never been inserted.
    #[test]
    fn forget_below_frees_whole_chunks_and_keeps_the_entries_above() {
        let mut m = SlotMap::new();
        for s in 0..5 * CHUNK_SLOTS {
            m.insert(s, s);
        }
        let mark = 2 * CHUNK_SLOTS + 10;
        m.forget_below(mark);
        assert_eq!(m.chunks.len(), 3, "chunks 0 and 1 freed");
        assert_eq!(m.base, 2);
        assert_eq!(m.len(), (5 * CHUNK_SLOTS - mark) as usize);
        assert_eq!(m.iter().next(), Some((mark, &mark)));
        assert_eq!((m.get(mark - 1), m.get(0)), (None, None));
        assert_eq!(m.max_slot(), Some(5 * CHUNK_SLOTS - 1));
        assert_eq!(m.cells(0).next().map(|(first, _)| first), Some(mark));
        // A lower watermark is a no-op; a higher one continues in place.
        m.forget_below(1);
        assert_eq!(m.len(), (5 * CHUNK_SLOTS - mark) as usize);
        m.forget_below(mark + 3);
        assert_eq!(m.len(), (5 * CHUNK_SLOTS - mark - 3) as usize);
    }

    /// An insert below the watermark reallocates its chunk in front, and
    /// a later forget past it drops it again.
    #[test]
    fn an_insert_below_the_watermark_is_kept_until_forgotten_again() {
        let mut m = SlotMap::new();
        m.insert(3 * CHUNK_SLOTS + 1, 'b');
        m.forget_below(3 * CHUNK_SLOTS);
        assert_eq!((m.base, m.chunks.len()), (3, 1));
        m.insert(5, 'a');
        assert_eq!((m.base, m.chunks.len()), (0, 4));
        assert_eq!(m.get(5), Some(&'a'));
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            vec![(5, &'a'), (3 * CHUNK_SLOTS + 1, &'b')]
        );
        m.forget_below(3 * CHUNK_SLOTS);
        assert_eq!((m.len(), m.get(5), m.base), (1, None, 3));
    }

    #[test]
    fn forgetting_past_every_entry_empties_the_map() {
        let mut m = SlotMap::new();
        m.insert(3, 'a');
        m.insert(CHUNK_SLOTS + 1, 'b');
        m.forget_below(100 * CHUNK_SLOTS + 7);
        assert!(m.is_empty());
        assert_eq!(m.max_slot(), None);
        assert!(m.chunks.is_empty());
        assert_eq!(m.insert(100 * CHUNK_SLOTS + 7, 'c'), None);
        assert_eq!(m.chunks.len(), 1, "the first chunk at the watermark");
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            vec![(100 * CHUNK_SLOTS + 7, &'c')]
        );
    }

    #[test]
    fn equality_and_debug_read_the_entries_not_the_layout() {
        let mut a = SlotMap::new();
        let mut b = SlotMap::new();
        for s in 0..3 * CHUNK_SLOTS {
            a.insert(s, 1u8);
        }
        a.forget_below(3 * CHUNK_SLOTS - 1);
        b.insert(3 * CHUNK_SLOTS - 1, 1u8);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
