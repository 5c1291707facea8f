//! Majority arithmetic and quorum tracking.
//!
//! Both consensus safety (two quorums intersect) and the paper's session
//! gating ("a process does not enter session `s+1` until a majority of
//! processes have entered session `s`") count distinct processes toward a
//! strict majority.

use crate::types::ProcessId;

/// Size of a strict majority of `n` processes: `⌊n/2⌋ + 1`.
///
/// ```
/// use esync_core::quorum::majority;
/// assert_eq!(majority(5), 3);
/// assert_eq!(majority(4), 3); // strict majority, not ⌈n/2⌉ = 2
/// ```
///
/// # Panics
///
/// Panics if `n == 0`.
pub const fn majority(n: usize) -> usize {
    assert!(n > 0, "process count must be positive");
    n / 2 + 1
}

/// Tracks which distinct processes have been counted toward a quorum.
///
/// ```
/// use esync_core::quorum::QuorumTracker;
/// use esync_core::types::ProcessId;
///
/// let mut q = QuorumTracker::new(3);
/// assert!(q.insert(ProcessId::new(0)));
/// assert!(!q.insert(ProcessId::new(0))); // duplicates don't count twice
/// assert!(!q.reached());
/// q.insert(ProcessId::new(2));
/// assert!(q.reached()); // 2 of 3 is a strict majority
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumTracker {
    n: usize,
    count: usize,
    /// Bitset of counted process ids `< 128`. Consensus quorums are counted
    /// per ballot on the simulator's hot path, so the common case (every
    /// experiment in this repo has `n ≤ 128`) must not allocate.
    inline: [u64; 2],
    /// Bit words for process ids `≥ 128`; empty unless `n > 128`.
    spill: Vec<u64>,
}

const INLINE_BITS: usize = 128;

impl QuorumTracker {
    /// Creates an empty tracker for an `n`-process system.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "process count must be positive");
        QuorumTracker {
            n,
            count: 0,
            inline: [0; 2],
            spill: Vec::new(),
        }
    }

    /// Records `p`; returns `true` if `p` was not already counted.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        let idx = p.as_usize();
        let word = if idx < INLINE_BITS {
            &mut self.inline[idx / 64]
        } else {
            let w = (idx - INLINE_BITS) / 64;
            if w >= self.spill.len() {
                self.spill.resize(w + 1, 0);
            }
            &mut self.spill[w]
        };
        let bit = 1u64 << (idx % 64);
        let newly = *word & bit == 0;
        *word |= bit;
        self.count += usize::from(newly);
        newly
    }

    /// Whether `p` has been counted.
    pub fn contains(&self, p: ProcessId) -> bool {
        let idx = p.as_usize();
        let word = if idx < INLINE_BITS {
            self.inline[idx / 64]
        } else {
            self.spill
                .get((idx - INLINE_BITS) / 64)
                .copied()
                .unwrap_or(0)
        };
        word & (1u64 << (idx % 64)) != 0
    }

    /// Number of distinct processes counted so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether a strict majority has been counted.
    pub fn reached(&self) -> bool {
        self.count >= majority(self.n)
    }

    /// Iterates over the counted processes in id order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.inline
            .iter()
            .chain(self.spill.iter())
            .enumerate()
            .flat_map(|(w, &word)| {
                (0..64)
                    .filter(move |b| word & (1u64 << b) != 0)
                    .map(move |b| ProcessId::new((w * 64 + b) as u32))
            })
    }

    /// Removes all counted processes.
    pub fn clear(&mut self) {
        self.count = 0;
        self.inline = [0; 2];
        self.spill.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_values() {
        assert_eq!(majority(1), 1);
        assert_eq!(majority(2), 2);
        assert_eq!(majority(3), 2);
        assert_eq!(majority(4), 3);
        assert_eq!(majority(5), 3);
        assert_eq!(majority(101), 51);
    }

    #[test]
    fn quorums_intersect() {
        // Any two sets of `majority(n)` processes out of n share a member.
        for n in 1..=20 {
            assert!(2 * majority(n) > n, "n={n}");
        }
    }

    #[test]
    fn tracker_counts_distinct() {
        let mut q = QuorumTracker::new(5);
        for _ in 0..3 {
            q.insert(ProcessId::new(1));
        }
        assert_eq!(q.count(), 1);
        assert!(!q.reached());
        q.insert(ProcessId::new(2));
        q.insert(ProcessId::new(3));
        assert_eq!(q.count(), 3);
        assert!(q.reached());
    }

    #[test]
    fn tracker_contains_and_iter() {
        let mut q = QuorumTracker::new(3);
        q.insert(ProcessId::new(2));
        q.insert(ProcessId::new(0));
        assert!(q.contains(ProcessId::new(2)));
        assert!(!q.contains(ProcessId::new(1)));
        let ids: Vec<_> = q.iter().collect();
        assert_eq!(ids, vec![ProcessId::new(0), ProcessId::new(2)]);
    }

    #[test]
    fn tracker_clear() {
        let mut q = QuorumTracker::new(1);
        q.insert(ProcessId::new(0));
        assert!(q.reached());
        q.clear();
        assert_eq!(q.count(), 0);
        assert!(!q.reached());
    }

    #[test]
    fn single_process_system() {
        let mut q = QuorumTracker::new(1);
        assert!(!q.reached());
        q.insert(ProcessId::new(0));
        assert!(q.reached());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_n_panics() {
        let _ = QuorumTracker::new(0);
    }
}
