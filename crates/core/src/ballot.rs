//! Ballot numbers and their *session* structure (§4 of the paper).
//!
//! In Paxos, process `p` owns the ballot numbers congruent to `p` mod `N`.
//! The paper's modification groups ballots into **sessions**: the session of
//! ballot `b` is `⌊b/N⌋`, and a process "is in" the session of its current
//! `mbal`. The modified algorithm forbids entering session `s+1` before a
//! majority has entered session `s`, which bounds how far ahead any obsolete
//! message can be (proof step 1: obsolete state has session ≤ `s0 + 1`).

use crate::types::ProcessId;
use core::fmt;

/// A Paxos ballot number.
///
/// ```
/// use esync_core::ballot::{Ballot, Session};
/// use esync_core::types::ProcessId;
///
/// let p2 = ProcessId::new(2);
/// let b = Ballot::initial(p2);        // mbal[p] starts at p
/// assert_eq!(b.session(5), Session::ZERO);
/// assert_eq!(b.owner(5), p2);
///
/// // Start Phase 1 advances the session by one while keeping ownership:
/// let b2 = b.next_session(p2, 5);
/// assert_eq!(b2.session(5), Session::new(1));
/// assert_eq!(b2.owner(5), p2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ballot(u64);

/// A session number, `⌊ballot/N⌋`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Session(u64);

impl Ballot {
    /// Creates a ballot from its raw number.
    pub const fn new(raw: u64) -> Self {
        Ballot(raw)
    }

    /// The raw ballot number.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The initial ballot of process `p`: the paper sets `mbal[p] = p`
    /// "for later convenience", so every process starts in session 0 and
    /// owns its initial ballot.
    pub const fn initial(p: ProcessId) -> Self {
        Ballot(p.as_u32() as u64)
    }

    /// The session of this ballot: `⌊b/N⌋`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn session(self, n: usize) -> Session {
        assert!(n > 0, "process count must be positive");
        Session(self.0 / n as u64)
    }

    /// The owner of this ballot: process `b mod N`. Phase 1a messages are
    /// "treated as if sent by process `m.mbal mod N`", and phase 1b replies
    /// go to the owner.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn owner(self, n: usize) -> ProcessId {
        assert!(n > 0, "process count must be positive");
        ProcessId::new((self.0 % n as u64) as u32)
    }

    /// The ballot the paper's Start Phase 1 action chooses:
    /// `(⌊mbal/N⌋ + 1)·N + p` — the caller's ballot in the *next* session.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `p` is not one of the `n` processes.
    pub fn next_session(self, p: ProcessId, n: usize) -> Ballot {
        assert!(n > 0, "process count must be positive");
        assert!(p.as_usize() < n, "{p} out of range for n={n}");
        Ballot((self.session(n).get() + 1) * n as u64 + p.as_u32() as u64)
    }

    /// The smallest ballot owned by `p` that is strictly greater than
    /// `floor`. Traditional Paxos uses this to jump above a rejected ballot
    /// ("increase `mbal[p]` to an arbitrary value congruent to `p` mod `N`").
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `p` is not one of the `n` processes.
    pub fn next_for_owner_above(floor: Ballot, p: ProcessId, n: usize) -> Ballot {
        assert!(n > 0, "process count must be positive");
        assert!(p.as_usize() < n, "{p} out of range for n={n}");
        let n = n as u64;
        let p = p.as_u32() as u64;
        let candidate = floor.0 + 1;
        let rem = candidate % n;
        let offset = (p + n - rem) % n;
        Ballot(candidate + offset)
    }

    /// Whether this ballot belongs to session `s` in an `n`-process system.
    pub fn in_session(self, s: Session, n: usize) -> bool {
        self.session(n) == s
    }
}

impl fmt::Display for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl Session {
    /// Session 0, where every process starts.
    pub const ZERO: Session = Session(0);

    /// Creates a session number.
    pub const fn new(raw: u64) -> Self {
        Session(raw)
    }

    /// The raw session number.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The next session.
    pub const fn next(self) -> Session {
        Session(self.0 + 1)
    }
}

impl fmt::Display for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_ballot_is_process_index() {
        for i in 0..5u32 {
            let b = Ballot::initial(ProcessId::new(i));
            assert_eq!(b.get(), i as u64);
            assert_eq!(b.session(5), Session::ZERO);
            assert_eq!(b.owner(5), ProcessId::new(i));
        }
    }

    #[test]
    fn next_session_formula_matches_paper() {
        // mbal = (⌊mbal/N⌋ + 1)·N + p
        let n = 5;
        let p = ProcessId::new(3);
        let b = Ballot::initial(p); // 3, session 0
        let b1 = b.next_session(p, n); // (0+1)*5+3 = 8
        assert_eq!(b1.get(), 8);
        assert_eq!(b1.session(n), Session::new(1));
        assert_eq!(b1.owner(n), p);
        let b2 = b1.next_session(p, n); // (1+1)*5+3 = 13
        assert_eq!(b2.get(), 13);
        assert_eq!(b2.session(n), Session::new(2));
    }

    #[test]
    fn next_session_from_foreign_ballot_keeps_own_id() {
        // A process that adopted another owner's ballot still picks its own
        // congruence class when starting phase 1.
        let n = 5;
        let p = ProcessId::new(1);
        let foreign = Ballot::new(9); // owner 4, session 1
        let b = foreign.next_session(p, n);
        assert_eq!(b.get(), 11); // session 2, owner 1
        assert_eq!(b.owner(n), p);
        assert!(b > foreign);
    }

    #[test]
    fn next_session_is_always_greater() {
        let n = 7;
        for raw in 0..200u64 {
            for p in 0..n as u32 {
                let b = Ballot::new(raw);
                let nxt = b.next_session(ProcessId::new(p), n);
                assert!(nxt > b);
                assert_eq!(nxt.session(n).get(), b.session(n).get() + 1);
            }
        }
    }

    #[test]
    fn next_for_owner_above_is_minimal() {
        let n = 5;
        for floor in 0..100u64 {
            for p in 0..n as u32 {
                let pid = ProcessId::new(p);
                let b = Ballot::next_for_owner_above(Ballot::new(floor), pid, n);
                assert!(b.get() > floor);
                assert_eq!(b.owner(n), pid);
                // Minimality: stepping back n lands at or below the floor.
                assert!(b.get() < n as u64 || b.get() - n as u64 <= floor);
            }
        }
    }

    #[test]
    fn session_and_owner_partition_ballots() {
        let n = 4;
        for raw in 0..40u64 {
            let b = Ballot::new(raw);
            assert_eq!(
                b.get(),
                b.session(n).get() * n as u64 + b.owner(n).as_u32() as u64
            );
        }
    }

    #[test]
    fn in_session_checks() {
        let b = Ballot::new(12);
        assert!(b.in_session(Session::new(2), 5)); // 12/5 = 2
        assert!(!b.in_session(Session::new(1), 5));
    }

    #[test]
    fn session_next() {
        assert_eq!(Session::ZERO.next(), Session::new(1));
        assert_eq!(Session::new(41).next(), Session::new(42));
    }

    #[test]
    fn display() {
        assert_eq!(Ballot::new(8).to_string(), "b8");
        assert_eq!(Session::new(2).to_string(), "s2");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn session_panics_on_zero_n() {
        let _ = Ballot::new(3).session(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn next_session_rejects_foreign_process() {
        let _ = Ballot::new(3).next_session(ProcessId::new(9), 5);
    }
}
