//! Lamport logical clocks (reference \[8\] of the paper).
//!
//! The §5 oracle implementation timestamps every w-broadcast message with a
//! logical clock, guaranteeing that "after a process receives a message `m`,
//! all messages it sends have timestamps greater than that of `m`". Ties are
//! broken by process id, giving the total order the oracle delivers in.

use crate::types::ProcessId;
use core::fmt;

/// A logical timestamp with process-id tie-breaking.
///
/// Ordered lexicographically by `(time, pid)`, which is a total order on the
/// timestamps of distinct send events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp {
    /// The logical-clock reading.
    pub time: u64,
    /// The stamping process (tie-breaker).
    pub pid: ProcessId,
}

impl Timestamp {
    /// Creates a timestamp.
    pub fn new(time: u64, pid: ProcessId) -> Self {
        Timestamp { time, pid }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.time, self.pid)
    }
}

/// A Lamport logical clock owned by one process.
///
/// ```
/// use esync_core::lclock::LamportClock;
/// use esync_core::types::ProcessId;
///
/// let mut a = LamportClock::new(ProcessId::new(0));
/// let mut b = LamportClock::new(ProcessId::new(1));
/// let t1 = a.stamp_send();          // a sends m1 at (1, p0)
/// b.observe(t1);                     // b receives m1
/// let t2 = b.stamp_send();          // b's next send...
/// assert!(t2 > t1);                  // ...is ordered after m1
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LamportClock {
    pid: ProcessId,
    time: u64,
}

impl LamportClock {
    /// Creates a clock at logical time 0 for process `pid`.
    pub fn new(pid: ProcessId) -> Self {
        LamportClock { pid, time: 0 }
    }

    /// The current logical time (the last stamp issued or observed).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Advances the clock for a send event and returns the message's
    /// timestamp.
    pub fn stamp_send(&mut self) -> Timestamp {
        self.time += 1;
        Timestamp::new(self.time, self.pid)
    }

    /// Merges a received message's timestamp into the clock (receive event):
    /// the clock jumps to `max(local, received)`, so every subsequent send
    /// is stamped strictly greater than the received message.
    pub fn observe(&mut self, received: Timestamp) {
        self.time = self.time.max(received.time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_stamps_strictly_increase() {
        let mut c = LamportClock::new(ProcessId::new(0));
        let t1 = c.stamp_send();
        let t2 = c.stamp_send();
        assert!(t2 > t1);
        assert_eq!(t1.time, 1);
        assert_eq!(t2.time, 2);
    }

    #[test]
    fn observe_then_send_exceeds_received() {
        let mut a = LamportClock::new(ProcessId::new(0));
        let mut b = LamportClock::new(ProcessId::new(1));
        for _ in 0..5 {
            a.stamp_send();
        }
        let ta = a.stamp_send(); // time 6
        b.observe(ta);
        let tb = b.stamp_send();
        assert!(tb > ta, "{tb} should exceed {ta}");
        assert_eq!(tb.time, 7);
    }

    #[test]
    fn observe_smaller_timestamp_keeps_clock() {
        let mut a = LamportClock::new(ProcessId::new(0));
        a.stamp_send();
        a.stamp_send(); // time 2
        a.observe(Timestamp::new(1, ProcessId::new(1)));
        assert_eq!(a.time(), 2);
    }

    #[test]
    fn tie_break_by_pid() {
        let t0 = Timestamp::new(5, ProcessId::new(0));
        let t1 = Timestamp::new(5, ProcessId::new(1));
        assert!(t0 < t1);
        let t2 = Timestamp::new(4, ProcessId::new(9));
        assert!(t2 < t0, "time dominates pid");
    }

    #[test]
    fn causal_chain_is_monotone() {
        // m0 -> m1 -> m2 passed around a ring must have increasing stamps.
        let mut clocks: Vec<_> = (0..3)
            .map(|i| LamportClock::new(ProcessId::new(i)))
            .collect();
        let mut last = clocks[0].stamp_send();
        for hop in 1..10 {
            let next_idx = hop % 3;
            clocks[next_idx].observe(last);
            let t = clocks[next_idx].stamp_send();
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn display() {
        assert_eq!(Timestamp::new(3, ProcessId::new(1)).to_string(), "3.p1");
    }
}
