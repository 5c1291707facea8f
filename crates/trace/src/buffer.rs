//! Time-stamped trace records and the bounded ring collector drivers
//! drain protocol [`TraceEvent`]s into.

use esync_core::trace::TraceEvent;
use esync_core::types::ProcessId;
use std::collections::VecDeque;

/// One stamped trace event: what happened ([`TraceEvent`]), where (the
/// process the driver was running), and when (driver time — simulated
/// nanoseconds in the simulator, monotonic nanoseconds since cluster
/// start in the threaded runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// The stamp, in nanoseconds on the driver's clock.
    pub at_ns: u64,
    /// The process that emitted the event.
    pub pid: ProcessId,
    /// The event itself.
    pub ev: TraceEvent,
}

/// A bounded ring buffer of [`TraceRecord`]s: pushes beyond the capacity
/// evict the **oldest** record (most-recent-wins, the useful tail for a
/// post-mortem) and count as dropped.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    cap: usize,
    records: VecDeque<TraceRecord>,
    dropped: u64,
}

impl TraceBuffer {
    /// Creates a collector holding at most `cap` records.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "a trace buffer needs room for at least one record");
        TraceBuffer {
            cap,
            records: VecDeque::with_capacity(cap.min(1 << 16)),
            dropped: 0,
        }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&mut self, record: TraceRecord) {
        if self.records.len() == self.cap {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }

    /// Records evicted by the ring since creation (or the last
    /// [`TraceBuffer::clear`]).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Takes the held records (oldest first), leaving the buffer empty
    /// but keeping the dropped tally.
    pub fn take_records(&mut self) -> Vec<TraceRecord> {
        self.records.drain(..).collect()
    }

    /// Empties the buffer and resets the dropped tally.
    pub fn clear(&mut self) {
        self.records.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ns: u64) -> TraceRecord {
        TraceRecord {
            at_ns,
            pid: ProcessId::new(0),
            ev: TraceEvent::Submit { value: at_ns },
        }
    }

    #[test]
    fn ring_keeps_the_newest_and_counts_drops() {
        let mut b = TraceBuffer::new(3);
        for i in 0..5 {
            b.push(rec(i));
        }
        assert_eq!(b.dropped(), 2);
        let kept: Vec<u64> = b.take_records().iter().map(|r| r.at_ns).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest evicted first");
        assert_eq!(b.take_records(), vec![], "taking empties the ring");
        assert_eq!(b.dropped(), 2, "taking keeps the tally");
        b.push(rec(5));
        b.clear();
        assert_eq!(b.take_records(), vec![]);
        assert_eq!(b.dropped(), 0);
    }
}
