//! The processes of a run: hot liveness flags as bitsets, the cold
//! per-process harness (state machine, clock, timers, fault history).

use crate::clock::DriftClock;
use crate::time::SimTime;
use esync_core::types::{ProcessId, TimerId, Value};

/// Per-timer bookkeeping enabling *lazy re-arming*.
///
/// Protocols re-arm timers constantly (the session timer resets on every
/// message). Pushing a heap event per re-arm floods the queue with stale
/// `TimerFire`s. Instead, each slot remembers its armed deadline; a re-arm
/// only pushes a heap event when no pending event fires early enough, and
/// a stale pop re-pushes for the currently armed deadline. The timer still
/// fires at exactly its armed instant.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct TimerSlot {
    /// Bumped on every (re-)arm, cancel, and crash; a popped `TimerFire`
    /// only fires if its epoch is current.
    pub(super) epoch: u64,
    /// The deadline the protocol most recently armed, if any.
    pub(super) armed_at: Option<SimTime>,
    /// Firing time of the earliest pending heap event for this timer
    /// (an event is guaranteed to pop at or before `armed_at` while armed).
    pub(super) next_pending: Option<SimTime>,
}

/// A fixed-capacity bitset over process indices — the structure-of-arrays
/// home of the event loop's hottest per-process flags. One cache line
/// covers 512 processes, so the per-event liveness check (`alive? started?`)
/// and the completion-scan debug assertion never touch the cold
/// `ProcHarness` (protocol state, clocks, fault history).
#[derive(Debug, Default)]
pub(super) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Clears all bits and resizes to cover `n` indices.
    pub(super) fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
    }

    #[inline]
    pub(super) fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    #[inline]
    pub(super) fn set(&mut self, i: usize, v: bool) {
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }
}

/// Per-process runtime envelope — the **cold** side of the per-process
/// state. The hot flags (`alive`, `started`) and the decision instants
/// live in parallel arrays beside it (see [`Procs`]), so the event loop
/// only dereferences a harness when it actually runs the process.
#[derive(Debug)]
pub(super) struct ProcHarness<Proc> {
    pub(super) proc: Proc,
    pub(super) clock: DriftClock,
    /// Timer slots, indexed by `TimerId::get()`. Protocols use single-digit
    /// constant ids, so this stays tiny and cache-resident.
    pub(super) timers: Vec<TimerSlot>,
    pub(super) decided_value: Option<Value>,
    pub(super) crash_times: Vec<SimTime>,
    pub(super) restart_times: Vec<SimTime>,
}

impl<Proc> ProcHarness<Proc> {
    pub(super) fn timer_slot(&mut self, timer: TimerId) -> &mut TimerSlot {
        let idx = timer.get() as usize;
        if idx >= self.timers.len() {
            self.timers.resize(idx + 1, TimerSlot::default());
        }
        &mut self.timers[idx]
    }
}

/// Every process of the run, with the per-process state the loop reads
/// on each event split from the state it reads only when a handler runs.
#[derive(Debug)]
pub(super) struct Procs<Proc> {
    pub(super) harness: Vec<ProcHarness<Proc>>,
    /// Hot per-process flags as parallel bitsets (SoA): checked on every
    /// deliver/timer/submit before the harness is touched.
    pub(super) alive: BitSet,
    pub(super) started: BitSet,
    /// Per-process first-decision instants, parallel to `harness`.
    pub(super) decided_at: Vec<Option<SimTime>>,
    /// Count of processes that are alive, started and undecided — the O(1)
    /// half of the completion check.
    pub(super) live_undecided: usize,
}

impl<Proc> Procs<Proc> {
    pub(super) fn new() -> Self {
        Procs {
            harness: Vec::new(),
            alive: BitSet::default(),
            started: BitSet::default(),
            decided_at: Vec::new(),
            live_undecided: 0,
        }
    }

    /// Whether `pid` is alive and started — the per-event liveness check,
    /// reading only the SoA bitsets.
    #[inline]
    pub(super) fn runnable(&self, pid: ProcessId) -> bool {
        let i = pid.as_usize();
        self.alive.get(i) && self.started.get(i)
    }
}
