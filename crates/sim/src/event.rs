//! The deterministic event queue.
//!
//! Events are ordered by `(time, sequence)`: the sequence number breaks
//! same-instant ties in insertion order, making every run a deterministic
//! function of the seed.
//!
//! Two hot-path design points (this queue sits under every simulated
//! message):
//!
//! * A broadcast is **one queue record**: [`EventQueue::push_fanout`]
//!   stores the payload once with a count of its surviving recipients and
//!   gives each recipient only a 16-byte key; `pop` rebuilds the
//!   `Deliver` event, cloning the [`MsgPayload`] (a memcpy for flat
//!   messages, one `Arc` bump for heap-owning ones) and moving it out for
//!   the last recipient.
//! * The queue keeps an O(1) count of pending *control* events (boots and
//!   client submissions), so the simulator's completion check does not scan
//!   the heap per step.

use crate::time::SimTime;
use esync_core::types::{ProcessId, TimerId, Value};
use esync_core::wab::WabMessage;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// A protocol message in flight: owned (unicast) or shared among the
/// recipients of one broadcast.
#[derive(Debug, Clone, PartialEq)]
pub enum MsgPayload<M> {
    /// A unicast message, owned by its single delivery event.
    Owned(M),
    /// One broadcast payload, shared by every recipient's delivery event.
    Shared(Arc<M>),
}

impl<M> MsgPayload<M> {
    /// Borrows the message (what [`esync_core::outbox::Process::on_message`]
    /// consumes).
    pub fn get(&self) -> &M {
        match self {
            MsgPayload::Owned(m) => m,
            MsgPayload::Shared(m) => m,
        }
    }
}

impl<M> From<M> for MsgPayload<M> {
    fn from(m: M) -> Self {
        MsgPayload::Owned(m)
    }
}

/// What happens when an event fires.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind<M> {
    /// Start the process if it never ran, otherwise restart it.
    Boot {
        /// The (re)starting process.
        pid: ProcessId,
    },
    /// Crash the process (loses timers; state survives).
    Crash {
        /// The crashing process.
        pid: ProcessId,
    },
    /// Deliver a protocol message.
    Deliver {
        /// The sender.
        from: ProcessId,
        /// The recipient.
        to: ProcessId,
        /// The message (owned or broadcast-shared).
        msg: MsgPayload<M>,
    },
    /// Fire a timer if its epoch is still current.
    TimerFire {
        /// The timer's owner.
        pid: ProcessId,
        /// The protocol-chosen timer id.
        timer: TimerId,
        /// The epoch at scheduling time; stale epochs are ignored.
        epoch: u64,
    },
    /// The idealized weak-ordering oracle w-delivers a message.
    WabDeliver {
        /// The recipient.
        to: ProcessId,
        /// The oracle message.
        msg: WabMessage,
    },
    /// The idealized election oracle computes and fans out its choice.
    LeaderAnnounce,
    /// The idealized election oracle informs one process.
    LeaderChange {
        /// The recipient.
        to: ProcessId,
        /// The elected leader.
        leader: ProcessId,
    },
    /// An application submits a command.
    ClientSubmit {
        /// The receiving process.
        pid: ProcessId,
        /// The command.
        value: Value,
    },
}

impl<M> EventKind<M> {
    /// Whether this event can wake further protocol activity on its own
    /// (a boot or a client submission): the completion check must wait for
    /// these even when every live process has decided.
    fn is_control(&self) -> bool {
        matches!(
            self,
            EventKind::Boot { .. } | EventKind::ClientSubmit { .. }
        )
    }
}

/// An event with its firing time and tie-breaking sequence number.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<M> {
    /// When the event fires.
    pub at: SimTime,
    /// Insertion order; breaks same-instant ties.
    pub seq: u64,
    /// What fires.
    pub kind: EventKind<M>,
}

/// A compact event key: 16 bytes regardless of the message type, so the
/// time-ordering structures move small fixed-size entries instead of full
/// event payloads (which can be several cache lines for rich message
/// enums). `seq` is the tie-breaker, truncated to 32 bits (a single run
/// schedules far fewer than 2³² events — enforced in `schedule`). `slot`
/// addresses the payload: a slab index, or — with [`FAN_BIT`] set — a
/// fan-out record index in the low [`FAN_REC_BITS`] bits with the
/// recipient packed above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapKey {
    at: SimTime,
    seq: u32,
    slot: u32,
}

/// Marks a key whose `slot` addresses a fan-out record.
const FAN_BIT: u32 = 1 << 31;
/// Bits of a fan-out key's `slot` holding the record index (2²⁰ broadcasts
/// in flight); the 11 bits between them and [`FAN_BIT`] hold the recipient
/// (n ≤ 2048). A broadcast that fits neither falls back to one slab entry
/// per recipient.
const FAN_REC_BITS: u32 = 20;
const FAN_REC_LIMIT: u32 = 1 << FAN_REC_BITS;
const FAN_TO_LIMIT: u32 = 1 << (31 - FAN_REC_BITS);

/// One broadcast in flight: the payload stored once for the `live`
/// recipients whose keys still sit in the time structures.
#[derive(Debug)]
struct FanRecord<M> {
    from: ProcessId,
    live: u32,
    msg: Option<MsgPayload<M>>,
}

impl HeapKey {
    #[inline]
    fn order(&self) -> (SimTime, u32) {
        (self.at, self.seq)
    }
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, the far spill wants
        // earliest-first.
        other.order().cmp(&self.order())
    }
}

/// Number of ring buckets (power of two). With the default bucket width
/// this covers a comfortable multiple of the longest routinely scheduled
/// delay; later events go to the far spill heap.
const RING_BUCKETS: usize = 1024;

/// What a ring bucket reserves when first touched. Measured on the world's
/// runs (δ/16 buckets): a bucket peaks at 28 keys (448 B) at n = 5 and at
/// 330–390 keys (≈ 6 KiB) under chaos at n = 33, and grown buckets keep
/// their buffers for the rest of the run and across `reset`, so the hint
/// only spares the smallest doublings: hints from 512 B to 32 KiB moved
/// neither ns per event (106–117 in every case) nor peak RSS (< 0.6%).
const BUCKET_HINT_BYTES: usize = 512;

/// Pushes between adaptive re-bucketing checks (see
/// [`EventQueue::set_adaptive`]): long enough to see a workload's real
/// scheduling horizon, short enough to react within a warmup.
const ADAPT_WINDOW: u32 = 4096;

/// The bucket span the adaptive target aims the observed horizon at:
/// half the ring, so a steady workload sits comfortably inside the
/// horizon with room for jitter before events spill far.
const ADAPT_TARGET_SPAN: u64 = (RING_BUCKETS as u64) / 2;

/// A min-queue of [`ScheduledEvent`]s ordered by `(time, seq)`.
///
/// Internally a **two-level calendar queue** — the classic discrete-event
/// simulation structure — rather than a binary heap, because heap sift
/// paths over thousands of pending events dominate simulator runtime:
///
/// * Event payloads live in a slab with a free-list (unicasts, timers,
///   control events) or in a fan-out record shared by a broadcast's
///   recipients; the time structures move only compact 16-byte keys.
/// * Near-future events hash into a ring of `RING_BUCKETS` time buckets
///   of `bucket_width` nanoseconds each. A push is O(1); a bucket is
///   sorted once, when the clock reaches it.
/// * Events beyond the ring's horizon go to a small binary-heap spill and
///   migrate into the ring as it advances (each advance exposes exactly
///   one new absolute bucket).
///
/// Pop order is *exactly* ascending `(time, seq)` — bit-identical to the
/// binary-heap implementation it replaces (`queue_matches_reference_heap`
/// below checks this differentially).
#[derive(Debug)]
pub struct EventQueue<M> {
    slab: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
    /// Broadcasts in flight ([`EventQueue::push_fanout`]) and the free-list
    /// of their recycled indices.
    fan: Vec<FanRecord<M>>,
    fan_free: Vec<u32>,
    next_seq: u64,
    control_pending: usize,
    len: usize,
    /// log2 of the bucket width in nanoseconds.
    width_shift: u32,
    /// Absolute index (`at >> width_shift`) of the bucket currently being
    /// drained; every earlier bucket is empty.
    base_idx: u64,
    /// The current bucket's remaining events, sorted **descending** by
    /// `(time, seq)` so the minimum pops from the back in O(1).
    cur: Vec<HeapKey>,
    /// Unsorted buckets for absolute indices `base_idx+1 .. base_idx+RING_BUCKETS`;
    /// slot `i` holds exactly the events of absolute bucket `i & (RING_BUCKETS-1)`…
    /// i.e. of the unique in-horizon absolute index mapping to it.
    ring: Vec<Vec<HeapKey>>,
    /// Total events currently in `cur` + `ring` (excludes `far`).
    near_len: usize,
    /// Events at or beyond the ring horizon.
    far: BinaryHeap<HeapKey>,
    /// Whether the bucket width re-sizes itself from the observed
    /// scheduling horizon (default on; see [`EventQueue::set_adaptive`]).
    adaptive: bool,
    /// Pushes since the last adaptation check.
    pushes_since_check: u32,
    /// Largest push horizon (firing time minus the drain front) seen in
    /// the current window, in nanoseconds.
    max_horizon_ns: u64,
    /// Pushes in the current window that landed in the far heap — the
    /// symptom the widening rule exists to cure.
    far_pushes: u32,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        // ~1ms buckets: right for the repo's default δ = 10ms experiments
        // and harmless otherwise (correctness never depends on the width).
        EventQueue::with_bucket_width_shift(20, 0)
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Creates an empty queue with pre-allocated space for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue::with_bucket_width_shift(20, cap)
    }

    /// Creates a queue whose ring buckets are `2^shift` nanoseconds wide,
    /// pre-allocating `cap` slab slots. The simulator picks the shift
    /// from `δ` so that in-flight messages spread across many buckets.
    /// All tunable state is initialized by [`EventQueue::reset`], the
    /// single source of the shift clamp and sizing formulas.
    pub fn with_bucket_width_shift(shift: u32, cap: usize) -> Self {
        let mut queue = EventQueue {
            slab: Vec::new(),
            free: Vec::with_capacity(cap),
            fan: Vec::new(),
            fan_free: Vec::new(),
            next_seq: 0,
            control_pending: 0,
            len: 0,
            width_shift: 0,
            base_idx: 0,
            cur: Vec::new(),
            ring: (0..RING_BUCKETS).map(|_| Vec::new()).collect(),
            near_len: 0,
            far: BinaryHeap::new(),
            adaptive: true,
            pushes_since_check: 0,
            max_horizon_ns: 0,
            far_pushes: 0,
        };
        queue.reset(shift, cap);
        queue
    }

    /// Enables or disables **adaptive re-bucketing** (on by default).
    ///
    /// The construction-time width is a guess (the simulator derives it
    /// from `δ/16`); a workload whose timers or submissions land far
    /// beyond `RING_BUCKETS` widths keeps missing the ring and churns
    /// through the far heap — a binary heap with extra steps. When
    /// adaptive, the queue tracks the largest push horizon (firing time
    /// minus the drain front) per adaptation window (4096 pushes) and
    /// re-buckets so that horizon spans about half the ring: it
    /// widens as soon as pushes actually spill far, narrows (restoring
    /// small per-bucket sorts) only on a large margin, so the width
    /// never flaps. Re-bucketing re-places pending keys but never
    /// reorders pops — order is `(time, seq)` regardless of bucket
    /// geometry, so runs stay bit-identical either way (the differential
    /// tests drive both modes).
    pub fn set_adaptive(&mut self, on: bool) {
        self.adaptive = on;
        self.pushes_since_check = 0;
        self.max_horizon_ns = 0;
        self.far_pushes = 0;
    }

    /// The current `log2` bucket width in nanoseconds (observability for
    /// tests and benches; adaptation may move it at any push).
    pub fn bucket_width_shift(&self) -> u32 {
        self.width_shift
    }

    /// Empties the queue and re-anchors it at time zero with a (possibly
    /// new) bucket width, **keeping every allocation**: the payload slab,
    /// the free list, the ring buckets and the far heap all retain their
    /// capacity, and the fan-out records theirs. This is the engine under
    /// `World::reset` — a sweep reuses one queue across thousands of runs
    /// instead of regrowing it per seed. `cap` sizes the slab only
    /// (unicasts, timers, control events). Behavior after
    /// `reset(shift, cap)` is indistinguishable from a fresh
    /// `with_bucket_width_shift(shift, cap)`.
    pub fn reset(&mut self, shift: u32, cap: usize) {
        let shift = shift.clamp(10, 40);
        self.slab.clear();
        self.free.clear();
        self.fan.clear();
        self.fan_free.clear();
        if self.slab.capacity() < cap {
            self.slab.reserve(cap);
        }
        self.next_seq = 0;
        self.control_pending = 0;
        self.len = 0;
        self.width_shift = shift;
        self.base_idx = 0;
        self.cur.clear();
        for bucket in &mut self.ring {
            bucket.clear();
        }
        self.near_len = 0;
        self.far.clear();
        self.pushes_since_check = 0;
        self.max_horizon_ns = 0;
        self.far_pushes = 0;
    }

    #[inline]
    fn bucket_of(&self, at: SimTime) -> u64 {
        at.as_nanos() >> self.width_shift
    }

    /// Schedules `kind` at `at`; returns the assigned sequence number.
    pub fn push(&mut self, at: SimTime, kind: EventKind<M>) -> u64 {
        if kind.is_control() {
            self.control_pending += 1;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(kind);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len())
                    .ok()
                    .filter(|slot| slot & FAN_BIT == 0)
                    .expect("fewer than 2^31 live events");
                self.slab.push(Some(kind));
                slot
            }
        };
        self.schedule(at, slot)
    }

    /// Schedules one `Deliver { from, to, msg }` per `(to, at)` of
    /// `recipients`, in iteration order — the same events, sequence numbers
    /// and pop order as one [`EventQueue::push`] each — storing the payload
    /// **once**. Returns how many recipients there were.
    pub fn push_fanout(
        &mut self,
        from: ProcessId,
        msg: MsgPayload<M>,
        recipients: impl IntoIterator<Item = (ProcessId, SimTime)>,
    ) -> usize
    where
        M: Clone,
    {
        let recycled = self.fan_free.pop();
        let rec = recycled.unwrap_or(self.fan.len() as u32);
        let (mut live, mut fallen_back) = (0u32, 0usize);
        for (to, at) in recipients {
            if rec < FAN_REC_LIMIT && to.as_u32() < FAN_TO_LIMIT {
                self.schedule(at, FAN_BIT | to.as_u32() << FAN_REC_BITS | rec);
                live += 1;
            } else {
                let msg = msg.clone();
                self.push(at, EventKind::Deliver { from, to, msg });
                fallen_back += 1;
            }
        }
        if live == 0 {
            // Nobody holds a key into the record: recycle it unfilled.
            self.fan_free.extend(recycled);
        } else {
            let record = FanRecord {
                from,
                live,
                msg: Some(msg),
            };
            match recycled {
                Some(rec) => self.fan[rec as usize] = record,
                None => self.fan.push(record),
            }
        }
        live as usize + fallen_back
    }

    /// Assigns the next sequence number to a key for `slot` firing at `at`
    /// and places it in the time structures; returns the sequence number.
    fn schedule(&mut self, at: SimTime, slot: u32) -> u64 {
        let seq64 = self.next_seq;
        self.next_seq += 1;
        let seq = u32::try_from(seq64).expect("fewer than 2^32 events per run");
        let key = HeapKey { at, seq, slot };
        let idx = self.bucket_of(at);
        // Horizon sample for adaptation, taken against the drain point
        // *before* any empty-queue re-anchor below: the distance from the
        // current drain time to the pushed instant is the in-flight span
        // the bucket geometry has to cover.
        let drain_ns = self.base_idx << self.width_shift;
        self.len += 1;
        if self.len == 1 {
            // Empty queue: re-anchor the ring at this event's bucket.
            self.base_idx = idx;
        }
        if idx <= self.base_idx {
            // Into the bucket currently being drained — or an earlier one
            // (legal as long as nothing later was popped, e.g. scheduling
            // a time-0 boot after a later crash): `cur` is the sorted
            // front run holding every pending event at or before the base
            // bucket (descending, minimum at the back), so ordering
            // against the ring (strictly later buckets) is preserved.
            let pos = self.cur.partition_point(|k| k.order() > key.order());
            self.cur.insert(pos, key);
            self.near_len += 1;
        } else if idx - self.base_idx < RING_BUCKETS as u64 {
            self.ring_push(idx, key);
        } else {
            self.far.push(key);
            self.far_pushes += 1;
        }
        if self.adaptive {
            self.max_horizon_ns = self
                .max_horizon_ns
                .max(at.as_nanos().saturating_sub(drain_ns));
            self.pushes_since_check += 1;
            if self.pushes_since_check >= ADAPT_WINDOW {
                self.maybe_adapt();
            }
        }
        seq64
    }

    /// Appends `key` to the ring bucket of absolute index `idx`.
    fn ring_push(&mut self, idx: u64, key: HeapKey) {
        let bucket = &mut self.ring[(idx as usize) & (RING_BUCKETS - 1)];
        if bucket.capacity() == 0 {
            bucket.reserve(BUCKET_HINT_BYTES / std::mem::size_of::<HeapKey>());
        }
        bucket.push(key);
        self.near_len += 1;
    }

    /// Closes an adaptation window: picks the bucket width that makes the
    /// window's largest observed horizon span ~[`ADAPT_TARGET_SPAN`]
    /// buckets, and re-buckets when the current width is off — eagerly
    /// when too narrow *and* pushes are demonstrably spilling far, only
    /// past a two-shift hysteresis margin when too wide (over-wide
    /// buckets merely cost larger per-bucket sorts, so narrowing can
    /// afford to be patient and flap-free).
    fn maybe_adapt(&mut self) {
        self.pushes_since_check = 0;
        let horizon = std::mem::take(&mut self.max_horizon_ns);
        let far_pushes = std::mem::take(&mut self.far_pushes);
        let ideal = (horizon / ADAPT_TARGET_SPAN).max(1).ilog2().clamp(10, 40);
        let too_narrow = ideal > self.width_shift && far_pushes > ADAPT_WINDOW / 64;
        let too_wide = ideal + 2 < self.width_shift;
        if too_narrow || too_wide {
            self.rebucket(ideal);
        }
    }

    /// Re-places every pending key under a new bucket width, re-anchoring
    /// the ring at the earliest pending bucket. Placement is geometry,
    /// not order: pops stay exactly ascending `(time, seq)` across the
    /// rebuild (`adaptive_queue_matches_reference_heap` checks this
    /// differentially through repeated re-bucketings).
    fn rebucket(&mut self, new_shift: u32) {
        let mut keys: Vec<HeapKey> = Vec::with_capacity(self.len);
        keys.append(&mut self.cur);
        for bucket in &mut self.ring {
            keys.append(bucket);
        }
        keys.extend(self.far.drain());
        self.near_len = 0;
        self.width_shift = new_shift;
        let Some(min_at) = keys.iter().map(|k| k.at).min() else {
            return;
        };
        self.base_idx = self.bucket_of(min_at);
        for key in keys {
            let idx = self.bucket_of(key.at);
            if idx <= self.base_idx {
                self.cur.push(key);
                self.near_len += 1;
            } else if idx - self.base_idx < RING_BUCKETS as u64 {
                self.ring_push(idx, key);
            } else {
                self.far.push(key);
            }
        }
        // `cur` is the sorted front run (descending, minimum at the back).
        self.cur
            .sort_unstable_by_key(|k| std::cmp::Reverse(k.order()));
    }

    /// Advances `base_idx` to the next non-empty bucket, loading and
    /// sorting it into `cur`. Caller guarantees the queue is non-empty and
    /// `cur` is exhausted.
    fn advance(&mut self) {
        debug_assert!(self.cur.is_empty());
        if self.near_len == 0 {
            // Everything pending lives in the far heap: jump the ring
            // forward to the earliest far bucket, then migrate its horizon.
            let min_at = self.far.peek().expect("queue non-empty").at;
            self.base_idx = self.bucket_of(min_at);
            self.migrate_far();
        }
        loop {
            // Expose the bucket at `base_idx`; its ring slot holds exactly
            // the events of this absolute index (see `push`).
            let slot = (self.base_idx as usize) & (RING_BUCKETS - 1);
            if !self.ring[slot].is_empty() {
                std::mem::swap(&mut self.cur, &mut self.ring[slot]);
                // Descending sort: minimum (time, seq) at the back.
                self.cur
                    .sort_unstable_by_key(|k| std::cmp::Reverse(k.order()));
                return;
            }
            self.base_idx += 1;
            self.migrate_far();
        }
    }

    /// Moves far events whose bucket just entered the ring horizon
    /// (`base_idx + RING_BUCKETS - 1`) into their ring slot — called once
    /// per `base_idx` advance, so each exposure is handled exactly once.
    fn migrate_far(&mut self) {
        let horizon_end = self.base_idx + RING_BUCKETS as u64;
        while let Some(k) = self.far.peek() {
            let idx = self.bucket_of(k.at);
            debug_assert!(idx >= self.base_idx);
            if idx >= horizon_end {
                break;
            }
            let k = self.far.pop().expect("peeked");
            self.ring_push(idx, k);
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<M>>
    where
        M: Clone,
    {
        if self.len == 0 {
            return None;
        }
        if self.cur.is_empty() {
            self.advance();
        }
        let key = self.cur.pop().expect("advance found a non-empty bucket");
        self.near_len -= 1;
        self.len -= 1;
        let kind = if key.slot & FAN_BIT != 0 {
            let rec = key.slot & (FAN_REC_LIMIT - 1);
            let record = &mut self.fan[rec as usize];
            record.live -= 1;
            let msg = if record.live == 0 {
                self.fan_free.push(rec);
                record.msg.take()
            } else {
                record.msg.clone()
            };
            EventKind::Deliver {
                from: record.from,
                to: ProcessId::new((key.slot & !FAN_BIT) >> FAN_REC_BITS),
                msg: msg.expect("a live fan-out record holds its payload"),
            }
        } else {
            let kind = self.slab[key.slot as usize]
                .take()
                .expect("key points at a live slab slot");
            self.free.push(key.slot);
            if kind.is_control() {
                self.control_pending -= 1;
            }
            kind
        };
        Some(ScheduledEvent {
            at: key.at,
            seq: u64::from(key.seq),
            kind,
        })
    }

    /// The firing time of the earliest event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if self.cur.is_empty() {
            self.advance();
        }
        self.cur.last().map(|k| k.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pending control events (boots and client submissions),
    /// maintained incrementally — O(1).
    pub fn control_pending(&self) -> usize {
        self.control_pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boot(pid: u32) -> EventKind<()> {
        EventKind::Boot {
            pid: ProcessId::new(pid),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(3), boot(3));
        q.push(SimTime::from_millis(1), boot(1));
        q.push(SimTime::from_millis(2), boot(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_pops_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..10u32 {
            q.push(t, boot(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Boot { pid } => pid.as_u32(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_is_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(5), boot(0));
        q.push(SimTime::from_millis(2), boot(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn seq_numbers_are_unique_and_increasing() {
        let mut q = EventQueue::<()>::new();
        let a = q.push(SimTime::ZERO, boot(0));
        let b = q.push(SimTime::ZERO, boot(1));
        assert!(b > a);
    }

    #[test]
    fn control_pending_tracks_boots_and_submits() {
        let mut q = EventQueue::<()>::new();
        assert_eq!(q.control_pending(), 0);
        q.push(SimTime::ZERO, boot(0));
        q.push(
            SimTime::ZERO,
            EventKind::ClientSubmit {
                pid: ProcessId::new(0),
                value: Value::new(1),
            },
        );
        q.push(
            SimTime::ZERO,
            EventKind::Crash {
                pid: ProcessId::new(0),
            },
        );
        assert_eq!(q.control_pending(), 2);
        while q.pop().is_some() {}
        assert_eq!(q.control_pending(), 0);
    }

    #[test]
    fn shared_payload_borrows_one_allocation() {
        let arc = Arc::new(vec![1u8, 2, 3]);
        let a = MsgPayload::Shared(Arc::clone(&arc));
        let b = MsgPayload::Shared(Arc::clone(&arc));
        assert_eq!(a.get(), b.get());
        assert_eq!(Arc::strong_count(&arc), 3);
        let owned: MsgPayload<u32> = 7u32.into();
        assert_eq!(*owned.get(), 7);
    }

    fn deliver(from: u32, to: u32, msg: u64) -> EventKind<u64> {
        EventKind::Deliver {
            from: ProcessId::new(from),
            to: ProcessId::new(to),
            msg: MsgPayload::Owned(msg),
        }
    }

    /// Differential check of the fan-out path: `push_fanout` must be
    /// indistinguishable from one `push` per recipient — same sequence
    /// numbers, same pop order, same `from`/`to`/payload — against the
    /// reference sorted map, with unicasts and control events interleaved,
    /// adaptive re-bucketing and far-heap migration happening while
    /// fan-outs are in flight, and `len`/`control_pending` exact throughout.
    #[test]
    fn fanout_matches_one_push_per_recipient() {
        use std::collections::BTreeMap;
        let (mut adapted, mut fanned) = (false, 0usize);
        for trial in 0u64..4 {
            let mut x = 0xa076_1d64_78bd_642fu64.wrapping_mul(trial + 1);
            let mut rand = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut q: EventQueue<u64> = EventQueue::with_bucket_width_shift(12, 0);
            let mut reference: BTreeMap<(SimTime, u64), EventKind<u64>> = BTreeMap::new();
            let (mut now, mut payload, mut control) = (0u64, 0u64, 0usize);
            let delay = |r: u64| match r % 7 {
                0 => 0,
                1 => 1 + r % 100,
                2..=4 => r % (1 << 18),
                // Beyond the initial 4096-wide ring: spills far, then adapts.
                5 => r % (1 << 28),
                _ => r % (1 << 33),
            };
            for _ in 0..5_000 {
                let r = rand();
                payload += 1;
                match r % 8 {
                    _ if reference.is_empty() => {}
                    0..=2 => {
                        let got = q.pop().expect("reference non-empty");
                        let ((at, seq), want) = reference.pop_first().unwrap();
                        assert_eq!((got.at, got.seq), (at, seq), "trial {trial}");
                        assert_eq!(got.kind, want, "trial {trial}");
                        control -= usize::from(want.is_control());
                        now = at.as_nanos();
                        continue;
                    }
                    3 => {
                        let at = SimTime::from_nanos(now + delay(rand()));
                        let kind = if r & 8 == 0 {
                            deliver(1, 2, payload)
                        } else {
                            EventKind::ClientSubmit {
                                pid: ProcessId::new(0),
                                value: Value::new(payload),
                            }
                        };
                        control += usize::from(kind.is_control());
                        let seq = q.push(at, kind.clone());
                        reference.insert((at, seq), kind);
                        continue;
                    }
                    _ => {}
                }
                // A broadcast from `from` whose recipients each survive
                // with probability 5/8 (possibly none).
                let from = (r >> 8) as u32 % 33;
                let first_seq = q.next_seq;
                let recipients: Vec<(ProcessId, SimTime)> = (0..33u32)
                    .filter_map(|to| {
                        let r = rand();
                        let at = SimTime::from_nanos(now + delay(r >> 3));
                        (r % 8 < 5).then_some((ProcessId::new(to), at))
                    })
                    .collect();
                let scheduled = q.push_fanout(
                    ProcessId::new(from),
                    MsgPayload::Owned(payload),
                    recipients.clone(),
                );
                assert_eq!(scheduled, recipients.len());
                fanned += scheduled;
                for (i, (to, at)) in recipients.into_iter().enumerate() {
                    let kind = deliver(from, to.as_u32(), payload);
                    assert!(reference.insert((at, first_seq + i as u64), kind).is_none());
                }
                assert_eq!((q.len(), q.control_pending()), (reference.len(), control));
            }
            adapted |= q.bucket_width_shift() != 12;
            while let Some(got) = q.pop() {
                let ((at, seq), want) = reference.pop_first().unwrap();
                assert_eq!(
                    (got.at, got.seq, got.kind),
                    (at, seq, want),
                    "drain, trial {trial}"
                );
            }
            assert!(reference.is_empty());
            assert_eq!((q.len(), q.control_pending()), (0, 0));
            // Every record was recycled: none is left holding a payload.
            assert_eq!(q.fan_free.len(), q.fan.len());
        }
        assert!(
            adapted,
            "wide horizons must re-bucket with fan-outs in flight"
        );
        assert!(
            fanned > 10_000,
            "fan-outs must dominate the trial: {fanned}"
        );
    }

    #[test]
    fn fanout_without_survivors_recycles_its_record() {
        let mut q: EventQueue<Arc<u8>> = EventQueue::new();
        let held = Arc::new(7u8);
        let msg = || MsgPayload::Owned(Arc::clone(&held));
        assert_eq!(q.push_fanout(ProcessId::new(0), msg(), []), 0);
        assert_eq!((q.len(), q.fan.len(), Arc::strong_count(&held)), (0, 0, 1));
        // One live record; a drained record's index is handed out again —
        // also to a fan-out nobody survives, which must give it back.
        let to = |p: u32| (ProcessId::new(p), SimTime::from_millis(1));
        assert_eq!(q.push_fanout(ProcessId::new(0), msg(), [to(1), to(2)]), 2);
        assert!(q.pop().is_some() && q.pop().is_some());
        assert_eq!(q.push_fanout(ProcessId::new(0), msg(), []), 0);
        assert_eq!(q.push_fanout(ProcessId::new(0), msg(), [to(3)]), 1);
        assert_eq!((q.len(), q.fan.len(), q.fan_free.len()), (1, 1, 0));
    }

    #[test]
    fn fanout_payload_is_released_by_the_last_pop_and_by_reset() {
        let held = Arc::new(vec![1u8, 2, 3]);
        let mut q: EventQueue<Vec<u8>> = EventQueue::new();
        let to = |p: u32| (ProcessId::new(p), SimTime::from_millis(u64::from(p)));
        let shared = || MsgPayload::Shared(Arc::clone(&held));
        q.push_fanout(ProcessId::new(9), shared(), [to(1), to(2), to(3)]);
        assert_eq!(
            Arc::strong_count(&held),
            2,
            "one reference for three recipients"
        );
        for p in 1..=3u32 {
            let got = q.pop().expect("three recipients").kind;
            let want = EventKind::Deliver {
                from: ProcessId::new(9),
                to: ProcessId::new(p),
                msg: shared(),
            };
            assert_eq!(got, want);
            // A popped event holds its own reference until it is dropped;
            // the queue's goes with the last recipient.
            drop((got, want));
            assert_eq!(Arc::strong_count(&held), if p < 3 { 2 } else { 1 });
        }
        q.push_fanout(ProcessId::new(9), shared(), [to(1), to(2)]);
        q.pop();
        assert_eq!(Arc::strong_count(&held), 2);
        q.reset(20, 0);
        assert_eq!(Arc::strong_count(&held), 1, "reset drops pending records");
        assert!(q.is_empty() && q.pop().is_none());
    }

    #[test]
    fn fanout_falls_back_to_slab_entries_for_unpackable_recipients() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let at = SimTime::from_millis(1);
        let wide = ProcessId::new(FAN_TO_LIMIT + 5);
        let n = q.push_fanout(
            ProcessId::new(1),
            MsgPayload::Owned(42),
            [(ProcessId::new(3), at), (wide, at)],
        );
        assert_eq!((n, q.len()), (2, 2));
        let got: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.seq, e.kind))
            .collect();
        assert_eq!(
            got,
            vec![(0, deliver(1, 3, 42)), (1, deliver(1, wide.as_u32(), 42))]
        );
    }

    #[test]
    fn with_capacity_preallocates() {
        let q = EventQueue::<()>::with_capacity(64);
        assert!(q.is_empty());
        assert_eq!(q.control_pending(), 0);
    }

    #[test]
    fn reset_behaves_like_fresh_queue() {
        let mut q = EventQueue::<()>::with_bucket_width_shift(14, 32);
        for i in 0..50u32 {
            q.push(SimTime::from_micros(u64::from(i) * 37), boot(i));
        }
        for _ in 0..20 {
            q.pop();
        }
        q.reset(20, 64);
        assert!(q.is_empty());
        assert_eq!(q.control_pending(), 0);
        // Sequence numbers restart at zero; order is exact again.
        let seq = q.push(SimTime::from_millis(2), boot(1));
        assert_eq!(seq, 0);
        q.push(SimTime::from_millis(1), boot(0));
        assert_eq!(q.pop().unwrap().at, SimTime::from_millis(1));
        assert_eq!(q.pop().unwrap().at, SimTime::from_millis(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn adaptive_widening_pulls_far_pushes_into_the_ring() {
        // Narrow 2^14ns buckets cover a 16.8ms ring horizon; a workload
        // whose delays reach seconds keeps spilling far until the
        // adaptive rule widens the width to fit.
        let mut q: EventQueue<()> = EventQueue::with_bucket_width_shift(14, 0);
        assert_eq!(q.bucket_width_shift(), 14);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Two pushes per pop keeps thousands of timers in flight, spread
        // over a ~4.3s horizon — far beyond the 16.8ms ring span at 2^14.
        let mut now = 0u64;
        for i in 0..2 * ADAPT_WINDOW {
            let at = SimTime::from_nanos(now + rand() % (1 << 32));
            q.push(at, boot(0));
            if i % 2 == 0 {
                now = q.pop().map_or(now, |e| e.at.as_nanos());
            }
        }
        let widened = q.bucket_width_shift();
        assert!(widened > 14, "width adapted up from 14: {widened}");
        // ~4.3s horizon over 512 target buckets → ~2^23ns buckets.
        assert!((20..=26).contains(&widened), "sane target: {widened}");
        // Fixed mode never moves.
        let mut fixed: EventQueue<()> = EventQueue::with_bucket_width_shift(14, 0);
        fixed.set_adaptive(false);
        let mut now = 0u64;
        for i in 0..2 * ADAPT_WINDOW {
            let at = SimTime::from_nanos(now + rand() % (1 << 32));
            fixed.push(at, boot(0));
            if i % 2 == 0 {
                now = fixed.pop().map_or(now, |e| e.at.as_nanos());
            }
        }
        assert_eq!(fixed.bucket_width_shift(), 14);
    }

    /// Differential check through live re-bucketing: long trials with
    /// wide (multi-second) horizons cross many adaptation windows, so
    /// pops must stay exactly `(time, seq)`-ordered across repeated
    /// width changes — and the widths must actually change.
    #[test]
    fn adaptive_queue_matches_reference_heap() {
        use std::collections::BTreeMap;
        let mut adapted = false;
        for trial in 0u64..4 {
            let mut x = 0xd134_2543_de82_ef95u64.wrapping_mul(trial + 1);
            let mut rand = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut q: EventQueue<u64> = EventQueue::with_bucket_width_shift(12, 0);
            let mut reference: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
            let mut now = 0u64;
            let mut payload = 0u64;
            for _ in 0..30_000 {
                let r = rand();
                let do_push = reference.is_empty() || r % 5 < 3;
                if do_push {
                    let delay = match r % 7 {
                        0 => 0,
                        1 => 1 + r % 100,
                        2..=4 => r % (1 << 18),
                        // Far beyond the initial 4096-wide ring: forces
                        // spill, then adaptation.
                        5 => r % (1 << 30),
                        _ => r % (1 << 34),
                    };
                    let at = SimTime::from_nanos(now + delay);
                    payload += 1;
                    let seq = q.push(
                        at,
                        EventKind::ClientSubmit {
                            pid: ProcessId::new(0),
                            value: Value::new(payload),
                        },
                    );
                    reference.insert((at, seq), payload);
                } else {
                    let got = q.pop().expect("reference non-empty");
                    let (&(at, seq), &val) = reference.iter().next().unwrap();
                    assert_eq!((got.at, got.seq), (at, seq), "trial {trial}");
                    match got.kind {
                        EventKind::ClientSubmit { value, .. } => {
                            assert_eq!(value.get(), val, "trial {trial}")
                        }
                        _ => unreachable!(),
                    }
                    reference.remove(&(at, seq));
                    now = at.as_nanos();
                }
            }
            adapted |= q.bucket_width_shift() != 12;
            while let Some(got) = q.pop() {
                let (&(at, seq), _) = reference.iter().next().unwrap();
                assert_eq!((got.at, got.seq), (at, seq), "drain, trial {trial}");
                reference.remove(&(at, seq));
            }
            assert!(reference.is_empty());
            assert_eq!(q.len(), 0);
        }
        assert!(adapted, "wide-horizon trials must exercise re-bucketing");
    }

    /// Differential check: the calendar queue pops in exactly the same
    /// `(time, seq)` order as a reference sorted structure, across many
    /// randomized interleavings of pushes and pops (including monotone
    /// "simulation-like" pushes relative to the last popped time, far-future
    /// outliers beyond the ring horizon, and same-instant bursts).
    #[test]
    fn queue_matches_reference_heap() {
        use std::collections::BTreeMap;
        for trial in 0u64..20 {
            let mut x = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(trial + 1);
            let mut rand = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut q: EventQueue<u64> = EventQueue::with_bucket_width_shift(14, 0);
            let mut reference: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
            let mut now = 0u64;
            let mut payload = 0u64;
            for _ in 0..3000 {
                let r = rand();
                let do_push = reference.is_empty() || r % 5 < 3;
                if do_push {
                    let delay = match r % 7 {
                        // Same instant, tiny, in-ring, and far-horizon delays.
                        0 => 0,
                        1 => 1 + r % 100,
                        2..=4 => r % (1 << 18),
                        5 => r % (1 << 22),
                        _ => r % (1 << 28),
                    };
                    let at = SimTime::from_nanos(now + delay);
                    payload += 1;
                    let seq = q.push(
                        at,
                        EventKind::ClientSubmit {
                            pid: ProcessId::new(0),
                            value: Value::new(payload),
                        },
                    );
                    reference.insert((at, seq), payload);
                } else {
                    let got = q.pop().expect("reference non-empty");
                    let (&(at, seq), &val) = reference.iter().next().unwrap();
                    assert_eq!((got.at, got.seq), (at, seq), "trial {trial}");
                    match got.kind {
                        EventKind::ClientSubmit { value, .. } => {
                            assert_eq!(value.get(), val, "trial {trial}")
                        }
                        _ => unreachable!(),
                    }
                    reference.remove(&(at, seq));
                    now = at.as_nanos();
                }
            }
            // Drain fully; order must stay exact.
            while let Some(got) = q.pop() {
                let (&(at, seq), _) = reference.iter().next().unwrap();
                assert_eq!((got.at, got.seq), (at, seq), "drain, trial {trial}");
                reference.remove(&(at, seq));
            }
            assert!(reference.is_empty());
            assert_eq!(q.len(), 0);
        }
    }
}
