//! The deterministic event queue.
//!
//! Events are ordered by `(time, sequence)`: the sequence number breaks
//! same-instant ties in insertion order, making every run a deterministic
//! function of the seed.
//!
//! Three hot-path design points (this queue sits under every simulated
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
//! * A calendar bucket is put in order when the clock reaches it, and a
//!   large one without a comparison sort: one stable counting pass on the
//!   top bits of each key's offset inside the bucket, then an insertion
//!   pass that is exact on any input. An occupancy bitmap over the ring
//!   lets the clock jump over empty buckets instead of walking them.

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
/// A bucket's size also picks how it is ordered (see [`SMALL_BUCKET`]).
const BUCKET_HINT_BYTES: usize = 512;

/// Words of the ring's occupancy bitmap: bit `i % 64` of word `i / 64` is
/// set exactly when ring slot `i` holds a key.
const OCC_WORDS: usize = RING_BUCKETS / 64;

/// Buckets up to this many keys are ordered by `sort_unstable`. Per key,
/// on a 2-core Xeon, for random offsets in arrival order, `sort_unstable`
/// against the counting pass took 10.8 / 10.6 ns at 16 keys, 10.6 / 10.5
/// at 32, 10.5 / 6.9 at 64, 22.9 / 10.4 at 128 and 22.7 / 11.8 at 400:
/// no gain below ~48 keys. The world's buckets hold at most 32 keys at
/// n = 5 (`sim_log_s1`, `sim_group_s8`, `sim_failover_open_s4`) and mostly
/// 65–256, at most 410, at n = 33 under chaos (`sim_recover_n33`), so 64
/// keeps the first on the small sort and puts most of the second on the
/// counting pass.
const SMALL_BUCKET: usize = 64;

/// Most top-offset bits the counting pass splits a bucket by: it binds
/// only from 1 024 keys up, far above the world's buckets, and bounds the
/// counters at `2^10 + 1` (4 KiB). Fewer bits than `⌊log₂ n⌋ + 1` leave
/// several keys per digit for the insertion pass: at 400 keys, 6 and 8
/// bits took 21.4 and 15.3 ns per key against 11.8 at 9.
const MAX_DIGIT_BITS: u32 = 10;

/// Moves per key the insertion pass may make before it hands the bucket to
/// `sort_unstable`. After the stable counting pass a key moves only past
/// keys of its own digit that arrived earlier but order later. On random
/// offsets in arrival order that was at most 0.32 moves per key over 200
/// buckets each of 65, 128, 256, 400 and 1 000 keys, so the budget does
/// not run out on such buckets. It keeps a bucket whose keys all share
/// one digit at O(n log n) instead of O(n²).
const MOVE_BUDGET_PER_KEY: usize = 4;

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
///   of `bucket_width` nanoseconds each. A push is O(1); a bucket is put
///   in order once, when the clock reaches it: `sort_unstable` up to 64
///   keys, above that a counting pass on the top bits of the in-bucket
///   offset plus an insertion pass (linear on the buckets the simulator
///   makes, O(n log n) at worst).
/// * An occupancy bitmap over the ring marks its non-empty slots, so the
///   clock jumps to the next one with `trailing_zeros` instead of walking
///   every empty bucket.
/// * Events beyond the ring's horizon go to a small binary-heap spill and
///   migrate into the ring once per jump of the clock.
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
    /// The current bucket, sorted **ascending** by `(time, seq)`:
    /// `cur[head..]` are its pending events, `cur[..head]` popped ones.
    cur: Vec<HeapKey>,
    /// Read cursor into `cur`; the minimum pops from `cur[head]` in O(1).
    head: usize,
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
    /// Which ring slots are non-empty (see [`OCC_WORDS`]).
    occ: [u64; OCC_WORDS],
    /// Orders each bucket as the clock reaches it.
    sorter: BucketSorter,
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
            head: 0,
            ring: (0..RING_BUCKETS).map(|_| Vec::new()).collect(),
            near_len: 0,
            far: BinaryHeap::new(),
            adaptive: true,
            pushes_since_check: 0,
            max_horizon_ns: 0,
            far_pushes: 0,
            occ: [0; OCC_WORDS],
            sorter: BucketSorter {
                spare: Vec::new(),
                counts: vec![0; (1 << MAX_DIGIT_BITS) + 1],
            },
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
        self.head = 0;
        for bucket in &mut self.ring {
            bucket.clear();
        }
        self.occ = [0; OCC_WORDS];
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
            // a time-0 boot after a later crash): `cur[head..]` is the
            // sorted front run holding every pending event at or before
            // the base bucket, so ordering against the ring (strictly
            // later buckets) is preserved.
            if self.head == self.cur.len() {
                self.cur.clear();
                self.head = 0;
            }
            let pos =
                self.head + self.cur[self.head..].partition_point(|k| k.order() < key.order());
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
        let slot = (idx as usize) & (RING_BUCKETS - 1);
        let bucket = &mut self.ring[slot];
        if bucket.capacity() == 0 {
            bucket.reserve(BUCKET_HINT_BYTES / std::mem::size_of::<HeapKey>());
        }
        bucket.push(key);
        self.occ[slot / 64] |= 1 << (slot % 64);
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
        keys.extend_from_slice(&self.cur[self.head..]);
        self.cur.clear();
        self.head = 0;
        for bucket in &mut self.ring {
            keys.append(bucket);
        }
        self.occ = [0; OCC_WORDS];
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
        debug_assert!(self.occupancy_is_exact());
        let start = self.base_idx << self.width_shift;
        self.sorter
            .order_bucket(&mut self.cur, start, self.width_shift);
    }

    /// Advances `base_idx` to the next non-empty bucket, loading and
    /// ordering it into `cur`. Caller guarantees the queue is non-empty and
    /// `cur` is exhausted.
    fn advance(&mut self) {
        debug_assert_eq!(self.head, self.cur.len());
        self.cur.clear();
        self.head = 0;
        if self.near_len == 0 {
            // Everything pending lives in the far heap: jump the ring
            // forward to the earliest far bucket, then migrate its horizon.
            let min_at = self.far.peek().expect("queue non-empty").at;
            self.base_idx = self.bucket_of(min_at);
            self.migrate_far();
        }
        let mut slot = (self.base_idx as usize) & (RING_BUCKETS - 1);
        let skip = self.next_occupied(slot);
        if skip > 0 {
            // Every far key has `idx ≥ base_idx + RING_BUCKETS`, so no key
            // `migrate_far` moves in can land in a skipped bucket: the jump
            // exposes the earliest pending bucket, as stepping would.
            debug_assert!(self
                .far
                .peek()
                .is_none_or(|k| self.bucket_of(k.at) >= self.base_idx + RING_BUCKETS as u64));
            debug_assert!((0..skip).all(|i| self.ring[(slot + i) & (RING_BUCKETS - 1)].is_empty()));
            self.base_idx += skip as u64;
            slot = (slot + skip) & (RING_BUCKETS - 1);
            self.migrate_far();
        }
        // Expose the bucket at `base_idx`; its ring slot holds exactly the
        // events of this absolute index (see `push`).
        debug_assert!(!self.ring[slot].is_empty());
        self.occ[slot / 64] &= !(1 << (slot % 64));
        std::mem::swap(&mut self.cur, &mut self.ring[slot]);
        debug_assert!(self.occupancy_is_exact());
        let start = self.base_idx << self.width_shift;
        self.sorter
            .order_bucket(&mut self.cur, start, self.width_shift);
    }

    /// Whether each ring slot's occupancy bit is set exactly when the slot
    /// holds a key (checked in debug builds).
    fn occupancy_is_exact(&self) -> bool {
        self.ring.iter().enumerate().all(|(slot, bucket)| {
            (self.occ[slot / 64] >> (slot % 64)) & 1 != bucket.is_empty() as u64
        })
    }

    /// Distance in slots from ring slot `from` (inclusive) to the next
    /// non-empty one, going round the ring. Caller guarantees the ring is
    /// non-empty.
    fn next_occupied(&self, from: usize) -> usize {
        let (word, bit) = (from / 64, from % 64);
        let bits = self.occ[word] & (!0 << bit);
        if bits != 0 {
            return bits.trailing_zeros() as usize - bit;
        }
        // The last round re-reads `word`, whose bits at and above `bit` are
        // known clear: the slots just before `from`.
        (1..=OCC_WORDS)
            .find_map(|i| {
                let bits = self.occ[(word + i) % OCC_WORDS];
                (bits != 0).then(|| i * 64 + bits.trailing_zeros() as usize - bit)
            })
            .expect("the ring holds a key")
    }

    /// Moves far events whose bucket entered the ring horizon
    /// (`base_idx + RING_BUCKETS - 1`) into their ring slot — called once
    /// per move of `base_idx`, so each key migrates exactly once.
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
        if self.head == self.cur.len() {
            self.advance();
        }
        let key = self.cur[self.head];
        self.head += 1;
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
        if self.head == self.cur.len() {
            self.advance();
        }
        Some(self.cur[self.head].at)
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

/// The bucket-ordering routine and the scratch it keeps across buckets.
/// It does not depend on the message type, so it is compiled once instead
/// of once per `EventQueue<M>`.
#[derive(Debug)]
struct BucketSorter {
    /// The counting pass's output, swapped with the bucket at each use.
    spare: Vec<HeapKey>,
    /// The counting pass's digit counters, `2^MAX_DIGIT_BITS + 1` of them.
    counts: Vec<u32>,
}

impl BucketSorter {
    /// Puts `keys`, the keys of the bucket of `2^width_shift` ns that
    /// begins at `start`, in ascending `(time, seq)` order.
    ///
    /// Small buckets go to `sort_unstable`. A larger one that is not
    /// already in order gets one stable counting pass on the top `b` bits
    /// of its keys' offsets inside the bucket, which leaves every key in
    /// its digit in arrival order, then an insertion pass on `(time, seq)`.
    /// The insertion pass is exact on any input; stability only makes it
    /// cheap. Past a move budget of [`MOVE_BUDGET_PER_KEY`] per key,
    /// `sort_unstable` finishes the bucket instead.
    fn order_bucket(&mut self, keys: &mut Vec<HeapKey>, start: u64, width_shift: u32) {
        debug_assert!(keys
            .iter()
            .all(|k| k.at.as_nanos() >> width_shift == start >> width_shift));
        let n = keys.len();
        if n <= SMALL_BUCKET {
            keys.sort_unstable_by_key(HeapKey::order);
            return;
        }
        if keys.windows(2).all(|w| w[0].order() < w[1].order()) {
            return;
        }
        let b = (n.ilog2() + 1).min(MAX_DIGIT_BITS).min(width_shift);
        let shift = width_shift - b;
        let digit = |k: &HeapKey| ((k.at.as_nanos() - start) >> shift) as usize;
        let counts = &mut self.counts[..=1 << b];
        counts.fill(0);
        for k in keys.iter() {
            counts[digit(k) + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        self.spare.clear();
        self.spare.extend_from_slice(keys);
        for k in keys.iter() {
            let pos = &mut counts[digit(k)];
            self.spare[*pos as usize] = *k;
            *pos += 1;
        }
        std::mem::swap(keys, &mut self.spare);
        if !insertion_pass(keys, MOVE_BUDGET_PER_KEY * n) {
            #[cfg(test)]
            FALLBACKS.with(|c| c.set(c.get() + 1));
            keys.sort_unstable_by_key(HeapKey::order);
        }
    }
}

/// Insertion-sorts `keys` by `(time, seq)` while the keys moved stay
/// within `budget`; returns `false`, with `keys` a permutation of its
/// input but not in order, once a key would overrun it.
fn insertion_pass(keys: &mut [HeapKey], budget: usize) -> bool {
    let mut moves = 0;
    for i in 1..keys.len() {
        let key = keys[i];
        let mut j = i;
        while j > 0 && keys[j - 1].order() > key.order() {
            keys[j] = keys[j - 1];
            j -= 1;
        }
        keys[j] = key;
        moves += i - j;
        if moves > budget {
            return false;
        }
    }
    true
}

#[cfg(test)]
thread_local! {
    /// Buckets this thread's queues handed to `sort_unstable` after the
    /// insertion pass ran out of moves.
    static FALLBACKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
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

    type Reference = std::collections::BTreeMap<(SimTime, u64), EventKind<u64>>;

    /// Pushes a uniquely tagged delivery at `at_ns` into both queues.
    fn push_both(q: &mut EventQueue<u64>, reference: &mut Reference, at_ns: u64) {
        let at = SimTime::from_nanos(at_ns);
        let kind = deliver(0, 1, q.next_seq);
        let seq = q.push(at, kind.clone());
        assert!(reference.insert((at, seq), kind).is_none());
    }

    /// Pops `count` events (all, for `usize::MAX`) from both queues and
    /// checks they agree; returns the last popped time.
    fn pop_both(q: &mut EventQueue<u64>, reference: &mut Reference, count: usize) -> u64 {
        let mut now = 0;
        for _ in 0..count {
            let Some(((at, seq), want)) = reference.pop_first() else {
                assert!(q.is_empty() && q.pop().is_none());
                break;
            };
            let got = q.pop().expect("reference non-empty");
            assert_eq!((got.at, got.seq, got.kind), (at, seq, want));
            now = at.as_nanos();
        }
        now
    }

    fn fallbacks() -> usize {
        FALLBACKS.with(|c| c.get())
    }

    /// Differential check of `order_bucket` on the buckets that stress it,
    /// against the reference sorted map: sizes either side of
    /// [`SMALL_BUCKET`]; `at` reversed against `seq`; 10⁴ same-instant
    /// keys, in `seq` order and out of it; a bucket whose keys all share one counting digit in random
    /// order (the move budget runs out and `sort_unstable` finishes, which
    /// must happen there and only there); far-migrated keys mixed with
    /// direct pushes; the first bucket after a re-bucketing; and pushes
    /// into the current bucket while its cursor is mid-bucket.
    #[test]
    fn bucket_order_matches_reference_on_adversarial_buckets() {
        let mut x = 0x853c_49e6_748f_ea9bu64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        const W: u32 = 20;
        const WIDTH: u64 = 1 << W;
        let fixed = |shift: u32| {
            let mut q = EventQueue::with_bucket_width_shift(shift, 0);
            q.set_adaptive(false);
            (q, Reference::new())
        };
        // One bucket at index 5 behind a time-0 sentinel, so it fills in
        // the ring and is ordered when the clock reaches it.
        let one_bucket = |offsets: &[u64], fallback: bool| {
            let (mut q, mut reference) = fixed(W);
            push_both(&mut q, &mut reference, 0);
            for off in offsets {
                push_both(&mut q, &mut reference, 5 * WIDTH + off);
            }
            let before = fallbacks();
            pop_both(&mut q, &mut reference, 2);
            assert_eq!(q.cur.len(), offsets.len());
            pop_both(&mut q, &mut reference, usize::MAX);
            assert_eq!(fallbacks() > before, fallback, "{} keys", offsets.len());
        };
        for n in [63, 64, 65, 1000] {
            let offsets: Vec<u64> = (0..n).map(|_| rand() % WIDTH).collect();
            one_bucket(&offsets, false);
        }
        let reversed: Vec<u64> = (0..1000).rev().map(|i| i * 1000).collect();
        one_bucket(&reversed, false);
        one_bucket(&[777; 10_000], false);
        // The same 10⁴ keys gathered by a re-bucketing from the far heap,
        // whose array order the earlier keys' migration scrambled: one
        // instant, `seq` out of order.
        let (mut q, mut reference) = fixed(W);
        push_both(&mut q, &mut reference, 0);
        for _ in 0..500 {
            push_both(
                &mut q,
                &mut reference,
                1100 * WIDTH + rand() % (800 * WIDTH),
            );
        }
        for _ in 0..10_000 {
            push_both(&mut q, &mut reference, 5000 * WIDTH + 777);
        }
        pop_both(&mut q, &mut reference, 501);
        assert_eq!((q.len(), q.far.len()), (10_000, 10_000));
        q.rebucket(W);
        pop_both(&mut q, &mut reference, usize::MAX);
        // 1 000 keys get 10-bit digits of 2^10 ns: all inside digit 4.
        let one_digit: Vec<u64> = (0..1000).map(|_| (4 << 10) + rand() % 1024).collect();
        one_bucket(&one_digit, true);

        // Far keys of bucket 1500 migrate into the ring when the clock
        // reaches bucket 600; direct pushes then join them.
        let (mut q, mut reference) = fixed(W);
        push_both(&mut q, &mut reference, 0);
        for _ in 0..300 {
            push_both(&mut q, &mut reference, 1500 * WIDTH + rand() % WIDTH);
        }
        push_both(&mut q, &mut reference, 600 * WIDTH);
        assert_eq!(q.far.len(), 300);
        pop_both(&mut q, &mut reference, 2);
        assert!(q.far.is_empty());
        for _ in 0..300 {
            push_both(&mut q, &mut reference, 1500 * WIDTH + rand() % WIDTH);
        }
        pop_both(&mut q, &mut reference, usize::MAX);

        // Re-bucketing from 2^16 ns to 2^22 ns buckets puts ~700 of 3 000
        // keys over 16 ms in the first bucket, gathered from the ring
        // slot by slot.
        let (mut q, mut reference) = fixed(16);
        for _ in 0..3000 {
            push_both(&mut q, &mut reference, rand() % (1 << 24));
        }
        pop_both(&mut q, &mut reference, 100);
        q.rebucket(22);
        assert!(q.cur.len() - q.head > SMALL_BUCKET);
        pop_both(&mut q, &mut reference, usize::MAX);

        // Pushes into the bucket being drained, at, after and between its
        // pending keys, interleaved with pops.
        let (mut q, mut reference) = fixed(W);
        push_both(&mut q, &mut reference, 0);
        for _ in 0..500 {
            push_both(&mut q, &mut reference, 3 * WIDTH + rand() % WIDTH);
        }
        let mut now = pop_both(&mut q, &mut reference, 201);
        for i in 0..300u64 {
            assert!(q.head > 0 && q.head < q.cur.len());
            let at = match i % 3 {
                0 => now,
                1 => 4 * WIDTH - 1,
                _ => now + rand() % (4 * WIDTH - now),
            };
            push_both(&mut q, &mut reference, at);
            now = pop_both(&mut q, &mut reference, 1);
        }
        pop_both(&mut q, &mut reference, usize::MAX);
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
