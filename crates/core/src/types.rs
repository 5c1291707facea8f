//! Fundamental identifier and value newtypes shared by every protocol.

use core::fmt;
use serde::Serialize;

/// Identifier of one of the `N` processes, numbered `0..N-1` as in the paper.
///
/// ```
/// use esync_core::types::ProcessId;
/// let p = ProcessId::new(3);
/// assert_eq!(p.as_usize(), 3);
/// assert_eq!(p.to_string(), "p3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates a process identifier from its index.
    pub const fn new(index: u32) -> Self {
        ProcessId(index)
    }

    /// Returns the index as `u32`.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns the index as `usize` (for indexing process tables).
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Iterates over all process identifiers of an `n`-process system.
    ///
    /// ```
    /// use esync_core::types::ProcessId;
    /// let ids: Vec<_> = ProcessId::all(3).collect();
    /// assert_eq!(ids.len(), 3);
    /// assert_eq!(ids[2], ProcessId::new(2));
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = ProcessId> {
        (0..n as u32).map(ProcessId)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ProcessId {
    fn from(index: u32) -> Self {
        ProcessId(index)
    }
}

/// A proposable value.
///
/// Consensus is oblivious to value contents, so a compact `u64` payload
/// suffices; applications that need richer commands (see the replicated-log
/// example) keep a side table mapping ids to commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default)]
pub struct Value(u64);

impl Value {
    /// Wraps a raw payload.
    pub const fn new(raw: u64) -> Self {
        Value(raw)
    }

    /// Returns the raw payload.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for Value {
    fn from(raw: u64) -> Self {
        Value(raw)
    }
}

/// Identifier of one shard (one independent consensus instance) inside a
/// [log group](crate::paxos::group). Single-instance protocols live
/// entirely in shard [`ShardId::ZERO`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ShardId(u32);

impl ShardId {
    /// The only shard of an unsharded (single-instance) log.
    pub const ZERO: ShardId = ShardId(0);

    /// Creates a shard identifier from its index.
    pub const fn new(index: u32) -> Self {
        ShardId(index)
    }

    /// Returns the index as `u32`.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Returns the index as `usize` (for indexing shard tables).
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u32> for ShardId {
    fn from(index: u32) -> Self {
        ShardId(index)
    }
}

/// Command ids and keys are packed into the wire [`Value`] as
/// `key << KEY_SHIFT | id`: consensus stays oblivious to contents, while
/// generators, routers and analyzers agree on a keyed-KV command identity
/// without a side table. Ids are unique per run (at-least-once
/// deduplication); keys model the KV working set the
/// [shard router](crate::paxos::group::ShardRouter) partitions.
pub const KEY_SHIFT: u32 = 48;

/// Packs a keyed command into its wire value.
///
/// # Panics
///
/// Panics if `id` overflows the [`KEY_SHIFT`]-bit id field or `key` the
/// remaining bits.
pub fn kv_command(key: u64, id: u64) -> Value {
    assert!(id < (1 << KEY_SHIFT), "command id overflows the id field");
    assert!(key < (1 << (64 - KEY_SHIFT)), "key overflows the key field");
    Value::new(key << KEY_SHIFT | id)
}

/// The unique command id of a wire value built by [`kv_command`].
pub const fn kv_id(v: Value) -> u64 {
    v.get() & ((1 << KEY_SHIFT) - 1)
}

/// The key of a wire value built by [`kv_command`].
pub const fn kv_key(v: Value) -> u64 {
    v.get() >> KEY_SHIFT
}

/// Identifier of a timer owned by a process.
///
/// Each protocol declares constants for its timer kinds (e.g. the session
/// timer of modified Paxos). Setting a timer with the same id replaces any
/// pending instance, which is exactly the "reset the session timer" semantics
/// the paper uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimerId(u32);

impl TimerId {
    /// Creates a timer id. Protocols use small constants.
    pub const fn new(raw: u32) -> Self {
        TimerId(raw)
    }

    /// Returns the raw id.
    pub const fn get(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_roundtrip() {
        let p = ProcessId::new(7);
        assert_eq!(p.as_u32(), 7);
        assert_eq!(p.as_usize(), 7);
        assert_eq!(ProcessId::from(7u32), p);
    }

    #[test]
    fn process_id_all_enumerates_in_order() {
        let ids: Vec<_> = ProcessId::all(5).collect();
        assert_eq!(ids.len(), 5);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.as_usize(), i);
        }
    }

    #[test]
    fn process_id_display() {
        assert_eq!(ProcessId::new(0).to_string(), "p0");
        assert_eq!(ProcessId::new(42).to_string(), "p42");
    }

    #[test]
    fn value_roundtrip_and_display() {
        let v = Value::new(99);
        assert_eq!(v.get(), 99);
        assert_eq!(v.to_string(), "v99");
        assert_eq!(Value::from(99u64), v);
    }

    #[test]
    fn value_ordering_is_payload_ordering() {
        assert!(Value::new(1) < Value::new(2));
        assert_eq!(Value::new(3), Value::new(3));
    }

    #[test]
    fn timer_id_roundtrip() {
        let t = TimerId::new(2);
        assert_eq!(t.get(), 2);
        assert_eq!(t.to_string(), "timer2");
    }

    #[test]
    fn types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProcessId>();
        assert_send_sync::<Value>();
        assert_send_sync::<TimerId>();
        assert_send_sync::<ShardId>();
    }

    #[test]
    fn shard_id_roundtrip_and_display() {
        let s = ShardId::new(3);
        assert_eq!(s.get(), 3);
        assert_eq!(s.as_usize(), 3);
        assert_eq!(s.to_string(), "s3");
        assert_eq!(ShardId::from(3u32), s);
        assert_eq!(ShardId::ZERO, ShardId::new(0));
    }

    #[test]
    fn kv_encoding_roundtrips() {
        let v = kv_command(700, 123_456);
        assert_eq!(kv_id(v), 123_456);
        assert_eq!(kv_key(v), 700);
        assert_eq!(kv_key(Value::new(9)), 0, "unkeyed values have key 0");
    }

    #[test]
    #[should_panic(expected = "id field")]
    fn kv_id_overflow_rejected() {
        let _ = kv_command(0, 1 << KEY_SHIFT);
    }
}
