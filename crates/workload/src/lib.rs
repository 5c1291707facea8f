//! # esync-workload — replicated-log throughput workloads
//!
//! The paper's bound is about *decision latency after stabilization*; this
//! crate is the steady-state counterpart: sustained client traffic against
//! the multi-instance replicated log, measuring **commit throughput** and
//! **end-to-end latency percentiles** — before and after the stabilization
//! time — over both execution substrates:
//!
//! * the deterministic discrete-event simulator (`esync-sim`), where every
//!   run is a bit-reproducible function of its seeds, and
//! * the threaded real-time runtime (`esync-runtime`), driving the *same*
//!   state machines over real channels.
//!
//! Two client models, both deterministic and seedable:
//!
//! * **Open loop** ([`sim_driver::run_open_loop`], simulator only):
//!   commands arrive on a fixed-rate or Poisson schedule
//!   ([`esync_sim::scenario::SubmitStream`]) regardless of completion —
//!   the model for rate sweeps and overload studies.
//! * **Closed loop** ([`sim_driver::run_closed_loop`],
//!   [`rt_driver::run_closed_loop`]): each of `clients` keeps exactly
//!   `outstanding` commands in flight, submitting a replacement the moment
//!   one commits — the model for saturation throughput. Both backends
//!   draw from the same [`CommandGen`], so they submit bit-identical
//!   command sequences.
//!
//! Commands are keyed KV operations packed into the wire [`Value`] by
//! [`esync_core::types::kv_command`]: a unique id (at-least-once
//! deduplication) plus a sampled key. Keys are drawn from a pluggable
//! [`KeyDist`](gen::KeyDist) — uniform, Zipfian, a pinned hotspot, or a
//! *shifting* hotspot — so the skewed/adversarial distributions that
//! stress a range-partitioned router (and justify its live rebalancer)
//! are first-class, deterministic and seedable. The drivers are generic
//! over the log protocol — the sharded
//! [`LogGroup`](esync_core::paxos::group::LogGroup), whose
//! [`ShardRouter`](esync_core::paxos::group::ShardRouter) partitions the
//! key space across `S` independent shards *inside* the process, or the
//! plain [`MultiPaxos`], which is that group with one shard — so the
//! submitted command sequence is bit-identical across shard counts and
//! backends. Measurements land in
//! [`esync_sim::metrics::WorkloadSummary`]: commits/sec, p50/p99/p999
//! commit latency from a fixed-bucket HDR-style histogram, the pre- vs
//! post-stability split, a commits-per-window timeline, and — from the
//! shard-tagged commit feeds — the per-shard split
//! ([`esync_sim::metrics::ShardSummary`], artifact schema v3+).
//!
//! [`Value`]: esync_core::types::Value
//! [`MultiPaxos`]: esync_core::paxos::multi::MultiPaxos

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod collect;
pub mod gen;
pub mod rt_driver;
pub mod sim_driver;

pub use collect::Collector;
pub use gen::{ClosedLoopSpec, CommandGen};
pub use sim_driver::SimWorkloadOutcome;
