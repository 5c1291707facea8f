//! # esync-runtime — a threaded real-time runtime for esync protocols
//!
//! The discrete-event simulator (`esync-sim`) is the measurement
//! instrument; this crate demonstrates that the *same* sans-IO state
//! machines run unchanged over a real transport: one OS thread and one
//! [`transport::Queue`] inbox per process, wall-clock timers, and links
//! that make the first `stability_after` of the run behave like the
//! paper's unstable period — they lose messages and delay others by up to
//! `5δ`. A delayed message is held by its recipient until due, so it still
//! arrives after its sender has stopped (the paper's obsolete messages
//! from failed processes). The cluster's only other queue is the commit
//! feed; each node thread returns its final [`NodeStats`] when joined.
//!
//! A node works in wake-ups. It swaps its whole inbox out at once; each
//! wake-up handles the due timers and up to [`node::DRAIN_CAP`] of those
//! inputs at one clock reading, handles the messages the node sends
//! itself right away instead of queueing them, and ends with one append
//! per peer it wrote to, then one of its commits. Between wake-ups it
//! waits in [`transport::Queue::take_until`], which yields the CPU a few
//! times before it sleeps on an empty inbox.
//!
//! Scope: the runtime supports protocols that need no driver-side oracle —
//! the paper's modified Paxos and modified B-Consensus (both leaderless and
//! oracle-free by construction), the heartbeat-elector flavor of
//! traditional Paxos, the rotating coordinator, the replicated log, and
//! the sharded log group (`esync_core::paxos::group::LogGroup`) — plus
//! client submit streams against the (possibly sharded) replicated log.
//!
//! The submit/commit streams are **shard-tagged** end to end:
//! [`Cluster::submit`] feeds commands in (the receiving process routes
//! each command to its log-group shard by KV key, so the caller never
//! addresses shards directly), and the per-command [`Cluster::commits`]
//! stream reports every applied log entry as a [`Commit`] carrying the
//! [`ShardId`](esync_core::types::ShardId) it committed in —
//! `ShardId::ZERO` for unsharded protocols. The `esync-workload` drivers
//! measure sustained throughput and commit latency, per shard and in
//! aggregate, from exactly this stream.
//!
//! Fault injection: scripted crash/restart is the simulator's job; the
//! runtime injects message loss and delay, plus [`Cluster::kill`]
//! (permanent node stop) paired with [`Cluster::leader_hint`] — the
//! nodes publish their [`is_leader`](esync_core::outbox::Process::is_leader)
//! belief after every event — so leader-churn drives can pick their
//! victim at run time (see `tests/leader_churn.rs`).
//!
//! ```no_run
//! use esync_core::paxos::session::SessionPaxos;
//! use esync_runtime::{Cluster, ClusterConfig};
//! use std::time::Duration;
//!
//! let cfg = ClusterConfig::new(5)
//!     .delta(Duration::from_millis(5))
//!     .stability_after(Duration::from_millis(100))
//!     .pre_stability_loss(0.4);
//! let cluster = Cluster::spawn(cfg, SessionPaxos::new())?;
//! // Each node's first commit is its decision.
//! let decisions = cluster.await_decisions(Duration::from_secs(10))?;
//! assert!(decisions.windows(2).all(|w| w[0].value == w[1].value));
//! cluster.shutdown();
//! # Ok::<(), esync_runtime::RuntimeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod node;
pub mod transport;

pub use cluster::{Cluster, ClusterConfig, Commit, NodeStats, RuntimeError};
