//! # esync-sim — a deterministic simulator of eventual synchrony
//!
//! This crate is the experimental substrate for the DSN 2005 reproduction:
//! a discrete-event simulator of the paper's system model, driving the
//! sans-IO state machines from `esync-core`.
//!
//! The model (paper §1):
//!
//! * **Before** the stabilization time `TS`: messages may be dropped or
//!   delayed arbitrarily (even past `TS`), processes may crash and restart,
//!   and the adversary may inject messages that a failed process could
//!   legitimately have sent.
//! * **After** `TS`: no process fails, restarts are allowed (and then the
//!   process stays up), and every message is delivered — and reacted to —
//!   within `δ` of sending. Self-addressed messages also traverse the
//!   network, as the paper's timing analysis assumes.
//! * Each process owns a clock with a hidden rate in `[1−ρ, 1+ρ]`;
//!   protocols set timers in *local* durations and the simulator converts.
//!
//! Everything is deterministic given a seed: clock rates, network delays
//! and event tie-breaking all derive from a [`rand_chacha`] PRNG, so every
//! experiment in `crates/bench/README.md` is exactly reproducible.
//!
//! ## Quick example
//!
//! ```
//! use esync_core::paxos::session::SessionPaxos;
//! use esync_sim::{PreStability, SimConfig, World};
//!
//! let cfg = SimConfig::builder(5)
//!     .seed(7)
//!     .stability_at_millis(300)
//!     .pre_stability(PreStability::chaos())
//!     .build()?;
//! let mut world = World::new(cfg, SessionPaxos::new());
//! let report = world.run_to_completion()?;
//! assert!(report.agreement(), "all deciders agree");
//! // The paper's bound: decisions within ε + 3τ + 5δ ≈ 17δ after TS.
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
pub mod clock;
pub mod error;
pub mod event;
pub mod metrics;
pub mod network;
pub mod oracle;
pub mod scenario;
pub mod time;
pub mod world;

pub use error::SimError;
pub use metrics::Report;
pub use network::PreStability;
pub use scenario::Scenario;
pub use time::SimTime;
pub use world::{SimConfig, SimConfigBuilder, World};
