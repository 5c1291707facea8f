//! # esync — consensus in `O(δ)` after eventual synchrony
//!
//! A reproduction of Dutta, Guerraoui & Lamport, *"How Fast Can Eventual
//! Synchrony Lead to Consensus?"* (DSN 2005), as a facade over three crates:
//!
//! * [`core`] (`esync-core`) — the algorithms, written sans-IO: the paper's
//!   modified **session Paxos** and modified **B-Consensus**, plus the
//!   traditional-Paxos and rotating-coordinator baselines they are compared
//!   against, and a multi-instance replicated-log layer.
//! * [`sim`] (`esync-sim`) — a deterministic discrete-event simulator of the
//!   eventual-synchrony model (lossy/adversarial before the stabilization
//!   time `TS`, `δ`-bounded after), with fault scripts, adversaries and
//!   metrics.
//! * [`runtime`] (`esync-runtime`) — a threaded real-time runtime that runs
//!   the same state machines over mutex-guarded swap-out queues.
//! * [`check`] (`esync-check`) — a bounded model checker and adversarial
//!   schedule fuzzer: safety under *every* message reordering, early timer,
//!   drop, crash and lying leader oracle, not just timed schedules.
//! * [`workload`] (`esync-workload`) — replicated-log throughput
//!   workloads: deterministic open-loop (simulator) and closed-loop (both
//!   the simulator and the runtime) client drivers, with latency
//!   histograms and commits/sec measurement.
//! * [`trace`] (`esync-trace`) — the typed-tracing observability layer:
//!   stamped protocol events, the `TRACE_*.jsonl` format, and the
//!   queue → quorum → learn phase decomposition with the per-decision
//!   replay of the paper's bound.
//! * [`metrics`] (`esync-metrics`) — the online observability layer:
//!   the always-on counter registry, snapshot time series, invariant
//!   watchdogs (live decision bound, anchor churn, stall, imbalance),
//!   and the `HEALTH_*.jsonl` cluster-health format.
//!
//! See `examples/quickstart.rs` for a five-minute tour,
//! `docs/ARCHITECTURE.md` for the layers, and `crates/bench/README.md`
//! for the paper-claim reproduction tables and their artifacts.

pub use esync_check as check;
pub use esync_core as core;
pub use esync_metrics as metrics;
pub use esync_runtime as runtime;
pub use esync_sim as sim;
pub use esync_trace as trace;
pub use esync_workload as workload;
