//! # esync-trace — deterministic tracing, collection and analysis
//!
//! The observability layer over the sans-IO seam: protocol state
//! machines emit typed [`TraceEvent`](esync_core::trace::TraceEvent)s
//! into their `Outbox` (a side channel that never feeds back into
//! behaviour), drivers stamp them with driver time into a bounded
//! [`TraceBuffer`], and this crate turns the result into:
//!
//! * **`TRACE_*.jsonl` files** — a documented, deterministic JSONL
//!   format ([`jsonl`]) read back through the vendored `serde_json`'s
//!   `Value`, whose [`ParseError`] the health codec shares;
//! * **per-decision bound replays** — [`check_decision_bound`] validates
//!   the paper's post-`TS` decision bound for *every* process's first
//!   decision, not just the run-level maximum;
//! * **phase decompositions** — [`decompose`] splits each command's
//!   submit → decide journey into queue / quorum / learn phases
//!   ([`PhaseLatency`], embedded in workload artifacts as schema v6's
//!   `phase_latency`).
//!
//! The latency histogram machinery ([`LatencyHistogram`],
//! [`HistogramSummary`]) lives here too — `esync-sim` re-exports it, so
//! the simulator, runtime and workload crates keep their existing paths.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod analyze;
mod buffer;
mod hist;
pub mod jsonl;

pub use analyze::{
    check_decision_bound, command_phases, decompose, BoundReport, BoundViolation, CommandPhases,
    PhaseLatency,
};
pub use buffer::{TraceBuffer, TraceRecord};
pub use hist::{HistogramSummary, LatencyHistogram};
pub use jsonl::{parse_jsonl, write_jsonl, Line, ParseError, TraceMeta};
