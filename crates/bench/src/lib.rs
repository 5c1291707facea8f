//! # esync-bench — the experiment harness
//!
//! One bench target per quantified claim of the paper (see
//! `docs/ARCHITECTURE.md` for the layers they exercise and
//! `crates/bench/README.md` for each artifact and its headline):
//!
//! | target | claim |
//! |---|---|
//! | `exp_e1_decision_vs_n` | modified Paxos decides by `TS + O(δ)`, independent of `N` |
//! | `exp_e2_obsolete_ballots` | traditional Paxos pays `O(kδ)` for `k` obsolete ballots |
//! | `exp_e3_dead_coordinators` | rotating coordinator pays `O(fδ)` for `f` dead coordinators |
//! | `exp_e4_restart_recovery` | a post-`TS` restart decides within `O(δ)` of restarting |
//! | `exp_e5_bconsensus` | modified B-Consensus is `O(δ)` too |
//! | `exp_e6_epsilon_tradeoff` | `ε` trades message complexity against decision time |
//! | `exp_e7_stable_case` | anchored multi-instance commits in ≤ 3 message delays |
//! | `exp_e8_clock_drift` | `ρ` only scales the bound |
//! | `exp_e9_ablations` | every §4 modification is load-bearing |
//! | `exp_e10_bound_check` | measured worst ≤ `ε + 3τ + 5δ` (≈ 17δ) |
//! | `exp_w1_throughput_vs_n` | closed-loop saturation: batching lifts replicated-log commits/sec ≈ `B`× at fixed pipeline window |
//! | `exp_w2_load_vs_stability` | open-loop load across `TS`: pre-`TS` submissions pay the instability, post-`TS` ones commit in a few `δ` |
//! | `exp_w3_shard_scaling` | a log group scales with its shard count: `S = 4` sustains ≥ 2× the commits/sec of `S = 1` |
//! | `exp_w4_session_sharing` | one group session keeps idle traffic at `S = 8` within 2× of `S = 1`, and one crash re-anchors every shard |
//! | `exp_w5_rebalance` | live rebalancing regains ≥ 1.5× the static router's commits/sec under a hotspot |
//! | `trace_gen` | writes `TRACE_exp_e1.jsonl` (per-decision bound) and `TRACE_exp_w3.jsonl` (phase decomposition) |
//! | `health_gen` | writes `HEALTH_exp_h1.jsonl`: a stable metered run that trips no watchdog |
//!
//! All targets are `harness = false` binaries, so `cargo bench --workspace`
//! regenerates every table **and** its machine-readable
//! `BENCH_<experiment>.json` artifact (see [`artifact`] and
//! `crates/bench/README.md` for the schema); `micro_simulator` carries the
//! Criterion micro-benchmarks that no `benchmark/` ledger row measures
//! alone.
//!
//! Sweeps run through the parallel [`sweep::SweepRunner`], which fans
//! independent `(seed, SimConfig)` runs across every core with
//! deterministic, seed-ordered results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod sweep;

pub use artifact::{DelayQuantiles, ExperimentArtifact, SweepRecord, SweepSummary};
pub use sweep::{SweepOutcome, SweepRunner};

use esync_sim::{PreStability, Report, SimConfig};
use std::fmt::Write as _;

/// The default stabilization time used across experiments (ms).
pub const TS_MS: u64 = 300;

/// The standard chaotic configuration: `δ = 10ms`, chaos until `TS`.
pub fn chaos_cfg(n: usize, seed: u64) -> SimConfig {
    SimConfig::builder(n)
        .seed(seed)
        .stability_at_millis(TS_MS)
        .pre_stability(PreStability::chaos())
        .build()
        .expect("valid standard config")
}

/// The worst decision delay after `TS`, in δ units (NaN if nobody counted).
pub fn delay_in_delta(r: &Report) -> f64 {
    r.max_decision_after_ts_in_delta().unwrap_or(f64::NAN)
}

/// A fixed-width text table for experiment output.
///
/// ```
/// use esync_bench::Table;
/// let mut t = Table::new("demo", &["k", "value"]);
/// t.row(&["1", "2.00"]);
/// let s = t.render();
/// assert!(s.contains("demo"));
/// assert!(s.contains("2.00"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of already-owned cells.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table: title, rule, headers, rows — first column
    /// left-aligned, the rest right-aligned.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            if i == 0 {
                let _ = write!(line, "{:<w$}", h, w = widths[0]);
            } else {
                let _ = write!(line, "  {:>w$}", h, w = widths[i]);
            }
        }
        let rule = "-".repeat(line.len());
        let _ = writeln!(out, "{line}");
        let _ = writeln!(out, "{rule}");
        for row in &self.rows {
            let mut line = String::new();
            for i in 0..cols {
                if i == 0 {
                    let _ = write!(line, "{:<w$}", row[i], w = widths[0]);
                } else {
                    let _ = write!(line, "  {:>w$}", row[i], w = widths[i]);
                }
            }
            let _ = writeln!(out, "{line}");
        }
        out
    }
}

/// Formats a δ-unit quantity as e.g. `"12.34δ"`.
pub fn fmt_delta(x: f64) -> String {
    if x.is_nan() {
        "—".to_string()
    } else {
        format!("{x:.2}δ")
    }
}

/// Formats [`DelayQuantiles`] as `min/mean/max` in δ.
pub fn fmt_stats(s: Option<&DelayQuantiles>) -> String {
    match s {
        Some(s) => format!("{:.2}/{:.2}/{:.2}δ", s.min, s.mean, s.max),
        None => "—".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("t", &["name", "value"]);
        t.row(&["alpha", "1"]);
        t.row(&["b", "22222"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "## t");
        // All data lines have the same width.
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_delta(1.5), "1.50δ");
        assert_eq!(fmt_delta(f64::NAN), "—");
        assert_eq!(fmt_stats(None), "—");
        let s = DelayQuantiles::over([1.0, 2.0]).unwrap();
        assert_eq!(fmt_stats(Some(&s)), "1.00/1.50/2.00δ");
    }

    #[test]
    fn chaos_cfg_is_valid_and_seeded() {
        let c = chaos_cfg(5, 9);
        assert_eq!(c.seed, 9);
        assert_eq!(c.timing.n(), 5);
    }

    #[test]
    fn table_len_and_empty() {
        let mut t = Table::new("t", &["a"]);
        assert!(t.is_empty());
        t.row(&["x"]);
        assert_eq!(t.len(), 1);
        t.row_owned(vec!["y".to_string()]);
        assert_eq!(t.len(), 2);
    }
}
