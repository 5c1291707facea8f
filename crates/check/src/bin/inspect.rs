//! `inspect` — replays the observability artifacts. Each file's header
//! says what it is: a `meta` with `interval_ns` is a `HEALTH_*.jsonl`
//! (schema in `esync_metrics::jsonl`), anything else a `TRACE_*.jsonl`
//! (schema in `esync_trace::jsonl`).
//!
//! * A **trace** is checked against the paper's decision-time bound
//!   **per decision**: after the stabilization time `TS`, *every*
//!   process must decide by `ts_ns + bound_ns`, a strictly stronger check
//!   than the run-level max of `exp_e10_bound_check`. Traces with
//!   `bound_ns = 0` (steady-state workload drives) skip the bound and get
//!   the queue → quorum → learn phase decomposition plus the
//!   rebalance-protocol timeline instead.
//! * A **health** file is rendered into a cluster-status report: run
//!   identity, snapshot coverage, a HEALTHY/DEGRADED verdict, final
//!   cluster-wide counters, and the per-watchdog firing table.
//!
//! ```text
//! cargo run --release -p esync-check --bin inspect -- TRACE_exp_e1.jsonl HEALTH_exp_h1.jsonl …
//! ```
//!
//! With no arguments, inspects the three committed artifacts in the
//! current directory (`TRACE_exp_e1.jsonl`, `TRACE_exp_w3.jsonl`,
//! `HEALTH_exp_h1.jsonl`). Exits nonzero if any file cannot be read or
//! parsed, a trace violates an applicable bound or contains no
//! decisions, or a health file has no snapshots or any watchdog fired.

use esync_metrics::{parse_health_jsonl, render_report};
use esync_trace::jsonl::TraceMeta;
use esync_trace::{check_decision_bound, decompose, parse_jsonl, TraceRecord};
use serde_json::Value;
use std::process::ExitCode;

/// What `inspect` with no arguments reads.
const COMMITTED: [&str; 3] = [
    "TRACE_exp_e1.jsonl",
    "TRACE_exp_w3.jsonl",
    "HEALTH_exp_h1.jsonl",
];

/// Inspects one file; returns `false` when the file fails.
fn inspect_file(path: &str) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: cannot read: {e}");
            return false;
        }
    };
    let header = text
        .lines()
        .find(|l| !l.trim().is_empty())
        .unwrap_or_default();
    let is_health = header
        .parse::<Value>()
        .is_ok_and(|v| v.get("meta").and_then(|m| m.get("interval_ns")).is_some());
    if is_health {
        check_health(path, &text)
    } else {
        check_trace(path, &text)
    }
}

/// Renders one health file; healthy iff it has snapshots and no
/// watchdog fired.
fn check_health(path: &str, text: &str) -> bool {
    let (meta, snapshots, firings) = match parse_health_jsonl(text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{path}: {e}");
            return false;
        }
    };
    if snapshots.is_empty() {
        eprintln!("{path}: no snapshots — nothing to report on");
        return false;
    }
    println!("{path}:");
    print!("{}", render_report(&meta, &snapshots, &firings));
    firings.is_empty()
}

/// Validates one trace file.
fn check_trace(path: &str, text: &str) -> bool {
    let (meta, records) = match parse_jsonl(text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{path}: {e}");
            return false;
        }
    };
    let Some(meta) = meta else {
        eprintln!("{path}: missing meta header line");
        return false;
    };
    println!(
        "{path}: {} ({} processes, seed {}, δ = {}ns, {} records)",
        meta.exp,
        meta.n,
        meta.seed,
        meta.delta_ns,
        records.len()
    );
    if meta.dropped > 0 {
        // A warning, not a failure: a tail is still checkable, but any
        // conclusion below may be missing the run's earliest events.
        println!(
            "  WARNING: ring evicted {} records — this trace is a tail \
             of the run, not the whole run",
            meta.dropped
        );
    }
    let mut ok = true;
    if meta.bound_ns > 0 {
        ok &= check_bound(&meta, &records);
        // Single-shot traces decide initial values — there is no client
        // command journey, so an empty decomposition is fine here.
        report_phases(&meta, &records);
    } else {
        println!("  bound: not applicable (bound_ns = 0; workload trace)");
        ok &= report_phases(&meta, &records);
    }
    report_rebalance(&records);
    ok
}

/// The per-decision bound replay: every process's first decide, in δ
/// units after `TS`, against the paper's `ε + 3τ + 5δ` deadline.
fn check_bound(meta: &TraceMeta, records: &[TraceRecord]) -> bool {
    let report = check_decision_bound(meta, records);
    let delta = meta.delta_ns as f64;
    println!(
        "  bound: decide ≤ TS + {:.1}δ, per decision",
        meta.bound_ns as f64 / delta
    );
    for (pid, at_ns) in &report.first_decisions {
        let after_ts = at_ns.saturating_sub(meta.ts_ns) as f64 / delta;
        let verdict = if *at_ns <= report.deadline_ns {
            "ok"
        } else {
            "VIOLATION"
        };
        println!("    {pid}: decided TS + {after_ts:.2}δ — {verdict}");
    }
    if report.first_decisions.is_empty() {
        println!("    no decisions in trace — FAIL");
        return false;
    }
    if report.holds() {
        println!(
            "  bound holds for all {} deciding processes",
            report.first_decisions.len()
        );
        true
    } else {
        println!(
            "  bound VIOLATED by {} process(es)",
            report.violations.len()
        );
        false
    }
}

/// The phase decomposition (what fraction of commit latency is queueing
/// vs the 2b-quorum wait vs learning), in δ units.
fn report_phases(meta: &TraceMeta, records: &[TraceRecord]) -> bool {
    let phases = decompose(records);
    if phases.decisions == 0 {
        println!("  phases: no complete command journey in trace");
        return false;
    }
    let delta = meta.delta_ns as f64;
    let line = |name: &str, h: &esync_trace::HistogramSummary| {
        println!(
            "    {name:<7} mean {:.2}δ  p50 {:.2}δ  p99 {:.2}δ  max {:.2}δ",
            h.mean_ns as f64 / delta,
            h.p50_ns as f64 / delta,
            h.p99_ns as f64 / delta,
            h.max_ns as f64 / delta,
        );
    };
    println!("  phases ({} decisions):", phases.decisions);
    line("queue", &phases.queue);
    line("quorum", &phases.quorum);
    line("learn", &phases.learn);
    true
}

/// The rebalance-protocol timeline (freeze → drain → commit, plus
/// aborts and re-forwards), if the trace contains any.
fn report_rebalance(records: &[TraceRecord]) {
    let mut counts: Vec<(&str, u64)> = Vec::new();
    let mut first = u64::MAX;
    let mut last = 0u64;
    for r in records {
        let kind = r.ev.kind();
        if !kind.starts_with("rb_") {
            continue;
        }
        first = first.min(r.at_ns);
        last = last.max(r.at_ns);
        match counts.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, c)) => *c += 1,
            None => counts.push((kind, 1)),
        }
    }
    if counts.is_empty() {
        return;
    }
    counts.sort_unstable();
    let spans: Vec<String> = counts.iter().map(|(k, c)| format!("{k}×{c}")).collect();
    println!(
        "  rebalance: {} over {:.1}ms of trace",
        spans.join(", "),
        (last - first) as f64 / 1e6
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paths: Vec<&str> = if args.is_empty() {
        COMMITTED.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let mut ok = true;
    for path in paths {
        ok &= inspect_file(path);
    }
    if ok {
        println!("inspect: all checks passed");
        ExitCode::SUCCESS
    } else {
        // Read and parse failures already wrote to stderr; a violated
        // bound or a DEGRADED verdict is also an exit-code failure so CI
        // can gate on it.
        eprintln!("inspect: FAILED");
        ExitCode::FAILURE
    }
}
