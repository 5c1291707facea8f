//! Tier-1 typed-tracing smoke (ISSUE 7): the two invariants the
//! observability layer must never break.
//!
//! 1. **Determinism** — same seed ⇒ byte-identical `TRACE_*.jsonl` on
//!    the simulator backend (and the JSONL round-trips through the
//!    parser, which rejects mutated artifact lines without panicking).
//! 2. **Noop bit-identity** — tracing disabled is behaviorally inert:
//!    the summary, events and message counts reproduce the untraced run
//!    seed-for-seed on the simulator, and the threaded runtime's
//!    deterministic outcomes (command set, commit counts) are unchanged
//!    by enabling collection.

use esync::core::paxos::group::LogGroup;
use esync::core::paxos::multi::MultiPaxos;
use esync::core::paxos::session::SessionPaxos;
use esync::sim::{PreStability, SimConfig, SimTime, World};
use esync::trace::jsonl::{parse_jsonl, write_jsonl, Line, TraceMeta};
use esync::workload::gen::ClosedLoopSpec;
use esync::workload::{rt_driver, sim_driver};
use std::time::Duration;

const COMMANDS: u64 = 24;

fn sim_cfg(seed: u64) -> SimConfig {
    SimConfig::builder(3)
        .seed(seed)
        .stability_at_millis(0)
        .pre_stability(PreStability::lossless())
        .build()
        .unwrap()
}

fn traced_outcome(seed: u64) -> sim_driver::SimWorkloadOutcome {
    let spec = ClosedLoopSpec::new(3, 2, COMMANDS).seed(seed);
    sim_driver::run_closed_loop_traced(
        sim_cfg(seed),
        LogGroup::new(2),
        &spec,
        SimTime::from_millis(500),
        SimTime::from_secs(60),
        1 << 16,
    )
}

fn meta(seed: u64) -> TraceMeta {
    let cfg = sim_cfg(seed);
    TraceMeta {
        exp: "trace_smoke".to_string(),
        seed,
        n: cfg.timing.n() as u32,
        delta_ns: cfg.timing.delta().as_nanos(),
        epsilon_ns: cfg.timing.epsilon().as_nanos(),
        ts_ns: cfg.ts.as_nanos(),
        bound_ns: 0,
        dropped: 0,
    }
}

#[test]
fn same_seed_gives_byte_identical_jsonl() {
    let a = traced_outcome(5);
    let b = traced_outcome(5);
    let ja = write_jsonl(&meta(5), &a.trace);
    let jb = write_jsonl(&meta(5), &b.trace);
    assert!(!a.trace.is_empty(), "traced run collects events");
    assert_eq!(ja, jb, "same seed must serialize identically");
    // And the trace is not trivially constant: a different seed diverges.
    let jc = write_jsonl(&meta(5), &traced_outcome(6).trace);
    assert_ne!(ja, jc, "different seed, different trace");
}

#[test]
fn jsonl_round_trips_through_the_parser() {
    let out = traced_outcome(5);
    let m = meta(5);
    let text = write_jsonl(&m, &out.trace);
    let (parsed_meta, parsed_records) = parse_jsonl(&text).expect("valid jsonl");
    assert_eq!(parsed_meta.as_ref(), Some(&m));
    assert_eq!(parsed_records, out.trace, "records survive the round trip");
    // Line-level: the first line is the header.
    let first = text.lines().next().unwrap();
    assert_eq!(
        esync::trace::jsonl::parse_line(first).unwrap(),
        Line::Meta(m)
    );
}

#[test]
fn noop_tracing_is_bit_identical_on_the_simulator() {
    // Workload drive: disabled tracing reproduces summary + report
    // (events, msgs_by_kind) seed-for-seed; enabled tracing only adds
    // the trace and the phase_latency field.
    let spec = ClosedLoopSpec::new(3, 2, COMMANDS).seed(5);
    let plain = sim_driver::run_closed_loop(
        sim_cfg(5),
        LogGroup::new(2),
        &spec,
        SimTime::from_millis(500),
        SimTime::from_secs(60),
    );
    let traced = traced_outcome(5);
    assert!(plain.trace.is_empty());
    assert!(plain.summary.phase_latency.is_none());
    let mut stripped = traced.summary.clone();
    stripped.phase_latency = None;
    assert_eq!(stripped, plain.summary, "summary is trace-invariant");
    assert_eq!(
        traced.report, plain.report,
        "events + msgs_by_kind identical"
    );
    assert_eq!(traced.end, plain.end);

    // Single-shot world: same invariant on the session protocol.
    let run = |traced: bool| {
        let mut w = World::new(sim_cfg(9), SessionPaxos::new());
        if traced {
            w.enable_typed_trace(1 << 12);
        }
        w.run_to_completion().expect("decides")
    };
    assert_eq!(
        run(false),
        run(true),
        "single-shot report is trace-invariant"
    );
}

#[test]
fn noop_tracing_preserves_runtime_outcomes() {
    // The threaded backend is wall-clock timed, so timings are not
    // reproducible — but the deterministic outcomes (which commands
    // exist, that all commit everywhere) must be identical with
    // collection on, and the traced run must actually collect.
    let run = |traced: bool| {
        let mut cfg = esync::runtime::ClusterConfig::new(3)
            .delta(Duration::from_millis(5))
            .seed(7);
        if traced {
            cfg = cfg.tracing(1 << 14);
        }
        let spec = ClosedLoopSpec::new(3, 2, COMMANDS).seed(7);
        rt_driver::run_closed_loop(
            cfg,
            MultiPaxos::new().with_batching(4, 2),
            &spec,
            Duration::from_millis(300),
            Duration::from_secs(30),
        )
        .expect("threaded workload completes")
    };
    let plain = run(false);
    let traced = run(true);
    assert!(plain.trace.is_empty());
    assert!(plain.summary.phase_latency.is_none());
    assert_eq!(plain.summary.committed, COMMANDS);
    assert_eq!(traced.summary.committed, COMMANDS);
    assert_eq!(
        traced.applied_per_node, plain.applied_per_node,
        "same deterministic command set on both runs"
    );
    assert!(!traced.trace.is_empty(), "runtime collection works");
    let phases = traced
        .summary
        .phase_latency
        .expect("decomposition attached");
    assert_eq!(phases.decisions, COMMANDS);
}

/// Feeds `parses` every truncation and every single-byte substitution
/// of the first 40 lines of the committed artifact `file`; returns how
/// many inputs it fed. A panic in the codec fails the calling test.
fn feed_mutated_lines(file: &str, parses: fn(&str) -> bool) -> usize {
    const SUBSTITUTES: [&str; 14] = [
        "\"", "\\", "{", "}", "[", "]", ",", ":", "9", "n", " ", "δ", "\\u", "\\uD800",
    ];
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let text = std::fs::read_to_string(path).expect("committed artifact");
    let mut cases = 0;
    for line in text.lines().take(40) {
        assert!(parses(line), "{file}: the unmutated line parses: {line}");
        for (at, c) in line.char_indices() {
            let (head, rest) = (&line[..at], &line[at + c.len_utf8()..]);
            parses(head);
            for sub in SUBSTITUTES {
                parses(&format!("{head}{sub}{rest}"));
            }
            cases += 1 + SUBSTITUTES.len();
        }
    }
    cases
}

#[test]
fn codecs_survive_mutated_artifact_lines() {
    // Malformed input must come back from either codec as `Ok` or `Err`,
    // never as a panic.
    let cases = feed_mutated_lines("TRACE_exp_w3.jsonl", |line| {
        esync::trace::jsonl::parse_line(line).is_ok()
    }) + feed_mutated_lines("HEALTH_exp_h1.jsonl", |line| {
        esync::metrics::parse_health_line(line).is_ok()
    });
    assert!(cases > 10_000, "{cases} mutations checked");
}
