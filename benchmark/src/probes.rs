//! Isolated probes: layers that no workload exercises alone (event queue,
//! outbox, the codecs and artifact writer) and comparisons that need two
//! builds of one run (observability on against off, group seam in against
//! out). Each probe calls public functions and times them from outside.
//! They run in the runner process, after the repetitions, at fixed sizes,
//! on one thread, and their times are scaled to nominal machine speed like
//! the simulator workloads' (`measure::Speed`).

use crate::measure::{median, Span, Speed};
use crate::timed::Timed;
use esync_bench::{ExperimentArtifact, SweepRunner, SweepSummary};
use esync_core::outbox::{Outbox, Protocol};
use esync_core::paxos::group::{LogGroup, ShardedLogView};
use esync_core::paxos::multi::MultiPaxos;
use esync_core::paxos::session::SessionPaxos;
use esync_core::time::{LocalDuration, LocalInstant, RealDuration};
use esync_core::types::{ProcessId, TimerId};
use esync_metrics::{parse_health_jsonl, write_health_jsonl, HealthMeta, WatchdogConfig};
use esync_sim::event::{EventKind, EventQueue, MsgPayload};
use esync_sim::{PreStability, SimConfig, SimTime};
use esync_trace::{decompose, parse_jsonl, write_jsonl, TraceMeta};
use esync_workload::gen::ClosedLoopSpec;
use esync_workload::sim_driver::{self, SimWorkloadOutcome};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Runs every probe; `shrink` divides the sizes (`--quick`).
pub fn run(seed: u64, shrink: u64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut set = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };
    set("sim.event.push_pop_ns", event_queue(2_000_000 / shrink));
    set("core.outbox.push_drain_ns", outbox(2_000_000 / shrink));
    let small = small_log_runs(seed, (6_000 / shrink).max(200));
    set("trace.on_overhead_pct", small.trace_overhead_pct);
    set("metrics.on_overhead_pct", small.metrics_overhead_pct);
    set("core.group.seam_ns_per_call", small.seam_ns_per_call);
    for (name, v) in scaled(|| codecs(seed, &small.traced, &small.metered)) {
        set(name, v);
    }
    let mut bytes_per_record = 0.0;
    for (name, v) in scaled(|| artifacts(seed, &mut bytes_per_record)) {
        set(name, v);
    }
    set("bench.artifact.bytes_per_record", bytes_per_record);
    out
}

/// The probes' speed exponents: the simulator workloads' clock-bound pair.
const EXPONENTS: (f64, f64) = (0.8, 0.6);

/// Runs a probe inside a speed bracket and scales the times it returns.
fn scaled(probe: impl FnOnce() -> Vec<(&'static str, f64)>) -> Vec<(&'static str, f64)> {
    let speed = Speed::probe();
    let mut rows = probe();
    let scale = speed.finish().scale(EXPONENTS);
    for (_, v) in &mut rows {
        *v *= scale;
    }
    rows
}

/// `EventQueue` in steady state at depth 1089 (n = 33: one message per
/// pair in flight), delays spread over the δ = 10 ms horizon: one pop and
/// one push per iteration, with the world's own bucket width (δ/16).
fn event_queue(iterations: u64) -> f64 {
    const DEPTH: u64 = 33 * 33;
    const DELTA_NS: u64 = 10_000_000;
    let shift = (DELTA_NS / 16).max(1024).ilog2();
    let mut q: EventQueue<u64> = EventQueue::with_bucket_width_shift(shift, 4 * DEPTH as usize);
    // xorshift64: the probe needs spread, not quality.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut delay = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        RealDuration::from_nanos(DELTA_NS / 10 + x % (DELTA_NS * 9 / 10))
    };
    let deliver = |i: u64| EventKind::Deliver {
        from: ProcessId::new((i % 33) as u32),
        to: ProcessId::new((i / 33 % 33) as u32),
        msg: MsgPayload::Owned(i),
    };
    for i in 0..DEPTH {
        q.push(SimTime::ZERO + delay(), deliver(i));
    }
    median_chunk(iterations, |i| {
        let ev = q.pop().expect("steady depth");
        q.push(ev.at + delay(), deliver(i));
        black_box(&ev.kind);
    })
}

/// Runs `body` `iterations` times in five chunks, each inside its own
/// speed bracket, and returns the median chunk's scaled nanoseconds per
/// iteration.
fn median_chunk(iterations: u64, mut body: impl FnMut(u64)) -> f64 {
    const CHUNKS: u64 = 5;
    let per_chunk = (iterations / CHUNKS).max(1);
    let chunks: Vec<f64> = (0..CHUNKS)
        .map(|chunk| {
            let speed = Speed::probe();
            let t = Instant::now();
            for i in 0..per_chunk {
                body(chunk * per_chunk + i);
            }
            let ns = t.elapsed().as_nanos() as f64 / per_chunk as f64;
            ns * speed.finish().scale(EXPONENTS)
        })
        .collect();
    median(&chunks)
}

/// One event's worth of outbox traffic with tracing and metering off:
/// reset, a broadcast, a timer, drain.
fn outbox(iterations: u64) -> f64 {
    let mut out: Outbox<u64> = Outbox::default();
    median_chunk(iterations, |i| {
        out.reset(LocalInstant::from_nanos(i));
        out.broadcast(i);
        out.set_timer(TimerId::new(0), LocalDuration::from_nanos(1_000_000));
        for action in out.drain_iter() {
            black_box(action);
        }
    })
}

const WARMUP: SimTime = SimTime::from_millis(500);
const HORIZON: SimTime = SimTime::from_secs(36_000);

struct SmallRuns {
    trace_overhead_pct: f64,
    metrics_overhead_pct: f64,
    seam_ns_per_call: f64,
    traced: SimWorkloadOutcome,
    metered: SimWorkloadOutcome,
}

fn small_cfg(seed: u64) -> SimConfig {
    SimConfig::builder(5)
        .seed(seed)
        .stability_at_millis(0)
        .pre_stability(PreStability::lossless())
        .max_time(HORIZON)
        .build()
        .expect("valid benchmark configuration")
}

/// A `sim_log_s1`-shaped run, small, five ways, five interleaved rounds:
/// observability off / traced / metered through the program's own entry
/// points, and `Timed` around plain `MultiPaxos` against `LogGroup::new(1)`
/// (the same schedule, which tier-1 asserts is bit-identical) for the
/// group seam's cost per `on_message`.
fn small_log_runs(seed: u64, commands: u64) -> SmallRuns {
    const ROUNDS: usize = 5;
    let spec = ClosedLoopSpec::new(5, 16, commands).seed(seed);
    fn on_message_ns<P>(protocol: P, seed: u64, spec: &ClosedLoopSpec) -> f64
    where
        P: Protocol,
        P::Process: ShardedLogView,
    {
        let (timed, handle) = Timed::new(protocol, 5);
        let run = sim_driver::run_closed_loop(small_cfg(seed), timed, spec, WARMUP, HORIZON);
        black_box(run.summary.committed);
        handle.read().message_total().ns_per_call()
    }
    let (mut off, mut traced, mut metered, mut plain, mut group1) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut last_traced, mut last_metered) = (None, None);
    let mk = || MultiPaxos::new().with_batching(4, 4);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        black_box(sim_driver::run_closed_loop(
            small_cfg(seed),
            mk(),
            &spec,
            WARMUP,
            HORIZON,
        ));
        off.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        last_traced = Some(sim_driver::run_closed_loop_traced(
            small_cfg(seed),
            mk(),
            &spec,
            WARMUP,
            HORIZON,
            1 << 22,
        ));
        traced.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        last_metered = Some(sim_driver::run_closed_loop_metered(
            small_cfg(seed),
            mk(),
            &spec,
            WARMUP,
            HORIZON,
            RealDuration::from_millis(50),
            WatchdogConfig::default(),
        ));
        metered.push(t.elapsed().as_secs_f64());
        plain.push(on_message_ns(mk(), seed, &spec));
        group1.push(on_message_ns(
            LogGroup::new(1).with_batching(4, 4),
            seed,
            &spec,
        ));
    }
    // Each round pairs the sides within a second or two, so the machine's
    // state cancels in the round's own ratio or difference; the median
    // round is reported.
    let paired = |a: &[f64], b: &[f64], f: fn(f64, f64) -> f64| {
        median(
            &a.iter()
                .zip(b)
                .map(|(x, y)| f(*x, *y))
                .collect::<Vec<f64>>(),
        )
    };
    SmallRuns {
        trace_overhead_pct: paired(&traced, &off, |on, off| (on / off - 1.0) * 100.0),
        metrics_overhead_pct: paired(&metered, &off, |on, off| (on / off - 1.0) * 100.0),
        seam_ns_per_call: paired(&group1, &plain, |group, plain| group - plain),
        traced: last_traced.expect("at least one round"),
        metered: last_metered.expect("at least one round"),
    }
}

/// The two JSONL codecs and the phase decomposition, on what the small
/// traced and metered runs produced. Each round-trip is checked.
fn codecs(
    seed: u64,
    traced: &SimWorkloadOutcome,
    metered: &SimWorkloadOutcome,
) -> Vec<(&'static str, f64)> {
    const PASSES: u64 = 5;
    let records = &traced.trace;
    let per_record = |span: Span| span.ns as f64 / (PASSES * records.len().max(1) as u64) as f64;
    let meta = TraceMeta {
        exp: "benchmark_probe".into(),
        seed,
        n: 5,
        delta_ns: 10_000_000,
        epsilon_ns: 2_500_000,
        ts_ns: 0,
        bound_ns: 0,
        dropped: 0,
    };
    let (mut write, mut parse, mut analyze) = (Span::default(), Span::default(), Span::default());
    let mut text = String::new();
    for _ in 0..PASSES {
        let s = Instant::now();
        text = write_jsonl(&meta, records);
        write.close(s);
        let s = Instant::now();
        let parsed = parse_jsonl(&text).expect("the trace codec reads what it wrote");
        parse.close(s);
        assert_eq!(parsed.1.len(), records.len(), "trace codec round trip");
        let s = Instant::now();
        black_box(decompose(records));
        analyze.close(s);
    }
    black_box(text);

    let health = metered
        .summary
        .health
        .as_ref()
        .expect("metered run carries a health section");
    let per_snapshot =
        |span: Span| span.ns as f64 / (PASSES * health.snapshots.len().max(1) as u64) as f64;
    let hmeta = HealthMeta {
        exp: "benchmark_probe".into(),
        seed,
        n: 5,
        interval_ns: health.interval_ns,
        backend: "sim".into(),
    };
    let (mut hwrite, mut hparse) = (Span::default(), Span::default());
    for _ in 0..PASSES {
        let s = Instant::now();
        let text = write_health_jsonl(&hmeta, &health.snapshots, &health.firings);
        hwrite.close(s);
        let s = Instant::now();
        let parsed = parse_health_jsonl(&text).expect("the health codec reads what it wrote");
        hparse.close(s);
        assert_eq!(
            parsed.1.len(),
            health.snapshots.len(),
            "health codec round trip"
        );
    }
    vec![
        ("trace.jsonl.write_ns_per_record", per_record(write)),
        ("trace.jsonl.parse_ns_per_record", per_record(parse)),
        ("trace.analyze.decompose_ns_per_record", per_record(analyze)),
        ("metrics.jsonl.write_ns_per_snapshot", per_snapshot(hwrite)),
        ("metrics.jsonl.parse_ns_per_snapshot", per_snapshot(hparse)),
    ]
}

/// The experiment harness around a sweep: packaging reports into a
/// `SweepSummary` (what `sweep_seeds` adds to `run_seeds`) and
/// serializing the artifact. Returns the times; the serialized size per
/// record goes to `bytes_per_record`.
fn artifacts(seed: u64, bytes_per_record: &mut f64) -> Vec<(&'static str, f64)> {
    const SEEDS: u64 = 16;
    const PASSES: u32 = 20;
    let cfg = |i: u64| {
        SimConfig::builder(3)
            .seed(seed.wrapping_mul(1_000_003).wrapping_add(i))
            .stability_at_millis(100)
            .build()
            .expect("valid benchmark configuration")
    };
    let reports = SweepRunner::with_threads(1)
        .run_seeds(SEEDS, cfg, SessionPaxos::new)
        .expect("n=3 single-shot runs complete");
    let (mut package, mut serialize) = (Span::default(), Span::default());
    for _ in 0..PASSES {
        let s = Instant::now();
        let summary = SweepSummary::from_reports(
            "probe",
            Some(cfg(0)),
            &reports,
            1,
            Duration::from_millis(1),
        );
        package.close(s);
        let mut artifact = ExperimentArtifact::new("benchmark_probe", "serialization probe");
        artifact.push(summary);
        let s = Instant::now();
        let json = serde_json::to_string(&artifact).expect("artifact serializes");
        serialize.close(s);
        *bytes_per_record = json.len() as f64 / SEEDS as f64;
    }
    let runs = (PASSES as u64 * SEEDS) as f64;
    vec![
        ("bench.sweep.overhead_ns_per_run", package.ns as f64 / runs),
        (
            "bench.artifact.serialize_ns_per_record",
            serialize.ns as f64 / runs,
        ),
    ]
}
