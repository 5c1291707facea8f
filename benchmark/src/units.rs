//! One unit of one workload: set up, run the fixed-size unit on one
//! sub-seed, check the outputs, and return the numbers. The runner executes
//! every unit in a fresh child process; a repetition is one unit per
//! sub-seed.
//!
//! Untraced units call the program's own entry points
//! (`SweepRunner::run_seeds`, `sim_driver::run_closed_loop_on`,
//! `sim_driver::run_open_loop`, `rt_driver::run_closed_loop`) and time
//! them from outside. Traced units wrap the protocol in
//! [`Timed`] and replay the same drive from this file with a span around
//! every call into a layer (`World::step`, `Collector::on_commit`,
//! `Cluster::submit`, …). On the simulator a traced unit must
//! reproduce the untraced summary, report and end instant exactly — the
//! runner compares fingerprints — which is what shows both the wrapper and
//! the replayed drive to be faithful.

use crate::measure::{
    bucket_quantile, fingerprint, peak_rss_mb, process_cpu_s, sample_quantile, Calibration, Span,
    Speed, ThreadUsage,
};
use crate::spec::Workload;
use crate::timed::{Tallies, Tally, Timed, KINDS};
use esync_bench::SweepRunner;
use esync_core::metrics::Metric;
use esync_core::outbox::{Process, Protocol, ShardLoad};
use esync_core::paxos::group::{LogGroup, ShardedLogView};
use esync_core::paxos::multi::MultiPaxos;
use esync_core::paxos::session::SessionPaxos;
use esync_core::time::RealDuration;
use esync_core::types::{ProcessId, ShardId, Value};
use esync_metrics::WatchdogConfig;
use esync_runtime::{Cluster, ClusterConfig};
use esync_sim::metrics::WorkloadSummary;
use esync_sim::scenario::{kv_id, Scenario, StreamTarget, SubmitStream};
use esync_sim::{PreStability, Report, SimConfig, SimTime, World};
use esync_workload::gen::ClosedLoopSpec;
use esync_workload::{rt_driver, sim_driver, Collector, CommandGen};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant, SystemTime};

/// When this process started, as exactly as can be told.
#[derive(Debug, Clone, Copy)]
pub struct Started {
    /// Taken first thing in `main`.
    pub main: Instant,
    /// The runner's wall clock just before it spawned this process, when
    /// there is a runner: covers exec and loading too.
    pub spawned_unix_ns: Option<u128>,
}

impl Started {
    fn elapsed_s(&self) -> f64 {
        let since_spawn = self.spawned_unix_ns.and_then(|at| {
            let now = SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .ok()?
                .as_nanos();
            now.checked_sub(at)
        });
        match since_spawn {
            Some(ns) => ns as f64 / 1e9,
            None => self.main.elapsed().as_secs_f64(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct UnitArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub traced: bool,
    /// Divides the unit size (`--quick` passes 20).
    pub shrink: u64,
    pub started: Started,
}

impl UnitArgs {
    fn size(&self) -> u64 {
        (self.workload.unit / self.shrink).max(4)
    }
}

/// What one unit produced.
#[derive(Debug, Default)]
pub struct UnitOut {
    pub attempted: u64,
    pub committed: u64,
    /// Names of the output checks that failed (empty = correct).
    pub failed_checks: Vec<String>,
    /// Hash of the simulated outcome; equal across processes and between
    /// the traced and untraced pass for one seed. `None` on the runtime.
    pub fingerprint: Option<u64>,
    pub values: BTreeMap<String, f64>,
}

impl UnitOut {
    fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            self.failed_checks.push(name.to_string());
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }
}

pub fn run(a: &UnitArgs) -> UnitOut {
    let speed = Speed::probe();
    match a.workload.name {
        "sim_recover_n33" => recover(a, speed),
        "sim_log_s1" => sim_closed(a, speed, || MultiPaxos::new().with_batching(4, 4)),
        "sim_group_s8" => sim_closed(a, speed, || LogGroup::new(8).with_batching(1, 4)),
        "sim_failover_open_s4" => failover(a, speed),
        "rt_log_s1_n3" => rt_closed(a, speed, || MultiPaxos::new().with_batching(4, 4)),
        "rt_group_s4_n3" => rt_closed(a, speed, || LogGroup::new(4).with_batching(4, 4)),
        other => unreachable!("workload {other} is not in spec::WORKLOADS"),
    }
}

// ---- shared pieces -----------------------------------------------------

/// Log workloads run `n = 5` on the simulator; all sim workloads use the
/// `SimConfig` default `δ = 10 ms`.
const SIM_N: usize = 5;
/// Simulated warm-up before load: a leader anchors at about 50 ms.
const SIM_WARMUP: SimTime = SimTime::from_millis(500);
const SIM_HORIZON: SimTime = SimTime::from_secs(36_000);
/// Snapshot cadence of the traced pass's metering (its final counters give
/// `core.proto.anchors`).
const METER_EVERY: RealDuration = RealDuration::from_millis(100);

/// Threaded workloads run the minimum cluster, `n = 3`.
const RT_N: usize = 3;
const RT_WARMUP: Duration = Duration::from_millis(60);
const RT_DEADLINE: Duration = Duration::from_secs(90);

fn stable_cfg(seed: u64, ts: SimTime, scenario: Scenario) -> SimConfig {
    SimConfig::builder(SIM_N)
        .seed(seed)
        .stability_at(ts)
        .pre_stability(PreStability::lossless())
        .max_time(SIM_HORIZON)
        .scenario(scenario)
        .build()
        .expect("valid benchmark configuration")
}

fn any_leader<P: Protocol>(world: &World<P>) -> Option<ProcessId> {
    let n = world.config().timing.n();
    (0..n as u32)
        .map(ProcessId::new)
        .find(|p| world.process(*p).is_leader())
}

/// Ends the measured phase: reads the peak resident set (before the
/// closing probe allocates), closes the unit's speed bracket and records
/// it. Returns the scale to apply to the unit's host times.
fn speed_scale(out: &mut UnitOut, a: &UnitArgs, speed: Speed) -> f64 {
    out.set("peak_rss_mb", peak_rss_mb());
    let speed = speed.finish();
    let scale = speed.scale(a.workload.speed_exponents);
    out.set("benchmark.clock_probe_us", speed.clock_us());
    out.set("benchmark.memory_probe_us", speed.memory_us());
    out.set("benchmark.speed_scale", scale);
    scale
}

/// What an untraced unit reports (`Phase::sim`, `Phase::rt`). Host times:
/// simulator units scale set-up (it is computation) and leave latency alone
/// (it is simulated); threaded units scale latency (it is host time) and
/// leave set-up alone (it is mostly the warm-up sleep).
struct Measured {
    /// Process start to ready-to-measure, seconds.
    setup_s: f64,
    wall: Duration,
    cpu_s: f64,
    /// The speed scale of the unit, applied to `wall`.
    scale: f64,
    /// Latency quantiles in the workload's own clock, nanoseconds.
    p50_ns: f64,
    p99_ns: f64,
}

/// An untraced unit's measured phase, timed from outside.
struct Phase {
    /// Process start to the start of the phase, seconds.
    before_s: f64,
    /// The phase itself.
    took: Duration,
    cpu_s: f64,
    scale: f64,
}

/// Runs `phase` — one call into the program's own entry point — as the
/// unit's measured phase: everything before it was set-up, and the speed
/// bracket closes right after it.
fn timed_phase<R>(
    a: &UnitArgs,
    speed: Speed,
    out: &mut UnitOut,
    phase: impl FnOnce() -> R,
) -> (R, Phase) {
    let before_s = a.started.elapsed_s() - speed.took().as_secs_f64();
    let cpu0 = process_cpu_s();
    let t = Instant::now();
    let result = phase();
    let took = t.elapsed();
    let cpu_s = process_cpu_s() - cpu0;
    let scale = speed_scale(out, a, speed);
    (
        result,
        Phase {
            before_s,
            took,
            cpu_s,
            scale,
        },
    )
}

impl Phase {
    /// A simulator unit: the whole phase is measured.
    fn sim(self, (p50_ns, p99_ns): (f64, f64)) -> Measured {
        Measured {
            setup_s: self.before_s * self.scale,
            wall: self.took,
            cpu_s: self.cpu_s,
            scale: self.scale,
            p50_ns,
            p99_ns,
        }
    }

    /// A threaded unit: the driver measures first submission to last first
    /// commit (`measured_s`); everything else in the call (spawn, warm-up,
    /// the apply-everywhere tail, shutdown) is set-up.
    fn rt(self, measured_s: f64, (p50_ns, p99_ns): (f64, f64)) -> Measured {
        let wall = Duration::from_secs_f64(measured_s);
        Measured {
            setup_s: self.before_s + self.took.saturating_sub(wall).as_secs_f64(),
            wall,
            cpu_s: self.cpu_s,
            scale: self.scale,
            p50_ns: p50_ns * self.scale,
            p99_ns: p99_ns * self.scale,
        }
    }
}

/// The end-to-end numbers every untraced unit reports.
fn end_to_end(out: &mut UnitOut, m: Measured) {
    let ops = out.committed.max(1) as f64;
    out.set("setup_s", m.setup_s);
    out.set("host_us_per_op", m.wall.as_secs_f64() * 1e6 * m.scale / ops);
    out.set("commit_p50_ms", m.p50_ns / 1e6);
    out.set("commit_p99_ms", m.p99_ns / 1e6);
    out.set("benchmark.cpu_s", m.cpu_s);
    out.set("benchmark.wall_s", m.wall.as_secs_f64());
}

fn latency_quantiles(s: &WorkloadSummary) -> (f64, f64) {
    let h = &s.latency;
    (
        bucket_quantile(&h.buckets, h.max_ns, 0.50),
        bucket_quantile(&h.buckets, h.max_ns, 0.99),
    )
}

/// The simulated outcome without the observability attachments (a traced
/// pass meters, an untraced one does not; nothing else may differ).
fn sim_fingerprint(summary: &WorkloadSummary, report: &Report, end: SimTime) -> u64 {
    let mut s = summary.clone();
    s.phase_latency = None;
    s.health = None;
    fingerprint(&[&s, report, &end])
}

fn log_checks(
    out: &mut UnitOut,
    s: &WorkloadSummary,
    commands: u64,
    log_agreement: bool,
    epochs: &[u64],
) {
    out.attempted = commands;
    out.committed = s.committed;
    out.check("submitted_all", s.submitted == commands);
    out.check("committed_all", s.committed == commands);
    out.check("log_agreement", log_agreement);
    out.check(
        "router_epochs_agree",
        epochs.windows(2).all(|w| w[0] == w[1]),
    );
}

/// The protocol rows of the ledger, corrected for the instrument. Returns
/// the protocol's true nanoseconds in total.
fn proto_values(out: &mut UnitOut, t: &Tallies, cal: &Calibration, ops: f64) -> f64 {
    let per_call = |tally: Tally| cal.timed_true_ns(tally) / tally.calls.max(1) as f64;
    for (name, tally) in [
        ("on_message", t.message_total()),
        ("on_timer", t.timer),
        ("on_client", t.client),
    ] {
        out.set(&format!("core.proto.{name}_ns"), per_call(tally));
        out.set(
            &format!("core.proto.{name}_calls_per_op"),
            tally.calls as f64 / ops,
        );
        out.set(
            &format!("ledger.core.proto.{name}"),
            cal.timed_true_ns(tally) / ops / 1e3,
        );
    }
    out.set("core.proto.on_restart_ns", per_call(t.restart));
    for kind in &KINDS[..KINDS.len() - 1] {
        let k = t.kind(kind);
        out.set(&format!("core.proto.on_message_ns.{kind}"), per_call(k));
        out.set(
            &format!("core.proto.on_message_calls_per_op.{kind}"),
            k.calls as f64 / ops,
        );
    }
    let boot = cal.timed_true_ns(t.start) + cal.timed_true_ns(t.restart);
    out.set("ledger.core.proto.on_start_restart", boot / ops / 1e3);
    cal.timed_true_ns(t.total())
}

/// The simulator's own counters over the measured phase.
#[derive(Debug, Clone, Copy, Default)]
struct SimCounts {
    events: u64,
    sent: u64,
    dropped: u64,
}

impl SimCounts {
    fn of(r: &Report) -> SimCounts {
        SimCounts {
            events: r.events,
            sent: r.msgs_sent,
            dropped: r.msgs_dropped,
        }
    }

    fn plus(self, o: SimCounts) -> SimCounts {
        SimCounts {
            events: self.events + o.events,
            sent: self.sent + o.sent,
            dropped: self.dropped + o.dropped,
        }
    }

    fn since(self, base: SimCounts) -> SimCounts {
        SimCounts {
            events: self.events - base.events,
            sent: self.sent - base.sent,
            dropped: self.dropped - base.dropped,
        }
    }
}

/// The simulator rows every traced sim unit shares. `stepping` is
/// the measured time of the intervals that ran `World::step` (each closed
/// by one clock read); the protocol callbacks and the `Timed` instrument
/// ran inside them.
fn world_values(
    out: &mut UnitOut,
    cal: &Calibration,
    stepping: Span,
    tallies: &Tallies,
    proto_true_ns: f64,
    counts: SimCounts,
    wall: Duration,
) -> f64 {
    let ops = out.committed.max(1) as f64;
    let events = counts.events as f64;
    let step_self =
        (cal.span_true_ns(stepping) - proto_true_ns - cal.instrument_ns(tallies.total().calls))
            .max(0.0);
    let wall_ns = cal.host_ns(wall);
    out.set("sim.world.step_self_ns", step_self / events.max(1.0));
    out.set("sim.world.events_per_op", events / ops);
    out.set("sim.world.events_per_host_s", events * 1e9 / wall_ns);
    let sent = counts.sent as f64;
    out.set("sim.network.msgs_per_op", sent / ops);
    out.set(
        "sim.network.dropped_frac",
        counts.dropped as f64 / sent.max(1.0),
    );
    out.set("core.proto.busy_share", proto_true_ns / wall_ns);
    out.set("benchmark.traced_host_us_per_op", wall_ns / ops / 1e3);
    out.set("benchmark.clock_read_ns", cal.read_ns);
    out.set("ledger.sim.world.step_self", step_self / ops / 1e3);
    step_self
}

/// Flushes one more metering boundary and reads the final `Anchored`
/// counter. Runs after everything that is measured or fingerprinted.
fn final_anchors<P: Protocol>(world: &mut World<P>) -> f64 {
    world.run_until(world.now() + METER_EVERY + METER_EVERY);
    world
        .metric_snapshots()
        .last()
        .map_or(0.0, |s| s.counter(Metric::Anchored) as f64)
}

// ---- sim_recover_n33 -----------------------------------------------------

const RECOVER_N: usize = 33;

fn recover_cfg(base: u64, i: u64) -> SimConfig {
    SimConfig::builder(RECOVER_N)
        .seed(base.wrapping_mul(1_000_003).wrapping_add(i))
        .stability_at_millis(300)
        .pre_stability(PreStability::chaos())
        .build()
        .expect("valid benchmark configuration")
}

/// The untraced unit: the program's own sweep entry point, timed whole.
fn recover_untraced(a: &UnitArgs, speed: Speed, out: &mut UnitOut) -> (Vec<Report>, Phase) {
    let base = a.seed;
    let runner = SweepRunner::with_threads(1);
    let (result, phase) = timed_phase(a, speed, out, || {
        runner.run_seeds(a.size(), |i| recover_cfg(base, i), SessionPaxos::new)
    });
    let reports = result.unwrap_or_else(|e| {
        out.check(&format!("run_to_completion: {e}"), false);
        Vec::new()
    });
    (reports, phase)
}

/// The traced unit: the shape of `SweepRunner::run_seeds` on one thread —
/// one world, built for the first seed and reset for the rest — with a
/// span around each call into the world.
fn recover_traced(a: &UnitArgs, speed: Speed, out: &mut UnitOut) -> Vec<Report> {
    let mut cal = Calibration::measure();
    let (timed, handle) = Timed::new(SessionPaxos::new(), RECOVER_N);
    let (mut new, mut reset, mut stepping, mut report_span) = (
        Span::default(),
        Span::default(),
        Span::default(),
        Span::default(),
    );
    let mut world: Option<World<Timed<SessionPaxos>>> = None;
    let mut timed = Some(timed);
    let mut anchors = 0.0;
    let mut reports = Vec::with_capacity(a.size() as usize);
    let t = Instant::now();
    for i in 0..a.size() {
        let cfg = recover_cfg(a.seed, i);
        let s = Instant::now();
        let w = match world.as_mut() {
            Some(w) => {
                w.reset(cfg);
                reset.close(s);
                w
            }
            None => {
                let w = world.insert(World::new(cfg, timed.take().expect("first seed")));
                new.close(s);
                w.enable_metrics(METER_EVERY, WatchdogConfig::default());
                w
            }
        };
        let s = Instant::now();
        let result = w.run_to_completion();
        stepping.close(s);
        match result {
            Ok(r) => reports.push(r),
            Err(e) => out.check(&format!("run_to_completion: {e}"), false),
        }
        // `run_to_completion` already built one report inside the
        // interval above; this extra call only prices it.
        let s = Instant::now();
        std::hint::black_box(w.report());
        report_span.close(s);
        anchors += w
            .metric_snapshots()
            .last()
            .map_or(0.0, |m| m.counter(Metric::Anchored) as f64);
    }
    let wall = t.elapsed() - Duration::from_nanos(report_span.ns);
    cal.scale_by(speed_scale(out, a, speed));
    let ops = reports.len().max(1) as f64;
    let tallies = handle.read();
    let proto = proto_values(out, &tallies, &cal, ops);
    let counts = reports
        .iter()
        .map(SimCounts::of)
        .fold(SimCounts::default(), SimCounts::plus);
    out.committed = reports.len() as u64;
    let step_self = world_values(out, &cal, stepping, &tallies, proto, counts, wall);
    out.set("sim.world.new_ns", cal.span_true_ns(new));
    out.set("sim.world.reset_ns", cal.per_call_ns(reset));
    out.set("sim.world.report_ns", cal.per_call_ns(report_span));
    out.set("core.proto.anchors", anchors / ops);
    let construct = cal.span_true_ns(new) + cal.span_true_ns(reset);
    out.set("ledger.sim.world.new_reset", construct / ops / 1e3);
    out.set(
        "benchmark.attributed_us_per_op",
        (step_self + proto + construct) / ops / 1e3,
    );
    reports
}

fn recover(a: &UnitArgs, speed: Speed) -> UnitOut {
    let mut out = UnitOut::default();
    let (reports, phase) = if a.traced {
        (recover_traced(a, speed, &mut out), None)
    } else {
        let (reports, phase) = recover_untraced(a, speed, &mut out);
        (reports, Some(phase))
    };
    out.attempted = a.size();
    out.committed = reports.len() as u64;
    out.check("agreement", reports.iter().all(Report::agreement));
    out.check("validity", reports.iter().all(Report::validity));
    out.check(
        "all_alive_decided",
        reports.iter().all(Report::all_alive_decided),
    );
    let bound = recover_cfg(a.seed, 0).timing;
    let bound_delta = bound.decision_bound().as_nanos() as f64 / bound.delta().as_nanos() as f64;
    let mut worst: Vec<f64> = reports
        .iter()
        .filter_map(Report::max_decision_after_ts_in_delta)
        .collect();
    worst.sort_by(f64::total_cmp);
    out.check(
        "paper_bound",
        worst.last().is_some_and(|w| *w <= bound_delta),
    );
    out.fingerprint = Some(fingerprint(&[&reports]));
    match phase {
        None => {
            out.set(
                "core.proto.decide_after_ts_p50_delta",
                sample_quantile(&worst, 0.5),
            );
            out.set(
                "core.proto.decide_after_ts_worst_delta",
                worst.last().copied().unwrap_or(0.0),
            );
        }
        Some(phase) => {
            // Latency on this workload: boot (every process proposes at
            // t = 0) to each process's decision, pooled over the seeds.
            let mut decided: Vec<f64> = reports
                .iter()
                .flat_map(|r| r.decided_at.iter().flatten().map(|t| t.as_nanos() as f64))
                .collect();
            decided.sort_by(f64::total_cmp);
            let quantiles = (
                sample_quantile(&decided, 0.50),
                sample_quantile(&decided, 0.99),
            );
            end_to_end(&mut out, phase.sim(quantiles));
        }
    }
    out
}

// ---- sim_log_s1, sim_group_s8 ------------------------------------------------

/// The spans of the replayed closed-loop drive.
#[derive(Debug, Default)]
struct DriveSpans {
    /// Intervals that ran `World::step` until new commits appeared.
    stepping: Span,
    /// Intervals that fed new commits to the collector and resubmitted.
    feeding: Span,
    gen: Span,
    on_submit: Span,
    on_commit: Span,
    world_submit: Span,
    summary: Span,
    report: Span,
    /// The rest of the drive's epilogue: shard loads, agreement check.
    epilogue_ns: u64,
}

struct Drive<'a> {
    spec: &'a ClosedLoopSpec,
    gen: CommandGen,
    collector: Collector,
    owner: BTreeMap<u64, u32>,
    spans: DriveSpans,
}

impl Drive<'_> {
    /// `sim_driver::submit_one`, with a span around each layer call.
    fn submit_one<P: Protocol>(&mut self, world: &mut World<P>, n: usize, client: u32) {
        if self.gen.issued() >= self.spec.commands {
            return;
        }
        let s = Instant::now();
        let value = self.gen.next_command();
        self.spans.gen.close(s);
        self.owner.insert(kv_id(value), client);
        let now = world.now();
        let s = Instant::now();
        self.collector.on_submit(value, now.as_nanos());
        self.spans.on_submit.close(s);
        let s = Instant::now();
        world.submit(now, self.spec.target_of(client, n), value);
        self.spans.world_submit.close(s);
    }
}

/// `sim_driver::logs_agree`: no two processes hold different batches in
/// one `(shard, slot)`.
fn logs_agree<P>(world: &World<P>) -> bool
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    let n = world.config().timing.n();
    let pids = || (0..n as u32).map(ProcessId::new);
    let shards = pids()
        .map(|p| world.process(p).shard_count())
        .max()
        .unwrap_or(1);
    for shard in (0..shards as u32).map(ShardId::new) {
        let mut reference: BTreeMap<u64, &[Value]> = BTreeMap::new();
        for pid in pids() {
            for (slot, batch) in world.process(pid).shard_log(shard).iter() {
                if *reference.entry(slot).or_insert(batch) != &batch[..] {
                    return false;
                }
            }
        }
    }
    true
}

/// `sim_driver::shard_loads`.
fn shard_loads<P>(world: &World<P>) -> Vec<ShardLoad>
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    let n = world.config().timing.n();
    let shards = world.process(ProcessId::new(0)).shard_count();
    (0..shards as u32)
        .map(ShardId::new)
        .map(|shard| {
            let mut total = ShardLoad::default();
            for pid in (0..n as u32).map(ProcessId::new) {
                let load = world.process(pid).shard_load(shard);
                total.submitted += load.submitted;
                total.admitted += load.admitted;
            }
            total
        })
        .collect()
}

/// What a replayed drive hands back: the pieces of
/// `sim_driver::SimWorkloadOutcome` the checks and the fingerprint need.
struct Replayed {
    summary: WorkloadSummary,
    report: Report,
    end: SimTime,
    log_agreement: bool,
    spans: DriveSpans,
}

/// The drive's epilogue (`sim_driver::finish` and what precedes it), with
/// spans around the collector and the world.
fn epilogue<P>(world: &World<P>, mut collector: Collector, mut spans: DriveSpans) -> Replayed
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    let t = Instant::now();
    collector.set_shard_loads(&shard_loads(world));
    let s = Instant::now();
    let summary = collector.summary();
    spans.summary.close(s);
    let s = Instant::now();
    let report = world.report();
    spans.report.close(s);
    let log_agreement = logs_agree(world);
    spans.epilogue_ns =
        (t.elapsed().as_nanos() as u64).saturating_sub(spans.summary.ns + spans.report.ns);
    Replayed {
        summary,
        report,
        end: world.now(),
        log_agreement,
        spans,
    }
}

/// `sim_driver::run_closed_loop_on`, replayed with spans. The clock is
/// read when the drive changes layer, not per event: a stepping interval
/// runs `World::step` until new commits appear, a feeding interval hands
/// them to the collector and resubmits.
fn replay_closed_loop<P>(world: &mut World<P>, spec: &ClosedLoopSpec, horizon: SimTime) -> Replayed
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    let n = world.config().timing.n();
    let ts = world.config().ts.as_nanos();
    let mut collector = Collector::new(Some(ts), spec.timeline_window);
    collector.reserve_shards(world.process(ProcessId::new(0)).shard_count());
    let mut d = Drive {
        spec,
        gen: CommandGen::for_spec(spec),
        collector,
        owner: BTreeMap::new(),
        spans: DriveSpans::default(),
    };
    let mut t = Instant::now();
    for client in 0..spec.clients as u32 {
        for _ in 0..spec.outstanding {
            d.submit_one(world, n, client);
        }
    }
    t = d.spans.feeding.close(t);
    let mut cursor = world.commits().len();
    while d.collector.committed() < spec.commands && world.now() < horizon {
        if !world.step() {
            break;
        }
        if cursor == world.commits().len() {
            continue;
        }
        t = d.spans.stepping.close(t);
        while cursor < world.commits().len() {
            let c = world.commits()[cursor];
            cursor += 1;
            let s = Instant::now();
            let first = d
                .collector
                .on_commit(c.pid, c.shard, c.value, c.at.as_nanos());
            d.spans.on_commit.close(s);
            if let Some(id) = first {
                let client = d.owner[&id];
                d.submit_one(world, n, client);
            }
        }
        t = d.spans.feeding.close(t);
    }
    d.spans.stepping.close(t);
    epilogue(world, d.collector, d.spans)
}

/// The driver and collector rows of the ledger. Returns the true
/// nanoseconds of everything that is not the world stepping.
fn driver_values(out: &mut UnitOut, cal: &Calibration, sp: &DriveSpans, ops: f64) -> f64 {
    let inner = [sp.gen, sp.on_submit, sp.on_commit, sp.world_submit];
    let inner_recorded: f64 = inner.iter().map(|s| s.ns as f64).sum();
    let inner_calls: f64 = inner.iter().map(|s| s.calls as f64).sum();
    // A feeding interval holds its inner spans whole (two clock reads
    // each, one of them inside the span's own record) plus its own close.
    let driver_self = (sp.feeding.ns as f64
        - inner_recorded
        - cal.read_ns * (inner_calls + sp.feeding.calls as f64))
        .max(0.0)
        + sp.epilogue_ns as f64;
    out.set(
        "workload.collect.commit_records_per_op",
        sp.on_commit.calls as f64 / ops,
    );
    out.set("workload.sim_driver.self_ns_per_op", driver_self / ops);
    out.set("ledger.workload.sim_driver.self", driver_self / ops / 1e3);
    // One row per span: per call as a metric, per op in the ledger.
    let mut total = driver_self;
    for (layer, span) in [
        ("workload.gen.next_command", sp.gen),
        ("workload.collect.on_submit", sp.on_submit),
        ("workload.collect.on_commit", sp.on_commit),
        ("workload.collect.summary", sp.summary),
        ("sim.world.submit", sp.world_submit),
        ("sim.world.report", sp.report),
    ] {
        out.set(&format!("{layer}_ns"), cal.per_call_ns(span));
        out.set(
            &format!("ledger.{layer}"),
            cal.span_true_ns(span) / ops / 1e3,
        );
        total += cal.span_true_ns(span);
    }
    total
}

fn log_values(out: &mut UnitOut, s: &WorkloadSummary) {
    out.set("core.proto.sim_commits_per_s", s.commits_per_sec);
    out.set(
        "core.proto.dup_commits_per_kop",
        s.duplicate_commits as f64 * 1e3 / s.committed.max(1) as f64,
    );
    out.set("core.group.shard_imbalance", s.shard_imbalance);
}

fn sim_closed<P, F>(a: &UnitArgs, speed: Speed, mk: F) -> UnitOut
where
    P: Protocol,
    P::Process: ShardedLogView,
    F: Fn() -> P,
{
    let mut out = UnitOut::default();
    let commands = a.size();
    let cfg = stable_cfg(a.seed, SimTime::ZERO, Scenario::none());
    let spec = ClosedLoopSpec::new(SIM_N, 16, commands).seed(a.seed);
    if !a.traced {
        let mut world = World::new(cfg, mk());
        world.run_until(SIM_WARMUP);
        out.check("leader_anchored", any_leader(&world).is_some());
        let (run, phase) = timed_phase(a, speed, &mut out, || {
            sim_driver::run_closed_loop_on(&mut world, &spec, SIM_HORIZON)
        });
        log_checks(
            &mut out,
            &run.summary,
            commands,
            run.log_agreement,
            &run.router_epochs,
        );
        out.fingerprint = Some(sim_fingerprint(&run.summary, &run.report, run.end));
        end_to_end(&mut out, phase.sim(latency_quantiles(&run.summary)));
        return out;
    }
    let mut cal = Calibration::measure();
    let (timed, handle) = Timed::new(mk(), SIM_N);
    let mut new = Span::default();
    let s = Instant::now();
    let mut world = World::new(cfg, timed);
    new.close(s);
    world.enable_metrics(METER_EVERY, WatchdogConfig::default());
    world.run_until(SIM_WARMUP);
    out.check("leader_anchored", any_leader(&world).is_some());
    let before = SimCounts::of(&world.report());
    let base = handle.read();
    let t = Instant::now();
    let run = replay_closed_loop(&mut world, &spec, SIM_HORIZON);
    let wall = t.elapsed();
    cal.scale_by(speed_scale(&mut out, a, speed));
    let tallies = handle.read().since(&base);
    let epochs: Vec<u64> = (0..SIM_N as u32)
        .map(|p| world.process(ProcessId::new(p)).router_epoch())
        .collect();
    log_checks(&mut out, &run.summary, commands, run.log_agreement, &epochs);
    out.fingerprint = Some(sim_fingerprint(&run.summary, &run.report, run.end));
    let ops = run.summary.committed.max(1) as f64;
    let proto = proto_values(&mut out, &tallies, &cal, ops);
    let counts = SimCounts::of(&run.report).since(before);
    let step_self = world_values(
        &mut out,
        &cal,
        run.spans.stepping,
        &tallies,
        proto,
        counts,
        wall,
    );
    let driver = driver_values(&mut out, &cal, &run.spans, ops);
    log_values(&mut out, &run.summary);
    out.set("sim.world.new_ns", cal.span_true_ns(new));
    out.set("core.proto.anchors", final_anchors(&mut world));
    out.set(
        "benchmark.attributed_us_per_op",
        (step_self + proto + driver) / ops / 1e3,
    );
    out
}

// ---- sim_failover_open_s4 ----------------------------------------------------

/// Poisson arrivals at 2000 commands per simulated second.
const FAILOVER_GAP: RealDuration = RealDuration::from_micros(500);
const FAILOVER_TAIL: RealDuration = RealDuration::from_millis(500);

struct Failover {
    cfg: SimConfig,
    victim: ProcessId,
    crash_at: SimTime,
    horizon: SimTime,
}

/// Builds the fault schedule. The victim is the leader a fault-free
/// set-up run anchors before the stream starts: the real run's history
/// is identical up to there (the stream and the crash only schedule
/// events after it), so the crash hits the anchored leader, at one third
/// of the stream; it restarts at two thirds. `TS` sits just after the
/// crash, which `Scenario` validation requires and which splits
/// `pre_ts`/`post_ts` at the fault.
fn failover_plan(a: &UnitArgs, out: &mut UnitOut) -> Failover {
    let commands = a.size();
    let span = FAILOVER_GAP * commands;
    let crash_at = SIM_WARMUP + span / 3;
    let restart_at = SIM_WARMUP + span * 2 / 3;
    let ts = crash_at + RealDuration::from_millis(1);
    let mut probe = World::new(
        stable_cfg(a.seed, ts, Scenario::none()),
        LogGroup::new(4).with_batching(4, 4),
    );
    probe.run_until(SIM_WARMUP);
    let victim = any_leader(&probe);
    out.check("leader_anchored", victim.is_some());
    let victim = victim.unwrap_or(ProcessId::new(0));
    let target = ProcessId::new((victim.as_u32() + 1) % SIM_N as u32);
    let stream = SubmitStream::poisson(SIM_WARMUP, FAILOVER_GAP, commands)
        .target(StreamTarget::Fixed(target))
        .seed(a.seed)
        .keyed(1024);
    let scenario = Scenario::none()
        .stream(stream)
        .down_between(victim, crash_at, restart_at);
    Failover {
        cfg: stable_cfg(a.seed, ts, scenario),
        victim,
        crash_at,
        horizon: SIM_WARMUP + span + FAILOVER_TAIL,
    }
}

fn failover_checks(out: &mut UnitOut, plan: &Failover, report: &Report) {
    let v = plan.victim.as_usize();
    out.check("crash_fired", report.crashes[v].len() == 1);
    out.check(
        "restart_fired",
        report.restarts[v].len() == 1 && report.alive_at_end[v],
    );
}

fn failover(a: &UnitArgs, speed: Speed) -> UnitOut {
    let mut out = UnitOut::default();
    let commands = a.size();
    let plan = failover_plan(a, &mut out);
    let mk = || LogGroup::new(4).with_batching(4, 4);
    if !a.traced {
        let (run, phase) = timed_phase(a, speed, &mut out, || {
            sim_driver::run_open_loop(plan.cfg.clone(), mk(), plan.horizon)
        });
        log_checks(
            &mut out,
            &run.summary,
            commands,
            run.log_agreement,
            &run.router_epochs,
        );
        failover_checks(&mut out, &plan, &run.report);
        out.fingerprint = Some(sim_fingerprint(&run.summary, &run.report, run.end));
        end_to_end(&mut out, phase.sim(latency_quantiles(&run.summary)));
        return out;
    }
    let mut cal = Calibration::measure();
    let (timed, handle) = Timed::new(mk(), SIM_N);
    let mut spans = DriveSpans::default();
    let mut new = Span::default();
    let t = Instant::now();
    // `sim_driver::run_open_loop`, replayed with spans.
    let cfg = plan.cfg.clone();
    let mut collector = Collector::new(Some(cfg.ts.as_nanos()), cfg.timing.delta() * 5);
    collector.reserve_shards(4);
    let mut due: BTreeMap<u64, SimTime> = BTreeMap::new();
    for stream in &cfg.scenario.streams {
        let s = Instant::now();
        let schedule = stream.expand(SIM_N);
        spans.gen.close_many(s, schedule.len() as u64);
        let s = Instant::now();
        for (at, _, value) in &schedule {
            collector.on_submit(*value, at.as_nanos());
        }
        spans.on_submit.close_many(s, schedule.len() as u64);
        due.extend(schedule.iter().map(|(at, _, v)| (kv_id(*v), *at)));
    }
    let s = Instant::now();
    let mut world = World::new(cfg, timed);
    new.close(s);
    world.enable_metrics(METER_EVERY, WatchdogConfig::default());
    // Two stepping intervals instead of one `run_until(horizon)`, to look
    // at the victim the instant before it crashes.
    let s = Instant::now();
    world.run_until(SimTime::from_nanos(plan.crash_at.as_nanos() - 1));
    spans.stepping.close(s);
    let victim_led = world.process(plan.victim).is_leader();
    let s = Instant::now();
    world.run_until(plan.horizon);
    spans.stepping.close(s);
    let s = Instant::now();
    for c in world.commits() {
        collector.on_commit(c.pid, c.shard, c.value, c.at.as_nanos());
    }
    spans.on_commit.close_many(s, world.commits().len() as u64);
    let run = epilogue(&world, collector, spans);
    let wall = t.elapsed();
    cal.scale_by(speed_scale(&mut out, a, speed));
    out.check("victim_was_leader", victim_led);
    let tallies = handle.read();
    let epochs: Vec<u64> = (0..SIM_N as u32)
        .map(|p| world.process(ProcessId::new(p)).router_epoch())
        .collect();
    log_checks(&mut out, &run.summary, commands, run.log_agreement, &epochs);
    failover_checks(&mut out, &plan, &run.report);
    out.fingerprint = Some(sim_fingerprint(&run.summary, &run.report, run.end));
    // Time without service: the crash to the first commit, anywhere, of a
    // command that was due after it.
    let resumed = world
        .commits()
        .iter()
        .filter(|c| due.get(&kv_id(c.value)).is_some_and(|d| *d > plan.crash_at))
        .map(|c| c.at)
        .min();
    out.check("service_resumed", resumed.is_some());
    out.set(
        "core.proto.unavailable_ms",
        resumed.map_or(0.0, |at| {
            at.saturating_since(plan.crash_at).as_nanos() as f64 / 1e6
        }),
    );
    let ops = run.summary.committed.max(1) as f64;
    let proto = proto_values(&mut out, &tallies, &cal, ops);
    let step_self = world_values(
        &mut out,
        &cal,
        run.spans.stepping,
        &tallies,
        proto,
        SimCounts::of(&run.report),
        wall,
    );
    let driver = driver_values(&mut out, &cal, &run.spans, ops);
    log_values(&mut out, &run.summary);
    let construct = cal.span_true_ns(new);
    out.set("sim.world.new_ns", construct);
    out.set("ledger.sim.world.new_reset", construct / ops / 1e3);
    out.set("core.proto.anchors", final_anchors(&mut world));
    out.set(
        "benchmark.attributed_us_per_op",
        (step_self + proto + driver + construct) / ops / 1e3,
    );
    out
}

// ---- rt_log_s1_n3, rt_group_s4_n3 -------------------------------------------

fn rt_checks(
    out: &mut UnitOut,
    s: &WorkloadSummary,
    commands: u64,
    applied: &[BTreeSet<u64>],
    epochs: &[u64],
) {
    out.attempted = commands;
    out.committed = s.committed;
    out.check("committed_all", s.committed == commands);
    out.check(
        "applied_everywhere",
        applied.iter().all(|ids| ids.len() as u64 == commands),
    );
    out.check(
        "router_epochs_agree",
        epochs.windows(2).all(|w| w[0] == w[1]),
    );
}

/// The replayed threaded drive's submission half.
struct RtDrive<'a, P: Protocol> {
    cluster: &'a Cluster<P>,
    spec: &'a ClosedLoopSpec,
    gen: CommandGen,
    owner: BTreeMap<u64, u32>,
    collector: Collector,
    gen_span: Span,
    on_submit: Span,
    submit: Span,
}

impl<P> RtDrive<'_, P>
where
    P: Protocol,
    P::Process: Send + 'static,
    P::Msg: Send + Clone + 'static,
{
    /// `rt_driver::submit_one`, with a span around each layer call.
    fn submit_one(&mut self, client: u32) {
        if self.gen.issued() >= self.spec.commands {
            return;
        }
        let s = Instant::now();
        let value = self.gen.next_command();
        self.gen_span.close(s);
        self.owner.insert(kv_id(value), client);
        let s = Instant::now();
        self.collector
            .on_submit(value, self.cluster.elapsed().as_nanos() as u64);
        self.on_submit.close(s);
        let s = Instant::now();
        self.cluster
            .submit(self.spec.target_of(client, self.cluster.n()), value);
        self.submit.close(s);
    }
}

fn rt_closed<P, F>(a: &UnitArgs, speed: Speed, mk: F) -> UnitOut
where
    P: Protocol + 'static,
    P::Process: Send + 'static,
    P::Msg: Send + Clone + 'static,
    F: Fn() -> P,
{
    let mut out = UnitOut::default();
    let commands = a.size();
    // δ = 5 ms (the `ClusterConfig` default), stable from the start: the
    // post-stability path injects no delay, so latency here is processor
    // and scheduler time over channels.
    let cfg = ClusterConfig::new(RT_N).seed(a.seed);
    let spec = ClosedLoopSpec::new(RT_N, 8, commands).seed(a.seed);
    if !a.traced {
        let (run, phase) = timed_phase(a, speed, &mut out, || {
            rt_driver::run_closed_loop(cfg, mk(), &spec, RT_WARMUP, RT_DEADLINE)
        });
        match run {
            Err(e) => {
                out.attempted = commands;
                out.check(&format!("runtime error: {e}"), false);
            }
            Ok(run) => {
                rt_checks(
                    &mut out,
                    &run.summary,
                    commands,
                    &run.applied_per_node,
                    &run.router_epochs,
                );
                let quantiles = latency_quantiles(&run.summary);
                end_to_end(&mut out, phase.rt(run.summary.measured_secs, quantiles));
            }
        }
        return out;
    }
    let mut cal = Calibration::measure();
    let (timed, handle) = Timed::new(mk(), RT_N);
    let shards = timed.shard_count();
    let s = Instant::now();
    let cluster = match Cluster::spawn(cfg.metrics(Duration::from_millis(100)), timed) {
        Ok(c) => c,
        Err(e) => {
            out.attempted = commands;
            out.check(&format!("runtime error: {e}"), false);
            return out;
        }
    };
    out.set("runtime.cluster.spawn_ms", s.elapsed().as_secs_f64() * 1e3);
    while cluster.leader_hint().is_none() && s.elapsed() < RT_DEADLINE {
        std::thread::sleep(Duration::from_micros(100));
    }
    out.check("leader_anchored", cluster.leader_hint().is_some());
    out.set(
        "runtime.cluster.first_leader_ms",
        s.elapsed().as_secs_f64() * 1e3,
    );
    std::thread::sleep(RT_WARMUP.saturating_sub(s.elapsed()));

    let mut d = RtDrive {
        cluster: &cluster,
        spec: &spec,
        gen: CommandGen::for_spec(&spec),
        owner: BTreeMap::new(),
        collector: Collector::new(None, spec.timeline_window),
        gen_span: Span::default(),
        on_submit: Span::default(),
        submit: Span::default(),
    };
    d.collector.reserve_shards(shards);
    let mut applied: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); RT_N];
    let (mut on_commit, mut waiting) = (Span::default(), Span::default());
    let usage0 = ThreadUsage::read();
    let base = handle.read();
    let t = Instant::now();
    // `rt_driver::run_closed_loop`, replayed with spans.
    for client in 0..spec.clients as u32 {
        for _ in 0..spec.outstanding {
            d.submit_one(client);
        }
    }
    let mut timed_out = false;
    let mut commit_msgs = 0u64;
    while d.collector.committed() < commands
        || applied.iter().any(|ids| (ids.len() as u64) < commands)
    {
        if cluster.elapsed() > RT_DEADLINE {
            timed_out = true;
            break;
        }
        let s = Instant::now();
        let got = cluster.commits().recv_timeout(Duration::from_millis(20));
        waiting.close(s);
        let Ok(commit) = got else { continue };
        commit_msgs += 1;
        applied[commit.pid.as_usize()].insert(kv_id(commit.value));
        let s = Instant::now();
        let first = d.collector.on_commit(
            commit.pid,
            commit.shard,
            commit.value,
            commit.elapsed.as_nanos() as u64,
        );
        on_commit.close(s);
        if let Some(id) = first {
            let client = d.owner[&id];
            d.submit_one(client);
        }
    }
    let drive = t.elapsed();
    let usage = ThreadUsage::read().since(&usage0);
    cal.scale_by(speed_scale(&mut out, a, speed));
    let tallies = handle.read().since(&base);
    let RtDrive {
        mut collector,
        gen_span,
        on_submit,
        submit,
        ..
    } = d;
    let s = Instant::now();
    let stats = cluster.shutdown_stats();
    out.set(
        "runtime.cluster.shutdown_ms",
        s.elapsed().as_secs_f64() * 1e3,
    );
    out.check("finished_before_deadline", !timed_out);

    let mut loads = vec![ShardLoad::default(); shards];
    for node in &stats {
        for (l, load) in loads.iter_mut().zip(&node.shard_loads) {
            l.submitted += load.submitted;
            l.admitted += load.admitted;
        }
    }
    collector.set_shard_loads(&loads);
    let epochs: Vec<u64> = stats.iter().map(|s| s.router_epoch).collect();
    let s = Instant::now();
    let summary = collector.summary();
    out.set("workload.collect.summary_ns", cal.host_ns(s.elapsed()));
    rt_checks(&mut out, &summary, commands, &applied, &epochs);

    let ops = summary.committed.max(1) as f64;
    let measured_s = summary.measured_secs;
    let proto = proto_values(&mut out, &tallies, &cal, ops);
    let node_cpu_ns = usage.others_cpu_ns as f64 * cal.scale;
    out.set("core.proto.busy_share", proto / node_cpu_ns.max(1.0));
    log_values(&mut out, &summary);
    out.set("core.proto.sim_commits_per_s", 0.0);
    out.set(
        "core.proto.anchors",
        stats
            .iter()
            .filter_map(|s| s.snapshots.last())
            .map(|s| s.counter(Metric::Anchored) as f64)
            .sum(),
    );
    out.set("workload.gen.next_command_ns", cal.per_call_ns(gen_span));
    out.set("workload.collect.on_submit_ns", cal.per_call_ns(on_submit));
    out.set("workload.collect.on_commit_ns", cal.per_call_ns(on_commit));
    out.set(
        "workload.collect.commit_records_per_op",
        on_commit.calls as f64 / ops,
    );
    out.set("runtime.cluster.submit_ns", cal.per_call_ns(submit));
    out.set(
        "runtime.cluster.commit_recv_wait_share",
        cal.span_true_ns(waiting) / cal.host_ns(drive),
    );
    out.set(
        "runtime.cluster.commit_msgs_per_op",
        commit_msgs as f64 / ops,
    );
    out.set(
        "runtime.cluster.commits_per_s",
        summary.commits_per_sec / cal.scale,
    );
    out.set("runtime.node.cpu_us_per_op", node_cpu_ns / ops / 1e3);
    out.set("runtime.node.handler_us_per_op", proto / ops / 1e3);
    out.set(
        "runtime.node.nonhandler_cpu_us_per_op",
        (node_cpu_ns - proto - cal.instrument_ns(tallies.total().calls)).max(0.0) / ops / 1e3,
    );
    out.set(
        "runtime.node.ctx_switches_per_op",
        usage.ctx_switches as f64 / ops,
    );
    out.set(
        "benchmark.traced_host_us_per_op",
        measured_s * 1e6 * cal.scale / ops,
    );
    out.set("benchmark.clock_read_ns", cal.read_ns);
    out
}
