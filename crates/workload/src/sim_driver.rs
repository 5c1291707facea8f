//! Workload drivers over the deterministic discrete-event simulator.
//!
//! Everything here is a pure function of the configuration and seeds:
//! rerunning a driver with the same inputs produces a bit-identical
//! [`WorkloadSummary`] (and simulator [`Report`]), which is what lets
//! `BENCH_exp_w*.json` artifacts diff cleanly across machines.

use crate::collect::Collector;
use crate::gen::{ClosedLoopSpec, CommandGen};
use esync_core::outbox::{Process, Protocol, ShardLoad};
use esync_core::paxos::group::ShardedLogView;
use esync_core::types::{ProcessId, ShardId};
use esync_sim::metrics::{CommitRecord, WorkloadSummary};
use esync_sim::{Report, SimConfig, SimTime, World};
use std::collections::BTreeMap;

/// A completed simulator workload run.
#[derive(Debug, Clone)]
pub struct SimWorkloadOutcome {
    /// Throughput and latency measurements.
    pub summary: WorkloadSummary,
    /// The underlying simulator report (events, messages, config echo).
    pub report: Report,
    /// Simulated instant the drive stopped at.
    pub end: SimTime,
    /// Whether every pair of processes agrees on every shared log slot of
    /// every shard — the replicated-log safety property (single-shot
    /// `Report::agreement` is about first decides and does not apply to
    /// steady-state logs).
    pub log_agreement: bool,
    /// Per-process router epochs at the end of the run (all zero unless
    /// live rebalancing moved a boundary; rebalance tests assert they
    /// agree and are nonzero).
    pub router_epochs: Vec<u64>,
    /// The typed trace collected during the drive, stamped in simulated
    /// nanoseconds. Empty unless the run was traced
    /// ([`run_closed_loop_traced`], or a caller-prepared world with
    /// [`World::enable_typed_trace`]).
    pub trace: Vec<esync_trace::TraceRecord>,
}

/// Slot-by-slot log agreement across all processes, per shard: no two
/// processes hold different batches in the same `(shard, slot)`. Works
/// over any log protocol exposing [`ShardedLogView`] — the plain
/// `MultiPaxos` log (one shard) and the sharded `LogGroup` alike.
fn logs_agree<P>(world: &World<P>) -> bool
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    let n = world.config().timing.n();
    let shards = (0..n as u32)
        .map(|p| world.process(ProcessId::new(p)).shard_count())
        .max()
        .unwrap_or(1);
    for shard in (0..shards as u32).map(ShardId::new) {
        let mut reference: BTreeMap<u64, &[esync_core::types::Value]> = BTreeMap::new();
        for pid in (0..n as u32).map(ProcessId::new) {
            let proc = world.process(pid);
            debug_assert_eq!(proc.shard_count(), shards, "homogeneous groups");
            for (slot, batch) in proc.shard_log(shard).iter() {
                match reference.entry(slot) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(batch);
                    }
                    std::collections::btree_map::Entry::Occupied(e) => {
                        if *e.get() != &batch[..] {
                            return false;
                        }
                    }
                }
            }
        }
    }
    true
}

/// Runs an **open-loop** workload: the configuration's scenario
/// [`SubmitStream`](esync_sim::scenario::SubmitStream)s arrive on their
/// schedule regardless of completion; the world runs to `horizon` and
/// every commit is scored against its submission. Only stream commands
/// are scored — plain `scenario.submits` still execute, but their values
/// share no id-namespace discipline with the streams, so they are left
/// out of the measurement (the collector ignores untracked ids).
///
/// The pre-/post-stability split classifies a command by its *submission*
/// instant relative to the configuration's `TS`.
///
/// Generic over the log protocol: drive a plain
/// [`MultiPaxos`](esync_core::paxos::multi::MultiPaxos) or a sharded
/// [`LogGroup`](esync_core::paxos::group::LogGroup) — shard routing
/// happens inside the processes, so the submitted command sequence is
/// bit-identical across shard counts.
pub fn run_open_loop<P>(cfg: SimConfig, protocol: P, horizon: SimTime) -> SimWorkloadOutcome
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    let n = cfg.timing.n();
    let spec_window = default_timeline_window(&cfg);
    let mut collector = Collector::new(Some(cfg.ts.as_nanos()), spec_window);
    collector.reserve_shards(protocol.shard_count());
    // `expand` is a pure function of `(stream, n)`, so this expansion is
    // bit-identical to the one `World::new` schedules from the same
    // config — the collector scores against exactly the submissions the
    // world executes.
    for stream in &cfg.scenario.streams {
        for (at, _, value) in stream.expand(n) {
            collector.on_submit(value, at.as_nanos());
        }
    }
    let mut world = World::new(cfg, protocol);
    world.run_until(horizon);
    for c in world.commits() {
        collector.on_commit(c.pid, c.shard, c.value, c.at.as_nanos());
    }
    collector.set_shard_loads(&shard_loads(&world));
    finish(collector, &mut world)
}

/// Assembles the outcome, attaching what the world's observer collected.
fn finish<P>(collector: Collector, world: &mut World<P>) -> SimWorkloadOutcome
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    let (trace, health) = world.take_observation();
    SimWorkloadOutcome {
        summary: collector.observed_summary(&trace, health),
        report: world.report(),
        end: world.now(),
        log_agreement: logs_agree(world),
        router_epochs: router_epochs(world),
        trace,
    }
}

/// The open-loop timeline window: δ·5, so a 10ms-δ run gets 50ms windows.
fn default_timeline_window(cfg: &SimConfig) -> esync_core::time::RealDuration {
    cfg.timing.delta() * 5
}

/// Sums the protocol-level per-shard load counters across processes
/// (the schema-v5 `submitted`/`admitted` observability).
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

/// Every process's applied router epoch, by pid.
fn router_epochs<P: Protocol>(world: &World<P>) -> Vec<u64> {
    let n = world.config().timing.n();
    (0..n as u32)
        .map(|p| world.process(ProcessId::new(p)).router_epoch())
        .collect()
}

/// Runs a **closed-loop** workload: `spec.clients` clients each keep
/// `spec.outstanding` commands in flight (submitting to process
/// `client mod n`), replacing each command the moment its first commit
/// lands, until `spec.commands` have been issued and committed — the
/// saturation-throughput drive. `warmup` gives the log time to anchor a
/// leader before measurement; `horizon` bounds the run.
pub fn run_closed_loop<P>(
    cfg: SimConfig,
    protocol: P,
    spec: &ClosedLoopSpec,
    warmup: SimTime,
    horizon: SimTime,
) -> SimWorkloadOutcome
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    let mut world = World::new(cfg, protocol);
    world.run_until(warmup);
    run_closed_loop_on(&mut world, spec, horizon)
}

/// [`run_closed_loop`] with typed tracing enabled from before the warmup
/// (so anchor-establishment events are captured too): every process's
/// [`TraceEvent`](esync_core::trace::TraceEvent)s are collected (into a
/// ring of `trace_capacity` records) and the summary's
/// `phase_latency` decomposition is attached. Tracing is observational
/// only, so apart from the extra fields the outcome is bit-identical to
/// the untraced run.
pub fn run_closed_loop_traced<P>(
    cfg: SimConfig,
    protocol: P,
    spec: &ClosedLoopSpec,
    warmup: SimTime,
    horizon: SimTime,
    trace_capacity: usize,
) -> SimWorkloadOutcome
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    let mut world = World::new(cfg, protocol);
    world.enable_typed_trace(trace_capacity);
    world.run_until(warmup);
    run_closed_loop_on(&mut world, spec, horizon)
}

/// [`run_closed_loop`] with always-on metering enabled from before the
/// warmup: the world samples a cluster-wide [`MetricsSnapshot`] every
/// `interval` of simulated time, evaluates the online watchdogs on each,
/// and the outcome's summary carries the whole series in its `health`
/// section (schema v7). Metering shares tracing's sans-IO seam, so apart
/// from the extra field the outcome is bit-identical to the unmetered
/// run.
///
/// [`MetricsSnapshot`]: esync_metrics::MetricsSnapshot
pub fn run_closed_loop_metered<P>(
    cfg: SimConfig,
    protocol: P,
    spec: &ClosedLoopSpec,
    warmup: SimTime,
    horizon: SimTime,
    interval: esync_core::time::RealDuration,
    watchdogs: esync_metrics::WatchdogConfig,
) -> SimWorkloadOutcome
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    let mut world = World::new(cfg, protocol);
    world.enable_metrics(interval, watchdogs);
    world.run_until(warmup);
    run_closed_loop_on(&mut world, spec, horizon)
}

/// [`run_closed_loop`] over a caller-prepared world: the world has
/// already been constructed and warmed up (and may carry injected
/// events — this is the reuse point for fault drives that pick a victim
/// *after* observing the warm state, e.g. `tests/leader_churn.rs`
/// crashing whichever process anchored). Exactly the canonical
/// closed-loop drive: any future change to the loop is shared by the
/// experiments and the fault scenarios.
///
/// The drive releases every commit record once it has read it (see
/// [`World::release_commits`]), so afterwards `world.commits()` holds
/// none of them; a caller that checks the record stream reads it through
/// [`run_closed_loop_tapped`].
pub fn run_closed_loop_on<P>(
    world: &mut World<P>,
    spec: &ClosedLoopSpec,
    horizon: SimTime,
) -> SimWorkloadOutcome
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    run_closed_loop_tapped(world, spec, horizon, |_| {})
}

/// [`run_closed_loop_on`] that hands `tap` every commit record it
/// releases, in application order: first the records the world held when
/// the drive started (a caller's warmup), then each one the drive reads.
pub fn run_closed_loop_tapped<P>(
    world: &mut World<P>,
    spec: &ClosedLoopSpec,
    horizon: SimTime,
    mut tap: impl FnMut(&CommitRecord),
) -> SimWorkloadOutcome
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    assert!(spec.clients >= 1, "at least one client");
    assert!(spec.outstanding >= 1, "at least one in-flight command");
    let n = world.config().timing.n();
    let ts = world.config().ts.as_nanos();
    let mut collector = Collector::new(Some(ts), spec.timeline_window);
    collector.reserve_shards(world.process(ProcessId::new(0)).shard_count());
    let mut gen = CommandGen::for_spec(spec);
    // The client of each issued command, by id: `CommandGen` issues ids
    // 0, 1, 2, … in order.
    let mut owner: Vec<u32> = Vec::new();
    for client in 0..spec.clients as u32 {
        for _ in 0..spec.outstanding {
            submit_one(world, &mut gen, &mut collector, &mut owner, n, client, spec);
        }
    }
    // Commits from before this drive (a caller's warmup) carry ids the
    // collector never saw submitted, so scoring them is a no-op; only the
    // tap sees them.
    world.commits().iter().for_each(&mut tap);
    world.release_commits();
    while collector.committed() < spec.commands && world.now() < horizon {
        if !world.step() {
            break; // quiescent: nothing left that could commit
        }
        for i in 0..world.commits().len() {
            let c = world.commits()[i];
            tap(&c);
            if let Some(id) = collector.on_commit(c.pid, c.shard, c.value, c.at.as_nanos()) {
                let client = owner[id as usize];
                submit_one(world, &mut gen, &mut collector, &mut owner, n, client, spec);
            }
        }
        world.release_commits();
    }
    collector.set_shard_loads(&shard_loads(world));
    finish(collector, world)
}

/// Issues the next command for `client`, if the budget allows.
fn submit_one<P: Protocol>(
    world: &mut World<P>,
    gen: &mut CommandGen,
    collector: &mut Collector,
    owner: &mut Vec<u32>,
    n: usize,
    client: u32,
    spec: &ClosedLoopSpec,
) {
    if gen.issued() >= spec.commands {
        return;
    }
    let value = gen.next_command();
    owner.push(client);
    let now = world.now();
    collector.on_submit(value, now.as_nanos());
    world.submit(now, spec.target_of(client, n), value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use esync_core::paxos::group::LogGroup;
    use esync_core::paxos::multi::MultiPaxos;
    use esync_sim::scenario::SubmitStream;
    use esync_sim::{PreStability, Scenario};

    fn stable_cfg(n: usize, seed: u64) -> SimConfig {
        SimConfig::builder(n)
            .seed(seed)
            .stability_at_millis(0)
            .pre_stability(PreStability::lossless())
            .build()
            .unwrap()
    }

    #[test]
    fn closed_loop_commits_everything() {
        let spec = ClosedLoopSpec::new(3, 2, 40).seed(1);
        let out = run_closed_loop(
            stable_cfg(3, 1),
            MultiPaxos::new(),
            &spec,
            SimTime::from_millis(500),
            SimTime::from_secs(60),
        );
        assert_eq!(out.summary.submitted, 40);
        assert_eq!(out.summary.committed, 40);
        assert!(out.summary.commits_per_sec > 0.0);
        assert_eq!(out.summary.latency.count, 40);
        assert!(out.summary.latency.p50_ns > 0);
        assert!(out.log_agreement);
    }

    #[test]
    fn closed_loop_is_bit_identical_across_reruns() {
        let spec = ClosedLoopSpec::new(2, 4, 60).seed(9);
        let run = || {
            run_closed_loop(
                stable_cfg(5, 7),
                MultiPaxos::new().with_batching(4, 2),
                &spec,
                SimTime::from_millis(500),
                SimTime::from_secs(60),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.summary, b.summary, "same seeds, same measurements");
        assert_eq!(a.report, b.report);
        assert_eq!(a.end, b.end);
    }

    #[test]
    fn open_loop_scores_stream_commands() {
        let stream = SubmitStream::fixed_rate(
            SimTime::from_millis(400),
            esync_core::time::RealDuration::from_millis(5),
            30,
        )
        .keyed(64)
        .seed(2);
        let mut cfg = stable_cfg(3, 3);
        cfg.scenario = Scenario::none().stream(stream);
        let out = run_open_loop(cfg, MultiPaxos::new(), SimTime::from_secs(3));
        assert_eq!(out.summary.submitted, 30);
        assert_eq!(out.summary.committed, 30);
        assert!(out.log_agreement);
        assert!(out.summary.post_ts.is_some(), "TS=0: all post-stability");
        assert!(out.summary.pre_ts.is_none());
        assert_eq!(out.summary.timeline.iter().sum::<u64>(), 30);
    }

    #[test]
    fn open_loop_is_bit_identical_across_reruns() {
        let mk = || {
            let stream = SubmitStream::poisson(
                SimTime::from_millis(100),
                esync_core::time::RealDuration::from_millis(4),
                50,
            )
            .keyed(32)
            .seed(11);
            let mut cfg = SimConfig::builder(3)
                .seed(5)
                .stability_at_millis(300)
                .pre_stability(PreStability::chaos())
                .build()
                .unwrap();
            cfg.scenario = Scenario::none().stream(stream);
            run_open_loop(cfg, MultiPaxos::new(), SimTime::from_secs(5))
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn closed_loop_drives_a_sharded_group() {
        let spec = ClosedLoopSpec::new(4, 4, 80).seed(3).key_space(256);
        let out = run_closed_loop(
            stable_cfg(3, 2),
            LogGroup::new(4),
            &spec,
            SimTime::from_millis(500),
            SimTime::from_secs(60),
        );
        assert_eq!(out.summary.committed, 80);
        assert!(out.log_agreement, "per-shard slot agreement");
        assert_eq!(out.summary.per_shard.len(), 4, "all shards saw traffic");
        assert_eq!(
            out.summary
                .per_shard
                .iter()
                .map(|s| s.committed)
                .sum::<u64>(),
            80,
            "shard split partitions the commits"
        );
        assert!(
            out.summary.per_shard.iter().all(|s| s.committed > 0),
            "uniform keys reach every shard: {:?}",
            out.summary
                .per_shard
                .iter()
                .map(|s| s.committed)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn traced_run_measures_phases_without_perturbing_the_run() {
        let spec = ClosedLoopSpec::new(3, 2, 40).seed(1);
        let run = |traced| {
            let cfg = stable_cfg(3, 1);
            let warmup = SimTime::from_millis(500);
            let horizon = SimTime::from_secs(60);
            if traced {
                run_closed_loop_traced(cfg, MultiPaxos::new(), &spec, warmup, horizon, 1 << 16)
            } else {
                run_closed_loop(cfg, MultiPaxos::new(), &spec, warmup, horizon)
            }
        };
        let plain = run(false);
        let traced = run(true);
        assert!(plain.trace.is_empty() && plain.summary.phase_latency.is_none());
        assert!(!traced.trace.is_empty());
        let phases = traced
            .summary
            .phase_latency
            .as_ref()
            .expect("decomposition");
        assert_eq!(phases.decisions, 40, "every command decomposed");
        assert_eq!(phases.queue.count, 40);
        assert_eq!(phases.quorum.count, 40);
        // Tracing is observational: strip the extra fields and the two
        // runs must be bit-identical.
        let mut stripped = traced.summary.clone();
        stripped.phase_latency = None;
        assert_eq!(stripped, plain.summary);
        assert_eq!(traced.report, plain.report);
        assert_eq!(traced.end, plain.end);
    }

    #[test]
    fn metered_run_attaches_health_without_perturbing_the_run() {
        let spec = ClosedLoopSpec::new(3, 2, 40).seed(1);
        let run = |metered| {
            let cfg = stable_cfg(3, 1);
            let warmup = SimTime::from_millis(500);
            let horizon = SimTime::from_secs(60);
            if metered {
                run_closed_loop_metered(
                    cfg,
                    MultiPaxos::new(),
                    &spec,
                    warmup,
                    horizon,
                    esync_core::time::RealDuration::from_millis(50),
                    esync_metrics::WatchdogConfig::default(),
                )
            } else {
                run_closed_loop(cfg, MultiPaxos::new(), &spec, warmup, horizon)
            }
        };
        let plain = run(false);
        let metered = run(true);
        assert!(plain.summary.health.is_none());
        let health = metered.summary.health.as_ref().expect("health section");
        assert_eq!(health.interval_ns, 50_000_000);
        assert!(!health.snapshots.is_empty());
        // Sim snapshots are cluster-wide (node = None) and stamped at
        // exact cadence boundaries.
        assert!(health.snapshots.iter().all(|s| s.node.is_none()));
        assert!(health
            .snapshots
            .iter()
            .enumerate()
            .all(|(i, s)| s.at_ns == (i as u64 + 1) * 50_000_000));
        // A stable closed loop trips no watchdog and drops no trace.
        assert_eq!(health.firings, vec![]);
        assert_eq!(health.trace_dropped, 0);
        // Metering is observational: strip the extra field and the two
        // runs must be bit-identical.
        let mut stripped = metered.summary.clone();
        stripped.health = None;
        assert_eq!(stripped, plain.summary);
        assert_eq!(metered.report, plain.report);
        assert_eq!(metered.end, plain.end);
    }

    #[test]
    fn open_loop_splits_latency_at_stability() {
        // Submissions straddle TS=300ms under chaos: the pre-TS side must
        // be recorded separately and be slower in the tail.
        let stream = SubmitStream::fixed_rate(
            SimTime::from_millis(50),
            esync_core::time::RealDuration::from_millis(25),
            40,
        )
        .keyed(16)
        .seed(4);
        let mut cfg = SimConfig::builder(5)
            .seed(6)
            .stability_at_millis(300)
            .pre_stability(PreStability::chaos())
            .build()
            .unwrap();
        cfg.scenario = Scenario::none().stream(stream);
        let out = run_open_loop(cfg, MultiPaxos::new(), SimTime::from_secs(10));
        let pre = out.summary.pre_ts.expect("pre-TS submissions exist");
        let post = out.summary.post_ts.expect("post-TS submissions exist");
        assert!(pre.count > 0 && post.count > 0);
        assert_eq!(
            pre.count + post.count,
            out.summary.latency.count,
            "split partitions the histogram"
        );
    }
}
