//! Criterion micro-benchmarks: simulator event throughput, event-queue
//! steady-state cost, protocol step cost, parallel sweep throughput, and
//! end-to-end run cost vs N.
//!
//! Set `CRITERION_OUT=BENCH_micro.json` to capture the measurements as a
//! machine-readable artifact (`scripts/bench.sh` does).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use esync_bench::SweepRunner;
use esync_core::ballot::Ballot;
use esync_core::config::TimingConfig;
use esync_core::outbox::{Outbox, Process, Protocol};
use esync_core::paxos::messages::PaxosMsg;
use esync_core::paxos::session::SessionPaxos;
use esync_core::paxos::state::DecisionTracker;
use esync_core::time::LocalInstant;
use esync_core::types::{ProcessId, Value};
use esync_sim::event::{EventKind, EventQueue, MsgPayload};
use esync_sim::{PreStability, SimConfig, SimTime, World};
use std::hint::black_box;

fn full_run(n: usize, seed: u64) -> u64 {
    let cfg = SimConfig::builder(n)
        .seed(seed)
        .stability_at_millis(100)
        .pre_stability(PreStability::lossless())
        .build()
        .unwrap();
    let mut w = World::new(cfg, SessionPaxos::new());
    let r = w.run_to_completion().unwrap();
    r.events
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_stable_run");
    for n in [3usize, 5, 9, 17, 33] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(full_run(n, seed))
            });
        });
    }
    group.finish();
}

/// A closed-loop drive through the sharded log group: the event loop
/// under multi-instance load (shard-tagged messages, per-shard timers,
/// SoA liveness flags on every deliver). The end-to-end cost of one
/// committed command through the S=4 engine.
fn bench_log_group_workload(c: &mut Criterion) {
    use esync_core::paxos::group::LogGroup;
    use esync_workload::gen::ClosedLoopSpec;
    use esync_workload::sim_driver::run_closed_loop;
    c.bench_function("log_group_s4_closed_loop_120_commands", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let cfg = SimConfig::builder(5)
                .seed(seed)
                .stability_at_millis(0)
                .pre_stability(PreStability::lossless())
                .build()
                .unwrap();
            let spec = ClosedLoopSpec::new(5, 8, 120).seed(seed).key_space(1 << 10);
            let out = run_closed_loop(
                cfg,
                LogGroup::new(4),
                &spec,
                SimTime::from_millis(500),
                SimTime::from_secs(120),
            );
            assert_eq!(out.summary.committed, 120);
            black_box(out.report.events)
        });
    });
}

fn bench_chaos_run(c: &mut Criterion) {
    c.bench_function("end_to_end_chaos_run_n5", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let cfg = SimConfig::builder(5)
                .seed(seed)
                .stability_at_millis(300)
                .pre_stability(PreStability::chaos())
                .build()
                .unwrap();
            let mut w = World::new(cfg, SessionPaxos::new());
            black_box(w.run_to_completion().unwrap().events)
        });
    });
}

fn bench_protocol_step(c: &mut Criterion) {
    c.bench_function("session_paxos_on_message_p1a", |b| {
        let cfg = TimingConfig::for_n_processes(5).unwrap();
        let proto = SessionPaxos::new();
        let mut p = proto.spawn(ProcessId::new(0), &cfg, Value::new(1));
        let mut out = Outbox::new(LocalInstant::ZERO);
        p.on_start(&mut out);
        out.drain();
        let mut ballot = 6u64;
        b.iter(|| {
            ballot += 5; // fresh higher ballot every iteration
            p.on_message(
                ProcessId::new(1),
                &PaxosMsg::P1a {
                    mbal: Ballot::new(ballot),
                },
                &mut out,
            );
            black_box(out.drain().len())
        });
    });
}

/// Promise truncation (the ROADMAP "promise size" item): building the
/// phase-1b reply of a replicated-log acceptor with 4096 chosen slots
/// and a small in-flight window. The **caught-up** caller (prefix equal
/// to the reporter's — the steady-state ε re-announcement case) costs
/// `O(window)`; the **cold** caller (prefix 0 — a restarted process's
/// full catch-up) pays the full `O(log length)` the old untruncated
/// promise paid on *every* reply. The delta between these two entries is
/// the truncation win. `slotmap_tail_window4_log4096` is the container
/// read underneath the caught-up reply; the `group_1a_reply_*` pair is
/// the whole `G1a` handler of an S=8 group (4096 chosen slots and a
/// window of 4 per shard) before the ballot's first 2a (full promise)
/// and after it (payload-free).
fn bench_promise_truncation(c: &mut Criterion) {
    use esync_core::paxos::group::{GroupMsg, LogGroup, ShardId};
    use esync_core::paxos::multi::{batch_of, MultiMsg, MultiPaxos};
    use esync_core::paxos::slotlog::SlotMap;

    let cfg = TimingConfig::for_n_processes(3).unwrap();
    let build = || {
        let mut p = MultiPaxos::new().spawn(ProcessId::new(0), &cfg, Value::new(0));
        let mut out: Outbox<GroupMsg> = Outbox::new(LocalInstant::ZERO);
        p.on_start(&mut out);
        out.drain();
        // 4096 chosen slots (learned decisions), plus an in-flight window
        // of 4 accepted-but-unchosen votes above the prefix.
        let decided = (0..4096u64).map(|slot| MultiMsg::LogDecided {
            slot,
            batch: batch_of([Value::new(slot)]),
        });
        let voted = (4097..=4100u64).map(|slot| MultiMsg::M2a {
            mbal: Ballot::new(4),
            slot,
            batch: batch_of([Value::new(slot)]),
        });
        for msg in decided.chain(voted) {
            let shard = ShardId::ZERO;
            p.on_message(ProcessId::new(1), &GroupMsg::Shard { shard, msg }, &mut out);
            out.drain();
        }
        p
    };
    c.bench_function("promise_reply_log4096_caught_up_caller", |b| {
        let p = build();
        let log = p.shard(ShardId::ZERO);
        let prefix = log.chosen_prefix();
        b.iter(|| black_box(log.vote_report(prefix).votes.len()));
    });
    c.bench_function("promise_reply_log4096_cold_caller", |b| {
        let p = build();
        let log = p.shard(ShardId::ZERO);
        b.iter(|| black_box(log.vote_report(0).chosen.len()));
    });
    c.bench_function("slotmap_tail_window4_log4096", |b| {
        let mut m: SlotMap<u64> = SlotMap::new();
        for slot in 0..=4100u64 {
            m.insert(slot, slot);
        }
        b.iter(|| black_box(m.tail(black_box(4097)).count()));
    });

    // The same log shape in every shard of an S=8 group whose last votes
    // were cast at ballot 4 (owner p1).
    let build_group = || {
        let mut p = LogGroup::new(8).spawn(ProcessId::new(0), &cfg, Value::new(0));
        let mut out: Outbox<GroupMsg> = Outbox::new(LocalInstant::ZERO);
        p.on_start(&mut out);
        for shard in (0..8).map(ShardId::new) {
            let decided = (0..4096u64).map(|slot| MultiMsg::LogDecided {
                slot,
                batch: batch_of([Value::new(slot)]),
            });
            let voted = (4097..=4100u64).map(|slot| MultiMsg::M2a {
                mbal: Ballot::new(4),
                slot,
                batch: batch_of([Value::new(slot)]),
            });
            for msg in decided.chain(voted) {
                p.on_message(ProcessId::new(1), &GroupMsg::Shard { shard, msg }, &mut out);
                out.drain();
            }
        }
        (p, out)
    };
    // `from`'s re-announcement of `mbal` by a caught-up caller.
    let reannounce = |c: &mut Criterion, name: &str, from: u32, mbal: u64| {
        c.bench_function(name, |b| {
            let (mut p, mut out) = build_group();
            let g1a = GroupMsg::G1a {
                mbal: Ballot::new(mbal),
                prefixes: vec![4096; 8],
            };
            b.iter(|| {
                p.on_message(ProcessId::new(from), &g1a, &mut out);
                black_box(out.drain().len())
            });
        });
    };
    // Ballot 8 (owner p2) has sent no 2a: every reply is a full promise.
    reannounce(c, "group_1a_reply_s8_window4_log4096", 2, 8);
    // Ballot 4 is in phase 2: the reply is an acknowledgement.
    reannounce(c, "group_1a_reply_s8_window4_log4096_phase2_seen", 1, 4);
}

/// The phase-2b tally: the current-ballot cache vs the `BTreeMap` fallback
/// — the delta between these two is the fast path's win (a stable run is
/// ~100% current-ballot hits).
fn bench_decision_tracker(c: &mut Criterion) {
    c.bench_function("decision_tracker_2b_current_ballot", |b| {
        let mut d = DecisionTracker::new();
        let bal = Ballot::new(1_000_000);
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(d.record(64, ProcessId::new(i % 64), bal, Value::new(7)))
        });
    });
    c.bench_function("decision_tracker_2b_old_ballot", |b| {
        let mut d = DecisionTracker::new();
        for k in 0..64u64 {
            d.record(64, ProcessId::new(0), Ballot::new(k), Value::new(7));
        }
        // The cache sits on a far newer ballot; every record below goes
        // through the map.
        d.record(64, ProcessId::new(0), Ballot::new(1_000_000), Value::new(7));
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(d.record(
                64,
                ProcessId::new(i % 64),
                Ballot::new(u64::from(i % 64)),
                Value::new(7),
            ))
        });
    });
}

/// Typed-tracing cost on one closed-loop drive (`MultiPaxos`, n = 3,
/// 4 clients × 4 outstanding, 120 commands, a fresh seed per iteration):
/// `trace_overhead_noop` runs it untraced, the default every other
/// benchmark runs under; `trace_overhead_on` runs it with every protocol
/// event stamped into a 2¹⁸-record ring. The pair is reported, not
/// gated: no script compares the two rows.
fn bench_trace_overhead(c: &mut Criterion) {
    use esync_core::paxos::multi::MultiPaxos;
    use esync_workload::gen::ClosedLoopSpec;
    use esync_workload::sim_driver::{run_closed_loop, run_closed_loop_traced};

    let drive = |seed: u64, traced: bool| {
        let cfg = SimConfig::builder(3)
            .seed(seed)
            .stability_at_millis(0)
            .pre_stability(PreStability::lossless())
            .build()
            .unwrap();
        let spec = ClosedLoopSpec::new(4, 4, 120).seed(seed).key_space(1 << 10);
        let warmup = SimTime::from_millis(500);
        let horizon = SimTime::from_secs(120);
        let out = if traced {
            run_closed_loop_traced(cfg, MultiPaxos::new(), &spec, warmup, horizon, 1 << 18)
        } else {
            run_closed_loop(cfg, MultiPaxos::new(), &spec, warmup, horizon)
        };
        assert_eq!(out.summary.committed, 120);
        out.report.events
    };
    c.bench_function("trace_overhead_noop", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(drive(seed, false))
        });
    });
    c.bench_function("trace_overhead_on", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(drive(seed, true))
        });
    });
}

/// The metrics registry's cost on the same closed-loop drive as
/// `bench_trace_overhead`: `metrics_overhead_noop` runs it unmetered;
/// `metrics_overhead_on` runs it with counters metered, a snapshot every
/// 50 ms of simulated time and every watchdog armed. The pair is
/// reported, not gated: no script compares the two rows.
fn bench_metrics_overhead(c: &mut Criterion) {
    use esync_core::paxos::multi::MultiPaxos;
    use esync_core::time::RealDuration;
    use esync_workload::gen::ClosedLoopSpec;
    use esync_workload::sim_driver::{run_closed_loop, run_closed_loop_metered};

    let drive = |seed: u64, metered: bool| {
        let cfg = SimConfig::builder(3)
            .seed(seed)
            .stability_at_millis(0)
            .pre_stability(PreStability::lossless())
            .build()
            .unwrap();
        let spec = ClosedLoopSpec::new(4, 4, 120).seed(seed).key_space(1 << 10);
        let warmup = SimTime::from_millis(500);
        let horizon = SimTime::from_secs(120);
        let out = if metered {
            run_closed_loop_metered(
                cfg,
                MultiPaxos::new(),
                &spec,
                warmup,
                horizon,
                RealDuration::from_millis(50),
                esync_metrics::WatchdogConfig::default(),
            )
        } else {
            run_closed_loop(cfg, MultiPaxos::new(), &spec, warmup, horizon)
        };
        assert_eq!(out.summary.committed, 120);
        out.report.events
    };
    c.bench_function("metrics_overhead_noop", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(drive(seed, false))
        });
    });
    c.bench_function("metrics_overhead_on", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(drive(seed, true))
        });
    });
}

/// Steady-state calendar-queue churn at a simulator-realistic size
/// (~6000 pending events, delays within a 10ms band).
fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_steady_state_6k", |b| {
        let mut q: EventQueue<PaxosMsg> = EventQueue::with_capacity(8 * 1024);
        let mut now = 0u64;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mk = |at: u64, r: u64| {
            (
                SimTime::from_nanos(at),
                EventKind::Deliver {
                    from: ProcessId::new(0),
                    to: ProcessId::new((r % 17) as u32),
                    msg: MsgPayload::Owned(PaxosMsg::P1a {
                        mbal: Ballot::new(r),
                    }),
                },
            )
        };
        for _ in 0..6000 {
            let r = rand();
            let (at, k) = mk(now + r % 10_000_000, r);
            q.push(at, k);
        }
        b.iter(|| {
            let e = q.pop().unwrap();
            now = e.at.as_nanos();
            let r = rand();
            let (at, k) = mk(now + 1 + r % 10_000_000, r);
            q.push(at, k);
            black_box(e.seq)
        });
    });
}

/// The queue at the depth the paper's workload has (`sim_recover_n33`:
/// 18 152 pending events on average, 46 353 at the peak, where
/// `event_queue_steady_state_6k` holds 6 000 and the benchmark's
/// `sim.event.push_pop_ns` probe 1 089). One iteration is one pop plus the
/// pushes it causes: a broadcast to n = 33 under chaos (30% loss, delays
/// uniform in `[0, 12δ]`, δ = 10 ms, the world's δ/16 buckets) with the
/// probability that makes 1.56 pushes per pop while the queue fills, and
/// 0.46 per pop once it passed 46 k until it has drained to 18 k — the
/// saw-tooth of a run that builds up before `TS` and drains after it.
fn bench_event_queue_recover_depth(c: &mut Criterion) {
    c.bench_function("event_queue_recover_depth_n33", |b| {
        const N: u32 = 33;
        const DELTA_NS: u64 = 10_000_000;
        let shift = (DELTA_NS / 16).ilog2();
        let mut q: EventQueue<PaxosMsg> = EventQueue::with_bucket_width_shift(shift, 4096);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut broadcast = |q: &mut EventQueue<PaxosMsg>, now: u64, from: u32| {
            let msg = MsgPayload::Owned(PaxosMsg::P1a {
                mbal: Ballot::new(now),
            });
            let survivors = (0..N).filter_map(|to| {
                let r = rand();
                let at = SimTime::from_nanos(now + 1 + (r >> 8) % (12 * DELTA_NS));
                (r % 10 >= 3).then_some((ProcessId::new(to), at))
            });
            q.push_fanout(ProcessId::new(from), msg, survivors);
        };
        for from in 0..N {
            broadcast(&mut q, 0, from);
        }
        // Broadcasts per 1000 pops: 23.1 surviving recipients each.
        let (filling_rate, draining_rate) = (1560 * 10 / 231, 460 * 10 / 231);
        let (mut filling, mut tick) = (true, 0x2545_f491_4f6c_dd1du64);
        b.iter(|| {
            let e = q.pop().unwrap();
            filling = if filling {
                q.len() < 46_000
            } else {
                q.len() < 18_000
            };
            tick = tick
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let rate = if filling { filling_rate } else { draining_rate };
            if (tick >> 33) % 1000 < rate {
                let EventKind::Deliver { to, .. } = e.kind else {
                    unreachable!("only deliveries are scheduled")
                };
                broadcast(&mut q, e.at.as_nanos(), to.as_u32());
            }
            black_box(e.seq)
        });
    });
}

/// The queue at the depth of the steady-state log workloads (`sim_log_s1`:
/// n = 5, δ = 10 ms, post-`TS` delays uniform in `[0.1δ, δ]`). 120 keys
/// stay pending — every fifth pop broadcasts to all five processes — in
/// the world's δ/16 buckets, held fixed: a bucket holds 11 keys on average
/// and at most 30 (over 2·10⁷ pops), so every bucket takes the small-sort
/// path that most of the n = 33 row's buckets never take. (Adapting would
/// narrow the width to 2^14 ns and leave about one key per bucket.)
fn bench_event_queue_log_depth(c: &mut Criterion) {
    c.bench_function("event_queue_log_depth_n5", |b| {
        const N: u32 = 5;
        const DELTA_NS: u64 = 10_000_000;
        let shift = (DELTA_NS / 16).ilog2();
        let mut q: EventQueue<PaxosMsg> = EventQueue::with_bucket_width_shift(shift, 256);
        q.set_adaptive(false);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut broadcast = |q: &mut EventQueue<PaxosMsg>, now: u64, from: u32| {
            let msg = MsgPayload::Owned(PaxosMsg::P1a {
                mbal: Ballot::new(now),
            });
            let recipients = (0..N).map(|to| {
                let delay = DELTA_NS / 10 + (rand() >> 8) % (DELTA_NS * 9 / 10);
                (ProcessId::new(to), SimTime::from_nanos(now + delay))
            });
            q.push_fanout(ProcessId::new(from), msg, recipients);
        };
        for i in 0..24 {
            broadcast(&mut q, 0, i % N);
        }
        let mut pops = 0u32;
        b.iter(|| {
            let e = q.pop().unwrap();
            pops = pops.wrapping_add(1);
            if pops.is_multiple_of(N) {
                let EventKind::Deliver { to, .. } = e.kind else {
                    unreachable!("only deliveries are scheduled")
                };
                broadcast(&mut q, e.at.as_nanos(), to.as_u32());
            }
            black_box(e.seq)
        });
    });
}

/// Wide-horizon calendar-queue churn: ~6000 pending timers spread over a
/// ~4s horizon — 250× the 16.8ms ring span of the fixed 2^14ns bucket
/// width, so the fixed queue funnels nearly every push through the far
/// heap. The adaptive queue re-buckets to ~2^23ns after one observation
/// window and keeps the ring hit rate; the delta between the `_fixed`
/// and `_adaptive` entries in `BENCH_micro.json` is the re-bucketing win.
fn bench_event_queue_wide_horizon(c: &mut Criterion) {
    let mut run = |name: &str, adaptive: bool| {
        c.bench_function(name, |b| {
            let mut q: EventQueue<PaxosMsg> = EventQueue::with_bucket_width_shift(14, 8 * 1024);
            q.set_adaptive(adaptive);
            let mut now = 0u64;
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let mut rand = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mk = |at: u64, r: u64| {
                (
                    SimTime::from_nanos(at),
                    EventKind::Deliver {
                        from: ProcessId::new(0),
                        to: ProcessId::new((r % 17) as u32),
                        msg: MsgPayload::Owned(PaxosMsg::P1a {
                            mbal: Ballot::new(r),
                        }),
                    },
                )
            };
            for _ in 0..6000 {
                let r = rand();
                let (at, k) = mk(now + r % 4_000_000_000, r);
                q.push(at, k);
            }
            b.iter(|| {
                let e = q.pop().unwrap();
                now = e.at.as_nanos();
                let r = rand();
                let (at, k) = mk(now + 1 + r % 4_000_000_000, r);
                q.push(at, k);
                black_box(e.seq)
            });
        });
    };
    run("event_queue_wide_horizon_fixed", false);
    run("event_queue_wide_horizon_adaptive", true);
}

/// Whole-sweep wall time through the parallel engine (single-thread vs
/// all cores), so scaling regressions show up in `BENCH_micro.json`.
fn bench_sweep(c: &mut Criterion) {
    let mk_cfg = |seed: u64| {
        SimConfig::builder(5)
            .seed(seed)
            .stability_at_millis(100)
            .pre_stability(PreStability::lossless())
            .build()
            .unwrap()
    };
    c.bench_function("sweep_16_seeds_1_thread", |b| {
        let runner = SweepRunner::with_threads(1);
        b.iter(|| {
            black_box(
                runner
                    .run_seeds(16, mk_cfg, SessionPaxos::new)
                    .unwrap()
                    .len(),
            )
        });
    });
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    c.bench_function(&format!("sweep_16_seeds_{cores}_threads"), |b| {
        let runner = SweepRunner::with_threads(cores);
        b.iter(|| {
            black_box(
                runner
                    .run_seeds(16, mk_cfg, SessionPaxos::new)
                    .unwrap()
                    .len(),
            )
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_end_to_end, bench_log_group_workload, bench_chaos_run,
              bench_protocol_step, bench_promise_truncation,
              bench_decision_tracker, bench_event_queue,
              bench_event_queue_recover_depth, bench_event_queue_log_depth,
              bench_event_queue_wide_horizon, bench_sweep,
              bench_trace_overhead, bench_metrics_overhead
}
criterion_main!(benches);
