//! Criterion micro-benchmarks of what no `benchmark/` ledger row measures
//! alone: the phase-2b tally and the event queue at fixed depths. Host
//! cost end to end, per protocol handler, for tracing and metering, and
//! per sweep run is measured by the `benchmark/` workloads and probes.
//!
//! Set `CRITERION_OUT=BENCH_micro.json` to capture the measurements as a
//! machine-readable artifact (`scripts/bench.sh` does).

use criterion::{criterion_group, criterion_main, Criterion};
use esync_core::ballot::Ballot;
use esync_core::paxos::messages::PaxosMsg;
use esync_core::paxos::state::DecisionTracker;
use esync_core::types::{ProcessId, Value};
use esync_sim::event::{EventKind, EventQueue, MsgPayload};
use esync_sim::SimTime;
use std::hint::black_box;

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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_decision_tracker, bench_event_queue,
              bench_event_queue_recover_depth, bench_event_queue_log_depth,
              bench_event_queue_wide_horizon
}
criterion_main!(benches);
