//! Memory cost ratchet: the heap a closed-loop drive keeps, counted
//! exactly.
//!
//! The simulator is single-threaded and seeded, so what a drive allocates
//! is a pure function of (code, seed, build profile). A counting global
//! allocator with per-thread counters (parallel test threads do not mix)
//! measures the drive shapes of the benchmark's `sim_log_s1` and
//! `sim_group_s8` workloads at two lengths each, and checks:
//!
//! - **growth** (`sim_log_s1`): live heap at the end of the drive rises
//!   by at most [`MAX_GROWTH_PER_COMMAND`] bytes per extra command between
//!   two lengths past the trailing window of votes and 2b tallies, so the
//!   log's memory follows that window, not its history. `sim_group_s8`'s
//!   eight shards would need over 8 000 commands to pass theirs, too slow
//!   for a debug test, so its growth is printed, not bounded;
//! - **pins**: allocations and peak live bytes equal the values pinned
//!   below, within [`SLACK`] under the pin. A count above its pin is a
//!   regression; a count more than `SLACK` below it is a gain to lock in
//!   by lowering the pin. Moving a pin is a check change: say what moved
//!   and why.
//!
//! Debug and release builds count the same (nothing debug-only allocates
//! on these paths), so one pin serves both: tier-1 runs this file in
//! debug, CI also as `cargo test --release --test cost_ratchet`. If a
//! debug-only check ever allocates here, the pins split by profile.

use esync::core::outbox::Protocol;
use esync::core::paxos::group::{LogGroup, ShardedLogView};
use esync::core::paxos::multi::MultiPaxos;
use esync::sim::{PreStability, SimConfig, SimTime, World};
use esync::workload::gen::ClosedLoopSpec;
use esync::workload::sim_driver;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Live-heap bytes a drive may keep per extra command.
const MAX_GROWTH_PER_COMMAND: f64 = 100.0;
/// How far under its pin a count may read before the pin must move.
const SLACK: f64 = 0.02;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    allocs: u64,
    live: i64,
    peak: i64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { allocs: 0, live: 0, peak: 0 })
    };
}

/// Counts this thread's allocations, live bytes and peak live bytes.
struct Counting;

impl Counting {
    fn note(allocs: u64, delta: i64) {
        // `try_with`: a thread's last frees run after its TLS is gone.
        let _ = COUNTS.try_with(|c| {
            let mut n = c.get();
            n.allocs += allocs;
            n.live += delta;
            n.peak = n.peak.max(n.live);
            c.set(n);
        });
    }
}

// SAFETY: every method passes its arguments unchanged to `System` and
// returns its result, so `System` meets the contract each caller relies
// on. The counting beside it touches only a thread-local `Cell` of plain
// integers: it allocates nothing and cannot unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::note(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Counting::note(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What one drive cost this thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    /// Allocations (a `realloc` counts as one).
    allocs: u64,
    /// Most bytes live at once.
    peak: i64,
    /// Bytes still live when the drive returns, the world included.
    live_at_end: i64,
}

/// The benchmark's closed-loop sim drive: n = 5, lossless, stable from
/// 0, 5 clients × 16 outstanding, a 500 ms warmup, then `commands`.
fn drive<P>(protocol: P, commands: u64) -> Cost
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    const SEED: u64 = 1;
    let cfg = SimConfig::builder(5)
        .seed(SEED)
        .stability_at(SimTime::ZERO)
        .pre_stability(PreStability::lossless())
        .max_time(SimTime::from_secs(36_000))
        .build()
        .unwrap();
    let spec = ClosedLoopSpec::new(5, 16, commands).seed(SEED);
    COUNTS.with(|c| {
        c.set(Counts {
            allocs: 0,
            live: 0,
            peak: 0,
        })
    });
    let mut world = World::new(cfg, protocol);
    world.run_until(SimTime::from_millis(500));
    let out = sim_driver::run_closed_loop_on(&mut world, &spec, SimTime::from_secs(36_000));
    let counts = COUNTS.with(Cell::get);
    assert_eq!(out.summary.committed, commands);
    assert!(out.log_agreement);
    drop((out, world));
    Cost {
        allocs: counts.allocs,
        peak: counts.peak,
        live_at_end: counts.live,
    }
}

/// The pinned costs of one drive.
struct Pin {
    commands: u64,
    allocs: u64,
    peak: i64,
}

/// Runs both pinned lengths of one drive and checks the pins. Returns
/// the live-heap growth per command between them.
fn check<P>(name: &str, mk: impl Fn() -> P, pins: [Pin; 2]) -> f64
where
    P: Protocol,
    P::Process: ShardedLogView,
{
    let costs = pins.each_ref().map(|pin| drive(mk(), pin.commands));
    let mut failures = Vec::new();
    for (pin, cost) in pins.iter().zip(&costs) {
        println!(
            "{name} at {} commands: {cost:?}, {:.2} allocs/op",
            pin.commands,
            cost.allocs as f64 / pin.commands as f64
        );
        for (what, got, pinned) in [
            ("allocs", cost.allocs as f64, pin.allocs as f64),
            ("peak live bytes", cost.peak as f64, pin.peak as f64),
        ] {
            if got > pinned {
                failures.push(format!(
                    "{name}/{}: {what} {got} above its pin {pinned}",
                    pin.commands
                ));
            } else if got < pinned * (1.0 - SLACK) {
                failures.push(format!(
                    "{name}/{}: {what} {got} more than {}% below its pin {pinned}: lower the pin",
                    pin.commands,
                    SLACK * 100.0
                ));
            }
        }
    }
    let [short, long] = &pins;
    let growth = (costs[1].live_at_end - costs[0].live_at_end) as f64
        / (long.commands - short.commands) as f64;
    println!("{name}: live heap grows {growth:.1} B per command");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    growth
}

/// `sim_log_s1`: `MultiPaxos` with batches of 4 and 4 slots in flight,
/// so about 4 commands per slot; the longer drive runs past the trailing
/// window of votes and tallies.
#[test]
fn sim_log_s1_memory_follows_the_window() {
    let growth = check(
        "sim_log_s1",
        || MultiPaxos::new().with_batching(4, 4),
        [
            Pin {
                commands: 5_000,
                allocs: 42_416,
                peak: 2_757_155,
            },
            Pin {
                commands: 9_000,
                allocs: 71_362,
                peak: 3_046_779,
            },
        ],
    );
    assert!(
        growth <= MAX_GROWTH_PER_COMMAND,
        "live heap grows {growth:.1} B per command, past {MAX_GROWTH_PER_COMMAND}"
    );
}

/// `sim_group_s8`: eight shards of one command per slot, so each shard's
/// log is an eighth of the drive long, inside its trailing window at
/// both lengths; the 64-slot chunks keep its peak near the slots used.
#[test]
fn sim_group_s8_memory_is_pinned() {
    check(
        "sim_group_s8",
        || LogGroup::new(8).with_batching(1, 4),
        [
            Pin {
                commands: 3_000,
                allocs: 47_951,
                peak: 4_149_308,
            },
            Pin {
                commands: 6_000,
                allocs: 88_466,
                peak: 7_014_764,
            },
        ],
    );
}
