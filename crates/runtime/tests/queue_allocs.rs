//! A runtime link allocates nothing in its steady state: once both
//! buffers of a [`Queue`] and its receiver have grown, a round of
//! appending a wake-up's worth of items, swapping them out and handling
//! them reuses the same two allocations. Alone in its test binary, behind
//! a counting global allocator (the shape `tests/cost_ratchet.rs` uses).

use esync_runtime::node::DRAIN_CAP;
use esync_runtime::transport::Queue;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::time::Instant;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts this thread's allocations.
struct Counting;

impl Counting {
    fn note() {
        // `try_with`: a thread's last frees run after its TLS is gone.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method passes its arguments unchanged to `System` and
// returns its result, so `System` meets the contract each caller relies
// on. The counting beside it touches only a thread-local `Cell` of a
// plain integer: it allocates nothing and cannot unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::note();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// One wake-up's worth of traffic: `DRAIN_CAP` items appended under one
/// lock, swapped out and handled.
fn round(q: &Queue<u64>, taken: &mut VecDeque<u64>, sum: &mut u64) {
    q.extend(0..DRAIN_CAP as u64);
    q.take_until(taken, Some(Instant::now()))
        .expect("items queued");
    *sum += taken.drain(..).sum::<u64>();
}

#[test]
fn extend_swap_and_drain_allocate_nothing_after_a_warm_up_round() {
    let q = Queue::default();
    // A node's buffer starts with room for a wake-up's items.
    let mut taken = VecDeque::with_capacity(DRAIN_CAP);
    let mut sum = 0;
    round(&q, &mut taken, &mut sum);
    let before = ALLOCS.with(Cell::get);
    for _ in 0..1_000 {
        round(&q, &mut taken, &mut sum);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    let per_round = (0..DRAIN_CAP as u64).sum::<u64>();
    assert_eq!(sum, 1_001 * per_round, "every item handled once");
    assert_eq!(allocs, 0, "allocations in 1 000 steady-state rounds");
}
