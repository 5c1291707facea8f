//! `Timed<P>`: a protocol wrapper that measures the protocol layer from
//! outside. It delegates every `Protocol`/`Process`/`ShardedLogView` call
//! to the wrapped protocol and accumulates a call count and the host
//! nanoseconds spent, per callback and — for `on_message` — per
//! `P::kind_of` label. `World<P>`, `Cluster<P>` and both workload drivers
//! are generic over the protocol, so they accept the wrapper as they are.
//!
//! The wrapper adds two clock reads per callback and touches nothing the
//! protocol can observe, so a wrapped run is bit-identical to an
//! unwrapped one (asserted by the test below and, on every traced
//! unit, by the runner).

use esync_core::config::TimingConfig;
use esync_core::outbox::{Outbox, Process, Protocol, ShardLoad};
use esync_core::paxos::group::ShardedLogView;
use esync_core::types::{ProcessId, ShardId, TimerId, Value};
use esync_core::wab::WabMessage;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// The `kind_of` labels the log protocols use, in ledger order; anything
/// else (single-shot Paxos' `rejected`) lands in the last slot.
pub const KINDS: [&str; 8] = [
    "1a", "1b", "2a", "2b", "forward", "decided", "reroute", "other",
];

fn kind_index(label: &str) -> usize {
    KINDS
        .iter()
        .position(|k| *k == label)
        .unwrap_or(KINDS.len() - 1)
}

/// One accumulator. Each process owns its cells and is driven by exactly
/// one thread (the simulator's, or its node thread), so an update is a
/// plain load and store: the atomics only make the cells readable from
/// the benchmark thread. `Relaxed` suffices — the values are statistics
/// that publish no other data, and they are read after the run has been
/// joined.
#[derive(Debug, Default)]
pub struct Cell {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Cell {
    #[inline]
    fn add(&self, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        self.calls.store(self.calls.load(Relaxed) + 1, Relaxed);
        self.ns.store(self.ns.load(Relaxed) + ns, Relaxed);
    }

    fn read(&self) -> Tally {
        Tally {
            calls: self.calls.load(Relaxed),
            ns: self.ns.load(Relaxed),
        }
    }
}

/// A count of calls and the nanoseconds they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub calls: u64,
    pub ns: u64,
}

impl Tally {
    fn plus(self, o: Tally) -> Tally {
        Tally {
            calls: self.calls + o.calls,
            ns: self.ns + o.ns,
        }
    }

    fn minus(self, o: Tally) -> Tally {
        Tally {
            calls: self.calls - o.calls,
            ns: self.ns - o.ns,
        }
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn ns_per_call(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// One process's accumulators.
#[derive(Debug, Default)]
struct Cells {
    start: Cell,
    message: [Cell; KINDS.len()],
    timer: Cell,
    client: Cell,
    restart: Cell,
}

/// Everything the wrapper measured, summed over processes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tallies {
    pub start: Tally,
    pub message: [Tally; KINDS.len()],
    pub timer: Tally,
    pub client: Tally,
    pub restart: Tally,
}

impl Tallies {
    /// All `on_message` calls, whatever their kind.
    pub fn message_total(&self) -> Tally {
        self.message
            .iter()
            .fold(Tally::default(), |a, b| a.plus(*b))
    }

    /// Every callback.
    pub fn total(&self) -> Tally {
        self.message_total()
            .plus(self.start)
            .plus(self.timer)
            .plus(self.client)
            .plus(self.restart)
    }

    /// The `on_message` tally of one `kind_of` label.
    pub fn kind(&self, label: &str) -> Tally {
        self.message[kind_index(label)]
    }

    /// What was added since `base` was read (set-up excluded).
    pub fn since(&self, base: &Tallies) -> Tallies {
        let mut message = self.message;
        for (m, b) in message.iter_mut().zip(&base.message) {
            *m = m.minus(*b);
        }
        Tallies {
            start: self.start.minus(base.start),
            message,
            timer: self.timer.minus(base.timer),
            client: self.client.minus(base.client),
            restart: self.restart.minus(base.restart),
        }
    }
}

/// Measures the instrument on an empty callback: the nanoseconds it
/// records per call (the part of its own cost that falls inside the
/// interval) and the nanoseconds a call costs its caller.
pub fn calibrate(calls: u64) -> (f64, f64) {
    let cell = Cell::default();
    let t = Instant::now();
    for _ in 0..calls {
        let since = Instant::now();
        std::hint::black_box(&cell);
        cell.add(since);
    }
    let per_call = t.elapsed().as_nanos() as f64 / calls as f64;
    (cell.read().ns_per_call(), per_call)
}

/// The read side of a [`Timed`] protocol: stays valid after the protocol
/// has been moved into a `World` or a `Cluster`.
#[derive(Debug, Clone)]
pub struct TimedHandle {
    cells: Arc<[Cells]>,
}

impl TimedHandle {
    /// The totals so far, summed over processes.
    pub fn read(&self) -> Tallies {
        let mut t = Tallies::default();
        for c in self.cells.iter() {
            t.start = t.start.plus(c.start.read());
            for (a, b) in t.message.iter_mut().zip(&c.message) {
                *a = a.plus(b.read());
            }
            t.timer = t.timer.plus(c.timer.read());
            t.client = t.client.plus(c.client.read());
            t.restart = t.restart.plus(c.restart.read());
        }
        t
    }
}

/// The timing wrapper around protocol factory `P`.
#[derive(Debug)]
pub struct Timed<P> {
    inner: P,
    cells: Arc<[Cells]>,
}

impl<P: Protocol> Timed<P> {
    /// Wraps `inner` for a system of `n` processes.
    pub fn new(inner: P, n: usize) -> (Self, TimedHandle) {
        let cells: Arc<[Cells]> = (0..n).map(|_| Cells::default()).collect();
        let handle = TimedHandle {
            cells: Arc::clone(&cells),
        };
        (Timed { inner, cells }, handle)
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;
    type Process = TimedProcess<P>;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind_of(msg: &P::Msg) -> &'static str {
        P::kind_of(msg)
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn spawn(&self, id: ProcessId, cfg: &TimingConfig, initial: Value) -> TimedProcess<P> {
        TimedProcess {
            inner: self.inner.spawn(id, cfg, initial),
            cells: Arc::clone(&self.cells),
            me: id.as_usize(),
        }
    }
}

/// A wrapped process; see [`Timed`].
pub struct TimedProcess<P: Protocol> {
    inner: P::Process,
    cells: Arc<[Cells]>,
    me: usize,
}

impl<P: Protocol> std::fmt::Debug for TimedProcess<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedProcess")
            .field("me", &self.me)
            .finish_non_exhaustive()
    }
}

impl<P: Protocol> TimedProcess<P> {
    #[inline]
    fn cells(&self) -> &Cells {
        &self.cells[self.me]
    }
}

impl<P: Protocol> Process for TimedProcess<P> {
    type Msg = P::Msg;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_start(&mut self, out: &mut Outbox<P::Msg>) {
        let t = Instant::now();
        self.inner.on_start(out);
        self.cells().start.add(t);
    }

    fn on_message(&mut self, from: ProcessId, msg: &P::Msg, out: &mut Outbox<P::Msg>) {
        // Classify outside the timed interval.
        let kind = kind_index(P::kind_of(msg));
        let t = Instant::now();
        self.inner.on_message(from, msg, out);
        self.cells().message[kind].add(t);
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Outbox<P::Msg>) {
        let t = Instant::now();
        self.inner.on_timer(timer, out);
        self.cells().timer.add(t);
    }

    fn on_restart(&mut self, out: &mut Outbox<P::Msg>) {
        let t = Instant::now();
        self.inner.on_restart(out);
        self.cells().restart.add(t);
    }

    fn on_leader_change(&mut self, leader: ProcessId, out: &mut Outbox<P::Msg>) {
        self.inner.on_leader_change(leader, out);
    }

    fn on_wab_deliver(&mut self, msg: WabMessage, out: &mut Outbox<P::Msg>) {
        self.inner.on_wab_deliver(msg, out);
    }

    fn on_client(&mut self, value: Value, out: &mut Outbox<P::Msg>) {
        let t = Instant::now();
        self.inner.on_client(value, out);
        self.cells().client.add(t);
    }

    fn decision(&self) -> Option<Value> {
        self.inner.decision()
    }

    fn is_leader(&self) -> bool {
        self.inner.is_leader()
    }

    fn router_epoch(&self) -> u64 {
        self.inner.router_epoch()
    }

    fn shard_load(&self, shard: ShardId) -> ShardLoad {
        self.inner.shard_load(shard)
    }
}

impl<P: Protocol> ShardedLogView for TimedProcess<P>
where
    P::Process: ShardedLogView,
{
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn shard_log(
        &self,
        shard: ShardId,
    ) -> &esync_core::paxos::slotlog::SlotMap<esync_core::paxos::multi::Batch> {
        self.inner.shard_log(shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esync_core::paxos::group::LogGroup;
    use esync_core::paxos::multi::MultiPaxos;
    use esync_sim::{PreStability, SimConfig, SimTime};
    use esync_workload::gen::ClosedLoopSpec;
    use esync_workload::sim_driver::{run_closed_loop, SimWorkloadOutcome};

    fn small_log_run<P>(protocol: P) -> SimWorkloadOutcome
    where
        P: Protocol,
        P::Process: ShardedLogView,
    {
        let cfg = SimConfig::builder(5)
            .seed(7)
            .stability_at_millis(0)
            .pre_stability(PreStability::lossless())
            .build()
            .unwrap();
        let spec = ClosedLoopSpec::new(5, 16, 600).seed(7);
        run_closed_loop(
            cfg,
            protocol,
            &spec,
            SimTime::from_millis(500),
            SimTime::from_secs(600),
        )
    }

    fn assert_transparent<P, F>(mk: F)
    where
        P: Protocol,
        P::Process: ShardedLogView,
        F: Fn() -> P,
    {
        let plain = small_log_run(mk());
        let (timed, handle) = Timed::new(mk(), 5);
        let wrapped = small_log_run(timed);
        assert_eq!(wrapped.summary, plain.summary);
        assert_eq!(wrapped.report, plain.report);
        assert_eq!(wrapped.end, plain.end);
        assert!(wrapped.log_agreement);
        // The wrapper saw every delivery the world made to a live process,
        // and filed every one under a label the log protocols declare.
        let t = handle.read();
        assert_eq!(t.start.calls, 5);
        assert_eq!(t.client.calls, 600);
        assert!(t.message_total().calls > 0 && t.timer.calls > 0);
        assert_eq!(t.kind("other").calls, 0);
        // Events with no callback: timer fires whose epoch went stale and
        // the election oracle's own.
        assert!(t.total().calls <= plain.report.events);
        assert!(
            t.total().calls * 100 >= plain.report.events * 99,
            "a stable run is nearly all callbacks"
        );
        assert!(t.total().ns > 0);
    }

    #[test]
    fn wrapped_multipaxos_run_is_bit_identical() {
        assert_transparent(|| MultiPaxos::new().with_batching(4, 4));
    }

    #[test]
    fn wrapped_log_group_run_is_bit_identical() {
        assert_transparent(|| LogGroup::new(8).with_batching(1, 4));
    }
}
