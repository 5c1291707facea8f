//! The eventually-synchronous network model.
//!
//! Faithful to the paper's §1: the simulator makes **no assumption about
//! messages sent before `TS`** — they may be dropped or delayed arbitrarily
//! far (including past `TS`), which is exactly what enables the §2
//! obsolete-ballot pathology. A message sent at or after `TS` is delivered
//! (and reacted to) within `δ`.

use crate::time::SimTime;
use esync_core::time::RealDuration;
use esync_core::types::ProcessId;
use rand::Rng;
use serde::Serialize;
use std::collections::BTreeSet;

/// Behaviour of the network before the stabilization time `TS`.
///
/// Delays are expressed as multiples of `δ` so that one policy scales
/// across experiments with different `δ`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PreStability {
    /// Probability that a pre-`TS` message is lost.
    pub loss_prob: f64,
    /// Pre-`TS` delays are uniform in `[min, max]·δ`; `max` may exceed the
    /// time remaining to `TS`, so pre-`TS` messages can arrive *after*
    /// stability (obsolete messages).
    pub delay_delta_range: (f64, f64),
    /// Processes whose pre-`TS` traffic (in and out) is entirely dropped —
    /// models partitions.
    pub isolated: BTreeSet<ProcessId>,
    /// The paper's §1 simplifying variant: "every message sent before time
    /// `TS` is either lost or delivered by time `TS + δ`". When set, the
    /// sampled delivery time is clamped to `TS + δ`, so no message is ever
    /// *obsolete* — under this assumption the paper notes traditional
    /// Paxos needs only "simple modifications" to be fast.
    pub carryover_bounded: bool,
}

impl PreStability {
    /// Heavy chaos: 30% loss, delays up to `12δ` (the default adversarial
    /// environment for the headline experiments).
    pub fn chaos() -> Self {
        PreStability {
            loss_prob: 0.3,
            delay_delta_range: (0.0, 12.0),
            isolated: BTreeSet::new(),
            carryover_bounded: false,
        }
    }

    /// The network is synchronous from the start (`TS` is effectively 0 for
    /// message delivery): no loss, delays within `δ`.
    pub fn lossless() -> Self {
        PreStability {
            loss_prob: 0.0,
            delay_delta_range: (0.1, 1.0),
            isolated: BTreeSet::new(),
            carryover_bounded: false,
        }
    }

    /// Every pre-`TS` message is lost — the harshest admissible adversary.
    pub fn silent() -> Self {
        PreStability {
            loss_prob: 1.0,
            delay_delta_range: (0.0, 1.0),
            isolated: BTreeSet::new(),
            carryover_bounded: false,
        }
    }

    /// The §1 simplifying variant: lossy (50%) before `TS`, but every
    /// surviving pre-`TS` message is delivered **by `TS + δ`** — no
    /// obsolete messages exist. The paper observes that under this
    /// assumption traditional Paxos needs only "simple modifications" to
    /// decide fast; experimentally it does (see
    /// `tests/timing_bounds.rs::bounded_carryover_rescues_traditional_paxos`).
    pub fn bounded_carryover() -> Self {
        PreStability {
            loss_prob: 0.5,
            delay_delta_range: (0.0, 12.0),
            isolated: BTreeSet::new(),
            carryover_bounded: true,
        }
    }

    /// Additionally isolates `pids` before stability.
    pub fn with_isolated(mut self, pids: impl IntoIterator<Item = ProcessId>) -> Self {
        self.isolated.extend(pids);
        self
    }
}

impl Default for PreStability {
    fn default() -> Self {
        PreStability::chaos()
    }
}

/// The verdict for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message is lost.
    Drop,
    /// The message arrives at this time.
    At(SimTime),
}

/// A delay range `[lo, hi]·δ` as `lo` and `hi − lo`, the two values a
/// draw `lo + u·(hi − lo)` reads.
#[derive(Debug, Clone, Copy)]
struct DelayRange {
    lo: f64,
    span: f64,
}

impl DelayRange {
    fn new((lo, hi): (f64, f64)) -> Self {
        DelayRange { lo, span: hi - lo }
    }
}

/// The pre-`TS` loss verdict, fixed per configuration.
#[derive(Debug, Clone, Copy)]
enum Loss {
    /// `loss_prob == 0`: nothing is dropped and nothing is drawn.
    Never,
    /// `loss_prob >= 1`: everything is dropped and nothing is drawn.
    Always,
    /// One draw `x` per message; it drops when `x >> 11` is below this
    /// threshold, `⌈p·2⁵³⌉`. That is `Rng::gen_bool(p)` without floats: its
    /// unit float `(x >> 11)·2⁻⁵³` and `p·2⁵³` are both exact in `f64`.
    Below(u64),
}

impl Loss {
    fn new(p: f64) -> Self {
        if p >= 1.0 {
            Loss::Always
        } else if p > 0.0 {
            Loss::Below((p * UNIT_STEPS).ceil() as u64)
        } else {
            Loss::Never
        }
    }
}

/// `2⁵³`: a draw `x` gives the unit float `(x >> 11) / 2⁵³` in `[0, 1)`,
/// as the vendored `rand` samples `f64`s.
const UNIT_STEPS: f64 = (1u64 << 53) as f64;

/// The network: pre-`TS` policy plus the post-`TS` `δ` guarantee.
#[derive(Debug, Clone)]
pub struct Network {
    ts: SimTime,
    delta: RealDuration,
    /// `δ` in nanoseconds, the factor every sampled delay scales.
    delta_ns: f64,
    /// Post-`TS` delays are uniform in `[min, max]·δ` with `max ≤ 1`.
    post_delay: DelayRange,
    pre_delay: DelayRange,
    loss: Loss,
    pre: PreStability,
}

impl Network {
    /// Creates the network model.
    ///
    /// # Panics
    ///
    /// Panics if the post-stability delay range is not within `(0, 1]` or
    /// the pre-stability parameters are malformed.
    pub fn new(
        ts: SimTime,
        delta: RealDuration,
        post_delay_range: (f64, f64),
        pre: PreStability,
    ) -> Self {
        assert!(
            post_delay_range.0 >= 0.0
                && post_delay_range.0 <= post_delay_range.1
                && post_delay_range.1 <= 1.0,
            "post-stability delays must lie within (0, 1]·δ, got {post_delay_range:?}"
        );
        assert!(
            (0.0..=1.0).contains(&pre.loss_prob),
            "loss probability must be in [0,1], got {}",
            pre.loss_prob
        );
        assert!(
            pre.delay_delta_range.0 >= 0.0
                && pre.delay_delta_range.0 <= pre.delay_delta_range.1
                && pre.delay_delta_range.1.is_finite(),
            "pre-stability delay range malformed: {:?}",
            pre.delay_delta_range
        );
        Network {
            ts,
            delta,
            delta_ns: delta.as_nanos() as f64,
            post_delay: DelayRange::new(post_delay_range),
            pre_delay: DelayRange::new(pre.delay_delta_range),
            loss: Loss::new(pre.loss_prob),
            pre,
        }
    }

    /// The stabilization time.
    pub fn ts(&self) -> SimTime {
        self.ts
    }

    /// Decides the fate of a message sent at `at` from `from` to `to`.
    pub fn classify<R: Rng>(
        &self,
        at: SimTime,
        from: ProcessId,
        to: ProcessId,
        rng: &mut R,
    ) -> Delivery {
        if at >= self.ts {
            // Stability: delivered within δ, no exceptions.
            Delivery::At(at + self.sample_delay(self.post_delay, rng))
        } else {
            if self.pre.isolated.contains(&from) || self.pre.isolated.contains(&to) {
                return Delivery::Drop;
            }
            let lost = match self.loss {
                Loss::Never => false,
                Loss::Always => true,
                Loss::Below(t) => rng.next_u64() >> 11 < t,
            };
            if lost {
                return Delivery::Drop;
            }
            let arrival = at + self.sample_delay(self.pre_delay, rng);
            if self.pre.carryover_bounded {
                // §1 variant: "either lost or delivered by time TS + δ".
                Delivery::At(arrival.min(self.ts + self.delta))
            } else {
                Delivery::At(arrival)
            }
        }
    }

    /// `δ·(lo + u·(hi − lo))` for a unit draw `u`, rounded as
    /// [`RealDuration::mul_f64`] rounds: the same float operations as
    /// `delta.mul_f64(rng.gen_range(lo..=hi))`, with the per-call
    /// constants taken from `new`. `hi − lo` is zero exactly when
    /// `lo == hi`, which draws nothing.
    fn sample_delay<R: Rng>(&self, range: DelayRange, rng: &mut R) -> RealDuration {
        let frac = if range.span == 0.0 {
            range.lo
        } else {
            range.lo + (rng.next_u64() >> 11) as f64 * (1.0 / UNIT_STEPS) * range.span
        };
        let d = RealDuration::from_nanos((self.delta_ns * frac + 0.5) as u64);
        // Delivery is never instantaneous.
        d.max(RealDuration::from_nanos(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn net(pre: PreStability) -> Network {
        Network::new(
            SimTime::from_millis(100),
            RealDuration::from_millis(10),
            (0.1, 1.0),
            pre,
        )
    }

    #[test]
    fn post_ts_always_delivers_within_delta() {
        let n = net(PreStability::chaos());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sent = SimTime::from_millis(100);
        for _ in 0..1000 {
            match n.classify(sent, ProcessId::new(0), ProcessId::new(1), &mut rng) {
                Delivery::At(t) => {
                    assert!(t > sent);
                    assert!(t.since(sent) <= RealDuration::from_millis(10));
                }
                Delivery::Drop => panic!("no loss after stability"),
            }
        }
    }

    #[test]
    fn pre_ts_can_drop_and_deliver_late() {
        let n = net(PreStability::chaos());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let sent = SimTime::from_millis(1);
        let mut drops = 0;
        let mut after_ts = 0;
        for _ in 0..2000 {
            match n.classify(sent, ProcessId::new(0), ProcessId::new(1), &mut rng) {
                Delivery::Drop => drops += 1,
                Delivery::At(t) => {
                    if t >= n.ts() {
                        after_ts += 1;
                    }
                }
            }
        }
        assert!(drops > 300, "chaos loses messages: {drops}");
        assert!(
            after_ts > 100,
            "pre-TS messages can arrive after TS: {after_ts}"
        );
    }

    #[test]
    fn silent_pre_ts_drops_everything() {
        let n = net(PreStability::silent());
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(
                n.classify(
                    SimTime::ZERO,
                    ProcessId::new(0),
                    ProcessId::new(1),
                    &mut rng
                ),
                Delivery::Drop
            );
        }
    }

    #[test]
    fn isolated_processes_get_nothing_before_ts() {
        let pre = PreStability::lossless().with_isolated([ProcessId::new(2)]);
        let n = net(pre);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        assert_eq!(
            n.classify(
                SimTime::ZERO,
                ProcessId::new(0),
                ProcessId::new(2),
                &mut rng
            ),
            Delivery::Drop
        );
        assert_eq!(
            n.classify(
                SimTime::ZERO,
                ProcessId::new(2),
                ProcessId::new(0),
                &mut rng
            ),
            Delivery::Drop
        );
        assert!(matches!(
            n.classify(
                SimTime::ZERO,
                ProcessId::new(0),
                ProcessId::new(1),
                &mut rng
            ),
            Delivery::At(_)
        ));
        // After TS the isolation lifts.
        assert!(matches!(
            n.classify(n.ts(), ProcessId::new(0), ProcessId::new(2), &mut rng),
            Delivery::At(_)
        ));
    }

    #[test]
    fn lossless_pre_ts_behaves_synchronously() {
        let n = net(PreStability::lossless());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let sent = SimTime::ZERO;
        for _ in 0..200 {
            match n.classify(sent, ProcessId::new(0), ProcessId::new(1), &mut rng) {
                Delivery::At(t) => assert!(t.since(sent) <= RealDuration::from_millis(10)),
                Delivery::Drop => panic!("lossless"),
            }
        }
    }

    #[test]
    fn bounded_carryover_delivers_by_ts_plus_delta() {
        let n = net(PreStability::bounded_carryover());
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let deadline = n.ts() + RealDuration::from_millis(10);
        let mut delivered = 0;
        for _ in 0..2000 {
            match n.classify(
                SimTime::from_millis(1),
                ProcessId::new(0),
                ProcessId::new(1),
                &mut rng,
            ) {
                Delivery::At(t) => {
                    assert!(t <= deadline, "{t} past TS+δ");
                    delivered += 1;
                }
                Delivery::Drop => {}
            }
        }
        assert!(delivered > 500, "half survive on average");
    }

    #[test]
    fn delivery_is_never_instantaneous() {
        let n = Network::new(
            SimTime::from_millis(100),
            RealDuration::from_millis(10),
            (0.0, 0.0),
            PreStability::lossless(),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        match n.classify(n.ts(), ProcessId::new(0), ProcessId::new(0), &mut rng) {
            Delivery::At(t) => assert!(t > n.ts()),
            Delivery::Drop => panic!(),
        }
    }

    /// An RNG whose every draw is the one word `x`.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            self.0 as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn loss_threshold_agrees_with_gen_bool() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        for p in [0.3, 0.5, 1.0 / 3.0, 1e-12, 1.0 - f64::EPSILON / 2.0] {
            let Loss::Below(t) = Loss::new(p) else {
                panic!("{p} draws");
            };
            let draws = (0..100_000).map(|_| rng.next_u64());
            // The edge mantissas: the largest one that drops, the smallest
            // one that does not.
            let edges = [t - 1, t].map(|m| m << 11);
            for x in draws.chain(edges) {
                assert_eq!(x >> 11 < t, Fixed(x).gen_bool(p), "p {p}, x {x:#x}");
            }
            assert!(Fixed((t - 1) << 11).gen_bool(p) && !Fixed(t << 11).gen_bool(p));
        }
    }

    /// `Network::classify` as it was before the precomputed threshold and
    /// delay constants: `gen_bool` for the loss, `gen_range` and `mul_f64`
    /// for the delay.
    fn classify_via_gen_bool<R: Rng>(
        ts: SimTime,
        delta: RealDuration,
        post: (f64, f64),
        pre: &PreStability,
        (at, from, to): (SimTime, ProcessId, ProcessId),
        rng: &mut R,
    ) -> Delivery {
        let delay = |range: (f64, f64), rng: &mut R| {
            let frac = if range.0 == range.1 {
                range.0
            } else {
                rng.gen_range(range.0..=range.1)
            };
            delta.mul_f64(frac).max(RealDuration::from_nanos(1))
        };
        if at >= ts {
            return Delivery::At(at + delay(post, rng));
        }
        if pre.isolated.contains(&from) || pre.isolated.contains(&to) {
            return Delivery::Drop;
        }
        if pre.loss_prob >= 1.0 || (pre.loss_prob > 0.0 && rng.gen_bool(pre.loss_prob)) {
            return Delivery::Drop;
        }
        let arrival = at + delay(pre.delay_delta_range, rng);
        if pre.carryover_bounded {
            Delivery::At(arrival.min(ts + delta))
        } else {
            Delivery::At(arrival)
        }
    }

    #[test]
    fn classify_keeps_the_gen_bool_verdicts_and_draw_count() {
        let (ts, delta) = (SimTime::from_millis(100), RealDuration::from_micros(10_007));
        for loss_prob in [0.0, 0.3, 1.0] {
            for (delay_delta_range, carryover_bounded) in [((0.0, 12.0), false), ((2.0, 2.0), true)]
            {
                let pre = PreStability {
                    loss_prob,
                    delay_delta_range,
                    carryover_bounded,
                    ..PreStability::chaos().with_isolated([ProcessId::new(4)])
                };
                let n = Network::new(ts, delta, (0.1, 1.0), pre.clone());
                let mut a = ChaCha8Rng::seed_from_u64(13);
                let mut b = a.clone();
                for i in 0..10_000u64 {
                    // Send times on both sides of TS; process 4 is isolated.
                    let at = SimTime::from_nanos(i * 19_997 % 200_000_000);
                    let (from, to) = (ProcessId::new(i as u32 % 5), ProcessId::new(i as u32 % 3));
                    assert_eq!(
                        n.classify(at, from, to, &mut a),
                        classify_via_gen_bool(ts, delta, (0.1, 1.0), &pre, (at, from, to), &mut b),
                        "loss {loss_prob}, range {delay_delta_range:?}, message {i}"
                    );
                }
                assert_eq!(a.next_u64(), b.next_u64(), "loss {loss_prob}: draw count");
            }
        }
    }

    #[test]
    #[should_panic(expected = "post-stability")]
    fn post_range_above_delta_rejected() {
        let _ = Network::new(
            SimTime::ZERO,
            RealDuration::from_millis(10),
            (0.5, 1.5),
            PreStability::lossless(),
        );
    }
}
