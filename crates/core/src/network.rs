//! The network before the stabilization time `TS`, shared by both
//! backends: a [`PreStability`] policy, and [`PreStabilityModel::fate`],
//! which decides the fate of one message sent before `TS` for the
//! simulator's network and the threaded runtime's transport alike. The
//! random words come from the caller, so this crate needs no generator.

use crate::time::RealDuration;
use crate::types::ProcessId;
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

/// A [`PreStability`] policy for one `δ`, with the per-message constants
/// of its draws worked out once.
#[derive(Debug, Clone)]
pub struct PreStabilityModel {
    pre: PreStability,
    delta: RealDuration,
    loss: Loss,
    delay: DelayRange,
}

impl PreStabilityModel {
    /// The model of `pre` for the delay bound `delta`.
    ///
    /// # Panics
    ///
    /// Panics if the loss probability is outside `[0, 1]` or the delay
    /// range is malformed.
    pub fn new(pre: PreStability, delta: RealDuration) -> Self {
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
        PreStabilityModel {
            loss: Loss::new(pre.loss_prob),
            delay: DelayRange::new(pre.delay_delta_range, delta),
            pre,
            delta,
        }
    }

    /// Decides the fate of a message from `from` to `to` sent `until_ts`
    /// before `TS`: `None` if it is lost, else its delay. A message to or
    /// from an isolated process is lost without a draw; any other takes
    /// one word from `next` for the loss (none when the loss probability
    /// is 0 or 1) and, if it survives, one for the delay (none when the
    /// range is a point). Under
    /// [`carryover_bounded`](PreStability::carryover_bounded) the delay
    /// ends by `TS + δ`.
    #[inline]
    pub fn fate(
        &self,
        from: ProcessId,
        to: ProcessId,
        until_ts: RealDuration,
        mut next: impl FnMut() -> u64,
    ) -> Option<RealDuration> {
        if self.pre.isolated.contains(&from) || self.pre.isolated.contains(&to) {
            return None;
        }
        let lost = match self.loss {
            Loss::Never => false,
            Loss::Always => true,
            Loss::Below(t) => next() >> 11 < t,
        };
        if lost {
            return None;
        }
        let delay = self.delay.sample(next);
        if self.pre.carryover_bounded {
            // §1 variant: "either lost or delivered by time TS + δ".
            Some(delay.min(until_ts + self.delta))
        } else {
            Some(delay)
        }
    }
}

/// A delay range `[lo, hi]·δ` as `lo`, `hi − lo` and `δ` in nanoseconds,
/// the three values a draw `δ·(lo + u·(hi − lo))` reads.
#[derive(Debug, Clone, Copy)]
pub struct DelayRange {
    lo: f64,
    span: f64,
    delta_ns: f64,
}

impl DelayRange {
    /// The range `[lo, hi]·delta`.
    pub fn new((lo, hi): (f64, f64), delta: RealDuration) -> Self {
        DelayRange {
            lo,
            span: hi - lo,
            delta_ns: delta.as_nanos() as f64,
        }
    }

    /// `δ·(lo + u·(hi − lo))` for the unit float `u` of one word from
    /// `next`, rounded as [`RealDuration::mul_f64`] rounds: the same float
    /// operations as `delta.mul_f64(rng.gen_range(lo..=hi))`. `hi − lo` is
    /// zero exactly when `lo == hi`, which draws nothing. Never zero:
    /// delivery is never instantaneous.
    #[inline]
    pub fn sample(&self, mut next: impl FnMut() -> u64) -> RealDuration {
        let frac = if self.span == 0.0 {
            self.lo
        } else {
            self.lo + (next() >> 11) as f64 * (1.0 / UNIT_STEPS) * self.span
        };
        let d = RealDuration::from_nanos((self.delta_ns * frac + 0.5) as u64);
        d.max(RealDuration::from_nanos(1))
    }
}

/// The pre-`TS` loss verdict, fixed per policy.
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const DELTA: RealDuration = RealDuration::from_millis(10);
    const P0: ProcessId = ProcessId::new(0);
    const P1: ProcessId = ProcessId::new(1);

    /// `n` fates of a message from `P0` to `P1` sent 99 ms before `TS`.
    fn fates(pre: PreStability, seed: u64, n: usize) -> Vec<Option<RealDuration>> {
        let model = PreStabilityModel::new(pre, DELTA);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let until_ts = RealDuration::from_millis(99);
        (0..n)
            .map(|_| model.fate(P0, P1, until_ts, || rng.next_u64()))
            .collect()
    }

    #[test]
    fn chaos_drops_some_and_delays_others_past_ts() {
        let got = fates(PreStability::chaos(), 4, 2000);
        let drops = got.iter().filter(|f| f.is_none()).count();
        let past_ts = got.iter().flatten();
        let past_ts = past_ts.filter(|&&d| d >= RealDuration::from_millis(99));
        assert!(drops > 300, "chaos loses messages: {drops}");
        assert!(past_ts.count() > 100, "pre-TS messages can arrive after TS");
    }

    #[test]
    fn silent_drops_everything() {
        assert!(fates(PreStability::silent(), 5, 100)
            .iter()
            .all(Option::is_none));
    }

    #[test]
    fn lossless_delivers_everything_within_delta() {
        let got = fates(PreStability::lossless(), 7, 200);
        assert!(got.iter().all(|d| d.is_some_and(|d| d <= DELTA)), "{got:?}");
    }

    #[test]
    fn isolated_processes_get_nothing_and_draw_nothing() {
        let model = PreStabilityModel::new(PreStability::lossless().with_isolated([P1]), DELTA);
        let no_draw = || -> u64 { panic!("an isolated message draws nothing") };
        assert_eq!(model.fate(P0, P1, DELTA, no_draw), None);
        assert_eq!(model.fate(P1, P0, DELTA, no_draw), None);
        assert!(model.fate(P0, P0, DELTA, || 0).is_some());
    }

    #[test]
    fn bounded_carryover_delivers_by_ts_plus_delta() {
        let got = fates(PreStability::bounded_carryover(), 11, 2000);
        let by = RealDuration::from_millis(99) + DELTA;
        assert!(
            got.iter().flatten().all(|&d| d <= by),
            "a delay past TS + δ"
        );
        assert!(
            got.iter().flatten().count() > 500,
            "half survive on average"
        );
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

    #[test]
    fn delay_samples_agree_with_gen_range_and_mul_f64() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let delta = RealDuration::from_micros(10_007);
        for (lo, hi) in [(0.0, 12.0), (0.1, 1.0), (0.0, 5.0)] {
            let range = DelayRange::new((lo, hi), delta);
            for _ in 0..10_000 {
                let x = rng.next_u64();
                let want = delta.mul_f64(Fixed(x).gen_range(lo..=hi));
                let want = want.max(RealDuration::from_nanos(1));
                assert_eq!(range.sample(|| x), want, "[{lo}, {hi}], x {x:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn a_loss_probability_above_one_is_rejected() {
        let pre = PreStability {
            loss_prob: 1.5,
            ..PreStability::chaos()
        };
        let _ = PreStabilityModel::new(pre, DELTA);
    }
}
