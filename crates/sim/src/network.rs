//! The eventually-synchronous network model.
//!
//! Faithful to the paper's §1: the simulator makes **no assumption about
//! messages sent before `TS`** — they may be dropped or delayed arbitrarily
//! far (including past `TS`), which is exactly what enables the §2
//! obsolete-ballot pathology. A message sent at or after `TS` is delivered
//! (and reacted to) within `δ`. The pre-`TS` side lives in
//! [`esync_core::network`], which the threaded runtime shares.

use crate::time::SimTime;
use esync_core::network::{DelayRange, PreStabilityModel};
use esync_core::time::RealDuration;
use esync_core::types::ProcessId;
use rand::Rng;

pub use esync_core::network::PreStability;

/// The network: pre-`TS` policy plus the post-`TS` `δ` guarantee.
#[derive(Debug, Clone)]
pub struct Network {
    ts: SimTime,
    /// Post-`TS` delays are uniform in `[min, max]·δ` with `max ≤ 1`.
    post_delay: DelayRange,
    pre: PreStabilityModel,
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
        Network {
            ts,
            post_delay: DelayRange::new(post_delay_range, delta),
            pre: PreStabilityModel::new(pre, delta),
        }
    }

    /// The stabilization time.
    pub fn ts(&self) -> SimTime {
        self.ts
    }

    /// Decides the fate of a message sent at `at` from `from` to `to`:
    /// its arrival time, or `None` if it is lost.
    pub fn classify<R: Rng>(
        &self,
        at: SimTime,
        from: ProcessId,
        to: ProcessId,
        rng: &mut R,
    ) -> Option<SimTime> {
        if at >= self.ts {
            // Stability: delivered within δ, no exceptions.
            Some(at + self.post_delay.sample(|| rng.next_u64()))
        } else {
            let fate = self
                .pre
                .fate(from, to, self.ts.since(at), || rng.next_u64());
            fate.map(|delay| at + delay)
        }
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
                Some(t) => {
                    assert!(t > sent);
                    assert!(t.since(sent) <= RealDuration::from_millis(10));
                }
                None => panic!("no loss after stability"),
            }
        }
    }

    #[test]
    fn isolated_processes_get_nothing_before_ts() {
        let n = net(PreStability::lossless().with_isolated([ProcessId::new(2)]));
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut send =
            |at, from, to| n.classify(at, ProcessId::new(from), ProcessId::new(to), &mut rng);
        assert_eq!(send(SimTime::ZERO, 0, 2), None);
        assert_eq!(send(SimTime::ZERO, 2, 0), None);
        assert!(send(SimTime::ZERO, 0, 1).is_some());
        // After TS the isolation lifts.
        assert!(send(n.ts(), 0, 2).is_some());
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
            Some(t) => assert!(t > n.ts()),
            None => panic!(),
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
    ) -> Option<SimTime> {
        let delay = |range: (f64, f64), rng: &mut R| {
            let frac = if range.0 == range.1 {
                range.0
            } else {
                rng.gen_range(range.0..=range.1)
            };
            delta.mul_f64(frac).max(RealDuration::from_nanos(1))
        };
        if at >= ts {
            return Some(at + delay(post, rng));
        }
        if pre.isolated.contains(&from) || pre.isolated.contains(&to) {
            return None;
        }
        if pre.loss_prob >= 1.0 || (pre.loss_prob > 0.0 && rng.gen_bool(pre.loss_prob)) {
            return None;
        }
        let arrival = at + delay(pre.delay_delta_range, rng);
        if pre.carryover_bounded {
            Some(arrival.min(ts + delta))
        } else {
            Some(arrival)
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
