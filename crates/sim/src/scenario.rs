//! Fault and workload scripts.
//!
//! A [`Scenario`] lists the crashes, restarts and client submissions of one
//! run. The model's constraint — "after time `TS` no process fails" — is
//! validated by the world at construction; restarts are allowed at any time
//! (a process that restarts after `TS` stays up and must decide within
//! `O(δ)` of restarting, experiment E4).
//!
//! Besides single [`Scenario::submit`] events, a scenario can carry
//! [`SubmitStream`]s — compact, seedable specifications of *recurring*
//! client-submission traffic (fixed-rate or Poisson arrivals of keyed KV
//! commands). Streams are the open-loop workload hook: the world expands
//! them into `ClientSubmit` events at construction, and the
//! `esync-workload` crate replays the **same** expansion against the
//! threaded runtime, so both backends see bit-identical command sequences.

use crate::time::SimTime;
use esync_core::time::RealDuration;
use esync_core::types::{ProcessId, Value};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Fault and workload script for one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Scenario {
    /// `(pid, at)` crash events; must satisfy `at ≤ TS`.
    pub crashes: Vec<(ProcessId, SimTime)>,
    /// `(pid, at)` restart events.
    pub restarts: Vec<(ProcessId, SimTime)>,
    /// `(pid, at, value)` client submissions (multi-instance protocols).
    pub submits: Vec<(ProcessId, SimTime, Value)>,
    /// Recurring client-submission streams (multi-instance protocols).
    pub streams: Vec<SubmitStream>,
}

impl Scenario {
    /// The empty scenario: everyone runs from time 0, no faults.
    pub fn none() -> Self {
        Scenario::default()
    }

    /// Adds a crash at `at` (consumed-and-returned for chaining).
    pub fn crash(mut self, pid: ProcessId, at: SimTime) -> Self {
        self.crashes.push((pid, at));
        self
    }

    /// Adds a restart at `at`.
    pub fn restart(mut self, pid: ProcessId, at: SimTime) -> Self {
        self.restarts.push((pid, at));
        self
    }

    /// Crashes `pid` at `down` and restarts it at `up`.
    ///
    /// # Panics
    ///
    /// Panics if `up ≤ down`.
    pub fn down_between(self, pid: ProcessId, down: SimTime, up: SimTime) -> Self {
        assert!(up > down, "restart must follow the crash");
        self.crash(pid, down).restart(pid, up)
    }

    /// Crashes `pid` at time 0, never to restart ("dead forever": allowed
    /// as long as a majority is nonfaulty at `TS`).
    pub fn dead_forever(self, pid: ProcessId) -> Self {
        self.crash(pid, SimTime::ZERO)
    }

    /// Submits a client command to `pid` at `at`.
    pub fn submit(mut self, pid: ProcessId, at: SimTime, value: Value) -> Self {
        self.submits.push((pid, at, value));
        self
    }

    /// Adds a recurring client-submission stream.
    pub fn stream(mut self, stream: SubmitStream) -> Self {
        self.streams.push(stream);
        self
    }

    /// Every process referenced by this scenario.
    pub fn referenced_pids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.crashes
            .iter()
            .map(|(p, _)| *p)
            .chain(self.restarts.iter().map(|(p, _)| *p))
            .chain(self.submits.iter().map(|(p, _, _)| *p))
            .chain(self.streams.iter().filter_map(|s| match s.target {
                StreamTarget::Fixed(p) => Some(p),
                StreamTarget::RoundRobin => None,
            }))
    }

    /// Processes that are crashed at `t` and have no restart scheduled at
    /// or before `t` (i.e. down at time `t` according to the script).
    pub fn down_at(&self, t: SimTime) -> Vec<ProcessId> {
        let mut down = Vec::new();
        for &(pid, at) in &self.crashes {
            if at <= t {
                let restarted = self
                    .restarts
                    .iter()
                    .any(|&(rp, rt)| rp == pid && rt >= at && rt <= t);
                if !restarted && !down.contains(&pid) {
                    down.push(pid);
                }
            }
        }
        down
    }
}

/// Which process a stream's commands are submitted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum StreamTarget {
    /// Every command goes to one process.
    Fixed(ProcessId),
    /// Command `i` goes to process `i mod n` (clients spread over replicas).
    RoundRobin,
}

/// Inter-arrival process of a [`SubmitStream`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Arrivals {
    /// Exactly one command per `interval` (deterministic rate).
    FixedRate {
        /// The inter-arrival gap.
        interval: RealDuration,
    },
    /// Poisson arrivals: exponential inter-arrival gaps with the given
    /// mean, sampled from the stream's seed.
    Poisson {
        /// The mean inter-arrival gap (`1/λ`).
        mean: RealDuration,
    },
}

// The keyed-KV command encoding lives in `esync_core::types` (the shard
// router in `esync_core::paxos::group` partitions by key); re-exported
// here where the workload generators historically found it.
pub use esync_core::types::{kv_command, kv_id, kv_key, KEY_SHIFT};

/// The key distribution of a workload generator — how skewed the KV
/// working set is. Shared by the open-loop [`SubmitStream`] and the
/// closed-loop drivers of `esync-workload` (which re-exports it), over
/// both backends: the same `(dist, key_space, seed)` samples the same
/// key sequence everywhere.
///
/// Skew is what makes routing interesting: a static range-partitioned
/// shard router collapses to one hot shard under `Hotspot`/`Zipfian`
/// keys, and the population-dynamics consensus literature likewise
/// studies exactly the adversarial input distributions — `Uniform` is
/// the easy case, the others are the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub enum KeyDist {
    /// Keys uniform over `0..key_space` — the balanced baseline.
    #[default]
    Uniform,
    /// Zipf-distributed ranks over `0..key_space` (YCSB-style sampler):
    /// key 0 is the hottest, with tail exponent `theta ∈ (0, 1)`
    /// (0.99 ≈ the classic YCSB default). Unscrambled on purpose — hot
    /// keys are *contiguous at the bottom of the key space*, the
    /// worst case for a range router.
    Zipfian {
        /// The skew exponent; larger is more skewed. Must be in `(0, 1)`.
        theta: f64,
    },
    /// A contiguous hot span: with probability `frac` the key is uniform
    /// over `0..span`, otherwise uniform over the whole space.
    Hotspot {
        /// Fraction of traffic hitting the hot span.
        frac: f64,
        /// Width of the hot span, in keys (clamped to the key space).
        span: u64,
    },
    /// A *moving* hot span (`frac = 0.9`, width `key_space / 16`): every
    /// `period` commands the span advances by its own width, wrapping
    /// around the key space — the workload a one-shot rebalance cannot
    /// serve, only continuous rebalancing can.
    Shifting {
        /// Commands between span advances.
        period: u64,
    },
}

/// Fraction of traffic hitting the moving hot span of
/// [`KeyDist::Shifting`].
const SHIFTING_FRAC: f64 = 0.9;

/// A prepared sampler for one [`KeyDist`] over one key space. Holds the
/// Zipf tables so the per-key cost stays O(1); construction is
/// `O(key_space)` for `Zipfian` and O(1) otherwise.
#[derive(Debug, Clone)]
pub struct KeySampler {
    dist: KeyDist,
    key_space: u64,
    /// Precomputed Zipf constants `(zetan, alpha, eta)`.
    zipf: Option<(f64, f64, f64)>,
}

impl KeySampler {
    /// Prepares a sampler.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters: a `Zipfian` theta outside `(0, 1)`
    /// or key space above 2²⁰ (the zeta precomputation is linear in it),
    /// a `Hotspot` fraction outside `[0, 1]` or zero span, a zero
    /// `Shifting` period.
    pub fn new(dist: KeyDist, key_space: u64) -> Self {
        let zipf = match dist {
            KeyDist::Zipfian { theta } => {
                assert!(
                    theta > 0.0 && theta < 1.0,
                    "Zipf theta must be in (0, 1), got {theta}"
                );
                assert!(
                    (1..=1 << 20).contains(&key_space),
                    "Zipfian needs 1 <= key_space <= 2^20, got {key_space}"
                );
                let n = key_space;
                let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
                let zeta2 = 1.0 + 0.5f64.powf(theta);
                let alpha = 1.0 / (1.0 - theta);
                let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
                Some((zetan, alpha, eta))
            }
            KeyDist::Hotspot { frac, span } => {
                assert!(
                    (0.0..=1.0).contains(&frac),
                    "hot fraction in [0, 1], got {frac}"
                );
                assert!(span >= 1, "the hot span holds at least one key");
                None
            }
            KeyDist::Shifting { period } => {
                assert!(period >= 1, "the shift period is at least one command");
                None
            }
            KeyDist::Uniform => None,
        };
        KeySampler {
            dist,
            key_space,
            zipf,
        }
    }

    /// The distribution this sampler draws from.
    pub fn dist(&self) -> KeyDist {
        self.dist
    }

    /// Samples the key of command number `index` (0-based; only
    /// `Shifting` reads it — the hot span's position is a function of
    /// the index, so both backends' replays shift in lockstep).
    pub fn sample(&self, rng: &mut ChaCha8Rng, index: u64) -> u64 {
        let ks = self.key_space;
        debug_assert!(ks >= 1, "keyed sampling needs a nonempty key space");
        match self.dist {
            KeyDist::Uniform => rng.gen_range(0..ks),
            KeyDist::Zipfian { theta } => {
                // YCSB's zipfian_generator: inverse-CDF with the
                // precomputed constants.
                let (zetan, alpha, eta) = self.zipf.expect("prepared at construction");
                let u: f64 = rng.gen_range(0.0..1.0);
                let uz = u * zetan;
                if uz < 1.0 {
                    0
                } else if uz < 1.0 + 0.5f64.powf(theta) {
                    1.min(ks - 1)
                } else {
                    let rank = (ks as f64 * (eta * u - eta + 1.0).powf(alpha)) as u64;
                    rank.min(ks - 1)
                }
            }
            KeyDist::Hotspot { frac, span } => {
                let span = span.min(ks);
                if rng.gen_range(0.0..1.0) < frac {
                    rng.gen_range(0..span)
                } else {
                    rng.gen_range(0..ks)
                }
            }
            KeyDist::Shifting { period } => {
                let width = (ks / 16).max(1);
                let start = (index / period).wrapping_mul(width) % ks;
                if rng.gen_range(0.0..1.0) < SHIFTING_FRAC {
                    (start + rng.gen_range(0..width)) % ks
                } else {
                    rng.gen_range(0..ks)
                }
            }
        }
    }
}

/// A deterministic, seedable stream of recurring client submissions —
/// the open-loop workload generator.
///
/// Every field is plain data, so a stream round-trips through the
/// serialized [`crate::SimConfig`] embedded in benchmark artifacts: the
/// exact command sequence is reproducible from the artifact alone.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SubmitStream {
    /// Where commands land.
    pub target: StreamTarget,
    /// First arrival instant.
    pub start: SimTime,
    /// Inter-arrival process after `start`.
    pub arrivals: Arrivals,
    /// Number of commands.
    pub count: u64,
    /// Stream-local PRNG seed (Poisson gaps and key sampling); independent
    /// of the world seed so workloads can be varied against a fixed
    /// network schedule and vice versa.
    pub seed: u64,
    /// Command ids are `id_base + i` — give concurrent streams disjoint
    /// ranges to keep ids unique run-wide.
    pub id_base: u64,
    /// Keys are sampled from `0..key_space` (`0` disables keying: values
    /// carry the bare id).
    pub key_space: u64,
    /// How keys are drawn from the key space (default uniform).
    pub dist: KeyDist,
}

impl SubmitStream {
    /// A fixed-rate stream of `count` unkeyed commands starting at `start`.
    pub fn fixed_rate(start: SimTime, interval: RealDuration, count: u64) -> Self {
        SubmitStream {
            target: StreamTarget::RoundRobin,
            start,
            arrivals: Arrivals::FixedRate { interval },
            count,
            seed: 0,
            id_base: 0,
            key_space: 0,
            dist: KeyDist::Uniform,
        }
    }

    /// A Poisson stream of `count` unkeyed commands starting at `start`.
    pub fn poisson(start: SimTime, mean: RealDuration, count: u64) -> Self {
        SubmitStream {
            arrivals: Arrivals::Poisson { mean },
            ..SubmitStream::fixed_rate(start, mean, count)
        }
    }

    /// Sets the target (consumed-and-returned for chaining).
    #[must_use]
    pub fn target(mut self, target: StreamTarget) -> Self {
        self.target = target;
        self
    }

    /// Sets the stream seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the id base.
    #[must_use]
    pub fn id_base(mut self, id_base: u64) -> Self {
        self.id_base = id_base;
        self
    }

    /// Samples keys from `0..key_space`.
    #[must_use]
    pub fn keyed(mut self, key_space: u64) -> Self {
        self.key_space = key_space;
        self
    }

    /// Sets the key distribution (see [`KeyDist`]; only meaningful for
    /// keyed streams).
    #[must_use]
    pub fn dist(mut self, dist: KeyDist) -> Self {
        self.dist = dist;
        self
    }

    /// Expands the stream into its `(at, pid, value)` submissions, in
    /// arrival order, for an `n`-process system. Deterministic in
    /// `(self, n)`: the simulator world and the threaded-runtime driver
    /// both consume this expansion, so the two backends replay an
    /// identical command sequence.
    pub fn expand(&self, n: usize) -> Vec<(SimTime, ProcessId, Value)> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let sampler = (self.key_space > 0).then(|| KeySampler::new(self.dist, self.key_space));
        let mut at = self.start;
        let mut out = Vec::with_capacity(self.count as usize);
        for i in 0..self.count {
            if i > 0 {
                let gap = match self.arrivals {
                    Arrivals::FixedRate { interval } => interval,
                    Arrivals::Poisson { mean } => {
                        // Inverse-CDF exponential sampling; `u < 1` keeps
                        // the log argument positive and the gap finite.
                        let u: f64 = rng.gen_range(0.0..1.0);
                        mean.mul_f64(-(1.0 - u).ln())
                    }
                };
                at = at + gap;
            }
            let pid = match self.target {
                StreamTarget::Fixed(p) => p,
                StreamTarget::RoundRobin => ProcessId::new((i % n as u64) as u32),
            };
            let id = self.id_base + i;
            let value = match &sampler {
                None => Value::new(id),
                Some(s) => kv_command(s.sample(&mut rng, i), id),
            };
            out.push((at, pid, value));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn builder_chains() {
        let s = Scenario::none()
            .crash(pid(1), SimTime::from_millis(10))
            .restart(pid(1), SimTime::from_millis(50))
            .submit(pid(0), SimTime::from_millis(5), Value::new(9));
        assert_eq!(s.crashes.len(), 1);
        assert_eq!(s.restarts.len(), 1);
        assert_eq!(s.submits.len(), 1);
    }

    #[test]
    fn down_between_expands() {
        let s =
            Scenario::none().down_between(pid(2), SimTime::from_millis(1), SimTime::from_millis(9));
        assert_eq!(s.crashes, vec![(pid(2), SimTime::from_millis(1))]);
        assert_eq!(s.restarts, vec![(pid(2), SimTime::from_millis(9))]);
    }

    #[test]
    #[should_panic(expected = "restart must follow")]
    fn down_between_validates_order() {
        let _ =
            Scenario::none().down_between(pid(0), SimTime::from_millis(9), SimTime::from_millis(1));
    }

    #[test]
    fn dead_forever_is_crash_at_zero() {
        let s = Scenario::none().dead_forever(pid(3));
        assert_eq!(s.crashes, vec![(pid(3), SimTime::ZERO)]);
        assert!(s.restarts.is_empty());
    }

    #[test]
    fn down_at_reflects_script() {
        let s = Scenario::none()
            .down_between(pid(1), SimTime::from_millis(10), SimTime::from_millis(50))
            .dead_forever(pid(2));
        assert_eq!(s.down_at(SimTime::from_millis(20)), vec![pid(1), pid(2)]);
        assert_eq!(s.down_at(SimTime::from_millis(60)), vec![pid(2)]);
        assert_eq!(s.down_at(SimTime::from_millis(5)), vec![pid(2)]);
    }

    #[test]
    fn referenced_pids_cover_all_fields() {
        let s = Scenario::none()
            .crash(pid(1), SimTime::ZERO)
            .restart(pid(2), SimTime::ZERO)
            .submit(pid(3), SimTime::ZERO, Value::new(0))
            .stream(
                SubmitStream::fixed_rate(SimTime::ZERO, RealDuration::from_millis(1), 2)
                    .target(StreamTarget::Fixed(pid(4))),
            );
        let pids: Vec<_> = s.referenced_pids().collect();
        assert_eq!(pids, vec![pid(1), pid(2), pid(3), pid(4)]);
    }

    #[test]
    fn kv_encoding_roundtrips() {
        let v = kv_command(700, 123_456);
        assert_eq!(kv_id(v), 123_456);
        assert_eq!(kv_key(v), 700);
        assert_eq!(kv_key(Value::new(9)), 0, "unkeyed values have key 0");
    }

    #[test]
    #[should_panic(expected = "id field")]
    fn kv_id_overflow_rejected() {
        let _ = kv_command(0, 1 << KEY_SHIFT);
    }

    #[test]
    fn fixed_rate_stream_is_evenly_spaced() {
        let s =
            SubmitStream::fixed_rate(SimTime::from_millis(100), RealDuration::from_millis(10), 4);
        let cmds = s.expand(3);
        let ats: Vec<u64> = cmds
            .iter()
            .map(|(at, ..)| at.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(ats, vec![100, 110, 120, 130]);
        let pids: Vec<u32> = cmds.iter().map(|(_, p, _)| p.as_u32()).collect();
        assert_eq!(pids, vec![0, 1, 2, 0], "round-robin over n=3");
        let ids: Vec<u64> = cmds.iter().map(|(.., v)| kv_id(*v)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn poisson_stream_is_deterministic_and_ordered() {
        let s = SubmitStream::poisson(SimTime::ZERO, RealDuration::from_millis(5), 50)
            .seed(7)
            .keyed(16);
        let a = s.expand(5);
        let b = s.expand(5);
        assert_eq!(a, b, "same spec, same expansion");
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "arrival-ordered");
        assert!(a.iter().all(|(.., v)| kv_key(*v) < 16));
        // Distinct seeds give distinct schedules.
        assert_ne!(a, s.clone().seed(8).expand(5));
        // The mean gap is in the right ballpark (loose: 50 samples).
        let span = a.last().unwrap().0.as_millis_f64();
        assert!(span > 50.0 && span < 800.0, "span {span}ms");
    }

    #[test]
    fn uniform_dist_reproduces_the_legacy_keyed_expansion() {
        // `KeyDist::Uniform` is the default and must sample exactly as
        // the pre-KeyDist generator did (one gen_range per command), so
        // existing artifacts stay bit-identical.
        let s = SubmitStream::fixed_rate(SimTime::ZERO, RealDuration::from_millis(1), 40)
            .keyed(64)
            .seed(3);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let legacy: Vec<u64> = (0..40).map(|_| rng.gen_range(0..64u64)).collect();
        let got: Vec<u64> = s.expand(3).iter().map(|(.., v)| kv_key(*v)).collect();
        assert_eq!(got, legacy);
    }

    #[test]
    fn zipfian_dist_is_deterministic_and_skewed_to_low_keys() {
        let sampler = KeySampler::new(KeyDist::Zipfian { theta: 0.99 }, 1024);
        let draw = || {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
            (0..2000u64)
                .map(|i| sampler.sample(&mut rng, i))
                .collect::<Vec<_>>()
        };
        let keys = draw();
        assert_eq!(keys, draw(), "same seed, same key sequence");
        assert!(keys.iter().all(|k| *k < 1024));
        // Top 16 of 1024 keys ≈ ln(16)/ln(1024) ≈ 40% of the mass at
        // θ → 1 (a uniform draw would give them 1.6%).
        let low = keys.iter().filter(|k| **k < 16).count();
        assert!(
            low as f64 > 0.3 * keys.len() as f64,
            "zipf(0.99): the 16 hottest of 1024 keys draw ~40%, got {low}/{}",
            keys.len()
        );
    }

    #[test]
    fn hotspot_dist_concentrates_on_the_span() {
        let sampler = KeySampler::new(
            KeyDist::Hotspot {
                frac: 0.9,
                span: 64,
            },
            1 << 10,
        );
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let keys: Vec<u64> = (0..2000u64).map(|i| sampler.sample(&mut rng, i)).collect();
        let hot = keys.iter().filter(|k| **k < 64).count() as f64 / keys.len() as f64;
        assert!(hot > 0.85, "~90% of keys in the hot span, got {hot}");
        assert!(keys.iter().any(|k| *k >= 64), "the cold tail still appears");
    }

    #[test]
    fn shifting_dist_moves_the_hot_span_with_the_index() {
        let ks = 1u64 << 10; // width = 64
        let sampler = KeySampler::new(KeyDist::Shifting { period: 500 }, ks);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let phase = |base: u64, rng: &mut rand_chacha::ChaCha8Rng| {
            (0..500u64)
                .map(|i| sampler.sample(rng, base + i))
                .collect::<Vec<_>>()
        };
        let a = phase(0, &mut rng);
        let b = phase(500, &mut rng);
        let in_span = |keys: &[u64], lo: u64, hi: u64| {
            keys.iter().filter(|k| (lo..hi).contains(*k)).count() as f64 / keys.len() as f64
        };
        assert!(in_span(&a, 0, 64) > 0.8, "phase 0 hot span at [0, 64)");
        assert!(
            in_span(&b, 64, 128) > 0.8,
            "phase 1 hot span advanced to [64, 128)"
        );
        assert!(in_span(&b, 0, 64) < 0.2, "the old span cooled off");
    }

    #[test]
    #[should_panic(expected = "(0, 1)")]
    fn zipf_theta_validated() {
        let _ = KeySampler::new(KeyDist::Zipfian { theta: 1.0 }, 64);
    }

    #[test]
    fn stream_ids_offset_by_base() {
        let s = SubmitStream::fixed_rate(SimTime::ZERO, RealDuration::from_millis(1), 3)
            .id_base(1000)
            .keyed(4);
        let ids: Vec<u64> = s.expand(2).iter().map(|(.., v)| kv_id(*v)).collect();
        assert_eq!(ids, vec![1000, 1001, 1002]);
    }
}
