//! Timing parameters known to every process.
//!
//! The paper assumes processes know the post-stability message-delay bound
//! `δ` (it argues no algorithm can achieve a `TS`-independent bound without
//! knowing `δ`), the clock-rate error bound `ρ`, and two derived protocol
//! constants:
//!
//! * `σ ≥ 4δ·(1+ρ)/(1−ρ)` — the upper bound on how long after entering a
//!   session the session timer may fire (the lower bound is `4δ`),
//! * `ε = O(δ)` — the phase-1a retransmission interval ("send a phase 1a
//!   message if it has not sent a phase 1a or 2a message within the past
//!   `ε` seconds").
//!
//! From these the paper derives `τ = max(2δ+ε, σ)` and the headline decision
//! bound `TS + ε + 3τ + 5δ` (≈ `17δ` when `σ ≈ 4δ` and `ε ≪ δ`), which
//! [`TimingConfig::decision_bound`] computes so experiments can check
//! measured decision times against the analytic bound.

use crate::error::ConfigError;
use crate::time::{LocalDuration, RealDuration};
use serde::Serialize;

/// Largest admissible clock-rate error bound; the paper assumes `ρ ≪ 1`.
pub const MAX_RHO: f64 = 0.5;

/// Validated timing parameters shared by all processes of one deployment.
///
/// Construct via [`TimingConfig::builder`] or the
/// [`TimingConfig::for_n_processes`] preset:
///
/// ```
/// use esync_core::config::TimingConfig;
/// use esync_core::time::RealDuration;
///
/// let cfg = TimingConfig::builder(5)
///     .delta(RealDuration::from_millis(10))
///     .rho(1e-3)
///     .build()?;
/// assert_eq!(cfg.majority(), 3);
/// // The headline bound is about 17 delta for sigma ~ 4 delta, epsilon << delta.
/// let bound_in_delta = cfg.decision_bound().as_nanos() as f64
///     / cfg.delta().as_nanos() as f64;
/// assert!(bound_in_delta < 18.0);
/// # Ok::<(), esync_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TimingConfig {
    n: usize,
    delta: RealDuration,
    sigma: RealDuration,
    epsilon: RealDuration,
    rho: f64,
}

impl TimingConfig {
    /// Starts building a configuration for `n` processes with default
    /// `δ = 10ms`, `ρ = 10⁻³`, `ε = δ/4`, and the smallest admissible `σ`.
    pub fn builder(n: usize) -> TimingConfigBuilder {
        TimingConfigBuilder {
            n,
            delta: RealDuration::from_millis(10),
            sigma: None,
            epsilon: None,
            rho: 1e-3,
        }
    }

    /// A ready-made configuration for `n` processes with the defaults of
    /// [`TimingConfig::builder`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidProcessCount`] if `n == 0`.
    pub fn for_n_processes(n: usize) -> Result<Self, ConfigError> {
        TimingConfig::builder(n).build()
    }

    /// Number of processes `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The post-stability message-delivery (and reaction) bound `δ`.
    pub fn delta(&self) -> RealDuration {
        self.delta
    }

    /// The session-timer upper bound `σ` (real time).
    pub fn sigma(&self) -> RealDuration {
        self.sigma
    }

    /// The phase-1a retransmission interval `ε` (real time).
    pub fn epsilon(&self) -> RealDuration {
        self.epsilon
    }

    /// The clock-rate error bound `ρ`.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Size of a strict majority, `⌊N/2⌋ + 1`.
    ///
    /// The paper writes `⌈N/2⌉`, which coincides with the strict majority
    /// for odd `N`; for even `N` only the strict majority guarantees quorum
    /// intersection, so that is what we use throughout.
    pub fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    /// `τ = max(2δ + ε, σ)` from the §4 timing analysis.
    pub fn tau(&self) -> RealDuration {
        (self.delta * 2 + self.epsilon).max(self.sigma)
    }

    /// The paper's bound on how long after `TS` every process nonfaulty at
    /// `TS` takes to decide: `ε + 3τ + 5δ`.
    pub fn decision_bound(&self) -> RealDuration {
        self.epsilon + self.tau() * 3 + self.delta * 5
    }

    /// Stretches a real duration to a local duration that is guaranteed to
    /// span **at least** that much real time on any clock with rate error at
    /// most `ρ`: `local = real·(1+ρ)`.
    ///
    /// A timer set this way fires at a real time in
    /// `[real, real·(1+ρ)/(1−ρ)]`.
    pub fn local_at_least(&self, real: RealDuration) -> LocalDuration {
        LocalDuration::from_nanos(real.mul_f64(1.0 + self.rho).as_nanos()).max(
            // Never produce a zero timer from a nonzero request.
            if real.is_zero() {
                LocalDuration::ZERO
            } else {
                LocalDuration::from_nanos(1)
            },
        )
    }

    /// Shrinks a real duration to a local duration that is guaranteed to
    /// span **at most** that much real time: `local = real·(1−ρ)`.
    ///
    /// A timer set this way fires at a real time in
    /// `[real·(1−ρ)/(1+ρ), real]`.
    pub fn local_at_most(&self, real: RealDuration) -> LocalDuration {
        LocalDuration::from_nanos(real.mul_f64(1.0 - self.rho).as_nanos())
    }

    /// The local duration of the **session timer** of modified Paxos.
    ///
    /// Chosen as `σ·(1−ρ)` local units so that the timer fires at a real
    /// time in `[σ·(1−ρ)/(1+ρ), σ]`, which the validity condition
    /// `σ ≥ 4δ(1+ρ)/(1−ρ)` places inside the paper's required window
    /// `[4δ, σ]`. Scaling with `σ` (rather than pinning to `4δ`) makes `σ`
    /// a real experimental knob (experiment E9).
    pub fn session_timer_local(&self) -> LocalDuration {
        self.local_at_most(self.sigma)
    }

    /// The local period of the **ε-retransmission timer**: `ε·(1−ρ)` local
    /// units, so consecutive checks are at most `ε` real time apart.
    pub fn epsilon_timer_local(&self) -> LocalDuration {
        self.local_at_most(self.epsilon)
            .max(LocalDuration::from_nanos(1))
    }

    /// Smallest admissible `σ` for a given `δ` and `ρ`:
    /// `4δ·(1+ρ)/(1−ρ)`, rounded up a nanosecond for safety.
    pub fn min_sigma(delta: RealDuration, rho: f64) -> RealDuration {
        (delta * 4).mul_f64((1.0 + rho) / (1.0 - rho)) + RealDuration::from_nanos(1)
    }
}

/// Builder for [`TimingConfig`]; see [`TimingConfig::builder`].
#[derive(Debug, Clone)]
pub struct TimingConfigBuilder {
    n: usize,
    delta: RealDuration,
    sigma: Option<RealDuration>,
    epsilon: Option<RealDuration>,
    rho: f64,
}

impl TimingConfigBuilder {
    /// Sets the message-delay bound `δ`.
    pub fn delta(&mut self, delta: RealDuration) -> &mut Self {
        self.delta = delta;
        self
    }

    /// Sets the session-timer upper bound `σ`. Defaults to the smallest
    /// admissible value `4δ(1+ρ)/(1−ρ)`.
    pub fn sigma(&mut self, sigma: RealDuration) -> &mut Self {
        self.sigma = Some(sigma);
        self
    }

    /// Sets the retransmission interval `ε`. Defaults to `δ/4`.
    pub fn epsilon(&mut self, epsilon: RealDuration) -> &mut Self {
        self.epsilon = Some(epsilon);
        self
    }

    /// Sets the clock-rate error bound `ρ`. Defaults to `10⁻³`.
    pub fn rho(&mut self, rho: f64) -> &mut Self {
        self.rho = rho;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `n == 0`, `δ` or `ε` is zero, `ρ` is
    /// outside `[0, 0.5)`, or `σ < 4δ(1+ρ)/(1−ρ)`.
    pub fn build(&self) -> Result<TimingConfig, ConfigError> {
        if self.n == 0 {
            return Err(ConfigError::InvalidProcessCount { n: self.n });
        }
        if self.delta.is_zero() {
            return Err(ConfigError::ZeroDelta);
        }
        if !(0.0..MAX_RHO).contains(&self.rho) {
            return Err(ConfigError::InvalidRho { rho: self.rho });
        }
        let epsilon = self.epsilon.unwrap_or(self.delta / 4);
        if epsilon.is_zero() {
            return Err(ConfigError::ZeroEpsilon);
        }
        let min_sigma = TimingConfig::min_sigma(self.delta, self.rho);
        let sigma = self.sigma.unwrap_or(min_sigma);
        if sigma < min_sigma {
            return Err(ConfigError::SigmaTooSmall {
                sigma,
                min: min_sigma,
            });
        }
        Ok(TimingConfig {
            n: self.n,
            delta: self.delta,
            sigma,
            epsilon,
            rho: self.rho,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let cfg = TimingConfig::for_n_processes(5).unwrap();
        assert_eq!(cfg.n(), 5);
        assert_eq!(cfg.majority(), 3);
        assert_eq!(cfg.delta(), RealDuration::from_millis(10));
        assert!(cfg.sigma() >= cfg.delta() * 4);
        assert_eq!(cfg.epsilon(), RealDuration::from_micros(2500));
    }

    #[test]
    fn majority_is_strict() {
        for (n, maj) in [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 4), (7, 4)] {
            let cfg = TimingConfig::for_n_processes(n).unwrap();
            assert_eq!(cfg.majority(), maj, "n={n}");
            // Two majorities always intersect.
            assert!(2 * cfg.majority() > n, "n={n}");
        }
    }

    #[test]
    fn zero_n_rejected() {
        assert_eq!(
            TimingConfig::for_n_processes(0),
            Err(ConfigError::InvalidProcessCount { n: 0 })
        );
    }

    #[test]
    fn zero_delta_rejected() {
        let err = TimingConfig::builder(3)
            .delta(RealDuration::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroDelta);
    }

    #[test]
    fn zero_epsilon_rejected() {
        let err = TimingConfig::builder(3)
            .epsilon(RealDuration::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroEpsilon);
    }

    #[test]
    fn bad_rho_rejected() {
        for rho in [-0.1, 0.5, 1.0, f64::NAN] {
            let err = TimingConfig::builder(3).rho(rho).build().unwrap_err();
            assert!(matches!(err, ConfigError::InvalidRho { .. }), "rho={rho}");
        }
    }

    #[test]
    fn sigma_below_minimum_rejected() {
        let delta = RealDuration::from_millis(10);
        let err = TimingConfig::builder(3)
            .delta(delta)
            .sigma(delta * 3)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::SigmaTooSmall { .. }));
    }

    #[test]
    fn custom_sigma_accepted_when_large_enough() {
        let delta = RealDuration::from_millis(10);
        let cfg = TimingConfig::builder(3)
            .delta(delta)
            .sigma(delta * 8)
            .build()
            .unwrap();
        assert_eq!(cfg.sigma(), delta * 8);
        // tau picks up the larger sigma
        assert_eq!(cfg.tau(), delta * 8);
    }

    #[test]
    fn tau_is_max_of_terms() {
        // Small sigma (minimum) and large epsilon: 2*delta + epsilon wins.
        let delta = RealDuration::from_millis(10);
        let cfg = TimingConfig::builder(3)
            .delta(delta)
            .epsilon(delta * 4)
            .build()
            .unwrap();
        assert_eq!(cfg.tau(), delta * 2 + delta * 4);
    }

    #[test]
    fn decision_bound_is_about_17_delta_with_defaults() {
        let cfg = TimingConfig::for_n_processes(5).unwrap();
        let in_delta = cfg.decision_bound().as_nanos() as f64 / cfg.delta().as_nanos() as f64;
        // epsilon + 3*tau + 5*delta with sigma ~ 4*delta, epsilon = delta/4:
        // 0.25 + 12.x + 5 ~ 17.3 delta.
        assert!((16.0..18.0).contains(&in_delta), "bound = {in_delta} delta");
    }

    #[test]
    fn session_timer_window_is_within_paper_bounds() {
        for rho in [0.0, 1e-4, 1e-3, 1e-2, 0.05] {
            let cfg = TimingConfig::builder(3).rho(rho).build().unwrap();
            let local = cfg.session_timer_local();
            // Slowest clock (rate 1-rho): real = local/(1-rho) must be <= sigma.
            let max_real = local.as_nanos() as f64 / (1.0 - rho);
            // Fastest clock (rate 1+rho): real = local/(1+rho) must be >= 4 delta.
            let min_real = local.as_nanos() as f64 / (1.0 + rho);
            assert!(
                max_real <= cfg.sigma().as_nanos() as f64 + 1.0,
                "rho={rho}: {max_real} > sigma"
            );
            assert!(
                min_real + 1.0 >= (cfg.delta() * 4).as_nanos() as f64,
                "rho={rho}: {min_real} < 4 delta"
            );
        }
    }

    #[test]
    fn local_at_least_spans_at_least_the_real_duration() {
        let cfg = TimingConfig::builder(3).rho(0.01).build().unwrap();
        let real = RealDuration::from_millis(10);
        let local = cfg.local_at_least(real);
        // On the fastest admissible clock, local/(1+rho) real time elapses.
        let elapsed_real = local.as_nanos() as f64 / 1.01;
        assert!(elapsed_real + 1.0 >= real.as_nanos() as f64);
    }

    #[test]
    fn epsilon_timer_is_never_zero() {
        let cfg = TimingConfig::builder(3)
            .epsilon(RealDuration::from_nanos(1))
            .build()
            .unwrap();
        assert!(cfg.epsilon_timer_local() >= LocalDuration::from_nanos(1));
    }

    #[test]
    fn config_serializes() {
        let cfg = TimingConfig::for_n_processes(5).unwrap();
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(json.contains("delta"));
    }
}
