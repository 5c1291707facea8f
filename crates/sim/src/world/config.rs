//! One run's configuration: [`SimConfig`] and its validating builder.

use crate::error::SimError;
use crate::network::PreStability;
use crate::scenario::Scenario;
use crate::time::SimTime;
use esync_core::config::TimingConfig;
use esync_core::time::RealDuration;
use serde::Serialize;

/// Full configuration of one simulated run.
///
/// Serializes (to JSON) so that benchmark artifacts can embed the exact
/// configuration every number was produced from.
#[derive(Debug, Clone, Serialize)]
pub struct SimConfig {
    /// The protocol-visible timing parameters (`N`, `δ`, `σ`, `ε`, `ρ`).
    pub timing: TimingConfig,
    /// The stabilization time `TS` (unknown to processes).
    pub ts: SimTime,
    /// PRNG seed; every run is a deterministic function of it.
    pub seed: u64,
    /// Pre-`TS` network behaviour.
    pub pre: PreStability,
    /// Post-`TS` delays, as fractions of `δ` (default `[0.1, 1.0]`).
    pub post_delay_range: (f64, f64),
    /// Safety horizon: the run errors out if it passes this time.
    pub max_time: SimTime,
    /// Run the idealized leader-election oracle (traditional Paxos).
    pub leader_oracle: bool,
    /// Fault and workload script.
    pub scenario: Scenario,
}

impl SimConfig {
    /// Starts building a configuration for `n` processes.
    pub fn builder(n: usize) -> SimConfigBuilder {
        SimConfigBuilder {
            n,
            delta: RealDuration::from_millis(10),
            sigma: None,
            epsilon: None,
            rho: 1e-3,
            ts: SimTime::from_millis(300),
            seed: 0,
            pre: PreStability::chaos(),
            post_delay_range: (0.1, 1.0),
            max_time: SimTime::from_secs(120),
            leader_oracle: false,
            scenario: Scenario::none(),
        }
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    n: usize,
    delta: RealDuration,
    sigma: Option<RealDuration>,
    epsilon: Option<RealDuration>,
    rho: f64,
    ts: SimTime,
    seed: u64,
    pre: PreStability,
    post_delay_range: (f64, f64),
    max_time: SimTime,
    leader_oracle: bool,
    scenario: Scenario,
}

impl SimConfigBuilder {
    /// Sets the message-delay bound `δ` (default 10ms).
    pub fn delta(mut self, delta: RealDuration) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the session-timer bound `σ` (default: minimum admissible).
    pub fn sigma(mut self, sigma: RealDuration) -> Self {
        self.sigma = Some(sigma);
        self
    }

    /// Sets the retransmission interval `ε` (default `δ/4`).
    pub fn epsilon(mut self, epsilon: RealDuration) -> Self {
        self.epsilon = Some(epsilon);
        self
    }

    /// Sets the clock-rate error bound `ρ` (default `10⁻³`).
    pub fn rho(mut self, rho: f64) -> Self {
        self.rho = rho;
        self
    }

    /// Sets the stabilization time `TS` (default 300ms).
    pub fn stability_at(mut self, ts: SimTime) -> Self {
        self.ts = ts;
        self
    }

    /// Sets `TS` in milliseconds.
    pub fn stability_at_millis(self, ms: u64) -> Self {
        self.stability_at(SimTime::from_millis(ms))
    }

    /// Sets the seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the pre-stability policy (default [`PreStability::chaos`]).
    pub fn pre_stability(mut self, pre: PreStability) -> Self {
        self.pre = pre;
        self
    }

    /// Sets post-stability delays as fractions of `δ` (default `[0.1,1.0]`).
    pub fn post_delay_range(mut self, range: (f64, f64)) -> Self {
        self.post_delay_range = range;
        self
    }

    /// Sets the safety horizon (default 120s).
    pub fn max_time(mut self, max: SimTime) -> Self {
        self.max_time = max;
        self
    }

    /// Enables the idealized leader-election oracle.
    pub fn leader_oracle(mut self, enabled: bool) -> Self {
        self.leader_oracle = enabled;
        self
    }

    /// Sets the fault/workload script.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for invalid timing parameters,
    /// [`SimError::NoSuchProcess`] for out-of-range scenario pids, and
    /// [`SimError::CrashAfterStability`] if the script violates the "no
    /// failures after `TS`" assumption.
    pub fn build(self) -> Result<SimConfig, SimError> {
        let mut b = TimingConfig::builder(self.n);
        b.delta(self.delta).rho(self.rho);
        if let Some(s) = self.sigma {
            b.sigma(s);
        }
        if let Some(e) = self.epsilon {
            b.epsilon(e);
        }
        let timing = b.build()?;
        for pid in self.scenario.referenced_pids() {
            if pid.as_usize() >= self.n {
                return Err(SimError::NoSuchProcess { pid, n: self.n });
            }
        }
        for &(pid, at) in &self.scenario.crashes {
            if at > self.ts {
                return Err(SimError::CrashAfterStability {
                    pid,
                    at,
                    ts: self.ts,
                });
            }
        }
        Ok(SimConfig {
            timing,
            ts: self.ts,
            seed: self.seed,
            pre: self.pre,
            post_delay_range: self.post_delay_range,
            max_time: self.max_time,
            leader_oracle: self.leader_oracle,
            scenario: self.scenario,
        })
    }
}
