//! One run's configuration: [`SimConfig`] and its validating builder.

use crate::error::SimError;
use crate::network::PreStability;
use crate::scenario::Scenario;
use crate::time::SimTime;
use esync_core::config::{TimingConfig, TimingConfigBuilder};
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
            timing: TimingConfig::builder(n),
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
    timing: TimingConfigBuilder,
    ts: SimTime,
    seed: u64,
    pre: PreStability,
    post_delay_range: (f64, f64),
    max_time: SimTime,
    leader_oracle: bool,
    scenario: Scenario,
}

impl SimConfigBuilder {
    /// Sets `δ`, `σ`, `ε` or `ρ` on the run's [`TimingConfigBuilder`]
    /// (defaults as [`TimingConfig::builder`]'s: `δ = 10ms`, `ε = δ/4`,
    /// the smallest admissible `σ`, `ρ = 10⁻³`):
    /// `.timing(|t| t.epsilon(eps))`.
    pub fn timing(
        mut self,
        set: impl FnOnce(&mut TimingConfigBuilder) -> &mut TimingConfigBuilder,
    ) -> Self {
        set(&mut self.timing);
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
        let timing = self.timing.build()?;
        let n = timing.n();
        for pid in self.scenario.referenced_pids() {
            if pid.as_usize() >= n {
                return Err(SimError::NoSuchProcess { pid, n });
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
