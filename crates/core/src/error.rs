//! Error types for configuration validation.

use crate::time::RealDuration;
use core::fmt;

/// Error returned when a [`crate::config::TimingConfig`] is invalid.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The process count must be at least 1.
    InvalidProcessCount {
        /// The offending count.
        n: usize,
    },
    /// The message-delay bound `δ` must be positive.
    ZeroDelta,
    /// The retransmission interval `ε` must be positive.
    ZeroEpsilon,
    /// The clock-rate error bound `ρ` must satisfy `0 ≤ ρ < 1` (and the
    /// paper assumes `ρ ≪ 1`; we cap it at 0.5 to keep timer arithmetic
    /// meaningful).
    InvalidRho {
        /// The offending rate bound.
        rho: f64,
    },
    /// `σ` must be at least `4δ(1+ρ)/(1−ρ)` so that a timer which is
    /// guaranteed not to fire before `4δ` real seconds can also be
    /// guaranteed to fire by `σ` real seconds.
    SigmaTooSmall {
        /// The provided `σ`.
        sigma: RealDuration,
        /// The smallest admissible `σ` for the given `δ` and `ρ`.
        min: RealDuration,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidProcessCount { n } => {
                write!(f, "process count must be at least 1, got {n}")
            }
            ConfigError::ZeroDelta => write!(f, "message-delay bound delta must be positive"),
            ConfigError::ZeroEpsilon => {
                write!(f, "retransmission interval epsilon must be positive")
            }
            ConfigError::InvalidRho { rho } => {
                write!(
                    f,
                    "clock-rate error bound rho must be in [0, 0.5), got {rho}"
                )
            }
            ConfigError::SigmaTooSmall { sigma, min } => write!(
                f,
                "sigma ({sigma}) is below the minimum {min} required by 4*delta*(1+rho)/(1-rho)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_trailing_punctuation() {
        let msgs = [
            ConfigError::InvalidProcessCount { n: 0 }.to_string(),
            ConfigError::ZeroDelta.to_string(),
            ConfigError::ZeroEpsilon.to_string(),
            ConfigError::InvalidRho { rho: 0.9 }.to_string(),
            ConfigError::SigmaTooSmall {
                sigma: RealDuration::from_millis(1),
                min: RealDuration::from_millis(40),
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(!m.ends_with('.'), "no trailing period: {m}");
            assert!(m.chars().next().unwrap().is_lowercase(), "lowercase: {m}");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<ConfigError>();
    }
}
