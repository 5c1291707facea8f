//! Time newtypes distinguishing *real* (global) time from *process-local*
//! clock time.
//!
//! The paper's model gives each process a clock whose running rate after the
//! stabilization time `TS` is within a known bound `ρ ≪ 1` of real time.
//! Protocols only ever observe **local** time; the bound `δ` on message
//! delivery, however, is a **real**-time quantity. Mixing the two up is a
//! classic source of subtle timing bugs, so they get distinct newtypes:
//!
//! * [`RealDuration`] — a span of real (simulated-wall-clock) time, e.g. `δ`.
//! * [`LocalDuration`] / [`LocalInstant`] — spans and points of one process's
//!   own clock. Timers are set in local durations.
//!
//! A protocol that wants a timer to fire **no earlier than** real duration
//! `d` must stretch it to a local duration `d·(1+ρ)`; the timer then fires at
//! a real time in `[d, d·(1+ρ)/(1−ρ)]`. [`crate::config::TimingConfig`]
//! provides that conversion.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub};
use serde::Serialize;

/// A span of real time, in nanoseconds.
///
/// ```
/// use esync_core::time::RealDuration;
/// let delta = RealDuration::from_millis(10);
/// assert_eq!(delta.as_nanos(), 10_000_000);
/// assert_eq!((delta * 4).as_millis_f64(), 40.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default)]
pub struct RealDuration(u64);

/// A span of one process's local clock, in local nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LocalDuration(u64);

/// A point on one process's local clock, in local nanoseconds since that
/// clock's (arbitrary) origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LocalInstant(u64);

macro_rules! duration_impl {
    ($ty:ident) => {
        impl $ty {
            /// The zero-length span.
            pub const ZERO: $ty = $ty(0);

            /// Creates a span from nanoseconds.
            pub const fn from_nanos(ns: u64) -> Self {
                $ty(ns)
            }

            /// Creates a span from microseconds.
            pub const fn from_micros(us: u64) -> Self {
                $ty(us * 1_000)
            }

            /// Creates a span from milliseconds.
            pub const fn from_millis(ms: u64) -> Self {
                $ty(ms * 1_000_000)
            }

            /// Creates a span from seconds.
            pub const fn from_secs(s: u64) -> Self {
                $ty(s * 1_000_000_000)
            }

            /// Returns the span in nanoseconds.
            pub const fn as_nanos(self) -> u64 {
                self.0
            }

            /// Returns the span in (possibly fractional) milliseconds.
            pub fn as_millis_f64(self) -> f64 {
                self.0 as f64 / 1.0e6
            }

            /// Returns the span in (possibly fractional) seconds.
            pub fn as_secs_f64(self) -> f64 {
                self.0 as f64 / 1.0e9
            }

            /// Whether this is the zero span.
            pub const fn is_zero(self) -> bool {
                self.0 == 0
            }

            /// Scales the span by a non-negative factor, rounding to the
            /// nearest nanosecond.
            ///
            /// # Panics
            ///
            /// Panics if `factor` is negative or not finite.
            pub fn mul_f64(self, factor: f64) -> Self {
                assert!(
                    factor.is_finite() && factor >= 0.0,
                    "duration scale factor must be finite and non-negative, got {factor}"
                );
                // `trunc(x + 0.5)` instead of `x.round()`: no libm call —
                // this sits under every simulated message's delay
                // sampling. For products whose fractional part is within
                // 1 ulp below 0.5 the f64 addition can round up where
                // `round()` would not, a deterministic ≤1ns divergence.
                $ty((self.0 as f64 * factor + 0.5) as u64)
            }

            /// Saturating subtraction.
            pub fn saturating_sub(self, other: Self) -> Self {
                $ty(self.0.saturating_sub(other.0))
            }

            /// Returns the larger of two spans.
            pub fn max(self, other: Self) -> Self {
                if self.0 >= other.0 {
                    self
                } else {
                    other
                }
            }

            /// Returns the smaller of two spans.
            pub fn min(self, other: Self) -> Self {
                if self.0 <= other.0 {
                    self
                } else {
                    other
                }
            }
        }

        impl Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0.checked_add(rhs.0).expect("duration overflow"))
            }
        }

        impl AddAssign for $ty {
            fn add_assign(&mut self, rhs: $ty) {
                *self = *self + rhs;
            }
        }

        impl Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty {
                $ty(self.0.checked_sub(rhs.0).expect("duration underflow"))
            }
        }

        impl Mul<u64> for $ty {
            type Output = $ty;
            fn mul(self, rhs: u64) -> $ty {
                $ty(self.0.checked_mul(rhs).expect("duration overflow"))
            }
        }

        impl Div<u64> for $ty {
            type Output = $ty;
            fn div(self, rhs: u64) -> $ty {
                $ty(self.0 / rhs)
            }
        }
    };
}

duration_impl!(RealDuration);
duration_impl!(LocalDuration);

impl fmt::Display for RealDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for LocalDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms(local)", self.as_millis_f64())
    }
}

impl LocalInstant {
    /// The clock origin.
    pub const ZERO: LocalInstant = LocalInstant(0);

    /// Creates an instant from nanoseconds since the clock origin.
    pub const fn from_nanos(ns: u64) -> Self {
        LocalInstant(ns)
    }

    /// Nanoseconds since the clock origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is actually later than `self`.
    pub fn since(self, earlier: LocalInstant) -> LocalDuration {
        LocalDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("`earlier` is later than `self`"),
        )
    }

    /// The span since an earlier instant, or zero if `earlier` is later.
    pub fn saturating_since(self, earlier: LocalInstant) -> LocalDuration {
        LocalDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<LocalDuration> for LocalInstant {
    type Output = LocalInstant;
    fn add(self, rhs: LocalDuration) -> LocalInstant {
        LocalInstant(
            self.0
                .checked_add(rhs.as_nanos())
                .expect("instant overflow"),
        )
    }
}

impl fmt::Display for LocalInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{:.3}ms(local)", self.0 as f64 / 1.0e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(RealDuration::from_secs(1), RealDuration::from_millis(1000));
        assert_eq!(
            RealDuration::from_millis(1),
            RealDuration::from_micros(1000)
        );
        assert_eq!(RealDuration::from_micros(1), RealDuration::from_nanos(1000));
    }

    #[test]
    fn arithmetic() {
        let a = RealDuration::from_millis(10);
        let b = RealDuration::from_millis(4);
        assert_eq!(a + b, RealDuration::from_millis(14));
        assert_eq!(a - b, RealDuration::from_millis(6));
        assert_eq!(a * 3, RealDuration::from_millis(30));
        assert_eq!(a / 2, RealDuration::from_millis(5));
        assert_eq!(b.saturating_sub(a), RealDuration::ZERO);
    }

    #[test]
    fn min_max() {
        let a = LocalDuration::from_millis(10);
        let b = LocalDuration::from_millis(4);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = RealDuration::from_nanos(10);
        assert_eq!(d.mul_f64(1.25), RealDuration::from_nanos(13));
        assert_eq!(d.mul_f64(0.0), RealDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn mul_f64_rejects_negative() {
        let _ = RealDuration::from_nanos(10).mul_f64(-1.0);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = LocalInstant::from_nanos(100);
        let t1 = t0 + LocalDuration::from_nanos(50);
        assert_eq!(t1.as_nanos(), 150);
        assert_eq!(t1.since(t0), LocalDuration::from_nanos(50));
        assert_eq!(t0.saturating_since(t1), LocalDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "later")]
    fn since_panics_on_reversed_order() {
        let t0 = LocalInstant::from_nanos(100);
        let t1 = t0 + LocalDuration::from_nanos(50);
        let _ = t0.since(t1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(RealDuration::from_millis(10).to_string(), "10.000ms");
        assert_eq!(LocalDuration::from_millis(2).to_string(), "2.000ms(local)");
    }

    #[test]
    fn seconds_conversion() {
        assert!((RealDuration::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((RealDuration::from_millis(1500).as_millis_f64() - 1500.0).abs() < 1e-9);
    }
}
