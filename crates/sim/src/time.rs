//! Simulated (real) time.
//!
//! [`SimTime`] is an instant of *real* time in the simulation, in
//! nanoseconds since the start of the run. Real durations reuse
//! [`esync_core::time::RealDuration`]; process-local clock readings are
//! [`esync_core::time::LocalInstant`]s produced by
//! [`crate::clock::DriftClock`].

use core::fmt;
use core::ops::{Add, Sub};
use esync_core::time::RealDuration;
use serde::Serialize;

/// An instant of simulated real time (nanoseconds since run start).
///
/// ```
/// use esync_sim::time::SimTime;
/// use esync_core::time::RealDuration;
///
/// let t = SimTime::from_millis(5) + RealDuration::from_millis(10);
/// assert_eq!(t.as_nanos(), 15_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the run.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from nanoseconds since run start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds since run start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant from milliseconds since run start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from seconds since run start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since run start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since run start, fractional.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1.0e9
    }

    /// Milliseconds since run start, fractional.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// The span since an earlier instant, or zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> RealDuration {
        RealDuration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// The span since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is actually later than `self`.
    pub fn since(self, earlier: SimTime) -> RealDuration {
        RealDuration::from_nanos(
            self.0
                .checked_sub(earlier.0)
                .expect("`earlier` is later than `self`"),
        )
    }
}

impl Add<RealDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: RealDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.as_nanos()).expect("time overflow"))
    }
}

impl Sub<RealDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: RealDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.as_nanos()).expect("time underflow"))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
    }

    #[test]
    fn arithmetic_with_real_durations() {
        let t = SimTime::from_millis(10);
        let d = RealDuration::from_millis(3);
        assert_eq!((t + d).as_nanos(), 13_000_000);
        assert_eq!((t - d).as_nanos(), 7_000_000);
        assert_eq!((t + d).since(t), d);
        assert_eq!(t.saturating_since(t + d), RealDuration::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert_eq!(SimTime::ZERO, SimTime::from_nanos(0));
    }

    #[test]
    #[should_panic(expected = "later")]
    fn since_panics_when_reversed() {
        let _ = SimTime::ZERO.since(SimTime::from_nanos(1));
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_millis(10).to_string(), "t=10.000ms");
    }
}
