//! Simulated time.
//!
//! The simulator uses a nanosecond-resolution virtual clock. All scheduling
//! is expressed in [`SimTime`] (an absolute instant) and [`SimDuration`]
//! (a span). Both are thin wrappers over `u64` nanoseconds so arithmetic is
//! exact and the event queue ordering is total.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant on the simulated clock, in nanoseconds since the
/// start of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since the epoch.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Convert to fractional microseconds (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Convert to fractional milliseconds (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Elapsed duration since `earlier`. Saturates at zero rather than
    /// panicking so that defensive comparisons are cheap.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    /// Build a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Build a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Build a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Build a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Nanoseconds in this span.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds in this span.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional microseconds in this span.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Scale the duration by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction went negative");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction went negative");
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}us", self.as_micros_f64())
        }
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::ZERO + SimDuration::from_micros(80);
        assert_eq!(t.as_nanos(), 80_000);
        assert_eq!(t - SimTime::ZERO, SimDuration::from_micros(80));
        assert_eq!(SimDuration::from_millis(10).as_nanos(), 10_000_000);
        assert_eq!(SimDuration::from_secs(1) / 4, SimDuration::from_millis(250));
    }

    #[test]
    fn saturating_since_never_underflows() {
        let early = SimTime(5);
        let late = SimTime(9);
        assert_eq!(late.saturating_since(early).as_nanos(), 4);
        assert_eq!(early.saturating_since(late).as_nanos(), 0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime(1_500)), "1.500us");
        assert_eq!(format!("{}", SimTime(2_500_000)), "2.500ms");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![SimTime(3), SimTime(1), SimTime(2)];
        v.sort();
        assert_eq!(v, vec![SimTime(1), SimTime(2), SimTime(3)]);
    }
}
