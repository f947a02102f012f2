//! Simulated time.
//!
//! Time is a plain `u64` tick count wrapped in a newtype. The unit is
//! whatever the enclosing simulator decides (the Gnutella simulator uses
//! microseconds); the kernel only requires monotonicity and cheap ordering.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in abstract ticks.
///
/// `SimTime` is totally ordered and supports saturating arithmetic with
/// [`Duration`] deltas. Construction from a raw tick count is explicit via
/// [`SimTime::from_ticks`] to avoid accidental unit confusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (difference of two [`SimTime`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from a raw tick count.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Returns the raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating addition of a duration.
    #[inline]
    pub fn saturating_add(self, d: Duration) -> Self {
        SimTime(self.0.saturating_add(d.0))
    }

    /// The duration elapsed since `earlier`, or zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// A zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from a raw tick count.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        Duration(ticks)
    }

    /// Returns the raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Multiplies the span by an integer factor, saturating on overflow.
    #[inline]
    pub fn saturating_mul(self, k: u64) -> Self {
        Duration(self.0.saturating_mul(k))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ticks", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_ticks(5);
        let b = a + Duration::from_ticks(7);
        assert_eq!(b.ticks(), 12);
        assert!(b > a);
        assert_eq!(b - a, Duration::from_ticks(7));
        assert_eq!(b.since(a).ticks(), 7);
        assert_eq!(a.since(b), Duration::ZERO);
    }

    #[test]
    fn saturating_ops() {
        let m = SimTime::MAX;
        assert_eq!(m.saturating_add(Duration::from_ticks(1)), SimTime::MAX);
        let d = Duration::from_ticks(u64::MAX / 2 + 1);
        assert_eq!(d.saturating_mul(3).ticks(), u64::MAX);
    }

    #[test]
    fn add_assign_advances() {
        let mut t = SimTime::ZERO;
        t += Duration::from_ticks(3);
        t += Duration::from_ticks(4);
        assert_eq!(t, SimTime::from_ticks(7));
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(SimTime::from_ticks(42).to_string(), "t=42");
        assert_eq!(Duration::from_ticks(9).to_string(), "9 ticks");
    }

    /// Adding two durations to a time in either grouping lands on the
    /// same time.
    #[test]
    fn simtime_addition_associative() {
        let mut rng = crate::Rng64::seed_from(0x3E5);
        for _ in 0..64 {
            let t = SimTime::from_ticks(rng.below(1 << 40));
            let b = Duration::from_ticks(rng.below(1 << 20));
            let c = Duration::from_ticks(rng.below(1 << 20));
            assert_eq!((t + b) + c, t + (b + c));
        }
    }
}
