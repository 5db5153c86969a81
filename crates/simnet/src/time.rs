//! Simulated time.
//!
//! The simulator measures time in integer **nanoseconds** since simulation
//! start. Using a newtype (rather than `std::time::Duration`) keeps arithmetic
//! explicit, makes accidental mixing with wall-clock time impossible, and
//! keeps event ordering exact (no floating point).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The farthest representable instant; used as an "idle forever" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the epoch (truncating).
    #[inline]
    pub fn micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the epoch as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Saturating add of a duration.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from a float of seconds, rounding to the nearest nanosecond.
    ///
    /// Negative and non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDuration {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// Nanoseconds in this duration.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    #[inline]
    pub fn micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Multiply by an integer factor, saturating.
    #[inline]
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

/// Compute the serialization delay of `bytes` on a link of `gbps` gigabits
/// per second. A zero or negative bandwidth means "infinitely fast".
#[inline]
pub fn serialization_delay(bytes: u64, gbps: f64) -> SimDuration {
    if gbps <= 0.0 {
        return SimDuration::ZERO;
    }
    // bits / (gbps * 1e9 bits/sec) seconds -> nanoseconds = bits / gbps.
    let bits = bytes as f64 * 8.0;
    SimDuration((bits / gbps).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::ZERO + SimDuration::from_micros(5);
        assert_eq!(t.nanos(), 5_000);
        assert_eq!((t + SimDuration::from_nanos(1)) - t, SimDuration(1));
        assert_eq!(t.micros(), 5);
    }

    #[test]
    fn duration_constructors_consistent() {
        assert_eq!(SimDuration::from_secs(1).nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_millis(1).nanos(), 1_000_000);
        assert_eq!(SimDuration::from_micros(1).nanos(), 1_000);
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime(100);
        let b = SimTime(50);
        assert_eq!(b.since(a), SimDuration::ZERO);
        assert_eq!(a.since(b), SimDuration(50));
    }

    #[test]
    fn serialization_delay_matches_line_rate() {
        // 100 Gbps, 1250 bytes = 10_000 bits -> 100ns.
        assert_eq!(serialization_delay(1250, 100.0), SimDuration(100));
        // 50 Gbps doubles it.
        assert_eq!(serialization_delay(1250, 50.0), SimDuration(200));
        // Infinite bandwidth.
        assert_eq!(serialization_delay(1_000_000, 0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration(500)), "500ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.00us");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.00ms");
    }
}
