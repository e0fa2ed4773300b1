//! Simulated time.
//!
//! All simulation components agree on a single clock domain: **CPU
//! cycles** of the simulated machine. Cycles are exact integers, so event
//! ordering never suffers floating-point drift; conversion to seconds
//! happens only at reporting time, parameterised by the core frequency
//! (1.9 GHz for the paper's Xeon E5-2420).

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An absolute point in simulated time, in CPU cycles since simulation
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in CPU cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (cycle zero).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from a raw cycle count.
    #[inline]
    pub const fn from_cycles(cycles: u64) -> Self {
        SimTime(cycles)
    }

    /// The raw cycle count.
    #[inline]
    pub const fn cycles(self) -> u64 {
        self.0
    }

    /// Elapsed duration since `earlier`. Saturates at zero rather than
    /// panicking, so callers comparing racing events never underflow.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Convert to seconds at the given core frequency in Hz.
    #[inline]
    pub fn as_secs(self, freq_hz: f64) -> f64 {
        self.0 as f64 / freq_hz
    }

    /// Saturating addition of a duration (stays at [`SimTime::MAX`]).
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from a raw cycle count.
    #[inline]
    pub const fn from_cycles(cycles: u64) -> Self {
        SimDuration(cycles)
    }

    /// Construct from microseconds of wall time at the given frequency.
    #[inline]
    pub fn from_micros(us: f64, freq_hz: f64) -> Self {
        SimDuration((us * 1e-6 * freq_hz).round() as u64)
    }

    /// The raw cycle count.
    #[inline]
    pub const fn cycles(self) -> u64 {
        self.0
    }

    /// Convert to seconds at the given core frequency in Hz.
    #[inline]
    pub fn as_secs(self, freq_hz: f64) -> f64 {
        self.0 as f64 / freq_hz
    }

    /// True if this duration is zero cycles long.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale the duration by a non-negative factor, rounding to the
    /// nearest cycle.
    #[inline]
    pub fn scale(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "durations cannot be negative");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_cycles(100);
        let d = SimDuration::from_cycles(40);
        assert_eq!((t + d).cycles(), 140);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d).since(t), d);
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        let early = SimTime::from_cycles(10);
        let late = SimTime::from_cycles(50);
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn seconds_conversion_uses_frequency() {
        let t = SimTime::from_cycles(1_900_000_000);
        assert!((t.as_secs(1.9e9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_micros_rounds_to_cycles() {
        // 3 us at 1 GHz = 3000 cycles.
        assert_eq!(SimDuration::from_micros(3.0, 1e9).cycles(), 3000);
    }

    #[test]
    fn scale_rounds_to_nearest() {
        assert_eq!(SimDuration::from_cycles(10).scale(0.25).cycles(), 3);
        assert_eq!(SimDuration::from_cycles(10).scale(0.0).cycles(), 0);
    }

    #[test]
    fn saturating_add_clamps_at_max() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_cycles(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn display_formats_cycles() {
        assert_eq!(SimTime::from_cycles(7).to_string(), "7cy");
        assert_eq!(SimDuration::from_cycles(9).to_string(), "9cy");
    }
}
