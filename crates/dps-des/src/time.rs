//! Integer virtual time: instants and spans in nanoseconds.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time, in integer nanoseconds since simulation start.
///
/// Integer time keeps event ordering exact: with `f64` clocks, the order of
/// additions changes low-order bits and therefore event order, destroying the
/// reproducibility the experiment harness depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A duration in virtual time, in integer nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimSpan(pub u64);

impl SimTime {
    /// Simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Elapsed nanoseconds since the epoch.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Elapsed virtual seconds as `f64` (for reporting only; never for
    /// event-ordering arithmetic).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Span from `earlier` to `self`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimSpan {
        SimSpan(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimSpan {
    /// Zero-length span.
    pub const ZERO: SimSpan = SimSpan(0);

    /// Span from integer nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimSpan(ns)
    }

    /// Span from integer microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimSpan(us.saturating_mul(1_000))
    }

    /// Span from integer milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimSpan(ms.saturating_mul(1_000_000))
    }

    /// Span from integer seconds.
    pub fn from_secs(s: u64) -> Self {
        SimSpan(s.saturating_mul(1_000_000_000))
    }

    /// Span from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// This is the bridge from physical cost models (`bytes / bandwidth`);
    /// the rounding happens once per modelled quantity, after which all
    /// arithmetic is exact.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "span must be finite and non-negative, got {s}"
        );
        SimSpan((s * 1e9).round() as u64)
    }

    /// Length in nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in fractional seconds (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True for the zero span.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimSpan> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimSpan) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimSpan> for SimTime {
    fn add_assign(&mut self, rhs: SimSpan) {
        *self = *self + rhs;
    }
}

impl Sub<SimSpan> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimSpan) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimSpan {
    type Output = SimSpan;
    fn add(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimSpan {
    fn add_assign(&mut self, rhs: SimSpan) {
        *self = *self + rhs;
    }
}

impl Sub for SimSpan {
    type Output = SimSpan;
    fn sub(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimSpan {
    fn sub_assign(&mut self, rhs: SimSpan) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimSpan {
    type Output = SimSpan;
    fn mul(self, rhs: u64) -> SimSpan {
        SimSpan(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimSpan {
    type Output = SimSpan;
    fn div(self, rhs: u64) -> SimSpan {
        SimSpan(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}µs", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_exact() {
        let t = SimTime::ZERO + SimSpan::from_micros(3) + SimSpan::from_nanos(5);
        assert_eq!(t.as_nanos(), 3_005);
        assert_eq!(t.since(SimTime(5)).as_nanos(), 3_000);
    }

    #[test]
    fn since_saturates() {
        assert_eq!(SimTime(3).since(SimTime(10)), SimSpan::ZERO);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimSpan::from_secs_f64(1.5e-9).as_nanos(), 2);
        assert_eq!(SimSpan::from_secs_f64(0.0).as_nanos(), 0);
        assert_eq!(SimSpan::from_secs_f64(2.0).as_nanos(), 2_000_000_000);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_span_panics() {
        SimSpan::from_secs_f64(-1.0);
    }

    #[test]
    fn ordering() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimSpan::from_millis(1) < SimSpan::from_secs(1));
        assert_eq!(SimTime(5).max(SimTime(3)), SimTime(5));
    }

    #[test]
    fn span_scaling() {
        assert_eq!((SimSpan::from_micros(10) * 3).as_nanos(), 30_000);
        assert_eq!((SimSpan::from_micros(10) / 4).as_nanos(), 2_500);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimSpan::from_nanos(500).to_string(), "500ns");
        assert_eq!(SimSpan::from_micros(1500).to_string(), "1.50ms");
        assert_eq!(SimSpan::from_secs(2).to_string(), "2.000s");
    }
}
