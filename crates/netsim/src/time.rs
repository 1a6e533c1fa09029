//! Virtual time: nanosecond-resolution simulation clocks.
//!
//! [`SimTime`] is an absolute instant since simulation start; [`SimDuration`]
//! a non-negative span. Both are thin wrappers over `u64` nanoseconds —
//! enough for ~584 years of simulated time, far beyond the paper's 900 s
//! runs.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// The most whole seconds a [`SimTime`] or [`SimDuration`] can hold
/// (about 584 years).
pub const MAX_SECS: u64 = u64::MAX / NANOS_PER_SEC;

/// `n` units of `unit` nanoseconds each. The integer constructors are
/// handed constants and validated inputs only, so overflow is a bug in
/// the caller: it panics rather than wrap to a short time.
const fn scale(n: u64, unit: u64) -> u64 {
    match n.checked_mul(unit) {
        Some(ns) => ns,
        None => panic!("simulated time overflows u64 nanoseconds (about 584 years)"),
    }
}

/// An absolute simulation instant (nanoseconds since start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A non-negative span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future (used as an "infinite" horizon).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from whole microseconds; panics if that overflows
    /// `u64` nanoseconds (about 584 years).
    pub const fn from_micros(us: u64) -> Self {
        SimTime(scale(us, 1_000))
    }

    /// Creates an instant from whole milliseconds; panics if that overflows
    /// `u64` nanoseconds (about 584 years).
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(scale(ms, 1_000_000))
    }

    /// Creates an instant from whole seconds; panics if that overflows
    /// `u64` nanoseconds (about 584 years).
    pub const fn from_secs(s: u64) -> Self {
        SimTime(scale(s, NANOS_PER_SEC))
    }

    /// Creates an instant from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time {s}");
        SimTime((s * 1e9).round() as u64)
    }

    /// Whole nanoseconds since start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, saturating at zero.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a span from whole microseconds; panics if that overflows
    /// `u64` nanoseconds (about 584 years).
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(scale(us, 1_000))
    }

    /// Creates a span from whole milliseconds; panics if that overflows
    /// `u64` nanoseconds (about 584 years).
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(scale(ms, 1_000_000))
    }

    /// Creates a span from whole seconds; panics if that overflows
    /// `u64` nanoseconds (about 584 years).
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(scale(s, NANOS_PER_SEC))
    }

    /// Creates a span from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration {s}");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Multiplies the span by an integer factor (saturating).
    pub fn saturating_mul(self, k: u64) -> SimDuration {
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
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "time went backwards");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
        assert!((SimTime::from_secs_f64(1.25).as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn max_secs_is_the_last_whole_second_that_fits() {
        assert_eq!(MAX_SECS, 18_446_744_073);
        assert_eq!(
            SimTime::from_secs(MAX_SECS).as_nanos(),
            18_446_744_073_000_000_000
        );
    }

    #[test]
    #[should_panic(expected = "overflows u64 nanoseconds")]
    fn overflowing_seconds_panic_instead_of_wrapping() {
        // 18 446 744 074 s wraps to 0.29 s in unchecked arithmetic.
        let _ = SimTime::from_secs(18_446_744_074);
    }

    #[test]
    #[should_panic(expected = "overflows u64 nanoseconds")]
    fn overflowing_millis_panic_instead_of_wrapping() {
        let _ = SimDuration::from_millis(u64::MAX / 1_000_000 + 1);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        let d = t - SimTime::from_secs(1);
        assert_eq!(d, SimDuration::from_millis(500));
        let mut u = SimTime::ZERO;
        u += SimDuration::from_secs(3);
        assert_eq!(u, SimTime::from_secs(3));
        assert_eq!(
            SimDuration::from_secs(1) + SimDuration::from_secs(2),
            SimDuration::from_secs(3)
        );
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(
            SimDuration::from_secs(2).saturating_mul(3),
            SimDuration::from_secs(6)
        );
    }
}
