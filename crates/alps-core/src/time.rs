//! Nanosecond-precision time used throughout the ALPS crates.
//!
//! The paper's operation-cost model (Table 1) is expressed in fractional
//! microseconds (e.g. 0.97 µs per signal), so plain microsecond integers
//! would lose precision that matters when a scheduler invocation performs
//! hundreds of operations. All crates in this workspace therefore account
//! time in integer **nanoseconds**, wrapped in [`Nanos`] for type safety.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A duration or instant measured in integer nanoseconds.
///
/// `Nanos` is used both for durations (CPU time consumed, quantum lengths)
/// and for instants on the simulated clock; the two uses are distinguished
/// by context, exactly as with `u64` timestamps in kernel code.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Zero duration.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable instant; used as an "infinitely far" deadline.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// One microsecond.
    pub const MICROSECOND: Nanos = Nanos(1_000);
    /// One millisecond.
    pub const MILLISECOND: Nanos = Nanos(1_000_000);
    /// One second.
    pub const SECOND: Nanos = Nanos(1_000_000_000);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Construct from fractional microseconds, rounding to the nearest
    /// nanosecond. Used for the paper's Table-1 cost constants.
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        debug_assert!(us >= 0.0, "negative duration");
        Nanos((us * 1_000.0).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in microseconds as a float (lossless for < 2^52 ns).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in milliseconds as a float.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Value in seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Value in nanoseconds as a float.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition (clamps at `Nanos::MAX`).
    #[inline]
    pub fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, rhs: Nanos) -> Nanos {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, rhs: Nanos) -> Nanos {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// Multiply by a non-negative float, rounding to the nearest nanosecond.
    #[inline]
    pub fn mul_f64(self, k: f64) -> Nanos {
        debug_assert!(k >= 0.0, "negative scale factor");
        Nanos((self.0 as f64 * k).round() as u64)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Rem for Nanos {
    type Output = Nanos;
    #[inline]
    fn rem(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 % rhs.0)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 && ns.is_multiple_of(1_000_000) {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl From<core::time::Duration> for Nanos {
    fn from(d: core::time::Duration) -> Self {
        Nanos(d.as_nanos() as u64)
    }
}

impl From<Nanos> for core::time::Duration {
    fn from(n: Nanos) -> Self {
        core::time::Duration::from_nanos(n.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_micros(1), Nanos(1_000));
        assert_eq!(Nanos::from_millis(1), Nanos(1_000_000));
        assert_eq!(Nanos::from_secs(1), Nanos(1_000_000_000));
        assert_eq!(Nanos::from_micros_f64(9.02), Nanos(9_020));
        assert_eq!(Nanos::from_micros_f64(0.97), Nanos(970));
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_micros(10);
        let b = Nanos::from_micros(3);
        assert_eq!(a + b, Nanos::from_micros(13));
        assert_eq!(a - b, Nanos::from_micros(7));
        assert_eq!(a * 3, Nanos::from_micros(30));
        assert_eq!(a / 2, Nanos::from_micros(5));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.saturating_sub(b), Nanos::from_micros(7));
    }

    #[test]
    fn float_views() {
        let t = Nanos::from_millis(1500);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((t.as_millis_f64() - 1500.0).abs() < 1e-9);
        assert!((t.as_micros_f64() - 1_500_000.0).abs() < 1e-6);
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Nanos(12)), "12ns");
        assert_eq!(format!("{}", Nanos::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", Nanos::from_millis(7)), "7.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(2)), "2.000s");
    }

    #[test]
    fn duration_round_trip() {
        let d = core::time::Duration::from_millis(42);
        let n: Nanos = d.into();
        assert_eq!(n, Nanos::from_millis(42));
        let back: core::time::Duration = n.into();
        assert_eq!(back, d);
    }

    #[test]
    fn min_max() {
        let a = Nanos(5);
        let b = Nanos(9);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(Nanos(1000).mul_f64(0.5), Nanos(500));
        assert_eq!(Nanos(3).mul_f64(0.5), Nanos(2)); // 1.5 rounds to 2
    }

    #[test]
    fn sum_iterator() {
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
    }
}
