//! Simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in processor clock cycles.
///
/// `Cycle` is an absolute timestamp; durations are plain `u64` cycle counts.
/// The distinction keeps timestamp/duration mix-ups out of the protocol code:
/// `Cycle + u64 = Cycle` and `Cycle - Cycle = u64`, but `Cycle + Cycle` does
/// not compile.
///
/// # Example
///
/// ```
/// use ftdircmp_sim::Cycle;
///
/// let start = Cycle::new(100);
/// let deadline = start + 50;
/// assert_eq!(deadline - start, 50);
/// assert!(deadline > start);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// The beginning of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a timestamp at `cycles` cycles after time zero.
    pub const fn new(cycles: u64) -> Self {
        Cycle(cycles)
    }

    /// Returns the raw cycle count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the duration since `earlier`, or zero if `earlier` is in the
    /// future.
    pub fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;

    /// Duration between two timestamps.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "negative duration: {self} - {rhs}");
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}c", self.0)
    }
}

impl fmt::Debug for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cycle({})", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(value: u64) -> Self {
        Cycle(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = Cycle::new(7);
        assert_eq!((t + 3) - t, 3);
        assert_eq!(Cycle::ZERO.as_u64(), 0);
    }

    #[test]
    fn ordering_follows_cycle_count() {
        assert!(Cycle::new(1) < Cycle::new(2));
    }

    #[test]
    fn saturating_since_never_underflows() {
        assert_eq!(Cycle::new(3).saturating_since(Cycle::new(10)), 0);
        assert_eq!(Cycle::new(10).saturating_since(Cycle::new(3)), 7);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Cycle::new(42).to_string(), "42c");
        assert_eq!(format!("{:?}", Cycle::new(42)), "Cycle(42)");
    }

    #[test]
    fn add_assign_advances() {
        let mut t = Cycle::new(1);
        t += 4;
        assert_eq!(t, Cycle::new(5));
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    #[cfg(debug_assertions)]
    fn negative_duration_panics_in_debug() {
        let _ = Cycle::new(1) - Cycle::new(2);
    }
}
