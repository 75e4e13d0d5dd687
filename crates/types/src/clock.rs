//! Simulated time.
//!
//! Most rvisor experiments are *simulation-time* experiments: migration
//! downtime, scheduler fairness and provisioning latency are computed against
//! deterministic simulated time that the harness advances explicitly (each VM
//! owns its `now`), so results are reproducible and independent of the
//! machine running the tests.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A duration or instant expressed in simulated nanoseconds.
///
/// ```
/// use rvisor_types::Nanoseconds;
/// let mut now = Nanoseconds::ZERO;
/// now += Nanoseconds::from_millis(5);
/// assert_eq!(now, Nanoseconds::from_micros(5_000));
/// assert_eq!(now.to_string(), "5.000 ms");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Nanoseconds(pub u64);

impl Nanoseconds {
    /// Zero nanoseconds.
    pub const ZERO: Nanoseconds = Nanoseconds(0);

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanoseconds(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanoseconds(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanoseconds(s * 1_000_000_000)
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Convert to (fractional) microseconds.
    fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Convert to (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Convert to (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: Nanoseconds) -> Nanoseconds {
        Nanoseconds(self.0.saturating_add(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Nanoseconds) -> Nanoseconds {
        Nanoseconds(self.0.saturating_sub(other.0))
    }
}

impl std::ops::Add for Nanoseconds {
    type Output = Nanoseconds;
    fn add(self, rhs: Nanoseconds) -> Nanoseconds {
        Nanoseconds(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Nanoseconds {
    fn add_assign(&mut self, rhs: Nanoseconds) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for Nanoseconds {
    type Output = Nanoseconds;
    fn sub(self, rhs: Nanoseconds) -> Nanoseconds {
        Nanoseconds(self.0 - rhs.0)
    }
}

impl std::ops::Mul<u64> for Nanoseconds {
    type Output = Nanoseconds;
    fn mul(self, rhs: u64) -> Nanoseconds {
        Nanoseconds(self.0 * rhs)
    }
}

impl fmt::Display for Nanoseconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3} s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3} ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3} µs", self.as_micros_f64())
        } else {
            write!(f, "{} ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Nanoseconds::from_micros(1).as_nanos(), 1_000);
        assert_eq!(Nanoseconds::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(Nanoseconds::from_secs(1).as_nanos(), 1_000_000_000);
        assert!((Nanoseconds::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_scales() {
        assert_eq!(Nanoseconds(999).to_string(), "999 ns");
        assert_eq!(Nanoseconds::from_micros(2).to_string(), "2.000 µs");
        assert_eq!(Nanoseconds::from_millis(3).to_string(), "3.000 ms");
        assert_eq!(Nanoseconds::from_secs(4).to_string(), "4.000 s");
    }

    #[test]
    fn arithmetic() {
        let a = Nanoseconds::from_millis(2);
        let b = Nanoseconds::from_millis(1);
        assert_eq!(a + b, Nanoseconds::from_millis(3));
        assert_eq!(a - b, Nanoseconds::from_millis(1));
        assert_eq!(b * 4, Nanoseconds::from_millis(4));
        assert_eq!(b.saturating_sub(a), Nanoseconds::ZERO);
        assert_eq!(
            Nanoseconds(u64::MAX).saturating_add(b),
            Nanoseconds(u64::MAX)
        );
    }
}
