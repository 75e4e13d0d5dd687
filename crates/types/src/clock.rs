//! Simulated time.
//!
//! Most rvisor experiments are *simulation-time* experiments: migration
//! downtime, scheduler fairness and provisioning latency are computed against
//! a deterministic clock that the harness advances explicitly, so results are
//! reproducible and independent of the machine running the tests.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A duration or instant expressed in simulated nanoseconds.
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

/// A source of simulated time.
pub trait SimClock: Send + Sync {
    /// The current simulated instant.
    fn now(&self) -> Nanoseconds;

    /// Advance the clock by `delta`.
    fn advance(&self, delta: Nanoseconds);
}

/// A shareable, manually-advanced simulated clock.
///
/// Cloning shares the underlying counter, so multiple components observe the
/// same timeline.
///
/// ```
/// use rvisor_types::{ManualClock, Nanoseconds, SimClock};
/// let clock = ManualClock::new();
/// let view = clock.clone();
/// clock.advance(Nanoseconds::from_millis(5));
/// assert_eq!(view.now(), Nanoseconds::from_millis(5));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    now: Arc<AtomicU64>,
}

impl ManualClock {
    /// Create a clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SimClock for ManualClock {
    fn now(&self) -> Nanoseconds {
        Nanoseconds(self.now.load(Ordering::SeqCst))
    }

    fn advance(&self, delta: Nanoseconds) {
        self.now.fetch_add(delta.0, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ManualClock {
        /// Create a clock starting at `start`.
        fn starting_at(start: Nanoseconds) -> Self {
            ManualClock {
                now: Arc::new(AtomicU64::new(start.0)),
            }
        }

        /// Set the clock to an absolute instant (must not go backwards).
        ///
        /// Returns `false` (and leaves the clock unchanged) if `t` is earlier
        /// than the current time.
        fn set(&self, t: Nanoseconds) -> bool {
            let mut cur = self.now.load(Ordering::SeqCst);
            loop {
                if t.0 < cur {
                    return false;
                }
                match self
                    .now
                    .compare_exchange(cur, t.0, Ordering::SeqCst, Ordering::SeqCst)
                {
                    Ok(_) => return true,
                    Err(actual) => cur = actual,
                }
            }
        }
    }

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

    #[test]
    fn manual_clock_is_shared() {
        let c = ManualClock::new();
        let view = c.clone();
        assert_eq!(c.now(), Nanoseconds::ZERO);
        c.advance(Nanoseconds::from_secs(1));
        assert_eq!(view.now(), Nanoseconds::from_secs(1));
    }

    #[test]
    fn manual_clock_set_never_goes_backwards() {
        let c = ManualClock::starting_at(Nanoseconds::from_secs(10));
        assert!(!c.set(Nanoseconds::from_secs(5)));
        assert_eq!(c.now(), Nanoseconds::from_secs(10));
        assert!(c.set(Nanoseconds::from_secs(20)));
        assert_eq!(c.now(), Nanoseconds::from_secs(20));
    }
}
