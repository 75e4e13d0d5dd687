//! A one-shot / periodic countdown timer.
//!
//! The guest programs a deadline; when the simulated clock passes it the
//! timer counts an expiration, which the guest reads in its count register
//! (offset 16). The VMM calls [`CountdownTimer::tick`]
//! whenever it advances the simulated clock (typically once per scheduling
//! quantum), which is how the device observes time.
//!
//! Register layout:
//!
//! | offset | read                 | write                                 |
//! |--------|----------------------|---------------------------------------|
//! | 0      | remaining ns         | arm one-shot: fire in `value` ns      |
//! | 8      | period ns (0 = off)  | arm periodic: fire every `value` ns   |
//! | 16     | expirations so far   | any write cancels the timer           |

use std::sync::Arc;

use rvisor_types::{ManualClock, Nanoseconds, SimClock};

use crate::bus::MmioDevice;

/// Register offset: one-shot arm / remaining time.
const REG_ONESHOT: u64 = 0;
/// Register offset: periodic arm / current period.
const REG_PERIODIC: u64 = 8;
/// Register offset: expiration count / cancel.
const REG_COUNT: u64 = 16;

/// The countdown timer device.
#[derive(Debug)]
pub struct CountdownTimer {
    clock: Arc<ManualClock>,
    deadline: Option<Nanoseconds>,
    period: Option<Nanoseconds>,
    expirations: u64,
}

impl CountdownTimer {
    /// Create a disarmed timer.
    pub fn new(clock: Arc<ManualClock>) -> Self {
        CountdownTimer {
            clock,
            deadline: None,
            period: None,
            expirations: 0,
        }
    }

    /// Arm a one-shot expiry `delay` from now.
    fn arm_oneshot(&mut self, delay: Nanoseconds) {
        self.deadline = Some(self.clock.now().saturating_add(delay));
        self.period = None;
    }

    /// Arm a periodic expiry every `period`.
    fn arm_periodic(&mut self, period: Nanoseconds) {
        self.deadline = Some(self.clock.now().saturating_add(period));
        self.period = Some(period);
    }

    /// Disarm the timer.
    pub(crate) fn cancel(&mut self) {
        self.deadline = None;
        self.period = None;
    }

    /// Check for expiry against the current simulated time, counting an
    /// expiration for every deadline that has passed. Returns the number of
    /// expirations observed by this call.
    pub fn tick(&mut self) -> u64 {
        let now = self.clock.now();
        let mut fired = 0;
        while let Some(deadline) = self.deadline {
            if now < deadline {
                break;
            }
            self.expirations += 1;
            fired += 1;
            match self.period {
                Some(p) if p > Nanoseconds::ZERO => {
                    self.deadline = Some(deadline.saturating_add(p));
                }
                _ => {
                    self.deadline = None;
                }
            }
        }
        fired
    }
}

impl MmioDevice for CountdownTimer {
    fn name(&self) -> &str {
        "timer"
    }

    fn read(&mut self, offset: u64, _size: u8) -> u64 {
        match offset {
            REG_ONESHOT => match self.deadline {
                Some(d) => d.saturating_sub(self.clock.now()).as_nanos(),
                None => 0,
            },
            REG_PERIODIC => self.period.map(|p| p.as_nanos()).unwrap_or(0),
            REG_COUNT => self.expirations,
            _ => 0,
        }
    }

    fn write(&mut self, offset: u64, value: u64, _size: u8) {
        match offset {
            REG_ONESHOT => self.arm_oneshot(Nanoseconds(value)),
            REG_PERIODIC => self.arm_periodic(Nanoseconds(value)),
            REG_COUNT => self.cancel(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CountdownTimer {
        /// Whether the timer is currently armed.
        fn is_armed(&self) -> bool {
            self.deadline.is_some()
        }

        /// How many times the timer has fired.
        fn expirations(&self) -> u64 {
            self.expirations
        }
    }

    fn setup() -> (Arc<ManualClock>, CountdownTimer) {
        let clock = Arc::new(ManualClock::new());
        let timer = CountdownTimer::new(Arc::clone(&clock));
        (clock, timer)
    }

    #[test]
    fn oneshot_fires_once() {
        let (clock, mut timer) = setup();
        timer.arm_oneshot(Nanoseconds::from_millis(10));
        assert!(timer.is_armed());
        assert_eq!(timer.tick(), 0);
        clock.advance(Nanoseconds::from_millis(9));
        assert_eq!(timer.tick(), 0);
        clock.advance(Nanoseconds::from_millis(1));
        assert_eq!(timer.tick(), 1);
        assert_eq!(timer.read(REG_COUNT, 8), 1);
        assert!(!timer.is_armed());
        clock.advance(Nanoseconds::from_millis(100));
        assert_eq!(timer.tick(), 0);
        assert_eq!(timer.expirations(), 1);
    }

    #[test]
    fn periodic_fires_for_every_elapsed_period() {
        let (clock, mut timer) = setup();
        timer.arm_periodic(Nanoseconds::from_millis(2));
        clock.advance(Nanoseconds::from_millis(7));
        // Deadlines at 2, 4, 6 ms have passed.
        assert_eq!(timer.tick(), 3);
        assert!(timer.is_armed());
        clock.advance(Nanoseconds::from_millis(1));
        assert_eq!(timer.tick(), 1); // 8 ms deadline
        assert_eq!(timer.expirations(), 4);
    }

    #[test]
    fn cancel_disarms() {
        let (clock, mut timer) = setup();
        timer.arm_oneshot(Nanoseconds::from_millis(1));
        timer.cancel();
        clock.advance(Nanoseconds::from_millis(5));
        assert_eq!(timer.tick(), 0);
        assert_eq!(timer.read(REG_COUNT, 8), 0);
    }

    #[test]
    fn mmio_interface() {
        let (clock, mut timer) = setup();
        timer.write(REG_ONESHOT, 1_000_000, 8);
        assert_eq!(timer.read(REG_ONESHOT, 8), 1_000_000);
        clock.advance(Nanoseconds::from_micros(400));
        assert_eq!(timer.read(REG_ONESHOT, 8), 600_000);
        timer.write(REG_PERIODIC, 500_000, 8);
        assert_eq!(timer.read(REG_PERIODIC, 8), 500_000);
        timer.write(REG_COUNT, 0, 8);
        assert_eq!(timer.read(REG_ONESHOT, 8), 0);
        clock.advance(Nanoseconds::from_secs(1));
        assert_eq!(timer.tick(), 0);
        assert_eq!(timer.read(REG_COUNT, 8), 0);
        assert_eq!(timer.read(99, 8), 0);
        assert_eq!(timer.name(), "timer");
    }
}
