//! A one-shot / periodic countdown timer.
//!
//! The guest programs a deadline; when the VM's simulated time passes it
//! the timer counts an expiration, which the guest reads in its count
//! register (offset 16). The device holds no clock: the VMM passes `now` to
//! every access and calls [`CountdownTimer::tick`] whenever it advances its
//! time (after every vCPU run), which is how the device observes time.
//!
//! Register layout:
//!
//! | offset | read                 | write                                 |
//! |--------|----------------------|---------------------------------------|
//! | 0      | remaining ns         | arm one-shot: fire in `value` ns      |
//! | 8      | period ns (0 = off)  | arm periodic: fire every `value` ns   |
//! | 16     | expirations so far   | any write cancels the timer           |

use rvisor_types::Nanoseconds;

/// Register offset: one-shot arm / remaining time.
const REG_ONESHOT: u64 = 0;
/// Register offset: periodic arm / current period.
const REG_PERIODIC: u64 = 8;
/// Register offset: expiration count / cancel.
const REG_COUNT: u64 = 16;

/// The countdown timer device.
#[derive(Debug, Default)]
pub struct CountdownTimer {
    deadline: Option<Nanoseconds>,
    period: Option<Nanoseconds>,
    expirations: u64,
}

impl CountdownTimer {
    /// Arm a one-shot expiry `delay` after `now`.
    fn arm_oneshot(&mut self, delay: Nanoseconds, now: Nanoseconds) {
        self.deadline = Some(now.saturating_add(delay));
        self.period = None;
    }

    /// Arm a periodic expiry every `period`, the first one `period` after `now`.
    fn arm_periodic(&mut self, period: Nanoseconds, now: Nanoseconds) {
        self.deadline = Some(now.saturating_add(period));
        self.period = Some(period);
    }

    /// Disarm the timer.
    fn cancel(&mut self) {
        self.deadline = None;
        self.period = None;
    }

    /// Check for expiry at simulated time `now`, counting an expiration for
    /// every deadline that has passed. Returns the number of expirations
    /// observed by this call.
    pub fn tick(&mut self, now: Nanoseconds) -> u64 {
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

    /// A guest read of the register at `offset` at simulated time `now`.
    pub fn read(&self, offset: u64, now: Nanoseconds) -> u64 {
        match offset {
            REG_ONESHOT => match self.deadline {
                Some(d) => d.saturating_sub(now).as_nanos(),
                None => 0,
            },
            REG_PERIODIC => self.period.map(|p| p.as_nanos()).unwrap_or(0),
            REG_COUNT => self.expirations,
            _ => 0,
        }
    }

    /// A guest write of `value` to the register at `offset` at simulated
    /// time `now`.
    pub fn write(&mut self, offset: u64, value: u64, now: Nanoseconds) {
        match offset {
            REG_ONESHOT => self.arm_oneshot(Nanoseconds(value), now),
            REG_PERIODIC => self.arm_periodic(Nanoseconds(value), now),
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

    fn ms(ms: u64) -> Nanoseconds {
        Nanoseconds::from_millis(ms)
    }

    #[test]
    fn oneshot_fires_once() {
        let mut timer = CountdownTimer::default();
        timer.arm_oneshot(ms(10), Nanoseconds::ZERO);
        assert!(timer.is_armed());
        assert_eq!(timer.tick(Nanoseconds::ZERO), 0);
        assert_eq!(timer.tick(ms(9)), 0);
        assert_eq!(timer.tick(ms(10)), 1);
        assert_eq!(timer.read(REG_COUNT, ms(10)), 1);
        assert!(!timer.is_armed());
        assert_eq!(timer.tick(ms(110)), 0);
        assert_eq!(timer.expirations(), 1);
    }

    #[test]
    fn periodic_fires_for_every_elapsed_period() {
        let mut timer = CountdownTimer::default();
        timer.arm_periodic(ms(2), Nanoseconds::ZERO);
        // Deadlines at 2, 4, 6 ms have passed.
        assert_eq!(timer.tick(ms(7)), 3);
        assert!(timer.is_armed());
        assert_eq!(timer.tick(ms(8)), 1); // 8 ms deadline
        assert_eq!(timer.expirations(), 4);
    }

    #[test]
    fn cancel_disarms() {
        let mut timer = CountdownTimer::default();
        timer.arm_oneshot(ms(1), Nanoseconds::ZERO);
        timer.cancel();
        assert_eq!(timer.tick(ms(5)), 0);
        assert_eq!(timer.read(REG_COUNT, ms(5)), 0);
    }

    #[test]
    fn mmio_interface() {
        let mut timer = CountdownTimer::default();
        let armed_at = ms(3);
        timer.write(REG_ONESHOT, 1_000_000, armed_at);
        assert_eq!(timer.read(REG_ONESHOT, armed_at), 1_000_000);
        let later = armed_at + Nanoseconds::from_micros(400);
        assert_eq!(timer.read(REG_ONESHOT, later), 600_000);
        timer.write(REG_PERIODIC, 500_000, later);
        assert_eq!(timer.read(REG_PERIODIC, later), 500_000);
        timer.write(REG_COUNT, 0, later);
        assert_eq!(timer.read(REG_ONESHOT, later), 0);
        let much_later = later + Nanoseconds::from_secs(1);
        assert_eq!(timer.tick(much_later), 0);
        assert_eq!(timer.read(REG_COUNT, much_later), 0);
        assert_eq!(timer.read(99, much_later), 0);
    }
}
