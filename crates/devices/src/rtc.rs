//! A trivial real-time clock device.
//!
//! Exposes the simulated clock to the guest as two MMIO registers:
//!
//! | offset | meaning                                   |
//! |--------|-------------------------------------------|
//! | 0      | current time, low 32 bits of nanoseconds  |
//! | 8      | current time, full 64-bit nanoseconds     |
//! | 16     | boot time (when the device was created)   |

use std::sync::Arc;

use rvisor_types::{ManualClock, Nanoseconds, SimClock};

use crate::bus::MmioDevice;

/// Register offset: low 32 bits of the current simulated time.
const REG_TIME_LO: u64 = 0;
/// Register offset: full 64-bit simulated time in nanoseconds.
const REG_TIME: u64 = 8;
/// Register offset: the boot timestamp.
const REG_BOOT_TIME: u64 = 16;

/// The RTC device.
#[derive(Debug)]
pub struct Rtc {
    clock: Arc<ManualClock>,
    boot_time: Nanoseconds,
    reads: u64,
}

impl Rtc {
    /// Create an RTC reading from `clock`; the boot time is captured now.
    pub fn new(clock: Arc<ManualClock>) -> Self {
        let boot_time = clock.now();
        Rtc {
            clock,
            boot_time,
            reads: 0,
        }
    }
}

impl MmioDevice for Rtc {
    fn name(&self) -> &str {
        "rtc"
    }

    fn read(&mut self, offset: u64, _size: u8) -> u64 {
        self.reads += 1;
        match offset {
            REG_TIME_LO => self.clock.now().as_nanos() & 0xffff_ffff,
            REG_TIME => self.clock.now().as_nanos(),
            REG_BOOT_TIME => self.boot_time.as_nanos(),
            _ => 0,
        }
    }

    fn write(&mut self, _offset: u64, _value: u64, _size: u8) {
        // The RTC is read-only; guests cannot set the host clock.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Rtc {
        /// The boot timestamp.
        fn boot_time(&self) -> Nanoseconds {
            self.boot_time
        }

        /// Number of guest reads served.
        fn read_count(&self) -> u64 {
            self.reads
        }
    }

    #[test]
    fn reports_simulated_time() {
        let clock = Arc::new(ManualClock::new());
        clock.advance(Nanoseconds::from_secs(5));
        let mut rtc = Rtc::new(Arc::clone(&clock));
        assert_eq!(rtc.boot_time(), Nanoseconds::from_secs(5));
        clock.advance(Nanoseconds::from_millis(1));
        assert_eq!(rtc.read(REG_TIME, 8), 5_001_000_000);
        assert_eq!(rtc.read(REG_BOOT_TIME, 8), 5_000_000_000);
        assert_eq!(rtc.read(REG_TIME_LO, 8), 5_001_000_000 & 0xffff_ffff);
        assert_eq!(rtc.read(99, 8), 0);
        assert_eq!(rtc.read_count(), 4);
    }

    #[test]
    fn writes_are_ignored() {
        let clock = Arc::new(ManualClock::new());
        let mut rtc = Rtc::new(Arc::clone(&clock));
        rtc.write(REG_TIME, 123, 8);
        assert_eq!(rtc.read(REG_TIME, 8), 0);
        assert_eq!(rtc.name(), "rtc");
    }
}
