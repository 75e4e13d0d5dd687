//! A trivial real-time clock device.
//!
//! Exposes the VM's simulated time to the guest as MMIO registers. The
//! device holds no state: the VMM passes `now` to every read, and the guest
//! boots at time zero of its VM's timeline.
//!
//! | offset | meaning                                   |
//! |--------|-------------------------------------------|
//! | 0      | current time, low 32 bits of nanoseconds  |
//! | 8      | current time, full 64-bit nanoseconds     |
//! | 16     | boot time (always 0)                      |

use rvisor_types::Nanoseconds;

/// Register offset: low 32 bits of the current simulated time.
const REG_TIME_LO: u64 = 0;
/// Register offset: full 64-bit simulated time in nanoseconds.
const REG_TIME: u64 = 8;
/// Register offset: the boot timestamp.
const REG_BOOT_TIME: u64 = 16;

/// The RTC device.
#[derive(Debug, Default)]
pub struct Rtc;

impl Rtc {
    /// The register at `offset` when the VM's time is `now`.
    pub fn read(&self, offset: u64, now: Nanoseconds) -> u64 {
        match offset {
            REG_TIME_LO => now.as_nanos() & 0xffff_ffff,
            REG_TIME => now.as_nanos(),
            REG_BOOT_TIME => 0,
            _ => 0,
        }
    }

    /// Guests cannot set the host clock: every write is ignored.
    pub fn write(&mut self, _offset: u64, _value: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_simulated_time() {
        let rtc = Rtc;
        let now = Nanoseconds::from_millis(5_001);
        assert_eq!(rtc.read(REG_TIME, now), 5_001_000_000);
        assert_eq!(rtc.read(REG_BOOT_TIME, now), 0);
        assert_eq!(rtc.read(REG_TIME_LO, now), 5_001_000_000 & 0xffff_ffff);
        assert_eq!(rtc.read(99, now), 0);
    }

    #[test]
    fn writes_are_ignored() {
        let mut rtc = Rtc;
        rtc.write(REG_TIME, 123);
        assert_eq!(rtc.read(REG_TIME, Nanoseconds::ZERO), 0);
    }
}
