//! The guest physical memory map.
//!
//! rvisor uses a fixed, simple layout, like Firecracker's microVM machine
//! model: RAM starts at address zero and device MMIO windows live far above
//! it, so the two can never collide for any supported RAM size.

use rvisor_types::GuestAddress;

/// Largest supported RAM size (the MMIO hole starts here).
pub(crate) const RAM_MAX: u64 = 0x4000_0000; // 1 GiB

/// Serial console MMIO base.
pub(crate) const SERIAL_MMIO: GuestAddress = GuestAddress(0x4000_0000);
/// Real-time clock MMIO base.
pub const RTC_MMIO: GuestAddress = GuestAddress(0x4000_1000);
/// Countdown timer MMIO base.
pub(crate) const TIMER_MMIO: GuestAddress = GuestAddress(0x4000_2000);
/// virtio-blk transport base.
pub(crate) const VIRTIO_BLK_MMIO: GuestAddress = GuestAddress(0x4001_0000);
/// virtio-net transport base.
pub(crate) const VIRTIO_NET_MMIO: GuestAddress = GuestAddress(0x4002_0000);
/// Size of each device's MMIO window.
pub(crate) const MMIO_WINDOW: u64 = 0x1000;

/// Serial console port-I/O base (the classic COM1 address).
pub const SERIAL_PORT: u32 = 0x3f8;
/// Number of serial console ports, from [`SERIAL_PORT`] up.
pub(crate) const SERIAL_PORTS: u32 = 8;

/// The base of the `MMIO_WINDOW`-aligned window holding `addr`, and the
/// offset of `addr` into it. The VM matches the base against the device
/// windows above.
pub(crate) fn window_of(addr: GuestAddress) -> (GuestAddress, u64) {
    let offset = addr.0 % MMIO_WINDOW;
    (GuestAddress(addr.0 - offset), offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_windows_are_above_ram_and_disjoint() {
        let windows = [
            SERIAL_MMIO,
            RTC_MMIO,
            TIMER_MMIO,
            VIRTIO_BLK_MMIO,
            VIRTIO_NET_MMIO,
        ];
        for w in windows {
            assert!(w.0 >= RAM_MAX, "window {w} overlaps RAM");
        }
        for (i, a) in windows.iter().enumerate() {
            for b in windows.iter().skip(i + 1) {
                assert!(
                    a.0 + MMIO_WINDOW <= b.0 || b.0 + MMIO_WINDOW <= a.0,
                    "windows {a} and {b} overlap"
                );
            }
        }
    }
}
