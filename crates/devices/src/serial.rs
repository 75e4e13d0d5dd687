//! A 16550-inspired serial console.
//!
//! The serial console is the guest's stdout in every example and test: the
//! guest writes bytes to the data register (via port I/O or MMIO; the VM
//! routes both to the same registers) and the VMM collects them;
//! host-injected input bytes are queued, and the line-status register's
//! rx-ready bit (bit 0) tells a polling guest that there is a byte to read.
//!
//! Register layout (offsets from the device base, one register per offset):
//!
//! | offset | read                      | write              |
//! |--------|---------------------------|--------------------|
//! | 0      | receive data              | transmit data      |
//! | 1      | line status (bit0 = rx ready, bit1 = tx empty) | — |

use std::collections::VecDeque;

/// Data register offset.
const REG_DATA: u64 = 0;
/// Line-status register offset.
const REG_STATUS: u64 = 1;
/// Status bit: receive data available.
const STATUS_RX_READY: u64 = 1 << 0;
/// Status bit: transmitter idle (always set — writes never block).
const STATUS_TX_EMPTY: u64 = 1 << 1;

/// A serial console device, created with no output and no input queued.
#[derive(Debug, Default)]
pub struct SerialConsole {
    output: Vec<u8>,
    input: VecDeque<u8>,
    rx_bytes: u64,
}

impl SerialConsole {
    /// The guest's output interpreted as UTF-8 (lossy).
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }

    /// Append one byte to the guest-visible output stream.
    ///
    /// Used by the VMM's console hypercall, which bypasses the register
    /// interface (that is the whole point of a paravirtual console).
    pub fn put_output_byte(&mut self, byte: u8) {
        self.output.push(byte);
    }

    /// Queue host-side input for the guest; the line status reads rx ready
    /// until the guest has read it all.
    pub fn inject_input(&mut self, bytes: &[u8]) {
        self.input.extend(bytes.iter().copied());
    }

    /// A guest read of the register at `offset`.
    pub fn read(&mut self, offset: u64) -> u64 {
        match offset {
            REG_DATA => match self.input.pop_front() {
                Some(b) => {
                    self.rx_bytes += 1;
                    b as u64
                }
                None => 0,
            },
            REG_STATUS => {
                let mut status = STATUS_TX_EMPTY;
                if !self.input.is_empty() {
                    status |= STATUS_RX_READY;
                }
                status
            }
            _ => 0,
        }
    }

    /// A guest write of `value` to the register at `offset`.
    pub fn write(&mut self, offset: u64, value: u64) {
        if offset == REG_DATA {
            self.output.push(value as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SerialConsole {
        /// Drain and return the accumulated guest output.
        fn take_output(&mut self) -> Vec<u8> {
            std::mem::take(&mut self.output)
        }

        /// Number of bytes the guest has read.
        fn rx_count(&self) -> u64 {
            self.rx_bytes
        }
    }

    #[test]
    fn guest_output_is_collected() {
        let mut serial = SerialConsole::default();
        for b in b"hello" {
            serial.write(REG_DATA, *b as u64);
        }
        assert_eq!(serial.output_string(), "hello");
        assert_eq!(serial.take_output(), b"hello");
        assert!(serial.output_string().is_empty());
    }

    #[test]
    fn status_register_reflects_input_queue() {
        let mut serial = SerialConsole::default();
        assert_eq!(serial.read(REG_STATUS) & STATUS_RX_READY, 0);
        assert_ne!(serial.read(REG_STATUS) & STATUS_TX_EMPTY, 0);
        serial.inject_input(b"x");
        assert_ne!(serial.read(REG_STATUS) & STATUS_RX_READY, 0);
        assert_eq!(serial.read(REG_DATA), b'x' as u64);
        assert_eq!(serial.read(REG_STATUS) & STATUS_RX_READY, 0);
        // Reading with nothing queued yields zero rather than blocking.
        assert_eq!(serial.read(REG_DATA), 0);
        assert_eq!(serial.rx_count(), 1);
    }

    #[test]
    fn input_sets_rx_ready() {
        let mut serial = SerialConsole::default();
        serial.inject_input(b"");
        assert_eq!(serial.read(REG_STATUS) & STATUS_RX_READY, 0);
        serial.inject_input(b"hi");
        assert_ne!(serial.read(REG_STATUS) & STATUS_RX_READY, 0);
        serial.read(REG_DATA);
        assert_ne!(serial.read(REG_STATUS) & STATUS_RX_READY, 0);
    }

    #[test]
    fn port_interface_matches_mmio() {
        // The VM hands a port access the same offset (port - base) and
        // truncates the value to the 32 bits an `in` returns.
        let mut serial = SerialConsole::default();
        serial.write(REG_DATA, u64::from(b'A') | 0xffff_ff00);
        serial.inject_input(b"B");
        assert_eq!(serial.read(REG_DATA) as u32, u32::from(b'B'));
        assert_eq!(serial.output_string(), "A");
    }

    #[test]
    fn unknown_register_reads_zero_and_ignores_writes() {
        let mut serial = SerialConsole::default();
        assert_eq!(serial.read(7), 0);
        serial.write(7, 123);
        assert!(serial.output_string().is_empty());
    }
}
