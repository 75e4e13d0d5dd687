//! A fully-emulated programmed-I/O disk — the baseline virtio-blk is compared
//! against in experiment E2.
//!
//! The device mimics the structure of an IDE/ATA disk driven in PIO mode:
//! the guest selects a sector, issues a command, and then moves the sector's
//! 512 bytes through a single 8-byte data window, one register access at a
//! time. Every one of those register accesses is an MMIO exit, which is why
//! this device is slow under virtualization no matter how fast the backing
//! storage is — exactly the effect the experiment demonstrates.
//!
//! Register map (8-byte registers):
//!
//! | offset | name    | meaning                                             |
//! |--------|---------|-----------------------------------------------------|
//! | 0x00   | SECTOR  | sector number for the next command                  |
//! | 0x08   | COMMAND | 1 = load sector into buffer, 2 = store buffer, 3 = flush |
//! | 0x10   | DATA    | 8-byte sliding window over the 512-byte buffer      |
//! | 0x18   | STATUS  | 0 = OK, 1 = error                                   |
//! | 0x20   | PTR     | read: window offset; write: set window offset       |

use rvisor_block::{BlockBackend, SECTOR_SIZE};

/// Register offset: sector select.
const REG_SECTOR: u64 = 0x00;
/// Register offset: command.
const REG_COMMAND: u64 = 0x08;
/// Register offset: data window.
const REG_DATA: u64 = 0x10;
/// Register offset: buffer pointer.
const REG_PTR: u64 = 0x20;

/// Command: load the selected sector into the data buffer.
const CMD_READ_SECTOR: u64 = 1;
/// Command: store the data buffer into the selected sector.
const CMD_WRITE_SECTOR: u64 = 2;
/// Command: flush the backend.
const CMD_FLUSH: u64 = 3;

/// Counters for the emulated disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmulatedDiskStats {
    /// Total MMIO register accesses (each one is a VM exit).
    pub register_accesses: u64,
    /// Sectors read from the backend.
    pub(crate) sectors_read: u64,
    /// Sectors written to the backend.
    pub(crate) sectors_written: u64,
    /// Commands that failed.
    pub(crate) errors: u64,
}

/// The emulated programmed-I/O disk.
pub struct EmulatedDisk {
    backend: Box<dyn BlockBackend>,
    sector: u64,
    buffer: [u8; SECTOR_SIZE as usize],
    ptr: usize,
    status: u64,
    stats: EmulatedDiskStats,
}

impl std::fmt::Debug for EmulatedDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmulatedDisk")
            .field("sector", &self.sector)
            .field("status", &self.status)
            .field("stats", &self.stats)
            .finish()
    }
}

impl EmulatedDisk {
    /// Create an emulated disk over `backend`.
    pub fn new(backend: Box<dyn BlockBackend>) -> Self {
        EmulatedDisk {
            backend,
            sector: 0,
            buffer: [0u8; SECTOR_SIZE as usize],
            ptr: 0,
            status: 0,
            stats: EmulatedDiskStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> EmulatedDiskStats {
        self.stats
    }

    fn execute(&mut self, command: u64) {
        let result = match command {
            CMD_READ_SECTOR => {
                self.ptr = 0;
                self.backend
                    .read_sectors(self.sector, &mut self.buffer)
                    .map(|_| {
                        self.stats.sectors_read += 1;
                    })
            }
            CMD_WRITE_SECTOR => {
                self.ptr = 0;
                self.backend
                    .write_sectors(self.sector, &self.buffer)
                    .map(|_| {
                        self.stats.sectors_written += 1;
                    })
            }
            CMD_FLUSH => self.backend.flush(),
            _ => Err(rvisor_types::Error::Device(format!(
                "unknown command {command}"
            ))),
        };
        self.status = match result {
            Ok(()) => 0,
            Err(_) => {
                self.stats.errors += 1;
                1
            }
        };
    }

    /// A register write of `value` at `offset`; every access counts as a
    /// VM exit.
    pub(crate) fn write(&mut self, offset: u64, value: u64) {
        self.stats.register_accesses += 1;
        match offset {
            REG_SECTOR => self.sector = value,
            REG_COMMAND => self.execute(value),
            REG_DATA => {
                let start = self.ptr.min(SECTOR_SIZE as usize - 8);
                self.buffer[start..start + 8].copy_from_slice(&value.to_le_bytes());
                self.ptr = (self.ptr + 8) % SECTOR_SIZE as usize;
            }
            REG_PTR => self.ptr = (value as usize) % SECTOR_SIZE as usize,
            _ => {}
        }
    }
}

/// Drive a full sector write through the register interface (host-side guest
/// driver stand-in, mirroring what a guest driver would do).
pub fn driver_write_sector(
    disk: &mut EmulatedDisk,
    sector: u64,
    data: &[u8; SECTOR_SIZE as usize],
) {
    disk.write(REG_SECTOR, sector);
    disk.write(REG_PTR, 0);
    for chunk in data.chunks_exact(8) {
        disk.write(REG_DATA, u64::from_le_bytes(chunk.try_into().unwrap()));
    }
    disk.write(REG_COMMAND, CMD_WRITE_SECTOR);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvisor_block::RamDisk;
    use rvisor_types::ByteSize;

    /// Register offset: status (0 = OK, 1 = error).
    const REG_STATUS: u64 = 0x18;

    impl EmulatedDisk {
        /// A register read at `offset`; every access counts as a VM exit.
        fn read(&mut self, offset: u64) -> u64 {
            self.stats.register_accesses += 1;
            match offset {
                REG_SECTOR => self.sector,
                REG_DATA => {
                    let start = self.ptr.min(SECTOR_SIZE as usize - 8);
                    let v = u64::from_le_bytes(self.buffer[start..start + 8].try_into().unwrap());
                    self.ptr = (self.ptr + 8) % SECTOR_SIZE as usize;
                    v
                }
                REG_STATUS => self.status,
                REG_PTR => self.ptr as u64,
                _ => 0,
            }
        }

        /// Number of register accesses a full sector transfer costs
        /// (sector select + command + 64 data-window accesses).
        const fn accesses_per_sector() -> u64 {
            2 + SECTOR_SIZE / 8
        }
    }

    /// Drive a full sector read through the register interface.
    fn driver_read_sector(disk: &mut EmulatedDisk, sector: u64) -> [u8; SECTOR_SIZE as usize] {
        disk.write(REG_SECTOR, sector);
        disk.write(REG_COMMAND, CMD_READ_SECTOR);
        let mut out = [0u8; SECTOR_SIZE as usize];
        for chunk in out.chunks_exact_mut(8) {
            chunk.copy_from_slice(&disk.read(REG_DATA).to_le_bytes());
        }
        out
    }

    fn disk() -> EmulatedDisk {
        EmulatedDisk::new(Box::new(RamDisk::new(ByteSize::kib(64))))
    }

    #[test]
    fn sector_roundtrip_through_registers() {
        let mut d = disk();
        let mut data = [0u8; 512];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        driver_write_sector(&mut d, 7, &data);
        let back = driver_read_sector(&mut d, 7);
        assert_eq!(back, data);
        assert_eq!(d.read(REG_STATUS), 0);
        assert_eq!(d.stats().sectors_written, 1);
        assert_eq!(d.stats().sectors_read, 1);
    }

    #[test]
    fn register_access_count_is_per_word() {
        let mut d = disk();
        let data = [0xaau8; 512];
        let before = d.stats().register_accesses;
        driver_write_sector(&mut d, 0, &data);
        let after = d.stats().register_accesses;
        // sector + ptr + 64 data + command = 67 accesses
        assert_eq!(after - before, 67);
        assert!(EmulatedDisk::accesses_per_sector() >= 64);
    }

    #[test]
    fn out_of_range_sector_sets_error_status() {
        let mut d = disk();
        d.write(REG_SECTOR, 1_000_000);
        d.write(REG_COMMAND, CMD_READ_SECTOR);
        assert_eq!(d.read(REG_STATUS), 1);
        assert_eq!(d.stats().errors, 1);
        // A valid command clears the error.
        d.write(REG_SECTOR, 0);
        d.write(REG_COMMAND, CMD_READ_SECTOR);
        assert_eq!(d.read(REG_STATUS), 0);
    }

    #[test]
    fn flush_and_unknown_commands() {
        let mut d = disk();
        d.write(REG_COMMAND, CMD_FLUSH);
        assert_eq!(d.read(REG_STATUS), 0);
        d.write(REG_COMMAND, 99);
        assert_eq!(d.read(REG_STATUS), 1);
        assert!(format!("{d:?}").contains("sector"));
    }

    #[test]
    fn pointer_register_and_wraparound() {
        let mut d = disk();
        d.write(REG_PTR, 504);
        assert_eq!(d.read(REG_PTR), 504);
        d.write(REG_DATA, 0x1122334455667788);
        assert_eq!(d.read(REG_PTR), 0); // wrapped
        d.write(REG_PTR, 1000); // modulo 512
        assert_eq!(d.read(REG_PTR), 1000 % 512);
        // Unknown register reads as zero, writes ignored.
        assert_eq!(d.read(0x100), 0);
        d.write(0x100, 5);
    }
}
