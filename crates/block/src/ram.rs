//! An in-memory block device.

use rvisor_types::{ByteSize, Result};

use crate::backend::{validate_request, BlockBackend, BlockStats, SECTOR_SIZE};

/// A RAM-backed disk. Fast, deterministic, and the default backend in tests
/// and benchmarks.
#[derive(Debug, Clone)]
pub struct RamDisk {
    data: Vec<u8>,
    stats: BlockStats,
    read_only: bool,
}

impl RamDisk {
    /// Create a zero-filled disk of `size` (rounded up to whole sectors).
    pub fn new(size: ByteSize) -> Self {
        let sectors = size.as_u64().div_ceil(SECTOR_SIZE);
        RamDisk {
            data: vec![0u8; (sectors * SECTOR_SIZE) as usize],
            stats: BlockStats::default(),
            read_only: false,
        }
    }

    /// Create a disk initialised with `data` (padded to whole sectors).
    pub(crate) fn from_data(mut data: Vec<u8>) -> Self {
        let sectors = (data.len() as u64).div_ceil(SECTOR_SIZE).max(1);
        data.resize((sectors * SECTOR_SIZE) as usize, 0);
        RamDisk {
            data,
            stats: BlockStats::default(),
            read_only: false,
        }
    }

    /// Mark the disk read-only (e.g. a golden template image).
    pub fn set_read_only(&mut self, ro: bool) {
        self.read_only = ro;
    }

    /// Read like [`BlockBackend::read_sectors`] without counting the read,
    /// so a template shared by many clones is read through `&self`.
    pub(crate) fn read_at(&self, sector: u64, buf: &mut [u8]) -> Result<()> {
        validate_request(self.capacity_sectors(), sector, buf.len())?;
        let off = (sector * SECTOR_SIZE) as usize;
        buf.copy_from_slice(&self.data[off..off + buf.len()]);
        Ok(())
    }
}

impl BlockBackend for RamDisk {
    fn capacity_sectors(&self) -> u64 {
        self.data.len() as u64 / SECTOR_SIZE
    }

    fn read_sectors(&mut self, sector: u64, buf: &mut [u8]) -> Result<()> {
        self.read_at(sector, buf)?;
        self.stats.record_read(buf.len() as u64);
        Ok(())
    }

    fn write_sectors(&mut self, sector: u64, buf: &[u8]) -> Result<()> {
        validate_request(self.capacity_sectors(), sector, buf.len())?;
        if self.read_only {
            return Err(rvisor_types::Error::Block("write to read-only disk".into()));
        }
        let off = (sector * SECTOR_SIZE) as usize;
        self.data[off..off + buf.len()].copy_from_slice(buf);
        self.stats.record_write(buf.len() as u64);
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.stats.record_flush();
        Ok(())
    }

    fn stats(&self) -> BlockStats {
        self.stats
    }

    fn is_read_only(&self) -> bool {
        self.read_only
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_and_capacity() {
        let mut disk = RamDisk::new(ByteSize::kib(4));
        assert_eq!(disk.capacity_sectors(), 8);
        assert_eq!(disk.capacity_bytes(), 4096);

        let pattern = vec![0xabu8; 1024];
        disk.write_sectors(2, &pattern).unwrap();
        let mut back = vec![0u8; 1024];
        disk.read_sectors(2, &mut back).unwrap();
        assert_eq!(back, pattern);
        disk.flush().unwrap();

        let s = disk.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_written, 1024);
        assert_eq!(s.flushes, 1);
    }

    #[test]
    fn bounds_and_alignment_enforced() {
        let mut disk = RamDisk::new(ByteSize::kib(1));
        let mut buf = vec![0u8; 512];
        assert!(disk.read_sectors(2, &mut buf).is_err());
        assert!(disk.read_sectors(0, &mut [0u8; 100]).is_err());
        assert!(disk.write_sectors(1, &[0u8; 1024]).is_err());
    }

    #[test]
    fn size_rounds_up_to_sectors() {
        let disk = RamDisk::new(ByteSize::new(513));
        assert_eq!(disk.capacity_sectors(), 2);
        let mut disk = RamDisk::from_data(vec![1, 2, 3]);
        assert_eq!(disk.capacity_sectors(), 1);
        let mut sector = [0xffu8; 512];
        disk.read_sectors(0, &mut sector).unwrap();
        assert_eq!(&sector[..4], &[1, 2, 3, 0]);
    }

    #[test]
    fn read_only_rejects_writes() {
        let mut disk = RamDisk::new(ByteSize::kib(1));
        disk.set_read_only(true);
        assert!(disk.is_read_only());
        assert!(disk.write_sectors(0, &[0u8; 512]).is_err());
        let mut buf = vec![0u8; 512];
        assert!(disk.read_sectors(0, &mut buf).is_ok());
    }

    proptest! {
        #[test]
        fn random_sector_writes_read_back(
            ops in proptest::collection::vec((0u64..64, any::<u8>()), 1..50)
        ) {
            let mut disk = RamDisk::new(ByteSize::new(64 * SECTOR_SIZE));
            let mut reference = std::collections::HashMap::new();
            for (sector, fill) in ops {
                let buf = vec![fill; SECTOR_SIZE as usize];
                disk.write_sectors(sector, &buf).unwrap();
                reference.insert(sector, fill);
            }
            for (sector, fill) in reference {
                let mut buf = vec![0u8; SECTOR_SIZE as usize];
                disk.read_sectors(sector, &mut buf).unwrap();
                prop_assert!(buf.iter().all(|&b| b == fill));
            }
        }
    }
}
