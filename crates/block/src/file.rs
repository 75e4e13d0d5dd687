//! A host-file-backed block device.
//!
//! Used by the examples that want disk contents to survive the process, and
//! by the provisioning experiment to measure full-image copies against real
//! file I/O. The file is created sparse and extended to the requested size.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use rvisor_types::{ByteSize, Error, Result};

use crate::backend::{validate_request, BlockBackend, BlockStats, SECTOR_SIZE};

/// A block device stored in a host file.
#[derive(Debug)]
pub(crate) struct FileDisk {
    file: File,
    path: PathBuf,
    capacity_sectors: u64,
    stats: BlockStats,
}

impl FileDisk {
    /// Create (or truncate) a disk image at `path` of `size` bytes.
    pub(crate) fn create(path: impl AsRef<Path>, size: ByteSize) -> Result<Self> {
        let sectors = size.as_u64().div_ceil(SECTOR_SIZE);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        file.set_len(sectors * SECTOR_SIZE)?;
        Ok(FileDisk {
            file,
            path: path.as_ref().to_path_buf(),
            capacity_sectors: sectors,
            stats: BlockStats::default(),
        })
    }

    /// Open an existing disk image.
    pub(crate) fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path.as_ref())?;
        let len = file.metadata()?.len();
        if len % SECTOR_SIZE != 0 {
            return Err(Error::Block(format!(
                "image {} has length {len}, not a multiple of the sector size",
                path.as_ref().display()
            )));
        }
        Ok(FileDisk {
            file,
            path: path.as_ref().to_path_buf(),
            capacity_sectors: len / SECTOR_SIZE,
            stats: BlockStats::default(),
        })
    }

    /// The path of the backing file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

impl BlockBackend for FileDisk {
    fn capacity_sectors(&self) -> u64 {
        self.capacity_sectors
    }

    fn read_sectors(&mut self, sector: u64, buf: &mut [u8]) -> Result<()> {
        validate_request(self.capacity_sectors, sector, buf.len())?;
        self.file.seek(SeekFrom::Start(sector * SECTOR_SIZE))?;
        self.file.read_exact(buf)?;
        self.stats.record_read(buf.len() as u64);
        Ok(())
    }

    fn write_sectors(&mut self, sector: u64, buf: &[u8]) -> Result<()> {
        validate_request(self.capacity_sectors, sector, buf.len())?;
        self.file.seek(SeekFrom::Start(sector * SECTOR_SIZE))?;
        self.file.write_all(buf)?;
        self.stats.record_write(buf.len() as u64);
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.file.sync_data()?;
        self.stats.record_flush();
        Ok(())
    }

    fn stats(&self) -> BlockStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rvisor-filedisk-{}-{name}.img", std::process::id()));
        p
    }

    #[test]
    fn create_write_reopen_read() {
        let path = temp_path("roundtrip");
        {
            let mut disk = FileDisk::create(&path, ByteSize::kib(8)).unwrap();
            assert_eq!(disk.capacity_sectors(), 16);
            disk.write_sectors(3, &vec![0x7fu8; 512]).unwrap();
            disk.flush().unwrap();
            assert_eq!(disk.path(), path.as_path());
        }
        {
            let mut disk = FileDisk::open(&path).unwrap();
            let mut buf = vec![0u8; 512];
            disk.read_sectors(3, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 0x7f));
            // Untouched sectors read back as zero.
            disk.read_sectors(0, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 0));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_missing_file_fails() {
        assert!(FileDisk::open("/nonexistent/rvisor-disk.img").is_err());
    }

    #[test]
    fn open_misaligned_file_fails() {
        let path = temp_path("misaligned");
        std::fs::write(&path, vec![0u8; 700]).unwrap();
        assert!(FileDisk::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bounds_enforced() {
        let path = temp_path("bounds");
        let mut disk = FileDisk::create(&path, ByteSize::kib(1)).unwrap();
        assert!(disk.write_sectors(2, &[0u8; 512]).is_err());
        assert!(disk.read_sectors(0, &mut [0u8; 513]).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
