//! The block-backend trait and shared I/O statistics.

use serde::{Deserialize, Serialize};

use rvisor_types::{Error, Result};

/// Sector size in bytes. Everything in the block layer is sector-addressed.
pub const SECTOR_SIZE: u64 = 512;

/// Cumulative I/O counters kept by every backend.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct BlockStats {
    /// Completed read requests.
    pub(crate) reads: u64,
    /// Completed write requests.
    pub(crate) writes: u64,
    /// Bytes read.
    pub(crate) bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Flush requests.
    pub(crate) flushes: u64,
}

impl BlockStats {
    /// Record a read of `bytes`.
    pub(crate) fn record_read(&mut self, bytes: u64) {
        self.reads += 1;
        self.bytes_read += bytes;
    }

    /// Record a write of `bytes`.
    pub(crate) fn record_write(&mut self, bytes: u64) {
        self.writes += 1;
        self.bytes_written += bytes;
    }

    /// Record a flush.
    pub(crate) fn record_flush(&mut self) {
        self.flushes += 1;
    }
}

/// A sector-addressed block device backend.
///
/// Requests must be whole sectors; the device models (virtio-blk, the
/// emulated programmed-I/O disk) are responsible for assembling guest
/// requests into sector-aligned operations.
pub trait BlockBackend: Send {
    /// Capacity in sectors.
    fn capacity_sectors(&self) -> u64;

    /// Read `buf.len()` bytes (a whole number of sectors) starting at `sector`.
    ///
    /// **Contract:** on `Ok`, every byte of `buf` has been overwritten —
    /// sparse or hole-punching implementations must explicitly zero-fill
    /// unmapped ranges rather than skip them. Device models rely on this to
    /// reuse bounce buffers without re-zeroing between requests (virtio-blk
    /// does); a backend that leaves bytes untouched on success would leak a
    /// previous request's payload into the guest.
    fn read_sectors(&mut self, sector: u64, buf: &mut [u8]) -> Result<()>;

    /// Write `buf` (a whole number of sectors) starting at `sector`.
    fn write_sectors(&mut self, sector: u64, buf: &[u8]) -> Result<()>;

    /// Persist outstanding writes.
    fn flush(&mut self) -> Result<()>;

    /// I/O counters.
    fn stats(&self) -> BlockStats;

    /// Whether the backend rejects writes.
    fn is_read_only(&self) -> bool {
        false
    }

    /// Capacity in bytes.
    fn capacity_bytes(&self) -> u64 {
        self.capacity_sectors() * SECTOR_SIZE
    }
}

/// Validate that a request is sector-aligned and inside the device.
///
/// Shared by every backend implementation so they all reject malformed
/// requests identically.
pub(crate) fn validate_request(capacity_sectors: u64, sector: u64, len: usize) -> Result<()> {
    if len == 0 || !(len as u64).is_multiple_of(SECTOR_SIZE) {
        return Err(Error::Block(format!(
            "request length {len} is not a positive multiple of the sector size"
        )));
    }
    let sectors = len as u64 / SECTOR_SIZE;
    match sector.checked_add(sectors) {
        Some(end) if end <= capacity_sectors => Ok(()),
        _ => Err(Error::Block(format!(
            "request for {sectors} sectors at sector {sector} exceeds capacity {capacity_sectors}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate() {
        let mut s = BlockStats::default();
        s.record_read(512);
        s.record_read(1024);
        s.record_write(2048);
        s.record_flush();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_read, 1536);
        assert_eq!(s.bytes_written, 2048);
        assert_eq!(s.flushes, 1);
    }

    #[test]
    fn request_validation() {
        assert!(validate_request(100, 0, 512).is_ok());
        assert!(validate_request(100, 99, 512).is_ok());
        assert!(validate_request(100, 0, 100 * 512).is_ok());
        assert!(validate_request(100, 100, 512).is_err());
        assert!(validate_request(100, 99, 1024).is_err());
        assert!(validate_request(100, 0, 0).is_err());
        assert!(validate_request(100, 0, 100).is_err());
        assert!(validate_request(100, u64::MAX, 512).is_err());
    }
}
