//! Copy-on-write overlays.
//!
//! A `CowOverlay` presents a writable disk whose unmodified sectors are
//! served from a shared, read-only *base* image (a template [`RamDisk`],
//! read through `&self`, so any number of overlays share it without a
//! lock); written sectors are stored in a private overlay map. This is the
//! mechanism behind instant VM provisioning from golden templates
//! (experiment E9): the clone costs O(1) instead of O(image size).

use std::collections::BTreeMap;
use std::sync::Arc;

use rvisor_types::Result;

use crate::backend::{validate_request, BlockBackend, BlockStats, SECTOR_SIZE};
use crate::ram::RamDisk;

/// A copy-on-write overlay over a shared read-only base image.
pub(crate) struct CowOverlay {
    base: Arc<RamDisk>,
    overlay: BTreeMap<u64, Box<[u8]>>,
    capacity_sectors: u64,
    stats: BlockStats,
}

impl std::fmt::Debug for CowOverlay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CowOverlay")
            .field("capacity_sectors", &self.capacity_sectors)
            .field("overlay_sectors", &self.overlay.len())
            .finish()
    }
}

impl CowOverlay {
    /// Create an overlay on top of `base`. The overlay inherits the base's capacity.
    pub(crate) fn new(base: Arc<RamDisk>) -> Self {
        let capacity_sectors = base.capacity_sectors();
        CowOverlay {
            base,
            overlay: BTreeMap::new(),
            capacity_sectors,
            stats: BlockStats::default(),
        }
    }
}

impl BlockBackend for CowOverlay {
    fn capacity_sectors(&self) -> u64 {
        self.capacity_sectors
    }

    fn read_sectors(&mut self, sector: u64, buf: &mut [u8]) -> Result<()> {
        validate_request(self.capacity_sectors, sector, buf.len())?;
        let sectors = buf.len() as u64 / SECTOR_SIZE;
        for i in 0..sectors {
            let s = sector + i;
            let chunk = &mut buf[(i * SECTOR_SIZE) as usize..((i + 1) * SECTOR_SIZE) as usize];
            if let Some(data) = self.overlay.get(&s) {
                chunk.copy_from_slice(data);
            } else {
                self.base.read_at(s, chunk)?;
            }
        }
        self.stats.record_read(buf.len() as u64);
        Ok(())
    }

    fn write_sectors(&mut self, sector: u64, buf: &[u8]) -> Result<()> {
        validate_request(self.capacity_sectors, sector, buf.len())?;
        let sectors = buf.len() as u64 / SECTOR_SIZE;
        for i in 0..sectors {
            let s = sector + i;
            let chunk = &buf[(i * SECTOR_SIZE) as usize..((i + 1) * SECTOR_SIZE) as usize];
            self.overlay.insert(s, chunk.to_vec().into_boxed_slice());
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvisor_types::ByteSize;

    impl CowOverlay {
        /// Number of sectors that have been privately written (overlay footprint).
        fn overlay_sectors(&self) -> u64 {
            self.overlay.len() as u64
        }
    }

    fn base_with_pattern() -> Arc<RamDisk> {
        let mut disk = RamDisk::new(ByteSize::kib(8));
        disk.write_sectors(0, &vec![0x11u8; 512]).unwrap();
        disk.write_sectors(5, &vec![0x55u8; 512]).unwrap();
        Arc::new(disk)
    }

    #[test]
    fn reads_fall_through_to_base() {
        let base = base_with_pattern();
        let mut cow = CowOverlay::new(Arc::clone(&base));
        let mut buf = vec![0u8; 512];
        cow.read_sectors(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x11));
        cow.read_sectors(5, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x55));
        assert_eq!(cow.overlay_sectors(), 0);
    }

    #[test]
    fn writes_stay_private() {
        let base = base_with_pattern();
        let mut cow_a = CowOverlay::new(Arc::clone(&base));
        let mut cow_b = CowOverlay::new(Arc::clone(&base));

        cow_a.write_sectors(0, &vec![0xaau8; 512]).unwrap();
        let mut buf = vec![0u8; 512];
        cow_a.read_sectors(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xaa));
        // The sibling overlay and the base are unaffected.
        cow_b.read_sectors(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x11));
        base.read_at(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x11));

        assert_eq!(cow_a.overlay_sectors(), 1);
        // An unwritten neighbour still reads through to the base.
        cow_a.read_sectors(1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x00));
    }

    #[test]
    fn multi_sector_requests_split_correctly() {
        let base = base_with_pattern();
        let mut cow = CowOverlay::new(base);
        // Write only the middle sector of a 3-sector read range.
        cow.write_sectors(1, &vec![0x22u8; 512]).unwrap();
        let mut buf = vec![0u8; 3 * 512];
        cow.read_sectors(0, &mut buf).unwrap();
        assert!(buf[..512].iter().all(|&b| b == 0x11)); // from base
        assert!(buf[512..1024].iter().all(|&b| b == 0x22)); // from overlay
        assert!(buf[1024..].iter().all(|&b| b == 0x00)); // base zeroes
    }

    #[test]
    fn bounds_respected_and_stats() {
        let base = base_with_pattern();
        let mut cow = CowOverlay::new(base);
        assert!(cow.write_sectors(100, &[0u8; 512]).is_err());
        cow.write_sectors(0, &[1u8; 512]).unwrap();
        let mut buf = [0u8; 512];
        cow.read_sectors(0, &mut buf).unwrap();
        cow.flush().unwrap();
        let s = cow.stats();
        assert_eq!((s.reads, s.writes, s.flushes), (1, 1, 1));
        assert!(format!("{cow:?}").contains("overlay_sectors"));
    }
}
