//! Storage service-time modelling.
//!
//! The virtio-vs-emulated-device experiments need both device models to sit
//! on top of *identical* storage behaviour, so the difference they measure is
//! purely the cost of the I/O path (exits, descriptor processing,
//! notification suppression). [`StorageModel`] is a simple service-time
//! model — fixed per-request latency plus a bandwidth term — that accounts
//! simulated busy time without ever sleeping.

use serde::{Deserialize, Serialize};

use rvisor_types::Nanoseconds;

/// A storage service-time model: `latency + bytes / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageModel {
    /// Fixed per-request latency.
    pub per_request: Nanoseconds,
    /// Sustained bandwidth in bytes per second.
    pub bytes_per_second: u64,
}

impl StorageModel {
    /// A model resembling a SATA SSD: 80 µs per request, 500 MB/s.
    pub fn ssd() -> Self {
        StorageModel {
            per_request: Nanoseconds::from_micros(80),
            bytes_per_second: 500_000_000,
        }
    }

    /// A model resembling a 7200 RPM disk: 6 ms per request, 150 MB/s.
    pub fn hdd() -> Self {
        StorageModel {
            per_request: Nanoseconds::from_millis(6),
            bytes_per_second: 150_000_000,
        }
    }

    /// Service time for a request of `bytes`.
    pub fn service_time(&self, bytes: u64) -> Nanoseconds {
        let transfer_ns = bytes
            .saturating_mul(1_000_000_000)
            .checked_div(self.bytes_per_second)
            .unwrap_or(0);
        self.per_request.saturating_add(Nanoseconds(transfer_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BlockBackend, BlockStats};
    use crate::ram::RamDisk;
    use rvisor_types::{ByteSize, Result};

    /// A backend wrapper that accounts simulated service time for each request.
    struct ThrottledDisk<B: BlockBackend> {
        inner: B,
        model: StorageModel,
        busy: Nanoseconds,
        requests: u64,
    }

    impl<B: BlockBackend> std::fmt::Debug for ThrottledDisk<B> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("ThrottledDisk")
                .field("model", &self.model)
                .field("busy", &self.busy)
                .field("requests", &self.requests)
                .finish()
        }
    }

    impl<B: BlockBackend> ThrottledDisk<B> {
        /// Wrap `inner` with `model`.
        fn new(inner: B, model: StorageModel) -> Self {
            ThrottledDisk {
                inner,
                model,
                busy: Nanoseconds::ZERO,
                requests: 0,
            }
        }

        /// Total simulated time the storage device has spent servicing requests.
        fn busy_time(&self) -> Nanoseconds {
            self.busy
        }

        /// Number of requests serviced.
        fn requests(&self) -> u64 {
            self.requests
        }

        /// The service-time model in use.
        fn model(&self) -> StorageModel {
            self.model
        }

        /// Access the wrapped backend.
        fn inner(&self) -> &B {
            &self.inner
        }

        fn account(&mut self, bytes: u64) {
            self.busy = self.busy.saturating_add(self.model.service_time(bytes));
            self.requests += 1;
        }
    }

    impl<B: BlockBackend> BlockBackend for ThrottledDisk<B> {
        fn capacity_sectors(&self) -> u64 {
            self.inner.capacity_sectors()
        }

        fn read_sectors(&mut self, sector: u64, buf: &mut [u8]) -> Result<()> {
            self.inner.read_sectors(sector, buf)?;
            self.account(buf.len() as u64);
            Ok(())
        }

        fn write_sectors(&mut self, sector: u64, buf: &[u8]) -> Result<()> {
            self.inner.write_sectors(sector, buf)?;
            self.account(buf.len() as u64);
            Ok(())
        }

        fn flush(&mut self) -> Result<()> {
            self.inner.flush()?;
            self.account(0);
            Ok(())
        }

        fn stats(&self) -> BlockStats {
            self.inner.stats()
        }

        fn is_read_only(&self) -> bool {
            self.inner.is_read_only()
        }
    }

    #[test]
    fn service_time_components() {
        let m = StorageModel {
            per_request: Nanoseconds::from_micros(100),
            bytes_per_second: 1_000_000,
        };
        // 1000 bytes at 1 MB/s = 1 ms transfer + 100 µs latency.
        assert_eq!(m.service_time(1000), Nanoseconds::from_micros(1100));
        assert_eq!(m.service_time(0), Nanoseconds::from_micros(100));
        let zero_bw = StorageModel {
            per_request: Nanoseconds::from_micros(5),
            bytes_per_second: 0,
        };
        assert_eq!(zero_bw.service_time(4096), Nanoseconds::from_micros(5));
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        assert!(StorageModel::ssd().per_request < StorageModel::hdd().per_request);
        assert!(StorageModel::ssd().bytes_per_second > StorageModel::hdd().bytes_per_second);
    }

    #[test]
    fn busy_time_accumulates() {
        let model = StorageModel {
            per_request: Nanoseconds::from_micros(10),
            bytes_per_second: 512_000_000,
        };
        let mut disk = ThrottledDisk::new(RamDisk::new(ByteSize::kib(64)), model);
        let buf = vec![0u8; 4096];
        for i in 0..8 {
            disk.write_sectors(i * 8, &buf).unwrap();
        }
        assert_eq!(disk.requests(), 8);
        let expected_per_req = model.service_time(4096);
        assert_eq!(
            disk.busy_time(),
            Nanoseconds(expected_per_req.as_nanos() * 8)
        );
        assert_eq!(disk.stats().writes, 8);
        assert_eq!(disk.model(), model);
        assert_eq!(disk.capacity_sectors(), 128);
        assert!(!disk.is_read_only());
        assert!(format!("{disk:?}").contains("requests"));
    }

    #[test]
    fn errors_do_not_consume_service_time() {
        let mut disk = ThrottledDisk::new(RamDisk::new(ByteSize::kib(1)), StorageModel::ssd());
        assert!(disk.write_sectors(1000, &[0u8; 512]).is_err());
        assert_eq!(disk.busy_time(), Nanoseconds::ZERO);
        assert_eq!(disk.requests(), 0);
        disk.flush().unwrap();
        assert_eq!(disk.requests(), 1);
        assert!(disk.inner().stats().flushes == 1);
    }
}
