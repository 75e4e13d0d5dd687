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
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StorageModel {
    /// Fixed per-request latency.
    pub(crate) per_request: Nanoseconds,
    /// Sustained bandwidth in bytes per second.
    pub(crate) bytes_per_second: u64,
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
}
