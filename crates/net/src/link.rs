//! Point-to-point link models.
//!
//! Live migration moves gigabytes of memory across a network whose bandwidth
//! is the single most important parameter of the experiment: pre-copy
//! converges only if the guest dirties memory slower than the link can carry
//! it. [`LinkModel`] captures bandwidth + propagation latency;
//! [`Link`] adds a running clock so sequential transfers queue behind each
//! other the way they would on a real NIC.

use serde::{Deserialize, Serialize};

use rvisor_types::Nanoseconds;

/// A bandwidth/latency description of a point-to-point link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Usable bandwidth in bytes per second.
    pub bytes_per_second: u64,
    /// One-way propagation latency added to every transfer.
    pub latency: Nanoseconds,
}

impl LinkModel {
    /// A 1 Gbit/s link with 200 µs latency (the deck's office LAN).
    pub fn gigabit() -> Self {
        LinkModel {
            bytes_per_second: 125_000_000,
            latency: Nanoseconds::from_micros(200),
        }
    }

    /// A 10 Gbit/s datacenter link with 50 µs latency.
    pub fn ten_gigabit() -> Self {
        LinkModel {
            bytes_per_second: 1_250_000_000,
            latency: Nanoseconds::from_micros(50),
        }
    }

    /// A 100 Mbit/s WAN-ish link with 5 ms latency (cross-site DR traffic).
    pub fn wan() -> Self {
        LinkModel {
            bytes_per_second: 12_500_000,
            latency: Nanoseconds::from_millis(5),
        }
    }

    /// Time to push `bytes` through the link (serialization + propagation).
    pub fn transfer_time(&self, bytes: u64) -> Nanoseconds {
        let serialization = if self.bytes_per_second == 0 {
            0
        } else {
            // bytes * 1e9 / bw, computed in u128 to avoid overflow on large transfers.
            ((bytes as u128 * 1_000_000_000) / self.bytes_per_second as u128) as u64
        };
        self.latency.saturating_add(Nanoseconds(serialization))
    }
}

/// A link with a running busy-time account, so back-to-back transfers queue.
#[derive(Debug, Clone)]
pub struct Link {
    model: LinkModel,
    /// Simulated instant at which the link becomes free.
    free_at: Nanoseconds,
    bytes_carried: u64,
    transfers: u64,
}

impl Link {
    /// Create an idle link with the given model.
    pub fn new(model: LinkModel) -> Self {
        Link {
            model,
            free_at: Nanoseconds::ZERO,
            bytes_carried: 0,
            transfers: 0,
        }
    }

    /// The link's model.
    pub fn model(&self) -> LinkModel {
        self.model
    }

    /// When the link next becomes idle.
    pub fn free_at(&self) -> Nanoseconds {
        self.free_at
    }

    /// Schedule a transfer of `bytes` starting no earlier than `now`;
    /// returns the simulated completion time.
    pub fn transmit(&mut self, now: Nanoseconds, bytes: u64) -> Nanoseconds {
        let start = if now > self.free_at {
            now
        } else {
            self.free_at
        };
        let done = start.saturating_add(self.model.transfer_time(bytes));
        self.free_at = done;
        self.bytes_carried += bytes;
        self.transfers += 1;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Link {
        /// Number of transfers performed.
        pub(crate) fn transfers(&self) -> u64 {
            self.transfers
        }

        /// Reset the busy-time account (e.g. between benchmark iterations).
        pub(crate) fn reset(&mut self) {
            self.free_at = Nanoseconds::ZERO;
            self.bytes_carried = 0;
            self.transfers = 0;
        }

        /// Total bytes carried.
        pub(crate) fn bytes_carried(&self) -> u64 {
            self.bytes_carried
        }
    }

    impl LinkModel {
        /// Construct from a bandwidth expressed in megabits per second.
        fn from_mbps(mbps: u64, latency: Nanoseconds) -> Self {
            LinkModel {
                bytes_per_second: mbps * 1_000_000 / 8,
                latency,
            }
        }

        /// The highest sustained dirty rate (bytes/s) that pre-copy can outrun on
        /// this link — anything above it and migration cannot converge.
        fn max_convergent_dirty_rate(&self) -> u64 {
            self.bytes_per_second
        }
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let link = LinkModel {
            bytes_per_second: 1_000_000,
            latency: Nanoseconds::from_micros(10),
        };
        assert_eq!(link.transfer_time(0), Nanoseconds::from_micros(10));
        // 1 MB at 1 MB/s = 1 s + latency.
        assert_eq!(
            link.transfer_time(1_000_000),
            Nanoseconds(1_000_000_000 + 10_000)
        );
        let zero = LinkModel {
            bytes_per_second: 0,
            latency: Nanoseconds::from_micros(1),
        };
        assert_eq!(zero.transfer_time(123), Nanoseconds::from_micros(1));
    }

    #[test]
    fn presets_and_conversions() {
        assert_eq!(LinkModel::gigabit().bytes_per_second, 125_000_000);
        assert!(LinkModel::ten_gigabit().bytes_per_second > LinkModel::gigabit().bytes_per_second);
        assert!(LinkModel::wan().latency > LinkModel::gigabit().latency);
        let m = LinkModel::from_mbps(1000, Nanoseconds::ZERO);
        assert_eq!(m.bytes_per_second, 125_000_000);
        assert_eq!(m.max_convergent_dirty_rate(), 125_000_000);
    }

    #[test]
    fn large_transfers_do_not_overflow() {
        let link = LinkModel::gigabit();
        // 1 TiB over gigabit: ~ 8796 seconds; must not overflow.
        let t = link.transfer_time(1 << 40);
        assert!(t.as_secs_f64() > 8000.0 && t.as_secs_f64() < 10_000.0);
    }

    #[test]
    fn sequential_transfers_queue() {
        let mut link = Link::new(LinkModel {
            bytes_per_second: 1_000_000,
            latency: Nanoseconds::ZERO,
        });
        let t1 = link.transmit(Nanoseconds::ZERO, 500_000); // 0.5 s
        assert_eq!(t1, Nanoseconds::from_millis(500));
        // Submitted "earlier" than the link frees up: queues behind.
        let t2 = link.transmit(Nanoseconds::from_millis(100), 500_000);
        assert_eq!(t2, Nanoseconds::from_secs(1));
        // Submitted after an idle gap: starts immediately.
        let t3 = link.transmit(Nanoseconds::from_secs(2), 1_000_000);
        assert_eq!(t3, Nanoseconds::from_secs(3));
        assert_eq!(link.bytes_carried(), 2_000_000);
        assert_eq!(link.transfers(), 3);
        assert_eq!(link.free_at(), Nanoseconds::from_secs(3));
        link.reset();
        assert_eq!(link.bytes_carried(), 0);
        assert_eq!(link.free_at(), Nanoseconds::ZERO);
        assert_eq!(link.model().bytes_per_second, 1_000_000);
    }

    proptest! {
        #[test]
        fn completion_times_are_monotonic(
            sizes in proptest::collection::vec(1u64..10_000_000, 1..20)
        ) {
            let mut link = Link::new(LinkModel::gigabit());
            let mut last = Nanoseconds::ZERO;
            for s in sizes {
                let done = link.transmit(Nanoseconds::ZERO, s);
                prop_assert!(done >= last);
                last = done;
            }
        }

        #[test]
        fn transfer_time_is_monotonic_in_bytes(a in 0u64..1 << 30, b in 0u64..1 << 30) {
            let link = LinkModel::gigabit();
            let (small, large) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(link.transfer_time(small) <= link.transfer_time(large));
        }
    }
}
