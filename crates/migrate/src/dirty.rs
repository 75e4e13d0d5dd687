//! Models of guest memory-dirtying behaviour during migration.
//!
//! While a live migration round is in flight the guest keeps running and
//! keeps writing memory. How *fast* it writes — and over how large a working
//! set — determines whether pre-copy converges. [`DirtySource`] abstracts
//! that behaviour so the engines can be driven either by a real vCPU
//! (the VMM wires the guest's own dirty bitmap in) or by a synthetic rate
//! model (what the examples sweep).

use rvisor_memory::GuestMemory;
use rvisor_types::{GuestAddress, Nanoseconds, Result, PAGE_SIZE};

/// Something that dirties guest memory while migration rounds are in flight.
pub trait DirtySource: Send {
    /// Simulate the guest running for `duration`, writing into `memory`
    /// (which records the dirt in its dirty bitmap). Returns the number of
    /// page-sized writes performed.
    fn run_for(&mut self, memory: &GuestMemory, duration: Nanoseconds) -> Result<u64>;

    /// The long-run dirty rate in bytes per second (used for reporting).
    fn dirty_rate_bytes_per_sec(&self) -> u64;
}

/// A guest that never writes (an idle or paused workload).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdleDirtier;

impl DirtySource for IdleDirtier {
    fn run_for(&mut self, _memory: &GuestMemory, _duration: Nanoseconds) -> Result<u64> {
        Ok(0)
    }

    fn dirty_rate_bytes_per_sec(&self) -> u64 {
        0
    }
}

/// A guest that dirties pages at a constant rate, cycling through a working
/// set starting at a configurable page offset.
#[derive(Debug, Clone)]
pub struct ConstantRateDirtier {
    /// Pages dirtied per simulated second.
    pages_per_sec: u64,
    /// First page of the working set.
    working_set_start: u64,
    /// Number of pages in the working set.
    working_set_pages: u64,
    /// Next page (relative to the working set) to dirty.
    cursor: u64,
    /// Accumulated fractional work in page-nanoseconds.
    carry_ns: u64,
}

impl ConstantRateDirtier {
    /// Create a dirtier writing `pages_per_sec` over
    /// `[working_set_start, working_set_start + working_set_pages)`.
    pub fn new(pages_per_sec: u64, working_set_start: u64, working_set_pages: u64) -> Self {
        ConstantRateDirtier {
            pages_per_sec,
            working_set_start,
            working_set_pages: working_set_pages.max(1),
            cursor: 0,
            carry_ns: 0,
        }
    }

    /// A dirtier expressed as a fraction of a link's bandwidth — the natural
    /// parameterisation for convergence experiments.
    pub fn from_bandwidth_fraction(
        link_bytes_per_sec: u64,
        fraction: f64,
        working_set_start: u64,
        working_set_pages: u64,
    ) -> Self {
        let bytes_per_sec = (link_bytes_per_sec as f64 * fraction).max(0.0) as u64;
        Self::new(
            bytes_per_sec / PAGE_SIZE,
            working_set_start,
            working_set_pages,
        )
    }
}

impl DirtySource for ConstantRateDirtier {
    fn run_for(&mut self, memory: &GuestMemory, duration: Nanoseconds) -> Result<u64> {
        // pages = rate * time, accumulated with a carry so short rounds still
        // add up to the right long-run rate.
        let total_ns = self.carry_ns + duration.as_nanos();
        let pages = self.pages_per_sec.saturating_mul(total_ns) / 1_000_000_000;
        self.carry_ns = total_ns - pages.saturating_mul(1_000_000_000) / self.pages_per_sec.max(1);
        let mut written = 0;
        for _ in 0..pages {
            let page = self.working_set_start + (self.cursor % self.working_set_pages);
            self.cursor = self.cursor.wrapping_add(1);
            if let Ok(addr) = memory.page_address(page) {
                memory.write_u64(GuestAddress(addr.0), self.cursor)?;
                written += 1;
            }
        }
        Ok(written)
    }

    fn dirty_rate_bytes_per_sec(&self) -> u64 {
        self.pages_per_sec * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvisor_types::ByteSize;

    #[test]
    fn idle_dirtier_writes_nothing() {
        let mem = GuestMemory::flat(ByteSize::pages_of(8)).unwrap();
        let mut d = IdleDirtier;
        assert_eq!(d.run_for(&mem, Nanoseconds::from_secs(10)).unwrap(), 0);
        assert_eq!(mem.dirty_page_count(), 0);
        assert_eq!(d.dirty_rate_bytes_per_sec(), 0);
    }

    #[test]
    fn constant_rate_hits_target_over_time() {
        let mem = GuestMemory::flat(ByteSize::pages_of(64)).unwrap();
        let mut d = ConstantRateDirtier::new(1000, 8, 32);
        // 100 ms at 1000 pages/s = 100 page writes.
        let written = d.run_for(&mem, Nanoseconds::from_millis(100)).unwrap();
        assert_eq!(written, 100);
        // Working set is 32 pages, so at most 32 distinct pages are dirty.
        assert!(mem.dirty_page_count() <= 32);
        assert!(mem.dirty_pages().iter().all(|&p| (8..40).contains(&p)));
        assert_eq!(d.dirty_rate_bytes_per_sec(), 1000 * PAGE_SIZE);
    }

    #[test]
    fn short_rounds_accumulate_via_carry() {
        let mem = GuestMemory::flat(ByteSize::pages_of(16)).unwrap();
        let mut d = ConstantRateDirtier::new(100, 0, 8);
        // 100 pages/s means one page per 10 ms; 1 ms slices should still
        // produce ~100 pages over a second.
        let mut total = 0;
        for _ in 0..1000 {
            total += d.run_for(&mem, Nanoseconds::from_millis(1)).unwrap();
        }
        assert!((90..=110).contains(&total), "got {total}");
    }

    #[test]
    fn bandwidth_fraction_constructor() {
        let d = ConstantRateDirtier::from_bandwidth_fraction(125_000_000, 0.5, 0, 1024);
        // Half of 1 Gbit/s is 62.5 MB/s ≈ 15258 pages/s.
        let rate = d.dirty_rate_bytes_per_sec();
        assert!(rate > 60_000_000 && rate < 65_000_000, "rate {rate}");
        let zero = ConstantRateDirtier::from_bandwidth_fraction(125_000_000, 0.0, 0, 16);
        assert_eq!(zero.dirty_rate_bytes_per_sec(), 0);
    }

    #[test]
    fn out_of_range_working_set_is_tolerated() {
        let mem = GuestMemory::flat(ByteSize::pages_of(4)).unwrap();
        // Working set points past the end of memory: writes are skipped, not fatal.
        let mut d = ConstantRateDirtier::new(1000, 100, 8);
        let written = d.run_for(&mem, Nanoseconds::from_millis(10)).unwrap();
        assert_eq!(written, 0);
        assert_eq!(mem.dirty_page_count(), 0);
    }
}
