//! virtio-balloon: guest-cooperative memory reclaim.
//!
//! The device exposes two queues: the *inflate* queue carries page frame
//! numbers the guest is giving back to the host, the *deflate* queue carries
//! pages it wants returned. The host sets a target balloon size in the
//! device config space; the (simulated) guest driver is expected to converge
//! to it. The actual page accounting is done by
//! [`rvisor_memory::Balloon`], which this device drives.

use rvisor_memory::{Balloon, GuestMemory};
use rvisor_types::Result;

use crate::device::{DeviceType, VirtioDevice};
use crate::queue::VirtQueue;

/// Index of the inflate queue.
const INFLATE_QUEUE: usize = 0;
/// Index of the deflate queue.
const DEFLATE_QUEUE: usize = 1;

/// Balloon device counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct VirtioBalloonStats {
    /// Pages taken from the guest via the inflate queue.
    pub pages_inflated: u64,
    /// Pages returned to the guest via the deflate queue.
    pub pages_deflated: u64,
    /// PFNs that could not be reclaimed (already ballooned or reserved).
    pub rejected: u64,
}

/// The virtio-balloon device model.
pub(crate) struct VirtioBalloon {
    balloon: Balloon,
    target_pages: u64,
    stats: VirtioBalloonStats,
}

impl std::fmt::Debug for VirtioBalloon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtioBalloon")
            .field("target_pages", &self.target_pages)
            .field("held_pages", &self.balloon.held_pages())
            .finish()
    }
}

impl VirtioBalloon {
    /// Create a balloon device wrapping the memory-level [`Balloon`].
    pub(crate) fn new(balloon: Balloon) -> Self {
        VirtioBalloon {
            balloon,
            target_pages: 0,
            stats: VirtioBalloonStats::default(),
        }
    }

    /// Host-side: set the number of pages the guest should give back.
    pub(crate) fn set_target(&mut self, pages: u64) {
        self.target_pages = pages;
    }

    /// The current target, as the guest driver reads it.
    pub(crate) fn target(&self) -> u64 {
        self.target_pages
    }

    /// Pages currently held by the balloon.
    pub(crate) fn held_pages(&self) -> u64 {
        self.balloon.held_pages()
    }

    /// Device counters.
    pub(crate) fn stats(&self) -> VirtioBalloonStats {
        self.stats
    }

    /// Access the underlying page accounting (for overcommit planning).
    pub(crate) fn balloon(&self) -> &Balloon {
        &self.balloon
    }

    fn process_pfns(
        &mut self,
        mem: &GuestMemory,
        queue: &mut VirtQueue,
        inflate: bool,
    ) -> Result<bool> {
        let mut raise = false;
        while let Some(chain) = queue.pop(mem)? {
            let data = chain.read_all(mem)?;
            // The guest sends an array of little-endian u32 page frame numbers.
            for pfn_bytes in data.chunks_exact(4) {
                let pfn = u32::from_le_bytes(pfn_bytes.try_into().unwrap()) as u64;
                if inflate {
                    match self.balloon.inflate_page(pfn) {
                        Ok(()) => self.stats.pages_inflated += 1,
                        Err(_) => self.stats.rejected += 1,
                    }
                } else if self.balloon.deflate_page(pfn) {
                    self.stats.pages_deflated += 1;
                } else {
                    self.stats.rejected += 1;
                }
            }
            if queue.push_used(mem, chain.head_index, 0)? {
                raise = true;
            }
        }
        Ok(raise)
    }

    /// Encode a list of page frame numbers the way the guest driver would.
    fn encode_pfns(pfns: &[u64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(pfns.len() * 4);
        for &p in pfns {
            out.extend_from_slice(&(p as u32).to_le_bytes());
        }
        out
    }
}

impl VirtioDevice for VirtioBalloon {
    fn device_type(&self) -> DeviceType {
        DeviceType::Balloon
    }

    fn num_queues(&self) -> usize {
        2
    }

    fn process_queue(
        &mut self,
        index: usize,
        mem: &GuestMemory,
        queue: &mut VirtQueue,
    ) -> Result<bool> {
        match index {
            INFLATE_QUEUE => self.process_pfns(mem, queue, true),
            DEFLATE_QUEUE => self.process_pfns(mem, queue, false),
            _ => Ok(false),
        }
    }

    fn read_config(&self, offset: u64) -> u64 {
        match offset {
            // num_pages: the target the guest should reach.
            0 => self.target_pages,
            // actual: how many pages are currently in the balloon.
            8 => self.balloon.held_pages(),
            _ => 0,
        }
    }

    fn write_config(&mut self, offset: u64, value: u64) {
        if offset == 0 {
            self.target_pages = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{DriverQueue, QueueLayout};
    use rvisor_types::{ByteSize, GuestAddress, PAGE_SIZE};

    fn setup(pages: u64) -> (GuestMemory, VirtQueue, DriverQueue, VirtioBalloon) {
        let mem = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
        let (layout, end) = QueueLayout::contiguous(GuestAddress(0x1000), 64).unwrap();
        let driver = DriverQueue::new(layout, GuestAddress((end.0 + 0xfff) & !0xfff), 64 * 1024);
        driver.init(&mem).unwrap();
        let balloon = Balloon::new(mem.clone(), 8);
        (
            mem,
            VirtQueue::new(layout),
            driver,
            VirtioBalloon::new(balloon),
        )
    }

    #[test]
    fn inflate_reclaims_pages() {
        let (mem, mut queue, mut driver, mut dev) = setup(64);
        mem.write_u64(GuestAddress(60 * PAGE_SIZE), 0xdead).unwrap();
        let pfns = VirtioBalloon::encode_pfns(&[60, 61, 62]);
        driver.add_chain(&mem, &[&pfns], &[]).unwrap();
        dev.process_queue(INFLATE_QUEUE, &mem, &mut queue).unwrap();
        assert_eq!(dev.stats().pages_inflated, 3);
        assert_eq!(dev.held_pages(), 3);
        // The reclaimed page's contents are gone.
        assert_eq!(mem.read_u64(GuestAddress(60 * PAGE_SIZE)).unwrap(), 0);
    }

    #[test]
    fn deflate_returns_pages() {
        let (mem, mut queue, mut driver, mut dev) = setup(64);
        let pfns = VirtioBalloon::encode_pfns(&[50, 51, 52, 53]);
        driver.add_chain(&mem, &[&pfns], &[]).unwrap();
        dev.process_queue(INFLATE_QUEUE, &mem, &mut queue).unwrap();
        assert_eq!(dev.held_pages(), 4);

        let back = VirtioBalloon::encode_pfns(&[50, 51]);
        driver.add_chain(&mem, &[&back], &[]).unwrap();
        dev.process_queue(DEFLATE_QUEUE, &mem, &mut queue).unwrap();
        assert_eq!(dev.stats().pages_deflated, 2);
        assert_eq!(dev.held_pages(), 2);
        // Deflating more than held is rejected, not fatal.
        let extra = VirtioBalloon::encode_pfns(&[52, 53, 54]);
        driver.add_chain(&mem, &[&extra], &[]).unwrap();
        dev.process_queue(DEFLATE_QUEUE, &mem, &mut queue).unwrap();
        assert_eq!(dev.stats().rejected, 1);
    }

    #[test]
    fn invalid_pfns_rejected() {
        let (mem, mut queue, mut driver, mut dev) = setup(16);
        let pfns = VirtioBalloon::encode_pfns(&[1000]);
        driver.add_chain(&mem, &[&pfns], &[]).unwrap();
        dev.process_queue(INFLATE_QUEUE, &mem, &mut queue).unwrap();
        assert_eq!(dev.stats().rejected, 1);
        assert_eq!(dev.stats().pages_inflated, 0);
    }

    #[test]
    fn config_space_carries_target_and_actual() {
        let (_mem, _queue, _driver, mut dev) = setup(32);
        dev.set_target(10);
        assert_eq!(dev.target(), 10);
        assert_eq!(dev.read_config(0), 10);
        assert_eq!(dev.read_config(8), 0);
        dev.write_config(0, 5);
        assert_eq!(dev.target(), 5);
        dev.write_config(8, 99); // actual is read-only
        assert_eq!(dev.read_config(8), 0);
        assert_eq!(dev.device_type(), DeviceType::Balloon);
        assert_eq!(dev.num_queues(), 2);
        assert!(format!("{dev:?}").contains("target_pages"));
        assert_eq!(dev.balloon().held_pages(), 0);
    }

    #[test]
    fn unknown_queue_is_ignored() {
        let (mem, mut queue, _driver, mut dev) = setup(16);
        assert!(!dev.process_queue(7, &mem, &mut queue).unwrap());
    }
}
