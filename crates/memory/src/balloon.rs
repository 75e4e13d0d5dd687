//! Memory ballooning.
//!
//! A balloon is the guest-cooperative mechanism hypervisors use to reclaim
//! memory from a running VM: the host asks the balloon driver in the guest to
//! "inflate" (allocate and pin guest pages, then hand them back to the host),
//! shrinking the amount of memory the guest can actually use; "deflating"
//! returns pages to the guest. This is the mechanism behind memory
//! overcommit (experiment E3).
//!
//! [`Balloon`] tracks which global page indices are currently inside the
//! balloon and keeps the accounting the cluster-level overcommit planner
//! needs: configured size, ballooned size, and usable size. Its one owner
//! (a VM) changes it through `&mut self`, so it needs no lock.

use std::collections::BTreeSet;

use rvisor_types::{ByteSize, Error, Result, PAGE_SIZE};

use crate::memory::GuestMemory;

/// Statistics describing the balloon's current state.
#[derive(Debug, Clone, Copy)]
pub struct BalloonStats {
    /// Total configured guest memory.
    pub configured: ByteSize,
    /// Memory currently inside the balloon (reclaimed by the host).
    pub ballooned: ByteSize,
    /// Memory the guest can actually use right now.
    pub usable: ByteSize,
}

/// Tracks pages reclaimed from a guest by the host.
#[derive(Debug)]
pub struct Balloon {
    memory: GuestMemory,
    /// Pages the balloon must never take (e.g. where guest code/page tables live).
    reserved_low_pages: u64,
    /// Global page indices currently held by the balloon.
    held: BTreeSet<u64>,
}

impl Balloon {
    /// Create a balloon for `memory`, never touching the first
    /// `reserved_low_pages` pages (where boot code and page tables live).
    pub fn new(memory: GuestMemory, reserved_low_pages: u64) -> Self {
        Balloon {
            memory,
            reserved_low_pages,
            held: BTreeSet::new(),
        }
    }

    /// Inflate the balloon by `pages` pages.
    ///
    /// Pages are chosen from the top of guest memory downwards (real balloon
    /// drivers prefer high pages to keep low DMA-able memory available).
    /// Their contents are discarded: zeroed and marked dirty
    /// ([`GuestMemory::discard_page`]), so the next incremental snapshot or
    /// pre-copy round carries the zero pages. Returns the global indices
    /// taken.
    pub fn inflate(&mut self, pages: u64) -> Result<Vec<u64>> {
        let total = self.memory.total_pages();
        let candidates: Vec<u64> = (self.reserved_low_pages..total)
            .rev()
            .filter(|p| !self.held.contains(p))
            .take(pages as usize)
            .collect();
        if (candidates.len() as u64) < pages {
            return Err(Error::BalloonExhausted {
                requested_pages: pages,
                available_pages: candidates.len() as u64,
            });
        }
        for &p in &candidates {
            self.memory.discard_page(p)?;
            self.held.insert(p);
        }
        Ok(candidates)
    }

    /// Deflate the balloon by `pages` pages (or all held pages if fewer are held).
    ///
    /// Returns the global indices returned to the guest.
    pub(crate) fn deflate(&mut self, pages: u64) -> Vec<u64> {
        let give_back: Vec<u64> = self
            .held
            .iter()
            .rev()
            .take(pages as usize)
            .copied()
            .collect();
        for p in &give_back {
            self.held.remove(p);
        }
        give_back
    }

    /// Set the balloon to an absolute target size in pages, inflating or
    /// deflating as needed. Returns the resulting balloon size in pages.
    pub fn set_target(&mut self, target_pages: u64) -> Result<u64> {
        let current = self.held_pages();
        if target_pages > current {
            self.inflate(target_pages - current)?;
        } else if target_pages < current {
            self.deflate(current - target_pages);
        }
        Ok(self.held_pages())
    }

    /// Number of pages currently held by the balloon.
    pub fn held_pages(&self) -> u64 {
        self.held.len() as u64
    }

    /// Current statistics.
    pub fn stats(&self) -> BalloonStats {
        let configured = self.memory.total_size();
        let ballooned = ByteSize::new(self.held_pages() * PAGE_SIZE);
        BalloonStats {
            configured,
            ballooned,
            usable: configured.saturating_sub(ballooned),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rvisor_types::GuestAddress;

    impl Balloon {
        /// Whether a specific global page index is inside the balloon.
        pub(crate) fn holds(&self, page: u64) -> bool {
            self.held.contains(&page)
        }
    }

    fn setup(pages: u64) -> (GuestMemory, Balloon) {
        let mem = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
        let balloon = Balloon::new(mem.clone(), 2);
        (mem, balloon)
    }

    #[test]
    fn inflate_takes_high_pages_first() {
        let (_mem, mut balloon) = setup(16);
        let taken = balloon.inflate(3).unwrap();
        assert_eq!(taken, vec![15, 14, 13]);
        assert_eq!(balloon.held_pages(), 3);
        assert!(balloon.holds(15));
        assert!(!balloon.holds(0));
    }

    #[test]
    fn inflate_respects_reserved_low_pages() {
        let (_mem, mut balloon) = setup(8);
        // 8 pages total, 2 reserved -> at most 6 can be ballooned.
        assert!(balloon.inflate(6).is_ok());
        let err = balloon.inflate(1).unwrap_err();
        assert!(matches!(
            err,
            Error::BalloonExhausted {
                available_pages: 0,
                ..
            }
        ));
    }

    #[test]
    fn inflate_discards_page_contents() {
        let (mem, mut balloon) = setup(8);
        let last_page_addr = GuestAddress(7 * PAGE_SIZE);
        mem.write_u64(last_page_addr, 0xdead).unwrap();
        balloon.inflate(1).unwrap();
        assert_eq!(mem.read_u64(last_page_addr).unwrap(), 0);
    }

    #[test]
    fn deflate_returns_pages() {
        let (_mem, mut balloon) = setup(16);
        balloon.inflate(5).unwrap();
        let returned = balloon.deflate(2);
        assert_eq!(returned.len(), 2);
        assert_eq!(balloon.held_pages(), 3);
        // Deflating more than held returns only what is held.
        let rest = balloon.deflate(100);
        assert_eq!(rest.len(), 3);
        assert_eq!(balloon.held_pages(), 0);
        assert!(balloon.deflate(1).is_empty());
    }

    #[test]
    fn set_target_moves_in_both_directions() {
        let (_mem, mut balloon) = setup(32);
        assert_eq!(balloon.set_target(10).unwrap(), 10);
        assert_eq!(balloon.set_target(4).unwrap(), 4);
        assert_eq!(balloon.set_target(4).unwrap(), 4);
        assert!(balloon.set_target(31).is_err());
    }

    #[test]
    fn stats_account_usable_memory() {
        let (_mem, mut balloon) = setup(16);
        balloon.inflate(4).unwrap();
        balloon.deflate(1);
        let s = balloon.stats();
        assert_eq!(s.configured, ByteSize::pages_of(16));
        assert_eq!(s.ballooned, ByteSize::pages_of(3));
        assert_eq!(s.usable, ByteSize::pages_of(13));
    }

    proptest! {
        #[test]
        fn usable_plus_ballooned_is_configured(
            total in 8u64..128,
            ops in proptest::collection::vec((any::<bool>(), 1u64..16), 0..20),
        ) {
            let (_mem, mut balloon) = setup(total);
            for (inflate, n) in ops {
                if inflate {
                    let _ = balloon.inflate(n);
                } else {
                    balloon.deflate(n);
                }
                let s = balloon.stats();
                prop_assert_eq!(s.usable + s.ballooned, s.configured);
                prop_assert!(balloon.held_pages() <= total - 2);
            }
        }

        #[test]
        fn set_target_is_idempotent(total in 16u64..64, target in 0u64..14) {
            let (_mem, mut balloon) = setup(total);
            let a = balloon.set_target(target).unwrap();
            let b = balloon.set_target(target).unwrap();
            prop_assert_eq!(a, target);
            prop_assert_eq!(b, target);
        }
    }
}
