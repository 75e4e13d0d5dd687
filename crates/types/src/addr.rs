//! Guest physical address arithmetic and region descriptions.

use crate::units::PAGE_SIZE;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A guest *physical* address.
///
/// All device models and the memory subsystem speak guest physical addresses;
/// guest *virtual* addresses only exist inside the vCPU's MMU
/// (`rvisor-vcpu`).
///
/// ```
/// use rvisor_types::GuestAddress;
/// let a = GuestAddress(0x1000);
/// assert_eq!(a.unchecked_add(0x20).0, 0x1020);
/// assert!(a.is_page_aligned());
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct GuestAddress(pub u64);

impl GuestAddress {
    /// Guest physical address zero.
    pub const ZERO: GuestAddress = GuestAddress(0);

    /// Add an offset without overflow checking (wraps like hardware would).
    pub const fn unchecked_add(self, offset: u64) -> GuestAddress {
        GuestAddress(self.0.wrapping_add(offset))
    }

    /// Checked addition of an offset.
    pub fn checked_add(self, offset: u64) -> Option<GuestAddress> {
        self.0.checked_add(offset).map(GuestAddress)
    }

    /// Whether this address is 4 KiB aligned.
    pub const fn is_page_aligned(self) -> bool {
        self.0.is_multiple_of(PAGE_SIZE)
    }

    /// Round down to the containing page boundary.
    pub const fn page_base(self) -> GuestAddress {
        GuestAddress(self.0 & !(PAGE_SIZE - 1))
    }
}

impl fmt::Display for GuestAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl From<u64> for GuestAddress {
    fn from(v: u64) -> Self {
        GuestAddress(v)
    }
}

/// A half-open `[start, start+len)` range of guest physical memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GuestRegion {
    /// First guest physical address of the region.
    pub start: GuestAddress,
    /// Length of the region in bytes.
    pub len: u64,
}

impl GuestRegion {
    /// Construct a region from start and length.
    pub const fn new(start: GuestAddress, len: u64) -> Self {
        GuestRegion { start, len }
    }

    /// Whether `addr` falls inside the region.
    pub fn contains(&self, addr: GuestAddress) -> bool {
        addr.0 >= self.start.0 && (addr.0 - self.start.0) < self.len
    }

    /// Whether the whole `[addr, addr+len)` span fits inside the region.
    pub fn contains_range(&self, addr: GuestAddress, len: u64) -> bool {
        if len == 0 {
            return self.contains(addr) || addr.0 == self.start.0 + self.len;
        }
        match addr.checked_add(len - 1) {
            Some(last) => self.contains(addr) && self.contains(last),
            None => false,
        }
    }

    /// Whether two regions overlap in at least one byte.
    pub fn overlaps(&self, other: &GuestRegion) -> bool {
        if self.len == 0 || other.len == 0 {
            return false;
        }
        let self_last = self.start.0 + (self.len - 1);
        let other_last = other.start.0 + (other.len - 1);
        self.start.0 <= other_last && other.start.0 <= self_last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn address_page_math() {
        let a = GuestAddress(0x1234);
        assert_eq!(a.page_base(), GuestAddress(0x1000));
        assert!(!a.is_page_aligned());
        assert!(GuestAddress(0x3000).is_page_aligned());
    }

    #[test]
    fn address_arithmetic() {
        let a = GuestAddress(10);
        assert_eq!(a.checked_add(5), Some(GuestAddress(15)));
        assert_eq!(GuestAddress(u64::MAX).checked_add(1), None);
        assert_eq!(GuestAddress(u64::MAX).unchecked_add(1), GuestAddress(0));
    }

    #[test]
    fn region_contains() {
        let r = GuestRegion::new(GuestAddress(0x1000), 0x1000);
        assert!(r.contains(GuestAddress(0x1000)));
        assert!(r.contains(GuestAddress(0x1fff)));
        assert!(!r.contains(GuestAddress(0x2000)));
        assert!(!r.contains(GuestAddress(0xfff)));
        assert!(r.contains_range(GuestAddress(0x1800), 0x800));
        assert!(!r.contains_range(GuestAddress(0x1800), 0x801));
    }

    #[test]
    fn region_overlap() {
        let a = GuestRegion::new(GuestAddress(0x1000), 0x1000);
        let b = GuestRegion::new(GuestAddress(0x1800), 0x1000);
        let c = GuestRegion::new(GuestAddress(0x2000), 0x1000);
        let empty = GuestRegion::new(GuestAddress(0x1800), 0);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(!a.overlaps(&empty));
    }

    #[test]
    fn empty_region_has_no_last() {
        let r = GuestRegion::new(GuestAddress(0x1000), 0);
        assert!(!r.contains(GuestAddress(0x1000)));
        assert!(!r.contains(GuestAddress(0xfff)));
        assert!(r.contains_range(GuestAddress(0x1000), 0));
        assert!(!r.contains_range(GuestAddress(0x1000), 1));
    }

    proptest! {
        #[test]
        fn page_base_is_aligned(addr in 0u64..u64::MAX) {
            let a = GuestAddress(addr);
            prop_assert!(a.page_base().is_page_aligned());
            prop_assert!(a.page_base().0 <= addr);
            prop_assert!(addr - a.page_base().0 < PAGE_SIZE);
        }

        #[test]
        fn overlap_is_symmetric(s1 in 0u64..1_000_000, l1 in 0u64..10_000,
                                s2 in 0u64..1_000_000, l2 in 0u64..10_000) {
            let a = GuestRegion::new(GuestAddress(s1), l1);
            let b = GuestRegion::new(GuestAddress(s2), l2);
            prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        }

        #[test]
        fn contains_implies_overlap(s1 in 0u64..1_000_000, l1 in 1u64..10_000, off in 0u64..10_000) {
            let a = GuestRegion::new(GuestAddress(s1), l1);
            let addr = GuestAddress(s1 + (off % l1));
            prop_assert!(a.contains(addr));
            let single = GuestRegion::new(addr, 1);
            prop_assert!(a.overlaps(&single));
        }
    }
}
