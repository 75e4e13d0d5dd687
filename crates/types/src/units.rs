//! Byte-size units and helpers.
//!
//! Guest memory sizes show up everywhere in a VMM; this module provides the
//! usual binary units plus a small [`ByteSize`] newtype that keeps arithmetic
//! checked and display human-readable.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// One kibibyte (2^10 bytes).
pub(crate) const KIB: u64 = 1 << 10;
/// One mebibyte (2^20 bytes).
pub const MIB: u64 = 1 << 20;
/// One gibibyte (2^30 bytes).
pub(crate) const GIB: u64 = 1 << 30;
/// The guest page size used throughout the workspace (4 KiB).
pub const PAGE_SIZE: u64 = 4 * KIB;

/// A byte count with human-readable formatting and checked arithmetic.
///
/// ```
/// use rvisor_types::{ByteSize, MIB};
/// let sz = ByteSize::mib(512);
/// assert_eq!(sz.as_u64(), 512 * MIB);
/// assert_eq!(sz.pages(), 131_072);
/// assert_eq!(format!("{sz}"), "512.00 MiB");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Construct from a raw byte count.
    pub const fn new(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Construct from kibibytes.
    pub const fn kib(n: u64) -> Self {
        ByteSize(n * KIB)
    }

    /// Construct from mebibytes.
    pub const fn mib(n: u64) -> Self {
        ByteSize(n * MIB)
    }

    /// Construct from gibibytes.
    pub const fn gib(n: u64) -> Self {
        ByteSize(n * GIB)
    }

    /// Construct from a number of 4 KiB pages.
    pub const fn pages_of(n: u64) -> Self {
        ByteSize(n * PAGE_SIZE)
    }

    /// The raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Number of whole 4 KiB pages needed to hold this many bytes.
    pub const fn pages(self) -> u64 {
        self.0.div_ceil(PAGE_SIZE)
    }

    /// Whether the size is an exact multiple of the page size.
    pub const fn is_page_aligned(self) -> bool {
        self.0.is_multiple_of(PAGE_SIZE)
    }

    /// Round up to the next page boundary.
    pub const fn page_align_up(self) -> Self {
        ByteSize(self.pages() * PAGE_SIZE)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl From<u64> for ByteSize {
    fn from(v: u64) -> Self {
        ByteSize(v)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if self.0 >= GIB {
            write!(f, "{:.2} GiB", b / GIB as f64)
        } else if self.0 >= MIB {
            write!(f, "{:.2} MiB", b / MIB as f64)
        } else if self.0 >= KIB {
            write!(f, "{:.2} KiB", b / KIB as f64)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl ByteSize {
        /// Express the size in whole mebibytes (rounded down).
        const fn whole_mib(self) -> u64 {
            self.0 / MIB
        }

        /// Express the size in whole gibibytes (rounded down).
        const fn whole_gib(self) -> u64 {
            self.0 / GIB
        }
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(ByteSize::kib(1).as_u64(), KIB);
        assert_eq!(ByteSize::mib(1).as_u64(), MIB);
        assert_eq!(ByteSize::gib(1).as_u64(), GIB);
        assert_eq!(ByteSize::pages_of(2).as_u64(), 2 * PAGE_SIZE);
    }

    #[test]
    fn page_math() {
        assert_eq!(ByteSize::new(0).pages(), 0);
        assert_eq!(ByteSize::new(1).pages(), 1);
        assert_eq!(ByteSize::new(PAGE_SIZE).pages(), 1);
        assert_eq!(ByteSize::new(PAGE_SIZE + 1).pages(), 2);
        assert!(ByteSize::new(PAGE_SIZE).is_page_aligned());
        assert!(!ByteSize::new(PAGE_SIZE + 1).is_page_aligned());
        assert_eq!(
            ByteSize::new(PAGE_SIZE + 1).page_align_up().as_u64(),
            2 * PAGE_SIZE
        );
    }

    #[test]
    fn display_uses_binary_units() {
        assert_eq!(format!("{}", ByteSize::new(512)), "512 B");
        assert_eq!(format!("{}", ByteSize::kib(4)), "4.00 KiB");
        assert_eq!(format!("{}", ByteSize::mib(3)), "3.00 MiB");
        assert_eq!(format!("{}", ByteSize::gib(2)), "2.00 GiB");
    }

    #[test]
    fn checked_arithmetic() {
        let a = ByteSize::mib(1);
        let b = ByteSize::kib(1);
        assert_eq!(a - b, ByteSize::new(MIB - KIB));
        assert_eq!(a.saturating_sub(b), ByteSize::new(MIB - KIB));
        assert_eq!(b.saturating_sub(a), ByteSize::ZERO);
        assert_eq!(a + b, ByteSize::new(MIB + KIB));
    }

    #[test]
    fn whole_unit_accessors() {
        assert_eq!(ByteSize::mib(1536).whole_gib(), 1);
        assert_eq!(ByteSize::kib(2048).whole_mib(), 2);
    }

    proptest! {
        #[test]
        fn page_align_up_is_aligned_and_not_smaller(v in 0u64..(1 << 40)) {
            let s = ByteSize::new(v).page_align_up();
            prop_assert!(s.is_page_aligned());
            prop_assert!(s.as_u64() >= v);
            prop_assert!(s.as_u64() - v < PAGE_SIZE);
        }

        #[test]
        fn pages_times_page_size_covers(v in 0u64..(1 << 40)) {
            let s = ByteSize::new(v);
            prop_assert!(s.pages() * PAGE_SIZE >= v);
        }
    }
}
