//! Stable identifiers for virtual machines, vCPUs and physical hosts.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Construct an identifier from its raw value.
            pub const fn new(v: u32) -> Self {
                $name(v)
            }

            /// The raw numeric value.
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// Identifier of a virtual machine within a VMM or cluster.
    VmId,
    "vm-"
);
id_type!(
    /// Identifier of a virtual CPU within a VM.
    VcpuId,
    "vcpu-"
);
id_type!(
    /// Identifier of a physical host in the simulated cluster.
    HostId,
    "host-"
);

/// Allocates monotonically increasing identifiers.
#[cfg(test)]
#[derive(Debug, Default)]
struct IdAllocator {
    next: u32,
}

#[cfg(test)]
impl IdAllocator {
    /// Create an allocator starting at zero.
    fn new() -> Self {
        Self::default()
    }

    /// Create an allocator whose first issued id will be `start`.
    fn starting_at(start: u32) -> Self {
        IdAllocator { next: start }
    }

    /// Allocate the next identifier.
    fn next_id<T: From<u32>>(&mut self) -> T {
        let v = self.next;
        self.next += 1;
        T::from(v)
    }

    /// How many identifiers have been issued.
    fn issued(&self) -> u32 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes() {
        assert_eq!(VmId::new(3).to_string(), "vm-3");
        assert_eq!(VcpuId::new(0).to_string(), "vcpu-0");
        assert_eq!(HostId::new(12).to_string(), "host-12");
    }

    #[test]
    fn allocator_is_monotonic_and_unique() {
        let mut alloc = IdAllocator::new();
        let ids: Vec<VmId> = (0..100).map(|_| alloc.next_id()).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.raw(), i as u32);
        }
        assert_eq!(alloc.issued(), 100);
    }

    #[test]
    fn allocator_starting_at() {
        let mut alloc = IdAllocator::starting_at(10);
        let id: HostId = alloc.next_id();
        assert_eq!(id, HostId::new(10));
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(VmId::new(1) < VmId::new(2));
        assert!(VcpuId::new(7) > VcpuId::new(3));
    }
}
