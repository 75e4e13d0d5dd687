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
    fn ordering_follows_raw_value() {
        assert!(VmId::new(1) < VmId::new(2));
        assert!(VcpuId::new(7) > VcpuId::new(3));
    }
}
