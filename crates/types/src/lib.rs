//! # rvisor-types
//!
//! Shared vocabulary used by every crate in the `rvisor` workspace: guest
//! address arithmetic, byte-size helpers, stable identifiers for virtual
//! machines / vCPUs / hosts, simulated time, and the common error type.
//!
//! The crate is deliberately dependency-light so that every other crate can
//! depend on it without pulling in device models or memory management.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod addr;
pub mod clock;
pub mod error;
pub mod ids;
pub mod units;

pub use addr::{GuestAddress, GuestRegion};
pub use clock::Nanoseconds;
pub use error::{Error, Result};
pub use ids::{HostId, VcpuId, VmId};
pub use units::{ByteSize, MIB, PAGE_SIZE};
