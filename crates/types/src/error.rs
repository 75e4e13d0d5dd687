//! The workspace-wide error type.
//!
//! Every crate in the workspace returns [`Error`] (or wraps it); keeping the
//! error vocabulary in one place lets the VMM core surface a single error type
//! through its public API without an error-conversion crate.

use crate::addr::GuestAddress;
use crate::ids::{HostId, VmId};
use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the rvisor virtualization stack.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A guest physical address (or range starting at it) is not backed by memory.
    InvalidGuestAddress(GuestAddress),
    /// A guest memory access ran past the end of its region.
    OutOfBounds {
        /// Address where the access started.
        addr: GuestAddress,
        /// Length of the attempted access.
        len: u64,
    },
    /// A multi-byte guest memory access started inside a region but ran into
    /// a hole (unbacked address space) before it was satisfied.
    ///
    /// Accesses spanning *adjacent* regions are legal and are stitched
    /// together by `GuestMemory`; this error is returned only when the next
    /// byte of the span is backed by no region at all.
    CrossRegionGap {
        /// Address where the access started.
        addr: GuestAddress,
        /// Length of the attempted access.
        len: u64,
        /// First address of the span not backed by any region.
        gap_at: GuestAddress,
    },
    /// Two memory regions overlap.
    RegionOverlap,
    /// A memory region was configured with zero size or misaligned bounds.
    InvalidRegionConfig(String),
    /// The balloon cannot inflate further (guest would have no memory left).
    BalloonExhausted {
        /// Pages requested for inflation.
        requested_pages: u64,
        /// Pages actually available to reclaim.
        available_pages: u64,
    },
    /// A vCPU fault that the hypervisor cannot handle (triple-fault analogue).
    VcpuFault(String),
    /// A guest executed an instruction that is invalid in its current mode.
    InvalidInstruction {
        /// Program counter of the offending instruction.
        pc: u64,
        /// Raw encoding.
        opcode: u32,
    },
    /// The guest page-table walk failed.
    PageFault {
        /// Faulting guest virtual address.
        vaddr: u64,
        /// Whether the access was a write.
        write: bool,
    },
    /// An MMIO/PIO access hit an address with no device behind it.
    UnmappedIo(GuestAddress),
    /// A device rejected the operation.
    Device(String),
    /// A virtqueue descriptor chain is malformed.
    InvalidDescriptor(String),
    /// Block backend error (bad sector, image corrupt, out of space, ...).
    Block(String),
    /// Network substrate error.
    Net(String),
    /// The referenced VM does not exist.
    UnknownVm(VmId),
    /// The referenced host does not exist.
    UnknownHost(HostId),
    /// The VM is in the wrong lifecycle state for the requested operation.
    InvalidVmState {
        /// What was attempted.
        operation: &'static str,
        /// The state the VM was actually in.
        state: String,
    },
    /// Snapshot serialization/deserialization failure.
    Snapshot(String),
    /// Live migration failed or was aborted.
    Migration(String),
    /// The migration wire stream is malformed: bad magic or version,
    /// truncated frame, payload past the stream end, or a per-frame
    /// checksum mismatch. `offset` is the byte offset of the offending
    /// frame within its burst.
    WireProtocol {
        /// What was wrong with the stream.
        detail: String,
        /// Byte offset of the offending frame within the received burst.
        offset: u64,
    },
    /// Not enough capacity on a host / in the cluster to place a VM.
    CapacityExceeded(String),
    /// Generic configuration error.
    Config(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidGuestAddress(a) => write!(f, "invalid guest address {a}"),
            Error::OutOfBounds { addr, len } => {
                write!(f, "guest memory access out of bounds: {len} bytes at {addr}")
            }
            Error::CrossRegionGap { addr, len, gap_at } => write!(
                f,
                "guest memory access of {len} bytes at {addr} crosses into unbacked space at {gap_at}"
            ),
            Error::RegionOverlap => write!(f, "guest memory regions overlap"),
            Error::InvalidRegionConfig(msg) => write!(f, "invalid memory region config: {msg}"),
            Error::BalloonExhausted { requested_pages, available_pages } => write!(
                f,
                "balloon cannot inflate by {requested_pages} pages, only {available_pages} available"
            ),
            Error::VcpuFault(msg) => write!(f, "unrecoverable vCPU fault: {msg}"),
            Error::InvalidInstruction { pc, opcode } => {
                write!(f, "invalid instruction 0x{opcode:08x} at pc 0x{pc:x}")
            }
            Error::PageFault { vaddr, write } => {
                let kind = if *write { "write" } else { "read" };
                write!(f, "unhandled guest page fault ({kind}) at 0x{vaddr:x}")
            }
            Error::UnmappedIo(a) => write!(f, "I/O access to unmapped address {a}"),
            Error::Device(msg) => write!(f, "device error: {msg}"),
            Error::InvalidDescriptor(msg) => write!(f, "invalid virtqueue descriptor: {msg}"),
            Error::Block(msg) => write!(f, "block backend error: {msg}"),
            Error::Net(msg) => write!(f, "network error: {msg}"),
            Error::UnknownVm(id) => write!(f, "unknown VM {id}"),
            Error::UnknownHost(id) => write!(f, "unknown host {id}"),
            Error::InvalidVmState { operation, state } => {
                write!(f, "cannot {operation}: VM is {state}")
            }
            Error::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
            Error::Migration(msg) => write!(f, "migration error: {msg}"),
            Error::WireProtocol { detail, offset } => {
                write!(f, "migration wire stream error at byte {offset}: {detail}")
            }
            Error::CapacityExceeded(msg) => write!(f, "capacity exceeded: {msg}"),
            Error::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::OutOfBounds {
            addr: GuestAddress(0x1000),
            len: 8,
        };
        assert_eq!(
            e.to_string(),
            "guest memory access out of bounds: 8 bytes at 0x1000"
        );

        let e = Error::PageFault {
            vaddr: 0xdead,
            write: true,
        };
        assert!(e.to_string().contains("write"));
        assert!(e.to_string().contains("0xdead"));

        let e = Error::InvalidVmState {
            operation: "resume",
            state: "Destroyed".into(),
        };
        assert_eq!(e.to_string(), "cannot resume: VM is Destroyed");
    }

    #[test]
    fn error_is_std_error() {
        fn takes_std_error(_e: &dyn std::error::Error) {}
        takes_std_error(&Error::RegionOverlap);
    }
}
