//! # rvisor-virtio
//!
//! A self-contained implementation of the virtio paravirtual I/O family:
//! split virtqueues living in guest memory, a virtio-mmio transport, and the
//! two device models the evaluation needs (block, network), plus
//! the fully-emulated programmed-I/O disk used as the baseline in the
//! paravirtual-vs-emulated comparison (experiment E2).
//!
//! ## Structure
//!
//! * [`queue`] — the split-ring [`VirtQueue`] (device side) and
//!   [`DriverQueue`] (an in-process stand-in for the guest driver), including
//!   EVENT_IDX-style notification suppression.
//! * [`mmio`] — the virtio-mmio transport register block.
//! * [`blk`], [`net`] — device models.
//! * [`emulated`] — a register-banging programmed-I/O disk representing the
//!   "full emulation" baseline (an IDE-like device, one sector per doorbell).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod blk;
pub mod device;
pub mod emulated;
pub mod mmio;
pub mod net;
pub mod queue;

pub use blk::VirtioBlk;
pub use device::{DeviceType, VirtioDevice};
pub use emulated::EmulatedDisk;
pub use mmio::VirtioMmio;
pub use net::VirtioNet;
pub use queue::{DescriptorChain, DriverQueue, QueueLayout, VirtQueue};
