//! # rvisor-block
//!
//! Block-storage substrate for the VMM: the backends a virtio-blk or emulated
//! disk device reads and writes through.
//!
//! * [`RamDisk`] — an in-memory disk, the workhorse of tests and benchmarks.
//! * `CowOverlay` — a copy-on-write overlay on top of a shared read-only
//!   template; the mechanism behind instant template cloning (experiment
//!   E9).
//! * [`StorageModel`] — a bandwidth/latency model so I/O experiments
//!   measure device-model overhead against a fixed storage service time.
//! * [`FaultyDisk`] — wraps a backend with deterministic failure injection
//!   (bad sector ranges, n-th-request failures, seeded transient errors) for
//!   exercising the error paths of the device models and backup code.
//! * [`ImageLibrary`] — a small template store modelling the "golden image"
//!   provisioning workflow (clone-from-template vs full-copy install).
//!
//! All backends implement [`BlockBackend`] and speak 512-byte sectors.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod backend;
pub mod cow;
pub mod faulty;
pub mod image;
pub mod ram;
pub mod throttle;

pub use backend::{BlockBackend, BlockStats, SECTOR_SIZE};
pub use faulty::{FaultKind, FaultPlan, FaultStats, FaultyDisk};
pub use image::{synthetic_os_image, CloneStrategy, ImageLibrary};
pub use ram::RamDisk;
pub use throttle::StorageModel;
