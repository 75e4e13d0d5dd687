//! # rvisor-memory
//!
//! The guest *physical* memory model used by every other crate in the
//! workspace.
//!
//! A [`GuestMemory`] is an ordered collection of non-overlapping
//! [`MemoryRegion`]s, each backed by host heap memory. On top of the raw
//! byte-level access API the crate provides:
//!
//! * **Dirty-page tracking** (`DirtyBitmap`) — the substrate for live
//!   migration pre-copy rounds and incremental snapshots.
//! * **Ballooning** ([`balloon::Balloon`]) — the guest-cooperative memory
//!   reclaim mechanism used for memory overcommit experiments.
//! * **Content-based page sharing** ([`ksm::KsmManager`]) — KSM-style
//!   deduplication of identical pages across VMs, the second overcommit
//!   mechanism and the basis of the VDI density experiments.
//! * **Typed accessors** — little-endian reads/writes of integers used by the
//!   virtio queue implementation.
//! * **Word-wise scan kernels** ([`scan`]) — zero-page detection and FNV-1a
//!   fingerprinting over `u64` words, shared by the migration wire encoder,
//!   KSM and zero-run coalescing (proptest-pinned equivalent to the
//!   byte-wise loops they replaced).
//!
//! The design mirrors the `vm-memory` crate from the rust-vmm project but is
//! self-contained and entirely safe Rust: regions are backed by
//! `parking_lot`-protected boxed slices rather than raw mmap'd pointers,
//! which is exactly what a simulated substrate needs (determinism and
//! portability rather than zero-copy with a real kernel).
//!
//! ## Which accessor do I want?
//!
//! The data plane offers both zero-copy *views* (closure-based, lock held
//! for the closure's duration) and allocating *copies* (thin wrappers over
//! the views, kept for convenience and out-of-tree callers). Hot paths —
//! migration rounds, snapshot capture, KSM scans, virtio payloads — should
//! use the views.
//!
//! | I want to… | Use | Copies? |
//! |---|---|---|
//! | borrow one page read-only | [`GuestMemory::with_page`] | no |
//! | borrow one page, skipping it if known zero | [`GuestMemory::with_page_or_zero`] | no |
//! | mutate one page in place (marks dirty) | [`GuestMemory::with_page_mut`] | no |
//! | hash a page (KSM / dedup) | `GuestMemory::page_fingerprint` | no |
//! | borrow an arbitrary single-region span | [`GuestMemory::with_slice`] | no |
//! | harvest every dirty page under a batched lock | [`GuestMemory::drain_dirty_pages_with`] | no |
//! | harvest + clear dirty indices into a reused buffer | [`GuestMemory::drain_dirty_into`] | no (at steady state) |
//! | iterate dirty indices without clearing | `DirtyBitmap::iter_dirty` | no |
//! | an owned copy of a page | [`GuestMemory::read_page`] | one `Vec` per call |
//! | an owned copy of a span | [`GuestMemory::read_vec`] | one `Vec` per call |
//! | a fresh `Vec` of dirty indices | [`GuestMemory::dirty_pages`] / [`GuestMemory::drain_dirty`] | one `Vec` per call |
//!
//! Multi-byte [`GuestMemory::read`]/[`GuestMemory::write`] spans may
//! straddle **adjacent** regions (the pieces are stitched in address
//! order); a span that runs into unbacked address space fails with
//! [`rvisor_types::Error::CrossRegionGap`]. The closure views are
//! single-region by construction — a contiguous borrow cannot cross
//! backing allocations.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod balloon;
pub mod bitmap;
pub mod ksm;
pub mod memory;
pub mod region;
pub mod scan;

pub use balloon::{Balloon, BalloonStats};
pub use ksm::{analyze_sharing, DedupAnalysis, KsmConfig, KsmManager, KsmStats};
pub use memory::{GuestAccess, GuestMemory, GuestMemoryBuilder};
pub use region::MemoryRegion;
pub use rvisor_types::{ByteSize, GuestAddress, GuestRegion, PAGE_SIZE};
pub use scan::{fingerprint, is_zero};
