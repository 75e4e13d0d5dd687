//! # rvisor-snapshot
//!
//! Snapshot and restore of VM state, the substrate of three of the
//! operational features the source material cares about — backups, disaster
//! recovery and template provisioning — and of live migration's final
//! stop-and-copy phase.
//!
//! * [`VmSnapshot`] — a point-in-time capture of vCPU architectural state,
//!   guest memory (full or dirty-page incremental) and opaque device blobs.
//! * [`SnapshotStore`] — keeps snapshot chains (a full parent plus
//!   incremental children) and restores any point in a chain.
//! * [`ExportManifest`] — a portable, human-readable description of an
//!   exported VM (an OVF-style envelope) with integrity checksums.
//! * [`backup`] — backup policies (full/incremental cadence), a simulator
//!   that runs them against a live guest, and RPO/RTO accounting for the
//!   disaster-recovery experiment (E14).
//! * [`cas`] — the content-addressed store behind deduplicated DR:
//!   `ChunkStore`, [`Manifest`], [`CasStore`].
//!
//! ## The content-addressed store
//!
//! [`CasStore`] deduplicates DR storage at page granularity. Every page of a
//! captured [`VmSnapshot`] is *interned* into a `ChunkStore` keyed by the
//! word-wise [`rvisor_memory::fingerprint`] kernel (the same kernel KSM
//! uses): identical pages across VMs and across backup epochs are stored
//! once, refcounted, and each epoch is recorded as a [`Manifest`] of
//! `(page index, chunk id)` references from which the original snapshot is
//! reconstructed byte-identically.
//!
//! Model assumptions, in decreasing order of importance:
//!
//! * **Collisions degrade, never corrupt.** A chunk's identity is its
//!   fingerprint *plus* an ordinal. Interning compares the full page bytes
//!   against every chunk already stored under the fingerprint; different
//!   bytes get a fresh ordinal. A fingerprint collision therefore costs one
//!   extra stored (and shipped) copy — restore correctness never depends on
//!   the hash being collision-free.
//! * **GC is refcount-driven and immediate.** Retiring a manifest releases
//!   its chunk references; a chunk is dropped the moment its last reference
//!   goes. There is no deferred sweep, no grace period, and ordinals are
//!   never reused, so a stale chunk id can never alias new bytes.
//! * **Bookkeeping costs O(chain), not O(store).** The store keeps, with
//!   each manifest, how many stored incremental manifests name it as
//!   parent: ingesting a child bumps it, retiring one drops it, and
//!   [`CasStore::retire`] refuses on a non-zero count where it used to scan
//!   every live manifest. One private walker checks the chain rules (every
//!   link stored, a bounded length, a full manifest at the root) for
//!   `ingest`'s length limit, `chain_of`, restore and `retire_chain` alike.
//! * **A failed `retire` still balances.** Refused for dependents or an
//!   unknown id, it changes nothing. Past those checks the manifest is
//!   removed first and *every* reference it held is released even if one
//!   names a chunk the store no longer has; that first error is returned
//!   afterwards. Either way `total_refs()` equals the pages of the manifests
//!   still stored, so a retry can release nothing twice.
//! * **What dedup does *not* model:** chunk index lookup cost (interning is
//!   charged zero simulated time — only the shipped bytes pay wire time),
//!   sub-page or content-defined chunk boundaries (chunks are exactly one
//!   guest page), compression of stored chunks, and storage-media failures
//!   (the store is durable by assumption; only *wire* corruption is modeled,
//!   by the frame checksums in `rvisor-migrate`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod backup;
pub mod cas;
pub mod manifest;
pub mod snapshot;
pub mod store;

pub use backup::{BackupPolicy, BackupReport, BackupSimulator, BackupTarget};
pub use cas::{CasStore, ChunkId, IngestStats, Manifest, ManifestId};
pub use manifest::ExportManifest;
pub use snapshot::{MemorySnapshot, SnapshotId, SnapshotKind, VmSnapshot};
pub use store::SnapshotStore;
