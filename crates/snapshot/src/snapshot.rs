//! Point-in-time VM state captures.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use rvisor_memory::GuestMemory;
use rvisor_types::{ByteSize, Error, Nanoseconds, Result, VmId, PAGE_SIZE};
use rvisor_vcpu::VcpuState;

/// Identifies a snapshot within a [`crate::SnapshotStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SnapshotId(pub u64);

impl std::fmt::Display for SnapshotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snap-{}", self.0)
    }
}

/// Whether a snapshot carries all memory or only the pages dirtied since its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SnapshotKind {
    /// Every page of guest memory is included.
    Full,
    /// Only pages dirtied since the parent snapshot are included.
    Incremental,
}

/// The memory portion of a snapshot: a sparse set of page contents.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemorySnapshot {
    /// Total guest memory size the snapshot describes.
    pub(crate) total_size: ByteSize,
    /// `(global page index, page contents)` pairs, ascending by index.
    pub(crate) pages: Vec<(u64, Vec<u8>)>,
}

impl MemorySnapshot {
    /// Capture every page of `memory`. The record's own `Vec<u8>` is the
    /// only allocation per page.
    pub fn capture_full(memory: &GuestMemory) -> Result<Self> {
        let total_pages = memory.total_pages();
        let mut pages = Vec::with_capacity(total_pages as usize);
        for p in 0..total_pages {
            pages.push((p, memory.read_page(p)?));
        }
        Ok(MemorySnapshot {
            total_size: memory.total_size(),
            pages,
        })
    }

    /// Capture only the listed pages of `memory` (any order, duplicates
    /// tolerated).
    pub fn capture_pages(memory: &GuestMemory, page_indices: &[u64]) -> Result<Self> {
        let mut sorted: Vec<u64> = page_indices.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut pages = Vec::with_capacity(sorted.len());
        for &p in &sorted {
            pages.push((p, memory.read_page(p)?));
        }
        Ok(MemorySnapshot {
            total_size: memory.total_size(),
            pages,
        })
    }

    /// Number of pages stored.
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Bytes of page data stored (the dominant component of snapshot size).
    pub fn data_size(&self) -> ByteSize {
        ByteSize::new(self.page_count() * PAGE_SIZE)
    }

    /// Write the stored pages back into `memory`.
    pub fn apply(&self, memory: &GuestMemory) -> Result<()> {
        if memory.total_size() != self.total_size {
            return Err(Error::Snapshot(format!(
                "snapshot describes {} of memory but the target VM has {}",
                self.total_size,
                memory.total_size()
            )));
        }
        for (index, contents) in &self.pages {
            memory.write_page(*index, contents)?;
        }
        Ok(())
    }
}

/// A complete VM snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmSnapshot {
    /// Identifier assigned by the store (zero until stored).
    pub(crate) id: SnapshotId,
    /// The VM this snapshot belongs to.
    pub(crate) vm: VmId,
    /// Human-readable name ("before-upgrade", "nightly-backup", ...).
    pub(crate) name: String,
    /// Full or incremental.
    pub(crate) kind: SnapshotKind,
    /// The parent snapshot an incremental capture is relative to.
    pub(crate) parent: Option<SnapshotId>,
    /// Simulated time at which the snapshot was taken.
    pub(crate) taken_at: Nanoseconds,
    /// Architectural state of every vCPU.
    pub vcpus: Vec<VcpuState>,
    /// Guest memory contents (sparse for incremental snapshots).
    pub memory: MemorySnapshot,
    /// Opaque per-device state blobs keyed by device name.
    pub device_state: BTreeMap<String, Vec<u8>>,
    /// Additive checksum of guest memory at capture time (integrity check).
    pub(crate) memory_checksum: u64,
}

impl VmSnapshot {
    /// Capture a full snapshot.
    pub fn capture_full(
        vm: VmId,
        name: &str,
        taken_at: Nanoseconds,
        memory: &GuestMemory,
        vcpus: Vec<VcpuState>,
        device_state: BTreeMap<String, Vec<u8>>,
    ) -> Result<Self> {
        Ok(VmSnapshot {
            id: SnapshotId(0),
            vm,
            name: name.to_string(),
            kind: SnapshotKind::Full,
            parent: None,
            taken_at,
            vcpus,
            memory: MemorySnapshot::capture_full(memory)?,
            device_state,
            memory_checksum: memory.checksum(),
        })
    }

    /// Capture an incremental snapshot containing only the pages dirtied
    /// since the dirty bitmap was last cleared (typically at the parent
    /// snapshot). The dirty bitmap is drained by this call.
    ///
    /// Page records are built by the batched harvesting traversal
    /// ([`GuestMemory::drain_dirty_pages_with`]): no page-index buffer, one
    /// region lock acquisition per 64-page bitmap word instead of one per
    /// page, and each word's bits are atomically fetched-and-cleared before
    /// its pages are read — a page written concurrently with the capture
    /// stays dirty for the next epoch rather than being silently lost.
    pub fn capture_incremental(
        vm: VmId,
        name: &str,
        taken_at: Nanoseconds,
        parent: SnapshotId,
        memory: &GuestMemory,
        vcpus: Vec<VcpuState>,
        device_state: BTreeMap<String, Vec<u8>>,
    ) -> Result<Self> {
        let mut pages: Vec<(u64, Vec<u8>)> = Vec::new();
        memory.drain_dirty_pages_with(|page, bytes| {
            pages.push((page, bytes.to_vec()));
            Ok::<(), Error>(())
        })?;
        Ok(VmSnapshot {
            id: SnapshotId(0),
            vm,
            name: name.to_string(),
            kind: SnapshotKind::Incremental,
            parent: Some(parent),
            taken_at,
            vcpus,
            memory: MemorySnapshot {
                total_size: memory.total_size(),
                pages,
            },
            device_state,
            memory_checksum: memory.checksum(),
        })
    }

    /// Approximate serialized size: page data + vCPU state + device blobs.
    pub fn approx_size(&self) -> ByteSize {
        let devices: u64 = self.device_state.values().map(|b| b.len() as u64).sum();
        let vcpus = self.vcpus.len() as u64 * std::mem::size_of::<VcpuState>() as u64;
        ByteSize::new(self.memory.data_size().as_u64() + devices + vcpus)
    }

    /// Verify that `memory` currently matches the checksum recorded at capture.
    pub(crate) fn verify_against(&self, memory: &GuestMemory) -> bool {
        memory.checksum() == self.memory_checksum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvisor_types::GuestAddress;

    fn memory() -> GuestMemory {
        GuestMemory::flat(ByteSize::pages_of(16)).unwrap()
    }

    #[test]
    fn full_capture_and_apply_roundtrip() {
        let mem = memory();
        mem.write_u64(GuestAddress(0x100), 0xabcdef).unwrap();
        mem.write_u64(GuestAddress(8 * PAGE_SIZE + 8), 77).unwrap();
        let snap = MemorySnapshot::capture_full(&mem).unwrap();
        assert_eq!(snap.page_count(), 16);
        assert_eq!(snap.data_size(), ByteSize::pages_of(16));

        let target = memory();
        snap.apply(&target).unwrap();
        assert_eq!(target.read_u64(GuestAddress(0x100)).unwrap(), 0xabcdef);
        assert_eq!(
            target.read_u64(GuestAddress(8 * PAGE_SIZE + 8)).unwrap(),
            77
        );
        assert_eq!(target.checksum(), mem.checksum());
    }

    #[test]
    fn apply_to_wrong_size_memory_fails() {
        let mem = memory();
        let snap = MemorySnapshot::capture_full(&mem).unwrap();
        let small = GuestMemory::flat(ByteSize::pages_of(8)).unwrap();
        assert!(snap.apply(&small).is_err());
    }

    #[test]
    fn capture_pages_deduplicates_and_sorts() {
        let mem = memory();
        mem.write_u64(GuestAddress(3 * PAGE_SIZE), 3).unwrap();
        mem.write_u64(GuestAddress(5 * PAGE_SIZE), 5).unwrap();
        let snap = MemorySnapshot::capture_pages(&mem, &[5, 3, 5, 3]).unwrap();
        assert_eq!(snap.page_count(), 2);
        assert_eq!(snap.pages[0].0, 3);
        assert_eq!(snap.pages[1].0, 5);
        assert!(MemorySnapshot::capture_pages(&mem, &[100]).is_err());
    }

    #[test]
    fn incremental_captures_only_dirty_pages() {
        let mem = memory();
        mem.write_u64(GuestAddress(0), 1).unwrap();
        mem.clear_dirty();
        let full = VmSnapshot::capture_full(
            VmId::new(1),
            "base",
            Nanoseconds::ZERO,
            &mem,
            vec![VcpuState::default()],
            BTreeMap::new(),
        )
        .unwrap();
        assert_eq!(full.kind, SnapshotKind::Full);
        assert_eq!(full.memory.page_count(), 16);

        // Dirty two pages after the full snapshot.
        mem.write_u64(GuestAddress(2 * PAGE_SIZE), 22).unwrap();
        mem.write_u64(GuestAddress(9 * PAGE_SIZE), 99).unwrap();
        let incr = VmSnapshot::capture_incremental(
            VmId::new(1),
            "delta",
            Nanoseconds::from_secs(60),
            SnapshotId(1),
            &mem,
            vec![VcpuState::default()],
            BTreeMap::new(),
        )
        .unwrap();
        assert_eq!(incr.kind, SnapshotKind::Incremental);
        assert_eq!(incr.memory.page_count(), 2);
        assert_eq!(incr.parent, Some(SnapshotId(1)));
        assert!(incr.approx_size() < full.approx_size());
        // The dirty bitmap was drained by the capture.
        assert_eq!(mem.dirty_page_count(), 0);
    }

    #[test]
    fn checksum_verification() {
        let mem = memory();
        mem.write_u64(GuestAddress(64), 42).unwrap();
        let snap = VmSnapshot::capture_full(
            VmId::new(2),
            "check",
            Nanoseconds::ZERO,
            &mem,
            vec![],
            BTreeMap::new(),
        )
        .unwrap();
        assert!(snap.verify_against(&mem));
        mem.write_u64(GuestAddress(64), 43).unwrap();
        assert!(!snap.verify_against(&mem));
    }

    #[test]
    fn snapshot_id_display() {
        assert_eq!(SnapshotId(7).to_string(), "snap-7");
    }
}
