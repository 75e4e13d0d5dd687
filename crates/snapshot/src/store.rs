//! The snapshot store: chains of full and incremental snapshots.

use std::collections::BTreeMap;

use rvisor_memory::GuestMemory;
use rvisor_types::{ByteSize, Error, Result};
use rvisor_vcpu::VcpuState;

use crate::snapshot::{SnapshotId, SnapshotKind, VmSnapshot};

/// Maximum length of an incremental chain before the store demands a new full
/// snapshot (long chains make restores slow and fragile).
pub const MAX_CHAIN_LENGTH: usize = 32;

/// Holds snapshots and resolves incremental chains for restore.
#[derive(Debug, Default)]
pub struct SnapshotStore {
    snapshots: BTreeMap<SnapshotId, VmSnapshot>,
    /// How many held snapshots name each id as their parent: `delete`
    /// reads one entry instead of scanning every snapshot.
    dependents: BTreeMap<SnapshotId, usize>,
    next_id: u64,
}

impl SnapshotStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of snapshots held.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Total approximate bytes held across all snapshots.
    pub fn total_size(&self) -> ByteSize {
        ByteSize::new(
            self.snapshots
                .values()
                .map(|s| s.approx_size().as_u64())
                .sum(),
        )
    }

    /// Insert a snapshot, assigning it an id. Incremental snapshots must name
    /// an existing parent and must not exceed [`MAX_CHAIN_LENGTH`].
    pub fn insert(&mut self, mut snapshot: VmSnapshot) -> Result<SnapshotId> {
        if snapshot.kind == SnapshotKind::Incremental {
            let parent = snapshot
                .parent
                .ok_or_else(|| Error::Snapshot("incremental snapshot without a parent".into()))?;
            if !self.snapshots.contains_key(&parent) {
                return Err(Error::Snapshot(format!("parent {parent} does not exist")));
            }
            if self.chain_of(parent)?.len() >= MAX_CHAIN_LENGTH {
                return Err(Error::Snapshot(format!(
                    "chain rooted at {parent} already has {MAX_CHAIN_LENGTH} links; take a full snapshot"
                )));
            }
        }
        self.next_id += 1;
        let id = SnapshotId(self.next_id);
        snapshot.id = id;
        if let Some(parent) = snapshot.parent {
            *self.dependents.entry(parent).or_default() += 1;
        }
        self.snapshots.insert(id, snapshot);
        Ok(id)
    }

    /// Look up a snapshot.
    pub fn get(&self, id: SnapshotId) -> Option<&VmSnapshot> {
        self.snapshots.get(&id)
    }

    /// Delete a snapshot. Fails if another snapshot depends on it.
    pub fn delete(&mut self, id: SnapshotId) -> Result<()> {
        if self.dependents.contains_key(&id) {
            return Err(Error::Snapshot(format!(
                "{id} has dependent incremental snapshots"
            )));
        }
        let removed = self
            .snapshots
            .remove(&id)
            .ok_or_else(|| Error::Snapshot(format!("{id} does not exist")))?;
        if let Some(parent) = removed.parent {
            let count = self
                .dependents
                .get_mut(&parent)
                .expect("a held snapshot's parent counts it");
            *count -= 1;
            if *count == 0 {
                self.dependents.remove(&parent);
            }
        }
        Ok(())
    }

    /// The chain from the full ancestor down to `id`, in application order.
    pub(crate) fn chain_of(&self, id: SnapshotId) -> Result<Vec<&VmSnapshot>> {
        let mut chain = Vec::new();
        let mut cursor = Some(id);
        while let Some(cur) = cursor {
            let snap = self
                .snapshots
                .get(&cur)
                .ok_or_else(|| Error::Snapshot(format!("{cur} missing from the store")))?;
            chain.push(snap);
            if chain.len() > MAX_CHAIN_LENGTH + 1 {
                return Err(Error::Snapshot("snapshot chain too long or cyclic".into()));
            }
            cursor = snap.parent;
        }
        if chain.last().map(|s| s.kind) != Some(SnapshotKind::Full) {
            return Err(Error::Snapshot(format!(
                "chain of {id} does not end in a full snapshot"
            )));
        }
        chain.reverse();
        Ok(chain)
    }

    /// Restore the VM state captured by `id` into `memory`, returning the
    /// vCPU states and the number of pages written.
    pub fn restore(&self, id: SnapshotId, memory: &GuestMemory) -> Result<(Vec<VcpuState>, u64)> {
        let chain = self.chain_of(id)?;
        let mut pages_written = 0u64;
        for snap in &chain {
            snap.memory.apply(memory)?;
            pages_written += snap.memory.page_count();
        }
        let target = chain.last().expect("chain is never empty");
        // After applying the whole chain the memory must match the checksum
        // recorded when the target snapshot was taken.
        if !target.verify_against(memory) {
            return Err(Error::Snapshot(format!(
                "restored memory does not match the checksum of {id} (corrupt chain?)"
            )));
        }
        Ok((target.vcpus.clone(), pages_written))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::MemorySnapshot;
    use rvisor_types::{GuestAddress, Nanoseconds, VmId, PAGE_SIZE};
    use std::collections::BTreeMap;

    fn memory() -> GuestMemory {
        GuestMemory::flat(ByteSize::pages_of(8)).unwrap()
    }

    fn full(vm: u32, mem: &GuestMemory) -> VmSnapshot {
        VmSnapshot::capture_full(
            VmId::new(vm),
            "full",
            Nanoseconds::ZERO,
            mem,
            vec![VcpuState::default()],
            BTreeMap::new(),
        )
        .unwrap()
    }

    #[test]
    fn full_then_incremental_chain_restores() {
        let mem = memory();
        let mut store = SnapshotStore::new();

        mem.write_u64(GuestAddress(0), 1).unwrap();
        mem.clear_dirty();
        let base_id = store.insert(full(1, &mem)).unwrap();

        mem.write_u64(GuestAddress(3 * PAGE_SIZE), 333).unwrap();
        let inc1 = VmSnapshot::capture_incremental(
            VmId::new(1),
            "inc1",
            Nanoseconds::from_secs(10),
            base_id,
            &mem,
            vec![VcpuState::default()],
            BTreeMap::new(),
        )
        .unwrap();
        let inc1_id = store.insert(inc1).unwrap();

        mem.write_u64(GuestAddress(5 * PAGE_SIZE), 555).unwrap();
        let inc2 = VmSnapshot::capture_incremental(
            VmId::new(1),
            "inc2",
            Nanoseconds::from_secs(20),
            inc1_id,
            &mem,
            vec![VcpuState::default()],
            BTreeMap::new(),
        )
        .unwrap();
        let inc2_id = store.insert(inc2).unwrap();

        // Restore the latest point into a fresh memory.
        let target = memory();
        let (vcpus, pages) = store.restore(inc2_id, &target).unwrap();
        assert_eq!(vcpus.len(), 1);
        assert_eq!(pages, 8 + 1 + 1);
        assert_eq!(target.read_u64(GuestAddress(0)).unwrap(), 1);
        assert_eq!(target.read_u64(GuestAddress(3 * PAGE_SIZE)).unwrap(), 333);
        assert_eq!(target.read_u64(GuestAddress(5 * PAGE_SIZE)).unwrap(), 555);

        // Restoring the intermediate point excludes later writes.
        let target_mid = memory();
        store.restore(inc1_id, &target_mid).unwrap();
        assert_eq!(
            target_mid.read_u64(GuestAddress(3 * PAGE_SIZE)).unwrap(),
            333
        );
        assert_eq!(target_mid.read_u64(GuestAddress(5 * PAGE_SIZE)).unwrap(), 0);

        assert_eq!(store.len(), 3);
        assert!(store.total_size().as_u64() > 0);
    }

    #[test]
    fn incremental_without_parent_rejected() {
        let mem = memory();
        let mut store = SnapshotStore::new();
        let mut snap = full(1, &mem);
        snap.kind = SnapshotKind::Incremental;
        snap.parent = None;
        assert!(store.insert(snap).is_err());

        let mut snap = full(1, &mem);
        snap.kind = SnapshotKind::Incremental;
        snap.parent = Some(SnapshotId(99));
        assert!(store.insert(snap).is_err());
        assert!(store.is_empty());
    }

    #[test]
    fn delete_respects_dependencies() {
        let mem = memory();
        let mut store = SnapshotStore::new();
        mem.clear_dirty();
        let base = store.insert(full(1, &mem)).unwrap();
        mem.write_u64(GuestAddress(0), 5).unwrap();
        let inc = VmSnapshot::capture_incremental(
            VmId::new(1),
            "inc",
            Nanoseconds::ZERO,
            base,
            &mem,
            vec![],
            BTreeMap::new(),
        )
        .unwrap();
        let inc_id = store.insert(inc).unwrap();
        assert!(store.delete(base).is_err());
        store.delete(inc_id).unwrap();
        store.delete(base).unwrap();
        assert!(store.delete(base).is_err());

        // A parent with two children stays until the second one goes,
        // whichever order they are deleted in.
        for second_child_first in [false, true] {
            let base = store.insert(full(1, &mem)).unwrap();
            let children = [1, 2].map(|n| {
                mem.write_u64(GuestAddress(n * PAGE_SIZE), n).unwrap();
                let inc = VmSnapshot::capture_incremental(
                    VmId::new(1),
                    "inc",
                    Nanoseconds::ZERO,
                    base,
                    &mem,
                    vec![],
                    BTreeMap::new(),
                )
                .unwrap();
                store.insert(inc).unwrap()
            });
            let [first, second] = if second_child_first {
                [children[1], children[0]]
            } else {
                children
            };
            store.delete(first).unwrap();
            assert!(store.delete(base).is_err(), "one child left");
            store.delete(second).unwrap();
            store.delete(base).unwrap();
            assert!(store.is_empty());
        }
    }

    #[test]
    fn restore_detects_corrupt_chain() {
        let mem = memory();
        let mut store = SnapshotStore::new();
        mem.write_u64(GuestAddress(100), 7).unwrap();
        mem.clear_dirty();
        let base = store.insert(full(1, &mem)).unwrap();
        mem.write_u64(GuestAddress(2 * PAGE_SIZE), 2).unwrap();
        let inc = VmSnapshot::capture_incremental(
            VmId::new(1),
            "inc",
            Nanoseconds::ZERO,
            base,
            &mem,
            vec![],
            BTreeMap::new(),
        )
        .unwrap();
        let inc_id = store.insert(inc).unwrap();
        // Corrupt the base snapshot's stored pages.
        if let Some(snap) = store.snapshots.get_mut(&base) {
            snap.memory = MemorySnapshot {
                total_size: snap.memory.total_size,
                pages: vec![],
            };
        }
        let target = memory();
        assert!(store.restore(inc_id, &target).is_err());
    }

    #[test]
    fn missing_snapshot_errors() {
        let store = SnapshotStore::new();
        let mem = memory();
        assert!(store.restore(SnapshotId(1), &mem).is_err());
        assert!(store.chain_of(SnapshotId(1)).is_err());
        assert!(store.get(SnapshotId(1)).is_none());
    }

    #[test]
    fn chain_length_is_bounded() {
        let mem = memory();
        let mut store = SnapshotStore::new();
        mem.clear_dirty();
        let mut parent = store.insert(full(1, &mem)).unwrap();
        for i in 0..MAX_CHAIN_LENGTH {
            mem.write_u64(GuestAddress(0), i as u64).unwrap();
            let inc = VmSnapshot::capture_incremental(
                VmId::new(1),
                "inc",
                Nanoseconds::ZERO,
                parent,
                &mem,
                vec![],
                BTreeMap::new(),
            )
            .unwrap();
            match store.insert(inc) {
                Ok(id) => parent = id,
                Err(_) => {
                    assert!(i >= MAX_CHAIN_LENGTH - 2, "chain refused too early at {i}");
                    return;
                }
            }
        }
        // One more must fail.
        mem.write_u64(GuestAddress(0), 999).unwrap();
        let inc = VmSnapshot::capture_incremental(
            VmId::new(1),
            "inc",
            Nanoseconds::ZERO,
            parent,
            &mem,
            vec![],
            BTreeMap::new(),
        )
        .unwrap();
        assert!(store.insert(inc).is_err());
    }
}
