//! Content-addressed chunk store and manifest-based restore for
//! deduplicated disaster recovery.
//!
//! The DR endpoint stores guest pages as *chunks* keyed by the word-wise
//! [`fingerprint`] kernel. Chunks are write-once and refcounted: interning a
//! page whose bytes are already stored bumps a refcount instead of storing a
//! second copy, and releasing the last reference garbage-collects the entry.
//! A fingerprint collision (two different pages hashing alike) is detected by
//! a full-page byte compare against the stored bytes and degrades to a fresh
//! chunk under a new ordinal — never to corruption.
//!
//! A [`Manifest`] records one backup epoch: every field of the captured
//! [`VmSnapshot`] except the page bytes, which it holds as
//! `(page index, chunk id)` references. [`CasStore::reconstruct`] rebuilds
//! the original snapshot byte-identically, and [`CasStore::restore`] applies
//! a manifest chain (full parent plus incremental children) directly to
//! guest memory with the same checksum verification as
//! [`crate::SnapshotStore::restore`]. A dependents count and a chain length
//! per manifest keep `retire` and `ingest` O(1) in the chain; the crate docs
//! state how a `retire` fails.
//!
//! # Epochs straight from guest memory
//!
//! [`CasStore::ingest_memory`] records an epoch with no [`VmSnapshot`] and
//! no page copy. It checks the chain rules first, so a refused epoch leaves
//! the guest's dirty bitmap as it was; then takes the checksum, which
//! settles every page's known-zero bit ([`rvisor_memory::region`]); then
//! interns page by page, through the one loop [`CasStore::ingest`] uses: a
//! known-zero page, unread, as the zero chunk (`ZERO_PAGE_FINGERPRINT`), any
//! other page fingerprinted in place.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use rvisor_memory::{fingerprint, GuestMemory};
use rvisor_types::{ByteSize, Error, Nanoseconds, Result, VmId};
use rvisor_vcpu::VcpuState;

use crate::snapshot::{MemorySnapshot, SnapshotId, SnapshotKind, VmSnapshot};
use crate::store::MAX_CHAIN_LENGTH;

/// `fingerprint(&[0; PAGE_SIZE])`: the key of the zero chunk, which
/// [`CasStore::ingest_memory`] interns for a known-zero page without
/// reading it.
pub(crate) const ZERO_PAGE_FINGERPRINT: u64 = 0xb93a_0c83_ce3b_6325;

/// Identifies a chunk in a `ChunkStore`.
///
/// The fingerprint alone is not the identity: two distinct pages may collide
/// on it, in which case they are stored under distinct `ordinal`s. Ordinals
/// are never reused, even after the chunk they named is garbage-collected,
/// so a stale `ChunkId` can never silently resolve to different bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChunkId {
    /// Word-wise FNV-1a fingerprint of the chunk bytes.
    pub(crate) fingerprint: u64,
    /// Disambiguates fingerprint collisions; 0 for the first chunk stored
    /// under a fingerprint.
    pub(crate) ordinal: u32,
}

impl std::fmt::Display for ChunkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chunk-{:016x}.{}", self.fingerprint, self.ordinal)
    }
}

#[derive(Debug)]
struct ChunkEntry {
    bytes: Vec<u8>,
    refs: u64,
}

#[derive(Debug, Default)]
struct ChunkSlot {
    entries: BTreeMap<u32, ChunkEntry>,
    /// Next ordinal to assign under this fingerprint. Monotonic — GC removes
    /// entries but never rewinds this, so chunk ids are never recycled.
    next_ordinal: u32,
}

/// Write-once, refcounted, fingerprint-keyed page store.
#[derive(Debug, Default)]
pub(crate) struct ChunkStore {
    slots: BTreeMap<u64, ChunkSlot>,
    stored_bytes: u64,
    chunk_count: u64,
    total_refs: u64,
}

impl ChunkStore {
    /// Intern `bytes`, returning the chunk id and whether the bytes were
    /// *novel* (stored by this call) or deduplicated against an existing
    /// chunk. Either way the returned id holds one new reference.
    pub(crate) fn intern(&mut self, bytes: &[u8]) -> (ChunkId, bool) {
        self.intern_keyed(fingerprint(bytes), bytes)
    }

    /// [`intern`](Self::intern) with the fingerprint supplied by the caller.
    /// Split out so tests can force two different byte strings into the same
    /// fingerprint slot and exercise the collision path, which real FNV-1a
    /// inputs cannot practically produce.
    fn intern_keyed(&mut self, fp: u64, bytes: &[u8]) -> (ChunkId, bool) {
        let slot = self.slots.entry(fp).or_default();
        for (ordinal, entry) in slot.entries.iter_mut() {
            if entry.bytes == bytes {
                entry.refs += 1;
                self.total_refs += 1;
                return (
                    ChunkId {
                        fingerprint: fp,
                        ordinal: *ordinal,
                    },
                    false,
                );
            }
        }
        // Fingerprint miss or collision: store fresh bytes under the next
        // ordinal. A collision costs one extra stored copy, nothing else.
        let ordinal = slot.next_ordinal;
        slot.next_ordinal += 1;
        slot.entries.insert(
            ordinal,
            ChunkEntry {
                bytes: bytes.to_vec(),
                refs: 1,
            },
        );
        self.stored_bytes += bytes.len() as u64;
        self.chunk_count += 1;
        self.total_refs += 1;
        (
            ChunkId {
                fingerprint: fp,
                ordinal,
            },
            true,
        )
    }

    /// The stored bytes of a chunk.
    pub(crate) fn get(&self, id: ChunkId) -> Option<&[u8]> {
        self.slots
            .get(&id.fingerprint)
            .and_then(|s| s.entries.get(&id.ordinal))
            .map(|e| e.bytes.as_slice())
    }

    /// Drop one reference to `id`; the entry is garbage-collected when the
    /// last reference goes. Errors on an unknown id (double release).
    pub(crate) fn release(&mut self, id: ChunkId) -> Result<()> {
        let slot = self
            .slots
            .get_mut(&id.fingerprint)
            .ok_or_else(|| Error::Snapshot(format!("release of unknown {id}")))?;
        let entry = slot
            .entries
            .get_mut(&id.ordinal)
            .ok_or_else(|| Error::Snapshot(format!("release of unknown {id}")))?;
        entry.refs -= 1;
        self.total_refs -= 1;
        if entry.refs == 0 {
            let len = entry.bytes.len() as u64;
            slot.entries.remove(&id.ordinal);
            self.stored_bytes -= len;
            self.chunk_count -= 1;
        }
        Ok(())
    }

    /// Number of distinct chunks stored.
    pub(crate) fn chunks(&self) -> u64 {
        self.chunk_count
    }

    /// Bytes of chunk payload stored (each unique page counted once).
    pub(crate) fn stored_bytes(&self) -> ByteSize {
        ByteSize::new(self.stored_bytes)
    }
}

/// Identifies a manifest within a [`CasStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ManifestId(pub u64);

impl std::fmt::Display for ManifestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "manifest-{}", self.0)
    }
}

/// One backup epoch of one VM: every [`VmSnapshot`] field, with page bytes
/// replaced by chunk references.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Identifier assigned by the store (zero until stored).
    pub(crate) id: ManifestId,
    /// The manifest chain parent (the epoch an incremental is relative to).
    pub(crate) parent: Option<ManifestId>,
    /// `id` field of the ingested snapshot, preserved for byte-identical
    /// reconstruction.
    pub(crate) snapshot_id: SnapshotId,
    /// `parent` field of the ingested snapshot, preserved likewise.
    pub(crate) snapshot_parent: Option<SnapshotId>,
    /// The VM this epoch belongs to.
    pub(crate) vm: VmId,
    /// Human-readable snapshot name.
    pub(crate) name: String,
    /// Full or incremental.
    pub(crate) kind: SnapshotKind,
    /// Simulated time of capture.
    pub(crate) taken_at: Nanoseconds,
    /// Architectural state of every vCPU.
    pub(crate) vcpus: Vec<VcpuState>,
    /// Total guest memory size the epoch describes.
    pub(crate) total_size: ByteSize,
    /// `(global page index, chunk id)` pairs, ascending by index.
    pub(crate) pages: Vec<(u64, ChunkId)>,
    /// Opaque per-device state blobs keyed by device name.
    pub(crate) device_state: BTreeMap<String, Vec<u8>>,
    /// Additive checksum of guest memory at capture time.
    pub(crate) memory_checksum: u64,
}

/// Per-ingest dedup accounting, the numbers the wire path ships by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Pages whose bytes were not yet stored — these must cross the wire.
    pub chunks_novel: u64,
    /// Pages deduplicated against an already-stored chunk — only a
    /// reference crosses the wire.
    pub chunks_deduped: u64,
    /// Payload bytes of the novel chunks.
    pub bytes_novel: u64,
    /// Payload bytes the dedup avoided storing (and shipping).
    pub bytes_deduped: u64,
}

/// A content-addressed DR store: a `ChunkStore` plus the manifests that
/// reference into it.
#[derive(Debug, Default)]
pub struct CasStore {
    chunks: ChunkStore,
    /// Each manifest with its dependents count — how many stored manifests
    /// name it as `parent`, which `retire` would otherwise scan to learn —
    /// and its chain length (1 for a full manifest, the parent's + 1
    /// otherwise), which `ingest` would otherwise walk to learn.
    manifests: BTreeMap<ManifestId, (Manifest, u64, usize)>,
    next_id: u64,
}

impl CasStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest a captured snapshot: intern every page, record a manifest.
    /// `parent` is the manifest of the previous epoch for incremental
    /// captures (chain rules mirror [`crate::SnapshotStore::insert`]).
    pub fn ingest(
        &mut self,
        snapshot: &VmSnapshot,
        parent: Option<ManifestId>,
    ) -> Result<(ManifestId, IngestStats)> {
        let parent = self.chain_parent(snapshot.kind, parent)?;
        let manifest = Manifest {
            id: ManifestId(0),
            parent,
            snapshot_id: snapshot.id,
            snapshot_parent: snapshot.parent,
            vm: snapshot.vm,
            name: snapshot.name.clone(),
            kind: snapshot.kind,
            taken_at: snapshot.taken_at,
            vcpus: snapshot.vcpus.clone(),
            total_size: snapshot.memory.total_size,
            pages: Vec::with_capacity(snapshot.memory.pages.len()),
            device_state: snapshot.device_state.clone(),
            memory_checksum: snapshot.memory_checksum,
        };
        self.record(manifest, |intern| {
            for (index, bytes) in &snapshot.memory.pages {
                intern(*index, bytes, false);
            }
            Ok(())
        })
    }

    /// Ingest an epoch of a quiescent guest straight from its memory (see
    /// the module docs): full, clearing the dirty bitmap, when `parent` is
    /// `None`; else incremental on `parent`, draining it. It records what
    /// [`Self::ingest`] records for the guest's full or incremental capture;
    /// a refused epoch changes nothing, the dirty bitmap included.
    pub fn ingest_memory(
        &mut self,
        vm: VmId,
        name: &str,
        taken_at: Nanoseconds,
        memory: &GuestMemory,
        vcpus: Vec<VcpuState>,
        parent: Option<ManifestId>,
    ) -> Result<(ManifestId, IngestStats)> {
        let kind = match parent {
            None => SnapshotKind::Full,
            Some(_) => SnapshotKind::Incremental,
        };
        let parent = self.chain_parent(kind, parent)?;
        let snapshot_parent = parent.and_then(|p| self.get(p)).map(|m| m.snapshot_id);
        if parent.is_none() {
            memory.clear_dirty();
        }
        let manifest = Manifest {
            id: ManifestId(0),
            parent,
            snapshot_id: SnapshotId(0),
            snapshot_parent,
            vm,
            name: name.to_string(),
            kind,
            taken_at,
            vcpus,
            total_size: memory.total_size(),
            pages: Vec::new(),
            device_state: BTreeMap::new(),
            memory_checksum: memory.checksum(),
        };
        self.record(manifest, |intern| match parent {
            None => (0..memory.total_pages()).try_for_each(|page| {
                memory.with_page_or_zero(page, |bytes, zero| intern(page, bytes, zero))
            }),
            Some(_) => memory.drain_dirty_pages_with(|page, bytes| {
                intern(page, bytes, false);
                Ok(())
            }),
        })
    }

    /// The chain rules for an epoch of `kind` on `parent`: a full epoch has
    /// no parent (any given is ignored); an incremental one needs a stored
    /// parent whose chain is shorter than `MAX_CHAIN_LENGTH`.
    fn chain_parent(
        &self,
        kind: SnapshotKind,
        parent: Option<ManifestId>,
    ) -> Result<Option<ManifestId>> {
        if kind == SnapshotKind::Full {
            return Ok(None);
        }
        let p = parent
            .ok_or_else(|| Error::Snapshot("incremental manifest without a parent".into()))?;
        match self.manifests.get(&p) {
            None => Err(Error::Snapshot(format!("parent {p} does not exist"))),
            Some((_, _, links)) if *links >= MAX_CHAIN_LENGTH => Err(Error::Snapshot(format!(
                "chain rooted at {p} already has {MAX_CHAIN_LENGTH} links; take a full snapshot"
            ))),
            Some(_) => Ok(Some(p)),
        }
    }

    /// The one interning loop: `pages` hands it each page's `(index, bytes,
    /// known zero)` in ascending order — a known-zero page is interned under
    /// `ZERO_PAGE_FINGERPRINT`, unhashed — then `manifest`, its parent
    /// checked, is stored. If `pages` fails, nothing is kept.
    fn record(
        &mut self,
        mut manifest: Manifest,
        pages: impl FnOnce(&mut dyn FnMut(u64, &[u8], bool)) -> Result<()>,
    ) -> Result<(ManifestId, IngestStats)> {
        let mut stats = IngestStats::default();
        let chunks = &mut self.chunks;
        let walked = pages(&mut |index, bytes, zero| {
            let (id, novel) = match zero {
                true => chunks.intern_keyed(ZERO_PAGE_FINGERPRINT, bytes),
                false => chunks.intern(bytes),
            };
            let (count, byte_count) = match novel {
                true => (&mut stats.chunks_novel, &mut stats.bytes_novel),
                false => (&mut stats.chunks_deduped, &mut stats.bytes_deduped),
            };
            *count += 1;
            *byte_count += bytes.len() as u64;
            manifest.pages.push((index, id));
        });
        if let Err(e) = walked {
            for (_, chunk) in &manifest.pages {
                self.chunks.release(*chunk)?;
            }
            return Err(e);
        }
        let links = match manifest.parent.and_then(|p| self.manifests.get_mut(&p)) {
            Some((_, dependents, links)) => {
                *dependents += 1;
                *links + 1
            }
            None => 1,
        };
        self.next_id += 1;
        manifest.id = ManifestId(self.next_id);
        let id = manifest.id;
        self.manifests.insert(id, (manifest, 0, links));
        Ok((id, stats))
    }

    /// Look up a manifest.
    pub(crate) fn get(&self, id: ManifestId) -> Option<&Manifest> {
        self.manifests.get(&id).map(|(manifest, _, _)| manifest)
    }

    /// Rebuild the ingested [`VmSnapshot`] byte-identically from a manifest.
    pub fn reconstruct(&self, id: ManifestId) -> Result<VmSnapshot> {
        let manifest = self
            .get(id)
            .ok_or_else(|| Error::Snapshot(format!("{id} missing from the store")))?;
        let mut pages = Vec::with_capacity(manifest.pages.len());
        for (index, chunk) in &manifest.pages {
            let bytes = self.chunks.get(*chunk).ok_or_else(|| {
                Error::Snapshot(format!("{id} references missing {chunk} (page {index})"))
            })?;
            pages.push((*index, bytes.to_vec()));
        }
        Ok(VmSnapshot {
            id: manifest.snapshot_id,
            vm: manifest.vm,
            name: manifest.name.clone(),
            kind: manifest.kind,
            parent: manifest.snapshot_parent,
            taken_at: manifest.taken_at,
            vcpus: manifest.vcpus.clone(),
            memory: MemorySnapshot {
                total_size: manifest.total_size,
                pages,
            },
            device_state: manifest.device_state.clone(),
            memory_checksum: manifest.memory_checksum,
        })
    }

    /// Call `f` on each link of the chain of `id`, newest first, and return
    /// their number. Where a chain is read, its rules are checked here:
    /// every link stored, at most `MAX_CHAIN_LENGTH + 1` of them, a full one
    /// last.
    fn walk_chain<'a>(&'a self, id: ManifestId, mut f: impl FnMut(&'a Manifest)) -> Result<usize> {
        let (mut len, mut last_kind) = (0, None);
        let mut cursor = Some(id);
        while let Some(cur) = cursor {
            let manifest = self
                .get(cur)
                .ok_or_else(|| Error::Snapshot(format!("{cur} missing from the store")))?;
            len += 1;
            if len > MAX_CHAIN_LENGTH + 1 {
                return Err(Error::Snapshot("manifest chain too long or cyclic".into()));
            }
            f(manifest);
            (last_kind, cursor) = (Some(manifest.kind), manifest.parent);
        }
        if last_kind != Some(SnapshotKind::Full) {
            return Err(Error::Snapshot(format!(
                "chain of {id} does not end in a full manifest"
            )));
        }
        Ok(len)
    }

    /// The chain from the full ancestor down to `id`, in application order.
    pub(crate) fn chain_of(&self, id: ManifestId) -> Result<Vec<&Manifest>> {
        let mut chain = Vec::new();
        self.walk_chain(id, |m| chain.push(m))?;
        chain.reverse();
        Ok(chain)
    }

    /// Restore the epoch captured by `id` into `memory`, returning the vCPU
    /// states and the number of pages written. Applies the whole manifest
    /// chain oldest-first and verifies the target epoch's memory checksum,
    /// exactly like [`crate::SnapshotStore::restore`].
    pub fn restore(&self, id: ManifestId, memory: &GuestMemory) -> Result<(Vec<VcpuState>, u64)> {
        let chain: Vec<ManifestId> = self.chain_of(id)?.iter().map(|m| m.id).collect();
        let mut pages_written = 0u64;
        let mut target = None;
        for link in chain {
            let snap = self.reconstruct(link)?;
            snap.memory.apply(memory)?;
            pages_written += snap.memory.page_count();
            target = Some(snap);
        }
        let target = target.expect("chain is never empty");
        if !target.verify_against(memory) {
            return Err(Error::Snapshot(format!(
                "restored memory does not match the checksum of {id} (corrupt chain?)"
            )));
        }
        Ok((target.vcpus, pages_written))
    }

    /// Bytes that must be read back to restore the epoch `id`: the page
    /// data, vCPU state and device blobs of every link in its chain.
    pub fn chain_restore_size(&self, id: ManifestId) -> Result<ByteSize> {
        let mut total = 0u64;
        for manifest in self.chain_of(id)? {
            let devices: u64 = manifest.device_state.values().map(|b| b.len() as u64).sum();
            let vcpus = manifest.vcpus.len() as u64 * std::mem::size_of::<VcpuState>() as u64;
            let pages: u64 = manifest
                .pages
                .iter()
                .map(|(_, c)| self.chunks.get(*c).map_or(0, |b| b.len() as u64))
                .sum();
            total += pages + vcpus + devices;
        }
        Ok(ByteSize::new(total))
    }

    /// Retire an epoch: drop the manifest and release every chunk reference
    /// it holds (unreferenced chunks are garbage-collected). Fails, changing
    /// nothing, if a dependent incremental manifest still exists or `id` is
    /// not stored. A chunk the store has lost is reported only once the
    /// manifest is gone and every other reference released: `total_refs`
    /// stays the page count of the manifests left, a retry frees nothing twice.
    pub fn retire(&mut self, id: ManifestId) -> Result<()> {
        if self.manifests.get(&id).is_some_and(|(_, n, _)| *n > 0) {
            return Err(Error::Snapshot(format!("{id} has dependent manifests")));
        }
        let (manifest, _, _) = self
            .manifests
            .remove(&id)
            .ok_or_else(|| Error::Snapshot(format!("{id} does not exist")))?;
        if let Some((_, dependents, _)) = manifest.parent.and_then(|p| self.manifests.get_mut(&p)) {
            *dependents -= 1;
        }
        let mut outcome = Ok(());
        for (_, chunk) in &manifest.pages {
            outcome = outcome.and(self.chunks.release(*chunk));
        }
        outcome
    }

    /// Retire the epoch `id` and every ancestor in its chain, newest first —
    /// the GC path for a lost or departed VM.
    pub fn retire_chain(&mut self, id: ManifestId) -> Result<()> {
        let chain: Vec<ManifestId> = self.chain_of(id)?.iter().map(|m| m.id).collect();
        for link in chain.into_iter().rev() {
            self.retire(link)?;
        }
        Ok(())
    }

    /// Number of manifests held.
    pub fn manifest_count(&self) -> usize {
        self.manifests.len()
    }

    /// Number of distinct chunks stored.
    pub fn chunk_count(&self) -> u64 {
        self.chunks.chunks()
    }

    /// Bytes of unique chunk payload stored — the store's occupancy.
    pub fn stored_bytes(&self) -> ByteSize {
        self.chunks.stored_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SnapshotStore;
    use rvisor_types::{GuestAddress, PAGE_SIZE};

    impl ChunkStore {
        /// Create an empty store.
        pub(crate) fn new() -> Self {
            Self::default()
        }

        /// Total outstanding references across all chunks (each page slot of
        /// each live manifest counts one).
        pub(crate) fn total_refs(&self) -> u64 {
            self.total_refs
        }
    }

    impl CasStore {
        /// Outstanding chunk references across all manifests.
        pub(crate) fn total_refs(&self) -> u64 {
            self.chunks.total_refs()
        }
    }

    /// The store's derived state against the scans it stands in for. Uses
    /// nothing of this test module, so ROADMAP 4a's always-on auditor can
    /// take it as is.
    impl CasStore {
        pub(crate) fn audit(&self) -> Result<()> {
            let fail = |what: String| Err(Error::Snapshot(format!("CAS audit: {what}")));
            for (id, (_, counted, links)) in &self.manifests {
                let children = |(m, _, _): &&(Manifest, u64, usize)| m.parent == Some(*id);
                let scanned = self.manifests.values().filter(children).count() as u64;
                if scanned != *counted {
                    return fail(format!("{id}: {scanned} dependents, {counted} counted"));
                }
                let walked = self.walk_chain(*id, |_| ()).map_err(|e| e.to_string());
                let listed = self.chain_of(*id).map(|c| c.len());
                if walked != listed.map_err(|e| e.to_string()) {
                    return fail(format!("{id}: walker says {walked:?}"));
                }
                if walked.as_ref().is_ok_and(|walked| walked != links) {
                    return fail(format!("{id}: walker says {walked:?}, {links} recorded"));
                }
            }
            let held = self
                .manifests
                .values()
                .map(|(m, _, _)| m.pages.len() as u64);
            let held: u64 = held.sum();
            if held != self.total_refs() {
                return fail(format!("{held} page slots, {} refs", self.total_refs()));
            }
            Ok(())
        }
    }

    /// `Error::Snapshot`'s message; any other error type fails the test.
    fn message<T: std::fmt::Debug>(result: Result<T>) -> std::result::Result<T, String> {
        result.map_err(|e| match e {
            Error::Snapshot(message) => message,
            other => panic!("not a snapshot error: {other:?}"),
        })
    }

    fn memory(pages: u64) -> GuestMemory {
        GuestMemory::flat(ByteSize::pages_of(pages)).unwrap()
    }

    fn capture_dirty(vm: u32, mem: &GuestMemory) -> VmSnapshot {
        VmSnapshot::capture_incremental(
            VmId::new(vm),
            "inc",
            Nanoseconds::ZERO,
            SnapshotId(1),
            mem,
            vec![],
            BTreeMap::new(),
        )
        .unwrap()
    }

    fn capture(vm: u32, mem: &GuestMemory) -> VmSnapshot {
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
    fn intern_dedups_and_refcounts() {
        let mut store = ChunkStore::new();
        let page_a = vec![7u8; PAGE_SIZE as usize];
        let page_b = vec![9u8; PAGE_SIZE as usize];

        let (a1, novel) = store.intern(&page_a);
        assert!(novel);
        let (a2, novel) = store.intern(&page_a);
        assert!(!novel);
        assert_eq!(a1, a2);
        let (b1, novel) = store.intern(&page_b);
        assert!(novel);
        assert_ne!(a1, b1);

        assert_eq!(store.chunks(), 2);
        assert_eq!(store.total_refs(), 3);
        assert_eq!(store.stored_bytes().as_u64(), 2 * PAGE_SIZE);
        assert_eq!(store.get(a1).unwrap(), page_a.as_slice());
        assert_eq!(store.get(b1).unwrap(), page_b.as_slice());
    }

    #[test]
    fn release_garbage_collects_at_zero_refs() {
        let mut store = ChunkStore::new();
        let page = vec![3u8; PAGE_SIZE as usize];
        let (id, _) = store.intern(&page);
        store.intern(&page);
        store.release(id).unwrap();
        assert_eq!(store.chunks(), 1, "one ref still outstanding");
        store.release(id).unwrap();
        assert_eq!(store.chunks(), 0);
        assert_eq!(store.stored_bytes().as_u64(), 0);
        assert!(store.get(id).is_none());
        assert!(store.release(id).is_err(), "double release is an error");
    }

    #[test]
    fn fingerprint_collision_degrades_to_fresh_chunk() {
        let mut store = ChunkStore::new();
        // Force two different byte strings into the same fingerprint slot —
        // the full-page compare must notice and assign a new ordinal.
        let (first, novel) = store.intern_keyed(0xdead_beef, b"one page of bytes");
        assert!(novel);
        let (second, novel) = store.intern_keyed(0xdead_beef, b"a different page!");
        assert!(novel, "colliding bytes must be stored fresh");
        assert_eq!(first.fingerprint, second.fingerprint);
        assert_ne!(first.ordinal, second.ordinal);
        assert_eq!(store.get(first).unwrap(), b"one page of bytes");
        assert_eq!(store.get(second).unwrap(), b"a different page!");

        // Re-interning either byte string still finds its own chunk.
        let (again, novel) = store.intern_keyed(0xdead_beef, b"a different page!");
        assert!(!novel);
        assert_eq!(again, second);
    }

    #[test]
    fn ordinals_are_never_reused_after_gc() {
        let mut store = ChunkStore::new();
        let (first, _) = store.intern_keyed(1, b"aaaa");
        store.release(first).unwrap();
        let (second, _) = store.intern_keyed(1, b"aaaa");
        assert_ne!(
            first.ordinal, second.ordinal,
            "a GC'd ordinal must stay dead so stale ids cannot alias"
        );
    }

    #[test]
    fn ingest_then_reconstruct_is_byte_identical() {
        let mem = memory(8);
        mem.write_u64(GuestAddress(0), 0x1111).unwrap();
        mem.write_u64(GuestAddress(5 * PAGE_SIZE), 0x5555).unwrap();
        let mut snap = capture(1, &mem);
        snap.id = SnapshotId(42);
        snap.device_state.insert("nic0".into(), vec![1, 2, 3]);

        let mut cas = CasStore::new();
        let (id, stats) = cas.ingest(&snap, None).unwrap();
        let rebuilt = cas.reconstruct(id).unwrap();
        assert_eq!(rebuilt, snap, "reconstruction must be byte-identical");

        // 8 pages: six are all-zero and dedup to one chunk after the first.
        assert_eq!(stats.chunks_novel + stats.chunks_deduped, 8);
        assert_eq!(stats.chunks_novel, 3, "two distinct pages + one zero page");
        assert_eq!(stats.chunks_deduped, 5);
        assert_eq!(stats.bytes_novel, 3 * PAGE_SIZE);
        assert_eq!(stats.bytes_deduped, 5 * PAGE_SIZE);
        assert_eq!(cas.stored_bytes().as_u64(), 3 * PAGE_SIZE);
    }

    #[test]
    fn identical_vms_share_chunks_across_ingests() {
        let mem_a = memory(8);
        let mem_b = memory(8);
        for m in [&mem_a, &mem_b] {
            m.write_u64(GuestAddress(0), 77).unwrap();
        }
        let mut cas = CasStore::new();
        let (_, first) = cas.ingest(&capture(1, &mem_a), None).unwrap();
        let (_, second) = cas.ingest(&capture(2, &mem_b), None).unwrap();
        assert_eq!(first.chunks_novel, 2);
        assert_eq!(
            second.chunks_novel, 0,
            "an identical twin ships zero novel chunks"
        );
        assert_eq!(second.chunks_deduped, 8);
        assert_eq!(cas.stored_bytes().as_u64(), 2 * PAGE_SIZE);
    }

    #[test]
    fn manifest_chain_restores_like_the_snapshot_store() {
        let mem = memory(8);
        let mut cas = CasStore::new();
        let mut plain = SnapshotStore::new();

        mem.write_u64(GuestAddress(0), 1).unwrap();
        mem.clear_dirty();
        let full_snap = capture(1, &mem);
        let plain_base = plain.insert(full_snap.clone()).unwrap();
        let (cas_base, _) = cas.ingest(&full_snap, None).unwrap();

        mem.write_u64(GuestAddress(3 * PAGE_SIZE), 333).unwrap();
        let inc = VmSnapshot::capture_incremental(
            VmId::new(1),
            "inc",
            Nanoseconds::from_secs(10),
            plain_base,
            &mem,
            vec![VcpuState::default()],
            BTreeMap::new(),
        )
        .unwrap();
        let plain_inc = plain.insert(inc.clone()).unwrap();
        let (cas_inc, stats) = cas.ingest(&inc, Some(cas_base)).unwrap();
        assert_eq!(stats.chunks_novel, 1, "only the dirtied page is novel");

        let via_plain = memory(8);
        let via_cas = memory(8);
        let (vcpus_p, pages_p) = plain.restore(plain_inc, &via_plain).unwrap();
        let (vcpus_c, pages_c) = cas.restore(cas_inc, &via_cas).unwrap();
        assert_eq!(vcpus_p, vcpus_c);
        assert_eq!(pages_p, pages_c);
        assert_eq!(via_plain.checksum(), via_cas.checksum());
        assert_eq!(via_cas.read_u64(GuestAddress(3 * PAGE_SIZE)).unwrap(), 333);

        assert!(
            cas.chain_restore_size(cas_inc).unwrap() > cas.chain_restore_size(cas_base).unwrap()
        );
    }

    #[test]
    fn page_discarded_between_epochs_restores_through_both_stores() {
        // A balloon inflate between two backup epochs: the page's bytes are
        // gone from the guest, so the incremental epoch must carry the zero
        // page or its checksum describes memory the chain cannot rebuild.
        let mem = memory(8);
        let mut cas = CasStore::new();
        let mut plain = SnapshotStore::new();

        mem.write_u64(GuestAddress(3 * PAGE_SIZE), 0xdead).unwrap();
        let full_snap = capture(1, &mem);
        mem.clear_dirty();
        let plain_base = plain.insert(full_snap.clone()).unwrap();
        let (cas_base, _) = cas.ingest(&full_snap, None).unwrap();

        mem.discard_page(3).unwrap();
        let inc = VmSnapshot::capture_incremental(
            VmId::new(1),
            "inc",
            Nanoseconds::from_secs(10),
            plain_base,
            &mem,
            vec![VcpuState::default()],
            BTreeMap::new(),
        )
        .unwrap();
        assert_eq!(inc.memory.page_count(), 1);
        let plain_inc = plain.insert(inc.clone()).unwrap();
        let (cas_inc, stats) = cas.ingest(&inc, Some(cas_base)).unwrap();
        assert_eq!(stats.chunks_deduped, 1, "the zero page is already stored");

        let via_plain = memory(8);
        let via_cas = memory(8);
        plain
            .restore(plain_inc, &via_plain)
            .expect("SnapshotStore restores the epoch");
        cas.restore(cas_inc, &via_cas)
            .expect("CasStore restores the epoch");
        assert_eq!(via_cas.read_u64(GuestAddress(3 * PAGE_SIZE)).unwrap(), 0);
        assert!(inc.verify_against(&via_plain));
    }

    #[test]
    fn incremental_chain_rules_are_enforced() {
        let mem = memory(4);
        let mut cas = CasStore::new();
        mem.clear_dirty();
        mem.write_u64(GuestAddress(0), 9).unwrap();
        let mut inc = capture_dirty(1, &mem);
        assert!(
            cas.ingest(&inc, None).is_err(),
            "incremental needs a parent"
        );
        assert!(
            cas.ingest(&inc, Some(ManifestId(99))).is_err(),
            "parent must exist"
        );
        inc.kind = SnapshotKind::Full;
        inc.parent = None;
        let (id, _) = cas.ingest(&inc, None).unwrap();
        assert!(cas.get(id).is_some());
        assert!(cas.reconstruct(ManifestId(99)).is_err());
        assert!(cas.restore(ManifestId(99), &mem).is_err());
    }

    #[test]
    fn retire_releases_chunks_and_respects_dependents() {
        let mem = memory(8);
        let mut cas = CasStore::new();
        mem.write_u64(GuestAddress(0), 11).unwrap();
        mem.clear_dirty();
        let full_snap = capture(1, &mem);
        let (base, _) = cas.ingest(&full_snap, None).unwrap();

        mem.write_u64(GuestAddress(2 * PAGE_SIZE), 22).unwrap();
        let (inc_id, _) = cas.ingest(&capture_dirty(1, &mem), Some(base)).unwrap();

        assert!(
            cas.retire(base).is_err(),
            "dependent manifest blocks retire"
        );
        cas.retire_chain(inc_id).unwrap();
        assert_eq!(cas.manifest_count(), 0);
        assert_eq!(cas.chunk_count(), 0, "all chunks garbage-collected");
        assert_eq!(cas.stored_bytes().as_u64(), 0);
        assert_eq!(cas.total_refs(), 0);
    }

    #[test]
    fn failed_retire_releases_the_rest_and_cannot_double_free() {
        let mem = memory(8);
        let mut cas = CasStore::new();
        mem.write_u64(GuestAddress(0), 11).unwrap();
        mem.clear_dirty();
        let (base, _) = cas.ingest(&capture(1, &mem), None).unwrap();
        mem.write_u64(GuestAddress(2 * PAGE_SIZE), 22).unwrap();
        mem.write_u64(GuestAddress(5 * PAGE_SIZE), 55).unwrap();
        let (child, _) = cas.ingest(&capture_dirty(1, &mem), Some(base)).unwrap();
        cas.audit().unwrap();

        // Lose the child's *first* chunk behind the store's back: the release
        // loop meets the error before the reference it must still drop.
        let lost = cas.get(child).unwrap().pages[0].1;
        cas.chunks.release(lost).unwrap();
        assert!(cas.chunks.get(lost).is_none());
        assert!(cas.audit().is_err(), "one reference short");

        let failed = message(cas.retire(child)).unwrap_err();
        assert!(failed.contains("release of unknown"), "{failed}");
        assert!(cas.get(child).is_none());
        cas.audit()
            .expect("refs ≡ pages of the manifests left, base has no dependent");
        assert_eq!(cas.total_refs(), 8);

        let retry = message(cas.retire(child)).unwrap_err();
        assert!(retry.contains("does not exist"), "{retry}");
        assert_eq!(cas.total_refs(), 8, "a retry releases nothing");
        cas.retire(base).unwrap();
        assert_eq!((cas.total_refs(), cas.chunk_count()), (0, 0));
        cas.audit().unwrap();
    }

    #[test]
    fn chain_walker_names_each_broken_chain() {
        let mem = memory(4);
        let mut cas = CasStore::new();
        let (root, _) = cas.ingest(&capture(1, &mem), None).unwrap();
        let mut tip = root;
        for link in 1..MAX_CHAIN_LENGTH {
            mem.write_u64(GuestAddress(0), link as u64).unwrap();
            tip = cas.ingest(&capture_dirty(1, &mem), Some(tip)).unwrap().0;
            assert_eq!(cas.walk_chain(tip, |_| ()).unwrap(), link + 1);
        }
        cas.audit().unwrap();
        let full = message(cas.ingest(&capture_dirty(1, &mem), Some(tip))).unwrap_err();
        assert!(full.contains("take a full snapshot"), "{full}");
        assert_eq!(cas.manifest_count(), MAX_CHAIN_LENGTH);
        cas.audit().unwrap();

        // The three ways a chain can be broken, each by its own error, from
        // the walker and from `chain_of` alike.
        let both = |cas: &CasStore| {
            let walked = message(cas.walk_chain(tip, |_| ()));
            assert_eq!(walked, message(cas.chain_of(tip)).map(|c| c.len()));
            walked.unwrap_err()
        };
        let second = ManifestId(root.0 + 1);
        cas.manifests.get_mut(&root).unwrap().0.kind = SnapshotKind::Incremental;
        assert!(both(&cas).contains("does not end in a full manifest"));
        cas.manifests.get_mut(&root).unwrap().0.parent = Some(tip);
        assert!(both(&cas).contains("too long or cyclic"));
        let cut = cas.manifests.remove(&second).unwrap();
        assert_eq!(both(&cas), format!("{second} missing from the store"));

        // Mended, the whole chain retires newest-first and leaves nothing.
        cas.manifests.insert(second, cut);
        let root_manifest = &mut cas.manifests.get_mut(&root).unwrap().0;
        (root_manifest.kind, root_manifest.parent) = (SnapshotKind::Full, None);
        cas.retire_chain(tip).unwrap();
        assert_eq!((cas.manifest_count(), cas.total_refs()), (0, 0));
        cas.audit().unwrap();
    }

    #[test]
    fn restore_detects_corrupt_chain() {
        let mem = memory(4);
        let mut cas = CasStore::new();
        mem.write_u64(GuestAddress(0), 5).unwrap();
        let snap = capture(1, &mem);
        let (id, _) = cas.ingest(&snap, None).unwrap();
        // Tamper with the recorded checksum: the chain applies cleanly but
        // the final verification must fail.
        cas.manifests.get_mut(&id).unwrap().0.memory_checksum ^= 1;
        let target = memory(4);
        assert!(cas.restore(id, &target).is_err());
    }

    #[test]
    fn the_zero_page_fingerprint_is_the_fingerprint_of_a_zero_page() {
        assert_eq!(
            ZERO_PAGE_FINGERPRINT,
            fingerprint(&[0; rvisor_types::PAGE_SIZE as usize])
        );
    }

    #[test]
    fn a_refused_memory_fed_epoch_leaves_the_dirty_pages_for_the_next() {
        let mem = memory(4);
        let mut cas = CasStore::new();
        let ingest = |cas: &mut CasStore, parent| {
            let vcpus = vec![VcpuState::default()];
            cas.ingest_memory(VmId::new(1), "e", Nanoseconds::ZERO, &mem, vcpus, parent)
        };
        let (mut tip, _) = ingest(&mut cas, None).unwrap();
        assert_eq!(mem.dirty_page_count(), 0, "a full epoch anchors the chain");
        for link in 1..MAX_CHAIN_LENGTH {
            mem.write_u64(GuestAddress(0), link as u64).unwrap();
            tip = ingest(&mut cas, Some(tip)).unwrap().0;
        }
        // The 33rd link is refused before anything is drained.
        mem.write_u64(GuestAddress(2 * PAGE_SIZE), 7).unwrap();
        let refused = message(ingest(&mut cas, Some(tip))).unwrap_err();
        assert!(refused.contains("take a full snapshot"), "{refused}");
        assert!(message(ingest(&mut cas, Some(ManifestId(99)))).is_err());
        assert_eq!(mem.dirty_pages(), vec![2]);
        assert_eq!(cas.manifest_count(), MAX_CHAIN_LENGTH);
        cas.audit().unwrap();
    }

    #[test]
    fn chunk_and_manifest_ids_display() {
        assert_eq!(
            ChunkId {
                fingerprint: 0xabc,
                ordinal: 2
            }
            .to_string(),
            "chunk-0000000000000abc.2"
        );
        assert_eq!(ManifestId(7).to_string(), "manifest-7");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// What the model keeps of a live manifest: its parent (none: a full
        /// manifest) and how many pages it references.
        type Model = BTreeMap<ManifestId, (Option<ManifestId>, u64)>;

        /// Chain length the way `chain_of` found it before the walker: follow
        /// parents through the model, fail at the first missing link.
        fn model_chain_len(model: &Model, id: ManifestId) -> std::result::Result<usize, String> {
            let (mut len, mut cursor) = (0, Some(id));
            while let Some(cur) = cursor {
                let (parent, _) = model
                    .get(&cur)
                    .ok_or_else(|| format!("{cur} missing from the store"))?;
                (len, cursor) = (len + 1, *parent);
            }
            Ok(len)
        }

        /// `retire` the way it decided before the count: scan for a child.
        fn model_retire(model: &mut Model, id: ManifestId) -> std::result::Result<(), String> {
            if model.values().any(|(parent, _)| *parent == Some(id)) {
                return Err(format!("{id} has dependent manifests"));
            }
            let gone = model.remove(&id);
            gone.map(|_| ())
                .ok_or_else(|| format!("{id} does not exist"))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Any sequence of ingests (full; incremental on the newest
            /// manifest, which is how chains reach the length limit;
            /// incremental on any id ever issued, live or dead), `retire`s
            /// and `retire_chain`s ends every step with the same `Ok`/`Err`
            /// — message included — as a model that scans, and with the
            /// store's counts equal to what the scans would find.
            #[test]
            fn property_store_bookkeeping_equals_a_model_that_scans(
                ops in proptest::collection::vec(
                    (0u8..32, 0usize..3, any::<usize>(), 0u64..4, 1u64..5),
                    1..200,
                ),
            ) {
                let guests = [memory(4), memory(4), memory(4)];
                let mut cas = CasStore::new();
                let mut model = Model::new();
                let mut newest = ManifestId(0);
                for (op, guest, pick, page, value) in ops {
                    let mem = &guests[guest];
                    // Any id ever issued, and one that never was.
                    let any_id = ManifestId(pick as u64 % (cas.next_id + 2));
                    let next = ManifestId(cas.next_id + 1);
                    match op {
                        0..=25 => {
                            mem.write_u64(GuestAddress(page * PAGE_SIZE), value).unwrap();
                            let (snap, parent) = match op {
                                23..=25 => (capture_dirty(guest as u32, mem), Some(any_id)),
                                1..=22 if model.contains_key(&newest) => {
                                    (capture_dirty(guest as u32, mem), Some(newest))
                                }
                                _ => (capture(guest as u32, mem), None),
                            };
                            let expected = match parent {
                                None => Ok(()),
                                Some(p) if !model.contains_key(&p) => {
                                    Err(format!("parent {p} does not exist"))
                                }
                                Some(p) if model_chain_len(&model, p) == Ok(MAX_CHAIN_LENGTH) => {
                                    Err(format!(
                                        "chain rooted at {p} already has {MAX_CHAIN_LENGTH} links; take a full snapshot"
                                    ))
                                }
                                Some(_) => Ok(()),
                            };
                            let got = message(cas.ingest(&snap, parent)).map(|(id, stats)| {
                                assert_eq!(id, next);
                                assert_eq!(
                                    stats.chunks_novel + stats.chunks_deduped,
                                    snap.memory.page_count()
                                );
                                model.insert(id, (parent, snap.memory.page_count()));
                                if op < 23 {
                                    newest = id;
                                }
                            });
                            prop_assert_eq!(got, expected);
                        }
                        26..=29 => {
                            let expected = model_retire(&mut model, any_id);
                            prop_assert_eq!(message(cas.retire(any_id)), expected);
                        }
                        _ => {
                            // Newest first, stopping at the first link a
                            // sibling branch still depends on.
                            let mut expected = model_chain_len(&model, any_id).map(|_| ());
                            let mut link = Some(any_id);
                            while let (Ok(()), Some(cur)) = (&expected, link) {
                                link = model[&cur].0;
                                expected = model_retire(&mut model, cur);
                            }
                            prop_assert_eq!(message(cas.retire_chain(any_id)), expected);
                        }
                    }
                    cas.audit().unwrap();
                    prop_assert!(model.keys().eq(cas.manifests.keys()));
                    let held: u64 = model.values().map(|(_, pages)| pages).sum();
                    prop_assert_eq!(cas.total_refs(), held);
                    for id in (0..=cas.next_id + 1).map(ManifestId) {
                        let walked = message(cas.walk_chain(id, |_| ()));
                        prop_assert_eq!(walked, model_chain_len(&model, id));
                    }
                }
            }

            /// An epoch ingested straight from guest memory records what
            /// ingesting the capture of a twin guest records — the same
            /// manifest (pages, checksum, chain links), stats and chunk
            /// store — over full and incremental epochs of pages that are
            /// known zero, stale and zero (written with zeros, or dirtied
            /// then zeroed), discarded, and non-zero; and leaves the same
            /// dirty bitmap.
            #[test]
            fn property_memory_fed_ingest_equals_ingesting_the_capture(
                epochs in proptest::collection::vec(
                    (
                        proptest::collection::vec((0u64..12, 0u8..4, 0u64..3), 0..8),
                        any::<bool>(),
                        any::<bool>(),
                    ),
                    1..8,
                ),
            ) {
                let (captured, fed) = (memory(12), memory(12));
                let (mut by_capture, mut by_memory) = (CasStore::new(), CasStore::new());
                let mut tips: Option<(ManifestId, ManifestId)> = None;
                for (writes, full, settle) in epochs {
                    for &(page, how, value) in &writes {
                        for mem in [&captured, &fed] {
                            match how {
                                0 => mem.discard_page(page).unwrap(),
                                // A zero value makes a stale page that is zero.
                                _ => mem.write_u64(GuestAddress(page * PAGE_SIZE + 8 * u64::from(how)), value).unwrap(),
                            }
                        }
                    }
                    if settle {
                        // Settle the plane between epochs on one twin only:
                        // the records must not depend on it.
                        fed.checksum();
                    }
                    let vcpus = vec![VcpuState::default()];
                    let parent = tips.filter(|_| !full);
                    let (snap, parent_snap) = match parent {
                        None => (capture(1, &captured), None),
                        Some((p, _)) => {
                            let parent_snap = by_capture.get(p).unwrap().snapshot_id;
                            let snap = VmSnapshot::capture_incremental(
                                VmId::new(1), "full", Nanoseconds::ZERO, parent_snap,
                                &captured, vcpus.clone(), BTreeMap::new(),
                            ).unwrap();
                            (snap, Some(p))
                        }
                    };
                    if parent.is_none() {
                        captured.clear_dirty();
                    }
                    let a = message(by_capture.ingest(&snap, parent_snap));
                    let b = message(by_memory.ingest_memory(
                        VmId::new(1), "full", Nanoseconds::ZERO, &fed, vcpus, parent.map(|(_, p)| p),
                    ));
                    prop_assert_eq!(a.as_ref().map(|(_, s)| *s), b.as_ref().map(|(_, s)| *s));
                    let ((a, _), (b, _)) = (a.unwrap(), b.unwrap());
                    prop_assert_eq!(by_capture.get(a), by_memory.get(b));
                    prop_assert_eq!(captured.dirty_pages(), fed.dirty_pages());
                    prop_assert_eq!(by_capture.stored_bytes(), by_memory.stored_bytes());
                    prop_assert_eq!(by_capture.total_refs(), by_memory.total_refs());
                    by_memory.audit().unwrap();
                    tips = Some((a, b));
                }
                let (_, tip) = tips.unwrap();
                let restored = memory(12);
                by_memory.restore(tip, &restored).unwrap();
                prop_assert_eq!(restored.read_vec(GuestAddress(0), 12 * PAGE_SIZE).unwrap(),
                    fed.read_vec(GuestAddress(0), 12 * PAGE_SIZE).unwrap());
            }

            /// For any dirty pattern across any number of epochs, restoring
            /// any epoch from the content-addressed store is byte-identical
            /// to restoring the same captures from the plain snapshot
            /// store, the dedup accounting conserves pages, and retiring
            /// the whole chain garbage-collects every chunk.
            #[test]
            fn property_cas_restore_equals_plain_restore(
                epoch_writes in proptest::collection::vec(
                    proptest::collection::vec((0u64..16, 1u64..1000), 0..6), 1..8),
                restore_at in 0usize..8,
            ) {
                let mem = memory(16);
                let mut cas = CasStore::new();
                let mut plain = SnapshotStore::new();
                let mut plain_ids: Vec<SnapshotId> = Vec::new();
                let mut cas_ids: Vec<ManifestId> = Vec::new();
                for (i, writes) in epoch_writes.iter().enumerate() {
                    for &(page, val) in writes {
                        mem.write_u64(GuestAddress(page * PAGE_SIZE), val).unwrap();
                    }
                    let at = Nanoseconds::from_secs(i as u64);
                    let snap = if i == 0 {
                        let s = VmSnapshot::capture_full(
                            VmId::new(1),
                            "epoch",
                            at,
                            &mem,
                            vec![VcpuState::default()],
                            BTreeMap::new(),
                        )
                        .unwrap();
                        mem.clear_dirty();
                        s
                    } else {
                        VmSnapshot::capture_incremental(
                            VmId::new(1),
                            "epoch",
                            at,
                            *plain_ids.last().unwrap(),
                            &mem,
                            vec![VcpuState::default()],
                            BTreeMap::new(),
                        )
                        .unwrap()
                    };
                    let (m, stats) = cas.ingest(&snap, cas_ids.last().copied()).unwrap();
                    prop_assert_eq!(
                        stats.chunks_novel + stats.chunks_deduped,
                        snap.memory.page_count(),
                        "dedup accounting must conserve pages"
                    );
                    plain_ids.push(plain.insert(snap).unwrap());
                    cas_ids.push(m);
                }
                let target = restore_at.min(epoch_writes.len() - 1);
                let via_plain = memory(16);
                let via_cas = memory(16);
                let (vp, pp) = plain.restore(plain_ids[target], &via_plain).unwrap();
                let (vc, pc) = cas.restore(cas_ids[target], &via_cas).unwrap();
                prop_assert_eq!(vp, vc);
                prop_assert_eq!(pp, pc);
                prop_assert_eq!(via_plain.checksum(), via_cas.checksum());
                // Retiring the whole chain garbage-collects every chunk.
                cas.retire_chain(*cas_ids.last().unwrap()).unwrap();
                prop_assert_eq!(cas.manifest_count(), 0);
                prop_assert_eq!(cas.chunk_count(), 0);
                prop_assert_eq!(cas.stored_bytes().as_u64(), 0);
            }
        }
    }
}
