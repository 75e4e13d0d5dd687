//! The VM table: one record per VM name, addressed by a dense [`VmKey`].
//!
//! A hypervisor addresses its guests by small integers; so does the
//! orchestrator layer. A name is *interned* the first time a run sees it —
//! while the day's events are seeded, or when a caller of the `&str` API
//! deploys or restores it — and the [`VmKey`] it gets then is what every
//! per-VM structure in this crate is indexed by: the record here, the
//! per-host VM lists of [`OrchHost`](crate::OrchHost), the compact events in
//! the orchestrator's queue. The interner is the only name-keyed map in the
//! crate, and it is only ever probed, never iterated, so its hash order can
//! reach no report, trace or output line. It hashes with a fixed-basis
//! [`NameHasher`] rather than the standard library's per-instance random
//! keys, so every run — and every day a benchmark repeats in one process —
//! builds the same table layout and pays the same probe sequence: host time,
//! like simulated time, does not depend on a hidden seed.
//!
//! A key is never reused within a run and outlives the VM's departure: a
//! name that leaves and later re-arrives gets the same key and a record that
//! was reset to [`VmState::Absent`] with an empty [`VmChain`] on the way out.
//! So there are no key generations and no ABA — a stale key can at worst find an
//! `Absent` record, which every handler already treats as "no such VM".
//!
//! Because a record holds exactly one [`VmState`], "each VM is waiting for
//! capacity, running on exactly one host, being restored, or gone" is true by
//! construction rather than by keeping several maps in step.
//!
//! The types a record is made of live here with it: the [`Guest`] behind a
//! placed VM and the [`PendingRestore`] of a VM being brought back. Its DR epochs are one [`VmChain`], whichever store holds
//! them; the lifecycle that drives it is `dr.rs`. The cluster and the
//! orchestrator drive the records; nothing here knows about hosts, events or
//! policy.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Index, IndexMut};

use rvisor_cluster::VmSpec;
use rvisor_types::{Nanoseconds, VmId};

use crate::cluster::BackupHandle;
use crate::dr::VmChain;

/// Dense handle for one VM name, assigned in first-seen order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VmKey(u32);

/// What stands behind a placed VM: a statistical model or a live guest in
/// the host's [`Vmm`](rvisor::Vmm) (the two ends of the fidelity dial).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Guest {
    /// Not yet materialized (`VmFidelity::OnDemand`): the VM is its spec
    /// on the host, and its guest state is the canonical deploy image.
    Model,
    /// A real guest, by its per-host id.
    Live(VmId),
}

/// Where one VM is in its life. The cluster owns the `Placed` transitions;
/// the orchestrator owns `Pending` and `Restoring`.
#[derive(Debug, Default)]
pub(crate) enum VmState {
    /// Never arrived, departed, or lost for good.
    #[default]
    Absent,
    /// Arrived, waiting in the orchestrator's placement queue for capacity.
    Pending,
    /// On the host at `host_pos` of the host vector.
    Placed {
        /// Position of the host in `Cluster::hosts`.
        host_pos: u32,
        /// Model or live guest.
        guest: Guest,
    },
    /// Lost to a host failure; a DR restore is scheduled.
    Restoring(Box<PendingRestore>),
}

/// Everything the run knows about one VM name.
///
/// Laid out in declaration order, so a backup sweep finds the chain's hot
/// fields on the cache lines its placement lookup has just loaded.
#[derive(Debug)]
#[repr(C)]
pub(crate) struct VmRecord {
    pub(crate) state: VmState,
    pub(crate) dr: VmChain,
    name: Box<str>,
}

impl VmRecord {
    /// Host position and backing of a placed VM.
    pub(crate) fn placement(&self) -> Option<(usize, Guest)> {
        match self.state {
            VmState::Placed { host_pos, guest } => Some((host_pos as usize, guest)),
            _ => None,
        }
    }

    /// Take the scheduled restore out, leaving the VM `Absent`.
    pub(crate) fn take_restoring(&mut self) -> Option<Box<PendingRestore>> {
        match std::mem::take(&mut self.state) {
            VmState::Restoring(pr) => Some(pr),
            other => {
                self.state = other;
                None
            }
        }
    }
}

/// The standard 64-bit FNV-1a offset basis.
pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an FNV-1a state (the hash behind both the interner
/// and the per-VM identity stamp the cluster writes into guest memory).
pub(crate) fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |acc, &b| {
        (acc ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The interner's hasher: FNV-1a with the fixed basis, mixed once at the end
/// so short names that differ only in their last digits still spread over
/// the table's high (control-byte) and low (bucket) hash bits. Names come
/// from the run's own scenario, so hash flooding is not a concern; a layout
/// that repeats from run to run is.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NameHasher(u64);

impl Default for NameHasher {
    fn default() -> Self {
        NameHasher(FNV_BASIS)
    }
}

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }

    fn finish(&self) -> u64 {
        (self.0 ^ (self.0 >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// The interner plus the records it indexes.
#[derive(Debug, Default)]
pub(crate) struct VmTable {
    keys: HashMap<Box<str>, VmKey, BuildHasherDefault<NameHasher>>,
    records: Vec<VmRecord>,
}

impl VmTable {
    /// The key of a name the run has already seen.
    pub(crate) fn lookup(&self, name: &str) -> Option<VmKey> {
        self.keys.get(name).copied()
    }

    /// The key of `name`, assigning the next one on first sight.
    pub(crate) fn intern(&mut self, name: &str) -> VmKey {
        if let Some(key) = self.lookup(name) {
            return key;
        }
        let key = VmKey(u32::try_from(self.records.len()).expect("under 2^32 VM names a run"));
        self.keys.insert(name.into(), key);
        self.records.push(VmRecord {
            name: name.into(),
            state: VmState::Absent,
            dr: VmChain::default(),
        });
        key
    }

    /// Make room for `additional` more names (a hint; growth is automatic).
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.keys.reserve(additional);
        self.records.reserve(additional);
    }

    /// The name behind `key` (what trace arguments and error messages print).
    pub(crate) fn name(&self, key: VmKey) -> &str {
        &self[key].name
    }

    /// Every record, in key order.
    pub(crate) fn records(&self) -> impl Iterator<Item = &VmRecord> {
        self.records.iter()
    }
}

impl Index<VmKey> for VmTable {
    type Output = VmRecord;

    fn index(&self, key: VmKey) -> &VmRecord {
        &self.records[key.0 as usize]
    }
}

impl IndexMut<VmKey> for VmTable {
    fn index_mut(&mut self, key: VmKey) -> &mut VmRecord {
        &mut self.records[key.0 as usize]
    }
}

/// A VM lost to a host failure, restore scheduled.
#[derive(Debug, Clone)]
pub(crate) struct PendingRestore {
    pub(crate) spec: VmSpec,
    pub(crate) backup: BackupHandle,
    pub(crate) failed_at: Nanoseconds,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_dense_stable_and_probe_only() {
        let mut t = VmTable::default();
        assert_eq!(t.lookup("a"), None);
        let a = t.intern("a");
        let b = t.intern("b");
        assert_ne!(a, b);
        assert_eq!(t.intern("a"), a, "a name keeps its key");
        assert_eq!(t.lookup("b"), Some(b));
        assert_eq!(t.lookup("c"), None, "a probe allocates nothing");
        assert_eq!(t.records().count(), 2);
        assert_eq!(t.name(b), "b");
        assert!(matches!(t[a].state, VmState::Absent));
    }

    #[test]
    fn name_hash_is_fixed_and_spreads_sequential_names() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<NameHasher>::default();
        // No hidden per-instance seed: two builders agree on every name.
        let other = BuildHasherDefault::<NameHasher>::default();
        assert_eq!(build.hash_one("vm-0042"), other.hash_one("vm-0042"));
        // The generator's names differ only in their trailing digits; both
        // the bucket bits (low) and the control byte (top seven) must still
        // take many values, or every probe degenerates into a scan.
        let hashes: Vec<u64> = (0..4096)
            .map(|i| build.hash_one(format!("vm-{i:04}").as_str()))
            .collect();
        let distinct = |f: fn(u64) -> u64| {
            let mut seen: Vec<u64> = hashes.iter().map(|&h| f(h)).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        };
        assert_eq!(distinct(|h| h >> 57), 128, "every control byte occurs");
        // 4096 balls into 4096 bins leave ≈ 63 % of bins occupied.
        assert!(distinct(|h| h & 0xfff) > 2300, "low bits spread");
    }

    #[test]
    fn take_restoring_only_takes_a_restore() {
        let mut t = VmTable::default();
        let a = t.intern("a");
        t[a].state = VmState::Pending;
        assert!(t[a].take_restoring().is_none());
        assert!(matches!(t[a].state, VmState::Pending));
        assert_eq!(t[a].placement(), None);
    }
}
