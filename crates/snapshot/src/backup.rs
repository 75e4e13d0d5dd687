//! Backup scheduling and disaster-recovery planning on top of snapshots.
//!
//! "Snapshots – backup features – DR services" is one of the stated goals of
//! the virtualization roadmap in the source material. Operationally that
//! means a *policy* (how often a full backup is taken, how often an
//! incremental one) and two numbers the policy must meet:
//!
//! * **RPO** (recovery point objective) — the most data, measured in time,
//!   that can be lost: at worst one backup interval.
//! * **RTO** (recovery time objective) — how long a restore takes: fetching
//!   the full backup plus every incremental after it and replaying the chain.
//!
//! [`BackupPolicy`] captures the cadence, [`BackupSimulator`] actually runs
//! it against a live [`GuestMemory`] using real [`VmSnapshot`] captures (so
//! the storage numbers come from the same code path the VMM uses), and
//! [`BackupReport`] summarises storage consumption, achieved RPO and
//! worst-case RTO for the E14 experiment.

use std::collections::BTreeMap;

use rvisor_memory::GuestMemory;
use rvisor_types::{ByteSize, Error, Nanoseconds, Result, VmId};
use rvisor_vcpu::VcpuState;

use crate::snapshot::{SnapshotId, SnapshotKind, VmSnapshot};
use crate::store::SnapshotStore;

/// How often full and incremental backups are taken.
#[derive(Debug, Clone, Copy)]
pub struct BackupPolicy {
    /// Interval between backups (full or incremental).
    pub interval: Nanoseconds,
    /// A full backup is taken every `fulls_every` intervals; the rest are
    /// incrementals chained to the most recent full. `1` means every backup
    /// is a full one.
    pub(crate) fulls_every: u32,
}

impl BackupPolicy {
    /// The classic "weekly full, daily incremental" policy.
    pub fn weekly_full_daily_incremental() -> Self {
        BackupPolicy {
            interval: Nanoseconds::from_secs(24 * 3600),
            fulls_every: 7,
        }
    }

    /// Nightly full backups (the pre-virtualization tape habit).
    pub fn nightly_full() -> Self {
        BackupPolicy {
            interval: Nanoseconds::from_secs(24 * 3600),
            fulls_every: 1,
        }
    }

    /// Hourly incrementals with a nightly full — an aggressive-RPO policy.
    pub fn hourly_incremental() -> Self {
        BackupPolicy {
            interval: Nanoseconds::from_secs(3600),
            fulls_every: 24,
        }
    }

    /// Validate the policy.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.interval == Nanoseconds::ZERO {
            return Err(Error::Config("backup interval must be non-zero".into()));
        }
        if self.fulls_every == 0 {
            return Err(Error::Config("fulls_every must be at least 1".into()));
        }
        Ok(())
    }

    /// The worst-case recovery point objective this policy can achieve:
    /// everything written since the last completed backup is lost.
    pub(crate) fn rpo(&self) -> Nanoseconds {
        self.interval
    }
}

/// Performance assumptions of the backup target (a NAS, tape library or
/// object store) used to convert sizes into times.
#[derive(Debug, Clone, Copy)]
pub struct BackupTarget {
    /// Sustained write bandwidth when storing a backup.
    pub(crate) write_bytes_per_sec: u64,
    /// Sustained read bandwidth when restoring.
    pub(crate) read_bytes_per_sec: u64,
    /// Fixed per-restore overhead (locating media, booting the restored VM).
    pub restore_setup: Nanoseconds,
}

impl Default for BackupTarget {
    fn default() -> Self {
        // A modest NAS over gigabit Ethernet.
        BackupTarget {
            write_bytes_per_sec: 110 * 1024 * 1024,
            read_bytes_per_sec: 110 * 1024 * 1024,
            restore_setup: Nanoseconds::from_secs(60),
        }
    }
}

impl BackupTarget {
    /// Time to write `size` to the target.
    pub fn write_time(&self, size: ByteSize) -> Nanoseconds {
        Nanoseconds(
            (size.as_u64() as u128 * 1_000_000_000 / self.write_bytes_per_sec.max(1) as u128)
                as u64,
        )
    }

    /// Time to read `size` back from the target.
    pub fn read_time(&self, size: ByteSize) -> Nanoseconds {
        Nanoseconds(
            (size.as_u64() as u128 * 1_000_000_000 / self.read_bytes_per_sec.max(1) as u128) as u64,
        )
    }
}

/// One entry in the simulated backup history.
#[derive(Debug, Clone, Copy)]
pub struct BackupRecord {
    /// The stored snapshot.
    pub(crate) id: SnapshotId,
    /// Full or incremental.
    pub(crate) kind: SnapshotKind,
    /// Bytes written to the backup target.
    pub(crate) size: ByteSize,
}

/// Summary of a simulated backup schedule.
#[derive(Debug, Clone, Copy)]
pub struct BackupReport {
    /// Backups taken (full + incremental).
    pub backups_taken: u32,
    /// Of which full.
    pub fulls_taken: u32,
    /// Total bytes written to the backup target over the horizon.
    pub bytes_stored: ByteSize,
    /// Bytes a nightly-full policy would have written over the same horizon
    /// (the denominator of the storage-saving claim).
    pub(crate) full_equivalent_bytes: ByteSize,
    /// Worst-case recovery point objective (time between backups).
    pub rpo: Nanoseconds,
    /// Worst-case recovery time objective: restoring the longest chain.
    pub worst_rto: Nanoseconds,
    /// Longest chain length (1 = a lone full snapshot).
    pub longest_chain: u32,
}

impl BackupReport {
    /// Storage saved relative to taking a full backup every interval.
    pub fn storage_saving_fraction(&self) -> f64 {
        if self.full_equivalent_bytes.as_u64() == 0 {
            0.0
        } else {
            1.0 - self.bytes_stored.as_u64() as f64 / self.full_equivalent_bytes.as_u64() as f64
        }
    }
}

/// Runs a [`BackupPolicy`] against a live guest, taking real snapshots.
#[derive(Debug)]
pub struct BackupSimulator {
    vm: VmId,
    policy: BackupPolicy,
    target: BackupTarget,
    store: SnapshotStore,
    history: Vec<BackupRecord>,
    last_full: Option<SnapshotId>,
    now: Nanoseconds,
    backups_taken: u32,
}

impl BackupSimulator {
    /// Create a simulator for one VM.
    pub fn new(vm: VmId, policy: BackupPolicy, target: BackupTarget) -> Result<Self> {
        policy.validate()?;
        Ok(BackupSimulator {
            vm,
            policy,
            target,
            store: SnapshotStore::new(),
            history: Vec::new(),
            last_full: None,
            now: Nanoseconds::ZERO,
            backups_taken: 0,
        })
    }

    /// Advance simulated time by one policy interval and take the backup the
    /// policy calls for. `memory` should already contain (and have dirty
    /// tracking for) whatever the guest wrote during the interval.
    pub fn run_interval(
        &mut self,
        memory: &GuestMemory,
        vcpus: &[VcpuState],
    ) -> Result<BackupRecord> {
        self.now = self.now.saturating_add(self.policy.interval);
        let take_full =
            self.last_full.is_none() || self.backups_taken.is_multiple_of(self.policy.fulls_every);
        let snapshot = if take_full {
            VmSnapshot::capture_full(
                self.vm,
                &format!("backup-{}", self.backups_taken),
                self.now,
                memory,
                vcpus.to_vec(),
                BTreeMap::new(),
            )?
        } else {
            VmSnapshot::capture_incremental(
                self.vm,
                &format!("backup-{}", self.backups_taken),
                self.now,
                self.last_snapshot_id()
                    .expect("incremental always has a predecessor"),
                memory,
                vcpus.to_vec(),
                BTreeMap::new(),
            )?
        };
        // A full backup resets dirty tracking so the next incremental only
        // carries what is written after it.
        if take_full {
            memory.clear_dirty();
        }
        let size = snapshot.approx_size();
        let kind = snapshot.kind;
        let id = self.store.insert(snapshot)?;
        if kind == SnapshotKind::Full {
            self.last_full = Some(id);
        }
        self.backups_taken += 1;
        let record = BackupRecord { id, kind, size };
        self.history.push(record);
        Ok(record)
    }

    /// The id of the most recent backup (full or incremental).
    fn last_snapshot_id(&self) -> Option<SnapshotId> {
        self.history.last().map(|r| r.id)
    }

    /// Restore the most recent backup into `memory` (a disaster-recovery
    /// drill). Returns the restored vCPU state and the simulated restore time.
    pub fn restore_latest(&self, memory: &GuestMemory) -> Result<(Vec<VcpuState>, Nanoseconds)> {
        let id = self
            .last_snapshot_id()
            .ok_or_else(|| Error::Snapshot("no backups have been taken yet".into()))?;
        let chain_bytes = self.chain_size(id)?;
        let (vcpus, _) = self.store.restore(id, memory)?;
        let rto = self
            .target
            .restore_setup
            .saturating_add(self.target.read_time(chain_bytes));
        Ok((vcpus, rto))
    }

    /// Summarise the schedule so far.
    pub fn report(&self) -> BackupReport {
        let bytes_stored = ByteSize::new(self.history.iter().map(|r| r.size.as_u64()).sum::<u64>());
        let fulls_taken = self
            .history
            .iter()
            .filter(|r| r.kind == SnapshotKind::Full)
            .count() as u32;
        let full_size = self
            .history
            .iter()
            .filter(|r| r.kind == SnapshotKind::Full)
            .map(|r| r.size.as_u64())
            .max()
            .unwrap_or(0);
        let full_equivalent_bytes = ByteSize::new(full_size * self.history.len() as u64);

        let mut worst_rto = Nanoseconds::ZERO;
        let mut longest_chain = 0u32;
        for record in &self.history {
            if let Ok(size) = self.chain_size(record.id) {
                let rto = self
                    .target
                    .restore_setup
                    .saturating_add(self.target.read_time(size));
                if rto > worst_rto {
                    worst_rto = rto;
                }
            }
            if let Ok(chain) = self.store.chain_of(record.id) {
                longest_chain = longest_chain.max(chain.len() as u32);
            }
        }
        BackupReport {
            backups_taken: self.backups_taken,
            fulls_taken,
            bytes_stored,
            full_equivalent_bytes,
            rpo: self.policy.rpo(),
            worst_rto,
            longest_chain,
        }
    }

    /// Total bytes that must be read back to restore `id` (its whole chain).
    fn chain_size(&self, id: SnapshotId) -> Result<ByteSize> {
        let chain = self.store.chain_of(id)?;
        Ok(ByteSize::new(
            chain.iter().map(|s| s.approx_size().as_u64()).sum(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvisor_types::{GuestAddress, PAGE_SIZE};

    fn guest(pages: u64) -> GuestMemory {
        let mem = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
        for p in 0..pages {
            mem.write_u64(GuestAddress(p * PAGE_SIZE), p + 1).unwrap();
        }
        mem.clear_dirty();
        mem
    }

    fn dirty_pages(mem: &GuestMemory, pages: &[u64]) {
        for &p in pages {
            mem.write_u64(GuestAddress(p * PAGE_SIZE), 0xd1d1_0000 + p)
                .unwrap();
        }
    }

    #[test]
    fn policy_validation() {
        assert!(BackupPolicy::weekly_full_daily_incremental()
            .validate()
            .is_ok());
        assert!(BackupPolicy {
            interval: Nanoseconds::ZERO,
            fulls_every: 1
        }
        .validate()
        .is_err());
        assert!(BackupPolicy {
            interval: Nanoseconds::from_secs(60),
            fulls_every: 0
        }
        .validate()
        .is_err());
        assert!(BackupSimulator::new(
            VmId::new(0),
            BackupPolicy {
                interval: Nanoseconds::ZERO,
                fulls_every: 1
            },
            BackupTarget::default()
        )
        .is_err());
    }

    #[test]
    fn first_backup_is_always_full() {
        let mem = guest(64);
        let mut sim = BackupSimulator::new(
            VmId::new(1),
            BackupPolicy::hourly_incremental(),
            BackupTarget::default(),
        )
        .unwrap();
        let record = sim.run_interval(&mem, &[VcpuState::default()]).unwrap();
        assert_eq!(record.kind, SnapshotKind::Full);
        assert!(record.size >= ByteSize::pages_of(64));
    }

    #[test]
    fn incrementals_track_only_dirtied_pages() {
        let mem = guest(256);
        let mut sim = BackupSimulator::new(
            VmId::new(1),
            BackupPolicy::weekly_full_daily_incremental(),
            BackupTarget::default(),
        )
        .unwrap();
        let full = sim.run_interval(&mem, &[VcpuState::default()]).unwrap();
        assert_eq!(full.kind, SnapshotKind::Full);

        dirty_pages(&mem, &[1, 2, 3]);
        let inc = sim.run_interval(&mem, &[VcpuState::default()]).unwrap();
        assert_eq!(inc.kind, SnapshotKind::Incremental);
        assert!(inc.size < ByteSize::pages_of(8));
        assert!(inc.size >= ByteSize::pages_of(3));

        // An interval with no writes produces an (almost) empty incremental.
        let idle = sim.run_interval(&mem, &[VcpuState::default()]).unwrap();
        assert_eq!(idle.kind, SnapshotKind::Incremental);
        assert!(idle.size < ByteSize::pages_of(1));
    }

    #[test]
    fn weekly_policy_takes_a_full_every_seventh_backup() {
        let mem = guest(64);
        let mut sim = BackupSimulator::new(
            VmId::new(1),
            BackupPolicy::weekly_full_daily_incremental(),
            BackupTarget::default(),
        )
        .unwrap();
        for day in 0..14 {
            dirty_pages(&mem, &[day as u64 % 64]);
            sim.run_interval(&mem, &[VcpuState::default()]).unwrap();
        }
        let report = sim.report();
        assert_eq!(report.backups_taken, 14);
        assert_eq!(report.fulls_taken, 2);
        assert_eq!(report.longest_chain, 7);
        assert_eq!(report.rpo, Nanoseconds::from_secs(24 * 3600));
        // Incrementals of a lightly-written guest store far less than
        // re-writing the full image every day.
        assert!(
            report.storage_saving_fraction() > 0.7,
            "saving {}",
            report.storage_saving_fraction()
        );
    }

    #[test]
    fn restore_recovers_the_latest_state_exactly() {
        let mem = guest(128);
        let mut sim = BackupSimulator::new(
            VmId::new(2),
            BackupPolicy::weekly_full_daily_incremental(),
            BackupTarget::default(),
        )
        .unwrap();
        sim.run_interval(&mem, &[VcpuState::default()]).unwrap();
        dirty_pages(&mem, &[10, 20, 30]);
        sim.run_interval(&mem, &[VcpuState::default()]).unwrap();
        dirty_pages(&mem, &[40]);
        sim.run_interval(&mem, &[VcpuState::default()]).unwrap();

        let expected = mem.checksum();
        // Disaster: the replacement host starts from empty memory.
        let replacement = GuestMemory::flat(ByteSize::pages_of(128)).unwrap();
        let (vcpus, rto) = sim.restore_latest(&replacement).unwrap();
        assert_eq!(replacement.checksum(), expected);
        assert_eq!(vcpus.len(), 1);
        assert!(rto >= BackupTarget::default().restore_setup);
    }

    #[test]
    fn restore_without_backups_is_an_error() {
        let sim = BackupSimulator::new(
            VmId::new(3),
            BackupPolicy::nightly_full(),
            BackupTarget::default(),
        )
        .unwrap();
        let mem = guest(8);
        assert!(sim.restore_latest(&mem).is_err());
    }

    #[test]
    fn nightly_full_has_shorter_chains_but_more_storage() {
        let run = |policy: BackupPolicy| {
            let mem = guest(512);
            let mut sim =
                BackupSimulator::new(VmId::new(4), policy, BackupTarget::default()).unwrap();
            for day in 0..10u64 {
                dirty_pages(&mem, &[day, day + 100, day + 200]);
                sim.run_interval(&mem, &[VcpuState::default()]).unwrap();
            }
            sim.report()
        };
        let nightly = run(BackupPolicy::nightly_full());
        let weekly = run(BackupPolicy::weekly_full_daily_incremental());
        assert_eq!(nightly.longest_chain, 1);
        assert!(weekly.longest_chain > 1);
        assert!(weekly.bytes_stored < nightly.bytes_stored);
        assert!(nightly.worst_rto <= weekly.worst_rto);
        assert!(weekly.storage_saving_fraction() > nightly.storage_saving_fraction());
    }

    #[test]
    fn backup_target_times_scale_with_size() {
        let target = BackupTarget::default();
        let small = target.write_time(ByteSize::mib(100));
        let large = target.write_time(ByteSize::gib(1));
        assert!(large > small);
        let restore = target.read_time(ByteSize::gib(1));
        assert!(restore.as_secs_f64() > 8.0 && restore.as_secs_f64() < 12.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// For any write pattern, restoring the latest backup reproduces
            /// the guest exactly as it was at that backup, and the report's
            /// accounting is internally consistent.
            #[test]
            fn restore_is_always_faithful(
                writes in proptest::collection::vec(
                    proptest::collection::vec(0u64..64, 0..6), 1..8),
                fulls_every in 1u32..5,
            ) {
                let mem = guest(64);
                let policy = BackupPolicy {
                    interval: Nanoseconds::from_secs(3600),
                    fulls_every,
                };
                let mut sim =
                    BackupSimulator::new(VmId::new(9), policy, BackupTarget::default()).unwrap();
                for interval_writes in &writes {
                    dirty_pages(&mem, interval_writes);
                    sim.run_interval(&mem, &[VcpuState::default()]).unwrap();
                }
                let expected = mem.checksum();
                let replacement = GuestMemory::flat(ByteSize::pages_of(64)).unwrap();
                let (_, rto) = sim.restore_latest(&replacement).unwrap();
                prop_assert_eq!(replacement.checksum(), expected);
                prop_assert!(rto >= BackupTarget::default().restore_setup);

                let report = sim.report();
                prop_assert_eq!(report.backups_taken as usize, writes.len());
                prop_assert!(report.fulls_taken >= 1);
                prop_assert!(report.longest_chain <= fulls_every.max(1));
                prop_assert!(report.bytes_stored <= report.full_equivalent_bytes);
            }
        }
    }
}
