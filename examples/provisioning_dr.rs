//! Provisioning and disaster recovery: golden-image template cloning
//! (experiment E9), snapshot chains for backups, and a portable export
//! manifest — the operational workflow (rapid provisioning, backups, DR)
//! that motivates virtualizing a server estate in the first place. Then
//! what snapshots cost against guest RAM and dirty fraction (E6), and three
//! backup policies' storage, RPO and RTO (E14).
//!
//! ```text
//! cargo run --example provisioning_dr
//! ```

use virtlab::block::{synthetic_os_image, CloneStrategy, ImageLibrary, StorageModel};
use virtlab::cluster::Provisioner;
use virtlab::memory::GuestMemory;
use virtlab::snapshot::{
    BackupPolicy, BackupReport, BackupSimulator, BackupTarget, ExportManifest, MemorySnapshot,
    SnapshotStore, VmSnapshot,
};
use virtlab::types::PAGE_SIZE;
use virtlab::vcpu::{VcpuState, Workload, WorkloadKind};
use virtlab::{ByteSize, GuestAddress, Nanoseconds, Vm, VmConfig, VmId};

fn provisioning() {
    println!("-- template provisioning --\n");
    let mut library = ImageLibrary::new();
    library
        .add_template("win2003-appserver", synthetic_os_image(ByteSize::mib(128)))
        .unwrap();
    let mut provisioner = Provisioner::new(library, StorageModel::ssd());

    println!(
        "{:<18} {:>14} {:>16} {:>16}",
        "strategy", "bytes copied", "storage time", "instant?"
    );
    for strategy in [CloneStrategy::FullCopy, CloneStrategy::CopyOnWrite] {
        let report = provisioner
            .provision("win2003-appserver", strategy)
            .unwrap();
        println!(
            "{:<18} {:>14} {:>16} {:>16}",
            format!("{strategy:?}"),
            report.bytes_copied,
            format!("{}", report.storage_time),
            report.is_instant()
        );
    }

    // Standing up a whole branch office: ten clones each way.
    let (_, full_total) = provisioner
        .provision_many("win2003-appserver", CloneStrategy::FullCopy, 10)
        .unwrap();
    let (_, cow_total) = provisioner
        .provision_many("win2003-appserver", CloneStrategy::CopyOnWrite, 10)
        .unwrap();
    println!("\n10 servers via full copy:     {full_total}");
    println!("10 servers via CoW templates: {cow_total}");
}

fn backups_and_restore() {
    println!("\n-- snapshot chains (backup / disaster recovery) --\n");
    let mut vm = Vm::new(VmConfig::new("cognos-prod").with_memory(ByteSize::mib(32))).unwrap();
    let workload = Workload::new(WorkloadKind::MemoryDirty {
        pages: 256,
        passes: 1,
    })
    .unwrap();
    vm.load_workload(&workload).unwrap();
    let mut store = SnapshotStore::new();

    // Nightly full backup.
    let full = vm.snapshot("nightly-full", &mut store).unwrap();
    println!(
        "full snapshot {}: {}",
        full,
        store.get(full).unwrap().approx_size()
    );

    // The guest does a day of work (dirties pages), then an incremental backup.
    vm.run_to_halt().unwrap();
    let states = vm.save_vcpu_states();
    let incremental = virtlab::snapshot::VmSnapshot::capture_incremental(
        vm.id(),
        "hourly-incremental",
        vm.now(),
        full,
        vm.memory(),
        states,
        Default::default(),
    )
    .unwrap();
    let incremental_id = store.insert(incremental).unwrap();
    println!(
        "incremental snapshot {}: {} ({} pages)",
        incremental_id,
        store.get(incremental_id).unwrap().approx_size(),
        store.get(incremental_id).unwrap().memory.page_count()
    );

    // Disaster strikes: corrupt guest memory, then restore from the chain.
    vm.memory()
        .fill(GuestAddress(0x100000), 64 * 4096, 0xff)
        .unwrap();
    vm.restore_snapshot(incremental_id, &store).unwrap();
    println!(
        "restored {} OK; store holds {} of backups",
        incremental_id,
        store.total_size()
    );
}

fn export_manifest() {
    println!("\n-- portable export (OVF-style manifest) --\n");
    let manifest = ExportManifest::new("zimbra-mail", 2, ByteSize::gib(2))
        .with_disk("system", 40 * (1 << 30))
        .with_disk("mailstore", 200 * (1 << 30))
        .with_checksum("memory", 0xdead_beef)
        .with_annotation("os", "RedHat 5.4 x64")
        .with_annotation("role", "production mail server");
    let text = manifest.to_text();
    println!("{text}");
    let parsed = ExportManifest::from_text(&text).unwrap();
    assert_eq!(parsed, manifest);
    println!("manifest round-trips through the open text format: OK");
}

/// Write one word into each of the first `fraction` of `mem`'s pages.
fn dirty_fraction_of(mem: &GuestMemory, fraction: f64) {
    let pages = (mem.total_pages() as f64 * fraction) as u64;
    for p in 0..pages {
        mem.write_u64(GuestAddress(p * PAGE_SIZE), p)
            .expect("dirty page");
    }
}

/// An incremental snapshot of the pages dirtied since `mem`'s last harvest.
fn incremental(mem: &GuestMemory) -> MemorySnapshot {
    MemorySnapshot::capture_pages(mem, &mem.drain_dirty()).expect("incremental snapshot")
}

fn snapshot_cost() {
    println!("\n-- snapshot size, full vs incremental (10% dirtied) --\n");
    println!(
        "{:>10} {:>16} {:>20}",
        "RAM", "full snapshot", "incremental (10%)"
    );
    for mib in [32, 64, 128, 256] {
        let mem = GuestMemory::flat(ByteSize::mib(mib)).expect("guest memory");
        let full = VmSnapshot::capture_full(
            VmId::new(1),
            "full",
            Nanoseconds::ZERO,
            &mem,
            vec![VcpuState::default()],
            Default::default(),
        )
        .expect("full snapshot");
        mem.clear_dirty();
        dirty_fraction_of(&mem, 0.10);
        println!(
            "{:>6} MiB {:>16} {:>20}",
            mib,
            format!("{}", full.approx_size()),
            format!("{}", incremental(&mem).data_size())
        );
    }

    println!("\nincremental snapshot size vs dirty fraction (32 MiB guest):");
    println!(
        "{:>14} {:>16} {:>14}",
        "dirty fraction", "snapshot size", "pages"
    );
    for fraction in [0.01, 0.05, 0.10, 0.25, 0.50] {
        let mem = GuestMemory::flat(ByteSize::mib(32)).expect("guest memory");
        mem.clear_dirty();
        dirty_fraction_of(&mem, fraction);
        let snapshot = incremental(&mem);
        println!(
            "{:>13.0}% {:>16} {:>14}",
            fraction * 100.0,
            format!("{}", snapshot.data_size()),
            snapshot.page_count()
        );
    }
}

/// Run `policy` for `intervals` backup intervals over a guest of `ram` whose
/// every page holds data, rewriting `pages_per_interval` distinct pages of
/// it before each backup.
fn run_policy(
    policy: BackupPolicy,
    ram: ByteSize,
    intervals: u64,
    pages_per_interval: u64,
) -> BackupReport {
    let mem = GuestMemory::flat(ram).expect("guest memory");
    for p in 0..mem.total_pages() {
        mem.write_u64(GuestAddress(p * PAGE_SIZE), p * 11 + 3)
            .expect("populate guest");
    }
    mem.clear_dirty();
    let mut sim =
        BackupSimulator::new(VmId::new(1), policy, BackupTarget::default()).expect("simulator");
    let mut cursor = 0;
    for _ in 0..intervals {
        for _ in 0..pages_per_interval {
            let page = cursor % mem.total_pages();
            mem.write_u64(GuestAddress(page * PAGE_SIZE), 0xd1d1_0000 + cursor)
                .expect("guest write");
            cursor += 1;
        }
        sim.run_interval(&mem, &[VcpuState::default()])
            .expect("backup interval");
    }
    sim.report()
}

fn backup_policies() {
    let ram = ByteSize::mib(64);
    let daily = ByteSize::kib(12_800);
    println!("\n-- backup policies over 7 days ({ram} guest, {daily} written/day) --\n");
    println!(
        "{:<26} {:>9} {:>8} {:>12} {:>14} {:>12} {:>12} {:>8}",
        "policy", "backups", "fulls", "stored", "vs full-only", "RPO", "worst RTO", "chain"
    );
    let day = Nanoseconds::from_secs(24 * 3600).as_nanos();
    for (name, policy) in [
        ("nightly full", BackupPolicy::nightly_full()),
        (
            "weekly full + daily inc",
            BackupPolicy::weekly_full_daily_incremental(),
        ),
        (
            "nightly full + hourly inc",
            BackupPolicy::hourly_incremental(),
        ),
    ] {
        // The horizon in this policy's own intervals: 7 days.
        let interval = policy.interval.as_nanos();
        let report = run_policy(
            policy,
            ram,
            7 * day / interval,
            daily.pages() * interval / day,
        );
        println!(
            "{:<26} {:>9} {:>8} {:>8} MiB {:>13.1}% {:>12} {:>12} {:>8}",
            name,
            report.backups_taken,
            report.fulls_taken,
            report.bytes_stored.as_u64() >> 20,
            report.storage_saving_fraction() * 100.0,
            format!("{}", report.rpo),
            format!("{}", report.worst_rto),
            report.longest_chain
        );
    }

    let ram = ByteSize::mib(32);
    println!("\nweekly full + daily incremental over 14 days ({ram} guest):");
    println!(
        "{:>14} {:>12} {:>16}",
        "written/day", "stored", "saving vs fulls"
    );
    for daily_kib in [1_280, 5_120, 12_800, 25_600, 32_768] {
        let daily = ByteSize::kib(daily_kib);
        let report = run_policy(
            BackupPolicy::weekly_full_daily_incremental(),
            ram,
            14,
            daily.pages(),
        );
        println!(
            "{:>14} {:>8} MiB {:>15.1}%",
            format!("{daily}"),
            report.bytes_stored.as_u64() >> 20,
            report.storage_saving_fraction() * 100.0
        );
    }
}

fn main() {
    println!("== provisioning, backup and disaster recovery ==\n");
    provisioning();
    backups_and_restore();
    export_manifest();
    snapshot_cost();
    backup_policies();
}
