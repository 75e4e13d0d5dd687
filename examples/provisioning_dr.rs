//! Provisioning and disaster recovery: golden-image template cloning,
//! snapshot chains for backups, and a portable export manifest — the
//! operational workflow (rapid provisioning, backups, DR) that motivates
//! virtualizing a server estate in the first place.
//!
//! ```text
//! cargo run --example provisioning_dr
//! ```

use virtlab::block::{synthetic_os_image, CloneStrategy, ImageLibrary, StorageModel};
use virtlab::cluster::Provisioner;
use virtlab::snapshot::{ExportManifest, SnapshotStore};
use virtlab::types::SimClock;
use virtlab::vcpu::{Workload, WorkloadKind};
use virtlab::{ByteSize, GuestAddress, Vm, VmConfig};

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
        vm.clock().now(),
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

fn main() {
    println!("== provisioning, backup and disaster recovery ==\n");
    provisioning();
    backups_and_restore();
    export_manifest();
}
