//! Live migration: move a running VM between two hosts and compare the
//! downtime of stop-and-copy, pre-copy and post-copy under different guest
//! dirty rates, RAM sizes, link speeds and page compressions (experiment E4).
//!
//! ```text
//! cargo run --example live_migration
//! ```

use virtlab::memory::GuestMemory;
use virtlab::migrate::{
    execute, ConstantRateDirtier, LoopbackTransport, MigrationPlan, MigrationReport,
    PageCompression, PlanEngine,
};
use virtlab::net::{Link, LinkModel};
use virtlab::obs::Trace;
use virtlab::types::PAGE_SIZE;
use virtlab::vcpu::{VcpuState, Workload, WorkloadKind};
use virtlab::{ByteSize, GuestAddress, Vmm};

/// One migration of `source` under `plan`, over a loopback on a fresh link,
/// the guest dirtying its first `working_set` pages at `dirty_fraction` of
/// the link's bandwidth. Returns the report and the destination.
fn migrate_guest(
    plan: &MigrationPlan,
    source: &GuestMemory,
    working_set: u64,
    link_model: LinkModel,
    dirty_fraction: f64,
) -> (MigrationReport, GuestMemory) {
    let dest = GuestMemory::flat(ByteSize::pages_of(source.total_pages())).expect("dest memory");
    let mut link = Link::new(link_model);
    let mut transport = LoopbackTransport::new(&mut link);
    let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
        link_model.bytes_per_second,
        dirty_fraction,
        0,
        working_set,
    );
    let report = execute(
        plan,
        source,
        &dest,
        &[VcpuState::default()],
        &mut transport,
        &mut dirtier,
        &Trace::off(),
    )
    .expect("migration");
    (report, dest)
}

/// One migration of an empty `ram`-sized guest dirtying at `dirty_fraction`
/// of the link's bandwidth.
fn migrate(
    engine: PlanEngine,
    ram: ByteSize,
    link_model: LinkModel,
    dirty_fraction: f64,
) -> MigrationReport {
    let source = GuestMemory::flat(ram).expect("source memory");
    let plan = MigrationPlan {
        engine,
        ..Default::default()
    };
    migrate_guest(
        &plan,
        &source,
        source.total_pages(),
        link_model,
        dirty_fraction,
    )
    .0
}

fn engines_comparison() {
    println!("-- engine comparison (1 GiB guest, 1 Gbit/s link, 30% dirty rate) --\n");
    let ram = ByteSize::mib(1024);
    let link_model = LinkModel::gigabit();

    println!(
        "{:<16} {:>12} {:>12} {:>8} {:>14} {:>10}",
        "engine", "downtime", "total", "rounds", "transferred", "converged"
    );
    for engine in [
        PlanEngine::StopAndCopy,
        PlanEngine::PreCopy,
        PlanEngine::PostCopy,
    ] {
        // Only pre-copy lets the guest run, and dirty, while it copies.
        let report = migrate(engine, ram, link_model, 0.3);
        println!(
            "{:<16} {:>12} {:>12} {:>8} {:>11} MiB {:>10}",
            engine.name(),
            format!("{}", report.downtime),
            format!("{}", report.total_time),
            report.rounds,
            report.bytes_transferred >> 20,
            report.converged
        );
    }
}

fn manager_level_migration() {
    println!("\n-- manager-level migration of a running VM --\n");
    let mut source_host = Vmm::new("host-a");
    let mut dest_host = Vmm::new("host-b");

    let vm_id = source_host
        .create_vm(virtlab::VmConfig::new("erp-app-3").with_memory(ByteSize::mib(64)))
        .expect("create vm");
    {
        let vm = source_host.vm_mut(vm_id).unwrap();
        let workload = Workload::new(WorkloadKind::Idle { wakeups: 100_000 }).unwrap();
        vm.load_workload(&workload).unwrap();
        vm.memory()
            .write_u64(virtlab::GuestAddress(0x4000), 0xC0FFEE)
            .unwrap();
        // Let it run a little before the migration starts.
        vm.run_for(virtlab::Nanoseconds::from_millis(5)).unwrap();
    }

    let mut link = Link::new(LinkModel::gigabit());
    let mut transport = LoopbackTransport::new(&mut link);
    let (new_id, report) = source_host
        .migrate_to(
            vm_id,
            &mut dest_host,
            &mut transport,
            &MigrationPlan::default(),
            &Trace::off(),
        )
        .expect("migration");

    let migrated = dest_host.vm(new_id).unwrap();
    println!("VM now lives on {}: {:?}", dest_host.name(), migrated);
    println!(
        "memory intact: 0x{:x} (expected 0xC0FFEE)",
        migrated
            .memory()
            .read_u64(virtlab::GuestAddress(0x4000))
            .unwrap()
    );
    println!("downtime {}, total {}", report.downtime, report.total_time);
    println!(
        "source host now has {} VMs, destination {}",
        source_host.vm_count(),
        dest_host.vm_count()
    );
}

fn dirty_rate_sweep() {
    println!("\n-- pre-copy downtime vs dirty rate (256 MiB guest, 1 Gbit/s link) --\n");
    let ram = ByteSize::mib(256);
    println!(
        "{:>12} {:>14} {:>14} {:>8} {:>10}",
        "dirty rate", "downtime", "total", "rounds", "converged"
    );
    for fraction in [0.0, 0.2, 0.4, 0.6, 0.8, 1.2] {
        let report = migrate(PlanEngine::PreCopy, ram, LinkModel::gigabit(), fraction);
        println!(
            "{:>11.0}% {:>14} {:>14} {:>8} {:>10}",
            fraction * 100.0,
            format!("{}", report.downtime),
            format!("{}", report.total_time),
            report.rounds,
            report.converged
        );
    }
}

fn ram_size_sweep() {
    println!("\n-- downtime vs RAM size (idle guest, 1 Gbit/s link) --\n");
    println!(
        "{:>10} {:>16} {:>16} {:>16}",
        "RAM", "stop-and-copy", "pre-copy", "post-copy"
    );
    for mib in [128, 256, 512, 1024] {
        let downtime = |engine| {
            let report = migrate(engine, ByteSize::mib(mib), LinkModel::gigabit(), 0.0);
            format!("{}", report.downtime)
        };
        println!(
            "{:>6} MiB {:>16} {:>16} {:>16}",
            mib,
            downtime(PlanEngine::StopAndCopy),
            downtime(PlanEngine::PreCopy),
            downtime(PlanEngine::PostCopy)
        );
    }
}

fn link_speed_sweep() {
    println!("\n-- pre-copy vs link speed (256 MiB guest, 30% dirty rate) --\n");
    println!(
        "{:>12} {:>14} {:>14} {:>8} {:>10}",
        "link", "downtime", "total", "rounds", "converged"
    );
    for (name, model) in [
        ("100 Mbit/s", LinkModel::wan()),
        ("1 Gbit/s", LinkModel::gigabit()),
        ("10 Gbit/s", LinkModel::ten_gigabit()),
    ] {
        let report = migrate(PlanEngine::PreCopy, ByteSize::mib(256), model, 0.3);
        println!(
            "{:>12} {:>14} {:>14} {:>8} {:>10}",
            name,
            format!("{}", report.downtime),
            format!("{}", report.total_time),
            report.rounds,
            report.converged
        );
    }
}

/// The `MigrationPlan::compression` ablation: a half-empty guest over a thin
/// link, rewriting single words in its working set (XBZRLE's sweet spot).
fn compression_ablation() {
    println!(
        "\n-- pre-copy page compression (256 MiB guest, half zero pages, 100 Mbit/s WAN, 40% dirty rate) --\n"
    );
    println!(
        "{:<12} {:>14} {:>14} {:>8} {:>14} {:>10}",
        "compression", "downtime", "total", "rounds", "transferred", "converged"
    );
    for compression in PageCompression::ALL {
        let source = GuestMemory::flat(ByteSize::mib(256)).expect("source memory");
        let working_set = source.total_pages() / 2;
        for page in 0..working_set {
            source
                .write_u64(GuestAddress(page * PAGE_SIZE), page * 13 + 7)
                .expect("fill page");
        }
        let plan = MigrationPlan {
            compression,
            ..Default::default()
        };
        let (report, dest) = migrate_guest(&plan, &source, working_set, LinkModel::wan(), 0.4);
        assert_eq!(
            source.checksum(),
            dest.checksum(),
            "lossless under {compression:?}"
        );
        println!(
            "{:<12} {:>14} {:>14} {:>8} {:>10} MiB {:>10}",
            compression.name(),
            format!("{}", report.downtime),
            format!("{}", report.total_time),
            report.rounds,
            report.bytes_transferred >> 20,
            report.converged
        );
    }
}

fn main() {
    println!("== live migration ==\n");
    engines_comparison();
    manager_level_migration();
    dirty_rate_sweep();
    ram_size_sweep();
    link_speed_sweep();
    compression_ablation();
}
