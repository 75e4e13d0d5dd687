//! Experiment E4 — live migration downtime and total time.
//!
//! Sweeps: engine (stop-and-copy / pre-copy / post-copy), guest RAM size,
//! guest dirty rate relative to link bandwidth, and link speed. The printed
//! tables are the figure data (simulated, deterministic); Criterion measures
//! the host-side cost of running a full pre-copy migration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use rvisor_memory::GuestMemory;
use rvisor_migrate::{
    execute, ConstantRateDirtier, DirtySource, IdleDirtier, LoopbackTransport, MigrationPlan,
    MigrationReport, PageCompression, PlanEngine,
};
use rvisor_net::{Link, LinkModel};
use rvisor_obs::Trace;
use rvisor_types::ByteSize;
use rvisor_vcpu::VcpuState;

/// `plan` from `source` to `dest` over a loopback on a fresh `link_model` link.
fn migrate(
    plan: &MigrationPlan,
    source: &GuestMemory,
    dest: &GuestMemory,
    link_model: LinkModel,
    dirtier: &mut dyn DirtySource,
) -> MigrationReport {
    let mut link = Link::new(link_model);
    let mut transport = LoopbackTransport::new(&mut link);
    execute(
        plan,
        source,
        dest,
        &[VcpuState::default()],
        &mut transport,
        dirtier,
        &Trace::off(),
    )
    .unwrap()
}

/// `engine` moving an empty `ram`-sized guest that never writes.
fn run_idle(engine: PlanEngine, ram: ByteSize, link_model: LinkModel) -> MigrationReport {
    let (source, dest) = (
        GuestMemory::flat(ram).unwrap(),
        GuestMemory::flat(ram).unwrap(),
    );
    let plan = MigrationPlan {
        engine,
        ..Default::default()
    };
    migrate(&plan, &source, &dest, link_model, &mut IdleDirtier)
}

fn run_precopy(ram: ByteSize, link_model: LinkModel, dirty_fraction: f64) -> MigrationReport {
    let source = GuestMemory::flat(ram).unwrap();
    let dest = GuestMemory::flat(ram).unwrap();
    let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
        link_model.bytes_per_second,
        dirty_fraction,
        0,
        source.total_pages(),
    );
    let plan = MigrationPlan::default();
    migrate(&plan, &source, &dest, link_model, &mut dirtier)
}

fn print_engine_table() {
    println!("\n=== E4a: migration engines (512 MiB guest, 1 Gbit/s, 30% dirty rate) ===");
    println!(
        "{:<16} {:>14} {:>14} {:>8} {:>16} {:>10}",
        "engine", "downtime", "total time", "rounds", "bytes moved", "amplif."
    );
    let ram = ByteSize::mib(512);
    let model = LinkModel::gigabit();
    let reports = [
        (
            "stop-and-copy",
            run_idle(PlanEngine::StopAndCopy, ram, model),
        ),
        ("pre-copy", run_precopy(ram, model, 0.3)),
        ("post-copy", run_idle(PlanEngine::PostCopy, ram, model)),
    ];
    for (name, r) in reports {
        println!(
            "{:<16} {:>14} {:>14} {:>8} {:>12} MiB {:>9.2}x",
            name,
            format!("{}", r.downtime),
            format!("{}", r.total_time),
            r.rounds,
            r.bytes_transferred >> 20,
            r.transfer_amplification()
        );
    }
}

fn print_dirty_rate_figure() {
    println!("\n=== E4b: pre-copy downtime vs dirty rate (256 MiB guest, 1 Gbit/s) ===");
    println!(
        "{:>12} {:>14} {:>14} {:>8} {:>10}",
        "dirty rate", "downtime", "total", "rounds", "converged"
    );
    for fraction in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.1] {
        let r = run_precopy(ByteSize::mib(256), LinkModel::gigabit(), fraction);
        println!(
            "{:>11.0}% {:>14} {:>14} {:>8} {:>10}",
            fraction * 100.0,
            format!("{}", r.downtime),
            format!("{}", r.total_time),
            r.rounds,
            r.converged
        );
    }
}

fn print_ram_figure() {
    println!("\n=== E4c: downtime vs RAM size (idle guest vs stop-and-copy) ===");
    println!(
        "{:>10} {:>20} {:>20} {:>16}",
        "RAM", "stop-and-copy", "pre-copy (idle)", "post-copy"
    );
    for mib in [128u64, 256, 512, 1024, 2048] {
        let ram = ByteSize::mib(mib);
        let model = LinkModel::gigabit();
        let sc = run_idle(PlanEngine::StopAndCopy, ram, model);
        let pre = run_idle(PlanEngine::PreCopy, ram, model);
        let post = run_idle(PlanEngine::PostCopy, ram, model);
        println!(
            "{:>7} MiB {:>20} {:>20} {:>16}",
            mib,
            format!("{}", sc.downtime),
            format!("{}", pre.downtime),
            format!("{}", post.downtime)
        );
    }

    println!("\n=== E4d: pre-copy total time vs link speed (512 MiB, 30% dirty) ===");
    for (name, model) in [
        ("100 Mbit/s", LinkModel::wan()),
        ("1 Gbit/s", LinkModel::gigabit()),
        ("10 Gbit/s", LinkModel::ten_gigabit()),
    ] {
        let r = run_precopy(ByteSize::mib(512), model, 0.3);
        println!(
            "{:>12}: total {:>12}, downtime {:>12}, converged {}",
            name,
            format!("{}", r.total_time),
            format!("{}", r.downtime),
            r.converged
        );
    }
    println!();
}

/// Pre-copy with page compression: a half-empty guest over a thin link, with
/// the guest rewriting single words in its working set (the XBZRLE sweet
/// spot). Ablation for the `MigrationPlan::compression` design choice.
fn print_compression_ablation() {
    println!("\n=== E4e: pre-copy page compression ablation (256 MiB guest, 100 Mbit/s WAN, 40% dirty) ===");
    println!(
        "{:<12} {:>14} {:>14} {:>8} {:>14} {:>10}",
        "compression", "downtime", "total time", "rounds", "bytes moved", "converged"
    );
    for compression in PageCompression::ALL {
        let ram = ByteSize::mib(256);
        let source = GuestMemory::flat(ram).unwrap();
        let dest = GuestMemory::flat(ram).unwrap();
        // Half of the guest holds data, the other half is zero pages.
        for page in 0..source.total_pages() / 2 {
            source
                .write_u64(
                    rvisor_types::GuestAddress(page * rvisor_types::PAGE_SIZE),
                    page * 13 + 7,
                )
                .unwrap();
        }
        let model = LinkModel::wan();
        let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
            model.bytes_per_second,
            0.4,
            0,
            source.total_pages() / 2,
        );
        let plan = MigrationPlan {
            compression,
            ..Default::default()
        };
        let r = migrate(&plan, &source, &dest, model, &mut dirtier);
        assert_eq!(source.checksum(), dest.checksum());
        println!(
            "{:<12} {:>14} {:>14} {:>8} {:>10} MiB {:>10}",
            compression.name(),
            format!("{}", r.downtime),
            format!("{}", r.total_time),
            r.rounds,
            r.bytes_transferred >> 20,
            r.converged
        );
    }
}

fn bench(c: &mut Criterion) {
    print_engine_table();
    print_dirty_rate_figure();
    print_ram_figure();
    print_compression_ablation();

    let mut group = c.benchmark_group("e4_migration");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));
    for mib in [64u64, 256] {
        group.bench_with_input(
            BenchmarkId::new("precopy_host_cost", mib),
            &mib,
            |b, &mib| {
                b.iter(|| {
                    run_precopy(ByteSize::mib(mib), LinkModel::gigabit(), 0.3).pages_transferred
                })
            },
        );
    }
    group.bench_function("stop_and_copy_host_cost_64MiB", |b| {
        b.iter(|| {
            run_idle(
                PlanEngine::StopAndCopy,
                ByteSize::mib(64),
                LinkModel::gigabit(),
            )
            .pages_transferred
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
