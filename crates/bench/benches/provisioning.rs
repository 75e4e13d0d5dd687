//! Experiment E9 — provisioning latency: copy-on-write template clones vs
//! full image copies, as a function of golden-image size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

use rvisor_block::{synthetic_os_image, CloneStrategy, ImageLibrary, StorageModel};
use rvisor_cluster::Provisioner;
use rvisor_types::ByteSize;

fn provisioner_with_image(size: ByteSize) -> Provisioner {
    let mut lib = ImageLibrary::new();
    lib.add_template("golden", synthetic_os_image(size))
        .unwrap();
    Provisioner::new(lib, StorageModel::ssd())
}

fn print_table() {
    println!("\n=== E9: provisioning a new server from a template ===");
    println!(
        "{:>12} {:>22} {:>22}",
        "image size", "full copy (sim time)", "CoW clone (sim time)"
    );
    for mib in [256u64, 1024, 4096] {
        let mut p = provisioner_with_image(ByteSize::mib(mib));
        let full = p.provision("golden", CloneStrategy::FullCopy).unwrap();
        let cow = p.provision("golden", CloneStrategy::CopyOnWrite).unwrap();
        println!(
            "{:>9} MiB {:>22} {:>22}",
            mib,
            format!("{}", full.storage_time),
            format!("{}", cow.storage_time)
        );
    }
    println!("\n--- standing up 10 servers at once (1 GiB image, SSD model) ---");
    let mut p = provisioner_with_image(ByteSize::mib(1024));
    let (_, full_total) = p
        .provision_many("golden", CloneStrategy::FullCopy, 10)
        .unwrap();
    let (_, cow_total) = p
        .provision_many("golden", CloneStrategy::CopyOnWrite, 10)
        .unwrap();
    println!("full copies: {full_total}, CoW clones: {cow_total}");
    println!();
}

fn bench(c: &mut Criterion) {
    print_table();
    let mut group = c.benchmark_group("e9_provisioning");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));
    for mib in [16u64, 64, 256] {
        group.throughput(Throughput::Bytes(mib << 20));
        group.bench_with_input(BenchmarkId::new("full_copy", mib), &mib, |b, &mib| {
            b.iter_batched(
                || provisioner_with_image(ByteSize::mib(mib)),
                |mut p| {
                    p.provision("golden", CloneStrategy::FullCopy)
                        .unwrap()
                        .bytes_copied
                },
                criterion::BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("cow_clone", mib), &mib, |b, &mib| {
            b.iter_batched(
                || provisioner_with_image(ByteSize::mib(mib)),
                |mut p| {
                    p.provision("golden", CloneStrategy::CopyOnWrite)
                        .unwrap()
                        .bytes_copied
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
