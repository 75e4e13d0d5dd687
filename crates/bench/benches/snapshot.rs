//! Experiment E6 — snapshot cost: full vs incremental snapshots as a
//! function of guest RAM size and of the fraction of memory dirtied since
//! the previous snapshot, plus restore cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

use rvisor_memory::{fingerprint, GuestMemory};
use rvisor_snapshot::{CasStore, MemorySnapshot, SnapshotId, SnapshotStore, VmSnapshot};
use rvisor_types::{ByteSize, GuestAddress, Nanoseconds, VmId, PAGE_SIZE};
use rvisor_vcpu::VcpuState;

fn dirty_fraction_of(mem: &GuestMemory, fraction: f64) {
    let pages = (mem.total_pages() as f64 * fraction) as u64;
    for p in 0..pages {
        mem.write_u64(GuestAddress(p * PAGE_SIZE), p).unwrap();
    }
}

fn full_snapshot(mem: &GuestMemory) -> VmSnapshot {
    VmSnapshot::capture_full(
        VmId::new(1),
        "full",
        Nanoseconds::ZERO,
        mem,
        vec![VcpuState::default()],
        Default::default(),
    )
    .unwrap()
}

fn print_table() {
    println!("\n=== E6a: snapshot size, full vs incremental (10% dirtied) ===");
    println!(
        "{:>10} {:>16} {:>20}",
        "RAM", "full snapshot", "incremental (10%)"
    );
    for mib in [128u64, 256, 512, 1024] {
        let mem = GuestMemory::flat(ByteSize::mib(mib)).unwrap();
        let full = full_snapshot(&mem);
        mem.clear_dirty();
        dirty_fraction_of(&mem, 0.10);
        let dirty = mem.drain_dirty();
        let incr = MemorySnapshot::capture_pages(&mem, &dirty).unwrap();
        println!(
            "{:>7} MiB {:>16} {:>20}",
            mib,
            format!("{}", full.approx_size()),
            format!("{}", incr.data_size())
        );
    }

    println!("\n=== E6b: incremental snapshot size vs dirty fraction (256 MiB guest) ===");
    println!(
        "{:>14} {:>16} {:>14}",
        "dirty fraction", "snapshot size", "pages"
    );
    for fraction in [0.01, 0.05, 0.10, 0.25, 0.50] {
        let mem = GuestMemory::flat(ByteSize::mib(256)).unwrap();
        mem.clear_dirty();
        dirty_fraction_of(&mem, fraction);
        let dirty = mem.drain_dirty();
        let incr = MemorySnapshot::capture_pages(&mem, &dirty).unwrap();
        println!(
            "{:>13.0}% {:>16} {:>14}",
            fraction * 100.0,
            format!("{}", incr.data_size()),
            incr.page_count()
        );
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_table();
    let mut group = c.benchmark_group("e6_snapshot");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));

    for mib in [64u64, 256] {
        let mem = GuestMemory::flat(ByteSize::mib(mib)).unwrap();
        group.throughput(Throughput::Bytes(mib << 20));
        group.bench_with_input(BenchmarkId::new("capture_full", mib), &mem, |b, mem| {
            b.iter(|| MemorySnapshot::capture_full(mem).unwrap().page_count())
        });
    }

    for fraction_pct in [5u64, 25] {
        group.bench_with_input(
            BenchmarkId::new("capture_incremental_256MiB", fraction_pct),
            &fraction_pct,
            |b, &pct| {
                let mem = GuestMemory::flat(ByteSize::mib(256)).unwrap();
                b.iter(|| {
                    mem.clear_dirty();
                    dirty_fraction_of(&mem, pct as f64 / 100.0);
                    let dirty = mem.drain_dirty();
                    MemorySnapshot::capture_pages(&mem, &dirty)
                        .unwrap()
                        .page_count()
                })
            },
        );
    }

    // One DR backup epoch of a guest that has not run since its parent
    // epoch (85 % of `clos_day`'s backups), on one guest, whose 256 KiB stay
    // in cache between iterations, and round-robin over the day's 1 024
    // guests, whose 256 MiB do not. A warm row alone understated what the
    // day paid per epoch threefold; see EXPERIMENTS.md E23.
    for guests in [1usize, 1024] {
        group.throughput(Throughput::Bytes(256 << 10));
        group.bench_with_input(
            BenchmarkId::new("incremental_epoch_clean_256KiB_round_robin", guests),
            &guests,
            |b, &guests| {
                let fleet: Vec<GuestMemory> = (0..guests)
                    .map(|_| {
                        let mem = GuestMemory::flat(ByteSize::kib(256)).unwrap();
                        dirty_fraction_of(&mem, 1.0);
                        full_snapshot(&mem);
                        mem.clear_dirty();
                        mem
                    })
                    .collect();
                let mut epoch = 0usize;
                b.iter(|| {
                    epoch += 1;
                    VmSnapshot::capture_incremental(
                        VmId::new(1),
                        "epoch",
                        Nanoseconds::ZERO,
                        SnapshotId(0),
                        &fleet[epoch % guests],
                        vec![VcpuState::default()],
                        Default::default(),
                    )
                    .unwrap()
                    .memory_checksum
                })
            },
        );
    }

    // The page fingerprint behind every `ChunkId`, on the three contents the
    // zero-pair fold tells apart: all zero (92 % of `clos_day`'s full-capture
    // pages; every pair folds), every other 16-byte pair zero (the fold's
    // branch taken and not taken in turn), and noise (no pair folds — the row
    // that says what the test costs a page it cannot help). EXPERIMENTS.md,
    // "E23, zero-run fingerprint".
    let mut noise = vec![0u8; PAGE_SIZE as usize];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for b in noise.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = (x >> 24) as u8 | 1;
    }
    let mut half_zero = noise.clone();
    for pair in half_zero.chunks_exact_mut(32) {
        pair[16..].fill(0);
    }
    group.throughput(Throughput::Bytes(PAGE_SIZE));
    for (contents, page) in [
        ("zero", vec![0u8; PAGE_SIZE as usize]),
        ("half_zero", half_zero),
        ("noise", noise),
    ] {
        group.bench_with_input(
            BenchmarkId::new("fingerprint_page", contents),
            &page,
            |b, page| b.iter(|| fingerprint(std::hint::black_box(page))),
        );
    }

    // One full DR backup of a guest shaped like `clos_day`'s canonical one,
    // into a store that already holds its pages, and its retirement (so the
    // store stays one epoch deep): 64 pages, 59 of them all-zero, one holding
    // a small code image and four an 8-byte identity stamp. Per page:
    // fingerprint, probe, full-page compare, one manifest entry.
    group.throughput(Throughput::Bytes(64 * PAGE_SIZE));
    group.bench_function("cas_ingest_full_64p_mostly_zero", |b| {
        let mem = GuestMemory::flat(ByteSize::kib(256)).unwrap();
        mem.write(GuestAddress(0), &[0xa5; 512]).unwrap();
        for p in 60..64u64 {
            mem.write_u64(GuestAddress(p * PAGE_SIZE), 0x1d00 + p)
                .unwrap();
        }
        let snap = full_snapshot(&mem);
        let mut cas = CasStore::new();
        cas.ingest(&snap, None).unwrap();
        b.iter(|| {
            let (id, stats) = cas.ingest(&snap, None).unwrap();
            cas.retire(id).unwrap();
            stats.chunks_deduped
        })
    });

    group.bench_function("restore_full_64MiB", |b| {
        let mem = GuestMemory::flat(ByteSize::mib(64)).unwrap();
        dirty_fraction_of(&mem, 1.0);
        let mut store = SnapshotStore::new();
        let id = store.insert(full_snapshot(&mem)).unwrap();
        let target = GuestMemory::flat(ByteSize::mib(64)).unwrap();
        b.iter(|| store.restore(id, &target).unwrap().1)
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
