//! Experiment E16 — the zero-copy guest-memory data plane: dirty-harvest
//! and page-copy throughput of the allocating (seed) accessors vs the
//! closure-view API, plus a full pre-copy migration of a 1 GiB dirtying
//! guest driven end-to-end through the zero-copy engine.
//!
//! The "old" paths below intentionally use the allocating convenience
//! wrappers (`read_page`, `drain_dirty`) that the refactor kept as thin
//! shims over the views — they are bit-for-bit the seed behaviour, so the
//! comparison is old API vs new API over identical state.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::{Duration, Instant};

use rvisor_memory::GuestMemory;
use rvisor_migrate::{
    execute, ConstantRateDirtier, LoopbackTransport, MigrationPlan, MigrationReport,
};
use rvisor_net::{Link, LinkModel};
use rvisor_obs::Trace;
use rvisor_types::{ByteSize, GuestAddress, PAGE_SIZE};
use rvisor_vcpu::VcpuState;

/// A default-plan pre-copy of `src` into `dst` over a loopback on a fresh
/// 10 Gbit/s link, the guest dirtying at `dirty` of the link's bandwidth.
fn precopy(src: &GuestMemory, dst: &GuestMemory, dirty: f64) -> MigrationReport {
    let link_model = LinkModel::ten_gigabit();
    let mut link = Link::new(link_model);
    let mut transport = LoopbackTransport::new(&mut link);
    let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
        link_model.bytes_per_second,
        dirty,
        0,
        src.total_pages(),
    );
    execute(
        &MigrationPlan::default(),
        src,
        dst,
        &[VcpuState::default()],
        &mut transport,
        &mut dirtier,
        &Trace::off(),
    )
    .unwrap()
}

/// Dirty `fraction` of the guest's pages (one u64 store per page).
fn dirty_fraction_of(mem: &GuestMemory, fraction: f64) {
    let pages = (mem.total_pages() as f64 * fraction) as u64;
    for p in 0..pages {
        mem.write_u64(GuestAddress(p * PAGE_SIZE), p | 1).unwrap();
    }
}

/// Harvest round, seed style: a fresh `Vec<u64>` per round.
fn harvest_old(mem: &GuestMemory) -> u64 {
    mem.drain_dirty().len() as u64
}

/// Harvest round, zero-copy style: one buffer reused across rounds.
fn harvest_new(mem: &GuestMemory, buf: &mut Vec<u64>) -> u64 {
    mem.drain_dirty_into(buf);
    buf.len() as u64
}

/// Copy `pages` source pages into `dest`, seed style: a 4 KiB `Vec` per page.
fn copy_old(source: &GuestMemory, dest: &GuestMemory, pages: u64) {
    for p in 0..pages {
        let contents = source.read_page(p).unwrap();
        dest.write_page(p, &contents).unwrap();
    }
}

/// Copy `pages` source pages into `dest` through the views: no heap
/// traffic. This is the engine's raw path verbatim — each page bounces
/// through a stack buffer so source and destination locks are never nested
/// (see `copy_pages_with` in `rvisor-migrate`).
fn copy_new(source: &GuestMemory, dest: &GuestMemory, pages: u64) {
    let mut bounce = [0u8; PAGE_SIZE as usize];
    for p in 0..pages {
        source
            .with_page(p, |bytes| bounce.copy_from_slice(bytes))
            .unwrap();
        dest.with_page_mut(p, |target| target.copy_from_slice(&bounce))
            .unwrap();
    }
}

fn pages_per_sec(pages: u64, elapsed: Duration) -> f64 {
    pages as f64 / elapsed.as_secs_f64().max(1e-9)
}

fn print_table() {
    // E16a: a pre-copy round's data plane — harvest the dirty set, then
    // copy every harvested page — old vs new API, over a 256 MiB guest with
    // 10% of its pages dirtied per round.
    const ROUNDS: u32 = 40;
    let src = GuestMemory::flat(ByteSize::mib(256)).unwrap();
    let dst = GuestMemory::flat(ByteSize::mib(256)).unwrap();
    println!("\n=== E16a: dirty-harvest + page-copy round, 256 MiB guest, 10% dirty/round ===");
    println!("{:>34} {:>16} {:>14}", "path", "pages/sec", "pages/round");
    let mut moved_old = 0u64;
    let mut spent_old = Duration::ZERO;
    for _ in 0..ROUNDS {
        dirty_fraction_of(&src, 0.10);
        let t = Instant::now();
        let dirty = src.drain_dirty();
        for &p in &dirty {
            let contents = src.read_page(p).unwrap();
            dst.write_page(p, &contents).unwrap();
        }
        spent_old += t.elapsed();
        moved_old += dirty.len() as u64;
    }
    let mut buf = Vec::new();
    let mut bounce = [0u8; PAGE_SIZE as usize];
    let mut moved_new = 0u64;
    let mut spent_new = Duration::ZERO;
    for _ in 0..ROUNDS {
        dirty_fraction_of(&src, 0.10);
        let t = Instant::now();
        src.drain_dirty_into(&mut buf);
        for &p in &buf {
            src.with_page(p, |bytes| bounce.copy_from_slice(bytes))
                .unwrap();
            dst.with_page_mut(p, |target| target.copy_from_slice(&bounce))
                .unwrap();
        }
        spent_new += t.elapsed();
        moved_new += buf.len() as u64;
    }
    println!(
        "{:>34} {:>16.0} {:>14}",
        "old (drain_dirty + read_page)",
        pages_per_sec(moved_old, spent_old),
        moved_old / ROUNDS as u64
    );
    println!(
        "{:>34} {:>16.0} {:>14}",
        "new (drain_dirty_into + with_page)",
        pages_per_sec(moved_new, spent_new),
        moved_new / ROUNDS as u64
    );
    println!(
        "{:>34} {:>15.2}x",
        "speedup",
        spent_old.as_secs_f64() / spent_new.as_secs_f64().max(1e-9)
    );

    // E16b: page copy, old vs new, 64 MiB working set.
    const COPY_PASSES: u32 = 8;
    let src = GuestMemory::flat(ByteSize::mib(64)).unwrap();
    let dst = GuestMemory::flat(ByteSize::mib(64)).unwrap();
    dirty_fraction_of(&src, 1.0);
    let pages = src.total_pages();
    println!("\n=== E16b: page-copy throughput, 64 MiB working set ===");
    println!("{:>28} {:>16}", "path", "pages/sec");
    let t = Instant::now();
    for _ in 0..COPY_PASSES {
        copy_old(&src, &dst, pages);
    }
    let old_elapsed = t.elapsed();
    let t = Instant::now();
    for _ in 0..COPY_PASSES {
        copy_new(&src, &dst, pages);
    }
    let new_elapsed = t.elapsed();
    println!(
        "{:>28} {:>16.0}",
        "old (read_page/write_page)",
        pages_per_sec(pages * COPY_PASSES as u64, old_elapsed)
    );
    println!(
        "{:>28} {:>16.0}",
        "new (with_page views)",
        pages_per_sec(pages * COPY_PASSES as u64, new_elapsed)
    );
    println!(
        "{:>28} {:>15.2}x",
        "speedup",
        old_elapsed.as_secs_f64() / new_elapsed.as_secs_f64().max(1e-9)
    );

    // E16c: a full pre-copy migration of a 1 GiB guest dirtying at 30% of a
    // 10 Gbit/s link, end to end through the zero-copy engine.
    let guest = ByteSize::gib(1);
    let src = GuestMemory::flat(guest).unwrap();
    let dst = GuestMemory::flat(guest).unwrap();
    dirty_fraction_of(&src, 1.0);
    let t = Instant::now();
    let report = precopy(&src, &dst, 0.30);
    let wall = t.elapsed();
    assert_eq!(src.checksum(), dst.checksum(), "migration must be lossless");
    println!("\n=== E16c: full pre-copy migration, 1 GiB dirtying guest (zero-copy engine) ===");
    println!(
        "{:>24} {:>12} {:>14} {:>14} {:>14} {:>12}",
        "wall time", "rounds", "pages moved", "wall pages/s", "sim downtime", "converged"
    );
    println!(
        "{:>24} {:>12} {:>14} {:>14.0} {:>14} {:>12}",
        format!("{:.2?}", wall),
        report.rounds,
        report.pages_transferred,
        pages_per_sec(report.pages_transferred, wall),
        format!("{}", report.downtime),
        report.converged
    );
    println!();
}

fn bench(c: &mut Criterion) {
    print_table();
    let mut group = c.benchmark_group("e16_memory_plane");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));

    // Harvest: old vs new at two guest sizes.
    for mib in [64u64, 256] {
        let mem = GuestMemory::flat(ByteSize::mib(mib)).unwrap();
        group.throughput(Throughput::Elements(mem.total_pages() / 10));
        group.bench_with_input(BenchmarkId::new("harvest_old", mib), &mem, |b, mem| {
            b.iter(|| {
                dirty_fraction_of(mem, 0.10);
                harvest_old(mem)
            })
        });
        let mut buf = Vec::new();
        group.bench_with_input(BenchmarkId::new("harvest_new", mib), &mem, |b, mem| {
            b.iter(|| {
                dirty_fraction_of(mem, 0.10);
                harvest_new(mem, &mut buf)
            })
        });
    }

    // The combined round (harvest + copy), old vs new, 64 MiB guest.
    let rsrc = GuestMemory::flat(ByteSize::mib(64)).unwrap();
    let rdst = GuestMemory::flat(ByteSize::mib(64)).unwrap();
    group.throughput(Throughput::Elements(rsrc.total_pages() / 10));
    group.bench_function("round_old/64MiB", |b| {
        b.iter(|| {
            dirty_fraction_of(&rsrc, 0.10);
            let dirty = rsrc.drain_dirty();
            for &p in &dirty {
                let contents = rsrc.read_page(p).unwrap();
                rdst.write_page(p, &contents).unwrap();
            }
            dirty.len()
        })
    });
    let mut round_buf = Vec::new();
    let mut round_bounce = [0u8; PAGE_SIZE as usize];
    group.bench_function("round_new/64MiB", |b| {
        b.iter(|| {
            dirty_fraction_of(&rsrc, 0.10);
            rsrc.drain_dirty_into(&mut round_buf);
            for &p in &round_buf {
                rsrc.with_page(p, |bytes| round_bounce.copy_from_slice(bytes))
                    .unwrap();
                rdst.with_page_mut(p, |target| target.copy_from_slice(&round_bounce))
                    .unwrap();
            }
            round_buf.len()
        })
    });

    // Page copy: old vs new over a 16 MiB working set.
    let src = GuestMemory::flat(ByteSize::mib(16)).unwrap();
    let dst = GuestMemory::flat(ByteSize::mib(16)).unwrap();
    dirty_fraction_of(&src, 1.0);
    let pages = src.total_pages();
    group.throughput(Throughput::Bytes(pages * PAGE_SIZE));
    group.bench_function("copy_old/16MiB", |b| b.iter(|| copy_old(&src, &dst, pages)));
    group.bench_function("copy_new/16MiB", |b| b.iter(|| copy_new(&src, &dst, pages)));

    // The end-to-end path: a small pre-copy migration per iteration.
    group.bench_function("precopy_migration/32MiB", |b| {
        b.iter(|| {
            let src = GuestMemory::flat(ByteSize::mib(32)).unwrap();
            let dst = GuestMemory::flat(ByteSize::mib(32)).unwrap();
            dirty_fraction_of(&src, 0.5);
            precopy(&src, &dst, 0.2).pages_transferred
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
