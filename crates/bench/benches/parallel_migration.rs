//! Experiment E18 — multi-stream migration over stripe lanes:
//! streams × bandwidth sweep of the *simulated* cost (fair-share chunk
//! streams on the shared fabric — same payload bytes, per-stream MTU
//! framing, never faster than the aggregate in simulated time), then the
//! wall-clock speedup the lanes actually buy (one lane per stripe
//! streaming on its own host core, byte-identical to one stream).
//!
//! The simulated table is printed first (deterministic, host-independent);
//! the wall-clock section depends on what the host's cores do with two
//! threads — the header prints `available_parallelism` and a two-thread
//! probe so numbers are interpretable. Where the probe reads 1.0× a laned
//! migration runs at one-stream speed, whatever the core count says.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use rvisor_memory::GuestMemory;
use rvisor_migrate::{
    execute, ConstantRateDirtier, DirtySource, FabricTransport, IdleDirtier, LoopbackTransport,
    MigrationPlan, MigrationReport, Transport,
};
use rvisor_net::{Fabric, FabricParams, Link, LinkModel, DEFAULT_CHUNK_OVERHEAD};
use rvisor_obs::Trace;
use rvisor_types::{ByteSize, GuestAddress, Nanoseconds, PAGE_SIZE};
use rvisor_vcpu::VcpuState;

const PAGES: u64 = 1024; // 4 MiB guest

fn memories() -> (GuestMemory, GuestMemory) {
    let src = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
    let dst = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
    for p in 0..PAGES {
        if p % 4 != 3 {
            src.write_u64(GuestAddress(p * PAGE_SIZE), p * 11 + 3)
                .unwrap();
        }
    }
    (src, dst)
}

/// An uncompressed pre-copy on `streams` streams over `transport`.
fn pre_copy(
    streams: usize,
    src: &GuestMemory,
    dst: &GuestMemory,
    transport: &mut dyn Transport,
    dirtier: &mut dyn DirtySource,
) -> MigrationReport {
    let plan = MigrationPlan {
        streams: NonZeroUsize::new(streams).unwrap(),
        ..Default::default()
    };
    let vcpus = [VcpuState::default()];
    execute(&plan, src, dst, &vcpus, transport, dirtier, &Trace::off()).unwrap()
}

fn fabric_params(nic: u64) -> FabricParams {
    FabricParams {
        nic_bytes_per_second: nic,
        backbone_bytes_per_second: nic,
        latency: Nanoseconds::from_micros(200),
        mtu: 1500,
        chunk_overhead: DEFAULT_CHUNK_OVERHEAD,
    }
}

fn fabric_pipelined(params: FabricParams, streams: usize, dirty: f64) -> MigrationReport {
    let (src, dst) = memories();
    let mut fabric = Fabric::new(2, params).unwrap();
    let mut transport = FabricTransport::new(&mut fabric, 0, 1).unwrap();
    let mut dirtier =
        ConstantRateDirtier::from_bandwidth_fraction(params.nic_bytes_per_second, dirty, 0, PAGES);
    pre_copy(streams, &src, &dst, &mut transport, &mut dirtier)
}

fn loopback_run(streams: usize) -> MigrationReport {
    let (src, dst) = memories();
    let mut link = Link::new(LinkModel::ten_gigabit());
    let mut transport = LoopbackTransport::new(&mut link);
    pre_copy(streams, &src, &dst, &mut transport, &mut IdleDirtier)
}

/// How much faster two threads copy-and-sum 64 MiB than one does: what the
/// host gives two independent, lock-free threads, which bounds what lanes
/// can gain over the serial engine.
fn two_thread_probe() -> f64 {
    let src = vec![7u8; 64 << 20];
    let mut dst = vec![0u8; 64 << 20];
    let work = |src: &[u8], dst: &mut [u8]| {
        dst.copy_from_slice(src);
        std::hint::black_box(dst.iter().map(|&b| u64::from(b)).sum::<u64>())
    };
    work(&src, &mut dst); // fault the pages in
    let t = Instant::now();
    work(&src, &mut dst);
    let one = t.elapsed();
    let (src_a, src_b) = src.split_at(src.len() / 2);
    let (dst_a, dst_b) = dst.split_at_mut(src.len() / 2);
    let t = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| work(src_a, dst_a));
        work(src_b, dst_b);
    });
    one.as_secs_f64() / t.elapsed().as_secs_f64()
}

fn print_table() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\nE18: pipelined multi-stream migration (4 MiB pre-copy, 30% dirty rate)");
    println!("host cores available: {cores}");
    let probe = two_thread_probe();
    println!("two-thread probe (64 MiB copy+sum, 2 threads vs 1): {probe:.2}x\n");
    println!(
        "{:<8} {:>8} {:>14} {:>12} {:>12} {:>12}",
        "nic", "streams", "total", "downtime", "bytes", "wire bytes"
    );
    for (name, nic) in [("10G", 1_250_000_000u64), ("1G", 125_000_000)] {
        let mut serial_bytes = None;
        for streams in [1usize, 2, 4, 8] {
            let params = fabric_params(nic);
            let (src, dst) = memories();
            let mut fabric = Fabric::new(2, params).unwrap();
            let report = {
                let mut transport = FabricTransport::new(&mut fabric, 0, 1).unwrap();
                let mut dirtier = ConstantRateDirtier::from_bandwidth_fraction(
                    params.nic_bytes_per_second,
                    0.3,
                    0,
                    PAGES,
                );
                pre_copy(streams, &src, &dst, &mut transport, &mut dirtier)
            };
            // Same-seed replay is `==` (thread scheduling cannot leak into
            // the simulated clock).
            let replay = fabric_pipelined(params, streams, 0.3);
            assert_eq!(report, replay, "multi-stream run must replay ==");
            // Fair-share chunk streams move the same payload; only the
            // per-stream MTU framing grows with the stream count.
            let payload = report.bytes_transferred;
            match serial_bytes {
                None => serial_bytes = Some(payload),
                Some(b) => assert_eq!(payload, b, "striping must not change payload bytes"),
            }
            println!(
                "{:<8} {:>8} {:>14} {:>12} {:>12} {:>12}",
                name,
                streams,
                format!("{}", report.total_time),
                format!("{}", report.downtime),
                payload,
                fabric.wire_bytes_carried(),
            );
        }
    }
    println!(
        "\nsimulated time never improves with streams (single-spine fair share);\n\
         the wall-clock speedup below is what parallelism buys on {cores} core(s)\n\
         that give two threads {probe:.2}x\n"
    );
}

fn bench(c: &mut Criterion) {
    print_table();

    let mut group = c.benchmark_group("e18_parallel_migration");
    group
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
        .sample_size(20);

    group.throughput(Throughput::Bytes(PAGES * PAGE_SIZE));
    group.bench_function("precopy_serial_4mib", |b| b.iter(|| loopback_run(1)));
    for streams in [2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("precopy_pipelined_4mib", format!("{streams}way")),
            &streams,
            |b, &streams| b.iter(|| loopback_run(streams)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
