//! Experiment E17 — wire-format migration over the modelled network
//! fabric: pre-copy total time and downtime vs NIC bandwidth and MTU, and
//! the encode/decode throughput of the frame codec. (That the wire protocol
//! itself is free at equal modelled bandwidth — a loopback stream `==` the
//! direct accounting of the same migration — is pinned by the
//! `rvisor-migrate` stream tests, which own that oracle.)
//!
//! The simulated table is printed first (deterministic, host-independent);
//! Criterion then measures the wall-clock cost of the codec hot paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

use rvisor_memory::GuestMemory;
use rvisor_migrate::{
    execute, wire, ConstantRateDirtier, DirtySource, FabricTransport, IdleDirtier,
    LoopbackTransport, MigrationPlan, MigrationReport, MigrationSink, MigrationSource, Transport,
};
use rvisor_net::{ClosFabric, ClosParams, FabricParams, Link, LinkModel, DEFAULT_CHUNK_OVERHEAD};
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

fn fabric_params(nic: u64, mtu: u64) -> FabricParams {
    FabricParams {
        nic_bytes_per_second: nic,
        backbone_bytes_per_second: nic,
        latency: Nanoseconds::from_micros(200),
        mtu,
        chunk_overhead: DEFAULT_CHUNK_OVERHEAD,
    }
}

/// The default plan — a one-stream, uncompressed pre-copy — over `transport`.
fn pre_copy(
    src: &GuestMemory,
    dst: &GuestMemory,
    transport: &mut dyn Transport,
    dirtier: &mut dyn DirtySource,
) -> MigrationReport {
    execute(
        &MigrationPlan::default(),
        src,
        dst,
        &[VcpuState::default()],
        transport,
        dirtier,
        &Trace::off(),
    )
    .unwrap()
}

fn fabric_precopy(params: FabricParams, dirty: f64) -> MigrationReport {
    let (src, dst) = memories();
    let mut fabric = ClosFabric::new(2, params).unwrap();
    let mut transport = FabricTransport::new(&mut fabric, 0, 1).unwrap();
    let mut dirtier =
        ConstantRateDirtier::from_bandwidth_fraction(params.nic_bytes_per_second, dirty, 0, PAGES);
    pre_copy(&src, &dst, &mut transport, &mut dirtier)
}

fn print_table() {
    println!("\nE17 — wire migration over the fabric (4 MiB guest, 30% dirty rate)");
    println!(
        "{:<8} {:>6} {:>14} {:>12} {:>8} {:>12} {:>14}",
        "nic", "mtu", "total", "downtime", "rounds", "bytes", "wire-amplif."
    );
    for (name, nic) in [
        ("10G", 1_250_000_000u64),
        ("1G", 125_000_000),
        ("100M", 12_500_000),
    ] {
        for mtu in [1500u64, 9000] {
            let params = fabric_params(nic, mtu);
            let r = fabric_precopy(params, 0.3);
            let wire_amplification = ClosParams::from(params).wire_bytes(r.bytes_transferred)
                as f64
                / r.bytes_transferred as f64;
            println!(
                "{:<8} {:>6} {:>14} {:>12} {:>8} {:>12} {:>14.4}",
                name,
                mtu,
                format!("{}", r.total_time),
                format!("{}", r.downtime),
                r.rounds,
                r.bytes_transferred,
                wire_amplification,
            );
        }
    }
}

fn bench(c: &mut Criterion) {
    print_table();

    let mut group = c.benchmark_group("e17_wire_migration");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(50))
        .measurement_time(Duration::from_millis(400));

    // The frame kernel on its own: seal one raw page frame, then verify and
    // decode it.
    let page: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 131 + 7) as u8).collect();
    let mut frame = Vec::with_capacity((wire::FRAME_HEADER_BYTES + PAGE_SIZE) as usize);
    group.throughput(Throughput::Bytes(PAGE_SIZE));
    group.bench_function("frame_roundtrip_4KiB", |b| {
        b.iter(|| {
            frame.clear();
            wire::put_page_raw(&mut frame, 9, &page);
            let decoded = wire::FrameReader::new(&frame).next_frame().unwrap();
            decoded.map(|f| f.payload.len())
        });
    });

    // Codec throughput: encode one full round of raw page frames.
    let (src, dst) = memories();
    group.throughput(Throughput::Bytes(PAGES * PAGE_SIZE));
    group.bench_function("encode_round_raw", |b| {
        let mut link = Link::new(LinkModel::ten_gigabit());
        let mut transport = LoopbackTransport::new(&mut link);
        let pages: Vec<u64> = (0..PAGES).collect();
        b.iter(|| {
            let mut source = MigrationSource::raw(&src);
            source.encode_round(&pages, &mut transport).unwrap();
            let (_, burst) = transport.deliver(Nanoseconds::ZERO).unwrap();
            let len = burst.len();
            transport.recycle(burst);
            len
        });
    });

    // Decode + checksum-verify + apply one full round onto the destination.
    let mut link = Link::new(LinkModel::ten_gigabit());
    let mut transport = LoopbackTransport::new(&mut link);
    let mut source = MigrationSource::raw(&src);
    source.send_hello(&mut transport).unwrap();
    source
        .encode_round(&(0..PAGES).collect::<Vec<_>>(), &mut transport)
        .unwrap();
    let (_, burst) = transport.deliver(Nanoseconds::ZERO).unwrap();
    group.bench_function("decode_apply_round", |b| {
        b.iter(|| {
            let mut sink = MigrationSink::new(&dst);
            sink.apply_burst(&burst).unwrap();
            sink.pages_applied()
        });
    });

    // A full streamed pre-copy, loopback vs fabric.
    group.throughput(Throughput::Bytes(PAGES * PAGE_SIZE));
    group.bench_function("precopy_loopback_4mib", |b| {
        b.iter(|| {
            let (src, dst) = memories();
            let mut link = Link::new(LinkModel::ten_gigabit());
            let mut transport = LoopbackTransport::new(&mut link);
            pre_copy(&src, &dst, &mut transport, &mut IdleDirtier)
        });
    });
    for mtu in [1500u64, 9000] {
        group.bench_with_input(
            BenchmarkId::new("precopy_fabric_4mib", format!("mtu{mtu}")),
            &mtu,
            |b, &mtu| {
                b.iter(|| fabric_precopy(fabric_params(1_250_000_000, mtu), 0.3));
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
