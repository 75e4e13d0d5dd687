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
//!
//! Lanes get threads only beside another lane and from one 64-page segment
//! per stripe up (`rvisor_migrate::pipeline`): the header also prints how
//! many lane threads a 4-stream migration of the 4 MiB guest and of a
//! 256 KiB one stands up, and the `precopy_256KiB` rows time the small
//! guest — the orchestrator's — on 1 and 4 streams beside the 4 MiB rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use rvisor_memory::GuestMemory;
use rvisor_migrate::{
    execute, ConstantRateDirtier, DirtySource, FabricTransport, IdleDirtier, LoopbackTransport,
    MigrationPlan, MigrationReport, Transport,
};
use rvisor_net::{ClosFabric, FabricParams, Link, LinkModel, DEFAULT_CHUNK_OVERHEAD};
use rvisor_obs::Trace;
use rvisor_types::{ByteSize, GuestAddress, Nanoseconds, PAGE_SIZE};
use rvisor_vcpu::VcpuState;

const PAGES: u64 = 1024; // 4 MiB guest
const SMALL_PAGES: u64 = 64; // 256 KiB guest: one segment

fn memories() -> (GuestMemory, GuestMemory) {
    memories_of(PAGES)
}

fn memories_of(pages: u64) -> (GuestMemory, GuestMemory) {
    let src = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
    let dst = GuestMemory::flat(ByteSize::pages_of(pages)).unwrap();
    for p in 0..pages {
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
    let mut fabric = ClosFabric::new(2, params).unwrap();
    let mut transport = FabricTransport::new(&mut fabric, 0, 1).unwrap();
    let mut dirtier =
        ConstantRateDirtier::from_bandwidth_fraction(params.nic_bytes_per_second, dirty, 0, PAGES);
    pre_copy(streams, &src, &dst, &mut transport, &mut dirtier)
}

fn loopback_run(pages: u64, streams: usize) -> MigrationReport {
    let (src, dst) = memories_of(pages);
    let mut link = Link::new(LinkModel::ten_gigabit());
    let mut transport = LoopbackTransport::new(&mut link);
    pre_copy(streams, &src, &dst, &mut transport, &mut IdleDirtier)
}

/// This process's thread count (`/proc/self/status`), where there is one.
fn process_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    line.trim().parse().ok()
}

/// An idle guest that notes the process's thread count whenever the engine
/// runs it — between pre-copy rounds, when every lane thread of the
/// migration exists and waits for its next page list.
struct ThreadWatch(Option<u64>);

impl DirtySource for ThreadWatch {
    fn run_for(
        &mut self,
        _memory: &GuestMemory,
        _duration: Nanoseconds,
    ) -> rvisor_types::Result<u64> {
        self.0 = self.0.max(process_threads());
        Ok(0)
    }

    fn dirty_rate_bytes_per_sec(&self) -> u64 {
        0
    }
}

/// Lane threads a `streams`-stream pre-copy of a `pages`-page guest stands up.
fn lane_threads(pages: u64, streams: usize) -> Option<u64> {
    let before = process_threads()?;
    let (src, dst) = memories_of(pages);
    let mut link = Link::new(LinkModel::ten_gigabit());
    let mut transport = LoopbackTransport::new(&mut link);
    let mut watch = ThreadWatch(None);
    pre_copy(streams, &src, &dst, &mut transport, &mut watch);
    Some(watch.0?.saturating_sub(before))
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
    println!("two-thread probe (64 MiB copy+sum, 2 threads vs 1): {probe:.2}x");
    for (name, pages) in [("4 MiB", PAGES), ("256 KiB", SMALL_PAGES)] {
        let stripe = pages.div_ceil(4);
        match lane_threads(pages, 4) {
            Some(n) => {
                println!("lane threads, {name} guest x 4 streams ({stripe}-page stripes): {n}")
            }
            None => println!("lane threads, {name} guest x 4 streams: not observable on this host"),
        }
    }
    println!();
    println!(
        "{:<8} {:>8} {:>14} {:>12} {:>12} {:>12}",
        "nic", "streams", "total", "downtime", "bytes", "wire bytes"
    );
    for (name, nic) in [("10G", 1_250_000_000u64), ("1G", 125_000_000)] {
        let mut serial_bytes = None;
        for streams in [1usize, 2, 4, 8] {
            let params = fabric_params(nic);
            let (src, dst) = memories();
            let mut fabric = ClosFabric::new(2, params).unwrap();
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
    group.bench_function("precopy_serial_4mib", |b| b.iter(|| loopback_run(PAGES, 1)));
    for streams in [2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("precopy_pipelined_4mib", format!("{streams}way")),
            &streams,
            |b, &streams| b.iter(|| loopback_run(PAGES, streams)),
        );
    }
    // The orchestrator's guest: 16-page stripes on 4 streams, so the lanes
    // run on the calling thread and the two rows should read alike.
    group.throughput(Throughput::Bytes(SMALL_PAGES * PAGE_SIZE));
    for streams in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("precopy_256KiB", format!("{streams}way")),
            &streams,
            |b, &streams| b.iter(|| loopback_run(SMALL_PAGES, streams)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
