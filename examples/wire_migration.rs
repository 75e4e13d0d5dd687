//! Wire-format migration over a modelled network fabric (experiment E17).
//!
//! A pre-copy migration is streamed as versioned wire frames — checksummed
//! page records, run-length zero pages, end-of-round markers — first over a
//! loopback transport (a bare point-to-point link), then across a shared
//! single-spine [`ClosFabric`] under varying NIC bandwidth and MTU, and
//! finally through a whole-datacenter rebalance where migrations and DR
//! backups contend on the same backbone. Last, the wire amplification each
//! MTU's chunk framing adds to the sweep's runs.
//!
//! Every number printed is derived from the deterministic simulated clock,
//! and the example replays each fabric run to prove same-seed equality —
//! CI runs the whole binary twice and diffs the output.
//!
//! ```text
//! cargo run --release --example wire_migration
//! ```

use virtlab::memory::GuestMemory;
use virtlab::migrate::{
    execute, ConstantRateDirtier, DirtySource, FabricTransport, IdleDirtier, LoopbackTransport,
    MigrationPlan, MigrationReport, Transport,
};
use virtlab::net::{ClosFabric, ClosParams, FabricParams, Link, LinkModel};
use virtlab::obs::Trace;
use virtlab::orch::{run_datacenter, OrchParams, Scenario, ScenarioConfig, WorkloadShape};
use virtlab::types::PAGE_SIZE;
use virtlab::vcpu::VcpuState;
use virtlab::{ByteSize, GuestAddress, Nanoseconds};

const PAGES: u64 = 2048; // an 8 MiB guest
const DIRTY_FRACTION: f64 = 0.3;

fn memories() -> (GuestMemory, GuestMemory) {
    let src = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
    let dst = GuestMemory::flat(ByteSize::pages_of(PAGES)).unwrap();
    // Three quarters content, one quarter zero pages (so run-length zero
    // coding has something to coalesce under compression).
    for p in 0..PAGES {
        if p % 4 != 3 {
            src.write_u64(GuestAddress(p * PAGE_SIZE), p * 11 + 3)
                .unwrap();
        }
    }
    (src, dst)
}

fn region_checksum(mem: &GuestMemory) -> u64 {
    mem.checksum()
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

fn migrate_loopback() -> (MigrationReport, u64) {
    let (src, dst) = memories();
    let mut link = Link::new(LinkModel::gigabit());
    let mut transport = LoopbackTransport::new(&mut link);
    let report = pre_copy(&src, &dst, &mut transport, &mut IdleDirtier);
    assert_eq!(region_checksum(&src), region_checksum(&dst));
    (report, region_checksum(&dst))
}

fn migrate_fabric(params: FabricParams, dirty: f64) -> (MigrationReport, u64) {
    let (src, dst) = memories();
    let mut fabric = ClosFabric::new(2, params).unwrap();
    let mut transport = FabricTransport::new(&mut fabric, 0, 1).unwrap();
    let mut dirtier =
        ConstantRateDirtier::from_bandwidth_fraction(params.nic_bytes_per_second, dirty, 0, PAGES);
    let report = pre_copy(&src, &dst, &mut transport, &mut dirtier);
    assert_eq!(
        region_checksum(&src),
        region_checksum(&dst),
        "destination must hold the source's final memory image"
    );
    (report, region_checksum(&dst))
}

fn main() {
    println!("-- wire migration: loopback vs fabric (8 MiB pre-copy, idle guest) --\n");
    let (loopback, loopback_sum) = migrate_loopback();
    println!(
        "{:<28} total {:>12}  downtime {:>10}  bytes {:>9}",
        "loopback @ 1 Gbit/s",
        format!("{}", loopback.total_time),
        format!("{}", loopback.downtime),
        loopback.bytes_transferred,
    );
    // The same stream across a fabric of the same nominal bandwidth pays
    // MTU chunk framing: strictly slower, identical destination bytes.
    let (lan, lan_sum) = migrate_fabric(FabricParams::office_lan(), 0.0);
    println!(
        "{:<28} total {:>12}  downtime {:>10}  bytes {:>9}",
        "fabric  @ 1 Gbit/s mtu 1500",
        format!("{}", lan.total_time),
        format!("{}", lan.downtime),
        lan.bytes_transferred,
    );
    assert!(
        lan.total_time > loopback.total_time,
        "finite-bandwidth fabric must be strictly slower than loopback"
    );
    assert_eq!(lan_sum, loopback_sum, "identical destination memory");
    println!("\nfabric is strictly slower than loopback at equal nominal bandwidth \u{2714}");
    println!("destination memory is byte-identical on both paths \u{2714}\n");

    // Bandwidth x MTU sweep with a dirtying guest.
    println!("-- fabric sweep (30% dirty rate) --\n");
    println!(
        "{:<10} {:>6} {:>14} {:>12} {:>8} {:>10} {:>12}",
        "nic", "mtu", "total", "downtime", "rounds", "converged", "bytes"
    );
    let mut amplification = Vec::new();
    for (name, nic) in [
        ("10G", 1_250_000_000u64),
        ("1G", 125_000_000),
        ("100M", 12_500_000),
    ] {
        for mtu in [1500u64, 9000] {
            let params = FabricParams {
                nic_bytes_per_second: nic,
                backbone_bytes_per_second: nic,
                latency: Nanoseconds::from_micros(200),
                mtu,
                chunk_overhead: virtlab::net::DEFAULT_CHUNK_OVERHEAD,
            };
            let (r, _) = migrate_fabric(params, DIRTY_FRACTION);
            // Same-seed fabric runs replay `==`-identically.
            let (replay, _) = migrate_fabric(params, DIRTY_FRACTION);
            assert_eq!(r, replay, "fabric migration must replay identically");
            let wire_bytes = ClosParams::from(params).wire_bytes(r.bytes_transferred);
            amplification.push((name, mtu, wire_bytes as f64 / r.bytes_transferred as f64));
            println!(
                "{:<10} {:>6} {:>14} {:>12} {:>8} {:>10} {:>12}",
                name,
                mtu,
                format!("{}", r.total_time),
                format!("{}", r.downtime),
                r.rounds,
                r.converged,
                r.bytes_transferred,
            );
        }
    }
    println!("\nreplay check: every fabric run above replayed ==-identically \u{2714}\n");

    // A whole datacenter day where rebalance migrations and DR backups
    // share the fabric.
    println!("-- datacenter day over the shared fabric --\n");
    let scenario = Scenario::generate(
        ScenarioConfig::day(0xE17, WorkloadShape::DiurnalWave, 8, 96).with_host_failures(1),
    )
    .unwrap();
    let params = OrchParams {
        rebalance_interval: Nanoseconds::from_secs(900),
        backup_interval: Nanoseconds::from_secs(1800),
        ..OrchParams::default()
    };
    let report = run_datacenter(
        8,
        params,
        Box::new(virtlab::orch::ThresholdRebalance),
        &scenario,
    )
    .unwrap();
    let replay = run_datacenter(
        8,
        params,
        Box::new(virtlab::orch::ThresholdRebalance),
        &scenario,
    )
    .unwrap();
    assert_eq!(report, replay, "fabric-routed day must replay identically");
    println!(
        "migrations completed {:>6}   downtime total {:>12}   migration bytes {:>12}",
        report.migrations_completed,
        format!("{}", report.migration_downtime_total),
        report.migration_bytes,
    );
    println!(
        "backups taken       {:>6}   backup time    {:>12}   backup bytes    {:>12}",
        report.backups_taken,
        format!("{}", report.backup_time_total),
        report.backup_bytes,
    );
    println!("\nsame-seed datacenter replay over the fabric is ==-identical \u{2714}");

    // What MTU chunk framing adds to each run of the sweep above.
    println!("\n-- wire amplification of the fabric sweep (wire bytes / payload bytes) --\n");
    for (name, mtu, ratio) in amplification {
        println!("{name:<10} {mtu:>6} {ratio:>8.4}");
    }
}
