//! Content-addressed, deduplicated DR (experiment E23).
//!
//! Proves the three claims of the deduplicated backup path end to end:
//!
//! 1. **Every unique page is stored once** — pages are interned into a
//!    fingerprint-keyed chunk store; identical pages across VMs and across
//!    backup epochs share one refcounted chunk, and a fingerprint collision
//!    degrades to an extra stored copy, never to corruption.
//! 2. **Every unique page is shipped once** — hourly sweeps capture
//!    incrementally and negotiate against the DR endpoint's known-chunk
//!    set: the fabric is charged `dedup_backup_wire_bytes`, the size of a
//!    stream of `ChunkData` frames for novel pages and small `ChunkRef`
//!    frames for known ones (no frame is encoded; a test-only encoder pins
//!    the figure), so a steady-state sweep ships a tiny fraction of the
//!    plain path's bytes.
//! 3. **Restore is byte-identical and the day is deterministic** — a VM
//!    restored from its manifest chain matches the plain restore path
//!    byte for byte, and both the dedup-on and dedup-off 32-rack Clos days
//!    replay `==` from the same seed.
//!
//! Every number below is simulated time; CI runs this binary twice and
//! byte-diffs the output.
//!
//! ```text
//! cargo run --release --example dedup_dr
//! ```

use std::collections::BTreeMap;

use virtlab::memory::GuestMemory;
use virtlab::obs::{Align, TextTable};
use virtlab::orch::{
    OrchParams, Orchestrator, Scenario, ScenarioConfig, ThresholdRebalance, WorkloadShape,
};
use virtlab::snapshot::{CasStore, VmSnapshot};
use virtlab::types::PAGE_SIZE;
use virtlab::vcpu::VcpuState;
use virtlab::{ByteSize, GuestAddress, Nanoseconds, VmId};

fn main() {
    chunk_store_mechanics();
    dedup_day();
}

/// -- 1. the content-addressed store on three look-alike guests -----------
fn chunk_store_mechanics() {
    println!("-- interning three 64-page guests into one chunk store --\n");
    let mut cas = CasStore::new();
    let mut table = TextTable::new(&[
        ("ingest", Align::Left),
        ("pages", Align::Right),
        ("novel", Align::Right),
        ("deduped", Align::Right),
        ("store chunks", Align::Right),
        ("store bytes", Align::Right),
    ]);
    // Three guests with the same 64-page layout; each writes two private
    // pages and shares the rest (mostly zeros) with the others.
    let mut manifests = Vec::new();
    for (i, name) in ["vm-a", "vm-b", "vm-c"].iter().enumerate() {
        let mem = GuestMemory::flat(ByteSize::pages_of(64)).unwrap();
        mem.write_u64(GuestAddress(0), 0xC0DE).unwrap();
        mem.write_u64(GuestAddress((i as u64 + 1) * PAGE_SIZE), i as u64 + 1)
            .unwrap();
        let snap = VmSnapshot::capture_full(
            VmId::new(i as u32),
            name,
            Nanoseconds::ZERO,
            &mem,
            vec![VcpuState::default()],
            BTreeMap::new(),
        )
        .unwrap();
        let (id, stats) = cas.ingest(&snap, None).unwrap();
        manifests.push((id, mem.checksum()));
        table.row([
            format!("{name} (full)"),
            "64".to_string(),
            stats.chunks_novel.to_string(),
            stats.chunks_deduped.to_string(),
            cas.chunk_count().to_string(),
            cas.stored_bytes().as_u64().to_string(),
        ]);
    }
    table.print();
    // Three 64-page guests, far fewer than 192 chunks resident.
    assert!(cas.chunk_count() < 16);
    // Every manifest still reconstructs its guest byte-identically.
    for (id, checksum) in &manifests {
        let replacement = GuestMemory::flat(ByteSize::pages_of(64)).unwrap();
        cas.restore(*id, &replacement).unwrap();
        assert_eq!(replacement.checksum(), *checksum);
    }
    println!(
        "\n{} manifests share the zero page and the common code page;",
        3
    );
    println!("each restores byte-identically from its manifest \u{2714}\n");
}

/// -- 2. the 32-rack Clos day: dedup on vs off ----------------------------
fn dedup_day() {
    println!("-- seed-22 mixed 32-rack Clos day: dedup on vs off --\n");
    let scenario = Scenario::generate(
        ScenarioConfig {
            duration: Nanoseconds::from_secs(2 * 3600),
            ..ScenarioConfig::day(22, WorkloadShape::Mixed, 32, 256)
        }
        .with_host_failures(2),
    )
    .unwrap();
    let base = OrchParams {
        placement: virtlab::cluster::PlacementStrategy::Spread,
        topology: virtlab::orch::FabricTopology::Clos {
            racks: 32,
            spines: 4,
            leaf_uplink_bytes_per_second: 2_500_000_000,
            spine_bytes_per_second: 1_250_000_000,
            cross_rack_latency: Nanoseconds::from_micros(50),
        },
        rebalance_interval: Nanoseconds::from_secs(600),
        backup_interval: Nanoseconds::from_secs(600),
        ..OrchParams::default()
    };
    let hosts = || {
        (0..32u32)
            .map(|i| virtlab::cluster::HostSpec::modern_server(virtlab::types::HostId::new(i)))
            .collect()
    };
    let run = |dedup: bool| {
        let params = OrchParams {
            dedup_backups: dedup,
            ..base
        };
        Orchestrator::new(hosts(), params, Box::new(ThresholdRebalance))
            .unwrap()
            .run(&scenario)
            .unwrap()
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(run(false), off, "dedup-off day must replay ==");
    assert_eq!(run(true), on, "dedup-on day must replay ==");
    assert_eq!(on.backups_taken, off.backups_taken, "same sweep cadence");
    assert!(
        on.backup_bytes * 5 <= off.backup_bytes,
        "dedup must ship at least 5x fewer backup bytes"
    );
    assert!(on.backup_time_total < off.backup_time_total);
    assert!(on.dr_store_bytes < off.backup_bytes);
    assert!(on.vms_restored > 0 && off.vms_restored > 0);

    let mut table = TextTable::new(&[
        ("day", Align::Left),
        ("backups", Align::Right),
        ("bytes on wire", Align::Right),
        ("backup time", Align::Right),
        ("fabric wait", Align::Right),
        ("restored", Align::Right),
        ("store chunks", Align::Right),
        ("store bytes", Align::Right),
    ]);
    for (name, r) in [("dedup off", &off), ("dedup on", &on)] {
        table.row([
            name.to_string(),
            r.backups_taken.to_string(),
            r.backup_bytes.to_string(),
            format!("{}", r.backup_time_total),
            format!("{}", r.migration_fabric_wait_total),
            r.vms_restored.to_string(),
            r.dr_store_chunks.to_string(),
            r.dr_store_bytes.to_string(),
        ]);
    }
    table.print();
    println!(
        "\ndedup shipped {} chunks and skipped {} ({} bytes never crossed the wire)",
        on.backup_chunks_shipped, on.backup_chunks_deduped, on.backup_bytes_deduped
    );
    println!(
        "backup bytes on wire: {} -> {} ({:.1}x less), and both days replay == \u{2714}",
        off.backup_bytes,
        on.backup_bytes,
        off.backup_bytes as f64 / on.backup_bytes as f64
    );
}
