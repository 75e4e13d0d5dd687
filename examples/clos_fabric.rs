//! Two-tier Clos fabric with ECMP striping (experiment E21).
//!
//! Proves the three claims of the multi-spine fabric end to end:
//!
//! 1. **Striping wins cross-rack** — on a Clos fabric with independent
//!    spine paths, splitting a cross-rack burst over N chunk streams
//!    genuinely finishes earlier in simulated time (the single-spine model
//!    keeps its "never faster" property; the win is the topology's).
//! 2. **Degrade, never partition** — spine failures remove capacity and
//!    slow the day down, but every transfer still completes; failing the
//!    last live spine is refused.
//! 3. **Determinism** — every sweep cell and a whole 32-rack
//!    topology-aware datacenter day replay `==`. CI runs this binary twice
//!    and byte-diffs the output.
//!
//! ```text
//! cargo run --release --example clos_fabric
//! ```

use virtlab::net::{ClosFabric, ClosParams, FabricParams};
use virtlab::obs::{Align, TextTable};
use virtlab::orch::{
    run_datacenter, FabricTopology, OrchParams, Scenario, ScenarioConfig, SpreadRebalance,
    WorkloadShape,
};
use virtlab::Nanoseconds;

/// 64 MiB: a guest-sized cross-rack payload (framing is noise at this size).
const PAYLOAD: u64 = 64 * 1024 * 1024;

/// Split `total` into `n` near-equal stripes (remainder on the first).
fn stripes(total: u64, n: u64) -> Vec<u64> {
    (0..n)
        .map(|i| total / n + if i == 0 { total % n } else { 0 })
        .collect()
}

/// One sweep cell: a fresh fabric, one striped cross-rack burst, its
/// completion time. Replayed and `==`-checked inside.
fn clos_cell(params: ClosParams, endpoints: usize, n_streams: u64) -> Nanoseconds {
    let run = || {
        let mut fabric = ClosFabric::new(endpoints, params).unwrap();
        // Host 0 (rack 0) to the last host (the highest rack): cross-rack.
        fabric
            .transfer_striped(
                0,
                endpoints - 1,
                Nanoseconds::ZERO,
                &stripes(PAYLOAD, n_streams),
            )
            .unwrap()
    };
    let arrival = run();
    assert_eq!(arrival, run(), "same burst must replay ==");
    arrival
}

fn single_spine_cell(n_streams: u64) -> Nanoseconds {
    let mut fabric = ClosFabric::new(8, FabricParams::datacenter()).unwrap();
    fabric
        .transfer_striped(0, 7, Nanoseconds::ZERO, &stripes(PAYLOAD, n_streams))
        .unwrap()
}

fn main() {
    // -- 1. streams x topology sweep ------------------------------------
    println!("-- streams x topology sweep (64 MiB cross-rack burst) --\n");
    let dc = ClosParams::datacenter(4, 2); // 4 racks x 2 hosts, 4 spines
    let two_spine = ClosParams {
        spines: 2,
        ..ClosParams::datacenter(4, 2)
    };
    let mut table = TextTable::new(&[
        ("streams", Align::Left),
        ("single-spine", Align::Right),
        ("clos 2-spine", Align::Right),
        ("clos 4-spine", Align::Right),
    ]);
    let mut single_1 = Nanoseconds::ZERO;
    let mut clos4_by_streams = Vec::new();
    for n in [1u64, 2, 4, 8] {
        let single = single_spine_cell(n);
        let clos2 = clos_cell(two_spine, 8, n);
        let clos4 = clos_cell(dc, 8, n);
        if n == 1 {
            single_1 = single;
        }
        // The single-spine model keeps its property: striping never wins.
        assert!(single >= single_1, "single-spine striping must never win");
        clos4_by_streams.push(clos4);
        table.row([
            n.to_string(),
            format!("{single}"),
            format!("{clos2}"),
            format!("{clos4}"),
        ]);
    }
    table.print();
    assert!(
        clos4_by_streams[2] < clos4_by_streams[0],
        "4 streams over 4 spines must beat 1 stream"
    );
    println!(
        "\n4-stream cross-rack burst on 4 spines beats 1 stream by {}x/100 \u{2714}",
        clos4_by_streams[0].as_nanos() * 100 / clos4_by_streams[2].as_nanos().max(1)
    );
    println!("single-spine striping stayed never-faster, as modelled \u{2714}\n");

    // -- 2. rack-local vs cross-rack ------------------------------------
    let mut local_fabric = ClosFabric::new(8, dc).unwrap();
    let local = local_fabric
        .transfer(0, 1, Nanoseconds::ZERO, PAYLOAD)
        .unwrap();
    println!("rack-local 64 MiB (skips the spine tier): {local}");
    println!(
        "cross-rack 64 MiB, 1 stream:              {}\n",
        clos4_by_streams[0]
    );

    // -- 3. the 32-rack topology-aware day vs the flat day ---------------
    println!("-- 32-rack datacenter day: single spine vs topology-aware Clos --\n");
    let scenario = Scenario::generate(ScenarioConfig {
        duration: Nanoseconds::from_secs(2 * 3600),
        ..ScenarioConfig::day(0xE21, WorkloadShape::FlashCrowd, 32, 256)
    })
    .unwrap();
    let base = OrchParams {
        placement: virtlab::cluster::PlacementStrategy::Spread,
        migration_streams: std::num::NonZeroUsize::new(4).unwrap(),
        spread_utilization_gap: 0.05,
        max_migrations_per_tick: 16,
        rebalance_interval: Nanoseconds::from_secs(600),
        backup_interval: Nanoseconds::from_secs(600),
        ..OrchParams::default()
    };
    let clos = OrchParams {
        topology: FabricTopology::Clos {
            racks: 32,
            spines: 4,
            leaf_uplink_bytes_per_second: 2_500_000_000,
            spine_bytes_per_second: 1_250_000_000,
            cross_rack_latency: Nanoseconds::from_micros(50),
        },
        ..base
    };
    let run = |p: OrchParams| run_datacenter(32, p, Box::new(SpreadRebalance), &scenario).unwrap();
    let flat_day = run(base);
    let clos_day = run(clos);
    assert_eq!(run(base), flat_day, "flat day must replay ==");
    assert_eq!(run(clos), clos_day, "clos day must replay ==");
    // Per-transfer rates are identical by construction (NIC-bound at
    // 1.25 GB/s on both fabrics, same latency): the entire difference is
    // queueing — on one shared backbone vs across independent spine paths.
    let duration = |r: &virtlab::orch::OrchReport| {
        r.migration_time_total
            .saturating_add(r.migration_fabric_wait_total)
    };
    assert!(duration(&clos_day) < duration(&flat_day));
    assert!(clos_day.migration_fabric_wait_total < flat_day.migration_fabric_wait_total);
    assert!(clos_day.backup_time_total < flat_day.backup_time_total);
    let mut table = TextTable::new(&[
        ("fabric", Align::Left),
        ("migrations", Align::Right),
        ("fabric wait", Align::Right),
        ("migration total", Align::Right),
        ("backup lag", Align::Right),
    ]);
    for (name, r) in [("single-spine", &flat_day), ("clos 32x4", &clos_day)] {
        table.row([
            name.to_string(),
            r.migrations_completed.to_string(),
            format!("{}", r.migration_fabric_wait_total),
            format!("{}", duration(r)),
            format!("{}", r.backup_time_total),
        ]);
    }
    table.print();
    println!("\nsame day, same seed: the Clos fabric queues less, finishes its");
    println!("migrations and DR sweeps earlier, and both days replay == \u{2714}\n");

    // -- 4. a spine-failure day: degraded, never partitioned -------------
    println!("-- spine-failure day (2 of 4 spines fail mid-day) --\n");
    let degraded_scenario = Scenario::generate(
        ScenarioConfig {
            duration: Nanoseconds::from_secs(2 * 3600),
            ..ScenarioConfig::day(0xE21, WorkloadShape::FlashCrowd, 32, 256)
        }
        .with_spine_failures(2, 4),
    )
    .unwrap();
    let degraded = run_datacenter(32, clos, Box::new(SpreadRebalance), &degraded_scenario).unwrap();
    let replay = run_datacenter(32, clos, Box::new(SpreadRebalance), &degraded_scenario).unwrap();
    assert_eq!(degraded, replay, "degraded day must replay ==");
    assert_eq!(degraded.spines_failed, 2);
    assert_eq!(
        degraded.migrations_completed + degraded.migrations_skipped,
        degraded.migrations_planned,
        "every planned migration is accounted even while degraded"
    );
    println!(
        "spines failed {}   migrations {}   fabric wait {}   backup lag {}",
        degraded.spines_failed,
        degraded.migrations_completed,
        degraded.migration_fabric_wait_total,
        degraded.backup_time_total,
    );
    println!("\nhalf the spine tier gone: the day degrades but completes, and replays == \u{2714}");
}
