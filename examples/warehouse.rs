//! A warehouse-scale day: 10,000 hosts and 100,000 VM arrivals on a
//! diurnal wave, with host failures, DR restores and policy-driven
//! migrations — the E19 scale experiment.
//!
//! What makes this tractable is the trio of scale features in
//! `rvisor-orch`: utilization-indexed cluster state (placement and
//! rebalance ticks touch candidate hosts, not all 10k), an event loop that
//! reads the day's ~500k events off their already-sorted sources, and
//! the [`VmFidelity::OnDemand`] dial (VMs run as statistical models until a
//! migration or restore actually needs guest pages).
//!
//! Everything printed to stdout is deterministic: the same binary run twice
//! byte-diffs clean and matches `golden/warehouse.stdout`, which the
//! `golden` CI job enforces. Wall-clock timing goes to stderr.
//!
//! ```text
//! cargo run --release --example warehouse
//! ```

use std::num::NonZeroUsize;
use std::time::Instant;

use virtlab::cluster::PlacementStrategy;
use virtlab::obs::{Align, TextTable};
use virtlab::orch::{
    run_datacenter, OrchParams, Scenario, ScenarioConfig, SpreadRebalance, VmFidelity,
    WorkloadShape, MIN_GUEST_MEMORY,
};
use virtlab::Nanoseconds;

const HOSTS: usize = 10_000;
const VM_ARRIVALS: usize = 100_000;
const SEED: u64 = 0xE19;

fn warehouse_params(streams: usize) -> OrchParams {
    OrchParams {
        // Spread placement reads the utilization index: each arrival lands
        // on the coldest host that fits instead of scanning 10k hosts.
        placement: PlacementStrategy::Spread,
        fidelity: VmFidelity::OnDemand,
        // A tight gap keeps the spread policy busy all day: tenant load
        // changes continuously open utilization spread it migrates shut.
        spread_utilization_gap: 0.05,
        // Migrated VMs materialize into full guests and stay full; the
        // minimum guest keeps a day's worth of migrants cheap.
        guest_memory: MIN_GUEST_MEMORY,
        migration_streams: NonZeroUsize::new(streams).expect("streams >= 1"),
        ..OrchParams::default()
    }
}

fn scenario(hosts: usize, vms: usize, duration: Nanoseconds) -> Scenario {
    Scenario::generate(
        ScenarioConfig {
            duration,
            ..ScenarioConfig::day(SEED, WorkloadShape::DiurnalWave, hosts, vms)
        }
        .with_host_failures(2),
    )
    .expect("scenario config is valid")
}

fn main() {
    // The headline day: full 24 hours at full scale.
    let day = scenario(HOSTS, VM_ARRIVALS, Nanoseconds::from_secs(24 * 3600));
    let (arrivals, departures, load_changes, failures) = day.census();
    println!("-- warehouse scenario: {} --", day.config.shape.name());
    println!(
        "{HOSTS} hosts; {arrivals} arrivals, {departures} departures, \
         {load_changes} load changes, {failures} host failures over {}\n",
        day.config.duration
    );

    let started = Instant::now();
    let report = run_datacenter(HOSTS, warehouse_params(1), Box::new(SpreadRebalance), &day)
        .expect("the day runs to completion");
    let headline_wall = started.elapsed();
    println!("-- day-in-the-life run (spread policy, on-demand fidelity) --\n");
    println!("{report}");

    assert!(report.hosts_failed >= 1, "a host failure must be injected");
    assert!(
        report.vms_restored >= 1,
        "at least one casualty must come back from the DR store"
    );

    // Determinism at scale: the same seed replays to a bit-identical
    // report, event loop, indexes, fidelity dial and all.
    let replay = run_datacenter(HOSTS, warehouse_params(1), Box::new(SpreadRebalance), &day)
        .expect("the replay runs to completion");
    assert_eq!(report, replay, "same seed must produce an identical report");
    println!("replay check: identical report from an identical seed ✔\n");

    // E19: migration cost across host count × stream count. Quarter-days
    // keep the sweep quick; every cell is a full simulation. The E18
    // pipelined data plane is *simulated-time invariant* — streams buy
    // wall-clock overlap, never simulated time — so each host count's
    // stream rows must be identical, and the sweep asserts exactly that.
    println!("-- E19: streams × host-count scale sweep (6 h quarter-days) --\n");
    let mut table = TextTable::new(&[
        ("hosts", Align::Right),
        ("streams", Align::Right),
        ("migrated", Align::Right),
        ("mig-time", Align::Right),
        ("downtime", Align::Right),
        ("mig-bytes", Align::Right),
        ("events", Align::Right),
    ]);
    for hosts in [1_000usize, 4_000, 10_000] {
        let quarter = scenario(hosts, hosts * 10, Nanoseconds::from_secs(6 * 3600));
        let mut single_stream = None;
        for streams in [1usize, 4] {
            let r = run_datacenter(
                hosts,
                warehouse_params(streams),
                Box::new(SpreadRebalance),
                &quarter,
            )
            .expect("sweep run completes");
            table.row([
                hosts.to_string(),
                streams.to_string(),
                r.migrations_completed.to_string(),
                format!("{}", r.migration_time_total),
                format!("{}", r.migration_downtime_total),
                r.migration_bytes.to_string(),
                r.events_processed.to_string(),
            ]);
            match single_stream.take() {
                None => single_stream = Some(r),
                Some(base) => assert_eq!(
                    base, r,
                    "stream count must be invisible in simulated time at {hosts} hosts"
                ),
            }
        }
    }
    table.print();
    println!("\nstream-invariance check: 1-stream ≡ 4-stream at every host count ✔");

    // Timing is real wall-clock and therefore stderr-only: stdout must
    // byte-diff clean between runs.
    eprintln!(
        "\nheadline day wall-clock: {:.1}s (total {:.1}s)",
        headline_wall.as_secs_f64(),
        started.elapsed().as_secs_f64()
    );
}
