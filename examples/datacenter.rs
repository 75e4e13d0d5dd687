//! A day in the life of a 32-host, 500-VM datacenter, end to end: VMs
//! arrive on a diurnal wave, load shifts, the rebalance policy migrates hot
//! guests, hourly backups stream to the DR store, two hosts fail outright
//! and their tenants are restored from backup onto surviving capacity.
//!
//! The whole day is a deterministic discrete-event simulation: the example
//! runs it twice with the same seed and proves the reports are identical.
//!
//! ```text
//! cargo run --release --example datacenter
//! ```

use virtlab::obs::{Align, TextTable};
use virtlab::orch::{
    run_datacenter, ConsolidateAndPowerDown, OrchParams, RebalancePolicy, Scenario, ScenarioConfig,
    SpreadRebalance, ThresholdRebalance, WorkloadShape,
};
use virtlab::Nanoseconds;

const HOSTS: usize = 32;
const VM_ARRIVALS: usize = 500;
const SEED: u64 = 0xDC;

fn scenario() -> Scenario {
    Scenario::generate(
        ScenarioConfig::day(SEED, WorkloadShape::DiurnalWave, HOSTS, VM_ARRIVALS)
            .with_host_failures(2),
    )
    .expect("scenario config is valid")
}

fn policies() -> [(&'static str, Box<dyn RebalancePolicy>); 3] {
    [
        ("threshold", Box::new(ThresholdRebalance)),
        ("consolidate+powerdown", Box::new(ConsolidateAndPowerDown)),
        ("spread", Box::new(SpreadRebalance)),
    ]
}

fn main() {
    let scenario = scenario();
    let (arrivals, departures, load_changes, failures) = scenario.census();
    println!("-- scenario: {} --", scenario.config.shape.name());
    println!(
        "{arrivals} arrivals, {departures} departures, {load_changes} load changes, \
         {failures} host failures over {}\n",
        scenario.config.duration
    );

    // The headline run: threshold rebalancing, hourly DR backups.
    let params = OrchParams::default();
    println!("-- day-in-the-life run (threshold policy) --\n");
    let report = run_datacenter(HOSTS, params, Box::new(ThresholdRebalance), &scenario)
        .expect("the day runs to completion");
    println!("{report}");

    assert!(report.hosts_failed >= 1, "a host failure must be injected");
    assert!(
        report.vms_restored >= 1,
        "at least one casualty must come back from the DR store"
    );

    // Determinism: the same seed replays to a bit-identical report.
    let replay = run_datacenter(HOSTS, params, Box::new(ThresholdRebalance), &scenario)
        .expect("the replay runs to completion");
    assert_eq!(report, replay, "same seed must produce an identical report");
    println!("replay check: identical report from an identical seed ✔\n");

    // Policy comparison on the same day.
    println!("-- policy comparison --\n");
    let mut table = TextTable::new(&[
        ("policy", Align::Left),
        ("migrated", Align::Right),
        ("downtime", Align::Right),
        ("VM-time-lost", Align::Right),
        ("restored", Align::Right),
        ("avg-hosts", Align::Right),
    ]);
    for (name, policy) in policies() {
        let r = run_datacenter(HOSTS, params, policy, &scenario).expect("run completes");
        table.row([
            name.to_string(),
            r.migrations_completed.to_string(),
            format!("{}", r.migration_downtime_total),
            format!("{}", r.vm_time_lost),
            r.vms_restored.to_string(),
            format!("{:.1}", r.avg_hosts_powered()),
        ]);
    }
    table.print();

    // A quick sensitivity probe: tighter backups shrink the restore point
    // but cost DR bandwidth.
    println!("\n-- backup cadence sensitivity (threshold policy) --\n");
    let mut table = TextTable::new(&[
        ("backup every", Align::Left),
        ("backups", Align::Right),
        ("DR bytes", Align::Right),
        ("VM-time-lost", Align::Right),
    ]);
    for minutes in [30u64, 60, 120] {
        let p = OrchParams {
            backup_interval: Nanoseconds::from_secs(minutes * 60),
            ..OrchParams::default()
        };
        let r = run_datacenter(HOSTS, p, Box::new(ThresholdRebalance), &scenario)
            .expect("run completes");
        table.row([
            format!("{minutes} min"),
            r.backups_taken.to_string(),
            r.backup_bytes.to_string(),
            format!("{}", r.vm_time_lost),
        ]);
    }
    table.print();

    // The policy comparison under the other workload shapes, each its own
    // day from the same seed.
    println!("\n-- policy comparison by workload shape --\n");
    let mut table = TextTable::new(&[
        ("shape", Align::Left),
        ("policy", Align::Left),
        ("migrated", Align::Right),
        ("downtime", Align::Right),
        ("VM-time-lost", Align::Right),
        ("restored", Align::Right),
        ("avg-hosts", Align::Right),
    ]);
    for shape in WorkloadShape::ALL {
        if shape == WorkloadShape::DiurnalWave {
            continue;
        }
        let scenario = Scenario::generate(
            ScenarioConfig::day(SEED, shape, HOSTS, VM_ARRIVALS).with_host_failures(2),
        )
        .expect("scenario config is valid");
        for (name, policy) in policies() {
            let r = run_datacenter(HOSTS, params, policy, &scenario).expect("run completes");
            table.row([
                shape.name().to_string(),
                name.to_string(),
                r.migrations_completed.to_string(),
                format!("{}", r.migration_downtime_total),
                format!("{}", r.vm_time_lost),
                r.vms_restored.to_string(),
                format!("{:.1}", r.avg_hosts_powered()),
            ]);
        }
    }
    table.print();
}
