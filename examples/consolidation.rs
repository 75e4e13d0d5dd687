//! Server consolidation: pack the 50-VM production estate described in the
//! source material onto as few hosts as possible (experiment E7), compute the
//! annual power + cooling saving versus one physical server per workload
//! (E8), and place the same estate on one NUMA host, packed or interleaved
//! across its nodes (E13).
//!
//! ```text
//! cargo run --example consolidation
//! ```

use virtlab::cluster::{
    ConsolidationPlanner, CostModel, HostSpec, NumaHost, NumaPolicy, NumaTopology,
    PlacementStrategy, ServerRole, VmSpec,
};
use virtlab::types::HostId;
use virtlab::ByteSize;

fn main() {
    println!("== server consolidation planner ==\n");

    let fleet = VmSpec::nireus_fleet();
    println!("fleet: {} virtual servers", fleet.len());

    let host = HostSpec::deck_era_server(HostId::new(0));
    println!(
        "host model: {} cores, {} RAM, {:.0}-{:.0} W\n",
        host.cores, host.memory, host.idle_watts, host.busy_watts
    );

    let planner = ConsolidationPlanner::new(host.clone(), 60);

    // Baseline: one physical server per workload (the pre-virtualization estate).
    let baseline = planner
        .plan(&fleet, PlacementStrategy::OnePerHost)
        .expect("baseline plan");
    // Consolidated: first-fit-decreasing bin packing.
    let consolidated = planner
        .plan(&fleet, PlacementStrategy::FirstFitDecreasing)
        .expect("consolidated plan");
    // Consolidated with 1.5x memory overcommit enabled by ballooning.
    let overcommitted = ConsolidationPlanner::new(host, 60)
        .with_memory_overcommit(1.5)
        .plan(&fleet, PlacementStrategy::FirstFitDecreasing)
        .expect("overcommitted plan");

    println!(
        "{:<28} {:>8} {:>10} {:>12} {:>12}",
        "plan", "hosts", "VMs/host", "mem util", "power (W)"
    );
    for (name, plan) in [
        ("one-per-host (baseline)", &baseline),
        ("consolidated (FFD)", &consolidated),
        ("consolidated + overcommit", &overcommitted),
    ] {
        println!(
            "{:<28} {:>8} {:>10.1} {:>11.0}% {:>12.0}",
            name,
            plan.hosts_used(),
            plan.consolidation_ratio(),
            plan.avg_memory_utilization() * 100.0,
            plan.total_power_watts()
        );
    }

    let cost = CostModel::default();
    let report = cost.compare(&baseline, &consolidated);
    println!(
        "\nannual power+cooling cost (baseline):     {:>10.0} EUR",
        report.baseline_annual_euro
    );
    println!(
        "annual power+cooling cost (consolidated): {:>10.0} EUR",
        report.consolidated_annual_euro
    );
    println!(
        "annual saving:                            {:>10.0} EUR",
        report.annual_saving_euro()
    );
    println!(
        "saving per virtualized server:            {:>10.0} EUR",
        report.saving_per_vm_euro()
    );
    println!(
        "\n(the source material claims ~200-250 EUR/server/year and ~10,000 EUR/year overall)"
    );

    let modern = HostSpec::modern_server(HostId::new(0));
    println!(
        "\n-- the same fleet on a modern host: {} cores, {} RAM --\n",
        modern.cores, modern.memory
    );
    println!(
        "{:<28} {:>8} {:>10} {:>12} {:>12}",
        "plan", "hosts", "VMs/host", "mem util", "power (W)"
    );
    let planner = ConsolidationPlanner::new(modern, 60);
    for (name, strategy) in [
        ("one-per-host (baseline)", PlacementStrategy::OnePerHost),
        ("consolidated (FFD)", PlacementStrategy::FirstFitDecreasing),
    ] {
        let plan = planner.plan(&fleet, strategy).expect("modern plan");
        println!(
            "{:<28} {:>8} {:>10.1} {:>11.0}% {:>12.0}",
            name,
            plan.hosts_used(),
            plan.consolidation_ratio(),
            plan.avg_memory_utilization() * 100.0,
            plan.total_power_watts()
        );
    }

    numa_placement(&fleet);
}

/// Place as much of `fleet` as fits onto `host`; returns how many VMs fit.
fn place_all(host: &mut NumaHost, fleet: &[VmSpec], policy: NumaPolicy) -> usize {
    fleet
        .iter()
        .filter(|vm| host.fits(vm) && host.place(vm, policy).is_ok())
        .count()
}

/// Packing each VM's memory onto one node keeps its accesses local at the
/// cost of node imbalance; interleaving balances the nodes but makes
/// `1 - 1/N` of the accesses remote.
fn numa_placement(fleet: &[VmSpec]) {
    println!("\n-- NUMA placement of the fleet on one 64-core / 256 GiB host --\n");
    println!(
        "{:>6} {:<13} {:>7} {:>16} {:>16} {:>16}",
        "nodes", "policy", "placed", "avg local frac", "avg slowdown", "node imbalance"
    );
    for nodes in [2u32, 4] {
        for policy in NumaPolicy::ALL {
            let topology =
                NumaTopology::symmetric(nodes, 64 / nodes, ByteSize::gib(u64::from(256 / nodes)));
            let mut host = NumaHost::new(topology);
            let placed = place_all(&mut host, fleet, policy);
            println!(
                "{:>6} {:<13} {:>7} {:>15.1}% {:>15.3}x {:>15.1}%",
                nodes,
                policy.name(),
                placed,
                host.avg_local_fraction() * 100.0,
                host.avg_expected_slowdown(),
                host.memory_imbalance() * 100.0
            );
        }
    }

    println!("\nexpected slowdown vs remote-access penalty (4 nodes):");
    println!("{:>10} {:>16} {:>16}", "penalty", "packed", "interleaved");
    for penalty in [1.2f64, 1.4, 1.6, 2.0] {
        let slowdown = NumaPolicy::ALL.map(|policy| {
            let topology =
                NumaTopology::symmetric(4, 16, ByteSize::gib(64)).with_remote_penalty(penalty);
            let mut host = NumaHost::new(topology);
            place_all(&mut host, fleet, policy);
            host.avg_expected_slowdown()
        });
        println!(
            "{:>9.1}x {:>15.3}x {:>15.3}x",
            penalty, slowdown[0], slowdown[1]
        );
    }

    // Four 5 GiB databases on a deck-era host split into two 6 GiB nodes:
    // one fits per node without splitting.
    println!("\nfour 5 GiB databases on a deck-era host with two nodes:");
    for policy in NumaPolicy::ALL {
        let topology = NumaTopology::of_host(&HostSpec::deck_era_server(HostId::new(0)), 2);
        let mut host = NumaHost::new(topology);
        let databases: Vec<VmSpec> = (0..4)
            .map(|i| {
                VmSpec::typical(&format!("sql-{i}"), ServerRole::Database)
                    .with_memory(ByteSize::gib(5))
            })
            .collect();
        let placed = place_all(&mut host, &databases, policy);
        println!(
            "{:<13} placed {} of 4, avg local {:>5.1}%, node utilisation {:?}",
            policy.name(),
            placed,
            host.avg_local_fraction() * 100.0,
            host.node_memory_utilization()
                .iter()
                .map(|u| (u * 100.0).round() as u64)
                .collect::<Vec<_>>()
        );
    }
}
