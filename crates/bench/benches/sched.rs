//! Experiment E5 — vCPU scheduling: weighted fairness, cap enforcement and
//! scheduler overhead for round-robin, credit and stride schedulers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use rvisor_sched::{
    CreditScheduler, EntityId, HostSim, RoundRobin, Scheduler, SimConfig, StrideScheduler,
    VcpuEntity,
};
use rvisor_types::{VcpuId, VmId};

fn entity(vm: u32, weight: u32) -> VcpuEntity {
    VcpuEntity::cpu_bound(EntityId::new(VmId::new(vm), VcpuId::new(0))).with_weight(weight)
}

fn weighted_sim(pcpus: usize, quanta: u64) -> HostSim {
    let mut sim = HostSim::new(SimConfig { pcpus, quanta });
    sim.add_entity(entity(0, 128));
    sim.add_entity(entity(1, 256));
    sim.add_entity(entity(2, 256));
    sim.add_entity(entity(3, 512));
    sim
}

fn oversubscribed_sim(vcpus: u32, pcpus: usize, quanta: u64) -> HostSim {
    let mut sim = HostSim::new(SimConfig { pcpus, quanta });
    for vm in 0..vcpus {
        sim.add_entity(entity(vm, 256));
    }
    sim
}

fn print_table() {
    println!("\n=== E5: scheduler comparison (weights 128:256:256:512 on 1 pCPU, 20k quanta) ===");
    println!(
        "{:<14} {:>12} {:>18} {:>18}",
        "scheduler", "Jain index", "max weight error", "context switches"
    );
    let sim = weighted_sim(1, 20_000);
    let reports = [
        sim.run(&mut RoundRobin::new()),
        sim.run(&mut CreditScheduler::new()),
        sim.run(&mut StrideScheduler::new()),
    ];
    for r in &reports {
        println!(
            "{:<14} {:>12.4} {:>17.1}% {:>18}",
            r.scheduler,
            r.jain_index,
            r.weighted_error * 100.0,
            r.context_switches
        );
    }

    println!("\n--- cap enforcement (credit scheduler, 1 pCPU) ---");
    let mut sim = HostSim::new(SimConfig {
        pcpus: 1,
        quanta: 10_000,
    });
    sim.add_entity(entity(0, 256).with_cap(25));
    sim.add_entity(entity(1, 256));
    let r = sim.run(&mut CreditScheduler::new());
    println!(
        "capped vCPU got {:.1}% of the CPU (cap 25%), uncapped got {:.1}%",
        r.share_of(EntityId::new(VmId::new(0), VcpuId::new(0))) * 100.0,
        r.share_of(EntityId::new(VmId::new(1), VcpuId::new(0))) * 100.0
    );

    println!("\n--- oversubscription: 32 always-runnable vCPUs on 8 pCPUs ---");
    let sim = oversubscribed_sim(32, 8, 10_000);
    for report in [
        sim.run(&mut RoundRobin::new()),
        sim.run(&mut CreditScheduler::new()),
    ] {
        println!(
            "{:<14} utilization {:>6.1}%  Jain {:.4}",
            report.scheduler,
            report.utilization * 100.0,
            report.jain_index
        );
    }
    println!();
}

type MakeScheduler = fn() -> Box<dyn Scheduler>;

fn bench(c: &mut Criterion) {
    print_table();
    let mut group = c.benchmark_group("e5_sched");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));
    let makers: Vec<(&str, MakeScheduler)> = vec![
        ("round-robin", || {
            Box::new(RoundRobin::new()) as Box<dyn Scheduler>
        }),
        ("credit", || {
            Box::new(CreditScheduler::new()) as Box<dyn Scheduler>
        }),
        ("stride", || {
            Box::new(StrideScheduler::new()) as Box<dyn Scheduler>
        }),
    ];
    for (name, make) in makers {
        group.bench_with_input(
            BenchmarkId::new("sim_10k_quanta", name),
            &make,
            |b, make| {
                let sim = oversubscribed_sim(32, 8, 10_000);
                b.iter(|| {
                    let mut sched = make();
                    sim.run(sched.as_mut()).context_switches
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
