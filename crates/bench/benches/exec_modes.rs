//! Experiment E1 — CPU virtualization overhead by execution mode.
//!
//! Reproduces the classic comparison of trap-and-emulate (shadow paging),
//! paravirtualization and hardware-assisted virtualization on three guest
//! workload classes: compute-bound, privileged-operation-heavy and
//! hypercall-heavy. The table printed before the Criterion runs shows the
//! simulated guest time (deterministic) and exits per million instructions;
//! the Criterion groups measure host wall-clock per workload execution.
//!
//! A second group, `e1_guest_data_path`, times what a running guest pays per
//! instruction and per memory access at the layout the orchestrator gives its
//! tenants (256 KiB guest, code at 0x1000, two data pages at 0x8000): the
//! dirty-hot tenant's `MemoryDirty` loop in 100 000-instruction slices, and
//! 1 024 `u64` stores / loads through the view `Vcpu::run` holds (`held`)
//! against the same through `GuestMemory`, which locks per access (`locked`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

use rvisor_bench::{prepared_vcpu, prepared_vcpu_free, prepared_vcpu_with_costs, run_vcpu_to_halt};
use rvisor_memory::GuestMemory;
use rvisor_types::{ByteSize, GuestAddress, VcpuId, PAGE_SIZE};
use rvisor_vcpu::{ExecCosts, ExecMode, Vcpu, VcpuConfig, Workload, WorkloadKind};

fn workloads() -> Vec<(&'static str, Workload)> {
    vec![
        (
            "compute-bound",
            Workload::new(WorkloadKind::ComputeBound { iterations: 20_000 }).unwrap(),
        ),
        (
            "privileged-heavy",
            Workload::new(WorkloadKind::PrivilegedHeavy { iterations: 5_000 }).unwrap(),
        ),
        (
            "hypercall-heavy",
            Workload::new(WorkloadKind::HypercallHeavy { iterations: 5_000 }).unwrap(),
        ),
        (
            "memory-dirty",
            Workload::new(WorkloadKind::MemoryDirty {
                pages: 512,
                passes: 8,
            })
            .unwrap(),
        ),
    ]
}

fn print_table() {
    println!("\n=== E1: virtualization overhead by execution mode ===");
    println!(
        "{:<18} {:<18} {:>16} {:>14} {:>12}",
        "workload", "mode", "sim guest time", "exits/Minstr", "slowdown"
    );
    for (name, workload) in workloads() {
        // Hardware-assist is the normalization baseline for the slowdown column.
        let baseline_ns = {
            let (mut cpu, mem) = prepared_vcpu(ExecMode::HardwareAssist, &workload);
            run_vcpu_to_halt(&mut cpu, &mem).max(1)
        };
        for mode in ExecMode::ALL {
            let (mut cpu, mem) = prepared_vcpu(mode, &workload);
            let sim_ns = run_vcpu_to_halt(&mut cpu, &mem);
            let stats = cpu.stats();
            println!(
                "{:<18} {:<18} {:>13} ns {:>14.1} {:>11.2}x",
                name,
                mode.name(),
                sim_ns,
                stats.exits_per_million_instructions(),
                sim_ns as f64 / baseline_ns as f64
            );
        }
        // Ablation row: the same guest one virtualization level deeper
        // (nested hardware-assist), where every exit is reflected twice.
        let (mut cpu, mem) = prepared_vcpu_with_costs(
            ExecMode::HardwareAssist,
            ExecCosts::nested_hardware_assist(),
            &workload,
        );
        let sim_ns = run_vcpu_to_halt(&mut cpu, &mem);
        let stats = cpu.stats();
        println!(
            "{:<18} {:<18} {:>13} ns {:>14.1} {:>11.2}x",
            name,
            "nested hw-assist",
            sim_ns,
            stats.exits_per_million_instructions(),
            sim_ns as f64 / baseline_ns as f64
        );
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_table();
    let mut group = c.benchmark_group("e1_exec_modes");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));
    for (name, workload) in workloads() {
        for mode in ExecMode::ALL {
            group.bench_with_input(
                BenchmarkId::new(name, mode.name()),
                &(mode, &workload),
                |b, (mode, workload)| {
                    b.iter(|| {
                        let (mut cpu, mem) = prepared_vcpu_free(*mode, workload);
                        run_vcpu_to_halt(&mut cpu, &mem);
                        cpu.stats().instructions
                    })
                },
            );
        }
    }
    group.finish();
    bench_guest_data_path(c);
}

/// The orchestrator's tenant layout (`rvisor-orch`'s `provision_canonical`).
const TENANT_ENTRY: u64 = 0x1000;
const TENANT_DATA_BASE: u64 = 0x8000;
const TENANT_DATA_PAGES: u64 = 2;
const TENANT_GUEST: ByteSize = ByteSize::kib(256);

fn bench_guest_data_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_guest_data_path");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));

    // ns per instruction = the row's time / 100 000. The loop outlasts the
    // bench, so every iteration is one full slice.
    const SLICE: u64 = 100_000;
    let kind = WorkloadKind::MemoryDirty {
        pages: TENANT_DATA_PAGES,
        passes: u64::MAX,
    };
    let workload = Workload::with_layout(kind, TENANT_ENTRY, TENANT_DATA_BASE).unwrap();
    let mem = GuestMemory::flat(TENANT_GUEST).unwrap();
    let mut cpu = Vcpu::new(VcpuConfig::new(VcpuId::new(0), ExecMode::HardwareAssist));
    workload.install(&mem, &mut cpu).unwrap();
    group.throughput(Throughput::Elements(SLICE));
    group.bench_function("tenant_memory_dirty_2p", |b| {
        b.iter(|| cpu.run(&mem, SLICE).unwrap().instructions)
    });

    // ns per access = the row's time / 1 024, alternating between the two
    // data pages as the tenant's loop does.
    const ACCESSES: u64 = 1024;
    let at = |i: u64| GuestAddress(TENANT_DATA_BASE + (i % 2) * PAGE_SIZE + (i / 2) * 8);
    group.throughput(Throughput::Elements(ACCESSES));
    group.bench_function(BenchmarkId::new("guest_store_u64", "held"), |b| {
        b.iter(|| {
            let mut view = mem.hold();
            for i in 0..ACCESSES {
                view.write_u64(at(i), i).unwrap();
            }
        })
    });
    group.bench_function(BenchmarkId::new("guest_store_u64", "locked"), |b| {
        b.iter(|| {
            for i in 0..ACCESSES {
                mem.write_u64(at(i), i).unwrap();
            }
        })
    });
    group.bench_function(BenchmarkId::new("guest_load_u64", "held"), |b| {
        b.iter(|| {
            let view = mem.hold();
            (0..ACCESSES).fold(0u64, |sum, i| sum ^ view.read_u64(at(i)).unwrap())
        })
    });
    group.bench_function(BenchmarkId::new("guest_load_u64", "locked"), |b| {
        b.iter(|| (0..ACCESSES).fold(0u64, |sum, i| sum ^ mem.read_u64(at(i)).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
