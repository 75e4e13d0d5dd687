//! CPU and I/O virtualization: the source's single-host experiments.
//!
//! - **E1** runs three guest workload classes (plus a dirtying one) under
//!   trap-and-emulate, paravirtualization and hardware assist, and one level
//!   deeper (nested hardware assist), in simulated guest time.
//! - **E2** writes 4 MiB through a fully emulated programmed-I/O disk and
//!   through virtio-blk. A VM exit on the virtio path is a doorbell the
//!   guest driver rings (`DriverQueue::kicks`), so the table counts those,
//!   with and without EVENT_IDX notification suppression.
//! - **E5** compares the round-robin, credit and stride vCPU schedulers on
//!   weighted fairness, cap enforcement and oversubscription.
//! - **E10** transmits 20 000 frames through a virtio-net TX queue at three
//!   frame sizes and three queue sizes, with and without EVENT_IDX. The
//!   table has no throughput column: the TX path charges no simulated time,
//!   so the cost a frame size or queue size changes is the number of kicks,
//!   each one a VM exit.
//!
//! ```text
//! cargo run --release --example cpu_and_io
//! ```

use virtlab::block::{RamDisk, SECTOR_SIZE};
use virtlab::memory::GuestMemory;
use virtlab::net::{Frame, MacAddr, VirtualSwitch, ETHERTYPE_IPV4};
use virtlab::sched::{
    CreditScheduler, EntityId, HostSim, RoundRobin, SimConfig, StrideScheduler, VcpuEntity,
};
use virtlab::types::VcpuId;
use virtlab::vcpu::{ExecCosts, ExecMode, ExitReason, Vcpu, VcpuConfig, Workload, WorkloadKind};
use virtlab::virtio::blk::VIRTIO_BLK_T_OUT;
use virtlab::virtio::emulated::{driver_write_sector, EmulatedDisk};
use virtlab::virtio::net::TX_QUEUE;
use virtlab::virtio::{DriverQueue, QueueLayout, VirtQueue, VirtioBlk, VirtioDevice, VirtioNet};
use virtlab::{ByteSize, GuestAddress, Nanoseconds, VmId};

/// A vCPU with `costs`, its guest memory, and `workload` installed.
fn prepared_vcpu(mode: ExecMode, costs: ExecCosts, workload: &Workload) -> (Vcpu, GuestMemory) {
    let mem = GuestMemory::flat(ByteSize::new(workload.required_memory()).page_align_up())
        .expect("guest memory");
    let mut config = VcpuConfig::new(VcpuId::new(0), mode);
    config.costs = costs;
    let mut cpu = Vcpu::new(config);
    workload.install(&mem, &mut cpu).expect("install workload");
    (cpu, mem)
}

/// Run the guest to its halt, completing every exit with a zero, and return
/// its simulated time in nanoseconds.
fn run_vcpu_to_halt(cpu: &mut Vcpu, mem: &GuestMemory) -> u64 {
    loop {
        let out = cpu.run(mem, 1_000_000).expect("vcpu run");
        match out.exit {
            ExitReason::Halt => break,
            ExitReason::Hypercall { .. } => cpu.complete_hypercall(0).unwrap(),
            ExitReason::MmioRead { .. } => cpu.complete_mmio_read(0).unwrap(),
            ExitReason::PioIn { .. } => cpu.complete_pio_in(0).unwrap(),
            ExitReason::PioOut { .. }
            | ExitReason::MmioWrite { .. }
            | ExitReason::Idle
            | ExitReason::InstructionLimit => {}
            ExitReason::PageFault { vaddr, .. } => panic!("unexpected page fault at 0x{vaddr:x}"),
        }
    }
    cpu.stats().sim_time_ns
}

fn e1_exec_modes() {
    println!("-- E1: virtualization overhead by execution mode --\n");
    println!(
        "{:<18} {:<18} {:>16} {:>14} {:>12}",
        "workload", "mode", "sim guest time", "exits/Minstr", "slowdown"
    );
    let workloads = [
        (
            "compute-bound",
            WorkloadKind::ComputeBound { iterations: 20_000 },
        ),
        (
            "privileged-heavy",
            WorkloadKind::PrivilegedHeavy { iterations: 5_000 },
        ),
        (
            "hypercall-heavy",
            WorkloadKind::HypercallHeavy { iterations: 5_000 },
        ),
        (
            "memory-dirty",
            WorkloadKind::MemoryDirty {
                pages: 512,
                passes: 8,
            },
        ),
    ];
    for (name, kind) in workloads {
        let workload = Workload::new(kind).unwrap();
        let hw_assist = ExecMode::HardwareAssist;
        // Hardware assist is the baseline of the slowdown column; the last
        // row runs the same guest one level deeper, where every exit is
        // reflected twice.
        let baseline_ns = {
            let (mut cpu, mem) = prepared_vcpu(hw_assist, hw_assist.default_costs(), &workload);
            run_vcpu_to_halt(&mut cpu, &mem).max(1)
        };
        let rows = ExecMode::ALL
            .map(|mode| (mode, mode.name(), mode.default_costs()))
            .into_iter()
            .chain([(
                hw_assist,
                "nested hw-assist",
                ExecCosts::nested_hardware_assist(),
            )]);
        for (mode, mode_name, costs) in rows {
            let (mut cpu, mem) = prepared_vcpu(mode, costs, &workload);
            let sim_ns = run_vcpu_to_halt(&mut cpu, &mem);
            println!(
                "{:<18} {:<18} {:>13} ns {:>14.1} {:>11.2}x",
                name,
                mode_name,
                sim_ns,
                cpu.stats().exits_per_million_instructions(),
                sim_ns as f64 / baseline_ns as f64
            );
        }
    }
}

const E2_BYTES: u64 = 4 << 20;

/// Write `E2_BYTES` through virtio-blk in `request_size` requests, `queue_depth`
/// of them posted before each pass of the device over its queue. Returns the
/// driver's kicks: the doorbell writes, each a VM exit.
fn virtio_write(request_size: u64, queue_depth: u64, event_idx: bool) -> u64 {
    let mem = GuestMemory::flat(ByteSize::mib(32)).unwrap();
    let (layout, end) = QueueLayout::contiguous(GuestAddress(0x1000), 256).unwrap();
    let mut queue = VirtQueue::new(layout);
    queue.set_event_idx(event_idx);
    let mut driver = DriverQueue::new(layout, GuestAddress((end.0 + 0xfff) & !0xfff), 16 << 20);
    driver.set_event_idx(event_idx);
    driver.init(&mem).unwrap();
    let mut blk = VirtioBlk::new(Box::new(RamDisk::new(ByteSize::mib(16))));

    let payload = vec![0xabu8; request_size as usize];
    let requests = E2_BYTES / request_size;
    let mut completions = 0;
    for request in 0..requests {
        let sector = request * request_size / SECTOR_SIZE;
        let header = VirtioBlk::request_header(VIRTIO_BLK_T_OUT, sector);
        driver.add_chain(&mem, &[&header, &payload], &[1]).unwrap();
        if (request + 1) % queue_depth == 0 || request + 1 == requests {
            blk.process_queue(0, &mem, &mut queue).unwrap();
            while driver.poll_used(&mem).unwrap().is_some() {
                completions += 1;
            }
        }
    }
    assert_eq!(completions, requests, "every request completes");
    driver.kicks()
}

fn e2_virtio_blk() {
    println!(
        "\n-- E2: virtio-blk vs emulated PIO disk ({} MiB written) --\n",
        E2_BYTES >> 20
    );
    // An emulated-disk exit is a register access, a virtio exit a kick;
    // both cost an MMIO exit at hardware assist.
    let exit_ns = ExecMode::HardwareAssist.default_costs().mmio_exit_ns;
    let cost = |exits: u64| format!("{}", Nanoseconds(exits * exit_ns));
    println!(
        "{:<26} {:>10} {:>13} {:>18} {:>13}",
        "device model", "VM exits", "exit cost", "exits, EVENT_IDX", "exit cost"
    );
    let mut disk = EmulatedDisk::new(Box::new(RamDisk::new(ByteSize::mib(16))));
    let sector_data = [0xabu8; SECTOR_SIZE as usize];
    for sector in 0..E2_BYTES / SECTOR_SIZE {
        driver_write_sector(&mut disk, sector % 1024, &sector_data);
    }
    let emulated = disk.stats().register_accesses;
    println!(
        "{:<26} {:>10} {:>13} {:>18} {:>13}",
        "emulated PIO disk",
        emulated,
        cost(emulated),
        "-",
        "-"
    );
    for (queue_depth, request_size) in [(1, 4096), (8, 4096), (32, 4096), (32, 65536)] {
        let plain = virtio_write(request_size, queue_depth, false);
        let suppressed = virtio_write(request_size, queue_depth, true);
        println!(
            "{:<26} {:>10} {:>13} {:>18} {:>13}",
            format!("virtio-blk qd={queue_depth} req={}K", request_size >> 10),
            plain,
            cost(plain),
            suppressed,
            cost(suppressed)
        );
    }
}

fn entity(vm: u32, weight: u32) -> VcpuEntity {
    VcpuEntity::cpu_bound(EntityId::new(VmId::new(vm), VcpuId::new(0))).with_weight(weight)
}

fn e5_schedulers() {
    println!("\n-- E5: scheduler comparison (weights 128:256:256:512 on 1 pCPU, 20k quanta) --\n");
    println!(
        "{:<14} {:>12} {:>18} {:>18}",
        "scheduler", "Jain index", "max weight error", "context switches"
    );
    let mut sim = HostSim::new(SimConfig {
        pcpus: 1,
        quanta: 20_000,
    });
    for (vm, weight) in [(0, 128), (1, 256), (2, 256), (3, 512)] {
        sim.add_entity(entity(vm, weight));
    }
    for r in [
        sim.run(&mut RoundRobin::new()),
        sim.run(&mut CreditScheduler::new()),
        sim.run(&mut StrideScheduler::new()),
    ] {
        println!(
            "{:<14} {:>12.4} {:>17.1}% {:>18}",
            r.scheduler,
            r.jain_index,
            r.weighted_error * 100.0,
            r.context_switches
        );
    }

    println!("\ncap enforcement (credit scheduler, 1 pCPU):");
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

    println!("\noversubscription: 32 always-runnable vCPUs on 8 pCPUs:");
    let mut sim = HostSim::new(SimConfig {
        pcpus: 8,
        quanta: 10_000,
    });
    for vm in 0..32 {
        sim.add_entity(entity(vm, 256));
    }
    for r in [
        sim.run(&mut RoundRobin::new()),
        sim.run(&mut CreditScheduler::new()),
    ] {
        println!(
            "{:<14} utilization {:>6.1}%  Jain {:.4}",
            r.scheduler,
            r.utilization * 100.0,
            r.jain_index
        );
    }
}

const E10_FRAMES: u64 = 20_000;

/// Transmit `E10_FRAMES` frames of `payload_len` bytes through a virtio-net
/// TX queue of `queue_size` descriptors, half a queue per device pass.
/// Returns (driver kicks, bytes the switch carried).
fn tx_run(payload_len: usize, queue_size: u16, event_idx: bool) -> (u64, u64) {
    let mem = GuestMemory::flat(ByteSize::mib(16)).unwrap();
    let switch = VirtualSwitch::new();
    let _sink = switch.add_port(); // something to flood to
    let mut nic = VirtioNet::new(MacAddr::local(1), switch.add_port());

    let (layout, end) = QueueLayout::contiguous(GuestAddress(0x1000), queue_size).unwrap();
    let mut queue = VirtQueue::new(layout);
    queue.set_event_idx(event_idx);
    let mut driver = DriverQueue::new(layout, GuestAddress((end.0 + 0xfff) & !0xfff), 8 << 20);
    driver.set_event_idx(event_idx);
    driver.init(&mem).unwrap();

    let frame = Frame::new(
        MacAddr::local(1),
        MacAddr::local(2),
        ETHERTYPE_IPV4,
        vec![0u8; payload_len],
    );
    let packet = VirtioNet::tx_packet(&frame);
    let batch = u64::from(queue_size / 2);
    let mut sent = 0;
    while sent < E10_FRAMES {
        let this_batch = batch.min(E10_FRAMES - sent);
        for _ in 0..this_batch {
            driver.add_chain(&mem, &[&packet], &[]).unwrap();
        }
        nic.process_queue(TX_QUEUE, &mem, &mut queue).unwrap();
        while driver.poll_used(&mem).unwrap().is_some() {}
        sent += this_batch;
    }
    (driver.kicks(), switch.stats().bytes)
}

fn e10_virtio_net() {
    println!("\n-- E10: virtio-net transmit path ({E10_FRAMES} frames) --\n");
    println!(
        "{:<12} {:>10} {:>14} {:>18} {:>14}",
        "frame size", "queue size", "driver kicks", "kicks, EVENT_IDX", "bytes on wire"
    );
    for payload in [64, 512, 1500] {
        for queue_size in [64, 256, 1024] {
            let (plain, bytes) = tx_run(payload, queue_size, false);
            let (suppressed, suppressed_bytes) = tx_run(payload, queue_size, true);
            assert_eq!(bytes, suppressed_bytes, "EVENT_IDX moves no bytes");
            println!(
                "{:<12} {:>10} {:>14} {:>18} {:>14}",
                payload, queue_size, plain, suppressed, bytes
            );
        }
    }
}

fn main() {
    println!("== CPU and I/O virtualization ==\n");
    e1_exec_modes();
    e2_virtio_blk();
    e5_schedulers();
    e10_virtio_net();
}
