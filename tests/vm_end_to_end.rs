//! End-to-end integration tests: a VM built from the public API, running
//! guest code that crosses every substrate (vCPU, MMU, devices, virtio,
//! block, memory).

use virtlab::block::SECTOR_SIZE;
use virtlab::types::{GuestAddress, PAGE_SIZE};
use virtlab::vcpu::{Assembler, ExecMode, Instr, Reg, Workload, WorkloadKind};
use virtlab::virtio::blk::{VIRTIO_BLK_T_IN, VIRTIO_BLK_T_OUT};
use virtlab::virtio::mmio::regs;
use virtlab::virtio::{DriverQueue, QueueLayout, VirtioBlk};
use virtlab::vmm::{layout, DiskConfig, HypercallNr, VmLifecycle};
use virtlab::{ByteSize, Vm, VmConfig};

#[test]
fn guest_program_crosses_serial_rtc_and_memory() {
    let mut vm = Vm::new(VmConfig::new("e2e").with_memory(ByteSize::mib(8))).unwrap();
    let mut asm = Assembler::new();
    let r = Reg::new;
    // Print "ok", read the RTC, store the time, halt.
    for &b in b"ok" {
        asm.push(Instr::MovImm {
            rd: r(1),
            imm: b as i32,
        });
        asm.push(Instr::Hypercall {
            nr: HypercallNr::ConsolePutChar.raw(),
            rd: r(2),
            rs1: r(1),
        });
    }
    asm.load_const(r(3), layout::RTC_MMIO.0 + 8);
    asm.push(Instr::Load {
        rd: r(4),
        rs1: r(3),
        imm: 0,
    });
    asm.load_const(r(5), 0x20_0000);
    asm.push(Instr::Store {
        rs2: r(4),
        rs1: r(5),
        imm: 0,
    });
    asm.push(Instr::Halt);

    vm.load_program(&asm.assemble().unwrap(), 0x1000).unwrap();
    let stats = vm.run_to_halt().unwrap();

    assert_eq!(vm.serial_output(), "ok");
    assert_eq!(vm.lifecycle(), VmLifecycle::Halted);
    assert!(stats.hypercalls >= 2);
    assert!(stats.mmio_exits >= 1);
    // The stored RTC value reflects simulated time actually elapsed.
    let stored = vm.memory().read_u64(GuestAddress(0x20_0000)).unwrap();
    assert!(stored > 0 && stored < 1_000_000_000);
}

#[test]
fn all_exec_modes_produce_identical_results_with_different_costs() {
    let mut times = Vec::new();
    for mode in ExecMode::ALL {
        let mut vm = Vm::new(
            VmConfig::new("modes")
                .with_memory(ByteSize::mib(8))
                .with_exec_mode(mode),
        )
        .unwrap();
        let w = Workload::new(WorkloadKind::PrivilegedHeavy { iterations: 2_000 }).unwrap();
        vm.load_workload(&w).unwrap();
        let stats = vm.run_to_halt().unwrap();
        assert_eq!(vm.lifecycle(), VmLifecycle::Halted, "{mode:?}");
        times.push((mode, stats.sim_time, stats.instructions));
    }
    // Same guest work everywhere.
    assert_eq!(times[0].2, times[1].2);
    assert_eq!(times[1].2, times[2].2);
    // Trap-and-emulate is the slowest on this exit-heavy guest; paravirt and
    // hardware-assist are both much faster.
    let te = times
        .iter()
        .find(|(m, ..)| *m == ExecMode::TrapAndEmulate)
        .unwrap()
        .1;
    let hw = times
        .iter()
        .find(|(m, ..)| *m == ExecMode::HardwareAssist)
        .unwrap()
        .1;
    assert!(
        te > hw,
        "trap-and-emulate {te} should exceed hw-assist {hw}"
    );
}

#[test]
fn virtio_blk_io_through_a_vm() {
    let mut vm = Vm::new(
        VmConfig::new("disk")
            .with_memory(ByteSize::mib(8))
            .with_disk(DiskConfig::new("system", ByteSize::mib(2))),
    )
    .unwrap();

    // Host-side driver: set up a queue in guest memory and push a write + read.
    let (queue_layout, rings_end) = QueueLayout::contiguous(GuestAddress(0x10_0000), 64).unwrap();
    vm.setup_blk_queue(queue_layout).unwrap();
    let mut driver = DriverQueue::new(
        queue_layout,
        GuestAddress((rings_end.0 + PAGE_SIZE - 1) & !(PAGE_SIZE - 1)),
        512 * 1024,
    );
    driver.init(vm.memory()).unwrap();

    let payload = vec![0x5au8; SECTOR_SIZE as usize];
    let write_header = VirtioBlk::request_header(VIRTIO_BLK_T_OUT, 7);
    driver
        .add_chain(vm.memory(), &[&write_header, &payload], &[1])
        .unwrap();
    let read_header = VirtioBlk::request_header(VIRTIO_BLK_T_IN, 7);
    driver
        .add_chain(vm.memory(), &[&read_header], &[SECTOR_SIZE as u32, 1])
        .unwrap();

    // Ring the doorbell through the MMIO register, exactly as the guest would.
    vm.virtio_blk().unwrap().write(regs::QUEUE_NOTIFY, 0);

    // Both completions arrive and the read saw the written data.
    let (_, len_w) = driver.poll_used(vm.memory()).unwrap().unwrap();
    assert_eq!(len_w, 1);
    let (_, len_r) = driver.poll_used(vm.memory()).unwrap().unwrap();
    assert_eq!(len_r as u64, SECTOR_SIZE + 1);
    // The device reports the used buffers in its status register until the
    // guest acknowledges them.
    let transport = vm.virtio_blk().unwrap();
    assert_eq!(transport.read(regs::INTERRUPT_STATUS) & 1, 1);
    transport.write(regs::INTERRUPT_ACK, 1);
    assert_eq!(transport.read(regs::INTERRUPT_STATUS) & 1, 0);
}

#[test]
fn balloon_reclaims_memory_from_a_vm() {
    let mut vm = Vm::new(
        VmConfig::new("balloon")
            .with_memory(ByteSize::mib(8))
            .with_balloon(),
    )
    .unwrap();
    let total_pages = vm.memory().total_pages();
    vm.set_balloon_pages(total_pages / 2).unwrap();
    let stats = vm.balloon().unwrap().stats();
    assert_eq!(stats.ballooned, ByteSize::pages_of(total_pages / 2));
    assert_eq!(stats.usable + stats.ballooned, stats.configured);
    // Deflate back.
    vm.set_balloon_pages(0).unwrap();
    assert_eq!(vm.balloon().unwrap().held_pages(), 0);
}

#[test]
fn two_vms_exchange_frames_over_a_shared_switch() {
    use virtlab::net::{Frame, MacAddr, ETHERTYPE_IPV4};
    use virtlab::virtio::net::{RX_QUEUE, TX_QUEUE};
    use virtlab::virtio::VirtioNet;

    let mut vmm = virtlab::Vmm::new("net-host");
    let a = vmm
        .create_vm(
            VmConfig::new("vm-a")
                .with_memory(ByteSize::mib(8))
                .with_net(),
        )
        .unwrap();
    let b = vmm
        .create_vm(
            VmConfig::new("vm-b")
                .with_memory(ByteSize::mib(8))
                .with_net(),
        )
        .unwrap();

    // Configure queues on both NICs (host-side driver stand-in).
    let setup = |vm: &mut Vm| {
        let (rx, rx_end) = QueueLayout::contiguous(GuestAddress(0x10_0000), 64).unwrap();
        let (tx, tx_end) = QueueLayout::contiguous(GuestAddress(rx_end.0 + 0x1000), 64).unwrap();
        let transport = vm.virtio_net().unwrap();
        transport.setup_queue(RX_QUEUE, rx).unwrap();
        transport.setup_queue(TX_QUEUE, tx).unwrap();
        let rx_drv = DriverQueue::new(rx, GuestAddress(tx_end.0 + 0x1000), 256 * 1024);
        let tx_drv = DriverQueue::new(tx, GuestAddress(tx_end.0 + 0x1000 + 256 * 1024), 256 * 1024);
        rx_drv.init(vm.memory()).unwrap();
        tx_drv.init(vm.memory()).unwrap();
        (rx_drv, tx_drv)
    };
    let (_a_rx, mut a_tx) = setup(vmm.vm_mut(a).unwrap());
    let (mut b_rx, mut b_tx) = setup(vmm.vm_mut(b).unwrap());

    // b posts receive buffers and announces itself with a broadcast.
    for _ in 0..4 {
        b_rx.add_chain(vmm.vm(b).unwrap().memory(), &[], &[2048])
            .unwrap();
    }
    let announce = Frame::broadcast(MacAddr::local(b.raw()), ETHERTYPE_IPV4, vec![0u8; 32]);
    b_tx.add_chain(
        vmm.vm(b).unwrap().memory(),
        &[&VirtioNet::tx_packet(&announce)],
        &[],
    )
    .unwrap();
    vmm.vm_mut(b)
        .unwrap()
        .virtio_net()
        .unwrap()
        .notify(TX_QUEUE)
        .unwrap();

    // a sends a unicast frame to b.
    let frame = Frame::new(
        MacAddr::local(a.raw()),
        MacAddr::local(b.raw()),
        ETHERTYPE_IPV4,
        vec![7u8; 600],
    );
    a_tx.add_chain(
        vmm.vm(a).unwrap().memory(),
        &[&VirtioNet::tx_packet(&frame)],
        &[],
    )
    .unwrap();
    vmm.vm_mut(a)
        .unwrap()
        .virtio_net()
        .unwrap()
        .notify(TX_QUEUE)
        .unwrap();

    // b polls its receive queue and finds the frame.
    vmm.vm_mut(b)
        .unwrap()
        .virtio_net()
        .unwrap()
        .poll_queue(RX_QUEUE)
        .unwrap();
    let (_, len) = b_rx
        .poll_used(vmm.vm(b).unwrap().memory())
        .unwrap()
        .unwrap();
    assert_eq!(len as usize, 12 + 14 + 600);
    assert!(vmm.switch().stats().forwarded >= 1);
}
