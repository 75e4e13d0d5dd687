//! # rvisor-bench
//!
//! Shared helpers for the Criterion benchmarks that reproduce the
//! evaluation experiments (E1–E10 in `EXPERIMENTS.md`). Each bench prints
//! the experiment's table/figure data (computed from simulated time, which
//! is deterministic) before handing the hot loops to Criterion for
//! wall-clock measurement.

#![forbid(unsafe_code)]

use rvisor_memory::GuestMemory;
use rvisor_types::ByteSize;
use rvisor_types::VcpuId;
use rvisor_vcpu::ExitReason;
use rvisor_vcpu::{ExecCosts, ExecMode, Vcpu, VcpuConfig, Workload};

/// Build a vCPU + memory pair with the given execution mode, load the
/// workload, and return everything ready to run.
pub fn prepared_vcpu(mode: ExecMode, workload: &Workload) -> (Vcpu, GuestMemory) {
    let mem = GuestMemory::flat(ByteSize::new(workload.required_memory()).page_align_up())
        .expect("guest memory");
    let mut cpu = Vcpu::new(VcpuConfig::new(VcpuId::new(0), mode));
    workload.install(&mem, &mut cpu).expect("install workload");
    (cpu, mem)
}

/// Build a vCPU with a *free* cost model (for wall-clock-only measurements).
pub fn prepared_vcpu_free(mode: ExecMode, workload: &Workload) -> (Vcpu, GuestMemory) {
    prepared_vcpu_with_costs(mode, ExecCosts::FREE, workload)
}

/// Build a vCPU with an explicit cost model (used by the nested-virtualization
/// ablation in E1).
pub fn prepared_vcpu_with_costs(
    mode: ExecMode,
    costs: ExecCosts,
    workload: &Workload,
) -> (Vcpu, GuestMemory) {
    let mem = GuestMemory::flat(ByteSize::new(workload.required_memory()).page_align_up())
        .expect("guest memory");
    let mut cfg = VcpuConfig::new(VcpuId::new(0), mode);
    cfg.costs = costs;
    let mut cpu = Vcpu::new(cfg);
    workload.install(&mem, &mut cpu).expect("install workload");
    (cpu, mem)
}

/// Run a vCPU until the guest halts, servicing exits with no-op handlers.
/// Returns the vCPU's simulated time in nanoseconds.
pub fn run_vcpu_to_halt(cpu: &mut Vcpu, mem: &GuestMemory) -> u64 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rvisor_vcpu::WorkloadKind;

    #[test]
    fn helpers_run_workloads() {
        let w = Workload::new(WorkloadKind::ComputeBound { iterations: 100 }).unwrap();
        let (mut cpu, mem) = prepared_vcpu(ExecMode::HardwareAssist, &w);
        let sim = run_vcpu_to_halt(&mut cpu, &mem);
        assert!(sim > 0);
        let (mut cpu, mem) = prepared_vcpu_free(ExecMode::Paravirt, &w);
        assert_eq!(run_vcpu_to_halt(&mut cpu, &mem), 0);
        let (mut cpu, mem) = prepared_vcpu_with_costs(
            ExecMode::HardwareAssist,
            ExecCosts::nested_hardware_assist(),
            &w,
        );
        assert!(run_vcpu_to_halt(&mut cpu, &mem) >= sim);
    }
}
