//! Synthetic guest workloads.
//!
//! Real evaluations boot Linux or Windows guests and run SPEC, kernel builds
//! or iperf inside them. What those guests contribute to a *virtualization*
//! experiment is a pattern of events: retired instructions, privileged
//! operations, I/O requests, and dirtied pages. The generators here produce
//! GISA programs with precisely controllable amounts of each, which is what
//! lets the examples sweep "dirty rate" or "exit rate" as an independent
//! variable.

use rvisor_memory::GuestMemory;
use rvisor_types::{GuestAddress, Result, PAGE_SIZE};

use crate::asm::Assembler;
use crate::cpu::Vcpu;
use crate::isa::{AluOp, Cond, Instr, Reg};

/// Default guest virtual address where workload code is loaded.
const DEFAULT_ENTRY: u64 = 0x1000;
/// Default guest virtual address of the workload's data area.
const DEFAULT_DATA_BASE: u64 = 0x10_0000;

/// The kinds of synthetic guest programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Pure register arithmetic; never exits until it halts.
    ComputeBound {
        /// Number of loop iterations (4 ALU ops each).
        iterations: u64,
    },
    /// Writes one 8-byte value into each of `pages` pages, `passes` times —
    /// the canonical dirty-page generator for migration experiments.
    MemoryDirty {
        /// Number of distinct pages to touch per pass.
        pages: u64,
        /// Number of passes over the page set.
        passes: u64,
    },
    /// Performs `requests` port-output operations (device doorbells).
    IoBound {
        /// Number of I/O operations.
        requests: u64,
        /// Port to write to.
        port: u32,
    },
    /// Executes privileged operations (TLB flushes and CSR writes) in a loop;
    /// the exit-heavy workload that separates the virtualization techniques.
    PrivilegedHeavy {
        /// Number of loop iterations (2 privileged ops each).
        iterations: u64,
    },
    /// Issues `iterations` hypercalls — the paravirtual fast path.
    HypercallHeavy {
        /// Number of hypercalls.
        iterations: u64,
    },
    /// An idle guest that pauses `wakeups` times before halting.
    Idle {
        /// Number of pause/idle exits before halting.
        wakeups: u64,
    },
}

impl WorkloadKind {}

/// A generated guest program plus the layout it expects.
#[derive(Debug, Clone)]
pub struct Workload {
    kind: WorkloadKind,
    entry: u64,
    data_base: u64,
    code: Vec<u8>,
}

impl Workload {
    /// Build a workload with the default memory layout.
    pub fn new(kind: WorkloadKind) -> Result<Self> {
        Self::with_layout(kind, DEFAULT_ENTRY, DEFAULT_DATA_BASE)
    }

    /// Build a workload with an explicit entry point and data area.
    pub fn with_layout(kind: WorkloadKind, entry: u64, data_base: u64) -> Result<Self> {
        let code = Self::generate(kind, entry, data_base)?;
        Ok(Workload {
            kind,
            entry,
            data_base,
            code,
        })
    }

    /// The entry point (guest virtual address).
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// Size of guest memory (in bytes) this workload needs to run with the
    /// identity mapping used by the VMM: code + data area.
    pub fn required_memory(&self) -> u64 {
        let data_len = match self.kind {
            WorkloadKind::MemoryDirty { pages, .. } => pages * PAGE_SIZE,
            _ => PAGE_SIZE,
        };
        (self.data_base + data_len).max(self.entry + self.code.len() as u64 + PAGE_SIZE)
    }

    /// Write the code image into guest memory at the entry address.
    ///
    /// The dirty bits produced by loading are cleared: loading the guest
    /// image is the hypervisor's doing, not guest activity.
    pub fn load(&self, memory: &GuestMemory) -> Result<()> {
        memory.write(GuestAddress(self.entry), &self.code)?;
        memory.clear_dirty();
        Ok(())
    }

    /// Load the code and point the vCPU's program counter at the entry.
    pub fn install(&self, memory: &GuestMemory, vcpu: &mut Vcpu) -> Result<()> {
        self.load(memory)?;
        vcpu.set_pc(self.entry);
        Ok(())
    }

    fn generate(kind: WorkloadKind, entry: u64, data_base: u64) -> Result<Vec<u8>> {
        let mut asm = Assembler::with_base(entry);
        let r = Reg::new;
        match kind {
            WorkloadKind::ComputeBound { iterations } => {
                // r1 = counter, r2/r3/r4 = working registers
                asm.load_const(r(1), iterations);
                asm.push(Instr::MovImm { rd: r(2), imm: 1 });
                asm.push(Instr::MovImm { rd: r(3), imm: 3 });
                asm.label("loop");
                asm.push(Instr::Alu {
                    op: AluOp::Mul,
                    rd: r(2),
                    rs1: r(2),
                    rs2: r(3),
                });
                asm.push(Instr::Alu {
                    op: AluOp::Add,
                    rd: r(4),
                    rs1: r(4),
                    rs2: r(2),
                });
                asm.push(Instr::Alu {
                    op: AluOp::Xor,
                    rd: r(2),
                    rs1: r(2),
                    rs2: r(4),
                });
                asm.push(Instr::Alu {
                    op: AluOp::Or,
                    rd: r(4),
                    rs1: r(4),
                    rs2: r(3),
                });
                asm.push(Instr::AddImm {
                    rd: r(1),
                    rs1: r(1),
                    imm: -1,
                });
                asm.branch_to(Cond::Ne, r(1), Reg::ZERO, "loop");
                asm.push(Instr::Halt);
            }
            WorkloadKind::MemoryDirty { pages, passes } => {
                // r1 = pass counter, r2 = page counter, r3 = address, r5 = page size
                asm.load_const(r(1), passes.max(1));
                asm.load_const(r(5), PAGE_SIZE);
                asm.label("pass");
                asm.load_const(r(2), pages.max(1));
                asm.load_const(r(3), data_base);
                asm.label("page");
                asm.push(Instr::Store {
                    rs2: r(1),
                    rs1: r(3),
                    imm: 0,
                });
                asm.push(Instr::Alu {
                    op: AluOp::Add,
                    rd: r(3),
                    rs1: r(3),
                    rs2: r(5),
                });
                asm.push(Instr::AddImm {
                    rd: r(2),
                    rs1: r(2),
                    imm: -1,
                });
                asm.branch_to(Cond::Ne, r(2), Reg::ZERO, "page");
                asm.push(Instr::AddImm {
                    rd: r(1),
                    rs1: r(1),
                    imm: -1,
                });
                asm.branch_to(Cond::Ne, r(1), Reg::ZERO, "pass");
                asm.push(Instr::Halt);
            }
            WorkloadKind::IoBound { requests, port } => {
                asm.load_const(r(1), requests.max(1));
                asm.push(Instr::MovImm {
                    rd: r(2),
                    imm: 0x5a,
                });
                asm.label("io");
                asm.push(Instr::Out {
                    rs1: r(2),
                    imm: port as i32,
                });
                asm.push(Instr::AddImm {
                    rd: r(1),
                    rs1: r(1),
                    imm: -1,
                });
                asm.branch_to(Cond::Ne, r(1), Reg::ZERO, "io");
                asm.push(Instr::Halt);
            }
            WorkloadKind::PrivilegedHeavy { iterations } => {
                asm.load_const(r(1), iterations.max(1));
                asm.push(Instr::MovImm { rd: r(2), imm: 7 });
                asm.label("loop");
                asm.push(Instr::TlbFlush);
                asm.push(Instr::WriteCsr { rs1: r(2), imm: 20 });
                asm.push(Instr::AddImm {
                    rd: r(1),
                    rs1: r(1),
                    imm: -1,
                });
                asm.branch_to(Cond::Ne, r(1), Reg::ZERO, "loop");
                asm.push(Instr::Halt);
            }
            WorkloadKind::HypercallHeavy { iterations } => {
                asm.load_const(r(1), iterations.max(1));
                asm.push(Instr::MovImm { rd: r(2), imm: 42 });
                asm.label("loop");
                asm.push(Instr::Hypercall {
                    nr: 1,
                    rd: r(3),
                    rs1: r(2),
                });
                asm.push(Instr::AddImm {
                    rd: r(1),
                    rs1: r(1),
                    imm: -1,
                });
                asm.branch_to(Cond::Ne, r(1), Reg::ZERO, "loop");
                asm.push(Instr::Halt);
            }
            WorkloadKind::Idle { wakeups } => {
                asm.load_const(r(1), wakeups.max(1));
                asm.label("loop");
                asm.push(Instr::Pause);
                asm.push(Instr::AddImm {
                    rd: r(1),
                    rs1: r(1),
                    imm: -1,
                });
                asm.branch_to(Cond::Ne, r(1), Reg::ZERO, "loop");
                asm.push(Instr::Halt);
            }
        }
        asm.assemble()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cpu::{ExitReason, VcpuConfig};
    use crate::exec_mode::{ExecCosts, ExecMode};
    use rvisor_types::{ByteSize, VcpuId};

    impl WorkloadKind {
        /// A short name for benchmark labels.
        pub(crate) fn name(&self) -> &'static str {
            match self {
                WorkloadKind::ComputeBound { .. } => "compute-bound",
                WorkloadKind::MemoryDirty { .. } => "memory-dirty",
                WorkloadKind::IoBound { .. } => "io-bound",
                WorkloadKind::PrivilegedHeavy { .. } => "privileged-heavy",
                WorkloadKind::HypercallHeavy { .. } => "hypercall-heavy",
                WorkloadKind::Idle { .. } => "idle",
            }
        }
    }

    impl Workload {
        /// The workload kind.
        pub(crate) fn kind(&self) -> WorkloadKind {
            self.kind
        }

        /// The first address of the data area the workload writes to.
        pub(crate) fn data_base(&self) -> u64 {
            self.data_base
        }

        /// The assembled code image.
        pub(crate) fn code(&self) -> &[u8] {
            &self.code
        }
    }

    fn run_to_halt(workload: &Workload, mode: ExecMode) -> (Vcpu, GuestMemory, u64) {
        let mem =
            GuestMemory::flat(ByteSize::new(workload.required_memory()).page_align_up()).unwrap();
        let mut cfg = VcpuConfig::new(VcpuId::new(0), mode);
        cfg.costs = ExecCosts::FREE;
        let mut cpu = Vcpu::new(cfg);
        workload.install(&mem, &mut cpu).unwrap();
        let mut hypercall_count = 0u64;
        loop {
            let out = cpu.run(&mem, 1_000_000).unwrap();
            match out.exit {
                ExitReason::Halt => break,
                ExitReason::Hypercall { .. } => {
                    hypercall_count += 1;
                    cpu.complete_hypercall(0).unwrap();
                }
                ExitReason::PioOut { .. } | ExitReason::Idle | ExitReason::InstructionLimit => {}
                ExitReason::PioIn { .. } => cpu.complete_pio_in(0).unwrap(),
                ExitReason::MmioRead { .. } => cpu.complete_mmio_read(0).unwrap(),
                other => panic!("unexpected exit {other:?}"),
            }
        }
        (cpu, mem, hypercall_count)
    }

    #[test]
    fn compute_bound_never_exits_until_halt() {
        let w = Workload::new(WorkloadKind::ComputeBound { iterations: 100 }).unwrap();
        let (cpu, _mem, _) = run_to_halt(&w, ExecMode::HardwareAssist);
        let stats = cpu.stats();
        assert_eq!(stats.halts, 1);
        assert_eq!(
            stats.mmio_exits + stats.pio_exits + stats.hypercalls + stats.page_faults,
            0
        );
        assert!(stats.instructions > 600);
    }

    #[test]
    fn memory_dirty_touches_expected_pages() {
        let pages = 32;
        let w = Workload::new(WorkloadKind::MemoryDirty { pages, passes: 2 }).unwrap();
        let (_cpu, mem, _) = run_to_halt(&w, ExecMode::HardwareAssist);
        // Exactly `pages` distinct data pages were dirtied (code loading clears its own dirt).
        assert_eq!(mem.dirty_page_count(), pages);
        let first_data_page = DEFAULT_DATA_BASE / PAGE_SIZE;
        assert!(mem
            .dirty_pages()
            .iter()
            .all(|&p| p >= first_data_page && p < first_data_page + pages));
    }

    #[test]
    fn io_bound_generates_exact_pio_exits() {
        let w = Workload::new(WorkloadKind::IoBound {
            requests: 57,
            port: 0x3f8,
        })
        .unwrap();
        let (cpu, _mem, _) = run_to_halt(&w, ExecMode::HardwareAssist);
        assert_eq!(cpu.stats().pio_exits, 57);
    }

    #[test]
    fn hypercall_heavy_generates_exact_hypercalls() {
        let w = Workload::new(WorkloadKind::HypercallHeavy { iterations: 23 }).unwrap();
        let (cpu, _mem, count) = run_to_halt(&w, ExecMode::Paravirt);
        assert_eq!(cpu.stats().hypercalls, 23);
        assert_eq!(count, 23);
    }

    #[test]
    fn privileged_heavy_exit_counts_depend_on_mode() {
        let w = Workload::new(WorkloadKind::PrivilegedHeavy { iterations: 50 }).unwrap();
        let (te, _, _) = run_to_halt(&w, ExecMode::TrapAndEmulate);
        let (hw, _, _) = run_to_halt(&w, ExecMode::HardwareAssist);
        // 2 privileged ops per iteration + the final halt.
        assert_eq!(te.stats().privileged_traps, 50 * 2 + 1);
        assert_eq!(hw.stats().privileged_traps, 0);
        assert!(te.stats().exits > hw.stats().exits);
    }

    #[test]
    fn idle_workload_pauses() {
        let w = Workload::new(WorkloadKind::Idle { wakeups: 5 }).unwrap();
        let (cpu, _, _) = run_to_halt(&w, ExecMode::HardwareAssist);
        assert_eq!(cpu.stats().idles, 5);
    }

    #[test]
    fn workload_metadata() {
        let w = Workload::new(WorkloadKind::MemoryDirty {
            pages: 16,
            passes: 1,
        })
        .unwrap();
        assert_eq!(w.kind().name(), "memory-dirty");
        assert_eq!(w.entry(), DEFAULT_ENTRY);
        assert_eq!(w.data_base(), DEFAULT_DATA_BASE);
        assert!(!w.code().is_empty());
        assert!(w.required_memory() >= DEFAULT_DATA_BASE + 16 * PAGE_SIZE);
    }

    #[test]
    fn all_kinds_have_distinct_names() {
        let kinds = [
            WorkloadKind::ComputeBound { iterations: 1 },
            WorkloadKind::MemoryDirty {
                pages: 1,
                passes: 1,
            },
            WorkloadKind::IoBound {
                requests: 1,
                port: 0,
            },
            WorkloadKind::PrivilegedHeavy { iterations: 1 },
            WorkloadKind::HypercallHeavy { iterations: 1 },
            WorkloadKind::Idle { wakeups: 1 },
        ];
        let names: std::collections::BTreeSet<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
    }

    #[test]
    fn custom_layout_is_respected() {
        let w = Workload::with_layout(
            WorkloadKind::ComputeBound { iterations: 3 },
            0x2000,
            0x20_0000,
        )
        .unwrap();
        let mem = GuestMemory::flat(ByteSize::mib(4)).unwrap();
        let mut cfg = VcpuConfig::new(VcpuId::new(0), ExecMode::HardwareAssist);
        cfg.costs = ExecCosts::FREE;
        let mut cpu = Vcpu::new(cfg);
        w.install(&mem, &mut cpu).unwrap();
        assert_eq!(cpu.save_state().pc, 0x2000);
        let out = cpu.run(&mem, 100_000).unwrap();
        assert_eq!(out.exit, ExitReason::Halt);
    }
}
