//! # rvisor-vcpu
//!
//! The guest CPU substrate: a small, deterministic RISC-style instruction set
//! (**GISA**) together with an assembler, a paging MMU with a software TLB,
//! and an interpreter that produces **VM exits** exactly where a hardware
//! virtualization extension would.
//!
//! ## Why a synthetic ISA?
//!
//! The experiments a virtualization paper runs against real hardware —
//! virtualization overhead of exit-heavy vs compute-bound workloads,
//! paravirtual vs emulated I/O, dirty-page behaviour under migration —
//! depend on *when the guest leaves guest mode and how much that costs*,
//! not on the particular ISA the guest speaks. GISA makes those events
//! explicit and countable:
//!
//! * privileged instructions (`SetPtbr`, `TlbFlush`, `Iret`, CSR access)
//!   trap to the hypervisor when the execution mode says they must;
//! * loads/stores that touch MMIO or port I/O addresses produce
//!   [`ExitReason::MmioRead`]/[`ExitReason::MmioWrite`]/PIO exits;
//! * the `Hypercall` instruction models paravirtual calls;
//! * the MMU walks real page tables stored in guest memory, so page-table
//!   experiments (shadow paging vs nested paging cost) are measurable.
//!
//! ## Execution modes
//!
//! [`ExecMode`] selects the virtualization technique being modelled —
//! trap-and-emulate (shadow paging), paravirtual, or hardware-assisted —
//! and with it the cost model ([`ExecCosts`]) used to convert counted events
//! into simulated nanoseconds.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod asm;
pub mod cpu;
pub mod exec_mode;
pub mod isa;
pub mod mmu;
pub mod workloads;

pub use asm::Assembler;
pub use cpu::{ExitReason, RunOutcome, Vcpu, VcpuConfig, VcpuState, VcpuStats};
pub use exec_mode::{ExecCosts, ExecMode};
pub use isa::{Cond, Instr, Reg};
pub use workloads::{Workload, WorkloadKind};
