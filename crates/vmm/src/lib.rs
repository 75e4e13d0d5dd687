//! # rvisor
//!
//! The rvisor virtual machine monitor: the crate a downstream user depends
//! on. It composes the substrates — guest memory, the GISA vCPU, the device
//! models, virtio, block and network backends, schedulers, snapshots and the
//! migration engines — into virtual machines with a conventional lifecycle.
//!
//! ## Quick start
//!
//! ```
//! use rvisor::{Vm, VmConfig};
//! use rvisor_types::ByteSize;
//! use rvisor_vcpu::{Workload, WorkloadKind};
//!
//! // Configure and build a VM.
//! let config = VmConfig::new("demo").with_memory(ByteSize::mib(8));
//! let mut vm = Vm::new(config).unwrap();
//!
//! // Give it something to run and let it run to completion.
//! let workload = Workload::new(WorkloadKind::ComputeBound { iterations: 1000 }).unwrap();
//! vm.load_workload(&workload).unwrap();
//! let stats = vm.run_to_halt().unwrap();
//! assert!(stats.instructions > 0);
//! ```
//!
//! ## Structure
//!
//! * [`VmConfig`] / [`Vm`] — building and running a single machine.
//! * [`Vmm`] — the host-level manager: many VMs, snapshots, balloon policy
//!   and live migration between managers.
//! * [`layout`] — the fixed guest physical memory map (where RAM ends and
//!   the device windows live).
//! * [`hypercalls`] — the paravirtual interface the guest may call.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod hypercalls;
pub mod layout;
pub mod manager;
pub mod vm;

pub use config::{DiskConfig, VmConfig};
pub use hypercalls::HypercallNr;
pub use manager::Vmm;
pub use rvisor_memory::{DedupAnalysis, KsmConfig, KsmManager, KsmStats};
pub use rvisor_migrate::PageCompression;
pub use rvisor_types::{ByteSize, Error, GuestAddress, Nanoseconds, Result, VcpuId, VmId};
pub use rvisor_vcpu::{ExecMode, Workload, WorkloadKind};
pub use vm::{Vm, VmLifecycle, VmRunStats};
