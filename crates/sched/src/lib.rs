//! # rvisor-sched
//!
//! vCPU scheduling on simulated hosts.
//!
//! A physical host has a handful of pCPUs and potentially many more vCPUs
//! (that is the whole point of consolidation). The scheduler decides which
//! vCPUs run each quantum. Three schedulers are provided:
//!
//! * [`RoundRobin`] — the baseline: equal turns, no weights, no caps.
//! * [`CreditScheduler`] — modelled on Xen's credit scheduler: each vCPU
//!   earns credits proportional to its weight every accounting period,
//!   spends them while running, and is sorted into UNDER/OVER priority
//!   bands; optional caps bound the CPU a vCPU may consume even when idle
//!   capacity exists.
//! * [`StrideScheduler`] — proportional-share via stride scheduling, the
//!   deterministic counterpart to lottery scheduling.
//!
//! [`HostSim`] drives any of them over a workload of always-runnable or
//! duty-cycled vCPUs and reports per-vCPU CPU time, fairness metrics and
//! context-switch counts — the quantities experiment E5 sweeps.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod entity;
pub mod metrics;
pub mod schedulers;
pub mod sim;

pub use entity::{EntityId, RunnableModel, VcpuEntity};
pub use metrics::fairness_index;
pub use schedulers::{CreditScheduler, RoundRobin, Scheduler, StrideScheduler};
pub use sim::{HostSim, SimConfig, SimReport};
