//! # virtlab
//!
//! The facade crate of the rvisor workspace: it re-exports the full public
//! API so examples, integration tests and downstream users can depend on a
//! single crate, and documents how the pieces fit together.
//!
//! * [`vmm`] — the virtual machine monitor ([`rvisor`]): VM configuration,
//!   lifecycle, devices, snapshots, manager-level migration.
//! * [`memory`], [`vcpu`], [`devices`], [`virtio`], [`block`], [`net`] — the
//!   substrates the VMM is built from, usable on their own.
//! * [`sched`], [`migrate`], [`snapshot`], [`cluster`] — the host- and
//!   fleet-level services the evaluation experiments exercise.
//! * [`orch`] — the discrete-event datacenter orchestrator that drives all
//!   of the above under one clock: arrivals, rebalancing migrations,
//!   backups, host failures and DR restores (experiment E15).
//! * [`obs`] — the deterministic tracing and metrics plane: simulated-time
//!   spans and integer histograms from every layer, exported as a text
//!   table or Chrome trace-event JSON (experiment E20).
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `EXPERIMENTS.md` for the mapping from the evaluation's tables and figures
//! to the examples that print them.

#![warn(clippy::all)]

pub use rvisor as vmm;
pub use rvisor_block as block;
pub use rvisor_cluster as cluster;
pub use rvisor_devices as devices;
pub use rvisor_memory as memory;
pub use rvisor_migrate as migrate;
pub use rvisor_net as net;
pub use rvisor_obs as obs;
pub use rvisor_orch as orch;
pub use rvisor_sched as sched;
pub use rvisor_snapshot as snapshot;
pub use rvisor_types as types;
pub use rvisor_vcpu as vcpu;
pub use rvisor_virtio as virtio;

pub use rvisor::{Vm, VmConfig, Vmm};
pub use rvisor_types::{ByteSize, Error, GuestAddress, Nanoseconds, Result, VmId};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compose() {
        let cfg = crate::VmConfig::new("facade").with_memory(crate::ByteSize::mib(4));
        let vm = crate::Vm::new(cfg).unwrap();
        assert_eq!(vm.name(), "facade");
    }
}
