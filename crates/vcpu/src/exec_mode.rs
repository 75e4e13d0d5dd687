//! Virtualization execution modes and their cost models.
//!
//! A VMM can virtualize the CPU in several ways; the three modelled here are
//! the ones every virtualization lecture (and the XenServer / ESXi /
//! VirtualBox products surveyed in the source document) distinguishes:
//!
//! * **Trap-and-emulate with shadow paging** — every privileged instruction
//!   and every guest page-table update traps to the hypervisor; exits are
//!   frequent and each costs a full world switch.
//! * **Paravirtual** — the guest is modified to call the hypervisor
//!   explicitly (hypercalls), batching work and avoiding most traps; the
//!   remaining exits are cheaper because no instruction decoding is needed.
//! * **Hardware-assisted** (VT-x/AMD-V with nested paging) — privileged
//!   instructions execute natively in guest mode; only I/O, hypercalls and
//!   configured exceptions exit, but TLB misses walk two levels of page
//!   tables (guest + nested), making each miss more expensive.
//!
//! The cost model converts counted events into simulated nanoseconds so the
//! `cpu_and_io` example can reproduce the classic overhead comparison
//! (experiment E1) deterministically.

use serde::{Deserialize, Serialize};

/// Which virtualization technique the vCPU models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecMode {
    /// Full virtualization by trap-and-emulate with shadow page tables.
    TrapAndEmulate,
    /// Paravirtualization: the guest uses hypercalls and is aware of the hypervisor.
    Paravirt,
    /// Hardware-assisted virtualization with nested paging.
    HardwareAssist,
}

impl ExecMode {
    /// All modes, for sweeps.
    pub const ALL: [ExecMode; 3] = [
        ExecMode::TrapAndEmulate,
        ExecMode::Paravirt,
        ExecMode::HardwareAssist,
    ];

    /// A short human-readable name (used in benchmark output).
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::TrapAndEmulate => "trap-and-emulate",
            ExecMode::Paravirt => "paravirt",
            ExecMode::HardwareAssist => "hw-assist",
        }
    }

    /// Whether privileged instructions executed in guest supervisor mode trap
    /// to the hypervisor in this mode.
    pub(crate) fn privileged_traps(self) -> bool {
        match self {
            ExecMode::TrapAndEmulate => true,
            // Paravirtual guests replace privileged operations with hypercalls,
            // but if they do execute one it still traps.
            ExecMode::Paravirt => true,
            ExecMode::HardwareAssist => false,
        }
    }

    /// The default cost model for this mode.
    pub fn default_costs(self) -> ExecCosts {
        match self {
            ExecMode::TrapAndEmulate => ExecCosts {
                cycle_ns: 1,
                exit_ns: 2_000,
                hypercall_ns: 2_000,
                mmio_exit_ns: 3_000,
                pio_exit_ns: 2_500,
                tlb_miss_cycles: 40,
                privileged_emulation_ns: 1_200,
            },
            ExecMode::Paravirt => ExecCosts {
                cycle_ns: 1,
                exit_ns: 700,
                hypercall_ns: 500,
                mmio_exit_ns: 900,
                pio_exit_ns: 800,
                tlb_miss_cycles: 40,
                privileged_emulation_ns: 600,
            },
            ExecMode::HardwareAssist => ExecCosts {
                cycle_ns: 1,
                exit_ns: 1_200,
                hypercall_ns: 1_200,
                mmio_exit_ns: 1_500,
                pio_exit_ns: 1_300,
                // Nested paging: a miss walks guest *and* host tables.
                tlb_miss_cycles: 120,
                privileged_emulation_ns: 0,
            },
        }
    }
}

/// The knobs converting counted events into simulated time.
///
/// All values are in nanoseconds except `tlb_miss_cycles`, which is charged
/// in guest cycles (and therefore scales with `cycle_ns`).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ExecCosts {
    /// Simulated nanoseconds per retired guest instruction.
    pub(crate) cycle_ns: u64,
    /// Base cost of a world switch (guest -> hypervisor -> guest).
    pub(crate) exit_ns: u64,
    /// Cost of a hypercall round trip.
    pub(crate) hypercall_ns: u64,
    /// Cost of an MMIO exit (includes instruction decode + device dispatch).
    pub mmio_exit_ns: u64,
    /// Cost of a port-I/O exit.
    pub(crate) pio_exit_ns: u64,
    /// Extra guest cycles charged for a TLB miss (page-table walk).
    pub(crate) tlb_miss_cycles: u64,
    /// Extra cost of software-emulating a trapped privileged instruction.
    pub(crate) privileged_emulation_ns: u64,
}

impl ExecCosts {
    /// The cost model of *nested* hardware-assisted virtualization: a
    /// hardware-assisted guest hypervisor running its own hardware-assisted
    /// guest (the "KVM implementation?" next step in the source material,
    /// run inside an existing host).
    ///
    /// Every exit of the inner guest is first reflected to the outer
    /// hypervisor and then re-injected into the guest hypervisor, so the
    /// world-switch costs roughly triple, and a TLB miss walks three levels
    /// of page tables instead of two. Used as an ablation row in the E1
    /// benchmark; the relative numbers follow the published Turtles-project
    /// measurements (nested exits cost 2.5–3× single-level exits).
    pub fn nested_hardware_assist() -> ExecCosts {
        let base = ExecMode::HardwareAssist.default_costs();
        ExecCosts {
            cycle_ns: base.cycle_ns,
            exit_ns: base.exit_ns * 3,
            hypercall_ns: base.hypercall_ns * 3,
            mmio_exit_ns: base.mmio_exit_ns * 3,
            pio_exit_ns: base.pio_exit_ns * 3,
            tlb_miss_cycles: base.tlb_miss_cycles * 2,
            privileged_emulation_ns: base.privileged_emulation_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ExecCosts {
        /// A zero-cost model, for the crate's pure functional tests.
        pub(crate) const FREE: ExecCosts = ExecCosts {
            cycle_ns: 0,
            exit_ns: 0,
            hypercall_ns: 0,
            mmio_exit_ns: 0,
            pio_exit_ns: 0,
            tlb_miss_cycles: 0,
            privileged_emulation_ns: 0,
        };
    }

    impl ExecMode {
        /// Whether guest page-table maintenance (PTBR writes, TLB flushes) traps.
        ///
        /// Under shadow paging the hypervisor must intercept these to keep shadow
        /// tables coherent; with nested paging the hardware handles it.
        fn paging_ops_trap(self) -> bool {
            matches!(self, ExecMode::TrapAndEmulate | ExecMode::Paravirt)
        }
    }

    #[test]
    fn mode_names_are_distinct() {
        let names: std::collections::BTreeSet<_> = ExecMode::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn trap_behaviour_matches_technique() {
        assert!(ExecMode::TrapAndEmulate.privileged_traps());
        assert!(ExecMode::Paravirt.privileged_traps());
        assert!(!ExecMode::HardwareAssist.privileged_traps());
        assert!(ExecMode::TrapAndEmulate.paging_ops_trap());
        assert!(!ExecMode::HardwareAssist.paging_ops_trap());
    }

    #[test]
    fn cost_model_ordering_matches_folklore() {
        let te = ExecMode::TrapAndEmulate.default_costs();
        let pv = ExecMode::Paravirt.default_costs();
        let hw = ExecMode::HardwareAssist.default_costs();
        // Paravirtual exits are the cheapest, trap-and-emulate the dearest.
        assert!(pv.exit_ns < hw.exit_ns);
        assert!(hw.exit_ns < te.exit_ns);
        // Nested paging pays more per TLB miss than shadow paging.
        assert!(hw.tlb_miss_cycles > te.tlb_miss_cycles);
        // Hardware assist does not emulate privileged instructions.
        assert_eq!(hw.privileged_emulation_ns, 0);
    }

    #[test]
    fn free_costs_are_zero() {
        let f = ExecCosts::FREE;
        assert_eq!(
            f.cycle_ns + f.exit_ns + f.hypercall_ns + f.mmio_exit_ns + f.pio_exit_ns,
            0
        );
    }

    #[test]
    fn nested_costs_sit_above_single_level_hardware_assist() {
        let hw = ExecMode::HardwareAssist.default_costs();
        let nested = ExecCosts::nested_hardware_assist();
        assert!(nested.exit_ns >= 2 * hw.exit_ns && nested.exit_ns <= 4 * hw.exit_ns);
        assert!(nested.hypercall_ns > hw.hypercall_ns);
        assert!(nested.mmio_exit_ns > hw.mmio_exit_ns);
        assert!(nested.tlb_miss_cycles > hw.tlb_miss_cycles);
        // Running the guest's own instructions costs the same; only exits
        // get dearer.
        assert_eq!(nested.cycle_ns, hw.cycle_ns);
        assert_eq!(nested.privileged_emulation_ns, hw.privileged_emulation_ns);
    }
}
