//! Physical hosts and their capacity accounting.

use serde::{Deserialize, Serialize};

use rvisor_types::{ByteSize, Error, HostId, Result};

use crate::vmspec::VmSpec;

/// The hardware description of a physical host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostSpec {
    /// Identifier.
    pub id: HostId,
    /// Physical cores.
    pub cores: u32,
    /// Installed RAM.
    pub memory: ByteSize,
    /// Electrical power draw at idle, in watts.
    pub idle_watts: f64,
    /// Electrical power draw at full load, in watts.
    pub busy_watts: f64,
}

impl HostSpec {
    /// The host model used in the source material's demos: a dual-socket
    /// box with 8 cores and 12 GiB of RAM.
    pub fn deck_era_server(id: HostId) -> Self {
        HostSpec {
            id,
            cores: 8,
            memory: ByteSize::gib(12),
            idle_watts: 180.0,
            busy_watts: 320.0,
        }
    }

    /// A larger, more modern consolidation host: 32 cores, 128 GiB.
    pub fn modern_server(id: HostId) -> Self {
        HostSpec {
            id,
            cores: 32,
            memory: ByteSize::gib(128),
            idle_watts: 220.0,
            busy_watts: 450.0,
        }
    }
}

/// A host plus the VMs currently placed on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// Hardware description.
    pub spec: HostSpec,
    /// VMs placed on this host.
    pub placed: Vec<VmSpec>,
    /// How far memory may be oversubscribed (1.0 = no overcommit). Memory
    /// overcommit relies on ballooning; CPU is always time-shared.
    pub(crate) memory_overcommit: f64,
}

impl Host {
    /// An empty host with no overcommit.
    pub fn new(spec: HostSpec) -> Self {
        Host {
            spec,
            placed: Vec::new(),
            memory_overcommit: 1.0,
        }
    }

    /// An empty host allowing memory overcommit up to `factor`.
    pub(crate) fn with_overcommit(spec: HostSpec, factor: f64) -> Self {
        Host {
            spec,
            placed: Vec::new(),
            memory_overcommit: factor.max(1.0),
        }
    }

    /// Memory committed to placed VMs.
    pub fn memory_committed(&self) -> ByteSize {
        ByteSize::new(self.placed.iter().map(|v| v.memory.as_u64()).sum())
    }

    /// CPU demand committed to placed VMs, in cores.
    pub fn cpu_committed(&self) -> f64 {
        self.placed.iter().map(|v| v.cpu_demand_cores).sum()
    }

    /// The memory capacity available for placement (installed × overcommit).
    pub fn memory_capacity(&self) -> ByteSize {
        ByteSize::new((self.spec.memory.as_u64() as f64 * self.memory_overcommit) as u64)
    }

    /// Whether `vm` fits on this host right now.
    pub fn fits(&self, vm: &VmSpec) -> bool {
        let mem_ok = self.memory_committed().as_u64() + vm.memory.as_u64()
            <= self.memory_capacity().as_u64();
        let cpu_ok = self.cpu_committed() + vm.cpu_demand_cores <= self.spec.cores as f64;
        mem_ok && cpu_ok
    }

    /// Place `vm` on the host.
    pub fn place(&mut self, vm: VmSpec) -> Result<()> {
        if !self.fits(&vm) {
            return Err(Error::CapacityExceeded(format!(
                "{} does not fit on {} ({} committed of {} capacity)",
                vm.name,
                self.spec.id,
                self.memory_committed(),
                self.memory_capacity()
            )));
        }
        self.placed.push(vm);
        Ok(())
    }

    /// Remove a VM by name; returns it if present.
    pub fn evict(&mut self, name: &str) -> Option<VmSpec> {
        let idx = self.placed.iter().position(|v| v.name == name)?;
        Some(self.placed.remove(idx))
    }

    /// Number of VMs on the host.
    pub(crate) fn vm_count(&self) -> usize {
        self.placed.len()
    }

    /// CPU utilisation as a fraction of total cores (can exceed 1.0 when
    /// oversubscribed; the scheduler then time-shares).
    pub(crate) fn cpu_utilization(&self) -> f64 {
        self.cpu_committed() / self.spec.cores as f64
    }

    /// Estimated electrical draw given current CPU utilisation: linear
    /// interpolation between idle and busy, clamped at busy.
    pub(crate) fn power_watts(&self) -> f64 {
        let u = self.cpu_utilization().min(1.0);
        self.spec.idle_watts + (self.spec.busy_watts - self.spec.idle_watts) * u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmspec::ServerRole;

    fn host() -> Host {
        Host::new(HostSpec::deck_era_server(HostId::new(0)))
    }

    #[test]
    fn placement_respects_memory_and_cpu() {
        let mut h = host();
        // 12 GiB host; five 2 GiB app servers fit, the seventh 2-3GiB one may not.
        for i in 0..5 {
            h.place(VmSpec::typical(&format!("app-{i}"), ServerRole::AppServer))
                .unwrap();
        }
        assert_eq!(h.vm_count(), 5);
        assert_eq!(h.memory_committed(), ByteSize::gib(10));
        let big = VmSpec::typical("db", ServerRole::Database); // 3 GiB
        assert!(!h.fits(&big));
        assert!(h.place(big).is_err());
        let small = VmSpec::typical("web", ServerRole::Web); // 1 GiB
        assert!(h.place(small).is_ok());
    }

    #[test]
    fn cpu_constraint_binds() {
        let mut h = host();
        // Each terminal server demands 0.8 cores; 8-core host takes 10 of them
        // CPU-wise but memory (2 GiB each) binds first at 6.
        let mut placed = 0;
        loop {
            let vm = VmSpec::typical(&format!("ts-{placed}"), ServerRole::TerminalServer);
            if h.place(vm).is_err() {
                break;
            }
            placed += 1;
        }
        assert_eq!(placed, 6);
        // Now a CPU-heavy VM with tiny memory is rejected on CPU grounds.
        let cruncher = VmSpec::typical("hpc", ServerRole::Web)
            .with_memory(ByteSize::mib(256))
            .with_cpu_demand(4.0);
        assert!(!h.fits(&cruncher));
    }

    #[test]
    fn overcommit_expands_memory_capacity() {
        let spec = HostSpec::deck_era_server(HostId::new(1));
        let mut strict = Host::new(spec.clone());
        let mut relaxed = Host::with_overcommit(spec, 1.5);
        assert_eq!(relaxed.memory_capacity(), ByteSize::gib(18));
        let mut strict_count = 0;
        let mut relaxed_count = 0;
        loop {
            let vm = VmSpec::typical(&format!("m-{strict_count}"), ServerRole::Mail);
            if strict.place(vm).is_err() {
                break;
            }
            strict_count += 1;
        }
        loop {
            let vm = VmSpec::typical(&format!("m-{relaxed_count}"), ServerRole::Mail);
            if relaxed.place(vm).is_err() {
                break;
            }
            relaxed_count += 1;
        }
        assert!(relaxed_count > strict_count);
        // Overcommit below 1.0 is clamped.
        assert_eq!(
            Host::with_overcommit(HostSpec::deck_era_server(HostId::new(2)), 0.5).memory_overcommit,
            1.0
        );
    }

    #[test]
    fn eviction_and_power() {
        let mut h = host();
        let idle_power = h.power_watts();
        assert!((idle_power - 180.0).abs() < 1e-9);
        h.place(VmSpec::typical("db", ServerRole::Database).with_cpu_demand(8.0))
            .unwrap();
        assert!((h.power_watts() - 320.0).abs() < 1e-9);
        assert!(h.cpu_utilization() >= 1.0);
        assert!(h.evict("db").is_some());
        assert!(h.evict("db").is_none());
        assert_eq!(h.vm_count(), 0);
    }

    #[test]
    fn host_presets() {
        let old = HostSpec::deck_era_server(HostId::new(0));
        let new = HostSpec::modern_server(HostId::new(1));
        assert!(new.cores > old.cores);
        assert!(new.memory > old.memory);
    }
}
