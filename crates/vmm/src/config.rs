//! VM configuration.

use serde::{Deserialize, Serialize};

use rvisor_types::{ByteSize, Error, Result};
use rvisor_vcpu::ExecMode;

use crate::layout::RAM_MAX;

/// Configuration of one virtual disk attached through virtio-blk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiskConfig {
    /// Disk name (shown in exports and metrics).
    pub(crate) name: String,
    /// Capacity of the disk.
    pub(crate) size: ByteSize,
    /// Whether the disk is read-only.
    pub(crate) read_only: bool,
}

impl DiskConfig {
    /// A read-write disk of `size`.
    pub fn new(name: &str, size: ByteSize) -> Self {
        DiskConfig {
            name: name.to_string(),
            size,
            read_only: false,
        }
    }
}

/// Configuration for building a [`crate::Vm`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VmConfig {
    /// VM name.
    pub(crate) name: String,
    /// Guest RAM size (must not reach the MMIO hole).
    pub(crate) memory: ByteSize,
    /// Number of vCPUs.
    pub vcpus: u32,
    /// Virtualization technique to model.
    pub(crate) exec_mode: ExecMode,
    /// Disks to attach via virtio-blk (the first becomes the boot disk).
    pub(crate) disks: Vec<DiskConfig>,
    /// Whether to attach a virtio-net NIC.
    pub(crate) with_net: bool,
    /// Whether to attach a host-driven memory balloon (`rvisor_memory::Balloon`).
    pub(crate) with_balloon: bool,
    /// Instruction budget per vCPU scheduling slice.
    pub(crate) slice_instructions: u64,
}

impl VmConfig {
    /// A single-vCPU, 32 MiB, hardware-assisted VM with no devices beyond the
    /// platform ones (serial, RTC, timer).
    pub fn new(name: &str) -> Self {
        VmConfig {
            name: name.to_string(),
            memory: ByteSize::mib(32),
            vcpus: 1,
            exec_mode: ExecMode::HardwareAssist,
            disks: Vec::new(),
            with_net: false,
            with_balloon: false,
            slice_instructions: 100_000,
        }
    }

    /// Set the RAM size (builder style).
    pub fn with_memory(mut self, memory: ByteSize) -> Self {
        self.memory = memory;
        self
    }

    /// Set the virtualization technique (builder style).
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Attach a disk (builder style).
    pub fn with_disk(mut self, disk: DiskConfig) -> Self {
        self.disks.push(disk);
        self
    }

    /// Attach a virtio-net NIC (builder style).
    pub fn with_net(mut self) -> Self {
        self.with_net = true;
        self
    }

    /// Attach a host-driven memory balloon (builder style).
    pub fn with_balloon(mut self) -> Self {
        self.with_balloon = true;
        self
    }

    /// Validate the configuration.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(Error::Config("VM name must not be empty".into()));
        }
        if self.memory.as_u64() == 0 {
            return Err(Error::Config("VM memory must be non-zero".into()));
        }
        if !self.memory.is_page_aligned() {
            return Err(Error::Config(format!(
                "VM memory {} is not page aligned",
                self.memory
            )));
        }
        if self.memory.as_u64() > RAM_MAX {
            return Err(Error::Config(format!(
                "VM memory {} exceeds the supported maximum of {}",
                self.memory,
                ByteSize::new(RAM_MAX)
            )));
        }
        if self.vcpus == 0 {
            return Err(Error::Config("VM needs at least one vCPU".into()));
        }
        if self.vcpus > 64 {
            return Err(Error::Config(format!(
                "{} vCPUs exceeds the supported maximum of 64",
                self.vcpus
            )));
        }
        for d in &self.disks {
            if d.size.as_u64() == 0 {
                return Err(Error::Config(format!("disk `{}` has zero size", d.name)));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl VmConfig {
        /// Set the vCPU count (builder style).
        pub(crate) fn with_vcpus(mut self, vcpus: u32) -> Self {
            self.vcpus = vcpus.max(1);
            self
        }

        /// Set the per-slice instruction budget (builder style).
        pub(crate) fn with_slice_instructions(mut self, n: u64) -> Self {
            self.slice_instructions = n.max(1);
            self
        }
    }

    #[test]
    fn default_config_is_valid() {
        assert!(VmConfig::new("test").validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let cfg = VmConfig::new("db")
            .with_memory(ByteSize::mib(256))
            .with_vcpus(4)
            .with_exec_mode(ExecMode::Paravirt)
            .with_disk(DiskConfig::new("system", ByteSize::mib(64)))
            .with_net()
            .with_balloon()
            .with_slice_instructions(5_000);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.vcpus, 4);
        assert_eq!(cfg.disks.len(), 1);
        assert!(cfg.with_net && cfg.with_balloon);
        assert_eq!(cfg.slice_instructions, 5_000);
        assert_eq!(VmConfig::new("x").with_vcpus(0).vcpus, 1);
        assert_eq!(
            VmConfig::new("x")
                .with_slice_instructions(0)
                .slice_instructions,
            1
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(VmConfig::new("").validate().is_err());
        assert!(VmConfig::new("x")
            .with_memory(ByteSize::ZERO)
            .validate()
            .is_err());
        assert!(VmConfig::new("x")
            .with_memory(ByteSize::new(1234))
            .validate()
            .is_err());
        assert!(VmConfig::new("x")
            .with_memory(ByteSize::gib(2))
            .validate()
            .is_err());
        let mut cfg = VmConfig::new("x");
        cfg.vcpus = 0;
        assert!(cfg.validate().is_err());
        cfg.vcpus = 65;
        assert!(cfg.validate().is_err());
        assert!(VmConfig::new("x")
            .with_disk(DiskConfig::new("d", ByteSize::ZERO))
            .validate()
            .is_err());
    }
}
