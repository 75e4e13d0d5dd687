//! The virtio device-model trait.

use rvisor_memory::GuestMemory;
use rvisor_types::Result;

use crate::queue::VirtQueue;

/// Virtio device type identifiers (a subset of the registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceType {
    /// Network card (virtio id 1).
    Net,
    /// Block device (virtio id 2).
    Block,
}

impl DeviceType {
    /// The numeric id used in the virtio-mmio `DeviceID` register.
    pub(crate) fn id(self) -> u32 {
        match self {
            DeviceType::Net => 1,
            DeviceType::Block => 2,
        }
    }
}

/// A virtio device model, independent of transport.
///
/// The transport (virtio-mmio) owns the queues and calls
/// [`VirtioDevice::process_queue`] when the guest rings a doorbell; the
/// device pops chains, does its work, and pushes completions.
pub trait VirtioDevice: Send {
    /// The device type.
    fn device_type(&self) -> DeviceType;

    /// Number of virtqueues the device exposes.
    fn num_queues(&self) -> usize;

    /// Handle a doorbell on queue `index`: drain available chains.
    /// Returns whether the guest is to be notified; the transport records
    /// that in its `INTERRUPT_STATUS` register.
    fn process_queue(
        &mut self,
        index: usize,
        mem: &GuestMemory,
        queue: &mut VirtQueue,
    ) -> Result<bool>;

    /// Read from the device-specific configuration space.
    fn read_config(&self, offset: u64) -> u64 {
        let _ = offset;
        0
    }

    /// Write to the device-specific configuration space.
    fn write_config(&mut self, offset: u64, value: u64) {
        let _ = (offset, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_ids_match_the_virtio_registry() {
        assert_eq!(DeviceType::Net.id(), 1);
        assert_eq!(DeviceType::Block.id(), 2);
    }

    struct NullDevice;
    impl VirtioDevice for NullDevice {
        fn device_type(&self) -> DeviceType {
            DeviceType::Block
        }
        fn num_queues(&self) -> usize {
            1
        }
        fn process_queue(&mut self, _: usize, _: &GuestMemory, _: &mut VirtQueue) -> Result<bool> {
            Ok(false)
        }
    }

    #[test]
    fn default_config_space_is_zero() {
        let mut dev = NullDevice;
        assert_eq!(dev.read_config(0), 0);
        dev.write_config(0, 123);
        assert_eq!(dev.read_config(0), 0);
    }
}
