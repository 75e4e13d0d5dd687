//! MMIO and port-I/O buses.
//!
//! The buses own the address-to-device routing tables. They are shared
//! (cloneable) so the VMM's exit handler and the device-management code can
//! both hold a handle.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use rvisor_types::{Error, GuestAddress, GuestRegion, Result};

/// A device mapped into guest physical address space.
pub trait MmioDevice: Send {
    /// A short device name for diagnostics.
    fn name(&self) -> &str;

    /// Handle a read of `size` bytes at `offset` from the device's base.
    fn read(&mut self, offset: u64, size: u8) -> u64;

    /// Handle a write of `size` bytes at `offset` from the device's base.
    fn write(&mut self, offset: u64, value: u64, size: u8);
}

/// A device accessed through port I/O.
pub trait PortDevice: Send {
    /// A short device name for diagnostics.
    fn name(&self) -> &str;

    /// Handle an `in` instruction on `port` (relative to the device's base port).
    fn port_read(&mut self, port: u32) -> u32;

    /// Handle an `out` instruction on `port` (relative to the device's base port).
    fn port_write(&mut self, port: u32, value: u32);
}

type SharedMmio = Arc<Mutex<dyn MmioDevice>>;
type SharedPort = Arc<Mutex<dyn PortDevice>>;

/// Routes guest physical MMIO accesses to registered devices.
#[derive(Clone, Default)]
pub struct MmioBus {
    // Keyed by region start; regions never overlap.
    devices: Arc<RwLock<BTreeMap<u64, (GuestRegion, SharedMmio)>>>,
}

impl std::fmt::Debug for MmioBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let devices = self.devices.read();
        let names: Vec<String> = devices
            .values()
            .map(|(region, dev)| format!("{}@{}", dev.lock().name(), region.start))
            .collect();
        f.debug_struct("MmioBus").field("devices", &names).finish()
    }
}

impl MmioBus {
    /// Create an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `device` at `region`. Fails if the region overlaps an existing one.
    pub fn register(&self, region: GuestRegion, device: Arc<Mutex<dyn MmioDevice>>) -> Result<()> {
        if region.len == 0 {
            return Err(Error::Device(
                "cannot register a zero-length MMIO region".into(),
            ));
        }
        let mut devices = self.devices.write();
        for (existing, _) in devices.values() {
            if existing.overlaps(&region) {
                return Err(Error::Device(format!(
                    "MMIO region at {} overlaps an existing device",
                    region.start
                )));
            }
        }
        devices.insert(region.start.0, (region, device));
        Ok(())
    }

    fn lookup(&self, addr: GuestAddress) -> Option<(GuestRegion, SharedMmio)> {
        let devices = self.devices.read();
        devices
            .range(..=addr.0)
            .next_back()
            .filter(|(_, (region, _))| region.contains(addr))
            .map(|(_, (region, dev))| (*region, Arc::clone(dev)))
    }

    /// Dispatch a guest read. Returns the value or [`Error::UnmappedIo`].
    pub fn read(&self, addr: GuestAddress, size: u8) -> Result<u64> {
        let (region, dev) = self.lookup(addr).ok_or(Error::UnmappedIo(addr))?;
        let offset = addr.0 - region.start.0;
        let value = dev.lock().read(offset, size);
        Ok(value)
    }

    /// Dispatch a guest write. Returns [`Error::UnmappedIo`] if no device claims the address.
    pub fn write(&self, addr: GuestAddress, value: u64, size: u8) -> Result<()> {
        let (region, dev) = self.lookup(addr).ok_or(Error::UnmappedIo(addr))?;
        let offset = addr.0 - region.start.0;
        dev.lock().write(offset, value, size);
        Ok(())
    }
}

/// Routes guest port-I/O accesses to registered devices.
#[derive(Clone, Default)]
pub struct PortBus {
    devices: Arc<RwLock<BTreeMap<u32, (u32, SharedPort)>>>, // base -> (len, device)
}

impl std::fmt::Debug for PortBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let devices = self.devices.read();
        let names: Vec<String> = devices
            .iter()
            .map(|(base, (_, dev))| format!("{}@0x{base:x}", dev.lock().name()))
            .collect();
        f.debug_struct("PortBus").field("devices", &names).finish()
    }
}

impl PortBus {
    /// Create an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `device` for ports `[base, base + count)`.
    pub fn register(
        &self,
        base: u32,
        count: u32,
        device: Arc<Mutex<dyn PortDevice>>,
    ) -> Result<()> {
        if count == 0 {
            return Err(Error::Device("cannot register zero ports".into()));
        }
        let mut devices = self.devices.write();
        for (&existing_base, (existing_count, _)) in devices.iter() {
            let existing_end = existing_base + existing_count;
            if base < existing_end && existing_base < base + count {
                return Err(Error::Device(format!(
                    "port range 0x{base:x} overlaps an existing device"
                )));
            }
        }
        devices.insert(base, (count, device));
        Ok(())
    }

    fn lookup(&self, port: u32) -> Option<(u32, SharedPort)> {
        let devices = self.devices.read();
        devices
            .range(..=port)
            .next_back()
            .filter(|(&base, (count, _))| port < base + count)
            .map(|(&base, (_, dev))| (base, Arc::clone(dev)))
    }

    /// Dispatch a port read.
    pub fn read(&self, port: u32) -> Result<u32> {
        let (base, dev) = self
            .lookup(port)
            .ok_or(Error::UnmappedIo(GuestAddress(port as u64)))?;
        let value = dev.lock().port_read(port - base);
        Ok(value)
    }

    /// Dispatch a port write.
    pub fn write(&self, port: u32, value: u32) -> Result<()> {
        let (base, dev) = self
            .lookup(port)
            .ok_or(Error::UnmappedIo(GuestAddress(port as u64)))?;
        dev.lock().port_write(port - base, value);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MmioBus {
        /// Number of registered devices.
        pub(crate) fn len(&self) -> usize {
            self.devices.read().len()
        }

        /// Whether no devices are registered.
        pub(crate) fn is_empty(&self) -> bool {
            self.devices.read().is_empty()
        }
    }

    impl PortBus {
        /// Number of registered devices.
        pub(crate) fn len(&self) -> usize {
            self.devices.read().len()
        }
    }

    impl MmioBus {
        /// Remove the device whose region starts at `base`. Returns whether one was removed.
        fn unregister(&self, base: GuestAddress) -> bool {
            self.devices.write().remove(&base.0).is_some()
        }
    }

    /// A scratch register device used to exercise the buses.
    struct Scratch {
        value: u64,
        reads: u64,
        writes: u64,
    }

    impl Scratch {
        fn new() -> Self {
            Scratch {
                value: 0,
                reads: 0,
                writes: 0,
            }
        }
    }

    impl MmioDevice for Scratch {
        fn name(&self) -> &str {
            "scratch"
        }
        fn read(&mut self, offset: u64, _size: u8) -> u64 {
            self.reads += 1;
            self.value.wrapping_add(offset)
        }
        fn write(&mut self, _offset: u64, value: u64, _size: u8) {
            self.writes += 1;
            self.value = value;
        }
    }

    impl PortDevice for Scratch {
        fn name(&self) -> &str {
            "scratch-port"
        }
        fn port_read(&mut self, port: u32) -> u32 {
            self.reads += 1;
            self.value as u32 + port
        }
        fn port_write(&mut self, _port: u32, value: u32) {
            self.writes += 1;
            self.value = value as u64;
        }
    }

    #[test]
    fn mmio_routing_and_offsets() {
        let bus = MmioBus::new();
        let dev = Arc::new(Mutex::new(Scratch::new()));
        bus.register(GuestRegion::new(GuestAddress(0x1000), 0x100), dev.clone())
            .unwrap();

        bus.write(GuestAddress(0x1010), 77, 8).unwrap();
        assert_eq!(bus.read(GuestAddress(0x1004), 8).unwrap(), 77 + 4);
        assert_eq!(dev.lock().reads, 1);
        assert_eq!(dev.lock().writes, 1);
    }

    #[test]
    fn mmio_unmapped_access_fails() {
        let bus = MmioBus::new();
        let dev = Arc::new(Mutex::new(Scratch::new()));
        bus.register(GuestRegion::new(GuestAddress(0x1000), 0x100), dev)
            .unwrap();
        assert!(matches!(
            bus.read(GuestAddress(0xfff), 8),
            Err(Error::UnmappedIo(_))
        ));
        assert!(matches!(
            bus.read(GuestAddress(0x1100), 8),
            Err(Error::UnmappedIo(_))
        ));
        assert!(matches!(
            bus.write(GuestAddress(0x2000), 0, 8),
            Err(Error::UnmappedIo(_))
        ));
    }

    #[test]
    fn mmio_overlap_rejected() {
        let bus = MmioBus::new();
        bus.register(
            GuestRegion::new(GuestAddress(0x1000), 0x100),
            Arc::new(Mutex::new(Scratch::new())),
        )
        .unwrap();
        let res = bus.register(
            GuestRegion::new(GuestAddress(0x10f0), 0x100),
            Arc::new(Mutex::new(Scratch::new())),
        );
        assert!(res.is_err());
        assert!(bus
            .register(
                GuestRegion::new(GuestAddress(0x1100), 0x100),
                Arc::new(Mutex::new(Scratch::new()))
            )
            .is_ok());
        assert_eq!(bus.len(), 2);
        assert!(!bus.is_empty());
    }

    #[test]
    fn mmio_zero_length_rejected_and_unregister() {
        let bus = MmioBus::new();
        assert!(bus
            .register(
                GuestRegion::new(GuestAddress(0x1000), 0),
                Arc::new(Mutex::new(Scratch::new()))
            )
            .is_err());
        bus.register(
            GuestRegion::new(GuestAddress(0x1000), 0x10),
            Arc::new(Mutex::new(Scratch::new())),
        )
        .unwrap();
        assert!(bus.unregister(GuestAddress(0x1000)));
        assert!(!bus.unregister(GuestAddress(0x1000)));
        assert!(bus.is_empty());
    }

    #[test]
    fn multiple_mmio_devices_route_independently() {
        let bus = MmioBus::new();
        let a = Arc::new(Mutex::new(Scratch::new()));
        let b = Arc::new(Mutex::new(Scratch::new()));
        bus.register(GuestRegion::new(GuestAddress(0x1000), 0x100), a.clone())
            .unwrap();
        bus.register(GuestRegion::new(GuestAddress(0x2000), 0x100), b.clone())
            .unwrap();
        bus.write(GuestAddress(0x1000), 1, 8).unwrap();
        bus.write(GuestAddress(0x2000), 2, 8).unwrap();
        assert_eq!(a.lock().value, 1);
        assert_eq!(b.lock().value, 2);
    }

    #[test]
    fn port_routing() {
        let bus = PortBus::new();
        let dev = Arc::new(Mutex::new(Scratch::new()));
        bus.register(0x3f8, 8, dev.clone()).unwrap();
        bus.write(0x3f8, 42).unwrap();
        assert_eq!(bus.read(0x3fa).unwrap(), 44);
        assert!(bus.read(0x400).is_err());
        assert!(bus.write(0x3f7, 0).is_err());
        assert_eq!(bus.len(), 1);
    }

    #[test]
    fn port_overlap_and_zero_count_rejected() {
        let bus = PortBus::new();
        bus.register(0x100, 16, Arc::new(Mutex::new(Scratch::new())))
            .unwrap();
        assert!(bus
            .register(0x108, 16, Arc::new(Mutex::new(Scratch::new())))
            .is_err());
        assert!(bus
            .register(0xf8, 16, Arc::new(Mutex::new(Scratch::new())))
            .is_err());
        assert!(bus
            .register(0x200, 0, Arc::new(Mutex::new(Scratch::new())))
            .is_err());
        assert!(bus
            .register(0x110, 16, Arc::new(Mutex::new(Scratch::new())))
            .is_ok());
    }

    #[test]
    fn debug_formatting_lists_devices() {
        let mmio = MmioBus::new();
        mmio.register(
            GuestRegion::new(GuestAddress(0x1000), 0x10),
            Arc::new(Mutex::new(Scratch::new())),
        )
        .unwrap();
        let s = format!("{mmio:?}");
        assert!(s.contains("scratch"));
        let pio = PortBus::new();
        pio.register(0x3f8, 1, Arc::new(Mutex::new(Scratch::new())))
            .unwrap();
        assert!(format!("{pio:?}").contains("scratch-port"));
    }

    #[test]
    fn bus_clones_share_routing_table() {
        let bus = MmioBus::new();
        let view = bus.clone();
        bus.register(
            GuestRegion::new(GuestAddress(0x1000), 0x10),
            Arc::new(Mutex::new(Scratch::new())),
        )
        .unwrap();
        assert_eq!(view.len(), 1);
        assert!(view.read(GuestAddress(0x1000), 8).is_ok());
    }
}
