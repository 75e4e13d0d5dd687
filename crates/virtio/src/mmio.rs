//! The virtio-mmio transport.
//!
//! A register block exposing a [`VirtioDevice`] to the guest over MMIO, as
//! used by virt boards in QEMU, Firecracker and crosvm. The guest programs
//! queue addresses through the register interface, kicks queues by writing
//! `QUEUE_NOTIFY`, and learns of completions from the `INTERRUPT_STATUS`
//! register (bit 0: used buffers), which it clears through `INTERRUPT_ACK`.
//! No interrupt is delivered: the status register is the record.
//!
//! Only the registers the rvisor guest stack actually uses are implemented;
//! the layout follows the virtio-mmio (legacy-free, version 2) spec closely
//! enough that the register names are recognisable.

use rvisor_memory::GuestMemory;
use rvisor_types::{GuestAddress, Result};

use crate::device::VirtioDevice;
use crate::queue::{QueueLayout, VirtQueue};

/// `MagicValue` register: "virt" in little endian.
const MAGIC: u64 = 0x7472_6976;
/// Device version exposed (modern virtio-mmio).
const VERSION: u64 = 2;

/// Register offsets (a subset of the virtio-mmio layout).
pub mod regs {
    /// Magic value ("virt").
    pub(super) const MAGIC_VALUE: u64 = 0x000;
    /// Device version.
    pub(super) const VERSION: u64 = 0x004;
    /// Virtio device id.
    pub const DEVICE_ID: u64 = 0x008;
    /// Queue selector.
    pub(super) const QUEUE_SEL: u64 = 0x030;
    /// Maximum queue size supported by the device.
    pub(super) const QUEUE_NUM_MAX: u64 = 0x034;
    /// Queue size programmed by the driver.
    pub(super) const QUEUE_NUM: u64 = 0x038;
    /// Queue ready flag.
    pub(super) const QUEUE_READY: u64 = 0x044;
    /// Queue notify (doorbell).
    pub const QUEUE_NOTIFY: u64 = 0x050;
    /// Interrupt status (bit 0: the device used buffers).
    pub const INTERRUPT_STATUS: u64 = 0x060;
    /// Interrupt acknowledge: written bits clear in `INTERRUPT_STATUS`.
    pub const INTERRUPT_ACK: u64 = 0x064;
    /// Device status.
    pub(crate) const STATUS: u64 = 0x070;
    /// Selected queue: descriptor table address.
    pub(super) const QUEUE_DESC: u64 = 0x080;
    /// Selected queue: available ring address.
    pub(super) const QUEUE_AVAIL: u64 = 0x090;
    /// Selected queue: used ring address.
    pub(super) const QUEUE_USED: u64 = 0x0a0;
    /// Start of the device-specific configuration space.
    pub(super) const CONFIG: u64 = 0x100;
}

/// Default maximum queue size advertised to drivers.
const DEFAULT_QUEUE_NUM_MAX: u16 = 256;

#[derive(Debug, Clone, Copy, Default)]
struct QueueConfig {
    size: u16,
    desc: u64,
    avail: u64,
    used: u64,
    ready: bool,
}

/// A virtio device bound to its MMIO transport window.
pub struct VirtioMmio {
    device: Box<dyn VirtioDevice>,
    memory: GuestMemory,
    queue_sel: usize,
    queue_configs: Vec<QueueConfig>,
    queues: Vec<Option<VirtQueue>>,
    interrupt_status: u64,
    status: u64,
    doorbells: u64,
}

impl std::fmt::Debug for VirtioMmio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtioMmio")
            .field("device_id", &self.device.device_type().id())
            .field("queues", &self.queues.len())
            .field("doorbells", &self.doorbells)
            .finish()
    }
}

impl VirtioMmio {
    /// Bind `device` to guest memory.
    pub fn new(device: Box<dyn VirtioDevice>, memory: GuestMemory) -> Self {
        let n = device.num_queues();
        VirtioMmio {
            device,
            memory,
            queue_sel: 0,
            queue_configs: vec![QueueConfig::default(); n],
            queues: (0..n).map(|_| None).collect(),
            interrupt_status: 0,
            status: 0,
            doorbells: 0,
        }
    }

    /// Configure a queue directly (the shortcut used by tests and the VMM's
    /// own in-process driver, bypassing the register dance).
    pub fn setup_queue(&mut self, index: usize, layout: QueueLayout) -> Result<()> {
        if index >= self.queues.len() {
            return Err(rvisor_types::Error::Device(format!(
                "queue {index} out of range"
            )));
        }
        self.queue_configs[index] = QueueConfig {
            size: layout.size,
            desc: layout.desc_table.0,
            avail: layout.avail_ring.0,
            used: layout.used_ring.0,
            ready: true,
        };
        self.queues[index] = Some(VirtQueue::new(layout));
        Ok(())
    }

    /// Ring the doorbell for queue `index` (as the guest's `QUEUE_NOTIFY` write would).
    pub fn notify(&mut self, index: usize) -> Result<()> {
        self.doorbells += 1;
        self.poll_queue(index)
    }

    /// Deliver pending device-initiated work (e.g. received network frames)
    /// by reprocessing a queue outside a doorbell. Used by the VMM's poll loop.
    pub fn poll_queue(&mut self, index: usize) -> Result<()> {
        if let Some(queue) = self.queues.get_mut(index).and_then(|q| q.as_mut()) {
            if self.device.process_queue(index, &self.memory, queue)? {
                self.interrupt_status |= 1;
            }
        }
        Ok(())
    }

    fn try_activate_queue(&mut self, index: usize) {
        let cfg = self.queue_configs[index];
        if cfg.ready && cfg.size > 0 {
            let layout = QueueLayout {
                desc_table: GuestAddress(cfg.desc),
                avail_ring: GuestAddress(cfg.avail),
                used_ring: GuestAddress(cfg.used),
                size: cfg.size,
            };
            self.queues[index] = Some(VirtQueue::new(layout));
        }
    }

    /// A guest read of the register at `offset`.
    pub fn read(&self, offset: u64) -> u64 {
        match offset {
            regs::MAGIC_VALUE => MAGIC,
            regs::VERSION => VERSION,
            regs::DEVICE_ID => self.device.device_type().id() as u64,
            regs::QUEUE_NUM_MAX => DEFAULT_QUEUE_NUM_MAX as u64,
            regs::QUEUE_NUM => self
                .queue_configs
                .get(self.queue_sel)
                .map(|c| c.size as u64)
                .unwrap_or(0),
            regs::QUEUE_READY => self
                .queue_configs
                .get(self.queue_sel)
                .map(|c| c.ready as u64)
                .unwrap_or(0),
            regs::INTERRUPT_STATUS => self.interrupt_status,
            regs::STATUS => self.status,
            o if o >= regs::CONFIG => self.device.read_config(o - regs::CONFIG),
            _ => 0,
        }
    }

    /// A guest write of `value` to the register at `offset`.
    pub fn write(&mut self, offset: u64, value: u64) {
        match offset {
            regs::QUEUE_SEL => self.queue_sel = value as usize,
            regs::QUEUE_NUM => {
                if let Some(c) = self.queue_configs.get_mut(self.queue_sel) {
                    c.size = value as u16;
                }
            }
            regs::QUEUE_DESC => {
                if let Some(c) = self.queue_configs.get_mut(self.queue_sel) {
                    c.desc = value;
                }
            }
            regs::QUEUE_AVAIL => {
                if let Some(c) = self.queue_configs.get_mut(self.queue_sel) {
                    c.avail = value;
                }
            }
            regs::QUEUE_USED => {
                if let Some(c) = self.queue_configs.get_mut(self.queue_sel) {
                    c.used = value;
                }
            }
            regs::QUEUE_READY => {
                let sel = self.queue_sel;
                if let Some(c) = self.queue_configs.get_mut(sel) {
                    c.ready = value != 0;
                }
                if value != 0 && sel < self.queues.len() {
                    self.try_activate_queue(sel);
                }
            }
            regs::QUEUE_NOTIFY => {
                let _ = self.notify(value as usize);
            }
            regs::INTERRUPT_ACK => self.interrupt_status &= !value,
            regs::STATUS => self.status = value,
            o if o >= regs::CONFIG => self.device.write_config(o - regs::CONFIG, value),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blk::{VirtioBlk, VIRTIO_BLK_T_OUT};
    use crate::queue::DriverQueue;
    use rvisor_block::RamDisk;
    use rvisor_types::ByteSize;

    impl VirtioMmio {
        /// Number of doorbell writes observed.
        pub(crate) fn doorbells(&self) -> u64 {
            self.doorbells
        }

        /// Access the wrapped device model.
        pub(crate) fn device(&self) -> &dyn VirtioDevice {
            self.device.as_ref()
        }

        /// Mutable access to the wrapped device model.
        fn device_mut(&mut self) -> &mut dyn VirtioDevice {
            self.device.as_mut()
        }
    }

    fn setup() -> (GuestMemory, VirtioMmio, DriverQueue) {
        let mem = GuestMemory::flat(ByteSize::mib(2)).unwrap();
        let blk = VirtioBlk::new(Box::new(RamDisk::new(ByteSize::kib(64))));
        let mut mmio = VirtioMmio::new(Box::new(blk), mem.clone());
        let (layout, end) = QueueLayout::contiguous(GuestAddress(0x1000), 64).unwrap();
        mmio.setup_queue(0, layout).unwrap();
        let driver = DriverQueue::new(layout, GuestAddress((end.0 + 0xfff) & !0xfff), 512 * 1024);
        driver.init(&mem).unwrap();
        (mem, mmio, driver)
    }

    #[test]
    fn identification_registers() {
        let (_mem, mmio, _driver) = setup();
        assert_eq!(mmio.read(regs::MAGIC_VALUE), MAGIC);
        assert_eq!(mmio.read(regs::VERSION), VERSION);
        assert_eq!(mmio.read(regs::DEVICE_ID), 2); // block
        assert_eq!(mmio.read(regs::QUEUE_NUM_MAX), DEFAULT_QUEUE_NUM_MAX as u64);
        assert_eq!(mmio.read(regs::CONFIG), 128); // capacity sectors of a 64 KiB disk
        assert!(format!("{mmio:?}").contains("device_id"));
    }

    #[test]
    fn doorbell_processes_requests_and_raises_interrupt() {
        let (mem, mut mmio, mut driver) = setup();
        let header = VirtioBlk::request_header(VIRTIO_BLK_T_OUT, 3);
        let data = vec![0x5au8; 512];
        driver.add_chain(&mem, &[&header, &data], &[1]).unwrap();

        mmio.write(regs::QUEUE_NOTIFY, 0);
        assert_eq!(mmio.doorbells(), 1);
        assert_eq!(mmio.read(regs::INTERRUPT_STATUS), 1);
        mmio.write(regs::INTERRUPT_ACK, 1);
        assert_eq!(mmio.read(regs::INTERRUPT_STATUS), 0);

        let (_, len) = driver.poll_used(&mem).unwrap().unwrap();
        assert_eq!(len, 1);
    }

    #[test]
    fn register_driven_queue_setup() {
        let mem = GuestMemory::flat(ByteSize::mib(2)).unwrap();
        let blk = VirtioBlk::new(Box::new(RamDisk::new(ByteSize::kib(64))));
        let mut mmio = VirtioMmio::new(Box::new(blk), mem.clone());

        let (layout, end) = QueueLayout::contiguous(GuestAddress(0x2000), 32).unwrap();
        mmio.write(regs::QUEUE_SEL, 0);
        mmio.write(regs::QUEUE_NUM, 32);
        mmio.write(regs::QUEUE_DESC, layout.desc_table.0);
        mmio.write(regs::QUEUE_AVAIL, layout.avail_ring.0);
        mmio.write(regs::QUEUE_USED, layout.used_ring.0);
        mmio.write(regs::QUEUE_READY, 1);
        assert_eq!(mmio.read(regs::QUEUE_READY), 1);
        assert_eq!(mmio.read(regs::QUEUE_NUM), 32);

        let driver = DriverQueue::new(layout, GuestAddress((end.0 + 0xfff) & !0xfff), 64 * 1024);
        driver.init(&mem).unwrap();
        let mut driver = driver;
        let header = VirtioBlk::request_header(VIRTIO_BLK_T_OUT, 0);
        driver
            .add_chain(&mem, &[&header, &[0u8; 512]], &[1])
            .unwrap();
        mmio.write(regs::QUEUE_NOTIFY, 0);
        assert!(driver.poll_used(&mem).unwrap().is_some());
    }

    #[test]
    fn status_and_unknown_registers() {
        let (_mem, mut mmio, _driver) = setup();
        mmio.write(regs::STATUS, 0xf);
        assert_eq!(mmio.read(regs::STATUS), 0xf);
        assert_eq!(mmio.read(0x500 - 1), 0); // config beyond device space
        assert_eq!(mmio.read(0x0c), 0); // unimplemented register
        mmio.write(0x0c, 7); // ignored
                             // Selecting a queue that does not exist must not panic.
        mmio.write(regs::QUEUE_SEL, 9);
        assert_eq!(mmio.read(regs::QUEUE_NUM), 0);
        mmio.write(regs::QUEUE_NUM, 16);
        mmio.write(regs::QUEUE_READY, 1);
        mmio.write(regs::QUEUE_NOTIFY, 9);
    }

    #[test]
    fn setup_queue_out_of_range_fails() {
        let (_mem, mut mmio, _driver) = setup();
        let (layout, _) = QueueLayout::contiguous(GuestAddress(0x2000), 16).unwrap();
        assert!(mmio.setup_queue(3, layout).is_err());
        assert!(mmio.device().num_queues() == 1);
        mmio.device_mut().write_config(0, 1);
    }
}
