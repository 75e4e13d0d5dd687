//! virtio-blk: the paravirtual block device.
//!
//! Request format (one descriptor chain per request):
//!
//! ```text
//! descriptor 0 (read-only) : header { type: u32, reserved: u32, sector: u64 }
//! descriptor 1..n-1        : data buffers (read-only for writes, write-only for reads)
//! descriptor n (write-only): status byte (0 = OK, 1 = IOERR, 2 = UNSUPP)
//! ```
//!
//! One pass of the device over its queue completes every request posted so
//! far, which is why paravirtual I/O beats a register-banging emulated disk,
//! where each of a sector's 67 register accesses is a VM exit. How many VM
//! exits a batch of requests costs is the guest driver's doorbells: one per
//! request without EVENT_IDX notification suppression, and one per batch
//! with it, so one VM exit can complete 32 requests only with EVENT_IDX.

use rvisor_memory::GuestMemory;
use rvisor_types::{Error, Result};

use crate::device::{DeviceType, VirtioDevice};
use crate::queue::{DescriptorChain, VirtQueue};

use rvisor_block::{BlockBackend, SECTOR_SIZE};

/// Request type: read.
pub const VIRTIO_BLK_T_IN: u32 = 0;
/// Request type: write.
pub const VIRTIO_BLK_T_OUT: u32 = 1;
/// Request type: flush.
const VIRTIO_BLK_T_FLUSH: u32 = 4;

/// Status byte: success.
const VIRTIO_BLK_S_OK: u8 = 0;
/// Status byte: I/O error.
const VIRTIO_BLK_S_IOERR: u8 = 1;
/// Status byte: unsupported request.
const VIRTIO_BLK_S_UNSUPP: u8 = 2;

/// Largest bounce-buffer capacity retained between requests (1 MiB — far
/// above typical per-descriptor payloads); bigger one-off requests are
/// served, then the scratch shrinks back.
const SCRATCH_CAP: usize = 1 << 20;

/// Per-device request counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct VirtioBlkStats {
    /// Completed read requests.
    pub(crate) reads: u64,
    /// Completed write requests.
    pub(crate) writes: u64,
    /// Completed flush requests.
    pub(crate) flushes: u64,
    /// Requests that failed.
    pub(crate) errors: u64,
    /// Passes over the queue (`process_queue` calls). The VM exits a
    /// guest pays are its driver's doorbell writes (`DriverQueue::kicks`).
    pub(crate) doorbells: u64,
}

/// The virtio-blk device model.
pub struct VirtioBlk {
    backend: Box<dyn BlockBackend>,
    stats: VirtioBlkStats,
    /// Bounce buffer for read (`T_IN`) payloads, reused across requests so
    /// steady-state I/O performs no per-descriptor heap allocation.
    scratch: Vec<u8>,
}

impl std::fmt::Debug for VirtioBlk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtioBlk")
            .field("capacity_sectors", &self.backend.capacity_sectors())
            .field("stats", &self.stats)
            .finish()
    }
}

impl VirtioBlk {
    /// Create a virtio-blk device over `backend`.
    pub fn new(backend: Box<dyn BlockBackend>) -> Self {
        VirtioBlk {
            backend,
            stats: VirtioBlkStats::default(),
            scratch: Vec::new(),
        }
    }

    /// Request counters.
    pub fn stats(&self) -> VirtioBlkStats {
        self.stats
    }

    fn handle_request(&mut self, mem: &GuestMemory, chain: &DescriptorChain) -> Result<u32> {
        // Parse the 16-byte header from the first readable descriptor.
        let readable: Vec<_> = chain.readable().collect();
        let writable: Vec<_> = chain.writable().collect();
        if readable.is_empty() || writable.is_empty() {
            return Err(Error::InvalidDescriptor(
                "virtio-blk chain missing header or status".into(),
            ));
        }
        let mut header = [0u8; 16];
        mem.read(readable[0].addr, &mut header)?;
        let req_type = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let sector = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let status_desc = writable[writable.len() - 1];

        let (status, written) = match req_type {
            VIRTIO_BLK_T_IN => {
                // Data buffers: all writable descriptors except the final status byte.
                let mut total = 0u32;
                let mut ok = true;
                let mut current_sector = sector;
                for d in &writable[..writable.len() - 1] {
                    // No re-zeroing: the `BlockBackend::read_sectors`
                    // contract guarantees every byte of the slice is
                    // overwritten on `Ok`, and on failure nothing is copied
                    // to the guest.
                    self.scratch.resize(d.len as usize, 0);
                    match self.backend.read_sectors(current_sector, &mut self.scratch) {
                        Ok(()) => {
                            mem.write(d.addr, &self.scratch)?;
                            current_sector += d.len as u64 / SECTOR_SIZE;
                            total += d.len;
                        }
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    self.stats.reads += 1;
                    (VIRTIO_BLK_S_OK, total)
                } else {
                    self.stats.errors += 1;
                    (VIRTIO_BLK_S_IOERR, 0)
                }
            }
            VIRTIO_BLK_T_OUT => {
                let mut ok = true;
                let mut current_sector = sector;
                for d in &readable[1..] {
                    // Zero-copy write path: the backend consumes the guest's
                    // bytes in place through the page-view API. A payload
                    // that straddles adjacent regions cannot be borrowed
                    // contiguously, so it bounces through the scratch buffer
                    // instead — same stitched-span semantics as the T_IN
                    // direction; truly unbacked buffers still error via the
                    // fallback `read`.
                    let backend = &mut self.backend;
                    let wrote = match mem.with_slice(d.addr, d.len as u64, |buf| {
                        backend.write_sectors(current_sector, buf)
                    }) {
                        Ok(result) => result,
                        Err(_) => {
                            self.scratch.resize(d.len as usize, 0);
                            mem.read(d.addr, &mut self.scratch)?;
                            self.backend.write_sectors(current_sector, &self.scratch)
                        }
                    };
                    match wrote {
                        Ok(()) => current_sector += d.len as u64 / SECTOR_SIZE,
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    self.stats.writes += 1;
                    (VIRTIO_BLK_S_OK, 0)
                } else {
                    self.stats.errors += 1;
                    (VIRTIO_BLK_S_IOERR, 0)
                }
            }
            VIRTIO_BLK_T_FLUSH => match self.backend.flush() {
                Ok(()) => {
                    self.stats.flushes += 1;
                    (VIRTIO_BLK_S_OK, 0)
                }
                Err(_) => {
                    self.stats.errors += 1;
                    (VIRTIO_BLK_S_IOERR, 0)
                }
            },
            _ => {
                self.stats.errors += 1;
                (VIRTIO_BLK_S_UNSUPP, 0)
            }
        };

        mem.write_u8(status_desc.addr, status)?;
        // One oversized request must not pin its payload's worth of memory
        // for the device's lifetime.
        if self.scratch.capacity() > SCRATCH_CAP {
            self.scratch.truncate(SCRATCH_CAP);
            self.scratch.shrink_to(SCRATCH_CAP);
        }
        // Status byte counts towards the written length per the spec.
        Ok(written + 1)
    }

    /// Build the 16-byte request header a driver places first in the chain.
    pub fn request_header(req_type: u32, sector: u64) -> [u8; 16] {
        let mut h = [0u8; 16];
        h[0..4].copy_from_slice(&req_type.to_le_bytes());
        h[8..16].copy_from_slice(&sector.to_le_bytes());
        h
    }
}

impl VirtioDevice for VirtioBlk {
    fn device_type(&self) -> DeviceType {
        DeviceType::Block
    }

    fn num_queues(&self) -> usize {
        1
    }

    fn process_queue(
        &mut self,
        _index: usize,
        mem: &GuestMemory,
        queue: &mut VirtQueue,
    ) -> Result<bool> {
        self.stats.doorbells += 1;
        let mut raise = false;
        while let Some(chain) = queue.pop(mem)? {
            let written = self.handle_request(mem, &chain)?;
            if queue.push_used(mem, chain.head_index, written)? {
                raise = true;
            }
        }
        Ok(raise)
    }

    fn read_config(&self, offset: u64) -> u64 {
        // Config space: capacity in sectors at offset 0.
        match offset {
            0 => self.backend.capacity_sectors(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{DriverQueue, QueueLayout};
    use rvisor_block::RamDisk;
    use rvisor_types::{ByteSize, GuestAddress};

    impl VirtioBlk {
        /// The capacity advertised to the guest, in sectors.
        pub(crate) fn capacity_sectors(&self) -> u64 {
            self.backend.capacity_sectors()
        }

        /// Access the underlying backend (tests).
        pub(crate) fn backend(&self) -> &dyn BlockBackend {
            self.backend.as_ref()
        }
    }

    fn setup() -> (GuestMemory, VirtQueue, DriverQueue, VirtioBlk) {
        let mem = GuestMemory::flat(ByteSize::mib(2)).unwrap();
        let (layout, end) = QueueLayout::contiguous(GuestAddress(0x1000), 128).unwrap();
        let driver = DriverQueue::new(layout, GuestAddress((end.0 + 0xfff) & !0xfff), 1 << 20);
        driver.init(&mem).unwrap();
        let device = VirtQueue::new(layout);
        let blk = VirtioBlk::new(Box::new(RamDisk::new(ByteSize::kib(256))));
        (mem, device, driver, blk)
    }

    fn submit_write(mem: &GuestMemory, driver: &mut DriverQueue, sector: u64, data: &[u8]) -> u16 {
        let header = VirtioBlk::request_header(VIRTIO_BLK_T_OUT, sector);
        let (head, _) = driver.add_chain(mem, &[&header, data], &[1]).unwrap();
        head
    }

    fn submit_read(mem: &GuestMemory, driver: &mut DriverQueue, sector: u64, len: u32) -> u16 {
        let header = VirtioBlk::request_header(VIRTIO_BLK_T_IN, sector);
        let (head, _) = driver.add_chain(mem, &[&header], &[len, 1]).unwrap();
        head
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (mem, mut queue, mut driver, mut blk) = setup();
        let payload = vec![0xabu8; 1024];
        submit_write(&mem, &mut driver, 4, &payload);
        submit_read(&mem, &mut driver, 4, 1024);
        blk.process_queue(0, &mem, &mut queue).unwrap();

        // Both completions present.
        let (_, len_w) = driver.poll_used(&mem).unwrap().unwrap();
        assert_eq!(len_w, 1); // status byte only
        let (_, len_r) = driver.poll_used(&mem).unwrap().unwrap();
        assert_eq!(len_r, 1025);

        let stats = blk.stats();
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.doorbells, 1);
        assert_eq!(stats.errors, 0);
        // The backend actually stored the data.
        assert_eq!(blk.backend().stats().bytes_written, 1024);
    }

    #[test]
    fn read_returns_previously_written_data() {
        let (mem, mut queue, mut driver, mut blk) = setup();
        let payload: Vec<u8> = (0..512u32).map(|i| (i % 251) as u8).collect();
        submit_write(&mem, &mut driver, 10, &payload);
        blk.process_queue(0, &mem, &mut queue).unwrap();
        driver.poll_used(&mem).unwrap().unwrap();

        submit_read(&mem, &mut driver, 10, 512);
        blk.process_queue(0, &mem, &mut queue).unwrap();
        driver.poll_used(&mem).unwrap().unwrap();

        // Find the data buffer: it is the first writable descriptor of the last chain.
        // Easier: read the backend contents directly via a fresh read request is already
        // validated by len; verify bytes by scanning guest memory region written by device.
        // The driver allocated buffers in order; re-issue a read and inspect via chain.
        let header = VirtioBlk::request_header(VIRTIO_BLK_T_IN, 10);
        let (_, _) = driver.add_chain(&mem, &[&header], &[512, 1]).unwrap();
        let chain = queue.pop(&mem).unwrap().unwrap();
        let data_desc = chain.writable().next().unwrap();
        let written = blk.handle_request(&mem, &chain).unwrap();
        assert_eq!(written, 513);
        assert_eq!(mem.read_vec(data_desc.addr, 512).unwrap(), payload);
        queue.push_used(&mem, chain.head_index, written).unwrap();
    }

    #[test]
    fn flush_and_unsupported_requests() {
        let (mem, mut queue, mut driver, mut blk) = setup();
        let flush = VirtioBlk::request_header(VIRTIO_BLK_T_FLUSH, 0);
        driver.add_chain(&mem, &[&flush], &[1]).unwrap();
        let bogus = VirtioBlk::request_header(99, 0);
        driver.add_chain(&mem, &[&bogus], &[1]).unwrap();
        blk.process_queue(0, &mem, &mut queue).unwrap();
        assert_eq!(blk.stats().flushes, 1);
        assert_eq!(blk.stats().errors, 1);
    }

    #[test]
    fn out_of_range_request_reports_ioerr() {
        let (mem, mut queue, mut driver, mut blk) = setup();
        // Device is 512 sectors; ask for sector 10_000.
        submit_read(&mem, &mut driver, 10_000, 512);
        blk.process_queue(0, &mem, &mut queue).unwrap();
        assert_eq!(blk.stats().errors, 1);
        let (_, len) = driver.poll_used(&mem).unwrap().unwrap();
        assert_eq!(len, 1);
    }

    #[test]
    fn malformed_chain_is_an_error() {
        let (mem, mut queue, mut driver, mut blk) = setup();
        // Chain with no writable status descriptor.
        let header = VirtioBlk::request_header(VIRTIO_BLK_T_FLUSH, 0);
        driver.add_chain(&mem, &[&header], &[]).unwrap();
        assert!(blk.process_queue(0, &mem, &mut queue).is_err());
    }

    /// One device pass completes a 32-request batch either way; what the
    /// batch costs in VM exits is the driver's kicks: one per request
    /// without EVENT_IDX, one per batch with it.
    #[test]
    fn batched_requests_complete_in_one_doorbell() {
        for (event_idx, kicks) in [(false, 32), (true, 1)] {
            let (mem, mut queue, mut driver, mut blk) = setup();
            queue.set_event_idx(event_idx);
            driver.set_event_idx(event_idx);
            for i in 0..32 {
                submit_write(&mem, &mut driver, i * 8, &vec![i as u8; 4096]);
            }
            blk.process_queue(0, &mem, &mut queue).unwrap();
            assert_eq!(blk.stats().writes, 32);
            assert_eq!(blk.stats().doorbells, 1);
            assert_eq!(driver.kicks(), kicks, "EVENT_IDX {event_idx}");
            let mut completions = 0;
            while driver.poll_used(&mem).unwrap().is_some() {
                completions += 1;
            }
            assert_eq!(completions, 32);
        }
    }

    #[test]
    fn device_metadata() {
        let (_mem, _queue, _driver, blk) = setup();
        assert_eq!(blk.device_type(), DeviceType::Block);
        assert_eq!(blk.num_queues(), 1);
        assert_eq!(blk.capacity_sectors(), 512);
        assert_eq!(blk.read_config(0), 512);
        assert_eq!(blk.read_config(8), 0);
        assert!(format!("{blk:?}").contains("capacity_sectors"));
    }
}
