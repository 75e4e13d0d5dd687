//! virtio-net: the paravirtual network interface.
//!
//! Two queues: queue 0 is the receive queue (driver posts empty buffers the
//! device fills with incoming frames), queue 1 is the transmit queue (driver
//! posts frames for the device to put on the wire). The "wire" is a port on
//! an [`rvisor_net::VirtualSwitch`].
//!
//! Each buffer starts with the 12-byte virtio-net header, which this model
//! writes as zeroes (no offloads), followed by the Ethernet frame.

use rvisor_memory::GuestMemory;
use rvisor_net::{Frame, MacAddr, SwitchPort};
use rvisor_types::Result;

use crate::device::{DeviceType, VirtioDevice};
use crate::queue::VirtQueue;

/// Length of the virtio-net header preceding every frame.
const VIRTIO_NET_HDR_LEN: usize = 12;
/// Index of the receive queue.
pub const RX_QUEUE: usize = 0;
/// Index of the transmit queue.
pub const TX_QUEUE: usize = 1;

/// Per-device traffic counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct VirtioNetStats {
    /// Frames transmitted by the guest.
    pub(crate) tx_frames: u64,
    /// Bytes transmitted by the guest (excluding the virtio header).
    pub(crate) tx_bytes: u64,
    /// Frames delivered into guest receive buffers.
    pub(crate) rx_frames: u64,
    /// Bytes delivered into guest receive buffers.
    pub(crate) rx_bytes: u64,
    /// Frames dropped because no receive buffer was available.
    pub(crate) rx_no_buffer: u64,
    /// Malformed transmit chains.
    pub(crate) tx_errors: u64,
}

/// The virtio-net device model.
pub struct VirtioNet {
    mac: MacAddr,
    port: SwitchPort,
    stats: VirtioNetStats,
}

impl std::fmt::Debug for VirtioNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtioNet")
            .field("mac", &self.mac)
            .field("stats", &self.stats)
            .finish()
    }
}

impl VirtioNet {
    /// Create a NIC with address `mac`, attached to `port`.
    pub fn new(mac: MacAddr, port: SwitchPort) -> Self {
        VirtioNet {
            mac,
            port,
            stats: VirtioNetStats::default(),
        }
    }

    /// Deliver frames waiting on the switch port into posted receive buffers.
    /// Returns whether an interrupt should be raised.
    fn deliver_rx(&mut self, mem: &GuestMemory, rx_queue: &mut VirtQueue) -> Result<bool> {
        let mut raise = false;
        while self.port.pending() > 0 {
            let Some(chain) = rx_queue.pop(mem)? else {
                // No buffers posted: leave the frame queued at the switch but
                // record that we could not make progress.
                self.stats.rx_no_buffer += 1;
                break;
            };
            let frame = self.port.recv().expect("pending frame disappeared");
            let mut packet = vec![0u8; VIRTIO_NET_HDR_LEN];
            packet.extend_from_slice(&frame.to_bytes());
            let written = chain.write_all(mem, &packet)?;
            self.stats.rx_frames += 1;
            self.stats.rx_bytes += frame.wire_len() as u64;
            if rx_queue.push_used(mem, chain.head_index, written)? {
                raise = true;
            }
        }
        Ok(raise)
    }

    fn transmit(&mut self, mem: &GuestMemory, queue: &mut VirtQueue) -> Result<bool> {
        let mut raise = false;
        while let Some(chain) = queue.pop(mem)? {
            let data = chain.read_all(mem)?;
            if data.len() > VIRTIO_NET_HDR_LEN {
                match Frame::from_bytes(&data[VIRTIO_NET_HDR_LEN..]) {
                    Some(frame) => {
                        self.stats.tx_frames += 1;
                        self.stats.tx_bytes += frame.wire_len() as u64;
                        self.port.send(frame);
                    }
                    None => self.stats.tx_errors += 1,
                }
            } else {
                self.stats.tx_errors += 1;
            }
            if queue.push_used(mem, chain.head_index, 0)? {
                raise = true;
            }
        }
        Ok(raise)
    }

    /// Build the bytes a driver posts on the TX queue for `frame`.
    pub fn tx_packet(frame: &Frame) -> Vec<u8> {
        let mut packet = vec![0u8; VIRTIO_NET_HDR_LEN];
        packet.extend_from_slice(&frame.to_bytes());
        packet
    }
}

impl VirtioDevice for VirtioNet {
    fn device_type(&self) -> DeviceType {
        DeviceType::Net
    }

    fn num_queues(&self) -> usize {
        2
    }

    fn process_queue(
        &mut self,
        index: usize,
        mem: &GuestMemory,
        queue: &mut VirtQueue,
    ) -> Result<bool> {
        match index {
            TX_QUEUE => self.transmit(mem, queue),
            RX_QUEUE => self.deliver_rx(mem, queue),
            _ => Ok(false),
        }
    }

    fn read_config(&self, offset: u64) -> u64 {
        // Config space: the MAC address in the first 6 bytes.
        if offset < 6 {
            self.mac.0[offset as usize] as u64
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{DriverQueue, QueueLayout};
    use rvisor_net::{VirtualSwitch, ETHERTYPE_IPV4};
    use rvisor_types::{ByteSize, GuestAddress};

    impl VirtioNet {
        /// The NIC's MAC address.
        pub(crate) fn mac(&self) -> MacAddr {
            self.mac
        }

        /// Traffic counters.
        pub(crate) fn stats(&self) -> VirtioNetStats {
            self.stats
        }
    }

    struct Nic {
        mem: GuestMemory,
        rx_q: VirtQueue,
        tx_q: VirtQueue,
        rx_drv: DriverQueue,
        tx_drv: DriverQueue,
        dev: VirtioNet,
    }

    fn nic(switch: &VirtualSwitch, index: u32) -> Nic {
        let mem = GuestMemory::flat(ByteSize::mib(2)).unwrap();
        let (rx_layout, rx_end) = QueueLayout::contiguous(GuestAddress(0x1000), 64).unwrap();
        let (tx_layout, tx_end) =
            QueueLayout::contiguous(GuestAddress((rx_end.0 + 0xfff) & !0xfff), 64).unwrap();
        let data = GuestAddress((tx_end.0 + 0xfff) & !0xfff);
        let rx_drv = DriverQueue::new(rx_layout, data, 512 * 1024);
        let tx_drv = DriverQueue::new(tx_layout, GuestAddress(data.0 + 512 * 1024), 512 * 1024);
        rx_drv.init(&mem).unwrap();
        tx_drv.init(&mem).unwrap();
        let dev = VirtioNet::new(MacAddr::local(index), switch.add_port());
        Nic {
            mem,
            rx_q: VirtQueue::new(rx_layout),
            tx_q: VirtQueue::new(tx_layout),
            rx_drv,
            tx_drv,
            dev,
        }
    }

    fn post_rx_buffers(n: &mut Nic, count: usize) {
        for _ in 0..count {
            n.rx_drv.add_chain(&n.mem, &[], &[2048]).unwrap();
        }
    }

    fn send_frame(n: &mut Nic, dst: MacAddr, payload_len: usize) {
        let frame = Frame::new(n.dev.mac(), dst, ETHERTYPE_IPV4, vec![0x42u8; payload_len]);
        let packet = VirtioNet::tx_packet(&frame);
        n.tx_drv.add_chain(&n.mem, &[&packet], &[]).unwrap();
        n.dev.process_queue(TX_QUEUE, &n.mem, &mut n.tx_q).unwrap();
    }

    #[test]
    fn frame_travels_between_two_nics() {
        let switch = VirtualSwitch::new();
        let mut a = nic(&switch, 1);
        let mut b = nic(&switch, 2);
        post_rx_buffers(&mut b, 4);

        // b announces itself so the switch learns its MAC.
        send_frame(&mut b, MacAddr::BROADCAST, 10);
        // a sends to b.
        send_frame(&mut a, MacAddr::local(2), 300);
        b.dev.process_queue(RX_QUEUE, &b.mem, &mut b.rx_q).unwrap();

        let (_, len) = b.rx_drv.poll_used(&b.mem).unwrap().unwrap();
        assert_eq!(len as usize, VIRTIO_NET_HDR_LEN + 14 + 300);
        assert_eq!(b.dev.stats().rx_frames, 1);
        assert_eq!(a.dev.stats().tx_frames, 1);
        assert_eq!(b.dev.stats().tx_frames, 1);
        assert!(a.dev.stats().tx_bytes >= 314);
    }

    #[test]
    fn rx_without_buffers_is_counted_not_lost() {
        let switch = VirtualSwitch::new();
        let mut a = nic(&switch, 1);
        let mut b = nic(&switch, 2);
        // No RX buffers posted at b.
        send_frame(&mut a, MacAddr::BROADCAST, 64);
        b.dev.process_queue(RX_QUEUE, &b.mem, &mut b.rx_q).unwrap();
        assert_eq!(b.dev.stats().rx_frames, 0);
        assert_eq!(b.dev.stats().rx_no_buffer, 1);
        // Posting buffers later delivers the frame (it stayed queued at the switch).
        post_rx_buffers(&mut b, 1);
        b.dev.process_queue(RX_QUEUE, &b.mem, &mut b.rx_q).unwrap();
        assert_eq!(b.dev.stats().rx_frames, 1);
    }

    #[test]
    fn malformed_tx_chain_counts_as_error() {
        let switch = VirtualSwitch::new();
        let mut a = nic(&switch, 1);
        a.tx_drv.add_chain(&a.mem, &[&[0u8; 5]], &[]).unwrap();
        a.dev.process_queue(TX_QUEUE, &a.mem, &mut a.tx_q).unwrap();
        assert_eq!(a.dev.stats().tx_errors, 1);
        assert_eq!(a.dev.stats().tx_frames, 0);
    }

    #[test]
    fn config_space_exposes_mac() {
        let switch = VirtualSwitch::new();
        let n = nic(&switch, 7);
        let mac = n.dev.mac();
        for i in 0..6 {
            assert_eq!(n.dev.read_config(i), mac.0[i as usize] as u64);
        }
        assert_eq!(n.dev.read_config(6), 0);
        assert_eq!(n.dev.device_type(), DeviceType::Net);
        assert_eq!(n.dev.num_queues(), 2);
        assert!(format!("{:?}", n.dev).contains("mac"));
    }

    #[test]
    fn unknown_queue_index_is_ignored() {
        let switch = VirtualSwitch::new();
        let mut n = nic(&switch, 1);
        let mem = n.mem.clone();
        assert!(!n.dev.process_queue(5, &mem, &mut n.tx_q).unwrap());
    }
}
