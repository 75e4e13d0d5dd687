//! A learning layer-2 virtual switch.
//!
//! Each VM NIC plugs into a [`SwitchPort`]. Frames sent on a port are
//! forwarded to the port owning the destination MAC (learned from source
//! addresses, as a real switch does) or flooded to all other ports for
//! broadcasts and unknown destinations. Every port has a bounded receive
//! queue; frames arriving at a full queue are dropped and counted, which is
//! what lets a virtio-net run observe backpressure.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::frame::{Frame, MacAddr};

/// Default per-port receive queue depth.
const DEFAULT_RX_QUEUE: usize = 1024;

/// Switch-wide counters.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SwitchStats {
    /// Frames forwarded to a single learned port.
    pub forwarded: u64,
    /// Frames flooded to all ports (broadcast or unknown destination).
    pub(crate) flooded: u64,
    /// Frames dropped because a receive queue was full.
    pub(crate) dropped: u64,
    /// Total payload+header bytes accepted from endpoints.
    pub bytes: u64,
}

#[derive(Debug, Default)]
struct PortState {
    rx: VecDeque<Frame>,
    rx_capacity: usize,
    dropped: u64,
}

#[derive(Debug, Default)]
struct SwitchInner {
    ports: Vec<PortState>,
    mac_table: HashMap<MacAddr, usize>,
    stats: SwitchStats,
}

/// A shareable virtual L2 switch.
#[derive(Debug, Clone, Default)]
pub struct VirtualSwitch {
    inner: Arc<Mutex<SwitchInner>>,
}

impl VirtualSwitch {
    /// Create a switch with no ports.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a port with the default receive-queue depth.
    pub fn add_port(&self) -> SwitchPort {
        self.add_port_with_queue(DEFAULT_RX_QUEUE)
    }

    /// Add a port with an explicit receive-queue depth.
    fn add_port_with_queue(&self, rx_capacity: usize) -> SwitchPort {
        let mut inner = self.inner.lock();
        let index = inner.ports.len();
        inner.ports.push(PortState {
            rx: VecDeque::new(),
            rx_capacity: rx_capacity.max(1),
            dropped: 0,
        });
        SwitchPort {
            switch: self.clone(),
            index,
        }
    }

    /// Switch-wide statistics.
    pub fn stats(&self) -> SwitchStats {
        self.inner.lock().stats
    }

    fn transmit(&self, from_port: usize, frame: Frame) {
        let mut inner = self.inner.lock();
        inner.stats.bytes += frame.wire_len() as u64;
        // Learn the source.
        inner.mac_table.insert(frame.src, from_port);

        let dst_port = if frame.dst.is_broadcast() || frame.dst.is_multicast() {
            None
        } else {
            inner.mac_table.get(&frame.dst).copied()
        };

        match dst_port {
            Some(p) if p != from_port => {
                inner.stats.forwarded += 1;
                Self::deliver(&mut inner, p, frame);
            }
            Some(_) => {
                // Destination is the sender itself; real switches drop this.
                inner.stats.forwarded += 1;
            }
            None => {
                inner.stats.flooded += 1;
                let targets: Vec<usize> =
                    (0..inner.ports.len()).filter(|&p| p != from_port).collect();
                for p in targets {
                    Self::deliver(&mut inner, p, frame.clone());
                }
            }
        }
    }

    fn deliver(inner: &mut SwitchInner, port: usize, frame: Frame) {
        let state = &mut inner.ports[port];
        if state.rx.len() >= state.rx_capacity {
            state.dropped += 1;
            inner.stats.dropped += 1;
        } else {
            state.rx.push_back(frame);
        }
    }

    fn receive(&self, port: usize) -> Option<Frame> {
        self.inner.lock().ports[port].rx.pop_front()
    }

    fn pending(&self, port: usize) -> usize {
        self.inner.lock().ports[port].rx.len()
    }
}

/// One port of a [`VirtualSwitch`]; owned by a VM NIC or a host-side endpoint.
#[derive(Debug, Clone)]
pub struct SwitchPort {
    switch: VirtualSwitch,
    index: usize,
}

impl SwitchPort {
    /// Transmit a frame into the switch.
    pub fn send(&self, frame: Frame) {
        self.switch.transmit(self.index, frame);
    }

    /// Receive the next queued frame, if any.
    pub fn recv(&self) -> Option<Frame> {
        self.switch.receive(self.index)
    }

    /// Number of frames waiting in this port's receive queue.
    pub fn pending(&self) -> usize {
        self.switch.pending(self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ETHERTYPE_IPV4;

    impl SwitchPort {
        /// The port's index on its switch.
        pub(crate) fn index(&self) -> usize {
            self.index
        }

        /// Frames dropped at this port because its queue was full.
        pub(crate) fn dropped(&self) -> u64 {
            self.switch.inner.lock().ports[self.index].dropped
        }
    }

    impl VirtualSwitch {
        /// Number of ports.
        fn port_count(&self) -> usize {
            self.inner.lock().ports.len()
        }

        /// The port index a MAC address has been learned on, if any.
        fn learned_port(&self, mac: MacAddr) -> Option<usize> {
            self.inner.lock().mac_table.get(&mac).copied()
        }
    }

    fn frame(src: u32, dst: MacAddr, len: usize) -> Frame {
        Frame::new(MacAddr::local(src), dst, ETHERTYPE_IPV4, vec![0u8; len])
    }

    #[test]
    fn unknown_destination_floods() {
        let sw = VirtualSwitch::new();
        let a = sw.add_port();
        let b = sw.add_port();
        let c = sw.add_port();
        a.send(frame(0, MacAddr::local(9), 100));
        assert_eq!(b.pending(), 1);
        assert_eq!(c.pending(), 1);
        assert_eq!(a.pending(), 0);
        assert_eq!(sw.stats().flooded, 1);
    }

    #[test]
    fn learning_directs_subsequent_frames() {
        let sw = VirtualSwitch::new();
        let a = sw.add_port();
        let b = sw.add_port();
        let c = sw.add_port();

        // b announces itself by sending anything.
        b.send(frame(1, MacAddr::BROADCAST, 64));
        assert_eq!(sw.learned_port(MacAddr::local(1)), Some(b.index()));
        // Drain the flood.
        while a.recv().is_some() {}
        while c.recv().is_some() {}

        a.send(frame(0, MacAddr::local(1), 200));
        assert_eq!(b.pending(), 1);
        assert_eq!(c.pending(), 0);
        assert_eq!(sw.stats().forwarded, 1);
        let received = b.recv().unwrap();
        assert_eq!(received.src, MacAddr::local(0));
        assert_eq!(received.payload.len(), 200);
    }

    #[test]
    fn broadcast_reaches_all_but_sender() {
        let sw = VirtualSwitch::new();
        let ports: Vec<_> = (0..4).map(|_| sw.add_port()).collect();
        ports[0].send(Frame::broadcast(
            MacAddr::local(0),
            ETHERTYPE_IPV4,
            vec![1u8; 50],
        ));
        assert_eq!(ports[0].pending(), 0);
        for p in &ports[1..] {
            assert_eq!(p.pending(), 1);
        }
    }

    #[test]
    fn full_queue_drops_and_counts() {
        let sw = VirtualSwitch::new();
        let a = sw.add_port_with_queue(2);
        let b = sw.add_port_with_queue(2);
        // Teach the switch where a is.
        a.send(frame(0, MacAddr::BROADCAST, 64));
        let _ = b.recv();
        for _ in 0..5 {
            b.send(frame(1, MacAddr::local(0), 64));
        }
        assert_eq!(a.pending(), 2);
        assert_eq!(a.dropped(), 3);
        assert_eq!(sw.stats().dropped, 3);
    }

    #[test]
    fn frame_to_self_is_dropped_silently() {
        let sw = VirtualSwitch::new();
        let a = sw.add_port();
        let _b = sw.add_port();
        a.send(frame(0, MacAddr::BROADCAST, 64)); // learn a
        a.send(frame(0, MacAddr::local(0), 64)); // to itself
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn stats_count_bytes() {
        let sw = VirtualSwitch::new();
        let a = sw.add_port();
        let _b = sw.add_port();
        a.send(frame(0, MacAddr::BROADCAST, 1000));
        a.send(frame(0, MacAddr::BROADCAST, 10));
        assert_eq!(sw.stats().bytes, 1014 + 64);
        assert_eq!(sw.port_count(), 2);
    }
}
