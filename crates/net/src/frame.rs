//! Ethernet-style frames and MAC addresses.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Minimum frame size (header + minimal payload), matching Ethernet's 64 bytes.
pub(crate) const MIN_FRAME_SIZE: usize = 64;
/// Ethertype used for the synthetic IPv4-ish traffic in tests and examples.
pub const ETHERTYPE_IPV4: u16 = 0x0800;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// A locally administered unicast address derived from an index —
    /// convenient for giving each VM a unique, predictable MAC.
    pub fn local(index: u32) -> Self {
        let b = index.to_be_bytes();
        MacAddr([0x02, 0x52, b[0], b[1], b[2], b[3]])
    }

    /// Whether this is the broadcast address.
    pub(crate) fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// Whether this is a multicast address (lowest bit of the first octet).
    pub(crate) fn is_multicast(self) -> bool {
        self.0[0] & 1 == 1
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// A network frame exchanged between endpoints on a [`crate::VirtualSwitch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Destination MAC.
    pub(crate) dst: MacAddr,
    /// Source MAC.
    pub(crate) src: MacAddr,
    /// Ethertype.
    pub(crate) ethertype: u16,
    /// Payload bytes.
    pub(crate) payload: Bytes,
}

impl Frame {
    /// Build a frame. The payload is not padded; [`Frame::wire_len`] accounts
    /// for minimum frame size the way a real NIC would.
    pub fn new(src: MacAddr, dst: MacAddr, ethertype: u16, payload: impl Into<Bytes>) -> Self {
        Frame {
            dst,
            src,
            ethertype,
            payload: payload.into(),
        }
    }

    /// A broadcast frame.
    pub fn broadcast(src: MacAddr, ethertype: u16, payload: impl Into<Bytes>) -> Self {
        Self::new(src, MacAddr::BROADCAST, ethertype, payload)
    }

    /// The size this frame occupies on the wire (header + payload, padded to
    /// the Ethernet minimum).
    pub fn wire_len(&self) -> usize {
        (14 + self.payload.len()).max(MIN_FRAME_SIZE)
    }

    /// Serialize to a flat byte vector (header then payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(14 + self.payload.len());
        out.extend_from_slice(&self.dst.0);
        out.extend_from_slice(&self.src.0);
        out.extend_from_slice(&self.ethertype.to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parse a frame from its flat byte representation.
    pub fn from_bytes(data: &[u8]) -> Option<Frame> {
        if data.len() < 14 {
            return None;
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&data[0..6]);
        src.copy_from_slice(&data[6..12]);
        let ethertype = u16::from_be_bytes([data[12], data[13]]);
        Some(Frame {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype,
            payload: Bytes::copy_from_slice(&data[14..]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Maximum frame size (standard MTU plus header).
    pub(crate) const MAX_FRAME_SIZE: usize = 1518;

    impl Frame {
        /// Whether the frame exceeds the maximum frame size.
        pub(crate) fn oversized(&self) -> bool {
            14 + self.payload.len() > MAX_FRAME_SIZE
        }
    }

    #[test]
    fn mac_helpers() {
        let a = MacAddr::local(1);
        let b = MacAddr::local(2);
        assert_ne!(a, b);
        assert!(!a.is_broadcast());
        assert!(!a.is_multicast());
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert_eq!(
            MacAddr([0xde, 0xad, 0xbe, 0xef, 0, 1]).to_string(),
            "de:ad:be:ef:00:01"
        );
    }

    #[test]
    fn wire_len_respects_minimum() {
        let f = Frame::new(
            MacAddr::local(0),
            MacAddr::local(1),
            ETHERTYPE_IPV4,
            vec![0u8; 10],
        );
        assert_eq!(f.wire_len(), MIN_FRAME_SIZE);
        let f = Frame::new(
            MacAddr::local(0),
            MacAddr::local(1),
            ETHERTYPE_IPV4,
            vec![0u8; 1500],
        );
        assert_eq!(f.wire_len(), 1514);
        assert!(!f.oversized());
        let f = Frame::new(
            MacAddr::local(0),
            MacAddr::local(1),
            ETHERTYPE_IPV4,
            vec![0u8; 1600],
        );
        assert!(f.oversized());
    }

    #[test]
    fn broadcast_constructor() {
        let f = Frame::broadcast(MacAddr::local(3), ETHERTYPE_IPV4, vec![1, 2, 3]);
        assert!(f.dst.is_broadcast());
        assert_eq!(f.src, MacAddr::local(3));
    }

    #[test]
    fn serialization_roundtrip() {
        let f = Frame::new(MacAddr::local(7), MacAddr::local(9), 0x86dd, vec![9u8; 100]);
        let bytes = f.to_bytes();
        let back = Frame::from_bytes(&bytes).unwrap();
        assert_eq!(back, f);
        assert!(Frame::from_bytes(&bytes[..10]).is_none());
    }

    proptest! {
        #[test]
        fn roundtrip_any_payload(payload in proptest::collection::vec(any::<u8>(), 0..1500), et in any::<u16>()) {
            let f = Frame::new(MacAddr::local(1), MacAddr::local(2), et, payload);
            prop_assert_eq!(Frame::from_bytes(&f.to_bytes()).unwrap(), f);
        }
    }
}
