//! The single-spine fabric: the worst-case one-rack preset of [`ClosFabric`].
//!
//! [`Link`](crate::Link) models one private point-to-point pipe; real
//! migration traffic crosses a *shared* fabric: each host hangs off its own
//! NIC, every NIC feeds one aggregate backbone, and big transfers are
//! chunked into MTU-sized packets that each pay framing overhead. That
//! single-spine fabric is not a second model: it is the [`ClosParams`]
//! preset `ClosParams::from(FabricParams)` — one rack holding every
//! endpoint, whose leaf plays the backbone, so every transfer is rack-local
//! and never reaches the (single) spine. `clos.rs`'s tests pin the preset
//! against the closed-form single-spine model below.
//!
//! # Model parameters and assumptions
//!
//! Following *On Heuristic Models, Assumptions, and Parameters*, every
//! assumption of the preset is a named [`FabricParams`] field rather than an
//! implicit constant:
//!
//! * **Per-host NIC capacity** (`nic_bytes_per_second`) — a host serializes
//!   all of its migration/DR traffic through one NIC; two transfers
//!   touching the same host queue behind each other.
//! * **Shared backbone** (`backbone_bytes_per_second`) — all hosts share
//!   one aggregate uplink (the one rack's leaf); transfers between
//!   *disjoint* host pairs still contend here. This is the worst-case
//!   single-spine assumption, kept as the conservative upper bound on
//!   contention: a multi-rack [`ClosFabric`] models the leaf/spine topology
//!   real datacenters use, where disjoint rack pairs ride independent spine
//!   paths.
//! * **MTU chunking** (`mtu`, `chunk_overhead`) — a payload of `n` bytes
//!   crosses the wire as `ceil(n / mtu)` chunks, each carrying
//!   `chunk_overhead` bytes of framing (Ethernet + IP + TCP headers), so
//!   small MTUs visibly tax big memory streams.
//! * **Propagation latency** (`latency`) — one-way, paid once per
//!   [`ClosFabric::transfer`] call (a transfer models one batched burst, not
//!   one packet; intra-burst pipelining hides per-packet latency).
//! * **Store-and-forward occupancy** — a transfer occupies the source NIC,
//!   the backbone and the destination NIC for its whole serialization time
//!   (no cut-through credit), which is what makes contention conservative
//!   and the timing a simple max over busy-until marks:
//!   `start = max(now, nic[from], nic[to], backbone)`,
//!   `arrival = start + serialization + latency`.
//! * **Parallel chunk streams** ([`ClosFabric::transfer_striped`]) — a
//!   multi-stream migration presents its per-stripe payloads together and
//!   the streams *fairly share* the source NIC, the backbone and the
//!   destination NIC. Because one bottleneck serializes every stream's
//!   bytes, the striped burst completes exactly when a single stream
//!   carrying the aggregate would — except that each stream pays its own
//!   MTU chunk framing, so parallelism is never *faster* in simulated time
//!   **on this preset** — a property of the topology, not of striping
//!   itself: on a multi-spine [`ClosFabric`], ECMP-spread streams cross
//!   independent spine paths and a cross-rack striped burst genuinely
//!   completes earlier. What parallel streams buy *here* is host-CPU
//!   overlap (encode and apply proceed concurrently), which is wall-clock,
//!   not guest-visible simulated time.
//!
//! All timing is computed in `u128` nanosecond arithmetic and stored as
//! [`Nanoseconds`]; no floats are involved, so same-seed simulations replay
//! `==`-identically on any host.

use serde::{Deserialize, Serialize};

use rvisor_types::{Nanoseconds, Result};

use crate::clos::{ClosFabric, ClosParams};

/// Default per-chunk framing overhead: Ethernet (14) + IPv4 (20) + TCP (32,
/// with timestamps) + FCS (4) + preamble/IFG (8 + 12) ≈ 90 bytes per MTU.
pub const DEFAULT_CHUNK_OVERHEAD: u64 = 90;

/// The name the repository benchmark still builds the single-spine fabric
/// by; the workspace names [`ClosFabric`] and the preset directly.
pub type Fabric = ClosFabric;

/// Named, validated parameters of the single-spine preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricParams {
    /// Line rate of every host NIC, in bytes per second.
    pub nic_bytes_per_second: u64,
    /// Aggregate bandwidth of the shared backbone, in bytes per second.
    pub backbone_bytes_per_second: u64,
    /// One-way propagation latency between any two endpoints.
    pub latency: Nanoseconds,
    /// Maximum payload bytes per on-wire chunk (the MTU).
    pub mtu: u64,
    /// Framing overhead added to every chunk.
    pub chunk_overhead: u64,
}

impl FabricParams {
    /// A 10 Gbit/s-NIC datacenter with a 40 Gbit/s backbone, 50 µs latency
    /// and jumbo frames.
    pub fn datacenter() -> Self {
        FabricParams {
            nic_bytes_per_second: 1_250_000_000,
            backbone_bytes_per_second: 5_000_000_000,
            latency: Nanoseconds::from_micros(50),
            mtu: 9000,
            chunk_overhead: DEFAULT_CHUNK_OVERHEAD,
        }
    }

    /// A gigabit office LAN: 1 Gbit/s NICs sharing a 1 Gbit/s uplink,
    /// 200 µs latency, standard 1500-byte MTU.
    pub fn office_lan() -> Self {
        FabricParams {
            nic_bytes_per_second: 125_000_000,
            backbone_bytes_per_second: 125_000_000,
            latency: Nanoseconds::from_micros(200),
            mtu: 1500,
            chunk_overhead: DEFAULT_CHUNK_OVERHEAD,
        }
    }

    /// A 100 Mbit/s WAN with 5 ms latency (cross-site DR traffic).
    pub fn wan() -> Self {
        FabricParams {
            nic_bytes_per_second: 12_500_000,
            backbone_bytes_per_second: 12_500_000,
            latency: Nanoseconds::from_millis(5),
            mtu: 1500,
            chunk_overhead: DEFAULT_CHUNK_OVERHEAD,
        }
    }

    /// Validate the parameters: bandwidths and MTU must be non-zero, and the
    /// MTU must exceed the per-chunk overhead (otherwise goodput is zero or
    /// negative and transfer times diverge) — the preset's own checks.
    pub fn validate(&self) -> Result<()> {
        ClosParams::from(*self).validate()
    }
}

/// The single-spine preset: one rack with room for every endpoint, whose
/// leaf takes the backbone's capacity; one spine of the same capacity that
/// no (rack-local) transfer ever crosses; both latency classes at the
/// backbone's latency.
impl From<FabricParams> for ClosParams {
    fn from(fp: FabricParams) -> Self {
        ClosParams {
            racks: 1,
            hosts_per_rack: usize::MAX,
            nic_bytes_per_second: fp.nic_bytes_per_second,
            leaf_uplink_bytes_per_second: fp.backbone_bytes_per_second,
            spines: 1,
            spine_bytes_per_second: fp.backbone_bytes_per_second,
            rack_latency: fp.latency,
            cross_latency: fp.latency,
            mtu: fp.mtu,
            chunk_overhead: fp.chunk_overhead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn flat_params(bps: u64, mtu: u64) -> FabricParams {
        FabricParams {
            nic_bytes_per_second: bps,
            backbone_bytes_per_second: bps,
            latency: Nanoseconds::ZERO,
            mtu,
            chunk_overhead: 100,
        }
    }

    #[test]
    fn params_validation_rejects_degenerate_values() {
        assert!(FabricParams::datacenter().validate().is_ok());
        assert!(FabricParams::office_lan().validate().is_ok());
        assert!(FabricParams::wan().validate().is_ok());
        let mut p = FabricParams::datacenter();
        p.nic_bytes_per_second = 0;
        assert!(p.validate().is_err());
        let mut p = FabricParams::datacenter();
        p.backbone_bytes_per_second = 0;
        assert!(p.validate().is_err());
        let mut p = FabricParams::datacenter();
        p.mtu = 0;
        assert!(p.validate().is_err());
        let mut p = FabricParams::datacenter();
        p.chunk_overhead = p.mtu;
        assert!(p.validate().is_err());
        assert!(ClosFabric::new(1, FabricParams::datacenter()).is_err());
        assert!(ClosFabric::new(0, FabricParams::datacenter()).is_err());
    }

    #[test]
    fn mtu_chunking_taxes_transfers() {
        // 1 MB at 1 MB/s: exactly 1 s of payload plus chunk framing.
        let p = ClosParams::from(flat_params(1_000_000, 1000));
        // 1000 chunks x 100 overhead = 100_000 extra bytes = 0.1 s.
        assert_eq!(p.wire_bytes(1_000_000), 1_100_000);
        assert_eq!(p.local_transfer_time(1_000_000), Nanoseconds(1_100_000_000));
        // Jumbo frames shrink the tax.
        let jumbo = ClosParams::from(flat_params(1_000_000, 9000));
        assert!(jumbo.local_transfer_time(1_000_000) < p.local_transfer_time(1_000_000));
        // Zero payload still needs no chunks.
        assert_eq!(p.wire_bytes(0), 0);
    }

    #[test]
    fn shared_backbone_serializes_disjoint_pairs() {
        let mut f = ClosFabric::new(4, flat_params(1_000_000, 1_000_000)).unwrap();
        // 0->1 and 2->3 share no NIC, but do share the backbone.
        let a = f.transfer(0, 1, Nanoseconds::ZERO, 500_000).unwrap();
        let b = f.transfer(2, 3, Nanoseconds::ZERO, 500_000).unwrap();
        assert!(b > a, "disjoint pairs must still contend on the backbone");
        assert_eq!(f.transfers(), 2);
        assert_eq!(f.bytes_carried(), 1_000_000);
        assert!(f.wire_bytes_carried() > f.bytes_carried());
        assert_eq!(f.bytes_sent_by(0), 500_000);
        assert_eq!(f.bytes_received_by(3), 500_000);
    }

    #[test]
    fn wider_backbone_still_serializes_nic_sharers() {
        let mut params = flat_params(1_000_000, 1_000_000);
        params.backbone_bytes_per_second = 100_000_000;
        let mut f = ClosFabric::new(3, params).unwrap();
        let a = f.transfer(0, 1, Nanoseconds::ZERO, 500_000).unwrap();
        // Same source NIC: must queue even though the backbone is fast.
        let b = f.transfer(0, 2, Nanoseconds::ZERO, 500_000).unwrap();
        assert!(b > a);
    }

    #[test]
    fn invalid_endpoints_are_rejected() {
        let mut f = ClosFabric::new(2, flat_params(1_000_000, 1500)).unwrap();
        assert!(f.transfer(0, 0, Nanoseconds::ZERO, 1).is_err());
        assert!(f.transfer(0, 2, Nanoseconds::ZERO, 1).is_err());
        assert!(f.path_free_at(5, 0).is_err());
        f.transfer(0, 1, Nanoseconds::ZERO, 123).unwrap();
        f.reset();
        assert_eq!(f.bytes_carried(), 0);
        assert_eq!(f.path_free_at(0, 1).unwrap(), Nanoseconds::ZERO);
    }

    #[test]
    fn striped_transfer_matches_single_stream_for_one_stripe() {
        let params = FabricParams::office_lan();
        let mut a = ClosFabric::new(2, params).unwrap();
        let mut b = ClosFabric::new(2, params).unwrap();
        let single = a.transfer(0, 1, Nanoseconds::ZERO, 3_000_000).unwrap();
        let striped = b
            .transfer_striped(0, 1, Nanoseconds::ZERO, &[3_000_000])
            .unwrap();
        assert_eq!(single, striped);
        assert_eq!(a.bytes_carried(), b.bytes_carried());
        assert_eq!(a.wire_bytes_carried(), b.wire_bytes_carried());
        assert_eq!(a.transfers(), b.transfers());
    }

    #[test]
    fn striping_pays_per_stream_framing_and_never_beats_one_stream() {
        let params = FabricParams::office_lan();
        let mut one = ClosFabric::new(2, params).unwrap();
        let mut four = ClosFabric::new(2, params).unwrap();
        let total = 4_000_001u64; // deliberately not a multiple of 4 or MTU
        let single = one
            .transfer_striped(0, 1, Nanoseconds::ZERO, &[total])
            .unwrap();
        let split = [total / 4, total / 4, total / 4, total - 3 * (total / 4)];
        let striped = four
            .transfer_striped(0, 1, Nanoseconds::ZERO, &split)
            .unwrap();
        assert!(
            striped >= single,
            "fair-share striping must not beat the aggregate stream"
        );
        // Same payload, more framing on the wire.
        assert_eq!(one.bytes_carried(), four.bytes_carried());
        assert!(four.wire_bytes_carried() >= one.wire_bytes_carried());
        assert_eq!(four.transfers(), 4);
        // The striped burst leaves the same kind of busy marks: later
        // traffic queues behind it.
        let later = four.transfer(0, 1, Nanoseconds::ZERO, 1).unwrap();
        assert!(later > striped.saturating_sub(params.latency));
        // Empty stripes contribute nothing but the call still counts once.
        let mut empty = ClosFabric::new(2, params).unwrap();
        let done = empty
            .transfer_striped(0, 1, Nanoseconds::ZERO, &[0, 0])
            .unwrap();
        assert_eq!(done, params.latency);
        assert!(empty
            .transfer_striped(0, 0, Nanoseconds::ZERO, &[1])
            .is_err());
    }

    proptest! {
        /// Arrival times are monotone along any call sequence on one pair,
        /// and replaying the same sequence reproduces identical times.
        #[test]
        fn transfers_are_monotonic_and_deterministic(
            sizes in proptest::collection::vec(0u64..10_000_000, 1..16)
        ) {
            let run = || {
                let mut f = ClosFabric::new(2, FabricParams::office_lan()).unwrap();
                let mut times = Vec::new();
                for &s in &sizes {
                    times.push(f.transfer(0, 1, Nanoseconds::ZERO, s).unwrap());
                }
                times
            };
            let first = run();
            for w in first.windows(2) {
                prop_assert!(w[1] >= w[0]);
            }
            prop_assert_eq!(&first, &run());
        }

        /// The preset is never faster than a bare link of the bottleneck
        /// bandwidth: chunk framing only adds time.
        #[test]
        fn fabric_never_beats_the_bare_link(bytes in 1u64..(1 << 28)) {
            let p = ClosParams::from(FabricParams::office_lan());
            let bare = crate::LinkModel {
                bytes_per_second: p.local_bytes_per_second(),
                latency: p.rack_latency,
            };
            prop_assert!(p.local_transfer_time(bytes) >= bare.transfer_time(bytes));
        }
    }
}
