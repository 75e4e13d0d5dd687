//! # rvisor-net
//!
//! The virtual network substrate: Ethernet-style frames, a learning L2
//! switch connecting VM network endpoints, and bandwidth/latency link models.
//!
//! Two consumers drive the design:
//!
//! * **virtio-net** (`rvisor-virtio`) attaches each VM's NIC to a
//!   [`VirtualSwitch`] port and exchanges [`Frame`]s with its peers;
//! * **live migration** (`rvisor-migrate`) pushes memory pages through a
//!   [`Link`], whose bandwidth model determines round lengths and downtime —
//!   exactly the quantity experiment E4 sweeps, or through a shared
//!   [`ClosFabric`] when whole fleets contend for the network (experiment
//!   E17).
//!
//! ## The fabric model
//!
//! [`ClosFabric`] upgrades the private point-to-point [`Link`] to a shared
//! two-tier leaf/spine datacenter network: every endpoint owns a NIC of
//! [`ClosParams::nic_bytes_per_second`], racks of hosts sit behind leaf
//! switches of [`ClosParams::leaf_uplink_bytes_per_second`], the leaves are
//! connected by [`ClosParams::spines`] independent spine paths, and payloads
//! are chunked into [`ClosParams::mtu`]-sized packets each paying
//! [`ClosParams::chunk_overhead`] bytes of framing. Striped transfers hash
//! their streams ECMP-style across the live spines, so cross-rack
//! multi-stream migration genuinely completes earlier in simulated time,
//! while rack-local traffic skips the spine tier entirely. Timing is pure
//! integer-nanosecond arithmetic over busy-until marks, so orchestrator runs
//! over a fabric replay `==`-identically.
//!
//! The worst-case single-spine fabric — every NIC feeding one backbone of
//! [`FabricParams::backbone_bytes_per_second`] — is the one-rack preset
//! `ClosParams::from(FabricParams)`. Its assumptions (single-spine
//! contention, store-and-forward occupancy, once-per-burst latency) are
//! documented on the [`fabric`] module with the parameter that controls
//! each, and a closed-form single-spine oracle pins the preset.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod clos;
pub mod fabric;
pub mod frame;
pub mod link;
pub mod switch;

pub use clos::{ClosFabric, ClosParams};
pub use fabric::{Fabric, FabricParams, DEFAULT_CHUNK_OVERHEAD};
pub use frame::{Frame, MacAddr, ETHERTYPE_IPV4};
pub use link::{Link, LinkModel};
pub use switch::{SwitchPort, SwitchStats, VirtualSwitch};
