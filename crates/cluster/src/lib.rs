//! # rvisor-cluster
//!
//! The fleet-level substrate: physical hosts, virtual-machine resource
//! specifications, the consolidation planner that packs VMs onto hosts, the
//! power/cooling cost model, and template-based provisioning.
//!
//! This crate is where the operational claims of the source material live as
//! executable experiments:
//!
//! * consolidation ratio of 3–4 virtual servers per physical host (E7),
//! * roughly 200–250 € per virtualized server per year in power and cooling,
//!   ~10 k€/year across a 50-VM estate (E8),
//! * template provisioning is orders of magnitude faster than a full
//!   install / full image copy (E9).
//!
//! Two further fleet-level models extend the evaluation:
//!
//! * [`numa`] — NUMA topologies and NUMA-aware placement, quantifying the
//!   locality/balance trade-off of packing vs interleaving (E13),
//! * [`vdi`] — Virtual Desktop Infrastructure density estimation combining
//!   page sharing, ballooning and CPU oversubscription (E12), the source
//!   material's stated next step.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cost;
pub mod host;
pub mod numa;
pub mod placement;
pub mod provision;
pub mod vdi;
pub mod vmspec;

pub use cost::{CostModel, CostReport};
pub use host::{Host, HostSpec};
pub use numa::{NumaHost, NumaNode, NumaPlacement, NumaPolicy, NumaTopology};
pub use placement::{ConsolidationPlan, ConsolidationPlanner, PlacementStrategy};
pub use provision::{Provisioner, ProvisioningReport};
pub use vdi::{DensityLimit, DesktopProfile, VdiConfig, VdiDensityReport, VdiEstimator};
pub use vmspec::{ServerRole, VmSpec};
