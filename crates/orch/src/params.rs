//! Named, validated orchestration parameters.
//!
//! Following "On Heuristic Models, Assumptions, and Parameters", every
//! assumption that shapes orchestration behaviour is named and documented
//! here rather than buried in the event loop. A value that some day,
//! example or benchmark varies is a field of [`OrchParams`]. A value that
//! none varies is a fixed, named assumption: `PROVISION_LATENCY`,
//! `FAILOVER_DETECTION_DELAY`, and the DR target
//! [`BackupTarget::default`](rvisor_snapshot::BackupTarget::default). A
//! run's report is only meaningful alongside the parameters that produced
//! it.

use std::num::{NonZeroU64, NonZeroUsize};

use rvisor_cluster::PlacementStrategy;
use rvisor_migrate::{PageCompression, MAX_MIGRATION_STREAMS};
use rvisor_net::FabricParams;
use rvisor_types::{ByteSize, Error, Nanoseconds, Result};

/// Smallest admissible [`OrchParams::guest_memory`]: the synthetic tenant
/// guest's fixed layout (code at 4 KiB, data at 32 KiB, identity markers up
/// to ~52 KiB) must fit with headroom.
pub const MIN_GUEST_MEMORY: ByteSize = ByteSize::kib(64);

/// Fixed latency charged for provisioning a VM once capacity is found
/// (template clone + boot), added to every placement latency.
pub(crate) const PROVISION_LATENCY: Nanoseconds = Nanoseconds::from_secs(45);

/// Delay between a host failing and the orchestrator noticing (failover
/// detection: missed heartbeats, confirmation probes). The serial restore
/// pipeline for the host's casualties starts after it.
pub(crate) const FAILOVER_DETECTION_DELAY: Nanoseconds = Nanoseconds::from_secs(30);

/// How much of each VM is actually simulated: the **fidelity dial**.
///
/// The model behind [`OnDemand`](VmFidelity::OnDemand) and its validity
/// conditions are documented in the crate-level docs ("The fidelity dial").
/// The short version: a VM the orchestrator has never migrated or restored
/// is still in its *canonical deploy state* (tenant guests only execute
/// during migration rounds), so it can be represented by an integer-only
/// statistical stand-in and *materialized* into a full `Vmm` stack — with
/// deterministically seeded guest pages — the moment an event actually
/// touches its memory. Every observable number (backup bytes, migration
/// traffic, report fields) is identical under both settings; a proptest
/// pins `Full == OnDemand` day reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VmFidelity {
    /// Every VM is backed by a live [`rvisor::Vmm`] guest from the moment it
    /// is deployed (the pre-dial behaviour; the reference semantics).
    #[default]
    Full,
    /// VMs start as cheap integer-accounting models and are materialized
    /// into full guests only when a migration or DR restore touches them.
    /// Required for warehouse-scale days (10k hosts / 100k+ VMs).
    OnDemand,
}

/// Which migration engine rebalance migrations should use: the selector
/// for [`OrchParams::engine`]. An explicit choice names the
/// [`PlanEngine`](rvisor_migrate::PlanEngine) every migration rides;
/// [`Auto`](EngineChoice::Auto) leaves it to the planner, per migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineChoice {
    /// Pause, copy, resume (cold migration).
    StopAndCopy,
    /// Iterative pre-copy (the default live migration).
    #[default]
    PreCopy,
    /// Post-copy with demand paging.
    PostCopy,
    /// Let the orchestrator's `MigrationPlanner` pick the engine (and the
    /// whole [`rvisor_migrate::MigrationPlan`]) per migration from observed
    /// dirty rate, guest size and fabric occupancy.
    Auto,
}

/// The network topology a cluster's fabric is built with.
///
/// [`SingleSpine`](FabricTopology::SingleSpine) is the PR 4 worst case —
/// one shared backbone, every pair contends — and stays the default so
/// existing runs replay unchanged. [`Clos`](FabricTopology::Clos) builds a
/// two-tier [`rvisor_net::ClosFabric`]: hosts are assigned to `racks`
/// contiguously, the DR endpoint gets its own extra rack (backup traffic
/// crosses the spine tier instead of a global backbone), and striped
/// migrations spread ECMP-style over the spines. NIC rate, MTU, chunk
/// overhead and the rack-local latency come from [`OrchParams::fabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FabricTopology {
    /// One shared backbone: the one-rack preset built from
    /// [`OrchParams::fabric`], the DR endpoint in the same rack.
    #[default]
    SingleSpine,
    /// A two-tier leaf/spine Clos fabric.
    Clos {
        /// Number of racks hosts are spread over (the DR endpoint adds one
        /// more rack of its own).
        racks: usize,
        /// Number of independent spine switches.
        spines: usize,
        /// Capacity of each rack's leaf switch, bytes per second.
        leaf_uplink_bytes_per_second: u64,
        /// Capacity of one spine path, bytes per second.
        spine_bytes_per_second: u64,
        /// One-way latency for cross-rack transfers (rack-local transfers
        /// pay [`OrchParams::fabric`]'s latency).
        cross_rack_latency: Nanoseconds,
    },
}

impl FabricTopology {
    /// Validate topology sanity (non-zero counts and bandwidths).
    pub(crate) fn validate(&self) -> Result<()> {
        match *self {
            FabricTopology::SingleSpine => Ok(()),
            FabricTopology::Clos {
                racks,
                spines,
                leaf_uplink_bytes_per_second,
                spine_bytes_per_second,
                ..
            } => {
                if racks == 0 {
                    return Err(Error::Config(
                        "Clos topology needs at least one rack".into(),
                    ));
                }
                if spines == 0 {
                    return Err(Error::Config(
                        "Clos topology needs at least one spine".into(),
                    ));
                }
                if leaf_uplink_bytes_per_second == 0 || spine_bytes_per_second == 0 {
                    return Err(Error::Config(
                        "Clos leaf and spine bandwidths must be non-zero".into(),
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Every tunable of an orchestrator run, with production-flavoured defaults.
#[derive(Debug, Clone, Copy)]
pub struct OrchParams {
    /// How arriving VMs are assigned to hosts.
    pub placement: PlacementStrategy,
    /// Engine selector for policy-driven rebalancing migrations of running
    /// VMs, including [`EngineChoice::Auto`] for the adaptive per-migration
    /// planner. `None` means pre-copy, the live-migration default.
    pub engine: Option<EngineChoice>,
    /// Page compression applied to rebalance migrations when the engine
    /// choice is static (a planner decides compression per migration under
    /// [`EngineChoice::Auto`]).
    pub migration_compression: PageCompression,
    /// Parallel streams per rebalance migration (at most
    /// [`rvisor_migrate::MAX_MIGRATION_STREAMS`]): one stripe lane each,
    /// modelled as fair-share chunk streams
    /// ([`rvisor_net::ClosFabric::transfer_striped`]) with the payload bytes
    /// and destination memory of one stream. On the default
    /// [`FabricTopology::SingleSpine`] fabric this is never *faster* in
    /// simulated time (each stream pays its own MTU framing); on a
    /// multi-spine [`FabricTopology::Clos`] fabric the streams ECMP-spread
    /// over independent spine paths and cross-rack migrations genuinely
    /// complete earlier.
    pub migration_streams: NonZeroUsize,
    /// Interval between rebalance-policy evaluations.
    pub rebalance_interval: Nanoseconds,
    /// A host above this CPU utilization (fraction of cores) is overloaded
    /// and becomes a migration source for the threshold/spread policies.
    pub overload_cpu_threshold: f64,
    /// A host below this CPU utilization is a consolidation candidate.
    pub underload_cpu_threshold: f64,
    /// Upper bound on migrations started per rebalance tick (keeps one tick
    /// from saturating the migration link for the rest of the day).
    pub max_migrations_per_tick: usize,
    /// The spread policy migrates only while the CPU-utilization gap between
    /// the most- and least-loaded powered hosts exceeds this fraction
    /// (hysteresis; prevents migration ping-pong).
    pub spread_utilization_gap: f64,
    /// Interval between DR backup sweeps. Backups are written to, and
    /// restores read from, the DR target
    /// [`BackupTarget::default`](rvisor_snapshot::BackupTarget::default).
    pub backup_interval: Nanoseconds,
    /// The fidelity dial: whether every VM carries a live guest from deploy
    /// ([`VmFidelity::Full`]) or starts as a statistical model materialized
    /// on first touch ([`VmFidelity::OnDemand`]). Reports are `==` under
    /// both settings; only memory/CPU cost differs.
    pub fidelity: VmFidelity,
    /// Actual guest RAM given to each simulated VM. Capacity *accounting*
    /// uses the VmSpec's configured memory; the live guest is scaled down so
    /// a 500-VM datacenter fits in the harness' memory. Explicitly named so
    /// nobody mistakes the simulation scale for the accounting scale.
    pub guest_memory: ByteSize,
    /// The shared migration/DR network fabric: per-host NIC capacity, one
    /// shared backbone, MTU chunking. Every rebalance migration and every
    /// DR backup stream crosses (and contends on) this fabric, so migration
    /// duration and downtime come from modelled bytes-on-wire.
    pub fabric: FabricParams,
    /// The fabric's topology: the default single shared backbone, or a
    /// two-tier Clos with rack-aware placement and ECMP-striped cross-rack
    /// migration.
    pub topology: FabricTopology,
    /// If set, one tenant in this many (chosen by the FNV identity hash of
    /// the VM name, so the population mix is a pure function of the names)
    /// is provisioned with a write-heavy guest workload instead of the idle
    /// loop: during migration rounds it re-dirties its data pages, giving
    /// the VMM's running-VM dirtier a nonzero rate to observe and the
    /// adaptive [`EngineChoice::Auto`] planner a dirty-hot class to route
    /// to the post-copy fault lane (the E22 day uses `4`). `None` (the
    /// default) provisions every tenant idle, which keeps multi-round
    /// re-dirtying out of migrations — the E19 stream-count invariance on
    /// the single-spine fabric relies on that.
    pub hot_tenant_modulus: Option<NonZeroU64>,
    /// Content-addressed, deduplicated DR. When on, hourly backups ship
    /// every unique page once: each sweep captures a full epoch only on a
    /// VM's first backup (or after a restore or migration resets the chain)
    /// and an incremental epoch otherwise, the DR endpoint stores pages as
    /// refcounted chunks keyed by content fingerprint, and the fabric is
    /// charged `dedup_backup_wire_bytes`: a `ChunkData` frame per *novel*
    /// page and a small `ChunkRef` frame per deduplicated one (no frame is
    /// encoded; a test-only encoder pins the figure). Restore applies the
    /// manifest chain and is byte-identical to the plain path. Off (the
    /// default) keeps every existing day bit-identical to its pre-dedup
    /// replay.
    ///
    /// The switch selects only the capture and the store each epoch goes
    /// into. Both modes share one per-VM DR lifecycle — when an epoch
    /// becomes restorable, what a new full supersedes, what a host failure
    /// or a departure retires — and the plain mode is that lifecycle with
    /// only full epochs.
    pub dedup_backups: bool,
}

impl Default for OrchParams {
    fn default() -> Self {
        OrchParams {
            placement: PlacementStrategy::FirstFitDecreasing,
            engine: None,
            migration_compression: PageCompression::None,
            migration_streams: NonZeroUsize::MIN,
            rebalance_interval: Nanoseconds::from_secs(5 * 60),
            overload_cpu_threshold: 0.85,
            underload_cpu_threshold: 0.25,
            max_migrations_per_tick: 4,
            spread_utilization_gap: 0.20,
            backup_interval: Nanoseconds::from_secs(3600),
            fidelity: VmFidelity::Full,
            guest_memory: ByteSize::kib(256),
            fabric: FabricParams::datacenter(),
            topology: FabricTopology::SingleSpine,
            hot_tenant_modulus: None,
            dedup_backups: false,
        }
    }
}

impl OrchParams {
    /// The engine selector in effect: [`OrchParams::engine`], pre-copy when
    /// it is unset.
    pub(crate) fn effective_engine(&self) -> EngineChoice {
        self.engine.unwrap_or_default()
    }

    /// Validate parameter sanity (thresholds ordered, intervals non-zero).
    pub(crate) fn validate(&self) -> Result<()> {
        if self.rebalance_interval == Nanoseconds::ZERO {
            return Err(Error::Config("rebalance_interval must be non-zero".into()));
        }
        if self.backup_interval == Nanoseconds::ZERO {
            return Err(Error::Config("backup_interval must be non-zero".into()));
        }
        if !(0.0..=1.0).contains(&self.underload_cpu_threshold)
            || self.overload_cpu_threshold.is_nan()
            || self.overload_cpu_threshold <= self.underload_cpu_threshold
        {
            return Err(Error::Config(format!(
                "thresholds must satisfy 0 <= underload ({}) < overload ({})",
                self.underload_cpu_threshold, self.overload_cpu_threshold
            )));
        }
        if !(0.0..=1.0).contains(&self.spread_utilization_gap) {
            return Err(Error::Config(
                "spread_utilization_gap must be within [0, 1]".into(),
            ));
        }
        if self.guest_memory < MIN_GUEST_MEMORY || !self.guest_memory.is_page_aligned() {
            return Err(Error::Config(format!(
                "guest_memory must be a page multiple of at least {MIN_GUEST_MEMORY} \
                 (the tenant workload layout must fit)"
            )));
        }
        if self.migration_streams.get() > MAX_MIGRATION_STREAMS {
            return Err(Error::Config(format!(
                "migration_streams must be at most {MAX_MIGRATION_STREAMS}, got {}",
                self.migration_streams
            )));
        }
        // The network fabric's own invariants (non-zero bandwidths, sane
        // MTU) are validated where they are defined.
        self.fabric.validate()?;
        self.topology.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        OrchParams::default().validate().unwrap();
    }

    #[test]
    fn bad_params_rejected() {
        let mut p = OrchParams {
            rebalance_interval: Nanoseconds::ZERO,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        p.rebalance_interval = Nanoseconds::from_secs(60);
        p.overload_cpu_threshold = 0.2;
        p.underload_cpu_threshold = 0.5;
        assert!(p.validate().is_err());
        p.underload_cpu_threshold = 0.2;
        // NaN compares false with everything: it must not pass as ordered.
        p.overload_cpu_threshold = f64::NAN;
        assert!(matches!(p.validate(), Err(Error::Config(_))));
        p.overload_cpu_threshold = 0.9;
        p.guest_memory = ByteSize::new(4097);
        assert!(p.validate().is_err());
        // Page-aligned but too small for the tenant workload layout.
        p.guest_memory = ByteSize::kib(16);
        assert!(p.validate().is_err());
        p.guest_memory = ByteSize::kib(256);
        p.migration_streams = NonZeroUsize::new(MAX_MIGRATION_STREAMS + 1).unwrap();
        assert!(p.validate().is_err());
        p.migration_streams = NonZeroUsize::new(4).unwrap();
        p.backup_interval = Nanoseconds::ZERO;
        assert!(p.validate().is_err());
        p.backup_interval = Nanoseconds::from_secs(3600);
        p.validate().unwrap();
        // Degenerate fabric parameters are rejected through OrchParams too.
        p.fabric.mtu = 0;
        assert!(p.validate().is_err());
        p.fabric = FabricParams::datacenter();
        p.fabric.nic_bytes_per_second = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn unset_engine_means_pre_copy() {
        assert_eq!(
            OrchParams::default().effective_engine(),
            EngineChoice::PreCopy
        );
        let auto = OrchParams {
            engine: Some(EngineChoice::Auto),
            ..Default::default()
        };
        assert_eq!(auto.effective_engine(), EngineChoice::Auto);
    }

    #[test]
    fn topology_validation() {
        assert!(FabricTopology::SingleSpine.validate().is_ok());
        let good = FabricTopology::Clos {
            racks: 4,
            spines: 2,
            leaf_uplink_bytes_per_second: 1,
            spine_bytes_per_second: 1,
            cross_rack_latency: Nanoseconds::from_micros(50),
        };
        assert!(good.validate().is_ok());
        for bad in [
            FabricTopology::Clos {
                racks: 0,
                spines: 2,
                leaf_uplink_bytes_per_second: 1,
                spine_bytes_per_second: 1,
                cross_rack_latency: Nanoseconds::ZERO,
            },
            FabricTopology::Clos {
                racks: 4,
                spines: 0,
                leaf_uplink_bytes_per_second: 1,
                spine_bytes_per_second: 1,
                cross_rack_latency: Nanoseconds::ZERO,
            },
            FabricTopology::Clos {
                racks: 4,
                spines: 2,
                leaf_uplink_bytes_per_second: 0,
                spine_bytes_per_second: 1,
                cross_rack_latency: Nanoseconds::ZERO,
            },
            FabricTopology::Clos {
                racks: 4,
                spines: 2,
                leaf_uplink_bytes_per_second: 1,
                spine_bytes_per_second: 0,
                cross_rack_latency: Nanoseconds::ZERO,
            },
        ] {
            assert!(bad.validate().is_err());
            let p = OrchParams {
                topology: bad,
                ..Default::default()
            };
            assert!(p.validate().is_err());
        }
    }
}
