//! # rvisor-orch
//!
//! A deterministic discrete-event **datacenter orchestrator**: the layer
//! that plays a whole cluster *over time* — VMs arriving and departing,
//! hosts saturating and failing, migrations and disaster-recovery restores
//! firing in response — by driving the real per-host stacks the rest of the
//! workspace provides.
//!
//! ## The event model
//!
//! Simulation state advances only when an [`OrchEvent`] fires. A day reads
//! its events from four sources that are each already in time order: the
//! [`Scenario`]'s event list (refused with a config error unless it is
//! time-sorted and ends inside `config.duration`), the rebalance ticks, the
//! backup ticks, and an [`EventQueue`] keyed by `(Nanoseconds, sequence)`
//! that holds the restore completions failure handling schedules mid-run.
//! Each step fires the earliest head. Same-instant events fire scenario
//! first, then the rebalance tick, the backup tick and the queued
//! completions (FIFO among themselves), so a tick sees the load that
//! arrived with it. That fixed order is what makes a run a pure function of
//! its inputs — the same [`Scenario`] seed, [`OrchParams`] and policy always
//! produce an `==`-equal [`OrchReport`].
//!
//! *Scenario events* come from the deterministic workload generator
//! ([`Scenario::generate`], three named shapes: steady-state, diurnal wave,
//! flash crowd):
//!
//! * [`OrchEvent::VmArrival`] — place via the configured
//!   [`PlacementStrategy`](rvisor_cluster::PlacementStrategy), deferring to
//!   a pending queue when the cluster is full (the wait is the *placement
//!   latency* SLA metric).
//! * [`OrchEvent::VmDeparture`] / [`OrchEvent::LoadChange`] — tenant churn;
//!   load changes update the capacity accounting the policies read.
//! * [`OrchEvent::HostFailure`] — a host dies with everything on it; after
//!   the [`FAILOVER_DETECTION_DELAY`] the orchestrator restores every
//!   backed-up casualty from its newest arrived DR epoch onto surviving
//!   capacity (the outage per VM is the *VM-time-lost* SLA metric).
//!
//! *Internal events* are scheduled by the orchestrator itself: periodic
//! [`OrchEvent::RebalanceTick`] / [`OrchEvent::BackupTick`] and deferred
//! [`OrchEvent::RestoreComplete`] completions.
//!
//! ## The policy model
//!
//! On every rebalance tick the orchestrator hands the cluster to its
//! [`RebalancePolicy`], which returns a [`RebalancePlan`] — migrations plus
//! power actions — that the orchestrator then executes through
//! [`Vmm::migrate_to`](rvisor::Vmm::migrate_to) (engine per
//! decision: pre-copy/post-copy for running guests, stop-and-copy
//! otherwise) and the cluster power controls. Migrations stream in the
//! wire format across a shared [`ClosFabric`](rvisor_net::ClosFabric) —
//! per-host NICs, MTU chunking ([`OrchParams::fabric`]), and either one
//! backbone (the default single-spine preset) or a leaf/spine Clos
//! ([`OrchParams::topology`]) — and DR backup sweeps cross the same
//! fabric to a dedicated DR endpoint, so
//! migration duration, downtime and backup lag all come from modelled
//! bytes-on-wire contention rather than free copies. Three policies ship: [`ThresholdRebalance`]
//! (hotspot relief), [`ConsolidateAndPowerDown`] (energy), and
//! [`SpreadRebalance`] (balance). Every knob they read — thresholds,
//! intervals, caps — is a named field of [`OrchParams`], per the "no
//! constants buried in the loop" rule; the fixed values no run varies
//! ([`PROVISION_LATENCY`], [`FAILOVER_DETECTION_DELAY`]) are named
//! assumptions too, documented constants beside it.
//!
//! ## Disaster recovery
//!
//! Every [`OrchEvent::BackupTick`] streams one epoch per VM to the DR
//! endpoint: a full snapshot into a
//! [`SnapshotStore`](rvisor_snapshot::SnapshotStore) by default, or, with
//! [`OrchParams::dedup_backups`], a manifest in the content-addressed
//! [`CasStore`](rvisor_snapshot::CasStore) that ships only novel chunks.
//! That choice of capture is the only difference: a VM's epochs follow one
//! lifecycle in either store. An epoch is restorable once its stream has
//! arrived; a new full keeps the last arrived generation until its own
//! anchor arrives; a host failure restores the newest arrived epoch, and
//! bytes still on the wire die with the host; a departure or a loss for
//! good releases everything. The [`BackupHandle`] of an epoch names the
//! store it lives in.
//!
//! ## Scale vs. fidelity
//!
//! Capacity accounting uses real [`VmSpec`](rvisor_cluster::VmSpec) sizes
//! (GiBs), while each live guest is backed by
//! [`OrchParams::guest_memory`] of actual RAM so 500-VM days stay cheap;
//! migrations move and checksums protect *that* memory, so byte counts in
//! the report are simulation-scale.
//!
//! ### The fidelity dial
//!
//! At warehouse scale (10k hosts, 100k+ VMs per simulated day) even a
//! 64 KiB guest per VM is gigabytes of RAM that the simulation almost never
//! reads. [`OrchParams::fidelity`] dials how much of the stack each VM
//! carries:
//!
//! * [`VmFidelity::Full`] — every VM is a live guest under its host's
//!   [`Vmm`](rvisor::Vmm) from the moment it is placed, exactly as before.
//! * [`VmFidelity::OnDemand`] — a placed VM starts as a *statistical
//!   model*: its [`VmSpec`](rvisor_cluster::VmSpec) participates fully in
//!   capacity accounting, policy decisions and DR bookkeeping, but no guest
//!   memory, vCPUs or devices exist yet.
//!
//! The dial is invisible to every observable output. That rests on two
//! model assumptions the rest of the crate is built to preserve:
//!
//! 1. **Guests only execute during migration rounds.** A simulated tenant's
//!    workload never runs between events, so a model VM and an idle full VM
//!    are behaviourally identical until something touches guest state.
//! 2. **Deploy-time guest state is a pure function of the VM's name and
//!    params.** Materialization rebuilds byte-identical canonical guest
//!    pages (layout plus a deterministic per-name identity stamp), so a VM
//!    materialized at hour 19 equals one that was full all day.
//!
//! *Materialization triggers*: a migration touching the VM (the engine
//! needs real pages to move), and a DR restore onto a host (restores
//! produce live guests). Backups of model VMs do **not** materialize — a
//! canonical full-capture backup has a content-independent size, so the
//! orchestrator records identical bytes/wire-time and keeps a
//! [`BackupHandle::Canonical`] it can rehydrate into a real snapshot if a
//! restore ever needs it. Proptests pin a force-materialized day `==` a
//! dialed day, report for report.
//!
//! ### Indexed cluster state and sorted event sources
//!
//! The same scale target drives the data-structure choices. [`Cluster`]
//! maintains utilization-ordered host indexes so rebalance ticks and
//! placement scans touch candidate hosts instead of all 10k (policy
//! equivalence with the linear-scan originals is pinned by tests). The
//! event loop orders nothing that is already ordered: a warehouse day's
//! 330 000 scenario events and ticks are read off their sources as they
//! fire, and only the restore completions scheduled mid-run pass through
//! the [`EventQueue`]'s binary heap. VMs are
//! addressed by a dense key interned once per name, so the million-backup
//! sweeps of a warehouse day compare no strings (see the [`cluster`] docs).
//!
//! ```
//! use rvisor_orch::{
//!     run_datacenter, OrchParams, Scenario, ScenarioConfig, ThresholdRebalance, WorkloadShape,
//! };
//!
//! let scenario = Scenario::generate(
//!     ScenarioConfig::day(42, WorkloadShape::SteadyState, 4, 24).with_host_failures(1),
//! )
//! .unwrap();
//! let report = run_datacenter(
//!     4,
//!     OrchParams::default(),
//!     Box::new(ThresholdRebalance),
//!     &scenario,
//! )
//! .unwrap();
//! assert_eq!(report.vms_arrived, 24);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cluster;
mod dr;
pub mod event;
pub mod orchestrator;
pub mod params;
pub mod planner;
pub mod policy;
pub mod report;
pub mod scenario;
mod vmtable;

pub use cluster::{BackupHandle, Cluster, HostPower, OrchHost};
pub use event::{EventQueue, OrchEvent, Scheduled};
pub use orchestrator::{run_datacenter, run_datacenter_traced, Orchestrator};
pub use params::{
    EngineChoice, FabricTopology, OrchParams, VmFidelity, FAILOVER_DETECTION_DELAY,
    MIN_GUEST_MEMORY, PROVISION_LATENCY,
};
pub use planner::{MigrationPlanner, PlanChoice};
pub use policy::{
    ConsolidateAndPowerDown, DecisionReason, MigrationDecision, RebalancePlan, RebalancePolicy,
    SpreadRebalance, ThresholdRebalance,
};
pub use report::OrchReport;
pub use scenario::{Lcg, Scenario, ScenarioConfig, WorkloadShape};
