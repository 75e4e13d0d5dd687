//! The cluster: per-host [`Vmm`] stacks plus indexed capacity accounting.
//!
//! Each [`OrchHost`] is the one record of a physical machine: its
//! [`HostSpec`], the VMs placed on it (each key with its [`VmSpec`], in
//! placement order — what the placement and rebalance policies reason
//! about), the committed `Capacity` of those specs, and a live [`Vmm`]
//! holding real guest-memory-backed VMs (what migrations, snapshots and DR
//! restores actually operate on).
//!
//! The accounting scale and the simulation scale differ deliberately: specs
//! speak in GiBs of configured RAM, while each live guest gets
//! [`OrchParams::guest_memory`](crate::OrchParams::guest_memory) of real
//! backing so a 500-VM datacenter stays tractable. All byte-counted results
//! (migration traffic, backup sizes) are therefore in *simulation-scale*
//! bytes.
//!
//! # Indexed state
//!
//! **VMs are addressed by key, not by name.** The cluster owns the VM
//! table (`vmtable.rs`): a name is interned to a dense `VmKey` the first
//! time it is seen — when the orchestrator seeds a day's events, or when
//! [`Cluster::deploy`] / [`Cluster::restore`] first meet it — and one record
//! per key holds that VM's state (absent, waiting for capacity, placed on a
//! host as a model or a live guest, being restored) and its DR backups.
//! Every `&str` method resolves the name once and calls the key path; the
//! orchestrator resolves each event once and passes keys. A key is never
//! reused and outlives the VM's departure (the record goes back to absent
//! with no DR state), so a re-arriving name gets the same key and nothing
//! of its previous life.
//!
//! One record, one state: "each VM is on exactly one live host, pending,
//! being restored, or gone" — the legitimate configuration failure handling
//! must always return to — cannot be broken by maps drifting apart. Each
//! [`OrchHost`] lists its VMs as `(key, spec)` pairs; `place_spec` /
//! `evict_spec` alone edit that list, the record and the host's
//! `Capacity`, and backup sweeps walk hosts → keys → records.
//!
//! The cluster keeps one ordered index over its hosts, `by_util`: the
//! powered-on hosts ordered by `(cpu-utilization, id)`, the backbone of
//! `Spread` placement and of incremental policy evaluation. Beside it,
//! `by_id` maps host ids to positions and `rack_vms` counts the VMs per
//! rack for rack-aware `Spread`. `OnePerHost` placement, the answer that
//! nothing fits and the lookup of a parked host to wake scan the host
//! vector instead: no benchmark day makes those queries (both place every
//! VM on arrival and take no power action), so an index for them would
//! only cost every placement, eviction and load change an update.
//!
//! A host's committed CPU is *bit-identical* to the left fold of its
//! placed demands in placement order — the sum `rvisor-cluster`'s own
//! accounting computes over the same specs, which the tests check it
//! against. Placing a spec extends the fold by exactly one term (so `+=`
//! is exact), while evictions and demand changes re-fold the list outright
//! (float addition is not associative). Committed memory is an integer
//! sum, kept by `+=` / `-=`. Every utilization a policy observes is
//! therefore exactly the number the un-indexed implementation produced;
//! the rebalance planner reads the same `Capacity` value and shadows it by
//! copy.
//!
//! Utilizations are keyed in the ordered set by their IEEE-754 bit
//! patterns — valid because they are non-negative and never NaN, where bit
//! order coincides with numeric order.
//!
//! # The fidelity dial
//!
//! Under [`VmFidelity::OnDemand`] a deployed VM starts as a model — its
//! spec on the host, no guest pages — and is *materialized* into a
//! full [`Vmm`] stack only when a migration or restore touches its memory.
//! This is sound because canonical tenant state is deterministic (see
//! `provision_canonical`) and tenant guests only execute during migration
//! rounds: a VM materialized at time T holds exactly the state a
//! full-fidelity twin deployed at arrival would still hold at T. Backups of
//! still-modeled VMs are represented by [`BackupHandle::Canonical`] and cost
//! the same modelled bytes/time as a real snapshot stream, because full
//! snapshot size is content-independent (every page is captured).

use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroU64;

use rvisor::{Vm, VmConfig, VmLifecycle, Vmm};
use rvisor_cluster::{HostSpec, PlacementStrategy, VmSpec};
use rvisor_migrate::{FabricTransport, MigrationPlan, MigrationReport};
use rvisor_net::{ClosFabric, ClosParams};
use rvisor_obs::{ArgValue, Trace};
use rvisor_snapshot::{CasStore, IngestStats, ManifestId, SnapshotId, SnapshotStore};
use rvisor_types::{ByteSize, Error, GuestAddress, HostId, Nanoseconds, Result, PAGE_SIZE};
use rvisor_vcpu::{Workload, WorkloadKind};

use crate::params::{OrchParams, VmFidelity};
use crate::vmtable::{fnv1a, Guest, VmKey, VmState, VmTable, FNV_BASIS};

/// Guest code entry point for the synthetic tenant workload.
const TENANT_ENTRY: u64 = 0x1000;
/// Data area of the synthetic tenant workload (kept low so tiny guests fit).
const TENANT_DATA_BASE: u64 = 0x8000;
/// First page where per-VM identity markers are written.
const MARKER_BASE: u64 = 0xa000;
/// Idle wakeups budgeted per tenant guest; enough simulated "uptime" to
/// survive a day of migration rounds without the guest halting.
const TENANT_WAKEUPS: u64 = 1_000_000;

/// Order-preserving integer key for a non-NaN `f64` (the usual IEEE-754
/// total-order trick: flip all bits of negatives, set the sign bit of
/// non-negatives). Cluster utilizations are never negative, but policy
/// shadows can carry tiny negative residues from incremental subtraction,
/// and both must sort in one key space.
pub(crate) fn util_key(value: f64) -> u64 {
    debug_assert!(!value.is_nan());
    // Collapse -0.0 (the empty `f64` sum identity) onto +0.0: IEEE
    // comparison calls them equal, so the key space must too or index
    // extremes would order empty hosts differently from a `partial_cmp`
    // scan.
    let value = if value == 0.0 { 0.0 } else { value };
    let bits = value.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Inverse of [`util_key`].
pub(crate) fn key_util(key: u64) -> f64 {
    let bits = if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    };
    f64::from_bits(bits)
}

/// FNV-1a hash of a VM name: the per-VM identity stamp written into guest
/// memory at deploy/materialization time.
fn identity_stamp(name: &str) -> u64 {
    fnv1a(FNV_BASIS, name.as_bytes())
}

/// Load the canonical tenant state into a freshly created VM: the idle
/// workload at the fixed layout plus four FNV-stamped identity pages.
///
/// This is the *only* way guest content enters the cluster, which is what
/// makes on-demand materialization sound: the state is a pure function of
/// the VM's name and the configured guest memory, so a VM materialized late
/// is bit-identical to one provisioned at arrival (tenant guests only
/// execute during migration rounds, never while parked on a host).
///
/// With `hot_modulus` set ([`OrchParams::hot_tenant_modulus`]), one tenant
/// in that many (chosen by the same FNV identity hash, so the population
/// mix is a pure function of the names) runs a write-heavy loop instead of
/// the idle loop: during migration rounds it re-dirties the two data pages
/// between [`TENANT_DATA_BASE`] and [`MARKER_BASE`], which is what gives
/// the VMM's running-VM dirtier a nonzero rate to observe and the adaptive
/// planner a dirty-hot class to route to the post-copy fault lane. Both
/// workload images fit one code page, so the canonical deploy state still
/// dirties exactly five pages either way.
fn provision_canonical(vm: &mut Vm, name: &str, hot_modulus: Option<NonZeroU64>) -> Result<()> {
    let hot = hot_modulus.is_some_and(|m| identity_stamp(name).is_multiple_of(m.get()));
    let kind = if hot {
        WorkloadKind::MemoryDirty {
            pages: (MARKER_BASE - TENANT_DATA_BASE) / PAGE_SIZE,
            passes: TENANT_WAKEUPS,
        }
    } else {
        WorkloadKind::Idle {
            wakeups: TENANT_WAKEUPS,
        }
    };
    let workload = Workload::with_layout(kind, TENANT_ENTRY, TENANT_DATA_BASE)?;
    vm.load_workload(&workload)?;
    // Stamp a per-VM identity so backups and migrations carry real,
    // distinguishable guest state (and dirty a few pages doing so).
    let stamp = identity_stamp(name);
    for k in 0..4u64 {
        vm.memory()
            .write_u64(GuestAddress(MARKER_BASE + k * PAGE_SIZE), stamp ^ k)?;
    }
    Ok(())
}

/// Power/health state of one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostPower {
    /// Powered and accepting placements.
    On,
    /// Consolidation policy powered it down; can be powered back on.
    Off,
    /// Failed; its VMs are gone and it stays dead for the rest of the run.
    Failed,
}

/// What a DR backup epoch points at. The variant names its store: a full
/// snapshot in the [`SnapshotStore`], a manifest in the [`CasStore`], or no
/// store at all for the canonical deploy state a still-modeled VM is known
/// to be in. Retiring, sizing and restoring an epoch dispatch on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackupHandle {
    /// A full snapshot captured from a live guest into the DR store.
    Stored(SnapshotId),
    /// The VM was still a statistical model when backed up: its state is
    /// the canonical deploy image, reconstructed bit-for-bit on restore.
    /// Same modelled size and wire time as a stored snapshot (full snapshot
    /// size is content-independent).
    Canonical,
    /// A backup epoch in the content-addressed DR store
    /// ([`OrchParams::dedup_backups`](crate::OrchParams::dedup_backups)):
    /// restore applies the manifest chain rooted at this epoch.
    Manifested(ManifestId),
}

/// Result of one deduplicated backup: the recorded epoch.
#[derive(Debug, Clone, Copy)]
pub struct DedupBackup {
    /// The manifest recorded in the content-addressed store.
    pub manifest: ManifestId,
}

/// One DR epoch as it left its host, from either capture: its handle, when
/// its stream arrives at the DR endpoint, the bytes charged to the fabric,
/// the bytes the DR target writes (the snapshot, or only the novel chunk
/// payloads) and the dedup accounting (zero for a full snapshot).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shipped {
    pub(crate) handle: BackupHandle,
    pub(crate) arrival: Nanoseconds,
    pub(crate) wire_bytes: u64,
    pub(crate) write_bytes: u64,
    pub(crate) stats: IngestStats,
}

/// The capacity figures of one host: installed cores and memory, and what
/// its placed VMs commit of each. The one definition of utilization and of
/// "fits" — the cluster keeps one per host and the rebalance planner shadows
/// copies of it, so both read the same numbers through the same predicate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Capacity {
    pub(crate) cores: f64,
    pub(crate) mem_capacity: u64,
    /// Bit-identical to the left fold of the placed demands (module docs).
    pub(crate) cpu_committed: f64,
    pub(crate) mem_committed: u64,
}

impl Capacity {
    /// CPU utilization as a fraction of physical cores.
    pub(crate) fn util(&self) -> f64 {
        self.cpu_committed / self.cores
    }

    /// Whether `demand` cores and `mem` bytes more fit.
    pub(crate) fn fits(&self, demand: f64, mem: u64) -> bool {
        self.fits_under(1.0, demand, mem)
    }

    /// Whether `demand` cores and `mem` bytes more fit with the CPU held to
    /// `bar` of the cores (`bar` = 1.0 is [`Self::fits`] exactly).
    pub(crate) fn fits_under(&self, bar: f64, demand: f64, mem: u64) -> bool {
        self.cpu_committed + demand <= self.cores * bar
            && self.mem_committed + mem <= self.mem_capacity
    }

    /// Commit `demand` cores and `mem` bytes more.
    pub(crate) fn add(&mut self, demand: f64, mem: u64) {
        self.cpu_committed += demand;
        self.mem_committed += mem;
    }
}

/// One physical machine: its spec, the VMs placed on it, their committed
/// capacity, and the live VMM.
#[derive(Debug)]
pub struct OrchHost {
    spec: HostSpec,
    vmm: Vmm,
    power: HostPower,
    /// The VMs placed here, in placement order (the fold order of
    /// `cap.cpu_committed`).
    vms: Vec<(VmKey, VmSpec)>,
    cap: Capacity,
}

impl OrchHost {
    fn new(spec: HostSpec) -> Self {
        let mut host = OrchHost {
            vmm: Vmm::new(&format!("host-{}", spec.id.raw())),
            power: HostPower::On,
            vms: Vec::new(),
            cap: Capacity {
                cores: spec.cores as f64,
                mem_capacity: spec.memory.as_u64(),
                cpu_committed: 0.0,
                mem_committed: 0,
            },
            spec,
        };
        // The empty `f64` sum is -0.0: start from the fold itself.
        host.refold_cpu();
        host
    }

    /// The host's identifier.
    pub(crate) fn id(&self) -> HostId {
        self.spec.id
    }

    /// Current power/health state.
    pub(crate) fn power(&self) -> HostPower {
        self.power
    }

    /// The live per-host VM manager.
    pub(crate) fn vmm(&self) -> &Vmm {
        &self.vmm
    }

    /// The VMs placed here, each key with its spec, in placement order.
    pub(crate) fn vms(&self) -> &[(VmKey, VmSpec)] {
        &self.vms
    }

    /// Installed and committed capacity.
    pub(crate) fn cap(&self) -> Capacity {
        self.cap
    }

    /// Index of `key` in `vms`.
    fn slot_of(&self, key: VmKey) -> usize {
        self.vms
            .iter()
            .position(|&(k, _)| k == key)
            .expect("a placed record's key is on the host it names")
    }

    /// Recompute the committed CPU as the left fold over `vms`.
    fn refold_cpu(&mut self) {
        self.cap.cpu_committed = self.vms.iter().map(|(_, s)| s.cpu_demand_cores).sum();
    }

    fn fits(&self, spec: &VmSpec) -> bool {
        self.cap.fits(spec.cpu_demand_cores, spec.memory.as_u64())
    }
}

fn no_such_vm(vm: &str) -> Error {
    Error::Config(format!("no VM named {vm} in the cluster"))
}

pub(crate) fn already_exists(vm: &str) -> Error {
    Error::Config(format!("a VM named {vm} already exists in the cluster"))
}

/// A datacenter: hosts sharing one migration/DR network fabric.
///
/// Every host is one fabric endpoint; one extra endpoint (index
/// `hosts.len()`) models the DR backup target, so backup streams and live
/// migrations contend for the same NICs, leaves and spines.
#[derive(Debug)]
pub struct Cluster {
    hosts: Vec<OrchHost>,
    fabric: ClosFabric,
    params: OrchParams,
    /// Racks the *hosts* are spread over (1 for the single-spine topology;
    /// excludes the DR endpoint's own rack).
    n_host_racks: usize,
    /// VMs currently placed per host rack (empty for the single-spine
    /// topology). Maintained inside [`Self::deindex`]/[`Self::index`], so
    /// it tracks every placement, eviction, migration and host failure.
    rack_vms: Vec<usize>,
    /// Host id → position in `hosts`.
    by_id: BTreeMap<HostId, usize>,
    /// Powered-on hosts ordered by `(utilization bits, id)`.
    by_util: BTreeSet<(u64, HostId)>,
    /// Every VM name seen so far, its key, state and DR slot. The
    /// orchestrator edits its own states (pending, restoring) and the DR
    /// slots here; placement is edited only by this module.
    pub(crate) vms: VmTable,
    /// VMs placed across all hosts.
    total_vms: usize,
    /// Lazily computed size of a canonical-state full snapshot (what a
    /// model VM's backup costs on the wire). Content-independent, so one
    /// probe against a scratch guest serves the whole run.
    canonical_backup_size: Option<ByteSize>,
    /// Observability plane: off by default, attached via [`Self::set_trace`].
    trace: Trace,
}

impl Cluster {
    /// Build a cluster of `host_specs` hosts, all powered on and empty.
    pub fn new(host_specs: Vec<HostSpec>, params: OrchParams) -> Result<Self> {
        params.validate()?;
        if host_specs.is_empty() {
            return Err(Error::Config("cluster needs at least one host".into()));
        }
        let hosts: Vec<OrchHost> = host_specs.into_iter().map(OrchHost::new).collect();
        let mut by_id = BTreeMap::new();
        for (pos, h) in hosts.iter().enumerate() {
            if by_id.insert(h.id(), pos).is_some() {
                return Err(Error::Config(format!("duplicate host id {}", h.id())));
            }
        }
        // One endpoint per host, plus the DR backup target.
        let (fabric, n_host_racks) = match params.topology {
            // The single-spine preset: one rack, the DR endpoint included.
            crate::FabricTopology::SingleSpine => {
                (ClosFabric::new(hosts.len() + 1, params.fabric)?, 1)
            }
            crate::FabricTopology::Clos {
                racks,
                spines,
                leaf_uplink_bytes_per_second,
                spine_bytes_per_second,
                cross_rack_latency,
            } => {
                // Hosts fill `racks` racks contiguously; the DR endpoint
                // gets its own extra rack so backup streams always cross
                // the spine tier (and never skew a host rack's leaf
                // occupancy) regardless of how evenly `racks` divides the
                // host count.
                let hosts_per_rack = hosts.len().div_ceil(racks).max(1);
                let clos_params = ClosParams {
                    racks: racks + 1,
                    hosts_per_rack,
                    leaf_uplink_bytes_per_second,
                    spines,
                    spine_bytes_per_second,
                    cross_latency: cross_rack_latency,
                    ..ClosParams::from(params.fabric)
                };
                let mut racks_of: Vec<usize> =
                    (0..hosts.len()).map(|pos| pos / hosts_per_rack).collect();
                racks_of.push(racks); // the DR endpoint's own rack
                (
                    ClosFabric::with_rack_assignment(clos_params, racks_of)?,
                    racks,
                )
            }
        };
        let rack_vms = if n_host_racks > 1 {
            vec![0; n_host_racks]
        } else {
            Vec::new()
        };
        let mut cluster = Cluster {
            hosts,
            fabric,
            params,
            n_host_racks,
            rack_vms,
            by_id,
            by_util: BTreeSet::new(),
            vms: VmTable::default(),
            total_vms: 0,
            canonical_backup_size: None,
            trace: Trace::off(),
        };
        for pos in 0..cluster.hosts.len() {
            cluster.index(pos);
        }
        Ok(cluster)
    }

    /// All hosts, in construction order.
    pub(crate) fn hosts(&self) -> &[OrchHost] {
        &self.hosts
    }

    /// The shared migration/DR fabric (the one-rack single-spine preset or
    /// a multi-rack Clos).
    pub(crate) fn fabric(&self) -> &ClosFabric {
        &self.fabric
    }

    /// Racks the hosts are spread over (1 for the single-spine topology;
    /// the DR endpoint's own rack is not counted).
    pub(crate) fn racks(&self) -> usize {
        self.n_host_racks
    }

    /// The rack of the host at `pos` in the host vector.
    pub(crate) fn rack_of_pos(&self, pos: usize) -> usize {
        self.fabric.rack_of(pos)
    }

    /// The rack `host` lives in, if it exists.
    pub(crate) fn rack_of_id(&self, host: HostId) -> Option<usize> {
        self.position_of(host).map(|pos| self.fabric.rack_of(pos))
    }

    /// VMs currently placed in `rack` (0 for the single-spine topology,
    /// which tracks no per-rack occupancy).
    fn rack_vm_count(&self, rack: usize) -> usize {
        self.rack_vms.get(rack).copied().unwrap_or(0)
    }

    /// Remove a spine from the fabric; see
    /// [`rvisor_net::ClosFabric::fail_spine`]. The single-spine topology
    /// always refuses (it would partition).
    pub(crate) fn fail_spine(&mut self, spine: usize) -> Result<()> {
        self.fabric.fail_spine(spine)
    }

    /// Attach a trace to the cluster and its fabric: migrations, backups
    /// and fabric transfers emit spans keyed by simulated time. With
    /// [`Trace::off`] (the default) every emit compiles down to a branch.
    pub(crate) fn set_trace(&mut self, trace: Trace) {
        self.fabric.set_trace(trace.clone());
        self.trace = trace;
    }

    /// The fabric endpoint index of the DR backup target.
    fn dr_endpoint(&self) -> usize {
        self.hosts.len()
    }

    /// Number of hosts currently powered on.
    pub(crate) fn powered_on(&self) -> usize {
        self.by_util.len()
    }

    /// Total VMs placed across hosts.
    pub(crate) fn total_vms(&self) -> usize {
        self.total_vms
    }

    /// Whether the named VM is still a statistical model on the host at `pos`.
    pub(crate) fn is_model_at(&self, pos: usize, vm: &str) -> bool {
        matches!(self.placement_of(vm), Some((p, Guest::Model)) if p == pos)
    }

    /// Resolve a name that must already be known.
    fn resolve(&self, vm: &str) -> Result<VmKey> {
        self.vms.lookup(vm).ok_or_else(|| no_such_vm(vm))
    }

    /// Host position and backing of the named VM, if it is placed.
    fn placement_of(&self, vm: &str) -> Option<(usize, Guest)> {
        self.vms[self.vms.lookup(vm)?].placement()
    }

    /// Host position and backing of a VM that must be placed.
    fn placement(&self, key: VmKey) -> Result<(usize, Guest)> {
        let placed = self.vms[key].placement();
        placed.ok_or_else(|| no_such_vm(self.vms.name(key)))
    }

    fn set_placed(&mut self, key: VmKey, pos: usize, guest: Guest) {
        self.vms[key].state = VmState::Placed {
            host_pos: pos as u32,
            guest,
        };
    }

    fn position(&self, host: HostId) -> Result<usize> {
        self.by_id
            .get(&host)
            .copied()
            .ok_or(Error::UnknownHost(host))
    }

    /// Position of `host` in the host vector, if it exists.
    pub(crate) fn position_of(&self, host: HostId) -> Option<usize> {
        self.by_id.get(&host).copied()
    }

    /// The host at `position` (must be in range).
    pub(crate) fn host_at(&self, position: usize) -> &OrchHost {
        &self.hosts[position]
    }

    /// Powered-on hosts ordered by `(utilization bits, id)`.
    pub(crate) fn util_index(&self) -> &BTreeSet<(u64, HostId)> {
        &self.by_util
    }

    /// The first powered-off host in host-vector order (DR power-up).
    pub(crate) fn first_parked(&self) -> Option<HostId> {
        let parked = self.hosts.iter().find(|h| h.power == HostPower::Off);
        parked.map(|h| h.id())
    }

    /// Which host (if any) currently runs the named VM.
    pub fn host_of(&self, vm: &str) -> Option<HostId> {
        self.placement_of(vm).map(|(pos, _)| self.hosts[pos].id())
    }

    /// Remove `pos` from `by_util` and its VMs from `rack_vms`. Call before
    /// mutating the host's power, placement or committed figures; pair with
    /// [`Self::index`] after the mutation.
    fn deindex(&mut self, pos: usize) {
        let h = &self.hosts[pos];
        if !self.rack_vms.is_empty() {
            self.rack_vms[self.fabric.rack_of(pos)] -= h.vms.len();
        }
        if h.power == HostPower::On {
            self.by_util.remove(&self.util_entry(pos));
        }
    }

    /// The `by_util` entry of the host at `pos` (present while it is on).
    fn util_entry(&self, pos: usize) -> (u64, HostId) {
        let h = &self.hosts[pos];
        (util_key(h.cap.util()), h.id())
    }

    /// Re-insert `pos` into `by_util` and `rack_vms` from its current state.
    fn index(&mut self, pos: usize) {
        let h = &self.hosts[pos];
        if !self.rack_vms.is_empty() {
            self.rack_vms[self.fabric.rack_of(pos)] += h.vms.len();
        }
        if h.power == HostPower::On {
            self.by_util.insert(self.util_entry(pos));
        }
    }

    /// Place `key`'s `spec` on the host at `pos` as a model, if it fits.
    /// With [`Self::evict_spec`], the only code that edits a host's VM
    /// list: the list, the record, the capacity, the VM count and the
    /// indexes move together here.
    fn place_spec(&mut self, pos: usize, key: VmKey, spec: VmSpec) -> Result<()> {
        let h = &self.hosts[pos];
        if !h.fits(&spec) {
            return Err(Error::CapacityExceeded(format!(
                "{} does not fit on {} ({} committed of {} capacity)",
                spec.name,
                h.id(),
                ByteSize::new(h.cap.mem_committed),
                ByteSize::new(h.cap.mem_capacity)
            )));
        }
        self.deindex(pos);
        let h = &mut self.hosts[pos];
        // Appending extends the left-fold sum by exactly one term, so
        // incremental addition stays bit-identical.
        h.cap.add(spec.cpu_demand_cores, spec.memory.as_u64());
        h.vms.push((key, spec));
        self.set_placed(key, pos, Guest::Model);
        self.total_vms += 1;
        self.index(pos);
        Ok(())
    }

    /// Evict `key` from the host at `pos` (where its record says it is),
    /// leaving the record absent.
    fn evict_spec(&mut self, pos: usize, key: VmKey) -> VmSpec {
        self.deindex(pos);
        let h = &mut self.hosts[pos];
        let (_, spec) = h.vms.remove(h.slot_of(key));
        // Removal from the middle of the list reorders the fold, so
        // re-fold rather than subtract (float addition is not associative).
        h.refold_cpu();
        h.cap.mem_committed -= spec.memory.as_u64();
        self.vms[key].state = VmState::Absent;
        self.total_vms -= 1;
        self.index(pos);
        spec
    }

    /// Pick a powered-on host for `spec` under `strategy`.
    ///
    /// * `FirstFitDecreasing` — first host (host-vector order) with room:
    ///   packs.
    /// * `Spread` — the least CPU-utilized host with room: balances.
    /// * `OnePerHost` — the first *empty* host: the no-consolidation
    ///   baseline.
    ///
    /// `Spread` walks `by_util`, so it stops at the first fitting host in
    /// utilization order; the other two scan the host vector in order, each
    /// probe O(1) on the cached sums. `None` when no powered host fits.
    pub fn choose_host(&self, strategy: PlacementStrategy, spec: &VmSpec) -> Option<HostId> {
        let mut powered = self.hosts.iter().filter(|h| h.power == HostPower::On);
        match strategy {
            PlacementStrategy::FirstFitDecreasing => powered.find(|h| h.fits(spec)).map(|h| h.id()),
            PlacementStrategy::OnePerHost => powered
                .find(|h| h.vms.is_empty() && h.fits(spec))
                .map(|h| h.id()),
            PlacementStrategy::Spread if self.n_host_racks > 1 => {
                self.choose_spread_rack_aware(spec)
            }
            PlacementStrategy::Spread => self
                .by_util
                .iter()
                .map(|&(_, id)| &self.hosts[self.by_id[&id]])
                .find(|h| h.fits(spec))
                .map(|h| h.id()),
        }
    }

    /// `Spread` placement on a multi-rack topology: the least CPU-utilized
    /// fitting host, with ties in utilization broken by rack occupancy
    /// (emptiest rack first), then id — so equally-cold hosts fill rack by
    /// rack instead of clustering wherever ids sort first. On one rack this
    /// reduces to the plain `Spread` walk (the id tie-break is the set
    /// order), which is why the single-rack path above stays byte-identical.
    fn choose_spread_rack_aware(&self, spec: &VmSpec) -> Option<HostId> {
        let mut candidates = self.by_util.iter().peekable();
        while let Some(&(key, id)) = candidates.next() {
            let h = &self.hosts[self.by_id[&id]];
            if !h.fits(spec) {
                continue;
            }
            // First fitting host found; scan the rest of this utilization
            // key's run for a fitting host in an emptier rack.
            let mut best = (self.rack_vm_count(self.rack_of_pos(self.by_id[&id])), id);
            while let Some(&&(k2, id2)) = candidates.peek() {
                if k2 != key {
                    break;
                }
                candidates.next();
                let h2 = &self.hosts[self.by_id[&id2]];
                if h2.fits(spec) {
                    let cand = (self.rack_vm_count(self.rack_of_pos(self.by_id[&id2])), id2);
                    if cand < best {
                        best = cand;
                    }
                }
            }
            return Some(best.1);
        }
        None
    }

    /// Deploy a new VM for `spec` on `host` — a live guest under
    /// [`VmFidelity::Full`], a statistical model under
    /// [`VmFidelity::OnDemand`].
    pub fn deploy(&mut self, host: HostId, spec: VmSpec) -> Result<()> {
        let key = self.vms.intern(&spec.name);
        self.deploy_key(key, host, spec)
    }

    /// [`Self::deploy`] for a name already resolved to `key`.
    pub(crate) fn deploy_key(&mut self, key: VmKey, host: HostId, spec: VmSpec) -> Result<()> {
        debug_assert_eq!(self.vms.name(key), spec.name);
        let idx = self.powered_position(host)?;
        self.check_unplaced(key)?;
        self.place_spec(idx, key, spec)?;
        if self.params.fidelity == VmFidelity::Full {
            if let Err(e) = self.materialize_key(key) {
                self.evict_spec(idx, key);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Position of `host`, which must be powered on to take a VM.
    fn powered_position(&self, host: HostId) -> Result<usize> {
        let idx = self.position(host)?;
        if self.hosts[idx].power != HostPower::On {
            return Err(Error::Config(format!("{host} is not powered on")));
        }
        Ok(idx)
    }

    fn check_unplaced(&self, key: VmKey) -> Result<()> {
        match self.vms[key].placement() {
            Some(_) => Err(already_exists(self.vms.name(key))),
            None => Ok(()),
        }
    }

    /// Turn the placed VM behind `key` into a live canonical-state guest if
    /// it is still a model; returns its host position and guest id.
    fn materialize_key(&mut self, key: VmKey) -> Result<(usize, rvisor_types::VmId)> {
        let (idx, guest) = self.placement(key)?;
        if let Guest::Live(id) = guest {
            return Ok((idx, id));
        }
        let hot_modulus = self.params.hot_tenant_modulus;
        let name = self.vms.name(key);
        let config = VmConfig::new(name).with_memory(self.params.guest_memory);
        let id = self.hosts[idx]
            .vmm
            .create_vm_with(config, |vm| provision_canonical(vm, name, hot_modulus))?;
        self.set_placed(key, idx, Guest::Live(id));
        Ok((idx, id))
    }

    /// Destroy the named VM; returns the host it lived on and its spec.
    pub fn destroy(&mut self, vm: &str) -> Result<(HostId, VmSpec)> {
        self.destroy_key(self.resolve(vm)?)
    }

    /// [`Self::destroy`] by key.
    pub(crate) fn destroy_key(&mut self, key: VmKey) -> Result<(HostId, VmSpec)> {
        let (idx, guest) = self.placement(key)?;
        if let Guest::Live(id) = guest {
            self.hosts[idx].vmm.destroy_vm(id)?;
        }
        let spec = self.evict_spec(idx, key);
        Ok((self.hosts[idx].id(), spec))
    }

    /// Update the accounting CPU demand of the named VM (a load change).
    pub fn set_cpu_demand(&mut self, vm: &str, demand_cores: f64) -> Result<HostId> {
        self.set_cpu_demand_key(self.resolve(vm)?, demand_cores)
    }

    /// [`Self::set_cpu_demand`] by key.
    pub(crate) fn set_cpu_demand_key(&mut self, key: VmKey, demand_cores: f64) -> Result<HostId> {
        let (idx, _) = self.placement(key)?;
        // VM count and power (on: the host holds a VM) are untouched, so
        // only the host's `by_util` entry can move.
        self.by_util.remove(&self.util_entry(idx));
        let h = &mut self.hosts[idx];
        let slot = h.slot_of(key);
        h.vms[slot].1.cpu_demand_cores = demand_cores.max(0.0);
        // In-place mutation reorders nothing, but the fold must be
        // recomputed: replacing a term changes every partial sum after it.
        h.refold_cpu();
        self.by_util.insert(self.util_entry(idx));
        Ok(self.hosts[idx].id())
    }

    /// Size of a canonical-state full snapshot. Full snapshots capture
    /// every page regardless of content, so this is a pure function of the
    /// configured guest memory — probed once against a scratch guest.
    pub(crate) fn canonical_backup_size(&mut self) -> Result<ByteSize> {
        if let Some(size) = self.canonical_backup_size {
            return Ok(size);
        }
        let mut store = SnapshotStore::new();
        let mut probe = self.canonical_guest("canonical-size-probe")?;
        let id = probe.snapshot("canonical-size-probe", &mut store)?;
        let size = store
            .get(id)
            .map(|s| s.approx_size())
            .unwrap_or(ByteSize::ZERO);
        self.canonical_backup_size = Some(size);
        Ok(size)
    }

    /// A scratch guest in the canonical deploy state of `name`.
    fn canonical_guest(&self, name: &str) -> Result<Vm> {
        let mut vm = Vm::new(VmConfig::new(name).with_memory(self.params.guest_memory))?;
        provision_canonical(&mut vm, name, self.params.hot_tenant_modulus)?;
        Ok(vm)
    }

    /// Back up the named VM to the DR site as a full snapshot in `store`; a
    /// still-modeled VM yields [`BackupHandle::Canonical`] at the identical
    /// modelled size (and so wire time) without touching guest memory.
    ///
    /// Returns the handle, its size, and the instant the stream has fully
    /// arrived at the DR endpoint. Until then the backup is on the wire —
    /// callers must not restore from it.
    pub fn backup(
        &mut self,
        vm: &str,
        label: &str,
        store: &mut SnapshotStore,
        now: Nanoseconds,
    ) -> Result<(BackupHandle, ByteSize, Nanoseconds)> {
        let shipped = self.backup_key(self.resolve(vm)?, label, store, now)?;
        let size = ByteSize::new(shipped.wire_bytes);
        Ok((shipped.handle, size, shipped.arrival))
    }

    /// [`Self::backup`] by key (what the orchestrator's sweep calls).
    pub(crate) fn backup_key(
        &mut self,
        key: VmKey,
        label: &str,
        store: &mut SnapshotStore,
        now: Nanoseconds,
    ) -> Result<Shipped> {
        let (idx, guest) = self.placement(key)?;
        let (handle, size) = match guest {
            Guest::Live(id) => {
                let snap = self.hosts[idx].vmm.vm_mut(id)?.snapshot(label, store)?;
                let size = store
                    .get(snap)
                    .map(|s| s.approx_size())
                    .unwrap_or(ByteSize::ZERO);
                (BackupHandle::Stored(snap), size)
            }
            Guest::Model => (BackupHandle::Canonical, self.canonical_backup_size()?),
        };
        self.ship(key, idx, now, handle, size.as_u64(), IngestStats::default())
    }

    /// Back up the named VM to the DR site through the content-addressed
    /// store ([`OrchParams::dedup_backups`](crate::OrchParams::dedup_backups)).
    ///
    /// The epoch (full when `parent` is `None`, incremental otherwise) is
    /// ingested into `cas` straight from the paused guest's memory
    /// ([`Vm::backup_epoch`]): no snapshot is built, no page copied, and a
    /// page the guest's known-zero plane calls zero is not read. An epoch
    /// `cas` refuses (a missing parent, a chain at its length cap) fails
    /// before the guest's dirty bitmap is drained, so the next accepted
    /// epoch still carries those pages. No chunk frame is encoded: the
    /// fabric is charged [`rvisor_migrate::wire::dedup_backup_wire_bytes`],
    /// the size of a stream in which each *novel* chunk is a `ChunkData`
    /// frame and each deduplicated page a small `ChunkRef`, a figure a
    /// test-only encoder of those frames pins. A still-modeled VM
    /// participates through a scratch guest in the canonical deploy state,
    /// so its epoch is byte-identical to a materialized twin's. As with
    /// [`Self::backup`], the epoch is restorable only once it has arrived.
    pub fn backup_dedup(
        &mut self,
        vm: &str,
        label: &str,
        cas: &mut CasStore,
        parent: Option<ManifestId>,
        now: Nanoseconds,
    ) -> Result<DedupBackup> {
        let shipped = self.backup_dedup_key(self.resolve(vm)?, label, cas, parent, now)?;
        let BackupHandle::Manifested(manifest) = shipped.handle else {
            unreachable!("a content-addressed epoch names its manifest")
        };
        Ok(DedupBackup { manifest })
    }

    /// [`Self::backup_dedup`] by key.
    pub(crate) fn backup_dedup_key(
        &mut self,
        key: VmKey,
        label: &str,
        cas: &mut CasStore,
        parent: Option<ManifestId>,
        now: Nanoseconds,
    ) -> Result<Shipped> {
        let (idx, guest) = self.placement(key)?;
        let (manifest, stats, n_vcpus) = if let Guest::Live(id) = guest {
            let live = self.hosts[idx].vmm.vm_mut(id)?;
            let (manifest, stats) = live.backup_epoch(label, cas, parent)?;
            (manifest, stats, live.config().vcpus as usize)
        } else {
            // Model VM: rebuild the canonical deploy state it is known to
            // be in. Parked guests never execute, so an incremental epoch
            // on a model VM drains an *empty* dirty set — exactly what a
            // materialized twin parked since its last epoch would produce.
            let mut scratch = self.canonical_guest(self.vms.name(key))?;
            if parent.is_some() {
                scratch.memory().clear_dirty();
            }
            let (manifest, stats) = scratch.backup_epoch(label, cas, parent)?;
            (manifest, stats, scratch.config().vcpus as usize)
        };
        let wire_bytes = rvisor_migrate::wire::dedup_backup_wire_bytes(
            stats.chunks_novel,
            stats.chunks_deduped,
            n_vcpus,
        );
        let handle = BackupHandle::Manifested(manifest);
        self.ship(key, idx, now, handle, wire_bytes, stats)
    }

    /// The tail both captures share: stream the epoch's `wire_bytes` from
    /// the host at `idx` to the DR endpoint (contending with migrations on
    /// the shared fabric) and trace it; chunk counts are a manifest's alone.
    fn ship(
        &mut self,
        key: VmKey,
        idx: usize,
        now: Nanoseconds,
        handle: BackupHandle,
        wire_bytes: u64,
        stats: IngestStats,
    ) -> Result<Shipped> {
        let dr = self.dr_endpoint();
        let arrival = self.fabric.transfer(idx, dr, now, wire_bytes)?;
        let manifested = matches!(handle, BackupHandle::Manifested(_));
        if self.trace.is_on() {
            let lag = arrival.saturating_sub(now);
            let vm = ("vm", ArgValue::Str(self.vms.name(key)));
            let host = ("host", ArgValue::U64(idx as u64));
            let bytes = ("bytes", ArgValue::U64(wire_bytes));
            let lag_ns = ("lag_ns", ArgValue::U64(lag.as_nanos()));
            if manifested {
                let novel = ("chunks_novel", ArgValue::U64(stats.chunks_novel));
                let deduped = ("chunks_deduped", ArgValue::U64(stats.chunks_deduped));
                let args = [vm, host, bytes, novel, deduped, lag_ns];
                self.trace.span("dr", "backup", now, arrival, &args);
            } else {
                self.trace
                    .span("dr", "backup", now, arrival, &[vm, host, bytes, lag_ns]);
            }
            self.trace.observe("backup.lag_ns", lag.as_nanos());
            self.trace.observe("backup.bytes", wire_bytes);
            self.trace.add("backups", 1);
        }
        let write_bytes = if manifested {
            stats.bytes_novel
        } else {
            wire_bytes
        };
        Ok(Shipped {
            handle,
            arrival,
            wire_bytes,
            write_bytes,
            stats,
        })
    }

    /// Power a host back on (consolidation undo, or DR capacity).
    pub(crate) fn power_on(&mut self, host: HostId) -> Result<()> {
        let idx = self.position(host)?;
        match self.hosts[idx].power {
            HostPower::Off => {
                self.deindex(idx);
                self.hosts[idx].power = HostPower::On;
                self.index(idx);
                Ok(())
            }
            HostPower::On => Ok(()),
            HostPower::Failed => Err(Error::Config(format!("{host} has failed; cannot power on"))),
        }
    }

    /// Power an *empty* host off (idempotent for already-parked hosts;
    /// failed hosts are not power-manageable, matching [`Self::power_on`]).
    pub(crate) fn power_off(&mut self, host: HostId) -> Result<()> {
        let idx = self.position(host)?;
        let h = &self.hosts[idx];
        if h.power == HostPower::Failed {
            return Err(Error::Config(format!(
                "{host} has failed; cannot power off"
            )));
        }
        if !h.vms.is_empty() {
            return Err(Error::Config(format!(
                "{host} still hosts {} VMs",
                h.vms.len()
            )));
        }
        if h.power == HostPower::On {
            self.deindex(idx);
            self.hosts[idx].power = HostPower::Off;
            self.index(idx);
        }
        Ok(())
    }

    /// Fail a host abruptly. Every VM on it is lost; returns each lost spec
    /// with its key (placement order).
    pub(crate) fn fail_host_keyed(&mut self, host: HostId) -> Result<Vec<(VmKey, VmSpec)>> {
        let idx = self.position(host)?;
        let mut lost = Vec::with_capacity(self.hosts[idx].vms.len());
        while let Some(&(key, _)) = self.hosts[idx].vms.first() {
            lost.push((key, self.evict_spec(idx, key)));
        }
        self.deindex(idx);
        let h = &mut self.hosts[idx];
        // Drop the whole VMM: guest memory, switch, local snapshots — gone.
        h.vmm = Vmm::new(&format!("host-{}-dead", host.raw()));
        h.power = HostPower::Failed;
        self.index(idx);
        Ok(lost)
    }

    /// The dirty rate (bytes/second) last observed for the named VM during
    /// a pre-copy migration, if any. Still-modeled VMs have never been
    /// migrated, so they report `None` (the planner treats that as cold).
    pub(crate) fn observed_dirty_rate(&self, vm: &str) -> Option<u64> {
        match self.placement_of(vm)? {
            (idx, Guest::Live(id)) => self.hosts[idx].vmm.observed_dirty_rate(id),
            (_, Guest::Model) => None,
        }
    }

    /// The named VM's spec (accounting-scale) memory — the guest-size
    /// input to the adaptive migration planner.
    pub(crate) fn spec_memory_of(&self, vm: &str) -> Option<ByteSize> {
        let key = self.vms.lookup(vm)?;
        let (idx, _) = self.vms[key].placement()?;
        let host = &self.hosts[idx];
        Some(host.vms[host.slot_of(key)].1.memory)
    }

    /// Live-migrate the named VM from its current host to `to` the way
    /// `plan` says, starting no earlier than `now` (the caller's simulated
    /// clock) — the stream's fabric occupancy lands at the present, so it
    /// contends with every other migration and backup issued around the
    /// same instant.
    ///
    /// Migration touches guest memory, so a still-modeled VM is
    /// materialized first (and stays materialized ever after). The VM's
    /// next DR capture after a migration is a full one.
    pub fn migrate_planned(
        &mut self,
        vm: &str,
        to: HostId,
        plan: &MigrationPlan,
        now: Nanoseconds,
    ) -> Result<MigrationReport> {
        let key = self.resolve(vm)?;
        let (from_idx, _) = self.placement(key)?;
        let from = self.hosts[from_idx].id();
        if from == to {
            return Err(Error::Config(format!("{vm} is already on {to}")));
        }
        let to_idx = self.powered_position(to)?;
        let src = &self.hosts[from_idx];
        if !self.hosts[to_idx].fits(&src.vms[src.slot_of(key)].1) {
            return Err(Error::CapacityExceeded(format!(
                "{vm} does not fit on {to}"
            )));
        }
        // The migration is about to stream this VM's memory: materialize.
        let (_, vm_id) = self.materialize_key(key)?;
        // Where the stream will actually start once the fabric path frees
        // up — the span below reports the queueing ahead of the transfer.
        let queued_start = self.fabric.path_free_at(from_idx, to_idx)?.max(now);

        // The migration streams across the shared fabric between the two
        // hosts' endpoints; its busy-time marks are what make concurrent
        // rebalance migrations and DR backups queue behind each other.
        let (src, dst) = if from_idx < to_idx {
            let (l, r) = self.hosts.split_at_mut(to_idx);
            (&mut l[from_idx], &mut r[0])
        } else {
            let (l, r) = self.hosts.split_at_mut(from_idx);
            (&mut r[0], &mut l[to_idx])
        };
        let trace = self.trace.clone();
        let migrated = FabricTransport::starting_at(&mut self.fabric, from_idx, to_idx, now)
            .and_then(|mut transport| {
                src.vmm
                    .migrate_to(vm_id, &mut dst.vmm, &mut transport, plan, &trace)
            });
        // A failed migration returns here: no list, sum or index was
        // edited yet, so both hosts are indexed exactly as before the call.
        let (new_id, report) = migrated?;
        let spec = self.evict_spec(from_idx, key);
        self.place_spec(to_idx, key, spec)
            .expect("fits checked above");
        self.set_placed(key, to_idx, Guest::Live(new_id));
        // The destination guest's dirty bitmap does not track the VM's last
        // DR epoch: the sink marked every page it applied, zero runs
        // included, not the pages written since that epoch. Restart the
        // VM's chain with a full capture.
        self.vms[key].dr.force_full = true;
        if self.trace.is_on() {
            let end = queued_start.saturating_add(report.total_time);
            self.trace.span(
                "cluster",
                "migrate",
                now,
                end,
                &[
                    ("vm", ArgValue::Str(vm)),
                    ("from", ArgValue::U64(u64::from(from.raw()))),
                    ("to", ArgValue::U64(u64::from(to.raw()))),
                    ("engine", ArgValue::Str(report.kind.name())),
                    ("rounds", ArgValue::U64(u64::from(report.rounds))),
                    ("bytes", ArgValue::U64(report.bytes_transferred)),
                    ("downtime_ns", ArgValue::U64(report.downtime.as_nanos())),
                    (
                        "queue_wait_ns",
                        ArgValue::U64(queued_start.saturating_sub(now).as_nanos()),
                    ),
                ],
            );
            self.trace
                .observe("migration.bytes_on_wire", report.bytes_transferred);
        }
        Ok(report)
    }

    /// Recreate the named VM on `to` from a DR backup and resume it.
    ///
    /// A [`BackupHandle::Stored`] restores from the real snapshot in
    /// `store`; a [`BackupHandle::Canonical`] reconstructs the canonical
    /// snapshot the model backup stood for and restores through the exact
    /// same path, so both produce identical guest state.
    pub fn restore(
        &mut self,
        spec: &VmSpec,
        backup: BackupHandle,
        store: &SnapshotStore,
        to: HostId,
    ) -> Result<()> {
        let mut scratch = SnapshotStore::new();
        let (snap, store) = match backup {
            BackupHandle::Stored(snap) => (snap, store),
            // Rebuild the canonical snapshot this backup stood for.
            BackupHandle::Canonical => {
                let mut canonical = self.canonical_guest(&spec.name)?;
                (canonical.snapshot("canonical", &mut scratch)?, &scratch)
            }
            BackupHandle::Manifested(m) => {
                return Err(Error::Config(format!(
                    "{m} lives in the content-addressed store; use restore_manifested"
                )));
            }
        };
        self.restore_with(spec, to, |vm| vm.restore_snapshot(snap, store))
    }

    /// Recreate the named VM on `to` from a deduplicated DR epoch and
    /// resume it: the manifest chain rooted at `manifest` is applied to a
    /// fresh guest, byte-identical to restoring the same captures through
    /// [`Self::restore`].
    pub fn restore_manifested(
        &mut self,
        spec: &VmSpec,
        manifest: ManifestId,
        cas: &CasStore,
        to: HostId,
    ) -> Result<()> {
        self.restore_with(spec, to, |vm| vm.restore_from_cas(manifest, cas))
    }

    /// The part both restores share: place `spec` on `to`, build a guest in
    /// that host's VMM, let `restore` write the backup into it, resume it
    /// and make the VM live — or evict the spec again on any error.
    fn restore_with(
        &mut self,
        spec: &VmSpec,
        to: HostId,
        restore: impl FnOnce(&mut Vm) -> Result<()>,
    ) -> Result<()> {
        let idx = self.powered_position(to)?;
        let key = self.vms.intern(&spec.name);
        self.check_unplaced(key)?;
        self.place_spec(idx, key, spec.clone())?;
        let config = VmConfig::new(&spec.name).with_memory(self.params.guest_memory);
        let created = self.hosts[idx].vmm.create_vm_with(config, |vm| {
            restore(vm)?;
            vm.resume()?;
            debug_assert_eq!(vm.lifecycle(), VmLifecycle::Running);
            Ok(())
        });
        match created {
            Ok(id) => {
                self.set_placed(key, idx, Guest::Live(id));
                Ok(())
            }
            Err(e) => {
                self.evict_spec(idx, key);
                Err(e)
            }
        }
    }

    /// Exhaustively verify every index and capacity against a from-scratch
    /// recomputation by [`OrchHost::fold_oracle`] (test support).
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        let mut total = 0;
        for (pos, h) in self.hosts.iter().enumerate() {
            let oracle = h.fold_oracle();
            assert_eq!(
                h.cap.cpu_committed.to_bits(),
                oracle.cpu_committed().to_bits(),
                "{}: committed CPU drifted from the fold",
                h.id()
            );
            assert_eq!(h.cap.mem_committed, oracle.memory_committed().as_u64());
            assert_eq!(h.cap.mem_capacity, oracle.memory_capacity().as_u64());
            assert_eq!(h.cap.cores, f64::from(oracle.spec.cores));
            // Table ≡ host contents, host side: every key here names a
            // record placed on this host, once, beside its own spec.
            for (slot, (key, spec)) in h.vms.iter().enumerate() {
                assert_eq!(*self.vms.name(*key), *spec.name);
                assert_eq!(h.slot_of(*key), slot, "{}: key listed twice", h.id());
                match self.vms[*key].placement() {
                    Some((p, Guest::Live(id))) if p == pos => assert!(h.vmm.vm(id).is_ok()),
                    Some((p, Guest::Model)) if p == pos => {}
                    other => panic!("{}: {} is recorded as {other:?}", h.id(), spec.name),
                }
            }
            total += h.vms.len();
            let indexed = self.by_util.iter().any(|&(_, id)| id == h.id());
            assert_eq!(indexed, h.power == HostPower::On);
            if h.power == HostPower::On {
                assert!(self.by_util.contains(&self.util_entry(pos)));
            } else {
                assert!(h.vms.is_empty(), "{} is off and holds VMs", h.id());
            }
        }
        assert_eq!(self.total_vms, total);
        let on = self.hosts.iter().filter(|h| h.power == HostPower::On);
        assert_eq!(self.powered_on(), on.count());
        // Table side: as many placed records as listed keys, and each host
        // proved its keys distinct and recorded as placed there, so every
        // placed record is on exactly one host and no other record is on any.
        let placed = self.vms.records().filter(|r| r.placement().is_some());
        assert_eq!(placed.count(), total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rvisor_cluster::{Host, ServerRole};

    impl OrchHost {
        /// CPU utilization as a fraction of physical cores.
        pub(crate) fn cpu_utilization(&self) -> f64 {
            self.cap.util()
        }
    }

    impl Cluster {
        /// Materialize the named VM into a live guest if it is still a model.
        /// Idempotent; a materialized VM never reverts to a model.
        pub(crate) fn materialize(&mut self, vm: &str) -> Result<HostId> {
            let (idx, _) = self.materialize_key(self.resolve(vm)?)?;
            Ok(self.hosts[idx].id())
        }

        /// VMs currently represented by statistical models rather than live
        /// guests (always zero under [`VmFidelity::Full`]).
        fn modeled_vms(&self) -> usize {
            let placed = self.hosts.iter().flat_map(|h| &h.vms);
            placed
                .filter(|&&(k, _)| matches!(self.vms[k].placement(), Some((_, Guest::Model))))
                .count()
        }

        /// Whether the named VM is backed by a live guest (as opposed to a
        /// statistical model awaiting materialization).
        fn is_materialized(&self, vm: &str) -> bool {
            matches!(self.placement_of(vm), Some((_, Guest::Live(_))))
        }
    }

    impl OrchHost {
        /// `rvisor-cluster`'s own accounting of this host's specs: the
        /// independent fold the capacity is checked against.
        pub(crate) fn fold_oracle(&self) -> Host {
            let mut host = Host::new(self.spec.clone());
            host.placed = self.vms.iter().map(|(_, spec)| spec.clone()).collect();
            host
        }
    }

    fn small_params() -> OrchParams {
        OrchParams {
            guest_memory: rvisor_types::ByteSize::kib(256),
            ..Default::default()
        }
    }

    fn on_demand_params() -> OrchParams {
        OrchParams {
            fidelity: VmFidelity::OnDemand,
            ..small_params()
        }
    }

    fn specs(n: usize) -> Vec<HostSpec> {
        (0..n)
            .map(|i| HostSpec::modern_server(HostId::new(i as u32)))
            .collect()
    }

    fn web(name: &str) -> VmSpec {
        VmSpec::typical(name, ServerRole::Web)
    }

    #[test]
    fn deploy_destroy_and_accounting() {
        let mut c = Cluster::new(specs(2), small_params()).unwrap();
        let h = c
            .choose_host(PlacementStrategy::FirstFitDecreasing, &web("a"))
            .unwrap();
        c.deploy(h, web("a")).unwrap();
        assert_eq!(c.total_vms(), 1);
        assert_eq!(c.host_of("a"), Some(h));
        let vmm = c.hosts()[0].vmm();
        let id = vmm.find_vm("a").unwrap();
        assert_eq!(vmm.lifecycle_of(id).unwrap(), VmLifecycle::Running);
        c.check_invariants();

        let (host, spec) = c.destroy("a").unwrap();
        assert_eq!(host, h);
        assert_eq!(spec.name, "a");
        assert_eq!(c.total_vms(), 0);
        assert!(c.destroy("a").is_err());
        c.check_invariants();
    }

    #[test]
    fn migration_moves_vm_and_accounting() {
        let mut c = Cluster::new(specs(2), small_params()).unwrap();
        c.deploy(HostId::new(0), web("mv")).unwrap();
        let report = c
            .migrate_planned(
                "mv",
                HostId::new(1),
                &MigrationPlan::default(),
                Nanoseconds::ZERO,
            )
            .unwrap();
        assert!(report.total_time > rvisor_types::Nanoseconds::ZERO);
        assert_eq!(c.host_of("mv"), Some(HostId::new(1)));
        assert_eq!(c.hosts()[0].vms().len(), 0);
        assert_eq!(c.hosts()[1].vms().len(), 1);
        c.check_invariants();
        // The guest's identity markers survived the move.
        let vmm = c.hosts()[1].vmm();
        let id = vmm.find_vm("mv").unwrap();
        let stamp = vmm
            .vm(id)
            .unwrap()
            .memory()
            .read_u64(GuestAddress(MARKER_BASE))
            .unwrap();
        assert_ne!(stamp, 0);
        assert!(c
            .migrate_planned(
                "mv",
                HostId::new(1),
                &MigrationPlan::default(),
                Nanoseconds::ZERO,
            )
            .is_err());
    }

    #[test]
    fn backup_failure_and_restore_roundtrip() {
        let mut c = Cluster::new(specs(2), small_params()).unwrap();
        c.deploy(HostId::new(0), web("dr")).unwrap();
        let mut store = SnapshotStore::new();
        let (handle, size, arrival) = c
            .backup("dr", "hourly", &mut store, Nanoseconds::ZERO)
            .unwrap();
        assert!(matches!(handle, BackupHandle::Stored(_)));
        assert!(size > rvisor_types::ByteSize::ZERO);
        assert!(
            arrival > Nanoseconds::ZERO,
            "the backup stream must take modelled network time"
        );
        let stamp_before = {
            let vmm = c.hosts()[0].vmm();
            let id = vmm.find_vm("dr").unwrap();
            vmm.vm(id)
                .unwrap()
                .memory()
                .read_u64(GuestAddress(MARKER_BASE))
                .unwrap()
        };

        let lost = c.fail_host_keyed(HostId::new(0)).unwrap();
        assert_eq!(lost.len(), 1);
        assert_eq!(c.host_of("dr"), None);
        assert_eq!(c.hosts()[0].power(), HostPower::Failed);
        assert!(c.power_on(HostId::new(0)).is_err());
        c.check_invariants();

        c.restore(&lost[0].1, handle, &store, HostId::new(1))
            .unwrap();
        assert_eq!(c.host_of("dr"), Some(HostId::new(1)));
        let vmm = c.hosts()[1].vmm();
        let id = vmm.find_vm("dr").unwrap();
        let vm = vmm.vm(id).unwrap();
        assert_eq!(vm.lifecycle(), VmLifecycle::Running);
        assert_eq!(
            vm.memory().read_u64(GuestAddress(MARKER_BASE)).unwrap(),
            stamp_before
        );
        c.check_invariants();
    }

    #[test]
    fn power_management_rules() {
        let mut c = Cluster::new(specs(2), small_params()).unwrap();
        c.deploy(HostId::new(0), web("p")).unwrap();
        assert!(c.power_off(HostId::new(0)).is_err()); // not empty
        c.power_off(HostId::new(1)).unwrap();
        assert_eq!(c.powered_on(), 1);
        c.check_invariants();
        // An off host never receives placements.
        assert_eq!(
            c.choose_host(PlacementStrategy::Spread, &web("q")),
            Some(HostId::new(0))
        );
        c.power_on(HostId::new(1)).unwrap();
        assert_eq!(c.powered_on(), 2);
        // Spread now prefers the empty host.
        assert_eq!(
            c.choose_host(PlacementStrategy::Spread, &web("q")),
            Some(HostId::new(1))
        );
        assert_eq!(
            c.choose_host(PlacementStrategy::OnePerHost, &web("q")),
            Some(HostId::new(1))
        );
        c.check_invariants();
    }

    #[test]
    fn load_change_updates_accounting() {
        let mut c = Cluster::new(specs(1), small_params()).unwrap();
        c.deploy(HostId::new(0), web("l")).unwrap();
        let before = c.hosts()[0].cpu_utilization();
        c.set_cpu_demand("l", 8.0).unwrap();
        assert!(c.hosts()[0].cpu_utilization() > before);
        assert!(c.set_cpu_demand("ghost", 1.0).is_err());
        c.check_invariants();
    }

    #[test]
    fn fidelity_dial_defers_materialization() {
        let mut c = Cluster::new(specs(2), on_demand_params()).unwrap();
        c.deploy(HostId::new(0), web("m")).unwrap();
        assert!(!c.is_materialized("m"));
        assert_eq!(c.modeled_vms(), 1);
        assert_eq!(c.hosts()[0].vmm().vm_count(), 0, "no live guest yet");
        assert_eq!(c.total_vms(), 1);
        c.check_invariants();

        // Migration touches guest memory: the VM materializes on the way.
        c.migrate_planned(
            "m",
            HostId::new(1),
            &MigrationPlan::default(),
            Nanoseconds::ZERO,
        )
        .unwrap();
        assert!(c.is_materialized("m"));
        assert_eq!(c.modeled_vms(), 0);
        c.check_invariants();
        // Explicit materialization is idempotent.
        assert_eq!(c.materialize("m").unwrap(), HostId::new(1));
        // The materialized guest carries the canonical identity stamp.
        let vmm = c.hosts()[1].vmm();
        let id = vmm.find_vm("m").unwrap();
        assert_eq!(
            vmm.vm(id)
                .unwrap()
                .memory()
                .read_u64(GuestAddress(MARKER_BASE))
                .unwrap(),
            identity_stamp("m")
        );
    }

    #[test]
    fn model_backup_costs_match_full_backups() {
        let mut full = Cluster::new(specs(1), small_params()).unwrap();
        let mut dialed = Cluster::new(specs(1), on_demand_params()).unwrap();
        full.deploy(HostId::new(0), web("b")).unwrap();
        dialed.deploy(HostId::new(0), web("b")).unwrap();
        let mut full_store = SnapshotStore::new();
        let mut dialed_store = SnapshotStore::new();
        let (fh, fsize, farrival) = full
            .backup("b", "hourly", &mut full_store, Nanoseconds::ZERO)
            .unwrap();
        let (dh, dsize, darrival) = dialed
            .backup("b", "hourly", &mut dialed_store, Nanoseconds::ZERO)
            .unwrap();
        assert!(matches!(fh, BackupHandle::Stored(_)));
        assert_eq!(dh, BackupHandle::Canonical);
        assert_eq!(
            fsize, dsize,
            "a model backup must cost exactly what the full snapshot costs"
        );
        assert_eq!(farrival, darrival, "identical bytes, identical wire time");
        assert_eq!(dialed_store.len(), 0, "model backups never touch the store");
    }

    /// The materialization boundary: a VM that is migrated (materializing
    /// it), backed up, failed and restored immediately afterwards behaves
    /// identically to one that was always full-fidelity.
    #[test]
    fn materialization_boundary_matches_always_full() {
        let day = |params: OrchParams| {
            let mut c = Cluster::new(specs(2), params).unwrap();
            c.deploy(HostId::new(0), web("edge")).unwrap();
            let report = c
                .migrate_planned(
                    "edge",
                    HostId::new(1),
                    &MigrationPlan::default(),
                    Nanoseconds::ZERO,
                )
                .unwrap();
            let mut store = SnapshotStore::new();
            let (handle, size, arrival) = c
                .backup("edge", "post-migration", &mut store, report.total_time)
                .unwrap();
            let lost = c.fail_host_keyed(HostId::new(1)).unwrap();
            c.restore(&lost[0].1, handle, &store, HostId::new(0))
                .unwrap();
            c.check_invariants();
            let vmm = c.hosts()[0].vmm();
            let id = vmm.find_vm("edge").unwrap();
            let vm = vmm.vm(id).unwrap();
            (
                report,
                size,
                arrival,
                vm.memory().checksum(),
                vm.lifecycle(),
            )
        };
        let full = day(small_params());
        let dialed = day(on_demand_params());
        assert_eq!(
            full, dialed,
            "migration report, backup cost and restored guest state must be \
             identical across the fidelity dial"
        );
    }

    #[test]
    fn indexes_survive_a_mutation_gauntlet() {
        for params in [small_params(), on_demand_params()] {
            let mut c = Cluster::new(specs(4), params).unwrap();
            for i in 0..8 {
                let spec = web(&format!("vm-{i}")).with_cpu_demand(0.5 + i as f64 * 0.3);
                let h = c
                    .choose_host(PlacementStrategy::Spread, &spec)
                    .expect("capacity available");
                c.deploy(h, spec).unwrap();
                c.check_invariants();
            }
            c.set_cpu_demand("vm-3", 6.5).unwrap();
            c.check_invariants();
            c.destroy("vm-0").unwrap();
            c.check_invariants();
            let from = c.host_of("vm-5").unwrap();
            let to = c
                .hosts()
                .iter()
                .map(|h| h.id())
                .find(|&id| id != from)
                .unwrap();
            let stop_and_copy = MigrationPlan {
                engine: rvisor_migrate::PlanEngine::StopAndCopy,
                ..Default::default()
            };
            c.migrate_planned("vm-5", to, &stop_and_copy, Nanoseconds::ZERO)
                .unwrap();
            c.check_invariants();
            c.fail_host_keyed(HostId::new(3)).unwrap();
            c.check_invariants();
            // Every placement answer matches a brute-force scan over the
            // oracle, for probes that fit somewhere and for ones that fit
            // on no host by CPU or by memory.
            let check_choices = |c: &Cluster| {
                let huge_cpu = web("huge").with_cpu_demand(1e6);
                let huge_mem = VmSpec {
                    memory: ByteSize::gib(1 << 20),
                    ..web("huge")
                };
                let probes = [
                    web("probe").with_cpu_demand(1.25),
                    web("tiny"),
                    huge_cpu,
                    huge_mem,
                ];
                for probe in probes {
                    let on = c.hosts.iter().filter(|h| h.power == HostPower::On);
                    let fitting: Vec<_> = on.filter(|h| h.fold_oracle().fits(&probe)).collect();
                    let spread = fitting.iter().min_by(|a, b| {
                        let by_util = a.cpu_utilization().partial_cmp(&b.cpu_utilization());
                        by_util.unwrap().then(a.id().cmp(&b.id()))
                    });
                    for (strategy, brute) in [
                        (PlacementStrategy::Spread, spread),
                        (PlacementStrategy::FirstFitDecreasing, fitting.first()),
                        (
                            PlacementStrategy::OnePerHost,
                            fitting.iter().find(|h| h.vms.is_empty()),
                        ),
                    ] {
                        let want = brute.map(|h| h.id());
                        assert_eq!(c.choose_host(strategy, &probe), want, "{strategy:?}");
                    }
                }
            };
            let evacuate = |c: &mut Cluster, pos: usize| {
                while let Some(&(key, _)) = c.hosts[pos].vms.first() {
                    c.destroy_key(key).unwrap();
                }
                c.check_invariants();
            };
            check_choices(&c);
            // An empty powered host for `OnePerHost` to find.
            evacuate(&mut c, 0);
            check_choices(&c);
            // Park host 2, then host 0: the first parked host in host-vector
            // order is the one to wake, whatever order they were parked in.
            assert_eq!(c.first_parked(), None);
            for pos in [2, 0] {
                evacuate(&mut c, pos);
                c.power_off(c.hosts[pos].id()).unwrap();
                c.check_invariants();
                check_choices(&c);
            }
            assert_eq!(c.first_parked(), Some(HostId::new(0)));
        }
    }

    /// A deduplicated epoch as it shipped, and the manifest it recorded.
    fn ship_dedup(
        c: &mut Cluster,
        vm: &str,
        label: &str,
        cas: &mut CasStore,
        parent: Option<ManifestId>,
        now: Nanoseconds,
    ) -> (ManifestId, Shipped) {
        let key = c.resolve(vm).unwrap();
        let shipped = c.backup_dedup_key(key, label, cas, parent, now).unwrap();
        let BackupHandle::Manifested(manifest) = shipped.handle else {
            panic!("a content-addressed epoch names its manifest")
        };
        (manifest, shipped)
    }

    #[test]
    fn dedup_backup_ships_fewer_bytes_and_restores_byte_identical() {
        // Twin clusters with twin histories: one backs up through the plain
        // full-snapshot path, one through the content-addressed store.
        let mut plain = Cluster::new(specs(2), small_params()).unwrap();
        let mut dedup = Cluster::new(specs(2), small_params()).unwrap();
        plain.deploy(HostId::new(0), web("dr")).unwrap();
        dedup.deploy(HostId::new(0), web("dr")).unwrap();

        let mut cas = CasStore::new();
        let (full_manifest, full) = ship_dedup(
            &mut dedup,
            "dr",
            "epoch-0",
            &mut cas,
            None,
            Nanoseconds::ZERO,
        );
        assert!(
            full.stats.chunks_deduped > 0,
            "zero pages dedupe within the very first epoch"
        );

        // Dirty one page on both twins between epochs.
        for c in [&plain, &dedup] {
            let vmm = c.hosts()[0].vmm();
            let id = vmm.find_vm("dr").unwrap();
            vmm.vm(id)
                .unwrap()
                .memory()
                .write_u64(GuestAddress(0x2000), 0xfeed_f00d)
                .unwrap();
        }
        let (inc_manifest, inc) = ship_dedup(
            &mut dedup,
            "dr",
            "epoch-1",
            &mut cas,
            Some(full_manifest),
            full.arrival,
        );
        assert_eq!(
            inc.stats.chunks_novel + inc.stats.chunks_deduped,
            1,
            "the incremental epoch carries exactly the dirtied page"
        );

        let mut store = SnapshotStore::new();
        let (handle, size, _) = plain
            .backup("dr", "epoch-1", &mut store, Nanoseconds::ZERO)
            .unwrap();
        assert!(
            inc.wire_bytes * 5 <= size.as_u64(),
            "steady state must ship at least 5x fewer bytes ({} vs {})",
            inc.wire_bytes,
            size.as_u64()
        );
        assert!(
            full.wire_bytes < size.as_u64(),
            "even the first epoch dedupes its zero pages"
        );

        let lost_p = plain.fail_host_keyed(HostId::new(0)).unwrap();
        let lost_d = dedup.fail_host_keyed(HostId::new(0)).unwrap();
        plain
            .restore(&lost_p[0].1, handle, &store, HostId::new(1))
            .unwrap();
        dedup
            .restore_manifested(&lost_d[0].1, inc_manifest, &cas, HostId::new(1))
            .unwrap();
        dedup.check_invariants();

        let checksum = |c: &Cluster| {
            let vmm = c.hosts()[1].vmm();
            let id = vmm.find_vm("dr").unwrap();
            let vm = vmm.vm(id).unwrap();
            assert_eq!(vm.lifecycle(), VmLifecycle::Running);
            vm.memory().checksum()
        };
        assert_eq!(
            checksum(&plain),
            checksum(&dedup),
            "restored guests must be byte-identical across the two DR paths"
        );
        // Plain restore() refuses a manifest handle.
        let _ = plain.destroy("dr").unwrap();
        assert!(plain
            .restore(
                &lost_p[0].1,
                BackupHandle::Manifested(inc_manifest),
                &store,
                HostId::new(1)
            )
            .is_err());
    }

    #[test]
    fn a_refused_dedup_epoch_keeps_the_guests_dirty_pages() {
        let mut c = Cluster::new(specs(1), small_params()).unwrap();
        c.deploy(HostId::new(0), web("dr")).unwrap();
        let mut cas = CasStore::new();
        let mut tip = c
            .backup_dedup("dr", "e0", &mut cas, None, Nanoseconds::ZERO)
            .unwrap()
            .manifest;
        for link in 1..rvisor_snapshot::store::MAX_CHAIN_LENGTH {
            let label = format!("e{link}");
            tip = c
                .backup_dedup("dr", &label, &mut cas, Some(tip), Nanoseconds::ZERO)
                .unwrap()
                .manifest;
        }
        let vmm = c.hosts()[0].vmm();
        let memory = vmm.vm(vmm.find_vm("dr").unwrap()).unwrap().memory().clone();
        memory.write_u64(GuestAddress(0x3000), 0xfeed_f00d).unwrap();
        // The chain is at its cap: the 33rd link is refused, and the page
        // written since the last epoch stays dirty for the full epoch that
        // must come next.
        let refused = c.backup_dedup("dr", "e32", &mut cas, Some(tip), Nanoseconds::ZERO);
        assert!(refused.is_err());
        assert_eq!(memory.dirty_pages(), vec![3]);
        let vmm = c.hosts()[0].vmm();
        let vm = vmm.vm(vmm.find_vm("dr").unwrap()).unwrap();
        assert_eq!(
            vm.lifecycle(),
            VmLifecycle::Running,
            "resumed after the refusal"
        );
    }

    #[test]
    fn model_dedup_backups_match_live_dedup_backups() {
        let mut full = Cluster::new(specs(1), small_params()).unwrap();
        let mut dialed = Cluster::new(specs(1), on_demand_params()).unwrap();
        full.deploy(HostId::new(0), web("b")).unwrap();
        dialed.deploy(HostId::new(0), web("b")).unwrap();
        let mut full_cas = CasStore::new();
        let mut dialed_cas = CasStore::new();
        let (f0_manifest, f0) =
            ship_dedup(&mut full, "b", "e0", &mut full_cas, None, Nanoseconds::ZERO);
        let (d0_manifest, d0) = ship_dedup(
            &mut dialed,
            "b",
            "e0",
            &mut dialed_cas,
            None,
            Nanoseconds::ZERO,
        );
        assert!(
            !dialed.is_materialized("b"),
            "dedup backups must not materialize model VMs"
        );
        assert_eq!(f0.stats, d0.stats);
        assert_eq!(f0.wire_bytes, d0.wire_bytes);
        assert_eq!(
            f0.arrival, d0.arrival,
            "identical bytes, identical wire time"
        );

        // Incremental epochs: a parked guest dirties nothing in between.
        let (f1_manifest, f1) = ship_dedup(
            &mut full,
            "b",
            "e1",
            &mut full_cas,
            Some(f0_manifest),
            f0.arrival,
        );
        let (d1_manifest, d1) = ship_dedup(
            &mut dialed,
            "b",
            "e1",
            &mut dialed_cas,
            Some(d0_manifest),
            d0.arrival,
        );
        assert_eq!(f1.stats, d1.stats);
        assert_eq!(f1.wire_bytes, d1.wire_bytes);
        assert_eq!(
            f1.stats.chunks_novel + f1.stats.chunks_deduped,
            0,
            "a parked guest dirties no pages between epochs"
        );
        // The recorded epochs reconstruct to identical guest state.
        let fs = full_cas.reconstruct(f1_manifest).unwrap();
        let ds = dialed_cas.reconstruct(d1_manifest).unwrap();
        assert_eq!(fs.memory, ds.memory);
        assert_eq!(fs.vcpus, ds.vcpus);
        assert_eq!(fs.device_state, ds.device_state);
    }

    /// The name-keyed reference the table-backed cluster is pinned against:
    /// one map from name to (host, spec), plain by-name accounting per host,
    /// and the sets of failed hosts and materialized guests.
    struct NaiveCluster {
        vms: BTreeMap<&'static str, (HostId, VmSpec)>,
        hosts: Vec<Host>,
        failed: BTreeSet<usize>,
        live: BTreeSet<&'static str>,
    }

    const NAMES: [&str; 6] = ["vm-0", "vm-1", "vm-2", "vm-3", "vm-4", "vm-5"];

    impl NaiveCluster {
        /// Whether `spec` may be placed on host `h` under a new name.
        fn admits(&self, h: usize, spec: &VmSpec) -> bool {
            !self.failed.contains(&h)
                && !self.vms.contains_key(spec.name.as_str())
                && self.hosts[h].fits(spec)
        }

        fn place(&mut self, h: usize, name: &'static str, spec: VmSpec) {
            let id = self.hosts[h].spec.id;
            self.vms.insert(name, (id, spec.clone()));
            self.hosts[h].place(spec).unwrap();
        }

        fn evict(&mut self, name: &str) -> (HostId, VmSpec) {
            let (id, _) = self.vms.remove(name).unwrap();
            let spec = self.hosts[id.raw() as usize].evict(name).unwrap();
            (id, spec)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random operation sequences through the public `&str` API agree
        /// with the naive reference on every answer and every error outcome,
        /// and the table stays consistent with the hosts after every step.
        #[test]
        fn property_table_backed_cluster_matches_naive_reference(
            on_demand in any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..24, 0..NAMES.len(), 0usize..3, 0u32..5000),
                1..64,
            ),
        ) {
            const HOSTS: usize = 3;
            let params = if on_demand { on_demand_params() } else { small_params() };
            let host_specs: Vec<HostSpec> = (0..HOSTS)
                .map(|i| HostSpec::deck_era_server(HostId::new(i as u32)))
                .collect();
            let mut naive = NaiveCluster {
                vms: BTreeMap::new(),
                hosts: host_specs
                    .iter()
                    .map(|s| Host::new(s.clone()))
                    .collect(),
                failed: BTreeSet::new(),
                live: BTreeSet::new(),
            };
            let mut c = Cluster::new(host_specs, params).unwrap();
            let store = SnapshotStore::new();
            let spec_of = |v: usize, millicores: u32| {
                VmSpec::typical(NAMES[v], ServerRole::ALL[v % ServerRole::ALL.len()])
                    .with_cpu_demand(millicores as f64 / 1000.0)
            };
            for (step, &(op, v, h, millicores)) in ops.iter().enumerate() {
                let name = NAMES[v];
                let host = HostId::new(h as u32);
                let known = naive.vms.contains_key(name);
                match op {
                    // Deploys and migrations are weighted up, failures down, so
                    // the cluster fills and VMs move before the hosts die.
                    0..=6 => {
                        let spec = spec_of(v, millicores);
                        let expect = naive.admits(h, &spec);
                        prop_assert_eq!(c.deploy(host, spec.clone()).is_ok(), expect, "deploy");
                        if expect {
                            naive.place(h, name, spec);
                            if !on_demand {
                                naive.live.insert(name);
                            }
                        }
                    }
                    7 | 8 => {
                        let got = c.destroy(name).ok();
                        let want = known.then(|| naive.evict(name));
                        naive.live.remove(name);
                        prop_assert_eq!(got, want, "destroy");
                    }
                    9..=11 => {
                        let demand = millicores as f64 / 1000.0;
                        let got = c.set_cpu_demand(name, demand).ok();
                        let want = naive.vms.get_mut(name).map(|(id, spec)| {
                            spec.cpu_demand_cores = demand;
                            let placed = &mut naive.hosts[id.raw() as usize].placed;
                            let slot = placed.iter_mut().find(|s| s.name == name).unwrap();
                            slot.cpu_demand_cores = demand;
                            *id
                        });
                        prop_assert_eq!(got, want, "set_cpu_demand");
                    }
                    12 => {
                        let want = naive.vms.get(name).map(|(id, _)| *id);
                        prop_assert_eq!(c.materialize(name).ok(), want, "materialize");
                        if known {
                            naive.live.insert(name);
                        }
                    }
                    13..=19 => {
                        let expect = naive.vms.get(name).is_some_and(|(from, spec)| {
                            *from != host
                                && !naive.failed.contains(&h)
                                && naive.hosts[h].fits(spec)
                        });
                        let plan = MigrationPlan::default();
                        let now = Nanoseconds::from_millis(step as u64);
                        let got = c.migrate_planned(name, host, &plan, now);
                        prop_assert_eq!(got.is_ok(), expect, "migrate_planned");
                        if expect {
                            let (_, spec) = naive.evict(name);
                            naive.place(h, name, spec);
                            naive.live.insert(name);
                        }
                    }
                    20 if millicores < 1500 => {
                        let want = std::mem::take(&mut naive.hosts[h].placed);
                        for spec in &want {
                            naive.vms.remove(spec.name.as_str());
                            naive.live.remove(spec.name.as_str());
                        }
                        naive.failed.insert(h);
                        let lost: Vec<VmSpec> = c
                            .fail_host_keyed(host)
                            .unwrap()
                            .into_iter()
                            .map(|(_, spec)| spec)
                            .collect();
                        prop_assert_eq!(lost, want, "fail_host");
                    }
                    _ => {
                        let spec = spec_of(v, millicores);
                        let expect = naive.admits(h, &spec);
                        let got = c.restore(&spec, BackupHandle::Canonical, &store, host);
                        prop_assert_eq!(got.is_ok(), expect, "restore");
                        if expect {
                            naive.place(h, name, spec);
                            naive.live.insert(name);
                        }
                    }
                }
                c.check_invariants();
                for name in NAMES {
                    let want = naive.vms.get(name).map(|(id, _)| *id);
                    prop_assert_eq!(c.host_of(name), want);
                    prop_assert_eq!(c.is_materialized(name), naive.live.contains(name));
                }
                prop_assert_eq!(c.total_vms(), naive.vms.len());
                prop_assert_eq!(c.modeled_vms(), naive.vms.len() - naive.live.len());
                for (real, reference) in c.hosts().iter().zip(&naive.hosts) {
                    prop_assert_eq!(&real.fold_oracle(), reference);
                }
            }
        }
    }

    #[test]
    fn duplicate_ids_and_names_rejected() {
        let mut dup = specs(2);
        dup[1].id = HostId::new(0);
        assert!(Cluster::new(dup, small_params()).is_err());
        let mut c = Cluster::new(specs(2), small_params()).unwrap();
        c.deploy(HostId::new(0), web("x")).unwrap();
        assert!(c.deploy(HostId::new(1), web("x")).is_err());
    }
}
