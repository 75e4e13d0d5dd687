//! The host-level VM manager.
//!
//! A [`Vmm`] is what runs on one physical host: it owns the VMs placed
//! there, the virtual switch connecting their NICs, the snapshot store used
//! for backups, and the sending/receiving ends of live migrations.

use std::collections::BTreeMap;

use rvisor_memory::{analyze_sharing, DedupAnalysis, GuestMemory, KsmConfig, KsmManager};
use rvisor_migrate::{execute, DirtySource, MigrationPlan, MigrationReport, PlanEngine, Transport};
use rvisor_net::VirtualSwitch;
use rvisor_obs::Trace;
use rvisor_snapshot::{SnapshotId, SnapshotStore};
use rvisor_types::{Error, Nanoseconds, Result, VmId};

use crate::config::VmConfig;
use crate::vm::{Vm, VmLifecycle};

/// A live-migration dirty source backed by actually running the source VM.
///
/// While a pre-copy round is in flight the source guest keeps executing; the
/// pages it writes show up in its dirty bitmap and become the next round's
/// work. This adapter is what makes the VMM-level migration path exercise
/// the same convergence behaviour as the standalone engine benchmarks.
struct RunningVmDirtier<'a> {
    vm: &'a mut Vm,
    /// Pages observed entering the dirty bitmap while rounds were in flight.
    pages_dirtied: u64,
    /// Simulated guest time accumulated across the rounds.
    time_run: Nanoseconds,
}

impl<'a> RunningVmDirtier<'a> {
    fn new(vm: &'a mut Vm) -> Self {
        RunningVmDirtier {
            vm,
            pages_dirtied: 0,
            time_run: Nanoseconds::ZERO,
        }
    }
}

impl DirtySource for RunningVmDirtier<'_> {
    fn run_for(&mut self, memory: &GuestMemory, duration: Nanoseconds) -> Result<u64> {
        // The engine drains the dirty bitmap *after* this call, so the bitmap
        // delta over the run is exactly the dirty traffic this round added.
        let dirty_before = memory.dirty_page_count();
        let mut ran = Nanoseconds::ZERO;
        if self.vm.lifecycle() == VmLifecycle::Running {
            ran = self.vm.run_for(duration)?;
        }
        let dirtied = memory.dirty_page_count().saturating_sub(dirty_before);
        self.pages_dirtied += dirtied;
        self.time_run = self.time_run.saturating_add(ran.max(duration));
        Ok(dirtied)
    }

    fn dirty_rate_bytes_per_sec(&self) -> u64 {
        let ns = self.time_run.as_nanos();
        if ns == 0 {
            return 0;
        }
        ((self.pages_dirtied as u128 * rvisor_types::PAGE_SIZE as u128 * 1_000_000_000)
            / ns as u128) as u64
    }
}

/// The per-host virtual machine manager.
pub struct Vmm {
    name: String,
    vms: BTreeMap<VmId, Vm>,
    next_vm: u32,
    switch: VirtualSwitch,
    snapshots: SnapshotStore,
    /// Scratch id list reused by [`Self::run_all_once`] so the per-slice
    /// scheduling loop stops allocating once it has seen the VM population.
    slice_ids: Vec<VmId>,
    /// Dirty rates measured by [`RunningVmDirtier`] during past pre-copy
    /// migrations, keyed by the VM's id *on this host*. Carried forward
    /// across migrations (under the destination's new id) so fleet-level
    /// planners can classify a guest as dirty-hot before re-migrating it.
    observed_dirty_rates: BTreeMap<VmId, u64>,
}

impl std::fmt::Debug for Vmm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vmm")
            .field("name", &self.name)
            .field("vms", &self.vms.len())
            .field("snapshots", &self.snapshots.len())
            .finish()
    }
}

impl Vmm {
    /// Create a manager for one host.
    pub fn new(name: &str) -> Self {
        Vmm {
            name: name.to_string(),
            vms: BTreeMap::new(),
            next_vm: 0,
            switch: VirtualSwitch::new(),
            snapshots: SnapshotStore::new(),
            slice_ids: Vec::new(),
            observed_dirty_rates: BTreeMap::new(),
        }
    }

    /// The dirty rate (bytes/second) last observed for `id` during a
    /// pre-copy migration, if it has ever been measured. The observation
    /// travels with the VM: after a migration the destination host reports
    /// it under the VM's new id.
    pub fn observed_dirty_rate(&self, id: VmId) -> Option<u64> {
        self.observed_dirty_rates.get(&id).copied()
    }

    /// The host's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The virtual switch VM NICs attach to.
    pub fn switch(&self) -> &VirtualSwitch {
        &self.switch
    }

    /// The snapshot store.
    pub fn snapshots(&self) -> &SnapshotStore {
        &self.snapshots
    }

    /// Create a VM from `config` and return its id.
    pub fn create_vm(&mut self, config: VmConfig) -> Result<VmId> {
        let id = VmId::new(self.next_vm);
        let vm = Vm::with_id_and_switch(id, config, Some(&self.switch))?;
        self.next_vm += 1;
        self.vms.insert(id, vm);
        Ok(id)
    }

    /// Create a VM from `config` and run `init` on it (workload loading,
    /// guest-state seeding) as one provisioning step.
    ///
    /// If `init` fails the half-created VM is destroyed before the error is
    /// returned, so a failed provisioning never leaks a VM into the manager.
    /// This is the materialization hook fleet-level layers use to turn a
    /// statistical VM model into a live guest with deterministic content.
    pub fn create_vm_with(
        &mut self,
        config: VmConfig,
        init: impl FnOnce(&mut Vm) -> Result<()>,
    ) -> Result<VmId> {
        let id = self.create_vm(config)?;
        let vm = self.vms.get_mut(&id).expect("just created");
        match init(vm) {
            Ok(()) => Ok(id),
            Err(e) => {
                let _ = self.destroy_vm(id);
                Err(e)
            }
        }
    }

    /// Ids of all VMs on this host.
    pub fn vm_ids(&self) -> Vec<VmId> {
        self.vms.keys().copied().collect()
    }

    /// Number of VMs on this host.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Find a VM by its configured name.
    ///
    /// Names are not required to be unique within a host; the first match in
    /// id order wins. Fleet-level layers that key VMs by name (the
    /// orchestrator does) are expected to keep names unique themselves.
    pub fn find_vm(&self, name: &str) -> Option<VmId> {
        self.vms
            .iter()
            .find(|(_, vm)| vm.name() == name)
            .map(|(&id, _)| id)
    }

    /// The lifecycle state of one VM (orchestrator hook).
    pub fn lifecycle_of(&self, id: VmId) -> Result<VmLifecycle> {
        Ok(self.vm(id)?.lifecycle())
    }

    /// Borrow a VM.
    pub fn vm(&self, id: VmId) -> Result<&Vm> {
        self.vms.get(&id).ok_or(Error::UnknownVm(id))
    }

    /// Mutably borrow a VM.
    pub fn vm_mut(&mut self, id: VmId) -> Result<&mut Vm> {
        self.vms.get_mut(&id).ok_or(Error::UnknownVm(id))
    }

    /// Destroy a VM and release its resources.
    pub fn destroy_vm(&mut self, id: VmId) -> Result<()> {
        match self.vms.remove(&id) {
            Some(mut vm) => {
                vm.destroy();
                self.observed_dirty_rates.remove(&id);
                Ok(())
            }
            None => Err(Error::UnknownVm(id)),
        }
    }

    /// Run every runnable VM for one scheduling slice (simple round-robin at
    /// the host level). Returns the number of VMs that are still runnable.
    fn run_all_once(&mut self) -> Result<usize> {
        // Reuse the scratch id list: this loop runs once per scheduling slice
        // for the lifetime of the host, so it must not allocate at steady
        // state.
        self.slice_ids.clear();
        self.slice_ids.extend(self.vms.keys().copied());
        let mut runnable = 0;
        for &id in &self.slice_ids {
            let vm = self.vms.get_mut(&id).expect("id came from the map");
            if vm.lifecycle() == VmLifecycle::Running && vm.run_slice()? {
                runnable += 1;
            }
        }
        Ok(runnable)
    }

    /// Run all VMs until every one of them has halted (or the iteration bound hits).
    pub fn run_all_to_halt(&mut self, max_rounds: u64) -> Result<()> {
        for _ in 0..max_rounds {
            if self.run_all_once()? == 0 {
                return Ok(());
            }
        }
        Err(Error::VcpuFault(format!(
            "VMs still runnable after {max_rounds} rounds"
        )))
    }

    /// Take a full snapshot of a VM into this host's snapshot store.
    pub fn snapshot_vm(&mut self, id: VmId, name: &str) -> Result<SnapshotId> {
        let vm = self.vms.get_mut(&id).ok_or(Error::UnknownVm(id))?;
        vm.snapshot(name, &mut self.snapshots)
    }

    /// Measure how much memory the VMs on this host could share through
    /// content-based page deduplication (a one-shot, perfect-scanner bound).
    pub fn dedup_analysis(&self) -> Result<DedupAnalysis> {
        analyze_sharing(self.vms.values().map(|vm| vm.memory()))
    }

    /// Build a KSM scanner registered with every VM currently on this host.
    ///
    /// The caller drives it with [`KsmManager::scan_round`] at whatever
    /// cadence it wants; pages merged by the scanner are purely an
    /// accounting construct (guest memory is never aliased in the
    /// simulation), so no write-protection wiring is needed.
    pub fn ksm_manager(&self, config: KsmConfig) -> KsmManager {
        let mut manager = KsmManager::new(config);
        for (&id, vm) in &self.vms {
            manager.register_vm(id, vm.memory().clone());
        }
        manager
    }

    /// Migrate a VM to another host's manager as a wire-format stream over
    /// `transport`, the way `plan` says.
    ///
    /// The transport is a [`LoopbackTransport`](rvisor_migrate::LoopbackTransport)
    /// for same-switch moves, or a
    /// [`FabricTransport`](rvisor_migrate::FabricTransport) so the migration
    /// contends with every other stream on a shared
    /// [`ClosFabric`](rvisor_net::ClosFabric) (what the orchestrator does for
    /// rebalance traffic). With `plan.streams > 1` one lane per stripe of
    /// the page-index space streams the rounds (`rvisor_migrate::pipeline`),
    /// on a thread each when a stripe holds at least one 64-page segment and
    /// on the calling thread otherwise: the wire bytes, the destination
    /// memory image and the [`MigrationReport`] are identical to one stream
    /// — parallelism buys host wall-clock, not different results — with one
    /// documented exception: under XBZRLE with a working set larger than the cache, the
    /// per-stripe caches can make the laned run send *fewer* bytes (see the
    /// `pipeline` module docs). Per-migration and per-round spans go to
    /// `trace`; [`Trace::off`] costs nothing.
    ///
    /// On success the VM exists (running) on `destination` with identical
    /// memory, vCPU state and simulated time (its clock reads what the
    /// source's read at hand-over), and has been destroyed here. The returned
    /// report carries downtime/total-time/bytes as measured by the engine.
    /// If the engine fails — the plan is invalid, the transport refused a
    /// transfer — its error is returned unchanged, nothing of the VM is
    /// left on `destination`, and the VM stays here in the lifecycle state
    /// it was in (a pre-copy guest kept running, and its dirty bitmap was
    /// harvested): migrate it again.
    pub fn migrate_to(
        &mut self,
        id: VmId,
        destination: &mut Vmm,
        transport: &mut dyn Transport,
        plan: &MigrationPlan,
        trace: &Trace,
    ) -> Result<(VmId, MigrationReport)> {
        let source_vm = self.vms.get_mut(&id).ok_or(Error::UnknownVm(id))?;
        // Build an identical, empty shell on the destination.
        let dest_id = destination.create_vm(source_vm.config().clone())?;
        let dest_memory = destination.vm(dest_id)?.memory().clone();
        let memory = source_vm.memory().clone();
        // Pre-copy moves memory while the guest runs; the other engines
        // stop it first.
        let mut paused_here = false;
        let mut attempt = || {
            if plan.engine != PlanEngine::PreCopy && source_vm.lifecycle() == VmLifecycle::Running {
                source_vm.pause()?;
                paused_here = true;
            }
            let states = source_vm.save_vcpu_states();
            let mut dirtier = RunningVmDirtier::new(source_vm);
            let report = execute(
                plan,
                &memory,
                &dest_memory,
                &states,
                transport,
                &mut dirtier,
                trace,
            )?;
            // The dirty rate this migration observed, if the guest ran.
            let rate = dirtier.dirty_rate_bytes_per_sec();
            Ok((report, (rate > 0).then_some(rate)))
        };
        let (report, observed_rate) = match attempt() {
            Ok(done) => done,
            Err(e) => {
                // Leave both hosts as they were: no shell there, and the
                // guest here running again if this call stopped it.
                destination.destroy_vm(dest_id)?;
                if paused_here {
                    source_vm.resume()?;
                }
                return Err(e);
            }
        };

        // The stop phase of every engine ends with the source paused; capture
        // the final vCPU state now and hand it to the destination.
        if source_vm.lifecycle() == VmLifecycle::Running {
            source_vm.pause()?;
        }
        let source_halted = source_vm.lifecycle() == VmLifecycle::Halted;
        let final_states = source_vm.save_vcpu_states();
        let handed_over_at = source_vm.now();
        // Pre-copy moved memory while the source kept running; its final dirty
        // residue was already copied by the engine's stop phase, but any pages
        // dirtied after the engine returned (there are none, because we paused)
        // would be lost — pausing first is what guarantees correctness here.
        let dest_vm = destination.vm_mut(dest_id)?;
        dest_vm.restore_vcpu_states(&final_states, handed_over_at)?;
        if source_halted {
            dest_vm.mark_halted()?;
        } else {
            dest_vm.mark_running()?;
        }

        // The observation travels with the VM: a fresh measurement from this
        // migration wins, otherwise whatever an earlier migration recorded
        // rides along under the VM's new id on the destination.
        let carried = self.observed_dirty_rates.remove(&id);
        if let Some(rate) = observed_rate.or(carried) {
            destination.observed_dirty_rates.insert(dest_id, rate);
        }

        self.destroy_vm(id)?;
        Ok((dest_id, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvisor_migrate::{FaultService, LoopbackTransport, PageCompression};
    use rvisor_net::{Link, LinkModel};
    use rvisor_types::{ByteSize, GuestAddress};
    use rvisor_vcpu::{Workload, WorkloadKind};
    use std::num::NonZeroUsize;

    /// Point-in-time lifecycle and utilization telemetry for one host.
    #[derive(Debug, Default)]
    struct VmmUtilization {
        /// VMs on the host, in any lifecycle state.
        vm_count: usize,
        /// VMs currently `Running`.
        running: usize,
        /// VMs that have `Halted`.
        halted: usize,
        /// Guest memory configured across all VMs.
        guest_memory: ByteSize,
        /// Guest instructions retired across all VMs since they were created.
        instructions: u64,
        /// Simulated guest time consumed across all VMs.
        sim_time: Nanoseconds,
    }

    impl Vmm {
        /// Aggregate lifecycle/utilization telemetry across this host's VMs.
        fn utilization(&self) -> VmmUtilization {
            let mut u = VmmUtilization::default();
            for vm in self.vms.values() {
                u.vm_count += 1;
                match vm.lifecycle() {
                    VmLifecycle::Running => u.running += 1,
                    VmLifecycle::Halted => u.halted += 1,
                    _ => {}
                }
                u.guest_memory =
                    ByteSize::new(u.guest_memory.as_u64() + vm.config().memory.as_u64());
                let stats = vm.stats();
                u.instructions += stats.instructions;
                u.sim_time = u.sim_time.saturating_add(stats.sim_time);
            }
            u
        }

        /// Mutable access to the snapshot store.
        fn snapshots_mut(&mut self) -> &mut SnapshotStore {
            &mut self.snapshots
        }

        /// Total guest memory configured across all VMs.
        fn total_guest_memory(&self) -> ByteSize {
            ByteSize::new(
                self.vms
                    .values()
                    .map(|vm| vm.config().memory.as_u64())
                    .sum(),
            )
        }
    }

    const ENGINES: [PlanEngine; 3] = [
        PlanEngine::StopAndCopy,
        PlanEngine::PreCopy,
        PlanEngine::PostCopy,
    ];

    fn config(name: &str) -> VmConfig {
        VmConfig::new(name).with_memory(ByteSize::mib(4))
    }

    fn plan(engine: PlanEngine) -> MigrationPlan {
        MigrationPlan {
            engine,
            ..Default::default()
        }
    }

    /// `migrate_to` over a loopback on a fresh gigabit link, tracing off.
    fn migrate(
        source: &mut Vmm,
        id: VmId,
        dest: &mut Vmm,
        plan: &MigrationPlan,
    ) -> Result<(VmId, MigrationReport)> {
        let mut link = Link::new(LinkModel::gigabit());
        let mut transport = LoopbackTransport::new(&mut link);
        source.migrate_to(id, dest, &mut transport, plan, &Trace::off())
    }

    #[test]
    fn create_run_destroy() {
        let mut vmm = Vmm::new("host-a");
        let a = vmm.create_vm(config("a")).unwrap();
        let b = vmm.create_vm(config("b")).unwrap();
        assert_ne!(a, b);
        assert_eq!(vmm.vm_count(), 2);
        assert_eq!(vmm.total_guest_memory(), ByteSize::mib(8));
        assert_eq!(vmm.vm_ids(), vec![a, b]);

        for id in [a, b] {
            let w = Workload::new(WorkloadKind::ComputeBound { iterations: 100 }).unwrap();
            vmm.vm_mut(id).unwrap().load_workload(&w).unwrap();
        }
        vmm.run_all_to_halt(1000).unwrap();
        assert_eq!(vmm.vm(a).unwrap().lifecycle(), VmLifecycle::Halted);

        vmm.destroy_vm(a).unwrap();
        assert!(vmm.vm(a).is_err());
        assert!(vmm.destroy_vm(a).is_err());
        assert_eq!(vmm.vm_count(), 1);
        assert!(format!("{vmm:?}").contains("host-a"));
        assert_eq!(vmm.name(), "host-a");
    }

    #[test]
    fn create_vm_with_runs_init_and_rolls_back_on_failure() {
        let mut vmm = Vmm::new("host");
        let ok = vmm
            .create_vm_with(config("seeded"), |vm| {
                vm.memory().write_u64(GuestAddress(0x3000), 0xabad1dea)
            })
            .unwrap();
        assert_eq!(
            vmm.vm(ok)
                .unwrap()
                .memory()
                .read_u64(GuestAddress(0x3000))
                .unwrap(),
            0xabad1dea
        );
        let before = vmm.vm_count();
        let err = vmm.create_vm_with(config("doomed"), |_| {
            Err(Error::Config("provisioning failed".into()))
        });
        assert!(err.is_err());
        assert_eq!(
            vmm.vm_count(),
            before,
            "a failed init must not leak a VM into the manager"
        );
        assert_eq!(vmm.find_vm("doomed"), None);
    }

    #[test]
    fn unknown_vm_operations_fail() {
        let mut vmm = Vmm::new("host");
        let ghost = VmId::new(42);
        assert!(vmm.vm(ghost).is_err());
        assert!(vmm.vm_mut(ghost).is_err());
        assert!(vmm.snapshot_vm(ghost, "x").is_err());
        let mut other = Vmm::new("other");
        assert!(migrate(&mut vmm, ghost, &mut other, &MigrationPlan::default()).is_err());
    }

    #[test]
    fn running_vm_dirtier_reports_real_dirty_traffic() {
        let mut vmm = Vmm::new("host");
        let id = vmm.create_vm(config("dirty")).unwrap();
        let vm = vmm.vm_mut(id).unwrap();
        let w = Workload::new(WorkloadKind::MemoryDirty {
            pages: 64,
            passes: 200,
        })
        .unwrap();
        vm.load_workload(&w).unwrap();
        let memory = vm.memory().clone();
        let mut dirtier = RunningVmDirtier::new(vm);
        let dirtied = dirtier
            .run_for(&memory, Nanoseconds::from_micros(200))
            .unwrap();
        assert!(dirtied > 0, "a memory-dirty guest must report dirty pages");
        assert!(
            dirtier.dirty_rate_bytes_per_sec() > 0,
            "rate estimate must reflect the observed traffic"
        );
        // An idle (paused) guest reports nothing.
        let vm = vmm.vm_mut(id).unwrap();
        if vm.lifecycle() == VmLifecycle::Running {
            vm.pause().unwrap();
        }
        memory.clear_dirty();
        let mut idle = RunningVmDirtier::new(vm);
        assert_eq!(
            idle.run_for(&memory, Nanoseconds::from_millis(1)).unwrap(),
            0
        );
    }

    #[test]
    fn utilization_and_find_vm_hooks() {
        let mut vmm = Vmm::new("host");
        let a = vmm.create_vm(config("alpha")).unwrap();
        let b = vmm.create_vm(config("beta")).unwrap();
        let w = Workload::new(WorkloadKind::ComputeBound { iterations: 100 }).unwrap();
        vmm.vm_mut(a).unwrap().load_workload(&w).unwrap();

        assert_eq!(vmm.find_vm("alpha"), Some(a));
        assert_eq!(vmm.find_vm("beta"), Some(b));
        assert_eq!(vmm.find_vm("ghost"), None);
        assert_eq!(vmm.lifecycle_of(a).unwrap(), VmLifecycle::Running);
        assert_eq!(vmm.lifecycle_of(b).unwrap(), VmLifecycle::Created);
        assert!(vmm.lifecycle_of(VmId::new(99)).is_err());

        let before = vmm.utilization();
        assert_eq!(before.vm_count, 2);
        assert_eq!(before.running, 1);
        assert_eq!(before.guest_memory, ByteSize::mib(8));

        vmm.run_all_to_halt(1000).unwrap();
        let after = vmm.utilization();
        assert_eq!(after.halted, 1);
        assert!(after.instructions > before.instructions);
        assert!(after.sim_time > before.sim_time);
    }

    #[test]
    fn snapshot_via_manager() {
        let mut vmm = Vmm::new("host");
        let id = vmm.create_vm(config("snap")).unwrap();
        let w = Workload::new(WorkloadKind::ComputeBound { iterations: 50 }).unwrap();
        vmm.vm_mut(id).unwrap().load_workload(&w).unwrap();
        let snap = vmm.snapshot_vm(id, "before").unwrap();
        assert!(vmm.snapshots().get(snap).is_some());
        assert_eq!(vmm.snapshots().len(), 1);
        assert!(vmm.snapshots_mut().delete(snap).is_ok());
    }

    fn loaded_vmm_with_marker() -> (Vmm, VmId) {
        let mut vmm = Vmm::new("source");
        let id = vmm.create_vm(config("moving")).unwrap();
        {
            let vm = vmm.vm_mut(id).unwrap();
            // An idle guest with plenty of wakeups left: it keeps "running"
            // while pre-copy rounds are in flight and finishes on the
            // destination after the migration.
            let w = Workload::new(WorkloadKind::Idle { wakeups: 5_000 }).unwrap();
            vm.load_workload(&w).unwrap();
            // Leave a marker in guest memory that must survive the migration.
            vm.memory()
                .write_u64(GuestAddress(0x2000), 0xfeedface)
                .unwrap();
        }
        (vmm, id)
    }

    #[test]
    fn migration_moves_memory_and_state() {
        for engine in ENGINES {
            let (mut source, id) = loaded_vmm_with_marker();
            // Some guest time passes on the source before the move.
            let vm = source.vm_mut(id).unwrap();
            vm.run_for(Nanoseconds::from_millis(3)).unwrap();
            let source_checksum_before = vm.memory().checksum();
            let mut dest = Vmm::new("dest");
            let (dest_id, report) = migrate(&mut source, id, &mut dest, &plan(engine)).unwrap();

            // Source is gone, destination runs with identical memory.
            assert!(source.vm(id).is_err());
            let dest_vm = dest.vm(dest_id).unwrap();
            assert_eq!(dest_vm.lifecycle(), VmLifecycle::Running);
            assert_eq!(
                dest_vm.memory().read_u64(GuestAddress(0x2000)).unwrap(),
                0xfeedface
            );
            if engine != PlanEngine::PreCopy {
                // For the paused engines the memory image is bit-identical to the
                // pre-migration source.
                assert_eq!(dest_vm.memory().checksum(), source_checksum_before);
            }
            assert!(report.total_time > Nanoseconds::ZERO);
            assert!(report.bytes_transferred >= ByteSize::mib(4).as_u64());

            // Guest time runs on from where it stopped: the destination's
            // clock reads what the source's read at hand-over, which is what
            // a twin of the source reads when it reaches the vCPU state that
            // arrived (the guest is deterministic, and every engine stops
            // it between two slices).
            let arrived = dest_vm.save_vcpu_states();
            let (mut twin_host, twin_id) = loaded_vmm_with_marker();
            let twin = twin_host.vm_mut(twin_id).unwrap();
            while twin.save_vcpu_states() != arrived {
                twin.run_slice().unwrap();
            }
            assert!(twin.now() >= Nanoseconds::from_millis(3));
            assert_eq!(dest_vm.now(), twin.now(), "{engine:?}");

            // The migrated guest can keep running to completion on the destination.
            let dest_vm = dest.vm_mut(dest_id).unwrap();
            dest_vm.run_to_halt().unwrap();
            assert_eq!(dest_vm.lifecycle(), VmLifecycle::Halted);
        }
    }

    #[test]
    fn dedup_analysis_and_ksm_scanner_over_the_managers_vms() {
        let mut vmm = Vmm::new("host");
        // Two clones with identical content plus one VM that differs.
        let mut ids = Vec::new();
        for name in ["clone-a", "clone-b", "other"] {
            ids.push(vmm.create_vm(config(name)).unwrap());
        }
        for (i, &id) in ids.iter().enumerate() {
            let vm = vmm.vm(id).unwrap();
            for p in 0..16u64 {
                let value = if i < 2 {
                    0xc0de_0000 + p
                } else {
                    0xd1ff_0000 + p
                };
                vm.memory()
                    .write_u64(GuestAddress(p * 4096), value)
                    .unwrap();
            }
        }
        let analysis = vmm.dedup_analysis().unwrap();
        assert!(
            analysis.pages_saved() >= 16,
            "clones must be fully shareable: {analysis:?}"
        );

        let mut ksm = vmm.ksm_manager(rvisor_memory::KsmConfig::default());
        assert_eq!(ksm.vm_count(), 3);
        ksm.scan_until_stable(6).unwrap();
        assert!(ksm.stats().pages_saved() >= 16);
        assert!(ksm.stats().pages_saved() <= analysis.pages_saved());
    }

    #[test]
    fn compressed_migration_config_is_honoured_by_the_manager() {
        let run = |compression: PageCompression| {
            let (mut source, id) = loaded_vmm_with_marker();
            let mut dest = Vmm::new("dest");
            let compressed = MigrationPlan {
                compression,
                ..Default::default()
            };
            let (dest_id, report) = migrate(&mut source, id, &mut dest, &compressed).unwrap();
            let dest_vm = dest.vm(dest_id).unwrap();
            assert_eq!(
                dest_vm.memory().read_u64(GuestAddress(0x2000)).unwrap(),
                0xfeedface
            );
            report
        };
        let raw = run(PageCompression::None);
        let compressed = run(PageCompression::ZeroPages);
        // A mostly-empty 4 MiB guest shrinks dramatically under zero-page detection.
        assert!(compressed.bytes_transferred < raw.bytes_transferred / 4);
    }

    #[test]
    fn a_migrated_guests_dirty_bitmap_holds_every_page() {
        // The sink marks every page it applies, zero pages and zero runs
        // included, so after `migrate_to` the destination's bitmap holds
        // the whole guest — not the pages written since the source's last
        // backup epoch. That is why the orchestrator restarts a migrated
        // VM's DR chain with a full epoch. Zero pages arrive known zero.
        for engine in ENGINES {
            for compression in [PageCompression::None, PageCompression::ZeroPages] {
                let (mut source, id) = loaded_vmm_with_marker();
                source.vm(id).unwrap().memory().clear_dirty();
                let mut dest = Vmm::new("dest");
                let plan = MigrationPlan {
                    compression,
                    ..plan(engine)
                };
                let (dest_id, _) = migrate(&mut source, id, &mut dest, &plan).unwrap();
                let memory = dest.vm(dest_id).unwrap().memory();
                let pages = memory.total_pages();
                assert_eq!(memory.dirty_pages(), (0..pages).collect::<Vec<_>>());
                let known_zero = (0..pages)
                    .filter(|&p| memory.with_page_or_zero(p, |_, zero| zero).unwrap())
                    .count() as u64;
                assert!(
                    known_zero > pages / 2,
                    "{engine:?} {compression:?}: {known_zero}"
                );
            }
        }
    }

    #[test]
    fn multi_stream_migration_matches_the_serial_stream() {
        for engine in ENGINES {
            let run = |streams: usize| {
                let (mut source, id) = loaded_vmm_with_marker();
                let mut dest = Vmm::new("dest");
                let striped = MigrationPlan {
                    streams: NonZeroUsize::new(streams).unwrap(),
                    ..plan(engine)
                };
                let (dest_id, report) = migrate(&mut source, id, &mut dest, &striped).unwrap();
                let checksum = dest.vm(dest_id).unwrap().memory().checksum();
                (report, checksum)
            };
            let (serial, serial_sum) = run(1);
            let (parallel, parallel_sum) = run(4);
            assert_eq!(parallel, serial, "{engine:?}");
            assert_eq!(parallel_sum, serial_sum, "{engine:?}: memory diverged");
        }
    }

    #[test]
    fn planned_migration_observes_and_carries_the_dirty_rate() {
        let mut source = Vmm::new("source");
        let id = source.create_vm(config("hot")).unwrap();
        {
            let vm = source.vm_mut(id).unwrap();
            let w = Workload::new(WorkloadKind::MemoryDirty {
                pages: 64,
                passes: 5_000,
            })
            .unwrap();
            vm.load_workload(&w).unwrap();
        }
        assert_eq!(source.observed_dirty_rate(id), None);

        // A pre-copy migration measures the guest's dirty rate and records
        // it on the destination under the VM's new id.
        let mut hop1 = Vmm::new("hop1");
        let (id1, _) = migrate(&mut source, id, &mut hop1, &MigrationPlan::default()).unwrap();
        let rate = hop1
            .observed_dirty_rate(id1)
            .expect("pre-copy must observe a dirty-hot guest");
        assert!(rate > 0);

        // A fault-lane post-copy plan executes (fault lane + background
        // sweep = 2 rounds) and carries the earlier observation forward
        // even though post-copy measures nothing itself.
        let mut hop2 = Vmm::new("hop2");
        let fault_lane = MigrationPlan {
            fault_service: FaultService::FaultLane,
            ..plan(PlanEngine::PostCopy)
        };
        let (id2, report) = migrate(&mut hop1, id1, &mut hop2, &fault_lane).unwrap();
        assert_eq!(report.rounds, 2, "fault lane + background sweep");
        assert!(report.remote_faults > 0);
        assert_eq!(hop2.observed_dirty_rate(id2), Some(rate));
        assert_eq!(hop1.observed_dirty_rate(id1), None);
    }

    #[test]
    fn precopy_downtime_beats_stop_and_copy_at_the_manager_level() {
        let (mut s1, id1) = loaded_vmm_with_marker();
        let mut d1 = Vmm::new("d1");
        let (_, pre) = migrate(&mut s1, id1, &mut d1, &plan(PlanEngine::PreCopy)).unwrap();

        let (mut s2, id2) = loaded_vmm_with_marker();
        let mut d2 = Vmm::new("d2");
        let (_, stop) = migrate(&mut s2, id2, &mut d2, &plan(PlanEngine::StopAndCopy)).unwrap();

        assert!(pre.downtime <= stop.downtime);
    }

    /// A loopback that refuses the `fail_on`-th transfer charged to it, as a
    /// transport whose endpoint failed mid-migration does.
    struct RefusingTransport<'l> {
        inner: LoopbackTransport<'l>,
        calls: u32,
        fail_on: u32,
    }

    impl Transport for RefusingTransport<'_> {
        fn free_at(&self) -> Nanoseconds {
            self.inner.free_at()
        }
        fn send(&mut self, frame: &[u8]) -> Result<()> {
            self.inner.send(frame)
        }
        fn send_built(&mut self, build: &mut dyn FnMut(&mut Vec<u8>)) -> Result<()> {
            self.inner.send_built(build)
        }
        fn deliver(&mut self, now: Nanoseconds) -> Result<(Nanoseconds, Vec<u8>)> {
            self.inner.deliver(now)
        }
        // `transmit_striped` is the provided method, which lands here too.
        fn transmit_bytes(&mut self, now: Nanoseconds, bytes: u64) -> Result<Nanoseconds> {
            self.calls += 1;
            if self.calls == self.fail_on {
                return Err(Error::Migration("endpoint failed".into()));
            }
            self.inner.transmit_bytes(now, bytes)
        }
        fn recycle(&mut self, buf: Vec<u8>) {
            self.inner.recycle(buf)
        }
        fn latency(&self) -> Nanoseconds {
            self.inner.latency()
        }
        fn transfer_time(&self, bytes: u64) -> Nanoseconds {
            self.inner.transfer_time(bytes)
        }
        fn bytes_sent(&self) -> u64 {
            self.inner.bytes_sent()
        }
    }

    #[test]
    fn failed_migration_leaves_both_hosts_as_they_were() {
        // Every engine's third transfer comes after pages have landed on
        // the destination: stop-and-copy's vCPU state, pre-copy's stop
        // phase, post-copy's sweep. The first is the Hello.
        for engine in ENGINES {
            for (streams, fail_on) in [(1, 1), (1, 3), (4, 1), (4, 3)] {
                let case = format!("{engine:?}, {streams} streams, transfer {fail_on}");
                let striped = MigrationPlan {
                    streams: NonZeroUsize::new(streams).unwrap(),
                    ..plan(engine)
                };
                let (mut source, id) = loaded_vmm_with_marker();
                let checksum_before = source.vm(id).unwrap().memory().checksum();
                let mut dest = Vmm::new("dest");
                dest.create_vm(config("resident")).unwrap();

                let mut link = Link::new(LinkModel::gigabit());
                let mut refusing = RefusingTransport {
                    inner: LoopbackTransport::new(&mut link),
                    calls: 0,
                    fail_on,
                };
                let err = source
                    .migrate_to(id, &mut dest, &mut refusing, &striped, &Trace::off())
                    .expect_err("the refused transfer must fail the migration");
                assert_eq!(err, Error::Migration("endpoint failed".into()), "{case}");
                assert_eq!(refusing.calls, fail_on, "{case}");
                // No shell is left behind, and the guest runs on where it was.
                assert_eq!(dest.vm_count(), 1, "{case}");
                assert_eq!(dest.find_vm("moving"), None, "{case}");
                assert_eq!(
                    source.lifecycle_of(id).unwrap(),
                    VmLifecycle::Running,
                    "{case}"
                );

                // The same VM over a healthy transport.
                let (dest_id, _) = migrate(&mut source, id, &mut dest, &striped).unwrap();
                assert_eq!(source.vm_count(), 0, "{case}");
                assert_eq!(dest.find_vm("moving"), Some(dest_id), "{case}");
                let moved = dest.vm(dest_id).unwrap();
                assert_eq!(moved.lifecycle(), VmLifecycle::Running, "{case}");
                assert_eq!(moved.memory().checksum(), checksum_before, "{case}");
            }
        }
    }
}
