//! A single virtual machine.
//!
//! A [`Vm`] owns everything its guest touches: memory, vCPUs, its simulated
//! time and every device, as plain fields. Its exit loop routes each MMIO
//! or port exit with one `match` over the fixed windows of [`layout`] and
//! calls the owning device through `&mut`.

use rvisor_block::RamDisk;
use rvisor_devices::{CountdownTimer, Rtc, SerialConsole};
use rvisor_memory::{Balloon, GuestMemory};
use rvisor_net::{MacAddr, VirtualSwitch};
use rvisor_snapshot::{SnapshotStore, VmSnapshot};
use rvisor_types::{ByteSize, Error, GuestAddress, Nanoseconds, Result, VcpuId, VmId};
use rvisor_vcpu::{ExitReason, Vcpu, VcpuConfig, VcpuStats, Workload};
use rvisor_virtio::{QueueLayout, VirtioBlk, VirtioMmio, VirtioNet};

use crate::config::VmConfig;
use crate::hypercalls::{handle_pure, HypercallNr};
use crate::layout;

/// Simulated time charged when the guest reports being idle.
const IDLE_SLICE: Nanoseconds = Nanoseconds::from_millis(1);
/// Safety bound on instructions executed by `run_to_halt`.
const RUN_TO_HALT_BUDGET: u64 = 500_000_000;

/// The lifecycle states of a VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmLifecycle {
    /// Built but never run.
    Created,
    /// Currently runnable.
    Running,
    /// Paused by the host (snapshots, migration, operator action).
    Paused,
    /// The guest executed a halt.
    Halted,
    /// Torn down; the memory has been released to the host.
    Destroyed,
}

impl VmLifecycle {
    /// Whether the lifecycle graph permits moving from `self` to `to`.
    ///
    /// The legal edges are:
    ///
    /// * `Created → Running` (first program/workload load),
    /// * `Created → Paused` (restoring a snapshot into a fresh shell),
    /// * `Created → Halted` (migration hand-over of an already-halted guest),
    /// * `Running ↔ Paused` (host pause/resume),
    /// * `Running → Halted` (the guest executed a halt),
    /// * `Halted → Paused` (snapshot restore rewinds a finished guest),
    /// * any live state `→ Destroyed`.
    ///
    /// Everything else — including resurrecting a `Destroyed` VM and
    /// re-running a `Halted` one without a restore — is rejected.
    fn can_transition(self, to: VmLifecycle) -> bool {
        use VmLifecycle::*;
        matches!(
            (self, to),
            (Created, Running)
                | (Created, Paused)
                | (Created, Halted)
                | (Running, Paused)
                | (Running, Halted)
                | (Paused, Running)
                | (Halted, Paused)
                | (Created | Running | Paused | Halted, Destroyed)
        )
    }
}

/// Aggregated execution statistics for a VM.
#[derive(Debug, Clone, Copy, Default)]
pub struct VmRunStats {
    /// Guest instructions retired across all vCPUs.
    pub instructions: u64,
    /// VM exits across all vCPUs.
    pub exits: u64,
    /// Hypercalls handled.
    pub hypercalls: u64,
    /// MMIO exits dispatched to devices.
    pub mmio_exits: u64,
    /// Simulated guest time consumed.
    pub sim_time: Nanoseconds,
}

/// A virtual machine.
pub struct Vm {
    id: VmId,
    config: VmConfig,
    lifecycle: VmLifecycle,
    memory: GuestMemory,
    vcpus: Vec<Vcpu>,
    /// Simulated time: what the vCPUs charged plus the idle time granted.
    now: Nanoseconds,
    serial: SerialConsole,
    rtc: Rtc,
    timer: CountdownTimer,
    virtio_blk: Option<VirtioMmio>,
    virtio_net: Option<VirtioMmio>,
    balloon: Option<Balloon>,
    /// Private switch used when no external one is supplied.
    _private_switch: Option<VirtualSwitch>,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("id", &self.id)
            .field("name", &self.config.name)
            .field("lifecycle", &self.lifecycle)
            .field("memory", &self.config.memory)
            .field("vcpus", &self.vcpus.len())
            .finish()
    }
}

impl Vm {
    /// Build a VM from `config`, attaching its NIC (if any) to a private switch.
    pub fn new(config: VmConfig) -> Result<Self> {
        Self::with_id_and_switch(VmId::new(0), config, None)
    }

    /// Build a VM attached to an existing virtual switch (used by [`crate::Vmm`]).
    pub(crate) fn with_id_and_switch(
        id: VmId,
        config: VmConfig,
        switch: Option<&VirtualSwitch>,
    ) -> Result<Self> {
        config.validate()?;
        let memory = GuestMemory::flat(config.memory)?;

        // virtio-blk for the first configured disk.
        let virtio_blk = if let Some(disk_cfg) = config.disks.first() {
            let mut backend = RamDisk::new(disk_cfg.size);
            backend.set_read_only(disk_cfg.read_only);
            let blk = VirtioBlk::new(Box::new(backend));
            Some(VirtioMmio::new(Box::new(blk), memory.clone()))
        } else {
            None
        };

        // virtio-net attached to the provided or a private switch.
        let mut private_switch = None;
        let virtio_net = if config.with_net {
            let switch_ref = match switch {
                Some(s) => s.clone(),
                None => {
                    let s = VirtualSwitch::new();
                    private_switch = Some(s.clone());
                    s
                }
            };
            let nic = VirtioNet::new(MacAddr::local(id.raw()), switch_ref.add_port());
            Some(VirtioMmio::new(Box::new(nic), memory.clone()))
        } else {
            None
        };

        // Host-driven balloon for memory overcommit.
        let balloon = if config.with_balloon {
            Some(Balloon::new(memory.clone(), 16))
        } else {
            None
        };

        let vcpus = (0..config.vcpus)
            .map(|i| Vcpu::new(VcpuConfig::new(VcpuId::new(i), config.exec_mode)))
            .collect();

        Ok(Vm {
            id,
            config,
            lifecycle: VmLifecycle::Created,
            memory,
            vcpus,
            now: Nanoseconds::ZERO,
            serial: SerialConsole::default(),
            rtc: Rtc,
            timer: CountdownTimer::default(),
            virtio_blk,
            virtio_net,
            balloon,
            _private_switch: private_switch,
        })
    }

    /// The VM's identifier.
    pub fn id(&self) -> VmId {
        self.id
    }

    /// The VM's name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The configuration the VM was built from.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// Current lifecycle state.
    pub fn lifecycle(&self) -> VmLifecycle {
        self.lifecycle
    }

    /// The guest memory (shared handle).
    pub fn memory(&self) -> &GuestMemory {
        &self.memory
    }

    /// The VM's simulated time.
    pub fn now(&self) -> Nanoseconds {
        self.now
    }

    /// The virtio-blk transport, if a disk was configured.
    pub fn virtio_blk(&mut self) -> Option<&mut VirtioMmio> {
        self.virtio_blk.as_mut()
    }

    /// The virtio-net transport, if networking was configured.
    pub fn virtio_net(&mut self) -> Option<&mut VirtioMmio> {
        self.virtio_net.as_mut()
    }

    /// The host-side balloon, if configured.
    pub fn balloon(&self) -> Option<&Balloon> {
        self.balloon.as_ref()
    }

    /// Everything the guest has written to its serial console so far.
    pub fn serial_output(&self) -> String {
        self.serial.output_string()
    }

    /// Configure a virtqueue on the virtio-blk device (host-side driver path).
    pub fn setup_blk_queue(&mut self, layout: QueueLayout) -> Result<()> {
        match &mut self.virtio_blk {
            Some(t) => t.setup_queue(0, layout),
            None => Err(Error::Device("VM has no virtio-blk device".into())),
        }
    }

    /// Load a guest program image at `entry` and point vCPU 0 at it.
    pub fn load_program(&mut self, image: &[u8], entry: u64) -> Result<()> {
        self.memory.write(GuestAddress(entry), image)?;
        self.memory.clear_dirty();
        self.vcpus[0].set_pc(entry);
        if self.lifecycle == VmLifecycle::Created {
            self.transition(VmLifecycle::Running)?;
        }
        Ok(())
    }

    /// Load a synthetic [`Workload`] into the VM.
    pub fn load_workload(&mut self, workload: &Workload) -> Result<()> {
        if ByteSize::new(workload.required_memory()) > self.config.memory {
            return Err(Error::Config(format!(
                "workload needs {} of guest memory but the VM has {}",
                ByteSize::new(workload.required_memory()),
                self.config.memory
            )));
        }
        workload.load(&self.memory)?;
        self.vcpus[0].set_pc(workload.entry());
        if self.lifecycle == VmLifecycle::Created {
            self.transition(VmLifecycle::Running)?;
        }
        Ok(())
    }

    /// Move the VM to lifecycle state `to`, validating the jump against the
    /// [`VmLifecycle::can_transition`] graph.
    ///
    /// Every lifecycle change in this crate funnels through here, so illegal
    /// jumps (`Destroyed → Running`, `Halted → Running` without a restore,
    /// ...) are structurally impossible rather than merely untested.
    fn transition(&mut self, to: VmLifecycle) -> Result<()> {
        if !self.lifecycle.can_transition(to) {
            return Err(Error::InvalidVmState {
                operation: "transition",
                state: format!("{:?} (to {to:?})", self.lifecycle),
            });
        }
        self.lifecycle = to;
        Ok(())
    }

    /// Pause a running VM.
    pub(crate) fn pause(&mut self) -> Result<()> {
        match self.lifecycle {
            VmLifecycle::Running => self.transition(VmLifecycle::Paused),
            other => Err(Error::InvalidVmState {
                operation: "pause",
                state: format!("{other:?}"),
            }),
        }
    }

    /// Resume a paused VM.
    pub fn resume(&mut self) -> Result<()> {
        match self.lifecycle {
            VmLifecycle::Paused => self.transition(VmLifecycle::Running),
            other => Err(Error::InvalidVmState {
                operation: "resume",
                state: format!("{other:?}"),
            }),
        }
    }

    /// Tear the VM down (idempotent).
    pub(crate) fn destroy(&mut self) {
        if self.lifecycle != VmLifecycle::Destroyed {
            self.transition(VmLifecycle::Destroyed)
                .expect("every live state may be destroyed");
        }
    }

    /// Aggregate statistics over all vCPUs plus VM-level counters.
    pub(crate) fn stats(&self) -> VmRunStats {
        let mut out = VmRunStats::default();
        for v in &self.vcpus {
            let s: VcpuStats = v.stats();
            out.instructions += s.instructions;
            out.exits += s.exits;
            out.hypercalls += s.hypercalls;
            out.mmio_exits += s.mmio_exits;
            out.sim_time = out.sim_time.saturating_add(Nanoseconds(s.sim_time_ns));
        }
        out
    }

    /// Run one scheduling slice on each vCPU. Returns whether the VM is
    /// still runnable afterwards.
    pub(crate) fn run_slice(&mut self) -> Result<bool> {
        if self.lifecycle != VmLifecycle::Running {
            return Err(Error::InvalidVmState {
                operation: "run",
                state: format!("{:?}", self.lifecycle),
            });
        }
        let slice_budget = self.config.slice_instructions;
        let mut any_runnable = false;

        for index in 0..self.vcpus.len() {
            let mut remaining = slice_budget;
            loop {
                // Time advances by what the vCPU charged itself, which is
                // `outcome.elapsed` when the call returns and the time of
                // the instructions it retired before the fault when it kills
                // the guest.
                let charged = self.vcpus[index].stats().sim_time();
                let outcome = self.vcpus[index].run(&self.memory, remaining);
                self.now += self.vcpus[index].stats().sim_time() - charged;
                let outcome = outcome?;
                self.timer.tick(self.now);
                remaining = remaining.saturating_sub(outcome.instructions);

                match outcome.exit {
                    ExitReason::Halt => {
                        self.transition(VmLifecycle::Halted)?;
                        return Ok(false);
                    }
                    ExitReason::InstructionLimit => {
                        any_runnable = true;
                        break;
                    }
                    ExitReason::Idle => {
                        self.now += IDLE_SLICE;
                        self.timer.tick(self.now);
                        any_runnable = true;
                        break;
                    }
                    ExitReason::MmioRead { addr, .. } => {
                        let value = self.mmio_read(addr)?;
                        self.vcpus[index].complete_mmio_read(value)?;
                    }
                    ExitReason::MmioWrite { addr, value, .. } => {
                        self.mmio_write(addr, value)?;
                    }
                    ExitReason::PioIn { port } => {
                        let value = self.serial.read(serial_register(port)?);
                        self.vcpus[index].complete_pio_in(value as u32)?;
                    }
                    ExitReason::PioOut { port, value } => {
                        self.serial.write(serial_register(port)?, u64::from(value));
                    }
                    ExitReason::Hypercall { nr, arg } => {
                        let end_slice = self.handle_hypercall(index, nr, arg)?;
                        if end_slice {
                            any_runnable = true;
                            break;
                        }
                    }
                    ExitReason::PageFault { vaddr, write } => {
                        return Err(Error::PageFault { vaddr, write });
                    }
                }
                if remaining == 0 {
                    any_runnable = true;
                    break;
                }
            }
        }
        Ok(any_runnable)
    }

    /// A guest MMIO read, from the device whose window holds `addr`.
    fn mmio_read(&mut self, addr: GuestAddress) -> Result<u64> {
        let (base, offset) = layout::window_of(addr);
        let unmapped = Error::UnmappedIo(addr);
        Ok(match base {
            layout::SERIAL_MMIO => self.serial.read(offset),
            layout::RTC_MMIO => self.rtc.read(offset, self.now),
            layout::TIMER_MMIO => self.timer.read(offset, self.now),
            layout::VIRTIO_BLK_MMIO => self.virtio_blk.as_ref().ok_or(unmapped)?.read(offset),
            layout::VIRTIO_NET_MMIO => self.virtio_net.as_ref().ok_or(unmapped)?.read(offset),
            _ => return Err(unmapped),
        })
    }

    /// A guest MMIO write, to the device whose window holds `addr`.
    fn mmio_write(&mut self, addr: GuestAddress, value: u64) -> Result<()> {
        let (base, offset) = layout::window_of(addr);
        let unmapped = Error::UnmappedIo(addr);
        match base {
            layout::SERIAL_MMIO => self.serial.write(offset, value),
            layout::RTC_MMIO => self.rtc.write(offset, value),
            layout::TIMER_MMIO => self.timer.write(offset, value, self.now),
            layout::VIRTIO_BLK_MMIO => self
                .virtio_blk
                .as_mut()
                .ok_or(unmapped)?
                .write(offset, value),
            layout::VIRTIO_NET_MMIO => self
                .virtio_net
                .as_mut()
                .ok_or(unmapped)?
                .write(offset, value),
            _ => return Err(unmapped),
        }
        Ok(())
    }

    fn handle_hypercall(&mut self, vcpu_index: usize, nr: u16, arg: u64) -> Result<bool> {
        let Some(call) = HypercallNr::from_raw(nr) else {
            // Unknown hypercalls return an error value to the guest but do not
            // kill the VM, matching how real hypervisors behave.
            self.vcpus[vcpu_index].complete_hypercall(u64::MAX)?;
            return Ok(false);
        };
        if call == HypercallNr::ConsolePutChar {
            self.serial.put_output_byte(arg as u8);
            self.vcpus[vcpu_index].complete_hypercall(0)?;
            return Ok(false);
        }
        let result = handle_pure(call, arg, self.now);
        self.vcpus[vcpu_index].complete_hypercall(result.return_value)?;
        Ok(result.end_slice)
    }

    /// Run slices until the guest halts (or the safety budget is exhausted).
    pub fn run_to_halt(&mut self) -> Result<VmRunStats> {
        let start_instructions = self.stats().instructions;
        loop {
            let runnable = self.run_slice()?;
            if !runnable {
                break;
            }
            if self.stats().instructions - start_instructions > RUN_TO_HALT_BUDGET {
                return Err(Error::VcpuFault(format!(
                    "guest did not halt within {RUN_TO_HALT_BUDGET} instructions"
                )));
            }
        }
        Ok(self.stats())
    }

    /// Run the VM for (at least) `duration` of simulated time, or until it halts.
    pub fn run_for(&mut self, duration: Nanoseconds) -> Result<Nanoseconds> {
        let start = self.now;
        while self.lifecycle == VmLifecycle::Running {
            let elapsed = self.now.saturating_sub(start);
            if elapsed >= duration {
                break;
            }
            self.run_slice()?;
        }
        Ok(self.now.saturating_sub(start))
    }

    /// Take a full snapshot of the VM into `store`, pausing it if running.
    pub fn snapshot(
        &mut self,
        name: &str,
        store: &mut SnapshotStore,
    ) -> Result<rvisor_snapshot::SnapshotId> {
        let was_running = self.lifecycle == VmLifecycle::Running;
        if was_running {
            self.pause()?;
        }
        let vcpu_states = self.vcpus.iter().map(|v| v.save_state()).collect();
        let snap = VmSnapshot::capture_full(
            self.id,
            name,
            self.now,
            &self.memory,
            vcpu_states,
            Default::default(),
        )?;
        let id = store.insert(snap)?;
        if was_running {
            self.resume()?;
        }
        Ok(id)
    }

    /// Record one backup epoch in `cas`, pausing a running VM for the
    /// duration: the vCPU states and guest memory in place
    /// ([`rvisor_snapshot::CasStore::ingest_memory`]), full when `parent` is
    /// `None` (anchoring the incremental chain here), else incremental. A
    /// running VM runs again afterwards, whatever the outcome.
    pub fn backup_epoch(
        &mut self,
        name: &str,
        cas: &mut rvisor_snapshot::CasStore,
        parent: Option<rvisor_snapshot::ManifestId>,
    ) -> Result<(rvisor_snapshot::ManifestId, rvisor_snapshot::IngestStats)> {
        let was_running = self.lifecycle == VmLifecycle::Running;
        if was_running {
            self.pause()?;
        }
        let vcpu_states = self.vcpus.iter().map(|v| v.save_state()).collect();
        let epoch = cas.ingest_memory(self.id, name, self.now, &self.memory, vcpu_states, parent);
        if was_running {
            self.resume()?;
        }
        epoch
    }

    /// Restore the VM to a snapshot previously stored in `store`.
    pub fn restore_snapshot(
        &mut self,
        id: rvisor_snapshot::SnapshotId,
        store: &SnapshotStore,
    ) -> Result<()> {
        let (vcpu_states, _pages) = store.restore(id, &self.memory)?;
        self.finish_restore(vcpu_states)
    }

    /// Restore the VM to a backup epoch held in a content-addressed store:
    /// the manifest chain is applied to guest memory and the recorded vCPU
    /// state reinstated, leaving the VM paused — byte-identical to
    /// [`restore_snapshot`](Self::restore_snapshot) of the same capture.
    pub fn restore_from_cas(
        &mut self,
        id: rvisor_snapshot::ManifestId,
        cas: &rvisor_snapshot::CasStore,
    ) -> Result<()> {
        let (vcpu_states, _pages) = cas.restore(id, &self.memory)?;
        self.finish_restore(vcpu_states)
    }

    fn finish_restore(&mut self, vcpu_states: Vec<rvisor_vcpu::VcpuState>) -> Result<()> {
        if vcpu_states.len() != self.vcpus.len() {
            return Err(Error::Snapshot(format!(
                "snapshot has {} vCPUs but the VM has {}",
                vcpu_states.len(),
                self.vcpus.len()
            )));
        }
        for (vcpu, state) in self.vcpus.iter_mut().zip(&vcpu_states) {
            vcpu.restore_state(state);
        }
        if self.lifecycle != VmLifecycle::Paused {
            self.transition(VmLifecycle::Paused)?;
        }
        Ok(())
    }

    /// Capture the architectural state of all vCPUs (for migration).
    pub fn save_vcpu_states(&self) -> Vec<rvisor_vcpu::VcpuState> {
        self.vcpus.iter().map(|v| v.save_state()).collect()
    }

    /// Restore architectural state of all vCPUs and the source's time `now`
    /// (destination side of migration), so the guest's clock runs on from
    /// where it stopped instead of from zero.
    pub(crate) fn restore_vcpu_states(
        &mut self,
        states: &[rvisor_vcpu::VcpuState],
        now: Nanoseconds,
    ) -> Result<()> {
        if states.len() != self.vcpus.len() {
            return Err(Error::Migration(format!(
                "received {} vCPU states for a VM with {} vCPUs",
                states.len(),
                self.vcpus.len()
            )));
        }
        for (vcpu, state) in self.vcpus.iter_mut().zip(states) {
            vcpu.restore_state(state);
        }
        self.now = now;
        Ok(())
    }

    /// Mark the VM runnable (used by the migration destination after restore).
    ///
    /// Fails if the lifecycle graph forbids the jump (e.g. on a `Halted` or
    /// `Destroyed` VM).
    pub(crate) fn mark_running(&mut self) -> Result<()> {
        if self.lifecycle == VmLifecycle::Running {
            return Ok(());
        }
        self.transition(VmLifecycle::Running)
    }

    /// Mark the VM halted (used by the migration destination when the source
    /// guest had already shut down by the time the hand-over happened).
    pub(crate) fn mark_halted(&mut self) -> Result<()> {
        if self.lifecycle == VmLifecycle::Halted {
            return Ok(());
        }
        self.transition(VmLifecycle::Halted)
    }

    /// Set the balloon to an absolute size in pages. Requires `with_balloon`.
    pub fn set_balloon_pages(&mut self, pages: u64) -> Result<u64> {
        match &mut self.balloon {
            Some(b) => b.set_target(pages),
            None => Err(Error::Device("VM has no balloon device".into())),
        }
    }
}

/// The serial register a port access reaches: the console's ports are
/// `[SERIAL_PORT, SERIAL_PORT + 8)`, the only ports a VM has.
fn serial_register(port: u32) -> Result<u64> {
    match port.checked_sub(layout::SERIAL_PORT) {
        Some(offset) if offset < layout::SERIAL_PORTS => Ok(u64::from(offset)),
        _ => Err(Error::UnmappedIo(GuestAddress(u64::from(port)))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiskConfig;
    use rvisor_vcpu::{Assembler, Instr, Reg, WorkloadKind};
    use rvisor_virtio::mmio::regs;

    fn small_vm() -> Vm {
        Vm::new(VmConfig::new("test").with_memory(ByteSize::mib(4))).unwrap()
    }

    #[test]
    fn compute_workload_runs_to_halt() {
        let mut vm = small_vm();
        let w = Workload::new(WorkloadKind::ComputeBound { iterations: 500 }).unwrap();
        vm.load_workload(&w).unwrap();
        assert_eq!(vm.lifecycle(), VmLifecycle::Running);
        let stats = vm.run_to_halt().unwrap();
        assert_eq!(vm.lifecycle(), VmLifecycle::Halted);
        assert!(stats.instructions > 3000);
        assert!(stats.sim_time > Nanoseconds::ZERO);
        assert_eq!(vm.now(), stats.sim_time);

        // A guest killed after `RETIRED` instructions (a privileged
        // instruction in user mode) has its time on the VM clock too, the
        // killing slice's included, however the VM slices its runs.
        const ENTRY: u64 = 0x1000;
        const RETIRED: u64 = 12;
        let mut asm = Assembler::with_base(ENTRY);
        let r = Reg::new;
        for _ in 0..RETIRED - 2 {
            asm.push(Instr::AddImm {
                rd: r(2),
                rs1: r(2),
                imm: 1,
            });
        }
        asm.push(Instr::MovImm {
            rd: r(1),
            imm: ENTRY as i32 + RETIRED as i32 * 8,
        });
        asm.push(Instr::Iret { rs1: r(1) });
        asm.push(Instr::TlbFlush);
        let image = asm.assemble().unwrap();
        for slice in [1, 7, 100_000] {
            let config = VmConfig::new("killed")
                .with_memory(ByteSize::mib(4))
                .with_slice_instructions(slice);
            let mut vm = Vm::new(config).unwrap();
            vm.load_program(&image, ENTRY).unwrap();
            let err = vm.run_to_halt().unwrap_err();
            assert!(err.to_string().contains("privileged instruction"), "{err}");
            let stats = vm.stats();
            assert_eq!(stats.instructions, RETIRED, "slices of {slice}");
            assert!(stats.sim_time > Nanoseconds::ZERO);
            assert_eq!(vm.now(), stats.sim_time, "slices of {slice}");
        }
    }

    #[test]
    fn workload_too_big_for_memory_rejected() {
        let mut vm = small_vm();
        let w = Workload::new(WorkloadKind::MemoryDirty {
            pages: 10_000,
            passes: 1,
        })
        .unwrap();
        assert!(vm.load_workload(&w).is_err());
    }

    #[test]
    fn guest_serial_output_via_pio_and_hypercall() {
        let mut vm = small_vm();
        let mut asm = Assembler::new();
        let r = Reg::new;
        // Write 'H' via the serial port, 'i' via the console hypercall.
        asm.push(Instr::MovImm {
            rd: r(1),
            imm: b'H' as i32,
        });
        asm.push(Instr::Out {
            rs1: r(1),
            imm: layout::SERIAL_PORT as i32,
        });
        asm.push(Instr::MovImm {
            rd: r(2),
            imm: b'i' as i32,
        });
        asm.push(Instr::Hypercall {
            nr: HypercallNr::ConsolePutChar.raw(),
            rd: r(3),
            rs1: r(2),
        });
        asm.push(Instr::Halt);
        vm.load_program(&asm.assemble().unwrap(), 0x1000).unwrap();
        vm.run_to_halt().unwrap();
        assert_eq!(vm.serial_output(), "Hi");
        assert!(vm.stats().hypercalls >= 1);
    }

    #[test]
    fn guest_reads_rtc_and_ping_hypercall() {
        let mut vm = small_vm();
        vm.now = Nanoseconds::from_secs(3);
        let mut asm = Assembler::new();
        let r = Reg::new;
        asm.load_const(r(1), layout::RTC_MMIO.0 + 8); // full time register
        asm.push(Instr::Load {
            rd: r(2),
            rs1: r(1),
            imm: 0,
        });
        asm.push(Instr::MovImm {
            rd: r(4),
            imm: 1234,
        });
        asm.push(Instr::Hypercall {
            nr: HypercallNr::Ping.raw(),
            rd: r(5),
            rs1: r(4),
        });
        // Store both results to memory so the test can read them back.
        asm.load_const(r(6), 0x2000);
        asm.push(Instr::Store {
            rs2: r(2),
            rs1: r(6),
            imm: 0,
        });
        asm.push(Instr::Store {
            rs2: r(5),
            rs1: r(6),
            imm: 8,
        });
        asm.push(Instr::Halt);
        vm.load_program(&asm.assemble().unwrap(), 0x1000).unwrap();
        vm.run_to_halt().unwrap();
        let rtc_value = vm.memory().read_u64(GuestAddress(0x2000)).unwrap();
        assert!(rtc_value >= 3_000_000_000);
        assert_eq!(vm.memory().read_u64(GuestAddress(0x2008)).unwrap(), 1234);
    }

    #[test]
    fn unknown_hypercall_returns_error_value() {
        let mut vm = small_vm();
        let mut asm = Assembler::new();
        let r = Reg::new;
        asm.push(Instr::Hypercall {
            nr: 999,
            rd: r(5),
            rs1: Reg::ZERO,
        });
        asm.load_const(r(6), 0x2000);
        asm.push(Instr::Store {
            rs2: r(5),
            rs1: r(6),
            imm: 0,
        });
        asm.push(Instr::Halt);
        vm.load_program(&asm.assemble().unwrap(), 0x1000).unwrap();
        vm.run_to_halt().unwrap();
        assert_eq!(
            vm.memory().read_u64(GuestAddress(0x2000)).unwrap(),
            u64::MAX
        );
    }

    #[test]
    fn lifecycle_transitions() {
        let mut vm = small_vm();
        assert_eq!(vm.lifecycle(), VmLifecycle::Created);
        assert!(vm.pause().is_err());
        let w = Workload::new(WorkloadKind::ComputeBound { iterations: 10 }).unwrap();
        vm.load_workload(&w).unwrap();
        vm.pause().unwrap();
        assert!(vm.run_slice().is_err());
        assert!(vm.pause().is_err());
        vm.resume().unwrap();
        vm.run_to_halt().unwrap();
        assert!(vm.resume().is_err());
        vm.destroy();
        assert_eq!(vm.lifecycle(), VmLifecycle::Destroyed);
    }

    #[test]
    fn transition_rejects_illegal_jumps() {
        use VmLifecycle::*;
        // The graph itself.
        assert!(Created.can_transition(Running));
        assert!(Created.can_transition(Paused));
        assert!(Halted.can_transition(Paused));
        assert!(!Halted.can_transition(Running));
        assert!(!Destroyed.can_transition(Running));
        assert!(!Destroyed.can_transition(Destroyed));
        assert!(!Running.can_transition(Running));
        assert!(!Paused.can_transition(Halted));

        // A destroyed VM cannot be resurrected through any mutator.
        let mut vm = small_vm();
        vm.destroy();
        assert!(vm.transition(Running).is_err());
        assert!(vm.mark_running().is_err());
        assert!(vm.mark_halted().is_err());
        assert!(vm.pause().is_err());
        assert!(vm.resume().is_err());
        vm.destroy(); // idempotent, still Destroyed
        assert_eq!(vm.lifecycle(), Destroyed);

        // A halted VM cannot be marked running without a restore.
        let mut vm = small_vm();
        let w = Workload::new(WorkloadKind::ComputeBound { iterations: 10 }).unwrap();
        vm.load_workload(&w).unwrap();
        vm.run_to_halt().unwrap();
        assert!(vm.transition(Running).is_err());
        assert_eq!(vm.lifecycle(), Halted);
        // ... but a snapshot restore legally rewinds it to Paused.
        assert!(Halted.can_transition(Paused));

        // Valid transitions go through.
        let mut vm = small_vm();
        vm.transition(Running).unwrap();
        vm.transition(Paused).unwrap();
        vm.transition(Running).unwrap();
        vm.transition(Halted).unwrap();
        vm.transition(Paused).unwrap();
        vm.transition(Destroyed).unwrap();
    }

    #[test]
    fn idle_guest_advances_clock() {
        let mut vm = small_vm();
        let w = Workload::new(WorkloadKind::Idle { wakeups: 5 }).unwrap();
        vm.load_workload(&w).unwrap();
        vm.run_to_halt().unwrap();
        assert!(vm.now() >= Nanoseconds::from_millis(5));
    }

    #[test]
    fn snapshot_and_restore_roundtrip() {
        let mut vm = small_vm();
        let mut store = SnapshotStore::new();
        let mut asm = Assembler::new();
        let r = Reg::new;
        // Write a marker, pause via Pause, then overwrite the marker and halt.
        asm.load_const(r(1), 0x3000);
        asm.push(Instr::MovImm { rd: r(2), imm: 111 });
        asm.push(Instr::Store {
            rs2: r(2),
            rs1: r(1),
            imm: 0,
        });
        asm.push(Instr::Pause);
        asm.push(Instr::MovImm { rd: r(2), imm: 222 });
        asm.push(Instr::Store {
            rs2: r(2),
            rs1: r(1),
            imm: 0,
        });
        asm.push(Instr::Halt);
        vm.load_program(&asm.assemble().unwrap(), 0x1000).unwrap();

        // Run until the Pause (one slice is enough given the tiny program).
        vm.run_slice().unwrap();
        assert_eq!(vm.memory().read_u64(GuestAddress(0x3000)).unwrap(), 111);
        let snap = vm.snapshot("mid", &mut store).unwrap();

        // Let it finish: the marker becomes 222 and the VM halts.
        vm.run_to_halt().unwrap();
        assert_eq!(vm.memory().read_u64(GuestAddress(0x3000)).unwrap(), 222);

        // Restore: marker back to 111, VM paused at the instruction after Pause.
        vm.restore_snapshot(snap, &store).unwrap();
        assert_eq!(vm.lifecycle(), VmLifecycle::Paused);
        assert_eq!(vm.memory().read_u64(GuestAddress(0x3000)).unwrap(), 111);
        vm.resume().unwrap();
        vm.run_to_halt().unwrap();
        assert_eq!(vm.memory().read_u64(GuestAddress(0x3000)).unwrap(), 222);
    }

    #[test]
    fn balloon_integration() {
        let mut vm = Vm::new(
            VmConfig::new("b")
                .with_memory(ByteSize::mib(4))
                .with_balloon(),
        )
        .unwrap();
        assert!(vm.balloon().is_some());
        let reached = vm.set_balloon_pages(100).unwrap();
        assert_eq!(reached, 100);
        let stats = vm.balloon().unwrap().stats();
        assert_eq!(stats.ballooned, ByteSize::pages_of(100));
        let mut no_balloon = small_vm();
        assert!(no_balloon.set_balloon_pages(1).is_err());
        assert!(no_balloon.balloon().is_none());
    }

    #[test]
    fn disk_and_net_devices_registered() {
        let mut vm = Vm::new(
            VmConfig::new("full")
                .with_memory(ByteSize::mib(8))
                .with_disk(DiskConfig::new("sys", ByteSize::mib(1)))
                .with_net(),
        )
        .unwrap();
        assert!(vm.virtio_blk().is_some());
        assert!(vm.virtio_net().is_some());
        assert!(format!("{vm:?}").contains("full"));
        vm.now = Nanoseconds::from_secs(3);
        vm.serial.inject_input(b"A");
        let at = |base: GuestAddress, offset: u64| GuestAddress(base.0 + offset);
        const VIRTIO_STATUS: u64 = 0x070;

        // Each window routes to its device, at the offset into the window.
        let writes = [
            (at(layout::SERIAL_MMIO, 0), u64::from(b'H')),
            (at(layout::RTC_MMIO, 8), 123), // ignored: read-only
            (at(layout::TIMER_MMIO, 8), 500_000),
            (at(layout::VIRTIO_BLK_MMIO, VIRTIO_STATUS), 0xf),
            (at(layout::VIRTIO_NET_MMIO, VIRTIO_STATUS), 0x7),
        ];
        for (addr, value) in writes {
            vm.mmio_write(addr, value).unwrap();
        }
        let reads = [
            (at(layout::SERIAL_MMIO, 1), 0b11), // rx ready, tx empty
            (at(layout::RTC_MMIO, 8), 3_000_000_000),
            (at(layout::RTC_MMIO, 16), 0), // boot time
            (at(layout::TIMER_MMIO, 8), 500_000),
            (at(layout::TIMER_MMIO, 0), 500_000), // remaining
            (at(layout::VIRTIO_BLK_MMIO, regs::DEVICE_ID), 2),
            (at(layout::VIRTIO_BLK_MMIO, VIRTIO_STATUS), 0xf),
            (at(layout::VIRTIO_NET_MMIO, regs::DEVICE_ID), 1),
            (at(layout::VIRTIO_NET_MMIO, VIRTIO_STATUS), 0x7),
        ];
        for (addr, want) in reads {
            assert_eq!(vm.mmio_read(addr).unwrap(), want, "read at {addr}");
        }
        assert_eq!(vm.serial_output(), "H");
        // The serial ports reach the registers of its MMIO window.
        assert_eq!(serial_register(layout::SERIAL_PORT + 1).unwrap(), 1);
        let data = serial_register(layout::SERIAL_PORT).unwrap();
        assert_eq!(vm.serial.read(data), u64::from(b'A'));

        // Every access outside a device's window fails with its address: a
        // gap between windows, the windows of devices a VM lacks, and the
        // ports beyond the console's eight.
        let mut bare = small_vm();
        let unmapped = [
            (true, at(layout::TIMER_MMIO, layout::MMIO_WINDOW)),
            (true, at(layout::VIRTIO_NET_MMIO, layout::MMIO_WINDOW)),
            (false, layout::VIRTIO_BLK_MMIO),
            (false, at(layout::VIRTIO_NET_MMIO, regs::QUEUE_NOTIFY)),
        ];
        for (full, addr) in unmapped {
            let vm = if full { &mut vm } else { &mut bare };
            for result in [vm.mmio_read(addr).map(drop), vm.mmio_write(addr, 1)] {
                assert!(
                    matches!(result, Err(Error::UnmappedIo(a)) if a == addr),
                    "{addr}: {result:?}"
                );
            }
        }
        for port in [layout::SERIAL_PORT - 1, layout::SERIAL_PORT + 8] {
            let addr = GuestAddress(u64::from(port));
            assert!(matches!(serial_register(port), Err(Error::UnmappedIo(a)) if a == addr));
        }

        assert!(bare.virtio_blk().is_none());
        assert!(bare
            .setup_blk_queue(QueueLayout::contiguous(GuestAddress(0x1000), 16).unwrap().0)
            .is_err());
    }

    #[test]
    fn serial_input_reaches_guest() {
        let mut vm = small_vm();
        vm.serial.inject_input(b"A");
        let mut asm = Assembler::new();
        let r = Reg::new;
        // Line status (rx ready in bit 0), then the data byte.
        asm.push(Instr::In {
            rd: r(3),
            imm: layout::SERIAL_PORT as i32 + 1,
        });
        asm.push(Instr::In {
            rd: r(1),
            imm: layout::SERIAL_PORT as i32,
        });
        asm.load_const(r(2), 0x2000);
        asm.push(Instr::Store {
            rs2: r(1),
            rs1: r(2),
            imm: 0,
        });
        asm.push(Instr::Store {
            rs2: r(3),
            rs1: r(2),
            imm: 8,
        });
        asm.push(Instr::Halt);
        vm.load_program(&asm.assemble().unwrap(), 0x1000).unwrap();
        vm.run_to_halt().unwrap();
        assert_eq!(
            vm.memory().read_u64(GuestAddress(0x2000)).unwrap(),
            b'A' as u64
        );
        let status = vm.memory().read_u64(GuestAddress(0x2008)).unwrap();
        assert_eq!(status & 1, 1, "rx ready before the read");
    }

    #[test]
    fn memory_dirty_workload_dirties_pages() {
        let mut vm = Vm::new(VmConfig::new("dirty").with_memory(ByteSize::mib(8))).unwrap();
        let w = Workload::new(WorkloadKind::MemoryDirty {
            pages: 64,
            passes: 1,
        })
        .unwrap();
        vm.load_workload(&w).unwrap();
        vm.run_to_halt().unwrap();
        assert_eq!(vm.memory().dirty_page_count(), 64);
    }
}
