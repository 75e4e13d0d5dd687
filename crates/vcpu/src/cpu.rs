//! The GISA interpreter: a virtual CPU that produces VM exits.
//!
//! [`Vcpu::run`] executes guest instructions until one of three things
//! happens: the instruction budget is exhausted, the guest performs an action
//! that requires the hypervisor (I/O, hypercall, halt, unresolvable page
//! fault), or the guest misbehaves badly enough to be killed. The returned
//! [`ExitReason`] is the moral equivalent of `KVM_RUN` returning with an exit
//! reason in the `kvm_run` structure.
//!
//! The interpreter charges simulated time according to the [`ExecCosts`] of
//! the configured [`ExecMode`], which is what makes the virtualization-
//! overhead experiments deterministic and host-independent.

use serde::{Deserialize, Serialize};

use rvisor_memory::{GuestAccess, GuestMemory};
use rvisor_types::{Error, GuestAddress, Nanoseconds, Result, VcpuId, PAGE_SIZE};

use crate::exec_mode::{ExecCosts, ExecMode};
use crate::isa::{Instr, Reg, INSTR_BYTES, NUM_REGS};
use crate::mmu::{Mmu, TranslateFault};

/// Number of control/status registers.
pub const NUM_CSRS: usize = 32;

/// CSR index holding the vCPU id (read-only to the guest).
const CSR_VCPU_ID: i32 = 0;
/// CSR index holding the current privilege mode (read-only to the guest).
const CSR_MODE: i32 = 1;

/// Guest privilege modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrivMode {
    /// Guest user mode.
    User,
    /// Guest supervisor (kernel) mode.
    Supervisor,
}

/// Why `Vcpu::run` returned to the hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// The guest executed `Halt`.
    Halt,
    /// The guest read from an address not backed by RAM; the hypervisor must
    /// call [`Vcpu::complete_mmio_read`] with the value before resuming.
    MmioRead {
        /// Guest physical address of the access.
        addr: GuestAddress,
        /// Access width in bytes (always 8 for GISA loads).
        size: u8,
    },
    /// The guest wrote to an address not backed by RAM.
    MmioWrite {
        /// Guest physical address of the access.
        addr: GuestAddress,
        /// Value written.
        value: u64,
        /// Access width in bytes.
        size: u8,
    },
    /// The guest executed `In`; call [`Vcpu::complete_pio_in`] before resuming.
    PioIn {
        /// Port number.
        port: u32,
    },
    /// The guest executed `Out`.
    PioOut {
        /// Port number.
        port: u32,
        /// Value written.
        value: u32,
    },
    /// The guest executed `Hypercall`; optionally call
    /// [`Vcpu::complete_hypercall`] to set the return value.
    Hypercall {
        /// Hypercall number.
        nr: u16,
        /// Argument taken from the guest register.
        arg: u64,
    },
    /// The guest touched an unmapped or protected page. The faulting
    /// instruction has *not* retired; fixing the mapping and resuming will
    /// re-execute it (this is what post-copy migration relies on).
    PageFault {
        /// Faulting guest virtual address.
        vaddr: u64,
        /// Whether the access was a write.
        write: bool,
    },
    /// The instruction budget given to `run` was exhausted (preemption point).
    InstructionLimit,
    /// The guest executed `Pause` — it has no useful work (idle loop).
    Idle,
}

/// The result of one `run` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Why control returned to the hypervisor.
    pub exit: ExitReason,
    /// Instructions retired during this invocation.
    pub instructions: u64,
}

/// Cumulative per-vCPU counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VcpuStats {
    /// Total instructions retired.
    pub instructions: u64,
    /// Total VM exits (all reasons, including emulated privileged traps).
    pub exits: u64,
    /// Exits caused by MMIO accesses.
    pub mmio_exits: u64,
    /// Exits caused by port I/O.
    pub pio_exits: u64,
    /// Hypercalls performed.
    pub hypercalls: u64,
    /// Guest page faults delivered to the hypervisor.
    pub(crate) page_faults: u64,
    /// Privileged instructions that trapped and were emulated.
    pub(crate) privileged_traps: u64,
    /// Halt exits.
    pub(crate) halts: u64,
    /// Idle (Pause) exits.
    pub(crate) idles: u64,
    /// Total simulated guest time.
    pub sim_time_ns: u64,
}

impl VcpuStats {
    /// Simulated time as a typed duration.
    pub fn sim_time(&self) -> Nanoseconds {
        Nanoseconds(self.sim_time_ns)
    }

    /// Exits per million retired instructions (a standard overhead metric).
    pub fn exits_per_million_instructions(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.exits as f64 * 1_000_000.0 / self.instructions as f64
        }
    }
}

/// Configuration for a [`Vcpu`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct VcpuConfig {
    /// Identifier within the VM.
    pub(crate) id: VcpuId,
    /// Virtualization technique being modelled.
    pub(crate) mode: ExecMode,
    /// Cost model; defaults to `mode.default_costs()`.
    pub costs: ExecCosts,
    /// Number of TLB entries.
    pub(crate) tlb_entries: usize,
}

impl VcpuConfig {
    /// A configuration with the default cost model for `mode`.
    pub fn new(id: VcpuId, mode: ExecMode) -> Self {
        VcpuConfig {
            id,
            mode,
            costs: mode.default_costs(),
            tlb_entries: 64,
        }
    }
}

impl Default for VcpuConfig {
    fn default() -> Self {
        VcpuConfig::new(VcpuId::new(0), ExecMode::HardwareAssist)
    }
}

/// Architectural state that is saved/restored by snapshots and migration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VcpuState {
    /// General-purpose registers.
    pub regs: [u64; NUM_REGS],
    /// Program counter (guest virtual address).
    pub pc: u64,
    /// Privilege mode.
    pub mode: PrivMode,
    /// Control/status registers.
    pub csrs: [u64; NUM_CSRS],
    /// Page-table base register.
    pub ptbr: u64,
}

impl Default for VcpuState {
    fn default() -> Self {
        VcpuState {
            regs: [0; NUM_REGS],
            pc: 0,
            mode: PrivMode::Supervisor,
            csrs: [0; NUM_CSRS],
            ptbr: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    None,
    MmioRead { rd: Reg },
    PioIn { rd: Reg },
    Hypercall { rd: Reg },
}

/// Instructions a [`FetchWindow`] holds: 1 KiB of code.
const WINDOW_SLOTS: usize = 128;
/// Guest-physical bytes a [`FetchWindow`] covers.
const WINDOW_BYTES: u64 = WINDOW_SLOTS as u64 * INSTR_BYTES;

/// Already-decoded instructions of the aligned 1 KiB block of guest-physical
/// code the vCPU is executing from — the modelled instruction cache.
///
/// [`Vcpu::run`] empties it on entry. A slot is filled by the ordinary fetch
/// when the PC first reaches it and dropped again when this vCPU stores into
/// its bytes; a fetch outside the block moves the window there and empties
/// it. It is looked up by *physical* address, after translation, so
/// remapping the code page needs no invalidation.
#[derive(Debug)]
struct FetchWindow {
    /// Guest-physical address of slot 0 (a multiple of [`WINDOW_BYTES`]).
    base: u64,
    /// Bit `i % 64` of word `i / 64` set: `slots[i]` is the decoded word at
    /// `base + 8 * i`.
    valid: [u64; WINDOW_SLOTS / 64],
    /// The bits of `valid` whose instruction [`is_simple`]: the fast loop's
    /// one test per instruction.
    simple: [u64; WINDOW_SLOTS / 64],
    slots: [Instr; WINDOW_SLOTS],
}

impl FetchWindow {
    fn new() -> Self {
        FetchWindow {
            base: 0,
            valid: [0; WINDOW_SLOTS / 64],
            simple: [0; WINDOW_SLOTS / 64],
            slots: [Instr::Nop; WINDOW_SLOTS],
        }
    }

    /// The slot holding the instruction word at `paddr`, if the window
    /// covers it.
    fn slot(&self, paddr: u64) -> Option<usize> {
        Self::slot_in(self.base, paddr)
    }

    /// The slot of the word at `paddr` in a window whose slot 0 is at
    /// `base`. Unaligned fetches are never covered. One test does both: an
    /// offset in range and aligned has no bit outside the slot number's.
    fn slot_in(base: u64, paddr: u64) -> Option<usize> {
        let offset = paddr.wrapping_sub(base);
        (offset & !(WINDOW_BYTES - INSTR_BYTES) == 0).then_some((offset / INSTR_BYTES) as usize)
    }

    fn flush(&mut self) {
        self.valid = [0; WINDOW_SLOTS / 64];
        self.simple = [0; WINDOW_SLOTS / 64];
    }

    fn get(&self, paddr: u64) -> Option<Instr> {
        let slot = self.slot(paddr)?;
        (self.valid[slot / 64] >> (slot % 64) & 1 != 0).then(|| self.slots[slot])
    }

    fn fill(&mut self, paddr: u64, instr: Instr) {
        if !paddr.is_multiple_of(INSTR_BYTES) {
            return;
        }
        if self.slot(paddr).is_none() {
            self.base = paddr & !(WINDOW_BYTES - 1);
            self.flush();
        }
        let slot = ((paddr - self.base) / INSTR_BYTES) as usize;
        self.slots[slot] = instr;
        self.valid[slot / 64] |= 1 << (slot % 64);
        self.simple[slot / 64] |= u64::from(is_simple(instr)) << (slot % 64);
    }

    /// Forget the (at most two) instruction words an 8-byte store at `paddr`
    /// overlaps.
    fn snoop_store(&mut self, paddr: u64) {
        for byte in [paddr, paddr.wrapping_add(INSTR_BYTES - 1)] {
            if let Some(slot) = self.slot(byte & !(INSTR_BYTES - 1)) {
                self.valid[slot / 64] &= !(1 << (slot % 64));
                self.simple[slot / 64] &= !(1 << (slot % 64));
            }
        }
    }
}

/// The instructions [`Vcpu::run`]'s fast loop retires: unprivileged, and
/// none exits but through a load or store that misses RAM.
fn is_simple(instr: Instr) -> bool {
    matches!(
        instr,
        Instr::Nop
            | Instr::MovImm { .. }
            | Instr::MovHigh { .. }
            | Instr::Alu { .. }
            | Instr::AddImm { .. }
            | Instr::Branch { .. }
            | Instr::Jal { .. }
            | Instr::Load { .. }
            | Instr::Store { .. }
    )
}

#[cfg(test)]
thread_local! {
    /// Instruction fetches this thread served from guest memory rather than
    /// from a [`FetchWindow`].
    static SLOW_FETCHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A virtual CPU.
#[derive(Debug)]
pub struct Vcpu {
    config: VcpuConfig,
    regs: [u64; NUM_REGS],
    pc: u64,
    mode: PrivMode,
    csrs: [u64; NUM_CSRS],
    mmu: Mmu,
    stats: VcpuStats,
    pending: Pending,
    window: FetchWindow,
}

impl Vcpu {
    /// Create a vCPU in supervisor mode with the PC at zero and paging disabled.
    pub fn new(config: VcpuConfig) -> Self {
        let mut csrs = [0u64; NUM_CSRS];
        csrs[CSR_VCPU_ID as usize] = config.id.raw() as u64;
        Vcpu {
            config,
            regs: [0; NUM_REGS],
            pc: 0,
            mode: PrivMode::Supervisor,
            csrs,
            mmu: Mmu::new(config.tlb_entries),
            stats: VcpuStats::default(),
            pending: Pending::None,
            window: FetchWindow::new(),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> VcpuStats {
        self.stats
    }

    /// Read a general-purpose register.
    pub(crate) fn reg(&self, r: Reg) -> u64 {
        if r.index() == 0 {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Write a general-purpose register (writes to r0 are ignored).
    pub(crate) fn set_reg(&mut self, r: Reg, v: u64) {
        if r.index() != 0 {
            self.regs[r.index()] = v;
        }
    }

    /// Set the program counter (used when loading a program).
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Capture the architectural state for snapshot/migration.
    pub fn save_state(&self) -> VcpuState {
        VcpuState {
            regs: self.regs,
            pc: self.pc,
            mode: self.mode,
            csrs: self.csrs,
            ptbr: self.mmu.ptbr().0,
        }
    }

    /// Restore previously captured architectural state.
    pub fn restore_state(&mut self, state: &VcpuState) {
        self.regs = state.regs;
        self.pc = state.pc;
        self.mode = state.mode;
        self.csrs = state.csrs;
        if state.ptbr != 0 {
            self.mmu.set_ptbr(GuestAddress(state.ptbr));
        } else {
            self.mmu = Mmu::new(self.config.tlb_entries);
        }
        self.pending = Pending::None;
    }

    /// Provide the value for a pending MMIO read and retire the load.
    pub fn complete_mmio_read(&mut self, value: u64) -> Result<()> {
        match self.pending {
            Pending::MmioRead { rd } => {
                self.set_reg(rd, value);
                self.pending = Pending::None;
                Ok(())
            }
            _ => Err(Error::VcpuFault("no MMIO read pending".into())),
        }
    }

    /// Provide the value for a pending port-input and retire the instruction.
    pub fn complete_pio_in(&mut self, value: u32) -> Result<()> {
        match self.pending {
            Pending::PioIn { rd } => {
                self.set_reg(rd, value as u64);
                self.pending = Pending::None;
                Ok(())
            }
            _ => Err(Error::VcpuFault("no port input pending".into())),
        }
    }

    /// Provide the return value of a pending hypercall.
    pub fn complete_hypercall(&mut self, value: u64) -> Result<()> {
        match self.pending {
            Pending::Hypercall { rd } => {
                self.set_reg(rd, value);
                self.pending = Pending::None;
                Ok(())
            }
            _ => Err(Error::VcpuFault("no hypercall pending".into())),
        }
    }

    fn charge(&mut self, ns: u64, elapsed: &mut u64) {
        *elapsed += ns;
    }

    /// Translate a fetch or data access, converting an MMU fault into a
    /// page-fault exit that is already counted and charged. `paging` is
    /// [`Mmu::paging_enabled`] as [`Self::run`] last read it: with paging off
    /// the address is the identity the MMU would return, its counters
    /// untouched.
    #[inline]
    fn translate_data(
        &mut self,
        memory: &GuestAccess<'_>,
        paging: bool,
        vaddr: u64,
        write: bool,
        elapsed: &mut u64,
    ) -> std::result::Result<GuestAddress, ExitReason> {
        if !paging {
            return Ok(GuestAddress(vaddr));
        }
        let user = self.mode == PrivMode::User;
        match self.mmu.translate(memory, vaddr, write, user) {
            Ok(t) => {
                if !t.tlb_hit {
                    self.charge(
                        self.config.costs.tlb_miss_cycles * self.config.costs.cycle_ns,
                        elapsed,
                    );
                }
                Ok(t.paddr)
            }
            Err(fault) => {
                self.stats.page_faults += 1;
                self.stats.exits += 1;
                self.charge(self.config.costs.exit_ns, elapsed);
                Err(ExitReason::PageFault {
                    vaddr,
                    write: write || fault == TranslateFault::NotWritable,
                })
            }
        }
    }

    /// Read and decode the instruction at `pc`, whose first byte translates
    /// to `paddr`, from guest memory.
    ///
    /// This is the whole fetch when the [`FetchWindow`] misses. An
    /// instruction that straddles a page boundary translates its second
    /// page as well (the guest may have mapped a non-adjacent frame there);
    /// a fault on it is a page-fault exit at that page's first byte.
    fn fetch_from_memory(
        &mut self,
        memory: &GuestAccess<'_>,
        paging: bool,
        pc: u64,
        paddr: GuestAddress,
        elapsed: &mut u64,
    ) -> Result<std::result::Result<Instr, ExitReason>> {
        #[cfg(test)]
        SLOW_FETCHES.with(|n| n.set(n.get() + 1));
        let unbacked = |_| {
            Error::VcpuFault(format!(
                "instruction fetch from unbacked address {paddr} at pc 0x{pc:x}"
            ))
        };
        let mut raw = [0u8; INSTR_BYTES as usize];
        let in_first_page = PAGE_SIZE - pc % PAGE_SIZE;
        if in_first_page >= INSTR_BYTES {
            memory.read(paddr, &mut raw).map_err(unbacked)?;
        } else {
            let (head, tail) = raw.split_at_mut(in_first_page as usize);
            memory.read(paddr, head).map_err(unbacked)?;
            let next_page = pc.wrapping_add(in_first_page);
            let tail_paddr = match self.translate_data(memory, paging, next_page, false, elapsed) {
                Ok(p) => p,
                Err(exit) => return Ok(Err(exit)),
            };
            memory.read(tail_paddr, tail).map_err(unbacked)?;
        }
        Instr::decode(&raw, pc).map(Ok)
    }

    /// Execute up to `max_instructions` guest instructions.
    ///
    /// # Instruction cache
    ///
    /// Decoded instructions are kept for the length of one call. The named
    /// assumption about that cache: it is physically tagged, flushed at VM
    /// entry (every call to `run`) and snooped by the executing vCPU's own
    /// stores; code written by any other agent — the loader, a restore, DMA,
    /// a migration sink, another vCPU — is observed from the next `run`.
    /// Those agents all act between calls here (a VM's vCPUs take turns on
    /// one thread; devices and hypercalls are served on exits), so no
    /// counter, exit, register or simulated nanosecond depends on the cache.
    ///
    /// # Fast loop
    ///
    /// The named assumption of the fast loop: it runs only with paging off,
    /// only on instructions the cache holds, and its loads and stores copy
    /// eight bytes directly only inside one memory region. There, the
    /// simple instructions — `Nop`, `MovImm`, `MovHigh`, `Alu`, `AddImm`,
    /// `Branch`, `Jal`, `Load` and `Store` — retire in a tight loop: one
    /// cache lookup each, no translation and no privilege test (with paging
    /// off every address is its own translation, and none of them is
    /// privileged), the cycle time charged once for the run of them, and a
    /// load or store one range check and an 8-byte copy (see
    /// [`GuestAccess::write_u64`]; an access that crosses a region edge or
    /// leaves RAM takes the span walk, and the latter exits to MMIO).
    /// Everything else — paging on, a cache miss, any other instruction —
    /// takes the general step, one instruction at a time. Both execute an
    /// instruction through the same code, so the loop changes no counter,
    /// exit, register, byte or simulated nanosecond; the tests check that
    /// against the same programs stepped one instruction per `run` call.
    ///
    /// # Guest memory
    ///
    /// The same assumption pays for the data path: the call takes every
    /// region's lock once ([`GuestMemory::hold`]), routes all of its memory
    /// traffic — fetches, loads, stores, page-table walks — through that
    /// view, and drops it on the way out, whatever the way out. Another
    /// thread that reads or writes this guest while it runs therefore waits
    /// for the whole slice (≤ 100 k instructions, about a millisecond) where
    /// it used to wait for one store. In this workspace nobody does: a
    /// migration's lane threads are idle while the coordinator runs the
    /// guest between rounds, and KSM, the balloon, snapshots and devices run
    /// between calls on the VM's thread.
    ///
    /// # Errors
    ///
    /// A guest that executes a privileged instruction in user mode, or
    /// fetches from an unbacked address or an undecodable word, is killed:
    /// `Err`. PC, retired-instruction count and simulated time are written
    /// back at one point that `Ok` and `Err` both pass through, so the
    /// instructions retired before the fault and their time stay in
    /// [`VcpuStats`], the same however the caller sliced its runs.
    pub fn run(&mut self, memory: &GuestMemory, max_instructions: u64) -> Result<RunOutcome> {
        if self.pending != Pending::None {
            return Err(Error::VcpuFault(
                "cannot resume: an MMIO/PIO/hypercall completion is pending".into(),
            ));
        }
        // Shadowed for the rest of the call: with every region's lock held,
        // an access through the `GuestMemory` handle would wait for this
        // very call to end, so the loop below cannot name the handle.
        let mut memory = memory.hold();
        let costs = self.config.costs;
        // What cannot change behind the loop's back lives in locals until
        // the write-back below: the PC, the retired-instruction count, the
        // simulated time, and whether paging is on (only `SetPtbr` moves it).
        let mut pc = self.pc;
        let mut executed = 0u64;
        let mut elapsed = 0u64;
        let mut paging = self.mmu.paging_enabled();
        self.window.flush();

        let exit: Result<ExitReason> = loop {
            if executed >= max_instructions {
                break Ok(ExitReason::InstructionLimit);
            }

            if !paging {
                let (retired, exit) = self.run_window(
                    &mut memory,
                    &mut pc,
                    max_instructions - executed,
                    &mut elapsed,
                );
                executed += retired;
                elapsed += retired * costs.cycle_ns;
                if let Some(exit) = exit {
                    break Ok(exit);
                }
                if executed >= max_instructions {
                    break Ok(ExitReason::InstructionLimit);
                }
            }

            // The general step. Fetch: translate first (TLB counters,
            // permission checks and the miss charge are the same either
            // way), then the window, then guest memory.
            let fetch_paddr = match self.translate_data(&memory, paging, pc, false, &mut elapsed) {
                Ok(p) => p,
                Err(exit) => break Ok(exit),
            };
            let instr = match self.window.get(fetch_paddr.0) {
                Some(instr) => instr,
                None => {
                    match self.fetch_from_memory(&memory, paging, pc, fetch_paddr, &mut elapsed) {
                        Ok(Ok(instr)) => {
                            self.window.fill(fetch_paddr.0, instr);
                            instr
                        }
                        Ok(Err(exit)) => break Ok(exit),
                        Err(fatal) => break Err(fatal),
                    }
                }
            };

            // Privilege check / trap-and-emulate accounting.
            if instr.is_privileged() {
                if self.mode == PrivMode::User {
                    break Err(Error::VcpuFault(format!(
                        "privileged instruction {instr:?} in user mode at pc 0x{pc:x}"
                    )));
                }
                if self.config.mode.privileged_traps() {
                    self.stats.privileged_traps += 1;
                    self.stats.exits += 1;
                    self.charge(costs.exit_ns + costs.privileged_emulation_ns, &mut elapsed);
                }
            }

            // A data access that page-faults has not retired: its PC stays
            // on the access, which runs again on resume, so it is counted
            // and charged like a fetch fault, with no cycle.
            let exit = self.execute(&mut memory, paging, instr, &mut pc, &mut elapsed);
            if !matches!(exit, Some(ExitReason::PageFault { .. })) {
                executed += 1;
                self.charge(costs.cycle_ns, &mut elapsed);
            }
            if let Some(exit) = exit {
                break Ok(exit);
            }
            paging = self.mmu.paging_enabled();
        };

        // The one place every way out of the loop passes through, a fatal
        // error included: a killed guest keeps the instructions it retired
        // and the time they took, however its last run was sliced.
        drop(memory);
        self.pc = pc;
        self.stats.instructions += executed;
        self.stats.sim_time_ns += elapsed;
        exit.map(|exit| RunOutcome {
            exit,
            instructions: executed,
        })
    }

    /// The fast loop of [`Self::run`], for paging off: retire
    /// [`is_simple`] instructions straight from the window until one is not
    /// simple or not held, `budget` have retired, or a load or store exits
    /// to MMIO. Returns the instructions retired, the MMIO exit included,
    /// and that exit; the caller charges their cycles.
    #[inline(always)]
    fn run_window(
        &mut self,
        memory: &mut GuestAccess<'_>,
        pc: &mut u64,
        budget: u64,
        elapsed: &mut u64,
    ) -> (u64, Option<ExitReason>) {
        let mut retired = 0;
        // The window moves only when the general step fills a slot outside
        // it, never in here.
        let base = self.window.base;
        while retired < budget {
            let Some(slot) = FetchWindow::slot_in(base, *pc) else {
                break;
            };
            if self.window.simple[slot / 64] >> (slot % 64) & 1 == 0 {
                break;
            }
            let instr = self.window.slots[slot];
            retired += 1;
            if let Some(exit) = self.execute(memory, false, instr, pc, elapsed) {
                return (retired, Some(exit));
            }
        }
        (retired, None)
    }

    /// Every instruction's semantics, once, for both of [`Self::run`]'s
    /// loops: its effect on registers, memory, the window and the PC, and
    /// for an exit its counters and charge. The caller has fetched and
    /// privilege-checked `instr`, and charges its cycle unless the exit is a
    /// page fault; `SetPtbr` leaves the caller to read the new paging state
    /// back from the MMU. `Some(exit)` leaves `run`.
    #[inline(always)]
    fn execute(
        &mut self,
        memory: &mut GuestAccess<'_>,
        paging: bool,
        instr: Instr,
        pc: &mut u64,
        elapsed: &mut u64,
    ) -> Option<ExitReason> {
        let next_pc = pc.wrapping_add(INSTR_BYTES);
        match instr {
            Instr::Nop => *pc = next_pc,
            Instr::Halt => {
                *pc = next_pc;
                self.stats.halts += 1;
                self.stats.exits += 1;
                self.charge(self.config.costs.exit_ns, elapsed);
                return Some(ExitReason::Halt);
            }
            Instr::Pause => {
                *pc = next_pc;
                self.stats.idles += 1;
                self.stats.exits += 1;
                self.charge(self.config.costs.exit_ns, elapsed);
                return Some(ExitReason::Idle);
            }
            Instr::MovImm { rd, imm } => {
                self.set_reg(rd, imm as i64 as u64);
                *pc = next_pc;
            }
            Instr::MovHigh { rd, imm } => {
                let v = (self.reg(rd) << 32) | (imm as u32 as u64);
                self.set_reg(rd, v);
                *pc = next_pc;
            }
            Instr::Alu { op, rd, rs1, rs2 } => {
                let v = op.apply(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                *pc = next_pc;
            }
            Instr::AddImm { rd, rs1, imm } => {
                let v = self.reg(rs1).wrapping_add(imm as i64 as u64);
                self.set_reg(rd, v);
                *pc = next_pc;
            }
            Instr::Load { rd, rs1, imm } => {
                let vaddr = self.reg(rs1).wrapping_add(imm as i64 as u64);
                let paddr = match self.translate_data(memory, paging, vaddr, false, elapsed) {
                    Ok(p) => p,
                    Err(exit) => return Some(exit),
                };
                match memory.read_u64(paddr) {
                    Ok(v) => {
                        self.set_reg(rd, v);
                        *pc = next_pc;
                    }
                    Err(_) => {
                        // Not backed by RAM: MMIO read.
                        self.pending = Pending::MmioRead { rd };
                        *pc = next_pc;
                        self.stats.mmio_exits += 1;
                        self.stats.exits += 1;
                        self.charge(self.config.costs.mmio_exit_ns, elapsed);
                        return Some(ExitReason::MmioRead {
                            addr: paddr,
                            size: 8,
                        });
                    }
                }
            }
            Instr::Store { rs2, rs1, imm } => {
                let vaddr = self.reg(rs1).wrapping_add(imm as i64 as u64);
                let value = self.reg(rs2);
                let paddr = match self.translate_data(memory, paging, vaddr, true, elapsed) {
                    Ok(p) => p,
                    Err(exit) => return Some(exit),
                };
                match memory.write_u64(paddr, value) {
                    Ok(()) => {
                        self.window.snoop_store(paddr.0);
                        *pc = next_pc;
                    }
                    Err(_) => {
                        *pc = next_pc;
                        self.stats.mmio_exits += 1;
                        self.stats.exits += 1;
                        self.charge(self.config.costs.mmio_exit_ns, elapsed);
                        return Some(ExitReason::MmioWrite {
                            addr: paddr,
                            value,
                            size: 8,
                        });
                    }
                }
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                imm,
            } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let taken = match cond {
                    crate::isa::Cond::Eq => a == b,
                    crate::isa::Cond::Ne => a != b,
                    crate::isa::Cond::Lt => a < b,
                    crate::isa::Cond::Ge => a >= b,
                };
                *pc = if taken {
                    next_pc.wrapping_add(imm as i64 as u64)
                } else {
                    next_pc
                };
            }
            Instr::Jal { rd, imm } => {
                self.set_reg(rd, next_pc);
                *pc = next_pc.wrapping_add(imm as i64 as u64);
            }
            Instr::Jalr { rd, rs1 } => {
                let target = self.reg(rs1);
                self.set_reg(rd, next_pc);
                *pc = target;
            }
            Instr::Hypercall { nr, rd, rs1 } => {
                let arg = self.reg(rs1);
                self.set_reg(rd, 0);
                self.pending = Pending::Hypercall { rd };
                *pc = next_pc;
                self.stats.hypercalls += 1;
                self.stats.exits += 1;
                self.charge(self.config.costs.hypercall_ns, elapsed);
                return Some(ExitReason::Hypercall { nr, arg });
            }
            Instr::Out { rs1, imm } => {
                let value = self.reg(rs1) as u32;
                *pc = next_pc;
                self.stats.pio_exits += 1;
                self.stats.exits += 1;
                self.charge(self.config.costs.pio_exit_ns, elapsed);
                return Some(ExitReason::PioOut {
                    port: imm as u32,
                    value,
                });
            }
            Instr::In { rd, imm } => {
                self.pending = Pending::PioIn { rd };
                *pc = next_pc;
                self.stats.pio_exits += 1;
                self.stats.exits += 1;
                self.charge(self.config.costs.pio_exit_ns, elapsed);
                return Some(ExitReason::PioIn { port: imm as u32 });
            }
            Instr::SetPtbr { rs1 } => {
                let ptbr = self.reg(rs1);
                self.mmu.set_ptbr(GuestAddress(ptbr));
                *pc = next_pc;
            }
            Instr::TlbFlush => {
                self.mmu.flush_tlb();
                *pc = next_pc;
            }
            Instr::ReadCsr { rd, imm } => {
                let idx = (imm as usize) % NUM_CSRS;
                let v = if imm == CSR_MODE {
                    match self.mode {
                        PrivMode::User => 0,
                        PrivMode::Supervisor => 1,
                    }
                } else {
                    self.csrs[idx]
                };
                self.set_reg(rd, v);
                *pc = next_pc;
            }
            Instr::WriteCsr { rs1, imm } => {
                let idx = (imm as usize) % NUM_CSRS;
                if imm != CSR_VCPU_ID && imm != CSR_MODE {
                    self.csrs[idx] = self.reg(rs1);
                }
                *pc = next_pc;
            }
            Instr::Iret { rs1 } => {
                *pc = self.reg(rs1);
                self.mode = PrivMode::User;
            }
        }
        None
    }
}

#[cfg(test)]
mod window_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::isa::{AluOp, Cond};
    use rvisor_types::ByteSize;

    impl Vcpu {
        /// TLB statistics from the MMU.
        pub(crate) fn tlb_stats(&self) -> crate::mmu::TlbStats {
            self.mmu.tlb_stats()
        }
    }

    fn memory() -> GuestMemory {
        GuestMemory::flat(ByteSize::mib(1)).unwrap()
    }

    fn vcpu(mode: ExecMode) -> Vcpu {
        let mut cfg = VcpuConfig::new(VcpuId::new(0), mode);
        cfg.costs = ExecCosts::FREE;
        Vcpu::new(cfg)
    }

    fn load(mem: &GuestMemory, at: u64, program: &[Instr]) {
        let mut addr = at;
        for instr in program {
            mem.write(GuestAddress(addr), &instr.encode()).unwrap();
            addr += INSTR_BYTES;
        }
    }

    #[test]
    fn arithmetic_program_runs_to_halt() {
        let mem = memory();
        let r = Reg::new;
        load(
            &mem,
            0,
            &[
                Instr::MovImm { rd: r(1), imm: 6 },
                Instr::MovImm { rd: r(2), imm: 7 },
                Instr::Alu {
                    op: AluOp::Mul,
                    rd: r(3),
                    rs1: r(1),
                    rs2: r(2),
                },
                Instr::Halt,
            ],
        );
        let mut cpu = vcpu(ExecMode::HardwareAssist);
        let out = cpu.run(&mem, 100).unwrap();
        assert_eq!(out.exit, ExitReason::Halt);
        assert_eq!(out.instructions, 4);
        assert_eq!(cpu.reg(r(3)), 42);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let mem = memory();
        load(
            &mem,
            0,
            &[
                Instr::MovImm {
                    rd: Reg::ZERO,
                    imm: 99,
                },
                Instr::Halt,
            ],
        );
        let mut cpu = vcpu(ExecMode::HardwareAssist);
        cpu.run(&mem, 10).unwrap();
        assert_eq!(cpu.reg(Reg::ZERO), 0);
    }

    #[test]
    fn loop_with_branch_counts_correctly() {
        let mem = memory();
        let mut asm = Assembler::new();
        let r = Reg::new;
        asm.push(Instr::MovImm { rd: r(1), imm: 10 }); // counter
        asm.push(Instr::MovImm { rd: r(2), imm: 0 }); // accumulator
        asm.label("loop");
        asm.push(Instr::AddImm {
            rd: r(2),
            rs1: r(2),
            imm: 3,
        });
        asm.push(Instr::AddImm {
            rd: r(1),
            rs1: r(1),
            imm: -1,
        });
        asm.branch_to(Cond::Ne, r(1), Reg::ZERO, "loop");
        asm.push(Instr::Halt);
        let program = asm.assemble().unwrap();
        mem.write(GuestAddress(0), &program).unwrap();

        let mut cpu = vcpu(ExecMode::HardwareAssist);
        let out = cpu.run(&mem, 1000).unwrap();
        assert_eq!(out.exit, ExitReason::Halt);
        assert_eq!(cpu.reg(r(2)), 30);
    }

    #[test]
    fn load_store_roundtrip_through_guest_memory() {
        let mem = memory();
        let r = Reg::new;
        load(
            &mem,
            0,
            &[
                Instr::MovImm {
                    rd: r(1),
                    imm: 0x8000,
                },
                Instr::MovImm {
                    rd: r(2),
                    imm: 1234,
                },
                Instr::Store {
                    rs2: r(2),
                    rs1: r(1),
                    imm: 16,
                },
                Instr::Load {
                    rd: r(3),
                    rs1: r(1),
                    imm: 16,
                },
                Instr::Halt,
            ],
        );
        let mut cpu = vcpu(ExecMode::HardwareAssist);
        cpu.run(&mem, 10).unwrap();
        assert_eq!(cpu.reg(r(3)), 1234);
        assert_eq!(mem.read_u64(GuestAddress(0x8010)).unwrap(), 1234);
    }

    #[test]
    fn mmio_access_exits_and_resumes() {
        let mem = memory(); // 1 MiB of RAM; 0x200000 is unbacked -> MMIO
        let r = Reg::new;
        load(
            &mem,
            0,
            &[
                Instr::MovImm {
                    rd: r(1),
                    imm: 0x20_0000,
                },
                Instr::Store {
                    rs2: r(2),
                    rs1: r(1),
                    imm: 0,
                },
                Instr::Load {
                    rd: r(3),
                    rs1: r(1),
                    imm: 8,
                },
                Instr::Halt,
            ],
        );
        let mut cpu = vcpu(ExecMode::HardwareAssist);
        let out = cpu.run(&mem, 10).unwrap();
        assert_eq!(
            out.exit,
            ExitReason::MmioWrite {
                addr: GuestAddress(0x20_0000),
                value: 0,
                size: 8
            }
        );

        let out = cpu.run(&mem, 10).unwrap();
        assert_eq!(
            out.exit,
            ExitReason::MmioRead {
                addr: GuestAddress(0x20_0008),
                size: 8
            }
        );
        cpu.complete_mmio_read(0xabcd).unwrap();
        let out = cpu.run(&mem, 10).unwrap();
        assert_eq!(out.exit, ExitReason::Halt);
        assert_eq!(cpu.reg(r(3)), 0xabcd);
        assert_eq!(cpu.stats().mmio_exits, 2);
    }

    #[test]
    fn resume_without_completion_is_an_error() {
        let mem = memory();
        let r = Reg::new;
        load(
            &mem,
            0,
            &[
                Instr::MovImm {
                    rd: r(1),
                    imm: 0x20_0000,
                },
                Instr::Load {
                    rd: r(3),
                    rs1: r(1),
                    imm: 0,
                },
                Instr::Halt,
            ],
        );
        let mut cpu = vcpu(ExecMode::HardwareAssist);
        let out = cpu.run(&mem, 10).unwrap();
        assert!(matches!(out.exit, ExitReason::MmioRead { .. }));
        assert!(cpu.run(&mem, 10).is_err());
        assert!(cpu.complete_pio_in(0).is_err());
        cpu.complete_mmio_read(1).unwrap();
        assert!(cpu.run(&mem, 10).is_ok());
    }

    #[test]
    fn pio_and_hypercall_exits() {
        let mem = memory();
        let r = Reg::new;
        load(
            &mem,
            0,
            &[
                Instr::MovImm { rd: r(1), imm: 65 },
                Instr::Out {
                    rs1: r(1),
                    imm: 0x3f8,
                },
                Instr::In {
                    rd: r(2),
                    imm: 0x3f8,
                },
                Instr::Hypercall {
                    nr: 4,
                    rd: r(3),
                    rs1: r(1),
                },
                Instr::Halt,
            ],
        );
        let mut cpu = vcpu(ExecMode::Paravirt);
        let out = cpu.run(&mem, 10).unwrap();
        assert_eq!(
            out.exit,
            ExitReason::PioOut {
                port: 0x3f8,
                value: 65
            }
        );
        let out = cpu.run(&mem, 10).unwrap();
        assert_eq!(out.exit, ExitReason::PioIn { port: 0x3f8 });
        cpu.complete_pio_in(66).unwrap();
        let out = cpu.run(&mem, 10).unwrap();
        assert_eq!(out.exit, ExitReason::Hypercall { nr: 4, arg: 65 });
        cpu.complete_hypercall(77).unwrap();
        let out = cpu.run(&mem, 10).unwrap();
        assert_eq!(out.exit, ExitReason::Halt);
        assert_eq!(cpu.reg(r(2)), 66);
        assert_eq!(cpu.reg(r(3)), 77);
        assert_eq!(cpu.stats().pio_exits, 2);
        assert_eq!(cpu.stats().hypercalls, 1);
    }

    #[test]
    fn instruction_limit_preempts() {
        let mem = memory();
        // Infinite loop: jump to self.
        load(
            &mem,
            0,
            &[Instr::Jal {
                rd: Reg::ZERO,
                imm: -(INSTR_BYTES as i32),
            }],
        );
        let mut cpu = vcpu(ExecMode::HardwareAssist);
        let out = cpu.run(&mem, 50).unwrap();
        assert_eq!(out.exit, ExitReason::InstructionLimit);
        assert_eq!(out.instructions, 50);
        // The budget ends inside the fast loop's run of simple
        // instructions, each charged its cycle.
        let costs = ExecMode::HardwareAssist.default_costs();
        for budget in [1, 2, 7, 1_000] {
            let mut cpu = Vcpu::new(VcpuConfig::new(VcpuId::new(0), ExecMode::HardwareAssist));
            let out = cpu.run(&mem, budget).unwrap();
            assert_eq!(out.exit, ExitReason::InstructionLimit);
            assert_eq!(out.instructions, budget);
            assert_eq!(cpu.stats().sim_time_ns, budget * costs.cycle_ns);
            assert_eq!(cpu.save_state().pc, 0);
        }
    }

    #[test]
    fn pause_produces_idle_exit() {
        let mem = memory();
        load(&mem, 0, &[Instr::Pause, Instr::Halt]);
        let mut cpu = vcpu(ExecMode::HardwareAssist);
        assert_eq!(cpu.run(&mem, 10).unwrap().exit, ExitReason::Idle);
        assert_eq!(cpu.run(&mem, 10).unwrap().exit, ExitReason::Halt);
        assert_eq!(cpu.stats().idles, 1);
    }

    #[test]
    fn privileged_traps_counted_only_when_mode_traps() {
        let mem = memory();
        let program = [
            Instr::TlbFlush,
            Instr::TlbFlush,
            Instr::WriteCsr {
                rs1: Reg::new(1),
                imm: 20,
            },
            Instr::Halt,
        ];
        for (mode, expected_traps) in [
            (ExecMode::TrapAndEmulate, 4),
            (ExecMode::Paravirt, 4),
            (ExecMode::HardwareAssist, 0),
        ] {
            load(&mem, 0, &program);
            let mut cpu = vcpu(mode);
            cpu.run(&mem, 10).unwrap();
            assert_eq!(
                cpu.stats().privileged_traps,
                expected_traps,
                "mode {mode:?}"
            );
        }
    }

    #[test]
    fn trap_and_emulate_charges_more_time_for_privileged_work() {
        let mem = memory();
        let program = [
            Instr::TlbFlush,
            Instr::TlbFlush,
            Instr::TlbFlush,
            Instr::Halt,
        ];
        load(&mem, 0, &program);
        let mut te = Vcpu::new(VcpuConfig::new(VcpuId::new(0), ExecMode::TrapAndEmulate));
        let mut hw = Vcpu::new(VcpuConfig::new(VcpuId::new(1), ExecMode::HardwareAssist));
        te.run(&mem, 10).unwrap();
        load(&mem, 0, &program);
        hw.run(&mem, 10).unwrap();
        assert!(te.stats().sim_time_ns > hw.stats().sim_time_ns);
    }

    #[test]
    fn csr_access_and_mode() {
        let mem = memory();
        let r = Reg::new;
        load(
            &mem,
            0,
            &[
                Instr::ReadCsr {
                    rd: r(1),
                    imm: CSR_VCPU_ID,
                },
                Instr::ReadCsr {
                    rd: r(2),
                    imm: CSR_MODE,
                },
                Instr::MovImm { rd: r(3), imm: 55 },
                Instr::WriteCsr { rs1: r(3), imm: 20 },
                Instr::ReadCsr { rd: r(4), imm: 20 },
                Instr::Halt,
            ],
        );
        let mut cfg = VcpuConfig::new(VcpuId::new(9), ExecMode::HardwareAssist);
        cfg.costs = ExecCosts::FREE;
        let mut cpu = Vcpu::new(cfg);
        cpu.run(&mem, 10).unwrap();
        assert_eq!(cpu.reg(r(1)), 9);
        assert_eq!(cpu.reg(r(2)), 1); // supervisor
        assert_eq!(cpu.reg(r(4)), 55);
    }

    #[test]
    fn iret_switches_to_user_mode_and_priv_faults() {
        let mem = memory();
        let r = Reg::new;
        // Supervisor: set r1 to user code address, iret. User code at 0x100 does TlbFlush -> fault.
        load(
            &mem,
            0,
            &[
                Instr::MovImm {
                    rd: r(1),
                    imm: 0x100,
                },
                Instr::Iret { rs1: r(1) },
            ],
        );
        load(&mem, 0x100, &[Instr::TlbFlush, Instr::Halt]);
        let mut cpu = vcpu(ExecMode::HardwareAssist);
        let err = cpu.run(&mem, 10).unwrap_err();
        assert!(matches!(err, Error::VcpuFault(_)));
        assert_eq!(cpu.save_state().mode, PrivMode::User);
    }

    #[test]
    fn save_restore_state_roundtrip() {
        let mem = memory();
        let r = Reg::new;
        load(
            &mem,
            0,
            &[
                Instr::MovImm { rd: r(5), imm: 123 },
                Instr::Pause,
                Instr::Halt,
            ],
        );
        let mut cpu = vcpu(ExecMode::HardwareAssist);
        cpu.run(&mem, 10).unwrap(); // stops at Pause
        let state = cpu.save_state();

        let mut other = vcpu(ExecMode::HardwareAssist);
        other.restore_state(&state);
        assert_eq!(other.reg(r(5)), 123);
        assert_eq!(other.save_state().pc, cpu.save_state().pc);
        let out = other.run(&mem, 10).unwrap();
        assert_eq!(out.exit, ExitReason::Halt);
    }

    #[test]
    fn page_fault_exit_is_restartable() {
        let mem = memory();
        let r = Reg::new;
        // Enable paging with an empty page table, then touch an unmapped address.
        // First build a page table area at 0x40000 identity-mapping only the code page.
        use crate::mmu::tests::PageTableEditor;
        let mut ed = PageTableEditor::new(mem.clone(), GuestAddress(0x40000), 16 * 4096).unwrap();
        ed.identity_map(GuestAddress(0), 4096, true, false).unwrap();
        load(
            &mem,
            0,
            &[
                Instr::MovImm {
                    rd: r(1),
                    imm: 0x40000,
                },
                Instr::SetPtbr { rs1: r(1) },
                Instr::MovImm {
                    rd: r(2),
                    imm: 0x9000,
                }, // unmapped vaddr
                Instr::Load {
                    rd: r(3),
                    rs1: r(2),
                    imm: 0,
                },
                Instr::Halt,
            ],
        );
        let mut cpu = vcpu(ExecMode::HardwareAssist);
        let out = cpu.run(&mem, 100).unwrap();
        assert_eq!(
            out.exit,
            ExitReason::PageFault {
                vaddr: 0x9000,
                write: false
            }
        );
        // The faulting load has not retired: three instructions ran.
        assert_eq!(out.instructions, 3);
        // Hypervisor fixes the mapping (demand paging) and resumes; the load retries.
        ed.map(0x9000, GuestAddress(0x9000), true, false).unwrap();
        mem.write_u64(GuestAddress(0x9000), 777).unwrap();
        let out = cpu.run(&mem, 100).unwrap();
        assert_eq!(out.exit, ExitReason::Halt);
        assert_eq!(cpu.reg(r(3)), 777);
        assert_eq!(cpu.stats().page_faults, 1);
        assert_eq!(cpu.stats().instructions, 5);
    }

    #[test]
    fn stats_exits_per_million() {
        let mut s = VcpuStats::default();
        assert_eq!(s.exits_per_million_instructions(), 0.0);
        s.instructions = 2_000_000;
        s.exits = 4;
        assert!((s.exits_per_million_instructions() - 2.0).abs() < 1e-9);
    }
}
