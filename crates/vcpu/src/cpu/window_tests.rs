//! The fetch window against the interpreter without one.
//!
//! The reference is the same [`Vcpu`] stepped one instruction per
//! [`Vcpu::run`] call: `run` empties the window on entry, so every reference
//! step reads and decodes its instruction from guest memory, as every fetch
//! did before the window existed (the last test here pins that), and none
//! reaches the fast loop, whose first lookup finds the window empty. Two
//! identical guests run the same program, one in slices of random length and
//! one stepped, and everything observable is compared after every slice.

use super::*;
use crate::asm::Assembler;
use crate::isa::{AluOp, Cond};
use crate::mmu::tests::PageTableEditor;
use crate::mmu::Pte;
use crate::workloads::{Workload, WorkloadKind};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rvisor_memory::GuestMemoryBuilder;
use rvisor_types::ByteSize;
use std::ops::RangeInclusive;

const CODE: u64 = 0x1000;
const DATA: u64 = 0x4000;
/// Where [`small_pair`]'s two regions meet, and where its RAM ends.
const EDGE: u64 = 0x8000;
const RAM_END: u64 = 0x1_0000;
/// Beyond every memory these tests build: a load or store here is MMIO.
const MMIO: u64 = 0x20_0000;

struct Guest {
    cpu: Vcpu,
    mem: GuestMemory,
}

impl Guest {
    fn new(mode: ExecMode, tlb_entries: usize, size: ByteSize) -> Guest {
        Guest::over(mode, tlb_entries, GuestMemory::flat(size).unwrap())
    }

    fn over(mode: ExecMode, tlb_entries: usize, mem: GuestMemory) -> Guest {
        let mut config = VcpuConfig::new(VcpuId::new(0), mode);
        config.tlb_entries = tlb_entries;
        Guest {
            cpu: Vcpu::new(config),
            mem,
        }
    }

    fn load(&self, at: u64, program: &[Instr]) {
        for (i, instr) in program.iter().enumerate() {
            self.mem
                .write(GuestAddress(at + i as u64 * INSTR_BYTES), &instr.encode())
                .unwrap();
        }
    }
}

/// Two guests built by the same closure: `window` runs in slices,
/// `reference` is stepped.
struct Pair {
    window: Guest,
    reference: Guest,
}

impl Pair {
    fn new(build: impl Fn() -> Guest) -> Pair {
        Pair {
            window: build(),
            reference: build(),
        }
    }

    fn each(&mut self, f: impl Fn(&mut Guest)) {
        f(&mut self.window);
        f(&mut self.reference);
    }

    /// Everything a caller of `run` can observe, on both guests — after a
    /// fatal error too: a killed guest keeps its clock.
    fn assert_same(&self, when: &str) {
        let (w, r) = (&self.window, &self.reference);
        assert_eq!(w.cpu.save_state(), r.cpu.save_state(), "{when}: state");
        assert_eq!(w.cpu.pending, r.cpu.pending, "{when}: pending completion");
        assert_eq!(w.cpu.stats(), r.cpu.stats(), "{when}: VcpuStats");
        assert_eq!(w.cpu.tlb_stats(), r.cpu.tlb_stats(), "{when}: TlbStats");
        assert_eq!(
            w.cpu.mmu.walk_count(),
            r.cpu.mmu.walk_count(),
            "{when}: page-table walks"
        );
        assert_eq!(
            w.mem.dirty_pages(),
            r.mem.dirty_pages(),
            "{when}: dirty bitmap"
        );
        let len = w.mem.total_size().as_u64();
        assert!(
            w.mem.read_vec(GuestAddress(0), len).unwrap()
                == r.mem.read_vec(GuestAddress(0), len).unwrap(),
            "{when}: guest memory contents"
        );
        // The checksum plane: a store that changed a byte without its mark
        // leaves a cached sum the contents above no longer have.
        assert_eq!(w.mem.checksum(), r.mem.checksum(), "{when}: checksum");
    }

    /// Run both guests until `budget` instructions have retired, the guest
    /// halts, page-faults or is killed. Slice lengths are drawn from `rng`
    /// within `slices`. Returns the exits other than `InstructionLimit` and
    /// the fatal error, if any; both are checked equal between the guests.
    fn run_lockstep(
        &mut self,
        rng: &mut TestRng,
        slices: &RangeInclusive<usize>,
        budget: u64,
    ) -> (Vec<ExitReason>, Option<String>) {
        let mut exits = Vec::new();
        let mut retired = 0;
        while retired < budget {
            let slice = rng.next_usize_inclusive(*slices.start(), *slices.end()) as u64;
            let got = self.window.cpu.run(&self.window.mem, slice);
            let want = run_reference(&mut self.reference, slice);
            let when = format!("after {retired} instructions, slice of {slice}");
            self.assert_same(&when);
            let outcome = match (got, want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got, want, "{when}: outcome");
                    got
                }
                (Err(got), Err(want)) => {
                    assert_eq!(got.to_string(), want.to_string(), "{when}: error");
                    return (exits, Some(got.to_string()));
                }
                (got, want) => panic!("{when}: window {got:?}, reference {want:?}"),
            };
            retired += outcome.instructions;
            if outcome.exit != ExitReason::InstructionLimit {
                exits.push(outcome.exit);
            }
            match outcome.exit {
                ExitReason::Halt | ExitReason::PageFault { .. } => break,
                ExitReason::Hypercall { .. } => {
                    self.each(|g| g.cpu.complete_hypercall(0x77).unwrap())
                }
                ExitReason::MmioRead { .. } => {
                    self.each(|g| g.cpu.complete_mmio_read(0xabcd).unwrap())
                }
                ExitReason::PioIn { .. } => self.each(|g| g.cpu.complete_pio_in(0x42).unwrap()),
                _ => {}
            }
        }
        (exits, None)
    }
}

/// `Vcpu::run` as it was before the window: one instruction per entry.
fn run_reference(guest: &mut Guest, max_instructions: u64) -> Result<RunOutcome> {
    let mut total = RunOutcome {
        exit: ExitReason::InstructionLimit,
        instructions: 0,
    };
    while total.instructions < max_instructions {
        let step = guest.cpu.run(&guest.mem, 1)?;
        total.instructions += step.instructions;
        if step.exit != ExitReason::InstructionLimit {
            total.exit = step.exit;
            break;
        }
    }
    Ok(total)
}

fn rng() -> TestRng {
    TestRng::deterministic(0x77_69_6e)
}

/// How the named cases slice their runs: one `run` call per exit, so the
/// window is as warm as it can be, and short random slices.
const SLICINGS: [RangeInclusive<usize>; 2] = [1_000..=1_000, 1..=7];

fn r(index: u8) -> Reg {
    Reg::new(index)
}

fn word(instr: Instr) -> u64 {
    u64::from_le_bytes(instr.encode())
}

fn add_imm(rd: u8, imm: i32) -> Instr {
    Instr::AddImm {
        rd: r(rd),
        rs1: r(rd),
        imm,
    }
}

fn store(value: u8, base: u8, imm: i32) -> Instr {
    Instr::Store {
        rs2: r(value),
        rs1: r(base),
        imm,
    }
}

/// `Branch` at instruction index `at` to instruction index `to`.
fn branch(cond: Cond, rs1: u8, rs2: u8, at: i32, to: i32) -> Instr {
    Instr::Branch {
        cond,
        rs1: r(rs1),
        rs2: r(rs2),
        imm: (to - at - 1) * INSTR_BYTES as i32,
    }
}

/// A 64 KiB guest, two adjacent 32 KiB regions that meet at [`EDGE`], with
/// `program` at [`CODE`] and the PC on it.
fn small_pair(program: &[Instr]) -> Pair {
    Pair::new(|| {
        let mem = GuestMemoryBuilder::new()
            .with_region(GuestAddress(0), ByteSize::kib(32))
            .unwrap()
            .with_region(GuestAddress(EDGE), ByteSize::kib(32))
            .unwrap()
            .build();
        let mut g = Guest::over(ExecMode::TrapAndEmulate, 64, mem);
        g.load(CODE, program);
        g.mem.clear_dirty();
        g.cpu.set_pc(CODE);
        g
    })
}

#[test]
fn all_workload_kinds_match_the_reference_with_and_without_paging() {
    let kinds = [
        WorkloadKind::ComputeBound { iterations: 300 },
        WorkloadKind::MemoryDirty {
            pages: 3,
            passes: 60,
        },
        WorkloadKind::IoBound {
            requests: 40,
            port: 0x3f8,
        },
        WorkloadKind::PrivilegedHeavy { iterations: 120 },
        WorkloadKind::HypercallHeavy { iterations: 50 },
        WorkloadKind::Idle { wakeups: 20 },
    ];
    let mut rng = rng();
    // Flat, and split where the data starts: code in the first region, the
    // dirtied pages and the page tables in the second.
    let layouts = ExecMode::ALL
        .into_iter()
        .map(|mode| (mode, false))
        .chain([(ExecMode::TrapAndEmulate, true)]);
    for kind in kinds {
        for (mode, split) in layouts.clone() {
            // Paging off runs the fast loop, paging on the general step
            // alone: besides time and the MMU's own counters, both end in
            // the same registers, counters and guest bytes below the tables.
            let mut unpaged = None;
            for paging in [false, true] {
                let workload = Workload::new(kind).unwrap();
                let tables = GuestAddress(workload.required_memory()).page_base();
                let size = ByteSize::new(workload.required_memory() + 16 * PAGE_SIZE);
                let size = size.page_align_up();
                let mut pair = Pair::new(|| {
                    let mem = if split {
                        let low = ByteSize::new(workload.data_base());
                        GuestMemoryBuilder::new()
                            .with_region(GuestAddress(0), low)
                            .unwrap()
                            .with_region(
                                GuestAddress(low.as_u64()),
                                ByteSize::new(size.as_u64() - low.as_u64()),
                            )
                            .unwrap()
                            .build()
                    } else {
                        GuestMemory::flat(size).unwrap()
                    };
                    // Two TLB entries for code, data and three dirtied
                    // pages: misses, walks and their charge all occur.
                    let mut g = Guest::over(mode, 2, mem);
                    if paging {
                        let mut ed =
                            PageTableEditor::new(g.mem.clone(), tables, 8 * PAGE_SIZE).unwrap();
                        ed.identity_map(GuestAddress(0), tables.0, true, false)
                            .unwrap();
                        g.cpu.restore_state(&VcpuState {
                            ptbr: ed.root().0,
                            ..VcpuState::default()
                        });
                    }
                    workload.install(&g.mem, &mut g.cpu).unwrap();
                    g
                });
                let (exits, error) = pair.run_lockstep(&mut rng, &(1..=700), 100_000);
                assert_eq!(
                    error, None,
                    "{kind:?} {mode:?} paging={paging} split={split}"
                );
                assert_eq!(exits.last(), Some(&ExitReason::Halt), "{kind:?}");
                if paging {
                    assert!(pair.window.cpu.mmu.walk_count() > 0);
                }
                let g = &pair.window;
                let architectural = (
                    g.cpu.save_state().regs,
                    g.cpu.save_state().pc,
                    VcpuStats {
                        sim_time_ns: 0,
                        ..g.cpu.stats()
                    },
                    exits,
                    g.mem.read_vec(GuestAddress(0), tables.0).unwrap(),
                );
                match &unpaged {
                    None => unpaged = Some(architectural),
                    Some(off) => assert!(
                        &architectural == off,
                        "{kind:?} {mode:?} split={split}: paging on against off"
                    ),
                }
            }
        }
    }
}

/// Map five small integers onto an instruction that keeps a generated
/// program alive: results land in r8..r11, so the pointers in r1..r3 and r7,
/// the instruction words in r4/r5 and the jump target in r6 mostly survive
/// (r12 is out of the operands' reach). Without `exits` the program never
/// leaves `run` (an exit empties the window), so its self-modifications
/// meet a warm window.
fn generated_instr((kind, a, b, c, imm): (u8, u8, u8, u8, i32), exits: bool) -> Instr {
    let scratch = r(8 + a % 4);
    let slot = imm.rem_euclid(64) * INSTR_BYTES as i32;
    match kind {
        0..=4 => Instr::Alu {
            op: [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::Mul, AluOp::Shr][kind as usize],
            rd: scratch,
            rs1: r(b),
            rs2: r(c),
        },
        5..=6 => Instr::AddImm {
            rd: scratch,
            rs1: r(b),
            imm: imm % 1000,
        },
        7 => Instr::MovImm { rd: scratch, imm },
        8 => Instr::MovHigh { rd: scratch, imm },
        // Stores of arbitrary registers (r4/r5 hold valid instruction words)
        // into the first 64 slots of the code (r1) or the data (r2).
        9..=12 => store(c, 1 + a % 2, slot),
        // The same, unaligned: the store overlaps two instruction words.
        14 => store(c, 1, slot + imm.rem_euclid(8)),
        15 => Instr::Load {
            rd: scratch,
            rs1: r(1 + a % 2),
            imm: slot,
        },
        // A word that ends in the last 0..=7 bytes before the region edge
        // (r7) or, with exits, the end of RAM (r12): one region holds it,
        // or the access crosses into the next region, or it leaves RAM
        // after its first bytes and exits to MMIO.
        13 => store(c, edge_base(a, exits), imm.rem_euclid(8)),
        16 => Instr::Load {
            rd: scratch,
            rs1: r(edge_base(a, exits)),
            imm: imm.rem_euclid(8),
        },
        17..=20 => Instr::Branch {
            cond: [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge][kind as usize - 17],
            rs1: r(b),
            rs2: r(c),
            imm: (imm.rem_euclid(24) - 12) * INSTR_BYTES as i32,
        },
        21 => Instr::Jal {
            rd: scratch,
            imm: (imm.rem_euclid(12) - 6) * INSTR_BYTES as i32,
        },
        22 => Instr::Jalr {
            rd: scratch,
            rs1: r(6),
        },
        23 => Instr::TlbFlush,
        24 => Instr::WriteCsr { rs1: r(b), imm: 20 },
        25 => Instr::ReadCsr {
            rd: scratch,
            imm: imm.rem_euclid(32),
        },
        26..=31 if !exits => Instr::Nop,
        26 => Instr::Hypercall {
            nr: imm as u16,
            rd: scratch,
            rs1: r(b),
        },
        27 => Instr::Out {
            rs1: r(b),
            imm: 0x3f8,
        },
        28 => Instr::In {
            rd: scratch,
            imm: 0x3f8,
        },
        29 => Instr::Pause,
        30 => store(c, 3, slot),
        _ => Instr::Load {
            rd: scratch,
            rs1: r(3),
            imm: slot,
        },
    }
}

/// The register [`generated_instr`] addresses an edge through: r7 holds
/// `EDGE - 8`, r12 `RAM_END - 8`.
fn edge_base(a: u8, exits: bool) -> u8 {
    if exits && a % 2 == 1 {
        12
    } else {
        7
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random programs that store into their own code (whole words and
    /// straddling ones), jump into it — aligned or not — load and store
    /// across a region edge and off the end of RAM, and exit for every
    /// reason behave exactly as the stepped reference, whether they spin or
    /// are killed by an undecodable word. Random slices of 1..=40 end the
    /// budget inside runs of simple instructions.
    #[test]
    fn generated_programs_match_the_reference(
        shape in proptest::collection::vec(
            (0u8..32, 0u8..12, 0u8..12, 0u8..12, any::<i32>()),
            4..60,
        ),
        exits in any::<bool>(),
        jump_target in 0u64..(64 * INSTR_BYTES),
        seed in any::<u64>(),
    ) {
        // The body runs in a loop, so what it stores into itself is
        // executed (or faults) on a later pass, when the window holds it.
        let mut program: Vec<Instr> = shape
            .into_iter()
            .map(|numbers| generated_instr(numbers, exits))
            .collect();
        program.push(Instr::Jal {
            rd: r(0),
            imm: -(INSTR_BYTES as i32) * (program.len() as i32 + 1),
        });
        let mut pair = small_pair(&program);
        pair.each(|g| {
            g.cpu.set_reg(r(1), CODE);
            g.cpu.set_reg(r(2), DATA);
            g.cpu.set_reg(r(3), MMIO);
            g.cpu.set_reg(r(4), word(add_imm(9, 5)));
            g.cpu.set_reg(r(5), word(Instr::Jal { rd: r(0), imm: -24 }));
            g.cpu.set_reg(r(6), CODE + jump_target);
            g.cpu.set_reg(r(7), EDGE - 8);
            g.cpu.set_reg(r(12), RAM_END - 8);
        });
        pair.run_lockstep(&mut TestRng::deterministic(seed), &(1..=40), 3_000);
    }
}

#[test]
fn a_store_into_the_next_instruction_and_into_a_later_slot_is_executed() {
    // Each pass patches the instruction right after the store and one
    // further down the frame, both already executed (and so held by the
    // window) on the pass before, with a different immediate every pass.
    // A third store, in the middle of the same run of simple instructions,
    // overwrites its own slot: from the second pass on, that slot adds.
    let bump_imm = 1u64 << 32; // the immediate is bytes 4..8 of the word
    let mut asm = Assembler::with_base(CODE);
    asm.push(Instr::MovImm {
        rd: r(1),
        imm: CODE as i32,
    });
    asm.load_const(r(2), word(add_imm(5, 100)));
    asm.load_const(r(3), word(add_imm(7, 7)));
    asm.load_const(r(8), bump_imm);
    asm.load_const(r(9), word(add_imm(10, 1)));
    asm.push(Instr::MovImm { rd: r(6), imm: 3 });
    let top = asm.len() as i32;
    asm.push(store(2, 1, (top + 1) * INSTR_BYTES as i32));
    asm.push(Instr::Nop); // patched: r5 += 100 + pass
    asm.push(store(3, 1, (top + 5) * INSTR_BYTES as i32));
    asm.push(store(9, 1, (top + 3) * INSTR_BYTES as i32)); // patched: r10 += 1
    asm.push(Instr::Nop);
    asm.push(Instr::Nop); // patched: r7 += 7 + pass
    for reg in [2, 3] {
        asm.push(Instr::Alu {
            op: AluOp::Add,
            rd: r(reg),
            rs1: r(reg),
            rs2: r(8),
        });
    }
    asm.push(add_imm(6, -1));
    let at = asm.len() as i32;
    asm.push(branch(Cond::Ne, 6, 0, at, top));
    asm.push(Instr::Halt);
    let image = asm.assemble().unwrap();

    for slices in &SLICINGS {
        let mut pair = Pair::new(|| {
            let mut g = Guest::new(ExecMode::HardwareAssist, 64, ByteSize::kib(64));
            g.mem.write(GuestAddress(CODE), &image).unwrap();
            g.cpu.set_pc(CODE);
            g
        });
        let (exits, error) = pair.run_lockstep(&mut rng(), slices, 1_000);
        assert_eq!((exits, error), (vec![ExitReason::Halt], None));
        assert_eq!(pair.window.cpu.reg(r(5)), 100 + 101 + 102);
        assert_eq!(pair.window.cpu.reg(r(7)), 7 + 8 + 9);
        assert_eq!(pair.window.cpu.reg(r(10)), 2);
    }
}

#[test]
fn an_unaligned_store_drops_both_instruction_words_it_overlaps() {
    // The store lands on the second half of one held instruction (its
    // immediate) and the first half of the next (opcode and registers).
    let new_header = u32::from_le_bytes(add_imm(9, 0).encode()[..4].try_into().unwrap());
    let program = [
        add_imm(5, 1), // patched: r5 += 50
        add_imm(7, 1), // patched: r9 += 1
        store(2, 1, 4),
        add_imm(6, -1),
        branch(Cond::Ne, 6, 0, 4, 0),
        Instr::Halt,
    ];
    for slices in &SLICINGS {
        let mut pair = small_pair(&program);
        pair.each(|g| {
            g.cpu.set_reg(r(1), CODE);
            g.cpu.set_reg(r(2), (new_header as u64) << 32 | 50);
            g.cpu.set_reg(r(6), 2); // passes
        });
        let (exits, error) = pair.run_lockstep(&mut rng(), slices, 1_000);
        assert_eq!((exits, error), (vec![ExitReason::Halt], None));
        let cpu = &pair.window.cpu;
        assert_eq!((cpu.reg(r(5)), cpu.reg(r(7)), cpu.reg(r(9))), (51, 1, 1));
    }
}

/// A paged guest: `pages` identity-mapped pages from [`CODE`], the page
/// tables (identity-mapped too, so the guest can edit them) at 0x8000.
fn paged_guest(mode: ExecMode, pages: u64) -> (Guest, PageTableEditor) {
    let mut g = Guest::new(mode, 8, ByteSize::kib(64));
    let mut ed = PageTableEditor::new(g.mem.clone(), GuestAddress(0x8000), 4 * PAGE_SIZE).unwrap();
    ed.identity_map(GuestAddress(CODE), pages * PAGE_SIZE, true, true)
        .unwrap();
    ed.identity_map(GuestAddress(0x8000), 4 * PAGE_SIZE, true, false)
        .unwrap();
    g.cpu.restore_state(&VcpuState {
        pc: CODE,
        ptbr: ed.root().0,
        ..VcpuState::default()
    });
    (g, ed)
}

#[test]
fn a_store_through_another_virtual_alias_of_the_code_frame_is_executed() {
    const ALIAS: u64 = 0x30_0000;
    let program = [
        Instr::MovImm {
            rd: r(6),
            imm: 3, // passes
        },
        store(2, 1, 2 * INSTR_BYTES as i32), // through the alias
        Instr::Nop,                          // patched: r5 += 100 + pass
        Instr::Alu {
            op: AluOp::Add,
            rd: r(2),
            rs1: r(2),
            rs2: r(8),
        },
        add_imm(6, -1),
        branch(Cond::Ne, 6, 0, 5, 1),
        Instr::Halt,
    ];
    for slices in &SLICINGS {
        let mut pair = Pair::new(|| {
            let (mut g, mut ed) = paged_guest(ExecMode::TrapAndEmulate, 1);
            ed.map(ALIAS, GuestAddress(CODE), true, false).unwrap();
            g.load(CODE, &program);
            g.cpu.set_reg(r(1), ALIAS);
            g.cpu.set_reg(r(2), word(add_imm(5, 100)));
            g.cpu.set_reg(r(8), 1 << 32);
            g
        });
        let (exits, error) = pair.run_lockstep(&mut rng(), slices, 1_000);
        assert_eq!((exits, error), (vec![ExitReason::Halt], None));
        assert_eq!(pair.window.cpu.reg(r(5)), 100 + 101 + 102);
    }
}

#[test]
fn remapping_the_code_page_mid_run_fetches_from_the_new_frame() {
    // Two frames hold the same loop except for one instruction. Pass 1 runs
    // (and fills the window) from frame A; pass 2 remaps the code page to
    // frame B, by editing the PTE and flushing the TLB or by switching to a
    // second page table, and must execute B's instruction from then on.
    const FRAME_B: u64 = 0x2000;
    let loop_with = |differing: i32, remap: [Instr; 2]| {
        vec![
            add_imm(6, 1),
            branch(Cond::Ne, 6, 7, 1, 4),
            remap[0],
            remap[1],
            Instr::MovImm {
                rd: r(5),
                imm: differing,
            },
            Instr::Alu {
                op: AluOp::Add,
                rd: r(8),
                rs1: r(8),
                rs2: r(5),
            },
            branch(Cond::Ne, 6, 7, 6, 0),
            Instr::Halt,
        ]
    };
    let by_pte_edit = [store(2, 1, 0), Instr::TlbFlush];
    let by_new_root = [Instr::SetPtbr { rs1: r(3) }, Instr::Nop];
    for (remap, slices) in [by_pte_edit, by_new_root]
        .into_iter()
        .flat_map(|remap| SLICINGS.iter().map(move |slices| (remap, slices)))
    {
        let mut pair = Pair::new(|| {
            let (mut g, _first_root) = paged_guest(ExecMode::Paravirt, 2);
            g.load(CODE, &loop_with(1, remap));
            g.load(FRAME_B, &loop_with(2, remap));
            // The L2 table is the first one the editor allocated.
            let pte = 0x8000 + PAGE_SIZE + (CODE / PAGE_SIZE) * crate::mmu::PTE_SIZE;
            g.cpu.set_reg(r(1), pte);
            g.cpu
                .set_reg(r(2), Pte::leaf(GuestAddress(FRAME_B), true, true).0);
            // A second root whose only difference is where CODE points.
            let mut other =
                PageTableEditor::new(g.mem.clone(), GuestAddress(0xc000), 4 * PAGE_SIZE).unwrap();
            other.map(CODE, GuestAddress(FRAME_B), true, true).unwrap();
            g.cpu.set_reg(r(3), other.root().0);
            g.cpu.set_reg(r(7), 2); // passes
            g
        });
        let (exits, error) = pair.run_lockstep(&mut rng(), slices, 1_000);
        assert_eq!((exits, error), (vec![ExitReason::Halt], None));
        assert_eq!(pair.window.cpu.reg(r(8)), 1 + 2, "{remap:?}");
    }
}

#[test]
fn a_privileged_instruction_held_by_the_window_still_faults_in_user_mode() {
    let program = [
        Instr::TlbFlush, // executed in supervisor mode first
        Instr::MovImm {
            rd: r(1),
            imm: CODE as i32,
        },
        Instr::Iret { rs1: r(1) }, // back to the TlbFlush, now as user
    ];
    for slices in &SLICINGS {
        let mut pair = small_pair(&program);
        let (exits, error) = pair.run_lockstep(&mut rng(), slices, 1_000);
        assert!(exits.is_empty());
        assert!(error.unwrap().contains("privileged instruction TlbFlush"));
        assert_eq!(pair.window.cpu.save_state().mode, PrivMode::User);
        assert_eq!(pair.window.cpu.stats().instructions, 3);
    }
}

#[test]
fn a_killed_guest_keeps_its_clock_whatever_the_slicing() {
    // Both fatal errors, each after a few instructions of paid work (the
    // trapping `TlbFlush` costs an exit): a privileged instruction in user
    // mode, and a fetch from an address nothing backs.
    let privileged = [
        Instr::TlbFlush,
        Instr::MovImm {
            rd: r(1),
            imm: CODE as i32,
        },
        Instr::Iret { rs1: r(1) },
    ];
    let unbacked = [
        Instr::TlbFlush,
        Instr::MovImm {
            rd: r(1),
            imm: MMIO as i32,
        },
        add_imm(5, 1),
        Instr::Jalr {
            rd: r(0),
            rs1: r(1),
        },
    ];
    for (program, retired, message) in [
        (&privileged[..], 3, "privileged instruction TlbFlush"),
        (&unbacked[..], 4, "fetch from unbacked address"),
    ] {
        let killed = |slice: u64| {
            let mut g = small_pair(program).window;
            let error = loop {
                match g.cpu.run(&g.mem, slice) {
                    Ok(out) => assert_eq!(out.exit, ExitReason::InstructionLimit),
                    Err(e) => break e.to_string(),
                }
            };
            assert!(error.contains(message), "{error}");
            g.cpu.stats()
        };
        let whole = killed(1_000);
        assert_eq!(whole.instructions, retired);
        let costs = ExecMode::TrapAndEmulate.default_costs();
        assert!(whole.sim_time_ns >= retired * costs.cycle_ns + costs.exit_ns);
        for slice in [1, 3] {
            assert_eq!(killed(slice), whole, "slices of {slice}");
        }
    }
}

#[test]
fn an_undecodable_word_the_pc_never_reaches_does_not_fault() {
    let mut pair = small_pair(&[
        Instr::Jal {
            rd: r(0),
            imm: INSTR_BYTES as i32,
        },
        Instr::Nop, // overwritten below
        Instr::Halt,
    ]);
    pair.each(|g| {
        g.mem
            .write_u64(GuestAddress(CODE + INSTR_BYTES), u64::MAX)
            .unwrap()
    });
    let (exits, error) = pair.run_lockstep(&mut rng(), &SLICINGS[0], 1_000);
    assert_eq!((exits, error), (vec![ExitReason::Halt], None));
}

#[test]
fn every_exit_reason_resumes_where_it_left() {
    let program = [
        Instr::MovImm { rd: r(6), imm: 3 },
        Instr::Out {
            rs1: r(6),
            imm: 0x3f8,
        },
        Instr::In {
            rd: r(9),
            imm: 0x3f8,
        },
        Instr::Hypercall {
            nr: 4,
            rd: r(10),
            rs1: r(6),
        },
        store(6, 3, 0),
        Instr::Load {
            rd: r(11),
            rs1: r(3),
            imm: 8,
        },
        Instr::Pause,
        add_imm(6, -1),
        branch(Cond::Ne, 6, 0, 8, 1),
        Instr::Halt,
    ];
    for slices in &SLICINGS {
        let mut pair = small_pair(&program);
        pair.each(|g| g.cpu.set_reg(r(3), MMIO));
        let (exits, error) = pair.run_lockstep(&mut rng(), slices, 1_000);
        assert_eq!(error, None);
        assert_eq!(exits.len(), 3 * 6 + 1);
        let mmio_write = ExitReason::MmioWrite {
            addr: GuestAddress(MMIO),
            value: 3,
            size: 8,
        };
        assert_eq!(exits[3], mmio_write);
        let cpu = &pair.window.cpu;
        assert_eq!(
            (cpu.reg(r(9)), cpu.reg(r(10)), cpu.reg(r(11))),
            (0x42, 0x77, 0xabcd)
        );
    }
}

#[test]
fn code_written_by_the_host_between_two_runs_is_executed_by_the_second() {
    let program = [add_imm(5, 1), branch(Cond::Eq, 0, 0, 1, 0)];
    let mut pair = small_pair(&program);
    let (exits, error) = pair.run_lockstep(&mut rng(), &(1..=50), 100);
    assert_eq!((exits, error), (vec![], None));
    let before = pair.window.cpu.reg(r(5));
    // The loader, a restore, DMA or a migration sink: any writer but this
    // vCPU. Both instructions have been executed dozens of times by now.
    pair.each(|g| {
        g.mem
            .write(GuestAddress(CODE), &add_imm(5, 1_000).encode())
            .unwrap();
        g.cpu.set_pc(CODE);
    });
    pair.run_lockstep(&mut rng(), &(2..=2), 2);
    assert_eq!(pair.window.cpu.reg(r(5)), before + 1_000);
}

#[test]
fn a_fetch_straddling_a_page_boundary_translates_both_pages() {
    // Virtual pages 0x10000 and 0x11000 map to frames 0x3000 and 0x6000;
    // the frame physically after the first one holds a decoy. The
    // instruction at 0x10ffc has its immediate in the second page.
    const VIRT: u64 = 0x1_0000;
    let straddling = VIRT + PAGE_SIZE - 4;
    let build = |second_page_mapped: bool| {
        Pair::new(move || {
            let mut g = Guest::new(ExecMode::HardwareAssist, 8, ByteSize::kib(64));
            let mut ed =
                PageTableEditor::new(g.mem.clone(), GuestAddress(0x8000), 4 * PAGE_SIZE).unwrap();
            ed.map(VIRT, GuestAddress(0x3000), true, false).unwrap();
            if second_page_mapped {
                ed.map(VIRT + PAGE_SIZE, GuestAddress(0x6000), true, false)
                    .unwrap();
            }
            let wanted = Instr::MovImm {
                rd: r(5),
                imm: 0x1234_5678,
            }
            .encode();
            let decoy = Instr::MovImm { rd: r(5), imm: -1 }.encode();
            g.mem.write(GuestAddress(0x4000 - 4), &decoy).unwrap();
            g.mem.write(GuestAddress(0x4000 - 4), &wanted[..4]).unwrap();
            g.mem.write(GuestAddress(0x6000), &wanted[4..]).unwrap();
            g.mem
                .write(GuestAddress(0x6004), &Instr::Halt.encode())
                .unwrap();
            g.mem.clear_dirty();
            g.cpu.restore_state(&VcpuState {
                pc: straddling,
                ptbr: ed.root().0,
                ..VcpuState::default()
            });
            g
        })
    };

    let mut pair = build(true);
    let (exits, error) = pair.run_lockstep(&mut rng(), &(10..=10), 10);
    assert_eq!((exits, error), (vec![ExitReason::Halt], None));
    assert_eq!(pair.window.cpu.reg(r(5)), 0x1234_5678);
    // Both pages were looked up for the first fetch, the second again for
    // the (unaligned) Halt.
    assert_eq!(pair.window.cpu.tlb_stats().misses, 2);
    assert_eq!(pair.window.cpu.tlb_stats().hits, 1);

    // Unmapped second page: a restartable page fault at its first byte.
    let mut pair = build(false);
    let (exits, error) = pair.run_lockstep(&mut rng(), &(10..=10), 10);
    let fault = ExitReason::PageFault {
        vaddr: VIRT + PAGE_SIZE,
        write: false,
    };
    assert_eq!((exits, error), (vec![fault], None));
    assert_eq!(pair.window.cpu.save_state().pc, straddling);
    assert_eq!(pair.window.cpu.stats().instructions, 0);
    assert_eq!(pair.window.cpu.stats().page_faults, 1);
    pair.each(|g| {
        let l2 = 0x8000 + PAGE_SIZE + ((VIRT + PAGE_SIZE) / PAGE_SIZE % 512) * 8;
        let pte = Pte::leaf(GuestAddress(0x6000), true, false);
        g.mem.write_u64(GuestAddress(l2), pte.0).unwrap();
    });
    let (exits, error) = pair.run_lockstep(&mut rng(), &(10..=10), 10);
    assert_eq!((exits, error), (vec![ExitReason::Halt], None));
    assert_eq!(pair.window.cpu.reg(r(5)), 0x1234_5678);
}

fn slow_fetches_during(f: impl FnOnce()) -> u64 {
    let before = SLOW_FETCHES.with(|n| n.get());
    f();
    SLOW_FETCHES.with(|n| n.get()) - before
}

/// The pin that reads no clock: guest memory is read for instruction bytes
/// once per distinct code slot of a slice, not once per instruction.
#[test]
fn a_long_slice_fetches_each_code_slot_from_memory_once() {
    let kinds = [
        WorkloadKind::ComputeBound { iterations: 50_000 },
        // The hot tenant's program: a store to a *data* frame every fourth
        // instruction must not make the loop re-fetch its code.
        WorkloadKind::MemoryDirty {
            pages: 2,
            passes: 50_000,
        },
    ];
    for kind in kinds {
        let workload = Workload::new(kind).unwrap();
        let slots = workload.code().len() as u64 / INSTR_BYTES;
        let mut g = Guest::new(
            ExecMode::HardwareAssist,
            64,
            ByteSize::new(workload.required_memory()).page_align_up(),
        );
        workload.install(&g.mem, &mut g.cpu).unwrap();
        for slice in 0..2 {
            let fetched = slow_fetches_during(|| {
                let out = g.cpu.run(&g.mem, 100_000).unwrap();
                assert_eq!(out.instructions, 100_000);
            });
            assert!(
                (1..=slots).contains(&fetched),
                "{kind:?} slice {slice}: {fetched} memory fetches for {slots} code slots"
            );
        }
    }
}

/// What makes one-instruction steps a reference: each of them takes the
/// memory fetch, the only fetch there was before the window.
#[test]
fn the_reference_fetches_every_instruction_from_memory() {
    let workload = Workload::new(WorkloadKind::ComputeBound { iterations: 100 }).unwrap();
    let mut g = Guest::new(ExecMode::HardwareAssist, 64, ByteSize::mib(2));
    workload.install(&g.mem, &mut g.cpu).unwrap();
    let fetched = slow_fetches_during(|| {
        let out = run_reference(&mut g, 500).unwrap();
        assert_eq!(out.instructions, 500);
    });
    assert_eq!(fetched, 500);
}
