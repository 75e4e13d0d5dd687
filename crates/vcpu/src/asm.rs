//! A tiny two-pass assembler for GISA programs.
//!
//! The synthetic guest workloads (and the tests) need loops and forward
//! branches; hand-computing byte offsets is error-prone, so [`Assembler`]
//! provides named labels and resolves branch/jump targets in a second pass.

use std::collections::HashMap;

use rvisor_types::{Error, Result};

use crate::isa::{Cond, Instr, Reg, INSTR_BYTES};

/// An instruction slot that may still reference an unresolved label.
#[derive(Debug, Clone)]
enum Slot {
    /// A fully resolved instruction.
    Ready(Instr),
    /// A conditional branch to a label.
    BranchTo {
        cond: Cond,
        rs1: Reg,
        rs2: Reg,
        label: String,
    },
}

/// Two-pass assembler producing a flat byte image of a GISA program.
///
/// ```
/// use rvisor_vcpu::{Assembler, Instr, Reg, Cond};
/// let mut asm = Assembler::new();
/// let r = Reg::new;
/// asm.push(Instr::MovImm { rd: r(1), imm: 3 });
/// asm.label("spin");
/// asm.push(Instr::AddImm { rd: r(1), rs1: r(1), imm: -1 });
/// asm.branch_to(Cond::Ne, r(1), Reg::ZERO, "spin");
/// asm.push(Instr::Halt);
/// let image = asm.assemble().unwrap();
/// assert_eq!(image.len(), 4 * 8);
/// ```
#[derive(Debug, Default)]
pub struct Assembler {
    slots: Vec<Slot>,
    labels: HashMap<String, u64>,
    /// Base virtual address the program will be loaded at (affects absolute labels only).
    base: u64,
}

impl Assembler {
    /// Create an assembler for a program loaded at virtual address 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an assembler for a program loaded at `base`.
    pub fn with_base(base: u64) -> Self {
        Assembler {
            base,
            ..Self::default()
        }
    }

    /// Append a resolved instruction.
    pub fn push(&mut self, instr: Instr) -> &mut Self {
        self.slots.push(Slot::Ready(instr));
        self
    }

    /// Define a label at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        let addr = self.base + self.slots.len() as u64 * INSTR_BYTES;
        self.labels.insert(name.to_string(), addr);
        self
    }

    /// Append a conditional branch to a (possibly forward) label.
    pub fn branch_to(&mut self, cond: Cond, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.slots.push(Slot::BranchTo {
            cond,
            rs1,
            rs2,
            label: label.to_string(),
        });
        self
    }

    /// Append a `MovImm`/`MovHigh` pair that loads an arbitrary 64-bit constant.
    pub fn load_const(&mut self, rd: Reg, value: u64) -> &mut Self {
        // MovImm sign-extends; load the high half first, then shift in the low half.
        self.push(Instr::MovImm {
            rd,
            imm: (value >> 32) as i32,
        });
        self.push(Instr::MovHigh {
            rd,
            imm: value as u32 as i32,
        });
        self
    }

    /// Resolve labels and emit the byte image.
    pub fn assemble(&self) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.slots.len() * INSTR_BYTES as usize);
        for (i, slot) in self.slots.iter().enumerate() {
            let pc = self.base + i as u64 * INSTR_BYTES;
            let next_pc = pc + INSTR_BYTES;
            let instr = match slot {
                Slot::Ready(instr) => *instr,
                Slot::BranchTo {
                    cond,
                    rs1,
                    rs2,
                    label,
                } => {
                    let target = self.resolve(label)?;
                    let offset = Self::rel_offset(next_pc, target)?;
                    Instr::Branch {
                        cond: *cond,
                        rs1: *rs1,
                        rs2: *rs2,
                        imm: offset,
                    }
                }
            };
            out.extend_from_slice(&instr.encode());
        }
        Ok(out)
    }

    fn resolve(&self, label: &str) -> Result<u64> {
        self.labels
            .get(label)
            .copied()
            .ok_or_else(|| Error::Config(format!("undefined label `{label}`")))
    }

    fn rel_offset(next_pc: u64, target: u64) -> Result<i32> {
        let diff = target as i64 - next_pc as i64;
        i32::try_from(diff).map_err(|_| Error::Config(format!("branch offset {diff} out of range")))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    impl Assembler {
        /// The address of a previously defined label.
        fn label_address(&self, name: &str) -> Option<u64> {
            self.labels.get(name).copied()
        }

        /// Current length of the program in instructions.
        pub(crate) fn len(&self) -> usize {
            self.slots.len()
        }
    }

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut asm = Assembler::new();
        let r = Reg::new;
        asm.push(Instr::MovImm { rd: r(1), imm: 2 });
        asm.label("top");
        asm.push(Instr::AddImm {
            rd: r(1),
            rs1: r(1),
            imm: -1,
        });
        asm.branch_to(Cond::Eq, r(1), Reg::ZERO, "done"); // forward
        asm.branch_to(Cond::Eq, Reg::ZERO, Reg::ZERO, "top"); // backward
        asm.label("done");
        asm.push(Instr::Halt);
        let bytes = asm.assemble().unwrap();
        assert_eq!(bytes.len(), 5 * INSTR_BYTES as usize);

        // Decode both branches (indices 2 and 3) and check their offsets.
        let branch = Instr::decode(bytes[16..24].try_into().unwrap(), 16).unwrap();
        match branch {
            Instr::Branch { imm, .. } => assert_eq!(imm, 8), // next_pc 24 -> done at 32
            other => panic!("expected branch, got {other:?}"),
        }
        let back = Instr::decode(bytes[24..32].try_into().unwrap(), 24).unwrap();
        match back {
            Instr::Branch { imm, .. } => assert_eq!(imm, -24), // next_pc 32 -> top at 8
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut asm = Assembler::new();
        asm.branch_to(Cond::Eq, Reg::ZERO, Reg::ZERO, "nowhere");
        assert!(asm.assemble().is_err());
    }

    #[test]
    fn base_address_shifts_labels() {
        let mut asm = Assembler::with_base(0x1000);
        asm.label("start");
        asm.push(Instr::Nop);
        assert_eq!(asm.label_address("start"), Some(0x1000));
        assert_eq!(asm.len(), 1);
    }

    #[test]
    fn load_const_materializes_64_bit_values() {
        use crate::cpu::{Vcpu, VcpuConfig};
        use crate::exec_mode::{ExecCosts, ExecMode};
        use rvisor_memory::GuestMemory;
        use rvisor_types::{ByteSize, GuestAddress, VcpuId};

        let value = 0xdead_beef_cafe_f00d_u64;
        let mut asm = Assembler::new();
        asm.load_const(Reg::new(4), value);
        asm.push(Instr::Halt);
        let image = asm.assemble().unwrap();

        let mem = GuestMemory::flat(ByteSize::mib(1)).unwrap();
        mem.write(GuestAddress(0), &image).unwrap();
        let mut cfg = VcpuConfig::new(VcpuId::new(0), ExecMode::HardwareAssist);
        cfg.costs = ExecCosts::FREE;
        let mut cpu = Vcpu::new(cfg);
        cpu.run(&mem, 10).unwrap();
        assert_eq!(cpu.reg(Reg::new(4)), value);
    }
}
