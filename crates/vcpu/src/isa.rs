//! The GISA instruction set: encoding and decoding.
//!
//! GISA is a fixed-width (8 bytes per instruction) load/store architecture
//! with 32 general-purpose 64-bit registers. Register `r0` reads as zero and
//! ignores writes, in the RISC tradition.
//!
//! Encoding layout (little endian):
//!
//! ```text
//! byte 0      opcode
//! byte 1      rd   (destination register, or condition code for branches)
//! byte 2      rs1
//! byte 3      rs2
//! bytes 4..8  imm  (i32, sign-extended where used as an offset)
//! ```

use serde::{Deserialize, Serialize};

use rvisor_types::{Error, Result};

/// Size of one encoded instruction in bytes.
pub(crate) const INSTR_BYTES: u64 = 8;

/// Number of general-purpose registers.
pub const NUM_REGS: usize = 32;

/// A register index, below [`NUM_REGS`] by construction: the field is
/// private, and [`Reg::new`] and `Reg::try_new` check the range. Register
/// 0 is hardwired to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Reg(u8);

impl Reg {
    /// The zero register.
    pub const ZERO: Reg = Reg(0);

    /// Construct a register, panicking on out-of-range indices.
    ///
    /// Intended for hand-written assembly in tests and workloads; decoded
    /// instructions go through `Reg::try_new`.
    pub fn new(idx: u8) -> Self {
        assert!(
            (idx as usize) < NUM_REGS,
            "register index {idx} out of range"
        );
        Reg(idx)
    }

    /// Construct a register, returning `None` on out-of-range indices.
    fn try_new(idx: u8) -> Option<Self> {
        if (idx as usize) < NUM_REGS {
            Some(Reg(idx))
        } else {
            None
        }
    }

    /// The register's index, below [`NUM_REGS`].
    pub(crate) const fn index(self) -> usize {
        // The constructors make the mask the identity; it shows the bound
        // to the compiler, so `regs[r.index()]` needs no bounds check.
        self.0 as usize % NUM_REGS
    }
}

/// Branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cond {
    /// rs1 == rs2
    Eq,
    /// rs1 != rs2
    Ne,
    /// rs1 < rs2 (unsigned)
    Lt,
    /// rs1 >= rs2 (unsigned)
    Ge,
}

impl Cond {
    fn to_byte(self) -> u8 {
        match self {
            Cond::Eq => 0,
            Cond::Ne => 1,
            Cond::Lt => 2,
            Cond::Ge => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Cond> {
        Some(match b {
            0 => Cond::Eq,
            1 => Cond::Ne,
            2 => Cond::Lt,
            3 => Cond::Ge,
            _ => return None,
        })
    }
}

/// A decoded GISA instruction.
///
/// Instructions marked *privileged* may only execute in supervisor mode; in
/// the trap-and-emulate execution mode they additionally cause a VM exit so
/// the hypervisor can emulate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Instr {
    /// Do nothing.
    Nop,
    /// Stop the vCPU; produces a `Halt` exit. Privileged.
    Halt,
    /// `rd <- imm` (sign-extended 32-bit immediate).
    MovImm {
        /// Destination register.
        rd: Reg,
        /// Immediate value.
        imm: i32,
    },
    /// `rd <- rd << 32 | zext(imm)` — build 64-bit constants in two steps.
    MovHigh {
        /// Destination register.
        rd: Reg,
        /// Immediate placed in the low 32 bits after the shift.
        imm: i32,
    },
    /// `rd <- rs1 op rs2` arithmetic.
    Alu {
        /// Operation selector.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
    },
    /// `rd <- rs1 + imm`.
    AddImm {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Immediate addend.
        imm: i32,
    },
    /// `rd <- mem[rs1 + imm]` (8 bytes, little endian). May exit with MMIO.
    Load {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Byte offset.
        imm: i32,
    },
    /// `mem[rs1 + imm] <- rs2` (8 bytes, little endian). May exit with MMIO.
    Store {
        /// Value register.
        rs2: Reg,
        /// Base address register.
        rs1: Reg,
        /// Byte offset.
        imm: i32,
    },
    /// Conditional branch: `if rs1 cond rs2 then pc += imm` (imm in bytes).
    Branch {
        /// Condition.
        cond: Cond,
        /// First comparand.
        rs1: Reg,
        /// Second comparand.
        rs2: Reg,
        /// Signed byte offset relative to the *next* instruction.
        imm: i32,
    },
    /// Unconditional jump: `pc += imm`, with `rd <- return address`.
    Jal {
        /// Link register receiving the return address (use r0 to discard).
        rd: Reg,
        /// Signed byte offset relative to the next instruction.
        imm: i32,
    },
    /// Indirect jump: `pc <- rs1`, with `rd <- return address`.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Register holding the target virtual address.
        rs1: Reg,
    },
    /// Explicit paravirtual call into the hypervisor. `rd` receives the result.
    Hypercall {
        /// Hypercall number.
        nr: u16,
        /// Register receiving the hypervisor's return value.
        rd: Reg,
        /// Register holding the argument.
        rs1: Reg,
    },
    /// Port output: `port[imm] <- rs1` (4 bytes). Privileged; always exits.
    Out {
        /// Source register.
        rs1: Reg,
        /// Port number.
        imm: i32,
    },
    /// Port input: `rd <- port[imm]` (4 bytes). Privileged; always exits.
    In {
        /// Destination register.
        rd: Reg,
        /// Port number.
        imm: i32,
    },
    /// Set the page-table base register. Privileged.
    SetPtbr {
        /// Register holding the new PTBR (guest physical address).
        rs1: Reg,
    },
    /// Flush the software TLB. Privileged.
    TlbFlush,
    /// Read a control/status register. CSR 0..16 are unprivileged, others privileged.
    ReadCsr {
        /// Destination register.
        rd: Reg,
        /// CSR number.
        imm: i32,
    },
    /// Write a control/status register. Privileged.
    WriteCsr {
        /// Source register.
        rs1: Reg,
        /// CSR number.
        imm: i32,
    },
    /// Return from supervisor to user mode, jumping to the address in `rs1`. Privileged.
    Iret {
        /// Register holding the user-mode resume address.
        rs1: Reg,
    },
    /// Pause/yield hint: the guest has nothing to do. Produces an `Idle` exit.
    Pause,
}

/// ALU operation selectors for [`Instr::Alu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (x / 0 = u64::MAX, like RISC-V).
    Div,
    /// Unsigned remainder (x % 0 = x).
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (by rs2 & 63).
    Shl,
    /// Logical shift right (by rs2 & 63).
    Shr,
}

impl AluOp {
    fn to_byte(self) -> u8 {
        match self {
            AluOp::Add => 0,
            AluOp::Sub => 1,
            AluOp::Mul => 2,
            AluOp::Div => 3,
            AluOp::Rem => 4,
            AluOp::And => 5,
            AluOp::Or => 6,
            AluOp::Xor => 7,
            AluOp::Shl => 8,
            AluOp::Shr => 9,
        }
    }

    fn from_byte(b: u8) -> Option<AluOp> {
        Some(match b {
            0 => AluOp::Add,
            1 => AluOp::Sub,
            2 => AluOp::Mul,
            3 => AluOp::Div,
            4 => AluOp::Rem,
            5 => AluOp::And,
            6 => AluOp::Or,
            7 => AluOp::Xor,
            8 => AluOp::Shl,
            9 => AluOp::Shr,
            _ => return None,
        })
    }

    /// Apply the operation to two operands.
    pub(crate) fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => a.checked_div(b).unwrap_or(u64::MAX),
            AluOp::Rem => a.checked_rem(b).unwrap_or(a),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a << (b & 63),
            AluOp::Shr => a >> (b & 63),
        }
    }
}

// Opcode assignments.
mod op {
    pub(super) const NOP: u8 = 0x00;
    pub(super) const HALT: u8 = 0x01;
    pub(super) const MOV_IMM: u8 = 0x02;
    pub(super) const MOV_HIGH: u8 = 0x03;
    pub(crate) const ALU: u8 = 0x04;
    pub(super) const ADD_IMM: u8 = 0x05;
    pub(super) const LOAD: u8 = 0x06;
    pub(super) const STORE: u8 = 0x07;
    pub(super) const BRANCH: u8 = 0x08;
    pub(super) const JAL: u8 = 0x09;
    pub(super) const JALR: u8 = 0x0a;
    pub(super) const HYPERCALL: u8 = 0x0b;
    pub(super) const OUT: u8 = 0x0c;
    pub(super) const IN: u8 = 0x0d;
    pub(super) const SET_PTBR: u8 = 0x0e;
    pub(super) const TLB_FLUSH: u8 = 0x0f;
    pub(super) const READ_CSR: u8 = 0x10;
    pub(super) const WRITE_CSR: u8 = 0x11;
    pub(super) const IRET: u8 = 0x12;
    pub(super) const PAUSE: u8 = 0x13;
}

impl Instr {
    /// Whether the instruction is privileged (supervisor-only).
    pub(crate) fn is_privileged(&self) -> bool {
        matches!(
            self,
            Instr::Halt
                | Instr::Out { .. }
                | Instr::In { .. }
                | Instr::SetPtbr { .. }
                | Instr::TlbFlush
                | Instr::WriteCsr { .. }
                | Instr::Iret { .. }
        ) || matches!(self, Instr::ReadCsr { imm, .. } if *imm >= 16)
    }

    /// Encode into the 8-byte wire format.
    pub(crate) fn encode(&self) -> [u8; INSTR_BYTES as usize] {
        let (opcode, b1, b2, b3, imm) = match *self {
            Instr::Nop => (op::NOP, 0, 0, 0, 0),
            Instr::Halt => (op::HALT, 0, 0, 0, 0),
            Instr::MovImm { rd, imm } => (op::MOV_IMM, rd.0, 0, 0, imm),
            Instr::MovHigh { rd, imm } => (op::MOV_HIGH, rd.0, 0, 0, imm),
            Instr::Alu {
                op: alu,
                rd,
                rs1,
                rs2,
            } => (op::ALU, rd.0, rs1.0, rs2.0, alu.to_byte() as i32),
            Instr::AddImm { rd, rs1, imm } => (op::ADD_IMM, rd.0, rs1.0, 0, imm),
            Instr::Load { rd, rs1, imm } => (op::LOAD, rd.0, rs1.0, 0, imm),
            Instr::Store { rs2, rs1, imm } => (op::STORE, 0, rs1.0, rs2.0, imm),
            Instr::Branch {
                cond,
                rs1,
                rs2,
                imm,
            } => (op::BRANCH, cond.to_byte(), rs1.0, rs2.0, imm),
            Instr::Jal { rd, imm } => (op::JAL, rd.0, 0, 0, imm),
            Instr::Jalr { rd, rs1 } => (op::JALR, rd.0, rs1.0, 0, 0),
            Instr::Hypercall { nr, rd, rs1 } => (op::HYPERCALL, rd.0, rs1.0, 0, nr as i32),
            Instr::Out { rs1, imm } => (op::OUT, 0, rs1.0, 0, imm),
            Instr::In { rd, imm } => (op::IN, rd.0, 0, 0, imm),
            Instr::SetPtbr { rs1 } => (op::SET_PTBR, 0, rs1.0, 0, 0),
            Instr::TlbFlush => (op::TLB_FLUSH, 0, 0, 0, 0),
            Instr::ReadCsr { rd, imm } => (op::READ_CSR, rd.0, 0, 0, imm),
            Instr::WriteCsr { rs1, imm } => (op::WRITE_CSR, 0, rs1.0, 0, imm),
            Instr::Iret { rs1 } => (op::IRET, 0, rs1.0, 0, 0),
            Instr::Pause => (op::PAUSE, 0, 0, 0, 0),
        };
        let mut out = [0u8; INSTR_BYTES as usize];
        out[0] = opcode;
        out[1] = b1;
        out[2] = b2;
        out[3] = b3;
        out[4..8].copy_from_slice(&imm.to_le_bytes());
        out
    }

    /// Decode from the 8-byte wire format.
    pub(crate) fn decode(bytes: &[u8; INSTR_BYTES as usize], pc: u64) -> Result<Instr> {
        let opcode = bytes[0];
        let b1 = bytes[1];
        let b2 = bytes[2];
        let b3 = bytes[3];
        let imm = i32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        let raw = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let invalid = || Error::InvalidInstruction { pc, opcode: raw };
        let reg = |b: u8| Reg::try_new(b).ok_or_else(invalid);

        Ok(match opcode {
            op::NOP => Instr::Nop,
            op::HALT => Instr::Halt,
            op::MOV_IMM => Instr::MovImm { rd: reg(b1)?, imm },
            op::MOV_HIGH => Instr::MovHigh { rd: reg(b1)?, imm },
            op::ALU => Instr::Alu {
                op: AluOp::from_byte(imm as u8).ok_or_else(invalid)?,
                rd: reg(b1)?,
                rs1: reg(b2)?,
                rs2: reg(b3)?,
            },
            op::ADD_IMM => Instr::AddImm {
                rd: reg(b1)?,
                rs1: reg(b2)?,
                imm,
            },
            op::LOAD => Instr::Load {
                rd: reg(b1)?,
                rs1: reg(b2)?,
                imm,
            },
            op::STORE => Instr::Store {
                rs2: reg(b3)?,
                rs1: reg(b2)?,
                imm,
            },
            op::BRANCH => Instr::Branch {
                cond: Cond::from_byte(b1).ok_or_else(invalid)?,
                rs1: reg(b2)?,
                rs2: reg(b3)?,
                imm,
            },
            op::JAL => Instr::Jal { rd: reg(b1)?, imm },
            op::JALR => Instr::Jalr {
                rd: reg(b1)?,
                rs1: reg(b2)?,
            },
            op::HYPERCALL => Instr::Hypercall {
                nr: imm as u16,
                rd: reg(b1)?,
                rs1: reg(b2)?,
            },
            op::OUT => Instr::Out { rs1: reg(b2)?, imm },
            op::IN => Instr::In { rd: reg(b1)?, imm },
            op::SET_PTBR => Instr::SetPtbr { rs1: reg(b2)? },
            op::TLB_FLUSH => Instr::TlbFlush,
            op::READ_CSR => Instr::ReadCsr { rd: reg(b1)?, imm },
            op::WRITE_CSR => Instr::WriteCsr { rs1: reg(b2)?, imm },
            op::IRET => Instr::Iret { rs1: reg(b2)? },
            op::PAUSE => Instr::Pause,
            _ => return Err(invalid()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn all_sample_instrs() -> Vec<Instr> {
        let r = Reg::new;
        vec![
            Instr::Nop,
            Instr::Halt,
            Instr::MovImm { rd: r(1), imm: -5 },
            Instr::MovHigh {
                rd: r(2),
                imm: 0x1234,
            },
            Instr::Alu {
                op: AluOp::Add,
                rd: r(3),
                rs1: r(1),
                rs2: r(2),
            },
            Instr::Alu {
                op: AluOp::Shr,
                rd: r(3),
                rs1: r(1),
                rs2: r(2),
            },
            Instr::AddImm {
                rd: r(4),
                rs1: r(3),
                imm: 1024,
            },
            Instr::Load {
                rd: r(5),
                rs1: r(4),
                imm: 8,
            },
            Instr::Store {
                rs2: r(5),
                rs1: r(4),
                imm: -8,
            },
            Instr::Branch {
                cond: Cond::Ne,
                rs1: r(1),
                rs2: r(0),
                imm: -16,
            },
            Instr::Jal { rd: r(31), imm: 64 },
            Instr::Jalr {
                rd: r(0),
                rs1: r(31),
            },
            Instr::Hypercall {
                nr: 7,
                rd: r(1),
                rs1: r(2),
            },
            Instr::Out {
                rs1: r(2),
                imm: 0x3f8,
            },
            Instr::In {
                rd: r(2),
                imm: 0x3f8,
            },
            Instr::SetPtbr { rs1: r(10) },
            Instr::TlbFlush,
            Instr::ReadCsr { rd: r(6), imm: 3 },
            Instr::ReadCsr { rd: r(6), imm: 20 },
            Instr::WriteCsr { rs1: r(6), imm: 20 },
            Instr::Iret { rs1: r(7) },
            Instr::Pause,
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for instr in all_sample_instrs() {
            let bytes = instr.encode();
            let back = Instr::decode(&bytes, 0).unwrap();
            assert_eq!(back, instr, "roundtrip failed for {instr:?}");
        }
    }

    #[test]
    fn privilege_classification() {
        assert!(Instr::Halt.is_privileged());
        assert!(Instr::TlbFlush.is_privileged());
        assert!(Instr::SetPtbr { rs1: Reg::new(1) }.is_privileged());
        assert!(Instr::Out {
            rs1: Reg::new(1),
            imm: 0
        }
        .is_privileged());
        assert!(Instr::WriteCsr {
            rs1: Reg::new(1),
            imm: 0
        }
        .is_privileged());
        assert!(Instr::ReadCsr {
            rd: Reg::new(1),
            imm: 16
        }
        .is_privileged());
        assert!(!Instr::ReadCsr {
            rd: Reg::new(1),
            imm: 3
        }
        .is_privileged());
        assert!(!Instr::Nop.is_privileged());
        assert!(!Instr::Hypercall {
            nr: 0,
            rd: Reg::ZERO,
            rs1: Reg::ZERO
        }
        .is_privileged());
        assert!(!Instr::Load {
            rd: Reg::new(1),
            rs1: Reg::new(2),
            imm: 0
        }
        .is_privileged());
    }

    #[test]
    fn invalid_opcode_rejected() {
        let mut bytes = [0u8; 8];
        bytes[0] = 0xff;
        let err = Instr::decode(&bytes, 0x40).unwrap_err();
        assert!(matches!(err, Error::InvalidInstruction { pc: 0x40, .. }));
    }

    #[test]
    fn invalid_register_rejected() {
        let bad = [op::MOV_IMM, 200, 0, 0, 0, 0, 0, 0];
        assert!(Instr::decode(&bad, 0).is_err());
    }

    #[test]
    fn invalid_alu_op_rejected() {
        let bad = [op::ALU, 1, 2, 3, 99, 0, 0, 0];
        assert!(Instr::decode(&bad, 0).is_err());
    }

    #[test]
    fn reg_bounds() {
        assert!(Reg::try_new(31).is_some());
        assert!(Reg::try_new(32).is_none());
        assert_eq!(Reg::new(5).index(), 5);
    }

    #[test]
    #[should_panic]
    fn reg_new_panics_out_of_range() {
        let _ = Reg::new(32);
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(u64::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(0, 1), u64::MAX);
        assert_eq!(AluOp::Mul.apply(1 << 40, 1 << 40), 0);
        assert_eq!(AluOp::Div.apply(7, 2), 3);
        assert_eq!(AluOp::Div.apply(7, 0), u64::MAX);
        assert_eq!(AluOp::Rem.apply(7, 0), 7);
        assert_eq!(AluOp::Rem.apply(7, 4), 3);
        assert_eq!(AluOp::Shl.apply(1, 65), 2);
        assert_eq!(AluOp::Shr.apply(8, 3), 1);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010), 0b1110);
    }

    proptest! {
        #[test]
        fn alu_roundtrip_via_encoding(op_byte in 0u8..10, rd in 0u8..32, rs1 in 0u8..32, rs2 in 0u8..32) {
            let op = AluOp::from_byte(op_byte).unwrap();
            let instr = Instr::Alu { op, rd: Reg(rd), rs1: Reg(rs1), rs2: Reg(rs2) };
            prop_assert_eq!(Instr::decode(&instr.encode(), 0).unwrap(), instr);
        }

        #[test]
        fn decode_never_panics(bytes in proptest::array::uniform8(any::<u8>())) {
            let _ = Instr::decode(&bytes, 0);
        }

        #[test]
        fn imm_roundtrips(imm in any::<i32>()) {
            let instr = Instr::MovImm { rd: Reg(7), imm };
            prop_assert_eq!(Instr::decode(&instr.encode(), 0).unwrap(), instr);
        }
    }
}
