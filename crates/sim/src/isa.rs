//! The simulated core's instruction set and its bit-exact binary encoding.
//!
//! Every instruction is one 32-bit word, so instruction memory is an array
//! of real bits that the fault injector can flip — a corrupted instruction
//! decodes to a trap or to a different-but-valid instruction, exactly the
//! failure modes low-voltage instruction memories produce.
//!
//! ## Encoding
//!
//! ```text
//! [31:24] opcode
//! [23:20] rd   (or rs2 for SW, rs1 for branches)
//! [19:16] rs1  (or rs2 for branches)
//! [15:12] rs2  (R-type only)
//! [15:0]  imm16 (I-type, loads/stores, branches; sign-extended)
//! [19:0]  imm20 (JAL; sign-extended)
//! ```
//!
//! Register `r0` reads as zero and ignores writes, giving the assembler a
//! free constant and making single-bit register-field corruptions benign
//! more often — the same trick RISC-V uses.

use std::fmt;

/// A register index (`r0` ..= `r15`); `r0` is hardwired to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// The zero register.
    pub(crate) const R0: Reg = Reg(0);

    /// Creates a register index.
    ///
    /// # Panics
    ///
    /// Panics if `i > 15`.
    pub fn new(i: u8) -> Self {
        assert!(i < 16, "register index {i} out of range");
        Reg(i)
    }

    /// The numeric index.
    pub(crate) fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Error produced when a word does not decode to a valid instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The word that failed to decode.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

/// One decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing (rd/rs1/rs2/imm)
pub enum Instruction {
    /// Stop execution.
    Halt,
    // R-type ALU.
    Add { rd: Reg, rs1: Reg, rs2: Reg },
    Sub { rd: Reg, rs1: Reg, rs2: Reg },
    And { rd: Reg, rs1: Reg, rs2: Reg },
    Or { rd: Reg, rs1: Reg, rs2: Reg },
    Xor { rd: Reg, rs1: Reg, rs2: Reg },
    Sll { rd: Reg, rs1: Reg, rs2: Reg },
    Srl { rd: Reg, rs1: Reg, rs2: Reg },
    Sra { rd: Reg, rs1: Reg, rs2: Reg },
    Mul { rd: Reg, rs1: Reg, rs2: Reg },
    Slt { rd: Reg, rs1: Reg, rs2: Reg },
    // I-type ALU.
    Addi { rd: Reg, rs1: Reg, imm: i16 },
    Andi { rd: Reg, rs1: Reg, imm: i16 },
    Ori { rd: Reg, rs1: Reg, imm: i16 },
    Xori { rd: Reg, rs1: Reg, imm: i16 },
    Slli { rd: Reg, rs1: Reg, imm: i16 },
    Srli { rd: Reg, rs1: Reg, imm: i16 },
    Srai { rd: Reg, rs1: Reg, imm: i16 },
    Lui { rd: Reg, imm: i16 },
    Slti { rd: Reg, rs1: Reg, imm: i16 },
    // Memory.
    Lw { rd: Reg, rs1: Reg, imm: i16 },
    Sw { rs2: Reg, rs1: Reg, imm: i16 },
    // Control flow. Branch offsets are in instructions, relative to the
    // *next* instruction.
    Beq { rs1: Reg, rs2: Reg, off: i16 },
    Bne { rs1: Reg, rs2: Reg, off: i16 },
    Blt { rs1: Reg, rs2: Reg, off: i16 },
    Bge { rs1: Reg, rs2: Reg, off: i16 },
    Jal { rd: Reg, off: i32 },
    Jalr { rd: Reg, rs1: Reg, imm: i16 },
    /// Runtime service call (phase markers, checkpoint requests, output).
    Ecall { code: u16 },
}

/// Opcode byte values.
mod op {
    pub(crate) const HALT: u8 = 0x00;
    pub(crate) const ADD: u8 = 0x01;
    pub(crate) const SUB: u8 = 0x02;
    pub(crate) const AND: u8 = 0x03;
    pub(crate) const OR: u8 = 0x04;
    pub(crate) const XOR: u8 = 0x05;
    pub(crate) const SLL: u8 = 0x06;
    pub(crate) const SRL: u8 = 0x07;
    pub(crate) const SRA: u8 = 0x08;
    pub(crate) const MUL: u8 = 0x09;
    pub(crate) const SLT: u8 = 0x0A;
    pub(crate) const ADDI: u8 = 0x10;
    pub(crate) const ANDI: u8 = 0x11;
    pub(crate) const ORI: u8 = 0x12;
    pub(crate) const XORI: u8 = 0x13;
    pub(crate) const SLLI: u8 = 0x14;
    pub(crate) const SRLI: u8 = 0x15;
    pub(crate) const SRAI: u8 = 0x16;
    pub(crate) const LUI: u8 = 0x17;
    pub(crate) const SLTI: u8 = 0x18;
    pub(crate) const LW: u8 = 0x20;
    pub(crate) const SW: u8 = 0x21;
    pub(crate) const BEQ: u8 = 0x30;
    pub(crate) const BNE: u8 = 0x31;
    pub(crate) const BLT: u8 = 0x32;
    pub(crate) const BGE: u8 = 0x33;
    pub(crate) const JAL: u8 = 0x40;
    pub(crate) const JALR: u8 = 0x41;
    pub(crate) const ECALL: u8 = 0x50;
}

fn enc_r(opcode: u8, rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
    (opcode as u32) << 24 | (rd.0 as u32) << 20 | (rs1.0 as u32) << 16 | (rs2.0 as u32) << 12
}

fn enc_i(opcode: u8, rd: Reg, rs1: Reg, imm: i16) -> u32 {
    (opcode as u32) << 24 | (rd.0 as u32) << 20 | (rs1.0 as u32) << 16 | (imm as u16 as u32)
}

fn dec_rd(w: u32) -> Reg {
    Reg((w >> 20 & 0xF) as u8)
}

fn dec_rs1(w: u32) -> Reg {
    Reg((w >> 16 & 0xF) as u8)
}

fn dec_rs2(w: u32) -> Reg {
    Reg((w >> 12 & 0xF) as u8)
}

fn dec_imm16(w: u32) -> i16 {
    (w & 0xFFFF) as u16 as i16
}

fn dec_imm20(w: u32) -> i32 {
    // Sign-extend bits [19:0].
    ((w & 0xF_FFFF) as i32) << 12 >> 12
}

impl Instruction {
    /// Encodes the instruction into its 32-bit word.
    pub fn encode(&self) -> u32 {
        use Instruction::*;
        match *self {
            Halt => (op::HALT as u32) << 24,
            Add { rd, rs1, rs2 } => enc_r(op::ADD, rd, rs1, rs2),
            Sub { rd, rs1, rs2 } => enc_r(op::SUB, rd, rs1, rs2),
            And { rd, rs1, rs2 } => enc_r(op::AND, rd, rs1, rs2),
            Or { rd, rs1, rs2 } => enc_r(op::OR, rd, rs1, rs2),
            Xor { rd, rs1, rs2 } => enc_r(op::XOR, rd, rs1, rs2),
            Sll { rd, rs1, rs2 } => enc_r(op::SLL, rd, rs1, rs2),
            Srl { rd, rs1, rs2 } => enc_r(op::SRL, rd, rs1, rs2),
            Sra { rd, rs1, rs2 } => enc_r(op::SRA, rd, rs1, rs2),
            Mul { rd, rs1, rs2 } => enc_r(op::MUL, rd, rs1, rs2),
            Slt { rd, rs1, rs2 } => enc_r(op::SLT, rd, rs1, rs2),
            Addi { rd, rs1, imm } => enc_i(op::ADDI, rd, rs1, imm),
            Andi { rd, rs1, imm } => enc_i(op::ANDI, rd, rs1, imm),
            Ori { rd, rs1, imm } => enc_i(op::ORI, rd, rs1, imm),
            Xori { rd, rs1, imm } => enc_i(op::XORI, rd, rs1, imm),
            Slli { rd, rs1, imm } => enc_i(op::SLLI, rd, rs1, imm),
            Srli { rd, rs1, imm } => enc_i(op::SRLI, rd, rs1, imm),
            Srai { rd, rs1, imm } => enc_i(op::SRAI, rd, rs1, imm),
            Lui { rd, imm } => enc_i(op::LUI, rd, Reg::R0, imm),
            Slti { rd, rs1, imm } => enc_i(op::SLTI, rd, rs1, imm),
            Lw { rd, rs1, imm } => enc_i(op::LW, rd, rs1, imm),
            Sw { rs2, rs1, imm } => enc_i(op::SW, rs2, rs1, imm),
            Beq { rs1, rs2, off } => enc_i(op::BEQ, rs1, rs2, off),
            Bne { rs1, rs2, off } => enc_i(op::BNE, rs1, rs2, off),
            Blt { rs1, rs2, off } => enc_i(op::BLT, rs1, rs2, off),
            Bge { rs1, rs2, off } => enc_i(op::BGE, rs1, rs2, off),
            Jal { rd, off } => {
                (op::JAL as u32) << 24 | (rd.0 as u32) << 20 | (off as u32 & 0xF_FFFF)
            }
            Jalr { rd, rs1, imm } => enc_i(op::JALR, rd, rs1, imm),
            Ecall { code } => (op::ECALL as u32) << 24 | code as u32,
        }
    }

    /// Decodes a 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for unknown opcodes or malformed reserved
    /// fields — the trap a real core would raise on a corrupted fetch.
    pub fn decode(word: u32) -> Result<Self, DecodeError> {
        use Instruction::*;
        let opcode = (word >> 24) as u8;
        let insn = match opcode {
            op::HALT => Halt,
            op::ADD => Add { rd: dec_rd(word), rs1: dec_rs1(word), rs2: dec_rs2(word) },
            op::SUB => Sub { rd: dec_rd(word), rs1: dec_rs1(word), rs2: dec_rs2(word) },
            op::AND => And { rd: dec_rd(word), rs1: dec_rs1(word), rs2: dec_rs2(word) },
            op::OR => Or { rd: dec_rd(word), rs1: dec_rs1(word), rs2: dec_rs2(word) },
            op::XOR => Xor { rd: dec_rd(word), rs1: dec_rs1(word), rs2: dec_rs2(word) },
            op::SLL => Sll { rd: dec_rd(word), rs1: dec_rs1(word), rs2: dec_rs2(word) },
            op::SRL => Srl { rd: dec_rd(word), rs1: dec_rs1(word), rs2: dec_rs2(word) },
            op::SRA => Sra { rd: dec_rd(word), rs1: dec_rs1(word), rs2: dec_rs2(word) },
            op::MUL => Mul { rd: dec_rd(word), rs1: dec_rs1(word), rs2: dec_rs2(word) },
            op::SLT => Slt { rd: dec_rd(word), rs1: dec_rs1(word), rs2: dec_rs2(word) },
            op::ADDI => Addi { rd: dec_rd(word), rs1: dec_rs1(word), imm: dec_imm16(word) },
            op::ANDI => Andi { rd: dec_rd(word), rs1: dec_rs1(word), imm: dec_imm16(word) },
            op::ORI => Ori { rd: dec_rd(word), rs1: dec_rs1(word), imm: dec_imm16(word) },
            op::XORI => Xori { rd: dec_rd(word), rs1: dec_rs1(word), imm: dec_imm16(word) },
            op::SLLI => Slli { rd: dec_rd(word), rs1: dec_rs1(word), imm: dec_imm16(word) },
            op::SRLI => Srli { rd: dec_rd(word), rs1: dec_rs1(word), imm: dec_imm16(word) },
            op::SRAI => Srai { rd: dec_rd(word), rs1: dec_rs1(word), imm: dec_imm16(word) },
            op::LUI => Lui { rd: dec_rd(word), imm: dec_imm16(word) },
            op::SLTI => Slti { rd: dec_rd(word), rs1: dec_rs1(word), imm: dec_imm16(word) },
            op::LW => Lw { rd: dec_rd(word), rs1: dec_rs1(word), imm: dec_imm16(word) },
            op::SW => Sw { rs2: dec_rd(word), rs1: dec_rs1(word), imm: dec_imm16(word) },
            op::BEQ => Beq { rs1: dec_rd(word), rs2: dec_rs1(word), off: dec_imm16(word) },
            op::BNE => Bne { rs1: dec_rd(word), rs2: dec_rs1(word), off: dec_imm16(word) },
            op::BLT => Blt { rs1: dec_rd(word), rs2: dec_rs1(word), off: dec_imm16(word) },
            op::BGE => Bge { rs1: dec_rd(word), rs2: dec_rs1(word), off: dec_imm16(word) },
            op::JAL => Jal { rd: dec_rd(word), off: dec_imm20(word) },
            op::JALR => Jalr { rd: dec_rd(word), rs1: dec_rs1(word), imm: dec_imm16(word) },
            op::ECALL => Ecall { code: (word & 0xFFFF) as u16 },
            _ => return Err(DecodeError { word }),
        };
        Ok(insn)
    }

    /// Cycle cost of this instruction on the ARM9-flavoured timing model
    /// (not counting memory wait states): multiplies take 2 cycles, taken
    /// control transfers 2 (pipeline refill), everything else 1.
    pub(crate) fn base_cycles(&self) -> u64 {
        use Instruction::*;
        match self {
            Mul { .. } | Jal { .. } | Jalr { .. } => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instruction::*;
        match *self {
            Halt => write!(f, "halt"),
            Add { rd, rs1, rs2 } => write!(f, "add {rd}, {rs1}, {rs2}"),
            Sub { rd, rs1, rs2 } => write!(f, "sub {rd}, {rs1}, {rs2}"),
            And { rd, rs1, rs2 } => write!(f, "and {rd}, {rs1}, {rs2}"),
            Or { rd, rs1, rs2 } => write!(f, "or {rd}, {rs1}, {rs2}"),
            Xor { rd, rs1, rs2 } => write!(f, "xor {rd}, {rs1}, {rs2}"),
            Sll { rd, rs1, rs2 } => write!(f, "sll {rd}, {rs1}, {rs2}"),
            Srl { rd, rs1, rs2 } => write!(f, "srl {rd}, {rs1}, {rs2}"),
            Sra { rd, rs1, rs2 } => write!(f, "sra {rd}, {rs1}, {rs2}"),
            Mul { rd, rs1, rs2 } => write!(f, "mul {rd}, {rs1}, {rs2}"),
            Slt { rd, rs1, rs2 } => write!(f, "slt {rd}, {rs1}, {rs2}"),
            Addi { rd, rs1, imm } => write!(f, "addi {rd}, {rs1}, {imm}"),
            Andi { rd, rs1, imm } => write!(f, "andi {rd}, {rs1}, {imm}"),
            Ori { rd, rs1, imm } => write!(f, "ori {rd}, {rs1}, {imm}"),
            Xori { rd, rs1, imm } => write!(f, "xori {rd}, {rs1}, {imm}"),
            Slli { rd, rs1, imm } => write!(f, "slli {rd}, {rs1}, {imm}"),
            Srli { rd, rs1, imm } => write!(f, "srli {rd}, {rs1}, {imm}"),
            Srai { rd, rs1, imm } => write!(f, "srai {rd}, {rs1}, {imm}"),
            Lui { rd, imm } => write!(f, "lui {rd}, {imm}"),
            Slti { rd, rs1, imm } => write!(f, "slti {rd}, {rs1}, {imm}"),
            Lw { rd, rs1, imm } => write!(f, "lw {rd}, {imm}({rs1})"),
            Sw { rs2, rs1, imm } => write!(f, "sw {rs2}, {imm}({rs1})"),
            Beq { rs1, rs2, off } => write!(f, "beq {rs1}, {rs2}, {off}"),
            Bne { rs1, rs2, off } => write!(f, "bne {rs1}, {rs2}, {off}"),
            Blt { rs1, rs2, off } => write!(f, "blt {rs1}, {rs2}, {off}"),
            Bge { rs1, rs2, off } => write!(f, "bge {rs1}, {rs2}, {off}"),
            Jal { rd, off } => write!(f, "jal {rd}, {off}"),
            Jalr { rd, rs1, imm } => write!(f, "jalr {rd}, {rs1}, {imm}"),
            Ecall { code } => write!(f, "ecall {code}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_samples() -> Vec<Instruction> {
        use Instruction::*;
        let r = Reg::new;
        vec![
            Halt,
            Add { rd: r(1), rs1: r(2), rs2: r(3) },
            Sub { rd: r(15), rs1: r(14), rs2: r(13) },
            And { rd: r(4), rs1: r(5), rs2: r(6) },
            Or { rd: r(7), rs1: r(8), rs2: r(9) },
            Xor { rd: r(1), rs1: r(1), rs2: r(1) },
            Sll { rd: r(2), rs1: r(3), rs2: r(4) },
            Srl { rd: r(2), rs1: r(3), rs2: r(4) },
            Sra { rd: r(2), rs1: r(3), rs2: r(4) },
            Mul { rd: r(10), rs1: r(11), rs2: r(12) },
            Slt { rd: r(5), rs1: r(6), rs2: r(7) },
            Addi { rd: r(1), rs1: r(0), imm: -32768 },
            Andi { rd: r(1), rs1: r(2), imm: 0x7FF },
            Ori { rd: r(1), rs1: r(2), imm: -1 },
            Xori { rd: r(1), rs1: r(2), imm: 12345 },
            Slli { rd: r(1), rs1: r(2), imm: 31 },
            Srli { rd: r(1), rs1: r(2), imm: 1 },
            Srai { rd: r(1), rs1: r(2), imm: 15 },
            Lui { rd: r(9), imm: -1 },
            Slti { rd: r(3), rs1: r(4), imm: -5 },
            Lw { rd: r(6), rs1: r(7), imm: 4092 },
            Sw { rs2: r(6), rs1: r(7), imm: -4096 },
            Beq { rs1: r(1), rs2: r(2), off: -10 },
            Bne { rs1: r(1), rs2: r(2), off: 100 },
            Blt { rs1: r(3), rs2: r(4), off: 0 },
            Bge { rs1: r(3), rs2: r(4), off: 32767 },
            Jal { rd: r(15), off: -524288 },
            Jal { rd: r(0), off: 524287 },
            Jalr { rd: r(0), rs1: r(15), imm: 0 },
            Ecall { code: 0xBEEF },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for insn in all_samples() {
            let word = insn.encode();
            let back = Instruction::decode(word).unwrap();
            assert_eq!(back, insn, "word {word:#010x}");
        }
    }

    #[test]
    fn unknown_opcode_is_trap() {
        assert!(Instruction::decode(0xFF00_0000).is_err());
        assert!(Instruction::decode(0x6000_0000).is_err());
        let e = Instruction::decode(0xAB00_0000).unwrap_err();
        assert!(e.to_string().contains("0xab000000"));
    }

    #[test]
    fn imm20_sign_extension() {
        let j = Instruction::Jal { rd: Reg::R0, off: -1 };
        match Instruction::decode(j.encode()).unwrap() {
            Instruction::Jal { off, .. } => assert_eq!(off, -1),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn corrupting_a_register_field_changes_only_that_field() {
        // A single-bit flip in the rd field must decode to the same opcode
        // with a different destination — not to garbage.
        let insn = Instruction::Add { rd: Reg::new(1), rs1: Reg::new(2), rs2: Reg::new(3) };
        let corrupted = Instruction::decode(insn.encode() ^ (1 << 21)).unwrap();
        match corrupted {
            Instruction::Add { rd, rs1, rs2 } => {
                assert_eq!(rd, Reg::new(3));
                assert_eq!(rs1, Reg::new(2));
                assert_eq!(rs2, Reg::new(3));
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn reg_validation() {
        assert_eq!(Reg::new(15).index(), 15);
        assert_eq!(Reg::R0.index(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_rejects_16() {
        Reg::new(16);
    }

    #[test]
    fn cycle_costs() {
        let r = Reg::new;
        assert_eq!(Instruction::Add { rd: r(1), rs1: r(1), rs2: r(1) }.base_cycles(), 1);
        assert_eq!(Instruction::Mul { rd: r(1), rs1: r(1), rs2: r(1) }.base_cycles(), 2);
        assert_eq!(Instruction::Jal { rd: r(0), off: 0 }.base_cycles(), 2);
    }

    #[test]
    fn display_round_trips_through_assembler_syntax() {
        for insn in all_samples() {
            let s = insn.to_string();
            assert!(!s.is_empty());
        }
        assert_eq!(
            Instruction::Lw { rd: Reg::new(6), rs1: Reg::new(7), imm: 8 }.to_string(),
            "lw r6, 8(r7)"
        );
    }
}
