//! The processor core: architectural state, semantics, cycle accounting.
//!
//! The core models a 32-bit ARM9-class embedded processor at cycle level:
//! single issue, 1 cycle per ALU operation, 2 per multiply or taken control
//! transfer, plus configurable memory wait states charged by the platform.
//! The program counter is in *instruction* units (instruction memory is an
//! array of 32-bit words); data addresses are in *bytes* and must be
//! word-aligned.
//!
//! Semantics notes (MIPS-flavoured):
//!
//! * `r0` reads zero and ignores writes;
//! * logical immediates (`andi`/`ori`/`xori`) zero-extend, arithmetic ones
//!   (`addi`/`slti`) sign-extend;
//! * all arithmetic wraps (two's complement).

use crate::isa::{Instruction, Reg};
use crate::memory::{DataPort, MemoryFault};
use std::fmt;

/// Reasons execution stops abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// A fetched word did not decode (corrupted instruction memory,
    /// or a jump into garbage).
    InvalidInstruction {
        /// Instruction index of the bad fetch.
        pc: usize,
        /// The raw word.
        word: u32,
    },
    /// The program counter left instruction memory.
    PcOutOfRange {
        /// The offending instruction index.
        pc: usize,
    },
    /// A data access was not word-aligned.
    UnalignedAccess {
        /// The byte address.
        addr: u32,
    },
    /// A data access fell outside the scratchpad.
    DataOutOfRange {
        /// The byte address.
        addr: u32,
    },
    /// The memory backend reported an uncorrectable error (e.g. SECDED
    /// double-error detection).
    UncorrectableData {
        /// The word index the backend flagged.
        word_index: usize,
    },
    /// The cycle budget ran out before `halt`.
    CycleLimit,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::InvalidInstruction { pc, word } => {
                write!(f, "invalid instruction {word:#010x} at pc {pc}")
            }
            Trap::PcOutOfRange { pc } => write!(f, "pc {pc} out of instruction memory"),
            Trap::UnalignedAccess { addr } => write!(f, "unaligned data access at {addr:#x}"),
            Trap::DataOutOfRange { addr } => write!(f, "data access at {addr:#x} out of range"),
            Trap::UncorrectableData { word_index } => {
                write!(f, "uncorrectable data error at word {word_index}")
            }
            Trap::CycleLimit => write!(f, "cycle limit reached"),
        }
    }
}

impl std::error::Error for Trap {}

/// What one `Core::step` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepEvent {
    /// Core cycles consumed (memory wait states are charged by the caller).
    pub cycles: u64,
    /// A data-memory read happened (word index).
    pub load: Option<usize>,
    /// A data-memory write happened: (word index, value written).
    pub store: Option<(usize, u32)>,
    /// An `ecall` was executed with this code.
    pub ecall: Option<u16>,
    /// The core executed `halt`.
    pub halted: bool,
}

/// Summary of a completed [`Core::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Whether the program reached `halt` (as opposed to the cycle limit).
    pub halted: bool,
    /// Total core cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Data loads performed.
    pub loads: u64,
    /// Data stores performed.
    pub stores: u64,
}

/// The processor core's architectural state.
///
/// # Example
///
/// ```
/// use ntc_sim::{asm, machine::Core, memory::RawMemory};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = asm::assemble("li r1, 6\nli r2, 7\nmul r3, r1, r2\nsw r3, 0(r0)\nhalt")?;
/// let mut sp = RawMemory::new(4);
/// let outcome = Core::new().run(&program, &mut sp, 1_000)?;
/// assert!(outcome.halted);
/// assert_eq!(sp.load(0), 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Core {
    regs: [u32; 16],
    pc: usize,
}

impl Default for Core {
    fn default() -> Self {
        Self::new()
    }
}

impl Core {
    /// A core reset to pc 0 with zeroed registers.
    pub fn new() -> Self {
        Self {
            regs: [0; 16],
            pc: 0,
        }
    }

    /// Current program counter (instruction index).
    pub(crate) fn pc(&self) -> usize {
        self.pc
    }

    /// Reads a register (`r0` is always zero).
    pub(crate) fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register (writes to `r0` are ignored).
    pub(crate) fn set_reg(&mut self, r: Reg, value: u32) {
        if r.index() != 0 {
            self.regs[r.index()] = value;
        }
    }

    /// Executes one instruction against `im` (instruction words) and `mem`.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on invalid fetches, bad addresses, or
    /// uncorrectable data errors signalled by the backend.
    pub(crate) fn step(&mut self, im: &[u32], mem: &mut dyn DataPort) -> Result<StepEvent, Trap> {
        use Instruction::*;
        let pc = self.pc;
        let word = *im.get(pc).ok_or(Trap::PcOutOfRange { pc })?;
        let insn = Instruction::decode(word).map_err(|_| Trap::InvalidInstruction { pc, word })?;
        let mut ev = StepEvent {
            cycles: insn.base_cycles(),
            load: None,
            store: None,
            ecall: None,
            halted: false,
        };
        let mut next_pc = pc + 1;
        match insn {
            Halt => {
                ev.halted = true;
                next_pc = pc;
            }
            Add { rd, rs1, rs2 } => {
                self.set_reg(rd, self.reg(rs1).wrapping_add(self.reg(rs2)));
            }
            Sub { rd, rs1, rs2 } => {
                self.set_reg(rd, self.reg(rs1).wrapping_sub(self.reg(rs2)));
            }
            And { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) & self.reg(rs2)),
            Or { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) | self.reg(rs2)),
            Xor { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) ^ self.reg(rs2)),
            Sll { rd, rs1, rs2 } => {
                self.set_reg(rd, self.reg(rs1).wrapping_shl(self.reg(rs2) & 31));
            }
            Srl { rd, rs1, rs2 } => {
                self.set_reg(rd, self.reg(rs1).wrapping_shr(self.reg(rs2) & 31));
            }
            Sra { rd, rs1, rs2 } => {
                self.set_reg(rd, ((self.reg(rs1) as i32) >> (self.reg(rs2) & 31)) as u32);
            }
            Mul { rd, rs1, rs2 } => {
                self.set_reg(rd, self.reg(rs1).wrapping_mul(self.reg(rs2)));
            }
            Slt { rd, rs1, rs2 } => {
                let flag = (self.reg(rs1) as i32) < (self.reg(rs2) as i32);
                self.set_reg(rd, flag as u32);
            }
            Addi { rd, rs1, imm } => {
                self.set_reg(rd, self.reg(rs1).wrapping_add(imm as i32 as u32));
            }
            Andi { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) & (imm as u16 as u32)),
            Ori { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) | (imm as u16 as u32)),
            Xori { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) ^ (imm as u16 as u32)),
            Slli { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1).wrapping_shl(imm as u32 & 31)),
            Srli { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1).wrapping_shr(imm as u32 & 31)),
            Srai { rd, rs1, imm } => {
                self.set_reg(rd, ((self.reg(rs1) as i32) >> (imm as u32 & 31)) as u32);
            }
            Lui { rd, imm } => self.set_reg(rd, (imm as u16 as u32) << 16),
            Slti { rd, rs1, imm } => {
                let flag = (self.reg(rs1) as i32) < imm as i32;
                self.set_reg(rd, flag as u32);
            }
            Lw { rd, rs1, imm } => {
                let addr = self.reg(rs1).wrapping_add(imm as i32 as u32);
                let idx = self.word_index(addr, mem)?;
                let value = mem.read(idx).map_err(|MemoryFault { word_index }| {
                    Trap::UncorrectableData { word_index }
                })?;
                self.set_reg(rd, value);
                ev.load = Some(idx);
            }
            Sw { rs2, rs1, imm } => {
                let addr = self.reg(rs1).wrapping_add(imm as i32 as u32);
                let idx = self.word_index(addr, mem)?;
                mem.write(idx, self.reg(rs2))
                    .map_err(|MemoryFault { word_index }| Trap::UncorrectableData { word_index })?;
                ev.store = Some((idx, self.reg(rs2)));
            }
            Beq { rs1, rs2, off } => {
                if self.reg(rs1) == self.reg(rs2) {
                    next_pc = Self::branch_target(pc, off)?;
                    ev.cycles += 1;
                }
            }
            Bne { rs1, rs2, off } => {
                if self.reg(rs1) != self.reg(rs2) {
                    next_pc = Self::branch_target(pc, off)?;
                    ev.cycles += 1;
                }
            }
            Blt { rs1, rs2, off } => {
                if (self.reg(rs1) as i32) < (self.reg(rs2) as i32) {
                    next_pc = Self::branch_target(pc, off)?;
                    ev.cycles += 1;
                }
            }
            Bge { rs1, rs2, off } => {
                if (self.reg(rs1) as i32) >= (self.reg(rs2) as i32) {
                    next_pc = Self::branch_target(pc, off)?;
                    ev.cycles += 1;
                }
            }
            Jal { rd, off } => {
                self.set_reg(rd, (pc + 1) as u32);
                let target = pc as i64 + 1 + off as i64;
                next_pc = usize::try_from(target).map_err(|_| Trap::PcOutOfRange {
                    pc: target.max(0) as usize,
                })?;
            }
            Jalr { rd, rs1, imm } => {
                let target = self.reg(rs1).wrapping_add(imm as i32 as u32) as usize;
                self.set_reg(rd, (pc + 1) as u32);
                next_pc = target;
            }
            Ecall { code } => ev.ecall = Some(code),
        }
        self.pc = next_pc;
        Ok(ev)
    }

    fn branch_target(pc: usize, off: i16) -> Result<usize, Trap> {
        let target = pc as i64 + 1 + off as i64;
        usize::try_from(target).map_err(|_| Trap::PcOutOfRange { pc: 0 })
    }

    fn word_index(&self, addr: u32, mem: &dyn DataPort) -> Result<usize, Trap> {
        if !addr.is_multiple_of(4) {
            return Err(Trap::UnalignedAccess { addr });
        }
        let idx = (addr / 4) as usize;
        if idx >= mem.words() {
            return Err(Trap::DataOutOfRange { addr });
        }
        Ok(idx)
    }

    /// Runs until `halt`, a trap, or `max_cycles`.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] that stopped execution; [`Trap::CycleLimit`] if
    /// the budget ran out.
    pub fn run(
        &mut self,
        im: &[u32],
        mem: &mut dyn DataPort,
        max_cycles: u64,
    ) -> Result<RunOutcome, Trap> {
        let mut out = RunOutcome {
            halted: false,
            cycles: 0,
            instructions: 0,
            loads: 0,
            stores: 0,
        };
        while out.cycles < max_cycles {
            let ev = self.step(im, mem)?;
            out.cycles += ev.cycles;
            out.instructions += 1;
            out.loads += ev.load.is_some() as u64;
            out.stores += ev.store.is_some() as u64;
            if ev.halted {
                out.halted = true;
                return Ok(out);
            }
        }
        Err(Trap::CycleLimit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::memory::RawMemory;

    fn run(src: &str, mem_words: usize) -> (Core, RawMemory, RunOutcome) {
        let program = assemble(src).expect("assembles");
        let mut core = Core::new();
        let mut mem = RawMemory::new(mem_words);
        let outcome = core.run(&program, &mut mem, 1_000_000).expect("runs");
        (core, mem, outcome)
    }

    #[test]
    fn arithmetic_and_logic() {
        let (core, _, _) = run(
            "li r1, 100
             li r2, -30
             add r3, r1, r2
             sub r4, r1, r2
             and r5, r1, r2
             or  r6, r1, r2
             xor r7, r1, r2
             mul r8, r1, r2
             halt",
            4,
        );
        assert_eq!(core.reg(Reg::new(3)), 70);
        assert_eq!(core.reg(Reg::new(4)), 130);
        assert_eq!(core.reg(Reg::new(5)), 100 & (-30i32 as u32));
        assert_eq!(core.reg(Reg::new(6)), 100 | (-30i32 as u32));
        assert_eq!(core.reg(Reg::new(7)), 100 ^ (-30i32 as u32));
        assert_eq!(core.reg(Reg::new(8)), (100i32.wrapping_mul(-30)) as u32);
    }

    #[test]
    fn shifts_and_compare() {
        let (core, _, _) = run(
            "li r1, -8
             srai r2, r1, 1
             srli r3, r1, 1
             slli r4, r1, 2
             slt  r5, r1, r0
             slt  r6, r0, r1
             slti r7, r1, -7
             halt",
            4,
        );
        assert_eq!(core.reg(Reg::new(2)) as i32, -4);
        assert_eq!(core.reg(Reg::new(3)), (-8i32 as u32) >> 1);
        assert_eq!(core.reg(Reg::new(4)) as i32, -32);
        assert_eq!(core.reg(Reg::new(5)), 1);
        assert_eq!(core.reg(Reg::new(6)), 0);
        assert_eq!(core.reg(Reg::new(7)), 1);
    }

    #[test]
    fn logical_immediates_zero_extend() {
        let (core, _, _) = run("li r1, 0\nori r1, r1, -1\nhalt", 4);
        // ori zero-extends: 0x0000FFFF, not 0xFFFFFFFF.
        assert_eq!(core.reg(Reg::new(1)), 0xFFFF);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let (core, _, _) = run("addi r0, r0, 5\nadd r1, r0, r0\nhalt", 4);
        assert_eq!(core.reg(Reg::R0), 0);
        assert_eq!(core.reg(Reg::new(1)), 0);
    }

    #[test]
    fn loads_and_stores() {
        let (core, mem, outcome) = run(
            "li r1, 0x1234
             sw r1, 8(r0)
             lw r2, 8(r0)
             halt",
            8,
        );
        assert_eq!(mem.load(2), 0x1234);
        assert_eq!(core.reg(Reg::new(2)), 0x1234);
        assert_eq!(outcome.loads, 1);
        assert_eq!(outcome.stores, 1);
    }

    #[test]
    fn loop_sums_memory() {
        // Sum mem[0..10] written by the program itself.
        let (core, _, _) = run(
            "   li r1, 0      ; i
                li r2, 0      ; addr
                li r3, 10
            fill:
                sw r1, 0(r2)
                addi r1, r1, 1
                addi r2, r2, 4
                bne r1, r3, fill
                li r1, 0      ; i
                li r2, 0      ; addr
                li r4, 0      ; sum
            sum:
                lw r5, 0(r2)
                add r4, r4, r5
                addi r1, r1, 1
                addi r2, r2, 4
                bne r1, r3, sum
                halt",
            16,
        );
        assert_eq!(core.reg(Reg::new(4)), 45);
    }

    #[test]
    fn call_and_return() {
        let (core, _, _) = run(
            "   li r1, 5
                call double
                call double
                halt
            double:
                add r1, r1, r1
                ret",
            4,
        );
        assert_eq!(core.reg(Reg::new(1)), 20);
    }

    #[test]
    fn ecall_reported() {
        let program = assemble("ecall 7\nhalt").unwrap();
        let mut core = Core::new();
        let mut mem = RawMemory::new(4);
        let ev = core.step(&program, &mut mem).unwrap();
        assert_eq!(ev.ecall, Some(7));
    }

    #[test]
    fn traps() {
        let mut mem = RawMemory::new(4);
        // Unaligned.
        let p = assemble("li r1, 2\nlw r2, 0(r1)\nhalt").unwrap();
        let e = Core::new().run(&p, &mut mem, 100).unwrap_err();
        assert!(matches!(e, Trap::UnalignedAccess { addr: 2 }));
        // Out of range.
        let p = assemble("li r1, 4096\nlw r2, 0(r1)\nhalt").unwrap();
        let e = Core::new().run(&p, &mut mem, 100).unwrap_err();
        assert!(matches!(e, Trap::DataOutOfRange { .. }));
        // PC out of range (fall off the end).
        let p = assemble("nop").unwrap();
        let e = Core::new().run(&p, &mut mem, 100).unwrap_err();
        assert!(matches!(e, Trap::PcOutOfRange { .. }));
        // Invalid instruction.
        let e = Core::new().run(&[0xDEAD_BEEF], &mut mem, 100).unwrap_err();
        assert!(matches!(e, Trap::InvalidInstruction { .. }));
        // Cycle limit.
        let p = assemble("spin: j spin").unwrap();
        let e = Core::new().run(&p, &mut mem, 50).unwrap_err();
        assert_eq!(e, Trap::CycleLimit);
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn cycle_accounting() {
        // 2 x li (1 cycle) + mul (2) + taken branch (2) + not-taken (1) +
        // halt (1... base_cycles of Halt is 1 via default match arm).
        let (_, _, outcome) = run(
            "li r1, 1
             li r2, 2
             mul r3, r1, r2
             beq r1, r1, next   ; taken: 2 cycles
            next:
             beq r1, r2, never  ; not taken: 1 cycle
             halt
            never:
             halt",
            4,
        );
        assert_eq!(outcome.cycles, 1 + 1 + 2 + 2 + 1 + 1);
        assert_eq!(outcome.instructions, 6);
    }
}
