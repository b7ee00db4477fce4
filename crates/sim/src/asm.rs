//! A small two-pass assembler for the simulated core.
//!
//! Syntax, one instruction per line:
//!
//! ```text
//! ; comments run to end of line (# also works)
//! loop:                     ; labels end with ':'
//!     addi r1, r1, -1
//!     lw   r2, 8(r3)        ; load with base+offset
//!     bne  r1, r0, loop     ; branch targets may be labels or numbers
//!     li   r4, 0x12345678   ; pseudo: expands to lui+ori when needed
//!     halt
//! ```
//!
//! Pseudo-instructions: `nop`, `mv rd, rs`, `li rd, imm32`, `j label`,
//! `call label` (links into `r15`), `ret` (returns through `r15`).
//! `li` with a value outside `i16` assembles to two words (`lui` + `ori`),
//! which the first pass accounts for so label arithmetic stays exact.

use crate::isa::{Instruction, Reg};
use std::collections::HashMap;
use std::fmt;

/// Error produced while assembling, with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number of the offending source line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

/// Assembles source text into encoded instruction words.
///
/// # Errors
///
/// Returns [`AsmError`] with the offending line on any syntax problem,
/// unknown mnemonic, bad register, out-of-range immediate, or undefined /
/// duplicate label.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ntc_sim::asm::AsmError> {
/// let words = ntc_sim::asm::assemble("addi r1, r0, 7\nhalt")?;
/// assert_eq!(words.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn assemble(source: &str) -> Result<Vec<u32>, AsmError> {
    let program = assemble_instructions(source)?;
    Ok(program.iter().map(Instruction::encode).collect())
}

/// Like [`assemble`] but returns decoded [`Instruction`]s (useful for
/// inspection and testing).
///
/// # Errors
///
/// Same as [`assemble`].
pub fn assemble_instructions(source: &str) -> Result<Vec<Instruction>, AsmError> {
    // Pass 1: strip comments/labels, record label addresses, count words.
    struct Item<'a> {
        line_no: usize,
        mnemonic: String,
        operands: Vec<&'a str>,
        address: usize,
        words: usize,
    }
    let mut labels: HashMap<String, usize> = HashMap::new();
    let mut items: Vec<Item> = Vec::new();
    let mut address = 0usize;

    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let mut text = raw;
        if let Some(p) = text.find([';', '#']) {
            text = &text[..p];
        }
        let mut text = text.trim();
        // Labels (possibly several) at line start.
        while let Some(colon) = text.find(':') {
            let (label, rest) = text.split_at(colon);
            let label = label.trim();
            if label.is_empty() || !label.chars().all(|c| c.is_alphanumeric() || c == '_') {
                return Err(err(line_no, format!("invalid label {label:?}")));
            }
            if labels.insert(label.to_string(), address).is_some() {
                return Err(err(line_no, format!("duplicate label {label:?}")));
            }
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let (mnemonic, rest) = match text.find(char::is_whitespace) {
            Some(p) => (&text[..p], text[p..].trim()),
            None => (text, ""),
        };
        let mnemonic = mnemonic.to_ascii_lowercase();
        let operands: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(str::trim).collect()
        };
        // `li` with a wide immediate needs two words; everything else one.
        let words = if mnemonic == "li" {
            let imm = operands
                .get(1)
                .and_then(|s| parse_int(s).ok())
                .unwrap_or(i64::MAX);
            if i16::try_from(imm).is_ok() {
                1
            } else {
                2
            }
        } else {
            1
        };
        items.push(Item {
            line_no,
            mnemonic,
            operands,
            address,
            words,
        });
        address += words;
    }

    // Pass 2: encode.
    let mut out = Vec::with_capacity(address);
    for item in &items {
        let mut ctx = Ctx {
            line: item.line_no,
            labels: &labels,
            address: item.address,
        };
        let expanded = encode_item(&mut ctx, &item.mnemonic, &item.operands)?;
        debug_assert_eq!(expanded.len(), item.words, "pass-1 size mismatch");
        out.extend(expanded);
    }
    Ok(out)
}

struct Ctx<'a> {
    line: usize,
    labels: &'a HashMap<String, usize>,
    address: usize,
}

impl Ctx<'_> {
    fn reg(&self, s: &str) -> Result<Reg, AsmError> {
        let s = s.trim();
        let Some(num) = s.strip_prefix(['r', 'R']) else {
            return Err(err(self.line, format!("expected register, got {s:?}")));
        };
        match num.parse::<u8>() {
            Ok(i) if i < 16 => Ok(Reg::new(i)),
            _ => Err(err(self.line, format!("invalid register {s:?}"))),
        }
    }

    fn imm16(&self, s: &str) -> Result<i16, AsmError> {
        let v = parse_int(s).map_err(|m| err(self.line, m))?;
        i16::try_from(v)
            .map_err(|_| err(self.line, format!("immediate {v} out of i16 range")))
    }

    fn shift_amount(&self, s: &str) -> Result<i16, AsmError> {
        let v = self.imm16(s)?;
        if (0..32).contains(&v) {
            Ok(v)
        } else {
            Err(err(self.line, format!("shift amount {v} out of 0..32")))
        }
    }

    /// Branch offset: a label or a literal offset in instructions.
    fn branch_off(&self, s: &str) -> Result<i16, AsmError> {
        let target = self.target(s)?;
        i16::try_from(target).map_err(|_| err(self.line, "branch target too far".to_string()))
    }

    fn jump_off(&self, s: &str) -> Result<i32, AsmError> {
        let target = self.target(s)?;
        if (-(1 << 19)..(1 << 19)).contains(&target) {
            Ok(target as i32)
        } else {
            Err(err(self.line, "jump target too far".to_string()))
        }
    }

    fn target(&self, s: &str) -> Result<i64, AsmError> {
        if let Some(&addr) = self.labels.get(s.trim()) {
            Ok(addr as i64 - (self.address as i64 + 1))
        } else {
            parse_int(s).map_err(|m| err(self.line, m))
        }
    }

    /// Memory operand `imm(reg)`.
    fn mem(&self, s: &str) -> Result<(Reg, i16), AsmError> {
        let s = s.trim();
        let open = s
            .find('(')
            .ok_or_else(|| err(self.line, format!("expected imm(reg), got {s:?}")))?;
        if !s.ends_with(')') {
            return Err(err(self.line, format!("expected imm(reg), got {s:?}")));
        }
        let imm_str = &s[..open];
        let reg_str = &s[open + 1..s.len() - 1];
        let imm = if imm_str.trim().is_empty() {
            0
        } else {
            self.imm16(imm_str)?
        };
        Ok((self.reg(reg_str)?, imm))
    }
}

fn parse_int(s: &str) -> Result<i64, String> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let parsed = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse::<i64>()
    };
    match parsed {
        Ok(v) => Ok(if neg { -v } else { v }),
        Err(_) => Err(format!("invalid number {s:?}")),
    }
}

fn expect_operands(ctx: &Ctx<'_>, ops: &[&str], n: usize) -> Result<(), AsmError> {
    if ops.len() == n {
        Ok(())
    } else {
        Err(err(
            ctx.line,
            format!("expected {n} operands, got {}", ops.len()),
        ))
    }
}

fn encode_item(
    ctx: &mut Ctx<'_>,
    mnemonic: &str,
    ops: &[&str],
) -> Result<Vec<Instruction>, AsmError> {
    use Instruction::*;
    let insn = match mnemonic {
        "halt" => {
            expect_operands(ctx, ops, 0)?;
            Halt
        }
        "add" | "sub" | "and" | "or" | "xor" | "sll" | "srl" | "sra" | "mul" | "slt" => {
            expect_operands(ctx, ops, 3)?;
            let rd = ctx.reg(ops[0])?;
            let rs1 = ctx.reg(ops[1])?;
            let rs2 = ctx.reg(ops[2])?;
            match mnemonic {
                "add" => Add { rd, rs1, rs2 },
                "sub" => Sub { rd, rs1, rs2 },
                "and" => And { rd, rs1, rs2 },
                "or" => Or { rd, rs1, rs2 },
                "xor" => Xor { rd, rs1, rs2 },
                "sll" => Sll { rd, rs1, rs2 },
                "srl" => Srl { rd, rs1, rs2 },
                "sra" => Sra { rd, rs1, rs2 },
                "mul" => Mul { rd, rs1, rs2 },
                _ => Slt { rd, rs1, rs2 },
            }
        }
        "addi" | "andi" | "ori" | "xori" | "slti" => {
            expect_operands(ctx, ops, 3)?;
            let rd = ctx.reg(ops[0])?;
            let rs1 = ctx.reg(ops[1])?;
            let imm = ctx.imm16(ops[2])?;
            match mnemonic {
                "addi" => Addi { rd, rs1, imm },
                "andi" => Andi { rd, rs1, imm },
                "ori" => Ori { rd, rs1, imm },
                "xori" => Xori { rd, rs1, imm },
                _ => Slti { rd, rs1, imm },
            }
        }
        "slli" | "srli" | "srai" => {
            expect_operands(ctx, ops, 3)?;
            let rd = ctx.reg(ops[0])?;
            let rs1 = ctx.reg(ops[1])?;
            let imm = ctx.shift_amount(ops[2])?;
            match mnemonic {
                "slli" => Slli { rd, rs1, imm },
                "srli" => Srli { rd, rs1, imm },
                _ => Srai { rd, rs1, imm },
            }
        }
        "lui" => {
            expect_operands(ctx, ops, 2)?;
            let rd = ctx.reg(ops[0])?;
            let v = parse_int(ops[1]).map_err(|m| err(ctx.line, m))?;
            if !(0..=0xFFFF).contains(&v) && i16::try_from(v).is_err() {
                return Err(err(ctx.line, format!("lui immediate {v} out of range")));
            }
            Lui { rd, imm: v as u16 as i16 }
        }
        "lw" => {
            expect_operands(ctx, ops, 2)?;
            let rd = ctx.reg(ops[0])?;
            let (rs1, imm) = ctx.mem(ops[1])?;
            Lw { rd, rs1, imm }
        }
        "sw" => {
            expect_operands(ctx, ops, 2)?;
            let rs2 = ctx.reg(ops[0])?;
            let (rs1, imm) = ctx.mem(ops[1])?;
            Sw { rs2, rs1, imm }
        }
        "beq" | "bne" | "blt" | "bge" => {
            expect_operands(ctx, ops, 3)?;
            let rs1 = ctx.reg(ops[0])?;
            let rs2 = ctx.reg(ops[1])?;
            let off = ctx.branch_off(ops[2])?;
            match mnemonic {
                "beq" => Beq { rs1, rs2, off },
                "bne" => Bne { rs1, rs2, off },
                "blt" => Blt { rs1, rs2, off },
                _ => Bge { rs1, rs2, off },
            }
        }
        "jal" => {
            expect_operands(ctx, ops, 2)?;
            let rd = ctx.reg(ops[0])?;
            let off = ctx.jump_off(ops[1])?;
            Jal { rd, off }
        }
        "jalr" => {
            expect_operands(ctx, ops, 3)?;
            let rd = ctx.reg(ops[0])?;
            let rs1 = ctx.reg(ops[1])?;
            let imm = ctx.imm16(ops[2])?;
            Jalr { rd, rs1, imm }
        }
        "ecall" => {
            expect_operands(ctx, ops, 1)?;
            let v = parse_int(ops[0]).map_err(|m| err(ctx.line, m))?;
            let code = u16::try_from(v)
                .map_err(|_| err(ctx.line, format!("ecall code {v} out of u16 range")))?;
            Ecall { code }
        }
        // Pseudo-instructions.
        "nop" => {
            expect_operands(ctx, ops, 0)?;
            Addi { rd: Reg::R0, rs1: Reg::R0, imm: 0 }
        }
        "mv" => {
            expect_operands(ctx, ops, 2)?;
            Addi { rd: ctx.reg(ops[0])?, rs1: ctx.reg(ops[1])?, imm: 0 }
        }
        "j" => {
            expect_operands(ctx, ops, 1)?;
            Jal { rd: Reg::R0, off: ctx.jump_off(ops[0])? }
        }
        "call" => {
            expect_operands(ctx, ops, 1)?;
            Jal { rd: Reg::new(15), off: ctx.jump_off(ops[0])? }
        }
        "ret" => {
            expect_operands(ctx, ops, 0)?;
            Jalr { rd: Reg::R0, rs1: Reg::new(15), imm: 0 }
        }
        "li" => {
            expect_operands(ctx, ops, 2)?;
            let rd = ctx.reg(ops[0])?;
            let v = parse_int(ops[1]).map_err(|m| err(ctx.line, m))?;
            if let Ok(small) = i16::try_from(v) {
                Addi { rd, rs1: Reg::R0, imm: small }
            } else {
                let v32 = u32::try_from(v as u64 & 0xFFFF_FFFF)
                    .map_err(|_| err(ctx.line, format!("li value {v} out of 32-bit range")))?;
                if !(-(1i64 << 31)..(1i64 << 32)).contains(&v) {
                    return Err(err(ctx.line, format!("li value {v} out of 32-bit range")));
                }
                let hi = (v32 >> 16) as u16 as i16;
                let lo = (v32 & 0xFFFF) as u16 as i16;
                ctx.address += 1; // the second word shifts label math
                return Ok(vec![
                    Lui { rd, imm: hi },
                    Ori { rd, rs1: rd, imm: lo },
                ]);
            }
        }
        other => return Err(err(ctx.line, format!("unknown mnemonic {other:?}"))),
    };
    Ok(vec![insn])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Instruction::*;

    #[test]
    fn basic_program() {
        let insns = assemble_instructions("addi r1, r0, 5\nadd r2, r1, r1\nhalt").unwrap();
        assert_eq!(insns.len(), 3);
        assert_eq!(insns[2], Halt);
    }

    #[test]
    fn comments_and_blank_lines() {
        let insns = assemble_instructions(
            "; leading comment\n\n  addi r1, r0, 1 ; trailing\n# hash comment\nhalt",
        )
        .unwrap();
        assert_eq!(insns.len(), 2);
    }

    #[test]
    fn labels_resolve_backward_and_forward() {
        let src = "
            addi r1, r0, 3
        loop:
            addi r1, r1, -1
            bne  r1, r0, loop
            beq  r0, r0, done
            addi r2, r0, 99    ; skipped
        done:
            halt";
        let insns = assemble_instructions(src).unwrap();
        match insns[2] {
            Bne { off, .. } => assert_eq!(off, -2),
            ref other => panic!("{other:?}"),
        }
        match insns[3] {
            Beq { off, .. } => assert_eq!(off, 1),
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn memory_operands() {
        let insns = assemble_instructions("lw r1, 8(r2)\nsw r3, -4(r4)\nlw r5, (r6)").unwrap();
        assert_eq!(insns[0], Lw { rd: Reg::new(1), rs1: Reg::new(2), imm: 8 });
        assert_eq!(insns[1], Sw { rs2: Reg::new(3), rs1: Reg::new(4), imm: -4 });
        assert_eq!(insns[2], Lw { rd: Reg::new(5), rs1: Reg::new(6), imm: 0 });
    }

    #[test]
    fn li_small_is_one_word() {
        let insns = assemble_instructions("li r1, -42\nhalt").unwrap();
        assert_eq!(insns.len(), 2);
        assert_eq!(insns[0], Addi { rd: Reg::new(1), rs1: Reg::R0, imm: -42 });
    }

    #[test]
    fn li_wide_is_two_words_and_labels_stay_correct() {
        let src = "
            li r1, 0x12345678
            beq r0, r0, end
            addi r2, r0, 1
        end:
            halt";
        let insns = assemble_instructions(src).unwrap();
        assert_eq!(insns.len(), 5);
        assert_eq!(insns[0], Lui { rd: Reg::new(1), imm: 0x1234 });
        assert_eq!(insns[1], Ori { rd: Reg::new(1), rs1: Reg::new(1), imm: 0x5678 });
        match insns[2] {
            Beq { off, .. } => assert_eq!(off, 1, "label must account for li expansion"),
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pseudo_instructions() {
        let insns =
            assemble_instructions("nop\nmv r2, r3\nj next\nnext: call next\nret\nhalt").unwrap();
        assert_eq!(insns[0], Addi { rd: Reg::R0, rs1: Reg::R0, imm: 0 });
        assert_eq!(insns[1], Addi { rd: Reg::new(2), rs1: Reg::new(3), imm: 0 });
        assert_eq!(insns[2], Jal { rd: Reg::R0, off: 0 });
        assert_eq!(insns[3], Jal { rd: Reg::new(15), off: -1 });
        assert_eq!(insns[4], Jalr { rd: Reg::R0, rs1: Reg::new(15), imm: 0 });
    }

    #[test]
    fn hex_and_negative_numbers() {
        let insns = assemble_instructions("addi r1, r0, 0x7f\naddi r2, r0, -0x10").unwrap();
        assert_eq!(insns[0], Addi { rd: Reg::new(1), rs1: Reg::R0, imm: 127 });
        assert_eq!(insns[1], Addi { rd: Reg::new(2), rs1: Reg::R0, imm: -16 });
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble_instructions("nop\nbogus r1, r2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn error_cases() {
        assert!(assemble_instructions("addi r1, r0").is_err(), "operand count");
        assert!(assemble_instructions("addi r16, r0, 1").is_err(), "bad register");
        assert!(assemble_instructions("addi r1, r0, 40000").is_err(), "imm range");
        assert!(assemble_instructions("slli r1, r0, 32").is_err(), "shift range");
        assert!(assemble_instructions("beq r0, r0, nowhere").is_err(), "unknown label");
        assert!(assemble_instructions("x: nop\nx: nop").is_err(), "duplicate label");
        assert!(assemble_instructions("lw r1, r2").is_err(), "mem operand");
        assert!(assemble_instructions("1bad: nop").is_ok(), "alnum labels allowed");
        assert!(assemble_instructions("ba d: nop").is_err(), "space in label");
    }

    #[test]
    fn assembled_words_decode_back() {
        let words = assemble("addi r1, r0, 5\nlw r2, 4(r1)\nhalt").unwrap();
        for w in words {
            Instruction::decode(w).unwrap();
        }
    }
}
