//! Workload profiling: instruction mix and memory-traffic statistics.
//!
//! The OCEAN phase optimizer needs the workload's cycle and access counts
//! (`ntc-ocean`'s `PhaseCostModel` inputs); rather than guessing them,
//! [`profile`] measures them on an error-free run. The per-category
//! instruction histogram also documents what the kernels actually execute
//! — useful when calibrating the core's energy-per-cycle figure.

use crate::isa::Instruction;
use crate::machine::{Core, Trap};
use crate::memory::DataPort;
use std::fmt;

/// Instruction categories for the mix histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum InsnClass {
    /// Register and immediate ALU operations.
    Alu,
    /// Multiplies.
    Mul,
    /// Loads.
    Load,
    /// Stores.
    Store,
    /// Branches (taken or not) and jumps.
    Control,
    /// `ecall` and `halt`.
    System,
}

impl InsnClass {
    /// Classifies an instruction.
    pub(crate) fn of(insn: &Instruction) -> Self {
        use Instruction::*;
        match insn {
            Mul { .. } => InsnClass::Mul,
            Lw { .. } => InsnClass::Load,
            Sw { .. } => InsnClass::Store,
            Beq { .. } | Bne { .. } | Blt { .. } | Bge { .. } | Jal { .. } | Jalr { .. } => {
                InsnClass::Control
            }
            Ecall { .. } | Halt => InsnClass::System,
            _ => InsnClass::Alu,
        }
    }

    /// All classes, in display order.
    pub(crate) const ALL: [InsnClass; 6] = [
        InsnClass::Alu,
        InsnClass::Mul,
        InsnClass::Load,
        InsnClass::Store,
        InsnClass::Control,
        InsnClass::System,
    ];
}

impl fmt::Display for InsnClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InsnClass::Alu => "alu",
            InsnClass::Mul => "mul",
            InsnClass::Load => "load",
            InsnClass::Store => "store",
            InsnClass::Control => "control",
            InsnClass::System => "system",
        };
        f.write_str(s)
    }
}

/// Measured execution profile of a program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Total core cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Data loads.
    pub loads: u64,
    /// Data stores.
    pub stores: u64,
    /// `ecall 1` phase markers seen.
    pub phase_markers: u64,
    /// Per-class instruction counts, indexed by `InsnClass::ALL` order.
    pub class_counts: [u64; 6],
}

impl Profile {
    /// Total scratchpad accesses (loads + stores).
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// Fraction of instructions in `class`.
    #[cfg(test)]
    pub(crate) fn class_fraction(&self, class: InsnClass) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        let idx = InsnClass::ALL.iter().position(|&c| c == class).expect("listed");
        self.class_counts[idx] as f64 / self.instructions as f64
    }

    /// Cycles per instruction.
    pub(crate) fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} cycles, {} instructions (CPI {:.2}), {} loads, {} stores, {} phases",
            self.cycles, self.instructions, self.cpi(), self.loads, self.stores,
            self.phase_markers
        )?;
        for (i, class) in InsnClass::ALL.iter().enumerate() {
            writeln!(
                f,
                "  {class:<8} {:>9} ({:>5.1} %)",
                self.class_counts[i],
                100.0 * self.class_counts[i] as f64 / self.instructions.max(1) as f64
            )?;
        }
        Ok(())
    }
}

/// Runs `program` to `halt` on `mem` and measures its profile.
///
/// # Errors
///
/// Propagates any [`Trap`]; profile a workload on an error-free memory.
///
/// # Example
///
/// ```
/// use ntc_sim::asm::assemble;
/// use ntc_sim::memory::RawMemory;
/// use ntc_sim::profile::profile;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = assemble("li r1, 3\nsw r1, 0(r0)\nlw r2, 0(r0)\nhalt")?;
/// let p = profile(&program, &mut RawMemory::new(4), 1_000)?;
/// assert_eq!(p.loads, 1);
/// assert_eq!(p.stores, 1);
/// assert_eq!(p.instructions, 4);
/// # Ok(())
/// # }
/// ```
pub fn profile(
    program: &[u32],
    mem: &mut dyn DataPort,
    max_cycles: u64,
) -> Result<Profile, Trap> {
    let mut span = ntc_obs::span("sim.profile");
    let result = run(program, mem, max_cycles);
    if ntc_obs::enabled() {
        match &result {
            Ok(out) => {
                span.add_items(out.instructions);
                ntc_obs::counter_add("sim.profile.cycles", out.cycles);
                ntc_obs::counter_add("sim.profile.instructions", out.instructions);
                ntc_obs::counter_add("sim.profile.loads", out.loads);
                ntc_obs::counter_add("sim.profile.stores", out.stores);
                ntc_obs::counter_add("sim.profile.phase_markers", out.phase_markers);
                for (i, class) in InsnClass::ALL.iter().enumerate() {
                    ntc_obs::counter_add(&format!("sim.insn.{class}"), out.class_counts[i]);
                }
            }
            Err(_) => ntc_obs::counter_add("sim.profile.traps", 1),
        }
    }
    result
}

fn run(program: &[u32], mem: &mut dyn DataPort, max_cycles: u64) -> Result<Profile, Trap> {
    let mut core = Core::new();
    let mut out = Profile::default();
    loop {
        if out.cycles >= max_cycles {
            return Err(Trap::CycleLimit);
        }
        let pc = core.pc();
        let insn = Instruction::decode(program[pc.min(program.len() - 1)])
            .map_err(|e| Trap::InvalidInstruction { pc, word: e.word })?;
        let class = InsnClass::of(&insn);
        let ev = core.step(program, mem)?;
        out.cycles += ev.cycles;
        out.instructions += 1;
        out.loads += ev.load.is_some() as u64;
        out.stores += ev.store.is_some() as u64;
        out.phase_markers += (ev.ecall == Some(1)) as u64;
        let idx = InsnClass::ALL.iter().position(|&c| c == class).expect("listed");
        out.class_counts[idx] += 1;
        if ev.halted {
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::fft::{fft_program, random_input, scratchpad_words, twiddle_table};
    use crate::memory::RawMemory;

    #[test]
    fn classifies_instructions() {
        use crate::isa::Reg;
        let r = Reg::new;
        assert_eq!(
            InsnClass::of(&Instruction::Add { rd: r(1), rs1: r(2), rs2: r(3) }),
            InsnClass::Alu
        );
        assert_eq!(
            InsnClass::of(&Instruction::Mul { rd: r(1), rs1: r(2), rs2: r(3) }),
            InsnClass::Mul
        );
        assert_eq!(
            InsnClass::of(&Instruction::Jal { rd: r(0), off: 1 }),
            InsnClass::Control
        );
        assert_eq!(InsnClass::of(&Instruction::Halt), InsnClass::System);
    }

    #[test]
    fn fft_profile_matches_analytic_counts() {
        let n = 256usize;
        let program = assemble(&fft_program(n)).unwrap();
        let mut mem = RawMemory::new(scratchpad_words(n).next_power_of_two());
        for (i, &w) in random_input(n, 3)
            .iter()
            .chain(twiddle_table(n).iter())
            .enumerate()
        {
            mem.store(i, w);
        }
        let p = profile(&program, &mut mem, u64::MAX).unwrap();
        // Butterfly counts: (n/2)·log2(n) butterflies, 3 loads + 2 stores
        // each, plus the bit-reversal swaps.
        let butterflies = (n / 2) * n.trailing_zeros() as usize;
        assert_eq!(p.phase_markers as usize, 1 + n.trailing_zeros() as usize);
        assert!(p.loads as usize >= 3 * butterflies);
        assert!(p.stores as usize >= 2 * butterflies);
        assert!(p.cpi() > 1.0 && p.cpi() < 1.6, "CPI {}", p.cpi());
        // Multiplies: exactly 4 per butterfly.
        assert_eq!(p.class_counts[1] as usize, 4 * butterflies);
        // Display renders every class row.
        assert_eq!(p.to_string().lines().count(), 7);
    }

    #[test]
    fn fractions_sum_to_one() {
        let program = assemble("li r1, 2\nmul r2, r1, r1\nsw r2, 0(r0)\nhalt").unwrap();
        let p = profile(&program, &mut RawMemory::new(4), 100).unwrap();
        let total: f64 = InsnClass::ALL.iter().map(|&c| p.class_fraction(c)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cycle_limit_reported() {
        let program = assemble("spin: j spin").unwrap();
        let e = profile(&program, &mut RawMemory::new(4), 10).unwrap_err();
        assert_eq!(e, Trap::CycleLimit);
    }
}
