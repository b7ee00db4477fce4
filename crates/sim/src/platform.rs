//! The simulated SoC of the paper's Figure 6: core, instruction memory,
//! scratchpad, protected memory, and a per-module energy ledger.
//!
//! The platform steps the [`Core`] against its memories and charges every
//! event to the ledger: core cycles, instruction fetches, scratchpad
//! accesses (including the protection scheme's extra codeword bits and
//! XOR-tree logic), protected-memory checkpoint traffic, and per-cycle
//! leakage of every module at the operating voltage. The OCEAN runtime
//! (crate `ntc-ocean`) drives [`Platform::step`] directly so it can
//! intercept `ecall` phase markers and roll the platform back.

use crate::machine::{Core, StepEvent, Trap};
use crate::memory::{DataPort, ProtectedMemory};
use ntc_ecc::{BchQuad, EccEnergyModel, Secded};
use ntc_memcalc::instance::{MemoryMacro, MemoryOrganization};
use ntc_sram::styles::CellStyle;
use ntc_tech::card;
use std::collections::BTreeMap;
use std::fmt;

/// Energy accumulated by one module.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModuleEnergy {
    /// Dynamic (switching) energy, joules.
    pub dynamic_j: f64,
    /// Leakage energy, joules.
    pub leakage_j: f64,
}

impl ModuleEnergy {
    /// Total energy of the module.
    pub(crate) fn total_j(&self) -> f64 {
        self.dynamic_j + self.leakage_j
    }
}

/// Per-module energy bookkeeping.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyLedger {
    modules: BTreeMap<String, ModuleEnergy>,
}

impl EnergyLedger {
    /// An empty ledger.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds dynamic energy to a module.
    pub(crate) fn charge_dynamic(&mut self, module: &str, joules: f64) {
        self.modules.entry(module.to_string()).or_default().dynamic_j += joules;
    }

    /// Adds leakage energy to a module.
    pub(crate) fn charge_leakage(&mut self, module: &str, joules: f64) {
        self.modules.entry(module.to_string()).or_default().leakage_j += joules;
    }

    /// Energy of one module (zero if never charged).
    #[cfg(test)]
    pub(crate) fn module(&self, name: &str) -> ModuleEnergy {
        self.modules.get(name).copied().unwrap_or_default()
    }

    /// Iterates `(module, energy)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ModuleEnergy)> {
        self.modules.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Total energy over all modules.
    pub(crate) fn total_j(&self) -> f64 {
        self.modules.values().map(ModuleEnergy::total_j).sum()
    }

    /// Total dynamic energy.
    #[cfg(test)]
    pub(crate) fn dynamic_j(&self) -> f64 {
        self.modules.values().map(|m| m.dynamic_j).sum()
    }

    /// Total leakage energy.
    #[cfg(test)]
    pub(crate) fn leakage_j(&self) -> f64 {
        self.modules.values().map(|m| m.leakage_j).sum()
    }
}

impl fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, e) in &self.modules {
            writeln!(
                f,
                "{name:<8} dyn {:>10.3} nJ   leak {:>10.3} nJ",
                e.dynamic_j * 1e9,
                e.leakage_j * 1e9
            )?;
        }
        write!(f, "total    {:>10.3} nJ", self.total_j() * 1e9)
    }
}

/// The protection scheme applied to the scratchpad data memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protection {
    /// No mitigation — raw storage.
    None,
    /// (39,32) SECDED on every word.
    Secded,
    /// (39,32) code used in detect-only mode (OCEAN's scratchpad): same
    /// codeword storage, but no correction network — errors are flagged
    /// and recovery comes from the protected buffer instead.
    DetectOnly,
}

/// Operating-point configuration of the platform.
///
/// # Example
///
/// ```
/// use ntc_sim::platform::{PlatformConfig, Protection};
///
/// let cfg = PlatformConfig::mparm_like(0.55, 290e3, Protection::None);
/// assert_eq!(cfg.vdd, 0.55);
/// ```
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Clock frequency, hertz.
    pub frequency_hz: f64,
    /// Scratchpad protection scheme.
    pub protection: Protection,
    /// Core dynamic energy per cycle at `vref`, joules.
    pub core_e_ref: f64,
    /// Core leakage power at `vref`, watts.
    pub core_leak_ref: f64,
    /// Reference voltage of the core figures.
    pub vref: f64,
    /// Instruction memory macro (4 KB in the paper's platform).
    pub im: MemoryMacro,
    /// Scratchpad macro (8 KB in the paper's platform).
    pub sp: MemoryMacro,
    /// Protected-memory macro (OCEAN's checkpoint buffer), if present.
    pub pm: Option<MemoryMacro>,
    /// ECC logic energy model.
    pub ecc_energy: EccEnergyModel,
}

impl PlatformConfig {
    /// The paper's platform (Figure 6): ARM9-class core, 4 KB instruction
    /// memory, 8 KB scratchpad, cell-based macros on the 40 nm LP card.
    pub fn mparm_like(vdd: f64, frequency_hz: f64, protection: Protection) -> Self {
        let tech = card::n40lp();
        let im = MemoryMacro::new(
            CellStyle::CellBasedAoi,
            MemoryOrganization::new(1024, 32).expect("valid"),
            tech.clone(),
        );
        let sp = MemoryMacro::new(
            CellStyle::CellBasedAoi,
            MemoryOrganization::new(2048, 32).expect("valid"),
            tech.clone(),
        );
        Self {
            vdd,
            frequency_hz,
            protection,
            // ARM9-class embedded core in 40 nm LP: ~25 pJ/cycle, ~8 µW
            // leakage at nominal.
            core_e_ref: 25e-12,
            core_leak_ref: 8e-6,
            vref: 1.1,
            im,
            sp,
            pm: None,
            ecc_energy: EccEnergyModel::n40lp_default(),
        }
    }

    /// Rebuilds the instruction and scratchpad macros in a different
    /// bit-cell style (the 11 MHz experiment of the paper's Figure 9 uses
    /// the commercial macro instead of the cell-based one).
    #[must_use]
    pub fn with_memory_style(mut self, style: CellStyle) -> Self {
        let tech = card::n40lp();
        self.im = MemoryMacro::new(
            style,
            MemoryOrganization::new(1024, 32).expect("valid"),
            tech.clone(),
        );
        self.sp = MemoryMacro::new(
            style,
            MemoryOrganization::new(2048, 32).expect("valid"),
            tech,
        );
        self
    }

    /// Adds an OCEAN protected-memory buffer of `words` words.
    #[must_use]
    pub fn with_protected_buffer(mut self, words: u32) -> Self {
        let tech = card::n40lp();
        self.pm = Some(MemoryMacro::new(
            CellStyle::CellBasedAoi,
            MemoryOrganization::new(words, 57).expect("valid"),
            tech,
        ));
        self
    }
}

/// Per-event energy costs, precomputed from a [`PlatformConfig`].
#[derive(Debug, Clone, Copy)]
struct EnergyCosts {
    core_cycle_j: f64,
    im_fetch_j: f64,
    sp_read_j: f64,
    sp_write_j: f64,
    pm_read_j: f64,
    pm_write_j: f64,
    core_leak_w: f64,
    im_leak_w: f64,
    sp_leak_w: f64,
    pm_leak_w: f64,
    cycle_s: f64,
}

impl EnergyCosts {
    fn from_config(cfg: &PlatformConfig) -> Self {
        let v = cfg.vdd;
        let r = v / cfg.vref;
        let (bit_factor, read_logic, write_logic) = match cfg.protection {
            Protection::None => (1.0, 0.0, 0.0),
            Protection::Secded => {
                let code = Secded::new(32).expect("constructible");
                let o = cfg.ecc_energy.secded_overhead(&code, v);
                (o.bit_factor, o.read_logic_j, o.write_logic_j)
            }
            Protection::DetectOnly => {
                // Same storage and syndrome tree as SECDED, but the
                // correction network (the 1.5x read-path factor) is absent.
                let code = Secded::new(32).expect("constructible");
                let o = cfg.ecc_energy.secded_overhead(&code, v);
                (o.bit_factor, o.read_logic_j / 1.5, o.write_logic_j)
            }
        };
        let sp_access = cfg.sp.access_energy(v);
        let (pm_read_j, pm_write_j, pm_leak_w) = match &cfg.pm {
            Some(pm) => {
                let code = BchQuad::new();
                let o = cfg.ecc_energy.bch_quad_overhead(&code, v);
                // The PM macro is already organized at codeword width, so
                // only the logic energy is added on top.
                (
                    pm.access_energy(v) + o.read_logic_j,
                    pm.access_energy(v) + o.write_logic_j,
                    // The checkpoint buffer's periphery is clock-gated
                    // except during shadow traffic; its standby leakage is
                    // the array-retention figure.
                    pm.retention_power(v),
                )
            }
            None => (0.0, 0.0, 0.0),
        };
        Self {
            core_cycle_j: cfg.core_e_ref * r * r,
            im_fetch_j: cfg.im.access_energy(v),
            sp_read_j: sp_access * bit_factor + read_logic,
            sp_write_j: sp_access * bit_factor + write_logic,
            pm_read_j,
            pm_write_j,
            core_leak_w: cfg.core_leak_ref * (v / cfg.vref)
                * ((cfg.im.card().dibl_mv_per_v() / 1000.0) * (v - cfg.vref)
                    / (cfg.im.card().ideality() * cfg.im.card().thermal_voltage()))
                .exp(),
            im_leak_w: cfg.im.leakage_power(v),
            sp_leak_w: cfg.sp.leakage_power(v),
            pm_leak_w,
            cycle_s: 1.0 / cfg.frequency_hz,
        }
    }
}

/// Summary of a platform run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformOutcome {
    /// Whether the program reached `halt`.
    pub halted: bool,
    /// Total cycles (core + memory wait states).
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Wall-clock time at the configured frequency, seconds.
    pub elapsed_s: f64,
}

/// The assembled SoC: core + memories + ledger.
///
/// Generic over the scratchpad backend `M` so the same platform runs
/// unprotected ([`crate::RawMemory`]), SECDED
/// ([`crate::SecdedMemory`]) or custom backends.
#[derive(Debug)]
pub struct Platform<M: DataPort> {
    core: Core,
    im: Vec<u32>,
    sp: M,
    pm: Option<ProtectedMemory>,
    ledger: EnergyLedger,
    costs: EnergyCosts,
    cycles: u64,
    instructions: u64,
    config_frequency: f64,
}

impl<M: DataPort> Platform<M> {
    /// Builds a platform from a config, a program and a scratchpad backend.
    ///
    /// The caller chooses `sp` to match `config.protection` (the config
    /// drives the *energy* accounting, the backend the *functional*
    /// behaviour); `pm_words > 0` attaches a protected buffer.
    ///
    /// # Panics
    ///
    /// Panics if the program is empty or the config requests a protected
    /// buffer energy model without one being attached (and vice versa).
    pub fn new(config: &PlatformConfig, program: Vec<u32>, sp: M, pm: Option<ProtectedMemory>) -> Self {
        assert!(!program.is_empty(), "program must not be empty");
        assert_eq!(
            config.pm.is_some(),
            pm.is_some(),
            "protected-buffer config and backend must match"
        );
        Self {
            core: Core::new(),
            im: program,
            sp,
            pm,
            ledger: EnergyLedger::new(),
            costs: EnergyCosts::from_config(config),
            cycles: 0,
            instructions: 0,
            config_frequency: config.frequency_hz,
        }
    }

    /// The scratchpad backend.
    pub fn scratchpad(&self) -> &M {
        &self.sp
    }

    /// Mutable scratchpad access (host-side setup and checking).
    pub fn scratchpad_mut(&mut self) -> &mut M {
        &mut self.sp
    }

    /// The protected buffer, if attached.
    pub fn protected(&self) -> Option<&ProtectedMemory> {
        self.pm.as_ref()
    }

    /// Mutable protected-buffer access (host setup and fault-injection
    /// experiments).
    pub fn protected_mut(&mut self) -> Option<&mut ProtectedMemory> {
        self.pm.as_mut()
    }

    /// The energy ledger.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Snapshots the full architectural state of the core (registers + pc).
    /// The OCEAN runtime takes one of these at every phase boundary.
    pub fn core_snapshot(&self) -> Core {
        self.core.clone()
    }

    /// Restores a previously taken core snapshot (rollback).
    pub fn restore_core(&mut self, snapshot: Core) {
        self.core = snapshot;
    }

    /// Runtime-initiated scratchpad write (checkpoint restore traffic):
    /// goes through the protection scheme and is charged like any other
    /// store.
    ///
    /// # Errors
    ///
    /// Propagates the backend's fault.
    pub fn sp_restore(
        &mut self,
        word_index: usize,
        value: u32,
    ) -> Result<(), crate::memory::MemoryFault> {
        self.ledger.charge_dynamic("sp", self.costs.sp_write_j);
        self.sp.write(word_index, value)
    }

    /// Runtime-initiated scratchpad read (checkpoint capture traffic),
    /// charged like a core load.
    ///
    /// # Errors
    ///
    /// Propagates the backend's fault.
    pub(crate) fn sp_capture(&mut self, word_index: usize) -> Result<u32, crate::memory::MemoryFault> {
        self.ledger.charge_dynamic("sp", self.costs.sp_read_j);
        self.sp.read(word_index)
    }

    /// Executes one instruction, charging all energies.
    ///
    /// # Errors
    ///
    /// Propagates any [`Trap`] from the core.
    pub fn step(&mut self) -> Result<StepEvent, Trap> {
        let ev = self.core.step(&self.im, &mut self.sp)?;
        self.account(&ev);
        Ok(ev)
    }

    fn account(&mut self, ev: &StepEvent) {
        let c = &self.costs;
        self.cycles += ev.cycles;
        self.instructions += 1;
        self.ledger.charge_dynamic("core", c.core_cycle_j * ev.cycles as f64);
        self.ledger.charge_dynamic("im", c.im_fetch_j);
        if ev.load.is_some() {
            self.ledger.charge_dynamic("sp", c.sp_read_j);
        }
        if ev.store.is_some() {
            self.ledger.charge_dynamic("sp", c.sp_write_j);
        }
        let dt = ev.cycles as f64 * c.cycle_s;
        self.ledger.charge_leakage("core", c.core_leak_w * dt);
        self.ledger.charge_leakage("im", c.im_leak_w * dt);
        self.ledger.charge_leakage("sp", c.sp_leak_w * dt);
        if self.pm.is_some() {
            self.ledger.charge_leakage("pm", c.pm_leak_w * dt);
        }
    }

    /// Reads a word from the protected buffer, charging PM energy.
    ///
    /// # Errors
    ///
    /// Returns the buffer's fault if the word is uncorrectable.
    ///
    /// # Panics
    ///
    /// Panics if no protected buffer is attached.
    pub fn pm_read(&mut self, word_index: usize) -> Result<u32, crate::memory::MemoryFault> {
        let pm = self.pm.as_mut().expect("no protected buffer attached");
        self.ledger.charge_dynamic("pm", self.costs.pm_read_j);
        pm.read(word_index)
    }

    /// Writes a word to the protected buffer, charging PM energy.
    ///
    /// # Errors
    ///
    /// Returns the buffer's fault if the write fails.
    ///
    /// # Panics
    ///
    /// Panics if no protected buffer is attached.
    pub fn pm_write(
        &mut self,
        word_index: usize,
        value: u32,
    ) -> Result<(), crate::memory::MemoryFault> {
        let pm = self.pm.as_mut().expect("no protected buffer attached");
        self.ledger.charge_dynamic("pm", self.costs.pm_write_j);
        pm.write(word_index, value)
    }

    /// Charges `cycles` of pure stall time (used by the OCEAN runtime for
    /// checkpoint/rollback bookkeeping outside normal instructions).
    pub fn charge_stall(&mut self, cycles: u64) {
        let c = &self.costs;
        self.cycles += cycles;
        let dt = cycles as f64 * c.cycle_s;
        self.ledger.charge_leakage("core", c.core_leak_w * dt);
        self.ledger.charge_leakage("im", c.im_leak_w * dt);
        self.ledger.charge_leakage("sp", c.sp_leak_w * dt);
        if self.pm.is_some() {
            self.ledger.charge_leakage("pm", c.pm_leak_w * dt);
        }
    }

    /// Runs to `halt`, a trap, or the cycle budget.
    ///
    /// # Errors
    ///
    /// Returns the stopping [`Trap`] ([`Trap::CycleLimit`] on budget
    /// exhaustion).
    pub fn run(&mut self, max_cycles: u64) -> Result<PlatformOutcome, Trap> {
        loop {
            if self.cycles >= max_cycles {
                return Err(Trap::CycleLimit);
            }
            let ev = self.step()?;
            if ev.halted {
                return Ok(PlatformOutcome {
                    halted: true,
                    cycles: self.cycles,
                    instructions: self.instructions,
                    elapsed_s: self.cycles as f64 / self.config_frequency,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::memory::{RawMemory, SecdedMemory};

    fn tiny_program() -> Vec<u32> {
        assemble(
            "li r1, 10
             li r2, 0
        loop:
             sw r1, 0(r2)
             lw r3, 0(r2)
             addi r1, r1, -1
             bne r1, r0, loop
             halt",
        )
        .unwrap()
    }

    #[test]
    fn runs_and_accounts_energy() {
        let cfg = PlatformConfig::mparm_like(0.55, 290e3, Protection::None);
        let mut p = Platform::new(&cfg, tiny_program(), RawMemory::new(2048), None);
        let out = p.run(1_000_000).unwrap();
        assert!(out.halted);
        let ledger = p.ledger();
        for module in ["core", "im", "sp"] {
            let e = ledger.module(module);
            assert!(e.dynamic_j > 0.0, "{module} dynamic");
            assert!(e.leakage_j > 0.0, "{module} leakage");
        }
        assert!((out.elapsed_s - out.cycles as f64 / 290e3).abs() < 1e-12);
    }

    #[test]
    fn ecc_platform_charges_more_sp_energy_at_same_voltage() {
        let raw_cfg = PlatformConfig::mparm_like(0.55, 290e3, Protection::None);
        let ecc_cfg = PlatformConfig::mparm_like(0.55, 290e3, Protection::Secded);
        let mut raw = Platform::new(&raw_cfg, tiny_program(), RawMemory::new(2048), None);
        let mut ecc = Platform::new(&ecc_cfg, tiny_program(), SecdedMemory::new(2048), None);
        raw.run(1_000_000).unwrap();
        ecc.run(1_000_000).unwrap();
        let raw_sp = raw.ledger().module("sp").dynamic_j;
        let ecc_sp = ecc.ledger().module("sp").dynamic_j;
        assert!(
            ecc_sp > raw_sp * 1.2,
            "ECC sp {ecc_sp} must exceed raw {raw_sp} by the 39/32 + logic factor"
        );
        // But the cores burned identical energy.
        let d = (raw.ledger().module("core").dynamic_j - ecc.ledger().module("core").dynamic_j)
            .abs();
        assert!(d < 1e-18);
    }

    #[test]
    fn lower_voltage_costs_less_dynamic_energy() {
        let hi = PlatformConfig::mparm_like(0.55, 290e3, Protection::None);
        let lo = PlatformConfig::mparm_like(0.33, 290e3, Protection::None);
        let mut a = Platform::new(&hi, tiny_program(), RawMemory::new(2048), None);
        let mut b = Platform::new(&lo, tiny_program(), RawMemory::new(2048), None);
        a.run(1_000_000).unwrap();
        b.run(1_000_000).unwrap();
        let ra = a.ledger().dynamic_j();
        let rb = b.ledger().dynamic_j();
        assert!((rb / ra - (0.33f64 / 0.55).powi(2)).abs() < 0.01, "quadratic gain");
    }

    #[test]
    fn protected_buffer_traffic_charged_to_pm() {
        let cfg = PlatformConfig::mparm_like(0.44, 290e3, Protection::None)
            .with_protected_buffer(512);
        let mut p = Platform::new(
            &cfg,
            tiny_program(),
            RawMemory::new(2048),
            Some(ProtectedMemory::new(512)),
        );
        p.pm_write(0, 42).unwrap();
        assert_eq!(p.pm_read(0).unwrap(), 42);
        assert!(p.ledger().module("pm").dynamic_j > 0.0);
    }

    #[test]
    fn stall_charges_only_leakage() {
        let cfg = PlatformConfig::mparm_like(0.55, 290e3, Protection::None);
        let mut p = Platform::new(&cfg, tiny_program(), RawMemory::new(2048), None);
        p.charge_stall(1000);
        assert_eq!(p.cycles(), 1000);
        assert_eq!(p.ledger().dynamic_j(), 0.0);
        assert!(p.ledger().leakage_j() > 0.0);
    }

    #[test]
    fn cycle_budget_respected() {
        let cfg = PlatformConfig::mparm_like(0.55, 290e3, Protection::None);
        let spin = assemble("spin: j spin").unwrap();
        let mut p = Platform::new(&cfg, spin, RawMemory::new(16), None);
        assert_eq!(p.run(100), Err(Trap::CycleLimit));
    }

    #[test]
    fn ledger_display_lists_modules() {
        let cfg = PlatformConfig::mparm_like(0.55, 290e3, Protection::None);
        let mut p = Platform::new(&cfg, tiny_program(), RawMemory::new(2048), None);
        p.run(1_000_000).unwrap();
        let s = p.ledger().to_string();
        assert!(s.contains("core") && s.contains("sp") && s.contains("total"));
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn pm_mismatch_rejected() {
        let cfg = PlatformConfig::mparm_like(0.55, 290e3, Protection::None);
        let _ = Platform::new(
            &cfg,
            tiny_program(),
            RawMemory::new(16),
            Some(ProtectedMemory::new(16)),
        );
    }
}
