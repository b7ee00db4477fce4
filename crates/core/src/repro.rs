//! The experiment registry: every reproduction in this workspace as a
//! uniform, enumerable [`Experiment`] producing a structured
//! [`Artifact`].
//!
//! Before this module each figure/table lived in its own binary with its
//! own `println!` formatting, and the paper's anchor numbers were
//! scattered across binaries, benches and tests. Here each reproduction
//! is a zero-sized type implementing [`Experiment`]; [`registry`]
//! enumerates them all, and the artifacts they return carry the paper
//! anchors ([`PaperRef`]) in exactly one place — `repro check`, the
//! paper-number tests and the docs all read the same values.
//!
//! # Determinism
//!
//! [`RunCtx`] fixes the seed, and every experiment routes randomness
//! through counter-based seeded sources (see `ntc_stats::exec`), so an
//! artifact is a pure function of `(experiment id, seed, scale)` — the
//! JSON rendering is byte-identical across runs and thread counts.
//!
//! # Typed ids
//!
//! Experiments are addressed by the exhaustive [`ExperimentId`] enum,
//! not raw strings: [`find_id`] is infallible, and external strings
//! (CLI arguments, HTTP request bodies) enter through
//! [`ExperimentId::from_str`], whose error enumerates every valid id.
//!
//! ```
//! use ntc::repro::{find_id, ExperimentId, RunCtx};
//!
//! let ctx = RunCtx::builder().quick().build();
//! let table2 = find_id(ExperimentId::Table2).run(&ctx);
//! assert!(table2.passed(), "every Table 2 cell is in band");
//! assert_eq!("table2".parse::<ExperimentId>(), Ok(ExperimentId::Table2));
//! ```

use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

use crate::error::NtcError;

use crate::artifact::{Artifact, Cell, Column, PaperRef, Series, Table};
use crate::experiments::{
    figure8_seeded, figure9_seeded, power_saving, result_for, ExperimentResult, Headline,
    MitigationPolicy,
};
use crate::fit::{paper_platform_model, FitSolver, Scheme, VoltageGrid};
use crate::monitor::{simulate_lifetime, AgingModel, VoltageController};
use ntc_memcalc::cache::CachedSoc;
use ntc_sram::failure::{AccessLaw, RetentionLaw};

/// How much Monte-Carlo work an experiment run may spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Full paper-fidelity sample counts — what `repro run` uses.
    Paper,
    /// Reduced sample counts for debug-build test suites. Only
    /// Monte-Carlo *measurement* sizes shrink; every solver, model
    /// evaluation and anchor stays at full fidelity.
    Quick,
}

impl Scale {
    /// Lowercase name, as recorded in provenance sidecars.
    pub fn name(self) -> &'static str {
        crate::api::WireName::wire_name(self)
    }
}

/// Shared context for one batch of experiment runs: the seed, the
/// Monte-Carlo scale, the memoized platform timing model from the
/// energy-model cache, and once-per-context memos of the Figure 8/9
/// platform runs (shared by `fig8`, `fig9` and `headline`).
pub struct RunCtx {
    seed: u64,
    scale: Scale,
    platform: CachedSoc,
    fig8: OnceLock<Vec<ExperimentResult>>,
    fig9: OnceLock<Vec<ExperimentResult>>,
}

/// Builder for [`RunCtx`] with documented defaults.
///
/// | field  | default | meaning |
/// |--------|---------|---------|
/// | `seed` | `2014` (the paper's year) | root of every counter-based random stream |
/// | `scale`| [`Scale::Paper`] | full-fidelity Monte-Carlo sample counts |
///
/// Worker-thread count is not a per-context knob: the parallel engine
/// resolves it once per process from `NTC_THREADS` or the available
/// parallelism (see `ntc_stats::exec::threads`), and it never affects
/// results — only wall-clock time.
///
/// ```
/// use ntc::repro::{RunCtx, Scale};
///
/// let ctx = RunCtx::builder().seed(7).scale(Scale::Quick).build();
/// assert_eq!(ctx.seed(), 7);
/// assert_eq!(ctx.scale(), Scale::Quick);
/// ```
#[derive(Debug, Clone, Copy)]
#[must_use = "call .build() to obtain a RunCtx"]
pub struct RunCtxBuilder {
    seed: u64,
    scale: Scale,
}

impl RunCtxBuilder {
    /// Replaces the input/fault seed (default 2014).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the Monte-Carlo scale (default [`Scale::Paper`]).
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Shorthand for `.scale(Scale::Quick)`.
    pub fn quick(self) -> Self {
        self.scale(Scale::Quick)
    }

    /// Builds the context (constructs the memoized platform model).
    pub fn build(self) -> RunCtx {
        RunCtx {
            seed: self.seed,
            scale: self.scale,
            platform: paper_platform_model(),
            fig8: OnceLock::new(),
            fig9: OnceLock::new(),
        }
    }
}

impl Default for RunCtxBuilder {
    fn default() -> Self {
        RunCtxBuilder { seed: 2014, scale: Scale::Paper }
    }
}

impl RunCtx {
    /// A builder with the documented defaults (seed 2014, paper scale).
    pub fn builder() -> RunCtxBuilder {
        RunCtxBuilder::default()
    }

    /// Full-fidelity context with the paper's seed (2014).
    pub fn paper() -> Self {
        Self::builder().build()
    }

    /// Reduced-Monte-Carlo context for fast (debug-build) test runs.
    pub fn quick() -> Self {
        Self::builder().quick().build()
    }

    /// The input/fault seed experiments derive their streams from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The Monte-Carlo scale of this context.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Worker threads the parallel engine resolved for this process.
    pub fn threads(&self) -> usize {
        ntc_stats::exec::threads()
    }

    /// The platform `f_max` closure solvers take (memoized by the
    /// context's cached platform model).
    pub fn f_max(&self) -> impl Fn(f64) -> f64 + Copy + Sync + '_ {
        move |vdd| self.platform.f_max(vdd)
    }

    /// Scales a full-fidelity Monte-Carlo sample count to this context's
    /// scale. [`Scale::Paper`] returns `full`; [`Scale::Quick`] divides
    /// by 20 but never drops below 1000 samples.
    pub(crate) fn mc(&self, full: u64) -> u64 {
        match self.scale {
            Scale::Paper => full,
            Scale::Quick => (full / 20).max(1000),
        }
    }

    /// The Figure 8 platform rows, measured once per context.
    pub(crate) fn figure8_rows(&self) -> &[ExperimentResult] {
        self.fig8.get_or_init(|| figure8_seeded(self.seed))
    }

    /// The Figure 9 platform rows, measured once per context.
    pub(crate) fn figure9_rows(&self) -> &[ExperimentResult] {
        self.fig9.get_or_init(|| figure9_seeded(self.seed))
    }
}

impl Default for RunCtx {
    fn default() -> Self {
        Self::paper()
    }
}

/// One registered reproduction of a paper figure, table or claim.
pub trait Experiment: Sync {
    /// Typed identifier; its [`ExperimentId::as_str`] form (`fig8`,
    /// `table2`, `ablation_phases`, …) is what artifacts and CLIs show.
    fn id(&self) -> ExperimentId;
    /// One-line description for `repro list`.
    fn description(&self) -> &'static str;
    /// Where in the paper the reproduced quantity lives (`"Fig. 4"`,
    /// `"Table 2"`, …); ablations cite the section their model
    /// extends. Shown by `repro list --verbose`.
    fn paper_ref(&self) -> &'static str;
    /// Runs the reproduction and returns its structured artifact.
    fn run(&self, ctx: &RunCtx) -> Artifact;
}

/// Declares the exhaustive experiment id enum next to the only
/// id → implementation match, so adding an experiment is one line here
/// and the compiler walks every consumer through the change.
macro_rules! experiment_registry {
    ($(($variant:ident, $name:literal, $ty:ident)),* $(,)?) => {
        /// Typed identifier of every registered experiment.
        ///
        /// The enum is exhaustive over the registry: a value of this
        /// type always resolves via [`find_id`], and matching on it
        /// forces consumers to handle new experiments at compile time.
        /// String forms (CLI arguments, JSON requests) convert through
        /// [`FromStr`]/[`fmt::Display`] using the same stable names
        /// artifacts carry (`fig8`, `table2`, `ablation_phases`, …).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum ExperimentId {
            $(
                #[doc = concat!("`", $name, "`")]
                $variant,
            )*
        }

        impl ExperimentId {
            /// Every experiment id, in paper (registry) order.
            pub const ALL: [ExperimentId; experiment_registry!(@count $($variant)*)] =
                [$(ExperimentId::$variant),*];

            /// The stable string form of every id, in registry order.
            pub const NAMES: [&'static str; experiment_registry!(@count $($variant)*)] =
                [$($name),*];

            /// The stable string form (also the artifact id).
            pub fn as_str(self) -> &'static str {
                match self {
                    $(ExperimentId::$variant => $name),*
                }
            }
        }

        /// Looks up the implementation of a typed id (infallible — the
        /// enum is exhaustive over the registry).
        pub fn find_id(id: ExperimentId) -> Box<dyn Experiment> {
            match id {
                $(ExperimentId::$variant => Box::new($ty)),*
            }
        }

        impl FromStr for ExperimentId {
            type Err = NtcError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                match s {
                    $($name => Ok(ExperimentId::$variant),)*
                    _ => Err(NtcError::UnknownExperiment { id: s.to_string() }),
                }
            }
        }
    };
    (@count $($x:ident)*) => { 0usize $(+ { let _ = stringify!($x); 1 })* };
}

experiment_registry![
    (Fig1, "fig1", Fig1),
    (Fig3, "fig3", Fig3),
    (Fig4, "fig4", Fig4),
    (Fig5, "fig5", Fig5),
    (Fig6, "fig6", Fig6),
    (Fig7, "fig7", Fig7),
    (Fig8, "fig8", Fig8),
    (Fig9, "fig9", Fig9),
    (Fig10, "fig10", Fig10),
    (Table1, "table1", Table1),
    (Table2, "table2", Table2),
    (Headline, "headline", HeadlineClaims),
    (Profile, "profile", Profile),
    (AblationInterleave, "ablation_interleave", AblationInterleave),
    (AblationPhases, "ablation_phases", AblationPhases),
    (AblationCorrelation, "ablation_correlation", AblationCorrelation),
    (AblationGuardband, "ablation_guardband", AblationGuardband),
    (AblationBanking, "ablation_banking", AblationBanking),
    (AblationDetection, "ablation_detection", AblationDetection),
    (AblationBufferCode, "ablation_buffer_code", AblationBufferCode),
    (AblationTailMc, "ablation_tail_mc", AblationTailMc),
    (AblationOptimize, "ablation_optimize", AblationOptimize),
];

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Every reproduction in the workspace, in paper order.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    ExperimentId::ALL.iter().map(|&id| find_id(id)).collect()
}

/// The string ids of every registered experiment, in registry order.
pub fn experiment_ids() -> Vec<&'static str> {
    ExperimentId::ALL.iter().map(|id| id.as_str()).collect()
}

/// Runs one experiment under a `repro.<id>` span.
///
/// The span (like every `ntc-obs` hook) is inert unless the
/// observability layer is enabled, and the artifact never depends on it
/// either way — artifacts stay pure functions of `(id, seed, scale)`.
pub fn run_one(e: &dyn Experiment, ctx: &RunCtx) -> Artifact {
    let _span = ntc_obs::span(format!("repro.{}", e.id()));
    e.run(ctx)
}

/// Runs every registered experiment under one context, in registry
/// order.
pub fn run_all(ctx: &RunCtx) -> Vec<Artifact> {
    registry().iter().map(|e| run_one(e.as_ref(), ctx)).collect()
}

// ---------------------------------------------------------------------
// Figure 1 — energy per cycle vs supply, COTS vs cell-based platform.
// ---------------------------------------------------------------------

/// Figure 1: energy/cycle vs V_DD for the 40 nm signal processor.
struct Fig1;

impl Experiment for Fig1 {
    fn id(&self) -> ExperimentId {
        ExperimentId::Fig1
    }
    fn paper_ref(&self) -> &'static str {
        "Fig. 1"
    }
    fn description(&self) -> &'static str {
        "Energy per cycle vs supply: commercial memory floor vs cell-based single supply"
    }
    fn run(&self, _ctx: &RunCtx) -> Artifact {
        use ntc_memcalc::soc::SocEnergyModel;
        use ntc_stats::sweep::voltage_grid;

        let cots = SocEnergyModel::exg_processor_40nm();
        let cell = SocEnergyModel::exg_processor_cell_based_40nm();

        let mut table = Table::new(
            "energy_per_cycle",
            vec![
                Column::new("vdd", "V"),
                Column::new("logic_dyn", "pJ"),
                Column::new("mem_dyn", "pJ"),
                Column::new("leakage", "pJ"),
                Column::new("total_cots", "pJ"),
                Column::new("total_cell", "pJ"),
            ],
        );
        for vdd in voltage_grid(0.40, 1.10, 50) {
            let p = cots.operating_point(vdd);
            let c = cell.operating_point(vdd);
            table.push_row(vec![
                Cell::Num(vdd),
                Cell::Num(p.components[0].dynamic_j * 1e12),
                Cell::Num(p.components[1].dynamic_j * 1e12),
                Cell::Num(p.leakage_j() * 1e12),
                Cell::Num(p.total_j() * 1e12),
                Cell::Num(c.total_j() * 1e12),
            ]);
        }

        let cots_opt = cots.optimal_voltage(0.4, 1.1, 141);
        let cell_opt = cell.optimal_voltage(0.4, 1.1, 141);
        let pt = cots.operating_point(0.55);
        let mid = cots.operating_point(0.5);
        // The commercial macro's dynamic energy is flat below its supply
        // floor: equal at 0.69 V and 0.45 V.
        let floor_ratio = cots.operating_point(0.69).components[1].dynamic_j
            / cots.operating_point(0.45).components[1].dynamic_j;

        Artifact::new("fig1", "Figure 1 — energy/cycle vs VDD (40nm LP signal processor)")
            .with_table(table)
            .with_scalar("COTS-memory optimum voltage", "V", cots_opt)
            .with_scalar("cell-based optimum voltage", "V", cell_opt)
            .with_anchor(
                "memory floor flatness (dyn 0.69V / 0.45V)",
                "ratio",
                floor_ratio,
                PaperRef::exact(1.0),
            )
            .with_anchor(
                "leakage / dynamic at 0.5 V",
                "ratio",
                mid.leakage_j() / mid.dynamic_j(),
                PaperRef::at_least(1.0, 1.0),
            )
            .with_anchor(
                "optimum shift from removing the floor",
                "V",
                cots_opt - cell_opt,
                PaperRef::at_least(0.0, 0.0),
            )
            .with_scalar("leakage share at 0.55 V", "%", 100.0 * pt.leakage_j() / pt.total_j())
    }
}

// ---------------------------------------------------------------------
// Figure 3 — minimal retention voltage vs memory location.
// ---------------------------------------------------------------------

/// Figure 3: failure maps of one commercial and one cell-based die.
struct Fig3;

impl Experiment for Fig3 {
    fn id(&self) -> ExperimentId {
        ExperimentId::Fig3
    }
    fn paper_ref(&self) -> &'static str {
        "Fig. 3"
    }
    fn description(&self) -> &'static str {
        "Minimal retention voltage vs location: failure maps at stepped supplies"
    }
    fn run(&self, _ctx: &RunCtx) -> Artifact {
        use ntc_sram::diemap::{DieMap, DieMapConfig};
        use ntc_stats::rng::Source;

        let mut artifact =
            Artifact::new("fig3", "Figure 3 — minimal retention voltage vs location (1k x 32b)");
        let mut table = Table::new(
            "retention_maps",
            vec![
                Column::bare("memory"),
                Column::new("vdd", "V"),
                Column::new("failing_bits", "bits"),
            ],
        );
        for (name, law, seed) in [
            ("commercial", RetentionLaw::commercial_40nm(), 11u64),
            ("cell-based", RetentionLaw::cell_based_40nm(), 12u64),
        ] {
            let cfg = DieMapConfig::new(128, 256, law);
            let die = DieMap::synthesize(&cfg, &mut Source::seeded(seed));
            let v_worst = die.min_retention_supply();
            artifact = artifact
                .with_scalar(&format!("{name} worst-bit retention"), "V", v_worst)
                .with_anchor(
                    &format!("{name} failing bits at the worst-bit supply"),
                    "bits",
                    die.failing_bits(v_worst).len() as f64,
                    PaperRef::exact(0.0),
                );
            for step in 0..=3 {
                let vdd = v_worst - 0.012 * f64::from(step);
                table.push_row(vec![
                    Cell::Text(name.to_string()),
                    Cell::Num(vdd),
                    Cell::Num(die.failing_bits(vdd).len() as f64),
                ]);
            }
        }
        artifact.with_table(table)
    }
}

// ---------------------------------------------------------------------
// Figure 4 — retention BER vs supply with the Eq. 4 fit recovered.
// ---------------------------------------------------------------------

/// Figure 4: cumulative retention BER over nine dies + probit re-fit.
struct Fig4;

impl Experiment for Fig4 {
    fn id(&self) -> ExperimentId {
        ExperimentId::Fig4
    }
    fn paper_ref(&self) -> &'static str {
        "Fig. 4 / Eq. 4"
    }
    fn description(&self) -> &'static str {
        "Retention BER vs supply over 9 dies, with the Eq. 4 Gaussian fit recovered"
    }
    fn run(&self, _ctx: &RunCtx) -> Artifact {
        use ntc_sram::diemap::{DieMap, DieMapConfig};
        use ntc_stats::fit::probit_line_fit;
        use ntc_stats::sweep::voltage_grid;

        let mut artifact =
            Artifact::new("fig4", "Figure 4 — retention BER vs VDD (9 dies, both memories)");
        for (name, law, seed) in [
            ("commercial", RetentionLaw::commercial_40nm(), 40u64),
            ("cell-based", RetentionLaw::cell_based_40nm(), 41u64),
        ] {
            let cfg = DieMapConfig::new(128, 256, law);
            let dies = DieMap::synthesize_population(&cfg, 9, seed);
            let grid = voltage_grid(
                (law.mean() - 2.0 * law.sigma()).max(0.05),
                law.mean() + 4.5 * law.sigma(),
                10,
            );
            let mut measured = Vec::new();
            let mut model = Vec::new();
            let mut vs = Vec::new();
            let mut ps = Vec::new();
            for &vdd in &grid {
                let ber = DieMap::population_ber(&dies, vdd);
                measured.push((vdd, ber));
                model.push((vdd, law.p_bit(vdd)));
                if ber > 0.0 && ber < 1.0 {
                    vs.push(vdd);
                    ps.push(ber);
                }
            }
            artifact = artifact
                .with_series(Series::new(
                    &format!("{name} measured BER"),
                    ("vdd", "V"),
                    ("ber", "1"),
                    measured,
                ))
                .with_series(Series::new(
                    &format!("{name} Eq.4 model"),
                    ("vdd", "V"),
                    ("ber", "1"),
                    model,
                ));
            if let Ok(line) = probit_line_fit(&vs, &ps) {
                // p = Φ(√2·(slope·V + b)) ⇒ mean = −b/slope, σ = −1/(√2·slope)
                let sigma = -1.0 / (std::f64::consts::SQRT_2 * line.slope);
                let mean = -line.intercept / line.slope;
                // Fit diagnostics are observability, not results: the
                // residuals are evaluated in probability space (the same
                // space the anchors live in) and published as gauges only.
                if ntc_obs::enabled() {
                    let predicted: Vec<f64> = vs
                        .iter()
                        .map(|&v| ntc_stats::math::phi(std::f64::consts::SQRT_2 * line.predict(v)))
                        .collect();
                    if let Ok(q) = ntc_stats::fit::FitQuality::against(&predicted, &ps) {
                        q.publish(&format!("diag.fig4.{name}.fit"));
                    }
                }
                artifact = artifact
                    .with_anchor(
                        &format!("{name} recovered retention mean"),
                        "V",
                        mean,
                        PaperRef::abs(law.mean(), 0.02),
                    )
                    .with_scalar(&format!("{name} recovered retention sigma"), "V", sigma)
                    .with_anchor(
                        &format!("{name} probit fit R^2"),
                        "1",
                        line.r_squared,
                        PaperRef::at_least(1.0, 0.9),
                    );
            }
        }
        artifact
    }
}

// ---------------------------------------------------------------------
// Figure 5 — access error probability vs supply (Eq. 5).
// ---------------------------------------------------------------------

/// Figure 5: Monte-Carlo access error rate against the Eq. 5 power law.
struct Fig5;

impl Experiment for Fig5 {
    fn id(&self) -> ExperimentId {
        ExperimentId::Fig5
    }
    fn paper_ref(&self) -> &'static str {
        "Fig. 5 / Eq. 5"
    }
    fn description(&self) -> &'static str {
        "Access error probability vs supply: Monte-Carlo measurement vs the Eq. 5 law"
    }
    fn run(&self, ctx: &RunCtx) -> Artifact {
        use ntc_sim::memory::FaultInjector;
        use ntc_stats::fit::fit_power_law;
        use ntc_stats::sweep::voltage_grid;

        fn measure(law: &AccessLaw, vdd: f64, accesses: u64, seed: u64) -> f64 {
            let mut inj = FaultInjector::from_law(law, vdd, seed);
            let mut flipped = 0u64;
            for _ in 0..accesses {
                flipped += u64::from(inj.mask(32).count_ones());
            }
            flipped as f64 / (accesses * 32) as f64
        }

        let commercial = AccessLaw::commercial_40nm();
        let cell = AccessLaw::cell_based_40nm();
        let mut artifact = Artifact::new("fig5", "Figure 5 — access error probability vs VDD")
            .with_anchor(
                "Eq.5 commercial amplitude A",
                "1",
                commercial.amplitude(),
                PaperRef::exact(6.0),
            )
            .with_anchor(
                "Eq.5 commercial exponent k",
                "1",
                commercial.exponent(),
                PaperRef::exact(6.14),
            )
            .with_anchor("Eq.5 commercial knee V0", "V", commercial.v0(), PaperRef::exact(0.85))
            .with_anchor("cell-based knee V0", "V", cell.v0(), PaperRef::exact(0.55));

        // Cross-check the cell-based law against the sharded Monte-Carlo
        // engine: `mc_ber_sweep` routes every voltage point through
        // `exec::mc_counter`, so the counters are a pure function of
        // (trials, seed) — bit-identical at any thread count — and common
        // random numbers keep the estimated curve exactly monotone. Under
        // `--trace` each point appears as 64 `exec.mc.shard` spans.
        let mc_grid = voltage_grid(0.30, 0.54, 12);
        let sweep = cell.mc_ber_sweep(&mc_grid, ctx.mc(200_000), 11);
        // Convergence diagnostics for the lowest-voltage (highest-rate)
        // point: `mc_ber_shards` returns the per-shard counters whose
        // in-order merge is bit-identical to the sweep's own estimate,
        // so the published standard error / CI describe the estimator
        // above — not a re-measurement with different randomness.
        if ntc_obs::enabled() {
            ntc_stats::diag::Convergence::from_counters(&cell.mc_ber_shards(
                mc_grid[0],
                ctx.mc(200_000),
                11,
            ))
            .publish("diag.fig5.mc");
        }
        artifact = artifact.with_series(Series::new(
            "cell-based sharded MC",
            ("vdd", "V"),
            ("p_bit", "1"),
            mc_grid
                .iter()
                .zip(&sweep)
                .map(|(&v, c)| (v, c.hits() as f64 / c.trials() as f64))
                .collect(),
        ));

        let accesses = ctx.mc(300_000);
        for (name, law, range) in
            [("commercial", commercial, (0.55, 0.84)), ("cell-based", cell, (0.30, 0.54))]
        {
            let grid = voltage_grid(range.0, range.1, 20);
            let mut measured = Vec::new();
            let mut model = Vec::new();
            let mut vs = Vec::new();
            let mut ps = Vec::new();
            for &vdd in &grid {
                let p = measure(&law, vdd, accesses, 7 + (vdd * 1000.0) as u64);
                measured.push((vdd, p));
                model.push((vdd, law.p_bit(vdd)));
                if p > 0.0 {
                    vs.push(vdd);
                    ps.push(p);
                }
            }
            artifact = artifact
                .with_series(Series::new(
                    &format!("{name} measured"),
                    ("vdd", "V"),
                    ("p_bit", "1"),
                    measured,
                ))
                .with_series(Series::new(
                    &format!("{name} Eq.5 model"),
                    ("vdd", "V"),
                    ("p_bit", "1"),
                    model,
                ));
            if let Ok(fit) = fit_power_law(&vs, &ps, (range.1 + 0.005, range.1 + 0.12)) {
                if ntc_obs::enabled() {
                    let predicted: Vec<f64> = vs.iter().map(|&v| fit.predict(v)).collect();
                    if let Ok(q) = ntc_stats::fit::FitQuality::against(&predicted, &ps) {
                        q.publish(&format!("diag.fig5.{name}.fit"));
                    }
                }
                artifact = artifact
                    .with_scalar(&format!("{name} re-fit amplitude"), "1", fit.amplitude)
                    .with_scalar(&format!("{name} re-fit exponent"), "1", fit.exponent);
                // Only the commercial law's onset is steep enough for the
                // re-fitted knee to be stable at reduced sample counts;
                // the shallow cell-based knee stays informational.
                artifact = if name == "commercial" {
                    artifact.with_anchor(
                        &format!("{name} re-fit knee V0"),
                        "V",
                        fit.v0,
                        PaperRef::abs(law.v0(), 0.04),
                    )
                } else {
                    artifact.with_scalar(&format!("{name} re-fit knee V0"), "V", fit.v0)
                };
            }
        }
        artifact
    }
}

// ---------------------------------------------------------------------
// Figure 6 — the evaluated architecture.
// ---------------------------------------------------------------------

/// Figure 6: the simulated platform configuration.
struct Fig6;

impl Experiment for Fig6 {
    fn id(&self) -> ExperimentId {
        ExperimentId::Fig6
    }
    fn paper_ref(&self) -> &'static str {
        "Fig. 6"
    }
    fn description(&self) -> &'static str {
        "The simulated platform: core, IM, SP, DMA and the OCEAN protected buffer"
    }
    fn run(&self, _ctx: &RunCtx) -> Artifact {
        use ntc_sim::dma::Dma;
        use ntc_sim::platform::{PlatformConfig, Protection};

        let cfg = PlatformConfig::mparm_like(0.44, 290e3, Protection::Secded)
            .with_protected_buffer(1536);
        let table = Table::new(
            "modules",
            vec![
                Column::bare("module"),
                Column::new("size", "KiB"),
                Column::new("access_energy_1v1", "pJ"),
            ],
        )
        .with_row(vec![
            Cell::Text("IM".into()),
            Cell::Num(cfg.im.organization().kib()),
            Cell::Num(cfg.im.access_energy(1.1) * 1e12),
        ])
        .with_row(vec![
            Cell::Text("SP".into()),
            Cell::Num(cfg.sp.organization().kib()),
            Cell::Num(cfg.sp.access_energy(1.1) * 1e12),
        ]);
        let pm_bits =
            cfg.pm.as_ref().map_or(0.0, |pm| f64::from(pm.organization().bits_per_word()));
        Artifact::new("fig6", "Figure 6 — simulated platform configuration")
            .with_table(table)
            .with_scalar("core energy", "pJ/cycle", cfg.core_e_ref * 1e12)
            .with_scalar("core leakage", "uW", cfg.core_leak_ref * 1e6)
            .with_scalar("reference voltage", "V", cfg.vref)
            .with_scalar("operating voltage", "V", cfg.vdd)
            .with_scalar("frequency", "Hz", cfg.frequency_hz)
            .with_scalar(
                "DMA 32-word transfer",
                "cycles",
                Dma::figure6_default().transfer_cycles(32) as f64,
            )
            .with_anchor(
                "protected-buffer word width (quad BCH)",
                "bits",
                pm_bits,
                PaperRef::exact(57.0),
            )
    }
}

// ---------------------------------------------------------------------
// Figure 7 — OCEAN operation trace.
// ---------------------------------------------------------------------

/// Figure 7: live OCEAN run on a two-phase workload at 0.33 V.
struct Fig7;

impl Experiment for Fig7 {
    fn id(&self) -> ExperimentId {
        ExperimentId::Fig7
    }
    fn paper_ref(&self) -> &'static str {
        "Fig. 7"
    }
    fn description(&self) -> &'static str {
        "OCEAN operation: phases, checkpoints, detections and recoveries at 0.33 V"
    }
    fn run(&self, _ctx: &RunCtx) -> Artifact {
        use ntc_ocean::detect::DetectOnlyMemory;
        use ntc_ocean::runtime::{Granularity, OceanConfig, OceanRuntime};
        use ntc_sim::asm::assemble;
        use ntc_sim::memory::{FaultInjector, ProtectedMemory};
        use ntc_sim::platform::{Platform, PlatformConfig, Protection};

        let program = assemble(
            "   li r1, 0
                li r2, 0
                li r3, 64
            fill:
                mul r4, r1, r1
                sw  r4, 0(r2)
                addi r1, r1, 1
                addi r2, r2, 4
                bne r1, r3, fill
                ecall 1
                li r1, 0
                li r2, 0
                li r4, 0
            sum:
                lw r5, 0(r2)
                add r4, r4, r5
                addi r1, r1, 1
                addi r2, r2, 4
                bne r1, r3, sum
                sw r4, 0(r2)
                ecall 1
                halt",
        )
        .expect("assembles");

        let cfg = PlatformConfig::mparm_like(0.33, 290e3, Protection::DetectOnly)
            .with_protected_buffer(128);
        let sp = DetectOnlyMemory::new(128).with_injector(FaultInjector::with_p(8e-4, 7));
        let mut platform = Platform::new(&cfg, program, sp, Some(ProtectedMemory::new(128)));
        let mut runtime =
            OceanRuntime::new(OceanConfig::new(0, 80).with_granularity(Granularity::WriteThrough));
        let outcome = runtime.run(&mut platform, &[0; 80], 10_000_000).expect("completes");

        let stats = outcome.stats;
        let got = f64::from(platform.protected().unwrap().load(64).unwrap());
        let want = f64::from((0u32..64).map(|i| i * i).sum::<u32>());
        Artifact::new("fig7", "Figure 7 — OCEAN operation on a two-phase workload at 0.33 V")
            .with_anchor(
                "phases crossed",
                "phases",
                stats.phases as f64,
                PaperRef::at_least(2.0, 2.0),
            )
            .with_scalar("words shadowed to PM", "words", stats.words_shadowed as f64)
            .with_scalar("word recoveries from PM", "words", stats.word_recoveries as f64)
            .with_scalar("full rollbacks", "rollbacks", stats.rollbacks as f64)
            .with_scalar(
                "detected scratchpad errors",
                "errors",
                platform.scratchpad().detected() as f64,
            )
            .with_scalar("DMA stall cycles", "cycles", runtime.dma_stats().stall_cycles as f64)
            .with_anchor("final sum error vs golden", "1", got - want, PaperRef::exact(0.0))
    }
}

// ---------------------------------------------------------------------
// Figures 8/9 — the full-system mitigation study.
// ---------------------------------------------------------------------

/// Renders a Figure 8/9 policy row set into a table keyed by policy.
fn mitigation_table(name: &str, rows: &[ExperimentResult]) -> Table {
    let mut table = Table::new(
        name,
        vec![
            Column::bare("policy"),
            Column::new("vdd", "V"),
            Column::new("dynamic", "uW"),
            Column::new("leakage", "uW"),
            Column::new("total", "uW"),
            Column::bare("exact"),
            Column::new("repairs", "1"),
        ],
    );
    for r in rows {
        table.push_row(vec![
            Cell::Text(r.policy.to_string()),
            Cell::Num(r.vdd),
            Cell::Num(r.dynamic_power_w() * 1e6),
            Cell::Num((r.total_power_w() - r.dynamic_power_w()) * 1e6),
            Cell::Num(r.total_power_w() * 1e6),
            Cell::Text(if r.is_exact() { "yes" } else { "NO" }.into()),
            Cell::Num(r.repaired as f64),
        ]);
    }
    table
}

/// Per-module power breakdown of a policy row set.
fn module_table(rows: &[ExperimentResult]) -> Table {
    let mut table = Table::new(
        "module_power",
        vec![
            Column::bare("policy"),
            Column::bare("module"),
            Column::new("dynamic", "uW"),
            Column::new("leakage", "uW"),
        ],
    );
    for r in rows {
        for m in &r.modules {
            table.push_row(vec![
                Cell::Text(r.policy.to_string()),
                Cell::Text(m.name.clone()),
                Cell::Num(m.dynamic_w * 1e6),
                Cell::Num(m.leakage_w * 1e6),
            ]);
        }
    }
    table
}

/// OCEAN's savings against the two baselines, by policy lookup.
fn ocean_savings(rows: &[ExperimentResult]) -> (f64, f64) {
    let none = result_for(rows, MitigationPolicy::NoMitigation).expect("no-mitigation row");
    let ecc = result_for(rows, MitigationPolicy::Secded).expect("SECDED row");
    let ocean = result_for(rows, MitigationPolicy::Ocean).expect("OCEAN row");
    (power_saving(none, ocean), power_saving(ecc, ocean))
}

/// Figure 8: power at 290 kHz on the cell-based memory.
struct Fig8;

impl Experiment for Fig8 {
    fn id(&self) -> ExperimentId {
        ExperimentId::Fig8
    }
    fn paper_ref(&self) -> &'static str {
        "Fig. 8"
    }
    fn description(&self) -> &'static str {
        "Power at 290 kHz (cell-based memory) under the three mitigation policies"
    }
    fn run(&self, ctx: &RunCtx) -> Artifact {
        let rows = ctx.figure8_rows();
        let (s_none, s_ecc) = ocean_savings(rows);
        Artifact::new("fig8", "Figure 8 — power at 290 kHz, 1K-point FFT, cell-based memory")
            .with_table(mitigation_table("power_290khz", rows))
            .with_table(module_table(rows))
            .with_anchor(
                "OCEAN vs no-mitigation saving",
                "%",
                s_none * 100.0,
                PaperRef::range(70.0, 45.0, 85.0),
            )
            .with_anchor(
                "OCEAN vs ECC saving",
                "%",
                s_ecc * 100.0,
                PaperRef::range(48.0, 20.0, 65.0),
            )
    }
}

/// Figure 9: power at 11 MHz on the commercial memory.
struct Fig9;

impl Experiment for Fig9 {
    fn id(&self) -> ExperimentId {
        ExperimentId::Fig9
    }
    fn paper_ref(&self) -> &'static str {
        "Fig. 9"
    }
    fn description(&self) -> &'static str {
        "Power at 11 MHz (commercial memory, 0.88/0.77/0.66 V) under the three policies"
    }
    fn run(&self, ctx: &RunCtx) -> Artifact {
        let rows = ctx.figure9_rows();
        let (s_none, s_ecc) = ocean_savings(rows);
        let mut artifact =
            Artifact::new("fig9", "Figure 9 — power at 11 MHz, 1K-point FFT, commercial memory")
                .with_table(mitigation_table("power_11mhz", rows));
        for (policy, paper_v) in [
            (MitigationPolicy::NoMitigation, 0.88),
            (MitigationPolicy::Secded, 0.77),
            (MitigationPolicy::Ocean, 0.66),
        ] {
            let r = result_for(rows, policy).expect("policy row");
            artifact = artifact.with_anchor(
                &format!("{policy} operating voltage"),
                "V",
                r.vdd,
                PaperRef::exact(paper_v),
            );
        }
        let none9 = result_for(rows, MitigationPolicy::NoMitigation).expect("row");
        let none8 = result_for(ctx.figure8_rows(), MitigationPolicy::NoMitigation).expect("row");
        artifact
            .with_anchor(
                "OCEAN vs no-mitigation saving",
                "%",
                s_none * 100.0,
                PaperRef::range(34.0, 15.0, 60.0),
            )
            .with_anchor(
                "OCEAN vs ECC saving",
                "%",
                s_ecc * 100.0,
                PaperRef::range(26.0, 10.0, 50.0),
            )
            .with_scalar(
                "power ratio 11 MHz / 290 kHz (no mitigation)",
                "x",
                none9.total_power_w() / none8.total_power_w(),
            )
    }
}

// ---------------------------------------------------------------------
// Figure 10 — finFET outlook.
// ---------------------------------------------------------------------

/// Figure 10: inverter delay spread on the 14 nm / 10 nm nodes.
struct Fig10;

impl Experiment for Fig10 {
    fn id(&self) -> ExperimentId {
        ExperimentId::Fig10
    }
    fn paper_ref(&self) -> &'static str {
        "Fig. 10"
    }
    fn description(&self) -> &'static str {
        "FinFET outlook: inverter delay mean and spread vs supply, 14 nm vs 10 nm"
    }
    fn run(&self, ctx: &RunCtx) -> Artifact {
        use ntc_stats::rng::Source;
        use ntc_stats::sweep::voltage_grid;
        use ntc_tech::card;
        use ntc_tech::inverter::Inverter;

        let inv14 = Inverter::fo4(&card::n14finfet());
        let inv10 = Inverter::fo4(&card::n10gaa());
        let samples = ctx.mc(4000) as u32;
        let mut src = Source::seeded(10);
        let mut mean14 = Vec::new();
        let mut mean10 = Vec::new();
        let mut spread14 = Vec::new();
        for vdd in voltage_grid(0.25, 0.80, 50) {
            let p14 = inv14.monte_carlo(vdd, samples, &mut src);
            let p10 = inv10.monte_carlo(vdd, samples, &mut src);
            mean14.push((vdd, p14.mean * 1e12));
            mean10.push((vdd, p10.mean * 1e12));
            spread14.push((vdd, 100.0 * p14.sigma / p14.mean));
        }
        let planar = Inverter::fo4(&card::n40lp());
        Artifact::new("fig10", "Figure 10 — inverter delay in finFETs")
            .with_series(Series::new("14nm mean delay", ("vdd", "V"), ("delay", "ps"), mean14))
            .with_series(Series::new("10nm mean delay", ("vdd", "V"), ("delay", "ps"), mean10))
            .with_series(Series::new("14nm sigma/mean", ("vdd", "V"), ("spread", "%"), spread14))
            .with_anchor(
                "14nm -> 10nm speedup at 0.6 V",
                "x",
                inv14.delay(0.6) / inv10.delay(0.6),
                PaperRef::range(2.0, 1.6, 3.4),
            )
            .with_anchor(
                "10nm vs 40nm spread at matched threshold depth",
                "1",
                inv10.relative_sigma(0.38) / planar.relative_sigma(0.54),
                PaperRef::at_most(1.0, 1.0),
            )
    }
}

// ---------------------------------------------------------------------
// Table 1 — the four memory implementations.
// ---------------------------------------------------------------------

/// Renders Table 1 rows (published or computed) as an artifact table.
fn table1_table(name: &str, rows: &[ntc_memcalc::designs::Table1Row]) -> Table {
    let mut table = Table::new(
        name,
        vec![
            Column::bare("design"),
            Column::new("dyn_energy", "pJ"),
            Column::new("at", "V"),
            Column::new("leakage", "uW"),
            Column::new("area", "mm2"),
            Column::new("retention", "V"),
            Column::new("performance", "MHz"),
        ],
    );
    for row in rows {
        table.push_row(vec![
            Cell::Text(row.design.clone()),
            Cell::Num(row.dyn_energy_pj.0),
            Cell::Num(row.dyn_energy_pj.1),
            row.leakage_uw.map_or(Cell::Text("-".into()), |(p, _)| Cell::Num(p)),
            Cell::Num(row.area_mm2),
            row.retention_v.map_or(Cell::Text("-".into()), Cell::Num),
            Cell::Num(row.performance_mhz.0),
        ]);
    }
    table
}

/// Table 1: published vs computed figures of the four implementations.
struct Table1;

impl Experiment for Table1 {
    fn id(&self) -> ExperimentId {
        ExperimentId::Table1
    }
    fn paper_ref(&self) -> &'static str {
        "Table 1"
    }
    fn description(&self) -> &'static str {
        "The four memory implementations at 1k x 32b: published vs calculator output"
    }
    fn run(&self, _ctx: &RunCtx) -> Artifact {
        use ntc_memcalc::designs::{computed_rows, published_rows};

        let published = published_rows();
        let computed = computed_rows();
        let mut artifact = Artifact::new(
            "table1",
            "Table 1 — 1k x 32b memory comparison (40nm, TT, 1.1 V, 25 C)",
        )
        .with_table(table1_table("published", &published))
        .with_table(table1_table("computed", &computed));
        for (p, c) in published.iter().zip(&computed) {
            artifact = artifact
                .with_anchor(
                    &format!("{} dynamic energy", p.design),
                    "pJ",
                    c.dyn_energy_pj.0,
                    PaperRef::rel(p.dyn_energy_pj.0, 0.10),
                )
                .with_anchor(
                    &format!("{} performance", p.design),
                    "MHz",
                    c.performance_mhz.0,
                    PaperRef::rel(p.performance_mhz.0, 0.10),
                );
        }
        let bits = 32 * 1024;
        artifact
            .with_anchor(
                "65nm cell-based macro retention",
                "V",
                RetentionLaw::cell_based_65nm().macro_retention_voltage(bits),
                PaperRef::abs(0.25, 0.01),
            )
            .with_anchor(
                "40nm cell-based macro retention",
                "V",
                RetentionLaw::cell_based_40nm().macro_retention_voltage(bits),
                PaperRef::abs(0.32, 0.01),
            )
    }
}

// ---------------------------------------------------------------------
// Table 2 — minimum voltage per mitigation scheme.
// ---------------------------------------------------------------------

/// Table 2: the FIT-limited minimum voltages, plus the bound arithmetic.
struct Table2;

impl Experiment for Table2 {
    fn id(&self) -> ExperimentId {
        ExperimentId::Table2
    }
    fn paper_ref(&self) -> &'static str {
        "Table 2"
    }
    fn description(&self) -> &'static str {
        "Minimum supply per mitigation scheme for FIT <= 1e-15, both frequencies"
    }
    fn run(&self, ctx: &RunCtx) -> Artifact {
        let solver =
            FitSolver::new(AccessLaw::cell_based_40nm(), 1e-15).with_grid(VoltageGrid::PaperGrid);
        let mut table = Table::new(
            "min_voltage",
            vec![
                Column::bare("frequency"),
                Column::new("no_mitigation", "V"),
                Column::new("ecc", "V"),
                Column::new("ocean", "V"),
            ],
        );
        let mut artifact = Artifact::new(
            "table2",
            "Table 2 — minimum voltage for FIT <= 1e-15 (cell-based memory)",
        );
        let paper = [[0.55, 0.44, 0.33], [0.55, 0.44, 0.44]];
        for ((label, f), paper_row) in
            [("290 kHz", 290e3), ("1.96 MHz", 1.96e6)].into_iter().zip(paper)
        {
            let row = solver.table_row(f, ctx.f_max());
            table.push_row(vec![
                Cell::Text(label.into()),
                Cell::Num(row[0].operating),
                Cell::Num(row[1].operating),
                Cell::Num(row[2].operating),
            ]);
            for (s, (v, p)) in ["no mitigation", "ECC", "OCEAN"]
                .iter()
                .zip(row.iter().map(|r| r.operating).zip(paper_row))
            {
                artifact =
                    artifact.with_anchor(&format!("{s} at {label}"), "V", v, PaperRef::exact(p));
            }
        }
        let plain = FitSolver::new(AccessLaw::cell_based_40nm(), 1e-15);
        artifact
            .with_table(table)
            .with_anchor(
                "SECDED max tolerable bit error rate",
                "1",
                plain.max_p_bit(Scheme::Secded),
                PaperRef::rel(4.79e-7, 0.02),
            )
            .with_anchor(
                "OCEAN max tolerable bit error rate",
                "1",
                plain.max_p_bit(Scheme::Ocean),
                PaperRef::rel(7.05e-5, 0.02),
            )
    }
}

// ---------------------------------------------------------------------
// Headline — the abstract's claims.
// ---------------------------------------------------------------------

/// The abstract's headline savings/ratios, measured on this reproduction.
struct HeadlineClaims;

impl Experiment for HeadlineClaims {
    fn id(&self) -> ExperimentId {
        ExperimentId::Headline
    }
    fn paper_ref(&self) -> &'static str {
        "Abstract"
    }
    fn description(&self) -> &'static str {
        "The abstract's headline ratios: 2x vs ECC, 3x vs none, 3.3x dynamic power"
    }
    fn run(&self, ctx: &RunCtx) -> Artifact {
        let h = Headline::from_rows(ctx.figure8_rows(), ctx.figure9_rows());
        Artifact::new("headline", "Headline claims vs this reproduction")
            .with_scalar("OCEAN vs none saving at 290 kHz", "%", h.ocean_vs_none_290khz * 100.0)
            .with_scalar("OCEAN vs ECC saving at 290 kHz", "%", h.ocean_vs_ecc_290khz * 100.0)
            .with_scalar("OCEAN vs none saving at 11 MHz", "%", h.ocean_vs_none_11mhz * 100.0)
            .with_scalar("OCEAN vs ECC saving at 11 MHz", "%", h.ocean_vs_ecc_11mhz * 100.0)
            .with_anchor(
                "energy ratio no-mitigation / OCEAN",
                "x",
                1.0 / (1.0 - h.ocean_vs_none_290khz),
                PaperRef::range(3.0, 2.0, 3.5),
            )
            .with_anchor(
                "energy ratio ECC / OCEAN",
                "x",
                1.0 / (1.0 - h.ocean_vs_ecc_290khz),
                PaperRef::range(2.0, 1.3, 2.5),
            )
            .with_anchor(
                "dynamic power gain beyond the error-free limit",
                "x",
                h.dynamic_power_gain,
                PaperRef::range(3.3, 2.0, 4.0),
            )
    }
}

// ---------------------------------------------------------------------
// Workload profile — instruction mix and OCEAN phase plan.
// ---------------------------------------------------------------------

/// The streaming-kernel profiles and the planned OCEAN phase counts.
struct Profile;

impl Experiment for Profile {
    fn id(&self) -> ExperimentId {
        ExperimentId::Profile
    }
    fn paper_ref(&self) -> &'static str {
        "§II (workload)"
    }
    fn description(&self) -> &'static str {
        "FFT/FIR instruction mix, memory traffic and the OCEAN phase plan"
    }
    fn run(&self, _ctx: &RunCtx) -> Artifact {
        use ntc_ocean::planning::planned_phase_count;
        use ntc_sim::asm::assemble;
        use ntc_sim::fft::{fft_program, random_input, scratchpad_words, twiddle_table};
        use ntc_sim::fir;
        use ntc_sim::memory::RawMemory;
        use ntc_sim::profile::profile;

        let mut table = Table::new(
            "workloads",
            vec![
                Column::bare("workload"),
                Column::new("cycles", "1"),
                Column::new("instructions", "1"),
                Column::new("loads", "1"),
                Column::new("stores", "1"),
            ],
        );

        // --- FFT ---
        let n = 1024;
        let program = assemble(&fft_program(n)).expect("kernel assembles");
        let mut mem = RawMemory::new(scratchpad_words(n).next_power_of_two());
        for (i, &w) in random_input(n, 1).iter().chain(twiddle_table(n).iter()).enumerate() {
            mem.store(i, w);
        }
        let p = profile(&program, &mut mem, u64::MAX).expect("error-free run");
        table.push_row(vec![
            Cell::Text(format!("{n}-point FFT")),
            Cell::Num(p.cycles as f64),
            Cell::Num(p.instructions as f64),
            Cell::Num(p.loads as f64),
            Cell::Num(p.stores as f64),
        ]);
        let law = AccessLaw::cell_based_40nm();
        let mut plan = Vec::new();
        for vdd in [0.50, 0.44, 0.40, 0.36, 0.33] {
            let phases = planned_phase_count(&p, scratchpad_words(n) as u32, &law, vdd, 512)
                .expect("plan solvable");
            plan.push((vdd, f64::from(phases)));
        }
        let shallowest = plan.first().expect("plan nonempty").1;
        let deepest = plan.last().expect("plan nonempty").1;

        // --- FIR ---
        let (sn, taps, block) = (256, 16, 32);
        let program = assemble(&fir::fir_program(sn, taps, block)).expect("kernel assembles");
        let mut mem = RawMemory::new(fir::scratchpad_words(sn, taps).next_power_of_two());
        for (i, &x) in
            fir::random_signal(sn, 2).iter().chain(fir::moving_average_taps(taps).iter()).enumerate()
        {
            mem.store(i, x as u32);
        }
        let q = profile(&program, &mut mem, u64::MAX).expect("error-free run");
        table.push_row(vec![
            Cell::Text(format!("{sn}-sample {taps}-tap FIR (block {block})")),
            Cell::Num(q.cycles as f64),
            Cell::Num(q.instructions as f64),
            Cell::Num(q.loads as f64),
            Cell::Num(q.stores as f64),
        ]);

        Artifact::new("profile", "Workload profile — instruction mix and OCEAN phase plan")
            .with_table(table)
            .with_series(Series::new("FFT planned phases", ("vdd", "V"), ("phases", "1"), plan))
            .with_anchor(
                "FFT planned phases at 0.33 V",
                "1",
                deepest,
                PaperRef::at_least(1.0, 1.0),
            )
            .with_anchor(
                "phase plan deepens with scaling",
                "1",
                deepest - shallowest,
                PaperRef::at_least(0.0, 0.0),
            )
    }
}

// ---------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------

/// Bisects a word-failure model `fail(p) <= 1e-15` and maps the
/// admissible bit-error probability to a supply on the cell-based law.
fn bisect_min_voltage(fail: impl Fn(f64) -> f64) -> f64 {
    let law = AccessLaw::cell_based_40nm();
    let (lo, _) = ntc_stats::math::bisect(0.0, 0.1, 120, |p| fail(p) <= 1e-15);
    law.vdd_for_p(lo.max(1e-300))
}

/// Ablation: protected-buffer interleaving depth.
struct AblationInterleave;

impl Experiment for AblationInterleave {
    fn id(&self) -> ExperimentId {
        ExperimentId::AblationInterleave
    }
    fn paper_ref(&self) -> &'static str {
        "§III-B (beyond paper)"
    }
    fn description(&self) -> &'static str {
        "Interleave depth of the protected buffer: only 4-way reaches 0.33 V"
    }
    fn run(&self, _ctx: &RunCtx) -> Artifact {
        use ntc_ecc::interleave::InterleavedCode;
        use ntc_sram::words::WordErrorModel;

        let law = AccessLaw::cell_based_40nm();
        let min_voltage_for_lanes = |lanes: u32| -> f64 {
            let code = InterleavedCode::new(32, lanes).unwrap();
            let w = WordErrorModel::new(39);
            let p = w.max_p_bit_for_target(code.correctable_random_errors(), 1e-15).unwrap();
            law.vdd_for_p(p)
        };
        let mut table = Table::new(
            "min_voltage_by_depth",
            vec![Column::new("lanes", "1"), Column::new("min_voltage", "V")],
        );
        let mut volts = Vec::new();
        for lanes in [1u32, 2, 4] {
            let v = min_voltage_for_lanes(lanes);
            table.push_row(vec![Cell::Num(f64::from(lanes)), Cell::Num(v)]);
            volts.push(v);
        }
        Artifact::new("ablation_interleave", "Ablation — protected-buffer interleaving depth")
            .with_table(table)
            .with_anchor("4-way minimum voltage", "V", volts[2], PaperRef::abs(0.33, 0.01))
            .with_anchor(
                "voltage gained by 4-way over 1-way",
                "V",
                volts[0] - volts[2],
                PaperRef::at_least(0.0, 0.0),
            )
    }
}

/// Ablation: OCEAN phase-count optimum vs error rate.
struct AblationPhases;

impl Experiment for AblationPhases {
    fn id(&self) -> ExperimentId {
        ExperimentId::AblationPhases
    }
    fn paper_ref(&self) -> &'static str {
        "§III-C (beyond paper)"
    }
    fn description(&self) -> &'static str {
        "OCEAN phase-count optimum: the convex energy curve across error rates"
    }
    fn run(&self, _ctx: &RunCtx) -> Artifact {
        use ntc_ocean::PhaseCostModel;

        let mut table = Table::new(
            "optimum_by_error_rate",
            vec![
                Column::new("p_word", "1"),
                Column::new("optimal_phases", "1"),
                Column::new("energy", "J"),
            ],
        );
        let mut opts = Vec::new();
        for p in [1e-8, 1e-6, 1e-4, 1e-3] {
            let m = PhaseCostModel::new(300_000, 28_000, 1536, p).unwrap();
            let opt = m.optimal_phase_count(256);
            table.push_row(vec![Cell::Num(p), Cell::Num(f64::from(opt)), Cell::Num(m.energy(opt))]);
            opts.push(f64::from(opt));
        }
        Artifact::new("ablation_phases", "Ablation — OCEAN phase count vs error rate")
            .with_table(table)
            .with_anchor(
                "optimum growth from p=1e-8 to p=1e-3",
                "phases",
                opts[3] - opts[0],
                PaperRef::at_least(0.0, 0.0),
            )
            .with_anchor(
                "optimal phases at p=1e-4",
                "phases",
                opts[2],
                PaperRef::at_least(2.0, 2.0),
            )
    }
}

/// Ablation: spatial/intra-word correlation of failures.
struct AblationCorrelation;

impl Experiment for AblationCorrelation {
    fn id(&self) -> ExperimentId {
        ExperimentId::AblationCorrelation
    }
    fn paper_ref(&self) -> &'static str {
        "§III-A (beyond paper)"
    }
    fn description(&self) -> &'static str {
        "Correlated failures: clustering raises the worst die and SECDED's voltage"
    }
    fn run(&self, _ctx: &RunCtx) -> Artifact {
        use ntc_sram::diemap::{DieMap, DieMapConfig};
        use ntc_sram::words::{CorrelatedWordModel, WordErrorModel};

        let worst_supply = |systematic: f64, seed: u64| -> f64 {
            let cfg = DieMapConfig::new(64, 128, RetentionLaw::cell_based_40nm())
                .with_systematic_fraction(systematic);
            DieMap::synthesize_population(&cfg, 9, seed)
                .iter()
                .map(DieMap::min_retention_supply)
                .fold(f64::MIN, f64::max)
        };
        let mut die_table = Table::new(
            "worst_die_supply",
            vec![Column::new("systematic_fraction", "1"), Column::new("worst_supply", "V")],
        );
        for frac in [0.0, 0.3, 0.6] {
            die_table.push_row(vec![Cell::Num(frac), Cell::Num(worst_supply(frac, 77))]);
        }

        let min_v = |rho: Option<f64>| -> f64 {
            bisect_min_voltage(|p| match rho {
                None => WordErrorModel::new(39).p_word_failure(2, p),
                Some(r) => CorrelatedWordModel::new(39, r).unwrap().p_word_failure(2, p),
            })
        };
        let v_iid = min_v(None);
        let mut word_table = Table::new(
            "secded_min_voltage",
            vec![Column::new("rho", "1"), Column::new("min_voltage", "V")],
        );
        word_table.push_row(vec![Cell::Num(0.0), Cell::Num(v_iid)]);
        for rho in [0.001, 0.01, 0.05] {
            word_table.push_row(vec![Cell::Num(rho), Cell::Num(min_v(Some(rho)))]);
        }
        Artifact::new("ablation_correlation", "Ablation — correlated retention/access failures")
            .with_table(die_table)
            .with_table(word_table)
            .with_anchor(
                "correlation penalty on SECDED voltage (rho=0.05 vs iid)",
                "V",
                min_v(Some(0.05)) - v_iid,
                PaperRef::at_least(0.0, 0.0),
            )
    }
}

/// Ablation: run-time monitoring guardband vs static margin.
struct AblationGuardband;

impl Experiment for AblationGuardband {
    fn id(&self) -> ExperimentId {
        ExperimentId::AblationGuardband
    }
    fn paper_ref(&self) -> &'static str {
        "§II (beyond paper)"
    }
    fn description(&self) -> &'static str {
        "Monitoring vs static end-of-life margin: average supply and energy saved"
    }
    fn run(&self, _ctx: &RunCtx) -> Artifact {
        let aging = AgingModel::new(AccessLaw::cell_based_40nm(), 0.05, 10.0);
        let mut ctl = VoltageController::new(0.45, (1e-7, 1e-4), 0.005, (0.33, 1.1));
        let trace = simulate_lifetime(&aging, &mut ctl, 200, 2_000_000, 5);
        let monitored = trace.iter().map(|p| p.vdd).sum::<f64>() / trace.len() as f64;
        let static_v = 0.45 + aging.static_guardband_v();
        let supply_series = trace.iter().map(|p| (p.years, p.vdd)).collect::<Vec<_>>();
        Artifact::new("ablation_guardband", "Ablation — monitoring guardband vs static margin")
            .with_series(Series::new(
                "monitored supply over lifetime",
                ("age", "years"),
                ("vdd", "V"),
                supply_series,
            ))
            .with_scalar("monitored average supply", "V", monitored)
            .with_scalar("static end-of-life supply", "V", static_v)
            .with_anchor(
                "dynamic energy saved by monitoring",
                "%",
                (1.0 - (monitored / static_v).powi(2)) * 100.0,
                PaperRef::at_least(0.0, 1.0),
            )
    }
}

/// Ablation: hierarchical banking of the memory macro.
struct AblationBanking;

impl Experiment for AblationBanking {
    fn id(&self) -> ExperimentId {
        ExperimentId::AblationBanking
    }
    fn paper_ref(&self) -> &'static str {
        "§III-B (beyond paper)"
    }
    fn description(&self) -> &'static str {
        "Banking the macro: access energy falls with subdivision until overheads win"
    }
    fn run(&self, _ctx: &RunCtx) -> Artifact {
        use ntc_memcalc::instance::{MemoryMacro, MemoryOrganization};
        use ntc_sram::styles::CellStyle;
        use ntc_tech::card;

        let macro_with = |banks: u32| {
            MemoryMacro::new(
                CellStyle::CellBasedAoi,
                MemoryOrganization::new(2048, 32).unwrap(),
                card::n40lp(),
            )
            .with_banks(banks)
        };
        let mut table = Table::new(
            "banking",
            vec![
                Column::new("banks", "1"),
                Column::new("access_energy", "pJ"),
                Column::new("leakage", "uW"),
                Column::new("area", "mm2"),
            ],
        );
        let mut first_e = 0.0;
        let mut last_e = 0.0;
        let mut best = (1u32, f64::INFINITY);
        for banks in [1u32, 2, 4, 8, 16, 32] {
            let m = macro_with(banks);
            let e = m.access_energy(0.55);
            let l = m.leakage_power(0.55);
            table.push_row(vec![
                Cell::Num(f64::from(banks)),
                Cell::Num(e * 1e12),
                Cell::Num(l * 1e6),
                Cell::Num(m.area_mm2()),
            ]);
            if banks == 1 {
                first_e = e;
            }
            last_e = e;
            // Total energy per access at a duty where leakage matters:
            let total = e + l / 290e3;
            if total < best.1 {
                best = (banks, total);
            }
        }
        Artifact::new("ablation_banking", "Ablation — hierarchical banking of the macro")
            .with_table(table)
            .with_anchor(
                "access energy drop from 1 to 32 banks",
                "pJ",
                (first_e - last_e) * 1e12,
                PaperRef::at_least(0.0, 0.0),
            )
            .with_scalar("optimum banks at 290 kHz duty", "banks", f64::from(best.0))
    }
}

/// Ablation: detection strength of the scratchpad code.
struct AblationDetection;

impl Experiment for AblationDetection {
    fn id(&self) -> ExperimentId {
        ExperimentId::AblationDetection
    }
    fn paper_ref(&self) -> &'static str {
        "§III-C (beyond paper)"
    }
    fn description(&self) -> &'static str {
        "Parity vs distance-4 detect-only: exact alias counts and silent-error rates"
    }
    fn run(&self, _ctx: &RunCtx) -> Artifact {
        use ntc_ecc::secded::Secded;

        let secded = Secded::new(32).unwrap();
        // Count weight-4 patterns with zero syndrome on the (39,32) code
        // (exact enumeration of C(39,4) = 82 251 patterns).
        let n = secded.codeword_bits();
        let zero = secded.encode(0);
        let mut aliases = 0u64;
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    for d in (c + 1)..n {
                        let pattern =
                            zero ^ (1u128 << a) ^ (1u128 << b) ^ (1u128 << c) ^ (1u128 << d);
                        if secded.syndrome(pattern) == 0 {
                            aliases += 1;
                        }
                    }
                }
            }
        }
        // Silent-corruption probabilities at the OCEAN operating point.
        let p = AccessLaw::cell_based_40nm().p_bit(0.33);
        let parity_silent = (33.0 * 32.0 / 2.0) * p * p;
        let secded_silent = aliases as f64 * p.powi(4);
        Artifact::new("ablation_detection", "Ablation — detection strength of the scratchpad code")
            .with_anchor(
                "parity silent double-error patterns",
                "patterns",
                528.0,
                PaperRef::exact(528.0),
            )
            .with_scalar("SECDED-detect silent quad patterns", "patterns", aliases as f64)
            .with_scalar("parity silent-corruption rate at 0.33 V", "1/access", parity_silent)
            .with_scalar("detect-only silent-corruption rate at 0.33 V", "1/access", secded_silent)
            .with_anchor(
                "detect-only / parity silent-corruption ratio",
                "1",
                secded_silent / parity_silent,
                PaperRef::at_most(1e-4, 1e-4),
            )
    }
}

/// Ablation: protected-buffer code construction.
struct AblationBufferCode;

impl Experiment for AblationBufferCode {
    fn id(&self) -> ExperimentId {
        ExperimentId::AblationBufferCode
    }
    fn paper_ref(&self) -> &'static str {
        "§III-B (beyond paper)"
    }
    fn description(&self) -> &'static str {
        "Interleaved SECDED vs DEC-TED BCH buffers, and the (57,32) quad BCH"
    }
    fn run(&self, _ctx: &RunCtx) -> Artifact {
        use ntc_sram::words::WordErrorModel;

        // Exact word-failure probability of the 4-way interleaved SECDED
        // under iid errors: any lane takes >= 2 of its 13 bits.
        let interleaved_word_failure = |p: f64| -> f64 {
            let lane_ok = (0..=1)
                .map(|k| {
                    let c = if k == 0 { 1.0 } else { 13.0 };
                    c * p.powi(k) * (1.0 - p).powi(13 - k)
                })
                .sum::<f64>();
            1.0 - lane_ok.powi(4)
        };
        // Exact word-failure of the (45,32) DEC-TED BCH: >= 3 of 45 bits.
        let bch_word_failure = |p: f64| -> f64 {
            let le2 = (0..=2)
                .map(|k| {
                    let c = match k {
                        0 => 1.0,
                        1 => 45.0,
                        _ => 990.0,
                    };
                    c * p.powi(k) * (1.0 - p).powi(45 - k)
                })
                .sum::<f64>();
            1.0 - le2
        };
        let v_inter = bisect_min_voltage(interleaved_word_failure);
        let v_bch = bisect_min_voltage(bch_word_failure);

        // The physical protected buffer: the (57,32) t = 4 BCH.
        let quad = ntc_ecc::bch::BchQuad::new();
        let w = WordErrorModel::new(quad.codeword_bits());
        let p_quad = w.max_p_bit_for_target(4, 1e-15).unwrap();
        let v_quad = AccessLaw::cell_based_40nm().vdd_for_p(p_quad);
        let grid_point = (v_quad / 0.11_f64).round() * 0.11;

        Artifact::new("ablation_buffer_code", "Ablation — protected-buffer code construction")
            .with_scalar("4-way interleaved SECDED min voltage (iid)", "V", v_inter)
            .with_scalar("(45,32) DEC-TED BCH min voltage (iid)", "V", v_bch)
            .with_anchor(
                "algebraic-code advantage under iid errors",
                "V",
                v_inter - v_bch,
                PaperRef::at_least(0.0, 0.0),
            )
            .with_anchor(
                "quad BCH codeword bits",
                "bits",
                f64::from(quad.codeword_bits()),
                PaperRef::exact(57.0),
            )
            .with_anchor(
                "quad BCH exact FIT-limited voltage",
                "V",
                v_quad,
                PaperRef::abs(0.342, 0.005),
            )
            .with_anchor(
                "quad BCH voltage on the paper grid",
                "V",
                grid_point,
                PaperRef::exact(0.33),
            )
    }
}

/// Ablation: importance-sampled deep-tail Monte-Carlo vs the closed forms.
struct AblationTailMc;

/// Direct binomial upper tail `P(K >= k_min)` for `K ~ Binomial(n, p)`,
/// summed term by term from the iterative pmf recurrence. Working on the
/// tail side (instead of `1 − P(K <= k_min − 1)`) keeps the value exact
/// at the 1e-15 scale, where the complement form loses everything to
/// cancellation.
fn binomial_upper_tail(n: u32, p: f64, k_min: u32) -> f64 {
    let mut pmf = (1.0 - p).powi(n as i32);
    let mut tail = 0.0;
    for j in 0..=n {
        if j >= k_min {
            tail += pmf;
        }
        if j < n {
            pmf *= (n - j) as f64 / (j + 1) as f64 * p / (1.0 - p);
        }
    }
    tail
}

impl Experiment for AblationTailMc {
    fn id(&self) -> ExperimentId {
        ExperimentId::AblationTailMc
    }
    fn paper_ref(&self) -> &'static str {
        "§II, Eqs. 4–5 (beyond paper)"
    }
    fn description(&self) -> &'static str {
        "Importance-sampled 1e-12..1e-15 failure tails cross-check the closed forms"
    }
    fn run(&self, ctx: &RunCtx) -> Artifact {
        use ntc_stats::diag::TiltedConvergence;
        use ntc_stats::math::phi;
        use ntc_stats::mc::tilted::{binomial_tail_shards, gauss_tail_shards};

        // The paper's FIT arithmetic extrapolates Eq. 4/5 into the
        // 1e-12..1e-15 regime where plain Monte-Carlo would need >1e14
        // samples per point. The exponentially tilted estimator samples
        // that regime directly; its agreement with the closed forms is
        // the cross-check this experiment anchors, and the effective
        // sample size certifies the weights never degenerated.
        let trials = ctx.mc(400_000);
        let seed = ctx.seed();
        let law = RetentionLaw::cell_based_40nm();

        let mut artifact = Artifact::new(
            "ablation_tail_mc",
            "Ablation — importance-sampled deep-tail Monte-Carlo",
        )
        .with_scalar("trials per tail point", "samples", trials as f64);

        // Eq. 4 retention tails: p(V) = Φ((µ − V)/σ) at supplies where
        // the standardized threshold sits 7σ and 8σ out.
        for (label, vdd) in [("retention p_bit at 0.41 V", 0.41), ("retention p_bit at 0.44 V", 0.44)] {
            let t = (vdd - law.mean()) / law.sigma();
            let shards = gauss_tail_shards(trials, seed, t);
            let conv = TiltedConvergence::from_shards(&shards);
            if ntc_obs::enabled() {
                conv.publish(&format!("diag.tail_mc.t{t:.0}"));
            }
            let closed = phi(-t);
            artifact = artifact
                .with_scalar(label, "1", conv.estimate)
                .with_scalar(&format!("{label} closed form (Eq. 4)"), "1", closed)
                .with_anchor(
                    &format!("{label} IS/closed-form ratio"),
                    "1",
                    conv.estimate / closed,
                    PaperRef::abs(1.0, 0.15),
                )
                .with_anchor(
                    &format!("{label} effective sample size"),
                    "samples",
                    conv.effective_samples,
                    PaperRef::at_least(1000.0, 1000.0),
                );
        }

        // Eq. 5 access-failure word tail: a (39,32) SECDED word dies on
        // >= 3 bit errors; at 0.44 V (the Table 2 SECDED minimum) the
        // word-failure probability sits at the paper's 1e-15 FIT bound.
        let p_bit = AccessLaw::cell_based_40nm().p_bit(0.44);
        let shards = binomial_tail_shards(trials, seed, 39, p_bit, 3);
        let conv = TiltedConvergence::from_shards(&shards);
        if ntc_obs::enabled() {
            conv.publish("diag.tail_mc.secded");
        }
        let closed = binomial_upper_tail(39, p_bit, 3);
        artifact
            .with_scalar("SECDED word failure at 0.44 V", "1", conv.estimate)
            .with_scalar("SECDED word failure closed form (Eq. 5)", "1", closed)
            .with_anchor(
                "SECDED word tail IS/closed-form ratio",
                "1",
                conv.estimate / closed,
                PaperRef::abs(1.0, 0.15),
            )
            .with_anchor(
                "SECDED word tail effective sample size",
                "samples",
                conv.effective_samples,
                PaperRef::at_least(1000.0, 1000.0),
            )
            .with_anchor(
                "deepest direct IS estimate",
                "1",
                conv.estimate,
                PaperRef::at_most(1e-15, 1e-12),
            )
    }
}

/// Ablation: the design-space autotuner rediscovers Table 2.
struct AblationOptimize;

impl Experiment for AblationOptimize {
    fn id(&self) -> ExperimentId {
        ExperimentId::AblationOptimize
    }
    fn paper_ref(&self) -> &'static str {
        "Table 2 (beyond paper)"
    }
    fn description(&self) -> &'static str {
        "Autotuner over banks x words x cells x schemes x VDD rediscovers the Table 2 points"
    }
    fn run(&self, ctx: &RunCtx) -> Artifact {
        use crate::api::{OptimizeRequest, WireName};
        use crate::optimize::optimize;
        use ntc_sram::styles::CellStyle;

        let mut table = Table::new(
            "optimized",
            vec![
                Column::bare("frequency"),
                Column::bare("scheme"),
                Column::new("vdd", "V"),
                Column::new("banks", "1"),
                Column::new("words", "1"),
                Column::new("energy_per_access", "pJ"),
            ],
        );
        let mut artifact = Artifact::new(
            "ablation_optimize",
            "Ablation — constrained autotuner vs the Table 2 grid search",
        );
        // The published operating points: rows are 290 kHz / 1.96 MHz,
        // columns are no-mitigation / SECDED / OCEAN.
        let paper = [[0.55, 0.44, 0.33], [0.55, 0.44, 0.44]];
        for ((label, f), paper_row) in
            [("290 kHz", 290e3), ("1.96 MHz", 1.96e6)].into_iter().zip(paper)
        {
            // Per-scheme runs: constrained to one mitigation scheme on
            // the paper's cell-based macro, the optimizer's VDD must
            // land on the Table 2 column.
            for (scheme, want) in
                [Scheme::NoMitigation, Scheme::Secded, Scheme::Ocean].into_iter().zip(paper_row)
            {
                let mut req = OptimizeRequest::paper(f);
                req.seed = ctx.seed();
                req.space.cells = vec![CellStyle::CellBasedAoi];
                req.space.schemes = vec![scheme];
                req.canonicalize();
                let resp = optimize(&req);
                let best = resp.best.expect("paper design space is feasible");
                table.push_row(vec![
                    Cell::Text(label.into()),
                    Cell::Text(scheme.wire_name().into()),
                    Cell::Num(best.vdd),
                    Cell::Num(f64::from(best.banks)),
                    Cell::Num(f64::from(best.words)),
                    Cell::Num(best.energy_per_access_pj),
                ]);
                artifact = artifact.with_anchor(
                    &format!("rediscovered {} supply at {label}", scheme.wire_name()),
                    "V",
                    best.vdd,
                    PaperRef::exact(want),
                );
            }
            // Full-space run: with every axis free the energy objective
            // must pick OCEAN at the lowest feasible supply — Table 2's
            // punchline — and keep the capacity floor tight.
            let mut req = OptimizeRequest::paper(f);
            req.seed = ctx.seed();
            req.canonicalize();
            let resp = optimize(&req);
            let again = optimize(&req);
            let best = resp.best.clone().expect("paper design space is feasible");
            table.push_row(vec![
                Cell::Text(label.into()),
                Cell::Text(format!("best: {}", best.scheme.wire_name())),
                Cell::Num(best.vdd),
                Cell::Num(f64::from(best.banks)),
                Cell::Num(f64::from(best.words)),
                Cell::Num(best.energy_per_access_pj),
            ]);
            artifact = artifact
                .with_anchor(
                    &format!("full-space winner supply at {label}"),
                    "V",
                    best.vdd,
                    PaperRef::exact(paper_row[2]),
                )
                .with_anchor(
                    &format!("full-space winner capacity at {label}"),
                    "words",
                    f64::from(best.words),
                    PaperRef::exact(2048.0),
                )
                .with_anchor(
                    &format!("byte-identical rerun at {label}"),
                    "1",
                    f64::from(u8::from(resp.to_json() == again.to_json())),
                    PaperRef::exact(1.0),
                )
                .with_scalar(
                    &format!("full-space banks at {label}"),
                    "banks",
                    f64::from(best.banks),
                );
            if f == 290e3 {
                artifact = artifact
                    .with_series(Series::new(
                        "convergence",
                        ("restart", "1"),
                        ("objective", "pJ-weighted"),
                        resp.convergence
                            .best_per_restart
                            .iter()
                            .enumerate()
                            .map(|(i, v)| (i as f64, v.unwrap_or(f64::INFINITY)))
                            .collect(),
                    ))
                    .with_scalar(
                        "objective evaluations (290 kHz full space)",
                        "evals",
                        resp.convergence.evaluations as f64,
                    );
            }
        }
        artifact.with_table(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_ids_are_unique_and_complete() {
        let ids = experiment_ids();
        assert!(ids.len() >= 17, "{} experiments", ids.len());
        let set: HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len(), "duplicate experiment id");
        assert_eq!(ids.len(), ExperimentId::ALL.len());
    }

    #[test]
    fn typed_ids_round_trip_and_resolve() {
        for id in ExperimentId::ALL {
            assert_eq!(id.as_str().parse::<ExperimentId>(), Ok(id));
            assert_eq!(id.to_string(), id.as_str());
            assert_eq!(find_id(id).id(), id, "registry entry agrees with its id");
        }
    }

    #[test]
    fn unknown_id_error_names_the_registry() {
        let err = "fig2".parse::<ExperimentId>().unwrap_err();
        assert_eq!(err.kind(), "unknown_experiment");
        assert!(err.to_string().contains("table2"), "{err}");
    }

    #[test]
    fn builder_defaults_match_paper_context() {
        let ctx = RunCtx::builder().build();
        assert_eq!(ctx.seed(), 2014);
        assert_eq!(ctx.scale(), Scale::Paper);
        let quick = RunCtx::builder().quick().seed(99).build();
        assert_eq!(quick.scale(), Scale::Quick);
        assert_eq!(quick.seed(), 99);
    }

    #[test]
    fn quick_scale_shrinks_only_monte_carlo() {
        let ctx = RunCtx::quick();
        assert_eq!(ctx.mc(300_000), 15_000);
        assert_eq!(ctx.mc(4000), 1000, "floor at 1000 samples");
        assert_eq!(RunCtx::paper().mc(300_000), 300_000);
    }

    #[test]
    fn table2_artifact_is_all_in_band() {
        let ctx = RunCtx::quick();
        let a = find_id(ExperimentId::Table2).run(&ctx);
        assert!(a.passed(), "failures: {:?}", a.failures());
        assert_eq!(
            a.table("min_voltage").unwrap().num("frequency", "290 kHz", "ocean"),
            Some(0.33)
        );
    }
}
