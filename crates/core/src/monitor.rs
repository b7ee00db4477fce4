//! Run-time monitoring and voltage control over a product's lifetime.
//!
//! Section IV of the paper observes that "the minimal voltage will change
//! over lifetime of a product requiring a monitoring and control loop
//! that adjusts run-time knobs such as the supply voltage level". This
//! module provides both halves:
//!
//! * [`AgingModel`] — drifts the access-failure knee upward over time
//!   (√t-shaped, NBTI-like), so a voltage that was comfortably error-free
//!   at time zero starts producing correctable errors years in;
//! * [`VoltageController`] — a feedback loop that watches the *corrected*
//!   error rate reported by the mitigation hardware (ECC corrections /
//!   OCEAN recoveries are free telemetry) and nudges the supply to keep
//!   that rate inside a target band — tracking the drift with millivolts
//!   instead of the worst-case lifetime guardband a static design needs.

use ntc_sram::failure::AccessLaw;
use ntc_stats::rng::Source;
use std::fmt;

/// Lifetime drift of the minimal access voltage.
///
/// # Example
///
/// ```
/// use ntc::monitor::AgingModel;
/// use ntc_sram::AccessLaw;
///
/// let aging = AgingModel::new(AccessLaw::cell_based_40nm(), 0.04, 10.0);
/// let fresh = aging.law_at(0.0);
/// let old = aging.law_at(10.0);
/// assert!((old.v0() - fresh.v0() - 0.04).abs() < 1e-12, "full drift at EOL");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AgingModel {
    fresh: AccessLaw,
    eol_drift_v: f64,
    lifetime_years: f64,
}

impl AgingModel {
    /// Creates a model: the knee shifts by `eol_drift_v` volts over
    /// `lifetime_years`, following a √t law.
    ///
    /// # Panics
    ///
    /// Panics if the drift is negative or lifetime is not positive.
    pub fn new(fresh: AccessLaw, eol_drift_v: f64, lifetime_years: f64) -> Self {
        assert!(
            eol_drift_v.is_finite() && eol_drift_v >= 0.0,
            "drift must be non-negative"
        );
        assert!(
            lifetime_years.is_finite() && lifetime_years > 0.0,
            "lifetime must be positive"
        );
        Self {
            fresh,
            eol_drift_v,
            lifetime_years,
        }
    }

    /// The failure law at age `years` (clamped to the lifetime).
    pub fn law_at(&self, years: f64) -> AccessLaw {
        let t = (years / self.lifetime_years).clamp(0.0, 1.0);
        self.fresh.with_knee_shift(self.eol_drift_v * t.sqrt())
    }

    /// The static worst-case guardband a design without monitoring must
    /// carry: the full end-of-life drift.
    pub(crate) fn static_guardband_v(&self) -> f64 {
        self.eol_drift_v
    }
}

/// One sample of a lifetime control trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ControlPoint {
    /// Age in years.
    pub years: f64,
    /// Supply the controller selected for this window.
    pub vdd: f64,
    /// Corrected-error rate observed in the window (per access).
    pub observed_rate: f64,
}

/// The correction-rate-driven supply controller.
///
/// # Example
///
/// ```
/// use ntc::monitor::VoltageController;
///
/// let mut ctl = VoltageController::new(0.46, (1e-7, 1e-5), 0.005, (0.33, 1.1));
/// // A window with far too many corrections pushes the supply up…
/// ctl.observe(500, 1_000_000);
/// assert!(ctl.vdd() > 0.46);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageController {
    vdd: f64,
    band: (f64, f64),
    step_v: f64,
    bounds: (f64, f64),
    adjustments: u64,
}

impl VoltageController {
    /// Creates a controller starting at `vdd`, keeping the per-access
    /// correction rate inside `band`, moving in `step_v` steps within
    /// `bounds`.
    ///
    /// # Panics
    ///
    /// Panics on an empty band, non-positive step, or inverted bounds.
    pub fn new(vdd: f64, band: (f64, f64), step_v: f64, bounds: (f64, f64)) -> Self {
        assert!(band.0 < band.1, "band must be a nonempty interval");
        assert!(step_v > 0.0 && step_v.is_finite(), "step must be positive");
        assert!(bounds.0 < bounds.1, "bounds must be ordered");
        assert!(
            (bounds.0..=bounds.1).contains(&vdd),
            "start voltage outside bounds"
        );
        Self {
            vdd,
            band,
            step_v,
            bounds,
            adjustments: 0,
        }
    }

    /// Current supply setting, volts.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Number of supply adjustments made so far.
    #[cfg(test)]
    pub(crate) fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// Feeds one monitoring window: `corrections` corrected errors over
    /// `accesses` accesses. Returns the (possibly adjusted) supply.
    ///
    /// # Panics
    ///
    /// Panics if `accesses == 0`.
    pub fn observe(&mut self, corrections: u64, accesses: u64) -> f64 {
        assert!(accesses > 0, "window must contain accesses");
        let rate = corrections as f64 / accesses as f64;
        if rate > self.band.1 {
            let next = (self.vdd + self.step_v).min(self.bounds.1);
            if next != self.vdd {
                self.vdd = next;
                self.adjustments += 1;
            }
        } else if rate < self.band.0 {
            let next = (self.vdd - self.step_v).max(self.bounds.0);
            if next != self.vdd {
                self.vdd = next;
                self.adjustments += 1;
            }
        }
        self.vdd
    }
}

impl fmt::Display for VoltageController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "controller @ {:.3} V (band {:.1e}..{:.1e}, {} adjustments)",
            self.vdd, self.band.0, self.band.1, self.adjustments
        )
    }
}

/// Simulates a monitored product lifetime: every window the memory ages a
/// little, the mitigation hardware reports its correction count (sampled
/// from the aged law at the current supply), and the controller reacts.
///
/// `accesses_per_window` sets the telemetry resolution; `windows` spreads
/// evenly over the model's lifetime.
///
/// # Panics
///
/// Panics if `windows == 0` or `accesses_per_window == 0`.
pub(crate) fn simulate_lifetime(
    aging: &AgingModel,
    controller: &mut VoltageController,
    windows: usize,
    accesses_per_window: u64,
    seed: u64,
) -> Vec<ControlPoint> {
    assert!(windows > 0, "need at least one window");
    assert!(accesses_per_window > 0, "windows must contain accesses");
    let mut src = Source::seeded(seed);
    let mut trace = Vec::with_capacity(windows);
    for w in 0..windows {
        let years = aging.lifetime_years * (w as f64 + 0.5) / windows as f64;
        let law = aging.law_at(years);
        let p_word = 1.0 - (1.0 - law.p_bit(controller.vdd())).powi(39);
        let corrections = src.binomial(accesses_per_window, p_word);
        let vdd = controller.observe(corrections, accesses_per_window);
        trace.push(ControlPoint {
            years,
            vdd,
            observed_rate: corrections as f64 / accesses_per_window as f64,
        });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aging() -> AgingModel {
        AgingModel::new(AccessLaw::cell_based_40nm(), 0.05, 10.0)
    }

    #[test]
    fn aging_is_monotone_and_sqrt_shaped() {
        let a = aging();
        let v0 = a.law_at(0.0).v0();
        let v1 = a.law_at(2.5).v0();
        let v2 = a.law_at(10.0).v0();
        assert!(v0 < v1 && v1 < v2);
        // √t: half the drift arrives in the first quarter of life.
        assert!((v1 - v0 - 0.025).abs() < 1e-12);
        // Clamped beyond the lifetime.
        assert_eq!(a.law_at(50.0).v0(), v2);
    }

    #[test]
    fn controller_raises_on_high_rate_and_lowers_on_silence() {
        let mut c = VoltageController::new(0.5, (1e-6, 1e-4), 0.01, (0.3, 1.1));
        c.observe(1000, 1_000_000); // rate 1e-3 > band
        assert!((c.vdd() - 0.51).abs() < 1e-12);
        c.observe(0, 1_000_000); // rate 0 < band
        c.observe(0, 1_000_000);
        assert!((c.vdd() - 0.49).abs() < 1e-12);
        assert_eq!(c.adjustments(), 3);
    }

    #[test]
    fn controller_respects_bounds() {
        let mut c = VoltageController::new(0.31, (1e-6, 1e-4), 0.05, (0.30, 0.35));
        c.observe(0, 1000);
        assert_eq!(c.vdd(), 0.30);
        c.observe(0, 1000);
        assert_eq!(c.vdd(), 0.30, "clamped at the floor");
        c.observe(900, 1000);
        assert_eq!(c.vdd(), 0.35);
        c.observe(900, 1000);
        assert_eq!(c.vdd(), 0.35, "clamped at the ceiling");
    }

    #[test]
    fn lifetime_tracking_follows_the_drift() {
        let a = aging();
        // Start at the SECDED operating point with a small margin.
        let mut c = VoltageController::new(0.45, (1e-7, 1e-4), 0.005, (0.33, 1.1));
        let trace = simulate_lifetime(&a, &mut c, 400, 2_000_000, 7);
        let first = trace.first().expect("nonempty");
        let last = trace.last().expect("nonempty");
        // The controller ends higher than it started — it tracked ageing…
        assert!(last.vdd > first.vdd, "{} -> {}", first.vdd, last.vdd);
        // …but by less than the full static guardband at every point
        // before end-of-life (that is the energy win of monitoring).
        let worst_case = 0.45 + a.static_guardband_v();
        let mid = &trace[trace.len() / 2];
        assert!(
            mid.vdd < worst_case,
            "mid-life {} should undercut static {}",
            mid.vdd,
            worst_case
        );
    }

    #[test]
    fn lifetime_keeps_corrections_bounded() {
        let a = aging();
        let mut c = VoltageController::new(0.46, (1e-7, 1e-4), 0.005, (0.33, 1.1));
        let trace = simulate_lifetime(&a, &mut c, 400, 2_000_000, 11);
        // After the loop settles, windows stay below ~10x the band top.
        let late = &trace[trace.len() / 2..];
        let violations = late
            .iter()
            .filter(|p| p.observed_rate > 1e-3)
            .count();
        assert!(
            violations < late.len() / 10,
            "{violations} of {} late windows out of band",
            late.len()
        );
    }

    #[test]
    fn ten_year_drift_stays_in_band_for_less_than_the_static_guardband() {
        // The headline monitoring claim in one test: over the full
        // 10-year lifetime the controller (a) keeps the corrected-error
        // rate it regulates inside its target band, and (b) spends less
        // total supply adjustment than the static worst-case guardband
        // a monitor-less design must carry from day one.
        let a = aging(); // 0.05 V knee drift over 10 years
        let start = 0.46;
        let band = (1e-7, 1e-4);
        let mut c = VoltageController::new(start, band, 0.005, (0.33, 1.1));
        let trace = simulate_lifetime(&a, &mut c, 500, 2_000_000, 2014);
        assert!((trace.last().expect("nonempty").years - 10.0).abs() < 0.5);

        // (a) In-band regulation. Individual windows are binomial
        // samples, so judge the loop the way a control engineer would:
        // after a settling tenth of life, the mean observed rate sits
        // inside the band and gross excursions (10x the band top, the
        // level that forces consecutive corrections) are rare.
        let settled = &trace[trace.len() / 10..];
        let mean_rate: f64 =
            settled.iter().map(|p| p.observed_rate).sum::<f64>() / settled.len() as f64;
        assert!(
            mean_rate <= band.1,
            "mean corrected-error rate {mean_rate:.3e} above band top {:.0e}",
            band.1
        );
        let gross = settled
            .iter()
            .filter(|p| p.observed_rate > 10.0 * band.1)
            .count();
        assert!(
            gross < settled.len() / 20,
            "{gross} of {} settled windows grossly out of band",
            settled.len()
        );

        // (b) Net supply travel under the static lifetime guardband.
        let end = trace.last().expect("nonempty").vdd;
        assert!(
            end - start < a.static_guardband_v(),
            "net adjustment {:.3} V should undercut the {:.3} V static guardband",
            end - start,
            a.static_guardband_v()
        );
        // And the peak the controller ever commanded also stays below
        // the static worst-case supply.
        let peak = trace.iter().map(|p| p.vdd).fold(f64::MIN, f64::max);
        assert!(
            peak < start + a.static_guardband_v(),
            "peak {peak:.3} V reached the static worst case"
        );
        assert!(c.adjustments() > 0, "the loop must actually act");
    }

    #[test]
    #[should_panic(expected = "band")]
    fn controller_rejects_empty_band() {
        VoltageController::new(0.5, (1e-4, 1e-4), 0.01, (0.3, 1.1));
    }

    #[test]
    #[should_panic(expected = "window must contain accesses")]
    fn observe_rejects_empty_window() {
        VoltageController::new(0.5, (1e-6, 1e-4), 0.01, (0.3, 1.1)).observe(0, 0);
    }

    #[test]
    fn display_nonempty() {
        let c = VoltageController::new(0.5, (1e-6, 1e-4), 0.01, (0.3, 1.1));
        assert!(!c.to_string().is_empty());
    }
}
