//! Synthetic dies: spatially resolved per-bit retention voltages.
//!
//! The paper's Figure 3 plots the minimal retention voltage of every bit of
//! one commercial and one cell-based memory instance against its (x, y)
//! location; Figure 4 accumulates bit failures over nine dies into a
//! retention-BER-vs-voltage curve. [`DieMap`] is the generator standing in
//! for those measurements: each bit's retention voltage is the sum of
//!
//! * the style's mean retention voltage ([`RetentionLaw::mean`]),
//! * a die-to-die offset (process corner of that die),
//! * a smooth systematic within-die component (tilt plus radial bowl —
//!   the lithography/stress signatures real maps show), and
//! * per-bit random mismatch.
//!
//! The systematic and random components split the law's total σ so that the
//! population statistics of a many-die ensemble still follow the
//! [`RetentionLaw`] used to synthesize it (verified by test).

use crate::failure::RetentionLaw;
use ntc_stats::exec::par_map;
use ntc_stats::rng::Source;
use std::fmt;

/// Configuration for synthesizing dies.
///
/// # Example
///
/// ```
/// use ntc_sram::{DieMap, DieMapConfig};
/// use ntc_sram::failure::RetentionLaw;
/// use ntc_stats::rng::Source;
///
/// let cfg = DieMapConfig::new(128, 256, RetentionLaw::cell_based_40nm());
/// let die = DieMap::synthesize(&cfg, &mut Source::seeded(1));
/// // At 0.45 V, essentially every bit of this style retains.
/// assert_eq!(die.failure_count(0.45), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DieMapConfig {
    rows: usize,
    cols: usize,
    law: RetentionLaw,
    systematic_fraction: f64,
    die_to_die_fraction: f64,
}

impl DieMapConfig {
    /// Creates a config for a `rows × cols` bit array following `law`.
    ///
    /// Defaults: 30 % of the law's σ is systematic within-die variation,
    /// 25 % is die-to-die offset, the rest is per-bit random mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(rows: usize, cols: usize, law: RetentionLaw) -> Self {
        assert!(rows > 0 && cols > 0, "die must have a nonzero bit array");
        Self {
            rows,
            cols,
            law,
            systematic_fraction: 0.30,
            die_to_die_fraction: 0.25,
        }
    }

    /// Sets the fraction of total σ carried by smooth within-die patterns.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ f` and `f² + die-to-die² ≤ 1` keeps a positive
    /// random remainder.
    #[must_use]
    pub fn with_systematic_fraction(mut self, f: f64) -> Self {
        assert!((0.0..1.0).contains(&f), "fraction must be in [0, 1)");
        self.systematic_fraction = f;
        self.assert_budget();
        self
    }

    /// Sets the fraction of total σ carried by die-to-die offsets.
    ///
    /// # Panics
    ///
    /// Panics unless the variance budget keeps a positive random remainder.
    #[must_use]
    pub fn with_die_to_die_fraction(mut self, f: f64) -> Self {
        assert!((0.0..1.0).contains(&f), "fraction must be in [0, 1)");
        self.die_to_die_fraction = f;
        self.assert_budget();
        self
    }

    fn assert_budget(&self) {
        let used = self.systematic_fraction * self.systematic_fraction
            + self.die_to_die_fraction * self.die_to_die_fraction;
        assert!(
            used < 1.0,
            "systematic² + die-to-die² must stay below 1, got {used}"
        );
    }

    /// Rows of the bit array.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the bit array.
    #[cfg(test)]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// The retention law the population follows.
    #[cfg(test)]
    pub(crate) fn law(&self) -> &RetentionLaw {
        &self.law
    }

    fn sigma_split(&self) -> (f64, f64, f64) {
        let total = self.law.sigma();
        let s_sys = total * self.systematic_fraction;
        let s_die = total * self.die_to_die_fraction;
        let s_rand = (total * total - s_sys * s_sys - s_die * s_die).sqrt();
        (s_sys, s_die, s_rand)
    }
}

/// One synthesized die: a spatial map of per-bit minimal retention voltages.
#[derive(Debug, Clone, PartialEq)]
pub struct DieMap {
    rows: usize,
    cols: usize,
    v_ret: Vec<f64>,
    die_offset: f64,
}

impl DieMap {
    /// Synthesizes one die from `cfg`, drawing all randomness from `src`.
    pub fn synthesize(cfg: &DieMapConfig, src: &mut Source) -> Self {
        let (s_sys, s_die, s_rand) = cfg.sigma_split();
        let die_offset = src.normal(0.0, s_die);
        // Smooth systematic pattern: tilt in x and y plus a radial bowl,
        // with random per-die coefficients normalized so the pattern's RMS
        // over the die is s_sys.
        let gx = src.standard_normal();
        let gy = src.standard_normal();
        let gb = src.standard_normal();
        // RMS of (x-0.5) over [0,1] is 1/√12; of the centered bowl term
        // r²−E[r²] it is √(7/180)/… — normalize numerically instead.
        let pattern = |xn: f64, yn: f64| {
            let bowl = (xn - 0.5) * (xn - 0.5) + (yn - 0.5) * (yn - 0.5) - 1.0 / 6.0;
            gx * (xn - 0.5) + gy * (yn - 0.5) + gb * bowl
        };
        // Normalize the pattern RMS over the grid.
        let mut sum_sq = 0.0;
        let probe = 16usize;
        for i in 0..probe {
            for j in 0..probe {
                let v = pattern((i as f64 + 0.5) / probe as f64, (j as f64 + 0.5) / probe as f64);
                sum_sq += v * v;
            }
        }
        let rms = (sum_sq / (probe * probe) as f64).sqrt();
        let scale = if rms > 0.0 { s_sys / rms } else { 0.0 };

        let mean = cfg.law.mean();
        let mut v_ret = Vec::with_capacity(cfg.rows * cfg.cols);
        // Per-bit mismatch is drawn one row at a time through the batched
        // block fill, which replays the scalar draw sequence bit-for-bit
        // (the polar cache carries across rows), so the map is identical
        // to the original per-bit `src.normal(0.0, s_rand)` loop.
        let mut zs = vec![0.0f64; cfg.cols];
        for r in 0..cfg.rows {
            let yn = (r as f64 + 0.5) / cfg.rows as f64;
            src.fill_standard_normal(&mut zs);
            for (c, &z) in zs.iter().enumerate() {
                let xn = (c as f64 + 0.5) / cfg.cols as f64;
                let v = mean + die_offset + scale * pattern(xn, yn) + (0.0 + s_rand * z);
                v_ret.push(v);
            }
        }
        Self {
            rows: cfg.rows,
            cols: cfg.cols,
            v_ret,
            die_offset,
        }
    }

    /// Synthesizes a population of `n` dies (the paper measured nine),
    /// each from an independent counter-based stream of `seed`, fanned
    /// across cores by the parallel engine.
    ///
    /// Die `i` draws from `Source::stream(seed, i)` — a pure function of
    /// `(seed, i)` — so the population is bit-identical at any thread
    /// count, and identical to [`DieMap::synthesize_population_serial`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn synthesize_population(cfg: &DieMapConfig, n: usize, seed: u64) -> Vec<DieMap> {
        assert!(n > 0, "population must contain at least one die");
        par_map(n, |i| {
            let mut child = Source::stream(seed, i as u64);
            DieMap::synthesize(cfg, &mut child)
        })
    }

    /// Serial reference implementation of [`DieMap::synthesize_population`]:
    /// same per-die streams, sequential execution. Exists so benches and
    /// equivalence tests can compare without forcing `NTC_THREADS=1`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn synthesize_population_serial(cfg: &DieMapConfig, n: usize, seed: u64) -> Vec<DieMap> {
        assert!(n > 0, "population must contain at least one die");
        (0..n)
            .map(|i| {
                let mut child = Source::stream(seed, i as u64);
                DieMap::synthesize(cfg, &mut child)
            })
            .collect()
    }

    /// Rows of the bit array.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the bit array.
    #[cfg(test)]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of bits.
    pub(crate) fn bits(&self) -> usize {
        self.v_ret.len()
    }

    /// Minimal retention voltage of the bit at `(row, col)`, in volts.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    #[cfg(test)]
    pub(crate) fn v_ret(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "bit ({row}, {col}) out of bounds");
        self.v_ret[row * self.cols + col]
    }

    /// Number of bits that fail retention at supply `vdd` (their retention
    /// voltage is above the supply).
    pub fn failure_count(&self, vdd: f64) -> usize {
        self.v_ret.iter().filter(|&&v| v > vdd).count()
    }

    /// Bit-error rate at supply `vdd` for this die.
    pub fn ber(&self, vdd: f64) -> f64 {
        self.failure_count(vdd) as f64 / self.bits() as f64
    }

    /// Positions `(row, col)` of all bits failing at `vdd`.
    pub fn failing_bits(&self, vdd: f64) -> Vec<(usize, usize)> {
        self.v_ret
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v > vdd)
            .map(|(i, _)| (i / self.cols, i % self.cols))
            .collect()
    }

    /// The die's minimal safe retention supply: the worst bit's retention
    /// voltage (supply must sit above it to retain everything).
    pub fn min_retention_supply(&self) -> f64 {
        self.v_ret.iter().copied().fold(f64::MIN, f64::max)
    }

    /// ASCII rendering of the failure map at `vdd` — the workspace's
    /// version of Figure 3 (`#` failing bit, `·` retaining bit), downsampled
    /// to at most `max_side` characters per side.
    ///
    /// # Panics
    ///
    /// Panics if `max_side == 0`.
    pub fn render_ascii(&self, vdd: f64, max_side: usize) -> String {
        assert!(max_side > 0, "need at least one character per side");
        let rstep = self.rows.div_ceil(max_side);
        let cstep = self.cols.div_ceil(max_side);
        let mut out = String::new();
        for rb in (0..self.rows).step_by(rstep) {
            for cb in (0..self.cols).step_by(cstep) {
                let mut failing = false;
                'block: for r in rb..(rb + rstep).min(self.rows) {
                    for c in cb..(cb + cstep).min(self.cols) {
                        if self.v_ret[r * self.cols + c] > vdd {
                            failing = true;
                            break 'block;
                        }
                    }
                }
                out.push(if failing { '#' } else { '·' });
            }
            out.push('\n');
        }
        out
    }

    /// Cumulative BER of a whole population at `vdd` — the quantity
    /// Figure 4 plots over nine dies.
    ///
    /// # Panics
    ///
    /// Panics if `dies` is empty.
    pub fn population_ber(dies: &[DieMap], vdd: f64) -> f64 {
        assert!(!dies.is_empty(), "population is empty");
        let failures: usize = dies.iter().map(|d| d.failure_count(vdd)).sum();
        let bits: usize = dies.iter().map(DieMap::bits).sum();
        failures as f64 / bits as f64
    }

}

impl fmt::Display for DieMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}×{} die (offset {:+.1} mV, worst bit {:.3} V)",
            self.rows,
            self.cols,
            self.die_offset * 1000.0,
            self.min_retention_supply()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_stats::mc::Moments;

    fn small_cfg() -> DieMapConfig {
        DieMapConfig::new(64, 128, RetentionLaw::cell_based_40nm())
    }

    #[test]
    fn synthesis_is_deterministic() {
        let cfg = small_cfg();
        let a = DieMap::synthesize(&cfg, &mut Source::seeded(5));
        let b = DieMap::synthesize(&cfg, &mut Source::seeded(5));
        assert_eq!(a, b);
    }

    #[test]
    fn block_filled_synthesis_replays_the_scalar_draw_sequence() {
        // The row-wise block fill must consume exactly the draws the old
        // per-bit loop did: one die-offset normal, three pattern
        // coefficients, then rows×cols mismatch normals in row-major
        // order. Replaying that scalar sequence reproduces every bit.
        let cfg = small_cfg();
        let die = DieMap::synthesize(&cfg, &mut Source::seeded(29));

        let (s_sys, s_die, s_rand) = cfg.sigma_split();
        let mut src = Source::seeded(29);
        let die_offset = src.normal(0.0, s_die);
        let gx = src.standard_normal();
        let gy = src.standard_normal();
        let gb = src.standard_normal();
        let pattern = |xn: f64, yn: f64| {
            let bowl = (xn - 0.5) * (xn - 0.5) + (yn - 0.5) * (yn - 0.5) - 1.0 / 6.0;
            gx * (xn - 0.5) + gy * (yn - 0.5) + gb * bowl
        };
        let mut sum_sq = 0.0;
        let probe = 16usize;
        for i in 0..probe {
            for j in 0..probe {
                let v = pattern((i as f64 + 0.5) / probe as f64, (j as f64 + 0.5) / probe as f64);
                sum_sq += v * v;
            }
        }
        let rms = (sum_sq / (probe * probe) as f64).sqrt();
        let scale = if rms > 0.0 { s_sys / rms } else { 0.0 };

        for r in 0..cfg.rows() {
            let yn = (r as f64 + 0.5) / cfg.rows() as f64;
            for c in 0..cfg.cols() {
                let xn = (c as f64 + 0.5) / cfg.cols() as f64;
                let want = cfg.law().mean()
                    + die_offset
                    + scale * pattern(xn, yn)
                    + src.normal(0.0, s_rand);
                assert_eq!(
                    die.v_ret(r, c).to_bits(),
                    want.to_bits(),
                    "bit ({r}, {c}) diverged from the scalar replay"
                );
            }
        }
    }

    #[test]
    fn population_follows_the_law() {
        // Over many dies, the pooled retention-voltage distribution must
        // reproduce the generating law's mean and sigma.
        let cfg = small_cfg();
        let dies = DieMap::synthesize_population(&cfg, 40, 99);
        let mut m = Moments::new();
        for d in &dies {
            for r in 0..d.rows() {
                for c in 0..d.cols() {
                    m.push(d.v_ret(r, c));
                }
            }
        }
        let law = cfg.law();
        assert!((m.mean() - law.mean()).abs() < 0.003, "mean {}", m.mean());
        assert!(
            (m.std_dev() / law.sigma() - 1.0).abs() < 0.05,
            "sigma {} vs {}",
            m.std_dev(),
            law.sigma()
        );
    }

    #[test]
    fn parallel_population_matches_serial_bit_for_bit() {
        let cfg = small_cfg();
        let par = DieMap::synthesize_population(&cfg, 9, 4);
        let ser = DieMap::synthesize_population_serial(&cfg, 9, 4);
        assert_eq!(par, ser, "parallel synthesis must be bit-identical");
    }

    #[test]
    fn population_ber_tracks_law() {
        let cfg = small_cfg();
        let dies = DieMap::synthesize_population(&cfg, 30, 7);
        let law = cfg.law();
        // Compare at a voltage where BER is large enough to measure.
        for vdd in [0.22, 0.25, 0.28] {
            let expected = law.p_bit(vdd);
            let got = DieMap::population_ber(&dies, vdd);
            assert!(
                (got / expected - 1.0).abs() < 0.25,
                "vdd {vdd}: got {got}, law {expected}"
            );
        }
    }

    #[test]
    fn failure_count_monotone_in_vdd() {
        let die = DieMap::synthesize(&small_cfg(), &mut Source::seeded(3));
        let mut prev = usize::MAX;
        for i in 0..10 {
            let v = 0.15 + i as f64 * 0.02;
            let n = die.failure_count(v);
            assert!(n <= prev);
            prev = n;
        }
    }

    #[test]
    fn failing_bits_match_count_and_positions() {
        let die = DieMap::synthesize(&small_cfg(), &mut Source::seeded(11));
        let vdd = 0.27;
        let bits = die.failing_bits(vdd);
        assert_eq!(bits.len(), die.failure_count(vdd));
        for &(r, c) in &bits {
            assert!(die.v_ret(r, c) > vdd);
        }
    }

    #[test]
    fn min_retention_supply_retains_everything() {
        let die = DieMap::synthesize(&small_cfg(), &mut Source::seeded(17));
        let v = die.min_retention_supply();
        assert_eq!(die.failure_count(v), 0);
        assert!(die.failure_count(v - 0.001) >= 1);
    }

    #[test]
    fn ascii_rendering_shape_and_content() {
        let die = DieMap::synthesize(&small_cfg(), &mut Source::seeded(23));
        let art = die.render_ascii(0.25, 32);
        let lines: Vec<&str> = art.lines().collect();
        assert!(lines.len() <= 32);
        assert!(lines.iter().all(|l| l.chars().count() <= 32));
        // At a voltage in the failing range both symbols should appear.
        assert!(art.contains('#'));
        assert!(art.contains('·'));
        // At a generous supply, nothing fails.
        let clean = die.render_ascii(0.6, 32);
        assert!(!clean.contains('#'));
    }

    #[test]
    fn systematic_pattern_produces_spatial_clustering() {
        // With an all-systematic budget, failures should cluster: the
        // variance of per-quadrant failure counts far exceeds Poisson.
        let cfg = DieMapConfig::new(64, 64, RetentionLaw::cell_based_40nm())
            .with_systematic_fraction(0.85)
            .with_die_to_die_fraction(0.05);
        let dies = DieMap::synthesize_population(&cfg, 12, 31);
        let mut ratio_sum = 0.0;
        let mut samples = 0;
        for die in &dies {
            let vdd = die.min_retention_supply() - 0.02;
            let fails = die.failing_bits(vdd);
            if fails.len() < 20 {
                continue;
            }
            // Quadrant counts.
            let mut q = [0f64; 4];
            for &(r, c) in &fails {
                let idx = (r >= 32) as usize * 2 + (c >= 32) as usize;
                q[idx] += 1.0;
            }
            let mean = fails.len() as f64 / 4.0;
            let var = q.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / 4.0;
            ratio_sum += var / mean; // Poisson would give ~1
            samples += 1;
        }
        assert!(samples > 0, "no die produced enough failures");
        assert!(
            ratio_sum / samples as f64 > 2.0,
            "clustering index {} should exceed Poisson",
            ratio_sum / samples as f64
        );
    }

    #[test]
    #[should_panic(expected = "nonzero bit array")]
    fn config_rejects_empty() {
        DieMapConfig::new(0, 8, RetentionLaw::cell_based_40nm());
    }

    #[test]
    #[should_panic(expected = "below 1")]
    fn config_rejects_overfull_variance_budget() {
        let _ = DieMapConfig::new(8, 8, RetentionLaw::cell_based_40nm())
            .with_systematic_fraction(0.9)
            .with_die_to_die_fraction(0.9);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn v_ret_bounds_checked() {
        let die = DieMap::synthesize(&small_cfg(), &mut Source::seeded(0));
        die.v_ret(64, 0);
    }

    #[test]
    fn display_nonempty() {
        let die = DieMap::synthesize(&small_cfg(), &mut Source::seeded(0));
        assert!(!die.to_string().is_empty());
    }
}
