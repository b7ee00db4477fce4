//! Energy overhead models for the protection hardware.
//!
//! The paper accounts ECC cost the way Wang et al. (JETTA 2010) do: extra
//! bits read/written per access (39 instead of 32), plus the energy of
//! generating the code word on writes and checking/correcting on reads.
//! [`EccEnergyModel`] derives those from the *actual gate counts* of a
//! [`Secded`] (or interleaved) instance — the XOR trees are enumerable from
//! the generated parity-check matrix — times a per-gate switching energy
//! taken from the technology, scaled quadratically with supply voltage.

use crate::bch::BchQuad;
use crate::interleave::InterleavedCode;
use crate::secded::Secded;
use std::fmt;

/// Per-access energy overheads of a protection scheme at a given supply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessOverhead {
    /// Multiplier on the memory array's per-access energy from storing
    /// codeword bits instead of data bits (e.g. 39/32).
    pub bit_factor: f64,
    /// Logic energy added to each write (encoder), in joules.
    pub write_logic_j: f64,
    /// Logic energy added to each read (syndrome + correction), in joules.
    pub read_logic_j: f64,
}

/// Gate-count-based ECC energy model.
///
/// # Example
///
/// ```
/// use ntc_ecc::{EccEnergyModel, Secded};
///
/// # fn main() -> Result<(), ntc_ecc::secded::CodeError> {
/// let code = Secded::new(32)?;
/// // 0.5 fJ per XOR at the 1.1 V reference supply.
/// let model = EccEnergyModel::new(0.5e-15, 1.1);
/// let at_nominal = model.secded_overhead(&code, 1.1);
/// let at_ntv = model.secded_overhead(&code, 0.44);
/// // Quadratic voltage scaling: (0.44/1.1)² = 0.16.
/// assert!((at_ntv.write_logic_j / at_nominal.write_logic_j - 0.16).abs() < 1e-12);
/// // The dominant cost is the 39/32 extra array bits.
/// assert!((at_nominal.bit_factor - 39.0 / 32.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EccEnergyModel {
    xor_energy_j: f64,
    vref: f64,
}

impl EccEnergyModel {
    /// Creates a model from the switching energy of one two-input XOR gate
    /// at the reference supply `vref` (volts).
    ///
    /// # Panics
    ///
    /// Panics if either argument is not finite and positive.
    pub fn new(xor_energy_j: f64, vref: f64) -> Self {
        assert!(
            xor_energy_j.is_finite() && xor_energy_j > 0.0,
            "XOR energy must be positive, got {xor_energy_j}"
        );
        assert!(
            vref.is_finite() && vref > 0.0,
            "reference voltage must be positive, got {vref}"
        );
        Self { xor_energy_j, vref }
    }

    /// A 40 nm LP default: ~0.5 fJ per XOR at 1.1 V.
    pub fn n40lp_default() -> Self {
        Self::new(0.5e-15, 1.1)
    }

    /// Energy of one XOR at supply `vdd` (quadratic scaling).
    pub(crate) fn xor_energy(&self, vdd: f64) -> f64 {
        let r = vdd / self.vref;
        self.xor_energy_j * r * r
    }

    /// Per-access overheads of a plain SECDED word at supply `vdd`.
    ///
    /// The read path runs the syndrome tree plus, on average, the correction
    /// network; the correction side (decoder priority logic + flip) is
    /// charged as an extra 50 % of the syndrome tree, following the
    /// decoder-vs-encoder area ratios reported for Hsiao decoders.
    pub fn secded_overhead(&self, code: &Secded, vdd: f64) -> AccessOverhead {
        let e = self.xor_energy(vdd);
        let enc = code.encoder_xor_count() as f64 * e;
        let syn = code.syndrome_xor_count() as f64 * e;
        AccessOverhead {
            bit_factor: code.codeword_bits() as f64 / code.data_bits() as f64,
            write_logic_j: enc,
            read_logic_j: syn * 1.5,
        }
    }

    /// Per-access overheads of an interleaved protected-buffer word at
    /// supply `vdd`: all lanes' encoders/decoders in parallel.
    pub fn interleaved_overhead(&self, code: &InterleavedCode, vdd: f64) -> AccessOverhead {
        let lane = self.secded_overhead(code.lane_code(), vdd);
        AccessOverhead {
            bit_factor: code.overhead(),
            write_logic_j: lane.write_logic_j * code.lanes() as f64,
            read_logic_j: lane.read_logic_j * code.lanes() as f64,
        }
    }

    /// Per-access overheads of the (57,32) quad-correcting BCH buffer at
    /// supply `vdd`: exact encoder gate count, decoder charged at the
    /// BM+Chien-to-syndrome ratio.
    pub fn bch_quad_overhead(&self, code: &BchQuad, vdd: f64) -> AccessOverhead {
        let e = self.xor_energy(vdd);
        let enc = code.encoder_xor_count() as f64 * e;
        AccessOverhead {
            bit_factor: code.codeword_bits() as f64 / code.data_bits() as f64,
            write_logic_j: enc,
            read_logic_j: enc * code.decoder_syndrome_ratio(),
        }
    }

    /// No-protection baseline: unit bit factor, zero logic energy.
    pub fn none_overhead(&self) -> AccessOverhead {
        AccessOverhead {
            bit_factor: 1.0,
            write_logic_j: 0.0,
            read_logic_j: 0.0,
        }
    }
}

impl fmt::Display for EccEnergyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ECC energy model ({:.2} fJ/XOR @ {:.2} V)",
            self.xor_energy_j * 1e15,
            self.vref
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voltage_scaling_is_quadratic() {
        let m = EccEnergyModel::n40lp_default();
        assert!((m.xor_energy(0.55) / m.xor_energy(1.1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn secded_overheads() {
        let m = EccEnergyModel::n40lp_default();
        let c = Secded::new(32).unwrap();
        let o = m.secded_overhead(&c, 1.1);
        assert!((o.bit_factor - 1.21875).abs() < 1e-9);
        // 89 encoder XORs at 0.5 fJ = 44.5 fJ.
        assert!((o.write_logic_j - 44.5e-15).abs() < 1e-18);
        assert!(o.read_logic_j > o.write_logic_j, "read path includes correction");
    }

    #[test]
    fn interleaved_costs_more_bits_than_plain() {
        let m = EccEnergyModel::n40lp_default();
        let plain = m.secded_overhead(&Secded::new(32).unwrap(), 0.9);
        let inter = m.interleaved_overhead(&InterleavedCode::new(32, 4).unwrap(), 0.9);
        assert!(inter.bit_factor > plain.bit_factor);
    }

    #[test]
    fn bch_quad_costs_more_logic_than_interleaved() {
        let m = EccEnergyModel::n40lp_default();
        let quad = m.bch_quad_overhead(&BchQuad::new(), 0.9);
        let inter = m.interleaved_overhead(&InterleavedCode::new(32, 4).unwrap(), 0.9);
        // More stored bits, heavier decoder — the price of any-4 correction.
        assert!(quad.bit_factor > 1.7 && quad.bit_factor < 1.8);
        assert!(quad.read_logic_j > inter.read_logic_j);
    }

    #[test]
    fn none_overhead_is_free() {
        let m = EccEnergyModel::n40lp_default();
        let o = m.none_overhead();
        assert_eq!(o.bit_factor, 1.0);
        assert_eq!(o.write_logic_j, 0.0);
        assert_eq!(o.read_logic_j, 0.0);
    }

    #[test]
    #[should_panic(expected = "XOR energy")]
    fn rejects_zero_energy() {
        EccEnergyModel::new(0.0, 1.1);
    }

    #[test]
    fn display_nonempty() {
        assert!(!EccEnergyModel::n40lp_default().to_string().is_empty());
    }
}
