//! The paper's benchmark workload: a fixed-point radix-2 FFT.
//!
//! The mitigation study of Section V runs a 1K-point FFT on the simulated
//! platform. Here the workload exists twice, by design:
//!
//! * [`fft_fixed`] — a native Rust implementation whose arithmetic mirrors
//!   the generated assembly *bit for bit* (same Q15 packing, same wrapping
//!   i32 products, same per-stage `>> 1` scaling), used as the golden
//!   reference; and
//! * [`fft_program`] — an assembly program for the simulated core,
//!   performing the identical computation through the scratchpad, with an
//!   `ecall 1` phase marker after the bit-reversal pass and after each
//!   butterfly stage — the hooks the OCEAN runtime checkpoints on.
//!
//! Data layout in the scratchpad (byte addresses), for an `n`-point FFT:
//!
//! ```text
//! 0        .. 4n       packed complex samples (im:hi16, re:lo16, Q15)
//! 4n       .. 6n       packed twiddle factors W_n^k, k in 0 .. n/2
//! ```

use ntc_stats::rng::Source;

/// Packs a Q15 complex sample (re, im) into one 32-bit word.
pub fn pack(re: i16, im: i16) -> u32 {
    ((im as u16 as u32) << 16) | (re as u16 as u32)
}

/// Unpacks a 32-bit word into (re, im).
pub fn unpack(word: u32) -> (i16, i16) {
    (word as u16 as i16, (word >> 16) as u16 as i16)
}

/// The packed twiddle table `W_n^k = cos θ − j·sin θ`, `θ = 2πk/n`,
/// `k = 0 .. n/2`, in Q15.
///
/// # Panics
///
/// Panics unless `n` is a power of two ≥ 4.
pub fn twiddle_table(n: usize) -> Vec<u32> {
    assert!(n >= 4 && n.is_power_of_two(), "n must be a power of two ≥ 4");
    (0..n / 2)
        .map(|k| {
            let theta = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
            let wr = (theta.cos() * 32767.0).round() as i16;
            let wi = (-theta.sin() * 32767.0).round() as i16;
            pack(wr, wi)
        })
        .collect()
}

/// In-place fixed-point FFT over packed Q15 words — the bit-exact golden
/// model of the assembly kernel. Output is scaled by `1/n` (one `>> 1`
/// per stage).
///
/// # Panics
///
/// Panics unless `data.len()` is a power of two ≥ 4 and
/// `tw.len() == data.len() / 2`.
///
/// # Example
///
/// ```
/// use ntc_sim::fft::{fft_fixed, pack, twiddle_table, unpack};
///
/// // A DC signal transforms to a single bin at k = 0.
/// let n = 16;
/// let mut data: Vec<u32> = (0..n).map(|_| pack(8192, 0)).collect();
/// let tw = twiddle_table(n);
/// fft_fixed(&mut data, &tw);
/// let (re0, _) = unpack(data[0]);
/// // One LSB of truncation noise per stage.
/// assert!((re0 as i32 - 8192).abs() <= 8, "X[0] = sum/n = 8192");
/// assert!(data[1..].iter().all(|&w| {
///     let (r, i) = unpack(w);
///     r.abs() <= 4 && i.abs() <= 4
/// }));
/// ```
pub fn fft_fixed(data: &mut [u32], tw: &[u32]) {
    let n = data.len();
    assert!(n >= 4 && n.is_power_of_two(), "n must be a power of two ≥ 4");
    assert_eq!(tw.len(), n / 2, "twiddle table must have n/2 entries");
    let log2n = n.trailing_zeros();

    // Bit-reversal permutation (same loop the assembly runs).
    for i in 0..n {
        let mut t = i;
        let mut j = 0usize;
        for _ in 0..log2n {
            j = (j << 1) | (t & 1);
            t >>= 1;
        }
        if i < j {
            data.swap(i, j);
        }
    }

    // Butterfly stages, mirroring the assembly ops on wrapping i32.
    let mut m = 2usize;
    while m <= n {
        let half = m / 2;
        let tstep = n / m;
        let mut k = 0usize;
        while k < n {
            for j in 0..half {
                let i1 = k + j;
                let i2 = i1 + half;
                let v = data[i2];
                let w = tw[j * tstep];
                let vr = ((v << 16) as i32) >> 16;
                let vi = (v as i32) >> 16;
                let wr = ((w << 16) as i32) >> 16;
                let wi = (w as i32) >> 16;
                let tr = (vr.wrapping_mul(wr).wrapping_sub(vi.wrapping_mul(wi))) >> 15;
                let ti = (vr.wrapping_mul(wi).wrapping_add(vi.wrapping_mul(wr))) >> 15;
                let u = data[i1];
                let ur = ((u << 16) as i32) >> 16;
                let ui = (u as i32) >> 16;
                let nur = (ur.wrapping_add(tr)) >> 1;
                let nui = (ui.wrapping_add(ti)) >> 1;
                let nvr = (ur.wrapping_sub(tr)) >> 1;
                let nvi = (ui.wrapping_sub(ti)) >> 1;
                data[i1] = ((nui as u32) << 16) | (nur as u32 & 0xFFFF);
                data[i2] = ((nvi as u32) << 16) | (nvr as u32 & 0xFFFF);
            }
            k += m;
        }
        m <<= 1;
    }
}

/// Reference double-precision DFT (direct O(n²) sum), for accuracy checks
/// against the fixed-point kernel. Returns `(re, im)` pairs, unscaled.
#[cfg(test)]
pub(crate) fn dft_f64(input: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = (0.0, 0.0);
            for (j, &(re, im)) in input.iter().enumerate() {
                let theta = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                let (c, s) = (theta.cos(), theta.sin());
                acc.0 += re * c - im * s;
                acc.1 += re * s + im * c;
            }
            acc
        })
        .collect()
}

/// The assembly source of the n-point FFT kernel for the simulated core.
///
/// The program expects the scratchpad pre-loaded per the module-level
/// layout and issues `ecall 1` after the bit-reversal pass and after every
/// butterfly stage (`log2(n) + 1` markers in total) before halting.
///
/// # Panics
///
/// Panics unless `n` is a power of two in `8 ..= 1024` (the 8 KB
/// scratchpad bound of the paper's platform).
pub fn fft_program(n: usize) -> String {
    assert!(
        n.is_power_of_two() && (8..=1024).contains(&n),
        "n must be a power of two in 8..=1024, got {n}"
    );
    let log2n = n.trailing_zeros();
    let n_bytes = n * 4; // also the twiddle-table byte base
    format!(
        "; {n}-point fixed-point radix-2 FFT (generated)
        ; ---- bit-reversal permutation ----
            li   r1, 0              ; i
        bitrev_loop:
            mv   r2, r1             ; t = i
            li   r3, 0              ; j = 0
            li   r4, {log2n}
        rev_bits:
            slli r3, r3, 1
            andi r5, r2, 1
            or   r3, r3, r5
            srai r2, r2, 1
            addi r4, r4, -1
            bne  r4, r0, rev_bits
            bge  r1, r3, no_swap    ; swap once per pair (i < j)
            slli r5, r1, 2
            slli r6, r3, 2
            lw   r8, 0(r5)
            lw   r9, 0(r6)
            sw   r9, 0(r5)
            sw   r8, 0(r6)
        no_swap:
            addi r1, r1, 1
            li   r5, {n}
            blt  r1, r5, bitrev_loop
            ecall 1                 ; phase boundary: permutation done

        ; ---- butterfly stages ----
            li   r7, {n_bytes}      ; n in bytes == twiddle base
            li   r1, 8              ; m_bytes (m = 2)
            li   r2, 4              ; half_bytes
            li   r3, {tstep0}       ; twiddle step in bytes (n/2 entries)
        stage_loop:
            li   r4, 0              ; k_bytes
        k_loop:
            mv   r6, r4             ; addr1
            add  r8, r4, r2         ; addr2 = addr1 + half
            mv   r13, r7            ; twiddle pointer
            mv   r5, r8             ; inner bound: addr1 < k + half
        j_loop:
            ; butterfly(data[addr1], data[addr2], *tw) — register-only,
            ; r4/r9/r10/r11/r12/r14/r15 are free inside the loop body
            lw   r11, 0(r8)         ; v
            lw   r12, 0(r13)        ; w
            slli r14, r11, 16
            srai r14, r14, 16       ; vr
            srai r11, r11, 16       ; vi
            slli r15, r12, 16
            srai r15, r15, 16       ; wr
            srai r12, r12, 16       ; wi
            mul  r9,  r14, r15      ; vr*wr
            mul  r10, r11, r12      ; vi*wi
            sub  r9,  r9, r10
            srai r9,  r9, 15        ; tr
            mul  r10, r14, r12      ; vr*wi
            mul  r4,  r11, r15      ; vi*wr
            add  r10, r10, r4
            srai r10, r10, 15       ; ti
            lw   r12, 0(r6)         ; u
            slli r14, r12, 16
            srai r14, r14, 16       ; ur
            srai r12, r12, 16       ; ui
            add  r15, r14, r9       ; ur + tr
            srai r15, r15, 1
            sub  r14, r14, r9       ; ur - tr
            srai r14, r14, 1
            add  r11, r12, r10      ; ui + ti
            srai r11, r11, 1
            sub  r12, r12, r10      ; ui - ti
            srai r12, r12, 1
            slli r4, r11, 16
            andi r15, r15, -1
            or   r4, r4, r15
            sw   r4, 0(r6)          ; u'
            slli r11, r12, 16
            andi r14, r14, -1
            or   r11, r11, r14
            sw   r11, 0(r8)         ; v'
            ; advance
            addi r6, r6, 4
            addi r8, r8, 4
            add  r13, r13, r3
            blt  r6, r5, j_loop
            sub  r4, r6, r2         ; k = addr1_end - half
            add  r4, r4, r1         ; k += m
            blt  r4, r7, k_loop
            ecall 1                 ; phase boundary: stage done
            slli r1, r1, 1          ; m *= 2
            slli r2, r2, 1          ; half *= 2
            srai r3, r3, 1          ; tstep /= 2
            blt  r2, r7, stage_loop
            halt
        ",
        tstep0 = n * 2, // (n/2)·4 bytes
    )
}

/// Generates a deterministic pseudo-random Q15 input signal (bounded to
/// half scale so the first stage cannot clip).
pub fn random_input(n: usize, seed: u64) -> Vec<u32> {
    let mut src = Source::seeded(seed);
    (0..n)
        .map(|_| {
            let re = src.uniform_in(-16000.0, 16000.0) as i16;
            let im = src.uniform_in(-16000.0, 16000.0) as i16;
            pack(re, im)
        })
        .collect()
}

/// Scratchpad words needed for an n-point job (data + twiddles).
pub fn scratchpad_words(n: usize) -> usize {
    n + n / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::machine::Core;
    use crate::memory::RawMemory;

    #[test]
    fn pack_unpack_round_trip() {
        for (re, im) in [(0i16, 0i16), (1, -1), (-32768, 32767), (12345, -12345)] {
            assert_eq!(unpack(pack(re, im)), (re, im));
        }
    }

    #[test]
    fn twiddle_symmetries() {
        let tw = twiddle_table(64);
        assert_eq!(tw.len(), 32);
        let (wr0, wi0) = unpack(tw[0]);
        assert_eq!((wr0, wi0), (32767, 0), "W^0 = 1");
        let (wr_q, wi_q) = unpack(tw[16]);
        assert_eq!((wr_q, wi_q), (0, -32767), "W^(n/4) = -j");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn twiddle_rejects_non_power() {
        twiddle_table(12);
    }

    #[test]
    fn impulse_transforms_flat() {
        // x = δ[0]·A → X[k] = A/n for all k.
        let n = 64;
        let mut data = vec![pack(0, 0); n];
        data[0] = pack(25600, 0);
        let tw = twiddle_table(n);
        fft_fixed(&mut data, &tw);
        let want = 25600 / n as i32;
        for (k, &w) in data.iter().enumerate() {
            let (re, im) = unpack(w);
            assert!(
                (re as i32 - want).abs() <= 4 && (im as i32).abs() <= 4,
                "bin {k}: ({re}, {im})"
            );
        }
    }

    #[test]
    fn single_tone_concentrates_in_one_bin() {
        let n = 128usize;
        let bin = 5;
        let amp = 12000.0;
        let mut data: Vec<u32> = (0..n)
            .map(|j| {
                let theta = 2.0 * std::f64::consts::PI * (bin * j) as f64 / n as f64;
                pack((amp * theta.cos()) as i16, (amp * theta.sin()) as i16)
            })
            .collect();
        let tw = twiddle_table(n);
        fft_fixed(&mut data, &tw);
        let mags: Vec<f64> = data
            .iter()
            .map(|&w| {
                let (re, im) = unpack(w);
                ((re as f64).powi(2) + (im as f64).powi(2)).sqrt()
            })
            .collect();
        let peak = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
            .map(|(i, _)| i)
            .expect("nonempty");
        assert_eq!(peak, bin, "energy must land in the excited bin");
        assert!(mags[bin] > 10.0 * mags[(bin + 7) % n], "spectral leakage bounded");
    }

    #[test]
    fn fixed_point_matches_f64_dft() {
        let n = 256;
        let data0 = random_input(n, 42);
        let mut data = data0.clone();
        let tw = twiddle_table(n);
        fft_fixed(&mut data, &tw);
        let float_in: Vec<(f64, f64)> = data0
            .iter()
            .map(|&w| {
                let (re, im) = unpack(w);
                (re as f64, im as f64)
            })
            .collect();
        let want = dft_f64(&float_in);
        // Fixed-point output is scaled by 1/n.
        let mut worst = 0.0f64;
        for (&got_w, &(wr, wi)) in data.iter().zip(&want) {
            let (gr, gi) = unpack(got_w);
            let er = (gr as f64 - wr / n as f64).abs();
            let ei = (gi as f64 - wi / n as f64).abs();
            worst = worst.max(er).max(ei);
        }
        assert!(worst < 24.0, "worst bin error {worst} LSB (rounding noise only)");
    }

    #[test]
    fn assembly_kernel_matches_golden_model_bit_exact() {
        for n in [8usize, 64, 256] {
            let program = assemble(&fft_program(n)).expect("kernel assembles");
            let mut mem = RawMemory::new(scratchpad_words(n).next_power_of_two().max(16));
            let input = random_input(n, 7 + n as u64);
            let tw = twiddle_table(n);
            for (i, &w) in input.iter().enumerate() {
                mem.store(i, w);
            }
            for (i, &w) in tw.iter().enumerate() {
                mem.store(n + i, w);
            }
            let mut core = Core::new();
            let outcome = core.run(&program, &mut mem, 50_000_000).expect("fft runs");
            assert!(outcome.halted);

            let mut golden = input.clone();
            fft_fixed(&mut golden, &tw);
            for (i, &want) in golden.iter().enumerate() {
                assert_eq!(
                    mem.load(i),
                    want,
                    "n={n}: word {i} differs from the golden model"
                );
            }
        }
    }

    #[test]
    fn assembly_kernel_emits_phase_markers() {
        let n = 64usize;
        let program = assemble(&fft_program(n)).unwrap();
        let mut mem = RawMemory::new(scratchpad_words(n).next_power_of_two());
        for (i, &w) in random_input(n, 1).iter().enumerate() {
            mem.store(i, w);
        }
        for (i, &w) in twiddle_table(n).iter().enumerate() {
            mem.store(n + i, w);
        }
        let mut core = Core::new();
        let mut markers = 0;
        for _ in 0..10_000_000 {
            let ev = core.step(&program, &mut mem).unwrap();
            if ev.ecall == Some(1) {
                markers += 1;
            }
            if ev.halted {
                break;
            }
        }
        // Bit-reversal + log2(n) stages.
        assert_eq!(markers, 1 + n.trailing_zeros());
    }

    #[test]
    #[should_panic(expected = "8..=1024")]
    fn program_rejects_oversized_n() {
        fft_program(2048);
    }

    #[test]
    fn scratchpad_budget_fits_paper_platform() {
        // 1K-point job must fit the 8 KB (2048-word) scratchpad.
        assert!(scratchpad_words(1024) <= 2048);
    }
}
