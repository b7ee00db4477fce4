//! Memoized energy-model queries for hot solver loops.
//!
//! The FIT solver's voltage bisection and the bench harness hammer the same
//! [`SocEnergyModel`] queries — `f_max`, energy per cycle — at voltages that
//! repeat across mitigation schemes and across iterations. Each query walks
//! the EKV timing shape and the component list, so repeating it thousands
//! of times is pure waste. [`CachedSoc`] wraps a model with a quantized-key
//! memo table.
//!
//! # Why quantized keys preserve figure fidelity
//!
//! Keys are the supply voltage rounded to a [`V_QUANTUM`] (0.05 mV) grid,
//! and the model is evaluated **at the dequantized key voltage**, not at
//! the raw query voltage. Two consequences:
//!
//! * Queries that differ by less than a quantum share one entry — equal
//!   keys return bit-equal values, so a cached parallel run cannot diverge
//!   from a cached serial run.
//! * The induced voltage perturbation is at most half a quantum (25 µV).
//!   Every figure and table in the reproduced paper quotes voltages on a
//!   110 mV grid (Table 2) or sweeps with ≥ 10 mV steps, more than five
//!   orders of magnitude above the quantum, so no reproduced number can
//!   move. The bisection solver that consumes `f_max` brackets to ~1e-15 V
//!   internally, but its *output* is snapped to the paper's grid too.
//!
//! Hit/miss counters are exposed for benches via [`CachedSoc::stats`],
//! and mirrored into the `ntc-obs` metrics `memcalc.cache.hit` /
//! `memcalc.cache.miss` when that layer is enabled.
//!
//! # Bounded table
//!
//! A long-lived server feeds client voltages straight into the memo, so
//! the table stops growing at `MEMO_CAP` entries: past it, a miss is
//! evaluated and counted but not inserted. The model is pure, so an
//! uncached answer is bit-identical to the one a cached entry would hold.

use crate::soc::SocEnergyModel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Voltage quantization step for cache keys: 0.05 mV.
pub const V_QUANTUM: f64 = 0.05e-3;

/// Most entries one [`CachedSoc`] memoizes. The paper grids need a few
/// hundred; a 45 s open-loop serve benchmark inserts about 21.6k per model.
pub(crate) const MEMO_CAP: usize = 1 << 16;

static HITS: ntc_obs::CounterHandle = ntc_obs::CounterHandle::new("memcalc.cache.hit");
static MISSES: ntc_obs::CounterHandle = ntc_obs::CounterHandle::new("memcalc.cache.miss");

/// Which model quantity a cache entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Quantity {
    FMax,
    EnergyPerCycle,
}

/// Cache counters: hits and misses since construction (or [`CachedSoc::reset_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo table.
    pub hits: u64,
    /// Lookups that had to evaluate the model.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from cache, or 0 when empty.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A [`SocEnergyModel`] with memoized `f_max`/energy queries.
///
/// Thread-safe: the memo table is behind a mutex (queries are far cheaper
/// than model evaluation, so contention is negligible at the call rates
/// here), and counters are atomics. A poisoned memo lock is recovered:
/// each update is one `HashMap` insert of a pure value, so the table is
/// valid whatever a panicking holder was doing. `Clone` clones the
/// underlying model with a fresh, empty cache.
///
/// # Example
///
/// ```
/// use ntc_memcalc::cache::CachedSoc;
/// use ntc_memcalc::SocEnergyModel;
///
/// let cached = CachedSoc::new(SocEnergyModel::exg_processor_40nm());
/// let a = cached.f_max(0.45);
/// let b = cached.f_max(0.45 + 1e-6); // same 0.05 mV key
/// assert_eq!(a.to_bits(), b.to_bits());
/// assert_eq!(cached.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct CachedSoc {
    model: SocEnergyModel,
    memo: Mutex<HashMap<(Quantity, i64), f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Clone for CachedSoc {
    fn clone(&self) -> Self {
        Self::new(self.model.clone())
    }
}

impl CachedSoc {
    /// Wraps a model with an empty cache.
    pub fn new(model: SocEnergyModel) -> Self {
        Self {
            model,
            memo: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &SocEnergyModel {
        &self.model
    }

    /// The quantized key for a voltage, and the voltage the model will
    /// actually be evaluated at for that key.
    fn quantize(vdd: f64) -> (i64, f64) {
        let key = (vdd / V_QUANTUM).round() as i64;
        (key, key as f64 * V_QUANTUM)
    }

    fn lookup(&self, q: Quantity, vdd: f64, eval: impl Fn(&SocEnergyModel, f64) -> f64) -> f64 {
        let (key, v_eval) = Self::quantize(vdd);
        if let Some(&v) = self.memo.lock().unwrap_or_else(PoisonError::into_inner).get(&(q, key)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            HITS.add(1);
            return v;
        }
        // Evaluate outside the lock: concurrent misses on the same key do
        // redundant work but insert identical values (pure model, same
        // dequantized voltage), so the table stays consistent.
        let v = eval(&self.model, v_eval);
        self.misses.fetch_add(1, Ordering::Relaxed);
        MISSES.add(1);
        let mut memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        if memo.len() < MEMO_CAP {
            memo.insert((q, key), v);
        }
        v
    }

    /// Memoized [`SocEnergyModel::f_max`] at the dequantized voltage.
    pub fn f_max(&self, vdd: f64) -> f64 {
        self.lookup(Quantity::FMax, vdd, |m, v| m.f_max(v))
    }

    /// Memoized energy per cycle at the dequantized voltage (the model's
    /// native operating point, i.e. running at `f_max`).
    pub fn energy_per_cycle(&self, vdd: f64) -> f64 {
        self.lookup(Quantity::EnergyPerCycle, vdd, |m, v| {
            m.operating_point(v).total_j()
        })
    }

    /// Counters since construction or the last [`CachedSoc::reset_stats`].
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the hit/miss counters (the memo table is kept).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Number of memoized entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether the memo table is empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cached() -> CachedSoc {
        CachedSoc::new(SocEnergyModel::exg_processor_40nm())
    }

    #[test]
    fn poisoned_memo_lock_still_answers() {
        let c = cached();
        let want = c.f_max(0.45);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = c.memo.lock();
                panic!("deliberate panic while holding the memo lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(c.memo.is_poisoned());
        assert_eq!(c.f_max(0.45).to_bits(), want.to_bits());
        assert!(c.energy_per_cycle(0.5) > 0.0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn same_key_returns_bit_equal_values() {
        let c = cached();
        let a = c.f_max(0.45);
        let b = c.f_max(0.45 + 0.4 * V_QUANTUM);
        assert_eq!(a.to_bits(), b.to_bits());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cached_value_is_close_to_direct_evaluation() {
        let c = cached();
        for i in 0..50 {
            let v = 0.3 + i as f64 * 0.013;
            let direct = c.model().f_max(v);
            let viac = c.f_max(v);
            // The dequantized voltage differs from v by at most half a
            // quantum, so the relative error is bounded by the model's
            // local slope times 25 µV — far below figure resolution.
            assert!(
                (viac / direct - 1.0).abs() < 1e-3,
                "v {v}: cached {viac} direct {direct}"
            );
        }
    }

    #[test]
    fn distinct_quantities_do_not_collide() {
        let c = cached();
        let f = c.f_max(0.5);
        let e = c.energy_per_cycle(0.5);
        assert_ne!(f.to_bits(), e.to_bits());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn clone_starts_cold() {
        let c = cached();
        c.f_max(0.5);
        let d = c.clone();
        assert!(d.is_empty());
        assert_eq!(d.stats(), CacheStats { hits: 0, misses: 0 });
    }

    #[test]
    fn memo_stops_growing_at_the_cap() {
        let c = cached();
        let k0 = 4_000; // 0.2 V
        let past = 8;
        for k in k0..k0 + MEMO_CAP as i64 + past {
            c.f_max(k as f64 * V_QUANTUM);
        }
        assert_eq!(c.len(), MEMO_CAP);
        // Keys past the cap stay uncached: asked again, each is one more
        // miss, answered by evaluating the model at the dequantized
        // voltage, bit-identical to the unmemoized model.
        let before = c.stats();
        for k in k0 + MEMO_CAP as i64..k0 + MEMO_CAP as i64 + past {
            let v = k as f64 * V_QUANTUM;
            assert_eq!(c.f_max(v).to_bits(), c.model().f_max(v).to_bits(), "key {k}");
        }
        assert_eq!(c.len(), MEMO_CAP);
        let after = c.stats();
        assert_eq!((after.hits, after.misses), (before.hits, before.misses + past as u64));
        // Keys inserted before the cap still hit.
        c.f_max(k0 as f64 * V_QUANTUM);
        assert_eq!(c.stats().hits, after.hits + 1);
    }

    #[test]
    fn reset_keeps_entries() {
        let c = cached();
        c.f_max(0.5);
        c.reset_stats();
        assert_eq!(c.stats().misses, 0);
        assert_eq!(c.len(), 1);
        c.f_max(0.5);
        assert_eq!(c.stats().hits, 1);
    }
}
