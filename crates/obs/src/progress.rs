//! Process-wide sweep progress: shards and trials done vs. total, an
//! EMA throughput estimate, and the ETA derived from both.
//!
//! The tracker is a handful of `AtomicU64` cells — no locks, no
//! allocation on the update path — fed by the Monte-Carlo collectives
//! in `ntc_stats` (`exec`/`ckpt`): every keyed collective registers the
//! work it is about to fold ([`add_work`]) and reports each shard as it
//! completes ([`shard_done`]), whether the shard was *computed* or
//! *restored* from a checkpoint. Like every other instrument in this
//! crate, the helpers early-out on one relaxed load until
//! [`enable`](crate::enable) (see [`crate::enabled`]) — a disabled run
//! pays nothing and artifact bytes never read anything from here.
//!
//! # Determinism contract
//!
//! The **counts** (`shards_done`/`shards_total`, `trials_done`/
//! `trials_total`, `restored`/`computed`) are shard-at-a-time facts:
//! every shard reports exactly once no matter how shards are scheduled,
//! so the counts are invariant across `NTC_THREADS` and across any
//! worker split of the fixed 64-shard layout — merging the snapshots of
//! workers owning disjoint ranges reproduces the single-process counts
//! exactly ([`ProgressSnapshot::merge`] adds them). The **rate** (and
//! therefore the ETA) is wall-clock telemetry, run-specific by nature,
//! and excluded from the determinism claim — exactly like span
//! durations.
//!
//! # Metric family
//!
//! [`publish_gauges`] mirrors the snapshot into the registry as the
//! `progress.*` gauges (`progress.shards_done`, `progress.shards_total`,
//! `progress.trials_done`, `progress.trials_total`,
//! `progress.samples_per_sec`, `progress.eta_secs`), so `/metrics` and
//! the Prometheus exposition carry live sweep progress with no extra
//! plumbing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static SHARDS_DONE: AtomicU64 = AtomicU64::new(0);
static SHARDS_TOTAL: AtomicU64 = AtomicU64::new(0);
static TRIALS_DONE: AtomicU64 = AtomicU64::new(0);
static TRIALS_TOTAL: AtomicU64 = AtomicU64::new(0);
static RESTORED: AtomicU64 = AtomicU64::new(0);
static COMPUTED: AtomicU64 = AtomicU64::new(0);
/// EMA of the aggregate samples/sec, stored as `f64::to_bits`.
static RATE_BITS: AtomicU64 = AtomicU64::new(0);
/// Nanoseconds (since [`epoch`]) of the last *computed* completion.
static LAST_NS: AtomicU64 = AtomicU64::new(0);

/// Smoothing factor of the throughput EMA: each computed shard pulls
/// the estimate 20% toward its instantaneous rate, so the ETA follows
/// sustained trends without whipsawing on one slow shard.
pub(crate) const EMA_ALPHA: f64 = 0.2;

/// Process-stable monotonic origin for the completion timestamps.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One consistent read of the tracker, and the unit the fleet-status
/// aggregator merges across workers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProgressSnapshot {
    /// Shards that finished (restored or computed).
    pub shards_done: u64,
    /// Shards registered as this process's work.
    pub shards_total: u64,
    /// Trials covered by finished shards.
    pub trials_done: u64,
    /// Trials registered as this process's work.
    pub trials_total: u64,
    /// Finished shards that were restored from checkpoints.
    pub restored: u64,
    /// Finished shards that were actually computed.
    pub computed: u64,
    /// EMA of aggregate compute throughput, samples/second.
    /// Run-specific (wall clock); excluded from the determinism claim.
    pub samples_per_sec: f64,
}

impl ProgressSnapshot {
    /// Deterministic merge: counts add (each shard reports exactly once
    /// in exactly one operand, so disjoint workers sum to the
    /// single-process counts); rates add too, because concurrent
    /// workers' throughputs are additive across a fleet.
    #[must_use]
    pub fn merge(&self, other: &ProgressSnapshot) -> ProgressSnapshot {
        ProgressSnapshot {
            shards_done: self.shards_done + other.shards_done,
            shards_total: self.shards_total + other.shards_total,
            trials_done: self.trials_done + other.trials_done,
            trials_total: self.trials_total + other.trials_total,
            restored: self.restored + other.restored,
            computed: self.computed + other.computed,
            samples_per_sec: self.samples_per_sec + other.samples_per_sec,
        }
    }

    /// Estimated seconds to finish the remaining registered trials at
    /// the current rate. `Some(0.0)` when registered work is complete;
    /// `None` when no throughput estimate exists yet or nothing was
    /// ever registered (a worker that died before its first shard).
    #[must_use]
    pub fn eta_secs(&self) -> Option<f64> {
        if self.trials_total == 0 {
            return None;
        }
        let remaining = self.trials_total.saturating_sub(self.trials_done);
        if remaining == 0 {
            return Some(0.0);
        }
        if self.samples_per_sec > 0.0 {
            #[allow(clippy::cast_precision_loss)]
            Some(remaining as f64 / self.samples_per_sec)
        } else {
            None
        }
    }

    /// The deterministic fields alone, for invariance assertions.
    #[must_use]
    pub fn deterministic(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.shards_done,
            self.shards_total,
            self.trials_done,
            self.trials_total,
            self.restored,
            self.computed,
        )
    }
}

/// Registers `shards` shards covering `trials` trials as upcoming work.
/// No-op while the layer is disabled.
#[inline]
pub fn add_work(shards: u64, trials: u64) {
    if !crate::enabled() {
        return;
    }
    SHARDS_TOTAL.fetch_add(shards, Ordering::Relaxed);
    TRIALS_TOTAL.fetch_add(trials, Ordering::Relaxed);
    publish_gauges();
}

/// Reports one finished shard covering `trials` trials. `restored`
/// shards advance the counts but not the throughput EMA — checkpoint
/// restores arrive at disk speed and would otherwise inflate the
/// compute-rate estimate the ETA divides by. No-op while disabled.
#[inline]
pub fn shard_done(trials: u64, restored: bool) {
    if !crate::enabled() {
        return;
    }
    SHARDS_DONE.fetch_add(1, Ordering::Relaxed);
    TRIALS_DONE.fetch_add(trials, Ordering::Relaxed);
    if restored {
        RESTORED.fetch_add(1, Ordering::Relaxed);
    } else {
        COMPUTED.fetch_add(1, Ordering::Relaxed);
        // Instantaneous aggregate rate: trials of this shard over the
        // wall-clock gap since the previous computed completion. The
        // gap is global (not per-thread), so with N threads completing
        // interleaved shards the estimate naturally reflects the
        // aggregate throughput, not one thread's.
        #[allow(clippy::cast_possible_truncation)]
        let now_ns = epoch().elapsed().as_nanos() as u64;
        let prev_ns = LAST_NS.swap(now_ns.max(1), Ordering::Relaxed);
        if prev_ns > 0 && now_ns > prev_ns {
            #[allow(clippy::cast_precision_loss)]
            let inst = trials as f64 / ((now_ns - prev_ns) as f64 * 1e-9);
            if inst.is_finite() {
                // Lock-free EMA: CAS the f64 bit pattern.
                let mut cur = RATE_BITS.load(Ordering::Relaxed);
                loop {
                    let old = f64::from_bits(cur);
                    let new = if old > 0.0 { old + EMA_ALPHA * (inst - old) } else { inst };
                    match RATE_BITS.compare_exchange_weak(
                        cur,
                        new.to_bits(),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(actual) => cur = actual,
                    }
                }
            }
        }
    }
    publish_gauges();
}

/// One consistent-enough read of the tracker. (Fields are read
/// individually; a snapshot taken mid-update can be one shard ahead on
/// one counter — harmless for telemetry, and exact once quiescent.)
#[must_use]
pub fn snapshot() -> ProgressSnapshot {
    ProgressSnapshot {
        shards_done: SHARDS_DONE.load(Ordering::Relaxed),
        shards_total: SHARDS_TOTAL.load(Ordering::Relaxed),
        trials_done: TRIALS_DONE.load(Ordering::Relaxed),
        trials_total: TRIALS_TOTAL.load(Ordering::Relaxed),
        restored: RESTORED.load(Ordering::Relaxed),
        computed: COMPUTED.load(Ordering::Relaxed),
        samples_per_sec: f64::from_bits(RATE_BITS.load(Ordering::Relaxed)),
    }
}

/// Zeroes the tracker (counts, rate, completion clock). The registry
/// gauges keep their last published values until the next update.
pub fn reset() {
    SHARDS_DONE.store(0, Ordering::Relaxed);
    SHARDS_TOTAL.store(0, Ordering::Relaxed);
    TRIALS_DONE.store(0, Ordering::Relaxed);
    TRIALS_TOTAL.store(0, Ordering::Relaxed);
    RESTORED.store(0, Ordering::Relaxed);
    COMPUTED.store(0, Ordering::Relaxed);
    RATE_BITS.store(0, Ordering::Relaxed);
    LAST_NS.store(0, Ordering::Relaxed);
}

/// Mirrors the current snapshot into the `progress.*` gauges.
/// `progress.eta_secs` publishes `-1` while no estimate exists, so the
/// gauge is always present and scrapers can tell "unknown" from "done".
pub fn publish_gauges() {
    if !crate::enabled() {
        return;
    }
    let s = snapshot();
    #[allow(clippy::cast_precision_loss)]
    {
        crate::gauge_set("progress.shards_done", s.shards_done as f64);
        crate::gauge_set("progress.shards_total", s.shards_total as f64);
        crate::gauge_set("progress.trials_done", s.trials_done as f64);
        crate::gauge_set("progress.trials_total", s.trials_total as f64);
    }
    crate::gauge_set("progress.samples_per_sec", s.samples_per_sec);
    crate::gauge_set("progress.eta_secs", s.eta_secs().unwrap_or(-1.0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The tracker is process-global; tests that reset and assert on it
    /// serialize here.
    static PROGRESS_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        PROGRESS_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counts_accumulate_and_reset() {
        let _g = locked();
        crate::enable();
        reset();
        add_work(4, 400);
        shard_done(100, false);
        shard_done(100, true);
        let s = snapshot();
        assert_eq!(s.shards_done, 2);
        assert_eq!(s.shards_total, 4);
        assert_eq!(s.trials_done, 200);
        assert_eq!(s.trials_total, 400);
        assert_eq!(s.restored, 1);
        assert_eq!(s.computed, 1);
        reset();
        assert_eq!(snapshot(), ProgressSnapshot::default());
    }

    #[test]
    fn merge_adds_counts_and_rates() {
        let a = ProgressSnapshot {
            shards_done: 8,
            shards_total: 32,
            trials_done: 800,
            trials_total: 3200,
            restored: 2,
            computed: 6,
            samples_per_sec: 1000.0,
        };
        let b = ProgressSnapshot {
            shards_done: 24,
            shards_total: 32,
            trials_done: 2400,
            trials_total: 3200,
            restored: 0,
            computed: 24,
            samples_per_sec: 500.0,
        };
        let m = a.merge(&b);
        assert_eq!(m.deterministic(), (32, 64, 3200, 6400, 2, 30));
        assert_eq!(m.samples_per_sec, 1500.0);
        // Commutative on the deterministic fields and the rate alike.
        assert_eq!(b.merge(&a), m);
    }

    #[test]
    fn eta_distinguishes_done_unknown_and_estimated() {
        let mut s = ProgressSnapshot::default();
        assert_eq!(s.eta_secs(), None, "nothing registered — unknown, not done");
        s.trials_done = 100;
        s.trials_total = 100;
        assert_eq!(s.eta_secs(), Some(0.0), "nothing remaining");
        s.trials_total = 200;
        assert_eq!(s.eta_secs(), None, "remaining work, no rate yet");
        s.samples_per_sec = 50.0;
        assert_eq!(s.eta_secs(), Some(2.0));
    }

    #[test]
    fn restored_shards_do_not_move_the_rate() {
        let _g = locked();
        crate::enable();
        reset();
        add_work(2, 200);
        shard_done(100, true);
        assert_eq!(snapshot().samples_per_sec, 0.0);
        // First computed completion only arms the clock.
        shard_done(100, false);
        let s = snapshot();
        assert_eq!(s.shards_done, 2);
        assert_eq!(s.restored, 1);
        reset();
    }

    #[test]
    fn rate_converges_on_computed_completions() {
        let _g = locked();
        crate::enable();
        reset();
        add_work(16, 16_000);
        for _ in 0..16 {
            // A real (tiny) wall-clock gap between completions so the
            // instantaneous rate is finite and positive.
            std::thread::sleep(std::time::Duration::from_micros(200));
            shard_done(1000, false);
        }
        let s = snapshot();
        assert!(s.samples_per_sec > 0.0, "EMA armed after repeated completions");
        assert_eq!(s.eta_secs(), Some(0.0), "all registered work finished");
        reset();
    }
}
