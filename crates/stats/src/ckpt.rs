//! Per-shard checkpointing for the deterministic Monte-Carlo collectives.
//!
//! The engine's determinism contract — fixed
//! [`MC_SHARDS`](crate::exec::MC_SHARDS) layout, counter-based
//! `Source::stream(seed, shard)` streams, ordered
//! [`Mergeable`] reduction — makes every shard's accumulator a **pure
//! function of `(collective identity, shard index)`**. That purity is what
//! this module cashes in: a shard computed yesterday, or by another
//! process, is bit-for-bit the shard this process would compute, so it can
//! be serialized once and restored forever.
//!
//! Three pieces:
//!
//! 1. [`Persist`] — a stable byte form for the [`Mergeable`] accumulators.
//!    Integers are little-endian; floats are stored as `f64::to_bits`
//!    little-endian, so restore is **bit-exact** and a merge over restored
//!    shards equals a merge over computed shards exactly.
//! 2. [`ShardCheckpoint`] — the per-shard envelope: shard id, seed, trial
//!    range, accumulator type tag, payload bytes, and an FNV-64 integrity
//!    hash. Decoding verifies the hash; a corrupt or truncated file is a
//!    cache miss, never a wrong answer.
//! 3. [`CheckpointSink`] — where checkpoints go. Installing a sink (the
//!    on-disk store in `ntc::store`, or an in-memory map in tests) switches
//!    the keyed collectives ([`par_mergeable_keyed`], [`par_map_keyed`])
//!    from compute-only to restore-or-compute-and-save. With no sink
//!    installed the keyed paths are byte-identical to the plain ones —
//!    committed experiments see zero change.
//!
//! # Collective identity
//!
//! Checkpoints are **content-addressed**: the [`CollectiveKey`] is derived
//! from what the collective computes — a kernel tag, the seed, the trial
//! count, and a salt folded from the kernel parameters (`p.to_bits()` for a
//! rate sweep, a hash of `(mean, sigma, threshold)` bits for an exceedance
//! sweep). It is *never* an invocation counter: observability-gated extra
//! calls (fig5's diagnostic shard dump, say) would desynchronize a counter
//! between traced and untraced runs, while a content key is the same no
//! matter how many times or in what order collectives run.
//!
//! # Partial ownership (multi-worker sweeps)
//!
//! A sink may decline to *compute* shards outside its claimed range
//! ([`CheckpointSink::owns_shard`]). Skipped shards contribute the
//! accumulator identity to the fold and bump the process-wide
//! [`missing_shards`] count; a caller that observes `take_missing() > 0`
//! after a run knows the result is partial and must not publish it. Once
//! every worker has checkpointed its range, any process can replay the
//! collective with full ownership and fold restored shards into the exact
//! single-process artifact.
//!
//! # Example
//!
//! ```
//! use ntc_stats::ckpt::{self, CollectiveKey, MemorySink};
//! use ntc_stats::exec::mc_rate;
//! use std::sync::Arc;
//!
//! let direct = mc_rate(10_000, 7, 0.01);
//!
//! let sink = Arc::new(MemorySink::new());
//! ckpt::install(sink.clone());
//! let first = mc_rate(10_000, 7, 0.01);   // computes + checkpoints
//! let second = mc_rate(10_000, 7, 0.01);  // restores every shard
//! ckpt::uninstall();
//!
//! assert_eq!(first, direct);
//! assert_eq!(second, direct);
//! assert!(sink.len() > 0);
//! ```

use crate::exec::{par_map, shard_bounds, Mergeable};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

// ---------------------------------------------------------------------
// Stable serialization.
// ---------------------------------------------------------------------

/// A stable, versioned byte form for a [`Mergeable`] accumulator.
///
/// The encoding must be **bit-exact**: `restore(persist(x))` reproduces
/// `x` down to the last mantissa bit, so merging restored shards is
/// indistinguishable from merging freshly computed ones. Floats are
/// stored via `to_bits` (little-endian), never formatted.
pub trait Persist: Sized {
    /// Short stable type tag embedded in every checkpoint (e.g.
    /// `"trials"`); a tag mismatch on decode is treated as corruption.
    fn persist_tag() -> &'static str;
    /// Appends the stable byte form to `out`.
    fn persist(&self, out: &mut Vec<u8>);
    /// Rebuilds the accumulator from bytes produced by [`Persist::persist`].
    /// `None` on any length or validity mismatch.
    fn restore(bytes: &[u8]) -> Option<Self>;
    /// Convenience: the byte form as a fresh vector.
    fn persist_bytes(&self) -> Vec<u8> {
        let mut v = Vec::new();
        self.persist(&mut v);
        v
    }
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its little-endian bit pattern (bit-exact).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Reads a little-endian `u64` at byte offset `at`.
pub fn get_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let b: [u8; 8] = bytes.get(at..at + 8)?.try_into().ok()?;
    Some(u64::from_le_bytes(b))
}

/// Reads an `f64` bit pattern at byte offset `at`.
pub fn get_f64(bytes: &[u8], at: usize) -> Option<f64> {
    get_u64(bytes, at).map(f64::from_bits)
}

/// 64-bit FNV-1a over `bytes` — the workspace's zero-dependency integrity
/// hash. Not cryptographic; it detects truncation and bit rot, which is
/// the threat model for a local checkpoint directory.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Accumulates heterogeneous kernel parameters into a single `u64` salt
/// for a [`CollectiveKey`] (FNV-1a over the exact bit patterns).
#[derive(Debug, Clone, Copy)]
pub struct Salt(u64);

impl Salt {
    /// Starts a fresh salt accumulator.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Salt(0xcbf2_9ce4_8422_2325)
    }
    /// Folds a `u64` in.
    pub fn u64(self, v: u64) -> Self {
        let mut h = self.0;
        for &b in &v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Salt(h)
    }
    /// Folds an `f64`'s exact bit pattern in.
    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }
    /// The folded salt value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------
// The per-shard checkpoint envelope.
// ---------------------------------------------------------------------

/// Binary magic prefixing every encoded checkpoint (`"NTCKP1"`).
pub const CKPT_MAGIC: &[u8; 6] = b"NTCKP1";

/// One shard's checkpoint: identity (shard, seed, trial range, type tag)
/// plus the accumulator payload, wrapped with an integrity hash on encode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCheckpoint {
    /// Shard index within the collective's fixed layout.
    pub shard: u32,
    /// The collective's seed (`Source::stream(seed, shard)`).
    pub seed: u64,
    /// First trial owned by this shard (inclusive).
    pub lo: u64,
    /// One past the last trial owned by this shard.
    pub hi: u64,
    /// The accumulator's [`Persist::persist_tag`].
    pub tag: String,
    /// The accumulator's stable byte form.
    pub payload: Vec<u8>,
}

impl ShardCheckpoint {
    /// Encodes to the on-disk form:
    /// `magic · tag_len:u16 · tag · shard:u32 · seed · lo · hi ·
    /// payload_len:u32 · payload · fnv64(everything before)`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48 + self.tag.len() + self.payload.len());
        out.extend_from_slice(CKPT_MAGIC);
        let tag = self.tag.as_bytes();
        out.extend_from_slice(&(tag.len() as u16).to_le_bytes());
        out.extend_from_slice(tag);
        out.extend_from_slice(&self.shard.to_le_bytes());
        put_u64(&mut out, self.seed);
        put_u64(&mut out, self.lo);
        put_u64(&mut out, self.hi);
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let h = fnv64(&out);
        put_u64(&mut out, h);
        out
    }

    /// Decodes and verifies an encoded checkpoint. `None` on bad magic,
    /// truncation, trailing garbage, or an integrity-hash mismatch.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < CKPT_MAGIC.len() + 8 || &bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC {
            return None;
        }
        let body_len = bytes.len() - 8;
        let stored = get_u64(bytes, body_len)?;
        if fnv64(&bytes[..body_len]) != stored {
            return None;
        }
        let mut at = CKPT_MAGIC.len();
        let tag_len = u16::from_le_bytes(bytes.get(at..at + 2)?.try_into().ok()?) as usize;
        at += 2;
        let tag = std::str::from_utf8(bytes.get(at..at + tag_len)?).ok()?.to_string();
        at += tag_len;
        let shard = u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?);
        at += 4;
        let seed = get_u64(bytes, at)?;
        let lo = get_u64(bytes, at + 8)?;
        let hi = get_u64(bytes, at + 16)?;
        at += 24;
        let payload_len = u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?) as usize;
        at += 4;
        if at + payload_len != body_len {
            return None;
        }
        let payload = bytes[at..at + payload_len].to_vec();
        Some(ShardCheckpoint { shard, seed, lo, hi, tag, payload })
    }
}

// ---------------------------------------------------------------------
// Collective identity.
// ---------------------------------------------------------------------

/// Content-derived identity of one checkpointable collective.
///
/// Two collectives share checkpoints **iff** their keys are equal — same
/// kernel tag, seed, trial count, parameter salt, and scope. The scope is
/// ambient (see [`set_scope`]): the `repro` CLI sets it to the running
/// experiment's id so different experiments that happen to invoke the same
/// kernel with the same parameters still checkpoint into separate
/// directories, keeping `repro list --verbose` attribution honest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CollectiveKey {
    /// Namespace, normally the experiment id (ambient; see [`set_scope`]).
    pub scope: String,
    /// Stable kernel tag, e.g. `"mc_rate"`.
    pub tag: &'static str,
    /// The collective's seed.
    pub seed: u64,
    /// Total trials across all shards.
    pub trials: u64,
    /// FNV fold of the kernel parameters' exact bit patterns.
    pub salt: u64,
}

impl CollectiveKey {
    /// Builds a key with the current ambient scope and zero salt.
    pub fn new(tag: &'static str, seed: u64, trials: u64) -> Self {
        CollectiveKey { scope: scope(), tag, seed, trials, salt: 0 }
    }

    /// Sets the parameter salt.
    pub fn with_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }

    /// A filesystem-safe stem unique to this key within its scope:
    /// `"{tag}.s{seed}.n{trials}.x{salt:016x}"`.
    pub fn file_stem(&self) -> String {
        format!("{}.s{}.n{}.x{:016x}", self.tag, self.seed, self.trials, self.salt)
    }
}

// ---------------------------------------------------------------------
// The sink: where checkpoints live.
// ---------------------------------------------------------------------

/// Destination/source for shard checkpoints, installed process-wide.
///
/// `load`/`store` move **encoded** [`ShardCheckpoint`] bytes; integrity
/// verification happens in the collective, so a sink is free to be a dumb
/// byte store. `owns_shard` partitions work for multi-worker sweeps — a
/// sink that returns `false` for a shard tells the collective to *skip*
/// computing it (somebody else's claim) when no checkpoint exists yet.
pub trait CheckpointSink: Send + Sync {
    /// Returns the encoded checkpoint for `(key, shard)`, if present.
    fn load(&self, key: &CollectiveKey, shard: u32) -> Option<Vec<u8>>;
    /// Persists the encoded checkpoint for `(key, shard)`. Best-effort:
    /// a sink that fails to write must simply not serve the shard later.
    fn store(&self, key: &CollectiveKey, shard: u32, encoded: &[u8]);
    /// Whether this process should compute `shard` when no checkpoint
    /// exists. Defaults to owning everything (single-process mode).
    fn owns_shard(&self, shard: u32) -> bool {
        let _ = shard;
        true
    }
}

/// An in-memory sink for tests and examples: a mutex-guarded map from
/// `(scope, file stem, shard)` to encoded bytes, with an optional owned
/// shard range.
#[derive(Default)]
pub struct MemorySink {
    map: Mutex<std::collections::HashMap<(String, String, u32), Vec<u8>>>,
    /// When set, only shards in `[lo, hi)` are computed on a miss.
    owned: Option<(u32, u32)>,
}

impl MemorySink {
    /// An empty sink owning every shard.
    pub fn new() -> Self {
        Self::default()
    }
    /// An empty sink owning only `[lo, hi)`.
    pub fn with_range(lo: u32, hi: u32) -> Self {
        MemorySink { map: Mutex::new(Default::default()), owned: Some((lo, hi)) }
    }
    /// Number of checkpoints held.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }
    /// Whether the sink holds no checkpoints.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Drops every held checkpoint.
    pub fn clear(&self) {
        self.map.lock().unwrap().clear();
    }
    /// Copies all checkpoints out of `other` (simulates a shared store
    /// between two workers in tests).
    pub fn absorb(&self, other: &MemorySink) {
        let src = other.map.lock().unwrap();
        let mut dst = self.map.lock().unwrap();
        for (k, v) in src.iter() {
            dst.insert(k.clone(), v.clone());
        }
    }
}

impl CheckpointSink for MemorySink {
    fn load(&self, key: &CollectiveKey, shard: u32) -> Option<Vec<u8>> {
        self.map
            .lock()
            .unwrap()
            .get(&(key.scope.clone(), key.file_stem(), shard))
            .cloned()
    }
    fn store(&self, key: &CollectiveKey, shard: u32, encoded: &[u8]) {
        self.map
            .lock()
            .unwrap()
            .insert((key.scope.clone(), key.file_stem(), shard), encoded.to_vec());
    }
    fn owns_shard(&self, shard: u32) -> bool {
        self.owned.is_none_or(|(lo, hi)| (lo..hi).contains(&shard))
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn CheckpointSink>>> = RwLock::new(None);
static SCOPE: Mutex<Option<String>> = Mutex::new(None);
static MISSING: AtomicU64 = AtomicU64::new(0);

/// Installs `sink` process-wide; keyed collectives start checkpointing.
pub fn install(sink: Arc<dyn CheckpointSink>) {
    *SINK.write().unwrap() = Some(sink);
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Removes the installed sink; keyed collectives revert to pure compute.
pub fn uninstall() {
    ACTIVE.store(false, Ordering::SeqCst);
    *SINK.write().unwrap() = None;
}

/// Whether a checkpoint sink is installed (single relaxed-load fast path
/// on the hot collective entry).
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Sets the ambient checkpoint scope (normally the running experiment's
/// id). Pass `""` to reset to the default `"global"`.
pub fn set_scope(scope: &str) {
    let mut s = SCOPE.lock().unwrap();
    *s = if scope.is_empty() { None } else { Some(scope.to_string()) };
}

/// The current ambient scope (`"global"` when unset).
pub fn scope() -> String {
    SCOPE
        .lock()
        .unwrap()
        .clone()
        .unwrap_or_else(|| "global".to_string())
}

/// Shards skipped (not computed, not restored) since the last
/// [`take_missing`] — nonzero means some result folded identities for
/// unowned shards and is **partial**.
pub fn missing_shards() -> u64 {
    MISSING.load(Ordering::SeqCst)
}

/// Reads and resets the missing-shard count.
pub fn take_missing() -> u64 {
    MISSING.swap(0, Ordering::SeqCst)
}

fn current_sink() -> Option<Arc<dyn CheckpointSink>> {
    if !active() {
        return None;
    }
    SINK.read().unwrap().clone()
}

// ---------------------------------------------------------------------
// Keyed collectives.
// ---------------------------------------------------------------------

/// Restore-or-compute for every shard of a keyed collective.
///
/// Per shard, in parallel: try the sink (decode + verify + tag/identity
/// check → restore); on a miss, compute and checkpoint if the shard is
/// owned, else skip (contributing `None`). Counter families:
/// `ckpt.shards.restored/computed/skipped`, `ckpt.corrupt`.
fn shard_values<T, F>(key: &CollectiveKey, shards: usize, f: &F) -> Vec<Option<T>>
where
    T: Mergeable + Persist + Send,
    F: Fn(usize) -> T + Sync,
{
    let sink = match current_sink() {
        Some(s) => s,
        None => return par_map(shards, |i| Some(f(i))),
    };
    // Register this worker's slice of the sweep with the progress
    // tracker before folding: owned shards are the work this process
    // has committed to. Restored-but-unowned shards join the totals as
    // they are discovered (below), so `done <= total` always holds and
    // disjoint workers' snapshots merge to the single-process counts.
    if ntc_obs::enabled() {
        let (mut owned, mut owned_trials) = (0u64, 0u64);
        for i in 0..shards {
            if sink.owns_shard(i as u32) {
                let (lo, hi) = shard_bounds(key.trials, shards, i);
                owned += 1;
                owned_trials += hi - lo;
            }
        }
        ntc_obs::progress::add_work(owned, owned_trials);
    }
    let sink = &sink;
    par_map(shards, move |i| {
        let shard = i as u32;
        if let Some(bytes) = sink.load(key, shard) {
            let mut span = ntc_obs::span("ckpt.restore").with_shard(shard);
            span.add_items(1);
            let restored = ShardCheckpoint::decode(&bytes).and_then(|ck| {
                if ck.tag == T::persist_tag() && ck.shard == shard && ck.seed == key.seed {
                    T::restore(&ck.payload)
                } else {
                    None
                }
            });
            match restored {
                Some(v) => {
                    ntc_obs::counter_add("ckpt.shards.restored", 1);
                    if ntc_obs::enabled() {
                        let (lo, hi) = shard_bounds(key.trials, shards, i);
                        if !sink.owns_shard(shard) {
                            // Someone else's finished shard: count it as
                            // work *and* completion so the totals stay
                            // consistent within this process.
                            ntc_obs::progress::add_work(1, hi - lo);
                        }
                        ntc_obs::progress::shard_done(hi - lo, true);
                    }
                    return Some(v);
                }
                // Verified-but-wrong or failed-hash both read as
                // corruption: recompute below (if owned) and overwrite.
                None => ntc_obs::counter_add("ckpt.corrupt", 1),
            }
        }
        if sink.owns_shard(shard) {
            let v = f(i);
            let (lo, hi) = shard_bounds(key.trials, shards, i);
            let ck = ShardCheckpoint {
                shard,
                seed: key.seed,
                lo,
                hi,
                tag: T::persist_tag().to_string(),
                payload: v.persist_bytes(),
            };
            {
                let mut span = ntc_obs::span("ckpt.save").with_shard(shard);
                span.add_items(hi - lo);
                sink.store(key, shard, &ck.encode());
            }
            ntc_obs::counter_add("ckpt.shards.computed", 1);
            ntc_obs::progress::shard_done(hi - lo, false);
            Some(v)
        } else {
            ntc_obs::counter_add("ckpt.shards.skipped", 1);
            MISSING.fetch_add(1, Ordering::SeqCst);
            None
        }
    })
}

/// [`crate::exec::par_mergeable`] with checkpointing: restores completed
/// shards from the installed sink, computes-and-saves owned missing
/// shards, folds **in shard order**. With no sink installed this is
/// exactly `par_mergeable(shards, f)`. Unowned shards fold as the
/// accumulator identity (`T::default()`) and bump [`missing_shards`].
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn par_mergeable_keyed<T, F>(key: &CollectiveKey, shards: usize, f: F) -> T
where
    T: Mergeable + Persist + Default + Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(shards > 0, "need at least one shard");
    if !active() {
        if ntc_obs::enabled() {
            ntc_obs::progress::add_work(shards as u64, key.trials);
            return crate::exec::par_mergeable(shards, |i| {
                let v = f(i);
                let (lo, hi) = shard_bounds(key.trials, shards, i);
                ntc_obs::progress::shard_done(hi - lo, false);
                v
            });
        }
        return crate::exec::par_mergeable(shards, f);
    }
    let parts = shard_values(key, shards, &f);
    let mut acc: Option<T> = None;
    for p in parts.into_iter().flatten() {
        match &mut acc {
            Some(a) => a.merge_from(&p),
            None => acc = Some(p),
        }
    }
    acc.unwrap_or_default()
}

/// [`crate::exec::par_map`] over shards with checkpointing; unowned
/// missing shards come back as `T::default()` (and bump
/// [`missing_shards`]). With no sink installed this is exactly
/// `par_map(shards, f)`.
pub fn par_map_keyed<T, F>(key: &CollectiveKey, shards: usize, f: F) -> Vec<T>
where
    T: Mergeable + Persist + Default + Send,
    F: Fn(usize) -> T + Sync,
{
    if !active() {
        if ntc_obs::enabled() {
            ntc_obs::progress::add_work(shards as u64, key.trials);
            return par_map(shards, |i| {
                let v = f(i);
                let (lo, hi) = shard_bounds(key.trials, shards, i);
                ntc_obs::progress::shard_done(hi - lo, false);
                v
            });
        }
        return par_map(shards, f);
    }
    shard_values(key, shards, &f)
        .into_iter()
        .map(Option::unwrap_or_default)
        .collect()
}

/// Global-sink tests must not interleave with each other *or* with any
/// test that calls a keyed collective (`mc_rate` and friends consult the
/// process-global sink): the stats test binary runs tests in parallel, so
/// both kinds of test hold this lock via [`test_guard`].
#[cfg(test)]
pub(crate) static SINK_TEST_LOCK: Mutex<()> = Mutex::new(());

/// Takes the global-sink test lock (poison-tolerant).
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    SINK_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{mc_rate, MC_SHARDS};
    use crate::mc::TrialCounter;

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        test_guard()
    }

    #[test]
    fn checkpoint_envelope_round_trips() {
        let ck = ShardCheckpoint {
            shard: 17,
            seed: 2014,
            lo: 100,
            hi: 200,
            tag: "trials".to_string(),
            payload: vec![1, 2, 3, 4, 5],
        };
        let bytes = ck.encode();
        assert_eq!(ShardCheckpoint::decode(&bytes), Some(ck));
    }

    #[test]
    fn corrupt_bytes_fail_to_decode() {
        let ck = ShardCheckpoint {
            shard: 0,
            seed: 1,
            lo: 0,
            hi: 10,
            tag: "moments".to_string(),
            payload: vec![9; 40],
        };
        let good = ck.encode();
        assert!(ShardCheckpoint::decode(&good).is_some());
        // Flip one payload bit.
        let mut flipped = good.clone();
        let mid = good.len() / 2;
        flipped[mid] ^= 0x01;
        assert_eq!(ShardCheckpoint::decode(&flipped), None);
        // Truncate.
        assert_eq!(ShardCheckpoint::decode(&good[..good.len() - 1]), None);
        // Wrong magic.
        let mut magic = good.clone();
        magic[0] = b'X';
        assert_eq!(ShardCheckpoint::decode(&magic), None);
        // Trailing garbage.
        let mut long = good;
        long.push(0);
        assert_eq!(ShardCheckpoint::decode(&long), None);
    }

    #[test]
    fn keys_separate_by_every_component() {
        let base = CollectiveKey::new("mc_rate", 7, 1000).with_salt(42);
        let mut other = base.clone();
        other.seed = 8;
        assert_ne!(base.file_stem(), other.file_stem());
        let mut other = base.clone();
        other.trials = 1001;
        assert_ne!(base.file_stem(), other.file_stem());
        let mut other = base.clone();
        other.salt = 43;
        assert_ne!(base.file_stem(), other.file_stem());
        assert_ne!(
            CollectiveKey::new("mc_rate", 7, 1000).file_stem(),
            CollectiveKey::new("mc_gauss_exceed", 7, 1000).file_stem()
        );
    }

    #[test]
    fn salt_distinguishes_parameter_sets() {
        let a = Salt::new().f64(0.2).f64(0.03).f64(0.26).finish();
        let b = Salt::new().f64(0.2).f64(0.03).f64(0.27).finish();
        assert_ne!(a, b);
        // Order matters (FNV is position-sensitive), guarding against
        // accidental parameter transposition mapping to the same key.
        let c = Salt::new().f64(0.03).f64(0.2).f64(0.26).finish();
        assert_ne!(a, c);
    }

    #[test]
    fn scope_defaults_to_global_and_resets() {
        let _g = locked();
        set_scope("");
        assert_eq!(scope(), "global");
        set_scope("fig5");
        assert_eq!(scope(), "fig5");
        assert_eq!(CollectiveKey::new("mc_rate", 1, 10).scope, "fig5");
        set_scope("");
        assert_eq!(scope(), "global");
    }

    #[test]
    fn restored_run_is_bit_identical_to_direct_run() {
        let _g = locked();
        let direct = mc_rate(20_000, 11, 0.015);
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        let first = mc_rate(20_000, 11, 0.015);
        assert_eq!(sink.len(), MC_SHARDS);
        let second = mc_rate(20_000, 11, 0.015);
        uninstall();
        assert_eq!(first, direct);
        assert_eq!(second, direct);
    }

    #[test]
    fn corrupt_checkpoint_is_recomputed_not_trusted() {
        let _g = locked();
        struct Corruptor {
            inner: MemorySink,
        }
        impl CheckpointSink for Corruptor {
            fn load(&self, key: &CollectiveKey, shard: u32) -> Option<Vec<u8>> {
                self.inner.load(key, shard).map(|mut b| {
                    if shard == 3 {
                        let mid = b.len() / 2;
                        b[mid] ^= 0xff;
                    }
                    b
                })
            }
            fn store(&self, key: &CollectiveKey, shard: u32, encoded: &[u8]) {
                self.inner.store(key, shard, encoded);
            }
        }
        let direct = mc_rate(5_000, 3, 0.1);
        install(Arc::new(Corruptor { inner: MemorySink::new() }));
        let first = mc_rate(5_000, 3, 0.1);
        // Shard 3 comes back corrupt on replay and must be recomputed.
        let second = mc_rate(5_000, 3, 0.1);
        uninstall();
        assert_eq!(first, direct);
        assert_eq!(second, direct);
    }

    #[test]
    fn unowned_shards_are_skipped_and_counted() {
        let _g = locked();
        take_missing();
        let sink = Arc::new(MemorySink::with_range(0, 8));
        install(sink.clone());
        let partial = mc_rate(64_000, 5, 0.05);
        uninstall();
        assert_eq!(take_missing(), (MC_SHARDS - 8) as u64);
        assert_eq!(sink.len(), 8);
        // The partial fold covers exactly the owned shards' trials.
        let (lo0, _) = shard_bounds(64_000, MC_SHARDS, 0);
        let (_, hi7) = shard_bounds(64_000, MC_SHARDS, 7);
        assert_eq!(partial.trials(), hi7 - lo0);
    }

    #[test]
    fn two_disjoint_workers_merge_to_the_single_process_result() {
        let _g = locked();
        take_missing();
        let direct = mc_rate(30_000, 2, 0.02);

        // Worker A computes shards [0, 40), worker B [40, 64), each into
        // its own sink (their halves of a shared store).
        let a = Arc::new(MemorySink::with_range(0, 40));
        install(a.clone());
        let _ = mc_rate(30_000, 2, 0.02);
        uninstall();
        let b = Arc::new(MemorySink::with_range(40, 64));
        install(b.clone());
        let _ = mc_rate(30_000, 2, 0.02);
        uninstall();
        take_missing();

        // The merge step sees the union and restores everything.
        let merged_store = Arc::new(MemorySink::new());
        merged_store.absorb(&a);
        merged_store.absorb(&b);
        assert_eq!(merged_store.len(), MC_SHARDS);
        install(merged_store);
        let merged = mc_rate(30_000, 2, 0.02);
        uninstall();
        assert_eq!(take_missing(), 0);
        assert_eq!(merged, direct);
    }

    #[test]
    fn keyed_collective_handles_more_shards_than_trials() {
        let _g = locked();
        take_missing();
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        // 3 trials over 8 shards: shards 3..8 are empty but still
        // checkpointed (their identity accumulators), so replay restores
        // every shard including the empty ones.
        let key = CollectiveKey::new("test_tiny", 1, 3);
        let first: TrialCounter = par_mergeable_keyed(&key, 8, |i| {
            let (lo, hi) = shard_bounds(3, 8, i);
            let mut c = TrialCounter::new();
            c.record_batch(hi - lo, 0);
            c
        });
        assert_eq!(first.trials(), 3);
        assert_eq!(sink.len(), 8);
        let second: TrialCounter = par_mergeable_keyed(&key, 8, |_| {
            panic!("all shards must restore")
        });
        uninstall();
        assert_eq!(second, first);
        assert_eq!(take_missing(), 0);
    }

    #[test]
    fn resume_is_bit_identical_at_every_interruption_point() {
        // A kill can only land between shards (each shard's checkpoint is
        // published atomically), so "any interruption point" means every
        // prefix of the shard sequence. Exhaustively: phase 1 owns
        // shards [0, cut) and dies; phase 2 restores them and computes
        // the rest. The resumed result must equal the uninterrupted one
        // bit for bit at every cut, including 0 (nothing saved) and
        // MC_SHARDS (everything saved).
        let _g = locked();
        let (trials, seed, p) = (2_000u64, 13u64, 0.07);
        let direct = mc_rate(trials, seed, p);
        for cut in 0..=MC_SHARDS as u32 {
            take_missing();
            let phase1 = Arc::new(MemorySink::with_range(0, cut));
            install(phase1.clone());
            let _discarded_partial = mc_rate(trials, seed, p);
            uninstall();
            assert_eq!(phase1.len(), cut as usize, "phase 1 saved its prefix");
            assert_eq!(take_missing(), u64::from(MC_SHARDS as u32 - cut));

            let resume = Arc::new(MemorySink::new());
            resume.absorb(&phase1);
            install(resume.clone());
            let resumed = mc_rate(trials, seed, p);
            uninstall();
            assert_eq!(take_missing(), 0, "cut = {cut}");
            assert_eq!(resume.len(), MC_SHARDS, "resume filled the tail");
            assert_eq!(resumed, direct, "cut = {cut}");
        }
    }
}
