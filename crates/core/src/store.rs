//! Content-addressed on-disk store for artifacts and shard checkpoints.
//!
//! The determinism contract makes every artifact a pure function of
//! `(experiment id, scale, seed, code version)` and every Monte-Carlo
//! shard a pure function of its [`CollectiveKey`] — so both can be cached
//! on disk and served back byte-for-byte. This module is the disk half of
//! that bargain; `ntc_stats::ckpt` is the compute half.
//!
//! # Layout
//!
//! ```text
//! <root>/
//!   artifacts/    <id>.<scale>.s<seed>.v<version>.json   (header + JSON)
//!   checkpoints/  <scope>/<collective stem>/shard-<NNN>.ckpt
//!   locks/        claim-<LO>-<HI>.lock                   (worker claims)
//!   tmp/          in-flight writes (renamed into place on completion)
//! ```
//!
//! * **Artifacts** are the exact bytes `Artifact::to_json` produced,
//!   prefixed by a one-line header carrying a length and an FNV-64 hash.
//!   A read that fails the hash (bit rot, torn write from a crashed
//!   publisher that somehow bypassed the tmp protocol) is a **miss**,
//!   never a wrong answer, and bumps `store.corrupt`.
//! * **Checkpoints** are encoded `ntc_stats::ckpt::ShardCheckpoint`s —
//!   they carry their own integrity hash, so the store treats them as
//!   opaque bytes.
//! * **Publication is atomic**: writes land in `tmp/` and are
//!   `rename(2)`d into place, so a concurrent reader sees either the
//!   whole file or nothing, and a SIGKILL mid-write leaves only tmp
//!   debris (reclaimed by [`Store::gc`]).
//! * **Claims** partition the 64-shard space between worker processes:
//!   `claim-LO-HI.lock` is created with `create_new` (EEXIST on a
//!   duplicate) and overlap-checked against existing locks, so two
//!   workers cannot both own a shard. The lock is removed on clean exit
//!   ([`Claim`] drop); a killed worker leaves a stale lock for
//!   [`Store::gc`] to sweep.
//!
//! Counters (all under the `store.*` family, live only when `ntc-obs` is
//! enabled): `store.hit` / `store.miss` / `store.corrupt` / `store.put`
//! for artifacts, `store.ckpt.hit` / `store.ckpt.miss` / `store.ckpt.put`
//! for checkpoints.

use crate::error::NtcError;
use crate::repro::Scale;
use ntc_stats::ckpt::{fnv64, CheckpointSink, CollectiveKey};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk format revision; bumped when the header or layout changes.
pub(crate) const FORMAT: u32 = 1;

/// The version component of every artifact key: crate version plus the
/// store format revision. Deliberately **not** `git describe` — a dirty
/// working tree must not split the cache between two processes built
/// from the same source.
pub fn store_version() -> String {
    format!("{}-f{}", env!("CARGO_PKG_VERSION"), FORMAT)
}

/// Content address of one artifact: `(id, scale, seed, version)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Experiment id (registry spelling, e.g. `"fig5"`).
    pub id: String,
    /// Scale name (`"paper"` / `"quick"`).
    pub scale: String,
    /// The run seed.
    pub seed: u64,
    /// Code/format version (defaults to [`store_version`]).
    pub version: String,
}

impl ArtifactKey {
    /// Key for `(id, scale, seed)` at the current [`store_version`].
    pub fn new(id: &str, scale: Scale, seed: u64) -> Self {
        ArtifactKey {
            id: id.to_string(),
            scale: scale.name().to_string(),
            seed,
            version: store_version(),
        }
    }

    /// The artifact's file name within `artifacts/`.
    pub fn file_name(&self) -> String {
        format!("{}.{}.s{}.v{}.json", self.id, self.scale, self.seed, self.version)
    }
}

/// A process's exclusive claim on the shard range `[lo, hi)`, backed by a
/// lock file. The lock is removed when the claim is dropped (clean exit);
/// a SIGKILL leaves it behind for [`Store::gc`].
#[derive(Debug)]
pub struct Claim {
    path: PathBuf,
    /// First claimed shard (inclusive).
    pub lo: u32,
    /// One past the last claimed shard.
    pub hi: u32,
}

impl Drop for Claim {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Store contents summary from [`Store::stat`], and the removal report
/// from [`Store::gc`] (where the counts are *removed* entries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStat {
    /// Artifact files (or, from `gc`, artifacts removed).
    pub artifacts: usize,
    /// Total artifact bytes.
    pub artifact_bytes: u64,
    /// Checkpoint files (or, from `gc`, checkpoints removed).
    pub checkpoints: usize,
    /// Total checkpoint bytes.
    pub checkpoint_bytes: u64,
    /// Live claim lock files (or, from `gc`, locks swept).
    pub locks: usize,
    /// Worker event journals (or, from `gc`, fully-corrupt journals
    /// swept).
    pub events: usize,
    /// Leftover tmp files (or, from `gc`, tmp files swept).
    pub tmp: usize,
}

impl StoreStat {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} artifacts ({} B), {} checkpoints ({} B), {} locks, {} journals, {} tmp",
            self.artifacts,
            self.artifact_bytes,
            self.checkpoints,
            self.checkpoint_bytes,
            self.locks,
            self.events,
            self.tmp
        )
    }
}

/// `1.5 KiB`-style rendering of a byte count (binary units, one
/// decimal; exact integer below 1 KiB).
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["KiB", "MiB", "GiB", "TiB", "PiB"];
    if bytes < 1024 {
        return format!("{bytes} B");
    }
    #[allow(clippy::cast_precision_loss)]
    let mut v = bytes as f64 / 1024.0;
    let mut unit = UNITS[0];
    for u in &UNITS[1..] {
        if v < 1024.0 {
            break;
        }
        v /= 1024.0;
        unit = u;
    }
    format!("{v:.1} {unit}")
}

/// Per-kind (`artifacts` / `checkpoints` / `locks` / `events` / `tmp`)
/// count, byte total and file-age extremes, from [`Store::age_summary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KindAges {
    /// Which subtree this row describes.
    pub kind: &'static str,
    /// Files under the subtree.
    pub count: usize,
    /// Their byte total.
    pub bytes: u64,
    /// Age in seconds of the most recently modified file, when any.
    pub newest_secs: Option<u64>,
    /// Age in seconds of the least recently modified file, when any.
    pub oldest_secs: Option<u64>,
}

fn io_err(context: &str, e: impl std::fmt::Display) -> NtcError {
    NtcError::Io { context: context.to_string(), message: e.to_string() }
}

/// The content-addressed store, rooted at one directory.
///
/// Cloning is cheap (a path); every method re-reads the filesystem, so
/// multiple processes can share a root concurrently — atomic renames and
/// integrity hashes keep readers consistent without any daemon.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, NtcError> {
        let root = root.into();
        for sub in ["artifacts", "checkpoints", "locks", "events", "tmp"] {
            fs::create_dir_all(root.join(sub))
                .map_err(|e| io_err(&format!("store: create {}", root.join(sub).display()), e))?;
        }
        Ok(Store { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn artifact_path(&self, key: &ArtifactKey) -> PathBuf {
        self.root.join("artifacts").join(key.file_name())
    }

    fn checkpoint_path(&self, key: &CollectiveKey, shard: u32) -> PathBuf {
        self.root
            .join("checkpoints")
            .join(&key.scope)
            .join(key.file_stem())
            .join(format!("shard-{shard:03}.ckpt"))
    }

    /// Writes `bytes` to `dest` atomically: tmp file in `tmp/`, fsync-free
    /// `rename` into place. The tmp name folds in the pid and a process
    /// counter so concurrent writers never collide.
    fn publish(&self, dest: &Path, bytes: &[u8]) -> Result<(), NtcError> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let stem = dest
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "anon".to_string());
        let tmp = self
            .root
            .join("tmp")
            .join(format!("{stem}.{}.{seq}.part", std::process::id()));
        if let Some(parent) = dest.parent() {
            fs::create_dir_all(parent)
                .map_err(|e| io_err(&format!("store: create {}", parent.display()), e))?;
        }
        {
            let mut f = fs::File::create(&tmp)
                .map_err(|e| io_err(&format!("store: create {}", tmp.display()), e))?;
            f.write_all(bytes)
                .map_err(|e| io_err(&format!("store: write {}", tmp.display()), e))?;
        }
        fs::rename(&tmp, dest).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            io_err(&format!("store: publish {}", dest.display()), e)
        })
    }

    // -- artifacts -----------------------------------------------------

    /// Publishes artifact JSON under `key` (atomic; last writer wins —
    /// harmless, since equal keys imply equal bytes).
    pub fn put_artifact(&self, key: &ArtifactKey, json: &str) -> Result<(), NtcError> {
        let payload = json.as_bytes();
        let mut file = Vec::with_capacity(payload.len() + 64);
        let header = format!("ntc-store {FORMAT} {} {:016x}\n", payload.len(), fnv64(payload));
        file.extend_from_slice(header.as_bytes());
        file.extend_from_slice(payload);
        self.publish(&self.artifact_path(key), &file)?;
        ntc_obs::counter_add("store.put", 1);
        Ok(())
    }

    /// Returns the exact artifact JSON published under `key`, verifying
    /// the header hash. Corruption or absence is a miss (`None`).
    pub fn get_artifact(&self, key: &ArtifactKey) -> Option<String> {
        let path = self.artifact_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                ntc_obs::counter_add("store.miss", 1);
                return None;
            }
        };
        match parse_artifact_file(&bytes) {
            Some(json) => {
                ntc_obs::counter_add("store.hit", 1);
                Some(json)
            }
            None => {
                ntc_obs::counter_add("store.corrupt", 1);
                ntc_obs::counter_add("store.miss", 1);
                None
            }
        }
    }

    /// Whether a valid artifact exists under `key` (no counter traffic).
    pub fn has_artifact(&self, key: &ArtifactKey) -> bool {
        fs::read(self.artifact_path(key))
            .ok()
            .and_then(|b| parse_artifact_file(&b))
            .is_some()
    }

    /// Number of checkpoint files recorded under `scope` (an experiment
    /// id) — what `repro list --verbose` reports as "checkpointed".
    pub fn checkpoint_count(&self, scope: &str) -> usize {
        let dir = self.root.join("checkpoints").join(scope);
        let mut n = 0;
        let mut stack = vec![dir];
        while let Some(d) = stack.pop() {
            let Ok(entries) = fs::read_dir(&d) else { continue };
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    stack.push(p);
                } else if p.extension().is_some_and(|x| x == "ckpt") {
                    n += 1;
                }
            }
        }
        n
    }

    // -- checkpoint sink ----------------------------------------------

    /// A [`CheckpointSink`] view of this store, optionally restricted to
    /// computing only shards in `range` (worker mode). Install it with
    /// `ntc_stats::ckpt::install` to make every keyed collective
    /// checkpoint here.
    pub fn sink(&self, range: Option<(u32, u32)>) -> StoreSink {
        StoreSink { store: self.clone(), range }
    }

    // -- worker journals ----------------------------------------------

    /// Publishes a worker's event journal as `events/<worker>.jsonl`
    /// (atomic tmp+rename; last flush wins, and every flush carries the
    /// whole history, so that is always the freshest complete view).
    pub(crate) fn put_journal(&self, worker: &str, bytes: &[u8]) -> Result<(), NtcError> {
        self.publish(&self.root.join("events").join(format!("{worker}.jsonl")), bytes)
    }

    /// Every journal in the store as `(worker id, bytes)`, sorted by
    /// worker id for deterministic iteration.
    pub fn journals(&self) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = walk_files(&self.root.join("events"))
            .into_iter()
            .filter_map(|(p, _)| {
                let worker = p.file_stem()?.to_string_lossy().into_owned();
                Some((worker, fs::read(&p).ok()?))
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    // -- claims --------------------------------------------------------

    /// Claims the shard range `[lo, hi)` for this process via a lock
    /// file. Fails if any existing claim overlaps the range.
    pub fn claim_shards(&self, lo: u32, hi: u32) -> Result<Claim, NtcError> {
        if lo >= hi {
            return Err(NtcError::invalid_param("shards", format!("empty range {lo}..{hi}")));
        }
        let overlapping: Vec<String> = self
            .claims()
            .into_iter()
            .filter(|&(clo, chi)| clo < hi && lo < chi)
            .map(|(clo, chi)| format!("{clo}..{chi}"))
            .collect();
        if !overlapping.is_empty() {
            return Err(NtcError::invalid_param(
                "shards",
                format!("range {lo}..{hi} overlaps existing claim(s) {}", overlapping.join(", ")),
            ));
        }
        let path = self.root.join("locks").join(format!("claim-{lo}-{hi}.lock"));
        let mut f = fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| io_err(&format!("store: claim {lo}..{hi}"), e))?;
        let _ = writeln!(f, "pid {}", std::process::id());
        drop(f);
        // Close the check-then-create race: if another overlapping lock
        // appeared between the scan and our create, the claim whose file
        // name sorts first wins and the loser withdraws.
        let ours = format!("claim-{lo}-{hi}.lock");
        let conflict = self
            .claim_files()
            .into_iter()
            .filter(|(name, (clo, chi))| *name != ours && *clo < hi && lo < *chi)
            .map(|(name, _)| name)
            .min();
        if let Some(winner) = conflict {
            if winner < ours {
                let _ = fs::remove_file(&path);
                return Err(NtcError::invalid_param(
                    "shards",
                    format!("range {lo}..{hi} lost claim race to {winner}"),
                ));
            }
        }
        Ok(Claim { path, lo, hi })
    }

    fn claim_files(&self) -> Vec<(String, (u32, u32))> {
        let Ok(entries) = fs::read_dir(self.root.join("locks")) else {
            return Vec::new();
        };
        entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                let range = name
                    .strip_prefix("claim-")?
                    .strip_suffix(".lock")?
                    .split_once('-')
                    .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))?;
                Some((name, range))
            })
            .collect()
    }

    /// The currently claimed shard ranges.
    pub(crate) fn claims(&self) -> Vec<(u32, u32)> {
        self.claim_files().into_iter().map(|(_, r)| r).collect()
    }

    // -- stat / gc -----------------------------------------------------

    /// Counts what the store holds.
    pub fn stat(&self) -> StoreStat {
        let mut s = StoreStat::default();
        for (p, size) in walk_files(&self.root.join("artifacts")) {
            let _ = p;
            s.artifacts += 1;
            s.artifact_bytes += size;
        }
        for (p, size) in walk_files(&self.root.join("checkpoints")) {
            let _ = p;
            s.checkpoints += 1;
            s.checkpoint_bytes += size;
        }
        s.locks = walk_files(&self.root.join("locks")).len();
        s.events = walk_files(&self.root.join("events")).len();
        s.tmp = walk_files(&self.root.join("tmp")).len();
        s
    }

    /// Per-kind count/bytes/age summary (ages from file modification
    /// times, relative to now) — what `repro store stat` renders.
    pub fn age_summary(&self) -> Vec<KindAges> {
        let now = std::time::SystemTime::now();
        ["artifacts", "checkpoints", "locks", "events", "tmp"]
            .into_iter()
            .map(|kind| {
                let mut row = KindAges {
                    kind,
                    count: 0,
                    bytes: 0,
                    newest_secs: None,
                    oldest_secs: None,
                };
                for (p, size) in walk_files(&self.root.join(kind)) {
                    row.count += 1;
                    row.bytes += size;
                    let age = fs::metadata(&p)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| now.duration_since(t).ok())
                        .map(|d| d.as_secs());
                    if let Some(a) = age {
                        row.newest_secs = Some(row.newest_secs.map_or(a, |n| n.min(a)));
                        row.oldest_secs = Some(row.oldest_secs.map_or(a, |o| o.max(a)));
                    }
                }
                row
            })
            .collect()
    }

    /// Sweeps debris: tmp leftovers, stale claim locks, artifacts from
    /// other store versions or failing their integrity hash, and
    /// checkpoint files whose envelope no longer decodes. Returns the
    /// counts of **removed** entries. Current-version valid artifacts and
    /// intact checkpoints are never touched.
    pub fn gc(&self) -> Result<StoreStat, NtcError> {
        let mut removed = StoreStat::default();
        for (p, size) in walk_files(&self.root.join("tmp")) {
            if fs::remove_file(&p).is_ok() {
                removed.tmp += 1;
                let _ = size;
            }
        }
        for (p, _) in walk_files(&self.root.join("locks")) {
            if fs::remove_file(&p).is_ok() {
                removed.locks += 1;
            }
        }
        let version_tag = format!(".v{}.json", store_version());
        for (p, size) in walk_files(&self.root.join("artifacts")) {
            let name = p.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
            let stale = !name.ends_with(&version_tag)
                || fs::read(&p).ok().and_then(|b| parse_artifact_file(&b)).is_none();
            if stale && fs::remove_file(&p).is_ok() {
                removed.artifacts += 1;
                removed.artifact_bytes += size;
            }
        }
        for (p, size) in walk_files(&self.root.join("checkpoints")) {
            let intact = fs::read(&p)
                .ok()
                .is_some_and(|b| ntc_stats::ckpt::ShardCheckpoint::decode(&b).is_some());
            if !intact && fs::remove_file(&p).is_ok() {
                removed.checkpoints += 1;
                removed.checkpoint_bytes += size;
            }
        }
        // Journals whose every line fails verification are debris (a
        // torn or rotted file with nothing salvageable). Journals with
        // any intact line are history and are kept.
        for (p, _) in walk_files(&self.root.join("events")) {
            let salvageable = fs::read(&p).ok().is_some_and(|b| {
                String::from_utf8_lossy(&b)
                    .lines()
                    .any(|l| !l.is_empty() && crate::journal::verify_line(l).is_some())
            });
            if !salvageable && fs::remove_file(&p).is_ok() {
                removed.events += 1;
            }
        }
        Ok(removed)
    }
}

/// Parses + verifies an artifact file; `None` on any mismatch.
fn parse_artifact_file(bytes: &[u8]) -> Option<String> {
    let nl = bytes.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..nl]).ok()?;
    let mut parts = header.split(' ');
    if parts.next()? != "ntc-store" {
        return None;
    }
    let format: u32 = parts.next()?.parse().ok()?;
    if format != FORMAT {
        return None;
    }
    let len: usize = parts.next()?.parse().ok()?;
    let hash = u64::from_str_radix(parts.next()?, 16).ok()?;
    if parts.next().is_some() {
        return None;
    }
    let payload = &bytes[nl + 1..];
    if payload.len() != len || fnv64(payload) != hash {
        return None;
    }
    String::from_utf8(payload.to_vec()).ok()
}

fn walk_files(root: &Path) -> Vec<(PathBuf, u64)> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else { continue };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                let size = e.metadata().map(|m| m.len()).unwrap_or(0);
                out.push((p, size));
            }
        }
    }
    out
}

/// The store as a checkpoint sink: keyed collectives restore from and
/// save to `checkpoints/`, optionally computing only an owned shard
/// range (worker mode).
pub struct StoreSink {
    store: Store,
    range: Option<(u32, u32)>,
}

impl CheckpointSink for StoreSink {
    fn load(&self, key: &CollectiveKey, shard: u32) -> Option<Vec<u8>> {
        match fs::read(self.store.checkpoint_path(key, shard)) {
            Ok(b) => {
                ntc_obs::counter_add("store.ckpt.hit", 1);
                Some(b)
            }
            Err(_) => {
                ntc_obs::counter_add("store.ckpt.miss", 1);
                None
            }
        }
    }

    fn store(&self, key: &CollectiveKey, shard: u32, encoded: &[u8]) {
        // Best-effort by contract: a failed write only costs a future
        // recompute of this shard.
        if self.store.publish(&self.store.checkpoint_path(key, shard), encoded).is_ok() {
            ntc_obs::counter_add("store.ckpt.put", 1);
        }
    }

    fn owns_shard(&self, shard: u32) -> bool {
        self.range.is_none_or(|(lo, hi)| (lo..hi).contains(&shard))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch(name: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ntc-store-test-{}-{}-{}",
            name,
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn artifact_round_trips_byte_for_byte() {
        let store = Store::open(scratch("rt")).unwrap();
        let key = ArtifactKey::new("fig6", Scale::Quick, 2014);
        assert!(store.get_artifact(&key).is_none());
        assert!(!store.has_artifact(&key));
        let json = "{\"id\":\"fig6\",\"x\":[1.0,2.5]}";
        store.put_artifact(&key, json).unwrap();
        assert_eq!(store.get_artifact(&key).as_deref(), Some(json));
        assert!(store.has_artifact(&key));
    }

    #[test]
    fn keys_address_distinct_files() {
        let a = ArtifactKey::new("fig6", Scale::Quick, 2014);
        let mut b = a.clone();
        b.seed = 7;
        let mut c = a.clone();
        c.scale = "paper".to_string();
        let mut d = a.clone();
        d.version = "other".to_string();
        let names: std::collections::HashSet<_> =
            [&a, &b, &c, &d].iter().map(|k| k.file_name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn corrupt_artifact_is_a_miss_and_gc_sweeps_it() {
        let store = Store::open(scratch("corrupt")).unwrap();
        let key = ArtifactKey::new("table1", Scale::Quick, 1);
        store.put_artifact(&key, "{\"v\":1}").unwrap();
        // Flip a payload byte behind the store's back.
        let path = store.artifact_path(&key);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.get_artifact(&key), None);
        let removed = store.gc().unwrap();
        assert_eq!(removed.artifacts, 1);
        assert!(!path.exists());
    }

    #[test]
    fn truncated_and_headerless_files_are_rejected() {
        assert_eq!(parse_artifact_file(b""), None);
        assert_eq!(parse_artifact_file(b"not a header\n{}"), None);
        let store = Store::open(scratch("trunc")).unwrap();
        let key = ArtifactKey::new("fig1", Scale::Paper, 3);
        store.put_artifact(&key, "{\"series\":[1,2,3]}").unwrap();
        let full = fs::read(store.artifact_path(&key)).unwrap();
        assert!(parse_artifact_file(&full).is_some());
        assert_eq!(parse_artifact_file(&full[..full.len() - 2]), None);
    }

    #[test]
    fn publish_is_atomic_no_partial_files_visible() {
        let store = Store::open(scratch("atomic")).unwrap();
        let key = ArtifactKey::new("fig2", Scale::Quick, 9);
        store.put_artifact(&key, "{}").unwrap();
        // tmp/ is empty after a successful publish.
        assert_eq!(store.stat().tmp, 0);
        // Overwrite with different bytes; readers see old or new, and
        // after the call, exactly the new.
        store.put_artifact(&key, "{\"new\":true}").unwrap();
        assert_eq!(store.get_artifact(&key).as_deref(), Some("{\"new\":true}"));
    }

    #[test]
    fn overlapping_claims_are_rejected_and_release_frees_the_range() {
        let store = Store::open(scratch("claims")).unwrap();
        let a = store.claim_shards(0, 32).unwrap();
        assert!(store.claim_shards(16, 48).is_err());
        assert!(store.claim_shards(0, 32).is_err());
        let b = store.claim_shards(32, 64).unwrap();
        assert_eq!(store.claims().len(), 2);
        drop(a);
        drop(b);
        assert!(store.claims().is_empty());
        // Range is claimable again after release.
        let _c = store.claim_shards(0, 64).unwrap();
        // Degenerate range.
        assert!(store.claim_shards(5, 5).is_err());
    }

    #[test]
    fn stat_and_gc_account_for_checkpoints_and_locks() {
        let store = Store::open(scratch("stat")).unwrap();
        let ck_key = CollectiveKey {
            scope: "fig5".to_string(),
            tag: "mc_rate",
            seed: 11,
            trials: 1000,
            salt: 42,
        };
        let sink = store.sink(None);
        sink.store(&ck_key, 0, b"NTCKP1 definitely not a valid envelope");
        let good = ntc_stats::ckpt::ShardCheckpoint {
            shard: 1,
            seed: 11,
            lo: 0,
            hi: 10,
            tag: "trials".to_string(),
            payload: vec![0; 16],
        }
        .encode();
        sink.store(&ck_key, 1, &good);
        let _stale_lock = fs::write(store.root().join("locks").join("claim-0-8.lock"), "pid 1");
        fs::write(store.root().join("tmp").join("leftover.part"), "x").unwrap();

        let s = store.stat();
        assert_eq!(s.checkpoints, 2);
        assert_eq!(s.locks, 1);
        assert_eq!(s.tmp, 1);
        assert_eq!(store.checkpoint_count("fig5"), 2);
        assert_eq!(store.checkpoint_count("fig6"), 0);

        let removed = store.gc().unwrap();
        assert_eq!(removed.checkpoints, 1); // only the invalid envelope
        assert_eq!(removed.locks, 1);
        assert_eq!(removed.tmp, 1);
        let after = store.stat();
        assert_eq!(after.checkpoints, 1);
        assert_eq!(after.locks, 0);
        assert_eq!(after.tmp, 0);
    }

    #[test]
    fn store_version_is_stable_within_a_build() {
        assert_eq!(store_version(), store_version());
        assert!(store_version().ends_with(&format!("-f{FORMAT}")));
    }
}
