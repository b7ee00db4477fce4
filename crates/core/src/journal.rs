//! Store-backed worker heartbeats: integrity-hashed JSON-lines event
//! journals, and the fleet-status aggregation behind `repro status`.
//!
//! Every sweep worker (a `repro run --store` process, whole-sweep or
//! `--shards LO..HI`) keeps an in-memory event log and periodically
//! publishes it — whole file, atomically, via the store's tmp+rename
//! protocol — as `events/<worker-id>.jsonl`. Readers on any machine
//! sharing the store directory can then answer the operational
//! questions a running fleet raises: how far along is each worker, how
//! fast is it going, when did it last flush a checkpoint, and is it
//! still alive at all.
//!
//! # Line format
//!
//! Each line is `<fnv64-hex16> <compact-json>`: sixteen lowercase hex
//! digits of the FNV-64 hash of the JSON bytes, one space, the event
//! object. `verify_line` recomputes the hash, so a flipped bit or a
//! torn tail rejects the damaged line (and only it) — the same
//! no-wrong-answers posture as the `ShardCheckpoint` envelope and the
//! artifact header. A journal is telemetry, so a bad line is *dropped
//! and counted*, never trusted.
//!
//! # Event schema
//!
//! Every event carries `ev` (its kind), `seq` (per-worker sequence
//! number) and `t_ms` (wall-clock Unix milliseconds — journals are read
//! across processes, so monotonic clocks won't do):
//!
//! | `ev`          | extra fields                                        |
//! |---------------|-----------------------------------------------------|
//! | `meta`        | `worker`, `pid`, `lo`, `hi`, `flush_ms`, `version`  |
//! | `claim`       | `lo`, `hi`                                          |
//! | `shard_start` | `scope`, `shard`                                    |
//! | `ckpt_flush`  | `scope`, `shard`, `bytes`                           |
//! | `shard_done`  | `scope`, `shard`, `trials`, `samples_per_sec`       |
//! | `heartbeat`   | the [`ntc_obs::ProgressSnapshot`] fields + `eta_secs` (`-1` = unknown) |
//! | `done`        | `shards_done`, `trials_done`                        |
//!
//! # Heartbeat / stall protocol
//!
//! Shard events are appended to the in-memory buffer only — nothing on
//! the compute hot path touches the disk. A [`Heartbeat`] ticker thread
//! appends a `heartbeat` snapshot of the process-wide
//! [`ntc_obs::progress`] tracker and flushes the journal every
//! `flush_ms` (default [`DEFAULT_FLUSH_MS`], overridable with
//! `NTC_HEARTBEAT_MS`). Each journal records its own cadence in `meta`,
//! so the reader needs no out-of-band configuration: a worker whose
//! newest event is older than `STALL_FACTOR` × its own `flush_ms` is
//! reported **stalled** — enough slack that scheduler jitter doesn't
//! cry wolf, and still within a couple of seconds at the default
//! cadence. A worker that published `done` is finished, not stalled,
//! no matter how old the journal grows.
//!
//! Determinism: journals live under `events/`, a sibling of the
//! artifact and checkpoint trees; artifact bytes are never derived from
//! them, so a sweep with journaling on is byte-identical to one with it
//! off.

use crate::artifact::json::quoted;
use crate::store::Store;
use ntc_obs::ProgressSnapshot;
use ntc_stats::ckpt::{fnv64, CheckpointSink, CollectiveKey, ShardCheckpoint};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Default journal flush / heartbeat cadence, milliseconds.
pub const DEFAULT_FLUSH_MS: u64 = 1000;

/// A worker is stalled when its newest event is older than this many of
/// its own flush intervals.
pub(crate) const STALL_FACTOR: u64 = 3;

/// Wall-clock Unix time in milliseconds (journals are compared across
/// processes and machines, so the epoch clock is the right one).
#[must_use]
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Prefixes `json` with the 16-hex-digit FNV-64 hash of its bytes.
#[must_use]
pub fn encode_line(json: &str) -> String {
    format!("{:016x} {json}", fnv64(json.as_bytes()))
}

/// Verifies one journal line, returning the JSON payload only when the
/// recorded hash matches the bytes — a flipped bit or truncated tail is
/// `None`.
#[must_use]
pub(crate) fn verify_line(line: &str) -> Option<&str> {
    let (hash, json) = line.split_at_checked(16)?;
    let json = json.strip_prefix(' ')?;
    // Lowercase hex only — exactly what `encode_line` emits, so a case
    // flip in the prefix is damage like any other.
    if !hash.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)) {
        return None;
    }
    let hash = u64::from_str_radix(hash, 16).ok()?;
    if fnv64(json.as_bytes()) == hash {
        Some(json)
    } else {
        None
    }
}

struct Buf {
    lines: Vec<String>,
    seq: u64,
}

/// One worker's event journal: an append-only in-memory buffer, flushed
/// wholesale (atomically) to `events/<worker-id>.jsonl` in the store.
pub struct Journal {
    store: Store,
    worker: String,
    flush_ms: u64,
    buf: Mutex<Buf>,
}

impl Journal {
    /// Opens a journal for the worker owning shards `[lo, hi)`, writes
    /// the `meta` + `claim` events and publishes them immediately, so
    /// `repro status` sees the worker as soon as it has claimed.
    pub fn new(store: &Store, lo: u32, hi: u32, flush_ms: u64) -> Arc<Journal> {
        let pid = std::process::id();
        let worker = format!("w{lo}-{hi}-p{pid}");
        let j = Journal {
            store: store.clone(),
            worker,
            flush_ms: flush_ms.max(1),
            buf: Mutex::new(Buf { lines: Vec::new(), seq: 0 }),
        };
        j.push(&format!(
            r#""ev":"meta","worker":{},"pid":{pid},"lo":{lo},"hi":{hi},"flush_ms":{},"version":{}"#,
            quoted(&j.worker),
            j.flush_ms,
            quoted(&crate::store::store_version()),
        ));
        j.push(&format!(r#""ev":"claim","lo":{lo},"hi":{hi}"#));
        j.flush();
        Arc::new(j)
    }

    /// This worker's journal id (`w<lo>-<hi>-p<pid>`).
    #[must_use]
    pub fn worker_id(&self) -> &str {
        &self.worker
    }

    /// The flush cadence this journal advertises in its `meta` event.
    #[must_use]
    pub(crate) fn flush_ms(&self) -> u64 {
        self.flush_ms
    }

    fn push(&self, fields: &str) {
        let mut b = self.buf.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let json = format!(r#"{{{fields},"seq":{},"t_ms":{}}}"#, b.seq, now_ms());
        b.seq += 1;
        b.lines.push(encode_line(&json));
    }

    /// Publishes the full journal atomically. Best-effort by contract —
    /// telemetry must never fail a sweep — so errors only return
    /// `false`.
    pub fn flush(&self) -> bool {
        let bytes = {
            let b = self.buf.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let mut out = String::with_capacity(b.lines.iter().map(|l| l.len() + 1).sum());
            for line in &b.lines {
                out.push_str(line);
                out.push('\n');
            }
            out
        };
        self.store.put_journal(&self.worker, bytes.as_bytes()).is_ok()
    }

    /// Records that a shard's compute is starting (buffer only).
    pub fn shard_start(&self, scope: &str, shard: u32) {
        self.push(&format!(r#""ev":"shard_start","scope":{},"shard":{shard}"#, quoted(scope)));
    }

    /// Records one checkpoint flushed to the store (buffer only).
    pub(crate) fn ckpt_flush(&self, scope: &str, shard: u32, bytes: usize) {
        self.push(&format!(
            r#""ev":"ckpt_flush","scope":{},"shard":{shard},"bytes":{bytes}"#,
            quoted(scope)
        ));
    }

    /// Records one computed shard with its observed throughput (buffer
    /// only). `samples_per_sec <= 0` means "unknown" (e.g. a recompute
    /// of a corrupt checkpoint whose start was never seen).
    pub fn shard_done(&self, scope: &str, shard: u32, trials: u64, samples_per_sec: f64) {
        self.push(&format!(
            r#""ev":"shard_done","scope":{},"shard":{shard},"trials":{trials},"samples_per_sec":{:.3}"#,
            quoted(scope),
            samples_per_sec.max(0.0),
        ));
    }

    fn push_snapshot(&self, ev: &str) {
        let s = ntc_obs::progress::snapshot();
        self.push(&format!(
            r#""ev":"{ev}","shards_done":{},"shards_total":{},"trials_done":{},"trials_total":{},"restored":{},"computed":{},"samples_per_sec":{:.3},"eta_secs":{:.3}"#,
            s.shards_done,
            s.shards_total,
            s.trials_done,
            s.trials_total,
            s.restored,
            s.computed,
            s.samples_per_sec,
            s.eta_secs().unwrap_or(-1.0),
        ));
    }

    /// Appends a `heartbeat` snapshot of the process-wide progress
    /// tracker and flushes the journal.
    pub(crate) fn heartbeat(&self) {
        self.push_snapshot("heartbeat");
        self.flush();
    }

    /// Appends the terminal `done` event — a full progress snapshot, so
    /// a worker that finished between heartbeats (or faster than one
    /// interval) still reports exact totals — and flushes. A journal
    /// ending in `done` is never reported stalled.
    pub fn done(&self) {
        self.push_snapshot("done");
        self.flush();
    }
}

/// The heartbeat ticker: appends + flushes a `heartbeat` every
/// `journal.flush_ms()` until stopped.
pub struct Heartbeat {
    stop: mpsc::Sender<()>,
    handle: std::thread::JoinHandle<()>,
}

impl Heartbeat {
    /// Spawns the ticker thread for `journal`.
    #[must_use]
    pub fn start(journal: Arc<Journal>) -> Heartbeat {
        let (stop, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            while let Err(mpsc::RecvTimeoutError::Timeout) =
                rx.recv_timeout(Duration::from_millis(journal.flush_ms()))
            {
                journal.heartbeat();
            }
        });
        Heartbeat { stop, handle }
    }

    /// Stops the ticker and waits for it to exit. (The final `done`
    /// flush is the journal's, not the ticker's.)
    pub fn stop(self) {
        let _ = self.stop.send(());
        let _ = self.handle.join();
    }
}

/// A [`CheckpointSink`] decorator that journals shard lifecycle events
/// around an inner sink (in practice [`crate::store::StoreSink`]).
/// Journal writes are buffer-appends; the disk flush stays on the
/// heartbeat ticker, off the compute hot path.
pub struct JournalSink<S> {
    inner: S,
    journal: Arc<Journal>,
    starts: Mutex<HashMap<(String, u32), Instant>>,
}

impl<S: CheckpointSink> JournalSink<S> {
    /// Wraps `inner`, journaling into `journal`.
    pub fn new(inner: S, journal: Arc<Journal>) -> JournalSink<S> {
        JournalSink { inner, journal, starts: Mutex::new(HashMap::new()) }
    }
}

impl<S: CheckpointSink> CheckpointSink for JournalSink<S> {
    fn load(&self, key: &CollectiveKey, shard: u32) -> Option<Vec<u8>> {
        let bytes = self.inner.load(key, shard);
        if bytes.is_none() && self.inner.owns_shard(shard) {
            // A miss on an owned shard means the collective is about to
            // compute it.
            self.starts
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert((key.file_stem(), shard), Instant::now());
            self.journal.shard_start(&key.scope, shard);
        }
        bytes
    }

    fn store(&self, key: &CollectiveKey, shard: u32, encoded: &[u8]) {
        self.inner.store(key, shard, encoded);
        self.journal.ckpt_flush(&key.scope, shard, encoded.len());
        let trials = ShardCheckpoint::decode(encoded).map_or(0, |ck| ck.hi - ck.lo);
        let elapsed = self
            .starts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&(key.file_stem(), shard))
            .map(|t| t.elapsed().as_secs_f64());
        #[allow(clippy::cast_precision_loss)]
        let rate = match elapsed {
            Some(secs) if secs > 0.0 => trials as f64 / secs,
            _ => 0.0,
        };
        self.journal.shard_done(&key.scope, shard, trials, rate);
    }

    fn owns_shard(&self, shard: u32) -> bool {
        self.inner.owns_shard(shard)
    }
}

// ---------------------------------------------------------------------
// Aggregation: journals -> per-worker status -> fleet status.
// ---------------------------------------------------------------------

/// Liveness verdict for one worker, per the stall protocol above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Heartbeats arriving within the stall window.
    Running,
    /// No event within `STALL_FACTOR` × the worker's own flush
    /// interval, and no `done` marker — presumed dead or wedged.
    Stalled,
    /// Published its terminal `done` event.
    Done,
}

impl WorkerState {
    /// Lowercase name used in tables and JSON (`running` / `stalled` /
    /// `done`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkerState::Running => "running",
            WorkerState::Stalled => "stalled",
            WorkerState::Done => "done",
        }
    }
}

/// Everything one journal says about its worker.
#[derive(Debug, Clone, Default)]
pub struct WorkerStatus {
    /// Journal id (`w<lo>-<hi>-p<pid>`).
    pub worker: String,
    /// The worker's process id (0 if no intact `meta` event).
    pub pid: u64,
    /// First owned shard (inclusive).
    pub lo: u32,
    /// One past the last owned shard.
    pub hi: u32,
    /// The flush cadence the worker advertised.
    pub flush_ms: u64,
    /// Store version the worker was built at.
    pub version: String,
    /// Progress counters from the newest intact `heartbeat` (falling
    /// back to tallied `shard_done` events before the first heartbeat
    /// lands).
    pub progress: ProgressSnapshot,
    /// Wall-clock ms of the newest intact event of any kind.
    pub last_event_ms: u64,
    /// Wall-clock ms of the newest `ckpt_flush`, if any.
    pub last_ckpt_ms: Option<u64>,
    /// Whether the terminal `done` event was seen.
    pub done: bool,
    /// Intact events parsed.
    pub events: usize,
    /// Lines that failed hash verification or JSON parsing — damage is
    /// dropped and counted, never trusted.
    pub corrupt_lines: usize,
}

impl WorkerStatus {
    /// Liveness at wall-clock time `now_ms`.
    #[must_use]
    pub fn state(&self, now_ms: u64) -> WorkerState {
        if self.done {
            return WorkerState::Done;
        }
        let window = STALL_FACTOR * self.flush_ms.max(1);
        if now_ms.saturating_sub(self.last_event_ms) > window {
            WorkerState::Stalled
        } else {
            WorkerState::Running
        }
    }

    /// Estimated seconds to finish this worker's remaining trials
    /// (`Some(0.0)` once done, `None` while no throughput estimate
    /// exists).
    #[must_use]
    pub fn eta_secs(&self) -> Option<f64> {
        if self.done {
            Some(0.0)
        } else {
            self.progress.eta_secs()
        }
    }

    /// Milliseconds since the newest event, at `now_ms`.
    #[must_use]
    pub fn heartbeat_age_ms(&self, now_ms: u64) -> u64 {
        now_ms.saturating_sub(self.last_event_ms)
    }

    /// Milliseconds since the newest checkpoint flush, at `now_ms`.
    #[must_use]
    pub fn checkpoint_age_ms(&self, now_ms: u64) -> Option<u64> {
        self.last_ckpt_ms.map(|t| now_ms.saturating_sub(t))
    }
}

/// Parses one journal into a [`WorkerStatus`]. Damaged lines are
/// skipped and counted in `corrupt_lines`; an empty or fully-corrupt
/// journal yields a default status under `fallback_id`.
#[must_use]
pub fn parse_worker_status(fallback_id: &str, bytes: &[u8]) -> WorkerStatus {
    let mut st = WorkerStatus {
        worker: fallback_id.to_string(),
        flush_ms: DEFAULT_FLUSH_MS,
        ..WorkerStatus::default()
    };
    // Tallies from shard_done events: the pre-first-heartbeat fallback.
    let (mut sd_shards, mut sd_trials) = (0u64, 0u64);
    let mut saw_heartbeat = false;
    let text = String::from_utf8_lossy(bytes);
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let Some(json) = verify_line(line) else {
            st.corrupt_lines += 1;
            continue;
        };
        let Ok(v) = crate::artifact::json::parse(json) else {
            st.corrupt_lines += 1;
            continue;
        };
        let Some(ev) = v.get("ev").and_then(|e| e.as_str().map(str::to_string)) else {
            st.corrupt_lines += 1;
            continue;
        };
        st.events += 1;
        let num = |key: &str| v.get(key).and_then(crate::artifact::json::JsonValue::as_num);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let int = |key: &str| num(key).map(|n| n.max(0.0) as u64);
        if let Some(t) = int("t_ms") {
            st.last_event_ms = st.last_event_ms.max(t);
        }
        match ev.as_str() {
            "meta" => {
                if let Some(w) = v.get("worker").and_then(|w| w.as_str()) {
                    st.worker = w.to_string();
                }
                st.pid = int("pid").unwrap_or(0);
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                {
                    st.lo = num("lo").map_or(0, |n| n.max(0.0) as u32);
                    st.hi = num("hi").map_or(0, |n| n.max(0.0) as u32);
                }
                st.flush_ms = int("flush_ms").unwrap_or(DEFAULT_FLUSH_MS).max(1);
                if let Some(ver) = v.get("version").and_then(|w| w.as_str()) {
                    st.version = ver.to_string();
                }
            }
            "shard_done" => {
                sd_shards += 1;
                sd_trials += int("trials").unwrap_or(0);
            }
            "ckpt_flush" => {
                st.last_ckpt_ms = st.last_ckpt_ms.max(int("t_ms"));
            }
            "heartbeat" | "done" => {
                saw_heartbeat = true;
                st.done |= ev == "done";
                st.progress = ProgressSnapshot {
                    shards_done: int("shards_done").unwrap_or(0),
                    shards_total: int("shards_total").unwrap_or(0),
                    trials_done: int("trials_done").unwrap_or(0),
                    trials_total: int("trials_total").unwrap_or(0),
                    restored: int("restored").unwrap_or(0),
                    computed: int("computed").unwrap_or(0),
                    samples_per_sec: num("samples_per_sec").unwrap_or(0.0).max(0.0),
                };
            }
            // claim / shard_start / unknown future kinds: liveness only.
            _ => {}
        }
    }
    if !saw_heartbeat {
        st.progress.shards_done = st.progress.shards_done.max(sd_shards);
        st.progress.trials_done = st.progress.trials_done.max(sd_trials);
    }
    st
}

/// The aggregated view `repro status` renders: per-worker statuses plus
/// store-wide claim and checkpoint state.
#[derive(Debug, Clone, Default)]
pub struct FleetStatus {
    /// One entry per journal, sorted by shard range then id.
    pub workers: Vec<WorkerStatus>,
    /// Live claim lock ranges, sorted.
    pub claims: Vec<(u32, u32)>,
    /// Checkpoint files in the store.
    pub checkpoints: usize,
    /// Total checkpoint bytes.
    pub checkpoint_bytes: u64,
}

impl FleetStatus {
    /// Sum of every worker's progress snapshot (the deterministic-merge
    /// semantics of [`ProgressSnapshot::merge`]).
    #[must_use]
    pub fn merged(&self) -> ProgressSnapshot {
        self.workers
            .iter()
            .fold(ProgressSnapshot::default(), |acc, w| acc.merge(&w.progress))
    }

    /// How many workers are stalled at `now_ms`.
    #[must_use]
    pub fn stalled(&self, now_ms: u64) -> usize {
        self.workers.iter().filter(|w| w.state(now_ms) == WorkerState::Stalled).count()
    }
}

/// Reads every journal plus the claim/checkpoint state of `store`.
#[must_use]
pub fn fleet_status(store: &Store) -> FleetStatus {
    let mut workers: Vec<WorkerStatus> = store
        .journals()
        .iter()
        .map(|(id, bytes)| parse_worker_status(id, bytes))
        .collect();
    workers.sort_by(|a, b| (a.lo, a.hi, &a.worker).cmp(&(b.lo, b.hi, &b.worker)));
    let mut claims = store.claims();
    claims.sort_unstable();
    let stat = store.stat();
    FleetStatus {
        workers,
        claims,
        checkpoints: stat.checkpoints,
        checkpoint_bytes: stat.checkpoint_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch(name: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ntc-journal-test-{}-{}-{}",
            name,
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lines_round_trip_and_reject_any_bit_flip() {
        let json = r#"{"ev":"claim","lo":0,"hi":32,"seq":1,"t_ms":1700000000000}"#;
        let line = encode_line(json);
        assert_eq!(verify_line(&line), Some(json));
        // Every single-bit flip anywhere in the line must be rejected
        // (or, for flips inside the hex prefix that change it to
        // another valid prefix, must not verify against the payload).
        let bytes = line.as_bytes();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.to_vec();
                m[byte] ^= 1 << bit;
                let Ok(s) = std::str::from_utf8(&m) else { continue };
                assert_ne!(verify_line(s), Some(json), "flip at {byte}:{bit} accepted");
                if let Some(recovered) = verify_line(s) {
                    // A flip can only "verify" by damaging payload and
                    // hash consistently — impossible for a 1-bit flip.
                    panic!("corrupt line verified as {recovered}");
                }
            }
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let line = encode_line(r#"{"ev":"done","shards_done":64,"trials_done":1000,"seq":9,"t_ms":5}"#);
        for cut in 0..line.len() {
            assert_eq!(verify_line(&line[..cut]), None, "truncation at {cut} accepted");
        }
    }

    #[test]
    fn journal_publishes_meta_and_claim_immediately() {
        let store = Store::open(scratch("meta")).unwrap();
        let j = Journal::new(&store, 8, 24, 500);
        let journals = store.journals();
        assert_eq!(journals.len(), 1);
        let st = parse_worker_status(&journals[0].0, &journals[0].1);
        assert_eq!(st.worker, j.worker_id());
        assert_eq!((st.lo, st.hi), (8, 24));
        assert_eq!(st.flush_ms, 500);
        assert_eq!(st.pid, u64::from(std::process::id()));
        assert_eq!(st.corrupt_lines, 0);
        assert_eq!(st.events, 2, "meta + claim");
        assert!(!st.done);
    }

    #[test]
    fn shard_events_and_heartbeat_drive_worker_status() {
        let store = Store::open(scratch("events")).unwrap();
        let j = Journal::new(&store, 0, 64, 1000);
        j.shard_start("fig5", 3);
        j.ckpt_flush("fig5", 3, 128);
        j.shard_done("fig5", 3, 1000, 123.4);
        j.flush();
        let (id, bytes) = &store.journals()[0];
        let st = parse_worker_status(id, bytes);
        // No heartbeat yet: shard_done tallies stand in.
        assert_eq!(st.progress.shards_done, 1);
        assert_eq!(st.progress.trials_done, 1000);
        assert!(st.last_ckpt_ms.is_some());
        assert_eq!(st.state(now_ms()), WorkerState::Running);

        j.done();
        let (id, bytes) = &store.journals()[0];
        let st = parse_worker_status(id, bytes);
        assert!(st.done);
        assert_eq!(st.state(now_ms() + 1_000_000), WorkerState::Done, "done is never stalled");
        assert_eq!(st.eta_secs(), Some(0.0));
    }

    #[test]
    fn silence_beyond_the_stall_window_reads_as_stalled() {
        let st = WorkerStatus {
            flush_ms: 200,
            last_event_ms: 10_000,
            ..WorkerStatus::default()
        };
        assert_eq!(st.state(10_000 + 3 * 200), WorkerState::Running, "at the edge");
        assert_eq!(st.state(10_000 + 3 * 200 + 1), WorkerState::Stalled, "past the edge");
    }

    #[test]
    fn corrupt_lines_are_counted_not_trusted() {
        let store = Store::open(scratch("corrupt")).unwrap();
        let j = Journal::new(&store, 0, 32, 1000);
        j.shard_done("fig4", 0, 500, 10.0);
        j.shard_done("fig4", 1, 500, 10.0);
        j.flush();
        let (id, bytes) = &store.journals()[0];
        // Flip one byte in the middle of the last line.
        let mut damaged = bytes.clone();
        let n = damaged.len();
        damaged[n - 10] ^= 0x40;
        let st = parse_worker_status(id, &damaged);
        assert_eq!(st.corrupt_lines, 1);
        assert_eq!(st.progress.shards_done, 1, "the damaged shard_done is dropped");
        // And truncation mid-line drops exactly the torn tail.
        let cut = &bytes[..bytes.len() - 5];
        let st = parse_worker_status(id, cut);
        assert_eq!(st.corrupt_lines, 1);
        assert_eq!(st.events, 3, "meta + claim + first shard_done survive");
    }

    #[test]
    fn journal_sink_journals_around_the_inner_sink() {
        use ntc_stats::ckpt::MemorySink;
        let store = Store::open(scratch("sink")).unwrap();
        let j = Journal::new(&store, 0, 64, 1000);
        let sink = JournalSink::new(MemorySink::new(), Arc::clone(&j));
        let key = CollectiveKey { scope: "fig5".to_string(), tag: "t", seed: 1, trials: 100, salt: 0 };
        assert!(sink.load(&key, 2).is_none(), "miss on empty inner sink");
        let ck = ShardCheckpoint {
            shard: 2,
            seed: 1,
            lo: 20,
            hi: 30,
            tag: "t".to_string(),
            payload: vec![1, 2, 3],
        };
        sink.store(&key, 2, &ck.encode());
        assert!(sink.load(&key, 2).is_some(), "inner sink now has the shard");
        j.flush();
        let (id, bytes) = &store.journals()[0];
        let st = parse_worker_status(id, bytes);
        assert_eq!(st.progress.shards_done, 1);
        assert_eq!(st.progress.trials_done, 10, "trials decoded from the envelope");
        assert!(st.last_ckpt_ms.is_some(), "ckpt_flush journaled");
    }

    #[test]
    fn fleet_status_merges_disjoint_workers() {
        let store = Store::open(scratch("fleet")).unwrap();
        let a = Journal::new(&store, 0, 32, 1000);
        let b = Journal::new(&store, 32, 64, 1000);
        for s in 0..4 {
            a.shard_done("fig5", s, 250, 100.0);
        }
        b.shard_done("fig5", 40, 250, 50.0);
        a.flush();
        b.flush();
        let fleet = fleet_status(&store);
        assert_eq!(fleet.workers.len(), 2);
        assert_eq!(fleet.workers[0].lo, 0, "sorted by shard range");
        assert_eq!(fleet.workers[1].lo, 32);
        let merged = fleet.merged();
        assert_eq!(merged.shards_done, 5);
        assert_eq!(merged.trials_done, 1250);
        assert_eq!(fleet.stalled(now_ms()), 0);
    }
}
