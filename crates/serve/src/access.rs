//! Structured JSON-lines access log, off the hot path.
//!
//! Worker shards format one compact JSON object per answered request
//! and push it at a **bounded** queue; a dedicated writer thread drains
//! the queue to the log file. The worker side never touches the
//! filesystem — a slow disk costs dropped log lines (counted in
//! `serve.accesslog.dropped`), never request latency. This is the same
//! backpressure contract the request queue makes: bounded everything,
//! loss accounted for, latency protected.
//!
//! Each line carries the request id that also rides the request's spans
//! and its `X-Request-Id` response header, so one id joins the trace,
//! the log line, and whatever the client recorded.

use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::pool::{BoundedQueue, Push};

/// Lines buffered between the worker shards and the writer thread.
const LOG_QUEUE_CAPACITY: usize = 1024;

/// Monotonic nanoseconds since the first access-log record of the
/// process — wall clock is never consulted, matching the span layer.
fn since_epoch_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One answered request, as the worker shard saw it.
#[derive(Debug, Clone)]
pub(crate) struct AccessRecord {
    /// Request id (also in spans and the `X-Request-Id` header).
    pub req: u64,
    /// Worker shard that answered (`None` for the rejector's 503s).
    pub shard: Option<u32>,
    /// Request method as framed (empty when framing failed).
    pub method: String,
    /// Request path as framed (empty when framing failed).
    pub path: String,
    /// Response status.
    pub status: u16,
    /// Milliseconds spent queued between accept and pop.
    pub queue_wait_ms: f64,
    /// Milliseconds spent framing + routing + answering.
    pub handler_ms: f64,
    /// Milliseconds from accept to response, the client-visible figure.
    pub latency_ms: f64,
    /// Response body bytes.
    pub bytes: usize,
}

/// Escapes a string for a JSON string literal (without quotes).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl AccessRecord {
    /// The record as one JSON line (no trailing newline). Key order is
    /// fixed, so log processors can byte-anchor on prefixes.
    #[must_use]
    pub(crate) fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"t_ns\":{},\"req\":{},",
            since_epoch_ns(),
            self.req
        );
        if let Some(shard) = self.shard {
            out.push_str(&format!("\"shard\":{shard},"));
        }
        out.push_str(&format!(
            "\"method\":\"{}\",\"path\":\"{}\",\"status\":{},\"queue_wait_ms\":{:.3},\"handler_ms\":{:.3},\"latency_ms\":{:.3},\"bytes\":{}}}",
            json_escape(&self.method),
            json_escape(&self.path),
            self.status,
            self.queue_wait_ms,
            self.handler_ms,
            self.latency_ms,
            self.bytes,
        ));
        out
    }
}

/// The log: a bounded line queue plus the writer thread draining it.
#[derive(Debug)]
pub(crate) struct AccessLog {
    queue: Arc<BoundedQueue<String>>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl AccessLog {
    /// Opens (appending) the log file and starts the writer thread.
    pub(crate) fn open(path: &Path) -> std::io::Result<AccessLog> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        let queue = Arc::new(BoundedQueue::<String>::new(LOG_QUEUE_CAPACITY));
        let writer = {
            let queue = Arc::clone(&queue);
            std::thread::Builder::new()
                .name("serve-accesslog".to_string())
                .spawn(move || {
                    while let Some(line) = queue.pop() {
                        // A failed write is a lost line, not a dead
                        // server; the drop counter keeps it honest.
                        if writeln!(file, "{line}").is_err() {
                            ntc_obs::counter_add("serve.accesslog.dropped", 1);
                        }
                    }
                    let _ = file.flush();
                })?
        };
        Ok(AccessLog { queue, writer: Mutex::new(Some(writer)) })
    }

    /// Enqueues one record; drops (and counts) when the writer is
    /// behind. The formatting happens on the calling shard — cheap —
    /// while all file I/O stays on the writer thread.
    pub(crate) fn log(&self, record: &AccessRecord) {
        if let Push::Rejected(_) = self.queue.try_push(record.to_json_line()) {
            ntc_obs::counter_add("serve.accesslog.dropped", 1);
        }
    }

    /// Closes the queue and joins the writer once every buffered line
    /// is on disk. Idempotent.
    pub(crate) fn close(&self) {
        self.queue.close();
        if let Some(writer) = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            let _ = writer.join();
        }
    }
}

impl Drop for AccessLog {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> AccessRecord {
        AccessRecord {
            req: 7,
            shard: Some(2),
            method: "GET".into(),
            path: "/v1/healthz".into(),
            status: 200,
            queue_wait_ms: 0.125,
            handler_ms: 1.5,
            latency_ms: 1.625,
            bytes: 42,
        }
    }

    #[test]
    fn record_renders_one_json_object() {
        let line = record().to_json_line();
        assert!(line.starts_with("{\"t_ns\":"));
        assert!(line.ends_with('}'));
        assert!(line.contains("\"req\":7,\"shard\":2,\"method\":\"GET\",\"path\":\"/v1/healthz\""));
        assert!(line.contains("\"status\":200"));
        assert!(line.contains("\"queue_wait_ms\":0.125"));
        assert!(line.contains("\"bytes\":42"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn paths_are_escaped() {
        let mut r = record();
        r.path = "/weird\"path\n".into();
        let line = r.to_json_line();
        assert!(line.contains("\\\"path\\n"));
        assert_eq!(line.matches('\n').count(), 0);
    }

    #[test]
    fn rejects_without_shard_omit_the_field() {
        let mut r = record();
        r.shard = None;
        assert!(!r.to_json_line().contains("\"shard\""));
    }

    #[test]
    fn log_writes_lines_and_close_flushes() {
        let path = std::env::temp_dir()
            .join(format!("ntc-access-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let log = AccessLog::open(&path).expect("open");
        log.log(&record());
        let mut second = record();
        second.req = 8;
        log.log(&second);
        log.close();
        let text = std::fs::read_to_string(&path).expect("read log");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"req\":7"));
        assert!(lines[1].contains("\"req\":8"));
        for line in lines {
            assert!(ntc::artifact::json::parse(line).is_ok(), "valid JSON: {line}");
        }
        let _ = std::fs::remove_file(&path);
    }
}
