//! The client side: HTTP requests, the `repro serve` child process, and
//! the `/proc` readings (peak memory, CPU time) the metrics need.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ntc::artifact::json::{parse, JsonValue};
use ntc_obs::HistogramSnapshot;

use crate::gen::Wire;

/// Worker shards the server under test runs with.
pub const SERVE_WORKERS: usize = 2;

const TIMEOUT: Duration = Duration::from_secs(30);

/// A response as the client saw it.
#[derive(Debug)]
pub struct Response {
    /// HTTP status.
    pub status: u16,
    /// Body bytes after the header block.
    pub body: String,
}

/// Sends one request on a fresh connection and reads the whole response.
///
/// # Errors
///
/// Any transport failure, or a response without a status line.
pub fn send(addr: SocketAddr, w: &Wire) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{} {} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        w.method,
        w.target,
        w.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(w.body.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let bad = || std::io::Error::other("malformed response");
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok(Response {
        status,
        body: body.to_string(),
    })
}

/// A `GET` with no body.
#[must_use]
pub fn get(target: &'static str) -> Wire {
    Wire {
        method: "GET",
        target,
        body: String::new(),
    }
}

/// A running `repro serve` child. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    /// The address it listens on.
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `repro serve --port 0` (with `--store` when given) and waits
    /// until `/v1/healthz` answers 200.
    ///
    /// # Errors
    ///
    /// When the child cannot start or never becomes healthy.
    pub fn start(repro: &Path, store: Option<&Path>) -> Result<Server, String> {
        let mut cmd = Command::new(repro);
        cmd.args([
            "serve",
            "--port",
            "0",
            "--workers",
            &SERVE_WORKERS.to_string(),
        ]);
        if let Some(dir) = store {
            cmd.arg("--store").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", repro.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on http://")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not report its address: {line:?}"));
        };
        let server = Server { child, addr };
        let deadline = Instant::now() + TIMEOUT;
        loop {
            if send(addr, &get("/v1/healthz")).is_ok_and(|r| r.status == 200) {
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err("server never answered /v1/healthz".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident memory of the server process so far, in MiB.
    #[must_use]
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// The server's `/v1/metrics` document.
    ///
    /// # Errors
    ///
    /// On transport failure or an unparseable document.
    pub fn metrics(&self) -> Result<Metrics, String> {
        let r = send(self.addr, &get("/v1/metrics")).map_err(|e| format!("/v1/metrics: {e}"))?;
        if r.status != 200 {
            return Err(format!("/v1/metrics answered {}", r.status));
        }
        parse(&r.body)
            .map(Metrics)
            .map_err(|e| format!("/v1/metrics: {e}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A parsed `/v1/metrics` snapshot.
pub struct Metrics(JsonValue);

impl Metrics {
    /// A counter or gauge value; 0 when absent.
    #[must_use]
    pub fn value(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_num)
            .unwrap_or(0.0)
    }

    /// A histogram; empty when absent.
    #[must_use]
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        let nums = |m: &JsonValue, key: &str| -> Vec<f64> {
            match m.get(key) {
                Some(JsonValue::Arr(xs)) => xs.iter().filter_map(JsonValue::as_num).collect(),
                _ => Vec::new(),
            }
        };
        let Some(m) = self.0.get(name) else {
            return HistogramSnapshot {
                bounds: Vec::new(),
                buckets: vec![0],
                sum: 0.0,
                ignored: 0,
            };
        };
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let buckets = nums(m, "buckets").into_iter().map(|c| c as u64).collect();
        HistogramSnapshot {
            bounds: nums(m, "bounds"),
            buckets,
            sum: m.get("sum").and_then(JsonValue::as_num).unwrap_or(0.0),
            ignored: 0,
        }
    }
}

/// What a histogram recorded between two snapshots of the same layout.
#[must_use]
pub fn histogram_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let buckets = after
        .buckets
        .iter()
        .enumerate()
        .map(|(i, &a)| a.saturating_sub(before.buckets.get(i).copied().unwrap_or(0)))
        .collect();
    HistogramSnapshot {
        bounds: after.bounds.clone(),
        buckets,
        sum: after.sum - before.sum,
        ignored: 0,
    }
}

/// Mean of a histogram's observations, from its exact sum.
#[must_use]
pub fn histogram_mean(h: &HistogramSnapshot) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let n = h.count() as f64;
    h.sum / n
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB (NaN if unreadable).
#[must_use]
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// This process's user + system CPU time, in seconds, including threads
/// that have already exited. `/proc` reports clock ticks, which are 1/100 s
/// on Linux.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    // `rest` starts at field 3 (state, which does not parse as a number).
    f.get(10)
        .zip(f.get(11))
        .map_or(f64::NAN, |(u, s)| (u + s) / 100.0)
}
