//! Open-loop HTTP load generator for the query service.
//!
//! The generator models an **open** system: request *i* is due at
//! `start + i/rate` whether or not earlier requests have finished. A
//! dispatcher thread walks the arrival schedule and hands each arrival
//! to a pool of client threads that **grows on demand**: when every
//! client is mid-request at an arrival instant, a new client is spawned
//! (up to [`LoadConfig::max_clients`]), so in-flight concurrency tracks
//! the server's actual backlog instead of being silently clamped at the
//! initial pool size. A fixed pool of `n` clients can never hold more
//! than `n` requests open — at 10× capacity that degenerates into a
//! closed loop that fills the server's queue once and then politely
//! waits, reporting zero 503s and seconds-long "latencies" that are
//! really client-side queueing. Arrivals that find the pool at its cap
//! are counted in [`LoadReport::saturated`] — nonzero means the
//! *generator* was the bottleneck and the overload numbers understate
//! the offered concurrency.
//!
//! Latency is measured **from the intended send time**, not from when
//! the socket call happened — a generator that has fallen behind
//! schedule charges the backlog to the measurement instead of silently
//! coordinating with the server's slowness (the coordinated-omission
//! trap that makes closed-loop "p99"s look flattering under
//! saturation).
//!
//! Latencies land in the same log-spaced buckets the server's own
//! `serve.latency_ms` histogram uses ([`ntc_obs::latency_bounds_ms`]),
//! so client-observed and server-observed distributions are directly
//! comparable bucket for bucket.
//!
//! The workload is a deterministic function of the request index: a
//! configurable fraction of `POST /v1/run` (memoised experiment runs)
//! mixed into a rotation of `POST /v1/query` model evaluations, so cache
//! layers see a realistic mix of hits and misses. 503s are **not**
//! errors here — they are the server's overload contract working as
//! designed and are accounted separately.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ntc::api::{EnergyModel, LawKind, Memory, QueryKind, QueryRequest, RunRequest};
use ntc::fit::{Scheme, VoltageGrid};
use ntc::repro::{ExperimentId, Scale};
use ntc_obs::{Histogram, HistogramSnapshot};

/// One load-generation run against a serve endpoint.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Target arrival rate, requests per second.
    pub rate: f64,
    /// How long arrivals are generated for.
    pub duration: Duration,
    /// Initial client threads; the pool grows past this on demand.
    pub connections: usize,
    /// Hard cap on the client pool (≥ `connections`). Arrivals beyond
    /// this many in-flight requests are delayed and counted as
    /// [`LoadReport::saturated`].
    pub max_clients: usize,
    /// Every `run_every`-th request is a `POST /v1/run` (0 disables).
    pub run_every: usize,
    /// Per-request socket read timeout.
    pub timeout: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 7878)),
            rate: 100.0,
            duration: Duration::from_secs(2),
            connections: 8,
            max_clients: 256,
            run_every: 16,
            timeout: Duration::from_secs(30),
        }
    }
}

/// Outcome counters plus the latency distribution of one run.
#[derive(Debug)]
pub struct LoadReport {
    /// Arrivals the schedule called for.
    pub offered: u64,
    /// Requests that produced a parseable HTTP response.
    pub answered: u64,
    /// 2xx responses.
    pub ok: u64,
    /// Intended-overload rejections (HTTP 503).
    pub rejected_503: u64,
    /// Any other non-2xx status — these are real failures.
    pub http_errors: u64,
    /// Connect/read/parse failures before a status line arrived.
    pub transport_errors: u64,
    /// Arrivals that found every client busy with the pool at
    /// [`LoadConfig::max_clients`]. These were still sent (late, with
    /// the delay charged to their latency sample), but nonzero means
    /// the generator — not the server — limited the offered
    /// concurrency; raise `max_clients` for an honest overload number.
    pub saturated: u64,
    /// Wall-clock span from first intended arrival to last response.
    pub elapsed: Duration,
    /// Client-observed latency (ms, from intended send time) in the
    /// shared serve bucket layout.
    pub latency: HistogramSnapshot,
}

impl LoadReport {
    /// Completed-2xx throughput actually achieved, requests/second.
    #[must_use]
    pub fn achieved_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            #[allow(clippy::cast_precision_loss)]
            {
                self.ok as f64 / secs
            }
        } else {
            0.0
        }
    }

    /// True when every response was either 2xx or an intended 503.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.http_errors == 0 && self.transport_errors == 0
    }
}

/// The request for arrival index `i`: `(method, target, body)`.
///
/// Deterministic in `i` so re-runs offer the identical stream: every
/// `run_every`-th arrival re-runs a quick-scale experiment (memoised
/// server-side after the first), the rest rotate through the three
/// query kinds over a small grid of operating points. Bodies are
/// rendered through the shared [`ntc::api`] DTOs — the same types the
/// server parses — so the generator cannot drift from the wire schema.
#[must_use]
pub fn request_for(i: u64, run_every: usize) -> (&'static str, &'static str, String) {
    if run_every > 0 && i.is_multiple_of(run_every as u64) {
        let run = RunRequest { id: ExperimentId::Table2, scale: Scale::Quick, seed: None };
        return ("POST", "/v1/run", run.to_json());
    }
    let kind = match i % 3 {
        0 => QueryKind::Energy {
            model: EnergyModel::Cots40,
            vdd: (50.0 + 5.0 * ((i / 3) % 7) as f64) / 100.0,
            frequency_hz: None,
        },
        1 => QueryKind::Ber {
            law: LawKind::Retention,
            memory: Memory::CellBased65,
            vdd: (30.0 + ((i / 3) % 5) as f64) / 100.0,
        },
        _ => QueryKind::Vmin {
            scheme: Scheme::Ocean,
            memory: Memory::CellBased40,
            fit_target: 1e-15,
            frequency_hz: Some([290e3, 1e6, 11.6e6][(i / 3) as usize % 3]),
            grid: VoltageGrid::PaperGrid,
        },
    };
    ("POST", "/v1/query", QueryRequest { id: None, kind }.to_json())
}

/// Sends one request on a fresh connection and returns the HTTP status,
/// or `None` on a transport failure.
fn send_one(
    addr: SocketAddr,
    timeout: Duration,
    method: &str,
    target: &str,
    body: &str,
) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(timeout)).ok()?;
    stream.set_nodelay(true).ok();
    let raw = format!(
        "{method} {target} HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).ok()?;
    let mut text = String::new();
    stream.read_to_string(&mut text).ok()?;
    text.split(' ').nth(1).and_then(|s| s.parse().ok())
}

/// Everything a client thread shares with the dispatcher.
struct ClientShared {
    addr: SocketAddr,
    timeout: Duration,
    run_every: usize,
    jobs: std::sync::Mutex<std::sync::mpsc::Receiver<(u64, Instant)>>,
    inflight: AtomicU64,
    hist: Histogram,
    ok: AtomicU64,
    rejected: AtomicU64,
    http_errors: AtomicU64,
    transport_errors: AtomicU64,
    answered: AtomicU64,
}

fn spawn_client(shared: &Arc<ClientShared>) -> std::thread::JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || loop {
        // Hold the lock only to draw the next arrival, never during I/O.
        let job = shared.jobs.lock().unwrap_or_else(|e| e.into_inner()).recv();
        let Ok((i, intended)) = job else { break };
        let (method, target, body) = request_for(i, shared.run_every);
        let status = send_one(shared.addr, shared.timeout, method, target, &body);
        let latency_ms = intended.elapsed().as_secs_f64() * 1e3;
        match status {
            Some(s) => {
                shared.answered.fetch_add(1, Ordering::Relaxed);
                shared.hist.record(latency_ms);
                match s {
                    200..=299 => {
                        shared.ok.fetch_add(1, Ordering::Relaxed);
                    }
                    503 => {
                        shared.rejected.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        shared.http_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            None => {
                shared.transport_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
    })
}

/// Runs one open-loop measurement and blocks until every scheduled
/// arrival has been resolved (sent and answered, or failed).
///
/// The dispatcher sleeps until each arrival's intended send time (when
/// behind schedule it dispatches immediately and the lateness lands in
/// the latency sample — coordinated-omission-safe), then hands the
/// arrival to an idle client, growing the pool by one whenever every
/// client is already mid-request and the cap allows it.
///
/// # Panics
///
/// Panics if `rate` is not positive or `connections` is zero.
#[must_use]
pub fn run_open_loop(config: &LoadConfig) -> LoadReport {
    assert!(config.rate > 0.0, "rate must be positive");
    assert!(config.connections > 0, "need at least one connection");
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let offered = (config.rate * config.duration.as_secs_f64()).floor().max(1.0) as u64;
    let max_clients = config.max_clients.max(config.connections);

    let (job_tx, job_rx) = std::sync::mpsc::channel::<(u64, Instant)>();
    let shared = Arc::new(ClientShared {
        addr: config.addr,
        timeout: config.timeout,
        run_every: config.run_every,
        jobs: std::sync::Mutex::new(job_rx),
        inflight: AtomicU64::new(0),
        hist: Histogram::new(ntc_obs::latency_bounds_ms()),
        ok: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        http_errors: AtomicU64::new(0),
        transport_errors: AtomicU64::new(0),
        answered: AtomicU64::new(0),
    });
    let mut clients: Vec<_> = (0..config.connections).map(|_| spawn_client(&shared)).collect();

    let start = Instant::now() + Duration::from_millis(20);
    let mut saturated = 0u64;
    for i in 0..offered {
        #[allow(clippy::cast_precision_loss)]
        let intended = start + Duration::from_secs_f64(i as f64 / config.rate);
        let now = Instant::now();
        if intended > now {
            std::thread::sleep(intended - now);
        }
        if shared.inflight.load(Ordering::Acquire) >= clients.len() as u64 {
            if clients.len() < max_clients {
                clients.push(spawn_client(&shared));
            } else {
                saturated += 1;
            }
        }
        shared.inflight.fetch_add(1, Ordering::AcqRel);
        // Receiver outlives every send: clients only exit on a closed
        // channel, which requires this sender dropped first.
        let _ = job_tx.send((i, intended));
    }
    drop(job_tx);
    for c in clients {
        let _ = c.join();
    }
    let elapsed = start.elapsed();
    LoadReport {
        offered,
        answered: shared.answered.load(Ordering::Relaxed),
        ok: shared.ok.load(Ordering::Relaxed),
        rejected_503: shared.rejected.load(Ordering::Relaxed),
        http_errors: shared.http_errors.load(Ordering::Relaxed),
        transport_errors: shared.transport_errors.load(Ordering::Relaxed),
        saturated,
        elapsed,
        latency: shared.hist.snapshot(),
    }
}

/// Measures sustainable capacity with a short **closed-loop** probe:
/// `connections` threads issue back-to-back queries for `window` and
/// the completion rate is the capacity estimate. Closed loop is the
/// right tool *here* — we want the server's service rate, not a latency
/// distribution.
#[must_use]
pub fn measure_capacity(
    addr: SocketAddr,
    connections: usize,
    window: Duration,
    timeout: Duration,
) -> f64 {
    let done = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let probes: Vec<_> = (0..connections.max(1))
        .map(|t| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut i = 10_000 * (t as u64 + 1) + 1; // skip /run arrivals
                while start.elapsed() < window {
                    let (method, target, body) = request_for(i, 0);
                    if send_one(addr, timeout, method, target, &body) == Some(200) {
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    i += 1;
                }
            })
        })
        .collect();
    for p in probes {
        let _ = p.join();
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    #[allow(clippy::cast_precision_loss)]
    {
        done.load(Ordering::Relaxed) as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_in_the_index() {
        for i in 0..64 {
            assert_eq!(request_for(i, 16), request_for(i, 16));
        }
        let (_, target, _) = request_for(0, 16);
        assert_eq!(target, "/v1/run");
        let (_, target, _) = request_for(0, 0);
        assert_eq!(target, "/v1/query", "run_every=0 disables /run arrivals");
    }

    #[test]
    fn workload_bodies_parse_back_through_the_shared_dtos() {
        for i in 0..48 {
            let (method, target, body) = request_for(i, 8);
            assert_eq!(method, "POST");
            let v = ntc::artifact::json::parse(&body).expect("body is JSON");
            match target {
                "/v1/run" => {
                    RunRequest::from_json_value(&v).expect("run body round-trips");
                }
                "/v1/query" => {
                    QueryRequest::from_json_value(&v).expect("query body round-trips");
                }
                other => panic!("unexpected target {other}"),
            }
        }
    }

    #[test]
    fn report_flags_http_errors_as_unclean() {
        let snap = Histogram::new(ntc_obs::latency_bounds_ms()).snapshot();
        let mut report = LoadReport {
            offered: 10,
            answered: 10,
            ok: 9,
            rejected_503: 1,
            http_errors: 0,
            transport_errors: 0,
            saturated: 0,
            elapsed: Duration::from_secs(1),
            latency: snap,
        };
        assert!(report.clean(), "503s alone are intended overload, not failure");
        report.http_errors = 1;
        assert!(!report.clean());
    }
}
