//! `ntc-serve` — a batched, cache-sharing HTTP/1.1 JSON query service
//! over the experiment registry.
//!
//! The repository's reproductions are pure functions of
//! `(experiment, seed, scale)`; this crate puts a network front on
//! them so sweeps, dashboards, and scripted regressions can query the
//! models without paying a process start (and a cold memo table) per
//! call. The surface is versioned under `/v1` (any other path is a
//! 404; `GET /v1/api` publishes the full machine-readable
//! endpoint/DTO schema):
//!
//! * `GET /v1/experiments` — the registry, with descriptions and
//!   paper references.
//! * `POST /v1/run` / `GET /v1/artifact/{id}` — full experiment runs
//!   at quick or paper scale, with check verdicts; artifact bytes are
//!   identical to `repro run --format json`.
//! * `POST /v1/query` — fine-grained model queries (BER at a supply
//!   voltage, Vmin for a scheme and FIT budget, energy at an
//!   operating point), answered from one process-wide memoized
//!   [`CachedSoc`](ntc_memcalc::cache::CachedSoc) per model.
//! * `POST /v1/optimize` — the design-space autotuner, memoized by
//!   the canonical request hash and byte-identical to
//!   `repro optimize` for the same request.
//!
//! # Architecture
//!
//! One acceptor thread blocked in `accept()`, a fixed pool of worker
//! shards (following the `ntc_stats::exec` layout conventions: shard
//! count resolved once at startup, each shard numbered in spans), and
//! one rejector thread. Between acceptor and shards sits a **bounded**
//! queue: when it fills, the acceptor hands the connection to the
//! rejector, which answers `503` at once — backpressure is part of the
//! API contract. The rejector's own hand-off is bounded too; past it,
//! connections are closed unanswered and counted in
//! `serve.rejected_dropped`, so overload never grows the thread count.
//! Each request gets a deadline measured from the moment it was
//! accepted; work that waited too long in the queue is answered `503`
//! without being evaluated. Shutdown (SIGINT/SIGTERM seen by
//! [`RunningServer::join`], or [`RunningServer::shutdown`]) sets a stop
//! flag and wakes the acceptor with one loopback connection, lets
//! queued work drain, and joins every thread.
//!
//! # Observability
//!
//! Every accepted connection gets a process-unique request id, stamped
//! on its `serve.request` span, its [access log](access) line, and the
//! `X-Request-Id` response header. Latency is recorded three ways on
//! the canonical log-scale buckets ([`ntc_obs::latency_bounds_ms`]):
//! `serve.queue_wait_ms` (accept → pop), `serve.handler_ms` (pop →
//! response written), and `serve.latency_ms` (the client-visible
//! total), plus a per-route `serve.route.<label>.latency_ms` and
//! per-route/per-status counters. Overload is explicit:
//! `serve.rejected_503` counts queue-full bounces,
//! `serve.rejected_dropped` the bounces closed unanswered, and
//! `serve.queue_depth` gauges the backlog. `GET /v1/metrics` renders the
//! snapshot as deterministic JSON or (`?format=prom`) Prometheus text
//! exposition.
//!
//! # Determinism
//!
//! Responses are rendered through the artifact layer's deterministic
//! JSON writer, and memo tables only change *when* something is
//! evaluated, never what it evaluates to — so equal requests get
//! byte-identical bodies regardless of worker shard, concurrency, or
//! cache state. Memo hits are observable only as
//! `serve.run.memo_hit` / `memcalc.cache.hit` counters.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod access;
pub mod handlers;
pub mod http;
pub mod pool;
pub mod query;
pub mod signal;

use std::borrow::Cow;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use access::{AccessLog, AccessRecord};
use handlers::{error_body, ServerState};
use pool::{BoundedQueue, Push};

/// How the service binds and schedules work.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an OS-assigned port.
    pub addr: String,
    /// Worker shards; `0` means the `ntc_stats` engine thread count.
    pub workers: usize,
    /// Bounded queue capacity between acceptor and shards.
    pub queue_capacity: usize,
    /// Per-request deadline, measured from accept. A request still
    /// queued (or a peer still silent) past this is answered `503`.
    pub deadline: Duration,
    /// Seed for runs that do not carry their own.
    pub seed: u64,
    /// Content-addressed store root: `/run` and `/artifact` consult it
    /// before computing and publish what they compute. `None` disables
    /// the store (memo-only, the pre-store behavior).
    pub store: Option<std::path::PathBuf>,
    /// Cap on the in-memory `(id, scale, seed)` run memo; evictions are
    /// LRU and counted in `serve.cache.evictions`. `0` disables the
    /// memo entirely (every repeat is answered from the store, if any).
    pub memo_cap: usize,
    /// JSON-lines access log path. `None` disables access logging; the
    /// request path stays byte-for-byte the same either way (the log
    /// rides a bounded channel off the hot path — see [`access`]).
    pub access_log: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 64,
            deadline: Duration::from_secs(30),
            seed: 2014,
            store: None,
            memo_cap: 64,
            access_log: None,
        }
    }
}

/// Queue-full connections waiting for the rejector's `503`; past this
/// many, further bounces are closed unanswered. Deep enough that a few
/// hundred concurrent clients (the load generator's default cap is 256)
/// all get their 503, shallow enough to pin a fixed number of sockets.
const REJECT_BACKLOG: usize = 256;

/// One accepted connection waiting for a worker shard.
struct Job {
    stream: TcpStream,
    accepted: Instant,
    /// Request id, assigned at accept; stamped on spans, the access
    /// log, and the `X-Request-Id` response header.
    req_id: u64,
}

/// Entry point: binds and starts a server per [`ServeConfig`].
pub struct Server;

impl Server {
    /// Binds `config.addr`, starts the acceptor and worker shards, and
    /// returns the running server. The listener is live when this
    /// returns — [`RunningServer::addr`] is ready to connect to.
    pub fn bind(config: ServeConfig) -> io::Result<RunningServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let workers = if config.workers == 0 { ntc_stats::exec::threads() } else { config.workers };
        let store = match &config.store {
            Some(root) => Some(
                ntc::store::Store::open(root)
                    .map_err(|e| io::Error::other(e.to_string()))?,
            ),
            None => None,
        };
        let state = Arc::new(ServerState::with_store(config.seed, store, config.memo_cap));
        let queue = Arc::new(BoundedQueue::<Job>::new(config.queue_capacity));
        let stop = Arc::new(AtomicBool::new(false));
        let log = match &config.access_log {
            Some(path) => Some(Arc::new(AccessLog::open(path)?)),
            None => None,
        };

        // The acceptor goes first in `threads`: it closes the queue and
        // (by dropping `bounce`) the rejector's channel on exit, which is
        // what lets the others drain and return.
        let (bounce, bounced) = sync_channel(REJECT_BACKLOG);
        let mut threads = Vec::with_capacity(workers + 2);
        threads.push({
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            let deadline = config.deadline;
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || accept_loop(&listener, &queue, &bounce, &stop, deadline))
                .expect("spawn acceptor")
        });
        for shard in 0..workers {
            let queue = Arc::clone(&queue);
            let state = Arc::clone(&state);
            let log = log.clone();
            let deadline = config.deadline;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{shard}"))
                    .spawn(move || worker_loop(shard, &queue, &state, deadline, log.as_deref()))
                    .expect("spawn worker shard"),
            );
        }
        threads.push({
            let log = log.clone();
            std::thread::Builder::new()
                .name("serve-rejector".to_string())
                .spawn(move || reject_loop(&bounced, log.as_deref()))
                .expect("spawn rejector")
        });

        Ok(RunningServer { addr, stop, threads, log })
    }
}

/// A live server; dropping it without [`shutdown`](Self::shutdown)
/// detaches the threads (they stop once the process exits).
pub struct RunningServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Acceptor first, then worker shards and the rejector.
    threads: Vec<JoinHandle<()>>,
    log: Option<Arc<AccessLog>>,
}

impl RunningServer {
    /// The bound address (with the OS-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, drain queued requests, join
    /// every thread, flush the access log. The acceptor sleeps in a
    /// blocking `accept()`, so after setting the stop flag this opens
    /// one loopback connection to wake it; the acceptor sees the flag
    /// and drops that connection uncounted.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(wake_addr(self.addr));
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        // Every thread is gone; flush every buffered access-log line.
        if let Some(log) = self.log.take() {
            log.close();
        }
    }

    /// Serves until a SIGINT/SIGTERM flips the [`signal`] flag, then
    /// shuts down as [`shutdown`](Self::shutdown) does. The flag is
    /// polled on the caller's otherwise idle thread, never on the
    /// request path.
    pub fn join(self) {
        while !signal::requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown();
    }
}

/// Where to connect to reach a listener bound at `addr`: an unspecified
/// bind IP (`0.0.0.0`, `::`) is reached through loopback.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// Accepts until told to stop, pushing connections at the bounded
/// queue and handing overflow to the rejector. `accept()` blocks; the
/// stop flag is checked each time it returns, so the connection
/// [`RunningServer::shutdown`] makes to wake it is never served.
fn accept_loop(
    listener: &TcpListener,
    queue: &BoundedQueue<Job>,
    bounce: &SyncSender<Job>,
    stop: &AtomicBool,
    deadline: Duration,
) {
    // Request ids are process-unique and monotonically assigned at
    // accept, so the access log, spans, and `X-Request-Id` headers all
    // agree on one vocabulary.
    static NEXT_REQ: AtomicU64 = AtomicU64::new(1);
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match accepted {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                // Transient accept errors (aborted handshakes, EMFILE):
                // back off briefly and keep serving.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        ntc_obs::counter_add("serve.requests", 1);
        let _ = stream.set_read_timeout(Some(deadline));
        let req_id = NEXT_REQ.fetch_add(1, Ordering::Relaxed);
        let job = Job { stream, accepted: Instant::now(), req_id };
        match queue.try_push(job) {
            Push::Accepted(depth) => {
                #[allow(clippy::cast_precision_loss)]
                ntc_obs::gauge_set("serve.queue_depth", depth as f64);
            }
            Push::Rejected(job) => match bounce.try_send(job) {
                Ok(()) => ntc_obs::counter_add("serve.rejected_503", 1),
                // Dropping the stream closes the connection unanswered.
                Err(_) => ntc_obs::counter_add("serve.rejected_dropped", 1),
            },
        }
    }
    // Reject new work, wake idle shards; queued jobs still drain.
    queue.close();
}

/// The rejector: answers every bounced connection `503` until the
/// acceptor hangs up. It *reads the request first*: closing a socket
/// with unread input sends RST, which would destroy the 503 in the
/// peer's receive buffer.
fn reject_loop(bounced: &Receiver<Job>, log: Option<&AccessLog>) {
    let body = error_body("overloaded", "request queue is full, retry later");
    for job in bounced {
        let started = Instant::now();
        let mut stream = job.stream;
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        let framed = http::read_request(&mut stream);
        let _ = http::write_response_full(
            &mut stream,
            503,
            "application/json",
            Some(job.req_id),
            &body,
        );
        if let Some(log) = log {
            let (method, path) = match framed {
                Ok(req) => (req.method, req.path),
                Err(_) => (String::new(), String::new()),
            };
            let ms = started.elapsed().as_secs_f64() * 1e3;
            log.log(&AccessRecord {
                req: job.req_id,
                shard: None,
                method,
                path,
                status: 503,
                queue_wait_ms: 0.0,
                handler_ms: ms,
                latency_ms: ms,
                bytes: body.len(),
            });
        }
    }
}

/// How one connection was answered, as the worker loop needs it for
/// metrics and the access log.
struct Outcome {
    /// Bounded route label (see [`handlers::route_label`]); `unframed`
    /// when the request never parsed.
    route: &'static str,
    method: String,
    path: String,
    status: u16,
    bytes: usize,
}

/// One worker shard: pop, frame, route, respond, until the queue is
/// closed and drained. Per request it records the queue-wait vs.
/// handler split and the client-visible total on the canonical
/// log-scale buckets, plus per-route/per-status counters.
fn worker_loop(
    shard: usize,
    queue: &BoundedQueue<Job>,
    state: &ServerState,
    deadline: Duration,
    log: Option<&AccessLog>,
) {
    while let Some(job) = queue.pop() {
        #[allow(clippy::cast_precision_loss)]
        ntc_obs::gauge_set("serve.queue_depth", queue.depth() as f64);
        let Job { mut stream, accepted, req_id } = job;
        let queue_wait_ms = accepted.elapsed().as_secs_f64() * 1e3;
        let handler_started = Instant::now();
        let outcome = {
            #[allow(clippy::cast_possible_truncation)]
            let _span = ntc_obs::span("serve.request")
                .with_shard(shard as u32)
                .with_request(req_id);
            serve_connection(&mut stream, accepted, req_id, state, deadline)
        };
        let handler_ms = handler_started.elapsed().as_secs_f64() * 1e3;
        let latency_ms = accepted.elapsed().as_secs_f64() * 1e3;
        if ntc_obs::enabled() {
            let bounds = ntc_obs::latency_bounds_ms();
            ntc_obs::histogram_record("serve.queue_wait_ms", bounds, queue_wait_ms);
            ntc_obs::histogram_record("serve.handler_ms", bounds, handler_ms);
            ntc_obs::histogram_record("serve.latency_ms", bounds, latency_ms);
            let (status_name, latency_name) = route_metric_names(outcome.route, outcome.status);
            ntc_obs::counter_add(&status_name, 1);
            ntc_obs::histogram_record(latency_name, bounds, latency_ms);
        }
        if let Some(log) = log {
            #[allow(clippy::cast_possible_truncation)]
            log.log(&AccessRecord {
                req: req_id,
                shard: Some(shard as u32),
                method: outcome.method,
                path: outcome.path,
                status: outcome.status,
                queue_wait_ms,
                handler_ms,
                latency_ms,
                bytes: outcome.bytes,
            });
        }
        // Close only now: a client that read its response to EOF finds
        // the request in the metrics and the access log.
        drop(stream);
    }
}

/// Declares the route-label vocabulary ([`handlers::route_label`] plus
/// `unframed`) and the status codes this service emits, and derives
/// [`route_metric_names`] from them, so the per-request metric names are
/// `&'static str` spelled once at compile time.
macro_rules! route_metrics {
    (routes: [$($route:literal)*], statuses: $statuses:tt) => {
        /// Route labels that name per-route metrics.
        #[cfg(test)]
        const ROUTES: &[&str] = &[$($route),*];

        /// `serve.route.<route>.status.<status>` and
        /// `serve.route.<route>.latency_ms`. A status outside the emitted
        /// set (none today) is named at run time; a label outside the
        /// vocabulary (none today) counts under `other`.
        fn route_metric_names(route: &str, status: u16) -> (Cow<'static, str>, &'static str) {
            match route {
                $($route => (
                    route_metrics!(@status $route, status, $statuses),
                    concat!("serve.route.", $route, ".latency_ms"),
                ),)*
                _ => (
                    Cow::Owned(format!("serve.route.other.status.{status}")),
                    "serve.route.other.latency_ms",
                ),
            }
        }
    };
    (@status $route:literal, $status:ident, [$($code:literal)*]) => {
        match $status {
            $($code => Cow::Borrowed(concat!("serve.route.", $route, ".status.", $code)),)*
            other => Cow::Owned(format!(concat!("serve.route.", $route, ".status.{}"), other)),
        }
    };
}

route_metrics! {
    routes: [
        "healthz" "metrics" "progress" "experiments" "run" "query" "optimize" "api"
        "artifact" "other" "unframed"
    ],
    statuses: [200 400 404 405 413 500 503]
}

/// Frames and answers one connection.
fn serve_connection(
    stream: &mut TcpStream,
    accepted: Instant,
    req_id: u64,
    state: &ServerState,
    deadline: Duration,
) -> Outcome {
    let unframed = |status: u16, bytes: usize| Outcome {
        route: "unframed",
        method: String::new(),
        path: String::new(),
        status,
        bytes,
    };
    // Time spent queued counts against the deadline: a request that
    // waited it out is stale — answer 503 rather than burn a shard on
    // an answer nobody is waiting for.
    let elapsed = accepted.elapsed();
    if elapsed >= deadline {
        ntc_obs::counter_add("serve.deadline_missed", 1);
        let body = error_body("deadline", "request spent its deadline queued");
        let _ = http::write_response_full(
            stream,
            503,
            "application/json",
            Some(req_id),
            &body,
        );
        return unframed(503, body.len());
    }
    let _ = stream.set_read_timeout(Some(deadline - elapsed));
    let (reply, method, path) = match http::read_request(stream) {
        Ok(req) => {
            let reply = handlers::handle(&req, state);
            (reply, req.method, req.path)
        }
        Err(http::FrameError::TooLarge(what)) => (
            handlers::Reply::json(
                413,
                error_body("too_large", &format!("{what} exceeds the accepted bound")),
            ),
            String::new(),
            String::new(),
        ),
        Err(http::FrameError::Malformed(what)) => (
            handlers::Reply::json(400, error_body("malformed_request", what)),
            String::new(),
            String::new(),
        ),
        Err(http::FrameError::Io(_)) => {
            // Peer went silent or away; nothing useful to answer, but
            // try a 503 in case it is merely slow.
            ntc_obs::counter_add("serve.deadline_missed", 1);
            let body = error_body("deadline", "request not received within the deadline");
            let _ = http::write_response_full(
                stream,
                503,
                "application/json",
                Some(req_id),
                &body,
            );
            return unframed(503, body.len());
        }
    };
    if reply.status >= 400 {
        ntc_obs::counter_add("serve.errors", 1);
    }
    ntc_obs::counter_add("serve.responses", 1);
    let _ = http::write_response_full(
        stream,
        reply.status,
        reply.content_type,
        Some(req_id),
        &reply.body,
    );
    let route = if path.is_empty() { "unframed" } else { handlers::route_label(&path) };
    Outcome { route, method, path, status: reply.status, bytes: reply.body.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interned_route_metric_names_match_the_formatted_spelling() {
        for &route in ROUTES {
            for status in [200, 400, 404, 405, 413, 500, 503, 418] {
                let (counter, histogram) = route_metric_names(route, status);
                assert_eq!(counter, format!("serve.route.{route}.status.{status}"));
                assert_eq!(matches!(counter, Cow::Borrowed(_)), status != 418, "{counter}");
                assert_eq!(histogram, format!("serve.route.{route}.latency_ms"));
            }
        }
        // Every label the router hands out is in the vocabulary.
        for path in [
            "/v1/healthz",
            "/v1/metrics",
            "/v1/progress",
            "/v1/experiments",
            "/v1/run",
            "/v1/query",
            "/v1/optimize",
            "/v1/api",
            "/v1/artifact/fig6",
            "/nope",
        ] {
            assert!(ROUTES.contains(&handlers::route_label(path)), "{path}");
        }
    }

    #[test]
    fn unspecified_bind_addresses_are_woken_through_loopback() {
        for (bound, woken) in [
            ("0.0.0.0:80", "127.0.0.1:80"),
            ("[::]:80", "[::1]:80"),
            ("127.0.0.1:80", "127.0.0.1:80"),
            ("10.1.2.3:80", "10.1.2.3:80"),
        ] {
            let bound: SocketAddr = bound.parse().unwrap();
            assert_eq!(wake_addr(bound), woken.parse::<SocketAddr>().unwrap());
        }
    }
}
