//! The three end-to-end workloads.
//!
//! Each returns an [`Outcome`]: set-up times, per-operation latencies,
//! throughput, peak memory of the process under test, and every
//! correctness failure. Failures are counted, never dropped.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ntc::repro::{registry, run_one, Experiment, RunCtx, Scale};
use ntc_obs::HistogramSnapshot;
use ntc_serve::handlers::{handle, ServerState};
use ntc_serve::http::Request;

use crate::gen::{self, Arrival, ColdGen, Wire};
use crate::net::{self, histogram_delta, Metrics, Server};

/// The seed `repro serve` answers `/v1/run` with when a request names none
/// (its `--seed` default); in-process references must use the same one.
pub const SERVE_DEFAULT_SEED: u64 = 2014;

/// `serve_cold` arrival rate, requests per second. This mix saturates at
/// about 150 req/s from two client threads against two worker shards on a
/// 2-vCPU host (p50 starts to climb there). At half that rate, queueing
/// turns the host's ±10 % speed drift into tail spreads of 50-60 % between
/// runs; at a fifth of it, queue waits stay short and p90/p99 spread about
/// 10-15 %, so a regression can be told from the host.
pub const COLD_RATE: f64 = 30.0;

/// Set-up repetitions per run; the reported `setup_s` is their median.
pub const REPRO_SETUPS: usize = 9;
/// See [`REPRO_SETUPS`].
pub const HOT_SETUPS: usize = 5;
/// See [`REPRO_SETUPS`].
pub const COLD_SETUPS: usize = 9;

/// Every `serve_cold` arrival `j` with `j % COLD_SAMPLE_EVERY` equal to 0
/// (a batch) or 3 (an optimize) is checked byte for byte after the run.
const COLD_SAMPLE_EVERY: u64 = 16;

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Milliseconds per operation (pass or request).
    pub latencies_ms: Vec<f64>,
    /// Operations (or query items, on `serve_cold`) per second.
    pub throughput_per_s: f64,
    /// Peak resident memory of the process under test, MiB.
    pub peak_rss_mb: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed any check.
    pub failed: u64,
    /// Why the run is not correct: failed operations and run-level checks.
    pub problems: Vec<String>,
    /// Facts recorded with the output (sample counts, mix checks, …).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        // Keep the report short; the count stays exact.
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }

    fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------
// repro_paper
// ---------------------------------------------------------------------

/// One timed registry pass: a fresh context, then every experiment.
pub struct Pass {
    /// Wall time of the whole pass, ms.
    pub wall_ms: f64,
    /// Context build time, ms (only when timed per part).
    pub ctx_ms: f64,
    /// Per-experiment wall time, ms (only when timed per part).
    pub parts_ms: Vec<f64>,
    /// The artifacts, in registry order.
    pub artifacts: Vec<ntc::artifact::Artifact>,
}

/// Runs one paper-scale pass; with `per_part`, also times the context
/// build and each `run_one` call.
#[must_use]
pub fn pass(reg: &[Box<dyn Experiment>], seed: u64, per_part: bool) -> Pass {
    let start = Instant::now();
    let ctx = RunCtx::builder().seed(seed).scale(Scale::Paper).build();
    let ctx_ms = if per_part { ms(start.elapsed()) } else { 0.0 };
    let mut parts_ms = Vec::new();
    let mut artifacts = Vec::with_capacity(reg.len());
    for e in reg {
        if per_part {
            let t = Instant::now();
            artifacts.push(run_one(e.as_ref(), &ctx));
            parts_ms.push(ms(t.elapsed()));
        } else {
            artifacts.push(run_one(e.as_ref(), &ctx));
        }
    }
    Pass {
        wall_ms: ms(start.elapsed()),
        ctx_ms,
        parts_ms,
        artifacts,
    }
}

/// Checks a pass: every anchor inside its band, and artifact bytes equal
/// to the reference (the run's first pass, which becomes the reference
/// when `reference` is empty).
pub fn check_pass(p: &Pass, reference: &mut Vec<String>) -> Result<(), String> {
    let json: Vec<String> = p
        .artifacts
        .iter()
        .map(ntc::artifact::Artifact::to_json)
        .collect();
    let missed: Vec<&str> = p
        .artifacts
        .iter()
        .filter(|a| !a.passed())
        .map(|a| a.id.as_str())
        .collect();
    if reference.is_empty() {
        *reference = json;
    } else if let Some(k) = (0..json.len()).find(|&k| json[k] != reference[k]) {
        return Err(format!(
            "pass artifact {} differs from the first pass",
            p.artifacts[k].id
        ));
    }
    if missed.is_empty() {
        Ok(())
    } else {
        Err(format!("missed anchors in {}", missed.join(",")))
    }
}

/// What `repro_paper` sets up before its first pass: the engine thread
/// count, the registry, and the first context. Runs as its own process.
pub fn setup_probe(seed: u64) {
    black_box(ntc_stats::exec::threads());
    black_box(registry());
    black_box(RunCtx::builder().seed(seed).scale(Scale::Paper).build());
}

/// `repro_paper`: closed loop, one in-process caller, one registry pass
/// per operation.
#[must_use]
pub fn repro_paper(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    // Set-up runs from process start: a fresh process builds the registry
    // and the first context, then exits (see [`setup_probe`]).
    let exe = std::env::current_exe().expect("the running binary has a path");
    for _ in 0..REPRO_SETUPS {
        let t = Instant::now();
        let status = std::process::Command::new(&exe)
            .args(["--setup-probe", &seed.to_string()])
            .status();
        out.setup_s.push(secs(t.elapsed()));
        if !status.is_ok_and(|s| s.success()) {
            out.problems.push("set-up probe failed".to_string());
        }
    }
    let reg = registry();
    let mut reference = Vec::new();
    let start = Instant::now();
    while out.attempted == 0 || secs(start.elapsed()) < seconds {
        let p = pass(&reg, seed, false);
        out.attempted += 1;
        out.latencies_ms.push(p.wall_ms);
        if let Err(why) = check_pass(&p, &mut reference) {
            out.fail(why);
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let passes = out.attempted as f64;
    out.throughput_per_s = passes / (out.latencies_ms.iter().sum::<f64>() / 1e3);
    out.peak_rss_mb = net::peak_rss_mb("/proc/self/status");
    out.note("experiments", reg.len());
    out
}

// ---------------------------------------------------------------------
// serve_hot
// ---------------------------------------------------------------------

fn request(w: &Wire) -> Request {
    Request {
        method: w.method.to_string(),
        path: w.target.to_string(),
        query: String::new(),
        body: w.body.clone(),
    }
}

/// The bytes `handlers::handle` gives for `w` on `state`.
fn reference_body(w: &Wire, state: &ServerState) -> Result<String, String> {
    let reply = handle(&request(w), state);
    if reply.status == 200 {
        Ok(reply.body)
    } else {
        Err(format!(
            "reference {} {} answered {}",
            w.method, w.target, reply.status
        ))
    }
}

/// Checks one `serve_hot` response: status 200 and the reference bytes.
fn verdict(
    w: &Wire,
    r: std::io::Result<net::Response>,
    expected: Option<&str>,
) -> Result<(), String> {
    match r {
        Ok(r) if r.status != 200 => Err(format!("{} answered {}", w.target, r.status)),
        Ok(r) if Some(r.body.as_str()) != expected => Err(format!(
            "{} bytes differ from the in-process reference",
            w.target
        )),
        Ok(_) => Ok(()),
        Err(e) => Err(format!("{}: {e}", w.target)),
    }
}

/// What a traced serve run adds: `/v1/metrics` around the measured window.
pub struct ServeTrace {
    /// Snapshot taken just before the window.
    pub before: Metrics,
    /// Snapshot taken just after it.
    pub after: Metrics,
    /// How late each arrival was sent, ms (open loop only).
    pub late_ms: Vec<f64>,
}

impl ServeTrace {
    /// A server histogram's observations within the window.
    #[must_use]
    pub fn delta(&self, name: &str) -> HistogramSnapshot {
        histogram_delta(&self.before.histogram(name), &self.after.histogram(name))
    }
}

fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `serve_hot`: a closed loop with `nproc` connections against a fresh
/// `repro serve --port 0`, every distinct request warmed during set-up.
///
/// # Errors
///
/// When the server cannot be started.
pub fn serve_hot(
    repro: &Path,
    seed: u64,
    seconds: f64,
    setups: usize,
    traced: bool,
) -> Result<(Outcome, Option<ServeTrace>), String> {
    let mut out = Outcome::default();
    let distinct = gen::hot_distinct(seed);
    let state = ServerState::new(SERVE_DEFAULT_SEED);
    let expected: Vec<(Wire, String)> = distinct
        .iter()
        .map(|w| reference_body(w, &state).map(|b| (w.clone(), b)))
        .collect::<Result<_, _>>()?;
    let expected_of = |w: &Wire| {
        expected
            .iter()
            .find(|(e, _)| e == w)
            .map(|(_, b)| b.as_str())
    };

    let mut server = None;
    for _ in 0..setups.max(1) {
        drop(server.take());
        let t = Instant::now();
        let s = Server::start(repro, None)?;
        for (w, body) in &expected {
            out.attempted += 1;
            if let Err(why) = verdict(w, net::send(s.addr, w), Some(body.as_str())) {
                out.fail(format!("warm-up {why}"));
            }
        }
        out.setup_s.push(secs(t.elapsed()));
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let before = if traced {
        Some(server.metrics()?)
    } else {
        None
    };

    let next = AtomicU64::new(0);
    let shared = Mutex::new(&mut out);
    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for _ in 0..clients() {
            scope.spawn(|| {
                let mut lat = Vec::new();
                let mut failures = Vec::new();
                while start.elapsed() < window {
                    let w = gen::hot_request(seed, next.fetch_add(1, Ordering::Relaxed));
                    let t = Instant::now();
                    let r = net::send(server.addr, &w);
                    lat.push(ms(t.elapsed()));
                    if let Err(why) = verdict(&w, r, expected_of(&w)) {
                        failures.push(why);
                    }
                }
                let mut out = shared.lock().expect("no client panicked holding the lock");
                out.attempted += lat.len() as u64;
                out.latencies_ms.extend(lat);
                for f in failures {
                    out.fail(f);
                }
            });
        }
    });
    let elapsed = secs(start.elapsed());
    #[allow(clippy::cast_precision_loss)]
    let ok = (out.attempted - out.failed) as f64;
    out.throughput_per_s = ok / elapsed;
    let trace = match before {
        Some(before) => Some(ServeTrace {
            before,
            after: server.metrics()?,
            late_ms: Vec::new(),
        }),
        None => None,
    };
    out.peak_rss_mb = server.peak_rss_mb();
    drop(server);
    out.note("connections", clients());
    out.note("distinct_requests", distinct.len());
    Ok((out, trace))
}

// ---------------------------------------------------------------------
// serve_cold
// ---------------------------------------------------------------------

/// One `serve_cold` arrival as the client saw it.
struct Sent {
    j: u64,
    late_ms: f64,
    latency_ms: f64,
    result: Result<net::Response, String>,
}

/// `serve_cold`: an open loop at [`COLD_RATE`] against a fresh
/// `repro serve --store <fresh dir>`, from `nproc` client threads.
/// Latency runs from each arrival's intended send time.
///
/// # Errors
///
/// When the inputs cannot be generated or the server cannot be started.
pub fn serve_cold(
    repro: &Path,
    seed: u64,
    seconds: f64,
    setups: usize,
    run_dir: &Path,
    traced: bool,
) -> Result<(Outcome, Option<ServeTrace>), String> {
    let mut out = Outcome::default();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let n = ((COLD_RATE * seconds).floor() as u64).max(1);
    let arrivals = ColdGen::new(seed).arrivals(n)?;
    let wires: Vec<Wire> = arrivals.iter().map(Arrival::wire).collect();

    let mut server = None;
    for k in 0..setups.max(1) {
        drop(server.take());
        let store = run_dir.join(format!("cold-store-{k}"));
        std::fs::create_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;
        let t = Instant::now();
        let s = Server::start(repro, Some(&store))?;
        out.setup_s.push(secs(t.elapsed()));
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let before = if traced {
        Some(server.metrics()?)
    } else {
        None
    };

    let next = AtomicU64::new(0);
    let sent = Mutex::new(Vec::with_capacity(wires.len()));
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for _ in 0..clients() {
            scope.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                let Some(w) = usize::try_from(j).ok().and_then(|k| wires.get(k)) else {
                    break;
                };
                #[allow(clippy::cast_precision_loss)]
                let intended = start + Duration::from_secs_f64(j as f64 / COLD_RATE);
                let now = Instant::now();
                if intended > now {
                    std::thread::sleep(intended - now);
                }
                let late_ms = ms(Instant::now().saturating_duration_since(intended));
                let result = net::send(server.addr, w).map_err(|e| e.to_string());
                let latency_ms = ms(intended.elapsed());
                sent.lock()
                    .expect("no client panicked holding the lock")
                    .push(Sent {
                        j,
                        late_ms,
                        latency_ms,
                        result,
                    });
            });
        }
    });
    let elapsed = secs(start.elapsed());
    let metrics = server.metrics()?;
    out.peak_rss_mb = server.peak_rss_mb();
    drop(server);
    for k in 0..setups.max(1) {
        let _ = std::fs::remove_dir_all(run_dir.join(format!("cold-store-{k}")));
    }

    let mut sent = sent.into_inner().expect("clients joined");
    sent.sort_by_key(|s| s.j);
    let state = ServerState::new(SERVE_DEFAULT_SEED);
    let (mut items_ok, mut energy_ok, mut optimize_ok, mut checked) = (0u64, 0u64, 0u64, 0u64);
    let mut late_ms = Vec::with_capacity(sent.len());
    for s in &sent {
        out.attempted += 1;
        out.latencies_ms.push(s.latency_ms);
        late_ms.push(s.late_ms);
        let arrival = &arrivals[usize::try_from(s.j).expect("index fits")];
        let w = &wires[usize::try_from(s.j).expect("index fits")];
        let r = match &s.result {
            Ok(r) if r.status == 200 => r,
            Ok(r) => {
                out.fail(format!("{} answered {}", w.target, r.status));
                continue;
            }
            Err(e) => {
                out.fail(format!("{}: {e}", w.target));
                continue;
            }
        };
        let sampled = matches!(s.j % COLD_SAMPLE_EVERY, 0 | 3);
        let expected = match arrival {
            Arrival::Batch(items) => {
                items_ok += items.len() as u64;
                energy_ok += items
                    .iter()
                    .filter(|q| matches!(q.kind, ntc::api::QueryKind::Energy { .. }))
                    .count() as u64;
                sampled.then(|| reference_body(w, &state))
            }
            Arrival::Optimize(req) => {
                optimize_ok += 1;
                sampled.then(|| Ok(ntc::optimize::optimize(req).to_json()))
            }
        };
        match expected {
            Some(Ok(body)) if body == r.body => checked += 1,
            Some(Ok(_)) => out.fail(format!(
                "{} bytes differ from the in-process reference",
                w.target
            )),
            Some(Err(why)) => out.fail(why),
            None => {}
        }
    }
    #[allow(clippy::cast_precision_loss)]
    {
        out.throughput_per_s = items_ok as f64 / elapsed;
    }

    // The mix must really miss: every optimize computed, and every energy
    // item missed the memo for both of its lookups.
    let computed = metrics.value("serve.optimize.computed");
    let misses = metrics.value("memcalc.cache.miss");
    #[allow(clippy::cast_precision_loss)]
    if computed != optimize_ok as f64 || metrics.value("serve.optimize.memo_hit") != 0.0 {
        out.problems.push(format!(
            "{optimize_ok} optimizes answered but {computed} computed"
        ));
    }
    #[allow(clippy::cast_precision_loss)]
    if misses < 2.0 * energy_ok as f64 {
        out.problems.push(format!(
            "{misses} memo misses for {energy_ok} unseen energy points"
        ));
    }
    out.note("rate_per_s", COLD_RATE);
    out.note("client_threads", clients());
    out.note("responses_checked", checked);
    out.note("memo_hit_rate", metrics.value("serve.cache.hit_rate"));
    out.note("memo_misses", misses);
    out.note("optimize_computed", computed);
    out.note("late_ms_max", late_ms.iter().copied().fold(0.0, f64::max));
    let trace = before.map(|before| ServeTrace {
        before,
        after: metrics,
        late_ms,
    });
    Ok((out, trace))
}
