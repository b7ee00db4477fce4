//! The traced run: replays each workload's generated inputs through the
//! public entry point of every layer, timing each call from the outside,
//! and checks that the parts add up to the end-to-end figures.
//!
//! The end-to-end runs stay untraced; the difference between a traced and
//! an untraced registry pass is reported as the tracing overhead.

use std::hint::black_box;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

use ntc::api::{QueryKind, QueryRequest, QueryResponse};
use ntc::artifact::json::{parse, JsonValue};
use ntc::fit::{paper_platform_model, FitSolver};
use ntc::repro::registry;
use ntc::store::{ArtifactKey, Store};
use ntc_memcalc::cache::CachedSoc;
use ntc_memcalc::soc::SocEnergyModel;
use ntc_serve::handlers::{handle, ServerState};
use ntc_serve::query::{eval, Models};
use ntc_sim::memory::FaultInjector;
use ntc_sram::failure::AccessLaw;
use ntc_stats::sweep::voltage_grid;

use crate::gen::{self, mix, Arrival, ColdGen};
use crate::net::{self, histogram_mean};
use crate::stats::{closure_residual, mean, median, tail};
use crate::workloads::{self, check_pass, pass, ServeTrace, SERVE_DEFAULT_SEED};

/// Largest share by which the parts may miss the whole in a closure check.
pub const CLOSURE_TOLERANCE: f64 = 0.02;

/// Accesses per fig5 voltage point in the fault-injection replay.
const MASK_ACCESSES: u64 = 20_000;
/// Trials per point in the Monte-Carlo sweep replay (fig5's paper size).
const MC_TRIALS: u64 = 200_000;
/// Optimize requests, and cold batches, replayed through single layers.
const OPTIMIZES: usize = 6;
const BATCHES: usize = 12;
/// Rounds over the distinct hot requests for the per-request layers.
const HOT_ROUNDS: usize = 40;

/// Which end-to-end metric each per-layer metric should move, on which
/// workload (`workload/metric`). Printed beside every traced value.
#[must_use]
pub fn prediction(metric: &str) -> &'static str {
    match metric {
        m if m.starts_with("repro.") => {
            "repro_paper/latency_p50_ms, by the experiment's share of a pass"
        }
        "sim.fault_mask_ns" => "repro_paper/latency_p50_ms (fig5); no change on serve_*",
        "stats.mc_samples_per_s" | "sim.platform_run_ms" => "repro_paper/latency_p50_ms",
        "exec.cpu_per_wall" => "explains parallelism moves in repro_paper/latency_p50_ms",
        "optimize.request_ms" => "serve_cold/latency_p90_ms; repro_paper (ablation_optimize, ~2 %)",
        "artifact.encode_ms" => "serve_hot/latency_p99_ms (the /v1/run bodies)",
        "serve.handle_us" => {
            "bounds what eval or codec work can move on serve_hot (predicted no change)"
        }
        "serve.pre_accept_ms" => "serve_hot/latency_p50_ms and throughput_per_s",
        "http.read_request_us" => "serve_hot/latency_p50_ms",
        "api.decode_us" | "api.encode_us" => "serve_cold/latency_p50_ms; no change on serve_hot",
        "memcalc.hit_rate_hot" => "about 1: serve_hot lookups all hit the memo",
        "memcalc.hit_rate_cold" => "below serve_hot's: serve_cold energy points all miss",
        "loadgen.late_ms_p99" => "none: a late generator invalidates serve_cold figures",
        m if m.starts_with("serve.queue_wait") || m.starts_with("serve.handler") => {
            "serve_cold/latency_p90_ms"
        }
        m if m.starts_with("store.") => "serve_cold (the store write path)",
        m if m.starts_with("query.") || m.starts_with("fit.") || m.starts_with("memcalc.") => {
            "serve_cold/latency_p50_ms"
        }
        _ => "none: a check on the trace itself",
    }
}

/// One per-layer metric: name, unit, value.
pub type Metric = (String, &'static str, f64);

/// What the traced run produced.
#[derive(Default)]
pub struct Traced {
    /// Every per-layer metric, in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed across every phase.
    pub attempted: u64,
    /// See [`Traced::attempted`].
    pub failed: u64,
    /// Failed checks.
    pub problems: Vec<String>,
}

impl Traced {
    fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push((name.into(), unit, value));
    }

    fn absorb(&mut self, o: &workloads::Outcome) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.problems.extend(o.problems.iter().cloned());
    }

    fn close(&mut self, what: &str, residual: f64) {
        self.put(format!("trace.{what}_closure_pct"), "%", residual * 100.0);
        if !residual.is_finite() || residual > CLOSURE_TOLERANCE {
            self.problems.push(format!(
                "{what}: parts miss the whole by {:.2} % (tolerance {:.0} %)",
                residual * 100.0,
                CLOSURE_TOLERANCE * 100.0
            ));
        }
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Runs every phase of the traced run.
///
/// # Errors
///
/// When a phase cannot run at all (a server that does not start).
pub fn run(repro: &Path, seed: u64, seconds: f64, run_dir: &Path) -> Result<Traced, String> {
    let mut t = Traced::default();
    repro_phase(&mut t, seed);
    layer_phase(&mut t, seed, run_dir)?;
    serve_phases(&mut t, repro, seed, seconds, run_dir)?;
    Ok(t)
}

/// Untraced and per-part-timed registry passes, alternated U T T U twice so
/// slow drift of the host cancels out of the overhead figure.
fn repro_phase(t: &mut Traced, seed: u64) {
    let reg = registry();
    let mut reference = Vec::new();
    let (mut untraced, mut traced, mut cpu_per_wall) = (Vec::new(), Vec::new(), Vec::new());
    for per_part in [false, true, true, false].repeat(2) {
        let cpu = net::cpu_seconds();
        let p = pass(&reg, seed, per_part);
        t.attempted += 1;
        if let Err(why) = check_pass(&p, &mut reference) {
            t.failed += 1;
            t.problems.push(why);
        }
        if per_part {
            traced.push(p);
        } else {
            cpu_per_wall.push((net::cpu_seconds() - cpu) / (p.wall_ms / 1e3));
            untraced.push(p.wall_ms);
        }
    }
    for (k, e) in reg.iter().enumerate() {
        let part: Vec<f64> = traced.iter().map(|p| p.parts_ms[k]).collect();
        t.put(format!("repro.{}_ms", e.id()), "ms", mean(&part));
    }
    t.put(
        "repro.ctx_build_ms",
        "ms",
        mean(&traced.iter().map(|p| p.ctx_ms).collect::<Vec<_>>()),
    );
    let worst = traced
        .iter()
        .map(|p| {
            let mut parts = p.parts_ms.clone();
            parts.push(p.ctx_ms);
            closure_residual(&parts, p.wall_ms)
        })
        .fold(0.0, f64::max);
    t.close("repro", worst);
    let traced_ms = mean(&traced.iter().map(|p| p.wall_ms).collect::<Vec<_>>());
    let untraced_ms = mean(&untraced);
    t.put(
        "trace.overhead_pct",
        "%",
        (traced_ms - untraced_ms) / untraced_ms * 100.0,
    );
    t.put("exec.cpu_per_wall", "ratio", mean(&cpu_per_wall));

    let artifacts = &traced[0].artifacts;
    let encode: Vec<f64> = (0..5)
        .map(|_| {
            let s = Instant::now();
            for a in artifacts {
                black_box(a.to_json());
            }
            us(s) / 1e3
        })
        .collect();
    t.put("artifact.encode_ms", "ms", median(&encode));
}

/// The cold batches and optimizes the single-layer replays use.
fn cold_inputs(seed: u64) -> (Vec<Vec<QueryRequest>>, Vec<ntc::api::OptimizeRequest>) {
    let g = ColdGen::new(seed);
    let (mut batches, mut optimizes) = (Vec::new(), Vec::new());
    let mut j = 0;
    while batches.len() < BATCHES || optimizes.len() < OPTIMIZES {
        match g.arrival(j).expect("a few arrivals fit the generator") {
            Arrival::Batch(items) if batches.len() < BATCHES => batches.push(items),
            Arrival::Optimize(req) if optimizes.len() < OPTIMIZES => optimizes.push(req),
            _ => {}
        }
        j += 1;
    }
    (batches, optimizes)
}

/// Single-layer replays, each on the workload inputs the layer serves.
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn layer_phase(t: &mut Traced, seed: u64, run_dir: &Path) -> Result<(), String> {
    // ntc-sim: fig5's fault-injection loop on its voltage points.
    let points: Vec<(AccessLaw, f64)> = [
        (AccessLaw::commercial_40nm(), voltage_grid(0.55, 0.84, 20)),
        (AccessLaw::cell_based_40nm(), voltage_grid(0.30, 0.54, 20)),
    ]
    .into_iter()
    .flat_map(|(law, grid)| grid.into_iter().map(move |v| (law, v)))
    .collect();
    let s = Instant::now();
    let mut flips = 0u32;
    for (k, (law, vdd)) in points.iter().enumerate() {
        let mut inj = FaultInjector::from_law(law, *vdd, mix(seed ^ k as u64));
        for _ in 0..MASK_ACCESSES {
            flips = flips.wrapping_add(inj.mask(32).count_ones());
        }
    }
    black_box(flips);
    t.put(
        "sim.fault_mask_ns",
        "ns",
        us(s) * 1e3 / (MASK_ACCESSES * points.len() as u64) as f64,
    );

    // ntc-stats through ntc-sram: fig5's sharded Monte-Carlo sweep.
    let grid = voltage_grid(0.30, 0.54, 12);
    let s = Instant::now();
    black_box(AccessLaw::cell_based_40nm().mc_ber_sweep(&grid, MC_TRIALS, mix(seed)));
    t.put(
        "stats.mc_samples_per_s",
        "1/s",
        (MC_TRIALS * grid.len() as u64) as f64 / (us(s) / 1e6),
    );

    // ntc-sim + ntc-ocean: the Figure 8 and 9 platform runs.
    let s = Instant::now();
    black_box(ntc::experiments::figure8_seeded(seed));
    black_box(ntc::experiments::figure9_seeded(seed));
    t.put("sim.platform_run_ms", "ms", us(s) / 1e3);

    let (batches, optimizes) = cold_inputs(seed);

    // ntc::optimize, then ntc::store on the optimize bodies.
    let mut bodies = Vec::new();
    let s = Instant::now();
    for req in &optimizes {
        bodies.push((
            req.request_hash_hex(),
            ntc::optimize::optimize(req).to_json(),
        ));
    }
    t.put(
        "optimize.request_ms",
        "ms",
        us(s) / 1e3 / optimizes.len() as f64,
    );
    let store_dir = run_dir.join("trace-store");
    let store = Store::open(&store_dir).map_err(|e| format!("trace store: {e}"))?;
    let keys: Vec<ArtifactKey> = bodies
        .iter()
        .map(|(hex, _)| {
            ArtifactKey::new(&format!("optimize-{hex}"), ntc::repro::Scale::Quick, seed)
        })
        .collect();
    let s = Instant::now();
    for (key, (_, body)) in keys.iter().zip(&bodies) {
        store
            .put_artifact(key, body)
            .map_err(|e| format!("store put: {e}"))?;
    }
    t.put("store.put_us", "us", us(s) / bodies.len() as f64);
    let s = Instant::now();
    let read: Vec<Option<String>> = keys.iter().map(|k| store.get_artifact(k)).collect();
    t.put("store.get_us", "us", us(s) / bodies.len() as f64);
    t.attempted += bodies.len() as u64;
    for ((_, body), got) in bodies.iter().zip(&read) {
        if got.as_deref() != Some(body.as_str()) {
            t.failed += 1;
            t.problems
                .push("store returned other bytes than were put".to_string());
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);

    // ntc-serve handlers, and the http framing, on the serve_hot requests.
    let hot = gen::hot_distinct(seed);
    let requests: Vec<ntc_serve::http::Request> = hot
        .iter()
        .map(|w| ntc_serve::http::Request {
            method: w.method.to_string(),
            path: w.target.to_string(),
            query: String::new(),
            body: w.body.clone(),
        })
        .collect();
    let state = ServerState::new(SERVE_DEFAULT_SEED);
    for r in &requests {
        black_box(handle(r, &state));
    }
    let s = Instant::now();
    for _ in 0..HOT_ROUNDS {
        for r in &requests {
            black_box(handle(r, &state));
        }
    }
    t.put(
        "serve.handle_us",
        "us",
        us(s) / (HOT_ROUNDS * requests.len()) as f64,
    );
    t.put("http.read_request_us", "us", read_request_us(&hot)?);

    // ntc::api decode/encode, ntc-serve query eval, ntc::fit, ntc-memcalc,
    // on the serve_cold batches.
    let texts: Vec<String> = batches
        .iter()
        .map(|b| Arrival::Batch(b.clone()).wire().body)
        .collect();
    let s = Instant::now();
    for text in &texts {
        let v = parse(text).map_err(|e| format!("cold batch: {e}"))?;
        if let Some(JsonValue::Arr(items)) = v.get("queries") {
            for item in items {
                black_box(QueryRequest::from_json_value(item).map_err(|e| e.to_string())?);
            }
        }
    }
    t.put("api.decode_us", "us", us(s) / texts.len() as f64);

    let (mut cold_us, mut hot_us, mut responses) = (0.0, 0.0, Vec::new());
    for batch in &batches {
        let models = Models::paper();
        let s = Instant::now();
        let out: Vec<QueryResponse> = batch
            .iter()
            .map(|q| eval(q, &models))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        cold_us += us(s);
        let s = Instant::now();
        for q in batch {
            black_box(eval(q, &models).map_err(|e| e.to_string())?);
        }
        hot_us += us(s);
        responses.push(out);
    }
    let items = (BATCHES * gen::COLD_BATCH) as f64;
    t.put("query.eval_cold_us", "us", cold_us / items);
    t.put("query.eval_hot_us", "us", hot_us / items);

    let s = Instant::now();
    for out in &responses {
        let v = JsonValue::Obj(vec![(
            "results".into(),
            JsonValue::Arr(out.iter().map(QueryResponse::to_json_value).collect()),
        )]);
        let mut text = String::new();
        v.write_compact(&mut text);
        black_box(text);
    }
    t.put("api.encode_us", "us", us(s) / responses.len() as f64);

    let (mut solves, mut solve_us) = (0u32, 0.0);
    for batch in &batches {
        let platform = paper_platform_model();
        for q in batch {
            if let QueryKind::Vmin {
                scheme,
                memory,
                fit_target,
                frequency_hz: Some(f),
                grid,
            } = q.kind
            {
                let law = match memory {
                    ntc::api::Memory::Commercial40 => AccessLaw::commercial_40nm(),
                    _ => AccessLaw::cell_based_40nm(),
                };
                let s = Instant::now();
                black_box(
                    FitSolver::new(law, fit_target)
                        .with_grid(grid)
                        .solve(scheme, f, |v| platform.f_max(v)),
                );
                solve_us += us(s);
                solves += 1;
            }
        }
    }
    t.put("fit.solve_us", "us", solve_us / f64::from(solves));

    let (mut lookups, mut miss_us) = (0u32, 0.0);
    let cots = CachedSoc::new(SocEnergyModel::exg_processor_40nm());
    let cell = CachedSoc::new(SocEnergyModel::exg_processor_cell_based_40nm());
    for q in batches.iter().flatten() {
        if let QueryKind::Energy { model, vdd, .. } = q.kind {
            let m = if model == ntc::api::EnergyModel::Cots40 {
                &cots
            } else {
                &cell
            };
            let s = Instant::now();
            black_box(m.f_max(vdd) + m.energy_per_cycle(vdd));
            miss_us += us(s);
            lookups += 1;
        }
    }
    if cots.stats().hits + cell.stats().hits != 0 {
        t.problems
            .push("memcalc replay hit the memo on unseen voltages".to_string());
    }
    t.put("memcalc.miss_us", "us", miss_us / f64::from(lookups));
    Ok(())
}

/// Mean time `http::read_request` takes to frame one serve_hot request
/// already waiting in a loopback socket.
fn read_request_us(hot: &[gen::Wire]) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("loopback: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let mut total = 0.0;
    for _ in 0..HOT_ROUNDS / 4 {
        for w in hot {
            let mut client = TcpStream::connect(addr).map_err(io)?;
            let raw = format!(
                "{} {} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{}",
                w.method,
                w.target,
                w.body.len(),
                w.body
            );
            client.write_all(raw.as_bytes()).map_err(io)?;
            let (mut server, _) = listener.accept().map_err(io)?;
            let s = Instant::now();
            let req = ntc_serve::http::read_request(&mut server).map_err(|e| e.to_string())?;
            total += us(s);
            if req.body != w.body || req.path != w.target {
                return Err("http::read_request framed other bytes than were sent".to_string());
            }
        }
    }
    #[allow(clippy::cast_precision_loss)]
    Ok(total / ((HOT_ROUNDS / 4) * hot.len()) as f64)
}

/// Client latency against the server's own split, over one traced window.
/// Returns `(pre_accept_ms, residual)`.
fn serve_split(latencies_ms: &[f64], trace: &ServeTrace) -> (f64, f64) {
    let client = mean(latencies_ms);
    let server = histogram_mean(&trace.delta("serve.latency_ms"));
    let queue = histogram_mean(&trace.delta("serve.queue_wait_ms"));
    let handler = histogram_mean(&trace.delta("serve.handler_ms"));
    let pre_accept = client - server;
    (
        pre_accept,
        closure_residual(&[pre_accept, queue, handler], client),
    )
}

/// Live windows against fresh servers: serve_hot, then serve_cold.
fn serve_phases(
    t: &mut Traced,
    repro: &Path,
    seed: u64,
    seconds: f64,
    run_dir: &Path,
) -> Result<(), String> {
    let (hot, trace) = workloads::serve_hot(repro, seed, (seconds * 0.25).max(1.0), 1, true)?;
    t.absorb(&hot);
    let trace = trace.expect("traced run");
    let (pre_accept, residual) = serve_split(&hot.latencies_ms, &trace);
    t.put("serve.pre_accept_ms", "ms", pre_accept);
    let hot_hits = trace.after.value("serve.cache.hit_rate");
    t.put("memcalc.hit_rate_hot", "ratio", hot_hits);
    t.close("serve_hot", residual);

    let (cold, trace) =
        workloads::serve_cold(repro, seed, (seconds * 0.4).max(1.0), 1, run_dir, true)?;
    t.absorb(&cold);
    let trace = trace.expect("traced run");
    let (_, residual) = serve_split(&cold.latencies_ms, &trace);
    for (name, hist) in [
        ("queue_wait", "serve.queue_wait_ms"),
        ("handler", "serve.handler_ms"),
    ] {
        let h = trace.delta(hist);
        t.put(
            format!("serve.{name}_p50_ms"),
            "ms",
            h.quantile(0.5).unwrap_or(f64::NAN),
        );
        t.put(
            format!("serve.{name}_p90_ms"),
            "ms",
            h.quantile(0.9).unwrap_or(f64::NAN),
        );
    }
    t.close("serve_cold", residual);
    let cold_hits = trace.after.value("serve.cache.hit_rate");
    t.put("memcalc.hit_rate_cold", "ratio", cold_hits);
    if cold_hits >= hot_hits {
        t.problems.push(format!(
            "memo hit rate {cold_hits} on serve_cold is not below serve_hot's {hot_hits}"
        ));
    }
    let late = tail(&trace.late_ms, 0.99);
    t.put("loadgen.late_ms_p99", "ms", late.value);
    Ok(())
}
