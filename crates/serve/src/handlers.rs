//! Request routing and response rendering.
//!
//! Every handler is a pure function of (request, [`ServerState`]) up to
//! memoization — equal requests produce byte-identical bodies no matter
//! which worker shard answers, because every payload is rendered
//! through the artifact layer's deterministic [`JsonValue`] writer (or,
//! for `/v1/query`, [`QueryResponse::write_compact`](ntc::api::QueryResponse::write_compact),
//! which writes the same bytes without the tree) and the memo tables
//! only change *when* a model or experiment is evaluated, never what it
//! produces.
//!
//! Routes (every path lives under `/v1`; anything else is a 404):
//!
//! | method | path                 | answer                                    |
//! |--------|----------------------|-------------------------------------------|
//! | GET    | `/v1/api`            | machine-readable endpoint/DTO schema      |
//! | GET    | `/v1/experiments`    | registry listing with paper references    |
//! | GET    | `/v1/artifact/{id}`  | artifact JSON (`?scale=quick\|paper`)     |
//! | POST   | `/v1/run`            | artifact + check verdicts for one run     |
//! | POST   | `/v1/query`          | fine-grained model queries (single/batch) |
//! | POST   | `/v1/optimize`       | design-space autotuner, memoized by hash  |
//! | GET    | `/v1/healthz`        | liveness probe + store/format version     |
//! | GET    | `/v1/metrics`        | `ntc-obs` snapshot (`?format=json\|prom`) |
//! | GET    | `/v1/progress`       | sweep progress: in-process + store fleet  |
//!
//! Errors are structured: every non-2xx body is
//! `{"error":{"kind":..., "message":...}}` with the stable
//! [`NtcError::kind`] vocabulary, so scripted clients can branch on
//! `kind` instead of scraping messages.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, PoisonError};

use ntc::api::{self, ErrorBody, OptimizeRequest, OptimizeResponse, QueryRequest, RunRequest};
use ntc::artifact::json::{parse, JsonValue};
use ntc::artifact::{Artifact, Check};
use ntc::error::NtcError;
use ntc::repro::{find_id, registry, run_one, ExperimentId, RunCtx, Scale};
use ntc::store::{ArtifactKey, Store};

use crate::http::Request;
use crate::query::{eval, Models};

type RunKey = (ExperimentId, Scale, u64);

/// A size-capped LRU memo of completed work. Recency is a monotonic
/// use-stamp; eviction scans for the stale-est entry (the memo is a few
/// dozen entries, so O(n) beats carrying a linked-list dependency).
#[derive(Debug, Default)]
struct BoundedMemo<K, V> {
    cap: usize,
    tick: u64,
    map: HashMap<K, (V, u64)>,
}

impl<K: Eq + Hash + Copy, V: Clone> BoundedMemo<K, V> {
    fn new(cap: usize) -> Self {
        BoundedMemo { cap, tick: 0, map: HashMap::new() }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(value, used)| {
            *used = tick;
            value.clone()
        })
    }

    fn insert(&mut self, key: K, value: V) {
        if self.cap == 0 {
            return;
        }
        if !self.map.contains_key(&key) && self.map.len() >= self.cap {
            if let Some(stale) = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k)
            {
                self.map.remove(&stale);
                ntc_obs::counter_add("serve.cache.evictions", 1);
            }
        }
        self.tick += 1;
        self.map.insert(key, (value, self.tick));
    }
}

/// Shared, thread-safe state behind all worker shards.
///
/// The memo locks recover a poisoned guard: every `BoundedMemo`
/// update leaves a valid map at each step (at worst one entry is
/// missing), so a panic while a lock is held must not fail every later
/// `/v1/run` or `/v1/optimize`.
#[derive(Debug)]
pub struct ServerState {
    /// The memoized paper models `/v1/query` evaluates against.
    pub models: Models,
    /// Seed used when a request does not carry one.
    pub default_seed: u64,
    /// Completed experiment runs, keyed by (id, scale, seed) — bounded,
    /// LRU-evicted.
    run_memo: Mutex<BoundedMemo<RunKey, Artifact>>,
    /// Completed optimize response bodies, keyed by the canonical
    /// request hash — same bound and eviction policy as the run memo.
    optimize_memo: Mutex<BoundedMemo<u64, String>>,
    /// Durable artifact store consulted between the memo and compute.
    store: Option<Store>,
}

impl ServerState {
    /// Fresh state with empty memo tables, no store, default memo cap.
    pub fn new(default_seed: u64) -> Self {
        Self::with_store(default_seed, None, 64)
    }

    /// Fresh state backed by an optional artifact store and a memo cap
    /// (`0` = no in-memory memo; every repeat goes to the store).
    pub fn with_store(default_seed: u64, store: Option<Store>, memo_cap: usize) -> Self {
        ServerState {
            models: Models::paper(),
            default_seed,
            run_memo: Mutex::new(BoundedMemo::new(memo_cap)),
            optimize_memo: Mutex::new(BoundedMemo::new(memo_cap)),
            store,
        }
    }

    /// Runs `id` at (scale, seed), answering from the memo, then the
    /// store, then actual compute — in that order. Artifacts are pure
    /// functions of (id, seed, scale), so a cached answer is
    /// indistinguishable from a fresh one; the source surfaces only in
    /// counters (`serve.run.memo_hit`, `store.hit`/`store.miss`,
    /// `serve.run.computed`).
    fn run_memoized(&self, id: ExperimentId, scale: Scale, seed: u64) -> Artifact {
        let key = (id, scale, seed);
        if let Some(done) = self.run_memo.lock().unwrap_or_else(PoisonError::into_inner).get(&key) {
            ntc_obs::counter_add("serve.run.memo_hit", 1);
            return done;
        }
        let store_key = ArtifactKey::new(&id.to_string(), scale, seed);
        if let Some(store) = &self.store {
            if let Some(json) = store.get_artifact(&store_key) {
                if let Ok(artifact) = Artifact::from_json(&json) {
                    self.run_memo
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(key, artifact.clone());
                    return artifact;
                }
            }
        }
        ntc_obs::counter_add("serve.run.computed", 1);
        let ctx = RunCtx::builder().seed(seed).scale(scale).build();
        let artifact = run_one(find_id(id).as_ref(), &ctx);
        if let Some(store) = &self.store {
            // Best-effort: a failed publish only costs a future compute.
            let _ = store.put_artifact(&store_key, &artifact.to_json());
        }
        self.run_memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, artifact.clone());
        artifact
    }

    /// Answers one optimize request: memo, then store, then the actual
    /// search — in that order. The key everywhere is the FNV-64 of the
    /// canonical request rendering ([`OptimizeRequest::request_hash`]),
    /// so two clients naming the same design space in different axis
    /// orders share one cache entry and get byte-identical bodies.
    fn optimize_memoized(&self, req: &OptimizeRequest) -> String {
        let hash = req.request_hash();
        if let Some(body) = self
            .optimize_memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&hash)
        {
            ntc_obs::counter_add("serve.optimize.memo_hit", 1);
            return body;
        }
        // `request_hash_hex` of the hash already in hand: rendering the
        // canonical request again would cost as much as the first time.
        let hex = format!("{hash:016x}");
        // Optimize responses have no scale; the hash alone carries the
        // whole request, and the seed slot mirrors the request's only
        // to keep the store's file names human-scannable.
        let store_key = ArtifactKey::new(&format!("optimize-{hex}"), Scale::Quick, req.seed);
        if let Some(store) = &self.store {
            if let Some(body) = store.get_artifact(&store_key) {
                // A stored body must still parse and answer *this*
                // request; anything else is treated as a miss.
                if OptimizeResponse::from_json(&body).is_ok_and(|r| r.request_hash == hex) {
                    self.optimize_memo
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(hash, body.clone());
                    return body;
                }
            }
        }
        ntc_obs::counter_add("serve.optimize.computed", 1);
        let body = ntc::optimize::optimize(req).to_json();
        if let Some(store) = &self.store {
            let _ = store.put_artifact(&store_key, &body);
        }
        self.optimize_memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(hash, body.clone());
        body
    }
}

/// Content type of the Prometheus text exposition format the
/// `/v1/metrics?format=prom` endpoint speaks.
pub const PROM_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A routed response: status, body and the content type to frame it with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Reply {
    /// A JSON reply (the default for every route).
    #[must_use]
    pub fn json(status: u16, body: String) -> Reply {
        Reply { status, content_type: "application/json", body }
    }
}

/// Splits the `/v1` version prefix off a request path, returning the
/// route it names; `None` for a path outside `/v1`.
fn versioned(path: &str) -> Option<&str> {
    path.strip_prefix("/v1").filter(|rest| rest.starts_with('/'))
}

/// The bounded per-route label a path maps to, used in
/// `serve.route.<label>.*` metric names. A fixed vocabulary — paths
/// never reach metric names, so an attacker spraying random URLs
/// cannot explode the registry.
#[must_use]
pub fn route_label(path: &str) -> &'static str {
    match versioned(path) {
        Some("/healthz") => "healthz",
        Some("/metrics") => "metrics",
        Some("/progress") => "progress",
        Some("/experiments") => "experiments",
        Some("/run") => "run",
        Some("/query") => "query",
        Some("/optimize") => "optimize",
        Some("/api") => "api",
        Some(p) if p.starts_with("/artifact/") => "artifact",
        _ => "other",
    }
}

/// A structured error body: `{"error":{"kind":...,"message":...}}`.
pub fn error_body(kind: &str, message: &str) -> String {
    ErrorBody::new(kind, message).to_json()
}

/// The HTTP status an [`NtcError`] maps to.
fn status_of(err: &NtcError) -> u16 {
    match err {
        NtcError::UnknownExperiment { .. } => 404,
        NtcError::Io { .. } => 500,
        _ => 400,
    }
}

fn err_response(err: &NtcError) -> (u16, String) {
    (status_of(err), ErrorBody::from_error(err).to_json())
}

fn compact(v: &JsonValue) -> String {
    let mut out = String::new();
    v.write_compact(&mut out);
    out
}

fn check_json(c: &Check) -> JsonValue {
    JsonValue::Obj(vec![
        ("artifact".into(), JsonValue::Str(c.artifact.clone())),
        ("label".into(), JsonValue::Str(c.label.clone())),
        ("measured".into(), JsonValue::num(c.measured)),
        ("paper".into(), JsonValue::num(c.paper.paper)),
        ("band".into(), JsonValue::Str(c.paper.band.to_string())),
        ("margin".into(), JsonValue::Str(c.margin_display())),
        ("passes".into(), JsonValue::Bool(c.passes())),
        ("at_risk".into(), JsonValue::Bool(c.at_risk())),
    ])
}

fn handle_experiments() -> (u16, String) {
    let entries: Vec<JsonValue> = registry()
        .iter()
        .map(|e| {
            JsonValue::Obj(vec![
                ("id".into(), JsonValue::Str(e.id().to_string())),
                ("description".into(), JsonValue::Str(e.description().to_string())),
                ("paper_ref".into(), JsonValue::Str(e.paper_ref().to_string())),
            ])
        })
        .collect();
    let body = JsonValue::Obj(vec![("experiments".into(), JsonValue::Arr(entries))]);
    (200, compact(&body))
}

/// `GET /v1/artifact/{id}?scale=...` — the artifact alone, rendered
/// with [`Artifact::to_json`], i.e. byte-identical to
/// `repro run {id} --format json`. This is what lets a served artifact
/// be `cmp`'d against `baselines/` or fed to `repro diff` unchanged.
fn handle_artifact(req: &Request, route: &str, state: &ServerState) -> (u16, String) {
    let id = match route.trim_start_matches("/artifact/").parse::<ExperimentId>() {
        Ok(id) => id,
        Err(e) => return err_response(&e),
    };
    let scale = match api::parse_scale(req.query_param("scale")) {
        Ok(s) => s,
        Err(e) => return err_response(&e),
    };
    let artifact = state.run_memoized(id, scale, state.default_seed);
    (200, artifact.to_json())
}

fn handle_run(req: &Request, state: &ServerState) -> (u16, String) {
    let parsed = parse(&req.body)
        .map_err(NtcError::from)
        .and_then(|v| RunRequest::from_json_value(&v));
    let run = match parsed {
        Ok(r) => r,
        Err(e) => return err_response(&e),
    };
    let seed = run.seed.unwrap_or(state.default_seed);
    let artifact = state.run_memoized(run.id, run.scale, seed);
    let checks = artifact.checks();
    let passed = checks.iter().all(Check::passes);
    #[allow(clippy::cast_precision_loss)]
    let response = JsonValue::Obj(vec![
        ("id".into(), JsonValue::Str(run.id.to_string())),
        ("scale".into(), JsonValue::Str(api::scale_str(run.scale).into())),
        ("seed".into(), JsonValue::num(seed as f64)),
        ("artifact".into(), artifact.to_json_value()),
        ("checks".into(), JsonValue::Arr(checks.iter().map(check_json).collect())),
        ("passed".into(), JsonValue::Bool(passed)),
    ]);
    (200, compact(&response))
}

/// Buffer bytes reserved per `/v1/query` item; a response item is
/// 100–250 bytes.
const QUERY_ITEM_BYTES: usize = 256;

/// Items a `/v1/query` body is pre-sized for, at most. A 1 MiB request
/// can list ~350k (failing) items, which must not reserve ~90 MB up
/// front; a larger batch grows the buffer as it writes.
const QUERY_PRESIZED_ITEMS: usize = 256;

fn handle_query(req: &Request, state: &ServerState) -> (u16, String) {
    let body = match parse(&req.body) {
        Ok(v) => v,
        Err(e) => return err_response(&NtcError::from(e)),
    };
    // Either one query object, or {"queries": [...]} for a batch that
    // shares the memo warm-up across entries.
    let (batch, items) = match body.get("queries") {
        Some(JsonValue::Arr(qs)) => (true, qs.as_slice()),
        Some(_) => {
            return err_response(&NtcError::invalid_param("queries", "expected an array"));
        }
        None => (false, std::slice::from_ref(&body)),
    };
    if items.is_empty() {
        return err_response(&NtcError::invalid_param("queries", "batch must not be empty"));
    }
    // Each response item is written straight into the body as soon as it
    // is evaluated; the first failing item discards the body.
    let mut out = String::with_capacity(items.len().min(QUERY_PRESIZED_ITEMS) * QUERY_ITEM_BYTES);
    if batch {
        out.push_str("{\"results\":[");
    }
    for (i, item) in items.iter().enumerate() {
        // The typed response carries each item's correlation `id`
        // through, so every entry of a batched result is attributable.
        match QueryRequest::from_json_value(item).and_then(|q| eval(&q, &state.models)) {
            Ok(r) => {
                if i > 0 {
                    out.push(',');
                }
                r.write_compact(&mut out);
            }
            Err(e) => return err_response(&e),
        }
    }
    if batch {
        out.push_str("]}");
    }
    ntc_obs::counter_add("serve.queries", items.len() as u64);
    (200, out)
}

/// `POST /v1/optimize` — the design-space autotuner. The response is
/// byte-identical to `repro optimize` for the same request (both render
/// [`OptimizeResponse::to_json`]) and memoized by the canonical request
/// hash, so axis enumeration order never causes a recompute.
fn handle_optimize(req: &Request, state: &ServerState) -> (u16, String) {
    let parsed = parse(&req.body)
        .map_err(NtcError::from)
        .and_then(|v| OptimizeRequest::from_json_value(&v));
    let opt = match parsed {
        Ok(r) => r,
        Err(e) => return err_response(&e),
    };
    ntc_obs::counter_add("serve.optimize.requests", 1);
    (200, state.optimize_memoized(&opt))
}

/// `GET /v1/metrics?format=json|prom` — the full `ntc-obs` snapshot, as
/// the deterministic JSON document (default) or Prometheus text
/// exposition. Both render the same snapshot; only the framing differs.
fn handle_metrics(req: &Request, state: &ServerState) -> Reply {
    // Publish the derived cache gauge next to the raw counters so
    // scripts don't have to recompute it.
    let stats = state.models.cache_stats();
    ntc_obs::gauge_set("serve.cache.hit_rate", stats.hit_rate());
    // Mirror sweep progress into the `progress.*` gauges so the
    // Prometheus exposition carries it without a second scrape target.
    ntc_obs::progress::publish_gauges();
    match req.query_param("format") {
        None | Some("json") => {
            Reply::json(200, ntc_obs::metrics_json(&ntc_obs::metrics_snapshot()))
        }
        Some("prom") => Reply {
            status: 200,
            content_type: PROM_CONTENT_TYPE,
            body: ntc_obs::metrics_prom(&ntc_obs::metrics_snapshot()),
        },
        Some(other) => Reply::json(
            400,
            error_body(
                "invalid_param",
                &format!("format: expected \"json\" or \"prom\", got \"{other}\""),
            ),
        ),
    }
}

fn snapshot_json(s: &ntc_obs::ProgressSnapshot) -> JsonValue {
    #[allow(clippy::cast_precision_loss)]
    JsonValue::Obj(vec![
        ("shards_done".into(), JsonValue::num(s.shards_done as f64)),
        ("shards_total".into(), JsonValue::num(s.shards_total as f64)),
        ("trials_done".into(), JsonValue::num(s.trials_done as f64)),
        ("trials_total".into(), JsonValue::num(s.trials_total as f64)),
        ("restored".into(), JsonValue::num(s.restored as f64)),
        ("computed".into(), JsonValue::num(s.computed as f64)),
        ("samples_per_sec".into(), JsonValue::num(s.samples_per_sec)),
        ("eta_secs".into(), s.eta_secs().map_or(JsonValue::Null, JsonValue::num)),
    ])
}

/// `GET /v1/progress` — live sweep progress: the in-process tracker
/// this server updates while computing `/v1/run`s, plus (when the
/// server is store-backed) the store-wide fleet view aggregated from
/// every worker's heartbeat journal — the same view `repro status`
/// renders.
fn handle_progress(state: &ServerState) -> (u16, String) {
    #[allow(clippy::cast_precision_loss)]
    let fleet = state.store.as_ref().map_or(JsonValue::Null, |store| {
        let now = ntc::journal::now_ms();
        let fs = ntc::journal::fleet_status(store);
        let workers: Vec<JsonValue> = fs
            .workers
            .iter()
            .map(|w| {
                JsonValue::Obj(vec![
                    ("worker".into(), JsonValue::Str(w.worker.clone())),
                    ("lo".into(), JsonValue::num(f64::from(w.lo))),
                    ("hi".into(), JsonValue::num(f64::from(w.hi))),
                    ("state".into(), JsonValue::Str(w.state(now).name().into())),
                    ("progress".into(), snapshot_json(&w.progress)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("workers".into(), JsonValue::Arr(workers)),
            ("stalled".into(), JsonValue::num(fs.stalled(now) as f64)),
            ("merged".into(), snapshot_json(&fs.merged())),
            ("checkpoints".into(), JsonValue::num(fs.checkpoints as f64)),
            ("checkpoint_bytes".into(), JsonValue::num(fs.checkpoint_bytes as f64)),
            (
                "claims".into(),
                JsonValue::Arr(
                    fs.claims
                        .iter()
                        .map(|&(lo, hi)| {
                            JsonValue::Arr(vec![
                                JsonValue::num(f64::from(lo)),
                                JsonValue::num(f64::from(hi)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    });
    let body = JsonValue::Obj(vec![
        ("progress".into(), snapshot_json(&ntc_obs::progress::snapshot())),
        ("fleet".into(), fleet),
    ]);
    (200, compact(&body))
}

/// `GET /v1/healthz` — liveness plus the store/format version the build
/// keys artifacts on, so load tests and CI can assert which build (and
/// which on-disk format) they are actually hitting.
fn healthz_body() -> String {
    format!(r#"{{"ok":true,"version":"{}"}}"#, ntc::store::store_version())
}

/// Routes one framed request to its handler. A path outside `/v1`, or
/// one naming no route, is a 404; a known route under the wrong method
/// is a 405.
pub fn handle(req: &Request, state: &ServerState) -> Reply {
    let Some(route) = versioned(&req.path) else {
        return not_found(req);
    };
    match (req.method.as_str(), route) {
        ("GET", "/api") => Reply::json(200, compact(&api::api_schema())),
        ("GET", "/healthz") => Reply::json(200, healthz_body()),
        ("GET", "/metrics") => handle_metrics(req, state),
        ("GET", "/progress") => {
            let (status, body) = handle_progress(state);
            Reply::json(status, body)
        }
        ("GET", "/experiments") => {
            let (status, body) = handle_experiments();
            Reply::json(status, body)
        }
        ("GET", p) if p.starts_with("/artifact/") => {
            let (status, body) = handle_artifact(req, route, state);
            Reply::json(status, body)
        }
        ("POST", "/run") => {
            let (status, body) = handle_run(req, state);
            Reply::json(status, body)
        }
        ("POST", "/query") => {
            let (status, body) = handle_query(req, state);
            Reply::json(status, body)
        }
        ("POST", "/optimize") => {
            let (status, body) = handle_optimize(req, state);
            Reply::json(status, body)
        }
        _ if route_label(&req.path) != "other" => Reply::json(
            405,
            error_body("unsupported", &format!("{} not allowed here", req.method)),
        ),
        _ => not_found(req),
    }
}

fn not_found(req: &Request) -> Reply {
    Reply::json(404, error_body("unsupported", &format!("no route for {}", req.path)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str) -> Request {
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (path.to_string(), String::new()),
        };
        Request { method: "GET".into(), path, query, body: String::new() }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            query: String::new(),
            body: body.into(),
        }
    }

    /// Routes and splits the reply, for tests that only care about
    /// status + body.
    fn call(req: &Request, state: &ServerState) -> (u16, String) {
        let r = handle(req, state);
        (r.status, r.body)
    }

    #[test]
    fn experiments_listing_covers_the_registry() {
        let state = ServerState::new(2014);
        let (status, body) = call(&get("/v1/experiments"), &state);
        assert_eq!(status, 200);
        let v = parse(&body).unwrap();
        let entries = v.get("experiments").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(entries.len(), ExperimentId::ALL.len());
        assert!(entries.iter().any(|e| {
            e.get("id").and_then(JsonValue::as_str) == Some("table2")
                && e.get("paper_ref").is_some()
        }));
    }

    #[test]
    fn artifact_endpoint_matches_cli_json_bytes() {
        let state = ServerState::new(2014);
        let (status, body) = call(&get("/v1/artifact/table2?scale=quick"), &state);
        assert_eq!(status, 200);
        let ctx = RunCtx::builder().quick().build();
        let direct = run_one(find_id(ExperimentId::Table2).as_ref(), &ctx);
        assert_eq!(body, direct.to_json(), "served artifact must be byte-identical");
    }

    #[test]
    fn unversioned_paths_are_unsupported_404s() {
        let state = ServerState::new(2014);
        for (canonical, bare) in [("/v1/healthz", "/healthz"), ("/v1/experiments", "/experiments")]
        {
            assert_eq!(call(&get(canonical), &state).0, 200, "{canonical}");
            let (status, body) = call(&get(bare), &state);
            assert_eq!(status, 404, "{bare} is not a route");
            let v = parse(&body).unwrap();
            let kind = v.get("error").and_then(|e| e.get("kind")).and_then(JsonValue::as_str);
            assert_eq!(kind, Some("unsupported"), "{bare}: {body}");
        }
        // A former alias answers exactly as an unknown path does.
        let missing = handle(&get("/nope"), &state);
        let alias = handle(&get("/healthz"), &state);
        assert_eq!(missing.status, alias.status);
        assert_eq!(missing.content_type, alias.content_type);
    }

    #[test]
    fn api_schema_is_versioned_only() {
        let state = ServerState::new(2014);
        let (status, body) = call(&get("/v1/api"), &state);
        assert_eq!(status, 200);
        let v = parse(&body).unwrap();
        assert_eq!(v.get("version").and_then(JsonValue::as_str), Some("v1"));
        let endpoints = v.get("endpoints").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(endpoints.len(), api::ENDPOINTS.len());
        // Nothing outside `/v1` is routed, the schema included.
        assert_eq!(call(&get("/api"), &state).0, 404);
        assert_eq!(call(&post("/v1/api", ""), &state).0, 405);
    }

    /// Tests asserting on the process-global `serve.run.computed` /
    /// `store.*` counters (or exercising `/run` compute) hold this so
    /// their deltas cannot interleave.
    static RUN_COUNTER_LOCK: Mutex<()> = Mutex::new(());

    fn run_locked() -> std::sync::MutexGuard<'static, ()> {
        RUN_COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A fresh store in a unique scratch directory.
    fn scratch_store(name: &str) -> Store {
        let dir = std::env::temp_dir()
            .join(format!("ntc-serve-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(&dir).expect("scratch store opens")
    }

    #[test]
    fn run_is_served_from_the_store_with_zero_compute() {
        let _g = run_locked();
        ntc_obs::enable();
        // Memo cap 0 disables the in-memory layer entirely, so every
        // repeat must go through the durable store.
        let state =
            ServerState::with_store(2014, Some(scratch_store("zero-compute")), 0);
        let computed = ntc_obs::counter("serve.run.computed");
        let store_hit = ntc_obs::counter("store.hit");
        let req = post("/v1/run", r#"{"id":"table2","scale":"quick"}"#);

        let (status, first) = call(&req, &state);
        assert_eq!(status, 200);
        let computed_after_first = computed.get();
        let hits_after_first = store_hit.get();

        let (status, second) = call(&req, &state);
        assert_eq!(status, 200);
        assert_eq!(second, first, "store-served rerun must be byte-identical");
        assert_eq!(
            computed.get(),
            computed_after_first,
            "repeat /run must not compute"
        );
        assert_eq!(
            store_hit.get(),
            hits_after_first + 1,
            "repeat /run is answered by the store"
        );
    }

    #[test]
    fn optimize_is_memoized_across_axis_enumeration_orders() {
        let _g = run_locked();
        ntc_obs::enable();
        let state = ServerState::new(2014);
        let computed = ntc_obs::counter("serve.optimize.computed");
        let before = computed.get();
        // Same space, different axis enumeration order: one compute,
        // two byte-identical answers.
        let a = post(
            "/v1/optimize",
            r#"{"constraints":{"frequency_hz":290e3},
                "space":{"banks":[2,1],"words":[2048],"cells":["cell_based_aoi"],
                         "schemes":["ocean"]},"restarts":2}"#,
        );
        let b = post(
            "/v1/optimize",
            r#"{"constraints":{"frequency_hz":290e3},
                "space":{"banks":[1,2],"words":[2048],"cells":["cell_based_aoi"],
                         "schemes":["ocean"]},"restarts":2}"#,
        );
        let ra = handle(&a, &state);
        let rb = handle(&b, &state);
        assert_eq!(ra.status, 200, "{}", ra.body);
        assert_eq!(rb.status, 200);
        assert_eq!(ra.body, rb.body, "axis order must not change the answer");
        assert_eq!(computed.get(), before + 1, "second call hit the memo");
        let resp = OptimizeResponse::from_json(&ra.body).unwrap();
        assert!(resp.feasible);
        assert_eq!(resp.best.unwrap().vdd, 0.33, "Table 2 ocean point");
    }

    #[test]
    fn optimize_is_served_from_the_store_across_state_rebuilds() {
        let _g = run_locked();
        ntc_obs::enable();
        let dir = std::env::temp_dir()
            .join(format!("ntc-serve-test-{}-opt-store", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let body = r#"{"constraints":{"frequency_hz":290e3},
            "space":{"banks":[1],"words":[2048],"cells":["cell_based_aoi"],
                     "schemes":["ocean"]},"restarts":1}"#;
        let computed = ntc_obs::counter("serve.optimize.computed");

        let first = {
            let state = ServerState::with_store(
                2014,
                Some(Store::open(&dir).expect("store opens")),
                0,
            );
            call(&post("/v1/optimize", body), &state)
        };
        assert_eq!(first.0, 200);
        let after_first = computed.get();

        // A fresh state over the same store answers from disk.
        let state = ServerState::with_store(
            2014,
            Some(Store::open(&dir).expect("store reopens")),
            0,
        );
        let second = call(&post("/v1/optimize", body), &state);
        assert_eq!(second.0, 200);
        assert_eq!(second.1, first.1, "store-served optimize is byte-identical");
        assert_eq!(computed.get(), after_first, "no recompute through the store");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_memo_evicts_least_recently_used_and_counts() {
        ntc_obs::enable();
        let evictions = ntc_obs::counter("serve.cache.evictions");
        let before = evictions.get();
        let ctx = RunCtx::builder().quick().build();
        let artifact = run_one(find_id(ExperimentId::Fig6).as_ref(), &ctx);
        let key = |seed: u64| (ExperimentId::Fig6, Scale::Quick, seed);

        let mut memo = BoundedMemo::new(2);
        memo.insert(key(1), artifact.clone());
        memo.insert(key(2), artifact.clone());
        // Touch key 1 so key 2 is the LRU entry when capacity overflows.
        assert!(memo.get(&key(1)).is_some());
        memo.insert(key(3), artifact.clone());
        assert_eq!(evictions.get(), before + 1, "one eviction counted");
        assert!(memo.get(&key(2)).is_none(), "LRU entry evicted");
        assert!(memo.get(&key(1)).is_some());
        assert!(memo.get(&key(3)).is_some());

        // Re-inserting an existing key at capacity replaces in place.
        memo.insert(key(1), artifact.clone());
        assert_eq!(evictions.get(), before + 1, "no spurious eviction");

        // Cap 0 stores nothing (and therefore never evicts).
        let mut off = BoundedMemo::new(0);
        off.insert(key(9), artifact);
        assert!(off.get(&key(9)).is_none());
        assert_eq!(evictions.get(), before + 1);
    }

    /// Poisons `lock` by panicking in a thread that holds it.
    fn poison<T: Send>(lock: &Mutex<T>) {
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = lock.lock();
                panic!("deliberate panic while holding the lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(lock.is_poisoned());
    }

    #[test]
    fn poisoned_memo_locks_still_serve_run_and_optimize() {
        let _g = run_locked();
        let state = ServerState::new(2014);
        poison(&state.run_memo);
        poison(&state.optimize_memo);
        let run = post("/v1/run", r#"{"id":"table2","scale":"quick"}"#);
        let optimize = post(
            "/v1/optimize",
            r#"{"constraints":{"frequency_hz":290e3},
                "space":{"banks":[1],"words":[2048],"cells":["cell_based_aoi"],
                         "schemes":["ocean"]},"restarts":1}"#,
        );
        for req in [&run, &optimize] {
            let (status, first) = call(req, &state);
            assert_eq!(status, 200, "{}: {first}", req.path);
            // The second call goes through the recovered memo.
            assert_eq!(call(req, &state), (200, first), "{}", req.path);
        }
    }

    #[test]
    fn run_returns_checks_and_memoizes() {
        let _g = run_locked();
        let state = ServerState::new(2014);
        let req = post("/v1/run", r#"{"id":"table2","scale":"quick"}"#);
        let (status, first) = call(&req, &state);
        assert_eq!(status, 200);
        let v = parse(&first).unwrap();
        assert!(v.get("checks").and_then(JsonValue::as_arr).is_some_and(|c| !c.is_empty()));
        assert_eq!(v.get("passed"), Some(&JsonValue::Bool(true)));
        let (_, second) = call(&req, &state);
        assert_eq!(first, second, "memoized rerun must be byte-identical");
    }

    #[test]
    fn unknown_experiment_is_404_with_the_id_list() {
        let state = ServerState::new(2014);
        let (status, body) = call(&post("/v1/run", r#"{"id":"fig99"}"#), &state);
        assert_eq!(status, 404);
        let v = parse(&body).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(JsonValue::as_str), Some("unknown_experiment"));
        let msg = err.get("message").and_then(JsonValue::as_str).unwrap();
        assert!(msg.contains("table2"), "message lists valid ids: {msg}");
    }

    #[test]
    fn malformed_json_is_400_with_kind() {
        let state = ServerState::new(2014);
        for path in ["/v1/query", "/v1/run", "/v1/optimize"] {
            let (status, body) = call(&post(path, "{not json"), &state);
            assert_eq!(status, 400, "{path}");
            let err = ErrorBody::from_json(&body).expect("structured error");
            assert_eq!(err.kind, "malformed_json", "{path}");
        }
    }

    #[test]
    fn batch_queries_echo_each_items_id() {
        let state = ServerState::new(2014);
        let req = post(
            "/v1/query",
            r#"{"queries":[{"id":"first","kind":"vmin","scheme":"ocean","frequency_hz":290e3},{"id":"second","kind":"energy","model":"cots_40nm","vdd":0.55},{"kind":"ber","law":"access","memory":"cell_based_40nm","vdd":0.4}]}"#,
        );
        let (status, body) = call(&req, &state);
        assert_eq!(status, 200);
        let v = parse(&body).unwrap();
        let results = v.get("results").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].get("id").and_then(JsonValue::as_str), Some("first"));
        assert_eq!(results[0].get("operating").and_then(JsonValue::as_num), Some(0.33));
        assert_eq!(results[1].get("id").and_then(JsonValue::as_str), Some("second"));
        assert_eq!(results[1].get("kind").and_then(JsonValue::as_str), Some("energy"));
        // An item that sent no id gets none back — nothing invented.
        assert_eq!(results[2].get("id"), None);
    }

    #[test]
    fn query_bodies_equal_the_tree_rendering() {
        let state = ServerState::new(2014);
        let items = [
            r#"{"id":"q\"1\\ \u0001 µ","kind":"vmin","scheme":"secded","memory":"commercial_40nm"}"#,
            r#"{"id":"v2","kind":"vmin","scheme":"ocean","frequency_hz":1.96e6,"grid":"exact"}"#,
            r#"{"kind":"ber","law":"retention","memory":"cell_based_65nm","vdd":0.31}"#,
            r#"{"id":"","kind":"energy","model":"cell_based_40nm","vdd":0.47,"frequency_hz":1e5}"#,
            r#"{"kind":"energy","model":"cots_40nm","vdd":0.55}"#,
        ];
        // The reference is the tree encoder over the same typed results.
        let tree = |item: &str| {
            let q = QueryRequest::from_json_value(&parse(item).unwrap()).unwrap();
            eval(&q, &state.models).unwrap().to_json_value()
        };
        for item in items {
            assert_eq!(call(&post("/v1/query", item), &state), (200, compact(&tree(item))), "{item}");
        }
        let batch = format!("{{\"queries\":[{}]}}", items.join(","));
        let want = JsonValue::Obj(vec![(
            "results".into(),
            JsonValue::Arr(items.iter().map(|i| tree(i)).collect()),
        )]);
        assert_eq!(call(&post("/v1/query", &batch), &state), (200, compact(&want)));
    }

    #[test]
    fn a_failing_batch_item_answers_its_error_alone() {
        let state = ServerState::new(2014);
        let batch = r#"{"queries":[{"kind":"energy","model":"cots_40nm","vdd":0.55},{"kind":"vmin","scheme":"raid5"},{"kind":"warp"}]}"#;
        let (status, body) = call(&post("/v1/query", batch), &state);
        assert_eq!(status, 400);
        let v = parse(&body).unwrap();
        let kind = v.get("error").and_then(|e| e.get("kind")).and_then(JsonValue::as_str);
        assert_eq!(kind, Some("invalid_param"), "the first failing item wins: {body}");
        assert!(body.contains("raid5"), "{body}");
    }

    #[test]
    fn routing_distinguishes_404_and_405() {
        let state = ServerState::new(2014);
        assert_eq!(call(&get("/nope"), &state).0, 404);
        assert_eq!(call(&get("/v1/nope"), &state).0, 404);
        assert_eq!(call(&get("/v1/run"), &state).0, 405);
        assert_eq!(call(&get("/v1/optimize"), &state).0, 405);
        assert_eq!(call(&post("/v1/experiments", ""), &state).0, 405);
        // Outside `/v1` nothing is routed, whatever the method.
        assert_eq!(call(&get("/run"), &state).0, 404);
        assert_eq!(call(&post("/experiments", ""), &state).0, 404);
        assert_eq!(call(&get("/v1"), &state).0, 404);
    }

    #[test]
    fn healthz_carries_the_store_version() {
        let state = ServerState::new(2014);
        let (status, body) = call(&get("/v1/healthz"), &state);
        assert_eq!(status, 200);
        let v = parse(&body).unwrap();
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            v.get("version").and_then(JsonValue::as_str),
            Some(ntc::store::store_version().as_str()),
            "healthz names the (crate, format) version the store keys on"
        );
    }

    #[test]
    fn metrics_format_selects_the_exposition() {
        ntc_obs::enable();
        ntc_obs::counter_add("serve.test.handlers_prom", 1);
        let state = ServerState::new(2014);

        let json = handle(&get("/v1/metrics"), &state);
        assert_eq!(json.status, 200);
        assert_eq!(json.content_type, "application/json");
        assert!(parse(&json.body).is_ok(), "JSON exposition parses");

        let prom = handle(&get("/v1/metrics?format=prom"), &state);
        assert_eq!(prom.status, 200);
        assert_eq!(prom.content_type, PROM_CONTENT_TYPE);
        assert!(prom.body.contains("serve_test_handlers_prom_total"));
        assert!(prom.body.contains("# TYPE "));

        let bad = handle(&get("/v1/metrics?format=xml"), &state);
        assert_eq!(bad.status, 400);
        assert!(bad.body.contains("invalid_param"));
    }

    #[test]
    fn progress_without_a_store_reports_in_process_only() {
        let state = ServerState::new(2014);
        let (status, body) = call(&get("/v1/progress"), &state);
        assert_eq!(status, 200);
        let v = parse(&body).unwrap();
        let p = v.get("progress").expect("in-process snapshot present");
        assert!(p.get("shards_done").and_then(JsonValue::as_num).is_some());
        assert!(p.get("trials_total").and_then(JsonValue::as_num).is_some());
        assert_eq!(v.get("fleet"), Some(&JsonValue::Null), "no store, no fleet view");
        assert_eq!(call(&post("/v1/progress", ""), &state).0, 405);
    }

    #[test]
    fn progress_aggregates_store_journals_into_the_fleet_view() {
        let store = scratch_store("progress-fleet");
        let j = ntc::journal::Journal::new(&store, 0, 32, 1000);
        j.shard_done("fig5", 3, 2500, 100.0);
        j.flush();
        let state = ServerState::with_store(2014, Some(store), 4);
        let (status, body) = call(&get("/v1/progress"), &state);
        assert_eq!(status, 200);
        let v = parse(&body).unwrap();
        let fleet = v.get("fleet").expect("store-backed server has a fleet view");
        let workers = fleet.get("workers").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(workers.len(), 1);
        assert_eq!(
            workers[0].get("worker").and_then(JsonValue::as_str),
            Some(j.worker_id())
        );
        assert_eq!(workers[0].get("state").and_then(JsonValue::as_str), Some("running"));
        let merged = fleet.get("merged").unwrap();
        assert_eq!(merged.get("trials_done").and_then(JsonValue::as_num), Some(2500.0));
        assert_eq!(fleet.get("stalled").and_then(JsonValue::as_num), Some(0.0));
    }

    #[test]
    fn metrics_exposition_carries_the_progress_gauges() {
        ntc_obs::enable();
        let state = ServerState::new(2014);
        let prom = handle(&get("/v1/metrics?format=prom"), &state);
        assert_eq!(prom.status, 200);
        assert!(
            prom.body.contains("progress_shards_done"),
            "prometheus exposition carries sweep progress: {}",
            prom.body
        );
        let json = handle(&get("/v1/metrics"), &state);
        assert!(json.body.contains("progress.eta_secs"));
    }

    #[test]
    fn route_labels_are_a_fixed_vocabulary() {
        assert_eq!(route_label("/v1/healthz"), "healthz");
        assert_eq!(route_label("/v1/metrics"), "metrics");
        assert_eq!(route_label("/v1/progress"), "progress");
        assert_eq!(route_label("/v1/experiments"), "experiments");
        assert_eq!(route_label("/v1/run"), "run");
        assert_eq!(route_label("/v1/query"), "query");
        assert_eq!(route_label("/v1/optimize"), "optimize");
        assert_eq!(route_label("/v1/api"), "api");
        assert_eq!(route_label("/v1/artifact/table2"), "artifact");
        assert_eq!(route_label("/v1/artifact/"), "artifact");
        // Unversioned spellings are not routes.
        assert_eq!(route_label("/healthz"), "other");
        assert_eq!(route_label("/query"), "other");
        assert_eq!(route_label("/artifact/table2"), "other");
        assert_eq!(route_label("/v1"), "other");
        assert_eq!(route_label("/anything-else"), "other");
        assert_eq!(route_label(""), "other");
    }
}
