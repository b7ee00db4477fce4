//! End-to-end socket tests: a real server on an OS-assigned port,
//! driven through real `TcpStream`s — list → run → query flows,
//! concurrent determinism, backpressure, error payloads, and graceful
//! shutdown.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use ntc::artifact::json::{parse, JsonValue};
use ntc_serve::{ServeConfig, Server};

/// A parsed response: status code, raw header block, and body.
struct Response {
    status: u16,
    head: String,
    body: String,
}

impl Response {
    /// The value of a response header, case-insensitive on the name.
    fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().find_map(|line| {
            let (k, v) = line.split_once(':')?;
            k.eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }
}

/// Sends one request and reads the response to EOF
/// (the server speaks `Connection: close`).
fn roundtrip(addr: SocketAddr, raw: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    let (head, body) = text
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    Response { status, head, body }
}

fn get(addr: SocketAddr, path: &str) -> Response {
    roundtrip(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Response {
    roundtrip(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn quick_server() -> ntc_serve::RunningServer {
    Server::bind(ServeConfig { workers: 4, ..ServeConfig::default() }).expect("bind")
}

fn error_kind(body: &str) -> String {
    parse(body)
        .ok()
        .and_then(|v| {
            v.get("error")?
                .get("kind")?
                .as_str()
                .map(str::to_string)
        })
        .unwrap_or_else(|| panic!("no error kind in {body:?}"))
}

#[test]
fn list_run_query_flow() {
    let server = quick_server();
    let addr = server.addr();

    // Liveness first: ok plus the store/format version of this build.
    let health = get(addr, "/v1/healthz");
    assert_eq!(health.status, 200);
    let parsed = parse(&health.body).expect("healthz parses");
    assert_eq!(parsed.get("ok"), Some(&JsonValue::Bool(true)));
    assert_eq!(
        parsed.get("version").and_then(JsonValue::as_str),
        Some(ntc::store::store_version().as_str())
    );

    // List: every registered experiment, with paper references.
    let list = get(addr, "/v1/experiments");
    assert_eq!(list.status, 200);
    let listed = parse(&list.body).expect("listing parses");
    let entries = listed.get("experiments").and_then(JsonValue::as_arr).expect("array");
    assert_eq!(entries.len(), ntc::repro::ExperimentId::ALL.len());
    let table2 = entries
        .iter()
        .find(|e| e.get("id").and_then(JsonValue::as_str) == Some("table2"))
        .expect("table2 listed");
    assert_eq!(table2.get("paper_ref").and_then(JsonValue::as_str), Some("Table 2"));

    // Run one of the listed experiments at quick scale.
    let run = post(addr, "/v1/run", r#"{"id":"table2","scale":"quick"}"#);
    assert_eq!(run.status, 200);
    let ran = parse(&run.body).expect("run response parses");
    assert_eq!(ran.get("passed"), Some(&JsonValue::Bool(true)));
    assert!(ran.get("artifact").is_some());
    assert!(ran
        .get("checks")
        .and_then(JsonValue::as_arr)
        .is_some_and(|c| !c.is_empty()));

    // Query the model the run was built from.
    let q = post(addr, "/v1/query", r#"{"kind":"vmin","scheme":"ocean","frequency_hz":290e3}"#);
    assert_eq!(q.status, 200);
    let solved = parse(&q.body).expect("query response parses");
    assert_eq!(solved.get("operating").and_then(JsonValue::as_num), Some(0.33));

    server.shutdown();
}

#[test]
fn served_artifact_is_byte_identical_to_a_direct_run() {
    let server = quick_server();
    let got = get(server.addr(), "/v1/artifact/fig6?scale=quick");
    assert_eq!(got.status, 200);
    let ctx = ntc::repro::RunCtx::builder().quick().build();
    let direct = ntc::repro::run_one(
        ntc::repro::find_id(ntc::repro::ExperimentId::Fig6).as_ref(),
        &ctx,
    );
    assert_eq!(got.body, direct.to_json());
    server.shutdown();
}

#[test]
fn concurrent_identical_queries_get_byte_identical_bodies() {
    let server = quick_server();
    let addr = server.addr();
    // Prime the memo from one thread, then race 32 clients: every
    // body must be identical down to the byte, whichever worker shard
    // answers and whatever the cache state was when it did.
    let body = r#"{"queries":[{"kind":"energy","model":"cots_40nm","vdd":0.55},{"kind":"vmin","scheme":"secded"},{"kind":"ber","law":"retention","memory":"cell_based_65nm","vdd":0.31}]}"#;
    let reference = post(addr, "/v1/query", body);
    assert_eq!(reference.status, 200);
    let clients: Vec<_> = (0..32)
        .map(|_| std::thread::spawn(move || post(addr, "/v1/query", body)))
        .collect();
    for client in clients {
        let got = client.join().expect("client thread");
        assert_eq!(got.status, 200);
        assert_eq!(got.body, reference.body, "divergent response body");
    }
    server.shutdown();
}

#[test]
fn repeat_runs_are_memoized_and_byte_identical() {
    let server = quick_server();
    let addr = server.addr();
    let first = post(addr, "/v1/run", r#"{"id":"fig6","scale":"quick"}"#);
    let second = post(addr, "/v1/run", r#"{"id":"fig6","scale":"quick"}"#);
    assert_eq!(first.status, 200);
    assert_eq!(first.body, second.body, "memoized rerun changed bytes");
    server.shutdown();
}

#[test]
fn overflowing_the_queue_gets_an_immediate_503() {
    // One worker, one queue slot, generous deadline: an idle
    // connection pins the worker, a second fills the queue, so a
    // third must bounce with 503 straight from the acceptor.
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        deadline: Duration::from_secs(5),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    let pin = TcpStream::connect(addr).expect("pin connects");
    // Let the worker pop the pinning connection and block in read.
    std::thread::sleep(Duration::from_millis(300));
    let queued = TcpStream::connect(addr).expect("queued connects");
    std::thread::sleep(Duration::from_millis(300));

    let bounced = get(addr, "/v1/healthz");
    assert_eq!(bounced.status, 503, "third request must bounce: {}", bounced.body);
    assert_eq!(error_kind(&bounced.body), "overloaded");

    // A burst of silent connections, each of which would hold a
    // per-rejection thread for its 250 ms read timeout: the server's
    // thread count must not grow with the burst. Threads spawned by the
    // acceptor inherit its name, so counting `serve-acceptor` tasks
    // counts them; only other tests' live servers add one each.
    let burst: Vec<TcpStream> =
        (0..128).map(|_| TcpStream::connect(addr).expect("burst connects")).collect();
    std::thread::sleep(Duration::from_millis(100));
    let acceptor_tasks = threads_named("serve-acceptor");
    assert!(
        acceptor_tasks <= 32,
        "{acceptor_tasks} acceptor-spawned threads during a 128-connection burst"
    );
    assert!(threads_named("serve-rejector") >= 1, "the rejector is one long-lived thread");

    drop(burst);
    drop(pin);
    drop(queued);
    server.shutdown();
}

/// Threads of this process whose name (`/proc/self/task/*/comm`) is `name`.
fn threads_named(name: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == name)
        .count()
}

#[test]
fn shutdown_of_an_idle_server_is_prompt() {
    // The acceptor sleeps in a blocking accept(); shutdown must wake it
    // through loopback even when the server is bound to the unspecified
    // address.
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = Server::bind(ServeConfig {
            addr: addr.to_string(),
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("bind");
        std::thread::sleep(Duration::from_millis(50));
        let started = std::time::Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown of {addr} took {took:?}");
    }
}

#[test]
fn malformed_json_is_400_with_a_structured_error() {
    let server = quick_server();
    let got = post(server.addr(), "/v1/query", "{this is not json");
    assert_eq!(got.status, 400);
    assert_eq!(error_kind(&got.body), "malformed_json");
    server.shutdown();
}

#[test]
fn deeply_nested_body_is_400_and_the_server_stays_up() {
    // 400 KB, under the body cap. Without a depth bound, 200,000 nested
    // arrays overflow a worker's stack and abort the whole process.
    let server = quick_server();
    let addr = server.addr();
    let body = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
    let got = post(addr, "/v1/query", &body);
    assert_eq!(got.status, 400);
    assert_eq!(error_kind(&got.body), "malformed_json");
    assert_eq!(get(addr, "/v1/healthz").status, 200);
    server.shutdown();
}

#[test]
fn unknown_experiment_is_404_and_names_valid_ids() {
    let server = quick_server();
    let got = post(server.addr(), "/v1/run", r#"{"id":"fig99","scale":"quick"}"#);
    assert_eq!(got.status, 404);
    assert_eq!(error_kind(&got.body), "unknown_experiment");
    assert!(got.body.contains("table2"), "valid ids listed: {}", got.body);
    server.shutdown();
}

#[test]
fn invalid_query_params_are_400_with_the_param_named() {
    let server = quick_server();
    let addr = server.addr();
    let got = post(addr, "/v1/query", r#"{"kind":"vmin","scheme":"ocean","fit_target":7.0}"#);
    assert_eq!(got.status, 400);
    assert_eq!(error_kind(&got.body), "invalid_param");
    assert!(got.body.contains("fit_target"), "{}", got.body);
    server.shutdown();
}

#[test]
fn graceful_shutdown_completes_queued_work_then_refuses_connections() {
    let server = Server::bind(ServeConfig { workers: 2, ..ServeConfig::default() })
        .expect("bind");
    let addr = server.addr();
    // In-flight request finishes normally...
    let ok = get(addr, "/v1/healthz");
    assert_eq!(ok.status, 200);
    // ...then shutdown joins the acceptor and every shard.
    server.shutdown();
    // The listener is gone: a fresh connection must fail (or be
    // dropped without an HTTP response on stacks that accept it into
    // a dying backlog).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut stream) => {
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
            let mut text = String::new();
            let _ = stream.read_to_string(&mut text);
            assert!(text.is_empty(), "server answered after shutdown: {text:?}");
        }
    }
}

#[test]
fn metrics_report_serve_counters() {
    ntc_obs::enable();
    let server = quick_server();
    let addr = server.addr();
    let _ = get(addr, "/v1/healthz");
    let _ = post(addr, "/v1/query", r#"{"kind":"energy","model":"cots_40nm","vdd":0.6}"#);
    let metrics = get(addr, "/v1/metrics");
    assert_eq!(metrics.status, 200);
    for needle in [
        "serve.responses",
        "serve.queries",
        "serve.cache.hit_rate",
        "serve.latency_ms",
        "serve.queue_wait_ms",
        "serve.handler_ms",
        "serve.route.query.status.200",
        "serve.route.query.latency_ms",
    ] {
        assert!(metrics.body.contains(needle), "`{needle}` missing from {}", metrics.body);
    }
    server.shutdown();
}

#[test]
fn responses_carry_distinct_request_ids() {
    let server = quick_server();
    let addr = server.addr();
    let a = get(addr, "/v1/healthz");
    let b = get(addr, "/v1/healthz");
    let id_a: u64 = a
        .header("X-Request-Id")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no X-Request-Id in {}", a.head));
    let id_b: u64 = b.header("X-Request-Id").and_then(|v| v.parse().ok()).expect("second id");
    assert_ne!(id_a, id_b, "request ids are unique per accepted connection");
    server.shutdown();
}

/// One line of Prometheus 0.0.4 text exposition: either a `# TYPE`
/// comment or `name[{le="..."}] value`.
fn assert_valid_prom_line(line: &str) {
    if let Some(rest) = line.strip_prefix('#') {
        assert!(
            rest.starts_with(" TYPE "),
            "only TYPE comments are emitted: {line:?}"
        );
        return;
    }
    let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("no value: {line:?}"));
    assert!(
        value.parse::<f64>().is_ok() || matches!(value, "NaN" | "+Inf" | "-Inf"),
        "unparsable sample value in {line:?}"
    );
    let name = series.split('{').next().unwrap();
    assert!(!name.is_empty(), "empty metric name: {line:?}");
    assert!(
        name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "invalid metric name {name:?}"
    );
    assert!(
        !name.chars().next().unwrap().is_ascii_digit(),
        "metric name starts with a digit: {name:?}"
    );
    if let Some(labels) = series.strip_prefix(name) {
        if !labels.is_empty() {
            assert!(
                labels.starts_with("{le=\"") && labels.ends_with("\"}"),
                "unexpected label set {labels:?}"
            );
        }
    }
}

#[test]
fn metrics_stay_consistent_under_a_concurrent_hammer() {
    // 32 clients hammer mixed routes while /metrics is scraped in both
    // formats: every JSON snapshot must parse, every prom line must be
    // grammatical, and the content types must match the format asked
    // for. (Cross-thread byte-identity of rendered snapshots is covered
    // by `metrics_json_is_byte_identical_across_thread_counts` in the
    // workspace observability suite.)
    ntc_obs::enable();
    let server = quick_server();
    let addr = server.addr();
    let clients: Vec<_> = (0..32)
        .map(|i| {
            std::thread::spawn(move || {
                for _ in 0..4 {
                    if i % 2 == 0 {
                        let r = post(
                            addr,
                            "/v1/query",
                            r#"{"kind":"energy","model":"cots_40nm","vdd":0.6}"#,
                        );
                        assert_eq!(r.status, 200);
                    } else {
                        let r = get(addr, "/v1/healthz");
                        assert_eq!(r.status, 200);
                    }
                }
            })
        })
        .collect();
    for _ in 0..8 {
        let json = get(addr, "/v1/metrics");
        assert_eq!(json.status, 200);
        assert_eq!(json.header("Content-Type"), Some("application/json"));
        assert!(parse(&json.body).is_ok(), "mid-hammer JSON snapshot parses");

        let prom = get(addr, "/v1/metrics?format=prom");
        assert_eq!(prom.status, 200);
        assert_eq!(
            prom.header("Content-Type"),
            Some("text/plain; version=0.0.4; charset=utf-8")
        );
        assert!(prom.body.lines().count() > 0);
        for line in prom.body.lines() {
            assert_valid_prom_line(line);
        }
        assert!(
            prom.body.contains("serve_responses_total"),
            "prom names are sanitized to underscores"
        );
    }
    for client in clients {
        client.join().expect("client thread");
    }
    // Quiescent now: two scrapes with no traffic in between must be
    // byte-identical in both formats (deterministic rendering).
    let j1 = get(addr, "/v1/metrics").body;
    let j2 = get(addr, "/v1/metrics").body;
    // The /metrics scrape itself advances serve.* counters, so strip
    // volatile serve-layer lines and compare the rest byte-for-byte.
    let stable = |s: &str| -> String {
        s.lines().filter(|l| !l.contains("\"serve.")).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(stable(&j1), stable(&j2), "non-serve metrics identical across scrapes");
    server.shutdown();
}

#[test]
fn access_log_records_every_request_off_the_hot_path() {
    let path = std::env::temp_dir()
        .join(format!("ntc-serve-e2e-access-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = Server::bind(ServeConfig {
        workers: 2,
        access_log: Some(path.clone()),
        ..ServeConfig::default()
    })
    .expect("bind with access log");
    let addr = server.addr();
    let ok = get(addr, "/v1/healthz");
    assert_eq!(ok.status, 200);
    let req_id: u64 = ok.header("X-Request-Id").and_then(|v| v.parse().ok()).expect("id");
    let q = post(addr, "/v1/query", r#"{"kind":"energy","model":"cots_40nm","vdd":0.6}"#);
    assert_eq!(q.status, 200);
    let missing = get(addr, "/nope");
    assert_eq!(missing.status, 404);
    // Shutdown flushes the bounded log channel before returning.
    server.shutdown();

    let text = std::fs::read_to_string(&path).expect("access log written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "one line per request: {text}");
    for line in &lines {
        let v = parse(line).unwrap_or_else(|e| panic!("line not JSON ({e}): {line}"));
        assert!(v.get("req").is_some());
        assert!(v.get("status").is_some());
        assert!(v.get("latency_ms").is_some());
        assert!(v.get("queue_wait_ms").is_some());
        assert!(v.get("handler_ms").is_some());
    }
    // The healthz line carries the id the client saw in X-Request-Id.
    let healthz_line = lines
        .iter()
        .find(|l| l.contains("\"path\":\"/v1/healthz\""))
        .expect("healthz logged");
    assert!(
        healthz_line.contains(&format!("\"req\":{req_id}")),
        "log line and response header share the id: {healthz_line}"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"path\":\"/nope\"") && l.contains("\"status\":404")),
        "404s are logged too: {text}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn store_backed_server_survives_restart_with_identical_answers() {
    // A store-backed server persists completed runs; a *new* server
    // process (simulated by a second bind over the same store) answers
    // the same /run from disk, byte-identically — the serve-side face
    // of the checkpoint/artifact store.
    let dir = std::env::temp_dir()
        .join(format!("ntc-serve-e2e-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServeConfig {
        workers: 2,
        store: Some(dir.clone()),
        memo_cap: 0, // force every repeat through the store
        ..ServeConfig::default()
    };

    let first_body;
    {
        let server = Server::bind(config()).expect("bind with store");
        let r = post(server.addr(), "/v1/run", r#"{"id":"table1","scale":"quick"}"#);
        assert_eq!(r.status, 200);
        first_body = r.body;
        server.shutdown();
    }
    {
        let server = Server::bind(config()).expect("rebind over the same store");
        let r = post(server.addr(), "/v1/run", r#"{"id":"table1","scale":"quick"}"#);
        assert_eq!(r.status, 200);
        assert_eq!(r.body, first_body, "restarted server serves identical bytes");
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn only_v1_paths_are_routed() {
    let server = quick_server();
    let addr = server.addr();
    let optimize = r#"{"constraints":{"frequency_hz":290e3},
        "space":{"banks":[1],"words":[2048],"cells":["cell_based_aoi"],
                 "schemes":["ocean"]},"restarts":1}"#;
    let query = r#"{"kind":"vmin","scheme":"ocean","frequency_hz":290e3}"#;
    let run = r#"{"id":"fig6","scale":"quick"}"#;
    // (method, route, body): each route with its `/v1` prefix dropped.
    let routes = [
        ("GET", "/healthz", ""),
        ("GET", "/experiments", ""),
        ("GET", "/metrics", ""),
        ("GET", "/progress", ""),
        ("GET", "/artifact/fig6", ""),
        ("POST", "/query", query),
        ("POST", "/run", run),
        ("POST", "/optimize", optimize),
    ];
    let send = |method: &str, path: &str, body: &str| match method {
        "GET" => get(addr, path),
        _ => post(addr, path, body),
    };
    for (method, route, body) in routes {
        let v1 = send(method, &format!("/v1{route}"), body);
        assert_eq!(v1.status, 200, "{method} /v1{route}: {}", v1.body);
        assert_eq!(v1.header("Deprecation"), None, "/v1{route}");

        let bare = send(method, route, body);
        assert_eq!(bare.status, 404, "{method} {route} is not a route: {}", bare.body);
        assert_eq!(error_kind(&bare.body), "unsupported", "{route}");
        assert_eq!(bare.header("Deprecation"), None, "{route}");
    }
    let api = get(addr, "/v1/api");
    assert_eq!(api.status, 200);
    assert_eq!(api.header("Deprecation"), None);
    server.shutdown();
}

#[test]
fn v1_query_batch_answers_the_pinned_wire_bytes() {
    // One fixed batch (an id with escapes, a vmin without frequency_hz,
    // a ber, an energy) must answer exactly this literal, recorded from
    // the tree encoder the streaming response writer replaced.
    // In-process byte checks run that same writer, so only a literal
    // catches drift.
    let server = quick_server();
    let request = r#"{"queries":[{"id":"ci \"1\"\\ \t\u0001µ","kind":"vmin","scheme":"secded"},{"kind":"ber","law":"access","memory":"cell_based_40nm","vdd":0.4},{"id":"e","kind":"energy","model":"cots_40nm","vdd":0.55},{"kind":"vmin","scheme":"ocean","frequency_hz":290e3}]}"#;
    let expected = r#"{"results":[{"id":"ci \"1\"\\ \t\u0001µ","kind":"vmin","scheme":"secded","memory":"cell_based_40nm","fit_target":0.000000000000001,"max_p_bit":0.000000478302125052063,"error_constrained":0.44001366193062397,"performance_constrained":null,"operating":0.44},{"kind":"ber","law":"access","memory":"cell_based_40nm","vdd":0.4,"p_bit":0.000004466017578150066},{"id":"e","kind":"energy","model":"cots_40nm","vdd":0.55,"f_max_hz":1817609.4961241342,"energy_per_cycle_j":0.00000000003365220252591386,"total_j":0.00000000003365220252591386,"dynamic_j":0.000000000015838842975206607,"leakage_j":0.000000000017813359550707252,"power_w":0.0000611665628765936},{"kind":"vmin","scheme":"ocean","memory":"cell_based_40nm","fit_target":0.000000000000001,"max_p_bit":0.00007048969480262103,"frequency_hz":290000,"error_constrained":0.32995644728622786,"performance_constrained":0.329975,"operating":0.33}]}"#;
    let got = post(server.addr(), "/v1/query", request);
    assert_eq!(got.status, 200, "{}", got.body);
    assert_eq!(got.body, expected);
    server.shutdown();
}

#[test]
fn v1_optimize_answers_the_pinned_wire_bytes() {
    // Two optimize requests must answer exactly these literals, recorded
    // from a server that reran every line search. The convergence record
    // (sweeps, evaluations, per-restart bests) pins the search path, so
    // a line memo that skipped, misplaced or miscounted a search fails
    // here even though in-process comparisons share its code.
    let server = quick_server();
    let cases = [
        (
            r#"{"constraints":{"frequency_hz":290e3}}"#,
            r#"{"schema":"ntc.optimize.v1","request_hash":"1c9d01d7ce24596e","feasible":true,"best":{"cell":"cell_based_aoi","scheme":"ocean","banks":4,"words":512,"vdd":0.33,"energy_per_access_pj":0.49079047835560424,"cycle_time_ns":25225.395831982067,"area_mm2":0.0407666688,"f_max_hz":39642.58902657726,"objective":0.49079047835560424},"convergence":{"restarts":8,"sweeps":21,"evaluations":17501,"best_per_restart":[0.49079047835560424,0.49079047835560424,0.49079047835560424,0.49079047835560424,0.49079047835560424,0.49079047835560424,0.49079047835560424,0.49079047835560424]}}"#,
        ),
        (
            r#"{"constraints":{"frequency_hz":290e3},"space":{"cells":["cell_based_aoi"],"schemes":["secded","ocean"],"banks":[1,2],"words":[2048],"vdd":{"lo":0.2,"hi":1.2,"grid":"exact"}},"restarts":2}"#,
            r#"{"schema":"ntc.optimize.v1","request_hash":"4cf5469164ea09ed","feasible":true,"best":{"cell":"cell_based_aoi","scheme":"ocean","banks":1,"words":2048,"vdd":0.3299791776509004,"energy_per_access_pj":1.8014324987933064,"cycle_time_ns":25236.06832344931,"area_mm2":0.14057472000000001,"f_max_hz":39625.82392720825,"objective":1.8014324987933064},"convergence":{"restarts":2,"sweeps":4,"evaluations":1178,"best_per_restart":[1.8014324987933064,1.8014324987933064]}}"#,
        ),
    ];
    for (request, expected) in cases {
        let got = post(server.addr(), "/v1/optimize", request);
        assert_eq!(got.status, 200, "{}", got.body);
        assert_eq!(got.body, expected, "{request}");
    }
    server.shutdown();
}

#[test]
fn api_endpoint_publishes_the_machine_readable_schema() {
    let server = quick_server();
    let addr = server.addr();
    let got = get(addr, "/v1/api");
    assert_eq!(got.status, 200);
    let v = parse(&got.body).expect("schema parses");
    assert_eq!(v.get("version").and_then(JsonValue::as_str), Some("v1"));
    let endpoints = v.get("endpoints").and_then(JsonValue::as_arr).expect("endpoints array");
    assert_eq!(endpoints.len(), ntc::api::ENDPOINTS.len());
    // Every row names method, path, request/response DTOs; the listed
    // paths cover the routes this very test file exercises.
    let paths: Vec<String> = endpoints
        .iter()
        .filter_map(|e| e.get("path").and_then(JsonValue::as_str).map(str::to_string))
        .collect();
    for must in ["/v1/api", "/v1/run", "/v1/query", "/v1/optimize", "/v1/artifact/{id}"] {
        assert!(paths.iter().any(|p| p == must), "{must} missing from {paths:?}");
    }
    let optimize = endpoints
        .iter()
        .find(|e| e.get("path").and_then(JsonValue::as_str) == Some("/v1/optimize"))
        .expect("optimize row");
    assert_eq!(optimize.get("method").and_then(JsonValue::as_str), Some("POST"));
    assert_eq!(
        optimize.get("request").and_then(JsonValue::as_str),
        Some("OptimizeRequest")
    );
    // Every route lives under /v1: no row names an unversioned alias.
    for e in endpoints {
        assert!(e.get("legacy").is_none(), "unexpected legacy key in {e:?}");
    }
    // DTO field lists ride along, so clients can introspect shapes.
    let dtos = v.get("dtos").expect("dtos present");
    assert!(dtos.get("OptimizeRequest").is_some());
    assert!(dtos.get("ErrorBody").is_some());
    // No unversioned alias.
    assert_eq!(get(addr, "/api").status, 404);
    server.shutdown();
}

#[test]
fn optimize_over_the_wire_matches_the_library_byte_for_byte() {
    ntc_obs::enable();
    let server = quick_server();
    let addr = server.addr();
    // A small sub-space keeps the e2e search fast; determinism is what
    // is under test, not coverage of the paper grid.
    let body = r#"{"constraints":{"frequency_hz":1.96e6},
        "space":{"banks":[1,2],"words":[2048],"cells":["cell_based_aoi"],
                 "schemes":["secded","ocean"]},"restarts":2}"#;
    let served = post(addr, "/v1/optimize", body);
    assert_eq!(served.status, 200, "{}", served.body);
    assert_eq!(served.header("Deprecation"), None);

    let req = ntc::api::OptimizeRequest::from_json(body).expect("request parses");
    let direct = ntc::optimize::optimize(&req).to_json();
    assert_eq!(served.body, direct, "POST /v1/optimize == repro optimize bytes");

    // The memoized repeat answers identically.
    let again = post(addr, "/v1/optimize", body);
    assert_eq!(again.status, 200);
    assert_eq!(again.body, served.body);

    let resp = ntc::api::OptimizeResponse::from_json(&served.body).expect("response parses");
    assert!(resp.feasible);
    assert_eq!(resp.request_hash, req.request_hash_hex());
    server.shutdown();
}

#[test]
fn every_endpoint_speaks_the_structured_error_body() {
    let server = quick_server();
    let addr = server.addr();
    // (response, expected status, expected kind) — one probe per
    // endpoint, every failure mode answered with the same
    // {"error":{kind,message}} shape the shared DTO parses back.
    let cases: Vec<(Response, u16, &str)> = vec![
        (post(addr, "/v1/run", "{not json"), 400, "malformed_json"),
        (post(addr, "/v1/query", "{not json"), 400, "malformed_json"),
        (post(addr, "/v1/optimize", "{not json"), 400, "malformed_json"),
        (post(addr, "/v1/run", r#"{"id":"fig99"}"#), 404, "unknown_experiment"),
        (get(addr, "/v1/artifact/fig99"), 404, "unknown_experiment"),
        (
            post(addr, "/v1/query", r#"{"kind":"vmin","scheme":"ocean","fit_target":7.0}"#),
            400,
            "invalid_param",
        ),
        (
            post(
                addr,
                "/v1/optimize",
                r#"{"constraints":{"frequency_hz":-5.0},"space":{"banks":[1],"words":[2048],"cells":["cell_based_aoi"],"schemes":["ocean"]}}"#,
            ),
            400,
            "invalid_param",
        ),
        (post(addr, "/v1/query", r#"{"law":"access"}"#), 400, "missing_field"),
        (get(addr, "/v1/metrics?format=xml"), 400, "invalid_param"),
        (post(addr, "/v1/experiments", ""), 405, "unsupported"),
        (get(addr, "/v1/nope"), 404, "unsupported"),
    ];
    for (resp, status, kind) in cases {
        assert_eq!(resp.status, status, "{}", resp.body);
        let err = ntc::api::ErrorBody::from_json(&resp.body)
            .unwrap_or_else(|e| panic!("unstructured error body ({e}): {}", resp.body));
        assert_eq!(err.error.kind, kind, "{}", resp.body);
        assert!(!err.error.message.is_empty(), "error message must not be empty");
    }
    server.shutdown();
}
