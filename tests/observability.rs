//! Cross-crate tests for the `ntc-obs` layer: span nesting across
//! `exec::par_map` worker threads, Chrome trace validity (parsed with
//! the workspace's own deterministic JSON parser), metric propagation
//! from the instrumented crates, and the headline guarantee — artifact
//! bytes are identical with instrumentation on or off.
//!
//! The obs registry and span collector are process-global and the test
//! harness runs threads concurrently, so every test here enables the
//! layer (idempotent), uses snapshots keyed by unique metric names or
//! span-name filters, and never calls `ntc_obs::disable`. Tests
//! that record or drain spans hold [`SPANS`], so one test's drain never
//! takes another's spans out of the bounded span ring.

use ntc::artifact::json::{parse, JsonValue};
use ntc::repro::{ExperimentId, find_id, run_one, RunCtx};
use ntc_obs::SpanRecord;
use ntc_stats::exec::{mc_counter, par_map_with_threads};
use std::sync::{Mutex, MutexGuard, PoisonError};

static SPANS: Mutex<()> = Mutex::new(());

/// Exclusive use of the process-global span ring.
fn span_ring() -> MutexGuard<'static, ()> {
    SPANS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Drained spans are global; filter to the ones a test just produced.
fn spans_named<'a>(spans: &'a [SpanRecord], name: &str) -> Vec<&'a SpanRecord> {
    spans.iter().filter(|s| s.name == name).collect()
}

#[test]
fn par_map_worker_spans_nest_under_the_fanout_span() {
    let _ring = span_ring();
    ntc_obs::enable();
    let _ = ntc_obs::take_spans(); // start from a clean collector view
    let out = par_map_with_threads(64, 4, |i| i * 2);
    assert_eq!(out.len(), 64);
    let spans = ntc_obs::take_spans();
    let outers = spans_named(&spans, "exec.par_map");
    // Concurrent tests may add more fan-outs; find ours by item count.
    let outer = outers
        .iter()
        .find(|s| s.items == 64)
        .expect("fan-out span recorded");
    let workers: Vec<_> = spans_named(&spans, "exec.par_map.worker")
        .into_iter()
        .filter(|w| w.parent == Some(outer.id))
        .collect();
    assert_eq!(workers.len(), 4, "one span per worker thread");
    // Worker items partition the range, and every worker ran inside
    // the fan-out's monotonic window.
    assert_eq!(workers.iter().map(|w| w.items).sum::<u64>(), 64);
    for w in &workers {
        assert!(w.start_ns >= outer.start_ns, "worker starts after fan-out");
        assert!(
            w.start_ns + w.dur_ns <= outer.start_ns + outer.dur_ns,
            "worker ends before the fan-out returns"
        );
    }
}

#[test]
fn mc_shard_spans_carry_shard_keys_and_sample_counter() {
    let _ring = span_ring();
    ntc_obs::enable();
    let before = ntc_obs::metrics_snapshot()
        .counter("exec.mc.samples")
        .unwrap_or(0);
    let trials = 128_000u64;
    let c = mc_counter(trials, 77, |s| s.bernoulli(0.01));
    assert_eq!(c.trials(), trials);
    let after = ntc_obs::metrics_snapshot()
        .counter("exec.mc.samples")
        .expect("sample counter registered");
    assert!(after - before >= trials, "counter advanced by the batch");
    let spans = ntc_obs::take_spans();
    let shard_spans: Vec<_> = spans_named(&spans, "exec.mc.shard")
        .into_iter()
        .filter(|s| s.shard.is_some())
        .collect();
    assert!(shard_spans.len() >= 64, "per-shard spans recorded");
    // Shard keys stay inside the fixed 64-shard layout.
    assert!(shard_spans.iter().all(|s| s.shard.unwrap() < 64));
}

#[test]
fn chrome_trace_golden_bytes() {
    // Fixed records must render to exactly these bytes: the exporter is
    // a pure function of the collected spans.
    let spans = vec![
        SpanRecord {
            id: 1,
            parent: None,
            name: "repro.fig8".into(),
            thread: 0,
            start_ns: 1_500,
            dur_ns: 10_000,
            shard: None,
            req: None,
            items: 0,
        },
        SpanRecord {
            id: 2,
            parent: Some(1),
            name: "exec.mc.shard".into(),
            thread: 1,
            start_ns: 2_000,
            dur_ns: 4_000,
            shard: Some(7),
            req: None,
            items: 2_000,
        },
    ];
    let expected = concat!(
        "{\"traceEvents\":[\n",
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"ntc repro\"}},\n",
        "{\"name\":\"repro.fig8\",\"cat\":\"ntc\",\"ph\":\"X\",\"pid\":1,\"tid\":0,",
        "\"ts\":1.5,\"dur\":10,\"id\":1,\"args\":{\"start_ns\":1500,\"dur_ns\":10000}},\n",
        "{\"name\":\"exec.mc.shard\",\"cat\":\"ntc\",\"ph\":\"X\",\"pid\":1,\"tid\":1,",
        "\"ts\":2,\"dur\":4,\"id\":2,\"args\":{\"start_ns\":2000,\"dur_ns\":4000,",
        // 2000 items / 4 µs, in shortest-round-trip f64 form.
        "\"parent\":1,\"shard\":7,\"items\":2000,\"items_per_sec\":499999999.99999994}}\n",
        "],\"displayTimeUnit\":\"ms\"}\n"
    );
    assert_eq!(ntc_obs::chrome_trace(&spans), expected);
}

#[test]
fn chrome_trace_is_valid_json_with_consistent_timestamps() {
    let _ring = span_ring();
    ntc_obs::enable();
    let _ = ntc_obs::take_spans();
    // Produce a real nested workload: fan-out plus sharded MC.
    let _ = mc_counter(64_000, 5, |s| s.bernoulli(0.02));
    let spans = ntc_obs::take_spans();
    assert!(!spans.is_empty());
    let trace = ntc_obs::chrome_trace(&spans);

    let doc = parse(&trace).expect("exporter emits valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array");
    // Metadata record plus one event per span.
    assert_eq!(events.len(), spans.len() + 1);

    // Index events by id; check every duration event's ts/dur agree
    // with the exact nanosecond values and nest inside their parent.
    let complete: Vec<&JsonValue> = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .collect();
    let find_by_id = |id: f64| {
        complete
            .iter()
            .find(|e| e.get("id").and_then(JsonValue::as_num) == Some(id))
            .copied()
    };
    let mut last_ts = f64::MIN;
    for e in &complete {
        let ts = e.get("ts").and_then(JsonValue::as_num).expect("ts");
        let dur = e.get("dur").and_then(JsonValue::as_num).expect("dur");
        let args = e.get("args").expect("args");
        let start_ns = args.get("start_ns").and_then(JsonValue::as_num).expect("start_ns");
        let dur_ns = args.get("dur_ns").and_then(JsonValue::as_num).expect("dur_ns");
        // µs fields are exactly the ns fields over 1000 (no rounding).
        assert!((ts - start_ns / 1e3).abs() < 1e-9 * start_ns.max(1.0));
        assert!((dur - dur_ns / 1e3).abs() < 1e-9 * dur_ns.max(1.0));
        // Events are emitted in nondecreasing start order.
        assert!(ts >= last_ts, "events sorted by ts");
        last_ts = ts;
        if let Some(parent_id) = args.get("parent").and_then(JsonValue::as_num) {
            if let Some(p) = find_by_id(parent_id) {
                let pts = p.get("ts").and_then(JsonValue::as_num).unwrap();
                let pdur = p.get("dur").and_then(JsonValue::as_num).unwrap();
                assert!(ts >= pts, "child starts inside parent");
                assert!(ts + dur <= pts + pdur + 1e-6, "child ends inside parent");
            }
        }
    }
}

#[test]
fn artifacts_are_byte_identical_with_instrumentation_on() {
    let _ring = span_ring();
    // Run once with the layer in whatever state the process is in,
    // then force it ON and run again: artifact bytes must not move.
    // (Thread-count invariance is covered by the exec suite; this is
    // the instrumentation half of the contract.)
    let ctx = RunCtx::quick();
    // fig4 and fig5 publish `diag.*` convergence/fit gauges when the
    // layer is on — their artifact bytes especially must not move.
    for id in ["table2", "fig4", "fig5", "ablation_phases"] {
        let e = find_id(id.parse().expect("registered"));
        let baseline = e.run(&ctx).to_json();
        ntc_obs::enable();
        let ctx2 = RunCtx::quick();
        let traced = run_one(find_id(id.parse().expect("registered")).as_ref(), &ctx2).to_json();
        assert_eq!(baseline, traced, "{id} artifact changed under tracing");
    }
}

#[test]
fn metrics_json_is_byte_identical_across_thread_counts() {
    let _ring = span_ring();
    // `exec::threads()` is resolved once per process, so NTC_THREADS
    // itself cannot vary inside one test binary; `par_map_with_threads`
    // pins the worker count explicitly, which is the same code path the
    // env var selects. Each thread count writes under its own metric
    // prefix (the registry is process-global); re-labeling the entries
    // to a common namespace and rendering them must produce the same
    // bytes for 1, 4, and 8 threads.
    ntc_obs::enable();
    let render = |t: usize| -> String {
        let prefix = format!("det_test.t{t}");
        let produced = par_map_with_threads(64, t, |i| {
            ntc_obs::counter_add(&format!("{prefix}.samples"), i as u64 + 1);
            ntc_obs::histogram_record(
                &format!("{prefix}.value"),
                &[0.25, 0.5, 0.75],
                i as f64 / 64.0,
            );
            i
        });
        // One non-finite observation: the ignored count must survive
        // the export identically too.
        ntc_obs::histogram_record(&format!("{prefix}.value"), &[0.25, 0.5, 0.75], f64::NAN);
        let total: usize = produced.iter().sum();
        ntc_obs::gauge_set(&format!("{prefix}.total"), total as f64);
        let snap = ntc_obs::metrics_snapshot();
        let relabeled = ntc_obs::MetricsSnapshot {
            entries: snap
                .entries
                .into_iter()
                .filter_map(|(name, v)| {
                    name.strip_prefix(&format!("{prefix}."))
                        .map(|suffix| (format!("det_test.{suffix}"), v))
                })
                .collect(),
        };
        assert_eq!(relabeled.entries.len(), 3, "all three instruments present");
        ntc_obs::metrics_json(&relabeled)
    };
    let one = render(1);
    assert_eq!(one, render(4), "4 threads drifted from serial");
    assert_eq!(one, render(8), "8 threads drifted from serial");
    assert!(one.contains("\"ignored\":1"));
}

#[test]
fn instrumented_crates_report_their_metrics() {
    let _ring = span_ring();
    ntc_obs::enable();
    let ctx = RunCtx::quick();
    // table2 drives the FIT solver through the memoized energy model;
    // ablation_phases sweeps the OCEAN optimizer.
    let _ = run_one(find_id(ExperimentId::Table2).as_ref(), &ctx);
    let _ = run_one(find_id(ExperimentId::AblationPhases).as_ref(), &ctx);
    let snap = ntc_obs::metrics_snapshot();
    assert!(
        snap.counter("memcalc.cache.hit").unwrap_or(0) > 0,
        "energy-cache hits propagate to obs"
    );
    assert!(
        snap.counter("ocean.optimizer.iterations").unwrap_or(0) > 0,
        "optimizer iterations counted"
    );
    assert!(snap.counter("fit.grid.cells").unwrap_or(0) > 0, "grid cells counted");
}

#[test]
fn a_paper_scale_traced_pass_fits_the_span_ring() {
    // `repro run --all --scale paper --trace` must keep every span: the
    // ring only overwrites in processes that never drain it.
    let _ring = span_ring();
    ntc_obs::enable();
    let _ = ntc_obs::take_spans();
    let dropped = || ntc_obs::metrics_snapshot().counter("obs.spans_dropped").unwrap_or(0);
    let before = dropped();
    let ctx = RunCtx::paper();
    for &id in &ExperimentId::ALL {
        let _ = run_one(find_id(id).as_ref(), &ctx);
    }
    let spans = ntc_obs::take_spans();
    assert_eq!(dropped(), before, "a traced paper pass overwrote spans");
    assert!(
        spans.len() < ntc_obs::SPAN_RING,
        "{} spans would not fit the {}-span ring",
        spans.len(),
        ntc_obs::SPAN_RING
    );
    for &id in &ExperimentId::ALL {
        let name = format!("repro.{}", id.as_str());
        assert_eq!(spans_named(&spans, &name).len(), 1, "{name} recorded once");
    }
}

#[test]
fn provenance_escapes_control_characters_in_strings() {
    let version = "v1\tx\ny\"z";
    let p = ntc_obs::Provenance {
        experiment: "fig6".into(),
        seed: 7,
        scale: "quick".into(),
        version: version.into(),
        threads: 1,
        wall_ns: 1,
        metrics: ntc_obs::metrics_snapshot(),
    };
    let doc = p.to_json();
    assert!(
        doc.lines().any(|l| l == r#"  "version": "v1\tx\ny\"z","#),
        "version escaped on its own line: {doc}"
    );
    let parsed = parse(&doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
    assert_eq!(parsed.get("version").and_then(JsonValue::as_str), Some(version));
}

#[test]
fn journal_escapes_control_characters_in_scopes() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("journal_control_chars");
    let _ = std::fs::remove_dir_all(&dir);
    let store = ntc::store::Store::open(&dir).expect("store opens");
    let journal = ntc::journal::Journal::new(&store, 0, 8, 1000);
    journal.shard_start("fig5\t\u{1}\"scope\"", 0);
    journal.shard_done("fig5\t\u{1}\"scope\"", 0, 10, 1.0);
    assert!(journal.flush());
    let (id, bytes) = &store.journals()[0];
    assert!(
        !bytes.iter().any(|&b| b < 0x20 && b != b'\n'),
        "raw control character in the journal: {}",
        String::from_utf8_lossy(bytes)
    );
    let st = ntc::journal::parse_worker_status(id, bytes);
    assert_eq!(st.corrupt_lines, 0);
    assert_eq!(st.events, 4, "meta, claim, shard_start, shard_done");
    // Each line is `<checksum> <json>`; every document parses, and the
    // scope reads back as written.
    let text = String::from_utf8_lossy(bytes);
    let scopes: Vec<String> = text
        .lines()
        .map(|l| l.split_once(' ').map_or(l, |(_, json)| json))
        .map(|l| parse(l).unwrap_or_else(|e| panic!("{e}: {l:?}")))
        .filter_map(|v| {
            v.get("scope")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        })
        .collect();
    assert_eq!(scopes, ["fig5\t\u{1}\"scope\"", "fig5\t\u{1}\"scope\""]);
}
