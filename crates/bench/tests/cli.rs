//! End-to-end tests of the `repro` binary: exit codes and output
//! contracts of `check`, `diff`, `report` and `list`, driven through
//! the real executable (`CARGO_BIN_EXE_repro`). Everything runs at
//! quick scale on the cheap experiments (`fig6`, `table1`) so the whole
//! suite stays fast.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A fresh per-test scratch directory under the target dir.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes a quick-scale JSON baseline for the given experiments.
fn write_baseline(dir: &Path, ids: &[&str]) {
    let mut args = vec!["run"];
    args.extend_from_slice(ids);
    let dir_s = dir.to_str().unwrap();
    args.extend_from_slice(&["--quick", "--format", "json", "--out", dir_s]);
    let out = repro(&args);
    assert!(out.status.success(), "baseline run failed: {out:?}");
}

#[test]
fn check_prints_margin_for_every_anchor_and_exits_zero() {
    let out = repro(&["check", "fig6", "table1", "--quick"]);
    assert!(out.status.success(), "anchors hold at quick scale");
    let text = stdout(&out);
    assert!(text.contains("margin"), "margin column header present");
    assert!(text.contains("smallest margins"), "ranked margin table present");
    assert!(text.contains("at risk"), "at-risk summary present");
    // Every verdict line carries a margin value (exact bands say so).
    let verdicts = text.lines().filter(|l| l.contains(" ok (") || l.contains(" MISS (")).count();
    assert!(verdicts >= 11, "one verdict per anchor: {text}");
}

#[test]
fn diff_is_clean_against_a_fresh_baseline() {
    let dir = scratch("diff_clean");
    write_baseline(&dir, &["fig6", "table1"]);
    let out = repro(&["diff", dir.to_str().unwrap(), "--quick"]);
    assert!(out.status.success(), "identical rerun must diff clean: {out:?}");
    let text = stdout(&out);
    assert!(text.contains("fig6"), "{text}");
    assert!(text.contains("0 difference(s)"), "{text}");
}

#[test]
fn diff_exits_nonzero_on_an_injected_value_regression() {
    let dir = scratch("diff_value");
    write_baseline(&dir, &["fig6"]);
    // Perturb one scalar well beyond the default 1e-6 relative
    // tolerance: the platform's core energy 25 → 25.1 pJ/cycle.
    let path = dir.join("fig6.json");
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"value\": 25\n"), "injection target present");
    std::fs::write(&path, json.replace("\"value\": 25\n", "\"value\": 25.1\n")).unwrap();
    let out = repro(&["diff", dir.to_str().unwrap(), "--quick"]);
    assert!(!out.status.success(), "perturbed baseline must fail the diff");
    let text = stdout(&out);
    assert!(text.contains("core energy"), "offending scalar named: {text}");
    assert!(text.contains("[value]"), "numeric drift, not structure: {text}");
}

#[test]
fn diff_tolerance_flag_absorbs_the_same_injection() {
    let dir = scratch("diff_rtol");
    write_baseline(&dir, &["fig6"]);
    let path = dir.join("fig6.json");
    let json = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, json.replace("\"value\": 25\n", "\"value\": 25.1\n")).unwrap();
    // 25 → 25.1 is a 0.4% move; rtol 0.01 must accept it.
    let out = repro(&["diff", dir.to_str().unwrap(), "--quick", "--rtol", "0.01"]);
    assert!(out.status.success(), "loose tolerance absorbs the drift: {out:?}");
}

#[test]
fn diff_reports_structural_drift() {
    let dir = scratch("diff_structure");
    write_baseline(&dir, &["fig6"]);
    let path = dir.join("fig6.json");
    let json = std::fs::read_to_string(&path).unwrap();
    // Rename a scalar in the baseline: the current run then misses it.
    std::fs::write(&path, json.replace("core energy", "core energy (renamed)")).unwrap();
    let out = repro(&["diff", dir.to_str().unwrap(), "--quick"]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("[structure]"), "{out:?}");
}

#[test]
fn diff_skips_provenance_sidecars() {
    let dir = scratch("diff_provenance");
    write_baseline(&dir, &["fig6"]);
    // Provenance sidecars carry wall-clock data and must never be
    // treated as artifacts — corrupt one and the diff must stay clean.
    std::fs::write(dir.join("fig6.provenance.json"), "{not json").unwrap();
    let out = repro(&["diff", dir.to_str().unwrap(), "--quick"]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn diff_rejects_an_empty_baseline_dir() {
    let dir = scratch("diff_empty");
    let out = repro(&["diff", dir.to_str().unwrap(), "--quick"]);
    assert_eq!(out.status.code(), Some(2), "usage-style failure: {out:?}");
}

#[test]
fn report_writes_self_contained_html() {
    let dir = scratch("report_html");
    let path = dir.join("report.html");
    let out = repro(&["report", "fig6", "table1", "--quick", "--html", path.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let html = std::fs::read_to_string(&path).unwrap();
    assert!(html.starts_with("<!DOCTYPE html>"));
    for needle in ["http://", "https://", "<script src", "<link"] {
        assert!(!html.contains(needle), "external asset `{needle}` in report");
    }
    assert!(html.contains("Paper anchors"), "margin section present");
    assert!(html.contains("<style>"), "inline styling");
}

#[test]
fn list_verbose_shows_paper_refs_and_anchor_counts() {
    let out = repro(&["list", "--verbose"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("Fig. 4 / Eq. 4"), "{text}");
    assert!(text.contains("Table 2"), "{text}");
    assert!(text.contains("anchors"), "header present: {text}");
    // Terse list stays terse.
    let terse = stdout(&repro(&["list"]));
    assert!(!terse.contains("anchors"));
}

#[test]
fn unknown_experiment_exits_with_usage_code() {
    let out = repro(&["check", "definitely-not-an-experiment", "--quick"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_experiment_error_names_the_valid_ids() {
    let out = repro(&["run", "fig99", "--quick"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("fig99"), "offending id echoed: {err}");
    for id in ["fig1", "table2", "ablation_phases"] {
        assert!(err.contains(id), "valid id `{id}` listed: {err}");
    }
}

#[test]
fn serve_answers_http_on_an_os_assigned_port() {
    use std::io::{BufRead, BufReader, Read, Write};

    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--port", "0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("serve starts");

    // First stdout line is the machine-readable bind address.
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    lines.read_line(&mut first).expect("bind line");
    let addr = first
        .trim()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected bind line {first:?}"))
        .to_string();

    let request = |raw: String| -> String {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(60)))
            .expect("timeout");
        stream.write_all(raw.as_bytes()).expect("send");
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("response");
        text
    };

    let health = request("GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n".into());
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");

    let body = r#"{"kind":"vmin","scheme":"ocean","frequency_hz":290e3}"#;
    let query = request(format!(
        "POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    ));
    assert!(query.starts_with("HTTP/1.1 200"), "{query}");
    assert!(query.contains(r#""operating":0.33"#), "Table 2 OCEAN cell: {query}");

    child.kill().expect("stop server");
    let _ = child.wait();
}

#[test]
fn serve_exits_zero_on_sigterm_after_a_clean_shutdown() {
    use std::io::{BufRead, BufReader, Read};
    use std::time::{Duration, Instant};

    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--port", "0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    // Kept open until the server exits, so no stdout write can fail.
    let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    out.read_line(&mut first).expect("bind line");
    assert!(first.starts_with("listening on http://"), "{first:?}");

    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    // Bounded wait: a server that never wakes from accept() fails the
    // test instead of hanging it.
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("repro serve did not exit within 10 s of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut err = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut err)
        .expect("stderr");
    assert_eq!(status.code(), Some(0), "{err}");
    assert!(err.contains("shutdown complete"), "{err}");
}

// ---------------------------------------------------------------------
// Store / checkpoint / worker-mode tests. These all use `fig5` — the
// cheap experiment whose Monte-Carlo collectives checkpoint (~40 ms at
// quick scale) — and a per-test store directory, so they are
// independent of each other and of any ambient NTC_STORE.
// ---------------------------------------------------------------------

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Runs `repro` with NTC_STORE cleared so only explicit `--store` flags
/// matter.
fn repro_clean_env(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .env_remove("NTC_STORE")
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn interrupted_worker_then_resume_reproduces_the_uninterrupted_bytes() {
    let base = scratch("store_resume_base");
    write_baseline(&base, &["fig5"]);
    let store = scratch("store_resume_store");
    let store_s = store.to_str().unwrap();

    // Phase 1: a worker claims half the shard space, checkpoints it and
    // "dies" (exits). It must publish no artifact — its fold is partial.
    let out = repro_clean_env(&[
        "run", "fig5", "--quick", "--store", store_s, "--shards", "0..32",
    ]);
    assert!(out.status.success(), "worker run failed: {out:?}");
    assert!(stderr(&out).contains("checkpointed"), "{}", stderr(&out));
    let artifacts: Vec<_> = std::fs::read_dir(store.join("artifacts")).unwrap().collect();
    assert!(artifacts.is_empty(), "worker must not publish artifacts");
    let n_ckpt = count_files(&store.join("checkpoints"));
    assert!(n_ckpt > 0, "worker saved its claimed shards");

    // Phase 2: `--resume` restores the saved half, computes the rest,
    // and the merged artifact is byte-identical to the store-free run.
    let dir2 = scratch("store_resume_out");
    let out = repro_clean_env(&[
        "run", "fig5", "--quick", "--format", "json",
        "--out", dir2.to_str().unwrap(), "--store", store_s, "--resume",
    ]);
    assert!(out.status.success(), "resume run failed: {out:?}");
    let baseline = std::fs::read(base.join("fig5.json")).unwrap();
    assert_eq!(
        std::fs::read(dir2.join("fig5.json")).unwrap(),
        baseline,
        "resumed sweep must be byte-identical to the uninterrupted run"
    );

    // Phase 3: the artifact is now published; a second `--resume` serves
    // it from the store without recomputing, still byte-for-byte.
    let dir3 = scratch("store_resume_again");
    let out = repro_clean_env(&[
        "run", "fig5", "--quick", "--format", "json",
        "--out", dir3.to_str().unwrap(), "--store", store_s, "--resume",
    ]);
    assert!(out.status.success(), "second resume failed: {out:?}");
    assert!(
        stderr(&out).contains("served from store"),
        "store hit announced: {}",
        stderr(&out)
    );
    assert_eq!(std::fs::read(dir3.join("fig5.json")).unwrap(), baseline);
}

#[test]
fn two_concurrent_workers_merge_to_the_single_process_bytes() {
    let base = scratch("store_two_workers_base");
    write_baseline(&base, &["fig5"]);
    let store = scratch("store_two_workers_store");
    let store_s = store.to_str().unwrap();

    // Two genuinely concurrent processes claim disjoint halves of the
    // 64-shard space against the same store.
    let spawn = |range: &str| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .env_remove("NTC_STORE")
            .args(["run", "fig5", "--quick", "--store", store_s, "--shards", range])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("worker spawns")
    };
    let mut a = spawn("0..32");
    let mut b = spawn("32..64");
    assert!(a.wait().unwrap().success(), "worker A failed");
    assert!(b.wait().unwrap().success(), "worker B failed");

    // The merge restores both halves and must reproduce the
    // single-process artifact exactly.
    let out_dir = scratch("store_two_workers_out");
    let out = repro_clean_env(&[
        "run", "fig5", "--quick", "--format", "json",
        "--out", out_dir.to_str().unwrap(), "--store", store_s, "--resume",
    ]);
    assert!(out.status.success(), "merge run failed: {out:?}");
    assert_eq!(
        std::fs::read(out_dir.join("fig5.json")).unwrap(),
        std::fs::read(base.join("fig5.json")).unwrap(),
        "two-worker split must merge to the single-process bytes"
    );
}

#[test]
fn worker_mode_without_a_store_is_a_usage_error() {
    let out = repro_clean_env(&["run", "fig5", "--quick", "--shards", "0..32"]);
    assert_eq!(out.status.code(), Some(2), "usage error: {out:?}");
    assert!(stderr(&out).contains("--store"), "{}", stderr(&out));
}

#[test]
fn overlapping_shard_claims_are_refused() {
    let store = scratch("store_claim_conflict");
    // A live (or stale) claim over 16..48 already holds the lock.
    std::fs::create_dir_all(store.join("locks")).unwrap();
    std::fs::write(store.join("locks/claim-16-48.lock"), "pid 999999\n").unwrap();
    let out = repro_clean_env(&[
        "run", "fig5", "--quick", "--store", store.to_str().unwrap(),
        "--shards", "0..32",
    ]);
    assert_eq!(out.status.code(), Some(1), "claim conflict exits 1: {out:?}");
    assert!(stderr(&out).contains("cannot claim"), "{}", stderr(&out));
    // A disjoint range is still claimable.
    let out = repro_clean_env(&[
        "run", "fig5", "--quick", "--store", store.to_str().unwrap(),
        "--shards", "48..64",
    ]);
    assert!(out.status.success(), "disjoint claim proceeds: {out:?}");
}

#[test]
fn list_verbose_reports_store_status_per_experiment() {
    let store = scratch("store_list_status");
    let store_s = store.to_str().unwrap();
    // Publish fig5 (quick) and leave fig6 untouched.
    let out = repro_clean_env(&["run", "fig5", "--quick", "--store", store_s]);
    assert!(out.status.success(), "{out:?}");
    let out = repro_clean_env(&["list", "--verbose", "--store", store_s]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    let fig5_line = text.lines().find(|l| l.starts_with("fig5")).unwrap();
    assert!(fig5_line.contains("cached(quick)"), "{fig5_line}");
    let fig6_line = text.lines().find(|l| l.starts_with("fig6")).unwrap();
    assert!(fig6_line.contains("absent"), "{fig6_line}");
    assert!(text.contains("store "), "store summary line present: {text}");
}

#[test]
fn store_stat_counts_and_gc_sweeps_corruption() {
    let store = scratch("store_stat_gc");
    let store_s = store.to_str().unwrap();
    let out = repro_clean_env(&[
        "run", "fig5", "--quick", "--store", store_s, "--shards", "0..8",
    ]);
    assert!(out.status.success(), "{out:?}");

    let out = repro_clean_env(&["store", "stat", "--store", store_s]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("artifacts 0"), "worker published nothing: {text}");
    let ckpts = count_files(&store.join("checkpoints"));
    assert!(ckpts > 0, "stat sees checkpoints");
    assert!(text.contains(&format!("checkpoints {ckpts}")), "{text}");

    // Corrupt one checkpoint file; gc must sweep exactly that file (the
    // integrity hash catches the flip) and leave the rest.
    let victim = find_first_file(&store.join("checkpoints")).expect("a checkpoint exists");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&victim, bytes).unwrap();
    let out = repro_clean_env(&["store", "gc", "--store", store_s]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("1 checkpoints"), "{}", stdout(&out));
    assert_eq!(count_files(&store.join("checkpoints")), ckpts - 1);
}

/// Counts regular files under `dir`, recursively.
fn count_files(dir: &Path) -> usize {
    let mut n = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                n += 1;
            }
        }
    }
    n
}

/// The first regular file under `dir`, depth-first.
fn find_first_file(dir: &Path) -> Option<PathBuf> {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                return Some(p);
            }
        }
    }
    None
}

#[test]
fn bench_serve_smoke_writes_a_clean_report() {
    let dir = scratch("bench-serve-smoke");
    let out_path = dir.join("BENCH_serve.json");
    let out = repro(&[
        "bench-serve",
        "--rate",
        "25",
        "--duration-secs",
        "1",
        "--connections",
        "4",
        "--run-every",
        "8",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "bench-serve smoke must see no non-503 failures: {}",
        stderr(&out)
    );
    let text = std::fs::read_to_string(&out_path).expect("BENCH_serve.json written");
    let report = ntc::artifact::json::parse(&text).expect("report is JSON");
    assert_eq!(
        report.get("schema").and_then(ntc::artifact::json::JsonValue::as_str),
        Some("ntc.bench.serve.v1")
    );
    assert!(report.get("capacity_rps").is_some());
    assert!(report.get("sustained_rps").is_some());
    assert!(report.get("cache").and_then(|c| c.get("query_hit_rate")).is_some());
    let sweep = report
        .get("sweep")
        .and_then(ntc::artifact::json::JsonValue::as_arr)
        .expect("sweep array");
    assert_eq!(sweep.len(), 1, "--rate pins the sweep to one point");
    for key in ["p50_ms", "p90_ms", "p99_ms", "p999_ms", "rejected_503", "error_rate"] {
        assert!(sweep[0].get(key).is_some(), "sweep rows carry {key}: {text}");
    }
}

#[test]
fn status_aggregates_worker_journals_in_text_and_json() {
    use ntc::artifact::json::JsonValue;
    let store = scratch("status_cli");
    let store_s = store.to_str().unwrap();
    let out = repro_clean_env(&[
        "run", "fig5", "--quick", "--store", store_s, "--shards", "0..8",
    ]);
    assert!(out.status.success(), "{out:?}");

    let out = repro_clean_env(&["status", "--store", store_s]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("1 worker(s)"), "{text}");
    assert!(text.contains("0..8"), "worker range shown: {text}");
    assert!(text.contains("done"), "finished worker reads done: {text}");

    let out = repro_clean_env(&["status", "--store", store_s, "--format", "json"]);
    assert!(out.status.success(), "{out:?}");
    let doc = ntc::artifact::json::parse(&stdout(&out)).expect("status JSON parses");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("ntc.status.v1")
    );
    let workers = doc.get("workers").and_then(JsonValue::as_arr).expect("workers array");
    assert_eq!(workers.len(), 1);
    let w = &workers[0];
    assert_eq!(w.get("lo").and_then(JsonValue::as_num), Some(0.0));
    assert_eq!(w.get("hi").and_then(JsonValue::as_num), Some(8.0));
    assert_eq!(w.get("state").and_then(JsonValue::as_str), Some("done"));
    assert_eq!(w.get("done"), Some(&JsonValue::Bool(true)));
    let total = w.get("shards_total").and_then(JsonValue::as_num).unwrap();
    assert!(total > 0.0, "done worker reports its totals: {total}");
    assert_eq!(w.get("shards_done").and_then(JsonValue::as_num), Some(total));
    assert_eq!(w.get("eta_secs").and_then(JsonValue::as_num), Some(0.0));
    assert_eq!(
        doc.get("fleet").and_then(|f| f.get("stalled")).and_then(JsonValue::as_num),
        Some(0.0)
    );
}

#[test]
fn status_json_escapes_the_store_path() {
    use ntc::artifact::json::JsonValue;
    let store = scratch("status_\"quoted\\path");
    let store_s = store.to_str().unwrap();
    let out = repro_clean_env(&[
        "run", "fig5", "--quick", "--store", store_s, "--shards", "0..8",
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = repro_clean_env(&["status", "--store", store_s, "--format", "json"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    let doc = ntc::artifact::json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(doc.get("store").and_then(JsonValue::as_str), Some(store_s));
    let workers = doc.get("workers").and_then(JsonValue::as_arr).expect("workers array");
    assert_eq!(workers.len(), 1, "{text}");
}

#[test]
fn status_without_a_store_is_a_usage_error() {
    let out = repro_clean_env(&["status"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(stderr(&out).contains("--store"), "{}", stderr(&out));
}

#[test]
fn store_stat_renders_human_sizes_ages_and_journals() {
    let store = scratch("store_stat_human");
    let store_s = store.to_str().unwrap();
    let out = repro_clean_env(&[
        "run", "fig5", "--quick", "--store", store_s, "--shards", "0..8",
    ]);
    assert!(out.status.success(), "{out:?}");

    let out = repro_clean_env(&["store", "stat", "--store", store_s]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    let journal_line = text.lines().find(|l| l.starts_with("journals")).unwrap_or_else(|| {
        panic!("stat lists the worker journal: {text}")
    });
    assert!(journal_line.contains("journals 1"), "{journal_line}");
    for label in ["artifacts", "checkpoints", "locks", "journals"] {
        assert!(text.contains(label), "per-kind row for {label}: {text}");
    }
    let ckpt_line = text.lines().find(|l| l.starts_with("checkpoints")).unwrap();
    assert!(ckpt_line.contains("KiB)") || ckpt_line.contains("B)"), "human size: {ckpt_line}");
    assert!(ckpt_line.contains("newest"), "age summary: {ckpt_line}");
    assert!(ckpt_line.contains("oldest"), "age summary: {ckpt_line}");
}

// ---------------------------------------------------------------------
// `repro optimize` — the CLI face of the design-space autotuner. The
// handcrafted requests stay tiny (one cell style, one word count) so
// each search finishes in milliseconds; the paper-preset test runs the
// full Table 2 space once.
// ---------------------------------------------------------------------

const OPT_REQUEST: &str = concat!(
    r#"{"constraints":{"frequency_hz":290e3},"#,
    r#""space":{"banks":[1,2],"words":[2048],"cells":["cell_based_aoi"],"#,
    r#""schemes":["secded","ocean"]},"restarts":2}"#
);

/// Runs `repro` with a pinned `NTC_THREADS` and no ambient store.
fn repro_threads(args: &[&str], threads: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .env_remove("NTC_STORE")
        .env("NTC_THREADS", threads)
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn optimize_bytes_are_identical_across_thread_counts() {
    // Beyond the tiny request: the paper preset, an exact-grid request
    // (no objective memo) and a narrowed paper-grid window, each also
    // at the host's default thread count.
    let dir = scratch("optimize_threads");
    let req = dir.join("request.json");
    let exact = dir.join("req-exact.json");
    let window = dir.join("req-window.json");
    std::fs::write(&req, OPT_REQUEST).unwrap();
    std::fs::write(
        &exact,
        concat!(
            r#"{"constraints":{"frequency_hz":290e3},"space":{"cells":["cell_based_aoi"],"#,
            r#""schemes":["secded","ocean"],"banks":[1,2],"words":[2048],"#,
            r#""vdd":{"lo":0.2,"hi":1.2,"grid":"exact"}},"restarts":2}"#
        ),
    )
    .unwrap();
    std::fs::write(
        &window,
        concat!(
            r#"{"constraints":{"frequency_hz":1.96e6},"#,
            r#""space":{"vdd":{"lo":0.3,"hi":0.9}},"seed":7,"restarts":4}"#
        ),
    )
    .unwrap();
    let cases: [&[&str]; 4] = [
        &["optimize", "--request", req.to_str().unwrap()],
        &["optimize", "--frequency", "290e3"],
        &["optimize", "--request", exact.to_str().unwrap()],
        &["optimize", "--request", window.to_str().unwrap()],
    ];
    for args in cases {
        let one = repro_threads(args, "1");
        assert!(one.status.success(), "{args:?}: {}", stderr(&one));
        assert!(stdout(&one).contains(r#""feasible":true"#), "{args:?}: {}", stdout(&one));
        for threads in ["7", "8"] {
            let many = repro_threads(args, threads);
            assert!(many.status.success(), "{args:?}: {}", stderr(&many));
            assert_eq!(one.stdout, many.stdout, "{args:?}: NTC_THREADS={threads} moved the bytes");
        }
        let default = repro_clean_env(args);
        assert!(default.status.success(), "{args:?}: {}", stderr(&default));
        assert_eq!(one.stdout, default.stdout, "{args:?}: the default thread count differs");
    }
}

#[test]
fn optimize_is_invariant_to_axis_enumeration_order() {
    // Same space, axes listed in different orders: canonicalization
    // sorts them, so the hash — and therefore the bytes — must agree.
    let dir = scratch("optimize_axis_order");
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    std::fs::write(&a, OPT_REQUEST).unwrap();
    std::fs::write(
        &b,
        concat!(
            r#"{"constraints":{"frequency_hz":290e3},"#,
            r#""space":{"banks":[2,1],"words":[2048],"cells":["cell_based_aoi"],"#,
            r#""schemes":["ocean","secded"]},"restarts":2}"#
        ),
    )
    .unwrap();
    let out_a = repro_clean_env(&["optimize", "--request", a.to_str().unwrap()]);
    let out_b = repro_clean_env(&["optimize", "--request", b.to_str().unwrap()]);
    assert!(out_a.status.success(), "{}", stderr(&out_a));
    assert!(out_b.status.success(), "{}", stderr(&out_b));
    assert_eq!(out_a.stdout, out_b.stdout, "axis enumeration order leaked into the response");
}

#[test]
fn optimize_second_run_is_served_from_the_store_byte_for_byte() {
    let dir = scratch("optimize_store");
    let store = dir.join("store");
    let req = dir.join("request.json");
    std::fs::write(&req, OPT_REQUEST).unwrap();
    let store_s = store.to_str().unwrap();
    let req_s = req.to_str().unwrap();
    let first = repro_clean_env(&["optimize", "--request", req_s, "--store", store_s]);
    assert!(first.status.success(), "{}", stderr(&first));
    assert!(!stderr(&first).contains("served from store"), "first run computes");
    let second = repro_clean_env(&["optimize", "--request", req_s, "--store", store_s]);
    assert!(second.status.success(), "{}", stderr(&second));
    assert!(stderr(&second).contains("served from store"), "{}", stderr(&second));
    assert_eq!(first.stdout, second.stdout, "store replay must be byte-identical");
}

#[test]
fn optimize_paper_preset_rediscovers_the_table2_point() {
    let out = repro_clean_env(&["optimize", "--frequency", "290e3"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let resp = ntc::api::OptimizeResponse::from_json(&stdout(&out))
        .expect("stdout is a typed OptimizeResponse");
    assert!(resp.feasible);
    let best = resp.best.expect("paper space is feasible");
    assert_eq!(best.scheme, ntc::fit::Scheme::Ocean, "Table 2 winner");
    assert_eq!(best.vdd, 0.33, "Table 2 OCEAN supply at 290 kHz");
    let mut req = ntc::api::OptimizeRequest::paper(290e3);
    req.canonicalize();
    assert_eq!(resp.request_hash, req.request_hash_hex(), "hash echoes the request");
}

#[test]
fn optimize_reports_an_infeasible_space_with_exit_one() {
    // 10 GHz is unreachable at <= 1.2 V: the search must terminate
    // cleanly, say so on stderr, and still emit the typed response.
    let dir = scratch("optimize_infeasible");
    let req = dir.join("request.json");
    std::fs::write(
        &req,
        concat!(
            r#"{"constraints":{"frequency_hz":1e10},"#,
            r#""space":{"banks":[1,2],"words":[2048],"cells":["cell_based_aoi"],"#,
            r#""schemes":["ocean"]},"restarts":2}"#
        ),
    )
    .unwrap();
    let out = repro_clean_env(&["optimize", "--request", req.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stderr(&out).contains("no feasible design"), "{}", stderr(&out));
    let resp = ntc::api::OptimizeResponse::from_json(&stdout(&out)).expect("typed body");
    assert!(!resp.feasible);
    assert!(resp.best.is_none());
}

#[test]
fn optimize_rejects_a_deeply_nested_request_without_crashing() {
    // Nesting past the parser's depth bound is a parse error with an
    // exit code, not a stack overflow killed by a signal.
    let dir = scratch("optimize_deep");
    let req = dir.join("deep.json");
    std::fs::write(
        &req,
        format!("{}{}", "[".repeat(200_000), "]".repeat(200_000)),
    )
    .unwrap();
    let out = repro_clean_env(&["optimize", "--request", req.to_str().unwrap()]);
    assert!(out.status.code().is_some_and(|c| c != 0), "{out:?}");
    assert!(
        stderr(&out).contains("nesting too deep"),
        "{}",
        stderr(&out)
    );
}
