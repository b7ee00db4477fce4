//! `repro` — the one CLI for every reproduction in the workspace.
//!
//! ```text
//! repro list [--verbose]                         # experiment ids (+anchors)
//! repro run fig8 table2 --format text            # render artifacts
//! repro run --all --format json --out artifacts/ # machine-readable dump
//! repro run --all --store st --resume            # resume from checkpoints
//! repro run --all --store st --shards 0..32      # worker: claim a range
//! repro check --all                              # verify paper anchors
//! repro diff baselines/quick --quick             # regression-diff a baseline
//! repro report --all --html report.html          # self-contained HTML report
//! repro optimize --frequency 290e3               # design-space autotuner
//! repro serve --port 0                           # HTTP/1.1 JSON query service
//! repro bench-serve --duration-secs 5            # open-loop serve load sweep
//! repro store stat --store st                    # store contents / gc
//! repro status --store st --watch 2              # live fleet progress table
//! ```
//!
//! `run` defaults to full paper-fidelity Monte-Carlo sizes (`--quick`
//! shrinks them for smoke runs); output is deterministic and
//! byte-identical across thread counts. `check` exits nonzero when any
//! artifact misses its paper band and ranks every anchor by its margin
//! to the band edge. `diff` re-runs the experiments found in a previous
//! `--out` directory and exits nonzero on any drift beyond tolerance.
//!
//! With `--store` (or `NTC_STORE`) every Monte-Carlo collective
//! checkpoints its shards into the content-addressed store, so a killed
//! run resumes where it left off, `--shards LO..HI` lets N worker
//! processes split the 64-shard space via lock-file claims, and
//! `--resume` serves already-published artifacts back byte-for-byte
//! without recomputing.
//!
//! Every store-backed run also publishes an integrity-hashed event
//! journal (`events/<worker>.jsonl`, heartbeat cadence `NTC_HEARTBEAT_MS`
//! ms, default 1000) that `repro status` aggregates into a per-worker
//! progress/liveness table — see DESIGN.md §18.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use ntc::artifact::diff::{diff_artifacts, Tolerance};
use ntc::artifact::json::quoted;
use ntc::artifact::{Artifact, Check};
use ntc::repro::{find_id, registry, run_one, ExperimentId, RunCtx, Scale};
use ntc::store::{ArtifactKey, Store};
use ntc_bench::report::{render_report, ReportMeta};
use ntc_bench::{csv_sections, render_csv, render_text};
use ntc_obs::Provenance;
use ntc_stats::exec::MC_SHARDS;

/// Output format of `repro run`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Csv,
    Json,
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  repro list [--verbose] [--store <dir>]\n  repro run <id...>|--all [--format text|csv|json] \
         [--out <dir>] [--trace <file>] [--metrics <file>] [--quick|--scale quick|paper] [--seed <n>]\n            \
         [--store <dir>] [--resume] [--shards <lo>..<hi>]\n  \
         repro check <id...>|--all [--quick] [--seed <n>]\n  \
         repro diff <baseline-dir> [<id...>] [--rtol <x>] [--quick] [--seed <n>]\n  \
         repro report <id...>|--all [--html <file>] [--quick] [--seed <n>]\n  \
         repro optimize --frequency <hz> [--paper] | --request <file>|-\n                 \
         [--seed <n>] [--restarts <n>] [--store <dir>] [--out <file>]\n  \
         repro serve [--addr <ip>] [--port <n>] [--workers <n>] [--queue <n>] \
         [--deadline-ms <n>] [--seed <n>] [--store <dir>] [--memo-cap <n>] [--access-log <file>]\n  \
         repro bench-serve [--rate <rps>] [--duration-secs <n>] [--connections <n>] \
         [--max-clients <n>] [--run-every <n>] [--workers <n>] [--queue <n>] [--out <file>]\n  \
         repro store stat|gc [--store <dir>]\n  \
         repro status [--store <dir>] [--watch <secs>] [--format text|json]\n\
         (--store defaults to the NTC_STORE environment variable when set)"
    );
    std::process::exit(2);
}

/// Parsed options shared by `run`/`check`/`diff`/`report`.
struct Options {
    ids: Vec<String>,
    all: bool,
    format: Format,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    html: Option<PathBuf>,
    quick: bool,
    seed: Option<u64>,
    rtol: Option<f64>,
    verbose: bool,
    store: Option<PathBuf>,
    resume: bool,
    shards: Option<(u32, u32)>,
    watch: Option<u64>,
}

/// Whether a subcommand needs an explicit experiment selection.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Selection {
    Required,
    Optional,
}

fn parse_options(args: &[String], selection: Selection) -> Options {
    let mut opts = Options {
        ids: Vec::new(),
        all: false,
        format: Format::Text,
        out: None,
        trace: None,
        metrics: None,
        html: None,
        quick: false,
        seed: None,
        rtol: None,
        verbose: false,
        store: None,
        resume: false,
        shards: None,
        watch: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => opts.all = true,
            "--quick" => opts.quick = true,
            "--resume" => opts.resume = true,
            "--verbose" => opts.verbose = true,
            "--scale" => match it.next().map(String::as_str) {
                Some("quick") => opts.quick = true,
                Some("paper") => opts.quick = false,
                _ => usage(),
            },
            "--store" => match it.next() {
                Some(dir) => opts.store = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--shards" => match it.next().and_then(|s| parse_shard_range(s)) {
                Some(range) => opts.shards = Some(range),
                None => usage(),
            },
            "--watch" => match it.next().and_then(|s| s.parse().ok()) {
                Some(secs) if secs > 0 => opts.watch = Some(secs),
                _ => usage(),
            },
            "--format" => {
                opts.format = match it.next().map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("csv") => Format::Csv,
                    Some("json") => Format::Json,
                    _ => usage(),
                }
            }
            "--out" => match it.next() {
                Some(dir) => opts.out = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--trace" => match it.next() {
                Some(path) => opts.trace = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--metrics" => match it.next() {
                Some(path) => opts.metrics = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--html" => match it.next() {
                Some(path) => opts.html = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(seed) => opts.seed = Some(seed),
                None => usage(),
            },
            "--rtol" => match it.next().and_then(|s| s.parse().ok()) {
                Some(rtol) if rtol >= 0.0 => opts.rtol = Some(rtol),
                _ => usage(),
            },
            flag if flag.starts_with('-') => usage(),
            id => opts.ids.push(id.to_string()),
        }
    }
    if selection == Selection::Required && opts.all != opts.ids.is_empty() {
        // Either explicit ids or --all, not both and not neither.
        usage();
    }
    if selection == Selection::Optional && opts.all && !opts.ids.is_empty() {
        usage();
    }
    opts
}

/// Parses a worker shard claim, `"LO..HI"` over the fixed 64-shard
/// layout. Half-open, nonempty, within `0..=MC_SHARDS`.
fn parse_shard_range(s: &str) -> Option<(u32, u32)> {
    let (lo, hi) = s.split_once("..")?;
    let lo: u32 = lo.trim().parse().ok()?;
    let hi: u32 = hi.trim().parse().ok()?;
    (lo < hi && hi as usize <= MC_SHARDS).then_some((lo, hi))
}

/// Opens the store named by `--store` or the `NTC_STORE` environment
/// variable, if either is present. Exits on an unusable root.
fn open_store(opts: &Options) -> Option<Store> {
    let root = opts
        .store
        .clone()
        .or_else(|| std::env::var("NTC_STORE").ok().filter(|s| !s.is_empty()).map(PathBuf::from))?;
    match Store::open(&root) {
        Ok(store) => Some(store),
        Err(e) => {
            eprintln!("cannot open store {}: {e}", root.display());
            std::process::exit(1);
        }
    }
}

fn context(opts: &Options) -> RunCtx {
    let mut builder = RunCtx::builder();
    if opts.quick {
        builder = builder.quick();
    }
    if let Some(seed) = opts.seed {
        builder = builder.seed(seed);
    }
    builder.build()
}

/// Resolves the requested experiments, exiting on unknown ids. The
/// typed-id parse error already enumerates every registered id, so the
/// operator sees the valid vocabulary, not just a rejection.
fn resolve(opts: &Options) -> Vec<Box<dyn ntc::repro::Experiment>> {
    if opts.all {
        return registry();
    }
    opts.ids
        .iter()
        .map(|id| match id.parse::<ExperimentId>() {
            Ok(id) => find_id(id),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        })
        .collect()
}

fn write_file(path: &Path, contents: &str) {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", parent.display());
            std::process::exit(1);
        });
    }
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    });
}

fn emit(artifact: &Artifact, format: Format, out: Option<&Path>) {
    match (format, out) {
        (Format::Text, None) => print!("{}", render_text(artifact)),
        (Format::Csv, None) => print!("{}", render_csv(artifact)),
        (Format::Json, None) => print!("{}", artifact.to_json()),
        (Format::Text, Some(dir)) => {
            write_file(&dir.join(format!("{}.txt", artifact.id)), &render_text(artifact));
        }
        (Format::Json, Some(dir)) => {
            write_file(&dir.join(format!("{}.json", artifact.id)), &artifact.to_json());
        }
        (Format::Csv, Some(dir)) => {
            for (name, csv) in csv_sections(artifact) {
                write_file(&dir.join(format!("{}_{}.csv", artifact.id, name)), &csv);
            }
        }
    }
}

/// What the store holds for one experiment at `seed`: which scales have
/// a published artifact, or how many shard checkpoints are banked.
fn store_status(store: &Store, id: &str, seed: u64) -> String {
    let mut cached: Vec<&str> = Vec::new();
    for scale in [Scale::Paper, Scale::Quick] {
        if store.has_artifact(&ArtifactKey::new(id, scale, seed)) {
            cached.push(scale.name());
        }
    }
    if !cached.is_empty() {
        return format!("cached({})", cached.join(","));
    }
    match store.checkpoint_count(id) {
        0 => "absent".to_string(),
        n => format!("ckpt({n})"),
    }
}

fn cmd_list(opts: &Options) -> ExitCode {
    if !opts.verbose {
        for e in registry() {
            println!("{:<22} {}", e.id(), e.description());
        }
        return ExitCode::SUCCESS;
    }
    // Anchor counts come from an actual (quick-scale) run: the registry
    // is the single source of truth, so nothing here can go stale.
    let ctx = RunCtx::quick();
    let store = open_store(opts);
    let seed = opts.seed.unwrap_or_else(|| ctx.seed());
    match &store {
        Some(_) => println!(
            "{:<22} {:<26} {:>7}  {:<16} description",
            "experiment", "paper ref", "anchors", "store"
        ),
        None => println!("{:<22} {:<26} {:>7}  description", "experiment", "paper ref", "anchors"),
    }
    for e in registry() {
        let anchors = e.run(&ctx).checks().len();
        match &store {
            Some(store) => println!(
                "{:<22} {:<26} {:>7}  {:<16} {}",
                e.id(),
                e.paper_ref(),
                anchors,
                store_status(store, &e.id().to_string(), seed),
                e.description()
            ),
            None => println!(
                "{:<22} {:<26} {:>7}  {}",
                e.id(),
                e.paper_ref(),
                anchors,
                e.description()
            ),
        }
    }
    if let Some(store) = &store {
        println!("\nstore {}: {}", store.root().display(), store.stat().summary());
    }
    ExitCode::SUCCESS
}

/// Emits an artifact served straight from the store. JSON output reuses
/// the **stored bytes** (byte-identity is the contract, not a re-render);
/// text/CSV render from the parsed artifact.
fn emit_cached(artifact: &Artifact, json: &str, format: Format, out: Option<&Path>) {
    match (format, out) {
        (Format::Json, None) => print!("{json}"),
        (Format::Json, Some(dir)) => {
            write_file(&dir.join(format!("{}.json", artifact.id)), json);
        }
        _ => emit(artifact, format, out),
    }
}

fn cmd_run(opts: &Options) -> ExitCode {
    let ctx = context(opts);
    // Any sink flag (or an --out dir, which gets provenance sidecars)
    // turns the observability layer on. Artifact bytes are identical
    // either way: telemetry only ever reaches sidecar files.
    let observing = opts.trace.is_some() || opts.metrics.is_some() || opts.out.is_some();
    if observing {
        ntc_obs::enable();
    }
    let store = open_store(opts);
    // Store-backed runs publish heartbeat journals fed by the progress
    // tracker, which (like all telemetry) only collects while the obs
    // layer is on. Artifact bytes are unaffected by contract.
    if store.is_some() {
        ntc_obs::enable();
    }
    if (opts.resume || opts.shards.is_some()) && store.is_none() {
        eprintln!("--resume/--shards need a store: pass --store <dir> or set NTC_STORE");
        std::process::exit(2);
    }
    // Worker mode claims its shard range up front; overlapping claims
    // (another live worker, or a stale lock from a killed one) refuse
    // loudly rather than duplicating or corrupting work.
    let claim = match (&store, opts.shards) {
        (Some(store), Some((lo, hi))) => match store.claim_shards(lo, hi) {
            Ok(claim) => Some(claim),
            Err(e) => {
                eprintln!("cannot claim shards {lo}..{hi}: {e}");
                std::process::exit(1);
            }
        },
        _ => None,
    };
    // Every store-backed run keeps an event journal in the store
    // (`events/<worker>.jsonl`): claims, shard lifecycle, heartbeats.
    // The journal decorates the checkpoint sink; disk flushes happen on
    // the heartbeat ticker, never on the compute path.
    let journal = store.as_ref().map(|store| {
        let (lo, hi) = opts.shards.unwrap_or((0, u32::try_from(MC_SHARDS).unwrap_or(u32::MAX)));
        let flush_ms = std::env::var("NTC_HEARTBEAT_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&ms| ms > 0)
            .unwrap_or(ntc::journal::DEFAULT_FLUSH_MS);
        ntc::journal::Journal::new(store, lo, hi, flush_ms)
    });
    if let (Some(store), Some(journal)) = (&store, &journal) {
        ntc_stats::ckpt::install(Arc::new(ntc::journal::JournalSink::new(
            store.sink(opts.shards),
            Arc::clone(journal),
        )));
    }
    let heartbeat = journal.as_ref().map(|j| ntc::journal::Heartbeat::start(Arc::clone(j)));
    if let Some(dir) = &opts.out {
        // Create the output directory (with parents) up front so a
        // long run never fails at write time.
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("cannot create output directory {}: {e}", dir.display());
            std::process::exit(1);
        });
    }
    let mut partial = 0usize;
    for e in resolve(opts) {
        let id = e.id().to_string();
        // Checkpoints are scoped per experiment so `repro list --verbose`
        // can attribute them and two experiments sharing a kernel+params
        // never cross-pollinate.
        ntc_stats::ckpt::set_scope(&id);
        let key = ArtifactKey::new(&id, ctx.scale(), ctx.seed());
        if opts.resume && opts.shards.is_none() {
            if let Some(json) = store.as_ref().and_then(|s| s.get_artifact(&key)) {
                if let Ok(artifact) = Artifact::from_json(&json) {
                    emit_cached(&artifact, &json, opts.format, opts.out.as_deref());
                    eprintln!("{id}: served from store ({})", key.file_name());
                    continue;
                }
            }
        }
        let started = Instant::now();
        ntc_stats::ckpt::take_missing();
        let artifact = run_one(e.as_ref(), &ctx);
        let wall_ns = started.elapsed().as_nanos();
        let missing = ntc_stats::ckpt::take_missing();
        if let Some(claim) = &claim {
            // Worker mode: the artifact folded identity values for every
            // unclaimed shard, so it is deliberately discarded — only the
            // checkpoints this worker owns are the product.
            eprintln!(
                "worker {}..{}: {id} checkpointed ({missing} shard results outside claim)",
                claim.lo, claim.hi
            );
            continue;
        }
        if missing > 0 {
            // Unreachable without a range-restricted sink, but never
            // publish or emit a partial artifact if it does happen.
            eprintln!("{id}: PARTIAL result ({missing} shards missing) — discarded");
            partial += 1;
            continue;
        }
        emit(&artifact, opts.format, opts.out.as_deref());
        if let Some(store) = &store {
            if let Err(e) = store.put_artifact(&key, &artifact.to_json()) {
                eprintln!("warning: could not publish {id} to store: {e}");
            }
        }
        if let Some(dir) = &opts.out {
            let provenance = Provenance {
                experiment: artifact.id.clone(),
                seed: ctx.seed(),
                scale: ctx.scale().name().to_string(),
                version: ntc_obs::version(),
                threads: ctx.threads(),
                wall_ns,
                metrics: ntc_obs::metrics_snapshot(),
            };
            write_file(
                &dir.join(format!("{}.provenance.json", artifact.id)),
                &provenance.to_json(),
            );
            eprintln!("wrote {} ({})", dir.join(artifact.id.as_str()).display(), match opts.format {
                Format::Text => "text",
                Format::Csv => "csv",
                Format::Json => "json",
            });
        }
    }
    if observing {
        // Derive the headline cache gauge from the raw counters so the
        // metrics snapshot carries it ready-made.
        let snap = ntc_obs::metrics_snapshot();
        let hits = snap.counter("memcalc.cache.hit").unwrap_or(0);
        let misses = snap.counter("memcalc.cache.miss").unwrap_or(0);
        let total = hits + misses;
        #[allow(clippy::cast_precision_loss)]
        ntc_obs::gauge_set(
            "memcalc.cache.hit_rate",
            if total == 0 { 0.0 } else { hits as f64 / total as f64 },
        );
    }
    if let Some(path) = &opts.metrics {
        write_file(path, &ntc_obs::metrics_json(&ntc_obs::metrics_snapshot()));
        eprintln!("wrote metrics {}", path.display());
    }
    if let Some(path) = &opts.trace {
        let spans = ntc_obs::take_spans();
        write_file(path, &ntc_obs::chrome_trace(&spans));
        // Spans the bounded ring overwrote are missing from the trace.
        let dropped = ntc_obs::metrics_snapshot().counter("obs.spans_dropped").unwrap_or(0);
        eprintln!("wrote trace {} ({} spans, {dropped} dropped)", path.display(), spans.len());
    }
    ntc_stats::ckpt::set_scope("");
    if let Some(hb) = heartbeat {
        hb.stop();
    }
    if let Some(j) = &journal {
        // Terminal `done` marker: `repro status` distinguishes a
        // finished worker from a stalled one by this event, not by
        // journal age.
        j.done();
    }
    if store.is_some() {
        ntc_stats::ckpt::uninstall();
    }
    drop(claim);
    if partial > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_check(opts: &Options) -> ExitCode {
    let ctx = context(opts);
    let mut checks: Vec<Check> = Vec::new();
    for e in resolve(opts) {
        checks.extend(e.run(&ctx).checks());
    }
    println!(
        "{:<22} {:<52} {:>14} {:>14} {:>10}   verdict",
        "experiment", "anchor", "measured", "paper", "margin"
    );
    for check in &checks {
        println!(
            "{:<22} {:<52} {:>14.6} {:>14.6} {:>10}   {} ({})",
            check.artifact,
            check.label,
            check.measured,
            check.paper.paper,
            check.margin_display(),
            if !check.passes() {
                "MISS"
            } else if check.at_risk() {
                "ok (AT RISK)"
            } else {
                "ok"
            },
            check.paper.band,
        );
    }

    // Ranked margin table: every finite-margin anchor, closest to its
    // band edge first, so drift shows up here before it becomes a MISS.
    let mut ranked: Vec<&Check> = checks.iter().filter(|c| c.margin().is_finite()).collect();
    ranked.sort_by(|a, b| {
        a.margin()
            .partial_cmp(&b.margin())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.artifact.cmp(&b.artifact))
            .then_with(|| a.label.cmp(&b.label))
    });
    println!("\nsmallest margins (distance to band edge, normalized):");
    for check in ranked.iter().take(10) {
        println!(
            "  {:>10}  {:<22} {}{}",
            check.margin_display(),
            check.artifact,
            check.label,
            if !check.passes() {
                "  [MISS]"
            } else if check.at_risk() {
                "  [AT RISK]"
            } else {
                ""
            },
        );
    }

    let missed = checks.iter().filter(|c| !c.passes()).count();
    let at_risk = checks.iter().filter(|c| c.at_risk()).count();
    println!("\n{} anchors checked, {} missed, {} at risk", checks.len(), missed, at_risk);
    if missed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Loads every artifact JSON in a baseline directory (ignoring
/// provenance sidecars and non-JSON files), sorted by experiment id.
fn load_baseline(dir: &Path) -> Vec<Artifact> {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| {
        eprintln!("cannot read baseline directory {}: {e}", dir.display());
        std::process::exit(2);
    });
    let mut artifacts = Vec::new();
    for entry in entries {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json") || name.ends_with(".provenance.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(2);
        });
        match Artifact::from_json(&text) {
            Ok(artifact) => artifacts.push(artifact),
            Err(e) => {
                eprintln!("{} is not an artifact: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    if artifacts.is_empty() {
        eprintln!("no artifact JSON files in {}", dir.display());
        std::process::exit(2);
    }
    artifacts.sort_by(|a, b| a.id.cmp(&b.id));
    artifacts
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let Some((dir, rest)) = args.split_first() else { usage() };
    let opts = parse_options(rest, Selection::Optional);
    let baseline = load_baseline(Path::new(dir));
    let tol = Tolerance::rel(opts.rtol.unwrap_or(Tolerance::default().rtol));
    let ctx = context(&opts);
    let mut regressions = 0usize;
    let mut compared = 0usize;
    for old in &baseline {
        if !opts.ids.is_empty() && !opts.ids.contains(&old.id) {
            continue;
        }
        let Ok(e) = old.id.parse::<ExperimentId>().map(find_id) else {
            println!("[structure] {}: experiment no longer registered", old.id);
            regressions += 1;
            continue;
        };
        compared += 1;
        let new = run_one(e.as_ref(), &ctx);
        let diff = diff_artifacts(old, &new, tol);
        if diff.is_clean() {
            println!("{:<22} ok", old.id);
        } else {
            println!("{:<22} {} difference(s)", old.id, diff.entries.len());
            for entry in &diff.entries {
                println!("  {entry}");
            }
            regressions += diff.entries.len();
        }
    }
    if compared == 0 && regressions == 0 {
        eprintln!("no baseline artifact matched the requested ids");
        return ExitCode::from(2);
    }
    println!(
        "\n{} artifact(s) compared against {}, {} difference(s) (rtol {})",
        compared,
        dir,
        regressions,
        tol.rtol
    );
    if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_report(opts: &Options) -> ExitCode {
    // The report carries convergence/fit diagnostics, which only exist
    // while the observability layer is up.
    ntc_obs::enable();
    let ctx = context(opts);
    let artifacts: Vec<Artifact> =
        resolve(opts).iter().map(|e| run_one(e.as_ref(), &ctx)).collect();
    let meta = ReportMeta {
        version: ntc_obs::version(),
        seed: ctx.seed(),
        scale: ctx.scale().name().to_string(),
        threads: ctx.threads(),
    };
    let html = render_report(&artifacts, &meta, &ntc_obs::metrics_snapshot());
    match &opts.html {
        Some(path) => {
            write_file(path, &html);
            eprintln!("wrote report {}", path.display());
        }
        None => print!("{html}"),
    }
    ExitCode::SUCCESS
}

/// `repro optimize` — the design-space autotuner from the command
/// line. The same typed [`ntc::api::OptimizeRequest`] the server
/// parses, the same [`ntc::optimize::optimize`] search, the same
/// [`ntc::api::OptimizeResponse::to_json`] bytes on the way out — so
/// a CLI answer and a `POST /v1/optimize` answer for one request are
/// byte-identical, and a `--store` shared with a server shares its
/// memoized results both ways (same `optimize-{hash}` key).
fn cmd_optimize(args: &[String]) -> ExitCode {
    use ntc::api::{OptimizeRequest, OptimizeResponse};

    let mut request_path: Option<String> = None;
    let mut frequency: Option<f64> = None;
    let mut seed: Option<u64> = None;
    let mut restarts: Option<u32> = None;
    let mut store_root: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--request" => match it.next() {
                Some(path) => request_path = Some(path.clone()),
                None => usage(),
            },
            "--frequency" => match it.next().and_then(|s| s.parse().ok()) {
                Some(f) if f > 0.0 => frequency = Some(f),
                _ => usage(),
            },
            // The paper design space is already the default whenever the
            // request is built from --frequency; the flag documents intent.
            "--paper" => {}
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = Some(s),
                None => usage(),
            },
            "--restarts" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if (1..=64).contains(&n) => restarts = Some(n),
                _ => usage(),
            },
            "--store" => match it.next() {
                Some(dir) => store_root = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--out" => match it.next() {
                Some(file) => out = Some(PathBuf::from(file)),
                None => usage(),
            },
            _ => usage(),
        }
    }

    let mut req = match (&request_path, frequency) {
        (Some(_), Some(_)) => {
            eprintln!("--request and --frequency are mutually exclusive");
            std::process::exit(2);
        }
        (Some(path), None) => {
            let text = if path == "-" {
                use std::io::Read as _;
                let mut buf = String::new();
                if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                    eprintln!("cannot read request from stdin: {e}");
                    std::process::exit(2);
                }
                buf
            } else {
                std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("cannot read request {path}: {e}");
                    std::process::exit(2);
                })
            };
            match OptimizeRequest::from_json(&text) {
                Ok(req) => req,
                Err(e) => {
                    eprintln!("invalid optimize request: {e}");
                    std::process::exit(2);
                }
            }
        }
        (None, Some(f)) => OptimizeRequest::paper(f),
        (None, None) => {
            eprintln!("optimize needs --frequency <hz> or --request <file>|-");
            std::process::exit(2);
        }
    };
    if let Some(s) = seed {
        req.seed = s;
    }
    if let Some(n) = restarts {
        req.restarts = n;
    }
    // Overrides change the canonical rendering, so re-canonicalize
    // before hashing: the request hash is the memoization key the
    // server shares.
    req.canonicalize();

    let store = match &store_root {
        Some(root) => match Store::open(root) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!("cannot open store {}: {e}", root.display());
                std::process::exit(1);
            }
        },
        None => std::env::var("NTC_STORE")
            .ok()
            .filter(|s| !s.is_empty())
            .map(|root| match Store::open(Path::new(&root)) {
                Ok(store) => store,
                Err(e) => {
                    eprintln!("cannot open store {root}: {e}");
                    std::process::exit(1);
                }
            }),
    };
    // The optimizer emits spans/counters; they only reach sidecars and
    // stores, never the response bytes.
    ntc_obs::enable();

    let hex = req.request_hash_hex();
    let key = ArtifactKey::new(&format!("optimize-{hex}"), Scale::Quick, req.seed);
    let cached = store.as_ref().and_then(|s| s.get_artifact(&key)).filter(|body| {
        OptimizeResponse::from_json(body).is_ok_and(|r| r.request_hash == hex)
    });
    let body = match cached {
        Some(body) => {
            eprintln!("optimize: served from store ({})", key.file_name());
            body
        }
        None => {
            let body = ntc::optimize::optimize(&req).to_json();
            if let Some(store) = &store {
                if let Err(e) = store.put_artifact(&key, &body) {
                    eprintln!("warning: could not publish to store: {e}");
                }
            }
            body
        }
    };
    match &out {
        Some(path) => {
            write_file(path, &body);
            eprintln!("wrote {}", path.display());
        }
        None => print!("{body}"),
    }
    let resp = OptimizeResponse::from_json(&body).expect("optimizer response parses");
    if resp.feasible {
        ExitCode::SUCCESS
    } else {
        eprintln!("optimize: no feasible design in the requested space");
        ExitCode::FAILURE
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut config = ntc_serve::ServeConfig::default();
    let mut ip = "127.0.0.1".to_string();
    let mut port: u16 = 7878;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => ip = a.clone(),
                None => usage(),
            },
            "--port" => match it.next().and_then(|s| s.parse().ok()) {
                Some(p) => port = p,
                None => usage(),
            },
            "--workers" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => config.workers = n,
                _ => usage(),
            },
            "--queue" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => config.queue_capacity = n,
                _ => usage(),
            },
            "--deadline-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(ms) if ms > 0 => {
                    config.deadline = std::time::Duration::from_millis(ms);
                }
                _ => usage(),
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(seed) => config.seed = seed,
                None => usage(),
            },
            "--store" => match it.next() {
                Some(dir) => config.store = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--memo-cap" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => config.memo_cap = n,
                None => usage(),
            },
            "--access-log" => match it.next() {
                Some(file) => config.access_log = Some(PathBuf::from(file)),
                None => usage(),
            },
            _ => usage(),
        }
    }
    if config.store.is_none() {
        if let Ok(root) = std::env::var("NTC_STORE") {
            if !root.is_empty() {
                config.store = Some(PathBuf::from(root));
            }
        }
    }
    config.addr = format!("{ip}:{port}");
    // The service publishes /metrics, so the layer is always on here;
    // artifact bytes are unaffected by contract.
    ntc_obs::enable();
    ntc_serve::signal::install();
    match ntc_serve::Server::bind(config) {
        Ok(server) => {
            // Machine-readable first line: scripts parse the resolved
            // port from here when started with --port 0.
            println!("listening on http://{}", server.addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            server.join();
            eprintln!("shutdown complete");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot bind {ip}:{port}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One quantile, rendered for the bench JSON (`null` when empty).
fn q_json(latency: &ntc_obs::HistogramSnapshot, q: f64) -> String {
    match latency.quantile(q) {
        Some(v) => format!("{v:.4}"),
        None => "null".to_string(),
    }
}

fn cmd_bench_serve(args: &[String]) -> ExitCode {
    let mut config = ntc_serve::ServeConfig::default();
    let mut load = ntc_bench::loadgen::LoadConfig::default();
    let mut rate: Option<f64> = None;
    let mut out = PathBuf::from("BENCH_serve.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rate" => match it.next().and_then(|s| s.parse().ok()) {
                Some(r) if r > 0.0 => rate = Some(r),
                _ => usage(),
            },
            "--duration-secs" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) if s > 0 => load.duration = std::time::Duration::from_secs(s),
                _ => usage(),
            },
            "--connections" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => load.connections = n,
                _ => usage(),
            },
            "--max-clients" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => load.max_clients = n,
                _ => usage(),
            },
            "--run-every" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => load.run_every = n,
                None => usage(),
            },
            "--workers" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => config.workers = n,
                _ => usage(),
            },
            "--queue" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => config.queue_capacity = n,
                _ => usage(),
            },
            "--out" => match it.next() {
                Some(file) => out = PathBuf::from(file),
                None => usage(),
            },
            _ => usage(),
        }
    }

    // Spawn the server in-process on an OS-assigned port: same code
    // path as `repro serve`, no subprocess management, and the metrics
    // registry is still reachable over HTTP only — the generator reads
    // /metrics like any external scraper would.
    ntc_obs::enable();
    config.addr = "127.0.0.1:0".to_string();
    let server = match ntc_serve::Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind loopback server: {e}");
            return ExitCode::FAILURE;
        }
    };
    load.addr = server.addr();
    eprintln!("bench-serve: server on http://{}", load.addr);

    // Warm the /run memo and the query models once so the sweep
    // measures steady state, not first-touch compute.
    for i in [0u64, 1, 2, 3] {
        let (method, target, body) = ntc_bench::loadgen::request_for(i, 1.max(load.run_every));
        let _ = bench_http(load.addr, method, target, &body);
    }

    // Closed-loop capacity probe, then an open-loop sweep up to 10x.
    let capacity = ntc_bench::loadgen::measure_capacity(
        load.addr,
        load.connections,
        std::time::Duration::from_secs(1),
        load.timeout,
    );
    eprintln!("bench-serve: measured capacity {capacity:.0} req/s");
    let factors: Vec<f64> = match rate {
        Some(_) => vec![1.0],
        None => vec![0.25, 0.5, 1.0, 2.0, 10.0],
    };

    let mut sweep_rows = Vec::new();
    let mut sustained: f64 = 0.0;
    let mut all_clean = true;
    for &factor in &factors {
        load.rate = rate.unwrap_or_else(|| (capacity * factor).max(1.0));
        let report = ntc_bench::loadgen::run_open_loop(&load);
        eprintln!(
            "bench-serve: x{factor} target {:.0} req/s -> {:.0} ok/s, {} x503, {} errors, {} saturated, p999 {} ms",
            load.rate,
            report.achieved_rps(),
            report.rejected_503,
            report.http_errors + report.transport_errors,
            report.saturated,
            q_json(&report.latency, 0.999),
        );
        if report.clean() {
            sustained = sustained.max(report.achieved_rps());
        }
        all_clean &= report.clean();
        #[allow(clippy::cast_precision_loss)]
        let err_rate = (report.http_errors + report.transport_errors) as f64
            / (report.offered.max(1)) as f64;
        #[allow(clippy::cast_precision_loss)]
        let reject_rate = report.rejected_503 as f64 / (report.offered.max(1)) as f64;
        sweep_rows.push(format!(
            "{{\"factor\":{factor},\"target_rps\":{:.2},\"offered\":{},\"ok\":{},\
             \"rejected_503\":{},\"http_errors\":{},\"transport_errors\":{},\"saturated\":{},\
             \"achieved_rps\":{:.2},\"error_rate\":{err_rate:.6},\"reject_rate\":{reject_rate:.6},\
             \"p50_ms\":{},\"p90_ms\":{},\"p99_ms\":{},\"p999_ms\":{}}}",
            load.rate,
            report.offered,
            report.ok,
            report.rejected_503,
            report.http_errors,
            report.transport_errors,
            report.saturated,
            report.achieved_rps(),
            q_json(&report.latency, 0.5),
            q_json(&report.latency, 0.9),
            q_json(&report.latency, 0.99),
            q_json(&report.latency, 0.999),
        ));
    }

    // Cache effectiveness, read from /metrics like any other scraper.
    let metrics = bench_http(load.addr, "GET", "/v1/metrics", "").unwrap_or_default().1;
    let parsed = ntc::artifact::json::parse(&metrics).ok();
    let counter = |name: &str| -> f64 {
        parsed
            .as_ref()
            .and_then(|v| v.get(name))
            .and_then(|m| m.get("value"))
            .and_then(ntc::artifact::json::JsonValue::as_num)
            .unwrap_or(0.0)
    };
    let store_lookups = counter("store.hit") + counter("store.miss");
    let store_hit_rate =
        if store_lookups > 0.0 { counter("store.hit") / store_lookups } else { 0.0 };
    let runs = counter("serve.run.memo_hit") + counter("serve.run.computed");
    let memo_hit_rate = if runs > 0.0 { counter("serve.run.memo_hit") / runs } else { 0.0 };

    let json = format!(
        "{{\"schema\":\"ntc.bench.serve.v1\",\"connections\":{},\"max_clients\":{},\
         \"duration_secs\":{},\
         \"run_every\":{},\"capacity_rps\":{capacity:.2},\"sustained_rps\":{sustained:.2},\
         \"cache\":{{\"query_hit_rate\":{:.4},\"run_memo_hit_rate\":{memo_hit_rate:.4},\
         \"store_hit_rate\":{store_hit_rate:.4}}},\"sweep\":[{}]}}\n",
        load.connections,
        load.max_clients,
        load.duration.as_secs(),
        load.run_every,
        counter("serve.cache.hit_rate"),
        sweep_rows.join(","),
    );
    write_file(&out, &json);
    eprintln!("wrote {}", out.display());

    server.shutdown();
    if all_clean {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench-serve: non-503 failures observed — failing");
        ExitCode::FAILURE
    }
}

/// One scripted request from the bench harness (status, body).
fn bench_http(
    addr: std::net::SocketAddr,
    method: &str,
    target: &str,
    body: &str,
) -> Option<(u16, String)> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(60))).ok()?;
    let raw = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).ok()?;
    let mut text = String::new();
    stream.read_to_string(&mut text).ok()?;
    let status = text.split(' ').nth(1).and_then(|s| s.parse().ok())?;
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Some((status, body))
}

fn cmd_store(args: &[String]) -> ExitCode {
    let Some((action, rest)) = args.split_first() else { usage() };
    let opts = parse_options(rest, Selection::Optional);
    let Some(store) = open_store(&opts) else {
        eprintln!("no store: pass --store <dir> or set NTC_STORE");
        std::process::exit(2);
    };
    match action.as_str() {
        "stat" => {
            println!("store {}", store.root().display());
            println!("version {}", ntc::store::store_version());
            // Ages come from file mtimes: "newest" is the most recent
            // write (how fresh the store is), "oldest" the first.
            let age = |a: Option<u64>| a.map_or_else(|| "-".to_string(), |s| format!("{s}s"));
            for row in store.age_summary() {
                // The on-disk subtree is `events/`; the operator-facing
                // name for its contents is worker journals.
                let label = if row.kind == "events" { "journals" } else { row.kind };
                println!(
                    "{label} {} bytes {} ({}) newest {} oldest {}",
                    row.count,
                    row.bytes,
                    ntc::store::human_bytes(row.bytes),
                    age(row.newest_secs),
                    age(row.oldest_secs),
                );
            }
            ExitCode::SUCCESS
        }
        "gc" => match store.gc() {
            Ok(removed) => {
                println!("removed: {}", removed.summary());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("gc failed: {e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}

/// Renders `null` for a missing ETA, seconds (3 decimals) otherwise.
fn eta_json(eta: Option<f64>) -> String {
    eta.map_or_else(|| "null".to_string(), |e| format!("{e:.3}"))
}

/// One `ntc.status.v1` JSON document: per-worker rows plus the merged
/// fleet view and store-wide claim/checkpoint state.
fn render_status_json(store: &Store, fleet: &ntc::journal::FleetStatus, now_ms: u64) -> String {
    let workers: Vec<String> = fleet
        .workers
        .iter()
        .map(|w| {
            format!(
                "{{\"worker\":{},\"pid\":{},\"lo\":{},\"hi\":{},\"state\":\"{}\",\
                 \"flush_ms\":{},\"shards_done\":{},\"shards_total\":{},\"trials_done\":{},\
                 \"trials_total\":{},\"restored\":{},\"computed\":{},\"samples_per_sec\":{:.3},\
                 \"eta_secs\":{},\"heartbeat_age_ms\":{},\"checkpoint_age_ms\":{},\
                 \"events\":{},\"corrupt_lines\":{},\"done\":{}}}",
                quoted(&w.worker),
                w.pid,
                w.lo,
                w.hi,
                w.state(now_ms).name(),
                w.flush_ms,
                w.progress.shards_done,
                w.progress.shards_total,
                w.progress.trials_done,
                w.progress.trials_total,
                w.progress.restored,
                w.progress.computed,
                w.progress.samples_per_sec,
                eta_json(w.eta_secs()),
                w.heartbeat_age_ms(now_ms),
                w.checkpoint_age_ms(now_ms)
                    .map_or_else(|| "null".to_string(), |a| a.to_string()),
                w.events,
                w.corrupt_lines,
                w.done,
            )
        })
        .collect();
    let claims: Vec<String> =
        fleet.claims.iter().map(|(lo, hi)| format!("[{lo},{hi}]")).collect();
    let merged = fleet.merged();
    let fleet_eta = if fleet.workers.iter().all(|w| w.done) {
        Some(0.0)
    } else {
        merged.eta_secs()
    };
    format!(
        "{{\"schema\":\"ntc.status.v1\",\"store\":{},\"now_ms\":{now_ms},\
         \"workers\":[{}],\"claims\":[{}],\"checkpoints\":{},\"checkpoint_bytes\":{},\
         \"fleet\":{{\"shards_done\":{},\"shards_total\":{},\"trials_done\":{},\
         \"trials_total\":{},\"samples_per_sec\":{:.3},\"eta_secs\":{},\"stalled\":{}}}}}\n",
        quoted(&store.root().display().to_string()),
        workers.join(","),
        claims.join(","),
        fleet.checkpoints,
        fleet.checkpoint_bytes,
        merged.shards_done,
        merged.shards_total,
        merged.trials_done,
        merged.trials_total,
        merged.samples_per_sec,
        eta_json(fleet_eta),
        fleet.stalled(now_ms),
    )
}

/// The human table behind `repro status` (and `--watch`).
fn render_status_text(store: &Store, fleet: &ntc::journal::FleetStatus, now_ms: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "store {} — {} worker(s), {} stalled\n",
        store.root().display(),
        fleet.workers.len(),
        fleet.stalled(now_ms)
    ));
    out.push_str(&format!(
        "{:<20} {:<9} {:>11} {:>21} {:>12} {:>9} {:>9} {:>10}  state\n",
        "worker", "shards", "done/total", "trials done/total", "samples/s", "ckpt age", "hb age", "eta"
    ));
    for w in &fleet.workers {
        let eta = w
            .eta_secs()
            .map_or_else(|| "-".to_string(), |e| format!("{e:.1}s"));
        let ckpt_age = w
            .checkpoint_age_ms(now_ms)
            .map_or_else(|| "-".to_string(), |a| format!("{:.1}s", a as f64 / 1e3));
        out.push_str(&format!(
            "{:<20} {:<9} {:>11} {:>21} {:>12.1} {:>9} {:>9} {:>10}  {}\n",
            w.worker,
            format!("{}..{}", w.lo, w.hi),
            format!("{}/{}", w.progress.shards_done, w.progress.shards_total),
            format!("{}/{}", w.progress.trials_done, w.progress.trials_total),
            w.progress.samples_per_sec,
            ckpt_age,
            format!("{:.1}s", w.heartbeat_age_ms(now_ms) as f64 / 1e3),
            eta,
            w.state(now_ms).name(),
        ));
    }
    let merged = fleet.merged();
    let claims: Vec<String> =
        fleet.claims.iter().map(|(lo, hi)| format!("{lo}..{hi}")).collect();
    out.push_str(&format!(
        "fleet: {}/{} shards, {}/{} trials, {:.1} samples/s; {} checkpoints ({}); claims: {}\n",
        merged.shards_done,
        merged.shards_total,
        merged.trials_done,
        merged.trials_total,
        merged.samples_per_sec,
        fleet.checkpoints,
        ntc::store::human_bytes(fleet.checkpoint_bytes),
        if claims.is_empty() { "none".to_string() } else { claims.join(", ") },
    ));
    out
}

fn cmd_status(args: &[String]) -> ExitCode {
    let opts = parse_options(args, Selection::Optional);
    if opts.format == Format::Csv || !opts.ids.is_empty() {
        usage();
    }
    let Some(store) = open_store(&opts) else {
        eprintln!("no store: pass --store <dir> or set NTC_STORE");
        std::process::exit(2);
    };
    loop {
        let fleet = ntc::journal::fleet_status(&store);
        let now_ms = ntc::journal::now_ms();
        match opts.format {
            Format::Json => print!("{}", render_status_json(&store, &fleet, now_ms)),
            _ => print!("{}", render_status_text(&store, &fleet, now_ms)),
        }
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        match opts.watch {
            Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs)),
            None => break,
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(&parse_options(&args[1..], Selection::Optional)),
        Some("run") => cmd_run(&parse_options(&args[1..], Selection::Required)),
        Some("check") => cmd_check(&parse_options(&args[1..], Selection::Required)),
        Some("diff") => cmd_diff(&args[1..]),
        Some("report") => cmd_report(&parse_options(&args[1..], Selection::Required)),
        Some("optimize") => cmd_optimize(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("bench-serve") => cmd_bench_serve(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        _ => usage(),
    }
}
