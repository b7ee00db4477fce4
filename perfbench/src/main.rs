//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --repro <repro binary> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --repro <repro binary> --smoke
//! ```
//!
//! Normally started through `perfbench/run.sh`, which builds both binaries
//! first. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report the
//! end-to-end metrics of one workload; traced runs (`--trace 1`) replay the
//! inputs through each layer and report the per-layer metrics. The exit
//! code is nonzero when any output check fails. See `perfbench/README.md`.
//!
//! `perfbench --setup-probe <seed>` is the child process `repro_paper`
//! times as its set-up: it builds the registry and one context, then exits.

mod gen;
mod net;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use trace::Metric;
use workloads::Outcome;

/// The workloads, in the order the smoke mode drives them.
const WORKLOADS: [&str; 3] = ["repro_paper", "serve_hot", "serve_cold"];

struct Args {
    repro: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    commit: String,
    source_digest: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        repro: PathBuf::new(),
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        commit: "none".into(),
        source_digest: "none".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--repro" => a.repro = PathBuf::from(&value),
            "--workload" => a.workload.clone_from(&value),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--commit" => a.commit.clone_from(&value),
            "--source-digest" => a.source_digest.clone_from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !a.repro.is_file() {
        return Err(format!("--repro {}: no such binary", a.repro.display()));
    }
    if !a.smoke && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

/// A scratch directory inside the working directory, removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn new() -> Result<RunDir, String> {
        let dir = Path::new(".bench_run").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly if another run is live.
        let _ = std::fs::remove_dir(".bench_run");
    }
}

/// The result line: every value with all its digits.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (k, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let value = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".into()
        };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::new();
    ntc::artifact::json::JsonValue::Str(s.to_string()).write_compact(&mut out);
    out
}

/// The host facts recorded with every result.
fn host_meta(a: &Args) -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let cpu = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split_once(':'))
                .map(|(_, m)| m.trim())
        })
        .unwrap_or("unknown");
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "\"host\": {}, \"cpu\": {}, \"nproc\": {nproc}, \"commit\": {}, \"source_digest\": {}, \
         \"ntc_threads\": {}, \"serve_workers\": {}",
        json_str(read("/proc/sys/kernel/hostname").trim()),
        json_str(cpu),
        json_str(&a.commit),
        json_str(&a.source_digest),
        ntc_stats::exec::threads(),
        net::SERVE_WORKERS,
    )
}

/// What one run prints.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The metrics of the result line, in print order.
    metrics: Vec<Metric>,
    /// Explanations printed under the metrics.
    notes: Vec<String>,
    /// Facts recorded on the `# meta` line.
    facts: Vec<(String, String)>,
    /// Failed checks.
    problems: Vec<String>,
}

/// The end-to-end report of one outcome, with the metrics `BENCHMARK.json`
/// gates. p99 is printed by name but not gated: on a shared host it sits
/// where scheduling hiccups begin and jumps between runs.
fn end_to_end(o: Outcome) -> Report {
    let p90 = stats::tail(&o.latencies_ms, 0.90);
    let p99 = stats::tail(&o.latencies_ms, 0.99);
    let metrics: Vec<Metric> = vec![
        ("setup_s".into(), "s", stats::median(&o.setup_s)),
        (
            "latency_p50_ms".into(),
            "ms",
            stats::median(&o.latencies_ms),
        ),
        ("latency_p90_ms".into(), "ms", p90.value),
        ("throughput_per_s".into(), "1/s", o.throughput_per_s),
        ("peak_rss_mb".into(), "MiB", o.peak_rss_mb),
    ];
    #[allow(clippy::cast_precision_loss)]
    let error_rate = o.failed as f64 / o.attempted.max(1) as f64;
    let notes = vec![
        format!("setup_s is the median of {} set-ups", o.setup_s.len()),
        format!(
            "{} latency samples; latency_p90_ms is p{} (a tail needs at least 10 samples beyond it)",
            o.latencies_ms.len(),
            p90.q * 100.0
        ),
        format!("latency_p99_ms {} ms (p{}; printed, not gated)", p99.value, p99.q * 100.0),
        format!("error_rate {error_rate} ratio ({} of {} operations failed)", o.failed, o.attempted),
    ];
    Report {
        correct: o.failed == 0
            && o.problems.is_empty()
            && metrics.iter().all(|m| m.2.is_finite() && m.2 > 0.0),
        attempted: o.attempted,
        failed: o.failed,
        metrics,
        notes,
        facts: o.notes,
        problems: o.problems,
    }
}

/// Runs one workload, prints its report, and returns whether it was correct.
fn run_one(a: &Args, workload: &str, seconds: f64, traced: bool) -> Result<bool, String> {
    let run_dir = RunDir::new()?;
    let r = if traced {
        let t = trace::run(&a.repro, a.seed, seconds, &run_dir.0)?;
        Report {
            correct: t.problems.is_empty() && t.failed == 0,
            attempted: t.attempted,
            failed: t.failed,
            metrics: t.metrics,
            notes: vec![format!(
                "traced run: every workload's inputs replayed through each layer; closure tolerance {} %",
                trace::CLOSURE_TOLERANCE * 100.0
            )],
            facts: Vec::new(),
            problems: t.problems,
        }
    } else {
        end_to_end(match workload {
            "repro_paper" => workloads::repro_paper(a.seed, seconds),
            "serve_hot" => {
                workloads::serve_hot(&a.repro, a.seed, seconds, workloads::HOT_SETUPS, false)?.0
            }
            _ => {
                let setups = workloads::COLD_SETUPS;
                workloads::serve_cold(&a.repro, a.seed, seconds, setups, &run_dir.0, false)?.0
            }
        })
    };

    println!(
        "perfbench {workload} seed={} seconds={seconds} trace={}",
        a.seed,
        u8::from(traced)
    );
    for (name, unit, value) in &r.metrics {
        let moves = if traced {
            format!("  -> {}", trace::prediction(name))
        } else {
            String::new()
        };
        println!("  {name:<30} {value:>16.6} {unit:<5}{moves}");
    }
    for n in &r.notes {
        println!("  # {n}");
    }
    for p in &r.problems {
        println!("  ! {p}");
    }
    let facts: String = r
        .facts
        .iter()
        .map(|(k, v)| format!(", {}: {}", json_str(k), json_str(v)))
        .collect();
    println!(
        "# meta {{\"workload\": {}, \"seed\": {}, \"seconds\": {seconds}, \"trace\": {traced}, {}{facts}}}",
        json_str(workload),
        a.seed,
        host_meta(a)
    );
    println!(
        "{}",
        result_line(r.correct, r.attempted.max(1), r.failed, &r.metrics)
    );
    Ok(r.correct)
}

/// Drives all three workloads for a second each, then one short traced run.
fn smoke(a: &Args) -> Result<bool, String> {
    let mut ok = true;
    for w in WORKLOADS {
        ok &= run_one(a, w, 1.0, false)?;
    }
    ok &= run_one(a, "repro_paper", 2.0, true)?;
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, seed] = argv.as_slice() {
        if flag == "--setup-probe" {
            workloads::setup_probe(seed.parse().unwrap_or(0));
            return ExitCode::SUCCESS;
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.smoke {
        smoke(&args)
    } else {
        run_one(&args, &args.workload, args.seconds, args.trace)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: output checks failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[
                ("setup_s".into(), "s", 0.125),
                ("x".into(), "ms", 1.0 / 3.0),
            ],
        );
        let v = ntc::artifact::json::parse(&line).expect("valid JSON");
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(v.get(key).is_some(), "{key} missing");
        }
        let x = v
            .get("metrics")
            .and_then(|m| m.get("x"))
            .and_then(|m| m.get("value"));
        assert_eq!(
            x.and_then(ntc::artifact::json::JsonValue::as_num),
            Some(1.0 / 3.0)
        );
    }
}
