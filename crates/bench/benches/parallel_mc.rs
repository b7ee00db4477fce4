//! Serial vs. parallel wall-clock comparison for the hot paths named in
//! the acceptance criteria — fig4's die synthesis, table2's voltage grid
//! search, and the Monte-Carlo engine itself — plus a determinism audit:
//! the parallel and batched results must be byte-identical to the serial
//! scalar ones.
//!
//! The Monte-Carlo section compares three tiers of the same estimator:
//!
//! * the scalar closure path (`mc_counter` drawing one uniform per trial
//!   through a `Source` held in a register),
//! * the batched SoA kernel (`mc_rate`: block-filled uniform mantissas
//!   compared against an integer threshold — the same streams, so the
//!   counter is asserted bit-identical), and
//! * the counter-based lane kernel (`mc_lane_rate`: no generator state at
//!   all, one splitmix64 finalizer per lane).
//!
//! `mc_throughput.samples_per_sec` headlines the lane kernel — the SoA
//! engine new work builds on (the tilted tail sampler, `mc_lane_rate`) —
//! with the scalar and stream-preserving numbers recorded alongside; the
//! stream kernel must stay bit-identical to the scalar closure path and
//! the lane kernel is asserted to be a pure function of its seed.
//!
//! The harness writes a machine-readable summary to
//! `BENCH_parallel_mc.json` at the repository root so the speedups and
//! the identity checks are recorded per run. The committed
//! file also carries `floor_samples_per_sec`, a conservative throughput
//! floor for the headline kernel; running with `NTC_BENCH_SMOKE=1`
//! re-measures at reduced trials, asserts the measurement has not
//! regressed more than 30 % below that committed floor, and leaves the
//! JSON untouched (CI's regression gate).

use ntc::fit::{paper_platform_cache_stats, paper_platform_f_max, FitSolver, VoltageGrid};
use ntc_sram::failure::{AccessLaw, RetentionLaw};
use ntc_sram::{DieMap, DieMapConfig};
use ntc_stats::diag::{Convergence, TiltedConvergence};
use ntc_stats::exec::{mc_counter, mc_lane_rate, mc_rate, mc_rate_shards, threads};
use ntc_stats::math::phi;
use ntc_stats::mc::tilted::gauss_tail_shards;
use std::hint::black_box;
use std::time::Instant;

/// Median wall-clock seconds of `reps` runs of `f`.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// The committed batched-kernel throughput floor, parsed from the
/// repository's `BENCH_parallel_mc.json` without a JSON dependency.
fn committed_floor(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let at = text.find("\"floor_samples_per_sec\":")?;
    let rest = &text[at + "\"floor_samples_per_sec\":".len()..];
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

fn main() {
    let bench_json = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel_mc.json");
    let smoke = std::env::var("NTC_BENCH_SMOKE").is_ok_and(|v| v.trim() == "1");

    // Monte-Carlo engine throughput: a rare-event trial batch big enough
    // to keep every shard busy, reported as samples per second. The
    // batched kernel consumes exactly the scalar path's streams, so its
    // counter is asserted bit-identical before any timing is trusted.
    let mc_trials: u64 = if smoke { 250_000 } else { 2_000_000 };
    let reps = if smoke { 3 } else { 7 };
    let mc_p = 1e-3;

    let scalar_counter = mc_counter(mc_trials, 11, |s| s.bernoulli(mc_p));
    let batched_counter = mc_rate(mc_trials, 11, mc_p);
    assert_eq!(
        batched_counter, scalar_counter,
        "batched kernel diverged from the scalar closure path"
    );

    // The lane kernel runs a larger batch so its sub-millisecond per-rep
    // time is not dominated by timer granularity.
    let lane_trials: u64 = 4 * mc_trials;
    let t_mc_scalar = time_median(reps, || mc_counter(mc_trials, 11, |s| s.bernoulli(mc_p)));
    let t_mc = time_median(reps, || mc_rate(mc_trials, 11, mc_p));
    let t_mc_lane = time_median(reps, || mc_lane_rate(lane_trials, 11, mc_p));
    assert_eq!(
        mc_lane_rate(lane_trials, 11, mc_p),
        mc_lane_rate(lane_trials, 11, mc_p),
        "lane kernel must be a pure function of (trials, seed, p)"
    );
    let scalar_samples_per_sec = mc_trials as f64 / t_mc_scalar;
    let stream_samples_per_sec = mc_trials as f64 / t_mc;
    let lane_samples_per_sec = lane_trials as f64 / t_mc_lane;

    // Importance-sampled deep tail: the 8-sigma Gaussian exceedance the
    // `ablation_tail_mc` experiment anchors (true value ~6.2e-16). The
    // sampler's throughput is what the batched kernel's speedup was spent
    // on; accuracy and effective sample size are asserted, not assumed.
    let tilt_trials: u64 = if smoke { 40_000 } else { 400_000 };
    let tilt_t = 8.0;
    let t_tilted = time_median(reps, || gauss_tail_shards(tilt_trials, 11, tilt_t));
    let tilted = TiltedConvergence::from_shards(&gauss_tail_shards(tilt_trials, 11, tilt_t));
    let tilted_ratio = tilted.estimate / phi(-tilt_t);
    assert!(
        (tilted_ratio - 1.0).abs() < 0.15,
        "tilted estimate off the closed form: ratio {tilted_ratio}"
    );
    assert!(
        tilted.effective_samples >= 1000.0,
        "tilted weights degenerated: ESS {}",
        tilted.effective_samples
    );
    let tilted_samples_per_sec = tilt_trials as f64 / t_tilted;

    if smoke {
        // Regression gate only: compare against the committed floor and
        // leave the recorded JSON alone.
        let floor = committed_floor(bench_json)
            .expect("BENCH_parallel_mc.json must carry floor_samples_per_sec");
        println!(
            "smoke: lane {lane_samples_per_sec:.0} samples/s (floor {floor:.0}), \
             stream {stream_samples_per_sec:.0}, scalar {scalar_samples_per_sec:.0}, \
             tilted {tilted_samples_per_sec:.0} (ratio {tilted_ratio:.3}, ESS {:.0})",
            tilted.effective_samples
        );
        assert!(
            lane_samples_per_sec >= 0.7 * floor,
            "lane MC throughput {lane_samples_per_sec:.0}/s regressed more than 30 % \
             below the committed floor {floor:.0}/s"
        );
        return;
    }

    // Scale the die population up from the paper's nine so the parallel
    // section has enough work per shard to amortize thread spawn.
    let cfg = DieMapConfig::new(256, 512, RetentionLaw::cell_based_40nm());
    let dies_n = 36;
    let seed = 4;

    let t_serial_fig4 = time_median(reps, || {
        DieMap::synthesize_population_serial(&cfg, dies_n, seed)
    });
    let t_parallel_fig4 = time_median(reps, || DieMap::synthesize_population(&cfg, dies_n, seed));
    let fig4_identical = DieMap::synthesize_population(&cfg, dies_n, seed)
        == DieMap::synthesize_population_serial(&cfg, dies_n, seed);

    let solver =
        FitSolver::new(AccessLaw::cell_based_40nm(), 1e-15).with_grid(VoltageGrid::PaperGrid);
    let freqs: Vec<f64> = (0..24).map(|i| 290e3 * 1.2f64.powi(i)).collect();
    let t_serial_table2 = time_median(reps, || {
        freqs
            .iter()
            .map(|&f| solver.table_row_serial(f, paper_platform_f_max))
            .collect::<Vec<_>>()
    });
    let t_parallel_table2 = time_median(reps, || solver.table(&freqs, paper_platform_f_max));
    let table2_identical = solver.table(&freqs, paper_platform_f_max)
        == freqs
            .iter()
            .map(|&f| solver.table_row_serial(f, paper_platform_f_max))
            .collect::<Vec<_>>();
    let cache = paper_platform_cache_stats();

    // Diagnostics overhead, measured with the observability layer on plus
    // the per-shard convergence diagnostics the repro CLI publishes —
    // `enable()` is global and irreversible, so every plain measurement
    // above had to come first.
    ntc_obs::enable();
    let t_mc_diag = time_median(reps, || {
        let shards = mc_rate_shards(mc_trials, 11, mc_p);
        Convergence::from_counters(&shards).publish("diag.bench.mc");
        shards
    });
    let diag_samples_per_sec = mc_trials as f64 / t_mc_diag;

    let threads = threads();
    let ntc_threads_env = match std::env::var("NTC_THREADS") {
        Ok(v) => format!("\"{}\"", v.trim()),
        Err(_) => "null".to_string(),
    };
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Conservative committed floor: half the measured headline throughput,
    // so the smoke gate (>= 70 % of floor) only trips on real multi-x
    // regressions, not scheduler noise.
    let floor_samples_per_sec = (lane_samples_per_sec * 0.5).round();

    let json = format!(
        concat!(
            "{{\n",
            "  \"threads\": {},\n",
            "  \"ntc_threads_env\": {},\n",
            "  \"available_parallelism\": {},\n",
            "  \"fig4_nine_die_synthesis\": {{\n",
            "    \"dies\": {}, \"rows\": 256, \"cols\": 512,\n",
            "    \"serial_ms\": {:.3}, \"parallel_ms\": {:.3},\n",
            "    \"speedup\": {:.2}, \"identical\": {}\n",
            "  }},\n",
            "  \"table2_grid_search\": {{\n",
            "    \"frequencies\": {}, \"schemes\": 3,\n",
            "    \"serial_ms\": {:.3}, \"parallel_ms\": {:.3},\n",
            "    \"speedup\": {:.2}, \"identical\": {},\n",
            "    \"f_max_cache_hits\": {}, \"f_max_cache_misses\": {},\n",
            "    \"energy_cache_hit_rate\": {:.6}\n",
            "  }},\n",
            "  \"mc_throughput\": {{\n",
            "    \"kernel\": \"counter_lane_soa\",\n",
            "    \"trials\": {}, \"parallel_ms\": {:.3}, \"samples_per_sec\": {:.0},\n",
            "    \"speedup_vs_scalar\": {:.2},\n",
            "    \"scalar_trials\": {}, \"scalar_ms\": {:.3}, \"scalar_samples_per_sec\": {:.0},\n",
            "    \"stream_ms\": {:.3}, \"stream_samples_per_sec\": {:.0},\n",
            "    \"stream_speedup_vs_scalar\": {:.2}, \"stream_identical\": {},\n",
            "    \"floor_samples_per_sec\": {:.0}\n",
            "  }},\n",
            "  \"tilted_tail\": {{\n",
            "    \"trials\": {}, \"sigma\": {:.1}, \"parallel_ms\": {:.3},\n",
            "    \"samples_per_sec\": {:.0}, \"closed_form_ratio\": {:.4},\n",
            "    \"effective_samples\": {:.0}\n",
            "  }},\n",
            "  \"diagnostics_overhead\": {{\n",
            "    \"trials\": {}, \"parallel_ms\": {:.3}, \"samples_per_sec\": {:.0},\n",
            "    \"overhead_pct\": {:.2}\n",
            "  }}\n",
            "}}\n"
        ),
        threads,
        ntc_threads_env,
        available,
        dies_n,
        t_serial_fig4 * 1e3,
        t_parallel_fig4 * 1e3,
        t_serial_fig4 / t_parallel_fig4,
        fig4_identical,
        freqs.len(),
        t_serial_table2 * 1e3,
        t_parallel_table2 * 1e3,
        t_serial_table2 / t_parallel_table2,
        table2_identical,
        cache.hits,
        cache.misses,
        cache.hit_rate(),
        lane_trials,
        t_mc_lane * 1e3,
        lane_samples_per_sec,
        lane_samples_per_sec / scalar_samples_per_sec,
        mc_trials,
        t_mc_scalar * 1e3,
        scalar_samples_per_sec,
        t_mc * 1e3,
        stream_samples_per_sec,
        t_mc_scalar / t_mc,
        batched_counter == scalar_counter,
        floor_samples_per_sec,
        tilt_trials,
        tilt_t,
        t_tilted * 1e3,
        tilted_samples_per_sec,
        tilted_ratio,
        tilted.effective_samples,
        mc_trials,
        t_mc_diag * 1e3,
        diag_samples_per_sec,
        (t_mc_diag / t_mc - 1.0) * 100.0,
    );
    print!("{json}");
    if let Err(e) = std::fs::write(bench_json, &json) {
        eprintln!("could not write {bench_json}: {e}");
    }

    assert!(fig4_identical, "parallel fig4 population diverged from serial");
    assert!(table2_identical, "parallel table2 diverged from serial");
}
