//! Paper-anchor regression tests, driven by the experiment registry.
//!
//! Every published number lives as a [`PaperRef`] anchor inside
//! `ntc::repro` — the same single source `repro check --all` verifies —
//! so this file asserts *verdicts*, not literals. If any test here
//! fails, the reproduction has drifted from the paper; run
//! `cargo run --release -p ntc-bench --bin repro -- check <id>` for the
//! full measured-vs-paper table. `EXPERIMENTS.md` documents the mapping
//! in prose.
//!
//! The two claims at the bottom (leakage scaling, margin decomposition)
//! quantify prose arguments from Sections II and IV that are not figure
//! or table anchors, so they stay as direct model assertions.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use ntc::artifact::diff::{diff_artifacts, Tolerance};
use ntc::artifact::Artifact;
use ntc::repro::{experiment_ids, find_id, RunCtx};

/// One shared quick-scale context so the fig8/fig9 rows are simulated
/// once per test binary.
fn ctx() -> &'static RunCtx {
    static CTX: OnceLock<RunCtx> = OnceLock::new();
    CTX.get_or_init(RunCtx::quick)
}

/// Runs an experiment once per test binary and caches its artifact.
fn artifact(id: &str) -> Artifact {
    static CACHE: OnceLock<Mutex<HashMap<String, Artifact>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap();
    map.entry(id.to_string())
        .or_insert_with(|| find_id(id.parse().expect("registered experiment")).run(ctx()))
        .clone()
}

/// Asserts every paper anchor of one experiment lands in its band.
fn assert_in_band(id: &str) {
    let a = artifact(id);
    assert!(a.passed(), "{id} missed its paper band(s): {:?}", a.failures());
}

/// The registry-wide equivalent of `repro check --all`: every anchor of
/// every registered experiment must land in its band.
#[test]
fn every_registered_experiment_passes_its_anchors() {
    let mut checked = 0;
    for id in experiment_ids() {
        let a = artifact(id);
        assert!(a.passed(), "{id} missed its paper band(s): {:?}", a.failures());
        checked += a.checks().len();
    }
    assert!(checked >= 50, "only {checked} anchors checked — registry shrank?");
}

/// The committed quick baselines are the regression oracle `repro diff
/// baselines/quick --quick` checks: every registered experiment's
/// quick-scale artifact must match its baseline file under the default
/// tolerance, and every file in the directory must be compared.
#[test]
fn quick_baselines_diff_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines/quick");
    let files = std::fs::read_dir(dir).expect("baselines/quick is readable").count();
    let mut compared = 0;
    for id in experiment_ids() {
        let path = format!("{dir}/{id}.json");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{id} has no baseline at {path}: {e}"));
        let baseline = Artifact::from_json(&text)
            .unwrap_or_else(|e| panic!("{path} is not an artifact: {e}"));
        let diff = diff_artifacts(&baseline, &artifact(id), Tolerance::default());
        let entries: Vec<String> = diff.entries.iter().map(ToString::to_string).collect();
        assert!(diff.is_clean(), "{id} drifted from its baseline:\n{}", entries.join("\n"));
        compared += 1;
    }
    assert_eq!(compared, files, "every file in {dir} is an experiment's baseline");
}

/// Eq. 5 constants (A, k, V0 commercial, V0 cell-based) and the
/// Monte-Carlo re-fit of the commercial knee.
#[test]
fn fig5_eq5_constants_reproduced() {
    let a = artifact("fig5");
    assert_in_band("fig5");
    // The verbatim constants must be present as exact anchors, not just
    // buried in a table.
    for label in ["Eq.5 commercial knee V0", "cell-based knee V0"] {
        assert!(
            a.checks().iter().any(|c| c.label == label),
            "fig5 lost its `{label}` anchor"
        );
    }
}

/// Table 1: retention voltages plus the energy / f_max columns of all
/// six designs within the calculator's tolerance.
#[test]
fn table1_reproduced() {
    assert_in_band("table1");
}

/// Table 2 (all six cells at both frequencies) and the FIT bound
/// arithmetic behind it (max tolerable bit-error rates).
#[test]
fn table2_reproduced() {
    let a = artifact("table2");
    assert_in_band("table2");
    // The published grid is 3 schemes x 2 frequencies = 6 exact cells.
    let grid_checks =
        a.checks().iter().filter(|c| c.label.contains(" at ")).count();
    assert_eq!(grid_checks, 6, "Table 2 must anchor all six cells");
}

/// Figure 9's commercial-macro operating voltages per mitigation scheme.
#[test]
fn figure9_voltages_reproduced() {
    assert_in_band("fig9");
}

/// Figure 1's qualitative content: the memory energy floor and leakage
/// dominance are anchored; removing the floor moves the optimum down.
#[test]
fn figure1_shape() {
    let a = artifact("fig1");
    assert_in_band("fig1");
    let cots = a.scalar("COTS-memory optimum voltage").expect("cots optimum");
    let cell = a.scalar("cell-based optimum voltage").expect("cell optimum");
    assert!(
        cell <= cots,
        "removing the memory floor must move the optimum to lower voltage \
         ({cell} V vs {cots} V)"
    );
}

/// Figure 10's headline: the 14 nm to 10 nm speedup band, and tighter
/// spread on the newer nodes.
#[test]
fn figure10_shape() {
    use ntc_tech::card;
    use ntc_tech::inverter::Inverter;

    assert_in_band("fig10");
    // Relational claim not expressible as a scalar anchor: the modern
    // node is tighter at matched threshold depth.
    let inv10 = Inverter::fo4(&card::n10gaa());
    let planar = Inverter::fo4(&card::n40lp());
    assert!(
        inv10.relative_sigma(0.38) < planar.relative_sigma(0.54),
        "modern node must be tighter at matched threshold depth"
    );
}

/// The (57,32) t = 4 BCH protected buffer: codeword width, exact
/// FIT-limited voltage, and its landing on the paper's voltage grid.
#[test]
fn quad_buffer_consistent_with_table2_grid() {
    assert_in_band("ablation_buffer_code");
}

/// Section II: supply scaling buys roughly an order of magnitude of
/// leakage power on the memory macro.
#[test]
fn leakage_scaling_claim() {
    use ntc_memcalc::instance::{MemoryMacro, MemoryOrganization};
    use ntc_sram::styles::CellStyle;
    use ntc_tech::card;
    let m = MemoryMacro::new(
        CellStyle::CellBasedAoi,
        MemoryOrganization::reference_1kx32(),
        card::n40lp(),
    );
    let ratio = m.leakage_power(1.1) / m.leakage_power(0.35);
    assert!(ratio > 8.0, "leakage ratio {ratio}");
}
