//! Structured-artifact invariants: JSON round-trips, registry hygiene,
//! and the equivalence between `repro check` verdicts and the direct
//! model assertions the legacy test suite used to spell out by hand.

use std::sync::OnceLock;

use ntc::artifact::{Artifact, Band, PaperRef};
use ntc::repro::{experiment_ids, ExperimentId, find_id, registry, RunCtx};
use proptest::prelude::*;

/// One shared quick-scale context so the fig8/fig9 rows are simulated
/// once per test binary.
fn ctx() -> &'static RunCtx {
    static CTX: OnceLock<RunCtx> = OnceLock::new();
    CTX.get_or_init(RunCtx::quick)
}

/// All registry artifacts, run once per test binary.
fn artifacts() -> &'static [Artifact] {
    static ALL: OnceLock<Vec<Artifact>> = OnceLock::new();
    ALL.get_or_init(|| registry().iter().map(|e| e.run(ctx())).collect())
}

/// Every registered experiment's artifact survives a JSON round-trip
/// bit-exactly (the writer emits shortest round-trip float strings).
#[test]
fn every_artifact_round_trips_through_json() {
    for a in artifacts() {
        let json = a.to_json();
        let back = Artifact::from_json(&json)
            .unwrap_or_else(|e| panic!("{}: invalid JSON emitted: {e:?}", a.id));
        assert_eq!(&back, a, "{} artifact changed across serialize/parse", a.id);
        // The re-serialization is byte-identical, so `repro run --out`
        // files are stable fixtures.
        assert_eq!(back.to_json(), json, "{} JSON not canonical", a.id);
    }
}

/// Artifact ids match their experiment ids, and verdicts are consistent:
/// `passed()` is exactly "no failures", and every check agrees with its
/// own `PaperRef::holds`.
#[test]
fn artifact_ids_and_verdicts_are_consistent() {
    for (e, a) in registry().iter().zip(artifacts()) {
        assert_eq!(e.id().to_string(), a.id, "artifact id diverged from experiment id");
        assert_eq!(a.passed(), a.failures().is_empty());
        for c in a.checks() {
            assert_eq!(c.passes(), c.paper.holds(c.measured), "{}/{}", a.id, c.label);
        }
    }
}

/// The registry enumerates at least the 13 figure/table reproductions
/// plus the ablations, with unique ids.
#[test]
fn registry_is_complete_and_unique() {
    let ids = experiment_ids();
    assert!(ids.len() >= 17, "registry shrank to {} experiments", ids.len());
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "duplicate experiment id");
}

/// `repro check` verdicts agree with the direct model assertions the
/// legacy `paper_numbers` tests used: the Table 2 / Figure 9 artifact
/// cells equal what the FIT solver computes when called directly, so a
/// passing anchor is exactly a passing legacy assertion.
#[test]
fn check_verdicts_match_direct_solver_assertions() {
    use ntc::fit::{FitSolver, Scheme, VoltageGrid};
    use ntc_sram::failure::AccessLaw;

    let a = find_id(ExperimentId::Table2).run(ctx());
    let solver =
        FitSolver::new(AccessLaw::cell_based_40nm(), 1e-15).with_grid(VoltageGrid::PaperGrid);
    let table = a.table("min_voltage").expect("table2 min_voltage table");
    for (label, f) in [("290 kHz", 290e3), ("1.96 MHz", 1.96e6)] {
        let row = solver.table_row(f, ctx().f_max());
        for (col, direct) in ["no_mitigation", "ecc", "ocean"].iter().zip(&row) {
            assert_eq!(
                table.num("frequency", label, col),
                Some(direct.operating),
                "table2 {label}/{col} diverged from the solver"
            );
        }
    }
    // Same for the bound arithmetic: the artifact's measured values ARE
    // the solver outputs, so band verdicts and direct assertions agree.
    for (scheme, label) in [
        (Scheme::Secded, "SECDED max tolerable bit error rate"),
        (Scheme::Ocean, "OCEAN max tolerable bit error rate"),
    ] {
        let plain = FitSolver::new(AccessLaw::cell_based_40nm(), 1e-15);
        let check = a
            .checks()
            .into_iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("missing `{label}` anchor"));
        assert_eq!(check.measured, plain.max_p_bit(scheme));
        assert_eq!(check.passes(), check.paper.holds(plain.max_p_bit(scheme)));
    }

    let fig9 = find_id(ExperimentId::Fig9).run(ctx());
    let commercial =
        FitSolver::new(AccessLaw::commercial_40nm(), 1e-15).with_grid(VoltageGrid::PaperGrid);
    for (scheme, label) in [
        (Scheme::NoMitigation, "No mitigation operating voltage"),
        (Scheme::Secded, "ECC (SECDED) operating voltage"),
        (Scheme::Ocean, "OCEAN operating voltage"),
    ] {
        let check = fig9
            .checks()
            .into_iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("missing `{label}` anchor"));
        assert_eq!(
            check.measured,
            commercial.min_voltage(scheme),
            "fig9 {label} diverged from the solver"
        );
    }
}

proptest! {
    /// `Band::Rel` verdicts equal the legacy `(m/p - 1).abs() <= tol`
    /// relative-tolerance assertions for positive paper values.
    #[test]
    fn rel_band_matches_legacy_relative_assert(
        paper in 0.01f64..100.0,
        tol in 0.0f64..0.5,
        measured in -10.0f64..200.0,
    ) {
        let anchor = PaperRef::rel(paper, tol);
        prop_assert_eq!(anchor.holds(measured), (measured / paper - 1.0).abs() <= tol);
    }

    /// `Band::Abs` verdicts equal the legacy `(m - p).abs() <= tol`
    /// assertions.
    #[test]
    fn abs_band_matches_legacy_absolute_assert(
        paper in -10.0f64..10.0,
        tol in 0.0f64..1.0,
        measured in -20.0f64..20.0,
    ) {
        let anchor = PaperRef::abs(paper, tol);
        prop_assert_eq!(anchor.holds(measured), (measured - paper).abs() <= tol);
    }

    /// `Band::Range` verdicts equal the legacy `(lo..hi).contains(&m)`
    /// style assertions (closed interval).
    #[test]
    fn range_band_matches_legacy_interval_assert(
        lo in -10.0f64..10.0,
        width in 0.0f64..10.0,
        measured in -30.0f64..30.0,
    ) {
        let anchor = PaperRef::range(lo + width / 2.0, lo, lo + width);
        prop_assert_eq!(anchor.holds(measured), measured >= lo && measured <= lo + width);
    }

    /// Exact anchors admit exactly one value.
    #[test]
    fn exact_band_admits_only_the_paper_value(paper in -10.0f64..10.0, delta in 1e-12f64..1.0) {
        let anchor = PaperRef::exact(paper);
        prop_assert!(anchor.holds(paper));
        prop_assert!(!anchor.holds(paper + delta));
        prop_assert!(!anchor.holds(paper - delta));
    }

    /// One-sided bands are each other's mirror.
    #[test]
    fn one_sided_bands_mirror(bound in -10.0f64..10.0, measured in -20.0f64..20.0) {
        prop_assume!(measured != bound);
        let lo = Band::AtLeast(bound);
        let hi = Band::AtMost(bound);
        prop_assert_eq!(lo.admits(bound, measured), !hi.admits(bound, measured));
    }
}

// ---------------------------------------------------------------------
// The JSON reader is total: any input parses or errors, never panics or
// overflows, and every value the writers emit reads back unchanged.
// ---------------------------------------------------------------------

use ntc::artifact::json::{parse, JsonValue};
use proptest::test_runner::TestRng;

/// The committed quick baselines, the largest documents the reader sees.
fn baseline_texts() -> &'static [String] {
    static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
    TEXTS.get_or_init(|| {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines/quick");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("baselines/quick is readable")
            .map(|e| e.expect("dir entry").path())
            .collect();
        paths.sort();
        paths
            .iter()
            .map(|p| std::fs::read_to_string(p).expect("baseline reads"))
            .collect()
    })
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below_u128(items.len() as u128) as usize]
}

/// A random string over quotes, escapes, control characters, ASCII and
/// multi-byte code points: everything the writer must escape or keep.
fn random_string(rng: &mut TestRng) -> String {
    let len = rng.below_u128(12) as usize;
    (0..len)
        .map(|_| {
            pick(
                rng,
                &[
                    'a', 'Z', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'µ', '√',
                    '😀',
                ],
            )
        })
        .collect()
}

/// A random tree of the shapes the artifact and API writers produce.
fn random_value(rng: &mut TestRng, depth: u32) -> JsonValue {
    let leaf_only = depth == 0;
    match rng.below_u128(if leaf_only { 5 } else { 7 }) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.next_u64() & 1 == 1),
        // Any bit pattern; non-finite ones take their marker strings.
        2 => JsonValue::num(f64::from_bits(rng.next_u64())),
        3 => JsonValue::num(pick(
            rng,
            &[0.0, -0.0, 0.33, 1e-15, 2.9e5, 9_007_199_254_740_993.0],
        )),
        4 => JsonValue::Str(random_string(rng)),
        5 => JsonValue::Arr(
            (0..rng.below_u128(5))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => JsonValue::Obj(
            (0..rng.below_u128(5))
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes (read as lossy UTF-8) parse or error.
    #[test]
    fn json_parse_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    /// Strings over JSON's own punctuation reach deep into the grammar.
    #[test]
    fn json_parse_is_total_on_json_shaped_text(text in "[\\[\\]{}\",:\\\\ntrufalse0-9.eE+ \\n-]{0,300}") {
        let _ = parse(&text);
    }

    /// Every tree reads back equal through both writers.
    #[test]
    fn json_writers_round_trip_through_parse(seed: u64) {
        let mut rng = TestRng::seeded(seed);
        let v = random_value(&mut rng, 5);
        let mut compact = String::new();
        v.write_compact(&mut compact);
        prop_assert_eq!(parse(&compact), Ok(v.clone()), "{}", compact);
        prop_assert_eq!(parse(&v.to_string()), Ok(v));
    }
}

proptest! {
    /// A committed baseline, cut at any byte and mutated at a few,
    /// parses or errors; unmutated, it parses.
    #[test]
    fn json_parse_is_total_on_mutated_baselines(seed: u64) {
        let mut rng = TestRng::seeded(seed);
        let texts = baseline_texts();
        let text = &texts[rng.below_u128(texts.len() as u128) as usize];
        prop_assert!(parse(text).is_ok());
        let mut bytes = text.as_bytes().to_vec();
        for _ in 0..1 + rng.below_u128(4) {
            let at = rng.below_u128(bytes.len() as u128 + 1) as usize;
            let b = pick(&mut rng, b"[]{}\",:\\0e-. \x01\xff");
            match rng.below_u128(3) {
                0 if at < bytes.len() => bytes[at] = b,
                1 => bytes.insert(at, b),
                _ => bytes.truncate(at),
            }
        }
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }
}
