//! Design-space autotuner: the general form of Table 2's grid search.
//!
//! The paper fixes the memory organization and sweeps one axis at a
//! time; this module searches banks × words × cell family × mitigation
//! scheme × VDD jointly, under the same analytic models, minimizing a
//! user-weighted energy/delay/area objective subject to the paper's two
//! hard constraints: the FIT budget (per-bit error probability must fit
//! the scheme's correction capacity) and the platform clock (supply
//! must reach the required frequency on the 40 nm logic timing model —
//! exactly the performance constraint of Table 2).
//!
//! The search itself is [`ntc_stats::opt`]: coordinate descent with
//! seeded restarts over the discrete axes, golden-section refinement on
//! VDD when the request asks for the `exact` grid (on the `paper` grid
//! VDD becomes one more discrete axis over the 110 mV points). The
//! whole evaluation chain is deterministic — analytic models, seeded
//! restarts, ordered restart merge — so [`optimize`] is a pure function
//! of the canonicalized request: the CLI, the server and the registry
//! experiment all produce byte-identical responses for the same
//! request, at any `NTC_THREADS`.
//!
//! Infeasible points (bank count not dividing the word count, error
//! rate above the scheme's budget, clock unreachable, capacity below
//! `min_words`) evaluate to `+∞` rather than erroring, so the optimizer
//! walks around them; a request whose whole space is infeasible comes
//! back with `feasible: false`.
//!
//! On the `paper` grid every engine coordinate snaps to one of a few
//! grid points, so the engine asks for the same design point dozens of
//! times; a per-request memo prices each (choice, grid point) once.

use std::sync::atomic::{AtomicU64, Ordering};

use ntc_memcalc::instance::{MemoryMacro, MemoryOrganization};
use ntc_stats::opt::{self, OptConfig, SearchSpace};
use ntc_tech::card;

use crate::api::{BestDesign, OptimizeConvergence, OptimizeRequest, OptimizeResponse};
use crate::fit::{paper_platform_model, FitSolver, VoltageGrid};

/// The paper's voltage grid pitch, volts.
const GRID_STEP: f64 = 0.11;

/// Golden-section interval tolerance on the `exact` VDD axis.
const VDD_TOL: f64 = 1e-4;

/// Coordinate-sweep safety cap per restart.
const MAX_SWEEPS: u32 = 64;

/// Largest objective memo one request may allocate (2 MiB of `u64`
/// slots). Every request the decoder accepts fits: at most 3 cells ×
/// 3 schemes × 25 bank counts (powers of two ≤ 2^24) × 64 word counts ×
/// 18 grid points (`hi ≤ 2.0 V`) = 259,200 slots. A hand-built request
/// beyond it runs unmemoized rather than allocating without bound.
const MEMO_MAX_SLOTS: usize = 1 << 18;

/// Bit pattern of an unfilled memo slot: a NaN payload no arithmetic on
/// the objective's finite inputs produces. A computed value with these
/// exact bits is simply never stored, so a filled slot is unambiguous.
const EMPTY: u64 = u64::MAX;

/// The 110 mV grid points inside `[lo, hi]`, in ascending order.
#[cfg(test)]
fn grid_points(lo: f64, hi: f64) -> Vec<f64> {
    let k_lo = (lo / GRID_STEP - 1e-9).ceil().max(1.0) as i64;
    let k_hi = (hi / GRID_STEP + 1e-9).floor() as i64;
    (k_lo..=k_hi)
        .map(|k| (k as f64 * GRID_STEP * 1000.0).round() / 1000.0)
        .collect()
}

/// Everything the objective closure needs, precomputed once per run.
struct Evaluator<'a> {
    req: &'a OptimizeRequest,
    /// Grid-index window `[k_lo, k_hi]` on the `paper` grid (`None` on
    /// the `exact` grid). VDD always rides the engine's continuous
    /// axis; on the paper grid the objective snaps the coordinate to
    /// the nearest in-window 110 mV multiple, so the engine's exact
    /// line search still sees every grid plateau while the reported
    /// design lands exactly on the grid.
    grid_window: Option<(i64, i64)>,
    /// Minimum feasible supply per `[cell][scheme]`, computed with the
    /// same solve-then-quantize semantics as Table 2 (`+∞` when the
    /// required clock is unreachable). On the `paper` grid the floor is
    /// the *nearest* 110 mV multiple — Table 2's own rounding — so the
    /// optimizer rediscovers the published points rather than the
    /// next-grid-point-up conservative reading.
    vdd_floor: Vec<Vec<f64>>,
    /// Objective memo on the `paper` grid, one slot per (flattened
    /// discrete choice, grid index); [`EMPTY`] until scored. The engine
    /// runs its restarts on one thread; the slots stay atomic so one
    /// evaluator may still serve searches on several threads, where a
    /// race only repeats a pure computation and stores the same bits.
    /// Empty on the `exact` grid, whose coordinates never repeat.
    memo: Vec<AtomicU64>,
}

impl Evaluator<'_> {
    fn new(req: &OptimizeRequest) -> Evaluator<'_> {
        let platform = paper_platform_model();
        let reachable = platform.f_max(1.32) >= req.constraints.frequency_hz;
        let vdd_floor = req
            .space
            .cells
            .iter()
            .map(|&cell| {
                let solver = FitSolver::new(cell.access_law(), req.constraints.fit_target)
                    .with_grid(req.space.vdd.grid);
                req.space
                    .schemes
                    .iter()
                    .map(|&scheme| {
                        if !reachable {
                            return f64::INFINITY;
                        }
                        solver
                            .solve(scheme, req.constraints.frequency_hz, |v| platform.f_max(v))
                            .operating
                    })
                    .collect()
            })
            .collect();
        let grid_window = match req.space.vdd.grid {
            VoltageGrid::PaperGrid => {
                let k_lo = (req.space.vdd.lo / GRID_STEP - 1e-9).ceil().max(1.0) as i64;
                let k_hi = (req.space.vdd.hi / GRID_STEP + 1e-9).floor() as i64;
                Some((k_lo, k_hi))
            }
            _ => None,
        };
        let memo = match grid_window {
            Some((k_lo, k_hi)) if k_lo <= k_hi => {
                let s = &req.space;
                [s.cells.len(), s.schemes.len(), s.banks.len(), s.words.len()]
                    .into_iter()
                    .try_fold((k_hi - k_lo + 1) as usize, usize::checked_mul)
                    .filter(|&slots| slots <= MEMO_MAX_SLOTS)
                    .map_or_else(Vec::new, |slots| {
                        (0..slots).map(|_| AtomicU64::new(EMPTY)).collect()
                    })
            }
            _ => Vec::new(),
        };
        Evaluator { req, grid_window, vdd_floor, memo }
    }

    /// The search-space shape for the engine: discrete axes in the
    /// fixed order cells, schemes, banks, words, plus VDD as the
    /// continuous axis.
    fn space(&self) -> Result<SearchSpace, &'static str> {
        let s = &self.req.space;
        if matches!(self.grid_window, Some((k_lo, k_hi)) if k_lo > k_hi) {
            return Err("no paper-grid voltage in the requested window");
        }
        SearchSpace::new(
            vec![s.cells.len(), s.schemes.len(), s.banks.len(), s.words.len()],
            Some((s.vdd.lo, s.vdd.hi)),
        )
    }

    /// Decodes an engine coordinate into the candidate design's VDD:
    /// the nearest in-window grid point on the paper grid, the raw
    /// coordinate on the exact grid.
    fn vdd_of(&self, x: f64) -> f64 {
        match self.grid_window {
            None => x,
            Some(window) => {
                let k = grid_index(x, window);
                (k * GRID_STEP * 1000.0).round() / 1000.0
            }
        }
    }

    /// The memo slot of a candidate point: the design [`Self::report`]
    /// prices depends only on the choice and the grid index `vdd_of`
    /// snaps `x` to. `None` when there is no memo.
    fn memo_slot(&self, choice: &[usize], x: f64) -> Option<&AtomicU64> {
        let window @ (k_lo, k_hi) = self.grid_window?;
        let k = grid_index(x, window);
        if self.memo.is_empty() || k.is_nan() {
            return None;
        }
        let s = &self.req.space;
        let flat = ((choice[0] * s.schemes.len() + choice[1]) * s.banks.len() + choice[2])
            * s.words.len()
            + choice[3];
        let points = (k_hi - k_lo + 1) as usize;
        self.memo.get(flat * points + (k as i64 - k_lo) as usize)
    }

    /// Full report for a candidate point; `None` when infeasible.
    fn report(&self, choice: &[usize], x: f64) -> Option<BestDesign> {
        let s = &self.req.space;
        let c = &self.req.constraints;
        let cell = s.cells[choice[0]];
        let scheme = s.schemes[choice[1]];
        let banks = s.banks[choice[2]];
        let words = s.words[choice[3]];
        let vdd = self.vdd_of(x);
        if !(vdd.is_finite() && vdd > 0.0) {
            return None;
        }
        if let Some(min) = c.min_words {
            if words < min {
                return None;
            }
        }
        // `with_banks` requires the bank count to divide the words; a
        // combination that doesn't is simply not a buildable macro.
        if !words.is_multiple_of(banks) {
            return None;
        }
        // Both hard constraints collapse to a supply floor: the FIT
        // budget (cell access law vs scheme correction capacity) and the
        // platform clock, solved and grid-quantized exactly like Table 2.
        if vdd + 1e-9 < self.vdd_floor[choice[0]][choice[1]] {
            return None;
        }
        let org = MemoryOrganization::new(words, scheme.word_bits())
            .expect("axis candidates are validated nonzero");
        let mac = MemoryMacro::new(cell, org, card::n40lp()).with_banks(banks);
        // Energy per access at the constrained duty: dynamic access
        // energy plus the leakage burned per cycle at `frequency_hz` —
        // the same accounting as the banking ablation.
        let energy_pj =
            (mac.access_energy(vdd) + mac.leakage_power(vdd) / c.frequency_hz) / 1e-12;
        let cycle_ns = mac.cycle_time(vdd) / 1e-9;
        let area = mac.area_mm2();
        let w = self.req.objective;
        let objective = w.energy * energy_pj + w.delay * cycle_ns + w.area * area;
        Some(BestDesign {
            cell,
            scheme,
            banks,
            words,
            vdd,
            energy_per_access_pj: energy_pj,
            cycle_time_ns: cycle_ns,
            area_mm2: area,
            f_max_hz: mac.f_max(vdd),
            objective,
        })
    }

    /// The weighted scalar of a candidate point, `+∞` when infeasible.
    fn score(&self, choice: &[usize], x: f64) -> f64 {
        self.report(choice, x).map_or(f64::INFINITY, |r| r.objective)
    }

    /// The engine objective: [`Self::score`], priced once per design
    /// point on the `paper` grid.
    fn objective(&self, choice: &[usize], x: f64) -> f64 {
        let Some(slot) = self.memo_slot(choice, x) else {
            return self.score(choice, x);
        };
        // `Relaxed` suffices: the slot publishes only its own value.
        let bits = slot.load(Ordering::Relaxed);
        if bits != EMPTY {
            return f64::from_bits(bits);
        }
        let v = self.score(choice, x);
        if v.to_bits() != EMPTY {
            slot.store(v.to_bits(), Ordering::Relaxed);
        }
        v
    }
}

/// The grid index `vdd_of` snaps engine coordinate `x` to: the nearest
/// 110 mV multiple clamped into `[k_lo, k_hi]` (`NaN` for a `NaN` x).
fn grid_index(x: f64, (k_lo, k_hi): (i64, i64)) -> f64 {
    (x / GRID_STEP).round().clamp(k_lo as f64, k_hi as f64)
}

/// Runs the autotuner. Pure function of the canonicalized request —
/// same request, same response bytes, at any thread count.
pub fn optimize(req: &OptimizeRequest) -> OptimizeResponse {
    let mut req = req.clone();
    req.canonicalize();
    let mut span = ntc_obs::span("optimize.run");
    ntc_obs::counter_add("optimize.requests", 1);
    let ev = Evaluator::new(&req);
    let resp = search(&req, &ev, |choice, x| ev.objective(choice, x));
    span.add_items(resp.convergence.evaluations);
    if let Some(r) = &resp.best {
        ntc_obs::gauge_set("optimize.best_objective", r.objective);
    }
    resp
}

/// Runs the engine over `ev`'s space with objective `f` and renders
/// the response for the canonical request `req`.
fn search<F>(req: &OptimizeRequest, ev: &Evaluator<'_>, f: F) -> OptimizeResponse
where
    F: Fn(&[usize], f64) -> f64,
{
    let space = match ev.space() {
        Ok(space) => space,
        // Degenerate only when the requested VDD window contains no
        // paper-grid point: nothing to search, nothing feasible.
        Err(_) => {
            return OptimizeResponse {
                request_hash: req.request_hash_hex(),
                feasible: false,
                best: None,
                convergence: OptimizeConvergence {
                    restarts: 0,
                    sweeps: 0,
                    evaluations: 0,
                    best_per_restart: Vec::new(),
                },
            }
        }
    };
    let cfg = OptConfig {
        seed: req.seed,
        restarts: req.restarts,
        tol: VDD_TOL,
        max_sweeps: MAX_SWEEPS,
    };
    let (best, conv) = opt::minimize(&space, &cfg, f);
    let report = if best.value.is_finite() {
        ev.report(&best.choice, best.x)
    } else {
        None
    };
    OptimizeResponse {
        request_hash: req.request_hash_hex(),
        feasible: report.is_some(),
        best: report,
        convergence: OptimizeConvergence {
            restarts: conv.restarts,
            sweeps: conv.sweeps,
            evaluations: conv.evaluations,
            best_per_restart: conv
                .best_per_restart
                .into_iter()
                .map(|v| v.is_finite().then_some(v))
                .collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::DesignSpaceSpec;
    use crate::fit::Scheme;
    use ntc_sram::styles::CellStyle;
    use ntc_stats::rng::Source;
    use std::sync::Barrier;

    fn paper_req(frequency_hz: f64) -> OptimizeRequest {
        let mut req = OptimizeRequest::paper(frequency_hz);
        req.canonicalize();
        req
    }

    /// The unmemoized reference: the same search with every engine
    /// call priced through `report`.
    fn reference(req: &OptimizeRequest) -> OptimizeResponse {
        let mut req = req.clone();
        req.canonicalize();
        let ev = Evaluator::new(&req);
        search(&req, &ev, |choice, x| ev.score(choice, x))
    }

    /// Two memoized searches started together on two threads, sharing
    /// one evaluator and so racing on every memo slot.
    fn shared_memo_runs(req: &OptimizeRequest) -> Vec<String> {
        let mut req = req.clone();
        req.canonicalize();
        let ev = Evaluator::new(&req);
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        search(&req, &ev, |choice, x| ev.objective(choice, x)).to_json()
                    })
                })
                .collect();
            runs.into_iter().map(|h| h.join().expect("search thread")).collect()
        })
    }

    /// A seeded set covering every memo case: paper presets at several
    /// clocks, narrowed and single-point windows, no capacity floor,
    /// mixed weights, an all-infeasible space and the exact grid.
    fn memo_cases() -> Vec<OptimizeRequest> {
        let mut rng = Source::stream(17, 0);
        let mut cases: Vec<_> = [100e3, 290e3, 1.96e6].into_iter().map(paper_req).collect();
        for _ in 0..3 {
            let mut req = paper_req(rng.uniform_in(1e5, 2e6));
            req.space.vdd.lo = rng.uniform_in(0.15, 0.5);
            req.space.vdd.hi = rng.uniform_in(req.space.vdd.lo + 0.12, 1.3);
            req.seed = rng.below(1 << 20);
            req.restarts = 3;
            cases.push(req);
        }
        let mut single = paper_req(290e3);
        single.space.vdd.lo = 0.43;
        single.space.vdd.hi = 0.45;
        cases.push(single);
        let mut no_floor = paper_req(rng.uniform_in(1e5, 2e6));
        no_floor.constraints.min_words = None;
        cases.push(no_floor);
        let mut weighted = paper_req(290e3);
        weighted.objective.energy = rng.uniform_in(0.0, 1.0);
        weighted.objective.delay = rng.uniform_in(0.0, 1e-4);
        weighted.objective.area = rng.uniform_in(0.0, 10.0);
        cases.push(weighted);
        let mut infeasible = paper_req(290e3);
        infeasible.constraints.frequency_hz = 1e10;
        cases.push(infeasible);
        let mut exact = paper_req(290e3);
        exact.space.vdd.grid = VoltageGrid::Exact;
        exact.space.cells = vec![CellStyle::CellBasedAoi];
        exact.space.schemes = vec![Scheme::Secded, Scheme::Ocean];
        exact.space.banks = vec![1, 2];
        exact.restarts = 2;
        cases.push(exact);
        cases
    }

    #[test]
    fn memoized_search_matches_the_unmemoized_reference_bit_for_bit() {
        for req in memo_cases() {
            let want = reference(&req).to_json();
            assert_eq!(optimize(&req).to_json(), want, "{}", req.to_json());
            for got in shared_memo_runs(&req) {
                assert_eq!(got, want, "shared memo: {}", req.to_json());
            }
        }
    }

    #[test]
    fn paper_grid_prices_each_design_point_once() {
        let req = paper_req(290e3);
        let ev = Evaluator::new(&req);
        assert_eq!(ev.memo.len(), 3 * 3 * 6 * 5 * 9);
        let resp = search(&req, &ev, |choice, x| ev.objective(choice, x));
        let priced = ev.memo.iter().filter(|slot| slot.load(Ordering::Relaxed) != EMPTY).count();
        assert!(priced > 0);
        assert!(
            (priced as u64) * 10 < resp.convergence.evaluations,
            "{priced} priced points for {} engine calls",
            resp.convergence.evaluations
        );

        let mut exact = req.clone();
        exact.space.vdd.grid = VoltageGrid::Exact;
        assert!(Evaluator::new(&exact).memo.is_empty(), "exact coordinates never repeat");
    }

    #[test]
    fn largest_decodable_space_matches_the_reference() {
        let mut req = paper_req(290e3);
        req.space.banks = (0..=24).map(|i| 1u32 << i).collect();
        req.space.words = (1..=64).map(|i| i * 512).collect();
        req.space.vdd.lo = 0.11;
        req.space.vdd.hi = 2.0;
        req.restarts = 2;
        let req = OptimizeRequest::from_json(&req.to_json()).expect("the decoder accepts it");
        assert_eq!(Evaluator::new(&req).memo.len(), 3 * 3 * 25 * 64 * 18);
        let (got, want) = (optimize(&req), reference(&req));
        assert!(want.feasible);
        assert_eq!(got.feasible, want.feasible);
        assert_eq!(got.to_json(), want.to_json());
    }

    #[test]
    fn oversized_hand_built_spaces_run_unmemoized() {
        // 270 discrete choices × 9,090 grid points: past the decoder's
        // 2.0 V ceiling, so past the memo bound too.
        let mut req = paper_req(290e3);
        req.space.vdd.hi = 1000.0;
        assert!(Evaluator::new(&req).memo.is_empty());
    }

    #[test]
    fn paper_grid_points_cover_the_table2_voltages() {
        let pts = grid_points(0.2, 1.2);
        assert_eq!(pts.first(), Some(&0.22));
        assert_eq!(pts.last(), Some(&1.1));
        for v in [0.33, 0.44, 0.55] {
            assert!(pts.contains(&v), "{v} missing from {pts:?}");
        }
    }

    #[test]
    fn rediscovers_table2_at_290khz() {
        // Constrained to one scheme at a time, the optimizer's VDD must
        // land on the Table 2 column for the cell-based 40 nm macro.
        for (scheme, want_vdd) in [
            (Scheme::NoMitigation, 0.55),
            (Scheme::Secded, 0.44),
            (Scheme::Ocean, 0.33),
        ] {
            let mut req = paper_req(290e3);
            req.space.cells = vec![CellStyle::CellBasedAoi];
            req.space.schemes = vec![scheme];
            let resp = optimize(&req);
            let best = resp.best.expect("paper space is feasible");
            assert_eq!(best.vdd, want_vdd, "{scheme:?}");
            assert_eq!(best.scheme, scheme);
        }
    }

    #[test]
    fn rediscovers_table2_at_1_96mhz() {
        // The second Table 2 row: at 1.96 MHz the performance constraint
        // lifts OCEAN's supply from 0.33 to 0.44 V.
        for (scheme, want_vdd) in [
            (Scheme::NoMitigation, 0.55),
            (Scheme::Secded, 0.44),
            (Scheme::Ocean, 0.44),
        ] {
            let mut req = paper_req(1.96e6);
            req.space.cells = vec![CellStyle::CellBasedAoi];
            req.space.schemes = vec![scheme];
            let resp = optimize(&req);
            let best = resp.best.expect("paper space is feasible");
            assert_eq!(best.vdd, want_vdd, "{scheme:?}");
        }
    }

    #[test]
    fn full_space_winner_is_ocean_at_ntc() {
        // Across the whole paper space the energy objective picks the
        // scheme with the lowest supply: OCEAN at 0.33 V (Table 2's
        // punchline — mitigation buys quadratic dynamic-energy savings
        // that dwarf the 39-bit word overhead).
        let resp = optimize(&paper_req(290e3));
        let best = resp.best.expect("feasible");
        assert_eq!(best.scheme, Scheme::Ocean);
        assert_eq!(best.vdd, 0.33);
        assert_eq!(best.words, 2048, "capacity floor is binding under energy");
        assert!(resp.feasible);
        assert_eq!(resp.convergence.restarts, 8);
        assert!(resp.convergence.evaluations > 0);
    }

    #[test]
    fn responses_are_bit_identical_across_reruns() {
        let a = optimize(&paper_req(290e3));
        let b = optimize(&paper_req(290e3));
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn exact_grid_refines_below_the_paper_point() {
        // On the exact grid the optimizer slides VDD down to the true
        // constraint boundary, which the 110 mV grid rounds up from.
        let mut req = paper_req(290e3);
        req.space.vdd.grid = VoltageGrid::Exact;
        req.space.cells = vec![CellStyle::CellBasedAoi];
        req.space.schemes = vec![Scheme::Ocean];
        let resp = optimize(&req);
        let best = resp.best.expect("feasible");
        assert!(best.vdd <= 0.33 + 1e-3, "exact vdd {} above grid point", best.vdd);
        assert!(best.vdd >= req.space.vdd.lo);
    }

    #[test]
    fn infeasible_space_reports_cleanly() {
        // A 10 GHz requirement is unreachable at <= 1.2 V.
        let mut req = paper_req(290e3);
        req.constraints.frequency_hz = 1e10;
        let resp = optimize(&req);
        assert!(!resp.feasible);
        assert!(resp.best.is_none());
        assert!(resp.convergence.evaluations > 0);
    }

    #[test]
    fn empty_vdd_window_is_infeasible_not_a_panic() {
        let mut req = paper_req(290e3);
        req.space.vdd.lo = 0.01;
        req.space.vdd.hi = 0.02;
        let resp = optimize(&req);
        assert!(!resp.feasible);
        assert_eq!(resp.convergence.restarts, 0);
    }

    #[test]
    fn non_dividing_bank_counts_are_skipped_not_fatal() {
        // words=48 is divisible by 16 but not 32; the optimizer must
        // route around the unbuildable combination.
        let mut req = paper_req(290e3);
        req.constraints.min_words = None;
        req.space = DesignSpaceSpec {
            banks: vec![16, 32],
            words: vec![48],
            cells: vec![CellStyle::CellBasedAoi],
            schemes: vec![Scheme::Ocean],
            vdd: req.space.vdd,
        };
        req.canonicalize();
        let resp = optimize(&req);
        let best = resp.best.expect("16-bank point is buildable");
        assert_eq!(best.banks, 16);
    }

    #[test]
    fn delay_weight_pulls_voltage_up() {
        // With delay in the objective, higher supply (faster cycles)
        // must not lose to the energy-minimal NTC point outright.
        let mut req = paper_req(290e3);
        req.objective.energy = 0.0;
        req.objective.delay = 1.0;
        let resp = optimize(&req);
        let best = resp.best.expect("feasible");
        let energy_best = optimize(&paper_req(290e3)).best.unwrap();
        assert!(
            best.vdd > energy_best.vdd,
            "delay-weighted vdd {} should exceed energy-weighted {}",
            best.vdd,
            energy_best.vdd
        );
    }
}
