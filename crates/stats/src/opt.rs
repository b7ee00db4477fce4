//! Deterministic constrained minimization over a small mixed design space.
//!
//! The optimizer searches a handful of **discrete axes** (each a finite set
//! of candidate indices) plus at most one **continuous axis** (a bracketed
//! interval, in this repo always VDD) for the point minimizing a
//! caller-supplied objective. The algorithm is deliberately simple and
//! fully reproducible:
//!
//! 1. **Seeded restarts.** Restart `r` starts from a point drawn from
//!    [`Source::stream(seed, r)`](crate::rng::Source::stream) — a pure
//!    function of `(seed, r)`, so the starting points never depend on
//!    thread schedule or wall clock.
//! 2. **Coordinate descent.** Each sweep visits the discrete axes in
//!    order and exhaustively tries every candidate on that axis while the
//!    others are held fixed; a move is taken only on a **strict**
//!    improvement, so ties keep the incumbent (lowest index wins among
//!    fresh candidates). Then the continuous axis is refined by a coarse
//!    scan followed by golden-section search inside the bracketing scan
//!    cell. Sweeps repeat until a sweep yields no strict improvement.
//! 3. **Ordered merge.** Restarts run one after another on the caller's
//!    thread and are folded in restart order with a canonical tie-break
//!    (objective value, then lexicographic point), so the winner is
//!    independent of which restart found it and of `NTC_THREADS`. A
//!    restart costs tens of microseconds, less than spawning threads to
//!    spread it; callers that want cores busy run independent
//!    [`minimize`] calls side by side.
//! 4. **Each line searched once.** With the bracket and tolerance fixed
//!    per call, a line search is a pure function of the discrete choice.
//!    One [`minimize`] call keeps each finished line search (its point,
//!    value and evaluation cost) in a slot per flattened choice vector; a
//!    repeat reads the slot and counts the recorded cost again, so the
//!    [`Convergence`] record reads exactly as if the search had rerun.
//!    Spaces past `LINE_MEMO_MAX_SLOTS` choices run unmemoized.
//!
//! Objective values that are not finite (`NaN`, `±∞`) are treated as
//! infeasible: they are mapped to `+∞` and never adopted. An
//! all-infeasible space yields a [`Best`] with `value == f64::INFINITY`,
//! which callers surface as "no feasible design".
//!
//! # Example
//!
//! ```
//! use ntc_stats::opt::{minimize, OptConfig, SearchSpace};
//!
//! // One discrete axis of 5 candidates plus a continuous axis on [0, 1]:
//! // minimum at index 2, x = 0.3.
//! let space = SearchSpace::new(vec![5], Some((0.0, 1.0))).unwrap();
//! let f = |c: &[usize], x: f64| (c[0] as f64 - 2.0).powi(2) + (x - 0.3).powi(2);
//! let (best, conv) = minimize(&space, &OptConfig::default(), f);
//! assert_eq!(best.choice, vec![2]);
//! assert!((best.x - 0.3).abs() < 1e-3);
//! assert!(conv.evaluations > 0);
//! ```

use crate::rng::Source;

/// Inverse golden ratio, (√5 − 1) / 2.
const INVPHI: f64 = 0.618_033_988_749_894_8;

/// Points in the coarse scan that brackets the golden-section search.
const SCAN_POINTS: usize = 33;

/// Hard cap on golden-section iterations per refinement (the interval
/// shrinks by ×0.618 each step, so this is never the binding limit for
/// any sane tolerance; it only guards against `tol <= 0`).
const MAX_GOLDEN_ITERS: usize = 200;

/// Most line-memo slots one [`minimize`] call may allocate (2 MiB at 32
/// bytes a slot). The autotuner's largest decodable space, 3 · 3 · 25 ·
/// 64 = 14,400 choices, fits; a larger space runs unmemoized rather than
/// allocating without bound.
const LINE_MEMO_MAX_SLOTS: usize = 1 << 16;

/// The mixed discrete/continuous domain the optimizer searches.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    cards: Vec<usize>,
    continuous: Option<(f64, f64)>,
}

impl SearchSpace {
    /// Builds a space from per-axis cardinalities plus an optional
    /// continuous interval.
    ///
    /// # Errors
    ///
    /// Rejects empty axes (a cardinality of zero), a non-finite or
    /// inverted interval, and the fully empty space (no axes at all).
    pub fn new(
        cards: Vec<usize>,
        continuous: Option<(f64, f64)>,
    ) -> Result<Self, &'static str> {
        if cards.contains(&0) {
            return Err("discrete axis with zero candidates");
        }
        if let Some((lo, hi)) = continuous {
            if !lo.is_finite() || !hi.is_finite() {
                return Err("continuous bounds must be finite");
            }
            if lo > hi {
                return Err("continuous interval is inverted");
            }
        }
        if cards.is_empty() && continuous.is_none() {
            return Err("search space has no axes");
        }
        Ok(Self { cards, continuous })
    }
}

/// Optimizer knobs. All fields feed the deterministic seed/termination
/// story — none of them change *what* a given evaluation returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptConfig {
    /// Root seed for the restart starting points.
    pub seed: u64,
    /// Number of independent restarts (clamped to at least 1).
    pub restarts: u32,
    /// Golden-section interval tolerance on the continuous axis.
    pub tol: f64,
    /// Safety cap on coordinate sweeps per restart.
    pub max_sweeps: u32,
}

impl Default for OptConfig {
    fn default() -> Self {
        Self {
            seed: 2014,
            restarts: 8,
            tol: 1e-4,
            max_sweeps: 64,
        }
    }
}

/// The winning point of a [`minimize`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct Best {
    /// Chosen candidate index per discrete axis.
    pub choice: Vec<usize>,
    /// Chosen continuous coordinate (0.0 when the space has none).
    pub x: f64,
    /// Objective at the chosen point; `f64::INFINITY` when every
    /// evaluated point was infeasible.
    pub value: f64,
}

/// How the search converged — recorded into artifacts and responses so a
/// rerun can be audited without re-optimizing.
#[derive(Debug, Clone, PartialEq)]
pub struct Convergence {
    /// Restarts actually run.
    pub restarts: u32,
    /// Total coordinate sweeps across all restarts.
    pub sweeps: u64,
    /// Total objective evaluations across all restarts. A line search
    /// read back from the line memo counts its evaluations again, so the
    /// total is what a search without the memo would have spent.
    pub evaluations: u64,
    /// Best objective value reached by each restart, in restart order.
    pub best_per_restart: Vec<f64>,
}

struct RestartRun {
    best: Best,
    sweeps: u64,
    evaluations: u64,
}

/// Evaluates `f`, counts the call, and maps non-finite results to `+∞`
/// so infeasible points can never win a comparison.
fn eval<F>(f: &F, choice: &[usize], x: f64, evals: &mut u64) -> f64
where
    F: Fn(&[usize], f64) -> f64,
{
    *evals += 1;
    let v = f(choice, x);
    if v.is_finite() {
        v
    } else {
        f64::INFINITY
    }
}

/// Coarse scan + golden-section refinement of the continuous axis with
/// the discrete choice held fixed. Returns the best *evaluated* point —
/// important when the objective has an infeasible plateau, where the
/// golden probes themselves are the only finite evidence.
fn refine<F>(
    f: &F,
    choice: &[usize],
    lo: f64,
    hi: f64,
    tol: f64,
    evals: &mut u64,
) -> (f64, f64)
where
    F: Fn(&[usize], f64) -> f64,
{
    if hi <= lo {
        return (lo, eval(f, choice, lo, evals));
    }
    let step = (hi - lo) / (SCAN_POINTS - 1) as f64;
    let mut best_x = lo;
    let mut best_v = f64::INFINITY;
    for i in 0..SCAN_POINTS {
        let x = lo + step * i as f64;
        let v = eval(f, choice, x, evals);
        if v < best_v {
            best_v = v;
            best_x = x;
        }
    }
    let mut a = (best_x - step).max(lo);
    let mut b = (best_x + step).min(hi);
    let mut c = b - INVPHI * (b - a);
    let mut d = a + INVPHI * (b - a);
    let mut fc = eval(f, choice, c, evals);
    let mut fd = eval(f, choice, d, evals);
    for (x, v) in [(c, fc), (d, fd)] {
        if v < best_v {
            best_v = v;
            best_x = x;
        }
    }
    let mut iters = 0;
    while (b - a) > tol && iters < MAX_GOLDEN_ITERS {
        if fc <= fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INVPHI * (b - a);
            fc = eval(f, choice, c, evals);
            if fc < best_v {
                best_v = fc;
                best_x = c;
            }
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INVPHI * (b - a);
            fd = eval(f, choice, d, evals);
            if fd < best_v {
                best_v = fd;
                best_x = d;
            }
        }
        iters += 1;
    }
    (best_x, best_v)
}

/// A finished line search: where it landed, what it scored, and the
/// objective evaluations it spent.
#[derive(Clone, Copy)]
struct Line {
    x: f64,
    value: f64,
    evals: u64,
}

/// The line searches of one [`minimize`] call, one slot per flattened
/// choice vector. `slots` is empty when the space has no continuous axis
/// or more than [`LINE_MEMO_MAX_SLOTS`] choices; every search then runs.
struct LineMemo<'a> {
    cards: &'a [usize],
    bracket: (f64, f64),
    tol: f64,
    slots: Vec<Option<Line>>,
    /// Line searches actually run (memo misses).
    runs: u64,
}

impl<'a> LineMemo<'a> {
    fn new(space: &'a SearchSpace, tol: f64) -> Self {
        let slots = match space.continuous {
            Some(_) => space
                .cards
                .iter()
                .try_fold(1usize, |n, &c| n.checked_mul(c))
                .filter(|&n| n <= LINE_MEMO_MAX_SLOTS)
                .map_or_else(Vec::new, |n| vec![None; n]),
            None => Vec::new(),
        };
        Self {
            cards: &space.cards,
            bracket: space.continuous.unwrap_or((0.0, 0.0)),
            tol,
            slots,
            runs: 0,
        }
    }

    /// [`refine`] along the continuous axis at `choice`, run at most once
    /// per choice; a repeat adds the first run's evaluations to `evals`.
    fn search<F>(&mut self, f: &F, choice: &[usize], evals: &mut u64) -> (f64, f64)
    where
        F: Fn(&[usize], f64) -> f64,
    {
        let flat = choice.iter().zip(self.cards).fold(0, |acc, (&k, &n)| acc * n + k);
        if let Some(Some(line)) = self.slots.get(flat) {
            *evals += line.evals;
            return (line.x, line.value);
        }
        let spent = *evals;
        let (lo, hi) = self.bracket;
        let (x, value) = refine(f, choice, lo, hi, self.tol, evals);
        self.runs += 1;
        if let Some(slot) = self.slots.get_mut(flat) {
            *slot = Some(Line { x, value, evals: *evals - spent });
        }
        (x, value)
    }
}

/// The seeded starting point of restart `r`: a pure function of
/// `(space, cfg.seed, r)`.
fn start(space: &SearchSpace, cfg: &OptConfig, r: u64) -> (Vec<usize>, f64) {
    let mut rng = Source::stream(cfg.seed, r);
    let choice = space
        .cards
        .iter()
        .map(|&c| rng.below(c as u64) as usize)
        .collect();
    let x = match space.continuous {
        Some((lo, hi)) if hi > lo => rng.uniform_in(lo, hi),
        Some((lo, _)) => lo,
        None => 0.0,
    };
    (choice, x)
}

/// One seeded restart: random start, then coordinate sweeps to a local
/// minimum. Pure function of `(space, cfg.seed, r, f)`; `lines` only
/// saves repeating line searches.
fn restart<F>(
    space: &SearchSpace,
    cfg: &OptConfig,
    r: u64,
    f: &F,
    lines: &mut LineMemo<'_>,
) -> RestartRun
where
    F: Fn(&[usize], f64) -> f64,
{
    let mut span = ntc_obs::span("opt.restart");
    let (mut choice, mut x) = start(space, cfg, r);
    let mut evals = 0u64;
    let mut value = eval(f, &choice, x, &mut evals);
    let mut sweeps = 0u64;
    loop {
        let before = value;
        for a in 0..space.cards.len() {
            // Ascending scan with strict `<`: the lowest index wins among
            // value ties, pulling plateaus to a canonical representative.
            //
            // With a continuous axis present this is an *exact line
            // search*: every candidate is scored at its own refined
            // continuous coordinate, not the incumbent's. Scoring at a
            // fixed coordinate strands the search in diagonal valleys —
            // the canonical case being a mitigation scheme that only
            // pays off after the supply drops, which is infeasible until
            // the scheme switches.
            let incumbent = choice[a];
            let mut best_k = 0;
            let mut best_kx = x;
            let mut best_v = f64::INFINITY;
            for k in 0..space.cards[a] {
                choice[a] = k;
                let (kx, v) = match space.continuous {
                    Some(_) => lines.search(f, &choice, &mut evals),
                    None if k == incumbent => (x, value),
                    None => (x, eval(f, &choice, x, &mut evals)),
                };
                if v < best_v {
                    best_v = v;
                    best_k = k;
                    best_kx = kx;
                }
            }
            choice[a] = best_k;
            x = best_kx;
            value = best_v;
        }
        // Purely continuous space: no discrete scan ran, refine directly.
        if space.cards.is_empty() && space.continuous.is_some() {
            let (bx, bv) = lines.search(f, &choice, &mut evals);
            if bv < value || (bv == value && bx < x) {
                value = bv;
                x = bx;
            }
        }
        sweeps += 1;
        let improved = matches!(value.partial_cmp(&before), Some(std::cmp::Ordering::Less));
        if !improved || sweeps >= u64::from(cfg.max_sweeps.max(1)) {
            break;
        }
    }
    span.add_items(evals);
    RestartRun {
        best: Best { choice, x, value },
        sweeps,
        evaluations: evals,
    }
}

/// `a` strictly better than `b` under the canonical order: objective
/// value first, then lexicographic `(choice, x)` so exact ties resolve
/// the same way no matter which restart produced them.
fn better(a: &Best, b: &Best) -> bool {
    if a.value != b.value {
        return a.value < b.value;
    }
    match a.choice.cmp(&b.choice) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => a.x < b.x,
    }
}

/// Runs every restart in order through `lines` and folds the results.
fn run<F>(
    space: &SearchSpace,
    cfg: &OptConfig,
    f: &F,
    lines: &mut LineMemo<'_>,
) -> (Best, Convergence)
where
    F: Fn(&[usize], f64) -> f64,
{
    let restarts = cfg.restarts.max(1);
    let mut best: Option<Best> = None;
    let mut sweeps = 0u64;
    let mut evaluations = 0u64;
    let mut best_per_restart = Vec::with_capacity(restarts as usize);
    for r in 0..u64::from(restarts) {
        let run = restart(space, cfg, r, f, lines);
        sweeps += run.sweeps;
        evaluations += run.evaluations;
        best_per_restart.push(run.best.value);
        best = match best {
            Some(b) if !better(&run.best, &b) => Some(b),
            _ => Some(run.best),
        };
    }
    let best = best.expect("at least one restart");
    (
        best,
        Convergence {
            restarts,
            sweeps,
            evaluations,
            best_per_restart,
        },
    )
}

/// Minimizes `f` over `space`, running the restarts in order on the
/// caller's thread and each line search once.
///
/// The result is a pure function of `(space, cfg, f)`: restarts draw from
/// counter-based streams and are merged in restart order, and a line
/// search read back from the memo returns exactly what rerunning it would.
pub fn minimize<F>(space: &SearchSpace, cfg: &OptConfig, f: F) -> (Best, Convergence)
where
    F: Fn(&[usize], f64) -> f64,
{
    let mut span = ntc_obs::span("opt.minimize");
    let mut lines = LineMemo::new(space, cfg.tol);
    let (best, conv) = run(space, cfg, &f, &mut lines);
    ntc_obs::counter_add("opt.sweeps", conv.sweeps);
    ntc_obs::counter_add("opt.evaluations", conv.evaluations);
    ntc_obs::counter_add("opt.line_searches", lines.runs);
    ntc_obs::gauge_set("opt.best_value", best.value);
    span.add_items(conv.evaluations);
    (best, conv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_1d() -> SearchSpace {
        SearchSpace::new(vec![5], Some((0.0, 1.0))).unwrap()
    }

    #[test]
    fn rejects_degenerate_spaces() {
        assert!(SearchSpace::new(vec![3, 0], None).is_err());
        assert!(SearchSpace::new(vec![], None).is_err());
        assert!(SearchSpace::new(vec![2], Some((1.0, 0.0))).is_err());
        assert!(SearchSpace::new(vec![2], Some((0.0, f64::NAN))).is_err());
        assert!(SearchSpace::new(vec![], Some((0.0, 1.0))).is_ok());
    }

    #[test]
    fn finds_separable_minimum() {
        let f = |c: &[usize], x: f64| (c[0] as f64 - 2.0).powi(2) + (x - 0.3).powi(2);
        let (best, conv) = minimize(&space_1d(), &OptConfig::default(), f);
        assert_eq!(best.choice, vec![2]);
        assert!((best.x - 0.3).abs() < 1e-3);
        assert!(best.value < 1e-6);
        assert_eq!(conv.restarts, 8);
        assert_eq!(conv.best_per_restart.len(), 8);
    }

    #[test]
    fn finds_coupled_minimum_across_axes() {
        // Minimum at (3, 1): axes interact, so a single greedy pass from a
        // bad start can stall — restarts must recover it.
        let f = |c: &[usize], _x: f64| {
            let a = c[0] as f64;
            let b = c[1] as f64;
            (a - 3.0).powi(2) + (b - 1.0).powi(2) + 0.5 * (a - 3.0) * (b - 1.0)
        };
        let space = SearchSpace::new(vec![6, 4], None).unwrap();
        let (best, _) = minimize(&space, &OptConfig::default(), f);
        assert_eq!(best.choice, vec![3, 1]);
        assert_eq!(best.x, 0.0);
    }

    #[test]
    fn golden_section_hugs_a_feasibility_cliff() {
        // Infeasible below 0.42, increasing above: minimum sits on the
        // cliff edge and must be found to within the tolerance.
        let f = |_: &[usize], x: f64| if x < 0.42 { f64::INFINITY } else { x * x };
        let space = SearchSpace::new(vec![], Some((0.0, 1.0))).unwrap();
        let (best, _) = minimize(&space, &OptConfig::default(), f);
        assert!(best.x >= 0.42);
        assert!(best.x - 0.42 < 1e-2, "x = {}", best.x);
    }

    #[test]
    fn all_infeasible_reports_infinity() {
        let f = |_: &[usize], _: f64| f64::NAN;
        let (best, conv) = minimize(&space_1d(), &OptConfig::default(), f);
        assert_eq!(best.value, f64::INFINITY);
        assert!(conv.evaluations > 0);
        assert!(conv.best_per_restart.iter().all(|v| *v == f64::INFINITY));
    }

    #[test]
    fn constant_objective_ties_break_canonically() {
        let f = |_: &[usize], _: f64| 1.0;
        let space = SearchSpace::new(vec![4, 3], Some((0.2, 0.9))).unwrap();
        let (best, _) = minimize(&space, &OptConfig::default(), f);
        // Value ties resolve to the lexicographically smallest point.
        assert_eq!(best.choice, vec![0, 0]);
        assert_eq!(best.x, 0.2);
        assert_eq!(best.value, 1.0);
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let f = |c: &[usize], x: f64| (c[0] as f64 - 1.5).abs() + (x - 0.7).powi(2);
        let cfg = OptConfig {
            seed: 7,
            ..OptConfig::default()
        };
        let a = minimize(&space_1d(), &cfg, f);
        let b = minimize(&space_1d(), &cfg, f);
        assert_eq!(a, b);
    }

    #[test]
    fn concurrent_callers_get_the_direct_answer() {
        // Two server shards may optimize at once: each call owns its
        // line memo, so calls made from worker threads must equal
        // direct ones at any thread count.
        let f = |c: &[usize], x: f64| {
            (c[0] as f64 - 4.0).powi(2) * 0.25 + (x - 0.55).powi(2) + c[1] as f64 * 0.01
        };
        let space = SearchSpace::new(vec![7, 3], Some((0.1, 0.9))).unwrap();
        let cfg = |seed: usize| OptConfig {
            seed: seed as u64,
            restarts: 9,
            ..OptConfig::default()
        };
        let direct: Vec<_> = (0..8).map(|i| minimize(&space, &cfg(i), f)).collect();
        for t in [1, 2, 8] {
            let par = crate::exec::par_map_with_threads(8, t, |i| minimize(&space, &cfg(i), f));
            assert_eq!(par, direct, "threads = {t}");
        }
    }

    /// A coupled objective with a choice-dependent feasibility cliff, so
    /// restarts revisit each other's lines.
    fn cliff(c: &[usize], x: f64) -> f64 {
        if x < 0.2 + 0.1 * c[1] as f64 {
            return f64::INFINITY;
        }
        (c[0] as f64 - 3.0).powi(2) * 0.2
            + (x - 0.6 + 0.1 * c[1] as f64).powi(2)
            + 0.05 * (c[0] * c[2]) as f64
    }

    #[test]
    fn each_line_is_searched_once_and_counted_every_time() {
        let space = SearchSpace::new(vec![6, 3, 4], Some((0.0, 1.0))).unwrap();
        let cfg = OptConfig {
            seed: 11,
            ..OptConfig::default()
        };
        let calls = std::cell::RefCell::new(std::collections::BTreeMap::<Vec<usize>, u64>::new());
        let counted = |c: &[usize], x: f64| {
            *calls.borrow_mut().entry(c.to_vec()).or_default() += 1;
            cliff(c, x)
        };
        let (best, conv) = minimize(&space, &cfg, counted);

        // Each choice gets its restart-start evaluations plus at most one
        // line search's worth of calls.
        let calls = calls.into_inner();
        let mut starts = std::collections::BTreeMap::<Vec<usize>, u64>::new();
        for r in 0..u64::from(cfg.restarts) {
            *starts.entry(start(&space, &cfg, r).0).or_default() += 1;
        }
        let mut searched = 0;
        for (choice, &n) in &calls {
            let mut one = 0;
            refine(&cliff, choice, 0.0, 1.0, cfg.tol, &mut one);
            let line = n - starts.get(choice).copied().unwrap_or(0);
            assert!(line == 0 || line == one, "{choice:?}: {line} calls, one search is {one}");
            searched += u64::from(line > 0);
        }
        let total: u64 = calls.values().sum();
        assert!(searched > 0);
        assert!(conv.evaluations > total, "reused searches count again");

        // The same answer and record as the search without the memo.
        let tie = 7.703_719_777_548_943e-34;
        assert_eq!(
            best,
            Best {
                choice: vec![3, 1, 0],
                x: 0.5,
                value: tie
            }
        );
        assert_eq!(
            conv,
            Convergence {
                restarts: 8,
                sweeps: 16,
                evaluations: 10_200,
                best_per_restart: vec![tie; 8],
            }
        );
    }

    #[test]
    fn unmemoized_lines_give_the_same_answer() {
        let space = SearchSpace::new(vec![6, 3, 4], Some((0.0, 1.0))).unwrap();
        for seed in [1, 11, 2014] {
            let cfg = OptConfig {
                seed,
                restarts: 5,
                ..OptConfig::default()
            };
            let mut bare = LineMemo::new(&space, cfg.tol);
            bare.slots.clear();
            let unmemoized = run(&space, &cfg, &cliff, &mut bare);
            let mut lines = LineMemo::new(&space, cfg.tol);
            assert_eq!(run(&space, &cfg, &cliff, &mut lines), unmemoized, "seed {seed}");
            assert!(lines.runs < bare.runs, "seed {seed}: {} vs {}", lines.runs, bare.runs);
        }
    }

    #[test]
    fn line_memo_is_bounded() {
        let fits = SearchSpace::new(vec![3, 3, 25, 64], Some((0.11, 2.0))).unwrap();
        assert_eq!(LineMemo::new(&fits, 1e-4).slots.len(), 14_400);
        let past = SearchSpace::new(vec![300, 300], Some((0.0, 1.0))).unwrap();
        assert!(LineMemo::new(&past, 1e-4).slots.is_empty());
        let overflow = SearchSpace::new(vec![usize::MAX, 2], Some((0.0, 1.0))).unwrap();
        assert!(LineMemo::new(&overflow, 1e-4).slots.is_empty());
        let discrete = SearchSpace::new(vec![4, 4], None).unwrap();
        assert!(LineMemo::new(&discrete, 1e-4).slots.is_empty());
    }

    #[test]
    fn seed_moves_the_starts_not_the_optimum() {
        let f = |c: &[usize], x: f64| (c[0] as f64 - 2.0).powi(2) + (x - 0.3).powi(2);
        for seed in [1, 2, 3, 99] {
            let cfg = OptConfig {
                seed,
                ..OptConfig::default()
            };
            let (best, _) = minimize(&space_1d(), &cfg, f);
            assert_eq!(best.choice, vec![2], "seed {seed}");
            assert!((best.x - 0.3).abs() < 1e-3, "seed {seed}");
        }
    }
}
