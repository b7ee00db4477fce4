//! Workload inputs, generated from the run's seed.
//!
//! The program under test never sees the seed: it sees only the bodies
//! built here. Every generator is a pure function of `(seed, index)`.

use ntc::api::{EnergyModel, LawKind, Memory, OptimizeRequest, QueryKind, QueryRequest};
use ntc::fit::{Scheme, VoltageGrid};
use ntc_memcalc::cache::V_QUANTUM;

/// `serve_hot` sends a memoised `/v1/run table2` every this many requests.
pub const HOT_RUN_EVERY: usize = 16;

/// Query items per `serve_cold` batch arrival.
pub const COLD_BATCH: usize = 64;

/// Every this many `serve_cold` arrivals, the last one is an optimize.
pub const COLD_OPTIMIZE_EVERY: u64 = 4;

/// One request on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Wire {
    /// HTTP method.
    pub method: &'static str,
    /// Request target.
    pub target: &'static str,
    /// Request body.
    pub body: String,
}

/// SplitMix64: a full-period mixer for deriving parameters from the seed.
#[must_use]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------
// serve_hot: the loadgen rotation, offset by the seed
// ---------------------------------------------------------------------

/// Where in the `loadgen::request_for` rotation a run starts.
#[must_use]
pub fn hot_offset(seed: u64) -> u64 {
    mix(seed) % 1_000_000
}

/// The `i`-th `serve_hot` request.
#[must_use]
pub fn hot_request(seed: u64, i: u64) -> Wire {
    let (method, target, body) =
        ntc_bench::loadgen::request_for(hot_offset(seed) + i, HOT_RUN_EVERY);
    Wire {
        method,
        target,
        body,
    }
}

/// Every distinct `serve_hot` request, in first-seen order. The rotation
/// repeats every lcm(16, 3·7·5·3) = 5 040 indices, so one period holds the
/// whole set, which is small and independent of the seed.
#[must_use]
pub fn hot_distinct(seed: u64) -> Vec<Wire> {
    let mut out: Vec<Wire> = Vec::new();
    for i in 0..5_040 {
        let w = hot_request(seed, i);
        if !out.contains(&w) {
            out.push(w);
        }
    }
    out
}

// ---------------------------------------------------------------------
// serve_cold: operating points that never repeat within a run
// ---------------------------------------------------------------------

/// Energy points: both SoC models × every memo quantum from 0.25 V to 1.32 V.
const ENERGY_K0: u64 = 5_000;
const ENERGY_KEYS: u64 = 21_400;
const ENERGY_POINTS: u64 = 2 * ENERGY_KEYS;
/// BER points: 10 µV steps from 0.30 V.
const BER_POINTS: u64 = 60_000;
/// Vmin points: 100 Hz steps from 100 kHz.
const VMIN_POINTS: u64 = 60_000;
/// Optimize points: 1 kHz steps from 150 kHz.
const OPTIMIZE_POINTS: u64 = 4_000;

/// A seed-chosen bijection on `0..n`: `m ↦ (a·m + b) mod n`, `gcd(a, n) = 1`.
#[derive(Debug, Clone, Copy)]
struct Perm {
    n: u64,
    a: u64,
    b: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl Perm {
    fn new(seed: u64, salt: u64, n: u64) -> Perm {
        let mut a = mix(seed ^ salt) % n;
        while a == 0 || gcd(a, n) != 1 {
            a = (a + 1) % n;
        }
        Perm {
            n,
            a,
            b: mix(seed.wrapping_add(salt)) % n,
        }
    }

    /// The `m`-th point, or `None` once `0..n` is used up.
    fn at(self, m: u64) -> Option<u64> {
        (m < self.n).then(|| {
            let am = u128::from(self.a) * u128::from(m) % u128::from(self.n);
            #[allow(clippy::cast_possible_truncation)]
            let am = am as u64;
            (am + self.b) % self.n
        })
    }
}

/// One `serve_cold` arrival.
#[derive(Debug, Clone, PartialEq)]
pub enum Arrival {
    /// A `/v1/query` batch of [`COLD_BATCH`] items.
    Batch(Vec<QueryRequest>),
    /// A `/v1/optimize` at a fresh (frequency, seed).
    Optimize(OptimizeRequest),
}

impl Arrival {
    /// The request on the wire.
    #[must_use]
    pub fn wire(&self) -> Wire {
        match self {
            Arrival::Batch(items) => {
                let mut body = String::from("{\"queries\":[");
                for (k, q) in items.iter().enumerate() {
                    if k > 0 {
                        body.push(',');
                    }
                    body.push_str(&q.to_json());
                }
                body.push_str("]}");
                Wire {
                    method: "POST",
                    target: "/v1/query",
                    body,
                }
            }
            Arrival::Optimize(req) => Wire {
                method: "POST",
                target: "/v1/optimize",
                body: req.to_json(),
            },
        }
    }
}

/// The `serve_cold` input stream of one seed.
#[derive(Debug, Clone, Copy)]
pub struct ColdGen {
    seed: u64,
    energy: Perm,
    ber: Perm,
    vmin: Perm,
    optimize: Perm,
}

impl ColdGen {
    /// The stream for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> ColdGen {
        ColdGen {
            seed,
            energy: Perm::new(seed, 1, ENERGY_POINTS),
            ber: Perm::new(seed, 2, BER_POINTS),
            vmin: Perm::new(seed, 3, VMIN_POINTS),
            optimize: Perm::new(seed, 4, OPTIMIZE_POINTS),
        }
    }

    /// Whether arrival `j` is an optimize.
    #[must_use]
    pub fn is_optimize(j: u64) -> bool {
        j % COLD_OPTIMIZE_EVERY == COLD_OPTIMIZE_EVERY - 1
    }

    /// The `g`-th query item of the run. Kinds rotate energy, ber, vmin;
    /// within a kind the `m`-th item takes the `m`-th point of that kind's
    /// permutation, so no point repeats until the kind's range is used up.
    fn item(&self, g: u64) -> Option<QueryRequest> {
        let m = g / 3;
        let kind = match g % 3 {
            0 => {
                let p = self.energy.at(m)?;
                let model = if p % 2 == 0 {
                    EnergyModel::Cots40
                } else {
                    EnergyModel::CellBased40
                };
                #[allow(clippy::cast_precision_loss)]
                let vdd = (ENERGY_K0 + p / 2) as f64 * V_QUANTUM;
                QueryKind::Energy {
                    model,
                    vdd,
                    frequency_hz: None,
                }
            }
            1 => {
                let p = self.ber.at(m)?;
                let (law, memory) = [
                    (LawKind::Retention, Memory::CellBased65),
                    (LawKind::Retention, Memory::CellBased40),
                    (LawKind::Retention, Memory::Commercial40),
                    (LawKind::Access, Memory::CellBased40),
                    (LawKind::Access, Memory::Commercial40),
                ][usize::try_from(m % 5).expect("index below 5")];
                #[allow(clippy::cast_precision_loss)]
                let vdd = 0.30 + p as f64 * 1e-5;
                QueryKind::Ber { law, memory, vdd }
            }
            _ => {
                let p = self.vmin.at(m)?;
                let scheme = Scheme::ALL[usize::try_from(m % 3).expect("index below 3")];
                let memory = if m.is_multiple_of(2) {
                    Memory::CellBased40
                } else {
                    Memory::Commercial40
                };
                #[allow(clippy::cast_precision_loss)]
                let f = 100e3 + p as f64 * 100.0;
                QueryKind::Vmin {
                    scheme,
                    memory,
                    fit_target: 1e-15,
                    frequency_hz: Some(f),
                    grid: VoltageGrid::PaperGrid,
                }
            }
        };
        Some(QueryRequest { id: None, kind })
    }

    /// Arrival `j`, or `None` when the run asks for more distinct points
    /// than the generator has.
    #[must_use]
    pub fn arrival(&self, j: u64) -> Option<Arrival> {
        if Self::is_optimize(j) {
            let o = j / COLD_OPTIMIZE_EVERY;
            let p = self.optimize.at(o)?;
            #[allow(clippy::cast_precision_loss)]
            let mut req = OptimizeRequest::paper(150e3 + p as f64 * 1e3);
            // JSON numbers carry integers exactly only below 2^53.
            req.seed = mix(self.seed ^ mix(o)) >> 24;
            req.canonicalize();
            return Some(Arrival::Optimize(req));
        }
        let batch = j - j / COLD_OPTIMIZE_EVERY;
        let first = batch * COLD_BATCH as u64;
        (first..first + COLD_BATCH as u64)
            .map(|g| self.item(g))
            .collect::<Option<Vec<_>>>()
            .map(Arrival::Batch)
    }

    /// The first `n` arrivals.
    ///
    /// # Errors
    ///
    /// When `n` arrivals would repeat an operating point.
    pub fn arrivals(&self, n: u64) -> Result<Vec<Arrival>, String> {
        (0..n)
            .map(|j| self.arrival(j))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| {
                format!("serve_cold: {n} arrivals exceed the generator's distinct points")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        for seed in [0, 1, 2014, u64::MAX] {
            assert_eq!(hot_request(seed, 17), hot_request(seed, 17));
            assert_eq!(
                ColdGen::new(seed).arrivals(40),
                ColdGen::new(seed).arrivals(40)
            );
        }
        assert_ne!(ColdGen::new(1).arrivals(8), ColdGen::new(2).arrivals(8));
        assert_ne!(hot_offset(1), hot_offset(2));
    }

    #[test]
    fn hot_set_is_small_and_seed_independent() {
        let a = hot_distinct(3);
        assert!(
            a.len() >= 10 && a.len() <= 48,
            "{} distinct hot requests",
            a.len()
        );
        let mut b = hot_distinct(99);
        b.sort_by(|x, y| x.body.cmp(&y.body));
        let mut a = a;
        a.sort_by(|x, y| x.body.cmp(&y.body));
        assert_eq!(a, b);
    }

    /// Every point key a query can hit: energy by memo key, others by value.
    fn point_key(q: &QueryRequest) -> String {
        match &q.kind {
            QueryKind::Energy { model, vdd, .. } => {
                format!("energy {} {}", model.as_str(), (vdd / V_QUANTUM).round())
            }
            QueryKind::Ber { vdd, .. } => format!("ber {vdd}"),
            QueryKind::Vmin { frequency_hz, .. } => format!("vmin {frequency_hz:?}"),
        }
    }

    #[test]
    fn cold_never_repeats_an_operating_point_within_a_run() {
        // 2 500 arrivals: a 20 s run at 125 req/s, above the configured rate.
        for seed in [0, 7, u64::MAX] {
            let arrivals = ColdGen::new(seed).arrivals(2_500).expect("enough points");
            let mut seen = HashSet::new();
            let mut optimizes = HashSet::new();
            for a in &arrivals {
                match a {
                    Arrival::Batch(items) => {
                        assert_eq!(items.len(), COLD_BATCH);
                        for q in items {
                            assert!(seen.insert(point_key(q)), "repeated {}", point_key(q));
                        }
                    }
                    Arrival::Optimize(r) => {
                        assert!(optimizes.insert(r.constraints.frequency_hz.to_bits()));
                    }
                }
            }
            assert_eq!(optimizes.len(), 625);
        }
    }

    #[test]
    fn cold_reports_exhaustion_instead_of_repeating() {
        let g = ColdGen::new(5);
        assert!(g.arrivals(20_000).is_err());
    }

    #[test]
    fn cold_inputs_are_valid_for_the_service() {
        let models = ntc_serve::query::Models::paper();
        let g = ColdGen::new(11);
        for j in 0..24 {
            match g.arrival(j).expect("in range") {
                Arrival::Batch(items) => {
                    for q in &items {
                        ntc_serve::query::eval(q, &models).expect("cold query evaluates");
                    }
                }
                Arrival::Optimize(r) => {
                    let back = ntc::artifact::json::parse(&r.to_json()).expect("json");
                    assert_eq!(OptimizeRequest::from_json_value(&back).expect("parses"), r);
                }
            }
        }
    }
}
