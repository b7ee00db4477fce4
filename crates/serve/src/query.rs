//! Typed model queries: the fine-grained lookups `/v1/query` answers.
//!
//! These are the paper's core artifacts exposed as parameterized
//! point queries rather than whole-experiment runs:
//!
//! * **`ber`** — bit error rate at a supply voltage, per the Eq. 4
//!   retention Gaussian or the Eq. 5 access power law.
//! * **`vmin`** — minimum supply for a mitigation scheme under a FIT
//!   budget (Table 2's cell), optionally performance-constrained
//!   through the shared memoized platform timing model.
//! * **`energy`** — the energy/power breakdown of an SoC model at an
//!   operating point (Fig. 1's curves, pointwise).
//!
//! The wire model lives in [`ntc::api`]: requests parse into
//! [`QueryRequest`] (every schema problem is an
//! [`NtcError`] naming the offending field) and evaluate against
//! [`Models`], the server's shared [`CachedSoc`] instances, so repeated
//! voltage lookups hit the quantized memo instead of re-walking the
//! model. [`eval`] returns the typed [`QueryResponse`], carrying the
//! request's correlation `id` through to the response item — which is
//! how batched `/v1/query` responses stay attributable per item.

use ntc::api::{
    Check, EnergyModel, LawKind, Memory, QueryKind, QueryRequest, QueryResponse, QueryResult,
};
use ntc::error::NtcError;
use ntc::fit::FitSolver;
use ntc_memcalc::cache::CachedSoc;
use ntc_sram::failure::{AccessLaw, RetentionLaw};

/// The shared memoized models queries evaluate against.
///
/// One instance lives in the server state; every worker shard reads
/// through it, so a voltage any client asked about before is answered
/// from the quantized memo (`memcalc.cache.*` counters tick either
/// way, and `GET /v1/metrics` publishes the derived hit rates).
#[derive(Debug)]
pub struct Models {
    /// The Table 2 platform timing model (f_max for `vmin`).
    pub platform: CachedSoc,
    /// Fig. 1 COTS-memory SoC model.
    pub cots: CachedSoc,
    /// Fig. 1 cell-based SoC model.
    pub cell: CachedSoc,
}

impl Models {
    /// Fresh memoized instances of the paper's models.
    pub fn paper() -> Self {
        use ntc_memcalc::soc::SocEnergyModel;
        Models {
            platform: ntc::fit::paper_platform_model(),
            cots: CachedSoc::new(SocEnergyModel::exg_processor_40nm()),
            cell: CachedSoc::new(SocEnergyModel::exg_processor_cell_based_40nm()),
        }
    }

    /// Aggregate cache counters across the three models.
    pub(crate) fn cache_stats(&self) -> ntc_memcalc::cache::CacheStats {
        let (mut hits, mut misses) = (0, 0);
        for m in [&self.platform, &self.cots, &self.cell] {
            let s = m.stats();
            hits += s.hits;
            misses += s.misses;
        }
        ntc_memcalc::cache::CacheStats { hits, misses }
    }
}

/// Evaluates a parsed query into its typed response, echoing the
/// request's correlation `id`. Pure given the models' underlying
/// parameters: equal queries produce equal JSON, bit for bit, from any
/// worker shard — the memo table only changes *when* the model is
/// walked, never what it returns.
///
/// The decoder already ran [`QueryKind`]'s [`Check`], but
/// [`QueryRequest`]'s fields are public, so a request built directly can
/// skip the decoder; `eval` runs the same check, because the models
/// assert on inputs outside their domain.
pub fn eval(query: &QueryRequest, models: &Models) -> Result<QueryResponse, NtcError> {
    query.kind.check()?;
    let result = match query.kind {
        QueryKind::Ber { law, memory, vdd } => {
            let p = match law {
                LawKind::Access => access_law(memory).p_bit(vdd),
                LawKind::Retention => {
                    let l = match memory {
                        Memory::Commercial40 => RetentionLaw::commercial_40nm(),
                        Memory::CellBased40 => RetentionLaw::cell_based_40nm(),
                        Memory::CellBased65 => RetentionLaw::cell_based_65nm(),
                    };
                    l.p_bit(vdd)
                }
            };
            QueryResult::Ber { law, memory, vdd, p_bit: p }
        }
        QueryKind::Vmin { scheme, memory, fit_target, frequency_hz, grid } => {
            let solver = FitSolver::new(access_law(memory), fit_target).with_grid(grid);
            let max_p_bit = solver.max_p_bit(scheme);
            let (error_constrained, performance_constrained, operating) = match frequency_hz {
                None => (
                    solver.error_constrained_voltage(scheme),
                    None,
                    solver.min_voltage(scheme),
                ),
                Some(f) => {
                    // The solver panics on unreachable frequencies; turn
                    // that into a client error before calling it.
                    if models.platform.f_max(1.32) < f {
                        return Err(NtcError::invalid_param(
                            "frequency_hz",
                            format!("{f} Hz unreachable even at the 1.32 V search ceiling"),
                        ));
                    }
                    let solved = solver.solve(scheme, f, |v| models.platform.f_max(v));
                    (solved.error_constrained, solved.performance_constrained, solved.operating)
                }
            };
            QueryResult::Vmin {
                scheme,
                memory,
                fit_target,
                max_p_bit,
                frequency_hz,
                error_constrained,
                performance_constrained,
                operating,
            }
        }
        QueryKind::Energy { model, vdd, frequency_hz } => {
            let cached = match model {
                EnergyModel::Cots40 => &models.cots,
                EnergyModel::CellBased40 => &models.cell,
            };
            let f_max = cached.f_max(vdd);
            let energy_per_cycle = cached.energy_per_cycle(vdd);
            let point = match frequency_hz {
                None => cached.model().operating_point(vdd),
                Some(f) => {
                    if f > f_max {
                        return Err(NtcError::invalid_param(
                            "frequency_hz",
                            format!("{f} Hz exceeds f_max {f_max} Hz at {vdd} V"),
                        ));
                    }
                    cached.model().operating_point_at(vdd, f)
                }
            };
            QueryResult::Energy {
                model,
                vdd,
                f_max_hz: f_max,
                energy_per_cycle_j: energy_per_cycle,
                total_j: point.total_j(),
                dynamic_j: point.dynamic_j(),
                leakage_j: point.leakage_j(),
                power_w: point.power_w(),
            }
        }
    };
    Ok(QueryResponse { id: query.id.clone(), result })
}

/// The access law of `memory`. [`QueryKind`]'s check admits
/// `cell_based_65nm`, which has none, only to retention lookups.
fn access_law(memory: Memory) -> AccessLaw {
    match memory {
        Memory::Commercial40 => AccessLaw::commercial_40nm(),
        Memory::CellBased40 => AccessLaw::cell_based_40nm(),
        Memory::CellBased65 => {
            unreachable!("QueryKind::check rejects access lookups on cell_based_65nm")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc::artifact::json::{parse, JsonValue};

    fn models() -> Models {
        Models::paper()
    }

    fn q(text: &str) -> Result<QueryRequest, NtcError> {
        QueryRequest::from_json_value(&parse(text).expect("test JSON parses"))
    }

    fn eval_json(text: &str) -> Result<JsonValue, NtcError> {
        q(text).and_then(|query| eval(&query, &models())).map(|r| r.to_json_value())
    }

    #[test]
    fn vmin_reproduces_table2_ocean_cell() {
        let out = eval_json(r#"{"kind":"vmin","scheme":"ocean","frequency_hz":290e3}"#).unwrap();
        assert_eq!(out.get("operating").and_then(JsonValue::as_num), Some(0.33));
        // Defaults echoed back.
        assert_eq!(out.get("fit_target").and_then(JsonValue::as_num), Some(1e-15));
        assert_eq!(out.get("memory").and_then(JsonValue::as_str), Some("cell_based_40nm"));
    }

    #[test]
    fn vmin_without_frequency_matches_solver_min_voltage() {
        let out = eval_json(r#"{"kind":"vmin","scheme":"secded"}"#).unwrap();
        assert_eq!(out.get("operating").and_then(JsonValue::as_num), Some(0.44));
        assert_eq!(out.get("performance_constrained"), Some(&JsonValue::Null));
    }

    #[test]
    fn ber_matches_the_law_directly() {
        let out =
            eval_json(r#"{"kind":"ber","law":"access","memory":"cell_based_40nm","vdd":0.4}"#)
                .unwrap();
        let want = AccessLaw::cell_based_40nm().p_bit(0.4);
        assert_eq!(out.get("p_bit").and_then(JsonValue::as_num), Some(want));
    }

    #[test]
    fn request_id_is_echoed_through_eval() {
        let out = eval_json(
            r#"{"id":"probe-3","kind":"ber","law":"retention","memory":"cell_based_65nm","vdd":0.31}"#,
        )
        .unwrap();
        assert_eq!(out.get("id").and_then(JsonValue::as_str), Some("probe-3"));
        // And first in the serialized field order, so clients see the
        // correlation id before the payload.
        match out {
            JsonValue::Obj(fields) => assert_eq!(fields[0].0, "id"),
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn energy_is_served_through_the_cache() {
        let m = models();
        let query = q(r#"{"kind":"energy","model":"cots_40nm","vdd":0.55}"#).unwrap();
        let a = eval(&query, &m).unwrap();
        let b = eval(&query, &m).unwrap();
        assert_eq!(a, b, "repeat query identical");
        assert!(m.cache_stats().hits >= 2, "second evaluation hit the memo");
    }

    #[test]
    fn schema_errors_name_the_field() {
        for (text, kind, needle) in [
            (r#"{"law":"access"}"#, "missing_field", "kind"),
            (r#"{"kind":"warp"}"#, "unsupported", "warp"),
            (r#"{"kind":"ber","law":"access","memory":"cell_based_40nm"}"#, "missing_field", "vdd"),
            (
                r#"{"kind":"ber","law":"access","memory":"cell_based_65nm","vdd":0.4}"#,
                "invalid_param",
                "retention only",
            ),
            (
                r#"{"kind":"vmin","scheme":"raid5"}"#,
                "invalid_param",
                "raid5",
            ),
            (
                r#"{"kind":"vmin","scheme":"ocean","fit_target":2.0}"#,
                "invalid_param",
                "(0, 1)",
            ),
            (
                r#"{"kind":"energy","model":"cots_40nm","vdd":-0.5}"#,
                "invalid_param",
                "positive",
            ),
        ] {
            let err = match q(text) {
                Err(e) => e,
                Ok(query) => eval(&query, &models()).unwrap_err(),
            };
            assert_eq!(err.kind(), kind, "{text}");
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn hand_built_requests_without_an_access_law_are_client_errors() {
        use ntc::fit::{Scheme, VoltageGrid};
        for kind in [
            QueryKind::Ber { law: LawKind::Access, memory: Memory::CellBased65, vdd: 0.4 },
            QueryKind::Vmin {
                scheme: Scheme::Ocean,
                memory: Memory::CellBased65,
                fit_target: 1e-15,
                frequency_hz: None,
                grid: VoltageGrid::PaperGrid,
            },
        ] {
            let query = QueryRequest { id: None, kind };
            let err = eval(&query, &models()).unwrap_err();
            assert_eq!(err.kind(), "invalid_param", "{query:?}");
            assert!(err.to_string().contains("cell_based_65nm"), "{err}");
        }
    }

    #[test]
    fn hand_built_out_of_range_fit_targets_are_client_errors() {
        use ntc::fit::{Scheme, VoltageGrid};
        for fit_target in [0.0, -1e-15, 1.0, 2.0, f64::NAN] {
            let query = QueryRequest {
                id: None,
                kind: QueryKind::Vmin {
                    scheme: Scheme::Ocean,
                    memory: Memory::CellBased40,
                    fit_target,
                    frequency_hz: None,
                    grid: VoltageGrid::PaperGrid,
                },
            };
            let err = eval(&query, &models()).unwrap_err();
            assert_eq!(err.kind(), "invalid_param", "{fit_target}");
            assert!(err.to_string().contains("(0, 1)"), "{err}");
        }
    }

    #[test]
    fn hand_built_non_finite_or_non_positive_inputs_are_client_errors() {
        use ntc::fit::{Scheme, VoltageGrid};
        let vmin = |frequency_hz| QueryKind::Vmin {
            scheme: Scheme::Ocean,
            memory: Memory::CellBased40,
            fit_target: 1e-15,
            frequency_hz: Some(frequency_hz),
            grid: VoltageGrid::PaperGrid,
        };
        let energy = |vdd, frequency_hz| QueryKind::Energy {
            model: EnergyModel::Cots40,
            vdd,
            frequency_hz,
        };
        let ber = |law, vdd| QueryKind::Ber { law, memory: Memory::CellBased40, vdd };
        let mut cases = Vec::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            cases.push((vmin(bad), "frequency_hz", "finite"));
            cases.push((energy(bad, None), "vdd", "finite"));
            cases.push((energy(0.55, Some(bad)), "frequency_hz", "finite"));
            cases.push((ber(LawKind::Access, bad), "vdd", "finite"));
            cases.push((ber(LawKind::Retention, bad), "vdd", "finite"));
        }
        for bad in [0.0, -1.0] {
            cases.push((vmin(bad), "frequency_hz", "positive"));
            cases.push((energy(bad, None), "vdd", "positive"));
            cases.push((energy(0.55, Some(bad)), "frequency_hz", "positive"));
            cases.push((ber(LawKind::Access, bad), "vdd", "positive"));
            cases.push((ber(LawKind::Retention, bad), "vdd", "positive"));
        }
        let m = models();
        for (kind, field, needle) in cases {
            let query = QueryRequest { id: None, kind };
            let err = eval(&query, &m).unwrap_err();
            assert_eq!(err.kind(), "invalid_param", "{query:?}");
            let text = err.to_string();
            assert!(text.contains(field) && text.contains(needle), "{query:?}: {text}");
        }
    }

    #[test]
    fn unreachable_frequency_is_a_client_error_not_a_panic() {
        let query = q(r#"{"kind":"vmin","scheme":"ocean","frequency_hz":1e18}"#).unwrap();
        let err = eval(&query, &models()).unwrap_err();
        assert_eq!(err.kind(), "invalid_param");
        assert!(err.to_string().contains("unreachable"));
    }
}
