//! Self-contained HTML report for a set of reproduction artifacts.
//!
//! [`render_report`] emits a single HTML document with zero external
//! assets: styling is an inline `<style>` block and every figure is an
//! inline SVG sparkline generated from the artifact's [`Series`] data.
//! The renderer is a pure function of its inputs — no timestamps, no
//! random ids — so the same artifacts produce the same bytes.
//!
//! Sections, in order:
//!
//! 1. provenance header (version, seed, scale, threads);
//! 2. anchor margin table, ranked worst-first, with at-risk flags;
//! 3. per-experiment cards: sparklines per series, scalar list;
//! 4. convergence diagnostics (`diag.*` gauges that are not fit keys);
//! 5. fit-quality diagnostics (`diag.*.fit.*` gauges).

use ntc::artifact::{Artifact, Check, Series};
use ntc_obs::{MetricValue, MetricsSnapshot};

/// Run provenance shown in the report header.
///
/// Deliberately excludes wall-clock data so report bytes stay a pure
/// function of (artifacts, seed, scale, threads, version).
pub struct ReportMeta {
    /// Workspace version string.
    pub version: String,
    /// Base seed of the run.
    pub seed: u64,
    /// Scale name (`quick` / `paper`).
    pub scale: String,
    /// Worker thread count.
    pub threads: usize,
}

/// Escapes text for HTML body and attribute positions.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Shortest round-trip rendering, matching the artifact JSON style.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".into()
    } else if v > 0.0 {
        "inf".into()
    } else {
        "-inf".into()
    }
}

/// An inline SVG sparkline of one series.
///
/// Non-finite points are skipped; a flat or empty series renders as a
/// midline. Coordinates are rounded to 0.01 px so the output is stable
/// across platforms.
pub(crate) fn sparkline(series: &Series) -> String {
    const W: f64 = 260.0;
    const H: f64 = 56.0;
    const PAD: f64 = 4.0;
    let pts: Vec<(f64, f64)> = series
        .points
        .iter()
        .copied()
        .filter(|&(x, y)| x.is_finite() && y.is_finite())
        .collect();
    let mut path = String::new();
    if pts.is_empty() {
        path.push_str(&format!("{PAD:.2},{:.2} {:.2},{:.2}", H / 2.0, W - PAD, H / 2.0));
    } else {
        let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(x, y) in &pts {
            xmin = xmin.min(x);
            xmax = xmax.max(x);
            ymin = ymin.min(y);
            ymax = ymax.max(y);
        }
        let xspan = if xmax > xmin { xmax - xmin } else { 1.0 };
        let yspan = if ymax > ymin { ymax - ymin } else { 1.0 };
        for (i, &(x, y)) in pts.iter().enumerate() {
            let px = PAD + (x - xmin) / xspan * (W - 2.0 * PAD);
            // SVG y grows downward; flip so larger values plot higher.
            let py = H - PAD - (y - ymin) / yspan * (H - 2.0 * PAD);
            if i > 0 {
                path.push(' ');
            }
            path.push_str(&format!("{px:.2},{py:.2}"));
        }
    }
    format!(
        "<svg class=\"spark\" viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" \
         role=\"img\" aria-label=\"{}\">\
         <polyline fill=\"none\" stroke=\"#2563eb\" stroke-width=\"1.5\" points=\"{path}\"/>\
         </svg>",
        esc(&series.label)
    )
}

/// All anchors of all artifacts, ranked worst margin first.
fn ranked_checks(artifacts: &[Artifact]) -> Vec<Check> {
    let mut checks: Vec<Check> = artifacts.iter().flat_map(Artifact::checks).collect();
    checks.sort_by(|a, b| {
        a.margin()
            .partial_cmp(&b.margin())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.artifact.cmp(&b.artifact))
            .then_with(|| a.label.cmp(&b.label))
    });
    checks
}

fn margin_section(artifacts: &[Artifact]) -> String {
    let checks = ranked_checks(artifacts);
    if checks.is_empty() {
        return String::new();
    }
    let missed = checks.iter().filter(|c| !c.passes()).count();
    let at_risk = checks.iter().filter(|c| c.at_risk()).count();
    let mut out = format!(
        "<section><h2>Paper anchors</h2>\
         <p>{} anchors — {} missed, {} at risk (margin &lt; {}).</p>\
         <table><thead><tr><th>experiment</th><th>anchor</th><th>measured</th>\
         <th>paper</th><th>band</th><th>margin</th><th>verdict</th></tr></thead><tbody>",
        checks.len(),
        missed,
        at_risk,
        Check::AT_RISK_MARGIN,
    );
    for c in &checks {
        let class = if !c.passes() {
            "miss"
        } else if c.at_risk() {
            "risk"
        } else {
            "ok"
        };
        let verdict = if !c.passes() {
            "MISS"
        } else if c.at_risk() {
            "ok (at risk)"
        } else {
            "ok"
        };
        out.push_str(&format!(
            "<tr class=\"{class}\"><td>{}</td><td>{}</td><td class=\"n\">{}</td>\
             <td class=\"n\">{}</td><td>{}</td><td class=\"n\">{}</td><td>{verdict}</td></tr>",
            esc(&c.artifact),
            esc(&c.label),
            num(c.measured),
            num(c.paper.paper),
            esc(&c.paper.band.to_string()),
            c.margin_display(),
        ));
    }
    out.push_str("</tbody></table></section>");
    out
}

fn experiment_section(artifact: &Artifact) -> String {
    let mut out = format!(
        "<section><h2>{} <code>{}</code></h2>",
        esc(&artifact.title),
        esc(&artifact.id)
    );
    let series: Vec<&Series> = artifact.series().collect();
    if !series.is_empty() {
        out.push_str("<div class=\"sparks\">");
        for s in &series {
            out.push_str(&format!(
                "<figure>{}<figcaption>{} — {} [{}] vs {} [{}], {} pts</figcaption></figure>",
                sparkline(s),
                esc(&s.label),
                esc(&s.y_name),
                esc(&s.y_unit),
                esc(&s.x_name),
                esc(&s.x_unit),
                s.points.len(),
            ));
        }
        out.push_str("</div>");
    }
    let scalars: Vec<_> = artifact.scalars().collect();
    if !scalars.is_empty() {
        out.push_str("<table><tbody>");
        for s in scalars {
            out.push_str(&format!(
                "<tr><td>{}</td><td class=\"n\">{} {}</td></tr>",
                esc(&s.label),
                num(s.value),
                esc(&s.unit),
            ));
        }
        out.push_str("</tbody></table>");
    }
    out.push_str("</section>");
    out
}

/// `(metric name, gauge value)` rows of one diagnostic section.
type DiagRows = Vec<(String, f64)>;

/// `diag.*` gauges split into (convergence, fit-quality) rows.
fn diag_rows(metrics: &MetricsSnapshot) -> (DiagRows, DiagRows) {
    let mut convergence = Vec::new();
    let mut fit = Vec::new();
    for (name, value) in &metrics.entries {
        let Some(rest) = name.strip_prefix("diag.") else { continue };
        let MetricValue::Gauge(v) = value else { continue };
        if rest.contains(".fit.") {
            fit.push((rest.to_string(), *v));
        } else {
            convergence.push((rest.to_string(), *v));
        }
    }
    (convergence, fit)
}

fn diag_table(title: &str, blurb: &str, rows: &[(String, f64)]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let mut out = format!(
        "<section><h2>{title}</h2><p>{blurb}</p>\
         <table><thead><tr><th>metric</th><th>value</th></tr></thead><tbody>"
    );
    for (name, v) in rows {
        out.push_str(&format!(
            "<tr><td><code>{}</code></td><td class=\"n\">{}</td></tr>",
            esc(name),
            num(*v)
        ));
    }
    out.push_str("</tbody></table></section>");
    out
}

/// Renders the full report document.
///
/// `metrics` is the run's metrics snapshot; only `diag.*` gauges are
/// used (pass an empty snapshot when diagnostics were disabled — the
/// diagnostic sections are simply omitted).
pub fn render_report(artifacts: &[Artifact], meta: &ReportMeta, metrics: &MetricsSnapshot) -> String {
    let (convergence, fit) = diag_rows(metrics);
    let mut out = String::from(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>ntc reproduction report</title>\n<style>\n\
         body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:72rem;\
         padding:0 1rem;color:#111}\n\
         h1{font-size:1.4rem}h2{font-size:1.1rem;margin-top:2rem}\n\
         code{background:#f3f4f6;padding:0 .25rem;border-radius:3px}\n\
         table{border-collapse:collapse;margin:.5rem 0}\n\
         th,td{border:1px solid #d1d5db;padding:.2rem .5rem;text-align:left}\n\
         td.n{text-align:right;font-variant-numeric:tabular-nums}\n\
         tr.miss td{background:#fee2e2}tr.risk td{background:#fef3c7}\n\
         .sparks{display:flex;flex-wrap:wrap;gap:1rem}\n\
         figure{margin:0}figcaption{font-size:.75rem;color:#555;max-width:16rem}\n\
         .meta{color:#555}\n\
         </style></head><body>\n<h1>ntc reproduction report</h1>\n",
    );
    out.push_str(&format!(
        "<p class=\"meta\">version {} · seed {} · scale {} · {} thread{}</p>\n",
        esc(&meta.version),
        meta.seed,
        esc(&meta.scale),
        meta.threads,
        if meta.threads == 1 { "" } else { "s" },
    ));
    out.push_str(&margin_section(artifacts));
    for artifact in artifacts {
        out.push_str(&experiment_section(artifact));
    }
    out.push_str(&diag_table(
        "Monte-Carlo convergence",
        "Standard error, confidence interval and split-half agreement of the \
         sharded estimators (gauges published under <code>diag.*</code>).",
        &convergence,
    ));
    out.push_str(&diag_table(
        "Fit quality",
        "Residual diagnostics of the Eq. 4 / Eq. 5 fits against the measured \
         points they were fitted to.",
        &fit,
    ));
    out.push_str("</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc::artifact::PaperRef;

    fn sample_artifacts() -> Vec<Artifact> {
        vec![Artifact::new("t", "Test artifact")
            .with_series(Series::new(
                "curve",
                ("vdd", "V"),
                ("ber", "1"),
                vec![(0.3, 1e-3), (0.4, 1e-5), (0.5, f64::NAN), (0.6, 1e-9)],
            ))
            .with_anchor("tight", "V", 0.509, PaperRef::abs(0.5, 0.01))
            .with_anchor("comfortable", "V", 0.5, PaperRef::abs(0.5, 0.01))
            .with_anchor("missing", "V", 0.6, PaperRef::abs(0.5, 0.01))]
    }

    fn meta() -> ReportMeta {
        ReportMeta { version: "test".into(), seed: 1, scale: "quick".into(), threads: 4 }
    }

    #[test]
    fn report_is_self_contained() {
        let html = render_report(&sample_artifacts(), &meta(), &MetricsSnapshot::default());
        // No external assets of any kind.
        for needle in ["http://", "https://", "<script src", "<link"] {
            assert!(!html.contains(needle), "external reference `{needle}` found");
        }
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<style>"), "styling must be inline");
        assert!(html.contains("<svg"), "series render as inline SVG");
    }

    #[test]
    fn margin_table_ranks_worst_first_and_flags_at_risk() {
        let html = render_report(&sample_artifacts(), &meta(), &MetricsSnapshot::default());
        let miss = html.find("missing").expect("missed anchor listed");
        let tight = html.find("tight").expect("at-risk anchor listed");
        let comfy = html.find("comfortable").expect("passing anchor listed");
        assert!(miss < tight && tight < comfy, "ranked worst-first");
        assert!(html.contains("class=\"risk\""), "at-risk row highlighted");
        assert!(html.contains("class=\"miss\""), "missed row highlighted");
    }

    #[test]
    fn diag_gauges_split_into_convergence_and_fit_sections() {
        let metrics = MetricsSnapshot {
            entries: vec![
                ("diag.fig5.mc.std_error".into(), MetricValue::Gauge(1.25e-4)),
                ("diag.fig5.commercial.fit.r_squared".into(), MetricValue::Gauge(0.999)),
                ("other.counter".into(), MetricValue::Counter(3)),
            ],
        };
        let html = render_report(&sample_artifacts(), &meta(), &metrics);
        assert!(html.contains("Monte-Carlo convergence"));
        assert!(html.contains("fig5.mc.std_error"));
        assert!(html.contains("Fit quality"));
        assert!(html.contains("fig5.commercial.fit.r_squared"));
        assert!(!html.contains("other.counter"), "non-diag metrics stay out");
    }

    #[test]
    fn report_bytes_are_deterministic() {
        let a = render_report(&sample_artifacts(), &meta(), &MetricsSnapshot::default());
        let b = render_report(&sample_artifacts(), &meta(), &MetricsSnapshot::default());
        assert_eq!(a, b);
    }

    #[test]
    fn sparkline_skips_non_finite_points_and_escapes_labels() {
        let s = Series::new(
            "a<b",
            ("x", ""),
            ("y", ""),
            vec![(0.0, 0.0), (1.0, f64::INFINITY), (2.0, 1.0)],
        );
        let svg = sparkline(&s);
        assert!(svg.contains("a&lt;b"));
        // Two finite points → exactly one space-separated pair boundary.
        let pts = svg.split("points=\"").nth(1).unwrap().split('"').next().unwrap();
        assert_eq!(pts.split(' ').count(), 2, "{pts}");
    }

    #[test]
    fn empty_series_renders_a_midline() {
        let s = Series::new("flat", ("x", ""), ("y", ""), vec![]);
        assert!(sparkline(&s).contains("points=\""), "no panic, placeholder line");
    }
}
