//! Run provenance: who produced an artifact, from what inputs, at what
//! cost.
//!
//! A [`Provenance`] block is written to a *sidecar* file next to the
//! artifact (never into the artifact itself), so artifact JSON stays
//! byte-identical across thread counts and with instrumentation on or
//! off. Wall time and the counter snapshot are inherently run-specific;
//! that is exactly why they live in the sidecar.

use crate::export::{json_escape, metrics_json};
use crate::metrics::MetricsSnapshot;
use std::fmt::Write as _;

/// Provenance of one produced artifact.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// Experiment id, e.g. `fig8`.
    pub experiment: String,
    /// Monte-Carlo seed the run used.
    pub seed: u64,
    /// Scale name (`paper` or `quick`).
    pub scale: String,
    /// Git-describe-style version of the producing binary.
    pub version: String,
    /// Worker threads the run was allowed to use.
    pub threads: usize,
    /// Wall time of the experiment run, nanoseconds.
    pub wall_ns: u128,
    /// Snapshot of every registered metric at the end of the run.
    pub metrics: MetricsSnapshot,
}

impl Provenance {
    /// Renders the block as a standalone JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"experiment\": \"{}\",", json_escape(&self.experiment));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"scale\": \"{}\",", json_escape(&self.scale));
        let _ = writeln!(out, "  \"version\": \"{}\",", json_escape(&self.version));
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"wall_ns\": {},", self.wall_ns);
        // Indent the metrics object under its key.
        let metrics = metrics_json(&self.metrics);
        let metrics = metrics.trim_end().replace('\n', "\n  ");
        let _ = writeln!(out, "  \"metrics\": {metrics}");
        out.push_str("}\n");
        out
    }
}

/// A git-describe-style version string for the running binary.
///
/// Resolution order: the `NTC_VERSION` environment variable, then
/// `git describe --tags --always --dirty` (when a `git` binary and a
/// repository are reachable), then the crate version. Never fails.
#[must_use]
pub fn version() -> String {
    if let Ok(v) = std::env::var("NTC_VERSION") {
        if !v.is_empty() {
            return v;
        }
    }
    if let Ok(out) = std::process::Command::new("git")
        .args(["describe", "--tags", "--always", "--dirty"])
        .output()
    {
        if out.status.success() {
            let described = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !described.is_empty() {
                return described;
            }
        }
    }
    concat!("v", env!("CARGO_PKG_VERSION")).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricValue;

    #[test]
    fn provenance_json_contains_fields() {
        let p = Provenance {
            experiment: "fig8".into(),
            seed: 2014,
            scale: "paper".into(),
            version: "v0.1.0-3-gabcdef0".into(),
            threads: 8,
            wall_ns: 123_456_789,
            metrics: MetricsSnapshot {
                entries: vec![("mc.samples".into(), MetricValue::Counter(7))],
            },
        };
        let j = p.to_json();
        for needle in [
            "\"experiment\": \"fig8\"",
            "\"seed\": 2014",
            "\"scale\": \"paper\"",
            "\"version\": \"v0.1.0-3-gabcdef0\"",
            "\"threads\": 8",
            "\"wall_ns\": 123456789",
            "\"mc.samples\"",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
    }

    #[test]
    fn version_is_nonempty() {
        assert!(!version().is_empty());
    }
}
