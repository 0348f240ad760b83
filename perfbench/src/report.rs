//! Metric names and units, and the two lines a run prints last: the
//! stamped record and the result object.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::harness::{peak_rss_mb, Window};
use crate::stats::{mean, median, percentile, ratio};

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("ok_rate", "ratio"),
    ("quality_mean_w", "W"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs), with units. Layers use the module
/// names of the code they time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.frame_rt_us", "us"),
    ("server.submit_rtt_ms", "ms"),
    ("server.wait_rtt_ms", "ms"),
    ("server.admit_us", "us"),
    ("server.wait_inproc_us", "us"),
    ("server.transport_share", "ratio"),
    ("server.queue_wait_ms_est", "ms"),
    ("server.shed", "count"),
    ("session.submit_us", "us"),
    ("session.wait_ms", "ms"),
    ("session.apply_ms", "ms"),
    ("session.memo_hit_ratio", "ratio"),
    ("session.memo_stale", "count"),
    ("delta.apply_ms", "ms"),
    ("fingerprint.full_ms", "ms"),
    ("fingerprint.update_us", "us"),
    ("engine.samples_per_s", "1/s"),
    ("engine.non_draw_share", "ratio"),
    ("exec.pool_speedup", "ratio"),
    ("exec.busy_share", "ratio"),
    ("exec.chunks_per_solve", "count"),
    ("sampler.draw_weighted_us", "us"),
    ("sampler.draw_uniform_us", "us"),
    ("sampler.weighted_over_uniform", "ratio"),
    ("frontier.gain_ns", "ns"),
    ("cross_entropy.update_us", "us"),
    ("ocba.allocate_us", "us"),
    ("trace.overhead_share", "ratio"),
];

/// The end-to-end metrics of a measurement window.
pub fn end_to_end(window: &Window, setup_secs: &[f64]) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("setup_s", median(setup_secs)),
        ("latency_p50_ms", percentile(&window.latencies_ms, 0.50)),
        ("latency_p95_ms", percentile(&window.latencies_ms, 0.95)),
        ("throughput_ops_s", window.throughput()),
        (
            "ok_rate",
            ratio(
                (window.attempted - window.failed) as f64,
                window.attempted as f64,
            ),
        ),
        ("quality_mean_w", mean(&window.quality)),
        ("peak_rss_mb", peak_rss_mb()),
    ])
}

/// What a result measured.
#[derive(Debug, Clone, Default)]
pub struct Stamp {
    pub cores: usize,
    pub n: usize,
    pub m: usize,
    pub k: usize,
    pub seed: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub git_rev: String,
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: BTreeMap<&'static str, f64>,
    pub stamp: Stamp,
    /// Further counts for the record: sample sizes, memo counters, the
    /// oracle's findings.
    pub counts: BTreeMap<&'static str, f64>,
    /// Why the run is not correct; empty when it is.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The metric table this run must report, by trace mode.
    pub fn expected(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Flags a missing or non-finite metric as a problem.
    pub fn check_metrics(&mut self) {
        for &(name, _) in self.expected() {
            match self.metrics.get(name) {
                Some(v) if v.is_finite() => {}
                Some(v) => self.problems.push(format!("metric {name} is {v}")),
                None => self
                    .problems
                    .push(format!("metric {name} was not measured")),
            }
        }
    }

    /// The last line of a run: `correct`, `attempted`, `failed`, and
    /// every metric of the mode with its unit.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, &(name, unit)) in self.expected().iter().enumerate() {
            let value = self.metrics.get(name).copied().filter(|v| v.is_finite());
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " },
                number(value.unwrap_or(0.0))
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// The stamped record printed before the result line.
    pub fn record_line(&self) -> String {
        let s = &self.stamp;
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", number(*v)))
            .collect();
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| format!("\"{}\"", p.replace('\\', "\\\\").replace('"', "'")))
            .collect();
        format!(
            "{{\"record\": {{\"workload\": \"{}\", \"traced\": {}, \"stamp\": {{\"cores\": {}, \"n\": {}, \"m\": {}, \"k\": {}, \"seed\": {}, \"memo_hits\": {}, \"memo_misses\": {}, \"git_rev\": \"{}\"}}, \"counts\": {{{}}}, \"problems\": [{}]}}}}",
            self.workload,
            self.traced,
            s.cores,
            s.n,
            s.m,
            s.k,
            s.seed,
            s.memo_hits,
            s.memo_misses,
            s.git_rev,
            counts.join(", "),
            problems.join(", ")
        )
    }
}

/// A JSON number with all its digits (`f64`'s shortest round-trip form).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// The commit `root` is checked out at, read from `.git` without running
/// git; `"unknown"` outside a git checkout.
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_of_its_mode() {
        let mut outcome = Outcome {
            workload: "solve-cold",
            attempted: 10,
            failed: 0,
            ..Outcome::default()
        };
        for &(name, _) in END_TO_END {
            outcome.metrics.insert(name, 1.25);
        }
        outcome.check_metrics();
        assert!(outcome.correct());
        let line = outcome.result_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for &(name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.25, \"unit\": \"{unit}\"}}"
            )));
        }
        outcome.traced = true;
        outcome.check_metrics();
        assert!(!outcome.correct(), "per-layer metrics are missing");
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for (i, name) in all.iter().enumerate() {
            assert!(!all[..i].contains(name), "{name} twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
