//! The three workloads, and the measurement plan they share.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::harness::Window;
use crate::layers::Layers;
use crate::report::{end_to_end, Outcome, Stamp};
use crate::stats::{median, percentile};
use crate::trace::SpanLog;
use crate::Config;

pub mod replan_delta;
pub mod serve_hot;
pub mod solve_cold;

/// The windows of one run.
pub struct Measured {
    /// Every operation of the run (both halves of a traced run).
    pub total: Window,
    /// `(traced p50 − untraced p50) / untraced p50` of a traced run.
    pub overhead: Option<f64>,
    /// The traced half's spans, merged across clients.
    pub log: SpanLog,
}

/// Measures a run's windows with `window(seconds, log)`, which runs one
/// closed loop and merges its clients' spans into `log`. An untraced run
/// is one window with spans off. A traced run is an untraced half, the
/// overhead baseline, then a traced half.
pub fn measure(cfg: &Config, mut window: impl FnMut(f64, &mut SpanLog) -> Window) -> Measured {
    let origin = Instant::now();
    let mut untraced_log = SpanLog::new(origin, false);
    if !cfg.traced {
        let total = window(cfg.seconds, &mut untraced_log);
        return Measured {
            total,
            overhead: None,
            log: untraced_log,
        };
    }
    let mut total = window(cfg.seconds / 2.0, &mut untraced_log);
    let mut log = SpanLog::new(origin, true);
    let traced = window(cfg.seconds / 2.0, &mut log);
    let base = median(&total.latencies_ms);
    let overhead = (median(&traced.latencies_ms) - base) / base;
    total.absorb(traced);
    Measured {
        total,
        overhead: Some(overhead),
        log,
    }
}

/// Median duration of the spans called `name`, in milliseconds.
pub fn span_ms(log: &SpanLog, name: &str) -> f64 {
    median(&log.durations_ms(name))
}

/// Assembles a run's outcome: end-to-end metrics for an untraced run;
/// for a traced run the per-layer metrics, with the spans written to
/// `<root>/.bench_out/`.
pub fn finish(
    cfg: &Config,
    measured: Measured,
    setup_secs: &[f64],
    mut layers: Layers,
    stamp: Stamp,
    counts: BTreeMap<&'static str, f64>,
    mut problems: Vec<String>,
) -> Outcome {
    let metrics = if let Some(overhead) = measured.overhead {
        layers.insert("trace.overhead_share", overhead);
        let path = cfg.root.join(".bench_out").join(format!(
            "spans-{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        if let Err(e) = measured.log.write_jsonl(&path) {
            problems.push(format!("writing {}: {e}", path.display()));
        }
        layers
    } else {
        end_to_end(&measured.total, setup_secs)
    };
    let mut counts = counts;
    // The p99 has fewer than ten samples beyond it on the slower
    // workloads, so it is recorded here rather than bounded as a metric.
    counts.insert(
        "latency_p99_ms",
        percentile(&measured.total.latencies_ms, 0.99),
    );
    counts.insert("operations", measured.total.attempted as f64);
    counts.insert("window_s", measured.total.elapsed_s);
    counts.insert("setups", setup_secs.len() as f64);
    Outcome {
        attempted: measured.total.attempted,
        failed: measured.total.failed,
        metrics,
        stamp,
        counts,
        problems,
        ..Outcome::default()
    }
}
