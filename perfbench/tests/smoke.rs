//! A smoke-size pass of every workload, untraced and traced: a small
//! graph and a fraction of a second per window, so the whole file runs
//! in seconds while still driving every check and every metric.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{Config, Workload};

fn smoke(workload: Workload) {
    for traced in [false, true] {
        let mut cfg = Config::smoke(workload, traced);
        cfg.root = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
        let outcome = perfbench::run(&cfg);
        assert!(
            outcome.correct(),
            "{} (traced: {traced}): {:?}",
            workload.name(),
            outcome.problems
        );
        assert!(outcome.attempted >= 1);
        assert_eq!(outcome.failed, 0);
        let expected = if traced { PER_LAYER } else { END_TO_END };
        assert_eq!(outcome.metrics.len(), expected.len());
        let line = outcome.result_line();
        assert!(line.starts_with("{\"correct\": true"), "{line}");
        assert!(outcome
            .record_line()
            .contains(&format!("\"k\": {}", perfbench::streams::K)));
    }
}

#[test]
fn solve_cold_smoke() {
    smoke(Workload::SolveCold);
}

#[test]
fn serve_hot_smoke() {
    smoke(Workload::ServeHot);
}

#[test]
fn replan_delta_smoke() {
    smoke(Workload::ReplanDelta);
}
