//! `BENCHMARK.json` at the repository root must name exactly the
//! workloads and metrics the benchmark reports.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::Workload;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// Every `"name": "..."` value in `section` of the file, in order.
fn names(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &json[start..];
    let end = body.find(']').expect("a closed list");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("a closed string")].to_string())
        .collect()
}

#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let json = benchmark_json();
    // replan-delta stays runnable but is not gated: its time metrics
    // spread past the bounds with host drift (see README.md).
    let gated: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .filter(|&w| w != "replan-delta")
        .collect();
    assert_eq!(names(&json, "workloads"), gated);
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names(&json, "end_to_end"), e2e);
    let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names(&json, "per_layer"), layers);
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} is listed with unit {unit}"
        );
    }
}
