//! `--figure decomp` — the scale-adaptive decomposition ladder.
//!
//! For each rung `n` of a planted-partition ladder (10^4 → 10^6 at paper
//! scale) this driver solves the same instance two ways at the **same
//! sampling budget**:
//!
//! * whole-graph CBAS-ND — the harness baseline spec;
//! * `decomp:inner=cbas-nd,communities=auto,top=4` — community-partitioned
//!   solves over induced subgraphs plus boundary repair.
//!
//! The committed records land in `BENCH_engine.json` next to the engine
//! throughput sweep; the decomposed rows are expected to win wall-time at
//! n ≥ 10^5 with mean quality within a few percent. Note the 1-core
//! measurement caveat: the win comes from *cheaper per-sample work* on
//! community-sized subgraphs (smaller frontiers, fewer start nodes, no
//! O(n) per-solve init per start), not from parallel hardware.

use std::sync::Arc;

use waso::SolverSpec;
use waso_core::WasoInstance;
use waso_datasets::{synthetic, Scale};

use crate::report::{BenchRecord, Cell, Table, TableSet};
use crate::runner::{measure_spec_avg, ExperimentContext};

use super::fig5::cbasnd_spec;

/// Group size of every ladder rung.
pub const LADDER_K: usize = 10;

/// The ladder's graph sizes per scale. Paper scale reaches the
/// million-node regime; smoke stays CI-cheap.
pub fn ladder_sizes(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Smoke => &[3_000],
        Scale::Small => &[10_000, 100_000],
        Scale::Paper => &[10_000, 100_000, 1_000_000],
    }
}

/// The decomposition spec under test, at an explicit budget.
pub fn decomp_spec(budget: u64) -> SolverSpec {
    SolverSpec::new("decomp")
        .budget(budget)
        .stages(super::fig5::STAGES)
        .inner("cbas-nd")
        .communities(0)
        .top(4)
}

/// Measures the ladder: two records (whole-graph, decomposed) per rung.
pub fn ladder_records(ctx: &ExperimentContext) -> Vec<BenchRecord> {
    let registry = waso::registry();
    // The ladder runs in the sampling-dominated regime: the decomposition
    // pays a one-time O(rounds · m) label-propagation cost (~0.25 s at
    // n = 10^5) that a small budget would never amortise, while its
    // per-sample work on community-sized subgraphs is ~1.6x cheaper than
    // whole-graph sampling. 80x the harness budget puts the crossover
    // comfortably behind us at every rung.
    let budget = ctx.budget() * 80;
    let mut records = Vec::new();
    for &n in ladder_sizes(ctx.scale) {
        let graph = synthetic::planted_partition_like_n(n, ctx.seed);
        let inst = Arc::new(WasoInstance::new(graph, LADDER_K).expect("ladder rungs have n >= k"));
        let workload = format!("planted-partition/n={n}/k={LADDER_K}");
        let specs = [
            cbasnd_spec(budget, Some(ctx.harness_m(n))),
            decomp_spec(budget),
        ];
        for spec in specs {
            let meas = measure_spec_avg(&registry, &spec, &inst, ctx.seed, ctx.repeats);
            records.push(BenchRecord {
                workload: workload.clone(),
                solver: spec.to_string(),
                threads: 0,
                mean_quality: meas.quality,
                wall_seconds: meas.seconds,
                samples_per_sec: meas.samples_per_sec,
            });
        }
    }
    records
}

/// Renders the ladder as one table: paired rows per rung with the
/// decomposed speedup and quality ratio spelled out.
pub fn ladder_table(records: &[BenchRecord]) -> Table {
    let mut t = Table::new(
        "decomp-ladder",
        "decomposed vs whole-graph solves at equal budget",
        &[
            "workload",
            "solver",
            "wall s",
            "mean quality",
            "speedup vs whole",
            "quality vs whole",
        ],
    );
    for pair in records.chunks(2) {
        let whole = &pair[0];
        for (idx, r) in pair.iter().enumerate() {
            let (speedup, quality_ratio) = if idx == 0 {
                (Cell::from(1.0), Cell::from(1.0))
            } else {
                (
                    if r.wall_seconds > 0.0 {
                        Cell::from(whole.wall_seconds / r.wall_seconds)
                    } else {
                        Cell::Missing
                    },
                    match (r.mean_quality, whole.mean_quality) {
                        (Some(d), Some(w)) if w != 0.0 => Cell::from(d / w),
                        _ => Cell::Missing,
                    },
                )
            };
            t.push_row(vec![
                Cell::from(r.workload.as_str()),
                Cell::from(r.solver.as_str()),
                Cell::from(r.wall_seconds),
                r.mean_quality.map(Cell::from).unwrap_or(Cell::Missing),
                speedup,
                quality_ratio,
            ]);
        }
    }
    t
}

/// Measures once, returning tables and the machine-readable records — the
/// `waso-experiments` path, which folds the records into
/// `BENCH_engine.json`.
pub fn ladder_collect(ctx: &ExperimentContext) -> (TableSet, Vec<BenchRecord>) {
    let records = ladder_records(ctx);
    let mut set = TableSet::new();
    set.push(ladder_table(&records));
    (set, records)
}

/// Tables-only entry point (the [`super::run_figure`] route).
pub fn ladder(ctx: &ExperimentContext) -> TableSet {
    ladder_collect(ctx).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_pairs_whole_and_decomposed_per_rung() {
        let mut ctx = ExperimentContext::new(Scale::Smoke);
        ctx.repeats = 1;
        let records = ladder_records(&ctx);
        assert_eq!(records.len(), 2 * ladder_sizes(Scale::Smoke).len());
        for pair in records.chunks(2) {
            assert_eq!(pair[0].workload, pair[1].workload);
            assert!(pair[0].solver.starts_with("cbas-nd:"), "{}", pair[0].solver);
            assert!(pair[1].solver.starts_with("decomp:"), "{}", pair[1].solver);
            for r in pair {
                assert!(r.samples_per_sec > 0.0, "{}: no throughput", r.solver);
                assert!(r.mean_quality.is_some(), "{}: infeasible", r.solver);
            }
        }
        let table = ladder_table(&records);
        assert_eq!(table.rows.len(), records.len());
    }

    #[test]
    fn ladder_scales_reach_the_million_node_regime() {
        assert!(ladder_sizes(Scale::Paper).contains(&1_000_000));
        assert!(ladder_sizes(Scale::Small).contains(&100_000));
    }
}
