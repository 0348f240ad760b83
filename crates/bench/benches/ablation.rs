//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * neighbour differentiation on/off (CBAS-ND vs CBAS at equal budget) —
//!   quality deltas are in the figure harness; here we price the overhead;
//! * smoothing weight `w = 0` (the Theorem-6 "CBAS-ND degenerates to CBAS"
//!   identity) vs the paper's `w = 0.9`;
//! * backtracking on/off (§4.4.2);
//! * RGreedy's Δ-proportional selection vs the paper's literal
//!   `W(S ∪ {v})` weights (see `waso_algos::rgreedy` module docs).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use waso_algos::{
    CbasConfig, CbasNdConfig, Distribution, RGreedy, RGreedyConfig, SolveRequest, SolveResult,
    Solver, StagedEngine,
};
use waso_core::WasoInstance;
use waso_datasets::synthetic;

/// One seeded solve of `inst`.
fn solve(mut solver: impl Solver, inst: &Arc<WasoInstance>) -> SolveResult {
    solver.solve(&SolveRequest::new(inst, 1)).unwrap()
}

fn base_nd(budget: u64) -> CbasNdConfig {
    let mut cfg = CbasNdConfig::with_budget(budget);
    cfg.base.stages = Some(5);
    cfg.base.num_start_nodes = Some(8);
    cfg
}

fn bench_differentiation_overhead(c: &mut Criterion) {
    let g = synthetic::facebook_like_n(1000, 7);
    let inst = Arc::new(WasoInstance::new(g, 20).unwrap());
    let budget = 300;

    let mut group = c.benchmark_group("ablation_differentiation");
    group.sample_size(15);
    group.bench_function("cbas_uniform", |b| {
        let mut cfg = CbasConfig::with_budget(budget);
        cfg.stages = Some(5);
        cfg.num_start_nodes = Some(8);
        b.iter(|| {
            black_box(solve(
                StagedEngine::new(cfg.clone(), Distribution::Uniform),
                &inst,
            ))
        });
    });
    group.bench_function("cbas_nd_weighted", |b| {
        let cfg = base_nd(budget);
        b.iter(|| black_box(solve(StagedEngine::from_cbasnd(&cfg), &inst)));
    });
    group.finish();
}

fn bench_smoothing_extremes(c: &mut Criterion) {
    let g = synthetic::facebook_like_n(1000, 7);
    let inst = Arc::new(WasoInstance::new(g, 20).unwrap());

    let mut group = c.benchmark_group("ablation_smoothing");
    group.sample_size(15);
    for (name, w) in [("w0_degenerate_cbas", 0.0), ("w09_paper", 0.9)] {
        let mut cfg = base_nd(300);
        cfg.smoothing = w;
        group.bench_function(name, |b| {
            b.iter(|| black_box(solve(StagedEngine::from_cbasnd(&cfg), &inst)));
        });
    }
    group.finish();
}

fn bench_backtracking(c: &mut Criterion) {
    let g = synthetic::facebook_like_n(1000, 7);
    let inst = Arc::new(WasoInstance::new(g, 20).unwrap());

    let mut group = c.benchmark_group("ablation_backtracking");
    group.sample_size(15);
    group.bench_function("off", |b| {
        let cfg = base_nd(300);
        b.iter(|| black_box(solve(StagedEngine::from_cbasnd(&cfg), &inst)));
    });
    group.bench_function("on", |b| {
        let cfg = base_nd(300).with_backtracking(1e-4);
        b.iter(|| black_box(solve(StagedEngine::from_cbasnd(&cfg), &inst)));
    });
    group.finish();
}

fn bench_rgreedy_weighting(c: &mut Criterion) {
    let g = synthetic::facebook_like_n(1000, 7);
    let inst = Arc::new(WasoInstance::new(g, 20).unwrap());

    let mut group = c.benchmark_group("ablation_rgreedy_weights");
    group.sample_size(15);
    for (name, include_base) in [("delta_proportional", false), ("paper_literal", true)] {
        let mut cfg = RGreedyConfig::with_budget(100);
        cfg.num_start_nodes = Some(8);
        cfg.include_base_willingness = include_base;
        group.bench_function(name, |b| {
            b.iter(|| black_box(solve(RGreedy::new(cfg.clone()), &inst)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_differentiation_overhead,
    bench_smoothing_extremes,
    bench_backtracking,
    bench_rgreedy_weighting
);
criterion_main!(benches);
