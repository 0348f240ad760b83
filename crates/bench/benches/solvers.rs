//! End-to-end solver benchmarks — the Criterion counterpart of the
//! Figure 5(a) time series at a laptop-friendly size (the full sweep lives
//! in `waso-experiments --figure 5ab`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use waso_algos::{
    CbasConfig, CbasNdConfig, DGreedy, Distribution, RGreedy, RGreedyConfig, SolveRequest,
    SolveResult, Solver, StagedEngine,
};
use waso_core::WasoInstance;
use waso_datasets::synthetic;

/// One seeded solve of `inst`.
fn solve(mut solver: impl Solver, inst: &Arc<WasoInstance>) -> SolveResult {
    solver.solve(&SolveRequest::new(inst, 1)).unwrap()
}

fn configs(budget: u64) -> (CbasConfig, CbasNdConfig) {
    let mut cb = CbasConfig::with_budget(budget);
    cb.stages = Some(5);
    cb.num_start_nodes = Some(8);
    let mut nd = CbasNdConfig::with_budget(budget);
    nd.base = cb.clone();
    (cb, nd)
}

fn bench_solvers(c: &mut Criterion) {
    let g = synthetic::facebook_like_n(1000, 7);
    let k = 15;
    let inst = Arc::new(WasoInstance::new(g, k).unwrap());
    let budget = 300;
    let (cb_cfg, nd_cfg) = configs(budget);

    let mut group = c.benchmark_group("solver_end_to_end");
    group.sample_size(20);

    group.bench_function("dgreedy", |b| {
        b.iter(|| black_box(solve(DGreedy::new(), &inst)));
    });
    group.bench_function("cbas", |b| {
        b.iter(|| {
            black_box(solve(
                StagedEngine::new(cb_cfg.clone(), Distribution::Uniform),
                &inst,
            ))
        });
    });
    group.bench_function("cbas_nd", |b| {
        b.iter(|| black_box(solve(StagedEngine::from_cbasnd(&nd_cfg), &inst)));
    });
    group.bench_function("cbas_nd_gaussian", |b| {
        b.iter(|| {
            black_box(solve(
                StagedEngine::from_cbasnd(&nd_cfg.clone().gaussian()),
                &inst,
            ))
        });
    });
    group.bench_function("rgreedy", |b| {
        let mut cfg = RGreedyConfig::with_budget(budget);
        cfg.num_start_nodes = Some(8);
        b.iter(|| black_box(solve(RGreedy::new(cfg.clone()), &inst)));
    });
    group.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let g = synthetic::facebook_like_n(1000, 7);
    let inst = Arc::new(WasoInstance::new(g, 15).unwrap());
    let (_, nd_cfg) = configs(1200);

    let mut group = c.benchmark_group("parallel_cbas_nd");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let mut cfg = nd_cfg.clone();
        cfg.base.threads = Some(threads);
        group.bench_function(BenchmarkId::from_parameter(threads), |b| {
            b.iter(|| black_box(solve(StagedEngine::from_cbasnd(&cfg), &inst)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_parallel);
criterion_main!(benches);
