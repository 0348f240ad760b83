//! Exact-solver benchmarks: ESU enumeration vs branch-and-bound, and the
//! value of priming the incumbent — the machinery behind the Figure 9(a,b)
//! IP comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use waso_algos::{CbasNdConfig, SolveRequest, Solver, StagedEngine};
use waso_core::WasoInstance;
use waso_datasets::synthetic;
use waso_exact::enumerate::count_connected_k_subgraphs;
use waso_exact::BranchBound;

fn small_instance(n: usize, k: usize) -> Arc<WasoInstance> {
    let g = synthetic::dblp_like_n(n, 3);
    Arc::new(WasoInstance::new(g, k).unwrap())
}

fn bench_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_enumeration");
    group.sample_size(10);
    for (n, k) in [(25usize, 5usize), (40, 4)] {
        let inst = small_instance(n, k);
        group.bench_with_input(
            BenchmarkId::new("esu_count", format!("n{n}_k{k}")),
            &inst,
            |b, inst| {
                b.iter(|| black_box(count_connected_k_subgraphs(inst.graph(), inst.k())));
            },
        );
    }
    group.finish();
}

fn bench_branch_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("branch_bound");
    group.sample_size(10);
    for (n, k) in [(25usize, 6usize), (60, 5)] {
        let inst = small_instance(n, k);
        group.bench_with_input(
            BenchmarkId::new("cold", format!("n{n}_k{k}")),
            &inst,
            |b, inst| {
                b.iter(|| black_box(BranchBound::new().solve(inst, None)));
            },
        );
        // Primed with a CBAS-ND incumbent: measures how much heuristic
        // warm-starting prunes.
        let mut cfg = CbasNdConfig::with_budget(100);
        cfg.base.stages = Some(3);
        let incumbent = StagedEngine::from_cbasnd(&cfg)
            .solve(&SolveRequest::new(&inst, 1))
            .unwrap()
            .group;
        group.bench_with_input(
            BenchmarkId::new("primed", format!("n{n}_k{k}")),
            &inst,
            |b, inst| {
                b.iter(|| black_box(BranchBound::new().solve(inst, Some(&incumbent))));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_enumeration, bench_branch_bound);
criterion_main!(benches);
