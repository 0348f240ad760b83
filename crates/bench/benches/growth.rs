//! Sample-growth benchmarks: the cost of one CBAS (uniform) vs one CBAS-ND
//! (probability-weighted) sample — the paper's claim that neighbour
//! differentiation costs only a modest overhead over uniform selection
//! (§4.3 complexity discussion, Figure 5(e)).
//!
//! `weighted` draws with the initial vector (one explicit entry);
//! `weighted_trained` draws with a vector after a few cross-entropy stages,
//! whose many explicit entries are what a CBAS-ND solve samples with.
//!
//! `select_start_nodes` times CBAS phase 1 at n = 20 000: the first call
//! on a fresh graph, which builds the graph's start order, and a warm
//! call, which only walks it.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use waso_algos::cross_entropy::{update_vector, ProbabilityVector};
use waso_algos::sampler::{select_start_nodes, Sample, Sampler};
use waso_core::WasoInstance;
use waso_datasets::synthetic;
use waso_graph::NodeId;

/// Cross-entropy stages and samples per stage used to train a vector.
const TRAIN_STAGES: usize = 3;
const STAGE_SAMPLES: usize = 25;

/// `start`'s initial vector after [`TRAIN_STAGES`] stages of
/// [`update_vector`] (ρ = 0.3, smoothing 0.9) on its own weighted draws.
fn trained_vector(inst: &WasoInstance, start: NodeId) -> ProbabilityVector {
    let n = inst.graph().num_nodes();
    let mut vector = ProbabilityVector::uniform_for_start(n, inst.k(), start);
    let mut gamma = f64::NEG_INFINITY;
    let mut sampler = Sampler::new(n);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..TRAIN_STAGES {
        let mut stage: Vec<Sample> = (0..STAGE_SAMPLES)
            .filter_map(|_| sampler.sample_weighted(inst, start, &vector, &mut rng))
            .collect();
        update_vector(&mut vector, &mut gamma, &mut stage, 0.3, 0.9, None);
    }
    vector
}

fn bench_growth(c: &mut Criterion) {
    let g = synthetic::facebook_like_n(2000, 7);
    let n = g.num_nodes();
    let mut group = c.benchmark_group("sample_growth");

    for k in [10usize, 30, 60] {
        let inst = WasoInstance::new(g.clone(), k).unwrap();
        let start = select_start_nodes(inst.graph(), 1, None)[0];

        group.bench_with_input(BenchmarkId::new("uniform", k), &inst, |b, inst| {
            let mut sampler = Sampler::new(n);
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| black_box(sampler.sample_uniform(inst, start, &mut rng)));
        });

        let probs = ProbabilityVector::uniform_for_start(n, k, start);
        group.bench_with_input(BenchmarkId::new("weighted", k), &inst, |b, inst| {
            let mut sampler = Sampler::new(n);
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| black_box(sampler.sample_weighted(inst, start, &probs, &mut rng)));
        });

        let trained = trained_vector(&inst, start);
        group.bench_with_input(BenchmarkId::new("weighted_trained", k), &inst, |b, inst| {
            let mut sampler = Sampler::new(n);
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| black_box(sampler.sample_weighted(inst, start, &trained, &mut rng)));
        });
    }
    group.finish();
}

fn bench_unconstrained_growth(c: &mut Criterion) {
    // WASO-dis growth offers the whole node set as candidates — measure the
    // price of that frontier, which sets Figure 9(c)'s cost, uniform and
    // weighted.
    let g = synthetic::facebook_like_n(2000, 7);
    let inst = WasoInstance::without_connectivity(g.clone(), 20).unwrap();
    let start = select_start_nodes(&g, 1, None)[0];
    c.bench_function("sample_growth/unconstrained_k20", |b| {
        let mut sampler = Sampler::new(g.num_nodes());
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(sampler.sample_uniform(&inst, start, &mut rng)));
    });
    let trained = trained_vector(&inst, start);
    c.bench_function("sample_growth/unconstrained_weighted_k20", |b| {
        let mut sampler = Sampler::new(g.num_nodes());
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(sampler.sample_weighted(&inst, start, &trained, &mut rng)));
    });
}

fn bench_start_nodes(c: &mut Criterion) {
    // The perfbench graph and start-node count.
    let g = synthetic::facebook_like_n(20_000, 1);
    let m = 32;
    let mut group = c.benchmark_group("select_start_nodes");
    // Each iteration gets a clone whose order is not built yet; the
    // timing includes dropping that clone.
    group.bench_function("first_call_n20000", |b| {
        b.iter_batched(
            || g.clone(),
            |fresh| black_box(select_start_nodes(&fresh, m, None)),
            BatchSize::LargeInput,
        );
    });
    // Builds `g`'s order, so the calibration run below is warm too.
    select_start_nodes(&g, m, None);
    group.bench_function("warm_n20000", |b| {
        b.iter(|| black_box(select_start_nodes(&g, m, None)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_growth,
    bench_unconstrained_growth,
    bench_start_nodes
);
criterion_main!(benches);
