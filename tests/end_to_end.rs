//! End-to-end pipeline tests: dataset generation → every solver →
//! validation → cross-solver sanity.
//!
//! The solver roster is *derived from the registry*: every registered
//! heuristic is exercised, so a newly registered solver is covered here
//! with zero test changes.

use std::sync::Arc;

use waso::prelude::*;
use waso_datasets::synthetic::{self, Scale};

/// A connected-group instance over `graph`, shared for solve requests.
fn instance(graph: SocialGraph, k: usize) -> Arc<WasoInstance> {
    Arc::new(WasoInstance::new(graph, k).expect("k fits the graph"))
}

/// Solves `inst` with CBAS-ND over `cfg`.
fn cbas_nd(cfg: &CbasNdConfig, inst: &Arc<WasoInstance>, seed: u64) -> SolveResult {
    StagedEngine::from_cbasnd(cfg)
        .solve(&SolveRequest::new(inst, seed))
        .unwrap()
}

/// Every registered sampling/greedy solver at end-to-end test settings
/// (the exact solver is exercised separately — it cannot run on the
/// larger smoke graphs).
fn solvers(budget: u64) -> Vec<Box<dyn Solver + Send>> {
    let registry = waso::registry();
    registry
        .entries()
        .iter()
        .filter(|e| !e.capabilities.exact)
        .map(|entry| {
            let mut spec = SolverSpec::new(entry.name);
            if entry.options.contains(&"budget") {
                // Costly solvers (per-candidate pricing) get a small budget,
                // like the paper's aborted-RGreedy practice.
                spec = spec.budget(if entry.costly {
                    budget.min(100)
                } else {
                    budget
                });
            }
            if entry.options.contains(&"stages") {
                spec = spec.stages(4);
            }
            if entry.options.contains(&"start-nodes") {
                spec = spec.start_nodes(8);
            }
            registry
                .build(&spec)
                .unwrap_or_else(|e| panic!("spec for {} unusable: {e}", entry.name))
        })
        .collect()
}

#[test]
fn every_solver_produces_valid_groups_on_every_dataset() {
    let datasets = [
        ("facebook", synthetic::facebook_like(Scale::Smoke, 1)),
        ("dblp", synthetic::dblp_like(Scale::Smoke, 1)),
        ("flickr", synthetic::flickr_like(Scale::Smoke, 1)),
    ];
    for (name, graph) in datasets {
        let inst = instance(graph, 8);
        for solver in solvers(120).iter_mut() {
            let res = solver
                .solve(&SolveRequest::new(&inst, 7))
                .unwrap_or_else(|e| panic!("{} failed on {name}: {e}", solver.name()));
            // Group::new re-validates size, distinctness and connectivity.
            res.group
                .validate(&inst)
                .unwrap_or_else(|e| panic!("{} invalid on {name}: {e}", solver.name()));
            assert!(res.group.willingness().is_finite());
            assert!(res.stats.elapsed.as_nanos() > 0);
        }
    }
}

#[test]
fn randomized_solvers_never_beat_the_exact_optimum() {
    let graph = synthetic::dblp_like_n(80, 3);
    let inst = instance(graph, 5);
    let exact = waso::registry()
        .build(&SolverSpec::exact())
        .unwrap()
        .solve(&SolveRequest::new(&inst, 0))
        .expect("feasible");
    for solver in solvers(150).iter_mut() {
        let res = solver.solve(&SolveRequest::new(&inst, 3)).unwrap();
        assert!(
            res.group.willingness() <= exact.group.willingness() + 1e-9,
            "{} exceeded the optimum: {} > {}",
            solver.name(),
            res.group.willingness(),
            exact.group.willingness()
        );
    }
}

#[test]
fn budgets_are_respected_exactly() {
    let graph = synthetic::facebook_like(Scale::Smoke, 5);
    let inst = instance(graph, 6);
    for budget in [40u64, 100, 250] {
        let mut cfg = CbasNdConfig::with_budget(budget);
        cfg.base.stages = Some(5);
        cfg.base.num_start_nodes = Some(5);
        let res = cbas_nd(&cfg, &inst, 2);
        assert_eq!(res.stats.samples_drawn, budget, "budget {budget}");
    }
}

#[test]
fn quality_improves_with_budget_on_average() {
    let graph = synthetic::facebook_like(Scale::Smoke, 9);
    let inst = instance(graph, 10);
    let quality_at = |budget: u64| -> f64 {
        let mut total = 0.0;
        for seed in 0..5 {
            let mut cfg = CbasNdConfig::with_budget(budget);
            cfg.base.stages = Some(5);
            cfg.base.num_start_nodes = Some(8);
            total += cbas_nd(&cfg, &inst, seed).group.willingness();
        }
        total / 5.0
    };
    let small = quality_at(50);
    let large = quality_at(800);
    assert!(
        large >= small,
        "more budget should not hurt: T=50 → {small:.2}, T=800 → {large:.2}"
    );
}

#[test]
fn graph_io_roundtrips_through_the_full_pipeline() {
    // Generate → serialize → parse → solve: byte-identical behaviour.
    let graph = synthetic::flickr_like(Scale::Smoke, 4);
    let text = waso::graph::io::to_string(&graph);
    let parsed = waso::graph::io::from_str(&text).expect("roundtrip parse");
    assert_eq!(graph, parsed);

    let a = cbas_nd(&CbasNdConfig::fast(), &instance(graph, 6), 11);
    let b = cbas_nd(&CbasNdConfig::fast(), &instance(parsed, 6), 11);
    assert_eq!(a.group, b.group);
}
