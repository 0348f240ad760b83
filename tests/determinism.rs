//! Reproducibility guarantees: everything in the pipeline is a pure
//! function of its seed — datasets, solvers, the parallel driver, and the
//! user-study simulation.

use std::sync::Arc;

use waso::prelude::*;
use waso_datasets::synthetic::{self, Scale};
use waso_datasets::userstudy;

#[test]
fn datasets_are_pure_functions_of_their_seed() {
    for seed in [0u64, 1, 99] {
        assert_eq!(
            synthetic::facebook_like(Scale::Smoke, seed),
            synthetic::facebook_like(Scale::Smoke, seed)
        );
        assert_eq!(
            synthetic::dblp_like(Scale::Smoke, seed),
            synthetic::dblp_like(Scale::Smoke, seed)
        );
        assert_eq!(
            synthetic::flickr_like(Scale::Smoke, seed),
            synthetic::flickr_like(Scale::Smoke, seed)
        );
    }
    assert_ne!(
        synthetic::facebook_like(Scale::Smoke, 1),
        synthetic::facebook_like(Scale::Smoke, 2),
        "different seeds must differ"
    );
}

#[test]
fn all_solvers_are_deterministic_given_a_seed() {
    let graph = synthetic::facebook_like(Scale::Smoke, 3);
    let inst = Arc::new(WasoInstance::new(graph, 7).unwrap());

    let run = |seed: u64| -> Vec<(String, f64)> {
        let mut out = Vec::new();
        let mut cbas_cfg = CbasConfig::with_budget(90);
        cbas_cfg.stages = Some(3);
        cbas_cfg.num_start_nodes = Some(6);
        let mut nd_cfg = CbasNdConfig::with_budget(90);
        nd_cfg.base = cbas_cfg.clone();
        let mut solvers: Vec<Box<dyn Solver>> = vec![
            Box::new(DGreedy::new()),
            Box::new(RGreedy::new(RGreedyConfig::with_budget(40))),
            Box::new(StagedEngine::new(cbas_cfg, Distribution::Uniform)),
            Box::new(StagedEngine::from_cbasnd(&nd_cfg)),
            Box::new(StagedEngine::from_cbasnd(&nd_cfg.clone().gaussian())),
        ];
        for s in solvers.iter_mut() {
            let r = s.solve(&SolveRequest::new(&inst, seed)).unwrap();
            out.push((s.name().to_string(), r.group.willingness()));
        }
        out
    };

    assert_eq!(run(5), run(5));
    // And seeds matter for the randomized ones (statistically: at least one
    // solver changes its answer between two seeds on this instance).
    let a = run(5);
    let b = run(6);
    assert!(
        a.iter().zip(&b).any(|((_, x), (_, y))| x != y),
        "different seeds should explore differently"
    );
}

#[test]
fn parallel_driver_is_thread_count_invariant() {
    let graph = synthetic::dblp_like(Scale::Smoke, 4);
    let inst = Arc::new(WasoInstance::new(graph, 6).unwrap());
    let mut cfg = CbasNdConfig::with_budget(120);
    cfg.base.stages = Some(4);
    cfg.base.num_start_nodes = Some(8);

    let req = SolveRequest::new(&inst, 9);
    let serial = StagedEngine::from_cbasnd(&cfg).solve(&req).unwrap();
    for threads in [1usize, 2, 4, 8] {
        cfg.base.threads = Some(threads);
        let par = StagedEngine::from_cbasnd(&cfg).solve(&req).unwrap();
        assert_eq!(
            par.group, serial.group,
            "{threads} threads diverged from serial"
        );
    }
}

#[test]
fn user_study_simulation_is_reproducible() {
    let p1 = userstudy::study_problem(20, 7, 42);
    let p2 = userstudy::study_problem(20, 7, 42);
    assert_eq!(p1.instance.graph(), p2.instance.graph());
    assert_eq!(p1.lambda, p2.lambda);

    let planner = userstudy::ManualPlanner::new();
    let a = planner.plan(&p1.instance, None, 7);
    let b = planner.plan(&p2.instance, None, 7);
    assert_eq!(a.group.unwrap().nodes(), b.group.unwrap().nodes());
    assert_eq!(a.evaluations, b.evaluations);
}

#[test]
fn online_planner_replays_identically() {
    let graph = synthetic::facebook_like(Scale::Smoke, 6);
    let inst = WasoInstance::new(graph, 6).unwrap();
    let mut cfg = CbasNdConfig::with_budget(80);
    cfg.base.stages = Some(3);

    let run = || {
        let mut planner = OnlinePlanner::new(inst.clone(), cfg.clone(), 3).unwrap();
        let victim = planner.current().nodes()[0];
        planner.decline(&[victim]).unwrap();
        planner.current().clone()
    };
    assert_eq!(run(), run());
}
