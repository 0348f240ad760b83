//! Failure injection: a pool worker that panics mid-stage must be
//! invisible in results. The worker catches the panic, rebuilds the job's
//! sampler, re-draws the chunk in place, and keeps serving — no
//! poisoning, no hangs, no result drift. These tests
//! drive that end-to-end through the public session API (the exec-level
//! choreography is unit-tested in `waso-algos`).
//!
//! Worker panics unwind noisily; the panic messages on stderr are
//! expected output of this suite.

use std::sync::Arc;

use waso::algos::{SharedPool, SolverSpec};
use waso::prelude::*;
use waso_datasets::synthetic;

fn spec() -> SolverSpec {
    SolverSpec::cbas_nd().budget(60).stages(4).threads(3)
}

fn baseline(graph: &SocialGraph) -> SolveResult {
    WasoSession::new(graph.clone())
        .k(5)
        .seed(7)
        .solve(&spec())
        .unwrap()
}

#[test]
fn worker_panic_mid_stage_is_invisible_and_heals_the_pool() {
    let graph = synthetic::facebook_like_n(80, 3);
    let healthy = baseline(&graph);

    let pool = Arc::new(SharedPool::new(3));
    let session = WasoSession::new(graph.clone())
        .k(5)
        .seed(7)
        .attach_pool(Arc::clone(&pool));

    // Worker 1 panics on the first chunk of stage 2 — mid-solve, with
    // that chunk's samples half drawn.
    pool.inject_worker_panic(1, 2);
    let wounded = session.solve(&spec()).unwrap();
    assert_eq!(wounded.group, healthy.group, "panic changed the answer");
    assert_eq!(wounded.stats.samples_drawn, healthy.stats.samples_drawn);
    assert_eq!(wounded.stats.backtracks, healthy.stats.backtracks);
    assert_eq!(pool.redrawn_chunks(), 1, "the panicked chunk was re-drawn");

    // The *next* solve on the same session succeeds on the same pool.
    // A repeat of the identical spec would be a memo hit (bit-identical,
    // but no pool traffic), so nudge the budget to force a real run.
    let next_spec = spec().budget(61);
    let next = session.solve(&next_spec).unwrap();
    let next_healthy = WasoSession::new(graph.clone())
        .k(5)
        .seed(7)
        .solve(&next_spec)
        .unwrap();
    assert_eq!(next.group, next_healthy.group);
    assert_eq!(pool.redrawn_chunks(), 1, "one panic, one re-draw");
}

#[test]
fn every_worker_slot_recovers_at_every_stage() {
    let graph = synthetic::facebook_like_n(60, 3);
    let healthy = baseline(&graph);
    for slot in 0..3 {
        for stage in [0u64, 3] {
            let pool = Arc::new(SharedPool::new(3));
            let session = WasoSession::new(graph.clone())
                .k(5)
                .seed(7)
                .attach_pool(Arc::clone(&pool));
            pool.inject_worker_panic(slot, stage);
            let wounded = session.solve(&spec()).unwrap();
            assert_eq!(
                wounded.group, healthy.group,
                "slot={slot} stage={stage} changed the answer"
            );
            assert_eq!(pool.redrawn_chunks(), 1, "slot={slot} stage={stage}");
        }
    }
}

#[test]
fn worker_panic_during_a_concurrent_batch_leaves_every_job_identical() {
    let graph = synthetic::facebook_like_n(70, 3);
    let specs = vec![
        SolverSpec::cbas_nd().budget(60).stages(4).threads(2),
        SolverSpec::cbas().budget(60).stages(3).threads(4),
        SolverSpec::cbas_nd().budget(40).stages(4).threads(1),
        SolverSpec::dgreedy(),
    ];
    let alone: Vec<_> = specs
        .iter()
        .map(|s| {
            WasoSession::new(graph.clone())
                .k(4)
                .seed(3)
                .solve(s)
                .unwrap()
        })
        .collect();

    let pool = Arc::new(SharedPool::new(2));
    let session = WasoSession::new(graph.clone())
        .k(4)
        .seed(3)
        .attach_pool(Arc::clone(&pool));
    // Whichever job's chunk reaches worker 0 at its stage 1 first takes
    // the hit; every job must come out unchanged regardless.
    pool.inject_worker_panic(0, 1);
    let batch = session.solve_batch(&specs).unwrap();
    for ((spec, a), b) in specs.iter().zip(&alone).zip(&batch) {
        let b = b.as_ref().unwrap();
        assert_eq!(b.group, a.group, "{spec}");
        assert_eq!(b.stats.samples_drawn, a.stats.samples_drawn, "{spec}");
    }
    assert_eq!(pool.redrawn_chunks(), 1);
}

#[test]
fn session_drop_mid_batch_after_job_errors_neither_hangs_nor_leaks() {
    // The detach/drop regression: a batch whose jobs partly fail, then
    // the session is dropped while the pool is still warm. Teardown must
    // not depend on channel-drop ordering — the pool drop joins every
    // worker, so a wedged worker would hang this test (and trip the
    // suite's timeout) rather than leak.
    let graph = synthetic::facebook_like_n(50, 3);
    let pool = Arc::new(SharedPool::new(2));
    {
        let session = WasoSession::new(graph.clone())
            .k(4)
            .seed(1)
            .attach_pool(Arc::clone(&pool));
        let outcomes = session
            .solve_many([
                "cbas-nd:budget=40,stages=2,threads=2",
                "no-such-solver",
                "cbas:budget=40,rho=1", // unsupported option → job error
                "cbas-nd:budget=40,stages=2,threads=4",
            ])
            .unwrap();
        assert!(outcomes[0].is_ok());
        assert!(outcomes[1].is_err());
        assert!(outcomes[2].is_err());
        assert!(outcomes[3].is_ok());
        // Session dropped here with the pool mid-life.
    }
    assert_eq!(Arc::strong_count(&pool), 1, "the session released the pool");
    // An injected panic *after* the tenants detached must not wedge the
    // final teardown either: arm a failpoint that never fires.
    pool.inject_worker_panic(0, 99);
    drop(pool); // joins both workers; hanging here fails the test
}

#[test]
fn repeated_injections_keep_healing() {
    let graph = synthetic::facebook_like_n(60, 3);
    let pool = Arc::new(SharedPool::new(3));
    let session = WasoSession::new(graph.clone())
        .k(5)
        .seed(7)
        .attach_pool(Arc::clone(&pool));
    for round in 1..=3u64 {
        // Distinct budgets per round: a repeat of an identical spec is a
        // memo hit that never reaches the pool, and this test is about
        // the pool re-drawing under repeated injections.
        let round_spec = spec().budget(50 + 10 * round);
        let healthy = WasoSession::new(graph.clone())
            .k(5)
            .seed(7)
            .solve(&round_spec)
            .unwrap();
        pool.inject_worker_panic((round as usize) % 3, round % 4);
        let wounded = session.solve(&round_spec).unwrap();
        assert_eq!(wounded.group, healthy.group, "round {round}");
        assert_eq!(pool.redrawn_chunks(), round, "round {round}");
    }
}
