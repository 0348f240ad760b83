//! The job-handle (anytime serving) surface: submit/poll/cancel,
//! deadlines, patience, incumbent streaming — and every cancellation
//! edge case a serving deployment hits.

use std::sync::Arc;

use waso::prelude::*;
use waso_graph::NodeId;

fn graph(n: usize) -> SocialGraph {
    waso_datasets::synthetic::facebook_like_n(n, 3)
}

/// A solve long enough that control actions land mid-run: many cheap
/// stages, so stage boundaries (where cancels/deadlines take effect) come
/// around every few hundred microseconds.
fn long_spec() -> SolverSpec {
    SolverSpec::cbas_nd().budget(60_000).stages(100)
}

fn quick_spec() -> SolverSpec {
    SolverSpec::cbas_nd().budget(60).stages(3)
}

#[test]
fn submit_wait_matches_blocking_solve_exactly() {
    let g = graph(80);
    let spec = SolverSpec::cbas_nd().budget(80).stages(4).threads(2);
    let blocking = WasoSession::new(g.clone())
        .k(5)
        .seed(3)
        .solve(&spec)
        .unwrap();
    let session = WasoSession::new(g).k(5).seed(3);
    let handle = session.submit(&spec).unwrap();
    let handled = handle.wait().unwrap();
    assert_eq!(handled.group, blocking.group);
    assert_eq!(handled.stats.samples_drawn, blocking.stats.samples_drawn);
    assert_eq!(handled.stats.termination, Termination::Completed);
    assert!(!handled.stats.truncated);
}

#[test]
fn try_result_polls_and_composes_with_wait() {
    let session = WasoSession::new(graph(80)).k(5).seed(1);
    let mut handle = session.submit(&long_spec()).unwrap();
    // Poll a few times; whether we catch it mid-run or finished, the
    // eventual result must be there and repeatable.
    let early = handle.try_result();
    let waited = handle.wait().unwrap();
    if let Some(early) = early {
        assert_eq!(early.unwrap().group, waited.group);
    }
    assert_eq!(waited.stats.samples_drawn, 60_000);
}

#[test]
fn progress_and_incumbents_stream_while_solving() {
    let session = WasoSession::new(graph(80)).k(5).seed(2);
    let handle = session.submit(&long_spec()).unwrap();
    // The incumbent stream is strictly improving and ends at the answer.
    let incumbents: Vec<Incumbent> = handle.incumbents().collect();
    assert!(!incumbents.is_empty());
    for pair in incumbents.windows(2) {
        assert!(pair[1].willingness > pair[0].willingness);
    }
    let progress = handle.progress();
    assert!(progress.finished);
    assert_eq!(progress.stages_done, 100);
    let result = handle.wait().unwrap();
    let last = incumbents.last().unwrap();
    assert!((last.willingness - result.group.willingness()).abs() < 1e-9);
    let mut nodes = last.nodes.clone();
    nodes.sort_unstable();
    assert_eq!(nodes.as_slice(), result.group.nodes());
}

#[test]
fn cancel_before_the_first_stage_reports_no_incumbent() {
    // A width-1 batch serializes the two jobs: the second is cancelled
    // while still queued behind the first, so its cancel deterministically
    // precedes its first stage.
    let session = WasoSession::new(graph(80)).k(5).seed(4).batch_width(1);
    let mut handles = session.submit_batch(&[long_spec(), quick_spec()]).unwrap();
    let queued = handles.pop().unwrap();
    queued.cancel();
    let first = handles.pop().unwrap();
    assert_eq!(
        queued.wait().unwrap_err(),
        SessionError::Solve(SolveError::NoIncumbent {
            reason: Termination::Cancelled
        })
    );
    // The job ahead of it is untouched.
    let ok = first.wait().unwrap();
    assert_eq!(ok.stats.samples_drawn, 60_000);
    assert_eq!(ok.stats.termination, Termination::Completed);
}

#[test]
fn cancel_mid_solve_returns_the_best_so_far_and_stops_sampling() {
    let session = WasoSession::new(graph(80)).k(5).seed(5);
    let handle = session.submit(&long_spec()).unwrap();
    // Wait for the first incumbent, then cancel: the result is a valid
    // feasible group, tagged Cancelled, with the budget provably unspent.
    let first = handle.incumbents().next().expect("an incumbent arrives");
    handle.cancel();
    let result = handle.wait().unwrap();
    assert_eq!(result.stats.termination, Termination::Cancelled);
    assert!(result.stats.truncated);
    assert!(
        result.stats.samples_drawn < 60_000,
        "cancel() must observably stop sampling (drew {})",
        result.stats.samples_drawn
    );
    assert!(result.group.willingness() >= first.willingness);
    let instance = session.instance().unwrap();
    result
        .group
        .validate(&instance)
        .expect("feasible incumbent");
}

#[test]
fn cancel_mid_batch_leaves_the_other_jobs_untouched() {
    let g = graph(80);
    let specs = vec![quick_spec(), long_spec(), quick_spec().threads(2)];
    // Per-spec baselines from fresh sessions.
    let baselines: Vec<_> = specs
        .iter()
        .map(|s| WasoSession::new(g.clone()).k(5).seed(6).solve(s).unwrap())
        .collect();
    let session = WasoSession::new(g).k(5).seed(6);
    let mut handles = session.submit_batch(&specs).unwrap();
    // Cancel the long middle job; its neighbours must come back
    // bit-identical to their solo baselines.
    handles[1].cancel();
    let last = handles.pop().unwrap().wait().unwrap();
    let middle = handles.pop().unwrap().wait();
    let first = handles.pop().unwrap().wait().unwrap();
    assert_eq!(first.group, baselines[0].group);
    assert_eq!(first.stats.samples_drawn, baselines[0].stats.samples_drawn);
    assert_eq!(last.group, baselines[2].group);
    assert_eq!(last.stats.samples_drawn, baselines[2].stats.samples_drawn);
    match middle {
        Ok(res) => {
            assert_eq!(res.stats.termination, Termination::Cancelled);
            assert!(res.stats.samples_drawn < 60_000);
        }
        Err(SessionError::Solve(SolveError::NoIncumbent {
            reason: Termination::Cancelled,
        })) => {} // cancelled before its first stage completed
        other => panic!("unexpected middle outcome: {other:?}"),
    }
}

#[test]
fn deadline_of_zero_returns_the_typed_error_not_infeasibility() {
    let session = WasoSession::new(graph(80)).k(5).seed(7);
    for spec in [
        quick_spec().deadline_ms(0),
        quick_spec().threads(2).deadline_ms(0),
    ] {
        let err = session.solve(&spec).unwrap_err();
        assert_eq!(
            err,
            SessionError::Solve(SolveError::NoIncumbent {
                reason: Termination::Deadline
            }),
            "{spec}"
        );
    }
    // The same session still solves normally afterwards.
    assert!(session.solve(&quick_spec()).is_ok());
}

#[test]
fn short_deadline_returns_a_feasible_incumbent_tagged_deadline() {
    let session = WasoSession::new(graph(120)).k(6).seed(8);
    // A deadline that trips mid-run: enough for some stages of a huge
    // budget, nowhere near all of them. Deadlines are checked per
    // *chunk*, so on a loaded box a short one can legally stop the
    // solve before its first stage completes — that's the typed
    // NoIncumbent, pinned elsewhere; here we escalate until the solve
    // gets far enough to have an incumbent when the deadline lands.
    let mut deadline_ms = 50;
    let result = loop {
        let spec = SolverSpec::cbas_nd()
            .budget(5_000_000)
            .stages(2000)
            .deadline_ms(deadline_ms);
        match session.solve(&spec) {
            Ok(result) => break result,
            Err(SessionError::Solve(SolveError::NoIncumbent {
                reason: Termination::Deadline,
            })) if deadline_ms < 1_000 => deadline_ms *= 2,
            Err(e) => panic!("unexpected solve error: {e}"),
        }
    };
    assert_eq!(result.stats.termination, Termination::Deadline);
    assert!(result.stats.truncated);
    assert!(result.stats.samples_drawn < 5_000_000);
    let instance = session.instance().unwrap();
    result
        .group
        .validate(&instance)
        .expect("feasible incumbent");
}

#[test]
fn patience_stops_a_converged_solve_early() {
    // A tiny graph converges immediately; patience cuts the tail off.
    let session = WasoSession::new(graph(30)).k(3).seed(9);
    let spec = SolverSpec::cbas_nd().budget(20_000).stages(100).patience(3);
    let res = session.solve(&spec).unwrap();
    assert_eq!(res.stats.termination, Termination::Completed);
    assert!(res.stats.truncated, "patience stop is a truncation");
    assert!(res.stats.stages < 100);
    assert!(res.stats.samples_drawn < 20_000);
    // Same answer as the full run (nothing was improving).
    let full = session
        .solve(&SolverSpec::cbas_nd().budget(20_000).stages(100))
        .unwrap();
    assert_eq!(res.group, full.group);
}

#[test]
fn dropping_a_handle_cancels_its_job_and_the_pool_stays_usable() {
    let pool = Arc::new(SharedPool::new(2));
    let g = graph(80);
    let session = WasoSession::new(g.clone())
        .k(5)
        .seed(10)
        .attach_pool(Arc::clone(&pool));
    {
        let handle = session.submit(&long_spec().threads(2)).unwrap();
        let _ = handle.progress();
        // Dropped without waiting: the job is cancelled and its thread
        // winds down on its own — no join, no leak, no poisoned pool.
    }
    // The pool keeps serving this session (and matches a fresh one).
    let spec = quick_spec().threads(2);
    let served = session.solve(&spec).unwrap();
    let fresh = WasoSession::new(g).k(5).seed(10).solve(&spec).unwrap();
    assert_eq!(served.group, fresh.group);
    assert_eq!(pool.respawned_workers(), 0);
}

#[test]
fn cancel_races_a_worker_respawn_without_wedging_the_pool() {
    // Arm a worker panic, submit a pooled job, cancel it mid-heal: the
    // pool must respawn the worker, never hang, and serve the next solve
    // bit-identically.
    let g = graph(80);
    let spec = long_spec().threads(2);
    for slot in 0..2 {
        let pool = Arc::new(SharedPool::new(2));
        let session = WasoSession::new(g.clone())
            .k(5)
            .seed(11)
            .attach_pool(Arc::clone(&pool));
        pool.inject_worker_panic(slot, 1);
        let handle = session.submit(&spec).unwrap();
        // Let the solve reach (and heal through) the armed stage, then
        // cancel while the respawn dust may still be settling.
        let _ = handle.incumbents().take(2).count();
        handle.cancel();
        match handle.wait() {
            Ok(res) => assert!(res.stats.samples_drawn <= 60_000),
            Err(SessionError::Solve(SolveError::NoIncumbent { .. })) => {}
            Err(other) => panic!("slot {slot}: unexpected error {other}"),
        }
        // The healed pool serves the next (fresh-session-identical) solve.
        let after = session.solve(&quick_spec().threads(2)).unwrap();
        let fresh = WasoSession::new(g.clone())
            .k(5)
            .seed(11)
            .solve(&quick_spec().threads(2))
            .unwrap();
        assert_eq!(after.group, fresh.group, "slot={slot}");
        assert_eq!(pool.respawned_workers(), 1, "slot={slot}");
    }
}

#[test]
fn batch_width_is_configurable_and_invisible_in_results() {
    let g = graph(60);
    let specs = vec![
        quick_spec(),
        quick_spec().threads(2),
        SolverSpec::dgreedy(),
        quick_spec().require([NodeId(0)]),
    ];
    let baseline = WasoSession::new(g.clone())
        .k(4)
        .seed(12)
        .solve_batch(&specs)
        .unwrap();
    for width in [1usize, 2, 8] {
        let batch = WasoSession::new(g.clone())
            .k(4)
            .seed(12)
            .batch_width(width)
            .solve_batch(&specs)
            .unwrap();
        for ((spec, a), b) in specs.iter().zip(&baseline).zip(&batch) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.group, b.group, "width={width} {spec}");
            assert_eq!(a.stats.samples_drawn, b.stats.samples_drawn);
        }
    }
    // batch_width(0) clamps to 1 instead of deadlocking.
    let clamped = WasoSession::new(g)
        .k(4)
        .seed(12)
        .batch_width(0)
        .solve_batch(&specs)
        .unwrap();
    assert!(clamped.iter().all(|r| r.is_ok()));
}

#[test]
fn handle_pool_stats_expose_session_pool_health() {
    let session = WasoSession::new(graph(60)).k(4).seed(13);
    assert!(
        session.pool_stats().is_none(),
        "no pool before a pooled solve"
    );
    session.solve(&quick_spec().threads(2)).unwrap();
    let stats = session.pool_stats().expect("pool spawned by the solve");
    assert_eq!(stats.threads, 2);
    assert_eq!(stats.active_jobs, 0);
    assert!(
        stats
            .workers
            .iter()
            .map(|w| w.chunks_processed)
            .sum::<u64>()
            > 0
    );
}

#[test]
fn non_staged_solvers_honour_pre_start_cancellation() {
    // dgreedy/exact follow the single-pass control policy: a cancel
    // that precedes the solve is honoured; one that arrives later is a
    // no-op on an already-finished job.
    let session = WasoSession::new(graph(30)).k(3).seed(14).batch_width(1);
    let mut handles = session
        .submit_batch(&[long_spec(), SolverSpec::dgreedy()])
        .unwrap();
    let greedy = handles.pop().unwrap();
    greedy.cancel(); // still queued behind the long job
    assert_eq!(
        greedy.wait().unwrap_err(),
        SessionError::Solve(SolveError::NoIncumbent {
            reason: Termination::Cancelled
        })
    );
    drop(handles);
}
