//! `solve-cold`: two caller threads run `WasoSession::submit` then
//! `SolveHandle::wait` on one shared session, with specs whose deadline
//! never trips so the memo is bypassed. The sampler, the engine and the
//! pool do nearly all the work; the front door does none.

use std::collections::BTreeMap;

use waso::prelude::*;

use crate::harness::{closed_loop, timed_setups, Op};
use crate::layers::{self, busy_share_during, chunks_processed, Layers};
use crate::report::Outcome;
use crate::stats::median;
use crate::streams::{oracle_sample, serial_twin, solve_cold_spec};
use crate::workloads::{finish, measure, replan_delta, span_ms};
use crate::Config;

/// A result the oracle re-solves after the window.
struct Sampled {
    op: u64,
    group: Group,
    samples: u64,
}

#[derive(Default)]
struct Local {
    sampled: Vec<Sampled>,
    rates: Vec<f64>,
}

pub fn run(cfg: &Config) -> Outcome {
    let ((session, pool), setup_secs) = timed_setups(cfg.setups, || {
        let pool = crate::pool();
        let session = cfg.session(cfg.graph(), &pool);
        // Warm-up: builds the validated instance and wakes the workers.
        session
            .solve(&solve_cold_spec(cfg.seed, u64::MAX))
            .expect("warm-up solve");
        (session, pool)
    });
    let memo0 = session.memo_stats();
    let mut sampled: Vec<Sampled> = Vec::new();
    let mut rates: Vec<f64> = Vec::new();
    let mut busy = 0.0;
    let mut chunks_per_solve = 0.0;
    let mut next_op = 0;
    let mut measured = measure(cfg, |seconds, log| {
        let chunks0 = chunks_processed(&pool);
        let traced = log.enabled();
        let run = || {
            closed_loop(
                vec![Local::default(), Local::default()],
                seconds,
                next_op,
                log,
                |c, op| {
                    let spec = solve_cold_spec(cfg.seed, op);
                    let parent = c.log.open("solve_cold.op", op, None);
                    let handle = c
                        .log
                        .time("session.submit", op, parent, || session.submit(&spec));
                    let result =
                        handle.and_then(|h| c.log.time("session.wait", op, parent, || h.wait()));
                    c.log.close(parent);
                    match result {
                        Ok(r) if r.stats.termination == Termination::Completed => {
                            c.state.rates.push(r.stats.samples_per_sec());
                            if oracle_sample(cfg.seed, op) {
                                c.state.sampled.push(Sampled {
                                    op,
                                    samples: r.stats.samples_drawn,
                                    group: r.group.clone(),
                                });
                            }
                            Op {
                                ok: true,
                                quality: r.group.willingness(),
                            }
                        }
                        _ => Op {
                            ok: false,
                            quality: 0.0,
                        },
                    }
                },
            )
        };
        // The pool monitor only runs in traced windows.
        let ((window, clients), share) = if traced {
            busy_share_during(&pool, run)
        } else {
            (run(), 0.0)
        };
        next_op += window.attempted;
        busy = share;
        chunks_per_solve =
            (chunks_processed(&pool) - chunks0) as f64 / window.attempted.max(1) as f64;
        rates.clear();
        for client in clients {
            log.merge(client.log);
            sampled.extend(client.state.sampled);
            rates.extend(client.state.rates);
        }
        window
    });

    let mut problems = Vec::new();
    let memo = session.memo_stats();
    if memo.hits != memo0.hits || memo.misses != memo0.misses {
        problems.push(format!(
            "the memo was consulted: {} hits, {} misses during the run",
            memo.hits - memo0.hits,
            memo.misses - memo0.misses
        ));
    }

    // Oracle: a seeded sample of results must be bit-identical to a
    // serial solve of the same spec on a fresh session.
    sampled.sort_by_key(|s| s.op);
    sampled.truncate(48);
    let fresh = cfg.fresh_session(session.graph().clone());
    let mut mismatches = 0u64;
    for s in &sampled {
        let spec = serial_twin(&solve_cold_spec(cfg.seed, s.op));
        match fresh.solve(&spec) {
            Ok(r) if r.group == s.group && r.stats.samples_drawn == s.samples => {}
            _ => mismatches += 1,
        }
    }
    measured.total.failed += mismatches;

    let mut out = Layers::new();
    if cfg.traced {
        let log = &measured.log;
        out.insert("session.submit_us", span_ms(log, "session.submit") * 1e3);
        out.insert("session.wait_ms", span_ms(log, "session.wait"));
        out.insert("engine.samples_per_s", median(&rates));
        out.insert("exec.busy_share", busy);
        out.insert("exec.chunks_per_solve", chunks_per_solve);
        out.insert("session.memo_hit_ratio", 0.0);
        let graph = session.graph().clone();
        out.insert(
            "session.memo_stale",
            replan_delta::stale_probe(cfg, &graph, &pool),
        );
        layers::kernels(cfg, &graph, &pool, &mut out);
        layers::server(cfg, &graph, &pool, &mut out);
        layers::session_apply(cfg, &graph, &pool, &mut out);
    }
    let counts = BTreeMap::from([
        ("oracle_checked", sampled.len() as f64),
        ("oracle_mismatch", mismatches as f64),
    ]);
    let stamp = cfg.stamp(session.graph(), session.memo_stats());
    finish(cfg, measured, &setup_secs, out, stamp, counts, problems)
}
