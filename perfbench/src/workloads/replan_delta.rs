//! `replan-delta`: each operation applies one `GraphDelta` from a seeded
//! stream through `WasoSession::apply`, then re-solves the cached specs.
//! Its latency runs from the start of the apply to the last answer. This
//! is the write path next to the reads: CSR rebuild, fingerprint update,
//! memo sweep and warm start.
//!
//! `apply` needs the session exclusively, so the loop has one writer;
//! its re-solves are submitted together and run concurrently on the two
//! cores.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use waso::prelude::*;
use waso_graph::GraphDelta;

use crate::harness::{closed_loop, timed_setups, Op};
use crate::layers::{self, Layers};
use crate::report::Outcome;
use crate::stats::{mean, ratio};
use crate::streams::{replan_specs, DeltaStream, K};
use crate::trace::SpanLog;
use crate::workloads::{finish, measure, span_ms};
use crate::Config;

/// One re-solve's answer, kept for the oracle.
struct Answer {
    group: Group,
    samples: u64,
    completed: bool,
    /// The session answered from its memo.
    memo_served: bool,
}

/// One operation, kept for the oracle.
struct Applied {
    delta: GraphDelta,
    answers: Vec<Answer>,
}

struct State {
    base: SocialGraph,
    session: WasoSession,
    pool: Arc<SharedPool>,
    specs: Vec<SolverSpec>,
    /// The groups of the latest answers: the targets of the delta
    /// stream's targeted share.
    groups: Vec<Vec<NodeId>>,
    stream: DeltaStream,
    applied: Vec<Applied>,
}

/// Applies the next delta and re-solves every cached spec.
fn operation(st: &mut State, log: &mut SpanLog, op: u64) -> Op {
    let delta = st.stream.next_delta(st.session.graph(), &st.groups);
    let parent = log.open("replan.op", op, None);
    let applied = log.time("session.apply", op, parent, || st.session.apply(&delta));
    let mut answers = Vec::with_capacity(st.specs.len());
    let mut ok = applied.is_ok();
    if ok {
        let mut handles = Vec::with_capacity(st.specs.len());
        for spec in &st.specs {
            let hits = st.session.memo_stats().hits;
            let handle = log.time("replan.submit", op, parent, || st.session.submit(spec));
            handles.push((handle, st.session.memo_stats().hits > hits));
        }
        for (handle, memo_served) in handles {
            match handle.and_then(|h| log.time("replan.wait", op, parent, || h.wait())) {
                Ok(r) => answers.push(Answer {
                    completed: r.stats.termination == Termination::Completed,
                    samples: r.stats.samples_drawn,
                    group: r.group,
                    memo_served,
                }),
                Err(_) => ok = false,
            }
        }
    }
    log.close(parent);
    let quality = mean(
        &answers
            .iter()
            .map(|a| a.group.willingness())
            .collect::<Vec<_>>(),
    );
    if ok {
        st.groups = answers.iter().map(|a| a.group.nodes().to_vec()).collect();
    }
    st.applied.push(Applied { delta, answers });
    Op { ok, quality }
}

/// What replaying the run against fresh sessions found.
#[derive(Default)]
struct Verdict {
    /// Operations with an answer that is not a completed, feasible group
    /// whose willingness matches the post-delta graph.
    invalid_ops: u64,
    /// Answers that differ from a fresh session's answer.
    mismatches: u64,
    /// Of those, answers the memo served.
    stale: u64,
    answers: u64,
}

/// The fresh session's view of one graph: the instance answers are
/// validated against, and the oracle's answer to every spec.
struct Oracle {
    instance: WasoInstance,
    answers: Vec<Result<SolveResult, waso::SessionError>>,
}

impl Oracle {
    fn of(cfg: &Config, graph: SocialGraph, specs: &[SolverSpec]) -> Self {
        let answers = cfg
            .fresh_session(graph.clone())
            .solve_batch(specs)
            .expect("the fresh session builds");
        Self {
            instance: WasoInstance::new(graph, K).expect("k fits the graph"),
            answers,
        }
    }
}

/// Replays every applied delta on the original graph and checks each
/// answer against a fresh session on the post-delta graph. One thread
/// re-applies the deltas while this one solves. Every undo restores the
/// original graph, whose oracle is computed once.
fn replay(cfg: &Config, st: &State) -> Verdict {
    let mut verdict = Verdict::default();
    let base = Oracle::of(cfg, st.base.clone(), &st.specs);
    let (tx, rx) = std::sync::mpsc::sync_channel::<SocialGraph>(2);
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut graph = st.base.clone();
            for applied in &st.applied {
                graph = applied
                    .delta
                    .apply(&graph)
                    .expect("the stream's deltas apply in order");
                if tx.send(graph.clone()).is_err() {
                    return;
                }
            }
        });
        for (applied, graph) in st.applied.iter().zip(rx) {
            let changed;
            let oracle = if graph == st.base {
                &base
            } else {
                changed = Oracle::of(cfg, graph, &st.specs);
                &changed
            };
            let mut valid = applied.answers.len() == st.specs.len();
            for (answer, want) in applied.answers.iter().zip(&oracle.answers) {
                verdict.answers += 1;
                let w = answer.group.willingness();
                valid &= answer.completed
                    && Group::new(&oracle.instance, answer.group.nodes().to_vec())
                        .is_ok_and(|g| (g.willingness() - w).abs() <= 1e-9 * w.abs().max(1.0));
                let same = want.as_ref().is_ok_and(|r| {
                    r.group == answer.group && r.stats.samples_drawn == answer.samples
                });
                if !same {
                    verdict.mismatches += 1;
                    verdict.stale += u64::from(answer.memo_served);
                }
            }
            verdict.invalid_ops += u64::from(!valid);
        }
    });
    verdict
}

/// A replanning state over `graph`: the cached specs solved once, then
/// one untimed do/undo pair, so the first measured operation does not pay
/// for first-touch allocations. The replay checks the pair too.
fn new_state(cfg: &Config, graph: SocialGraph, pool: Arc<SharedPool>) -> State {
    let session = cfg.session(graph.clone(), &pool);
    let specs = replan_specs();
    let groups = session
        .solve_batch(&specs)
        .expect("the session builds")
        .into_iter()
        .map(|r| r.expect("initial solve").group.nodes().to_vec())
        .collect();
    let mut state = State {
        base: graph,
        session,
        pool,
        specs,
        groups,
        stream: DeltaStream::new(cfg.seed),
        applied: Vec::new(),
    };
    let mut untraced = SpanLog::new(Instant::now(), false);
    for op in 0..2 {
        operation(&mut state, &mut untraced, op);
    }
    state
}

/// `session.memo_stale` for a workload that does not replan: a quarter
/// window of replanning on a session of its own, replayed against fresh
/// sessions.
pub fn stale_probe(cfg: &Config, graph: &SocialGraph, pool: &Arc<SharedPool>) -> f64 {
    let mut state = new_state(cfg, graph.clone(), Arc::clone(pool));
    let mut untraced = SpanLog::new(Instant::now(), false);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds / 4.0);
    let mut op = 2;
    while op < 4 || Instant::now() < deadline {
        operation(&mut state, &mut untraced, op);
        op += 1;
    }
    replay(cfg, &state).stale as f64
}

pub fn run(cfg: &Config) -> Outcome {
    let (state, setup_secs) =
        timed_setups(cfg.setups, || new_state(cfg, cfg.graph(), crate::pool()));
    let memo0 = state.session.memo_stats();
    let mut slot = Some(state);
    let mut next_op = 0;
    let mut traced_memo = (0u64, 0u64);
    let mut measured = measure(cfg, |seconds, log| {
        let st = slot
            .take()
            .expect("the state is handed back after each window");
        let before = st.session.memo_stats();
        let (window, mut clients) = closed_loop(vec![st], seconds, next_op, log, |c, op| {
            operation(&mut c.state, &mut c.log, op)
        });
        next_op += window.attempted;
        let client = clients.pop().expect("one client");
        let after = client.state.session.memo_stats();
        if log.enabled() {
            traced_memo = (after.hits - before.hits, after.misses - before.misses);
        }
        log.merge(client.log);
        slot = Some(client.state);
        window
    });
    let state = slot.take().expect("the state is handed back");

    let verdict = replay(cfg, &state);
    measured.total.failed += verdict.invalid_ops;
    let memo = state.session.memo_stats();

    let mut out = Layers::new();
    if cfg.traced {
        out.insert("session.apply_ms", span_ms(&measured.log, "session.apply"));
        let (hits, misses) = traced_memo;
        out.insert(
            "session.memo_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        out.insert("session.memo_stale", verdict.stale as f64);
        let graph = state.session.graph().clone();
        layers::kernels(cfg, &graph, &state.pool, &mut out);
        layers::session_solves(cfg, &graph, &state.pool, &mut out);
        layers::server(cfg, &graph, &state.pool, &mut out);
    }
    let counts = BTreeMap::from([
        ("answers", verdict.answers as f64),
        ("oracle_mismatch", verdict.mismatches as f64),
        ("memo_stale", verdict.stale as f64),
        (
            "oracle_mismatch_rate",
            ratio(verdict.mismatches as f64, verdict.answers as f64),
        ),
        ("memo_hits_window", (memo.hits - memo0.hits) as f64),
        ("memo_misses_window", (memo.misses - memo0.misses) as f64),
        (
            "memo_invalidated_window",
            (memo.invalidated - memo0.invalidated) as f64,
        ),
    ]);
    let stamp = cfg.stamp(state.session.graph(), memo);
    finish(cfg, measured, &setup_secs, out, stamp, counts, Vec::new())
}
