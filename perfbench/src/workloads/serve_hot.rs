//! `serve-hot`: `waso_serve::Server` in-process on an ephemeral port with
//! two tenants; two `Client` connections, one per tenant, loop SUBMIT
//! then WAIT over a fixed set of specs solved during set-up. Framing,
//! admission, fair dispatch, the per-job waiter thread and the memo
//! lookup are all the work; the sampler does none.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use waso::prelude::*;
use waso_serve::{Client, Request, Response, ServeConfig, Server, TenantConfig};

use crate::harness::{closed_loop, timed_setups, Op};
use crate::layers::{self, server_stats, Layers};
use crate::report::Outcome;
use crate::stats::{littles_law_wait_ms, mean, ratio};
use crate::streams::{serve_hot_pick, serve_hot_specs};
use crate::workloads::{finish, measure, replan_delta, span_ms};
use crate::Config;

const TENANTS: [&str; 2] = ["tenant0", "tenant1"];

struct State {
    graph: SocialGraph,
    pool: std::sync::Arc<SharedPool>,
    server: Server,
    addr: SocketAddr,
    specs: Vec<String>,
}

/// A connection and how many of its SUBMITs were admitted.
struct Conn {
    client: Client,
    admitted: u64,
}

/// A DONE response of the server for `spec`, or why there is none.
fn solve_in_process(server: &Server, tenant: &str, spec: &str) -> Response {
    match server.handle(Request::Submit {
        tenant: tenant.to_string(),
        spec: spec.to_string(),
    }) {
        Response::Job(job) => server.handle(Request::Wait { job }),
        other => other,
    }
}

/// The DONE response the server must send for `spec`: the direct solve
/// of the spec on a session of its own.
fn direct_answer(session: &WasoSession, spec: &str) -> Response {
    match session.solve_str(spec) {
        Ok(result) => {
            let mut nodes: Vec<u32> = result.group.nodes().iter().map(|v| v.0).collect();
            nodes.sort_unstable();
            Response::Done {
                termination: result.stats.termination,
                willingness: result.group.willingness(),
                nodes,
                samples: result.stats.samples_drawn,
            }
        }
        Err(e) => Response::Error {
            code: waso_serve::ErrCode::Failed,
            message: e.to_string(),
        },
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let (state, setup_secs) = timed_setups(cfg.setups, || {
        let graph = cfg.graph();
        let pool = crate::pool();
        let session = cfg.session(graph.clone(), &pool);
        let tenants = TENANTS.iter().map(|t| TenantConfig::new(*t, 2)).collect();
        let mut server = Server::start(session, ServeConfig::new(tenants));
        let addr = server
            .listen("127.0.0.1:0")
            .expect("bind an ephemeral port");
        // Memo warm-up: every hot spec is solved once, in-process.
        let specs = serve_hot_specs();
        for spec in &specs {
            solve_in_process(&server, TENANTS[0], spec);
        }
        State {
            graph,
            pool,
            server,
            addr,
            specs,
        }
    });
    let State {
        graph,
        pool,
        mut server,
        addr,
        specs,
    } = state;

    let mut problems = Vec::new();
    let oracle = cfg.fresh_session(graph.clone());
    let expected: Vec<Response> = specs.iter().map(|s| direct_answer(&oracle, s)).collect();
    drop(oracle);
    for (spec, want) in specs.iter().zip(&expected) {
        let got = solve_in_process(&server, TENANTS[0], spec);
        if got != *want {
            problems.push(format!(
                "warm-up answer for {spec} differs from the direct solve"
            ));
        }
    }

    let stats0 = server_stats(&server);
    let mut admitted = 0u64;
    let mut queued_samples: Vec<f64> = Vec::new();
    let mut traced_throughput = 0.0;
    let mut next_op = 0;
    let measured = measure(cfg, |seconds, log| {
        let conns: Vec<Conn> = TENANTS
            .iter()
            .map(|_| Conn {
                client: Client::connect(addr).expect("connect to the server"),
                admitted: 0,
            })
            .collect();
        let stop = AtomicBool::new(false);
        let (window, clients, queued) = std::thread::scope(|s| {
            // Queue occupancy, sampled in-process in traced windows, for
            // the Little's-law estimate of queue wait.
            let monitor = log.enabled().then(|| {
                s.spawn(|| {
                    let mut seen = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        seen.push(server_stats(&server).queued as f64);
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    seen
                })
            });
            let (window, clients) = closed_loop(conns, seconds, next_op, log, |c, op| {
                let tenant = TENANTS[c.thread];
                let idx = serve_hot_pick(cfg.seed, op);
                let parent = c.log.open("serve_hot.op", op, None);
                let conn = &mut c.state;
                let job = c.log.time("server.submit", op, parent, || {
                    conn.client.submit(tenant, &specs[idx])
                });
                let ok = match job {
                    Ok(Response::Job(job)) => {
                        conn.admitted += 1;
                        let done = c
                            .log
                            .time("server.wait", op, parent, || conn.client.wait(job));
                        matches!(done, Ok(ref d) if *d == expected[idx])
                    }
                    _ => false,
                };
                c.log.close(parent);
                let quality = match &expected[idx] {
                    Response::Done { willingness, .. } => *willingness,
                    _ => 0.0,
                };
                Op { ok, quality }
            });
            stop.store(true, Ordering::Relaxed);
            let queued = monitor
                .map(|m| m.join().expect("the queue monitor panicked"))
                .unwrap_or_default();
            (window, clients, queued)
        });
        next_op += window.attempted;
        if log.enabled() {
            traced_throughput = window.throughput();
            queued_samples = queued;
        }
        for client in clients {
            admitted += client.state.admitted;
            log.merge(client.log);
        }
        window
    });

    // Every admitted SUBMIT must have been a memo hit, and nothing else.
    let stats1 = server_stats(&server);
    let (hits, misses) = (
        stats1.memo_hits - stats0.memo_hits,
        stats1.memo_misses - stats0.memo_misses,
    );
    if hits != admitted || misses != 0 {
        problems.push(format!(
            "memo hits grew by {hits} (misses by {misses}) for {admitted} admitted requests"
        ));
    }

    let mut out = Layers::new();
    if cfg.traced {
        let log = &measured.log;
        out.insert("server.submit_rtt_ms", span_ms(log, "server.submit"));
        out.insert("server.wait_rtt_ms", span_ms(log, "server.wait"));
        out.insert(
            "server.queue_wait_ms_est",
            littles_law_wait_ms(mean(&queued_samples), traced_throughput),
        );
        out.insert("server.shed", (stats1.shed - stats0.shed) as f64);
        out.insert(
            "session.memo_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        out.insert(
            "session.memo_stale",
            replan_delta::stale_probe(cfg, &graph, &pool),
        );
        layers::server_inproc(&server, TENANTS[0], &specs, &mut out);
        layers::transport_share(&mut out);
        layers::kernels(cfg, &graph, &pool, &mut out);
        layers::session_solves(cfg, &graph, &pool, &mut out);
        layers::session_apply(cfg, &graph, &pool, &mut out);
    }
    server.shutdown();
    let counts = BTreeMap::from([
        ("admitted", admitted as f64),
        ("memo_hits_window", hits as f64),
        ("shed", (stats1.shed - stats0.shed) as f64),
    ]);
    let mut stamp = cfg.stamp(&graph, MemoStats::default());
    stamp.memo_hits = stats1.memo_hits;
    stamp.memo_misses = stats1.memo_misses;
    finish(cfg, measured, &setup_secs, out, stamp, counts, problems)
}
