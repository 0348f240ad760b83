//! Per-layer probes: short, fixed-size timings of each layer's public
//! functions, called from the benchmark's own code.
//!
//! A traced run reports every per-layer metric. Metrics of the layers a
//! workload drives come from the spans of its traced window; the rest
//! come from these probes, run on the workload's graph and pool after
//! the window, so every traced run reports the full table.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use waso::prelude::*;
use waso_algos::cross_entropy::{update_vector, ProbabilityVector};
use waso_algos::ocba::{allocate_stage, StartStats};
use waso_algos::sampler::{select_start_nodes, Sample, Sampler};
use waso_core::{GrowthWorkspace, InstanceFingerprint};
use waso_serve::protocol::{read_frame, write_frame};
use waso_serve::{Request, Response, ServeConfig, Server, StatsReply, TenantConfig};

use crate::harness::median_us;
use crate::stats::{littles_law_wait_ms, mean, median, ratio};
use crate::streams::{serial_twin, serve_hot_specs, solve_cold_spec, DeltaStream, K};
use crate::Config;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Samples in one cross-entropy stage update and in one OCBA stage (a
/// 250-sample budget over 10 stages).
const STAGE_SAMPLES: usize = 25;
/// Start nodes OCBA allocates across (`start-nodes=32`).
const OCBA_STARTS: usize = 32;

/// Runs `f` while a monitor samples `pool`'s busy workers every 2 ms;
/// returns `f`'s result and the mean share of busy workers.
pub fn busy_share_during<R>(pool: &SharedPool, f: impl FnOnce() -> R) -> (R, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let monitor = s.spawn(|| {
            let mut shares = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let stats = pool.stats();
                shares.push(ratio(stats.busy_workers() as f64, stats.threads as f64));
                std::thread::sleep(Duration::from_millis(2));
            }
            shares
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        let shares = monitor.join().expect("the pool monitor panicked");
        (
            out,
            if shares.is_empty() {
                0.0
            } else {
                mean(&shares)
            },
        )
    })
}

/// Chunks `pool`'s workers have processed over its lifetime.
pub fn chunks_processed(pool: &SharedPool) -> u64 {
    pool.stats()
        .workers
        .iter()
        .map(|w| w.chunks_processed)
        .sum()
}

/// The solver kernels, the delta and fingerprint layers, the frame codec
/// and the pool's speed-up — the probes every traced run makes.
pub fn kernels(cfg: &Config, graph: &SocialGraph, pool: &Arc<SharedPool>, out: &mut Layers) {
    let instance = WasoInstance::new(graph.clone(), K).expect("the benchmark graph holds k nodes");
    let n = graph.num_nodes();
    let start = select_start_nodes(graph, 1, None)[0];
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut sampler = Sampler::for_instance(&instance);
    let draw = |probs: Option<&ProbabilityVector>, rng: &mut StdRng, sampler: &mut Sampler| {
        if let Some(sample) = sampler.sample(&instance, start, probs, rng) {
            black_box(sample.willingness);
            sampler.recycle(sample.nodes);
        }
    };

    // sampler: one draw at k = 30, without and with a trained vector.
    const DRAWS: usize = 100;
    let uniform_us = median_us(7, DRAWS, || {
        for _ in 0..DRAWS {
            draw(None, &mut rng, &mut sampler);
        }
    });
    let mut vector = ProbabilityVector::uniform_for_start(n, K, start);
    // The engine's per-start vectors see few samples at this budget, so
    // its draws cost about what a draw with the initial vector costs.
    let initial_us = median_us(7, DRAWS, || {
        for _ in 0..DRAWS {
            draw(Some(&vector), &mut rng, &mut sampler);
        }
    });
    let mut gamma = f64::NEG_INFINITY;
    let mut stage: Vec<Sample> = Vec::new();
    for _ in 0..3 {
        stage = (0..STAGE_SAMPLES)
            .filter_map(|_| sampler.sample(&instance, start, Some(&vector), &mut rng))
            .collect();
        update_vector(&mut vector, &mut gamma, &mut stage.clone(), 0.3, 0.9, None);
    }
    let weighted_us = median_us(7, DRAWS, || {
        for _ in 0..DRAWS {
            draw(Some(&vector), &mut rng, &mut sampler);
        }
    });
    out.insert("sampler.draw_uniform_us", uniform_us);
    out.insert("sampler.draw_weighted_us", weighted_us);
    out.insert(
        "sampler.weighted_over_uniform",
        ratio(weighted_us, uniform_us),
    );

    // cross_entropy: one stage's vector update.
    let update_us: Vec<f64> = (0..101)
        .map(|_| {
            let (mut v, mut g, mut s) = (vector.clone(), gamma, stage.clone());
            let t0 = Instant::now();
            update_vector(&mut v, &mut g, &mut s, 0.3, 0.9, None);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.insert("cross_entropy.update_us", median(&update_us));

    // ocba: one stage allocation over 32 start nodes.
    let stats: Vec<StartStats> = (0..OCBA_STARTS)
        .map(|_| {
            let mut s = StartStats::new();
            for _ in 0..4 {
                s.record(rng.random_range(40.0..100.0));
            }
            s.spent = 8;
            s
        })
        .collect();
    const ALLOCS: usize = 1_000;
    let ocba_us = median_us(7, ALLOCS, || {
        for _ in 0..ALLOCS {
            black_box(allocate_stage(black_box(&stats), STAGE_SAMPLES as u64));
        }
    });
    out.insert("ocba.allocate_us", ocba_us);

    // frontier: one marginal gain, over the frontier of a 15-node group.
    let mut ws = GrowthWorkspace::new(n);
    ws.seed(graph, start);
    while ws.len() < 15 && !ws.frontier().is_empty() {
        ws.add(graph, ws.frontier().item(0));
    }
    let candidates: Vec<NodeId> = ws.frontier().items().iter().map(|&v| NodeId(v)).collect();
    const GAIN_ROUNDS: usize = 20;
    let gain_us = median_us(7, GAIN_ROUNDS * candidates.len(), || {
        for _ in 0..GAIN_ROUNDS {
            for &v in &candidates {
                black_box(ws.gain(graph, v));
            }
        }
    });
    out.insert("frontier.gain_ns", gain_us * 1e3);

    // protocol: write, read and parse one DONE frame, in memory.
    let done = Response::Done {
        termination: Termination::Completed,
        willingness: 93.25390625,
        nodes: (0..K as u32).map(|i| i * 613).collect(),
        samples: 250,
    }
    .to_string();
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    const FRAMES: usize = 1_000;
    let frame_us = median_us(7, FRAMES, || {
        for _ in 0..FRAMES {
            buf.clear();
            write_frame(&mut buf, &done).expect("writing to memory");
            let mut reader: &[u8] = &buf;
            let payload = read_frame(&mut reader).expect("reading from memory");
            if let Some(Ok(text)) = payload {
                black_box(Response::parse(&text).ok());
            }
        }
    });
    out.insert("protocol.frame_rt_us", frame_us);

    // graph::delta: one GraphDelta::apply (a full CSR rebuild).
    let mut stream = DeltaStream::new(cfg.seed ^ 0x5EED);
    let mut current = graph.clone();
    let apply_ms: Vec<f64> = (0..6)
        .map(|_| {
            let delta = stream.next_delta(&current, &[]);
            let t0 = Instant::now();
            current = delta.apply(&current).expect("stream deltas apply in order");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.insert("delta.apply_ms", median(&apply_ms));

    // core::fingerprint: from scratch, and one node's incremental update.
    let full_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(InstanceFingerprint::of(&instance));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.insert("fingerprint.full_ms", median(&full_ms));
    let mut fp = InstanceFingerprint::of(&instance);
    let nodes: Vec<NodeId> = (0..1_000)
        .map(|_| NodeId(rng.random_range(0..n as u32)))
        .collect();
    let update_us = median_us(7, nodes.len(), || {
        for &v in &nodes {
            fp.update_node(&instance, v);
        }
    });
    black_box(fp.digest());
    out.insert("fingerprint.update_us", update_us);

    // algos::exec and algos::engine: serial vs pooled solves of the
    // solve-cold spec (memo bypassed), alternating.
    let session = cfg.session(graph.clone(), pool);
    let pooled = solve_cold_spec(cfg.seed, u64::MAX - 1);
    let serial = serial_twin(&pooled);
    session.solve(&serial).expect("warm-up solve");
    let (mut serial_ms, mut pooled_ms, mut non_draw) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        let result = session.solve(&serial).expect("serial solve");
        let elapsed_us = t0.elapsed().as_secs_f64() * 1e6;
        serial_ms.push(elapsed_us / 1e3);
        non_draw.push(1.0 - result.stats.samples_drawn as f64 * initial_us / elapsed_us);
        let t0 = Instant::now();
        session.solve(&pooled).expect("pooled solve");
        pooled_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    out.insert(
        "exec.pool_speedup",
        ratio(median(&serial_ms), median(&pooled_ms)),
    );
    out.insert("engine.non_draw_share", median(&non_draw));
}

/// `session.submit_us`, `session.wait_ms` and the pool's activity over a
/// few pooled solves of the solve-cold spec on a session of its own.
pub fn session_solves(cfg: &Config, graph: &SocialGraph, pool: &Arc<SharedPool>, out: &mut Layers) {
    let session = cfg.session(graph.clone(), pool);
    session
        .solve(&solve_cold_spec(cfg.seed, u64::MAX - 2))
        .expect("warm-up solve");
    const SOLVES: u64 = 8;
    let chunks0 = chunks_processed(pool);
    let ((submit_us, wait_ms, rates), busy) = busy_share_during(pool, || {
        let (mut submit_us, mut wait_ms, mut rates) = (Vec::new(), Vec::new(), Vec::new());
        for op in 0..SOLVES {
            let spec = solve_cold_spec(cfg.seed, op);
            let t0 = Instant::now();
            let handle = session.submit(&spec).expect("submit");
            submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            let result = handle.wait().expect("solve");
            wait_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            rates.push(result.stats.samples_per_sec());
        }
        (submit_us, wait_ms, rates)
    });
    out.insert("session.submit_us", median(&submit_us));
    out.insert("session.wait_ms", median(&wait_ms));
    out.insert("engine.samples_per_s", median(&rates));
    out.insert("exec.busy_share", busy);
    out.insert(
        "exec.chunks_per_solve",
        (chunks_processed(pool) - chunks0) as f64 / SOLVES as f64,
    );
}

/// `session.apply_ms` over a few deltas on a session of its own whose
/// memo holds one entry.
pub fn session_apply(cfg: &Config, graph: &SocialGraph, pool: &Arc<SharedPool>, out: &mut Layers) {
    let mut session = cfg.session(graph.clone(), pool);
    let spec = crate::streams::replan_specs()[0].clone();
    let group = session.solve(&spec).expect("solve").group.nodes().to_vec();
    let mut stream = DeltaStream::new(cfg.seed ^ 0xA991);
    let apply_ms: Vec<f64> = (0..5)
        .map(|_| {
            let delta = stream.next_delta(session.graph(), std::slice::from_ref(&group));
            let t0 = Instant::now();
            session.apply(&delta).expect("stream deltas are valid");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.insert("session.apply_ms", median(&apply_ms));
}

/// `server.admit_us` and `server.wait_inproc_us`: `Server::handle` for a
/// SUBMIT and its WAIT, in-process, for memo-warm `specs`.
pub fn server_inproc(server: &Server, tenant: &str, specs: &[String], out: &mut Layers) {
    let (mut admit_us, mut wait_us) = (Vec::new(), Vec::new());
    for round in 0..200 {
        let spec = &specs[round % specs.len()];
        let t0 = Instant::now();
        let job = server.handle(Request::Submit {
            tenant: tenant.to_string(),
            spec: spec.clone(),
        });
        admit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if let Response::Job(job) = job {
            let t0 = Instant::now();
            black_box(server.handle(Request::Wait { job }));
            wait_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    out.insert("server.admit_us", median(&admit_us));
    out.insert("server.wait_inproc_us", median(&wait_us));
}

/// `server.transport_share`: the share of a TCP round trip pair that
/// in-process handling does not account for.
pub fn transport_share(out: &mut Layers) {
    let inproc = out["server.admit_us"] + out["server.wait_inproc_us"];
    let tcp = (out["server.submit_rtt_ms"] + out["server.wait_rtt_ms"]) * 1e3;
    out.insert("server.transport_share", 1.0 - ratio(inproc, tcp));
}

/// The server's `STATS` counters, read in-process.
pub fn server_stats(server: &Server) -> StatsReply {
    match server.handle(Request::Stats) {
        Response::Stats(stats) => stats,
        _ => StatsReply::default(),
    }
}

/// Every `server.*` metric from a server of its own: a few TCP round
/// trips on one connection and in-process handling, memo-warm.
pub fn server(cfg: &Config, graph: &SocialGraph, pool: &Arc<SharedPool>, out: &mut Layers) {
    let session = cfg.session(graph.clone(), pool);
    let tenants = vec![TenantConfig::new("probe", 2)];
    let mut server = Server::start(session, ServeConfig::new(tenants));
    let addr = server
        .listen("127.0.0.1:0")
        .expect("bind an ephemeral port");
    let specs = serve_hot_specs()[..2].to_vec();
    for spec in &specs {
        let job = server.handle(Request::Submit {
            tenant: "probe".to_string(),
            spec: spec.clone(),
        });
        if let Response::Job(job) = job {
            server.handle(Request::Wait { job });
        }
    }
    let mut client = waso_serve::Client::connect(addr).expect("connect to the probe server");
    let (mut submit_ms, mut wait_ms, mut queued_seen) = (Vec::new(), Vec::new(), Vec::new());
    let t_all = Instant::now();
    const ROUND_TRIPS: usize = 6;
    for round in 0..ROUND_TRIPS {
        let t0 = Instant::now();
        let job = client.submit("probe", &specs[round % specs.len()]);
        submit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        queued_seen.push(server_stats(&server).queued as f64);
        if let Ok(Response::Job(job)) = job {
            let t0 = Instant::now();
            let _ = client.wait(job);
            wait_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let throughput = ROUND_TRIPS as f64 / t_all.elapsed().as_secs_f64();
    out.insert("server.submit_rtt_ms", median(&submit_ms));
    out.insert("server.wait_rtt_ms", median(&wait_ms));
    out.insert(
        "server.queue_wait_ms_est",
        littles_law_wait_ms(mean(&queued_seen), throughput),
    );
    out.insert("server.shed", server_stats(&server).shed as f64);
    server_inproc(&server, "probe", &specs, out);
    transport_share(out);
    drop(client);
    server.shutdown();
}
