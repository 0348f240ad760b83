//! A layered benchmark of the waso stack: the `waso-serve` TCP front
//! door, the `WasoSession` solve path over a shared worker pool, and
//! graph-delta replans.
//!
//! Each run measures one workload for a fixed number of seconds in a
//! closed loop, checks every answer, and prints a stamped record line
//! followed by a one-line JSON result. Untraced runs report end-to-end
//! metrics ([`report::END_TO_END`]); traced runs record spans around the
//! benchmark's calls into each layer and report per-layer metrics
//! ([`report::PER_LAYER`]). See `README.md` in this directory.

use std::path::PathBuf;
use std::sync::Arc;

use waso::prelude::*;

pub mod harness;
pub mod layers;
pub mod report;
pub mod stats;
pub mod streams;
pub mod trace;
pub mod workloads;

use report::{Outcome, Stamp};
use streams::{K, SESSION_SEED};

/// The workloads, by the name the command line uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SolveCold,
    ServeHot,
    ReplanDelta,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SolveCold,
        Workload::ServeHot,
        Workload::ReplanDelta,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveCold => "solve-cold",
            Workload::ServeHot => "serve-hot",
            Workload::ReplanDelta => "replan-delta",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measurement window. A traced run splits it into an
    /// untraced half (the overhead baseline) and a traced half.
    pub seconds: f64,
    pub traced: bool,
    /// Graph size; 20 000 except in smoke runs.
    pub nodes: usize,
    /// How many times set-up is repeated; `setup_s` is their median.
    pub setups: usize,
    /// Where span files go (`<root>/.bench_out/`) and where `.git` is
    /// looked for.
    pub root: PathBuf,
}

impl Config {
    pub fn new(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            traced,
            nodes: streams::NODES,
            setups: 5,
            root: PathBuf::from("."),
        }
    }

    /// A seconds-long configuration for tests: a small graph, one set-up.
    pub fn smoke(workload: Workload, traced: bool) -> Self {
        Self {
            nodes: 1_500,
            setups: 1,
            ..Self::new(workload, 1, 0.3, traced)
        }
    }

    /// The benchmark's graph: facebook-like, from [`streams::GRAPH_SEED`].
    pub fn graph(&self) -> SocialGraph {
        waso_datasets::synthetic::facebook_like_n(self.nodes, streams::GRAPH_SEED)
    }

    /// A session over `graph` with the benchmark's group size and seed,
    /// running pooled solves on `pool`.
    pub fn session(&self, graph: SocialGraph, pool: &Arc<SharedPool>) -> WasoSession {
        WasoSession::new(graph)
            .k(K)
            .seed(SESSION_SEED)
            .attach_pool(Arc::clone(pool))
    }

    /// A session that shares nothing with the measured one: the oracle
    /// the benchmark checks answers against. Serial, memo empty.
    pub fn fresh_session(&self, graph: SocialGraph) -> WasoSession {
        WasoSession::new(graph).k(K).seed(SESSION_SEED)
    }

    /// The stamp of a result measured on `graph`.
    pub fn stamp(&self, graph: &SocialGraph, memo: MemoStats) -> Stamp {
        Stamp {
            cores: std::thread::available_parallelism().map_or(1, |c| c.get()),
            n: graph.num_nodes(),
            m: graph.num_edges(),
            k: K,
            seed: self.seed,
            memo_hits: memo.hits,
            memo_misses: memo.misses,
            git_rev: report::git_revision(&self.root),
        }
    }
}

/// The shared worker pool every workload's session runs on.
pub fn pool() -> Arc<SharedPool> {
    Arc::new(SharedPool::new(2))
}

/// Runs one workload end to end and returns its checked outcome.
pub fn run(cfg: &Config) -> Outcome {
    let mut outcome = match cfg.workload {
        Workload::SolveCold => workloads::solve_cold::run(cfg),
        Workload::ServeHot => workloads::serve_hot::run(cfg),
        Workload::ReplanDelta => workloads::replan_delta::run(cfg),
    };
    outcome.workload = cfg.workload.name();
    outcome.traced = cfg.traced;
    if outcome.attempted == 0 {
        outcome.problems.push("no operation completed".to_string());
    }
    outcome.counts.insert(
        "error_rate",
        stats::ratio(outcome.failed as f64, outcome.attempted as f64),
    );
    outcome.check_metrics();
    outcome
}
