//! # waso — Willingness Optimization for Social Group Activity
//!
//! A production-quality Rust reproduction of Shuai, Yang, Yu & Chen,
//! *Willingness Optimization for Social Group Activity* (VLDB 2013):
//! the WASO problem, the CBAS / CBAS-ND randomized solvers with optimal
//! computing-budget allocation and cross-entropy neighbour differentiation,
//! the greedy baselines, an exact branch-and-bound (the paper's CPLEX
//! ground truth), synthetic datasets matching the paper's evaluation
//! networks, and a harness regenerating every figure of its §5.
//!
//! The whole staged family (CBAS, CBAS-ND, CBAS-ND-G, the §5.3.1
//! parallel runs) executes through **one** stage loop —
//! [`waso_algos::engine::StagedEngine`] — whose budget-allocation policy,
//! candidate distribution and execution (serial, or a job of the
//! process-wide [`waso_algos::SharedPool`] that any number of sessions
//! share) are orthogonal axes. Every solver is a pure function of
//! `(instance, seed)`, bit-identical across thread counts, deals,
//! concurrent batches and even worker panics; see the Architecture
//! section of the README.
//!
//! ## The unified solving API
//!
//! Three pieces, used by every caller in the workspace (the CLI, the
//! figure drivers, the examples — and your code):
//!
//! * [`SolverSpec`] — one serializable description of *which* algorithm
//!   with *what* settings (`"cbas-nd:budget=2000,stages=10"`), parseable
//!   from CLI strings and constructible via a builder;
//! * [`SolverRegistry`] (see [`registry()`]) — the single place specs
//!   become solvers; algorithm names, help text and the figure rosters
//!   are derived from it, and solver options a spec names but a solver
//!   cannot honour are rejected, never ignored;
//! * [`WasoSession`] — the facade that owns instance validation, the seed
//!   policy, and uniform constraint enforcement (required attendees,
//!   connectivity relaxation, λ re-weighting) across every solver.
//!
//! ```
//! use waso::prelude::*;
//!
//! // Build a tiny social graph: interest scores on nodes, tightness on edges.
//! let mut b = GraphBuilder::new();
//! let a = b.add_node(0.8);
//! let c = b.add_node(0.5);
//! let d = b.add_node(0.9);
//! b.add_edge_symmetric(a, c, 0.7).unwrap();
//! b.add_edge_symmetric(c, d, 0.4).unwrap();
//! let graph = b.build();
//!
//! // Ask for the best connected group of k = 2.
//! let session = WasoSession::new(graph).k(2).seed(42);
//! let result = session.solve(&SolverSpec::cbas_nd().budget(200).stages(4)).unwrap();
//! assert_eq!(result.group.len(), 2);
//! // Optimum: {a, c} with W = 0.8 + 0.5 + 2·0.7 = 2.7.
//! assert!((result.group.willingness() - 2.7).abs() < 1e-9);
//!
//! // The same session solves with any registered algorithm — including
//! // the exact branch-and-bound — from a plain string.
//! let exact = session.solve_str("exact").unwrap();
//! assert_eq!(exact.group, result.group);
//!
//! // Serving-style: submit the solve as a job handle instead of
//! // blocking. Handles poll, cancel, stream incumbents — and `wait()`
//! // returns exactly what the blocking call would have (both run
//! // `JobTask::run`; `submit` adds a coordinator). Spec knobs
//! // `deadline_ms=`/`patience=` bound latency.
//! let handle = session
//!     .submit(&SolverSpec::cbas_nd().budget(200).stages(4))
//!     .unwrap();
//! let job = handle.wait().unwrap();
//! assert_eq!(job.group, result.group);
//! assert_eq!(job.stats.termination, waso::algos::Termination::Completed);
//!
//! // Constraints are enforced uniformly: a solver that cannot guarantee
//! // required attendees rejects the combination instead of ignoring it.
//! let constrained = WasoSession::new(session.graph().clone()).k(2).require([a]);
//! assert!(constrained.solve_str("cbas-nd:budget=200,stages=4").is_ok());
//! assert!(constrained.solve_str("cbas").is_err());
//! ```
//!
//! | Crate | Contents |
//! |---|---|
//! | [`graph`] | CSR social graphs, builders, generators, traversal, I/O |
//! | [`core`] | WASO instances, the willingness objective, groups, scenarios |
//! | [`algos`] | the `StagedEngine` + DGreedy, RGreedy, CBAS, CBAS-ND(-G), decomposition, online replanning, [`SolverSpec`]/[`SolverRegistry`] |
//! | [`exact`] | ESU enumeration, branch-and-bound, the Appendix-B IP model |
//! | [`datasets`] | Facebook/DBLP/Flickr-like synthetics, simulated user study |
//! | [`stats`] | numerics: normal distribution, power laws, quantiles, quadrature |

pub use waso_algos as algos;
pub use waso_core as core;
pub use waso_datasets as datasets;
pub use waso_exact as exact;
pub use waso_graph as graph;
pub use waso_stats as stats;

pub mod session;

pub use session::{registry, MemoStats, SessionError, SolveHandle, WasoSession, DEFAULT_SEED};
pub use waso_algos::{SolverRegistry, SolverSpec};

/// One-line imports for the common build-graph → session → solve workflow.
pub mod prelude {
    pub use crate::session::{registry, MemoStats, SessionError, SolveHandle, WasoSession};
    pub use waso_algos::{
        Capabilities, CbasConfig, CbasNdConfig, DGreedy, Distribution, Incumbent, JobControl,
        JobProgress, OnlinePlanner, PoolStats, RGreedy, RGreedyConfig, SharedPool, SolveError,
        SolveRequest, SolveResult, Solver, SolverRegistry, SolverSpec, SpecError, StagedEngine,
        Termination,
    };
    pub use waso_core::{scenario, willingness, Group, WasoInstance};
    pub use waso_graph::{GraphBuilder, NodeId, SocialGraph};
}
