//! # waso-algos
//!
//! The paper's solvers and their supporting machinery.
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`greedy`] | §1, §3 | `DGreedy`, the deterministic greedy baseline |
//! | [`rgreedy`] | §4.1 | `RGreedy`, randomized greedy with willingness-proportional selection |
//! | [`sampler`] | §3.1 | random growth of partial solutions (uniform / probability-vector weighted) |
//! | [`ocba`] | §3.1–3.2 | computational-budget allocation across start nodes, stage derivation |
//! | [`engine`] | §3–§4, §5.3.1 | **the** staged-sampling loop: allocation × distribution × execution |
//! | [`exec`] | §5.3.1 | stage executors: serial, or a job of the self-healing [`SharedPool`] |
//! | [`cbas`] | §3 | `CbasConfig` — CBAS is the engine with uniform candidate selection |
//! | [`cross_entropy`] | §4.2–4.3 | sparse node-selection probability vectors, elite updates, smoothing |
//! | [`cbasnd`] | §4 | `CbasNdConfig` — CBAS-ND(-G) is the engine with cross-entropy neighbour differentiation |
//! | [`gaussian`] | Appendix A | Gaussian budget allocation (`CBAS-ND-G`) |
//! | [`decomp`] | §5.3 scaling | `Decomp` — community-partitioned solves with boundary repair |
//! | [`online`] | §4.4.1 | replanning after declines, keeping confirmed attendees |
//! | [`theory`] | §3.2, §4.3 | the approximation-ratio and `P_b` formulas of Theorems 3–5 |
//!
//! All solvers implement [`Solver`], whose one solve method takes a
//! [`SolveRequest`] (instance, required set, seed, optional pool, control
//! and incumbent) and is deterministic given it, returning a validated
//! [`waso_core::Group`] plus run statistics. The staged family (CBAS,
//! CBAS-ND, CBAS-ND-G, each serial or with `threads=N`) is one type —
//! [`engine::StagedEngine`] — whose execution, allocation policy and
//! candidate distribution are orthogonal axes; the [`SolverRegistry`]
//! builds its configurations from specs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cbas;
pub mod cbasnd;
pub mod cross_entropy;
pub mod decomp;
pub mod engine;
pub mod exec;
pub mod gaussian;
pub mod greedy;
pub mod job;
pub mod ocba;
pub mod online;
pub mod registry;
pub mod rgreedy;
pub mod sampler;
pub mod spec;
pub mod theory;

use std::sync::Arc;
use std::time::Duration;

use waso_core::{CoreError, Group, WasoInstance};
use waso_graph::NodeId;

pub use cbas::CbasConfig;
pub use cbasnd::CbasNdConfig;
pub use cross_entropy::ProbabilityVector;
pub use decomp::Decomp;
pub use engine::{Distribution, StagedEngine};
pub use exec::{Deal, PoolStats, SharedPool, WorkerStats};
pub use gaussian::Allocation;
pub use greedy::DGreedy;
pub use job::{Incumbent, JobControl, JobProgress, Termination};
pub use online::OnlinePlanner;
pub use registry::{BuildFn, RegistryEntry, SolverRegistry};
pub use rgreedy::{RGreedy, RGreedyConfig};
pub use spec::{Capabilities, SolverSpec, SpecError, DEFAULT_BUDGET};

/// Why a solver could not produce a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// No start node could be grown to `k` nodes (e.g. every component of
    /// the graph is smaller than `k`).
    NoFeasibleGroup,
    /// The produced group failed validation — indicates a solver bug and is
    /// surfaced rather than masked.
    Invalid(CoreError),
    /// The caller asked for required attendees from a solver that cannot
    /// guarantee them (see [`Capabilities::required_attendees`]). Surfaced
    /// instead of silently dropping the constraint.
    RequiredUnsupported {
        /// The solver that rejected the constraint.
        solver: &'static str,
    },
    /// A solver parameter is outside its valid range (e.g. a cross-entropy
    /// elite fraction ρ of 0). Returned — never panicked — so a serving
    /// process survives user-supplied specs; the registry builders reject
    /// the same ranges earlier with [`SpecError::OutOfRange`].
    BadParameter {
        /// The offending parameter name (`"rho"`, `"smoothing"`).
        param: &'static str,
        /// The rejected value, rendered.
        value: String,
        /// The accepted range, rendered (`"in (0, 1]"`).
        expected: &'static str,
    },
    /// The solve was cancelled or its deadline elapsed **before any
    /// feasible incumbent existed** (cancel before the first stage,
    /// `deadline_ms=0`). Distinct from [`SolveError::NoFeasibleGroup`]:
    /// the instance may well be feasible — the solve just never got to
    /// look.
    NoIncumbent {
        /// Why the solve stopped ([`Termination::Deadline`] or
        /// [`Termination::Cancelled`]; never `Completed`).
        reason: Termination,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::NoFeasibleGroup => {
                write!(
                    f,
                    "no feasible group of the requested size exists or was found"
                )
            }
            SolveError::Invalid(e) => write!(f, "solver produced an invalid group: {e}"),
            SolveError::RequiredUnsupported { solver } => write!(
                f,
                "solver '{solver}' cannot guarantee required attendees \
                 (use cbas-nd, cbas-nd-g, or dgreedy with a single attendee)"
            ),
            SolveError::BadParameter {
                param,
                value,
                expected,
            } => write!(
                f,
                "parameter {param}={value} is invalid (must be {expected})"
            ),
            SolveError::NoIncumbent { reason } => write!(
                f,
                "solve stopped ({reason}) before finding any feasible incumbent"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

/// Run statistics reported by every solver.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverStats {
    /// Final solutions sampled (`T` actually spent; greedy counts 1).
    pub samples_drawn: u64,
    /// Stages executed (1 for single-pass algorithms).
    pub stages: u32,
    /// Start nodes considered (`m`).
    pub start_nodes: u32,
    /// Start nodes pruned by zero budget allocations.
    pub pruned_start_nodes: u32,
    /// Probability-vector reverts performed (backtracking, §4.4.2).
    pub backtracks: u32,
    /// `true` when a work cap cut the solve short, so the result is the
    /// best *found* rather than a completed run (the exact solver's
    /// expansion cap, a `patience=` early stop, a deadline or a
    /// cancellation; anytime modes generally).
    pub truncated: bool,
    /// Why the solve stopped: ran to completion (including `patience=`
    /// convergence stops), hit its `deadline_ms=`, or was cancelled. Any
    /// reason other than [`Termination::Completed`] also sets
    /// [`SolverStats::truncated`].
    pub termination: Termination,
    /// Wall-clock time of the solve call.
    pub elapsed: Duration,
}

impl SolverStats {
    /// Sampling throughput of the solve: `samples_drawn / elapsed`
    /// (0 when the run was too fast to time or drew nothing). The
    /// perf-trajectory figure the bench harness tracks per thread count.
    pub fn samples_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 && self.samples_drawn > 0 {
            self.samples_drawn as f64 / secs
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for SolverStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} samples ({:.0}/s), {} stages, {} start nodes ({} pruned), {} backtracks, {:.3}s{}",
            self.samples_drawn,
            self.samples_per_sec(),
            self.stages,
            self.start_nodes,
            self.pruned_start_nodes,
            self.backtracks,
            self.elapsed.as_secs_f64(),
            match (self.truncated, self.termination) {
                (_, Termination::Deadline) => " (truncated: deadline)",
                (_, Termination::Cancelled) => " (truncated: cancelled)",
                (true, Termination::Completed) => " (truncated)",
                (false, Termination::Completed) => "",
            }
        )
    }
}

/// A solver's answer: the best group found plus statistics.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// The best feasible group found.
    pub group: Group,
    /// Run statistics.
    pub stats: SolverStats,
}

impl std::fmt::Display for SolveResult {
    /// The group with its willingness, then the stats one-liner —
    /// what CLIs and examples print instead of formatting by hand.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} — {}", self.group, self.stats)
    }
}

/// One solve's inputs, built with [`SolveRequest::new`] plus chained
/// setters.
///
/// The instance, required set, seed and incumbent determine the answer;
/// `pool` and `control` decide only where and for how long the solve
/// runs, never what a stage computes — a solve whose control never trips
/// is **bit-identical** for every pool, including none.
#[derive(Debug, Clone, Copy)]
pub struct SolveRequest<'a> {
    /// The instance, shared so pool workers hold it without a clone.
    pub instance: &'a Arc<WasoInstance>,
    /// Nodes that must appear in the answer (§4.4.1 and the §6
    /// future-work item). A solver that cannot guarantee them returns
    /// [`SolveError::RequiredUnsupported`] — constraints are never
    /// silently dropped.
    pub required: &'a [NodeId],
    /// The seed every random choice derives from.
    pub seed: u64,
    /// A [`SharedPool`] for threaded solvers to run on as one job; a
    /// threaded solve without one creates a pool for itself. Serial
    /// solvers ignore it.
    pub pool: Option<&'a SharedPool>,
    /// Cancellation, deadline and progress/incumbent observation
    /// ([`Capabilities::anytime`]); `None` runs to completion unobserved.
    pub control: Option<&'a JobControl>,
    /// A known group to beat. Solvers that can use one (the staged
    /// engine, the exact branch-and-bound) start from it when it is
    /// feasible for `instance`; it is a hint, never a constraint.
    pub incumbent: Option<&'a Group>,
}

impl<'a> SolveRequest<'a> {
    /// A plain solve of `instance` under `seed`: no required attendees,
    /// no pool, no control, no incumbent.
    pub fn new(instance: &'a Arc<WasoInstance>, seed: u64) -> Self {
        Self {
            instance,
            required: &[],
            seed,
            pool: None,
            control: None,
            incumbent: None,
        }
    }

    /// Sets the required attendees.
    pub fn required(mut self, required: &'a [NodeId]) -> Self {
        self.required = required;
        self
    }

    /// Sets (or clears) the pool threaded solvers run on.
    pub fn pool(mut self, pool: impl Into<Option<&'a SharedPool>>) -> Self {
        self.pool = pool.into();
        self
    }

    /// Runs the solve under `control`.
    pub fn control(mut self, control: &'a JobControl) -> Self {
        self.control = Some(control);
        self
    }

    /// Sets (or clears) the incumbent to beat.
    pub fn incumbent(mut self, incumbent: impl Into<Option<&'a Group>>) -> Self {
        self.incumbent = incumbent.into();
        self
    }

    /// The control policy of single-pass solvers (greedy, exact): a stop
    /// requested before the start returns [`SolveError::NoIncumbent`],
    /// `solve` runs to completion, and its result is published as the
    /// final stage.
    pub fn single_pass(
        &self,
        solve: impl FnOnce() -> Result<SolveResult, SolveError>,
    ) -> Result<SolveResult, SolveError> {
        if let Some(reason) = self.control.and_then(JobControl::stop_reason) {
            return Err(SolveError::NoIncumbent { reason });
        }
        let result = solve();
        if let (Some(control), Ok(res)) = (self.control, &result) {
            control.publish_stage(
                res.stats.stages,
                res.stats.samples_drawn,
                Some((res.group.willingness(), res.group.nodes())),
            );
        }
        result
    }
}

/// Common interface of all WASO solvers.
///
/// Implementations are deterministic functions of the
/// [`SolveRequest`]'s instance, required set, seed and incumbent —
/// rerunning with the same request yields the same group, for every pool
/// and every control that never trips (per-sample RNG streams; see
/// [`exec`]). What a solver honours beyond plain solving is declared
/// once, on its [`RegistryEntry::capabilities`].
pub trait Solver {
    /// Short machine-friendly name (`"dgreedy"`, `"cbas-nd"`, …).
    fn name(&self) -> &'static str;

    /// The worker count this solver would like from a [`SharedPool`], or
    /// `None` for serial solvers. Sessions use this to decide whether a
    /// solve is worth routing through (and lazily spawning) their shared
    /// pool.
    fn pool_threads(&self) -> Option<usize> {
        None
    }

    /// Solves `req`. Required attendees are enforced or rejected with
    /// [`SolveError::RequiredUnsupported`]; anytime solvers check
    /// `req.control` at every stage boundary and stream incumbents
    /// through it, single-pass ones follow [`SolveRequest::single_pass`].
    fn solve(&mut self, req: &SolveRequest<'_>) -> Result<SolveResult, SolveError>;
}

/// SplitMix64 — derives independent RNG streams from `(seed, stream ids)`.
/// Used so each (start node, stage) pair gets its own deterministic stream,
/// making thread count irrelevant to results.
#[inline]
pub(crate) fn mix_seed(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed ^ a.wrapping_mul(0x9E3779B97F4A7C15) ^ b.wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Per-sample RNG stream id for the staged solvers: every
/// `(start node, stage, sample)` triple draws from its own stream, so work
/// can be split across threads at *sample* granularity and still merge into
/// bit-identical results (OCBA concentrates most of a stage's budget on one
/// start node, so per-node parallelism alone would serialize).
#[inline]
pub(crate) fn sample_seed(seed: u64, start_idx: u64, stage: u64, sample: u64) -> u64 {
    mix_seed(mix_seed(seed, start_idx, stage), sample, 0x5EED_CAFE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_separates_streams() {
        let s = 42;
        let a = mix_seed(s, 0, 0);
        let b = mix_seed(s, 0, 1);
        let c = mix_seed(s, 1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Deterministic.
        assert_eq!(a, mix_seed(42, 0, 0));
    }

    #[test]
    fn solve_error_messages() {
        assert!(SolveError::NoFeasibleGroup
            .to_string()
            .contains("no feasible"));
        let e = SolveError::Invalid(CoreError::Disconnected);
        assert!(e.to_string().contains("connected"));
    }
}
