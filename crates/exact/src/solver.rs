//! [`ExactSolver`] — the branch-and-bound behind the uniform [`Solver`]
//! interface, and its [`SolverRegistry`] registration.
//!
//! The paper's evaluation treats the IP/CPLEX optimum as just another
//! column next to the heuristics; this adapter makes that literal: the
//! CLI, the figure drivers, and `WasoSession` obtain the exact solver
//! through the same `SolverSpec` → registry path as everything else
//! (`exact`, or `exact:cap=1000000` for the anytime mode). The seed is
//! ignored — exact solving is deterministic — and a request's incumbent
//! ([`SolveRequest::incumbent`]) primes the lower bound exactly like the
//! paper's practice of seeding CPLEX with the heuristic solution.

use waso_algos::{
    Capabilities, RegistryEntry, SolveError, SolveRequest, SolveResult, Solver, SolverRegistry,
    SolverSpec, SolverStats, SpecError,
};

use crate::branch_bound::BranchBound;

/// Default expansion cap when a spec sets none: large enough to prove
/// optimality on every workload the harness ships, small enough to stay
/// anytime on adversarial inputs (the Figure 9 "capped" caveat).
pub const DEFAULT_CAP: u64 = 200_000_000;

/// Branch-and-bound exact solving as a [`Solver`].
#[derive(Debug, Clone, Default)]
pub struct ExactSolver {
    bb: BranchBound,
    /// Whether the last solve proved optimality (`None`
    /// before the first call). Exposed because the uniform interface has
    /// no channel for optimality certificates.
    last_optimal: Option<bool>,
}

impl ExactSolver {
    /// An uncapped exact solver.
    pub fn new() -> Self {
        Self::from_branch_bound(BranchBound::new())
    }

    /// Wraps a configured [`BranchBound`].
    pub fn from_branch_bound(bb: BranchBound) -> Self {
        Self {
            bb,
            last_optimal: None,
        }
    }

    /// The exact-solver settings a [`SolverSpec`] carries (`cap=N`).
    pub fn from_spec(spec: &SolverSpec) -> Result<Self, SpecError> {
        spec.ensure_only("exact", &["cap"])?;
        Ok(Self::from_branch_bound(BranchBound::with_cap(
            spec.cap.unwrap_or(DEFAULT_CAP),
        )))
    }

    /// Whether the last solve proved optimality (`None` before any solve).
    /// `Some(false)` means the expansion cap was hit and the result is the
    /// best *found*, the same caveat the paper's 10⁵-second CPLEX runs
    /// carry.
    pub fn last_was_optimal(&self) -> Option<bool> {
        self.last_optimal
    }
}

impl Solver for ExactSolver {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn solve(&mut self, req: &SolveRequest<'_>) -> Result<SolveResult, SolveError> {
        req.single_pass(|| {
            if !req.required.is_empty() {
                return Err(SolveError::RequiredUnsupported {
                    solver: self.name(),
                });
            }
            let t0 = std::time::Instant::now();
            let res = self
                .bb
                .solve(req.instance, req.incumbent)
                .ok_or(SolveError::NoFeasibleGroup)?;
            self.last_optimal = Some(res.optimal);
            Ok(SolveResult {
                group: res.group,
                stats: SolverStats {
                    // Tree expansions are the exact analogue of samples
                    // drawn: the unit of work the budget caps.
                    samples_drawn: res.nodes_explored,
                    stages: 1,
                    start_nodes: req.instance.graph().num_nodes() as u32,
                    // Cap hit: best-found, not a proven optimum — the
                    // uniform interface's channel for the Figure-9
                    // "capped" caveat.
                    truncated: !res.optimal,
                    elapsed: t0.elapsed(),
                    ..SolverStats::default()
                },
            })
        })
    }
}

/// Appends the `exact` entry to a registry (typically
/// [`SolverRegistry::builtin`]); `waso::registry()` calls this for you.
pub fn register_exact(registry: &mut SolverRegistry) {
    registry.register(RegistryEntry {
        name: "exact",
        aliases: &["bb", "ip"],
        label: "IP",
        summary: "exact branch-and-bound, the paper's CPLEX ground-truth role",
        capabilities: Capabilities {
            exact: true,
            ..Capabilities::default()
        },
        roster_rank: None,
        costly: true,
        options: &["cap"],
        build: |spec| Ok(Box::new(ExactSolver::from_spec(spec)?)),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use waso_core::WasoInstance;
    use waso_graph::GraphBuilder;

    fn figure1_instance() -> Arc<WasoInstance> {
        let mut b = GraphBuilder::new();
        let v1 = b.add_node(8.0);
        let v2 = b.add_node(7.0);
        let v3 = b.add_node(6.0);
        let v4 = b.add_node(5.0);
        b.add_edge_symmetric(v1, v2, 1.0).unwrap();
        b.add_edge_symmetric(v2, v3, 2.0).unwrap();
        b.add_edge_symmetric(v3, v4, 4.0).unwrap();
        Arc::new(WasoInstance::new(b.build(), 3).unwrap())
    }

    fn full_registry() -> SolverRegistry {
        let mut r = SolverRegistry::builtin();
        register_exact(&mut r);
        r
    }

    #[test]
    fn solves_through_the_uniform_interface() {
        let mut s = ExactSolver::new();
        let res = s
            .solve(&SolveRequest::new(&figure1_instance(), 123))
            .unwrap();
        assert_eq!(res.group.willingness(), 30.0);
        assert_eq!(s.last_was_optimal(), Some(true));
        assert!(res.stats.samples_drawn > 0);
    }

    #[test]
    fn seed_is_irrelevant() {
        let inst = figure1_instance();
        let a = ExactSolver::new()
            .solve(&SolveRequest::new(&inst, 0))
            .unwrap();
        let b = ExactSolver::new()
            .solve(&SolveRequest::new(&inst, u64::MAX))
            .unwrap();
        assert_eq!(a.group, b.group);
    }

    #[test]
    fn buildable_from_a_parsed_spec_string() {
        let registry = full_registry();
        let spec = registry.parse("exact:cap=1000000").unwrap();
        let res = registry
            .build(&spec)
            .unwrap()
            .solve(&SolveRequest::new(&figure1_instance(), 0))
            .unwrap();
        assert_eq!(res.group.willingness(), 30.0);
        // Aliases resolve too.
        assert_eq!(registry.parse("ip").unwrap().algorithm(), "exact");
    }

    #[test]
    fn incumbent_primes_without_changing_the_answer() {
        let inst = figure1_instance();
        let incumbent = ExactSolver::new()
            .solve(&SolveRequest::new(&inst, 0))
            .unwrap()
            .group;
        let mut primed = ExactSolver::new();
        let res = primed
            .solve(&SolveRequest::new(&inst, 0).incumbent(&incumbent))
            .unwrap();
        assert_eq!(res.group.willingness(), 30.0);
        assert!(primed.last_was_optimal().unwrap());
    }

    #[test]
    fn rejects_sampling_options() {
        let err = ExactSolver::from_spec(&SolverSpec::exact().budget(100))
            .err()
            .unwrap();
        assert_eq!(
            err,
            SpecError::UnsupportedOption {
                algorithm: "exact",
                key: "budget"
            }
        );
    }

    #[test]
    fn required_attendees_are_rejected_loudly() {
        let mut s = ExactSolver::new();
        let err = s
            .solve(&SolveRequest::new(&figure1_instance(), 0).required(&[waso_graph::NodeId(0)]))
            .unwrap_err();
        assert_eq!(err, SolveError::RequiredUnsupported { solver: "exact" });
    }
}
