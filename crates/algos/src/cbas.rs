//! `CBAS` — Computational Budget Allocation for Start nodes (§3).
//!
//! Phase 1 selects the `m` nodes with the largest `η + Σ incident τ` as
//! start nodes. Phase 2 runs `r` stages: each stage re-divides its share of
//! the total budget `T` across start nodes by the OCBA ratio of Theorem 3
//! (see [`crate::ocba`]), prunes zero-budget start nodes, and grows each
//! allocated sample by *uniform* random candidate selection
//! ([`crate::sampler`]). The best sampled solution over all stages is the
//! answer; Theorem 5 lower-bounds its expected quality
//! ([`crate::theory::expected_quality_ratio`]).
//!
//! CBAS is [`crate::engine::StagedEngine::new`] over a [`CbasConfig`]
//! with [`crate::Distribution::Uniform`]: uniform-OCBA allocation,
//! serial or pooled per [`CbasConfig::threads`]. This module holds the
//! configuration; the stage loop lives in the engine.

use waso_core::WasoInstance;
use waso_graph::{BitSet, NodeId};

use crate::ocba::derive_stages;
use crate::sampler::{default_num_start_nodes, select_start_nodes};

/// Configuration shared by CBAS and (via [`crate::CbasNdConfig`]) CBAS-ND.
#[derive(Debug, Clone)]
pub struct CbasConfig {
    /// Total computational budget `T` — the number of final solutions to
    /// sample (§3: "the tradeoff between the solution quality and execution
    /// time can be easily controlled by assigning different T").
    pub budget: u64,
    /// Number of start nodes `m`; `None` → the paper's default `⌈n/k⌉`.
    pub num_start_nodes: Option<usize>,
    /// Stage count `r`; `None` → derived per Example 1
    /// ([`crate::ocba::derive_stages`]).
    pub stages: Option<u32>,
    /// Closeness ratio α of Theorem 4 (paper default 0.99; Example 1 uses
    /// 0.9). Only used when `stages` is `None`.
    pub alpha: f64,
    /// Correct-selection probability target `P_b` (pseudo-code `P(CS)`,
    /// Example 1 uses 0.7). Only used when `stages` is `None`.
    pub p_b: f64,
    /// Pinned start nodes (user-study "-i" mode); overrides phase 1.
    pub start_override: Option<Vec<NodeId>>,
    /// Nodes that may not appear in any solution (declined invitees,
    /// §4.4.1).
    pub blocked: Option<BitSet>,
    /// Wall-clock deadline, measured from solve start. When it elapses
    /// the engine stops dealing work at the next stage boundary and
    /// returns the current incumbent tagged
    /// [`crate::Termination::Deadline`]. `None` (the default) never
    /// stops on time.
    pub deadline: Option<std::time::Duration>,
    /// Early-stop patience: after this many consecutive stages without an
    /// incumbent improvement the engine stops (a convergence stop —
    /// [`crate::Termination::Completed`] with `truncated` set). `None`
    /// runs every stage.
    pub patience: Option<u32>,
    /// Worker count (§5.3.1, Figure 5(d)). `None` samples serially on
    /// the calling thread; `Some(t)` deals each stage's samples across a
    /// [`crate::SharedPool`] — the caller's, or one of `t` workers created
    /// for the solve. Bit-identical to serial for every count.
    pub threads: Option<usize>,
}

impl CbasConfig {
    /// Budget `T` with the paper's defaults elsewhere.
    pub fn with_budget(budget: u64) -> Self {
        Self {
            budget,
            num_start_nodes: None,
            stages: None,
            alpha: 0.99,
            p_b: 0.7,
            start_override: None,
            blocked: None,
            deadline: None,
            patience: None,
            threads: None,
        }
    }

    /// A small-budget preset for examples and doctests (T = 200, r = 4).
    pub fn fast() -> Self {
        Self {
            stages: Some(4),
            ..Self::with_budget(200)
        }
    }

    /// The staged-sampling settings a [`crate::SolverSpec`] carries
    /// (budget, stages, start-node count, pinned starts, `threads=`, the
    /// anytime `deadline_ms=`/`patience=` knobs); everything else keeps the
    /// paper's defaults. Shared with [`crate::CbasNdConfig::from_spec`].
    ///
    /// `deadline_from_submit=` folds in by earliest-deadline-wins: a
    /// session arms it from the actual submit instant (so queue wait
    /// counts), but for direct `registry.build` callers — where submit
    /// and start coincide — treating it as a start-relative deadline
    /// keeps the knob from being silently inert.
    pub fn from_spec(spec: &crate::SolverSpec) -> Self {
        Self {
            stages: spec.stages,
            num_start_nodes: spec.start_nodes,
            start_override: spec.starts.clone(),
            deadline: spec
                .deadline_ms
                .into_iter()
                .chain(spec.deadline_from_submit)
                .min()
                .map(std::time::Duration::from_millis),
            patience: spec.patience,
            threads: spec.threads,
            ..Self::with_budget(spec.budget_or_default())
        }
    }

    pub(crate) fn resolve_starts(&self, instance: &WasoInstance) -> Vec<NodeId> {
        match &self.start_override {
            Some(s) => s.clone(),
            None => {
                let g = instance.graph();
                let m = self
                    .num_start_nodes
                    .unwrap_or_else(|| default_num_start_nodes(g.num_nodes(), instance.k()));
                select_start_nodes(g, m, self.blocked.as_ref())
            }
        }
    }

    pub(crate) fn resolve_stages(&self, instance: &WasoInstance, m: usize) -> u32 {
        self.stages.unwrap_or_else(|| {
            derive_stages(
                self.budget,
                instance.k(),
                instance.graph().num_nodes(),
                m,
                self.alpha,
                self.p_b,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Distribution, SolveError, SolveRequest, SolveResult, Solver, StagedEngine};
    use rand::SeedableRng;
    use std::sync::Arc;
    use waso_graph::{generate, GraphBuilder, ScoreModel};

    /// Solves `instance` with CBAS over `cfg`.
    fn cbas(
        cfg: CbasConfig,
        instance: &Arc<WasoInstance>,
        seed: u64,
    ) -> Result<SolveResult, SolveError> {
        StagedEngine::new(cfg, Distribution::Uniform).solve(&SolveRequest::new(instance, seed))
    }

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

    #[test]
    fn finds_the_figure1_optimum() {
        let res = cbas(CbasConfig::fast(), &figure1_instance(), 1).unwrap();
        assert_eq!(res.group.willingness(), 30.0);
        assert_eq!(res.group.nodes(), &[NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn budget_is_fully_spent_on_feasible_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let topo = generate::barabasi_albert(80, 4, &mut rng);
        let g = ScoreModel::paper_default().realize(&topo, &mut rng);
        let inst = Arc::new(WasoInstance::new(g, 6).unwrap());
        let cfg = CbasConfig {
            budget: 150,
            stages: Some(3),
            ..CbasConfig::with_budget(150)
        };
        let res = cbas(cfg, &inst, 2).unwrap();
        assert_eq!(res.stats.samples_drawn, 150);
        assert_eq!(res.stats.stages, 3);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let inst = figure1_instance();
        let a = cbas(CbasConfig::fast(), &inst, 11).unwrap();
        let b = cbas(CbasConfig::fast(), &inst, 11).unwrap();
        assert_eq!(a.group, b.group);
        assert_eq!(a.stats.samples_drawn, b.stats.samples_drawn);
    }

    #[test]
    fn more_budget_never_hurts_on_average() {
        // Weak sanity: with the same seed, T=200 ≥ quality of T=4 on a graph
        // where the optimum needs luck.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let topo = generate::watts_strogatz(60, 3, 0.2, &mut rng);
        let g = ScoreModel::paper_default().realize(&topo, &mut rng);
        let inst = Arc::new(WasoInstance::new(g, 5).unwrap());

        let small = cbas(
            CbasConfig {
                stages: Some(1),
                ..CbasConfig::with_budget(4)
            },
            &inst,
            3,
        )
        .unwrap();
        let large = cbas(
            CbasConfig {
                stages: Some(4),
                ..CbasConfig::with_budget(400)
            },
            &inst,
            3,
        )
        .unwrap();
        assert!(large.group.willingness() >= small.group.willingness());
    }

    #[test]
    fn blocked_nodes_never_selected() {
        let inst = figure1_instance();
        let mut blocked = BitSet::new(4);
        blocked.insert(3); // exclude v4 — the optimum must become 27
        let cfg = CbasConfig {
            blocked: Some(blocked),
            ..CbasConfig::fast()
        };
        let res = cbas(cfg, &inst, 1).unwrap();
        assert!(!res.group.contains(NodeId(3)));
        assert_eq!(res.group.willingness(), 27.0);
    }

    #[test]
    fn isolated_start_nodes_are_pruned_not_fatal() {
        // High-interest isolated node attracts a start slot but cannot grow.
        let mut b = GraphBuilder::new();
        let hub = b.add_node(100.0);
        let ids: Vec<NodeId> = (0..5).map(|i| b.add_node(i as f64 * 0.1)).collect();
        for w in ids.windows(2) {
            b.add_edge_symmetric(w[0], w[1], 1.0).unwrap();
        }
        let _ = hub;
        let inst = Arc::new(WasoInstance::new(b.build(), 3).unwrap());
        let cfg = CbasConfig {
            num_start_nodes: Some(3),
            stages: Some(2),
            ..CbasConfig::with_budget(60)
        };
        let res = cbas(cfg, &inst, 0).unwrap();
        assert!(!res.group.contains(NodeId(0)));
        assert!(res.stats.pruned_start_nodes >= 1);
    }

    #[test]
    fn infeasible_instance_reports_no_group() {
        // Singleton components, k = 2.
        let mut b = GraphBuilder::new();
        b.add_node(1.0);
        b.add_node(1.0);
        let inst = Arc::new(WasoInstance::new(b.build(), 2).unwrap());
        let err = cbas(CbasConfig::fast(), &inst, 0).unwrap_err();
        assert_eq!(err, SolveError::NoFeasibleGroup);
    }

    #[test]
    fn stage_override_and_derivation() {
        let inst = figure1_instance();
        let cfg = CbasConfig {
            stages: Some(7),
            ..CbasConfig::with_budget(70)
        };
        assert_eq!(cfg.resolve_stages(&inst, 2), 7);
        let derived = CbasConfig::with_budget(70);
        assert!(derived.resolve_stages(&inst, 2) >= 1);
    }
}
