//! `CBAS-ND` — CBAS with Neighbour Differentiation (§4).
//!
//! Extends staged CBAS with per-start-node *node-selection probability
//! vectors* updated by the cross-entropy method ([`crate::cross_entropy`]):
//!
//! 1. stage 1 samples with the uniform vector `p_{i,1,j} = (k-1)/(n-1)`;
//! 2. after each stage, the top-ρ elite samples of each start node re-fit
//!    its vector via Eq. (4) with smoothing `w` (γ monotone across stages);
//! 3. budget moves between start nodes by the OCBA rule
//!    ([`crate::ocba`]) or its Gaussian variant
//!    ([`crate::gaussian`], `CBAS-ND-G` of Appendix A);
//! 4. optional backtracking (§4.4.2): when a vector's squared distance to
//!    its previous stage falls below `z_t`, the update is reverted so the
//!    next stage re-samples from the older, more diverse distribution.
//!
//! Theorem 6 shows this converges to the optimum faster than CBAS for the
//! same budget; the Figure 5/7/8 harnesses measure exactly that.
//!
//! CBAS-ND (and CBAS-ND-G) is [`crate::engine::StagedEngine::from_cbasnd`]
//! over a [`CbasNdConfig`] — cross-entropy candidate distribution,
//! uniform-OCBA or Gaussian allocation, serial or pooled execution per
//! [`CbasConfig::threads`]. This module holds the configuration; the
//! stage loop, prune accounting and best-tracking merge live in the
//! engine, the elite/γ update with the vectors in
//! [`crate::cross_entropy::update_vector`].
//!
//! Parallel CBAS-ND (§5.3.1, Figure 5(d)): "Since CBAS and CBAS-ND
//! natively support parallelization, we also implemented them with
//! OpenMP." With `threads` set, each stage's samples fan out across a
//! [`crate::SharedPool`] at **sample granularity** — necessary because
//! the OCBA allocation concentrates most of a stage's budget on the
//! incumbent start node, which would serialize any per-start-node split.
//! Every `(start node, stage, sample)` triple draws from its own RNG
//! stream, so the outcome is bit-identical for any thread count. The
//! paper reports a 7.6× speedup on 8 cores; the Figure 5(d) harness
//! sweeps the same thread counts on whatever cores this machine has.

use crate::cbas::CbasConfig;
use crate::gaussian::Allocation;

/// Configuration of CBAS-ND, run by
/// [`crate::engine::StagedEngine::from_cbasnd`].
#[derive(Debug, Clone)]
pub struct CbasNdConfig {
    /// The staged-CBAS parameters (budget, start nodes, stages, …).
    pub base: CbasConfig,
    /// Elite fraction ρ of the cross-entropy update (paper default 0.3).
    pub rho: f64,
    /// Smoothing weight `w` of the vector update (paper default 0.9).
    pub smoothing: f64,
    /// Backtracking threshold `z_t` (§4.4.2); `None` disables backtracking.
    pub backtrack_threshold: Option<f64>,
    /// Budget-allocation rule: uniform OCBA (paper default) or Gaussian
    /// (`CBAS-ND-G`, Appendix A).
    pub allocation: Allocation,
}

impl CbasNdConfig {
    /// Budget `T` with the paper's §5.1 defaults: ρ = 0.3, w = 0.9,
    /// uniform-OCBA allocation, no backtracking.
    pub fn with_budget(budget: u64) -> Self {
        Self {
            base: CbasConfig::with_budget(budget),
            rho: 0.3,
            smoothing: 0.9,
            backtrack_threshold: None,
            allocation: Allocation::UniformOcba,
        }
    }

    /// Small-budget preset for examples and doctests (T = 200, r = 4).
    pub fn fast() -> Self {
        Self {
            base: CbasConfig::fast(),
            ..Self::with_budget(200)
        }
    }

    /// Switches to the Gaussian allocation of Appendix A (`CBAS-ND-G`).
    pub fn gaussian(mut self) -> Self {
        self.allocation = Allocation::Gaussian;
        self
    }

    /// The CBAS-ND settings a [`crate::SolverSpec`] carries: the staged
    /// base ([`CbasConfig::from_spec`]) plus the cross-entropy knobs
    /// (ρ, smoothing `w`, §4.4.2 backtracking threshold).
    pub fn from_spec(spec: &crate::SolverSpec) -> Self {
        let defaults = Self::with_budget(spec.budget_or_default());
        Self {
            base: CbasConfig::from_spec(spec),
            rho: spec.rho.unwrap_or(defaults.rho),
            smoothing: spec.smoothing.unwrap_or(defaults.smoothing),
            backtrack_threshold: spec.backtrack,
            allocation: defaults.allocation,
        }
    }

    /// Enables §4.4.2 backtracking with threshold `z_t`.
    pub fn with_backtracking(mut self, z_t: f64) -> Self {
        self.backtrack_threshold = Some(z_t);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SolveError, SolveRequest, SolveResult, Solver, StagedEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use waso_core::WasoInstance;
    use waso_graph::{generate, GraphBuilder, NodeId, ScoreModel};

    /// Solves `instance` with CBAS-ND over `cfg`, growing every sample
    /// from `required`.
    fn cbas_nd(
        cfg: &CbasNdConfig,
        instance: &Arc<WasoInstance>,
        required: &[NodeId],
        seed: u64,
    ) -> Result<SolveResult, SolveError> {
        StagedEngine::from_cbasnd(cfg).solve(&SolveRequest::new(instance, seed).required(required))
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

    fn random_instance(n: usize, k: usize, seed: u64) -> Arc<WasoInstance> {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = generate::barabasi_albert(n, 3, &mut rng);
        let g = ScoreModel::paper_default().realize(&topo, &mut rng);
        Arc::new(WasoInstance::new(g, k).unwrap())
    }

    #[test]
    fn finds_the_figure1_optimum() {
        let res = cbas_nd(&CbasNdConfig::fast(), &figure1_instance(), &[], 1).unwrap();
        assert_eq!(res.group.willingness(), 30.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let inst = random_instance(50, 5, 1);
        let a = cbas_nd(&CbasNdConfig::fast(), &inst, &[], 9).unwrap();
        let b = cbas_nd(&CbasNdConfig::fast(), &inst, &[], 9).unwrap();
        assert_eq!(a.group, b.group);
        assert_eq!(a.stats.samples_drawn, b.stats.samples_drawn);
    }

    #[test]
    fn budget_accounting_is_exact() {
        let inst = random_instance(60, 6, 2);
        let mut cfg = CbasNdConfig::with_budget(120);
        cfg.base.stages = Some(4);
        let res = cbas_nd(&cfg, &inst, &[], 3).unwrap();
        assert_eq!(res.stats.samples_drawn, 120);
        assert_eq!(res.stats.stages, 4);
    }

    #[test]
    fn gaussian_variant_also_solves() {
        let inst = random_instance(50, 5, 3);
        let mut cfg = CbasNdConfig::with_budget(100).gaussian();
        cfg.base.stages = Some(4);
        let res = cbas_nd(&cfg, &inst, &[], 4).unwrap();
        assert_eq!(res.group.len(), 5);
        assert_eq!(res.stats.samples_drawn, 100);
    }

    #[test]
    fn backtracking_reverts_converged_vectors() {
        let inst = random_instance(40, 4, 5);
        // Huge threshold: every update counts as converged → reverts.
        let mut cfg = CbasNdConfig::with_budget(80).with_backtracking(1e9);
        cfg.base.stages = Some(4);
        let res = cbas_nd(&cfg, &inst, &[], 5).unwrap();
        assert!(res.stats.backtracks > 0);

        // Zero threshold: never converged → never reverts.
        let mut cfg = CbasNdConfig::with_budget(80).with_backtracking(0.0);
        cfg.base.stages = Some(4);
        let res = cbas_nd(&cfg, &inst, &[], 5).unwrap();
        assert_eq!(res.stats.backtracks, 0);
    }

    #[test]
    fn matches_or_beats_cbas_on_average() {
        // Theorem 6's claim, measured: same budget, averaged over seeds.
        use crate::Distribution;
        let inst = random_instance(120, 8, 7);
        let budget = 150u64;
        let mut nd_total = 0.0;
        let mut cbas_total = 0.0;
        for seed in 0..8 {
            let mut nd_cfg = CbasNdConfig::with_budget(budget);
            nd_cfg.base.stages = Some(5);
            let nd = cbas_nd(&nd_cfg, &inst, &[], seed).unwrap();
            let mut c_cfg = CbasConfig::with_budget(budget);
            c_cfg.stages = Some(5);
            let cb = StagedEngine::new(c_cfg, Distribution::Uniform)
                .solve(&SolveRequest::new(&inst, seed))
                .unwrap();
            nd_total += nd.group.willingness();
            cbas_total += cb.group.willingness();
        }
        assert!(
            nd_total >= cbas_total * 0.98,
            "CBAS-ND ({nd_total:.2}) should not lose to CBAS ({cbas_total:.2})"
        );
    }

    #[test]
    fn partial_seeding_keeps_confirmed_attendees() {
        let inst = random_instance(50, 6, 8);
        let seeds = [NodeId(0), NodeId(1)];
        // Ensure the seeds are adjacent in this BA graph (node 1 is in the
        // seed clique, node 0 too).
        let mut cfg = CbasNdConfig::with_budget(60);
        cfg.base.stages = Some(3);
        let res = cbas_nd(&cfg, &inst, &seeds, 2).unwrap();
        assert!(res.group.contains(NodeId(0)));
        assert!(res.group.contains(NodeId(1)));
        assert_eq!(res.group.len(), 6);
    }

    #[test]
    fn required_attendees_always_appear() {
        let inst = random_instance(60, 6, 21);
        let required = [NodeId(2), NodeId(3)];
        let mut cfg = CbasNdConfig::with_budget(80);
        cfg.base.stages = Some(3);
        let res = cbas_nd(&cfg, &inst, &required, 4).unwrap();
        for &v in &required {
            assert!(res.group.contains(v), "{v} missing from {}", res.group);
        }
        res.group.validate(&inst).expect("feasible group");
    }

    #[test]
    fn too_many_required_is_infeasible() {
        let inst = random_instance(30, 3, 22);
        let required: Vec<NodeId> = (0..4u32).map(NodeId).collect();
        let err = cbas_nd(&CbasNdConfig::fast(), &inst, &required, 0).unwrap_err();
        assert_eq!(err, SolveError::NoFeasibleGroup);
    }

    #[test]
    fn disconnected_required_set_is_bridged_or_rejected() {
        // Path 0-1-2-3-4: requiring {0, 4} with k = 5 forces the bridge
        // through all intermediate nodes.
        let mut b = waso_graph::GraphBuilder::new();
        let ids: Vec<NodeId> = (0..5).map(|i| b.add_node(i as f64)).collect();
        for w in ids.windows(2) {
            b.add_edge_symmetric(w[0], w[1], 1.0).unwrap();
        }
        let inst = Arc::new(WasoInstance::new(b.build(), 5).unwrap());
        let mut cfg = CbasNdConfig::with_budget(40);
        cfg.base.stages = Some(2);
        let res = cbas_nd(&cfg, &inst, &[NodeId(0), NodeId(4)], 1).unwrap();
        assert_eq!(res.group.len(), 5);
        res.group
            .validate(&inst)
            .expect("bridged group is connected");

        // k = 3 cannot connect 0 and 4 on a path — infeasible.
        let inst3 = Arc::new(
            WasoInstance::new(
                {
                    let mut b = waso_graph::GraphBuilder::new();
                    let ids: Vec<NodeId> = (0..5).map(|i| b.add_node(i as f64)).collect();
                    for w in ids.windows(2) {
                        b.add_edge_symmetric(w[0], w[1], 1.0).unwrap();
                    }
                    b.build()
                },
                3,
            )
            .unwrap(),
        );
        let err = cbas_nd(&cfg, &inst3, &[NodeId(0), NodeId(4)], 1).unwrap_err();
        assert_eq!(err, SolveError::NoFeasibleGroup);
    }

    #[test]
    fn start_override_is_respected() {
        let inst = figure1_instance();
        let mut cfg = CbasNdConfig::fast();
        cfg.base.start_override = Some(vec![NodeId(0)]);
        let res = cbas_nd(&cfg, &inst, &[], 0).unwrap();
        assert!(res.group.contains(NodeId(0)));
        assert_eq!(res.stats.start_nodes, 1);
    }
}
