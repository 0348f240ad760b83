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
//! [`CbasNd`] is a thin configuration over the shared
//! [`crate::engine::StagedEngine`] — cross-entropy candidate distribution,
//! uniform-OCBA or Gaussian allocation, serial or pooled execution per
//! [`CbasConfig::threads`]. The stage loop, prune accounting and
//! best-tracking merge live in the engine; the elite/γ update lives with
//! the vectors in [`crate::cross_entropy::update_vector`].
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

use waso_core::WasoInstance;
use waso_graph::NodeId;

use crate::cbas::CbasConfig;
use crate::engine::{StagedEngine, StartMode};
use crate::gaussian::Allocation;
use crate::{SolveError, SolveResult, Solver};

/// Configuration of [`CbasNd`].
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

/// The CBAS-ND solver: [`crate::engine::StagedEngine`] with the
/// cross-entropy candidate distribution — serial by default, pooled when
/// `config.base.threads` is set (`cbas-nd:threads=N`).
#[derive(Debug, Clone)]
pub struct CbasNd {
    config: CbasNdConfig,
    /// Incumbent offered via [`Solver::warm_start`], forwarded to the
    /// engine so the best-so-far starts from it instead of from nothing.
    incumbent: Option<Vec<NodeId>>,
}

impl CbasNd {
    /// Creates the solver (serial unless `config.base.threads` is set).
    pub fn new(config: CbasNdConfig) -> Self {
        Self {
            config,
            incumbent: None,
        }
    }

    /// Creates the solver with `threads` pool workers. Same answer as
    /// serial CBAS-ND for any count.
    pub fn with_threads(mut config: CbasNdConfig, threads: usize) -> Self {
        config.base.threads = Some(threads);
        Self::new(config)
    }

    /// The configuration in use.
    pub fn config(&self) -> &CbasNdConfig {
        &self.config
    }

    /// Crate alias used by the online planner (the confirmed attendees
    /// seed every sample). Same contract as the
    /// [`Solver::solve_with_required`] implementation below.
    pub(crate) fn solve_with_seeds(
        &mut self,
        instance: &WasoInstance,
        seeds: &[NodeId],
        seed: u64,
    ) -> Result<SolveResult, SolveError> {
        Solver::solve_with_required(self, instance, seeds, seed)
    }

    fn engine(&self) -> StagedEngine {
        let engine = StagedEngine::from_cbasnd(&self.config);
        match &self.incumbent {
            Some(nodes) => engine.warm_start(nodes.clone()),
            None => engine,
        }
    }
}

impl Solver for CbasNd {
    fn name(&self) -> &'static str {
        match self.config.allocation {
            Allocation::UniformOcba => "cbas-nd",
            Allocation::Gaussian => "cbas-nd-g",
        }
    }

    fn capabilities(&self) -> crate::Capabilities {
        crate::Capabilities {
            required_attendees: true, // partial-mode growth, pooled too
            parallel: self.config.base.threads.is_some(),
            randomized: true,
            anytime: true,
            warm_start: true,
            ..crate::Capabilities::default()
        }
    }

    /// Stores the incumbent; every subsequent solve seeds its
    /// best-so-far from it (when feasible — see
    /// [`StagedEngine::warm_start`]). The sample stream is untouched, so
    /// a warm-started solve is a pure function of
    /// (instance, config, seed, incumbent).
    fn warm_start(&mut self, incumbent: &waso_core::Group) {
        self.incumbent = Some(incumbent.nodes().to_vec());
    }

    fn solve_seeded(
        &mut self,
        instance: &WasoInstance,
        seed: u64,
    ) -> Result<SolveResult, SolveError> {
        self.engine().solve(instance, StartMode::Fresh, seed)
    }

    /// Solves with *required attendees*: every sample grows from the given
    /// partial solution, so all `required` nodes appear in the answer.
    ///
    /// This powers two paper features: the §4.4.1 online extension (the
    /// confirmed attendees are required) and the §6 future-work item
    /// "allow users to specify some attendees that must be included in a
    /// certain group activity".
    ///
    /// `required` must contain no duplicates or blocked nodes and have at
    /// most `k` members. The required set itself need not be connected —
    /// feasibility of the full group is validated on the way out
    /// (`Err(SolveError::NoFeasibleGroup)` when no sample can connect
    /// everything).
    fn solve_with_required(
        &mut self,
        instance: &WasoInstance,
        required: &[NodeId],
        seed: u64,
    ) -> Result<SolveResult, SolveError> {
        if required.is_empty() {
            return self.solve_seeded(instance, seed);
        }
        if required.len() > instance.k() {
            return Err(SolveError::NoFeasibleGroup);
        }
        self.engine()
            .solve(instance, StartMode::Partial(required), seed)
    }

    fn pool_threads(&self) -> Option<usize> {
        self.config.base.threads
    }

    /// Anytime CBAS-ND: stage-boundary cancel/deadline checks,
    /// `patience=` convergence stops and incumbent streaming, for fresh
    /// and required-attendee solves alike — as a job of `pool` when one
    /// is given and `threads` is set.
    fn solve_controlled(
        &mut self,
        instance: &std::sync::Arc<waso_core::WasoInstance>,
        required: &[NodeId],
        seed: u64,
        pool: Option<&crate::SharedPool>,
        control: &crate::JobControl,
    ) -> Result<SolveResult, SolveError> {
        if required.len() > instance.k() {
            return Err(SolveError::NoFeasibleGroup);
        }
        let mode = if required.is_empty() {
            StartMode::Fresh
        } else {
            StartMode::Partial(required)
        };
        self.engine().solve_job(instance, mode, seed, pool, control)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waso_graph::{generate, GraphBuilder, ScoreModel};

    fn figure1_instance() -> WasoInstance {
        let mut b = GraphBuilder::new();
        let v1 = b.add_node(8.0);
        let v2 = b.add_node(7.0);
        let v3 = b.add_node(6.0);
        let v4 = b.add_node(5.0);
        b.add_edge_symmetric(v1, v2, 1.0).unwrap();
        b.add_edge_symmetric(v2, v3, 2.0).unwrap();
        b.add_edge_symmetric(v3, v4, 4.0).unwrap();
        WasoInstance::new(b.build(), 3).unwrap()
    }

    fn random_instance(n: usize, k: usize, seed: u64) -> WasoInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = generate::barabasi_albert(n, 3, &mut rng);
        let g = ScoreModel::paper_default().realize(&topo, &mut rng);
        WasoInstance::new(g, k).unwrap()
    }

    #[test]
    fn finds_the_figure1_optimum() {
        let mut solver = CbasNd::new(CbasNdConfig::fast());
        let res = solver.solve_seeded(&figure1_instance(), 1).unwrap();
        assert_eq!(res.group.willingness(), 30.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let inst = random_instance(50, 5, 1);
        let a = CbasNd::new(CbasNdConfig::fast())
            .solve_seeded(&inst, 9)
            .unwrap();
        let b = CbasNd::new(CbasNdConfig::fast())
            .solve_seeded(&inst, 9)
            .unwrap();
        assert_eq!(a.group, b.group);
        assert_eq!(a.stats.samples_drawn, b.stats.samples_drawn);
    }

    #[test]
    fn budget_accounting_is_exact() {
        let inst = random_instance(60, 6, 2);
        let mut cfg = CbasNdConfig::with_budget(120);
        cfg.base.stages = Some(4);
        let res = CbasNd::new(cfg).solve_seeded(&inst, 3).unwrap();
        assert_eq!(res.stats.samples_drawn, 120);
        assert_eq!(res.stats.stages, 4);
    }

    #[test]
    fn gaussian_variant_also_solves() {
        let inst = random_instance(50, 5, 3);
        let mut cfg = CbasNdConfig::with_budget(100).gaussian();
        cfg.base.stages = Some(4);
        let mut solver = CbasNd::new(cfg);
        assert_eq!(solver.name(), "cbas-nd-g");
        let res = solver.solve_seeded(&inst, 4).unwrap();
        assert_eq!(res.group.len(), 5);
        assert_eq!(res.stats.samples_drawn, 100);
    }

    #[test]
    fn backtracking_reverts_converged_vectors() {
        let inst = random_instance(40, 4, 5);
        // Huge threshold: every update counts as converged → reverts.
        let mut cfg = CbasNdConfig::with_budget(80).with_backtracking(1e9);
        cfg.base.stages = Some(4);
        let res = CbasNd::new(cfg).solve_seeded(&inst, 5).unwrap();
        assert!(res.stats.backtracks > 0);

        // Zero threshold: never converged → never reverts.
        let mut cfg = CbasNdConfig::with_budget(80).with_backtracking(0.0);
        cfg.base.stages = Some(4);
        let res = CbasNd::new(cfg).solve_seeded(&inst, 5).unwrap();
        assert_eq!(res.stats.backtracks, 0);
    }

    #[test]
    fn matches_or_beats_cbas_on_average() {
        // Theorem 6's claim, measured: same budget, averaged over seeds.
        use crate::cbas::{Cbas, CbasConfig};
        let inst = random_instance(120, 8, 7);
        let budget = 150u64;
        let mut nd_total = 0.0;
        let mut cbas_total = 0.0;
        for seed in 0..8 {
            let mut nd_cfg = CbasNdConfig::with_budget(budget);
            nd_cfg.base.stages = Some(5);
            let nd = CbasNd::new(nd_cfg).solve_seeded(&inst, seed).unwrap();
            let mut c_cfg = CbasConfig::with_budget(budget);
            c_cfg.stages = Some(5);
            let cb = Cbas::new(c_cfg).solve_seeded(&inst, seed).unwrap();
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
        let res = CbasNd::new(cfg).solve_with_seeds(&inst, &seeds, 2).unwrap();
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
        let res = CbasNd::new(cfg)
            .solve_with_required(&inst, &required, 4)
            .unwrap();
        for &v in &required {
            assert!(res.group.contains(v), "{v} missing from {}", res.group);
        }
        res.group.validate(&inst).expect("feasible group");
    }

    #[test]
    fn too_many_required_is_infeasible() {
        let inst = random_instance(30, 3, 22);
        let required: Vec<NodeId> = (0..4u32).map(NodeId).collect();
        let err = CbasNd::new(CbasNdConfig::fast())
            .solve_with_required(&inst, &required, 0)
            .unwrap_err();
        assert_eq!(err, crate::SolveError::NoFeasibleGroup);
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
        let inst = WasoInstance::new(b.build(), 5).unwrap();
        let mut cfg = CbasNdConfig::with_budget(40);
        cfg.base.stages = Some(2);
        let res = CbasNd::new(cfg.clone())
            .solve_with_required(&inst, &[NodeId(0), NodeId(4)], 1)
            .unwrap();
        assert_eq!(res.group.len(), 5);
        res.group
            .validate(&inst)
            .expect("bridged group is connected");

        // k = 3 cannot connect 0 and 4 on a path — infeasible.
        let inst3 = WasoInstance::new(
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
        .unwrap();
        let err = CbasNd::new(cfg)
            .solve_with_required(&inst3, &[NodeId(0), NodeId(4)], 1)
            .unwrap_err();
        assert_eq!(err, crate::SolveError::NoFeasibleGroup);
    }

    #[test]
    fn threads_and_attached_pools_match_serial_bitwise() {
        // Fresh and required-attendee solves, both allocation rules:
        // every thread count (including more workers than samples) and a
        // job on an attached pool reproduce the serial solve exactly.
        let inst = std::sync::Arc::new(random_instance(80, 6, 1));
        let pool = crate::SharedPool::new(3);
        let required = [NodeId(0), NodeId(1)];
        for gaussian in [false, true] {
            let mut cfg = CbasNdConfig::with_budget(120);
            cfg.base.stages = Some(4);
            if gaussian {
                cfg = cfg.gaussian();
            }
            for req in [&[][..], &required[..]] {
                let serial = CbasNd::new(cfg.clone())
                    .solve_with_required(&inst, req, 42)
                    .unwrap();
                let mut runs = Vec::new();
                for threads in [0, 1, 2, 4, 16] {
                    runs.push(
                        CbasNd::with_threads(cfg.clone(), threads)
                            .solve_with_required(&inst, req, 42)
                            .unwrap(),
                    );
                }
                runs.push(
                    CbasNd::with_threads(cfg.clone(), 2)
                        .solve_controlled(&inst, req, 42, Some(&pool), &crate::JobControl::new())
                        .unwrap(),
                );
                for par in runs {
                    assert_eq!(par.group, serial.group, "gaussian={gaussian} req={req:?}");
                    assert_eq!(par.stats.samples_drawn, serial.stats.samples_drawn);
                    assert_eq!(par.stats.backtracks, serial.stats.backtracks);
                    assert_eq!(
                        par.stats.pruned_start_nodes,
                        serial.stats.pruned_start_nodes
                    );
                }
            }
        }
        assert_eq!(pool.respawned_workers(), 0);
    }

    #[test]
    fn start_override_is_respected() {
        let inst = figure1_instance();
        let mut cfg = CbasNdConfig::fast();
        cfg.base.start_override = Some(vec![NodeId(0)]);
        let res = CbasNd::new(cfg).solve_seeded(&inst, 0).unwrap();
        assert!(res.group.contains(NodeId(0)));
        assert_eq!(res.stats.start_nodes, 1);
    }
}
