//! `StagedEngine` — the one-and-only staged-sampling loop.
//!
//! The paper's whole solver family (§3 Algorithm 1, §4 Algorithm 2, the
//! §5.3.1 parallel runs, Appendix A's Gaussian variant) shares a single
//! algorithmic skeleton: select start nodes, then run `r` stages, each of
//! which (1) divides its share of the budget `T` across start nodes,
//! (2) prunes zero-allocation nodes, (3) grows the allocated samples by
//! randomized candidate selection, and (4) keeps the best solution seen.
//! This module implements that skeleton **once**, parameterized along
//! three orthogonal axes:
//!
//! * **allocation policy** — uniform split at stage 0, then either the
//!   OCBA ratio of Theorem 3 ([`crate::ocba::allocate_stage`]) or the
//!   Gaussian rule of Appendix A
//!   ([`crate::gaussian::allocate_stage_gaussian`]), selected by
//!   [`Allocation`];
//! * **candidate distribution** — [`Distribution::Uniform`] (CBAS) or
//!   [`Distribution::CrossEntropy`] per-start probability vectors updated
//!   after every stage ([`crate::cross_entropy::update_vector`], CBAS-ND,
//!   including growth from a required partial solution, the
//!   online-replanning path of §4.4.1);
//! * **execution** — serial on the calling thread, or, when
//!   [`CbasConfig::threads`] is set, as a job of a [`SharedPool`] (the
//!   caller's, or one created for the solve and dropped after it; see
//!   [`crate::exec`]).
//!
//! The engine is the one staged [`Solver`]: the [`crate::SolverRegistry`]
//! builds `cbas` as [`StagedEngine::new`] with [`Distribution::Uniform`],
//! and `cbas-nd`, `cbas-nd-g` and `cbas-nd-par` with
//! [`StagedEngine::from_cbasnd`]; [`Solver::name`] derives the paper's
//! name from the axes. A request's incumbent, when feasible, seeds the
//! best-so-far before the first sample (the online planner's replan from
//! the current plan).
//!
//! ## Determinism contract
//!
//! Every `(start node, stage, sample)` triple draws from its own RNG
//! stream (derived from the seed by SplitMix64) and the merge processes
//! results in sample order, so the outcome is **bit-identical for every
//! executor and pool width**; `tests/determinism.rs` and the `tests/properties.rs`
//! proptest pin this down.
//!
//! ## Budget accounting
//!
//! A start node whose component is smaller than `k` stalls
//! deterministically on its first draw; the engine charges it only the
//! samples actually drawn (historically the full stage allocation was
//! charged), so `Σ spent == samples_drawn` holds for every solve — the
//! engine debug-asserts it.
//!
//! ## Anytime control
//!
//! Every stage ends with a feasible incumbent, so the engine is an
//! *anytime* algorithm. A request's [`crate::JobControl`]
//! ([`crate::SolveRequest::control`]) exposes that: cancellation and the
//! `deadline=` wall-clock budget are checked at every stage boundary **and between samples
//! inside every executor** (a tripped control stops further draws
//! mid-chunk, abandons the in-flight stage, and returns the incumbent of
//! the last completed stage tagged with a typed [`crate::Termination`]),
//! `patience=` stops after N consecutive non-improving stages, and
//! progress plus each improving incumbent are published through the
//! control after every stage. The control can only decide *how many
//! stages run* — never what a stage computes: an abandoned stage is
//! discarded wholesale, never merged, so stopping mid-stage is
//! indistinguishable from stopping at the previous stage boundary. An
//! untripped control is bit-invisible, and the stages that ran before a
//! stop are bit-identical prefixes of the full solve.

use std::sync::Arc;
use std::time::Instant;

use waso_core::{Group, WasoInstance};
use waso_graph::NodeId;

use crate::cbas::CbasConfig;
use crate::cbasnd::CbasNdConfig;
use crate::cross_entropy::{update_vector, ProbabilityVector};
use crate::exec::{SerialExec, SharedPool, SolveCtx, StageExec, StageShared, WorkItem};
use crate::gaussian::{allocate_stage_gaussian, Allocation, GaussStats};
use crate::job::{JobControl, Termination};
use crate::ocba::{allocate_stage, stage_budgets, uniform_split, StartStats};
use crate::sampler::{Sample, Sampler};
use crate::{SolveError, SolveRequest, SolveResult, Solver, SolverStats};

/// The candidate-distribution axis: how a stage's samples pick the next
/// node from the frontier `VA`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Uniform selection over `VA` (CBAS, Algorithm 1 line 22).
    Uniform,
    /// Per-start-node selection vectors re-fit to each stage's elites by
    /// the cross-entropy method (CBAS-ND, Algorithm 2 lines 35–46).
    CrossEntropy {
        /// Elite fraction ρ (paper default 0.3).
        rho: f64,
        /// Smoothing weight `w` of Eq. (4) (paper default 0.9).
        smoothing: f64,
        /// §4.4.2 backtracking threshold `z_t`; `None` disables it.
        backtrack_threshold: Option<f64>,
    },
}

/// Where a solve's samples grow from.
#[derive(Clone, Copy)]
enum StartMode<'a> {
    /// Phase-1 start-node selection (normal solving).
    Fresh,
    /// Grow every sample from a fixed partial solution — the §4.4.1 online
    /// extension (confirmed attendees) and required-attendee solves.
    /// Samples are independent draws from the same seed set, so partial
    /// solves run serially or on a pool with bit-identical results.
    Partial(&'a [NodeId]),
}

/// The unified staged-sampling engine, and the one staged [`Solver`]. See
/// the module docs for the three axes; construction is via
/// [`StagedEngine::new`] (CBAS shape) or [`StagedEngine::from_cbasnd`]
/// (CBAS-ND shape). The worker count is [`CbasConfig::threads`].
#[derive(Debug, Clone)]
pub struct StagedEngine {
    base: CbasConfig,
    distribution: Distribution,
    allocation: Allocation,
}

impl StagedEngine {
    /// An engine over `base` with the given candidate distribution and
    /// uniform-OCBA allocation; `base.threads` selects the executor.
    pub fn new(base: CbasConfig, distribution: Distribution) -> Self {
        Self {
            base,
            distribution,
            allocation: Allocation::UniformOcba,
        }
    }

    /// The CBAS-ND family's engine: cross-entropy candidate distribution
    /// with the config's allocation rule (uniform OCBA or Gaussian).
    pub fn from_cbasnd(cfg: &CbasNdConfig) -> Self {
        Self {
            base: cfg.base.clone(),
            distribution: Distribution::CrossEntropy {
                rho: cfg.rho,
                smoothing: cfg.smoothing,
                backtrack_threshold: cfg.backtrack_threshold,
            },
            allocation: cfg.allocation,
        }
    }

    /// Rejects out-of-range distribution parameters. A typed error — not
    /// a panic — so user-supplied specs cannot take down a serving
    /// process; the registry builders reject the same ranges at build
    /// time, this is the backstop for programmatic construction.
    fn validate(&self) -> Result<(), SolveError> {
        if let Distribution::CrossEntropy { rho, smoothing, .. } = self.distribution {
            if !(rho > 0.0 && rho <= 1.0) {
                return Err(SolveError::BadParameter {
                    param: "rho",
                    value: rho.to_string(),
                    expected: "in (0, 1]",
                });
            }
            if !(0.0..=1.0).contains(&smoothing) {
                return Err(SolveError::BadParameter {
                    param: "smoothing",
                    value: smoothing.to_string(),
                    expected: "in [0, 1]",
                });
            }
        }
        Ok(())
    }

    /// Start-node selection, stage budgeting and shared-state setup —
    /// everything a solve does before its first sample, identical for
    /// every execution path.
    fn prepare(
        &self,
        instance: &WasoInstance,
        mode: StartMode<'_>,
    ) -> Result<(Vec<NodeId>, Vec<u64>, StageShared), SolveError> {
        let g = instance.graph();
        let n = g.num_nodes();
        let k = instance.k();

        // In Partial mode there is a single "virtual start": the seed set.
        let starts: Vec<NodeId> = match mode {
            StartMode::Fresh => self.base.resolve_starts(instance),
            StartMode::Partial(seeds) => {
                if seeds.is_empty() {
                    return Err(SolveError::NoFeasibleGroup);
                }
                vec![seeds[0]]
            }
        };
        if starts.is_empty() {
            return Err(SolveError::NoFeasibleGroup);
        }
        let m = starts.len();
        let budgets = stage_budgets(self.base.budget, self.base.resolve_stages(instance, m));

        let vectors: Vec<ProbabilityVector> = match self.distribution {
            Distribution::Uniform => Vec::new(),
            Distribution::CrossEntropy { .. } => starts
                .iter()
                .map(|&s| ProbabilityVector::uniform_for_start(n.max(2), k, s))
                .collect(),
        };
        Ok((starts, budgets, StageShared::new(vectors, m)))
    }

    /// The full solve, also returning the per-start-node statistics (test
    /// hook for the `spent == drawn` budget-accounting invariant).
    fn run(&self, req: &SolveRequest<'_>) -> Result<(SolveResult, Vec<StartStats>), SolveError> {
        let instance = req.instance;
        let mode = match req.required {
            [] => StartMode::Fresh,
            // Uniform sampling has no partial-solution growth; the
            // registry entry does not advertise required attendees.
            _ if self.distribution == Distribution::Uniform => {
                return Err(SolveError::RequiredUnsupported {
                    solver: self.name(),
                })
            }
            required if required.len() > instance.k() => return Err(SolveError::NoFeasibleGroup),
            required => StartMode::Partial(required),
        };
        let unobserved;
        let control = match req.control {
            Some(control) => control,
            None => {
                unobserved = JobControl::new();
                &unobserved
            }
        };
        let t0 = Instant::now(); // audit:allow(D2): wall-clock feeds SolverStats timing only — never sampling or group choice
        self.validate()?;
        if let Some(deadline) = self.base.deadline {
            control.arm_deadline(deadline);
        }
        let (starts, budgets, shared) = self.prepare(instance, mode)?;
        let seed = req.seed;

        // Partial-mode samples grow from the same seed set but are
        // independent draws, so every mode runs on either executor.
        let partial: Option<&[NodeId]> = match mode {
            StartMode::Partial(seeds) => Some(seeds),
            StartMode::Fresh => None,
        };
        let outcome = match self.base.threads {
            None => {
                let mut sampler = Sampler::for_instance(instance);
                sampler.set_blocked(self.base.blocked.clone());
                let mut exec = SerialExec {
                    instance,
                    shared: &shared,
                    sampler,
                    seed,
                    partial,
                    stop: Some(control.stop_state()),
                };
                self.stage_loop(
                    instance,
                    mode,
                    &starts,
                    &budgets,
                    &shared,
                    &mut exec,
                    control,
                    req.incumbent,
                )
            }
            Some(threads) => {
                let ctx = Arc::new(SolveCtx {
                    instance: Arc::clone(instance),
                    blocked: self.base.blocked.clone(),
                    shared,
                    seed,
                    partial: partial.map(<[NodeId]>::to_vec),
                    stop: Some(control.stop_state()),
                });
                // No pool handed in: this solve's own, joined on drop.
                let own_pool;
                let pool = match req.pool {
                    Some(pool) => pool,
                    None => {
                        own_pool = SharedPool::new(threads);
                        &own_pool
                    }
                };
                let mut job = pool.submit(Arc::clone(&ctx));
                self.stage_loop(
                    instance,
                    mode,
                    &starts,
                    &budgets,
                    &ctx.shared,
                    &mut job,
                    control,
                    req.incumbent,
                )
            }
        };
        self.finalize(instance, mode, t0, starts.len(), outcome)
    }

    /// Turns a stage loop's outcome into the validated result + stats.
    fn finalize(
        &self,
        instance: &WasoInstance,
        mode: StartMode<'_>,
        t0: Instant,
        m: usize,
        outcome: (BestSolution, Vec<StartStats>, Counters),
    ) -> Result<(SolveResult, Vec<StartStats>), SolveError> {
        let (best, stats, counters) = outcome;
        let (_, mut nodes) = best.ok_or(match counters.termination {
            // No incumbent after a full run: genuinely infeasible.
            Termination::Completed => SolveError::NoFeasibleGroup,
            // Stopped before the first feasible sample: say so instead of
            // claiming infeasibility.
            reason => SolveError::NoIncumbent { reason },
        })?;
        if let StartMode::Partial(seeds) = mode {
            debug_assert!(seeds.iter().all(|s| nodes.contains(s)));
        }
        nodes.sort_unstable();
        let group = Group::new(instance, nodes).map_err(SolveError::Invalid)?;
        debug_assert_eq!(
            stats.iter().map(|s| s.spent).sum::<u64>(),
            counters.drawn,
            "engine must charge exactly the samples it drew"
        );
        let result = SolveResult {
            group,
            stats: SolverStats {
                samples_drawn: counters.drawn,
                stages: counters.stages_done,
                start_nodes: m as u32,
                pruned_start_nodes: counters.pruned,
                backtracks: counters.backtracks,
                truncated: counters.stopped_early,
                termination: counters.termination,
                elapsed: t0.elapsed(),
            },
        };
        Ok((result, stats))
    }

    /// Validates the request's incumbent (if any) against this solve's
    /// instance, mode and blocked set, returning it as the initial
    /// best-so-far; samples then only replace it by strictly improving on
    /// it. Infeasible incumbents — wrong size, unknown or duplicate
    /// members, missing partial-mode seeds, blocked nodes, disconnected
    /// where connectivity is required — are silently dropped: the solve
    /// then cold-starts exactly as without the hint. The sample stream is
    /// untouched either way.
    fn incumbent_seed(
        &self,
        instance: &WasoInstance,
        mode: StartMode<'_>,
        incumbent: Option<&Group>,
    ) -> BestSolution {
        let nodes = incumbent?.nodes();
        if nodes.len() != instance.k() {
            return None;
        }
        if let StartMode::Partial(seeds) = mode {
            if !seeds.iter().all(|s| nodes.contains(s)) {
                return None;
            }
        }
        // Validates bounds, distinctness and (when required)
        // connectivity, and computes the incumbent's willingness.
        let group = Group::new(instance, nodes.to_vec()).ok()?;
        if let Some(blocked) = &self.base.blocked {
            if group.nodes().iter().any(|v| blocked.contains(v.index())) {
                return None;
            }
        }
        Some((group.willingness(), group.nodes().to_vec()))
    }

    /// The single stage loop every staged solver runs. Allocation, prune
    /// accounting, execution, in-order merge, best tracking, the
    /// cross-entropy update — and the anytime control (stage-boundary
    /// cancel/deadline checks, patience stops, progress publishing) — all
    /// live here, and only here.
    #[allow(clippy::too_many_arguments)]
    fn stage_loop(
        &self,
        instance: &WasoInstance,
        mode: StartMode<'_>,
        starts: &[NodeId],
        budgets: &[u64],
        shared: &StageShared,
        exec: &mut dyn StageExec,
        control: &JobControl,
        incumbent: Option<&Group>,
    ) -> (BestSolution, Vec<StartStats>, Counters) {
        let g = instance.graph();
        let m = starts.len();
        let gaussian = self.allocation == Allocation::Gaussian;

        let mut stats = vec![StartStats::new(); m];
        let mut gstats = if gaussian {
            vec![GaussStats::new(); m]
        } else {
            Vec::new()
        };
        let mut gammas = vec![f64::NEG_INFINITY; m];
        let mut best: BestSolution = self.incumbent_seed(instance, mode, incumbent);
        let mut counters = Counters::default();
        // Reused across stages: the flattened work list lives in `shared`
        // (workers read it), results and the per-start sample buffer here.
        let mut results: Vec<Option<Sample>> = Vec::new();
        let mut stage_samples: Vec<Sample> = Vec::new();
        // Spent samples' node buffers, fed back to the executor each stage
        // (and from there to the samplers — inside the chunk messages on
        // a pool), so steady-state sampling allocates nothing.
        let mut slab: Vec<Vec<NodeId>> = Vec::new();
        // Consecutive stages without an incumbent improvement (patience).
        let mut non_improving = 0u32;

        for (stage, &stage_budget) in budgets.iter().enumerate() {
            // The anytime boundary: a cancel or an elapsed deadline stops
            // the solve *between* stages — no further work is dealt, and
            // the incumbent of the stages that did run is the answer.
            if let Some(reason) = control.stop_reason() {
                counters.termination = reason;
                counters.stopped_early = true;
                break;
            }
            let best_before = best.as_ref().map(|(w, _)| *w);
            let alloc = if stage == 0 {
                uniform_split(stage_budget, m, &stats)
            } else {
                let a = match self.allocation {
                    Allocation::UniformOcba => allocate_stage(&stats, stage_budget),
                    Allocation::Gaussian => allocate_stage_gaussian(&gstats, stage_budget),
                };
                // §3.1: zero allocation at stage t prunes the node from t+1.
                for i in 0..m {
                    if a[i] == 0 && !stats[i].pruned && stats[i].sampled() {
                        stats[i].pruned = true;
                        if gaussian {
                            gstats[i].pruned = true;
                        }
                        counters.pruned += 1;
                    }
                }
                a
            };

            // Flatten the stage into independent sample-granularity items
            // (OCBA concentrates most of a stage's budget on the incumbent
            // start node, so per-node parallelism would serialize).
            let n_items = {
                let mut items = shared.write_items();
                items.clear();
                for (i, &ni) in alloc.iter().enumerate() {
                    for q in 0..ni {
                        items.push(WorkItem {
                            start_index: i as u32,
                            start: starts[i],
                            q,
                        });
                    }
                }
                items.len()
            };
            counters.stages_done += 1;
            if n_items == 0 {
                // Vacuous stage (every remaining start pruned/stalled):
                // nothing to deal, nothing to merge — but progress still
                // advances.
                control.publish_stage(counters.stages_done, counters.drawn, None);
                continue;
            }
            results.clear();
            results.resize(n_items, None);
            if !exec.run_stage(stage as u64, &mut results, &mut slab) {
                // The stop signal tripped mid-stage and the executor quit
                // early: some result slots were never drawn. Abandon the
                // stage wholesale — nothing merges, no stats move, the
                // stage counter rolls back — so the outcome is exactly
                // the solve that stopped at the previous stage boundary
                // (the bit-identical-prefix contract), just reached with
                // a far tighter overshoot bound than riding the stage
                // out. (Stall flags set during the abandoned stage are
                // harmless: a stall is a deterministic property of a
                // start node, and no further stage runs to see them.)
                counters.stages_done -= 1;
                counters.termination = control.stop_reason().unwrap_or(Termination::Cancelled);
                counters.stopped_early = true;
                break;
            }

            // Merge in (start node, sample) order — identical for every
            // executor, including the stop-at-first-stall accounting (a
            // stall is a property of the start node's component, so sample
            // 0 stalls iff they all do).
            let mut idx = 0usize;
            for (i, &ni) in alloc.iter().enumerate() {
                if ni == 0 {
                    continue;
                }
                let node_range = idx..idx + ni as usize;
                idx += ni as usize;

                stage_samples.clear();
                let mut attempted = 0u64;
                for j in node_range {
                    attempted += 1;
                    counters.drawn += 1;
                    match results[j].take() {
                        Some(s) => {
                            // Multi-seed growth can finish without bridging
                            // a disconnected required set — such samples
                            // are infeasible and simply discarded (they
                            // still consumed budget).
                            if let StartMode::Partial(seeds) = mode {
                                if seeds.len() > 1
                                    && instance.requires_connectivity()
                                    && !waso_graph::traversal::is_connected_subset(g, &s.nodes)
                                {
                                    slab.push(s.nodes);
                                    continue;
                                }
                            }
                            stats[i].record(s.willingness);
                            if gaussian {
                                gstats[i].moments.push(s.willingness);
                            }
                            if best.as_ref().is_none_or(|(bw, _)| s.willingness > *bw) {
                                best = Some((s.willingness, s.nodes.clone()));
                            }
                            stage_samples.push(s);
                        }
                        None => {
                            // Deterministic stall: the start's component is
                            // smaller than k. All further samples fail too.
                            if !stats[i].pruned {
                                stats[i].pruned = true;
                                if gaussian {
                                    gstats[i].pruned = true;
                                }
                                counters.pruned += 1;
                            }
                            break;
                        }
                    }
                }
                // Charge only what was actually drawn: a stalled node's
                // skipped remainder is never spent (Σ spent == drawn).
                stats[i].spent += attempted;
                if gaussian {
                    gstats[i].spent += attempted;
                }

                // Cross-entropy update (Algorithm 2 lines 35–46).
                if let Distribution::CrossEntropy {
                    rho,
                    smoothing,
                    backtrack_threshold,
                } = self.distribution
                {
                    if !stage_samples.is_empty() {
                        let mut vectors = shared.write_vectors();
                        counters.backtracks += update_vector(
                            &mut vectors[i],
                            &mut gammas[i],
                            &mut stage_samples,
                            rho,
                            smoothing,
                            backtrack_threshold,
                        ) as u32;
                    }
                }
                // The samples are fully consumed — their node buffers go
                // back into the slab for the next stage's draws.
                slab.extend(stage_samples.drain(..).map(|s| s.nodes));
            }

            // End-of-stage anytime bookkeeping: publish progress (and the
            // incumbent, when this stage improved it), then apply the
            // patience rule. None of this can change what any stage
            // computes — only whether the next one runs.
            let improved = match (best_before, &best) {
                (None, Some(_)) => true,
                (Some(before), Some((now, _))) => *now > before,
                _ => false,
            };
            control.publish_stage(
                counters.stages_done,
                counters.drawn,
                if improved {
                    best.as_ref().map(|(w, nodes)| (*w, nodes.as_slice()))
                } else {
                    None
                },
            );
            if let Some(patience) = self.base.patience {
                if improved {
                    non_improving = 0;
                } else {
                    non_improving += 1;
                    if non_improving >= patience && stage + 1 < budgets.len() {
                        // Convergence stop: the solve *completed* (its own
                        // stopping rule fired), but the budget was not
                        // fully spent — `truncated` records that.
                        counters.stopped_early = true;
                        break;
                    }
                }
            }
        }

        (best, stats, counters)
    }
}

impl Solver for StagedEngine {
    /// The paper's name for this configuration: uniform candidates are
    /// CBAS, cross-entropy ones CBAS-ND, or CBAS-ND-G under the Gaussian
    /// allocation rule.
    fn name(&self) -> &'static str {
        match (self.distribution, self.allocation) {
            (Distribution::Uniform, _) => "cbas",
            (Distribution::CrossEntropy { .. }, Allocation::UniformOcba) => "cbas-nd",
            (Distribution::CrossEntropy { .. }, Allocation::Gaussian) => "cbas-nd-g",
        }
    }

    fn pool_threads(&self) -> Option<usize> {
        self.base.threads
    }

    /// Runs the stage loop. The control is checked at every stage
    /// boundary *and between samples* — a cancel or an elapsed deadline
    /// abandons the in-flight stage and returns the incumbent of the last
    /// completed stage, tagged with the [`Termination`] reason — and
    /// progress (stages done, samples spent, improving incumbents) is
    /// published after every stage. A threaded engine runs as one job of
    /// `req.pool`, sharing its workers with every other job it serves
    /// (§5.3.1, Figure 5(d)); with no pool it creates one of its
    /// `threads` workers for the solve and drops it at the end. A worker
    /// panic is healed by the pool instead of failing the solve.
    ///
    /// Required attendees seed every sample's growth (CBAS-ND only;
    /// uniform CBAS rejects them). The required set need not be connected
    /// — samples that fail to bridge it are discarded, and
    /// [`SolveError::NoFeasibleGroup`] reports when none could.
    fn solve(&mut self, req: &SolveRequest<'_>) -> Result<SolveResult, SolveError> {
        self.run(req).map(|(result, _)| result)
    }
}

type BestSolution = Option<(f64, Vec<NodeId>)>;

#[derive(Debug, Default)]
struct Counters {
    drawn: u64,
    pruned: u32,
    backtracks: u32,
    /// Stages entered (vacuous ones included) — what
    /// [`SolverStats::stages`] reports.
    stages_done: u32,
    /// Why the loop ended; [`Termination::Completed`] unless a cancel or
    /// deadline broke it.
    termination: Termination,
    /// Any early break (cancel, deadline, patience) — sets
    /// [`SolverStats::truncated`].
    stopped_early: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waso_graph::{generate, GraphBuilder, ScoreModel};

    fn random_instance(n: usize, k: usize, seed: u64) -> Arc<WasoInstance> {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = generate::barabasi_albert(n, 3, &mut rng);
        let g = ScoreModel::paper_default().realize(&topo, &mut rng);
        Arc::new(WasoInstance::new(g, k).unwrap())
    }

    /// A graph with an isolated high-score node that attracts a start slot
    /// but stalls every draw.
    fn stalled_instance() -> Arc<WasoInstance> {
        let mut b = GraphBuilder::new();
        let hub = b.add_node(100.0);
        let ids: Vec<NodeId> = (0..6).map(|i| b.add_node(i as f64 * 0.1)).collect();
        for w in ids.windows(2) {
            b.add_edge_symmetric(w[0], w[1], 1.0).unwrap();
        }
        let _ = hub;
        Arc::new(WasoInstance::new(b.build(), 3).unwrap())
    }

    fn engine(budget: u64, stages: u32, m: usize, dist: Distribution) -> StagedEngine {
        let base = CbasConfig {
            stages: Some(stages),
            num_start_nodes: Some(m),
            ..CbasConfig::with_budget(budget)
        };
        StagedEngine::new(base, dist)
    }

    fn threaded(mut eng: StagedEngine, threads: Option<usize>) -> StagedEngine {
        eng.base.threads = threads;
        eng
    }

    /// Every way a solve executes: serial, a threaded solve on a pool of
    /// its own, and a threaded solve as a job of the attached `pool`.
    fn executors(pool: &SharedPool) -> [(Option<usize>, Option<&SharedPool>); 3] {
        [(None, None), (Some(3), None), (Some(3), Some(pool))]
    }

    const CE: Distribution = Distribution::CrossEntropy {
        rho: 0.3,
        smoothing: 0.9,
        backtrack_threshold: None,
    };

    #[test]
    fn stalled_starts_are_charged_only_drawn_samples() {
        // Budget-accounting regression: the stalled start breaks out of
        // its loop after one failed draw; `spent` must equal the draws
        // actually made, summing to `samples_drawn` exactly.
        for dist in [Distribution::Uniform, CE] {
            let eng = engine(60, 2, 3, dist);
            let (result, stats) = eng.run(&SolveRequest::new(&stalled_instance(), 0)).unwrap();
            let spent: u64 = stats.iter().map(|s| s.spent).sum();
            assert_eq!(spent, result.stats.samples_drawn, "{dist:?}");
            // The stalled start really was charged less than its stage-0
            // allocation (one failed draw, not 60/3 = 20).
            let stalled = stats
                .iter()
                .find(|s| !s.sampled())
                .expect("a stalled start");
            assert_eq!(stalled.spent, 1);
            assert!(result.stats.samples_drawn < 60, "skipped draws uncharged");
            assert!(result.stats.pruned_start_nodes >= 1);
        }
    }

    #[test]
    fn every_executor_charges_identically() {
        let inst = stalled_instance();
        let pool = SharedPool::new(4);
        let run = |threads, pool| {
            threaded(engine(60, 2, 3, CE), threads)
                .run(&SolveRequest::new(&inst, 0).pool(pool))
                .unwrap()
        };
        let (serial, s_stats) = run(None, None);
        for (threads, pool) in executors(&pool) {
            let (par, p_stats) = run(threads, pool);
            assert_eq!(serial.group, par.group, "{threads:?}");
            assert_eq!(serial.stats.samples_drawn, par.stats.samples_drawn);
            for (a, b) in s_stats.iter().zip(&p_stats) {
                assert_eq!(a.spent, b.spent);
                assert_eq!(a.pruned, b.pruned);
            }
        }
    }

    #[test]
    fn axes_compose_independently() {
        // Every (distribution, allocation, executor) combination solves
        // and spends the full budget on a feasible graph.
        let inst = random_instance(60, 5, 1);
        let pool = SharedPool::new(2);
        for dist in [Distribution::Uniform, CE] {
            for allocation in [Allocation::UniformOcba, Allocation::Gaussian] {
                for (threads, pool) in executors(&pool) {
                    let mut eng = threaded(engine(80, 4, 6, dist), threads);
                    eng.allocation = allocation;
                    let res = eng.solve(&SolveRequest::new(&inst, 7).pool(pool)).unwrap();
                    assert_eq!(res.stats.samples_drawn, 80, "{dist:?}/{allocation:?}");
                    assert_eq!(res.group.len(), 5);
                }
            }
        }
    }

    #[test]
    fn thread_count_never_changes_the_answer() {
        let inst = random_instance(80, 6, 2);
        let ce = Distribution::CrossEntropy {
            rho: 0.3,
            smoothing: 0.9,
            backtrack_threshold: Some(0.01),
        };
        let serial = engine(120, 4, 8, ce)
            .solve(&SolveRequest::new(&inst, 42))
            .unwrap();
        for threads in [1, 2, 4, 8] {
            let par = threaded(engine(120, 4, 8, ce), Some(threads))
                .solve(&SolveRequest::new(&inst, 42))
                .unwrap();
            assert_eq!(par.group, serial.group, "threads={threads}");
            assert_eq!(par.stats.samples_drawn, serial.stats.samples_drawn);
            assert_eq!(par.stats.backtracks, serial.stats.backtracks);
            assert_eq!(
                par.stats.pruned_start_nodes,
                serial.stats.pruned_start_nodes
            );
        }
    }

    #[test]
    fn partial_mode_is_executor_invariant() {
        // Partial solves are served by the pool too; every executor must
        // agree bit-for-bit.
        let inst = random_instance(50, 6, 8);
        let seeds = [NodeId(0), NodeId(1)];
        let a = engine(60, 3, 4, CE)
            .solve(&SolveRequest::new(&inst, 2).required(&seeds))
            .unwrap();
        let pool = SharedPool::new(2);
        for (threads, pool) in executors(&pool) {
            let b = threaded(engine(60, 3, 4, CE), threads)
                .solve(&SolveRequest::new(&inst, 2).required(&seeds).pool(pool))
                .unwrap();
            assert_eq!(a.group, b.group, "threads={threads:?}");
            assert_eq!(a.stats.samples_drawn, b.stats.samples_drawn);
        }
        assert!(a.group.contains(NodeId(0)) && a.group.contains(NodeId(1)));
    }

    #[test]
    fn attached_pool_solves_are_bit_identical_and_reusable() {
        // One SharedPool serving many solves — fresh and partial, across
        // different instances, with a worker count unrelated to the
        // engine's `threads` — must match the serial solve exactly.
        let pool = SharedPool::new(3);
        let ce = Distribution::CrossEntropy {
            rho: 0.3,
            smoothing: 0.9,
            backtrack_threshold: Some(0.01),
        };
        for seed in 0..3u64 {
            let inst = random_instance(60, 5, seed);
            let mut serial = engine(80, 4, 6, ce);
            let mut eng = threaded(serial.clone(), Some(7));
            let direct = serial.solve(&SolveRequest::new(&inst, seed)).unwrap();
            let pooled = eng
                .solve(&SolveRequest::new(&inst, seed).pool(&pool))
                .unwrap();
            assert_eq!(direct.group, pooled.group, "seed={seed}");
            assert_eq!(direct.stats.samples_drawn, pooled.stats.samples_drawn);

            let seeds = [NodeId(0), NodeId(1)];
            let direct = serial
                .solve(&SolveRequest::new(&inst, seed).required(&seeds))
                .unwrap();
            let pooled = eng
                .solve(&SolveRequest::new(&inst, seed).required(&seeds).pool(&pool))
                .unwrap();
            assert_eq!(direct.group, pooled.group, "partial seed={seed}");
            assert_eq!(direct.stats.backtracks, pooled.stats.backtracks);
        }
        assert_eq!(pool.stats().active_jobs, 0, "every job detached");
    }

    #[test]
    fn cancel_before_the_first_stage_returns_no_incumbent() {
        let inst = random_instance(40, 4, 1);
        let pool = SharedPool::new(2);
        for (threads, pool) in executors(&pool) {
            let mut eng = threaded(engine(200, 4, 3, Distribution::Uniform), threads);
            let control = JobControl::new();
            control.cancel();
            let err = eng
                .solve(&SolveRequest::new(&inst, 0).pool(pool).control(&control))
                .unwrap_err();
            assert_eq!(
                err,
                SolveError::NoIncumbent {
                    reason: Termination::Cancelled
                },
                "{threads:?}"
            );
            // Nothing was sampled: progress never moved.
            assert_eq!(control.progress().samples_spent, 0);
        }
    }

    #[test]
    fn zero_deadline_stops_before_sampling() {
        let inst = random_instance(40, 4, 2);
        let mut eng = engine(200, 4, 3, Distribution::Uniform);
        eng.base.deadline = Some(std::time::Duration::ZERO);
        let err = eng.solve(&SolveRequest::new(&inst, 0)).unwrap_err();
        assert_eq!(
            err,
            SolveError::NoIncumbent {
                reason: Termination::Deadline
            }
        );
    }

    #[test]
    fn deadline_mid_stage_abandons_the_stage_instead_of_riding_it_out() {
        // One enormous stage: a deadline that trips mid-stage must make
        // the executors quit between samples (chunk-granular checks), the
        // engine abandon the stage, and the whole solve return in roughly
        // deadline time — not after millions of further draws. The solve
        // stopped "before its first completed stage", so the typed
        // NoIncumbent error carries the deadline reason.
        let inst = random_instance(120, 6, 6);
        let pool = SharedPool::new(2);
        for (threads, pool) in executors(&pool) {
            let mut eng = threaded(engine(3_000_000, 1, 4, Distribution::Uniform), threads);
            let control = JobControl::new();
            control.arm_deadline(std::time::Duration::from_millis(40));
            let t0 = Instant::now();
            let err = eng
                .solve(&SolveRequest::new(&inst, 1).pool(pool).control(&control))
                .unwrap_err();
            let label = format!("threads={threads:?} attached={}", pool.is_some());
            assert!(
                t0.elapsed() < std::time::Duration::from_secs(5),
                "{label}: deadline overshoot was not bounded mid-stage"
            );
            assert_eq!(
                err,
                SolveError::NoIncumbent {
                    reason: Termination::Deadline
                },
                "{label}"
            );
            // The abandoned stage never merged: no samples were charged.
            assert_eq!(control.progress().samples_spent, 0, "{label}");
        }
        // The attached pool keeps serving jobs after the abandoned one.
        let res = threaded(engine(200, 2, 4, Distribution::Uniform), Some(2))
            .solve(&SolveRequest::new(&inst, 2).pool(&pool))
            .unwrap();
        assert_eq!(res.stats.samples_drawn, 200);
    }

    #[test]
    fn cancel_mid_solve_returns_the_current_incumbent_as_a_prefix() {
        // Cancelling after stage s must return exactly what the first s
        // stages of the uncancelled solve produced — the prefix property
        // behind "handle results are bit-identical truncations".
        // 40 stages of 1k samples each: the cancel (sent the moment the
        // first incumbent arrives) lands tens of stages before the end.
        let inst = random_instance(60, 5, 3);
        let mut eng = engine(40_000, 40, 4, Distribution::Uniform);
        let control = JobControl::new();
        let rx = control.take_incumbents();
        // Cancel as soon as the first incumbent lands: a racing watcher
        // thread, like a serving cancel would be.
        let cancelled = std::thread::scope(|scope| {
            let control = &control;
            scope.spawn(move || {
                let _ = rx.recv(); // first improving stage completed
                control.cancel();
            });
            eng.solve(&SolveRequest::new(&inst, 7).control(control))
        })
        .unwrap();
        assert_eq!(cancelled.stats.termination, Termination::Cancelled);
        assert!(cancelled.stats.truncated);
        assert!(cancelled.stats.stages < 40, "stopped before every stage");
        assert!(cancelled.stats.samples_drawn < 40_000, "budget not spent");
        // The full solve's stage prefix agrees bit-for-bit: replay it
        // with a patience-free engine and compare the incumbent after the
        // same number of stages via the incumbent stream.
        let full_control = JobControl::new();
        let full_rx = full_control.take_incumbents();
        let full = eng
            .solve(&SolveRequest::new(&inst, 7).control(&full_control))
            .unwrap();
        assert_eq!(full.stats.samples_drawn, 40_000);
        full_control.finish();
        let best_at_stage: Vec<_> = full_rx.iter().collect();
        let prefix_best = best_at_stage
            .iter()
            .rfind(|i| i.stage <= cancelled.stats.stages)
            .expect("the cancelled run saw at least one incumbent");
        let mut prefix_nodes = prefix_best.nodes.clone();
        prefix_nodes.sort_unstable();
        assert_eq!(
            prefix_nodes,
            cancelled.group.nodes(),
            "cancelled incumbent != full run's incumbent at that stage"
        );
        assert_eq!(full.stats.termination, Termination::Completed);
        assert!(!full.stats.truncated);
    }

    #[test]
    fn patience_stops_after_consecutive_non_improving_stages() {
        // A tiny path graph: the optimum is found in the first stages,
        // after which nothing can improve — patience=2 must cut the
        // remaining stages short.
        let inst = stalled_instance(); // path of 6 + isolated hub, k = 3
        let mut eng = {
            let mut e = engine(400, 20, 2, Distribution::Uniform);
            e.base.patience = Some(2);
            e
        };
        let res = eng.solve(&SolveRequest::new(&inst, 1)).unwrap();
        assert_eq!(res.stats.termination, Termination::Completed);
        assert!(res.stats.truncated, "patience stop is a truncation");
        assert!(res.stats.stages < 20, "stopped early: {}", res.stats.stages);
        assert!(res.stats.samples_drawn < 400);
        // Quality matches the full run (nothing was improving anyway).
        let full = engine(400, 20, 2, Distribution::Uniform)
            .solve(&SolveRequest::new(&inst, 1))
            .unwrap();
        assert_eq!(res.group, full.group);
    }

    #[test]
    fn untripped_control_is_bit_invisible() {
        let inst = random_instance(50, 5, 4);
        let ce = Distribution::CrossEntropy {
            rho: 0.3,
            smoothing: 0.9,
            backtrack_threshold: Some(0.01),
        };
        let plain = engine(100, 4, 6, ce)
            .solve(&SolveRequest::new(&inst, 9))
            .unwrap();
        let control = JobControl::new();
        control.arm_deadline(std::time::Duration::from_secs(3600));
        let watched = engine(100, 4, 6, ce)
            .solve(&SolveRequest::new(&inst, 9).control(&control))
            .unwrap();
        assert_eq!(plain.group, watched.group);
        assert_eq!(plain.stats.samples_drawn, watched.stats.samples_drawn);
        assert_eq!(plain.stats.backtracks, watched.stats.backtracks);
        assert_eq!(watched.stats.termination, Termination::Completed);
        // Progress was published along the way. (The published incumbent
        // value is the sampler's accumulated sum; `Group::willingness`
        // recomputes it in sorted-node order — equal up to float
        // associativity.)
        let p = control.progress();
        assert_eq!(p.stages_done, 4);
        assert_eq!(p.samples_spent, 100);
        let published = p.incumbent.expect("an incumbent was published");
        assert!((published - watched.group.willingness()).abs() < 1e-9);
    }

    #[test]
    fn incumbent_stream_is_strictly_improving_and_ends_at_the_answer() {
        let inst = random_instance(60, 5, 5);
        let control = JobControl::new();
        let rx = control.take_incumbents();
        let res = engine(120, 6, 5, Distribution::Uniform)
            .solve(&SolveRequest::new(&inst, 3).control(&control))
            .unwrap();
        control.finish();
        let stream: Vec<_> = rx.iter().collect();
        assert!(!stream.is_empty());
        for pair in stream.windows(2) {
            assert!(pair[1].willingness > pair[0].willingness);
            assert!(pair[1].stage > pair[0].stage);
        }
        let last = stream.last().unwrap();
        assert!((last.willingness - res.group.willingness()).abs() < 1e-9);
        let mut nodes = last.nodes.clone();
        nodes.sort_unstable();
        assert_eq!(nodes, res.group.nodes());
    }

    #[test]
    fn bad_parameters_error_instead_of_panicking() {
        let inst = random_instance(20, 3, 0);
        for (rho, smoothing, param) in [
            (0.0, 0.9, "rho"),
            (-0.5, 0.9, "rho"),
            (1.5, 0.9, "rho"),
            (f64::NAN, 0.9, "rho"),
            (0.3, -0.1, "smoothing"),
            (0.3, 1.1, "smoothing"),
            (0.3, f64::NAN, "smoothing"),
        ] {
            let mut eng = engine(
                40,
                2,
                3,
                Distribution::CrossEntropy {
                    rho,
                    smoothing,
                    backtrack_threshold: None,
                },
            );
            match eng.solve(&SolveRequest::new(&inst, 0)) {
                Err(SolveError::BadParameter { param: p, .. }) => assert_eq!(p, param),
                other => {
                    panic!("rho={rho} smoothing={smoothing}: expected BadParameter, got {other:?}")
                }
            }
        }
    }
}
