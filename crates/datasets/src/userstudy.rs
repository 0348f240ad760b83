//! The simulated user study (§5.2, Figure 4).
//!
//! The paper recruited 137 people, gave each ten planning problems over
//! ego networks extracted from their own Facebook accounts, and compared
//! their manual groups to CBAS-ND's. We cannot recruit humans here;
//! instead, [`ManualPlanner`] models the documented behaviour of the
//! participants:
//!
//! * **myopia** — people grow the group one friend at a time, looking only
//!   at the current frontier;
//! * **bounded attention** — at most ~7 candidates examined per step
//!   (Miller's 7±2), chosen haphazardly from the frontier;
//! * **noisy value perception** — multiplicative log-normal noise on each
//!   candidate's perceived gain, with tightness overweighted relative to
//!   interest (the social component is what people *feel*);
//! * **fatigue** — a patience budget on candidate evaluations; past it the
//!   participant "starts to give up" (§5.2 observes this at n = 30 and
//!   k = 13) and completes the group hastily at random;
//! * **modeled time** — seconds per considered candidate, so Figure 4(c)/(e)
//!   report *modeled human seconds*, clearly not wall-clock.
//!
//! λ preferences ([`sample_lambda`]) follow the Figure 4(a) histogram
//! (support 0.37–0.66, mean ≈ 0.503); opinions ([`Opinion::judge`])
//! compare the two solutions the way §5.2's exit question did.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use waso_core::{Group, WasoInstance};
use waso_graph::{subgraph, NodeId};
use waso_stats::normal;

use crate::synthetic;

/// Figure 4(a)'s λ histogram: bin edges and the calibrated bin masses
/// (chosen to match the paper's reported support `[0.37, 0.66]` and mean
/// 0.503; see EXPERIMENTS.md).
pub const LAMBDA_BINS: [(f64, f64, f64); 5] = [
    (0.37, 0.45, 0.20),
    (0.45, 0.50, 0.28),
    (0.50, 0.55, 0.32),
    (0.55, 0.60, 0.12),
    (0.60, 0.66, 0.08),
];

/// Draws one participant's λ preference from the Figure 4(a) mixture.
pub fn sample_lambda<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let mut t: f64 = rng.random();
    for &(lo, hi, mass) in &LAMBDA_BINS {
        if t < mass {
            return rng.random_range(lo..hi);
        }
        t -= mass;
    }
    // Floating-point slack: land in the last bin.
    let (lo, hi, _) = LAMBDA_BINS[LAMBDA_BINS.len() - 1];
    rng.random_range(lo..hi)
}

/// How a simulated participant coordinates a group by hand.
#[derive(Debug, Clone)]
pub struct ManualPlannerConfig {
    /// Candidates examined per expansion step (Miller's 7±2).
    pub consideration_limit: usize,
    /// σ of the log-normal multiplicative perception noise.
    pub noise_sigma: f64,
    /// Multiplier on the tightness component of a perceived gain.
    pub tightness_bias: f64,
    /// Candidate evaluations before the participant gives up.
    pub patience: u64,
    /// Modeled seconds per candidate evaluation.
    pub seconds_per_eval: f64,
}

impl Default for ManualPlannerConfig {
    fn default() -> Self {
        Self {
            consideration_limit: 7,
            noise_sigma: 0.45,
            tightness_bias: 1.5,
            patience: 220,
            seconds_per_eval: 1.8,
        }
    }
}

/// Result of one simulated manual planning session.
#[derive(Debug, Clone)]
pub struct ManualOutcome {
    /// The group the participant settled on (`None` only when the instance
    /// itself is infeasible).
    pub group: Option<Group>,
    /// Whether fatigue forced a hasty random completion.
    pub gave_up: bool,
    /// Candidate evaluations performed.
    pub evaluations: u64,
    /// Modeled human time in seconds (not wall-clock).
    pub modeled_seconds: f64,
}

/// The simulated participant.
#[derive(Debug, Clone, Default)]
pub struct ManualPlanner {
    config: ManualPlannerConfig,
}

impl ManualPlanner {
    /// Participant with default behavioural parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Participant with explicit parameters.
    pub fn with_config(config: ManualPlannerConfig) -> Self {
        Self { config }
    }

    /// Plans a group by hand. `start` pins the initiator (the "-i"
    /// problems); otherwise the participant begins from the person they
    /// perceive as most attractive (noisy max interest).
    pub fn plan(&self, instance: &WasoInstance, start: Option<NodeId>, seed: u64) -> ManualOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = instance.graph();
        let n = g.num_nodes();
        let k = instance.k();
        let cfg = &self.config;

        let mut evaluations = 0u64;
        let start = start.unwrap_or_else(|| {
            // Noisy argmax over interest: the participant eyeballs profiles.
            let mut best = NodeId(0);
            let mut best_score = f64::NEG_INFINITY;
            for v in g.node_ids() {
                evaluations += 1;
                let score = g.interest(v) * self.noise(&mut rng);
                if score > best_score {
                    best_score = score;
                    best = v;
                }
            }
            best
        });

        let mut sampler = waso_core::GrowthWorkspace::new(n);
        if instance.requires_connectivity() {
            sampler.seed(g, start);
        } else {
            sampler.seed_free(g, start);
        }

        let mut gave_up = false;
        while sampler.len() < k {
            let frontier = sampler.frontier();
            if frontier.is_empty() {
                // Humans would re-plan; the simulation reports infeasible.
                return ManualOutcome {
                    group: None,
                    gave_up,
                    evaluations,
                    modeled_seconds: evaluations as f64 * cfg.seconds_per_eval,
                };
            }
            if evaluations >= cfg.patience {
                gave_up = true;
            }

            let flen = frontier.len();
            let pick = if gave_up {
                // Fatigued: grab whoever comes to mind.
                frontier.item(rng.random_range(0..flen))
            } else {
                // Examine a handful of frontier candidates, perceive their
                // gains noisily with tightness overweighted.
                let examine = cfg.consideration_limit.min(flen);
                let mut best: Option<(f64, NodeId)> = None;
                for _ in 0..examine {
                    let v = frontier.item(rng.random_range(0..flen));
                    evaluations += 1;
                    let interest_part = g.interest(v);
                    let tight_part: f64 = g
                        .neighbor_entries(v)
                        .filter(|(j, _, _)| sampler.members().contains(j.index()))
                        .map(|(_, _, pw)| pw)
                        .sum();
                    let perceived =
                        (interest_part + cfg.tightness_bias * tight_part) * self.noise(&mut rng);
                    if best.is_none_or(|(bs, _)| perceived > bs) {
                        best = Some((perceived, v));
                    }
                }
                best.expect("examined at least one candidate").1
            };
            sampler.add(g, pick);
        }

        let group = Group::new(instance, sampler.selected().to_vec())
            .expect("growth maintains feasibility");
        ManualOutcome {
            group: Some(group),
            gave_up,
            evaluations,
            modeled_seconds: evaluations as f64 * cfg.seconds_per_eval,
        }
    }

    /// Multiplicative log-normal perception noise.
    fn noise(&self, rng: &mut StdRng) -> f64 {
        (normal::sample_standard(rng) * self.config.noise_sigma).exp()
    }
}

/// The §5.2 exit question: how does the participant rate the algorithm's
/// group against their own?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opinion {
    /// The algorithm's group is clearly better.
    Better,
    /// About as good (within the judgement tolerance).
    Acceptable,
    /// Worse than the hand-made group.
    NotAcceptable,
}

impl Opinion {
    /// Tolerance within which two willingness values "feel the same".
    pub const JUDGEMENT_TOLERANCE: f64 = 0.05;

    /// Judges the algorithm's willingness against the manual one.
    pub fn judge(manual_w: f64, algo_w: f64) -> Opinion {
        let tol = Opinion::JUDGEMENT_TOLERANCE * manual_w.abs().max(1e-9);
        if algo_w > manual_w + tol {
            Opinion::Better
        } else if algo_w >= manual_w - tol {
            Opinion::Acceptable
        } else {
            Opinion::NotAcceptable
        }
    }
}

/// One §5.2 planning problem: an ego network around an initiator, with the
/// participant's λ folded into the scores.
#[derive(Debug)]
pub struct StudyProblem {
    /// The weighted instance to solve.
    pub instance: WasoInstance,
    /// The initiator (node 0 of the ego extract).
    pub initiator: NodeId,
    /// The λ the participant chose.
    pub lambda: f64,
}

/// Builds a §5.2 problem: extract an `n`-node ego network from a
/// Facebook-like graph, sample the participant's λ, and weight the scores.
pub fn study_problem(n: usize, k: usize, seed: u64) -> StudyProblem {
    assert!(n >= k && k >= 1, "need n >= k >= 1, got n={n} k={k}");
    let mut rng = StdRng::seed_from_u64(seed);
    // A modest host graph, then an ego extract of the requested size.
    let host = synthetic::facebook_like_n((n * 20).max(120), seed ^ 0x5EED);
    let center = NodeId(rng.random_range(0..host.num_nodes() as u32));
    let ego = subgraph::ego_network(&host, center, 3, n);
    let lambda = sample_lambda(&mut rng);
    let lambdas = vec![lambda; ego.graph.num_nodes()];
    let instance = WasoInstance::with_lambda(ego.graph, k.min(n), &lambdas)
        .expect("ego extract supports the requested k");
    StudyProblem {
        instance,
        initiator: NodeId(0),
        lambda,
    }
}

/// Returns the ego graph size actually realized by [`study_problem`] —
/// callers asserting exact sizes should consult this (tiny hosts can yield
/// smaller ego nets).
pub fn realized_size(problem: &StudyProblem) -> usize {
    problem.instance.graph().num_nodes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_instance(seed: u64) -> WasoInstance {
        let g = synthetic::facebook_like_n(150, seed);
        WasoInstance::new(g, 7).unwrap()
    }

    #[test]
    fn lambda_samples_match_the_histogram() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..100_000).map(|_| sample_lambda(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.503).abs() < 0.01, "mean {mean}");
        assert!(xs.iter().all(|&x| (0.37..0.66).contains(&x)));
        // Middle bin is the mode.
        let mid =
            xs.iter().filter(|&&x| (0.50..0.55).contains(&x)).count() as f64 / xs.len() as f64;
        assert!((mid - 0.32).abs() < 0.02, "middle-bin mass {mid}");
    }

    #[test]
    fn manual_plans_are_valid_groups() {
        let inst = small_instance(2);
        let planner = ManualPlanner::new();
        for seed in 0..10 {
            let out = planner.plan(&inst, None, seed);
            let group = out.group.expect("feasible instance");
            assert_eq!(group.len(), 7);
            assert!(out.evaluations > 0);
            assert!(out.modeled_seconds > 0.0);
        }
    }

    #[test]
    fn pinned_initiator_is_always_included() {
        let inst = small_instance(3);
        let planner = ManualPlanner::new();
        for seed in 0..10 {
            let out = planner.plan(&inst, Some(NodeId(5)), seed);
            assert!(out.group.unwrap().contains(NodeId(5)));
        }
    }

    #[test]
    fn manual_quality_trails_a_thorough_search() {
        // The §5.2 headline: manual ≈ 66% of CBAS-ND. We check the
        // direction (manual ≤ solver) and a substantial average gap.
        use waso_algos::{CbasNdConfig, SolveRequest, Solver, StagedEngine};
        let inst = std::sync::Arc::new(small_instance(4));
        let planner = ManualPlanner::new();
        let trials = 12;
        let mut algo_sum = 0.0;
        let mut manual_sum = 0.0;
        for seed in 0..trials {
            algo_sum += StagedEngine::from_cbasnd(&CbasNdConfig::fast())
                .solve(&SolveRequest::new(&inst, seed))
                .unwrap()
                .group
                .willingness();
            manual_sum += planner.plan(&inst, None, seed).group.unwrap().willingness();
        }
        let algo = algo_sum / trials as f64;
        let manual_avg = manual_sum / trials as f64;
        assert!(
            manual_avg < algo,
            "manual {manual_avg:.3} should trail the solver {algo:.3}"
        );
    }

    #[test]
    fn fatigue_triggers_on_large_problems() {
        let g = synthetic::facebook_like_n(400, 5);
        let inst = WasoInstance::new(g, 25).unwrap();
        let planner = ManualPlanner::with_config(ManualPlannerConfig {
            patience: 40,
            ..ManualPlannerConfig::default()
        });
        let out = planner.plan(&inst, None, 1);
        assert!(out.gave_up, "patience 40 must be exhausted by k=25");
        assert_eq!(out.group.unwrap().len(), 25);
    }

    #[test]
    fn modeled_time_grows_with_problem_size() {
        let planner = ManualPlanner::new();
        let small = planner.plan(&small_instance(6), None, 2);
        let g = synthetic::facebook_like_n(150, 6);
        let big_inst = WasoInstance::new(g, 13).unwrap();
        let big = planner.plan(&big_inst, None, 2);
        assert!(big.modeled_seconds > small.modeled_seconds);
    }

    #[test]
    fn opinions_partition_correctly() {
        assert_eq!(Opinion::judge(10.0, 12.0), Opinion::Better);
        assert_eq!(Opinion::judge(10.0, 10.2), Opinion::Acceptable);
        assert_eq!(Opinion::judge(10.0, 9.8), Opinion::Acceptable);
        assert_eq!(Opinion::judge(10.0, 8.0), Opinion::NotAcceptable);
        // Tiny manual willingness: tolerance floor keeps judging sane.
        assert_eq!(Opinion::judge(0.0, 0.0), Opinion::Acceptable);
    }

    #[test]
    fn study_problems_are_well_formed() {
        for seed in 0..5 {
            let p = study_problem(25, 7, seed);
            assert!(realized_size(&p) <= 25);
            assert!(realized_size(&p) >= 7);
            assert_eq!(p.initiator, NodeId(0));
            assert!((0.37..0.66).contains(&p.lambda));
            assert_eq!(p.instance.k(), 7);
        }
    }

    #[test]
    fn study_problem_is_deterministic() {
        let a = study_problem(20, 7, 9);
        let b = study_problem(20, 7, 9);
        assert_eq!(a.instance.graph(), b.instance.graph());
        assert_eq!(a.lambda, b.lambda);
    }
}
