//! `RGreedy` — randomized greedy (§4.1).
//!
//! RGreedy "associates each neighbouring node with a different probability
//! according to its interest score and social tightness scores of the edges
//! incident to the partial solution S_{t-1}" — i.e. the candidate's
//! willingness contribution `Δ(v) = η_v + Σ_{u∈S} (τ_{v,u} + τ_{u,v})`. It
//! is the randomized version of the greedy algorithm with `m` start nodes;
//! every expansion step prices *every* candidate (a marginal-gain
//! evaluation per neighbour), which is exactly why the paper finds it
//! orders of magnitude slower than CBAS (Figures 5, 7, 8 — it cannot
//! finish large `k` at all).
//!
//! Fidelity note: §4.1 also writes the selection ratio as
//! `W({v_i} ∪ S) / W({v_j} ∪ S)`. That expression adds the constant `W(S)`
//! to every candidate's weight, so as the group grows all candidates tend
//! to the *same* probability and RGreedy would degenerate into uniform
//! sampling — contradicting the paper's own measurements, where RGreedy's
//! quality tracks CBAS-ND (Figures 5(f), 7). We therefore implement the
//! textual description (Δ-proportional selection); the `W(S)+Δ` variant is
//! available as [`RGreedyConfig::include_base_willingness`] for ablation
//! (see the `bench` crate's ablation benchmarks).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use waso_core::{Group, WasoInstance};
use waso_graph::NodeId;

use crate::sampler::{default_num_start_nodes, select_start_nodes, Sampler};
use crate::{mix_seed, SolveError, SolveRequest, SolveResult, Solver, SolverStats};

/// Configuration of [`RGreedy`].
#[derive(Debug, Clone)]
pub struct RGreedyConfig {
    /// Total number of sampled final solutions (`T`).
    pub budget: u64,
    /// Number of start nodes (`m`); `None` → the paper's default `⌈n/k⌉`.
    pub num_start_nodes: Option<usize>,
    /// Pinned start nodes (user-study "-i" mode); overrides selection.
    pub start_override: Option<Vec<NodeId>>,
    /// Use the paper's literal `W(S ∪ {v})`-proportional weights instead of
    /// Δ-proportional ones (see the module docs; ablation only).
    pub include_base_willingness: bool,
}

impl RGreedyConfig {
    /// Budget `T`, defaults elsewhere.
    pub fn with_budget(budget: u64) -> Self {
        Self {
            budget,
            num_start_nodes: None,
            start_override: None,
            include_base_willingness: false,
        }
    }

    /// The settings a [`crate::SolverSpec`] carries (budget, start-node
    /// count, pinned starts). The `W(S)+Δ` ablation variant is
    /// deliberately not spec-reachable — it exists only for the ablation
    /// benchmarks.
    pub fn from_spec(spec: &crate::SolverSpec) -> Self {
        Self {
            num_start_nodes: spec.start_nodes,
            start_override: spec.starts.clone(),
            ..Self::with_budget(spec.budget_or_default())
        }
    }
}

/// Randomized greedy solver.
#[derive(Debug, Clone)]
pub struct RGreedy {
    config: RGreedyConfig,
}

impl RGreedy {
    /// Creates the solver.
    pub fn new(config: RGreedyConfig) -> Self {
        Self { config }
    }

    /// The sampling pass itself: `budget` randomized greedy growths
    /// split across the start nodes, keeping the best.
    fn run(&self, instance: &WasoInstance, seed: u64) -> Result<SolveResult, SolveError> {
        let t0 = Instant::now(); // audit:allow(D2): wall-clock feeds SolverStats timing only — never sampling or group choice
        let g = instance.graph();
        let n = g.num_nodes();
        let k = instance.k();

        let starts: Vec<NodeId> = match &self.config.start_override {
            Some(s) => s.clone(),
            None => {
                let m = self
                    .config
                    .num_start_nodes
                    .unwrap_or_else(|| default_num_start_nodes(n, k));
                select_start_nodes(g, m, None)
            }
        };
        if starts.is_empty() {
            return Err(SolveError::NoFeasibleGroup);
        }

        let m = starts.len();
        let budget = self.config.budget.max(1);
        let per_start = (budget / m as u64).max(1);

        let mut sampler = Sampler::new(n);
        let mut best: Option<(f64, Vec<NodeId>)> = None;
        let mut drawn = 0u64;
        // Reused per-step buffer of cumulative selection weights.
        let mut cumulative: Vec<f64> = Vec::new();

        for (si, &start) in starts.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(mix_seed(seed, si as u64, 0));
            'samples: for _ in 0..per_start {
                drawn += 1;
                let ws = sampler.workspace();
                ws.reset();
                if instance.requires_connectivity() {
                    ws.seed(g, start);
                } else {
                    ws.seed_free(g, start);
                }
                while ws.len() < k {
                    let frontier = ws.frontier();
                    let len = frontier.len();
                    if len == 0 {
                        continue 'samples; // stalled sample, try the next
                    }
                    // Selection probability ∝ Δ(v) (or ∝ W(S∪{v}) in the
                    // ablation variant) — priced for every candidate, the
                    // algorithm's deliberate expense. Shifted to stay
                    // positive when willingness can be negative.
                    cumulative.clear();
                    let base = if self.config.include_base_willingness {
                        ws.willingness()
                    } else {
                        0.0
                    };
                    let mut min_w = f64::INFINITY;
                    for idx in 0..len {
                        let v = frontier.item(idx);
                        let w = base + ws.gain(g, v);
                        min_w = min_w.min(w);
                        cumulative.push(w);
                    }
                    let shift = if min_w < 0.0 { -min_w } else { 0.0 };
                    let mut total = 0.0;
                    for w in cumulative.iter_mut() {
                        // Epsilon keeps zero-willingness candidates possible.
                        *w += shift + 1e-9;
                        total += *w;
                        *w = total;
                    }
                    let t = rng.random::<f64>() * total;
                    let idx = cumulative.partition_point(|&c| c <= t).min(len - 1);
                    let pick = ws.frontier().item(idx);
                    ws.add(g, pick);
                }
                let w = ws.willingness();
                if best.as_ref().is_none_or(|(bw, _)| w > *bw) {
                    best = Some((w, ws.selected().to_vec()));
                }
            }
        }

        let (_, nodes) = best.ok_or(SolveError::NoFeasibleGroup)?;
        let group = Group::new(instance, nodes).map_err(SolveError::Invalid)?;
        Ok(SolveResult {
            group,
            stats: SolverStats {
                samples_drawn: drawn,
                stages: 1,
                start_nodes: m as u32,
                elapsed: t0.elapsed(),
                ..SolverStats::default()
            },
        })
    }
}

impl Solver for RGreedy {
    fn name(&self) -> &'static str {
        "rgreedy"
    }

    fn solve(&mut self, req: &SolveRequest<'_>) -> Result<SolveResult, SolveError> {
        req.single_pass(|| {
            if !req.required.is_empty() {
                return Err(SolveError::RequiredUnsupported {
                    solver: self.name(),
                });
            }
            self.run(req.instance, req.seed)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waso_graph::GraphBuilder;

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

    #[test]
    fn escapes_the_figure1_trap_with_enough_samples() {
        let solver = RGreedy::new(RGreedyConfig::with_budget(60));
        let res = solver.run(&figure1_instance(), 7).unwrap();
        // Randomization over multiple start nodes finds {v2, v3, v4} = 30.
        assert_eq!(res.group.willingness(), 30.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let inst = figure1_instance();
        let s1 = RGreedy::new(RGreedyConfig::with_budget(20));
        let s2 = RGreedy::new(RGreedyConfig::with_budget(20));
        let a = s1.run(&inst, 5).unwrap();
        let b = s2.run(&inst, 5).unwrap();
        assert_eq!(a.group, b.group);
        assert_eq!(a.stats.samples_drawn, b.stats.samples_drawn);
    }

    #[test]
    fn start_override_pins_membership() {
        let inst = figure1_instance();
        let solver = RGreedy::new(RGreedyConfig {
            budget: 10,
            num_start_nodes: None,
            start_override: Some(vec![NodeId(3)]),
            include_base_willingness: false,
        });
        let res = solver.run(&inst, 0).unwrap();
        assert!(res.group.contains(NodeId(3)));
        assert_eq!(res.stats.start_nodes, 1);
    }

    #[test]
    fn negative_scores_do_not_break_selection() {
        // Foe-style negative tightness: probabilities must stay valid.
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..4).map(|i| b.add_node(i as f64 - 1.0)).collect();
        b.add_edge_symmetric(ids[0], ids[1], -5.0).unwrap();
        b.add_edge_symmetric(ids[1], ids[2], 2.0).unwrap();
        b.add_edge_symmetric(ids[2], ids[3], -1.0).unwrap();
        let inst = WasoInstance::new(b.build(), 2).unwrap();
        let solver = RGreedy::new(RGreedyConfig::with_budget(30));
        let res = solver.run(&inst, 3).unwrap();
        // Best pair is {v2, v3}: 1 + 2 + 2·2 = 7? η = (-1,0,1,2):
        // {2,3}: 1+2+2·(-1) = 1; {1,2}: 0+1+2·2 = 5 — the optimum.
        assert_eq!(res.group.nodes(), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn budget_accounting_counts_stalled_samples() {
        // Component of size 1 at the max-score start: samples stall but are
        // still budgeted (they consumed work).
        let mut b = GraphBuilder::new();
        let hub = b.add_node(100.0);
        let x = b.add_node(1.0);
        let y = b.add_node(1.0);
        b.add_edge_symmetric(x, y, 0.5).unwrap();
        let _ = hub;
        let inst = WasoInstance::new(b.build(), 2).unwrap();
        let solver = RGreedy::new(RGreedyConfig {
            budget: 9,
            num_start_nodes: Some(3),
            start_override: None,
            include_base_willingness: false,
        });
        let res = solver.run(&inst, 0).unwrap();
        assert_eq!(res.group.nodes(), &[NodeId(1), NodeId(2)]);
        assert_eq!(res.stats.samples_drawn, 9);
    }
}
