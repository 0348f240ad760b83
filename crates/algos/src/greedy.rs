//! `DGreedy` — the deterministic greedy baseline (§1, §3).
//!
//! Starts from the node with the largest interest score ("only chooses v1 as
//! the start node, who enjoys the activity the most at the first iteration",
//! §1) and repeatedly adds the candidate with the largest willingness
//! increment. Figure 1's counterexample — greedy reaching 27 while the
//! optimum is 30 — is reproduced in this module's tests.

use std::time::Instant;

use waso_core::{Group, WasoInstance};
use waso_graph::NodeId;

use crate::sampler::Sampler;
use crate::{SolveError, SolveRequest, SolveResult, Solver, SolverStats};

/// Deterministic greedy: max-η start node, max-Δ expansion, ids break ties.
#[derive(Debug, Clone, Default)]
pub struct DGreedy {
    /// Fixed start node (the "-i" user-study mode pins the initiator);
    /// `None` uses the max-interest node.
    pub start: Option<NodeId>,
}

impl DGreedy {
    /// Greedy from the max-interest start node.
    pub fn new() -> Self {
        Self { start: None }
    }

    /// Greedy from a pinned start node.
    pub fn from_start(start: NodeId) -> Self {
        Self { start: Some(start) }
    }

    fn pick_start(&self, instance: &WasoInstance) -> Result<NodeId, SolveError> {
        if let Some(s) = self.start {
            if s.0 >= instance.graph().num_nodes() as u32 {
                return Err(SolveError::NoFeasibleGroup);
            }
            return Ok(s);
        }
        let g = instance.graph();
        g.node_ids()
            .max_by(|a, b| {
                g.interest(*a)
                    .partial_cmp(&g.interest(*b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    // max_by keeps the *last* max; prefer smaller ids by
                    // ranking equal-interest higher ids as "smaller".
                    .then_with(|| b.0.cmp(&a.0))
            })
            .ok_or(SolveError::NoFeasibleGroup)
    }

    /// The greedy pass itself.
    fn run(&self, instance: &WasoInstance) -> Result<SolveResult, SolveError> {
        let t0 = Instant::now(); // audit:allow(D2): wall-clock feeds SolverStats timing only — never sampling or group choice
        let g = instance.graph();
        let start = self.pick_start(instance)?;

        let mut sampler = Sampler::new(g.num_nodes());
        let ws = sampler.workspace();
        ws.reset();
        if instance.requires_connectivity() {
            ws.seed(g, start);
        } else {
            ws.seed_free(g, start);
        }

        while ws.len() < instance.k() {
            let frontier = ws.frontier();
            if frontier.is_empty() {
                return Err(SolveError::NoFeasibleGroup);
            }
            // Largest increment; ties toward the smaller node id.
            let mut best: Option<(f64, NodeId)> = None;
            for idx in 0..frontier.len() {
                let v = frontier.item(idx);
                let gain = ws.gain(g, v);
                let better = match best {
                    None => true,
                    Some((bg, bv)) => gain > bg || (gain == bg && v.0 < bv.0),
                };
                if better {
                    best = Some((gain, v));
                }
            }
            let (_, pick) = best.expect("non-empty frontier produced no candidate");
            ws.add(g, pick);
        }

        let nodes = ws.selected().to_vec();
        let group = Group::new(instance, nodes).map_err(SolveError::Invalid)?;
        Ok(SolveResult {
            group,
            stats: SolverStats {
                samples_drawn: 1,
                stages: 1,
                start_nodes: 1,
                elapsed: t0.elapsed(),
                ..SolverStats::default()
            },
        })
    }
}

impl Solver for DGreedy {
    fn name(&self) -> &'static str {
        "dgreedy"
    }

    /// A single required attendee is honoured by pinning it as the start
    /// node; more than one cannot be guaranteed by a greedy pass and is
    /// rejected rather than silently dropped. The seed is unused.
    fn solve(&mut self, req: &SolveRequest<'_>) -> Result<SolveResult, SolveError> {
        req.single_pass(|| match req.required {
            [] => self.run(req.instance),
            [v] => DGreedy::from_start(*v).run(req.instance),
            _ => Err(SolveError::RequiredUnsupported {
                solver: self.name(),
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waso_graph::GraphBuilder;

    /// The Figure-1 counterexample (see DESIGN.md): path
    /// v1 -1- v2 -2- v3 -4- v4 with η = (8, 7, 6, 5).
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
    fn greedy_falls_into_figure1_trap() {
        let res = DGreedy::new().run(&figure1_instance()).unwrap();
        // Greedy picks v1 (max η), then v2 (Δ = 7+2·1 = 9), then v3
        // (Δ = 6+2·2 = 10): willingness 27, missing the optimum 30.
        assert_eq!(res.group.nodes(), &[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(res.group.willingness(), 27.0);
    }

    #[test]
    fn pinned_start_escapes_the_trap() {
        // Starting from v3: Δ(v4) = 5+2·4 = 13 beats Δ(v2) = 7+2·2 = 11,
        // then v2 completes {v2,v3,v4} = 30. (Starting from v2 still falls
        // into the trap: Δ(v1) = Δ(v3) = 10 ties toward the smaller id.)
        let res = DGreedy::from_start(NodeId(2))
            .run(&figure1_instance())
            .unwrap();
        assert_eq!(res.group.willingness(), 30.0);

        let still_trapped = DGreedy::from_start(NodeId(1))
            .run(&figure1_instance())
            .unwrap();
        assert_eq!(still_trapped.group.willingness(), 27.0);
    }

    #[test]
    fn invalid_pinned_start_fails() {
        let err = DGreedy::from_start(NodeId(99))
            .run(&figure1_instance())
            .unwrap_err();
        assert_eq!(err, SolveError::NoFeasibleGroup);
    }

    #[test]
    fn greedy_is_deterministic_across_seeds() {
        let inst = figure1_instance();
        let a = DGreedy::new().run(&inst).unwrap();
        let b = DGreedy::new().run(&inst).unwrap();
        assert_eq!(a.group, b.group);
    }

    #[test]
    fn ties_break_toward_smaller_ids() {
        // Identical scores everywhere: start = v0, then lowest-id frontier.
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..4).map(|_| b.add_node(1.0)).collect();
        for &u in &ids {
            for &v in &ids {
                if u.0 < v.0 {
                    b.add_edge_symmetric(u, v, 0.5).unwrap();
                }
            }
        }
        let inst = WasoInstance::new(b.build(), 2).unwrap();
        let res = DGreedy::new().run(&inst).unwrap();
        assert_eq!(res.group.nodes(), &[NodeId(0), NodeId(1)]);
    }

    #[test]
    fn too_small_component_is_infeasible() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(10.0);
        let c = b.add_node(1.0);
        let d = b.add_node(1.0);
        b.add_edge_symmetric(c, d, 1.0).unwrap();
        let _ = a;
        let inst = WasoInstance::new(b.build(), 2).unwrap();
        // Start = a (max interest, isolated) → stalls.
        let err = DGreedy::new().run(&inst).unwrap_err();
        assert_eq!(err, SolveError::NoFeasibleGroup);
    }

    #[test]
    fn unconstrained_greedy_takes_best_nodes_anywhere() {
        // Disconnected high-interest nodes are reachable without the
        // connectivity constraint.
        let mut b = GraphBuilder::new();
        let a = b.add_node(10.0);
        let c = b.add_node(9.0);
        let d = b.add_node(1.0);
        b.add_edge_symmetric(a, d, 0.1).unwrap();
        let _ = c;
        let inst = WasoInstance::without_connectivity(b.build(), 2).unwrap();
        let res = DGreedy::new().run(&inst).unwrap();
        assert_eq!(res.group.nodes(), &[NodeId(0), NodeId(1)]);
        assert_eq!(res.group.willingness(), 19.0);
    }

    #[test]
    fn stats_reflect_single_deterministic_pass() {
        let res = DGreedy::new().run(&figure1_instance()).unwrap();
        assert_eq!(res.stats.samples_drawn, 1);
        assert_eq!(res.stats.stages, 1);
        assert_eq!(res.stats.start_nodes, 1);
    }
}
