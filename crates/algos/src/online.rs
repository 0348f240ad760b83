//! Online replanning after invitation responses (§4.4.1).
//!
//! Invitations go out; some people confirm, some decline. The paper's
//! extension "regards those confirmed attendees as the initial solution in
//! the second phase and removes the nodes that cannot attend from G" —
//! start-node selection is *not* re-run, which is what makes the online
//! step fast. [`OnlinePlanner`] wraps that loop: it keeps the current
//! recommendation, records confirmations/declines, and replans with the
//! confirmed set seeded and the declined set blocked.

use std::sync::Arc;

use waso_core::{Group, WasoInstance};
use waso_graph::{BitSet, DeltaError, GraphDelta, NodeId};

use crate::cbasnd::CbasNdConfig;
use crate::{SolveError, SolveRequest, Solver, StagedEngine};

/// Stateful planner for the invite → respond → replan loop.
///
/// ```
/// use waso_algos::{CbasNdConfig, OnlinePlanner};
/// use waso_core::WasoInstance;
/// use waso_graph::{GraphBuilder, NodeId};
///
/// // A 5-person clique (declining anyone keeps the rest connected);
/// // plan a group of 3.
/// let mut b = GraphBuilder::new();
/// let ids: Vec<NodeId> = (0..5).map(|i| b.add_node(1.0 + i as f64)).collect();
/// for (i, &u) in ids.iter().enumerate() {
///     for &v in &ids[i + 1..] {
///         b.add_edge_symmetric(u, v, 0.5).unwrap();
///     }
/// }
/// let instance = WasoInstance::new(b.build(), 3).unwrap();
///
/// let mut planner = OnlinePlanner::new(instance, CbasNdConfig::fast(), 7).unwrap();
/// let first_pick = planner.current().nodes()[0];
/// let replanned = planner.decline(&[first_pick]).unwrap();
/// assert!(!replanned.contains(first_pick));
/// assert_eq!(replanned.len(), 3);
/// ```
#[derive(Debug)]
pub struct OnlinePlanner {
    instance: Arc<WasoInstance>,
    config: CbasNdConfig,
    seed: u64,
    replans: u64,
    confirmed: Vec<NodeId>,
    declined: BitSet,
    current: Group,
}

/// Errors from the online workflow.
#[derive(Debug, PartialEq)]
pub enum OnlineError {
    /// Underlying solver failure (e.g. no feasible completion remains).
    Solve(SolveError),
    /// A response referenced a node outside the graph.
    Unknown(u32),
    /// A node both confirmed and declined, or declined after confirming.
    Conflict(u32),
    /// More confirmations than the group size `k`.
    TooManyConfirmed,
    /// A [`GraphDelta`] could not be applied to the planner's graph.
    Delta(DeltaError),
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::Solve(e) => write!(f, "replanning failed: {e}"),
            OnlineError::Unknown(v) => write!(f, "response from unknown node v{v}"),
            OnlineError::Conflict(v) => write!(f, "conflicting responses from v{v}"),
            OnlineError::TooManyConfirmed => write!(f, "more confirmations than group slots"),
            OnlineError::Delta(e) => write!(f, "graph delta rejected: {e}"),
        }
    }
}

impl std::error::Error for OnlineError {}

impl From<SolveError> for OnlineError {
    fn from(e: SolveError) -> Self {
        OnlineError::Solve(e)
    }
}

impl From<DeltaError> for OnlineError {
    fn from(e: DeltaError) -> Self {
        OnlineError::Delta(e)
    }
}

impl OnlinePlanner {
    /// Plans the initial group.
    pub fn new(
        instance: WasoInstance,
        config: CbasNdConfig,
        seed: u64,
    ) -> Result<Self, OnlineError> {
        let n = instance.graph().num_nodes();
        let instance = Arc::new(instance);
        let initial =
            StagedEngine::from_cbasnd(&config).solve(&SolveRequest::new(&instance, seed))?;
        Ok(Self {
            declined: BitSet::new(n),
            confirmed: Vec::new(),
            current: initial.group,
            replans: 0,
            instance,
            config,
            seed,
        })
    }

    /// One replan of `instance`: the confirmed set seeds every sample,
    /// `blocked` nodes are excluded, and `incumbent` (when feasible) is
    /// the group to beat.
    fn replan(
        &self,
        instance: &Arc<WasoInstance>,
        blocked: BitSet,
        incumbent: Option<&Group>,
    ) -> Result<Group, SolveError> {
        let mut config = self.config.clone();
        config.base.blocked = Some(blocked);
        let seed = self.seed.wrapping_add(self.replans + 1);
        let req = SolveRequest::new(instance, seed)
            .required(&self.confirmed)
            .incumbent(incumbent);
        Ok(StagedEngine::from_cbasnd(&config).solve(&req)?.group)
    }

    /// Plans the initial group from a CBAS-ND [`crate::SolverSpec`] (the
    /// replanning engine is always CBAS-ND — the only solver whose
    /// partial-solution growth keeps confirmed attendees, §4.4.1).
    pub fn from_spec(
        instance: WasoInstance,
        spec: &crate::SolverSpec,
        seed: u64,
    ) -> Result<Self, OnlineError> {
        Self::new(instance, CbasNdConfig::from_spec(spec), seed)
    }

    /// The current recommendation.
    pub fn current(&self) -> &Group {
        &self.current
    }

    /// Confirmed attendees so far.
    pub fn confirmed(&self) -> &[NodeId] {
        &self.confirmed
    }

    /// Number of replanning rounds performed.
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// Records confirmations. Confirming is cheap — no replan needed, the
    /// attendee was already in the plan. Unknown nodes,
    /// confirm-after-decline conflicts and over-confirmation beyond `k`
    /// are rejected **before** any state changes: an erroring `confirm`
    /// leaves the planner exactly as it was, so later replans are not
    /// poisoned by a half-applied response batch.
    pub fn confirm(&mut self, nodes: &[NodeId]) -> Result<(), OnlineError> {
        let n = self.instance.graph().num_nodes() as u32;
        let mut fresh: Vec<NodeId> = Vec::new();
        for &v in nodes {
            if v.0 >= n {
                return Err(OnlineError::Unknown(v.0));
            }
            if self.declined.contains(v.index()) {
                return Err(OnlineError::Conflict(v.0));
            }
            if !self.confirmed.contains(&v) && !fresh.contains(&v) {
                fresh.push(v);
            }
        }
        if self.confirmed.len() + fresh.len() > self.instance.k() {
            return Err(OnlineError::TooManyConfirmed);
        }
        self.confirmed.extend(fresh);
        Ok(())
    }

    /// Records declines and replans around them: the confirmed set seeds
    /// every sample, declined nodes are blocked, and phase 1 (start-node
    /// selection) is skipped entirely per §4.4.1. Returns the new
    /// recommendation.
    ///
    /// Transactional like [`OnlinePlanner::confirm`]: on *any* error —
    /// validation or a failed replan (e.g. the declines leave no feasible
    /// completion) — the planner's state is exactly what it was before
    /// the call, so the host can surface the problem and keep planning.
    pub fn decline(&mut self, nodes: &[NodeId]) -> Result<&Group, OnlineError> {
        let n = self.instance.graph().num_nodes() as u32;
        for &v in nodes {
            if v.0 >= n {
                return Err(OnlineError::Unknown(v.0));
            }
            if self.confirmed.contains(&v) {
                return Err(OnlineError::Conflict(v.0));
            }
        }
        let mut declined = self.declined.clone();
        for &v in nodes {
            declined.insert(v.index());
        }

        // Commit only on success.
        self.current = self.replan(&self.instance, declined.clone(), None)?;
        self.declined = declined;
        self.replans += 1;
        Ok(&self.current)
    }

    /// Applies a [`GraphDelta`] (a score update or an edge change learned
    /// mid-campaign) and replans **from the current plan**: the old
    /// recommendation is the request's incumbent to beat,
    /// the confirmed set still seeds every sample, and declined nodes
    /// stay blocked. Node identity never changes, so confirmations and
    /// declines carry over verbatim.
    ///
    /// Transactional like [`OnlinePlanner::decline`]: a rejected delta or
    /// a failed replan leaves the planner — graph included — exactly as
    /// it was. Returns the new recommendation.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<&Group, OnlineError> {
        let graph = delta.apply(self.instance.graph())?;
        let instance = if self.instance.requires_connectivity() {
            WasoInstance::new(graph, self.instance.k())
        } else {
            WasoInstance::without_connectivity(graph, self.instance.k())
        }
        .map_err(|e| OnlineError::Solve(SolveError::Invalid(e)))?;
        let instance = Arc::new(instance);

        // The pre-delta plan is a *hint*: if the delta kept it feasible
        // it becomes the incumbent to beat, otherwise it is dropped (the
        // engine re-validates it against the delta'd instance).
        let incumbent = Group::new(&instance, self.current.nodes().to_vec()).ok();
        // Commit only on success.
        self.current = self.replan(&instance, self.declined.clone(), incumbent.as_ref())?;
        self.instance = instance;
        self.replans += 1;
        Ok(&self.current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waso_graph::{generate, ScoreModel};

    fn instance(n: usize, k: usize, seed: u64) -> WasoInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = generate::barabasi_albert(n, 3, &mut rng);
        let g = ScoreModel::paper_default().realize(&topo, &mut rng);
        WasoInstance::new(g, k).unwrap()
    }

    fn fast_config() -> CbasNdConfig {
        let mut c = CbasNdConfig::with_budget(80);
        c.base.stages = Some(3);
        c
    }

    #[test]
    fn initial_plan_is_valid() {
        let planner = OnlinePlanner::new(instance(40, 5, 1), fast_config(), 7).unwrap();
        assert_eq!(planner.current().len(), 5);
        assert_eq!(planner.replans(), 0);
    }

    #[test]
    fn declines_remove_nodes_from_future_plans() {
        let mut planner = OnlinePlanner::new(instance(40, 5, 2), fast_config(), 3).unwrap();
        let victim = planner.current().nodes()[0];
        let new_plan = planner.decline(&[victim]).unwrap();
        assert!(!new_plan.contains(victim));
        assert_eq!(new_plan.len(), 5);
        assert_eq!(planner.replans(), 1);
    }

    #[test]
    fn confirmed_attendees_survive_replans() {
        let mut planner = OnlinePlanner::new(instance(40, 5, 4), fast_config(), 5).unwrap();
        let members = planner.current().nodes().to_vec();
        planner.confirm(&members[..2]).unwrap();
        let outsider = planner.current().nodes()[4];
        let new_plan = planner.decline(&[outsider]).unwrap();
        assert!(new_plan.contains(members[0]));
        assert!(new_plan.contains(members[1]));
        assert!(!new_plan.contains(outsider));
    }

    #[test]
    fn conflicting_responses_are_rejected() {
        let mut planner = OnlinePlanner::new(instance(40, 5, 6), fast_config(), 1).unwrap();
        let v = planner.current().nodes()[0];
        planner.confirm(&[v]).unwrap();
        assert_eq!(
            planner.decline(&[v]).unwrap_err(),
            OnlineError::Conflict(v.0)
        );

        let w = planner.current().nodes()[1];
        planner.decline(&[w]).unwrap();
        assert_eq!(
            planner.confirm(&[w]).unwrap_err(),
            OnlineError::Conflict(w.0)
        );
    }

    #[test]
    fn unknown_nodes_are_rejected() {
        let mut planner = OnlinePlanner::new(instance(30, 4, 7), fast_config(), 2).unwrap();
        assert_eq!(
            planner.confirm(&[NodeId(999)]).unwrap_err(),
            OnlineError::Unknown(999)
        );
        assert_eq!(
            planner.decline(&[NodeId(999)]).unwrap_err(),
            OnlineError::Unknown(999)
        );
    }

    #[test]
    fn over_confirmation_is_rejected() {
        let mut planner = OnlinePlanner::new(instance(30, 3, 8), fast_config(), 3).unwrap();
        let many: Vec<NodeId> = (0..4).map(NodeId).collect();
        // Some of these may not be in the current plan — confirming outside
        // the plan is allowed (the host can invite whoever they like), but
        // exceeding k is not.
        let res = planner.confirm(&many);
        assert_eq!(res.unwrap_err(), OnlineError::TooManyConfirmed);
    }

    /// The observable planner state, for no-mutation-on-error assertions.
    fn snapshot(p: &OnlinePlanner) -> (Vec<NodeId>, Group, u64) {
        (p.confirmed().to_vec(), p.current().clone(), p.replans())
    }

    #[test]
    fn erroring_confirm_leaves_state_untouched() {
        let mut planner = OnlinePlanner::new(instance(30, 3, 11), fast_config(), 5).unwrap();
        let member = planner.current().nodes()[0];
        planner.confirm(&[member]).unwrap();
        let before = snapshot(&planner);

        // Unknown node.
        assert_eq!(
            planner.confirm(&[NodeId(999)]).unwrap_err(),
            OnlineError::Unknown(999)
        );
        assert_eq!(snapshot(&planner), before);

        // Unknown node listed *after* valid ones — the valid prefix must
        // not be half-applied.
        let fresh = planner.current().nodes()[1];
        assert_eq!(
            planner.confirm(&[fresh, NodeId(999)]).unwrap_err(),
            OnlineError::Unknown(999)
        );
        assert_eq!(snapshot(&planner), before);

        // Confirm-after-decline conflict.
        let outsider = planner.current().nodes()[2];
        planner.decline(&[outsider]).unwrap();
        let before = snapshot(&planner);
        assert_eq!(
            planner.confirm(&[fresh, outsider]).unwrap_err(),
            OnlineError::Conflict(outsider.0)
        );
        assert_eq!(snapshot(&planner), before);

        // Over-confirmation: the k-2 new nodes that fit must not stick
        // when the batch as a whole exceeds k.
        let many: Vec<NodeId> = (0..4).map(NodeId).collect();
        assert_eq!(
            planner.confirm(&many).unwrap_err(),
            OnlineError::TooManyConfirmed
        );
        assert_eq!(snapshot(&planner), before);

        // The planner is still fully serviceable afterwards.
        planner.confirm(&[fresh]).unwrap();
        assert_eq!(planner.confirmed().len(), 2);
    }

    #[test]
    fn erroring_decline_leaves_state_untouched() {
        let mut planner = OnlinePlanner::new(instance(30, 4, 12), fast_config(), 6).unwrap();
        let confirmed = planner.current().nodes()[0];
        planner.confirm(&[confirmed]).unwrap();
        let before = snapshot(&planner);

        assert_eq!(
            planner.decline(&[NodeId(999)]).unwrap_err(),
            OnlineError::Unknown(999)
        );
        assert_eq!(snapshot(&planner), before);

        assert_eq!(
            planner.decline(&[confirmed]).unwrap_err(),
            OnlineError::Conflict(confirmed.0)
        );
        assert_eq!(snapshot(&planner), before);
    }

    #[test]
    fn infeasible_replan_rolls_back_the_declines() {
        // Path 0-1-2 with k = 3: declining the middle node leaves no
        // feasible group; the planner must report the failure and stay on
        // its previous plan, with the decline un-applied.
        let mut b = waso_graph::GraphBuilder::new();
        let ids: Vec<NodeId> = (0..3).map(|i| b.add_node(1.0 + i as f64)).collect();
        b.add_edge_symmetric(ids[0], ids[1], 1.0).unwrap();
        b.add_edge_symmetric(ids[1], ids[2], 1.0).unwrap();
        let inst = WasoInstance::new(b.build(), 3).unwrap();
        let mut planner = OnlinePlanner::new(inst, fast_config(), 7).unwrap();
        let before = snapshot(&planner);

        assert_eq!(
            planner.decline(&[ids[1]]).unwrap_err(),
            OnlineError::Solve(SolveError::NoFeasibleGroup)
        );
        assert_eq!(snapshot(&planner), before, "failed replan mutated state");

        // The un-applied decline is really gone: the same seed replays to
        // the same (full) plan, and the node can still be confirmed.
        planner.confirm(&[ids[1]]).unwrap();
    }

    #[test]
    fn deltas_replan_and_preserve_responses() {
        let mut planner = OnlinePlanner::new(instance(40, 5, 13), fast_config(), 8).unwrap();
        let members = planner.current().nodes().to_vec();
        planner.confirm(&members[..2]).unwrap();
        let outsider = members[4];
        planner.decline(&[outsider]).unwrap();

        // Crater a current member's interest: the replan keeps the
        // confirmed seeds and the declined block, and its willingness is
        // computed on the *delta'd* graph.
        let delta = GraphDelta::SetInterest {
            v: members[0],
            interest: 0.0,
        };
        let plan = planner.apply(&delta).unwrap().clone();
        assert_eq!(plan.len(), 5);
        assert!(plan.contains(members[0]) && plan.contains(members[1]));
        assert!(!plan.contains(outsider));
        assert_eq!(planner.replans(), 2);
        let recomputed = Group::new(&planner.instance, plan.nodes().to_vec()).unwrap();
        assert_eq!(
            plan.willingness().to_bits(),
            recomputed.willingness().to_bits()
        );
    }

    #[test]
    fn rejected_delta_leaves_state_untouched() {
        let mut planner = OnlinePlanner::new(instance(30, 4, 14), fast_config(), 9).unwrap();
        let before = snapshot(&planner);
        let bad = GraphDelta::SetInterest {
            v: NodeId(999),
            interest: 1.0,
        };
        assert!(matches!(
            planner.apply(&bad).unwrap_err(),
            OnlineError::Delta(DeltaError::UnknownNode(999))
        ));
        assert_eq!(snapshot(&planner), before);
        // The graph really is untouched: a follow-up decline still works
        // against the original instance.
        let victim = planner.current().nodes()[0];
        planner.decline(&[victim]).unwrap();
    }

    #[test]
    fn delta_replans_are_deterministic() {
        let make = || {
            let mut p = OnlinePlanner::new(instance(40, 5, 15), fast_config(), 10).unwrap();
            let v = p.current().nodes()[0];
            p.apply(&GraphDelta::SetInterest { v, interest: 0.01 })
                .unwrap()
                .clone()
        };
        let (a, b) = (make(), make());
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.willingness().to_bits(), b.willingness().to_bits());
    }

    #[test]
    fn successive_declines_accumulate() {
        let mut planner = OnlinePlanner::new(instance(50, 5, 9), fast_config(), 4).unwrap();
        let a = planner.current().nodes()[0];
        planner.decline(&[a]).unwrap();
        let b = planner.current().nodes()[0];
        planner.decline(&[b]).unwrap();
        let plan = planner.current();
        assert!(!plan.contains(a));
        assert!(!plan.contains(b));
        assert_eq!(planner.replans(), 2);
    }
}
