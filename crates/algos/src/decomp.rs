//! `Decomp` — scale-adaptive community decomposition (§5.3 scaling).
//!
//! Million-node graphs make whole-graph staged sampling expensive: the
//! default start-node count, the frontier sizes and the per-solve setup all
//! scale with `n`, while the group the paper asks for has `k ≪ n` members
//! that — on socially clustered graphs — overwhelmingly live inside one
//! community. `Decomp` exploits that:
//!
//! 1. **Partition** the graph with seeded label propagation
//!    ([`waso_graph::partition::label_propagation`]), optionally coarsened
//!    to a requested community count (`communities=`; `auto` keeps the
//!    propagation's answer).
//! 2. **Score** every community that can host a `k`-group by its
//!    willingness upper bound (Σ interests + Σ intra-community tightness —
//!    exactly `total_willingness_upper()` of the induced subgraph), and
//!    solve the `top=` best as independent induced-subgraph jobs with the
//!    `inner=` solver. Each job runs over a graph of community size, not
//!    `n`, which is where the speedup comes from; with a [`SharedPool`]
//!    attached, jobs submit their stages to the pool's workers.
//! 3. **Merge** by taking the best per-community group (score-preserving:
//!    a group inside one community has identical willingness in the parent
//!    graph), then run a **boundary repair** pass that tries swapping each
//!    member for a high-pair-weight neighbour across a community boundary —
//!    recovering groups the partition cut in half.
//!
//! Determinism: the partition is a function of `(graph, seed)`, community
//! jobs get `mix_seed(seed, rank, community)` streams, and the repair pass
//! is a deterministic best-improvement loop — so a fixed `(spec, seed)`
//! yields one answer at any pool width, proptest-pinned in
//! `tests/properties.rs`.

use std::sync::Arc;
use std::time::Instant;

use waso_core::{Group, GrowthWorkspace, WasoInstance};
use waso_graph::subgraph::{induced_subgraph, Induced};
use waso_graph::traversal::is_connected_subset;
use waso_graph::{label_propagation, NodeId, Partition};

use crate::job::{JobControl, Termination};
use crate::registry::SolverRegistry;
use crate::spec::{SolverSpec, SpecError};
use crate::{mix_seed, SharedPool, SolveError, SolveRequest, SolveResult, Solver, SolverStats};

/// Label-propagation round cap; propagation converges much earlier on
/// clustered graphs, this only bounds adversarial inputs. Kept tight
/// because partitioning is the decomposition's one O(rounds · m) cost —
/// at n = 10^5 eight rounds already reproduce the sixteen-round
/// partition to within a handful of communities at half the wall time.
const MAX_LPA_ROUNDS: usize = 8;
/// Default for `top=`: how many best-scored communities get solved.
const DEFAULT_TOP: usize = 4;
/// Boundary-repair candidate cap: only the strongest cross-community
/// neighbours (by attached pair weight) are tried per round.
const REPAIR_CAP: usize = 64;

/// The community-decomposition composite solver (`decomp:` specs).
///
/// Construct via [`Decomp::from_spec`] or the registry
/// (`SolverRegistry::builtin().build(&spec)`).
pub struct Decomp {
    spec: SolverSpec,
    /// Canonical inner solver name (default `cbas-nd`).
    inner: String,
    /// The inner entry's supported option keys, for knob forwarding.
    inner_options: &'static [&'static str],
}

impl Decomp {
    /// Validates a `decomp:` spec and builds the solver.
    ///
    /// Rejections mirror the registry's "never silently ignore" rule: an
    /// unknown `inner=`, a recursive `inner=decomp`, `top=0`, or a tuning
    /// knob the chosen inner solver does not support are all typed
    /// [`SpecError`]s at build time, not surprises at solve time.
    pub fn from_spec(spec: &SolverSpec) -> Result<Self, SpecError> {
        spec.ensure_ce_ranges()?;
        if spec.top == Some(0) {
            return Err(SpecError::OutOfRange {
                key: "top",
                value: "0".to_string(),
                expected: ">= 1",
            });
        }
        let registry = SolverRegistry::builtin();
        let inner_name = spec.inner.as_deref().unwrap_or("cbas-nd");
        let entry = registry
            .get(inner_name)
            .ok_or_else(|| SpecError::UnknownAlgorithm {
                name: inner_name.to_string(),
                known: registry.names(),
            })?;
        if entry.name == "decomp" {
            return Err(SpecError::BadValue {
                key: "inner",
                value: inner_name.to_string(),
            });
        }
        // Forwarded tuning knobs must be honoured by the inner solver.
        let forwarded: [(&'static str, bool); 8] = [
            ("budget", spec.budget.is_some()),
            ("stages", spec.stages.is_some()),
            ("start-nodes", spec.start_nodes.is_some()),
            ("threads", spec.threads.is_some()),
            ("rho", spec.rho.is_some()),
            ("smoothing", spec.smoothing.is_some()),
            ("backtrack", spec.backtrack.is_some()),
            ("patience", spec.patience.is_some()),
        ];
        for (key, set) in forwarded {
            if set && !entry.options.contains(&key) {
                return Err(SpecError::UnsupportedOption {
                    algorithm: entry.name,
                    key,
                });
            }
        }
        let decomp = Self {
            spec: spec.clone(),
            inner: entry.name.to_string(),
            inner_options: entry.options,
        };
        // Probe-build once so solve-time inner construction cannot fail.
        registry.build(&decomp.inner_spec(spec.budget_or_default()))?;
        Ok(decomp)
    }

    /// The inner solver's spec for one job of `budget` samples: the
    /// forwarded knobs (already validated as supported) plus the
    /// per-community budget share. Deadlines are *not* forwarded — the
    /// composite arms them once on the shared [`JobControl`], which every
    /// inner job observes.
    fn inner_spec(&self, budget: u64) -> SolverSpec {
        let mut s = SolverSpec::new(&self.inner);
        if self.inner_options.contains(&"budget") {
            s = s.budget(budget);
        }
        if let Some(r) = self.spec.stages {
            s = s.stages(r);
        }
        if let Some(m) = self.spec.start_nodes {
            s = s.start_nodes(m);
        }
        if let Some(t) = self.spec.threads {
            s = s.threads(t);
        }
        if let Some(rho) = self.spec.rho {
            s = s.rho(rho);
        }
        if let Some(w) = self.spec.smoothing {
            s = s.smoothing(w);
        }
        if let Some(z) = self.spec.backtrack {
            s = s.backtrack(z);
        }
        if let Some(p) = self.spec.patience {
            s = s.patience(p);
        }
        s
    }

    fn build_inner(&self, budget: u64) -> Box<dyn Solver + Send> {
        SolverRegistry::builtin()
            .build(&self.inner_spec(budget))
            .expect("inner spec was probe-built in Decomp::from_spec")
    }

    /// Whole-graph inner solve — the fallback whenever decomposition
    /// cannot help (one community, none large enough for a `k`-group, or
    /// required attendees straddling a boundary).
    fn solve_whole(&self, req: &SolveRequest<'_>, t0: Instant) -> Result<SolveResult, SolveError> {
        let mut inner = self.build_inner(self.spec.budget_or_default());
        let mut res = inner.solve(req)?;
        res.stats.elapsed = t0.elapsed();
        Ok(res)
    }

    fn run(&self, req: &SolveRequest<'_>) -> Result<SolveResult, SolveError> {
        let t0 = Instant::now(); // audit:allow(D2): wall-clock feeds SolverStats timing only — never sampling or group choice
        let (instance, required, seed) = (req.instance, req.required, req.seed);
        let unobserved;
        let control = match req.control {
            Some(control) => control,
            None => {
                unobserved = JobControl::new();
                &unobserved
            }
        };
        if let Some(reason) = control.stop_reason() {
            return Err(SolveError::NoIncumbent { reason });
        }
        if let Some(deadline) = self.spec.deadline() {
            control.arm_deadline(deadline);
        }
        // A threaded solve handed no pool runs every inner job on one
        // pool of its own, created here and dropped when the solve ends.
        let own_pool;
        let pool = match (req.pool, self.spec.threads) {
            (None, Some(threads)) => {
                own_pool = SharedPool::new(threads);
                Some(&own_pool)
            }
            (pool, _) => pool,
        };
        // The whole-graph fallback: the caller's request, with this
        // solve's pool and control.
        let whole = SolveRequest::new(instance, seed)
            .required(required)
            .pool(pool)
            .control(control);
        let g = instance.graph();
        let k = instance.k();

        let mut partition = label_propagation(g, mix_seed(seed, 0xDEC0, 0), MAX_LPA_ROUNDS);
        if let Some(target) = self.spec.communities {
            // `communities=auto` (the 0 sentinel) keeps the propagation's
            // community count.
            if target >= 1 && partition.num_communities() > target {
                partition = partition.coarsen(g, target);
            }
        }

        // Only communities that can host a k-group are solvable alone.
        let mut candidates: Vec<usize> = (0..partition.num_communities())
            .filter(|&c| partition.members(c).len() >= k)
            .collect();

        if !required.is_empty() {
            // Decomposition helps only when every required attendee lives
            // in one qualifying community; otherwise the answer must span
            // boundaries and the whole graph is the honest search space.
            let home = partition.community_of(required[0]);
            let together = required.iter().all(|&v| partition.community_of(v) == home);
            if together && partition.members(home).len() >= k {
                candidates = vec![home];
            } else {
                return self.solve_whole(&whole, t0);
            }
        }
        if partition.num_communities() < 2 || candidates.is_empty() {
            return self.solve_whole(&whole, t0);
        }

        // Score = Σ interests + Σ intra-community directed tightness, which
        // is exactly `total_willingness_upper()` of the induced subgraph
        // (intra edges keep both directions) without materializing it.
        let mut score = vec![0.0f64; partition.num_communities()];
        for v in g.node_ids() {
            let cv = partition.community_of(v);
            score[cv] += g.interest(v);
            for (u, tau, _pw) in g.neighbor_entries(v) {
                if partition.community_of(u) == cv {
                    score[cv] += tau;
                }
            }
        }
        candidates.sort_by(|&a, &b| {
            score[b]
                .partial_cmp(&score[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let top = self.spec.top.unwrap_or(DEFAULT_TOP).min(candidates.len());
        candidates.truncate(top);

        let per_budget = (self.spec.budget_or_default() / candidates.len() as u64).max(1);
        let mut best: Option<Group> = None;
        let mut agg = SolverStats::default();
        let mut stopped: Option<Termination> = None;

        for (rank, &cid) in candidates.iter().enumerate() {
            if let Some(reason) = control.stop_reason() {
                stopped = Some(reason);
                break;
            }
            let members = partition.members(cid);
            let Induced {
                graph: sub_g,
                to_parent,
            } = induced_subgraph(g, members);
            let sub_instance = if instance.requires_connectivity() {
                WasoInstance::new(sub_g, k)
            } else {
                WasoInstance::without_connectivity(sub_g, k)
            }
            .map_err(SolveError::Invalid)?;
            // `members` is sorted by node id, so induced ids are positions.
            let sub_required: Vec<NodeId> = required
                .iter()
                .map(|v| {
                    let idx = members
                        .binary_search(v)
                        .expect("required attendees verified to live in this community");
                    NodeId(idx as u32)
                })
                .collect();

            let mut inner = self.build_inner(per_budget);
            let seed_c = mix_seed(seed, rank as u64 + 1, cid as u64);
            let sub_instance = Arc::new(sub_instance);
            let sub_req = SolveRequest::new(&sub_instance, seed_c)
                .required(&sub_required)
                .pool(pool)
                .control(control);
            match inner.solve(&sub_req) {
                Ok(res) => {
                    agg.samples_drawn += res.stats.samples_drawn;
                    agg.stages += res.stats.stages;
                    agg.start_nodes += res.stats.start_nodes;
                    agg.pruned_start_nodes += res.stats.pruned_start_nodes;
                    agg.backtracks += res.stats.backtracks;
                    agg.truncated |= res.stats.truncated;
                    // Lift to parent ids: willingness is identical because
                    // every pair edge of an intra-community group survives
                    // the induction.
                    let lifted = Group::new(instance, to_parent_ids(&to_parent, &res.group))
                        .map_err(SolveError::Invalid)?;
                    if best
                        .as_ref()
                        .map(|b| lifted.willingness() > b.willingness())
                        .unwrap_or(true)
                    {
                        best = Some(lifted);
                    }
                    let b = best.as_ref().expect("just set");
                    control.publish_stage(
                        agg.stages,
                        agg.samples_drawn,
                        Some((b.willingness(), b.nodes())),
                    );
                }
                // A community that cannot actually host a connected
                // k-group (propagation does not guarantee internal
                // connectivity) is skipped, not fatal.
                Err(SolveError::NoFeasibleGroup) => {}
                Err(SolveError::NoIncumbent { reason }) => {
                    stopped = Some(reason);
                    break;
                }
                Err(e) => return Err(e),
            }
        }

        let best = match best {
            Some(b) => b,
            None => {
                if let Some(reason) = stopped {
                    return Err(SolveError::NoIncumbent { reason });
                }
                return self.solve_whole(&whole, t0);
            }
        };
        let repaired = boundary_repair(instance, &partition, best, required);

        agg.termination = control.stop_reason().unwrap_or(Termination::Completed);
        agg.truncated |= agg.termination != Termination::Completed;
        agg.elapsed = t0.elapsed();
        control.publish_stage(
            agg.stages,
            agg.samples_drawn,
            Some((repaired.willingness(), repaired.nodes())),
        );
        Ok(SolveResult {
            group: repaired,
            stats: agg,
        })
    }
}

/// Maps an induced-subgraph group back to parent node ids.
fn to_parent_ids(to_parent: &[NodeId], group: &Group) -> Vec<NodeId> {
    group.nodes().iter().map(|v| to_parent[v.index()]).collect()
}

/// Best-improvement swap pass over community boundaries.
///
/// Candidates are non-members adjacent to the group through a
/// cross-community edge, ranked by total attached pair weight (strongest
/// first, then smaller id) and capped at [`REPAIR_CAP`]. Each round tries
/// every (member out, candidate in) swap that keeps the group feasible —
/// connectivity is re-checked via BFS on the remainder plus a frontier
/// membership test — and takes the best strict willingness improvement,
/// breaking ties toward the smaller (in, out) id pair. At most `k` rounds,
/// so the pass is bounded and deterministic.
fn boundary_repair(
    instance: &WasoInstance,
    partition: &Partition,
    group: Group,
    required: &[NodeId],
) -> Group {
    let g = instance.graph();
    let k = instance.k();
    if k < 2 {
        return group;
    }
    let mut nodes: Vec<NodeId> = group.nodes().to_vec();
    let mut best_w = group.willingness();
    let mut ws = GrowthWorkspace::new(g.num_nodes());
    let mut improved_any = false;

    for _round in 0..k {
        // Cross-boundary candidates, ranked by attached pair weight.
        let mut attach: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
        for &s in &nodes {
            let cs = partition.community_of(s);
            for (y, _tau, pw) in g.neighbor_entries(s) {
                if nodes.binary_search(&y).is_err() && partition.community_of(y) != cs {
                    *attach.entry(y.0).or_insert(0.0) += pw;
                }
            }
        }
        let mut candidates: Vec<(NodeId, f64)> =
            attach.into_iter().map(|(y, w)| (NodeId(y), w)).collect();
        candidates.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        candidates.truncate(REPAIR_CAP);
        if candidates.is_empty() {
            break;
        }

        let mut best_swap: Option<(f64, NodeId, NodeId)> = None; // (W, in, out)
        for &x in &nodes {
            if required.contains(&x) {
                continue;
            }
            let rest: Vec<NodeId> = nodes.iter().copied().filter(|&v| v != x).collect();
            if instance.requires_connectivity() && !is_connected_subset(g, &rest) {
                continue;
            }
            ws.seed_set(g, &rest);
            let base = ws.willingness();
            for &(y, _) in &candidates {
                if instance.requires_connectivity() && !ws.frontier().contains(y) {
                    continue;
                }
                let w_new = base + ws.gain(g, y);
                let better = w_new > best_w + 1e-9
                    && best_swap
                        .as_ref()
                        .map(|&(bw, by, bx)| {
                            w_new > bw + 1e-9 || (w_new >= bw - 1e-9 && (y, x) < (by, bx))
                        })
                        .unwrap_or(true);
                if better {
                    best_swap = Some((w_new, y, x));
                }
            }
            ws.reset();
        }
        match best_swap {
            Some((w, y, x)) => {
                nodes.retain(|&v| v != x);
                nodes.push(y);
                nodes.sort_unstable();
                best_w = w;
                improved_any = true;
            }
            None => break,
        }
    }
    if improved_any {
        Group::new_unchecked(instance, nodes)
    } else {
        group
    }
}

impl Solver for Decomp {
    fn name(&self) -> &'static str {
        "decomp"
    }

    fn pool_threads(&self) -> Option<usize> {
        self.spec.threads
    }

    fn solve(&mut self, req: &SolveRequest<'_>) -> Result<SolveResult, SolveError> {
        self.run(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waso_graph::GraphBuilder;

    fn build_clustered(k: usize) -> Arc<WasoInstance> {
        // Deterministic hand-rolled two-community graph: nodes 0..8 form a
        // tight clique-ish block, 8..16 another, one weak bridge 7–8.
        let mut b = GraphBuilder::new();
        for i in 0..16 {
            b.add_node(5.0 + (i % 4) as f64);
        }
        let tight = 3.0;
        for base in [0u32, 8] {
            for i in base..base + 8 {
                for j in (i + 1)..base + 8 {
                    if (i + j) % 3 != 0 {
                        b.add_edge_symmetric(NodeId(i), NodeId(j), tight).unwrap();
                    }
                }
            }
        }
        b.add_edge_symmetric(NodeId(7), NodeId(8), 0.1).unwrap();
        Arc::new(WasoInstance::new(b.build(), k).unwrap())
    }

    fn decomp(spec: SolverSpec) -> Decomp {
        Decomp::from_spec(&spec).unwrap()
    }

    #[test]
    fn from_spec_validates() {
        assert!(Decomp::from_spec(&SolverSpec::new("decomp")).is_ok());
        assert!(matches!(
            Decomp::from_spec(&SolverSpec::new("decomp").inner("decomp")),
            Err(SpecError::BadValue { key: "inner", .. })
        ));
        assert!(matches!(
            Decomp::from_spec(&SolverSpec::new("decomp").inner("nope")),
            Err(SpecError::UnknownAlgorithm { .. })
        ));
        assert!(matches!(
            Decomp::from_spec(&SolverSpec::new("decomp").top(0)),
            Err(SpecError::OutOfRange { key: "top", .. })
        ));
        // Forwarded knobs the inner solver rejects are build-time errors.
        assert!(matches!(
            Decomp::from_spec(&SolverSpec::new("decomp").inner("dgreedy").rho(0.5)),
            Err(SpecError::UnsupportedOption {
                algorithm: "dgreedy",
                key: "rho"
            })
        ));
        // dgreedy inner without foreign knobs is fine.
        assert!(Decomp::from_spec(&SolverSpec::new("decomp").inner("dgreedy")).is_ok());
    }

    #[test]
    fn solves_clustered_graph_deterministically() {
        let inst = build_clustered(4);
        let spec = SolverSpec::new("decomp").budget(200).stages(3).top(2);
        let a = decomp(spec.clone())
            .solve(&SolveRequest::new(&inst, 11))
            .unwrap();
        let b = decomp(spec).solve(&SolveRequest::new(&inst, 11)).unwrap();
        assert_eq!(a.group, b.group);
        assert_eq!(a.group.len(), 4);
        a.group.validate(&inst).unwrap();
    }

    #[test]
    fn honours_required_attendees() {
        let inst = build_clustered(4);
        let spec = SolverSpec::new("decomp").budget(200).stages(3);
        // All required in one community.
        let res = decomp(spec.clone())
            .solve(&SolveRequest::new(&inst, 3).required(&[NodeId(9), NodeId(10)]))
            .unwrap();
        assert!(res.group.contains(NodeId(9)) && res.group.contains(NodeId(10)));
        // Straddling the boundary forces the whole-graph fallback, which
        // must still honour the constraint.
        let res = decomp(spec)
            .solve(&SolveRequest::new(&inst, 3).required(&[NodeId(7), NodeId(8)]))
            .unwrap();
        assert!(res.group.contains(NodeId(7)) && res.group.contains(NodeId(8)));
    }

    #[test]
    fn falls_back_when_no_community_fits_k() {
        // k larger than either community: decomposition cannot help, the
        // whole-graph fallback must still answer.
        let inst = build_clustered(10);
        let res = decomp(SolverSpec::new("decomp").budget(200).stages(2))
            .solve(&SolveRequest::new(&inst, 5))
            .unwrap();
        assert_eq!(res.group.len(), 10);
        res.group.validate(&inst).unwrap();
    }

    #[test]
    fn cancelled_before_start_returns_no_incumbent() {
        let inst = build_clustered(4);
        let control = JobControl::new();
        control.cancel();
        let err = decomp(SolverSpec::new("decomp").budget(100))
            .solve(&SolveRequest::new(&inst, 1).control(&control))
            .unwrap_err();
        assert!(matches!(
            err,
            SolveError::NoIncumbent {
                reason: Termination::Cancelled
            }
        ));
    }

    #[test]
    fn community_score_matches_induced_upper_bound() {
        let inst = build_clustered(4);
        let g = inst.graph();
        let partition = label_propagation(g, 42, MAX_LPA_ROUNDS);
        for (c, members) in partition.communities() {
            let mut score = 0.0;
            for &v in members {
                score += g.interest(v);
                for (u, tau, _pw) in g.neighbor_entries(v) {
                    if partition.community_of(u) == c {
                        score += tau;
                    }
                }
            }
            let induced = induced_subgraph(g, members);
            assert!(
                (score - induced.graph.total_willingness_upper()).abs() < 1e-9,
                "community {c}: {} vs {}",
                score,
                induced.graph.total_willingness_upper()
            );
        }
    }

    #[test]
    fn boundary_repair_recovers_cross_boundary_swap() {
        // A 6-node graph where the best 3-group uses the bridge: members
        // {1,2,3} willingness-dominated, but node 4 across the boundary
        // attaches with a huge pair weight to 3.
        let mut b = GraphBuilder::new();
        for _ in 0..6 {
            b.add_node(1.0);
        }
        b.add_edge_symmetric(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge_symmetric(NodeId(1), NodeId(2), 1.0).unwrap();
        b.add_edge_symmetric(NodeId(2), NodeId(3), 1.0).unwrap();
        b.add_edge_symmetric(NodeId(3), NodeId(4), 10.0).unwrap();
        b.add_edge_symmetric(NodeId(4), NodeId(5), 1.0).unwrap();
        let inst = WasoInstance::new(b.build(), 3).unwrap();
        // Force a partition boundary between 3 and 4.
        let partition = Partition::from_raw_labels(&[0, 0, 0, 0, 1, 1]);
        let start = Group::new(&inst, vec![NodeId(1), NodeId(2), NodeId(3)]).unwrap();
        let repaired = boundary_repair(&inst, &partition, start, &[]);
        assert!(repaired.contains(NodeId(4)), "{:?}", repaired.nodes());
        assert!(repaired.willingness() > 6.0);
    }

    #[test]
    fn required_members_survive_repair() {
        let inst = build_clustered(4);
        let spec = SolverSpec::new("decomp").budget(150).stages(2);
        let req = [NodeId(0)];
        let res = decomp(spec)
            .solve(&SolveRequest::new(&inst, 7).required(&req))
            .unwrap();
        assert!(res.group.contains(NodeId(0)));
    }
}
