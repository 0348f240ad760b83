//! Integration tests for every §2.2 scenario, end to end: transformation →
//! solve → interpretation in the original graph's terms.

use waso::core::scenario;
use waso::prelude::*;
use waso_exact::{exhaustive_optimum, BranchBound};
use waso_graph::traversal;

/// A two-community playground: a tight clique (0-3) and a looser star
/// (4-8) joined by one bridge.
fn playground() -> SocialGraph {
    let mut b = GraphBuilder::new();
    let interests = [0.2, 0.3, 0.1, 0.4, 0.9, 0.8, 0.7, 0.6, 0.5];
    let ids: Vec<NodeId> = interests.iter().map(|&x| b.add_node(x)).collect();
    // Clique on 0..4 with strong ties.
    for u in 0..4 {
        for v in (u + 1)..4 {
            b.add_edge_symmetric(ids[u], ids[v], 0.8).unwrap();
        }
    }
    // Star centred at 4 with weak ties.
    for leaf in 5..9 {
        b.add_edge_symmetric(ids[4], ids[leaf], 0.2).unwrap();
    }
    // Bridge.
    b.add_edge_symmetric(ids[3], ids[4], 0.3).unwrap();
    b.build()
}

#[test]
fn couple_merge_solves_and_expands() {
    let g = playground();
    // Nodes 0 and 1 are a couple: merge, solve for k-1, expand.
    let merge = scenario::merge_couple(&g, NodeId(0), NodeId(1)).unwrap();
    let k = 4;
    let inst = WasoInstance::new(merge.graph.clone(), k - 1).unwrap();
    let best = BranchBound::new().solve(&inst, None).unwrap();

    let expanded = scenario::expand_couple(&merge, best.group.nodes());
    assert_eq!(expanded.len(), k);
    // The expanded group is feasible in the ORIGINAL graph and contains
    // both halves of the couple iff it contains the merged node.
    if best.group.contains(merge.merged) {
        assert!(expanded.contains(&NodeId(0)) && expanded.contains(&NodeId(1)));
    }
    assert!(traversal::is_connected_subset(&g, &expanded));
    // Willingness is preserved by the merge transformation.
    let w_original = waso::core::willingness(&g, &expanded);
    assert!((w_original - best.group.willingness()).abs() < 1e-9);
}

#[test]
fn foes_are_never_grouped_by_the_exact_solver() {
    let g = playground();
    let penalty = scenario::default_foe_penalty(&g);
    // Make the two strongest clique members foes.
    let poisoned = scenario::mark_foes(&g, NodeId(0), NodeId(1), penalty).unwrap();
    let inst = WasoInstance::new(poisoned, 4).unwrap();
    let best = BranchBound::new().solve(&inst, None).unwrap();
    assert!(
        !(best.group.contains(NodeId(0)) && best.group.contains(NodeId(1))),
        "foes ended up together: {}",
        best.group
    );
}

#[test]
fn invitation_keeps_the_host_and_neighbourhood() {
    let g = playground();
    let host = NodeId(4);
    let (inst, ego) = scenario::invitation(&g, host, 3).unwrap();
    // Candidate pool = closed neighbourhood of the host.
    assert_eq!(inst.graph().num_nodes(), g.degree(host) + 1);
    let mut cfg = CbasNdConfig::fast();
    cfg.base.start_override = Some(vec![NodeId(0)]);
    let res = StagedEngine::from_cbasnd(&cfg)
        .solve(&SolveRequest::new(&std::sync::Arc::new(inst), 1))
        .unwrap();
    assert!(res.group.contains(NodeId(0)), "host must attend");
    // All members map back to host-adjacent people (or the host).
    for &v in res.group.nodes() {
        let orig = ego.parent_id(v);
        assert!(orig == host || g.has_edge(host, orig));
    }
}

#[test]
fn exhibition_and_house_warming_flip_the_recommendation() {
    let g = playground();
    let k = 3;
    // Interest-only: the star side (high η) wins.
    let interest_inst = scenario::exhibition(&g, k).unwrap();
    let by_interest = exhaustive_optimum(&interest_inst).unwrap();
    // Tightness-only: the clique side (strong τ) wins.
    let tight_inst = scenario::house_warming(&g, k).unwrap();
    let by_tightness = exhaustive_optimum(&tight_inst).unwrap();

    assert!(by_interest.contains(NodeId(4)), "star centre has η = 0.9");
    assert!(
        by_tightness.nodes().iter().all(|v| v.index() < 4),
        "tightness-only must pick inside the clique: {}",
        by_tightness
    );
    assert_ne!(by_interest.nodes(), by_tightness.nodes());
}

#[test]
fn theorem_two_reduction_matches_native_unconstrained() {
    // Theorem 2: F* is optimal for WASO-dis iff F* ∪ {v} is optimal for
    // the augmented WASO instance. Verify on the playground for several k.
    let g = playground();
    for k in [2usize, 3, 4] {
        let native = WasoInstance::without_connectivity(g.clone(), k).unwrap();
        let native_opt = exhaustive_optimum(&native).unwrap();

        let red = scenario::separate_groups(&g, k, 1.0).unwrap();
        let aug_opt = BranchBound::new().solve(&red.instance, None).unwrap();
        assert!(
            aug_opt.group.contains(red.virtual_node),
            "k={k}: the virtual node dominates every optimal solution"
        );
        let stripped = red.strip(aug_opt.group.nodes());
        let w = waso::core::willingness(&g, &stripped);
        assert!(
            (w - native_opt.willingness()).abs() < 1e-9,
            "k={k}: reduction {w} vs native {}",
            native_opt.willingness()
        );
    }
}

#[test]
fn lambda_extremes_match_dedicated_scenarios() {
    let g = playground();
    let k = 3;
    let n = g.num_nodes();
    let via_lambda_1 = WasoInstance::with_lambda(g.clone(), k, &vec![1.0; n]).unwrap();
    let via_exhibition = scenario::exhibition(&g, k).unwrap();
    assert_eq!(via_lambda_1.graph(), via_exhibition.graph());

    let via_lambda_0 = WasoInstance::with_lambda(g.clone(), k, &vec![0.0; n]).unwrap();
    let via_party = scenario::house_warming(&g, k).unwrap();
    assert_eq!(via_lambda_0.graph(), via_party.graph());
}
