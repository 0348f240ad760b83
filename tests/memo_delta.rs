//! Memoization + incremental-delta contracts of [`WasoSession`]:
//!
//! * solving between random deltas ≡ solving a fresh session over the
//!   graph rebuilt from scratch — the same group and sample count,
//!   bit-for-bit, across every pool width 1–8 (the CSR rebuild is
//!   exact, and a session's answer never depends on its history);
//! * a memo hit returns the original [`SolveResult`] bit-identically,
//!   in O(1) (no solver runs — pinned through the hit/miss counters);
//! * a delta invalidates **every** cached entry of the pre-delta graph:
//!   start-node selection ranks the whole graph, so no delta is too far
//!   from a cached group to change its solve;
//! * so does every result-relevant configuration change, and a solve
//!   still running when the generation changes does not cache;
//! * the memo holds at most 1024 results, evicting the oldest first.

use std::sync::mpsc::{channel, Receiver};
use std::sync::{Mutex, PoisonError};

use proptest::collection;
use proptest::prelude::*;
use waso::prelude::*;
use waso_graph::{generate, GraphDelta, InterestModel, ScoreModel, TightnessModel};

/// A connected random graph: a spanning path plus `extra` random edges.
fn random_graph(seed: u64, n: usize, extra: usize) -> SocialGraph {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
    edges.extend(generate::erdos_renyi_gnm(n, extra.min(n * (n - 1) / 2), &mut rng).edges);
    let topo = generate::GraphTopology::new(n, edges);
    let model = ScoreModel {
        interest: InterestModel::Uniform { lo: -0.5, hi: 1.5 },
        tightness: TightnessModel::Uniform { lo: -0.3, hi: 1.0 },
    };
    model.realize(&topo, &mut rng)
}

/// Turns an arbitrary "intent" tuple into a delta that is valid against
/// the *current* graph state, so random sequences always apply.
fn realize_delta(g: &SocialGraph, kind: u8, a: u32, b: u32, x: f64, y: f64) -> GraphDelta {
    let n = g.num_nodes() as u32;
    let u = NodeId(a % n);
    let mut v = NodeId(b % n);
    if v == u {
        v = NodeId((v.0 + 1) % n);
    }
    match kind % 4 {
        0 if !g.has_edge(u, v) => GraphDelta::AddEdge {
            u,
            v,
            tau_uv: x,
            tau_vu: y,
        },
        // Only drop an edge whose endpoints keep other neighbours, so
        // random sequences rarely strand the whole instance.
        1 if g.has_edge(u, v) && g.degree(u) > 1 && g.degree(v) > 1 => {
            GraphDelta::RemoveEdge { u, v }
        }
        2 => GraphDelta::SetInterest { v: u, interest: x },
        _ if g.has_edge(u, v) => GraphDelta::SetTightness {
            u,
            v,
            tau_uv: x,
            tau_vu: y,
        },
        _ => GraphDelta::SetInterest { v: u, interest: x },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole equivalence: a session mutated by `apply(delta)` and
    /// solved after every delta answers exactly like a fresh session over
    /// a from-scratch graph carrying the same edits, across delta
    /// sequences and pool widths — never a stale memo replay, and never
    /// an answer shaped by the session's earlier solves.
    #[test]
    fn delta_solves_match_rebuilt_graphs(
        seed in 0u64..500,
        intents in collection::vec(
            (0u8..4, any::<u32>(), any::<u32>(), -0.5..1.5f64, -0.3..1.0f64),
            1..6,
        ),
        threads in 1usize..=8,
    ) {
        let base = random_graph(seed, 16, 12);
        let spec = format!("cbas-nd-par:budget=200,stages=3,threads={threads}");
        let mut session = WasoSession::new(base.clone()).k(4).seed(seed);
        let mut rebuilt = base;
        for step in 0..=intents.len() {
            if let Some(&(kind, a, b, x, y)) = step.checked_sub(1).and_then(|i| intents.get(i)) {
                let delta = realize_delta(&rebuilt, kind, a, b, x, y);
                rebuilt = delta.apply(&rebuilt).unwrap();
                session.apply(&delta).unwrap();
                // The delta'd CSR is bit-exactly the rebuilt one.
                prop_assert_eq!(
                    waso::graph::io::to_string(session.graph()),
                    waso::graph::io::to_string(&rebuilt)
                );
            }
            let hits = session.memo_stats().hits;
            let fresh = WasoSession::new(rebuilt.clone()).k(4).seed(seed);
            match (session.solve_str(&spec), fresh.solve_str(&spec)) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(session.memo_stats().hits, hits, "replayed a memo entry");
                    let recomputed =
                        Group::new(&session.instance().unwrap(), a.group.nodes().to_vec()).unwrap();
                    prop_assert_eq!(
                        a.group.willingness().to_bits(),
                        recomputed.willingness().to_bits()
                    );
                    prop_assert_eq!(a.stats.samples_drawn, b.stats.samples_drawn);
                    prop_assert_eq!(a.group.nodes(), b.group.nodes());
                    prop_assert_eq!(
                        a.group.willingness().to_bits(),
                        b.group.willingness().to_bits()
                    );
                    // The new generation's memo works: a repeat solve is
                    // a hit that replays the result exactly.
                    let again = session.solve_str(&spec).unwrap();
                    prop_assert_eq!(again.group.nodes(), a.group.nodes());
                    prop_assert_eq!(again.stats.samples_drawn, a.stats.samples_drawn);
                    prop_assert_eq!(session.memo_stats().hits, hits + 1);
                }
                // A savage delta sequence can strand the instance; both
                // paths must agree on that too.
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(
                    false,
                    "divergent feasibility: applied={:?} rebuilt={:?}",
                    a.map(|r| r.group.willingness()),
                    b.map(|r| r.group.willingness())
                ),
            }
        }
    }

}

#[test]
fn memo_hits_are_bit_identical_and_counted() {
    let session = WasoSession::new(random_graph(3, 20, 15)).k(4).seed(7);
    let spec = "cbas-nd:budget=300,stages=4";
    let first = session.solve_str(spec).unwrap();
    let second = session.solve_str(spec).unwrap();
    assert_eq!(second.group.nodes(), first.group.nodes());
    assert_eq!(
        second.group.willingness().to_bits(),
        first.group.willingness().to_bits()
    );
    assert_eq!(second.stats.samples_drawn, first.stats.samples_drawn);
    assert_eq!(second.stats.stages, first.stats.stages);

    let stats = session.memo_stats();
    assert_eq!((stats.hits, stats.misses, stats.invalidated), (1, 1, 0));

    // A different spec or constraint set is a different key.
    session.solve_str("cbas-nd:budget=300,stages=5").unwrap();
    let stats = session.memo_stats();
    assert_eq!((stats.hits, stats.misses), (1, 2));
}

#[test]
fn wall_clock_bounded_specs_bypass_the_memo() {
    let session = WasoSession::new(random_graph(4, 20, 15)).k(4).seed(7);
    let spec = "cbas-nd:budget=200,stages=3,deadline_ms=60000";
    session.solve_str(spec).unwrap();
    session.solve_str(spec).unwrap();
    let stats = session.memo_stats();
    assert_eq!((stats.hits, stats.misses), (0, 0));
}

/// Two cliques with no edges between them: entries anchored in one are
/// outside the other's one-hop frontier.
fn two_cliques() -> SocialGraph {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..8).map(|i| b.add_node(4.0 + i as f64)).collect();
    for half in [&ids[..4], &ids[4..]] {
        for (i, &u) in half.iter().enumerate() {
            for &v in &half[i + 1..] {
                b.add_edge_symmetric(u, v, 1.0).unwrap();
            }
        }
    }
    b.build()
}

#[test]
fn deltas_invalidate_every_entry_of_the_pre_delta_graph() {
    let session = WasoSession::new(two_cliques()).k(3).seed(9);
    let in_a = "cbas-nd:budget=150,stages=3,require=0";
    let in_b = "cbas-nd:budget=150,stages=3,require=4";
    let first_a = session.solve_str(in_a).unwrap();
    let first_b = session.solve_str(in_b).unwrap();
    assert!(first_a.group.contains(NodeId(0)));
    assert!(first_b.group.contains(NodeId(4)));

    // Weaken an edge inside entry A's winning group: both entries die,
    // entry B too, although the delta lies outside its one-hop frontier.
    let (u, v) = (first_a.group.nodes()[0], first_a.group.nodes()[1]);
    let mut session = session;
    session
        .apply(&GraphDelta::SetTightness {
            u,
            v,
            tau_uv: 0.25,
            tau_vu: 0.25,
        })
        .unwrap();
    assert_eq!(session.memo_stats().invalidated, 2);

    // Both re-solve (misses, no hits), and each willingness is computed
    // on the *delta'd* graph — never a cached value.
    for (spec, first) in [(in_b, &first_b), (in_a, &first_a)] {
        let again = session.solve_str(spec).unwrap();
        let recomputed =
            Group::new(&session.instance().unwrap(), again.group.nodes().to_vec()).unwrap();
        assert_eq!(
            again.group.willingness().to_bits(),
            recomputed.willingness().to_bits(),
            "{spec}"
        );
        if spec == in_a {
            assert!(again.group.willingness() < first.group.willingness());
        }
    }
    let stats = session.memo_stats();
    assert_eq!((stats.hits, stats.misses), (0, 4));
}

/// A delta far from the cached group can still change the answer:
/// raising node 0's interest moves it into the start-node set, and the
/// best group moves into the other clique. Serving the cached group
/// here returned {5, 6, 7} with W = 36 against a fresh solve's
/// {0, 2, 3} with W = 119.
#[test]
fn a_delta_outside_the_cached_group_still_invalidates_it() {
    let mut session = WasoSession::new(two_cliques()).k(3).seed(9);
    let spec = "cbas-nd:budget=150,stages=3";
    let before = session.solve_str(spec).unwrap();
    assert_eq!(before.group.nodes(), [NodeId(5), NodeId(6), NodeId(7)]);

    let delta = GraphDelta::SetInterest {
        v: NodeId(0),
        interest: 100.0,
    };
    session.apply(&delta).unwrap();
    let after = session.solve_str(spec).unwrap();
    let fresh = WasoSession::new(delta.apply(&two_cliques()).unwrap())
        .k(3)
        .seed(9)
        .solve_str(spec)
        .unwrap();
    assert_eq!(session.memo_stats().hits, 0, "served the pre-delta answer");
    assert_eq!(after.group.nodes(), fresh.group.nodes());
    assert_eq!(after.group.nodes(), [NodeId(0), NodeId(2), NodeId(3)]);
    assert_eq!(after.group.willingness(), 119.0);
}

/// The satellite regression: solve → delta touching the group → solve
/// must never serve the pre-delta result, under any submission path.
#[test]
fn replan_after_delta_never_serves_a_stale_group() {
    let mut session = WasoSession::new(two_cliques()).k(3).seed(11);
    let spec = "cbas-nd:budget=150,stages=3";
    let before = session.solve_str(spec).unwrap();

    // Weaken an edge inside the winning group.
    let (u, v) = (before.group.nodes()[0], before.group.nodes()[1]);
    session
        .apply(&GraphDelta::SetTightness {
            u,
            v,
            tau_uv: 0.1,
            tau_vu: 0.1,
        })
        .unwrap();

    // The handle path and the blocking path agree, and both re-solve.
    let after = session
        .submit(&session.registry().parse(spec).unwrap())
        .unwrap();
    let after = after.wait().unwrap();
    let recomputed =
        Group::new(&session.instance().unwrap(), after.group.nodes().to_vec()).unwrap();
    assert_eq!(
        after.group.willingness().to_bits(),
        recomputed.willingness().to_bits()
    );
    assert_ne!(
        after.group.willingness().to_bits(),
        before.group.willingness().to_bits(),
        "delta'd solve replayed the stale cached willingness"
    );
    assert_eq!(session.memo_stats().invalidated, 1);
}

#[test]
fn rejected_deltas_change_nothing() {
    let mut session = WasoSession::new(two_cliques()).k(3).seed(5);
    let spec = "cbas-nd:budget=150,stages=3";
    let before = session.solve_str(spec).unwrap();
    let bad = GraphDelta::AddEdge {
        u: NodeId(0),
        v: NodeId(1), // already an edge
        tau_uv: 1.0,
        tau_vu: 1.0,
    };
    assert!(matches!(session.apply(&bad), Err(SessionError::Delta(_))));
    // Graph untouched, memo untouched: the repeat solve is a pure hit.
    let again = session.solve_str(spec).unwrap();
    assert_eq!(again.group.nodes(), before.group.nodes());
    let stats = session.memo_stats();
    assert_eq!((stats.hits, stats.invalidated), (1, 0));
}

/// A session's answer after a delta depends only on the delta'd graph,
/// never on the group it answered before. With the pre-delta group kept
/// as an incumbent to beat, this session returned {0, 1, 8, 13, 16} with
/// W = 17.2827 while a fresh session over the same graph returns
/// {0, 2, 8, 13, 16} with W = 17.0834.
#[test]
fn re_solve_after_delta_ignores_the_previous_answer() {
    let seed = 4;
    let graph = waso::datasets::synthetic::facebook_like_n(60, seed);
    let spec = "cbas-nd:budget=60,stages=3";
    let mut session = WasoSession::new(graph.clone()).k(5).seed(seed);
    let before = session.solve_str(spec).unwrap();
    let delta = GraphDelta::SetInterest {
        v: before.group.nodes()[0],
        interest: 0.0,
    };
    session.apply(&delta).unwrap();
    let after = session.solve_str(spec).unwrap();
    let fresh = WasoSession::new(delta.apply(&graph).unwrap())
        .k(5)
        .seed(seed)
        .solve_str(spec)
        .unwrap();
    assert_eq!(after.group.nodes(), fresh.group.nodes());
    assert_eq!(
        after.group.willingness().to_bits(),
        fresh.group.willingness().to_bits()
    );
    let ids: Vec<u32> = fresh.group.nodes().iter().map(|v| v.0).collect();
    assert_eq!(ids, [0, 2, 8, 13, 16]);
    assert!((fresh.group.willingness() - 17.0834).abs() < 1e-4);
}

/// Reconfiguring a session starts a new memo generation: its entries
/// are dropped and counted, and changing the setting back re-solves
/// instead of replaying the old entry.
#[test]
fn reconfiguration_drops_entries() {
    let spec = "cbas-nd:budget=150,stages=3";
    let session = WasoSession::new(two_cliques()).k(3).seed(9);
    let first = session.solve_str(spec).unwrap();

    let session = session.k(4);
    assert_eq!(session.memo_stats().invalidated, 1);
    let session = session.k(3);
    let again = session.solve_str(spec).unwrap();
    assert_eq!(again.group, first.group);
    assert_eq!(again.stats.samples_drawn, first.stats.samples_drawn);
    let stats = session.memo_stats();
    assert_eq!((stats.hits, stats.misses, stats.invalidated), (0, 2, 1));

    let session = session.seed(10);
    assert_eq!(session.memo_stats().invalidated, 2);
    let session = session.seed(9);
    let reseeded = session.solve_str(spec).unwrap();
    assert_eq!(reseeded.group, first.group);
    assert_eq!(reseeded.stats.samples_drawn, first.stats.samples_drawn);
    let stats = session.memo_stats();
    assert_eq!((stats.hits, stats.misses, stats.invalidated), (0, 3, 2));
}

/// Holds every `gate` solve until the test drops the matching sender.
static GATE: Mutex<Option<Receiver<()>>> = Mutex::new(None);

/// DGreedy behind [`GATE`]: its solve waits for the gate to open.
struct GateSolver;

impl Solver for GateSolver {
    fn name(&self) -> &'static str {
        "gate"
    }

    fn solve(&mut self, req: &SolveRequest<'_>) -> Result<SolveResult, SolveError> {
        if let Some(gate) = GATE.lock().unwrap_or_else(PoisonError::into_inner).as_ref() {
            // Err once the sender is dropped: the gate is open for good.
            let _ = gate.recv();
        }
        DGreedy::new().solve(req)
    }
}

/// The full registry plus `gate`.
fn gated_registry() -> SolverRegistry {
    let mut registry = waso::registry();
    registry.register(waso::algos::RegistryEntry {
        name: "gate",
        aliases: &[],
        label: "Gate",
        summary: "DGreedy that waits for the test to open a gate",
        capabilities: Capabilities::default(),
        roster_rank: None,
        costly: false,
        options: &[],
        build: |_| Ok(Box::new(GateSolver)),
    });
    registry
}

/// A job that read the memo before a delta and finished after it solved
/// the pre-delta instance: it must not seed the new generation.
#[test]
fn a_job_in_flight_across_a_delta_is_not_cached() {
    let (open, gate) = channel();
    *GATE.lock().unwrap_or_else(PoisonError::into_inner) = Some(gate);
    let delta = GraphDelta::SetInterest {
        v: NodeId(0),
        interest: 100.0,
    };
    let mut session = WasoSession::new(two_cliques())
        .k(3)
        .with_registry(gated_registry());
    let spec = session.registry().parse("gate").unwrap();
    let handle = session.submit(&spec).unwrap();
    session.apply(&delta).unwrap();
    drop(open);
    let stale = handle.wait().unwrap();

    let again = session.solve(&spec).unwrap();
    let stats = session.memo_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 2),
        "cached a pre-delta answer"
    );
    let fresh = WasoSession::new(delta.apply(&two_cliques()).unwrap())
        .k(3)
        .with_registry(gated_registry())
        .solve(&spec)
        .unwrap();
    assert_eq!(again.group, fresh.group);
    assert_ne!(stale.group, fresh.group, "the delta must change the answer");
}

/// The memo keeps at most 1024 results: the 1025th distinct spec evicts
/// the first.
#[test]
fn the_memo_evicts_its_oldest_entry_past_capacity() {
    let session = WasoSession::new(two_cliques()).k(3);
    let spec = |i: u64| SolverSpec::cbas_nd().budget(20 + i).stages(1);
    for i in 0..1025 {
        session.solve(&spec(i)).unwrap();
    }
    assert_eq!(session.memo_stats().evicted, 1);

    session.solve(&spec(1024)).unwrap();
    let stats = session.memo_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1025));
    session.solve(&spec(0)).unwrap();
    let stats = session.memo_stats();
    assert_eq!((stats.hits, stats.misses, stats.evicted), (1, 1026, 2));
}
