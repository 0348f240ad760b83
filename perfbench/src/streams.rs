//! The seeded inputs of every workload: solver specs and graph deltas.
//!
//! Each stream is a pure function of the workload seed (and, for specs,
//! of the operation index), so the inputs do not depend on how client
//! threads interleave. The program under test only ever sees the
//! generated specs and deltas, never the seed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use waso::SolverSpec;
use waso_graph::{GraphDelta, NodeId, SocialGraph};

/// Group size of every workload.
pub const K: usize = 30;
/// Node count of the facebook-like graph every workload runs on.
pub const NODES: usize = 20_000;
/// Seed of that graph. The graph, the sessions' seed and the spec sets
/// are the benchmark's fixed dataset; the workload seed drives the
/// per-operation streams (which spec, which budget, which delta). Across
/// graph or session seeds the best groups' willingness moves by ±20%
/// (power-law interests, a sampler far from convergence at these
/// budgets), which would swamp the run-to-run spread the bounds are
/// meant to catch.
pub const GRAPH_SEED: u64 = 1;
/// The seed every session of the benchmark solves under.
pub const SESSION_SEED: u64 = 7;
/// A `deadline_ms=` that never trips: it makes the session bypass the
/// memo, and since it never fires the result stays bit-identical.
pub const NEVER_MS: u64 = 3_600_000;
/// Number of hot specs `serve-hot` cycles through.
pub const HOT_SPECS: usize = 8;
/// Number of cached specs `replan-delta` re-solves after every delta.
pub const REPLAN_SPECS: usize = 4;
/// Share of deltas whose first endpoint is a member of a cached group
/// (the §4.4.1 decline/confirm case); the rest hit a uniform node.
pub const TARGETED_SHARE: f64 = 0.1;

/// A generator for stream `stream`, operation `op` of workload `seed`.
fn rng_for(seed: u64, stream: u64, op: u64) -> StdRng {
    let mix = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(op.wrapping_mul(0x1656_67B1_9E37_79F9));
    StdRng::seed_from_u64(mix)
}

/// `solve-cold`'s spec for operation `op`: CBAS-ND on the shared pool
/// with a budget near 250, memo bypassed by a deadline that never trips.
pub fn solve_cold_spec(seed: u64, op: u64) -> SolverSpec {
    let budget = 230 + rng_for(seed, 1, op).random_range(0..=40u64);
    SolverSpec::cbas_nd()
        .budget(budget)
        .stages(10)
        .start_nodes(32)
        .threads(2)
        .deadline_ms(NEVER_MS)
}

/// Whether `solve-cold`'s operation `op` belongs to the seeded sample
/// the oracle re-solves (one operation in eight).
pub fn oracle_sample(seed: u64, op: u64) -> bool {
    rng_for(seed, 7, op).random_range(0..8u32) == 0
}

/// The serial twin of a spec: identical except that it runs on the
/// caller's thread. Bit-identical results are the determinism contract.
pub fn serial_twin(spec: &SolverSpec) -> SolverSpec {
    let mut serial = spec.clone();
    serial.threads = None;
    serial
}

/// `serve-hot`'s fixed spec set, in canonical text form. Budgets are
/// distinct, so every spec is its own memo entry.
pub fn serve_hot_specs() -> Vec<String> {
    (0..HOT_SPECS as u64)
        .map(|i| {
            SolverSpec::cbas_nd()
                .budget(150 + 40 * i)
                .stages(if i % 2 == 0 { 5 } else { 10 })
                .start_nodes(if i % 4 < 2 { 16 } else { 32 })
                .to_string()
        })
        .collect()
}

/// Which hot spec `serve-hot`'s operation `op` sends.
pub fn serve_hot_pick(seed: u64, op: u64) -> usize {
    rng_for(seed, 3, op).random_range(0..HOT_SPECS)
}

/// `replan-delta`'s cached specs: serial CBAS-ND at four budgets, so the
/// re-solves of one operation run side by side on two cores.
pub fn replan_specs() -> Vec<SolverSpec> {
    (0..REPLAN_SPECS as u64)
        .map(|i| {
            SolverSpec::cbas_nd()
                .budget(100 + 50 * i)
                .stages(5)
                .start_nodes(16)
        })
        .collect()
}

/// The seeded stream of graph deltas `replan-delta` applies. Deltas come
/// in do/undo pairs: a random delta, then the delta that restores what
/// it changed (a member declines, then confirms again; an edge appears,
/// then lapses). The graph thus oscillates around the dataset instead of
/// drifting, so runs on different seeds see the same kind of graph. Each
/// delta is valid for the graph it is drawn against, so applying the
/// stream in order never fails.
#[derive(Debug, Clone)]
pub struct DeltaStream {
    rng: StdRng,
    undo: Option<GraphDelta>,
}

impl DeltaStream {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: rng_for(seed, 6, 0),
            undo: None,
        }
    }

    /// The next delta against `g`: the undo of the previous delta, or a
    /// fresh one. With probability [`TARGETED_SHARE`] a fresh delta's
    /// first endpoint is a member of one of the `cached` groups. The four
    /// kinds are drawn with equal probability.
    pub fn next_delta(&mut self, g: &SocialGraph, cached: &[Vec<NodeId>]) -> GraphDelta {
        if let Some(undo) = self.undo.take() {
            return undo;
        }
        let delta = self.fresh_delta(g, cached);
        self.undo = Some(inverse(g, &delta));
        delta
    }

    fn fresh_delta(&mut self, g: &SocialGraph, cached: &[Vec<NodeId>]) -> GraphDelta {
        let n = g.num_nodes() as u32;
        let targeted = self.rng.random_bool(TARGETED_SHARE);
        let kind = self.rng.random_range(0..4u32);
        // Edge kinds need an endpoint with a neighbour; a few redraws find
        // one in any graph that has edges at all.
        let mut u = self.pick(n, targeted, cached);
        for _ in 0..64 {
            if kind == 0 || g.degree(u) > 0 {
                break;
            }
            u = self.pick(n, targeted, cached);
        }
        if kind != 0 && g.degree(u) == 0 {
            return self.set_interest(g, u);
        }
        match kind {
            0 => self.set_interest(g, u),
            1 => {
                let v = self.neighbor(g, u);
                let tau = g.tightness(u, v).unwrap_or(0.1);
                GraphDelta::SetTightness {
                    u,
                    v,
                    tau_uv: tau * self.rng.random_range(0.5..1.5),
                    tau_vu: tau * self.rng.random_range(0.5..1.5),
                }
            }
            2 => {
                let tau = g.tightness(u, self.neighbor(g, u)).unwrap_or(0.1);
                for _ in 0..64 {
                    let v = NodeId(self.rng.random_range(0..n));
                    if v != u && !g.has_edge(u, v) {
                        return GraphDelta::AddEdge {
                            u,
                            v,
                            tau_uv: tau * self.rng.random_range(0.5..1.5),
                            tau_vu: tau * self.rng.random_range(0.5..1.5),
                        };
                    }
                }
                self.set_interest(g, u)
            }
            _ => GraphDelta::RemoveEdge {
                u,
                v: self.neighbor(g, u),
            },
        }
    }

    fn pick(&mut self, n: u32, targeted: bool, cached: &[Vec<NodeId>]) -> NodeId {
        if targeted && !cached.is_empty() {
            let group = &cached[self.rng.random_range(0..cached.len())];
            if !group.is_empty() {
                return group[self.rng.random_range(0..group.len())];
            }
        }
        NodeId(self.rng.random_range(0..n))
    }

    fn neighbor(&mut self, g: &SocialGraph, u: NodeId) -> NodeId {
        let nbrs = g.neighbors(u);
        NodeId(nbrs[self.rng.random_range(0..nbrs.len())])
    }

    fn set_interest(&mut self, g: &SocialGraph, v: NodeId) -> GraphDelta {
        GraphDelta::SetInterest {
            v,
            interest: g.interest(v) * self.rng.random_range(0.5..1.5),
        }
    }
}

/// The delta that undoes `delta` on `g` (the graph before it).
fn inverse(g: &SocialGraph, delta: &GraphDelta) -> GraphDelta {
    let tau = |u: NodeId, v: NodeId| g.tightness(u, v).unwrap_or(0.0);
    match *delta {
        GraphDelta::AddEdge { u, v, .. } => GraphDelta::RemoveEdge { u, v },
        GraphDelta::RemoveEdge { u, v } => GraphDelta::AddEdge {
            u,
            v,
            tau_uv: tau(u, v),
            tau_vu: tau(v, u),
        },
        GraphDelta::SetInterest { v, .. } => GraphDelta::SetInterest {
            v,
            interest: g.interest(v),
        },
        GraphDelta::SetTightness { u, v, .. } => GraphDelta::SetTightness {
            u,
            v,
            tau_uv: tau(u, v),
            tau_vu: tau(v, u),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_streams_are_pure_functions_of_the_seed() {
        for op in 0..50 {
            assert_eq!(solve_cold_spec(7, op), solve_cold_spec(7, op));
            assert_eq!(serve_hot_pick(7, op), serve_hot_pick(7, op));
        }
        assert_ne!(
            (0..50).map(|op| serve_hot_pick(7, op)).collect::<Vec<_>>(),
            (0..50).map(|op| serve_hot_pick(8, op)).collect::<Vec<_>>()
        );
        let budgets: Vec<u64> = (0..50)
            .map(|op| solve_cold_spec(7, op).budget_or_default())
            .collect();
        assert!(budgets.iter().all(|b| (230..=270).contains(b)));
        assert!(budgets.windows(2).any(|w| w[0] != w[1]), "budgets vary");
    }

    /// Applies `count` deltas of seed `seed`'s stream, returning them.
    fn drive(seed: u64, g: &SocialGraph, count: usize) -> Vec<GraphDelta> {
        let mut stream = DeltaStream::new(seed);
        let mut graph = g.clone();
        let cached = vec![vec![NodeId(1), NodeId(2), NodeId(3)]];
        (0..count)
            .map(|i| {
                let delta = stream.next_delta(&graph, &cached);
                graph = delta.apply(&graph).expect("stream deltas are valid");
                if i % 2 == 1 {
                    assert_eq!(graph, *g, "an undo restores the graph");
                }
                delta
            })
            .collect()
    }

    #[test]
    fn delta_streams_are_pure_functions_of_the_seed() {
        let g = waso_datasets::synthetic::facebook_like_n(400, 1);
        let a = drive(5, &g, 60);
        assert_eq!(a, drive(5, &g, 60));
        assert_ne!(a, drive(6, &g, 60));
        let kinds: std::collections::BTreeSet<u8> = a
            .iter()
            .map(|d| match d {
                GraphDelta::AddEdge { .. } => 0,
                GraphDelta::RemoveEdge { .. } => 1,
                GraphDelta::SetInterest { .. } => 2,
                GraphDelta::SetTightness { .. } => 3,
            })
            .collect();
        assert_eq!(kinds.len(), 4, "the stream mixes all four kinds");
    }

    #[test]
    fn hot_specs_are_distinct_canonical_specs() {
        let specs = serve_hot_specs();
        assert_eq!(specs.len(), HOT_SPECS);
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(SolverSpec::parse(s).unwrap().to_string(), *s);
            assert!(!specs[..i].contains(s));
        }
    }

    #[test]
    fn serial_twin_only_drops_threads() {
        let spec = solve_cold_spec(1, 0);
        let serial = serial_twin(&spec);
        assert_eq!(serial.threads, None);
        assert_eq!(serial.clone().threads(2), spec);
    }
}
