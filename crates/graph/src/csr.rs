//! Compressed-sparse-row storage of a scored social network.
//!
//! [`SocialGraph`] is the immutable product of [`crate::GraphBuilder`].
//! Each undirected friendship `(u, v)` is stored as two directed *slots*
//! (`u → v` carrying `τ_{u,v}` and `v → u` carrying `τ_{v,u}`), exactly
//! matching Eq. (1) of the paper where both directions contribute to the
//! willingness. Each slot additionally caches the *pair weight*
//! `τ_{u,v} + τ_{v,u}`: adding node `u` to a partial solution `S` changes
//! the willingness by `η_u + Σ_{v ∈ N(u) ∩ S} pw(u,v)`, so solvers never
//! need a reverse-edge lookup.

use std::fmt;
use std::sync::OnceLock;

/// Identifier of a node (person) in a [`SocialGraph`]; a dense index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's dense index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

/// An immutable scored social network in CSR form.
///
/// Node `i` carries interest score `η_i`; the directed slot `i → j` carries
/// tightness `τ_{i,j}`. Adjacency lists are sorted by neighbour id.
///
/// Equality and `Debug` cover the CSR arrays only: the lazily built
/// [`SocialGraph::start_order`] is derived data and never tells two
/// graphs apart.
#[derive(Clone)]
pub struct SocialGraph {
    /// CSR row offsets, length `n + 1`.
    offsets: Vec<u32>,
    /// Neighbour ids, one entry per directed slot, rows sorted ascending.
    neighbors: Vec<u32>,
    /// Directed tightness `τ_{i,j}` per slot.
    tightness: Vec<f64>,
    /// `τ_{i,j} + τ_{j,i}` per slot.
    pair_weight: Vec<f64>,
    /// Interest score `η_i` per node.
    interest: Vec<f64>,
    /// Largest degree, computed once at build time.
    max_degree: u32,
    /// Every node ranked by [`SocialGraph::start_node_score`], built on
    /// first use and kept for the graph's lifetime. Sound only because
    /// the graph is immutable: a delta returns a new graph with an empty
    /// cell. An in-place mutator (an O(delta) write path) must reset it.
    start_order: OnceLock<Box<[u32]>>,
}

impl PartialEq for SocialGraph {
    fn eq(&self, other: &Self) -> bool {
        // Destructured so a new field cannot be forgotten here.
        let Self {
            offsets,
            neighbors,
            tightness,
            pair_weight,
            interest,
            max_degree,
            start_order: _,
        } = self;
        *offsets == other.offsets
            && *neighbors == other.neighbors
            && *tightness == other.tightness
            && *pair_weight == other.pair_weight
            && *interest == other.interest
            && *max_degree == other.max_degree
    }
}

impl fmt::Debug for SocialGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Self {
            offsets,
            neighbors,
            tightness,
            pair_weight,
            interest,
            max_degree,
            start_order: _,
        } = self;
        f.debug_struct("SocialGraph")
            .field("offsets", offsets)
            .field("neighbors", neighbors)
            .field("tightness", tightness)
            .field("pair_weight", pair_weight)
            .field("interest", interest)
            .field("max_degree", max_degree)
            .finish()
    }
}

impl SocialGraph {
    /// Assembles a graph from raw CSR parts. Used by the builder; see
    /// [`crate::GraphBuilder`] for the validated public path.
    pub(crate) fn from_parts(
        offsets: Vec<u32>,
        neighbors: Vec<u32>,
        tightness: Vec<f64>,
        pair_weight: Vec<f64>,
        interest: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(offsets.len(), interest.len() + 1);
        debug_assert_eq!(neighbors.len(), tightness.len());
        debug_assert_eq!(neighbors.len(), pair_weight.len());
        let max_degree = offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        Self {
            offsets,
            neighbors,
            tightness,
            pair_weight,
            interest,
            max_degree,
            start_order: OnceLock::new(),
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.interest.len()
    }

    /// Number of undirected edges `|E|` (half the number of directed slots).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of node `v` (number of neighbours).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Largest degree in the graph (0 for an empty graph). Cached at build
    /// time, so per-sampler growth-buffer sizing is O(1).
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree as usize
    }

    /// Interest score `η_v`.
    #[inline]
    pub fn interest(&self, v: NodeId) -> f64 {
        self.interest[v.index()]
    }

    /// All interest scores, indexed by node.
    #[inline]
    pub fn interests(&self) -> &[f64] {
        &self.interest
    }

    /// Neighbour ids of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[u32] {
        let i = v.index();
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates `(neighbour, τ_{v,j}, pair_weight)` triples for `v`.
    #[inline]
    pub fn neighbor_entries(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64, f64)> + '_ {
        let i = v.index();
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        (lo..hi).map(move |s| {
            (
                NodeId(self.neighbors[s]),
                self.tightness[s],
                self.pair_weight[s],
            )
        })
    }

    /// Directed tightness `τ_{u,v}`, or `None` if the edge does not exist.
    pub fn tightness(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.slot(u, v).map(|s| self.tightness[s])
    }

    /// Pair weight `τ_{u,v} + τ_{v,u}`, or `None` if the edge does not exist.
    pub fn pair_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.slot(u, v).map(|s| self.pair_weight[s])
    }

    /// `true` when `u` and `v` are adjacent.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.slot(u, v).is_some()
    }

    /// Binary-searches the slot index of `u → v`.
    #[inline]
    fn slot(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let i = u.index();
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        self.neighbors[lo..hi]
            .binary_search(&v.0)
            .ok()
            .map(|off| lo + off)
    }

    /// Iterates all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterates every undirected edge once as `(u, v, τ_{u,v}, τ_{v,u})`
    /// with `u < v`. Both directions are read from storage (not derived from
    /// the pair weight), so the values are bit-exact for I/O round-trips.
    pub fn undirected_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64, f64)> + '_ {
        self.node_ids().flat_map(move |u| {
            self.neighbor_entries(u)
                .filter(move |&(v, _, _)| u.0 < v.0)
                .filter_map(move |(v, tau_uv, _)| {
                    // The builder inserts both directions, so the reverse
                    // slot exists for any well-formed graph; a missing slot
                    // drops the edge rather than aborting the iteration.
                    let tau_vu = self.tightness(v, u)?;
                    Some((u, v, tau_uv, tau_vu))
                })
        })
    }

    /// The paper's start-node score (CBAS phase 1): interest plus the
    /// tightness of incident edges. Counts each incident edge once, using
    /// the average of the two directions (for symmetric graphs this is the
    /// paper's "adds the interest score and the social tightness scores of
    /// incident edges": Example 1 scores v3 as 0.8+0.6+0.5+0.9+1+0.4 = 4.2).
    pub fn start_node_score(&self, v: NodeId) -> f64 {
        let i = v.index();
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        let incident: f64 = self.pair_weight[lo..hi].iter().sum();
        self.interest[i] + 0.5 * incident
    }

    /// Every node ranked for CBAS phase 1: highest
    /// [`SocialGraph::start_node_score`] first, ties to the smaller id.
    /// Scores compare numerically (`-0.0 == 0.0`) and NaN ranks after
    /// every number, so the order is total and deterministic.
    ///
    /// Built on the first call — one O(|E|) scoring pass and one
    /// O(n log n) sort — and kept for the graph's lifetime; later calls
    /// are O(1). Clones carry a built order with them.
    pub fn start_order(&self) -> &[u32] {
        self.start_order.get_or_init(|| {
            let mut keys: Vec<u128> = self
                .node_ids()
                .map(|v| start_rank_key(self.start_node_score(v), v.0))
                .collect();
            keys.sort_unstable();
            keys.into_iter().map(|key| key as u32).collect()
        })
    }

    /// Sum of all interests plus all directed tightness scores — the
    /// willingness of selecting *everyone*, used by the Theorem-2
    /// virtual-node construction (`η_v = ε + Σ_i (η_i + Σ_j τ_{i,j})`).
    pub fn total_willingness_upper(&self) -> f64 {
        self.interest.iter().sum::<f64>() + self.tightness.iter().sum::<f64>()
    }

    /// Memory footprint of the CSR arrays, plus the start order once
    /// built, in bytes (diagnostics).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * 4
            + self.neighbors.len() * 4
            + self.tightness.len() * 8
            + self.pair_weight.len() * 8
            + self.interest.len() * 8
            + self.start_order.get().map_or(0, |order| order.len() * 4)
    }
}

/// Sort key of the start order, smallest first: the score's rank in the
/// high 64 bits and the node id in the low 32, so equal scores go to the
/// smaller id. Higher scores rank first, `-0.0` ranks with `0.0`, and NaN
/// ranks after every number. At n = 20 000 (2-core VM) one sort of these
/// integer keys took ~1.0 ms, against ~2.6 ms for `(score, id)` pairs
/// under a float comparator.
fn start_rank_key(score: f64, id: u32) -> u128 {
    let rank = if score.is_nan() {
        u64::MAX
    } else {
        // `+ 0.0` maps -0.0 to 0.0. Setting the sign bit of a non-negative
        // float and inverting a negative one orders the bits as the
        // numbers ascend; the final `!` makes higher scores rank first.
        let bits = (score + 0.0).to_bits();
        let ascending = if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        };
        !ascending
    };
    (u128::from(rank) << 32) | u128::from(id)
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::csr::NodeId;

    fn triangle() -> crate::SocialGraph {
        // v0 -1.0- v1, v1 -2.0- v2, v0 -0.5- v2 (asymmetric on the last).
        let mut b = GraphBuilder::new();
        let v0 = b.add_node(10.0);
        let v1 = b.add_node(20.0);
        let v2 = b.add_node(30.0);
        b.add_edge_symmetric(v0, v1, 1.0).unwrap();
        b.add_edge_symmetric(v1, v2, 2.0).unwrap();
        b.add_edge(v0, v2, 0.5, 1.5).unwrap();
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.interest(NodeId(2)), 30.0);
        assert_eq!(g.neighbors(NodeId(0)), &[1, 2]);
    }

    #[test]
    fn directed_tightness_is_per_direction() {
        let g = triangle();
        assert_eq!(g.tightness(NodeId(0), NodeId(2)), Some(0.5));
        assert_eq!(g.tightness(NodeId(2), NodeId(0)), Some(1.5));
        assert_eq!(g.pair_weight(NodeId(0), NodeId(2)), Some(2.0));
        assert_eq!(g.pair_weight(NodeId(2), NodeId(0)), Some(2.0));
    }

    #[test]
    fn missing_edges_are_none() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node(0.0);
        let v1 = b.add_node(0.0);
        let _v2 = b.add_node(0.0);
        b.add_edge_symmetric(v0, v1, 1.0).unwrap();
        let g = b.build();
        assert_eq!(g.tightness(NodeId(0), NodeId(2)), None);
        assert!(!g.has_edge(NodeId(1), NodeId(2)));
        assert!(g.has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn undirected_edges_enumerates_each_once() {
        let g = triangle();
        let edges: Vec<_> = g.undirected_edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, v, _, _) in &edges {
            assert!(u.0 < v.0);
        }
        // Find the asymmetric edge and check both directions.
        let e = edges
            .iter()
            .find(|(u, v, _, _)| u.0 == 0 && v.0 == 2)
            .unwrap();
        assert_eq!(e.2, 0.5);
        assert!((e.3 - 1.5).abs() < 1e-12);
    }

    #[test]
    fn start_node_score_counts_each_edge_once() {
        let g = triangle();
        // v1: η=20, incident symmetric edges 1.0 and 2.0 → 23.
        assert!((g.start_node_score(NodeId(1)) - 23.0).abs() < 1e-12);
        // v0: η=10, incident edges 1.0 and avg(0.5,1.5)=1.0 → 12.
        assert!((g.start_node_score(NodeId(0)) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn total_willingness_upper_sums_everything() {
        let g = triangle();
        // Interests 60 + directed taus (1+1) + (2+2) + (0.5+1.5) = 68.
        assert!((g.total_willingness_upper() - 68.0).abs() < 1e-12);
    }

    #[test]
    fn neighbor_entries_match_scalar_lookups() {
        let g = triangle();
        for u in g.node_ids() {
            for (v, tau, pw) in g.neighbor_entries(u) {
                assert_eq!(g.tightness(u, v), Some(tau));
                assert_eq!(g.pair_weight(u, v), Some(pw));
            }
        }
    }

    #[test]
    fn max_degree_is_cached_correctly() {
        let g = triangle();
        assert_eq!(g.max_degree(), 2);
        let empty = GraphBuilder::new().build();
        assert_eq!(empty.max_degree(), 0);
        let mut b = GraphBuilder::new();
        let hub = b.add_node(0.0);
        let leaves: Vec<_> = (0..5).map(|_| b.add_node(0.0)).collect();
        for &l in &leaves {
            b.add_edge_symmetric(hub, l, 1.0).unwrap();
        }
        assert_eq!(b.build().max_degree(), 5);
    }

    #[test]
    fn start_order_ranks_by_score_then_id() {
        let g = triangle();
        // Scores: v0 = 12, v1 = 23, v2 = 30 + 2 + 1 = 33.
        assert_eq!(g.start_order(), &[2, 1, 0]);
        let mut b = GraphBuilder::new();
        let etas = [
            1.0,
            f64::NAN,
            2.0,
            -0.0,
            0.0,
            1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -f64::NAN,
            -1e-310,
            5e-324,
        ];
        for eta in etas {
            b.add_node(eta);
        }
        // -0.0 ties 0.0 and both NaNs rank last, so ids decide.
        assert_eq!(b.build().start_order(), &[6, 2, 0, 5, 10, 3, 4, 9, 7, 1, 8]);
    }

    #[test]
    fn a_built_start_order_is_invisible_to_eq_and_debug() {
        let g = triangle();
        let unbuilt = g.clone();
        let before = g.memory_bytes();
        g.start_order();
        assert_eq!(g, unbuilt);
        assert_eq!(format!("{g:?}"), format!("{unbuilt:?}"));
        assert_eq!(g.memory_bytes(), before + 3 * 4);
        // A clone of a built graph carries the order.
        assert_eq!(g.clone().memory_bytes(), g.memory_bytes());
    }

    #[test]
    fn isolated_graph_works() {
        let mut b = GraphBuilder::new();
        b.add_node(1.0);
        b.add_node(2.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(NodeId(0)), 0);
        assert_eq!(g.start_node_score(NodeId(1)), 2.0);
    }

    #[test]
    fn node_id_display_and_conversions() {
        let v = NodeId(7);
        assert_eq!(v.to_string(), "v7");
        assert_eq!(v.index(), 7);
        assert_eq!(NodeId::from(7u32), v);
        assert_eq!(u32::from(v), 7);
    }
}
