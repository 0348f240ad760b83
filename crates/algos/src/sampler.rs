//! Random growth of partial solutions — the inner loop of CBAS and CBAS-ND.
//!
//! A *sample* is one final solution grown from a start node: `VS = {start}`,
//! then `k-1` rounds of drawing a node from the candidate set `VA`
//! (Algorithm 1 lines 17–28, Algorithm 2 lines 17–31). CBAS draws uniformly;
//! CBAS-ND draws with probability proportional to the node-selection vector
//! `p_{i,t}` (restricted and renormalized over `VA`).
//!
//! The sampler owns a reusable [`GrowthWorkspace`] and a weight buffer, so
//! drawing thousands of samples costs no allocation beyond the returned node
//! lists.
//!
//! A weighted draw costs about as much as a uniform one. Two things keep it
//! cheap without changing a drawn bit:
//!
//! - **Dense weight scratch.** Before a weighted draw the vector's explicit
//!   entries are scattered, floored at [`ProbabilityVector::MIN_PROB`], into
//!   an n-slot array allocated on the first weighted draw; every other slot
//!   holds a negative sentinel meaning "the floored default". A frontier
//!   weight is then one array read instead of a map lookup. The written
//!   slots go back to the sentinel when the draw ends, stalled or not.
//! - **Prefix sums kept across steps.** [`Frontier::remove`] is a
//!   swap-remove and [`Frontier::insert`] appends, so when the pick at slot
//!   `s` leaves, `items[..s]` and their cumulative weights are unchanged.
//!   The cumulative array is cut to `s` and extended from there at the next
//!   step: the same additions in the same order, so every cumulative value,
//!   threshold and pick equals a full rebuild's.
//!
//! [`Frontier::remove`]: waso_core::Frontier::remove
//! [`Frontier::insert`]: waso_core::Frontier::insert

use rand::{Rng, RngExt};
use waso_core::{GrowthWorkspace, WasoInstance};
use waso_graph::{BitSet, NodeId, SocialGraph};

use crate::cross_entropy::ProbabilityVector;

/// Dense-scratch sentinel: the node has no explicit entry, so it weighs the
/// vector's floored default. Negative, so no floored probability equals it.
const UNSET: f64 = -1.0;

/// One sampled final solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The selected nodes, in growth order (index 0 is the start node).
    pub nodes: Vec<NodeId>,
    /// `W(nodes)`.
    pub willingness: f64,
}

/// Reusable sample generator.
#[derive(Debug)]
pub struct Sampler {
    ws: GrowthWorkspace,
    /// Cumulative frontier weights of the current weighted draw.
    weights: Vec<f64>,
    /// `dense[v]` = floored explicit probability of `v` during a weighted
    /// draw, [`UNSET`] otherwise. Empty until the first weighted draw.
    dense: Vec<f64>,
    /// Recycled node buffers: successful draws pop one instead of
    /// allocating, so a steady-state stage whose consumed samples are fed
    /// back via [`Sampler::recycle`] allocates nothing at all.
    spare: Vec<Vec<NodeId>>,
}

impl Sampler {
    /// Creates a sampler for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            ws: GrowthWorkspace::new(n),
            weights: Vec::new(),
            dense: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Creates a sampler sized for `instance`, pre-reserving the growth
    /// buffers for groups of `k` so the first samples of a pooled worker
    /// do not pay reallocation either ([`GrowthWorkspace::reserve`]).
    pub fn for_instance(instance: &WasoInstance) -> Self {
        let g = instance.graph();
        let mut s = Self::new(g.num_nodes());
        s.ws.reserve(instance.k(), g.max_degree());
        // The cumulative-weight buffer grows to the frontier size, which is
        // bounded by both k·max_degree (every member contributes at most its
        // neighbourhood) and n. Reserving it here keeps the first weighted
        // draws of a fresh pooled worker reallocation-free too.
        let max_frontier = instance
            .k()
            .saturating_mul(g.max_degree())
            .min(g.num_nodes());
        s.weights.reserve(max_frontier);
        s
    }

    /// Sets the blocked node set (declined invitees, §4.4.1).
    pub fn set_blocked(&mut self, blocked: Option<BitSet>) {
        self.ws.set_blocked(blocked);
    }

    /// Returns a spent sample's node buffer for reuse by a future draw.
    /// The staged engine feeds the buffers of merged samples back through
    /// here (via the executors' slab), making its sample hot path
    /// allocation-free after the first stage.
    pub fn recycle(&mut self, buf: Vec<NodeId>) {
        self.spare.push(buf);
    }

    /// Draws one sample by uniform candidate selection (CBAS). Returns
    /// `None` when growth stalls before reaching `k` (start node's component
    /// too small).
    pub fn sample_uniform<R: Rng + ?Sized>(
        &mut self,
        instance: &WasoInstance,
        start: NodeId,
        rng: &mut R,
    ) -> Option<Sample> {
        self.grow(instance, &[start], None, rng)
    }

    /// Draws one sample, uniform when `probs` is `None`, weighted
    /// otherwise — the single entry point the staged engine's executors
    /// dispatch through ([`crate::engine::StagedEngine`]).
    pub fn sample<R: Rng + ?Sized>(
        &mut self,
        instance: &WasoInstance,
        start: NodeId,
        probs: Option<&ProbabilityVector>,
        rng: &mut R,
    ) -> Option<Sample> {
        self.grow(instance, &[start], probs, rng)
    }

    /// Draws one sample with candidate probabilities from `probs` (CBAS-ND).
    pub fn sample_weighted<R: Rng + ?Sized>(
        &mut self,
        instance: &WasoInstance,
        start: NodeId,
        probs: &ProbabilityVector,
        rng: &mut R,
    ) -> Option<Sample> {
        self.grow(instance, &[start], Some(probs), rng)
    }

    /// Draws one sample growing from an existing partial solution (online
    /// replanning seeds with the confirmed attendees).
    pub fn sample_from_partial<R: Rng + ?Sized>(
        &mut self,
        instance: &WasoInstance,
        seeds: &[NodeId],
        probs: Option<&ProbabilityVector>,
        rng: &mut R,
    ) -> Option<Sample> {
        self.grow(instance, seeds, probs, rng)
    }

    fn grow<R: Rng + ?Sized>(
        &mut self,
        instance: &WasoInstance,
        seeds: &[NodeId],
        probs: Option<&ProbabilityVector>,
        rng: &mut R,
    ) -> Option<Sample> {
        let g = instance.graph();
        let k = instance.k();
        debug_assert!(seeds.len() <= k, "more seeds than the group size");

        self.ws.reset();
        if instance.requires_connectivity() {
            if seeds.len() == 1 {
                self.ws.seed(g, seeds[0]);
            } else {
                self.ws.seed_set(g, seeds);
            }
        } else {
            // Unconstrained growth: candidate set is every node. Multi-seed
            // free growth seeds the first and adds the rest as candidates.
            self.ws.seed_free(g, seeds[0]);
            for &s in &seeds[1..] {
                self.ws.add(g, s);
            }
        }

        let complete = match probs {
            None => self.grow_uniform(g, k, rng),
            Some(p) => self.grow_weighted(g, k, p, rng),
        };
        if !complete {
            return None; // stalled: component exhausted
        }

        let mut nodes = self.spare.pop().unwrap_or_default();
        nodes.clear();
        nodes.extend_from_slice(self.ws.selected());
        Some(Sample {
            nodes,
            willingness: self.ws.willingness(),
        })
    }

    /// Uniform selection over VA (CBAS, Algorithm 1 line 22) until `VS`
    /// holds `k` nodes; `false` when the frontier runs dry first.
    fn grow_uniform<R: Rng + ?Sized>(&mut self, g: &SocialGraph, k: usize, rng: &mut R) -> bool {
        while self.ws.len() < k {
            let frontier_len = self.ws.frontier().len();
            if frontier_len == 0 {
                return false;
            }
            let pick = self.ws.frontier().item(rng.random_range(0..frontier_len));
            self.ws.add(g, pick);
        }
        true
    }

    /// Weighted selection over VA (CBAS-ND, Algorithm 2 line 24):
    /// cumulative inverse-transform over the frontier's probabilities,
    /// floored at [`ProbabilityVector::MIN_PROB`]. Weights come from the
    /// dense scratch, and the cumulative array keeps the prefix the
    /// swap-remove of the pick leaves in place (see the module docs).
    fn grow_weighted<R: Rng + ?Sized>(
        &mut self,
        g: &SocialGraph,
        k: usize,
        p: &ProbabilityVector,
        rng: &mut R,
    ) -> bool {
        let slots = g.num_nodes().max(p.len());
        if self.dense.len() < slots {
            self.dense.resize(slots, UNSET);
        }
        for (v, w) in p.explicit_entries() {
            self.dense[v.index()] = w.max(ProbabilityVector::MIN_PROB);
        }
        let fallback = p.default_prob().max(ProbabilityVector::MIN_PROB);

        self.weights.clear();
        let mut complete = true;
        while self.ws.len() < k {
            let frontier = self.ws.frontier();
            let frontier_len = frontier.len();
            if frontier_len == 0 {
                complete = false;
                break;
            }
            // `weights[i]` is the sum of the weights of `items[..=i]`;
            // extend it over the candidates appended since the last pick.
            let mut total = self.weights.last().copied().unwrap_or(0.0);
            for &v in &frontier.items()[self.weights.len()..] {
                let w = self.dense[v as usize];
                total += if w < 0.0 { fallback } else { w };
                self.weights.push(total);
            }
            let t = rng.random::<f64>() * total;
            let slot = self
                .weights
                .partition_point(|&cum| cum <= t)
                .min(frontier_len - 1);
            let pick = frontier.item(slot);
            self.ws.add(g, pick);
            // The pick's swap-remove leaves `items[..slot]` in place.
            self.weights.truncate(slot);
        }

        for (v, _) in p.explicit_entries() {
            self.dense[v.index()] = UNSET;
        }
        complete
    }

    /// The underlying workspace (for gain previews by greedy-style callers).
    pub fn workspace(&mut self) -> &mut GrowthWorkspace {
        &mut self.ws
    }
}

/// Selects the `m` start nodes of CBAS phase 1: the nodes with the largest
/// `η + Σ incident τ` ([`SocialGraph::start_node_score`]), skipping blocked
/// nodes. Ties break toward smaller ids (determinism).
///
/// A walk of the graph's cached [`SocialGraph::start_order`]: O(m + the
/// blocked nodes skipped), after one O(|E| + n log n) build per graph.
pub fn select_start_nodes(g: &SocialGraph, m: usize, blocked: Option<&BitSet>) -> Vec<NodeId> {
    g.start_order()
        .iter()
        .filter(|&&v| !blocked.is_some_and(|b| b.contains(v as usize)))
        .take(m)
        .map(|&v| NodeId(v))
        .collect()
}

/// The paper's default number of start nodes, `m = ⌈n/k⌉` (§5.1: "The
/// default m is set to be n/k since n/k different k-person groups can be
/// partitioned from a network with n").
pub fn default_num_start_nodes(n: usize, k: usize) -> usize {
    n.div_ceil(k).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waso_core::{willingness, Group, GrowthWorkspace, WasoInstance};
    use waso_graph::{generate, GraphBuilder};

    fn line_instance(k: usize) -> WasoInstance {
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..6).map(|i| b.add_node(i as f64)).collect();
        for w in ids.windows(2) {
            b.add_edge_symmetric(w[0], w[1], 0.5).unwrap();
        }
        WasoInstance::new(b.build(), k).unwrap()
    }

    #[test]
    fn uniform_samples_are_feasible() {
        let inst = line_instance(3);
        let mut s = Sampler::new(6);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let sample = s.sample_uniform(&inst, NodeId(2), &mut rng).unwrap();
            assert_eq!(sample.nodes.len(), 3);
            assert_eq!(sample.nodes[0], NodeId(2));
            // Validates connectivity + willingness.
            let group = Group::new(&inst, sample.nodes.clone()).unwrap();
            assert!((group.willingness() - sample.willingness).abs() < 1e-9);
        }
    }

    #[test]
    fn stalled_growth_returns_none() {
        // Two components of size 2; k = 3 unreachable.
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..4).map(|_| b.add_node(1.0)).collect();
        b.add_edge_symmetric(ids[0], ids[1], 1.0).unwrap();
        b.add_edge_symmetric(ids[2], ids[3], 1.0).unwrap();
        let inst = WasoInstance::new(b.build(), 3).unwrap();
        let mut s = Sampler::new(4);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(s.sample_uniform(&inst, NodeId(0), &mut rng).is_none());
    }

    #[test]
    fn unconstrained_growth_reaches_any_node() {
        let mut b = GraphBuilder::new();
        for _ in 0..4 {
            b.add_node(1.0);
        }
        // No edges at all: only WASO-dis instances are solvable.
        let inst = WasoInstance::without_connectivity(b.build(), 3).unwrap();
        let mut s = Sampler::new(4);
        let mut rng = StdRng::seed_from_u64(2);
        let sample = s.sample_uniform(&inst, NodeId(1), &mut rng).unwrap();
        assert_eq!(sample.nodes.len(), 3);
        assert_eq!(sample.willingness, 3.0);
    }

    #[test]
    fn weighted_sampling_respects_zeroed_probabilities() {
        // Star centre 0 with leaves 1..5; k=2. Suppress all leaves except 3.
        let g = generate::star_topology(6).into_unit_graph();
        let inst = WasoInstance::new(g, 2).unwrap();
        let mut probs = ProbabilityVector::uniform(6, 2);
        for leaf in [1u32, 2, 4, 5] {
            probs.set(NodeId(leaf), 0.0);
        }
        probs.set(NodeId(3), 1.0);
        let mut s = Sampler::new(6);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = 0;
        for _ in 0..100 {
            let sample = s
                .sample_weighted(&inst, NodeId(0), &probs, &mut rng)
                .unwrap();
            if sample.nodes.contains(&NodeId(3)) {
                hits += 1;
            }
        }
        // MIN_PROB keeps zeroed nodes possible but vanishingly unlikely.
        assert!(
            hits >= 99,
            "expected nearly all samples to pick v3, got {hits}"
        );
    }

    #[test]
    fn partial_seeding_keeps_confirmed_members() {
        let inst = line_instance(4);
        let mut s = Sampler::new(6);
        let mut rng = StdRng::seed_from_u64(4);
        let seeds = [NodeId(2), NodeId(3)];
        for _ in 0..20 {
            let sample = s
                .sample_from_partial(&inst, &seeds, None, &mut rng)
                .unwrap();
            assert_eq!(sample.nodes.len(), 4);
            assert!(sample.nodes.contains(&NodeId(2)));
            assert!(sample.nodes.contains(&NodeId(3)));
        }
    }

    #[test]
    fn blocked_nodes_are_never_sampled() {
        let inst = line_instance(3);
        let mut s = Sampler::new(6);
        let mut blocked = BitSet::new(6);
        blocked.insert(4);
        s.set_blocked(Some(blocked));
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            if let Some(sample) = s.sample_uniform(&inst, NodeId(3), &mut rng) {
                assert!(!sample.nodes.contains(&NodeId(4)));
            }
        }
    }

    #[test]
    fn sample_willingness_matches_full_evaluation() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generate::barabasi_albert(60, 3, &mut rng).into_unit_graph();
        let inst = WasoInstance::new(g, 8).unwrap();
        let mut s = Sampler::new(60);
        for seed in 0..20u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let sample = s.sample_uniform(&inst, NodeId(0), &mut r).unwrap();
            let full = willingness(inst.graph(), &sample.nodes);
            assert!(
                (full - sample.willingness).abs() < 1e-9,
                "incremental {} vs full {full}",
                sample.willingness
            );
        }
    }

    /// A BA graph with random interests and asymmetric tightness, plus two
    /// isolated nodes `n` and `n + 1` joined to each other (a component
    /// too small for most `k`).
    fn scored_ba(n: usize, attach: usize, rng: &mut StdRng) -> SocialGraph {
        let topo = generate::barabasi_albert(n, attach, rng);
        let mut b = GraphBuilder::new();
        for _ in 0..n + 2 {
            b.add_node(rng.random_range(0.0..10.0));
        }
        for (u, v) in topo.edges {
            let (uv, vu) = (rng.random_range(0.0..5.0), rng.random_range(0.0..5.0));
            b.add_edge(NodeId(u), NodeId(v), uv, vu).unwrap();
        }
        b.add_edge_symmetric(NodeId(n as u32), NodeId(n as u32 + 1), 1.0)
            .unwrap();
        b.build()
    }

    /// A vector for `start` with explicit entries on about a third of the
    /// nodes, drawn from {0, 1, uniform}, and (sometimes) a decayed default.
    fn trained_vector(n: usize, k: usize, start: NodeId, rng: &mut StdRng) -> ProbabilityVector {
        let mut p = ProbabilityVector::uniform_for_start(n, k, start);
        if rng.random::<bool>() {
            let mut freqs: Vec<(NodeId, f64)> = Vec::new();
            for v in 0..n as u32 {
                if rng.random_range(0..4) == 0 {
                    freqs.push((NodeId(v), rng.random()));
                }
            }
            p.update_from_frequencies(&freqs, rng.random::<f64>());
        }
        for v in 0..n as u32 {
            match rng.random_range(0..9) {
                0 => p.set(NodeId(v), 0.0),
                1 => p.set(NodeId(v), 1.0),
                2 => p.set(NodeId(v), rng.random::<f64>()),
                _ => {}
            }
        }
        p
    }

    /// The weighted growth loop as it was before the dense scratch and the
    /// kept prefix sums: every step rebuilds the cumulative weights over
    /// the whole frontier from [`ProbabilityVector::get`].
    fn full_rebuild_draw(
        instance: &WasoInstance,
        seeds: &[NodeId],
        probs: &ProbabilityVector,
        blocked: Option<&BitSet>,
        rng: &mut StdRng,
    ) -> Option<Sample> {
        let g = instance.graph();
        let mut ws = GrowthWorkspace::new(g.num_nodes());
        ws.set_blocked(blocked.cloned());
        if instance.requires_connectivity() {
            if seeds.len() == 1 {
                ws.seed(g, seeds[0]);
            } else {
                ws.seed_set(g, seeds);
            }
        } else {
            ws.seed_free(g, seeds[0]);
            for &s in &seeds[1..] {
                ws.add(g, s);
            }
        }
        let mut weights = Vec::new();
        while ws.len() < instance.k() {
            let frontier_len = ws.frontier().len();
            if frontier_len == 0 {
                return None;
            }
            weights.clear();
            let mut total = 0.0;
            for idx in 0..frontier_len {
                let w = probs
                    .get(ws.frontier().item(idx))
                    .max(ProbabilityVector::MIN_PROB);
                total += w;
                weights.push(total);
            }
            let t = rng.random::<f64>() * total;
            let idx = weights
                .partition_point(|&cum| cum <= t)
                .min(frontier_len - 1);
            let pick = ws.frontier().item(idx);
            ws.add(g, pick);
        }
        Some(Sample {
            nodes: ws.selected().to_vec(),
            willingness: ws.willingness(),
        })
    }

    /// Same nodes, same willingness bits, same randomness consumed.
    fn assert_same_draw(got: Option<Sample>, want: Option<Sample>, a: &mut StdRng, b: &mut StdRng) {
        assert_eq!(
            got.as_ref().map(|s| (&s.nodes, s.willingness.to_bits())),
            want.as_ref().map(|s| (&s.nodes, s.willingness.to_bits())),
        );
        assert_eq!(
            a.next_u64(),
            b.next_u64(),
            "draws consumed different randomness"
        );
    }

    mod oracle {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The sampler's weighted draws equal the full-rebuild loop's
            /// bit for bit, over connected, free (WASO-dis), multi-seed and
            /// blocked growth, with one sampler reused across every draw.
            #[test]
            fn weighted_draws_match_the_full_rebuild_loop(
                seed in any::<u64>(),
                n in 6usize..60,
                attach in 1usize..4,
                k in 2usize..14,
                growth in 0u8..4,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let g = scored_ba(n, attach.min(n - 1), &mut rng);
                let total = g.num_nodes();
                let k = k.min(total);
                let inst = if growth == 1 {
                    WasoInstance::without_connectivity(g, k).unwrap()
                } else {
                    WasoInstance::new(g, k).unwrap()
                };
                let blocked = (growth == 3).then(|| {
                    let mut b = BitSet::new(total);
                    for v in 1..total {
                        if rng.random_range(0..5) == 0 {
                            b.insert(v);
                        }
                    }
                    b
                });
                let mut sampler = Sampler::new(total);
                sampler.set_blocked(blocked.clone());
                for _ in 0..6 {
                    // Node 0 is never blocked; multi-seed growth adds up to
                    // two more distinct seeds anywhere in the graph.
                    let mut seeds = vec![NodeId(0)];
                    if growth == 2 {
                        for _ in 0..rng.random_range(1..3usize) {
                            let v = NodeId(rng.random_range(1..total as u32));
                            if seeds.len() < k && !seeds.contains(&v) {
                                seeds.push(v);
                            }
                        }
                    } else if growth != 3 {
                        seeds[0] = NodeId(rng.random_range(0..total as u32));
                    }
                    let probs = trained_vector(total, k, seeds[0], &mut rng);
                    let stream = rng.random::<u64>();
                    let (mut a, mut b) = (
                        StdRng::seed_from_u64(stream),
                        StdRng::seed_from_u64(stream),
                    );
                    let got = sampler.sample_from_partial(&inst, &seeds, Some(&probs), &mut a);
                    let want = full_rebuild_draw(&inst, &seeds, &probs, blocked.as_ref(), &mut b);
                    assert_same_draw(got, want, &mut a, &mut b);
                }
            }
        }
    }

    /// CBAS phase 1 as it was before the cached start order: a bounded
    /// min-heap over every node's score, O(n log m) per call.
    fn heap_select_start_nodes(g: &SocialGraph, m: usize, blocked: Option<&BitSet>) -> Vec<NodeId> {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        /// Min-heap entry: the *worst* kept candidate sits on top.
        struct Entry {
            score: f64,
            node: u32,
        }
        impl PartialEq for Entry {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == Ordering::Equal
            }
        }
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Ordering {
                other
                    .score
                    .partial_cmp(&self.score)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| other.node.cmp(&self.node).reverse())
            }
        }

        let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(m + 1);
        for v in g.node_ids() {
            if blocked.is_some_and(|b| b.contains(v.index())) {
                continue;
            }
            let score = g.start_node_score(v);
            heap.push(Entry { score, node: v.0 });
            if heap.len() > m {
                heap.pop();
            }
        }
        let mut picked: Vec<(f64, u32)> = heap.into_iter().map(|e| (e.score, e.node)).collect();
        picked.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        });
        picked.into_iter().map(|(_, v)| NodeId(v)).collect()
    }

    mod start_oracle {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The walk of the cached start order picks exactly what the
            /// old heap picked: on scored graphs, on unit-weight graphs
            /// (ties by degree, or every score tied on a complete graph),
            /// with and without random blocked sets, for m ∈ {0, 1,
            /// random, n, n + 3}.
            #[test]
            fn start_selection_matches_the_heap(
                seed in any::<u64>(),
                n in 2usize..60,
                shape in 0u8..3,
                m_kind in 0u8..5,
                block_one_in in 0u32..4,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let g = match shape {
                    0 => scored_ba(n, 2.min(n - 1), &mut rng),
                    1 => generate::barabasi_albert(n, 2.min(n - 1), &mut rng).into_unit_graph(),
                    _ => generate::complete_topology(n).into_unit_graph(),
                };
                let total = g.num_nodes();
                let m = match m_kind {
                    0 => 0,
                    1 => 1,
                    2 => rng.random_range(0..=total),
                    3 => total,
                    _ => total + 3,
                };
                // 0 means no blocked set; otherwise each node is blocked
                // with probability 1 / (block_one_in + 1).
                let blocked = (block_one_in > 0).then(|| {
                    let mut b = BitSet::new(total);
                    for v in 0..total {
                        if rng.random_range(0..=block_one_in) == 0 {
                            b.insert(v);
                        }
                    }
                    b
                });
                // Twice: the first call builds the order, the second reuses it.
                for _ in 0..2 {
                    prop_assert_eq!(
                        select_start_nodes(&g, m, blocked.as_ref()),
                        heap_select_start_nodes(&g, m, blocked.as_ref())
                    );
                }
            }
        }
    }

    #[test]
    fn nan_and_signed_zero_scores_rank_deterministically() {
        let interests = [0.0, f64::NAN, -0.0, 2.0, f64::NAN, -1.0, 0.0];
        let build = || {
            let mut b = GraphBuilder::new();
            for eta in interests {
                b.add_node(eta);
            }
            b.build()
        };
        // Numbers first (-0.0 ties 0.0, so ids decide), NaN last by id.
        let want: Vec<NodeId> = [3, 0, 2, 6, 5, 1, 4].map(NodeId).to_vec();
        assert_eq!(select_start_nodes(&build(), 7, None), want);
        assert_eq!(select_start_nodes(&build(), 3, None), want[..3]);
        let mut blocked = BitSet::new(7);
        blocked.insert(0);
        blocked.insert(1);
        assert_eq!(
            select_start_nodes(&build(), 10, Some(&blocked)),
            [3, 2, 6, 5, 4].map(NodeId)
        );
    }

    #[test]
    fn weighted_scratch_is_clean_after_every_draw() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = scored_ba(40, 2, &mut rng);
        let n = g.num_nodes();
        let inst = WasoInstance::new(g, 6).unwrap();
        // The pair {40, 41} is too small for k = 6, so this draw stalls
        // after scattering a vector that favours the big component.
        let mut stall = ProbabilityVector::uniform_for_start(n, 6, NodeId(40));
        for v in 0..40 {
            stall.set(NodeId(v), if v % 2 == 0 { 1.0 } else { 0.0 });
        }
        let mut reused = Sampler::new(n);
        let mut r = StdRng::seed_from_u64(0);
        assert!(reused
            .sample_weighted(&inst, NodeId(40), &stall, &mut r)
            .is_none());

        for start in [NodeId(3), NodeId(11)] {
            let probs = trained_vector(n, 6, start, &mut rng);
            for stream in 0..5 {
                let (mut a, mut b) = (StdRng::seed_from_u64(stream), StdRng::seed_from_u64(stream));
                let got = reused.sample_weighted(&inst, start, &probs, &mut a);
                let want = Sampler::new(n).sample_weighted(&inst, start, &probs, &mut b);
                assert!(got.is_some());
                assert_same_draw(got, want, &mut a, &mut b);
            }
        }
    }

    #[test]
    fn start_node_selection_matches_example_one() {
        // Example 1 (Figure 3): v3 and v10 have the largest score sums.
        // We reproduce the scoring rule on a small synthetic: scores are
        // η + Σ incident τ (each edge once).
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..4)
            .map(|i| b.add_node([0.1, 0.9, 0.5, 0.2][i]))
            .collect();
        b.add_edge_symmetric(ids[0], ids[1], 1.0).unwrap(); // v1: 0.9+1+0.2 = 2.1
        b.add_edge_symmetric(ids[1], ids[2], 0.2).unwrap(); // v2: 0.5+0.2+0.3 = 1.0
        b.add_edge_symmetric(ids[2], ids[3], 0.3).unwrap(); // v3: 0.2+0.3 = 0.5
        let g = b.build(); // v0: 0.1+1.0 = 1.1
        let picked = select_start_nodes(&g, 2, None);
        assert_eq!(picked, vec![NodeId(1), NodeId(0)]);
    }

    #[test]
    fn start_node_selection_ties_break_to_lower_id() {
        let mut b = GraphBuilder::new();
        for _ in 0..5 {
            b.add_node(1.0);
        }
        let g = b.build();
        assert_eq!(
            select_start_nodes(&g, 3, None),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn start_node_selection_skips_blocked() {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(i as f64);
        }
        let g = b.build();
        let mut blocked = BitSet::new(4);
        blocked.insert(3);
        assert_eq!(
            select_start_nodes(&g, 2, Some(&blocked)),
            vec![NodeId(2), NodeId(1)]
        );
    }

    #[test]
    fn start_node_selection_handles_m_larger_than_n() {
        let mut b = GraphBuilder::new();
        b.add_node(1.0);
        b.add_node(2.0);
        let g = b.build();
        let picked = select_start_nodes(&g, 10, None);
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0], NodeId(1));
    }

    #[test]
    fn default_m_is_n_over_k() {
        assert_eq!(default_num_start_nodes(100, 10), 10);
        assert_eq!(default_num_start_nodes(101, 10), 11);
        assert_eq!(default_num_start_nodes(5, 10), 1);
    }
}
