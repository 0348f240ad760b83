//! The cross-entropy machinery of CBAS-ND (§4.2–4.3).
//!
//! Each start node `v_i` carries a *node-selection probability vector*
//! `p_{i,t}` (Definition 3). Stage `t`'s samples are ranked, the top-ρ
//! quantile `γ_{i,t}` (Definition 5, kept monotone across stages per the
//! pseudo-code lines 36–39) defines the elite set, and Eq. (4) re-fits the
//! vector to the elites' empirical inclusion frequencies — the minimizer of
//! the Kullback–Leibler distance to the optimal importance-sampling density
//! (§4.3). A smoothing step `p ← w·p_new + (1-w)·p_old` keeps probabilities
//! away from hard 0/1 so no node is permanently excluded or forced.
//!
//! The vector is stored *sparsely*: nodes that never appeared in an elite
//! sample share a scalar default that decays by `(1-w)` per stage. This
//! realizes the paper's memory note ("directly set the probability to 0 for
//! every node not neighbouring a partial solution") exactly: m vectors over
//! million-node graphs cost O(total elite nodes), not O(m·n).

use std::collections::BTreeMap;

use waso_graph::NodeId;

use crate::sampler::Sample;

/// Sparse per-start-node selection probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbabilityVector {
    /// Explicit entries; nodes absent here carry `default`. A `BTreeMap`
    /// (not a hash map): iteration order feeds float accumulation in
    /// [`ProbabilityVector::distance_sq`], and `HashMap`'s per-instance
    /// randomized order would make two identically-seeded runs diverge.
    /// (The sampler scatters these entries into a dense per-worker array
    /// before a draw, so its weights do not depend on this order.)
    explicit: BTreeMap<u32, f64>,
    /// Probability of every node without an explicit entry.
    default: f64,
    /// Number of nodes in the graph (needed by the distance metric).
    n: usize,
}

impl ProbabilityVector {
    /// Floor applied during sampling so decayed entries remain reachable
    /// (numerical guard; the paper's smoothing serves the same purpose).
    pub const MIN_PROB: f64 = 1e-12;

    /// The paper's initial vector: `p_{i,1,j} = (k-1)/(n-1)` for every node
    /// (Example 1 uses exactly 4/9 for n = 10, k = 5).
    pub fn uniform(n: usize, k: usize) -> Self {
        assert!(n >= 2, "need at least two nodes");
        Self {
            explicit: BTreeMap::new(),
            default: (k.saturating_sub(1)) as f64 / (n - 1) as f64,
            n,
        }
    }

    /// Initial vector for start node `start`, which carries probability 1
    /// (it is in every sample by construction; Example 1's
    /// 〈4/9, 4/9, 1, 4/9, …〉 for start node v3).
    pub fn uniform_for_start(n: usize, k: usize, start: NodeId) -> Self {
        let mut p = Self::uniform(n, k);
        p.set(start, 1.0);
        p
    }

    /// Probability of selecting `v`.
    #[inline]
    pub fn get(&self, v: NodeId) -> f64 {
        *self.explicit.get(&v.0).unwrap_or(&self.default)
    }

    /// The explicit entries, in ascending node order. Every other node
    /// carries [`ProbabilityVector::default_prob`].
    pub fn explicit_entries(&self) -> impl ExactSizeIterator<Item = (NodeId, f64)> + '_ {
        self.explicit.iter().map(|(&v, &p)| (NodeId(v), p))
    }

    /// Overrides the probability of one node.
    pub fn set(&mut self, v: NodeId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0,1]");
        self.explicit.insert(v.0, p);
    }

    /// The shared probability of all non-explicit nodes.
    pub fn default_prob(&self) -> f64 {
        self.default
    }

    /// Number of explicit entries (memory accounting / diagnostics).
    pub fn explicit_len(&self) -> usize {
        self.explicit.len()
    }

    /// Number of nodes the vector spans.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the vector covers no nodes (never constructed that way).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Eq. (4) + smoothing from raw elite samples: computes each node's
    /// elite inclusion frequency and applies
    /// `p ← w · freq + (1-w) · p_old`.
    ///
    /// # Panics
    /// Panics if `w` is outside `[0, 1]` or `elites` is empty.
    pub fn update_from_elites(&mut self, elites: &[&Sample], w: f64) {
        assert!(!elites.is_empty(), "elite set must be non-empty");
        let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
        for s in elites {
            for &v in &s.nodes {
                *counts.entry(v.0).or_insert(0) += 1;
            }
        }
        let denom = elites.len() as f64;
        let freqs: Vec<(NodeId, f64)> = counts
            .into_iter()
            .map(|(v, c)| (NodeId(v), c as f64 / denom))
            .collect();
        self.update_from_frequencies(&freqs, w);
    }

    /// Eq. (4) + smoothing from precomputed elite frequencies. Nodes not
    /// listed have frequency 0 and simply decay by `(1-w)`.
    ///
    /// # Panics
    /// Panics if `w` is outside `[0, 1]` or any frequency is outside `[0,1]`.
    pub fn update_from_frequencies(&mut self, freqs: &[(NodeId, f64)], w: f64) {
        assert!(
            (0.0..=1.0).contains(&w),
            "smoothing weight {w} outside [0,1]"
        );
        let old_default = self.default;

        // Decay phase: every probability (explicit and implicit) shrinks by
        // (1-w); the frequency mass is added next.
        for p in self.explicit.values_mut() {
            *p *= 1.0 - w;
        }
        self.default *= 1.0 - w;

        for &(v, freq) in freqs {
            assert!(
                (0.0..=1.0).contains(&freq),
                "frequency {freq} outside [0,1]"
            );
            let base = self
                .explicit
                .get(&v.0)
                .copied()
                .unwrap_or((1.0 - w) * old_default);
            self.explicit.insert(v.0, w * freq + base);
        }
    }

    /// The convergence distance of §4.4.2:
    /// `z = Σ_j (p_t(j) - p_{t-1}(j))²` over all `n` nodes. Sparse defaults
    /// are compared pairwise; nodes explicit in neither vector contribute
    /// `(default_a - default_b)²` each.
    ///
    /// # Panics
    /// Panics if the vectors span different node counts.
    pub fn distance_sq(&self, other: &ProbabilityVector) -> f64 {
        assert_eq!(self.n, other.n, "vectors over different graphs");
        let mut z = 0.0;
        let mut covered = 0usize;
        for (&v, &p) in &self.explicit {
            let q = other.get(NodeId(v));
            z += (p - q) * (p - q);
            covered += 1;
        }
        for (&v, &q) in &other.explicit {
            if !self.explicit.contains_key(&v) {
                let p = self.default;
                z += (p - q) * (p - q);
                covered += 1;
            }
        }
        let rest = self.n - covered;
        let dd = self.default - other.default;
        z + rest as f64 * dd * dd
    }
}

/// One stage's full cross-entropy update for one start node (Algorithm 2
/// lines 35–46): rank the stage's samples, lift γ to the top-ρ quantile
/// (kept monotone across stages), re-fit the vector to the elites via
/// Eq. (4) with smoothing `w`, and optionally backtrack per §4.4.2 when
/// the update moved the vector less than `z_t`. Returns `true` when
/// backtracking reverted the vector.
///
/// This is the distribution-update step of the
/// [`crate::engine::StagedEngine`]; it lives here with the vector it
/// mutates.
pub fn update_vector(
    vector: &mut ProbabilityVector,
    gamma: &mut f64,
    stage_samples: &mut [Sample],
    rho: f64,
    smoothing: f64,
    backtrack_threshold: Option<f64>,
) -> bool {
    // γ_{t+1} = max(γ_t, W_(⌈ρN⌉)) — pseudo-code lines 35–39.
    stage_samples.sort_by(|a, b| {
        b.willingness
            .partial_cmp(&a.willingness)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let idx = waso_stats::quantile::top_rho_count(stage_samples.len(), rho);
    let stage_gamma = stage_samples[idx - 1].willingness;
    if stage_gamma > *gamma {
        *gamma = stage_gamma;
    }
    // Elites: samples meeting the (monotone) threshold, Eq. (4).
    let elites: Vec<&Sample> = stage_samples
        .iter()
        .filter(|s| s.willingness >= *gamma)
        .collect();
    if elites.is_empty() {
        // Whole stage below the historic γ: nothing to learn from.
        return false;
    }
    let previous = vector.clone();
    vector.update_from_elites(&elites, smoothing);
    if let Some(z_t) = backtrack_threshold {
        // §4.4.2: converged updates are reverted so the next stage
        // re-samples from the previous, more diverse distribution.
        if vector.distance_sq(&previous) < z_t {
            *vector = previous;
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gamma_monotonicity_filters_bad_stages() {
        // A second stage entirely below the first stage's γ must not update
        // the vector.
        let mut v = ProbabilityVector::uniform(10, 3);
        let mut gamma = f64::NEG_INFINITY;
        let mut stage1 = vec![sample(&[0, 1, 2], 10.0), sample(&[0, 1, 3], 8.0)];
        let reverted = update_vector(&mut v, &mut gamma, &mut stage1, 0.5, 0.5, None);
        assert!(!reverted);
        assert_eq!(gamma, 10.0);
        let after_stage1 = v.clone();

        let mut stage2 = vec![sample(&[4, 5, 6], 3.0), sample(&[4, 5, 7], 2.0)];
        update_vector(&mut v, &mut gamma, &mut stage2, 0.5, 0.5, None);
        assert_eq!(gamma, 10.0, "gamma must not regress");
        assert_eq!(v, after_stage1, "sub-γ stages contribute no elites");
    }

    fn sample(nodes: &[u32], w: f64) -> Sample {
        Sample {
            nodes: nodes.iter().map(|&v| NodeId(v)).collect(),
            willingness: w,
        }
    }

    #[test]
    fn uniform_matches_example_one() {
        // n = 10, k = 5 → p = (k-1)/(n-1) = 4/9 everywhere, 1 at the start.
        let p = ProbabilityVector::uniform_for_start(10, 5, NodeId(2));
        assert!((p.get(NodeId(0)) - 4.0 / 9.0).abs() < 1e-12);
        assert!((p.get(NodeId(9)) - 4.0 / 9.0).abs() < 1e-12);
        assert_eq!(p.get(NodeId(2)), 1.0);
    }

    /// Example 2 verbatim: elite frequencies 〈2/3, 1/3, 1, 2/3, 1, 2/3,
    /// 1/3, 0, 0, 0〉 smoothed with w = 0.6 over the uniform start vector
    /// 〈4/9, …, 1 at v3, … 4/9〉 must give
    /// 〈5.2/9, 3.4/9, 1, 5.2/9, 7/9, 5.2/9, 3.4/9, 1.6/9, 1.6/9, 1.6/9〉.
    #[test]
    fn smoothing_matches_example_two() {
        let mut p = ProbabilityVector::uniform_for_start(10, 5, NodeId(2));
        let freqs = [
            (NodeId(0), 2.0 / 3.0),
            (NodeId(1), 1.0 / 3.0),
            (NodeId(2), 1.0),
            (NodeId(3), 2.0 / 3.0),
            (NodeId(4), 1.0),
            (NodeId(5), 2.0 / 3.0),
            (NodeId(6), 1.0 / 3.0),
        ];
        p.update_from_frequencies(&freqs, 0.6);
        let want = [
            5.2 / 9.0,
            3.4 / 9.0,
            1.0,
            5.2 / 9.0,
            7.0 / 9.0,
            5.2 / 9.0,
            3.4 / 9.0,
            1.6 / 9.0,
            1.6 / 9.0,
            1.6 / 9.0,
        ];
        for (j, &expected) in want.iter().enumerate() {
            let got = p.get(NodeId(j as u32));
            assert!(
                (got - expected).abs() < 1e-12,
                "p[{j}] = {got}, want {expected}"
            );
        }
    }

    #[test]
    fn elite_frequencies_are_inclusion_fractions() {
        let mut p = ProbabilityVector::uniform(6, 3);
        let s1 = sample(&[0, 1, 2], 10.0);
        let s2 = sample(&[0, 2, 4], 9.0);
        p.update_from_elites(&[&s1, &s2], 1.0); // w=1: pure frequencies
        assert_eq!(p.get(NodeId(0)), 1.0);
        assert_eq!(p.get(NodeId(1)), 0.5);
        assert_eq!(p.get(NodeId(2)), 1.0);
        assert_eq!(p.get(NodeId(3)), 0.0); // decayed default
        assert_eq!(p.get(NodeId(4)), 0.5);
    }

    #[test]
    fn w_zero_is_identity() {
        let mut p = ProbabilityVector::uniform(5, 2);
        let before = p.clone();
        let s = sample(&[0, 1], 1.0);
        p.update_from_elites(&[&s], 0.0);
        // All values unchanged (0.25 default everywhere).
        for j in 0..5 {
            assert!((p.get(NodeId(j)) - before.get(NodeId(j))).abs() < 1e-15);
        }
    }

    #[test]
    fn repeated_updates_decay_unseen_nodes() {
        let mut p = ProbabilityVector::uniform(4, 2);
        let p0 = p.default_prob();
        let s = sample(&[0, 1], 1.0);
        for _ in 0..3 {
            p.update_from_elites(&[&s], 0.5);
        }
        // Node 3 never elite: (1-w)^3 · p0.
        assert!((p.get(NodeId(3)) - 0.125 * p0).abs() < 1e-12);
        // Node 0 always elite: converges toward 1.
        assert!(p.get(NodeId(0)) > 0.9);
        // Sparse representation: only elite nodes became explicit.
        assert_eq!(p.explicit_len(), 2);
    }

    #[test]
    fn distance_counts_implicit_nodes() {
        let a = ProbabilityVector::uniform(10, 5); // 4/9 everywhere
        let mut b = ProbabilityVector::uniform(10, 5);
        b.set(NodeId(0), 1.0);
        let d = a.distance_sq(&b);
        let expect = (1.0 - 4.0 / 9.0_f64).powi(2);
        assert!((d - expect).abs() < 1e-12);
        // Symmetric.
        assert!((b.distance_sq(&a) - d).abs() < 1e-15);
        // Identical vectors are at distance zero.
        assert_eq!(a.distance_sq(&a), 0.0);
    }

    #[test]
    fn distance_tracks_update_magnitude() {
        let mut p = ProbabilityVector::uniform(8, 3);
        let prev = p.clone();
        let s = sample(&[0, 1, 2], 5.0);
        p.update_from_elites(&[&s], 0.9);
        let big = p.distance_sq(&prev);

        let mut q = prev.clone();
        q.update_from_elites(&[&s], 0.1);
        let small = q.distance_sq(&prev);
        assert!(big > small, "stronger smoothing moves the vector farther");
    }

    #[test]
    #[should_panic(expected = "elite set must be non-empty")]
    fn empty_elites_panics() {
        let mut p = ProbabilityVector::uniform(4, 2);
        p.update_from_elites(&[], 0.5);
    }

    proptest! {
        #[test]
        fn probabilities_stay_in_unit_interval(
            elite_nodes in proptest::collection::vec(0u32..20, 1..10),
            w in 0.0..1.0f64,
            rounds in 1usize..5,
        ) {
            let mut p = ProbabilityVector::uniform(20, 4);
            let mut elite_nodes = elite_nodes;
            elite_nodes.sort_unstable();
            elite_nodes.dedup(); // samples never contain duplicates
            let s = sample(&elite_nodes, 1.0);
            for _ in 0..rounds {
                p.update_from_elites(&[&s], w);
            }
            for j in 0..20 {
                let v = p.get(NodeId(j));
                prop_assert!((0.0..=1.0 + 1e-12).contains(&v), "p[{}] = {}", j, v);
            }
        }
    }
}
