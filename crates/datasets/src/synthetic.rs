//! Synthetic stand-ins for the paper's three crawled networks.
//!
//! What the solvers consume is `(topology, η, τ)`. The evaluation's
//! qualitative claims hinge on three structural properties, which these
//! generators reproduce:
//!
//! * **density regime** — RGreedy's running time inverts between Facebook
//!   (avg degree 26.1) and DBLP (sparse, |E|/n = 3.66) precisely because of
//!   frontier growth (§5.3.2); Flickr sits back at Facebook-like density
//!   (avg degree ≈ 24.5), which the paper uses to explain the similar time
//!   curves (§5.3.3);
//! * **heavy-tailed degrees** — hubs make start-node selection matter;
//!   preferential attachment supplies the tail for the friendship networks,
//!   planted communities the clustered sparsity of co-authorship;
//! * **score models** — power-law interests (β = 2.5, \[5\]) and
//!   common-neighbour tightness (\[3\]), both normalized (§5.1).

use rand::rngs::StdRng;
use rand::SeedableRng;
use waso_graph::{generate, ScoreModel, SocialGraph};

/// Experiment scale: how much of the paper's dataset size to materialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized (hundreds of nodes) — seconds end to end.
    Smoke,
    /// Laptop default (thousands of nodes) — the shipped EXPERIMENTS.md
    /// numbers use this.
    Small,
    /// The paper's full node counts. Memory- and time-hungry.
    Paper,
}

/// A named dataset recipe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Node count at each scale: (smoke, small, paper).
    pub nodes: (usize, usize, usize),
    /// Mean degree the generator targets (`2|E|/n`).
    pub target_mean_degree: f64,
}

/// Facebook New Orleans (§5.1): 90,269 users, avg node degree 26.1.
pub const FACEBOOK: DatasetSpec = DatasetSpec {
    name: "facebook-like",
    nodes: (300, 2_000, 90_269),
    target_mean_degree: 26.1,
};

/// DBLP (§5.1): 511,163 nodes, 1,871,070 edges (avg degree 2|E|/n ≈ 7.3;
/// the paper quotes |E|/n = 3.66).
pub const DBLP: DatasetSpec = DatasetSpec {
    name: "dblp-like",
    nodes: (500, 5_000, 511_163),
    target_mean_degree: 7.3,
};

/// Flickr (§5.1): 1,846,198 nodes, 22,613,981 edges (avg degree ≈ 24.5).
pub const FLICKR: DatasetSpec = DatasetSpec {
    name: "flickr-like",
    nodes: (500, 5_000, 1_846_198),
    target_mean_degree: 24.5,
};

/// Planted-partition benchmark workload (not one of the paper's crawls):
/// ~50-person communities with near-uniform internal degrees, the regime
/// where OCBA's budget concentrates on whole communities rather than hubs.
/// The workload of the `decomp` ladder (`BENCH_engine.json`): its
/// communities are what the decomposition solver partitions along.
pub const PLANTED: DatasetSpec = DatasetSpec {
    name: "planted-partition",
    nodes: (300, 2_000, 100_000),
    target_mean_degree: 16.0,
};

impl DatasetSpec {
    /// Node count at `scale`.
    pub fn node_count(&self, scale: Scale) -> usize {
        match scale {
            Scale::Smoke => self.nodes.0,
            Scale::Small => self.nodes.1,
            Scale::Paper => self.nodes.2,
        }
    }
}

/// Facebook-like network at a named scale.
///
/// ```
/// use waso_datasets::synthetic::{facebook_like, Scale};
/// use waso_graph::metrics;
///
/// let g = facebook_like(Scale::Smoke, 1);
/// assert_eq!(g.num_nodes(), 300);
/// let stats = metrics::degree_stats(&g).unwrap();
/// // Mean degree tracks the New Orleans crawl's 26.1.
/// assert!((stats.mean - 26.1).abs() < 5.0);
/// ```
pub fn facebook_like(scale: Scale, seed: u64) -> SocialGraph {
    facebook_like_n(FACEBOOK.node_count(scale), seed)
}

/// Facebook-like network with an explicit node count (the Figure 5(c)
/// network-size sweep). Community-structured preferential attachment
/// ([`generate::community_ba`]): ~150-person communities of *varying*
/// internal density (attachment 6..=18, mean ≈ 12 → internal degree ≈ 24)
/// plus ~2 weak ties per node, totalling the target mean degree ≈ 26.
/// The density variance matters: it is what separates multi-start sampling
/// from greedy on real friendship graphs (see DESIGN.md §3).
pub fn facebook_like_n(n: usize, seed: u64) -> SocialGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let community = 150.min(n.max(3));
    let topo = if n < 10 {
        generate::barabasi_albert(n, attach_for(n, FACEBOOK.target_mean_degree), &mut rng)
    } else {
        let hi = 18usize.min((community - 1) / 2).max(2);
        generate::community_ba(n, community, 6.min(hi), hi, 2.0, &mut rng)
    };
    ScoreModel::paper_default().realize(&topo, &mut rng)
}

/// DBLP-like network at a named scale.
pub fn dblp_like(scale: Scale, seed: u64) -> SocialGraph {
    dblp_like_n(DBLP.node_count(scale), seed)
}

/// DBLP-like network with an explicit node count: planted co-authorship
/// communities (≈ 40 nodes each), most edges inside a community, the rest
/// across — sparse and clustered like co-authorship graphs.
pub fn dblp_like_n(n: usize, seed: u64) -> SocialGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let communities = (n / 40).max(1);
    let deg_in = (DBLP.target_mean_degree * 0.8).min(n as f64 - 1.0);
    let deg_out = DBLP.target_mean_degree * 0.2;
    let topo = generate::planted_communities(n, communities, deg_in, deg_out, &mut rng);
    ScoreModel::paper_default().realize(&topo, &mut rng)
}

/// Flickr-like network at a named scale.
pub fn flickr_like(scale: Scale, seed: u64) -> SocialGraph {
    flickr_like_n(FLICKR.node_count(scale), seed)
}

/// Flickr-like network with an explicit node count: community-structured
/// preferential attachment at Flickr's density (the paper notes its degree
/// profile is Facebook-like, §5.3.3) with larger interest groups, and
/// *asymmetric* tightness — Flickr contacts are directed, so
/// `τ_{u,v} ≠ τ_{v,u}` exercises the asymmetric code paths.
pub fn flickr_like_n(n: usize, seed: u64) -> SocialGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let community = 250.min(n.max(3));
    let topo = if n < 10 {
        generate::barabasi_albert(n, attach_for(n, FLICKR.target_mean_degree), &mut rng)
    } else {
        let hi = 17usize.min((community - 1) / 2).max(2);
        generate::community_ba(n, community, 5.min(hi), hi, 2.0, &mut rng)
    };
    ScoreModel::paper_asymmetric().realize(&topo, &mut rng)
}

/// Planted-partition network with an explicit node count
/// ([`waso_graph::generate::planted_partition`]): blocks of ≈ 50 nodes,
/// each intra-block pair wired with the probability that yields internal
/// degree ≈ 12, plus cross-block pairs contributing ≈ 4 more — the
/// [`PLANTED`] target mean degree of 16 with near-uniform internal
/// degrees (contrast [`facebook_like_n`]'s heavy-tailed communities).
pub fn planted_partition_like_n(n: usize, seed: u64) -> SocialGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let size = 50.min(n.max(2));
    let communities = n.div_ceil(size).max(1);
    let intra_target = PLANTED.target_mean_degree * 0.75; // 12 of 16
    let p_in = (intra_target / (size.saturating_sub(1)).max(1) as f64).min(1.0);
    let cross_span = n.saturating_sub(size).max(1);
    let p_out = ((PLANTED.target_mean_degree - intra_target) / cross_span as f64).min(1.0);
    let topo = generate::planted_partition(n, communities, p_in, p_out, &mut rng);
    ScoreModel::paper_default().realize(&topo, &mut rng)
}

/// Attachment parameter giving mean degree ≈ `target` (BA: `2m` per node
/// asymptotically), clamped for tiny test graphs.
fn attach_for(n: usize, target: f64) -> usize {
    let m = (target / 2.0).round() as usize;
    m.clamp(1, (n.saturating_sub(1)).max(1) / 2 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use waso_graph::{metrics, traversal};

    #[test]
    fn facebook_like_hits_target_density() {
        let g = facebook_like(Scale::Smoke, 1);
        assert_eq!(g.num_nodes(), 300);
        let stats = metrics::degree_stats(&g).unwrap();
        assert!(
            (stats.mean - FACEBOOK.target_mean_degree).abs() < 4.0,
            "mean degree {}",
            stats.mean
        );
        assert!(traversal::is_connected(&g), "BA graphs are connected");
    }

    #[test]
    fn facebook_like_is_heavy_tailed() {
        // Community-local hubs: the tail is bounded by the community size,
        // but hubs still dwarf the mean (an ER graph of this density would
        // have max/mean ≈ 1.8).
        let g = facebook_like(Scale::Small, 2);
        let stats = metrics::degree_stats(&g).unwrap();
        assert!(
            stats.max as f64 > 2.2 * stats.mean,
            "hub degree {} vs mean {}",
            stats.max,
            stats.mean
        );
    }

    #[test]
    fn facebook_like_has_varying_community_density() {
        // The greedy-vs-sampling separation relies on communities of
        // different quality; verify the per-block internal degree varies.
        let g = facebook_like(Scale::Small, 11);
        let block = 150;
        let blocks = g.num_nodes() / block;
        let mut internal = vec![0usize; blocks];
        for (u, v, _, _) in g.undirected_edges() {
            let (cu, cv) = (u.index() / block, v.index() / block);
            if cu == cv && cu < blocks {
                internal[cu] += 1;
            }
        }
        let min = *internal.iter().min().unwrap();
        let max = *internal.iter().max().unwrap();
        assert!(max as f64 > 1.5 * min as f64, "{internal:?}");
    }

    #[test]
    fn dblp_like_is_sparse_and_clustered() {
        let g = dblp_like(Scale::Small, 3);
        let stats = metrics::degree_stats(&g).unwrap();
        assert!(
            (stats.mean - DBLP.target_mean_degree).abs() < 2.0,
            "mean degree {}",
            stats.mean
        );
        // Far sparser than the Facebook-like graph.
        let fb = facebook_like(Scale::Smoke, 3);
        let fb_stats = metrics::degree_stats(&fb).unwrap();
        assert!(stats.mean < fb_stats.mean / 2.0);
    }

    #[test]
    fn flickr_like_has_asymmetric_tightness() {
        let g = flickr_like(Scale::Smoke, 4);
        let asym = g
            .undirected_edges()
            .filter(|&(_, _, a, b)| (a - b).abs() > 1e-12)
            .count();
        assert!(
            asym * 2 > g.num_edges(),
            "most edges should be asymmetric, got {asym}/{}",
            g.num_edges()
        );
    }

    #[test]
    fn planted_partition_like_hits_target_density() {
        let g = planted_partition_like_n(PLANTED.node_count(Scale::Smoke), 6);
        assert_eq!(g.num_nodes(), PLANTED.node_count(Scale::Smoke));
        let stats = metrics::degree_stats(&g).unwrap();
        assert!(
            (stats.mean - PLANTED.target_mean_degree).abs() < 3.0,
            "mean degree {}",
            stats.mean
        );
        // Near-uniform internal degrees: no BA-style hubs.
        let fb = facebook_like(Scale::Smoke, 6);
        let fb_stats = metrics::degree_stats(&fb).unwrap();
        let pp_ratio = stats.max as f64 / stats.mean;
        let fb_ratio = fb_stats.max as f64 / fb_stats.mean;
        assert!(
            pp_ratio < fb_ratio,
            "planted partition ({pp_ratio:.2}) should be flatter than BA ({fb_ratio:.2})"
        );
    }

    #[test]
    fn planted_partition_like_is_deterministic() {
        let n = PLANTED.node_count(Scale::Smoke);
        assert_eq!(
            planted_partition_like_n(n, 9),
            planted_partition_like_n(n, 9)
        );
    }

    #[test]
    fn scores_are_normalized() {
        for g in [
            facebook_like(Scale::Smoke, 5),
            dblp_like(Scale::Smoke, 5),
            flickr_like(Scale::Smoke, 5),
            planted_partition_like_n(PLANTED.node_count(Scale::Smoke), 5),
        ] {
            let max_eta = g.interests().iter().cloned().fold(f64::MIN, f64::max);
            assert!((max_eta - 1.0).abs() < 1e-9, "interest max {max_eta}");
            for (_, _, a, b) in g.undirected_edges() {
                assert!((0.0..=1.0 + 1e-9).contains(&a));
                assert!((0.0..=1.0 + 1e-9).contains(&b));
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = facebook_like(Scale::Smoke, 7);
        let b = facebook_like(Scale::Smoke, 7);
        assert_eq!(a, b);
        let c = facebook_like(Scale::Smoke, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn spec_node_counts() {
        assert_eq!(FACEBOOK.node_count(Scale::Paper), 90_269);
        assert_eq!(DBLP.node_count(Scale::Smoke), 500);
        assert_eq!(FLICKR.node_count(Scale::Small), 5_000);
    }

    #[test]
    fn attach_parameter_is_sane_for_tiny_graphs() {
        assert_eq!(attach_for(10, 26.1), 5);
        assert!(attach_for(4, 26.1) < 4);
        assert_eq!(attach_for(10_000, 26.1), 13);
    }
}
