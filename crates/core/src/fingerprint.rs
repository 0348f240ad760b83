//! Structural fingerprints over [`WasoInstance`].
//!
//! No solve path uses them: the session's solve memo is scoped to a
//! generation counter that every delta and configuration change bumps,
//! so it never needs to hash the graph. The type stays only because the
//! standalone `perfbench` package links it for its `fingerprint.*`
//! layer probes; it goes when a benchmark change drops those probes.
//!
//! A fingerprint digests everything a solver's answer can depend on:
//! the group size `k`, the connectivity requirement, every node's
//! interest score (bit-exact), and every directed tightness value with
//! its adjacency (bit-exact, in CSR row order). Two instances with the
//! same digest are — up to 64-bit collision — the same optimization
//! problem, so a cached [`crate::Group`] for one is valid for the other.
//!
//! The digest folds per-node hashes with XOR, which makes it
//! *incrementally updatable*: a graph delta that touches node `v`
//! (an interest change, or an edge at `v`) only requires re-hashing
//! `v`'s row — [`InstanceFingerprint::update_node`] is `O(degree(v))`
//! while a full [`InstanceFingerprint::of`] is `O(n + m)`.
//!
//! Determinism: the hash is a hand-rolled SplitMix64-style fold — no
//! `std` hashers, no per-process `RandomState`, no clocks — so the same
//! instance fingerprints identically across processes, runs, and
//! platforms. That keeps this module clean under the workspace audit's
//! D1/D2 rules.

use waso_graph::NodeId;

use crate::WasoInstance;

/// SplitMix64 finalizer — the same avalanche the solver seed streams use.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Folds one value into a running hash (order-dependent).
#[inline]
fn fold(h: u64, v: u64) -> u64 {
    mix(h ^ v.wrapping_mul(0x9E3779B97F4A7C15))
}

/// Hash of one node's contribution: its index, its interest score, and
/// its full CSR row of (neighbor, outgoing tightness) pairs, all
/// bit-exact. Rows are stored sorted by neighbor id, so this is a pure
/// function of the instance's structure.
fn node_hash(instance: &WasoInstance, v: NodeId) -> u64 {
    let g = instance.graph();
    let mut h = fold(0x57A5_0F1A_6E0D_0001, v.index() as u64);
    h = fold(h, g.interest(v).to_bits());
    for (j, tau, _) in g.neighbor_entries(v) {
        h = fold(h, j.index() as u64);
        h = fold(h, tau.to_bits());
    }
    h
}

/// An incrementally-updatable structural digest of a [`WasoInstance`].
///
/// Holds one hash per node plus an XOR accumulator over them, so a
/// local change re-folds only the touched rows. Equal
/// [`InstanceFingerprint::digest`]s mean "same instance", up to 64-bit
/// collision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceFingerprint {
    /// Per-node row hashes, indexed by node id.
    node_hashes: Vec<u64>,
    /// Hash of the instance header: `n`, `k`, connectivity requirement.
    header: u64,
    /// XOR over `mix(node_hashes[i])` — order-independent, so single
    /// rows can be swapped out without re-folding the rest.
    xor_sum: u64,
}

impl InstanceFingerprint {
    /// Fingerprints `instance` from scratch in `O(n + m)`.
    pub fn of(instance: &WasoInstance) -> Self {
        let g = instance.graph();
        let n = g.num_nodes();
        let mut header = fold(0x57A5_0F1A_6E0D_0002, n as u64);
        header = fold(header, instance.k() as u64);
        header = fold(header, u64::from(instance.requires_connectivity()));
        let mut node_hashes = Vec::with_capacity(n);
        let mut xor_sum = 0u64;
        for v in g.node_ids() {
            let h = node_hash(instance, v);
            xor_sum ^= mix(h);
            node_hashes.push(h);
        }
        Self {
            node_hashes,
            header,
            xor_sum,
        }
    }

    /// The 64-bit digest of the whole instance.
    pub fn digest(&self) -> u64 {
        fold(self.header, self.xor_sum)
    }

    /// Re-hashes node `v`'s row against (a possibly rebuilt) `instance`
    /// and splices it into the digest in `O(degree(v))`.
    ///
    /// `instance` must have the same node count, `k`, and connectivity
    /// requirement as the instance this fingerprint was built from —
    /// graph deltas preserve all three.
    pub fn update_node(&mut self, instance: &WasoInstance, v: NodeId) {
        debug_assert_eq!(
            self.node_hashes.len(),
            instance.graph().num_nodes(),
            "update_node requires an instance with the same node count"
        );
        let slot = &mut self.node_hashes[v.index()];
        self.xor_sum ^= mix(*slot);
        *slot = node_hash(instance, v);
        self.xor_sum ^= mix(*slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waso_graph::GraphBuilder;

    fn triangle(eta2: f64, tau01: f64) -> WasoInstance {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node(0.5);
        let v1 = b.add_node(1.0);
        let v2 = b.add_node(eta2);
        b.add_edge(v0, v1, tau01, 0.4).unwrap();
        b.add_edge(v1, v2, 0.2, 0.3).unwrap();
        b.add_edge(v0, v2, 0.1, 0.6).unwrap();
        WasoInstance::new(b.build(), 2).unwrap()
    }

    #[test]
    fn identical_instances_fingerprint_identically() {
        let a = InstanceFingerprint::of(&triangle(2.0, 0.7));
        let b = InstanceFingerprint::of(&triangle(2.0, 0.7));
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn interest_tightness_k_and_connectivity_all_matter() {
        let base = InstanceFingerprint::of(&triangle(2.0, 0.7)).digest();
        assert_ne!(base, InstanceFingerprint::of(&triangle(2.5, 0.7)).digest());
        assert_ne!(base, InstanceFingerprint::of(&triangle(2.0, 0.8)).digest());

        let g = triangle(2.0, 0.7).into_graph();
        let k3 = WasoInstance::new(g.clone(), 3).unwrap();
        assert_ne!(base, InstanceFingerprint::of(&k3).digest());
        let free = WasoInstance::without_connectivity(g, 2).unwrap();
        assert_ne!(base, InstanceFingerprint::of(&free).digest());
    }

    #[test]
    fn incremental_update_matches_full_recompute() {
        let before = triangle(2.0, 0.7);
        let after = triangle(9.0, 0.7);
        let mut fp = InstanceFingerprint::of(&before);
        fp.update_node(&after, NodeId(2));
        assert_eq!(fp, InstanceFingerprint::of(&after));

        // An edge change touches both endpoints.
        let retaued = triangle(2.0, 0.9);
        let mut fp = InstanceFingerprint::of(&before);
        fp.update_node(&retaued, NodeId(0));
        fp.update_node(&retaued, NodeId(1));
        assert_eq!(fp, InstanceFingerprint::of(&retaued));
    }
}
