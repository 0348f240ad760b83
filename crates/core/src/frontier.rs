//! The `VS`/`VA` growth machinery shared by every solver.
//!
//! The paper's algorithms all grow a partial solution `VS` by repeatedly
//! selecting from the candidate set `VA` of nodes adjacent to `VS`
//! (Algorithm 1, lines 17–23). [`Frontier`] is `VA` with O(1) insert,
//! remove, membership and indexed access (a dense item list plus a position
//! map), which makes uniform random selection a single `random_range`.
//! [`GrowthWorkspace`] bundles `VS` (membership bit set + order), `VA`, the
//! running willingness, and an optional blocked set (declined invitees,
//! §4.4.1), and is designed to be reset and reused across the thousands of
//! samples a CBAS run draws — no per-sample allocation.

use waso_graph::{BitSet, NodeId, SocialGraph};

use crate::willingness::marginal_gain;

/// The candidate set `VA`: a set of node ids with O(1) insert/remove/
/// membership and O(1) access by dense index (for uniform sampling).
#[derive(Debug, Clone)]
pub struct Frontier {
    items: Vec<u32>,
    /// `pos[v]` = index of `v` in `items`, or `u32::MAX` when absent.
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl Frontier {
    /// Creates an empty frontier over node ids `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            items: Vec::new(),
            pos: vec![ABSENT; n],
        }
    }

    /// Number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when no candidates remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.pos[v.index()] != ABSENT
    }

    /// Candidate at dense index `i` (for uniform sampling).
    #[inline]
    pub fn item(&self, i: usize) -> NodeId {
        NodeId(self.items[i])
    }

    /// All candidates, in slot order: insertion order, except that each
    /// removal moved the then-last candidate into the freed slot (see
    /// [`Frontier::remove`]).
    #[inline]
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Inserts `v`; returns `true` if it was absent.
    ///
    /// Ordering contract: a fresh `v` lands in the last slot, and every
    /// other candidate keeps its slot. The weighted sampler relies on this
    /// to extend its cumulative weights instead of rebuilding them.
    #[inline]
    pub fn insert(&mut self, v: NodeId) -> bool {
        let slot = &mut self.pos[v.index()];
        if *slot != ABSENT {
            return false;
        }
        *slot = self.items.len() as u32;
        self.items.push(v.0);
        true
    }

    /// Removes `v` (swap-remove, O(1)); returns `true` if it was present.
    ///
    /// Ordering contract: when `v` sat in slot `s`, the candidates in slots
    /// `..s` keep their slots, the last candidate moves into slot `s`, and
    /// the rest of the order is unchanged. The weighted sampler relies on
    /// this to keep the cumulative weights of `items()[..s]` across a pick.
    #[inline]
    pub fn remove(&mut self, v: NodeId) -> bool {
        let slot = self.pos[v.index()];
        if slot == ABSENT {
            return false;
        }
        let Some(&last) = self.items.last() else {
            // Unreachable when `pos` and `items` agree; treat a desynced
            // frontier as "not present" rather than aborting the solve.
            return false;
        };
        self.items.swap_remove(slot as usize);
        if last != v.0 {
            self.pos[last as usize] = slot;
        }
        self.pos[v.index()] = ABSENT;
        true
    }

    /// Pre-reserves capacity for `cap` candidates (buffer-reuse hint for
    /// long-lived workspaces; see [`GrowthWorkspace::reserve`]).
    pub fn reserve(&mut self, cap: usize) {
        let cap = cap.min(self.pos.len());
        if cap > self.items.capacity() {
            self.items.reserve(cap - self.items.len());
        }
    }

    /// Empties the frontier in O(current length).
    pub fn clear(&mut self) {
        for &v in &self.items {
            self.pos[v as usize] = ABSENT;
        }
        self.items.clear();
    }
}

/// A reusable partial-solution grower: `VS`, `VA`, running willingness.
#[derive(Debug, Clone)]
pub struct GrowthWorkspace {
    members: BitSet,
    selected: Vec<NodeId>,
    frontier: Frontier,
    willingness: f64,
    /// `true` → frontier is the neighbourhood of `VS` (connected growth);
    /// `false` → frontier is every unselected node (WASO-dis growth).
    connected: bool,
    blocked: Option<BitSet>,
}

impl GrowthWorkspace {
    /// Creates a workspace for graphs of `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            members: BitSet::new(n),
            selected: Vec::new(),
            frontier: Frontier::new(n),
            willingness: 0.0,
            connected: true,
            blocked: None,
        }
    }

    /// Marks nodes that may never enter a solution (declined invitees in the
    /// online extension, §4.4.1). Applies to subsequent seeds/adds.
    pub fn set_blocked(&mut self, blocked: Option<BitSet>) {
        self.blocked = blocked;
    }

    /// `true` if `v` is currently blocked.
    #[inline]
    pub fn is_blocked(&self, v: NodeId) -> bool {
        self.blocked.as_ref().is_some_and(|b| b.contains(v.index()))
    }

    /// Pre-reserves the growth buffers for groups of `k` nodes whose
    /// frontier can reach roughly `k · max_degree` candidates. Long-lived
    /// workspaces (one per staged-engine worker, reused across thousands
    /// of samples) call this once so even the first samples allocate
    /// nothing.
    pub fn reserve(&mut self, k: usize, max_degree: usize) {
        if k > self.selected.capacity() {
            self.selected.reserve(k - self.selected.len());
        }
        self.frontier.reserve(k.saturating_mul(max_degree));
    }

    /// Clears `VS`, `VA` and the running willingness (keeps the blocked
    /// set). O(|VS| + |VA|) — constant-ish per sample regardless of n.
    pub fn reset(&mut self) {
        for &v in &self.selected {
            self.members.remove(v.index());
        }
        self.selected.clear();
        self.frontier.clear();
        self.willingness = 0.0;
        self.connected = true;
    }

    /// Seeds connected growth at `start`: `VS = {start}`,
    /// `VA = N(start)` (minus blocked).
    ///
    /// # Panics
    /// Panics if the workspace is non-empty or `start` is blocked.
    pub fn seed(&mut self, g: &SocialGraph, start: NodeId) {
        assert!(self.selected.is_empty(), "seed on a non-empty workspace");
        assert!(!self.is_blocked(start), "seeding a blocked node {start}");
        self.connected = true;
        self.push_member(g, start);
    }

    /// Seeds connected growth with a whole partial solution (the online
    /// extension of §4.4.1 starts from the already-confirmed attendees):
    /// `VS = seeds`, `VA` = all non-blocked neighbours of `VS`.
    ///
    /// The seed set itself need not be connected; feasibility of the final
    /// group is the caller's responsibility (validated by `Group::new`).
    ///
    /// # Panics
    /// Panics if the workspace is non-empty, `seeds` is empty or contains a
    /// blocked or duplicate node.
    pub fn seed_set(&mut self, g: &SocialGraph, seeds: &[NodeId]) {
        assert!(self.selected.is_empty(), "seed on a non-empty workspace");
        assert!(!seeds.is_empty(), "seed set must be non-empty");
        self.connected = true;
        for &v in seeds {
            assert!(!self.is_blocked(v), "seeding a blocked node {v}");
            let fresh = self.members.insert(v.index());
            assert!(fresh, "duplicate seed {v}");
            self.selected.push(v);
        }
        self.willingness =
            crate::willingness::willingness_of_members(g, &self.members, &self.selected);
        for &v in seeds {
            for &j in g.neighbors(v) {
                let cand = NodeId(j);
                if !self.members.contains(j as usize) && !self.is_blocked(cand) {
                    self.frontier.insert(cand);
                }
            }
        }
    }

    /// Seeds unconstrained growth (WASO-dis): `VS = {start}`, `VA` = every
    /// other non-blocked node.
    pub fn seed_free(&mut self, g: &SocialGraph, start: NodeId) {
        assert!(self.selected.is_empty(), "seed on a non-empty workspace");
        assert!(!self.is_blocked(start), "seeding a blocked node {start}");
        self.connected = false;
        self.members.insert(start.index());
        self.selected.push(start);
        self.willingness += g.interest(start);
        for v in g.node_ids() {
            if v != start && !self.is_blocked(v) {
                self.frontier.insert(v);
            }
        }
    }

    /// Moves candidate `v` from `VA` into `VS`, updating the willingness
    /// incrementally and extending `VA` with `v`'s unseen neighbours.
    ///
    /// # Panics
    /// Panics if `v` is not currently a candidate.
    pub fn add(&mut self, g: &SocialGraph, v: NodeId) {
        assert!(self.frontier.contains(v), "{v} is not a candidate");
        if self.connected {
            self.push_member(g, v);
        } else {
            self.frontier.remove(v);
            let gain = marginal_gain(g, &self.members, v);
            self.members.insert(v.index());
            self.willingness += gain;
            self.selected.push(v);
        }
    }

    /// Connected-mode insertion: gain, membership, frontier maintenance.
    fn push_member(&mut self, g: &SocialGraph, v: NodeId) {
        debug_assert!(!self.members.contains(v.index()));
        self.willingness += marginal_gain(g, &self.members, v);
        self.members.insert(v.index());
        self.selected.push(v);
        self.frontier.remove(v);
        for &j in g.neighbors(v) {
            let cand = NodeId(j);
            if !self.members.contains(j as usize) && !self.is_blocked(cand) {
                self.frontier.insert(cand);
            }
        }
    }

    /// Current partial solution, in insertion order.
    pub fn selected(&self) -> &[NodeId] {
        &self.selected
    }

    /// Current candidate set.
    pub fn frontier(&self) -> &Frontier {
        &self.frontier
    }

    /// Membership bit set of `VS`.
    pub fn members(&self) -> &BitSet {
        &self.members
    }

    /// Running willingness `W(VS)`.
    pub fn willingness(&self) -> f64 {
        self.willingness
    }

    /// Size of `VS`.
    pub fn len(&self) -> usize {
        self.selected.len()
    }

    /// `true` before seeding.
    pub fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }

    /// Marginal gain of a candidate (Δ of Eq. 1).
    #[inline]
    pub fn gain(&self, g: &SocialGraph, v: NodeId) -> f64 {
        marginal_gain(g, &self.members, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::willingness::willingness;
    use waso_graph::GraphBuilder;

    fn diamond() -> SocialGraph {
        // 0-1, 0-2, 1-3, 2-3 with distinct scores.
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..4).map(|i| b.add_node((i + 1) as f64)).collect();
        b.add_edge_symmetric(ids[0], ids[1], 0.5).unwrap();
        b.add_edge_symmetric(ids[0], ids[2], 1.0).unwrap();
        b.add_edge_symmetric(ids[1], ids[3], 2.0).unwrap();
        b.add_edge_symmetric(ids[2], ids[3], 4.0).unwrap();
        b.build()
    }

    #[test]
    fn frontier_insert_remove_swap() {
        let mut f = Frontier::new(10);
        assert!(f.insert(NodeId(3)));
        assert!(f.insert(NodeId(7)));
        assert!(f.insert(NodeId(5)));
        assert!(!f.insert(NodeId(3)), "duplicate insert is a no-op");
        assert_eq!(f.len(), 3);
        assert!(f.remove(NodeId(3))); // head removal exercises swap path
        assert!(!f.contains(NodeId(3)));
        assert!(f.contains(NodeId(5)) && f.contains(NodeId(7)));
        assert!(!f.remove(NodeId(9)));
        // Position map still consistent: every item reachable by index.
        let mut got: Vec<u32> = (0..f.len()).map(|i| f.item(i).0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![5, 7]);
    }

    #[test]
    fn frontier_clear_is_reusable() {
        let mut f = Frontier::new(5);
        for v in 0..5u32 {
            f.insert(NodeId(v));
        }
        f.clear();
        assert!(f.is_empty());
        assert!(f.insert(NodeId(2)));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn seeded_growth_tracks_willingness_and_frontier() {
        let g = diamond();
        let mut ws = GrowthWorkspace::new(4);
        ws.seed(&g, NodeId(0));
        assert_eq!(ws.willingness(), 1.0);
        assert_eq!(ws.frontier().len(), 2); // neighbours 1, 2

        ws.add(&g, NodeId(1));
        // Δ = η_1 + pw(0,1) = 2 + 1 = 3.
        assert_eq!(ws.willingness(), 4.0);
        assert!(ws.frontier().contains(NodeId(3)));
        assert!(ws.frontier().contains(NodeId(2)));
        assert_eq!(ws.frontier().len(), 2);

        ws.add(&g, NodeId(3));
        // Δ = 4 + pw(1,3) = 4 + 4 = 8.
        assert_eq!(ws.willingness(), 12.0);
        assert_eq!(
            ws.willingness(),
            willingness(&g, &[NodeId(0), NodeId(1), NodeId(3)])
        );
    }

    #[test]
    #[should_panic(expected = "not a candidate")]
    fn adding_non_candidate_panics() {
        let g = diamond();
        let mut ws = GrowthWorkspace::new(4);
        ws.seed(&g, NodeId(0));
        ws.add(&g, NodeId(3)); // not adjacent to 0
    }

    #[test]
    fn reset_allows_reuse_without_leaks() {
        let g = diamond();
        let mut ws = GrowthWorkspace::new(4);
        ws.seed(&g, NodeId(0));
        ws.add(&g, NodeId(2));
        ws.reset();
        assert!(ws.is_empty());
        assert_eq!(ws.willingness(), 0.0);
        assert!(ws.members().is_empty());
        assert!(ws.frontier().is_empty());
        // Grows again cleanly.
        ws.seed(&g, NodeId(3));
        ws.add(&g, NodeId(2));
        assert_eq!(ws.willingness(), willingness(&g, &[NodeId(2), NodeId(3)]));
    }

    #[test]
    fn free_growth_offers_all_nodes() {
        let g = diamond();
        let mut ws = GrowthWorkspace::new(4);
        ws.seed_free(&g, NodeId(0));
        assert_eq!(ws.frontier().len(), 3);
        ws.add(&g, NodeId(3)); // not adjacent to 0 — allowed in free mode
        assert_eq!(ws.willingness(), willingness(&g, &[NodeId(0), NodeId(3)]));
        // Frontier no longer offers 3.
        assert!(!ws.frontier().contains(NodeId(3)));
        // Adding an adjacent node still counts its edges.
        ws.add(&g, NodeId(1));
        assert_eq!(
            ws.willingness(),
            willingness(&g, &[NodeId(0), NodeId(1), NodeId(3)])
        );
    }

    #[test]
    fn blocked_nodes_never_become_candidates() {
        let g = diamond();
        let mut ws = GrowthWorkspace::new(4);
        let mut blocked = BitSet::new(4);
        blocked.insert(2);
        ws.set_blocked(Some(blocked));
        ws.seed(&g, NodeId(0));
        assert!(!ws.frontier().contains(NodeId(2)));
        assert_eq!(ws.frontier().len(), 1);
        ws.add(&g, NodeId(1));
        assert!(!ws.frontier().contains(NodeId(2)));

        // Free mode respects blocking too.
        ws.reset();
        ws.seed_free(&g, NodeId(0));
        assert_eq!(ws.frontier().len(), 2); // 1 and 3, not blocked 2
    }

    #[test]
    fn seed_set_matches_sequential_growth() {
        let g = diamond();
        let mut ws = GrowthWorkspace::new(4);
        ws.seed_set(&g, &[NodeId(0), NodeId(1)]);
        assert_eq!(ws.willingness(), willingness(&g, &[NodeId(0), NodeId(1)]));
        // Frontier = neighbours of {0,1} minus members = {2, 3}.
        assert_eq!(ws.frontier().len(), 2);
        assert!(ws.frontier().contains(NodeId(2)));
        assert!(ws.frontier().contains(NodeId(3)));
        ws.add(&g, NodeId(3));
        assert_eq!(
            ws.willingness(),
            willingness(&g, &[NodeId(0), NodeId(1), NodeId(3)])
        );
    }

    #[test]
    #[should_panic(expected = "duplicate seed")]
    fn seed_set_rejects_duplicates() {
        let g = diamond();
        let mut ws = GrowthWorkspace::new(4);
        ws.seed_set(&g, &[NodeId(0), NodeId(0)]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        proptest! {
            /// The frontier behaves exactly like a set under arbitrary
            /// insert/remove interleavings, and indexed access always
            /// covers precisely the current membership.
            #[test]
            fn frontier_matches_reference_set(
                ops in proptest::collection::vec((0u32..64, any::<bool>()), 0..200),
            ) {
                let mut f = Frontier::new(64);
                let mut reference = BTreeSet::new();
                for (v, insert) in ops {
                    let before = f.items().to_vec();
                    if insert {
                        let fresh = reference.insert(v);
                        prop_assert_eq!(f.insert(NodeId(v)), fresh);
                        if fresh {
                            // Appended: every earlier slot is unchanged.
                            prop_assert_eq!(&f.items()[..before.len()], &before[..]);
                            prop_assert_eq!(f.items().last(), Some(&v));
                        } else {
                            prop_assert_eq!(f.items(), &before[..]);
                        }
                    } else {
                        let slot = before.iter().position(|&x| x == v);
                        prop_assert_eq!(f.remove(NodeId(v)), reference.remove(&v));
                        match slot {
                            // Swap-remove: slots `..s` unchanged, the old
                            // last candidate now fills slot `s`.
                            Some(s) => {
                                prop_assert_eq!(&f.items()[..s], &before[..s]);
                                let last = before[before.len() - 1];
                                if s + 1 < before.len() {
                                    prop_assert_eq!(f.items()[s], last);
                                    prop_assert_eq!(&f.items()[s + 1..], &before[s + 1..before.len() - 1]);
                                }
                            }
                            None => prop_assert_eq!(f.items(), &before[..]),
                        }
                    }
                    prop_assert_eq!(f.len(), reference.len());
                }
                let mut via_index: Vec<u32> =
                    (0..f.len()).map(|i| f.item(i).0).collect();
                via_index.sort_unstable();
                let expect: Vec<u32> = reference.into_iter().collect();
                prop_assert_eq!(via_index, expect);
            }

            /// Random connected growth keeps the incremental willingness in
            /// lockstep with a from-scratch evaluation.
            #[test]
            fn incremental_willingness_matches_full(
                seed in 0u64..5_000,
                steps in 1usize..8,
            ) {
                use rand::rngs::StdRng;
                use rand::{RngExt, SeedableRng};
                let g = waso_graph::generate::grid_topology(4, 4).into_unit_graph();
                let mut ws = GrowthWorkspace::new(16);
                let mut rng = StdRng::seed_from_u64(seed);
                ws.seed(&g, NodeId(rng.random_range(0..16)));
                for _ in 0..steps {
                    if ws.frontier().is_empty() {
                        break;
                    }
                    let idx = rng.random_range(0..ws.frontier().len());
                    let pick = ws.frontier().item(idx);
                    ws.add(&g, pick);
                }
                let full = willingness(&g, ws.selected());
                prop_assert!((ws.willingness() - full).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn gain_previews_without_mutation() {
        let g = diamond();
        let mut ws = GrowthWorkspace::new(4);
        ws.seed(&g, NodeId(0));
        let before = ws.willingness();
        let predicted = ws.gain(&g, NodeId(2));
        ws.add(&g, NodeId(2));
        assert_eq!(before + predicted, ws.willingness());
    }
}
