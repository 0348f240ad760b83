//! Graph mutations — the write path of an online replanning session.
//!
//! A [`GraphDelta`] names one local change to a [`SocialGraph`]: an
//! edge appears or disappears, a directed tightness pair is re-weighted,
//! or a node's interest score drifts. [`GraphDelta::apply`] produces the
//! mutated graph (the CSR is immutable, so application rebuilds it from
//! the surviving edges — `O(n + m)`, bit-exact for every untouched
//! weight). A session that applies a delta drops every memo entry of the
//! pre-delta graph.
//!
//! Deltas never add or remove *nodes*: the node-count, and therefore
//! every `NodeId`, is stable across application. That is what makes
//! cached groups from before a delta comparable to the graph after it.

use crate::builder::GraphBuilder;
use crate::csr::{NodeId, SocialGraph};

/// One local mutation of a [`SocialGraph`].
#[derive(Debug, Clone, PartialEq)]
pub enum GraphDelta {
    /// A new friendship: adds the undirected edge `{u, v}` with the
    /// directed tightness values `tau_uv` (u toward v) and `tau_vu`.
    AddEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// Tightness of `u` toward `v`.
        tau_uv: f64,
        /// Tightness of `v` toward `u`.
        tau_vu: f64,
    },
    /// A lapsed friendship: removes the undirected edge `{u, v}`.
    RemoveEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// A drifted interest score: node `v`'s interest becomes `interest`.
    SetInterest {
        /// The node whose interest changes.
        v: NodeId,
        /// The new interest score η_v.
        interest: f64,
    },
    /// Re-weighted tightness on the existing edge `{u, v}`.
    SetTightness {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// New tightness of `u` toward `v`.
        tau_uv: f64,
        /// New tightness of `v` toward `u`.
        tau_vu: f64,
    },
}

/// Why a delta could not be applied. Typed — never panicked — so a
/// serving process survives user-supplied deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// An endpoint is not a node of the graph.
    UnknownNode(u32),
    /// Both endpoints are the same node.
    SelfLoop(u32),
    /// [`GraphDelta::AddEdge`] named an edge that already exists.
    EdgeExists(u32, u32),
    /// [`GraphDelta::RemoveEdge`] / [`GraphDelta::SetTightness`] named
    /// an edge that does not exist.
    MissingEdge(u32, u32),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::UnknownNode(v) => write!(f, "delta names unknown node {v}"),
            DeltaError::SelfLoop(v) => write!(f, "delta names a self-loop at node {v}"),
            DeltaError::EdgeExists(u, v) => {
                write!(f, "edge ({u}, {v}) already exists; use SetTightness")
            }
            DeltaError::MissingEdge(u, v) => write!(f, "edge ({u}, {v}) does not exist"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl GraphDelta {
    /// Validates this delta against `g` without applying it.
    pub fn validate(&self, g: &SocialGraph) -> Result<(), DeltaError> {
        let n = g.num_nodes() as u32;
        let check = |v: NodeId| -> Result<(), DeltaError> {
            if v.0 >= n {
                Err(DeltaError::UnknownNode(v.0))
            } else {
                Ok(())
            }
        };
        match *self {
            GraphDelta::AddEdge { u, v, .. } => {
                check(u)?;
                check(v)?;
                if u == v {
                    return Err(DeltaError::SelfLoop(u.0));
                }
                if g.has_edge(u, v) {
                    return Err(DeltaError::EdgeExists(u.0, v.0));
                }
            }
            GraphDelta::RemoveEdge { u, v } | GraphDelta::SetTightness { u, v, .. } => {
                check(u)?;
                check(v)?;
                if u == v {
                    return Err(DeltaError::SelfLoop(u.0));
                }
                if !g.has_edge(u, v) {
                    return Err(DeltaError::MissingEdge(u.0, v.0));
                }
            }
            GraphDelta::SetInterest { v, .. } => check(v)?,
        }
        Ok(())
    }

    /// Applies this delta to `g`, returning the mutated graph.
    ///
    /// Every weight the delta does not name is carried over bit-exact,
    /// so repeated application interleaved with solves stays on the
    /// determinism contract: `apply` then solve equals rebuilding the
    /// graph from scratch then solving.
    pub fn apply(&self, g: &SocialGraph) -> Result<SocialGraph, DeltaError> {
        self.validate(g)?;
        let n = g.num_nodes();
        let mut b = GraphBuilder::with_capacity(n, g.num_edges() + 1);
        for v in g.node_ids() {
            let eta = match *self {
                GraphDelta::SetInterest { v: t, interest } if t == v => interest,
                _ => g.interest(v),
            };
            b.add_node(eta);
        }
        for (a, c, tau_ac, tau_ca) in g.undirected_edges() {
            match *self {
                GraphDelta::RemoveEdge { u, v } if same_edge(u, v, a, c) => continue,
                GraphDelta::SetTightness {
                    u,
                    v,
                    tau_uv,
                    tau_vu,
                } if same_edge(u, v, a, c) => {
                    // `undirected_edges` yields a < c; orient the new
                    // directed values to match.
                    let (fwd, back) = if u == a {
                        (tau_uv, tau_vu)
                    } else {
                        (tau_vu, tau_uv)
                    };
                    push_edge(&mut b, a, c, fwd, back);
                }
                _ => push_edge(&mut b, a, c, tau_ac, tau_ca),
            }
        }
        if let GraphDelta::AddEdge {
            u,
            v,
            tau_uv,
            tau_vu,
        } = *self
        {
            push_edge(&mut b, u, v, tau_uv, tau_vu);
        }
        Ok(b.try_build().unwrap_or_else(|e| {
            // Validation above rules out every builder error
            // (unknown nodes, self-loops, duplicate edges).
            unreachable!("validated delta failed to build: {e}")
        }))
    }
}

/// `{u, v}` names the same undirected edge as `{a, c}`.
#[inline]
fn same_edge(u: NodeId, v: NodeId, a: NodeId, c: NodeId) -> bool {
    (u == a && v == c) || (u == c && v == a)
}

/// Adds an edge already validated against the source graph.
fn push_edge(b: &mut GraphBuilder, u: NodeId, v: NodeId, tau_uv: f64, tau_vu: f64) {
    b.add_edge(u, v, tau_uv, tau_vu)
        .unwrap_or_else(|e| unreachable!("validated edge failed to insert: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> SocialGraph {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node(0.1);
        let v1 = b.add_node(0.2);
        let v2 = b.add_node(0.3);
        b.add_edge(v0, v1, 0.5, 0.6).unwrap();
        b.add_edge(v1, v2, 0.7, 0.8).unwrap();
        b.build()
    }

    #[test]
    fn add_edge_inserts_both_directions() {
        let g = path3();
        let d = GraphDelta::AddEdge {
            u: NodeId(2),
            v: NodeId(0),
            tau_uv: 0.25,
            tau_vu: 0.75,
        };
        let g2 = d.apply(&g).unwrap();
        assert_eq!(g2.num_edges(), 3);
        assert_eq!(g2.tightness(NodeId(2), NodeId(0)), Some(0.25));
        assert_eq!(g2.tightness(NodeId(0), NodeId(2)), Some(0.75));
        // Untouched weights are carried over bit-exact.
        assert_eq!(g2.tightness(NodeId(0), NodeId(1)), Some(0.5));
        assert_eq!(g2.tightness(NodeId(1), NodeId(0)), Some(0.6));
    }

    #[test]
    fn remove_and_retighten() {
        let g = path3();
        let g2 = GraphDelta::RemoveEdge {
            u: NodeId(2),
            v: NodeId(1),
        }
        .apply(&g)
        .unwrap();
        assert_eq!(g2.num_edges(), 1);
        assert!(!g2.has_edge(NodeId(1), NodeId(2)));

        // SetTightness given in reverse endpoint order still orients
        // the directed values correctly.
        let g3 = GraphDelta::SetTightness {
            u: NodeId(1),
            v: NodeId(0),
            tau_uv: 0.9,
            tau_vu: 0.1,
        }
        .apply(&g)
        .unwrap();
        assert_eq!(g3.tightness(NodeId(1), NodeId(0)), Some(0.9));
        assert_eq!(g3.tightness(NodeId(0), NodeId(1)), Some(0.1));
        assert_eq!(g3.tightness(NodeId(1), NodeId(2)), Some(0.7));
    }

    #[test]
    fn set_interest_touches_one_node() {
        let g = path3();
        let d = GraphDelta::SetInterest {
            v: NodeId(1),
            interest: 4.5,
        };
        let g2 = d.apply(&g).unwrap();
        assert_eq!(g2.interest(NodeId(1)), 4.5);
        assert_eq!(g2.interest(NodeId(0)), 0.1);
    }

    #[test]
    fn typed_errors_for_bad_deltas() {
        let g = path3();
        let bad = [
            (
                GraphDelta::SetInterest {
                    v: NodeId(9),
                    interest: 1.0,
                },
                DeltaError::UnknownNode(9),
            ),
            (
                GraphDelta::AddEdge {
                    u: NodeId(1),
                    v: NodeId(1),
                    tau_uv: 0.1,
                    tau_vu: 0.1,
                },
                DeltaError::SelfLoop(1),
            ),
            (
                GraphDelta::AddEdge {
                    u: NodeId(0),
                    v: NodeId(1),
                    tau_uv: 0.1,
                    tau_vu: 0.1,
                },
                DeltaError::EdgeExists(0, 1),
            ),
            (
                GraphDelta::RemoveEdge {
                    u: NodeId(0),
                    v: NodeId(2),
                },
                DeltaError::MissingEdge(0, 2),
            ),
        ];
        for (delta, err) in bad {
            assert_eq!(delta.apply(&g).unwrap_err(), err);
        }
    }
}
