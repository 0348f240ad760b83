//! # waso-core
//!
//! The WASO problem core (§2 of the paper).
//!
//! * [`WasoInstance`] — a validated problem instance: a scored
//!   [`waso_graph::SocialGraph`], a group size `k`, and whether the
//!   connectivity constraint applies;
//! * [`willingness()`] — the objective `W(F) = Σ_i (η_i + Σ_j τ_{i,j})`
//!   (Eq. 1), in full and incremental (marginal-gain) form;
//! * [`Group`] — a validated solution with its willingness;
//! * [`fingerprint`] — incrementally-updatable structural digests of an
//!   instance (kept for the benchmark's layer probes only);
//! * [`frontier`] — the `VS`/`VA` growth machinery shared by every solver:
//!   a partial solution plus the candidate set of nodes neighbouring it,
//!   with O(1) uniform sampling and running willingness;
//! * [`scenario`] — the §2.2 parameterizations: couples, foes, invitation,
//!   exhibition, house-warming, and the separate-groups (WASO-dis)
//!   virtual-node reduction of Theorem 2.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod fingerprint;
pub mod frontier;
pub mod instance;
pub mod scenario;
pub mod solution;
pub mod willingness;

pub use error::CoreError;
pub use fingerprint::InstanceFingerprint;
pub use frontier::{Frontier, GrowthWorkspace};
pub use instance::WasoInstance;
pub use solution::Group;
pub use willingness::{marginal_gain, willingness, willingness_of_members};
