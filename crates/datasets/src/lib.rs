//! # waso-datasets
//!
//! The evaluation's data substrate (§5.1–5.2), rebuilt synthetically.
//!
//! The paper evaluates on three crawled networks — Facebook New Orleans
//! (90,269 users), DBLP (511,163 nodes / 1,871,070 edges) and Flickr
//! (1,846,198 nodes / 22,613,981 edges) — none of which are
//! redistributable. [`synthetic`] regenerates their statistical shape
//! (size, mean degree, heavy tails, clustering regime) and applies the
//! paper's score models (power-law interests β = 2.5, common-neighbour
//! tightness). [`userstudy`] replaces the 137-participant Facebook study
//! with a calibrated bounded-rationality simulation (see DESIGN.md §3 for
//! both substitution arguments).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod external;
pub mod synthetic;
pub mod userstudy;

pub use external::{load_edge_list, ExternalDataset};
pub use synthetic::{dblp_like, facebook_like, flickr_like, DatasetSpec, Scale};
pub use userstudy::{ManualOutcome, ManualPlanner, ManualPlannerConfig, Opinion};
