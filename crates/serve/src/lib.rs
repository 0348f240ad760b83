//! # waso-serve — a multi-tenant serving front door for WASO solves
//!
//! This crate turns the [`waso::WasoSession`] job-handle API into a
//! network service: one process holds one session (one graph, one
//! process-wide `SharedPool`), and any number of **tenants** submit
//! solver specs over a tiny length-prefixed text protocol
//! ([`protocol`]). The server owns the policy the session deliberately
//! does not:
//!
//! * **admission control** — unknown tenants and unbuildable specs are
//!   refused with typed codes before any work happens;
//! * **quotas** — each tenant is capped at a configured number of
//!   inflight jobs ([`TenantConfig::max_inflight`] → `ERR QUOTA`);
//! * **fairness** — queued jobs are dispatched round-robin across
//!   tenants, so one flooding tenant cannot starve the rest;
//! * **load shedding** — past a configurable queue depth new
//!   submissions get `ERR SHED` instead of an ever-growing queue;
//! * **submit-anchored deadlines** — a spec's `deadline_from_submit=`
//!   is armed against the admission timestamp, so time queued behind
//!   other tenants counts against the SLA.
//!
//! Everything the solvers guarantee survives the front door: solves
//! are pure functions of `(instance, spec, seed)`, so a `DONE` response
//! is bit-identical to the same solve made directly on the session, no
//! matter how many tenants interleave (pinned by `tests/serving.rs`).
//!
//! ```no_run
//! use waso::prelude::*;
//! use waso_serve::{Client, ServeConfig, Server, TenantConfig};
//!
//! // Server process: one graph, two tenants, width-2 dispatch.
//! let graph = waso_datasets::synthetic::facebook_like_n(200, 3);
//! let session = WasoSession::new(graph).k(6).seed(42);
//! let config = ServeConfig::new(vec![
//!     TenantConfig::new("alice", 4),
//!     TenantConfig::new("bob", 2),
//! ]);
//! let mut server = Server::start(session, config);
//! let addr = server.listen("127.0.0.1:0").unwrap();
//!
//! // Client process: submit, then block for the result.
//! let mut client = Client::connect(addr).unwrap();
//! let job = match client.submit("alice", "cbas-nd:budget=500,stages=5").unwrap() {
//!     waso_serve::protocol::Response::Job(id) => id,
//!     other => panic!("refused: {other}"),
//! };
//! let done = client.wait(job).unwrap();
//! println!("{done}");
//! ```

pub mod protocol;
pub mod server;
pub mod tenant;

pub use protocol::{ErrCode, Request, Response, StatsReply};
pub use server::{Client, ServeConfig, Server};
pub use tenant::TenantConfig;
