//! The network serving front door: a wire protocol, an event-loop TCP
//! server, and a blocking client over the PS3
//! [`Router`](ps3_core::router::Router).
//!
//! This crate turns the in-process multi-tenant router into a cluster
//! service. The layers, bottom to top:
//!
//! - [`proto`] — the length-prefixed, versioned binary protocol: a
//!   request carries a table route, a serialized query, and the
//!   `(method, budget, seed)` triple that makes every answer
//!   deterministic, where the budget is typed (an explicit fraction or a
//!   declarative error/latency target for the server's planner); a
//!   response carries the answer itself, execution stats, and the answer's
//!   error estimate; progressive requests stream refining partial frames;
//!   errors are typed. Zero external dependencies; byte layout documented
//!   in `docs/PROTOCOL.md` and pinned by doc-tests.
//! - [`server`] — a sharded non-blocking front door: `net_shards`
//!   independent event loops (readiness `poll(2)` via
//!   [`ps3_runtime::poll`], each a detached
//!   [`ThreadPool`](ps3_runtime::ThreadPool) task owning a disjoint set of
//!   connections, with accepted sockets handed round-robin from the
//!   listener shard). Each loop parses frames, submits through
//!   per-connection [`Tenant`](ps3_core::router::Tenant) handles — so the
//!   router's backpressure and quota semantics apply on the wire — and
//!   batches responses out as tickets complete, woken by each ticket's
//!   completion hook. Sockets are read and written through `std`'s
//!   `Read`/`Write` (one vectored gather write per connection per wakeup).
//! - [`client`] — a blocking connection with a synchronous
//!   [`request`](client::NetClient::request) path and a pipelined
//!   [`send`](client::NetClient::send)/[`recv`](client::NetClient::recv)
//!   pair; queued sends coalesce into one write.
//!
//! The determinism contract extends across the wire: the answer to
//! `(table, query, method, planned frac, seed)` served over TCP is
//! bit-identical to a direct in-process `Ps3System::answer_spec_on` call with
//! the same tuple (`tests/net_serving.rs` proves it with 8 concurrent
//! clients), and a progressive request's final frame is bit-identical to
//! the one-shot answer.
//!
//! ```no_run
//! use std::sync::Arc;
//! use ps3_core::{QueryRequest, Router};
//! use ps3_net::{NetClient, NetServer};
//! # fn trained_system() -> Arc<ps3_core::Ps3System> { unimplemented!() }
//! # fn some_query() -> ps3_query::Query { unimplemented!() }
//!
//! let router = Router::builder().table("events", trained_system()).build();
//! let server = NetServer::bind(Arc::clone(&router), "127.0.0.1:0")?;
//!
//! let mut client = NetClient::connect(server.addr())?;
//! // Declarative error budget: the server's planner picks the fraction.
//! let answer = client
//!     .request(
//!         &QueryRequest::ps3(some_query(), 0.1, 7)
//!             .on_table("events")
//!             .with_error_target(0.05),
//!     )
//!     .expect("served");
//! println!(
//!     "{} groups from {} partitions at frac {} (rel err {})",
//!     answer.answer.num_groups(),
//!     answer.meta.partitions_read,
//!     answer.meta.planned_frac,
//!     answer.meta.error_estimate.rel_err,
//! );
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod client;
#[cfg(unix)]
mod outbuf;
pub mod proto;
#[cfg(unix)]
pub mod server;

pub use client::{ClientError, NetClient, RemoteAnswer, ServerReply, StreamedAnswer};
pub use proto::{ErrorCode, ErrorFrame, Frame, ProtoError, PROTO_VERSION};
#[cfg(unix)]
pub use server::{NetServer, ServerConfig, ServerStats};

/// Binds `docs/PROTOCOL.md` into the doc-test suite: the worked byte-level
/// examples in that document are executable, so `cargo test` fails if the
/// documented bytes ever drift from what [`proto`] actually encodes.
#[doc = include_str!("../../../docs/PROTOCOL.md")]
#[cfg(doctest)]
pub struct ProtocolDocTests;
