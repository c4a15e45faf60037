//! # PS3: Approximate Partition Selection using Summary Statistics
//!
//! A from-scratch Rust implementation of PS3 (Rong et al., VLDB 2020):
//! approximate query processing that answers single-table aggregation queries
//! by reading a *weighted subset of data partitions* chosen from cheap
//! per-partition summary statistics.
//!
//! This umbrella crate re-exports the full workspace API. The typical flow:
//!
//! 1. Build a partitioned table ([`storage`]) — or generate one of the four
//!    evaluation datasets ([`data`]).
//! 2. Construct per-partition summary statistics ([`stats`], backed by the
//!    sketches in [`sketch`]).
//! 3. Train a [`core::Ps3System`] on a workload specification.
//! 4. Answer queries at a chosen partition budget and compare against the
//!    exact answer ([`query`]). The query path is `&self`: wrap the trained
//!    system in an `Arc` and serve it from as many threads as you like
//!    (see [`core::router::Router`]: `answer_now` for a synchronous cached
//!    answer, tenants for the multi-table front end with request-queue
//!    backpressure, single-flight coalescing and `replace_table`, the one
//!    way to swap a table's system in place);
//!    per-request seeds make every answer reproducible.
//! 5. Serve it over the network ([`net`]): a versioned binary wire
//!    protocol (`docs/PROTOCOL.md`) in front of an event-loop TCP server
//!    feeding the router — wire answers are bit-identical to in-process
//!    calls for the same `(table, query, method, budget, seed)`.
//!
//! ```no_run
//! use ps3::data::{DatasetConfig, DatasetKind, ScaleProfile};
//! use ps3::core::{Method, Ps3Config};
//!
//! // A tiny Aria-like telemetry dataset (64 partitions).
//! let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(7);
//! let system = ds.train_system(Ps3Config::default().with_seed(7));
//! let query = ds.sample_test_query(0);
//! let exact = system.exact_answer(&query);
//! let approx = system.answer_seeded(&query, Method::Ps3, 0.25, 7);
//! let err = ps3::query::metrics::avg_relative_error(&exact, &approx.answer);
//! assert!(err < 1.0, "avg relative error {err} too large");
//! ```

pub use ps3_cluster as cluster;
pub use ps3_core as core;
pub use ps3_data as data;
pub use ps3_learn as learn;
pub use ps3_net as net;
pub use ps3_query as query;
pub use ps3_runtime as runtime;
pub use ps3_sketch as sketch;
pub use ps3_stats as stats;
pub use ps3_storage as storage;
