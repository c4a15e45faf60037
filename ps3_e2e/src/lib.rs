//! `ps3_e2e`: the socket-to-answer benchmark of the PS3 serving stack.
//!
//! One binary boots a real `NetServer` over a thawed artifact in-process,
//! drives it over loopback TCP from seeded request lists, verifies the
//! answers it got, and prints every metric of `BENCHMARK.json` by name and
//! unit. `README.md` beside this crate's manifest has the workload and
//! metric tables; `spec.rs` is their source of truth.

#![warn(missing_docs)]

pub mod drive;
pub mod fixture;
pub mod repeat;
pub mod report;
pub mod requests;
pub mod run;
pub mod spec;
pub mod speed;
pub mod summary;
pub mod trace;
pub mod verify;
