//! The workspace's serving runtime: the sanctioned fan-out primitive and
//! shared concurrent caches.
//!
//! Before this crate, three call sites hand-rolled their own
//! `std::thread::scope` fan-outs (statistics construction, training-workload
//! execution, bench-cache building) and the query path could not be shared
//! across threads at all. [`ThreadPool`] replaces all of them with one
//! pool whose workers share a single [`RequestQueue`] of tasks (this
//! workspace builds with no crates.io access, so no crossbeam) — and
//! [`SharedLru`] provides the bounded feature cache the serving layer
//! keys by predicate fingerprint.
//!
//! Design rules for the rest of the workspace:
//!
//! - **No `std::thread::scope` outside this crate.** Parallel loops go
//!   through [`ThreadPool::scope_map`] / [`fan_out`], which preserve item
//!   order (so parallel and serial runs are bit-identical) and propagate
//!   worker panics to the caller.
//! - Blocking inside a pool task is safe: waiters *help* — they take and
//!   run queued tasks while their own scope drains — so nested fan-outs
//!   cannot deadlock the pool.
//!
//! The serving front end adds admission-control and coalescing primitives
//! on top: [`RequestQueue`] — the crate's one FIFO queue, under the pool
//! too — a bounded MPMC queue whose `submit`/`try_submit` give producers
//! capacity-based backpressure and whose `close` drains accepted work
//! before reporting empty; [`Semaphore`], whose owned [`Permit`]s cap
//! each tenant's in-flight requests; and [`SingleFlight`], which collapses
//! concurrent identical computations into one leader run that every racer
//! shares. All are thread-owning-free:
//! consumers run wherever the caller points them (in practice, detached
//! [`ThreadPool::spawn`] tasks).
//!
//! The network front door rests on the [`poll`] module (Unix only):
//! [`poll::poll_fds`], a safe wrapper over the `poll(2)` readiness
//! syscall, and [`poll::Waker`], a self-pipe that interrupts a blocking
//! poll from another thread — the plumbing `ps3_net`'s event loop is built
//! from, kept here so this crate remains the only one that touches the OS
//! below `std`. The loop reads and writes its sockets through `std`'s own
//! `Read`/`Write`; only readiness needs a hand-declared syscall. [`release_free_heap`] is the same kind of thing for the
//! allocator: the one call that hands freed heap pages back to the OS, made
//! where a process turns from loading tables to serving them.

#![warn(missing_docs)]

pub mod heap;
pub mod lru;
pub mod poll;
pub mod pool;
pub mod queue;
pub mod sync;

pub use heap::release_free_heap;
pub use lru::{CacheStats, LruCache, SharedLru};
#[cfg(unix)]
pub use poll::{poll_fds, Interest, PollEntry, Waker};
pub use pool::{fan_out, panic_message, ThreadPool};
pub use queue::{RequestQueue, SubmitError};
pub use sync::{Flight, Mailbox, Permit, Semaphore, SingleFlight};

use std::sync::OnceLock;

/// Whether `PS3_STRICT_KERNELS=1` is set: every optimised kernel with a
/// scalar oracle twin — k-means in `ps3_cluster`, selectivity estimation in
/// `ps3_stats` — re-runs the oracle in-call and asserts bit-identity. Read
/// once per process; off by default, since it doubles the work. (The GBDT
/// split search in `ps3_learn`, which does not depend on this crate, reads
/// the same variable itself.)
pub fn strict_kernels() -> bool {
    static STRICT: OnceLock<bool> = OnceLock::new();
    *STRICT.get_or_init(|| std::env::var("PS3_STRICT_KERNELS").is_ok_and(|v| v == "1"))
}
