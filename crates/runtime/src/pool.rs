//! The workspace thread pool, built only on `std` (this workspace vendors
//! its dependencies).
//!
//! Layout: one unbounded [`RequestQueue`] of tasks that every worker
//! `recv`s from, oldest first. A task is submitted on its own, so each
//! submission wakes one sleeping worker; workers sleep in the queue's
//! condvar and exit once [`Drop`] closes it and they have drained it.
//!
//! The structured entry point is [`ThreadPool::scope_map`]: fan `n`
//! index-addressed tasks out over the pool and return their results *in
//! index order*. The calling thread helps run queued tasks while it waits,
//! so nested `scope_map` calls from inside pool tasks make progress instead
//! of deadlocking, and a 1-worker pool still gets two executors.

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

use crate::queue::RequestQueue;

/// One task's result cell. Each scoped task writes its own slot exactly
/// once; the scope owner reads it only after the task's `Release` decrement
/// of the remaining-count has been observed, so access never overlaps.
struct Slot<T>(UnsafeCell<Option<T>>);

// SAFETY: disjoint slots are written by exactly one task each and read only
// after the scope barrier (see `scope_map`).
unsafe impl<T: Send> Sync for Slot<T> {}

/// A queued unit of work. Scoped tasks are lifetime-erased into `'static`
/// boxes; see the safety note in [`ThreadPool::scope_map`].
type Task = Box<dyn FnOnce() + Send + 'static>;

/// The thread pool. One long-lived instance ([`ThreadPool::global`]) serves
/// the whole workspace; dedicated pools are for benchmarks that pin a
/// worker count.
pub struct ThreadPool {
    queue: Arc<RequestQueue<Task>>,
    /// Lifetime count of tasks handed to `queue` — the pool hand-offs
    /// observable by callers deciding whether a hand-off is worth it.
    tasks_injected: AtomicU64,
    handles: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers (0 = available parallelism).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            thread::available_parallelism().map_or(4, usize::from)
        } else {
            threads
        };
        let queue = Arc::new(RequestQueue::<Task>::new(usize::MAX));
        let handles = (0..threads)
            .map(|w| {
                let queue = Arc::clone(&queue);
                thread::Builder::new()
                    .name(format!("ps3-pool-{w}"))
                    .spawn(move || {
                        while let Some(task) = queue.recv() {
                            task();
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            queue,
            tasks_injected: AtomicU64::new(0),
            handles,
        }
    }

    /// Queue one task, waking one sleeping worker.
    fn inject(&self, task: Task) {
        self.tasks_injected.fetch_add(1, Ordering::Relaxed);
        if self.queue.submit(task).is_err() {
            // Only `Drop` closes the queue, and it holds the pool exclusively.
            unreachable!("pool queue closed while the pool is in use");
        }
    }

    /// The process-wide pool, sized to available parallelism and created on
    /// first use. Never torn down.
    pub fn global() -> Arc<ThreadPool> {
        static GLOBAL: OnceLock<Arc<ThreadPool>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(ThreadPool::new(0))))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Lifetime count of tasks handed to the pool's queue.
    /// Inline-executed work (0- and 1-task scopes, serial fast paths) never
    /// increments it, which is exactly what makes it useful for asserting
    /// that a fast path really skipped the hand-off.
    pub fn tasks_injected(&self) -> u64 {
        self.tasks_injected.load(Ordering::Relaxed)
    }

    /// Run `f(0..n)` across the pool and return the results in index order
    /// (so parallel and serial runs produce identical output). The calling
    /// thread helps run queued tasks while waiting. A panic in any task is
    /// re-raised here after the whole scope has drained.
    pub fn scope_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![f(0)];
        }
        let slots: Vec<Slot<T>> = (0..n).map(|_| Slot(UnsafeCell::new(None))).collect();
        let remaining = AtomicUsize::new(n);
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        {
            let (f, remaining, panicked) = (&f, &remaining, &panicked);
            for (i, slot) in slots.iter().enumerate() {
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    match catch_unwind(AssertUnwindSafe(|| f(i))) {
                        Ok(v) => {
                            // SAFETY: task `i` is the only writer of slot
                            // `i`, and readers wait for the scope.
                            unsafe { *slot.0.get() = Some(v) };
                        }
                        Err(payload) => {
                            panicked.lock().unwrap().get_or_insert(payload);
                        }
                    }
                    remaining.fetch_sub(1, Ordering::Release);
                });
                // SAFETY: the borrows captured by `job` (f, slot, remaining,
                // panicked) live on this stack frame, and this function does
                // not return — not even by panic — until `remaining` reaches
                // zero, i.e. until every task has finished running (`inject`
                // cannot fail while `&self` is borrowed). Erasing the
                // lifetime to queue the task on long-lived workers is
                // therefore sound.
                let task =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Task>(job) };
                self.inject(task);
            }

            // Help while waiting: drain whatever is queued (our own scope's
            // tasks, or an outer/inner scope's — either way progress).
            let mut spins = 0u32;
            while remaining.load(Ordering::Acquire) > 0 {
                match self.queue.try_recv() {
                    Some(task) => {
                        task();
                        spins = 0;
                    }
                    None => {
                        spins += 1;
                        if spins < 64 {
                            thread::yield_now();
                        } else {
                            thread::sleep(Duration::from_micros(50));
                        }
                    }
                }
            }
        }
        if let Some(payload) = panicked.into_inner().unwrap() {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.0
                    .into_inner()
                    .expect("completed task left its slot empty")
            })
            .collect()
    }

    /// Queue a detached `'static` task on the pool (the serving front end
    /// runs its queue pumps this way, so this crate stays the only one that
    /// owns threads). There is no handle to join; use [`Self::scope_map`]
    /// for structured work. A panicking task is caught and reported on
    /// stderr rather than killing the worker — long-running tasks that can
    /// fail should catch and route their own panics (the serving layer
    /// delivers them to the submitter's ticket).
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        let task: Task = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                eprintln!("ps3-pool: detached task panicked: {msg}");
            }
        });
        self.inject(task);
    }

    /// Parallel map over a slice, order-preserving.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.scope_map(items.len(), |i| f(&items[i]))
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Workers drain what is queued, then see the closed, empty queue.
        self.queue.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The workspace fan-out helper, honouring the `threads` convention used by
/// [`StatsConfig`](../../stats) and [`Ps3Config`](../../core): `1` runs
/// serially on the caller, anything else (including the 0 = "all cores"
/// default) goes through the shared global pool.
pub fn fan_out<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads == 1 || n <= 1 {
        (0..n).map(f).collect()
    } else {
        ThreadPool::global().scope_map(n, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_map_preserves_order() {
        let pool = ThreadPool::new(4);
        let out = pool.scope_map(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_over_slice() {
        let pool = ThreadPool::new(2);
        let items = vec!["a", "bb", "ccc"];
        assert_eq!(pool.map(&items, |s| s.len()), vec![1, 2, 3]);
    }

    #[test]
    fn single_worker_pool_still_completes() {
        let pool = ThreadPool::new(1);
        let out = pool.scope_map(32, |i| i + 1);
        assert_eq!(out.iter().sum::<usize>(), (1..=32).sum::<usize>());
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = ThreadPool::new(2);
        // 4 outer tasks each fanning out 8 inner tasks on the same pool:
        // workers block in the inner scope but help drain it.
        let out = pool.scope_map(4, |i| {
            pool.scope_map(8, |j| i * 8 + j).iter().sum::<usize>()
        });
        let total: usize = out.iter().sum();
        assert_eq!(total, (0..32).sum::<usize>());
    }

    #[test]
    fn panics_propagate_after_scope_drains() {
        let pool = ThreadPool::new(2);
        let done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope_map(16, |i| {
                if i == 7 {
                    panic!("task 7 exploded");
                }
                done.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // Every non-panicking task still ran to completion first.
        assert_eq!(done.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn global_pool_is_shared() {
        let a = ThreadPool::global();
        let b = ThreadPool::global();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.workers() >= 1);
        assert_eq!(a.scope_map(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn fan_out_serial_and_parallel_agree() {
        let serial = fan_out(1, 20, |i| i * 3);
        let parallel = fan_out(0, 20, |i| i * 3);
        assert_eq!(serial, parallel);
        assert!(fan_out(0, 0, |i| i).is_empty());
    }

    #[test]
    fn spawn_runs_detached_tasks_and_survives_their_panics() {
        use std::sync::mpsc;
        let pool = ThreadPool::new(2);
        pool.spawn(|| panic!("detached task panic must not kill the worker"));
        let (tx, rx) = mpsc::channel();
        for i in 0..8 {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).unwrap());
        }
        let mut got: Vec<i32> = (0..8)
            .map(|_| rx.recv_timeout(Duration::from_secs(10)).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        // The pool still handles structured work after the panic.
        assert_eq!(pool.scope_map(4, |i| i * 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn foreign_spawns_wake_a_sleeping_worker_every_round() {
        use std::sync::mpsc;
        // No timed re-poll backs the queue's condvar up, so every round's
        // task must be woken for: a lost wake-up stalls its round.
        for workers in [1, 4] {
            let pool = ThreadPool::new(workers);
            let (tx, rx) = mpsc::channel();
            let (ack_tx, ack_rx) = mpsc::channel::<()>();
            thread::scope(|s| {
                // Dropped if a round fails, so the foreign thread ends too.
                let ack_tx = ack_tx;
                let pool = &pool;
                s.spawn(move || {
                    for round in 0..2000u32 {
                        let tx = tx.clone();
                        pool.spawn(move || tx.send(round).unwrap());
                        if ack_rx.recv().is_err() {
                            return;
                        }
                    }
                });
                for round in 0..2000u32 {
                    let got = rx.recv_timeout(Duration::from_secs(2));
                    assert_eq!(got, Ok(round), "round {round} on {workers} workers");
                    ack_tx.send(()).unwrap();
                }
            });
        }
    }

    #[test]
    fn tasks_injected_counts_exactly_the_queued_tasks() {
        let pool = ThreadPool::new(2);
        for n in [0usize, 1, 2, 7, 64] {
            let before = pool.tasks_injected();
            assert_eq!(pool.scope_map(n, |i| i).len(), n);
            let queued = if n >= 2 { n as u64 } else { 0 };
            assert_eq!(pool.tasks_injected() - before, queued, "scope_map({n})");
        }
    }

    #[test]
    fn stress_many_small_tasks() {
        let pool = ThreadPool::new(3);
        for round in 0..20 {
            let out = pool.scope_map(257, |i| i + round);
            assert_eq!(out.len(), 257);
            assert_eq!(out[256], 256 + round);
        }
    }
}
