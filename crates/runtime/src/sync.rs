//! Serving-side synchronization primitives: a counting semaphore with RAII
//! permits, and single-flight request coalescing.
//!
//! A tenant's quota is a [`Semaphore`] of `max_in_flight` permits: a
//! request acquires a [`Permit`] at submission and carries it through the
//! queue; the permit drops (and the slot frees) when the request finishes
//! executing. Permits are *owned* (they keep the semaphore alive through an
//! `Arc`), so they can ride inside queued jobs across threads.
//!
//! [`SingleFlight`] deduplicates concurrent identical work: when N threads
//! race on the same key, one becomes the *leader* and computes while the
//! rest block and share the leader's result. The serving front end wraps
//! cold answer-cache misses in it so a stampede of identical requests
//! executes partition selection exactly once.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// A counting semaphore. Construct with [`Semaphore::new`], share as
/// `Arc<Semaphore>`, and acquire permits with [`Semaphore::acquire`] /
/// [`Semaphore::try_acquire`].
#[derive(Debug)]
pub struct Semaphore {
    available: Mutex<usize>,
    released: Condvar,
    cap: usize,
}

impl Semaphore {
    /// A semaphore with `permits` slots (`permits` ≥ 1 enforced).
    pub fn new(permits: usize) -> Self {
        let cap = permits.max(1);
        Self {
            available: Mutex::new(cap),
            released: Condvar::new(),
            cap,
        }
    }

    /// Acquire a permit, blocking until one is free.
    pub fn acquire(self: &Arc<Self>) -> Permit {
        let mut n = self.available.lock().unwrap();
        while *n == 0 {
            n = self.released.wait(n).unwrap();
        }
        *n -= 1;
        Permit {
            sem: Arc::clone(self),
        }
    }

    /// Acquire a permit only if one is free right now; never blocks.
    pub fn try_acquire(self: &Arc<Self>) -> Option<Permit> {
        let mut n = self.available.lock().unwrap();
        if *n == 0 {
            return None;
        }
        *n -= 1;
        Some(Permit {
            sem: Arc::clone(self),
        })
    }

    /// Permits currently free.
    pub fn available(&self) -> usize {
        *self.available.lock().unwrap()
    }

    /// Total permit count.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// An owned permit; dropping it returns the slot to the semaphore.
#[derive(Debug)]
pub struct Permit {
    sem: Arc<Semaphore>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut n = self.sem.available.lock().unwrap();
        *n += 1;
        drop(n);
        self.sem.released.notify_one();
    }
}

/// How a [`SingleFlight::run`] call obtained its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flight<V> {
    /// This caller was the leader: its closure ran and produced the value.
    Led(V),
    /// This caller joined an in-flight leader and shares its value; its own
    /// closure never ran.
    Joined(V),
}

impl<V> Flight<V> {
    /// The value, however it was obtained.
    pub fn into_value(self) -> V {
        match self {
            Flight::Led(v) | Flight::Joined(v) => v,
        }
    }

    /// True if this caller joined another caller's execution.
    pub fn was_joined(&self) -> bool {
        matches!(self, Flight::Joined(_))
    }
}

/// One in-flight computation: waiters block on `done` turning `Some`.
/// `Some(None)` means the leader panicked — waiters retry (and one of them
/// becomes the next leader) rather than inheriting an uncloneable panic.
#[derive(Debug)]
struct FlightState<V> {
    done: Mutex<Option<Option<V>>>,
    ready: Condvar,
}

impl<V> FlightState<V> {
    fn new() -> Self {
        Self {
            done: Mutex::new(None),
            ready: Condvar::new(),
        }
    }
}

/// Per-key single-flight execution: concurrent [`SingleFlight::run`] calls
/// with equal keys collapse into one closure run whose result every caller
/// shares. Keys are only tracked *while* a computation is in flight — this
/// is a coalescer, not a cache; pair it with one (the serving front end
/// checks its answer cache first and coalesces only the misses).
///
/// A panicking leader releases the key and resumes its panic in the leader
/// alone; waiters wake and retry, so a poisoned key never wedges.
#[derive(Debug)]
pub struct SingleFlight<K, V> {
    inflight: Mutex<HashMap<K, Arc<FlightState<V>>>>,
}

impl<K, V> Default for SingleFlight<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> SingleFlight<K, V> {
    /// An empty coalescer.
    pub fn new() -> Self {
        Self {
            inflight: Mutex::new(HashMap::new()),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> SingleFlight<K, V> {
    /// Number of callers attached to `key` right now (leader + waiters);
    /// 0 when nothing is in flight. Approximate by nature — callers attach
    /// and detach concurrently — but monotone while the leader is still
    /// computing, which is what the tests synchronize on.
    pub fn attached(&self, key: &K) -> usize {
        self.inflight
            .lock()
            .unwrap()
            .get(key)
            // The map's own Arc is not a caller.
            .map(|state| Arc::strong_count(state) - 1)
            .unwrap_or(0)
    }

    /// Run `compute` for `key`, or join an in-flight run of the same key
    /// and share its result. Exactly one closure runs per key per flight;
    /// the leader's panic resumes in the leader only (waiters retry).
    pub fn run(&self, key: K, compute: impl FnOnce() -> V) -> Flight<V> {
        let mut compute = Some(compute);
        loop {
            // `joined` carries the flight to wait on; the leader keeps the
            // Arc it inserted, so no second map lookup is ever needed.
            let (state, joined) = {
                let mut map = self.inflight.lock().unwrap();
                match map.entry(key.clone()) {
                    Entry::Occupied(e) => (Arc::clone(e.get()), true),
                    Entry::Vacant(e) => (Arc::clone(e.insert(Arc::new(FlightState::new()))), false),
                }
            };
            if joined {
                // Waiter: block until the leader reports.
                let mut done = state.done.lock().unwrap();
                while done.is_none() {
                    done = state.ready.wait(done).unwrap();
                }
                match done.as_ref().unwrap() {
                    Some(v) => return Flight::Joined(v.clone()),
                    // Leader panicked: release and retry (possibly
                    // becoming the leader ourselves).
                    None => continue,
                }
            }
            // Leader: we inserted the flight, so we must resolve it
            // whatever happens — a hung waiter would be worse than
            // re-raising the panic below.
            let result = catch_unwind(AssertUnwindSafe(compute.take().expect("leader runs once")));
            let shared = match &result {
                Ok(v) => Some(v.clone()),
                Err(_) => None,
            };
            *state.done.lock().unwrap() = Some(shared);
            state.ready.notify_all();
            self.inflight.lock().unwrap().remove(&key);
            match result {
                Ok(v) => return Flight::Led(v),
                Err(payload) => resume_unwind(payload),
            }
        }
    }
}

/// A batched inbox: producers [`Mailbox::push`] items, a single consumer
/// [`Mailbox::drain`]s them all at once. Producers pair each push with
/// their own wake-up of the consumer (the network event loop's poll
/// waker), and the consumer takes whole batches per loop iteration instead
/// of taking a lock per item.
pub struct Mailbox<T> {
    items: Mutex<Vec<T>>,
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for Mailbox<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mailbox").field("len", &self.len()).finish()
    }
}

impl<T> Mailbox<T> {
    /// An empty mailbox.
    pub fn new() -> Self {
        Self {
            items: Mutex::new(Vec::new()),
        }
    }

    /// Append an item.
    pub fn push(&self, item: T) {
        self.items.lock().unwrap().push(item);
    }

    /// Take every queued item, oldest first. Never blocks on producers —
    /// the lock covers only the vector swap.
    pub fn drain(&self) -> Vec<T> {
        std::mem::take(&mut *self.items.lock().unwrap())
    }

    /// Queued item count.
    pub fn len(&self) -> usize {
        self.items.lock().unwrap().len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn permits_bound_concurrency_and_release_on_drop() {
        let sem = Arc::new(Semaphore::new(2));
        let a = sem.acquire();
        let _b = sem.acquire();
        assert_eq!(sem.available(), 0);
        assert!(sem.try_acquire().is_none(), "no third permit");
        drop(a);
        assert_eq!(sem.available(), 1);
        assert!(sem.try_acquire().is_some());
    }

    #[test]
    fn acquire_blocks_until_a_permit_frees() {
        let sem = Arc::new(Semaphore::new(1));
        let held = sem.acquire();
        let t = {
            let sem = Arc::clone(&sem);
            thread::spawn(move || {
                let _p = sem.acquire();
                true
            })
        };
        thread::sleep(Duration::from_millis(20));
        drop(held);
        assert!(t.join().unwrap());
    }

    #[test]
    fn permits_travel_across_threads() {
        let sem = Arc::new(Semaphore::new(3));
        let permits: Vec<Permit> = (0..3).map(|_| sem.acquire()).collect();
        let t = thread::spawn(move || drop(permits));
        t.join().unwrap();
        assert_eq!(sem.available(), 3, "all permits returned");
    }

    #[test]
    fn single_flight_runs_serial_calls_independently() {
        let sf: SingleFlight<u32, u32> = SingleFlight::new();
        // No concurrency, no coalescing: each call leads its own flight.
        for i in 0..3 {
            match sf.run(7, || i * 10) {
                Flight::Led(v) => assert_eq!(v, i * 10),
                Flight::Joined(_) => panic!("serial calls cannot join anything"),
            }
        }
        assert_eq!(sf.attached(&7), 0, "no flight outlives its run");
    }

    #[test]
    fn stampede_on_one_key_computes_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sf: Arc<SingleFlight<u32, u64>> = Arc::new(SingleFlight::new());
        let computes = Arc::new(AtomicUsize::new(0));
        let waiters = 7usize;

        // The leader's closure spins until every waiter thread has attached
        // to the flight, so all of them *must* join this one computation —
        // the assertion below is deterministic, not a timing hope.
        let leader = {
            let sf = Arc::clone(&sf);
            let computes = Arc::clone(&computes);
            thread::spawn(move || {
                let out = sf.run(42, || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    while sf.attached(&42) < waiters + 1 {
                        thread::yield_now();
                    }
                    9000
                });
                assert!(matches!(out, Flight::Led(9000)));
            })
        };
        // Give the leader first claim on the key.
        while sf.attached(&42) == 0 {
            thread::yield_now();
        }
        let joiners: Vec<_> = (0..waiters)
            .map(|_| {
                let sf = Arc::clone(&sf);
                let computes = Arc::clone(&computes);
                thread::spawn(move || {
                    let out = sf.run(42, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        1 // would be wrong; must never run
                    });
                    assert!(matches!(out, Flight::Joined(9000)));
                })
            })
            .collect();
        leader.join().unwrap();
        for j in joiners {
            j.join().unwrap();
        }
        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "one leader, zero waiter computes"
        );
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sf: Arc<SingleFlight<u32, u32>> = Arc::new(SingleFlight::new());
        let threads: Vec<_> = (0..4)
            .map(|k| {
                let sf = Arc::clone(&sf);
                thread::spawn(move || sf.run(k, || k + 100).into_value())
            })
            .collect();
        let mut got: Vec<u32> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![100, 101, 102, 103]);
    }

    #[test]
    fn mailbox_batches_pushes_into_one_drain() {
        let mb: Mailbox<u32> = Mailbox::new();
        mb.push(1);
        mb.push(2);
        mb.push(3);
        assert_eq!(mb.len(), 3);
        assert_eq!(mb.drain(), vec![1, 2, 3], "oldest first");
        assert!(mb.is_empty());
        assert_eq!(mb.drain(), Vec::<u32>::new(), "second drain is empty");
    }

    #[test]
    fn mailbox_concurrent_pushes_all_arrive() {
        let mb: Arc<Mailbox<usize>> = Arc::new(Mailbox::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let mb = Arc::clone(&mb);
                thread::spawn(move || {
                    for i in 0..100 {
                        mb.push(t * 100 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut got = mb.drain();
        got.sort_unstable();
        assert_eq!(got, (0..400).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_leader_releases_the_key_and_waiters_retry() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let sf: Arc<SingleFlight<u32, u32>> = Arc::new(SingleFlight::new());

        // Leader panics once every waiter is attached, so the waiters are
        // provably parked on the poisoned flight when it dies.
        let waiter = {
            let sf = Arc::clone(&sf);
            thread::spawn(move || {
                while sf.attached(&5) == 0 {
                    thread::yield_now();
                }
                // Retries after the leader's panic and computes itself.
                sf.run(5, || 55)
            })
        };
        let blew_up = catch_unwind(AssertUnwindSafe(|| {
            sf.run(5, || {
                while sf.attached(&5) < 2 {
                    thread::yield_now();
                }
                panic!("leader exploded");
            })
        }));
        assert!(blew_up.is_err(), "the leader keeps its own panic");
        let recovered = waiter.join().unwrap();
        assert_eq!(recovered.into_value(), 55, "waiter recovered by retrying");
        assert_eq!(sf.attached(&5), 0, "poisoned flight fully released");
    }
}
