//! A bounded MPMC request queue — the admission-control heart of the
//! serving front end, and (at capacity `usize::MAX`) the task queue every
//! [`ThreadPool`](crate::ThreadPool) worker sleeps on.
//!
//! [`RequestQueue`] is a capacity-bounded multi-producer/multi-consumer
//! channel built on `Mutex` + two `Condvar`s (this workspace vendors its
//! dependencies, so no crossbeam). Producers observe **backpressure**:
//! [`RequestQueue::try_submit`] rejects immediately when the queue is full,
//! [`RequestQueue::submit`] blocks until capacity frees. Consumers call
//! [`RequestQueue::recv`], which blocks while the queue is open and empty.
//!
//! Shutdown is graceful by construction: [`RequestQueue::close`] stops new
//! submissions (blocked submitters wake with [`SubmitError::Closed`],
//! getting their item back) but **already-accepted items stay queued** —
//! `recv` keeps draining them and only returns `None` once the queue is
//! both closed and empty. Nothing accepted is ever dropped on the floor.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// Why a submission was not accepted. The rejected item is handed back so
/// the caller can retry, reroute, or surface it.
#[derive(Debug)]
pub enum SubmitError<T> {
    /// The queue is at capacity (only `try_submit` reports this).
    Full(T),
    /// The queue has been closed; no new work is admitted.
    Closed(T),
}

impl<T> SubmitError<T> {
    /// Recover the item that was not enqueued.
    pub fn into_inner(self) -> T {
        match self {
            SubmitError::Full(item) | SubmitError::Closed(item) => item,
        }
    }

    /// True for the capacity-rejection variant.
    pub fn is_full(&self) -> bool {
        matches!(self, SubmitError::Full(_))
    }
}

/// A bounded MPMC queue with blocking and non-blocking submission and
/// graceful close-and-drain shutdown. All methods take `&self`; share it
/// behind an `Arc` between any number of producers and consumers.
pub struct RequestQueue<T> {
    items: Mutex<VecDeque<T>>,
    /// Only ever stored with `items` locked, so whoever holds the lock (a
    /// submitter or receiver about to wait) cannot miss a close; read
    /// without it by [`RequestQueue::is_closed`], which admission asks on
    /// every request.
    closed: AtomicBool,
    /// Signalled when an item is taken or the queue closes (submitters wait).
    not_full: Condvar,
    /// Signalled when an item arrives or the queue closes (receivers wait).
    not_empty: Condvar,
    cap: usize,
}

impl<T> RequestQueue<T> {
    /// A queue admitting at most `cap` in-flight items (`cap` ≥ 1 enforced).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            items: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
            closed: AtomicBool::new(false),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            cap,
        }
    }

    /// Enqueue `item`, blocking while the queue is full. Returns
    /// `Err(Closed)` — with the item — if the queue is (or becomes while
    /// waiting) closed.
    pub fn submit(&self, item: T) -> Result<(), SubmitError<T>> {
        let mut items = self.items.lock().unwrap();
        loop {
            if self.is_closed() {
                return Err(SubmitError::Closed(item));
            }
            if items.len() < self.cap {
                items.push_back(item);
                drop(items);
                self.not_empty.notify_one();
                return Ok(());
            }
            items = self.not_full.wait(items).unwrap();
        }
    }

    /// Enqueue `item` only if there is capacity right now; never blocks.
    pub fn try_submit(&self, item: T) -> Result<(), SubmitError<T>> {
        let mut items = self.items.lock().unwrap();
        if self.is_closed() {
            return Err(SubmitError::Closed(item));
        }
        if items.len() >= self.cap {
            return Err(SubmitError::Full(item));
        }
        items.push_back(item);
        drop(items);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeue the oldest item, blocking while the queue is open and empty.
    /// Returns `None` only when the queue is closed **and** fully drained.
    pub fn recv(&self) -> Option<T> {
        let mut items = self.items.lock().unwrap();
        loop {
            if let Some(item) = items.pop_front() {
                drop(items);
                self.not_full.notify_one();
                return Some(item);
            }
            if self.is_closed() {
                return None;
            }
            items = self.not_empty.wait(items).unwrap();
        }
    }

    /// Dequeue the oldest item if one is queued; never blocks.
    pub fn try_recv(&self) -> Option<T> {
        let item = self.items.lock().unwrap().pop_front();
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Stop admitting work. Idempotent. Blocked submitters wake with
    /// `Closed`; receivers keep draining what was already accepted.
    pub fn close(&self) {
        {
            let _items = self.items.lock().unwrap();
            self.closed.store(true, Ordering::SeqCst);
        }
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// True once [`RequestQueue::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Number of queued (accepted, not yet received) items.
    pub fn len(&self) -> usize {
        self.items.lock().unwrap().len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_within_capacity() {
        let q = RequestQueue::new(4);
        for i in 0..4 {
            q.submit(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.try_recv(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn try_submit_rejects_when_full_and_recovers_item() {
        let q = RequestQueue::new(2);
        q.try_submit("a").unwrap();
        q.try_submit("b").unwrap();
        let err = q.try_submit("c").unwrap_err();
        assert!(err.is_full());
        assert_eq!(err.into_inner(), "c");
        // Freeing one slot re-admits.
        assert_eq!(q.try_recv(), Some("a"));
        q.try_submit("c").unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn submit_blocks_until_capacity_frees_then_completes() {
        let q = Arc::new(RequestQueue::new(1));
        q.submit(0u32).unwrap();
        let enqueued = Arc::new(AtomicBool::new(false));
        let t = {
            let q = Arc::clone(&q);
            let enqueued = Arc::clone(&enqueued);
            thread::spawn(move || {
                q.submit(1).unwrap();
                enqueued.store(true, Ordering::SeqCst);
            })
        };
        // Nothing drains the queue, so the submitter cannot have finished.
        thread::sleep(Duration::from_millis(40));
        assert!(
            !enqueued.load(Ordering::SeqCst),
            "submit must block while the queue is full"
        );
        assert_eq!(q.recv(), Some(0));
        t.join().unwrap();
        assert!(enqueued.load(Ordering::SeqCst));
        assert_eq!(q.recv(), Some(1));
    }

    #[test]
    fn close_wakes_blocked_submitter_with_item_back() {
        let q = Arc::new(RequestQueue::new(1));
        q.submit("kept").unwrap();
        let t = {
            let q = Arc::clone(&q);
            thread::spawn(move || match q.submit("rejected") {
                Err(SubmitError::Closed(item)) => item,
                other => panic!("expected Closed, got {other:?}"),
            })
        };
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(t.join().unwrap(), "rejected");
        // Accepted work still drains after close.
        assert_eq!(q.recv(), Some("kept"));
        assert_eq!(q.recv(), None, "closed and drained");
        assert!(q.submit("late").is_err());
    }

    #[test]
    fn recv_blocks_until_item_or_close() {
        let q = Arc::new(RequestQueue::<u8>::new(4));
        let t = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.recv())
        };
        thread::sleep(Duration::from_millis(20));
        q.submit(9).unwrap();
        assert_eq!(t.join().unwrap(), Some(9));

        let t = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.recv())
        };
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(t.join().unwrap(), None);
    }

    #[test]
    fn many_producers_many_consumers_deliver_everything_once() {
        let q = Arc::new(RequestQueue::new(8));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..50u64 {
                        q.submit(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut want: Vec<u64> = (0..4)
            .flat_map(|p| (0..50).map(move |i| p * 1000 + i))
            .collect();
        want.sort_unstable();
        assert_eq!(all, want, "every accepted item delivered exactly once");
    }
}
