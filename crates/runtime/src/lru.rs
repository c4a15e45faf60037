//! A bounded LRU cache plus a thread-safe wrapper with hit/miss counters —
//! the backing store for the serving layer's per-query feature cache.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A bounded least-recently-used map. Recency is tracked with a monotonic
/// stamp per entry; eviction scans for the minimum stamp, which is O(cap)
/// but only runs on insertion into a full cache — fine for the few-hundred
/// entry caches this workspace uses, where lookups dominate.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, (u64, V)>,
    cap: usize,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `cap` entries (`cap` ≥ 1 enforced).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            map: HashMap::with_capacity(cap.min(1024)),
            cap,
            tick: 0,
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some((stamp, value)) => {
                *stamp = tick;
                Some(value)
            }
            None => None,
        }
    }

    /// Insert (or refresh) `key`, evicting the least-recently-used entry if
    /// the cache is full. Returns the value this displaced — the previous
    /// value under `key`, or the evicted entry's (never both: a refresh
    /// evicts nothing) — so the caller decides where its destructor runs.
    #[must_use = "dropping the displaced value here runs its destructor under the caller's lock"]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.tick += 1;
        let mut displaced = None;
        if self.map.len() >= self.cap && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                displaced = self.map.remove(&oldest).map(|(_, v)| v);
            }
        }
        let replaced = self.map.insert(key, (self.tick, value)).map(|(_, v)| v);
        displaced.or(replaced)
    }

    /// Keep only the entries whose key satisfies `keep`; drop the rest.
    /// Recency stamps of survivors are untouched.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.map.retain(|k, _| keep(k));
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// Cache effectiveness counters. `misses` counts lookups that found
/// nothing — through [`SharedLru::get_or_insert_with`] that equals the
/// number of compute-closure runs; through [`SharedLru::get`] it is the
/// plain not-found count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// Current number of entries.
    pub len: usize,
    /// The configured bound.
    pub cap: usize,
}

/// A `Mutex`-guarded [`LruCache`] shared across serving threads. Values are
/// cloned out (use `Arc<V>` for anything heavy). The compute closure of
/// [`SharedLru::get_or_insert_with`] runs *outside* the lock so concurrent
/// misses on different keys never serialize; two racing misses on the same
/// key may both compute, and the first insertion wins.
#[derive(Debug)]
pub struct SharedLru<K, V> {
    inner: Mutex<LruCache<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> SharedLru<K, V> {
    /// A shared cache bounded at `cap` entries.
    pub fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(LruCache::new(cap)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Counted lookup: the cached value for `key` (a hit, recency
    /// refreshed) or `None` (a miss). The split `get`/[`Self::insert`] pair
    /// exists for callers that put their own coalescing between the miss
    /// and the compute (the serving front end's single-flight path);
    /// everyone else should prefer [`Self::get_or_insert_with`].
    pub fn get(&self, key: &K) -> Option<V> {
        match self.inner.lock().unwrap().get(key).cloned() {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Uncounted lookup: like [`Self::get`] but touching neither counter.
    /// For re-checks on paths that already counted the lookup once.
    pub fn peek(&self, key: &K) -> Option<V> {
        self.inner.lock().unwrap().get(key).cloned()
    }

    /// Insert (or refresh) `key`, evicting the least-recently-used entry if
    /// the cache is full. Counts nothing. The displaced value is dropped
    /// after the lock is released: freeing a multi-megabyte entry must not
    /// stall every other lookup.
    pub fn insert(&self, key: K, value: V) {
        let displaced = self.inner.lock().unwrap().insert(key, value);
        drop(displaced);
    }

    /// Drop every entry whose key fails `keep` (targeted invalidation —
    /// the router uses this to evict one table's answers on retrain).
    /// Returns how many entries were removed.
    pub fn retain(&self, keep: impl FnMut(&K) -> bool) -> usize {
        let mut cache = self.inner.lock().unwrap();
        let before = cache.len();
        cache.retain(keep);
        before - cache.len()
    }

    /// Return the cached value for `key`, or compute, cache and return it.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.inner.lock().unwrap().get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = compute();
        let displaced = {
            let mut cache = self.inner.lock().unwrap();
            if let Some(existing) = cache.get(&key).cloned() {
                // Lost a same-key race while computing; keep the first insert
                // so every consumer sees one consistent value.
                return existing;
            }
            cache.insert(key, value.clone())
        };
        // Dropped here, outside the lock (see `insert`).
        drop(displaced);
        value
    }

    /// Snapshot the effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        let cache = self.inner.lock().unwrap();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            len: cache.len(),
            cap: cache.capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = LruCache::new(2);
        assert_eq!(lru.insert("a", 1), None);
        assert_eq!(lru.insert("b", 2), None);
        assert_eq!(lru.get(&"a"), Some(&1)); // refresh a; b is now oldest
        assert_eq!(lru.insert("c", 3), Some(2), "the evicted value comes back");
        assert_eq!(lru.get(&"b"), None, "b should have been evicted");
        assert_eq!(lru.get(&"a"), Some(&1));
        assert_eq!(lru.get(&"c"), Some(&3));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let mut lru = LruCache::new(2);
        assert_eq!(lru.insert(1, "x"), None);
        assert_eq!(lru.insert(2, "y"), None);
        assert_eq!(
            lru.insert(1, "z"),
            Some("x"),
            "the replaced value comes back"
        );
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&1), Some(&"z"));
        assert_eq!(lru.get(&2), Some(&"y"));
    }

    /// A value whose destructor records whether the cache's mutex was free
    /// when it ran.
    struct DropProbe {
        cache: std::sync::Weak<SharedLru<u32, std::sync::Arc<DropProbe>>>,
        dropped_unlocked: std::sync::Arc<Mutex<Vec<bool>>>,
    }

    impl Drop for DropProbe {
        fn drop(&mut self) {
            // The cache itself going away (end of test) records nothing.
            if let Some(cache) = self.cache.upgrade() {
                let unlocked = cache.inner.try_lock().is_ok();
                self.dropped_unlocked.lock().unwrap().push(unlocked);
            }
        }
    }

    #[test]
    fn displaced_values_are_dropped_outside_the_lock() {
        use std::sync::Arc;
        let dropped_unlocked = Arc::new(Mutex::new(Vec::new()));
        let cache = Arc::new(SharedLru::new(1));
        let probe = || {
            Arc::new(DropProbe {
                cache: Arc::downgrade(&cache),
                dropped_unlocked: Arc::clone(&dropped_unlocked),
            })
        };
        cache.insert(1, probe());
        cache.insert(1, probe()); // replaces key 1
        cache.insert(2, probe()); // evicts key 1
        cache.get_or_insert_with(3, probe); // evicts key 2
        assert_eq!(
            *dropped_unlocked.lock().unwrap(),
            vec![true; 3],
            "a displaced value's destructor must find the cache unlocked"
        );
    }

    #[test]
    fn shared_lru_computes_once_per_key() {
        let cache: SharedLru<u64, u64> = SharedLru::new(8);
        let mut computes = 0;
        for _ in 0..5 {
            let v = cache.get_or_insert_with(42, || {
                computes += 1;
                7
            });
            assert_eq!(v, 7);
        }
        assert_eq!(computes, 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn shared_lru_respects_bound() {
        let cache: SharedLru<u64, u64> = SharedLru::new(4);
        for k in 0..100 {
            cache.get_or_insert_with(k, || k * 2);
        }
        let stats = cache.stats();
        assert_eq!(stats.len, 4);
        assert_eq!(stats.cap, 4);
        assert_eq!(stats.misses, 100);
    }

    #[test]
    fn concurrent_get_or_insert_under_eviction_pressure_keeps_counters_consistent() {
        use crate::pool::ThreadPool;
        use std::sync::atomic::{AtomicU64, Ordering};
        // Keyspace (48) far exceeds capacity (8), so insertions continually
        // evict while four workers race on overlapping keys.
        let cache: SharedLru<u64, u64> = SharedLru::new(8);
        let pool = ThreadPool::new(4);
        let computes = AtomicU64::new(0);
        let lookups = 600;
        pool.scope_map(lookups, |i| {
            let k = (i % 48) as u64;
            let v = cache.get_or_insert_with(k, || {
                computes.fetch_add(1, Ordering::Relaxed);
                k * 7 + 1
            });
            // Whether freshly computed, raced, or cached, the value for a
            // key never varies.
            assert_eq!(v, k * 7 + 1);
        });
        let stats = cache.stats();
        assert_eq!(
            stats.hits + stats.misses,
            lookups as u64,
            "every lookup is exactly one hit or one miss"
        );
        assert_eq!(
            stats.misses,
            computes.load(Ordering::Relaxed),
            "misses must equal actual compute-closure runs"
        );
        assert!(stats.len <= 8, "bound violated: {} entries", stats.len);
        assert!(stats.misses >= 48, "48 distinct keys cannot fit in 8 slots");
    }

    #[test]
    fn concurrent_same_key_stampede_yields_one_consistent_value() {
        use crate::pool::ThreadPool;
        let cache: SharedLru<u64, u64> = SharedLru::new(4);
        let pool = ThreadPool::new(4);
        let out = pool.scope_map(256, |_| cache.get_or_insert_with(7, || 7000));
        assert!(out.iter().all(|&v| v == 7000));
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 256);
        assert!(stats.misses >= 1);
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn split_get_insert_counts_and_peek_does_not() {
        let cache: SharedLru<u32, u32> = SharedLru::new(8);
        assert_eq!(cache.get(&1), None, "first lookup misses");
        cache.insert(1, 11);
        assert_eq!(cache.get(&1), Some(11));
        assert_eq!(cache.peek(&1), Some(11));
        assert_eq!(cache.peek(&2), None);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one counted miss");
        assert_eq!(stats.hits, 1, "one counted hit; peeks count nothing");
    }

    #[test]
    fn retain_drops_only_matching_keys() {
        let cache: SharedLru<u32, u32> = SharedLru::new(16);
        for k in 0..10 {
            cache.insert(k, k * 2);
        }
        let removed = cache.retain(|k| k % 2 == 0);
        assert_eq!(removed, 5, "five odd keys dropped");
        assert_eq!(cache.stats().len, 5);
        assert_eq!(cache.peek(&4), Some(8), "survivors intact");
        assert_eq!(cache.peek(&5), None, "evicted keys gone");
    }

    #[test]
    fn concurrent_access_is_consistent() {
        use crate::pool::ThreadPool;
        let cache: SharedLru<u64, u64> = SharedLru::new(64);
        let pool = ThreadPool::new(4);
        let out = pool.scope_map(200, |i| {
            let k = (i % 32) as u64;
            cache.get_or_insert_with(k, || k + 1000)
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i % 32) as u64 + 1000);
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 200);
        assert!(stats.misses >= 32);
    }
}
