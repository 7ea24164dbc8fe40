//! A bounded, thread-safe, **single-flight** memo — the one cache shape
//! under the kernel cache ([`crate::cache`]) and the serving layer's
//! verdict and quote memos.
//!
//! Every key owns a write-once cell that is inserted **under the map
//! lock**, so two callers can never both believe they are first: exactly
//! one of them runs `compute` and counts a miss; every other caller of
//! the same key — including the ones that arrive while the compute is
//! still running, which wait for it — counts a hit.  Hit and miss
//! counters are therefore a pure function of the lookup multiset, not of
//! the thread schedule.
//!
//! Entries are evicted oldest-insertion-first beyond the capacity.  A
//! compute that fails leaves nothing cached (the next caller computes
//! again) and counts neither a hit nor a miss.
//!
//! A panic under the map lock (a key's `Hash` / `Eq` / `Clone`) poisons
//! it; the memo recovers the guard instead of failing every later
//! lookup.  The lock guards a map and its insertion queue, and the worst
//! an interrupted update leaves is the two out of step by one key, which
//! `evict_to` tolerates in either direction.

// On every served request's path (verdict memo, quote memo, kernel
// cache): nothing here may abort the server.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One key's slot: the value once computed, and the lock that makes the
/// computing caller unique.
#[derive(Debug)]
struct Cell<V> {
    value: OnceLock<V>,
    /// Held while computing.  It guards no data (the value lives in the
    /// `OnceLock`), so a compute that panicked is recovered from by
    /// simply taking the lock again.
    computing: Mutex<()>,
}

#[derive(Debug)]
struct Inner<K, V> {
    map: HashMap<K, Arc<Cell<V>>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<K>,
}

impl<K: Hash + Eq, V> Inner<K, V> {
    fn evict_to(&mut self, len: usize) {
        while self.map.len() > len {
            match self.order.pop_front() {
                Some(old) => self.map.remove(&old),
                None => break,
            };
        }
    }
}

/// The bounded single-flight memo (see the module docs).
#[derive(Debug)]
pub struct BoundedMemo<K, V> {
    inner: RwLock<Inner<K, V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> BoundedMemo<K, V> {
    fn read(&self) -> RwLockReadGuard<'_, Inner<K, V>> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Inner<K, V>> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// A memo holding at most `capacity` entries (at least one while
    /// anything is inserted).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: RwLock::new(Inner { map: HashMap::new(), order: VecDeque::new() }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.read().map.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from a resident entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that computed their value.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The resident value of `key`, counted as a hit; `None` (uncounted)
    /// when the key is absent or still being computed.  Takes the read
    /// lock only.  `key` may be any borrowed form of `K`, so a caller can
    /// look up without building an owned key.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.lookup(key, |_, value| value.clone())
    }

    /// [`Self::get`] that also returns the resident key — an owned key
    /// for a caller that looked up by a borrowed form.
    pub fn get_key_value<Q>(&self, key: &Q) -> Option<(K, V)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.lookup(key, |key, value| (key.clone(), value.clone()))
    }

    /// The one counted lookup under `get` and `get_key_value`.
    fn lookup<Q, R>(&self, key: &Q, found: impl FnOnce(&K, &V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let inner = self.read();
        let (key, cell) = inner.map.get_key_value(key)?;
        let found = found(key, cell.value.get()?);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(found)
    }

    /// The value of `key`, computing it at most once across all
    /// concurrent callers; the flag is `true` for a hit.  `compute` runs
    /// outside the map lock, so lookups of other keys never wait for it.
    pub fn get_or_try_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        if let Some(value) = self.get(&key) {
            return Ok((value, true));
        }
        let cell = {
            let mut inner = self.write();
            match inner.map.get(&key) {
                Some(cell) => Arc::clone(cell),
                None => {
                    inner.evict_to(self.capacity.max(1) - 1);
                    let cell = Arc::new(Cell { value: OnceLock::new(), computing: Mutex::new(()) });
                    inner.order.push_back(key.clone());
                    inner.map.insert(key.clone(), Arc::clone(&cell));
                    cell
                }
            }
        };
        let _computing = cell.computing.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(value) = cell.value.get() {
            // Another caller computed it while this one waited.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((value.clone(), true));
        }
        match compute() {
            Ok(value) => {
                let _ = cell.value.set(value.clone());
                self.misses.fetch_add(1, Ordering::Relaxed);
                Ok((value, false))
            }
            Err(e) => {
                let mut inner = self.write();
                if inner.map.get(&key).is_some_and(|c| Arc::ptr_eq(c, &cell)) {
                    inner.map.remove(&key);
                    inner.order.retain(|k| k != &key);
                }
                Err(e)
            }
        }
    }

    /// [`Self::get_or_try_compute`] for a compute that cannot fail.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (V, bool) {
        match self.get_or_try_compute(key, || Ok::<V, std::convert::Infallible>(compute())) {
            Ok(found) => found,
            Err(never) => match never {},
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn computes_once_and_counts() {
        let memo = BoundedMemo::new(8);
        let mut computed = 0;
        for _ in 0..3 {
            let (v, _) = memo.get_or_compute(7u64, || {
                computed += 1;
                "seven"
            });
            assert_eq!(v, "seven");
        }
        assert_eq!(computed, 1);
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (2, 1, 1));
        assert_eq!(memo.get(&9), None, "an absent key is not a counted lookup");
        assert_eq!((memo.hits(), memo.misses()), (2, 1));
    }

    #[test]
    fn fifo_eviction_and_rebounding() {
        let memo = BoundedMemo::new(2);
        for key in 0..3u64 {
            memo.get_or_compute(key, || key);
        }
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.get(&0), None, "the oldest insertion was evicted");
        assert_eq!(memo.get(&2), Some(2));
    }

    #[test]
    fn failed_compute_caches_nothing() {
        let memo: BoundedMemo<u64, u64> = BoundedMemo::new(8);
        assert_eq!(memo.get_or_try_compute(1, || Err::<u64, _>("boom")), Err("boom"));
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (0, 0, 0));
        assert_eq!(memo.get_or_try_compute(1, || Ok::<_, &str>(5)), Ok((5, false)));
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (0, 1, 1));
    }

    /// N threads released on one key from a barrier: one compute, one
    /// miss, N − 1 hits — whatever the schedule.
    #[test]
    fn same_key_concurrency_is_single_flight() {
        const N: usize = 8;
        for _ in 0..50 {
            let memo: BoundedMemo<u64, u64> = BoundedMemo::new(4);
            let computes = AtomicU64::new(0);
            let barrier = Barrier::new(N);
            std::thread::scope(|s| {
                for _ in 0..N {
                    s.spawn(|| {
                        barrier.wait();
                        let (v, _) = memo.get_or_compute(42, || {
                            computes.fetch_add(1, Ordering::Relaxed);
                            // Widen the window the other callers arrive in.
                            std::thread::yield_now();
                            4242
                        });
                        assert_eq!(v, 4242);
                    });
                }
            });
            assert_eq!(computes.load(Ordering::Relaxed), 1);
            assert_eq!((memo.hits(), memo.misses(), memo.len()), (N as u64 - 1, 1, 1));
        }
    }

    /// A thread that panics while holding the write lock poisons it; the
    /// memo must still answer and still count.
    #[test]
    fn poisoned_lock_still_answers_and_counts() {
        let memo: BoundedMemo<u64, u64> = BoundedMemo::new(4);
        memo.get_or_compute(1, || 10);
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = memo.inner.write().unwrap();
                panic!("poison the memo lock");
            })
            .join()
        });
        assert!(died.is_err() && memo.inner.is_poisoned());
        assert_eq!(memo.get(&1), Some(10));
        assert_eq!(memo.get_or_compute(2, || 20), (20, false));
        assert_eq!(memo.get_or_compute(2, || 21), (20, true));
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (2, 2, 2));
    }
}
