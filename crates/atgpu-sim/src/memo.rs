//! A bounded, thread-safe, **single-flight** memo — the one cache shape
//! under the kernel cache ([`crate::cache`]) and the serving layer's
//! verdict, analysis and quote memos.
//!
//! ## The memo rule
//!
//! A key is a hash, and a hash names a question only as well as it
//! resists collision.  So a lookup brings a `confirm` predicate with its
//! key, and a resident value answers only when `confirm` holds for it.
//! A value that fails is the answer to another question that hashed
//! alike: `compute` answers this one, it counts as a miss, it is not
//! cached, and the resident entry stays.  A caller whose key cannot be
//! forced to collide (a keyed hash nobody outside the process knows)
//! confirms with `|_| true`; one that already holds what it compiled
//! from compares it exactly.
//!
//! Every key owns a write-once cell that is inserted **under the map
//! lock**, so two callers can never both believe they are first: exactly
//! one of them runs `compute` and counts a miss; every other caller of
//! the same key — including the ones that arrive while the compute is
//! still running, which wait for it — counts a hit once its `confirm`
//! holds.  Hit and miss counters are therefore a pure function of the
//! lookup multiset, not of the thread schedule.
//!
//! Entries are evicted oldest-insertion-first beyond the budget.  A memo
//! made by [`BoundedMemo::new`] weighs every entry 1, so its budget is an
//! entry count; one made by [`BoundedMemo::weighted`] weighs an entry by
//! its value once computed (until then it weighs 1), so its budget can be
//! a byte count, and an entry heavier than the whole budget is returned
//! but not kept.  A compute that fails leaves nothing cached (the next
//! caller computes again) and counts neither a hit nor a miss.
//!
//! A panic under the map lock (a key's `Hash` / `Eq` / `Clone`) poisons
//! it; the memo recovers the guard instead of failing every later
//! lookup.  The lock guards a map, its insertion queue and their summed
//! weight, and the worst an interrupted update leaves is the queue and
//! the map out of step by one key, which `evict_over` tolerates in
//! either direction.

// On every served request's path (verdict, analysis and quote memos,
// kernel cache): nothing here may abort the server.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
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
    /// Each key's cell and the weight it is charged.
    map: HashMap<K, (Arc<Cell<V>>, usize)>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<K>,
    /// The charged weights, summed.
    held: usize,
}

impl<K: Hash + Eq, V> Inner<K, V> {
    /// Evicts oldest-first until at most `budget` is held.
    fn evict_over(&mut self, budget: usize) {
        while self.held > budget {
            match self.order.pop_front() {
                Some(old) => self.forget(&old),
                None => break,
            }
        }
    }

    fn forget(&mut self, key: &K) {
        if let Some((_, weight)) = self.map.remove(key) {
            self.held = self.held.saturating_sub(weight);
        }
    }
}

/// The bounded single-flight memo (see the module docs).
#[derive(Debug)]
pub struct BoundedMemo<K, V> {
    inner: RwLock<Inner<K, V>>,
    budget: usize,
    weigh: fn(&V) -> usize,
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
        Self::weighted(capacity, |_| 1)
    }

    /// A memo holding at most `budget` of weight, an entry weighing
    /// `weigh` of its value (1 while it is computed).  At least one entry
    /// is resident while one is computed.
    pub fn weighted(budget: usize, weigh: fn(&V) -> usize) -> Self {
        Self {
            inner: RwLock::new(Inner { map: HashMap::new(), order: VecDeque::new(), held: 0 }),
            budget,
            weigh,
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

    /// The value of `key`, computing it at most once across all
    /// concurrent callers; the flag is `true` for a hit.  A resident
    /// value answers only when `confirm` holds for it; one that fails is
    /// another question's answer (see the module docs).  `compute` runs
    /// outside the map lock, so lookups of other keys never wait for it.
    pub fn get_or_try_compute<E>(
        &self,
        key: K,
        confirm: impl Fn(&V) -> bool,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let resident = self.read().map.get(&key).and_then(|(cell, _)| cell.value.get().cloned());
        if let Some(value) = resident {
            return self.confirmed(value, confirm, compute);
        }
        let cell = {
            let mut inner = self.write();
            match inner.map.get(&key) {
                Some((cell, _)) => Arc::clone(cell),
                None => {
                    inner.evict_over(self.budget.max(1) - 1);
                    let cell = Arc::new(Cell { value: OnceLock::new(), computing: Mutex::new(()) });
                    inner.order.push_back(key.clone());
                    inner.map.insert(key.clone(), (Arc::clone(&cell), 1));
                    inner.held += 1;
                    cell
                }
            }
        };
        let _computing = cell.computing.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(value) = cell.value.get() {
            // Another caller computed it while this one waited.
            return self.confirmed(value.clone(), confirm, compute);
        }
        match compute() {
            Ok(value) => {
                let _ = cell.value.set(value.clone());
                self.misses.fetch_add(1, Ordering::Relaxed);
                let weight = (self.weigh)(&value);
                if weight != 1 {
                    self.charge(&key, &cell, weight);
                }
                Ok((value, false))
            }
            Err(e) => {
                let mut inner = self.write();
                if inner.map.get(&key).is_some_and(|(c, _)| Arc::ptr_eq(c, &cell)) {
                    inner.forget(&key);
                    inner.order.retain(|k| k != &key);
                }
                Err(e)
            }
        }
    }

    /// Charges `cell`, if it is still `key`'s, its computed `weight`, and
    /// evicts oldest-first back under the budget.
    fn charge(&self, key: &K, cell: &Arc<Cell<V>>, weight: usize) {
        let mut inner = self.write();
        let Some((resident, charged)) = inner.map.get_mut(key) else { return };
        if !Arc::ptr_eq(resident, cell) {
            return;
        }
        let was = std::mem::replace(charged, weight);
        inner.held = inner.held.saturating_sub(was).saturating_add(weight);
        inner.evict_over(self.budget);
    }

    /// A resident `value`: a hit when `confirm` holds, otherwise the
    /// answer to another question, which `compute` replaces uncached.
    fn confirmed<E>(
        &self,
        value: V,
        confirm: impl Fn(&V) -> bool,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        if confirm(&value) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((value, true));
        }
        let value = compute()?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((value, false))
    }

    /// [`Self::get_or_try_compute`] for a compute that cannot fail.
    pub fn get_or_compute(
        &self,
        key: K,
        confirm: impl Fn(&V) -> bool,
        compute: impl FnOnce() -> V,
    ) -> (V, bool) {
        let found = self.get_or_try_compute(key, confirm, || Ok::<V, Infallible>(compute()));
        match found {
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

    fn any<V>(_: &V) -> bool {
        true
    }

    #[test]
    fn computes_once_and_counts() {
        let memo = BoundedMemo::new(8);
        let mut computed = 0;
        for _ in 0..3 {
            let (v, _) = memo.get_or_compute(7u64, any, || {
                computed += 1;
                "seven"
            });
            assert_eq!(v, "seven");
        }
        assert_eq!(computed, 1);
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (2, 1, 1));
    }

    #[test]
    fn fifo_eviction_and_rebounding() {
        let memo = BoundedMemo::new(2);
        for key in 0..3u64 {
            memo.get_or_compute(key, any, || key);
        }
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.get_or_compute(2, any, || 20), (2, true));
        assert_eq!(memo.get_or_compute(0, any, || 10), (10, false), "the oldest was evicted");
    }

    /// A weighted memo keeps what fits its budget, oldest out first, and
    /// returns but does not keep a value heavier than the whole budget.
    #[test]
    fn weighted_eviction_holds_the_budget() {
        let memo: BoundedMemo<u64, usize> = BoundedMemo::weighted(10, |&w| w);
        for key in 0..3u64 {
            memo.get_or_compute(key, any, || 4);
        }
        assert_eq!(memo.len(), 2, "4 + 4 + 4 is over 10: the oldest went");
        assert_eq!(memo.get_or_compute(0, any, || 4), (4, false));
        assert_eq!(memo.get_or_compute(2, any, || 0), (4, true));
        assert_eq!(memo.get_or_compute(9, any, || 11), (11, false));
        assert_eq!(memo.len(), 0, "a value past the budget evicts all and is not kept");
        assert_eq!(memo.get_or_compute(9, any, || 11), (11, false));
        assert_eq!((memo.hits(), memo.misses()), (1, 6));
    }

    #[test]
    fn failed_compute_caches_nothing() {
        let memo: BoundedMemo<u64, u64> = BoundedMemo::new(8);
        assert_eq!(memo.get_or_try_compute(1, any, || Err::<u64, _>("boom")), Err("boom"));
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (0, 0, 0));
        assert_eq!(memo.get_or_try_compute(1, any, || Ok::<_, &str>(5)), Ok((5, false)));
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (0, 1, 1));
    }

    /// A resident value `confirm` refuses answers another question: this
    /// one is computed, counted as a miss and not cached, and the
    /// resident entry keeps answering the lookups it confirms for.
    #[test]
    fn an_unconfirmed_hit_is_an_uncached_miss() {
        let memo: BoundedMemo<u64, u64> = BoundedMemo::new(8);
        let is = |want: u64| move |v: &u64| *v == want;
        assert_eq!(memo.get_or_compute(1, is(10), || 10), (10, false));
        assert_eq!(memo.get_or_compute(1, is(20), || 20), (20, false), "computed, not a hit");
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (0, 2, 1));
        assert_eq!(memo.get_or_compute(1, is(20), || 20), (20, false), "and not cached");
        assert_eq!(memo.get_or_compute(1, is(10), || 11), (10, true), "the resident entry stays");
        assert_eq!(memo.get_or_try_compute(1, is(30), || Err::<u64, _>("boom")), Err("boom"));
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (1, 3, 1));
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
                        let (v, _) = memo.get_or_compute(42, any, || {
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
        memo.get_or_compute(1, any, || 10);
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = memo.inner.write().unwrap();
                panic!("poison the memo lock");
            })
            .join()
        });
        assert!(died.is_err() && memo.inner.is_poisoned());
        assert_eq!(memo.get_or_compute(1, any, || 11), (10, true));
        assert_eq!(memo.get_or_compute(2, any, || 20), (20, false));
        assert_eq!(memo.get_or_compute(2, any, || 21), (20, true));
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (2, 2, 2));
    }
}
