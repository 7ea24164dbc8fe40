//! The cross-launch kernel cache: keyed compiled programs, reused across
//! launches the way real drivers cache PTX→SASS compilations.  An entry
//! is the compiled program and what it was compiled from, no timing;
//! what a hit saves is lowering.
//!
//! ## Keying rule
//!
//! An entry is found by a 64-bit key and confirmed by what it was
//! compiled from ([`crate::memo`]'s rule).  A [`CacheEntry`] holds
//! everything [`CompiledKernel::compile`] reads:
//!
//! * the kernel's **structure** — instruction body, grid and shared
//!   footprint, with the name cleared (a diagnostic label: renamed
//!   kernels share an entry, any instruction mutation misses);
//! * the device-buffer **base addresses** (compilation folds them into
//!   affine sites and the coalescing transaction tables);
//! * the lane count `b` (the register count is a function of the
//!   structure, which the lowering's own walk counts).
//!
//! The key is [`entry_key`]: [`Fnv1a`]'s word step over
//! [`Kernel::hash_structure`], the bases and `b`, one step per field.  A
//! hit is confirmed by [`CacheEntry::compiled_for`], which compares the
//! structure, then the bases, then `b`, exactly.  A 64-bit unkeyed hash is
//! not collision-resistant (every immediate is a free word), so a launch
//! whose key finds another kernel's entry compiles its own, as a miss
//! that is not cached — on a shared server whose caches outlive
//! requests, one tenant's compiled kernel never runs for another's.  A
//! miss therefore costs its key, one exact comparison at most, its
//! validation and lowering, and the copy of the structure it keeps.
//!
//! ## The previous launch
//!
//! A relaunch is recognised before it is hashed.  A device hands every
//! lookup the entry of its previous launch ([`KernelCache::get_or_compile`]'s
//! `last`) and gets this launch's back in it.  When that entry is
//! [`compiled_for`](CacheEntry::compiled_for) this launch, its key *is*
//! this launch's, and the resident entry under it is confirmed by
//! [`Arc::ptr_eq`] with it (structurally only if it is another entry):
//! the one structural comparison the launch pays is against the
//! previous kernel.  Only a launch that differs from
//! its predecessor pays the key.  The memo is still asked on
//! every launch, once: the previous entry only replaces the way the key
//! is built, so hits, misses and FIFO residency are the same function of
//! the launch sequence — an evicted previous entry is a miss that
//! compiles and re-inserts, as any evicted entry is.
//!
//! ## Invalidation and the bound
//!
//! Entries are only ever superseded, never mutated: a changed kernel or
//! layout produces a different key.  The per-device cache holds at most
//! [`DEFAULT_CACHE_CAPACITY`] entries for the device's whole life,
//! evicting the oldest insertion (FIFO) beyond that.  There is no
//! switch: a cold launch is a miss on a fresh [`crate::Device`], and a
//! hit returns the program a miss compiles (bit-identical memory,
//! statistics and events: `tests/cache_differential.rs`).
//!
//! ## Concurrency
//!
//! Each [`crate::Device`] owns its own cache, so threaded cluster
//! dispatch never contends across devices.  Within a device the cache is
//! a [`BoundedMemo`]: a hit takes the map's read lock only, and a miss
//! is **single-flight** — the entry's cell is inserted under the map
//! lock, one caller compiles (outside the map lock, so other keys never
//! wait), and concurrent launches of the same kernel wait for that
//! compile and count as hits.  The counters are therefore a function of
//! the launches made, never of how shard threads interleave.

use crate::error::SimError;
use crate::memo::BoundedMemo;
use crate::uop::CompiledKernel;
use atgpu_ir::validate::validate_launch;
use atgpu_ir::{Fnv1a, Kernel};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Entry bound of every device's cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// One compiled kernel and the launch it was compiled for (see "Keying
/// rule" in the module docs).
#[derive(Debug)]
pub struct CacheEntry {
    /// The memo key: [`entry_key`] of the launch it was compiled for.
    pub key: u64,
    /// The kernel with its name cleared.
    pub structure: Kernel,
    /// Device-buffer base addresses the compile folded in.
    pub bases: Box<[u64]>,
    /// Lanes per block.
    pub b: u32,
    /// The compiled program.
    pub compiled: CompiledKernel,
}

impl CacheEntry {
    /// Whether this entry is the compilation of `kernel` for a launch
    /// with device-buffer `bases` and `b` lanes.
    pub fn compiled_for(&self, kernel: &Kernel, bases: &[u64], b: u32) -> bool {
        self.structure.same_structure(kernel) && *self.bases == *bases && self.b == b
    }
}

/// The key of a launch of `kernel` with `bases` and `b` lanes (see
/// "Keying rule" in the module docs).
pub fn entry_key(kernel: &Kernel, bases: &[u64], b: u32) -> u64 {
    let mut h = Fnv1a::default();
    kernel.hash_structure(&mut h);
    bases.hash(&mut h);
    b.hash(&mut h);
    h.finish()
}

/// Cache observability counters, surfaced through
/// [`crate::device::DeviceStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Launches served from a cached compilation.
    pub hits: u64,
    /// Launches that compiled fresh and populated the cache.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over total lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Folds another device's counters in (cluster-wide totals).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.entries += other.entries;
    }
}

/// The per-device keyed kernel cache.
#[derive(Debug)]
pub struct KernelCache {
    memo: BoundedMemo<u64, Arc<CacheEntry>>,
}

impl KernelCache {
    /// A cache bounded to `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        Self { memo: BoundedMemo::new(capacity) }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats { hits: self.memo.hits(), misses: self.memo.misses(), entries: self.memo.len() }
    }

    /// Looks up (or validates, compiles and inserts) the compilation of
    /// `kernel` for a launch with device-buffer `bases` and `b` lanes.
    /// `last` is the entry of the device's previous launch (`None` before
    /// its first) and holds this launch's on return — see "The previous
    /// launch" in the module docs.
    ///
    /// A miss first checks [`validate_launch`] over the launch's buffers,
    /// and a kernel that fails it is [`SimError::Invalid`] and is
    /// not cached.  Everything the check reads is confirmed on a hit, so
    /// a hit is a kernel that passed it.
    pub fn get_or_compile(
        &self,
        kernel: &Kernel,
        bases: &[u64],
        b: u32,
        last: &mut Option<Arc<CacheEntry>>,
    ) -> Result<Arc<CacheEntry>, SimError> {
        let previous = last.as_ref().filter(|e| e.compiled_for(kernel, bases, b));
        let key = previous.map_or_else(|| entry_key(kernel, bases, b), |e| e.key);
        let confirm = |e: &Arc<CacheEntry>| {
            previous.is_some_and(|p| Arc::ptr_eq(e, p)) || e.compiled_for(kernel, bases, b)
        };
        let (entry, _) = self.memo.get_or_try_compute(key, confirm, || {
            validate_launch(kernel, bases.len())?;
            let structure = Kernel {
                name: String::new(),
                body: kernel.body.clone(),
                grid: kernel.grid,
                shared_words: kernel.shared_words,
            };
            let compiled = CompiledKernel::compile(kernel, bases, b, 0);
            Ok::<_, SimError>(Arc::new(CacheEntry {
                key,
                structure,
                bases: bases.into(),
                b,
                compiled,
            }))
        })?;
        *last = Some(Arc::clone(&entry));
        Ok(entry)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_ir::{AddrExpr, DBuf, KernelBuilder, Operand};

    fn kernel(name: &str, imm: i64) -> Kernel {
        let mut kb = KernelBuilder::new(name, 4, 8);
        kb.glb_to_shr(AddrExpr::lane(), DBuf(0), AddrExpr::block() * 4 + AddrExpr::lane());
        kb.mov(0, Operand::Imm(imm));
        kb.build()
    }

    /// A lookup with no previous launch: the hashing path.
    fn get(cache: &KernelCache, k: &Kernel, bases: &[u64], b: u32) -> Arc<CacheEntry> {
        cache.get_or_compile(k, bases, b, &mut None).unwrap()
    }

    #[test]
    fn hit_returns_same_compilation() {
        let cache = KernelCache::new(8);
        let k = kernel("a", 1);
        let e1 = get(&cache, &k, &[0], 4);
        let e2 = get(&cache, &k, &[0], 4);
        assert!(Arc::ptr_eq(&e1, &e2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn renamed_kernel_hits_mutated_kernel_misses() {
        let cache = KernelCache::new(8);
        let e1 = get(&cache, &kernel("a", 1), &[0], 4);
        let e2 = get(&cache, &kernel("b", 1), &[0], 4);
        assert!(Arc::ptr_eq(&e1, &e2), "name is not part of the key");
        let e3 = get(&cache, &kernel("a", 2), &[0], 4);
        assert!(!Arc::ptr_eq(&e1, &e3), "instruction mutation must miss");
    }

    /// Another kernel's entry planted under a launch's key does not
    /// answer it: the launch compiles its own as a miss that is not
    /// cached, also as the previous launch, and the planted entry stays.
    #[test]
    fn colliding_keys_do_not_alias() {
        let cache = KernelCache::new(8);
        let (one, two) = (kernel("a", 1), kernel("a", 2));
        let key = entry_key(&two, &[0], 4);
        let planted = Arc::new(CacheEntry {
            key,
            structure: one.clone(),
            bases: Box::new([0]),
            b: 4,
            compiled: CompiledKernel::compile(&one, &[0], 4, 0),
        });
        cache.memo.get_or_compute(key, |_| true, || Arc::clone(&planted));
        let mut last = None;
        for _ in 0..2 {
            let own = cache.get_or_compile(&two, &[0], 4, &mut last).unwrap();
            assert!(!Arc::ptr_eq(&own, &planted));
            assert!(last.as_ref().is_some_and(|e| e.compiled_for(&two, &[0], 4)));
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 3, 1));
        let (resident, hit) =
            cache.memo.get_or_compute(key, |e| Arc::ptr_eq(e, &planted), || unreachable!());
        assert!(hit && Arc::ptr_eq(&resident, &planted), "the planted entry stays resident");
    }

    /// Bases and `b` key separately — on the hashing path, and on the
    /// previous-launch path, whose key a launch with other bases or
    /// another `b` must not take for its own.
    #[test]
    fn launch_parameters_are_part_of_the_key() {
        let cache = KernelCache::new(8);
        let k = kernel("a", 1);
        let mut last = None;
        let base = cache.get_or_compile(&k, &[0], 4, &mut last).unwrap();
        for (bases, b) in [(&[8u64][..], 4), (&[0][..], 8)] {
            assert!(!Arc::ptr_eq(&base, &get(&cache, &k, bases, b)), "bases/b key separately");
            let mut previous = last.clone();
            let e = cache.get_or_compile(&k, bases, b, &mut previous).unwrap();
            assert!(!Arc::ptr_eq(&base, &e), "the previous launch's key is not this one's");
            assert_eq!(previous.map(|e| (e.bases.to_vec(), e.b)), Some((bases.to_vec(), b)));
        }
        assert_eq!((cache.stats().misses, cache.stats().hits), (3, 2));
    }

    /// A relaunch through the previous launch's key finds the same entry
    /// and counts exactly what the hashing path counts — including a
    /// miss, compile and re-insertion once FIFO has evicted that entry.
    #[test]
    fn the_previous_launch_counts_like_any_lookup() {
        let cache = KernelCache::new(2);
        let a = kernel("a", 1);
        let mut last = None;
        let first = cache.get_or_compile(&a, &[0], 4, &mut last).unwrap();
        let again = cache.get_or_compile(&kernel("renamed", 1), &[0], 4, &mut last).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));

        get(&cache, &kernel("a", 2), &[0], 4);
        get(&cache, &kernel("a", 3), &[0], 4); // evicts imm = 1
        let back = cache.get_or_compile(&a, &[0], 4, &mut last).unwrap();
        assert!(!Arc::ptr_eq(&first, &back), "an evicted entry compiles again");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 4, 2));
        assert!(Arc::ptr_eq(&back, &get(&cache, &a, &[0], 4)), "and is resident again");
    }

    /// A kernel the validator refuses is an error, takes no entry and is
    /// no previous launch: the next lookup checks it again.
    #[test]
    fn a_refused_kernel_is_an_error_and_is_not_cached() {
        let cache = KernelCache::new(8);
        let mut kb = KernelBuilder::new("bad", 4, 8);
        kb.glb_to_shr(AddrExpr::lane(), DBuf(1), AddrExpr::lane());
        let bad = kb.build();
        let mut last = None;
        for _ in 0..2 {
            let err = cache.get_or_compile(&bad, &[0], 4, &mut last).unwrap_err();
            assert!(matches!(err, SimError::Invalid { .. }), "{err}");
            assert!(last.is_none(), "a refused launch is no previous launch");
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
        assert!(cache.get_or_compile(&bad, &[0, 64], 4, &mut last).is_ok(), "two buffers");
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let cache = KernelCache::new(2);
        get(&cache, &kernel("a", 1), &[0], 4);
        get(&cache, &kernel("a", 2), &[0], 4);
        get(&cache, &kernel("a", 3), &[0], 4); // evicts imm=1
        assert_eq!(cache.stats().entries, 2);
        get(&cache, &kernel("a", 1), &[0], 4); // must re-miss
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 4);
    }
}
